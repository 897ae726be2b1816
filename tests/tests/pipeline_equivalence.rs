//! Decision equivalence between the two evaluation pipelines of
//! [`pdftsp_core::Pdftsp`].
//!
//! The optimized pipeline (shared delta grid, scratch arena, admission
//! pruning, early DP termination, incumbent skip and shared-start memo)
//! must make **bit-identical** admission, scheduling, payment, and
//! dual-update decisions to the straight-line reference pipeline it
//! replaced. These tests run both pipelines in lockstep over randomized
//! scenarios and compare every externally observable artifact after
//! every arrival.
//!
//! The one *documented* divergence is reject-record bookkeeping: a pruned
//! vendor's `F(il)` is proven non-positive without being computed, so the
//! optimized pipeline may log `None` where the reference logs the exact
//! value, and the rejection reason may name the surplus instead of
//! infeasibility. Nothing downstream (duals, ledger, payments, welfare)
//! depends on that metadata.
//!
//! Randomization is driven by an explicit seeded [`StdRng`] loop per
//! property (the workspace vendors a minimal offline `rand`; proptest is
//! unavailable without a registry). Failures print the case number so any
//! instance replays deterministically.

use pdftsp_core::{Pdftsp, PdftspConfig};
use pdftsp_types::{AuctionOutcome, Scenario};
use pdftsp_workload::{ArrivalProcess, ScenarioBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A randomized small-to-medium scenario: 2–6 nodes, 10–30 slots, light
/// to moderate load, 2–6 vendors, variable pre-processing share.
fn random_scenario(rng: &mut StdRng) -> Scenario {
    ScenarioBuilder {
        horizon: rng.gen_range(10usize..30),
        num_nodes: rng.gen_range(2usize..7),
        arrivals: ArrivalProcess::Poisson {
            mean_per_slot: rng.gen_range(0.5f64..3.0),
        },
        num_vendors: rng.gen_range(2usize..7),
        preprocessing_prob: rng.gen_range(0.0f64..1.0),
        seed: rng.gen_range(0u64..1_000_000),
        ..ScenarioBuilder::smoke(0)
    }
    .build()
}

/// Runs both pipelines task-by-task and asserts bit-identical decisions,
/// duals, and auction records (modulo the documented pruned-reject
/// metadata). Returns the number of tasks processed.
fn assert_lockstep(sc: &Scenario, cfg: PdftspConfig, tag: &str) -> usize {
    let mut opt = Pdftsp::new(sc, cfg);
    let mut reference = Pdftsp::new(sc, cfg.reference());
    for task in &sc.tasks {
        let a = opt.decide(task, sc);
        let b = reference.decide(task, sc);
        match (&a.outcome, &b.outcome) {
            (
                AuctionOutcome::Admitted { schedule, payment },
                AuctionOutcome::Admitted {
                    schedule: s_ref,
                    payment: p_ref,
                },
            ) => {
                assert_eq!(schedule, s_ref, "{tag}: task {} schedule", task.id);
                assert_eq!(
                    payment.to_bits(),
                    p_ref.to_bits(),
                    "{tag}: task {} payment {payment} vs {p_ref}",
                    task.id
                );
            }
            // Rejection reasons are record metadata and may legitimately
            // differ for pruned vendors; the decision itself agrees.
            (AuctionOutcome::Rejected(_), AuctionOutcome::Rejected(_)) => {}
            (x, y) => panic!("{tag}: task {} outcome split {x:?} vs {y:?}", task.id),
        }
        // The entire priced state must track in lockstep — any drift here
        // would compound into different decisions for later tasks.
        assert_eq!(
            opt.duals().dual_objective().to_bits(),
            reference.duals().dual_objective().to_bits(),
            "{tag}: task {} dual objective",
            task.id
        );
        assert_eq!(opt.alpha().to_bits(), reference.alpha().to_bits(), "{tag}");
        assert_eq!(opt.beta().to_bits(), reference.beta().to_bits(), "{tag}");
    }
    for (ra, rb) in opt.records().iter().zip(reference.records()) {
        assert_eq!(ra.admitted, rb.admitted, "{tag}: task {}", ra.task);
        assert_eq!(
            ra.capacity_rejected, rb.capacity_rejected,
            "{tag}: task {}",
            ra.task
        );
        assert_eq!(
            ra.payment.to_bits(),
            rb.payment.to_bits(),
            "{tag}: task {}",
            ra.task
        );
        if ra.admitted || ra.capacity_rejected {
            // F(il) > 0: a pruned vendor (F ≤ 0) can never be the argmax,
            // so the winning candidate — and its recorded economics — are
            // bit-identical across pipelines.
            let (fa, fb) = (ra.f_value.unwrap(), rb.f_value.unwrap());
            assert_eq!(fa.to_bits(), fb.to_bits(), "{tag}: task {} F(il)", ra.task);
            let (wa, wb) = (ra.welfare_increment.unwrap(), rb.welfare_increment.unwrap());
            assert_eq!(wa.to_bits(), wb.to_bits(), "{tag}: task {} b_il", ra.task);
        } else if let Some(fa) = ra.f_value {
            // Surplus reject: the reference logs the max F over ALL
            // vendors; the optimized pipeline logs the max over the
            // vendors it did not prune — never larger, never positive.
            let fb = rb
                .f_value
                .unwrap_or_else(|| panic!("{tag}: task {}: reference lost F(il)", ra.task));
            assert!(fa <= 0.0 && fb <= 0.0, "{tag}: task {}", ra.task);
            assert!(
                fa <= fb,
                "{tag}: task {}: pruned max {fa} > true max {fb}",
                ra.task
            );
        }
    }
    sc.tasks.len()
}

/// ~100 randomized instances under the default (masking) config.
#[test]
fn optimized_pipeline_matches_reference_default_config() {
    let mut rng = StdRng::seed_from_u64(0xE9_0001);
    let mut tasks = 0usize;
    for case in 0..100u64 {
        let sc = random_scenario(&mut rng);
        tasks += assert_lockstep(&sc, PdftspConfig::default(), &format!("case {case}"));
    }
    assert!(tasks > 500, "workload too thin to be meaningful: {tasks}");
}

/// ~50 instances under the pseudocode-literal policy: the DP sees no
/// ledger (`ctx.ledger = None`), exercising the unmasked grid path and
/// the capacity-rejection branch.
#[test]
fn optimized_pipeline_matches_reference_strict_policy() {
    let mut rng = StdRng::seed_from_u64(0xE9_0002);
    for case in 0..50u64 {
        let sc = random_scenario(&mut rng);
        assert_lockstep(
            &sc,
            PdftspConfig::default().strict(),
            &format!("strict case {case}"),
        );
    }
}

/// ~40 vendor-rich instances on the default config, so arrivals with
/// ≥ 2 surviving vendors take the sequential loop with its incumbent
/// skip and shared-start memo.
#[test]
fn multi_vendor_loop_matches_reference() {
    let mut rng = StdRng::seed_from_u64(0xE9_0003);
    for case in 0..40u64 {
        let sc = ScenarioBuilder {
            horizon: rng.gen_range(10usize..24),
            num_nodes: rng.gen_range(2usize..6),
            arrivals: ArrivalProcess::Poisson {
                mean_per_slot: rng.gen_range(0.5f64..2.0),
            },
            num_vendors: rng.gen_range(4usize..9),
            preprocessing_prob: 1.0, // every task goes through vendors
            seed: rng.gen_range(0u64..1_000_000),
            ..ScenarioBuilder::smoke(0)
        }
        .build();
        assert_lockstep(
            &sc,
            PdftspConfig::default(),
            &format!("multi-vendor case {case}"),
        );
    }
}

/// Pruning soundness, stated directly: whenever the optimized pipeline
/// rejects a task *without computing any candidate* (the only situation
/// where pruning can decide an outcome by itself), the reference — which
/// prunes nothing — must reject that task too.
#[test]
fn pruning_never_rejects_a_task_the_reference_admits() {
    let mut rng = StdRng::seed_from_u64(0xE9_0004);
    let mut pruned_rejects = 0usize;
    for case in 0..40u64 {
        let sc = random_scenario(&mut rng);
        let mut opt = Pdftsp::new(&sc, PdftspConfig::default());
        let mut reference = Pdftsp::new(&sc, PdftspConfig::default().reference());
        for task in &sc.tasks {
            let a = opt.decide(task, &sc);
            let b = reference.decide(task, &sc);
            let rec = opt.records().last().expect("record per decision");
            if !rec.admitted && rec.f_value.is_none() {
                // Candidate-free reject: feasibility or pruning decided it.
                assert!(
                    !b.is_admitted(),
                    "case {case}: pruning rejected task {} that the reference admits",
                    task.id
                );
                pruned_rejects += 1;
            }
            assert_eq!(a.is_admitted(), b.is_admitted(), "case {case}");
        }
    }
    // The property must actually have been exercised.
    assert!(
        pruned_rejects > 0,
        "no candidate-free rejects generated; property vacuous"
    );
}
