//! End-to-end days: every scheduler over generated scenarios, verified by
//! the execution engine, with cross-algorithm sanity on the outcomes.

use pdftsp_cluster::parallel_map;
use pdftsp_sim::{run_algo, Algo};
use pdftsp_types::{AuctionOutcome, Rejection};
use pdftsp_workload::{ArrivalProcess, DeadlinePolicy, NodeMix, ScenarioBuilder, TraceKind};

fn loaded(seed: u64) -> ScenarioBuilder {
    ScenarioBuilder {
        horizon: 36,
        num_nodes: 6,
        arrivals: ArrivalProcess::Poisson { mean_per_slot: 4.0 },
        ..ScenarioBuilder::smoke(seed)
    }
}

#[test]
fn every_algorithm_survives_replay_verification() {
    // `run_algo` panics if the engine finds a capacity violation or an
    // unfinished admitted task, so completing is the assertion.
    for seed in [1u64, 2, 3] {
        let sc = loaded(seed).build();
        for algo in Algo::PAPER_SET {
            let r = run_algo(&sc, algo, seed);
            assert_eq!(r.decisions.len(), sc.num_tasks());
        }
    }
}

#[test]
fn admitted_schedules_respect_all_task_constraints() {
    let sc = loaded(11).build();
    for algo in Algo::PAPER_SET {
        let r = run_algo(&sc, algo, 0);
        for d in &r.decisions {
            if let Some(s) = d.schedule() {
                let task = &sc.tasks[d.task];
                s.validate(task)
                    .unwrap_or_else(|v| panic!("{}: task {}: {v:?}", algo.name(), d.task));
                // Vendor choice must come from the task's quotes.
                if task.needs_preprocessing {
                    assert!(sc.quotes[d.task]
                        .iter()
                        .any(|q| q.vendor == s.vendor.vendor));
                }
            }
        }
    }
}

#[test]
fn welfare_identity_and_ordering_invariants() {
    let sc = loaded(21).build();
    for algo in Algo::PAPER_SET {
        let r = run_algo(&sc, algo, 0);
        let w = &r.welfare;
        // U = U_r + U_c (payments cancel).
        assert!(
            (w.social_welfare - (w.user_utility + w.provider_utility)).abs() < 1e-6,
            "{}",
            algo.name()
        );
        assert_eq!(w.admitted + w.rejected, sc.num_tasks());
    }
}

#[test]
fn ntm_never_colocates_but_others_do() {
    let sc = loaded(31).build();
    let ntm = run_algo(&sc, Algo::Ntm, 0);
    assert_eq!(ntm.metrics.peak_colocation.max(1), 1, "NTM must not merge");
    let pd = run_algo(&sc, Algo::Pdftsp, 0);
    assert!(
        pd.metrics.peak_colocation > 1,
        "pdFTSP should co-locate LoRA tasks under load"
    );
}

#[test]
fn pdftsp_dominates_ntm_and_is_deterministic() {
    let mut pd_total = 0.0;
    let mut ntm_total = 0.0;
    for seed in 0..4 {
        let sc = loaded(40 + seed).build();
        let a = run_algo(&sc, Algo::Pdftsp, 0);
        let b = run_algo(&sc, Algo::Pdftsp, 12345);
        assert_eq!(
            a.welfare.social_welfare, b.welfare.social_welfare,
            "pdFTSP must ignore the baseline seed"
        );
        pd_total += a.welfare.social_welfare;
        ntm_total += run_algo(&sc, Algo::Ntm, seed).welfare.social_welfare;
    }
    assert!(pd_total > ntm_total, "pdFTSP {pd_total} vs NTM {ntm_total}");
}

#[test]
fn trace_and_deadline_variants_run_clean() {
    for kind in [TraceKind::MLaaS, TraceKind::Philly, TraceKind::Helios] {
        let sc = ScenarioBuilder {
            arrivals: ArrivalProcess::Trace {
                kind,
                mean_per_slot: 3.0,
            },
            ..loaded(50)
        }
        .build();
        let r = run_algo(&sc, Algo::Pdftsp, 0);
        assert!(r.welfare.social_welfare.is_finite());
    }
    for policy in [
        DeadlinePolicy::Tight,
        DeadlinePolicy::Medium,
        DeadlinePolicy::Slack,
    ] {
        let sc = ScenarioBuilder {
            deadline_policy: policy,
            ..loaded(60)
        }
        .build();
        let r = run_algo(&sc, Algo::Pdftsp, 0);
        assert!(r.welfare.admitted > 0, "{}", policy.name());
    }
}

#[test]
fn slacker_deadlines_never_hurt_welfare_much() {
    // More scheduling freedom should help (or at least not devastate) the
    // online algorithm; averaged over seeds to dodge noise.
    let welfare_for = |policy| -> f64 {
        (0..3)
            .map(|seed| {
                let sc = ScenarioBuilder {
                    deadline_policy: policy,
                    ..loaded(70 + seed)
                }
                .build();
                run_algo(&sc, Algo::Pdftsp, 0).welfare.social_welfare
            })
            .sum()
    };
    let tight = welfare_for(DeadlinePolicy::Tight);
    let slack = welfare_for(DeadlinePolicy::Slack);
    assert!(
        slack > 0.7 * tight,
        "slack {slack} collapsed vs tight {tight}"
    );
}

#[test]
fn node_mix_welfare_ordering_matches_capacity() {
    // A100-only clusters out-produce A40-only clusters of the same size.
    let welfare_for = |mix| -> f64 {
        (0..3)
            .map(|seed| {
                let sc = ScenarioBuilder {
                    node_mix: mix,
                    ..loaded(80 + seed)
                }
                .build();
                run_algo(&sc, Algo::Pdftsp, 0).welfare.social_welfare
            })
            .sum()
    };
    let a100 = welfare_for(NodeMix::A100Only);
    let a40 = welfare_for(NodeMix::A40Only);
    assert!(a100 > a40, "A100 {a100} should beat A40 {a40}");
}

#[test]
fn parallel_sweep_matches_serial() {
    let seeds: Vec<u64> = (0..6).collect();
    let serial: Vec<f64> = seeds
        .iter()
        .map(|&s| {
            run_algo(&loaded(s).build(), Algo::Pdftsp, 0)
                .welfare
                .social_welfare
        })
        .collect();
    let parallel: Vec<f64> = parallel_map(&seeds, |&s| {
        run_algo(&loaded(s).build(), Algo::Pdftsp, 0)
            .welfare
            .social_welfare
    });
    assert_eq!(serial, parallel);
}

#[test]
fn rejection_reasons_are_consistent_with_state() {
    let sc = ScenarioBuilder {
        arrivals: ArrivalProcess::Poisson { mean_per_slot: 8.0 },
        ..loaded(90)
    }
    .build();
    let r = run_algo(&sc, Algo::Pdftsp, 0);
    for d in &r.decisions {
        if let AuctionOutcome::Rejected(why) = &d.outcome {
            match why {
                Rejection::NoFeasibleSchedule
                | Rejection::NonPositiveSurplus
                | Rejection::InsufficientCapacity
                | Rejection::BudgetExceeded => {}
            }
            assert_eq!(d.payment(), 0.0);
        }
    }
}
