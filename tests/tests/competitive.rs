//! Online-vs-offline tests: the empirical competitive ratio machinery of
//! Fig. 12, cross-checked end to end (scheduler + MILP solver + engine).

use pdftsp_cluster::ExecutionEngine;
use pdftsp_sim::{empirical_ratio, run_algo, Algo};
use pdftsp_solver::milp::MilpConfig;
use pdftsp_solver::offline::offline_optimum;
use pdftsp_types::Scenario;
use pdftsp_workload::{ArrivalProcess, ScenarioBuilder};

fn tiny(seed: u64, horizon: usize, mean: f64) -> Scenario {
    ScenarioBuilder {
        horizon,
        num_nodes: 2,
        arrivals: ArrivalProcess::Poisson {
            mean_per_slot: mean,
        },
        num_vendors: 2,
        seed,
        ..ScenarioBuilder::default()
    }
    .build()
}

#[test]
fn online_never_beats_the_offline_bound() {
    for seed in [1u64, 2, 3, 4] {
        let sc = tiny(seed, 16, 0.4);
        let online = run_algo(&sc, Algo::Pdftsp, 0).welfare.social_welfare;
        let off = offline_optimum(&sc, &MilpConfig::default());
        assert!(
            online <= off.upper_bound + 1e-6,
            "seed {seed}: online {online} beats offline bound {}",
            off.upper_bound
        );
    }
}

#[test]
fn offline_decisions_replay_cleanly() {
    let sc = tiny(5, 16, 0.4);
    let off = offline_optimum(&sc, &MilpConfig::default());
    if let Some(decisions) = &off.decisions {
        let report =
            ExecutionEngine::replay(&sc, decisions).expect("offline optimum must be executable");
        let executed: f64 = decisions
            .iter()
            .filter_map(|d| d.schedule())
            .map(|s| {
                let t = &sc.tasks[s.task];
                t.bid - s.vendor.price - s.energy_cost(t, &sc.cost)
            })
            .sum();
        assert!(
            (executed - off.welfare.unwrap()).abs() < 1e-6,
            "extracted welfare {executed} != solver objective {:?}",
            off.welfare
        );
        drop(report);
    }
}

#[test]
fn empirical_ratio_is_sane_across_small_grid() {
    let milp = MilpConfig { node_limit: 200 };
    for (horizon, mean) in [(12usize, 0.3), (16, 0.4)] {
        let sc = tiny(7, horizon, mean);
        let r = empirical_ratio(&sc, &milp);
        assert!(
            r.ratio_vs_bound >= 1.0 - 1e-6,
            "T={horizon}: ratio {}",
            r.ratio_vs_bound
        );
        assert!(
            r.ratio_vs_bound < 25.0,
            "T={horizon}: implausible ratio {} (online {}, bound {})",
            r.ratio_vs_bound,
            r.online_welfare,
            r.offline_bound
        );
        assert!(r.ratio <= r.ratio_vs_bound + 1e-9);
    }
}

#[test]
fn offline_optimum_improves_with_more_search_budget() {
    let sc = tiny(9, 20, 0.6);
    let tight = offline_optimum(&sc, &MilpConfig { node_limit: 1 });
    let loose = offline_optimum(&sc, &MilpConfig { node_limit: 400 });
    let wt = tight.welfare.unwrap_or(0.0);
    let wl = loose.welfare.unwrap_or(0.0);
    assert!(wl >= wt - 1e-9, "more budget lost welfare: {wt} -> {wl}");
    // Bounds shrink (or stay) as the tree is explored.
    assert!(loose.upper_bound <= tight.upper_bound + 1e-6);
}

#[test]
fn all_baselines_are_bounded_by_the_offline_optimum_too() {
    let sc = tiny(11, 16, 0.4);
    let off = offline_optimum(&sc, &MilpConfig { node_limit: 400 });
    for algo in Algo::PAPER_SET {
        let w = run_algo(&sc, algo, 0).welfare.social_welfare;
        assert!(
            w <= off.upper_bound + 1e-6,
            "{} welfare {w} beats the offline bound {}",
            algo.name(),
            off.upper_bound
        );
    }
}
