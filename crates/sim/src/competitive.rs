//! Empirical competitive-ratio measurement (paper Fig. 12).
//!
//! Ratio = offline optimum ÷ online welfare. The paper computes the
//! offline optimum with Gurobi; we use `pdftsp-solver`. When the
//! branch-and-bound cannot certify the optimum within its limits we report
//! the ratio against the solver's *upper bound* as well — that can only
//! over-state the ratio, never flatter the online algorithm.

use crate::driver::{run_algo, Algo};
use pdftsp_cluster::{effective_workers, parallel_map};
use pdftsp_solver::milp::MilpConfig;
use pdftsp_solver::offline::offline_optimum_with_telemetry;
use pdftsp_telemetry::Telemetry;
use pdftsp_types::Scenario;

/// One competitive-ratio measurement.
#[derive(Debug, Clone)]
pub struct RatioReport {
    /// Online welfare of pdFTSP.
    pub online_welfare: f64,
    /// Best offline integral welfare found.
    pub offline_welfare: f64,
    /// Valid upper bound on the offline optimum.
    pub offline_bound: f64,
    /// `offline_welfare / online_welfare` (∞ when online ≤ 0 < offline).
    pub ratio: f64,
    /// `offline_bound / online_welfare` — a conservative ratio that is
    /// valid even when the optimum is not certified.
    pub ratio_vs_bound: f64,
    /// Whether the offline optimum was certified.
    pub certified: bool,
    /// Wall-clock seconds spent in the offline MILP solve for this
    /// instance (the dominant cost of a Fig. 12 cell).
    pub solve_seconds: f64,
}

/// Measures the empirical competitive ratio of pdFTSP on `scenario`.
#[must_use]
pub fn empirical_ratio(scenario: &Scenario, milp: &MilpConfig) -> RatioReport {
    empirical_ratio_with_telemetry(scenario, milp, &Telemetry::disabled())
}

/// [`empirical_ratio`] with the offline solver's work tallies (nodes,
/// LP solves, warm-start hit rate, pivots) recorded into
/// `telemetry.counters`. The counters are atomic, so one `Telemetry` can
/// be shared across every instance of a [`ratio_sweep`] and read once at
/// the end for sweep-wide totals.
#[must_use]
pub fn empirical_ratio_with_telemetry(
    scenario: &Scenario,
    milp: &MilpConfig,
    telemetry: &Telemetry,
) -> RatioReport {
    let online = run_algo(scenario, Algo::Pdftsp, 0).welfare.social_welfare;
    let start = std::time::Instant::now();
    let off = offline_optimum_with_telemetry(scenario, milp, telemetry);
    let solve_seconds = start.elapsed().as_secs_f64();
    let offline_welfare = off.welfare.unwrap_or(0.0);
    let ratio = safe_ratio(offline_welfare, online);
    let ratio_vs_bound = safe_ratio(off.upper_bound, online);
    RatioReport {
        online_welfare: online,
        offline_welfare,
        offline_bound: off.upper_bound,
        ratio,
        ratio_vs_bound,
        certified: off.certified,
        solve_seconds,
    }
}

/// Result of a multi-instance competitive-ratio sweep.
#[derive(Debug, Clone)]
pub struct RatioSweep {
    /// Per-instance reports, in input order.
    pub reports: Vec<RatioReport>,
    /// How many instances had a certified offline optimum.
    pub certified: usize,
    /// Worst (largest) conservative ratio across instances.
    pub max_ratio_vs_bound: f64,
    /// Total offline-solver wall-clock summed over instances (CPU work,
    /// not elapsed time — instances run concurrently).
    pub solver_seconds_total: f64,
    /// Worker threads the sweep actually used
    /// (`min(instances, available_parallelism)`).
    pub workers: usize,
}

/// Runs [`empirical_ratio_with_telemetry`] over every scenario
/// concurrently — the Fig. 12/13 sweep driver. Instances are independent
/// (each builds its own scheduler and offline MILP), so the sweep
/// parallelizes over instances while each MILP solve itself stays
/// deterministic; results are returned in input order regardless of
/// completion order.
#[must_use]
pub fn ratio_sweep(scenarios: &[Scenario], milp: &MilpConfig, telemetry: &Telemetry) -> RatioSweep {
    let reports = parallel_map(scenarios, |sc| {
        empirical_ratio_with_telemetry(sc, milp, telemetry)
    });
    let certified = reports.iter().filter(|r| r.certified).count();
    let max_ratio_vs_bound = reports
        .iter()
        .map(|r| r.ratio_vs_bound)
        .fold(f64::NEG_INFINITY, f64::max)
        .max(1.0);
    let solver_seconds_total = reports.iter().map(|r| r.solve_seconds).sum();
    RatioSweep {
        reports,
        certified,
        max_ratio_vs_bound,
        solver_seconds_total,
        workers: effective_workers(scenarios.len()),
    }
}

fn safe_ratio(offline: f64, online: f64) -> f64 {
    if offline <= 0.0 {
        // Nothing profitable exists offline either: the online algorithm
        // trivially matches.
        1.0
    } else if online <= 0.0 {
        f64::INFINITY
    } else {
        offline / online
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdftsp_types::{CostGrid, GpuModel, NodeSpec, TaskBuilder};

    fn scenario(bids: &[f64]) -> Scenario {
        let tasks = bids
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                TaskBuilder::new(i, 0, 5)
                    .dataset(1000)
                    .bid(b)
                    .memory_gb(4.0)
                    .rates(vec![1000])
                    .build()
                    .unwrap()
            })
            .collect();
        Scenario {
            horizon: 6,
            base_model_gb: 1.0,
            nodes: vec![NodeSpec::new(0, GpuModel::A100_80, 1000)],
            quotes: vec![vec![]; bids.len()],
            cost: CostGrid::flat(1, 6, 0.01),
            tasks,
        }
    }

    #[test]
    fn ratio_is_at_least_one_against_certified_optimum() {
        let sc = scenario(&[4.0, 7.0, 2.0, 9.0]);
        let r = empirical_ratio(&sc, &MilpConfig::default());
        assert!(r.certified);
        assert!(
            r.ratio >= 1.0 - 1e-9,
            "online beat the offline optimum: {r:?}"
        );
        assert!(r.ratio_vs_bound >= r.ratio - 1e-9);
        assert!(r.ratio.is_finite());
    }

    #[test]
    fn empty_scenario_yields_unit_ratio() {
        let sc = scenario(&[]);
        let r = empirical_ratio(&sc, &MilpConfig::default());
        assert_eq!(r.ratio, 1.0);
    }

    #[test]
    fn sweep_matches_per_instance_measurement_in_order() {
        let scenarios = vec![
            scenario(&[4.0, 7.0, 2.0, 9.0]),
            scenario(&[1.0, 2.0]),
            scenario(&[]),
        ];
        let cfg = MilpConfig::default();
        let tel = Telemetry::disabled();
        let sweep = ratio_sweep(&scenarios, &cfg, &tel);
        assert_eq!(sweep.reports.len(), 3);
        assert!(sweep.workers >= 1 && sweep.workers <= 3);
        for (sc, got) in scenarios.iter().zip(&sweep.reports) {
            let solo = empirical_ratio(sc, &cfg);
            assert_eq!(got.ratio.to_bits(), solo.ratio.to_bits());
            assert_eq!(got.certified, solo.certified);
            assert_eq!(
                got.offline_welfare.to_bits(),
                solo.offline_welfare.to_bits()
            );
        }
        assert_eq!(
            sweep.certified,
            sweep.reports.iter().filter(|r| r.certified).count()
        );
        assert!(sweep.max_ratio_vs_bound >= 1.0);
        assert!(sweep.solver_seconds_total >= 0.0);
        // The shared telemetry saw solver work from all three instances.
        let c = &tel.counters;
        assert!(c.read(&c.lp_solves) > 0);
    }

    #[test]
    fn sweep_of_nothing_is_empty_and_trivially_bounded() {
        let sweep = ratio_sweep(&[], &MilpConfig::default(), &Telemetry::disabled());
        assert!(sweep.reports.is_empty());
        assert_eq!(sweep.certified, 0);
        assert_eq!(sweep.max_ratio_vs_bound, 1.0);
        assert_eq!(sweep.workers, 0);
    }

    #[test]
    fn safe_ratio_edge_cases() {
        assert_eq!(safe_ratio(0.0, 5.0), 1.0);
        assert_eq!(safe_ratio(-1.0, 0.0), 1.0);
        assert_eq!(safe_ratio(3.0, 0.0), f64::INFINITY);
        assert!((safe_ratio(6.0, 3.0) - 2.0).abs() < 1e-12);
    }
}
