//! Solver equivalence suite: the overhauled sparse warm-started
//! simplex / sequential branch-and-bound against the retained dense
//! reference engine, on both synthetic programs and real offline
//! encodings. CI runs this in release mode (see `.github/workflows/
//! ci.yml`) — it is the machine-checked half of the `BENCH_milp.json`
//! speedup claim: fast means nothing if the answers drift.

use pdftsp_cluster::parallel_map;
use pdftsp_solver::milp::{MilpConfig, MilpOutcome, GAP_TOL};
use pdftsp_solver::offline::{offline_optimum, offline_optimum_reference};
use pdftsp_solver::{
    encode_offline, presolve, propagate_bounds, solve_lp, solve_lp_dense, strengthen_milp,
    Constraint, LinearProgram, LpOutcome, PresolveOutcome,
};
use pdftsp_telemetry::Telemetry;
use pdftsp_types::Scenario;
use pdftsp_workload::{ArrivalProcess, ScenarioBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// A random bounded LP with mixed-sense rows; always includes `x_j ≤ u`
/// rows so the maximization cannot be unbounded.
fn random_lp(rng: &mut StdRng, n: usize, rows: usize) -> LinearProgram {
    let mut lp = LinearProgram::new(n);
    for c in &mut lp.objective {
        *c = rng.gen_range(-1.0..4.0);
    }
    lp.bound_rows((0..n).map(|j| (j, rng.gen_range(0.5..3.0))));
    for _ in 0..rows {
        let mut coeffs: Vec<(usize, f64)> = Vec::new();
        for j in 0..n {
            if rng.gen_bool(0.7) {
                coeffs.push((j, rng.gen_range(-1.0..2.0)));
            }
        }
        if coeffs.is_empty() {
            continue;
        }
        let rhs = rng.gen_range(0.5..6.0);
        lp.constraints.push(if rng.gen_bool(0.8) {
            Constraint::le(coeffs, rhs)
        } else {
            Constraint::ge(coeffs, -rhs)
        });
    }
    lp
}

#[test]
fn sparse_simplex_matches_dense_on_random_programs() {
    let mut rng = StdRng::seed_from_u64(0xEAB1);
    for case in 0..60 {
        let n = rng.gen_range(2..10);
        let rows = rng.gen_range(1..12);
        let lp = random_lp(&mut rng, n, rows);
        match (solve_lp(&lp), solve_lp_dense(&lp)) {
            (LpOutcome::Optimal { objective: a, x }, LpOutcome::Optimal { objective: b, .. }) => {
                assert!(
                    (a - b).abs() <= 1e-6 * (1.0 + b.abs()),
                    "case {case}: sparse {a} vs dense {b}"
                );
                assert!(
                    lp.feasible(&x, 1e-6),
                    "case {case}: sparse point infeasible"
                );
            }
            (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
            (a, b) => panic!("case {case}: sparse {a:?} vs dense {b:?}"),
        }
    }
}

#[test]
fn sparse_simplex_matches_dense_on_offline_relaxations() {
    for seed in [11u64, 23, 47] {
        let enc = encode_offline(&tiny(seed, 12, 0.5));
        match (solve_lp(&enc.milp.lp), solve_lp_dense(&enc.milp.lp)) {
            (LpOutcome::Optimal { objective: a, .. }, LpOutcome::Optimal { objective: b, .. }) => {
                assert!(
                    (a - b).abs() <= 1e-6 * (1.0 + b.abs()),
                    "seed {seed}: sparse {a} vs dense {b}"
                );
            }
            (a, b) => panic!("seed {seed}: sparse {a:?} vs dense {b:?}"),
        }
    }
}

#[test]
fn optimized_milp_matches_reference_on_offline_encodings() {
    // Generous limits: both engines certify, so objectives must agree
    // within GAP_TOL — the bench_milp acceptance criterion as a test.
    let cfg = MilpConfig { node_limit: 20_000 };
    for seed in [3u64, 21, 33, 35] {
        let sc = tiny(seed, 10, 0.5);
        let fast = offline_optimum(&sc, &cfg);
        let oracle = offline_optimum_reference(&sc, &cfg);
        assert!(fast.certified, "seed {seed}: optimized did not certify");
        assert!(oracle.certified, "seed {seed}: reference did not certify");
        let (a, b) = (fast.welfare.unwrap(), oracle.welfare.unwrap());
        assert!(
            (a - b).abs() <= GAP_TOL * (1.0 + b.abs()),
            "seed {seed}: optimized {a} vs reference {b}"
        );
    }
}

#[test]
fn node_budget_alone_stops_the_search() {
    // The node limit is the only stopping rule besides the gap: no clock
    // is read, so a repeat solve and a solve on a pool worker replay the
    // first bit for bit, on any host and in any build profile.
    for seed in [5u64, 17, 29] {
        let enc = encode_offline(&tiny(seed, 10, 0.5));
        for node_limit in [4usize, 32, 2_000] {
            let cfg = MilpConfig { node_limit };
            let solve = || {
                let tel = Telemetry::disabled();
                let out = enc.milp.solve_with_telemetry(&cfg, &tel);
                let nodes = tel.counters.read(&tel.counters.milp_nodes);
                (out, nodes)
            };
            let (first, nodes) = solve();
            assert!(
                nodes <= node_limit as u64,
                "seed {seed}: {nodes} nodes expanded under a limit of {node_limit}"
            );
            assert_eq!(
                first,
                solve().0,
                "seed {seed} node_limit {node_limit}: repeat diverged"
            );
            for (pooled, _) in parallel_map(&[0u8, 1], |_| solve()) {
                assert_eq!(
                    first, pooled,
                    "seed {seed} node_limit {node_limit}: pooled solve diverged"
                );
            }
        }
    }
}

#[test]
fn presolve_infeasibility_agrees_with_full_solve() {
    // x0 ≥ 3 and x0 ≤ 1 contradict; presolve must prove it and the full
    // solvers must agree.
    let mut lp = LinearProgram::new(2);
    lp.objective = vec![1.0, 1.0];
    lp.constraints.push(Constraint::ge(vec![(0, 1.0)], 3.0));
    lp.constraints.push(Constraint::le(vec![(0, 1.0)], 1.0));
    lp.constraints.push(Constraint::le(vec![(1, 1.0)], 1.0));
    assert!(matches!(presolve(&lp), PresolveOutcome::Infeasible));
    assert!(matches!(solve_lp(&lp), LpOutcome::Infeasible));
    assert!(matches!(solve_lp_dense(&lp), LpOutcome::Infeasible));
    assert!(propagate_bounds(&lp, 3).is_none());
}

#[test]
fn presolve_handles_empty_and_redundant_rows() {
    let mut lp = LinearProgram::new(2);
    lp.objective = vec![2.0, 1.0];
    lp.constraints.push(Constraint::le(vec![], 5.0)); // 0 ≤ 5: vacuous
    lp.constraints.push(Constraint::le(vec![(0, 1.0)], 1.0));
    lp.constraints.push(Constraint::le(vec![(1, 1.0)], 1.0));
    // Redundant: dominated by the bound rows above.
    lp.constraints
        .push(Constraint::le(vec![(0, 1.0), (1, 1.0)], 10.0));
    let (a, b) = match (solve_lp(&lp), solve_lp_dense(&lp)) {
        (LpOutcome::Optimal { objective: a, .. }, LpOutcome::Optimal { objective: b, .. }) => {
            (a, b)
        }
        (a, b) => panic!("sparse {a:?} vs dense {b:?}"),
    };
    assert!((a - 3.0).abs() < 1e-6, "expected 3, got {a}");
    assert!((a - b).abs() < 1e-9);
}

#[test]
fn variables_fixed_by_bounds_survive_strengthening() {
    // x0 fixed to 1 by ≥/≤ rows; strengthening must keep the integer
    // optimum identical and never loosen the relaxation.
    let mut lp = LinearProgram::new(2);
    lp.objective = vec![5.0, 3.0];
    lp.constraints.push(Constraint::ge(vec![(0, 1.0)], 1.0));
    lp.constraints.push(Constraint::le(vec![(0, 1.0)], 1.0));
    lp.constraints.push(Constraint::le(vec![(1, 1.0)], 1.0));
    lp.constraints
        .push(Constraint::le(vec![(0, 2.0), (1, 2.0)], 3.0));
    let tightened = strengthen_milp(&lp, &[0, 1]).expect("feasible");
    let orig = match solve_lp(&lp) {
        LpOutcome::Optimal { objective, .. } => objective,
        other => panic!("{other:?}"),
    };
    let tight = match solve_lp(&tightened) {
        LpOutcome::Optimal { objective, .. } => objective,
        other => panic!("{other:?}"),
    };
    assert!(
        tight <= orig + 1e-9,
        "strengthening loosened: {tight} > {orig}"
    );
    // x = (1, 0) is the only integer point; both programs must accept it.
    let point = vec![1.0, 0.0];
    assert!(lp.feasible(&point, 1e-9));
    assert!(tightened.feasible(&point, 1e-9));
}

#[test]
fn bound_only_outcomes_still_bound_the_reference_optimum() {
    // Under a starved node budget the optimized engine may stop at the
    // all-reject incumbent; its reported bound must still dominate the
    // reference engine's certified optimum.
    let cfg_starved = MilpConfig { node_limit: 1 };
    let cfg_full = MilpConfig { node_limit: 20_000 };
    for seed in [7u64, 23] {
        let sc = tiny(seed, 10, 0.5);
        let starved = offline_optimum(&sc, &cfg_starved);
        let full = offline_optimum_reference(&sc, &cfg_full);
        assert!(full.certified, "seed {seed}");
        assert!(
            starved.upper_bound >= full.welfare.unwrap() - 1e-6,
            "seed {seed}: starved bound {} below true optimum {}",
            starved.upper_bound,
            full.welfare.unwrap()
        );
        // S1: even starved, welfare and decisions materialize.
        assert!(starved.welfare.is_some());
        assert!(starved.decisions.is_some());
    }
}

#[test]
fn distinct_outcomes_compare_unequal() {
    // MilpOutcome derives PartialEq so the bitwise assertions above are
    // meaningful; sanity-check that distinct outcomes do compare unequal.
    let a = MilpOutcome::BoundOnly { bound: 1.0 };
    let b = MilpOutcome::BoundOnly { bound: 2.0 };
    assert_ne!(a, b);
}
