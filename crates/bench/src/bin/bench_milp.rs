//! Emits `BENCH_milp.json` in the working directory: wall-time and work counters
//! of the overhauled offline-optimum solver (sparse warm-started simplex,
//! sequential best-bound branch-and-bound, MILP presolve) against the retained
//! seed-state dense reference engine, on Fig. 12-scale instances.
//!
//! Methodology (see EXPERIMENTS.md "Offline MILP benchmark"): each engine
//! solves the same offline encodings `REPS` times; every solve contributes
//! one wall-time sample. Both engines run the identical branch-and-bound
//! search policy (best-bound, most-fractional, same node limit), so matching
//! objectives within `GAP_TOL` is asserted, not hoped for — a divergence
//! aborts the benchmark. Telemetry counters (nodes, LP solves, warm-start
//! hit rate, pivots, dense fallbacks) come from the optimized engine's
//! always-on tallies.
//!
//! `--smoke` runs one tiny instance once, asserts equivalence, and skips
//! the artifact write — wired into `scripts/verify.sh` so CI exercises
//! both engines without timing flakiness.

use pdftsp_solver::milp::{MilpConfig, GAP_TOL};
use pdftsp_solver::offline::{
    offline_optimum_reference, offline_optimum_with_telemetry, OfflineResult,
};
use pdftsp_telemetry::Telemetry;
use pdftsp_types::Scenario;
use pdftsp_workload::{ArrivalProcess, ScenarioBuilder};

const REPS: usize = 3;

struct Instance {
    name: &'static str,
    sc: Scenario,
    /// Per-instance node budget: sized so the light/medium instances run
    /// to certification (both engines provably optimal → objectives must
    /// match), while the dense instance caps both engines at the same
    /// node count and measures pure per-node LP throughput.
    node_limit: usize,
}

fn instance(
    name: &'static str,
    horizon: usize,
    mean_per_slot: f64,
    seed: u64,
    node_limit: usize,
) -> Instance {
    let sc = ScenarioBuilder {
        horizon,
        num_nodes: 2,
        arrivals: ArrivalProcess::Poisson { mean_per_slot },
        seed,
        ..ScenarioBuilder::default()
    }
    .build();
    Instance {
        name,
        sc,
        node_limit,
    }
}

struct EngineStats {
    p50_ms: f64,
    mean_ms: f64,
    welfare: f64,
    bound: f64,
    certified: bool,
}

struct SolverWork {
    milp_nodes: u64,
    lp_solves: u64,
    lp_warm_starts: u64,
    lp_warm_hits: u64,
    warm_start_hit_rate: f64,
    simplex_pivots: u64,
    lp_dense_fallbacks: u64,
}

impl SolverWork {
    fn from_telemetry(tel: &Telemetry) -> Self {
        let c = &tel.counters;
        SolverWork {
            milp_nodes: c.read(&c.milp_nodes),
            lp_solves: c.read(&c.lp_solves),
            lp_warm_starts: c.read(&c.lp_warm_starts),
            lp_warm_hits: c.read(&c.lp_warm_hits),
            warm_start_hit_rate: c.warm_start_hit_rate(),
            simplex_pivots: c.read(&c.simplex_pivots),
            lp_dense_fallbacks: c.read(&c.lp_dense_fallbacks),
        }
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs `solve` `reps` times, returning per-solve wall-time samples (ms)
/// and the last result (every rep does identical work).
fn time_engine(reps: usize, mut solve: impl FnMut() -> OfflineResult) -> (Vec<f64>, OfflineResult) {
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let start = std::time::Instant::now();
        let r = solve();
        samples.push(start.elapsed().as_secs_f64() * 1e3);
        last = Some(r);
    }
    (samples, last.expect("reps > 0"))
}

fn stats(samples: &mut [f64], r: &OfflineResult) -> EngineStats {
    let mean_ms = samples.iter().sum::<f64>() / samples.len().max(1) as f64;
    samples.sort_by(f64::total_cmp);
    EngineStats {
        p50_ms: percentile(samples, 0.50),
        mean_ms,
        welfare: r.welfare.unwrap_or(0.0),
        bound: r.upper_bound,
        certified: r.certified,
    }
}

fn engine_json(s: &EngineStats) -> String {
    format!(
        concat!(
            "{{\"p50_ms\": {:.3}, \"mean_ms\": {:.3}, \"welfare\": {:.6}, ",
            "\"upper_bound\": {:.6}, \"certified\": {}}}"
        ),
        s.p50_ms, s.mean_ms, s.welfare, s.bound, s.certified
    )
}

fn work_json(w: &SolverWork) -> String {
    format!(
        concat!(
            "{{\"milp_nodes\": {}, \"lp_solves\": {}, \"lp_warm_starts\": {}, ",
            "\"lp_warm_hits\": {}, \"warm_start_hit_rate\": {:.4}, ",
            "\"simplex_pivots\": {}, \"lp_dense_fallbacks\": {}}}"
        ),
        w.milp_nodes,
        w.lp_solves,
        w.lp_warm_starts,
        w.lp_warm_hits,
        w.warm_start_hit_rate,
        w.simplex_pivots,
        w.lp_dense_fallbacks
    )
}

/// Asserts the optimized engine's incumbent matches the reference within
/// the solver's gap tolerance (the equivalence criterion).
fn assert_equivalent(name: &str, opt: &OfflineResult, reference: &OfflineResult) {
    let a = opt.welfare.unwrap_or(0.0);
    let b = reference.welfare.unwrap_or(0.0);
    let slack = GAP_TOL * (1.0 + b.abs());
    assert!(
        (a - b).abs() <= slack,
        "{name}: optimized welfare {a} vs reference {b} exceeds GAP_TOL slack {slack}"
    );
    // Bounds must dominate both incumbents (soundness of either engine).
    assert!(
        opt.upper_bound >= a - 1e-6,
        "{name}: optimized bound unsound"
    );
    assert!(
        reference.upper_bound >= b - 1e-6,
        "{name}: reference bound unsound"
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    let instances: Vec<Instance> = if smoke {
        vec![instance("smoke", 8, 0.3, 4242, 60)]
    } else {
        vec![
            // Certified class: low task density keeps the tree shallow,
            // so both engines close it and must agree on the optimum.
            instance("h48_light", 48, 0.12, 4242, 40_000),
            instance("h64_medium", 64, 0.12, 4242, 40_000),
            // Throughput class: dense workload → large node LPs; both
            // engines spend the identical 60-node budget, so wall time
            // compares per-node LP cost (warm sparse vs. cold dense).
            instance("h64_dense", 64, 0.60, 4244, 60),
        ]
    };
    let reps = if smoke { 1 } else { REPS };

    let mut rows = Vec::new();
    let mut opt_all: Vec<f64> = Vec::new();
    let mut ref_all: Vec<f64> = Vec::new();
    let mut certified_opt = 0usize;
    let mut certified_ref = 0usize;
    let mut total = SolverWork {
        milp_nodes: 0,
        lp_solves: 0,
        lp_warm_starts: 0,
        lp_warm_hits: 0,
        warm_start_hit_rate: 0.0,
        simplex_pivots: 0,
        lp_dense_fallbacks: 0,
    };

    for inst in &instances {
        let (name, sc) = (inst.name, &inst.sc);
        let milp = MilpConfig {
            node_limit: inst.node_limit,
        };
        // Fresh telemetry per instance; counters accumulate over the
        // (identical) reps and are scaled back to one solve below.
        let tel = Telemetry::disabled();
        let (mut opt_samples, opt_r) =
            time_engine(reps, || offline_optimum_with_telemetry(sc, &milp, &tel));
        let (mut ref_samples, ref_r) = time_engine(reps, || offline_optimum_reference(sc, &milp));
        assert_equivalent(name, &opt_r, &ref_r);

        let mut per_rep = SolverWork::from_telemetry(&tel);
        // The telemetry accumulated over `reps` identical solves; scale
        // the monotone counters back to one solve (rates are invariant).
        let reps_u = reps as u64;
        per_rep.milp_nodes /= reps_u;
        per_rep.lp_solves /= reps_u;
        per_rep.lp_warm_starts /= reps_u;
        per_rep.lp_warm_hits /= reps_u;
        per_rep.simplex_pivots /= reps_u;
        per_rep.lp_dense_fallbacks /= reps_u;

        let o = stats(&mut opt_samples, &opt_r);
        let r = stats(&mut ref_samples, &ref_r);
        certified_opt += usize::from(o.certified);
        certified_ref += usize::from(r.certified);
        opt_all.extend(&opt_samples);
        ref_all.extend(&ref_samples);
        total.milp_nodes += per_rep.milp_nodes;
        total.lp_solves += per_rep.lp_solves;
        total.lp_warm_starts += per_rep.lp_warm_starts;
        total.lp_warm_hits += per_rep.lp_warm_hits;
        total.simplex_pivots += per_rep.simplex_pivots;
        total.lp_dense_fallbacks += per_rep.lp_dense_fallbacks;

        let speedup = r.mean_ms / o.mean_ms.max(1e-9);
        println!(
            "{name}: optimized {:.2} ms | reference {:.2} ms | speedup {speedup:.2}x | welfare {:.3} (certified opt={} ref={})",
            o.mean_ms, r.mean_ms, o.welfare, o.certified, r.certified
        );
        rows.push(format!(
            concat!(
                "    \"{}\": {{\n",
                "      \"tasks\": {},\n",
                "      \"node_limit\": {},\n",
                "      \"optimized\": {},\n",
                "      \"reference\": {},\n",
                "      \"telemetry\": {},\n",
                "      \"speedup_mean\": {:.3}\n",
                "    }}"
            ),
            name,
            sc.tasks.len(),
            inst.node_limit,
            engine_json(&o),
            engine_json(&r),
            work_json(&per_rep),
            speedup
        ));
    }

    total.warm_start_hit_rate = if total.lp_warm_starts > 0 {
        total.lp_warm_hits as f64 / total.lp_warm_starts as f64
    } else {
        0.0
    };

    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let opt_mean = mean(&opt_all);
    let ref_mean = mean(&ref_all);
    opt_all.sort_by(f64::total_cmp);
    ref_all.sort_by(f64::total_cmp);
    let speedup_mean = ref_mean / opt_mean.max(1e-9);
    let speedup_p50 = percentile(&ref_all, 0.50) / percentile(&opt_all, 0.50).max(1e-9);
    println!(
        "aggregate: optimized mean {opt_mean:.2} ms | reference mean {ref_mean:.2} ms | speedup mean {speedup_mean:.2}x p50 {speedup_p50:.2}x | warm-start hit rate {:.1}%",
        total.warm_start_hit_rate * 100.0
    );

    if smoke {
        println!("smoke ok: engines agree within GAP_TOL; artifact not written");
        return;
    }

    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let body = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"milp_offline_opt\",\n",
            "  \"emitter\": \"bench_milp\",\n",
            "  \"reps\": {},\n",
            "  \"hardware_threads\": {},\n",
            "  \"milp\": {{\"gap_tol\": {:e}}},\n",
            "  \"instances\": {{\n",
            "{}\n",
            "  }},\n",
            "  \"aggregate\": {{\n",
            "    \"instances\": {},\n",
            "    \"certified_optimized\": {},\n",
            "    \"certified_reference\": {},\n",
            "    \"optimized_mean_ms\": {:.3},\n",
            "    \"reference_mean_ms\": {:.3},\n",
            "    \"speedup_mean\": {:.3},\n",
            "    \"speedup_p50\": {:.3},\n",
            "    \"telemetry\": {}\n",
            "  }}\n",
            "}}\n"
        ),
        reps,
        threads,
        GAP_TOL,
        rows.join(",\n"),
        instances.len(),
        certified_opt,
        certified_ref,
        opt_mean,
        ref_mean,
        speedup_mean,
        speedup_p50,
        work_json(&total)
    );
    let path = "BENCH_milp.json";
    std::fs::write(path, &body).expect("write BENCH_milp.json");
    println!("wrote {path}");
}
