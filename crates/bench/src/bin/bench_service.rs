//! Emits `BENCH_service.json` in the working directory: sustained
//! decision throughput and admission-latency percentiles of the sharded
//! auction service under open-loop load, with fault injection enabled.
//!
//! Methodology (see EXPERIMENTS.md "Sharded service benchmark"): an
//! open-loop generator offers the whole scenario at a fixed arrival rate
//! (task `i` arrives at wall time `i / rate`); the service batches slots
//! into epochs, proposes per shard in parallel, and commits in epoch
//! order against the global fixed-point ledger. Admission latency is
//! arrival → phase-2 commit; throughput is decisions over the wall clock
//! of the whole run, pacing included. The same fault plan (crashes,
//! outages, degradations) runs through the service path at every rate.
//!
//! A determinism block then re-runs the service unpaced at 1, 2 and 4
//! workers and asserts bit-identical welfare, ledger digests, a
//! per-decision fingerprint, and the span stream's rendered bytes — the
//! service's "any worker count replays the single-thread schedule"
//! contract, with faults enabled.
//!
//! A `spawn_overhead` microbench compares the historical per-batch
//! scoped-spawn dispatch (fresh OS threads every `parallel_map`) against
//! the persistent pool's dispatch, in ns per work item.
//!
//! `--smoke` shrinks the scenario for CI and, like `bench_milp --smoke`,
//! still runs every rate and the full determinism sweep but leaves the
//! committed full-run artifact untouched.

use pdftsp_cluster::{configured_threads, hardware_threads, pool_stats, set_thread_override};
use pdftsp_sim::{
    AuctionService, FaultPlan, FaultSpec, Observability, ServiceConfig, ServiceOutcome,
};
use pdftsp_telemetry::chrome;
use pdftsp_types::Scenario;
use pdftsp_workload::{ArrivalProcess, ScenarioBuilder};

/// Open-loop arrival rates, tasks per second.
const RATES: [f64; 3] = [10_000.0, 100_000.0, 1_000_000.0];

fn scenario(smoke: bool) -> Scenario {
    let (horizon, nodes, mean) = if smoke { (16, 8, 4.0) } else { (48, 24, 24.0) };
    ScenarioBuilder {
        horizon,
        num_nodes: nodes,
        arrivals: ArrivalProcess::Poisson {
            mean_per_slot: mean,
        },
        seed: 4242,
        ..ScenarioBuilder::default()
    }
    .build()
}

fn fault_spec(smoke: bool) -> FaultSpec {
    FaultSpec {
        crashes: if smoke { 2 } else { 6 },
        outage: 4,
        degrade: 0.2,
        seed: 7,
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a over the decision sequence (task id, admission, payment bits)
/// — the replayable content, excluding wall-clock latency fields.
fn decision_fingerprint(out: &ServiceOutcome) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for d in &out.decisions {
        mix(d.task as u64);
        mix(u64::from(d.is_admitted()));
        mix(d.payment().to_bits());
    }
    mix(out.welfare.social_welfare.to_bits());
    h
}

/// Best-of-`reps` paced run (decisions/sec) — decision content is
/// asserted identical across reps, so taking the fastest rep only
/// de-noises the wall clock.
fn best_of(sc: &Scenario, plan: &FaultPlan, cfg: ServiceConfig, reps: usize) -> ServiceOutcome {
    let mut best: Option<ServiceOutcome> = None;
    for _ in 0..reps {
        let out = AuctionService::run(sc, cfg, plan).expect("service run");
        best = Some(match best.take() {
            None => out,
            Some(prev) => {
                assert_eq!(
                    decision_fingerprint(&prev),
                    decision_fingerprint(&out),
                    "service run is not replay-stable across reps"
                );
                if out.decisions_per_second() > prev.decisions_per_second() {
                    out
                } else {
                    prev
                }
            }
        });
    }
    best.expect("reps >= 1")
}

/// One paced rate point; returns the JSON row.
fn rate_json(sc: &Scenario, plan: &FaultPlan, shards: usize, rate: f64, reps: usize) -> String {
    let cfg = ServiceConfig {
        shards,
        epoch_slots: 4,
        open_loop_rate: Some(rate),
        ..ServiceConfig::default()
    };
    let out = best_of(sc, plan, cfg, reps);
    let mut lat: Vec<f64> = out.admission_seconds.clone();
    lat.sort_by(f64::total_cmp);
    let p50_ms = percentile(&lat, 0.50) * 1e3;
    let p99_ms = percentile(&lat, 0.99) * 1e3;
    println!(
        "rate {:>9.0}/s: {:>8.0} decisions/s, admission p50 {:.3} ms p99 {:.3} ms ({} workers)",
        rate,
        out.decisions_per_second(),
        p50_ms,
        p99_ms,
        out.effective_workers
    );
    format!(
        concat!(
            "    {{\"offered_rate_per_s\": {:.0}, \"decisions\": {}, ",
            "\"sustained_decisions_per_s\": {:.1}, \"wall_s\": {:.6}, ",
            "\"admission_p50_ms\": {:.4}, \"admission_p99_ms\": {:.4}, ",
            "\"admission_max_ms\": {:.4}, \"admitted\": {}, \"aborted\": {}, ",
            "\"disrupted\": {}, \"recovered\": {}, \"epochs\": {}, ",
            "\"effective_workers\": {}}}"
        ),
        rate,
        out.decisions.len(),
        out.decisions_per_second(),
        out.wall_seconds,
        p50_ms,
        p99_ms,
        percentile(&lat, 1.0) * 1e3,
        out.welfare.completed + out.welfare.aborted,
        out.welfare.aborted,
        out.disrupted,
        out.recovered,
        out.epochs,
        out.effective_workers
    )
}

/// Unpaced determinism sweep: the same faulted scenario at 1, 2 and 4
/// workers must produce bit-identical economics, ledgers, decisions,
/// and span streams.
fn determinism_json(sc: &Scenario, plan: &FaultPlan, shards: usize) -> String {
    let mut baseline: Option<(u64, u64, u64, u64)> = None;
    let mut rows = Vec::new();
    for threads in [1usize, 2, 4] {
        let cfg = ServiceConfig {
            shards,
            epoch_slots: 4,
            ..ServiceConfig::default()
        };
        set_thread_override(Some(threads));
        let out = AuctionService::with_observability(sc, cfg, plan, Observability::with_spans())
            .and_then(AuctionService::finish)
            .expect("service run");
        set_thread_override(None);
        let key = (
            out.welfare.social_welfare.to_bits(),
            out.ledger_digest,
            decision_fingerprint(&out),
            fnv1a(chrome::render_trace(&out.spans).as_bytes()),
        );
        match baseline {
            None => baseline = Some(key),
            Some(expected) => assert_eq!(
                expected, key,
                "service diverged at {threads} workers \
                 (welfare bits / ledger digest / decisions / span stream)"
            ),
        }
        println!(
            "determinism {threads} workers: welfare {:.2}, ledger digest {:016x}, span stream {:016x} — identical",
            out.welfare.social_welfare, out.ledger_digest, key.3
        );
        rows.push(format!(
            concat!(
                "    {{\"workers\": {}, \"effective_workers\": {}, ",
                "\"welfare_bits\": \"{:016x}\", \"ledger_digest\": \"{:016x}\", ",
                "\"decision_fingerprint\": \"{:016x}\", \"span_stream_fnv\": \"{:016x}\"}}"
            ),
            threads, out.effective_workers, key.0, key.1, key.2, key.3
        ));
    }
    rows.join(",\n")
}

/// Dispatch-overhead microbench: the historical per-batch scoped-spawn
/// path (fresh OS threads every call, as `parallel_map` worked before
/// the persistent pool) vs pool dispatch, ns per trivial work item.
fn spawn_overhead_json(reps: usize) -> String {
    use std::hint::black_box;
    const ITEMS: usize = 64;
    let items: Vec<u64> = (0..ITEMS as u64).collect();
    let work = |&x: &u64| black_box(x.wrapping_mul(0x9E37_79B9).rotate_left(7));
    // Warm the pool so thread creation isn't billed to dispatch.
    black_box(pdftsp_cluster::parallel_map(&items, work));
    let pool_start = std::time::Instant::now();
    for _ in 0..reps {
        black_box(pdftsp_cluster::parallel_map(&items, work));
    }
    let pool_ns = pool_start.elapsed().as_nanos() as f64 / (reps * ITEMS) as f64;

    let workers = configured_threads().clamp(2, ITEMS);
    let chunk = ITEMS.div_ceil(workers);
    let scoped_start = std::time::Instant::now();
    for _ in 0..reps {
        let mut out = vec![0u64; ITEMS];
        std::thread::scope(|scope| {
            for (ci, slots) in out.chunks_mut(chunk).enumerate() {
                let items = &items;
                scope.spawn(move || {
                    for (i, slot) in slots.iter_mut().enumerate() {
                        *slot = work(&items[ci * chunk + i]);
                    }
                });
            }
        });
        black_box(out);
    }
    let scoped_ns = scoped_start.elapsed().as_nanos() as f64 / (reps * ITEMS) as f64;
    println!(
        "spawn overhead: scoped {scoped_ns:.0} ns/task vs pool {pool_ns:.0} ns/task ({ITEMS}-item batches, {reps} reps)"
    );
    format!(
        concat!(
            "{{\"items_per_batch\": {}, \"reps\": {}, ",
            "\"scoped_ns_per_task\": {:.1}, \"pool_ns_per_task\": {:.1}}}"
        ),
        ITEMS, reps, scoped_ns, pool_ns
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sc = scenario(smoke);
    let spec = fault_spec(smoke);
    let plan = FaultPlan::generate(&sc, &spec);
    let faults = plan.events.len();
    // One shard per core up to the node count, at least two so the
    // two-phase commit path is actually exercised across workers.
    let shards = configured_threads().min(sc.nodes.len()).max(2);
    // Phase-1 workers: all cores, floored at two — on a single-core host
    // the workers time-slice, which still drives the full multi-worker
    // commit protocol (and the determinism contract makes the schedule
    // identical either way).
    let workers = configured_threads().min(shards).max(2);
    println!(
        "service bench: {} tasks / {} nodes / {} slots, {} shards / {} workers, {} fault events{}",
        sc.tasks.len(),
        sc.nodes.len(),
        sc.horizon,
        shards,
        workers,
        faults,
        if smoke { " (smoke)" } else { "" }
    );

    let reps = if smoke { 1 } else { 3 };
    set_thread_override(Some(workers));
    let rate_rows: Vec<String> = RATES
        .iter()
        .map(|&r| rate_json(&sc, &plan, shards, r, reps))
        .collect();
    set_thread_override(None);
    let determinism = determinism_json(&sc, &plan, shards);
    let spawn_overhead = spawn_overhead_json(if smoke { 50 } else { 400 });
    let pool = pool_stats();

    let body = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"service_throughput\",\n",
            "  \"emitter\": \"bench_service\",\n",
            "  \"smoke\": {},\n",
            "  \"hardware_threads\": {},\n",
            "  \"configured_threads\": {},\n",
            "  \"shards\": {},\n",
            "  \"workers\": {},\n",
            "  \"epoch_slots\": 4,\n",
            "  \"scenario\": {{\"horizon\": {}, \"nodes\": {}, \"tasks\": {}, \"seed\": 4242}},\n",
            "  \"faults\": {{\"events\": {}, \"crashes\": {}, \"outage\": {}, \"degrade\": {:.2}, \"seed\": {}}},\n",
            "  \"open_loop\": [\n",
            "{}\n",
            "  ],\n",
            "  \"determinism\": [\n",
            "{}\n",
            "  ],\n",
            "  \"spawn_overhead\": {},\n",
            "  \"pool\": {{\"workers\": {}, \"pool_tasks\": {}, \"pool_batches\": {}, \"pool_park_ns\": {}}}\n",
            "}}\n"
        ),
        smoke,
        hardware_threads(),
        configured_threads(),
        shards,
        workers,
        sc.horizon,
        sc.nodes.len(),
        sc.tasks.len(),
        faults,
        spec.crashes,
        spec.outage,
        spec.degrade,
        spec.seed,
        rate_rows.join(",\n"),
        determinism,
        spawn_overhead,
        pool.workers,
        pool.tasks,
        pool.batches,
        pool.park_ns
    );
    if smoke {
        println!("smoke ok: determinism held across 1/2/4 workers; artifact not rewritten");
        return;
    }
    let path = "BENCH_service.json";
    std::fs::write(path, &body).expect("write BENCH_service.json");
    println!("wrote {path}");
}
