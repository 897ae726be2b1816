//! The traced run: per-layer numbers, timed from the benchmark's own
//! calls into each layer's public functions. The program itself is not
//! instrumented beyond what it already exposes (its counters, pool
//! statistics, outcome fields and optional spans).

use crate::service::{slot_starts, unpaced, EpochTiming, Unpaced};
use crate::workload::{Instance, Workload};
use crate::{checked_paced, median, percentile, Metric, Tally};
use pdftsp_core::Pdftsp;
use pdftsp_sim::Observability;
use pdftsp_telemetry::Telemetry;
use std::time::Instant;

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Runs every per-layer measurement once, in a fixed order, on the
/// run's first instance.
pub fn measure(w: Workload, seed: u64, smoke: bool, tally: &mut Tally) -> Vec<Metric> {
    let build = Instant::now();
    let inst = &w.generate(seed, 0, smoke);
    let build_s = build.elapsed().as_secs_f64();
    let n = inst.scenario.tasks.len();
    let mut reference = None;
    let mut out = vec![
        metric("workload.build_s", build_s, "s"),
        metric("workload.tasks", n as f64, "count"),
    ];

    // Warm-up, then one untraced and one traced run: the pool, ledger,
    // faults and telemetry layers read from these.
    let mut run = |obs: Observability, tally: &mut Tally| {
        let u = tally.run(n, unpaced(inst, obs))?;
        let replay = tally.verify(inst, &u.outcome, &mut reference);
        Some((u, replay))
    };
    run(Observability::default(), tally);
    let plain = run(Observability::default(), tally);
    let traced = run(Observability::with_spans(), tally);
    let (Some((plain, Some(replay))), Some((traced, _))) = (plain, traced) else {
        return out;
    };

    let shape = w.shape(smoke);
    match slot_starts(&inst.scenario) {
        Ok(starts) => {
            let paced = checked_paced(
                inst,
                &starts,
                shape.ladder[0],
                shape.paced_epochs,
                &mut None,
                tally,
            );
            if let Some(p) = paced {
                out.extend(service_metrics(&p.epochs, &plain));
            }
        }
        Err(e) => tally.problems.push(e),
    }
    let pool = &plain.pool;
    let park_s = pool.park_ns as f64 / 1e9;
    out.extend([
        metric("pool.tasks", pool.tasks as f64, "count"),
        metric("pool.batches", pool.batches as f64, "count"),
        metric("pool.jobs", pool.jobs as f64, "count"),
        metric("pool.park_s", park_s, "s"),
        metric(
            "pool.park_frac",
            park_s / (plain.wall_s * pool.workers.max(1) as f64),
            "ratio",
        ),
    ]);

    let covered = (shape.paced_epochs * inst.config.epoch_slots).min(inst.scenario.horizon);
    out.extend(scheduler_metrics(inst, covered));

    out.extend([
        metric("ledger.commits", replay.commits as f64, "count"),
        metric("ledger.releases", replay.releases as f64, "count"),
        metric(
            "ledger.op_us_p50",
            if replay.op_s.is_empty() {
                0.0
            } else {
                median(&replay.op_s) * 1e6
            },
            "us",
        ),
        metric("ledger.busy_s", replay.op_s.iter().sum(), "s"),
    ]);

    let o = &plain.outcome;
    let sum = |f: fn(&pdftsp_sim::ShardStats) -> u64| o.per_shard.iter().map(f).sum::<u64>() as f64;
    out.extend([
        metric("faults.disrupted", o.disrupted as f64, "count"),
        metric("faults.recovered", o.recovered as f64, "count"),
        metric("faults.aborted", o.aborted.len() as f64, "count"),
        metric("faults.node_failures", sum(|s| s.node_failures), "count"),
        metric("faults.resubmitted", sum(|s| s.tasks_resubmitted), "count"),
        metric("faults.refunds", sum(|s| s.refunds_issued), "count"),
        metric(
            "faults.recovery_ratio",
            if o.disrupted == 0 {
                0.0
            } else {
                o.recovered as f64 / o.disrupted as f64
            },
            "ratio",
        ),
        metric(
            "telemetry.spans",
            traced.outcome.spans.len() as f64,
            "count",
        ),
        metric(
            "telemetry.span_overhead_frac",
            traced.wall_s / plain.wall_s - 1.0,
            "ratio",
        ),
    ]);
    out
}

/// Service-layer numbers: epoch timings from the paced run, settlement
/// and routing from the unpaced one.
fn service_metrics(epochs: &[EpochTiming], plain: &Unpaced) -> Vec<Metric> {
    let busy: Vec<f64> = epochs.iter().map(|e| e.busy_s).collect();
    let routed: Vec<f64> = plain
        .outcome
        .per_shard
        .iter()
        .map(|s| s.routed as f64)
        .collect();
    let mean_routed = routed.iter().sum::<f64>() / routed.len().max(1) as f64;
    let max = |xs: &mut dyn Iterator<Item = f64>| xs.fold(0.0, f64::max);
    vec![
        metric("service.epochs", epochs.len() as f64, "count"),
        metric("service.epoch_busy_ms_p50", median(&busy) * 1e3, "ms"),
        metric(
            "service.epoch_busy_ms_max",
            max(&mut busy.iter().copied()) * 1e3,
            "ms",
        ),
        metric("service.busy_s", busy.iter().sum(), "s"),
        metric(
            "service.pace_wait_s",
            epochs.iter().map(|e| e.wait_s).sum(),
            "s",
        ),
        metric(
            "service.lateness_ms_max",
            max(&mut epochs.iter().map(|e| e.late_s)) * 1e3,
            "ms",
        ),
        metric("service.finish_s", plain.finish_s, "s"),
        metric(
            "service.ops",
            epochs.iter().map(|e| e.ops as f64).sum(),
            "count",
        ),
        metric(
            "service.queue_depth_max",
            max(&mut epochs.iter().map(|e| e.queue_depth as f64)),
            "count",
        ),
        metric(
            "service.shard_skew",
            max(&mut routed.iter().copied()) / mean_routed.max(1.0),
            "ratio",
        ),
        metric(
            "service.epochs_overlapped",
            plain.outcome.epochs_overlapped as f64,
            "count",
        ),
    ]
}

/// Scheduler, DP, grid and dual numbers from a one-shard replay over the
/// paced prefix (slots before `end_slot`): one `Pdftsp::decide` per task
/// in arrival order, counters read after. A single scheduler over the
/// whole cluster costs more per decision than a shard, so the replay is
/// held to the prefix to bound the run's length.
fn scheduler_metrics(inst: &Instance, end_slot: usize) -> Vec<Metric> {
    let sc = &inst.scenario;
    let mut pdftsp = Pdftsp::with_workers(sc, inst.config.scheduler, Telemetry::disabled(), 1);
    let mut decide_s = Vec::new();
    for task in sc.tasks.iter().take_while(|t| t.arrival < end_slot) {
        let t = Instant::now();
        std::hint::black_box(pdftsp.decide(task, sc));
        decide_s.push(t.elapsed().as_secs_f64());
    }
    let c = &pdftsp.telemetry().counters;
    let count = |name, field| metric(name, c.read(field) as f64, "count");
    vec![
        metric(
            "scheduler.decide_us_p50",
            percentile(&decide_s, 0.5).0 * 1e6,
            "us",
        ),
        metric(
            "scheduler.decide_us_p99",
            percentile(&decide_s, 0.99).0 * 1e6,
            "us",
        ),
        metric("scheduler.busy_s", decide_s.iter().sum(), "s"),
        count("scheduler.admitted", &c.admitted),
        count("scheduler.rejected_surplus", &c.rejected_surplus),
        count("scheduler.rejected_infeasible", &c.rejected_infeasible),
        count("scheduler.rejected_capacity", &c.rejected_capacity),
        count("scheduler.vendors_seen", &c.vendors_seen),
        count("scheduler.vendors_pruned", &c.vendors_pruned),
        count("scheduler.vendors_memoized", &c.vendors_memoized),
        metric("scheduler.prune_hit_rate", c.prune_hit_rate(), "ratio"),
        count("dp.runs", &c.dp_runs),
        count("dp.cells", &c.dp_cells),
        metric("dp.cells_per_decide", c.dp_cells_per_decision(), "count"),
        count("dp.early_exits", &c.dp_early_exits),
        count("dp.simd_rows", &c.simd_rows),
        count("dp.scalar_tail_rows", &c.scalar_tail_rows),
        count("grid.builds", &c.grid_builds),
        count("grid.cells", &c.grid_cells),
        count("duals.updates", &c.dual_updates),
    ]
}
