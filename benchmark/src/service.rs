//! Service runs, driven only through the public calls
//! `AuctionService::new` (or `with_observability`), `run_epoch` and
//! `finish`, and the output checks applied to every run.

use crate::workload::Instance;
use pdftsp_cluster::{pool_stats, CapacityLedger, PoolStats};
use pdftsp_sim::{AuctionService, Observability, ServiceConfig, ServiceOutcome};
use pdftsp_types::Scenario;
use std::time::Instant;

/// Slack for floating-point comparisons of prices, as in the
/// repository's own economic tests.
const EPS: f64 = 1e-9;

/// One unpaced `new` → `run_epoch`* → `finish` run.
pub struct Unpaced {
    /// Wall time of `new`.
    pub setup_s: f64,
    /// Wall time of `finish`.
    pub finish_s: f64,
    /// Wall time from the call to `new` to the return of `finish`.
    pub wall_s: f64,
    pub outcome: ServiceOutcome,
    pub pool: PoolDelta,
}

/// Worker-pool activity during one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolDelta {
    pub tasks: u64,
    pub batches: u64,
    pub jobs: u64,
    pub park_ns: u64,
    pub workers: usize,
}

impl PoolDelta {
    fn between(before: &PoolStats, after: &PoolStats) -> PoolDelta {
        PoolDelta {
            tasks: after.tasks - before.tasks,
            batches: after.batches - before.batches,
            jobs: after.jobs - before.jobs,
            park_ns: after.park_ns - before.park_ns,
            workers: after.workers,
        }
    }
}

/// Runs the whole instance flat out.
pub fn unpaced(inst: &Instance, obs: Observability) -> Result<Unpaced, String> {
    let pool_before = pool_stats();
    let start = Instant::now();
    let mut svc = AuctionService::with_observability(&inst.scenario, inst.config, &inst.plan, obs)
        .map_err(|e| format!("new: {e}"))?;
    let setup_s = start.elapsed().as_secs_f64();
    while !svc.is_done() {
        svc.run_epoch().map_err(|e| format!("run_epoch: {e}"))?;
    }
    let finish_start = Instant::now();
    let outcome = svc.finish().map_err(|e| format!("finish: {e}"))?;
    let finish_s = finish_start.elapsed().as_secs_f64();
    let wall_s = start.elapsed().as_secs_f64();
    Ok(Unpaced {
        setup_s,
        finish_s,
        wall_s,
        outcome,
        pool: PoolDelta::between(&pool_before, &pool_stats()),
    })
}

/// Timing of one epoch of a paced run, seconds.
#[derive(Debug, Clone, Copy)]
pub struct EpochTiming {
    /// Time the service waited for the epoch's batch to arrive.
    pub wait_s: f64,
    /// Time from the batch's arrival (or the call, when later) to the
    /// return of `run_epoch`.
    pub busy_s: f64,
    /// How late the call started after the batch had fully arrived:
    /// the backlog the service carried into the epoch.
    pub late_s: f64,
    pub ops: usize,
    pub queue_depth: usize,
}

/// One open-loop run over the first `epochs` epochs at `rate`.
pub struct Paced {
    pub setup_s: f64,
    /// Due time → return of the committing `run_epoch`, per task.
    pub latencies_s: Vec<f64>,
    pub epochs: Vec<EpochTiming>,
    /// Tasks offered in the covered epochs.
    pub offered: usize,
    /// Tasks the epoch reports say were decided.
    pub decided: usize,
    /// Decisions per second over the run, pacing included.
    pub sustained_per_s: f64,
    /// Global ledger digest after the last covered epoch.
    pub digest: u64,
}

/// `slot_start[s]` = index of the first task arriving at or after slot
/// `s`. Fails unless task ids equal their index and arrivals ascend,
/// which the due-time arithmetic relies on.
pub fn slot_starts(scenario: &Scenario) -> Result<Vec<usize>, String> {
    let tasks = &scenario.tasks;
    for (i, t) in tasks.iter().enumerate() {
        if t.id != i || (i > 0 && tasks[i - 1].arrival > t.arrival) {
            return Err(format!("task {i} is out of id/arrival order"));
        }
    }
    Ok((0..=scenario.horizon)
        .map(|s| tasks.partition_point(|t| t.arrival < s))
        .collect())
}

/// Runs the first `epochs` epochs under the service's open-loop gate:
/// task `i` is due `i / rate` seconds after `new` returns.
pub fn paced(
    inst: &Instance,
    slot_start: &[usize],
    rate: f64,
    epochs: usize,
) -> Result<Paced, String> {
    let cfg = ServiceConfig {
        open_loop_rate: Some(rate),
        ..inst.config
    };
    let start = Instant::now();
    let mut svc =
        AuctionService::new(&inst.scenario, cfg, &inst.plan).map_err(|e| format!("new: {e}"))?;
    let setup_s = start.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let epochs = epochs.min(svc.total_epochs());
    let mut latencies_s = Vec::new();
    let mut timings = Vec::with_capacity(epochs);
    let (mut offered, mut decided, mut last_return) = (0, 0, 0.0);
    for _ in 0..epochs {
        let call = t0.elapsed().as_secs_f64();
        let report = svc.run_epoch().map_err(|e| format!("run_epoch: {e}"))?;
        let ret = t0.elapsed().as_secs_f64();
        let ids = slot_start[report.first_slot]..slot_start[report.end_slot];
        offered += ids.len();
        decided += report.decided;
        latencies_s.extend(ids.clone().map(|id| ret - id as f64 / rate));
        let arrived = ids.last().map_or(0.0, |id| id as f64 / rate);
        timings.push(EpochTiming {
            wait_s: (arrived - call).max(0.0),
            busy_s: ret - call.max(arrived),
            late_s: (call - arrived).max(0.0),
            ops: report.ops,
            queue_depth: report.queue_depth.iter().sum(),
        });
        last_return = ret;
    }
    Ok(Paced {
        setup_s,
        latencies_s,
        epochs: timings,
        offered,
        decided,
        sustained_per_s: decided as f64 / last_return,
        digest: svc.global_digest(),
    })
}

/// What every repetition of a workload must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digests {
    /// FNV-1a over each decision and each abort settlement.
    pub fingerprint: u64,
    /// The service's global ledger digest after the last commit.
    pub ledger: u64,
}

/// A fresh ledger fed the outcome's settled schedules, then the
/// releases of the aborted prefixes.
pub struct LedgerReplay {
    pub commits: u64,
    pub releases: u64,
    /// Wall time of each commit and release, seconds.
    pub op_s: Vec<f64>,
}

/// Checks one finished run and returns its digests:
/// one decision per task; payment ≤ bid, and ≤ budget for capped
/// bidders; for aborted tasks refund ≤ payment (the original payment
/// is refund + consumed); the welfare identity; and a shadow ledger
/// replay that never over-commits and round-trips exactly.
pub fn check(scenario: &Scenario, out: &ServiceOutcome) -> Result<(Digests, LedgerReplay), String> {
    let tasks = &scenario.tasks;
    if out.decisions.len() != tasks.len() {
        return Err(format!(
            "{} decisions for {} tasks",
            out.decisions.len(),
            tasks.len()
        ));
    }
    let within = |pay: f64, task: usize| -> Result<(), String> {
        let t = &tasks[task];
        if pay > t.bid + EPS {
            return Err(format!("task {task} pays {pay} above its bid {}", t.bid));
        }
        match t.budget {
            Some(b) if pay > b + EPS => Err(format!("task {task} pays {pay} above its budget {b}")),
            _ => Ok(()),
        }
    };
    for (i, d) in out.decisions.iter().enumerate() {
        if d.task != i {
            return Err(format!("decision {i} is for task {}", d.task));
        }
        within(d.payment(), i)?;
    }
    for a in &out.aborted {
        if a.refund < -EPS || a.consumed < -EPS {
            return Err(format!(
                "task {}: refund {} exceeds its payment {}",
                a.task,
                a.refund,
                a.refund + a.consumed
            ));
        }
        within(a.refund + a.consumed, a.task)?;
    }
    let w = &out.welfare;
    if (w.social_welfare - (w.user_utility + w.provider_utility)).abs()
        > 1e-6 * w.social_welfare.abs().max(1.0)
    {
        return Err(format!("welfare identity broken: {w:?}"));
    }
    let replay = replay_ledger(scenario, out)?;
    Ok((
        Digests {
            fingerprint: fingerprint(out),
            ledger: out.ledger_digest,
        },
        replay,
    ))
}

fn replay_ledger(scenario: &Scenario, out: &ServiceOutcome) -> Result<LedgerReplay, String> {
    fn timed(op_s: &mut Vec<f64>, op: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
        let t = Instant::now();
        op()?;
        op_s.push(t.elapsed().as_secs_f64());
        Ok(())
    }
    let mut ledger = CapacityLedger::new(scenario);
    let mut completed_only = CapacityLedger::new(scenario);
    let mut op_s = Vec::new();
    for d in &out.decisions {
        if let Some(s) = d.schedule() {
            let task = &scenario.tasks[d.task];
            let refused = |e| format!("shadow ledger refused task {}: {e}", d.task);
            timed(&mut op_s, || ledger.commit(task, s).map_err(refused))?;
            completed_only.commit(task, s).map_err(refused)?;
        }
    }
    for a in &out.aborted {
        let task = &scenario.tasks[a.task];
        timed(&mut op_s, || {
            ledger
                .commit(task, &a.prefix)
                .map_err(|e| format!("shadow ledger refused prefix of {}: {e}", a.task))
        })?;
    }
    let commits = op_s.len() as u64;
    for a in &out.aborted {
        let task = &scenario.tasks[a.task];
        timed(&mut op_s, || {
            ledger
                .release_placements(task, &a.prefix.placements)
                .map(|_| ())
                .map_err(|e| format!("shadow ledger release of {}: {e}", a.task))
        })?;
    }
    if ledger.state_digest() != completed_only.state_digest() {
        return Err("shadow ledger did not round-trip the aborted prefixes".into());
    }
    Ok(LedgerReplay {
        commits,
        releases: op_s.len() as u64 - commits,
        op_s,
    })
}

/// FNV-1a over task id, admission, payment bits, welfare and refund
/// bits, and every abort settlement.
fn fingerprint(out: &ServiceOutcome) -> u64 {
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
    mix(out.welfare.refunds.to_bits());
    for a in &out.aborted {
        mix(a.task as u64);
        mix(a.refund.to_bits());
        mix(a.consumed.to_bits());
    }
    h
}
