//! The sharded auction service: concurrent admission over a partitioned
//! data center, deterministic for any worker count.
//!
//! [`crate::zones`] splits the cluster between *base models* (fully
//! independent markets). This module splits it for *throughput*: the
//! nodes are partitioned into [`ShardMap`] ranges, each shard owning its
//! own `λ/φ` dual grid and capacity-ledger slice via a private
//! [`Pdftsp`] instance. The service borrows the caller's [`Scenario`]
//! for its whole life and never copies it; each shard carves a scenario
//! of its own in which only the tasks routed to it carry a rate row and
//! a quote list (see `ShardState`). An admission front-end batches
//! arrivals per *epoch* (a fixed span of scenario slots), routes each
//! task to one shard by a deterministic hash weighted by shard size, and
//! resolves cross-shard contention with an **epoch-ordered two-phase
//! commit** against the data-center's fixed-point ledger:
//!
//! * **Phase 1 (propose, parallel).** One [`try_parallel_map`] over the
//!   shards on the persistent worker pool: every shard sequentially
//!   processes its fault events and routed arrivals for the epoch's
//!   slots through its own scheduler, provisionally committing to its
//!   shard-local ledger and recording every mutation as a [`LedgerOp`]
//!   in its retained proposal buffer.
//! * **Phase 2 (commit, sequential).** Once every shard has proposed,
//!   the coordinator replays the op logs in shard-id order against the
//!   global [`CapacityLedger`], node ids remapped from shard-local to
//!   global. Shards own disjoint node ranges, so validation can never
//!   fail — the service checks anyway and verifies at settlement that
//!   the global ledger mirrors every shard ledger cell-for-cell.
//!
//! The shards are the system's only intra-run parallelism: each shard's
//! scheduler evaluates vendors sequentially.
//!
//! **Determinism argument.** Routing is a pure function of `(task id,
//! route seed, shard sizes)`; each shard's phase-1 work is a sequential
//! loop over state only that shard owns; [`try_parallel_map`] merges
//! results by item index; and phase 2 applies ops in fixed shard order.
//! No step observes wall-clock time, scheduling order, or worker count,
//! so a 16-worker run replays the single-thread schedule — welfare bits,
//! ledger digest, payments — bit-for-bit. The only nondeterministic
//! outputs are latency *measurements* (`decide_seconds`, admission
//! histograms), which never feed back into decisions.
//!
//! Fault tolerance: the per-shard loop applies [`FaultPlan`] events
//! (mapped to the owning shard) in the plan's within-slot order —
//! recoveries, degradations, then crashes, before same-slot arrivals —
//! through the release / quarantine / resubmit / refund machinery of
//! [`crate::faults`].
//!
//! **One loop.** `ShardState::propose` is the workspace's only per-slot
//! loop that applies fault events. A single-process faulted or spot run
//! (`pdftsp run --faults`/`--spot`, [`crate::spot::run_spot`], the chaos
//! and spot suites) is this service with `shards: 1`: one shard decides
//! the same tasks in the same order for any `epoch_slots`, and a
//! one-item [`try_parallel_map`] runs inline on the caller.

use crate::faults::{
    handle_crash, settle, AbortedTask, FaultEvent, FaultPlan, FaultWelfare, LedgerOp, TaskState,
};
use pdftsp_cluster::{
    effective_workers, pool_stats, try_parallel_map, CapacityLedger, LedgerError, PoolStats,
    ShardError, ShardMap, ShardSpec,
};
use pdftsp_core::{Pdftsp, PdftspConfig};
use pdftsp_telemetry::{FlightRecorder, LatencyHistogram, Sink, Span, SpanLog, TeeSink, Telemetry};
use pdftsp_types::{
    AuctionOutcome, CostGrid, Decision, NodeId, NodeSpec, Scenario, Schedule, Slot, Task, TaskId,
};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Service configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Number of shards to partition the cluster into (each needs at
    /// least one node).
    pub shards: usize,
    /// Scenario slots batched into one admission epoch (≥ 1).
    pub epoch_slots: usize,
    /// Scheduler configuration used by every shard.
    pub scheduler: PdftspConfig,
    /// Seed of the deterministic task-routing hash.
    pub route_seed: u64,
    /// Open-loop arrival rate in tasks per wall-clock second. When set,
    /// task `i` "arrives" at wall time `i / rate` after service start;
    /// an epoch is not proposed until its whole batch has arrived, and
    /// admission latency is measured from each task's arrival instant
    /// to its phase-2 commit. When `None` the service runs flat out and
    /// admission latency is measured from epoch entry (pure batch
    /// processing time).
    pub open_loop_rate: Option<f64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 2,
            epoch_slots: 4,
            scheduler: PdftspConfig::default(),
            route_seed: 0x0005_EED0_F5EA_C0DE,
            open_loop_rate: None,
        }
    }
}

/// Observability knobs for a service run. The default is everything
/// off — identical cost and behavior to the pre-observability service
/// ([`Telemetry::disabled`] on every shard).
#[derive(Clone, Default)]
pub struct Observability {
    /// Collect task-lifecycle spans (route/propose/commit/settle and
    /// fault_recover) into [`ServiceOutcome::spans`].
    pub spans: bool,
    /// Flight-recorder ring capacity per shard; 0 disables the recorder.
    pub flight_capacity: usize,
    /// Directory crash dumps are written to (`flightrec-shard<k>.jsonl`).
    /// `None` keeps the ring in memory only.
    pub flight_dir: Option<PathBuf>,
    /// The caller's event sink, teed onto every shard's telemetry beside
    /// the span log and flight recorder: it receives every scheduler,
    /// fault and span event the shards emit (e.g. a
    /// [`pdftsp_telemetry::JsonlSink`] for `--telemetry`). The caller
    /// keeps its own handle to flush it after the run. With one shard
    /// the stream is in decision order; with more, events from
    /// different shards interleave in nondeterministic order.
    pub sink: Option<Arc<dyn Sink>>,
}

impl std::fmt::Debug for Observability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observability")
            .field("spans", &self.spans)
            .field("flight_capacity", &self.flight_capacity)
            .field("flight_dir", &self.flight_dir)
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

impl Observability {
    /// Spans only — what `--trace-out` and trace tests need.
    #[must_use]
    pub fn with_spans() -> Observability {
        Observability {
            spans: true,
            ..Observability::default()
        }
    }

    /// Whether any sink must be attached to shard telemetry.
    #[must_use]
    fn any_enabled(&self) -> bool {
        self.spans || self.flight_capacity > 0 || self.sink.is_some()
    }
}

/// Errors from service construction or the commit protocol.
#[derive(Debug)]
pub enum ServiceError {
    /// The cluster could not be partitioned into the requested shards.
    Shard(ShardError),
    /// `epoch_slots` was zero.
    ZeroEpoch,
    /// A phase-2 commit failed validation against the global ledger —
    /// impossible while shards own disjoint node ranges; a report means
    /// the two-phase protocol itself is broken.
    Commit {
        /// Task whose op failed.
        task: TaskId,
        /// The ledger's refusal.
        error: LedgerError,
    },
    /// At settlement a global-ledger cell disagreed with the owning
    /// shard's ledger.
    Mirror {
        /// Owning shard.
        shard: usize,
        /// Global node id.
        node: NodeId,
        /// Slot.
        slot: Slot,
    },
    /// The settled decision set failed execution-engine replay.
    Replay(String),
    /// Fault event `index` names node `node`, but the cluster has only
    /// `nodes` nodes.
    FaultNodeOutOfRange {
        /// Position of the event in the plan.
        index: usize,
        /// The node the event names.
        node: NodeId,
        /// Nodes in the cluster.
        nodes: usize,
    },
    /// Fault event `index` sorts before its predecessor: the plan is not
    /// in `(slot, kind, node)` order, so the per-shard event cursors
    /// would skip events.
    FaultPlanUnsorted {
        /// Position of the first out-of-order event in the plan.
        index: usize,
    },
    /// Fault event `index` is a degradation whose `frac` is NaN,
    /// infinite, or outside `[0, 1]`.
    FaultFracInvalid {
        /// Position of the event in the plan.
        index: usize,
    },
    /// [`AuctionService::run_epoch`] was called after every epoch was
    /// already committed ([`AuctionService::is_done`]).
    AlreadyDone,
    /// A shard's phase-1 worker panicked. The panic is contained on the
    /// pool (the process and the other shards survive), but the
    /// panicking shard's state is poisoned: every later epoch returns
    /// this error again, so the run cannot silently continue on a
    /// half-proposed schedule.
    WorkerPanicked(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Shard(e) => write!(f, "shard partition: {e}"),
            ServiceError::ZeroEpoch => write!(f, "epoch_slots must be ≥ 1"),
            ServiceError::Commit { task, error } => {
                write!(f, "phase-2 commit conflict on task {task}: {error}")
            }
            ServiceError::Mirror { shard, node, slot } => write!(
                f,
                "global ledger diverged from shard {shard} at node {node}, slot {slot}"
            ),
            ServiceError::Replay(e) => write!(f, "settled decisions failed replay: {e}"),
            ServiceError::FaultNodeOutOfRange { index, node, nodes } => write!(
                f,
                "fault event {index} names node {node}, but the cluster has {nodes} nodes"
            ),
            ServiceError::FaultPlanUnsorted { index } => {
                write!(f, "fault event {index} is out of (slot, kind, node) order")
            }
            ServiceError::FaultFracInvalid { index } => {
                write!(
                    f,
                    "fault event {index} degrades by a fraction outside [0, 1]"
                )
            }
            ServiceError::AlreadyDone => write!(f, "all epochs already committed"),
            ServiceError::WorkerPanicked(e) => write!(f, "shard worker panicked: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ShardError> for ServiceError {
    fn from(e: ShardError) -> Self {
        ServiceError::Shard(e)
    }
}

/// Telemetry snapshot of one shard after the run.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// First global node id owned.
    pub node_base: NodeId,
    /// Nodes owned.
    pub num_nodes: usize,
    /// Tasks routed to this shard.
    pub routed: usize,
    /// `decide()` calls (arrivals; excludes recovery resubmissions).
    pub decisions: u64,
    /// Admissions (including re-admitted remnants).
    pub admitted: u64,
    /// Rejections across all three reject reasons.
    pub rejected: u64,
    /// Crash disruptions handled.
    pub disrupted: usize,
    /// Disruptions whose remnant was re-admitted.
    pub recovered: usize,
    /// Crash events that hit this shard's nodes.
    pub node_failures: u64,
    /// Remnants re-run through the auction.
    pub tasks_resubmitted: u64,
    /// Refunds issued to unrecoverable tasks.
    pub refunds_issued: u64,
    /// p50 of the shard's `decide()` latency, nanoseconds.
    pub decide_p50_nanos: f64,
    /// p99 of the shard's `decide()` latency, nanoseconds.
    pub decide_p99_nanos: f64,
    /// Digest of the shard-local ledger at settlement.
    pub ledger_digest: u64,
}

/// Report for one committed epoch.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// First slot of the epoch batch.
    pub first_slot: Slot,
    /// One past the last slot of the batch.
    pub end_slot: Slot,
    /// Tasks decided (admitted or rejected) in this epoch.
    pub decided: usize,
    /// Ledger ops committed in phase 2.
    pub ops: usize,
    /// Arrivals still queued per shard after this epoch (routed tasks
    /// whose slot has not been reached yet) — the queue-depth figure the
    /// `--progress` line reports.
    pub queue_depth: Vec<usize>,
}

/// Outcome of a full service run.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// One decision per task in id order. Completed tasks appear
    /// admitted with their final (possibly recovery-merged) schedule and
    /// original payment; aborted tasks appear rejected with
    /// [`pdftsp_types::Rejection::InsufficientCapacity`].
    pub decisions: Vec<Decision>,
    /// Refund-adjusted welfare across all shards.
    pub welfare: FaultWelfare,
    /// Unrecoverable tasks with settlements (global node ids).
    pub aborted: Vec<AbortedTask>,
    /// Per-shard telemetry.
    pub per_shard: Vec<ShardStats>,
    /// Crash disruptions across all shards.
    pub disrupted: usize,
    /// Recoveries across all shards.
    pub recovered: usize,
    /// Digest of the global (coordinator) ledger after the last commit.
    pub ledger_digest: u64,
    /// Epochs committed.
    pub epochs: usize,
    /// Workers the phase-1 parallel map could actually use:
    /// `min(shards, configured threads)`.
    pub effective_workers: usize,
    /// Admission-latency histogram (arrival → phase-2 commit).
    pub admission: LatencyHistogram,
    /// Exact admission-latency samples in commit order, seconds.
    pub admission_seconds: Vec<f64>,
    /// Wall-clock seconds from service start to the last commit.
    pub wall_seconds: f64,
    /// Task-lifecycle spans, sorted by `(ts, span id)` — empty unless
    /// [`Observability::spans`] was set. Sim-clock timestamped, so the
    /// list (and any trace rendered from it) is byte-identical across
    /// worker counts.
    pub spans: Vec<Span>,
    /// Always 0: epochs never overlap. Kept only because the
    /// `benchmark/` package reads it; it goes with the next change to
    /// that package.
    pub epochs_overlapped: u64,
    /// Worker-pool tasks executed during this run. The pool is
    /// process-global, so the delta is best-effort when other pool users
    /// run concurrently.
    pub pool_tasks: u64,
    /// Nanoseconds pool threads spent parked during this run (same
    /// best-effort caveat as [`ServiceOutcome::pool_tasks`]).
    pub pool_park_ns: u64,
}

impl ServiceOutcome {
    /// Sustained decision throughput: decisions per wall-clock second
    /// over the whole run (arrival pacing included, when configured).
    #[must_use]
    pub fn decisions_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.decisions.len() as f64 / self.wall_seconds
    }
}

/// One shard's private world: scenario slice, scheduler, task states.
///
/// **Carving invariant.** The shard scenario keeps *every* task, with
/// every scalar field intact: the pre-heat forecast
/// (`DualState::preheat`) sums arrival, work, bid and memory over all
/// tasks, and task ids index `states` and `quotes`. Only the tasks
/// routed to this shard carry a rate row (the global row's owned
/// `[lo..hi]` slice) and their quote list; every other task has an
/// empty row and an empty quote list, so a stray read of one fails on
/// an index instead of reading another shard's data. A carved scenario
/// therefore fails [`Scenario::validate`] on purpose. The shard reads
/// rates and quotes only of the tasks it decides or recovers, so
/// decisions, ledgers and span streams are bit-identical to those over
/// a full carve.
struct ShardState {
    /// Shard-local scenario: re-indexed node slice, routed-only rate
    /// rows and quote lists (see above), row-sliced cost grid. Task ids
    /// stay global.
    scenario: Scenario,
    pdftsp: Pdftsp,
    states: Vec<TaskState>,
    aborted: Vec<AbortedTask>,
    /// Fault events on this shard's nodes, local ids, plan order.
    events: Vec<FaultEvent>,
    next_event: usize,
    /// Routed task ids in (arrival, id) order.
    arrivals: Vec<TaskId>,
    next_arrival: usize,
    disrupted: usize,
    recovered: usize,
    /// The shard's flight recorder when armed — held here so `propose`
    /// can arm a panic-dump guard around its work loop.
    flight: Option<Arc<FlightRecorder>>,
    /// This epoch's phase-1 output, retained across epochs so its
    /// buffers keep their capacity.
    proposal: Proposal,
}

/// One epoch's phase-1 output for one shard: the op log and the ids
/// decided.
#[derive(Debug, Default)]
struct Proposal {
    ops: Vec<LedgerOp>,
    decided: Vec<TaskId>,
}

impl ShardState {
    /// Phase 1: sequentially processes `slots`, refilling
    /// [`ShardState::proposal`] with the op log and the ids decided this
    /// epoch. `epoch` feeds span attribution.
    fn propose(&mut self, slots: std::ops::Range<Slot>, epoch: usize) {
        // If this shard's worker panics mid-epoch, dump the flight ring
        // on the way out so the post-mortem survives the unwind.
        let _panic_dump = self.flight.as_ref().map(FlightRecorder::panic_dump_guard);
        self.pdftsp.telemetry().spans.set_epoch(epoch);
        let ops = &mut self.proposal.ops;
        let decided = &mut self.proposal.decided;
        ops.clear();
        decided.clear();
        for slot in slots {
            while self.next_event < self.events.len() && self.events[self.next_event].slot() == slot
            {
                match self.events[self.next_event] {
                    FaultEvent::NodeUp { node, slot } => {
                        self.pdftsp.restore_node(node, slot);
                        ops.push(LedgerOp::Lift { node });
                    }
                    FaultEvent::Degrade { node, slot, frac } => {
                        self.pdftsp.degrade_node(node, slot, frac);
                        ops.push(LedgerOp::Degrade {
                            node,
                            from: slot,
                            frac,
                        });
                    }
                    FaultEvent::NodeDown { node, slot } => {
                        let (d, r) = handle_crash(
                            &mut self.pdftsp,
                            &self.scenario,
                            &mut self.states,
                            &mut self.aborted,
                            node,
                            slot,
                            ops,
                        );
                        self.disrupted += d;
                        self.recovered += r;
                    }
                }
                self.next_event += 1;
            }
            while self.next_arrival < self.arrivals.len()
                && self.scenario.tasks[self.arrivals[self.next_arrival]].arrival == slot
            {
                let id = self.arrivals[self.next_arrival];
                let task = &self.scenario.tasks[id];
                let decision = self.pdftsp.decide(task, &self.scenario);
                self.states[id] = match decision.outcome {
                    AuctionOutcome::Admitted { schedule, payment } => {
                        ops.push(LedgerOp::Commit {
                            task: id,
                            schedule: schedule.clone(),
                        });
                        TaskState::Active {
                            schedule,
                            payment,
                            decide_seconds: decision.decide_seconds,
                        }
                    }
                    outcome @ AuctionOutcome::Rejected(_) => TaskState::Rejected(Decision {
                        outcome,
                        ..decision
                    }),
                };
                decided.push(id);
                self.next_arrival += 1;
            }
        }
    }
}

/// The sharded admission service. Construct with [`AuctionService::new`],
/// drive epoch by epoch with [`AuctionService::run_epoch`] (or all the
/// way with [`AuctionService::run`]), then [`AuctionService::finish`].
/// The service borrows the scenario it serves.
pub struct AuctionService<'a> {
    scenario: &'a Scenario,
    cfg: ServiceConfig,
    map: ShardMap,
    /// Shard worlds. The mutex only lets the phase-1 parallel map hand
    /// each worker `&mut` access to its own shard; it is never contended.
    shards: Vec<Mutex<ShardState>>,
    /// `routes[task id]` = owning shard.
    routes: Vec<usize>,
    global: CapacityLedger,
    admission: LatencyHistogram,
    admission_seconds: Vec<f64>,
    next_slot: Slot,
    epochs_done: usize,
    /// Index into the global (arrival-sorted) task list of the first
    /// task not yet covered by a committed epoch; drives arrival pacing.
    next_global_task: usize,
    started: Instant,
    last_commit_seconds: f64,
    /// Set when a shard worker panicked; every later epoch fails fast.
    poisoned: Option<String>,
    pool_at_start: PoolStats,
    obs: Observability,
    /// Per-shard span logs (propose/fault_recover spans emitted inside
    /// the shard schedulers), drained at settlement.
    span_logs: Vec<Option<Arc<SpanLog>>>,
    /// Coordinator-side spans: route (at construction), commit (phase
    /// 2) and settle (at finish).
    coord_spans: Vec<Span>,
    /// Tasks whose commit span was emitted — recovery re-commits of the
    /// same task must not emit a second, colliding commit span.
    commit_span_done: Vec<bool>,
}

/// splitmix64: the routing hash (also used for deterministic trace
/// splitting in the zone partitioner's thinning argument).
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hybrid sleep/spin wait until `target` seconds after `start`. A bare
/// `thread::sleep` oversleeps by OS timer granularity (~1 ms), which at
/// a 1 M/s offered rate dwarfs the sub-millisecond inter-epoch gap and
/// shows up as spurious admission latency; sleeping until shortly
/// before the target and spinning the remainder hits it precisely.
fn pace_until(start: &Instant, target: f64) {
    const SPIN_WINDOW: f64 = 500e-6;
    loop {
        let remaining = target - start.elapsed().as_secs_f64();
        if remaining <= 0.0 {
            return;
        }
        if remaining > SPIN_WINDOW {
            std::thread::sleep(std::time::Duration::from_secs_f64(remaining - SPIN_WINDOW));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Checks `plan` against the per-shard event cursors' assumptions: every
/// event names a node of the cluster, every degradation reserves a
/// fraction in `[0, 1]` (as [`crate::faults::FaultSpec::parse`] demands),
/// and events are sorted by `(slot, kind, node)`.
fn validate_plan(plan: &FaultPlan, nodes: usize) -> Result<(), ServiceError> {
    for (index, ev) in plan.events.iter().enumerate() {
        let (_, _, node) = ev.order();
        if node >= nodes {
            return Err(ServiceError::FaultNodeOutOfRange { index, node, nodes });
        }
        // A NaN fraction would pass `degrade_node`'s arithmetic and
        // reserve every residual byte of adapter memory.
        if let FaultEvent::Degrade { frac, .. } = *ev {
            if !(0.0..=1.0).contains(&frac) {
                return Err(ServiceError::FaultFracInvalid { index });
            }
        }
        if index > 0 && ev.order() < plan.events[index - 1].order() {
            return Err(ServiceError::FaultPlanUnsorted { index });
        }
    }
    Ok(())
}

/// Carves shard `spec`'s scenario out of `scenario`: the node slice
/// re-indexed from zero, the cost-grid rows of the owned range, and
/// every task with its scalar fields. Only a task routed to the shard
/// (`routes[id] == spec.id`) gets its rate row (cut to the owned range)
/// and its quote list; every other task gets empty ones (see
/// [`ShardState`]).
fn carve_shard(scenario: &Scenario, spec: &ShardSpec, routes: &[usize]) -> Scenario {
    let routed = |id: TaskId| routes[id] == spec.id;
    let lo = spec.node_base;
    let hi = spec.node_base + spec.num_nodes;
    let nodes = scenario.nodes[lo..hi]
        .iter()
        .enumerate()
        .map(|(local, n)| NodeSpec {
            id: local,
            ..n.clone()
        })
        .collect();
    let tasks = scenario
        .tasks
        .iter()
        .map(|t| Task {
            id: t.id,
            arrival: t.arrival,
            deadline: t.deadline,
            dataset_samples: t.dataset_samples,
            epochs: t.epochs,
            memory_gb: t.memory_gb,
            work: t.work,
            needs_preprocessing: t.needs_preprocessing,
            bid: t.bid,
            valuation: t.valuation,
            rates: if routed(t.id) {
                t.rates[lo..hi].to_vec()
            } else {
                Vec::new()
            },
            energy_weight: t.energy_weight,
            budget: t.budget,
        })
        .collect();
    let quotes = scenario
        .quotes
        .iter()
        .enumerate()
        .map(|(id, q)| if routed(id) { q.clone() } else { Vec::new() })
        .collect();
    let mut prices = Vec::with_capacity(spec.num_nodes * scenario.horizon);
    for k in lo..hi {
        prices.extend_from_slice(scenario.cost.prices_row(k));
    }
    let cost = CostGrid::from_vec(spec.num_nodes, scenario.horizon, prices)
        .expect("sliced cost grid is well-formed");
    Scenario {
        horizon: scenario.horizon,
        base_model_gb: scenario.base_model_gb,
        nodes,
        tasks,
        quotes,
        cost,
    }
}

impl<'a> AuctionService<'a> {
    /// Builds the service: partitions the cluster, carves per-shard
    /// scenarios (node slice re-indexed from zero, rate rows cut to the
    /// range and quote lists for routed tasks only, cost-grid rows
    /// sliced), routes every task, and maps `plan`'s fault events to
    /// their owning shards. The service borrows `scenario` and copies
    /// none of it beyond the shard carves.
    ///
    /// # Errors
    /// [`ServiceError::Shard`] when the cluster cannot be partitioned
    /// (more shards than nodes), [`ServiceError::ZeroEpoch`] for an
    /// empty epoch, and [`ServiceError::FaultNodeOutOfRange`] /
    /// [`ServiceError::FaultFracInvalid`] /
    /// [`ServiceError::FaultPlanUnsorted`] for a malformed `plan`.
    pub fn new(
        scenario: &'a Scenario,
        cfg: ServiceConfig,
        plan: &FaultPlan,
    ) -> Result<AuctionService<'a>, ServiceError> {
        AuctionService::with_observability(scenario, cfg, plan, Observability::default())
    }

    /// [`AuctionService::new`] with spans and/or a flight recorder
    /// attached to every shard's telemetry. The default observability is
    /// fully off, so `new` keeps the zero-overhead disabled fast path.
    ///
    /// The service borrows `scenario` for its whole life; the only
    /// per-task copies it makes are the shard carves, in which a task
    /// carries its rate row (cut to the shard's nodes) and its quote
    /// list only in the one shard it is routed to.
    ///
    /// # Errors
    /// Same as [`AuctionService::new`].
    pub fn with_observability(
        scenario: &'a Scenario,
        cfg: ServiceConfig,
        plan: &FaultPlan,
        obs: Observability,
    ) -> Result<AuctionService<'a>, ServiceError> {
        if cfg.epoch_slots == 0 {
            return Err(ServiceError::ZeroEpoch);
        }
        validate_plan(plan, scenario.nodes.len())?;
        let map = ShardMap::even(scenario.nodes.len(), cfg.shards)?;
        let total_nodes = scenario.nodes.len();
        // Route by hashing the task id onto a node and taking its owner:
        // shard load is proportional to shard size, and the route is a
        // pure function of (id, seed, sizes) — batching and worker count
        // can never move a task.
        let routes: Vec<usize> = scenario
            .tasks
            .iter()
            .map(|t| {
                map.shard_of(
                    (splitmix64(t.id as u64 ^ cfg.route_seed) % total_nodes as u64) as usize,
                )
            })
            .collect();

        let mut shards = Vec::with_capacity(map.num_shards());
        let mut span_logs = Vec::with_capacity(map.num_shards());
        for spec in map.shards() {
            let shard_scenario = carve_shard(scenario, spec, &routes);
            // Events keep the plan's (slot, kind, node) order; only the
            // owning shard sees each one, with the node id localized.
            let events: Vec<FaultEvent> = plan
                .events
                .iter()
                .filter_map(|ev| {
                    let node = match *ev {
                        FaultEvent::NodeDown { node, .. }
                        | FaultEvent::NodeUp { node, .. }
                        | FaultEvent::Degrade { node, .. } => node,
                    };
                    let (owner, local) = map.to_local(node);
                    (owner == spec.id).then_some(match *ev {
                        FaultEvent::NodeDown { slot, .. } => {
                            FaultEvent::NodeDown { node: local, slot }
                        }
                        FaultEvent::NodeUp { slot, .. } => FaultEvent::NodeUp { node: local, slot },
                        FaultEvent::Degrade { slot, frac, .. } => FaultEvent::Degrade {
                            node: local,
                            slot,
                            frac,
                        },
                    })
                })
                .collect();
            let arrivals: Vec<TaskId> = scenario
                .tasks
                .iter()
                .filter(|t| routes[t.id] == spec.id)
                .map(|t| t.id)
                .collect();
            // Shard telemetry: disabled unless observability asks for a
            // span log, a flight recorder and/or the caller's sink, in
            // which case the sinks are teed together and the span
            // context pinned to the shard.
            let flight = (obs.flight_capacity > 0).then(|| {
                Arc::new(match &obs.flight_dir {
                    Some(dir) => {
                        FlightRecorder::with_dump_dir(spec.id, obs.flight_capacity, dir.clone())
                    }
                    None => FlightRecorder::new(spec.id, obs.flight_capacity),
                })
            });
            let span_log = obs.spans.then(|| Arc::new(SpanLog::new()));
            let telemetry = if obs.any_enabled() {
                let mut sinks: Vec<Arc<dyn Sink>> = Vec::new();
                if let Some(fr) = &flight {
                    sinks.push(fr.clone() as Arc<dyn Sink>);
                }
                if let Some(log) = &span_log {
                    sinks.push(log.clone() as Arc<dyn Sink>);
                }
                if let Some(sink) = &obs.sink {
                    sinks.push(sink.clone());
                }
                let tel = if sinks.len() == 1 {
                    Telemetry::new(sinks.pop().expect("one sink"))
                } else {
                    Telemetry::new(Arc::new(TeeSink::new(sinks)))
                };
                tel.spans.set_shard(spec.id);
                tel
            } else {
                Telemetry::disabled()
            };
            span_logs.push(span_log);
            let pdftsp = Pdftsp::with_telemetry(&shard_scenario, cfg.scheduler, telemetry);
            shards.push(Mutex::new(ShardState {
                scenario: shard_scenario,
                pdftsp,
                states: vec![TaskState::Pending; scenario.tasks.len()],
                aborted: Vec::new(),
                events,
                next_event: 0,
                arrivals,
                next_arrival: 0,
                disrupted: 0,
                recovered: 0,
                flight,
                proposal: Proposal::default(),
            }));
        }
        // Route spans are coordinator facts known up front: one root per
        // task, timestamped at its arrival slot on the sim clock.
        let coord_spans = if obs.spans {
            scenario
                .tasks
                .iter()
                .map(|t| Span::route(t.id, routes[t.id], t.arrival, t.arrival / cfg.epoch_slots))
                .collect()
        } else {
            Vec::new()
        };
        let commit_span_done = vec![false; scenario.tasks.len()];
        Ok(AuctionService {
            scenario,
            cfg,
            map,
            shards,
            routes,
            global: CapacityLedger::new(scenario),
            admission: LatencyHistogram::default(),
            admission_seconds: Vec::new(),
            next_slot: 0,
            epochs_done: 0,
            next_global_task: 0,
            started: Instant::now(),
            last_commit_seconds: 0.0,
            poisoned: None,
            pool_at_start: pool_stats(),
            obs,
            span_logs,
            coord_spans,
            commit_span_done,
        })
    }

    /// Admission-latency histogram accumulated so far (arrival →
    /// phase-2 commit) — what the `--progress` line reads mid-run.
    #[must_use]
    pub fn admission(&self) -> &LatencyHistogram {
        &self.admission
    }

    /// Total epochs a full run commits.
    #[must_use]
    pub fn total_epochs(&self) -> usize {
        self.scenario.horizon.div_ceil(self.cfg.epoch_slots)
    }

    /// Epochs committed so far.
    #[must_use]
    pub fn epochs_done(&self) -> usize {
        self.epochs_done
    }

    /// Whether every slot has been processed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.next_slot >= self.scenario.horizon
    }

    /// Digest of the global ledger right now — equal at every epoch
    /// boundary across worker counts and across kill-and-resume.
    #[must_use]
    pub fn global_digest(&self) -> u64 {
        self.global.state_digest()
    }

    /// Wall-time offset (seconds since service start) at which task `id`
    /// arrives under the open-loop generator; 0 when unpaced.
    fn arrival_offset(&self, id: TaskId) -> f64 {
        match self.cfg.open_loop_rate {
            Some(rate) if rate > 0.0 => id as f64 / rate,
            _ => 0.0,
        }
    }

    /// Runs one epoch: waits for the batch's open-loop arrivals (when
    /// paced), proposes across shards in one order-preserving parallel
    /// map, commits the op logs in shard order against the global
    /// ledger, and records admission latency for every decided task.
    ///
    /// # Errors
    /// [`ServiceError::AlreadyDone`] when called after
    /// [`AuctionService::is_done`]; [`ServiceError::WorkerPanicked`]
    /// when a shard's phase-1 worker panicked — the panic is contained
    /// on the pool, but the service is poisoned and every later call
    /// reports it again; [`ServiceError::Commit`] if a phase-2 op fails
    /// global validation (protocol invariant; cannot happen with
    /// disjoint shards).
    pub fn run_epoch(&mut self) -> Result<EpochReport, ServiceError> {
        if let Some(msg) = &self.poisoned {
            return Err(ServiceError::WorkerPanicked(msg.clone()));
        }
        if self.is_done() {
            return Err(ServiceError::AlreadyDone);
        }
        let first_slot = self.next_slot;
        let end_slot = (first_slot + self.cfg.epoch_slots).min(self.scenario.horizon);

        // Advance the open-loop generator: every task arriving inside
        // this batch must exist before the batch is proposed.
        let mut last_arrival = None;
        while self.next_global_task < self.scenario.tasks.len()
            && self.scenario.tasks[self.next_global_task].arrival < end_slot
        {
            last_arrival = Some(self.next_global_task);
            self.next_global_task += 1;
        }
        if let Some(id) = last_arrival {
            pace_until(&self.started, self.arrival_offset(id));
        }
        let epoch_entry = self.started.elapsed().as_secs_f64();
        let epoch = self.epochs_done;

        let proposed = try_parallel_map(&self.shards, |shard| {
            shard
                .lock()
                .expect("shard state poisoned by an earlier panic")
                .propose(first_slot..end_slot, epoch);
        });
        if let Err(p) = proposed {
            let msg = format!("epoch {epoch}: {p}");
            self.poisoned = Some(msg.clone());
            return Err(ServiceError::WorkerPanicked(msg));
        }

        let paced = self.cfg.open_loop_rate.is_some();
        let mut decided_total = 0usize;
        let mut ops_total = 0usize;
        let mut commit_seq = 0u64;
        let mut queue_depth = Vec::with_capacity(self.shards.len());
        for s in 0..self.shards.len() {
            // Borrow the proposal out of the shard while phase 2 mutates
            // the rest of the service, then hand the buffers back.
            let prop = std::mem::take(&mut self.shard_mut(s).proposal);
            let (d, o) = self.commit_shard(
                s,
                &prop,
                epoch,
                end_slot,
                paced,
                epoch_entry,
                &mut commit_seq,
            )?;
            decided_total += d;
            ops_total += o;
            let shard = self.shard_mut(s);
            shard.proposal = prop;
            queue_depth.push(shard.arrivals.len() - shard.next_arrival);
        }

        self.next_slot = end_slot;
        self.epochs_done += 1;
        Ok(EpochReport {
            epoch,
            first_slot,
            end_slot,
            decided: decided_total,
            ops: ops_total,
            queue_depth,
        })
    }

    /// Exclusive access to shard `s` between phase-1 maps. Only reached
    /// while the service is unpoisoned, so the lock is never poisoned.
    fn shard_mut(&mut self, s: usize) -> &mut ShardState {
        self.shards[s]
            .get_mut()
            .expect("shard state poisoned by an earlier panic")
    }

    /// Phase 2 for one shard: replays the proposal's op log against the
    /// global ledger (emitting commit spans) and records admission
    /// latency for every task the shard decided this epoch.
    #[allow(clippy::too_many_arguments)]
    fn commit_shard(
        &mut self,
        s: usize,
        prop: &Proposal,
        epoch: usize,
        end_slot: Slot,
        paced: bool,
        epoch_entry: f64,
        commit_seq: &mut u64,
    ) -> Result<(usize, usize), ServiceError> {
        for op in &prop.ops {
            // A commit span per first-time committed task, sequenced
            // by (shard order, op order) — both deterministic. A
            // recovery re-commit of an already-committed task keeps
            // its original commit span.
            if self.obs.spans {
                if let LedgerOp::Commit { task, .. } = op {
                    if !self.commit_span_done[*task] {
                        self.commit_span_done[*task] = true;
                        self.coord_spans
                            .push(Span::commit(*task, s, epoch, end_slot, *commit_seq));
                        *commit_seq += 1;
                    }
                }
            }
            self.apply_global(s, op)?;
        }
        let now = self.started.elapsed().as_secs_f64();
        self.last_commit_seconds = now;
        for &id in &prop.decided {
            let since = if paced {
                self.arrival_offset(id)
            } else {
                epoch_entry
            };
            let latency = (now - since).max(0.0);
            self.admission.record_seconds(latency);
            self.admission_seconds.push(latency);
        }
        Ok((prop.decided.len(), prop.ops.len()))
    }

    /// Replays one shard-local op against the global ledger, remapping
    /// node ids. Commits validate atomically; quarantine/degrade run the
    /// same ledger methods the shard schedulers run over identical
    /// residuals, so the global ledger tracks every shard ledger exactly.
    fn apply_global(&mut self, shard: usize, op: &LedgerOp) -> Result<(), ServiceError> {
        let base = self.map.spec(shard).node_base;
        match op {
            LedgerOp::Commit { task, schedule } => {
                let task = *task;
                let placements: Vec<(NodeId, Slot)> = schedule
                    .placements
                    .iter()
                    .map(|&(k, t)| (k + base, t))
                    .collect();
                let global_sched = Schedule::new(task, schedule.vendor, placements);
                self.global
                    .commit(&self.scenario.tasks[task], &global_sched)
                    .map_err(|error| ServiceError::Commit { task, error })
            }
            LedgerOp::Release { task, placements } => {
                let task = *task;
                let placements: Vec<(NodeId, Slot)> =
                    placements.iter().map(|&(k, t)| (k + base, t)).collect();
                self.global
                    .release_placements(&self.scenario.tasks[task], &placements)
                    .map(|_| ())
                    .map_err(|error| ServiceError::Commit { task, error })
            }
            LedgerOp::Quarantine { node, from } => {
                self.global.quarantine(*node + base, *from);
                Ok(())
            }
            LedgerOp::Lift { node } => {
                self.global.lift_quarantine(*node + base);
                Ok(())
            }
            LedgerOp::Degrade { node, from, frac } => {
                self.global.degrade(*node + base, *from, *frac);
                Ok(())
            }
        }
    }

    /// Commits every remaining epoch.
    ///
    /// # Errors
    /// Propagates the first [`AuctionService::run_epoch`] error.
    pub fn run_to_completion(&mut self) -> Result<(), ServiceError> {
        while !self.is_done() {
            self.run_epoch()?;
        }
        Ok(())
    }

    /// Settles the run: merges per-shard task states (schedules remapped
    /// to global node ids), computes refund-adjusted welfare, verifies
    /// the settled decisions against the execution engine, and checks
    /// the global ledger mirrors every shard ledger cell-for-cell.
    ///
    /// # Errors
    /// [`ServiceError::Mirror`] / [`ServiceError::Replay`] on protocol
    /// violations; [`ServiceError::WorkerPanicked`] when a shard's
    /// state was poisoned by a contained phase-1 panic; any
    /// remaining-epoch error when the run was partial.
    pub fn finish(mut self) -> Result<ServiceOutcome, ServiceError> {
        self.run_to_completion()?;
        self.verify_mirror()?;

        // Settlement is the service's last use of the shard worlds, so
        // task states and aborted tasks move out of them and have their
        // node ids remapped to global in place. Schedules stay sorted by
        // slot: the remap moves node ids only.
        let mut shards: Vec<ShardState> = std::mem::take(&mut self.shards)
            .into_iter()
            .enumerate()
            .map(|(s, m)| {
                m.into_inner()
                    .map_err(|_| ServiceError::WorkerPanicked(format!("shard {s} state poisoned")))
            })
            .collect::<Result<_, _>>()?;
        let to_global = |base: NodeId, sched: &mut Schedule| {
            for (k, _) in &mut sched.placements {
                *k += base;
            }
        };
        let mut states: Vec<TaskState> = Vec::with_capacity(self.scenario.tasks.len());
        for (id, &s) in self.routes.iter().enumerate() {
            let mut st = std::mem::replace(&mut shards[s].states[id], TaskState::Pending);
            if let TaskState::Active { schedule, .. } = &mut st {
                to_global(self.map.spec(s).node_base, schedule);
            }
            states.push(st);
        }
        let mut aborted: Vec<AbortedTask> = Vec::new();
        let mut per_shard = Vec::with_capacity(shards.len());
        let mut disrupted = 0usize;
        let mut recovered = 0usize;
        for (s, shard) in shards.iter_mut().enumerate() {
            let spec = self.map.spec(s);
            disrupted += shard.disrupted;
            recovered += shard.recovered;
            for mut a in std::mem::take(&mut shard.aborted) {
                to_global(spec.node_base, &mut a.prefix);
                aborted.push(a);
            }
            let c = &shard.pdftsp.telemetry().counters;
            per_shard.push(ShardStats {
                shard: s,
                node_base: spec.node_base,
                num_nodes: spec.num_nodes,
                routed: shard.arrivals.len(),
                decisions: c.read(&c.decisions),
                admitted: c.read(&c.admitted),
                rejected: c.read(&c.rejected_infeasible)
                    + c.read(&c.rejected_surplus)
                    + c.read(&c.rejected_capacity),
                disrupted: shard.disrupted,
                recovered: shard.recovered,
                node_failures: c.read(&c.node_failures),
                tasks_resubmitted: c.read(&c.tasks_resubmitted),
                refunds_issued: c.read(&c.refunds_issued),
                decide_p50_nanos: c.decide_latency.quantile_nanos(0.50),
                decide_p99_nanos: c.decide_latency.quantile_nanos(0.99),
                ledger_digest: shard.pdftsp.ledger().state_digest(),
            });
        }
        // Free the shard worlds before the replay check allocates.
        drop(shards);

        let (decisions, welfare) = settle(self.scenario, &states, &aborted);
        crate::timeline::replay(self.scenario, &decisions)
            .map_err(|e| ServiceError::Replay(format!("{e:?}")))?;

        // Assemble the run's trace: shard-emitted spans (propose,
        // fault_recover) in shard order, the coordinator's route/commit
        // spans, and one settle span — then a total deterministic order
        // by (sim timestamp, span id). Span ids are distinct by
        // construction, so the sort is unambiguous and the resulting
        // list is byte-stable across worker counts.
        let mut spans = std::mem::take(&mut self.coord_spans);
        for log in self.span_logs.iter().flatten() {
            spans.extend(log.drain());
        }
        if self.obs.spans {
            spans.push(Span::settle(
                self.scenario.horizon,
                self.epochs_done.saturating_sub(1),
            ));
        }
        spans.sort_by_key(|sp| (sp.ts, sp.span));

        // Pool counters are process-global lifetime totals; the delta
        // since construction is this run's share (best-effort when other
        // pool users run concurrently).
        let pool_now = pool_stats();
        Ok(ServiceOutcome {
            decisions,
            welfare,
            aborted,
            per_shard,
            disrupted,
            recovered,
            ledger_digest: self.global.state_digest(),
            epochs: self.epochs_done,
            effective_workers: effective_workers(self.map.num_shards()),
            admission: self.admission,
            admission_seconds: self.admission_seconds,
            wall_seconds: self.last_commit_seconds,
            spans,
            epochs_overlapped: 0,
            pool_tasks: pool_now.tasks.saturating_sub(self.pool_at_start.tasks),
            pool_park_ns: pool_now.park_ns.saturating_sub(self.pool_at_start.park_ns),
        })
    }

    /// The two-phase-commit consistency invariant: every global-ledger
    /// cell equals the owning shard's cell (residual compute, residual
    /// memory, quarantine flag).
    fn verify_mirror(&self) -> Result<(), ServiceError> {
        for (s, shard) in self.shards.iter().enumerate() {
            let guard = shard
                .lock()
                .map_err(|_| ServiceError::WorkerPanicked(format!("shard {s} state poisoned")))?;
            let ledger = guard.pdftsp.ledger();
            let spec = self.map.spec(s);
            for local in 0..spec.num_nodes {
                let g = spec.node_base + local;
                let quarantined_matches =
                    ledger.is_quarantined(local) == self.global.is_quarantined(g);
                for t in 0..self.scenario.horizon {
                    if !quarantined_matches
                        || ledger.residual_compute(local, t) != self.global.residual_compute(g, t)
                        || ledger.residual_memory(local, t) != self.global.residual_memory(g, t)
                    {
                        return Err(ServiceError::Mirror {
                            shard: s,
                            node: g,
                            slot: t,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Convenience: build, run every epoch, settle.
    ///
    /// # Errors
    /// See [`AuctionService::new`] and [`AuctionService::finish`].
    pub fn run(
        scenario: &Scenario,
        cfg: ServiceConfig,
        plan: &FaultPlan,
    ) -> Result<ServiceOutcome, ServiceError> {
        AuctionService::new(scenario, cfg, plan)?.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSpec;
    use pdftsp_workload::ScenarioBuilder;

    fn scenario() -> Scenario {
        ScenarioBuilder {
            horizon: 36,
            num_nodes: 6,
            seed: 23,
            ..ScenarioBuilder::smoke(23)
        }
        .build()
    }

    fn plan(sc: &Scenario) -> FaultPlan {
        FaultPlan::generate(
            sc,
            &FaultSpec {
                crashes: 3,
                outage: 3,
                degrade: 0.2,
                seed: 7,
            },
        )
    }

    fn cfg(shards: usize) -> ServiceConfig {
        ServiceConfig {
            shards,
            epoch_slots: 5,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn service_settles_and_balances() {
        let sc = scenario();
        let out = AuctionService::run(&sc, cfg(3), &plan(&sc)).unwrap();
        assert_eq!(out.decisions.len(), sc.tasks.len());
        assert_eq!(
            out.welfare.completed + out.welfare.aborted + out.welfare.rejected,
            sc.tasks.len()
        );
        assert!(
            (out.welfare.social_welfare
                - (out.welfare.user_utility + out.welfare.provider_utility))
                .abs()
                < 1e-9
        );
        assert_eq!(out.per_shard.len(), 3);
        let routed: usize = out.per_shard.iter().map(|s| s.routed).sum();
        assert_eq!(routed, sc.tasks.len());
        let nodes: usize = out.per_shard.iter().map(|s| s.num_nodes).sum();
        assert_eq!(nodes, sc.nodes.len());
        assert_eq!(out.admission_seconds.len(), sc.tasks.len());
        assert_eq!(out.admission.count(), sc.tasks.len() as u64);
        assert_eq!(out.epochs, sc.horizon.div_ceil(5));
    }

    /// Outcome of [`oracle_run`].
    struct Oracle {
        decisions: Vec<Decision>,
        welfare: FaultWelfare,
        disrupted: usize,
        recovered: usize,
        pdftsp: Pdftsp,
    }

    /// Reference per-slot fault loop: one scheduler over the whole
    /// scenario, and in every slot the plan's events, then the slot's
    /// arrivals. No routing, epochs, op log or global ledger — the
    /// independent oracle a one-shard service must reproduce.
    fn oracle_run(sc: &Scenario, config: PdftspConfig, plan: &FaultPlan) -> Oracle {
        let mut pdftsp = Pdftsp::with_telemetry(sc, config, Telemetry::disabled());
        let mut states = vec![TaskState::Pending; sc.tasks.len()];
        let mut aborted = Vec::new();
        let (mut disrupted, mut recovered) = (0, 0);
        let mut ops = Vec::new();
        let mut next_task = 0;
        for slot in 0..sc.horizon {
            for ev in plan.events.iter().filter(|e| e.slot() == slot) {
                match *ev {
                    FaultEvent::NodeUp { node, slot } => {
                        pdftsp.restore_node(node, slot);
                    }
                    FaultEvent::Degrade { node, slot, frac } => {
                        pdftsp.degrade_node(node, slot, frac);
                    }
                    FaultEvent::NodeDown { node, slot } => {
                        let (d, r) = handle_crash(
                            &mut pdftsp,
                            sc,
                            &mut states,
                            &mut aborted,
                            node,
                            slot,
                            &mut ops,
                        );
                        disrupted += d;
                        recovered += r;
                    }
                }
            }
            while next_task < sc.tasks.len() && sc.tasks[next_task].arrival == slot {
                let task = &sc.tasks[next_task];
                let decision = pdftsp.decide(task, sc);
                states[task.id] = match decision.outcome {
                    AuctionOutcome::Admitted {
                        ref schedule,
                        payment,
                    } => TaskState::Active {
                        schedule: schedule.clone(),
                        payment,
                        decide_seconds: decision.decide_seconds,
                    },
                    AuctionOutcome::Rejected(_) => TaskState::Rejected(decision),
                };
                next_task += 1;
            }
        }
        let (decisions, welfare) = settle(sc, &states, &aborted);
        Oracle {
            decisions,
            welfare,
            disrupted,
            recovered,
            pdftsp,
        }
    }

    fn welfare_bits(w: &FaultWelfare) -> Vec<u64> {
        vec![
            w.completed_bid_value.to_bits(),
            w.payments.to_bits(),
            w.refunds.to_bits(),
            w.vendor_cost.to_bits(),
            w.energy_cost.to_bits(),
            w.social_welfare.to_bits(),
            w.provider_utility.to_bits(),
            w.user_utility.to_bits(),
            w.completed as u64,
            w.aborted as u64,
            w.rejected as u64,
        ]
    }

    #[test]
    fn single_shard_service_matches_the_faulted_run_exactly() {
        // With one shard the service is the oracle's per-slot loop plus
        // the commit protocol: every decision, welfare bit and the final
        // ledger must agree, clean or faulted, for any epoch length.
        let sc = scenario();
        let mut disrupted = 0;
        for plan in [FaultPlan::none(), plan(&sc)] {
            let reference = oracle_run(&sc, PdftspConfig::default(), &plan);
            disrupted += reference.disrupted;
            for epoch_slots in [1, 5, sc.horizon] {
                let cfg = ServiceConfig {
                    epoch_slots,
                    ..cfg(1)
                };
                let out = AuctionService::run(&sc, cfg, &plan).unwrap();
                let at = format!("{} events, {epoch_slots} slots/epoch", plan.events.len());
                assert_eq!(out.decisions.len(), reference.decisions.len(), "{at}");
                for (got, want) in out.decisions.iter().zip(&reference.decisions) {
                    assert_eq!(got.task, want.task, "{at}");
                    assert_eq!(got.outcome, want.outcome, "{at}: task {}", got.task);
                    assert_eq!(got.payment().to_bits(), want.payment().to_bits(), "{at}");
                }
                assert_eq!(
                    welfare_bits(&out.welfare),
                    welfare_bits(&reference.welfare),
                    "{at}"
                );
                assert_eq!(out.disrupted, reference.disrupted, "{at}");
                assert_eq!(out.recovered, reference.recovered, "{at}");
                assert_eq!(
                    out.ledger_digest,
                    reference.pdftsp.ledger().state_digest(),
                    "{at}"
                );
            }
        }
        assert!(disrupted > 0, "the faulted plan must disrupt someone");
    }

    #[test]
    fn faulted_run_settles_and_balances() {
        let sc = ScenarioBuilder::smoke(31).build();
        let spec = FaultSpec {
            crashes: 3,
            outage: 4,
            degrade: 0.0,
            seed: 17,
        };
        let plan = FaultPlan::generate(&sc, &spec);
        let r = AuctionService::run(&sc, cfg(1), &plan).unwrap();
        assert_eq!(r.decisions.len(), sc.tasks.len());
        assert_eq!(
            r.welfare.completed + r.welfare.aborted + r.welfare.rejected,
            sc.tasks.len()
        );
        // Welfare identity under refunds.
        assert!(
            (r.welfare.social_welfare - (r.welfare.user_utility + r.welfare.provider_utility))
                .abs()
                < 1e-9
        );
        // Per-abort settlement: refund + consumed = original charge ≥ 0.
        for a in &r.aborted {
            assert!(a.refund >= 0.0 && a.consumed >= 0.0, "task {}", a.task);
        }
        let downs = plan
            .events
            .iter()
            .filter(|e| matches!(e, FaultEvent::NodeDown { .. }))
            .count();
        let shard = &r.per_shard[0];
        assert_eq!(shard.node_failures as usize, downs);
        assert!(shard.tasks_resubmitted >= r.aborted.len() as u64);
    }

    #[test]
    fn epoch_stepping_equals_one_shot_run() {
        let sc = scenario();
        let plan = plan(&sc);
        let mut svc = AuctionService::new(&sc, cfg(2), &plan).unwrap();
        let mut reports = Vec::new();
        while !svc.is_done() {
            reports.push(svc.run_epoch().unwrap());
        }
        let decided: usize = reports.iter().map(|r| r.decided).sum();
        assert_eq!(decided, sc.tasks.len());
        let stepped = svc.finish().unwrap();
        let oneshot = AuctionService::run(&sc, cfg(2), &plan).unwrap();
        assert_eq!(
            stepped.welfare.social_welfare.to_bits(),
            oneshot.welfare.social_welfare.to_bits()
        );
        assert_eq!(stepped.ledger_digest, oneshot.ledger_digest);
    }

    #[test]
    fn run_epoch_after_completion_is_already_done() {
        let sc = scenario();
        let plan = plan(&sc);
        let mut svc = AuctionService::new(&sc, cfg(2), &plan).unwrap();
        svc.run_to_completion().unwrap();
        assert!(matches!(svc.run_epoch(), Err(ServiceError::AlreadyDone)));
        // The error is non-destructive: settlement still works.
        svc.finish().unwrap();
    }

    #[test]
    fn too_many_shards_is_an_error() {
        let sc = scenario();
        assert!(matches!(
            AuctionService::run(&sc, cfg(sc.nodes.len() + 1), &plan(&sc)),
            Err(ServiceError::Shard(ShardError::TooFewItems { .. }))
        ));
        let bad_epoch = ServiceConfig {
            epoch_slots: 0,
            ..cfg(2)
        };
        assert!(matches!(
            AuctionService::run(&sc, bad_epoch, &plan(&sc)),
            Err(ServiceError::ZeroEpoch)
        ));
    }

    #[test]
    fn malformed_fault_plans_are_typed_errors() {
        let sc = scenario();
        let nodes = sc.nodes.len();
        let off_cluster = FaultPlan {
            events: vec![FaultEvent::NodeDown {
                node: nodes,
                slot: 3,
            }],
        };
        assert!(matches!(
            AuctionService::new(&sc, cfg(2), &off_cluster),
            Err(ServiceError::FaultNodeOutOfRange { index: 0, node, nodes: n })
                if node == nodes && n == nodes
        ));
        // Slot 9 before slot 4: the oracle loop applies both, a
        // shard cursor would skip the second.
        let unsorted = FaultPlan {
            events: vec![
                FaultEvent::NodeDown { node: 0, slot: 9 },
                FaultEvent::NodeDown { node: 1, slot: 4 },
            ],
        };
        assert!(matches!(
            AuctionService::new(&sc, cfg(2), &unsorted),
            Err(ServiceError::FaultPlanUnsorted { index: 1 })
        ));
        // Equal keys are in order: a plan may repeat an event.
        let repeated = FaultPlan {
            events: vec![
                FaultEvent::Degrade {
                    node: 0,
                    slot: 2,
                    frac: 0.1,
                };
                2
            ],
        };
        AuctionService::run(&sc, cfg(2), &repeated).unwrap();
        // A degradation must reserve a fraction in [0, 1]; NaN would
        // otherwise reserve every residual byte of adapter memory.
        for frac in [f64::NAN, f64::INFINITY, -0.1, 1.5] {
            let bad = FaultPlan {
                events: vec![
                    FaultEvent::Degrade {
                        node: 0,
                        slot: 2,
                        frac: 0.1,
                    },
                    FaultEvent::Degrade {
                        node: 1,
                        slot: 2,
                        frac,
                    },
                ],
            };
            assert!(
                matches!(
                    AuctionService::new(&sc, cfg(2), &bad),
                    Err(ServiceError::FaultFracInvalid { index: 1 })
                ),
                "frac {frac} was accepted"
            );
        }
    }

    /// Shard `spec`'s scenario with *every* task's rate row and quote
    /// list: the oracle the service's routed-only carve must match on
    /// everything a shard reads.
    fn full_carve(sc: &Scenario, spec: ShardSpec) -> Scenario {
        let (lo, hi) = (spec.node_base, spec.node_base + spec.num_nodes);
        let mut nodes = sc.nodes[lo..hi].to_vec();
        for (local, n) in nodes.iter_mut().enumerate() {
            n.id = local;
        }
        let mut tasks = sc.tasks.clone();
        for t in &mut tasks {
            t.rates = t.rates[lo..hi].to_vec();
        }
        let prices = (lo..hi)
            .flat_map(|k| sc.cost.prices_row(k).iter().copied())
            .collect();
        Scenario {
            horizon: sc.horizon,
            base_model_gb: sc.base_model_gb,
            nodes,
            tasks,
            quotes: sc.quotes.clone(),
            cost: CostGrid::from_vec(spec.num_nodes, sc.horizon, prices).unwrap(),
        }
    }

    #[test]
    fn shards_carve_rates_and_quotes_of_routed_tasks_only() {
        // Heavy enough arrivals that pre-heat seeds nonzero prices, and
        // every other bidder budget-capped.
        let mut sc = ScenarioBuilder {
            horizon: 36,
            num_nodes: 6,
            arrivals: pdftsp_workload::ArrivalProcess::Poisson {
                mean_per_slot: 12.0,
            },
            ..ScenarioBuilder::smoke(29)
        }
        .build();
        for t in sc.tasks.iter_mut().step_by(2) {
            t.budget = Some(0.8 * t.bid);
        }
        let scheduler = PdftspConfig {
            preheat: Some(pdftsp_core::PreheatSpec {
                lookahead: 6,
                gain: 1.0,
            }),
            ..PdftspConfig::default()
        };
        assert!(sc.quotes.iter().any(|q| !q.is_empty()));
        for shards in [2, 3] {
            let cfg = ServiceConfig {
                scheduler,
                ..cfg(shards)
            };
            let svc = AuctionService::new(&sc, cfg, &FaultPlan::none()).unwrap();
            let mut seeded = false;
            for (s, m) in svc.shards.iter().enumerate() {
                let shard = m.lock().unwrap();
                let spec = svc.map.spec(s);
                let (lo, hi) = (spec.node_base, spec.node_base + spec.num_nodes);
                assert_eq!(shard.scenario.tasks.len(), sc.tasks.len());
                for (id, t) in sc.tasks.iter().enumerate() {
                    let carved = &shard.scenario.tasks[id];
                    assert_eq!(carved.budget, t.budget);
                    assert_eq!(carved.work, t.work);
                    if svc.routes[id] == s {
                        assert_eq!(carved.rates, t.rates[lo..hi], "shard {s} task {id}");
                        assert_eq!(shard.scenario.quotes[id], sc.quotes[id]);
                    } else {
                        assert!(carved.rates.is_empty(), "shard {s} task {id}");
                        assert!(shard.scenario.quotes[id].is_empty());
                    }
                }
                let oracle = Pdftsp::with_telemetry(
                    &full_carve(&sc, spec),
                    scheduler,
                    Telemetry::disabled(),
                );
                let (got, want) = (shard.pdftsp.duals(), oracle.duals());
                for k in 0..spec.num_nodes {
                    let bits = |row: &[f64]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(got.lambda_row(k)), bits(want.lambda_row(k)));
                    assert_eq!(bits(got.phi_row(k)), bits(want.phi_row(k)));
                    seeded |= want.lambda_row(k).iter().any(|&x| x > 0.0);
                }
            }
            assert!(seeded, "pre-heat seeded no price; the check is vacuous");
        }
    }
}
