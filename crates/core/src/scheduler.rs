//! Algorithm 1: the online task scheduling and pricing loop.
//!
//! Per arriving task `i`:
//!
//! 1. collect the vendor quotes `{q_in, h_in}` when `f_i = 1`;
//! 2. run Algorithm 2 ([`crate::dp::find_schedule`]) once per candidate
//!    vendor (or once with no vendor) and keep the schedule maximizing the
//!    surplus `F(il)` of Eq. (10);
//! 3. if `F(il) > 0`, update the duals per Eqs. (7)–(8) and set
//!    `μ_i = F(il)` (Eq. 11);
//! 4. check residual capacity (line 8): admit and commit when every chosen
//!    `(k, t)` still fits, otherwise reject (the Almost-Feasible →
//!    Feasible conversion of Lemma 1);
//! 5. charge the payment of Eq. (14) computed with the *pre-update* duals.

use crate::config::{AlphaBeta, CapacityPolicy, EvalPipeline, PdftspConfig};
use crate::dp::{find_schedule_on_grid, find_schedule_reference, DpContext, DpResult, EvalScratch};
use crate::duals::DualState;
use crate::kernel::KernelDispatch;
use crate::pricing::payment;
use pdftsp_cluster::{CapacityLedger, LedgerError, Released};
use pdftsp_telemetry::{Event, Reason, Span, Telemetry};
use pdftsp_types::{
    Decision, OnlineScheduler, Rejection, Scenario, Schedule, Slot, SlotOutcome, Task, TaskId,
    VendorQuote,
};
use std::sync::Mutex;
use std::time::Instant;

/// Per-task auction bookkeeping (drives Figs. 10–11, welfare reports,
/// and the theory audit of [`crate::analysis`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AuctionRecord {
    /// Task id.
    pub task: TaskId,
    /// Declared bid `b_i`.
    pub bid: f64,
    /// Best surplus `F(il)` found (`None` when no feasible schedule).
    pub f_value: Option<f64>,
    /// Welfare increment `b_il` of the selected schedule (`None` when no
    /// feasible schedule).
    pub welfare_increment: Option<f64>,
    /// Payment `p_i` (0 unless admitted).
    pub payment: f64,
    /// Whether the bid won.
    pub admitted: bool,
    /// `F(il) > 0` but residual capacity refused the schedule — the task
    /// is in Lemma 1's almost-feasible set `S_a` but not in `S_c`.
    pub capacity_rejected: bool,
    /// `max λ^{(i-1)}` over the selected schedule at decision time (0 when
    /// no feasible schedule). Snapshotted so a later partial-failure
    /// refund can re-run the Eq. (14) charge over just the executed prefix
    /// with the *same* prices the buyer was originally quoted.
    pub max_lambda: f64,
    /// `max φ^{(i-1)}` at decision time (0 when no feasible schedule).
    pub max_phi: f64,
}

/// A schedule candidate with its admission economics.
#[derive(Debug, Clone)]
pub(crate) struct Candidate {
    pub schedule: Schedule,
    /// `b_il = b_i − q_in − Σ e`.
    pub b_il: f64,
    /// `F(il)` per Eq. (10).
    pub f_value: f64,
    /// `max λ^{(i-1)}` over the schedule (for pricing).
    pub max_lambda: f64,
    /// `max φ^{(i-1)}` over the schedule (for pricing).
    pub max_phi: f64,
    /// `Σ e_ikt`.
    pub energy: f64,
}

/// What one arrival's evaluation produced.
pub(crate) struct EvalOutcome {
    /// The surplus-maximizing candidate, if any vendor was worth a DP.
    pub best: Option<Candidate>,
    /// At least one vendor was skipped by the admission bound. The skip
    /// proves that vendor's `F(il) ≤ 0`, so when `best` is also `None`
    /// the task is rejected for non-positive surplus without ever running
    /// a DP.
    pub pruned: bool,
}

/// The pdFTSP online scheduler (auctioneer).
///
/// ```
/// use pdftsp_core::{Pdftsp, PdftspConfig};
/// use pdftsp_types::{CostGrid, GpuModel, NodeSpec, Scenario, TaskBuilder};
///
/// let scenario = Scenario {
///     horizon: 8,
///     base_model_gb: 1.3,
///     nodes: vec![NodeSpec::new(0, GpuModel::A100_80, 10_000)],
///     tasks: vec![TaskBuilder::new(0, 0, 7)
///         .dataset(6_000)
///         .bid(20.0)
///         .memory_gb(4.0)
///         .rates(vec![3_000])
///         .build()
///         .unwrap()],
///     quotes: vec![vec![]],
///     cost: CostGrid::flat(1, 8, 0.2),
/// };
/// let mut auctioneer = Pdftsp::new(&scenario, PdftspConfig::default());
/// let decision = auctioneer.decide(&scenario.tasks[0], &scenario);
/// assert!(decision.is_admitted());
/// // The winner pays at most its bid (individual rationality).
/// assert!(decision.payment() <= 20.0);
/// ```
pub struct Pdftsp {
    config: PdftspConfig,
    duals: DualState,
    ledger: CapacityLedger,
    alpha: f64,
    beta: f64,
    records: Vec<AuctionRecord>,
    /// Reusable per-arrival work area (delta grid + DP arena). Behind a
    /// mutex only so `evaluate` can stay `&self` (the probes of
    /// [`crate::probe`] run against shared scheduler references, possibly
    /// from a parallel sweep); the online loop itself is single-threaded
    /// per scheduler, so the lock is always uncontended.
    scratch: Mutex<EvalScratch>,
    /// The resolved DP row kernel ([`PdftspConfig::kernel`], resolved
    /// once).
    kernel: KernelDispatch,
    /// Observability: typed event stream + always-on counters. Defaults to
    /// [`Telemetry::disabled`] (no-op sink), where emission is one cached
    /// branch per site — the overhead-guard bench proves it stays under 2%
    /// of the decide path.
    telemetry: Telemetry,
}

impl Pdftsp {
    /// Creates a scheduler for `scenario` with telemetry disabled.
    #[must_use]
    pub fn new(scenario: &Scenario, config: PdftspConfig) -> Self {
        Pdftsp::with_telemetry(scenario, config, Telemetry::disabled())
    }

    /// Creates a scheduler whose events flow into `telemetry`'s sink (its
    /// counters run regardless).
    #[must_use]
    pub fn with_telemetry(scenario: &Scenario, config: PdftspConfig, telemetry: Telemetry) -> Self {
        let (alpha, beta) = match config.alpha_beta {
            AlphaBeta::Fixed { alpha, beta } => (alpha, beta),
            AlphaBeta::RunningMax {
                floor_alpha,
                floor_beta,
            } => (floor_alpha, floor_beta),
        };
        let kernel = config.kernel.resolve();
        let mut duals = DualState::new(scenario, config.compute_unit);
        if let Some(spec) = &config.preheat {
            // Prediction-driven pre-heating: seed prices where the
            // forecast says demand will outrun capacity. Pure function
            // of the scenario, so sharded replicas agree bit-for-bit.
            duals.preheat(scenario, config.compute_unit, spec);
        }
        Pdftsp {
            config,
            duals,
            ledger: CapacityLedger::new(scenario),
            alpha,
            beta,
            records: Vec::new(),
            scratch: Mutex::new(EvalScratch::with_kernel(kernel)),
            telemetry,
            kernel,
        }
    }

    /// [`Pdftsp::with_telemetry`]; the worker count is ignored. Kept only
    /// because the `benchmark/` package calls it; it goes with the next
    /// change to that package.
    #[must_use]
    pub fn with_workers(
        scenario: &Scenario,
        config: PdftspConfig,
        telemetry: Telemetry,
        _workers: usize,
    ) -> Self {
        Pdftsp::with_telemetry(scenario, config, telemetry)
    }

    /// The DP row kernel this scheduler resolved at construction.
    #[must_use]
    pub fn kernel(&self) -> KernelDispatch {
        self.kernel
    }

    /// The configuration this scheduler runs with.
    #[must_use]
    pub fn config(&self) -> &PdftspConfig {
        &self.config
    }

    /// Current `α` (after running-max updates so far).
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Current `β`.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Read access to the dual prices (instrumentation).
    #[must_use]
    pub fn duals(&self) -> &DualState {
        &self.duals
    }

    /// Read access to the capacity ledger (instrumentation).
    #[must_use]
    pub fn ledger(&self) -> &CapacityLedger {
        &self.ledger
    }

    /// The auction log so far.
    #[must_use]
    pub fn records(&self) -> &[AuctionRecord] {
        &self.records
    }

    /// The telemetry handle (events + hot-path counters).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Evaluates the best schedule for `task` against the current prices
    /// without mutating any state.
    pub(crate) fn evaluate(&self, task: &Task, scenario: &Scenario) -> EvalOutcome {
        let ctx = DpContext {
            scenario,
            duals: &self.duals,
            ledger: match self.config.capacity_policy {
                CapacityPolicy::RejectOnOverflow => None,
                CapacityPolicy::MaskSaturated => Some(&self.ledger),
            },
            compute_unit: self.config.compute_unit,
            telemetry: Some(&self.telemetry),
        };
        let no_vendor = [VendorQuote::none()];
        let quotes: &[VendorQuote] = if task.needs_preprocessing {
            &scenario.quotes[task.id]
        } else {
            &no_vendor
        };
        match self.config.pipeline {
            EvalPipeline::Reference => self.evaluate_reference(&ctx, task, quotes),
            EvalPipeline::Optimized => self.evaluate_optimized(&ctx, task, quotes),
        }
    }

    /// Packages a vendor's DP result into a [`Candidate`] — the exact
    /// `F(il)` of Eq. (10). Shared by both pipelines so their admission
    /// arithmetic is the same code.
    fn candidate_from(&self, task: &Task, quote: VendorQuote, dp: DpResult) -> Candidate {
        let schedule = Schedule::new(task.id, quote, dp.placements);
        let b_il = task.bid - quote.price - dp.energy;
        let max_lambda = self.duals.max_lambda(&schedule.placements);
        let max_phi = self.duals.max_phi(&schedule.placements);
        let compute_units = schedule.total_compute(task) as f64 / self.config.compute_unit;
        let memory = schedule.total_memory(task);
        let f_value = b_il - max_lambda * compute_units - max_phi * memory;
        Candidate {
            schedule,
            b_il,
            f_value,
            max_lambda,
            max_phi,
            energy: dp.energy,
        }
    }

    /// The straight-line pipeline: one full reference DP per vendor.
    fn evaluate_reference(
        &self,
        ctx: &DpContext<'_>,
        task: &Task,
        quotes: &[VendorQuote],
    ) -> EvalOutcome {
        let counters = &self.telemetry.counters;
        counters.bump(&counters.vendors_seen, quotes.len() as u64);
        let mut best: Option<Candidate> = None;
        for &quote in quotes {
            let start = task.arrival + quote.delay;
            let Some(dp) = find_schedule_reference(ctx, task, start) else {
                continue;
            };
            let cand = self.candidate_from(task, quote, dp);
            if best.as_ref().is_none_or(|b| cand.f_value > b.f_value) {
                best = Some(cand);
            }
        }
        EvalOutcome {
            best,
            pruned: false,
        }
    }

    /// The grid pipeline: build the shared delta grid once, bound every
    /// vendor cheaply, then run DPs only for vendors that could still win.
    fn evaluate_optimized(
        &self,
        ctx: &DpContext<'_>,
        task: &Task,
        quotes: &[VendorQuote],
    ) -> EvalOutcome {
        let mut guard = self.scratch.lock().expect("scratch mutex poisoned");
        let scratch = &mut *guard;
        scratch.grid.build(ctx, task, task.arrival);
        if scratch.grid.is_unusable() {
            return EvalOutcome {
                best: None,
                pruned: false,
            };
        }
        // Cheap per-vendor pass: certain infeasibility and the surplus
        // upper bound `F(il) ≤ b_i − q_in − lower_bound(dp_cost)`.
        let counters = &self.telemetry.counters;
        counters.bump(&counters.vendors_seen, quotes.len() as u64);
        let mut plans: Vec<(VendorQuote, Slot, f64)> = Vec::with_capacity(quotes.len());
        let mut pruned = false;
        for &quote in quotes {
            let start = task.arrival + quote.delay;
            let Some(lb) =
                scratch
                    .grid
                    .cost_lower_bound(task, start, &mut scratch.bufs.col_scratch)
            else {
                continue; // provably infeasible — the reference DP agrees
            };
            let upper = task.bid - quote.price - lb;
            if upper <= 0.0 {
                pruned = true; // F(il) ≤ 0 proven without a DP
                counters.bump(&counters.vendors_pruned, 1);
                self.telemetry.emit(|| Event::VendorPruned {
                    task: task.id,
                    vendor: quote.vendor,
                    bound: upper,
                });
                continue;
            }
            plans.push((quote, start, upper));
        }

        let mut best: Option<Candidate> = None;
        if let [(quote, start, _)] = plans[..] {
            // Single survivor: no ordering or memo bookkeeping to pay for.
            if let Some(dp) =
                find_schedule_on_grid(ctx, task, start, &scratch.grid, &mut scratch.bufs)
            {
                best = Some(self.candidate_from(task, quote, dp));
            }
        } else {
            // Sequential: visit vendors in descending upper-bound order so
            // the strongest candidate is usually found first and the rest
            // are skipped by the incumbent test. The reference resolves
            // `F(il)` ties in favour of the earliest quote, so order
            // changes must not change the winner: the skip fires on a tie
            // only against a *later* quote, and the replacement test
            // prefers the earlier quote on exactly-equal `F(il)`.
            let mut order: Vec<usize> = (0..plans.len()).collect();
            order.sort_unstable_by(|&a, &b| plans[b].2.total_cmp(&plans[a].2).then(a.cmp(&b)));
            let mut memo: Vec<(Slot, Option<DpResult>)> = Vec::with_capacity(plans.len());
            let mut best_at: usize = usize::MAX;
            for &pi in &order {
                let (quote, start, upper) = plans[pi];
                if let Some(b) = &best {
                    if upper < b.f_value || (upper == b.f_value && pi > best_at) {
                        // Provably cannot displace the incumbent — a
                        // bound-based discharge, counted with the prunes
                        // (no event: F(il) ≤ 0 was not proven).
                        counters.bump(&counters.vendors_pruned, 1);
                        continue;
                    }
                }
                // Vendors with equal delay share one DP (same start, same
                // grid slice ⇒ bit-identical result).
                let dp = match memo.iter().find(|&&(s, _)| s == start) {
                    Some((_, cached)) => {
                        counters.bump(&counters.vendors_memoized, 1);
                        cached.clone()
                    }
                    None => {
                        let r = find_schedule_on_grid(
                            ctx,
                            task,
                            start,
                            &scratch.grid,
                            &mut scratch.bufs,
                        );
                        memo.push((start, r.clone()));
                        r
                    }
                };
                let Some(dp) = dp else { continue };
                let cand = self.candidate_from(task, quote, dp);
                let wins = match &best {
                    None => true,
                    Some(b) => {
                        cand.f_value > b.f_value || (cand.f_value == b.f_value && pi < best_at)
                    }
                };
                if wins {
                    best = Some(cand);
                    best_at = pi;
                }
            }
        }
        EvalOutcome { best, pruned }
    }

    /// Appends one auction-log entry (all four decision outcomes funnel
    /// through here).
    fn push_record(
        &mut self,
        task: &Task,
        cand: Option<&Candidate>,
        payment: f64,
        admitted: bool,
        capacity_rejected: bool,
    ) {
        self.records.push(AuctionRecord {
            task: task.id,
            bid: task.bid,
            f_value: cand.map(|c| c.f_value),
            welfare_increment: cand.map(|c| c.b_il),
            payment,
            admitted,
            capacity_rejected,
            max_lambda: cand.map_or(0.0, |c| c.max_lambda),
            max_phi: cand.map_or(0.0, |c| c.max_phi),
        });
    }

    /// Records the end of one `decide()` call in the counters (and, for
    /// rejections, the event stream; admissions emit separately because
    /// the event borrows the winning candidate).
    fn finish_decide(&self, task: &Task, t0: Instant, reject: Option<Reason>) -> f64 {
        let secs = t0.elapsed().as_secs_f64();
        let c = &self.telemetry.counters;
        c.decide_latency.record_seconds(secs);
        // One `propose` span per decide (admitted or not), timestamped on
        // the sim clock by the arrival slot plus a per-slot sequence —
        // never the wall clock, so traces are worker-count invariant.
        // Suppressed while a crash-recovery resubmission re-enters
        // `decide()`: the remnant's detour is covered by its
        // `fault_recover` span instead of a colliding duplicate.
        if self.telemetry.is_enabled() && !self.telemetry.spans.suppressed() {
            self.telemetry.emit(|| {
                let ctx = &self.telemetry.spans;
                Event::Span(Span::propose(
                    task.id,
                    ctx.shard(),
                    ctx.epoch(),
                    ctx.next_propose_ts(task.arrival),
                ))
            });
        }
        match reject {
            None => c.bump(&c.admitted, 1),
            Some(reason) => {
                match reason {
                    Reason::NoFeasibleSchedule => c.bump(&c.rejected_infeasible, 1),
                    Reason::NonPositiveSurplus => c.bump(&c.rejected_surplus, 1),
                    Reason::InsufficientCapacity => c.bump(&c.rejected_capacity, 1),
                }
                self.telemetry.emit(|| Event::Rejected {
                    task: task.id,
                    reason,
                });
            }
        }
        secs
    }

    /// Handles one arriving task: the body of Algorithm 1's loop.
    pub fn decide(&mut self, task: &Task, scenario: &Scenario) -> Decision {
        let t0 = Instant::now();
        let counters = &self.telemetry.counters;
        counters.bump(&counters.decisions, 1);
        self.telemetry.emit(|| Event::ArrivalSeen {
            task: task.id,
            slot: task.arrival,
            bid: task.bid,
            vendors: if task.needs_preprocessing {
                scenario.quotes[task.id].len()
            } else {
                0
            },
        });

        // Running-max α/β estimation, updated on every arrival:
        // α = max b_i/M_i (Lemma 2, in pricing units); β is normalized by
        // the task's full memory footprint r_i·ℓ_i rather than Lemma 2's
        // single-slot r_i — see `AlphaBeta::RunningMax` for why.
        if let AlphaBeta::RunningMax { .. } = self.config.alpha_beta {
            let m_units = task.work as f64 / self.config.compute_unit;
            if m_units > 0.0 {
                self.alpha = self.alpha.max(task.bid / m_units);
            }
            let min_slots = task
                .rates
                .iter()
                .filter(|&&s| s > 0)
                .map(|&s| task.work.div_ceil(s))
                .min()
                .unwrap_or(1)
                .max(1);
            let footprint = task.memory_gb * min_slots as f64;
            if footprint > 0.0 {
                self.beta = self.beta.max(task.bid / footprint);
            }
        }

        let outcome = self.evaluate(task, scenario);
        let Some(cand) = outcome.best else {
            self.push_record(task, None, 0.0, false, false);
            // With no candidate but at least one pruned vendor, that
            // vendor's F(il) ≤ 0 was proven without a DP: reject for
            // non-positive surplus, like the reference would (its exact
            // F(il) is simply not in the record).
            let (reason, ev_reason) = if outcome.pruned {
                (Rejection::NonPositiveSurplus, Reason::NonPositiveSurplus)
            } else {
                (Rejection::NoFeasibleSchedule, Reason::NoFeasibleSchedule)
            };
            let secs = self.finish_decide(task, t0, Some(ev_reason));
            return Decision::rejected(task.id, reason, secs);
        };

        if cand.f_value <= 0.0 {
            self.push_record(task, Some(&cand), 0.0, false, false);
            let secs = self.finish_decide(task, t0, Some(Reason::NonPositiveSurplus));
            return Decision::rejected(task.id, Rejection::NonPositiveSurplus, secs);
        }

        // F(il) > 0: dual update happens before the capacity check
        // (Algorithm 1 lines 6–8). Payment uses the pre-update duals.
        let p = payment(
            self.config.pricing,
            task,
            &cand.schedule,
            cand.max_lambda,
            cand.max_phi,
            self.config.compute_unit,
            cand.energy,
        );
        // Budget-capped bidders (spot market): a payment beyond the
        // bidder's remaining budget makes the trade non-executable, so
        // reject before any dual or ledger state is touched — exactly
        // like a non-positive-surplus loser, the auction is left as if
        // the bid never won. Payment uses pre-update duals, so the
        // check is bid-independent for winners (truthfulness intact).
        if let Some(budget) = task.budget {
            if p > budget {
                self.push_record(task, Some(&cand), 0.0, false, false);
                let secs = self.finish_decide(task, t0, Some(Reason::NonPositiveSurplus));
                return Decision::rejected(task.id, Rejection::BudgetExceeded, secs);
            }
        }

        let b_bar = cand.schedule.welfare_density(task, &scenario.cost);
        // welfare_density divides by raw samples; re-derive in pricing
        // units so b̄ matches the scaled arithmetic of Eqs. (7)-(8).
        let denom = cand.schedule.total_compute(task) as f64 / self.config.compute_unit
            + cand.schedule.total_memory(task);
        let b_bar = if denom > 0.0 {
            cand.b_il / denom
        } else {
            b_bar
        };
        self.duals.add_mu(cand.f_value.max(0.0));
        self.duals.update_logged(
            task,
            &cand.schedule,
            b_bar,
            self.config.seed_damping * self.alpha,
            self.config.seed_damping * self.beta,
            self.config.compute_unit,
            self.config.dual_rule,
            Some(&self.telemetry),
        );

        if self.ledger.fits_schedule(task, &cand.schedule) {
            self.ledger
                .commit(task, &cand.schedule)
                .expect("fits_schedule checked");
            self.push_record(task, Some(&cand), p, true, false);
            let secs = self.finish_decide(task, t0, None);
            self.telemetry.emit(|| Event::Admitted {
                task: task.id,
                surplus: cand.f_value,
                payment: p,
                placements: cand.schedule.placements.len(),
            });
            Decision::admitted(task.id, cand.schedule, p, secs)
        } else {
            self.push_record(task, Some(&cand), 0.0, false, true);
            let secs = self.finish_decide(task, t0, Some(Reason::InsufficientCapacity));
            Decision::rejected(task.id, Rejection::InsufficientCapacity, secs)
        }
    }

    // ------------------------------------------------------------------
    // Fault-recovery surface. The fault driver (`pdftsp-sim::faults`)
    // calls these between arrivals; none of them run on the clean path.
    // ------------------------------------------------------------------

    /// Returns `task`'s resources on `placements` to the pool — the
    /// not-yet-executed suffix of a schedule disrupted by a node failure.
    ///
    /// # Errors
    /// Propagates the ledger's atomic validation (releasing cells that
    /// were never committed is refused).
    pub fn release_placements(
        &mut self,
        task: &Task,
        placements: &[(usize, Slot)],
    ) -> Result<Released, LedgerError> {
        self.ledger.release_placements(task, placements)
    }

    /// Marks node `k` as failed from `from` on: its residual capacity is
    /// quarantined so the DP and admission checks stop offering it.
    /// Release disrupted schedules *before* calling this, so their freed
    /// capacity is captured inside the quarantine hold.
    ///
    /// Returns `false` when `k` is out of range or already down.
    pub fn quarantine_node(&mut self, k: usize, from: Slot) -> bool {
        if !self.ledger.quarantine(k, from) {
            return false;
        }
        let c = &self.telemetry.counters;
        c.bump(&c.node_failures, 1);
        self.telemetry.emit(|| Event::NodeDown {
            node: k,
            slot: from,
        });
        true
    }

    /// Brings a failed node back at `slot`: the quarantine hold is
    /// returned exactly, so every cell offers what it did when the node
    /// went down (minus anything still committed from before the crash).
    ///
    /// Returns `false` when `k` was not quarantined.
    pub fn restore_node(&mut self, k: usize, slot: Slot) -> bool {
        if !self.ledger.lift_quarantine(k) {
            return false;
        }
        let c = &self.telemetry.counters;
        c.bump(&c.node_recoveries, 1);
        self.telemetry.emit(|| Event::NodeUp { node: k, slot });
        true
    }

    /// Degrades node `k` from slot `from` on ([`CapacityLedger::degrade`]):
    /// up to `frac` of each cell's total capacity is reserved out of the
    /// residual, shrinking what future admissions can use. Already-
    /// committed work is untouched — degradation throttles the future,
    /// it does not evict the present. Returns the total `(samples, GB)`
    /// actually reserved.
    pub fn degrade_node(&mut self, k: usize, from: Slot, frac: f64) -> (u64, f64) {
        self.ledger.degrade(k, from, frac)
    }

    /// Re-runs the Algorithm 1 auction for a disrupted task's remnant
    /// (remaining work repackaged as a fresh task with the same id): the
    /// Algorithm 2 DP under the *current* duals `λ/φ`, the Eq. (10)
    /// admission test, dual updates and capacity commit — exactly the
    /// clean-path `decide`, plus recovery telemetry. `fail_slot` is the
    /// slot of the failure that disrupted the original schedule.
    pub fn resubmit(&mut self, remnant: &Task, scenario: &Scenario, fail_slot: Slot) -> Decision {
        // Suppress the propose span for the inner decide: the remnant
        // shares its task id with the original admission, and its detour
        // through recovery is already covered by the `fault_recover`
        // span; a second propose span would collide with the first.
        self.telemetry.spans.set_suppressed(true);
        let decision = self.decide(remnant, scenario);
        self.telemetry.spans.set_suppressed(false);
        let c = &self.telemetry.counters;
        c.bump(&c.tasks_resubmitted, 1);
        if decision.is_admitted() {
            c.bump(&c.recoveries_admitted, 1);
        }
        self.telemetry.emit(|| Event::TaskResubmitted {
            task: remnant.id,
            slot: fail_slot,
            remaining_work: remnant.work,
            admitted: decision.is_admitted(),
        });
        decision
    }

    /// Settles an unrecoverable disrupted task: the buyer keeps paying
    /// only for consumed resources — Eq. (14) re-evaluated over the
    /// executed `prefix` with the duals snapshotted at the original
    /// admission — and is refunded the rest of the original payment.
    /// `prefix_energy` is the operational cost of the executed slots.
    ///
    /// Returns `(refund, consumed)`, or `None` when `task` has no
    /// admitted auction record (nothing was ever charged).
    pub fn issue_refund(
        &mut self,
        task: &Task,
        fail_slot: Slot,
        prefix: &Schedule,
        prefix_energy: f64,
    ) -> Option<(f64, f64)> {
        let rec = self
            .records
            .iter()
            .find(|r| r.task == task.id && r.admitted)?;
        let charged = rec.payment;
        let consumed = payment(
            self.config.pricing,
            task,
            prefix,
            rec.max_lambda,
            rec.max_phi,
            self.config.compute_unit,
            prefix_energy,
        )
        .clamp(0.0, charged);
        let refund = charged - consumed;
        let c = &self.telemetry.counters;
        c.bump(&c.refunds_issued, 1);
        self.telemetry.emit(|| Event::RefundIssued {
            task: task.id,
            slot: fail_slot,
            refund,
            consumed,
        });
        Some((refund, consumed))
    }
}

impl OnlineScheduler for Pdftsp {
    fn name(&self) -> &'static str {
        match self.config.pipeline {
            EvalPipeline::Optimized => "pdFTSP",
            EvalPipeline::Reference => "pdFTSP-ref",
        }
    }

    fn on_slot(&mut self, _slot: Slot, arrivals: &[&Task], scenario: &Scenario) -> SlotOutcome {
        arrivals.iter().map(|t| self.decide(t, scenario)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdftsp_types::{CostGrid, GpuModel, NodeSpec, TaskBuilder};

    fn scenario(tasks: Vec<Task>, quotes: Vec<Vec<VendorQuote>>, capacity: u64) -> Scenario {
        Scenario {
            horizon: 8,
            base_model_gb: 2.0,
            nodes: vec![NodeSpec::new(0, GpuModel::A100_80, capacity)],
            tasks,
            quotes,
            cost: CostGrid::flat(1, 8, 0.1),
        }
    }

    fn simple_task(id: usize, bid: f64) -> Task {
        TaskBuilder::new(id, 0, 7)
            .dataset(2000)
            .memory_gb(5.0)
            .bid(bid)
            .rates(vec![1000])
            .build()
            .unwrap()
    }

    #[test]
    fn first_task_on_empty_cluster_is_admitted_cheaply() {
        let sc = scenario(vec![simple_task(0, 10.0)], vec![vec![]], 4000);
        let mut p = Pdftsp::new(&sc, PdftspConfig::default());
        let d = p.decide(&sc.tasks[0], &sc);
        assert!(d.is_admitted());
        // Duals are zero and no vendor → the winner pays exactly the
        // operational cost of its 2 slots (0.1 each).
        assert!((d.payment() - 0.2).abs() < 1e-9);
        let s = d.schedule().unwrap();
        assert!(s.validate(&sc.tasks[0]).is_ok());
        assert_eq!(s.placements.len(), 2);
    }

    #[test]
    fn unprofitable_task_is_rejected() {
        // Energy cost 2 slots × 0.1 = 0.2 > bid.
        let sc = scenario(vec![simple_task(0, 0.15)], vec![vec![]], 4000);
        let mut p = Pdftsp::new(&sc, PdftspConfig::default());
        let d = p.decide(&sc.tasks[0], &sc);
        assert_eq!(
            d.outcome,
            pdftsp_types::AuctionOutcome::Rejected(Rejection::NonPositiveSurplus)
        );
    }

    #[test]
    fn impossible_deadline_yields_no_feasible_schedule() {
        let t = TaskBuilder::new(0, 0, 0)
            .dataset(5000)
            .memory_gb(5.0)
            .bid(10.0)
            .rates(vec![1000])
            .build()
            .unwrap();
        let sc = scenario(vec![t], vec![vec![]], 4000);
        let mut p = Pdftsp::new(&sc, PdftspConfig::default());
        let d = p.decide(&sc.tasks[0], &sc);
        assert_eq!(
            d.outcome,
            pdftsp_types::AuctionOutcome::Rejected(Rejection::NoFeasibleSchedule)
        );
    }

    #[test]
    fn prices_rise_with_load_and_eventually_reject() {
        // Node fits exactly one task per slot (capacity = task rate); the
        // window has 8 slots so 4 two-slot tasks fill it; later tasks must
        // be priced out or capacity-rejected.
        let tasks: Vec<Task> = (0..8).map(|i| simple_task(i, 10.0)).collect();
        let quotes = vec![vec![]; 8];
        let sc = scenario(tasks, quotes, 1000);
        let mut p = Pdftsp::new(&sc, PdftspConfig::default());
        let mut admitted = 0;
        let mut rejected = 0;
        for t in &sc.tasks {
            if p.decide(t, &sc).is_admitted() {
                admitted += 1;
            } else {
                rejected += 1;
            }
        }
        assert!(admitted >= 3, "admitted {admitted}");
        assert!(rejected >= 3, "rejected {rejected}");
        // Committed capacity never exceeded (constraints 4f/4g).
        for t in 0..8 {
            assert!(p.ledger().compute_used(0, t) <= 1000);
        }
    }

    #[test]
    fn payments_never_exceed_bids_individual_rationality() {
        let tasks: Vec<Task> = (0..20).map(|i| simple_task(i, 5.0 + i as f64)).collect();
        let quotes = vec![vec![]; 20];
        let sc = scenario(tasks, quotes, 3000);
        let mut p = Pdftsp::new(&sc, PdftspConfig::default());
        for t in &sc.tasks {
            let d = p.decide(t, &sc);
            if d.is_admitted() {
                assert!(
                    d.payment() <= t.bid + 1e-9,
                    "payment {} > bid {}",
                    d.payment(),
                    t.bid
                );
            }
        }
    }

    #[test]
    fn vendor_with_best_surplus_is_selected() {
        // Tight deadline: the slow vendor (delay 5) leaves too little
        // room; the fast one (delay 1) must be chosen despite its price.
        let t = TaskBuilder::new(0, 0, 3)
            .dataset(2000)
            .memory_gb(5.0)
            .bid(20.0)
            .needs_preprocessing(true)
            .rates(vec![1000])
            .build()
            .unwrap();
        let quotes = vec![vec![
            VendorQuote {
                vendor: 0,
                price: 0.5,
                delay: 5,
            },
            VendorQuote {
                vendor: 1,
                price: 2.0,
                delay: 1,
            },
        ]];
        let sc = scenario(vec![t], quotes, 4000);
        let mut p = Pdftsp::new(&sc, PdftspConfig::default());
        let d = p.decide(&sc.tasks[0], &sc);
        assert!(d.is_admitted());
        assert_eq!(d.schedule().unwrap().vendor.vendor, 1);
        // Payment covers the vendor price plus 2 slots of energy even at
        // zero duals.
        assert!((d.payment() - 2.2).abs() < 1e-9);
    }

    #[test]
    fn cheap_vendor_wins_when_deadline_is_slack() {
        let t = TaskBuilder::new(0, 0, 7)
            .dataset(2000)
            .memory_gb(5.0)
            .bid(20.0)
            .needs_preprocessing(true)
            .rates(vec![1000])
            .build()
            .unwrap();
        let quotes = vec![vec![
            VendorQuote {
                vendor: 0,
                price: 0.5,
                delay: 3,
            },
            VendorQuote {
                vendor: 1,
                price: 2.0,
                delay: 1,
            },
        ]];
        let sc = scenario(vec![t], quotes, 4000);
        let mut p = Pdftsp::new(&sc, PdftspConfig::default());
        let d = p.decide(&sc.tasks[0], &sc);
        assert!(d.is_admitted());
        assert_eq!(d.schedule().unwrap().vendor.vendor, 0);
    }

    #[test]
    fn masking_policy_avoids_capacity_rejections() {
        let tasks: Vec<Task> = (0..8).map(|i| simple_task(i, 10.0)).collect();
        let quotes = vec![vec![]; 8];
        let sc = scenario(tasks, quotes, 1000);
        let cfg = PdftspConfig::default().with_masking();
        let mut p = Pdftsp::new(&sc, cfg);
        for t in &sc.tasks {
            let d = p.decide(t, &sc);
            // Masked DP never produces capacity-infeasible schedules.
            assert_ne!(
                d.outcome,
                pdftsp_types::AuctionOutcome::Rejected(Rejection::InsufficientCapacity)
            );
        }
    }

    #[test]
    fn records_mirror_decisions() {
        let sc = scenario(
            vec![simple_task(0, 10.0), simple_task(1, 0.05)],
            vec![vec![], vec![]],
            4000,
        );
        let mut p = Pdftsp::new(&sc, PdftspConfig::default());
        let refs: Vec<&Task> = sc.tasks.iter().collect();
        let out = p.on_slot(0, &refs, &sc);
        assert_eq!(out.len(), 2);
        let recs = p.records();
        assert_eq!(recs.len(), 2);
        assert!(recs[0].admitted && !recs[1].admitted);
        assert_eq!(recs[0].payment, out[0].payment());
    }

    #[test]
    fn telemetry_stream_and_counters_track_decisions() {
        use pdftsp_telemetry::RingSink;
        use std::sync::Arc;
        let sc = scenario(
            vec![simple_task(0, 10.0), simple_task(1, 0.05)],
            vec![vec![], vec![]],
            4000,
        );
        let ring = Arc::new(RingSink::new(256));
        let mut p =
            Pdftsp::with_telemetry(&sc, PdftspConfig::default(), Telemetry::new(ring.clone()));
        let d0 = p.decide(&sc.tasks[0], &sc);
        let d1 = p.decide(&sc.tasks[1], &sc);
        assert!(d0.is_admitted() && !d1.is_admitted());
        let c = &p.telemetry().counters;
        assert_eq!(c.read(&c.decisions), 2);
        assert_eq!(c.read(&c.admitted), 1);
        assert_eq!(c.read(&c.rejected_surplus), 1);
        assert_eq!(c.decide_latency.count(), 2);
        // Task 0 runs a DP; task 1 (bid 0.05) is discharged by the
        // admission bound without one — and says so in the stream.
        assert_eq!(c.read(&c.dp_runs), 1);
        assert_eq!(c.read(&c.vendors_pruned), 1);
        assert!(c.read(&c.grid_builds) >= 2);
        let events = ring.events();
        // Task 0: ArrivalSeen → DpRun → DualUpdate × placements → Admitted.
        assert_eq!(
            events[0],
            Event::ArrivalSeen {
                task: 0,
                slot: 0,
                bid: 10.0,
                vendors: 0
            }
        );
        let placements = d0.schedule().unwrap().placements.len();
        let dual_updates = events
            .iter()
            .filter(|e| matches!(e, Event::DualUpdate { task: 0, .. }))
            .count();
        assert_eq!(dual_updates, placements);
        assert_eq!(c.read(&c.dual_updates), placements as u64);
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Admitted { task: 0, .. })));
        // Task 1: vendor-pruned (no DP), rejected for non-positive
        // surplus, no dual updates.
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::VendorPruned { task: 1, .. })));
        assert!(events.contains(&Event::Rejected {
            task: 1,
            reason: Reason::NonPositiveSurplus
        }));
        assert!(!events
            .iter()
            .any(|e| matches!(e, Event::DualUpdate { task: 1, .. })));
    }

    #[test]
    fn disabled_telemetry_still_counts() {
        let sc = scenario(vec![simple_task(0, 10.0)], vec![vec![]], 4000);
        let mut p = Pdftsp::new(&sc, PdftspConfig::default());
        assert!(!p.telemetry().is_enabled());
        p.decide(&sc.tasks[0], &sc);
        let c = &p.telemetry().counters;
        assert_eq!(c.read(&c.decisions), 1);
        assert_eq!(c.read(&c.admitted), 1);
        assert!(c.read(&c.dp_cells) > 0);
    }

    #[test]
    fn running_max_alpha_beta_grow() {
        let sc = scenario(
            vec![simple_task(0, 1.0), simple_task(1, 500.0)],
            vec![vec![], vec![]],
            4000,
        );
        let mut p = Pdftsp::new(&sc, PdftspConfig::default());
        p.decide(&sc.tasks[0], &sc);
        let a0 = p.alpha();
        p.decide(&sc.tasks[1], &sc);
        assert!(p.alpha() > a0);
        // β normalized by footprint r_i·ℓ_i = 5 GB × 2 slots = 10.
        assert!(p.beta() >= 500.0 / 10.0);
    }
}
