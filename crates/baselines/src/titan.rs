//! Titan-like per-slot MILP baseline.
//!
//! Titan (Gao et al., SoCC'22) schedules fine-tuning workloads by solving
//! a mixed-integer program, but assumes all jobs are known up front. The
//! paper adapts it to the online setting exactly as we do here: "we solve
//! the MILP via Gurobi at the beginning of each time slot for the tasks
//! arrived at the beginning of the time slot. Additionally, we allow Titan
//! to select the labor vendor in the marketplace randomly."
//!
//! Our MILP machinery is the in-house branch-and-bound of
//! `pdftsp-solver`. On these batch instances the LP relaxation resolves
//! the *admission* variables `u_i` integrally almost immediately, while
//! the placement variables `x_ikt` stay fractional across hundreds of
//! near-symmetric `(node, slot)` alternatives — a symmetry pattern that
//! stalls vanilla branch-and-bound (and is exactly why production solvers
//! ship rounding heuristics). We therefore run the solver under a budget
//! and then *repair* placements: the admission set is taken from the best
//! available solution (certified MILP optimum when the budget sufficed,
//! otherwise the root LP), and each admitted task is laid out integrally
//! on its cheapest feasible cells. Welfare-negative or unplaceable tasks
//! are dropped, preserving the MILP's economic intent.
//!
//! Titan remains locally optimal per batch but cannot reserve capacity
//! for future high-value arrivals, has no pricing, and pays whichever
//! vendor the coin flip picked.

use pdftsp_cluster::CapacityLedger;
use pdftsp_solver::encode::encode_titan_slot;
use pdftsp_solver::lp::LpOutcome;
use pdftsp_solver::milp::{MilpConfig, MilpOutcome};
use pdftsp_solver::simplex::solve_lp;
use pdftsp_types::{
    Decision, NodeId, OnlineScheduler, Rejection, Scenario, Schedule, Slot, SlotOutcome, Task,
    VendorQuote,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Titan solver limits.
#[derive(Debug, Clone, Copy)]
pub struct TitanConfig {
    /// Branch-and-bound limits for each per-slot MILP.
    pub milp: MilpConfig,
    /// Candidate nodes per task in the MILP (see `on_slot`); the greedy
    /// placement repair still considers every node.
    pub max_nodes_per_task: usize,
    /// Skip branch-and-bound (root LP + repair only) when the batch MILP
    /// has more variables than this.
    pub exact_var_limit: usize,
}

impl Default for TitanConfig {
    fn default() -> Self {
        TitanConfig {
            milp: MilpConfig { node_limit: 25 },
            max_nodes_per_task: 4,
            exact_var_limit: 400,
        }
    }
}

/// The Titan-like per-slot MILP scheduler.
pub struct TitanLike {
    config: TitanConfig,
    ledger: CapacityLedger,
    rng: StdRng,
}

impl TitanLike {
    /// Creates a Titan scheduler for `scenario` (seed drives the random
    /// vendor selection).
    #[must_use]
    pub fn new(scenario: &Scenario, seed: u64, config: TitanConfig) -> Self {
        TitanLike {
            config,
            ledger: CapacityLedger::new(scenario),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn residuals(&self, scenario: &Scenario) -> (Vec<u64>, Vec<f64>) {
        let k_count = scenario.nodes.len();
        let horizon = scenario.horizon;
        let mut compute = vec![0u64; k_count * horizon];
        let mut memory = vec![0.0f64; k_count * horizon];
        for k in 0..k_count {
            for t in 0..horizon {
                compute[k * horizon + t] = self.ledger.residual_compute(k, t);
                memory[k * horizon + t] = self.ledger.residual_memory(k, t);
            }
        }
        (compute, memory)
    }

    /// Lays `task` out integrally on its cheapest feasible cells (at most
    /// one node per slot) against the current ledger. Returns `None` when
    /// the work cannot complete by the deadline.
    fn cheapest_placement(
        &self,
        task: &Task,
        start: Slot,
        scenario: &Scenario,
    ) -> Option<Vec<(NodeId, Slot)>> {
        let deadline = task.deadline.min(scenario.horizon.saturating_sub(1));
        if start > deadline {
            return None;
        }
        // Per slot, the fitting node with the lowest energy cost.
        let mut cells: Vec<(f64, NodeId, Slot, u64)> = Vec::with_capacity(deadline - start + 1);
        for t in start..=deadline {
            let mut best: Option<(f64, NodeId, u64)> = None;
            for k in 0..scenario.nodes.len() {
                let rate = task.rate(k);
                if rate == 0 || !self.ledger.fits(task, k, t) {
                    continue;
                }
                // Cost per unit of work delivered in this cell.
                let cost = scenario.cost.e(task, k, t) / rate as f64;
                if best.is_none_or(|(c, _, _)| cost < c) {
                    best = Some((cost, k, rate));
                }
            }
            if let Some((cost, k, rate)) = best {
                cells.push((cost, k, t, rate));
            }
        }
        cells.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut placements = Vec::new();
        let mut remaining = task.work;
        for (_, k, t, rate) in cells {
            placements.push((k, t));
            remaining = remaining.saturating_sub(rate);
            if remaining == 0 {
                placements.sort_by_key(|&(_, t)| t);
                return Some(placements);
            }
        }
        None
    }
}

impl OnlineScheduler for TitanLike {
    fn name(&self) -> &'static str {
        "Titan"
    }

    fn on_slot(&mut self, slot: Slot, arrivals: &[&Task], scenario: &Scenario) -> SlotOutcome {
        if arrivals.is_empty() {
            return Vec::new();
        }
        let t0 = Instant::now();

        // Random vendor per pre-processing task (paper's adaptation).
        let chosen: Vec<VendorQuote> = arrivals
            .iter()
            .map(|t| {
                if t.needs_preprocessing {
                    let quotes = &scenario.quotes[t.id];
                    quotes[self.rng.gen_range(0..quotes.len())]
                } else {
                    VendorQuote::none()
                }
            })
            .collect();

        let (residual_compute, residual_memory) = self.residuals(scenario);
        // Prune each task to a ring slice of candidate nodes: nodes are
        // symmetric within a GPU model, so the full MILP is hugely
        // redundant; different tasks get different (overlapping) slices so
        // the batch still spreads across the cluster.
        let k_count = scenario.nodes.len();
        let per_task = self.config.max_nodes_per_task.max(1);
        let allowed: Vec<Vec<usize>> = if k_count <= per_task {
            vec![Vec::new(); arrivals.len()]
        } else {
            arrivals
                .iter()
                .enumerate()
                .map(|(pos, t)| {
                    let start = (t.id * 7 + pos * 3) % k_count;
                    (0..per_task)
                        .map(|j| (start + j * (k_count / per_task).max(1)) % k_count)
                        .collect()
                })
                .collect()
        };
        let enc = encode_titan_slot(
            scenario,
            slot,
            arrivals,
            &chosen,
            &residual_compute,
            &residual_memory,
            Some(&allowed),
        );
        // Branch-and-bound pays off only on small batches; above the
        // threshold the B&B budget would be spent fighting placement
        // symmetry, so we go straight to the root LP (whose admission
        // variables come out integral on these instances) plus repair.
        let out = if enc.milp.lp.num_vars <= self.config.exact_var_limit {
            enc.milp.solve(&self.config.milp)
        } else {
            MilpOutcome::BoundOnly {
                bound: f64::INFINITY,
            }
        };

        // Admission set: certified optimum if available, otherwise the
        // root LP's (almost always integral) admission variables.
        let admitted_flags: Vec<bool> = match &out {
            MilpOutcome::Optimal { x, .. } => {
                (0..arrivals.len()).map(|p| x[enc.u_var(p)] > 0.5).collect()
            }
            _ => match solve_lp(&enc.milp.lp) {
                LpOutcome::Optimal { x, .. } => (0..arrivals.len())
                    .map(|p| x[enc.u_var(p)] >= 0.5)
                    .collect(),
                _ => vec![false; arrivals.len()],
            },
        };
        let exact = matches!(out, MilpOutcome::Optimal { .. });
        // Per-task share of the batch solve time (the paper reports
        // Titan's runtime averaged over the batch size).
        let secs = t0.elapsed().as_secs_f64() / arrivals.len() as f64;

        // Commit in descending net-bid order so placement repair favors
        // the valuable tasks when residual capacity is contested.
        let mut order: Vec<usize> = (0..arrivals.len()).collect();
        order.sort_by(|&a, &b| {
            let na = arrivals[a].bid - chosen[a].price;
            let nb = arrivals[b].bid - chosen[b].price;
            nb.partial_cmp(&na).unwrap_or(std::cmp::Ordering::Equal)
        });

        let mut decisions: Vec<Option<Decision>> = vec![None; arrivals.len()];
        for p in order {
            let task = arrivals[p];
            if !admitted_flags[p] {
                decisions[p] = Some(Decision::rejected(
                    task.id,
                    Rejection::NonPositiveSurplus,
                    secs,
                ));
                continue;
            }
            let start = (slot + chosen[p].delay).max(task.arrival);
            let placed = match (exact, &out) {
                // Use the certified placements directly when available.
                (true, MilpOutcome::Optimal { x, .. }) => {
                    let ext = enc.extract(x);
                    Some(ext[p].1.clone()).filter(|v| !v.is_empty())
                }
                _ => None,
            }
            .or_else(|| self.cheapest_placement(task, start, scenario));
            let Some(placements) = placed else {
                decisions[p] = Some(Decision::rejected(
                    task.id,
                    Rejection::NoFeasibleSchedule,
                    secs,
                ));
                continue;
            };
            let schedule = Schedule::new(task.id, chosen[p], placements);
            // Drop welfare-negative repairs (the MILP would not admit).
            let welfare = schedule.welfare_increment(task, &scenario.cost);
            if welfare <= 0.0 {
                decisions[p] = Some(Decision::rejected(
                    task.id,
                    Rejection::NonPositiveSurplus,
                    secs,
                ));
                continue;
            }
            match self.ledger.commit(task, &schedule) {
                Ok(()) => decisions[p] = Some(Decision::admitted(task.id, schedule, 0.0, secs)),
                Err(_) => {
                    decisions[p] = Some(Decision::rejected(
                        task.id,
                        Rejection::InsufficientCapacity,
                        secs,
                    ));
                }
            }
        }
        decisions
            .into_iter()
            .map(|d| d.expect("every position decided"))
            .collect()
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

    fn t(id: usize, bid: f64, arrival: usize) -> Task {
        TaskBuilder::new(id, arrival, 7)
            .dataset(2000)
            .memory_gb(5.0)
            .bid(bid)
            .rates(vec![1000])
            .build()
            .unwrap()
    }

    #[test]
    fn batch_milp_prefers_high_bids_under_scarcity() {
        // Each task needs 2 exclusive slots (rate = capacity); 8 slots fit
        // 4 of the 5 tasks. The lowest bid must lose.
        let tasks = vec![
            t(0, 1.0, 0),
            t(1, 9.0, 0),
            t(2, 5.0, 0),
            t(3, 8.0, 0),
            t(4, 7.0, 0),
        ];
        let quotes = vec![vec![]; 5];
        let sc = scenario(tasks, quotes, 1000);
        let mut titan = TitanLike::new(&sc, 1, TitanConfig::default());
        let refs: Vec<&Task> = sc.tasks.iter().collect();
        let out = titan.on_slot(0, &refs, &sc);
        let admitted: Vec<usize> = out
            .iter()
            .filter(|d| d.is_admitted())
            .map(|d| d.task)
            .collect();
        assert_eq!(admitted.len(), 4, "{admitted:?}");
        assert!(!admitted.contains(&0), "lowest bid must lose: {admitted:?}");
    }

    #[test]
    fn later_batches_see_reduced_residuals() {
        let tasks = vec![t(0, 9.0, 0), t(1, 9.0, 1), t(2, 9.0, 1), t(3, 9.0, 1)];
        let quotes = vec![vec![]; 4];
        let sc = scenario(tasks, quotes, 1000);
        let mut titan = TitanLike::new(&sc, 1, TitanConfig::default());
        let r0: Vec<&Task> = vec![&sc.tasks[0]];
        let out0 = titan.on_slot(0, &r0, &sc);
        assert!(out0[0].is_admitted());
        let r1: Vec<&Task> = sc.tasks[1..].iter().collect();
        let out1 = titan.on_slot(1, &r1, &sc);
        let admitted = out1.iter().filter(|d| d.is_admitted()).count();
        assert!(admitted >= 2, "admitted {admitted}");
        for tt in 0..8 {
            assert!(titan.ledger.compute_used(0, tt) <= 1000);
        }
    }

    #[test]
    fn rejects_welfare_negative_batch() {
        let tasks = vec![t(0, 0.05, 0)];
        let sc = scenario(tasks, vec![vec![]], 1000);
        let mut titan = TitanLike::new(&sc, 1, TitanConfig::default());
        let refs: Vec<&Task> = sc.tasks.iter().collect();
        let out = titan.on_slot(0, &refs, &sc);
        assert!(!out[0].is_admitted());
    }

    #[test]
    fn empty_slot_is_a_noop() {
        let sc = scenario(vec![], vec![], 1000);
        let mut titan = TitanLike::new(&sc, 1, TitanConfig::default());
        assert!(titan.on_slot(3, &[], &sc).is_empty());
    }

    #[test]
    fn repair_uses_cheapest_slots() {
        // Prices differ per slot; the repair path must pick the cheap ones.
        let tasks = vec![t(0, 9.0, 0)];
        let mut sc = scenario(tasks, vec![vec![]], 1000);
        sc.cost = CostGrid::from_vec(1, 8, vec![0.9, 0.1, 0.9, 0.1, 0.9, 0.9, 0.9, 0.9]).unwrap();
        let mut titan = TitanLike::new(&sc, 1, TitanConfig::default());
        let refs: Vec<&Task> = sc.tasks.iter().collect();
        let out = titan.on_slot(0, &refs, &sc);
        let s = out[0].schedule().unwrap();
        assert_eq!(s.placements, vec![(0, 1), (0, 3)]);
    }
}
