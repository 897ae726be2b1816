//! Branch-and-bound mixed-integer solver over the simplex relaxation.
//!
//! Two engines share the public [`MilpOutcome`] contract:
//!
//! * [`Milp::solve`] / [`Milp::solve_with_telemetry`] — the optimized
//!   engine: MILP presolve ([`crate::presolve::strengthen_milp`]), a
//!   sparse bounded-variable LP substrate with **warm-started children**
//!   (the parent's basis is factorized once, then each child is a
//!   handful of dual-simplex pivots — see [`crate::simplex`]), eager
//!   child evaluation (children enter the heap with their *own* LP
//!   bounds, so hopeless subtrees never surface), and an always-feasible
//!   zero incumbent. The search is one sequential loop: pop the
//!   best-bound node, expand it, push its children.
//! * [`Milp::solve_reference`] — the seed-state sequential engine over
//!   the dense tableau ([`crate::dense`]), retained verbatim as the
//!   equivalence oracle for tests and `bench_milp`.
//!
//! Both use best-bound node selection (ties broken deepest-first so
//! incumbents are found early), most-fractional branching, a node limit
//! ([`MilpConfig::node_limit`]) and the [`GAP_TOL`] optimality gap. No
//! control decision reads the clock, so an outcome is a function of the
//! problem and the node limit alone. A certified-optimality flag: if any
//! node could not be resolved or the node limit was hit, the outcome
//! degrades from [`MilpOutcome::Optimal`] to [`MilpOutcome::Feasible`] /
//! [`MilpOutcome::BoundOnly`] with a valid upper bound — bounds are never
//! under-stated, so competitive ratios computed from them are
//! conservative.

use crate::lp::{Constraint, LinearProgram, LpOutcome};
use crate::presolve::{solve_lp_presolved_dense, strengthen_milp};
use crate::simplex::{Basis, BoundedSolver, SolveEnd, SolveStats, SparseLp};
use pdftsp_telemetry::Telemetry;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A maximize MILP: an LP plus integrality requirements.
#[derive(Debug, Clone)]
pub struct Milp {
    /// The relaxation (upper bounds on integer variables must already be
    /// present as rows, e.g. `x ≤ 1` for binaries).
    pub lp: LinearProgram,
    /// Indices of variables required to be integral.
    pub integer_vars: Vec<usize>,
    /// Variables to branch on first (e.g. the admission decisions `u_i`,
    /// whose fixing collapses whole groups of placement variables).
    /// Branching on the most-fractional variable *overall* stalls on the
    /// hundreds of near-symmetric placement variables; with priorities the
    /// search decides "which tasks win" first and lets the LP lay out the
    /// near-integral placements. Empty = no priorities.
    pub branch_priority: Vec<usize>,
}

/// Integrality tolerance: a value within this of an integer is integral.
pub const INT_TOL: f64 = 1e-6;

/// Relative optimality gap at which search stops.
pub const GAP_TOL: f64 = 1e-6;

/// Search limit.
#[derive(Debug, Clone, Copy)]
pub struct MilpConfig {
    /// Maximum number of branch-and-bound nodes to process.
    pub node_limit: usize,
}

impl Default for MilpConfig {
    fn default() -> Self {
        MilpConfig { node_limit: 10_000 }
    }
}

/// Solve outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum MilpOutcome {
    /// Certified optimum.
    Optimal {
        /// Optimal integral point.
        x: Vec<f64>,
        /// Optimal objective.
        objective: f64,
    },
    /// Limits hit with an incumbent; `bound` is a valid upper bound on the
    /// true optimum.
    Feasible {
        /// Best integral point found.
        x: Vec<f64>,
        /// Its objective value.
        objective: f64,
        /// Upper bound on the optimum.
        bound: f64,
    },
    /// Limits hit before any integral point was found.
    BoundOnly {
        /// Upper bound on the optimum.
        bound: f64,
    },
    /// The relaxation itself is infeasible.
    Infeasible,
    /// The relaxation is unbounded (modelling error for our encodings).
    Unbounded,
}

impl MilpOutcome {
    /// Best objective value of an integral solution, if any.
    #[must_use]
    pub fn objective(&self) -> Option<f64> {
        match self {
            MilpOutcome::Optimal { objective, .. } | MilpOutcome::Feasible { objective, .. } => {
                Some(*objective)
            }
            _ => None,
        }
    }

    /// A valid upper bound on the optimum, if known.
    #[must_use]
    pub fn upper_bound(&self) -> Option<f64> {
        match self {
            MilpOutcome::Optimal { objective, .. } => Some(*objective),
            MilpOutcome::Feasible { bound, .. } | MilpOutcome::BoundOnly { bound } => Some(*bound),
            _ => None,
        }
    }

    /// The integral solution, if any.
    #[must_use]
    pub fn solution(&self) -> Option<&[f64]> {
        match self {
            MilpOutcome::Optimal { x, .. } | MilpOutcome::Feasible { x, .. } => Some(x),
            _ => None,
        }
    }
}

/// One open node of the optimized engine. Unlike the reference engine's
/// nodes, a node stores its *own* LP solution (computed eagerly when its
/// parent branched) and the optimal basis to warm-start its children
/// from; `None` basis means the dense fallback produced the solution.
#[derive(Debug)]
struct SearchNode {
    /// `(var, upper?, value)`: `x_var ≤ value` if upper else `x_var ≥ value`.
    branches: Vec<(u32, bool, f64)>,
    /// This node's LP-relaxation solution.
    x: Vec<f64>,
    /// This node's LP-relaxation objective — its bound.
    objective: f64,
    /// Optimal basis of this node's LP (warm start for children).
    basis: Option<Basis>,
    depth: usize,
    /// Push sequence number: the final heap tie-break, making pop order a
    /// total (hence reproducible) order.
    seq: u64,
}

/// Heap wrapper: max on (bound, depth, FIFO seq).
struct HeapEntry(SearchNode);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.seq == other.0.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .objective
            .partial_cmp(&other.0.objective)
            .unwrap_or(Ordering::Equal)
            .then(self.0.depth.cmp(&other.0.depth))
            .then(other.0.seq.cmp(&self.0.seq))
    }
}

/// Evaluation of one child LP during node expansion.
#[derive(Debug)]
enum ChildEval {
    /// The child LP is infeasible: subtree closed.
    Infeasible,
    /// The child LP is unbounded (propagates to the whole solve).
    Unbounded,
    /// The dense fallback hit its iteration limit: subtree dropped,
    /// certification lost.
    Unresolved,
    /// The child LP solved.
    Solved {
        branches: Vec<(u32, bool, f64)>,
        x: Vec<f64>,
        objective: f64,
        basis: Option<Basis>,
        /// Rounded-and-verified incumbent candidate from `x`, if any.
        candidate: Option<(Vec<f64>, f64)>,
        /// `x` already satisfies integrality: subtree closed.
        integral: bool,
    },
}

/// Result of expanding (branching) one node: both children evaluated,
/// plus the LP work done.
#[derive(Debug)]
struct ExpandResult {
    children: Vec<ChildEval>,
    stats: SolveStats,
    lp_solves: u64,
    dense_fallbacks: u64,
}

/// Aggregated work tallies, flushed into telemetry counters once.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    stats: SolveStats,
    lp_solves: u64,
    dense_fallbacks: u64,
    nodes_expanded: u64,
}

impl Tally {
    fn merge_stats(&mut self, s: SolveStats) {
        self.stats.pivots += s.pivots;
        self.stats.warm_attempts += s.warm_attempts;
        self.stats.warm_hits += s.warm_hits;
    }
}

impl Milp {
    /// Picks the branching variable: the most fractional among
    /// `branch_priority`, falling back to the most fractional among all
    /// integer variables. `usize::MAX` when integral.
    fn pick_branch_var(&self, x: &[f64]) -> usize {
        let most_fractional = |vars: &[usize]| {
            let mut var = usize::MAX;
            let mut frac = INT_TOL;
            for &j in vars {
                let f = (x[j] - x[j].round()).abs();
                if f > frac {
                    frac = f;
                    var = j;
                }
            }
            var
        };
        let v = most_fractional(&self.branch_priority);
        if v != usize::MAX {
            return v;
        }
        most_fractional(&self.integer_vars)
    }

    /// Rounds the integer coordinates of `x` to the nearest integers and
    /// returns the point if it is feasible — a cheap incumbent heuristic
    /// run at every node. Always verified against the *original* LP.
    fn rounded_candidate(&self, x: &[f64]) -> Option<(Vec<f64>, f64)> {
        let mut xi = x.to_vec();
        for &j in &self.integer_vars {
            xi[j] = xi[j].round();
        }
        if self.lp.feasible(&xi, 1e-6) {
            let obj = self.lp.objective_value(&xi);
            Some((xi, obj))
        } else {
            None
        }
    }

    /// Solves one child LP through the dense oracle (branch decisions
    /// materialized as rows), classifying the outcome.
    fn dense_child(&self, work_lp: &LinearProgram, branches: &[(u32, bool, f64)]) -> ChildEval {
        let mut lp = work_lp.clone();
        for &(var, upper, value) in branches {
            lp.constraints.push(if upper {
                Constraint::le(vec![(var as usize, 1.0)], value)
            } else {
                Constraint::ge(vec![(var as usize, 1.0)], value)
            });
        }
        match solve_lp_presolved_dense(&lp) {
            LpOutcome::Optimal { x, objective } => {
                let integral = self.pick_branch_var(&x) == usize::MAX;
                let candidate = self.rounded_candidate(&x);
                ChildEval::Solved {
                    branches: branches.to_vec(),
                    x,
                    objective,
                    basis: None,
                    candidate,
                    integral,
                }
            }
            LpOutcome::Infeasible => ChildEval::Infeasible,
            LpOutcome::Unbounded => ChildEval::Unbounded,
            LpOutcome::IterationLimit => ChildEval::Unresolved,
        }
    }

    /// Expands one node: re-establishes its basis (one factorization),
    /// then solves both children by snapshot → bound tighten → dual-warm
    /// re-optimization → restore. Falls back to the dense oracle per
    /// child on numerical trouble.
    fn expand(&self, sp: &SparseLp, work_lp: &LinearProgram, node: &SearchNode) -> ExpandResult {
        let mut res = ExpandResult {
            children: Vec::with_capacity(2),
            stats: SolveStats::default(),
            lp_solves: 0,
            dense_fallbacks: 0,
        };
        let var = self.pick_branch_var(&node.x);
        if var == usize::MAX {
            return res; // never pushed; guard for safety
        }
        let floor = node.x[var].floor();
        let sides = [(true, floor), (false, floor + 1.0)];

        let mut solver = BoundedSolver::new(sp);
        for &(v, upper, value) in &node.branches {
            apply_branch(&mut solver, v, upper, value);
        }
        res.lp_solves += 1;
        let prep = solver.solve_from(node.basis.as_ref());
        match prep {
            SolveEnd::Optimal => {
                let snap = solver.snapshot();
                for (k, &(upper, value)) in sides.iter().enumerate() {
                    if k == 1 {
                        solver.restore(&snap);
                    }
                    apply_branch(&mut solver, var as u32, upper, value);
                    let mut child_branches = node.branches.clone();
                    child_branches.push((var as u32, upper, value));
                    res.lp_solves += 1;
                    match solver.reoptimize() {
                        SolveEnd::Optimal => {
                            let x = solver.extract_x();
                            if work_lp.feasible(&x, 1e-6) {
                                let objective = work_lp.objective_value(&x);
                                let integral = self.pick_branch_var(&x) == usize::MAX;
                                let candidate = self.rounded_candidate(&x);
                                res.children.push(ChildEval::Solved {
                                    branches: child_branches,
                                    x,
                                    objective,
                                    basis: Some(solver.basis()),
                                    candidate,
                                    integral,
                                });
                            } else {
                                res.dense_fallbacks += 1;
                                res.lp_solves += 1;
                                res.children
                                    .push(self.dense_child(work_lp, &child_branches));
                            }
                        }
                        SolveEnd::Infeasible => res.children.push(ChildEval::Infeasible),
                        SolveEnd::Unbounded => res.children.push(ChildEval::Unbounded),
                        SolveEnd::Numeric => {
                            res.dense_fallbacks += 1;
                            res.lp_solves += 1;
                            res.children
                                .push(self.dense_child(work_lp, &child_branches));
                        }
                    }
                }
            }
            // The node solved when it was created; if its bounds now prove
            // infeasible, both (tighter) children are infeasible too.
            SolveEnd::Infeasible => {
                res.children.push(ChildEval::Infeasible);
                res.children.push(ChildEval::Infeasible);
            }
            SolveEnd::Unbounded => res.children.push(ChildEval::Unbounded),
            SolveEnd::Numeric => {
                for &(upper, value) in &sides {
                    let mut child_branches = node.branches.clone();
                    child_branches.push((var as u32, upper, value));
                    res.dense_fallbacks += 1;
                    res.lp_solves += 1;
                    res.children
                        .push(self.dense_child(work_lp, &child_branches));
                }
            }
        }
        res.stats = solver.stats;
        res
    }

    /// Runs the optimized branch-and-bound with the given limits.
    #[must_use]
    pub fn solve(&self, config: &MilpConfig) -> MilpOutcome {
        self.solve_with_telemetry(config, &Telemetry::disabled())
    }

    /// [`Self::solve`] with solver work tallies (nodes, LP solves,
    /// warm-start hit rate, pivots, dense fallbacks) flushed into
    /// `telemetry.counters` when the search finishes.
    #[must_use]
    pub fn solve_with_telemetry(&self, config: &MilpConfig, telemetry: &Telemetry) -> MilpOutcome {
        let mut tally = Tally::default();
        let out = self.solve_inner(config, &mut tally);
        let c = &telemetry.counters;
        c.bump(&c.milp_nodes, tally.nodes_expanded);
        c.bump(&c.lp_solves, tally.lp_solves);
        c.bump(&c.lp_warm_starts, tally.stats.warm_attempts);
        c.bump(&c.lp_warm_hits, tally.stats.warm_hits);
        c.bump(&c.simplex_pivots, tally.stats.pivots);
        c.bump(&c.lp_dense_fallbacks, tally.dense_fallbacks);
        out
    }

    /// The optimized engine body. See the module docs for the design.
    #[allow(clippy::too_many_lines)]
    fn solve_inner(&self, config: &MilpConfig, tally: &mut Tally) -> MilpOutcome {
        let n = self.lp.num_vars;

        // Always-feasible seed incumbent: the all-zero ("reject
        // everything") point, whenever the relaxation admits it. This is
        // what guarantees the offline layer never reports "no welfare".
        let mut incumbent: Option<(Vec<f64>, f64)> = None;
        let zero = vec![0.0f64; n];
        if self.lp.feasible(&zero, 1e-6) {
            let obj = self.lp.objective_value(&zero);
            incumbent = Some((zero, obj));
        }

        // MILP presolve: same integer feasible set, tighter relaxation.
        let work_lp = match strengthen_milp(&self.lp, &self.integer_vars) {
            Some(t) => t,
            None => {
                // Propagation proved the integer problem infeasible.
                return match incumbent {
                    Some((x, objective)) => MilpOutcome::Optimal { x, objective },
                    None => MilpOutcome::Infeasible,
                };
            }
        };
        let sp = SparseLp::from_lp(&work_lp);

        // Root relaxation (sparse, dense fallback on trouble).
        let mut root_solver = BoundedSolver::new(&sp);
        tally.lp_solves += 1;
        let root_end = if sp.infeasible {
            SolveEnd::Infeasible
        } else {
            root_solver.solve_from(None)
        };
        let mut root: Option<(Vec<f64>, f64, Option<Basis>)> = None;
        let mut root_dense = false;
        match root_end {
            SolveEnd::Optimal => {
                let x = root_solver.extract_x();
                if work_lp.feasible(&x, 1e-6) {
                    let obj = work_lp.objective_value(&x);
                    root = Some((x, obj, Some(root_solver.basis())));
                } else {
                    root_dense = true;
                }
            }
            SolveEnd::Numeric => root_dense = true,
            SolveEnd::Infeasible => {
                tally.merge_stats(root_solver.stats);
                return match incumbent {
                    Some((x, objective)) => MilpOutcome::Optimal { x, objective },
                    None => MilpOutcome::Infeasible,
                };
            }
            SolveEnd::Unbounded => {
                tally.merge_stats(root_solver.stats);
                return MilpOutcome::Unbounded;
            }
        }
        if root_dense {
            tally.dense_fallbacks += 1;
            tally.lp_solves += 1;
            match crate::dense::solve_lp_dense(&work_lp) {
                LpOutcome::Optimal { x, objective } => root = Some((x, objective, None)),
                LpOutcome::Infeasible => {
                    tally.merge_stats(root_solver.stats);
                    return match incumbent {
                        Some((x, objective)) => MilpOutcome::Optimal { x, objective },
                        None => MilpOutcome::Infeasible,
                    };
                }
                LpOutcome::Unbounded => {
                    tally.merge_stats(root_solver.stats);
                    return MilpOutcome::Unbounded;
                }
                LpOutcome::IterationLimit => {
                    tally.merge_stats(root_solver.stats);
                    return match incumbent {
                        Some((x, objective)) => MilpOutcome::Feasible {
                            x,
                            objective,
                            bound: f64::INFINITY,
                        },
                        None => MilpOutcome::BoundOnly {
                            bound: f64::INFINITY,
                        },
                    };
                }
            }
        }
        let (root_x, root_obj, root_basis) = root.expect("root resolved above");

        if let Some((xi, obj_i)) = self.rounded_candidate(&root_x) {
            if incumbent.as_ref().is_none_or(|(_, inc)| obj_i > *inc) {
                incumbent = Some((xi, obj_i));
            }
        }
        let root_integral = self.pick_branch_var(&root_x) == usize::MAX;

        // Warm greedy dive: repeatedly fix the most-fractional variable
        // to its rounded side and re-optimize on the live basis — each
        // step is a few dual pivots, not a fresh solve. Produces the
        // strong initial incumbent that lets best-bound search prune.
        if !root_integral && root_basis.is_some() {
            let snap = root_solver.snapshot();
            let mut x = root_x.clone();
            let max_steps = self.integer_vars.len().min(40);
            for _ in 0..max_steps {
                let var = self.pick_branch_var(&x);
                if var == usize::MAX {
                    break;
                }
                let v = x[var];
                if v - v.floor() < 0.5 {
                    apply_branch(&mut root_solver, var as u32, true, v.floor());
                } else {
                    apply_branch(&mut root_solver, var as u32, false, v.ceil());
                }
                tally.lp_solves += 1;
                if root_solver.reoptimize() != SolveEnd::Optimal {
                    break;
                }
                x = root_solver.extract_x();
                if !work_lp.feasible(&x, 1e-6) {
                    break;
                }
                if let Some((xi, obj_i)) = self.rounded_candidate(&x) {
                    if incumbent.as_ref().is_none_or(|(_, inc)| obj_i > *inc) {
                        incumbent = Some((xi, obj_i));
                    }
                }
            }
            root_solver.restore(&snap);
        }
        tally.merge_stats(root_solver.stats);
        drop(root_solver);

        let mut exact = true;
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
        let mut seq = 0u64;
        if !root_integral {
            heap.push(HeapEntry(SearchNode {
                branches: Vec::new(),
                x: root_x,
                objective: root_obj,
                basis: root_basis,
                depth: 0,
                seq,
            }));
            seq += 1;
        }

        let mut nodes = 0usize;
        while let Some(HeapEntry(node)) = heap.pop() {
            if nodes >= config.node_limit {
                // The popped node's bound still counts toward the gap.
                heap.push(HeapEntry(node));
                exact = false;
                break;
            }
            nodes += 1;
            if pruned(&incumbent, node.objective) {
                continue;
            }
            let res = self.expand(&sp, &work_lp, &node);
            tally.nodes_expanded += 1;
            tally.merge_stats(res.stats);
            tally.lp_solves += res.lp_solves;
            tally.dense_fallbacks += res.dense_fallbacks;
            for child in res.children {
                match child {
                    ChildEval::Infeasible => {}
                    ChildEval::Unbounded => return MilpOutcome::Unbounded,
                    ChildEval::Unresolved => exact = false,
                    ChildEval::Solved {
                        branches,
                        x,
                        objective,
                        basis,
                        candidate,
                        integral,
                    } => {
                        if let Some((xi, obj_i)) = candidate {
                            if incumbent.as_ref().is_none_or(|(_, inc)| obj_i > *inc) {
                                incumbent = Some((xi, obj_i));
                            }
                        }
                        if integral || pruned(&incumbent, objective) {
                            continue;
                        }
                        heap.push(HeapEntry(SearchNode {
                            branches,
                            x,
                            objective,
                            basis,
                            depth: node.depth + 1,
                            seq,
                        }));
                        seq += 1;
                    }
                }
            }
        }

        // Global upper bound = max(open node bounds, incumbent).
        let open_bound = heap
            .iter()
            .map(|e| e.0.objective)
            .fold(f64::NEG_INFINITY, f64::max);
        match incumbent {
            Some((x, objective)) => {
                let bound = open_bound.max(objective);
                let closed = heap.is_empty() || bound <= objective + gap_slack(objective);
                if exact && closed {
                    MilpOutcome::Optimal { x, objective }
                } else {
                    MilpOutcome::Feasible {
                        x,
                        objective,
                        bound,
                    }
                }
            }
            None => {
                if exact && heap.is_empty() {
                    // Every branch was infeasible in integers.
                    MilpOutcome::Infeasible
                } else {
                    MilpOutcome::BoundOnly {
                        bound: open_bound.max(root_obj),
                    }
                }
            }
        }
    }

    /// Greedy dive of the reference engine: repeatedly solve the LP and
    /// fix the most-fractional integer variable to its rounded value.
    fn dive_reference(&self) -> Option<(Vec<f64>, f64)> {
        let mut lp = self.lp.clone();
        let mut best: Option<(Vec<f64>, f64)> = None;
        // Each dive step is an LP solve; cap the depth so diving stays a
        // constant-factor overhead on large encodings.
        let max_steps = self.integer_vars.len().min(40);
        for _ in 0..=max_steps {
            let (x, _) = match solve_lp_presolved_dense(&lp) {
                LpOutcome::Optimal { x, objective } => (x, objective),
                _ => break,
            };
            if let Some((xi, obj)) = self.rounded_candidate(&x) {
                if best.as_ref().is_none_or(|(_, b)| obj > *b) {
                    best = Some((xi, obj));
                }
            }
            // Most fractional variable, priority vars first.
            let var = self.pick_branch_var(&x);
            if var == usize::MAX {
                // Integral already; `rounded_candidate` above recorded it.
                break;
            }
            let v = x[var];
            lp.constraints.push(if v - v.floor() < 0.5 {
                Constraint::le(vec![(var, 1.0)], v.floor())
            } else {
                Constraint::ge(vec![(var, 1.0)], v.ceil())
            });
        }
        best
    }

    /// The seed-state sequential branch-and-bound over the dense tableau,
    /// retained verbatim as the equivalence oracle for `bench_milp` and
    /// the differential test suite.
    #[must_use]
    pub fn solve_reference(&self, config: &MilpConfig) -> MilpOutcome {
        // Root relaxation.
        let root = match crate::dense::solve_lp_dense(&self.lp) {
            LpOutcome::Optimal { x, objective } => (x, objective),
            LpOutcome::Infeasible => return MilpOutcome::Infeasible,
            LpOutcome::Unbounded => return MilpOutcome::Unbounded,
            LpOutcome::IterationLimit => {
                return MilpOutcome::BoundOnly {
                    bound: f64::INFINITY,
                }
            }
        };

        let mut incumbent: Option<(Vec<f64>, f64)> = self.rounded_candidate(&root.0);
        drop(root.0);
        // Dive for a strong initial incumbent before best-bound search.
        if let Some((xd, od)) = self.dive_reference() {
            if incumbent.as_ref().is_none_or(|(_, b)| od > *b) {
                incumbent = Some((xd, od));
            }
        }
        let mut exact = true;
        let mut heap = BinaryHeap::new();
        heap.push(RefHeapEntry {
            node: RefNode {
                branches: Vec::new(),
                bound: root.1,
                depth: 0,
            },
        });

        let mut nodes = 0usize;
        while let Some(RefHeapEntry { node }) = heap.pop() {
            if nodes >= config.node_limit {
                // The popped node's bound still counts toward the gap.
                heap.push(RefHeapEntry { node });
                exact = false;
                break;
            }
            nodes += 1;

            if let Some((_, inc)) = &incumbent {
                if node.bound <= inc + gap_slack(*inc) {
                    continue;
                }
            }

            // Solve the node LP: root LP + branching rows.
            let mut lp = self.lp.clone();
            for &(var, upper, value) in &node.branches {
                lp.constraints.push(if upper {
                    Constraint::le(vec![(var, 1.0)], value)
                } else {
                    Constraint::ge(vec![(var, 1.0)], value)
                });
            }
            let (x, obj) = match solve_lp_presolved_dense(&lp) {
                LpOutcome::Optimal { x, objective } => (x, objective),
                LpOutcome::Infeasible => continue,
                LpOutcome::Unbounded => return MilpOutcome::Unbounded,
                LpOutcome::IterationLimit => {
                    exact = false;
                    continue;
                }
            };
            if let Some((_, inc)) = &incumbent {
                if obj <= inc + gap_slack(*inc) {
                    continue;
                }
            }

            // Cheap incumbent heuristic on the node solution.
            if let Some((xi, obj_i)) = self.rounded_candidate(&x) {
                if incumbent.as_ref().is_none_or(|(_, inc)| obj_i > *inc) {
                    incumbent = Some((xi, obj_i));
                }
            }

            // Most-fractional integer variable, priority vars first.
            let branch_var = self.pick_branch_var(&x);

            if branch_var == usize::MAX {
                // Integral: candidate incumbent.
                let mut xi = x.clone();
                for &j in &self.integer_vars {
                    xi[j] = xi[j].round();
                }
                let obj_i = self.lp.objective_value(&xi);
                if incumbent.as_ref().is_none_or(|(_, inc)| obj_i > *inc) {
                    incumbent = Some((xi, obj_i));
                }
                continue;
            }

            let floor = x[branch_var].floor();
            for (upper, value) in [(true, floor), (false, floor + 1.0)] {
                let mut branches = node.branches.clone();
                branches.push((branch_var, upper, value));
                heap.push(RefHeapEntry {
                    node: RefNode {
                        branches,
                        bound: obj,
                        depth: node.depth + 1,
                    },
                });
            }
        }

        // Global upper bound = max(open node bounds, incumbent).
        let open_bound = heap
            .iter()
            .map(|e| e.node.bound)
            .fold(f64::NEG_INFINITY, f64::max);
        match incumbent {
            Some((x, objective)) => {
                let bound = open_bound.max(objective);
                let closed = heap.is_empty() || bound <= objective + gap_slack(objective);
                if exact && closed {
                    MilpOutcome::Optimal { x, objective }
                } else {
                    MilpOutcome::Feasible {
                        x,
                        objective,
                        bound,
                    }
                }
            }
            None => {
                if exact && heap.is_empty() {
                    // Every branch was infeasible in integers.
                    MilpOutcome::Infeasible
                } else {
                    MilpOutcome::BoundOnly {
                        bound: open_bound.max(root.1),
                    }
                }
            }
        }
    }
}

/// Materializes one branch decision as a bound tightening on the solver.
fn apply_branch(s: &mut BoundedSolver<'_>, var: u32, upper: bool, value: f64) {
    if upper {
        s.tighten_bound(var as usize, f64::NEG_INFINITY, value);
    } else {
        s.tighten_bound(var as usize, value, f64::INFINITY);
    }
}

/// Whether a node bound is discharged by the current incumbent.
fn pruned(incumbent: &Option<(Vec<f64>, f64)>, bound: f64) -> bool {
    incumbent
        .as_ref()
        .is_some_and(|(_, inc)| bound <= inc + gap_slack(*inc))
}

fn gap_slack(incumbent: f64) -> f64 {
    GAP_TOL * (1.0 + incumbent.abs())
}

/// One open node of the reference engine: branching decisions stacked on
/// the root LP.
#[derive(Debug, Clone)]
struct RefNode {
    /// `(var, upper?, value)`: `x_var ≤ value` if upper else `x_var ≥ value`.
    branches: Vec<(usize, bool, f64)>,
    /// LP bound inherited from the parent (valid upper bound).
    bound: f64,
    depth: usize,
}

struct RefHeapEntry {
    node: RefNode,
}

impl PartialEq for RefHeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.node.bound == other.node.bound && self.node.depth == other.node.depth
    }
}
impl Eq for RefHeapEntry {}
impl PartialOrd for RefHeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RefHeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on bound, then on depth (deeper first).
        self.node
            .bound
            .partial_cmp(&other.node.bound)
            .unwrap_or(Ordering::Equal)
            .then(self.node.depth.cmp(&other.node.depth))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knapsack(values: &[f64], weights: &[f64], capacity: f64) -> Milp {
        let n = values.len();
        let mut lp = LinearProgram::new(n);
        lp.objective = values.to_vec();
        lp.constraints.push(Constraint::le(
            weights.iter().copied().enumerate().collect(),
            capacity,
        ));
        lp.bound_rows((0..n).map(|j| (j, 1.0)));
        Milp {
            lp,
            integer_vars: (0..n).collect(),
            branch_priority: Vec::new(),
        }
    }

    fn brute_knapsack(values: &[f64], weights: &[f64], capacity: f64) -> f64 {
        let n = values.len();
        let mut best = 0.0f64;
        for mask in 0..(1u32 << n) {
            let mut v = 0.0;
            let mut w = 0.0;
            for j in 0..n {
                if mask & (1 << j) != 0 {
                    v += values[j];
                    w += weights[j];
                }
            }
            if w <= capacity {
                best = best.max(v);
            }
        }
        best
    }

    #[test]
    fn knapsack_matches_brute_force() {
        let cases: Vec<(Vec<f64>, Vec<f64>, f64)> = vec![
            (vec![10.0, 6.0, 4.0], vec![1.0, 1.0, 1.0], 1.5),
            (vec![6.0, 10.0, 12.0, 13.0], vec![1.0, 2.0, 3.0, 4.0], 5.0),
            (
                vec![3.0, 7.0, 2.0, 9.0, 5.0, 4.0],
                vec![2.0, 3.0, 1.0, 5.0, 4.0, 2.0],
                8.0,
            ),
        ];
        for (v, w, c) in cases {
            let out = knapsack(&v, &w, c).solve(&MilpConfig::default());
            let expect = brute_knapsack(&v, &w, c);
            match out {
                MilpOutcome::Optimal { objective, x } => {
                    assert!(
                        (objective - expect).abs() < 1e-6,
                        "got {objective}, want {expect}"
                    );
                    for xi in &x {
                        assert!((xi - xi.round()).abs() < 1e-6);
                    }
                }
                other => panic!("expected optimal, got {other:?}"),
            }
        }
    }

    #[test]
    fn already_integral_relaxation_is_accepted_immediately() {
        // Assignment-like LP (totally unimodular → integral LP optimum).
        let mut lp = LinearProgram::new(4); // x00 x01 x10 x11
        lp.objective = vec![5.0, 1.0, 2.0, 4.0];
        lp.constraints = vec![
            Constraint::le(vec![(0, 1.0), (1, 1.0)], 1.0),
            Constraint::le(vec![(2, 1.0), (3, 1.0)], 1.0),
            Constraint::le(vec![(0, 1.0), (2, 1.0)], 1.0),
            Constraint::le(vec![(1, 1.0), (3, 1.0)], 1.0),
        ];
        lp.bound_rows((0..4).map(|j| (j, 1.0)));
        let m = Milp {
            lp,
            integer_vars: (0..4).collect(),
            branch_priority: Vec::new(),
        };
        match m.solve(&MilpConfig::default()) {
            MilpOutcome::Optimal { objective, .. } => {
                assert!((objective - 9.0).abs() < 1e-6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn infeasible_milp_reported() {
        let mut lp = LinearProgram::new(1);
        lp.objective = vec![1.0];
        lp.constraints = vec![
            Constraint::ge(vec![(0, 1.0)], 2.0),
            Constraint::le(vec![(0, 1.0)], 1.0),
        ];
        let m = Milp {
            lp,
            integer_vars: vec![0],
            branch_priority: Vec::new(),
        };
        assert_eq!(m.solve(&MilpConfig::default()), MilpOutcome::Infeasible);
        assert_eq!(
            m.solve_reference(&MilpConfig::default()),
            MilpOutcome::Infeasible
        );
    }

    #[test]
    fn integrality_cuts_fractional_optimum() {
        // LP optimum is fractional (x = 1.5); MILP must settle at 1.0.
        let mut lp = LinearProgram::new(1);
        lp.objective = vec![1.0];
        lp.constraints = vec![Constraint::le(vec![(0, 2.0)], 3.0)];
        let m = Milp {
            lp,
            integer_vars: vec![0],
            branch_priority: Vec::new(),
        };
        match m.solve(&MilpConfig::default()) {
            MilpOutcome::Optimal { objective, x } => {
                assert!((objective - 1.0).abs() < 1e-9);
                assert!((x[0] - 1.0).abs() < 1e-9);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn node_limit_degrades_to_feasible_with_valid_bound() {
        let v = vec![3.0, 7.0, 2.0, 9.0, 5.0, 4.0, 8.0, 6.0];
        let w = vec![2.0, 3.0, 1.0, 5.0, 4.0, 2.0, 6.0, 3.0];
        let m = knapsack(&v, &w, 10.0);
        let cfg = MilpConfig { node_limit: 2 };
        let out = m.solve(&cfg);
        let exact = brute_knapsack(&v, &w, 10.0);
        match out {
            MilpOutcome::Optimal { objective, .. } => {
                assert!((objective - exact).abs() < 1e-6);
            }
            MilpOutcome::Feasible {
                objective, bound, ..
            } => {
                assert!(objective <= exact + 1e-6);
                assert!(bound >= exact - 1e-6, "bound {bound} < exact {exact}");
            }
            MilpOutcome::BoundOnly { bound } => {
                assert!(bound >= exact - 1e-6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mixed_integer_keeps_continuous_vars_fractional() {
        // max x + y, x integer, x + y ≤ 2.5, x ≤ 1.7 ⇒ x = 1, y = 1.5.
        let mut lp = LinearProgram::new(2);
        lp.objective = vec![1.0, 1.0];
        lp.constraints = vec![
            Constraint::le(vec![(0, 1.0), (1, 1.0)], 2.5),
            Constraint::le(vec![(0, 1.0)], 1.7),
        ];
        let m = Milp {
            lp,
            integer_vars: vec![0],
            branch_priority: Vec::new(),
        };
        match m.solve(&MilpConfig::default()) {
            MilpOutcome::Optimal { objective, x } => {
                assert!((objective - 2.5).abs() < 1e-6);
                assert!((x[0] - x[0].round()).abs() < 1e-9);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn larger_random_knapsacks_match_brute_force() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _case in 0..20 {
            let n = 8 + (next() * 5.0) as usize;
            let v: Vec<f64> = (0..n).map(|_| 1.0 + next() * 9.0).collect();
            let w: Vec<f64> = (0..n).map(|_| 1.0 + next() * 5.0).collect();
            let cap = w.iter().sum::<f64>() * 0.4;
            let out = knapsack(&v, &w, cap).solve(&MilpConfig::default());
            let expect = brute_knapsack(&v, &w, cap);
            assert!(
                (out.objective().unwrap() - expect).abs() < 1e-6,
                "n={n}: got {:?}, want {expect}",
                out.objective()
            );
        }
    }

    #[test]
    fn optimized_matches_reference_on_random_knapsacks() {
        let mut state = 0xFEED_F00D_1234_5678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let cfg = MilpConfig::default();
        for _case in 0..15 {
            let n = 6 + (next() * 6.0) as usize;
            let v: Vec<f64> = (0..n).map(|_| 1.0 + next() * 9.0).collect();
            let w: Vec<f64> = (0..n).map(|_| 1.0 + next() * 5.0).collect();
            let cap = w.iter().sum::<f64>() * 0.45;
            let m = knapsack(&v, &w, cap);
            let fast = m.solve(&cfg).objective().unwrap();
            let oracle = m.solve_reference(&cfg).objective().unwrap();
            let slack = gap_slack(oracle);
            assert!(
                (fast - oracle).abs() <= slack,
                "optimized {fast} vs reference {oracle}"
            );
        }
    }

    #[test]
    fn zero_point_seeds_incumbent_under_zero_node_limit() {
        // With node_limit 0 nothing is explored, but the all-zero point
        // still yields a (welfare-0) incumbent instead of BoundOnly.
        let v = vec![3.0, 7.0, 2.0];
        let w = vec![2.0, 3.0, 1.0];
        let m = knapsack(&v, &w, 4.0);
        let out = m.solve(&MilpConfig { node_limit: 0 });
        match out {
            MilpOutcome::Optimal { objective, .. } | MilpOutcome::Feasible { objective, .. } => {
                assert!(objective >= 0.0, "incumbent objective {objective}");
            }
            other => panic!("expected an incumbent, got {other:?}"),
        }
    }

    #[test]
    fn telemetry_counters_record_solver_work() {
        let tel = Telemetry::disabled();
        let v = vec![3.0, 7.0, 2.0, 9.0, 5.0, 4.0];
        let w = vec![2.0, 3.0, 1.0, 5.0, 4.0, 2.0];
        let m = knapsack(&v, &w, 8.0);
        let out = m.solve_with_telemetry(&MilpConfig::default(), &tel);
        assert!(out.objective().is_some());
        let c = &tel.counters;
        assert!(c.read(&c.lp_solves) > 0, "lp_solves not recorded");
        assert!(c.read(&c.simplex_pivots) > 0, "pivots not recorded");
        // Eager children are all warm-started; the hit rate is defined.
        assert!(c.read(&c.lp_warm_starts) > 0, "no warm starts recorded");
        assert!(c.warm_start_hit_rate() > 0.0, "warm hit rate is zero");
    }
}
