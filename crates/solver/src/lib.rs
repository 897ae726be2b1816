//! # pdftsp-solver
//!
//! An in-house linear/mixed-integer optimization toolkit — the substitute
//! for the Gurobi solver the paper uses for (a) the Titan baseline's
//! per-slot MILPs and (b) the offline optimum in the empirical
//! competitive-ratio experiment (Fig. 12).
//!
//! * [`lp`] — problem description: sparse-row linear programs with `≤ / ≥ /
//!   =` constraints and non-negative variables (upper bounds are encoded as
//!   rows by the callers that need them).
//! * [`simplex`] — the optimized LP path: a sparse bounded-variable
//!   simplex (CSR/CSC rows, singleton rows folded into bounds, no
//!   artificial variables) with an explicit basis inverse and **warm
//!   starting** from an exported [`Basis`] via the dual simplex.
//! * [`dense`] — the seed-state dense two-phase tableau, retained as the
//!   equivalence oracle and numerical fallback (as PR 1 retained the
//!   reference DP).
//! * [`presolve`] — bound tightening, fixed-variable elimination, bound
//!   propagation, and MILP coefficient tightening, run before node LPs
//!   are pivoted (branch rows fix binaries, so deep nodes shrink
//!   dramatically);
//! * [`milp`] — branch-and-bound over the LP relaxation: one sequential
//!   best-bound search with warm-started children, most-fractional
//!   branching, a node limit, a gap tolerance, and incumbent extraction.
//!   It never reads the clock, so equal inputs give bit-identical
//!   outcomes on any host. Returns certified optima on small instances
//!   and (incumbent, bound) pairs when the node limit binds;
//!   [`Milp::solve_reference`] keeps the seed-state sequential engine as
//!   the oracle.
//! * [`encode`] — encoders producing the paper's problem `P` (Eq. 4) as a
//!   MILP: the full offline formulation (with the vendor-delay coupling
//!   (4c) linearized) and the per-slot Titan variant.
//! * [`offline`] — the offline-optimum entry point used by Fig. 12: exact
//!   welfare on small instances, LP-relaxation upper bound otherwise
//!   (which can only over-state the optimum, making reported competitive
//!   ratios conservative).

pub mod dense;
pub mod encode;
pub mod lp;
pub mod milp;
pub mod offline;
pub mod presolve;
pub mod simplex;

pub use dense::solve_lp_dense;
pub use encode::{encode_offline, encode_titan_slot, OfflineEncoding, TitanEncoding};
pub use lp::{Constraint, LinearProgram, LpOutcome, Sense};
pub use milp::{Milp, MilpConfig, MilpOutcome};
pub use offline::{
    offline_optimum, offline_optimum_reference, offline_optimum_with_telemetry, OfflineResult,
};
pub use presolve::{
    presolve, propagate_bounds, solve_lp_presolved_dense, strengthen_milp, PresolveOutcome,
    Presolved, VarBounds,
};
pub use simplex::{solve_lp, Basis, BoundedSolver, SolveEnd, SolveStats, SolverSnapshot, SparseLp};
