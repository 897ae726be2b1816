//! Sparse bounded-variable simplex with warm starting.
//!
//! The optimized LP substrate of the branch-and-bound engine. Three ideas
//! replace the seed-state dense tableau (now [`crate::dense`], kept as the
//! equivalence oracle):
//!
//! 1. **Sparse, bound-folded form.** [`SparseLp`] stores structural rows
//!    in flat compressed-column form; every singleton row (`x_j ≤ u`, `x_j ≥ l` — the
//!    encoders emit one per variable, and branch-and-bound emits one per
//!    fixing) is folded into an explicit variable bound instead of
//!    occupying a tableau row. On the offline encoding this removes the
//!    majority of rows before a single pivot runs.
//! 2. **Bounded-variable pivoting.** Each variable lives in `[lb, ub]`
//!    and nonbasic variables sit at either bound, so binaries never need
//!    rows at all. Senses become slack bounds (`≤` → `[0, ∞)`, `≥` →
//!    `(−∞, 0]`, `=` → `[0, 0]`) — no artificial variables, ever. The
//!    basis inverse is maintained explicitly (dense `m × m`, product-form
//!    row updates, periodic refactorization) where `m` counts only the
//!    surviving multi-variable rows.
//! 3. **Warm starting.** A [`Basis`] (basic set + nonbasic bound statuses)
//!    can be exported after a solve and re-installed later. Because a
//!    branch child differs from its parent only in one variable bound,
//!    the parent's optimal basis stays *dual* feasible (reduced costs
//!    don't depend on bounds), so [`BoundedSolver::reoptimize`] restores
//!    primal feasibility with a handful of dual-simplex pivots instead of
//!    a full two-phase solve. Cold starts use the same machinery: with
//!    zero costs every basis is dual feasible, so phase 1 is "dual
//!    simplex from the all-slack basis", phase 2 the primal with real
//!    costs.
//!
//! [`solve_lp`] keeps the crate's public one-shot API; it verifies the
//! sparse solution against the original rows and falls back to the dense
//! oracle on any numerical doubt, so callers can never observe a wrong
//! answer from the fast path.

use crate::lp::{LinearProgram, LpOutcome, Sense};

/// General numerical tolerance (zero tests).
const EPS: f64 = 1e-9;
/// Primal feasibility tolerance on bound violations.
const FEAS_TOL: f64 = 1e-7;
/// Dual feasibility tolerance on reduced costs.
const DUAL_TOL: f64 = 1e-7;
/// Minimum acceptable pivot magnitude.
const PIV_TOL: f64 = 1e-8;
/// Refactorize the basis inverse after this many product-form updates.
const REFACTOR_EVERY: usize = 96;

/// Nonbasic at its lower bound.
const AT_LOWER: u8 = 0;
/// Nonbasic at its upper bound.
const AT_UPPER: u8 = 1;
/// Basic.
const BASIC: u8 = 2;

/// Solves `lp` with the sparse bounded-variable simplex, verifying the
/// result and falling back to the dense oracle on numerical trouble.
///
/// ```
/// use pdftsp_solver::{Constraint, LinearProgram, solve_lp};
///
/// // max 3x + 5y  s.t.  x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18
/// let mut lp = LinearProgram::new(2);
/// lp.objective = vec![3.0, 5.0];
/// lp.constraints = vec![
///     Constraint::le(vec![(0, 1.0)], 4.0),
///     Constraint::le(vec![(1, 2.0)], 12.0),
///     Constraint::le(vec![(0, 3.0), (1, 2.0)], 18.0),
/// ];
/// let opt = solve_lp(&lp).objective().unwrap();
/// assert!((opt - 36.0).abs() < 1e-6);
/// ```
#[must_use]
pub fn solve_lp(lp: &LinearProgram) -> LpOutcome {
    let sp = SparseLp::from_lp(lp);
    if sp.infeasible {
        return LpOutcome::Infeasible;
    }
    let mut solver = BoundedSolver::new(&sp);
    match solver.solve_from(None) {
        SolveEnd::Optimal => {
            let x = solver.extract_x();
            if lp.feasible(&x, 1e-6) {
                let objective = lp.objective_value(&x);
                LpOutcome::Optimal { x, objective }
            } else {
                crate::dense::solve_lp_dense(lp)
            }
        }
        SolveEnd::Infeasible => LpOutcome::Infeasible,
        SolveEnd::Unbounded => LpOutcome::Unbounded,
        SolveEnd::Numeric => crate::dense::solve_lp_dense(lp),
    }
}

/// Bound-folded sparse form of a [`LinearProgram`].
///
/// Structural rows (≥ 2 nonzeros) are kept column-major (CSC — every hot
/// kernel walks columns); singleton rows
/// become entries of `lb`/`ub`. Variable `n + i` is row `i`'s slack, with
/// sense-derived bounds. `infeasible` is set when bound folding alone
/// proves infeasibility (contradictory singletons or a violated constant
/// row).
#[derive(Debug, Clone)]
pub struct SparseLp {
    /// Structural variable count.
    pub n: usize,
    /// Surviving (multi-variable) row count.
    pub m: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    cvals: Vec<f64>,
    rhs: Vec<f64>,
    /// Per-row slack bounds (from the sense).
    slack_lb: Vec<f64>,
    slack_ub: Vec<f64>,
    /// Folded structural bounds.
    pub lb: Vec<f64>,
    pub ub: Vec<f64>,
    obj: Vec<f64>,
    /// Bound folding alone proved infeasibility.
    pub infeasible: bool,
}

impl SparseLp {
    /// Builds the bound-folded sparse form of `lp`.
    #[must_use]
    pub fn from_lp(lp: &LinearProgram) -> SparseLp {
        let n = lp.num_vars;
        let mut lb = vec![0.0f64; n];
        let mut ub = vec![f64::INFINITY; n];
        let mut infeasible = false;

        // Partition rows: constant → check, singleton → bound, rest → keep.
        let mut kept: Vec<&crate::lp::Constraint> = Vec::with_capacity(lp.constraints.len());
        for c in &lp.constraints {
            let mut nz = 0usize;
            let mut single = (0usize, 0.0f64);
            for &(j, a) in &c.coeffs {
                if a.abs() > EPS {
                    nz += 1;
                    single = (j, a);
                }
            }
            match nz {
                0 => {
                    let holds = match c.sense {
                        Sense::Le => 0.0 <= c.rhs + FEAS_TOL,
                        Sense::Ge => 0.0 >= c.rhs - FEAS_TOL,
                        Sense::Eq => c.rhs.abs() <= FEAS_TOL,
                    };
                    if !holds {
                        infeasible = true;
                    }
                }
                1 => {
                    let (j, a) = single;
                    let v = c.rhs / a;
                    match (c.sense, a > 0.0) {
                        (Sense::Le, true) | (Sense::Ge, false) => ub[j] = ub[j].min(v),
                        (Sense::Ge, true) | (Sense::Le, false) => lb[j] = lb[j].max(v),
                        (Sense::Eq, _) => {
                            lb[j] = lb[j].max(v);
                            ub[j] = ub[j].min(v);
                        }
                    }
                }
                _ => kept.push(c),
            }
        }
        for j in 0..n {
            if lb[j] > ub[j] + FEAS_TOL {
                infeasible = true;
            }
        }

        let m = kept.len();
        let mut row_ptr = Vec::with_capacity(m + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        let mut rhs = Vec::with_capacity(m);
        let mut slack_lb = Vec::with_capacity(m);
        let mut slack_ub = Vec::with_capacity(m);
        row_ptr.push(0);
        for c in &kept {
            for &(j, a) in &c.coeffs {
                if a.abs() > EPS {
                    debug_assert!(j < n, "coefficient index out of range");
                    col_idx.push(j as u32);
                    vals.push(a);
                }
            }
            row_ptr.push(col_idx.len());
            rhs.push(c.rhs);
            let (sl, su) = match c.sense {
                Sense::Le => (0.0, f64::INFINITY),
                Sense::Ge => (f64::NEG_INFINITY, 0.0),
                Sense::Eq => (0.0, 0.0),
            };
            slack_lb.push(sl);
            slack_ub.push(su);
        }

        // CSC by column counting.
        let nnz = vals.len();
        let mut counts = vec![0usize; n + 1];
        for &j in &col_idx {
            counts[j as usize + 1] += 1;
        }
        for j in 0..n {
            counts[j + 1] += counts[j];
        }
        let col_ptr = counts.clone();
        let mut fill = counts;
        let mut row_idx = vec![0u32; nnz];
        let mut cvals = vec![0.0f64; nnz];
        for i in 0..m {
            for k in row_ptr[i]..row_ptr[i + 1] {
                let j = col_idx[k] as usize;
                row_idx[fill[j]] = i as u32;
                cvals[fill[j]] = vals[k];
                fill[j] += 1;
            }
        }

        SparseLp {
            n,
            m,
            col_ptr,
            row_idx,
            cvals,
            rhs,
            slack_lb,
            slack_ub,
            lb,
            ub,
            obj: lp.objective.clone(),
            infeasible,
        }
    }

    /// Structural column `j` as `(row, val)` pairs.
    #[inline]
    fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        self.row_idx[lo..hi]
            .iter()
            .zip(&self.cvals[lo..hi])
            .map(|(&i, &v)| (i as usize, v))
    }
}

/// A simplex basis: which variable is basic in each row, plus the bound
/// status of every variable (structural then slack). Cheap to clone and
/// store on branch-and-bound nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    /// Basic variable of each row (`< n` structural, else slack `n + i`).
    pub basic: Vec<u32>,
    /// Per-variable status (`n + m` entries): 0 = at lower, 1 = at upper,
    /// 2 = basic.
    pub status: Vec<u8>,
}

/// Terminal state of a bounded solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveEnd {
    /// Optimal basic solution reached; query [`BoundedSolver::extract_x`].
    Optimal,
    /// The current bounds admit no feasible point.
    Infeasible,
    /// The objective is unbounded above.
    Unbounded,
    /// Iteration limit or singular basis — caller should fall back to the
    /// dense oracle.
    Numeric,
}

/// Per-solver work statistics, surfaced into `pdftsp-telemetry` counters
/// by the MILP engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveStats {
    /// Simplex pivots executed (primal + dual).
    pub pivots: u64,
    /// Warm-started solves attempted (`solve_from(Some)` / `reoptimize`).
    pub warm_attempts: u64,
    /// Warm attempts that finished without a cold restart.
    pub warm_hits: u64,
}

/// Saved mutable state of a [`BoundedSolver`], for cheap restore between
/// the two children of a branch-and-bound node.
#[derive(Debug, Clone)]
pub struct SolverSnapshot {
    lb: Vec<f64>,
    ub: Vec<f64>,
    status: Vec<u8>,
    basic: Vec<u32>,
    binv: Vec<f64>,
    xb: Vec<f64>,
    since_factor: usize,
}

/// Revised bounded-variable simplex over one [`SparseLp`].
///
/// Holds the effective bounds (mutable, for branching), the basis, an
/// explicit dense basis inverse, and all scratch vectors — one allocation
/// per solver, reused across every warm re-solve.
#[derive(Debug)]
pub struct BoundedSolver<'a> {
    sp: &'a SparseLp,
    /// Total variables: structural `n` + one slack per row.
    nt: usize,
    /// Effective bounds (base bounds ∩ branching decisions), length `nt`.
    lb: Vec<f64>,
    ub: Vec<f64>,
    status: Vec<u8>,
    basic: Vec<u32>,
    /// Row-major `m × m` basis inverse.
    binv: Vec<f64>,
    /// Values of the basic variables, by row.
    xb: Vec<f64>,
    /// Scratch: simplex multipliers `y = c_B B⁻¹`.
    y: Vec<f64>,
    /// Scratch: FTRAN result `w = B⁻¹ A_q`.
    w: Vec<f64>,
    /// Scratch for right-hand-side assembly.
    t: Vec<f64>,
    since_factor: usize,
    /// Work statistics for telemetry.
    pub stats: SolveStats,
}

/// Outcome of one primal loop.
enum PrimalEnd {
    Done,
    Unbounded,
    Iter,
}

/// Outcome of one dual loop.
enum DualEnd {
    Feasible,
    Infeasible,
    Iter,
}

impl<'a> BoundedSolver<'a> {
    /// New solver over `sp` with base bounds and no basis installed.
    #[must_use]
    pub fn new(sp: &'a SparseLp) -> Self {
        let (n, m) = (sp.n, sp.m);
        let nt = n + m;
        let mut lb = Vec::with_capacity(nt);
        let mut ub = Vec::with_capacity(nt);
        lb.extend_from_slice(&sp.lb);
        ub.extend_from_slice(&sp.ub);
        lb.extend_from_slice(&sp.slack_lb);
        ub.extend_from_slice(&sp.slack_ub);
        BoundedSolver {
            sp,
            nt,
            lb,
            ub,
            status: vec![AT_LOWER; nt],
            basic: vec![0; m],
            binv: vec![0.0; m * m],
            xb: vec![0.0; m],
            y: vec![0.0; m],
            w: vec![0.0; m],
            t: vec![0.0; m],
            since_factor: 0,
            stats: SolveStats::default(),
        }
    }

    /// Intersects variable `var`'s effective bounds with `[lo, hi]`.
    pub fn tighten_bound(&mut self, var: usize, lo: f64, hi: f64) {
        self.lb[var] = self.lb[var].max(lo);
        self.ub[var] = self.ub[var].min(hi);
    }

    /// The current basis (for storing on a branch-and-bound node).
    #[must_use]
    pub fn basis(&self) -> Basis {
        Basis {
            basic: self.basic.clone(),
            status: self.status.clone(),
        }
    }

    /// Saves the mutable solver state.
    #[must_use]
    pub fn snapshot(&self) -> SolverSnapshot {
        SolverSnapshot {
            lb: self.lb.clone(),
            ub: self.ub.clone(),
            status: self.status.clone(),
            basic: self.basic.clone(),
            binv: self.binv.clone(),
            xb: self.xb.clone(),
            since_factor: self.since_factor,
        }
    }

    /// Restores a previously saved state (bounds, basis, factorization).
    pub fn restore(&mut self, s: &SolverSnapshot) {
        self.lb.clone_from(&s.lb);
        self.ub.clone_from(&s.ub);
        self.status.clone_from(&s.status);
        self.basic.clone_from(&s.basic);
        self.binv.clone_from(&s.binv);
        self.xb.clone_from(&s.xb);
        self.since_factor = s.since_factor;
    }

    /// Value of nonbasic variable `j` (the bound it currently sits at).
    #[inline]
    fn val(&self, j: usize) -> f64 {
        if self.status[j] == AT_UPPER {
            self.ub[j]
        } else {
            self.lb[j]
        }
    }

    /// Installs `b` as the current basis. Returns `false` when the basis
    /// is structurally unusable (wrong shape, or a nonbasic status
    /// pointing at an infinite bound that the other side can't absorb).
    pub fn install(&mut self, b: &Basis) -> bool {
        if b.basic.len() != self.sp.m || b.status.len() != self.nt {
            return false;
        }
        let mut basics = 0usize;
        for &s in &b.status {
            if s == BASIC {
                basics += 1;
            }
        }
        if basics != self.sp.m {
            return false;
        }
        for &j in &b.basic {
            if j as usize >= self.nt || b.status[j as usize] != BASIC {
                return false;
            }
        }
        self.basic.copy_from_slice(&b.basic);
        self.status.copy_from_slice(&b.status);
        // Repair nonbasic statuses that reference an infinite bound.
        for j in 0..self.nt {
            match self.status[j] {
                AT_LOWER if self.lb[j].is_infinite() => {
                    if self.ub[j].is_finite() {
                        self.status[j] = AT_UPPER;
                    } else {
                        return false;
                    }
                }
                AT_UPPER if self.ub[j].is_infinite() => {
                    if self.lb[j].is_finite() {
                        self.status[j] = AT_LOWER;
                    } else {
                        return false;
                    }
                }
                _ => {}
            }
        }
        true
    }

    /// All-slack basis: `B = I`, every structural variable at a finite
    /// bound (lower when finite, else upper).
    fn install_slack_basis(&mut self) {
        for j in 0..self.sp.n {
            self.status[j] = if self.lb[j].is_finite() {
                AT_LOWER
            } else {
                AT_UPPER
            };
        }
        for i in 0..self.sp.m {
            self.basic[i] = (self.sp.n + i) as u32;
            self.status[self.sp.n + i] = BASIC;
        }
        self.binv.fill(0.0);
        for i in 0..self.sp.m {
            self.binv[i * self.sp.m + i] = 1.0;
        }
        self.since_factor = 0;
    }

    /// Rebuilds the dense basis inverse by Gauss-Jordan with partial
    /// pivoting on `[B | I]`. `Err` on a (numerically) singular basis.
    #[allow(clippy::result_unit_err)]
    pub fn factorize(&mut self) -> Result<(), ()> {
        let m = self.sp.m;
        if m == 0 {
            self.since_factor = 0;
            return Ok(());
        }
        let stride = 2 * m;
        let mut aug = vec![0.0f64; m * stride];
        for (r, &bj) in self.basic.iter().enumerate() {
            let j = bj as usize;
            if j < self.sp.n {
                for (i, v) in self.sp.col(j) {
                    aug[i * stride + r] = v;
                }
            } else {
                aug[(j - self.sp.n) * stride + r] = 1.0;
            }
        }
        for i in 0..m {
            aug[i * stride + m + i] = 1.0;
        }
        for col in 0..m {
            // Partial pivot.
            let mut p = col;
            let mut best = aug[col * stride + col].abs();
            for r in col + 1..m {
                let v = aug[r * stride + col].abs();
                if v > best {
                    best = v;
                    p = r;
                }
            }
            if best <= 1e-10 {
                return Err(());
            }
            if p != col {
                for k in 0..stride {
                    aug.swap(col * stride + k, p * stride + k);
                }
            }
            let inv = 1.0 / aug[col * stride + col];
            for k in 0..stride {
                aug[col * stride + k] *= inv;
            }
            let pivot_row: Vec<f64> = aug[col * stride..(col + 1) * stride].to_vec();
            for r in 0..m {
                if r == col {
                    continue;
                }
                let f = aug[r * stride + col];
                if f != 0.0 {
                    let base = r * stride;
                    for (k, &pv) in pivot_row.iter().enumerate() {
                        aug[base + k] -= f * pv;
                    }
                }
            }
        }
        for i in 0..m {
            self.binv[i * m..(i + 1) * m].copy_from_slice(&aug[i * stride + m..i * stride + 2 * m]);
        }
        self.since_factor = 0;
        Ok(())
    }

    /// Recomputes `xb = B⁻¹ (b − N x_N)` from the nonbasic statuses.
    pub fn compute_xb(&mut self) {
        let m = self.sp.m;
        self.t.copy_from_slice(&self.sp.rhs);
        for j in 0..self.nt {
            if self.status[j] == BASIC {
                continue;
            }
            let v = self.val(j);
            if v == 0.0 {
                continue;
            }
            if j < self.sp.n {
                for (i, a) in self.sp.col(j) {
                    self.t[i] -= a * v;
                }
            } else {
                self.t[j - self.sp.n] -= v;
            }
        }
        for i in 0..m {
            let row = &self.binv[i * m..(i + 1) * m];
            let mut acc = 0.0;
            for (bv, tv) in row.iter().zip(&self.t) {
                acc += bv * tv;
            }
            self.xb[i] = acc;
        }
    }

    /// Simplex multipliers `y = c_B B⁻¹` for the real (`true`) or zero
    /// (`false`) cost vector.
    fn compute_y(&mut self, real: bool) {
        let m = self.sp.m;
        self.y.fill(0.0);
        if !real {
            return;
        }
        for (k, &bj) in self.basic.iter().enumerate() {
            let j = bj as usize;
            let c = if j < self.sp.n { self.sp.obj[j] } else { 0.0 };
            if c != 0.0 {
                let row = &self.binv[k * m..(k + 1) * m];
                for (yi, bv) in self.y.iter_mut().zip(row) {
                    *yi += c * bv;
                }
            }
        }
    }

    /// Reduced cost `d_j = c_j − y·A_j` under the cost vector matching the
    /// last [`Self::compute_y`].
    #[inline]
    fn reduced_cost(&self, j: usize, real: bool) -> f64 {
        if j < self.sp.n {
            let mut d = if real { self.sp.obj[j] } else { 0.0 };
            for (i, a) in self.sp.col(j) {
                d -= self.y[i] * a;
            }
            d
        } else {
            -self.y[j - self.sp.n]
        }
    }

    /// FTRAN: `w = B⁻¹ A_q`.
    fn ftran(&mut self, q: usize) {
        let m = self.sp.m;
        if q < self.sp.n {
            let lo = self.sp.col_ptr[q];
            let hi = self.sp.col_ptr[q + 1];
            let rows = &self.sp.row_idx[lo..hi];
            let avals = &self.sp.cvals[lo..hi];
            for i in 0..m {
                let row = &self.binv[i * m..(i + 1) * m];
                let mut acc = 0.0;
                for (&r, &a) in rows.iter().zip(avals) {
                    acc += row[r as usize] * a;
                }
                self.w[i] = acc;
            }
        } else {
            let r = q - self.sp.n;
            for i in 0..m {
                self.w[i] = self.binv[i * m + r];
            }
        }
    }

    /// Product-form update of `B⁻¹` and bookkeeping after variable `q`
    /// enters at row `r` (with `w = B⁻¹ A_q` already in `self.w`).
    fn pivot_update(&mut self, r: usize, q: usize, new_val: f64, leave_to_upper: bool) {
        let m = self.sp.m;
        let lv = self.basic[r] as usize;
        self.status[lv] = if leave_to_upper { AT_UPPER } else { AT_LOWER };
        self.basic[r] = q as u32;
        self.status[q] = BASIC;
        let wr = self.w[r];
        let inv = 1.0 / wr;
        for k in 0..m {
            self.binv[r * m + k] *= inv;
        }
        // Eta update: rows i ≠ r subtract w_i × (scaled pivot row); the
        // pivot row is staged in the rhs scratch to sidestep aliasing.
        self.t.copy_from_slice(&self.binv[r * m..r * m + m]);
        for i in 0..m {
            if i == r {
                continue;
            }
            let f = self.w[i];
            if f != 0.0 {
                let base = i * m;
                for (k, &pv) in self.t.iter().enumerate() {
                    self.binv[base + k] -= f * pv;
                }
            }
        }
        self.xb[r] = new_val;
        self.stats.pivots += 1;
        self.since_factor += 1;
    }

    /// Primal simplex on the current (primal-feasible) basis with the
    /// real cost vector. Dantzig pricing, Bland's rule after a stall.
    fn primal(&mut self) -> PrimalEnd {
        let m = self.sp.m;
        let max_iters = 200 * (m + self.nt) + 2000;
        let bland_after = 20 * (m + self.nt) + 500;
        for iter in 0..max_iters {
            if self.since_factor >= REFACTOR_EVERY {
                if self.factorize().is_err() {
                    return PrimalEnd::Iter;
                }
                self.compute_xb();
            }
            let bland = iter > bland_after;
            self.compute_y(true);
            // Pricing.
            let mut q = usize::MAX;
            let mut best = DUAL_TOL;
            for j in 0..self.nt {
                if self.status[j] == BASIC || self.ub[j] - self.lb[j] <= EPS {
                    continue;
                }
                let d = self.reduced_cost(j, true);
                let gain = if self.status[j] == AT_LOWER { d } else { -d };
                if gain > best {
                    best = gain;
                    q = j;
                    if bland {
                        break;
                    }
                }
            }
            if q == usize::MAX {
                return PrimalEnd::Done;
            }
            let dir = if self.status[q] == AT_LOWER {
                1.0
            } else {
                -1.0
            };
            self.ftran(q);
            // Ratio test over basic bounds, plus the entering bound flip.
            let span_q = self.ub[q] - self.lb[q];
            let mut t_best = f64::INFINITY;
            let mut leave = usize::MAX;
            let mut leave_up = false;
            let mut leave_w = 0.0f64;
            for i in 0..m {
                let wi = dir * self.w[i];
                let bi = self.basic[i] as usize;
                let (t, up) = if wi > PIV_TOL {
                    if self.lb[bi].is_infinite() {
                        continue;
                    }
                    ((self.xb[i] - self.lb[bi]).max(0.0) / wi, false)
                } else if wi < -PIV_TOL {
                    if self.ub[bi].is_infinite() {
                        continue;
                    }
                    ((self.ub[bi] - self.xb[i]).max(0.0) / -wi, true)
                } else {
                    continue;
                };
                let better = leave == usize::MAX
                    || t < t_best - 1e-10
                    || (t < t_best + 1e-10 && self.w[i].abs() > leave_w.abs());
                if better {
                    t_best = t;
                    leave = i;
                    leave_up = up;
                    leave_w = self.w[i];
                }
            }
            if span_q <= t_best {
                if span_q.is_infinite() {
                    return PrimalEnd::Unbounded;
                }
                // Bound flip: no basis change.
                for i in 0..m {
                    self.xb[i] -= dir * span_q * self.w[i];
                }
                self.status[q] = if self.status[q] == AT_LOWER {
                    AT_UPPER
                } else {
                    AT_LOWER
                };
                self.stats.pivots += 1;
                continue;
            }
            let t = t_best;
            let new_val = self.val(q) + dir * t;
            for i in 0..m {
                if i != leave {
                    self.xb[i] -= dir * t * self.w[i];
                }
            }
            self.pivot_update(leave, q, new_val, leave_up);
        }
        PrimalEnd::Iter
    }

    /// Dual simplex on the current (dual-feasible) basis; drives out
    /// bound violations of basic variables. `real` selects the cost
    /// vector (`false` = the zero-cost phase-1 trick: with `c = 0` every
    /// basis is dual feasible).
    fn dual(&mut self, real: bool) -> DualEnd {
        let m = self.sp.m;
        let max_iters = 200 * (m + self.nt) + 2000;
        let bland_after = 20 * (m + self.nt) + 500;
        for iter in 0..max_iters {
            if self.since_factor >= REFACTOR_EVERY {
                if self.factorize().is_err() {
                    return DualEnd::Iter;
                }
                self.compute_xb();
            }
            let bland = iter > bland_after;
            // Leaving row: largest bound violation.
            let mut r = usize::MAX;
            let mut viol = FEAS_TOL;
            let mut below = false;
            for i in 0..m {
                let bi = self.basic[i] as usize;
                let under = self.lb[bi] - self.xb[i];
                if under > viol {
                    viol = under;
                    r = i;
                    below = true;
                }
                let over = self.xb[i] - self.ub[bi];
                if over > viol {
                    viol = over;
                    r = i;
                    below = false;
                }
            }
            if r == usize::MAX {
                return DualEnd::Feasible;
            }
            self.compute_y(real);
            // Entering variable: dual ratio test along row r of B⁻¹.
            let rho_base = r * m;
            let mut q = usize::MAX;
            let mut best_ratio = f64::INFINITY;
            let mut best_alpha = 0.0f64;
            for j in 0..self.nt {
                if self.status[j] == BASIC || self.ub[j] - self.lb[j] <= EPS {
                    continue;
                }
                let alpha = if j < self.sp.n {
                    let mut a = 0.0;
                    for (i, v) in self.sp.col(j) {
                        a += self.binv[rho_base + i] * v;
                    }
                    a
                } else {
                    self.binv[rho_base + (j - self.sp.n)]
                };
                if alpha.abs() <= PIV_TOL {
                    continue;
                }
                let at_lower = self.status[j] == AT_LOWER;
                let eligible = if below {
                    (at_lower && alpha < 0.0) || (!at_lower && alpha > 0.0)
                } else {
                    (at_lower && alpha > 0.0) || (!at_lower && alpha < 0.0)
                };
                if !eligible {
                    continue;
                }
                if bland {
                    q = j;
                    break;
                }
                let ratio = self.reduced_cost(j, real).abs() / alpha.abs();
                let better = q == usize::MAX
                    || ratio < best_ratio - 1e-10
                    || (ratio < best_ratio + 1e-10 && alpha.abs() > best_alpha.abs());
                if better {
                    q = j;
                    best_ratio = ratio;
                    best_alpha = alpha;
                }
            }
            if q == usize::MAX {
                // No entering candidate can repair the violated row: the
                // bounds admit no feasible point.
                return DualEnd::Infeasible;
            }
            self.ftran(q);
            let wr = self.w[r];
            if wr.abs() <= PIV_TOL {
                // FTRAN disagrees with the row estimate — stale inverse.
                if self.since_factor == 0 || self.factorize().is_err() {
                    return DualEnd::Iter;
                }
                self.compute_xb();
                continue;
            }
            let bi = self.basic[r] as usize;
            let target = if below { self.lb[bi] } else { self.ub[bi] };
            let delta = (self.xb[r] - target) / wr;
            for i in 0..m {
                if i != r {
                    self.xb[i] -= delta * self.w[i];
                }
            }
            let new_val = self.val(q) + delta;
            self.pivot_update(r, q, new_val, !below);
        }
        DualEnd::Iter
    }

    /// Flips nonbasic variables whose reduced cost violates dual
    /// feasibility to their other (finite) bound. Returns `false` when a
    /// violation cannot be repaired (the other bound is infinite).
    fn fix_dual_infeasibilities(&mut self) -> bool {
        self.compute_y(true);
        for j in 0..self.nt {
            if self.status[j] == BASIC || self.ub[j] - self.lb[j] <= EPS {
                continue;
            }
            let d = self.reduced_cost(j, true);
            if self.status[j] == AT_LOWER && d > DUAL_TOL {
                if self.ub[j].is_finite() {
                    self.status[j] = AT_UPPER;
                } else {
                    return false;
                }
            } else if self.status[j] == AT_UPPER && d < -DUAL_TOL {
                if self.lb[j].is_finite() {
                    self.status[j] = AT_LOWER;
                } else {
                    return false;
                }
            }
        }
        true
    }

    /// Checks effective bounds for contradictions.
    fn bounds_consistent(&self) -> bool {
        (0..self.nt).all(|j| self.lb[j] <= self.ub[j] + FEAS_TOL)
    }

    /// Full solve: warm from `basis` when given (falling back to cold on
    /// any trouble), else cold (zero-cost dual phase 1 from the all-slack
    /// basis, then primal with real costs).
    pub fn solve_from(&mut self, warm: Option<&Basis>) -> SolveEnd {
        if self.sp.infeasible || !self.bounds_consistent() {
            return SolveEnd::Infeasible;
        }
        if let Some(b) = warm {
            self.stats.warm_attempts += 1;
            if self.install(b) && self.factorize().is_ok() {
                self.compute_xb();
                if self.fix_dual_infeasibilities() {
                    self.compute_xb();
                    match self.dual(true) {
                        DualEnd::Feasible => match self.primal() {
                            PrimalEnd::Done => {
                                self.stats.warm_hits += 1;
                                return SolveEnd::Optimal;
                            }
                            PrimalEnd::Unbounded => return SolveEnd::Unbounded,
                            PrimalEnd::Iter => return self.cold(),
                        },
                        DualEnd::Infeasible => {
                            self.stats.warm_hits += 1;
                            return SolveEnd::Infeasible;
                        }
                        DualEnd::Iter => return self.cold(),
                    }
                }
            }
            return self.cold();
        }
        self.cold()
    }

    /// Re-optimizes after bound changes, reusing the installed basis and
    /// factorization (the warm path of branch-and-bound children).
    pub fn reoptimize(&mut self) -> SolveEnd {
        if !self.bounds_consistent() {
            return SolveEnd::Infeasible;
        }
        self.stats.warm_attempts += 1;
        self.compute_xb();
        if !self.fix_dual_infeasibilities() {
            return SolveEnd::Numeric;
        }
        self.compute_xb();
        match self.dual(true) {
            DualEnd::Feasible => match self.primal() {
                PrimalEnd::Done => {
                    self.stats.warm_hits += 1;
                    SolveEnd::Optimal
                }
                PrimalEnd::Unbounded => SolveEnd::Unbounded,
                PrimalEnd::Iter => SolveEnd::Numeric,
            },
            DualEnd::Infeasible => {
                self.stats.warm_hits += 1;
                SolveEnd::Infeasible
            }
            DualEnd::Iter => SolveEnd::Numeric,
        }
    }

    /// Cold start: all-slack basis, zero-cost dual phase 1, real-cost
    /// primal phase 2.
    fn cold(&mut self) -> SolveEnd {
        if !self.bounds_consistent() {
            return SolveEnd::Infeasible;
        }
        self.install_slack_basis();
        self.compute_xb();
        match self.dual(false) {
            DualEnd::Feasible => {}
            DualEnd::Infeasible => return SolveEnd::Infeasible,
            DualEnd::Iter => return SolveEnd::Numeric,
        }
        match self.primal() {
            PrimalEnd::Done => SolveEnd::Optimal,
            PrimalEnd::Unbounded => SolveEnd::Unbounded,
            PrimalEnd::Iter => SolveEnd::Numeric,
        }
    }

    /// Structural solution of the last optimal solve, clamped into the
    /// effective bounds (and `≥ 0`).
    #[must_use]
    pub fn extract_x(&self) -> Vec<f64> {
        let n = self.sp.n;
        let mut x = vec![0.0f64; n];
        for (j, xv) in x.iter_mut().enumerate() {
            if self.status[j] != BASIC {
                *xv = self.val(j);
            }
        }
        for (i, &bj) in self.basic.iter().enumerate() {
            let j = bj as usize;
            if j < n {
                x[j] = self.xb[i].clamp(self.lb[j], self.ub[j].max(self.lb[j]));
            }
        }
        for v in &mut x {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        x
    }

    /// Objective value of [`Self::extract_x`] under the problem's costs.
    #[must_use]
    pub fn objective(&self) -> f64 {
        let x = self.extract_x();
        self.sp.obj.iter().zip(&x).map(|(c, v)| c * v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::Constraint;

    fn assert_opt(outcome: &LpOutcome, expect: f64) {
        match outcome {
            LpOutcome::Optimal { objective, .. } => {
                assert!(
                    (objective - expect).abs() < 1e-6,
                    "objective {objective}, expected {expect}"
                );
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn textbook_2d_max() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → opt 36 at (2, 6).
        let mut lp = LinearProgram::new(2);
        lp.objective = vec![3.0, 5.0];
        lp.constraints = vec![
            Constraint::le(vec![(0, 1.0)], 4.0),
            Constraint::le(vec![(1, 2.0)], 12.0),
            Constraint::le(vec![(0, 3.0), (1, 2.0)], 18.0),
        ];
        let out = solve_lp(&lp);
        assert_opt(&out, 36.0);
        let x = out.solution().unwrap();
        assert!((x[0] - 2.0).abs() < 1e-6 && (x[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn ge_and_eq_rows_need_phase_one() {
        // max x + y s.t. x + y ≤ 10, x ≥ 2, y = 3 → opt at (7, 3) = 10.
        let mut lp = LinearProgram::new(2);
        lp.objective = vec![1.0, 1.0];
        lp.constraints = vec![
            Constraint::le(vec![(0, 1.0), (1, 1.0)], 10.0),
            Constraint::ge(vec![(0, 1.0)], 2.0),
            Constraint::eq(vec![(1, 1.0)], 3.0),
        ];
        assert_opt(&solve_lp(&lp), 10.0);
    }

    #[test]
    fn infeasible_detected() {
        // x ≤ 1 and x ≥ 2.
        let mut lp = LinearProgram::new(1);
        lp.objective = vec![1.0];
        lp.constraints = vec![
            Constraint::le(vec![(0, 1.0)], 1.0),
            Constraint::ge(vec![(0, 1.0)], 2.0),
        ];
        assert_eq!(solve_lp(&lp), LpOutcome::Infeasible);
    }

    #[test]
    fn multi_row_infeasibility_detected() {
        // x + y ≥ 5 with x + y ≤ 2: no singleton rows, so the dual-simplex
        // certificate (not bound folding) must fire.
        let mut lp = LinearProgram::new(2);
        lp.objective = vec![1.0, 1.0];
        lp.constraints = vec![
            Constraint::ge(vec![(0, 1.0), (1, 1.0)], 5.0),
            Constraint::le(vec![(0, 1.0), (1, 1.0)], 2.0),
        ];
        assert_eq!(solve_lp(&lp), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // max x with only x ≥ 1.
        let mut lp = LinearProgram::new(1);
        lp.objective = vec![1.0];
        lp.constraints = vec![Constraint::ge(vec![(0, 1.0)], 1.0)];
        assert_eq!(solve_lp(&lp), LpOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // max x s.t. −x ≥ −5  (i.e. x ≤ 5).
        let mut lp = LinearProgram::new(1);
        lp.objective = vec![1.0];
        lp.constraints = vec![Constraint::ge(vec![(0, -1.0)], -5.0)];
        assert_opt(&solve_lp(&lp), 5.0);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degenerate corner: multiple rows active at origin.
        let mut lp = LinearProgram::new(2);
        lp.objective = vec![1.0, 1.0];
        lp.constraints = vec![
            Constraint::le(vec![(0, 1.0), (1, 1.0)], 1.0),
            Constraint::le(vec![(0, 1.0), (1, 1.0)], 1.0),
            Constraint::le(vec![(0, 2.0), (1, 2.0)], 2.0),
            Constraint::le(vec![(0, 1.0)], 1.0),
        ];
        assert_opt(&solve_lp(&lp), 1.0);
    }

    #[test]
    fn fractional_knapsack_relaxation() {
        // max 10a + 6b + 4c s.t. a + b + c ≤ 1.5, all ≤ 1 →  a=1, b=0.5.
        let mut lp = LinearProgram::new(3);
        lp.objective = vec![10.0, 6.0, 4.0];
        lp.constraints = vec![Constraint::le(vec![(0, 1.0), (1, 1.0), (2, 1.0)], 1.5)];
        lp.bound_rows([(0, 1.0), (1, 1.0), (2, 1.0)]);
        assert_opt(&solve_lp(&lp), 13.0);
    }

    #[test]
    fn zero_constraint_lp_with_bounds() {
        let mut lp = LinearProgram::new(2);
        lp.objective = vec![2.0, 3.0];
        lp.bound_rows([(0, 4.0), (1, 5.0)]);
        assert_opt(&solve_lp(&lp), 23.0);
    }

    #[test]
    fn equality_system_solves_exactly() {
        // x + y = 4; x − y = 2 → (3, 1); max x + 2y = 5.
        let mut lp = LinearProgram::new(2);
        lp.objective = vec![1.0, 2.0];
        lp.constraints = vec![
            Constraint::eq(vec![(0, 1.0), (1, 1.0)], 4.0),
            Constraint::eq(vec![(0, 1.0), (1, -1.0)], 2.0),
        ];
        let out = solve_lp(&lp);
        assert_opt(&out, 5.0);
        let x = out.solution().unwrap();
        assert!((x[0] - 3.0).abs() < 1e-6 && (x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn redundant_equality_rows_are_tolerated() {
        // Same equality twice; the second row is linearly dependent.
        let mut lp = LinearProgram::new(2);
        lp.objective = vec![1.0, 0.0];
        lp.constraints = vec![
            Constraint::eq(vec![(0, 1.0), (1, 1.0)], 2.0),
            Constraint::eq(vec![(0, 1.0), (1, 1.0)], 2.0),
            Constraint::le(vec![(0, 1.0)], 1.5),
        ];
        assert_opt(&solve_lp(&lp), 1.5);
    }

    #[test]
    fn solution_is_feasible_for_random_instances() {
        // Deterministic pseudo-random LPs; checks feasibility + local
        // optimality vs. sampled feasible points.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _case in 0..50 {
            let n = 3 + (next() * 4.0) as usize;
            let m = 2 + (next() * 5.0) as usize;
            let mut lp = LinearProgram::new(n);
            lp.objective = (0..n).map(|_| next() * 4.0 - 1.0).collect();
            for _ in 0..m {
                let coeffs = (0..n).map(|j| (j, next() * 2.0)).collect();
                lp.constraints
                    .push(Constraint::le(coeffs, 1.0 + next() * 5.0));
            }
            lp.bound_rows((0..n).map(|j| (j, 1.0 + next() * 2.0)));
            match solve_lp(&lp) {
                LpOutcome::Optimal { x, objective } => {
                    assert!(lp.feasible(&x, 1e-6), "infeasible solution returned");
                    // Compare against random feasible points (rejection
                    // sampling in the box, scaled down to satisfy rows).
                    for _ in 0..30 {
                        let cand: Vec<f64> = (0..n).map(|_| next()).collect();
                        if lp.feasible(&cand, 1e-9) {
                            assert!(
                                lp.objective_value(&cand) <= objective + 1e-6,
                                "sampled point beats 'optimum'"
                            );
                        }
                    }
                }
                other => panic!("random box LP must be solvable, got {other:?}"),
            }
        }
    }

    #[test]
    fn sparse_matches_dense_on_random_mixed_sense_instances() {
        // Differential against the retained dense oracle, including ≥/=
        // rows (phase-1 territory) and possible infeasibility.
        let mut state = 0xA5E1_77C3_19B4_02DDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for case in 0..60 {
            let n = 2 + (next() * 5.0) as usize;
            let m = 1 + (next() * 5.0) as usize;
            let mut lp = LinearProgram::new(n);
            lp.objective = (0..n).map(|_| next() * 4.0 - 1.0).collect();
            for _ in 0..m {
                let mut coeffs: Vec<(usize, f64)> = Vec::new();
                for j in 0..n {
                    if next() < 0.8 {
                        coeffs.push((j, next() * 3.0 - 0.5));
                    }
                }
                let rhs = next() * 4.0 - 0.5;
                let r = next();
                lp.constraints.push(if r < 0.6 {
                    Constraint::le(coeffs, rhs.abs() + 0.5)
                } else if r < 0.85 {
                    Constraint::ge(coeffs, rhs * 0.5)
                } else {
                    Constraint::eq(coeffs, rhs.abs() * 0.5)
                });
            }
            lp.bound_rows((0..n).map(|j| (j, 0.5 + next() * 2.0)));
            let sparse = solve_lp(&lp);
            let dense = crate::dense::solve_lp_dense(&lp);
            match (&sparse, &dense) {
                (
                    LpOutcome::Optimal { objective: a, .. },
                    LpOutcome::Optimal { objective: b, .. },
                ) => {
                    assert!((a - b).abs() < 1e-5, "case {case}: sparse {a} vs dense {b}");
                }
                (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
                // The dense oracle can hit its iteration limit; the sparse
                // path must still be individually sound (checked above).
                (_, LpOutcome::IterationLimit) | (LpOutcome::IterationLimit, _) => {}
                (s, d) => panic!("case {case}: sparse {s:?} vs dense {d:?}"),
            }
        }
    }

    #[test]
    fn warm_start_reoptimizes_after_bound_change() {
        // Knapsack-relaxation LP; solve, then branch x0 ≤ 0 and x0 ≥ 1
        // via warm re-optimization, checking against fresh solves.
        let mut lp = LinearProgram::new(3);
        lp.objective = vec![10.0, 6.0, 4.0];
        lp.constraints = vec![Constraint::le(vec![(0, 1.0), (1, 1.0), (2, 1.0)], 1.5)];
        lp.bound_rows([(0, 1.0), (1, 1.0), (2, 1.0)]);
        let sp = SparseLp::from_lp(&lp);
        let mut s = BoundedSolver::new(&sp);
        assert_eq!(s.solve_from(None), SolveEnd::Optimal);
        assert!((s.objective() - 13.0).abs() < 1e-6);
        let snap = s.snapshot();

        // Child x0 ≤ 0: best is x1 = 1, x2 = 0.5 → 8.
        s.tighten_bound(0, f64::NEG_INFINITY, 0.0);
        assert_eq!(s.reoptimize(), SolveEnd::Optimal);
        assert!((s.objective() - 8.0).abs() < 1e-6, "{}", s.objective());

        // Child x0 ≥ 1 from the snapshot: x0 = 1, x1 = 0.5 → 13.
        s.restore(&snap);
        s.tighten_bound(0, 1.0, f64::INFINITY);
        assert_eq!(s.reoptimize(), SolveEnd::Optimal);
        assert!((s.objective() - 13.0).abs() < 1e-6);
        assert_eq!(s.stats.warm_attempts, 2);
        assert_eq!(s.stats.warm_hits, 2);
    }

    #[test]
    fn warm_start_from_exported_basis() {
        let mut lp = LinearProgram::new(2);
        lp.objective = vec![3.0, 5.0];
        lp.constraints = vec![
            Constraint::le(vec![(0, 1.0)], 4.0),
            Constraint::le(vec![(1, 2.0)], 12.0),
            Constraint::le(vec![(0, 3.0), (1, 2.0)], 18.0),
        ];
        let sp = SparseLp::from_lp(&lp);
        let mut s = BoundedSolver::new(&sp);
        assert_eq!(s.solve_from(None), SolveEnd::Optimal);
        let basis = s.basis();
        let pivots_cold = s.stats.pivots;

        let mut s2 = BoundedSolver::new(&sp);
        s2.tighten_bound(0, f64::NEG_INFINITY, 1.0);
        assert_eq!(s2.solve_from(Some(&basis)), SolveEnd::Optimal);
        assert!((s2.objective() - 33.0).abs() < 1e-6, "{}", s2.objective());
        assert_eq!(s2.stats.warm_attempts, 1);
        assert_eq!(s2.stats.warm_hits, 1);
        assert!(
            s2.stats.pivots <= pivots_cold.max(2),
            "warm start should pivot less: {} vs cold {}",
            s2.stats.pivots,
            pivots_cold
        );
    }

    #[test]
    fn contradictory_branch_bounds_are_infeasible() {
        let mut lp = LinearProgram::new(1);
        lp.objective = vec![1.0];
        lp.bound_rows([(0, 1.0)]);
        let sp = SparseLp::from_lp(&lp);
        let mut s = BoundedSolver::new(&sp);
        s.tighten_bound(0, 1.0, f64::INFINITY);
        s.tighten_bound(0, f64::NEG_INFINITY, 0.0);
        assert_eq!(s.solve_from(None), SolveEnd::Infeasible);
    }
}
