//! Presolve: bound tightening and fixed-variable elimination.
//!
//! Branch-and-bound adds singleton rows (`x_j ≤ 0`, `x_j ≥ 1`) as it
//! fixes binaries, and the encoders add `x_j ≤ 1` bounds for every
//! variable — so a node LP deep in the tree carries many variables whose
//! value is already decided. Presolve folds those away before the dense
//! simplex sees the tableau:
//!
//! 1. collect per-variable implied bounds `[lb_j, ub_j]` from singleton
//!    rows (the implicit `x ≥ 0` included);
//! 2. detect infeasibility (`lb > ub`) without touching the simplex;
//! 3. substitute fixed variables (`lb = ub`) into every row and into the
//!    objective (constant offset);
//! 4. drop singleton rows that became redundant and rows with no
//!    remaining variables (checking their residual feasibility).
//!
//! The reduced LP preserves the optimum; [`Presolved::restore`] maps a
//! reduced solution back to the original variable space.

use crate::lp::{Constraint, LinearProgram, Sense};

/// Outcome of presolving.
#[derive(Debug, Clone)]
pub enum PresolveOutcome {
    /// The reduced problem plus reconstruction data.
    Reduced(Presolved),
    /// Bounds alone prove infeasibility.
    Infeasible,
}

/// A reduced LP with the bookkeeping to undo the reduction.
#[derive(Debug, Clone)]
pub struct Presolved {
    /// The reduced LP (over the surviving variables).
    pub lp: LinearProgram,
    /// For each original variable: `Ok(new_index)` if it survived,
    /// `Err(value)` if it was fixed.
    pub vars: Vec<Result<usize, f64>>,
    /// Objective contribution of the fixed variables.
    pub objective_offset: f64,
}

const EPS: f64 = 1e-9;

/// Presolves `lp`.
#[must_use]
pub fn presolve(lp: &LinearProgram) -> PresolveOutcome {
    let n = lp.num_vars;
    let mut lb = vec![0.0f64; n];
    let mut ub = vec![f64::INFINITY; n];

    // Pass 1: singleton rows tighten bounds.
    for c in &lp.constraints {
        if c.coeffs.len() != 1 {
            continue;
        }
        let (j, a) = c.coeffs[0];
        if a.abs() < EPS {
            continue;
        }
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
    for j in 0..n {
        if lb[j] > ub[j] + EPS {
            return PresolveOutcome::Infeasible;
        }
    }

    // Which variables are fixed?
    let fixed: Vec<Option<f64>> = (0..n)
        .map(|j| {
            if (ub[j] - lb[j]).abs() <= EPS {
                Some(lb[j])
            } else {
                None
            }
        })
        .collect();

    // New variable numbering. Survivors keep their original domain: any
    // non-fixing singleton bound rows (e.g. `x ≥ 0.5` in a general LP)
    // are carried through verbatim in pass 2, so no bound shifting is
    // needed here.
    let mut vars: Vec<Result<usize, f64>> = Vec::with_capacity(n);
    let mut next = 0usize;
    for f in fixed.iter().take(n) {
        match *f {
            Some(v) => vars.push(Err(v)),
            None => {
                vars.push(Ok(next));
                next += 1;
            }
        }
    }

    // Pass 2: rebuild rows with fixed variables substituted.
    let mut reduced = LinearProgram::new(next);
    for (j, v) in vars.iter().enumerate() {
        if let Ok(nj) = v {
            reduced.objective[*nj] = lp.objective[j];
        }
    }
    let objective_offset: f64 = vars
        .iter()
        .enumerate()
        .filter_map(|(j, v)| v.as_ref().err().map(|&val| lp.objective[j] * val))
        .sum();

    for c in &lp.constraints {
        let mut coeffs = Vec::with_capacity(c.coeffs.len());
        let mut rhs = c.rhs;
        for &(j, a) in &c.coeffs {
            match vars[j] {
                Ok(nj) => coeffs.push((nj, a)),
                Err(val) => rhs -= a * val,
            }
        }
        if coeffs.is_empty() {
            // Constant row: verify it holds.
            let holds = match c.sense {
                Sense::Le => 0.0 <= rhs + EPS,
                Sense::Ge => 0.0 >= rhs - EPS,
                Sense::Eq => rhs.abs() <= EPS,
            };
            if !holds {
                return PresolveOutcome::Infeasible;
            }
            continue;
        }
        // Singleton ≤ rows that merely restate x ≥ 0 are dropped.
        if coeffs.len() == 1 {
            let (_, a) = coeffs[0];
            let trivially_true = match c.sense {
                Sense::Ge => a > 0.0 && rhs <= EPS,
                Sense::Le => a < 0.0 && rhs >= -EPS,
                Sense::Eq => false,
            };
            if trivially_true {
                continue;
            }
        }
        reduced.constraints.push(Constraint {
            coeffs,
            sense: c.sense,
            rhs,
        });
    }

    PresolveOutcome::Reduced(Presolved {
        lp: reduced,
        vars,
        objective_offset,
    })
}

/// Presolve + the **dense** reference simplex: the seed-state node-LP
/// pipeline, kept bit-compatible for [`crate::milp::Milp::solve_reference`]
/// and as the fallback when the sparse path reports numerical trouble.
#[must_use]
pub fn solve_lp_presolved_dense(lp: &LinearProgram) -> crate::lp::LpOutcome {
    use crate::lp::LpOutcome;
    match presolve(lp) {
        PresolveOutcome::Infeasible => LpOutcome::Infeasible,
        PresolveOutcome::Reduced(p) => match crate::dense::solve_lp_dense(&p.lp) {
            LpOutcome::Optimal { x, objective } => LpOutcome::Optimal {
                x: p.restore(&x),
                objective: objective + p.objective_offset,
            },
            other => other,
        },
    }
}

/// Per-variable implied bounds, as produced by [`propagate_bounds`].
#[derive(Debug, Clone, PartialEq)]
pub struct VarBounds {
    /// Implied lower bounds (the implicit `x ≥ 0` included).
    pub lb: Vec<f64>,
    /// Implied upper bounds (`∞` when none).
    pub ub: Vec<f64>,
}

/// Folds singleton rows into per-variable bounds (the shared seed of
/// [`propagate_bounds`] and [`strengthen_milp`]). `None` = contradictory.
fn seed_bounds(lp: &LinearProgram) -> Option<(Vec<f64>, Vec<f64>)> {
    let n = lp.num_vars;
    let mut lb = vec![0.0f64; n];
    let mut ub = vec![f64::INFINITY; n];
    for c in &lp.constraints {
        if c.coeffs.len() != 1 {
            continue;
        }
        let (j, a) = c.coeffs[0];
        if a.abs() < EPS {
            continue;
        }
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
    for j in 0..n {
        if lb[j] > ub[j] + EPS {
            return None;
        }
    }
    Some((lb, ub))
}

/// One `≤`-direction propagation sweep of row `(coeffs, rhs)` against the
/// current bounds. Uses the standard minimum-activity argument with
/// infinite-contribution counting. Returns whether any bound moved by
/// more than the improvement threshold.
fn propagate_le_row(coeffs: &[(usize, f64)], rhs: f64, lb: &mut [f64], ub: &mut [f64]) -> bool {
    // Minimum activity: each term contributes a·lb (a > 0) or a·ub (a < 0).
    let mut min_act = 0.0f64;
    let mut inf_count = 0usize;
    for &(j, a) in coeffs {
        if a.abs() < EPS {
            continue;
        }
        let contrib = if a > 0.0 { a * lb[j] } else { a * ub[j] };
        if contrib.is_infinite() {
            inf_count += 1;
        } else {
            min_act += contrib;
        }
    }
    if inf_count > 1 {
        return false;
    }
    let mut changed = false;
    for &(j, a) in coeffs {
        if a.abs() < EPS {
            continue;
        }
        let own = if a > 0.0 { a * lb[j] } else { a * ub[j] };
        let others = if own.is_infinite() {
            if inf_count != 1 {
                continue;
            }
            min_act
        } else {
            if inf_count != 0 {
                continue;
            }
            min_act - own
        };
        let limit = (rhs - others) / a;
        if a > 0.0 {
            if limit < ub[j] - 1e-7 {
                ub[j] = limit;
                changed = true;
            }
        } else if limit > lb[j] + 1e-7 {
            lb[j] = limit;
            changed = true;
        }
    }
    changed
}

/// LP-valid bound propagation: folds singleton rows into bounds, then
/// repeatedly tightens every variable's bounds from each row's minimum
/// activity (`≥` rows are negated; `=` rows propagate both directions),
/// for at most `rounds` sweeps. Returns `None` when propagation proves
/// the LP infeasible. Every deduced bound is valid for the *relaxation*,
/// so this is safe for plain LP solves too.
#[must_use]
pub fn propagate_bounds(lp: &LinearProgram, rounds: usize) -> Option<VarBounds> {
    let (mut lb, mut ub) = seed_bounds(lp)?;
    let mut neg: Vec<(usize, f64)> = Vec::new();
    for _ in 0..rounds {
        let mut changed = false;
        for c in &lp.constraints {
            if c.coeffs.len() < 2 {
                continue;
            }
            if matches!(c.sense, Sense::Le | Sense::Eq) {
                changed |= propagate_le_row(&c.coeffs, c.rhs, &mut lb, &mut ub);
            }
            if matches!(c.sense, Sense::Ge | Sense::Eq) {
                neg.clear();
                neg.extend(c.coeffs.iter().map(|&(j, a)| (j, -a)));
                changed |= propagate_le_row(&neg, -c.rhs, &mut lb, &mut ub);
            }
        }
        for j in 0..lp.num_vars {
            if lb[j] > ub[j] + 1e-7 {
                return None;
            }
        }
        if !changed {
            break;
        }
    }
    Some(VarBounds { lb, ub })
}

/// MILP-only strengthening of the root relaxation: bound propagation with
/// integer bound rounding, plus Savelsbergh coefficient tightening of `≤`
/// rows over binary variables. The returned program has the **same
/// integer feasible set** as `lp` but a tighter LP relaxation — it must
/// never be used for plain LP solves (the relaxation changes). `None`
/// means the integer problem is infeasible.
///
/// Coefficient tightening: for a row `a_j x_j + Σ_k a_k x_k ≤ b` with
/// `x_j` binary, `a_j > 0`, and `M = max Σ_k a_k x_k` over the bounds of
/// the other variables, if `M < b < M + a_j` the row is equivalent (on
/// integer points) to `(a_j − (b − M)) x_j + Σ_k a_k x_k ≤ M`, which cuts
/// fractional points the original admits.
#[must_use]
pub fn strengthen_milp(lp: &LinearProgram, integer_vars: &[usize]) -> Option<LinearProgram> {
    let n = lp.num_vars;
    let mut is_int = vec![false; n];
    for &j in integer_vars {
        is_int[j] = true;
    }
    let (lb0, ub0) = seed_bounds(lp)?;
    let mut vb = propagate_bounds(lp, 3)?;
    // Integer rounding (valid only for the integer problem).
    for (j, &int) in is_int.iter().enumerate() {
        if int {
            vb.lb[j] = (vb.lb[j] - 1e-6).ceil();
            vb.ub[j] = (vb.ub[j] + 1e-6).floor();
            if vb.lb[j] > vb.ub[j] {
                return None;
            }
        }
    }

    let mut out = lp.clone();
    // Coefficient tightening on multi-variable ≤ rows.
    for c in &mut out.constraints {
        if c.sense != Sense::Le || c.coeffs.len() < 2 {
            continue;
        }
        // Maximum activity with infinite-contribution counting.
        let mut max_act = 0.0f64;
        let mut inf_count = 0usize;
        for &(j, a) in &c.coeffs {
            let contrib = if a > 0.0 { a * vb.ub[j] } else { a * vb.lb[j] };
            if contrib.is_infinite() {
                inf_count += 1;
            } else {
                max_act += contrib;
            }
        }
        for k in 0..c.coeffs.len() {
            let (j, a) = c.coeffs[k];
            let binary = is_int[j] && vb.lb[j] == 0.0 && vb.ub[j] == 1.0;
            if !binary || a <= EPS || inf_count > 0 {
                continue;
            }
            let m_others = max_act - a; // this var's max contribution is a·1
            if m_others < c.rhs - 1e-9 && a > c.rhs - m_others {
                let cut = c.rhs - m_others;
                c.coeffs[k].1 = a - cut;
                c.rhs = m_others;
                max_act -= cut; // both the coefficient and rhs dropped
            }
        }
    }

    // Emit bounds that improved on what singleton rows already said.
    for j in 0..n {
        if vb.lb[j] > lb0[j] + 1e-9 {
            out.constraints
                .push(Constraint::ge(vec![(j, 1.0)], vb.lb[j]));
        }
        if vb.ub[j] < ub0[j] - 1e-9 {
            out.constraints
                .push(Constraint::le(vec![(j, 1.0)], vb.ub[j]));
        }
    }
    Some(out)
}

impl Presolved {
    /// Maps a reduced-space solution back to the original variables.
    #[must_use]
    pub fn restore(&self, x_reduced: &[f64]) -> Vec<f64> {
        self.vars
            .iter()
            .map(|v| match v {
                Ok(nj) => x_reduced[*nj],
                Err(val) => *val,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::LpOutcome;
    use crate::simplex::solve_lp;

    fn assert_same_optimum(lp: &LinearProgram) {
        let direct = solve_lp(lp);
        match presolve(lp) {
            PresolveOutcome::Infeasible => {
                assert_eq!(direct, LpOutcome::Infeasible, "presolve wrongly infeasible");
            }
            PresolveOutcome::Reduced(p) => {
                let reduced = solve_lp(&p.lp);
                match (direct, reduced) {
                    (
                        LpOutcome::Optimal { objective: a, .. },
                        LpOutcome::Optimal { x, objective: b },
                    ) => {
                        assert!(
                            (a - (b + p.objective_offset)).abs() < 1e-6,
                            "direct {a} vs presolved {}",
                            b + p.objective_offset
                        );
                        let full = p.restore(&x);
                        assert!(lp.feasible(&full, 1e-6), "restored point infeasible");
                    }
                    (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
                    (d, r) => panic!("outcome mismatch: direct {d:?} vs reduced {r:?}"),
                }
            }
        }
    }

    #[test]
    fn fixing_via_branch_rows_is_eliminated() {
        // max 3x + 2y + z, x+y+z ≤ 2, bounds ≤ 1, branch rows x ≥ 1, z ≤ 0.
        let mut lp = LinearProgram::new(3);
        lp.objective = vec![3.0, 2.0, 1.0];
        lp.constraints = vec![Constraint::le(vec![(0, 1.0), (1, 1.0), (2, 1.0)], 2.0)];
        lp.bound_rows([(0, 1.0), (1, 1.0), (2, 1.0)]);
        lp.constraints.push(Constraint::ge(vec![(0, 1.0)], 1.0));
        lp.constraints.push(Constraint::le(vec![(2, 1.0)], 0.0));
        match presolve(&lp) {
            PresolveOutcome::Reduced(p) => {
                assert_eq!(p.lp.num_vars, 1, "only y should survive");
                assert!((p.objective_offset - 3.0).abs() < 1e-12);
                assert_same_optimum(&lp);
            }
            PresolveOutcome::Infeasible => panic!("feasible instance"),
        }
    }

    #[test]
    fn contradictory_branches_detected_without_simplex() {
        let mut lp = LinearProgram::new(1);
        lp.objective = vec![1.0];
        lp.bound_rows([(0, 1.0)]);
        lp.constraints.push(Constraint::ge(vec![(0, 1.0)], 1.0));
        lp.constraints.push(Constraint::le(vec![(0, 1.0)], 0.0));
        assert!(matches!(presolve(&lp), PresolveOutcome::Infeasible));
    }

    #[test]
    fn constant_rows_are_checked() {
        // Fix x = 1, then a row x ≤ 0.5 becomes the constant 1 ≤ 0.5.
        let mut lp = LinearProgram::new(2);
        lp.objective = vec![1.0, 1.0];
        lp.constraints.push(Constraint::eq(vec![(0, 1.0)], 1.0));
        lp.constraints.push(Constraint::le(vec![(0, 2.0)], 1.0));
        lp.bound_rows([(1, 1.0)]);
        assert!(matches!(presolve(&lp), PresolveOutcome::Infeasible));
    }

    #[test]
    fn multi_var_rows_get_rhs_adjusted() {
        // Fix x = 1 via equality; row x + y ≤ 1.5 must become y ≤ 0.5.
        let mut lp = LinearProgram::new(2);
        lp.objective = vec![0.0, 1.0];
        lp.constraints = vec![
            Constraint::eq(vec![(0, 1.0)], 1.0),
            Constraint::le(vec![(0, 1.0), (1, 1.0)], 1.5),
        ];
        lp.bound_rows([(1, 1.0)]);
        match presolve(&lp) {
            PresolveOutcome::Reduced(p) => {
                let out = solve_lp(&p.lp);
                assert!((out.objective().unwrap() - 0.5).abs() < 1e-9);
            }
            PresolveOutcome::Infeasible => panic!("feasible"),
        }
        assert_same_optimum(&lp);
    }

    #[test]
    fn randomized_differential_against_direct_solve() {
        let mut state = 0xDEADBEEFCAFEu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _case in 0..60 {
            let n = 3 + (next() * 5.0) as usize;
            let m = 2 + (next() * 4.0) as usize;
            let mut lp = LinearProgram::new(n);
            lp.objective = (0..n).map(|_| next() * 4.0 - 0.5).collect();
            for _ in 0..m {
                let coeffs = (0..n).map(|j| (j, next() * 2.0)).collect();
                lp.constraints
                    .push(Constraint::le(coeffs, 1.0 + next() * 4.0));
            }
            lp.bound_rows((0..n).map(|j| (j, 1.0)));
            // Random branch-style fixings on a few vars.
            for j in 0..n {
                let r = next();
                if r < 0.25 {
                    lp.constraints.push(Constraint::le(vec![(j, 1.0)], 0.0));
                } else if r < 0.4 {
                    lp.constraints.push(Constraint::ge(vec![(j, 1.0)], 1.0));
                }
            }
            assert_same_optimum(&lp);
        }
    }

    #[test]
    fn bound_propagation_tightens_from_row_activity() {
        // x + y ≤ 1 with loose explicit bounds x, y ≤ 5: minimum activity
        // of the other variable is 0, so both upper bounds drop to 1.
        let mut lp = LinearProgram::new(2);
        lp.objective = vec![1.0, 1.0];
        lp.constraints = vec![Constraint::le(vec![(0, 1.0), (1, 1.0)], 1.0)];
        lp.bound_rows([(0, 5.0), (1, 5.0)]);
        let vb = propagate_bounds(&lp, 3).expect("feasible");
        assert!((vb.ub[0] - 1.0).abs() < 1e-9, "ub[0] = {}", vb.ub[0]);
        assert!((vb.ub[1] - 1.0).abs() < 1e-9);
        assert_eq!(vb.lb, vec![0.0, 0.0]);
    }

    #[test]
    fn bound_propagation_proves_infeasibility() {
        // x + y ≥ 5 with x ≤ 1, y ≤ 1 forces lb[x] ≥ 4 > ub[x].
        let mut lp = LinearProgram::new(2);
        lp.objective = vec![1.0, 1.0];
        lp.constraints = vec![Constraint::ge(vec![(0, 1.0), (1, 1.0)], 5.0)];
        lp.bound_rows([(0, 1.0), (1, 1.0)]);
        assert!(propagate_bounds(&lp, 3).is_none());
    }

    #[test]
    fn bound_propagation_handles_one_unbounded_variable() {
        // x − y ≤ 2 with y ≤ 3 and x unbounded: x's own contribution is
        // finite, y's is −3, so x ≤ 2 + 3 = 5 is deduced.
        let mut lp = LinearProgram::new(2);
        lp.objective = vec![1.0, 0.0];
        lp.constraints = vec![Constraint::le(vec![(0, 1.0), (1, -1.0)], 2.0)];
        lp.bound_rows([(1, 3.0)]);
        let vb = propagate_bounds(&lp, 3).expect("feasible");
        assert!((vb.ub[0] - 5.0).abs() < 1e-9, "ub[0] = {}", vb.ub[0]);
    }

    #[test]
    fn coefficient_tightening_cuts_fractional_points() {
        // 2x₀ + 3x₁ ≤ 3 over binaries tightens to 2x₀ + 2x₁ ≤ 2: the
        // integer points {00, 10, 01} are unchanged but the LP optimum of
        // max x₀ + x₁ drops from 1 + 1/3 to exactly 1.
        let mut lp = LinearProgram::new(2);
        lp.objective = vec![1.0, 1.0];
        lp.constraints = vec![Constraint::le(vec![(0, 2.0), (1, 3.0)], 3.0)];
        lp.bound_rows([(0, 1.0), (1, 1.0)]);
        let tight = strengthen_milp(&lp, &[0, 1]).expect("feasible");
        let loose_opt = solve_lp(&lp).objective().unwrap();
        let tight_opt = solve_lp(&tight).objective().unwrap();
        assert!((loose_opt - 4.0 / 3.0).abs() < 1e-6, "loose {loose_opt}");
        assert!((tight_opt - 1.0).abs() < 1e-6, "tight {tight_opt}");
        // Every binary point keeps its feasibility status.
        for bits in 0..4u32 {
            let x = vec![f64::from(bits & 1), f64::from((bits >> 1) & 1)];
            assert_eq!(
                lp.feasible(&x, 1e-9),
                tight.feasible(&x, 1e-9),
                "integer point {x:?} changed feasibility"
            );
        }
    }

    #[test]
    fn strengthening_preserves_integer_feasible_set_on_random_instances() {
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _case in 0..40 {
            let n = 2 + (next() * 4.0) as usize; // 2..=5 binaries
            let mut lp = LinearProgram::new(n);
            lp.objective = (0..n).map(|_| next() * 3.0).collect();
            for _ in 0..2 + (next() * 3.0) as usize {
                let coeffs = (0..n).map(|j| (j, next() * 4.0)).collect();
                lp.constraints
                    .push(Constraint::le(coeffs, 1.0 + next() * 5.0));
            }
            lp.bound_rows((0..n).map(|j| (j, 1.0)));
            let ints: Vec<usize> = (0..n).collect();
            let Some(tight) = strengthen_milp(&lp, &ints) else {
                // Claimed integer-infeasible: verify by enumeration.
                for bits in 0..(1u32 << n) {
                    let x: Vec<f64> = (0..n).map(|j| f64::from((bits >> j) & 1)).collect();
                    assert!(!lp.feasible(&x, 1e-9), "lost integer point {x:?}");
                }
                continue;
            };
            for bits in 0..(1u32 << n) {
                let x: Vec<f64> = (0..n).map(|j| f64::from((bits >> j) & 1)).collect();
                assert_eq!(
                    lp.feasible(&x, 1e-7),
                    tight.feasible(&x, 1e-7),
                    "integer point {x:?} changed feasibility"
                );
            }
            // And the relaxation never got looser.
            if let (Some(a), Some(b)) = (solve_lp(&lp).objective(), solve_lp(&tight).objective()) {
                assert!(b <= a + 1e-6, "strengthened relaxation looser: {b} > {a}");
            }
        }
    }

    #[test]
    fn no_fixings_is_a_cheap_near_noop() {
        let mut lp = LinearProgram::new(3);
        lp.objective = vec![1.0, 2.0, 3.0];
        lp.constraints = vec![Constraint::le(vec![(0, 1.0), (1, 1.0), (2, 1.0)], 2.0)];
        lp.bound_rows([(0, 1.0), (1, 1.0), (2, 1.0)]);
        match presolve(&lp) {
            PresolveOutcome::Reduced(p) => {
                assert_eq!(p.lp.num_vars, 3);
                assert_eq!(p.objective_offset, 0.0);
                assert_same_optimum(&lp);
            }
            PresolveOutcome::Infeasible => panic!(),
        }
    }
}
