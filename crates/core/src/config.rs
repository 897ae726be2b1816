//! Configuration of the pdFTSP algorithm.

use crate::kernel::KernelChoice;

/// How the dual-update multipliers `α` and `β` of Eqs. (7)–(8) are chosen.
///
/// Lemma 2 sets `α = max_i b_i/M_i` and `β = max_i b_i/r_i` — offline
/// quantities (maxima over *all* tasks). Online, the provider either fixes
/// them from historical knowledge or tracks the running maximum of the
/// tasks seen so far (with floors so early tasks are not under-priced).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlphaBeta {
    /// Operator-supplied constants.
    Fixed {
        /// The `α` multiplier of the compute-price update (7).
        alpha: f64,
        /// The `β` multiplier of the memory-price update (8).
        beta: f64,
    },
    /// Running maxima over the tasks handled so far, floored at the given
    /// values: `α = max_i b_i/M_i` (in pricing units, as in Lemma 2) and a
    /// *footprint-normalized* `β = max_i b_i/(r_i · ℓ_i)` where `ℓ_i` is
    /// the task's minimum service time in slots.
    ///
    /// Lemma 2's `β = max_i b_i/r_i` compares the bid against ONE slot's
    /// memory, while the admission test `F(il)` charges `φ` on the task's
    /// whole footprint `r_i · |l|` — so the literal value over-prices
    /// memory by a factor of the schedule length and rejects profitable
    /// tasks when memory is barely used. Normalizing by `ℓ_i` makes the
    /// memory price reach bid level as memory actually saturates, exactly
    /// parallel to how `α = b_i/M_i` relates to the compute footprint
    /// `Σ s = M_i`. The capacity guarantee is unaffected because
    /// Algorithm 1 line 8 checks capacity explicitly; the Lemma-2-literal
    /// value remains available through [`AlphaBeta::Fixed`]. (Ablation
    /// bench: `alpha_beta`.)
    RunningMax {
        /// Lower bound on `α`.
        floor_alpha: f64,
        /// Lower bound on `β`.
        floor_beta: f64,
    },
}

/// How Algorithm 1 treats residual capacity.
///
/// The default is [`CapacityPolicy::MaskSaturated`]: it reads Algorithm
/// 1's "enough resources" check into the schedule search itself, so the
/// DP never proposes a committed-full cell and no profitable task is
/// wasted on a collision. [`CapacityPolicy::RejectOnOverflow`] is the
/// pseudocode-literal behaviour (kept for the ablation bench): prices
/// alone steer the DP and collisions burn the task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityPolicy {
    /// Pseudocode-literal: schedules are generated from prices alone
    /// (Algorithm 2 never looks at the ledger); if a chosen `(k, t)` lacks
    /// residual capacity the task is rejected at line 8 — Lemma 1's
    /// Almost-Feasible → Feasible conversion.
    RejectOnOverflow,
    /// Default: the DP masks `(k, t)` cells whose residual capacity
    /// cannot host the task, so generated schedules are always
    /// committable (Lemma 1's conversion becomes a no-op; all other
    /// analysis is unchanged).
    MaskSaturated,
}

/// Which payment rule Eq. (14) uses.
///
/// The default is [`PricingRule::WithEnergy`]: Eq. (14)'s terms *plus*
/// the schedule's operational cost, which is the only reading consistent
/// with the truthfulness proof's premise `F(il) = b_i − p_i` (Theorem 3).
/// Under the verbatim Eq. (14) a truthful loser whose surplus deficit is
/// smaller than its energy cost can profitably overbid — our property
/// tests caught exactly that, so the verbatim rule is kept only as a
/// documented ablation. Both rules are individually rational
/// (`F > 0 ⟹ p_i < b_i`) and bid-independent for winners.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PricingRule {
    /// Eq. (14) verbatim: vendor price + marginal resource prices times
    /// consumption; the operational cost stays with the provider.
    /// **Not truthful** when energy costs are material — ablation only.
    PaperEq14,
    /// Eq. (14) plus the schedule's operational cost `Σ e_ikt` (default).
    WithEnergy,
}

/// Which functional form the dual-price updates take.
///
/// The paper's Eqs. (7)–(8) are multiplicative-plus-additive — prices
/// compound with load, which is what makes saturated cells price
/// themselves out (Lemma 2). The alternatives exist to *measure* that
/// design choice (ablation bench `dual_rule`):
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DualRule {
    /// Eqs. (7)–(8) as published: `λ ← λ(1 + s/C) + η·α·b̄·s/C`.
    Multiplicative,
    /// Additive only: `λ ← λ + η·α·b̄·s/C` — prices grow linearly with
    /// load and never compound, so heavily shared cells stay too cheap.
    Linear,
    /// No prices at all (`λ = φ = 0` forever): admission reduces to
    /// `b_il > 0` plus the capacity check — a greedy profitable-first
    /// mechanism with no load steering and no meaningful payments.
    Off,
}

/// Which per-arrival evaluation pipeline [`crate::Pdftsp`] runs.
///
/// Both pipelines make bit-identical admission, scheduling, payment, and
/// dual-update decisions (proven by `tests/pipeline_equivalence.rs`);
/// they differ only in speed and in the bookkeeping recorded for tasks
/// that were *rejected anyway*: a pruned vendor's `F(il)` is proven
/// non-positive without being computed, so the reject record may carry
/// `None` instead of the exact value — or, when another vendor survived,
/// the (never larger, still non-positive) maximum over the survivors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalPipeline {
    /// The straight-line implementation: one full DP per vendor, deltas
    /// recomputed per row, fresh allocations per call. Kept as the
    /// equivalence oracle and as the baseline of the latency benches.
    Reference,
    /// The production path (default): one shared delta grid per arrival,
    /// a reusable DP arena, admission pruning from column-minima bounds,
    /// early DP-row termination, and a sequential vendor loop that skips
    /// vendors unable to beat the incumbent and shares one DP between
    /// vendors quoting the same start slot.
    Optimized,
}

/// Prediction-driven dual pre-heating (spot-market scenarios).
///
/// Algorithm 1 starts all dual prices at zero, so the first tasks of a
/// burst buy capacity at trivially low prices even when a forecast says
/// the burst will over-subscribe the cluster moments later. When a
/// provider has a prediction signal — forecast arrival intensity and
/// spot prices over a lookahead window — it can *pre-heat* the λ/φ
/// grids: slots whose forecast demand exceeds capacity start at a
/// price proportional to the forecast bid density, so early low-value
/// arrivals no longer lock out the predicted high-value wave.
///
/// The forecast is computed deterministically from the scenario at
/// scheduler construction (a moving-window aggregate of arriving work,
/// bids, and memory), so it is a pure function of the inputs: sharded
/// services pre-heat each shard identically regardless of worker count
/// and the bit-determinism contract is preserved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreheatSpec {
    /// Forecast window in slots: demand arriving within `lookahead` of
    /// a slot contributes to that slot's forecast.
    pub lookahead: usize,
    /// Scale on the seeded prices (0 disables; 1 seeds saturated slots
    /// at the full forecast bid density).
    pub gain: f64,
}

impl Default for PreheatSpec {
    fn default() -> Self {
        PreheatSpec {
            lookahead: 6,
            gain: 0.5,
        }
    }
}

/// Full algorithm configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdftspConfig {
    /// `α`/`β` selection.
    pub alpha_beta: AlphaBeta,
    /// Samples per compute pricing unit: the dual arithmetic of
    /// Eqs. (7)–(10) runs in these units.
    ///
    /// Lemma 2 assumes units scaled so that `b̄_il ≥ 1` ("we can scale the
    /// units"); 1000 samples/unit achieves that for the paper's workloads
    /// (datasets of 5–20k samples, bids proportional to work) and makes
    /// the additive price seeding of Eqs. (7)–(8) meaningful: each commit
    /// raises a cell's price by a load-proportional step, so prices ramp
    /// to bid level roughly as the cell saturates, steering later tasks
    /// to other cells. Run the unit-scaling ablation bench to see both
    /// failure modes: raw units (1.0) leave prices ≈ 0 so every task
    /// piles onto the same cheap cells and dies at the line-8 capacity
    /// check, while oversized units price profitable tasks out of a
    /// near-empty cluster.
    pub compute_unit: f64,
    /// Damping factor applied to `α` and `β` inside the dual updates
    /// (Eqs. 7–8 become `… + η·α·b̄·s/C`).
    ///
    /// The paper never states the `α`, `β` values its experiments used.
    /// The Lemma-2 maxima are driven by outlier tasks (highest value per
    /// unit of work), so seeding prices at the full maxima rejects
    /// *typical* tasks when cells are only ~40% full — visibly below the
    /// paper's reported welfare at light load. `η ≈ 0.2–0.3` recenters the
    /// price ramp on the typical task (for the log-normal valuation
    /// spread of the workload generator, `median/max ≈ 0.3`; a grid
    /// sweep across offered loads lands on `η = 0.2`), so cells
    /// price out ordinary work only as they approach saturation while
    /// still reserving late capacity for high-value bids. `η = 1`
    /// recovers the literal maxima. Swept by the `alpha_beta` ablation
    /// bench.
    pub seed_damping: f64,
    /// Dual-update functional form (paper vs ablations).
    pub dual_rule: DualRule,
    /// Capacity policy (paper-faithful vs masking ablation).
    pub capacity_policy: CapacityPolicy,
    /// Payment rule.
    pub pricing: PricingRule,
    /// Which evaluation pipeline handles arrivals.
    pub pipeline: EvalPipeline,
    /// Which min-plus row kernel the DP dispatches (scalar or SIMD; both
    /// bit-identical). Resolved once at scheduler construction;
    /// [`KernelChoice::Auto`] honours the `PDFTSP_KERNEL` environment
    /// override and otherwise takes SIMD whenever the build carries it.
    pub kernel: KernelChoice,
    /// Optional prediction-driven dual pre-heating (spot scenarios).
    /// `None` (default) keeps Algorithm 1's zero-initialized duals.
    pub preheat: Option<PreheatSpec>,
}

impl Default for PdftspConfig {
    fn default() -> Self {
        PdftspConfig {
            alpha_beta: AlphaBeta::RunningMax {
                floor_alpha: 0.0,
                floor_beta: 0.0,
            },
            compute_unit: 1000.0,
            seed_damping: 0.2,
            dual_rule: DualRule::Multiplicative,
            capacity_policy: CapacityPolicy::MaskSaturated,
            pricing: PricingRule::WithEnergy,
            pipeline: EvalPipeline::Optimized,
            kernel: KernelChoice::Auto,
            preheat: None,
        }
    }
}

impl PdftspConfig {
    /// The masking-ablation variant of this config.
    #[must_use]
    pub fn with_masking(self) -> Self {
        PdftspConfig {
            capacity_policy: CapacityPolicy::MaskSaturated,
            ..self
        }
    }

    /// The pseudocode-literal variant (prices only; collisions reject).
    #[must_use]
    pub fn strict(self) -> Self {
        PdftspConfig {
            capacity_policy: CapacityPolicy::RejectOnOverflow,
            ..self
        }
    }

    /// Runs the straight-line reference pipeline (equivalence oracle /
    /// latency baseline).
    #[must_use]
    pub fn reference(self) -> Self {
        PdftspConfig {
            pipeline: EvalPipeline::Reference,
            ..self
        }
    }

    /// Selects the DP row kernel.
    #[must_use]
    pub fn with_kernel(self, kernel: KernelChoice) -> Self {
        PdftspConfig { kernel, ..self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_masking_with_eq14_pricing() {
        let c = PdftspConfig::default();
        assert_eq!(c.capacity_policy, CapacityPolicy::MaskSaturated);
        assert_eq!(c.pricing, PricingRule::WithEnergy);
        assert!(c.compute_unit > 0.0);
        assert_eq!(c.kernel, KernelChoice::Auto);
        assert_eq!(
            c.with_kernel(KernelChoice::Scalar).kernel,
            KernelChoice::Scalar
        );
    }

    #[test]
    fn policy_variants_flip_only_the_policy() {
        let c = PdftspConfig::default().strict();
        assert_eq!(c.capacity_policy, CapacityPolicy::RejectOnOverflow);
        assert_eq!(c.pricing, PricingRule::WithEnergy);
        assert_eq!(
            c.with_masking().capacity_policy,
            CapacityPolicy::MaskSaturated
        );
    }

    #[test]
    fn default_pipeline_is_optimized_with_reference_opt_out() {
        let c = PdftspConfig::default();
        assert_eq!(c.pipeline, EvalPipeline::Optimized);
        let r = c.reference();
        assert_eq!(r.pipeline, EvalPipeline::Reference);
        assert_eq!(r.capacity_policy, c.capacity_policy);
    }
}
