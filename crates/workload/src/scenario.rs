//! End-to-end scenario construction.
//!
//! [`ScenarioBuilder`] assembles a full [`Scenario`] from the pieces in
//! this crate: a node mix (paper Fig. 6), an arrival process (Figs. 7–8), a
//! deadline policy (Fig. 9), a vendor marketplace (Fig. 5), the LoRA
//! calibration, and an energy-price signal. All randomness flows from one
//! seed, so scenarios are fully reproducible.

use crate::arrivals::ArrivalProcess;
use crate::deadlines::DeadlinePolicy;
use crate::marketplace::Marketplace;
use crate::tasks::TaskGenerator;
use pdftsp_cluster::energy::{EnergySignal, PriceModel, SLOTS_PER_DAY};
use pdftsp_lora::calibration::CalibrationTable;
use pdftsp_lora::paradigm::TuningParadigm;
use pdftsp_lora::transformer::TransformerConfig;
use pdftsp_types::{GpuModel, NodeSpec, Scenario};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// GPU composition of the cluster (paper Fig. 6: A100 / A40 / hybrid).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeMix {
    /// All nodes are A100-80GB.
    A100Only,
    /// All nodes are A40-48GB.
    A40Only,
    /// A fraction of A100 nodes, the rest A40 (paper uses an even mix).
    Hybrid {
        /// Fraction of A100 nodes, in `[0, 1]`.
        a100_fraction: f64,
    },
}

impl NodeMix {
    /// Display name used in figure output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            NodeMix::A100Only => "A100",
            NodeMix::A40Only => "A40",
            NodeMix::Hybrid { .. } => "hybrid",
        }
    }

    fn gpu_for(self, index: usize, total: usize) -> GpuModel {
        match self {
            NodeMix::A100Only => GpuModel::A100_80,
            NodeMix::A40Only => GpuModel::A40_48,
            NodeMix::Hybrid { a100_fraction } => {
                let a100_count = (total as f64 * a100_fraction).round() as usize;
                if index < a100_count {
                    GpuModel::A100_80
                } else {
                    GpuModel::A40_48
                }
            }
        }
    }
}

/// Builder for complete scenarios.
///
/// ```
/// use pdftsp_workload::{ArrivalProcess, ScenarioBuilder};
///
/// let scenario = ScenarioBuilder {
///     horizon: 24,
///     num_nodes: 6,
///     arrivals: ArrivalProcess::Poisson { mean_per_slot: 3.0 },
///     seed: 1,
///     ..ScenarioBuilder::default()
/// }
/// .build();
/// assert_eq!(scenario.nodes.len(), 6);
/// assert!(scenario.validate().is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    /// Horizon `T` (paper: 144 slots of 10 minutes).
    pub horizon: usize,
    /// Cluster size `K` (paper: 50–200).
    pub num_nodes: usize,
    /// GPU composition.
    pub node_mix: NodeMix,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// Number of labor vendors `N` (paper: 3–10).
    pub num_vendors: usize,
    /// Deadline policy.
    pub deadline_policy: DeadlinePolicy,
    /// Baseline energy price per slot of weight-1 execution.
    pub energy_base: f64,
    /// Energy signal shape.
    pub energy_model: PriceModel,
    /// Fraction of tasks needing pre-processing.
    pub preprocessing_prob: f64,
    /// Fine-tuning paradigm all tasks use (the "beyond LoRA" extension;
    /// the paper's setting is rank-8 LoRA).
    pub paradigm: TuningParadigm,
    /// The shared pre-trained model of this scenario (one per data-center
    /// "zone" in the paper's terminology).
    pub model: TransformerConfig,
    /// Slots per diurnal energy-price cycle. Defaults to the paper's
    /// [`SLOTS_PER_DAY`] (144 × 10-minute slots). Proportionally shrunk
    /// experiment scales set this to their shrunk horizon so a "quick
    /// day" still spans one full diurnal cycle (longer slots, same
    /// shape) instead of truncating the cycle mid-way.
    pub slots_per_day: usize,
    /// RNG seed; everything derives from it.
    pub seed: u64,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder {
            horizon: 144,
            num_nodes: 100,
            node_mix: NodeMix::Hybrid { a100_fraction: 0.5 },
            arrivals: ArrivalProcess::medium(),
            num_vendors: 5,
            deadline_policy: DeadlinePolicy::Medium,
            energy_base: 2.0,
            energy_model: PriceModel::Diurnal { amplitude: 0.7 },
            preprocessing_prob: 0.5,
            paradigm: TuningParadigm::Lora { rank: 8 },
            model: TransformerConfig::gpt2_medium(),
            slots_per_day: SLOTS_PER_DAY,
            seed: 42,
        }
    }
}

impl ScenarioBuilder {
    /// Builds (and validates) the scenario.
    ///
    /// # Panics
    /// Panics if the assembled scenario fails validation — that would be a
    /// builder bug, not a user error.
    #[must_use]
    pub fn build(&self) -> Scenario {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let calibration = CalibrationTable::for_paradigm(self.model, self.paradigm);

        // Cluster.
        let nodes: Vec<NodeSpec> = (0..self.num_nodes)
            .map(|k| {
                let gpu = self.node_mix.gpu_for(k, self.num_nodes);
                NodeSpec::new(k, gpu, calibration.node_capacity(gpu))
            })
            .collect();

        // Marketplace and the typical pre-processing delay (used to make
        // deadlines of pre-processing tasks achievable).
        let marketplace = Marketplace::generate(self.num_vendors, &mut rng);
        let typical_dataset = 12_500.0;
        let expected_pp_delay = marketplace
            .vendors
            .iter()
            .map(|v| v.base_delay as f64 + typical_dataset / v.samples_per_slot)
            .fold(f64::INFINITY, f64::min)
            .ceil() as u64;

        // Energy prices. A100 nodes draw more power than A40 nodes
        // (400 W vs 300 W TDP → 1.0 vs 0.75 relative draw).
        let node_power: Vec<f64> = nodes
            .iter()
            .map(|n| match n.gpu {
                GpuModel::A100_80 => 1.0,
                GpuModel::A40_48 => 0.75,
            })
            .collect();
        let signal = EnergySignal {
            base: self.energy_base,
            model: self.energy_model,
            node_power,
            slots_per_day: self.slots_per_day.max(1),
        };
        let cost = signal.grid(self.horizon, &mut rng);

        // Arrivals and tasks.
        let mut task_gen = TaskGenerator::new(calibration);
        task_gen.preprocessing_prob = self.preprocessing_prob;
        task_gen.deadline_policy = self.deadline_policy;
        let counts = self.arrivals.generate(self.horizon, &mut rng);
        let mut tasks = Vec::new();
        let mut quotes = Vec::new();
        for (slot, &count) in counts.iter().enumerate() {
            for _ in 0..count {
                let id = tasks.len();
                let t =
                    task_gen.generate(&mut rng, id, slot, &nodes, self.horizon, expected_pp_delay);
                quotes.push(if t.needs_preprocessing {
                    marketplace.quotes_for(&t)
                } else {
                    Vec::new()
                });
                tasks.push(t);
            }
        }

        let scenario = Scenario {
            horizon: self.horizon,
            base_model_gb: task_gen.calibration.base_gb,
            nodes,
            tasks,
            quotes,
            cost,
        };
        scenario
            .validate()
            .expect("ScenarioBuilder must produce valid scenarios");
        scenario
    }

    /// Derives a new builder with a different seed (for repetition sweeps).
    #[must_use]
    pub fn with_seed(&self, seed: u64) -> Self {
        ScenarioBuilder {
            seed,
            ..self.clone()
        }
    }

    /// A laptop-scale smoke configuration used by tests and examples:
    /// short horizon, few nodes, light load.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        ScenarioBuilder {
            horizon: 36,
            num_nodes: 4,
            node_mix: NodeMix::Hybrid { a100_fraction: 0.5 },
            arrivals: ArrivalProcess::Poisson { mean_per_slot: 2.0 },
            num_vendors: 3,
            deadline_policy: DeadlinePolicy::Medium,
            energy_base: 2.0,
            energy_model: PriceModel::Diurnal { amplitude: 0.7 },
            preprocessing_prob: 0.5,
            paradigm: TuningParadigm::Lora { rank: 8 },
            model: TransformerConfig::gpt2_medium(),
            slots_per_day: SLOTS_PER_DAY,
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_build_validates_and_has_tasks() {
        let sc = ScenarioBuilder {
            horizon: 24,
            num_nodes: 10,
            arrivals: ArrivalProcess::Poisson { mean_per_slot: 5.0 },
            ..ScenarioBuilder::default()
        }
        .build();
        assert_eq!(sc.nodes.len(), 10);
        assert!(sc.num_tasks() > 50, "{} tasks", sc.num_tasks());
        assert!(sc.validate().is_ok());
    }

    #[test]
    fn same_seed_same_scenario() {
        let b = ScenarioBuilder::smoke(7);
        let a = b.build();
        let c = b.build();
        assert_eq!(a.tasks, c.tasks);
        assert_eq!(a.cost, c.cost);
        assert_eq!(a.quotes, c.quotes);
    }

    #[test]
    fn different_seeds_differ() {
        let a = ScenarioBuilder::smoke(1).build();
        let b = ScenarioBuilder::smoke(2).build();
        assert_ne!(a.tasks, b.tasks);
    }

    #[test]
    fn node_mix_composition() {
        let mk = |mix| {
            ScenarioBuilder {
                num_nodes: 10,
                node_mix: mix,
                horizon: 12,
                arrivals: ArrivalProcess::Poisson { mean_per_slot: 1.0 },
                ..ScenarioBuilder::default()
            }
            .build()
        };
        let a100 = mk(NodeMix::A100Only);
        assert!(a100.nodes.iter().all(|n| n.gpu == GpuModel::A100_80));
        let a40 = mk(NodeMix::A40Only);
        assert!(a40.nodes.iter().all(|n| n.gpu == GpuModel::A40_48));
        let hybrid = mk(NodeMix::Hybrid { a100_fraction: 0.3 });
        let count = hybrid
            .nodes
            .iter()
            .filter(|n| n.gpu == GpuModel::A100_80)
            .count();
        assert_eq!(count, 3);
    }

    #[test]
    fn preprocessing_tasks_have_quotes() {
        let sc = ScenarioBuilder::smoke(3).build();
        for (t, q) in sc.tasks.iter().zip(sc.quotes.iter()) {
            if t.needs_preprocessing {
                assert_eq!(q.len(), 3);
            } else {
                assert!(q.is_empty());
            }
        }
    }

    #[test]
    fn arrivals_are_sorted_and_ids_sequential() {
        let sc = ScenarioBuilder::smoke(11).build();
        let mut prev = 0;
        for (i, t) in sc.tasks.iter().enumerate() {
            assert_eq!(t.id, i);
            assert!(t.arrival >= prev);
            prev = t.arrival;
        }
    }

    #[test]
    fn offered_load_scales_with_arrival_rate() {
        let lo = ScenarioBuilder {
            horizon: 48,
            num_nodes: 20,
            arrivals: ArrivalProcess::Poisson { mean_per_slot: 4.0 },
            ..ScenarioBuilder::default()
        }
        .build()
        .stats()
        .offered_load;
        let hi = ScenarioBuilder {
            horizon: 48,
            num_nodes: 20,
            arrivals: ArrivalProcess::Poisson {
                mean_per_slot: 16.0,
            },
            ..ScenarioBuilder::default()
        }
        .build()
        .stats()
        .offered_load;
        assert!(hi > 2.5 * lo, "lo {lo} hi {hi}");
    }
}
