//! A complete problem instance: the inputs of problem (4).

use crate::costgrid::CostGrid;
use crate::error::TypesError;
use crate::node::NodeSpec;
use crate::task::Task;
use crate::vendor::VendorQuote;

/// Everything the provider knows (eventually): horizon, cluster, cost
/// surface, base-model size `r_b`, the task sequence, and per-task vendor
/// quotes.
///
/// Online algorithms must only look at task `i`'s fields (and its quotes) at
/// or after slot `a_i`; the simulation driver in `pdftsp-sim` enforces this
/// by feeding tasks slot by slot.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Horizon `T` in slots.
    pub horizon: usize,
    /// Size `r_b` (GB) of the shared pre-trained base-model replica kept on
    /// each active node (constraint 4g).
    pub base_model_gb: f64,
    /// The `K` compute nodes.
    pub nodes: Vec<NodeSpec>,
    /// Tasks sorted by arrival slot (ties broken by id).
    pub tasks: Vec<Task>,
    /// `quotes[i]` lists every vendor's `{q_in, h_in}` for task `i`
    /// (empty when `f_i = 0`).
    pub quotes: Vec<Vec<VendorQuote>>,
    /// Energy price surface producing `e_ikt`.
    pub cost: CostGrid,
}

/// Summary statistics of a scenario (used by reports and sanity tests).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioStats {
    /// Number of tasks `I`.
    pub tasks: usize,
    /// Number of nodes `K`.
    pub nodes: usize,
    /// Horizon `T`.
    pub horizon: usize,
    /// Total bid mass `Σ_i b_i`.
    pub total_bid: f64,
    /// Total requested work `Σ_i M_i` in samples.
    pub total_work: u64,
    /// Aggregate per-slot compute capacity `Σ_k C_kp`.
    pub slot_capacity: u64,
    /// Fraction of tasks with `f_i = 1`.
    pub preprocessing_fraction: f64,
    /// Mean deadline window length in slots.
    pub mean_window: f64,
    /// Offered load: total work divided by total capacity over the horizon.
    pub offered_load: f64,
}

impl Scenario {
    /// Number of nodes `K`.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of tasks `I`.
    #[must_use]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Usable adapter memory on node `k`: `C_km − r_b`.
    #[must_use]
    pub fn adapter_memory(&self, k: usize) -> f64 {
        self.nodes[k].adapter_memory_gb(self.base_model_gb)
    }

    /// Validates cross-field invariants.
    ///
    /// # Errors
    /// Returns a [`TypesError`] describing the first violated invariant:
    /// grid dimensions, task ordering/ids, rate-vector lengths, quote
    /// consistency with `f_i`, and task windows `a_i ≤ d_i` inside the
    /// horizon.
    pub fn validate(&self) -> Result<(), TypesError> {
        if self.cost.nodes() != self.nodes.len() || self.cost.horizon() != self.horizon {
            return Err(TypesError::InvalidScenario(format!(
                "cost grid is {}×{}, scenario is {}×{}",
                self.cost.nodes(),
                self.cost.horizon(),
                self.nodes.len(),
                self.horizon
            )));
        }
        if self.quotes.len() != self.tasks.len() {
            return Err(TypesError::InvalidScenario(format!(
                "{} quote lists for {} tasks",
                self.quotes.len(),
                self.tasks.len()
            )));
        }
        if self.base_model_gb.is_nan() || self.base_model_gb < 0.0 {
            return Err(TypesError::InvalidScenario(
                "base model size must be non-negative".into(),
            ));
        }
        for (idx, node) in self.nodes.iter().enumerate() {
            if node.id != idx {
                return Err(TypesError::InvalidScenario(format!(
                    "node at position {idx} has id {}",
                    node.id
                )));
            }
            if node.memory_gb <= self.base_model_gb {
                return Err(TypesError::InvalidScenario(format!(
                    "node {idx} memory {} GB cannot hold base model {} GB plus any adapter",
                    node.memory_gb, self.base_model_gb
                )));
            }
        }
        let mut prev_arrival = 0usize;
        for (idx, task) in self.tasks.iter().enumerate() {
            if task.id != idx {
                return Err(TypesError::InvalidScenario(format!(
                    "task at position {idx} has id {}",
                    task.id
                )));
            }
            if task.rates.len() != self.nodes.len() {
                return Err(TypesError::RateLenMismatch {
                    rates: task.rates.len(),
                    nodes: self.nodes.len(),
                });
            }
            if task.arrival < prev_arrival {
                return Err(TypesError::InvalidScenario(format!(
                    "task {idx} arrives at {} before predecessor's {}",
                    task.arrival, prev_arrival
                )));
            }
            prev_arrival = task.arrival;
            if task.arrival > task.deadline {
                return Err(TypesError::DeadlineBeforeArrival {
                    arrival: task.arrival,
                    deadline: task.deadline,
                });
            }
            if task.deadline >= self.horizon {
                return Err(TypesError::InvalidScenario(format!(
                    "task {idx} deadline {} outside horizon {}",
                    task.deadline, self.horizon
                )));
            }
            if task.needs_preprocessing && self.quotes[idx].is_empty() {
                return Err(TypesError::InvalidScenario(format!(
                    "task {idx} needs pre-processing but has no vendor quotes"
                )));
            }
        }
        Ok(())
    }

    /// Computes summary statistics.
    #[must_use]
    pub fn stats(&self) -> ScenarioStats {
        let total_bid = self.tasks.iter().map(|t| t.bid).sum();
        let total_work: u64 = self.tasks.iter().map(|t| t.work).sum();
        let slot_capacity: u64 = self.nodes.iter().map(|n| n.compute_capacity).sum();
        let pp = self.tasks.iter().filter(|t| t.needs_preprocessing).count();
        let mean_window = if self.tasks.is_empty() {
            0.0
        } else {
            self.tasks
                .iter()
                .map(|t| t.window_len() as f64)
                .sum::<f64>()
                / self.tasks.len() as f64
        };
        let horizon_capacity = slot_capacity as f64 * self.horizon as f64;
        ScenarioStats {
            tasks: self.tasks.len(),
            nodes: self.nodes.len(),
            horizon: self.horizon,
            total_bid,
            total_work,
            slot_capacity,
            preprocessing_fraction: if self.tasks.is_empty() {
                0.0
            } else {
                pp as f64 / self.tasks.len() as f64
            },
            mean_window,
            offered_load: if horizon_capacity > 0.0 {
                total_work as f64 / horizon_capacity
            } else {
                f64::INFINITY
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{GpuModel, NodeSpec};
    use crate::task::TaskBuilder;

    fn tiny() -> Scenario {
        let nodes = vec![
            NodeSpec::new(0, GpuModel::A100_80, 1000),
            NodeSpec::new(1, GpuModel::A40_48, 500),
        ];
        let tasks = vec![
            TaskBuilder::new(0, 0, 5)
                .dataset(100)
                .bid(4.0)
                .rates(vec![100, 50])
                .build()
                .unwrap(),
            TaskBuilder::new(1, 2, 9)
                .dataset(200)
                .bid(6.0)
                .rates(vec![100, 50])
                .build()
                .unwrap(),
        ];
        Scenario {
            horizon: 10,
            base_model_gb: 1.5,
            nodes,
            quotes: vec![vec![], vec![]],
            cost: CostGrid::flat(2, 10, 0.1),
            tasks,
        }
    }

    #[test]
    fn tiny_scenario_validates() {
        assert!(tiny().validate().is_ok());
    }

    #[test]
    fn grid_dimension_mismatch_fails() {
        let mut s = tiny();
        s.cost = CostGrid::flat(2, 9, 0.1);
        assert!(s.validate().is_err());
    }

    #[test]
    fn out_of_order_arrivals_fail() {
        let mut s = tiny();
        s.tasks[1].arrival = 0;
        s.tasks[0].arrival = 3;
        assert!(s.validate().is_err());
    }

    #[test]
    fn deadline_outside_horizon_fails() {
        let mut s = tiny();
        s.tasks[1].deadline = 10;
        assert!(s.validate().is_err());
    }

    #[test]
    fn arrival_after_deadline_fails() {
        let mut s = tiny();
        s.tasks[1].arrival = 9;
        s.tasks[1].deadline = 4;
        assert_eq!(
            s.validate(),
            Err(TypesError::DeadlineBeforeArrival {
                arrival: 9,
                deadline: 4
            })
        );
    }

    #[test]
    fn missing_quotes_for_preprocessing_fails() {
        let mut s = tiny();
        s.tasks[0].needs_preprocessing = true;
        assert!(s.validate().is_err());
        s.quotes[0].push(VendorQuote {
            vendor: 0,
            price: 0.5,
            delay: 1,
        });
        assert!(s.validate().is_ok());
    }

    #[test]
    fn rate_len_mismatch_fails() {
        let mut s = tiny();
        s.tasks[0].rates = vec![100];
        assert!(matches!(
            s.validate(),
            Err(TypesError::RateLenMismatch { rates: 1, nodes: 2 })
        ));
    }

    #[test]
    fn base_model_too_big_for_node_fails() {
        let mut s = tiny();
        s.base_model_gb = 60.0; // exceeds the A40's 48 GB
        assert!(s.validate().is_err());
    }

    #[test]
    fn stats_aggregate_correctly() {
        let s = tiny();
        let st = s.stats();
        assert_eq!(st.tasks, 2);
        assert_eq!(st.nodes, 2);
        assert!((st.total_bid - 10.0).abs() < 1e-12);
        assert_eq!(st.total_work, 300);
        assert_eq!(st.slot_capacity, 1500);
        assert_eq!(st.preprocessing_fraction, 0.0);
        // offered load = 300 / (1500 * 10)
        assert!((st.offered_load - 0.02).abs() < 1e-12);
    }

    #[test]
    fn wrong_task_id_fails() {
        let mut s = tiny();
        s.tasks[1].id = 5;
        assert!(s.validate().is_err());
    }
}
