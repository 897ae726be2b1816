//! The three benchmark workloads, generated from a seed.
//!
//! Each workload stresses a different layer of the service; the reasons
//! are recorded in `README.md` beside this package. The program under
//! test only ever sees the generated [`Scenario`] and [`FaultPlan`].

use pdftsp_core::PreheatSpec;
use pdftsp_sim::{lease_fault_plan, FaultPlan, ServiceConfig};
use pdftsp_types::Scenario;
use pdftsp_workload::{ArrivalProcess, DeadlinePolicy, Marketplace, ScenarioBuilder, SpotSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Shards of the service: one per hardware thread of the reference
/// two-core host, fixed so results from wider hosts stay comparable.
pub const SHARDS: usize = 2;

/// Labor vendors of `vendor_market`.
const VENDOR_MARKET_VENDORS: usize = 10;

/// Seed of the fixed vendor sets.
const MARKET_SEED: u64 = 0x7E4D_0125;

/// Seed of `spot_churn`'s spot market in part 0; part `k` adds `k`.
const SPOT_SEED: u64 = 0x5907_0000;

/// A named workload and its load-shape constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    Flood,
    VendorMarket,
    SpotChurn,
}

/// Scenario size and the fixed open-loop rate ladder of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub horizon: usize,
    pub nodes: usize,
    pub mean_per_slot: f64,
    /// Independent instances one run covers, each generated from its
    /// own seed and measured in turn; every metric pools them.
    pub instances: usize,
    /// Epochs covered by every paced run: a prefix of the horizon, so
    /// that the whole ladder fits in one run.
    pub paced_epochs: usize,
    /// Paced runs at the nominal rate per instance. The admission
    /// percentiles are medians over these runs: the p99 of one run is
    /// its slowest few epochs, which one burst of host CPU steal moves.
    pub nominal_runs: usize,
    /// Offered rates of the ladder, tasks per second, ascending. The
    /// first is the nominal rate, at which admission p50/p99 are
    /// reported: well below the knee, where latency is mostly epoch fill.
    pub ladder: &'static [f64],
    /// Admission p99 limit a rung must meet to count towards the
    /// maximum sustainable rate, milliseconds.
    pub p99_limit_ms: f64,
}

/// One generated instance: what the service is given.
pub struct Instance {
    pub scenario: Scenario,
    pub plan: FaultPlan,
    pub config: ServiceConfig,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Flood, Workload::VendorMarket, Workload::SpotChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Flood => "flood",
            Workload::VendorMarket => "vendor_market",
            Workload::SpotChurn => "spot_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The full-size shape, or a tiny one (`smoke`) for the package's
    /// own tests.
    pub fn shape(self, smoke: bool) -> Shape {
        if smoke {
            return Shape {
                horizon: 24,
                nodes: 8,
                mean_per_slot: 80.0,
                instances: 1,
                paced_epochs: 4,
                nominal_runs: 2,
                ladder: &[20_000.0, 80_000.0],
                p99_limit_ms: 1_000.0,
            };
        }
        match self {
            // The middle rung of each ladder sits below the knee measured
            // on a two-core host under CPU steal, and the top rung well
            // above the knee measured on a quiet one, so that host noise
            // does not move the maximum rate.
            Workload::Flood => Shape {
                horizon: 144,
                nodes: 100,
                mean_per_slot: 1_750.0,
                instances: 1,
                paced_epochs: 24,
                nominal_runs: 3,
                ladder: &[50_000.0, 100_000.0, 250_000.0],
                p99_limit_ms: 500.0,
            },
            Workload::VendorMarket => Shape {
                horizon: 1_008,
                nodes: 100,
                mean_per_slot: 50.0,
                instances: 1,
                paced_epochs: 63,
                nominal_runs: 4,
                ladder: &[5_000.0, 7_000.0, 17_500.0],
                p99_limit_ms: 250.0,
            },
            Workload::SpotChurn => Shape {
                horizon: 1_008,
                nodes: 100,
                mean_per_slot: 100.0,
                // One spot week's welfare swings by ±20% between seeds,
                // with or without pre-heat; eight weeks cut that to a
                // third.
                instances: 8,
                paced_epochs: 32,
                nominal_runs: 1,
                ladder: &[15_000.0, 30_000.0, 90_000.0],
                p99_limit_ms: 100.0,
            },
        }
    }

    /// Generates instance `part` of the run for `seed`. Identical
    /// arguments give identical instances; part 0 is drawn from `seed`
    /// itself.
    pub fn generate(self, seed: u64, part: usize, smoke: bool) -> Instance {
        let shape = self.shape(smoke);
        let base = ScenarioBuilder {
            horizon: shape.horizon,
            num_nodes: shape.nodes,
            arrivals: ArrivalProcess::Poisson {
                mean_per_slot: shape.mean_per_slot,
            },
            seed: seed.wrapping_add(part as u64 * 0x9E37_79B9_7F4A_7C15),
            ..ScenarioBuilder::default()
        };
        let mut config = ServiceConfig {
            shards: SHARDS,
            ..ServiceConfig::default()
        };
        match self {
            Workload::Flood => Instance {
                scenario: ScenarioBuilder {
                    num_vendors: 1,
                    preprocessing_prob: 0.0,
                    deadline_policy: DeadlinePolicy::Tight,
                    ..base
                }
                .build(),
                plan: FaultPlan::none(),
                config,
            },
            Workload::VendorMarket => Instance {
                scenario: with_fixed_market(
                    ScenarioBuilder {
                        num_vendors: VENDOR_MARKET_VENDORS,
                        preprocessing_prob: 1.0,
                        deadline_policy: DeadlinePolicy::Slack,
                        ..base
                    }
                    .build(),
                ),
                plan: FaultPlan::none(),
                config,
            },
            Workload::SpotChurn => {
                // Installed exactly as `pdftsp serve-sim --spot` installs
                // it: transformed scenario, lease-derived revocations,
                // and the prediction pre-heat.
                let spec = SpotSpec {
                    leases: if smoke { 3 } else { 60 },
                    lease_len: 6,
                    budget_frac: 0.5,
                    // The spot market (price path, caps, leases) is fixed
                    // per part, so that the seed varies only the bidders.
                    seed: SPOT_SEED + part as u64,
                    ..SpotSpec::default()
                };
                let scenario = spec.apply(&with_fixed_market(base.build()));
                let leases = spec.lease_plan(scenario.nodes.len(), scenario.horizon);
                let plan = lease_fault_plan(&leases, scenario.horizon);
                config.scheduler.preheat = (spec.lookahead > 0).then_some(PreheatSpec {
                    lookahead: spec.lookahead,
                    gain: spec.gain,
                });
                Instance {
                    scenario,
                    plan,
                    config,
                }
            }
        }
    }
}

/// Re-quotes every pre-processing task from a vendor set drawn from a
/// constant seed, of the same size as the scenario's own. The vendors
/// are the provider's, not the bidders': with a per-seed vendor set, DP
/// work per decision swings by ±20% and welfare by more between seeds.
fn with_fixed_market(mut scenario: Scenario) -> Scenario {
    let vendors = scenario.quotes.iter().map(Vec::len).max().unwrap_or(0);
    let market = Marketplace::generate(vendors, &mut StdRng::seed_from_u64(MARKET_SEED));
    for (task, quotes) in scenario.tasks.iter().zip(&mut scenario.quotes) {
        if task.needs_preprocessing {
            *quotes = market.quotes_for(task);
        }
    }
    scenario
}
