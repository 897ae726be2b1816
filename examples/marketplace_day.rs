//! A full marketplace day: the scenario the paper's introduction
//! motivates — tasks streaming into a hybrid A100/A40 cluster, vendors
//! competing for pre-processing work, diurnal energy prices — compared
//! across all four algorithms.
//!
//! ```text
//! cargo run -p pdftsp-examples --release --bin marketplace_day
//! ```

use pdftsp_cluster::parallel_map;
use pdftsp_sim::{run_algo, Algo, FigureTable};
use pdftsp_workload::{ArrivalProcess, NodeMix, ScenarioBuilder};

fn main() {
    let builder = ScenarioBuilder {
        horizon: 48,
        num_nodes: 12,
        node_mix: NodeMix::Hybrid { a100_fraction: 0.5 },
        arrivals: ArrivalProcess::Poisson { mean_per_slot: 7.0 },
        num_vendors: 5,
        seed: 2024,
        ..ScenarioBuilder::default()
    };
    let scenario = builder.build();
    let stats = scenario.stats();
    println!(
        "day: {} tasks, {} nodes, {} slots, offered load {:.2}, {:.0}% need pre-processing\n",
        stats.tasks,
        stats.nodes,
        stats.horizon,
        stats.offered_load,
        100.0 * stats.preprocessing_fraction
    );

    // All four algorithms in parallel (each gets its own scenario copy).
    let algos = Algo::PAPER_SET;
    let results = parallel_map(&algos, |&algo| run_algo(&scenario, algo, 0));

    let mut table = FigureTable::new(
        "One marketplace day",
        "metric",
        algos.iter().map(|a| a.name().to_owned()).collect(),
    );
    let get =
        |f: &dyn Fn(&pdftsp_sim::RunResult) -> f64| -> Vec<f64> { results.iter().map(f).collect() };
    table.push_row("social welfare", get(&|r| r.welfare.social_welfare));
    table.push_row("admitted tasks", get(&|r| r.welfare.admitted as f64));
    table.push_row("admission rate", get(&|r| r.welfare.admission_rate()));
    table.push_row("revenue", get(&|r| r.welfare.revenue));
    table.push_row("vendor cost", get(&|r| r.welfare.vendor_cost));
    table.push_row("energy cost", get(&|r| r.welfare.energy_cost));
    table.push_row(
        "mean compute util",
        get(&|r| r.metrics.mean_compute_utilization),
    );
    table.push_row(
        "peak co-located LoRAs",
        get(&|r| r.metrics.peak_colocation as f64),
    );
    println!("{}", table.render());

    // Temporal view of the pdFTSP run: arrivals, prices, utilization.
    println!(
        "pdFTSP timeline:\n{}",
        pdftsp_sim::render_timeline(&scenario, &results[0])
    );

    println!(
        "note: NTM's 'peak co-located LoRAs' is 1 by construction — that\n\
         column is the multi-LoRA sharing the paper's Fig. 2 illustrates."
    );
}
