//! Posted-price frontier: sweeps the static price of the de facto
//! fixed-pricing mechanism and shows the whole welfare/revenue frontier
//! sitting below the pdFTSP auction — the quantitative version of the
//! paper's introduction claim that fixed pricing "often fail[s] to meet
//! these requirements". Pass `--full` for paper scale.

use pdftsp_baselines::{FixedPrice, FixedPriceConfig};
use pdftsp_cluster::parallel_map;
use pdftsp_core::{Pdftsp, PdftspConfig};
use pdftsp_sim::{run_scheduler, FigureTable};
use pdftsp_workload::ArrivalProcess;

fn main() {
    let scale = pdftsp_bench::scale_from_args();
    let sc = pdftsp_workload::ScenarioBuilder {
        arrivals: ArrivalProcess::Poisson {
            mean_per_slot: scale.arrival_mean(50.0),
        },
        ..scale.base_builder()
    }
    .build();

    let prices: Vec<f64> = vec![0.4, 0.6, 0.8, 1.0, 1.2, 1.5, 2.0, 2.5, 3.0];
    let rows = parallel_map(&prices, |&p| {
        let mut fp = FixedPrice::new(
            &sc,
            FixedPriceConfig {
                price_per_kwork: p,
                vendor_passthrough: true,
            },
        );
        let r = run_scheduler(&sc, &mut fp);
        (
            r.welfare.social_welfare,
            r.welfare.revenue,
            r.welfare.admitted,
        )
    });

    let mut auction = Pdftsp::new(&sc, PdftspConfig::default());
    let a = run_scheduler(&sc, &mut auction).welfare;

    let mut table = FigureTable::new(
        "Posted-price frontier vs the pdFTSP auction",
        "posted price /k-work",
        vec!["welfare".into(), "revenue".into(), "admitted".into()],
    );
    for (&p, &(w, rev, adm)) in prices.iter().zip(&rows) {
        table.push_row(format!("{p:.2}"), vec![w, rev, adm as f64]);
    }
    table.push_row(
        "auction",
        vec![a.social_welfare, a.revenue, a.admitted as f64],
    );
    println!("{}", table.render());
    let best = rows.iter().map(|r| r.0).fold(f64::NEG_INFINITY, f64::max);
    println!(
        "best fixed-price welfare {:.0} vs auction {:.0} ({:+.1}% for the auction)",
        best,
        a.social_welfare,
        100.0 * (a.social_welfare / best - 1.0)
    );
}
