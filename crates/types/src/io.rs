//! Plain-text scenario serialization.
//!
//! A `Scenario` round-trips through a simple line-based format so
//! experiments can be archived, diffed, and replayed bit-for-bit without
//! pulling a serialization framework into the dependency budget. The
//! format is versioned, self-describing, and deliberately boring:
//!
//! ```text
//! pdftsp-scenario v1
//! horizon 144
//! base_model_gb 1.26
//! node <id> <gpu> <compute_capacity> <memory_gb>
//! task <id> <arrival> <deadline> <dataset> <epochs> <memory_gb> <pp> <bid> <valuation> <energy_weight> <rates...>
//! budget <task_id> <cap>     # optional; absent = uncapped bidder
//! quotes <task_id> (<vendor> <price> <delay>)*
//! cost <k> <t0..>            # one row per node, horizon prices
//! ```
//!
//! Floats are written with `{:?}` (shortest round-trip representation),
//! so `load(save(s)) == s` exactly.

use crate::costgrid::CostGrid;
use crate::error::TypesError;
use crate::node::{GpuModel, NodeSpec};
use crate::scenario::Scenario;
use crate::task::Task;
use crate::vendor::VendorQuote;

/// Serializes `scenario` to the v1 text format.
#[must_use]
pub fn save(scenario: &Scenario) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "pdftsp-scenario v1");
    let _ = writeln!(out, "horizon {}", scenario.horizon);
    let _ = writeln!(out, "base_model_gb {:?}", scenario.base_model_gb);
    for n in &scenario.nodes {
        let _ = writeln!(
            out,
            "node {} {} {} {:?}",
            n.id,
            gpu_tag(n.gpu),
            n.compute_capacity,
            n.memory_gb
        );
    }
    for t in &scenario.tasks {
        let _ = write!(
            out,
            "task {} {} {} {} {} {:?} {} {:?} {:?} {:?}",
            t.id,
            t.arrival,
            t.deadline,
            t.dataset_samples,
            t.epochs,
            t.memory_gb,
            u8::from(t.needs_preprocessing),
            t.bid,
            t.valuation,
            t.energy_weight
        );
        for r in &t.rates {
            let _ = write!(out, " {r}");
        }
        out.push('\n');
    }
    // Budgets ride on their own tagged lines so the `task` record keeps
    // its v1 field layout (absent line = uncapped bidder).
    for t in &scenario.tasks {
        if let Some(b) = t.budget {
            let _ = writeln!(out, "budget {} {b:?}", t.id);
        }
    }
    for (i, quotes) in scenario.quotes.iter().enumerate() {
        if quotes.is_empty() {
            continue;
        }
        let _ = write!(out, "quotes {i}");
        for q in quotes {
            let _ = write!(out, " {} {:?} {}", q.vendor, q.price, q.delay);
        }
        out.push('\n');
    }
    for k in 0..scenario.nodes.len() {
        let _ = write!(out, "cost {k}");
        for t in 0..scenario.horizon {
            let _ = write!(out, " {:?}", scenario.cost.price(k, t));
        }
        out.push('\n');
    }
    out
}

/// Parses the v1 text format back into a validated [`Scenario`].
///
/// # Errors
/// Returns a [`TypesError`] describing the first malformed line or any
/// violated scenario invariant.
pub fn load(text: &str) -> Result<Scenario, TypesError> {
    let bad = |line_no: usize, why: &str| {
        TypesError::InvalidScenario(format!("line {}: {why}", line_no + 1))
    };
    let mut lines = text.lines().enumerate();
    let (n0, header) = lines
        .next()
        .ok_or_else(|| TypesError::InvalidScenario("empty input".into()))?;
    if header.trim() != "pdftsp-scenario v1" {
        return Err(bad(n0, "expected header `pdftsp-scenario v1`"));
    }

    let mut horizon: Option<usize> = None;
    let mut base_model_gb: Option<f64> = None;
    let mut nodes: Vec<NodeSpec> = Vec::new();
    let mut tasks: Vec<Task> = Vec::new();
    let mut quotes_by_task: Vec<(usize, Vec<VendorQuote>)> = Vec::new();
    let mut cost_rows: Vec<(usize, Vec<f64>)> = Vec::new();

    for (ln, raw) in lines {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let tag = it.next().expect("non-empty line");
        let mut next_f64 = |what: &str| -> Result<f64, TypesError> {
            it.next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad(ln, &format!("bad {what}")))
        };
        match tag {
            "horizon" => horizon = Some(next_f64("horizon")? as usize),
            "base_model_gb" => base_model_gb = Some(next_f64("base_model_gb")?),
            "node" => {
                let id = next_f64("node id")? as usize;
                let gpu = match it.next() {
                    Some(t) => parse_gpu(t).ok_or_else(|| bad(ln, "bad gpu tag"))?,
                    None => return Err(bad(ln, "missing gpu tag")),
                };
                let it2 = it.by_ref();
                let cap: u64 = it2
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad(ln, "bad capacity"))?;
                let mem: f64 = it2
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad(ln, "bad memory"))?;
                nodes.push(NodeSpec {
                    id,
                    gpu,
                    compute_capacity: cap,
                    memory_gb: mem,
                });
            }
            "task" => {
                let vals: Vec<&str> = it.collect();
                if vals.len() < 11 {
                    return Err(bad(ln, "task needs >= 11 fields"));
                }
                let p = |i: usize| -> Result<f64, TypesError> {
                    vals[i].parse().map_err(|_| bad(ln, "bad task number"))
                };
                let rates: Result<Vec<u64>, _> = vals[10..]
                    .iter()
                    .map(|v| v.parse::<u64>().map_err(|_| bad(ln, "bad rate")))
                    .collect();
                tasks.push(Task {
                    id: p(0)? as usize,
                    arrival: p(1)? as usize,
                    deadline: p(2)? as usize,
                    dataset_samples: p(3)? as u64,
                    epochs: p(4)? as u32,
                    memory_gb: p(5)?,
                    work: p(3)? as u64 * p(4)? as u64,
                    needs_preprocessing: p(6)? != 0.0,
                    bid: p(7)?,
                    valuation: p(8)?,
                    energy_weight: p(9)?,
                    rates: rates?,
                    budget: None,
                });
            }
            "budget" => {
                let task_id = next_f64("budget task id")? as usize;
                let value = next_f64("budget value")?;
                let task = tasks
                    .iter_mut()
                    .find(|t| t.id == task_id)
                    .ok_or_else(|| bad(ln, "budget for unknown task"))?;
                task.budget = Some(value);
            }
            "quotes" => {
                let task_id = next_f64("quotes task id")? as usize;
                let vals: Vec<&str> = it.collect();
                if !vals.len().is_multiple_of(3) {
                    return Err(bad(ln, "quotes need (vendor price delay) triples"));
                }
                let mut qs = Vec::with_capacity(vals.len() / 3);
                for chunk in vals.chunks(3) {
                    qs.push(VendorQuote {
                        vendor: chunk[0].parse().map_err(|_| bad(ln, "bad vendor"))?,
                        price: chunk[1].parse().map_err(|_| bad(ln, "bad price"))?,
                        delay: chunk[2].parse().map_err(|_| bad(ln, "bad delay"))?,
                    });
                }
                quotes_by_task.push((task_id, qs));
            }
            "cost" => {
                let k = next_f64("cost node")? as usize;
                let row: Result<Vec<f64>, _> = it
                    .map(|v| v.parse::<f64>().map_err(|_| bad(ln, "bad price")))
                    .collect();
                cost_rows.push((k, row?));
            }
            other => return Err(bad(ln, &format!("unknown tag `{other}`"))),
        }
    }

    let horizon = horizon.ok_or_else(|| TypesError::InvalidScenario("missing horizon".into()))?;
    let base_model_gb =
        base_model_gb.ok_or_else(|| TypesError::InvalidScenario("missing base_model_gb".into()))?;
    let mut quotes = vec![Vec::new(); tasks.len()];
    for (task_id, qs) in quotes_by_task {
        if task_id >= quotes.len() {
            return Err(TypesError::IndexOutOfRange {
                what: "quotes task",
                index: task_id,
                len: quotes.len(),
            });
        }
        quotes[task_id] = qs;
    }
    let mut price = vec![0.0; nodes.len() * horizon];
    for (k, row) in cost_rows {
        if k >= nodes.len() || row.len() != horizon {
            return Err(TypesError::InvalidScenario(format!(
                "cost row {k}: wrong length {} (horizon {horizon})",
                row.len()
            )));
        }
        price[k * horizon..(k + 1) * horizon].copy_from_slice(&row);
    }
    let scenario = Scenario {
        horizon,
        base_model_gb,
        nodes,
        tasks,
        quotes,
        cost: CostGrid::from_vec_unchecked_len_checked(price, horizon)?,
    };
    scenario.validate()?;
    Ok(scenario)
}

fn gpu_tag(gpu: GpuModel) -> &'static str {
    match gpu {
        GpuModel::A100_80 => "a100",
        GpuModel::A40_48 => "a40",
    }
}

fn parse_gpu(tag: &str) -> Option<GpuModel> {
    match tag {
        "a100" => Some(GpuModel::A100_80),
        "a40" => Some(GpuModel::A40_48),
        _ => None,
    }
}

impl CostGrid {
    /// Builds a grid from a price vector whose node count is implied by
    /// `len / horizon` (internal helper for the loader).
    pub(crate) fn from_vec_unchecked_len_checked(
        price: Vec<f64>,
        horizon: usize,
    ) -> Result<CostGrid, TypesError> {
        if horizon == 0 || !price.len().is_multiple_of(horizon) {
            return Err(TypesError::InvalidScenario(
                "cost grid length not divisible by horizon".into(),
            ));
        }
        let nodes = price.len() / horizon;
        CostGrid::from_vec(nodes, horizon, price)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskBuilder;

    fn sample() -> Scenario {
        let nodes = vec![
            NodeSpec::new(0, GpuModel::A100_80, 1000),
            NodeSpec::new(1, GpuModel::A40_48, 500),
        ];
        let tasks = vec![
            TaskBuilder::new(0, 0, 5)
                .dataset(100)
                .epochs(2)
                .memory_gb(2.5)
                .bid(4.25)
                .valuation(5.5)
                .energy_weight(1.5)
                .rates(vec![100, 50])
                .build()
                .unwrap(),
            TaskBuilder::new(1, 2, 9)
                .dataset(200)
                .bid(6.0)
                .needs_preprocessing(true)
                .budget(4.75)
                .rates(vec![100, 50])
                .build()
                .unwrap(),
        ];
        let quotes = vec![
            vec![],
            vec![
                VendorQuote {
                    vendor: 0,
                    price: 0.5,
                    delay: 1,
                },
                VendorQuote {
                    vendor: 1,
                    price: 0.25,
                    delay: 3,
                },
            ],
        ];
        let price: Vec<f64> = (0..20).map(|i| 0.1 * i as f64).collect();
        Scenario {
            horizon: 10,
            base_model_gb: 1.26,
            nodes,
            tasks,
            quotes,
            cost: CostGrid::from_vec(2, 10, price).unwrap(),
        }
    }

    #[test]
    fn save_load_round_trips_exactly() {
        let sc = sample();
        let text = save(&sc);
        let back = load(&text).unwrap();
        assert_eq!(back.horizon, sc.horizon);
        assert_eq!(back.base_model_gb, sc.base_model_gb);
        assert_eq!(back.nodes, sc.nodes);
        assert_eq!(back.tasks, sc.tasks);
        assert_eq!(back.quotes, sc.quotes);
        assert_eq!(back.cost, sc.cost);
    }

    #[test]
    fn header_is_mandatory() {
        assert!(load("horizon 5\n").is_err());
        assert!(load("").is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let sc = sample();
        let mut text = save(&sc);
        text = text.replace("horizon 10", "# a comment\n\nhorizon 10");
        assert!(load(&text).is_ok());
    }

    #[test]
    fn malformed_lines_are_reported_with_line_numbers() {
        let text = "pdftsp-scenario v1\nhorizon 10\nbase_model_gb 1.0\nwat 3\n";
        let err = load(text).unwrap_err();
        assert!(err.to_string().contains("line 4"), "{err}");
    }

    #[test]
    fn validation_still_runs_after_load() {
        // Deadline outside the horizon must be rejected by validate().
        let sc = sample();
        let text = save(&sc).replace("task 1 2 9", "task 1 2 99");
        assert!(load(&text).is_err());
    }

    #[test]
    fn task_arriving_after_its_deadline_is_rejected() {
        // Arrival 9 keeps the arrival order and deadline 5 sits inside
        // the horizon: only the window check can refuse it.
        let text = save(&sample()).replace("task 1 2 9", "task 1 9 5");
        assert_eq!(
            load(&text).unwrap_err(),
            TypesError::DeadlineBeforeArrival {
                arrival: 9,
                deadline: 5
            }
        );
    }

    #[test]
    fn truncated_task_line_fails() {
        let text = "pdftsp-scenario v1\nhorizon 4\nbase_model_gb 1.0\nnode 0 a100 10 80.0\ntask 0 0 3 100\n";
        assert!(load(text).is_err());
    }
}
