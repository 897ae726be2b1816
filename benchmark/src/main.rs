//! End-to-end and per-layer benchmark of the sharded pdFTSP auction
//! service.
//!
//! ```text
//! pdftsp-benchmark --workload <flood|vendor_market|spot_churn> --seed <n>
//!                  --seconds <s> --trace <0|1> [--out <path>] [--smoke]
//! ```
//!
//! With `--trace 0` the run prints the end-to-end metrics, with
//! `--trace 1` the per-layer ones; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! Every service run's outputs are checked; a failed check makes the
//! command exit with code 1. `--out` also writes the full result, with
//! the host shape and digests, to the given path.

mod host;
mod layers;
mod service;
mod workload;

use pdftsp_cluster::{hardware_threads, set_thread_override};
use pdftsp_sim::Observability;
use service::{check, paced, slot_starts, unpaced, Digests, Paced};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Instance, Workload, SHARDS};

const USAGE: &str = "usage: pdftsp-benchmark --workload <flood|vendor_market|spot_churn> \
                     --seed <n> --seconds <s> --trace <0|1> [--out <path>] [--smoke]";

/// Timed unpaced repetitions of each instance made even when its share
/// of `--seconds` is already spent.
const MIN_REPS: usize = 1;

/// Lateness (start delay of an epoch after its batch arrived) that the
/// second half of a paced run may add over the first half before the
/// rung counts as building a backlog, seconds.
const LATENESS_GROWTH_S: f64 = 0.010;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
    smoke: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut out, mut smoke) = (None, false);
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    });
                }
                "--out" => out = Some(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            out,
            smoke,
        })
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Tasks offered and lost across every service run of the process, and
/// every failed output check.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts a run offering `offered` tasks; an error loses all of them.
    pub fn run<T>(&mut self, offered: usize, r: Result<T, String>) -> Option<T> {
        self.attempted += offered as u64;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += offered as u64;
                self.problems.push(e);
                None
            }
        }
    }

    /// Records a failed check that loses `lost` tasks of a run already
    /// counted.
    pub fn fail(&mut self, lost: usize, problem: String) {
        self.failed += lost as u64;
        self.problems.push(problem);
    }

    /// Checks a finished run against the first one's digests.
    pub fn verify(
        &mut self,
        inst: &Instance,
        out: &pdftsp_sim::ServiceOutcome,
        reference: &mut Option<Digests>,
    ) -> Option<service::LedgerReplay> {
        let n = inst.scenario.tasks.len();
        let (digests, replay) = match check(&inst.scenario, out) {
            Ok(v) => v,
            Err(e) => {
                self.fail(n, e);
                return None;
            }
        };
        match reference {
            None => *reference = Some(digests),
            Some(r) if *r != digests => self.fail(
                n,
                format!("repetition changed the decisions: {digests:?} vs {r:?}"),
            ),
            Some(_) => {}
        }
        Some(replay)
    }
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q ∈ (0, 1]` of `xs`, and how many samples
/// lie beyond it.
pub fn percentile(xs: &[f64], q: f64) -> (f64, usize) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return (f64::NAN, 0);
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // At most one pool thread per hardware thread.
    set_thread_override(Some(hardware_threads()));
    let host = host::shape_json(SHARDS);
    println!("host {host}");

    println!("workload {} seed {}", args.workload.name(), args.seed);

    let mut tally = Tally::default();
    let ticks = host::cpu_ticks();
    let metrics = if args.trace {
        layers::measure(args.workload, args.seed, args.smoke, &mut tally)
    } else {
        end_to_end(
            args.workload,
            args.seed,
            args.smoke,
            args.seconds,
            &mut tally,
        )
    };

    if let (Some((total0, steal0)), Some((total1, steal1))) = (ticks, host::cpu_ticks()) {
        let share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        tally.notes.push(format!(
            "host cpu steal during the run: {:.1}%",
            share * 100.0
        ));
    }
    for m in &metrics {
        if !m.value.is_finite() {
            tally
                .problems
                .push(format!("metric {} is not finite", m.name));
        }
    }
    for note in &tally.notes {
        println!("{note}");
    }
    for p in &tally.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = tally.problems.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    if let Some(path) = &args.out {
        let quoted = |lines: &[String]| {
            let q: Vec<String> = lines.iter().map(|l| format!("{l:?}")).collect();
            q.join(", ")
        };
        let full = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host\": {host}, \
             \"notes\": [{}], \"problems\": [{}], \"result\": {result}}}\n",
            args.workload.name(),
            args.seed,
            args.trace,
            quoted(&tally.notes),
            quoted(&tally.problems),
        );
        if let Err(e) = std::fs::write(path, full) {
            eprintln!("--out {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end run: one checked, untimed warm-up run (the first run
/// of a process is markedly slower: page faults, cold caches, pool
/// start-up), then for each instance in turn the paced rate ladder and
/// unpaced repetitions until the instance's share of `seconds` is spent
/// (at least [`MIN_REPS`]). Every repetition is checked, and must
/// reproduce the instance's first one exactly.
fn end_to_end(w: Workload, seed: u64, smoke: bool, seconds: u64, tally: &mut Tally) -> Vec<Metric> {
    let shape = w.shape(smoke);
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut welfare = 0.0;
    let mut rungs: Vec<Rung> = shape.ladder.iter().map(|_| Rung::default()).collect();
    for part in 0..shape.instances {
        let inst = w.generate(seed, part, smoke);
        let n = inst.scenario.tasks.len();
        let mut reference = None;
        if part == 0 {
            if let Some(u) = tally.run(n, unpaced(&inst, Observability::default())) {
                tally.verify(&inst, &u.outcome, &mut reference);
            }
        }
        ladder(&inst, &shape, tally, &mut setups, &mut rungs);
        let deadline =
            start + Duration::from_secs(seconds) * (part as u32 + 1) / shape.instances as u32;
        let first = rates.len();
        while rates.len() - first < MIN_REPS || Instant::now() < deadline {
            let Some(u) = tally.run(n, unpaced(&inst, Observability::default())) else {
                break;
            };
            if rates.len() == first {
                welfare += u.outcome.welfare.social_welfare / shape.instances as f64;
            }
            tally.verify(&inst, &u.outcome, &mut reference);
            setups.push(u.setup_s);
            rates.push(u.outcome.decisions.len() as f64 / u.wall_s);
        }
        if let Some(d) = reference {
            tally.notes.push(format!(
                "instance {part}: {n} tasks, decision fingerprint {:016x}, ledger digest {:016x}, \
                 {} timed repetitions at a median {:.1} decisions/s",
                d.fingerprint,
                d.ledger,
                rates.len() - first,
                median(&rates[first..])
            ));
        }
    }

    // The nominal rung gives the admission percentiles; the highest
    // sustainable rung gives the maximum rate. Each is a median over the
    // rung's runs.
    let mut admission = (f64::NAN, f64::NAN);
    let mut max_rate = 0.0;
    for (i, (&rate, rung)) in shape.ladder.iter().zip(&rungs).enumerate() {
        let (p50, p99) = (median(&rung.p50_s), median(&rung.p99_s));
        let growth = median(&rung.growth_s);
        let sustainable = p99 * 1e3 <= shape.p99_limit_ms && growth <= LATENESS_GROWTH_S;
        let sustained = median(&rung.sustained_per_s);
        tally.notes.push(format!(
            "rung {rate}/s: {} runs, p50 {:.3} ms, p99 {:.3} ms ({} samples, at least {} beyond \
             p99 in each run), lateness growth {:.3} ms, sustained {sustained:.1}/s{}",
            rung.p99_s.len(),
            p50 * 1e3,
            p99 * 1e3,
            rung.samples,
            rung.min_beyond_p99,
            growth * 1e3,
            if sustainable {
                ""
            } else {
                " (not sustainable)"
            }
        ));
        if i == 0 {
            if rung.min_beyond_p99 < 10 {
                tally.problems.push(format!(
                    "only {} admission samples beyond p99 at the nominal rate",
                    rung.min_beyond_p99
                ));
            }
            admission = (p50 * 1e3, p99 * 1e3);
        }
        if sustainable {
            max_rate = sustained;
        }
    }

    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    tally.notes.push(format!("failed_frac {failed_frac}"));
    let metric = |name, value, unit| Metric { name, value, unit };
    vec![
        metric("setup_s", median(&setups), "s"),
        metric("decisions_per_s", median(&rates), "1/s"),
        metric("admission_p50_ms", admission.0, "ms"),
        metric("admission_p99_ms", admission.1, "ms"),
        metric("max_rate_per_s", max_rate, "1/s"),
        metric("welfare", welfare, "bid_units"),
        metric("decided_frac", 1.0 - failed_frac, "ratio"),
        metric("peak_rss_mb", host::peak_rss_mb().unwrap_or(f64::NAN), "MB"),
    ]
}

/// Per-run results of one ladder rung, over the instances of a run.
struct Rung {
    p50_s: Vec<f64>,
    p99_s: Vec<f64>,
    samples: usize,
    min_beyond_p99: usize,
    growth_s: Vec<f64>,
    sustained_per_s: Vec<f64>,
}

impl Default for Rung {
    fn default() -> Rung {
        Rung {
            p50_s: Vec::new(),
            p99_s: Vec::new(),
            samples: 0,
            min_beyond_p99: usize::MAX,
            growth_s: Vec::new(),
            sustained_per_s: Vec::new(),
        }
    }
}

/// Runs every rung of the workload's fixed rate ladder over the paced
/// prefix of `inst`, the nominal (first) rung `nominal_runs` times. A
/// rung is sustainable when its admission p99 meets the workload's limit
/// and lateness does not grow from the first half of the run to the
/// second; the maximum rate reported is the decision rate actually
/// sustained at the highest such rung.
fn ladder(
    inst: &Instance,
    shape: &workload::Shape,
    tally: &mut Tally,
    setups: &mut Vec<f64>,
    rungs: &mut [Rung],
) {
    let starts = match slot_starts(&inst.scenario) {
        Ok(s) => s,
        Err(e) => {
            tally.problems.push(e);
            return;
        }
    };
    let mut digest = None;
    for (i, (&rate, rung)) in shape.ladder.iter().zip(rungs).enumerate() {
        let runs = if i == 0 { shape.nominal_runs } else { 1 };
        for _ in 0..runs {
            let Some(p) =
                checked_paced(inst, &starts, rate, shape.paced_epochs, &mut digest, tally)
            else {
                continue;
            };
            setups.push(p.setup_s);
            let (p99, beyond) = percentile(&p.latencies_s, 0.99);
            rung.p50_s.push(percentile(&p.latencies_s, 0.5).0);
            rung.p99_s.push(p99);
            rung.samples += p.latencies_s.len();
            rung.min_beyond_p99 = rung.min_beyond_p99.min(beyond);
            rung.growth_s.push(lateness_growth(&p));
            rung.sustained_per_s.push(p.sustained_per_s);
        }
    }
}

/// One paced run, checked: every offered task is decided, and the
/// ledger after the prefix matches `digest`, the first such run's, at
/// every rate.
pub fn checked_paced(
    inst: &Instance,
    starts: &[usize],
    rate: f64,
    epochs: usize,
    digest: &mut Option<u64>,
    tally: &mut Tally,
) -> Option<Paced> {
    let covered = (epochs * inst.config.epoch_slots).min(inst.scenario.horizon);
    let offered = starts[covered];
    let p = tally.run(offered, paced(inst, starts, rate, epochs))?;
    if p.decided != offered {
        tally.fail(
            offered.saturating_sub(p.decided),
            format!(
                "paced run at {rate}/s decided {} of {offered} tasks",
                p.decided
            ),
        );
        return None;
    }
    match digest {
        None => *digest = Some(p.digest),
        Some(d) if *d != p.digest => {
            tally.fail(
                offered,
                format!("the arrival rate {rate}/s changed the decisions"),
            );
            return None;
        }
        Some(_) => {}
    }
    Some(p)
}

/// Median lateness of the second half of the epochs minus that of the
/// first half, seconds.
fn lateness_growth(p: &Paced) -> f64 {
    let late: Vec<f64> = p.epochs.iter().map(|e| e.late_s).collect();
    let (first, second) = late.split_at(late.len() / 2);
    if first.is_empty() {
        return 0.0;
    }
    median(second) - median(first)
}
