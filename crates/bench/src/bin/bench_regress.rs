//! CI bench-regression gate: compares freshly emitted `BENCH_sched.json`
//! / `BENCH_service.json` / `BENCH_spot.json` headline numbers against
//! the committed baselines and exits nonzero on a real regression.
//!
//! Usage: `bench_regress --baseline DIR --fresh DIR`
//!
//! Policy (headline numbers only — the full files stay human-diffable):
//!
//! * **fail** — `speedup_p50` / `speedup_mean` dropping more than 25%
//!   below baseline, span-path overhead (`overhead_frac`) growing
//!   beyond `baseline × 1.25 + 0.02`, and pool dispatch overhead
//!   (`pool_ns_per_task`) growing beyond `baseline × 1.25 + 300 ns`;
//! * **warn** — absolute throughput (`sustained_decisions_per_s`) and
//!   determinism digests (`welfare_bits` / `ledger_digest` /
//!   `decision_fingerprint`), which are host- and thread-count-shaped.
//!   Setting `PDFTSP_BENCH_STRICT=1` promotes warnings to failures.
//!
//! The parser is a dependency-free key scanner: for every occurrence of
//! `"key":` it reads the literal that follows, in document order. Both
//! emitters write keys in a fixed order, so pairwise comparison by
//! position is well-defined.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Max allowed fractional drop in a bigger-is-better headline number.
const MAX_DROP: f64 = 0.25;
/// Allowed growth of the measured span overhead fraction: relative
/// slack plus an absolute floor (the fraction is noisy near zero).
const OVERHEAD_REL_SLACK: f64 = 1.25;
const OVERHEAD_ABS_SLACK: f64 = 0.02;
/// Absolute slack for the pool dispatch-overhead gate: per-task
/// nanoseconds are dominated by scheduler jitter at the low end.
const POOL_NS_ABS_SLACK: f64 = 300.0;

/// Every numeric value following `"key":`, in document order.
fn numbers_for(text: &str, key: &str) -> Vec<f64> {
    literals_for(text, key)
        .into_iter()
        .filter_map(|lit| lit.parse::<f64>().ok())
        .collect()
}

/// Every string value following `"key":`, in document order.
fn strings_for(text: &str, key: &str) -> Vec<String> {
    literals_for(text, key)
        .into_iter()
        .filter_map(|lit| {
            let lit = lit.strip_prefix('"')?;
            Some(lit.strip_suffix('"')?.to_owned())
        })
        .collect()
}

/// The raw literal (number or quoted string) after each `"key":`.
fn literals_for(text: &str, key: &str) -> Vec<String> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at + needle.len()..];
        let value = rest.trim_start();
        let lit = if let Some(body) = value.strip_prefix('"') {
            let end = body.find('"').unwrap_or(body.len());
            format!("\"{}\"", &body[..end])
        } else {
            value
                .chars()
                .take_while(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
                .collect()
        };
        if !lit.is_empty() {
            out.push(lit);
        }
    }
    out
}

struct Gate {
    failures: Vec<String>,
    warnings: Vec<String>,
    checks: usize,
    strict: bool,
}

impl Gate {
    fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    fn warn(&mut self, msg: String) {
        if self.strict {
            self.failures.push(msg);
        } else {
            self.warnings.push(msg);
        }
    }

    /// Pairwise bigger-is-better check with the 25% drop budget.
    fn check_drop(&mut self, file: &str, key: &str, base: &[f64], fresh: &[f64], hard: bool) {
        if base.len() != fresh.len() {
            self.warn(format!(
                "{file}: `{key}` count changed ({} baseline vs {} fresh) — skipping pairwise check",
                base.len(),
                fresh.len()
            ));
            return;
        }
        for (i, (b, f)) in base.iter().zip(fresh).enumerate() {
            self.checks += 1;
            if *f < b * (1.0 - MAX_DROP) {
                let msg = format!(
                    "{file}: `{key}`[{i}] regressed {:.1}% (baseline {b:.3}, fresh {f:.3})",
                    100.0 * (1.0 - f / b.max(1e-12)),
                );
                if hard {
                    self.fail(msg);
                } else {
                    self.warn(msg);
                }
            }
        }
    }
}

fn read(dir: &Path, name: &str) -> Option<String> {
    let path = dir.join(name);
    match std::fs::read_to_string(&path) {
        Ok(text) => Some(text),
        Err(e) => {
            eprintln!("bench_regress: cannot read {}: {e}", path.display());
            None
        }
    }
}

fn check_sched(gate: &mut Gate, base: &str, fresh: &str) {
    let file = "BENCH_sched.json";
    for key in ["speedup_p50", "speedup_mean"] {
        gate.check_drop(
            file,
            key,
            &numbers_for(base, key),
            &numbers_for(fresh, key),
            true,
        );
    }
    // Span overhead: smaller is better, with relative + absolute slack.
    let b = numbers_for(base, "overhead_frac");
    let f = numbers_for(fresh, "overhead_frac");
    match (b.first(), f.first()) {
        (Some(b), Some(f)) => {
            gate.checks += 1;
            let budget = b.max(0.0) * OVERHEAD_REL_SLACK + OVERHEAD_ABS_SLACK;
            if *f > budget {
                gate.fail(format!(
                    "{file}: span `overhead_frac` grew to {f:.4} (baseline {b:.4}, budget {budget:.4})"
                ));
            }
        }
        (None, _) => gate.warn(format!(
            "{file}: baseline has no `overhead_frac` — re-emit the committed baseline"
        )),
        (_, None) => gate.fail(format!("{file}: fresh emission lost `overhead_frac`")),
    }
}

fn check_service(gate: &mut Gate, base: &str, fresh: &str) {
    let file = "BENCH_service.json";
    // Digests are only comparable when the run shape matches.
    let shape_matches = ["shards", "configured_threads", "epoch_slots"]
        .iter()
        .all(|k| numbers_for(base, k) == numbers_for(fresh, k));
    if shape_matches {
        for key in ["welfare_bits", "ledger_digest", "decision_fingerprint"] {
            let b = strings_for(base, key);
            let f = strings_for(fresh, key);
            gate.checks += 1;
            if b != f {
                gate.warn(format!(
                    "{file}: `{key}` changed ({b:?} -> {f:?}) — economics drifted"
                ));
            }
        }
    } else {
        gate.warn(format!(
            "{file}: run shape differs from baseline — skipping digest comparison"
        ));
    }
    let key = "sustained_decisions_per_s";
    gate.check_drop(
        file,
        key,
        &numbers_for(base, key),
        &numbers_for(fresh, key),
        false,
    );
    // Pool dispatch overhead: smaller is better, relative + absolute
    // slack (same shape as the span-overhead gate, in nanoseconds).
    let b = numbers_for(base, "pool_ns_per_task");
    let f = numbers_for(fresh, "pool_ns_per_task");
    match (b.first(), f.first()) {
        (Some(b), Some(f)) => {
            gate.checks += 1;
            let budget = b.max(0.0) * OVERHEAD_REL_SLACK + POOL_NS_ABS_SLACK;
            if *f > budget {
                gate.fail(format!(
                    "{file}: `pool_ns_per_task` grew to {f:.0} ns (baseline {b:.0}, budget {budget:.0})"
                ));
            }
        }
        (None, _) => gate.warn(format!(
            "{file}: baseline has no `pool_ns_per_task` — re-emit the committed baseline"
        )),
        (_, None) => gate.fail(format!("{file}: fresh emission lost `pool_ns_per_task`")),
    }
}

fn check_spot(gate: &mut Gate, base: &str, fresh: &str) {
    let file = "BENCH_spot.json";
    // The fresh determinism block must be *internally* identical: every
    // worker-count row carries the same welfare bits, refund
    // bits, ledger digest, and decision fingerprint. The emitter asserts
    // this too; re-checking here catches a hand-edited artifact.
    for key in [
        "welfare_bits",
        "refund_bits",
        "ledger_digest",
        "decision_fingerprint",
    ] {
        let rows = strings_for(fresh, key);
        gate.checks += 1;
        if rows.windows(2).any(|w| w[0] != w[1]) {
            gate.fail(format!(
                "{file}: determinism `{key}` differs across worker rows: {rows:?}"
            ));
        }
    }
    // Economics digests are exact per-seed reproductions — comparable
    // only when the run shape matches the baseline emission.
    let shape_matches = ["configured_threads", "horizon", "nodes", "tasks"]
        .iter()
        .all(|k| numbers_for(base, k) == numbers_for(fresh, k));
    if !shape_matches {
        gate.warn(format!(
            "{file}: run shape differs from baseline — skipping digest comparison"
        ));
        return;
    }
    // Numeric digests: welfare and refund volume per seed and system
    // (document order pairs pdFTSP/baseline rows one-to-one).
    for key in ["welfare", "refund_volume", "deadline_miss_rate"] {
        let b = numbers_for(base, key);
        let f = numbers_for(fresh, key);
        gate.checks += 1;
        if b != f {
            gate.warn(format!(
                "{file}: `{key}` digests changed ({b:?} -> {f:?}) — spot economics drifted"
            ));
        }
    }
    for key in [
        "welfare_bits",
        "refund_bits",
        "ledger_digest",
        "decision_fingerprint",
    ] {
        let b = strings_for(base, key);
        let f = strings_for(fresh, key);
        gate.checks += 1;
        if b != f {
            gate.warn(format!(
                "{file}: determinism `{key}` changed ({b:?} -> {f:?})"
            ));
        }
    }
}

fn main() -> ExitCode {
    let mut baseline: Option<PathBuf> = None;
    let mut fresh: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline = args.next().map(PathBuf::from),
            "--fresh" => fresh = args.next().map(PathBuf::from),
            other => {
                eprintln!("bench_regress: unknown argument `{other}`");
                eprintln!("usage: bench_regress --baseline DIR --fresh DIR");
                return ExitCode::FAILURE;
            }
        }
    }
    let (Some(baseline), Some(fresh)) = (baseline, fresh) else {
        eprintln!("usage: bench_regress --baseline DIR --fresh DIR");
        return ExitCode::FAILURE;
    };

    let strict = std::env::var("PDFTSP_BENCH_STRICT").is_ok_and(|v| v == "1");
    let mut gate = Gate {
        failures: Vec::new(),
        warnings: Vec::new(),
        checks: 0,
        strict,
    };

    match (
        read(&baseline, "BENCH_sched.json"),
        read(&fresh, "BENCH_sched.json"),
    ) {
        (Some(b), Some(f)) => check_sched(&mut gate, &b, &f),
        _ => gate.fail("BENCH_sched.json missing on one side".to_owned()),
    }
    match (
        read(&baseline, "BENCH_service.json"),
        read(&fresh, "BENCH_service.json"),
    ) {
        (Some(b), Some(f)) => check_service(&mut gate, &b, &f),
        _ => gate.fail("BENCH_service.json missing on one side".to_owned()),
    }
    match (
        read(&baseline, "BENCH_spot.json"),
        read(&fresh, "BENCH_spot.json"),
    ) {
        (Some(b), Some(f)) => check_spot(&mut gate, &b, &f),
        _ => gate.fail("BENCH_spot.json missing on one side".to_owned()),
    }

    for w in &gate.warnings {
        println!("WARN  {w}");
    }
    for f in &gate.failures {
        println!("FAIL  {f}");
    }
    println!(
        "bench_regress: {} checks, {} warnings, {} failures{}",
        gate.checks,
        gate.warnings.len(),
        gate.failures.len(),
        if strict { " (strict)" } else { "" }
    );
    if gate.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
  "markets": {"a": {"speedup_p50": 2.384, "speedup_mean": 4.5},
              "b": {"speedup_p50": 7.9, "speedup_mean": 17.0}},
  "determinism": [{"welfare_bits": "40ce7a80a2a14858"}],
  "span_overhead": {"overhead_frac": 0.0310}
}"#;

    #[test]
    fn scanner_finds_every_occurrence_in_order() {
        assert_eq!(numbers_for(DOC, "speedup_p50"), vec![2.384, 7.9]);
        assert_eq!(numbers_for(DOC, "overhead_frac"), vec![0.0310]);
        assert_eq!(
            strings_for(DOC, "welfare_bits"),
            vec!["40ce7a80a2a14858".to_owned()]
        );
        assert!(numbers_for(DOC, "absent").is_empty());
    }

    #[test]
    fn drop_budget_passes_small_and_fails_large_regressions() {
        let mut gate = Gate {
            failures: Vec::new(),
            warnings: Vec::new(),
            checks: 0,
            strict: false,
        };
        gate.check_drop("f", "k", &[10.0, 10.0], &[8.0, 9.5], true);
        assert!(gate.failures.is_empty(), "{:?}", gate.failures);
        gate.check_drop("f", "k", &[10.0], &[7.0], true);
        assert_eq!(gate.failures.len(), 1);
        // Warn-only category stays a warning unless strict.
        gate.check_drop("f", "k", &[10.0], &[7.0], false);
        assert_eq!(gate.warnings.len(), 1);
        assert_eq!(gate.failures.len(), 1);
    }

    fn service_doc(sustained: f64, pool_ns: f64) -> String {
        format!(
            r#"{{
  "config": {{"shards": 2, "configured_threads": 1, "epoch_slots": 8}},
  "rates": [{{"sustained_decisions_per_s": {sustained}}}],
  "determinism": [{{"welfare_bits": "40ce7a80a2a14858",
                    "ledger_digest": "11", "decision_fingerprint": "22"}}],
  "spawn_overhead": {{"pool_ns_per_task": {pool_ns}}}
}}"#
        )
    }

    fn spot_doc(welfare: f64, bits: &str, bits2: &str) -> String {
        format!(
            r#"{{
  "configured_threads": 1,
  "scenario": {{"horizon": 48, "nodes": 12, "tasks": 380}},
  "comparison": [{{"pdftsp": {{"welfare": {welfare}, "refund_volume": 12.5,
                              "deadline_miss_rate": 0.1}},
                  "baseline": {{"welfare": 200.0, "refund_volume": 0.0,
                                "deadline_miss_rate": 0.3}}}}],
  "determinism": [
    {{"welfare_bits": "{bits}", "refund_bits": "aa", "ledger_digest": "bb",
      "decision_fingerprint": "cc"}},
    {{"welfare_bits": "{bits2}", "refund_bits": "aa", "ledger_digest": "bb",
      "decision_fingerprint": "cc"}}
  ]
}}"#
        )
    }

    #[test]
    fn spot_gate_fails_internal_divergence_and_warns_on_drift() {
        let base = spot_doc(500.0, "11", "11");
        // Identical: clean pass.
        let mut gate = Gate {
            failures: Vec::new(),
            warnings: Vec::new(),
            checks: 0,
            strict: false,
        };
        check_spot(&mut gate, &base, &spot_doc(500.0, "11", "11"));
        assert!(gate.failures.is_empty(), "{:?}", gate.failures);
        assert!(gate.warnings.is_empty(), "{:?}", gate.warnings);
        // Worker rows disagreeing is a hard failure.
        check_spot(&mut gate, &base, &spot_doc(500.0, "11", "22"));
        assert_eq!(gate.failures.len(), 1, "{:?}", gate.failures);
        // Welfare digest drift against the baseline is warn-only.
        let mut gate = Gate {
            failures: Vec::new(),
            warnings: Vec::new(),
            checks: 0,
            strict: false,
        };
        check_spot(&mut gate, &base, &spot_doc(480.0, "33", "33"));
        assert!(gate.failures.is_empty(), "{:?}", gate.failures);
        assert_eq!(gate.warnings.len(), 2, "{:?}", gate.warnings);
    }

    #[test]
    fn pool_overhead_gate_fails_only_past_the_budget() {
        let base = service_doc(100_000.0, 600.0);
        // Within budget: 600 * 1.25 + 300 = 1050 ns.
        let mut gate = Gate {
            failures: Vec::new(),
            warnings: Vec::new(),
            checks: 0,
            strict: false,
        };
        check_service(&mut gate, &base, &service_doc(100_000.0, 1000.0));
        assert!(gate.failures.is_empty(), "{:?}", gate.failures);
        // Past budget: hard failure.
        check_service(&mut gate, &base, &service_doc(100_000.0, 1200.0));
        assert_eq!(gate.failures.len(), 1);
        // Throughput collapse is warn-only (host-shaped).
        let mut gate = Gate {
            failures: Vec::new(),
            warnings: Vec::new(),
            checks: 0,
            strict: false,
        };
        check_service(&mut gate, &base, &service_doc(50_000.0, 600.0));
        assert!(gate.failures.is_empty(), "{:?}", gate.failures);
        assert_eq!(gate.warnings.len(), 1, "{:?}", gate.warnings);
    }
}
