#!/usr/bin/env bash
# Tier-1 verification gate: release build, full workspace test suite,
# formatting, and lint-clean under -D warnings. CI and pre-commit both
# run exactly this script; keep it dependency-free (cargo toolchain only).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> solver reads no clock (outcomes depend on the node budget alone)"
if grep -rnE "Instant|SystemTime|std::time" crates/solver/src; then
    echo "crates/solver/src must not read the wall clock" >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> bench_milp smoke (solver equivalence, tiny instance)"
./target/release/bench_milp --smoke

echo "==> fault-injection smoke (seeded recovery run, deterministic)"
fault_args=(run --nodes 6 --slots 24 --mean 3 --seed 11 --faults crashes=2,outage=4,seed=7)
./target/release/pdftsp "${fault_args[@]}" > /tmp/pdftsp-faults-a.txt
./target/release/pdftsp "${fault_args[@]}" > /tmp/pdftsp-faults-b.txt
grep -q "replay           : OK" /tmp/pdftsp-faults-a.txt
cmp /tmp/pdftsp-faults-a.txt /tmp/pdftsp-faults-b.txt
rm -f /tmp/pdftsp-faults-a.txt /tmp/pdftsp-faults-b.txt

echo "==> fault-injection telemetry smoke (service event sink, deterministic JSONL)"
# No event field reads the wall clock, so the stream is byte-stable.
./target/release/pdftsp "${fault_args[@]}" --telemetry /tmp/pdftsp-faults-a.jsonl > /dev/null
./target/release/pdftsp "${fault_args[@]}" --telemetry /tmp/pdftsp-faults-b.jsonl > /dev/null
grep -q '"ev":"node_down"' /tmp/pdftsp-faults-a.jsonl
cmp /tmp/pdftsp-faults-a.jsonl /tmp/pdftsp-faults-b.jsonl
rm -f /tmp/pdftsp-faults-a.jsonl /tmp/pdftsp-faults-b.jsonl

echo "==> bench_service smoke (sharded-service determinism, open-loop rates)"
./target/release/bench_service --smoke

echo "==> bench_spot smoke (spot-market comparison + revocation determinism)"
./target/release/bench_spot --smoke

echo "==> benchmark package tests (its own cargo package, builds the service API it calls)"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "verify: OK"
