#!/usr/bin/env bash
# Repo-wide quality gate: formatting, lints-as-errors, full test suite.
# Run from anywhere; CI and pre-push hooks should call exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

# First, and the one step that needs no registry: benchmark/ builds offline
# against its vendored stand-ins. A forwarded predict answers in about a
# millisecond; 10 ms or more means a kernel timer (Nagle x delayed ACK, ~44 ms)
# is back on the gateway->service hop. See DESIGN.md section 15, transport rules.
echo "== forwarded-request latency gate (offline build; predict_open p50 < 10 ms, 0 failed) =="
bash benchmark/run.sh --workload predict_open --seed 7 --seconds 6 --trace 0 | tail -n 1 | python3 -c '
import json, sys
run = json.load(sys.stdin)
correct, failed, attempted = run["correct"], run["failed"], run["attempted"]
p50 = run["metrics"]["latency_p50_ms"]["value"]
print(f"correct={correct} failed={failed}/{attempted} latency_p50_ms={p50:.3f}")
sys.exit(0 if correct and failed == 0 and p50 < 10 else 1)
'

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (whole workspace, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test (default test harness parallelism) =="
cargo test -q

echo "== cargo test (RUST_TEST_THREADS=1: compute-pool results must not depend on harness scheduling) =="
RUST_TEST_THREADS=1 cargo test -q

echo "== performance baseline smoke (byte-identical outputs; >=1.3x speedup on multi-core) =="
cargo run -q --release -p spatial-bench --bin perf_baseline -- --smoke > /dev/null

echo "== oversight MTTD/MTTR smoke (small scale) =="
cargo run -q --release -p spatial-bench --bin oversight_mttr -- --samples 600 --rounds 26

echo "== rollout MTTR smoke (canary blast radius must be zero) =="
cargo run -q --release -p spatial-bench --bin rollout_mttr -- --smoke > /dev/null

echo "== recovery MTTR smoke (every recovery bit-identical; snapshot suffix bounded) =="
cargo run -q --release -p spatial-bench --bin recovery_mttr -- --smoke > /dev/null

echo "== crash-point sweep (single-threaded: the sweep spawns its own serving stacks) =="
RUST_TEST_THREADS=1 cargo test -q --test crash_recovery

echo "== SLO guard smoke (burn-rate pages on sustained burn, ignores blips)"
cargo run -q --release -p spatial-bench --bin slo_guard -- --smoke > /dev/null

echo "== gateway throughput smoke (reactor vs blocking core at p99 < 10ms; batch occupancy) =="
cargo run -q --release -p spatial-bench --bin gateway_throughput -- --smoke > /dev/null

echo "== ingest throughput smoke (replay bit-identical across ring/thread configs; stream detection beats retrain cadence; zero 5xx) =="
cargo run -q --release -p spatial-bench --bin ingest_throughput -- --smoke > /dev/null

echo "== conformance audit (oracles, axioms, metamorphic relations, wire fuzz smoke) =="
cargo run -q --release -p spatial-bench --bin conformance -- --smoke

# Everything above proves the workspace builds and runs here, so a committed
# benchmark placeholder is stale by definition: regenerate it with --write.
echo "== committed BENCH files must carry real numbers on a host that builds =="
stale=$(grep -l '"status": "not-yet-run"' BENCH_*.json 2>/dev/null || true)
if [ -n "$stale" ]; then
  echo "ERROR: placeholder benchmark file(s) still committed: $stale" >&2
  echo "       regenerate with: cargo run --release -p spatial-bench --bin <name> -- --write" >&2
  exit 1
fi

echo "all checks passed"
