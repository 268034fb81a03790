#!/usr/bin/env bash
# Builds the benchmark (offline, against the stand-ins in vendor/) and runs it.
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       One run; the last line of stdout is the result object. This is the
#       command in BENCHMARK.json.
#   run.sh --repeat <k> [--seed <n>] [--seconds <s>]
#       Every workload k times, alternating the order, results side by side;
#       fails if an end-to-end metric (setup_s excepted) moves between runs by
#       more than its own bound in BENCHMARK.json.
#   run.sh --trace-summary
#       Span tables of the trace files that --trace 1 runs left in out/.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
# The build directory: CARGO_TARGET_DIR if set (relative to where the caller
# stands, as cargo would read it), else .bench_build at the root of the checkout.
target=${CARGO_TARGET_DIR:-$here/../.bench_build}
case $target in
    /*) ;;
    *) target=$PWD/$target ;;
esac
export CARGO_TARGET_DIR=$target

# cargo finds .cargo/config.toml (the vendor/ source replacement) from the
# working directory, not from the manifest: build from here.
cd "$here"
cargo build --release --offline --quiet >&2
bin=$target/release/spatial-benchmark

if [ "${1:-}" != "--repeat" ]; then
    exec "$bin" "$@"
fi

repeat=${2:?--repeat needs a count}
shift 2
seed=7
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' ../BENCHMARK.json)
while [ $# -gt 0 ]; do
    case $1 in
        --seed) seed=$2 ;;
        --seconds) seconds=$2 ;;
        *) echo "run.sh: unknown option $1" >&2; exit 2 ;;
    esac
    shift 2
done

workloads=(predict_open explain_open stream_open mixed_ops)
mkdir -p out
for ((round = 1; round <= repeat; round++)); do
    order=("${workloads[@]}")
    if ((round % 2 == 0)); then
        order=(mixed_ops stream_open explain_open predict_open)
    fi
    for workload in "${order[@]}"; do
        echo "run $round: $workload" >&2
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 |
            tail -n 1 >"out/repeat-$workload-$round.json"
    done
done

python3 - "$repeat" "${workloads[@]}" <<'EOF'
import json, sys

repeat, workloads = int(sys.argv[1]), sys.argv[2:]
bounds = {m["name"]: m for m in json.load(open("../BENCHMARK.json"))["end_to_end"]}
ok = True
for workload in workloads:
    runs = [json.load(open(f"out/repeat-{workload}-{r}.json")) for r in range(1, repeat + 1)]
    print(workload)
    for run in runs:
        if not run["correct"] or run["failed"]:
            ok = False
            print(f"  incorrect run: {run['failed']} of {run['attempted']} operations failed")
    for name, spec in bounds.items():
        values = [run["metrics"][name]["value"] for run in runs]
        best = min(values) if spec["better"] == "lower" else max(values)
        worst = max(values) if spec["better"] == "lower" else min(values)
        moved = abs(worst - best) / abs(best)
        # setup_s is a sub-second, CPU-bound figure whose single readings differ by
        # tens of percent on this host; like the driver's spread check, this check
        # shows it and does not gate on it.
        gating = name != "setup_s"
        verdict = "ok" if moved <= spec["bound"] else ("DIFFERS" if gating else "differs (not gating)")
        ok = ok and (moved <= spec["bound"] or not gating)
        shown = "  ".join(f"{v:12.4f}" for v in values)
        print(f"  {name:<20} {shown}  {spec['unit']:<6} moved {moved:6.1%} (bound {spec['bound']:.0%}) {verdict}")
sys.exit(0 if ok else 1)
EOF
