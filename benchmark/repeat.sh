#!/usr/bin/env bash
# Two full sets of untraced runs from ONE build, then the comparison table.
# The tool later changes use for parent-vs-change: make set a with the
# parent's build and set b with the change's, then run `compare` on the two.
#
#   benchmark/repeat.sh [runs-per-workload (default 10)] [seconds (default: BENCHMARK.json run_seconds)]
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
runs="${1:-10}"
seconds="${2:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")}"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/mlkv-benchmark"
mkdir -p "$here/out"
for set in a b; do
    out="$here/out/set-$set.jsonl"
    : > "$out"
    for workload in train-cold train-warm offload-lsm serve-mixed; do
        for seed in $(seq 1 "$runs"); do
            # The line before the last is the run's full record.
            "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
                | tail -n 2 | head -n 1 >> "$out"
        done
    done
done
"$bin" compare "$here/out/set-a.jsonl" "$here/out/set-b.jsonl"
