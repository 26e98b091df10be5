#!/usr/bin/env bash
# A/A calibration: the untraced suite twice on the same code, as two
# interleaved sets (a, b, a, b, ...) of N runs each, seeds 1..N in both.
# Writes the raw result lines to out/aa/ and the report to CALIBRATION.md.
#
#   benchmark/aa.sh [N]        N defaults to 10, the driver's own set size
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
runs=${1:-10}
out="$here/out/aa"
rm -rf "$out"
mkdir -p "$out"

cargo build --release --quiet --manifest-path "$here/Cargo.toml"
for seed in $(seq 1 "$runs"); do
    for set in a b; do
        for workload in wal_append inplace_rw meta_churn kv_ycsb_a crash_recover; do
            cargo run --release --quiet --manifest-path "$here/Cargo.toml" -- \
                --workload "$workload" --seed "$seed" | tail -n 1 >>"$out/$set-$workload.jsonl"
        done
    done
done
python3 "$here/aa_report.py" "$out" >"$here/CALIBRATION.md"
echo "wrote $here/CALIBRATION.md"
