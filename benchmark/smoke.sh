#!/usr/bin/env bash
# Smoke check: the crate's tests, then all five workloads at 1/50 scale.
# Fails if any run exits non-zero or reports an incorrect result.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)

cargo test --release --quiet --manifest-path "$here/Cargo.toml"
for workload in wal_append inplace_rw meta_churn kv_ycsb_a crash_recover; do
    line=$(cargo run --release --quiet --manifest-path "$here/Cargo.toml" -- \
        --workload "$workload" --seed 1 --smoke | tail -n 1)
    case "$line" in
    '{"correct":true,'*'"failed":0,'*) echo "ok   $workload" ;;
    *)
        echo "FAIL $workload: $line" >&2
        exit 1
        ;;
    esac
done
