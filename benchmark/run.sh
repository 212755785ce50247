#!/usr/bin/env bash
# Run the four workloads, one process each (so that peak_rss_mib belongs to
# its workload), and gather their result files into one result set.
#
#   benchmark/run.sh [arguments passed to every workload, e.g. --seed 7]
#
# The set is written to benchmark/out/results.json, or to $RESULTS. Two
# sets are compared with
#   cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
#       --compare a.json b.json
set -uo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
results="${RESULTS:-$here/out/results.json}"
workloads=(compute-bound protocol-bound recovery-path simulated-path)

status=0
for w in "${workloads[@]}"; do
    cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- \
        --workload "$w" "$@" || status=1
done

{
    printf '['
    sep=''
    for w in "${workloads[@]}"; do
        printf '%s' "$sep"
        cat "$here/out/$w.json" || status=1
        sep=','
    done
    printf ']\n'
} > "$results"
exit "$status"
