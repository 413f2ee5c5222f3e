#!/bin/sh
# Run the four dgxbench workloads in sequence and print every metric
# as "workload metric value unit".
#
#   dgxbench/run_benchmark.sh [seed=1] [seconds=run_seconds] [trace=0]
#
# seconds defaults to BENCHMARK.json's run_seconds. trace=0 prints the
# end-to-end metrics, trace=1 the per-layer ones. Exits 1 when any
# workload had a failed op or did not run.
set -u
cd "$(dirname "$0")/.." || exit 2
seed=${1:-1}
seconds=${2:-$(python3 -c \
    'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
trace=${3:-0}
status=0
for workload in paper-grid golden-wire analyze advise; do
    out=$(python3 dgxbench/run.py --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace") || status=1
    printf '%s\n' "$out" | grep -v '^{'
done
exit $status
