#!/bin/sh
# Runs the whole benchmark once: every workload with tracing off, then
# the traced pass of every workload. Results land in benchmark/out/
# (<workload>.json, <workload>.trace.json, and the result lines in
# end_to_end.jsonl and per_layer.jsonl).
#
#   run.sh [--smoke] [--seed N] [--seconds S]
#   run.sh --test        the crate's unit tests (bench.sh --test)
#
# --smoke divides every record count by 20 and times 0.5 s per workload:
# a self-check of the plumbing, not a measurement.
set -eu
bench_dir=$(cd "$(dirname "$0")" && pwd)
workloads="up_cpu_bound up_mem_bound smp_tpcc sampled_long campaign_cold explore_sweep"
seed=42
seconds=15
smoke=
while [ $# -gt 0 ]; do
    case $1 in
        --smoke) smoke=--smoke; seconds=0.5 ;;
        --seed) seed=$2; shift ;;
        --seconds) seconds=$2; shift ;;
        --test) exec "$bench_dir/bench.sh" --test ;;
        *) echo "usage: run.sh [--smoke] [--seed N] [--seconds S] | --test" >&2; exit 2 ;;
    esac
    shift
done
mkdir -p "$bench_dir/out"
: > "$bench_dir/out/end_to_end.jsonl"
: > "$bench_dir/out/per_layer.jsonl"
for trace in 0 1; do
    if [ $trace = 0 ]; then sink=end_to_end.jsonl; else sink=per_layer.jsonl; fi
    for w in $workloads; do
        echo "== $w (trace $trace)"
        "$bench_dir/bench.sh" --workload "$w" --seed "$seed" --seconds "$seconds" \
            --trace $trace $smoke | tee "$bench_dir/out/last.txt"
        export BENCH_BUILT=1
        printf '{"workload":"%s","result":%s}\n' "$w" "$(tail -n 1 "$bench_dir/out/last.txt")" \
            >> "$bench_dir/out/$sink"
    done
done
rm -f "$bench_dir/out/last.txt"
