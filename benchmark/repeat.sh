#!/bin/sh
# Two complete sets of end-to-end runs of the same commit, ten seeds per
# workload in each, judged the way the driver judges them: for every
# end-to-end metric and workload, the interquartile range of a set's ten
# values as a share of their median (the spread) must stay within the
# metric's bound in BENCHMARK.json, and the second set's median must not
# be worse than the first's by more than the bound. setup_s is held to
# the median rule only. Prints every spread; exits 1 if a rule is broken.
#
#   repeat.sh [--seeds N] [--seconds S] [--smoke]
set -eu
bench_dir=$(cd "$(dirname "$0")" && pwd)
workloads="up_cpu_bound up_mem_bound smp_tpcc sampled_long campaign_cold explore_sweep"
seeds=10
seconds=15
smoke=
while [ $# -gt 0 ]; do
    case $1 in
        --seeds) seeds=$2; shift ;;
        --seconds) seconds=$2; shift ;;
        --smoke) smoke=--smoke ;;
        *) echo "usage: repeat.sh [--seeds N] [--seconds S] [--smoke]" >&2; exit 2 ;;
    esac
    shift
done
out=$bench_dir/out/repeat
rm -rf "$out"
mkdir -p "$out"
for set in 1 2; do
    for w in $workloads; do
        seed=1
        while [ $seed -le "$seeds" ]; do
            "$bench_dir/bench.sh" --workload "$w" --seed $((set * 1000 + seed)) \
                --seconds "$seconds" --trace 0 $smoke | tail -n 1 >> "$out/set$set.$w.jsonl"
            export BENCH_BUILT=1
            # Every repetition's value, for a later look at the noise.
            cp "$bench_dir/out/$w.json" "$out/set$set.$w.$seed.json"
            seed=$((seed + 1))
        done
        echo "set $set: $w done" >&2
    done
done
exec python3 - "$bench_dir" "$out" $workloads <<'PY'
import json, statistics, sys
bench_dir, out, workloads = sys.argv[1], sys.argv[2], sys.argv[3:]
spec = json.load(open(bench_dir + "/../BENCHMARK.json"))
bad = 0
print(f"{'workload':<14} {'metric':<18} {'median 1':>14} {'median 2':>14} "
      f"{'spread 1':>9} {'spread 2':>9} {'shift':>8} {'bound':>6}")
for w in workloads:
    sets = [[json.loads(l) for l in open(f"{out}/set{s}.{w}.jsonl")] for s in (1, 2)]
    for runs in sets:
        for r in runs:
            if not r["correct"] or r["failed"]:
                print(f"{w}: a run was not correct: {r['failed']} of {r['attempted']} failed")
                bad += 1
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        meds, spreads = [], []
        for runs in sets:
            values = [r["metrics"][name]["value"] for r in runs]
            q = statistics.quantiles(values, n=4)
            meds.append(statistics.median(values))
            spreads.append((q[2] - q[0]) / meds[-1])
        worse = (meds[1] - meds[0]) / meds[0]
        if m["better"] == "higher":
            worse = -worse
        flags = ""
        if name != "setup_s" and max(spreads) > bound:
            flags += " SPREAD"
        if worse > bound:
            flags += " SHIFT"
        bad += bool(flags)
        print(f"{w:<14} {name:<18} {meds[0]:>14.6g} {meds[1]:>14.6g} "
              f"{spreads[0]:>9.2%} {spreads[1]:>9.2%} {worse:>+8.2%} {bound:>6.0%}{flags}")
sys.exit(1 if bad else 0)
PY
