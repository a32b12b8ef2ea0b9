#!/usr/bin/env sh
# The full gate: formatting, lints, the workspace's tests (what bare
# `cargo test -q`, the tier-1 command, runs), the kernel microtrace and
# figures goldens, the planted-fault mutants and the release-mode
# equivalence suites, the smoke campaigns
# against their goldens, and the repo benchmark's smoke pass and one
# full-size run of each of its workloads.
# Usage: scripts/ci.sh  (from the repository root)
set -eu

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== file size (no .rs file under crates/ over 1 000 lines)"
long=$(find crates -name '*.rs' -exec wc -l {} + | awk '$2 != "total" && $1 > 1000')
if [ -n "$long" ]; then
    echo "file-size: split these files:" >&2
    echo "$long" >&2
    exit 1
fi

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== cargo test (what tier-1's bare 'cargo test -q' runs, plus the vendored stand-ins)"
cargo test --workspace -q

echo "== kernel microtraces (directed traces, pinned statistics, asleep = stepped = checked)"
cargo test --release -p s64v-cpu --test kernel_golden -q

echo "== figures golden (the whole evaluation at smoke size: stdout and 23 CSVs, byte for byte)"
cargo test --release -p s64v-harness --test figures_golden -q
# The usage text is generated from the flag table; it must print and exit 0.
cargo run --release -p s64v-harness --bin campaign -- --help > /dev/null

echo "== phase ledger builds (the off-by-default instrumentation must not rot)"
cargo build --release -p s64v-cpu --features phase-profile --example kernel_profile

echo "== mutation stage (every planted fault caught by its component, a lost event the cycle it is lost; the control survives)"
sh scripts/mutate.sh

echo "== shared-input equivalence (stream = pinned bytes; cursor = fresh warm pass; sharing never changes a result or, across thread counts, a count)"
# Prefix, chunking invariance and the digests pinned from the
# materialising generator; the flat branch table = the nested one it
# replaced, op for op; then chunked advance = whole slice and one memory
# pass beside several tables = a pass per configuration; then the
# engine: equal outcomes, and equal records generated / warmed /
# trained / kept, at 1, 2 and 5 threads — on six configurations, a
# predictor study and every knob off its default; then the cache's group
# commit and the failure records `campaign perf` reads beside its
# artifacts.
cargo test --release -p s64v-workloads --test generator_contract -q
cargo test --release -p s64v-cpu --test bht_reference -q
cargo test --release -p s64v-core --test warm_cursor -q
cargo test --release -p s64v-harness --lib -q -- registry:: cache:: perf::
cargo test --release -p s64v-harness --test shared_inputs -q
cargo test --release -p s64v-harness --test shared_warm -q
# The benchmark's explore_sweep query at full size: one warming pass per
# round, on one worker and on two (150 000 of 8 800 000 requested records).
cargo test --release -p s64v-harness --lib -q -- --ignored sweep_warms_once_per_round

echo "== per-core sleeping equivalence (asleep = stepped = checked, 1 to 16 CPUs; caps land on their cycles)"
cargo test --release -p s64v-core --test skip_equivalence -q
cargo test --release -p s64v-core --lib -q -- a_cancel_is_seen

echo "== checked-mode smoke campaign (zero invariant violations expected)"
CHECKED_SCRATCH=target/ci-checked
rm -rf "$CHECKED_SCRATCH"
S64V_RECORDS=8000 S64V_WARMUP=40000 \
S64V_SMP_CPUS=2 S64V_SMP_RECORDS=4000 S64V_SMP_WARMUP=20000 \
S64V_SEED=42 S64V_RESULTS_DIR="$CHECKED_SCRATCH/results" \
cargo run --release -p s64v-harness --bin campaign -- \
    --figures table1,fig08_issue_width,ablation_bus,workloads_report \
    --checked --cache-dir "$CHECKED_SCRATCH/cache" --quiet > /dev/null
rm -rf "$CHECKED_SCRATCH"

echo "== observability smoke campaign (trace + metrics artifacts must validate)"
OBS_SCRATCH=target/ci-observe
rm -rf "$OBS_SCRATCH"
S64V_RECORDS=8000 S64V_WARMUP=40000 \
S64V_SMP_CPUS=2 S64V_SMP_RECORDS=4000 S64V_SMP_WARMUP=20000 \
S64V_SEED=42 S64V_RESULTS_DIR="$OBS_SCRATCH/results" \
cargo run --release -p s64v-harness --bin campaign -- \
    --figures fig08_issue_width,ablation_bus \
    --trace "" --metrics --cache-dir "$OBS_SCRATCH/cache" --quiet > /dev/null
# ablation_bus's board + backplane points must have drawn board-bus
# transfers into their Perfetto traces.
grep -l '"board 0 bus"' "$OBS_SCRATCH"/cache/*.trace.json > /dev/null
# Every point must have written all four artifacts (the top-down
# .cpi.json stacks ride along on every simulating campaign); validate
# them all in one invocation (an unmatched glob reaches the validator as
# a nonexistent path and fails the check, so absence is caught too).
set --
for artifact in "$OBS_SCRATCH"/cache/*.trace.json \
                "$OBS_SCRATCH"/cache/*.pipeline.txt \
                "$OBS_SCRATCH"/cache/*.metrics.jsonl \
                "$OBS_SCRATCH"/cache/*.cpi.json; do
    set -- "$@" --check-artifact "$artifact"
done
cargo run --release -p s64v-harness --bin campaign -- "$@" > /dev/null 2>&1
# A self-diff over the cache directory must load and attribute — the
# loader, the label aggregation and the folded export all get exercised.
cargo run --release -p s64v-harness --bin campaign -- \
    perf "$OBS_SCRATCH/cache" "$OBS_SCRATCH/cache" \
    --folded "$OBS_SCRATCH/folded.txt" > /dev/null
test -s "$OBS_SCRATCH/folded.txt"
rm -rf "$OBS_SCRATCH"

echo "== exploration smoke query (answer must match the committed golden)"
EXPLORE_SCRATCH=target/ci-explore
rm -rf "$EXPLORE_SCRATCH"
mkdir -p "$EXPLORE_SCRATCH"
# Cold cache first, then a warm re-ask: both answers must be
# byte-identical to specs/ci_smoke.golden.json — the search is a
# deterministic function of the spec, and the point cache may not change
# a single byte of the answer. The re-ask runs the search again and must
# be answered from point-cache hits alone: its summary says 0 simulated.
cargo run --release -p s64v-harness --bin campaign -- \
    explore --spec specs/ci_smoke.explore.json --answer-only \
    --cache-dir "$EXPLORE_SCRATCH/cache" --quiet \
    --out "$EXPLORE_SCRATCH/report.explore.json" \
    > "$EXPLORE_SCRATCH/cold.json" 2> /dev/null
diff specs/ci_smoke.golden.json "$EXPLORE_SCRATCH/cold.json"
cargo run --release -p s64v-harness --bin campaign -- \
    explore --spec specs/ci_smoke.explore.json --answer-only \
    --cache-dir "$EXPLORE_SCRATCH/cache" --quiet \
    > "$EXPLORE_SCRATCH/warm.json" 2> "$EXPLORE_SCRATCH/warm.err"
diff specs/ci_smoke.golden.json "$EXPLORE_SCRATCH/warm.json"
grep -q ' cached, 0 simulated, ' "$EXPLORE_SCRATCH/warm.err"
# The `--out` report is a first-class artifact: the validator must accept it.
cargo run --release -p s64v-harness --bin campaign -- \
    --check-artifact "$EXPLORE_SCRATCH/report.explore.json" > /dev/null 2>&1
rm -rf "$EXPLORE_SCRATCH"

echo "== sampled-simulation accuracy smoke (gate + golden + negative control)"
# A reduced-size `campaign validate` A/B at the committed smoke geometry
# (small timed region, production-depth functional warm, three windows
# tiling it). Three things must hold: the gate passes and its JSON
# report is byte-identical to specs/ci_sampling.golden.json (the
# assessment is a deterministic function of sizes, seed and geometry);
# every per-workload aggregate .sampled.cpi.json validates as a
# first-class artifact; and the --under-warm negative control FAILS —
# proving the gate still detects insufficient warming, not just that
# the happy path stays green. The second run shares the cache, so the
# full-detail references cache-hit and only the cold windows resimulate.
SAMPLING_SCRATCH=target/ci-sampling
rm -rf "$SAMPLING_SCRATCH"
mkdir -p "$SAMPLING_SCRATCH"
S64V_RECORDS=45000 S64V_WARMUP=2000000 S64V_SEED=42 \
S64V_RESULTS_DIR="$SAMPLING_SCRATCH/results" \
cargo run --release -p s64v-harness --bin campaign -- \
    validate --windows 3 --window 15000 \
    --out "$SAMPLING_SCRATCH/report.json" \
    --cache-dir "$SAMPLING_SCRATCH/cache" --quiet > /dev/null
diff specs/ci_sampling.golden.json "$SAMPLING_SCRATCH/report.json"
set --
for artifact in "$SAMPLING_SCRATCH"/cache/*.sampled.cpi.json; do
    set -- "$@" --check-artifact "$artifact"
done
cargo run --release -p s64v-harness --bin campaign -- "$@" > /dev/null 2>&1
if S64V_RECORDS=45000 S64V_WARMUP=2000000 S64V_SEED=42 \
   S64V_RESULTS_DIR="$SAMPLING_SCRATCH/results" \
   cargo run --release -p s64v-harness --bin campaign -- \
       validate --windows 3 --window 15000 --under-warm \
       --cache-dir "$SAMPLING_SCRATCH/cache" --quiet > /dev/null 2>&1; then
    echo "sampling-smoke: under-warmed windows passed the gate" >&2
    exit 1
fi
rm -rf "$SAMPLING_SCRATCH"

echo "== benchmark smoke (all six workloads, end to end and traced, must check out)"
# Invokes the repo benchmark (BENCHMARK.json) at 1/20 size, where
# benchmark/expected/ has no values: each workload's statistics are
# checked only across its own paths (repetition against repetition and,
# in the traced pass, against the benchmark's own hand-driven execution
# of the same points). A result line that is not
# `"correct":true` with `"failed":0` fails the gate. (run.sh pipes
# through tee, so the result lines — not its exit status — are checked.)
sh benchmark/run.sh --smoke > /dev/null
for sink in end_to_end per_layer; do
    good=$(grep -c '"result":{"correct":true,"attempted":[0-9]*,"failed":0,' \
        "benchmark/out/$sink.jsonl" || true)
    if [ "$good" != 6 ]; then
        echo "benchmark-smoke: $good of 6 workloads correct in $sink.jsonl" >&2
        cat "benchmark/out/$sink.jsonl" >&2
        exit 1
    fi
done

echo "== benchmark at full size (every workload's exact statistics against benchmark/expected/)"
# benchmark/expected/ holds the statistics of full-size, seed-42 runs
# only; one short run of each workload at that size compares every
# exact statistic against them. The smoke pass built both binaries, so
# these runs skip the builds.
for w in up_cpu_bound up_mem_bound smp_tpcc sampled_long campaign_cold explore_sweep; do
    line=$(BENCH_BUILT=1 sh benchmark/bench.sh --workload "$w" --seconds 1 | tail -n 1)
    case $line in
        '{"correct":true,"attempted":'*',"failed":0,'*) ;;
        *)
            echo "benchmark-full: $w did not check out: $line" >&2
            exit 1
            ;;
    esac
done

echo "ci: all green"
