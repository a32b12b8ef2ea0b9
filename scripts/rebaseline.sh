#!/usr/bin/env sh
# Re-baselines every snapshot the tree pins: the goldens under specs/ and
# the evaluation under results/. It is the only way any of them is
# written. scripts/ci.sh runs it and fails if `git status --porcelain --
# results specs` then prints anything, so what is committed there is what
# this tree writes. After an intentional change to a simulated number,
# run it and explain the diff.
# Usage: sh scripts/rebaseline.sh  (from the repository root)
set -eu

# Default sizes, whatever the caller's environment holds.
unset S64V_RECORDS S64V_WARMUP S64V_SMP_CPUS S64V_SMP_RECORDS \
    S64V_SMP_WARMUP S64V_SEED S64V_RESULTS_DIR
# The snapshot goldens are the ignored tests named regenerate, and only
# the test targets that hold one are built (building every release test
# binary of the workspace costs minutes). A test file with a regenerate
# test that is not listed here stops the script before anything is
# written, so a new golden cannot be skipped silently.
goldens="crates/cpu/tests/kernel_golden.rs crates/harness/tests/figures_golden.rs \
crates/harness/tests/observe_golden.rs tests/golden.rs"
for file in $(grep -l 'fn regenerate' crates/*/tests/*.rs tests/*.rs); do
    case " $goldens " in
        *" $file "*) ;;
        *)
            echo "rebaseline: $file has a regenerate test this script does not run" >&2
            exit 1
            ;;
    esac
done

campaign=target/release/campaign
scratch=target/rebaseline
rm -rf "$scratch"
mkdir -p "$scratch"
cargo build --release -q -p s64v-harness --bin campaign

echo "== snapshot goldens (every ignored test named regenerate)"
regenerate() {
    cargo test --release -q "$@" -- --ignored regenerate \
        >> "$scratch/regenerate.log" || { cat "$scratch/regenerate.log" >&2; exit 1; }
}
regenerate -p s64v-cpu --test kernel_golden
regenerate -p s64v-harness --test figures_golden --test observe_golden
regenerate -p sparc64v --test golden

echo "== specs/ci_smoke.golden.json and specs/ci_sampling.golden.json (ci.sh's sizes)"
"$campaign" explore --spec specs/ci_smoke.explore.json --answer-only \
    --no-cache --quiet > specs/ci_smoke.golden.json
S64V_RECORDS=45000 S64V_WARMUP=2000000 S64V_SEED=42 \
S64V_RESULTS_DIR="$scratch/results" \
"$campaign" validate --windows 3 --window 15000 \
    --out specs/ci_sampling.golden.json --no-cache --quiet > /dev/null

echo "== results/ (the evaluation at default sizes)"
# A file the tree no longer writes disappears with the rest.
rm -f results/*.csv results/all_experiments.txt
status=0
"$campaign" --figures all --no-cache --quiet \
    > results/all_experiments.txt 2> "$scratch/stderr" || status=$?
grep -e '^failed point: ' -e '^figure .* did not render: ' \
    -e '^campaign FAILED: ' "$scratch/stderr" > results/failures.txt || true
# Exit 1 means some point or figure failed; it must then say which.
if [ "$status" != 0 ] && { [ "$status" != 1 ] || [ ! -s results/failures.txt ]; }; then
    cat "$scratch/stderr" >&2
    echo "rebaseline: the evaluation exited $status" >&2
    exit 1
fi

echo "== results/rs_window_sweep.answer.json"
"$campaign" explore --spec specs/rs_window_sweep.explore.json --answer-only \
    --no-cache --quiet > results/rs_window_sweep.answer.json
rm -rf "$scratch"
