#!/bin/sh
# The benchmark's command (BENCHMARK.json): builds the root workspace's
# `campaign` binary with the root release profile and this crate, both
# offline, then runs one workload. Arguments go to the benchmark binary:
#   --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--rebaseline]
# `bench.sh --test` instead runs the crate's unit tests, one of which
# drives the campaign binary.
set -eu
bench_dir=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$bench_dir")
cd "$root"
# One target directory for both builds: the simulator crates compile once.
target=${CARGO_TARGET_DIR:-$bench_dir/target}
case $target in /*) ;; *) target=$root/$target ;; esac
export CARGO_TARGET_DIR="$target"
# run.sh and repeat.sh build once and then set BENCH_BUILT.
if [ -z "${BENCH_BUILT:-}" ]; then
    cargo build --release --offline --quiet -p s64v-harness --bin campaign
    cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml"
fi
if [ "${1:-}" = --test ]; then
    BENCH_CAMPAIGN_BIN="$target/release/campaign" exec cargo test --release --offline \
        --manifest-path "$bench_dir/Cargo.toml"
fi
# Not exec: the benchmark reads its children's peak memory, and a process
# that replaced this shell would inherit cargo's children as its own.
"$target/release/s64v-benchmark" \
    --campaign-bin "$target/release/campaign" --bench-dir "$bench_dir" "$@"
