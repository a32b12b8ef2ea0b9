#!/usr/bin/env sh
# The mutation stage: plants each fault of specs/mutants/ in a throwaway
# copy of the tree and requires the checked-mode auditor, or the tests
# the patch names, to catch it.
#
# Each specs/mutants/NAME.patch is a `git diff` after a header:
#
#   Expect: COMPONENT        (or `Expect: survived` for a control)
#   Tests: CARGO-TEST-ARGS   (optional)
#
#   What the mutant breaks, in prose.
#
# For every patch the copy under target/mutants/tree (the tracked and
# untracked-but-not-ignored files, plus Cargo.lock) gets the patch, then
# runs `fault_matrix::unfaulted_checked_run_is_violation_free` in release.
# The mutant is *killed* when that test fails and its SimError names the
# expected Component, and *survived* when it passes. If the mutant prints
# `mutant: ... at cycle N`, the SimError must also name cycle N.
#
# A patch with a `Tests:` header runs `cargo test --release -q
# CARGO-TEST-ARGS` instead (for a fault no invariant sees, such as one in
# the harness), and any failure of those tests kills it; it needs no
# `Expect:` line unless it is a control. Its tests must pass on the
# unmutated copy first.
#
# The stage fails unless every mutant has its expected outcome; a patch
# that does not apply, a mutant that does not compile, a failure naming
# another component (or none) and a run past the time limit each fail it
# and never count as a kill. The unmutated copy must pass first.
#
# Usage: scripts/mutate.sh [NAME...]  (from the repository root; no NAME
# runs every patch in specs/mutants/)
set -eu

LIMIT=300 # seconds per test run
root=$(pwd)
work="$root/target/mutants"
tree="$work/tree"
logs="$work/logs"

if [ $# -eq 0 ]; then
    for p in specs/mutants/*.patch; do
        set -- "$@" "$(basename "$p" .patch)"
    done
fi
for name in "$@"; do
    if [ ! -f "specs/mutants/$name.patch" ]; then
        echo "mutate: no mutant named $name (see specs/mutants/)" >&2
        exit 2
    fi
done

rm -rf "$tree" "$logs"
mkdir -p "$tree" "$logs"
# Fresh mtimes (-m): the copy's files must look newer than whatever the
# previous run built from its last mutant.
git ls-files -z --cached --others --exclude-standard \
    | tar -cf - --null --ignore-failed-read -T - 2> /dev/null \
    | tar -xmf - -C "$tree"
cp Cargo.lock "$tree/"
# Its own repository, so `git apply` patches the copy, not this tree.
git -C "$tree" init -q

export CARGO_TARGET_DIR="$work/target"
checked="-p s64v-core --test fault_matrix -- --exact unfaulted_checked_run_is_violation_free"
# `build ARGS` / `run ARGS`: the tests ARGS select. The build has no time
# limit; the run has $LIMIT seconds. ARGS split on spaces.
build() {
    (cd "$tree" && cargo test --release -q --no-run $1)
}
run() {
    (cd "$tree" && timeout "$LIMIT" cargo test --release -q $1)
}

echo "mutate: building the unmutated copy"
log="$logs/unmutated.log"
if ! build "$checked" > "$log" 2>&1 || ! run "$checked" >> "$log" 2>&1; then
    echo "mutate: the unmutated checked run fails (see $log)" >&2
    exit 1
fi

failed=0
killed=0
planted=0
for name in "$@"; do
    patch="$root/specs/mutants/$name.patch"
    log="$logs/$name.log"
    expect=$(sed -n 's/^Expect: *//p' "$patch" | head -n 1)
    tests=$(sed -n 's/^Tests: *//p' "$patch" | head -n 1)
    [ -z "$tests" ] || [ "$expect" = survived ] || expect="failing tests"
    [ "$expect" = survived ] || planted=$((planted + 1))
    start=$(date +%s)
    if [ -n "$tests" ] && ! { build "$tests" && run "$tests"; } > "$log" 2>&1; then
        echo "$name: ERROR: its tests fail on the unmutated copy (see $log)"
        failed=1
        continue
    fi
    if ! git -C "$tree" apply "$patch" 2> "$log"; then
        echo "$name: ERROR: patch does not apply (see $log)"
        failed=1
        continue
    fi
    if ! build "${tests:-$checked}" > "$log" 2>&1; then
        outcome="ERROR: does not compile"
    elif run "${tests:-$checked}" > "$log" 2>&1; then
        outcome=survived
    elif [ $? -eq 124 ]; then
        outcome="ERROR: ran past the ${LIMIT}s limit"
    elif [ -n "$tests" ]; then
        outcome="killed by failing tests"
    else
        component=$(sed -n 's/.*SimError { cycle: [0-9]*, core: [^,]*, component: \([A-Za-z]*\).*/\1/p' \
            "$log" | head -n 1)
        outcome="killed by ${component:-no SimError}"
        fired=$(sed -n 's/^mutant: .* at cycle \([0-9]*\)$/\1/p' "$log" | head -n 1)
        if [ -n "$fired" ] && ! grep -q "SimError { cycle: $fired," "$log"; then
            outcome="ERROR: struck on cycle $fired, but the SimError names another"
        fi
    fi
    git -C "$tree" apply -R "$patch"
    secs=$(($(date +%s) - start))
    case $outcome in
        "killed by $expect") killed=$((killed + 1)); verdict=ok ;;
        survived) if [ "$expect" = survived ]; then verdict=ok; else verdict=FAIL; fi ;;
        *) verdict=FAIL ;;
    esac
    [ "$verdict" = ok ] || failed=1
    echo "$name: $outcome (expected: $expect) ${secs}s $verdict"
done

echo "mutate: $killed of $planted planted mutants killed"
if [ "$failed" -ne 0 ]; then
    echo "mutate: FAILED (logs in $logs)" >&2
    exit 1
fi
