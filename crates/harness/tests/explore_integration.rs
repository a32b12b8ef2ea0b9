//! End-to-end tests of the exploration engine's contract: answers are
//! deterministic functions of the spec (byte-identical across repeated
//! runs, cache states and thread counts), a repeated query is answered
//! from point-cache hits alone, and the search simulates strictly fewer full-length
//! points than the grid holds.

use s64v_explore::ExploreSpec;
use s64v_harness::explore::{run_explore, ExploreOpts};
use s64v_harness::supervise::SupervisePolicy;
use std::path::PathBuf;

/// A 3x3 grid at tiny trace lengths: big enough for halving to have two
/// rounds, small enough to finish in seconds.
fn spec(name: &str) -> ExploreSpec {
    ExploreSpec::parse(&format!(
        r#"{{
            "name": "{name}",
            "workload": {{"suite": "SPECint95", "index": 2}},
            "seed": 11,
            "screen": {{"records": 1000, "warmup": 2000}},
            "full":   {{"records": 3000, "warmup": 6000}},
            "knobs": [
                {{"name": "rse_entries", "values": [4, 8, 12]}},
                {{"name": "window_size", "values": [32, 48, 64]}}
            ],
            "objective": {{"maximize": "ipc"}},
            "constraints": [
                {{"metric": "area_mm2", "max": 320.0}}
            ],
            "eta": 3,
            "min_survivors": 2
        }}"#
    ))
    .expect("spec parses")
}

fn opts(threads: usize, cache_dir: Option<PathBuf>) -> ExploreOpts {
    ExploreOpts {
        threads: Some(threads),
        cache_dir,
        heartbeat: None,
        supervise: SupervisePolicy::default(),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("s64v-xit-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn same_spec_twice_gives_a_byte_identical_answer_from_the_cache() {
    let dir = temp_dir("repeat");
    let spec = spec("xit-repeat");

    let first = run_explore(&spec, &opts(2, Some(dir.clone())), None, |_| {}).expect("run");
    assert!(first.execution.simulated > 0, "first run simulates");
    assert_eq!(first.execution.cache_hits, 0, "cold cache");

    // Identical question, warm cache: the search runs again and every
    // evaluation is a point-cache hit.
    let second = run_explore(&spec, &opts(2, Some(dir.clone())), None, |_| {}).expect("run");
    assert_eq!(
        second.execution.cache_hits, second.result.counters.evaluations,
        "warm point cache serves every evaluation"
    );
    assert_eq!(second.execution.simulated, 0, "nothing re-simulates");
    assert_eq!(
        second.answer_value().to_string(),
        first.answer_value().to_string(),
        "answers must be byte-identical"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn thread_count_never_changes_the_frontier() {
    let spec = spec("xit-threads");
    let one = run_explore(&spec, &opts(1, None), None, |_| {}).expect("run");
    let many = run_explore(&spec, &opts(4, None), None, |_| {}).expect("run");
    assert_eq!(
        one.answer_value().to_string(),
        many.answer_value().to_string(),
        "worker scheduling must never leak into the answer"
    );
    assert_eq!(one.execution.threads, 1);
    assert_eq!(many.execution.threads, 4);
}

#[test]
fn halving_simulates_fewer_full_length_points_than_the_grid() {
    let spec = spec("xit-halving");
    let report = run_explore(&spec, &opts(2, None), None, |_| {}).expect("run");
    let c = &report.result.counters;
    assert_eq!(c.grid_size, 9);
    assert!(
        c.full_length < c.grid_size,
        "successive halving must promote a strict subset to full length \
         ({} of {} ran full-length)",
        c.full_length,
        c.grid_size
    );
    assert!(c.rounds >= 2, "screening and promotion are separate rounds");
    let winner = report.result.winner.expect("a feasible winner exists");
    assert_eq!(winner.records, 3000, "the winner was measured full-length");
    assert!(
        report.result.frontier.iter().any(|p| p.id == winner.id),
        "the winner sits on its own frontier"
    );
}
