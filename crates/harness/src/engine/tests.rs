//! The engine's unit tests.

use super::*;
use crate::spec::ObservePlan;
use crate::supervise::SupervisePolicy;
use s64v_core::SystemConfig;
use s64v_workloads::SuiteKind;
use std::time::Duration;

/// Tracing and interval metrics for every point.
fn trace_everything() -> ObservePlan {
    ObservePlan {
        trace_matches: vec![String::new()],
        metrics: true,
    }
}

fn program_point(records: usize, seed: u64) -> SimPoint {
    SimPoint {
        config: SystemConfig::sparc64_v(),
        work: WorkUnit::Program {
            suite: SuiteKind::SpecInt95,
            index: 0,
        },
        records,
        warmup: 2_000,
        seed,
    }
}

#[test]
fn campaign_runs_points_in_order() {
    let spec = CampaignSpec::new(
        "unit",
        vec![program_point(3_000, 1), program_point(3_000, 2)],
    );
    let outcome = run_campaign(&spec, None).expect("run");
    assert_eq!(outcome.outcomes.len(), 2);
    assert!(outcome.failures().is_empty());
    let a = outcome.outcomes[0].metrics().expect("point 0");
    let b = outcome.outcomes[1].metrics().expect("point 1");
    assert_eq!(a.committed, 3_000);
    assert_ne!(a.cycles, b.cycles, "different seeds, different traces");
    assert_eq!(outcome.report.completed, 2);
    assert_eq!(outcome.report.simulated_records, 2 * 5_000);
}

#[test]
fn engine_matches_direct_execution() {
    let p = program_point(4_000, 9);
    let direct = try_execute_point(&p, RunOptions::default()).expect("clean point");
    let outcome = run_campaign(&CampaignSpec::new("unit", vec![p]), None).expect("run");
    assert_eq!(outcome.outcomes[0].metrics(), Some(&direct));
}

#[test]
fn panicking_point_is_contained_and_failed() {
    // records = 0 trips the model's "warmup must leave records to
    // time" assertion: the panic is caught and fails the point.
    let spec = CampaignSpec::new("unit", vec![program_point(0, 1), program_point(3_000, 1)]);
    let outcome = run_campaign(&spec, None).expect("run");
    assert!(outcome.outcomes[0].metrics().is_none());
    assert!(outcome.outcomes[1].metrics().is_some());
    let failures = outcome.failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].0, 0);
    assert!(failures[0].1.contains("warmup"), "got: {}", failures[0].1);
    assert!(
        failures[0].2.is_none(),
        "a contract panic has no structured state to dump"
    );
    assert_eq!(outcome.report.failed, 1);
    assert_eq!(outcome.report.completed, 1);
    assert!(
        matches!(&outcome.outcomes[0], PointOutcome::Failed { .. }),
        "got {:?}",
        outcome.outcomes[0]
    );
}

#[test]
fn cycle_budget_cancels_a_runaway_point() {
    let spec = CampaignSpec {
        supervise: SupervisePolicy {
            cycle_budget: Some(5_000),
            ..SupervisePolicy::default()
        },
        ..CampaignSpec::new("unit", vec![program_point(60_000, 1)])
    };
    let outcome = run_campaign(&spec, None).expect("run");
    let PointOutcome::TimedOut { error, .. } = &outcome.outcomes[0] else {
        panic!("expected a timeout, got {:?}", outcome.outcomes[0]);
    };
    assert!(error.contains("cycle budget"), "got: {error}");
    assert_eq!(outcome.report.timed_out, 1);
    assert_eq!(outcome.report.failed, 1, "a timed-out point counts failed");
}

#[test]
fn a_failed_point_is_attempted_once() {
    // One point panics building its machine (a window of no entries)
    // after it took its inputs from the registry, one is cut off by the
    // budget mid-run, one finishes inside it.
    let mut panicking = program_point(3_000, 1);
    panicking.config.core.window_size = 0;
    let short = program_point(3_000, 3);
    let clean = try_execute_point(&short, RunOptions::default()).expect("clean point");
    let spec = CampaignSpec {
        supervise: SupervisePolicy {
            cycle_budget: Some(clean.cycles + 1),
            ..SupervisePolicy::default()
        },
        ..CampaignSpec::new("unit", vec![panicking, program_point(60_000, 2), short])
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let outcome = run_campaign(&spec, Some(tx)).expect("run");
    let r = &outcome.report;
    assert_eq!((r.completed, r.failed, r.timed_out), (1, 2, 1));
    assert_eq!(r.retries, 0);
    // Every point asks for its inputs once per attempt.
    assert_eq!(r.registry.traces_requested, 3);
    assert_eq!(r.registry.machines_requested, 3);
    let events: Vec<ProgressEvent> = rx.try_iter().collect();
    let started = events
        .iter()
        .filter(|e| matches!(e, ProgressEvent::Started { .. }))
        .count();
    let failed = events
        .iter()
        .filter(|e| matches!(e, ProgressEvent::Failed { .. }))
        .count();
    assert_eq!((started, failed), (3, 2));
    let failures = outcome.failures();
    assert!(failures[0].1.contains("window needs at least one entry"));
    assert!(failures[1].1.contains("cycle budget"));
}

#[test]
fn wall_clock_deadline_cancels_a_hung_point() {
    // A deadline that has always already passed: the monitor cancels
    // the attempt at its first tick, long before a 200k-record
    // simulation can finish.
    let spec = CampaignSpec {
        supervise: SupervisePolicy {
            deadline: Some(Duration::from_nanos(1)),
            ..SupervisePolicy::default()
        },
        ..CampaignSpec::new("unit", vec![program_point(200_000, 1)])
    };
    let outcome = run_campaign(&spec, None).expect("run");
    let PointOutcome::TimedOut { error, .. } = &outcome.outcomes[0] else {
        panic!("expected a timeout, got {:?}", outcome.outcomes[0]);
    };
    assert!(error.contains("wall-clock watchdog"), "got: {error}");
    assert_eq!(outcome.report.timed_out, 1);
}

#[test]
fn checked_campaign_matches_an_unchecked_one() {
    let points = vec![program_point(3_000, 1)];
    let plain = run_campaign(&CampaignSpec::new("unit", points.clone()), None).expect("run");
    let checked = CampaignSpec {
        checked: true,
        ..CampaignSpec::new("unit", points)
    };
    let checked = run_campaign(&checked, None).expect("run");
    assert!(
        checked.failures().is_empty(),
        "no invariant fires unfaulted"
    );
    assert_eq!(
        plain.outcomes[0].metrics(),
        checked.outcomes[0].metrics(),
        "the auditor must not perturb results"
    );
}

#[test]
fn observed_campaign_writes_artifacts_and_identical_cache_entries() {
    let pid = std::process::id();
    let dir_plain = std::env::temp_dir().join(format!("s64v-obs-plain-{pid}"));
    let dir_obs = std::env::temp_dir().join(format!("s64v-obs-traced-{pid}"));
    std::fs::remove_dir_all(&dir_plain).ok();
    std::fs::remove_dir_all(&dir_obs).ok();

    let points = vec![program_point(3_000, 1)];
    let fp = points[0].fingerprint();
    let plain = CampaignSpec {
        cache_dir: Some(dir_plain.clone()),
        ..CampaignSpec::new("unit", points)
    };
    run_campaign(&plain, None).expect("plain run");
    let observed = CampaignSpec {
        cache_dir: Some(dir_obs.clone()),
        observe: trace_everything(),
        ..plain
    };
    run_campaign(&observed, None).expect("observed run");

    // Observation never perturbs the simulation, so the cache entry an
    // observed run stores is byte-identical to a plain run's.
    let cache = ResultCache::open(&dir_obs).expect("open");
    let plain_entry =
        std::fs::read(ResultCache::open(&dir_plain).expect("open").path_of(fp)).expect("entry");
    let obs_entry = std::fs::read(cache.path_of(fp)).expect("entry");
    assert_eq!(
        plain_entry, obs_entry,
        "observation must not change results"
    );

    // The Perfetto trace parses and actually narrates the run.
    let trace = std::fs::read_to_string(cache.artifact_path(fp, "trace.json")).expect("trace");
    let doc = s64v_observe::json::Value::parse(&trace).expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(s64v_observe::json::Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace has events");

    // The pipeline diagram rendered something.
    let pipeline =
        std::fs::read_to_string(cache.artifact_path(fp, "pipeline.txt")).expect("pipeline");
    assert!(!pipeline.trim().is_empty());

    // Every metrics line is a standalone JSON document.
    let metrics =
        std::fs::read_to_string(cache.artifact_path(fp, "metrics.jsonl")).expect("metrics");
    assert!(!metrics.trim().is_empty());
    for line in metrics.lines() {
        s64v_observe::json::Value::parse(line).expect("valid JSONL line");
    }

    std::fs::remove_dir_all(&dir_plain).ok();
    std::fs::remove_dir_all(&dir_obs).ok();
}

#[test]
fn trace_artifact_is_stable_across_thread_counts() {
    let pid = std::process::id();
    let dir_a = std::env::temp_dir().join(format!("s64v-obs-t1-{pid}"));
    let dir_b = std::env::temp_dir().join(format!("s64v-obs-t4-{pid}"));
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();

    let points: Vec<SimPoint> = (1..=3).map(|seed| program_point(3_000, seed)).collect();
    for (dir, threads) in [(&dir_a, 1), (&dir_b, 4)] {
        let spec = CampaignSpec {
            cache_dir: Some(dir.clone()),
            observe: trace_everything(),
            ..CampaignSpec::new("unit", points.clone()).with_threads(threads)
        };
        run_campaign(&spec, None).expect("run");
    }
    let a = ResultCache::open(&dir_a).expect("open");
    let b = ResultCache::open(&dir_b).expect("open");
    for p in &points {
        let fp = p.fingerprint();
        for ext in ["trace.json", "pipeline.txt", "metrics.jsonl"] {
            let one = std::fs::read(a.artifact_path(fp, ext)).expect(ext);
            let four = std::fs::read(b.artifact_path(fp, ext)).expect(ext);
            assert_eq!(one, four, "{ext} must not depend on the thread count");
        }
    }

    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn schedule_keeps_reuse_groups_whole_and_splits_one_only_when_nothing_else_is_left() {
    // Four programs × four full-warming windows, listed window-major
    // and descending, so neither groups nor starts arrive in order.
    let window = |index: usize, start: usize| SimPoint {
        config: SystemConfig::sparc64_v(),
        work: WorkUnit::SampledWindow {
            suite: SuiteKind::SpecInt95,
            index,
            start,
            len: 100,
        },
        records: 10_000,
        warmup: 10_000,
        seed: 1,
    };
    let points: Vec<SimPoint> = [4_000, 3_000, 2_000, 1_000]
        .iter()
        .flat_map(|&start| (0..4).map(move |index| window(index, start)))
        .collect();
    let at = |i: usize| match points[i].work {
        WorkUnit::SampledWindow { index, start, .. } => (index, start),
        _ => unreachable!(),
    };
    let s = Schedule::new(&points, 2);
    let take = |worker: usize, n: usize| -> Vec<(usize, usize)> {
        (0..n)
            .map(|_| at(s.pop(worker).expect("work left")))
            .collect()
    };
    let chain = |index: usize, from: usize| (from..=4).map(move |k| (index, k * 1_000)).collect();

    // Worker 0 was dealt programs 0 and 1, each ascending by start.
    let mut own: Vec<(usize, usize)> = chain(0, 1);
    own.extend::<Vec<_>>(chain(1, 1));
    assert_eq!(take(0, 8), own);
    // Out of work, it steals worker 1's trailing program whole ...
    assert_eq!(take(0, 4), chain(3, 1));
    // ... and leaves the one program worker 1 has left alone: a chain of
    // windows is one pass, and a thief ahead of its victim on it would
    // only make the pass hold everything in between.
    assert_eq!(s.pop(0), None);
    assert_eq!(take(1, 4), chain(2, 1));
    assert_eq!(s.pop(1), None);

    // A sweep round — one trace, one window, many configurations — is
    // what gets split when nothing else is left: the back half.
    let s = Schedule::new(&vec![program_point(3_000, 1); 10], 2);
    let pops = |worker: usize, n: usize| -> Vec<usize> {
        (0..n).map(|_| s.pop(worker).expect("work left")).collect()
    };
    assert_eq!(pops(0, 5), [0, 1, 2, 3, 4]);
    assert_eq!(pops(0, 2), [8, 9]);
    assert_eq!(pops(1, 3), [5, 6, 7]);
    assert_eq!((s.pop(0), s.pop(1)), (None, None));
}

#[test]
fn schedule_splits_a_single_oversized_group_across_workers_at_deal_time() {
    // An exploration round: one trace, many configurations.
    let points = vec![program_point(3_000, 1); 10];
    let s = Schedule::new(&points, 2);
    let own = |worker: usize| s.queue(worker).iter().copied().collect::<Vec<usize>>();
    assert_eq!(own(0), (0..5).collect::<Vec<_>>());
    assert_eq!(own(1), (5..10).collect::<Vec<_>>());
}

#[test]
fn report_profiles_simulation_wall_time() {
    let spec = CampaignSpec::new(
        "unit",
        vec![program_point(3_000, 1), program_point(6_000, 2)],
    );
    let outcome = run_campaign(&spec, None).expect("run");
    let r = &outcome.report;
    assert!(r.sim_wall > Duration::ZERO, "simulation took time");
    assert_eq!(r.slowest.len(), 2, "both simulated points are profiled");
    assert!(
        r.slowest[0].1 >= r.slowest[1].1,
        "slowest points come first"
    );
}

#[test]
fn invariant_violation_fails_the_point_and_writes_a_dump() {
    let dir = std::env::temp_dir().join(format!("s64v-engine-dump-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // A core that can never commit wedges: the deadlock watchdog fails
    // the run with a pipeline SimError, deterministically.
    let wedged = |seed| {
        let mut point = program_point(3_000, seed);
        point.config.core.commit_width = 0;
        point
    };
    let spec = CampaignSpec {
        cache_dir: Some(dir.clone()),
        ..CampaignSpec::new("unit", vec![wedged(1), wedged(2)])
    };
    let outcome = run_campaign(&spec, None).expect("run");

    // Every point wedges, every point fails — and the campaign still
    // visits all of them.
    assert_eq!(outcome.report.failed, 2);
    for o in &outcome.outcomes {
        let PointOutcome::Failed { error, record } = o else {
            panic!("a wedged point must fail, got {o:?}");
        };
        assert!(error.contains("pipeline"), "got: {error}");
        let path = record.as_ref().expect("record written next to cache");
        let json = std::fs::read_to_string(path).expect("dump readable");
        assert!(json.contains("\"component\": \"pipeline\""), "got: {json}");
        assert!(json.contains("\"pipeline\""), "dump carries the snapshot");
    }

    std::fs::remove_dir_all(&dir).ok();
}
