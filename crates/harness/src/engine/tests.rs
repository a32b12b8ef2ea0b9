//! The engine's unit tests.

use super::*;
use crate::spec::ObservePlan;
use crate::supervise::SupervisePolicy;
use s64v_core::SystemConfig;
use s64v_workloads::SuiteKind;
use std::time::Duration;

/// Cycle budgets armed for one attempt each, by point fingerprint.
static ONE_SHOT_BUDGETS: Mutex<Vec<(Fingerprint, u64)>> = Mutex::new(Vec::new());

/// Runs the next attempt of the point `fp` under a `max_cycles` budget;
/// later attempts run under the campaign's policy alone.
fn arm_one_shot_budget(fp: Fingerprint, max_cycles: u64) {
    lock(&ONE_SHOT_BUDGETS).push((fp, max_cycles));
}

/// The budget armed for `fp`'s attempt, disarmed as it is taken.
pub(super) fn take_one_shot_budget(fp: Fingerprint) -> Option<u64> {
    let mut armed = lock(&ONE_SHOT_BUDGETS);
    let at = armed.iter().position(|&(armed_fp, _)| armed_fp == fp)?;
    Some(armed.swap_remove(at).1)
}

/// The default retry ladder with no backoff sleeps (unit-test speed).
fn fast_policy() -> SupervisePolicy {
    SupervisePolicy {
        backoff: Duration::ZERO,
        ..SupervisePolicy::default()
    }
}

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
fn panicking_point_is_contained_and_quarantined() {
    // records = 0 trips the model's "warmup must leave records to
    // time" assertion. A panic is a transient failure: the default
    // policy re-runs it (deterministically panicking again) until the
    // retry budget is spent, then quarantines the point.
    let spec = CampaignSpec {
        supervise: fast_policy(),
        ..CampaignSpec::new("unit", vec![program_point(0, 1), program_point(3_000, 1)])
    };
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
    assert_eq!(outcome.report.retries, 2, "default policy retries twice");
    let PointOutcome::Failed {
        attempts,
        quarantined,
        ..
    } = &outcome.outcomes[0]
    else {
        panic!("expected a failure, got {:?}", outcome.outcomes[0]);
    };
    assert_eq!(*attempts, 3, "first try plus two retries");
    assert!(*quarantined, "exhausted retries quarantine the point");
    assert_eq!(outcome.report.quarantined.len(), 1);
    assert!(outcome.report.quarantined[0].1.contains("warmup"));
}

#[test]
fn cycle_budget_cancels_and_quarantines_a_runaway_point() {
    let spec = CampaignSpec {
        supervise: SupervisePolicy {
            cycle_budget: Some(5_000),
            retries: 1,
            ..fast_policy()
        },
        ..CampaignSpec::new("unit", vec![program_point(60_000, 1)])
    };
    let outcome = run_campaign(&spec, None).expect("run");
    let PointOutcome::TimedOut { error, attempts } = &outcome.outcomes[0] else {
        panic!("expected a timeout, got {:?}", outcome.outcomes[0]);
    };
    assert!(error.contains("cycle budget"), "got: {error}");
    assert_eq!(*attempts, 2, "one retry, then quarantine");
    assert_eq!(outcome.report.timed_out, 2, "both attempts were cancelled");
    assert_eq!(outcome.report.retries, 1);
    assert_eq!(outcome.report.quarantined.len(), 1);
    assert_eq!(
        outcome.report.failed, 1,
        "a quarantined point counts failed"
    );
}

#[test]
fn wall_clock_deadline_cancels_a_hung_point() {
    // A deadline that has always already passed: the monitor cancels
    // the attempt at its first tick, long before a 200k-record
    // simulation can finish.
    let spec = CampaignSpec {
        supervise: SupervisePolicy {
            deadline: Some(Duration::from_nanos(1)),
            retries: 0,
            ..fast_policy()
        },
        ..CampaignSpec::new("unit", vec![program_point(200_000, 1)])
    };
    let outcome = run_campaign(&spec, None).expect("run");
    let PointOutcome::TimedOut { error, attempts } = &outcome.outcomes[0] else {
        panic!("expected a timeout, got {:?}", outcome.outcomes[0]);
    };
    assert!(error.contains("wall-clock watchdog"), "got: {error}");
    assert_eq!(*attempts, 1, "retries = 0 gives up after the first attempt");
    assert_eq!(outcome.report.timed_out, 1);
}

#[test]
fn a_mid_run_cancel_recovers_on_retry_over_the_same_inputs() {
    let dir = std::env::temp_dir().join(format!("s64v-engine-retry-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // A seed no other test uses: the armed budget is keyed by fingerprint.
    let point = program_point(3_000, 0x7e7_4a11);
    let clean = run_campaign(&CampaignSpec::new("unit", vec![point.clone()]), None).expect("run");

    // The first attempt takes its trace and warmed state from the
    // registry, then trips the budget a thousand cycles into its timed
    // window; the retry runs over the same inputs, unbudgeted.
    arm_one_shot_budget(point.fingerprint(), 1_000);
    let spec = CampaignSpec {
        supervise: fast_policy(),
        cache_dir: Some(dir.clone()),
        ..CampaignSpec::new("unit", vec![point])
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let retried = run_campaign(&spec, Some(tx)).expect("run");

    assert_eq!(retried.outcomes[0].metrics(), clean.outcomes[0].metrics());
    let r = &retried.report;
    assert_eq!((r.retries, r.timed_out), (1, 1));
    assert!(r.quarantined.is_empty(), "the retry recovered");
    let journal = Journal::load(&journal_path(&dir));
    assert_eq!(journal.retries.len(), 1);
    assert!(journal.retries[0].error.contains("cycle budget"));
    let retrying = rx
        .try_iter()
        .filter(|e| matches!(e, ProgressEvent::Retrying { .. }))
        .count();
    assert_eq!(retrying, 1);
    // Nothing was generated or warmed twice: only the requests grew.
    let (once, twice) = (&clean.report.registry, &r.registry);
    assert_eq!(once.traces_generated, twice.traces_generated);
    assert_eq!(once.warm_passes, twice.warm_passes);
    assert_eq!(once.records_warmed, twice.records_warmed);
    assert!(twice.traces_requested > once.traces_requested);
    std::fs::remove_dir_all(&dir).ok();
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
fn heartbeat_pulses_while_points_run() {
    let spec = CampaignSpec::new("unit", vec![program_point(60_000, 1)])
        .with_heartbeat(Some(Duration::from_millis(1)));
    let (tx, rx) = std::sync::mpsc::channel();
    let outcome = run_campaign(&spec, Some(tx)).expect("run");
    assert_eq!(outcome.report.completed, 1);

    let beats: Vec<ProgressEvent> = rx
        .try_iter()
        .filter(|e| matches!(e, ProgressEvent::Heartbeat { .. }))
        .collect();
    assert!(!beats.is_empty(), "a 1ms period must pulse at least once");
    for beat in &beats {
        let ProgressEvent::Heartbeat {
            done,
            total,
            in_flight,
            eta,
            ..
        } = beat
        else {
            unreachable!()
        };
        assert_eq!(*total, 1);
        assert!(*done <= 1 && *in_flight <= 1);
        if *done == 0 {
            assert!(eta.is_none(), "no finished point, no estimate");
        }
    }
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
        let PointOutcome::Failed {
            error,
            dump_path,
            attempts,
            quarantined,
        } = o
        else {
            panic!("a wedged point must fail, got {o:?}");
        };
        assert!(error.contains("pipeline"), "got: {error}");
        assert_eq!(*attempts, 1, "deterministic SimErrors fail fast, no retry");
        assert!(!quarantined, "a fail-fast point is not quarantined");
        let path = dump_path.as_ref().expect("dump written next to cache");
        let json = std::fs::read_to_string(path).expect("dump readable");
        assert!(json.contains("\"component\": \"pipeline\""), "got: {json}");
        assert!(json.contains("\"pipeline\""), "dump carries the snapshot");
    }

    std::fs::remove_dir_all(&dir).ok();
}
