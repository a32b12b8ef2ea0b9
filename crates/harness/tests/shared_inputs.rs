//! End-to-end tests of the per-campaign shared-input registry and the
//! reuse-affine schedule: sharing and scheduling change how much gets
//! generated and replayed, never a result; the counters are exact; and
//! nothing outlives the campaign, including across mid-run cancellations
//! and panics.

use s64v_core::{memory_warm_key, program_seed, Fingerprint, SystemConfig};
use s64v_harness::engine::PointOutcome;
use s64v_harness::registry::{Registry, ReuseKey};
use s64v_harness::validate::{full_point, sampled_points, SampleOpts};
use s64v_harness::{
    run_campaign, try_execute_point, CampaignOutcome, CampaignSpec, HarnessOpts, SimPoint, WorkUnit,
};
use s64v_trace::VecTrace;
use s64v_workloads::SuiteKind;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Weak};

const PROGRAMS: [(SuiteKind, usize); 3] = [
    (SuiteKind::SpecInt95, 0),
    (SuiteKind::SpecFp95, 0),
    (SuiteKind::Tpcc, 0),
];

fn sizes() -> HarnessOpts {
    HarnessOpts {
        records: 3_000,
        warmup: 2_000,
        smp_records: 800,
        smp_warmup: 1_200,
        ..HarnessOpts::smoke()
    }
}

/// Five full-warming windows tiling the timed region.
fn sample() -> SampleOpts {
    SampleOpts {
        windows: 5,
        window: 600,
        warmup: 5_000,
    }
}

/// Two configurations × three programs, each program as in
/// `validate::all_points` — one full-detail point and its windows on one
/// trace — plus a `Verify` on one of those traces and an `SmpTpcc`. The
/// list is deliberately *not* grouped by reuse key (configuration-major,
/// windows reversed), so the schedule has reordering to do.
fn mixed_points() -> Vec<SimPoint> {
    let base = SystemConfig::sparc64_v();
    let small_bht = base.clone().with_core(base.core.clone().with_small_bht());
    let o = sizes();
    let mut points = Vec::new();
    for config in [&base, &small_bht] {
        for &(suite, index) in &PROGRAMS {
            let mut group = vec![full_point(suite, index, &o)];
            group.extend(
                sampled_points(suite, index, &o, &sample())
                    .into_iter()
                    .rev(),
            );
            for mut p in group {
                p.config = config.clone();
                points.push(p);
            }
        }
    }
    points.push(SimPoint {
        work: WorkUnit::Verify {
            suite: PROGRAMS[0].0,
            index: PROGRAMS[0].1,
        },
        ..full_point(PROGRAMS[0].0, PROGRAMS[0].1, &o)
    });
    points.push(SimPoint {
        config: SystemConfig::smp(2),
        work: WorkUnit::SmpTpcc,
        records: o.smp_records,
        warmup: o.smp_warmup,
        seed: program_seed(o.seed, "tpcc-smp"),
    });
    points
}

fn distinct_keys(points: &[SimPoint]) -> u64 {
    points
        .iter()
        .map(ReuseKey::of)
        .collect::<HashSet<_>>()
        .len() as u64
}

/// Σ over distinct `(reuse key, timed range)` of the range's length —
/// a verification point times its whole trace — plus every SMP key's
/// whole trace set: the records a campaign keeps as traces.
fn distinct_timed_records(points: &[SimPoint]) -> u64 {
    let ranges: HashSet<(ReuseKey, usize, usize)> = points
        .iter()
        .map(|p| {
            let whole = p.records + p.warmup;
            let (start, len) = match p.work {
                WorkUnit::SmpTpcc => (0, whole * p.config.cpus),
                _ => p.window().unwrap_or((0, whole)),
            };
            (ReuseKey::of(p), start, len)
        })
        .collect();
    ranges.iter().map(|&(_, _, len)| len as u64).sum()
}

/// Σ over plans — one per `(reuse key, memory key, origin)` — of
/// `last start − origin`: what one ascending pass of one memory state per
/// plan replays, whatever predictors its points differ in. A full-detail
/// point is the window its warm-up ends at, on its plan's chain.
fn one_pass_per_plan(points: &[SimPoint]) -> u64 {
    let mut plans: HashMap<(ReuseKey, Fingerprint, usize), usize> = HashMap::new();
    for p in points {
        if let Some((start, _)) = p.window() {
            let origin = start.saturating_sub(p.warmup);
            let last = plans
                .entry((ReuseKey::of(p), memory_warm_key(&p.config), origin))
                .or_insert(origin);
            *last = (*last).max(start);
        }
    }
    plans
        .iter()
        .map(|((_, _, origin), last)| (last - origin) as u64)
        .sum()
}

fn spec(points: &[SimPoint], threads: usize) -> CampaignSpec {
    CampaignSpec::new("shared-inputs", points.to_vec()).with_threads(threads)
}

fn run(points: &[SimPoint], threads: usize) -> CampaignOutcome {
    run_campaign(&spec(points, threads), None).expect("run")
}

#[test]
fn a_mixed_campaign_is_identical_at_any_thread_count_and_to_lone_points() {
    let points = mixed_points();
    assert_eq!(distinct_keys(&points), 4, "three programs and the SMP set");
    let lone: Vec<PointOutcome> = points
        .iter()
        .map(|p| {
            PointOutcome::Metrics(Box::new(
                try_execute_point(p, Default::default()).expect("clean point"),
            ))
        })
        .collect();
    let warm_requested: u64 = points
        .iter()
        .filter_map(|p| p.window().map(|(start, _)| start.min(p.warmup) as u64))
        .sum();
    for threads in [1, 2, 5] {
        let out = run(&points, threads);
        assert_eq!(
            out.outcomes, lone,
            "{threads} threads: outcomes must be index-aligned and equal lone execution"
        );
        let r = &out.report;
        assert_eq!(
            r.registry.traces_requested,
            points.len() as u64,
            "{threads} threads"
        );
        assert_eq!(
            r.registry.traces_generated,
            distinct_keys(&points),
            "{threads} threads: one generation per distinct key"
        );
        assert_eq!(
            r.registry.records_generated,
            3 * 5_000 + 2 * 2_000,
            "{threads} threads"
        );
        assert_eq!(
            r.registry.records_warm_requested, warm_requested,
            "{threads} threads"
        );
        assert_eq!(
            r.registry.records_materialized,
            distinct_timed_records(&points),
            "{threads} threads"
        );
        assert_eq!(
            r.registry.records_warmed,
            one_pass_per_plan(&points),
            "{threads} threads: each plan is one pass, whoever is served first"
        );
        assert_eq!(
            r.registry.records_trained,
            2 * r.registry.records_warmed,
            "{threads} threads: the two configurations' tables ride every pass"
        );
    }
}

/// The benchmark's `sampled_long` shape: eight programs, eight sparse
/// windows each over a long timed region, full functional warming.
fn sampled_long_shape(lead_in: usize, region: usize, window: usize) -> Vec<SimPoint> {
    let o = HarnessOpts {
        records: region,
        warmup: lead_in,
        ..HarnessOpts::smoke()
    };
    let s = SampleOpts {
        windows: 8,
        window,
        warmup: lead_in + region,
    };
    [
        (SuiteKind::SpecInt95, 0),
        (SuiteKind::SpecFp95, 0),
        (SuiteKind::SpecInt2000, 0),
        (SuiteKind::SpecFp2000, 0),
        (SuiteKind::SpecInt95, 1),
        (SuiteKind::SpecFp95, 1),
        (SuiteKind::SpecInt2000, 1),
        (SuiteKind::Tpcc, 0),
    ]
    .iter()
    .flat_map(|&(suite, index)| sampled_points(suite, index, &o, &s))
    .collect()
}

/// Eight generators for sixty-four windows and one warming pass per
/// program, up to its last window's start, whatever the thread count:
/// how much is generated, warmed and kept is a function of the point
/// list.
fn assert_one_generation_and_one_pass_per_program(points: &[SimPoint]) {
    assert_eq!(points.len(), 64);
    let (last_start, window) = points
        .iter()
        .filter_map(|p| p.window())
        .max()
        .map(|(start, len)| (start as u64, len as u64))
        .unwrap();
    for threads in [1, 2, 5] {
        let out = run(points, threads);
        assert!(out.failures().is_empty());
        let r = &out.report;
        eprintln!("{threads} thread(s): {}", r.summary());
        assert_eq!(r.registry.traces_requested, 64, "{threads} threads");
        assert_eq!(r.registry.traces_generated, 8, "{threads} threads");
        assert_eq!(r.registry.warm_passes, 8, "{threads} threads");
        assert_eq!(
            r.registry.records_warmed,
            8 * last_start,
            "{threads} threads"
        );
        assert_eq!(
            r.registry.records_generated,
            8 * (last_start + window),
            "{threads} threads: nothing past the last window"
        );
        assert_eq!(
            r.registry.records_materialized,
            64 * window,
            "{threads} threads"
        );
    }
}

#[test]
fn a_sampled_long_shaped_campaign_generates_and_warms_once_per_program() {
    assert_one_generation_and_one_pass_per_program(&sampled_long_shape(2_000, 80_000, 400));
}

/// The same at the benchmark's full size, for quoting the counts
/// (EXPERIMENTS.md): `cargo test --release -p s64v-harness --test
/// shared_inputs -- --ignored --nocapture`.
#[test]
#[ignore = "full benchmark size; run in release"]
fn a_full_size_sampled_long_campaign_generates_and_warms_once_per_program() {
    assert_one_generation_and_one_pass_per_program(&sampled_long_shape(40_000, 1_600_000, 8_000));
}

#[test]
fn the_registry_holds_nothing_once_every_point_is_released() {
    let points = mixed_points();
    let registry = Registry::new(&points);
    assert_eq!(registry.live() as u64, distinct_keys(&points));
    let mut traces: Vec<Weak<Vec<VecTrace>>> = Vec::new();
    for (at, p) in points.iter().enumerate() {
        let t = registry.traces(at);
        if let Some((start, len)) = p.window() {
            assert_eq!(t[0].len(), len);
            assert_eq!(registry.warmed(at).pos(), start);
        }
        traces.push(Arc::downgrade(&t));
    }
    // A program window leaves with its last asker, and every asker here
    // has dropped it; an SMP trace set is held for its key until release.
    for (p, t) in points.iter().zip(&traces) {
        let smp = matches!(p.work, WorkUnit::SmpTpcc);
        assert_eq!(t.upgrade().is_some(), smp, "{}", p.label());
    }
    for at in 0..points.len() {
        registry.release(at);
    }
    assert_eq!(registry.live(), 0);
    assert!(
        traces.iter().all(|t| t.upgrade().is_none()),
        "no trace may outlive its last consumer"
    );
    // `run_campaign` itself asserts `live() == 0` before it returns (a
    // debug assertion, active in every test above and below).
}

#[test]
fn points_that_die_mid_run_or_panic_every_time_leave_their_neighbours_whole() {
    let o = sizes();
    let (suite, index) = PROGRAMS[0];
    let windows = sampled_points(suite, index, &o, &sample());
    // Shares the windows' trace (its length is their `records`) and
    // panics: "warmup must leave records to time".
    let panicking = SimPoint {
        records: 0,
        warmup: o.records + o.warmup,
        ..full_point(suite, index, &o)
    };
    let full = full_point(suite, index, &o);
    let mut points = vec![panicking, full];
    points.extend(windows);
    assert_eq!(distinct_keys(&points), 1);

    let clean = run(&points, 1);
    let cycles = |i: usize| clean.outcomes[i].metrics().expect("clean point").cycles;
    let longest_window = (2..points.len()).map(cycles).max().unwrap();
    assert!(
        cycles(1) > longest_window,
        "the full point outlasts any window"
    );

    // A cycle budget between the two: every window finishes, the full
    // point is cancelled *mid-run*.
    for threads in [1, 2, 5] {
        let mut spec = spec(&points, threads);
        spec.supervise.cycle_budget = Some(longest_window + 1);
        let out = run_campaign(&spec, None).expect("run");
        assert!(
            matches!(&out.outcomes[0], PointOutcome::Failed { error, .. }
                if error.contains("warmup must leave records to time")),
            "{threads} threads: got {:?}",
            out.outcomes[0]
        );
        assert!(
            matches!(&out.outcomes[1], PointOutcome::TimedOut { .. }),
            "{threads} threads: got {:?}",
            out.outcomes[1]
        );
        assert_eq!(out.outcomes[2..], clean.outcomes[2..], "{threads} threads");
        assert_eq!((out.report.failed, out.report.timed_out), (2, 1));
        // The full point and five windows asked once each (the panicking
        // point dies before it asks); one pass served them all, then was
        // dropped (`live() == 0` is asserted inside `run_campaign`).
        assert_eq!(out.report.registry.traces_requested, 1 + 5);
        assert_eq!(out.report.registry.traces_generated, 1);
        assert_eq!(out.report.registry.warm_passes, 1);
    }
}
