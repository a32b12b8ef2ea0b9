//! Warm state as a shared campaign input: points whose configurations
//! share a memory key time on one warmed memory state, each with its own
//! predictor's table, trained beside it — every point on a copy but the
//! last to ask, which takes the state itself. Sharing
//! changes how many records get replayed and how many machines get
//! built, never a result; a memory configuration warming *does* read
//! gets a cursor of its own on the program's one pass; the counters are
//! exact, and the same, at any thread count; and a sharing point
//! cancelled mid-run costs its neighbours nothing.

use s64v_core::{
    apply_knob, knob_value, memory_warm_key, predictor_warm_key, PerformanceModel, Run, RunOptions,
    SystemConfig, KNOBS,
};
use s64v_harness::engine::PointOutcome;
use s64v_harness::validate::{full_point, sampled_points, SampleOpts};
use s64v_harness::{
    run_campaign, try_execute_point, CampaignOutcome, CampaignSpec, HarnessOpts, SimPoint,
    SupervisePolicy, WorkUnit,
};
use s64v_trace::SamplePlan;
use s64v_workloads::{Suite, SuiteKind};
use std::collections::HashSet;

const SEEDS: [u64; 3] = [3, 17, 40];
const RECORDS: usize = 2_500;
const WARMUP: usize = 4_000;

fn with_knob(base: &SystemConfig, name: &str, value: u64) -> SystemConfig {
    let mut config = base.clone();
    apply_knob(&mut config, name, value).expect("a registered knob");
    config
}

/// The base machine, three that differ from it only in core knobs
/// (window, RS, issue width), one with another branch history table and
/// one with another memory-configuration field.
fn six_configs() -> Vec<SystemConfig> {
    let base = SystemConfig::sparc64_v();
    let small_bht = base.clone().with_core(base.core.clone().with_small_bht());
    vec![
        base.clone(),
        with_knob(&base, "window_size", 32),
        with_knob(&base, "rse_entries", 4),
        with_knob(&base, "issue_width", 2),
        small_bht,
        with_knob(&base, "l2_latency", 20),
    ]
}

fn program_points(suite: SuiteKind, seed: u64, configs: &[SystemConfig]) -> Vec<SimPoint> {
    configs
        .iter()
        .map(|config| SimPoint {
            config: config.clone(),
            work: WorkUnit::Program { suite, index: 0 },
            records: RECORDS,
            warmup: WARMUP,
            seed,
        })
        .collect()
}

fn spec(points: &[SimPoint], threads: usize) -> CampaignSpec {
    CampaignSpec::new("shared-warm", points.to_vec())
        .with_threads(threads)
        .with_heartbeat(None)
}

/// [`spec`] with every point held to `cycle_budget` simulated cycles.
fn budgeted(points: &[SimPoint], threads: usize, cycle_budget: u64) -> CampaignSpec {
    CampaignSpec {
        supervise: SupervisePolicy {
            cycle_budget: Some(cycle_budget),
            ..SupervisePolicy::default()
        },
        ..spec(points, threads)
    }
}

fn run(spec: &CampaignSpec) -> CampaignOutcome {
    run_campaign(spec, None).expect("run")
}

fn rendered(out: &CampaignOutcome) -> Vec<String> {
    out.outcomes.iter().map(|o| format!("{o:?}")).collect()
}

#[test]
fn six_configurations_of_one_trace_equal_lone_points_and_warm_once_per_warm_key() {
    let configs = six_configs();
    let memories: HashSet<_> = configs.iter().map(memory_warm_key).collect();
    assert_eq!(
        memories.len(),
        2,
        "the core knobs and the BHT share the base's memory key; the L2 gets its own"
    );
    let predictors: HashSet<_> = configs.iter().map(predictor_warm_key).collect();
    assert_eq!(predictors.len(), 2, "the base's table and the small one");
    assert_eq!(
        (
            memory_warm_key(&configs[0]),
            predictor_warm_key(&configs[0])
        ),
        (
            memory_warm_key(&configs[3]),
            predictor_warm_key(&configs[3])
        ),
        "issue width is not read by warming"
    );
    let no_skip = RunOptions {
        no_skip: true,
        ..RunOptions::default()
    };
    for suite in SuiteKind::ALL {
        for seed in SEEDS {
            let points = program_points(suite, seed, &configs);
            let lone: Vec<String> = points
                .iter()
                .map(|p| {
                    let m = try_execute_point(p, RunOptions::default()).expect("clean point");
                    for opts in [no_skip.clone(), RunOptions::checked()] {
                        assert_eq!(try_execute_point(p, opts).expect("clean point"), m);
                    }
                    format!("{:?}", PointOutcome::Metrics(Box::new(m)))
                })
                .collect();
            for threads in [1, 2, 5] {
                let ctx = format!("{suite:?}/seed{seed}/{threads} threads");
                let out = run(&spec(&points, threads));
                assert_eq!(rendered(&out), lone, "{ctx}");
                let checked = run(&CampaignSpec {
                    checked: true,
                    ..spec(&points, threads)
                });
                assert_eq!(rendered(&checked), lone, "{ctx}: checked");
                let r = &out.report;
                assert_eq!(r.registry.machines_requested, 6, "{ctx}");
                assert_eq!(
                    r.registry.records_warm_requested,
                    6 * WARMUP as u64,
                    "{ctx}"
                );
                assert_eq!(r.registry.warm_passes, 2, "{ctx}: one pass per memory key");
                assert_eq!(
                    r.registry.records_warmed,
                    2 * WARMUP as u64,
                    "{ctx}: no pass is duplicated"
                );
                // The base's memory trains both tables, the L2's its one.
                assert_eq!(r.registry.tables_trained, 3, "{ctx}");
                assert_eq!(r.registry.records_trained, 3 * WARMUP as u64, "{ctx}");
                // Each chain's one stop gets the cursor itself, and its
                // last asker takes it: the base chain's other four points
                // time on copies, the L2's one point on its cursor.
                assert_eq!(r.registry.machines_copied, 4, "{ctx}");
                assert_eq!(r.registry.traces_generated, 1, "{ctx}");
                assert_eq!(
                    r.registry.records_generated,
                    (WARMUP + RECORDS) as u64,
                    "{ctx}"
                );
                assert_eq!(
                    r.registry.records_materialized, RECORDS as u64,
                    "{ctx}: six points time one window"
                );
            }
        }
    }
}

/// The cursor path against the path it replaced: a machine built cold
/// for the point alone, warmed record by record through `Core::warm`.
#[test]
fn a_point_served_from_a_shared_state_equals_the_per_point_warm_loop() {
    for suite in SuiteKind::ALL {
        let trace = Suite::preset(suite).programs()[0].generate(WARMUP + RECORDS, SEEDS[0]);
        let points = program_points(suite, SEEDS[0], &six_configs());
        let out = run(&spec(&points, 2));
        for (p, o) in points.iter().zip(&out.outcomes) {
            let m = o.metrics().expect("clean point");
            let r = PerformanceModel::new(p.config.clone()).run(Run::of(&trace).warm(WARMUP));
            assert_eq!(
                (m.cycles, m.committed, m.bus_transactions, m.bus_busy_cycles),
                (r.cycles, r.committed, r.bus_transactions, r.bus_busy_cycles),
                "{suite:?}"
            );
            assert_eq!(m.cpi, r.core_stats[0].cpi.cells, "{suite:?}");
            let ratio = r.l1d_miss_ratio();
            assert_eq!(m.l1d, (ratio.numerator(), ratio.denominator()), "{suite:?}");
            assert_eq!(m.prefetches, r.prefetches_issued(), "{suite:?}");
        }
    }
}

/// The benchmark's `explore_sweep` shape: a round is one trace under a
/// grid of reservation-station and window sizes.
#[test]
fn a_sweep_round_replays_its_warm_up_once_at_one_thread_and_at_two() {
    let base = SystemConfig::sparc64_v();
    let mut configs = Vec::new();
    for rse in [4, 6, 8, 10, 12] {
        for rsf in [4, 6, 8, 10] {
            for window in [32, 48, 64, 80, 96] {
                let c = with_knob(&base, "rse_entries", rse);
                let c = with_knob(&c, "rsf_entries", rsf);
                configs.push(with_knob(&c, "window_size", window));
            }
        }
    }
    let points = program_points(SuiteKind::Tpcc, 42, &configs);
    for threads in [1, 2] {
        let r = run(&spec(&points, threads)).report;
        assert_eq!(r.completed, 100, "{threads} threads");
        assert_eq!(r.registry.records_warm_requested, 100 * WARMUP as u64);
        assert_eq!(
            r.registry.records_warmed, WARMUP as u64,
            "{threads} threads"
        );
        assert_eq!(r.registry.warm_passes, 1, "{threads} threads");
        assert_eq!(r.registry.machines_copied, 99, "{threads} threads");
        assert_eq!(r.registry.records_materialized, RECORDS as u64);
        let s = r.summary();
        assert!(
            s.contains("(99 of 100 warming passes saved"),
            "{threads} threads: {s}"
        );
    }
}

#[test]
fn a_full_detail_point_and_its_plans_windows_share_one_chain() {
    let o = HarnessOpts {
        records: 3_000,
        warmup: 2_000,
        ..HarnessOpts::smoke()
    };
    let sample = SampleOpts {
        windows: 5,
        window: 600,
        warmup: 5_000,
    };
    for suite in [SuiteKind::SpecInt95, SuiteKind::Tpcc] {
        let windows = sampled_points(suite, 0, &o, &sample);
        let last_start = windows
            .iter()
            .filter_map(|p| p.window())
            .map(|(start, _)| start)
            .max()
            .unwrap();
        let mut points = windows;
        points.push(full_point(suite, 0, &o));
        let lone: Vec<String> = points
            .iter()
            .map(|p| {
                let m = try_execute_point(p, RunOptions::default()).expect("clean point");
                format!("{:?}", PointOutcome::Metrics(Box::new(m)))
            })
            .collect();
        for threads in [1, 2, 5] {
            let out = run(&spec(&points, threads));
            assert_eq!(rendered(&out), lone, "{suite:?}/{threads} threads");
            // The reference point's stop lies on the windows' way: one
            // pass from record 0 to the last window serves all six,
            // whoever asks first.
            let r = &out.report.registry;
            assert_eq!(r.warm_passes, 1, "{suite:?}/{threads} threads");
            assert_eq!(
                r.records_warmed, last_start as u64,
                "{suite:?}/{threads} threads"
            );
        }
    }
}

/// The benchmark's `sampled_long` shape at a small size: eight programs,
/// eight windows each, every window warmed from record 0. Each program's
/// pass copies its state into the seven stops it moves on from and hands
/// the eighth its cursor; every window is its stop's only point, so it
/// takes the state whole and no point copies.
#[test]
fn a_sampled_campaign_copies_only_into_the_stops_the_pass_moves_on_from() {
    let o = HarnessOpts {
        records: 16_000,
        warmup: 400,
        ..HarnessOpts::smoke()
    };
    let sample = SampleOpts {
        windows: 8,
        window: 400,
        warmup: 16_400,
    };
    let programs = [
        (SuiteKind::SpecInt95, 0),
        (SuiteKind::SpecFp95, 0),
        (SuiteKind::SpecInt2000, 0),
        (SuiteKind::SpecFp2000, 0),
        (SuiteKind::SpecInt95, 1),
        (SuiteKind::SpecFp95, 1),
        (SuiteKind::SpecInt2000, 1),
        (SuiteKind::Tpcc, 0),
    ];
    let points: Vec<SimPoint> = programs
        .iter()
        .flat_map(|&(suite, index)| sampled_points(suite, index, &o, &sample))
        .collect();
    assert_eq!(points.len(), 64, "eight windows per program");
    let lone: Vec<String> = points
        .iter()
        .map(|p| {
            let m = try_execute_point(p, RunOptions::default()).expect("clean point");
            format!("{:?}", PointOutcome::Metrics(Box::new(m)))
        })
        .collect();
    for threads in [1, 2, 5] {
        let out = run(&spec(&points, threads));
        assert_eq!(rendered(&out), lone, "{threads} threads");
        let r = &out.report.registry;
        assert_eq!(r.warm_passes, 8, "{threads} threads");
        assert_eq!(r.machines_requested, 64, "{threads} threads");
        assert_eq!(r.machines_copied, 56, "{threads} threads");
    }
}

/// Sampled windows served from the registry's one pass against the
/// definition: each window executed alone on the generated trace. A plan
/// under full warming (every window warms from record 0) and one under
/// bounded warming (every window from its own origin), plus a window at
/// record 0, whose start is its origin under both.
#[test]
fn a_plans_windows_served_from_one_pass_equal_lone_window_executions() {
    const TRACE_LEN: usize = 7_000;
    const LEN: usize = 500;
    let config = SystemConfig::sparc64_v();
    let model = PerformanceModel::new(config.clone());
    for suite in [SuiteKind::SpecInt95, SuiteKind::Tpcc] {
        let trace = Suite::preset(suite).programs()[0].generate(TRACE_LEN, SEEDS[1]);
        for warmup in [TRACE_LEN, 1_200] {
            let plan = SamplePlan::new(1_600, LEN as u64, warmup as u64, 5);
            let starts = plan
                .windows((TRACE_LEN - LEN) as u64)
                .into_iter()
                .filter(|&(_, len)| len == LEN as u64)
                .map(|(start, _)| LEN + start as usize);
            let points: Vec<SimPoint> = std::iter::once(0)
                .chain(starts)
                .map(|start| SimPoint {
                    config: config.clone(),
                    work: WorkUnit::SampledWindow {
                        suite,
                        index: 0,
                        start,
                        len: LEN,
                    },
                    records: TRACE_LEN,
                    warmup,
                    seed: SEEDS[1],
                })
                .collect();
            assert!(points.len() >= 4, "a plan of several windows");
            let lone: Vec<_> = points
                .iter()
                .map(|p| {
                    let (start, len) = p.window().expect("a window");
                    let run = Run::of(&trace).warm(warmup).window(start, len);
                    model.execute(run).expect("clean run").0
                })
                .collect();
            for threads in [1, 2, 5] {
                let ctx = format!("{suite:?}/warm {warmup}/{threads} threads");
                let out = run(&spec(&points, threads));
                for ((p, o), r) in points.iter().zip(&out.outcomes).zip(&lone) {
                    let m = o.metrics().expect("clean point");
                    let (l1d, mispredict) = (r.l1d_miss_ratio(), r.mispredict_ratio());
                    assert_eq!(
                        (m.cycles, m.committed, m.bus_transactions, m.bus_busy_cycles),
                        (r.cycles, r.committed, r.bus_transactions, r.bus_busy_cycles),
                        "{ctx}: {}",
                        p.label()
                    );
                    assert_eq!(m.cpi, r.core_stats[0].cpi.cells, "{ctx}: {}", p.label());
                    assert_eq!(
                        (m.l1d, m.mispredict, m.prefetches),
                        (
                            (l1d.numerator(), l1d.denominator()),
                            (mispredict.numerator(), mispredict.denominator()),
                            r.prefetches_issued()
                        ),
                        "{ctx}: {}",
                        p.label()
                    );
                }
            }
        }
    }
}

#[test]
fn mid_run_cancels_on_a_sharing_point_leave_the_rest_whole() {
    let points = program_points(SuiteKind::SpecInt95, SEEDS[1], &six_configs());
    let clean = run(&spec(&points, 2));
    assert!(clean.failures().is_empty());

    // A cycle budget only the slowest machine — a sharer, so the list is
    // cut down to the sharers and one loner faster than it — overruns: it
    // is cancelled mid-run, on its copy.
    let cycles = |i: usize| clean.outcomes[i].metrics().expect("clean point").cycles;
    let slow = (0..4).max_by_key(|&i| cycles(i)).unwrap();
    let keep: Vec<usize> = (0..points.len())
        .filter(|&i| i < 4 || cycles(i) < cycles(slow))
        .collect();
    assert!(keep.len() > 4, "a loner runs beside the sharers");
    let points: Vec<SimPoint> = keep.iter().map(|&i| points[i].clone()).collect();
    let clean = CampaignOutcome {
        outcomes: keep.iter().map(|&i| clean.outcomes[i].clone()).collect(),
        ..clean
    };
    let cycles = |i: usize| clean.outcomes[i].metrics().expect("clean point").cycles;
    let budget = (0..points.len())
        .filter(|&i| i != slow)
        .map(cycles)
        .max()
        .unwrap()
        + 1;
    assert!(cycles(slow) > budget, "one sharer is strictly the slowest");
    let loners = points.len() as u64 - 4;
    // A loner with the sharers' memory key (the small BHT) warms on
    // their pass; one with another (the L2) on a pass of its own.
    let memories = points.iter().map(|p| memory_warm_key(&p.config));
    let passes = memories.collect::<HashSet<_>>().len() as u64;
    for threads in [1, 2, 5] {
        let out = run(&budgeted(&points, threads, budget));
        for i in (0..points.len()).filter(|&i| i != slow) {
            assert_eq!(out.outcomes[i], clean.outcomes[i], "{threads} threads");
        }
        assert!(
            matches!(&out.outcomes[slow], PointOutcome::TimedOut { .. }),
            "{threads} threads: got {:?}",
            out.outcomes[slow]
        );
        let r = &out.report;
        assert_eq!(r.timed_out, 1, "{threads} threads");
        assert_eq!(
            r.registry.machines_requested,
            4 + loners,
            "{threads} threads"
        );
        // The cancelled point's machine died with it; the state it came
        // from served the sharers and was never warmed again. Each
        // pass's one stop is taken by its last asker, whoever that is.
        assert_eq!(r.registry.warm_passes, passes, "{threads} threads");
        assert_eq!(r.registry.records_warmed, passes * WARMUP as u64);
        assert_eq!(
            r.registry.machines_copied,
            r.registry.machines_requested - passes,
            "{threads} threads"
        );
    }
}

/// `fig09_bht`'s shape, plus the two other ways a point can vary beside
/// it: the base machine, the small branch history table, perfect
/// prediction and one core knob, on two programs.
fn bht_study() -> Vec<SimPoint> {
    let base = SystemConfig::sparc64_v();
    let mut perfect = base.clone();
    perfect.core.perfect_branch_prediction = true;
    let configs = [
        base.clone(),
        base.clone().with_core(base.core.clone().with_small_bht()),
        perfect,
        with_knob(&base, "window_size", 32),
    ];
    [SuiteKind::SpecInt95, SuiteKind::Tpcc]
        .into_iter()
        .flat_map(|suite| program_points(suite, SEEDS[0], &configs))
        .collect()
}

#[test]
fn a_predictor_study_warms_each_programs_memory_once_beside_one_table_per_predictor() {
    let points = bht_study();
    let lone: Vec<PointOutcome> = points
        .iter()
        .map(|p| {
            PointOutcome::Metrics(Box::new(
                try_execute_point(p, RunOptions::default()).expect("clean point"),
            ))
        })
        .collect();
    for (p, o) in points.iter().zip(&lone) {
        let WorkUnit::Program { suite, index } = p.work else {
            unreachable!("program points");
        };
        let trace = Suite::preset(suite).programs()[index].generate(WARMUP + RECORDS, p.seed);
        let r = PerformanceModel::new(p.config.clone()).run(Run::of(&trace).warm(WARMUP));
        let m = o.metrics().expect("clean point");
        let ratio = r.mispredict_ratio();
        assert_eq!(
            (m.cycles, m.committed, m.mispredict, m.cpi),
            (
                r.cycles,
                r.committed,
                (ratio.numerator(), ratio.denominator()),
                r.core_stats[0].cpi.cells
            ),
            "{}",
            p.label()
        );
    }
    let mut counts = Vec::new();
    for threads in [1, 2, 5] {
        let out = run(&spec(&points, threads));
        assert_eq!(out.outcomes, lone, "{threads} threads");
        let r = out.report.registry;
        assert_eq!(
            r.warm_passes, 2,
            "{threads} threads: one memory pass per program"
        );
        assert_eq!(
            r.records_warmed,
            2 * WARMUP as u64,
            "{threads} threads: not once per predictor"
        );
        assert_eq!(r.records_warm_requested, 8 * WARMUP as u64);
        // The base's table serves the core knob too; perfect prediction
        // trains none.
        assert_eq!(r.tables_trained, 4, "{threads} threads");
        assert_eq!(r.records_trained, 4 * WARMUP as u64, "{threads} threads");
        // Each program's one stop: three copies and one taken.
        assert_eq!(r.machines_copied, 6, "{threads} threads");
        counts.push(r);
    }
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");

    // A budget only the slowest point overruns cancels it mid-run on its
    // copy; every other point is untouched, and nothing is warmed or
    // trained twice.
    let cycles = |i: usize| lone[i].metrics().expect("clean point").cycles;
    let slow = (0..points.len()).max_by_key(|&i| cycles(i)).unwrap();
    let budget = (0..points.len())
        .filter(|&i| i != slow)
        .map(cycles)
        .max()
        .unwrap()
        + 1;
    assert!(cycles(slow) > budget, "one point is strictly the slowest");
    for threads in [1, 2, 5] {
        let out = run(&budgeted(&points, threads, budget));
        for i in (0..points.len()).filter(|&i| i != slow) {
            assert_eq!(out.outcomes[i], lone[i], "{threads} threads");
        }
        assert!(
            matches!(&out.outcomes[slow], PointOutcome::TimedOut { .. }),
            "{threads} threads: got {:?}",
            out.outcomes[slow]
        );
        let r = out.report.registry;
        assert_eq!((r.warm_passes, r.records_warmed), (2, 2 * WARMUP as u64));
        assert_eq!(r.tables_trained, 4, "{threads} threads");
        assert_eq!(r.machines_copied, 6, "{threads} threads");
    }
}

/// The keys are complete: a point moved off the base machine by any one
/// knob, sharing a campaign (and wherever its keys allow, a memory state
/// and a table) with all the others, equals the point run alone.
#[test]
fn every_knob_off_its_default_shares_exactly() {
    let base = SystemConfig::sparc64_v();
    let mut configs = vec![base.clone()];
    for knob in KNOBS {
        if knob.name == "cpus" {
            // An SMP knob: a program point is uniprocessor by definition.
            continue;
        }
        let now = knob_value(&base, knob.name).expect("a registered knob");
        let moved = [now / 2, now * 2, now + 1]
            .into_iter()
            .filter(|&v| v != now)
            .find_map(|v| {
                let mut config = base.clone();
                apply_knob(&mut config, knob.name, v).ok().map(|()| config)
            });
        configs.push(moved.unwrap_or_else(|| panic!("{} has no non-default value", knob.name)));
    }
    let points = program_points(SuiteKind::Tpcc, SEEDS[2], &configs);
    let lone: Vec<PointOutcome> = points
        .iter()
        .map(|p| {
            let m = try_execute_point(p, RunOptions::default())
                .unwrap_or_else(|e| panic!("{:?}: {e}", p.config));
            PointOutcome::Metrics(Box::new(m))
        })
        .collect();
    let memories: HashSet<_> = configs.iter().map(memory_warm_key).collect();
    for threads in [1, 2] {
        let out = run(&spec(&points, threads));
        for ((p, o), want) in points.iter().zip(&out.outcomes).zip(&lone) {
            assert_eq!(o, want, "{threads} threads: {:?}", p.config);
        }
        let r = out.report.registry;
        assert_eq!(r.warm_passes, memories.len() as u64, "{threads} threads");
        assert_eq!(
            r.tables_trained,
            memories.len() as u64,
            "one predictor everywhere"
        );
    }
}
