//! The registry's unit tests.

use super::*;
use s64v_core::SystemConfig;

const TRACE: usize = 6_000;
const LEN: usize = 500;

fn window(start: usize, warmup: usize) -> SimPoint {
    SimPoint {
        config: SystemConfig::sparc64_v(),
        work: WorkUnit::SampledWindow {
            suite: SuiteKind::SpecInt95,
            index: 0,
            start,
            len: LEN,
        },
        records: TRACE,
        warmup,
        seed: 7,
    }
}

fn reference() -> VecTrace {
    Suite::preset(SuiteKind::SpecInt95).programs()[0].generate(TRACE, 7)
}

#[test]
fn a_full_point_and_its_windows_share_one_key() {
    let full = SimPoint {
        work: WorkUnit::Program {
            suite: SuiteKind::SpecInt95,
            index: 0,
        },
        records: 4_000,
        warmup: 2_000,
        ..window(0, 0)
    };
    assert_eq!(ReuseKey::of(&full), ReuseKey::of(&window(2_000, 6_000)));
    let verify = SimPoint {
        work: WorkUnit::Verify {
            suite: SuiteKind::SpecInt95,
            index: 0,
        },
        ..full.clone()
    };
    assert_eq!(ReuseKey::of(&full), ReuseKey::of(&verify));
    let smp = SimPoint {
        config: SystemConfig::smp(2),
        work: WorkUnit::SmpTpcc,
        ..full.clone()
    };
    assert_ne!(ReuseKey::of(&full), ReuseKey::of(&smp));
}

#[test]
fn ascending_windows_warm_once_and_release_empties_the_registry() {
    let starts = [1_000, 2_500, 4_000];
    let points: Vec<SimPoint> = starts.iter().map(|&s| window(s, TRACE)).collect();
    let reg = Registry::new(&points);
    assert_eq!(reg.live(), 1);
    let whole = reference();
    for (at, &start) in starts.iter().enumerate() {
        let traces = reg.traces(at);
        assert_eq!(traces[0].records(), &whole.records()[start..start + LEN]);
        assert!(Arc::ptr_eq(&traces, &reg.traces(at)), "published once");
        let machine = reg.warmed(at);
        assert_eq!((machine.origin(), machine.pos()), (0, start));
    }
    let c = reg.counters();
    assert_eq!((c.traces_requested, c.traces_generated), (6, 1));
    assert_eq!(c.records_generated, 4_000 + LEN as u64, "to the last end");
    assert_eq!(c.records_materialized, 3 * LEN as u64);
    assert_eq!(c.records_warm_requested, 1_000 + 2_500 + 4_000);
    assert_eq!(c.records_warmed, 4_000, "one pass to the last start");
    assert_eq!(c.warm_passes, 1);
    for at in 0..points.len() {
        assert_eq!(reg.live(), 1, "held until the last consumer");
        reg.release(at);
    }
    assert_eq!(reg.live(), 0);
}

#[test]
fn out_of_order_and_repeated_requests_replay_nothing_twice() {
    let points: Vec<SimPoint> = [3_000, 1_000].iter().map(|&s| window(s, TRACE)).collect();
    let reg = Registry::new(&points);
    assert_eq!(reg.warmed(0).pos(), 3_000);
    // Behind the pass: published on its way to the first asker.
    assert_eq!(reg.warmed(1).pos(), 1_000);
    assert_eq!(reg.warmed(1).pos(), 1_000, "asked again");
    assert_eq!(
        reg.traces(1)[0].records(),
        &reference().records()[1_000..1_500]
    );
    let c = reg.counters();
    assert_eq!((c.warm_passes, c.records_warmed), (1, 3_000));
    assert_eq!(
        c.records_generated, 3_000,
        "the first window is not yet asked for"
    );
    reg.traces(0);
    assert_eq!(reg.counters().records_generated, 3_000 + LEN as u64);
    assert_eq!(reg.counters().records_warmed, 3_000, "past the last stop");
}

#[test]
fn bounded_warm_windows_never_share_and_never_fork() {
    let points: Vec<SimPoint> = [1_000, 2_500].iter().map(|&s| window(s, 400)).collect();
    let reg = Registry::new(&points);
    let a = reg.warmed(0);
    let b = reg.warmed(1);
    assert_eq!((a.origin(), b.origin()), (600, 2_100));
    let c = reg.counters();
    assert_eq!(c.records_warmed, 800);
    assert_eq!(c.records_warm_requested, 800);
    // Each chain's one stop gets the cursor itself; the only copies
    // are the two askers' own.
    assert_eq!((c.warm_passes, c.machines_copied), (2, 2));
    assert_eq!(c.traces_generated, 1, "two chains, one pass");
}

/// `n` program points on one trace whose configurations differ only
/// in the instruction window: one memory key, one table, one stop, one
/// window.
fn sweep(n: u32) -> Vec<SimPoint> {
    (0..n)
        .map(|i| {
            let mut config = SystemConfig::sparc64_v();
            config.core.window_size = 32 + 8 * i;
            SimPoint {
                config,
                work: WorkUnit::Program {
                    suite: SuiteKind::SpecInt95,
                    index: 0,
                },
                records: 500,
                warmup: 1_500,
                seed: 7,
            }
        })
        .collect()
}

/// Warmed states and windows the registry holds for point `at`'s key.
fn held(reg: &Registry, at: usize) -> (usize, usize) {
    let Entry::Program(pass) = &*reg.entry(reg.asks[at].key) else {
        panic!("a program key");
    };
    let pass = runner(pass);
    let stops = pass.chains.iter().flat_map(|chain| chain.stops.values());
    (
        stops.filter(|stop| stop.state.is_some()).count()
            + pass.chains.iter().filter(|c| c.cursor.is_some()).count(),
        pass.windows
            .values()
            .filter(|w| w.records.is_some() || !w.filling.is_empty())
            .count(),
    )
}

#[test]
fn a_stops_users_copy_one_state_in_place_and_it_goes_with_the_last() {
    let points = sweep(4);
    let reg = Registry::new(&points);
    for at in 0..points.len() {
        let machine = reg.warmed(at);
        assert_eq!((machine.origin(), machine.pos()), (0, 1_500));
        assert_eq!(reg.traces(at)[0].len(), 500);
        // Asked again before release, it finds the state where it was.
        reg.warmed(at);
        assert_eq!(held(&reg, at), (1, 1), "one state and one window");
        if at + 1 < points.len() {
            reg.release(at);
        }
    }
    let c = reg.counters();
    assert_eq!(c.machines_copied, 8, "every asker copies, the pass never");
    assert_eq!(c.records_warm_requested, 8 * 1_500);
    assert_eq!((c.warm_passes, c.records_warmed), (1, 1_500));
    assert_eq!((c.records_generated, c.records_materialized), (2_000, 500));
    reg.release(3);
    assert_eq!(reg.live(), 0);
}

#[test]
fn one_memory_state_trains_the_tables_still_wanted_when_its_chain_starts() {
    let base = SystemConfig::sparc64_v();
    let mut perfect = base.clone();
    perfect.core.perfect_branch_prediction = true;
    let small = base.clone().with_core(base.core.clone().with_small_bht());
    let points: Vec<SimPoint> = [base, small, perfect]
        .into_iter()
        .map(|config| SimPoint {
            config,
            ..sweep(1).remove(0)
        })
        .collect();
    let reg = Registry::new(&points);
    for at in 0..points.len() {
        assert_eq!(reg.warmed(at).pos(), 1_500);
    }
    let c = reg.counters();
    assert_eq!((c.warm_passes, c.records_warmed), (1, 1_500));
    assert_eq!((c.tables_trained, c.records_trained), (2, 3_000));

    // The small table's one point is a cache hit: it is never trained.
    let reg = Registry::new(&points);
    reg.release(1);
    reg.warmed(0);
    reg.warmed(2);
    let c = reg.counters();
    assert_eq!((c.warm_passes, c.tables_trained), (1, 1));
    assert_eq!(c.records_trained, 1_500);
}

#[test]
fn concurrent_first_requests_wait_for_one_pass() {
    let points = sweep(4);
    let reg = Registry::new(&points);
    let barrier = std::sync::Barrier::new(points.len());
    std::thread::scope(|scope| {
        for at in 0..points.len() {
            let (reg, barrier) = (&reg, &barrier);
            scope.spawn(move || {
                barrier.wait();
                assert_eq!(reg.warmed(at).pos(), 1_500);
                assert_eq!(reg.traces(at)[0].len(), 500);
            });
        }
    });
    let c = reg.counters();
    assert_eq!((c.warm_passes, c.records_warmed), (1, 1_500));
    assert_eq!((c.traces_generated, c.records_generated), (1, 2_000));
    assert_eq!(c.machines_copied, 4);
    assert_eq!(held(&reg, 0), (1, 1));
}

#[test]
fn a_chains_last_wanted_stop_gets_the_cursor_itself() {
    let points: Vec<SimPoint> = [1_000, 2_500, 4_000]
        .iter()
        .map(|&s| window(s, TRACE))
        .collect();
    let reg = Registry::new(&points);
    reg.warmed(0);
    assert_eq!(held(&reg, 0).0, 2, "the stop's copy and the cursor");
    reg.release(0);
    assert_eq!(held(&reg, 1).0, 1, "a state goes with its last user");
    reg.warmed(2);
    assert_eq!(held(&reg, 2).0, 2, "no cursor left past the last stop");
    assert_eq!(
        reg.counters().machines_copied,
        2 + 2,
        "the pass's and the askers'"
    );

    // A later stop served from the result cache is released unasked:
    // the stop before it is then the last, and the pass ends there.
    let reg = Registry::new(&points[..2]);
    reg.release(1);
    reg.warmed(0);
    assert_eq!(held(&reg, 0).0, 1);
    let c = reg.counters();
    assert_eq!((c.records_warmed, c.machines_copied), (1_000, 1));
    reg.release(0);
    assert_eq!(reg.live(), 0);
}

#[test]
fn a_verification_point_times_the_whole_trace_beside_the_program_point() {
    let full = SimPoint {
        work: WorkUnit::Program {
            suite: SuiteKind::SpecInt95,
            index: 0,
        },
        records: 4_000,
        warmup: 2_000,
        ..window(0, 0)
    };
    let verify = SimPoint {
        work: WorkUnit::Verify {
            suite: SuiteKind::SpecInt95,
            index: 0,
        },
        ..full.clone()
    };
    let points = [full, verify];
    let reg = Registry::new(&points);
    let whole = reference();
    assert_eq!(reg.traces(1)[0], whole);
    assert_eq!(reg.traces(0)[0].records(), &whole.records()[2_000..]);
    assert_eq!(reg.warmed(0).pos(), 2_000);
    let c = reg.counters();
    assert_eq!((c.traces_generated, c.records_generated), (1, 6_000));
    assert_eq!(c.records_materialized, 6_000 + 4_000);
}

#[test]
fn a_pass_whose_runner_died_is_discarded_and_starts_over_from_the_seed() {
    let points: Vec<SimPoint> = [1_000, 2_500, 4_000]
        .iter()
        .map(|&s| window(s, TRACE))
        .collect();
    let reg = Registry::new(&points);
    let first = reg.traces(0);
    reg.release(0);
    // A runner unwinds holding the pass, somewhere past the first
    // window with the second half filled.
    let entry = reg.entry(reg.asks[1].key);
    let Entry::Program(pass) = &*entry else {
        panic!("a program key");
    };
    std::thread::scope(|scope| {
        let died = scope.spawn(|| {
            let mut pass = runner(pass);
            pass.step(&points, &reg.counters);
            panic!("mid-chunk");
        });
        assert!(died.join().is_err());
    });
    assert!(pass.is_poisoned());
    let before = reg.counters();
    assert_eq!(held(&reg, 1), (0, 0), "nothing half-advanced survives");
    assert!(!pass.is_poisoned());
    // What is still wanted comes out as if nothing had happened, from
    // a second pass; the released first window is not built again.
    let whole = reference();
    for (at, start) in [(1, 2_500), (2, 4_000)] {
        assert_eq!(
            reg.traces(at)[0].records(),
            &whole.records()[start..start + LEN]
        );
        let fresh = {
            let lone = Registry::new(&points[at..=at]);
            (lone.warmed(0), lone.traces(0))
        };
        assert_eq!(reg.warmed(at).pos(), fresh.0.pos());
    }
    assert_eq!(
        first[0].records(),
        &whole.records()[1_000..1_500],
        "kept by its holder"
    );
    let c = reg.counters();
    assert_eq!(c.traces_generated, before.traces_generated + 1);
    assert_eq!(c.warm_passes, before.warm_passes + 1);
    assert_eq!(
        c.records_generated,
        before.records_generated + 4_000 + LEN as u64
    );
    assert_eq!(
        c.records_materialized,
        before.records_materialized + 2 * LEN as u64
    );
}

#[test]
fn an_smp_keys_whole_trace_set_is_generated_once_and_shared() {
    let smp = |window_size| {
        let mut config = SystemConfig::smp(2);
        config.core.window_size = window_size;
        SimPoint {
            config,
            work: WorkUnit::SmpTpcc,
            records: 700,
            warmup: 300,
            seed: 7,
        }
    };
    let points = [smp(64), smp(32)];
    let reg = Registry::new(&points);
    let traces = reg.traces(0);
    assert!(Arc::ptr_eq(&traces, &reg.traces(1)));
    assert_eq!(*traces, smp_traces(&tpcc_program(), 2, 1_000, 7));
    let c = reg.counters();
    assert_eq!((c.traces_requested, c.traces_generated), (2, 1));
    assert_eq!(
        (c.records_generated, c.records_materialized),
        (2_000, 2_000)
    );
    let weak = Arc::downgrade(&traces);
    drop(traces);
    reg.release(0);
    assert!(weak.upgrade().is_some(), "held until the last consumer");
    reg.release(1);
    assert!(weak.upgrade().is_none(), "dropped with the last consumer");
    assert_eq!(reg.live(), 0);
}
