//! Equivalence suite for the warm cursor.
//!
//! A sampled window's result is defined by `(trace, origin, start, len)`
//! alone: a cold machine warmed over `[origin, start)` and then timed
//! over `[start, start + len)`. One [`WarmCursor`] serving many windows
//! is purely a way to replay fewer records, so whatever order it serves
//! them in, every window must equal — field for field, by the full
//! `Debug` rendering of the `RunResult` (every counter, histogram bucket,
//! CPI cell and memory statistic) — a machine built by hand for that
//! window alone, under default options, with every cycle stepped, and
//! under the checked-mode auditor.

use s64v_core::{
    memory_warm_key, predictor_warm_key, PerformanceModel, Run, RunOptions, RunResult,
    SystemConfig, WarmCursor,
};
use s64v_cpu::Core;
use s64v_mem::MemorySystem;
use s64v_trace::{SamplePlan, SliceStream, TraceRecord, VecTrace};
use s64v_workloads::{Suite, SuiteKind};

const SEEDS: [u64; 3] = [1, 5, 11];
const TRACE_LEN: usize = 9_000;
const LEN: usize = 700;
/// Full-warming window starts; the first sits on the origin itself.
const STARTS: [usize; 4] = [0, 1_900, 4_400, 8_000];

fn option_sets() -> [(&'static str, RunOptions); 3] {
    [
        ("default", RunOptions::default()),
        (
            "no-skip",
            RunOptions {
                no_skip: true,
                ..RunOptions::default()
            },
        ),
        ("checked", RunOptions::checked()),
    ]
}

/// The definition, written from the public per-record calls with no
/// cursor anywhere: cold at `origin`, `Core::warm` to `start`, time the
/// window from cycle zero.
fn fresh(cfg: &SystemConfig, records: &[TraceRecord], origin: usize, start: usize) -> String {
    let mut mem = MemorySystem::new(cfg.mem.clone(), 1);
    let mut core = Core::new(cfg.core.clone(), 0);
    for rec in &records[origin..start] {
        core.warm(&mut mem, rec);
    }
    let mut stream = SliceStream::new(&records[start..start + LEN]);
    let cycles = core
        .try_run_from(&mut mem, &mut stream, 0)
        .expect("clean run");
    render(&RunResult {
        cycles,
        committed: core.stats().committed.get(),
        core_stats: vec![core.stats().clone()],
        mem_stats: vec![mem.stats(0).clone()],
        bus_transactions: mem.bus().transactions(),
        bus_busy_cycles: mem.bus().busy_cycles(),
    })
}

fn render(r: &RunResult) -> String {
    assert!(
        r.core_stats[0].cpi.conserves(r.core_stats[0].cycles.get()),
        "CPI stack must conserve the window's cycles"
    );
    format!("{r:?}")
}

/// A cold cursor at record 0 for `cfg` alone: its memory system and its
/// own table.
fn cold(cfg: &SystemConfig) -> WarmCursor {
    WarmCursor::with_tables(cfg, predictor_warm_key(cfg), 0)
}

/// Serves `order` the way the campaign registry does: advance the one
/// cursor when the window is at or ahead of it, otherwise start over
/// from the origin. Returns each window's rendering (indexed like
/// `STARTS`) and the records replayed.
fn serve(
    cfg: &SystemConfig,
    records: &[TraceRecord],
    order: &[usize],
    opts: &RunOptions,
) -> (Vec<String>, u64) {
    let mut out = vec![String::new(); STARTS.len()];
    let mut cursor = cold(cfg);
    let mut replayed = 0;
    for &w in order {
        let start = STARTS[w];
        if start < cursor.pos() {
            cursor = cold(cfg);
        }
        replayed += (start - cursor.pos()) as u64;
        cursor.advance(&records[cursor.pos()..start]);
        assert_eq!((cursor.origin(), cursor.pos()), (0, start));
        let r = cursor
            .fork()
            .try_run_window(&cfg.core, &records[start..start + LEN], opts.clone(), None)
            .expect("clean run");
        out[w] = render(&r.0);
    }
    (out, replayed)
}

fn each_trace(mut f: impl FnMut(&str, &VecTrace)) {
    for kind in SuiteKind::ALL {
        for &seed in &SEEDS {
            let trace = Suite::preset(kind).programs()[0].generate(TRACE_LEN, seed);
            f(&format!("{kind:?}/seed{seed}"), &trace);
        }
    }
}

#[test]
fn every_service_order_equals_a_fresh_warm_pass() {
    let cfg = SystemConfig::sparc64_v();
    each_trace(|label, trace| {
        let records = trace.records();
        let want: Vec<String> = STARTS.iter().map(|&s| fresh(&cfg, records, 0, s)).collect();
        for (name, opts) in option_sets() {
            let (ascending, replayed) = serve(&cfg, records, &[0, 1, 2, 3], &opts);
            assert_eq!(ascending, want, "{label}/{name}: ascending");
            assert_eq!(
                replayed,
                *STARTS.last().unwrap() as u64,
                "{label}: an ascending pass replays up to the last start, once"
            );
            let (shuffled, replayed) = serve(&cfg, records, &[2, 0, 3, 1], &opts);
            assert_eq!(shuffled, want, "{label}/{name}: shuffled");
            assert!(replayed > *STARTS.last().unwrap() as u64);
            // Twice from the same position: the first fork's timed run
            // must leave nothing behind in the cursor.
            let (twice, _) = serve(&cfg, records, &[1, 1, 3, 3], &opts);
            assert_eq!(twice[1], want[1], "{label}/{name}: repeated fork");
            assert_eq!(twice[3], want[3], "{label}/{name}: repeated fork");
        }
    });
}

/// A plan's windows, each executed on its own through `Run::window`, are
/// the definition: the reference the campaign's shared passes are
/// compared against (`s64v-harness`'s `shared_warm` suite).
#[test]
fn plans_and_lone_windows_equal_fresh_passes_full_and_bounded() {
    let cfg = SystemConfig::sparc64_v();
    let model = PerformanceModel::new(cfg.clone());
    each_trace(|label, trace| {
        let records = trace.records();
        // Full warming (every origin is record 0) and bounded warming
        // (every window has its own origin; nothing to share).
        for warmup in [TRACE_LEN, 1_000] {
            let plan = SamplePlan::new(2_500, LEN as u64, warmup as u64, 3);
            let windows: Vec<(usize, usize)> = plan
                .windows(TRACE_LEN as u64)
                .into_iter()
                .filter(|&(_, len)| len == LEN as u64)
                .map(|(start, _)| (start as usize, (start as usize).saturating_sub(warmup)))
                .collect();
            assert!(windows.len() >= 3, "{label}: plan too short to test");
            let want: Vec<String> = windows
                .iter()
                .map(|&(start, origin)| fresh(&cfg, records, origin, start))
                .collect();
            for (name, opts) in option_sets() {
                for (i, &(start, _)) in windows.iter().enumerate() {
                    let run = Run::of(trace).warm(warmup).window(start, LEN);
                    let (lone, _) = model.execute(run.options(opts.clone())).expect("clean run");
                    assert_eq!(
                        render(&lone),
                        want[i],
                        "{label}/{name}/warm{warmup}: window at {start}"
                    );
                }
            }
        }
    });
}

/// The cursor holds no core, and its memory state no table: one pass of
/// the base memory system, training the base's table and the small one
/// beside it, serves every configuration that shares the memory key —
/// core knobs, the other predictor, perfect prediction — and each copy
/// equals a machine of *that* configuration warmed afresh.
#[test]
fn one_pass_serves_every_core_configuration_with_its_warm_key() {
    let base = SystemConfig::sparc64_v();
    let mut perfect = base.clone();
    perfect.core.perfect_branch_prediction = true;
    let variants = [
        base.clone()
            .with_core(base.core.clone().with_issue_width(2)),
        base.clone().with_core(base.core.clone().with_unified_rs()),
        base.clone()
            .with_core(base.core.clone().without_speculative_dispatch()),
        base.clone().with_core(base.core.clone().with_small_bht()),
        perfect,
    ];
    let tables = [base.core.bht, base.core.clone().with_small_bht().bht];
    each_trace(|label, trace| {
        let records = trace.records();
        let mut cursor = WarmCursor::with_tables(&base, tables, 0);
        for &start in &STARTS {
            cursor.advance(&records[cursor.pos()..start]);
            for (v, cfg) in variants.iter().enumerate() {
                assert_eq!(memory_warm_key(cfg), memory_warm_key(&base));
                let table = predictor_warm_key(cfg);
                assert!(table.is_none_or(|t| tables.contains(&t)));
                for (name, opts) in option_sets() {
                    let r = cursor
                        .fork_for(&cfg.core)
                        .try_run_window(&cfg.core, &records[start..start + LEN], opts, None)
                        .expect("clean run");
                    assert_eq!(
                        render(&r.0),
                        fresh(cfg, records, 0, start),
                        "{label}/{name}: variant {v} at {start}"
                    );
                }
            }
        }
    });
}

#[test]
fn a_cursor_refuses_a_core_it_did_not_warm_for() {
    let trace = Suite::preset(SuiteKind::SpecInt95).programs()[0].generate(2_000, 1);
    let base = SystemConfig::sparc64_v();
    let mut cursor = cold(&base);
    cursor.advance(&trace.records()[..1_000]);
    let small_bht = base.core.clone().with_small_bht();
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cursor.try_run_window(
            &small_bht,
            &trace.records()[1_000..1_500],
            RunOptions::default(),
            None,
        )
    }));
    assert!(refused.is_err(), "another table's history must be refused");
}

/// A cursor fed its trace a chunk at a time — however the trace is cut —
/// is the cursor fed the whole slice at once, and both are the per-record
/// `Core::warm` loop: compared at every stop by what a machine forked
/// there goes on to measure.
#[test]
fn chunked_advance_equals_one_whole_slice_pass() {
    let cfg = SystemConfig::sparc64_v();
    each_trace(|label, trace| {
        let records = trace.records();
        let timed = |cursor: &WarmCursor| {
            let window = &records[cursor.pos()..cursor.pos() + LEN];
            let run = cursor
                .fork()
                .try_run_window(&cfg.core, window, RunOptions::default(), None);
            render(&run.expect("clean run").0)
        };
        let mut whole = cold(&cfg);
        let mut chunked = [1, 7, 4_096].map(|step| (step, cold(&cfg)));
        for &start in &STARTS {
            whole.advance(&records[whole.pos()..start]);
            let want = fresh(&cfg, records, 0, start);
            assert_eq!(timed(&whole), want, "{label}: whole slice to {start}");
            for (step, cursor) in &mut chunked {
                for chunk in records[cursor.pos()..start].chunks(*step) {
                    cursor.advance(chunk);
                }
                assert_eq!(cursor.pos(), start);
                assert_eq!(timed(cursor), want, "{label}: steps of {step} to {start}");
            }
        }
    });
}

/// `CoreMem::prefetched_lines` is a `RandomState` `HashSet`: two machines
/// that hold the same lines hold them in different bucket orders, so
/// fork-equals-fresh (and run-to-run determinism) hold only while the
/// set is used for membership and never iterated.
#[test]
fn the_prefetched_line_set_is_never_iterated() {
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../mem/src");
    let mut uses = 0;
    let mut stack = vec![src];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("s64v-mem sources") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("source file");
            for (n, line) in text.lines().enumerate() {
                for (at, _) in line.match_indices("prefetched_lines") {
                    let rest = &line[at + "prefetched_lines".len()..];
                    let allowed = [
                        ".insert(",
                        ".remove(",
                        ".contains(",
                        ": HashSet<u64>,",
                        ": HashSet::new(),",
                        "`",
                    ];
                    assert!(
                        allowed.iter().any(|a| rest.starts_with(a)),
                        "{}:{}: `prefetched_lines{rest}` — only insert/remove/contains are order-free",
                        path.display(),
                        n + 1
                    );
                    uses += 1;
                }
            }
        }
    }
    assert!(uses >= 5, "the scan found the field ({uses} uses)");
}
