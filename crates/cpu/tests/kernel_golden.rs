//! Directed kernel microtraces with pinned statistics.
//!
//! Each trace is tens to a few hundred records aimed at one mechanism of
//! the detailed kernel — the replay cascade, store-to-load forwarding,
//! queue and station exhaustion, port arbitration — so a scheduling change
//! that the suite-sized goldens average away moves a number here. The
//! timed records are preceded by a functional warm-up over the same code
//! and the same hot data (the scattered, deliberately missing addresses
//! left out), so what is timed is the mechanism and not a cold start. Every
//! trace runs three ways: `Core::try_run_from` sleeping through quiescent
//! stretches, the model's loop stepping every cycle, and checked mode.
//! All three must agree on every statistic, and the statistics must equal
//! `specs/kernel_microtraces.golden.json` byte for byte.
//!
//! After an intentional timing change: `sh scripts/rebaseline.sh`, and
//! explain the diff.

use s64v_core::{PerformanceModel, Run, RunOptions, SystemConfig};
use s64v_cpu::{Core, CoreConfig, CoreStats};
use s64v_isa::{Instr, MemWidth, OpClass, Reg};
use s64v_mem::{MemConfig, MemorySystem};
use s64v_observe::json::Value;
use s64v_trace::{SliceStream, TraceBuilder, TraceRecord, VecTrace};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../specs/kernel_microtraces.golden.json"
);

const CODE: u64 = 0x10_0000;
/// Hot data: warmed, so timed accesses to it hit.
const DATA: u64 = 0x40_0000;
/// Scattered data starts here and is never warmed.
const COLD: u64 = 0x100_0000;

fn int(n: u8) -> Reg {
    Reg::int(n)
}

fn alu(dest: u8, srcs: &[u8]) -> Instr {
    let srcs: Vec<Reg> = srcs.iter().map(|&r| int(r)).collect();
    Instr::alu(OpClass::IntAlu, int(dest), &srcs)
}

fn load(dest: u8, base: u8, addr: u64) -> Instr {
    Instr::load(int(dest), int(base), addr, MemWidth::B8)
}

fn store(data: u8, base: u8, addr: u64) -> Instr {
    Instr::store(int(data), int(base), addr, MemWidth::B8)
}

/// `iters` copies of `body`, each closed by a branch back to the top, so
/// the code is I-cache resident after the first pass.
fn looped(body: &[Instr], iters: usize) -> VecTrace {
    let mut b = TraceBuilder::new(CODE);
    for _ in 0..iters {
        for i in body {
            b.push(*i);
        }
        b.push(Instr::branch_uncond(CODE));
    }
    b.finish()
}

fn straight(instrs: impl IntoIterator<Item = Instr>) -> VecTrace {
    let mut b = TraceBuilder::new(CODE);
    for i in instrs {
        b.push(i);
    }
    b.finish()
}

/// A deterministic scatter of line-aligned addresses over `span` bytes.
fn scatter(n: usize, span: u64) -> Vec<u64> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            COLD + (((x >> 16) % span) & !63)
        })
        .collect()
}

fn independent_flood() -> VecTrace {
    let body: Vec<Instr> = (0..16u8).map(|i| alu(1 + i % 8, &[1 + i % 8])).collect();
    looped(&body, 20)
}

/// Loads whose address register is the previous load's result, each
/// feeding a short ALU chain: every L1 miss cancels what dispatched on
/// its hit prediction, and the cancelled consumers cancel theirs.
fn pointer_chase() -> VecTrace {
    let mut b = TraceBuilder::new(CODE);
    for addr in scatter(48, 64 << 20) {
        b.push(load(1, 1, addr));
        b.push(alu(3, &[1]));
        b.push(alu(4, &[3]));
        b.push(alu(5, &[4, 3]));
    }
    b.finish()
}

/// Store-to-load forwarding against a covering store, a partially
/// overlapping one, one whose data hangs off a divide (untimed when the
/// load issues), and a younger store the load must ignore.
fn store_forwarding() -> VecTrace {
    let mut b = TraceBuilder::new(CODE);
    for i in 0..24u64 {
        let a = DATA + (i % 6) * 64;
        b.push(alu(1, &[2]));
        b.push(store(1, 9, a));
        b.push(load(3, 9, a)); // covered
        b.push(Instr::store(int(1), int(9), a + 4, MemWidth::B4));
        b.push(load(4, 9, a)); // the 4-byte store overlaps partially
        b.push(Instr::alu(OpClass::IntDiv, int(6), &[int(6)]));
        b.push(store(6, 9, a + 16)); // data waits for the divide
        b.push(load(7, 9, a + 16)); // covering store, data not timed yet
        b.push(alu(8, &[3, 4]));
        b.push(store(8, 9, a + 32));
    }
    b.finish()
}

fn mispredict_storm() -> VecTrace {
    let mut b = TraceBuilder::new(CODE);
    let mut x = 11u64;
    for _ in 0..120 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        b.push(alu(1, &[1]));
        let fall_through = b.pc() + 4;
        b.push(Instr::branch_cond((x >> 33) & 1 == 0, fall_through));
        b.push(Instr::nop());
    }
    b.finish()
}

/// Independent loads to distinct lines, far more than the L1D has MSHRs.
fn mshr_saturation() -> VecTrace {
    straight(
        scatter(96, 256 << 20)
            .into_iter()
            .enumerate()
            .map(|(i, a)| load(1 + (i % 8) as u8, 9, a)),
    )
}

/// A missing load at the head with a run of hitting loads behind it: the
/// sixteen-entry load queue fills while the head waits.
fn load_queue_full() -> VecTrace {
    let mut b = TraceBuilder::new(CODE);
    for (i, miss) in scatter(6, 256 << 20).into_iter().enumerate() {
        b.push(load(1, 9, miss));
        for j in 0..28u64 {
            b.push(load(2 + (j % 6) as u8, 9, DATA + (i as u64 * 32 + j) * 8));
        }
    }
    b.finish()
}

/// A burst of stores to distinct pages: each drain holds its queue entry
/// until the line arrives.
fn store_queue_full() -> VecTrace {
    straight((0..80u64).map(|i| store(1, 9, DATA + i * 8192)))
}

fn same_bank_pairs() -> VecTrace {
    let mut b = TraceBuilder::new(CODE);
    for i in 0..60u64 {
        b.push(Instr::load(int(1), int(9), DATA + i * 64, MemWidth::B4));
        b.push(Instr::load(
            int(2),
            int(9),
            DATA + 0x8_0000 + i * 64,
            MemWidth::B4,
        ));
        b.push(alu(3, &[1, 2]));
    }
    b.finish()
}

/// Every station kind under pressure at once, with replays: integer and
/// floating-point chains, missing loads with consumers, stores, branches.
fn mixed_pressure() -> VecTrace {
    let mut b = TraceBuilder::new(CODE);
    for (i, addr) in scatter(40, 32 << 20).into_iter().enumerate() {
        let i = i as u64;
        b.push(load(1, 9, addr));
        b.push(alu(2, &[1]));
        b.push(alu(3, &[2]));
        b.push(Instr::alu(
            OpClass::FpMulAdd,
            Reg::fp(1),
            &[Reg::fp(1), Reg::fp(2)],
        ));
        b.push(Instr::alu(OpClass::FpAdd, Reg::fp(3), &[Reg::fp(1)]));
        b.push(alu(4, &[4]));
        b.push(alu(5, &[5, 3]));
        b.push(store(3, 9, DATA + (i % 16) * 8));
        b.push(load(6, 9, DATA + (i % 16) * 8));
        if i.is_multiple_of(5) {
            b.push(Instr::alu(OpClass::FpDiv, Reg::fp(4), &[Reg::fp(4)]));
            b.push(Instr::alu(OpClass::IntMul, int(7), &[int(6)]));
        }
        let fall_through = b.pc() + 4;
        b.push(Instr::branch_cond(i.is_multiple_of(3), fall_through));
    }
    b.finish()
}

/// Hitting load → use → store chains, with two misses in the whole run:
/// what speculative dispatch and forwarding buy shows in the cycle count.
fn load_use_chain() -> VecTrace {
    let mut body = Vec::new();
    for i in 0..8u64 {
        body.push(load(1, 9, DATA + i * 8));
        body.push(alu(3, &[1]));
        body.push(alu(4, &[3, 1]));
        body.push(store(4, 9, DATA + 0x1000 + i * 8));
    }
    let mut b = TraceBuilder::new(CODE);
    let misses = scatter(2, 64 << 20);
    for iter in 0..10 {
        for i in &body {
            b.push(*i);
        }
        if iter % 5 == 2 {
            b.push(load(1, 9, misses[iter / 5]));
            b.push(alu(5, &[1]));
        }
    }
    b.finish()
}

fn small_stations() -> CoreConfig {
    let mut cfg = CoreConfig::sparc64_v();
    cfg.rse_entries = 4;
    cfg.rsf_entries = 4;
    cfg.rsa_entries = 4;
    cfg.rsbr_entries = 4;
    cfg
}

fn with_window(entries: u32) -> CoreConfig {
    let mut cfg = CoreConfig::sparc64_v();
    cfg.window_size = entries;
    cfg
}

fn cases() -> Vec<(&'static str, CoreConfig, VecTrace)> {
    let base = CoreConfig::sparc64_v;
    vec![
        (
            "dependent_alu_chain",
            base(),
            straight((0..200).map(|_| alu(1, &[1]))),
        ),
        ("independent_alu_flood_split", base(), independent_flood()),
        (
            "independent_alu_flood_unified",
            base().with_unified_rs(),
            independent_flood(),
        ),
        ("pointer_chase", base(), pointer_chase()),
        ("store_forwarding", base(), store_forwarding()),
        ("mispredict_storm", base(), mispredict_storm()),
        (
            "mispredict_storm_wrong_path",
            base().with_wrong_path_fetch(),
            mispredict_storm(),
        ),
        ("mshr_saturation", base(), mshr_saturation()),
        ("load_queue_full", base(), load_queue_full()),
        ("store_queue_full", base(), store_queue_full()),
        ("same_bank_load_pairs", base(), same_bank_pairs()),
        ("four_entry_stations", small_stations(), mixed_pressure()),
        (
            "four_entry_stations_unified",
            small_stations().with_unified_rs(),
            mixed_pressure(),
        ),
        ("mixed_pressure", base(), mixed_pressure()),
        (
            "mixed_pressure_two_way",
            base().with_issue_width(2),
            mixed_pressure(),
        ),
        (
            "mixed_pressure_window_96",
            with_window(96),
            mixed_pressure(),
        ),
        ("mixed_pressure_window_5", with_window(5), mixed_pressure()),
        ("load_use_chain", base(), load_use_chain()),
        (
            "no_speculative_dispatch",
            base().without_speculative_dispatch(),
            load_use_chain(),
        ),
        (
            "no_data_forwarding",
            base().without_data_forwarding(),
            load_use_chain(),
        ),
        (
            "no_speculation_no_forwarding",
            base()
                .without_speculative_dispatch()
                .without_data_forwarding(),
            load_use_chain(),
        ),
        ("nop_run", base(), straight((0..150).map(|_| Instr::nop()))),
    ]
}

/// `body` preceded by its own warm-up: the same records with every access
/// to the scattered region turned into a nop at the same address and every
/// conditional branch going the other way (so the predictor is trained,
/// and wrong).
fn with_warm_up(body: &VecTrace) -> VecTrace {
    let warm = body.records().iter().map(|rec| {
        let mut instr = rec.instr;
        if instr.mem.is_some_and(|m| m.addr >= COLD) {
            instr = Instr::nop();
        }
        if instr.op == OpClass::BranchCond {
            let b = instr.branch.expect("a conditional branch has an outcome");
            instr = Instr::branch_cond(!b.taken, b.target);
        }
        TraceRecord::new(rec.pc, instr)
    });
    VecTrace::from_records(warm.chain(body.records().iter().copied()).collect())
}

/// The three ways a trace is run; all must produce the same statistics.
fn run_all_ways(name: &str, cfg: &CoreConfig, body: &VecTrace) -> (u64, CoreStats) {
    let trace = &with_warm_up(body);
    let (warm, timed) = trace.records().split_at(body.len());
    let mut mem = MemorySystem::new(MemConfig::sparc64_v(), 1);
    let mut core = Core::new(cfg.clone(), 0);
    for rec in warm {
        core.warm(&mut mem, rec);
    }
    let cycles = core
        .try_run_from(&mut mem, &mut SliceStream::new(timed), 0)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let stats = core.stats().clone();

    let model = PerformanceModel::new(SystemConfig::sparc64_v().with_core(cfg.clone()));
    let no_skip = RunOptions {
        no_skip: true,
        ..RunOptions::default()
    };
    for (how, opts) in [("no_skip", no_skip), ("checked", RunOptions::checked())] {
        let (r, _) = model
            .execute(Run::of(trace).warm(body.len()).options(opts))
            .unwrap_or_else(|e| panic!("{name} {how}: {e}"));
        assert_eq!(r.cycles, cycles, "{name}: {how} cycle count");
        assert_eq!(
            format!("{:?}", r.core_stats[0]),
            format!("{stats:?}"),
            "{name}: {how} statistics differ from the sleeping run"
        );
    }
    (cycles, stats)
}

fn histogram(h: &s64v_stats::Histogram, max: u32) -> Value {
    let mut counts: Vec<Value> = (0..=max as u64).map(|v| h.count(v).into()).collect();
    counts.push(h.overflow().into());
    counts.into()
}

fn pinned(name: &str, cfg: &CoreConfig, trace: &VecTrace) -> Value {
    let (cycles, s) = run_all_ways(name, cfg, trace);
    let counters = |cs: &[s64v_stats::Counter]| -> Value {
        cs.iter()
            .map(|c| Value::from(c.get()))
            .collect::<Vec<_>>()
            .into()
    };
    let sc = &s.stall_cycles;
    Value::obj()
        .field("name", name)
        .field("records", trace.len())
        .field("cycles", cycles)
        .field("committed", s.committed.get())
        .field("replays", s.replays.get())
        .field("store_forwards", s.store_forwards.get())
        .field("bank_conflicts", s.bank_conflicts.get())
        .field("cond_branches", s.cond_branches.get())
        .field("mispredicts", s.mispredicts.get())
        .field("fetch_groups", s.fetch_groups.get())
        .field("wrong_path_fetches", s.wrong_path_fetches.get())
        .field(
            "decode_stalls",
            counters(&[
                s.stall_window,
                s.stall_rename,
                s.stall_rs,
                s.stall_lq,
                s.stall_sq,
            ]),
        )
        .field(
            "stall_cycles",
            counters(&[
                sc.busy,
                sc.l2_miss,
                sc.l1_miss,
                sc.execute,
                sc.dispatch,
                sc.frontend_branch,
                sc.frontend_fetch,
            ]),
        )
        .field(
            "cpi_leaves",
            s.cpi
                .cells
                .iter()
                .map(|&c| Value::from(c))
                .collect::<Vec<_>>(),
        )
        .field(
            "window_occupancy",
            histogram(&s.window_occupancy, cfg.window_size),
        )
        .field("lq_occupancy", histogram(&s.lq_occupancy, cfg.load_queue))
        .field("sq_occupancy", histogram(&s.sq_occupancy, cfg.store_queue))
}

/// One compact JSON object per trace, one per line.
fn render() -> String {
    let lines: Vec<String> = cases()
        .iter()
        .map(|(name, cfg, trace)| pinned(name, cfg, trace).to_string())
        .collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

#[test]
fn microtraces_match_the_golden() {
    let golden = std::fs::read_to_string(GOLDEN).expect("the golden file is committed");
    let now = render();
    for (want, got) in golden.lines().zip(now.lines()) {
        assert_eq!(got, want, "a pinned microtrace moved");
    }
    assert_eq!(now, golden);
}

/// The traces exercise what they are named for (checked against the
/// golden's own numbers, so a trace that stops reaching its mechanism is
/// noticed when the file is regenerated).
#[test]
fn microtraces_reach_their_mechanisms() {
    let golden = std::fs::read_to_string(GOLDEN).expect("the golden file is committed");
    let golden = Value::parse(&golden).expect("valid JSON");
    let get = |name: &str, field: &str| -> Vec<i64> {
        let case = golden
            .as_array()
            .expect("an array")
            .iter()
            .find(|c| c.get("name").and_then(Value::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no case {name}"));
        match case.get(field).expect("field") {
            Value::Arr(items) => items.iter().map(|v| v.as_i64().expect("int")).collect(),
            v => vec![v.as_i64().expect("int")],
        }
    };
    assert!(get("pointer_chase", "replays")[0] > 40);
    assert!(get("store_forwarding", "store_forwards")[0] > 20);
    assert!(get("mispredict_storm", "mispredicts")[0] > 20);
    assert!(get("mispredict_storm_wrong_path", "wrong_path_fetches")[0] > 20);
    assert!(get("load_queue_full", "decode_stalls")[3] > 0);
    assert!(get("store_queue_full", "decode_stalls")[4] > 0);
    assert!(get("same_bank_load_pairs", "bank_conflicts")[0] > 20);
    assert!(get("four_entry_stations", "decode_stalls")[2] > 0);
    assert!(get("four_entry_stations", "replays")[0] > 0);
    assert!(get("mixed_pressure_window_5", "decode_stalls")[0] > 0);
    assert!(get("mshr_saturation", "cpi_leaves")[13] > 1000, "MemMshr");
    let chain = |name| get(name, "cycles")[0];
    assert!(chain("no_speculative_dispatch") > chain("load_use_chain"));
    assert!(chain("no_data_forwarding") > chain("load_use_chain"));
    assert!(chain("no_speculation_no_forwarding") > chain("no_speculative_dispatch"));
    for (name, _, trace) in cases() {
        assert_eq!(get(name, "committed")[0], trace.len() as i64, "{name}");
    }
}

#[test]
#[ignore = "rewrites specs/kernel_microtraces.golden.json"]
fn regenerate() {
    std::fs::write(GOLDEN, render()).expect("writing the golden file");
}
