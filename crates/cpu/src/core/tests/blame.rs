//! Cycle attribution: both taxonomies partition the run, land where the
//! workload says they should, and the one walk pairs them as specified.

use super::run_trace;
use crate::config::CoreConfig;
use crate::core::fetch::FetchedInstr;
use crate::rob::{Entry, COMPLETED, DISPATCHED, MEM_ISSUED, OFF_CHIP};
use crate::stats::{StallCause, StallCycles};
use crate::Core;
use s64v_isa::{Instr, MemWidth, OpClass, Reg, RegClass, RsKind};
use s64v_mem::{MemConfig, MemorySystem};
use s64v_observe::{CpiLeaf, CpiStack, MemBlame};
use s64v_trace::{TraceBuilder, TraceRecord, VecTrace};

fn stacked(trace: &VecTrace) -> StallCycles {
    run_trace(trace, CoreConfig::sparc64_v()).0.stall_cycles
}

#[test]
fn blame_covers_every_cycle() {
    let mut b = TraceBuilder::new(0x10_0000);
    for i in 0..500u64 {
        b.push(Instr::load(
            Reg::int(1),
            Reg::int(2),
            0x40_0000 + i * 128,
            MemWidth::B8,
        ));
        b.push(Instr::alu(OpClass::IntAlu, Reg::int(3), &[Reg::int(1)]));
    }
    let (stats, _) = run_trace(&b.finish(), CoreConfig::sparc64_v());
    let s = stats.stall_cycles;
    let total: u64 = [
        s.busy,
        s.l2_miss,
        s.l1_miss,
        s.execute,
        s.dispatch,
        s.frontend_branch,
        s.frontend_fetch,
    ]
    .iter()
    .map(|c| c.get())
    .sum();
    assert_eq!(
        total,
        stats.cycles.get(),
        "every cycle gets exactly one blame"
    );
}

#[test]
fn stall_blame_sums_to_total_cycles_on_mixed_workload() {
    // Satellite invariant: try_step records exactly one StallCause per
    // timed cycle, so the seven blame counters partition the run. Use
    // a deliberately mixed workload — integer ALU chains, long-latency
    // FP, cache-missing loads, stores, and conditional branches — so
    // every blame bucket is exercised in one run.
    let mut b = TraceBuilder::new(0x10_0000);
    let mut x = 3u64;
    for i in 0..300u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        b.push(Instr::load(
            Reg::int(1),
            Reg::int(2),
            (0x100_0000 + x % (64 << 20)) & !7,
            MemWidth::B8,
        ));
        b.push(Instr::alu(OpClass::IntAlu, Reg::int(3), &[Reg::int(1)]));
        b.push(Instr::alu(OpClass::FpDiv, Reg::fp(1), &[Reg::fp(1)]));
        b.push(Instr::store(
            Reg::int(3),
            Reg::int(2),
            0x80_0000 + (i % 64) * 8,
            MemWidth::B8,
        ));
        let fall_through = b.pc() + 4;
        b.push(Instr::branch_cond(i % 3 == 0, fall_through));
    }
    let (stats, cycles) = run_trace(&b.finish(), CoreConfig::sparc64_v());
    let s = stats.stall_cycles;
    let buckets = [
        s.busy,
        s.l2_miss,
        s.l1_miss,
        s.execute,
        s.dispatch,
        s.frontend_branch,
        s.frontend_fetch,
    ];
    let total: u64 = buckets.iter().map(|c| c.get()).sum();
    assert_eq!(cycles, stats.cycles.get(), "run reports its cycles");
    assert_eq!(
        total, cycles,
        "stall-cause attribution must partition the {cycles} timed cycles"
    );
    assert!(
        buckets.iter().filter(|c| c.get() > 0).count() >= 4,
        "mixed workload should spread blame across buckets, got {buckets:?}"
    );
}

#[test]
fn memory_bound_code_blames_memory() {
    // Dependent loads over a huge random footprint: L2-miss blame must
    // dominate.
    let mut b = TraceBuilder::new(0x10_0000);
    let mut x = 7u64;
    for _ in 0..400 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        b.push(Instr::load(
            Reg::int(1),
            Reg::int(2),
            (0x100_0000 + x % (256 << 20)) & !7,
            MemWidth::B8,
        ));
        b.push(Instr::alu(OpClass::IntAlu, Reg::int(3), &[Reg::int(1)]));
    }
    let s = stacked(&b.finish());
    assert!(
        s.l2_miss.get() > s.busy.get(),
        "cold random loads: L2-miss blame {} must dominate busy {}",
        s.l2_miss.get(),
        s.busy.get()
    );
}

#[test]
fn compute_bound_code_blames_execution() {
    let mut b = TraceBuilder::new(0x10_0000);
    for _ in 0..1000 {
        b.push(Instr::alu(OpClass::FpDiv, Reg::fp(1), &[Reg::fp(1)]));
    }
    let s = stacked(&b.finish());
    assert!(
        s.execute.get() > s.l2_miss.get() + s.l1_miss.get(),
        "serial divides blame execution"
    );
}

fn topdown(trace: &VecTrace) -> (CpiStack, u64) {
    let (stats, _) = run_trace(trace, CoreConfig::sparc64_v());
    (stats.cpi, stats.cycles.get())
}

#[test]
fn topdown_leaves_conserve_cycles_on_mixed_workload() {
    let mut b = TraceBuilder::new(0x10_0000);
    let mut x = 3u64;
    for i in 0..300u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        b.push(Instr::load(
            Reg::int(1),
            Reg::int(2),
            (0x100_0000 + x % (64 << 20)) & !7,
            MemWidth::B8,
        ));
        b.push(Instr::alu(OpClass::IntAlu, Reg::int(3), &[Reg::int(1)]));
        b.push(Instr::alu(OpClass::FpDiv, Reg::fp(1), &[Reg::fp(1)]));
        b.push(Instr::store(
            Reg::int(3),
            Reg::int(2),
            0x80_0000 + (i % 64) * 8,
            MemWidth::B8,
        ));
        let fall_through = b.pc() + 4;
        b.push(Instr::branch_cond(i % 3 == 0, fall_through));
    }
    let (cpi, cycles) = topdown(&b.finish());
    assert!(
        cpi.conserves(cycles),
        "leaves sum {} must equal cycles {cycles}: {cpi:?}",
        cpi.total()
    );
    assert!(cpi.get(CpiLeaf::Retire) > 0);
}

#[test]
fn topdown_blames_backend_memory_on_cold_random_loads() {
    use s64v_observe::CpiGroup;
    let mut b = TraceBuilder::new(0x10_0000);
    let mut x = 7u64;
    for _ in 0..400 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        b.push(Instr::load(
            Reg::int(1),
            Reg::int(2),
            (0x100_0000 + x % (256 << 20)) & !7,
            MemWidth::B8,
        ));
        b.push(Instr::alu(OpClass::IntAlu, Reg::int(3), &[Reg::int(1)]));
    }
    let (cpi, cycles) = topdown(&b.finish());
    assert!(cpi.conserves(cycles));
    let mem_cycles = cpi.group_total(CpiGroup::BackendMemory);
    assert!(
        mem_cycles > cycles / 2,
        "cold random loads must be majority backend-memory, got {mem_cycles}/{cycles}"
    );
    // The fills come from DRAM, and the recorded level says so.
    assert!(
        cpi.get(CpiLeaf::MemDram) > cpi.get(CpiLeaf::MemL2),
        "L2-missing loads blame DRAM over L2: {cpi:?}"
    );
}

#[test]
fn topdown_blames_backend_core_on_serial_divides() {
    use s64v_observe::CpiGroup;
    let mut b = TraceBuilder::new(0x10_0000);
    for _ in 0..1000 {
        b.push(Instr::alu(OpClass::FpDiv, Reg::fp(1), &[Reg::fp(1)]));
    }
    let (cpi, cycles) = topdown(&b.finish());
    assert!(cpi.conserves(cycles));
    assert!(
        cpi.group_total(CpiGroup::BackendCore) > cpi.group_total(CpiGroup::BackendMemory),
        "serial divides are a core problem: {cpi:?}"
    );
}

#[test]
fn topdown_blames_bad_speculation_on_mispredicted_branches() {
    use s64v_observe::CpiGroup;
    let mut b = TraceBuilder::new(0x10_0000);
    let mut x = 11u64;
    for _ in 0..600 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let fall_through = b.pc() + 4;
        b.push(Instr::branch_cond(x.is_multiple_of(2), fall_through));
        b.push(Instr::nop());
    }
    let (cpi, cycles) = topdown(&b.finish());
    assert!(cpi.conserves(cycles));
    assert!(
        cpi.group_total(CpiGroup::BadSpeculation) > 0,
        "random branches must charge bad speculation: {cpi:?}"
    );
}

#[test]
fn topdown_agrees_with_skipping_disabled() {
    // The same workload stepped cycle-by-cycle must attribute every
    // leaf identically to the skipping run (skip-stability of every
    // input of `blame`).
    let mut b = TraceBuilder::new(0x10_0000);
    let mut x = 5u64;
    for _ in 0..300 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        b.push(Instr::load(
            Reg::int(1),
            Reg::int(2),
            (0x100_0000 + x % (128 << 20)) & !7,
            MemWidth::B8,
        ));
        b.push(Instr::alu(
            OpClass::FpDiv,
            Reg::fp(1),
            &[Reg::fp(1), Reg::fp(2)],
        ));
    }
    let t = b.finish();
    let run = |skip: bool| {
        let mut mem = MemorySystem::new(MemConfig::sparc64_v(), 1);
        let mut core = Core::new(CoreConfig::sparc64_v(), 0);
        core.set_skip(skip);
        let mut stream = t.stream();
        core.try_run_from(&mut mem, &mut stream, 0)
            .expect("no wedge");
        core.stats().cpi
    };
    assert_eq!(run(true), run(false));
}

/// The cycle the poked head-of-window states below are read at.
const NOW: u64 = 10;

/// Makes `instr` the (only) window entry, shaped by `shape`.
fn with_head(core: &mut Core, instr: Instr, shape: impl FnOnce(&mut Entry)) {
    let mut entry = Entry::new(instr.op);
    shape(&mut entry);
    core.rob.push(entry, &TraceRecord::new(0x1000, instr));
}

/// Queues `instr` behind fetch, arriving at `ready_at`.
fn with_front(core: &mut Core, instr: Instr, ready_at: u64, l1_hit: bool, tlb_miss: bool) {
    core.front.queue.push_back(FetchedInstr {
        rec: TraceRecord::new(0x2000, instr),
        ready_at,
        mispredicted: false,
        fetch_l1_hit: l1_hit,
        fetch_tlb_miss: tlb_miss,
    });
}

fn alu() -> Instr {
    Instr::alu(OpClass::IntAlu, Reg::int(3), &[Reg::int(1)])
}

fn load() -> Instr {
    Instr::load(Reg::int(1), Reg::int(2), 0x40_0000, MemWidth::B8)
}

fn store() -> Instr {
    Instr::store(Reg::int(1), Reg::int(2), 0x40_0000, MemWidth::B8)
}

/// The specification of the single head-of-window walk: which
/// `(StallCause, CpiLeaf)` pair each head state earns. Neither column is a
/// function of the other, so the pairing is pinned here and not only in
/// the `cpi_stack.csv` / `cpi_topdown.csv` goldens.
#[test]
fn the_one_walk_pairs_cause_and_leaf_per_head_state() {
    use CpiLeaf::*;
    use StallCause::*;
    let base = CoreConfig::sparc64_v;
    let mut table: Vec<(String, Core, u32, (StallCause, CpiLeaf))> = Vec::new();
    let mut case = |name: &str, core: Core, committed: u32, want| {
        table.push((name.to_string(), core, committed, want));
    };

    // A commit outranks whatever is left in the window.
    let mut c = Core::new(base(), 0);
    with_head(&mut c, load(), |e| e.set(MEM_ISSUED, true));
    case("committed", c, 1, (Busy, Retire));

    // Empty window: stalled behind a mispredict, or starved by fetch.
    for wrong_path in [false, true] {
        let cfg = || {
            if wrong_path {
                base().with_wrong_path_fetch()
            } else {
                base()
            }
        };
        let mut c = Core::new(cfg(), 0);
        c.front.stalled = true;
        let leaf = if wrong_path {
            FrontendWrongPath
        } else {
            BadSpecBranchFlush
        };
        case(
            &format!("empty, stalled, wrong-path {wrong_path}"),
            c,
            0,
            (FrontendBranch, leaf),
        );
        case(
            &format!("empty, unstalled, wrong-path {wrong_path}"),
            Core::new(cfg(), 0),
            0,
            (FrontendFetch, FrontendDecodeStarve),
        );
    }
    for (name, ready_at, l1_hit, tlb_miss, leaf) in [
        ("ITLB miss", NOW + 5, false, true, FrontendITlb),
        ("I-cache miss", NOW + 5, false, false, FrontendICache),
        ("hit in flight", NOW + 1, true, false, FrontendDecodeStarve),
        ("arrived", NOW, false, true, FrontendDecodeStarve),
    ] {
        let mut c = Core::new(base(), 0);
        with_front(&mut c, alu(), ready_at, l1_hit, tlb_miss);
        case(&format!("empty, front {name}"), c, 0, (FrontendFetch, leaf));
    }

    // An issued load: the cause splits by fill level, the leaf by the
    // resource recorded at issue.
    for blame in [
        MemBlame::Mshr,
        MemBlame::Bus,
        MemBlame::Dram,
        MemBlame::L2,
        MemBlame::L1d,
    ] {
        for (l2_hit, cause) in [(true, L1Miss), (false, L2Miss)] {
            let mut c = Core::new(base(), 0);
            with_head(&mut c, load(), |e| {
                e.set(DISPATCHED | MEM_ISSUED, true);
                e.set(OFF_CHIP, !l2_hit);
                e.mem_blame = Some(blame);
            });
            case(
                &format!("load {blame:?}, l2_hit {l2_hit}"),
                c,
                0,
                (cause, blame.leaf()),
            );
        }
    }
    let mut c = Core::new(base(), 0);
    with_head(&mut c, load(), |e| e.set(DISPATCHED | MEM_ISSUED, true));
    case("store-forwarded load", c, 0, (L1Miss, MemL1d));

    // A head in the core.
    let mut c = Core::new(base(), 0);
    with_head(&mut c, alu(), |e| e.set(DISPATCHED, true));
    case("dispatched", c, 0, (Execute, CoreExecLatency));
    let mut c = Core::new(base(), 0);
    with_head(&mut c, load(), |e| e.set(DISPATCHED, true));
    case(
        "load generating its address",
        c,
        0,
        (Execute, CoreExecLatency),
    );
    let mut c = Core::new(base(), 0);
    with_head(&mut c, Instr::nop(), |e| e.set(COMPLETED, true));
    case("decode-completed nop", c, 0, (Dispatch, CoreExecLatency));
    let mut c = Core::new(base(), 0);
    with_head(&mut c, alu(), |e| e.replays = 1);
    case("replayed", c, 0, (Dispatch, BadSpecReplay));
    let mut c = Core::new(base(), 0);
    with_head(&mut c, alu(), |_| {});
    case("waiting, decode flowing", c, 0, (Dispatch, CoreExecLatency));
    let mut c = Core::new(base(), 0);
    with_head(&mut c, alu(), |_| {});
    while c.lsq.has_store_space() {
        c.lsq.alloc_store(99, 8);
    }
    with_front(&mut c, store(), NOW + 1, true, false);
    case(
        "waiting, blocked front not here yet",
        c,
        0,
        (Dispatch, CoreExecLatency),
    );

    // An undispatched head behind decode backpressure: the leaf names the
    // exhausted structure.
    let mut tiny_window = base();
    tiny_window.window_size = 1;
    let mut c = Core::new(tiny_window, 0);
    with_head(&mut c, alu(), |_| {});
    with_front(&mut c, alu(), NOW, true, false);
    case("window full", c, 0, (Dispatch, CoreRobFull));

    let mut c = Core::new(base(), 0);
    with_head(&mut c, alu(), |_| {});
    while c.rename_pool.allocate(RegClass::Int) {}
    with_front(&mut c, alu(), NOW, true, false);
    case("rename registers exhausted", c, 0, (Dispatch, CoreRobFull));

    let mut c = Core::new(base(), 0);
    with_head(&mut c, alu(), |_| {});
    let mut slots = 1..;
    while c
        .rs
        .try_insert(RsKind::Rse, slots.next().unwrap())
        .is_some()
    {}
    with_front(&mut c, alu(), NOW, true, false);
    case("reservation station full", c, 0, (Dispatch, CoreRsFull));

    let mut c = Core::new(base(), 0);
    with_head(&mut c, alu(), |_| {});
    while c.lsq.has_load_space() {
        c.lsq.alloc_load();
    }
    with_front(&mut c, load(), NOW, true, false);
    case("load queue full", c, 0, (Dispatch, MemMshr));

    let mut c = Core::new(base(), 0);
    with_head(&mut c, alu(), |_| {});
    while c.lsq.has_store_space() {
        c.lsq.alloc_store(99, 8);
    }
    with_front(&mut c, store(), NOW, true, false);
    case("store queue full", c, 0, (Dispatch, MemStoreBuffer));

    for (name, core, committed, want) in &table {
        assert_eq!(core.blame(*committed, NOW), *want, "{name}");
    }
}
