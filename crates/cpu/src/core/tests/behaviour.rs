//! What the pipeline does to whole traces: throughput limits, replays,
//! forwarding, bank conflicts, wrong-path fetch.

use super::{loop_trace, nops, run_trace};
use crate::config::CoreConfig;
use crate::Core;
use s64v_isa::{Instr, MemWidth, OpClass, Reg};
use s64v_mem::{MemConfig, MemorySystem};
use s64v_trace::TraceBuilder;

#[test]
fn commits_every_instruction_exactly_once() {
    let (stats, _) = run_trace(&nops(1000), CoreConfig::sparc64_v());
    assert_eq!(stats.committed.get(), 1000);
}

#[test]
fn independent_alu_ops_sustain_high_ipc() {
    // Four independent chains in a tight loop: decode width and the two
    // integer units are the limit once the I-cache is warm.
    let body: Vec<Instr> = (0..8u8)
        .map(|i| {
            Instr::alu(
                OpClass::IntAlu,
                Reg::int(1 + (i % 4)),
                &[Reg::int(1 + (i % 4))],
            )
        })
        .collect();
    let (stats, _) = run_trace(&loop_trace(&body, 500), CoreConfig::sparc64_v());
    assert_eq!(stats.committed.get(), 500 * 9);
    assert!(stats.ipc() > 1.2, "got IPC {}", stats.ipc());
}

#[test]
fn dependent_chain_is_serialized() {
    let mut b = TraceBuilder::new(0x10_0000);
    for _ in 0..2000 {
        b.push(Instr::alu(OpClass::IntAlu, Reg::int(1), &[Reg::int(1)]));
    }
    let (stats, _) = run_trace(&b.finish(), CoreConfig::sparc64_v());
    assert!(
        stats.ipc() < 1.2,
        "a serial chain cannot exceed 1 IPC, got {}",
        stats.ipc()
    );
}

#[test]
fn two_way_issue_is_slower_on_parallel_code() {
    // A mixed body (int, FP, loads) so decode width, not a single
    // execution-unit family, is the limiting resource.
    let mut body: Vec<Instr> = Vec::new();
    for i in 0..12u8 {
        body.push(Instr::alu(
            OpClass::IntAlu,
            Reg::int(1 + (i % 6)),
            &[Reg::int(1 + (i % 6))],
        ));
        body.push(Instr::alu(
            OpClass::FpAdd,
            Reg::fp(1 + (i % 6)),
            &[Reg::fp(1 + (i % 6))],
        ));
    }
    for i in 0..6u64 {
        body.push(Instr::load(
            Reg::int(10),
            Reg::int(11),
            0x40_0000 + i * 8,
            MemWidth::B8,
        ));
    }
    let t = loop_trace(&body, 500);
    let (wide, _) = run_trace(&t, CoreConfig::sparc64_v());
    let (narrow, _) = run_trace(&t, CoreConfig::sparc64_v().with_issue_width(2));
    assert!(
        wide.ipc() > narrow.ipc() * 1.1,
        "4-way {} vs 2-way {}",
        wide.ipc(),
        narrow.ipc()
    );
}

#[test]
fn loads_complete_and_release_the_queue() {
    let mut b = TraceBuilder::new(0x10_0000);
    for i in 0..200u64 {
        b.push(Instr::load(
            Reg::int(1),
            Reg::int(2),
            0x40_0000 + i * 8,
            MemWidth::B8,
        ));
    }
    let (stats, _) = run_trace(&b.finish(), CoreConfig::sparc64_v());
    assert_eq!(stats.committed.get(), 200);
}

#[test]
fn mispredicted_branches_cost_cycles() {
    // Alternating taken/not-taken branch at one site defeats a 2-bit
    // counter roughly half the time.
    let mut b = TraceBuilder::new(0x10_0000);
    for i in 0..1000 {
        b.push(Instr::alu(OpClass::IntAlu, Reg::int(1), &[Reg::int(2)]));
        let taken = i % 2 == 0;
        let target = b.pc() + 4; // branch to fall-through: control flow stays linear
        b.push(Instr::branch_cond(taken, target));
    }
    let t = b.finish();
    let (real, _) = run_trace(&t, CoreConfig::sparc64_v());
    let (perfect, _) = run_trace(&t, CoreConfig::sparc64_v().with_perfect_branch_prediction());
    assert!(
        real.mispredicts.get() > 100,
        "got {}",
        real.mispredicts.get()
    );
    assert_eq!(perfect.mispredicts.get(), 0);
    assert!(perfect.ipc() > real.ipc());
}

#[test]
fn speculative_dispatch_beats_conservative_on_hits() {
    // Warm, dependent load-use chains in a tiny footprint (all hits).
    let body: Vec<Instr> = (0..8u64)
        .flat_map(|i| {
            [
                Instr::load(Reg::int(1), Reg::int(2), 0x40_0000 + i * 8, MemWidth::B8),
                Instr::alu(OpClass::IntAlu, Reg::int(3), &[Reg::int(1)]),
            ]
        })
        .collect();
    let t = loop_trace(&body, 300);
    let (spec, _) = run_trace(&t, CoreConfig::sparc64_v());
    let (cons, _) = run_trace(&t, CoreConfig::sparc64_v().without_speculative_dispatch());
    assert!(
        spec.ipc() > cons.ipc(),
        "speculative {} must beat conservative {}",
        spec.ipc(),
        cons.ipc()
    );
}

#[test]
fn cache_misses_trigger_replays_under_speculative_dispatch() {
    let mut b = TraceBuilder::new(0x10_0000);
    // Strideless large-footprint dependent load-use pairs: many misses.
    let mut addr = 0x100_0000u64;
    for _ in 0..500 {
        addr = addr
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let a = 0x100_0000 + (addr % (64 << 20));
        b.push(Instr::load(Reg::int(1), Reg::int(2), a & !7, MemWidth::B8));
        b.push(Instr::alu(OpClass::IntAlu, Reg::int(3), &[Reg::int(1)]));
        b.push(Instr::alu(OpClass::IntAlu, Reg::int(4), &[Reg::int(3)]));
    }
    let (stats, _) = run_trace(&b.finish(), CoreConfig::sparc64_v());
    assert!(
        stats.replays.get() > 0,
        "misses must cancel speculative dependents"
    );
}

#[test]
fn store_to_load_forwarding_happens() {
    let mut b = TraceBuilder::new(0x10_0000);
    for i in 0..200u64 {
        let addr = 0x40_0000 + (i % 4) * 8;
        b.push(Instr::alu(OpClass::IntAlu, Reg::int(1), &[Reg::int(2)]));
        b.push(Instr::store(Reg::int(1), Reg::int(2), addr, MemWidth::B8));
        b.push(Instr::load(Reg::int(3), Reg::int(2), addr, MemWidth::B8));
    }
    let (stats, _) = run_trace(&b.finish(), CoreConfig::sparc64_v());
    assert_eq!(stats.committed.get(), 600);
    assert!(stats.store_forwards.get() > 0);
}

#[test]
fn bank_conflicts_are_detected() {
    let mut b = TraceBuilder::new(0x10_0000);
    // Pairs of independent loads to the same bank (same addr mod 32).
    for i in 0..500u64 {
        b.push(Instr::load(
            Reg::int(1),
            Reg::int(9),
            0x40_0000 + i * 64,
            MemWidth::B4,
        ));
        b.push(Instr::load(
            Reg::int(2),
            Reg::int(9),
            0x48_0000 + i * 64,
            MemWidth::B4,
        ));
    }
    let (stats, _) = run_trace(&b.finish(), CoreConfig::sparc64_v());
    assert!(
        stats.bank_conflicts.get() > 0,
        "same-bank pairs must conflict"
    );
}

#[test]
fn determinism_same_trace_same_cycles() {
    let mut b = TraceBuilder::new(0x10_0000);
    for i in 0..500u64 {
        b.push(Instr::load(
            Reg::int(1),
            Reg::int(2),
            0x40_0000 + i * 16,
            MemWidth::B8,
        ));
        b.push(Instr::alu(OpClass::IntAlu, Reg::int(3), &[Reg::int(1)]));
        b.push(Instr::branch_cond(i % 3 == 0, b.pc() + 4));
    }
    let t = b.finish();
    let (_, c1) = run_trace(&t, CoreConfig::sparc64_v());
    let (_, c2) = run_trace(&t, CoreConfig::sparc64_v());
    assert_eq!(c1, c2);
}

#[test]
fn unified_rs_is_at_least_as_fast() {
    let body: Vec<Instr> = (0..10u8)
        .map(|i| {
            Instr::alu(
                OpClass::IntAlu,
                Reg::int(1 + (i % 6)),
                &[Reg::int(1 + (i % 6))],
            )
        })
        .collect();
    let t = loop_trace(&body, 400);
    let (split, _) = run_trace(&t, CoreConfig::sparc64_v());
    let (unified, _) = run_trace(&t, CoreConfig::sparc64_v().with_unified_rs());
    assert!(
        unified.ipc() >= split.ipc() * 0.999,
        "unified {} vs split {}",
        unified.ipc(),
        split.ipc()
    );
}

#[test]
fn wrong_path_fetch_pollutes_but_commits_identically() {
    let mut b = TraceBuilder::new(0x10_0000);
    for i in 0..600 {
        b.push(Instr::branch_cond(i % 2 == 0, b.pc() + 4));
        b.push(Instr::nop());
    }
    let t = b.finish();
    let run = |cfg: CoreConfig| {
        let mut mem = MemorySystem::new(MemConfig::sparc64_v(), 1);
        let mut core = Core::new(cfg, 0);
        let mut stream = t.stream();
        core.try_run_from(&mut mem, &mut stream, 0)
            .expect("no wedge");
        (core.stats().clone(), mem.stats(0).l1i.accesses.get())
    };
    let (base, base_l1i) = run(CoreConfig::sparc64_v());
    let (wp, wp_l1i) = run(CoreConfig::sparc64_v().with_wrong_path_fetch());
    assert_eq!(base.committed.get(), wp.committed.get());
    assert_eq!(base.wrong_path_fetches.get(), 0);
    assert!(
        wp.wrong_path_fetches.get() > 100,
        "mispredicts must fetch wrong paths"
    );
    assert!(wp_l1i > base_l1i, "wrong-path fetches hit the I-cache");
}
