//! The observation sink: per-instruction timelines.

use crate::config::CoreConfig;
use crate::Core;
use s64v_isa::{Instr, MemWidth, OpClass, Reg};
use s64v_mem::{MemConfig, MemorySystem};
use s64v_trace::{TraceBuilder, VecTrace};

#[test]
fn timelines_are_recorded_and_consistent() {
    let mut b = TraceBuilder::new(0x10_0000);
    for i in 0..200u64 {
        b.push(Instr::load(
            Reg::int(1),
            Reg::int(2),
            0x40_0000 + (i % 32) * 8,
            MemWidth::B8,
        ));
        b.push(Instr::alu(OpClass::IntAlu, Reg::int(3), &[Reg::int(1)]));
        b.push(Instr::branch_cond(i % 4 != 0, b.pc() + 4));
    }
    let t = b.finish();
    let mut mem = MemorySystem::new(MemConfig::sparc64_v(), 1);
    let mut core = Core::new(CoreConfig::sparc64_v(), 0);
    core.enable_timeline(100);
    let mut stream = t.stream();
    core.try_run_from(&mut mem, &mut stream, 0)
        .expect("no wedge");

    let tl = core.timeline().expect("enabled");
    assert_eq!(tl.entries().len(), 100);
    for e in tl.entries() {
        assert!(e.committed_at.is_some(), "seq {} never committed", e.seq);
        assert!(e.completed_at.is_some(), "seq {} never completed", e.seq);
        assert!(
            e.is_consistent(),
            "seq {} has out-of-order stages: {e:?}",
            e.seq
        );
    }
    // Commit order is program order.
    let commits: Vec<u64> = tl
        .entries()
        .iter()
        .map(|e| e.committed_at.unwrap())
        .collect();
    assert!(
        commits.windows(2).all(|w| w[0] <= w[1]),
        "in-order retirement"
    );
}

#[test]
fn identical_runs_produce_identical_timelines() {
    let mut b = TraceBuilder::new(0x10_0000);
    for i in 0..150u64 {
        b.push(Instr::load(
            Reg::int(1),
            Reg::int(2),
            0x40_0000 + i * 512,
            MemWidth::B8,
        ));
        b.push(Instr::alu(OpClass::IntAlu, Reg::int(3), &[Reg::int(1)]));
    }
    let t = b.finish();
    let run = || {
        let mut mem = MemorySystem::new(MemConfig::sparc64_v(), 1);
        let mut core = Core::new(CoreConfig::sparc64_v(), 0);
        core.enable_timeline(300);
        let mut stream = t.stream();
        core.try_run_from(&mut mem, &mut stream, 0)
            .expect("no wedge");
        core.timeline().expect("enabled").clone()
    };
    assert_eq!(
        run().entries(),
        run().entries(),
        "determinism down to per-instruction stages"
    );
}

#[test]
fn replayed_loads_show_in_the_timeline() {
    let mut b = TraceBuilder::new(0x10_0000);
    let mut x = 0x123u64;
    for _ in 0..150 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let addr = (0x100_0000 + (x % (32 << 20))) & !7;
        b.push(Instr::load(Reg::int(1), Reg::int(2), addr, MemWidth::B8));
        b.push(Instr::alu(OpClass::IntAlu, Reg::int(3), &[Reg::int(1)]));
    }
    let t = b.finish();
    let mut mem = MemorySystem::new(MemConfig::sparc64_v(), 1);
    let mut core = Core::new(CoreConfig::sparc64_v(), 0);
    core.enable_timeline(300);
    let mut stream = t.stream();
    core.try_run_from(&mut mem, &mut stream, 0)
        .expect("no wedge");
    let replays: u32 = core
        .timeline()
        .unwrap()
        .entries()
        .iter()
        .map(|e| e.replays)
        .sum();
    assert!(
        replays > 0,
        "misses must cancel dependents in the timeline too"
    );
}

fn mixed_trace() -> VecTrace {
    let mut b = TraceBuilder::new(0x10_0000);
    let mut x = 0x9e37u64;
    for i in 0..120u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let addr = (0x100_0000 + x % (32 << 20)) & !7;
        b.push(Instr::load(Reg::int(1), Reg::int(2), addr, MemWidth::B8));
        b.push(Instr::alu(OpClass::IntAlu, Reg::int(3), &[Reg::int(1)]));
        b.push(Instr::branch_cond(i % 5 == 0, b.pc() + 4));
    }
    b.finish()
}

#[test]
fn recording_timelines_does_not_perturb_the_run() {
    let t = mixed_trace();
    let run = |record: bool| {
        let mut mem = MemorySystem::new(MemConfig::sparc64_v(), 1);
        let mut core = Core::new(CoreConfig::sparc64_v(), 0);
        if record {
            core.enable_timeline(1 << 20);
        }
        let mut stream = t.stream();
        let cycles = core
            .try_run_from(&mut mem, &mut stream, 0)
            .expect("no wedge");
        (cycles, core.stats().clone())
    };
    let (plain_cycles, plain_stats) = run(false);
    let (recorded_cycles, recorded_stats) = run(true);
    assert_eq!(plain_cycles, recorded_cycles, "cycle count must not move");
    assert_eq!(
        format!("{plain_stats:?}"),
        format!("{recorded_stats:?}"),
        "every counter must be identical with timelines recorded"
    );
}
