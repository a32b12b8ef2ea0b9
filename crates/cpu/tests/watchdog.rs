//! Regression tests for the pipeline deadlock watchdog.
//!
//! The watchdog must distinguish *starvation* (a legitimately slow memory
//! system keeping the window empty, e.g. a fill slower than the horizon)
//! from a *wedge* (an instruction in the window that can never complete).
//! An earlier bug tripped the watchdog on the former; these tests pin the
//! fixed behaviour from both sides.

use s64v_cpu::{Core, CoreConfig, CoreFault};
use s64v_isa::{Instr, MemWidth, Reg};
use s64v_mem::{MemConfig, MemorySystem};
use s64v_trace::TraceBuilder;

#[test]
fn slow_fill_with_an_empty_window_does_not_trip_the_watchdog() {
    // DRAM slower than the deadlock horizon: the cold I-fetch keeps the
    // window empty for more than a million cycles. That is starvation,
    // not a wedge — the run must complete normally.
    let mut cfg = MemConfig::sparc64_v();
    cfg.dram_latency = 1_500_000;
    let mut mem = MemorySystem::new(cfg, 1);
    let mut core = Core::new(CoreConfig::sparc64_v(), 0);

    let mut b = TraceBuilder::new(0x10_0000);
    for _ in 0..20 {
        b.push(Instr::nop());
    }
    let trace = b.finish();
    let mut stream = trace.stream();

    let cycles = core
        .try_run_from(&mut mem, &mut stream, 0)
        .expect("an empty window waiting on a slow fill is not a wedge");
    assert!(
        cycles > 1_000_000,
        "the fill must have outlasted the horizon (took {cycles} cycles)"
    );
    assert_eq!(core.stats().committed.get(), 20);
}

#[test]
fn a_genuinely_wedged_window_is_reported_with_a_snapshot() {
    // A core that can never commit: the load completes, but sits at the
    // window head forever, and the watchdog must report a structured
    // wedge instead of spinning.
    let mut mem = MemorySystem::new(MemConfig::sparc64_v(), 1);
    let mut cfg = CoreConfig::sparc64_v();
    cfg.commit_width = 0;
    let mut core = Core::new(cfg, 0);

    let mut b = TraceBuilder::new(0x10_0000);
    b.push(Instr::load(Reg::int(1), Reg::int(2), 0x8000, MemWidth::B8));
    for _ in 0..10 {
        b.push(Instr::nop());
    }
    let trace = b.finish();
    let mut stream = trace.stream();

    let err = core
        .try_run_from(&mut mem, &mut stream, 0)
        .expect_err("a core that cannot commit must wedge");
    let CoreFault::Wedged { horizon } = err.fault;
    assert!(horizon >= 1_000_000);
    assert_eq!(err.snapshot.core_id, 0);
    assert!(
        err.snapshot.rob_len > 0,
        "a true wedge has instructions in the window"
    );
    let msg = err.to_string();
    assert!(msg.contains("wedged at cycle"), "{msg}");
    assert!(msg.contains("window"), "{msg}");
}
