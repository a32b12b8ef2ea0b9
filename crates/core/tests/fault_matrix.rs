//! The fault matrix's fixed point: an unmutated checked run is
//! violation-free and times exactly like an unchecked one.
//! `scripts/mutate.sh` plants each fault of `specs/mutants/` in a copy of
//! the source and requires `unfaulted_checked_run_is_violation_free` to
//! fail there, naming the component the fault breaks.

use s64v_core::{Component, PerformanceModel, Run, RunOptions, SystemConfig};
use s64v_workloads::{smp_traces, suite::tpcc_program};

#[test]
fn unfaulted_checked_run_is_violation_free() {
    // SMP so coherence faults have remote copies to collide with; TPC-C so
    // the CPUs actually share lines.
    let traces = smp_traces(&tpcc_program(), 2, 6_000, 3);
    let model = PerformanceModel::new(SystemConfig::smp(2));
    let (checked, _) = model
        .execute(Run::new(&traces).options(RunOptions::checked()))
        .expect("no invariant fires without injected faults");
    let plain = model.run(Run::new(&traces));
    assert_eq!(
        plain.cycles, checked.cycles,
        "checked mode must not perturb timing"
    );
    assert_eq!(plain.committed, checked.committed);
}

#[test]
fn dropped_fill_is_caught_by_the_wedge_watchdog() {
    // A fill that does not arrive within the deadlock horizon is, to the
    // watchdog, a dropped one: the load waiting on it holds the window
    // head, nothing commits, and the run fails with the wedge.
    let mut config = SystemConfig::sparc64_v();
    config.mem.dram_latency = 3_000_000;
    let traces = smp_traces(&tpcc_program(), 1, 2_000, 3);
    let err = PerformanceModel::new(config)
        .execute(Run::new(&traces))
        .expect_err("must wedge");
    assert_eq!(err.component, Component::Pipeline);
    assert_eq!(err.core, Some(0));
    assert!(err.message.contains("wedged at cycle"), "{err}");
    let pipeline = err.pipeline.expect("wedge carries a pipeline snapshot");
    assert!(pipeline.rob_len > 0);
    assert!(err.memory.is_some(), "memory snapshot is attached");
}
