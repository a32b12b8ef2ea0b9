//! The fault-injection matrix: every corruption class the injector can
//! introduce must be caught by at least one checked-mode invariant, and an
//! unfaulted checked run must be violation-free.

use s64v_core::{
    config_fingerprint, Component, FaultClass, FaultPlan, PerformanceModel, Run, RunOptions,
    RunResult, SimError, SystemConfig,
};
use s64v_trace::VecTrace;
use s64v_workloads::{smp_traces, suite::tpcc_program};

fn setup() -> (PerformanceModel, Vec<VecTrace>) {
    // SMP so coherence faults have remote copies to collide with; TPC-C so
    // the CPUs actually share lines.
    let traces = smp_traces(&tpcc_program(), 2, 6_000, 3);
    (PerformanceModel::new(SystemConfig::smp(2)), traces)
}

fn execute(
    model: &PerformanceModel,
    traces: &[VecTrace],
    opts: RunOptions,
) -> Result<RunResult, SimError> {
    model
        .execute(Run::new(traces).options(opts))
        .map(|(result, _)| result)
}

fn run_with(class: FaultClass, cycle: u64) -> Result<RunResult, SimError> {
    let (model, traces) = setup();
    let plan = FaultPlan::at(class, 0, cycle);
    execute(&model, &traces, RunOptions::checked_with_fault(plan))
}

#[test]
fn unfaulted_checked_run_is_violation_free() {
    let (model, traces) = setup();
    let checked = execute(&model, &traces, RunOptions::checked())
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
    let err = run_with(FaultClass::DropFill, 50).expect_err("must wedge");
    assert_eq!(err.component, Component::Pipeline);
    assert_eq!(err.core, Some(0));
    let pipeline = err.pipeline.expect("wedge carries a pipeline snapshot");
    assert!(pipeline.rob_len > 0);
    assert!(err.memory.is_some(), "memory snapshot is attached");
}

#[test]
fn corrupted_tag_is_caught_by_the_mesi_sweep() {
    let err = run_with(FaultClass::CorruptTag, 200).expect_err("must violate MESI");
    assert_eq!(err.component, Component::Coherence);
    assert!(err.message.contains("MESI"), "{err}");
}

#[test]
fn lost_bus_grant_is_caught_by_credit_conservation() {
    let err = run_with(FaultClass::LoseBusGrant, 300).expect_err("must break bus credit");
    assert_eq!(err.component, Component::Bus);
    assert_eq!(err.cycle, 300, "caught the cycle it was injected");
}

#[test]
fn stalled_rs_slots_are_caught_by_the_occupancy_invariant() {
    let err = run_with(FaultClass::StallRsSlot, 400).expect_err("must overflow the station");
    assert_eq!(err.component, Component::ReservationStation);
    assert_eq!(err.cycle, 400);
}

#[test]
fn overcommitted_mshrs_are_caught_by_the_credit_check() {
    let err = run_with(FaultClass::OvercommitMshr, 500).expect_err("must exceed MSHR capacity");
    assert_eq!(err.component, Component::Mshr);
    assert_eq!(err.cycle, 500);
}

#[test]
fn rewound_commit_counter_is_caught_by_monotonicity() {
    let err = run_with(FaultClass::RewindCommit, 2_000).expect_err("must move backwards");
    assert_eq!(err.component, Component::Commit);
    assert_eq!(err.cycle, 2_000);
    assert!(err.message.contains("backwards"), "{err}");
}

#[test]
fn a_lost_event_is_caught_by_the_schedule_audit_the_cycle_it_is_lost() {
    // Not by the wedge watchdog a million cycles later: the audit finds
    // the entry whose completion is stamped but no longer on the wheel.
    let err = run_with(FaultClass::LoseEvent, 700).expect_err("must break the schedule");
    assert_eq!(err.component, Component::Schedule);
    assert_eq!(err.core, Some(0));
    assert_eq!(err.cycle, 700, "caught the cycle it was injected");
    assert!(err.message.contains("is lost"), "{err}");
}

#[test]
fn seeded_plans_reproduce_the_same_failure() {
    let (model, traces) = setup();
    let fp = config_fingerprint(model.config());
    let run = |seed| {
        let plan = FaultPlan::seeded(FaultClass::RewindCommit, 0, seed, fp, 1_000, 4_000);
        execute(&model, &traces, RunOptions::checked_with_fault(plan))
            .expect_err("rewind is always detected")
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.cycle, b.cycle, "same seed, same faulting cycle");
    assert_eq!(a.component, b.component);
    let c = run(8);
    assert_ne!(a.cycle, c.cycle, "a different seed lands elsewhere");
}

#[test]
fn every_fault_class_is_detected() {
    for class in FaultClass::ALL {
        assert!(
            run_with(class, 600).is_err(),
            "fault class {class} escaped the auditor"
        );
    }
}
