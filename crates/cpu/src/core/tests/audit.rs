//! The schedule audit against a corrupted wheel.

use super::Core;
use crate::config::CoreConfig;
use crate::wheel::Lane;
use s64v_isa::{Instr, OpClass, Reg};
use s64v_mem::{MemConfig, MemorySystem};
use s64v_trace::{TraceRecord, VecTrace};

#[test]
fn a_lost_event_breaks_the_schedule_invariant() {
    let mut mem = MemorySystem::new(MemConfig::sparc64_v(), 1);
    let mut core = Core::new(CoreConfig::sparc64_v(), 0);
    let trace: VecTrace = (0..40)
        .map(|i| {
            let op = Instr::alu(OpClass::IntMul, Reg::int(1), &[Reg::int(1)]);
            TraceRecord::new(0x1000 + i * 4, op)
        })
        .collect();
    let mut stream = trace.stream();
    // Step until something is executing, audited clean all the way.
    let mut now = 0;
    let slot = loop {
        core.try_step(&mut mem, &mut stream, now).unwrap();
        core.audit_schedule(now).expect("a clean run audits clean");
        now += 1;
        let slots = core.rob.capacity().next_power_of_two();
        if let Some(slot) = (0..slots).find(|&s| core.wheel.is_scheduled(Lane::Complete, s)) {
            break slot;
        }
    };
    core.wheel.lose(Lane::Complete, slot);
    core.try_step(&mut mem, &mut stream, now).unwrap();
    let err = core.audit_schedule(now).unwrap_err();
    assert!(err.contains("is lost"), "{err}");
    assert!(err.contains(&format!("slot {slot}")), "{err}");
}
