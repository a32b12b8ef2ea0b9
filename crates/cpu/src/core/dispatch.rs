//! Dispatch: reservation stations select ready entries, oldest first, and
//! start them on an execution unit.

use super::quiesce::Wake;
use super::writeback::producers_settled;
use super::Core;
use crate::config::CoreConfig;
use crate::rob::{InstrState, Rob};
use s64v_isa::{OpClass, RsKind};

/// The cycle an `op` dispatched at `dispatched_at` finishes executing (for
/// loads and stores: finishes generating its address).
pub(super) fn exec_done_at(cfg: &CoreConfig, dispatched_at: u64, op: OpClass) -> u64 {
    dispatched_at + 1 + cfg.latencies.get(op) as u64
}

/// The first cycle `entry` can dispatch as far as its register operands
/// go, or `None` while an in-flight producer has no usable result time —
/// it has not dispatched itself, or its result is a hit prediction this
/// configuration does not dispatch on.
fn operands_ready_at(rob: &Rob, cfg: &CoreConfig, entry: &InstrState) -> Option<u64> {
    let forwarding_penalty = if cfg.data_forwarding { 0 } else { 2 };
    let mut ready = 0;
    for &p in &entry.producers {
        // A producer that left the window committed: its value is in the
        // register file.
        if let Some(pe) = rob.get(p) {
            let at = pe.result_at?;
            if pe.result_speculative && !cfg.speculative_dispatch {
                return None;
            }
            // Dispatch runs two stages ahead of the execute stage that
            // consumes the value.
            ready = ready.max((at + forwarding_penalty).saturating_sub(2));
        }
    }
    Some(ready)
}

impl Core {
    pub(super) fn dispatch(&mut self, now: u64) -> bool {
        let mut acted = false;
        for kind in RsKind::ALL {
            if self.rs.occupancy(kind) == 0 {
                // Nothing waiting (stuck fault slots never dispatch):
                // selection would scan and pick nothing.
                continue;
            }
            let picked = {
                let rob = &self.rob;
                let cfg = &self.cfg;
                let int_busy = self.int_unit_busy;
                let fp_busy = self.fp_unit_busy;
                self.rs.select_dispatch(
                    kind,
                    |seq| {
                        rob.get(seq)
                            .and_then(|e| operands_ready_at(rob, cfg, e))
                            .is_some_and(|t| t <= now)
                    },
                    |unit| match kind {
                        RsKind::Rse => int_busy[unit as usize] <= now,
                        RsKind::Rsf => fp_busy[unit as usize] <= now,
                        RsKind::Rsa | RsKind::Rsbr => true,
                    },
                )
            };
            for &(seq, unit, buffer) in picked.iter() {
                acted = true;
                self.start_execution(seq, unit, buffer, kind, now);
            }
        }
        acted
    }

    fn start_execution(&mut self, seq: u64, unit: u8, buffer: u8, kind: RsKind, now: u64) {
        self.note_dispatch(seq, now);
        let (op, spec_input) = {
            let e = self.rob.get(seq).expect("dispatching entry exists");
            (e.rec.instr.op, !producers_settled(&self.rob, e))
        };
        let done = exec_done_at(&self.cfg, now, op);

        if !op.is_pipelined() {
            match kind {
                RsKind::Rse => self.int_unit_busy[unit as usize] = done,
                RsKind::Rsf => self.fp_unit_busy[unit as usize] = done,
                _ => {}
            }
        }

        let store_addr = {
            let e = self.rob.get_mut(seq).expect("dispatching entry exists");
            e.dispatched = true;
            e.dispatched_at = now;
            e.rs_buffer = buffer;
            match op {
                OpClass::Load | OpClass::Store => {
                    e.addr_ready_at = Some(done);
                    if op == OpClass::Store {
                        e.rec.instr.mem.map(|m| m.addr)
                    } else {
                        None
                    }
                }
                OpClass::BranchCond | OpClass::BranchUncond => None,
                _ => {
                    e.result_at = Some(done + 1);
                    e.result_speculative = spec_input;
                    None
                }
            }
        };
        // Arm the writeback scan's wake time (see `Rob::collect_due`).
        // Loads stay inert until `issue_load` knows the data-return cycle.
        match op {
            OpClass::Load => {}
            OpClass::Store => self.rob.set_wake(seq, done),
            _ => {
                if spec_input {
                    // Speculative results settle on producer events:
                    // re-examine every cycle.
                    self.rob.set_wake(seq, 0);
                } else {
                    self.rob.set_wake(seq, done);
                }
            }
        }
        if op == OpClass::Load {
            self.rob.mark_load_pending(seq);
        }
        if let Some(addr) = store_addr {
            self.lsq.set_store_addr(seq, addr);
        }
    }

    /// Dispatch's whole-station wake term: parked replays re-enter their
    /// buffers as slots free — per-cycle activity that carries no timestamp.
    pub(super) fn dispatch_wake(&self) -> Option<()> {
        (!self.rs.has_parked()).then_some(())
    }

    /// Dispatch's wake term for one entry waiting in a reservation
    /// station: the cycle its operands and an execution unit are ready. An
    /// in-flight producer without a usable result time is chained to its
    /// own event.
    pub(super) fn waiting_wake(&self, entry: &InstrState, now: u64, wake: &mut Wake) {
        let Some(operands) = operands_ready_at(&self.rob, &self.cfg, entry) else {
            return;
        };
        let unit_free = match entry.rec.instr.op.rs_kind() {
            Some(RsKind::Rse) => self.int_unit_busy[0].min(self.int_unit_busy[1]),
            Some(RsKind::Rsf) => self.fp_unit_busy[0].min(self.fp_unit_busy[1]),
            _ => 0,
        };
        wake.arm(operands.max(unit_free).max(now + 1));
    }
}
