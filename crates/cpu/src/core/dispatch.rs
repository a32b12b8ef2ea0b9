//! Dispatch: reservation stations select ready entries, oldest first, and
//! start them on an execution unit.

use super::quiesce::Wake;
use super::writeback::{producers_settled, Wave};
use super::Core;
use crate::config::CoreConfig;
use crate::profile::{self, Phase, Work};
use crate::rob::{Rob, DISPATCHED, NEVER, SPECULATIVE};
use crate::wheel::Lane;
use s64v_isa::{OpClass, RsKind};

/// The cycle an `op` dispatched at `dispatched_at` finishes executing (for
/// loads and stores: finishes generating its address).
pub(super) fn exec_done_at(cfg: &CoreConfig, dispatched_at: u64, op: OpClass) -> u64 {
    dispatched_at + 1 + cfg.latencies.get(op) as u64
}

/// How much later than its advertised time a result reaches a consumer:
/// without data forwarding it goes through the register file.
pub(super) fn forwarding_penalty(cfg: &CoreConfig) -> u64 {
    if cfg.data_forwarding {
        0
    } else {
        2
    }
}

/// The first cycle the entry in `slot` can dispatch as far as its register
/// operands go, or [`NEVER`] while an in-flight producer has no usable
/// result time — it has not dispatched itself, or its result is a hit
/// prediction this configuration does not dispatch on. This is the
/// definition; select reads the answer cached as the window's ready marks
/// ([`Rob::set_ready`]), refreshed whenever a producer's result changes.
pub(super) fn operands_ready_at(rob: &Rob, cfg: &CoreConfig, slot: usize) -> u64 {
    profile::count(Work::ReadyEvaluations, 1);
    let forwarding_penalty = forwarding_penalty(cfg);
    let mut ready = 0;
    for p in rob.entry(slot).producers.iter() {
        // A producer that left the window committed: its value is in the
        // register file.
        if let Some(pe) = rob.producer(slot, p) {
            if pe.result_at == NEVER || (pe.is(SPECULATIVE) && !cfg.speculative_dispatch) {
                return NEVER;
            }
            // Dispatch runs two stages ahead of the execute stage that
            // consumes the value.
            ready = ready.max((pe.result_at + forwarding_penalty).saturating_sub(2));
        }
    }
    ready
}

impl Core {
    pub(super) fn dispatch(&mut self, now: u64) -> bool {
        let mut acted = false;
        let head_slot = self.rob.head_slot();
        for kind in RsKind::ALL {
            // A kind's picks are all made before any of them starts, so a
            // result time set by one cannot ready another this cycle.
            let free = |busy: [u64; 2]| (busy[0] <= now) as u8 | ((busy[1] <= now) as u8) << 1;
            let free_units = match kind {
                RsKind::Rse => free(self.int_unit_busy),
                RsKind::Rsf => free(self.fp_unit_busy),
                RsKind::Rsa | RsKind::Rsbr => 0b11,
            };
            let picked = self
                .rs
                .select_dispatch(kind, head_slot, self.rob.ready(), free_units);
            profile::enter(Phase::Start);
            for pick in picked.into_iter().flatten() {
                acted = true;
                self.start_execution(pick.slot as usize, pick.unit, pick.buffer, kind, now);
            }
            profile::enter(Phase::Select);
        }
        acted
    }

    fn start_execution(&mut self, slot: usize, unit: u8, buffer: u8, kind: RsKind, now: u64) {
        self.note_dispatch(self.rob.seq_in(slot), now);
        let op = self.rob.entry(slot).op;
        let done = exec_done_at(&self.cfg, now, op);

        if !op.is_pipelined() {
            match kind {
                RsKind::Rse => self.int_unit_busy[unit as usize] = done,
                RsKind::Rsf => self.fp_unit_busy[unit as usize] = done,
                _ => {}
            }
        }

        // Arm the entry's next event: a load's issue slot is the cycle
        // after its address is ready (its completion is armed when
        // `issue_load` knows the data-return cycle), everything else
        // completes — a store as far as its address goes — when execution
        // does.
        let produces = !op.is_mem() && !op.is_branch();
        let spec_input = produces && !producers_settled(&self.rob, slot);
        let e = self.rob.entry_mut(slot);
        e.flags |= DISPATCHED;
        e.dispatched_at = now;
        e.rs_buffer = buffer;
        if produces {
            e.result_at = done + 1;
            e.set(SPECULATIVE, spec_input);
        } else if op.is_mem() {
            e.addr_ready_at = done;
        }
        if op == OpClass::Store {
            let index = e.sq_index as usize;
            let mem = self.rob.rec(slot).instr.mem;
            self.lsq
                .set_store_addr(index, mem.expect("a store has memory info").addr);
        }
        if op == OpClass::Load {
            self.wheel.arm(Lane::Issue, slot, done + 1);
        } else if !spec_input {
            self.wheel.arm(Lane::Complete, slot, done);
        }
        // (A derived-speculative result has no completion time until its
        // producers settle; the wave that settles it arms it.)
        if produces {
            // A result time now exists: consumers learn when they may go.
            self.result_changed(slot, Wave::AfterPass, now);
        }
    }

    /// Re-derives whether the operands of the entry in `slot`, waiting in
    /// (or returning to) its reservation station, allow dispatch: marks it
    /// ready if their time has come, otherwise arms the event that will.
    pub(super) fn refresh_ready(&mut self, slot: usize, now: u64) {
        let at = operands_ready_at(&self.rob, &self.cfg, slot);
        self.rob.set_ready(slot, at <= now);
        if at <= now || at == NEVER {
            self.wheel.disarm(Lane::Ready, slot);
        } else if self.wheel.stamp(Lane::Ready, slot) != at {
            self.wheel.arm(Lane::Ready, slot, at);
        }
    }

    /// Dispatch's wake term. Parked replays re-enter their buffers as
    /// slots free — per-cycle activity that carries no timestamp — and
    /// refuse. An entry whose operands are ready waits for an execution
    /// unit (anything else dispatched, and this was no inert cycle) and
    /// arms the cycle one frees; one whose operands are not has its event
    /// on the wheel, or is chained to a producer's.
    pub(super) fn dispatch_wake(&self, now: u64, wake: &mut Wake) -> Option<()> {
        if self.rs.has_parked() {
            return None;
        }
        for kind in RsKind::ALL {
            if self.rs.any_ready(kind, self.rob.ready()) {
                let unit_free = match kind {
                    RsKind::Rse => self.int_unit_busy[0].min(self.int_unit_busy[1]),
                    RsKind::Rsf => self.fp_unit_busy[0].min(self.fp_unit_busy[1]),
                    RsKind::Rsa | RsKind::Rsbr => 0,
                };
                wake.arm(unit_free.max(now + 1));
            }
        }
        Some(())
    }
}
