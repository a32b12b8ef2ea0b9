//! Decode / allocate: up to `issue_width` instructions per cycle leave the
//! fetch queue for the window, renaming registers and claiming a
//! reservation-station slot and a load/store-queue entry on the way.

use super::fetch::FetchedInstr;
use super::quiesce::Wake;
use super::Core;
use crate::rob::{Entry, COMPLETED, MISPREDICTED};
use crate::stats::DecodeStall;
use s64v_isa::{OpClass, Reg};
use s64v_trace::TraceRecord;

/// What stands between the fetch queue's head and the window at one cycle:
/// the single reading of decode backpressure that decode itself, the
/// head-of-window blame, the quiescence probe and a sleep's stall replay
/// all act on.
#[derive(Debug, Clone, Copy)]
pub(super) enum DecodeGate<'a> {
    /// The fetch queue is empty.
    Empty,
    /// The head has not arrived from fetch yet.
    Pending(&'a FetchedInstr),
    /// The head is here and a structure it needs is full.
    Stalled(DecodeStall),
    /// The head allocates this cycle.
    Open,
}

impl Core {
    pub(super) fn decode_gate(&self, now: u64) -> DecodeGate<'_> {
        match self.front.queue.front() {
            None => DecodeGate::Empty,
            Some(front) if front.ready_at > now => DecodeGate::Pending(front),
            Some(front) => match self.decode_stall_reason(&front.rec) {
                Some(stall) => DecodeGate::Stalled(stall),
                None => DecodeGate::Open,
            },
        }
    }

    fn decode_stall_reason(&self, rec: &TraceRecord) -> Option<DecodeStall> {
        if self.rob.is_full() {
            return Some(DecodeStall::Window);
        }
        let instr = &rec.instr;
        if let Some(dest) = instr.real_dest() {
            if !self.rename_pool.can_allocate(dest.class()) {
                return Some(DecodeStall::Rename);
            }
        }
        if let Some(kind) = instr.op.rs_kind() {
            if !self.rs.has_space(kind) {
                return Some(DecodeStall::ReservationStation);
            }
        }
        match instr.op {
            OpClass::Load if !self.lsq.has_load_space() => Some(DecodeStall::LoadQueue),
            OpClass::Store if !self.lsq.has_store_space() => Some(DecodeStall::StoreQueue),
            _ => None,
        }
    }

    pub(super) fn decode(&mut self, now: u64) -> bool {
        let mut acted = false;
        for _ in 0..self.cfg.issue_width {
            match self.decode_gate(now) {
                DecodeGate::Open => {
                    acted = true;
                    self.allocate(now);
                    self.front.queue.pop_front();
                }
                DecodeGate::Stalled(stall) => {
                    self.stats.record_stall_n(stall, 1);
                    break;
                }
                DecodeGate::Empty | DecodeGate::Pending(_) => break,
            }
        }
        acted
    }

    /// The decode-stall counts of `n` idle cycles that all read the gate
    /// as cycle `now` does: what `decode` would have recorded on each.
    pub(super) fn replay_decode_stall(&mut self, now: u64, n: u64) {
        if let DecodeGate::Stalled(stall) = self.decode_gate(now) {
            self.stats.record_stall_n(stall, n);
        }
    }

    /// The window slot of `reg`'s latest in-flight producer, if it has
    /// one (the rename map forgets a producer when it retires).
    fn producer_slot(&self, reg: Reg) -> Option<usize> {
        self.rename_map
            .producer(reg)
            .map(|seq| self.rob.slot_of(seq))
    }

    /// Moves the fetch queue's head into the window (the caller pops it).
    fn allocate(&mut self, now: u64) {
        let fetched = self.front.queue.front().expect("the gate saw a head");
        let seq = self.rob.next_seq();
        let instr = fetched.rec.instr;
        let (pc, mispredicted) = (fetched.rec.pc, fetched.mispredicted);
        self.note_decode(seq, pc, instr.op, now);
        let mut entry = Entry::new(instr.op);
        entry.set(MISPREDICTED, mispredicted);

        // Record true dependences through the rename map. For stores the
        // data register (srcs[1]) is needed at retirement, not at address
        // generation.
        match instr.op {
            OpClass::Store => {
                if let Some(base) = instr.srcs[0].filter(|r| !r.is_zero()) {
                    if let Some(p) = self.producer_slot(base) {
                        entry.producers.push(p);
                    }
                }
                if let Some(data) = instr.srcs[1].filter(|r| !r.is_zero()) {
                    if let Some(p) = self.producer_slot(data) {
                        entry.data_producers.push(p);
                    }
                }
            }
            _ => {
                for src in instr.sources() {
                    if let Some(p) = self.producer_slot(src) {
                        entry.producers.push(p);
                    }
                }
            }
        }

        if let Some(dest) = instr.real_dest() {
            let ok = self.rename_pool.allocate(dest.class());
            debug_assert!(ok, "the gate checked rename space");
            self.rename_map.define(dest, seq);
        }

        match instr.op.rs_kind() {
            Some(kind) => {
                let buffer = self.rs.try_insert(kind, self.rob.slot_of(seq));
                debug_assert!(buffer.is_some(), "the gate checked RS space");
                entry.rs_buffer = buffer.unwrap_or(0);
            }
            None => {
                // Nops retire without executing.
                entry.set(COMPLETED, true);
                self.note_complete(seq, now);
            }
        }

        match instr.op {
            OpClass::Load => self.lsq.alloc_load(),
            OpClass::Store => {
                let width = instr.mem.expect("store has memory info").width.bytes();
                entry.sq_index = self.lsq.alloc_store(seq, width) as u16;
            }
            _ => {}
        }

        if mispredicted {
            self.front.stalling_branch = Some(seq);
        }
        let fetched = self.front.queue.front().expect("the gate saw a head");
        let slot = self.rob.push(entry, &fetched.rec);
        self.refresh_ready(slot, now);
    }

    /// Decode's wake term: the fetch queue's head becoming decodable.
    pub(super) fn decode_wake(&self, now: u64, wake: &mut Wake) -> Option<()> {
        match self.decode_gate(now) {
            DecodeGate::Pending(front) => wake.arm(front.ready_at),
            // Decode would allocate next cycle.
            DecodeGate::Open => return None,
            // Structurally stalled: unblocking requires an armed event
            // (a commit, completion or queue release).
            DecodeGate::Stalled(_) | DecodeGate::Empty => {}
        }
        Some(())
    }
}
