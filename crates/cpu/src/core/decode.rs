//! Decode / allocate: up to `issue_width` instructions per cycle leave the
//! fetch queue for the window, renaming registers and claiming a
//! reservation-station slot and a load/store-queue entry on the way.

use super::fetch::FetchedInstr;
use super::quiesce::Wake;
use super::Core;
use crate::rob::InstrState;
use crate::stats::DecodeStall;
use s64v_isa::OpClass;
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
                    let fetched = self.front.queue.pop_front().expect("the gate saw a head");
                    acted = true;
                    self.allocate(fetched, now);
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

    fn allocate(&mut self, fetched: FetchedInstr, now: u64) {
        let seq = self.rob.next_seq();
        let rec = fetched.rec;
        self.note_decode(seq, rec.pc, rec.instr.op, now);
        let mut entry = InstrState::new(seq, rec);
        entry.predicted_taken = fetched.predicted_taken;
        entry.mispredicted = fetched.mispredicted;

        // Record true dependences through the rename map. For stores the
        // data register (srcs[1]) is needed at retirement, not at address
        // generation.
        match rec.instr.op {
            OpClass::Store => {
                if let Some(base) = rec.instr.srcs[0].filter(|r| !r.is_zero()) {
                    if let Some(p) = self.rename_map.producer(base) {
                        entry.producers.push(p);
                    }
                }
                if let Some(data) = rec.instr.srcs[1].filter(|r| !r.is_zero()) {
                    if let Some(p) = self.rename_map.producer(data) {
                        entry.data_producers.push(p);
                    }
                }
            }
            _ => {
                for src in rec.instr.sources() {
                    if let Some(p) = self.rename_map.producer(src) {
                        entry.producers.push(p);
                    }
                }
            }
        }

        if let Some(dest) = rec.instr.real_dest() {
            let ok = self.rename_pool.allocate(dest.class());
            debug_assert!(ok, "the gate checked rename space");
            self.rename_map.define(dest, seq);
        }

        match rec.instr.op.rs_kind() {
            Some(kind) => {
                let buffer = self.rs.try_insert(kind, seq);
                debug_assert!(buffer.is_some(), "the gate checked RS space");
                entry.rs_buffer = buffer.unwrap_or(0);
            }
            None => {
                // Nops retire without executing.
                entry.completed = true;
                self.note_complete(seq, now);
            }
        }

        match rec.instr.op {
            OpClass::Load => self.lsq.alloc_load(seq),
            OpClass::Store => {
                let width = rec.instr.mem.expect("store has memory info").width.bytes();
                self.lsq.alloc_store(seq, width);
            }
            _ => {}
        }

        if fetched.mispredicted {
            self.front.stalling_branch = Some(seq);
        }
        self.rob.push(entry);
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
