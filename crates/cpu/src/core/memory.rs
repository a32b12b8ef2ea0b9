//! Memory issue: address-ready loads and committed stores take the L1
//! operand cache's ports, oldest first.

use super::writeback::Wave;
use super::Core;
use crate::profile::{self, Phase};
use crate::rob::{WorkList, MEM_ISSUED, OFF_CHIP, SPECULATIVE};
use crate::wheel::Lane;
use s64v_mem::MemorySystem;
use s64v_observe::MemBlame;

/// A speculatively timed load awaiting hit/miss confirmation.
#[derive(Debug, Clone, Copy)]
pub(super) struct SpecLoad {
    pub(super) slot: usize,
    pub(super) confirm_at: u64,
}

/// Accesses this phase issued that writeback has yet to close, plus the
/// phase's per-cycle scratch (cleared every cycle, so a step performs no
/// heap allocation after the first few).
#[derive(Debug, Default)]
pub(super) struct MemPipe {
    /// Speculatively timed loads awaiting their confirm, in the order the
    /// confirm pass keeps them (see `confirm_speculative_loads`).
    pub(super) spec_loads: Vec<SpecLoad>,
    /// The confirm pass's batch, `(slot, hit)`: scratch, cleared each pass.
    pub(super) confirmed: Vec<(usize, bool)>,
    banks: Vec<u32>,
}

impl Core {
    pub(super) fn memory_issue(&mut self, mem: &mut MemorySystem, now: u64) -> bool {
        if self.memory_wake().is_some() {
            return false; // no load has its issue slot, no store may drain
        }
        let mut acted = false;
        let mut ports_left = self.cfg.dcache_ports;
        let mut used_banks = std::mem::take(&mut self.mem_pipe.banks);
        used_banks.clear();

        // Loads first, oldest first. The list holds the dispatched loads
        // whose issue slot (the cycle after address generation) has come;
        // a load still generating its address is not on it and neither
        // issues nor consumes a port.
        let mut from = 0;
        while ports_left > 0 {
            let Some(slot) = self.rob.take_next(WorkList::IssueReady, from) else {
                break;
            };
            from = self.rob.age(slot) + 1;
            debug_assert!({
                let e = self.rob.entry(slot);
                e.addr_ready_at < now && !e.is(MEM_ISSUED)
            });
            let m = self.rob.rec(slot).instr.mem.expect("load has memory info");
            let bank = mem.l1d_bank(m.addr);
            if used_banks.contains(&bank) {
                // §3.2: conflicting lower-priority request aborts and
                // retries in a later cycle.
                self.stats.bank_conflicts.incr();
                self.rob.file(WorkList::IssueReady, slot);
                continue;
            }
            used_banks.push(bank);
            ports_left -= 1;
            acted = true;
            self.issue_load(mem, slot, m.addr, m.width.bytes(), now);
        }

        // Committed stores drain through the remaining ports. At most one
        // store is in flight at a time: if the oldest drain candidate is
        // already on its way, younger ones wait their turn.
        while ports_left > 0 {
            let Some(drain) = self.lsq.next_drain() else {
                break;
            };
            if drain.draining {
                break; // oldest is already on its way
            }
            let addr = drain.addr.expect("drain candidates have addresses");
            let bank = mem.l1d_bank(addr);
            if used_banks.contains(&bank) {
                self.stats.bank_conflicts.incr();
                break;
            }
            used_banks.push(bank);
            ports_left -= 1;
            acted = true;
            profile::enter(Phase::Mem);
            let access = mem.store(self.core_id, addr, now);
            profile::enter(Phase::MemoryIssue);
            self.lsq.mark_store_draining();
            self.wheel
                .arm(Lane::Release, 0, access.ready_at.max(now + 1));
        }
        self.mem_pipe.banks = used_banks;
        acted
    }

    fn issue_load(&mut self, mem: &mut MemorySystem, slot: usize, addr: u64, width: u64, now: u64) {
        // Store-to-load forwarding from the store queue.
        let seq = self.rob.seq_in(slot);
        if let Some(fwd_at) = self.lsq.forward_for(seq, addr, width) {
            let ready = fwd_at.max(now) + 1;
            let e = self.rob.entry_mut(slot);
            e.flags |= MEM_ISSUED;
            e.mem_ready_at = ready;
            e.result_at = ready + 1;
            self.wheel.arm(Lane::Complete, slot, ready);
            self.result_changed(slot, Wave::AfterPass, now);
            self.stats.store_forwards.incr();
            return;
        }

        profile::enter(Phase::Mem);
        let access = mem.load(self.core_id, addr, now);
        profile::enter(Phase::MemoryIssue);
        let actual_ready = access.ready_at + 1;
        let predicted_ready = now + mem.config().l1d.latency as u64 + 1;
        let speculate = self.cfg.speculative_dispatch;
        let e = self.rob.entry_mut(slot);
        e.flags |= MEM_ISSUED;
        e.set(OFF_CHIP, !access.l2_hit);
        e.mem_ready_at = actual_ready;
        e.mem_blame = Some(MemBlame::classify(
            access.l1_hit,
            access.l2_hit,
            access.mshr_wait,
            access.bus_wait,
        ));
        if speculate {
            // Advertise the L1-hit prediction; confirm or cancel when the
            // hit/miss outcome would be known.
            e.result_at = predicted_ready + 1;
            e.flags |= SPECULATIVE;
            self.wheel.arm(Lane::Confirm, slot, predicted_ready);
            self.mem_pipe.spec_loads.push(SpecLoad {
                slot,
                confirm_at: predicted_ready,
            });
        } else {
            // Conservative scheduling: consumers wake only after the data
            // is valid, costing a wakeup bubble even on hits.
            e.result_at = actual_ready + 2;
        }
        // The load's completion fires when its data returns.
        self.wheel.arm(Lane::Complete, slot, actual_ready);
        self.result_changed(slot, Wave::AfterPass, now);
    }

    /// Memory issue's wake term, which is also "this phase has nothing to
    /// do": a committed store that has not started draining, or a load
    /// whose issue slot has come (it may since have lost port arbitration),
    /// takes a port on the next memory-issue phase and refuses. (A load's
    /// issue slot and data return are events on the wheel.)
    pub(super) fn memory_wake(&self) -> Option<()> {
        (self.lsq.next_drain().is_none_or(|d| d.draining)
            && self.rob.is_list_empty(WorkList::IssueReady))
        .then_some(())
    }
}
