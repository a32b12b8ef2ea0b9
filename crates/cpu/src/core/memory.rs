//! Memory issue: address-ready loads and committed stores take the L1
//! operand cache's ports, oldest first.

use super::quiesce::Wake;
use super::Core;
use crate::rob::InstrState;
use s64v_mem::cache::bank_of;
use s64v_mem::MemorySystem;
use s64v_observe::MemBlame;

/// A speculatively timed load awaiting hit/miss confirmation.
#[derive(Debug, Clone, Copy)]
pub(super) struct SpecLoad {
    pub(super) seq: u64,
    pub(super) confirm_at: u64,
    pub(super) actual_ready: u64,
}

/// A committed store draining to the L1 operand cache.
#[derive(Debug, Clone, Copy)]
pub(super) struct DrainingStore {
    pub(super) seq: u64,
    pub(super) free_at: u64,
}

/// Accesses this phase issued that writeback has yet to close, plus the
/// phase's per-cycle scratch (cleared every cycle, so a step performs no
/// heap allocation after the first few).
#[derive(Debug, Default)]
pub(super) struct MemPipe {
    pub(super) spec_loads: Vec<SpecLoad>,
    pub(super) draining: Vec<DrainingStore>,
    ready_loads: Vec<u64>,
    banks: Vec<u32>,
}

/// The first cycle a dispatched load can take a cache port: the cycle
/// after its address is ready.
fn load_issue_at(entry: &InstrState) -> Option<u64> {
    entry.addr_ready_at.map(|a| a + 1)
}

impl Core {
    pub(super) fn memory_issue(&mut self, mem: &mut MemorySystem, now: u64) -> bool {
        let mut acted = false;
        let mut ports_left = self.cfg.dcache_ports;
        let banks = mem.config().l1d_banks;
        let bank_bytes = mem.config().l1d_bank_bytes;
        let mut used_banks = std::mem::take(&mut self.mem_pipe.banks);
        used_banks.clear();

        // Loads first, oldest first. The pending-load mask lists
        // dispatched, not-yet-issued loads; address readiness is checked
        // inline, and a load still in address generation neither issues
        // nor consumes a port.
        let mut ready_loads = std::mem::take(&mut self.mem_pipe.ready_loads);
        self.rob.collect_pending_loads(&mut ready_loads);

        for &seq in &ready_loads {
            if ports_left == 0 {
                break;
            }
            let (addr, width, issue_at) = {
                let e = self.rob.get(seq).expect("listed");
                let m = e.rec.instr.mem.expect("load has memory info");
                (m.addr, m.width.bytes(), load_issue_at(e))
            };
            if issue_at.is_none_or(|t| t > now) {
                continue;
            }
            let bank = bank_of(addr, banks, bank_bytes);
            if used_banks.contains(&bank) {
                // §3.2: conflicting lower-priority request aborts and
                // retries in a later cycle.
                self.stats.bank_conflicts.incr();
                continue;
            }
            used_banks.push(bank);
            ports_left -= 1;
            acted = true;
            self.issue_load(mem, seq, addr, width, now);
        }
        self.mem_pipe.ready_loads = ready_loads;

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
            let bank = bank_of(addr, banks, bank_bytes);
            if used_banks.contains(&bank) {
                self.stats.bank_conflicts.incr();
                break;
            }
            used_banks.push(bank);
            ports_left -= 1;
            acted = true;
            let access = mem.store(self.core_id, addr, now);
            self.lsq.mark_store_draining(drain.seq);
            self.mem_pipe.draining.push(DrainingStore {
                seq: drain.seq,
                free_at: access.ready_at,
            });
        }
        self.mem_pipe.banks = used_banks;
        acted
    }

    fn issue_load(&mut self, mem: &mut MemorySystem, seq: u64, addr: u64, width: u64, now: u64) {
        self.rob.mark_load_issued(seq);
        // Store-to-load forwarding from the store queue.
        if let Some(fwd_at) = self.lsq.forward_for(seq, addr, width) {
            let ready = fwd_at.max(now) + 1;
            let e = self.rob.get_mut(seq).expect("issuing load exists");
            e.mem_issued = true;
            e.mem_ready_at = Some(ready);
            e.result_at = Some(ready + 1);
            e.result_speculative = false;
            self.rob.set_wake(seq, ready);
            self.stats.store_forwards.incr();
            return;
        }

        let access = mem.load(self.core_id, addr, now);
        let actual_ready = access.ready_at + 1;
        let predicted_ready = now + mem.config().l1d.latency as u64 + 1;
        let e = self.rob.get_mut(seq).expect("issuing load exists");
        e.mem_issued = true;
        e.mem_ready_at = Some(actual_ready);
        e.mem_l2_hit = Some(access.l2_hit);
        e.mem_blame = Some(MemBlame::classify(
            access.l1_hit,
            access.l2_hit,
            access.mshr_wait,
            access.bus_wait,
        ));
        if self.cfg.speculative_dispatch {
            // Advertise the L1-hit prediction; confirm or cancel when the
            // hit/miss outcome would be known.
            e.result_at = Some(predicted_ready + 1);
            e.result_speculative = true;
            self.mem_pipe.spec_loads.push(SpecLoad {
                seq,
                confirm_at: predicted_ready,
                actual_ready: actual_ready + 1,
            });
        } else {
            // Conservative scheduling: consumers wake only after the data
            // is valid, costing a wakeup bubble even on hits.
            e.result_at = Some(actual_ready + 2);
            e.result_speculative = false;
        }
        // The load's completion fires when its data returns.
        self.rob.set_wake(seq, actual_ready);
    }

    /// Memory issue's whole-queue wake term: a committed store that has
    /// not started draining grabs a port on the next memory-issue phase.
    pub(super) fn memory_wake(&self) -> Option<()> {
        self.lsq
            .next_drain()
            .is_none_or(|d| d.draining)
            .then_some(())
    }

    /// Memory issue's wake term for one dispatched load: its issue slot,
    /// then its data return.
    pub(super) fn load_wake(&self, entry: &InstrState, wake: &mut Wake) -> Option<()> {
        wake.arm(if entry.mem_issued {
            entry.mem_ready_at?
        } else {
            load_issue_at(entry)?
        });
        Some(())
    }
}
