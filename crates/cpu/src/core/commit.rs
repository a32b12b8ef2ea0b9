//! Commit and per-cycle accounting: in-order retirement, the one
//! head-of-window blame decision, the cycle/occupancy counters and the
//! wedge horizon.
//!
//! [`Core::account_blame`] and [`Core::account_cycles`] are the only code
//! that charges cycles to statistics. A stepped cycle calls them with
//! `n = 1`, a slept stretch with `n = k` — so a sleep records what stepping
//! would have *provided* the state they read does not change inside the
//! stretch, which is exactly what the quiescence probe proves.

use super::decode::DecodeGate;
use super::dispatch::forwarding_penalty;
use super::quiesce::Wake;
use super::writeback::Wave;
use super::Core;
use crate::error::{CoreError, CoreFault};
use crate::rob::{COMPLETED, DISPATCHED, MEM_ISSUED, NEVER, OFF_CHIP};
use crate::stats::{DecodeStall, StallCause};
use s64v_isa::OpClass;
use s64v_observe::{CpiLeaf, MemBlame};

/// Cycles with zero commits after which the model declares itself wedged
/// (a model bug, not a workload property).
const DEADLOCK_HORIZON: u64 = 1_000_000;

impl Core {
    pub(super) fn commit(&mut self, now: u64) -> u32 {
        let mut committed = 0;
        // A value in the register file constrains no one, so retirement
        // is a change to the result's time if the advertised time still
        // binds a consumer — never with forwarding and speculative
        // dispatch on, where it has passed by the time the entry retires.
        let penalty = forwarding_penalty(&self.cfg);
        for _ in 0..self.cfg.commit_width {
            let Some((slot, head)) = self.rob.head() else {
                break;
            };
            if !head.is(COMPLETED) {
                break;
            }
            committed += 1;
            let is_store = head.op == OpClass::Store;
            let binds = head.result_at != NEVER && head.result_at + penalty > now + 1;
            let dest = self.rob.rec(slot).instr.real_dest();
            if binds {
                self.rob.start_wave(slot);
            }
            let seq = self.rob.pop_head();
            if binds {
                self.run_wave(Wave::AfterPass, now);
            }
            self.note_commit(seq, now);
            if let Some(dest) = dest {
                self.rename_pool.release(dest.class());
                self.rename_map.retire(dest, seq);
            }
            if is_store {
                self.lsq.mark_store_committed();
            }
            self.stats.committed.incr();
            self.last_commit_cycle = now;
        }
        committed
    }

    /// Head-of-window blame for one cycle, in both taxonomies at once: the
    /// 7-way [`StallCause`] of the online CPI stack (Fig 7) and the
    /// top-down [`CpiLeaf`]. The oldest in-flight instruction is what
    /// commit is waiting on, so its state names the bottleneck. The
    /// decision tree is total — every cycle lands on exactly one cause and
    /// one leaf, so both sets of counters conserve the cycle counter by
    /// construction. Neither answer is a function of the other: the
    /// causes split a waiting load by fill level and an unissued head by
    /// whether it has dispatched; the leaves split an empty window by what
    /// starves it (wrong-path-fetch configurations charge the frontend,
    /// since fetch bandwidth is genuinely consumed), a waiting load by the
    /// resource recorded at issue (MSHR and bus queuing ahead of fill
    /// level), and an undispatched head by replay or by the structure
    /// that backpressures decode.
    pub(super) fn blame(&self, committed: u32, now: u64) -> (StallCause, CpiLeaf) {
        if committed > 0 {
            return (StallCause::Busy, CpiLeaf::Retire);
        }
        let Some((_, head)) = self.rob.head() else {
            if self.front.stalled {
                let leaf = if self.cfg.wrong_path_fetch {
                    CpiLeaf::FrontendWrongPath
                } else {
                    CpiLeaf::BadSpecBranchFlush
                };
                return (StallCause::FrontendBranch, leaf);
            }
            let leaf = match self.decode_gate(now) {
                DecodeGate::Pending(front) if front.fetch_tlb_miss => CpiLeaf::FrontendITlb,
                DecodeGate::Pending(front) if !front.fetch_l1_hit => CpiLeaf::FrontendICache,
                _ => CpiLeaf::FrontendDecodeStarve,
            };
            return (StallCause::FrontendFetch, leaf);
        };
        if head.op.is_mem() && head.is(MEM_ISSUED) && !head.is(COMPLETED) {
            let cause = if head.is(OFF_CHIP) {
                StallCause::L2Miss
            } else {
                StallCause::L1Miss
            };
            // Store-forwarded loads never recorded a blame: they are
            // supplied at L1-hit speed from the store queue.
            let leaf = head.mem_blame.map_or(CpiLeaf::MemL1d, MemBlame::leaf);
            return (cause, leaf);
        }
        if head.is(DISPATCHED) {
            // Executing, or generating an address.
            return (StallCause::Execute, CpiLeaf::CoreExecLatency);
        }
        let leaf = if head.is(COMPLETED) {
            // A decode-completed nop retires on the next commit phase.
            CpiLeaf::CoreExecLatency
        } else if head.replays > 0 {
            // Cancelled by a mis-speculated dispatch and waiting to replay.
            CpiLeaf::BadSpecReplay
        } else {
            // Name the exhausted resource via the decode backpressure this
            // cycle observes, falling back to execution latency when
            // decode flows freely (the head is merely waiting for
            // operands, a unit or a dispatch slot).
            match self.decode_gate(now) {
                DecodeGate::Stalled(DecodeStall::StoreQueue) => CpiLeaf::MemStoreBuffer,
                DecodeGate::Stalled(DecodeStall::LoadQueue) => CpiLeaf::MemMshr,
                DecodeGate::Stalled(DecodeStall::ReservationStation) => CpiLeaf::CoreRsFull,
                DecodeGate::Stalled(DecodeStall::Window | DecodeStall::Rename) => {
                    CpiLeaf::CoreRobFull
                }
                _ => CpiLeaf::CoreExecLatency,
            }
        };
        (StallCause::Dispatch, leaf)
    }

    /// Charges `n` cycles to the blame the head of the window earns after
    /// a commit phase that retired `committed` instructions at `now`.
    pub(super) fn account_blame(&mut self, committed: u32, now: u64, n: u64) {
        let (cause, leaf) = self.blame(committed, now);
        self.stats.stall_cycles.record_n(cause, n);
        self.stats.cpi.record_n(leaf, n);
    }

    /// Counts `n` cycles ending with cycle `last` and samples the queue
    /// occupancies they end on.
    pub(super) fn account_cycles(&mut self, last: u64, n: u64) {
        self.stats.cycles.add(n);
        self.stats
            .window_occupancy
            .record_n(self.rob.len() as u64, n);
        self.stats
            .lq_occupancy
            .record_n(self.lsq.loads_in_flight() as u64, n);
        self.stats
            .sq_occupancy
            .record_n(self.lsq.stores_in_flight() as u64, n);
        if self.rob.is_empty() {
            // An empty window makes no commits by construction; only count
            // wedge time while instructions are actually stuck in flight.
            self.last_commit_cycle = last;
        }
    }

    /// Reports a wedged pipeline: no commit for longer than the horizon
    /// with instructions in flight.
    pub(super) fn check_wedge(&self, now: u64) -> Result<(), Box<CoreError>> {
        if !self.rob.is_empty() && now.saturating_sub(self.last_commit_cycle) > DEADLOCK_HORIZON {
            // Boxed so the per-cycle return value stays a word wide; the
            // error path is taken at most once per run.
            return Err(Box::new(CoreError {
                fault: CoreFault::Wedged {
                    horizon: DEADLOCK_HORIZON,
                },
                snapshot: self.snapshot(now),
            }));
        }
        Ok(())
    }

    /// Commit's wake term. A completed head retires on the very next
    /// commit phase (nops complete at decode, which runs after commit
    /// within a cycle, so a zero-commit cycle can still leave a completed
    /// head behind; younger completed entries are chained to the head's
    /// own events). And the wedge check is an event of its own, so a
    /// wedged model faults on the same cycle asleep or stepping.
    pub(super) fn commit_wake(&self, wake: &mut Wake) -> Option<()> {
        if let Some((_, head)) = self.rob.head() {
            if head.is(COMPLETED) {
                return None;
            }
            wake.arm(self.last_commit_cycle + DEADLOCK_HORIZON + 1);
        }
        Some(())
    }
}
