//! Fetch: one aligned block per cycle from the trace into the fetch
//! queue, branch prediction, and the mispredict stall.

use super::quiesce::Wake;
use super::Core;
use s64v_isa::OpClass;
use s64v_mem::MemorySystem;
use s64v_observe::ObsEvent;
use s64v_trace::{TraceRecord, TraceStream};
use std::collections::VecDeque;

/// An instruction sitting in the fetch queue between fetch and decode.
#[derive(Debug, Clone, Copy)]
pub(super) struct FetchedInstr {
    pub(super) rec: TraceRecord,
    pub(super) ready_at: u64,
    pub(super) predicted_taken: bool,
    pub(super) mispredicted: bool,
    /// Whether the fetch block's L1I access hit (CPI blame: a pending
    /// front whose fetch missed starves decode on the I-cache).
    pub(super) fetch_l1_hit: bool,
    /// Whether the fetch block's ITLB access missed (CPI blame).
    pub(super) fetch_tlb_miss: bool,
}

/// Front-end state. Fetch writes all of it; decode pops the queue and
/// names the stalling branch; writeback lifts the stall when that branch
/// resolves.
#[derive(Debug, Default)]
pub(super) struct FrontEnd {
    /// Fetched instructions awaiting decode, oldest first.
    pub(super) queue: VecDeque<FetchedInstr>,
    /// A record peeked from the stream but not yet fetched.
    pending_rec: Option<TraceRecord>,
    /// The earliest cycle the next block (demand or wrong-path) is fetched.
    pub(super) next_fetch_at: u64,
    /// Fetch is stalled behind a mispredicted branch.
    pub(super) stalled: bool,
    /// Sequence number of that branch once decode has allocated it.
    pub(super) stalling_branch: Option<u64>,
    wrong_path_pc: u64,
}

impl FrontEnd {
    /// Whether any record is left to fetch.
    pub(super) fn has_input<S: TraceStream>(&self, stream: &S) -> bool {
        self.pending_rec.is_some() || stream.remaining_hint() != Some(0)
    }

    fn peek_record<S: TraceStream>(&mut self, stream: &mut S) -> Option<TraceRecord> {
        if self.pending_rec.is_none() {
            self.pending_rec = stream.next_record();
        }
        self.pending_rec
    }
}

impl Core {
    /// Whether the fetch queue has room for one more fetch group.
    fn fetch_queue_has_room(&self) -> bool {
        self.front.queue.len() + self.cfg.fetch_width as usize <= self.cfg.fetch_queue as usize
    }

    pub(super) fn fetch<S: TraceStream>(
        &mut self,
        mem: &mut MemorySystem,
        stream: &mut S,
        now: u64,
    ) -> bool {
        if self.front.stalled {
            // Optionally model the front end charging down the wrong path
            // while the mispredicted branch resolves: one sequential block
            // per cycle pollutes the I-cache and consumes bandwidth; the
            // instructions themselves are squashed (never decoded).
            if self.cfg.wrong_path_fetch && now >= self.front.next_fetch_at {
                let pc = self.front.wrong_path_pc;
                let access = mem.fetch(self.core_id, pc, now + 1);
                // One wrong-path block in flight at a time: the next block
                // waits for this fill, like the demand path. Without this
                // pacing a long stall floods the memory system with one
                // miss per cycle and the backlog never drains.
                self.front.next_fetch_at = access.ready_at;
                self.front.wrong_path_pc = pc + self.cfg.fetch_block_bytes;
                self.stats.wrong_path_fetches.incr();
                return true;
            }
            return false;
        }
        if now < self.front.next_fetch_at || !self.fetch_queue_has_room() {
            return false;
        }
        let Some(first) = self.front.peek_record(stream) else {
            return false;
        };

        // One aligned fetch block per cycle; the priority stage costs one
        // cycle before the L1I access, the validate stage one after.
        let block = first.pc / self.cfg.fetch_block_bytes;
        let access = mem.fetch(self.core_id, first.pc, now + 1);
        let ready_at = access.ready_at + 1;
        self.stats.fetch_groups.incr();
        if let Some(p) = self.probe.as_mut() {
            p.event(ObsEvent::Fetch {
                core: self.core_id as u32,
                cycle: now,
                pc: first.pc,
                l1_hit: access.l1_hit,
                l2_hit: access.l2_hit,
                ready_at,
            });
        }

        let mut fetched = 0;
        let mut expected_pc = first.pc;
        while fetched < self.cfg.fetch_width {
            let Some(rec) = self.front.peek_record(stream) else {
                break;
            };
            if rec.pc / self.cfg.fetch_block_bytes != block || rec.pc != expected_pc {
                break;
            }
            self.front.pending_rec = None; // consume the peeked record
            fetched += 1;
            expected_pc = rec.pc + TraceRecord::INSTR_BYTES;

            let mut predicted_taken = false;
            let mut mispredicted = false;
            match rec.instr.op {
                OpClass::BranchCond => {
                    let actual = rec.instr.branch.expect("cond branch has info").taken;
                    let pred = if self.cfg.perfect_branch_prediction {
                        actual
                    } else {
                        self.bht.predict(rec.pc)
                    };
                    predicted_taken = pred;
                    mispredicted = pred != actual;
                }
                OpClass::BranchUncond => {
                    predicted_taken = true;
                }
                _ => {}
            }

            self.front.queue.push_back(FetchedInstr {
                rec,
                ready_at,
                predicted_taken,
                mispredicted,
                fetch_l1_hit: access.l1_hit,
                fetch_tlb_miss: access.tlb_miss,
            });

            if mispredicted {
                // Nothing architecturally useful can be fetched until the
                // branch resolves; the wrong path starts at the next
                // sequential block (predicted-not-taken mispredicts) or
                // the predicted target's block (predicted-taken).
                self.front.stalled = true;
                self.front.wrong_path_pc = if predicted_taken {
                    rec.instr.branch.map(|b| b.target).unwrap_or(rec.pc + 4)
                } else {
                    rec.pc + 4
                };
                return true;
            }
            if predicted_taken {
                // Correctly predicted taken: the BHT's access latency puts
                // bubbles in front of the target fetch (§4.3.2).
                let bubbles = if self.cfg.perfect_branch_prediction {
                    0
                } else {
                    self.bht.config().access_cycles as u64
                };
                self.front.next_fetch_at = now + 1 + bubbles;
                return true;
            }
        }
        true
    }

    /// Fetch's wake term: the next fetch slot, when fetch could use it.
    pub(super) fn fetch_wake<S: TraceStream>(&self, stream: &S, wake: &mut Wake) -> Option<()> {
        if self.front.stalled {
            if self.cfg.wrong_path_fetch {
                wake.arm(self.front.next_fetch_at);
            } else if self.rob.is_empty() && self.front.queue.is_empty() {
                // Fetch resumes when the stalling branch resolves; with an
                // empty window and no queued instructions there is nothing
                // to arm, so refuse.
                return None;
            }
            // Otherwise resumption is chained to the branch's completion
            // (armed in the window walk) or to the queued branch's own
            // decode (decode's term) — the common case on a mispredict
            // whose fetch block misses in the I-cache: the window drains
            // empty while the branch waits in the fetch queue for its fill.
        } else if self.front.has_input(stream) && self.fetch_queue_has_room() {
            wake.arm(self.front.next_fetch_at);
        }
        // A full fetch queue unblocks only through decode (chained).
        Some(())
    }
}
