//! Fetch: one aligned block per cycle from the trace into the fetch
//! queue, branch prediction, and the mispredict stall.

use super::quiesce::Wake;
use super::Core;
use crate::profile::{self, Phase};
use s64v_isa::OpClass;
use s64v_mem::{FetchAccess, MemorySystem};
use s64v_trace::{TraceRecord, TraceStream};

/// An instruction sitting in the fetch queue between fetch and decode.
#[derive(Debug, Clone, Copy)]
pub(super) struct FetchedInstr {
    pub(super) rec: TraceRecord,
    pub(super) ready_at: u64,
    pub(super) mispredicted: bool,
    /// Whether the fetch block's L1I access hit (CPI blame: a pending
    /// front whose fetch missed starves decode on the I-cache).
    pub(super) fetch_l1_hit: bool,
    /// Whether the fetch block's ITLB access missed (CPI blame).
    pub(super) fetch_tlb_miss: bool,
}

/// The fetch queue: a fixed ring with one place more than the configured
/// queue. The place after the tail *stages* the record fetch has peeked
/// from the stream but not taken yet, so a record is written once, where
/// decode will read it, and copied once more, into the window.
#[derive(Debug)]
pub(super) struct FetchQueue {
    slots: Box<[FetchedInstr]>,
    head: usize,
    len: usize,
    /// The place after the tail holds a peeked record.
    staged: bool,
}

impl FetchQueue {
    fn new(capacity: u32) -> Self {
        let vacant = FetchedInstr {
            rec: TraceRecord::new(0, s64v_isa::Instr::nop()),
            ready_at: 0,
            mispredicted: false,
            fetch_l1_hit: true,
            fetch_tlb_miss: false,
        };
        FetchQueue {
            slots: vec![vacant; capacity as usize + 1].into(),
            head: 0,
            len: 0,
            staged: false,
        }
    }

    pub(super) fn len(&self) -> usize {
        self.len
    }

    pub(super) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The oldest queued instruction.
    pub(super) fn front(&self) -> Option<&FetchedInstr> {
        (self.len > 0).then(|| &self.slots[self.head])
    }

    fn tail(&self) -> usize {
        let tail = self.head + self.len;
        if tail >= self.slots.len() {
            tail - self.slots.len()
        } else {
            tail
        }
    }

    /// The next record of the stream, staged until [`FetchQueue::accept`]
    /// takes it; `None` once the stream is dry.
    fn peek<S: TraceStream>(&mut self, stream: &mut S) -> Option<&TraceRecord> {
        let tail = self.tail();
        if !self.staged {
            self.slots[tail].rec = stream.next_record()?;
            self.staged = true;
        }
        Some(&self.slots[tail].rec)
    }

    /// Queues the staged record with its fetch group's facts and returns
    /// the queued instruction.
    ///
    /// # Panics
    ///
    /// Panics if no record is staged or the queue is full (fetch checks
    /// for room first).
    fn accept(&mut self, ready_at: u64, mispredicted: bool, access: &FetchAccess) -> &FetchedInstr {
        assert!(
            self.staged && self.len + 1 < self.slots.len(),
            "nothing to queue, or no room"
        );
        let tail = self.tail();
        let queued = &mut self.slots[tail];
        queued.ready_at = ready_at;
        queued.mispredicted = mispredicted;
        queued.fetch_l1_hit = access.l1_hit;
        queued.fetch_tlb_miss = access.tlb_miss;
        self.staged = false;
        self.len += 1;
        &self.slots[tail]
    }

    /// Appends `fetched` (tests poke queue states directly).
    #[cfg(test)]
    pub(super) fn push_back(&mut self, fetched: FetchedInstr) {
        assert!(!self.staged && self.len + 1 < self.slots.len());
        let tail = self.tail();
        self.slots[tail] = fetched;
        self.len += 1;
    }

    /// Drops the oldest queued instruction.
    pub(super) fn pop_front(&mut self) {
        debug_assert!(self.len > 0);
        self.head += 1;
        if self.head == self.slots.len() {
            self.head = 0;
        }
        self.len -= 1;
    }
}

/// Front-end state. Fetch writes all of it; decode pops the queue and
/// names the stalling branch; writeback lifts the stall when that branch
/// resolves.
#[derive(Debug)]
pub(super) struct FrontEnd {
    /// Fetched instructions awaiting decode, oldest first, and the record
    /// peeked from the stream but not yet fetched.
    pub(super) queue: FetchQueue,
    /// The earliest cycle the next block (demand or wrong-path) is fetched.
    pub(super) next_fetch_at: u64,
    /// Fetch is stalled behind a mispredicted branch.
    pub(super) stalled: bool,
    /// Sequence number of that branch once decode has allocated it.
    pub(super) stalling_branch: Option<u64>,
    wrong_path_pc: u64,
}

impl FrontEnd {
    pub(super) fn new(fetch_queue: u32) -> Self {
        FrontEnd {
            queue: FetchQueue::new(fetch_queue),
            next_fetch_at: 0,
            stalled: false,
            stalling_branch: None,
            wrong_path_pc: 0,
        }
    }

    /// Whether any record is left to fetch.
    pub(super) fn has_input<S: TraceStream>(&self, stream: &S) -> bool {
        self.queue.staged || stream.remaining_hint() != Some(0)
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
                profile::enter(Phase::Mem);
                let access = mem.fetch(self.core_id, pc, now + 1);
                profile::enter(Phase::Fetch);
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
        let Some(first) = self.front.queue.peek(stream) else {
            return false;
        };
        let first_pc = first.pc;

        // One aligned fetch block per cycle; the priority stage costs one
        // cycle before the L1I access, the validate stage one after. The
        // group ends where the block does (a shift when blocks are a
        // power of two bytes — every shipped configuration).
        let block_bytes = self.cfg.fetch_block_bytes;
        let block_end = if block_bytes.is_power_of_two() {
            (first_pc | (block_bytes - 1)).saturating_add(1)
        } else {
            (first_pc / block_bytes + 1) * block_bytes
        };
        profile::enter(Phase::Mem);
        let access = mem.fetch(self.core_id, first_pc, now + 1);
        profile::enter(Phase::Fetch);
        let ready_at = access.ready_at + 1;
        self.stats.fetch_groups.incr();

        let mut fetched = 0;
        let mut expected_pc = first_pc;
        while fetched < self.cfg.fetch_width {
            // A record joins the group if it is the next sequential one
            // and still inside the block.
            let rec = match self.front.queue.peek(stream) {
                Some(rec) if rec.pc == expected_pc && rec.pc < block_end => rec,
                _ => break,
            };
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

            let rec = &self.front.queue.accept(ready_at, mispredicted, &access).rec;

            if mispredicted {
                // Nothing architecturally useful can be fetched until the
                // branch resolves; the wrong path starts at the next
                // sequential block (predicted-not-taken mispredicts) or
                // the predicted target's block (predicted-taken).
                self.front.wrong_path_pc = if predicted_taken {
                    rec.instr.branch.map(|b| b.target).unwrap_or(rec.pc + 4)
                } else {
                    rec.pc + 4
                };
                self.front.stalled = true;
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
