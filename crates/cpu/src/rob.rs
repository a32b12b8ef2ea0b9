//! The instruction window (reorder buffer).
//!
//! Up to 64 instructions can be in flight (Table 1). Entries are allocated
//! in program order at decode, updated by the out-of-order engine, and
//! retired in order at commit. Slots are addressed by global sequence
//! number masked into a power-of-two ring (`seq & slot_mask`), which is
//! unambiguous because at most `capacity <= ring` consecutive sequence
//! numbers are ever live; ring order from the head's slot is program
//! order.
//!
//! The storage is flat and split by temperature. What the out-of-order
//! engine reads and writes every cycle is one compact [`Entry`] per slot —
//! a flags byte, the operation class, times as plain `u64`s with
//! [`NEVER`] for "unknown", producers as slot indices — beside the
//! producer→consumer link masks. The [`TraceRecord`] the entry was decoded
//! from is kept once, cold, in an array of its own: decode writes it, and
//! dispatch, issue, resolution and commit each read the field they need
//! from it.
//!
//! Nothing scans the window for work: an entry's timed events arrive off
//! the core's event wheel ([`crate::wheel`]) and are filed into per-slot
//! bitmasks — entries due for completion, loads whose issue slot has
//! come, waiting entries whose operands are ready — that writeback,
//! memory issue and select walk in program order, one step per listed
//! entry, allocating nothing.

use crate::slotmask::SlotMask;
#[cfg(doc)]
use crate::wheel::Wheel;
use s64v_isa::OpClass;
use s64v_observe::MemBlame;
use s64v_trace::TraceRecord;

pub use crate::wheel::NEVER;

/// The entry has been dispatched from its reservation station.
pub const DISPATCHED: u8 = 1 << 0;
/// Execution (and for loads, data return) has finished.
pub const COMPLETED: u8 = 1 << 1;
/// The memory request has been issued to the L1 operand cache.
pub const MEM_ISSUED: u8 = 1 << 2;
/// The advertised `result_at` is a cache-hit prediction that may yet be
/// cancelled (speculative dispatch, §3.1), or derives from one.
pub const SPECULATIVE: u8 = 1 << 3;
/// The branch prediction was wrong; fetch is stalled until resolution.
pub const MISPREDICTED: u8 = 1 << 4;
/// A store whose address is generated and whose data is not in yet: its
/// completion is re-armed when a producer's result changes.
pub const WAITING_DATA: u8 = 1 << 5;
/// The issued memory access went to the bus/memory (it missed the on-chip
/// caches); used for stall blame.
pub const OFF_CHIP: u8 = 1 << 6;

/// The window slots of an entry's in-flight producers, inline: an
/// instruction has at most [`s64v_isa::MAX_SRCS`] register sources.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProducerList {
    slots: [u16; s64v_isa::MAX_SRCS],
    len: u8,
}

impl ProducerList {
    /// Appends a producer's slot.
    ///
    /// # Panics
    ///
    /// Panics if the list is already full (more producers than an
    /// instruction has register sources).
    pub fn push(&mut self, slot: usize) {
        self.slots[self.len as usize] = slot as u16;
        self.len += 1;
    }

    /// Iterates over the producers' slots.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots[..self.len as usize].iter().map(|&s| s as usize)
    }

    /// Number of producers recorded.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The hot state of one in-flight instruction: everything the pipeline
/// reads or writes about it between decode and commit, except its trace
/// record ([`Rob::rec`]). 64 bytes, one cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// [`DISPATCHED`], [`COMPLETED`], … (see the constants).
    pub flags: u8,
    /// The operation class (a copy of `rec.instr.op`).
    pub op: OpClass,
    /// Which RSE/RSF buffer the entry was steered to (split scheme).
    pub rs_buffer: u8,
    /// Which memory level/resource the issued access's latency is blamed
    /// on, recorded at issue for top-down CPI attribution. `None` until
    /// the access issues (store-forwarded loads never issue and count as
    /// L1D-speed data supply).
    pub mem_blame: Option<MemBlame>,
    /// For stores: the store-queue index (see `LoadStoreQueues`).
    pub sq_index: u16,
    /// In-flight producers whose results the instruction needs before (or
    /// at) dispatch. A listed slot counts only while it still holds an
    /// older entry ([`Rob::producer`]): a producer that retired left its
    /// value in the register file.
    pub producers: ProducerList,
    /// For stores: producers of the *data* operand, needed before the
    /// store can retire but not for address generation.
    pub data_producers: ProducerList,
    /// Times this instruction was cancelled and replayed.
    pub replays: u32,
    /// Cycle it was dispatched.
    pub dispatched_at: u64,
    /// Advertised result availability: the first cycle a consumer's
    /// execute stage can use the value (forwarding included).
    pub result_at: u64,
    /// Cycle at which AGU finished computing the effective address.
    pub addr_ready_at: u64,
    /// Actual cycle the load's data is available (set at issue; for
    /// speculatively dispatched consumers the advertised `result_at` may
    /// be earlier until the hit prediction is confirmed).
    pub mem_ready_at: u64,
}

impl Entry {
    /// A fresh entry for a decoded instruction of class `op`.
    pub fn new(op: OpClass) -> Self {
        Entry {
            flags: 0,
            op,
            rs_buffer: 0,
            mem_blame: None,
            sq_index: 0,
            producers: ProducerList::default(),
            data_producers: ProducerList::default(),
            replays: 0,
            dispatched_at: 0,
            result_at: NEVER,
            addr_ready_at: NEVER,
            mem_ready_at: NEVER,
        }
    }

    /// Whether every flag of `flags` is set.
    #[inline]
    pub fn is(&self, flags: u8) -> bool {
        self.flags & flags == flags
    }

    /// Sets or clears `flags`.
    #[inline]
    pub fn set(&mut self, flags: u8, on: bool) {
        if on {
            self.flags |= flags;
        } else {
            self.flags &= !flags;
        }
    }

    /// Returns the instruction to its reservation station after a
    /// speculation cancel (§3.1's cancel-and-replay).
    pub fn cancel(&mut self) {
        debug_assert!(self.is(DISPATCHED) && !self.is(COMPLETED));
        debug_assert!(
            !self.is(MEM_ISSUED),
            "a load cannot be cancelled after its cache access issued"
        );
        self.flags &= !(DISPATCHED | SPECULATIVE | WAITING_DATA | OFF_CHIP);
        self.result_at = NEVER;
        self.addr_ready_at = NEVER;
        self.mem_ready_at = NEVER;
        self.mem_blame = None;
        self.replays += 1;
    }
}

/// Which of the window's work lists a walk reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkList {
    /// Entries due for the completion pass.
    Due,
    /// Loads ready to take a cache port.
    IssueReady,
    /// The front of the wave started by [`Rob::start_wave`].
    Wave,
}

/// The reorder buffer: a ring of [`Entry`] addressed by sequence number.
///
/// # Examples
///
/// ```
/// use s64v_cpu::rob::{Entry, Rob};
/// use s64v_isa::{Instr, OpClass};
/// use s64v_trace::TraceRecord;
///
/// let mut rob = Rob::new(4);
/// let slot = rob.push(Entry::new(OpClass::Nop), &TraceRecord::new(0x40, Instr::nop()));
/// assert_eq!(rob.len(), 1);
/// assert_eq!(rob.seq_in(slot), 0);
/// assert_eq!(rob.rec(slot).pc, 0x40);
/// ```
#[derive(Debug, Clone)]
pub struct Rob {
    entries: Vec<Entry>,
    /// The trace record each slot's entry was decoded from.
    recs: Vec<TraceRecord>,
    head_seq: u64,
    tail_seq: u64,
    /// Logical window size; the ring itself (`entries.len()`) is padded to
    /// the next power of two so slot addressing is a mask, not a divide.
    capacity: usize,
    /// `entries.len() - 1` (the ring length is a power of two).
    slot_mask: u64,
    /// Entries the completion pass must examine this cycle: their event
    /// arrived. Like every mask here, never set for a slot outside
    /// `head_seq..tail_seq`, so a walk of the set bits in ring order from
    /// the head's slot visits live entries only, in program order.
    due: SlotMask,
    /// Entries whose register operands allow dispatch: the cached answer
    /// to "has the operand-ready time come?" for an entry waiting in a
    /// reservation station (meaningless for any other). Whoever sets,
    /// moves or withdraws a result time refreshes it in that producer's
    /// consumers — setting the bit, or arming the [`Wheel`] event that
    /// will — and select intersects it with a station's contents.
    ready: SlotMask,
    /// Dispatched loads whose issue slot has come and that have not taken
    /// a cache port yet (port or bank contention retries them).
    issue_ready: SlotMask,
    /// Producer→consumer links: `words` mask words per slot, one bit per
    /// slot whose entry lists this slot's entry among its producers (data
    /// producers included). Written at the consumer's allocation and reset
    /// at the slot's own; consumers are younger than their producer and
    /// retire after it, so while an entry is live every bit of its mask
    /// names a live consumer.
    dependents: Vec<u64>,
    /// Mask words per slot.
    words: usize,
    /// The wave front of a change propagating down the links (see
    /// [`Rob::start_wave`]).
    wave: SlotMask,
}

impl Rob {
    /// Creates an empty window with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "window needs at least one entry");
        // The ring is padded to a power of two so slot addressing is a
        // mask, not a 64-bit division. Ring slots beyond `capacity` are
        // simply never live (occupancy is bounded by `is_full`, which
        // checks the logical capacity).
        let ring = (capacity as usize).next_power_of_two();
        assert!(ring <= 1 << 15, "slot indices are 16 bits");
        let words = ring.div_ceil(64);
        Rob {
            entries: vec![Entry::new(OpClass::Nop); ring],
            recs: vec![TraceRecord::new(0, s64v_isa::Instr::nop()); ring],
            head_seq: 0,
            tail_seq: 0,
            capacity: capacity as usize,
            slot_mask: ring as u64 - 1,
            due: SlotMask::new(ring),
            ready: SlotMask::new(ring),
            issue_ready: SlotMask::new(ring),
            dependents: vec![0; ring * words],
            words,
            wave: SlotMask::new(ring),
        }
    }

    /// Window capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of in-flight instructions.
    pub fn len(&self) -> usize {
        (self.tail_seq - self.head_seq) as usize
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.head_seq == self.tail_seq
    }

    /// Whether the window is full.
    pub fn is_full(&self) -> bool {
        self.len() == self.capacity
    }

    /// The ring slot holding sequence number `seq`.
    #[inline]
    pub fn slot_of(&self, seq: u64) -> usize {
        (seq & self.slot_mask) as usize
    }

    /// The slot of the oldest in-flight entry (where ring order starts).
    #[inline]
    pub fn head_slot(&self) -> usize {
        self.slot_of(self.head_seq)
    }

    /// How many entries `slot` is behind the head's, in ring order. Less
    /// than [`Rob::len`] exactly when the slot is live.
    #[inline]
    pub fn age(&self, slot: usize) -> usize {
        slot.wrapping_sub(self.head_slot()) & self.slot_mask as usize
    }

    /// The in-flight sequence number held by `slot`.
    #[inline]
    pub fn seq_in(&self, slot: usize) -> u64 {
        let age = self.age(slot);
        debug_assert!(age < self.len(), "slot {slot} is not live");
        self.head_seq + age as u64
    }

    /// Sequence number of the oldest in-flight entry.
    pub fn head_seq(&self) -> u64 {
        self.head_seq
    }

    /// Sequence number the next allocation will get.
    pub fn next_seq(&self) -> u64 {
        self.tail_seq
    }

    /// Iterates over in-flight sequence numbers in program order.
    pub fn seqs(&self) -> std::ops::Range<u64> {
        self.head_seq..self.tail_seq
    }

    /// Allocates the next entry for the instruction `rec`, links it to the
    /// producers it lists, and returns its slot.
    ///
    /// # Panics
    ///
    /// Panics if the window is full.
    pub fn push(&mut self, entry: Entry, rec: &TraceRecord) -> usize {
        assert!(!self.is_full(), "window full");
        let slot = self.slot_of(self.tail_seq);
        debug_assert!(!self.due.get(slot) && !self.issue_ready.get(slot));
        self.ready.clear(slot);
        self.dependents[slot * self.words..][..self.words].fill(0);
        for p in entry.producers.iter().chain(entry.data_producers.iter()) {
            debug_assert!(self.age(p) < self.len(), "dead producer");
            self.dependents[p * self.words + slot / 64] |= 1 << (slot % 64);
        }
        self.entries[slot] = entry;
        self.recs[slot] = *rec;
        self.tail_seq += 1;
        slot
    }

    /// The entry in `slot`.
    #[inline]
    pub fn entry(&self, slot: usize) -> &Entry {
        &self.entries[slot]
    }

    /// Mutable access to the entry in `slot`.
    ///
    /// Callers that complete or cancel an entry must use
    /// [`Rob::mark_completed`] or [`Rob::cancel_entry`] so the work lists
    /// stay coherent.
    #[inline]
    pub fn entry_mut(&mut self, slot: usize) -> &mut Entry {
        &mut self.entries[slot]
    }

    /// The trace record the entry in `slot` was decoded from.
    #[inline]
    pub fn rec(&self, slot: usize) -> &TraceRecord {
        &self.recs[slot]
    }

    /// The producer a consumer in `consumer_slot` listed as `slot`, if it
    /// is still in the window: the slot must still hold an *older* entry.
    /// (Once the producer retires the slot is dead, or reallocated to an
    /// instruction younger than every consumer that listed it.)
    #[inline]
    pub fn producer(&self, consumer_slot: usize, slot: usize) -> Option<&Entry> {
        (self.age(slot) < self.age(consumer_slot)).then(|| &self.entries[slot])
    }

    /// The oldest in-flight entry and its slot.
    #[inline]
    pub fn head(&self) -> Option<(usize, &Entry)> {
        let slot = self.head_slot();
        (!self.is_empty()).then(|| (slot, &self.entries[slot]))
    }

    /// Marks the entry in `slot` completed and takes it off every work
    /// list.
    pub fn mark_completed(&mut self, slot: usize) {
        debug_assert!(self.age(slot) < self.len());
        self.entries[slot].flags |= COMPLETED;
        self.retract(slot);
    }

    /// Takes `slot` off every work list.
    fn retract(&mut self, slot: usize) {
        self.due.clear(slot);
        self.issue_ready.clear(slot);
    }

    /// Cancels the dispatched entry in `slot` back to its reservation
    /// station (§3.1): it leaves every work list (the caller disarms its
    /// pending event).
    pub fn cancel_entry(&mut self, slot: usize) {
        debug_assert!(self.age(slot) < self.len());
        self.entries[slot].cancel();
        self.retract(slot);
    }

    /// Retires the oldest entry in place, returning its sequence number
    /// (read what is needed of it through [`Rob::head`] first).
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn pop_head(&mut self) -> u64 {
        assert!(!self.is_empty(), "window empty");
        let slot = self.head_slot();
        self.retract(slot);
        self.head_seq += 1;
        self.head_seq - 1
    }

    fn list(&self, list: WorkList) -> &SlotMask {
        match list {
            WorkList::Due => &self.due,
            WorkList::IssueReady => &self.issue_ready,
            WorkList::Wave => &self.wave,
        }
    }

    #[inline]
    fn list_mut(&mut self, list: WorkList) -> &mut SlotMask {
        match list {
            WorkList::Due => &mut self.due,
            WorkList::IssueReady => &mut self.issue_ready,
            WorkList::Wave => &mut self.wave,
        }
    }

    /// Whether `list` holds `slot`.
    pub fn is_listed(&self, list: WorkList, slot: usize) -> bool {
        self.list(list).get(slot)
    }

    /// Whether `list` is empty.
    pub fn is_list_empty(&self, list: WorkList) -> bool {
        self.list(list).is_empty()
    }

    /// Takes the oldest entry on `list` that is at least `from` entries
    /// behind the head off the list and returns its slot, or `None` when
    /// no such entry is listed. Walking a list is calling this with `from`
    /// one past the previous answer's [`Rob::age`]: entries filed
    /// meanwhile further back are still found, in program order.
    #[inline]
    pub fn take_next(&mut self, list: WorkList, from: usize) -> Option<usize> {
        let head_slot = self.head_slot();
        let ring = self.entries.len();
        self.list_mut(list).take_from(head_slot, from, ring)
    }

    /// Files `slot` on `list`: its event arrived; a load lost port
    /// arbitration; a store's data came in before this cycle's completion
    /// pass.
    #[inline]
    pub fn file(&mut self, list: WorkList, slot: usize) {
        self.list_mut(list).set(slot);
    }

    /// Records whether the operands of the entry in `slot` allow dispatch
    /// (see the `ready` field).
    #[inline]
    pub fn set_ready(&mut self, slot: usize, ready: bool) {
        if ready {
            self.ready.set(slot);
        } else {
            self.ready.clear(slot);
        }
    }

    /// Whether the entry in `slot` is marked ready.
    pub fn is_ready(&self, slot: usize) -> bool {
        self.ready.get(slot)
    }

    /// The ready entries, for select to intersect with a station.
    #[inline]
    pub fn ready(&self) -> &SlotMask {
        &self.ready
    }

    /// Whether `consumer` is linked as a dependent of `producer` (slots).
    pub fn is_dependent(&self, producer: usize, consumer: usize) -> bool {
        self.dependents[producer * self.words + consumer / 64] & (1 << (consumer % 64)) != 0
    }

    /// How many consumers are linked from the entry in `slot`.
    pub fn dependents_count(&self, slot: usize) -> u32 {
        let links = &self.dependents[slot * self.words..][..self.words];
        links.iter().map(|w| w.count_ones()).sum()
    }

    /// Starts a wave at `slot`: the [`WorkList::Wave`] list becomes
    /// exactly its entry's consumers. A change that propagates (a cancel,
    /// a settle) walks the list oldest first with [`Rob::take_next`] and
    /// calls [`Rob::widen_wave`] for each entry it changes; consumers are
    /// younger than their producer, so every entry is reached after all
    /// of its producers the wave touches.
    pub fn start_wave(&mut self, slot: usize) {
        self.wave
            .copy_from(&self.dependents[slot * self.words..][..self.words]);
    }

    /// Adds the consumers of the entry in `slot` to the wave.
    pub fn widen_wave(&mut self, slot: usize) {
        self.wave
            .union_with(&self.dependents[slot * self.words..][..self.words]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s64v_isa::Instr;

    fn push(rob: &mut Rob) -> usize {
        let seq = rob.next_seq();
        rob.push(
            Entry::new(OpClass::Nop),
            &TraceRecord::new(seq * 4, Instr::nop()),
        )
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut rob = Rob::new(4);
        for _ in 0..4 {
            push(&mut rob);
        }
        assert!(rob.is_full());
        for s in 0..4 {
            assert_eq!(rob.pop_head(), s);
        }
        assert!(rob.is_empty());
    }

    #[test]
    fn slots_are_reused_across_wraparound() {
        let mut rob = Rob::new(2);
        push(&mut rob);
        push(&mut rob);
        rob.pop_head();
        let slot = push(&mut rob);
        assert_eq!(rob.len(), 2);
        assert_eq!(rob.seq_in(rob.head_slot()), 1);
        assert_eq!(rob.seqs(), 1..3, "seq 0 retired, seq 2 allocated");
        assert_eq!(slot, 0, "seq 2 took seq 0's slot");
        assert_eq!(rob.rec(slot).pc, 8);
    }

    #[test]
    #[should_panic(expected = "window full")]
    fn push_beyond_capacity_panics() {
        let mut rob = Rob::new(1);
        push(&mut rob);
        push(&mut rob);
    }

    #[test]
    fn get_mut_updates_state() {
        let mut rob = Rob::new(4);
        let slot = push(&mut rob);
        rob.entry_mut(slot).set(DISPATCHED, true);
        assert!(rob.entry(rob.slot_of(0)).is(DISPATCHED));
        rob.entry_mut(slot).set(DISPATCHED, false);
        assert_eq!(rob.entry(slot).flags, 0);
    }

    #[test]
    fn cancel_resets_dispatch_state() {
        let mut e = Entry::new(OpClass::IntAlu);
        e.set(DISPATCHED | SPECULATIVE, true);
        e.result_at = 10;
        e.cancel();
        assert!(!e.is(DISPATCHED) && !e.is(SPECULATIVE));
        assert_eq!(e.result_at, NEVER);
        assert_eq!(e.replays, 1);
    }

    #[test]
    fn seqs_iterates_program_order() {
        let mut rob = Rob::new(4);
        for _ in 0..3 {
            push(&mut rob);
        }
        rob.pop_head();
        let seqs: Vec<_> = rob.seqs().collect();
        assert_eq!(seqs, vec![1, 2]);
    }

    /// Walks `list` to the end, as writeback and memory issue do.
    fn walk(rob: &mut Rob, list: WorkList) -> Vec<u64> {
        let mut out = Vec::new();
        let mut from = 0;
        while let Some(slot) = rob.take_next(list, from) {
            from = rob.age(slot) + 1;
            out.push(rob.seq_in(slot));
        }
        out
    }

    /// Files `seq` on `list`, as the arrival of its event does.
    fn file(rob: &mut Rob, seq: u64, list: WorkList) {
        let slot = rob.slot_of(seq);
        rob.file(list, slot);
    }

    #[test]
    fn incomplete_scan_tracks_completion() {
        let mut rob = Rob::new(4);
        for _ in 0..3 {
            push(&mut rob);
        }
        let file_all = |rob: &mut Rob| {
            for s in rob.seqs() {
                if !rob.entry(rob.slot_of(s)).is(COMPLETED) {
                    file(rob, s, WorkList::Due);
                }
            }
        };
        file_all(&mut rob);
        assert_eq!(walk(&mut rob, WorkList::Due), vec![0, 1, 2]);
        file_all(&mut rob);
        rob.mark_completed(1);
        assert_eq!(walk(&mut rob, WorkList::Due), vec![0, 2]);
        file_all(&mut rob);
        rob.pop_head();
        assert_eq!(walk(&mut rob, WorkList::Due), vec![2]);
    }

    #[test]
    fn nop_entries_never_enter_the_incomplete_scan() {
        let mut rob = Rob::new(4);
        let mut e = Entry::new(OpClass::Nop);
        e.set(COMPLETED, true);
        let slot = rob.push(e, &TraceRecord::new(0, Instr::nop()));
        assert!(walk(&mut rob, WorkList::Due).is_empty());
        assert!(!rob.is_ready(slot), "nothing is listed at allocation");
    }

    #[test]
    fn pending_load_mask_follows_issue_and_cancel() {
        let mut rob = Rob::new(4);
        for slot in [push(&mut rob), push(&mut rob)] {
            rob.entry_mut(slot).set(DISPATCHED, true);
        }
        file(&mut rob, 0, WorkList::IssueReady);
        file(&mut rob, 1, WorkList::IssueReady);
        assert!(!rob.is_list_empty(WorkList::IssueReady));
        // The older load issues, the younger loses arbitration.
        assert_eq!(rob.take_next(WorkList::IssueReady, 0), Some(0));
        assert_eq!(rob.take_next(WorkList::IssueReady, 1), Some(1));
        rob.file(WorkList::IssueReady, 1);
        assert_eq!(walk(&mut rob, WorkList::IssueReady), vec![1]);
        rob.file(WorkList::IssueReady, 1);
        rob.cancel_entry(1);
        assert!(rob.is_list_empty(WorkList::IssueReady));
    }

    #[test]
    fn the_ready_mark_is_reset_when_the_slot_is_reallocated() {
        let mut rob = Rob::new(2);
        let slot = push(&mut rob);
        rob.set_ready(slot, true);
        assert!(rob.is_ready(slot));
        push(&mut rob);
        rob.pop_head();
        assert_eq!(push(&mut rob), slot);
        assert!(!rob.is_ready(slot));
    }

    /// Drives a window of `capacity` through `steps` pushes and pops so
    /// the live range wraps the ring several times, checking every walk
    /// against the naive one — every live sequence number tested in
    /// program order — at each step.
    fn scans_match_naive_walk(capacity: u32, steps: u64) {
        let mut rob = Rob::new(capacity);
        let mut due: Vec<u64> = Vec::new();
        let mut ready: Vec<u64> = Vec::new();
        for step in 0..steps {
            // Fill to capacity, then retire a varying number from the head.
            while !rob.is_full() {
                let seq = rob.next_seq();
                push(&mut rob);
                if seq.is_multiple_of(3) {
                    file(&mut rob, seq, WorkList::IssueReady);
                    ready.push(seq);
                } else if seq.is_multiple_of(2) {
                    file(&mut rob, seq, WorkList::Due);
                    due.push(seq);
                }
                if seq.is_multiple_of(7) {
                    rob.mark_completed(rob.slot_of(seq));
                    for list in [&mut due, &mut ready] {
                        list.retain(|&s| s != seq);
                    }
                }
            }
            assert_eq!(
                walk(&mut rob, WorkList::Due),
                due,
                "capacity {capacity} step {step}"
            );
            due.clear();
            // Every other listed load loses arbitration and stays listed.
            let mut from = 0;
            let mut kept = Vec::new();
            let mut seen = Vec::new();
            while let Some(slot) = rob.take_next(WorkList::IssueReady, from) {
                from = rob.age(slot) + 1;
                seen.push(rob.seq_in(slot));
                if seen.len() % 2 == 0 {
                    rob.file(WorkList::IssueReady, slot);
                    kept.push(rob.seq_in(slot));
                }
            }
            assert_eq!(seen, ready, "capacity {capacity} step {step}");
            ready = kept;
            for _ in 0..(step % capacity as u64) + 1 {
                let seq = rob.pop_head();
                ready.retain(|&s| s != seq);
            }
        }
        assert!(
            rob.head_seq() > 4 * capacity as u64,
            "the run wrapped the ring"
        );
    }

    #[test]
    fn set_bit_walk_keeps_program_order_across_wraparound() {
        // Ring == capacity (64, one mask word) and ring > capacity (48
        // in a 64-slot ring, 5 in an 8-slot one).
        for capacity in [5, 48, 64] {
            scans_match_naive_walk(capacity, 40);
        }
    }

    #[test]
    fn set_bit_walk_spans_several_mask_words() {
        // Windows above 64 entries: 100 in a 128-slot ring (two words,
        // the live range straddling the word boundary and the wrap) and
        // 256 (four words).
        for capacity in [100, 128, 256] {
            scans_match_naive_walk(capacity, 60);
        }
    }

    #[test]
    fn producer_list_holds_max_srcs() {
        let mut p = ProducerList::default();
        assert!(p.is_empty());
        p.push(7);
        p.push(8);
        p.push(9);
        assert_eq!(p.iter().collect::<Vec<_>>(), vec![7, 8, 9]);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn a_listed_producer_counts_only_while_it_is_older_and_live() {
        let mut rob = Rob::new(4);
        let producer = push(&mut rob);
        let mut consumer = Entry::new(OpClass::IntAlu);
        consumer.producers.push(producer);
        let consumer = rob.push(consumer, &TraceRecord::new(4, Instr::nop()));
        assert!(rob.is_dependent(producer, consumer));
        assert!(rob.producer(consumer, producer).is_some());
        // Retired: the slot is dead.
        rob.pop_head();
        assert!(rob.producer(consumer, producer).is_none());
        // Reallocated to a younger instruction: still not a producer, and
        // the slot's links start empty.
        push(&mut rob);
        push(&mut rob);
        let reused = push(&mut rob);
        assert_eq!(reused, producer);
        assert!(rob.producer(consumer, producer).is_none());
        assert!(!rob.is_dependent(reused, consumer));
    }

    #[test]
    fn a_wave_walks_the_links_oldest_first() {
        let mut rob = Rob::new(8);
        let root = push(&mut rob);
        let mut chain = vec![root];
        // 1 and 2 consume the root, 3 consumes 2, 4 consumes nothing.
        for producers in [vec![0], vec![0], vec![2], vec![]] {
            let mut e = Entry::new(OpClass::IntAlu);
            for p in producers {
                e.producers.push(chain[p]);
            }
            chain.push(rob.push(e, &TraceRecord::new(0, Instr::nop())));
        }
        rob.start_wave(root);
        let mut seen = Vec::new();
        let mut from = 0;
        while let Some(slot) = rob.take_next(WorkList::Wave, from) {
            from = rob.age(slot) + 1;
            seen.push(rob.seq_in(slot));
            rob.widen_wave(slot);
        }
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn the_hot_entry_is_one_cache_line() {
        // A third of the 200-byte `InstrState` it replaced, which also
        // held the trace record (32 bytes) now kept beside it.
        assert_eq!(std::mem::size_of::<Entry>(), 64);
    }
}
