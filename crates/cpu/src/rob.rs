//! The instruction window (reorder buffer).
//!
//! Up to 64 instructions can be in flight (Table 1). Entries are allocated
//! in program order at decode, updated by the out-of-order engine, and
//! retired in order at commit. Slots are addressed by global sequence
//! number masked into a power-of-two ring (`seq & slot_mask`), which is
//! unambiguous because at most `capacity <= ring` consecutive sequence
//! numbers are ever live.
//!
//! The storage is flat: one dense slot vector of plain-`Copy`
//! [`InstrState`] (producer dependences live in inline arrays, not heap
//! vectors) plus per-slot bitmasks tracking which live entries still need
//! completion work and which dispatched loads are waiting to issue. The
//! per-cycle writeback and memory-issue scans walk set bits instead of
//! every slot, and a step allocates nothing.

use s64v_trace::TraceRecord;

/// An inline list of producer sequence numbers. An instruction has at most
/// [`s64v_isa::MAX_SRCS`] register sources, so the list never heap-allocates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProducerList {
    items: [u64; s64v_isa::MAX_SRCS],
    len: u8,
}

impl ProducerList {
    /// Appends a producer.
    ///
    /// # Panics
    ///
    /// Panics if the list is already full (more producers than an
    /// instruction has register sources).
    pub fn push(&mut self, seq: u64) {
        self.items[self.len as usize] = seq;
        self.len += 1;
    }

    /// The producers as a slice.
    pub fn as_slice(&self) -> &[u64] {
        &self.items[..self.len as usize]
    }

    /// Iterates over the producers.
    pub fn iter(&self) -> std::slice::Iter<'_, u64> {
        self.as_slice().iter()
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

impl<'a> IntoIterator for &'a ProducerList {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Everything the pipeline knows about one in-flight instruction.
#[derive(Debug, Clone, Copy)]
pub struct InstrState {
    /// Global program-order sequence number.
    pub seq: u64,
    /// The trace record.
    pub rec: TraceRecord,
    /// Sequence numbers of in-flight producers whose results the
    /// instruction needs before (or at) dispatch.
    pub producers: ProducerList,
    /// For stores: producers of the *data* operand, needed before the
    /// store can retire but not for address generation.
    pub data_producers: ProducerList,
    /// Which RSE/RSF buffer the entry was steered to (split scheme).
    pub rs_buffer: u8,
    /// Whether the instruction has been dispatched from its RS.
    pub dispatched: bool,
    /// Cycle it was dispatched.
    pub dispatched_at: u64,
    /// Advertised result availability: the first cycle a consumer's
    /// execute stage can use the value (forwarding included).
    pub result_at: Option<u64>,
    /// The advertised `result_at` is a cache-hit prediction that may yet
    /// be cancelled (speculative dispatch, §3.1).
    pub result_speculative: bool,
    /// Execution (and for loads, data return) has finished.
    pub completed: bool,
    /// Cycle at which AGU finished computing the effective address.
    pub addr_ready_at: Option<u64>,
    /// The memory request has been issued to the L1 operand cache.
    pub mem_issued: bool,
    /// Actual cycle the load's data is available (set at issue; for
    /// speculatively dispatched consumers the advertised `result_at` may
    /// be earlier until the hit prediction is confirmed).
    pub mem_ready_at: Option<u64>,
    /// Whether the issued memory access was served by the on-chip caches
    /// (`Some(false)` = it went to the bus/memory); used for stall blame.
    pub mem_l2_hit: Option<bool>,
    /// Which memory level/resource the issued access's latency is blamed
    /// on, recorded at issue for top-down CPI attribution. `None` until
    /// the access issues (store-forwarded loads never issue and count as
    /// L1D-speed data supply).
    pub mem_blame: Option<s64v_observe::MemBlame>,
    /// Times this instruction was cancelled and replayed.
    pub replays: u32,
    /// Predicted direction (conditional branches).
    pub predicted_taken: bool,
    /// The prediction was wrong; fetch is stalled until resolution.
    pub mispredicted: bool,
    /// The branch has resolved.
    pub resolved: bool,
}

impl InstrState {
    /// Creates a fresh entry for a decoded record.
    pub fn new(seq: u64, rec: TraceRecord) -> Self {
        InstrState {
            seq,
            rec,
            producers: ProducerList::default(),
            data_producers: ProducerList::default(),
            rs_buffer: 0,
            dispatched: false,
            dispatched_at: 0,
            result_at: None,
            result_speculative: false,
            completed: false,
            addr_ready_at: None,
            mem_issued: false,
            mem_ready_at: None,
            mem_l2_hit: None,
            mem_blame: None,
            replays: 0,
            predicted_taken: false,
            mispredicted: false,
            resolved: false,
        }
    }

    /// Returns the instruction to its reservation station after a
    /// speculation cancel (§3.1's cancel-and-replay).
    pub fn cancel(&mut self) {
        debug_assert!(self.dispatched && !self.completed);
        debug_assert!(
            !self.mem_issued,
            "a load cannot be cancelled after its cache access issued"
        );
        self.dispatched = false;
        self.result_at = None;
        self.result_speculative = false;
        self.addr_ready_at = None;
        self.mem_ready_at = None;
        self.mem_l2_hit = None;
        self.mem_blame = None;
        self.replays += 1;
    }
}

/// A per-slot bitmask over the window's ring, used for the compact
/// writeback and memory-issue scans.
#[derive(Debug, Clone)]
struct SlotMask {
    words: Vec<u64>,
}

impl SlotMask {
    fn new(capacity: usize) -> Self {
        SlotMask {
            words: vec![0; capacity.div_ceil(64)],
        }
    }

    #[inline]
    fn set(&mut self, slot: usize) {
        self.words[slot / 64] |= 1u64 << (slot % 64);
    }

    #[inline]
    fn clear(&mut self, slot: usize) {
        self.words[slot / 64] &= !(1u64 << (slot % 64));
    }

    /// Calls `f` with every set slot in ring order starting at `start`:
    /// `start` up to the ring's end, then the wrapped part below `start`.
    /// Costs one step per set bit plus one per word, not one per slot.
    #[inline]
    fn for_each_from(&self, start: usize, mut f: impl FnMut(usize)) {
        let mut walk = |word: usize, mut bits: u64| {
            while bits != 0 {
                f(word * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        };
        let first = start / 64;
        let below = (1u64 << (start % 64)) - 1;
        walk(first, self.words[first] & !below);
        for word in first + 1..self.words.len() {
            walk(word, self.words[word]);
        }
        for word in 0..first {
            walk(word, self.words[word]);
        }
        walk(first, self.words[first] & below);
    }
}

/// The reorder buffer: a ring of [`InstrState`] addressed by sequence
/// number.
///
/// # Examples
///
/// ```
/// use s64v_cpu::rob::{InstrState, Rob};
/// use s64v_isa::Instr;
/// use s64v_trace::TraceRecord;
///
/// let mut rob = Rob::new(4);
/// rob.push(InstrState::new(0, TraceRecord::new(0, Instr::nop())));
/// assert_eq!(rob.len(), 1);
/// assert!(rob.get(0).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Rob {
    slots: Vec<InstrState>,
    head_seq: u64,
    tail_seq: u64,
    /// Logical window size; the ring itself (`slots.len()`) is padded to
    /// the next power of two so slot addressing is a mask, not a divide.
    capacity: usize,
    /// `slots.len() - 1` (the ring length is a power of two).
    slot_mask: u64,
    /// Live entries whose `completed` flag is still false. Like
    /// `pending_loads`, never set for a slot outside `head_seq..tail_seq`
    /// (retiring clears both), so a walk of the set bits in ring order
    /// from the head's slot visits live entries only, in program order.
    incomplete: SlotMask,
    /// Dispatched loads whose cache access has not issued yet.
    pending_loads: SlotMask,
    /// Per-slot completion wake time: the earliest cycle the writeback
    /// scan needs to examine the entry again (`u64::MAX` = not until some
    /// pipeline event re-arms it). An entry awaiting dispatch has no
    /// completion work at all; a dispatched one has a known finish time
    /// (execute latency, load data return, store address generation), so
    /// the scan skips entries whose time has not come. Entries whose
    /// readiness genuinely changes cycle to cycle (speculative results
    /// settling, committed stores waiting on data) are kept at 0.
    wake: Vec<u64>,
    /// Lower bound on the minimum wake time over incomplete live entries
    /// (`u64::MAX` when provably none). When it lies in the future the
    /// whole writeback scan is a single compare — the common case while
    /// the window stalls on a long memory operation. It is re-tightened
    /// to the exact minimum on every real scan; completions and cancels
    /// may leave it stale-low, which only costs an extra scan.
    wake_floor: u64,
}

impl Rob {
    /// Creates an empty window with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "window needs at least one entry");
        let filler = InstrState::new(0, TraceRecord::new(0, s64v_isa::Instr::nop()));
        // The ring is padded to a power of two so slot addressing is a
        // mask, not a 64-bit division — `slot_of` runs dozens of times
        // per simulated cycle across the writeback/issue/wakeup scans.
        // Ring slots beyond `capacity` are simply never live (occupancy
        // is bounded by `is_full`, which checks the logical capacity).
        let ring = (capacity as usize).next_power_of_two();
        Rob {
            slots: vec![filler; ring],
            head_seq: 0,
            tail_seq: 0,
            capacity: capacity as usize,
            slot_mask: ring as u64 - 1,
            incomplete: SlotMask::new(ring),
            pending_loads: SlotMask::new(ring),
            wake: vec![u64::MAX; ring],
            wake_floor: u64::MAX,
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

    #[inline]
    fn slot_of(&self, seq: u64) -> usize {
        (seq & self.slot_mask) as usize
    }

    /// Allocates the next entry.
    ///
    /// # Panics
    ///
    /// Panics if the window is full or `state.seq` is out of order.
    pub fn push(&mut self, state: InstrState) {
        assert!(!self.is_full(), "window full");
        assert_eq!(state.seq, self.tail_seq, "out-of-order allocation");
        let slot = self.slot_of(state.seq);
        if state.completed {
            self.incomplete.clear(slot);
        } else {
            self.incomplete.set(slot);
        }
        self.pending_loads.clear(slot);
        // Nops complete at the first writeback scan; every other class is
        // inert until a dispatch/issue event arms a wake time.
        self.wake[slot] = if state.rec.instr.op == s64v_isa::OpClass::Nop {
            self.wake_floor = 0;
            0
        } else {
            u64::MAX
        };
        self.slots[slot] = state;
        self.tail_seq += 1;
    }

    /// The in-flight entry with sequence number `seq`, if present.
    #[inline]
    pub fn get(&self, seq: u64) -> Option<&InstrState> {
        if seq < self.head_seq || seq >= self.tail_seq {
            return None;
        }
        Some(&self.slots[self.slot_of(seq)])
    }

    /// Mutable access to the entry with sequence number `seq`.
    ///
    /// Callers that flip `completed` or issue/cancel a load must use
    /// [`Rob::mark_completed`], [`Rob::mark_load_pending`],
    /// [`Rob::mark_load_issued`] or [`Rob::cancel_entry`] so the scan
    /// masks stay coherent.
    #[inline]
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut InstrState> {
        if seq < self.head_seq || seq >= self.tail_seq {
            return None;
        }
        let slot = self.slot_of(seq);
        Some(&mut self.slots[slot])
    }

    /// Marks an entry completed, clearing it from the writeback scan.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not in flight.
    pub fn mark_completed(&mut self, seq: u64) {
        debug_assert!(seq >= self.head_seq && seq < self.tail_seq);
        let slot = self.slot_of(seq);
        self.slots[slot].completed = true;
        self.incomplete.clear(slot);
        self.pending_loads.clear(slot);
    }

    /// Marks a dispatched load as awaiting its cache access.
    pub fn mark_load_pending(&mut self, seq: u64) {
        let slot = self.slot_of(seq);
        self.pending_loads.set(slot);
    }

    /// Marks a pending load as issued to the cache.
    pub fn mark_load_issued(&mut self, seq: u64) {
        let slot = self.slot_of(seq);
        self.pending_loads.clear(slot);
    }

    /// Cancels a dispatched entry back to its reservation station (§3.1),
    /// keeping the scan masks coherent.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not in flight.
    pub fn cancel_entry(&mut self, seq: u64) {
        debug_assert!(seq >= self.head_seq && seq < self.tail_seq);
        let slot = self.slot_of(seq);
        self.slots[slot].cancel();
        self.pending_loads.clear(slot);
        self.wake[slot] = u64::MAX; // inert again until re-dispatch
    }

    /// The oldest in-flight entry.
    pub fn head(&self) -> Option<&InstrState> {
        self.get(self.head_seq)
    }

    /// Sequence number of the oldest in-flight entry.
    pub fn head_seq(&self) -> u64 {
        self.head_seq
    }

    /// Sequence number the next allocation will get.
    pub fn next_seq(&self) -> u64 {
        self.tail_seq
    }

    /// Retires the oldest entry in place, returning its sequence number
    /// (read what is needed of it through [`Rob::head`] first).
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn pop_head(&mut self) -> u64 {
        assert!(!self.is_empty(), "window empty");
        let slot = self.slot_of(self.head_seq);
        self.incomplete.clear(slot);
        self.pending_loads.clear(slot);
        self.head_seq += 1;
        self.head_seq - 1
    }

    /// Iterates over in-flight sequence numbers in program order.
    pub fn seqs(&self) -> std::ops::Range<u64> {
        self.head_seq..self.tail_seq
    }

    /// Appends the in-flight sequence numbers whose `completed` flag is
    /// still false to `out`, in program order. `out` is cleared first.
    pub fn collect_incomplete(&self, out: &mut Vec<u64>) {
        out.clear();
        self.for_each_live(&self.incomplete, |seq, _| out.push(seq));
    }

    /// Calls `f(seq, slot)` for every set bit of `mask` in program order.
    #[inline]
    fn for_each_live(&self, mask: &SlotMask, mut f: impl FnMut(u64, usize)) {
        let head_slot = self.slot_of(self.head_seq);
        mask.for_each_from(head_slot, |slot| {
            let age = slot.wrapping_sub(head_slot) as u64 & self.slot_mask;
            debug_assert!(age < self.tail_seq - self.head_seq, "stale mask bit");
            f(self.head_seq + age, slot);
        });
    }

    /// Like [`Rob::collect_incomplete`], but only entries whose wake time
    /// has arrived — the ones the writeback scan could act on at `now`.
    /// Rejects in O(1) while every armed wake time lies in the future;
    /// a real scan re-tightens that bound to the exact minimum.
    pub fn collect_due(&mut self, now: u64, out: &mut Vec<u64>) {
        out.clear();
        if self.wake_floor > now {
            return;
        }
        let mut floor = u64::MAX;
        self.for_each_live(&self.incomplete, |seq, slot| {
            let w = self.wake[slot];
            if w <= now {
                out.push(seq);
            }
            floor = floor.min(w);
        });
        self.wake_floor = floor;
    }

    /// Sets the cycle the writeback scan must next examine `seq`
    /// (see [`Rob::collect_due`]). Must never exceed the entry's true
    /// earliest action cycle, or completion events are lost.
    #[inline]
    pub fn set_wake(&mut self, seq: u64, at: u64) {
        debug_assert!(seq >= self.head_seq && seq < self.tail_seq);
        let slot = self.slot_of(seq);
        self.wake[slot] = at;
        self.wake_floor = self.wake_floor.min(at);
    }

    /// Appends dispatched, not-yet-issued load sequence numbers to `out`,
    /// in program order. `out` is cleared first. No pending loads at all
    /// — the common cycle — costs a test per mask word.
    pub fn collect_pending_loads(&self, out: &mut Vec<u64>) {
        out.clear();
        self.for_each_live(&self.pending_loads, |seq, _| out.push(seq));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s64v_isa::Instr;

    fn entry(seq: u64) -> InstrState {
        InstrState::new(seq, TraceRecord::new(seq * 4, Instr::nop()))
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut rob = Rob::new(4);
        for s in 0..4 {
            rob.push(entry(s));
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
        rob.push(entry(0));
        rob.push(entry(1));
        rob.pop_head();
        rob.push(entry(2));
        assert_eq!(rob.len(), 2);
        assert_eq!(rob.head().unwrap().seq, 1);
        assert!(rob.get(0).is_none(), "retired seq is gone");
        assert!(rob.get(2).is_some());
    }

    #[test]
    #[should_panic(expected = "window full")]
    fn push_beyond_capacity_panics() {
        let mut rob = Rob::new(1);
        rob.push(entry(0));
        rob.push(entry(1));
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn out_of_order_allocation_panics() {
        let mut rob = Rob::new(4);
        rob.push(entry(1));
    }

    #[test]
    fn get_mut_updates_state() {
        let mut rob = Rob::new(4);
        rob.push(entry(0));
        rob.get_mut(0).unwrap().dispatched = true;
        assert!(rob.get(0).unwrap().dispatched);
    }

    #[test]
    fn cancel_resets_dispatch_state() {
        let mut e = entry(3);
        e.dispatched = true;
        e.result_at = Some(10);
        e.result_speculative = true;
        e.cancel();
        assert!(!e.dispatched);
        assert_eq!(e.result_at, None);
        assert_eq!(e.replays, 1);
    }

    #[test]
    fn seqs_iterates_program_order() {
        let mut rob = Rob::new(4);
        for s in 0..3 {
            rob.push(entry(s));
        }
        rob.pop_head();
        let seqs: Vec<_> = rob.seqs().collect();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn incomplete_scan_tracks_completion() {
        let mut rob = Rob::new(4);
        for s in 0..3 {
            rob.push(entry(s));
        }
        let mut out = Vec::new();
        rob.collect_incomplete(&mut out);
        assert_eq!(out, vec![0, 1, 2]);
        rob.mark_completed(1);
        rob.collect_incomplete(&mut out);
        assert_eq!(out, vec![0, 2]);
        rob.pop_head();
        rob.collect_incomplete(&mut out);
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn nop_entries_never_enter_the_incomplete_scan() {
        let mut rob = Rob::new(4);
        let mut e = entry(0);
        e.completed = true;
        rob.push(e);
        let mut out = Vec::new();
        rob.collect_incomplete(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn pending_load_mask_follows_issue_and_cancel() {
        let mut rob = Rob::new(4);
        rob.push(entry(0));
        rob.push(entry(1));
        rob.get_mut(0).unwrap().dispatched = true;
        rob.get_mut(1).unwrap().dispatched = true;
        rob.mark_load_pending(0);
        rob.mark_load_pending(1);
        let mut out = Vec::new();
        rob.collect_pending_loads(&mut out);
        assert_eq!(out, vec![0, 1]);
        rob.mark_load_issued(0);
        rob.collect_pending_loads(&mut out);
        assert_eq!(out, vec![1]);
        rob.cancel_entry(1);
        rob.collect_pending_loads(&mut out);
        assert!(out.is_empty());
    }

    /// An incomplete entry with a completion wake time.
    fn push_armed(rob: &mut Rob, seq: u64, wake: u64) {
        rob.push(entry(seq));
        rob.set_wake(seq, wake);
    }

    /// What the set-bit walks must equal: every live sequence number
    /// tested in program order.
    fn naive_due(rob: &Rob, now: u64) -> (Vec<u64>, u64) {
        let mut due = Vec::new();
        let mut floor = u64::MAX;
        for seq in rob.seqs() {
            if !rob.get(seq).unwrap().completed {
                let w = rob.wake[rob.slot_of(seq)];
                if w <= now {
                    due.push(seq);
                }
                floor = floor.min(w);
            }
        }
        (due, floor)
    }

    /// Drives a window of `capacity` through `steps` pushes and pops so
    /// the live range wraps the ring several times, checking every scan
    /// against the naive walk at each step.
    fn scans_match_naive_walk(capacity: u32, steps: u64) {
        let mut rob = Rob::new(capacity);
        let (mut due, mut pending, mut incomplete) = (Vec::new(), Vec::new(), Vec::new());
        let mut expect_pending: Vec<u64> = Vec::new();
        for step in 0..steps {
            // Fill to capacity, then retire a varying number from the head.
            while !rob.is_full() {
                let seq = rob.next_seq();
                push_armed(&mut rob, seq, seq % 7 + step);
                if seq.is_multiple_of(3) {
                    rob.mark_load_pending(seq);
                    expect_pending.push(seq);
                }
                if seq.is_multiple_of(5) {
                    rob.mark_completed(seq);
                    expect_pending.retain(|&s| s != seq);
                }
            }
            let now = step + 3;
            let (naive, floor) = naive_due(&rob, now);
            rob.collect_due(now, &mut due);
            assert_eq!(due, naive, "capacity {capacity} step {step}");
            assert_eq!(rob.wake_floor, floor, "capacity {capacity} step {step}");
            rob.collect_pending_loads(&mut pending);
            assert_eq!(pending, expect_pending, "capacity {capacity} step {step}");
            rob.collect_incomplete(&mut incomplete);
            let naive_incomplete: Vec<u64> = rob
                .seqs()
                .filter(|&s| !rob.get(s).unwrap().completed)
                .collect();
            assert_eq!(incomplete, naive_incomplete);
            for _ in 0..(step % capacity as u64) + 1 {
                let seq = rob.pop_head();
                expect_pending.retain(|&s| s != seq);
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
    fn due_scan_rejects_in_one_compare_until_the_floor_arrives() {
        let mut rob = Rob::new(8);
        push_armed(&mut rob, 0, 50);
        push_armed(&mut rob, 1, 20);
        let mut due = Vec::new();
        rob.collect_due(10, &mut due);
        assert!(due.is_empty());
        assert_eq!(rob.wake_floor, 20, "a real scan tightens the floor");
        rob.collect_due(20, &mut due);
        assert_eq!(due, vec![1]);
    }

    #[test]
    fn producer_list_holds_max_srcs() {
        let mut p = ProducerList::default();
        assert!(p.is_empty());
        p.push(7);
        p.push(8);
        p.push(9);
        assert_eq!(p.as_slice(), &[7, 8, 9]);
        assert_eq!(p.iter().copied().sum::<u64>(), 24);
        assert_eq!(p.len(), 3);
    }
}
