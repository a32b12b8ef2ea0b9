//! Load and store queues (§3.2).
//!
//! Every memory access is queued at decode — 16 load-queue and 10
//! store-queue entries (Table 1). A load holds its entry until its data
//! returns; a store holds its entry until it drains to the L1 operand
//! cache after commit. Loads that fully overlap an older, not-yet-drained
//! store receive the data by store-to-load forwarding instead of accessing
//! the cache.
//!
//! Load-queue entries are anonymous: the queue is a count. The store queue
//! is a ring in program order — stores are allocated at decode, commit and
//! drain in order, so the committed stores are a prefix and the draining
//! one is the front — and [`LoadStoreQueues::alloc_store`] returns the
//! ring index the window entry keeps, so no operation searches.

/// A store tracked by the store queue.
#[derive(Debug, Clone, Copy)]
pub struct StoreEntry {
    /// Sequence number of the store.
    pub seq: u64,
    /// Effective address once generated.
    pub addr: Option<u64>,
    /// Access width in bytes.
    pub width: u64,
    /// Cycle the store's data operand is available.
    pub data_ready_at: Option<u64>,
    /// A drain to the L1 operand cache is in flight.
    pub draining: bool,
}

/// The core's load and store queues.
#[derive(Debug, Clone)]
pub struct LoadStoreQueues {
    lq_capacity: usize,
    loads: usize,
    /// The store ring, `stores.len()` = the queue's capacity.
    stores: Box<[StoreEntry]>,
    /// Ring index of the oldest store.
    front: usize,
    /// Stores in the queue.
    len: usize,
    /// Of which committed (the oldest `committed` ones).
    committed: usize,
}

impl LoadStoreQueues {
    /// Creates empty queues.
    pub fn new(load_entries: u32, store_entries: u32) -> Self {
        let vacant = StoreEntry {
            seq: 0,
            addr: None,
            width: 0,
            data_ready_at: None,
            draining: false,
        };
        LoadStoreQueues {
            lq_capacity: load_entries as usize,
            loads: 0,
            stores: vec![vacant; store_entries as usize].into(),
            front: 0,
            len: 0,
            committed: 0,
        }
    }

    /// Whether a load can be decoded this cycle.
    pub fn has_load_space(&self) -> bool {
        self.loads < self.lq_capacity
    }

    /// Whether a store can be decoded this cycle.
    pub fn has_store_space(&self) -> bool {
        self.len < self.stores.len()
    }

    /// Allocates a load-queue entry at decode.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full.
    pub fn alloc_load(&mut self) {
        assert!(self.has_load_space(), "load queue full");
        self.loads += 1;
    }

    /// The ring index `ahead` entries behind the front.
    fn index(&self, ahead: usize) -> usize {
        let i = self.front + ahead;
        if i >= self.stores.len() {
            i - self.stores.len()
        } else {
            i
        }
    }

    /// Allocates a store-queue entry at decode and returns its index, by
    /// which the store is addressed until it is released.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full.
    pub fn alloc_store(&mut self, seq: u64, width: u64) -> usize {
        assert!(self.has_store_space(), "store queue full");
        let index = self.index(self.len);
        self.stores[index] = StoreEntry {
            seq,
            addr: None,
            width,
            data_ready_at: None,
            draining: false,
        };
        self.len += 1;
        index
    }

    /// Records the generated address of the store at `index`.
    pub fn set_store_addr(&mut self, index: usize, addr: u64) {
        self.stores[index].addr = Some(addr);
    }

    /// Records when the data operand of the store at `index` becomes
    /// available.
    pub fn set_store_data_ready(&mut self, index: usize, cycle: u64) {
        self.stores[index].data_ready_at = Some(cycle);
    }

    /// Marks the oldest uncommitted store committed (eligible to drain to
    /// the cache): stores commit in program order.
    pub fn mark_store_committed(&mut self) {
        debug_assert!(self.committed < self.len, "no store left to commit");
        self.committed += 1;
    }

    /// Marks the drain of the oldest store as in flight.
    pub fn mark_store_draining(&mut self) {
        debug_assert!(self.committed > 0, "only committed stores drain");
        self.stores[self.front].draining = true;
    }

    /// The stores in the queue, oldest first.
    fn iter(&self) -> impl DoubleEndedIterator<Item = &StoreEntry> {
        (0..self.len).map(|ahead| &self.stores[self.index(ahead)])
    }

    /// Store-to-load forwarding: if the load at `seq` reading
    /// `[addr, addr+width)` is fully covered by the *youngest older* store
    /// still in the queue with a known address, returns the cycle the data
    /// can forward (the store's data readiness).
    ///
    /// Returns `None` when no store overlaps, or when the overlap is
    /// partial or the covering store's data is not yet timed.
    pub fn forward_for(&self, seq: u64, addr: u64, width: u64) -> Option<u64> {
        self.iter().rev().filter(|s| s.seq < seq).find_map(|s| {
            let s_addr = s.addr?;
            let covers = s_addr <= addr && addr + width <= s_addr + s.width;
            // A partial overlap does not forward (conservative).
            covers.then_some(s.data_ready_at).flatten()
        })
    }

    /// The oldest committed store, if any has not drained yet (its
    /// [`StoreEntry::draining`] flag tells the caller whether a drain is
    /// already in flight).
    #[inline]
    pub fn next_drain(&self) -> Option<&StoreEntry> {
        (self.committed > 0).then(|| &self.stores[self.front])
    }

    /// Removes the oldest store, drained, freeing its queue entry.
    pub fn release_store(&mut self) {
        debug_assert!(
            self.stores[self.front].draining,
            "released before its drain"
        );
        self.front = self.index(1);
        self.len -= 1;
        self.committed -= 1;
    }

    /// Frees the queue entry of a load whose data returned.
    pub fn release_load(&mut self) {
        self.loads -= 1;
    }

    /// Load-queue occupancy.
    pub fn loads_in_flight(&self) -> usize {
        self.loads
    }

    /// Store-queue occupancy.
    pub fn stores_in_flight(&self) -> usize {
        self.len
    }

    /// Whether both queues are empty.
    pub fn is_empty(&self) -> bool {
        self.loads == 0 && self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_are_enforced() {
        let mut q = LoadStoreQueues::new(2, 1);
        q.alloc_load();
        q.alloc_load();
        assert!(!q.has_load_space());
        q.alloc_store(2, 8);
        assert!(!q.has_store_space());
        q.release_load();
        assert!(q.has_load_space());
    }

    #[test]
    fn forwarding_from_covering_store() {
        let mut q = LoadStoreQueues::new(4, 4);
        let s = q.alloc_store(1, 8);
        q.set_store_addr(s, 0x100);
        q.set_store_data_ready(s, 55);
        // Fully covered 4-byte load inside the store's 8 bytes.
        assert_eq!(q.forward_for(5, 0x104, 4), Some(55));
        // Younger store cannot forward to an older load.
        assert_eq!(q.forward_for(0, 0x104, 4), None);
    }

    #[test]
    fn partial_overlap_does_not_forward() {
        let mut q = LoadStoreQueues::new(4, 4);
        let s = q.alloc_store(1, 4);
        q.set_store_addr(s, 0x100);
        q.set_store_data_ready(s, 10);
        assert_eq!(q.forward_for(5, 0x102, 4), None, "straddles the store end");
    }

    #[test]
    fn youngest_older_store_wins() {
        let mut q = LoadStoreQueues::new(4, 4);
        let older = q.alloc_store(1, 8);
        q.set_store_addr(older, 0x100);
        q.set_store_data_ready(older, 10);
        let younger = q.alloc_store(3, 8);
        q.set_store_addr(younger, 0x100);
        q.set_store_data_ready(younger, 99);
        assert_eq!(q.forward_for(5, 0x100, 8), Some(99));
    }

    #[test]
    fn drain_order_is_by_age_after_commit() {
        let mut q = LoadStoreQueues::new(4, 4);
        let first = q.alloc_store(1, 8);
        let second = q.alloc_store(2, 8);
        q.set_store_addr(first, 0x10);
        q.set_store_addr(second, 0x20);
        assert!(q.next_drain().is_none(), "uncommitted stores do not drain");
        q.mark_store_committed();
        q.mark_store_committed();
        assert_eq!(q.next_drain().unwrap().seq, 1);
        q.mark_store_draining();
        q.release_store();
        assert_eq!(q.next_drain().unwrap().seq, 2);
        q.mark_store_draining();
        q.release_store();
        assert!(q.is_empty());
    }

    #[test]
    fn indices_stay_valid_as_the_ring_wraps() {
        let mut q = LoadStoreQueues::new(1, 3);
        for seq in 0..10u64 {
            let s = q.alloc_store(seq, 8);
            q.set_store_addr(s, 0x100 + seq * 8);
            q.set_store_data_ready(s, seq);
            if q.stores_in_flight() == 3 {
                q.mark_store_committed();
                q.mark_store_draining();
                let oldest = q.next_drain().unwrap();
                assert!(oldest.draining);
                assert_eq!(oldest.seq, seq - 2);
                q.release_store();
            }
            assert_eq!(q.forward_for(99, 0x100 + seq * 8, 8), Some(seq));
        }
    }

    #[test]
    fn forwarding_requires_known_data_time() {
        let mut q = LoadStoreQueues::new(4, 4);
        let s = q.alloc_store(1, 8);
        q.set_store_addr(s, 0x100);
        assert_eq!(q.forward_for(5, 0x100, 8), None, "data time unknown yet");
    }
}
