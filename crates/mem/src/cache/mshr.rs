//! Miss-status holding registers (non-blocking cache support).
//!
//! A request that misses allocates an MSHR tracking the in-flight line;
//! later requests to the same line *merge* into the existing entry instead
//! of generating new traffic (§3.2: "a request that causes an L1 operand
//! cache miss stays in load/store queues until its requested line become
//! ready in the L1 cache").

/// A file of miss-status holding registers keyed by line address.
///
/// The at most `capacity` entries live in one inline array of
/// `(line, completion cycle)` pairs: a lookup — made on every access,
/// hits included — is a scan of a handful of words, not a hash.
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: u32,
    /// In-flight lines and their completion cycles, in no particular
    /// order. Entries stay until a `retire_completed` at or after their
    /// cycle, so a completed one can still be found by a merge.
    pending: Vec<(u64, u64)>,
    /// Earliest completion cycle across `pending` (`u64::MAX` when empty).
    /// Lets [`MshrFile::retire_completed`] skip the walk entirely on the
    /// common call where no fill has landed yet.
    earliest: u64,
}

impl MshrFile {
    /// Creates a file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "MSHR file needs at least one entry");
        MshrFile {
            capacity,
            pending: Vec::with_capacity(capacity as usize),
            earliest: u64::MAX,
        }
    }

    /// Removes entries whose fills completed at or before `now`; returns
    /// how many entries retired.
    pub fn retire_completed(&mut self, now: u64) -> usize {
        if self.earliest > now {
            // Nothing can have completed yet; skip the walk.
            return 0;
        }
        let before = self.pending.len();
        self.pending.retain(|&(_, done)| done > now);
        self.earliest = self
            .pending
            .iter()
            .map(|&(_, done)| done)
            .min()
            .unwrap_or(u64::MAX);
        before - self.pending.len()
    }

    /// If the line is already in flight, returns its completion cycle
    /// (the merging path).
    #[inline]
    pub fn pending_completion(&self, line_addr: u64) -> Option<u64> {
        self.pending
            .iter()
            .find(|&&(line, _)| line == line_addr)
            .map(|&(_, done)| done)
    }

    /// Whether a new miss can be accepted at `now`.
    pub fn has_free_entry(&mut self, now: u64) -> bool {
        self.retire_completed(now);
        (self.pending.len() as u32) < self.capacity
    }

    /// The earliest cycle at which an entry frees up (used to stall a miss
    /// when the file is full). Returns `now` if an entry is already free.
    pub fn next_free_at(&mut self, now: u64) -> u64 {
        if self.has_free_entry(now) {
            now
        } else {
            debug_assert_ne!(self.earliest, u64::MAX, "full file is non-empty");
            self.earliest
        }
    }

    /// Allocates an entry for a line completing at `complete_at`.
    ///
    /// # Panics
    ///
    /// Panics if the line already has an entry (callers must merge first)
    /// or if the file is over capacity.
    pub fn allocate(&mut self, line_addr: u64, complete_at: u64) {
        assert!(
            self.pending_completion(line_addr).is_none(),
            "line {line_addr:#x} already has an MSHR; merge instead"
        );
        assert!(
            (self.pending.len() as u32) < self.capacity,
            "MSHR file over capacity"
        );
        self.pending.push((line_addr, complete_at));
        self.earliest = self.earliest.min(complete_at);
    }

    /// Number of in-flight entries (without retiring).
    pub fn occupancy(&self) -> usize {
        self.pending.len()
    }

    /// Configured number of entries.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MshrFile {
        /// Holds one more in-flight miss than fits, past the capacity
        /// check; it never completes.
        pub(crate) fn overcommit(&mut self) {
            let line = u64::MAX - self.pending.len() as u64;
            self.pending.push((line, u64::MAX));
        }
    }

    #[test]
    fn merge_returns_existing_completion() {
        let mut m = MshrFile::new(4);
        m.allocate(0x100, 50);
        assert_eq!(m.pending_completion(0x100), Some(50));
        assert_eq!(m.pending_completion(0x140), None);
    }

    #[test]
    fn capacity_limits_new_misses() {
        let mut m = MshrFile::new(2);
        m.allocate(0x00, 100);
        m.allocate(0x40, 120);
        assert!(!m.has_free_entry(10));
        assert_eq!(m.next_free_at(10), 100);
        // After the first fill completes, an entry frees.
        assert!(m.has_free_entry(100));
        assert_eq!(m.occupancy(), 1);
    }

    #[test]
    fn retire_clears_completed() {
        let mut m = MshrFile::new(2);
        m.allocate(0x00, 10);
        m.allocate(0x40, 20);
        assert_eq!(m.retire_completed(15), 1);
        assert_eq!(m.occupancy(), 1);
        assert_eq!(m.pending_completion(0x40), Some(20));
        assert_eq!(m.pending_completion(0x00), None);
    }

    #[test]
    #[should_panic(expected = "merge instead")]
    fn double_allocation_is_a_bug() {
        let mut m = MshrFile::new(2);
        m.allocate(0x100, 5);
        m.allocate(0x100, 9);
    }

    #[test]
    fn next_free_at_with_space_is_now() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.next_free_at(7), 7);
    }

    #[test]
    fn earliest_watermark_tracks_allocate_and_retire() {
        let mut m = MshrFile::new(4);
        m.allocate(0x000, 30);
        m.allocate(0x040, 10);
        m.allocate(0x080, 20);
        // Early-out path: nothing completes before the watermark.
        assert_eq!(m.retire_completed(9), 0);
        assert_eq!(m.occupancy(), 3);
        // Retiring the earliest recomputes the watermark from survivors.
        assert_eq!(m.retire_completed(10), 1);
        assert_eq!(m.retire_completed(19), 0);
        assert_eq!(m.retire_completed(25), 1);
        assert_eq!(m.pending_completion(0x000), Some(30));
        // A full file reports the cached minimum as its next free slot.
        let mut f = MshrFile::new(2);
        f.allocate(0x000, 50);
        f.allocate(0x040, 40);
        assert_eq!(f.next_free_at(5), 40);
        // Re-allocating after retirement keeps the watermark fresh.
        assert!(f.has_free_entry(45));
        f.allocate(0x080, 60);
        assert_eq!(f.retire_completed(49), 0, "watermark early-out at 49");
        assert_eq!(f.retire_completed(50), 1, "the line filling at 50");
        assert_eq!(f.retire_completed(59), 0, "watermark early-out again");
        assert_eq!(f.retire_completed(60), 1);
        assert_eq!(f.occupancy(), 0);
    }
}
