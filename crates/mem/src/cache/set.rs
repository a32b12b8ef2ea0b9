//! One cache set with true-LRU replacement: the reference model.
//!
//! [`Cache`](super::Cache) was a `Vec` of these until its directory
//! became two flat arrays; the differential test in `cache::core` drives
//! both with the same operations and requires the same hits, victims and
//! dirty bits. Compiled for tests only.

/// A resident line: its tag and dirty bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineEntry {
    /// Tag (full line number; the set index is implicit).
    pub tag: u64,
    /// Whether the line has been written since it was filled (copy-back).
    pub dirty: bool,
    /// LRU timestamp (larger = more recently used).
    pub last_used: u64,
}

/// One set of a set-associative cache with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct CacheSet {
    ways: Vec<Option<LineEntry>>,
}

impl CacheSet {
    /// Creates an empty set with `ways` ways.
    pub fn new(ways: u32) -> Self {
        CacheSet {
            ways: vec![None; ways as usize],
        }
    }

    fn find_mut(&mut self, tag: u64) -> Option<&mut LineEntry> {
        self.ways.iter_mut().flatten().find(|e| e.tag == tag)
    }

    /// Looks a tag up and refreshes its LRU stamp on a hit.
    pub fn lookup(&mut self, tag: u64, stamp: u64) -> bool {
        match self.find_mut(tag) {
            Some(e) => {
                e.last_used = stamp;
                true
            }
            None => false,
        }
    }

    /// Whether the tag is present, without disturbing LRU state
    /// (used by coherence snoops and prefetch probes).
    pub fn probe(&self, tag: u64) -> bool {
        self.ways.iter().flatten().any(|e| e.tag == tag)
    }

    /// Marks a resident tag dirty. Returns whether it was present.
    pub fn mark_dirty(&mut self, tag: u64) -> bool {
        match self.find_mut(tag) {
            Some(e) => {
                e.dirty = true;
                true
            }
            None => false,
        }
    }

    /// Clears a resident tag's dirty bit (coherence downgrade after a
    /// move-out updated memory). Returns whether it was present.
    pub fn mark_clean(&mut self, tag: u64) -> bool {
        match self.find_mut(tag) {
            Some(e) => {
                e.dirty = false;
                true
            }
            None => false,
        }
    }

    /// Inserts a tag, evicting the LRU entry if the set is full.
    ///
    /// Returns the evicted entry, if any. Must not be called with a tag
    /// that is already resident (callers look up first).
    pub fn insert(&mut self, tag: u64, dirty: bool, stamp: u64) -> Option<LineEntry> {
        self.insert_protected(tag, dirty, stamp, |_| false)
    }

    /// Like [`CacheSet::insert`], but victim selection skips entries for
    /// which `protected` is true (used by the L2 to avoid evicting lines
    /// resident in an L1, which would otherwise rot at the bottom of the
    /// L2's LRU stack because L1 hits never refresh them). Falls back to
    /// plain LRU when every entry is protected.
    pub fn insert_protected(
        &mut self,
        tag: u64,
        dirty: bool,
        stamp: u64,
        protected: impl Fn(u64) -> bool,
    ) -> Option<LineEntry> {
        debug_assert!(!self.probe(tag), "inserting already-resident tag {tag:#x}");
        let entry = LineEntry {
            tag,
            dirty,
            last_used: stamp,
        };
        // Prefer an invalid way.
        if let Some(slot) = self.ways.iter_mut().find(|w| w.is_none()) {
            *slot = Some(entry);
            return None;
        }
        // Evict the LRU unprotected entry; fall back to true LRU.
        let victim_idx = self
            .ways
            .iter()
            .enumerate()
            .filter(|(_, w)| w.is_some_and(|e| !protected(e.tag)))
            .min_by_key(|(_, w)| w.map(|e| e.last_used).unwrap_or(0))
            .map(|(i, _)| i)
            .or_else(|| {
                self.ways
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.map(|e| e.last_used).unwrap_or(0))
                    .map(|(i, _)| i)
            })
            .expect("set has at least one way");
        self.ways[victim_idx].replace(entry)
    }

    /// Removes a tag. Returns the removed entry, if present.
    pub fn invalidate(&mut self, tag: u64) -> Option<LineEntry> {
        for w in &mut self.ways {
            if w.map(|e| e.tag) == Some(tag) {
                return w.take();
            }
        }
        None
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.ways.iter().flatten().count()
    }

    /// Iterates over resident entries.
    pub fn entries(&self) -> impl Iterator<Item = &LineEntry> {
        self.ways.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_invalid_ways_before_evicting() {
        let mut s = CacheSet::new(2);
        assert!(s.insert(1, false, 1).is_none());
        assert!(s.insert(2, false, 2).is_none());
        assert_eq!(s.occupancy(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut s = CacheSet::new(2);
        s.insert(1, false, 1);
        s.insert(2, false, 2);
        assert!(s.lookup(1, 3)); // tag 1 now MRU
        let evicted = s.insert(3, false, 4).expect("must evict");
        assert_eq!(evicted.tag, 2);
        assert!(s.probe(1) && s.probe(3) && !s.probe(2));
    }

    #[test]
    fn dirty_bit_travels_with_eviction() {
        let mut s = CacheSet::new(1);
        s.insert(7, false, 1);
        assert!(s.mark_dirty(7));
        let evicted = s.insert(8, false, 2).unwrap();
        assert!(evicted.dirty);
    }

    #[test]
    fn probe_does_not_touch_lru() {
        let mut s = CacheSet::new(2);
        s.insert(1, false, 1);
        s.insert(2, false, 2);
        assert!(s.probe(1)); // no stamp refresh
        let evicted = s.insert(3, false, 3).unwrap();
        assert_eq!(evicted.tag, 1, "probe must not refresh LRU");
    }

    #[test]
    fn invalidate_removes_and_returns_state() {
        let mut s = CacheSet::new(2);
        s.insert(5, true, 1);
        let removed = s.invalidate(5).unwrap();
        assert!(removed.dirty);
        assert!(s.invalidate(5).is_none());
        assert_eq!(s.occupancy(), 0);
    }

    #[test]
    fn mark_dirty_on_absent_tag_is_false() {
        let mut s = CacheSet::new(1);
        assert!(!s.mark_dirty(9));
    }
}
