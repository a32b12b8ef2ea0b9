//! The set-associative cache structure.

use crate::addr::{line_number, LINE_BYTES};
use crate::config::CacheGeometry;

/// A line pushed out of the cache by an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line-aligned byte address of the evicted line.
    pub line_addr: u64,
    /// Whether the line was dirty (needs a copy-back).
    pub dirty: bool,
}

/// Tag of a way that holds no line. Tags are line numbers (addresses
/// divided by the line size), so all-ones is never a real one.
const EMPTY: u64 = u64::MAX;

/// Dirty bit of a way's `meta` word; the LRU stamp is the rest.
const DIRTY: u64 = 1;

/// A set-associative cache directory with true-LRU replacement.
///
/// This models *presence* (tags, dirty bits, replacement); timing lives in
/// [`crate::hierarchy::MemorySystem`]. Addresses passed in may be unaligned;
/// the cache works on line numbers internally.
///
/// The whole directory is two flat arrays of `sets × ways` words, set
/// `s` owning ways `s * ways .. (s + 1) * ways`: a tag word (all-ones
/// for an invalid way) and a word packing the LRU stamp (larger = more
/// recently used) above the dirty bit. Building, copying and dropping a
/// cache is therefore two allocations however many sets it has.
///
/// # Examples
///
/// ```
/// use s64v_mem::cache::Cache;
/// use s64v_mem::config::CacheGeometry;
///
/// let mut c = Cache::new(CacheGeometry::new(8 * 1024, 2, 1));
/// assert!(!c.access(0x1000));         // cold miss
/// c.fill(0x1000, false);
/// assert!(c.access(0x1000));          // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    geometry: CacheGeometry,
    ways: usize,
    tags: Vec<u64>,
    /// Per way: `stamp << 1 | dirty`.
    meta: Vec<u64>,
    set_mask: u64,
    stamp: u64,
}

impl Cache {
    /// Creates an empty (cold) cache.
    pub fn new(geometry: CacheGeometry) -> Self {
        let lines = geometry.lines() as usize;
        Cache {
            geometry,
            ways: geometry.ways as usize,
            tags: vec![EMPTY; lines],
            meta: vec![0; lines],
            set_mask: geometry.sets() - 1,
            stamp: 0,
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// The set an address maps to (exposed so tests can construct
    /// deliberately conflicting address sets).
    ///
    /// Traces carry *virtual* addresses whose segments sit at widely
    /// spaced, highly aligned bases; a real machine's physically indexed
    /// cache sees them scattered across page frames by the OS allocator.
    /// Plain modulo indexing of the virtual line number would alias every
    /// segment base onto the same sets (leaving most of an 8 MB L2 cold),
    /// so the index first maps each 8 KB page to a deterministic
    /// pseudo-random frame and keeps lines contiguous within the page —
    /// exactly the structure of physical indexing.
    pub fn set_of(&self, addr: u64) -> usize {
        self.set_index(line_number(addr))
    }

    /// log2(lines per 8 KB page).
    const PAGE_LINE_BITS: u32 = 7;

    /// Page-color bits preserved from the virtual page number. Purely
    /// random frames would give a 32 KB direct-mapped cache only four
    /// possible per-page set windows and hot pages would collide for a
    /// whole run; enterprise OSes of the era (Solaris bins, page coloring)
    /// kept the low virtual page bits in the frame to avoid exactly that.
    const COLOR_BITS: u32 = 6;

    fn set_index(&self, line: u64) -> usize {
        let page = line >> Self::PAGE_LINE_BITS;
        let offset = line & ((1 << Self::PAGE_LINE_BITS) - 1);
        // Fibonacci hashing spreads the upper frame bits; the low bits
        // keep the virtual page color (see COLOR_BITS).
        let hashed = page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
        let color_mask = (1u64 << Self::COLOR_BITS) - 1;
        let frame = (hashed & !color_mask) | (page & color_mask);
        let pa_line = (frame << Self::PAGE_LINE_BITS) | offset;
        (pa_line & self.set_mask) as usize
    }

    fn bump(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// The ways of `line`'s set, as indices into the flat arrays.
    fn set_ways(&self, line: u64) -> std::ops::Range<usize> {
        let base = self.set_index(line) * self.ways;
        base..base + self.ways
    }

    /// The way among `set` holding `line`.
    fn find_in(&self, set: std::ops::Range<usize>, line: u64) -> Option<usize> {
        let base = set.start;
        self.tags[set]
            .iter()
            .position(|&t| t == line)
            .map(|w| base + w)
    }

    /// The way holding `line`, as an index into the flat arrays.
    fn find(&self, line: u64) -> Option<usize> {
        self.find_in(self.set_ways(line), line)
    }

    /// Performs a demand access: returns `true` on a hit (refreshing LRU).
    pub fn access(&mut self, addr: u64) -> bool {
        let stamp = self.bump();
        match self.find(line_number(addr)) {
            Some(i) => {
                self.meta[i] = stamp << 1 | (self.meta[i] & DIRTY);
                true
            }
            None => false,
        }
    }

    /// Whether the line containing `addr` is resident (no LRU update).
    pub fn contains(&self, addr: u64) -> bool {
        self.find(line_number(addr)).is_some()
    }

    /// Fills the line containing `addr`, returning any eviction.
    ///
    /// Filling an already-resident line refreshes it instead (e.g. two
    /// merged misses to the same line).
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Option<Eviction> {
        self.fill_protected(addr, dirty, |_| false)
    }

    /// Like [`Cache::fill`], but victim selection avoids lines for which
    /// `protected(line_addr)` is true (L1-residency hints for the L2,
    /// whose lines resident in an L1 would otherwise rot at the bottom of
    /// its LRU stack because L1 hits never refresh them). Falls back to
    /// plain LRU when every line of the set is protected.
    pub fn fill_protected(
        &mut self,
        addr: u64,
        dirty: bool,
        protected: impl Fn(u64) -> bool,
    ) -> Option<Eviction> {
        let line = line_number(addr);
        debug_assert_ne!(line, EMPTY);
        let stamp = self.bump();
        let set = self.set_ways(line);
        let fresh = stamp << 1 | dirty as u64;
        if let Some(i) = self.find_in(set.clone(), line) {
            self.meta[i] = fresh | (self.meta[i] & DIRTY);
            return None;
        }
        // Prefer an invalid way, else the LRU unprotected line, else the
        // LRU line. Stamps are unique, so the minimum is too.
        let lru = |spare_protected: bool| {
            set.clone()
                .filter(|&i| !(spare_protected && protected(self.tags[i] * LINE_BYTES)))
                .min_by_key(|&i| self.meta[i] >> 1)
        };
        let victim = set
            .clone()
            .find(|&i| self.tags[i] == EMPTY)
            .or_else(|| lru(true))
            .or_else(|| lru(false))
            .expect("set has at least one way");
        let evicted = (self.tags[victim] != EMPTY).then(|| Eviction {
            line_addr: self.tags[victim] * LINE_BYTES,
            dirty: self.meta[victim] & DIRTY != 0,
        });
        self.tags[victim] = line;
        self.meta[victim] = fresh;
        evicted
    }

    /// Marks the line containing `addr` dirty (a store hit). Returns
    /// whether the line was resident.
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        let found = self.find(line_number(addr));
        if let Some(i) = found {
            self.meta[i] |= DIRTY;
        }
        found.is_some()
    }

    /// Clears the dirty bit of the line containing `addr` (a coherence
    /// downgrade after a move-out pushed the data to memory). Returns
    /// whether the line was resident.
    pub fn mark_clean(&mut self, addr: u64) -> bool {
        let found = self.find(line_number(addr));
        if let Some(i) = found {
            self.meta[i] &= !DIRTY;
        }
        found.is_some()
    }

    /// Invalidates the line containing `addr` (coherence, inclusion).
    /// Returns the dirty bit if the line was present.
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let i = self.find(line_number(addr))?;
        self.tags[i] = EMPTY;
        Some(self.meta[i] & DIRTY != 0)
    }

    /// Total resident lines (for capacity invariants in tests).
    pub fn occupancy(&self) -> u64 {
        self.tags.iter().filter(|&&t| t != EMPTY).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::set::CacheSet;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64 B = 512 B
        Cache::new(CacheGeometry::new(512, 2, 1))
    }

    #[test]
    fn cold_miss_then_hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0x40));
        assert!(c.fill(0x40, false).is_none());
        assert!(c.access(0x40));
        assert!(c.access(0x44), "same line, different offset");
    }

    /// First `n` line-aligned addresses mapping to the same set as `base`.
    fn colliding(c: &Cache, base: u64, n: usize) -> Vec<u64> {
        let target = c.set_of(base);
        (1..10_000u64)
            .map(|i| base + i * LINE_BYTES)
            .filter(|&a| c.set_of(a) == target)
            .take(n)
            .collect()
    }

    #[test]
    fn conflicting_lines_evict_lru() {
        let mut c = tiny();
        let a = 0;
        let peers = colliding(&c, a, 2);
        let (b, d) = (peers[0], peers[1]);
        c.fill(a, false);
        c.fill(b, false);
        c.access(a); // refresh a
        let ev = c.fill(d, false).expect("set full, must evict");
        assert_eq!(ev.line_addr, b);
        assert!(!ev.dirty);
    }

    #[test]
    fn dirty_eviction_reports_copy_back() {
        let mut c = Cache::new(CacheGeometry::new(128, 1, 1)); // 2 sets direct-mapped
        c.fill(0, false);
        assert!(c.mark_dirty(0));
        let peer = colliding(&c, 0, 1)[0];
        let ev = c.fill(peer, false).expect("conflict");
        assert!(ev.dirty);
        assert_eq!(ev.line_addr, 0);
    }

    #[test]
    fn refilling_resident_line_does_not_evict() {
        let mut c = tiny();
        c.fill(0x100, false);
        assert!(c.fill(0x100, true).is_none());
        // The merged fill's dirty bit sticks.
        let set_line = c.invalidate(0x100).unwrap();
        assert!(set_line);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = tiny();
        for i in 0..100 {
            c.fill(i * LINE_BYTES, i % 3 == 0);
            assert!(c.occupancy() <= c.geometry().lines());
        }
        assert_eq!(c.occupancy(), c.geometry().lines());
    }

    #[test]
    fn invalidate_absent_line_is_none() {
        let mut c = tiny();
        assert!(c.invalidate(0x9999).is_none());
    }

    /// The cache as it was: one [`CacheSet`] per set, indexed the same way.
    struct Reference {
        sets: Vec<CacheSet>,
        stamp: u64,
    }

    impl Reference {
        fn new(g: CacheGeometry) -> Self {
            Reference {
                sets: (0..g.sets()).map(|_| CacheSet::new(g.ways)).collect(),
                stamp: 0,
            }
        }

        fn bump(&mut self) -> u64 {
            self.stamp += 1;
            self.stamp
        }

        fn access(&mut self, set: usize, line: u64) -> bool {
            let stamp = self.bump();
            self.sets[set].lookup(line, stamp)
        }

        fn fill_protected(
            &mut self,
            set: usize,
            line: u64,
            dirty: bool,
            protected: impl Fn(u64) -> bool,
        ) -> Option<Eviction> {
            let stamp = self.bump();
            if self.sets[set].lookup(line, stamp) {
                if dirty {
                    self.sets[set].mark_dirty(line);
                }
                return None;
            }
            self.sets[set]
                .insert_protected(line, dirty, stamp, |tag| protected(tag * LINE_BYTES))
                .map(|e| Eviction {
                    line_addr: e.tag * LINE_BYTES,
                    dirty: e.dirty,
                })
        }
    }

    /// SplitMix64: a deterministic operation stream without a dependency.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn flat_arrays_match_the_per_set_model_operation_for_operation() {
        const OPS: usize = 120_000;
        for (ways, seed) in [(1, 11u64), (2, 12), (4, 13)] {
            // 16 sets; 160 lines over two pages keep every set contended.
            let geometry = CacheGeometry::new(16 * ways as u64 * LINE_BYTES, ways, 1);
            let mut flat = Cache::new(geometry);
            let mut reference = Reference::new(geometry);
            let mut rng = seed;
            for op in 0..OPS {
                let r = next(&mut rng);
                let addr = (r >> 8) % 160 * LINE_BYTES + (r >> 40) % LINE_BYTES;
                let (set, line) = (flat.set_of(addr), line_number(addr));
                let dirty = r & 0x80 != 0;
                // Protects about half the lines, chosen by address.
                let protected = |l: u64| (l / LINE_BYTES).wrapping_mul(r | 1) & 0x10 != 0;
                let ctx = format!("{ways}-way, op {op}, addr {addr:#x}");
                match r % 8 {
                    0 | 1 => assert_eq!(flat.access(addr), reference.access(set, line), "{ctx}"),
                    2 | 3 => assert_eq!(
                        flat.fill(addr, dirty),
                        reference.fill_protected(set, line, dirty, |_| false),
                        "{ctx}"
                    ),
                    4 => assert_eq!(
                        flat.fill_protected(addr, dirty, protected),
                        reference.fill_protected(set, line, dirty, protected),
                        "{ctx}"
                    ),
                    5 => assert_eq!(
                        flat.mark_dirty(addr),
                        reference.sets[set].mark_dirty(line),
                        "{ctx}"
                    ),
                    6 => assert_eq!(
                        flat.mark_clean(addr),
                        reference.sets[set].mark_clean(line),
                        "{ctx}"
                    ),
                    _ => assert_eq!(
                        flat.invalidate(addr),
                        reference.sets[set].invalidate(line).map(|e| e.dirty),
                        "{ctx}"
                    ),
                }
                assert_eq!(
                    flat.contains(addr),
                    reference.sets[set].probe(line),
                    "{ctx}"
                );
            }
            let resident: usize = reference.sets.iter().map(CacheSet::occupancy).sum();
            assert_eq!(flat.occupancy(), resident as u64);
            // Same lines, same dirty bits, same recency order in every set.
            for (s, set) in reference.sets.iter().enumerate() {
                let mut expected: Vec<_> = set
                    .entries()
                    .map(|e| (e.last_used, e.tag, e.dirty))
                    .collect();
                let mut got: Vec<_> = (s * flat.ways..(s + 1) * flat.ways)
                    .filter(|&i| flat.tags[i] != EMPTY)
                    .map(|i| (flat.meta[i] >> 1, flat.tags[i], flat.meta[i] & DIRTY != 0))
                    .collect();
                expected.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, expected, "{ways}-way set {s}");
            }
        }
    }
}
