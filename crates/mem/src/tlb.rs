//! Instruction and data TLBs.
//!
//! The breakdown study (Fig 7) groups "ibs/tlb" stalls — L1 misses and TLB
//! misses — so the model needs a TLB whose miss rate responds to workload
//! footprint. We model a fully associative, true-LRU TLB with a fixed
//! table-walk penalty; SPARC-V9's software-managed TSB walk is approximated
//! by that fixed cost.

use crate::addr::page_of;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative hasher for page numbers. The TLB map is keyed by
/// 64-bit page frames, which a Fibonacci-style multiply mixes well
/// enough for a hash table, at a fraction of SipHash's cost — the TLB
/// sits on the per-access hot path of both warm-up and timed runs.
/// Replacement stays deterministic under the different bucket order:
/// the victim is the unique minimum-stamp entry, not an iteration-order
/// tiebreak.
#[derive(Default)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply concentrates entropy in the high bits; fold them
        // down so the table's low-bit bucket index sees them.
        self.0 ^ (self.0 >> 32)
    }
}

type PageMap = HashMap<u64, u64, BuildHasherDefault<PageHasher>>;

/// A fully associative translation lookaside buffer with LRU replacement.
///
/// # Examples
///
/// ```
/// use s64v_mem::tlb::Tlb;
///
/// let mut tlb = Tlb::new(2);
/// assert!(!tlb.access(0x0000));          // cold miss (page 0)
/// assert!(tlb.access(0x1f00));           // same 8 KB page: hit
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    capacity: u32,
    entries: PageMap, // page -> last-used stamp
    stamp: u64,
}

impl Tlb {
    /// Creates a TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "TLB needs at least one entry");
        Tlb {
            capacity,
            entries: PageMap::default(),
            stamp: 0,
        }
    }

    /// Translates the page containing `addr`: returns `true` on a hit.
    /// A miss installs the entry (the table walk always succeeds; the
    /// walk's latency is charged by the caller).
    pub fn access(&mut self, addr: u64) -> bool {
        let page = page_of(addr);
        self.stamp += 1;
        if let Some(e) = self.entries.get_mut(&page) {
            *e = self.stamp;
            return true;
        }
        if self.entries.len() as u32 >= self.capacity {
            let victim = *self
                .entries
                .iter()
                .min_by_key(|(_, &stamp)| stamp)
                .map(|(page, _)| page)
                .expect("full TLB is non-empty");
            self.entries.remove(&victim);
        }
        self.entries.insert(page, self.stamp);
        false
    }

    /// Number of resident translations.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Drops every translation (context switch / trap handling studies).
    pub fn flush(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_BYTES;

    #[test]
    fn hit_within_page_after_walk() {
        let mut t = Tlb::new(4);
        assert!(!t.access(100));
        assert!(t.access(PAGE_BYTES - 1));
        assert!(!t.access(PAGE_BYTES)); // next page
    }

    #[test]
    fn lru_replacement() {
        let mut t = Tlb::new(2);
        t.access(0);
        t.access(PAGE_BYTES);
        t.access(0); // page 0 is MRU
        t.access(2 * PAGE_BYTES); // evicts page 1
        assert!(t.access(0));
        assert!(!t.access(PAGE_BYTES), "page 1 must have been evicted");
    }

    #[test]
    fn capacity_is_respected() {
        let mut t = Tlb::new(3);
        for p in 0..10 {
            t.access(p * PAGE_BYTES);
            assert!(t.occupancy() <= 3);
        }
    }

    #[test]
    fn flush_empties() {
        let mut t = Tlb::new(4);
        t.access(0);
        t.flush();
        assert_eq!(t.occupancy(), 0);
        assert!(!t.access(0));
    }
}
