//! The branch history table (§4.3.2).
//!
//! The SPARC64 V uses a 16K-entry, 4-way set-associative BHT with a
//! 2-cycle access; the paper's study compares it against a 4K-entry,
//! 2-way, 1-cycle table. The associativity matters because the tables are
//! *tagged*: a branch whose entry was displaced predicts from static
//! fallback, which is what makes TPC-C's enormous branch-site population
//! suffer on the small table (+60% mispredictions, Fig 10) while SPEC's
//! compact loop nests fit either table.
//!
//! Direction state is the classic 2-bit saturating counter; untracked
//! branches fall back to backward-taken/forward-not-taken.

/// Geometry and access latency of a branch history table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BhtConfig {
    /// Total entries.
    pub entries: u32,
    /// Set associativity.
    pub ways: u32,
    /// Access latency in cycles; a predicted-taken branch injects this many
    /// fetch bubbles before the target can be fetched.
    pub access_cycles: u32,
}

impl BhtConfig {
    /// The shipped table: "16k-4w.2t".
    pub fn large_16k_4w_2t() -> Self {
        BhtConfig {
            entries: 16 * 1024,
            ways: 4,
            access_cycles: 2,
        }
    }

    /// The studied alternative: "4k-2w.1t".
    pub fn small_4k_2w_1t() -> Self {
        BhtConfig {
            entries: 4 * 1024,
            ways: 2,
            access_cycles: 1,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.entries / self.ways
    }
}

/// Counter bits of a way's second word, below the recency stamp.
const COUNTER: u64 = 0b11;

/// A tagged, set-associative branch history table.
///
/// The table is one flat array of `sets × ways` entries, a set's ways
/// side by side, each two words: the tag plus one (0 marks an empty way)
/// and `stamp << 2 | counter` (the clock at the way's last touch above
/// its 2-bit counter). A copy is one allocation and a `memcpy`, and a
/// cold table is all zeros, so it costs no memory until it trains. Ways
/// fill in order and are never emptied; stamps are distinct and an empty
/// way's is 0, so the way a miss installs into — the least recently used
/// — is the first empty way while the set fills.
///
/// # Examples
///
/// ```
/// use s64v_cpu::{Bht, BhtConfig};
///
/// let mut bht = Bht::new(BhtConfig::large_16k_4w_2t());
/// let pc = 0x4000;
/// bht.update(pc, true);
/// bht.update(pc, true);
/// assert!(bht.predict(pc));
/// ```
#[derive(Debug, Clone)]
pub struct Bht {
    config: BhtConfig,
    entries: Vec<[u64; 2]>,
    ways: usize,
    /// `sets − 1`, and `log2(sets)`: a word address's set and tag.
    set_mask: u64,
    tag_shift: u32,
    clock: u64,
}

impl Bht {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is divisible by `ways` into a power-of-two
    /// set count.
    pub fn new(config: BhtConfig) -> Self {
        assert!(config.ways >= 1, "BHT needs at least one way");
        assert_eq!(
            config.entries % config.ways,
            0,
            "entries must divide by ways"
        );
        let sets = config.sets();
        assert!(
            sets.is_power_of_two(),
            "BHT set count must be a power of two"
        );
        Bht {
            config,
            entries: vec![[0; 2]; config.entries as usize],
            ways: config.ways as usize,
            set_mask: sets as u64 - 1,
            tag_shift: sets.trailing_zeros(),
            clock: 0,
        }
    }

    /// The table's configuration.
    pub fn config(&self) -> &BhtConfig {
        &self.config
    }

    /// The ways of `pc`'s set, and the first word of its way if present.
    fn set(&self, pc: u64) -> (std::ops::Range<usize>, u64) {
        let word = pc / 4;
        let first = (word & self.set_mask) as usize * self.ways;
        (first..first + self.ways, (word >> self.tag_shift) + 1)
    }

    /// Static fallback when the branch has no table entry:
    /// backward branches (loops) predict taken, forward predict not-taken.
    /// Without target knowledge at lookup we approximate "backward" by the
    /// common case and predict not-taken; the first execution installs the
    /// entry.
    fn static_prediction() -> bool {
        false
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict(&mut self, pc: u64) -> bool {
        self.clock += 1;
        let (set, tag) = self.set(pc);
        match self.entries[set].iter_mut().find(|e| e[0] == tag) {
            Some(e) => {
                let counter = e[1] & COUNTER;
                e[1] = self.clock << 2 | counter;
                counter >= 2
            }
            None => Self::static_prediction(),
        }
    }

    /// Updates the table with a resolved branch outcome.
    pub fn update(&mut self, pc: u64, taken: bool) {
        self.clock += 1;
        let (set, tag) = self.set(pc);
        let set = &mut self.entries[set];
        if let Some(e) = set.iter_mut().find(|e| e[0] == tag) {
            let counter = e[1] & COUNTER;
            let counter = if taken {
                (counter + 1).min(3)
            } else {
                counter.saturating_sub(1)
            };
            e[1] = self.clock << 2 | counter;
            return;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|e| e[1])
            .expect("a set has at least one way");
        *victim = [tag, self.clock << 2 | if taken { 2 } else { 1 }];
    }

    /// Whether the branch at `pc` currently has a table entry (no LRU
    /// update; diagnostic helper).
    pub fn has_entry(&self, pc: u64) -> bool {
        let (set, tag) = self.set(pc);
        self.entries[set].iter().any(|e| e[0] == tag)
    }

    /// Number of installed entries (test helper).
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e[0] != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Bht {
        Bht::new(BhtConfig {
            entries: 8,
            ways: 2,
            access_cycles: 1,
        })
    }

    #[test]
    fn learns_a_taken_loop_branch() {
        let mut b = tiny();
        assert!(!b.predict(0x100), "cold: static not-taken");
        b.update(0x100, true);
        assert!(
            b.predict(0x100),
            "installed strongly enough to predict taken"
        );
        b.update(0x100, true);
        assert!(b.predict(0x100));
    }

    #[test]
    fn two_bit_hysteresis() {
        let mut b = tiny();
        for _ in 0..4 {
            b.update(0x40, true);
        }
        b.update(0x40, false); // one not-taken shouldn't flip a saturated counter
        assert!(b.predict(0x40));
        b.update(0x40, false);
        b.update(0x40, false);
        assert!(!b.predict(0x40));
    }

    #[test]
    fn capacity_displacement_loses_history() {
        let mut b = tiny(); // 4 sets × 2 ways
                            // Three branches mapping to the same set (stride = sets × 4 bytes).
        let stride = 4 * 4;
        let pcs = [0x0u64, stride, 2 * stride];
        for &pc in &pcs {
            b.update(pc, true);
            b.update(pc, true);
        }
        // Set holds 2 ways: the LRU one (pcs[0]) was displaced.
        assert!(
            !b.predict(pcs[0]),
            "displaced branch reverts to static prediction"
        );
        assert!(b.predict(pcs[2]));
    }

    #[test]
    fn bigger_table_retains_more_sites() {
        let small = BhtConfig::small_4k_2w_1t();
        let large = BhtConfig::large_16k_4w_2t();
        let mut sb = Bht::new(small);
        let mut lb = Bht::new(large);
        // 8K distinct always-taken branch sites (TPC-C-like population).
        let sites: Vec<u64> = (0..8 * 1024u64).map(|i| i * 4).collect();
        for _ in 0..2 {
            for &pc in &sites {
                sb.update(pc, true);
                lb.update(pc, true);
            }
        }
        let s_correct = sites.iter().filter(|&&pc| sb.predict(pc)).count();
        let l_correct = sites.iter().filter(|&&pc| lb.predict(pc)).count();
        assert!(
            l_correct > s_correct,
            "large table must retain more sites ({l_correct} vs {s_correct})"
        );
        assert_eq!(l_correct, sites.len(), "16K entries hold all 8K sites");
    }

    #[test]
    fn geometry_accessors() {
        assert_eq!(BhtConfig::large_16k_4w_2t().sets(), 4096);
        assert_eq!(BhtConfig::small_4k_2w_1t().sets(), 2048);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_geometry() {
        let _ = Bht::new(BhtConfig {
            entries: 12,
            ways: 2,
            access_cycles: 1,
        });
    }
}
