//! MESI directory shared by the L2 caches.

use std::collections::HashMap;

/// MESI coherence state of a line in one CPU's L2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Mesi {
    /// Dirty, exclusive owner.
    Modified,
    /// Clean, exclusive owner.
    Exclusive,
    /// Clean, possibly replicated.
    Shared,
    /// Not present.
    #[default]
    Invalid,
}

impl Mesi {
    /// Whether the state holds valid data.
    pub fn is_valid(self) -> bool {
        self != Mesi::Invalid
    }
}

/// Where a read miss was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// No other cache held the line: data comes from memory; requester
    /// becomes Exclusive.
    FromMemory,
    /// Another CPU held the line Modified: a cache-to-cache *move-out*
    /// supplies the data (and the owner downgrades to Shared).
    MoveOut {
        /// The CPU that supplied the line.
        owner: usize,
    },
    /// Other CPUs held the line clean (Shared/Exclusive): data comes from
    /// memory (or an unmodeled clean transfer); requester becomes Shared.
    SharedFill,
}

/// What a write (store miss or upgrade) had to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Copies invalidated in other CPUs; which CPUs held them is
    /// [`Directory::invalidated`] until the next write.
    pub invalidations: u32,
    /// Whether a remote Modified copy had to be moved out first.
    pub move_out_from: Option<usize>,
    /// Whether the writer already held the line (upgrade rather than fill).
    pub was_upgrade: bool,
}

/// Central MESI directory over all CPUs' L2 caches.
///
/// The directory is the source of truth for sharing state; the L2 [`crate::cache::Cache`]
/// structures track presence/replacement and must be kept in sync by the
/// hierarchy (fills and evictions call into both).
#[derive(Debug, Clone)]
pub struct Directory {
    cores: usize,
    lines: HashMap<u64, Vec<Mesi>>,
    /// The CPUs whose copies the latest [`Directory::write`] invalidated.
    invalidated: Vec<usize>,
}

impl Directory {
    /// Creates a directory for `cores` CPUs.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "directory needs at least one core");
        Directory {
            cores,
            lines: HashMap::new(),
            invalidated: Vec::new(),
        }
    }

    /// Number of CPUs.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Current state of `line_addr` in `core`'s L2.
    pub fn state(&self, core: usize, line_addr: u64) -> Mesi {
        self.lines
            .get(&line_addr)
            .map(|v| v[core])
            .unwrap_or(Mesi::Invalid)
    }

    fn entry(&mut self, line_addr: u64) -> &mut Vec<Mesi> {
        let cores = self.cores;
        self.lines
            .entry(line_addr)
            .or_insert_with(|| vec![Mesi::Invalid; cores])
    }

    /// The CPUs whose valid copies the latest [`Directory::write`]
    /// invalidated, in index order: exactly the other CPUs that held the
    /// line before it, so the hierarchy touches only their caches.
    pub fn invalidated(&self) -> &[usize] {
        &self.invalidated
    }

    /// Handles a read miss by `core` for `line_addr`; transitions states
    /// and reports where the data came from.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn read(&mut self, core: usize, line_addr: u64) -> ReadOutcome {
        assert!(core < self.cores, "core {core} out of range");
        let states = self.entry(line_addr);
        debug_assert_eq!(states[core], Mesi::Invalid, "read miss on a valid line");

        let mut owner_m: Option<usize> = None;
        let mut any_valid = false;
        for (i, s) in states.iter_mut().enumerate() {
            match *s {
                Mesi::Modified => owner_m = Some(i),
                Mesi::Exclusive => {
                    *s = Mesi::Shared;
                    any_valid = true;
                }
                Mesi::Shared => any_valid = true,
                Mesi::Invalid => {}
            }
        }
        if let Some(owner) = owner_m {
            states[owner] = Mesi::Shared;
            states[core] = Mesi::Shared;
            ReadOutcome::MoveOut { owner }
        } else if any_valid {
            states[core] = Mesi::Shared;
            ReadOutcome::SharedFill
        } else {
            states[core] = Mesi::Exclusive;
            ReadOutcome::FromMemory
        }
    }

    /// Handles a write by `core` (store miss or upgrade of a clean copy):
    /// invalidates all other copies, moves out a remote Modified copy, and
    /// leaves the writer in Modified.
    pub fn write(&mut self, core: usize, line_addr: u64) -> WriteOutcome {
        assert!(core < self.cores, "core {core} out of range");
        // Taken out while the line's states borrow the directory.
        let mut invalidated = std::mem::take(&mut self.invalidated);
        invalidated.clear();
        let states = self.entry(line_addr);
        let was_upgrade = states[core].is_valid();
        let mut move_out_from = None;
        for (i, s) in states.iter_mut().enumerate() {
            if i == core || !s.is_valid() {
                continue;
            }
            if *s == Mesi::Modified {
                move_out_from = Some(i);
            }
            *s = Mesi::Invalid;
            invalidated.push(i);
        }
        states[core] = Mesi::Modified;
        self.invalidated = invalidated;
        WriteOutcome {
            invalidations: self.invalidated.len() as u32,
            move_out_from,
            was_upgrade,
        }
    }

    /// Records that `core` evicted `line_addr` from its L2. Returns whether
    /// the evicted copy was Modified (needs a write-back to memory).
    pub fn evict(&mut self, core: usize, line_addr: u64) -> bool {
        assert!(core < self.cores, "core {core} out of range");
        let Some(states) = self.lines.get_mut(&line_addr) else {
            return false;
        };
        let was_modified = states[core] == Mesi::Modified;
        states[core] = Mesi::Invalid;
        if states.iter().all(|s| !s.is_valid()) {
            self.lines.remove(&line_addr);
        }
        was_modified
    }

    /// Checks the MESI invariants for a line (test/debug helper):
    /// at most one Modified/Exclusive copy, and M/E never coexist with any
    /// other valid copy.
    pub fn check_invariants(&self, line_addr: u64) -> bool {
        let Some(states) = self.lines.get(&line_addr) else {
            return true;
        };
        let m = states.iter().filter(|s| **s == Mesi::Modified).count();
        let e = states.iter().filter(|s| **s == Mesi::Exclusive).count();
        let valid = states.iter().filter(|s| s.is_valid()).count();
        if m + e > 1 {
            return false;
        }
        if (m == 1 || e == 1) && valid > 1 {
            return false;
        }
        true
    }

    /// Lines with at least one valid copy (test helper).
    pub fn tracked_lines(&self) -> usize {
        self.lines.len()
    }

    /// Iterates over all tracked lines and their per-core states (for the
    /// checked-mode coherence sweep).
    pub fn lines(&self) -> impl Iterator<Item = (u64, &[Mesi])> {
        self.lines.iter().map(|(&addr, v)| (addr, v.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Directory {
        /// Sets `core`'s state for `line_addr` behind the protocol's back.
        pub(crate) fn force_state(&mut self, core: usize, line_addr: u64, state: Mesi) {
            self.entry(line_addr)[core] = state;
        }
    }

    #[test]
    fn first_reader_is_exclusive() {
        let mut d = Directory::new(4);
        assert_eq!(d.read(0, 0x40), ReadOutcome::FromMemory);
        assert_eq!(d.state(0, 0x40), Mesi::Exclusive);
        assert!(d.check_invariants(0x40));
    }

    #[test]
    fn second_reader_shares_and_downgrades_exclusive() {
        let mut d = Directory::new(2);
        d.read(0, 0x40);
        assert_eq!(d.read(1, 0x40), ReadOutcome::SharedFill);
        assert_eq!(d.state(0, 0x40), Mesi::Shared);
        assert_eq!(d.state(1, 0x40), Mesi::Shared);
        assert!(d.check_invariants(0x40));
    }

    #[test]
    fn reading_a_modified_line_is_a_move_out() {
        let mut d = Directory::new(2);
        d.write(0, 0x40);
        assert_eq!(d.state(0, 0x40), Mesi::Modified);
        assert_eq!(d.read(1, 0x40), ReadOutcome::MoveOut { owner: 0 });
        assert_eq!(d.state(0, 0x40), Mesi::Shared);
        assert!(d.check_invariants(0x40));
    }

    #[test]
    fn write_invalidates_all_sharers() {
        let mut d = Directory::new(3);
        d.read(0, 0x80);
        d.read(1, 0x80);
        let w = d.write(2, 0x80);
        assert_eq!(w.invalidations, 2);
        assert!(w.move_out_from.is_none());
        assert!(!w.was_upgrade);
        assert_eq!(d.state(0, 0x80), Mesi::Invalid);
        assert_eq!(d.state(2, 0x80), Mesi::Modified);
        assert!(d.check_invariants(0x80));
    }

    #[test]
    fn write_reports_exactly_the_pre_write_holders() {
        let mut d = Directory::new(6);
        // Shared by 1, 3 and 4; CPU 2 held it once and evicted it.
        for c in [1, 2, 3, 4] {
            d.read(c, 0x200);
        }
        d.evict(2, 0x200);
        let before: Vec<usize> = (0..6).filter(|&c| d.state(c, 0x200).is_valid()).collect();
        assert_eq!(before, vec![1, 3, 4]);
        // An upgrade by a sharer lists the other sharers, never itself.
        let w = d.write(3, 0x200);
        assert_eq!(d.invalidated(), [1, 4]);
        assert_eq!(w.invalidations, 2);
        // A write to a Modified line lists the one owner.
        let w = d.write(0, 0x200);
        assert_eq!(d.invalidated(), [3]);
        assert_eq!(w.move_out_from, Some(3));
        // A write nobody else holds lists nobody — also on a fresh line.
        d.write(0, 0x200);
        assert!(d.invalidated().is_empty());
        d.write(5, 0x240);
        assert!(d.invalidated().is_empty());
        for c in 0..6 {
            let expect = if c == 0 {
                Mesi::Modified
            } else {
                Mesi::Invalid
            };
            assert_eq!(d.state(c, 0x200), expect);
        }
    }

    #[test]
    fn upgrade_from_shared() {
        let mut d = Directory::new(2);
        d.read(0, 0xc0);
        d.read(1, 0xc0);
        let w = d.write(0, 0xc0);
        assert!(w.was_upgrade);
        assert_eq!(w.invalidations, 1);
    }

    #[test]
    fn write_steals_modified_line() {
        let mut d = Directory::new(2);
        d.write(0, 0x100);
        let w = d.write(1, 0x100);
        assert_eq!(w.move_out_from, Some(0));
        assert_eq!(d.state(0, 0x100), Mesi::Invalid);
        assert_eq!(d.state(1, 0x100), Mesi::Modified);
    }

    #[test]
    fn eviction_reports_dirty_and_cleans_up() {
        let mut d = Directory::new(2);
        d.write(0, 0x140);
        assert!(d.evict(0, 0x140));
        assert_eq!(d.tracked_lines(), 0);
        d.read(1, 0x140);
        assert!(!d.evict(1, 0x140));
    }

    #[test]
    fn single_core_degenerates_gracefully() {
        let mut d = Directory::new(1);
        assert_eq!(d.read(0, 0), ReadOutcome::FromMemory);
        d.evict(0, 0);
        let w = d.write(0, 0);
        assert_eq!(w.invalidations, 0);
    }
}
