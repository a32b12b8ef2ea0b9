//! Reservation stations (§3, §4.4.1).
//!
//! Four kinds: RSE (integer, 2×8), RSF (floating point, 2×8), RSA (address
//! generation, 10) and RSBR (branch, 10). In the shipped "2RS" scheme each
//! RSE/RSF buffer is hard-wired to one execution unit and dispatches at
//! most one operation per cycle; the studied "1RS" alternative pools the
//! entries and dispatches up to two per cycle to either unit.
//!
//! A buffer is a bitmask over the instruction window's slots: the entry in
//! window slot `s` waits in the buffer whose bit `s` is set. Ring order
//! from the window head's slot *is* age order, so insertion, removal and
//! the return of a cancelled instruction are bit operations, and "oldest
//! ready first" is a scan from the head's slot. Every method that orders
//! by age takes that slot.

use crate::config::{CoreConfig, RsScheme};
use crate::profile::{self, Work};
use crate::slotmask::SlotMask;
use s64v_isa::RsKind;

/// One dispatch picked by [`ReservationStations::select_dispatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pick {
    /// Window slot of the entry.
    pub slot: u16,
    /// Execution unit it goes to.
    pub unit: u8,
    /// Buffer it left.
    pub buffer: u8,
}

/// One buffer: the entries waiting in it, the cancelled entries parked
/// until it has room again, and its size.
#[derive(Debug, Clone)]
struct Buffer {
    waiting: SlotMask,
    len: usize,
    capacity: usize,
    /// Cancelled instructions whose home buffer refilled before they
    /// could return. They re-enter as slots free, oldest first, so
    /// physical capacity is never exceeded.
    parked: SlotMask,
}

impl Buffer {
    fn new(ring: usize, capacity: usize) -> Self {
        Buffer {
            waiting: SlotMask::new(ring),
            len: 0,
            capacity,
            parked: SlotMask::new(ring),
        }
    }

    fn has_space(&self) -> bool {
        self.len < self.capacity
    }

    fn insert(&mut self, slot: usize) {
        debug_assert!(!self.waiting.get(slot), "slot {slot} is already waiting");
        self.waiting.set(slot);
        self.len += 1;
    }

    fn remove(&mut self, slot: usize) {
        self.waiting.clear(slot);
        self.len -= 1;
    }
}

/// All reservation stations of one core.
#[derive(Debug, Clone)]
pub struct ReservationStations {
    scheme: RsScheme,
    /// Per kind (in [`RsKind::ALL`] order) its buffers: two for RSE/RSF
    /// in the split scheme, otherwise only the first is used (and holds
    /// the kind's whole capacity).
    buffers: [[Buffer; 2]; 4],
    steer: [u8; 4],
    /// Parked entries over all buffers.
    parked: usize,
    /// Fault-injection: slots reported as stuck-held per kind (in
    /// [`RsKind::ALL`] order). Always zero outside seeded fault runs.
    stuck: [usize; 4],
}

fn kind_index(kind: RsKind) -> usize {
    match kind {
        RsKind::Rse => 0,
        RsKind::Rsf => 1,
        RsKind::Rsa => 2,
        RsKind::Rsbr => 3,
    }
}

impl ReservationStations {
    /// Creates empty stations per the core configuration.
    pub fn new(cfg: &CoreConfig) -> Self {
        let ring = (cfg.window_size as usize).next_power_of_two();
        let split = cfg.rs_scheme == RsScheme::Split;
        // (first buffer, second buffer) capacities.
        let pair = |per_buffer: u32| {
            let n = per_buffer as usize;
            if split {
                (n, n)
            } else {
                (2 * n, 0)
            }
        };
        let buffers = [
            pair(cfg.rse_entries),
            pair(cfg.rsf_entries),
            (cfg.rsa_entries as usize, 0),
            (cfg.rsbr_entries as usize, 0),
        ]
        .map(|(first, second)| [Buffer::new(ring, first), Buffer::new(ring, second)]);
        ReservationStations {
            scheme: cfg.rs_scheme,
            buffers,
            steer: [0; 4],
            parked: 0,
            stuck: [0; 4],
        }
    }

    /// Whether `kind` steers between two buffers.
    fn is_split(&self, kind: RsKind) -> bool {
        self.scheme == RsScheme::Split && matches!(kind, RsKind::Rse | RsKind::Rsf)
    }

    /// Whether an entry of `kind` can be inserted.
    pub fn has_space(&self, kind: RsKind) -> bool {
        self.buffers[kind_index(kind)].iter().any(Buffer::has_space)
    }

    /// Inserts the entry in window slot `slot` into a station of `kind`,
    /// returning the buffer index it was steered to (always 0 except
    /// RSE/RSF in the split scheme), or `None` if every eligible buffer is
    /// full.
    ///
    /// Decode gates every allocation on [`Self::has_space`], so a `None`
    /// is unreachable by construction on the simulation path; the
    /// occupancy-within-capacity condition itself is audited as an
    /// integrity invariant in checked mode.
    pub fn try_insert(&mut self, kind: RsKind, slot: usize) -> Option<u8> {
        let k = kind_index(kind);
        let buffer = if self.is_split(kind) {
            // Round-robin steering, skipping a full buffer.
            let first = (self.steer[k] % 2) as usize;
            self.steer[k] = self.steer[k].wrapping_add(1);
            [first, 1 - first]
                .into_iter()
                .find(|&b| self.buffers[k][b].has_space())?
        } else {
            self.buffers[k][0].has_space().then_some(0)?
        };
        self.buffers[k][buffer].insert(slot);
        Some(buffer as u8)
    }

    /// Returns a cancelled instruction to the buffer it came from; its
    /// window slot puts it back in age order. Decode may have refilled the
    /// place freed at dispatch; in that case the instruction is parked and
    /// re-enters via [`Self::drain_replays`] once a place frees, so the
    /// station never physically exceeds its capacity.
    pub fn reinsert(&mut self, kind: RsKind, buffer: u8, slot: usize) {
        let home = &mut self.buffers[kind_index(kind)][buffer as usize];
        if home.has_space() {
            home.insert(slot);
        } else {
            home.parked.set(slot);
            self.parked += 1;
        }
    }

    /// Moves parked replays back into their home buffers, oldest first, as
    /// far as freed places allow. Call once per cycle after dispatch and
    /// before decode allocates new entries.
    pub fn drain_replays(&mut self, head_slot: usize) {
        if self.parked == 0 {
            return;
        }
        for home in self.buffers.iter_mut().flatten() {
            while home.has_space() {
                let Some(slot) = home.parked.iter_from(head_slot).next() else {
                    break;
                };
                home.parked.clear(slot);
                home.insert(slot);
                self.parked -= 1;
            }
        }
    }

    /// Selects and removes this cycle's dispatches for `kind`, oldest
    /// ready first (`head_slot` is the window head's slot).
    ///
    /// `ready` holds the window slots whose operands allow dispatch; bit
    /// `u` of `free_units` says execution unit `u` can accept an operation
    /// (units are 0/1 for RSE/RSF/RSA, 0 for RSBR). At most two entries
    /// dispatch per kind per cycle.
    pub fn select_dispatch(
        &mut self,
        kind: RsKind,
        head_slot: usize,
        ready: &SlotMask,
        free_units: u8,
    ) -> [Option<Pick>; 2] {
        let mut picks = [None; 2];
        let split = self.is_split(kind);
        let buffers = &mut self.buffers[kind_index(kind)];
        // The oldest ready entry of `buffer` leaves it for `unit`.
        let pick = |buffer: &mut Buffer, b: usize, unit: u8| {
            let slot = buffer.waiting.first_common_from(ready, head_slot)?;
            profile::count(Work::Selected, 1);
            buffer.remove(slot);
            Some(Pick {
                slot: slot as u16,
                unit,
                buffer: b as u8,
            })
        };
        if split {
            // One dispatch per buffer, each wired to its own unit.
            for (b, buffer) in buffers.iter_mut().enumerate() {
                if free_units & (1 << b) != 0 {
                    picks[b] = pick(buffer, b, b as u8);
                }
            }
        } else {
            // Pooled: oldest-ready entries dispatch to free units 0 then
            // 1 (the branch station has the one unit).
            let units = if kind == RsKind::Rsbr { 1 } else { 2 };
            let free = (0..units).filter(|&u| free_units & (1 << u) != 0);
            for (picked, unit) in picks.iter_mut().zip(free) {
                *picked = pick(&mut buffers[0], 0, unit);
                if picked.is_none() {
                    break;
                }
            }
        }
        picks
    }

    /// Whether any entry waiting in a station of `kind` (parked replays
    /// aside) is among `ready`.
    pub fn any_ready(&self, kind: RsKind, ready: &SlotMask) -> bool {
        self.buffers[kind_index(kind)]
            .iter()
            .any(|b| b.waiting.intersects(ready))
    }

    /// Whether the entry in window slot `slot` waits in (or is parked
    /// for) buffer `buffer` of `kind` — checked mode's audit.
    pub fn holds(&self, kind: RsKind, buffer: u8, slot: usize) -> bool {
        let home = &self.buffers[kind_index(kind)][buffer as usize];
        home.waiting.get(slot) || home.parked.get(slot)
    }

    /// Total entries waiting in stations of `kind` (stuck-slot faults
    /// count as held entries).
    pub fn occupancy(&self, kind: RsKind) -> usize {
        let k = kind_index(kind);
        self.buffers[k].iter().map(|b| b.len).sum::<usize>() + self.stuck[k]
    }

    /// Configured capacity of stations of `kind` (both buffers combined
    /// for RSE/RSF).
    pub fn capacity(&self, kind: RsKind) -> usize {
        self.buffers[kind_index(kind)]
            .iter()
            .map(|b| b.capacity)
            .sum()
    }

    /// Fault-injection hook: marks `n` slots of `kind` as stuck-held, as
    /// if a release was lost. The slots never free and never dispatch, so
    /// the reported occupancy drifts past the capacity — exactly the
    /// corruption the integrity auditor's RS invariant exists to catch.
    #[doc(hidden)]
    pub fn fault_stall_slots(&mut self, kind: RsKind, n: usize) {
        self.stuck[kind_index(kind)] += n;
    }

    /// Whether any cancelled instruction is parked awaiting a free place
    /// (parked work re-enters as places free, so it counts as per-cycle
    /// activity for the quiescence test).
    pub fn has_parked(&self) -> bool {
        self.parked > 0
    }

    /// Whether every station is empty (parked replays included).
    pub fn is_empty(&self) -> bool {
        RsKind::ALL.iter().all(|&k| self.occupancy(k) == 0) && self.parked == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;

    fn split() -> ReservationStations {
        ReservationStations::new(&CoreConfig::sparc64_v())
    }

    fn unified() -> ReservationStations {
        ReservationStations::new(&CoreConfig::sparc64_v().with_unified_rs())
    }

    /// The window slots picked, in pick order (the window head at slot 0,
    /// so slot order is age order).
    fn slots(picks: [Option<Pick>; 2]) -> Vec<usize> {
        picks.iter().flatten().map(|p| p.slot as usize).collect()
    }

    /// Selects with the slots `ready` accepts marked ready.
    fn select(
        rs: &mut ReservationStations,
        kind: RsKind,
        head_slot: usize,
        ready: impl Fn(usize) -> bool,
        unit_free: impl Fn(u8) -> bool,
    ) -> [Option<Pick>; 2] {
        let mut marks = SlotMask::new(64);
        for slot in (0..64).filter(|&s| ready(s)) {
            marks.set(slot);
        }
        let free_units = (0..2).filter(|&u| unit_free(u)).fold(0, |m, u| m | 1 << u);
        rs.select_dispatch(kind, head_slot, &marks, free_units)
    }

    #[test]
    fn split_rse_dispatches_one_per_buffer() {
        let mut rs = split();
        // Steered round-robin: slots 0,2 -> buffer 0; 1,3 -> buffer 1.
        for s in 0..4 {
            rs.try_insert(RsKind::Rse, s);
        }
        let picked = select(&mut rs, RsKind::Rse, 0, |_| true, |_| true);
        // One from each buffer, to its own unit.
        let units: Vec<u8> = picked.iter().flatten().map(|p| p.unit).collect();
        assert_eq!(units, vec![0, 1]);
        assert_eq!(rs.occupancy(RsKind::Rse), 2);
    }

    #[test]
    fn split_cannot_dispatch_two_from_one_buffer() {
        let mut rs = split();
        let b0 = rs.try_insert(RsKind::Rse, 0);
        let b1 = rs.try_insert(RsKind::Rse, 1);
        assert_ne!(b0, b1, "round-robin steering");
        // Only the entry in buffer 0 is ready.
        let picked = select(&mut rs, RsKind::Rse, 0, |s| s == 0, |_| true);
        assert_eq!(
            slots(picked).len(),
            1,
            "buffer 1's entry is not ready; its unit idles"
        );
    }

    #[test]
    fn unified_dispatches_two_from_the_pool() {
        let mut rs = unified();
        for s in 0..4 {
            rs.try_insert(RsKind::Rse, s);
        }
        // Entries 2 and 3 ready: the pooled scheme can still dispatch both.
        let picked = select(&mut rs, RsKind::Rse, 0, |s| s >= 2, |_| true);
        assert_eq!(slots(picked), vec![2, 3]);
        assert_eq!(rs.occupancy(RsKind::Rse), 2);
    }

    #[test]
    fn oldest_ready_first() {
        let mut rs = split();
        for s in 0..3 {
            rs.try_insert(RsKind::Rsa, s);
        }
        let picked = select(&mut rs, RsKind::Rsa, 0, |s| s != 0, |_| true);
        assert_eq!(
            slots(picked),
            vec![1, 2],
            "skip not-ready oldest, take next two"
        );
    }

    #[test]
    fn age_order_follows_the_window_head_around_the_ring() {
        let mut rs = split();
        // The window has wrapped: slots 62, 63 are older than 0, 1.
        for s in [62, 63, 0, 1] {
            rs.try_insert(RsKind::Rsa, s);
        }
        let picked = select(&mut rs, RsKind::Rsa, 62, |s| s != 62, |_| true);
        assert_eq!(slots(picked), vec![63, 0]);
    }

    #[test]
    fn rsbr_dispatches_at_most_one() {
        let mut rs = split();
        for s in 0..3 {
            rs.try_insert(RsKind::Rsbr, s);
        }
        let picked = select(&mut rs, RsKind::Rsbr, 0, |_| true, |_| true);
        assert_eq!(slots(picked), vec![0]);
    }

    #[test]
    fn busy_unit_blocks_its_buffer() {
        let mut rs = split();
        rs.try_insert(RsKind::Rse, 0); // buffer 0
        let picked = select(&mut rs, RsKind::Rse, 0, |_| true, |u| u != 0);
        assert!(
            slots(picked).is_empty(),
            "unit 0 busy, buffer 0 cannot dispatch"
        );
    }

    #[test]
    fn capacity_checks() {
        let mut rs = split();
        for s in 0..16 {
            assert!(rs.has_space(RsKind::Rse));
            rs.try_insert(RsKind::Rse, s);
        }
        assert!(!rs.has_space(RsKind::Rse));
        assert_eq!(rs.try_insert(RsKind::Rse, 16), None);
        for s in 20..30 {
            rs.try_insert(RsKind::Rsa, s);
        }
        assert!(!rs.has_space(RsKind::Rsa));
    }

    #[test]
    fn reinsert_restores_age_order() {
        let mut rs = split();
        rs.try_insert(RsKind::Rsa, 0);
        rs.try_insert(RsKind::Rsa, 2);
        rs.reinsert(RsKind::Rsa, 0, 1);
        let picked = select(&mut rs, RsKind::Rsa, 0, |_| true, |_| true);
        assert_eq!(
            slots(picked),
            vec![0, 1],
            "reinserted entry sits between its neighbours"
        );
    }

    #[test]
    fn replay_into_a_refilled_buffer_parks_instead_of_overflowing() {
        let mut rs = split();
        for s in 0..16 {
            rs.try_insert(RsKind::Rse, s);
        }
        // Dispatch slot 0 from buffer 0, then let decode refill the place.
        let picked = select(&mut rs, RsKind::Rse, 0, |s| s == 0, |_| true);
        assert_eq!(slots(picked), vec![0]);
        assert_eq!(rs.try_insert(RsKind::Rse, 16), Some(0));
        assert!(!rs.has_space(RsKind::Rse));

        // The cancelled instruction finds its home buffer full: it must
        // park rather than push the station past its physical capacity.
        rs.reinsert(RsKind::Rse, 0, 0);
        assert!(rs.has_parked());
        rs.drain_replays(0);
        assert_eq!(rs.occupancy(RsKind::Rse), 16);
        assert!(rs.has_parked() && !rs.is_empty());

        // Once a place frees, the parked entry re-enters with age priority.
        let picked = select(&mut rs, RsKind::Rse, 0, |s| s == 2, |_| true);
        assert_eq!(slots(picked), vec![2]);
        rs.drain_replays(0);
        assert!(!rs.has_parked());
        assert_eq!(rs.occupancy(RsKind::Rse), 16);
        let picked = select(&mut rs, RsKind::Rse, 0, |_| true, |u| u == 0);
        assert_eq!(
            slots(picked),
            vec![0],
            "the replayed entry is oldest in buffer 0"
        );
    }

    #[test]
    fn unified_pool_has_double_capacity() {
        let mut rs = unified();
        for s in 0..16 {
            assert!(rs.has_space(RsKind::Rse), "entry {s} must fit");
            rs.try_insert(RsKind::Rse, s);
        }
        assert!(!rs.has_space(RsKind::Rse));
    }
}
