//! The per-core event wheel: timestamps delivered on their cycle.
//!
//! Everything in the pipeline that happens at a cycle known in advance —
//! an execution or address generation finishing, a load's issue slot, its
//! data return, a waiting entry's operands becoming ready, a speculative
//! load's confirm, a store drain releasing its queue entry — is armed here
//! when the time becomes known and handed back by [`Wheel::deliver`] on
//! exactly that cycle, so no phase polls the window for work whose time
//! has not come.
//!
//! The wheel is a calendar of `buckets` cycles (a power of two covering
//! the longest fixed execution latency). An event concerns one window
//! slot, so a bucket needs no list: per [`Lane`] (kind of event) it is a
//! bitmask over the window's slots, and arming an event is setting the
//! slot's bit in bucket `at & (buckets - 1)` and writing `at` into the
//! lane's per-slot *stamp*. The stamp is what makes an event real:
//!
//! * a bit whose slot's stamp is due (`<= now`) is delivered, and the
//!   stamp cleared;
//! * a bit whose stamp lies in the future *and hashes to this bucket* is
//!   an event further than one lap away — a data return from memory — and
//!   stays until its lap comes;
//! * any other bit is stale — the event was disarmed, or re-armed for
//!   another cycle — and is dropped. Nothing is ever searched for and
//!   removed.
//!
//! A slot has at most one armed event per lane; a step allocates nothing.

use crate::profile::{self, Work};

/// "No event": the stamp of a slot with nothing armed on a lane.
pub const NEVER: u64 = u64::MAX;

/// The kinds of event, each with its own stamps and bucket masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Lane {
    /// The window entry in the slot may complete: its execution, address
    /// generation, data return or store data is due.
    Complete,
    /// The dispatched load in the slot may take a cache port.
    Issue,
    /// The operands of the entry waiting in the slot become ready.
    Ready,
    /// The hit/miss outcome of the speculative load in the slot is known.
    Confirm,
    /// The draining store's queue entry is free (armed on slot 0: one
    /// store drains at a time).
    Release,
}

impl Lane {
    /// Every lane, in index order.
    pub const ALL: [Lane; 5] = [
        Lane::Complete,
        Lane::Issue,
        Lane::Ready,
        Lane::Confirm,
        Lane::Release,
    ];
}

const LANES: usize = Lane::ALL.len();

/// A calendar of per-slot events (see the module docs).
#[derive(Debug, Clone)]
pub struct Wheel {
    /// `stamps[lane * slots + slot]`: the cycle of the slot's armed event.
    stamps: Vec<u64>,
    /// `masks[(bucket * LANES + lane) * words + word]`: the slots with a
    /// bit in that bucket.
    masks: Vec<u64>,
    /// Per bucket, one bit per lane with any bit set in it.
    occupied: Vec<u8>,
    slots: usize,
    /// Mask words per (bucket, lane).
    words: usize,
    /// `buckets - 1`.
    bucket_mask: u64,
    /// Every event due at or before this cycle has been delivered.
    delivered: u64,
}

impl Wheel {
    /// An empty wheel over `slots` window slots whose lap covers `span`
    /// cycles (rounded up to a power of two, at least 64).
    pub fn new(span: u32, slots: usize) -> Self {
        let buckets = (span as usize).next_power_of_two().max(64);
        let words = slots.div_ceil(64);
        Wheel {
            stamps: vec![NEVER; LANES * slots],
            masks: vec![0; buckets * LANES * words],
            occupied: vec![0; buckets],
            slots,
            words,
            bucket_mask: buckets as u64 - 1,
            delivered: 0,
        }
    }

    #[inline]
    fn bucket_of(&self, cycle: u64) -> usize {
        (cycle & self.bucket_mask) as usize
    }

    /// Where in `masks` the word holding `slot`'s bit for an event on
    /// `lane` at cycle `at` is, and the bit.
    #[inline]
    fn bit_of(&self, lane: Lane, slot: usize, at: u64) -> (usize, u64) {
        let index = (self.bucket_of(at) * LANES + lane as usize) * self.words + slot / 64;
        (index, 1 << (slot % 64))
    }

    /// Arms `slot`'s event on `lane` for cycle `at`, which must lie after
    /// the last delivered cycle. An event armed for the slot on this lane
    /// before is thereby stale.
    #[inline]
    pub fn arm(&mut self, lane: Lane, slot: usize, at: u64) {
        debug_assert!(at > self.delivered, "an event in the past is lost");
        debug_assert!(at != NEVER);
        self.stamps[lane as usize * self.slots + slot] = at;
        let (index, bit) = self.bit_of(lane, slot, at);
        self.masks[index] |= bit;
        let bucket = self.bucket_of(at);
        self.occupied[bucket] |= 1 << lane as usize;
    }

    /// Withdraws whatever `slot` has armed on `lane`.
    #[inline]
    pub fn disarm(&mut self, lane: Lane, slot: usize) {
        self.stamps[lane as usize * self.slots + slot] = NEVER;
    }

    /// The cycle of the event `slot` has armed on `lane` ([`NEVER`] =
    /// none).
    #[inline]
    pub fn stamp(&self, lane: Lane, slot: usize) -> u64 {
        self.stamps[lane as usize * self.slots + slot]
    }

    /// Hands every event due at or before `now` to `receive` as `(lane,
    /// slot)`, lane by lane, and remembers `now` as delivered. Steps may
    /// skip cycles (a core that slept): the buckets of the skipped cycles
    /// are visited too, at most one lap of them.
    #[inline]
    pub fn deliver(&mut self, now: u64, mut receive: impl FnMut(Lane, usize)) {
        let skipped = now.saturating_sub(self.delivered).min(self.bucket_mask + 1);
        self.delivered = now;
        for back in 0..skipped {
            let bucket = self.bucket_of(now - back);
            if self.occupied[bucket] != 0 {
                self.sweep(bucket, now, &mut receive);
            }
        }
    }

    /// Delivers the due events of `bucket`, drops its stale bits and
    /// leaves later laps' events in place.
    fn sweep(&mut self, bucket: usize, now: u64, receive: &mut impl FnMut(Lane, usize)) {
        let mut lanes = self.occupied[bucket];
        while lanes != 0 {
            let lane = Lane::ALL[lanes.trailing_zeros() as usize];
            lanes &= lanes - 1;
            let stamps = &mut self.stamps[lane as usize * self.slots..][..self.slots];
            let masks =
                &mut self.masks[(bucket * LANES + lane as usize) * self.words..][..self.words];
            let mut kept = 0;
            for (word, mask) in masks.iter_mut().enumerate() {
                let mut bits = std::mem::take(mask);
                while bits != 0 {
                    let slot = word * 64 + bits.trailing_zeros() as usize;
                    let bit = bits & bits.wrapping_neg();
                    bits ^= bit;
                    let stamp = &mut stamps[slot];
                    if *stamp <= now {
                        *stamp = NEVER;
                        receive(lane, slot);
                    } else if *stamp != NEVER && (*stamp & self.bucket_mask) as usize == bucket {
                        *mask |= bit; // a later lap's
                    } else {
                        profile::count(Work::EventsStale, 1);
                    }
                }
                kept |= *mask;
            }
            if kept == 0 {
                self.occupied[bucket] &= !(1 << lane as usize);
            }
        }
    }

    /// The earliest cycle after `now` at which an event is armed, or
    /// [`NEVER`] if there is none. Buckets are read in calendar order from
    /// `now + 1`, and the search stops at the first bucket that cannot
    /// beat the best candidate, so the common case — something due within
    /// the lap — reads up to the next occupied bucket and no further.
    pub fn next_event(&self, now: u64) -> u64 {
        debug_assert!(now >= self.delivered);
        let mut best = NEVER;
        for ahead in 1..=self.bucket_mask + 1 {
            if now + ahead >= best {
                break;
            }
            let bucket = self.bucket_of(now + ahead);
            if self.occupied[bucket] == 0 {
                continue;
            }
            // The armed events with a bit here (stale bits passed over).
            for lane in Lane::ALL {
                for word in 0..self.words {
                    let mut bits = self.masks[(bucket * LANES + lane as usize) * self.words + word];
                    while bits != 0 {
                        let at = self.stamp(lane, word * 64 + bits.trailing_zeros() as usize);
                        bits &= bits - 1;
                        if at != NEVER && self.bucket_of(at) == bucket {
                            best = best.min(at);
                        }
                    }
                }
            }
        }
        best
    }

    /// Whether `slot`'s stamp on `lane` is backed by a bit in its bucket:
    /// an armed event that will be delivered. Checked mode's audit — a
    /// stamp without its bit is a lost event.
    pub fn is_scheduled(&self, lane: Lane, slot: usize) -> bool {
        let at = self.stamp(lane, slot);
        if at == NEVER {
            return false;
        }
        let (index, bit) = self.bit_of(lane, slot, at);
        self.masks[index] & bit != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Wheel {
        /// Loses the event armed for `slot` on `lane`: clears its bucket
        /// bit, keeps its stamp — the event is never delivered. Returns
        /// the cycle it was due.
        pub(crate) fn lose(&mut self, lane: Lane, slot: usize) -> u64 {
            let at = self.stamp(lane, slot);
            let (index, bit) = self.bit_of(lane, slot, at);
            self.masks[index] &= !bit;
            at
        }
    }

    fn delivered(wheel: &mut Wheel, now: u64) -> Vec<(Lane, usize)> {
        let mut out = Vec::new();
        wheel.deliver(now, |lane, slot| out.push((lane, slot)));
        out
    }

    #[test]
    fn an_event_arrives_on_its_cycle_and_not_before() {
        let mut w = Wheel::new(40, 64);
        w.arm(Lane::Complete, 1, 5);
        w.arm(Lane::Issue, 2, 7);
        w.arm(Lane::Complete, 3, 5);
        for now in 1..5 {
            assert!(delivered(&mut w, now).is_empty(), "cycle {now}");
        }
        assert_eq!(
            delivered(&mut w, 5),
            vec![(Lane::Complete, 1), (Lane::Complete, 3)]
        );
        assert!(delivered(&mut w, 6).is_empty());
        assert_eq!(delivered(&mut w, 7), vec![(Lane::Issue, 2)]);
        assert_eq!(w.stamp(Lane::Issue, 2), NEVER, "delivered once");
        assert!(delivered(&mut w, 7 + 64).is_empty());
    }

    #[test]
    fn lanes_are_independent() {
        let mut w = Wheel::new(40, 64);
        w.arm(Lane::Complete, 4, 9);
        w.arm(Lane::Ready, 4, 3);
        w.arm(Lane::Release, 0, 9);
        assert_eq!(delivered(&mut w, 3), vec![(Lane::Ready, 4)]);
        assert_eq!(
            delivered(&mut w, 9),
            vec![(Lane::Complete, 4), (Lane::Release, 0)]
        );
    }

    #[test]
    fn a_far_event_waits_in_its_bucket_until_its_lap() {
        let mut w = Wheel::new(40, 64); // 64 buckets
        let far = 3 + 64 * 3;
        w.arm(Lane::Complete, 9, far);
        w.arm(Lane::Complete, 1, 3);
        assert_eq!(delivered(&mut w, 3), vec![(Lane::Complete, 1)]);
        for now in 4..far {
            assert!(delivered(&mut w, now).is_empty(), "cycle {now}");
        }
        assert_eq!(delivered(&mut w, far), vec![(Lane::Complete, 9)]);
    }

    #[test]
    fn disarmed_and_rearmed_events_are_dropped_lazily() {
        let mut w = Wheel::new(40, 64);
        w.arm(Lane::Complete, 1, 10);
        w.arm(Lane::Complete, 2, 10);
        w.arm(Lane::Complete, 3, 10);
        w.disarm(Lane::Complete, 1); // cancelled
        w.arm(Lane::Complete, 2, 12); // moved later
        w.arm(Lane::Complete, 3, 8); // moved earlier
        assert_eq!(delivered(&mut w, 8), vec![(Lane::Complete, 3)]);
        assert!(delivered(&mut w, 10).is_empty(), "all three bits are stale");
        assert_eq!(delivered(&mut w, 12), vec![(Lane::Complete, 2)]);
        // The slot is reused: a stale bit never delivers the new event early
        // or twice.
        w.arm(Lane::Complete, 1, 40);
        w.arm(Lane::Complete, 1, 30);
        assert_eq!(delivered(&mut w, 30), vec![(Lane::Complete, 1)]);
        assert!(delivered(&mut w, 40).is_empty());
        assert!(
            w.occupied.iter().all(|&o| o == 0),
            "every stale bit is gone"
        );
    }

    #[test]
    fn skipped_cycles_are_delivered_by_the_next_step() {
        let mut w = Wheel::new(40, 64);
        w.arm(Lane::Complete, 1, 10);
        w.arm(Lane::Complete, 2, 500);
        w.arm(Lane::Complete, 3, 501);
        // A sleep to cycle 12, then one far longer than a lap.
        assert_eq!(delivered(&mut w, 12), vec![(Lane::Complete, 1)]);
        assert_eq!(delivered(&mut w, 500), vec![(Lane::Complete, 2)]);
        assert_eq!(delivered(&mut w, 900), vec![(Lane::Complete, 3)]);
    }

    #[test]
    fn next_event_reads_past_stale_and_far_entries() {
        let mut w = Wheel::new(40, 64);
        assert_eq!(w.next_event(0), NEVER);
        w.arm(Lane::Complete, 1, 9);
        w.arm(Lane::Issue, 2, 9 + 64);
        w.arm(Lane::Ready, 3, 30);
        assert_eq!(w.next_event(0), 9);
        assert_eq!(w.next_event(9), 30);
        w.disarm(Lane::Complete, 1);
        assert_eq!(w.next_event(0), 30);
        w.disarm(Lane::Ready, 3);
        assert_eq!(w.next_event(0), 73);
        w.disarm(Lane::Issue, 2);
        assert_eq!(w.next_event(0), NEVER);
    }

    #[test]
    fn wide_windows_use_several_mask_words() {
        let mut w = Wheel::new(40, 256);
        for slot in [0, 63, 64, 200, 255] {
            w.arm(Lane::Complete, slot, 6);
        }
        w.disarm(Lane::Complete, 200);
        let got: Vec<usize> = delivered(&mut w, 6).into_iter().map(|(_, s)| s).collect();
        assert_eq!(got, vec![0, 63, 64, 255]);
    }

    #[test]
    fn a_lost_event_keeps_its_stamp_and_never_arrives() {
        let mut w = Wheel::new(40, 64);
        w.arm(Lane::Confirm, 1, 4);
        w.arm(Lane::Complete, 2, 4);
        assert!(w.is_scheduled(Lane::Complete, 2));
        assert_eq!(w.lose(Lane::Complete, 2), 4);
        assert!(!w.is_scheduled(Lane::Complete, 2));
        assert_eq!(w.stamp(Lane::Complete, 2), 4);
        assert_eq!(delivered(&mut w, 4), vec![(Lane::Confirm, 1)]);
    }
}
