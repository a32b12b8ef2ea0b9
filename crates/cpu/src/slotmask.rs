//! Bitmasks over the instruction window's ring of slots.
//!
//! The window addresses its entries by slot (`seq & (ring - 1)`), and ring
//! order from the head's slot is program order. So a set of in-flight
//! instructions — the entries due this cycle, a reservation station's
//! contents, a producer's consumers — is a mask of `ring / 64` words,
//! membership is a bit operation, and "oldest first" is a scan from the
//! head's slot. The first word is stored inline: a window of up to 64
//! entries (the production one) never follows a pointer, and rotating that
//! word by the head's slot turns ring order into bit order.

/// A set of window slots.
///
/// # Examples
///
/// ```
/// use s64v_cpu::slotmask::SlotMask;
///
/// let mut waiting = SlotMask::new(64);
/// for slot in [62, 1, 5] {
///     waiting.set(slot);
/// }
/// // The window's head is at slot 60: 62 is the oldest, then the ring wraps.
/// assert_eq!(waiting.iter_from(60).collect::<Vec<_>>(), vec![62, 1, 5]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotMask {
    /// Slots 0..64.
    first: u64,
    /// Slots 64.. (empty for rings of up to 64 slots).
    rest: Box<[u64]>,
}

impl SlotMask {
    /// An empty mask over a ring of `ring` slots.
    pub fn new(ring: usize) -> Self {
        SlotMask {
            first: 0,
            rest: vec![0; ring.div_ceil(64).saturating_sub(1)].into(),
        }
    }

    /// Mask words, the inline one included.
    #[inline]
    pub fn words(&self) -> usize {
        1 + self.rest.len()
    }

    #[inline]
    fn word(&self, index: usize) -> u64 {
        if index == 0 {
            self.first
        } else {
            self.rest[index - 1]
        }
    }

    #[inline]
    fn word_mut(&mut self, index: usize) -> &mut u64 {
        if index == 0 {
            &mut self.first
        } else {
            &mut self.rest[index - 1]
        }
    }

    /// Adds `slot`.
    #[inline]
    pub fn set(&mut self, slot: usize) {
        *self.word_mut(slot / 64) |= 1u64 << (slot % 64);
    }

    /// Removes `slot`.
    #[inline]
    pub fn clear(&mut self, slot: usize) {
        *self.word_mut(slot / 64) &= !(1u64 << (slot % 64));
    }

    /// Whether `slot` is in the set.
    #[inline]
    pub fn get(&self, slot: usize) -> bool {
        self.word(slot / 64) & (1u64 << (slot % 64)) != 0
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.first == 0 && self.rest.iter().all(|&w| w == 0)
    }

    /// Replaces the contents with `words` (one per mask word).
    #[inline]
    pub fn copy_from(&mut self, words: &[u64]) {
        self.first = words[0];
        self.rest.copy_from_slice(&words[1..]);
    }

    /// Adds the slots set in `words` (one per mask word).
    #[inline]
    pub fn union_with(&mut self, words: &[u64]) {
        self.first |= words[0];
        for (mine, theirs) in self.rest.iter_mut().zip(&words[1..]) {
            *mine |= theirs;
        }
    }

    /// The lowest set slot in `lo..hi`, if any. Costs one step per mask
    /// word in the range, not one per slot.
    fn first_in(&self, lo: usize, hi: usize) -> Option<usize> {
        let mut index = lo / 64;
        if index >= self.words() {
            return None;
        }
        let mut bits = self.word(index) & !((1u64 << (lo % 64)) - 1);
        loop {
            if bits != 0 {
                let slot = index * 64 + bits.trailing_zeros() as usize;
                return (slot < hi).then_some(slot);
            }
            index += 1;
            if index * 64 >= hi {
                return None;
            }
            bits = self.word(index);
        }
    }

    /// Removes and returns the first set slot at least `from` places
    /// behind `head_slot` in the order of a ring of `ring` slots (a power
    /// of two): `head_slot + from` up to the ring's end, then the wrapped
    /// part below `head_slot`.
    #[inline]
    pub fn take_from(&mut self, head_slot: usize, from: usize, ring: usize) -> Option<usize> {
        if self.rest.is_empty() {
            // One word: bring the head's slot down to bit 0, and bit
            // order is ring order.
            if self.first == 0 || from >= ring {
                return None;
            }
            let rotated = if ring == 64 {
                self.first.rotate_right(head_slot as u32)
            } else {
                ((self.first >> head_slot) | (self.first << (ring - head_slot)))
                    & ((1u64 << ring) - 1)
            };
            let behind = rotated >> from;
            if behind == 0 {
                return None;
            }
            let slot = (head_slot + from + behind.trailing_zeros() as usize) & (ring - 1);
            self.first &= !(1u64 << slot);
            return Some(slot);
        }
        let start = head_slot + from;
        let slot = self
            .first_in(start, ring)
            .or_else(|| self.first_in(start.saturating_sub(ring), head_slot))?;
        self.clear(slot);
        Some(slot)
    }

    /// Whether any slot is in both masks.
    #[inline]
    pub fn intersects(&self, other: &SlotMask) -> bool {
        self.first & other.first != 0
            || self
                .rest
                .iter()
                .zip(&other.rest[..])
                .any(|(a, b)| a & b != 0)
    }

    /// The first slot in ring order from `head_slot` that is in both this
    /// mask and `other`.
    #[inline]
    pub fn first_common_from(&self, other: &SlotMask, head_slot: usize) -> Option<usize> {
        if self.rest.is_empty() {
            // One word: bits at and above a shorter ring's length are
            // never set, so rotating the whole word keeps the order.
            let rotated = (self.first & other.first).rotate_right(head_slot as u32);
            return (rotated != 0).then(|| (head_slot + rotated.trailing_zeros() as usize) % 64);
        }
        self.iter_common_from(other, head_slot).next()
    }

    /// The set slots in ring order from `head_slot` — program order, when
    /// the mask holds live entries only.
    #[inline]
    pub fn iter_from(&self, head_slot: usize) -> impl Iterator<Item = usize> + '_ {
        self.iter_common_from(self, head_slot)
    }

    /// The slots in both this mask and `other`, in ring order from
    /// `head_slot`.
    #[inline]
    pub fn iter_common_from<'a>(
        &'a self,
        other: &'a SlotMask,
        head_slot: usize,
    ) -> impl Iterator<Item = usize> + 'a {
        let one_word = self.rest.is_empty();
        let ring = self.words() * 64;
        // One word: bits at and above a shorter ring's length are never
        // set, so rotating the whole word keeps the order.
        let mut rotated = (self.first & other.first).rotate_right(head_slot as u32);
        let mut next = head_slot;
        std::iter::from_fn(move || {
            if one_word {
                if rotated == 0 {
                    return None;
                }
                let behind = rotated.trailing_zeros() as usize;
                rotated &= rotated - 1;
                return Some((head_slot + behind) % 64);
            }
            loop {
                let slot = self
                    .first_in(next, ring)
                    .or_else(|| self.first_in(next.saturating_sub(ring), head_slot))?;
                // Past the wrap, positions count on from the ring's end.
                next = if slot < head_slot {
                    slot + ring + 1
                } else {
                    slot + 1
                };
                if other.get(slot) {
                    return Some(slot);
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask(ring: usize, slots: &[usize]) -> SlotMask {
        let mut m = SlotMask::new(ring);
        for &s in slots {
            m.set(s);
        }
        m
    }

    /// Drains `m` with `take_from` the way a work-list walk does: each
    /// call starts one place behind the previous answer.
    fn drain(mut m: SlotMask, head_slot: usize, ring: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut from = 0;
        while let Some(slot) = m.take_from(head_slot, from, ring) {
            from = (slot + ring - head_slot) % ring + 1;
            out.push(slot);
        }
        assert!(m.is_empty());
        out
    }

    #[test]
    fn ring_order_starts_at_the_head_and_wraps() {
        let m = mask(64, &[1, 5, 40, 63]);
        assert_eq!(m.iter_from(0).collect::<Vec<_>>(), vec![1, 5, 40, 63]);
        assert_eq!(m.iter_from(6).collect::<Vec<_>>(), vec![40, 63, 1, 5]);
        assert_eq!(m.iter_from(63).collect::<Vec<_>>(), vec![63, 1, 5, 40]);
        assert_eq!(m.iter_from(5).collect::<Vec<_>>(), vec![5, 40, 63, 1]);
        for head in [0, 5, 6, 41, 63] {
            assert_eq!(
                drain(m.clone(), head, 64),
                m.iter_from(head).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn ring_order_spans_mask_words() {
        let m = mask(256, &[0, 63, 64, 130, 255]);
        assert_eq!(
            m.iter_from(100).collect::<Vec<_>>(),
            vec![130, 255, 0, 63, 64]
        );
        assert_eq!(
            m.iter_from(64).collect::<Vec<_>>(),
            vec![64, 130, 255, 0, 63]
        );
        for head in [0, 64, 100, 131, 255] {
            assert_eq!(
                drain(m.clone(), head, 256),
                m.iter_from(head).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn common_slots_keep_ring_order() {
        let a = mask(64, &[1, 5, 40, 63]);
        let b = mask(64, &[5, 6, 63]);
        assert_eq!(a.iter_common_from(&b, 50).collect::<Vec<_>>(), vec![63, 5]);
        assert_eq!(a.first_common_from(&b, 50), Some(63));
        assert_eq!(a.first_common_from(&b, 0), Some(5));
        assert_eq!(a.first_common_from(&mask(64, &[2]), 0), None);
        assert!(a.intersects(&b) && !a.intersects(&mask(64, &[2])));
        let a = mask(256, &[0, 63, 64, 130, 255]);
        let b = mask(256, &[64, 255, 7]);
        assert_eq!(
            a.iter_common_from(&b, 100).collect::<Vec<_>>(),
            vec![255, 64]
        );
        assert_eq!(a.first_common_from(&b, 100), Some(255));
        assert_eq!(a.first_common_from(&b, 0), Some(64));
        assert!(a.intersects(&b) && !a.intersects(&mask(256, &[7, 200])));
    }

    #[test]
    fn small_rings_use_part_of_a_word() {
        let m = mask(8, &[0, 3, 7]);
        assert_eq!(m.iter_from(4).collect::<Vec<_>>(), vec![7, 0, 3]);
        assert_eq!(drain(m.clone(), 4, 8), vec![7, 0, 3]);
        assert_eq!(drain(m.clone(), 0, 8), vec![0, 3, 7]);
        assert!(SlotMask::new(8).iter_from(3).next().is_none());
    }

    #[test]
    fn taking_skips_what_is_nearer_the_head_than_asked() {
        // A listed entry that was put back (a load that lost arbitration)
        // is not found again by the same walk.
        let mut m = mask(8, &[6, 1]);
        assert_eq!(m.take_from(5, 0, 8), Some(6));
        m.set(6);
        assert_eq!(m.take_from(5, 2, 8), Some(1));
        assert_eq!(m.take_from(5, 5, 8), None);
        assert_eq!(m.take_from(5, 0, 8), Some(6));

        let mut m = mask(128, &[100, 3]);
        assert_eq!(m.take_from(90, 11, 128), Some(3));
        assert_eq!(m.take_from(90, 42, 128), None);
        assert_eq!(m.take_from(90, 10, 128), Some(100));
    }

    #[test]
    fn first_in_respects_both_bounds() {
        let m = mask(128, &[10, 70]);
        assert_eq!(m.first_in(0, 128), Some(10));
        assert_eq!(m.first_in(11, 128), Some(70));
        assert_eq!(m.first_in(11, 70), None);
        assert_eq!(m.first_in(71, 128), None);
        assert_eq!(m.first_in(128, 128), None);
    }
}
