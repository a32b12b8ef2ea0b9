//! L1 operand cache banking.
//!
//! "The L1 operand cache is organized as eight banks, each of which is four
//! bytes. Two requests can be accepted per cycle unless they cause a bank
//! conflict. If they conflict, execution of a lower priority request is
//! aborted and retried in a later cycle." (§3.2)
//!
//! The bank of an access is determined by which 4-byte chunk of the line
//! interleave it touches; the conflict check itself lives in the core
//! model's load/store unit, which picks the two requests per cycle.

/// The address → bank mapping of one banked cache, worked out once: when
/// the bank count and width are powers of two (every shipped
/// configuration) selecting a bank is a shift and a mask, otherwise the
/// two divisions the definition asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankSelector {
    banks: u64,
    bank_bytes: u64,
    /// `(shift, mask)` when both are powers of two.
    fast: Option<(u32, u64)>,
}

impl BankSelector {
    /// The mapping for `banks` banks of `bank_bytes` bytes each.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or `bank_bytes` is zero.
    pub fn new(banks: u32, bank_bytes: u64) -> Self {
        assert!(banks > 0, "bank count must be positive");
        assert!(bank_bytes > 0, "bank width must be positive");
        let banks = banks as u64;
        let fast = (banks.is_power_of_two() && bank_bytes.is_power_of_two())
            .then(|| (bank_bytes.trailing_zeros(), banks - 1));
        BankSelector {
            banks,
            bank_bytes,
            fast,
        }
    }

    /// The bank index serving an access at `addr`.
    #[inline]
    pub fn bank(&self, addr: u64) -> u32 {
        match self.fast {
            Some((shift, mask)) => ((addr >> shift) & mask) as u32,
            None => ((addr / self.bank_bytes) % self.banks) as u32,
        }
    }
}

/// Returns the bank index serving an access at `addr`.
///
/// # Panics
///
/// Panics if `banks` is zero or `bank_bytes` is zero.
///
/// # Examples
///
/// ```
/// use s64v_mem::cache::bank_of;
///
/// // SPARC64 V: 8 banks × 4 bytes.
/// assert_eq!(bank_of(0x00, 8, 4), 0);
/// assert_eq!(bank_of(0x04, 8, 4), 1);
/// assert_eq!(bank_of(0x20, 8, 4), 0); // wraps after 8 × 4 bytes
/// ```
pub fn bank_of(addr: u64, banks: u32, bank_bytes: u64) -> u32 {
    BankSelector::new(banks, bank_bytes).bank(addr)
}

/// Whether two simultaneous accesses conflict on a bank.
pub fn conflicts(a: u64, b: u64, banks: u32, bank_bytes: u64) -> bool {
    bank_of(a, banks, bank_bytes) == bank_of(b, banks, bank_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaves_every_four_bytes() {
        for i in 0..8u64 {
            assert_eq!(bank_of(i * 4, 8, 4), i as u32);
        }
        assert_eq!(bank_of(8 * 4, 8, 4), 0);
    }

    #[test]
    fn sub_word_addresses_share_the_bank() {
        assert_eq!(bank_of(0x101, 8, 4), bank_of(0x102, 8, 4));
        assert_ne!(bank_of(0x103, 8, 4), bank_of(0x104, 8, 4));
    }

    #[test]
    fn conflict_predicate() {
        assert!(conflicts(0x00, 0x20, 8, 4)); // same bank, different lines
        assert!(!conflicts(0x00, 0x04, 8, 4));
    }

    #[test]
    fn shift_and_mask_agree_with_the_divisions() {
        for (banks, bank_bytes) in [(8, 4), (1, 1), (16, 8), (6, 4), (8, 12), (3, 5)] {
            let select = BankSelector::new(banks, bank_bytes);
            for addr in (0..4096u64).chain([u64::MAX - 7, u64::MAX]) {
                let by_definition = ((addr / bank_bytes) % banks as u64) as u32;
                assert_eq!(
                    select.bank(addr),
                    by_definition,
                    "{banks}x{bank_bytes} {addr:#x}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "bank count")]
    fn zero_banks_rejected() {
        let _ = bank_of(0, 0, 4);
    }
}
