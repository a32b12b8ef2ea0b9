//! Architectural register names.
//!
//! SPARC-V9 exposes 32 visible integer registers (through register windows)
//! and 64 single-precision / 32 double-precision floating-point registers.
//! The performance model only needs stable *names* to track dependences, so
//! we model a flat space of [`NUM_INT_REGS`] integer and [`NUM_FP_REGS`]
//! floating-point registers plus a condition-code register. Register-window
//! save/restore traffic is represented in traces as `Special` instructions
//! (see the workload generators), not by renaming extra windowed names.

use std::fmt;
use std::num::NonZeroU8;

/// Number of architectural integer register names.
pub const NUM_INT_REGS: u8 = 32;
/// Number of architectural floating-point register names (double-precision
/// granularity, as used by the SPARC64 V FP pipes).
pub const NUM_FP_REGS: u8 = 32;

/// The class of an architectural register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegClass {
    /// General-purpose integer register (`%g`, `%o`, `%l`, `%i`).
    Int,
    /// Floating-point register (`%f`, double-precision granularity).
    Fp,
    /// Integer condition codes (`%icc`/`%xcc`), written by compare ops and
    /// read by conditional branches.
    Cc,
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegClass::Int => write!(f, "int"),
            RegClass::Fp => write!(f, "fp"),
            RegClass::Cc => write!(f, "cc"),
        }
    }
}

/// An architectural register name: a class plus an index within the class.
///
/// `Reg::int(0)` is the SPARC `%g0` hard-wired zero register: it is never a
/// real dependence and the core model treats it as always-ready.
///
/// A name is one byte holding its [dense index](Reg::dense_index) plus one,
/// so `Option<Reg>` is one byte too and a trace record's four register
/// slots cost four bytes. The dense numbering lists the classes in order,
/// so the derived `Ord` is the `(class, index)` order.
///
/// # Examples
///
/// ```
/// use s64v_isa::{Reg, RegClass};
///
/// let r = Reg::int(5);
/// assert_eq!(r.class(), RegClass::Int);
/// assert_eq!(r.index(), 5);
/// assert!(Reg::int(0).is_zero());
/// assert!(!Reg::fp(0).is_zero());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(NonZeroU8);

const FP_BASE: u8 = NUM_INT_REGS;
const CC_DENSE: u8 = NUM_INT_REGS + NUM_FP_REGS;

impl Reg {
    /// Creates an integer register name.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_INT_REGS`.
    pub fn int(index: u8) -> Self {
        assert!(
            index < NUM_INT_REGS,
            "integer register index {index} out of range"
        );
        Self::dense(index)
    }

    /// Creates a floating-point register name.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_FP_REGS`.
    pub fn fp(index: u8) -> Self {
        assert!(
            index < NUM_FP_REGS,
            "fp register index {index} out of range"
        );
        Self::dense(FP_BASE + index)
    }

    /// The condition-code register.
    pub fn cc() -> Self {
        Self::dense(CC_DENSE)
    }

    /// The register whose [`Reg::dense_index`] is `dense`, or `None` if
    /// `dense >= Reg::DENSE_COUNT`.
    pub fn from_dense(dense: usize) -> Option<Self> {
        (dense < Self::DENSE_COUNT).then(|| Self::dense(dense as u8))
    }

    fn dense(dense: u8) -> Self {
        Reg(NonZeroU8::new(dense + 1).expect("dense index is below 255"))
    }

    /// The register's class.
    pub fn class(self) -> RegClass {
        match self.dense_u8() {
            d if d < FP_BASE => RegClass::Int,
            d if d < CC_DENSE => RegClass::Fp,
            _ => RegClass::Cc,
        }
    }

    /// The register's index within its class.
    pub fn index(self) -> u8 {
        match self.class() {
            RegClass::Int => self.dense_u8(),
            RegClass::Fp => self.dense_u8() - FP_BASE,
            RegClass::Cc => 0,
        }
    }

    /// Whether this is the hard-wired integer zero register `%g0`.
    ///
    /// Reads of `%g0` never create a dependence and writes to it are
    /// discarded, so the core model skips it during renaming.
    pub fn is_zero(self) -> bool {
        self.dense_u8() == 0
    }

    /// A dense index unique across all register classes, usable as a table
    /// key in rename maps (`0..NUM_INT_REGS` int, then fp, then cc).
    pub fn dense_index(self) -> usize {
        self.dense_u8() as usize
    }

    fn dense_u8(self) -> u8 {
        self.0.get() - 1
    }

    /// Total number of dense indices ([`Reg::dense_index`] is `< DENSE_COUNT`).
    pub const DENSE_COUNT: usize = CC_DENSE as usize + 1;
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Reg")
            .field("class", &self.class())
            .field("index", &self.index())
            .finish()
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class() {
            RegClass::Int => write!(f, "%r{}", self.index()),
            RegClass::Fp => write!(f, "%f{}", self.index()),
            RegClass::Cc => write!(f, "%cc"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_is_only_g0() {
        assert!(Reg::int(0).is_zero());
        assert!(!Reg::int(1).is_zero());
        assert!(!Reg::fp(0).is_zero());
        assert!(!Reg::cc().is_zero());
    }

    #[test]
    fn dense_indices_are_unique_and_bounded() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..NUM_INT_REGS {
            assert!(seen.insert(Reg::int(i).dense_index()));
        }
        for i in 0..NUM_FP_REGS {
            assert!(seen.insert(Reg::fp(i).dense_index()));
        }
        assert!(seen.insert(Reg::cc().dense_index()));
        assert_eq!(seen.len(), Reg::DENSE_COUNT);
        assert!(seen.iter().all(|&d| d < Reg::DENSE_COUNT));
    }

    #[test]
    fn every_name_round_trips_and_keeps_its_order_and_forms() {
        let classes = [
            (RegClass::Int, NUM_INT_REGS, "%r"),
            (RegClass::Fp, NUM_FP_REGS, "%f"),
            (RegClass::Cc, 1, "%cc"),
        ];
        let mut names = Vec::new();
        for (class, count, prefix) in classes {
            for index in 0..count {
                let reg = match class {
                    RegClass::Int => Reg::int(index),
                    RegClass::Fp => Reg::fp(index),
                    RegClass::Cc => Reg::cc(),
                };
                assert_eq!((reg.class(), reg.index()), (class, index));
                assert_eq!(Reg::from_dense(reg.dense_index()), Some(reg));
                let shown = match class {
                    RegClass::Cc => prefix.to_string(),
                    _ => format!("{prefix}{index}"),
                };
                assert_eq!(reg.to_string(), shown);
                assert_eq!(
                    format!("{reg:?}"),
                    format!("Reg {{ class: {class:?}, index: {index} }}")
                );
                names.push(((class, index), reg));
            }
        }
        assert_eq!(names.len(), 65);
        assert_eq!(names.len(), Reg::DENSE_COUNT);
        assert_eq!(Reg::from_dense(Reg::DENSE_COUNT), None);
        for (a, ra) in &names {
            for (b, rb) in &names {
                assert_eq!(a.cmp(b), ra.cmp(rb), "{ra} vs {rb}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn int_register_index_is_validated() {
        let _ = Reg::int(NUM_INT_REGS);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fp_register_index_is_validated() {
        let _ = Reg::fp(NUM_FP_REGS);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Reg::int(7).to_string(), "%r7");
        assert_eq!(Reg::fp(3).to_string(), "%f3");
        assert_eq!(Reg::cc().to_string(), "%cc");
    }
}
