//! Decoded-instruction representation carried by trace records.

use crate::opclass::OpClass;
use crate::reg::Reg;
use std::fmt;

/// Maximum number of register sources an instruction can name
/// (e.g. FMA reads three FP registers; a store reads address base,
/// index and data).
pub const MAX_SRCS: usize = 3;

/// Access width of a memory operation, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemWidth {
    /// 1-byte access.
    B1 = 1,
    /// 2-byte access.
    B2 = 2,
    /// 4-byte access.
    B4 = 4,
    /// 8-byte access.
    B8 = 8,
}

impl MemWidth {
    /// The width in bytes.
    pub fn bytes(self) -> u64 {
        self as u64
    }
}

/// Privilege level an instruction executed at (TPC-C traces include both
/// kernel and user code; SPEC traces are user-only — §4.1 of the paper).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Privilege {
    /// User-mode (application) code.
    #[default]
    User,
    /// Privileged (kernel) code.
    Kernel,
}

/// Memory attributes of a load or store.
///
/// Packed to 9 bytes (see [`Instr`]): read the fields by value, as in
/// `{ m.addr }`; a reference to a packed field does not compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(C, packed)]
pub struct MemInfo {
    /// Effective virtual address.
    pub addr: u64,
    /// Access width.
    pub width: MemWidth,
}

/// Control-flow attributes of a branch.
///
/// Packed to 9 bytes like [`MemInfo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(C, packed)]
pub struct BranchInfo {
    /// Whether the branch was taken in the trace (the architecturally
    /// correct outcome — the predictor is scored against this).
    pub taken: bool,
    /// Branch target address (valid when `taken`).
    pub target: u64,
}

/// A decoded instruction: everything the timing model needs to know.
///
/// Construct instructions with the typed constructors ([`Instr::alu`],
/// [`Instr::load`], [`Instr::store`], [`Instr::branch`], [`Instr::nop`],
/// [`Instr::special`]) which enforce per-class invariants.
///
/// Every field has alignment 1, so an `Instr` is exactly its 24 bytes of
/// payload: op 1, dest 1, srcs 3, mem 9, branch 9, privilege 1. Traces
/// hold millions of these, so the layout is pinned below.
///
/// # Examples
///
/// ```
/// use s64v_isa::{Instr, MemWidth, OpClass, Reg};
///
/// let ld = Instr::load(Reg::fp(2), Reg::int(4), 0x1000, MemWidth::B8);
/// assert!(ld.op.is_mem());
/// assert_eq!({ ld.mem.unwrap().addr }, 0x1000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// Instruction class.
    pub op: OpClass,
    /// Destination register, if the instruction produces a value.
    pub dest: Option<Reg>,
    /// Source registers (`None` slots are unused).
    pub srcs: [Option<Reg>; MAX_SRCS],
    /// Memory attributes (loads/stores only).
    pub mem: Option<MemInfo>,
    /// Branch attributes (branches only).
    pub branch: Option<BranchInfo>,
    /// Privilege level.
    pub privilege: Privilege,
}

const _: () = {
    use std::mem::size_of;
    assert!(size_of::<Option<Reg>>() == 1);
    assert!(size_of::<Option<MemInfo>>() == 9);
    assert!(size_of::<Option<BranchInfo>>() == 9);
    assert!(size_of::<Instr>() == 24);
};

impl Instr {
    fn base(op: OpClass) -> Self {
        Instr {
            op,
            dest: None,
            srcs: [None; MAX_SRCS],
            mem: None,
            branch: None,
            privilege: Privilege::User,
        }
    }

    fn with_srcs(mut self, srcs: &[Reg]) -> Self {
        assert!(srcs.len() <= MAX_SRCS, "too many sources: {}", srcs.len());
        for (slot, src) in self.srcs.iter_mut().zip(srcs) {
            *slot = Some(*src);
        }
        self
    }

    /// Creates an ALU-style instruction (integer or FP arithmetic).
    ///
    /// # Panics
    ///
    /// Panics if `op` is a memory, branch or nop class, or if more than
    /// [`MAX_SRCS`] sources are given.
    pub fn alu(op: OpClass, dest: Reg, srcs: &[Reg]) -> Self {
        assert!(
            !op.is_mem() && !op.is_branch() && op != OpClass::Nop,
            "{op} is not an ALU class"
        );
        let mut i = Self::base(op).with_srcs(srcs);
        i.dest = Some(dest);
        i
    }

    /// Creates a load that reads `[base + ...] = addr` into `dest`.
    pub fn load(dest: Reg, base: Reg, addr: u64, width: MemWidth) -> Self {
        let mut i = Self::base(OpClass::Load).with_srcs(&[base]);
        i.dest = Some(dest);
        i.mem = Some(MemInfo { addr, width });
        i
    }

    /// Creates a store of register `data` to `addr` (address from `base`).
    pub fn store(data: Reg, base: Reg, addr: u64, width: MemWidth) -> Self {
        let mut i = Self::base(OpClass::Store).with_srcs(&[base, data]);
        i.mem = Some(MemInfo { addr, width });
        i
    }

    /// Creates a conditional branch reading the condition codes.
    pub fn branch_cond(taken: bool, target: u64) -> Self {
        let mut i = Self::base(OpClass::BranchCond).with_srcs(&[Reg::cc()]);
        i.branch = Some(BranchInfo { taken, target });
        i
    }

    /// Creates an unconditional branch / call.
    pub fn branch_uncond(target: u64) -> Self {
        let mut i = Self::base(OpClass::BranchUncond);
        i.branch = Some(BranchInfo {
            taken: true,
            target,
        });
        i
    }

    /// Creates a no-op.
    pub fn nop() -> Self {
        Self::base(OpClass::Nop)
    }

    /// Creates a "special" instruction (save/restore, membar, privileged op).
    pub fn special() -> Self {
        Self::base(OpClass::Special)
    }

    /// Marks the instruction as executed in kernel mode.
    pub fn kernel(mut self) -> Self {
        self.privilege = Privilege::Kernel;
        self
    }

    /// Iterator over the instruction's real register sources, skipping
    /// unused slots and the hard-wired `%g0`.
    pub fn sources(&self) -> impl Iterator<Item = Reg> + '_ {
        self.srcs.iter().flatten().copied().filter(|r| !r.is_zero())
    }

    /// The destination register if it creates a real dependence
    /// (i.e. is not `%g0`).
    pub fn real_dest(&self) -> Option<Reg> {
        self.dest.filter(|r| !r.is_zero())
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.op)?;
        if let Some(d) = self.dest {
            write!(f, " {d} <-")?;
        }
        for s in self.srcs.iter().flatten() {
            write!(f, " {s}")?;
        }
        if let Some(MemInfo { addr, width }) = self.mem {
            write!(f, " [{addr:#x}]/{}", width.bytes())?;
        }
        if let Some(BranchInfo { taken, target }) = self.branch {
            write!(f, " {}->{target:#x}", if taken { "T" } else { "N" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_carries_memory_info_and_dest() {
        let ld = Instr::load(Reg::int(3), Reg::int(4), 0xdead_beef, MemWidth::B4);
        assert_eq!(ld.op, OpClass::Load);
        assert_eq!({ ld.mem.unwrap().addr }, 0xdead_beef);
        assert_eq!(ld.mem.unwrap().width.bytes(), 4);
        assert_eq!(ld.real_dest(), Some(Reg::int(3)));
    }

    #[test]
    fn store_reads_base_and_data() {
        let st = Instr::store(Reg::int(5), Reg::int(6), 0x100, MemWidth::B8);
        let srcs: Vec<_> = st.sources().collect();
        assert_eq!(srcs, vec![Reg::int(6), Reg::int(5)]);
        assert!(st.real_dest().is_none());
    }

    #[test]
    fn zero_register_is_not_a_dependence() {
        let add = Instr::alu(OpClass::IntAlu, Reg::int(0), &[Reg::int(0), Reg::int(2)]);
        assert!(add.real_dest().is_none());
        assert_eq!(add.sources().collect::<Vec<_>>(), vec![Reg::int(2)]);
    }

    #[test]
    fn conditional_branch_reads_condition_codes() {
        let br = Instr::branch_cond(true, 0x4000);
        assert_eq!(br.sources().collect::<Vec<_>>(), vec![Reg::cc()]);
        assert!(br.branch.unwrap().taken);
    }

    #[test]
    #[should_panic(expected = "not an ALU class")]
    fn alu_constructor_rejects_memory_classes() {
        let _ = Instr::alu(OpClass::Load, Reg::int(1), &[]);
    }

    #[test]
    fn fma_takes_three_sources() {
        let fma = Instr::alu(
            OpClass::FpMulAdd,
            Reg::fp(0),
            &[Reg::fp(1), Reg::fp(2), Reg::fp(3)],
        );
        assert_eq!(fma.sources().count(), 3);
    }

    #[test]
    fn kernel_marker() {
        let i = Instr::special().kernel();
        assert_eq!(i.privilege, Privilege::Kernel);
        assert_eq!(Instr::nop().privilege, Privilege::User);
    }
}
