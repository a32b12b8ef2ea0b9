//! Instruction classes and their binding to execution resources.
//!
//! The SPARC64 V dispatches instructions from four kinds of reservation
//! stations (Table 1 of the paper): RSE (two 8-entry buffers feeding the two
//! integer units), RSF (two 8-entry buffers feeding the two FP multiply-add
//! units), RSA (10 entries feeding the two address generators) and RSBR
//! (10 entries for branches). [`OpClass::rs_kind`] encodes that binding.

use std::fmt;

/// The class of an instruction, at the granularity the timing model needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpClass {
    /// Integer ALU operation (add, logical, shift, compare, sethi...).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide (long latency, unpipelined).
    IntDiv,
    /// FP add/subtract/compare/convert.
    FpAdd,
    /// FP multiply.
    FpMul,
    /// Fused FP multiply-add — the SPARC64 V FP pipes execute FMA directly,
    /// which the paper calls out as "effective for HPC performance".
    FpMulAdd,
    /// FP divide / square root (long latency, unpipelined).
    FpDiv,
    /// Memory load (goes through RSA → EAG → load queue → L1D).
    Load,
    /// Memory store (RSA → EAG → store queue; data written at commit).
    Store,
    /// Conditional branch (direction predicted by the BHT).
    BranchCond,
    /// Unconditional branch / call / jmpl (always taken).
    BranchUncond,
    /// No-op (still occupies fetch/decode/commit bandwidth).
    Nop,
    /// "Special" instructions: register-window save/restore, privileged ops,
    /// membar, atomics. Until model version v5 the paper charged these an
    /// experimental fixed penalty; v5+ models them in detail (§5, Fig 19).
    Special,
}

/// All op classes, in a stable order (useful for mix tables and tests).
pub const ALL_OP_CLASSES: [OpClass; 13] = [
    OpClass::IntAlu,
    OpClass::IntMul,
    OpClass::IntDiv,
    OpClass::FpAdd,
    OpClass::FpMul,
    OpClass::FpMulAdd,
    OpClass::FpDiv,
    OpClass::Load,
    OpClass::Store,
    OpClass::BranchCond,
    OpClass::BranchUncond,
    OpClass::Nop,
    OpClass::Special,
];

/// The reservation-station kind an instruction is inserted into at decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RsKind {
    /// RSE — integer execution (2 × 8 entries).
    Rse,
    /// RSF — floating-point execution (2 × 8 entries).
    Rsf,
    /// RSA — address generation for loads/stores (10 entries).
    Rsa,
    /// RSBR — branches (10 entries).
    Rsbr,
}

impl RsKind {
    /// All reservation-station kinds.
    pub const ALL: [RsKind; 4] = [RsKind::Rse, RsKind::Rsf, RsKind::Rsa, RsKind::Rsbr];
}

impl fmt::Display for RsKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsKind::Rse => write!(f, "RSE"),
            RsKind::Rsf => write!(f, "RSF"),
            RsKind::Rsa => write!(f, "RSA"),
            RsKind::Rsbr => write!(f, "RSBR"),
        }
    }
}

impl OpClass {
    /// Whether the instruction reads or writes memory.
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// Whether the instruction is a branch (conditional or not).
    pub fn is_branch(self) -> bool {
        matches!(self, OpClass::BranchCond | OpClass::BranchUncond)
    }

    /// Whether the instruction operates on floating-point registers.
    pub fn is_fp(self) -> bool {
        matches!(
            self,
            OpClass::FpAdd | OpClass::FpMul | OpClass::FpMulAdd | OpClass::FpDiv
        )
    }

    /// The reservation station this class is queued into at decode, or
    /// `None` for classes that bypass the out-of-order engine (`Nop`).
    ///
    /// `Special` ops occupy an RSE slot: they execute (serially) on the
    /// integer side like the real machine's milli-coded sequences.
    pub fn rs_kind(self) -> Option<RsKind> {
        match self {
            OpClass::IntAlu | OpClass::IntMul | OpClass::IntDiv | OpClass::Special => {
                Some(RsKind::Rse)
            }
            OpClass::FpAdd | OpClass::FpMul | OpClass::FpMulAdd | OpClass::FpDiv => {
                Some(RsKind::Rsf)
            }
            OpClass::Load | OpClass::Store => Some(RsKind::Rsa),
            OpClass::BranchCond | OpClass::BranchUncond => Some(RsKind::Rsbr),
            OpClass::Nop => None,
        }
    }

    /// Whether execution of this class is pipelined (a unit can start a new
    /// instruction of this class every cycle) or blocking (divides).
    pub fn is_pipelined(self) -> bool {
        !matches!(self, OpClass::IntDiv | OpClass::FpDiv | OpClass::Special)
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::IntAlu => "int-alu",
            OpClass::IntMul => "int-mul",
            OpClass::IntDiv => "int-div",
            OpClass::FpAdd => "fp-add",
            OpClass::FpMul => "fp-mul",
            OpClass::FpMulAdd => "fp-fma",
            OpClass::FpDiv => "fp-div",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::BranchCond => "br-cond",
            OpClass::BranchUncond => "br-uncond",
            OpClass::Nop => "nop",
            OpClass::Special => "special",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_except_nop_has_a_reservation_station() {
        for op in ALL_OP_CLASSES {
            if op == OpClass::Nop {
                assert!(op.rs_kind().is_none());
            } else {
                assert!(op.rs_kind().is_some(), "{op} must map to an RS");
            }
        }
    }

    #[test]
    fn memory_ops_use_the_address_generation_station() {
        assert_eq!(OpClass::Load.rs_kind(), Some(RsKind::Rsa));
        assert_eq!(OpClass::Store.rs_kind(), Some(RsKind::Rsa));
    }

    #[test]
    fn branches_use_rsbr() {
        assert_eq!(OpClass::BranchCond.rs_kind(), Some(RsKind::Rsbr));
        assert_eq!(OpClass::BranchUncond.rs_kind(), Some(RsKind::Rsbr));
        assert!(OpClass::BranchCond.is_branch());
        assert!(!OpClass::Load.is_branch());
    }

    #[test]
    fn fp_classification() {
        assert!(OpClass::FpMulAdd.is_fp());
        assert!(!OpClass::IntMul.is_fp());
        assert_eq!(OpClass::FpMulAdd.rs_kind(), Some(RsKind::Rsf));
    }

    #[test]
    fn divides_are_not_pipelined() {
        assert!(!OpClass::IntDiv.is_pipelined());
        assert!(!OpClass::FpDiv.is_pipelined());
        assert!(OpClass::FpMulAdd.is_pipelined());
        assert!(OpClass::Load.is_pipelined());
    }
}
