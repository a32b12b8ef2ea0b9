//! Op-class level model of the SPARC-V9 instruction set ("SPARC-V9-lite")
//! as needed by the SPARC64 V performance model.
//!
//! The performance model described in the HPCA 2003 paper is *trace driven*:
//! timing depends on the class of each instruction (which execution unit it
//! needs, its latency, whether it touches memory or redirects control flow)
//! and on its register dependences — not on the full bit-level SPARC-V9
//! encoding. This crate therefore models instructions at exactly that level:
//!
//! * [`Reg`] — architectural register names (integer, floating point,
//!   condition codes),
//! * [`OpClass`] — instruction classes with their unit binding and latency,
//! * [`Instr`] — a decoded instruction: op class, destination, sources and
//!   optional memory/branch attributes.
//!
//! # Examples
//!
//! ```
//! use s64v_isa::{Instr, OpClass, Reg};
//!
//! let add = Instr::alu(OpClass::IntAlu, Reg::int(1), &[Reg::int(2), Reg::int(3)]);
//! assert_eq!(add.op, OpClass::IntAlu);
//! assert!(add.dest.is_some());
//! ```

pub mod instr;
pub mod latency;
pub mod opclass;
pub mod reg;

pub use instr::{BranchInfo, Instr, MemInfo, MemWidth, Privilege, MAX_SRCS};
pub use latency::LatencyTable;
pub use opclass::{OpClass, RsKind};
pub use reg::{Reg, RegClass, NUM_FP_REGS, NUM_INT_REGS};
