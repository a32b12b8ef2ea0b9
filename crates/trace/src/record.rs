//! A single dynamic instruction in a trace.

use s64v_isa::Instr;
use std::fmt;

/// One dynamic instruction: the program counter it executed at plus its
/// decoded form.
///
/// SPARC instructions are 4 bytes; fetch groups are derived from `pc`
/// alignment (the SPARC64 V fetches an aligned 32-byte block, i.e. up to
/// eight instructions, per cycle).
///
/// # Examples
///
/// ```
/// use s64v_isa::Instr;
/// use s64v_trace::TraceRecord;
///
/// let r = TraceRecord::new(0x1000, Instr::nop());
/// assert_eq!(r.next_pc(), 0x1004);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Program counter of the instruction.
    pub pc: u64,
    /// The decoded instruction.
    pub instr: Instr,
}

// A held trace is almost all of the tool's memory: keep a record at the
// `pc` plus the 24-byte packed `Instr`, with no padding.
const _: () = assert!(std::mem::size_of::<TraceRecord>() == 32);

impl TraceRecord {
    /// Instruction size in bytes (all SPARC-V9 instructions are 4 bytes).
    pub const INSTR_BYTES: u64 = 4;

    /// Creates a record.
    pub fn new(pc: u64, instr: Instr) -> Self {
        TraceRecord { pc, instr }
    }

    /// The architecturally next program counter: the branch target for
    /// taken branches, the fall-through otherwise.
    ///
    /// Note: the SPARC delay slot is not modeled; traces are emitted in
    /// committed order with targets resolved.
    pub fn next_pc(&self) -> u64 {
        match self.instr.branch {
            Some(b) if b.taken => b.target,
            _ => self.pc + Self::INSTR_BYTES,
        }
    }

    /// Whether control flow leaves the fall-through path after this record.
    pub fn redirects(&self) -> bool {
        matches!(self.instr.branch, Some(b) if b.taken)
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}: {}", self.pc, self.instr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s64v_isa::{Instr, OpClass, Reg};

    #[test]
    fn fall_through_next_pc() {
        let r = TraceRecord::new(0x2000, Instr::alu(OpClass::IntAlu, Reg::int(1), &[]));
        assert_eq!(r.next_pc(), 0x2004);
        assert!(!r.redirects());
    }

    #[test]
    fn taken_branch_redirects() {
        let r = TraceRecord::new(0x2000, Instr::branch_cond(true, 0x9000));
        assert_eq!(r.next_pc(), 0x9000);
        assert!(r.redirects());
    }

    #[test]
    fn untaken_branch_falls_through() {
        let r = TraceRecord::new(0x2000, Instr::branch_cond(false, 0x9000));
        assert_eq!(r.next_pc(), 0x2004);
        assert!(!r.redirects());
    }
}
