//! Sequential trace construction with automatic program counters.

use crate::record::TraceRecord;
use crate::stream::VecTrace;
use s64v_isa::Instr;

/// Builds a trace by appending instructions; the program counter advances
/// automatically and follows taken branches.
///
/// Generators use this so that instruction addresses (which drive the
/// I-cache and branch-history-table models) are consistent with the control
/// flow they synthesize.
///
/// # Examples
///
/// ```
/// use s64v_isa::Instr;
/// use s64v_trace::TraceBuilder;
///
/// let mut b = TraceBuilder::new(0x4000);
/// b.push(Instr::nop());
/// b.push(Instr::branch_uncond(0x8000));
/// b.push(Instr::nop()); // lands at the branch target
/// let t = b.finish();
/// assert_eq!(t.records()[2].pc, 0x8000);
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    trace: VecTrace,
    pc: u64,
}

impl TraceBuilder {
    /// Starts a trace at `entry_pc`.
    pub fn new(entry_pc: u64) -> Self {
        TraceBuilder {
            trace: VecTrace::new(),
            pc: entry_pc,
        }
    }

    /// The program counter the next pushed instruction will execute at.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Appends an instruction at the current pc and advances.
    pub fn push(&mut self, instr: Instr) -> &mut Self {
        let rec = TraceRecord::new(self.pc, instr);
        self.pc = rec.next_pc();
        self.trace.push(rec);
        self
    }

    /// Number of records so far.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Finishes and returns the trace.
    pub fn finish(self) -> VecTrace {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s64v_isa::{MemWidth, OpClass, Reg};

    #[test]
    fn pc_advances_by_four() {
        let mut b = TraceBuilder::new(0);
        b.push(Instr::nop()).push(Instr::nop());
        let t = b.finish();
        assert_eq!(t.records()[0].pc, 0);
        assert_eq!(t.records()[1].pc, 4);
    }

    #[test]
    fn pc_follows_taken_branches() {
        let mut b = TraceBuilder::new(0x100);
        b.push(Instr::branch_cond(true, 0x200));
        b.push(Instr::load(Reg::int(1), Reg::int(2), 0x99, MemWidth::B8));
        let t = b.finish();
        assert_eq!(t.records()[1].pc, 0x200);
    }

    #[test]
    fn pc_ignores_untaken_branches() {
        let mut b = TraceBuilder::new(0x100);
        b.push(Instr::branch_cond(false, 0x200));
        b.push(Instr::alu(OpClass::IntAlu, Reg::int(1), &[]));
        let t = b.finish();
        assert_eq!(t.records()[1].pc, 0x104);
    }
}
