//! Distributional summaries of traces.
//!
//! [`TraceSummary`] measures the properties the workload generators are
//! calibrated against: instruction mix, branch density and taken rate,
//! memory-operation density, kernel fraction, and footprint estimates
//! (distinct 64-byte code and data lines, distinct branch sites). A
//! generated trace is validated by summarizing it and checking the summary
//! against the preset that produced it.

use crate::record::TraceRecord;
use crate::stream::TraceStream;
use s64v_isa::{OpClass, Privilege};
use std::collections::HashSet;

/// Cache-line size used for footprint estimation (bytes).
pub const FOOTPRINT_LINE: u64 = 64;

/// Aggregate distributional properties of a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Total records.
    pub instructions: u64,
    /// Records per op class, indexed by `op_to_index`.
    pub per_class: [u64; 13],
    /// Conditional branches.
    pub cond_branches: u64,
    /// Taken conditional branches.
    pub taken_cond_branches: u64,
    /// Kernel-mode records.
    pub kernel_instructions: u64,
    /// Distinct 64-byte instruction lines touched.
    pub code_lines: u64,
    /// Distinct 64-byte data lines touched.
    pub data_lines: u64,
    /// Distinct conditional-branch sites (PCs).
    pub branch_sites: u64,
}

fn op_to_index(op: OpClass) -> usize {
    use OpClass::*;
    match op {
        IntAlu => 0,
        IntMul => 1,
        IntDiv => 2,
        FpAdd => 3,
        FpMul => 4,
        FpMulAdd => 5,
        FpDiv => 6,
        Load => 7,
        Store => 8,
        BranchCond => 9,
        BranchUncond => 10,
        Nop => 11,
        Special => 12,
    }
}

impl TraceSummary {
    /// Summarizes every record of a stream.
    pub fn collect<S: TraceStream>(mut stream: S) -> Self {
        let mut s = TraceSummary::default();
        let mut code: HashSet<u64> = HashSet::new();
        let mut data: HashSet<u64> = HashSet::new();
        let mut sites: HashSet<u64> = HashSet::new();
        while let Some(rec) = stream.next_record() {
            s.observe(&rec, &mut code, &mut data, &mut sites);
        }
        s.code_lines = code.len() as u64;
        s.data_lines = data.len() as u64;
        s.branch_sites = sites.len() as u64;
        s
    }

    fn observe(
        &mut self,
        rec: &TraceRecord,
        code: &mut HashSet<u64>,
        data: &mut HashSet<u64>,
        sites: &mut HashSet<u64>,
    ) {
        self.instructions += 1;
        self.per_class[op_to_index(rec.instr.op)] += 1;
        code.insert(rec.pc / FOOTPRINT_LINE);
        if let Some(m) = rec.instr.mem {
            data.insert(m.addr / FOOTPRINT_LINE);
        }
        if rec.instr.op == OpClass::BranchCond {
            self.cond_branches += 1;
            sites.insert(rec.pc);
            if rec.instr.branch.is_some_and(|b| b.taken) {
                self.taken_cond_branches += 1;
            }
        }
        if rec.instr.privilege == Privilege::Kernel {
            self.kernel_instructions += 1;
        }
    }

    /// Count of records with the given class.
    pub fn count(&self, op: OpClass) -> u64 {
        self.per_class[op_to_index(op)]
    }

    /// Fraction of records with the given class; 0 when empty.
    pub fn fraction(&self, op: OpClass) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.count(op) as f64 / self.instructions as f64
        }
    }

    /// Fraction of records that are loads or stores.
    pub fn mem_fraction(&self) -> f64 {
        self.fraction(OpClass::Load) + self.fraction(OpClass::Store)
    }

    /// Fraction of records that are branches (cond + uncond).
    pub fn branch_fraction(&self) -> f64 {
        self.fraction(OpClass::BranchCond) + self.fraction(OpClass::BranchUncond)
    }

    /// Taken rate of conditional branches; 0 when there are none.
    pub fn taken_rate(&self) -> f64 {
        if self.cond_branches == 0 {
            0.0
        } else {
            self.taken_cond_branches as f64 / self.cond_branches as f64
        }
    }

    /// Fraction of kernel-mode records.
    pub fn kernel_fraction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.kernel_instructions as f64 / self.instructions as f64
        }
    }

    /// Estimated code footprint in bytes (distinct lines × line size).
    pub fn code_footprint_bytes(&self) -> u64 {
        self.code_lines * FOOTPRINT_LINE
    }

    /// Estimated data footprint in bytes (distinct lines × line size).
    pub fn data_footprint_bytes(&self) -> u64 {
        self.data_lines * FOOTPRINT_LINE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use s64v_isa::{Instr, MemWidth, Reg};

    #[test]
    fn counts_classes_and_fractions() {
        let mut b = TraceBuilder::new(0);
        b.push(Instr::alu(OpClass::IntAlu, Reg::int(1), &[]));
        b.push(Instr::load(Reg::int(2), Reg::int(1), 0x100, MemWidth::B8));
        b.push(Instr::store(Reg::int(2), Reg::int(1), 0x108, MemWidth::B8));
        b.push(Instr::branch_cond(true, 0x40));
        let t = b.finish();
        let s = TraceSummary::collect(t.stream());
        assert_eq!(s.instructions, 4);
        assert_eq!(s.count(OpClass::Load), 1);
        assert!((s.mem_fraction() - 0.5).abs() < 1e-12);
        assert!((s.taken_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn footprints_count_distinct_lines() {
        let mut b = TraceBuilder::new(0);
        // Two loads in the same 64-byte line, one in another.
        b.push(Instr::load(Reg::int(1), Reg::int(2), 0x100, MemWidth::B4));
        b.push(Instr::load(Reg::int(1), Reg::int(2), 0x104, MemWidth::B4));
        b.push(Instr::load(Reg::int(1), Reg::int(2), 0x1000, MemWidth::B4));
        let t = b.finish();
        let s = TraceSummary::collect(t.stream());
        assert_eq!(s.data_lines, 2);
        assert_eq!(s.code_lines, 1); // 3 instrs in one 64-byte code line
        assert_eq!(s.data_footprint_bytes(), 128);
    }

    #[test]
    fn branch_sites_are_static_pcs() {
        let mut b = TraceBuilder::new(0);
        // Loop: same branch PC seen twice.
        b.push(Instr::branch_cond(true, 0x0));
        b.push(Instr::branch_cond(true, 0x0));
        let t = b.finish();
        let s = TraceSummary::collect(t.stream());
        assert_eq!(s.cond_branches, 2);
        assert_eq!(s.branch_sites, 1);
    }

    #[test]
    fn kernel_fraction() {
        let mut b = TraceBuilder::new(0);
        b.push(Instr::special().kernel());
        b.push(Instr::nop());
        let t = b.finish();
        let s = TraceSummary::collect(t.stream());
        assert!((s.kernel_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_summary_is_zeroed() {
        let t = crate::stream::VecTrace::new();
        let s = TraceSummary::collect(t.stream());
        assert_eq!(s.instructions, 0);
        assert_eq!(s.mem_fraction(), 0.0);
        assert_eq!(s.taken_rate(), 0.0);
    }
}
