//! Execution latencies per op class.
//!
//! The paper gives the minimum execution pipeline as three stages (select,
//! register read, execute) with deeper pipes for FP; results are forwardable
//! the cycle after execution completes (§3.1). [`LatencyTable`] holds the
//! *execute-stage* latency of each class: the number of cycles between
//! dispatch reaching the execute stage and the result being available for
//! forwarding.

use crate::opclass::OpClass;

/// Execute-stage latencies (cycles) for each instruction class.
///
/// The default values model the SPARC64 V at 1.3 GHz; they can be customized
/// per experiment.
///
/// # Examples
///
/// ```
/// use s64v_isa::{LatencyTable, OpClass};
///
/// let lat = LatencyTable::sparc64_v();
/// assert_eq!(lat.get(OpClass::IntAlu), 1);
/// assert!(lat.get(OpClass::FpMulAdd) > lat.get(OpClass::IntAlu));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyTable {
    int_alu: u32,
    int_mul: u32,
    int_div: u32,
    fp_add: u32,
    fp_mul: u32,
    fp_mul_add: u32,
    fp_div: u32,
    agen: u32,
    branch: u32,
    special: u32,
}

impl LatencyTable {
    /// The SPARC64 V production latencies used by the base model.
    pub fn sparc64_v() -> Self {
        LatencyTable {
            int_alu: 1,
            int_mul: 5,
            int_div: 38,
            fp_add: 4,
            fp_mul: 4,
            fp_mul_add: 6,
            fp_div: 25,
            agen: 1,
            branch: 1,
            special: 12,
        }
    }

    /// Latency (cycles) in the execute stage for `op`.
    ///
    /// Loads and stores return the address-generation latency; their memory
    /// latency comes from the cache model, not this table.
    pub fn get(&self, op: OpClass) -> u32 {
        match op {
            OpClass::IntAlu => self.int_alu,
            OpClass::IntMul => self.int_mul,
            OpClass::IntDiv => self.int_div,
            OpClass::FpAdd => self.fp_add,
            OpClass::FpMul => self.fp_mul,
            OpClass::FpMulAdd => self.fp_mul_add,
            OpClass::FpDiv => self.fp_div,
            OpClass::Load | OpClass::Store => self.agen,
            OpClass::BranchCond | OpClass::BranchUncond => self.branch,
            OpClass::Nop => 1,
            OpClass::Special => self.special,
        }
    }

    /// Overrides the latency charged to `Special` instructions.
    ///
    /// Model versions before v5 charge a crude experimental penalty here
    /// (Fig 19); the detailed model uses the default.
    pub fn with_special(mut self, cycles: u32) -> Self {
        self.special = cycles;
        self
    }
}

impl Default for LatencyTable {
    fn default() -> Self {
        Self::sparc64_v()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opclass::ALL_OP_CLASSES;

    #[test]
    fn every_class_has_nonzero_latency() {
        let lat = LatencyTable::sparc64_v();
        for op in ALL_OP_CLASSES {
            assert!(lat.get(op) >= 1, "{op} latency must be at least 1");
        }
    }

    #[test]
    fn divides_are_longest_in_family() {
        let lat = LatencyTable::sparc64_v();
        assert!(lat.get(OpClass::IntDiv) > lat.get(OpClass::IntMul));
        assert!(lat.get(OpClass::FpDiv) > lat.get(OpClass::FpMulAdd));
    }

    #[test]
    fn special_penalty_is_overridable() {
        let lat = LatencyTable::sparc64_v().with_special(100);
        assert_eq!(lat.get(OpClass::Special), 100);
    }

    #[test]
    fn default_matches_production() {
        assert_eq!(LatencyTable::default(), LatencyTable::sparc64_v());
    }
}
