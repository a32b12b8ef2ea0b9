//! Multiprocessor trace sets.
//!
//! The paper's TPC-C (16P) experiments run one trace stream per CPU over a
//! shared memory system (§2.1 "requests between L2 caches can be modeled
//! for MP system performance models"). [`smp_traces`] clones a program per
//! CPU: regions marked [`shared`](crate::regions::Region::shared) keep
//! their base addresses (lock words, index roots — the source of
//! coherence traffic), while private regions are relocated per CPU so the
//! CPUs do not accidentally share their working sets. Code addresses stay
//! identical on every CPU (the same binary), which produces read-only
//! sharing only.

use crate::program::Program;
use crate::regions::DataSpec;
use s64v_trace::VecTrace;

/// Address distance between two CPUs' private data (far beyond any
/// realistic footprint).
const PRIVATE_STRIDE: u64 = 1 << 40;

fn relocate(data: &DataSpec, core: usize) -> DataSpec {
    let mut regions = data.regions.clone();
    for r in &mut regions {
        if !r.shared {
            r.base += core as u64 * PRIVATE_STRIDE;
        }
    }
    DataSpec::new(regions)
}

/// Generates one trace per CPU from `program`, with private data disjoint
/// and shared regions overlapping.
///
/// Each CPU's trace uses a distinct derived seed, so the CPUs run
/// different transaction streams over the same code.
///
/// # Examples
///
/// ```
/// use s64v_workloads::{smp_traces, suite::tpcc_program};
///
/// let traces = smp_traces(&tpcc_program(), 4, 1_000, 42);
/// assert_eq!(traces.len(), 4);
/// assert!(traces.iter().all(|t| t.len() == 1_000));
/// ```
pub fn smp_traces(
    program: &Program,
    cores: usize,
    records_per_core: usize,
    seed: u64,
) -> Vec<VecTrace> {
    assert!(cores > 0, "need at least one core");
    (0..cores)
        .map(|core| {
            let mut spec = program.spec().clone();
            spec.data = relocate(&spec.data, core);
            if let Some(kd) = &spec.kernel_data {
                spec.kernel_data = Some(relocate(kd, core));
            }
            Program::new(spec).generate(
                records_per_core,
                seed.wrapping_add(1 + core as u64 * 0x9e37),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::tpcc_program;
    use std::collections::HashSet;

    fn data_lines(trace: &VecTrace) -> HashSet<u64> {
        trace
            .iter()
            .filter_map(|r| r.instr.mem.map(|m| m.addr / 64))
            .collect()
    }

    #[test]
    fn private_data_is_disjoint_shared_overlaps() {
        let traces = smp_traces(&tpcc_program(), 2, 50_000, 9);
        let a = data_lines(&traces[0]);
        let b = data_lines(&traces[1]);
        let common: Vec<u64> = a.intersection(&b).copied().collect();
        assert!(!common.is_empty(), "shared region must overlap");
        // All common lines live in the shared region (below the first
        // private stride).
        assert!(common.iter().all(|&l| l * 64 < PRIVATE_STRIDE));
        // But most lines are private.
        assert!(
            common.len() * 4 < a.len(),
            "{} shared of {}",
            common.len(),
            a.len()
        );
    }

    #[test]
    fn cores_run_different_streams_over_the_same_code() {
        let traces = smp_traces(&tpcc_program(), 2, 20_000, 9);
        assert_ne!(traces[0], traces[1]);
        let code_a: HashSet<u64> = traces[0].iter().map(|r| r.pc / 64).collect();
        let code_b: HashSet<u64> = traces[1].iter().map(|r| r.pc / 64).collect();
        assert!(
            code_a.intersection(&code_b).count() > 0,
            "same binary: code lines overlap"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = smp_traces(&tpcc_program(), 2, 5_000, 1);
        let b = smp_traces(&tpcc_program(), 2, 5_000, 1);
        assert_eq!(a, b);
    }
}
