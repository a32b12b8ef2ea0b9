//! Golden regression pins: exact event counts for fixed workloads/seeds.
//!
//! A timing model's worst failure mode is a silent behavioural drift, so
//! these tests pin the model bit-for-bit. If a change *intentionally*
//! alters timing (new mechanism, recalibration), regenerate the constants
//! with `cargo run --release -p s64v-core --example golden_gen` and update
//! them here together with a note in the commit explaining the shift.

use sparc64v::model::{PerformanceModel, Run, SystemConfig};
use sparc64v::workloads::{Suite, SuiteKind};

/// (suite, program index, cycles, committed, l1d misses, l2 demand misses,
/// mispredicts) for generate(40_000, 2026) timed after 30_000 warm-up.
const GOLDEN: &[(SuiteKind, usize, u64, u64, u64, u64, u64)] = &[
    (SuiteKind::SpecInt95, 0, 31_825, 10_000, 114, 109, 313),
    (SuiteKind::SpecFp95, 1, 14_998, 10_000, 163, 26, 12),
    (SuiteKind::Tpcc, 0, 83_914, 10_000, 341, 553, 428),
];

#[test]
fn model_behaviour_is_pinned() {
    let model = PerformanceModel::new(SystemConfig::sparc64_v());
    for &(kind, idx, cycles, committed, l1d, l2, bp) in GOLDEN {
        let suite = Suite::preset(kind);
        let program = &suite.programs()[idx];
        let trace = program.generate(40_000, 2026);
        let r = model.run(Run::of(&trace).warm(30_000));
        assert_eq!(r.cycles, cycles, "{kind}: cycle count drifted");
        assert_eq!(r.committed, committed, "{kind}: commit count drifted");
        assert_eq!(
            r.mem_stats[0].l1d.misses.get(),
            l1d,
            "{kind}: L1D misses drifted"
        );
        assert_eq!(
            r.mem_stats[0].l2_demand.misses.get(),
            l2,
            "{kind}: L2 misses drifted"
        );
        assert_eq!(
            r.core_stats[0].mispredicts.get(),
            bp,
            "{kind}: mispredicts drifted"
        );
    }
}
