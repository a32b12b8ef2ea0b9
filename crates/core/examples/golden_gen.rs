//! Regenerates the golden regression constants in `tests/golden.rs`
//! (run after any intentional timing change and paste the output).

use s64v_core::{PerformanceModel, Run, SystemConfig};
use s64v_workloads::{Suite, SuiteKind};

fn main() {
    let model = PerformanceModel::new(SystemConfig::sparc64_v());
    for (kind, idx) in [
        (SuiteKind::SpecInt95, 0),
        (SuiteKind::SpecFp95, 1),
        (SuiteKind::Tpcc, 0),
    ] {
        let suite = Suite::preset(kind);
        let p = &suite.programs()[idx];
        let t = p.generate(40_000, 2026);
        let r = model.run(Run::of(&t).warm(30_000));
        println!(
            "({:?}, {}, {}, {}, {}, {}, {}),",
            kind,
            idx,
            r.cycles,
            r.committed,
            r.mem_stats[0].l1d.misses.get(),
            r.mem_stats[0].l2_demand.misses.get(),
            r.core_stats[0].mispredicts.get(),
        );
    }
}
