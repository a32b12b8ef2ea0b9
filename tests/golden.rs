//! Golden regression pins: exact event counts for fixed workloads/seeds.
//!
//! A timing model's worst failure mode is a silent behavioural drift, so
//! this test pins `PerformanceModel::run` bit for bit: three programs'
//! counts must render to `specs/model_run.golden.txt` byte for byte. The
//! campaign engine does not call `run`, so no other golden covers it.
//!
//! After an *intentional* timing change: `sh scripts/rebaseline.sh`, and
//! explain the diff.

use sparc64v::model::{PerformanceModel, Run, SystemConfig};
use sparc64v::workloads::{Suite, SuiteKind};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/model_run.golden.txt");

/// (suite, program index), each run as generate(40_000, 2026) timed after
/// 30_000 warm-up.
const PROGRAMS: [(SuiteKind, usize); 3] = [
    (SuiteKind::SpecInt95, 0),
    (SuiteKind::SpecFp95, 1),
    (SuiteKind::Tpcc, 0),
];

/// One line per program: cycles, committed, L1D misses, L2 demand misses
/// and mispredicts.
fn render() -> String {
    let model = PerformanceModel::new(SystemConfig::sparc64_v());
    PROGRAMS
        .iter()
        .map(|&(kind, idx)| {
            let trace = Suite::preset(kind).programs()[idx].generate(40_000, 2026);
            let r = model.run(Run::of(&trace).warm(30_000));
            format!(
                "{kind}[{idx}] cycles={} committed={} l1d_misses={} l2_demand_misses={} mispredicts={}\n",
                r.cycles,
                r.committed,
                r.mem_stats[0].l1d.misses.get(),
                r.mem_stats[0].l2_demand.misses.get(),
                r.core_stats[0].mispredicts.get(),
            )
        })
        .collect()
}

#[test]
fn model_behaviour_is_pinned() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file");
    assert_eq!(
        render(),
        golden,
        "PerformanceModel::run departs from {GOLDEN}"
    );
}

#[test]
#[ignore = "rewrites specs/model_run.golden.txt"]
fn regenerate() {
    std::fs::write(GOLDEN, render()).expect("writing the golden file");
}
