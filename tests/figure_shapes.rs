//! Qualitative assertions that the paper's figure *shapes* hold at smoke
//! scale (the full reproduction is `campaign --figures all`).

use sparc64v::model::{PerformanceModel, Run, SystemConfig};
use sparc64v::workloads::{Suite, SuiteKind};

const WARMUP: usize = 120_000;
const TIMED: usize = 20_000;

fn run(kind: SuiteKind, config: &SystemConfig, seed: u64) -> sparc64v::model::RunResult {
    let suite = Suite::preset(kind);
    let trace = suite.programs()[0].generate(WARMUP + TIMED, seed);
    PerformanceModel::new(config.clone()).run(Run::of(&trace).warm(WARMUP))
}

#[test]
fn fig09_small_bht_hurts_tpcc_not_spec() {
    let large = SystemConfig::sparc64_v();
    let small = large.clone().with_core(large.core.clone().with_small_bht());

    // The BHT capacity effect needs enough history for steady-state
    // displacement, so this test uses a longer window.
    let run_long = |config: &SystemConfig| {
        let suite = Suite::preset(SuiteKind::Tpcc);
        let trace = suite.programs()[0].generate(500_000 + 50_000, 9);
        PerformanceModel::new(config.clone()).run(Run::of(&trace).warm(500_000))
    };
    let tpcc_large = run_long(&large);
    let tpcc_small = run_long(&small);
    let tpcc_ratio = tpcc_small.mispredict_ratio().value() / tpcc_large.mispredict_ratio().value();
    assert!(
        tpcc_ratio > 1.15,
        "TPC-C mispredicts must rise sharply on the 4K table (got ×{tpcc_ratio:.2})"
    );

    let spec_large = run(SuiteKind::SpecInt95, &large, 9);
    let spec_small = run(SuiteKind::SpecInt95, &small, 9);
    let spec_ratio = spec_small.mispredict_ratio().value() / spec_large.mispredict_ratio().value();
    assert!(
        spec_ratio < 1.1,
        "SPEC sites fit both tables (got ×{spec_ratio:.2})"
    );
}

#[test]
fn fig12_13_small_l1_raises_tpcc_misses() {
    let big = SystemConfig::sparc64_v();
    let small = big.clone().with_mem(big.mem.clone().with_small_l1());
    let b = run(SuiteKind::Tpcc, &big, 9);
    let s = run(SuiteKind::Tpcc, &small, 9);
    assert!(
        s.l1i_miss_ratio().value() > b.l1i_miss_ratio().value() * 1.4,
        "I-miss must grow a lot: {} vs {}",
        s.l1i_miss_ratio().value(),
        b.l1i_miss_ratio().value()
    );
    assert!(
        s.l1d_miss_ratio().value() > b.l1d_miss_ratio().value() * 1.2,
        "D-miss must grow: {} vs {}",
        s.l1d_miss_ratio().value(),
        b.l1d_miss_ratio().value()
    );
}

#[test]
fn fig14_off_chip_direct_mapped_l2_hurts_tpcc() {
    let on = SystemConfig::sparc64_v();
    let off1 = on
        .clone()
        .with_mem(on.mem.clone().with_off_chip_l2_direct());
    let base = run(SuiteKind::Tpcc, &on, 9);
    let alt = run(SuiteKind::Tpcc, &off1, 9);
    assert!(
        alt.ipc() < base.ipc(),
        "off.8m-1w must lose on TPC-C: {} vs {}",
        alt.ipc(),
        base.ipc()
    );
}

#[test]
fn fig16_17_prefetch_helps_fp() {
    let with = SystemConfig::sparc64_v();
    let without = with.clone().with_mem(with.mem.clone().without_prefetch());
    let w = run(SuiteKind::SpecFp95, &with, 9);
    let wo = run(SuiteKind::SpecFp95, &without, 9);
    assert!(
        w.l2_demand_miss_ratio().value() < wo.l2_demand_miss_ratio().value() * 0.7,
        "prefetch must remove demand misses: {} vs {}",
        w.l2_demand_miss_ratio().value(),
        wo.l2_demand_miss_ratio().value()
    );
    assert!(w.ipc() > wo.ipc() * 1.05, "prefetch must help FP IPC");
    // Fig 17: "with" (all requests) exceeds "with-Demand".
    assert!(w.l2_all_miss_ratio().value() >= w.l2_demand_miss_ratio().value());
}

#[test]
fn fig18_rs_structures_are_close() {
    let two = SystemConfig::sparc64_v();
    let one = two.clone().with_core(two.core.clone().with_unified_rs());
    let r2 = run(SuiteKind::SpecInt95, &two, 9);
    let r1 = run(SuiteKind::SpecInt95, &one, 9);
    let ratio = r2.ipc() / r1.ipc();
    assert!(
        (0.93..=1.02).contains(&ratio),
        "2RS must be within a few percent of 1RS (got {ratio:.3})"
    );
}

#[test]
fn fig08_narrow_issue_is_slower() {
    let four = SystemConfig::sparc64_v();
    let two = four
        .clone()
        .with_core(four.core.clone().with_issue_width(2));
    let r4 = run(SuiteKind::SpecInt95, &four, 9);
    let r2 = run(SuiteKind::SpecInt95, &two, 9);
    assert!(
        r4.ipc() > r2.ipc(),
        "4-way {} vs 2-way {}",
        r4.ipc(),
        r2.ipc()
    );
}
