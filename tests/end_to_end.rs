//! End-to-end integration tests: the full model over generated workloads.

use sparc64v::model::{PerformanceModel, Run, SystemConfig};
use sparc64v::workloads::{Suite, SuiteKind};

const WARMUP: usize = 60_000;
const TIMED: usize = 12_000;

fn run(kind: SuiteKind, program: usize, config: &SystemConfig) -> sparc64v::model::RunResult {
    let suite = Suite::preset(kind);
    let trace = suite.programs()[program].generate(WARMUP + TIMED, 5);
    PerformanceModel::new(config.clone()).run(Run::of(&trace).warm(WARMUP))
}

#[test]
fn every_suite_commits_and_produces_sane_ipc() {
    let config = SystemConfig::sparc64_v();
    for kind in SuiteKind::ALL {
        let r = run(kind, 0, &config);
        assert_eq!(r.committed, TIMED as u64, "{kind}");
        assert!(r.ipc() > 0.05 && r.ipc() < 4.0, "{kind}: IPC {}", r.ipc());
    }
}

#[test]
fn simulation_is_deterministic() {
    let config = SystemConfig::sparc64_v();
    let a = run(SuiteKind::Tpcc, 0, &config);
    let b = run(SuiteKind::Tpcc, 0, &config);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(
        a.mem_stats[0].l2_demand.misses.get(),
        b.mem_stats[0].l2_demand.misses.get()
    );
    assert_eq!(
        a.core_stats[0].mispredicts.get(),
        b.core_stats[0].mispredicts.get()
    );
}

#[test]
fn idealization_is_monotone() {
    // Each perfect-component knob can only speed things up.
    let base_cfg = SystemConfig::sparc64_v();
    let base = run(SuiteKind::Tpcc, 0, &base_cfg);

    let pl2 = base_cfg
        .clone()
        .with_mem(base_cfg.mem.clone().with_perfect_l2());
    let r_l2 = run(SuiteKind::Tpcc, 0, &pl2);
    assert!(r_l2.cycles <= base.cycles, "perfect L2 must not slow down");

    let pl1 = pl2
        .clone()
        .with_mem(pl2.mem.clone().with_perfect_l1().with_perfect_tlb());
    let r_l1 = run(SuiteKind::Tpcc, 0, &pl1);
    assert!(
        r_l1.cycles <= r_l2.cycles,
        "perfect L1/TLB must not slow down"
    );

    let pbr = pl1
        .clone()
        .with_core(pl1.core.clone().with_perfect_branch_prediction());
    let r_br = run(SuiteKind::Tpcc, 0, &pbr);
    assert!(
        r_br.cycles <= r_l1.cycles,
        "perfect branches must not slow down"
    );
}

#[test]
fn warm_runs_are_faster_than_cold() {
    let config = SystemConfig::sparc64_v();
    let suite = Suite::preset(SuiteKind::SpecInt95);
    let trace = suite.programs()[0].generate(WARMUP + TIMED, 5);
    let model = PerformanceModel::new(config);
    let cold = {
        let short = sparc64v::trace::VecTrace::from_records(trace.records()[WARMUP..].to_vec());
        model.run(Run::of(&short))
    };
    let warm = model.run(Run::of(&trace).warm(WARMUP));
    assert!(
        warm.cycles < cold.cycles,
        "warm {} vs cold {}",
        warm.cycles,
        cold.cycles
    );
}

#[test]
fn fp_workloads_use_the_fp_pipes() {
    let config = SystemConfig::sparc64_v();
    let r = run(SuiteKind::SpecFp95, 0, &config);
    assert!(r.ipc() > 0.05, "IPC {}", r.ipc());
    // FP code has few mispredicts (long predictable loops).
    assert!(
        r.mispredict_ratio().value() < 0.10,
        "FP mispredict {}",
        r.mispredict_ratio().value()
    );
}

#[test]
fn tpcc_is_the_memory_bound_workload() {
    let config = SystemConfig::sparc64_v();
    let tpcc = run(SuiteKind::Tpcc, 0, &config);
    let int = run(SuiteKind::SpecInt95, 0, &config);
    assert!(
        tpcc.l1i_miss_ratio().value() > int.l1i_miss_ratio().value(),
        "TPC-C has the larger code footprint"
    );
    assert!(
        tpcc.cpi() > int.cpi(),
        "TPC-C must be slower per instruction"
    );
}
