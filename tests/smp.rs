//! SMP integration: coherence behaviour of the multiprocessor model.

use sparc64v::model::{PerformanceModel, Run, SystemConfig};
use sparc64v::workloads::{smp_traces, suite::tpcc_program};

const WARMUP: usize = 60_000;
const TIMED: usize = 10_000;

fn run_smp(cpus: usize, seed: u64) -> sparc64v::model::RunResult {
    let traces = smp_traces(&tpcc_program(), cpus, WARMUP + TIMED, seed);
    PerformanceModel::new(SystemConfig::smp(cpus)).run(Run::new(&traces).warm(WARMUP))
}

#[test]
fn smp_commits_every_stream() {
    let r = run_smp(4, 3);
    assert_eq!(r.committed, 4 * TIMED as u64);
    for c in &r.core_stats {
        assert_eq!(c.committed.get(), TIMED as u64);
    }
}

#[test]
fn shared_data_causes_coherence_traffic() {
    let r = run_smp(4, 3);
    let invals: u64 = r
        .mem_stats
        .iter()
        .map(|m| m.coherence.invalidations_caused.get())
        .sum();
    let upgrades: u64 = r.mem_stats.iter().map(|m| m.coherence.upgrades.get()).sum();
    assert!(
        r.move_outs() + invals + upgrades > 0,
        "TPC-C's shared rows must produce move-outs/invalidations"
    );
}

#[test]
fn more_cpus_mean_more_bus_pressure() {
    let r2 = run_smp(2, 3);
    let r8 = run_smp(8, 3);
    assert!(
        r8.bus_utilization() > r2.bus_utilization(),
        "8P bus {} must exceed 2P bus {}",
        r8.bus_utilization(),
        r2.bus_utilization()
    );
}

#[test]
fn per_cpu_throughput_degrades_under_sharing() {
    let up = {
        let traces = smp_traces(&tpcc_program(), 1, WARMUP + TIMED, 3);
        PerformanceModel::new(SystemConfig::sparc64_v()).run(Run::new(&traces).warm(WARMUP))
    };
    let smp = run_smp(8, 3);
    let per_cpu = smp.ipc() / 8.0;
    assert!(
        per_cpu <= up.ipc() * 1.05,
        "per-CPU IPC {per_cpu} cannot beat the UP run {}",
        up.ipc()
    );
}

#[test]
fn smp_is_deterministic() {
    let a = run_smp(2, 11);
    let b = run_smp(2, 11);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.move_outs(), b.move_outs());
}
