//! Bench: simulator throughput (simulated instructions per second), the
//! analogue of the paper's "7.8 K instructions per second on a 1 GHz
//! Pentium III" figure for its C model (§2.1).
//!
//! Plain `harness = false` timing loops (the workspace builds offline,
//! so there is no Criterion); run with `cargo bench -p s64v-bench`.
//!
//! Each `sim_speed` line also reports *simulated cycles per second* —
//! records/s conflates workload IPC with raw kernel speed, while
//! cycles/s is the honest unit for a cycle-stepped (and now
//! cycle-skipping) kernel. `-- --smoke` runs a reduced-size variant for
//! CI regression gating.

use s64v_core::{PerformanceModel, SystemConfig};
use s64v_workloads::{smp_traces, suite::tpcc_program, Suite, SuiteKind};
use std::time::Instant;

/// Runs `f` a few times and returns the best iteration in seconds.
fn best_secs(iters: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// One `sim_speed` line: the best iteration's time and the rates it gives.
fn report(label: &str, records: usize, cycles: u64, best: f64) {
    println!(
        "sim_speed/{label}: {:.3} ms/iter, {:.0} elem/s, {:.0} cycles/s",
        best * 1e3,
        records as f64 / best,
        cycles as f64 / best
    );
}

fn sim_speed(smoke: bool) {
    let (records, warmup, iters) = if smoke {
        (10_000usize, 50_000usize, 2)
    } else {
        (30_000usize, 200_000usize, 5)
    };
    for kind in [SuiteKind::SpecInt95, SuiteKind::SpecFp95, SuiteKind::Tpcc] {
        let suite = Suite::preset(kind);
        let program = &suite.programs()[0];
        let trace = program.generate(records + warmup, 7);
        let model = PerformanceModel::new(SystemConfig::sparc64_v());
        // The measured region simulates the same cycle count every
        // iteration (the model is deterministic), so one probe run
        // yields the cycles/s numerator.
        let cycles = model.run_trace_warm(&trace, warmup).cycles;
        let best = best_secs(iters, || {
            model.run_trace_warm(&trace, warmup);
        });
        report(kind.label(), records, cycles, best);
    }
}

/// The paper's 16-CPU TPC-C point: the suite in which each core sleeps to
/// its own next event while the others run. Nothing else here would
/// notice that rule being lost — one-core runs sleep either way.
fn smp_speed(smoke: bool) {
    const CPUS: usize = 16;
    let (records, warmup, iters) = if smoke {
        (4_000usize, 8_000usize, 3)
    } else {
        (10_000usize, 60_000usize, 5)
    };
    let traces = smp_traces(&tpcc_program(), CPUS, records + warmup, 7);
    let model = PerformanceModel::new(SystemConfig::smp(CPUS));
    let cycles = model.run_traces_warm(&traces, warmup).cycles;
    let best = best_secs(iters, || {
        model.run_traces_warm(&traces, warmup);
    });
    report("TPC-C(16P)", CPUS * records, cycles, best);
}

fn generation_speed(smoke: bool) {
    let (records, iters) = if smoke {
        (50_000usize, 2)
    } else {
        (100_000usize, 5)
    };
    for kind in [SuiteKind::SpecInt95, SuiteKind::Tpcc] {
        let suite = Suite::preset(kind);
        let program = suite.programs()[0].clone();
        let best = best_secs(iters, || {
            program.generate(records, 7);
        });
        println!(
            "trace_generation/{}: {:.3} ms/iter, {:.0} elem/s",
            kind.label(),
            best * 1e3,
            records as f64 / best
        );
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    sim_speed(smoke);
    smp_speed(smoke);
    generation_speed(smoke);
}
