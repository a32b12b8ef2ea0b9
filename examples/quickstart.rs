//! Quickstart: build the production SPARC64 V model, run a SPECint95-like
//! trace, and print the headline statistics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sparc64v::model::{PerformanceModel, Run, SystemConfig};
use sparc64v::workloads::{Suite, SuiteKind};

fn main() {
    // The paper's Table 1 configuration: 4-issue out-of-order core,
    // 128 KB L1s, on-chip 2 MB L2 with hardware prefetch.
    let config = SystemConfig::sparc64_v();

    // A synthetic "gcc-like" SPECint95 program; generation is
    // deterministic given the seed.
    let suite = Suite::preset(SuiteKind::SpecInt95);
    let program = &suite.programs()[2];
    let warmup = 400_000;
    let timed = 100_000;
    let trace = program.generate(warmup + timed, 42);

    println!(
        "running {} ({} warm-up + {} timed instructions)...",
        program.name(),
        warmup,
        timed
    );
    let result = PerformanceModel::new(config).run(Run::of(&trace).warm(warmup));

    println!("cycles              : {}", result.cycles);
    println!("IPC                 : {:.3}", result.ipc());
    println!(
        "L1I miss ratio      : {:.3}%",
        result.l1i_miss_ratio().percent()
    );
    println!(
        "L1D miss ratio      : {:.3}%",
        result.l1d_miss_ratio().percent()
    );
    println!(
        "L2 demand miss ratio: {:.3}%",
        result.l2_demand_miss_ratio().percent()
    );
    println!(
        "branch mispredicts  : {:.3}%",
        result.mispredict_ratio().percent()
    );
    println!("prefetches issued   : {}", result.prefetches_issued());
    println!(
        "bus utilization     : {:.1}%",
        result.bus_utilization() * 100.0
    );
    println!(
        "mean load latency   : {:.1} cycles",
        result.mean_load_latency()
    );

    let core = &result.core_stats[0];
    println!(
        "window occupancy    : {:.1} / 64 (mean)",
        core.window_occupancy.mean()
    );
    println!("replays (spec disp.): {}", core.replays.get());
    println!("bank conflicts      : {}", core.bank_conflicts.get());
}
