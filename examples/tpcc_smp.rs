//! TPC-C on a symmetric multiprocessor: one trace stream per CPU over a
//! shared memory system with MESI coherence between the L2 caches —
//! the paper's system-level use case (§2.1, §4.3.4).
//!
//! ```sh
//! cargo run --release --example tpcc_smp [cpus]
//! ```

use sparc64v::model::{PerformanceModel, Run, SystemConfig};
use sparc64v::workloads::{smp_traces, suite::tpcc_program};

fn main() {
    let cpus: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let warmup = 200_000;
    let timed = 50_000;

    println!("generating {cpus} TPC-C streams ({warmup} warm-up + {timed} timed each)...");
    let traces = smp_traces(&tpcc_program(), cpus, warmup + timed, 7);

    let config = SystemConfig::smp(cpus);
    let result = PerformanceModel::new(config).run(Run::new(&traces).warm(warmup));

    println!(
        "system throughput: {:.3} IPC over {} cycles",
        result.ipc(),
        result.cycles
    );
    println!(
        "bus utilization  : {:.1}%",
        result.bus_utilization() * 100.0
    );
    println!();
    println!("cpu  IPC    L1D-miss%  L2-miss%  move-outs(in/out)  upgrades  invalidations");
    for (i, (c, m)) in result.core_stats.iter().zip(&result.mem_stats).enumerate() {
        println!(
            "{:<4} {:<6.3} {:<10.3} {:<9.3} {:>4} / {:<10} {:<9} {}",
            i,
            c.ipc(),
            m.l1d.miss_ratio().percent(),
            m.l2_demand.miss_ratio().percent(),
            m.coherence.move_outs_in.get(),
            m.coherence.move_outs_out.get(),
            m.coherence.upgrades.get(),
            m.coherence.invalidations_caused.get(),
        );
    }
    println!();
    println!(
        "total cache-to-cache move-outs: {} (the §3.3 cost two cache levels keep low)",
        result.move_outs()
    );
}
