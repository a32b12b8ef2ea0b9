//! A design-space sweep in the spirit of §4.3: IPC across L2 sizes and
//! associativities for the TPC-C workload, printed as a table.
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use sparc64v::mem::config::CacheGeometry;
use sparc64v::model::{PerformanceModel, Run, SystemConfig};
use sparc64v::stats::Table;
use sparc64v::workloads::{Suite, SuiteKind};

fn main() {
    let suite = Suite::preset(SuiteKind::Tpcc);
    let program = &suite.programs()[0];
    let warmup = 600_000;
    let timed = 60_000;
    let trace = program.generate(warmup + timed, 11);

    let sizes_mb = [1u64, 2, 4];
    let ways = [1u32, 2, 4];

    println!(
        "sweeping {} L2 design points over TPC-C...",
        sizes_mb.len() * ways.len()
    );

    let mut t = Table::with_headers(&["L2 size", "1-way IPC", "2-way IPC", "4-way IPC"]);
    for &mb in &sizes_mb {
        let mut row = vec![format!("{mb} MB")];
        for &w in &ways {
            let mut config = SystemConfig::sparc64_v();
            config.mem.l2 = CacheGeometry::new(mb << 20, w, config.mem.l2.latency);
            let r = PerformanceModel::new(config).run(Run::of(&trace).warm(warmup));
            row.push(format!("{:.3}", r.ipc()));
        }
        t.row(row);
    }
    println!();
    print!("{t}");
    println!();
    println!("(the shipped design point is 2 MB 4-way — §4.3.4)");
}
