//! Trace tooling: generate a workload trace, write it in the binary
//! format, read it back, and print its distributional summary.
//!
//! ```sh
//! cargo run --release --example trace_tools [records]
//! ```

use sparc64v::trace::{binary, TraceSummary, VecTrace};
use sparc64v::workloads::{Suite, SuiteKind};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let records: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000);
    let suite = Suite::preset(SuiteKind::Tpcc);
    let program = &suite.programs()[0];
    let trace = program.generate(records, 3);

    // Round-trip through the on-disk format.
    let path = std::env::temp_dir().join("s64v_demo_trace.bin");
    let encoded = binary::encode(&trace);
    std::fs::write(&path, &encoded)?;
    let bytes = std::fs::read(&path)?;
    let back: VecTrace = binary::decode(&bytes)?;
    assert_eq!(back, trace, "binary round trip must be lossless");
    println!(
        "wrote and re-read {} records ({} bytes) via {}",
        back.len(),
        encoded.len(),
        path.display()
    );

    let s = TraceSummary::collect(back.stream());
    println!();
    println!("instructions     : {}", s.instructions);
    println!("memory ops       : {:.1}%", s.mem_fraction() * 100.0);
    println!(
        "branches         : {:.1}% (cond taken rate {:.1}%)",
        s.branch_fraction() * 100.0,
        s.taken_rate() * 100.0
    );
    println!("kernel fraction  : {:.1}%", s.kernel_fraction() * 100.0);
    println!("branch sites     : {}", s.branch_sites);
    println!("code footprint   : {} KB", s.code_footprint_bytes() / 1024);
    println!("data footprint   : {} KB", s.data_footprint_bytes() / 1024);
    std::fs::remove_file(&path).ok();
    Ok(())
}
