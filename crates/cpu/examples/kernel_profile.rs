//! Where the detailed kernel's host time goes, phase by phase.
//!
//! `cargo run --release -p s64v-cpu --features phase-profile --example
//! kernel_profile [passes]` runs the four programs of the benchmark's
//! `up_cpu_bound` workload at the benchmark's sizes (250 000 warm-up +
//! 250 000 timed records each, seed 42), `passes` times over (default 5),
//! while a second thread samples the kernel's phase id every ~150 µs.
//! It prints the share of samples per phase, host nanoseconds per timed
//! record and per stepped cycle, and the exact work counters — the table
//! EXPERIMENTS.md "Simulator throughput" keeps per landed change.
//! Instrumented builds run ~10 % slower than plain ones; shares, not
//! absolute times, are what the table is for.

use s64v_core::program_seed;
use s64v_cpu::profile::{self, Phase, Work};
use s64v_cpu::{Core, CoreConfig};
use s64v_mem::{MemConfig, MemorySystem};
use s64v_trace::SliceStream;
use s64v_workloads::{Suite, SuiteKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const WARM: usize = 250_000;
const TIMED: usize = 250_000;
const SEED: u64 = 42;
const PROGRAMS: [SuiteKind; 4] = [
    SuiteKind::SpecInt95,
    SuiteKind::SpecFp95,
    SuiteKind::SpecInt2000,
    SuiteKind::SpecFp2000,
];

fn main() {
    let passes: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("passes is a number"))
        .unwrap_or(5);
    let traces: Vec<_> = PROGRAMS
        .iter()
        .map(|&kind| {
            let suite = Suite::preset(kind);
            let program = &suite.programs()[0];
            program.generate(WARM + TIMED, program_seed(SEED, program.name()))
        })
        .collect();

    let stop = AtomicBool::new(false);
    let mut samples = [0u64; Phase::ALL.len()];
    let mut detailed = Duration::ZERO;
    let mut cycles = 0u64;
    profile::reset();
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut seen = [0u64; Phase::ALL.len()];
            while !stop.load(Ordering::Relaxed) {
                seen[profile::current() as usize] += 1;
                std::thread::sleep(Duration::from_micros(150));
            }
            seen
        });
        for _ in 0..passes {
            for trace in &traces {
                let (warm, timed) = trace.records().split_at(WARM);
                let mut mem = MemorySystem::new(MemConfig::sparc64_v(), 1);
                let mut core = Core::new(CoreConfig::sparc64_v(), 0);
                for rec in warm {
                    core.warm(&mut mem, rec);
                }
                let t0 = Instant::now();
                profile::enter(Phase::RunLoop);
                cycles += core
                    .try_run_from(&mut mem, &mut SliceStream::new(timed), 0)
                    .expect("the benchmark's programs do not wedge");
                profile::enter(Phase::Outside);
                detailed += t0.elapsed();
                assert_eq!(core.stats().committed.get(), TIMED as u64);
            }
        }
        stop.store(true, Ordering::Relaxed);
        samples = sampler.join().expect("the sampler does not panic");
    });

    let records = (passes * PROGRAMS.len() * TIMED) as f64;
    let kernel_samples: u64 = samples[1..].iter().sum();
    let ns = detailed.as_nanos() as f64;
    let stepped = profile::work(Work::SteppedCycles) as f64;
    println!(
        "{} timed records, {cycles} cycles, {:.3} s detailed, {kernel_samples} kernel samples",
        records as u64,
        detailed.as_secs_f64()
    );
    println!(
        "{:.1} ns/record, {:.1} ns/stepped cycle (instrumented build)",
        ns / records,
        ns / stepped
    );
    println!("\n{:<14}{:>8}{:>12}", "phase", "share %", "ns/record");
    for phase in &Phase::ALL[1..] {
        let share = samples[*phase as usize] as f64 / kernel_samples as f64;
        println!(
            "{:<14}{:>8.1}{:>12.1}",
            format!("{phase:?}"),
            100.0 * share,
            share * ns / records
        );
    }
    println!("\n{:<22}{:>14}{:>14}", "work", "count", "per stepped");
    for work in Work::ALL {
        let n = profile::work(work);
        println!(
            "{:<22}{:>14}{:>14.3}",
            format!("{work:?}"),
            n,
            n as f64 / stepped
        );
    }
}
