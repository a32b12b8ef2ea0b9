//! Unit tests of the core, by what they observe.

use super::Core;
use crate::config::CoreConfig;
use crate::stats::CoreStats;
use s64v_isa::Instr;
use s64v_mem::{MemConfig, MemorySystem};
use s64v_trace::{TraceBuilder, VecTrace};

mod behaviour;
mod blame;
mod observation;
mod pipeline;

fn run_trace(trace: &VecTrace, cfg: CoreConfig) -> (CoreStats, u64) {
    let mut mem = MemorySystem::new(MemConfig::sparc64_v(), 1);
    let mut core = Core::new(cfg, 0);
    let mut stream = trace.stream();
    let cycles = core
        .try_run_from(&mut mem, &mut stream, 0)
        .expect("no wedge");
    (core.stats().clone(), cycles)
}

/// Builds a loop trace: `iters` iterations of `body` closed by an
/// unconditional branch back to the top, so code lines are warm after
/// the first iteration (like real workloads).
fn loop_trace(body: &[Instr], iters: usize) -> VecTrace {
    let mut b = TraceBuilder::new(0x10_0000);
    let start = b.pc();
    for _ in 0..iters {
        for i in body {
            b.push(*i);
        }
        b.push(Instr::branch_uncond(start));
    }
    b.finish()
}

fn nops(n: usize) -> VecTrace {
    let mut b = TraceBuilder::new(0x10_0000);
    for _ in 0..n {
        b.push(Instr::nop());
    }
    b.finish()
}
