//! Micro-benches for the hot component models: cache lookups, BHT
//! prediction, MESI directory transitions, the trace codec, and building
//! and copying a whole memory system (what every campaign point pays
//! before it times anything).
//!
//! Plain `harness = false` timing loops (the workspace builds offline,
//! so there is no Criterion); run with `cargo bench -p s64v-bench`.

use s64v_cpu::{Bht, BhtConfig};
use s64v_mem::cache::Cache;
use s64v_mem::coherence::{Directory, Mesi};
use s64v_mem::config::CacheGeometry;
use s64v_mem::{MemConfig, MemorySystem};
use s64v_trace::binary;
use s64v_workloads::{Suite, SuiteKind};
use std::hint::black_box;
use std::time::Instant;

/// Times `ops` invocations of `f` and reports per-op latency.
fn bench(group: &str, name: &str, ops: u64, mut f: impl FnMut(u64)) {
    // Warm up, then time one long batch.
    for i in 0..(ops / 10).max(1) {
        f(i);
    }
    let t0 = Instant::now();
    for i in 0..ops {
        f(i);
    }
    let dt = t0.elapsed().as_secs_f64();
    println!(
        "{group}/{name}: {:.1} ns/op, {:.2} Mops/s",
        dt / ops as f64 * 1e9,
        ops as f64 / dt / 1e6
    );
}

fn cache_ops() {
    let mut cache = Cache::new(CacheGeometry::new(128 * 1024, 2, 4));
    bench("cache", "access_fill", 2_000_000, |i| {
        let addr = (i.wrapping_mul(0x9e3779b97f4a7c15)) & 0xf_ffff;
        if !cache.access(addr) {
            cache.fill(addr, false);
        }
    });
}

fn bht_ops() {
    let mut bht = Bht::new(BhtConfig::large_16k_4w_2t());
    bench("bht", "predict_update", 2_000_000, |i| {
        let pc = (i % 30_000) * 4;
        let taken = !i.is_multiple_of(3);
        black_box(bht.predict(pc));
        bht.update(pc, taken);
    });
}

fn directory_ops() {
    let mut dir = Directory::new(16);
    bench("mesi", "read_write_evict", 1_000_000, |i| {
        let core = (i % 16) as usize;
        let line = (i % 4096) * 64;
        match i % 3 {
            0 => {
                if !matches!(dir.state(core, line), Mesi::Invalid) {
                    dir.evict(core, line);
                } else {
                    dir.read(core, line);
                }
            }
            1 => {
                dir.write(core, line);
            }
            _ => {
                dir.evict(core, line);
            }
        }
    });
}

fn trace_codec() {
    let suite = Suite::preset(SuiteKind::SpecInt95);
    let trace = suite.programs()[0].generate(50_000, 3);
    let encoded = binary::encode(&trace);
    bench("trace_codec", "encode", 20, |_| {
        black_box(binary::encode(&trace));
    });
    bench("trace_codec", "decode", 20, |_| {
        black_box(binary::decode(&encoded).expect("valid"));
    });
}

/// Times `machines` invocations of `f` and reports the cost per machine
/// (the `elem/s` rate is what `scripts/ci.sh` holds against
/// `specs/bench_floor.json`).
fn bench_machines(name: &str, machines: u32, mut f: impl FnMut() -> MemorySystem) {
    black_box(f());
    let t0 = Instant::now();
    for _ in 0..machines {
        black_box(f());
    }
    let dt = t0.elapsed().as_secs_f64();
    println!(
        "mem/{name}: {:.1} us/machine, {:.0} elem/s",
        dt / machines as f64 * 1e6,
        machines as f64 / dt
    );
}

/// A cold production memory system, and a copy of one warmed over a
/// TPC-C warm-up. Both are a handful of allocations and block copies
/// while the cache directories are flat arrays; a return to one heap
/// block per set (10 240 of them) shows here as a several-fold drop.
fn mem_machines() {
    bench_machines("new", 2_000, || {
        MemorySystem::new(MemConfig::sparc64_v(), 1)
    });
    let trace = Suite::preset(SuiteKind::Tpcc).programs()[0].generate(100_000, 3);
    let mut warmed = MemorySystem::new(MemConfig::sparc64_v(), 1);
    for rec in trace.records() {
        warmed.warm_fetch(0, rec.pc);
        if let Some(m) = rec.instr.mem {
            warmed.warm_data(0, m.addr, rec.instr.op == s64v_isa::OpClass::Store);
        }
    }
    bench_machines("fork", 2_000, || warmed.fork());
}

fn main() {
    mem_machines();
    cache_ops();
    bht_ops();
    directory_ops();
    trace_codec();
}
