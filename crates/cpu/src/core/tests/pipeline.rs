//! One structural limit per test: commit width, rename pool, predictor
//! latency, unpipelined units, queues.

use super::{loop_trace, run_trace as run};
use crate::config::CoreConfig;
use s64v_isa::{Instr, MemWidth, OpClass, Reg};
use s64v_trace::TraceBuilder;

#[test]
fn commit_width_caps_retirement() {
    // Independent nops retire at most commit_width per cycle.
    let body: Vec<Instr> = (0..15).map(|_| Instr::nop()).collect();
    let t = loop_trace(&body, 300);
    let mut narrow = CoreConfig::sparc64_v();
    narrow.commit_width = 1;
    let (wide, _) = run(&t, CoreConfig::sparc64_v());
    let (one, _) = run(&t, narrow);
    assert!(
        one.ipc() <= 1.01,
        "1-wide commit caps IPC at 1, got {}",
        one.ipc()
    );
    assert!(wide.ipc() > one.ipc() * 1.5);
}

#[test]
fn rename_pool_pressure_stalls_decode() {
    // A long chain of int-dest instructions behind a slow divide fills
    // the rename pool (32 int results in flight).
    let mut body: Vec<Instr> = vec![Instr::alu(OpClass::IntDiv, Reg::int(1), &[Reg::int(1)])];
    for i in 0..40u8 {
        body.push(Instr::alu(
            OpClass::IntAlu,
            Reg::int(2 + (i % 20)),
            &[Reg::int(1)],
        ));
    }
    let t = loop_trace(&body, 60);
    // In the shipped design the 8-entry RSE buffers saturate before the
    // 32-entry rename pool does.
    let (stats, _) = run(&t, CoreConfig::sparc64_v());
    assert!(stats.stall_rs.get() > 0, "RSE must backpressure decode");
    // With outsized reservation stations, the rename pool becomes the
    // binding resource.
    let mut big_rs = CoreConfig::sparc64_v();
    big_rs.rse_entries = 64;
    big_rs.rsf_entries = 64;
    let (stats, _) = run(&t, big_rs);
    assert!(
        stats.stall_rename.get() > 0,
        "rename pool must backpressure decode once the RS is huge"
    );
}

#[test]
fn perfect_branch_prediction_removes_bubbles() {
    // A tight loop of taken branches: real BHT pays taken-branch
    // bubbles every iteration even when prediction is correct.
    let body: Vec<Instr> = (0..3).map(|_| Instr::nop()).collect();
    let t = loop_trace(&body, 500);
    let (real, real_cycles) = run(&t, CoreConfig::sparc64_v());
    let (perfect, perfect_cycles) =
        run(&t, CoreConfig::sparc64_v().with_perfect_branch_prediction());
    assert_eq!(
        real.mispredicts.get(),
        0,
        "uncond branches never mispredict"
    );
    assert!(
        perfect_cycles < real_cycles,
        "BHT access bubbles must cost cycles: {perfect_cycles} vs {real_cycles}"
    );
    let _ = perfect;
}

#[test]
fn small_bht_bubbles_less_than_large() {
    // Both predict the loop perfectly; the 1-cycle table injects fewer
    // taken-branch bubbles than the 2-cycle table (Fig 9's latency
    // advantage).
    let body: Vec<Instr> = (0..3).map(|_| Instr::nop()).collect();
    let t = loop_trace(&body, 500);
    let (_, large_cycles) = run(&t, CoreConfig::sparc64_v());
    let (_, small_cycles) = run(&t, CoreConfig::sparc64_v().with_small_bht());
    assert!(
        small_cycles < large_cycles,
        "1-cycle BHT must fetch targets sooner: {small_cycles} vs {large_cycles}"
    );
}

#[test]
fn divides_block_their_unit() {
    // Back-to-back divides on one chain serialize on the unpipelined
    // divider.
    let mut b = TraceBuilder::new(0x10_0000);
    for _ in 0..50 {
        b.push(Instr::alu(OpClass::IntDiv, Reg::int(1), &[Reg::int(1)]));
    }
    let t = b.finish();
    let (_, cycles) = run(&t, CoreConfig::sparc64_v());
    let div_lat = CoreConfig::sparc64_v().latencies.get(OpClass::IntDiv) as u64;
    assert!(
        cycles >= 50 * div_lat,
        "50 dependent divides need ≥ {} cycles, got {cycles}",
        50 * div_lat
    );
}

#[test]
fn store_queue_pressure_throttles_store_bursts() {
    // A burst of stores to distinct lines drains slowly (each drain
    // occupies the SQ until its line is ready).
    let mut b = TraceBuilder::new(0x10_0000);
    for i in 0..300u64 {
        b.push(Instr::store(
            Reg::int(1),
            Reg::int(2),
            0x40_0000 + i * 4096,
            MemWidth::B8,
        ));
    }
    let t = b.finish();
    let (stats, _) = run(&t, CoreConfig::sparc64_v());
    assert!(
        stats.stall_sq.get() > 0,
        "store bursts must hit the 10-entry SQ"
    );
    assert_eq!(stats.committed.get(), 300);
}

#[test]
fn window_occupancy_is_bounded_by_capacity() {
    let body: Vec<Instr> = (0..8)
        .map(|i| {
            Instr::load(
                Reg::int(1 + (i % 4) as u8),
                Reg::int(9),
                (0x100_0000 + i) << 20,
                MemWidth::B8,
            )
        })
        .collect();
    let t = loop_trace(&body, 100);
    let (stats, _) = run(&t, CoreConfig::sparc64_v());
    assert!(stats.window_occupancy.max_seen() <= 64);
    assert!(stats.lq_occupancy.max_seen() <= 16);
    assert!(stats.sq_occupancy.max_seen() <= 10);
}

#[test]
fn mispredict_penalty_scales_with_redirect_config() {
    let mut b = TraceBuilder::new(0x10_0000);
    for i in 0..800 {
        b.push(Instr::branch_cond(i % 2 == 0, b.pc() + 4));
        b.push(Instr::nop());
    }
    let t = b.finish();
    let fast = CoreConfig::sparc64_v();
    let mut slow = CoreConfig::sparc64_v();
    slow.redirect_penalty = 20;
    let (_, fast_cycles) = run(&t, fast);
    let (_, slow_cycles) = run(&t, slow);
    assert!(
        slow_cycles > fast_cycles + 500,
        "larger redirect penalty must cost cycles: {slow_cycles} vs {fast_cycles}"
    );
}

#[test]
fn zero_register_sources_never_stall() {
    // %g0 reads are free even behind a slow producer of %g0 (writes
    // to %g0 are discarded).
    let mut b = TraceBuilder::new(0x10_0000);
    for _ in 0..100 {
        b.push(Instr::alu(OpClass::IntDiv, Reg::int(0), &[Reg::int(5)]));
        b.push(Instr::alu(OpClass::IntAlu, Reg::int(6), &[Reg::int(0)]));
    }
    let t = b.finish();
    let (stats, cycles) = run(&t, CoreConfig::sparc64_v());
    assert_eq!(stats.committed.get(), 200);
    // The ALU ops never wait for the divides (no dependence through %g0),
    // but the divides serialize on the two dividers at ~38 cycles each.
    let div_lat = CoreConfig::sparc64_v().latencies.get(OpClass::IntDiv) as u64;
    assert!(
        cycles < 100 * div_lat,
        "ALU ops must not chain on %g0 ({cycles})"
    );
}

#[test]
fn fp_and_int_pipes_run_concurrently() {
    let mut int_body: Vec<Instr> = Vec::new();
    let mut mixed_body: Vec<Instr> = Vec::new();
    for i in 0..8u8 {
        int_body.push(Instr::alu(
            OpClass::IntAlu,
            Reg::int(1 + (i % 4)),
            &[Reg::int(1 + (i % 4))],
        ));
        mixed_body.push(Instr::alu(
            OpClass::IntAlu,
            Reg::int(1 + (i % 4)),
            &[Reg::int(1 + (i % 4))],
        ));
        mixed_body.push(Instr::alu(
            OpClass::FpAdd,
            Reg::fp(1 + (i % 4)),
            &[Reg::fp(1 + (i % 4))],
        ));
    }
    let int_t = loop_trace(&int_body, 400);
    let mixed_t = loop_trace(&mixed_body, 400);
    let (int_stats, _) = run(&int_t, CoreConfig::sparc64_v());
    let (mixed_stats, _) = run(&mixed_t, CoreConfig::sparc64_v());
    assert!(
        mixed_stats.ipc() > int_stats.ipc(),
        "adding FP work to int-bound code must raise IPC: {} vs {}",
        mixed_stats.ipc(),
        int_stats.ipc()
    );
}
