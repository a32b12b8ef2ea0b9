use super::*;
use crate::bus::BusOp;

fn up() -> MemorySystem {
    MemorySystem::new(MemConfig::sparc64_v(), 1)
}

#[test]
fn cold_load_misses_then_hits() {
    let mut m = up();
    let a = m.load(0, 0x4000, 0);
    assert!(!a.l1_hit && !a.l2_hit);
    assert!(
        a.ready_at > 100,
        "memory access should be slow, got {}",
        a.ready_at
    );
    let b = m.load(0, 0x4000, a.ready_at);
    assert!(b.l1_hit);
    assert_eq!(b.ready_at, a.ready_at + m.config().l1d.latency as u64);
}

#[test]
fn l2_hit_is_much_faster_than_memory() {
    let mut m = up();
    let miss = m.load(0, 0x4000, 0);
    // Evict 0x4000 from the (2-way) L1 with same-set conflicts while
    // it stays resident in the much larger L2.
    let probe = Cache::new(m.config().l1d);
    let target = probe.set_of(0x4000);
    let conflicts: Vec<u64> = (1..1_000_000u64)
        .map(|i| 0x4000 + i * crate::addr::LINE_BYTES)
        .filter(|&a| probe.set_of(a) == target)
        .take(4)
        .collect();
    for (i, &a) in conflicts.iter().enumerate() {
        m.load(0, a, 10_000 * (i as u64 + 1));
    }
    let t = 1_000_000;
    let back = m.load(0, 0x4000, t);
    assert!(!back.l1_hit);
    assert!(back.l2_hit, "line must still be in L2");
    assert!(back.ready_at - t < miss.ready_at, "L2 hit must beat memory");
}

#[test]
fn merged_miss_waits_for_pending_fill() {
    let mut m = up();
    let a = m.load(0, 0x8000, 0);
    // Second access to the same line two cycles later: structural hit,
    // but timed against the in-flight fill.
    let b = m.load(0, 0x8008, 2);
    assert!(b.l1_hit, "structurally present");
    assert!(b.ready_at >= a.ready_at, "must wait for the fill");
}

#[test]
fn store_marks_line_dirty_and_writeback_happens() {
    let mut m = up();
    let st = m.store(0, 0x1000, 0);
    assert!(!st.l1_hit);
    // Walk enough same-L2-set conflicting lines to force the dirty
    // line all the way out (the L2 is 4-way, and L1-resident lines
    // are protected, so push plenty through).
    let probe = Cache::new(m.config().l2);
    let target = probe.set_of(0x1000);
    let conflicts: Vec<u64> = (1..100_000_000u64)
        .map(|i| 0x1000 + i * crate::addr::LINE_BYTES)
        .filter(|&a| probe.set_of(a) == target)
        .take(10)
        .collect();
    for (i, &a) in conflicts.iter().enumerate() {
        m.load(0, a, 1_000_000 * (i as u64 + 1));
    }
    assert!(
        m.stats(0).writebacks.get() >= 1,
        "dirty eviction must write back"
    );
}

#[test]
fn perfect_l1_never_misses() {
    let mut m = MemorySystem::new(MemConfig::sparc64_v().with_perfect_l1(), 1);
    for i in 0..100u64 {
        let a = m.load(0, i * 4096, i);
        assert!(a.l1_hit);
    }
    assert_eq!(m.stats(0).l1d.misses.get(), 0);
}

#[test]
fn perfect_l2_serves_all_l1_misses() {
    let mut m = MemorySystem::new(MemConfig::sparc64_v().with_perfect_l2(), 1);
    for i in 0..100u64 {
        let a = m.load(0, i << 20, i * 1000);
        assert!(a.l2_hit);
    }
    assert_eq!(m.stats(0).l2_demand.misses.get(), 0);
}

#[test]
fn tlb_miss_adds_walk_latency() {
    let mut m = up();
    let a = m.load(0, 0, 0);
    assert!(a.tlb_miss);
    let mut m2 = MemorySystem::new(MemConfig::sparc64_v().with_perfect_tlb(), 1);
    let b = m2.load(0, 0, 0);
    assert!(!b.tlb_miss);
    assert!(a.ready_at > b.ready_at);
}

#[test]
fn fetch_path_uses_l1i() {
    let mut m = up();
    let a = m.fetch(0, 0x4_0000, 0);
    assert!(!a.l1_hit);
    let b = m.fetch(0, 0x4_0000, a.ready_at);
    assert!(b.l1_hit);
    assert_eq!(m.stats(0).l1i.accesses.get(), 2);
    assert_eq!(m.stats(0).l1d.accesses.get(), 0);
}

#[test]
fn sequential_misses_train_the_prefetcher() {
    let mut m = up();
    let mut t = 0;
    for i in 0..16u64 {
        let a = m.load(0, i * 64, t);
        t = a.ready_at + 1;
    }
    assert!(
        m.stats(0).prefetch_issued.get() > 0,
        "stream must be detected"
    );
    assert!(
        m.stats(0).prefetch_useful.get() > 0,
        "later demands must hit prefetched lines"
    );
    // Demand miss ratio must beat the no-prefetch configuration.
    let mut base = MemorySystem::new(MemConfig::sparc64_v().without_prefetch(), 1);
    let mut t = 0;
    for i in 0..16u64 {
        let a = base.load(0, i * 64, t);
        t = a.ready_at + 1;
    }
    assert!(m.stats(0).l2_demand.misses.get() < base.stats(0).l2_demand.misses.get());
}

#[test]
fn smp_read_of_modified_line_is_a_move_out() {
    let mut m = MemorySystem::new(MemConfig::sparc64_v(), 2);
    let st = m.store(0, 0x9000, 0);
    let ld = m.load(1, 0x9000, st.ready_at + 10);
    assert!(!ld.l1_hit);
    assert_eq!(m.stats(1).coherence.move_outs_in.get(), 1);
    assert_eq!(m.stats(0).coherence.move_outs_out.get(), 1);
}

#[test]
fn smp_store_invalidates_remote_copies() {
    let mut m = MemorySystem::new(MemConfig::sparc64_v(), 2);
    let a = m.load(0, 0xa000, 0);
    let b = m.load(1, 0xa000, 0);
    let st = m.store(0, 0xa000, a.ready_at.max(b.ready_at) + 10);
    assert!(st.l1_hit);
    assert!(m.stats(0).coherence.upgrades.get() >= 1);
    // CPU 1 lost its copy.
    let re = m.load(1, 0xa000, st.ready_at + 1000);
    assert!(!re.l1_hit);
}

#[test]
fn logging_bus_transfers_does_not_perturb_accesses() {
    let mut plain = up();
    let mut logged = up();
    logged.log_bus();
    let (mut t1, mut t2) = (0, 0);
    for i in 0..64u64 {
        let a = plain.load(0, i * 64, t1);
        let b = logged.load(0, i * 64, t2);
        assert_eq!(a, b, "logging must not change access outcomes");
        t1 = a.ready_at + 1;
        t2 = b.ready_at + 1;
        let f1 = plain.fetch(0, 0x40_0000 + i * 64, t1);
        let f2 = logged.fetch(0, 0x40_0000 + i * 64, t2);
        assert_eq!(f1, f2);
    }
    assert_eq!(
        format!("{:?}", plain.stats(0)),
        format!("{:?}", logged.stats(0))
    );
    assert!(!logged.take_bus_log().is_empty(), "the misses used the bus");
    assert!(plain.take_bus_log().is_empty(), "nothing logs unasked");
}

#[test]
fn the_bus_log_keeps_the_first_transfers() {
    let mut m = up();
    m.log_bus();
    for i in 0..BUS_LOG_CAP as u64 + 3 {
        m.req_backplane(i * 100, BusOp::Command, 0);
    }
    let log = m.take_bus_log();
    assert_eq!(log.len(), BUS_LOG_CAP);
    assert_eq!(log[0].requested_at, 0);
    assert_eq!(
        log[BUS_LOG_CAP - 1].requested_at,
        (BUS_LOG_CAP as u64 - 1) * 100
    );
    assert!(m.take_bus_log().is_empty(), "taking the log stops logging");
}

#[test]
fn up_never_touches_coherence() {
    let mut m = up();
    m.store(0, 0x100, 0);
    m.load(0, 0x100, 1000);
    assert_eq!(m.stats(0).coherence.upgrades.get(), 0);
    assert_eq!(m.stats(0).coherence.move_outs_in.get(), 0);
}
