use super::*;
use crate::coherence::Mesi;

#[test]
fn warming_fills_without_stats_or_timing() {
    let mut m = MemorySystem::new(MemConfig::sparc64_v(), 1);
    for i in 0..100u64 {
        m.warm_data(0, 0x4000 + i * 64, i % 3 == 0);
        m.warm_fetch(0, 0x9_0000 + i * 64);
    }
    assert_eq!(
        m.stats(0).l1d.accesses.get(),
        0,
        "warming must not count stats"
    );
    assert_eq!(m.stats(0).l1i.accesses.get(), 0);
    assert_eq!(m.bus().transactions(), 0, "warming must not touch the bus");
    // But the lines are resident: timed accesses hit.
    let a = m.load(0, 0x4000, 10);
    assert!(a.l1_hit, "warmed line must hit");
    let f = m.fetch(0, 0x9_0000, 10);
    assert!(f.l1_hit);
}

#[test]
fn fork_copies_warm_state_and_then_diverges_independently() {
    let warm = |m: &mut MemorySystem, range: std::ops::Range<u64>| {
        for i in range {
            m.warm_data(0, 0x4000 + i * 64, i % 3 == 0);
            m.warm_fetch(0, 0x9_0000 + i * 64);
        }
    };
    let mut original = MemorySystem::new(MemConfig::sparc64_v(), 1);
    warm(&mut original, 0..200);
    let mut fork = original.clone();
    // Timed traffic on the fork leaves the original untouched ...
    let timed: Vec<DataAccess> = (0..300u64)
        .map(|i| fork.load(0, 0x4000 + i * 64, 10 + i))
        .collect();
    assert_eq!(original.stats(0).l1d.accesses.get(), 0);
    // ... so the original keeps warming exactly as an unforked system
    // would, and a second fork taken later matches a fresh pass.
    warm(&mut original, 200..400);
    let mut fresh = MemorySystem::new(MemConfig::sparc64_v(), 1);
    warm(&mut fresh, 0..400);
    let mut late = original.clone();
    for i in 0..500u64 {
        assert_eq!(
            late.load(0, 0x4000 + i * 64, 10 + i),
            fresh.load(0, 0x4000 + i * 64, 10 + i)
        );
    }
    assert_eq!(late.stats(0), fresh.stats(0));
    // And the first fork saw what a system warmed over 0..200 sees.
    let mut short = MemorySystem::new(MemConfig::sparc64_v(), 1);
    warm(&mut short, 0..200);
    for (i, t) in timed.iter().enumerate() {
        let i = i as u64;
        assert_eq!(*t, short.load(0, 0x4000 + i * 64, 10 + i));
    }
}

#[test]
fn a_fork_renders_as_its_original_and_shares_no_storage_with_it() {
    // Enough lines to evict from every level and train the prefetcher.
    let churn = |m: &mut MemorySystem, salt: u64| {
        for i in 0..40_000u64 {
            let addr = (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt) & 0xff_ffc0;
            m.warm_data(0, addr, i % 3 == 0);
            m.warm_fetch(0, 0x900_0000 + (i % 5_000) * 64);
            m.warm_data(0, 0x100_0000 + i * 64, false);
        }
    };
    let mut original = MemorySystem::new(MemConfig::sparc64_v(), 1);
    churn(&mut original, 0);
    let mut fork = original.clone();
    let rendered = format!("{original:?}");
    assert_eq!(format!("{fork:?}"), rendered);
    // Neither side can reach the other's arrays: whatever one does,
    // the other still renders as it did at the fork.
    churn(&mut fork, 0x5a5a);
    for i in 0..2_000u64 {
        fork.store(0, 0x4000 + i * 64, 10 + i);
    }
    assert_eq!(format!("{original:?}"), rendered);
    let forked = format!("{fork:?}");
    assert_ne!(forked, rendered);
    churn(&mut original, 0xa5a5);
    assert_eq!(format!("{fork:?}"), forked);
}

#[test]
fn warming_trains_the_prefetcher() {
    let mut m = MemorySystem::new(MemConfig::sparc64_v(), 1);
    // Build a stream far beyond the L1 so timed accesses keep missing
    // L1 but find prefetched lines in L2.
    for i in 0..64u64 {
        m.warm_data(0, 0x100_0000 + i * 64, false);
    }
    // Next line in the stream was prefetched into L2 during warming.
    let probe = 0x100_0000 + 64 * 64;
    let mut found = false;
    for k in 0..4u64 {
        if m.cores[0].l2.contains(probe + k * 64) {
            found = true;
        }
    }
    assert!(found, "warm stream must leave prefetched lines in the L2");
}

#[test]
fn warm_smp_stores_take_ownership() {
    let mut m = MemorySystem::new(MemConfig::sparc64_v(), 2);
    m.warm_data(0, 0x8000, false);
    m.warm_data(1, 0x8000, true);
    assert_eq!(m.dir.state(1, crate::addr::line_of(0x8000)), Mesi::Modified);
    assert_eq!(m.dir.state(0, crate::addr::line_of(0x8000)), Mesi::Invalid);
    // Timed read by CPU 0 is now a move-out from CPU 1.
    let a = m.load(0, 0x8000, 100);
    assert!(!a.l1_hit);
    assert_eq!(m.stats(0).coherence.move_outs_in.get(), 1);
}

#[test]
fn perfect_flags_short_circuit_warming() {
    let mut m = MemorySystem::new(MemConfig::sparc64_v().with_perfect_l1(), 1);
    m.warm_data(0, 0x8000, true);
    m.warm_fetch(0, 0x9000);
    assert_eq!(m.cores[0].l1d.occupancy(), 0, "perfect L1 never fills");
}
