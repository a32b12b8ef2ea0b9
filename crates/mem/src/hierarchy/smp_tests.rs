use super::*;
use crate::coherence::Mesi;

#[test]
fn read_sharing_is_free_of_move_outs() {
    let mut m = MemorySystem::new(MemConfig::sparc64_v(), 4);
    for core in 0..4 {
        let a = m.load(core, 0xc000, core as u64 * 1000);
        assert!(!a.l1_hit);
    }
    for core in 0..4 {
        assert_eq!(m.stats(core).coherence.move_outs_in.get(), 0);
    }
}

#[test]
fn write_steals_a_modified_line_between_cpus() {
    let mut m = MemorySystem::new(MemConfig::sparc64_v(), 2);
    let st0 = m.store(0, 0xd000, 0);
    let st1 = m.store(1, 0xd000, st0.ready_at + 100);
    assert!(st1.ready_at > st0.ready_at);
    assert_eq!(m.stats(0).coherence.move_outs_out.get(), 1);
    // CPU 0 has lost the line entirely (write steal invalidates).
    let back = m.load(0, 0xd000, st1.ready_at + 1000);
    assert!(!back.l1_hit);
}

#[test]
fn upgrade_is_cheaper_than_a_miss() {
    let mut m = MemorySystem::new(MemConfig::sparc64_v(), 2);
    // Both CPUs read; CPU 0 then upgrades with a store hit.
    let a = m.load(0, 0xe000, 0);
    let b = m.load(1, 0xe000, 0);
    let t = a.ready_at.max(b.ready_at) + 10;
    let st = m.store(0, 0xe000, t);
    assert!(st.l1_hit, "upgrade happens on a present line");
    let upgrade_cost = st.ready_at - t;
    assert!(
        upgrade_cost < a.ready_at, // far below a cold miss
        "upgrade cost {upgrade_cost} must be below a memory miss"
    );
    assert_eq!(m.stats(0).coherence.upgrades.get(), 1);
}

#[test]
fn remote_l1_copies_are_invalidated_too() {
    let mut m = MemorySystem::new(MemConfig::sparc64_v(), 2);
    let a = m.load(1, 0xf000, 0);
    let _ = m.store(0, 0xf000, a.ready_at + 10);
    assert!(
        !m.cores[1].l1d.contains(0xf000),
        "inclusion: L1 copy must go"
    );
    assert!(!m.cores[1].l2.contains(0xf000));
}

#[test]
fn directory_and_caches_stay_consistent_under_churn() {
    let mut m = MemorySystem::new(MemConfig::sparc64_v(), 4);
    let mut t = 0u64;
    for i in 0..2000u64 {
        let core = (i % 4) as usize;
        let addr = 0x10_0000 + (i * 2654435761 % 4096) * 64;
        if i % 3 == 0 {
            t = m.store(core, addr, t).ready_at.max(t) + 1;
        } else {
            t = m.load(core, addr, t).ready_at.max(t) + 1;
        }
        let line = crate::addr::line_of(addr);
        assert!(m.dir.check_invariants(line), "MESI invariant at {line:#x}");
        // If the directory says Invalid, the L2 must not hold it.
        for c in 0..4 {
            if m.dir.state(c, line) == Mesi::Invalid {
                assert!(
                    !m.cores[c].l2.contains(line),
                    "core {c} holds {line:#x} the directory lost"
                );
            }
        }
    }
}
