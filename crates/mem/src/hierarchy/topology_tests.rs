use super::*;

fn hier(cores: usize) -> MemorySystem {
    MemorySystem::new(MemConfig::sparc64_v().with_hierarchical_bus(4, 12), cores)
}

#[test]
fn boards_are_assigned_by_cpu_index() {
    let m = hier(8);
    assert_eq!(m.board_of(0), Some(0));
    assert_eq!(m.board_of(3), Some(0));
    assert_eq!(m.board_of(4), Some(1));
    assert_eq!(m.board_of(7), Some(1));
    assert_eq!(m.boards.len(), 2);
}

#[test]
fn flat_topology_has_no_boards() {
    let m = MemorySystem::new(MemConfig::sparc64_v(), 4);
    assert!(m.boards.is_empty());
    assert_eq!(m.board_of(2), None);
}

#[test]
fn memory_misses_pay_the_board_crossing() {
    let mut flat = MemorySystem::new(MemConfig::sparc64_v(), 8);
    let mut hier = hier(8);
    let a = flat.load(0, 0x5_0000, 0);
    let b = hier.load(0, 0x5_0000, 0);
    assert!(
        b.ready_at > a.ready_at,
        "hierarchical path must be slower: {} vs {}",
        b.ready_at,
        a.ready_at
    );
}

#[test]
fn cross_board_move_out_costs_more_than_same_board() {
    // Owner on CPU 1 (board 0): requester CPU 2 (board 0, same) vs
    // CPU 5 (board 1, cross).
    let mut same = hier(8);
    let st = same.store(1, 0x9000, 0);
    let r_same = same.load(2, 0x9000, st.ready_at + 10);

    let mut cross = hier(8);
    let st = cross.store(1, 0x9000, 0);
    let r_cross = cross.load(5, 0x9000, st.ready_at + 10);

    let t_same = r_same.ready_at - (st.ready_at + 10);
    let t_cross = r_cross.ready_at - (st.ready_at + 10);
    assert!(
        t_cross > t_same,
        "cross-board move-out {t_cross} must exceed same-board {t_same}"
    );
    assert_eq!(cross.stats(5).coherence.move_outs_in.get(), 1);
}

#[test]
fn local_traffic_does_not_occupy_remote_boards() {
    let mut m = hier(8);
    // Board-0 CPUs hammer memory; board 1's bus must stay idle.
    let mut t = 0;
    for i in 0..50u64 {
        t = m.load(0, 0x10_0000 + i * 4096, t).ready_at + 1;
    }
    assert!(m.boards[0].busy_cycles() > 0);
    assert_eq!(m.boards[1].busy_cycles(), 0, "remote board bus stays idle");
    assert!(
        m.bus.busy_cycles() > 0,
        "backplane carries the memory traffic"
    );
}
