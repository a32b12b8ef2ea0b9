//! The flat branch history table against the nested one it replaced.
//!
//! `Bht` was a `Vec` of per-set `Vec`s: a set grew by `push` until full,
//! then replaced its least recently used way in place. The flat table
//! must answer every operation — `predict`, `update`, `has_entry`,
//! `occupancy` — exactly as that table did, op for op, on random streams
//! and on the branch streams of real traces, for both shipped geometries
//! and a tiny one that thrashes.

use rand::{rngs::StdRng, Rng, SeedableRng};
use s64v_cpu::{Bht, BhtConfig};
use s64v_isa::OpClass;
use s64v_workloads::{Suite, SuiteKind};

/// The nested table, as it was (test-only reference).
struct NestedBht {
    config: BhtConfig,
    sets: Vec<Vec<(u64, u8, u64)>>, // (tag, counter, last used)
    clock: u64,
}

impl NestedBht {
    fn new(config: BhtConfig) -> Self {
        NestedBht {
            config,
            sets: vec![Vec::new(); config.sets() as usize],
            clock: 0,
        }
    }

    fn index(&self, pc: u64) -> (usize, u64) {
        let word = pc / 4;
        let set = (word & (self.config.sets() as u64 - 1)) as usize;
        (set, word >> self.config.sets().trailing_zeros())
    }

    fn predict(&mut self, pc: u64) -> bool {
        self.clock += 1;
        let (set, tag) = self.index(pc);
        match self.sets[set].iter_mut().find(|e| e.0 == tag) {
            Some(e) => {
                e.2 = self.clock;
                e.1 >= 2
            }
            None => false,
        }
    }

    fn update(&mut self, pc: u64, taken: bool) {
        self.clock += 1;
        let (set, tag) = self.index(pc);
        let ways = self.config.ways as usize;
        let set = &mut self.sets[set];
        if let Some(e) = set.iter_mut().find(|e| e.0 == tag) {
            e.1 = if taken {
                (e.1 + 1).min(3)
            } else {
                e.1.saturating_sub(1)
            };
            e.2 = self.clock;
            return;
        }
        let entry = (tag, if taken { 2 } else { 1 }, self.clock);
        if set.len() < ways {
            set.push(entry);
        } else {
            *set.iter_mut().min_by_key(|e| e.2).expect("full") = entry;
        }
    }

    fn has_entry(&self, pc: u64) -> bool {
        let (set, tag) = self.index(pc);
        self.sets[set].iter().any(|e| e.0 == tag)
    }

    fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

fn geometries() -> [BhtConfig; 3] {
    [
        BhtConfig::large_16k_4w_2t(),
        BhtConfig::small_4k_2w_1t(),
        BhtConfig {
            entries: 8,
            ways: 2,
            access_cycles: 1,
        },
    ]
}

/// Drives both tables through `ops` — `(pc, Some(taken))` a resolved
/// branch, `(pc, None)` a lookup — comparing every answer.
fn check(config: BhtConfig, ops: impl IntoIterator<Item = (u64, Option<bool>)>, what: &str) {
    let (mut flat, mut nested) = (Bht::new(config), NestedBht::new(config));
    for (i, (pc, outcome)) in ops.into_iter().enumerate() {
        let at = || format!("{what} {config:?}: op {i} at {pc:#x}");
        assert_eq!(flat.has_entry(pc), nested.has_entry(pc), "{}", at());
        match outcome {
            Some(taken) => {
                flat.update(pc, taken);
                nested.update(pc, taken);
            }
            None => assert_eq!(flat.predict(pc), nested.predict(pc), "{}", at()),
        }
        if i % 257 == 0 {
            assert_eq!(flat.occupancy(), nested.occupancy(), "{}", at());
        }
    }
    assert_eq!(
        flat.occupancy(),
        nested.occupancy(),
        "{what} {config:?}: at the end"
    );
    // A copy is the table: it answers the same from here on.
    let mut copy = flat.clone();
    for pc in (0..4096u64).map(|i| i * 4) {
        assert_eq!(
            copy.predict(pc),
            nested.predict(pc),
            "{what} {config:?}: copy"
        );
    }
}

#[test]
fn random_streams_match_the_nested_table_op_for_op() {
    for config in geometries() {
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // A site population a few times the table, drawn unevenly so
            // hot sites stay resident and cold ones thrash.
            let sites = 4 * config.entries as u64;
            let ops: Vec<(u64, Option<bool>)> = (0..60_000)
                .map(|_| {
                    let site = rng.gen_range(0..sites).min(rng.gen_range(0..sites));
                    let outcome = rng.gen_bool(0.6).then(|| rng.gen_bool(0.7));
                    (site * 4, outcome)
                })
                .collect();
            check(config, ops, &format!("seed {seed}"));
        }
    }
}

#[test]
fn real_branch_streams_match_the_nested_table_op_for_op() {
    for kind in SuiteKind::ALL {
        let trace = Suite::preset(kind).programs()[0].generate(60_000, 7);
        // What the core does with a conditional branch: look it up, then
        // train it with the outcome.
        let ops: Vec<(u64, Option<bool>)> = trace
            .records()
            .iter()
            .filter(|r| r.instr.op == OpClass::BranchCond)
            .filter_map(|r| Some((r.pc, r.instr.branch?.taken)))
            .flat_map(|(pc, taken)| [(pc, None), (pc, Some(taken))])
            .collect();
        assert!(ops.len() > 1_000, "{kind:?}: too few branches to test");
        for config in geometries() {
            check(config, ops.iter().copied(), &format!("{kind:?}"));
        }
    }
}
