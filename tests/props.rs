//! Randomized property tests on the core data structures and the
//! simulator's global invariants.
//!
//! These were originally written with `proptest`; the workspace now
//! builds offline, so each property runs over deterministic seeded
//! random inputs instead. The fixed seeds make failures reproducible
//! without a shrinker: the case index is part of every assertion
//! message.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparc64v::isa::{Instr, MemWidth, OpClass, Reg};
use sparc64v::mem::cache::Cache;
use sparc64v::mem::coherence::{Directory, Mesi};
use sparc64v::mem::config::CacheGeometry;
use sparc64v::trace::{binary, TraceRecord, VecTrace};
use std::collections::HashMap;

fn arb_reg(rng: &mut StdRng) -> Reg {
    match rng.gen_range(0..3u8) {
        0 => Reg::int(rng.gen_range(0..32u8)),
        1 => Reg::fp(rng.gen_range(0..32u8)),
        _ => Reg::cc(),
    }
}

fn arb_instr(rng: &mut StdRng) -> Instr {
    let width = match rng.gen_range(0..4u8) {
        0 => MemWidth::B1,
        1 => MemWidth::B2,
        2 => MemWidth::B4,
        _ => MemWidth::B8,
    };
    match rng.gen_range(0..8u8) {
        0 => {
            let (d, a, b) = (arb_reg(rng), arb_reg(rng), arb_reg(rng));
            Instr::alu(OpClass::IntAlu, d, &[a, b])
        }
        1 => {
            let (d, a, b) = (arb_reg(rng), arb_reg(rng), arb_reg(rng));
            Instr::alu(OpClass::FpMulAdd, d, &[a, b])
        }
        2 => Instr::load(
            arb_reg(rng),
            arb_reg(rng),
            rng.gen_range(0..=u64::MAX),
            width,
        ),
        3 => Instr::store(
            arb_reg(rng),
            arb_reg(rng),
            rng.gen_range(0..=u64::MAX),
            width,
        ),
        4 => Instr::branch_cond(rng.gen_bool(0.5), rng.gen_range(0..=u64::MAX)),
        5 => Instr::branch_uncond(rng.gen_range(0..=u64::MAX)),
        6 => Instr::nop(),
        _ => Instr::special().kernel(),
    }
}

fn arb_trace(rng: &mut StdRng, max_len: usize) -> VecTrace {
    let len = rng.gen_range(0..max_len);
    (0..len)
        .map(|_| TraceRecord::new(rng.gen_range(0..=u64::MAX), arb_instr(rng)))
        .collect()
}

#[test]
fn trace_binary_round_trips() {
    let mut rng = StdRng::seed_from_u64(0xb1a4);
    for case in 0..64 {
        let trace = arb_trace(&mut rng, 200);
        let encoded = binary::encode(&trace);
        let decoded = binary::decode(&encoded).expect("round trip");
        assert_eq!(decoded, trace, "case {case}");
    }
}

/// Any byte string near a valid encoding — every single-byte edit, every
/// truncation, extensions by one and by several bytes — is either
/// rejected or is exactly the encoding of what it decodes to: `decode`
/// never panics and never accepts bytes `encode` would not write.
#[test]
fn trace_binary_decode_accepts_only_canonical_bytes() {
    let canonical =
        |bytes: &[u8]| binary::decode(bytes).map_or(true, |t| &binary::encode(&t)[..] == bytes);
    let mut rng = StdRng::seed_from_u64(0xf022);
    for case in 0..64 {
        let good = binary::encode(&arb_trace(&mut rng, 6)).to_vec();
        for at in 0..good.len() {
            let mut bytes = good.clone();
            for value in 0..=u8::MAX {
                bytes[at] = value;
                assert!(canonical(&bytes), "case {case}: byte {at} = {value:#04x}");
            }
        }
        for len in 0..good.len() {
            assert!(canonical(&good[..len]), "case {case}: cut to {len}");
        }
        for extra in [1, 2, 9, 22] {
            let mut bytes = good.clone();
            bytes.extend((0..extra).map(|_| rng.gen_range(0..=u8::MAX)));
            assert!(canonical(&bytes), "case {case}: {extra} bytes appended");
        }
    }
}

#[test]
fn cache_matches_reference_lru() {
    let mut rng = StdRng::seed_from_u64(0xcac4e);
    for case in 0..64 {
        // 8 sets × 2 ways of 64-byte lines, against a naive reference.
        let mut cache = Cache::new(CacheGeometry::new(1024, 2, 1));
        // Reference: per set, a Vec<line> kept in LRU order (front = LRU).
        let mut reference: HashMap<u64, Vec<u64>> = HashMap::new();
        for _ in 0..rng.gen_range(1..600usize) {
            let addr = rng.gen_range(0u64..(1 << 14));
            let line = addr / 64;
            let set = cache.set_of(addr) as u64;
            let entry = reference.entry(set).or_default();
            let expected_hit = entry.contains(&line);
            let actual_hit = cache.access(addr);
            assert_eq!(actual_hit, expected_hit, "case {case}, line {line}");
            if expected_hit {
                entry.retain(|&l| l != line);
                entry.push(line);
            } else {
                cache.fill(addr, false);
                if entry.len() == 2 {
                    entry.remove(0);
                }
                entry.push(line);
            }
        }
        assert!(cache.occupancy() <= 16, "case {case}");
    }
}

#[test]
fn mesi_invariants_hold_under_random_traffic() {
    let mut rng = StdRng::seed_from_u64(0x3e51);
    for case in 0..64 {
        let mut dir = Directory::new(4);
        for _ in 0..rng.gen_range(1..500usize) {
            let core = rng.gen_range(0..4usize);
            let line = rng.gen_range(0u64..32) * 64;
            match rng.gen_range(0u8..3) {
                0 => {
                    if dir.state(core, line) == Mesi::Invalid {
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
            assert!(
                dir.check_invariants(line),
                "case {case}: line {line:#x} violated MESI"
            );
        }
    }
}

#[test]
fn writes_are_exclusive() {
    let mut rng = StdRng::seed_from_u64(0xe8c1);
    for case in 0..64 {
        let mut dir = Directory::new(4);
        for _ in 0..rng.gen_range(1..200usize) {
            let core = rng.gen_range(0..4usize);
            let line = rng.gen_range(0u64..16) * 64;
            dir.write(core, line);
            assert_eq!(dir.state(core, line), Mesi::Modified, "case {case}");
            for other in 0..4 {
                if other != core {
                    assert_eq!(dir.state(other, line), Mesi::Invalid, "case {case}");
                }
            }
        }
    }
}

mod simulator_props {
    use sparc64v::model::{PerformanceModel, Run, SystemConfig};
    use sparc64v::workloads::{Suite, SuiteKind};

    #[test]
    fn any_seed_simulates_deterministically() {
        for seed in [0u64, 1, 42, 313, 999] {
            let suite = Suite::preset(SuiteKind::SpecInt95);
            let trace = suite.programs()[0].generate(6_000, seed);
            let model = PerformanceModel::new(SystemConfig::sparc64_v());
            let a = model.run(Run::of(&trace));
            let b = model.run(Run::of(&trace));
            assert_eq!(a.cycles, b.cycles, "seed {seed}");
            assert_eq!(a.committed, 6_000, "seed {seed}");
        }
    }

    #[test]
    fn commits_match_trace_length() {
        for (len, seed) in [(1usize, 0u64), (17, 3), (800, 11), (3_999, 49)] {
            let suite = Suite::preset(SuiteKind::SpecFp95);
            let trace = suite.programs()[0].generate(len, seed);
            let model = PerformanceModel::new(SystemConfig::sparc64_v());
            let r = model.run(Run::of(&trace));
            assert_eq!(r.committed, len as u64, "len {len}, seed {seed}");
        }
    }
}

mod bus_props {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sparc64v::mem::bus::{BusOp, SystemBus};

    #[test]
    fn grants_never_overlap() {
        let mut rng = StdRng::seed_from_u64(0xb05);
        for case in 0..64 {
            let mut bus = SystemBus::new(16, 4, 64);
            let mut grants: Vec<(u64, u64)> = Vec::new();
            for _ in 0..rng.gen_range(1..200usize) {
                let now = rng.gen_range(0u64..10_000);
                let op = if rng.gen_bool(0.5) {
                    BusOp::LineTransfer
                } else {
                    BusOp::Command
                };
                let g = bus.request(now, op, 300);
                assert!(g.granted_at >= now, "case {case}: no time travel");
                grants.push((g.granted_at, g.done_at));
            }
            grants.sort();
            for w in grants.windows(2) {
                assert!(
                    w[0].1 <= w[1].0,
                    "case {case}: bus phases must not overlap: {w:?}"
                );
            }
        }
    }

    #[test]
    fn outstanding_limit_bounds_concurrency() {
        for n in [1usize, 2, 4, 5, 17, 64, 99] {
            let mut bus = SystemBus::new(1, 1, 4);
            // All requests at time 0 with long round trips: at most 4 can
            // be in flight, so grant times must spread out.
            let mut grants = Vec::new();
            for _ in 0..n {
                grants.push(bus.request(0, BusOp::Command, 1_000).granted_at);
            }
            for (i, &g) in grants.iter().enumerate() {
                // The i-th request waits for floor(i/4) round trips.
                assert!(g >= (i as u64 / 4) * 1_000, "n {n}, request {i}");
            }
        }
    }
}

mod bht_props {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sparc64v::cpu::{Bht, BhtConfig};
    use std::collections::HashMap;

    #[test]
    fn bht_matches_an_unbounded_two_bit_reference_when_it_fits() {
        let mut rng = StdRng::seed_from_u64(0xb47);
        for case in 0..32 {
            // 64 sites × 4 bytes fit comfortably in the 16K-entry table,
            // so the tagged table must behave exactly like an unbounded
            // per-site 2-bit counter file.
            let mut bht = Bht::new(BhtConfig::large_16k_4w_2t());
            let mut reference: HashMap<u64, u8> = HashMap::new();
            for _ in 0..rng.gen_range(1..500usize) {
                let site = rng.gen_range(0u64..64);
                let taken = rng.gen_bool(0.5);
                let pc = site * 4;
                let expected = reference.get(&pc).map(|&c| c >= 2);
                let got = bht.predict(pc);
                if let Some(exp) = expected {
                    assert_eq!(got, exp, "case {case}, site {site}");
                } else {
                    assert!(!got, "case {case}: cold sites predict not-taken");
                }
                bht.update(pc, taken);
                let c = reference.entry(pc).or_insert(if taken { 2 } else { 1 });
                if expected.is_some() {
                    *c = if taken {
                        (*c + 1).min(3)
                    } else {
                        c.saturating_sub(1)
                    };
                }
            }
        }
    }
}
