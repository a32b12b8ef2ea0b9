//! The generator contract the streaming registry rests on: a trace is a
//! prefix of every longer one, however it is asked for, and its bytes are
//! the ones the materialising generator produced.

use s64v_isa::OpClass;
use s64v_trace::{binary, TraceRecord, VecTrace};
use s64v_workloads::{smp_traces, suite::tpcc_program, Program, Suite, SuiteKind};
use std::collections::HashSet;

const SEED: u64 = 42;

/// Every suite's programs; TPC-C's interleaves kernel and user code.
fn programs() -> impl Iterator<Item = (SuiteKind, Program)> {
    SuiteKind::ALL.into_iter().flat_map(|kind| {
        Suite::preset(kind)
            .programs()
            .to_vec()
            .into_iter()
            .map(move |p| (kind, p))
    })
}

#[test]
fn a_shorter_trace_is_a_prefix_of_a_longer_one() {
    for (kind, program) in programs() {
        let long = program.generate(30_000, SEED);
        for n in [0, 1, 999, 12_345] {
            let short = program.generate(n, SEED);
            assert_eq!(
                short.records(),
                &long.records()[..n],
                "{kind}/{}",
                program.name()
            );
        }
    }
}

#[test]
fn filling_in_any_steps_yields_the_same_records() {
    const N: usize = 20_000;
    for (kind, program) in programs() {
        let whole = program.generate(N, SEED);
        for step in [1, 7, 4_096, N] {
            let mut stream = program.stream(SEED);
            let mut records = Vec::new();
            while stream.pos() < N {
                let upto = (stream.pos() + step).min(N);
                stream.fill(&mut records, upto);
                assert_eq!((stream.pos(), records.len()), (upto, upto));
            }
            assert!(
                records == whole.records(),
                "{kind}/{} in steps of {step}",
                program.name()
            );
        }
    }
}

#[test]
fn filling_appends_and_never_moves_backwards() {
    let program = &tpcc_program();
    let mut stream = program.stream(SEED);
    let mut chunk = Vec::new();
    stream.fill(&mut chunk, 100);
    chunk.clear();
    stream.fill(&mut chunk, 250);
    assert_eq!(chunk, program.generate(250, SEED).records()[100..]);
    stream.fill(&mut chunk, 200);
    assert_eq!((stream.pos(), chunk.len()), (250, 150), "already past 200");
}

#[test]
fn a_short_trace_builds_no_more_blocks_than_it_visits() {
    for (kind, program) in programs() {
        let mut stream = program.stream(SEED);
        let mut records = Vec::new();
        stream.fill(&mut records, 1_000);
        // Every block ends in a conditional branch site of its own; the
        // one block the stream may have run past record 1 000 has its
        // site in the carry.
        let sites: HashSet<u64> = records
            .iter()
            .filter(|r| r.instr.op == OpClass::BranchCond)
            .map(|r| r.pc)
            .collect();
        let built = stream.blocks_built();
        assert!(
            (1..=sites.len() + 1).contains(&built),
            "{kind}/{}: {built} blocks built, {} visited",
            program.name(),
            sites.len()
        );
    }
}

fn digest(records: &[TraceRecord]) -> u64 {
    binary::encode(&VecTrace::from_records(records.to_vec()))
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// FNV-1a of the binary encoding of the first 200 000 records, taken
/// from the generator that materialised whole traces in one nested loop
/// (the parent of the commit that made it a stream), so the stream, the
/// lazy static code and the division-free address generator are each
/// checked against those bytes and not against one another.
#[test]
fn the_first_200k_records_are_the_materialising_generators() {
    const N: usize = 200_000;
    let pinned = [
        (SuiteKind::SpecInt95, 0x8bd8_1760_4f9b_6732u64),
        (SuiteKind::SpecFp95, 0x4f8d_7543_0216_e4e6),
        (SuiteKind::SpecInt2000, 0x32c4_d501_7a88_f1c8),
        (SuiteKind::SpecFp2000, 0x7041_9d99_cdc9_c80e),
        (SuiteKind::Tpcc, 0x9b39_f120_a498_7305),
    ];
    for (kind, expected) in pinned {
        let program = Suite::preset(kind).programs()[0].clone();
        let trace = program.generate(N, SEED);
        assert_eq!(digest(trace.records()), expected, "{kind}[0]");
        // The same bytes through the chunk size the registry uses.
        let mut stream = program.stream(SEED);
        let (mut records, mut chunk) = (Vec::new(), Vec::new());
        while stream.pos() < N {
            chunk.clear();
            stream.fill(&mut chunk, (stream.pos() + 4_096).min(N));
            records.extend_from_slice(&chunk);
        }
        assert_eq!(digest(&records), expected, "{kind}[0], chunked");
    }
    let smp = smp_traces(&tpcc_program(), 2, N, SEED);
    let digests: Vec<u64> = smp.iter().map(|t| digest(t.records())).collect();
    assert_eq!(digests, [0x75e0_86d7_8637_62d7, 0x2a8f_9b7c_9596_2062]);
}
