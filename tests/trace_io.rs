//! Integration: traces written to disk stream straight back into the
//! performance model.

use sparc64v::model::{PerformanceModel, Run, SystemConfig};
use sparc64v::trace::io::{TraceReader, TraceWriter};
use sparc64v::trace::{TraceStream, VecTrace};
use sparc64v::workloads::{Suite, SuiteKind};
use std::io::Cursor;

#[test]
fn on_disk_traces_drive_the_model_identically() {
    let suite = Suite::preset(SuiteKind::SpecInt95);
    let trace = suite.programs()[1].generate(20_000, 13);

    // Write through the streaming writer.
    let mut cursor = Cursor::new(Vec::new());
    let mut w = TraceWriter::new(&mut cursor).expect("header");
    for rec in trace.iter() {
        w.write(rec).expect("record");
    }
    w.finish().expect("patch count");

    // Read back through the streaming reader and materialize.
    cursor.set_position(0);
    let mut reader = TraceReader::new(&mut cursor).expect("header");
    let mut back = VecTrace::new();
    while let Some(rec) = reader.next_record() {
        back.push(rec);
    }
    assert_eq!(back, trace);

    // Same cycles either way.
    let model = PerformanceModel::new(SystemConfig::sparc64_v());
    let a = model.run(Run::of(&trace));
    let b = model.run(Run::of(&back));
    assert_eq!(a.cycles, b.cycles);
}

#[test]
fn model_runs_a_materialised_reader_stream() {
    let suite = Suite::preset(SuiteKind::SpecFp95);
    let trace = suite.programs()[0].generate(10_000, 13);
    let bytes = sparc64v::trace::binary::encode(&trace);
    let mut reader = TraceReader::new(&bytes[..]).expect("header");
    let streamed: VecTrace = std::iter::from_fn(|| reader.next_record()).collect();
    let model = PerformanceModel::new(SystemConfig::sparc64_v());
    let r = model.run(Run::of(&streamed));
    assert_eq!(r.committed, 10_000);
}
