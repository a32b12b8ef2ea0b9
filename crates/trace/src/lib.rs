//! Instruction traces for the SPARC64 V performance model.
//!
//! The paper's performance model is a trace-driven simulator: its input is
//! an instruction trace captured on a real machine (with Shade for SPEC, or
//! Fujitsu's kernel tracer for TPC-C). This reproduction generates its
//! traces in process instead; this crate defines the representation they
//! share:
//!
//! * [`TraceRecord`] — one dynamic instruction (program counter + decoded
//!   instruction),
//! * [`TraceStream`] — the streaming interface the simulator consumes,
//! * [`binary`] — a compact binary encoding with round-trip tests, over
//!   which the generators' digests are pinned,
//! * [`sample`] — the sampled-simulation window plan,
//! * [`summary`] — distributional summaries used to validate generated
//!   traces.
//!
//! # Examples
//!
//! ```
//! use s64v_isa::{Instr, OpClass, Reg};
//! use s64v_trace::{TraceBuilder, TraceStream};
//!
//! let mut b = TraceBuilder::new(0x1000);
//! b.push(Instr::alu(OpClass::IntAlu, Reg::int(1), &[Reg::int(2)]));
//! b.push(Instr::nop());
//! let trace = b.finish();
//! assert_eq!(trace.len(), 2);
//! ```

pub mod binary;
pub mod builder;
pub mod record;
pub mod sample;
pub mod stream;
pub mod summary;

pub use builder::TraceBuilder;
pub use record::TraceRecord;
pub use sample::SamplePlan;
pub use stream::{SliceStream, TraceStream, VecTrace};
pub use summary::TraceSummary;
