//! Synthetic workload (trace) generators for the SPARC64 V performance
//! model.
//!
//! The paper drives its model with instruction traces captured on real
//! hardware: SPEC CPU95/2000 traces from Sun's Shade, and TPC-C traces
//! (including kernel code) from Fujitsu's in-house kernel tracer (§4.1).
//! Neither those traces nor the machines exist here, so this crate
//! substitutes *statistical* trace generators whose knobs are exactly the
//! workload properties the paper's studies depend on:
//!
//! * instruction mix (integer / FP-multiply-add / memory / special),
//! * static code footprint and loop reuse (L1I pressure, BHT capacity),
//! * branch site population and per-site predictability,
//! * data working-set structure — small hot locals, L2-resident state,
//!   L2-busting cold data, and prefetchable strided streams,
//! * kernel/user interleave (TPC-C traces cover both),
//! * cross-CPU shared data (SMP coherence traffic).
//!
//! A [`Program`] deterministically expands a [`ProgramSpec`] into a trace
//! given a seed; a [`Suite`] is a named set of programs mirroring the
//! paper's benchmark suites ([`SuiteKind`]). Everything is reproducible:
//! same spec + seed ⇒ identical trace.
//!
//! # Examples
//!
//! ```
//! use s64v_workloads::{Suite, SuiteKind};
//!
//! let suite = Suite::preset(SuiteKind::SpecInt95);
//! let trace = suite.programs()[0].generate(10_000, 7);
//! assert_eq!(trace.len(), 10_000);
//! // Same seed, same trace.
//! let again = suite.programs()[0].generate(10_000, 7);
//! assert_eq!(trace, again);
//! ```

pub mod codegen;
pub mod describe;
pub mod mix;
pub mod program;
pub mod regions;
pub mod smp;
pub mod suite;

pub use mix::InstrMix;
pub use program::{Program, ProgramSpec};
pub use regions::{DataSpec, Region, RegionKind};
pub use smp::smp_traces;
pub use suite::{Suite, SuiteKind};
