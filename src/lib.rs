//! # sparc64v — a SPARC64 V performance-model reproduction
//!
//! Facade crate re-exporting the whole workspace: a trace-driven,
//! cycle-level performance model of the Fujitsu SPARC64 V microprocessor
//! (HPCA 2003), with a detailed out-of-order processor model, an equally
//! detailed memory-system model (caches, TLBs, hardware prefetch, MESI
//! coherence, system bus, DRAM), synthetic SPEC CPU95/2000-like and
//! TPC-C-like workload generators, and an experiment harness reproducing
//! every table and figure of the paper's evaluation.
//!
//! # Quickstart
//!
//! ```
//! use sparc64v::model::{PerformanceModel, Run, SystemConfig};
//! use sparc64v::workloads::{Suite, SuiteKind};
//!
//! // Build the base SPARC64 V configuration and run a small SPECint95-like
//! // trace through it.
//! let config = SystemConfig::sparc64_v();
//! let suite = Suite::preset(SuiteKind::SpecInt95);
//! let program = &suite.programs()[0];
//! let trace = program.generate(20_000, 42);
//! let result = PerformanceModel::new(config).run(Run::of(&trace));
//! assert!(result.ipc() > 0.0);
//! ```

/// System assembly, idealization studies, model versions, experiments.
pub use s64v_core as model;
/// Cycle-level out-of-order core model.
pub use s64v_cpu as cpu;
/// Op-class level SPARC-V9-lite ISA model.
pub use s64v_isa as isa;
/// Detailed memory-system model.
pub use s64v_mem as mem;
/// Event tracing, interval metrics, Perfetto/pipeline-diagram export.
pub use s64v_observe as observe;
/// Counters, ratios, histograms and report tables.
pub use s64v_stats as stats;
/// Trace records, streams, binary format, sampling and summaries.
pub use s64v_trace as trace;
/// Synthetic workload generators (SPEC-like, TPC-C-like).
pub use s64v_workloads as workloads;
