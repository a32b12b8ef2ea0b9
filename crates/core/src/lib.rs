//! The SPARC64 V performance model: the paper's primary contribution.
//!
//! This crate assembles the detailed processor model ([`s64v_cpu`]) and the
//! equally detailed memory-system model ([`s64v_mem`]) into the
//! trace-driven system simulator the paper built *before hardware design
//! started* and used through the whole project (§2):
//!
//! * [`system`] — [`SystemConfig`] (core + memory + CPU count) and
//!   [`RunResult`] (cycles, IPC, every miss/mispredict/coherence ratio),
//! * [`model`] — [`PerformanceModel`], the façade that runs uniprocessor
//!   traces and lock-stepped SMP trace sets,
//! * [`warm`] — [`WarmCursor`], the functional-warming pass (a branch
//!   history table and a memory system, no core) that every uniprocessor
//!   run with the same [`warm_fingerprint`] copies its warmed state from,
//! * [`breakdown`] — the Figure 7 benchmark characterization by cumulative
//!   idealization (perfect L2 → +perfect L1/TLB → +perfect branch),
//! * [`versions`] — the Figure 19 model-version ladder v1…v8 (from
//!   latency-only memory to full detail, with the v5 special-instruction
//!   blip),
//! * [`accuracy`] — the Figure 19 accuracy study against the "physical
//!   machine" reference,
//! * [`experiment`] — suite runners (parallel across programs) used by
//!   every figure harness,
//! * [`report`] — table builders shared by the harness binaries,
//! * [`observe`] — run observation: structured-event probes, interval
//!   metrics and instruction timelines (see `s64v-observe`),
//! * [`integrity`] — structured [`SimError`]s and the checked-mode
//!   invariant auditor,
//! * [`knobs`] — the named-parameter registry design-space exploration
//!   steers through, and [`cost`] — the first-order die-area model that
//!   prices each configuration,
//! * [`faultinject`] — deterministic fault injection proving the auditor
//!   catches every corruption class it claims to.

pub mod accuracy;
pub mod breakdown;
pub mod cost;
pub mod experiment;
pub mod faultinject;
pub mod fingerprint;
pub mod integrity;
pub mod knobs;
pub mod model;
pub mod observe;
pub mod reference;
pub mod report;
pub mod stability;
pub mod sweep;
pub mod system;
pub mod versions;
pub mod warm;

pub use breakdown::{characterize, characterize_warm, Breakdown};
pub use cost::{area_mm2, CostEstimate};
pub use experiment::{
    program_seed, run_suite, run_suite_warm, run_tpcc_smp, run_tpcc_smp_warm, ProgramResult,
    SuiteResult,
};
pub use faultinject::{ChaosPlan, FaultClass, FaultPlan, HarnessFaultClass};
pub use fingerprint::{
    config_fingerprint, warm_fingerprint, Fingerprint, StableHasher, MODEL_FINGERPRINT_VERSION,
};
pub use integrity::{Auditor, Component, SimError};
pub use knobs::{apply_knob, apply_knobs, knob_names, knob_value, Knob, KNOBS};
pub use model::{CycleBudget, PerformanceModel, RunOptions};
pub use observe::{ObserveConfig, Observer};
pub use reference::{compare, ModelCheck, ReferenceMachine};
pub use s64v_observe::RunObservation;
pub use s64v_observe::{CpiGroup, CpiLeaf, CpiStack, MemBlame, CPI_LEAVES};
pub use stability::{seed_study, seed_study_ratio, SeedStudy};
pub use sweep::{DesignPoint, Sweep};
pub use system::{RunResult, SystemConfig};
pub use versions::ModelVersion;
pub use warm::WarmCursor;
