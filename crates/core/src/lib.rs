//! The SPARC64 V performance model: the paper's primary contribution.
//!
//! This crate assembles the detailed processor model ([`s64v_cpu`]) and the
//! equally detailed memory-system model ([`s64v_mem`]) into the
//! trace-driven system simulator the paper built *before hardware design
//! started* and used through the whole project (§2):
//!
//! * [`system`] — [`SystemConfig`] (core + memory + CPU count) and
//!   [`RunResult`] (cycles, IPC, every miss/mispredict/coherence ratio),
//! * [`model`] — [`PerformanceModel`] and [`Run`]: a run is *described*
//!   (one trace per CPU, functional warm-up, optional timed window, run
//!   options, optional observation) and [`PerformanceModel::execute`] is
//!   the one way to carry it out, uniprocessor or lock-stepped SMP,
//! * [`warm`] — [`WarmCursor`], the functional-warming pass (a memory
//!   system and the branch history tables trained beside it, no core)
//!   that every uniprocessor run with the same [`memory_warm_key`] copies
//!   its warmed memory from, taking the table its [`predictor_warm_key`]
//!   names,
//! * [`versions`] — the Figure 19 model-version ladder v1…v8 (from
//!   latency-only memory to full detail, with the v5 special-instruction
//!   blip),
//! * [`accuracy`] — the Figure 19 "physical machine" reference,
//!   [`stability`] — the spread of a metric across generator seeds, and
//!   [`experiment`] — per-program trace seeds: the pure pieces of the
//!   evaluation; the experiments themselves run through the
//!   `s64v-harness` campaign engine,
//! * [`observe`] — run observation: instruction timelines, bus transfers
//!   and interval metrics (see `s64v-observe`),
//! * [`integrity`] — structured [`SimError`]s and the checked-mode
//!   invariant auditor,
//! * [`knobs`] — the named-parameter registry design-space exploration
//!   steers through, and [`cost`] — the first-order die-area model that
//!   prices each configuration.

pub mod accuracy;
pub mod cost;
pub mod experiment;
pub mod fingerprint;
pub mod integrity;
pub mod knobs;
pub mod model;
pub mod observe;
pub mod reference;
pub mod stability;
pub mod system;
pub mod versions;
pub mod warm;

pub use cost::{area_mm2, CostEstimate};
pub use experiment::program_seed;
pub use fingerprint::{
    config_fingerprint, memory_warm_key, predictor_warm_key, Fingerprint, StableHasher,
    MODEL_FINGERPRINT_VERSION,
};
pub use integrity::{Auditor, Component, SimError};
pub use knobs::{apply_knob, apply_knobs, knob_names, knob_value, Knob, KNOBS};
pub use model::{CycleBudget, PerformanceModel, Run, RunOptions};
pub use observe::{ObserveConfig, Observer};
pub use reference::{compare, ModelCheck, ReferenceMachine};
/// The type of a [`predictor_warm_key`].
pub use s64v_cpu::BhtConfig;
pub use s64v_observe::RunObservation;
pub use s64v_observe::{CpiGroup, CpiLeaf, CpiStack, MemBlame, CPI_LEAVES};
pub use stability::SeedStudy;
pub use system::{RunResult, SystemConfig};
pub use versions::ModelVersion;
pub use warm::WarmCursor;
