//! Unified simulation observability for the SPARC64 V model.
//!
//! The model crates (`s64v-cpu`, `s64v-mem`) answer *what happened* with
//! end-of-run counters; this crate is about *when and why*. It defines:
//!
//! - the two records an observed run keeps, because they are what its
//!   artifacts draw: the per-instruction stage record ([`InstrTimeline`])
//!   the core's pipeline trace fills, and the bus transfer
//!   ([`BusTransfer`]) the memory system logs — both pure observations,
//!   so recording them cannot change simulation results;
//! - interval metrics ([`IntervalSample`]): windowed IPC, occupancy, bus
//!   utilization and stall-cause time series, serialized as JSONL;
//! - exporters: a Chrome/Perfetto trace-event JSON builder
//!   ([`perfetto_json`]) and a Konata-style ASCII pipeline-diagram
//!   renderer ([`render_pipeline`]);
//! - a dependency-free JSON value model ([`json::Value`]) used by the
//!   exporters and by artifact validation (this workspace deliberately
//!   has no serde).
//!
//! The crate depends only on `s64v-isa`, so exporters and tools can use
//! it without pulling in the whole model. The wiring — which component
//! records what, and how observation composes with the engine's result
//! cache — lives in `s64v-core::observe` and `s64v-harness`.

pub mod bus;
pub mod cpi;
pub mod diagram;
pub mod folded;
pub mod interval;
pub mod json;
pub mod perfetto;
pub mod stage;

pub use bus::{BusId, BusTransfer};
pub use cpi::{CpiGroup, CpiLeaf, CpiStack, MemBlame, CPI_LEAVES};
pub use diagram::render_pipeline;
pub use folded::{folded_line, folded_stack};
pub use interval::{to_jsonl, CpuInterval, IntervalSample, STALL_LABELS};
pub use perfetto::{perfetto_json, perfetto_trace};
pub use stage::InstrTimeline;

/// Everything one observed run produced, ready for export.
///
/// Assembled by `s64v-core::observe::Observer::collect` after a run:
/// the memory system's bus transfers, the interval time series, and each
/// core's recorded instruction timelines.
#[derive(Debug, Clone, Default)]
pub struct RunObservation {
    /// Granted bus requests in the order the memory system computed them
    /// (not sorted: [`perfetto_trace`] orders them by request cycle).
    pub bus: Vec<BusTransfer>,
    /// Interval samples in time order.
    pub intervals: Vec<IntervalSample>,
    /// Per-core recorded instruction timelines (index = CPU id).
    pub timelines: Vec<Vec<InstrTimeline>>,
}
