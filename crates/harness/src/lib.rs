//! `s64v-harness` — the experiment-campaign engine.
//!
//! The evaluation's figures share almost all of their simulations (most
//! compare a variant configuration against the same baseline suite
//! runs), so this crate runs them all through one engine — the only
//! executor of the evaluation:
//!
//! * **Declarative campaigns** — a [`CampaignSpec`] lists independent
//!   [`SimPoint`]s (configuration × workload × seed × lengths); figures
//!   are assembled from point results by the [`figures`] render layer.
//! * **Parallel and deterministic** — points run on a work-stealing
//!   worker pool; every point is seeded independently, so results are
//!   byte-identical regardless of thread count or scheduling.
//! * **Shared inputs** — a per-campaign [`registry`] runs each distinct
//!   program as one forward pass — generated once, warmed chunk by chunk
//!   for every configuration and window that wants it, only the timed
//!   windows kept; the pool deals work so points that share inputs run
//!   back to back on one worker.
//! * **Content-addressed caching** — each point's identity is a stable
//!   [fingerprint](s64v_core::fingerprint) of everything that affects
//!   its result (plus the model version); finished points persist under
//!   that key and later campaigns reuse them.
//! * **Resumable and failure-isolated** — an append-only [`journal`]
//!   records every outcome as it happens; a point that fails (a
//!   structured [simulation error](s64v_core::SimError) or a panic) is
//!   reported and skipped instead of aborting the campaign, with a JSON
//!   diagnostic dump written next to its cache entry.
//! * **Checked mode** — [`CampaignSpec::checked`] (`campaign --checked`)
//!   runs every point under the [invariant
//!   auditor](s64v_core::integrity), which never perturbs results but
//!   turns silent model-state corruption into first-faulting-cycle
//!   errors.
//! * **Supervised execution** — a [`supervise`] layer adds per-point
//!   watchdogs (wall-clock deadline + simulated-cycle budget), bounded
//!   retry with deterministic backoff and a quarantine list for points
//!   that keep failing transiently, crash-safe artifact storage (atomic
//!   rename, group-committed fsyncs, length/checksum footers verified on
//!   read) and a per-cache-directory lock. Each recovery path is proved
//!   by tests that damage real files or fail real attempts.
//! * **Design-space exploration** — [`explore`] turns the engine into a
//!   query answerer: a declarative `s64v-explore` spec (knob grid +
//!   objective + constraints) runs as successive-halving rounds over the
//!   same pool and point cache. The report (winner, Pareto frontier,
//!   search accounting) is not cached: a re-asked query searches again,
//!   and every evaluation it repeats is a point-cache hit.
//!
//! The `campaign` binary drives the whole evaluation through this
//! engine: `cargo run --release -p s64v-harness --bin campaign --
//! --figures all`.

#![forbid(unsafe_code)]

pub mod cache;
pub mod cli;
pub mod engine;
pub mod explore;
pub mod figures;
pub mod journal;
pub mod perf;
pub mod progress;
pub mod registry;
pub mod spec;
pub mod supervise;
pub mod validate;

pub use engine::{run_campaign, try_execute_point, CampaignOutcome, PointOutcome};
pub use spec::{CampaignSpec, HarnessOpts, SimPoint, WorkUnit};
pub use supervise::SupervisePolicy;

/// A fingerprint for `tag`: a stand-in point identity for the unit tests.
#[cfg(test)]
pub(crate) fn test_fp(tag: &str) -> s64v_core::Fingerprint {
    let mut h = s64v_core::StableHasher::new();
    h.write_str(tag);
    h.finish()
}
