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
//! * **Shared inputs** — a per-campaign [`registry`] generates each
//!   distinct trace once and serves a sampled plan's windows from one
//!   functional-warming pass; the pool deals work so points that share
//!   inputs run back to back on one worker.
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
//!   rename + fsync + length/checksum footers verified on read), a
//!   per-cache-directory lock, and a seeded chaos injector the
//!   `campaign soak` gate uses to prove all of the above recovers.
//! * **Design-space exploration** — [`explore`] turns the engine into a
//!   query answerer: a declarative `s64v-explore` spec (knob grid +
//!   objective + constraints) runs as successive-halving rounds over the
//!   same pool and point cache, and the finished report (winner, Pareto
//!   frontier, search accounting) is itself cached by spec fingerprint.
//!
//! The `campaign` binary drives the whole evaluation through this
//! engine: `cargo run --release -p s64v-harness --bin campaign --
//! --figures all`.

pub mod cache;
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

pub use engine::{execute_point, run_campaign, try_execute_point, CampaignOutcome, PointOutcome};
pub use explore::{load_cached_report, report_path, run_explore, store_report, ExploreOpts};
pub use figures::{figure, figure_names, run_figures, EngineOpts, FigureDef, RunSummary};
pub use perf::{
    cpi_artifact, sampled_cpi_artifact, validate_cpi_artifact, PerfDiff, PerfSource, WorkloadDelta,
};
pub use progress::{CampaignReport, ProgressEvent};
pub use spec::{CampaignSpec, HarnessOpts, PointMetrics, SimPoint, WorkUnit};
pub use supervise::{
    atomic_write, seal, unseal, unseal_lenient, CacheLock, ChaosInjector, SupervisePolicy, Watchdog,
};
pub use validate::{SampleOpts, ValidationReport, WorkloadReport, DEFAULT_TOLERANCE};

/// Prints a table and also writes it as CSV under `results/`, or under
/// `S64V_RESULTS_DIR` when set — smoke campaigns (CI) point it at a
/// scratch directory so reduced-size runs never clobber the committed
/// full-size tables. Best effort: the directory is created if missing
/// and failures only warn.
pub fn emit(name: &str, table: &s64v_stats::Table) {
    print!("{table}");
    let dir = std::env::var("S64V_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let dir = std::path::Path::new(&dir);
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) = std::fs::write(&path, table.to_csv()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

/// Prints the standard harness header for one experiment.
pub fn banner(experiment: &str, paper_ref: &str, expectation: &str) {
    println!("================================================================");
    println!("{experiment}  [{paper_ref}]");
    println!("paper expectation: {expectation}");
    println!("================================================================");
}
