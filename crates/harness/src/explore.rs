//! Exploration driver: answers [`ExploreSpec`] queries through the
//! campaign engine.
//!
//! `s64v-explore` owns every search *decision*; this module supplies the
//! *muscle*: each [`RoundPlan`] becomes one [`CampaignSpec`] over the
//! work-stealing pool and the content-addressed point cache, so repeated
//! or overlapping queries (successive-halving rounds re-run survivors at
//! the screening length of the previous round only when lengths differ;
//! re-asked questions hit the cache point-for-point) never re-simulate.

use crate::engine::{default_threads, run_campaign};
use crate::progress::ProgressEvent;
use crate::spec::{CampaignSpec, PointMetrics, SimPoint, WorkUnit};
use crate::supervise::SupervisePolicy;
use s64v_explore::{
    run_search, ExecutionStats, ExploreEvent, ExploreReport, ExploreSpec, Measurement, RoundPlan,
};
use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::mpsc::Sender;
use std::time::{Duration, Instant};

/// Execution options for one exploration run.
#[derive(Debug, Clone, Default)]
pub struct ExploreOpts {
    /// Worker threads (`None` = available parallelism).
    pub threads: Option<usize>,
    /// Point-cache directory (`None` = no caching at all).
    pub cache_dir: Option<PathBuf>,
    /// Heartbeat period for round campaigns.
    pub heartbeat: Option<Duration>,
    /// Per-point supervision for every round campaign.
    pub supervise: SupervisePolicy,
}

/// Converts cached/simulated point metrics into the search's measurement
/// (area is static and filled in by the search itself).
fn measurement_from(m: &PointMetrics) -> Measurement {
    Measurement {
        cycles: m.cycles,
        committed: m.committed,
        bus_transactions: m.bus_transactions,
        bus_busy_cycles: m.bus_busy_cycles,
        l1d: m.l1d,
        l2_demand: m.l2_demand,
        mispredict: m.mispredict,
        area_mm2: 0.0,
    }
}

fn round_points(spec: &ExploreSpec, plan: &RoundPlan) -> Vec<SimPoint> {
    plan.entries
        .iter()
        .map(|(_, config)| SimPoint {
            config: config.clone(),
            work: WorkUnit::Program {
                suite: spec.workload.suite,
                index: spec.workload.index,
            },
            records: plan.records,
            warmup: plan.warmup,
            seed: spec.seed,
        })
        .collect()
}

/// Answers one query: adaptive search in `s64v-explore`, every round
/// executed as a campaign over the shared pool and point cache, so a
/// re-asked query is answered from point-cache hits alone.
///
/// `progress` receives the underlying campaigns' per-point events;
/// `on_event` receives the search-level events (grid, rounds, frontier).
/// Errors cover I/O and spec problems only — failed *points* are
/// eliminated candidates, reported in the answer's counters and the
/// execution section, never an `Err`.
pub fn run_explore(
    spec: &ExploreSpec,
    opts: &ExploreOpts,
    progress: Option<Sender<ProgressEvent>>,
    mut on_event: impl FnMut(&ExploreEvent),
) -> Result<ExploreReport, String> {
    let start = Instant::now();
    let template = CampaignSpec {
        threads: opts.threads,
        cache_dir: opts.cache_dir.clone(),
        heartbeat: opts.heartbeat,
        supervise: opts.supervise.clone(),
        ..CampaignSpec::new("", Vec::new())
    };
    let execution = RefCell::new(ExecutionStats::default());
    let io_error: RefCell<Option<String>> = RefCell::new(None);

    let result = run_search(
        spec,
        |plan| {
            if io_error.borrow().is_some() {
                // A previous round already failed on I/O; run nothing
                // more and let the error surface after the search.
                return vec![None; plan.entries.len()];
            }
            let cspec = CampaignSpec {
                name: format!("{}:round{}", spec.name, plan.round),
                points: round_points(spec, plan),
                ..template.clone()
            };
            match run_campaign(&cspec, progress.clone()) {
                Err(e) => {
                    *io_error.borrow_mut() = Some(format!("campaign I/O: {e}"));
                    vec![None; plan.entries.len()]
                }
                Ok(outcome) => {
                    let mut ex = execution.borrow_mut();
                    ex.cache_hits += outcome.report.cache_hits;
                    ex.simulated += outcome.report.completed - outcome.report.cache_hits;
                    ex.failed += outcome.report.failed;
                    ex.simulated_records += outcome.report.simulated_records;
                    outcome
                        .outcomes
                        .iter()
                        .map(|o| o.metrics().map(measurement_from))
                        .collect()
                }
            }
        },
        &mut on_event,
    );
    if let Some(e) = io_error.into_inner() {
        return Err(e);
    }

    let mut execution = execution.into_inner();
    execution.sim_wall_seconds = start.elapsed().as_secs_f64();
    execution.threads = opts.threads.unwrap_or_else(default_threads);
    Ok(ExploreReport {
        spec: spec.clone(),
        result,
        execution,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use s64v_workloads::SuiteKind;

    fn tiny_spec(name: &str) -> ExploreSpec {
        ExploreSpec::parse(&format!(
            r#"{{
                "name": "{name}",
                "workload": {{"suite": "SPECint95", "index": 0}},
                "seed": 42,
                "screen": {{"records": 1500, "warmup": 3000}},
                "full":   {{"records": 4000, "warmup": 8000}},
                "knobs": [
                    {{"name": "rse_entries", "values": [6, 10]}},
                    {{"name": "window_size", "values": [32, 64]}}
                ],
                "objective": {{"maximize": "ipc"}}
            }}"#
        ))
        .expect("tiny spec parses")
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("s64v-explore-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn driver_answers_a_real_query() {
        let spec = tiny_spec("driver-real");
        assert_eq!(spec.workload.suite, SuiteKind::SpecInt95);
        let report =
            run_explore(&spec, &ExploreOpts::default(), None, |_| {}).expect("explore runs");
        let winner = report.result.winner.as_ref().expect("feasible winner");
        assert_eq!(winner.records, 4000);
        assert!(winner.objective > 0.0, "IPC is positive");
        assert!(winner.measurement.area_mm2 > 100.0, "area model applied");
        assert_eq!(report.result.counters.grid_size, 4);
        assert_eq!(report.execution.cache_hits, 0, "no cache configured");
        assert!(report.execution.simulated > 0);
    }

    /// A re-asked query searches again; the point cache answers it all.
    #[test]
    fn fresh_runs_reuse_the_point_cache_not_the_report() {
        let dir = scratch("re-ask");
        let spec = tiny_spec("driver-re-ask");
        let opts = ExploreOpts {
            cache_dir: Some(dir.clone()),
            ..ExploreOpts::default()
        };
        let first = run_explore(&spec, &opts, None, |_| {}).expect("first run");
        assert_eq!(first.execution.cache_hits, 0);
        assert!(first.execution.simulated > 0);

        let second = run_explore(&spec, &opts, None, |_| {}).expect("second run");
        assert_eq!(
            second.execution.cache_hits, second.result.counters.evaluations,
            "every evaluation is a point-cache hit"
        );
        assert_eq!(second.execution.simulated, 0);
        assert_eq!(
            second.answer_value().to_string(),
            first.answer_value().to_string(),
            "cache hits change nothing about the answer"
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    /// The benchmark's `explore_sweep` query at full size: every round is
    /// one trace under candidates that differ only in reservation-station
    /// and window sizes, so each round replays its warm-up exactly once,
    /// on one worker or two. Prints the counts EXPERIMENTS.md quotes:
    /// `cargo test --release -p s64v-harness --lib -- --ignored
    /// --nocapture sweep_warms_once_per_round`.
    #[test]
    #[ignore = "full benchmark size; run in release"]
    fn the_benchmarks_sweep_warms_once_per_round() {
        let spec = ExploreSpec::parse(
            r#"{
                "name": "benchmark-rs-window-sweep",
                "workload": {"suite": "TPC-C", "index": 0},
                "seed": 42,
                "screen": {"records": 2500, "warmup": 25000},
                "full":   {"records": 10000, "warmup": 100000},
                "knobs": [
                    {"name": "rse_entries", "values": [4, 6, 8, 10, 12]},
                    {"name": "rsf_entries", "values": [4, 6, 8, 10]},
                    {"name": "window_size", "values": [32, 48, 64, 80, 96]}
                ],
                "objective": {"maximize": "ipc"},
                "constraints": [
                    {"knob": "rse_entries", "max": 32},
                    {"metric": "area_mm2", "max": 300.0}
                ],
                "eta": 3,
                "min_survivors": 4
            }"#,
        )
        .expect("the benchmark's spec parses");
        for threads in [1, 2] {
            let (mut requested, mut warmed, mut passes, mut copied) = (0, 0, 0, 0);
            let mut rounds = Vec::new();
            run_search(
                &spec,
                |plan| {
                    let campaign = CampaignSpec::new("sweep", round_points(&spec, plan))
                        .with_threads(threads)
                        .with_heartbeat(None);
                    let outcome = run_campaign(&campaign, None).expect("run");
                    let r = &outcome.report;
                    assert_eq!(r.failed, 0);
                    assert_eq!(r.registry.warm_passes, 1, "round {}: one pass", plan.round);
                    assert_eq!(r.registry.records_warmed, plan.warmup as u64);
                    assert_eq!(
                        r.registry.records_warm_requested,
                        (plan.entries.len() * plan.warmup) as u64
                    );
                    requested += r.registry.records_warm_requested;
                    warmed += r.registry.records_warmed;
                    passes += r.registry.warm_passes;
                    copied += r.registry.machines_copied;
                    rounds.push((plan.entries.len(), plan.warmup));
                    outcome
                        .outcomes
                        .iter()
                        .map(|o| o.metrics().map(measurement_from))
                        .collect()
                },
                |_| {},
            );
            eprintln!(
                "{threads} thread(s): rounds {rounds:?}, {warmed} of {requested} requested \
                 warm-up records replayed in {passes} passes, {copied} machines copied"
            );
            assert_eq!(rounds, [(100, 25_000), (68, 25_000), (46, 100_000)]);
            assert_eq!((warmed, requested), (150_000, 8_800_000));
            // Each round's one stop: every point copies it but the last
            // to ask, which takes it (99 + 67 + 45).
            assert_eq!(copied, 211);
        }
    }
}
