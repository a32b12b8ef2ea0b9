//! The campaign execution engine.
//!
//! Executes a [`CampaignSpec`]'s points on a pool of worker threads fed
//! by per-worker work-stealing deques. Results are deterministic by
//! construction — every point derives all randomness from its own seed,
//! and the only state points share is the campaign's
//! [`Registry`] of generated traces and warm cursors, whose contents are
//! pure functions of what was asked for — so a campaign produces
//! bit-identical results on one thread or sixteen; the deques only
//! decide *when* each point runs and how much of its input it finds
//! ready, never *what* it computes.
//!
//! Per point, in order: consult the content-addressed cache (hit = no
//! simulation; a corrupt entry is a miss the report counts), else
//! simulate once under the campaign's
//! [supervision policy](crate::supervise::SupervisePolicy). A point is a
//! pure function of its spec, so it is never re-run: a watchdog
//! cancellation (wall-clock deadline or simulated-cycle budget) times it
//! out, a simulation fault ([`SimError`]: a wedged pipeline, or an
//! invariant violation in checked mode) fails it, and so does a caught
//! panic. Every final failure is announced and leaves a
//! [failure record](failure_record) beside the point's cache entry, and
//! the campaign continues: no single point can take it down. Resuming
//! the campaign re-attempts every point the cache does not hold, and a
//! point's next success removes its stale failure record.
//!
//! The engine prints nothing: it sends a [`ProgressEvent`] per point
//! transition to an optional channel (a
//! [`Printer`](crate::progress::Printer) turns them into lines and a
//! heartbeat) and returns the rest as data. The only threads it starts
//! are its workers and, under a deadline, the watchdog.

mod schedule;

use crate::cache::ResultCache;
use crate::perf::failure_record;
use crate::progress::{CampaignReport, ProgressEvent};
use crate::registry::{lock, Registry};
use crate::spec::{CampaignSpec, PointMetrics, SimPoint, WorkUnit};
use crate::supervise::{CacheLock, Watchdog};
use s64v_core::fingerprint::Fingerprint;
use s64v_core::{
    compare, CycleBudget, ObserveConfig, PerformanceModel, Run, RunObservation, RunOptions,
    RunResult, SimError,
};
use s64v_observe::{perfetto_json, render_pipeline, to_jsonl};
use schedule::Schedule;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, Once};
use std::time::{Duration, Instant};

/// Finished points per group commit of the cache's writes, unless
/// [`COMMIT_PERIOD`] passes first (see `Campaign::group_commit`).
const COMMIT_EVERY: usize = 32;

/// Time after a group commit at which the next finished point commits.
const COMMIT_PERIOD: Duration = Duration::from_secs(10);

/// How one point ended.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome {
    /// The point simulated (or cache-hit) successfully. Boxed: the
    /// metrics (CPI stack included) dwarf the failure variants, and a
    /// campaign holds one outcome per point.
    Metrics(Box<PointMetrics>),
    /// The point failed; the campaign continued without it.
    Failed {
        /// The simulation error or panic message.
        error: String,
        /// The point's failure record, when a cache directory was
        /// configured and the record was written.
        record: Option<PathBuf>,
    },
    /// The watchdog cancelled the point (wall-clock deadline or
    /// simulated-cycle budget); the campaign continued without it.
    TimedOut {
        /// The watchdog error.
        error: String,
        /// The point's failure record, as for [`PointOutcome::Failed`].
        record: Option<PathBuf>,
    },
}

impl PointOutcome {
    /// The metrics, if the point succeeded.
    pub fn metrics(&self) -> Option<&PointMetrics> {
        match self {
            PointOutcome::Metrics(m) => Some(m),
            PointOutcome::Failed { .. } | PointOutcome::TimedOut { .. } => None,
        }
    }
}

/// Everything a campaign run produced.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Per-point outcomes, index-aligned with the spec's point list.
    pub outcomes: Vec<PointOutcome>,
    /// Aggregate counters for the run.
    pub report: CampaignReport,
}

impl CampaignOutcome {
    /// This run's failures as (point index, error message, failure
    /// record path). Timed-out points are failures too.
    pub fn failures(&self) -> Vec<(usize, &str, Option<&Path>)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| match o {
                PointOutcome::Metrics(_) => None,
                PointOutcome::Failed { error, record }
                | PointOutcome::TimedOut { error, record } => {
                    Some((i, error.as_str(), record.as_deref()))
                }
            })
            .collect()
    }
}

/// Runs point `at` of `registry`'s list over its shared inputs, observed
/// per `ocfg` when given. `Verify` points drive two machines through
/// `compare` and sampled windows measure steady-state statistics, not
/// instruction narratives: both run unobserved and return an empty
/// observation.
fn execute_in(
    registry: &Registry,
    at: usize,
    point: &SimPoint,
    opts: RunOptions,
    ocfg: Option<ObserveConfig>,
) -> Result<(PointMetrics, RunObservation), SimError> {
    if let Some((start, len)) = point.window() {
        // A sampled window's `records` is the *full trace length*.
        let trace_len = match point.work {
            WorkUnit::SampledWindow { .. } => point.records,
            _ => start + len,
        };
        assert!(start < trace_len, "warmup must leave records to time");
        assert!(start + len <= trace_len, "window exceeds the trace");
    }
    let traces = registry.traces(at);
    let run = match point.work {
        WorkUnit::Program { .. } | WorkUnit::SampledWindow { .. } => {
            // A uniprocessor point is a window of its program's trace — a
            // program point `[warmup, warmup + records)`, a sampled window
            // any other — timed on a copy of the memory state every point
            // with its memory key shares and of its own predictor's table;
            // the window's records are all of the trace it ever holds.
            let observed = ocfg.filter(|_| matches!(point.work, WorkUnit::Program { .. }));
            registry.warmed(at).try_run_window(
                &point.config.core,
                traces[0].records(),
                opts,
                observed,
            )
        }
        WorkUnit::SmpTpcc => PerformanceModel::new(point.config.clone()).execute(Run {
            traces: &traces,
            warmup: point.warmup,
            window: None,
            opts,
            observe: ocfg,
        }),
        WorkUnit::Verify { .. } => {
            // `compare` drives both machines itself; checked mode does
            // not apply to the reference cross-check.
            let check = compare(&point.config, &traces[0], point.warmup);
            let metrics = PointMetrics {
                cycles: check.model_cycles,
                reference_cycles: check.reference_cycles,
                same_work: check.passed(),
                ..PointMetrics::default()
            };
            return Ok((metrics, RunObservation::default()));
        }
    };
    run.map(|(result, observation)| (metrics_from(&result), observation))
}

/// Runs one point to completion, returning a simulation fault (a wedged
/// pipeline, or — in checked mode — an invariant violation) as a
/// structured [`SimError`]. Pure: everything derives from the point and
/// the options, so equal fingerprints mean equal return values. Runs
/// over a private one-point [`Registry`]: the same path a campaign
/// takes, with nothing to share.
pub fn try_execute_point(point: &SimPoint, opts: RunOptions) -> Result<PointMetrics, SimError> {
    let registry = Registry::new(std::slice::from_ref(point));
    execute_in(&registry, 0, point, opts, None).map(|(metrics, _)| metrics)
}

/// Renders a traced point's pipeline diagram, one section per CPU.
fn pipeline_text(obs: &RunObservation) -> String {
    let mut out = String::new();
    for (cpu, timelines) in obs.timelines.iter().enumerate() {
        if obs.timelines.len() > 1 {
            out.push_str(&format!("=== cpu{cpu} ===\n"));
        }
        out.push_str(&render_pipeline(timelines, 200));
    }
    out
}

/// Trace records a point's statistics rest on (warm-up included, all
/// CPUs). A sampled window rests on its functional warm-up (capped at
/// the window start) plus the timed window, however long the surrounding
/// trace is and however much of that warm-up a shared cursor had already
/// replayed — what was actually generated and replayed is in the
/// report's registry counters. Also the scheduler's cost estimate.
fn point_records(point: &SimPoint) -> u64 {
    let per_stream = (point.records + point.warmup) as u64;
    match point.work {
        WorkUnit::SmpTpcc => per_stream * point.config.cpus as u64,
        WorkUnit::SampledWindow { start, len, .. } => (point.warmup.min(start) + len) as u64,
        _ => per_stream,
    }
}

/// Flattens a [`RunResult`] into the cacheable metric set.
fn metrics_from(r: &RunResult) -> PointMetrics {
    let pair = |ratio: s64v_stats::Ratio| (ratio.numerator(), ratio.denominator());
    let mut stalls = [0u64; 7];
    let mut cpi = [0u64; 16];
    for c in &r.core_stats {
        let s = &c.stall_cycles;
        for (slot, counter) in stalls.iter_mut().zip([
            s.busy,
            s.l2_miss,
            s.l1_miss,
            s.execute,
            s.dispatch,
            s.frontend_branch,
            s.frontend_fetch,
        ]) {
            *slot += counter.get();
        }
        for (slot, cell) in cpi.iter_mut().zip(c.cpi.cells) {
            *slot += cell;
        }
    }
    PointMetrics {
        cycles: r.cycles,
        committed: r.committed,
        l1i: pair(r.l1i_miss_ratio()),
        l1d: pair(r.l1d_miss_ratio()),
        l2_all: pair(r.l2_all_miss_ratio()),
        l2_demand: pair(r.l2_demand_miss_ratio()),
        mispredict: pair(r.mispredict_ratio()),
        prefetches: r.prefetches_issued(),
        move_outs: r.move_outs(),
        bus_busy_cycles: r.bus_busy_cycles,
        bus_transactions: r.bus_transactions,
        mean_load_latency: r.mean_load_latency(),
        stalls,
        cpi,
        reference_cycles: 0,
        same_work: true,
    }
}

thread_local! {
    /// Set on a campaign's worker threads for as long as they live.
    static CAMPAIGN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Point panics are caught and reported as failures; the panic hook
/// would additionally spray a message and backtrace per panic onto
/// stderr, burying the progress stream under a crashing campaign (the
/// message still reaches the failure report). Installs, once per process
/// and for good, a hook that stays silent on campaign worker threads and
/// hands every other thread's panic to the hook it found — so campaigns
/// overlapping in one process cannot leave each other's silence behind.
fn silence_worker_panics() {
    static INSTALLED: Once = Once::new();
    INSTALLED.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !CAMPAIGN_WORKER.get() {
                previous(info);
            }
        }));
    });
}

/// One point as a worker carries it from pick-up to outcome.
struct Visit<'a> {
    index: usize,
    point: &'a SimPoint,
    label: String,
    fp: Fingerprint,
    started: Instant,
}

/// A running campaign: everything its workers share.
struct Campaign<'a> {
    spec: &'a CampaignSpec,
    registry: Registry<'a>,
    schedule: Schedule,
    cache: Option<ResultCache>,
    /// Points finished since the cache's last group commit, and when it
    /// was.
    since_commit: Mutex<(usize, Instant)>,
    watchdog: Option<Watchdog>,
    progress: Option<Sender<ProgressEvent>>,
    slots: Vec<Mutex<Option<PointOutcome>>>,
    /// What the workers count as they go; `slowest` holds every
    /// simulated point's timing until the end of the run.
    report: Mutex<CampaignReport>,
}

impl Campaign<'_> {
    fn count(&self, update: impl FnOnce(&mut CampaignReport)) {
        update(&mut lock(&self.report));
    }

    fn send(&self, event: impl FnOnce() -> ProgressEvent) {
        if let Some(tx) = &self.progress {
            // A dropped receiver just means nobody is watching.
            let _ = tx.send(event());
        }
    }

    /// Takes point `index` from pick-up to its slot: a cache hit or a
    /// supervised simulation.
    fn run_point(&self, index: usize) {
        let point = &self.spec.points[index];
        let v = Visit {
            index,
            point,
            label: point.label(),
            fp: point.fingerprint(),
            started: Instant::now(),
        };
        self.send(|| ProgressEvent::Started {
            index,
            label: v.label.clone(),
            total: self.spec.points.len(),
        });

        // A point selected for tracing or metrics must actually simulate
        // — the artifacts come from a live run — so it bypasses the cache
        // *read*. The write side is shared: observation is read-only, so
        // the metrics it stores are byte-identical to an unobserved run's.
        let (plan, full) = (&self.spec.observe, ObserveConfig::default());
        let observe = if plan.wants_trace(&v.label) {
            Some(full)
        } else {
            plan.metrics
                .then(|| ObserveConfig::metrics_only(full.interval))
        };
        let hit = match (&self.cache, observe) {
            (Some(cache), None) => cache.lookup(v.fp).unwrap_or_else(|why| {
                let entry = (cache.path_of(v.fp), why);
                self.count(|r| r.corrupt_entries.push(entry));
                None
            }),
            _ => None,
        };
        let outcome = match hit {
            Some(metrics) => {
                self.finish(&v, &metrics, None);
                PointOutcome::Metrics(Box::new(metrics))
            }
            None => self.simulate(&v, observe),
        };
        *lock(&self.slots[index]) = Some(outcome);
        // The outcome is final: the point stops holding its window and
        // warm state alive.
        self.registry.release(index);
        self.group_commit();
    }

    /// Simulates the point once and classifies the result once: metrics
    /// finish it; a watchdog cancellation times it out; a simulation
    /// fault or a caught panic fails it. Every failure leaves its failure
    /// record (best effort), a fault's with its diagnostic dump.
    fn simulate(&self, v: &Visit, observe: Option<ObserveConfig>) -> PointOutcome {
        let (error, sim) = match self.attempt(v, observe) {
            Ok(Ok((metrics, obs))) => {
                self.finish(v, &metrics, Some(&obs));
                return PointOutcome::Metrics(Box::new(metrics));
            }
            Ok(Err(sim)) => (sim.to_string(), Some(sim)),
            Err(payload) => (panic_message(payload.as_ref()), None),
        };
        let record = self.fail(v, &error, sim.as_ref());
        match sim {
            Some(sim) if sim.is_watchdog() => {
                self.count(|r| r.timed_out += 1);
                PointOutcome::TimedOut { error, record }
            }
            _ => PointOutcome::Failed { error, record },
        }
    }

    /// The point's one supervised run: `Err` is a caught panic, `Ok(Err)`
    /// a simulation fault or a watchdog cancellation.
    fn attempt(
        &self,
        v: &Visit,
        observe: Option<ObserveConfig>,
    ) -> std::thread::Result<Result<(PointMetrics, RunObservation), SimError>> {
        // A fresh cancel flag: the watchdog monitor sets it once the
        // point is overdue and the model's cycle loop notices.
        let cancel = Arc::new(AtomicBool::new(false));
        let watchdog = self.watchdog.as_ref();
        let _guard = watchdog.map(|w| w.register(Arc::clone(&cancel)));
        let cycle_budget = self.spec.supervise.cycle_budget;
        let budget = (watchdog.is_some() || cycle_budget.is_some()).then(|| CycleBudget {
            max_cycles: cycle_budget,
            cancel: watchdog.is_some().then(|| Arc::clone(&cancel)),
        });
        let opts = RunOptions {
            checked: self.spec.checked,
            budget,
            ..RunOptions::default()
        };
        catch_unwind(AssertUnwindSafe(|| {
            execute_in(&self.registry, v.index, v.point, opts, observe)
        }))
    }

    /// The one way a point finishes with metrics — `simulated` carries
    /// the run's observation, `None` is a cache hit: counters, cache
    /// entry and artifacts, stale failure record removed, progress event,
    /// in that order.
    fn finish(&self, v: &Visit, metrics: &PointMetrics, simulated: Option<&RunObservation>) {
        let Visit { fp, label, .. } = v;
        let elapsed = v.started.elapsed();
        self.count(|r| match simulated {
            Some(_) => {
                r.simulated_records += point_records(v.point);
                r.sim_wall += elapsed;
                r.slowest.push((label.clone(), elapsed));
            }
            None => r.cache_hits += 1,
        });
        if let Some(c) = &self.cache {
            // A failed store degrades the next run to a re-simulation;
            // the current one is unharmed.
            if simulated.is_some() {
                let _ = c.store(*fp, metrics);
            }
            // PMU-style top-down artifact for every simulated point, and
            // backfilled on a hit if it is not what the point renders
            // (deleted, predating artifact emission, or torn by a host
            // crash before its group committed) so `campaign perf` always
            // sees a full cache dir. Verify-only points commit nothing
            // and carry no stack, so they get no artifact.
            if metrics.cpi_core_cycles() > 0 {
                let cpi = crate::perf::cpi_artifact(label, *fp, metrics);
                if simulated.is_some() || !c.holds_artifact(*fp, "cpi.json", &cpi) {
                    let _ = c.store_artifact(*fp, "cpi.json", &cpi);
                }
            }
            // The point has a result: a failure record an earlier run
            // left for it is stale — also on a hit, since an observed
            // re-run bypasses the cache and can fail beside an entry.
            let _ = std::fs::remove_file(c.artifact_path(*fp, "fail.json"));
            if let Some(obs) = simulated {
                if self.spec.observe.wants_trace(label) {
                    let _ = c.store_artifact(*fp, "trace.json", &perfetto_json(obs));
                    let _ = c.store_artifact(*fp, "pipeline.txt", &pipeline_text(obs));
                }
                if self.spec.observe.metrics {
                    let _ = c.store_artifact(*fp, "metrics.jsonl", &to_jsonl(&obs.intervals));
                }
            }
        }
        self.send(|| ProgressEvent::Finished {
            index: v.index,
            label: label.clone(),
            cache_hit: simulated.is_none(),
            records: point_records(v.point),
            elapsed: v.started.elapsed(),
        });
    }

    /// Counts a finished point towards the cache's next group commit and
    /// commits once [`COMMIT_EVERY`] points have finished or
    /// [`COMMIT_PERIOD`] has passed since the last one. A failed commit
    /// leaves the files whole but not durable: a host crash may then cost
    /// a re-simulation, never a wrong result.
    fn group_commit(&self) {
        let Some(cache) = &self.cache else {
            return;
        };
        let mut since = lock(&self.since_commit);
        since.0 += 1;
        if since.0 < COMMIT_EVERY && since.1.elapsed() < COMMIT_PERIOD {
            return;
        }
        *since = (0, Instant::now());
        drop(since);
        let _ = cache.commit();
    }

    /// Records a point's final failure beside its cache entry (best
    /// effort) and announces it; returns the record's path if written.
    fn fail(&self, v: &Visit, error: &str, sim: Option<&SimError>) -> Option<PathBuf> {
        let record = self.cache.as_ref().and_then(|c| {
            let text = failure_record(&v.label, error, sim);
            c.store_artifact(v.fp, "fail.json", &text).ok()
        });
        self.send(|| ProgressEvent::Failed {
            index: v.index,
            label: v.label.clone(),
            error: error.to_string(),
        });
        record
    }
}

/// Executes a campaign and returns every point's metrics.
///
/// `progress` receives one event per point transition; pass `None` (or
/// drop the receiver) to run silently. The error covers only cache
/// directory setup — simulation panics are *contained* per point and
/// reported in the outcome, never returned as errors.
pub fn run_campaign(
    spec: &CampaignSpec,
    progress: Option<Sender<ProgressEvent>>,
) -> std::io::Result<CampaignOutcome> {
    let start = Instant::now();
    // One campaign per cache directory: held until this run returns, so a
    // concurrent campaign against the same results-cache/ waits instead
    // of interleaving writes with us.
    let mut _lock = None;
    let mut cache = None;
    if let Some(dir) = &spec.cache_dir {
        _lock = Some(CacheLock::acquire(dir)?);
        cache = Some(ResultCache::open(dir)?);
    }

    let workers = spec.threads.unwrap_or_else(default_threads);
    let workers = workers.min(spec.points.len()).max(1);
    let campaign = Campaign {
        spec,
        registry: Registry::new(&spec.points),
        schedule: Schedule::new(&spec.points, workers),
        cache,
        since_commit: Mutex::new((0, start)),
        watchdog: spec.supervise.deadline.map(Watchdog::spawn),
        progress,
        slots: spec.points.iter().map(|_| Mutex::new(None)).collect(),
        report: Mutex::default(),
    };

    silence_worker_panics();
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let campaign = &campaign;
            scope.spawn(move || {
                CAMPAIGN_WORKER.set(true);
                while let Some(index) = campaign.schedule.pop(worker) {
                    campaign.run_point(index);
                }
            });
        }
    });

    // The last group: everything stored since the last commit is durable
    // before the campaign returns, however it ended.
    if let Some(cache) = &campaign.cache {
        let _ = cache.commit();
    }

    let outcomes: Vec<PointOutcome> = campaign
        .slots
        .iter()
        .map(|slot| lock(slot).take().expect("every point visited"))
        .collect();
    debug_assert_eq!(campaign.registry.live(), 0, "every point released");
    let mut report = std::mem::take(&mut *lock(&campaign.report));
    report.registry = campaign.registry.counters();
    report.completed = outcomes.iter().filter(|o| o.metrics().is_some()).count();
    report.failed = outcomes.len() - report.completed;
    report.elapsed = start.elapsed();
    report.corrupt_entries.sort();
    let slowest = &mut report.slowest;
    slowest.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    slowest.truncate(5);
    Ok(CampaignOutcome { outcomes, report })
}

/// The worker count when the spec names none: every core.
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests;
