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
//! simulation), else simulate under the campaign's
//! [supervision policy](crate::supervise::SupervisePolicy). A *transient*
//! failure — a worker panic, or a watchdog cancellation (wall-clock
//! deadline or simulated-cycle budget) — is retried up to the policy's
//! budget with deterministic backoff, then quarantined; a *deterministic*
//! simulation fault ([`SimError`]: a wedged pipeline, or an invariant
//! violation in checked mode) fails the point immediately (re-running a
//! pure function reproduces the same fault), with the error journaled
//! and a JSON diagnostic dump next to the point's cache entry. Either
//! way the campaign continues: no single point can take it down.
//!
//! When the spec carries a [`ChaosPlan`](s64v_core::ChaosPlan), the
//! seeded chaos schedule injects harness faults — point hangs and worker
//! panics on a point's *first* attempt (so retries always recover), torn
//! cache writes and truncated journal appends at the storage layer — and
//! every fired fault is journaled. The `campaign soak` gate asserts a
//! chaos run's final results are byte-identical to an undisturbed one.

use crate::cache::ResultCache;
use crate::journal::{journal_path, FailedPoint, Journal};
use crate::progress::{CampaignReport, ProgressEvent};
use crate::registry::{Registry, ReuseKey};
use crate::spec::{CampaignSpec, PointMetrics, SimPoint, WorkUnit};
use crate::supervise::{CacheLock, ChaosInjector, Watchdog};
use s64v_core::{
    compare, CycleBudget, HarnessFaultClass, ObserveConfig, PerformanceModel, Run, RunObservation,
    RunOptions, RunResult, SimError,
};
use s64v_observe::{perfetto_json, render_pipeline, to_jsonl};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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
        /// JSON diagnostic dump, written next to the point's cache entry
        /// when the failure was a structured [`SimError`] and a cache
        /// directory was configured.
        dump_path: Option<PathBuf>,
        /// Attempts made (1 = failed on the first try).
        attempts: u32,
        /// Whether transient failures exhausted the retry budget (as
        /// opposed to a deterministic fault failing fast).
        quarantined: bool,
    },
    /// Every attempt was cancelled by the watchdog (wall-clock deadline
    /// or simulated-cycle budget); the campaign continued without it.
    TimedOut {
        /// The last watchdog error.
        error: String,
        /// Attempts made before giving up.
        attempts: u32,
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
    /// Failures left in the journal by *previous* runs (resume context;
    /// empty without a cache directory).
    pub prior_failures: Vec<FailedPoint>,
    /// Aggregate counters for the run.
    pub report: CampaignReport,
}

impl CampaignOutcome {
    /// Per-point metrics, index-aligned with the spec (`None` = failed).
    pub fn results(&self) -> Vec<Option<&PointMetrics>> {
        self.outcomes.iter().map(PointOutcome::metrics).collect()
    }

    /// This run's failures as (point index, error message, dump path).
    /// Timed-out points are failures too (with no dump).
    pub fn failures(&self) -> Vec<(usize, &str, Option<&Path>)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| match o {
                PointOutcome::Metrics(_) => None,
                PointOutcome::Failed {
                    error, dump_path, ..
                } => Some((i, error.as_str(), dump_path.as_deref())),
                PointOutcome::TimedOut { error, .. } => Some((i, error.as_str(), None)),
            })
            .collect()
    }
}

/// Reuse-affine work distribution.
///
/// The work list is the point list reordered so that points with equal
/// [`ReuseKey`] are contiguous — groups in order of first appearance,
/// and within a group the unsampled points first, then sampled windows
/// ascending by `start`, which is the order a shared warm cursor serves
/// cheapest. Workers are dealt *contiguous* segments of that list
/// balanced by [`point_records`]; a group is split between two workers
/// only when it alone outweighs a worker's fair share. A worker pops its
/// own segment from the front, so it generates a trace, uses it up and
/// moves on. An idle worker steals from the *back* of a victim's
/// segment: a whole trailing group while the victim has more than one
/// group queued, and only when no victim has — nothing else is left —
/// the back half of a victim's last group, splitting a chain that is
/// being served.
///
/// Scheduling decides when a point runs and how much of its input it
/// finds ready, never what it computes: outcomes are index-aligned with
/// the spec at any thread count.
struct Schedule {
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// Reuse group of each point, by point index.
    group: Vec<usize>,
}

impl Schedule {
    fn new(points: &[SimPoint], workers: usize) -> Self {
        let mut ids: HashMap<ReuseKey, usize> = HashMap::new();
        let group: Vec<usize> = points
            .iter()
            .map(|p| {
                let next = ids.len();
                *ids.entry(ReuseKey::of(p)).or_insert(next)
            })
            .collect();
        let mut order: Vec<usize> = (0..points.len()).collect();
        order.sort_by_key(|&i| {
            let window_start = match points[i].work {
                WorkUnit::SampledWindow { start, .. } => Some(start),
                _ => None,
            };
            (group[i], window_start)
        });

        let cost = |i: &usize| point_records(&points[*i]);
        let total: u64 = order.iter().map(cost).sum();
        let share = total / workers as u64;
        let mut queues: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
        let mut dealt = 0u64;
        // The worker whose share of the cost axis holds the midpoint of
        // the run starting at `dealt`; midpoints ascend along the list,
        // so every worker's segment is contiguous.
        let mut deal = |run: &[usize], run_cost: u64| {
            let worker = (dealt + run_cost / 2) * workers as u64 / total.max(1);
            queues[(worker as usize).min(workers - 1)].extend(run);
            dealt += run_cost;
        };
        for run in order.chunk_by(|&a, &b| group[a] == group[b]) {
            let run_cost: u64 = run.iter().map(cost).sum();
            if run_cost > share {
                for i in run {
                    deal(std::slice::from_ref(i), cost(i));
                }
            } else {
                deal(run, run_cost);
            }
        }
        Schedule {
            queues: queues.into_iter().map(Mutex::new).collect(),
            group,
        }
    }

    // Deque locks are only held across a pop or a steal; a poisoned lock
    // means a worker died in between, and the queue itself is still
    // intact — recover it so the surviving workers drain the campaign.
    fn queue(&self, worker: usize) -> std::sync::MutexGuard<'_, VecDeque<usize>> {
        self.queues[worker]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// The next point for worker `me`, or `None` once every queue is
    /// empty. (Points a thief is carrying between two queues are briefly
    /// invisible, so a worker can retire a moment early; the thief still
    /// runs them.)
    fn pop(&self, me: usize) -> Option<usize> {
        if let Some(i) = self.queue(me).pop_front() {
            return Some(i);
        }
        for split in [false, true] {
            for offset in 1..self.queues.len() {
                let victim = (me + offset) % self.queues.len();
                let mut stolen = {
                    let mut q = self.queue(victim);
                    let Some(&back) = q.back() else { continue };
                    let trailing = q
                        .iter()
                        .rev()
                        .take_while(|&&i| self.group[i] == self.group[back])
                        .count();
                    let take = if trailing < q.len() {
                        trailing
                    } else if split {
                        (trailing / 2).max(1)
                    } else {
                        continue;
                    };
                    let keep = q.len() - take;
                    q.split_off(keep)
                };
                let first = stolen.pop_front();
                self.queue(me).append(&mut stolen);
                return first;
            }
        }
        None
    }
}

/// Runs one point over `registry`'s shared inputs, observed per `ocfg`
/// when given. `Verify` points drive two machines through `compare` and
/// sampled windows measure steady-state statistics, not instruction
/// narratives: both run unobserved and return an empty observation.
fn execute_in(
    registry: &Registry,
    point: &SimPoint,
    opts: RunOptions,
    ocfg: Option<ObserveConfig>,
) -> Result<(PointMetrics, RunObservation), SimError> {
    let traces = registry.traces(point);
    let run = match point.work {
        WorkUnit::Program { .. } | WorkUnit::SampledWindow { .. } => {
            // A uniprocessor point is a window of its trace — a program
            // point `[warmup, warmup + records)`, a sampled window any
            // other (its `records` is the *full trace length*) — timed on
            // a copy of the state every point with its warm key shares;
            // only the window itself is simulated in detail.
            let (start, len) = point.window().expect("a uniprocessor point");
            let records = traces[0].records();
            assert!(records.len() > start, "warmup must leave records to time");
            let observed = ocfg.filter(|_| matches!(point.work, WorkUnit::Program { .. }));
            registry.warmed(point, &traces[0]).try_run_window(
                &point.config.core,
                records,
                len,
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
            // `compare` drives both machines itself; checked mode and
            // fault injection do not apply to the reference cross-check.
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
    execute_in(&registry, point, opts, None).map(|(metrics, _)| metrics)
}

/// Panicking convenience wrapper around [`try_execute_point`] with
/// default options.
pub fn execute_point(point: &SimPoint) -> PointMetrics {
    try_execute_point(point, RunOptions::default()).unwrap_or_else(|e| panic!("{e}"))
}

/// Observed variant of [`try_execute_point`]: same simulation, plus the
/// run's [`RunObservation`] per `ocfg`. Observation is read-only, so the
/// metrics are byte-identical to the unobserved call — cache entries
/// written from either path are interchangeable.
pub fn try_execute_point_observed(
    point: &SimPoint,
    opts: RunOptions,
    ocfg: ObserveConfig,
) -> Result<(PointMetrics, RunObservation), SimError> {
    let registry = Registry::new(std::slice::from_ref(point));
    execute_in(&registry, point, opts, Some(ocfg))
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

/// Executes a campaign and returns every point's metrics.
///
/// `progress` receives one event per point transition; pass `None` (or
/// drop the receiver) to run silently. The error covers only cache or
/// journal I/O setup — simulation panics are *contained* per point and
/// reported in the outcome, never returned as errors.
pub fn run_campaign(
    spec: &CampaignSpec,
    progress: Option<Sender<ProgressEvent>>,
) -> std::io::Result<CampaignOutcome> {
    let start = Instant::now();
    let chaos = ChaosInjector::new(spec.chaos);
    // One campaign per cache directory: held until this run returns, so a
    // concurrent campaign against the same results-cache/ waits instead
    // of interleaving writes with us.
    let _lock = match &spec.cache_dir {
        Some(dir) => Some(CacheLock::acquire(dir)?),
        None => None,
    };
    let cache = match &spec.cache_dir {
        Some(dir) => Some(ResultCache::open(dir)?.with_chaos(Arc::clone(&chaos))),
        None => None,
    };
    let (journal, prior_failures) = match &spec.cache_dir {
        Some(dir) => {
            let path = journal_path(dir);
            let prior = Journal::load(&path).failed;
            (
                Some(Journal::open(&path)?.with_chaos(Arc::clone(&chaos))),
                prior,
            )
        }
        None => (None, Vec::new()),
    };
    let watchdog = spec.supervise.deadline.map(Watchdog::spawn);

    let workers = spec
        .threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
        .min(spec.points.len())
        .max(1);
    let registry = Registry::new(&spec.points);
    let schedule = Schedule::new(&spec.points, workers);
    let slots: Vec<Mutex<Option<PointOutcome>>> =
        spec.points.iter().map(|_| Mutex::new(None)).collect();
    let cache_hits = AtomicUsize::new(0);
    let simulated_records = AtomicU64::new(0);
    let retries = AtomicUsize::new(0);
    let timed_out = AtomicUsize::new(0);
    // Quarantined points as (index, label, last error); sorted by index
    // at the end so the report is independent of worker scheduling.
    let quarantined: Mutex<Vec<(usize, String, String)>> = Mutex::new(Vec::new());
    // Self-profile: summed per-point simulation wall time (nanoseconds)
    // and the per-point timings behind the report's slowest-points list.
    let sim_wall_nanos = AtomicU64::new(0);
    let point_timings: Mutex<Vec<(String, Duration)>> = Mutex::new(Vec::new());

    // Heartbeat bookkeeping. `Arc` because the heartbeat thread outlives
    // the worker scope's borrows (it is joined after the scope, once the
    // stop channel drops).
    let done = Arc::new(AtomicUsize::new(0));
    let in_flight = Arc::new(AtomicUsize::new(0));
    let heartbeat = match (spec.heartbeat, &progress) {
        (Some(period), Some(tx)) => {
            let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
            let tx = tx.clone();
            let done = Arc::clone(&done);
            let in_flight = Arc::clone(&in_flight);
            let total = spec.points.len();
            let handle = std::thread::spawn(move || {
                // Anything but a timeout — a message or a dropped sender
                // — means "stop".
                while let Err(RecvTimeoutError::Timeout) = stop_rx.recv_timeout(period) {
                    let done = done.load(Ordering::Relaxed);
                    let elapsed = start.elapsed();
                    let eta =
                        (done > 0).then(|| elapsed.mul_f64((total - done) as f64 / done as f64));
                    let _ = tx.send(ProgressEvent::Heartbeat {
                        done,
                        total,
                        in_flight: in_flight.load(Ordering::Relaxed),
                        elapsed,
                        eta,
                    });
                }
            });
            Some((stop_tx, handle))
        }
        _ => None,
    };

    // Point panics are caught and reported as failures; the default hook
    // would additionally spray a backtrace per panic onto stderr, burying
    // the progress stream under a crashing campaign. Silence it while
    // workers run (the message still reaches the failure report).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let schedule = &schedule;
            let registry = &registry;
            let slots = &slots;
            let cache = cache.as_ref();
            let journal = journal.as_ref();
            let cache_hits = &cache_hits;
            let simulated_records = &simulated_records;
            let sim_wall_nanos = &sim_wall_nanos;
            let point_timings = &point_timings;
            let retries = &retries;
            let timed_out = &timed_out;
            let quarantined = &quarantined;
            let watchdog = watchdog.as_ref();
            let chaos = &chaos;
            let done = &done;
            let in_flight = &in_flight;
            let progress = progress.clone();
            scope.spawn(move || {
                while let Some(index) = schedule.pop(worker) {
                    let point = &spec.points[index];
                    let label = point.label();
                    let fp = point.fingerprint();
                    let point_start = Instant::now();
                    in_flight.fetch_add(1, Ordering::Relaxed);
                    send(&progress, || ProgressEvent::Started {
                        index,
                        label: label.clone(),
                    });

                    // A point selected for tracing or metrics must actually
                    // simulate — the artifacts come from a live run — so it
                    // bypasses the cache *read*. The write side is shared:
                    // observation is read-only, so the metrics it stores are
                    // byte-identical to an unobserved run's.
                    let wants_trace = spec.observe.wants_trace(&label);
                    let observed = wants_trace || spec.observe.metrics;

                    if !observed {
                        if let Some(hit) = cache.and_then(|c| c.load(fp)) {
                            cache_hits.fetch_add(1, Ordering::Relaxed);
                            // Backfill the PMU artifact if it went missing
                            // (deleted, or predates artifact emission) so
                            // `campaign perf` always sees a full cache dir.
                            if let Some(c) = cache {
                                if hit.cpi_core_cycles() > 0
                                    && !c.artifact_path(fp, "cpi.json").exists()
                                {
                                    let _ = c.store_artifact(
                                        fp,
                                        "cpi.json",
                                        &crate::perf::cpi_artifact(&label, fp, &hit),
                                    );
                                }
                            }
                            if let Some(j) = journal {
                                j.record_ok(fp, &label);
                            }
                            send(&progress, || ProgressEvent::Finished {
                                index,
                                label: label.clone(),
                                cache_hit: true,
                                records: point_records(point),
                                elapsed: point_start.elapsed(),
                            });
                            *slots[index].lock().unwrap_or_else(|e| e.into_inner()) =
                                Some(PointOutcome::Metrics(Box::new(hit)));
                            registry.release(point);
                            done.fetch_add(1, Ordering::Relaxed);
                            in_flight.fetch_sub(1, Ordering::Relaxed);
                            continue;
                        }
                    }

                    // The attempt loop: transient failures (panics,
                    // watchdog cancellations) retry with deterministic
                    // backoff up to the policy's budget, then quarantine;
                    // deterministic simulation faults fail fast.
                    let fp_hex = fp.to_hex();
                    let mut attempt: u32 = 0;
                    let outcome = loop {
                        // Each attempt gets a fresh cancel flag; the
                        // watchdog monitor sets it once the attempt is
                        // overdue and the model's cycle loop notices.
                        let cancel = Arc::new(AtomicBool::new(false));
                        let guard = watchdog.map(|w| w.register(Arc::clone(&cancel)));
                        let budget = (watchdog.is_some() || spec.supervise.cycle_budget.is_some())
                            .then(|| CycleBudget {
                                max_cycles: spec.supervise.cycle_budget,
                                cancel: watchdog.is_some().then(|| Arc::clone(&cancel)),
                            });
                        let opts = RunOptions {
                            checked: spec.checked,
                            fault: spec.fault,
                            budget,
                            ..RunOptions::default()
                        };
                        let run = catch_unwind(AssertUnwindSafe(|| {
                            // Chaos strikes only a point's first attempt,
                            // so the retry ladder always recovers and a
                            // chaos campaign's final results stay
                            // byte-identical to an undisturbed run's.
                            if attempt == 0 && chaos.fire(HarnessFaultClass::PointHang, &fp_hex) {
                                return Err(SimError::watchdog(0, "chaos: injected point hang"));
                            }
                            if attempt == 0 && chaos.fire(HarnessFaultClass::WorkerPanic, &fp_hex) {
                                panic!("chaos: injected worker panic");
                            }
                            let ocfg = observed.then(|| {
                                if wants_trace {
                                    ObserveConfig {
                                        interval: spec.observe.interval,
                                        ..ObserveConfig::default()
                                    }
                                } else {
                                    ObserveConfig::metrics_only(spec.observe.interval)
                                }
                            });
                            execute_in(registry, point, opts, ocfg)
                        }));
                        drop(guard);

                        // Classify: success breaks out; a deterministic
                        // fault breaks out (fail fast); a transient
                        // failure falls through to the retry ladder.
                        let (error, was_timeout) = match run {
                            Ok(Ok((metrics, obs))) => {
                                simulated_records
                                    .fetch_add(point_records(point), Ordering::Relaxed);
                                let sim_elapsed = point_start.elapsed();
                                sim_wall_nanos
                                    .fetch_add(sim_elapsed.as_nanos() as u64, Ordering::Relaxed);
                                point_timings
                                    .lock()
                                    .unwrap_or_else(|e| e.into_inner())
                                    .push((label.clone(), sim_elapsed));
                                if let Some(c) = cache {
                                    // A failed store degrades the next run
                                    // to a re-simulation; the current one
                                    // is unharmed.
                                    let _ = c.store(fp, &metrics);
                                    // PMU-style top-down artifact for every
                                    // simulated point. Verify-only points
                                    // commit nothing and carry no stack, so
                                    // they get no artifact.
                                    if metrics.cpi_core_cycles() > 0 {
                                        let _ = c.store_artifact(
                                            fp,
                                            "cpi.json",
                                            &crate::perf::cpi_artifact(&label, fp, &metrics),
                                        );
                                    }
                                    if wants_trace {
                                        let _ = c.store_artifact(
                                            fp,
                                            "trace.json",
                                            &perfetto_json(&obs),
                                        );
                                        let _ = c.store_artifact(
                                            fp,
                                            "pipeline.txt",
                                            &pipeline_text(&obs),
                                        );
                                    }
                                    if spec.observe.metrics {
                                        let _ = c.store_artifact(
                                            fp,
                                            "metrics.jsonl",
                                            &to_jsonl(&obs.intervals),
                                        );
                                    }
                                }
                                if let Some(j) = journal {
                                    j.record_ok(fp, &label);
                                }
                                send(&progress, || ProgressEvent::Finished {
                                    index,
                                    label: label.clone(),
                                    cache_hit: false,
                                    records: point_records(point),
                                    elapsed: point_start.elapsed(),
                                });
                                break PointOutcome::Metrics(Box::new(metrics));
                            }
                            Ok(Err(sim)) if sim.is_watchdog() => {
                                timed_out.fetch_add(1, Ordering::Relaxed);
                                (sim.to_string(), true)
                            }
                            Ok(Err(sim)) => {
                                // Deterministic simulation fault: retrying
                                // a pure function reproduces it, so fail
                                // fast — dump the full diagnostics next to
                                // the cache entry (best effort) and keep
                                // the campaign going.
                                let error = sim.to_string();
                                let dump_path =
                                    cache.and_then(|c| c.store_failure(fp, &sim.to_json()).ok());
                                if let Some(j) = journal {
                                    j.record_fail(fp, &label, &error);
                                }
                                send(&progress, || ProgressEvent::Failed {
                                    index,
                                    label: label.clone(),
                                    error: error.clone(),
                                });
                                break PointOutcome::Failed {
                                    error,
                                    dump_path,
                                    attempts: attempt + 1,
                                    quarantined: false,
                                };
                            }
                            Err(payload) => (panic_message(payload.as_ref()), false),
                        };

                        if attempt < spec.supervise.retries {
                            retries.fetch_add(1, Ordering::Relaxed);
                            if let Some(j) = journal {
                                j.record_retry(fp, &label, &error);
                            }
                            send(&progress, || ProgressEvent::Retrying {
                                index,
                                label: label.clone(),
                                attempt,
                                error: error.clone(),
                            });
                            std::thread::sleep(spec.supervise.backoff_for(fp, attempt + 1));
                            attempt += 1;
                            continue;
                        }

                        // Retry budget exhausted: quarantine the point.
                        if let Some(j) = journal {
                            j.record_fail(fp, &label, &error);
                        }
                        quarantined.lock().unwrap_or_else(|e| e.into_inner()).push((
                            index,
                            label.clone(),
                            error.clone(),
                        ));
                        send(&progress, || ProgressEvent::Failed {
                            index,
                            label: label.clone(),
                            error: error.clone(),
                        });
                        break if was_timeout {
                            PointOutcome::TimedOut {
                                error,
                                attempts: attempt + 1,
                            }
                        } else {
                            PointOutcome::Failed {
                                error,
                                dump_path: None,
                                attempts: attempt + 1,
                                quarantined: true,
                            }
                        };
                    };
                    *slots[index].lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
                    // The outcome is final (retries are over): the point
                    // stops holding its trace and cursors alive.
                    registry.release(point);
                    done.fetch_add(1, Ordering::Relaxed);
                    in_flight.fetch_sub(1, Ordering::Relaxed);
                }
            });
        }
    });
    std::panic::set_hook(default_hook);
    if let Some((stop_tx, handle)) = heartbeat {
        drop(stop_tx); // disconnect wakes the heartbeat thread immediately
        let _ = handle.join();
    }

    // Journal every chaos fault that fired, sorted — so the trail is
    // independent of worker scheduling and the soak gate can assert each
    // injected fault is visible.
    if let Some(j) = &journal {
        for fault in chaos.fired() {
            j.record_chaos(fault.class, &fault.key);
        }
    }

    let outcomes: Vec<PointOutcome> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every point visited")
        })
        .collect();
    let completed = outcomes
        .iter()
        .filter(|o| matches!(o, PointOutcome::Metrics(_)))
        .count();
    let mut slowest = point_timings
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());
    slowest.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    slowest.truncate(5);
    let mut quarantined = quarantined.into_inner().unwrap_or_else(|e| e.into_inner());
    quarantined.sort_by_key(|(index, _, _)| *index);
    debug_assert_eq!(registry.live(), 0, "every point released its inputs");
    let shared = registry.counters();
    let report = CampaignReport {
        traces_requested: shared.traces_requested,
        traces_generated: shared.traces_generated,
        records_generated: shared.records_generated,
        records_warm_requested: shared.records_warm_requested,
        records_warmed: shared.records_warmed,
        machines_requested: shared.machines_requested,
        warm_passes: shared.warm_passes,
        machines_copied: shared.machines_copied,
        completed,
        failed: outcomes.len() - completed,
        cache_hits: cache_hits.into_inner(),
        simulated_records: simulated_records.into_inner(),
        retries: retries.into_inner(),
        timed_out: timed_out.into_inner(),
        quarantined: quarantined
            .into_iter()
            .map(|(_, label, error)| (label, error))
            .collect(),
        elapsed: start.elapsed(),
        sim_wall: Duration::from_nanos(sim_wall_nanos.into_inner()),
        slowest,
    };
    Ok(CampaignOutcome {
        outcomes,
        prior_failures,
        report,
    })
}

fn send(progress: &Option<Sender<ProgressEvent>>, event: impl FnOnce() -> ProgressEvent) {
    if let Some(tx) = progress {
        // A dropped receiver just means nobody is watching.
        let _ = tx.send(event());
    }
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
mod tests {
    use super::*;
    use crate::supervise::SupervisePolicy;
    use s64v_core::{ChaosPlan, FaultClass, FaultPlan, SystemConfig};
    use s64v_workloads::SuiteKind;

    /// The default retry ladder with no backoff sleeps (unit-test speed).
    fn fast_policy() -> SupervisePolicy {
        SupervisePolicy {
            backoff: Duration::ZERO,
            ..SupervisePolicy::default()
        }
    }

    fn program_point(records: usize, seed: u64) -> SimPoint {
        SimPoint {
            config: SystemConfig::sparc64_v(),
            work: WorkUnit::Program {
                suite: SuiteKind::SpecInt95,
                index: 0,
            },
            records,
            warmup: 2_000,
            seed,
        }
    }

    #[test]
    fn campaign_runs_points_in_order() {
        let spec = CampaignSpec::new(
            "unit",
            vec![program_point(3_000, 1), program_point(3_000, 2)],
        );
        let outcome = run_campaign(&spec, None).expect("run");
        assert_eq!(outcome.outcomes.len(), 2);
        assert!(outcome.failures().is_empty());
        let a = outcome.outcomes[0].metrics().expect("point 0");
        let b = outcome.outcomes[1].metrics().expect("point 1");
        assert_eq!(a.committed, 3_000);
        assert_ne!(a.cycles, b.cycles, "different seeds, different traces");
        assert_eq!(outcome.report.completed, 2);
        assert_eq!(outcome.report.simulated_records, 2 * 5_000);
    }

    #[test]
    fn engine_matches_direct_execution() {
        let p = program_point(4_000, 9);
        let direct = execute_point(&p);
        let outcome = run_campaign(&CampaignSpec::new("unit", vec![p]), None).expect("run");
        assert_eq!(outcome.outcomes[0].metrics(), Some(&direct));
    }

    #[test]
    fn panicking_point_is_contained_and_quarantined() {
        // records = 0 trips the model's "warmup must leave records to
        // time" assertion. A panic is a transient failure: the default
        // policy re-runs it (deterministically panicking again) until the
        // retry budget is spent, then quarantines the point.
        let spec = CampaignSpec::new("unit", vec![program_point(0, 1), program_point(3_000, 1)])
            .with_supervise(fast_policy());
        let outcome = run_campaign(&spec, None).expect("run");
        assert!(outcome.outcomes[0].metrics().is_none());
        assert!(outcome.outcomes[1].metrics().is_some());
        let failures = outcome.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, 0);
        assert!(failures[0].1.contains("warmup"), "got: {}", failures[0].1);
        assert!(
            failures[0].2.is_none(),
            "a contract panic has no structured state to dump"
        );
        assert_eq!(outcome.report.failed, 1);
        assert_eq!(outcome.report.completed, 1);
        assert_eq!(outcome.report.retries, 2, "default policy retries twice");
        let PointOutcome::Failed {
            attempts,
            quarantined,
            ..
        } = &outcome.outcomes[0]
        else {
            panic!("expected a failure, got {:?}", outcome.outcomes[0]);
        };
        assert_eq!(*attempts, 3, "first try plus two retries");
        assert!(*quarantined, "exhausted retries quarantine the point");
        assert_eq!(outcome.report.quarantined.len(), 1);
        assert!(outcome.report.quarantined[0].1.contains("warmup"));
    }

    #[test]
    fn cycle_budget_cancels_and_quarantines_a_runaway_point() {
        let policy = fast_policy().with_cycle_budget(5_000).with_retries(1);
        let spec = CampaignSpec::new("unit", vec![program_point(60_000, 1)]).with_supervise(policy);
        let outcome = run_campaign(&spec, None).expect("run");
        let PointOutcome::TimedOut { error, attempts } = &outcome.outcomes[0] else {
            panic!("expected a timeout, got {:?}", outcome.outcomes[0]);
        };
        assert!(error.contains("cycle budget"), "got: {error}");
        assert_eq!(*attempts, 2, "one retry, then quarantine");
        assert_eq!(outcome.report.timed_out, 2, "both attempts were cancelled");
        assert_eq!(outcome.report.retries, 1);
        assert_eq!(outcome.report.quarantined.len(), 1);
        assert_eq!(
            outcome.report.failed, 1,
            "a quarantined point counts failed"
        );
    }

    #[test]
    fn wall_clock_deadline_cancels_a_hung_point() {
        // A deadline that has always already passed: the monitor cancels
        // the attempt at its first tick, long before a 200k-record
        // simulation can finish.
        let policy = fast_policy()
            .with_deadline(Duration::from_nanos(1))
            .with_retries(0);
        let spec =
            CampaignSpec::new("unit", vec![program_point(200_000, 1)]).with_supervise(policy);
        let outcome = run_campaign(&spec, None).expect("run");
        let PointOutcome::TimedOut { error, attempts } = &outcome.outcomes[0] else {
            panic!("expected a timeout, got {:?}", outcome.outcomes[0]);
        };
        assert!(error.contains("wall-clock watchdog"), "got: {error}");
        assert_eq!(*attempts, 1, "retries = 0 gives up after the first attempt");
        assert_eq!(outcome.report.timed_out, 1);
    }

    #[test]
    fn chaos_campaign_matches_a_clean_run_byte_for_byte() {
        let points = vec![program_point(3_000, 1), program_point(3_000, 2)];
        let clean = run_campaign(&CampaignSpec::new("unit", points.clone()), None).expect("run");
        // Rate 1000: every chaos opportunity fires, so every point's
        // first attempt is hung and every one must recover by retry.
        let chaos = run_campaign(
            &CampaignSpec::new("unit", points)
                .with_supervise(fast_policy())
                .with_chaos(ChaosPlan::new(3, 1_000)),
            None,
        )
        .expect("run");
        assert_eq!(chaos.report.completed, 2);
        assert_eq!(chaos.report.retries, 2, "each first attempt was injected");
        assert_eq!(chaos.report.timed_out, 2, "injected hangs read as timeouts");
        assert!(chaos.report.quarantined.is_empty(), "retries recover chaos");
        for (c, d) in clean.outcomes.iter().zip(&chaos.outcomes) {
            assert_eq!(c.metrics(), d.metrics(), "chaos must never change results");
        }
    }

    #[test]
    fn checked_campaign_matches_an_unchecked_one() {
        let points = vec![program_point(3_000, 1)];
        let plain = run_campaign(&CampaignSpec::new("unit", points.clone()), None).expect("run");
        let checked =
            run_campaign(&CampaignSpec::new("unit", points).with_checked(), None).expect("run");
        assert!(
            checked.failures().is_empty(),
            "no invariant fires unfaulted"
        );
        assert_eq!(
            plain.outcomes[0].metrics(),
            checked.outcomes[0].metrics(),
            "the auditor must not perturb results"
        );
    }

    #[test]
    fn observed_campaign_writes_artifacts_and_identical_cache_entries() {
        let pid = std::process::id();
        let dir_plain = std::env::temp_dir().join(format!("s64v-obs-plain-{pid}"));
        let dir_obs = std::env::temp_dir().join(format!("s64v-obs-traced-{pid}"));
        std::fs::remove_dir_all(&dir_plain).ok();
        std::fs::remove_dir_all(&dir_obs).ok();

        let points = vec![program_point(3_000, 1)];
        let fp = points[0].fingerprint();
        run_campaign(
            &CampaignSpec::new("unit", points.clone()).with_cache_dir(&dir_plain),
            None,
        )
        .expect("plain run");
        run_campaign(
            &CampaignSpec::new("unit", points)
                .with_cache_dir(&dir_obs)
                .with_trace("")
                .with_metrics(),
            None,
        )
        .expect("observed run");

        // Observation never perturbs the simulation, so the cache entry an
        // observed run stores is byte-identical to a plain run's.
        let cache = ResultCache::open(&dir_obs).expect("open");
        let plain_entry =
            std::fs::read(ResultCache::open(&dir_plain).expect("open").path_of(fp)).expect("entry");
        let obs_entry = std::fs::read(cache.path_of(fp)).expect("entry");
        assert_eq!(
            plain_entry, obs_entry,
            "observation must not change results"
        );

        // The Perfetto trace parses and actually narrates the run.
        let trace = std::fs::read_to_string(cache.artifact_path(fp, "trace.json")).expect("trace");
        let doc = s64v_observe::json::Value::parse(&trace).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(s64v_observe::json::Value::as_array)
            .expect("traceEvents array");
        assert!(!events.is_empty(), "trace has events");

        // The pipeline diagram rendered something.
        let pipeline =
            std::fs::read_to_string(cache.artifact_path(fp, "pipeline.txt")).expect("pipeline");
        assert!(!pipeline.trim().is_empty());

        // Every metrics line is a standalone JSON document.
        let metrics =
            std::fs::read_to_string(cache.artifact_path(fp, "metrics.jsonl")).expect("metrics");
        assert!(!metrics.trim().is_empty());
        for line in metrics.lines() {
            s64v_observe::json::Value::parse(line).expect("valid JSONL line");
        }

        std::fs::remove_dir_all(&dir_plain).ok();
        std::fs::remove_dir_all(&dir_obs).ok();
    }

    #[test]
    fn trace_artifact_is_stable_across_thread_counts() {
        let pid = std::process::id();
        let dir_a = std::env::temp_dir().join(format!("s64v-obs-t1-{pid}"));
        let dir_b = std::env::temp_dir().join(format!("s64v-obs-t4-{pid}"));
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();

        let points: Vec<SimPoint> = (1..=3).map(|seed| program_point(3_000, seed)).collect();
        for (dir, threads) in [(&dir_a, 1), (&dir_b, 4)] {
            run_campaign(
                &CampaignSpec::new("unit", points.clone())
                    .with_threads(threads)
                    .with_cache_dir(dir)
                    .with_trace("")
                    .with_metrics(),
                None,
            )
            .expect("run");
        }
        let a = ResultCache::open(&dir_a).expect("open");
        let b = ResultCache::open(&dir_b).expect("open");
        for p in &points {
            let fp = p.fingerprint();
            for ext in ["trace.json", "pipeline.txt", "metrics.jsonl"] {
                let one = std::fs::read(a.artifact_path(fp, ext)).expect(ext);
                let four = std::fs::read(b.artifact_path(fp, ext)).expect(ext);
                assert_eq!(one, four, "{ext} must not depend on the thread count");
            }
        }

        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn heartbeat_pulses_while_points_run() {
        let spec = CampaignSpec::new("unit", vec![program_point(60_000, 1)])
            .with_heartbeat(Some(Duration::from_millis(1)));
        let (tx, rx) = std::sync::mpsc::channel();
        let outcome = run_campaign(&spec, Some(tx)).expect("run");
        assert_eq!(outcome.report.completed, 1);

        let beats: Vec<ProgressEvent> = rx
            .try_iter()
            .filter(|e| matches!(e, ProgressEvent::Heartbeat { .. }))
            .collect();
        assert!(!beats.is_empty(), "a 1ms period must pulse at least once");
        for beat in &beats {
            let ProgressEvent::Heartbeat {
                done,
                total,
                in_flight,
                eta,
                ..
            } = beat
            else {
                unreachable!()
            };
            assert_eq!(*total, 1);
            assert!(*done <= 1 && *in_flight <= 1);
            if *done == 0 {
                assert!(eta.is_none(), "no finished point, no estimate");
            }
        }
    }

    #[test]
    fn schedule_keeps_reuse_groups_whole_and_splits_one_only_when_nothing_else_is_left() {
        // Four programs × four full-warming windows, listed window-major
        // and descending, so neither groups nor starts arrive in order.
        let window = |index: usize, start: usize| SimPoint {
            config: SystemConfig::sparc64_v(),
            work: WorkUnit::SampledWindow {
                suite: SuiteKind::SpecInt95,
                index,
                start,
                len: 100,
            },
            records: 10_000,
            warmup: 10_000,
            seed: 1,
        };
        let points: Vec<SimPoint> = [4_000, 3_000, 2_000, 1_000]
            .iter()
            .flat_map(|&start| (0..4).map(move |index| window(index, start)))
            .collect();
        let at = |i: usize| match points[i].work {
            WorkUnit::SampledWindow { index, start, .. } => (index, start),
            _ => unreachable!(),
        };
        let s = Schedule::new(&points, 2);
        let take = |worker: usize, n: usize| -> Vec<(usize, usize)> {
            (0..n)
                .map(|_| at(s.pop(worker).expect("work left")))
                .collect()
        };
        let chain =
            |index: usize, from: usize| (from..=4).map(move |k| (index, k * 1_000)).collect();

        // Worker 0 was dealt programs 0 and 1, each ascending by start.
        let mut own: Vec<(usize, usize)> = chain(0, 1);
        own.extend::<Vec<_>>(chain(1, 1));
        assert_eq!(take(0, 8), own);
        // Out of work, it steals worker 1's trailing program whole ...
        assert_eq!(take(0, 4), chain(3, 1));
        // ... and only then splits the one program worker 1 has left:
        // the back half, still ascending; worker 1 keeps the front half.
        assert_eq!(take(0, 2), chain(2, 3));
        assert_eq!(take(1, 2), vec![(2, 1_000), (2, 2_000)]);
        assert_eq!(s.pop(0), None);
        assert_eq!(s.pop(1), None);
    }

    #[test]
    fn schedule_splits_a_single_oversized_group_across_workers_at_deal_time() {
        // An exploration round: one trace, many configurations.
        let points: Vec<SimPoint> = (0..10).map(|_| program_point(3_000, 1)).collect();
        let s = Schedule::new(&points, 2);
        let own = |worker: usize| s.queue(worker).iter().copied().collect::<Vec<usize>>();
        assert_eq!(own(0), (0..5).collect::<Vec<_>>());
        assert_eq!(own(1), (5..10).collect::<Vec<_>>());
    }

    #[test]
    fn report_profiles_simulation_wall_time() {
        let spec = CampaignSpec::new(
            "unit",
            vec![program_point(3_000, 1), program_point(6_000, 2)],
        );
        let outcome = run_campaign(&spec, None).expect("run");
        let r = &outcome.report;
        assert!(r.sim_wall > Duration::ZERO, "simulation took time");
        assert_eq!(r.slowest.len(), 2, "both simulated points are profiled");
        assert!(
            r.slowest[0].1 >= r.slowest[1].1,
            "slowest points come first"
        );
    }

    #[test]
    fn invariant_violation_fails_the_point_and_writes_a_dump() {
        let dir = std::env::temp_dir().join(format!("s64v-engine-dump-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let spec = CampaignSpec::new(
            "unit",
            vec![program_point(3_000, 1), program_point(3_000, 2)],
        )
        .with_checked()
        .with_fault(FaultPlan::at(FaultClass::RewindCommit, 0, 1))
        .with_cache_dir(&dir);
        let outcome = run_campaign(&spec, None).expect("run");

        // Every point gets the fault, every point fails — and the
        // campaign still visits all of them.
        assert_eq!(outcome.report.failed, 2);
        for o in &outcome.outcomes {
            let PointOutcome::Failed {
                error,
                dump_path,
                attempts,
                quarantined,
            } = o
            else {
                panic!("faulted point must fail, got {o:?}");
            };
            assert!(error.contains("commit"), "got: {error}");
            assert_eq!(*attempts, 1, "deterministic SimErrors fail fast, no retry");
            assert!(!quarantined, "a fail-fast point is not quarantined");
            let path = dump_path.as_ref().expect("dump written next to cache");
            let json = std::fs::read_to_string(path).expect("dump readable");
            assert!(json.contains("\"component\": \"commit\""), "got: {json}");
            assert!(json.contains("\"pipeline\""), "dump carries the snapshot");
        }

        std::fs::remove_dir_all(&dir).ok();
    }
}
