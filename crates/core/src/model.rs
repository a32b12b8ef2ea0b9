//! The performance-model façade.

use crate::faultinject::FaultPlan;
use crate::integrity::{Auditor, SimError};
use crate::observe::{ObserveConfig, Observer};
use crate::system::{RunResult, SystemConfig};
use s64v_cpu::Core;
use s64v_mem::MemorySystem;
use s64v_observe::RunObservation;
use s64v_trace::{SliceStream, TraceStream, VecTrace};

/// Cooperative supervision of one run: a simulated-cycle ceiling and an
/// external cancellation flag, both polled from inside the cycle loop.
///
/// The budget is the model-side half of the harness watchdog contract: a
/// monitor thread that decides a point is overdue cannot safely tear a
/// simulation down from outside, so instead it sets `cancel` and the loop
/// exits itself at the next poll with a structured
/// [`SimError::watchdog`]. Neither field describes the simulated system,
/// so budgets never enter [`SystemConfig`] or any cache fingerprint — a
/// run that *finishes* under a budget is byte-identical to an unbudgeted
/// one.
#[derive(Debug, Clone, Default)]
pub struct CycleBudget {
    /// Abort with a watchdog error once this many cycles have simulated.
    pub max_cycles: Option<u64>,
    /// External cancel flag, polled every [`CycleBudget::CANCEL_POLL`]
    /// cycles (set by the harness when a wall-clock deadline passes).
    pub cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl CycleBudget {
    /// How many cycles pass between polls of the cancel flag (a power of
    /// two; the ceiling check is exact every cycle).
    pub const CANCEL_POLL: u64 = 4096;

    /// Whether the budget can ever trip.
    pub fn is_active(&self) -> bool {
        self.max_cycles.is_some() || self.cancel.is_some()
    }

    /// Checks the budget at cycle `now`; `Err` is a watchdog trip.
    fn check(&self, now: u64) -> Result<(), SimError> {
        if let Some(max) = self.max_cycles {
            if now >= max {
                return Err(SimError::watchdog(
                    now,
                    format!("simulated-cycle budget of {max} cycles exhausted"),
                ));
            }
        }
        if now.is_multiple_of(Self::CANCEL_POLL) {
            if let Some(cancel) = &self.cancel {
                if cancel.load(std::sync::atomic::Ordering::Relaxed) {
                    return Err(SimError::watchdog(
                        now,
                        "cancelled by the wall-clock watchdog (deadline exceeded)",
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Per-run options that do not describe the simulated system (and
/// therefore never enter [`SystemConfig`] or any cache fingerprint):
/// checked-mode auditing, fault injection, and supervision budgets.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Run the invariant auditor every cycle (see [`crate::integrity`]).
    pub checked: bool,
    /// Inject a deterministic fault (see [`crate::faultinject`]).
    pub fault: Option<FaultPlan>,
    /// Cycle ceiling and cancellation flag (see [`CycleBudget`]).
    pub budget: Option<CycleBudget>,
    /// Step every core on every cycle: no core is ever put to sleep.
    /// Results are byte-identical either way (the equivalence test suite
    /// asserts exactly that); the switch exists for those tests and for
    /// debugging. Checked and faulted runs never sleep regardless.
    pub no_skip: bool,
}

impl RunOptions {
    /// Checked mode, no fault.
    pub fn checked() -> Self {
        RunOptions {
            checked: true,
            ..RunOptions::default()
        }
    }

    /// Checked mode with a fault plan (fault-matrix validation runs).
    pub fn checked_with_fault(fault: FaultPlan) -> Self {
        RunOptions {
            checked: true,
            fault: Some(fault),
            ..RunOptions::default()
        }
    }

    /// Default options under a supervision budget.
    pub fn budgeted(budget: CycleBudget) -> Self {
        RunOptions {
            budget: Some(budget),
            ..RunOptions::default()
        }
    }
}

/// The one simulation loop: cores share a cycle counter and the memory
/// system and step in index order within a cycle, but each sleeps to its
/// own next event (see [`Core::sleep_after`]) — a core whose pipeline is
/// provably frozen until cycle `w` is not stepped again before `w`, and
/// the counter advances to the earliest wake time among unfinished cores.
/// "Every core is asleep" and a uniprocessor run are instances of that
/// rule, not separate paths. Applies any pending fault and (in checked
/// mode) audits the invariants every cycle. Returns the final cycle count.
pub(crate) fn drive<S: TraceStream>(
    cores: &mut [Core],
    mem: &mut MemorySystem,
    streams: &mut [S],
    opts: RunOptions,
    mut observer: Option<&mut Observer>,
) -> Result<u64, SimError> {
    let mut auditor = opts.checked.then(|| Auditor::new(cores.len()));
    let mut fault = opts.fault;
    // Hoisted out of `opts` so an inactive budget costs one branch.
    let budget = opts.budget.filter(CycleBudget::is_active);
    // Sleeping is sound only when nothing outside a core needs it stepped
    // on an arbitrary cycle — so never under an auditor (it must see
    // every cycle of every core) or a fault plan (it fires at scheduled
    // cycles).
    let may_sleep = !opts.no_skip && auditor.is_none() && fault.is_none();
    let observe_interval = observer.as_ref().map_or(0, |o| o.interval());
    /// Wake time of a core that has drained its stream.
    const FINISHED: u64 = u64::MAX;
    // The next cycle each core steps on.
    let mut wake: Vec<u64> = vec![0; cores.len()];
    // Cores whose step this cycle was inert: candidates for a sleep.
    let mut inert: Vec<usize> = Vec::with_capacity(cores.len());
    let mut now = 0u64;
    loop {
        if let Some(b) = &budget {
            b.check(now)?;
        }
        if let Some(f) = fault.as_mut() {
            f.apply(now, cores, mem);
        }
        inert.clear();
        let mut stepped = false;
        for i in 0..cores.len() {
            if wake[i] > now {
                continue; // asleep or finished
            }
            if cores[i].is_done(&streams[i]) {
                wake[i] = FINISHED;
                continue;
            }
            let active = cores[i]
                .try_step_active(mem, &mut streams[i], now)
                .map_err(|e| SimError::from_core(*e, mem))?;
            stepped = true;
            wake[i] = now + 1;
            if !active {
                inert.push(i);
            }
        }
        if let Some(a) = auditor.as_mut() {
            a.check(now, cores, mem)?;
        }
        if stepped {
            if let Some(o) = observer.as_mut() {
                o.tick(now, cores, mem);
            }
        }
        if may_sleep && !inert.is_empty() {
            // Only after the observer has read this cycle's statistics:
            // a sleep records its cycles ahead of time. The cap keeps
            // every core stepping on observer boundaries, the cycle
            // ceiling and cancel polls, so those run on their exact cycles
            // with every core's statistics current.
            let mut cap = u64::MAX;
            if observe_interval > 0 {
                cap = (now + 2).div_ceil(observe_interval) * observe_interval - 1;
            }
            if let Some(b) = &budget {
                if let Some(max) = b.max_cycles {
                    cap = cap.min(max);
                }
                if b.cancel.is_some() {
                    cap = cap.min((now / CycleBudget::CANCEL_POLL + 1) * CycleBudget::CANCEL_POLL);
                }
            }
            for &i in &inert {
                wake[i] = cores[i].sleep_after(&streams[i], now, cap);
            }
        }
        let next = wake.iter().copied().min().unwrap_or(FINISHED);
        if next == FINISHED {
            break;
        }
        now = next;
    }
    if let Some(a) = auditor.as_mut() {
        a.finalize(now + 1, cores, mem)?;
    }
    Ok(now)
}

fn collect_result(cycles: u64, cores: &[Core], mem: &MemorySystem) -> RunResult {
    RunResult {
        cycles,
        committed: cores.iter().map(|c| c.stats().committed.get()).sum(),
        core_stats: cores.iter().map(|c| c.stats().clone()).collect(),
        mem_stats: (0..cores.len()).map(|i| mem.stats(i).clone()).collect(),
        bus_transactions: mem.bus().transactions(),
        bus_busy_cycles: mem.bus().busy_cycles(),
    }
}

/// Times `streams` on a machine — cold, or functionally warmed — from
/// cycle zero, observed per `ocfg` when given (the observation is empty
/// otherwise). The recorders start here, after any warm-up, so only
/// timed execution is recorded.
pub(crate) fn timed<S: TraceStream>(
    mut cores: Vec<Core>,
    mut mem: MemorySystem,
    mut streams: Vec<S>,
    opts: RunOptions,
    ocfg: Option<ObserveConfig>,
) -> Result<(RunResult, RunObservation), SimError> {
    let mut observer = ocfg.map(|ocfg| Observer::new(ocfg, &mut cores, &mut mem));
    let cycles = drive(&mut cores, &mut mem, &mut streams, opts, observer.as_mut())?;
    if let Some(o) = observer.as_mut() {
        o.finish(cycles, &cores, &mem);
    }
    let result = collect_result(cycles, &cores, &mem);
    let observation = observer
        .map(|o| o.collect(&cores, &mut mem))
        .unwrap_or_default();
    Ok((result, observation))
}

/// One run of the model, described: which records of which traces are
/// functionally warmed, which are timed, under what supervision, observed
/// or not. [`PerformanceModel::execute`] is the one way to carry it out.
///
/// Without a window, every CPU is warmed on its first `warmup` records —
/// interleaved across CPUs in chunks, so shared lines end in a realistic
/// mixed state (the paper traces workloads at steady state, §2.2) — and
/// the rest of every trace is timed. With a window `(start, len)`, exactly
/// records `[start, start + len)` are timed and `warmup` is the reach-back:
/// the machine starts cold at `start.saturating_sub(warmup)`, anything
/// earlier is never seen (SMARTS-style functional warming). A window's
/// result therefore depends only on `(traces, start, len, warmup)`, never
/// on which other windows ran or in what order, which is what lets the
/// harness fingerprint, cache and parallelize windows as ordinary points.
#[derive(Debug, Clone)]
pub struct Run<'a> {
    /// One trace per CPU.
    pub traces: &'a [VecTrace],
    /// Records functionally warmed before the first timed one.
    pub warmup: usize,
    /// Time only `[start, start + len)` of every trace.
    pub window: Option<(usize, usize)>,
    /// Checked mode, fault injection, budgets (see [`RunOptions`]).
    pub opts: RunOptions,
    /// Record timelines, bus transfers and interval metrics of the timed
    /// part (recording starts after the warm-up). Observation is
    /// read-only: the
    /// [`RunResult`] is byte-identical to an unobserved run's.
    pub observe: Option<ObserveConfig>,
}

impl<'a> Run<'a> {
    /// Every record of one trace per CPU, cold, timed from cycle zero.
    pub fn new(traces: &'a [VecTrace]) -> Self {
        Run {
            traces,
            warmup: 0,
            window: None,
            opts: RunOptions::default(),
            observe: None,
        }
    }

    /// [`Run::new`] for a uniprocessor.
    pub fn of(trace: &'a VecTrace) -> Self {
        Run::new(std::slice::from_ref(trace))
    }

    /// Sets the functional warm-up length.
    pub fn warm(mut self, warmup: usize) -> Self {
        self.warmup = warmup;
        self
    }

    /// Times only records `[start, start + len)`.
    pub fn window(mut self, start: usize, len: usize) -> Self {
        self.window = Some((start, len));
        self
    }

    /// Sets the run options.
    pub fn options(mut self, opts: RunOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Observes the timed part per `ocfg`.
    pub fn observed(mut self, ocfg: ObserveConfig) -> Self {
        self.observe = Some(ocfg);
        self
    }
}

/// The trace-driven performance model: a [`SystemConfig`] ready to run
/// traces.
///
/// # Examples
///
/// ```
/// use s64v_core::{PerformanceModel, Run, SystemConfig};
/// use s64v_workloads::{Suite, SuiteKind};
///
/// let suite = Suite::preset(SuiteKind::SpecInt95);
/// let trace = suite.programs()[0].generate(20_000, 1);
/// let result = PerformanceModel::new(SystemConfig::sparc64_v()).run(Run::of(&trace));
/// assert_eq!(result.committed, 20_000);
/// assert!(result.ipc() > 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct PerformanceModel {
    config: SystemConfig,
}

impl PerformanceModel {
    /// Wraps a configuration.
    pub fn new(config: SystemConfig) -> Self {
        PerformanceModel { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Carries out `run` on a cold instance of the system: CPUs lock-step
    /// cycle by cycle over the shared memory system until every one has
    /// drained (CPUs that finish early sit idle; their commit counts still
    /// contribute). A wedged pipeline, a tripped budget or (in checked
    /// mode) an invariant violation is returned as a structured
    /// [`SimError`]. The observation is empty unless `run.observe` is set.
    ///
    /// # Panics
    ///
    /// Panics on contract misuse — a trace count other than the CPU count,
    /// a warm-up that leaves nothing to time, an empty or out-of-range
    /// window — never on a simulation fault.
    pub fn execute(&self, run: Run<'_>) -> Result<(RunResult, RunObservation), SimError> {
        let traces = run.traces;
        assert_eq!(
            traces.len(),
            self.config.cpus,
            "need one trace per CPU ({} != {})",
            traces.len(),
            self.config.cpus
        );
        let (origin, start, end) = match run.window {
            Some((start, len)) => {
                assert!(len > 0, "empty window");
                assert!(
                    traces.iter().all(|t| start + len <= t.len()),
                    "window exceeds the trace"
                );
                (start.saturating_sub(run.warmup), start, Some(start + len))
            }
            None => {
                assert!(
                    run.warmup == 0 || traces.iter().all(|t| t.len() > run.warmup),
                    "warmup must leave records to time"
                );
                (0, run.warmup, None)
            }
        };
        let mut mem = MemorySystem::new(self.config.mem.clone(), self.config.cpus);
        let mut cores: Vec<Core> = (0..self.config.cpus)
            .map(|i| Core::new(self.config.core.clone(), i))
            .collect();
        const CHUNK: usize = 1024;
        let mut pos = origin;
        while pos < start {
            let next = (pos + CHUNK).min(start);
            for (core, trace) in cores.iter_mut().zip(traces) {
                for rec in &trace.records()[pos..next] {
                    core.warm(&mut mem, rec);
                }
            }
            pos = next;
        }
        let streams = traces
            .iter()
            .map(|t| SliceStream::new(&t.records()[start..end.unwrap_or(t.len())]))
            .collect();
        timed(cores, mem, streams, run.opts, run.observe)
    }

    /// [`PerformanceModel::execute`] for callers that want only the result
    /// and treat a simulation fault as a bug.
    ///
    /// # Panics
    ///
    /// Panics where `execute` panics or returns an error.
    pub fn run(&self, run: Run<'_>) -> RunResult {
        match self.execute(run) {
            Ok((result, _)) => result,
            Err(e) => panic!("{e}"),
        }
    }

    /// `execute(Run::of(trace).warm(warmup).options(opts))`, under the
    /// name `benchmark/src/api.rs` calls.
    pub fn try_run_trace_warm(
        &self,
        trace: &VecTrace,
        warmup: usize,
        opts: RunOptions,
    ) -> Result<RunResult, SimError> {
        let run = Run::of(trace).warm(warmup).options(opts);
        self.execute(run).map(|(result, _)| result)
    }

    /// `execute(Run::new(traces).warm(warmup).options(opts))`, under the
    /// name `benchmark/src/api.rs` calls.
    pub fn try_run_traces_warm(
        &self,
        traces: &[VecTrace],
        warmup: usize,
        opts: RunOptions,
    ) -> Result<RunResult, SimError> {
        let run = Run::new(traces).warm(warmup).options(opts);
        self.execute(run).map(|(result, _)| result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s64v_workloads::{smp_traces, suite::tpcc_program, Suite, SuiteKind};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn uniprocessor_run_commits_everything() {
        let suite = Suite::preset(SuiteKind::SpecInt95);
        let t = suite.programs()[0].generate(10_000, 5);
        let r = PerformanceModel::new(SystemConfig::sparc64_v()).run(Run::of(&t));
        assert_eq!(r.committed, 10_000);
        assert!(r.cycles > 0);
        assert!(r.ipc() > 0.0);
    }

    #[test]
    fn smp_run_commits_all_streams() {
        let traces = smp_traces(&tpcc_program(), 2, 30_000, 3);
        let r = PerformanceModel::new(SystemConfig::smp(2)).run(Run::new(&traces));
        assert_eq!(r.committed, 60_000);
        assert_eq!(r.core_stats.len(), 2);
        let invalidations: u64 = r
            .mem_stats
            .iter()
            .map(|m| m.coherence.invalidations_caused.get())
            .sum();
        assert!(
            r.move_outs() > 0 || invalidations > 0,
            "shared TPC-C data must cause coherence traffic"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let suite = Suite::preset(SuiteKind::SpecFp95);
        let t = suite.programs()[0].generate(5_000, 5);
        let model = PerformanceModel::new(SystemConfig::sparc64_v());
        let a = model.run(Run::of(&t));
        let b = model.run(Run::of(&t));
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.committed, b.committed);
    }

    #[test]
    fn checked_mode_changes_nothing_on_a_clean_run() {
        let suite = Suite::preset(SuiteKind::SpecInt95);
        let t = suite.programs()[0].generate(8_000, 5);
        let model = PerformanceModel::new(SystemConfig::sparc64_v());
        let plain = model.run(Run::of(&t));
        let (checked, _) = model
            .execute(Run::of(&t).options(RunOptions::checked()))
            .expect("no invariant fires on an unfaulted run");
        assert_eq!(plain.cycles, checked.cycles);
        assert_eq!(plain.committed, checked.committed);
    }

    #[test]
    fn checked_smp_run_is_clean_too() {
        let traces = smp_traces(&tpcc_program(), 2, 10_000, 3);
        let model = PerformanceModel::new(SystemConfig::smp(2));
        let plain = model.run(Run::new(&traces));
        let (checked, _) = model
            .execute(Run::new(&traces).options(RunOptions::checked()))
            .expect("no invariant fires on an unfaulted SMP run");
        assert_eq!(plain.cycles, checked.cycles);
        assert_eq!(plain.committed, checked.committed);
    }

    /// A stream that raises the cancel flag as its `after`-th record is
    /// fetched: the wall-clock watchdog, made deterministic.
    struct CancelAfter<'a> {
        inner: SliceStream<'a>,
        after: usize,
        flag: Arc<AtomicBool>,
    }

    impl TraceStream for CancelAfter<'_> {
        fn next_record(&mut self) -> Option<s64v_trace::TraceRecord> {
            if self.after == 0 {
                self.flag.store(true, Ordering::Relaxed);
            }
            self.after = self.after.saturating_sub(1);
            self.inner.next_record()
        }

        fn remaining_hint(&self) -> Option<u64> {
            self.inner.remaining_hint()
        }
    }

    #[test]
    fn a_cancel_is_seen_at_the_next_poll_even_with_every_core_asleep() {
        // Cold-start TPC-C: long stretches in which all four cores sleep
        // on memory. Wherever in the run the flag goes up, the sleeping
        // loop must stop at the very poll the stepping loop stops at —
        // the first multiple of CANCEL_POLL after it.
        let config = SystemConfig::smp(4);
        let traces = smp_traces(&tpcc_program(), 4, 4_000, 9);
        let stop_cycle = |after: usize, no_skip: bool| {
            let flag = Arc::new(AtomicBool::new(false));
            let mut mem = MemorySystem::new(config.mem.clone(), config.cpus);
            let mut cores: Vec<Core> = (0..config.cpus)
                .map(|i| Core::new(config.core.clone(), i))
                .collect();
            let mut streams: Vec<CancelAfter<'_>> = traces
                .iter()
                .enumerate()
                .map(|(i, t)| CancelAfter {
                    inner: t.stream(),
                    // Only CPU 0's stream ever raises the flag.
                    after: if i == 0 { after } else { usize::MAX },
                    flag: flag.clone(),
                })
                .collect();
            let opts = RunOptions {
                no_skip,
                ..RunOptions::budgeted(CycleBudget {
                    max_cycles: None,
                    cancel: Some(flag),
                })
            };
            let err = drive(&mut cores, &mut mem, &mut streams, opts, None)
                .expect_err("the flag goes up before the trace ends");
            assert!(err.is_watchdog(), "{err}");
            err.cycle
        };
        let mut polls = std::collections::BTreeSet::new();
        for after in [0, 300, 900, 1_700, 2_600, 3_500] {
            let asleep = stop_cycle(after, false);
            assert_eq!(
                asleep,
                stop_cycle(after, true),
                "flag after {after} records"
            );
            assert!(asleep > 0 && asleep.is_multiple_of(CycleBudget::CANCEL_POLL));
            polls.insert(asleep);
        }
        assert!(
            polls.len() >= 4,
            "the flag went up in different poll periods"
        );
    }

    #[test]
    #[should_panic(expected = "one trace per CPU")]
    fn trace_count_is_validated() {
        let traces = smp_traces(&tpcc_program(), 2, 100, 3);
        let _ = PerformanceModel::new(SystemConfig::smp(4)).run(Run::new(&traces));
    }
}

#[cfg(test)]
mod sampled_tests {
    use super::*;
    use s64v_workloads::{Suite, SuiteKind};

    #[test]
    fn independent_windows_commit_exactly_their_records() {
        let suite = Suite::preset(SuiteKind::SpecInt95);
        let t = suite.programs()[0].generate(60_000, 5);
        let model = PerformanceModel::new(SystemConfig::sparc64_v());
        let r = model.run(Run::of(&t).warm(4_000).window(20_000, 5_000));
        assert_eq!(r.committed, 5_000);
        assert!(r.cycles > 0);
        // A window is independent of everything after it: truncating the
        // trace right at the window's end must not change the result.
        let truncated = s64v_trace::VecTrace::from_records(t.records()[..25_000].to_vec());
        let r2 = model.run(Run::of(&truncated).warm(4_000).window(20_000, 5_000));
        assert_eq!(r.cycles, r2.cycles);
        assert_eq!(r.committed, r2.committed);
    }

    #[test]
    fn window_results_are_skip_and_checked_invariant() {
        let suite = Suite::preset(SuiteKind::Tpcc);
        let t = suite.programs()[0].generate(40_000, 9);
        let model = PerformanceModel::new(SystemConfig::sparc64_v());
        let window = |opts| model.run(Run::of(&t).warm(5_000).window(10_000, 6_000).options(opts));
        let base = window(RunOptions::default());
        let no_skip = window(RunOptions {
            no_skip: true,
            ..RunOptions::default()
        });
        let checked = window(RunOptions::checked());
        assert_eq!(base.cycles, no_skip.cycles);
        assert_eq!(base.cycles, checked.cycles);
        assert_eq!(base.committed, checked.committed);
    }
}
