//! Wiring between the model and the `s64v-observe` subsystem.
//!
//! [`Observer`] owns the observation plumbing for one run. A traced run
//! records the two things its artifacts draw: each core's first
//! [`TIMELINE_INSTRUCTIONS`] instruction timelines (`pipeline.txt` and the
//! Perfetto pipeline slices) and the memory system's first
//! [`s64v_mem::BUS_LOG_CAP`] bus transfers (the Perfetto bus slices).
//! Any observed run may also sample interval metrics at a fixed cycle
//! period. After the run, [`Observer::collect`] takes everything back
//! and assembles a [`RunObservation`].
//!
//! Observation is strictly read-only — the recorders and the sampler look
//! at the model but never feed anything back — so an observed run
//! produces byte-identical [`crate::RunResult`]s to a plain one (there is
//! a test for exactly this, and the engine's cache fingerprints ignore
//! observation settings entirely).

use s64v_cpu::Core;
use s64v_mem::MemorySystem;
use s64v_observe::{CpuInterval, IntervalSample, RunObservation};

/// How many instructions' timelines a traced run records per core: the
/// first 4 096, enough for `pipeline.txt`'s first 200 and a readable
/// stretch of Perfetto pipeline slices.
pub const TIMELINE_INSTRUCTIONS: usize = 4096;

/// What to record during a run.
#[derive(Debug, Clone, Copy)]
pub struct ObserveConfig {
    /// Record instruction timelines and bus transfers (see the module
    /// docs).
    pub trace: bool,
    /// Interval-sample period in cycles; `0` disables sampling.
    pub interval: u64,
}

impl Default for ObserveConfig {
    fn default() -> Self {
        ObserveConfig {
            trace: true,
            interval: 10_000,
        }
    }
}

impl ObserveConfig {
    /// Interval metrics only: no timelines, no bus transfers.
    pub fn metrics_only(interval: u64) -> Self {
        ObserveConfig {
            trace: false,
            interval,
        }
    }
}

/// Per-CPU counter values at the previous window boundary.
#[derive(Debug, Clone, Copy, Default)]
struct PrevCpu {
    committed: u64,
    stalls: [u64; 7],
}

/// Attached observation state for one run (see the module docs).
#[derive(Debug)]
pub struct Observer {
    cfg: ObserveConfig,
    intervals: Vec<IntervalSample>,
    window_start: u64,
    prev: Vec<PrevCpu>,
    prev_bus_busy: u64,
    prev_bus_txns: u64,
}

/// Reads one core's stall-cause counters in [`s64v_observe::STALL_LABELS`]
/// order.
fn stall_mix(core: &Core) -> [u64; 7] {
    let s = &core.stats().stall_cycles;
    [
        s.busy.get(),
        s.l2_miss.get(),
        s.l1_miss.get(),
        s.execute.get(),
        s.dispatch.get(),
        s.frontend_branch.get(),
        s.frontend_fetch.get(),
    ]
}

impl Observer {
    /// Starts the recorders per `cfg` and returns the sampler. Call after
    /// any warm-up so warm accesses are not recorded.
    pub fn new(cfg: ObserveConfig, cores: &mut [Core], mem: &mut MemorySystem) -> Self {
        if cfg.trace {
            for core in cores.iter_mut() {
                core.enable_timeline(TIMELINE_INSTRUCTIONS);
            }
            mem.log_bus();
        }
        Observer {
            cfg,
            intervals: Vec::new(),
            window_start: 0,
            prev: vec![PrevCpu::default(); cores.len()],
            prev_bus_busy: 0,
            prev_bus_txns: 0,
        }
    }

    /// The configured sampling interval in cycles (0 disables interval
    /// metrics). The run loop caps every core's sleep at the next window
    /// boundary, so on a boundary cycle every unfinished core is stepped
    /// and its counters are current when the window is sampled.
    pub fn interval(&self) -> u64 {
        self.cfg.interval
    }

    /// Called on every cycle some core stepped on, after the cores stepped
    /// and before any is put to sleep (a sleep records its cycles ahead of
    /// time). Emits an interval sample whenever a window boundary passes.
    pub fn tick(&mut self, now: u64, cores: &[Core], mem: &MemorySystem) {
        if self.cfg.interval > 0 && (now + 1).is_multiple_of(self.cfg.interval) {
            self.sample(now + 1, cores, mem);
        }
    }

    /// Flushes a trailing partial window ending at `end` (the run's final
    /// cycle count).
    pub fn finish(&mut self, end: u64, cores: &[Core], mem: &MemorySystem) {
        if self.cfg.interval > 0 && end > self.window_start {
            self.sample(end, cores, mem);
        }
    }

    fn sample(&mut self, end: u64, cores: &[Core], mem: &MemorySystem) {
        let len = end - self.window_start;
        let mut cpus = Vec::with_capacity(cores.len());
        let mut committed_total = 0u64;
        for (i, core) in cores.iter().enumerate() {
            let committed_now = core.stats().committed.get();
            let stalls_now = stall_mix(core);
            let prev = &mut self.prev[i];
            let committed = committed_now - prev.committed;
            let mut stalls = [0u64; 7];
            for (s, (n, p)) in stalls
                .iter_mut()
                .zip(stalls_now.iter().zip(prev.stalls.iter()))
            {
                *s = n - p;
            }
            prev.committed = committed_now;
            prev.stalls = stalls_now;
            committed_total += committed;

            let snap = core.snapshot(end);
            let mshr = mem.mshr_levels(i);
            cpus.push(CpuInterval {
                committed,
                ipc: committed as f64 / len as f64,
                window_occ: snap.rob_len,
                rs_occ: snap.rs.iter().map(|r| r.occupancy).sum(),
                lq_occ: snap.loads_in_flight,
                sq_occ: snap.stores_in_flight,
                mshr_occ: [mshr[0].occupancy, mshr[1].occupancy, mshr[2].occupancy],
                stalls,
            });
        }
        let bus_busy_now = mem.bus().busy_cycles();
        let bus_txns_now = mem.bus().transactions();
        let bus_busy = bus_busy_now - self.prev_bus_busy;
        let bus_txns = bus_txns_now - self.prev_bus_txns;
        self.prev_bus_busy = bus_busy_now;
        self.prev_bus_txns = bus_txns_now;

        self.intervals.push(IntervalSample {
            start: self.window_start,
            end,
            committed: committed_total,
            ipc: committed_total as f64 / len as f64,
            bus_busy,
            bus_txns,
            bus_util: bus_busy as f64 / len as f64,
            cpus,
        });
        self.window_start = end;
    }

    /// Takes the bus transfers and timelines back from the model and
    /// assembles the run's [`RunObservation`].
    pub fn collect(self, cores: &[Core], mem: &mut MemorySystem) -> RunObservation {
        let timelines = cores
            .iter()
            .map(|c| {
                c.timeline()
                    .map(|t| t.entries().to_vec())
                    .unwrap_or_default()
            })
            .collect();

        RunObservation {
            bus: mem.take_bus_log(),
            intervals: self.intervals,
            timelines,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PerformanceModel, Run, SystemConfig};
    use s64v_workloads::{Suite, SuiteKind};

    #[test]
    fn observed_run_matches_plain_run_exactly() {
        let t = Suite::preset(SuiteKind::SpecInt95).programs()[0].generate(12_000, 5);
        let model = PerformanceModel::new(SystemConfig::sparc64_v());
        let plain = model.run(Run::of(&t));
        let (observed, obs) = model
            .execute(Run::of(&t).observed(ObserveConfig::default()))
            .unwrap();
        assert_eq!(plain.cycles, observed.cycles, "observation is read-only");
        assert_eq!(plain.committed, observed.committed);
        assert_eq!(
            format!("{:?}", plain.core_stats),
            format!("{:?}", observed.core_stats),
            "every counter must match the unobserved run"
        );
        assert!(!obs.bus.is_empty(), "bus transfers were recorded");
        assert!(!obs.intervals.is_empty(), "intervals were sampled");
        assert_eq!(obs.timelines[0].len(), TIMELINE_INSTRUCTIONS);
    }

    #[test]
    fn interval_windows_tile_the_run() {
        let t = Suite::preset(SuiteKind::SpecInt95).programs()[1].generate(20_000, 3);
        let model = PerformanceModel::new(SystemConfig::sparc64_v());
        let ocfg = ObserveConfig::metrics_only(2_000);
        let (r, obs) = model.execute(Run::of(&t).observed(ocfg)).unwrap();
        assert!(obs.bus.is_empty(), "metrics-only records no transfers");
        assert!(obs.timelines[0].is_empty(), "nor timelines");
        let ivs = &obs.intervals;
        assert!(ivs.len() >= 2, "run long enough for several windows");
        assert_eq!(ivs[0].start, 0);
        assert_eq!(ivs.last().unwrap().end, r.cycles);
        for w in ivs.windows(2) {
            assert_eq!(w[0].end, w[1].start, "windows are contiguous");
        }
        assert_eq!(
            ivs.iter().map(|s| s.committed).sum::<u64>(),
            r.committed,
            "window commits sum to the run total"
        );
        // The per-window stall mix partitions the window (the same
        // invariant the end-of-run CPI stack satisfies, windowed).
        for s in ivs {
            let blamed: u64 = s.cpus[0].stalls.iter().sum();
            assert_eq!(blamed, s.end - s.start, "window {}..{}", s.start, s.end);
        }
    }
}
