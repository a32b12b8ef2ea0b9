//! Campaign specifications: what to simulate.
//!
//! A campaign is a list of [`SimPoint`]s — independent simulations of one
//! configuration against one trace — plus execution options. Points are
//! the engine's unit of parallelism, caching and failure isolation;
//! figures are assembled *from* point results by the render layer
//! ([`crate::figures`]), never inside the engine.

use crate::supervise::SupervisePolicy;
use s64v_core::fingerprint::{Fingerprint, StableHasher};
use s64v_core::SystemConfig;
use s64v_workloads::SuiteKind;
use std::path::PathBuf;
use std::time::Duration;

/// Run sizes for a harness invocation. The `campaign` binary reads them
/// from the environment ([`HarnessOpts::from_env`]); these six variables
/// and `S64V_RESULTS_DIR` (see [`crate::figures::Page::publish`]) are the
/// only ones it reads — engine options are flags.
///
/// | variable | meaning | default |
/// |---|---|---|
/// | `S64V_RECORDS` | timed records per program | 150000 |
/// | `S64V_WARMUP` | warm-up records per program | 2000000 |
/// | `S64V_SMP_CPUS` | CPUs in the TPC-C SMP model | 16 |
/// | `S64V_SMP_RECORDS` | timed records per CPU (SMP) | 60000 |
/// | `S64V_SMP_WARMUP` | warm-up records per CPU (SMP) | 600000 |
/// | `S64V_SEED` | base RNG seed | 42 |
#[derive(Debug, Clone, Copy)]
pub struct HarnessOpts {
    /// Timed records per uniprocessor program.
    pub records: usize,
    /// Warm-up records per uniprocessor program.
    pub warmup: usize,
    /// CPUs in the TPC-C SMP model.
    pub smp_cpus: usize,
    /// Timed records per CPU in the SMP model.
    pub smp_records: usize,
    /// Warm-up records per CPU in the SMP model.
    pub smp_warmup: usize,
    /// Base seed.
    pub seed: u64,
}

/// `name`'s value when set, `default` when not; a value that is not a
/// number of at least `min` is an error naming the variable, never a
/// silent default.
fn env_number<T>(name: &str, default: T, min: T) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + std::fmt::Display,
{
    let Some(value) = std::env::var_os(name) else {
        return Ok(default);
    };
    let number = value.to_str().and_then(|v| v.parse().ok());
    number
        .filter(|n| *n >= min)
        .ok_or_else(|| format!("{name}={value:?} is not an integer of at least {min}"))
}

impl HarnessOpts {
    /// The default sizes overridden by whichever variables are set (see
    /// the type docs). `Err` names a variable whose value is malformed.
    pub fn from_env() -> Result<Self, String> {
        let d = HarnessOpts::default();
        // The SMP model needs a CPU and a record to time. `S64V_RECORDS=0`
        // is not rejected with them: the repo benchmark's own test runs a
        // campaign at that size to see every point fail.
        Ok(HarnessOpts {
            records: env_number("S64V_RECORDS", d.records, 0)?,
            warmup: env_number("S64V_WARMUP", d.warmup, 0)?,
            smp_cpus: env_number("S64V_SMP_CPUS", d.smp_cpus, 1)?,
            smp_records: env_number("S64V_SMP_RECORDS", d.smp_records, 1)?,
            smp_warmup: env_number("S64V_SMP_WARMUP", d.smp_warmup, 0)?,
            seed: env_number("S64V_SEED", d.seed, 0)?,
        })
    }

    /// Small sizes for smoke tests.
    pub fn smoke() -> Self {
        HarnessOpts {
            records: 8_000,
            warmup: 40_000,
            smp_cpus: 2,
            smp_records: 4_000,
            smp_warmup: 20_000,
            seed: 42,
        }
    }
}

/// The evaluation's sizes (EXPERIMENTS.md).
impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            records: 150_000,
            warmup: 2_000_000,
            smp_cpus: 16,
            smp_records: 60_000,
            smp_warmup: 600_000,
            seed: 42,
        }
    }
}

/// The trace a point runs (the configuration lives in
/// [`SimPoint::config`]).
#[derive(Debug, Clone, PartialEq)]
pub enum WorkUnit {
    /// One uniprocessor program trace through the full model.
    Program {
        /// Suite the program belongs to.
        suite: SuiteKind,
        /// Index within the suite's program list.
        index: usize,
    },
    /// The lock-stepped SMP TPC-C model; the CPU count comes from the
    /// point's `config.cpus`.
    SmpTpcc,
    /// One program through *both* the detailed model and the scalar
    /// reference machine (the §2.2 verification loop); the metrics carry
    /// the reference cycles and the equal-work verdict.
    Verify {
        /// Suite the program belongs to.
        suite: SuiteKind,
        /// Index within the suite's program list.
        index: usize,
    },
    /// One detailed window of a sampled (SMARTS-style) uniprocessor run:
    /// the point generates the program's full trace (the point's
    /// `records` is the *trace length*), functionally fast-forwards the
    /// `warmup` records before `start`, then times `[start, start+len)`.
    /// Windows of one plan are ordinary independent points — fingerprinted,
    /// cached and scheduled across the worker pool like any other.
    SampledWindow {
        /// Suite the program belongs to.
        suite: SuiteKind,
        /// Index within the suite's program list.
        index: usize,
        /// First timed record of the window.
        start: usize,
        /// Timed records in the window.
        len: usize,
    },
}

/// One simulation: a configuration, a trace, and its lengths.
///
/// `seed` is the *exact* trace-generation seed. Suite-style figures
/// derive it per program with [`s64v_core::program_seed`]; studies that
/// feed one program several raw seeds (the stability study) pass them
/// through unchanged. Keeping the derivation out of the engine makes a
/// point's identity fully explicit — two points are the same simulation
/// exactly when their fingerprints match.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPoint {
    /// Full system configuration.
    pub config: SystemConfig,
    /// What to simulate on it.
    pub work: WorkUnit,
    /// Timed records (per CPU for [`WorkUnit::SmpTpcc`]).
    pub records: usize,
    /// Warm-up records preceding the timed window.
    pub warmup: usize,
    /// Exact trace-generation seed.
    pub seed: u64,
}

impl SimPoint {
    /// The point's content-addressed identity: a stable hash of the full
    /// configuration (via its `Debug` encoding, so every field counts),
    /// the work unit, the lengths, the seed, and the model version
    /// (seeded into every [`StableHasher`]).
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = StableHasher::new();
        h.write_debug(&self.config);
        h.write_debug(&self.work);
        h.write_u64(self.records as u64);
        h.write_u64(self.warmup as u64);
        h.write_u64(self.seed);
        h.finish()
    }

    /// The trace records `(start, len)` a uniprocessor point times in
    /// detail, after functionally warming `[start − warmup, start)`: a
    /// program point is the window `[warmup, warmup + records)` of its
    /// trace, a sampled window any other. `None` for the SMP and
    /// verification points, which run on machines of their own.
    pub fn window(&self) -> Option<(usize, usize)> {
        match self.work {
            WorkUnit::Program { .. } => Some((self.warmup, self.records)),
            WorkUnit::SampledWindow { start, len, .. } => Some((start, len)),
            WorkUnit::SmpTpcc | WorkUnit::Verify { .. } => None,
        }
    }

    /// A short human-readable label for progress lines and the journal.
    pub fn label(&self) -> String {
        match &self.work {
            WorkUnit::Program { suite, index } => {
                format!("{}[{}] seed={:#x}", suite.label(), index, self.seed)
            }
            WorkUnit::SmpTpcc => format!("tpcc-smp({}P) seed={:#x}", self.config.cpus, self.seed),
            WorkUnit::Verify { suite, index } => {
                format!("verify:{}[{}] seed={:#x}", suite.label(), index, self.seed)
            }
            WorkUnit::SampledWindow {
                suite,
                index,
                start,
                len,
            } => format!(
                "{}[{}] w[{}+{}] seed={:#x}",
                suite.label(),
                index,
                start,
                len,
                self.seed
            ),
        }
    }
}

/// Everything one point measures, flattened for the on-disk cache.
///
/// Ratios are stored as exact (numerator, denominator) pairs so suite
/// aggregation after a cache hit merges them identically to a fresh run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PointMetrics {
    /// Cycles until the last CPU drained.
    pub cycles: u64,
    /// Instructions committed across all CPUs.
    pub committed: u64,
    /// L1 instruction cache (misses, accesses).
    pub l1i: (u64, u64),
    /// L1 operand cache (misses, accesses).
    pub l1d: (u64, u64),
    /// L2 over all requests including prefetches (misses, accesses).
    pub l2_all: (u64, u64),
    /// L2 over demand requests only (misses, accesses).
    pub l2_demand: (u64, u64),
    /// Conditional branches (mispredicts, predictions).
    pub mispredict: (u64, u64),
    /// Prefetch requests issued.
    pub prefetches: u64,
    /// Cache-to-cache move-out transfers received.
    pub move_outs: u64,
    /// Cycles the system bus was occupied.
    pub bus_busy_cycles: u64,
    /// System bus transactions.
    pub bus_transactions: u64,
    /// Mean load-to-data latency in cycles, weighted by loads.
    pub mean_load_latency: f64,
    /// Zero-commit-cycle blame in `StallCycles` order: busy, l2-miss,
    /// l1-miss, execute, dispatch, frontend-branch, frontend-fetch.
    pub stalls: [u64; 7],
    /// Top-down CPI stack in [`s64v_core::CpiLeaf`] cell order, summed
    /// across CPUs. Each core's stack conserves its cycle count, so these
    /// cells sum to total *core* cycles (`cycles` × CPUs for lock-stepped
    /// SMP, not wall-clock `cycles`).
    pub cpi: [u64; 16],
    /// Reference-machine cycles ([`WorkUnit::Verify`] points; else 0).
    pub reference_cycles: u64,
    /// Whether model and reference did identical architectural work
    /// ([`WorkUnit::Verify`] points; else `true`).
    pub same_work: bool,
}

impl PointMetrics {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Total core cycles attributed by the CPI stack (equals wall-clock
    /// `cycles` on a uniprocessor, `cycles` × CPUs on lock-stepped SMP).
    pub fn cpi_core_cycles(&self) -> u64 {
        self.cpi.iter().sum()
    }

    /// Bus utilization over the run.
    pub fn bus_utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.bus_busy_cycles as f64 / self.cycles as f64
        }
    }
}

/// What the engine records beyond metrics (see `s64v-observe`).
///
/// Observation never enters a point's fingerprint: the recorders and the
/// sampler are read-only, so an observed point produces byte-identical
/// [`PointMetrics`] (and therefore byte-identical cache entries) to an
/// unobserved one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObservePlan {
    /// Label substrings selecting points for tracing. A matching point
    /// records instruction timelines and bus transfers and exports `<fp>.trace.json` (Perfetto) and `<fp>.pipeline.txt`
    /// (ASCII pipeline diagram) next to its cache entry.
    pub trace_matches: Vec<String>,
    /// Record interval metrics (at [`s64v_core::ObserveConfig`]'s default
    /// period) for every simulated point and export them as
    /// `<fp>.metrics.jsonl` next to the cache entry.
    pub metrics: bool,
}

impl ObservePlan {
    /// Whether a point with this label is traced.
    pub fn wants_trace(&self, label: &str) -> bool {
        self.trace_matches.iter().any(|m| label.contains(m))
    }
}

/// A declarative campaign: named points plus execution options.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Campaign name (journal/report headers).
    pub name: String,
    /// The simulations to run. Order is preserved in the results.
    pub points: Vec<SimPoint>,
    /// Worker threads (`None` = available parallelism).
    pub threads: Option<usize>,
    /// Result-cache directory (`None` = no cache, no journal).
    pub cache_dir: Option<PathBuf>,
    /// Run every point with the invariant auditor on (see
    /// [`s64v_core::integrity`]). Checked mode never perturbs results —
    /// a clean checked run produces byte-identical metrics — so cached
    /// entries are shared freely between checked and unchecked runs, and
    /// the flag stays out of the point fingerprint.
    pub checked: bool,
    /// Tracing/metrics recording (see [`ObservePlan`]). Observation is
    /// read-only, so it stays out of point fingerprints; traced points
    /// bypass cache *reads* (the artifacts require a live simulation) but
    /// still share cache *writes* with plain runs.
    pub observe: ObservePlan,
    /// Emit a [`crate::progress::ProgressEvent::Heartbeat`] at this
    /// period while points are running (`None` = no heartbeat).
    pub heartbeat: Option<Duration>,
    /// Per-point supervision: deadline, cycle budget, retry/quarantine
    /// policy (see [`SupervisePolicy`]). Supervision never changes what a
    /// healthy point computes, so it stays out of point fingerprints.
    pub supervise: SupervisePolicy,
}

impl CampaignSpec {
    /// A campaign with default execution options and no cache.
    pub fn new(name: impl Into<String>, points: Vec<SimPoint>) -> Self {
        CampaignSpec {
            name: name.into(),
            points,
            threads: None,
            cache_dir: None,
            checked: false,
            observe: ObservePlan::default(),
            heartbeat: Some(Duration::from_secs(10)),
            supervise: SupervisePolicy::default(),
        }
    }

    /// Sets the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets the heartbeat period (`None` silences the heartbeat).
    pub fn with_heartbeat(mut self, period: Option<Duration>) -> Self {
        self.heartbeat = period;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point() -> SimPoint {
        SimPoint {
            config: SystemConfig::sparc64_v(),
            work: WorkUnit::Program {
                suite: SuiteKind::SpecInt95,
                index: 0,
            },
            records: 1_000,
            warmup: 500,
            seed: 7,
        }
    }

    #[test]
    fn fingerprints_are_stable_and_sensitive() {
        let p = point();
        assert_eq!(p.fingerprint(), point().fingerprint());

        let mut other = point();
        other.seed = 8;
        assert_ne!(p.fingerprint(), other.fingerprint());

        let mut other = point();
        other.records = 1_001;
        assert_ne!(p.fingerprint(), other.fingerprint());

        let mut other = point();
        other.work = WorkUnit::SmpTpcc;
        assert_ne!(p.fingerprint(), other.fingerprint());

        let mut other = point();
        other.config.core.issue_width = 2;
        assert_ne!(p.fingerprint(), other.fingerprint());
    }

    #[test]
    fn labels_name_the_work() {
        assert!(point().label().contains("SPECint95[0]"));
        let mut p = point();
        p.work = WorkUnit::SmpTpcc;
        assert!(p.label().contains("tpcc-smp(1P)"));
        p.work = WorkUnit::SampledWindow {
            suite: SuiteKind::Tpcc,
            index: 0,
            start: 5_000,
            len: 250,
        };
        assert!(p.label().contains("w[5000+250]"), "{}", p.label());
    }

    #[test]
    fn sampled_window_fingerprints_are_window_sensitive() {
        let window = |start: usize, len: usize| {
            let mut p = point();
            p.work = WorkUnit::SampledWindow {
                suite: SuiteKind::SpecInt95,
                index: 0,
                start,
                len,
            };
            p
        };
        let a = window(100, 50);
        assert_eq!(a.fingerprint(), window(100, 50).fingerprint());
        assert_ne!(a.fingerprint(), window(150, 50).fingerprint());
        assert_ne!(a.fingerprint(), window(100, 51).fingerprint());
        assert_ne!(a.fingerprint(), point().fingerprint());
    }
}
