//! The sampled-simulation accuracy-validation harness.
//!
//! Sampled simulation is only trustworthy with measured error bars, so
//! the sampling engine ships with its own validation suite (the paper
//! validates its model against a reference machine the same way in
//! Fig 19). This module runs a sampled-vs-full-detail A/B on every
//! uniprocessor figure workload:
//!
//! * the **full-detail reference** is the workload's ordinary
//!   [`WorkUnit::Program`] point — functionally warmed, then every timed
//!   record simulated in detail;
//! * the **sampled estimate** runs the [`SamplePlan`]'s detailed windows
//!   over the *same* timed region of the *same* trace, each window an
//!   independent [`WorkUnit::SampledWindow`] point (fingerprinted,
//!   cached and scheduled like any other point);
//! * per-window IPC values aggregate through
//!   [`s64v_stats::SampleStats`] into a mean, a standard error and a
//!   95% confidence interval.
//!
//! The gate fails a workload when any of these holds:
//!
//! 1. the sampled mean IPC departs from the full-detail IPC by more
//!    than the tolerance (default 2%),
//! 2. the reported confidence interval does not cover the full-detail
//!    value (a tight interval away from the truth means *bias* —
//!    usually insufficient warm-up — not bad luck),
//! 3. the aggregated per-window CPI stacks do not conserve the
//!    aggregated core cycles (accounting corruption).
//!
//! `campaign validate` drives this end to end and the
//! `sampling_accuracy` figure renders it inside ordinary figure runs;
//! both exit nonzero when the gate fails.

use crate::figures::{Page, PointStore, UP_SUITES};
use crate::perf::merged_stack;
use crate::spec::{HarnessOpts, PointMetrics, SimPoint, WorkUnit};
use s64v_core::{program_seed, SystemConfig};
use s64v_observe::json::Value;
use s64v_stats::{SampleStats, Table, Z95};
use s64v_trace::SamplePlan;
use s64v_workloads::{Suite, SuiteKind};

/// Default relative-error tolerance of the gate (2%, the paper's own
/// model-vs-machine headline from Fig 19).
pub const DEFAULT_TOLERANCE: f64 = 0.02;

/// Shape of the sampling plan used for validation (`campaign validate`
/// sets the fields with `--windows`, `--window` and `--sample-warmup`).
///
/// [`SampleOpts::for_sizes`] is the *validation geometry*: windows tile
/// the timed region (window = period, so every timed record is simulated
/// by some window and the estimator has zero sampling variance — residual
/// error is window-boundary ramp only) and the warm-up reaches back past
/// the start of the trace, so each window's caches, TLBs and branch
/// predictors carry exactly the history the full-detail run had
/// (SMARTS-style full functional warming; this model's workloads do not
/// saturate cache state short of their full history, so bounded warm-up
/// is measurably biased — the `--under-warm` control demonstrates the
/// gate catching exactly that). Sparse plans (window ≪ period, bounded
/// warm-up) trade coverage for speed on long traces and report their
/// honest confidence intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleOpts {
    /// Target number of detailed windows over the timed region.
    pub windows: usize,
    /// Records per detailed window.
    pub window: usize,
    /// Functionally-replayed records immediately before each window.
    pub warmup: usize,
}

impl SampleOpts {
    /// The default plan shape for the harness run sizes `o`: ten windows
    /// of `max(records / 10, 2000)` records, each warmed from record 0.
    pub fn for_sizes(o: &HarnessOpts) -> Self {
        let windows = 10;
        SampleOpts {
            windows,
            window: (o.records / windows).max(2_000),
            // Reaches past record 0 from every window start: full
            // functional warming, the unbiased (and checkpoint-free)
            // SMARTS regime. See the type docs for why bounded warm-up
            // is not the default.
            warmup: o.warmup + o.records,
        }
    }

    /// The concrete plan over a timed region of `o.records` records.
    pub fn plan(&self, o: &HarnessOpts) -> SamplePlan {
        let period = (o.records / self.windows).max(self.window) as u64;
        SamplePlan::new(period, self.window as u64, self.warmup as u64, o.seed)
    }
}

/// Every uniprocessor figure workload, as `(suite, program index)` in
/// reporting order. (The lock-stepped SMP TPC-C model is excluded:
/// sampled windows are a uniprocessor mode, matching
/// [`SimPoint::window`].)
pub fn validate_workloads() -> Vec<(SuiteKind, usize)> {
    UP_SUITES
        .iter()
        .flat_map(|&kind| (0..Suite::preset(kind).programs().len()).map(move |index| (kind, index)))
        .collect()
}

fn workload_seed(kind: SuiteKind, index: usize, o: &HarnessOpts) -> u64 {
    program_seed(o.seed, Suite::preset(kind).programs()[index].name())
}

/// The workload's full-detail reference point — identical to the point
/// a figure's suite row builds for the base configuration,
/// so validation campaigns share cache entries with ordinary figures.
pub fn full_point(kind: SuiteKind, index: usize, o: &HarnessOpts) -> SimPoint {
    SimPoint {
        config: SystemConfig::sparc64_v(),
        work: WorkUnit::Program { suite: kind, index },
        records: o.records,
        warmup: o.warmup,
        seed: workload_seed(kind, index, o),
    }
}

/// The workload's sampled-window points: the plan's full-size windows
/// over the trace's timed region `[o.warmup, o.warmup + o.records)`.
/// Truncated tail windows are dropped so every window carries equal
/// statistical weight.
pub fn sampled_points(
    kind: SuiteKind,
    index: usize,
    o: &HarnessOpts,
    s: &SampleOpts,
) -> Vec<SimPoint> {
    let plan = s.plan(o);
    let trace_len = o.warmup + o.records;
    plan.windows(o.records as u64)
        .into_iter()
        .filter(|&(_, len)| len == plan.window)
        .map(|(start, len)| SimPoint {
            config: SystemConfig::sparc64_v(),
            work: WorkUnit::SampledWindow {
                suite: kind,
                index,
                start: o.warmup + start as usize,
                len: len as usize,
            },
            records: trace_len,
            warmup: s.warmup,
            seed: workload_seed(kind, index, o),
        })
        .collect()
}

/// All points a validation run needs: every workload's full-detail
/// reference plus its sampled windows.
pub fn all_points(o: &HarnessOpts, s: &SampleOpts) -> Vec<SimPoint> {
    let mut pts = Vec::new();
    for (kind, index) in validate_workloads() {
        pts.push(full_point(kind, index, o));
        pts.extend(sampled_points(kind, index, o, s));
    }
    pts
}

/// One workload's A/B verdict material.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Workload label (`"SPECint95[0]"`).
    pub label: String,
    /// Full-detail reference metrics.
    pub full: PointMetrics,
    /// Per-window sampled metrics, in window order.
    pub windows: Vec<PointMetrics>,
    /// Sampled IPC estimate: the delta-method reciprocal of the mean
    /// per-window CPI (the ratio estimator for equal-size windows).
    pub ipc: SampleStats,
    /// Whether the aggregated per-window CPI stacks conserve the
    /// aggregated core cycles (`Err` text when they do not).
    pub conservation: Result<(), String>,
}

impl WorkloadReport {
    /// Relative IPC error of the sampled mean against full detail.
    pub fn error(&self) -> f64 {
        self.ipc.relative_error(self.full.ipc())
    }

    /// Whether the `z`-sigma interval covers the full-detail IPC.
    pub fn covered(&self, z: f64) -> bool {
        self.ipc.covers(self.full.ipc(), z)
    }

    /// The gate for this workload.
    pub fn passes(&self, tolerance: f64, z: f64) -> bool {
        self.conservation.is_ok() && self.error() <= tolerance && self.covered(z)
    }
}

/// The whole validation run's verdict.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// Relative-error tolerance of the gate.
    pub tolerance: f64,
    /// z-score of the coverage interval.
    pub z: f64,
    /// Per-workload verdicts, in workload order.
    pub workloads: Vec<WorkloadReport>,
}

impl ValidationReport {
    /// Whether every workload passed the gate.
    pub fn passed(&self) -> bool {
        self.workloads
            .iter()
            .all(|w| w.passes(self.tolerance, self.z))
    }

    /// The report as a render-ready table.
    pub fn table(&self) -> Table {
        let mut t = Table::with_headers(&[
            "workload", "n", "full IPC", "sampled", "err%", "stderr", "95% CI", "covers", "CPI",
            "verdict",
        ]);
        let mark = |ok: bool, yes: &str, no: &str| if ok { yes } else { no }.to_string();
        for w in &self.workloads {
            let (lo, hi) = w.ipc.ci(self.z);
            t.row(vec![
                w.label.clone(),
                w.ipc.n.to_string(),
                format!("{:.4}", w.full.ipc()),
                format!("{:.4}", w.ipc.mean),
                format!("{:.2}", w.error() * 100.0),
                format!("{:.4}", w.ipc.stderr),
                format!("[{lo:.4}, {hi:.4}]"),
                mark(w.covered(self.z), "yes", "NO"),
                mark(w.conservation.is_ok(), "ok", "BROKEN"),
                mark(w.passes(self.tolerance, self.z), "pass", "FAIL"),
            ]);
        }
        t
    }

    /// The report as deterministic JSON (no wall-clock content, so the
    /// CI smoke stage can diff it byte-for-byte against a golden).
    pub fn to_value(&self) -> Value {
        let workloads: Vec<Value> = self
            .workloads
            .iter()
            .map(|w| {
                let (lo, hi) = w.ipc.ci(self.z);
                Value::obj()
                    .field("label", w.label.as_str())
                    .field("windows", w.ipc.n)
                    .field("full_ipc", w.full.ipc())
                    .field("sampled_ipc", w.ipc.mean)
                    .field("stderr", w.ipc.stderr)
                    .field("ci", vec![Value::from(lo), Value::from(hi)])
                    .field("error", w.error())
                    .field("covered", w.covered(self.z))
                    .field("conserved", w.conservation.is_ok())
                    .field("pass", w.passes(self.tolerance, self.z))
            })
            .collect();
        Value::obj()
            .field("tolerance", self.tolerance)
            .field("z", self.z)
            .field("passed", self.passed())
            .field("workloads", workloads)
    }

    /// Failing workloads with their reasons, for error lines.
    pub fn failures(&self) -> Vec<String> {
        self.workloads
            .iter()
            .filter(|w| !w.passes(self.tolerance, self.z))
            .map(|w| {
                let mut reasons = Vec::new();
                if let Err(e) = &w.conservation {
                    reasons.push(format!("CPI conservation broken ({e})"));
                }
                if w.error() > self.tolerance {
                    reasons.push(format!(
                        "error {:.2}% > {:.2}%",
                        w.error() * 100.0,
                        self.tolerance * 100.0
                    ));
                }
                if !w.covered(self.z) {
                    let (lo, hi) = w.ipc.ci(self.z);
                    reasons.push(format!(
                        "CI [{lo:.4}, {hi:.4}] misses full-detail IPC {:.4}",
                        w.full.ipc()
                    ));
                }
                format!("{}: {}", w.label, reasons.join("; "))
            })
            .collect()
    }
}

/// Assembles the A/B report from a resolved point store. Fails when a
/// required point is missing (its simulation failed) or a workload has
/// no full-size windows at these run sizes.
pub fn assess(
    o: &HarnessOpts,
    s: &SampleOpts,
    tolerance: f64,
    z: f64,
    store: &PointStore,
) -> Result<ValidationReport, String> {
    let mut workloads = Vec::new();
    for (kind, index) in validate_workloads() {
        let full = store.get(&full_point(kind, index, o))?.clone();
        let points = sampled_points(kind, index, o, s);
        if points.is_empty() {
            return Err(format!(
                "{}[{index}]: no full-size sample windows fit {} timed records",
                kind.label(),
                o.records
            ));
        }
        let windows: Vec<PointMetrics> = points
            .iter()
            .map(|p| store.get(p).cloned())
            .collect::<Result<_, _>>()?;
        let cpi_values: Vec<f64> = windows
            .iter()
            .map(|m| m.cycles as f64 / m.committed.max(1) as f64)
            .collect();
        let conservation = merged_stack(&windows).map(|_| ());
        let cpi = SampleStats::from_values(&cpi_values).expect("at least one window");
        // Equal-size windows make mean per-window CPI the ratio
        // estimator (total cycles / total committed); IPC is its
        // delta-method reciprocal. Averaging per-window IPC directly
        // would be biased on any workload with phase behaviour.
        let ipc = cpi
            .reciprocal()
            .expect("windows simulate at least one cycle");
        workloads.push(WorkloadReport {
            label: format!("{}[{index}]", kind.label()),
            full,
            windows,
            ipc,
            conservation,
        });
    }
    Ok(ValidationReport {
        tolerance,
        z,
        workloads,
    })
}

/// [`assess`] at the 95% interval, with the A/B table put on `page` as
/// `sampling_accuracy`: what the figure of that name and `campaign
/// validate` both render.
pub fn assess_onto(
    page: &mut Page,
    o: &HarnessOpts,
    s: &SampleOpts,
    tolerance: f64,
    store: &PointStore,
) -> Result<ValidationReport, String> {
    let report = assess(o, s, tolerance, Z95, store)?;
    page.table("sampling_accuracy", &report.table());
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{Row, Seeds};

    fn smoke() -> (HarnessOpts, SampleOpts) {
        let o = HarnessOpts::smoke();
        (
            o,
            SampleOpts {
                windows: 4,
                window: 2_000,
                warmup: 2_000,
            },
        )
    }

    #[test]
    fn sampled_points_stay_inside_the_timed_region() {
        let (o, s) = smoke();
        for (kind, index) in validate_workloads() {
            let pts = sampled_points(kind, index, &o, &s);
            assert!(!pts.is_empty(), "{}[{index}] got no windows", kind.label());
            for p in &pts {
                let WorkUnit::SampledWindow { start, len, .. } = p.work else {
                    panic!("wrong work unit");
                };
                assert!(start >= o.warmup, "window starts in the steady warm-up");
                assert!(start + len <= o.warmup + o.records, "window past the trace");
                assert_eq!(len, s.window, "truncated window kept");
                assert_eq!(p.records, o.warmup + o.records);
                assert_eq!(p.warmup, s.warmup);
            }
        }
    }

    #[test]
    fn full_points_match_the_figure_suite_points() {
        // Sharing fingerprints with ordinary figures is the whole reason
        // validation reuses their cache entries.
        let o = HarnessOpts::smoke();
        let figure_pts =
            Row::Suite(SuiteKind::Tpcc).points(&SystemConfig::sparc64_v(), Seeds::PerProgram, &o);
        let ours = full_point(SuiteKind::Tpcc, 0, &o);
        assert_eq!(figure_pts[0].fingerprint(), ours.fingerprint());
    }

    #[test]
    fn gate_logic_flags_error_coverage_and_conservation() {
        let full = PointMetrics {
            cycles: 1_000,
            committed: 1_000,
            ..PointMetrics::default()
        };
        let window = |cycles: u64| PointMetrics {
            cycles,
            committed: 1_000,
            ..PointMetrics::default()
        };
        let report = |windows: Vec<PointMetrics>, conservation: Result<(), String>| {
            let ipc: Vec<f64> = windows.iter().map(PointMetrics::ipc).collect();
            WorkloadReport {
                label: "w".into(),
                full: full.clone(),
                windows,
                ipc: SampleStats::from_values(&ipc).unwrap(),
                conservation,
            }
        };

        // Unbiased, noisy: small error, interval covers.
        let good = report(vec![window(990), window(1_010), window(1_000)], Ok(()));
        assert!(good.passes(DEFAULT_TOLERANCE, Z95));

        // Biased: every window 10% slow — error trips AND the tight
        // interval misses the truth.
        let biased = report(vec![window(1_100), window(1_101), window(1_099)], Ok(()));
        assert!(biased.error() > DEFAULT_TOLERANCE);
        assert!(!biased.covered(Z95));
        assert!(!biased.passes(DEFAULT_TOLERANCE, Z95));

        // Broken accounting fails even with perfect numbers.
        let broken = report(vec![window(1_000), window(1_000)], Err("boom".into()));
        assert!(!broken.passes(DEFAULT_TOLERANCE, Z95));

        let r = ValidationReport {
            tolerance: DEFAULT_TOLERANCE,
            z: Z95,
            workloads: vec![good, biased],
        };
        assert!(!r.passed());
        let failures = r.failures();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("error"), "{}", failures[0]);
    }

    #[test]
    fn report_json_is_deterministic_and_complete() {
        let w = WorkloadReport {
            label: "TPC-C[0]".into(),
            full: PointMetrics {
                cycles: 100,
                committed: 80,
                ..PointMetrics::default()
            },
            windows: vec![],
            ipc: SampleStats::from_values(&[0.8, 0.82]).unwrap(),
            conservation: Ok(()),
        };
        let r = ValidationReport {
            tolerance: DEFAULT_TOLERANCE,
            z: Z95,
            workloads: vec![w],
        };
        let a = format!("{:#}", r.to_value());
        let b = format!("{:#}", r.to_value());
        assert_eq!(a, b);
        for key in ["tolerance", "passed", "full_ipc", "stderr", "ci", "covered"] {
            assert!(a.contains(key), "missing {key} in {a}");
        }
    }
}
