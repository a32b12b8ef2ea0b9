//! What a run reports: its verdict, its metrics, and the files it
//! leaves under `out/`.

use crate::api::Json;
use crate::expected::{mismatches, Facts, DEFAULT_SEED};
use crate::metrics::MetricDef;
use crate::span::{self, Tracer};
use crate::stats::{pct, Summary};
use crate::workloads::Workload;
use std::path::PathBuf;

/// The circumstances of one invocation.
pub struct RunInfo {
    pub workload: Workload,
    pub seed: u64,
    pub smoke: bool,
    pub trace: bool,
    pub nproc: usize,
    pub threads: usize,
    pub bench_dir: PathBuf,
    pub out_dir: PathBuf,
}

impl RunInfo {
    pub fn expected_path(&self) -> PathBuf {
        self.bench_dir
            .join("expected")
            .join(format!("{}.json", self.workload.name()))
    }

    /// `expected/` holds the default seed at full size; any other run
    /// is reported as unchecked against it.
    pub fn golden_applies(&self) -> bool {
        self.seed == DEFAULT_SEED && !self.smoke
    }
}

/// Whether the run's outputs were right.
#[derive(Debug, Default, Clone)]
pub struct Check {
    /// Points or evaluations attempted, over all timed repetitions.
    pub attempted: usize,
    /// Those that errored, wedged, timed out, were quarantined or came
    /// back missing.
    pub failed: usize,
    /// Statistics that differ from `expected/`; `None` = unchecked.
    pub stat_mismatches: Option<Vec<String>>,
    /// Cross-path identities that did not hold (repetition vs
    /// repetition, engine vs manual path, skip vs no-skip).
    pub broken_identities: Vec<String>,
    /// Why operations failed.
    pub notes: Vec<String>,
}

impl Check {
    pub fn note(&mut self, what: String) {
        if self.notes.len() < 20 {
            self.notes.push(what);
        }
    }

    pub fn broken(&mut self, what: String) {
        self.broken_identities.push(what);
    }

    /// Records an identity: `a` and `b` must be equal.
    pub fn same<T: PartialEq>(&mut self, a: &T, b: &T, what: impl FnOnce() -> String) {
        if a != b {
            self.broken(what());
        }
    }

    pub fn compare_golden(&mut self, golden: Option<&Facts>, actual: &Facts) {
        self.stat_mismatches = golden.map(|g| mismatches(g, actual));
    }

    pub fn correct(&self) -> bool {
        self.attempted >= 1
            && self.failed == 0
            && self.broken_identities.is_empty()
            && self.stat_mismatches.as_ref().is_none_or(Vec::is_empty)
    }
}

/// A metric's repetitions: every value, and their order statistics.
pub fn summary_json(values: &[f64], s: &Summary) -> Json {
    Json::obj()
        .field(
            "values",
            Json::Arr(values.iter().map(|v| Json::from(*v)).collect()),
        )
        .field("p10", s.p10)
        .field("median", s.median)
        .field("q1", s.q1)
        .field("q3", s.q3)
        .field("n", s.n)
        .field("iqr_over_median", s.spread())
}

fn strings(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::from(s.as_str())).collect())
}

fn spans_json(tracer: &Tracer) -> Json {
    let spans = tracer.spans();
    let own = span::self_times(spans);
    Json::Arr(
        spans
            .iter()
            .zip(own)
            .map(|(s, own)| {
                Json::obj()
                    .field("name", s.name)
                    .field("start_ns", s.start_ns)
                    .field("end_ns", s.end_ns)
                    .field("self_ns", own)
                    .field("parent", s.parent.map_or(Json::Null, Json::from))
                    .field(
                        "point",
                        if s.point == span::NO_POINT {
                            Json::Null
                        } else {
                            Json::from(s.point)
                        },
                    )
            })
            .collect(),
    )
}

fn ledger_json(tracer: &Tracer) -> Json {
    span::ledger(tracer.spans()).into_iter().fold(
        Json::obj(),
        |obj, (name, (calls, total, own))| {
            obj.field(
                name,
                Json::obj()
                    .field("calls", calls)
                    .field("total_ns", total)
                    .field("self_ns", own),
            )
        },
    )
}

/// Prints the run: one readable line per metric, then the result line.
/// Also writes `out/<workload>.json`, or `out/<workload>.trace.json`
/// with every span for a traced run. A declared metric without a value
/// makes the run malformed.
pub fn finish(
    info: &RunInfo,
    check: &Check,
    declared: &[MetricDef],
    values: &[(&str, f64)],
    detail: Json,
    tracer: Option<&Tracer>,
) -> Result<(), String> {
    let mut metrics = Json::obj();
    for d in declared {
        let (_, v) = values
            .iter()
            .find(|(name, _)| *name == d.name)
            .ok_or_else(|| format!("no value measured for {}", d.name))?;
        if !v.is_finite() {
            return Err(format!("{} measured as {v}", d.name));
        }
        println!("{:<36} {v:>18.6} {}", d.name, d.unit);
        metrics = metrics.field(d.name, Json::obj().field("value", *v).field("unit", d.unit));
    }
    let mismatch_count = check.stat_mismatches.as_ref().map(Vec::len);
    println!(
        "failed_ops_pct {:.3} % ({} of {}), stat_mismatches {}, broken identities {}",
        pct(check.failed as f64, check.attempted as f64),
        check.failed,
        check.attempted,
        mismatch_count.map_or("unchecked".to_string(), |n| n.to_string()),
        check.broken_identities.len(),
    );
    for line in check
        .broken_identities
        .iter()
        .chain(check.stat_mismatches.iter().flatten().take(10))
        .chain(&check.notes)
    {
        println!("  ! {line}");
    }

    let result = Json::obj()
        .field("correct", check.correct())
        .field("attempted", check.attempted.max(1))
        .field("failed", check.failed)
        .field("metrics", metrics);

    let mut doc = Json::obj()
        .field("workload", info.workload.name())
        .field("seed", info.seed)
        .field("smoke", info.smoke)
        .field("traced", info.trace)
        .field("nproc", info.nproc)
        .field("threads", info.threads)
        .field("result", result.clone())
        .field(
            "failed_ops",
            Json::obj()
                .field("failed", check.failed)
                .field("attempted", check.attempted)
                .field("pct", pct(check.failed as f64, check.attempted as f64)),
        )
        .field(
            "stat_mismatches",
            match &check.stat_mismatches {
                None => Json::from("unchecked"),
                Some(names) => Json::obj()
                    .field("count", names.len())
                    .field("names", strings(names)),
            },
        )
        .field("broken_identities", strings(&check.broken_identities))
        .field("notes", strings(&check.notes))
        .field("detail", detail);
    if let Some(t) = tracer {
        doc = doc
            .field("ledger", ledger_json(t))
            .field("spans", spans_json(t));
    }
    let suffix = if info.trace { "trace.json" } else { "json" };
    let path = info
        .out_dir
        .join(format!("{}.{suffix}", info.workload.name()));
    std::fs::write(&path, format!("{doc:#}\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    println!("{result}");
    Ok(())
}

/// Makes `own_peak_rss_mb` a property of the workload, not of the heap's
/// layout: every block of 1 MB or more gets a mapping of its own.
///
/// Left alone, glibc raises its mapping threshold to the size of the
/// first mapped block it frees (up to 32 MB) and serves later blocks of
/// that size from the heap. A trace buffer of `up_cpu_bound` (29 MB)
/// growing there is copied whenever the heap cannot extend it in place,
/// old and new both resident, and whether that happens turns on where a
/// few small blocks landed: identical runs read 111.6 or 125.5 MB. A
/// mapped block grows by `mremap`, which copies nothing. Call before the
/// first large allocation.
pub fn map_large_blocks() {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only stores the value in the allocator's
        // parameters; setting this one also stops the threshold moving.
        unsafe { mallopt(M_MMAP_THRESHOLD, 1 << 20) };
    }
}

/// This process's resident-set high-water mark.
pub fn own_peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The largest resident set among the children this process waited
/// for, from `getrusage(RUSAGE_CHILDREN)`.
pub fn children_peak_rss_mb() -> Result<f64, String> {
    // Linux `struct rusage`: two timevals, then fourteen longs of which
    // `ru_maxrss` (kilobytes) is the first.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss_kb: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the size and layout
    // of the C library's `struct rusage` on 64-bit Linux (144 bytes of
    // 8-byte fields), which is all `getrusage` requires of its argument.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return Err(format!("getrusage: {}", std::io::Error::last_os_error()));
    }
    Ok(usage.maxrss_kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_needs_every_part() {
        let ok = Check {
            attempted: 4,
            ..Check::default()
        };
        assert!(ok.correct(), "unchecked statistics do not fail a run");
        assert!(!Check::default().correct(), "nothing attempted");

        let mut failed = ok.clone();
        failed.failed = 1;
        assert!(!failed.correct());

        let mut mismatched = ok.clone();
        let want: Facts = [("a".to_string(), 1)].into();
        let got: Facts = [("a".to_string(), 2)].into();
        mismatched.compare_golden(Some(&want), &got);
        assert_eq!(mismatched.stat_mismatches.as_ref().unwrap().len(), 1);
        assert!(!mismatched.correct());

        let mut matched = ok.clone();
        matched.compare_golden(Some(&want), &want);
        assert!(matched.correct());

        let mut broken = ok;
        broken.same(&1, &2, || "engine vs manual".into());
        broken.same(&1, &1, || unreachable!());
        assert_eq!(broken.broken_identities, vec!["engine vs manual"]);
        assert!(!broken.correct());
    }

    #[test]
    fn own_rss_is_positive() {
        assert!(own_peak_rss_mb().unwrap() > 0.0);
        assert!(children_peak_rss_mb().unwrap() >= 0.0);
    }
}
