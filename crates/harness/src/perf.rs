//! The performance-regression observatory: `.cpi.json` artifacts,
//! `.fail.json` failure records and the `campaign perf` diff mode.
//!
//! Every successfully simulated point leaves a PMU-style top-down CPI
//! artifact (`<fingerprint>.cpi.json`) next to its cache entry, and every
//! point whose last attempt failed a failure record
//! (`<fingerprint>.fail.json`); this module renders both, loads them back
//! from either source shape — a single artifact or a whole cache
//! directory — and diffs two sources, attributing every
//! cycles-per-instruction delta to the blame taxonomy (see
//! [`s64v_observe::cpi`]): "TPC-C regressed 8%: +6% backend-memory/dram,
//! +2% bad-speculation/replay".
//!
//! Attribution is exact, not heuristic: each core's stack conserves its
//! cycle count, so per-leaf CPI deltas sum to the total CPI delta to
//! within floating-point rounding.

use crate::spec::PointMetrics;
use s64v_core::fingerprint::Fingerprint;
use s64v_core::SimError;
use s64v_observe::json::Value;
use s64v_observe::{folded_stack, CpiGroup, CpiLeaf, CpiStack};
use s64v_stats::SampleStats;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------
// The `.cpi.json` artifact
// ---------------------------------------------------------------------

/// Renders one point's top-down CPI artifact. `cycles` is the run's
/// wall-clock cycle count; `core_cycles` the sum over per-core stacks
/// (equal on a uniprocessor, `cycles` × CPUs on lock-stepped SMP) — the
/// schema's conservation anchor: the 16 leaves sum to it exactly.
pub fn cpi_artifact(label: &str, fp: Fingerprint, m: &PointMetrics) -> String {
    let stack = CpiStack::from_cells(m.cpi);
    let totals = [m.cycles, m.cpi_core_cycles(), m.committed];
    format!("{:#}\n", artifact_doc(label, fp, totals, &stack))
}

/// The `.cpi.json` schema; `totals` is cycles, core cycles, committed.
fn artifact_doc(label: &str, fp: Fingerprint, totals: [u64; 3], stack: &CpiStack) -> Value {
    let mut groups = Value::obj();
    for g in CpiGroup::ALL {
        groups = groups.field(g.label(), stack.group_total(g));
    }
    Value::obj()
        .field("label", label)
        .field("fingerprint", fp.to_hex())
        .field("cycles", totals[0])
        .field("core_cycles", totals[1])
        .field("committed", totals[2])
        .field("leaves", stack.to_value())
        .field("groups", groups)
}

/// The windows' CPI stacks merged, with the core cycles they conserve.
/// Windows are uniprocessor runs, so each stack must conserve the
/// window's *simulated* cycles — checking against `cpi_core_cycles()`
/// (the cell sum itself) would be a tautology. `Err` when one does not.
pub fn merged_stack(windows: &[PointMetrics]) -> Result<(CpiStack, u64), String> {
    let stacks: Vec<(CpiStack, u64)> = windows
        .iter()
        .map(|m| (CpiStack::from_cells(m.cpi), m.cycles))
        .collect();
    CpiStack::aggregate(stacks.iter().map(|(s, c)| (s, *c)))
}

/// Renders the sampled-simulation aggregate artifact for one workload:
/// the standard `.cpi.json` schema built from the merged per-window
/// stacks — so `--check-artifact` and `campaign perf` accept it
/// unchanged — plus sampling extras (`windows`, per-window IPC `mean`/
/// `stderr`/`ci`). Fails when any window's own stack breaks
/// conservation; the merged stack then conserves the summed cycles by
/// construction.
pub fn sampled_cpi_artifact(
    label: &str,
    fp: Fingerprint,
    windows: &[PointMetrics],
    ipc: &SampleStats,
    z: f64,
) -> Result<String, String> {
    let (stack, core_cycles) = merged_stack(windows)?;
    let cycles: u64 = windows.iter().map(|m| m.cycles).sum();
    let committed: u64 = windows.iter().map(|m| m.committed).sum();
    let (lo, hi) = ipc.ci(z);
    let doc = artifact_doc(label, fp, [cycles, core_cycles, committed], &stack)
        .field("windows", windows.len())
        .field("ipc_mean", ipc.mean)
        .field("ipc_stderr", ipc.stderr)
        .field("ipc_ci", vec![Value::from(lo), Value::from(hi)]);
    Ok(format!("{doc:#}\n"))
}

/// Validates a `.cpi.json` document: every schema field present, all 16
/// leaves known, leaves summing exactly to `core_cycles`, and each group
/// total equal to the sum of its member leaves. The conservation check
/// is the point: an artifact whose leaves do not sum to its cycle count
/// was produced by (or damaged into) broken accounting.
pub fn validate_cpi_artifact(doc: &Value) -> Result<(), String> {
    doc.get("label")
        .and_then(Value::as_str)
        .ok_or("missing label")?;
    doc.get("fingerprint")
        .and_then(Value::as_str)
        .ok_or("missing fingerprint")?;
    let req_u64 = |key: &str| -> Result<u64, String> {
        doc.get(key)
            .and_then(Value::as_i64)
            .filter(|v| *v >= 0)
            .map(|v| v as u64)
            .ok_or_else(|| format!("missing or negative {key}"))
    };
    let core_cycles = req_u64("core_cycles")?;
    req_u64("cycles")?;
    req_u64("committed")?;
    let stack = CpiStack::from_value(doc.get("leaves").ok_or("missing leaves")?)?;
    if !stack.conserves(core_cycles) {
        return Err(format!(
            "leaves sum to {} but core_cycles is {core_cycles} — conservation broken",
            stack.total_text()
        ));
    }
    // The leaves sum to `core_cycles` without overflow, so no group sum
    // overflows either.
    let groups = doc.get("groups").ok_or("missing groups")?;
    for g in CpiGroup::ALL {
        let claimed = groups
            .get(g.label())
            .and_then(Value::as_i64)
            .filter(|v| *v >= 0)
            .ok_or_else(|| format!("missing or negative group {:?}", g.label()))?;
        if claimed as u64 != stack.group_total(g) {
            return Err(format!(
                "group {:?} claims {claimed} cycles but its leaves sum to {}",
                g.label(),
                stack.group_total(g)
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The `.fail.json` record
// ---------------------------------------------------------------------

/// Renders the failure record a point leaves when its attempt fails:
/// one JSON object with its `label` and `error`, followed, for a
/// structured [`SimError`], by that error's diagnostic dump fields
/// (cycle, core, component, message and the snapshots).
pub fn failure_record(label: &str, error: &str, sim: Option<&SimError>) -> String {
    let mut doc = Value::obj().field("label", label).field("error", error);
    let dump = sim.and_then(|e| Value::parse(&e.to_json()).ok());
    if let (Value::Obj(fields), Some(Value::Obj(extra))) = (&mut doc, dump) {
        fields.extend(extra);
    }
    format!("{doc:#}\n")
}

/// The label of a failure record, or why `text` is not one: a JSON
/// object whose `label` and `error` are strings. `None` is a bare
/// diagnostic dump written before failure records ([`SimError::to_json`]:
/// `component` and `message` but no `label` or `error`); no later success
/// removed it, so it says nothing about its point's last attempt.
pub fn failure_label(text: &str) -> Result<Option<String>, String> {
    let doc = Value::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let field = |key| doc.get(key).and_then(Value::as_str);
    let unlabelled = doc.get("label").is_none() && doc.get("error").is_none();
    if unlabelled && field("component").is_some() && field("message").is_some() {
        return Ok(None);
    }
    field("error").ok_or("missing error")?;
    let label = field("label").ok_or("missing label")?;
    Ok(Some(label.to_string()))
}

// ---------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------

/// One workload's aggregated top-down accounting within a source.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadPerf {
    /// Summed per-core cycles (the stack's conservation total).
    pub core_cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// The merged CPI stack.
    pub stack: CpiStack,
}

impl WorkloadPerf {
    /// Cycles per committed instruction.
    pub fn cpi(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.core_cycles as f64 / self.committed as f64
        }
    }
}

/// One side of a perf diff, loaded from disk.
#[derive(Debug, Clone, Default)]
pub struct PerfSource {
    /// Where it came from (diff headers).
    pub name: String,
    /// CPI-stack workloads keyed by point label. Points sharing a label
    /// (re-runs, per-program points of one suite sweep) are merged by
    /// summing — consistent on both sides of a diff of like campaigns.
    pub workloads: BTreeMap<String, WorkloadPerf>,
    /// Labels of points excluded from aggregation: those whose last
    /// attempt failed or timed out, one per failure record (cache-dir
    /// sources only).
    pub excluded: Vec<String>,
    /// Diagnostic dumps from before failure records, which name no
    /// point: skipped, neither excluded nor an error.
    pub skipped: Vec<PathBuf>,
}

impl PerfSource {
    /// Loads a source, dispatching on shape: a directory is a result
    /// cache (every `*.cpi.json` inside, plus its `*.fail.json` failure
    /// records as exclusions), a `*.cpi.json` file is a single point.
    pub fn load(path: &Path) -> Result<PerfSource, String> {
        let name = path.display().to_string();
        let ends = |p: &Path, ext: &str| p.to_string_lossy().ends_with(ext);
        let (mut artifacts, mut records) = (vec![path.to_path_buf()], Vec::new());
        if path.is_dir() {
            let entries = std::fs::read_dir(path).map_err(|e| format!("{name}: {e}"))?;
            let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
            paths.sort();
            (artifacts, records) = paths.into_iter().partition(|p| ends(p, ".cpi.json"));
            records.retain(|p| ends(p, ".fail.json"));
        } else if !ends(path, ".cpi.json") {
            return Err(format!(
                "{name}: not a cache directory or .cpi.json artifact"
            ));
        }
        let mut source = PerfSource {
            name: name.clone(),
            ..PerfSource::default()
        };
        let at = |p: &Path, e: String| format!("{}: {e}", p.display());
        let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| at(p, e.to_string()));
        for p in &artifacts {
            let doc = Value::parse(&read(p)?).map_err(|e| at(p, format!("invalid JSON: {e}")))?;
            source.absorb_artifact(&doc).map_err(|e| at(p, e))?;
        }
        if source.workloads.is_empty() {
            return Err(format!(
                "{name}: no .cpi.json artifacts (run the campaign with a cache directory first)"
            ));
        }
        // Every point whose last attempt failed or timed out left a
        // failure record, and a later success removed it again.
        for p in &records {
            match failure_label(&read(p)?).map_err(|e| at(p, e))? {
                Some(label) => source.excluded.push(label),
                None => source.skipped.push(p.clone()),
            }
        }
        Ok(source)
    }

    fn absorb_artifact(&mut self, doc: &Value) -> Result<(), String> {
        validate_cpi_artifact(doc)?;
        let label = doc.get("label").and_then(Value::as_str).expect("validated");
        let count = |key| doc.get(key).and_then(Value::as_i64).expect("validated") as u64;
        let (core_cycles, committed) = (count("core_cycles"), count("committed"));
        let stack = CpiStack::from_value(doc.get("leaves").expect("validated"))?;
        let w = self.workloads.entry(label.to_string()).or_default();
        let overflow = || format!("{label}: summed cycles or instructions overflow u64");
        w.stack.merge(&stack).map_err(|_| overflow())?;
        w.core_cycles = w
            .core_cycles
            .checked_add(core_cycles)
            .ok_or_else(overflow)?;
        w.committed = w.committed.checked_add(committed).ok_or_else(overflow)?;
        Ok(())
    }

    /// Flamegraph-compatible folded stacks for every workload
    /// (`workload;group;leaf cycles`, non-zero leaves only).
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (label, w) in &self.workloads {
            out.push_str(&folded_stack(label, &w.stack));
        }
        out
    }
}

// ---------------------------------------------------------------------
// The diff
// ---------------------------------------------------------------------

/// One workload's CPI delta, fully attributed to taxonomy leaves.
#[derive(Debug, Clone)]
pub struct WorkloadDelta {
    /// The workload label shared by both sources.
    pub name: String,
    /// Base-side cycles per instruction.
    pub base_cpi: f64,
    /// New-side cycles per instruction.
    pub new_cpi: f64,
    /// Relative CPI change in percent (positive = regressed).
    pub delta_pct: f64,
    /// Per-leaf contribution to `delta_pct`, in percentage points of
    /// base CPI, cell order. By conservation these sum to `delta_pct`.
    pub leaf_pct: [f64; s64v_observe::CPI_LEAVES],
}

impl WorkloadDelta {
    /// Contribution of one blame group, in percentage points.
    pub fn group_pct(&self, group: CpiGroup) -> f64 {
        CpiLeaf::ALL
            .into_iter()
            .filter(|l| l.group() == group)
            .map(|l| self.leaf_pct[l.index()])
            .sum()
    }

    /// The attribution sentence: leaf contributions over `min_pct`
    /// percentage points (absolute), largest magnitude first.
    pub fn attribution(&self, min_pct: f64) -> String {
        let mut parts: Vec<(f64, String)> = CpiLeaf::ALL
            .into_iter()
            .map(|l| (self.leaf_pct[l.index()], l.path()))
            .filter(|(pct, _)| pct.abs() >= min_pct)
            .collect();
        parts.sort_by(|a, b| {
            b.0.abs()
                .partial_cmp(&a.0.abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        if parts.is_empty() {
            return "no leaf moved materially".to_string();
        }
        parts
            .iter()
            .map(|(pct, path)| format!("{pct:+.1}% {path}"))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// One human line: "TPC-C(2P): CPI regressed 8.0% — +6.0%
    /// backend-memory/dram, +2.0% bad-speculation/replay".
    pub fn summary(&self) -> String {
        let verdict = if self.delta_pct > 0.0 {
            format!("CPI regressed {:+.1}%", self.delta_pct)
        } else {
            format!("CPI improved {:+.1}%", self.delta_pct)
        };
        format!("{}: {verdict} — {}", self.name, self.attribution(0.5))
    }
}

/// Everything `campaign perf` computed from two sources.
#[derive(Debug, Clone, Default)]
pub struct PerfDiff {
    /// Attributed per-workload CPI deltas (labels present in both).
    pub workloads: Vec<WorkloadDelta>,
    /// Workload labels present on only one side.
    pub unmatched: Vec<String>,
    /// Points excluded from aggregation on the base side.
    pub base_excluded: Vec<String>,
    /// Points excluded from aggregation on the new side.
    pub new_excluded: Vec<String>,
}

impl PerfDiff {
    /// Diffs two loaded sources.
    pub fn compute(base: &PerfSource, new: &PerfSource) -> PerfDiff {
        let mut diff = PerfDiff {
            base_excluded: base.excluded.clone(),
            new_excluded: new.excluded.clone(),
            ..PerfDiff::default()
        };
        for (label, b) in &base.workloads {
            let Some(n) = new.workloads.get(label) else {
                diff.unmatched.push(format!("{label} (base only)"));
                continue;
            };
            let (base_cpi, new_cpi) = (b.cpi(), n.cpi());
            if base_cpi == 0.0 {
                diff.unmatched.push(format!("{label} (no base cycles)"));
                continue;
            }
            let mut leaf_pct = [0.0; s64v_observe::CPI_LEAVES];
            for leaf in CpiLeaf::ALL {
                let b_leaf = b.stack.get(leaf) as f64 / b.committed.max(1) as f64;
                let n_leaf = n.stack.get(leaf) as f64 / n.committed.max(1) as f64;
                leaf_pct[leaf.index()] = (n_leaf - b_leaf) / base_cpi * 100.0;
            }
            diff.workloads.push(WorkloadDelta {
                name: label.clone(),
                base_cpi,
                new_cpi,
                delta_pct: (new_cpi - base_cpi) / base_cpi * 100.0,
                leaf_pct,
            });
        }
        for label in new.workloads.keys() {
            if !base.workloads.contains_key(label) {
                diff.unmatched.push(format!("{label} (new only)"));
            }
        }
        diff
    }

    /// The full human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.workloads.is_empty() {
            out.push_str("top-down CPI deltas (attributed):\n");
            for w in &self.workloads {
                out.push_str(&format!(
                    "  {:<40} {:>8.4} -> {:>8.4}  {:+.1}%\n",
                    w.name, w.base_cpi, w.new_cpi, w.delta_pct
                ));
                out.push_str(&format!("    {}\n", w.attribution(0.5)));
            }
        }
        for label in &self.unmatched {
            out.push_str(&format!("  unmatched: {label}\n"));
        }
        for (side, excluded) in [("base", &self.base_excluded), ("new", &self.new_excluded)] {
            if !excluded.is_empty() {
                out.push_str(&format!(
                    "  excluded from aggregation ({side}): {} point(s)\n",
                    excluded.len()
                ));
                for label in excluded {
                    out.push_str(&format!("    {label}\n"));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fp as fp;

    fn metrics(cycles: u64, committed: u64, cpi: [u64; 16]) -> PointMetrics {
        PointMetrics {
            cycles,
            committed,
            cpi,
            ..PointMetrics::default()
        }
    }

    fn stack(retire: u64, dram: u64) -> [u64; 16] {
        let mut cells = [0u64; 16];
        cells[CpiLeaf::Retire.index()] = retire;
        cells[CpiLeaf::MemDram.index()] = dram;
        cells
    }

    #[test]
    fn artifact_round_trips_and_validates() {
        let m = metrics(1_000, 800, stack(800, 200));
        let text = cpi_artifact("tpcc[0]", fp("a"), &m);
        let doc = Value::parse(&text).expect("valid JSON");
        validate_cpi_artifact(&doc).expect("conserves");
        assert_eq!(doc.get("core_cycles").and_then(Value::as_i64), Some(1_000));
        assert_eq!(
            doc.get("groups")
                .and_then(|g| g.get("backend-memory"))
                .and_then(Value::as_i64),
            Some(200)
        );
    }

    #[test]
    fn validator_rejects_broken_conservation_and_drifted_groups() {
        let m = metrics(1_000, 800, stack(800, 200));
        let text = cpi_artifact("tpcc[0]", fp("a"), &m);

        let leaked = text.replace("\"core_cycles\": 1000", "\"core_cycles\": 1001");
        let err = validate_cpi_artifact(&Value::parse(&leaked).unwrap()).unwrap_err();
        assert!(err.contains("conservation"), "got: {err}");

        let drifted = text.replace("\"backend-memory\": 200", "\"backend-memory\": 100");
        let err = validate_cpi_artifact(&Value::parse(&drifted).unwrap()).unwrap_err();
        assert!(err.contains("backend-memory"), "got: {err}");

        let err = validate_cpi_artifact(&Value::obj()).unwrap_err();
        assert!(err.contains("label"), "got: {err}");
    }

    #[test]
    fn leaves_summing_past_u64_are_rejected_not_wrapped() {
        // Three leaves at i64::MAX (the largest a JSON integer holds),
        // claiming the core_cycles their u64 sum wraps to.
        let max = i64::MAX as u64;
        let mut cells = [0u64; 16];
        for leaf in [CpiLeaf::Retire, CpiLeaf::MemDram, CpiLeaf::MemBus] {
            cells[leaf.index()] = max;
        }
        let doc = Value::obj()
            .field("label", "forged")
            .field("fingerprint", fp("o").to_hex())
            .field("cycles", 1u64)
            .field("core_cycles", max.wrapping_mul(3))
            .field("committed", 1u64)
            .field("leaves", CpiStack::from_cells(cells).to_value());
        assert_eq!(
            doc.get("core_cycles").and_then(Value::as_i64),
            Some(9_223_372_036_854_775_805)
        );
        let err = validate_cpi_artifact(&doc).unwrap_err();
        assert!(
            err.contains("leaves sum to more than u64::MAX"),
            "got: {err}"
        );
    }

    #[test]
    fn sources_whose_sums_overflow_fail_to_load() {
        let dir = std::env::temp_dir().join(format!("s64v-perf-overflow-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        // Each artifact is valid; three of one label sum past u64::MAX.
        let max = i64::MAX as u64;
        let m = metrics(max, 1, stack(max, 0));
        for tag in ["a", "b", "c"] {
            let text = cpi_artifact("int[0]", fp(tag), &m);
            std::fs::write(dir.join(format!("{tag}.cpi.json")), text).expect("write");
        }
        let err = PerfSource::load(&dir).expect_err("must not wrap");
        assert!(err.contains("int[0]: summed cycles"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sampled_artifact_validates_and_rejects_broken_windows() {
        let windows = [
            metrics(1_000, 800, stack(800, 200)),
            metrics(1_100, 800, stack(850, 250)),
        ];
        let ipc = SampleStats::from_values(&[0.8, 0.7273]).unwrap();
        let text =
            sampled_cpi_artifact("tpcc[0] sampled", fp("s"), &windows, &ipc, 1.96).expect("ok");
        let doc = Value::parse(&text).expect("valid JSON");
        // The aggregate speaks the standard schema: the strict validator
        // accepts it, extras and all.
        validate_cpi_artifact(&doc).expect("conserves");
        assert_eq!(doc.get("core_cycles").and_then(Value::as_i64), Some(2_100));
        assert_eq!(doc.get("windows").and_then(Value::as_i64), Some(2));
        assert!(doc.get("ipc_stderr").and_then(Value::as_f64).is_some());

        // One window with broken accounting poisons the aggregate.
        let broken = [metrics(1_000, 800, stack(800, 100))];
        let err = sampled_cpi_artifact("x", fp("s"), &broken, &ipc, 1.96).expect_err("must reject");
        assert!(err.contains("conservation"), "got: {err}");
    }

    #[test]
    fn diff_attributes_a_dram_regression_exactly() {
        let mut base = PerfSource::default();
        base.workloads.insert(
            "tpcc".into(),
            WorkloadPerf {
                core_cycles: 1_000,
                committed: 1_000,
                stack: CpiStack::from_cells(stack(800, 200)),
            },
        );
        let mut new = PerfSource::default();
        new.workloads.insert(
            "tpcc".into(),
            WorkloadPerf {
                core_cycles: 1_100,
                committed: 1_000,
                stack: CpiStack::from_cells(stack(800, 300)),
            },
        );
        let diff = PerfDiff::compute(&base, &new);
        assert_eq!(diff.workloads.len(), 1);
        let w = &diff.workloads[0];
        assert!((w.delta_pct - 10.0).abs() < 1e-9, "got {}", w.delta_pct);
        // The whole regression lands on backend-memory/dram, and the
        // leaf contributions sum to the total delta (conservation).
        assert!((w.leaf_pct[CpiLeaf::MemDram.index()] - 10.0).abs() < 1e-9);
        let sum: f64 = w.leaf_pct.iter().sum();
        assert!((sum - w.delta_pct).abs() < 1e-9);
        assert!((w.group_pct(CpiGroup::BackendMemory) - 10.0).abs() < 1e-9);
        assert!(
            w.summary().contains("backend-memory/dram"),
            "{}",
            w.summary()
        );
    }

    #[test]
    fn cache_dir_sources_merge_by_label_and_surface_exclusions() {
        let dir = std::env::temp_dir().join(format!("s64v-perf-src-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");

        // Two artifacts sharing a label merge; a third stands alone.
        let a = metrics(1_000, 900, stack(900, 100));
        let b = metrics(500, 450, stack(450, 50));
        let c = metrics(200, 100, stack(100, 100));
        for (tag, label, m) in [("a", "int[0]", &a), ("b", "int[0]", &b), ("c", "fp[1]", &c)] {
            std::fs::write(
                dir.join(format!("{}.cpi.json", fp(tag).to_hex())),
                cpi_artifact(label, fp(tag), m),
            )
            .expect("write artifact");
        }
        let source = PerfSource::load(&dir).expect("load");
        assert_eq!(source.workloads.len(), 2);
        let merged = &source.workloads["int[0]"];
        assert_eq!(merged.core_cycles, 1_500);
        assert_eq!(merged.committed, 1_350);
        assert_eq!(merged.stack.get(CpiLeaf::MemDram), 150);
        assert!(source.excluded.is_empty(), "no records, no exclusions");

        // Each failure record excludes the point it names.
        let record = failure_record("fp[2]", "cycle 9: watchdog: budget", None);
        assert_eq!(failure_label(&record), Ok(Some("fp[2]".to_string())));
        std::fs::write(dir.join(format!("{}.fail.json", fp("d"))), record).expect("write");
        assert_eq!(PerfSource::load(&dir).expect("load").excluded, ["fp[2]"]);

        // A bare diagnostic dump, as written before failure records, is
        // skipped rather than failing the whole directory.
        let dump = SimError::watchdog(9, "wedged").to_json();
        assert_eq!(failure_label(&dump), Ok(None));
        let legacy = dir.join(format!("{}.fail.json", fp("e")));
        std::fs::write(&legacy, dump).expect("write");
        let loaded = PerfSource::load(&dir).expect("load");
        assert_eq!(
            (loaded.excluded, loaded.skipped),
            (vec!["fp[2]".into()], vec![legacy])
        );
        let half = failure_record("fp[3]", "watchdog", None).replace("\"label\"", "\"name\"");
        assert_eq!(failure_label(&half), Err("missing label".to_string()));

        // Folded export is flamegraph-shaped and covers both workloads.
        let folded = source.folded();
        assert!(folded.contains("int[0];retire;retire 1350\n"), "{folded}");
        assert!(
            folded.contains("fp[1];backend-memory;dram 100\n"),
            "{folded}"
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_artifact_sources_load() {
        let dir = std::env::temp_dir().join(format!("s64v-perf-one-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("x.cpi.json");
        std::fs::write(
            &path,
            cpi_artifact("solo", fp("x"), &metrics(10, 5, stack(5, 5))),
        )
        .expect("write");
        let source = PerfSource::load(&path).expect("load");
        assert_eq!(source.workloads.len(), 1);
        assert!((source.workloads["solo"].cpi() - 2.0).abs() < 1e-9);
        std::fs::remove_dir_all(&dir).ok();
    }
}
