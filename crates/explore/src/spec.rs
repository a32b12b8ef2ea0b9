//! Exploration query specs: grammar, parsing and canonical encoding.
//!
//! A spec is written as one JSON object (parsed with the hand-rolled
//! [`s64v_observe::json`] module — the workspace builds offline):
//!
//! ```json
//! {
//!   "name": "rs-vs-window",
//!   "workload": {"suite": "SPECint95", "index": 0},
//!   "seed": 42,
//!   "screen": {"records": 2000, "warmup": 4000},
//!   "full":   {"records": 8000, "warmup": 16000},
//!   "knobs": [
//!     {"name": "rse_entries", "values": [4, 8, 12]},
//!     {"name": "window_size", "range": {"from": 16, "to": 64, "step": 16}}
//!   ],
//!   "objective": {"maximize": "ipc"},
//!   "constraints": [
//!     {"knob": "rse_entries", "max": 32},
//!     {"metric": "area_mm2", "max": 300.0}
//!   ],
//!   "search": {"eta": 3, "min_survivors": 4, "confidence_z": 2.0}
//! }
//! ```
//!
//! `knobs` axes expand row-major (first axis slowest) into the candidate
//! grid; every knob name must exist in the [`s64v_core::knobs`] registry.
//! `objective` takes exactly one of `maximize`/`minimize` naming a
//! [`Metric`]. Constraints bound either a knob value or a metric;
//! knob and area constraints prune *before* simulation, all others
//! filter the winner after full-length runs. The `search` block is
//! optional (defaults shown above). The workload index must name one of
//! the suite's programs, and the grid may hold at most
//! [`MAX_CANDIDATES`] candidates: its size is checked before any axis
//! is expanded.
//!
//! [`ExploreSpec::to_value`] re-encodes a parsed spec canonically —
//! fixed key order, defaults materialized — and
//! [`ExploreSpec::fingerprint`] hashes that encoding, giving every query
//! the same content-addressed identity scheme simulation points use.

use crate::search::Measurement;
use s64v_core::fingerprint::{Fingerprint, StableHasher};
use s64v_core::knobs;
use s64v_observe::json::Value;
use s64v_stats::RateEstimate;
use s64v_workloads::{Suite, SuiteKind};

/// The most candidates a query's grid may hold (every committed spec
/// has at most 100).
pub const MAX_CANDIDATES: u64 = 10_000;

/// A metric a query can optimize or constrain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Instructions per cycle (higher is better).
    Ipc,
    /// Cycles per instruction.
    Cpi,
    /// Modeled die area in mm² (static: no simulation needed).
    AreaMm2,
    /// System-bus transactions per kilo-instruction.
    BusPerKi,
    /// Fraction of cycles the system bus was busy.
    BusUtilization,
    /// Demand L2 miss ratio.
    L2MissRatio,
    /// L1 operand-cache miss ratio.
    L1dMissRatio,
    /// Conditional-branch misprediction ratio.
    MispredictRatio,
}

impl Metric {
    /// All metrics with their spec-grammar names.
    pub const ALL: [(Metric, &'static str); 8] = [
        (Metric::Ipc, "ipc"),
        (Metric::Cpi, "cpi"),
        (Metric::AreaMm2, "area_mm2"),
        (Metric::BusPerKi, "bus_per_ki"),
        (Metric::BusUtilization, "bus_utilization"),
        (Metric::L2MissRatio, "l2_miss_ratio"),
        (Metric::L1dMissRatio, "l1d_miss_ratio"),
        (Metric::MispredictRatio, "mispredict_ratio"),
    ];

    /// The spec-grammar name.
    pub fn name(self) -> &'static str {
        Metric::ALL
            .iter()
            .find(|(m, _)| *m == self)
            .expect("listed")
            .1
    }

    /// Parses a spec-grammar name.
    pub fn parse(name: &str) -> Option<Metric> {
        Metric::ALL
            .iter()
            .find(|(_, n)| *n == name)
            .map(|(m, _)| *m)
    }

    /// Whether the metric is a pure function of the configuration
    /// (usable for pruning before any simulation).
    pub fn is_static(self) -> bool {
        matches!(self, Metric::AreaMm2)
    }

    /// The metric's value over one measurement.
    pub fn value(self, m: &Measurement) -> f64 {
        let ratio = |(num, den): (u64, u64)| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        match self {
            Metric::Ipc => ratio((m.committed, m.cycles)),
            Metric::Cpi => ratio((m.cycles, m.committed)),
            Metric::AreaMm2 => m.area_mm2,
            Metric::BusPerKi => 1000.0 * ratio((m.bus_transactions, m.committed)),
            Metric::BusUtilization => ratio((m.bus_busy_cycles, m.cycles)),
            Metric::L2MissRatio => ratio(m.l2_demand),
            Metric::L1dMissRatio => ratio(m.l1d),
            Metric::MispredictRatio => ratio(m.mispredict),
        }
    }

    /// The metric as an event rate, for confidence-aware comparison of
    /// partial runs (`None` for static metrics, which carry no sampling
    /// noise).
    pub fn rate(self, m: &Measurement) -> Option<RateEstimate> {
        match self {
            Metric::Ipc => Some(RateEstimate::of(m.committed, m.cycles)),
            Metric::Cpi => Some(RateEstimate::of(m.cycles, m.committed)),
            Metric::AreaMm2 => None,
            Metric::BusPerKi => Some(RateEstimate::of(m.bus_transactions, m.committed)),
            Metric::BusUtilization => Some(RateEstimate::of(m.bus_busy_cycles, m.cycles)),
            Metric::L2MissRatio => Some(RateEstimate::of(m.l2_demand.0, m.l2_demand.1)),
            Metric::L1dMissRatio => Some(RateEstimate::of(m.l1d.0, m.l1d.1)),
            Metric::MispredictRatio => Some(RateEstimate::of(m.mispredict.0, m.mispredict.1)),
        }
    }
}

/// What a query optimizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objective {
    /// The metric being optimized.
    pub metric: Metric,
    /// `true` = maximize, `false` = minimize.
    pub maximize: bool,
}

impl Objective {
    /// A score where higher is always better (minimized metrics negate).
    pub fn score(&self, m: &Measurement) -> f64 {
        let v = self.metric.value(m);
        if self.maximize {
            v
        } else {
            -v
        }
    }
}

/// What a constraint bounds.
#[derive(Debug, Clone, PartialEq)]
pub enum Bound {
    /// A knob's grid value.
    Knob(String),
    /// A metric of the (full-length) measurement.
    Metric(Metric),
}

/// An inclusive bound on a knob or metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// What is bounded.
    pub on: Bound,
    /// Inclusive lower bound.
    pub min: Option<f64>,
    /// Inclusive upper bound.
    pub max: Option<f64>,
}

impl Constraint {
    /// Whether the constraint can be checked without simulating.
    pub fn is_static(&self) -> bool {
        match &self.on {
            Bound::Knob(_) => true,
            Bound::Metric(m) => m.is_static(),
        }
    }

    fn admits(&self, v: f64) -> bool {
        self.min.is_none_or(|lo| v >= lo) && self.max.is_none_or(|hi| v <= hi)
    }

    /// Checks a static constraint against a knob vector + static
    /// measurement fields (area). Dynamic constraints admit everything
    /// here; they are re-checked on full-length measurements.
    pub fn admits_static(&self, knobs: &[(String, u64)], area_mm2: f64) -> bool {
        match &self.on {
            Bound::Knob(name) => knobs
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| self.admits(*v as f64))
                // A constraint on a knob outside the grid admits all:
                // every candidate shares the base config's value.
                .unwrap_or(true),
            Bound::Metric(m) if m.is_static() => {
                debug_assert_eq!(*m, Metric::AreaMm2);
                self.admits(area_mm2)
            }
            Bound::Metric(_) => true,
        }
    }

    /// Checks any constraint against a full measurement.
    pub fn admits_measurement(&self, knobs: &[(String, u64)], m: &Measurement) -> bool {
        match &self.on {
            Bound::Knob(_) => self.admits_static(knobs, m.area_mm2),
            Bound::Metric(metric) => self.admits(metric.value(m)),
        }
    }
}

/// One grid axis: a knob and the values it sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct KnobAxis {
    /// Registry knob name.
    pub name: String,
    /// The values, in spec order.
    pub values: Vec<u64>,
}

/// Trace lengths for one search stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lengths {
    /// Timed records.
    pub records: usize,
    /// Warm-up records preceding the timed window.
    pub warmup: usize,
}

/// The workload a query evaluates candidates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Suite the program belongs to.
    pub suite: SuiteKind,
    /// Index within the suite's program list.
    pub index: usize,
}

/// A full exploration query.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreSpec {
    /// Query name (report headers, file stems).
    pub name: String,
    /// The workload candidates are measured on.
    pub workload: WorkloadSpec,
    /// Trace-generation seed (also seeds rank tie-breaking).
    pub seed: u64,
    /// Screening-run lengths (round 0).
    pub screen: Lengths,
    /// Full-length runs (the final round).
    pub full: Lengths,
    /// The grid axes, expanded row-major (first axis slowest).
    pub knobs: Vec<KnobAxis>,
    /// What to optimize.
    pub objective: Objective,
    /// Feasibility constraints.
    pub constraints: Vec<Constraint>,
    /// Halving factor: each round keeps ~`1/eta` of its candidates.
    pub eta: u32,
    /// Stop halving once this few candidates remain (they run full).
    pub min_survivors: usize,
    /// Confidence width (sigma) for promotion at the cut line.
    pub z: f64,
}

fn get_usize(v: &Value, key: &str, what: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(Value::as_i64)
        .and_then(|i| usize::try_from(i).ok())
        .ok_or_else(|| format!("{what}: missing or invalid \"{key}\""))
}

fn get_str<'v>(v: &'v Value, key: &str, what: &str) -> Result<&'v str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{what}: missing or invalid \"{key}\""))
}

fn parse_lengths(v: &Value, what: &str) -> Result<Lengths, String> {
    let records = get_usize(v, "records", what)?;
    let warmup = get_usize(v, "warmup", what)?;
    if records == 0 {
        return Err(format!("{what}: records must be positive"));
    }
    Ok(Lengths { records, warmup })
}

fn parse_axis(v: &Value) -> Result<KnobAxis, String> {
    let name = get_str(v, "name", "knob axis")?.to_string();
    if s64v_core::knobs::knob(&name).is_none() {
        return Err(format!(
            "unknown knob \"{name}\" (known: {})",
            knobs::knob_names().join(", ")
        ));
    }
    let values: Vec<u64> = if let Some(vals) = v.get("values").and_then(Value::as_array) {
        vals.iter()
            .map(|x| {
                x.as_i64()
                    .and_then(|i| u64::try_from(i).ok())
                    .ok_or_else(|| format!("knob \"{name}\": values must be non-negative integers"))
            })
            .collect::<Result<_, _>>()?
    } else if let Some(range) = v.get("range") {
        let from = get_usize(range, "from", "range")? as u64;
        let to = get_usize(range, "to", "range")? as u64;
        let step = get_usize(range, "step", "range")? as u64;
        if step == 0 || to < from {
            return Err(format!(
                "knob \"{name}\": range needs step ≥ 1 and to ≥ from"
            ));
        }
        if (to - from) / step >= MAX_CANDIDATES {
            return Err(format!(
                "knob \"{name}\": range holds more than {MAX_CANDIDATES} values"
            ));
        }
        (from..=to).step_by(step as usize).collect()
    } else {
        return Err(format!("knob \"{name}\": needs \"values\" or \"range\""));
    };
    if values.is_empty() {
        return Err(format!("knob \"{name}\": empty value list"));
    }
    let mut seen = std::collections::HashSet::new();
    for v in &values {
        if !seen.insert(*v) {
            return Err(format!("knob \"{name}\": duplicate value {v}"));
        }
    }
    Ok(KnobAxis { name, values })
}

fn parse_constraint(v: &Value) -> Result<Constraint, String> {
    let on = match (v.get("knob"), v.get("metric")) {
        (Some(k), None) => Bound::Knob(
            k.as_str()
                .ok_or("constraint: \"knob\" must be a string")?
                .to_string(),
        ),
        (None, Some(m)) => {
            let name = m
                .as_str()
                .ok_or("constraint: \"metric\" must be a string")?;
            Bound::Metric(Metric::parse(name).ok_or_else(|| format!("unknown metric \"{name}\""))?)
        }
        _ => return Err("constraint: exactly one of \"knob\"/\"metric\"".to_string()),
    };
    if let Bound::Knob(name) = &on {
        if s64v_core::knobs::knob(name).is_none() {
            return Err(format!("constraint on unknown knob \"{name}\""));
        }
    }
    let min = v.get("min").and_then(Value::as_f64);
    let max = v.get("max").and_then(Value::as_f64);
    if min.is_none() && max.is_none() {
        return Err("constraint: needs \"min\" and/or \"max\"".to_string());
    }
    Ok(Constraint { on, min, max })
}

impl ExploreSpec {
    /// Parses a spec from its JSON text.
    pub fn parse(text: &str) -> Result<ExploreSpec, String> {
        Self::from_value(&Value::parse(text).map_err(|e| format!("invalid JSON: {e}"))?)
    }

    /// Parses a spec from an already-parsed JSON document.
    pub fn from_value(v: &Value) -> Result<ExploreSpec, String> {
        let name = get_str(v, "name", "spec")?.to_string();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c))
        {
            return Err(format!(
                "spec name {name:?} must be non-empty [A-Za-z0-9._-] (it becomes a file stem)"
            ));
        }

        let w = v.get("workload").ok_or("spec: missing \"workload\"")?;
        let suite_name = get_str(w, "suite", "workload")?;
        let suite = SuiteKind::ALL
            .into_iter()
            .find(|k| k.label().eq_ignore_ascii_case(suite_name))
            .ok_or_else(|| format!("unknown suite \"{suite_name}\""))?;
        let index = get_usize(w, "index", "workload")?;
        let programs = Suite::preset(suite).programs().len();
        if index >= programs {
            return Err(format!(
                "workload: {} has {programs} programs, no index {index}",
                suite.label()
            ));
        }

        let seed = v.get("seed").and_then(Value::as_i64).unwrap_or(42) as u64;
        let screen = parse_lengths(v.get("screen").ok_or("spec: missing \"screen\"")?, "screen")?;
        let full = parse_lengths(v.get("full").ok_or("spec: missing \"full\"")?, "full")?;
        if full.records < screen.records {
            return Err("full.records must be ≥ screen.records".to_string());
        }

        let axes = v
            .get("knobs")
            .and_then(Value::as_array)
            .ok_or("spec: missing \"knobs\" array")?;
        if axes.is_empty() {
            return Err("spec: needs at least one knob axis".to_string());
        }
        let knobs: Vec<KnobAxis> = axes.iter().map(parse_axis).collect::<Result<_, _>>()?;
        let candidates = knobs.iter().try_fold(1u64, |n, a| {
            n.checked_mul(a.values.len() as u64)
                .filter(|&n| n <= MAX_CANDIDATES)
        });
        if candidates.is_none() {
            return Err(format!(
                "spec: the grid holds more than {MAX_CANDIDATES} candidates"
            ));
        }
        let mut seen = std::collections::HashSet::new();
        for a in &knobs {
            if !seen.insert(a.name.clone()) {
                return Err(format!("duplicate knob axis \"{}\"", a.name));
            }
        }

        let o = v.get("objective").ok_or("spec: missing \"objective\"")?;
        let objective = match (o.get("maximize"), o.get("minimize")) {
            (Some(m), None) => Objective {
                metric: parse_objective_metric(m)?,
                maximize: true,
            },
            (None, Some(m)) => Objective {
                metric: parse_objective_metric(m)?,
                maximize: false,
            },
            _ => return Err("objective: exactly one of \"maximize\"/\"minimize\"".to_string()),
        };

        let constraints = match v.get("constraints") {
            None => Vec::new(),
            Some(c) => c
                .as_array()
                .ok_or("spec: \"constraints\" must be an array")?
                .iter()
                .map(parse_constraint)
                .collect::<Result<_, _>>()?,
        };

        let search = v.get("search");
        let eta = search
            .and_then(|s| s.get("eta"))
            .and_then(Value::as_i64)
            .unwrap_or(3);
        let eta = u32::try_from(eta)
            .ok()
            .filter(|&eta| eta >= 2)
            .ok_or_else(|| format!("search.eta must be in 2..={}", u32::MAX))?;
        let min_survivors = search
            .and_then(|s| s.get("min_survivors"))
            .and_then(Value::as_i64)
            .unwrap_or(4);
        if min_survivors < 1 {
            return Err("search.min_survivors must be ≥ 1".to_string());
        }
        let z = search
            .and_then(|s| s.get("confidence_z"))
            .and_then(Value::as_f64)
            .unwrap_or(2.0);
        if z < 0.0 || !z.is_finite() {
            return Err("search.confidence_z must be finite and ≥ 0".to_string());
        }

        Ok(ExploreSpec {
            name,
            workload: WorkloadSpec { suite, index },
            seed,
            screen,
            full,
            knobs,
            objective,
            constraints,
            eta,
            min_survivors: min_survivors as usize,
            z,
        })
    }

    /// The canonical re-encoding: fixed key order, defaults materialized.
    /// `from_value(to_value(s)) == s`, and equal specs serialize to equal
    /// bytes — the property the fingerprint relies on.
    pub fn to_value(&self) -> Value {
        let knobs: Vec<Value> = self
            .knobs
            .iter()
            .map(|a| {
                Value::obj().field("name", a.name.as_str()).field(
                    "values",
                    Value::Arr(a.values.iter().map(|&v| Value::from(v)).collect()),
                )
            })
            .collect();
        let constraints: Vec<Value> = self
            .constraints
            .iter()
            .map(|c| {
                let mut o = match &c.on {
                    Bound::Knob(n) => Value::obj().field("knob", n.as_str()),
                    Bound::Metric(m) => Value::obj().field("metric", m.name()),
                };
                if let Some(lo) = c.min {
                    o = o.field("min", lo);
                }
                if let Some(hi) = c.max {
                    o = o.field("max", hi);
                }
                o
            })
            .collect();
        let objective = if self.objective.maximize {
            Value::obj().field("maximize", self.objective.metric.name())
        } else {
            Value::obj().field("minimize", self.objective.metric.name())
        };
        Value::obj()
            .field("name", self.name.as_str())
            .field(
                "workload",
                Value::obj()
                    .field("suite", self.workload.suite.label())
                    .field("index", self.workload.index),
            )
            .field("seed", self.seed)
            .field(
                "screen",
                Value::obj()
                    .field("records", self.screen.records)
                    .field("warmup", self.screen.warmup),
            )
            .field(
                "full",
                Value::obj()
                    .field("records", self.full.records)
                    .field("warmup", self.full.warmup),
            )
            .field("knobs", Value::Arr(knobs))
            .field("objective", objective)
            .field("constraints", Value::Arr(constraints))
            .field(
                "search",
                Value::obj()
                    .field("eta", self.eta)
                    .field("min_survivors", self.min_survivors)
                    .field("confidence_z", self.z),
            )
    }

    /// The query's content-addressed identity: a stable hash of the
    /// canonical encoding plus the model version (seeded into every
    /// [`StableHasher`]); a report's `spec_fingerprint` names exactly
    /// the query it answers.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = StableHasher::new();
        h.write_str("explore-spec");
        h.write_str(&self.to_value().to_string());
        h.finish()
    }
}

fn parse_objective_metric(v: &Value) -> Result<Metric, String> {
    let name = v.as_str().ok_or("objective metric must be a string")?;
    Metric::parse(name).ok_or_else(|| {
        format!(
            "unknown metric \"{name}\" (known: {})",
            Metric::ALL
                .iter()
                .map(|(_, n)| *n)
                .collect::<Vec<_>>()
                .join(", ")
        )
    })
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::ExploreSpec;

    /// The shared two-axis sample spec used across the crate's tests.
    pub(crate) fn sample_spec() -> ExploreSpec {
        ExploreSpec::parse(super::tests::SAMPLE).expect("sample spec parses")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) const SAMPLE: &str = r#"{
        "name": "rs-vs-window",
        "workload": {"suite": "SPECint95", "index": 0},
        "seed": 7,
        "screen": {"records": 2000, "warmup": 4000},
        "full":   {"records": 8000, "warmup": 16000},
        "knobs": [
            {"name": "rse_entries", "values": [4, 8, 12]},
            {"name": "window_size", "range": {"from": 16, "to": 64, "step": 16}}
        ],
        "objective": {"maximize": "ipc"},
        "constraints": [
            {"knob": "rse_entries", "max": 32},
            {"metric": "area_mm2", "max": 300.0}
        ]
    }"#;

    #[test]
    fn sample_parses_with_defaults() {
        let s = ExploreSpec::parse(SAMPLE).expect("parse");
        assert_eq!(s.name, "rs-vs-window");
        assert_eq!(s.workload.suite, SuiteKind::SpecInt95);
        assert_eq!(s.knobs.len(), 2);
        assert_eq!(s.knobs[1].values, vec![16, 32, 48, 64]);
        assert_eq!(s.eta, 3);
        assert_eq!(s.min_survivors, 4);
        assert_eq!(s.z, 2.0);
        assert!(s.objective.maximize);
        assert_eq!(s.constraints.len(), 2);
        assert!(s.constraints[0].is_static());
        assert!(s.constraints[1].is_static());
    }

    #[test]
    fn canonical_encoding_round_trips_and_is_stable() {
        let s = ExploreSpec::parse(SAMPLE).expect("parse");
        let canon = s.to_value();
        let back = ExploreSpec::from_value(&canon).expect("reparse");
        assert_eq!(back, s);
        assert_eq!(back.to_value().to_string(), canon.to_string());
        assert_eq!(back.fingerprint(), s.fingerprint());
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_section() {
        let base = ExploreSpec::parse(SAMPLE).expect("parse");
        let mut other = base.clone();
        other.seed = 8;
        assert_ne!(base.fingerprint(), other.fingerprint());
        let mut other = base.clone();
        other.full.records += 1;
        assert_ne!(base.fingerprint(), other.fingerprint());
        let mut other = base.clone();
        other.knobs[0].values.push(16);
        assert_ne!(base.fingerprint(), other.fingerprint());
        let mut other = base.clone();
        other.objective.maximize = false;
        assert_ne!(base.fingerprint(), other.fingerprint());
    }

    /// [`SAMPLE`] with a `search` block.
    fn with_search(search: &str) -> String {
        SAMPLE.replace(
            "\"constraints\": [",
            &format!("\"search\": {search},\n\"constraints\": ["),
        )
    }

    /// An axis sweeping `name` over `1..=to`.
    fn range(name: &str, to: &str) -> String {
        format!(r#"{{"name": "{name}", "range": {{"from": 1, "to": {to}, "step": 1}}}}"#)
    }

    /// [`SAMPLE`] with `axes` for its knobs.
    fn with_axes(axes: &[String]) -> String {
        let (head, tail) = SAMPLE.split_once(r#""knobs": ["#).expect("knobs");
        let (_, tail) = tail
            .split_once("],\n        \"objective\"")
            .expect("objective");
        format!(
            "{head}\"knobs\": [{}],\n\"objective\"{tail}",
            axes.join(", ")
        )
    }

    /// Three axes of 100 values each.
    fn cube() -> [String; 3] {
        ["rse_entries", "rsf_entries", "rsa_entries"].map(|k| range(k, "100"))
    }

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        for (frag, needle) in [
            ("{}", "missing"),
            (r#"{"name": "x/y"}"#, "file stem"),
            (&SAMPLE.replace("rse_entries", "bogus_knob"), "unknown knob"),
            (&SAMPLE.replace("\"ipc\"", "\"speed\""), "unknown metric"),
            (
                &SAMPLE.replace("[4, 8, 12]", "[4, 8, 4]"),
                "duplicate value",
            ),
            (
                &SAMPLE.replace("\"records\": 8000", "\"records\": 100"),
                "full.records",
            ),
            // Truncated to 0, the halving divides by zero after round 1.
            (&with_search(r#"{"eta": 4294967296}"#), "search.eta"),
            // Truncated to 1, no round ever eliminates anything.
            (&with_search(r#"{"eta": 4294967297}"#), "search.eta"),
            (
                &with_axes(&[range("window_size", "9223372036854775807")]),
                "range holds",
            ),
            (&with_axes(&cube()), "grid holds"),
            (
                &SAMPLE.replace(r#""index": 0"#, r#""index": 99"#),
                "no index 99",
            ),
        ] {
            let err = ExploreSpec::parse(frag).unwrap_err();
            assert!(err.contains(needle), "{frag:.60}...: got {err:?}");
        }
    }

    #[test]
    fn the_parser_limits_are_inclusive() {
        let square = ExploreSpec::parse(&with_axes(&cube()[..2])).expect("100 x 100");
        assert_eq!(square.knobs[0].values.len() as u64 * 100, MAX_CANDIDATES);
        let long =
            ExploreSpec::parse(&with_axes(&[range("window_size", "10000")])).expect("1 axis");
        assert_eq!(long.knobs[0].values.len() as u64, MAX_CANDIDATES);
        let last = Suite::preset(SuiteKind::SpecInt95).programs().len() - 1;
        let text = SAMPLE.replace(r#""index": 0"#, &format!(r#""index": {last}"#));
        assert_eq!(
            ExploreSpec::parse(&text).expect("index").workload.index,
            last
        );
        let widest = ExploreSpec::parse(&with_search(r#"{"eta": 4294967295}"#)).expect("eta");
        assert_eq!(widest.eta, u32::MAX);
    }

    #[test]
    fn committed_specs_use_only_keys_the_grammar_reads() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
        let mut checked = 0;
        for entry in std::fs::read_dir(&dir).expect("specs/") {
            let path = entry.expect("entry").path();
            if !path.to_string_lossy().ends_with(".explore.json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("spec");
            // The canonical encoding materializes every key the grammar
            // reads; a key it lacks is one the parser never looked at.
            let canonical = ExploreSpec::parse(&text).expect("spec parses").to_value();
            let Value::Obj(fields) = Value::parse(&text).expect("JSON") else {
                panic!("{}: not an object", path.display());
            };
            for (key, _) in &fields {
                assert!(
                    canonical.get(key).is_some(),
                    "{}: top-level \"{key}\" is never read",
                    path.display()
                );
            }
            checked += 1;
        }
        assert!(checked >= 2, "found {checked} specs");
    }

    #[test]
    fn metric_values_and_rates_agree() {
        let m = Measurement {
            cycles: 2_000,
            committed: 1_000,
            bus_transactions: 50,
            bus_busy_cycles: 400,
            l1d: (30, 600),
            l2_demand: (5, 50),
            mispredict: (10, 100),
            area_mm2: 123.0,
        };
        assert_eq!(Metric::Ipc.value(&m), 0.5);
        assert_eq!(Metric::Cpi.value(&m), 2.0);
        assert_eq!(Metric::BusPerKi.value(&m), 50.0);
        assert_eq!(Metric::BusUtilization.value(&m), 0.2);
        assert_eq!(Metric::AreaMm2.value(&m), 123.0);
        assert!(Metric::AreaMm2.rate(&m).is_none());
        let r = Metric::Ipc.rate(&m).expect("rate");
        assert_eq!(r.value(), 0.5);
    }

    #[test]
    fn constraints_gate_statically_and_dynamically() {
        let c = Constraint {
            on: Bound::Knob("rse_entries".into()),
            min: None,
            max: Some(8.0),
        };
        let knobs = vec![("rse_entries".to_string(), 12u64)];
        assert!(!c.admits_static(&knobs, 0.0));
        assert!(c.admits_static(&[("window_size".to_string(), 99)], 0.0));

        let area = Constraint {
            on: Bound::Metric(Metric::AreaMm2),
            min: None,
            max: Some(100.0),
        };
        assert!(!area.admits_static(&[], 150.0));
        assert!(area.admits_static(&[], 80.0));

        let ipc = Constraint {
            on: Bound::Metric(Metric::Ipc),
            min: Some(0.6),
            max: None,
        };
        assert!(ipc.admits_static(&[], 0.0), "dynamic: admits pre-sim");
        let m = Measurement {
            cycles: 2_000,
            committed: 1_000,
            ..Measurement::default()
        };
        assert!(!ipc.admits_measurement(&[], &m));
    }
}
