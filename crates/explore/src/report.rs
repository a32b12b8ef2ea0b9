//! Structured exploration reports: the durable answer to a query.
//!
//! A report has two sections with different contracts:
//!
//! * **`answer`** — winner, frontier, round history and search counters.
//!   A deterministic function of the spec alone: running the same spec
//!   again, on any thread count, against any cache state, must produce
//!   byte-identical `answer` JSON (golden tests compare it verbatim).
//! * **`execution`** — how this particular run got the answer: cache
//!   hits vs simulated points, failures, wall time, thread count.
//!   Expected to differ between runs and excluded from golden
//!   comparisons.
//!
//! Reports parse back ([`ExploreReport::parse`]) so the harness can
//! validate them as artifacts; any structural problem is an `Err`,
//! never a panic.

use crate::search::{CandidateResult, Measurement, RoundSummary, SearchCounters, SearchResult};
use crate::spec::ExploreSpec;
use s64v_observe::json::Value;

/// Format tag guarding against foreign or truncated files.
pub const REPORT_FORMAT: &str = "s64v-explore-report v1";

/// How a run obtained its measurements.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExecutionStats {
    /// Point evaluations answered by the result cache.
    pub cache_hits: usize,
    /// Point evaluations actually simulated.
    pub simulated: usize,
    /// Point evaluations that failed (simulation error, panic or
    /// watchdog cancellation).
    pub failed: usize,
    /// Records simulated (excludes cache hits).
    pub simulated_records: u64,
    /// Wall-clock seconds spent simulating.
    pub sim_wall_seconds: f64,
    /// Worker threads used.
    pub threads: usize,
}

/// A parsed or freshly computed exploration report.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreReport {
    /// The query, canonically encoded.
    pub spec: ExploreSpec,
    /// The deterministic answer.
    pub result: SearchResult,
    /// This run's execution profile.
    pub execution: ExecutionStats,
}

fn measurement_value(m: &Measurement) -> Value {
    Value::obj()
        .field("cycles", m.cycles)
        .field("committed", m.committed)
        .field("bus_transactions", m.bus_transactions)
        .field("bus_busy_cycles", m.bus_busy_cycles)
        .field("l1d_misses", m.l1d.0)
        .field("l1d_accesses", m.l1d.1)
        .field("l2_demand_misses", m.l2_demand.0)
        .field("l2_demand_accesses", m.l2_demand.1)
        .field("mispredicted", m.mispredict.0)
        .field("branches", m.mispredict.1)
        .field("area_mm2", m.area_mm2)
}

fn get_u64(v: &Value, key: &str, what: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_i64)
        .and_then(|i| u64::try_from(i).ok())
        .ok_or_else(|| format!("{what}: missing or invalid \"{key}\""))
}

fn get_usize(v: &Value, key: &str, what: &str) -> Result<usize, String> {
    get_u64(v, key, what).map(|u| u as usize)
}

fn get_f64(v: &Value, key: &str, what: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{what}: missing or invalid \"{key}\""))
}

fn parse_measurement(v: &Value) -> Result<Measurement, String> {
    const WHAT: &str = "measurement";
    Ok(Measurement {
        cycles: get_u64(v, "cycles", WHAT)?,
        committed: get_u64(v, "committed", WHAT)?,
        bus_transactions: get_u64(v, "bus_transactions", WHAT)?,
        bus_busy_cycles: get_u64(v, "bus_busy_cycles", WHAT)?,
        l1d: (
            get_u64(v, "l1d_misses", WHAT)?,
            get_u64(v, "l1d_accesses", WHAT)?,
        ),
        l2_demand: (
            get_u64(v, "l2_demand_misses", WHAT)?,
            get_u64(v, "l2_demand_accesses", WHAT)?,
        ),
        mispredict: (
            get_u64(v, "mispredicted", WHAT)?,
            get_u64(v, "branches", WHAT)?,
        ),
        area_mm2: get_f64(v, "area_mm2", WHAT)?,
    })
}

fn candidate_value(c: &CandidateResult) -> Value {
    let mut knobs = Value::obj();
    for (name, v) in &c.knobs {
        knobs = knobs.field(name, *v);
    }
    Value::obj()
        .field("id", c.id)
        .field("knobs", knobs)
        .field("objective", c.objective)
        .field("records", c.records)
        .field("measurement", measurement_value(&c.measurement))
}

fn parse_candidate(v: &Value) -> Result<CandidateResult, String> {
    const WHAT: &str = "candidate";
    let knobs = match v.get("knobs") {
        Some(Value::Obj(fields)) => fields
            .iter()
            .map(|(name, val)| {
                val.as_i64()
                    .and_then(|i| u64::try_from(i).ok())
                    .map(|u| (name.clone(), u))
                    .ok_or_else(|| format!("{WHAT}: knob \"{name}\" is not a non-negative integer"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err(format!("{WHAT}: missing \"knobs\" object")),
    };
    Ok(CandidateResult {
        id: get_usize(v, "id", WHAT)?,
        knobs,
        objective: get_f64(v, "objective", WHAT)?,
        records: get_usize(v, "records", WHAT)?,
        measurement: parse_measurement(
            v.get("measurement")
                .ok_or("candidate: missing \"measurement\"")?,
        )?,
    })
}

fn round_value(r: &RoundSummary) -> Value {
    let mut o = Value::obj()
        .field("round", r.round)
        .field("records", r.records)
        .field("entered", r.entered)
        .field("promoted", r.promoted)
        .field("eliminated_rank", r.eliminated_rank)
        .field("eliminated_dominated", r.eliminated_dominated)
        .field("failed", r.failed);
    if let (Some(id), Some(obj)) = (r.best_id, r.best_objective) {
        o = o.field("best_id", id).field("best_objective", obj);
    }
    o
}

fn parse_round(v: &Value) -> Result<RoundSummary, String> {
    const WHAT: &str = "round";
    Ok(RoundSummary {
        round: get_usize(v, "round", WHAT)?,
        records: get_usize(v, "records", WHAT)?,
        entered: get_usize(v, "entered", WHAT)?,
        promoted: get_usize(v, "promoted", WHAT)?,
        eliminated_rank: get_usize(v, "eliminated_rank", WHAT)?,
        eliminated_dominated: get_usize(v, "eliminated_dominated", WHAT)?,
        failed: get_usize(v, "failed", WHAT)?,
        best_id: v.get("best_id").and_then(Value::as_i64).map(|i| i as usize),
        best_objective: v.get("best_objective").and_then(Value::as_f64),
    })
}

fn counters_value(c: &SearchCounters) -> Value {
    Value::obj()
        .field("grid_size", c.grid_size)
        .field("invalid", c.invalid)
        .field("pruned_static", c.pruned_static)
        .field("feasible", c.feasible)
        .field("evaluations", c.evaluations)
        .field("failed", c.failed)
        .field("eliminated_rank", c.eliminated_rank)
        .field("eliminated_dominated", c.eliminated_dominated)
        .field("rounds", c.rounds)
        .field("full_length", c.full_length)
}

fn parse_counters(v: &Value) -> Result<SearchCounters, String> {
    const WHAT: &str = "counters";
    Ok(SearchCounters {
        grid_size: get_usize(v, "grid_size", WHAT)?,
        invalid: get_usize(v, "invalid", WHAT)?,
        pruned_static: get_usize(v, "pruned_static", WHAT)?,
        feasible: get_usize(v, "feasible", WHAT)?,
        evaluations: get_usize(v, "evaluations", WHAT)?,
        failed: get_usize(v, "failed", WHAT)?,
        eliminated_rank: get_usize(v, "eliminated_rank", WHAT)?,
        eliminated_dominated: get_usize(v, "eliminated_dominated", WHAT)?,
        rounds: get_usize(v, "rounds", WHAT)?,
        full_length: get_usize(v, "full_length", WHAT)?,
    })
}

impl ExploreReport {
    /// The deterministic `answer` section alone. Golden tests and the
    /// byte-identity guarantee apply to exactly this encoding.
    pub fn answer_value(&self) -> Value {
        let winner = match &self.result.winner {
            Some(w) => candidate_value(w),
            None => Value::Null,
        };
        Value::obj()
            .field("winner", winner)
            .field(
                "frontier",
                Value::Arr(self.result.frontier.iter().map(candidate_value).collect()),
            )
            .field(
                "rounds",
                Value::Arr(self.result.rounds.iter().map(round_value).collect()),
            )
            .field("counters", counters_value(&self.result.counters))
    }

    /// The full report document.
    pub fn to_value(&self) -> Value {
        Value::obj()
            .field("format", REPORT_FORMAT)
            .field("spec_fingerprint", self.spec.fingerprint().to_hex())
            .field("spec", self.spec.to_value())
            .field("answer", self.answer_value())
            .field(
                "execution",
                Value::obj()
                    .field("cache_hits", self.execution.cache_hits)
                    .field("simulated", self.execution.simulated)
                    .field("failed", self.execution.failed)
                    .field("simulated_records", self.execution.simulated_records)
                    .field("sim_wall_seconds", self.execution.sim_wall_seconds)
                    .field("threads", self.execution.threads),
            )
    }

    /// Parses and structurally validates a report document. Every
    /// failure is a reason string naming what is wrong, never a crash;
    /// every section and field is required.
    pub fn parse(text: &str) -> Result<ExploreReport, String> {
        let v = Value::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        match v.get("format").and_then(Value::as_str) {
            Some(REPORT_FORMAT) => {}
            Some(other) => return Err(format!("unsupported format {other:?}")),
            None => return Err("missing \"format\" tag".to_string()),
        }
        let spec = ExploreSpec::from_value(v.get("spec").ok_or("missing \"spec\"")?)?;
        let claimed = v
            .get("spec_fingerprint")
            .and_then(Value::as_str)
            .ok_or("missing \"spec_fingerprint\"")?;
        if claimed != spec.fingerprint().to_hex() {
            return Err("spec_fingerprint does not match the embedded spec".to_string());
        }

        let answer = v.get("answer").ok_or("missing \"answer\"")?;
        let winner = match answer.get("winner") {
            None => return Err("answer: missing \"winner\"".to_string()),
            Some(Value::Null) => None,
            Some(w) => Some(parse_candidate(w)?),
        };
        let frontier = answer
            .get("frontier")
            .and_then(Value::as_array)
            .ok_or("answer: missing \"frontier\"")?
            .iter()
            .map(parse_candidate)
            .collect::<Result<Vec<_>, _>>()?;
        let rounds = answer
            .get("rounds")
            .and_then(Value::as_array)
            .ok_or("answer: missing \"rounds\"")?
            .iter()
            .map(parse_round)
            .collect::<Result<Vec<_>, _>>()?;
        let counters = parse_counters(
            answer
                .get("counters")
                .ok_or("answer: missing \"counters\"")?,
        )?;

        let e = v.get("execution").ok_or("missing \"execution\"")?;
        let execution = ExecutionStats {
            cache_hits: get_usize(e, "cache_hits", "execution")?,
            simulated: get_usize(e, "simulated", "execution")?,
            failed: get_usize(e, "failed", "execution")?,
            simulated_records: get_u64(e, "simulated_records", "execution")?,
            sim_wall_seconds: get_f64(e, "sim_wall_seconds", "execution")?,
            threads: get_usize(e, "threads", "execution")?,
        };

        Ok(ExploreReport {
            spec,
            result: SearchResult {
                winner,
                frontier,
                rounds,
                counters,
            },
            execution,
        })
    }

    /// One-line human summary for campaign output.
    pub fn summary(&self) -> String {
        let c = &self.result.counters;
        let winner = match &self.result.winner {
            Some(w) => {
                let knobs = w
                    .knobs
                    .iter()
                    .map(|(n, v)| format!("{n}={v}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                format!(
                    "winner {knobs} ({} = {:.4})",
                    self.spec.objective.metric.name(),
                    w.objective
                )
            }
            None => "no feasible winner".to_string(),
        };
        format!(
            "{}: {winner}; grid {} -> {} feasible, {} full-length, frontier {}; {} evals ({} cached, {} simulated, {} failed)",
            self.spec.name,
            c.grid_size,
            c.feasible,
            c.full_length,
            self.result.frontier.len(),
            c.evaluations,
            self.execution.cache_hits,
            self.execution.simulated,
            self.execution.failed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::run_search;
    use crate::spec::tests_support::sample_spec;

    fn sample_report() -> ExploreReport {
        let spec = sample_spec();
        let result = run_search(
            &spec,
            |plan| {
                plan.entries
                    .iter()
                    .map(|(_, config)| {
                        let committed = plan.records as u64;
                        let w = config.core.window_size as u64;
                        Some(Measurement {
                            cycles: committed * 2000 / (900 + w * 10),
                            committed,
                            bus_transactions: committed / 90,
                            bus_busy_cycles: committed / 12,
                            l1d: (committed / 30, committed / 3),
                            l2_demand: (committed / 250, committed / 30),
                            mispredict: (committed / 60, committed / 9),
                            area_mm2: 0.0,
                        })
                    })
                    .collect()
            },
            |_| {},
        );
        ExploreReport {
            spec,
            result,
            execution: ExecutionStats {
                cache_hits: 3,
                simulated: 17,
                failed: 1,
                simulated_records: 120_000,
                sim_wall_seconds: 1.25,
                threads: 4,
            },
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let text = format!("{:#}", report.to_value());
        let back = ExploreReport::parse(&text).expect("parse back");
        assert_eq!(back, report);
        assert_eq!(
            back.answer_value().to_string(),
            report.answer_value().to_string()
        );
    }

    #[test]
    fn corrupted_reports_fail_closed_with_reasons() {
        let report = sample_report();
        let text = report.to_value().to_string();
        for (mangle, needle) in [
            (text[..text.len() / 2].to_string(), "invalid JSON"),
            (
                text.replace(REPORT_FORMAT, "mystery v9"),
                "unsupported format",
            ),
            (
                text.replacen("\"seed\":7", "\"seed\":8", 1),
                "spec_fingerprint",
            ),
            (text.replacen("\"counters\"", "\"konters\"", 1), "counters"),
            (text.replacen("\"threads\"", "\"thread\"", 1), "threads"),
        ] {
            let err = ExploreReport::parse(&mangle).unwrap_err();
            assert!(err.contains(needle), "wanted {needle:?} in {err:?}");
        }
    }

    #[test]
    fn a_report_with_a_retired_execution_field_still_parses() {
        // Written when failed points were still re-run: its execution
        // section carries one count more, read past like any key nobody
        // reads.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../specs/fixtures/retired_execution_field.explore.json");
        let text = std::fs::read_to_string(path).expect("fixture");
        let report = ExploreReport::parse(&text).expect("parses");
        assert_eq!(report.execution.simulated, 2);
        // Rendered again it is in today's form, one line shorter.
        let now = format!("{:#}", report.to_value());
        assert_eq!(now.lines().count() + 1, text.lines().count());
        assert_eq!(ExploreReport::parse(&now).expect("parses"), report);
    }

    #[test]
    fn summary_reports_winner_and_cache_split() {
        let s = sample_report().summary();
        assert!(s.contains("winner"), "{s}");
        assert!(s.contains("3 cached, 17 simulated"), "{s}");
        assert!(s.contains("frontier"), "{s}");
    }
}
