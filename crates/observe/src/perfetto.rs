//! Chrome/Perfetto trace-event export.
//!
//! Emits the JSON trace-event format (the `traceEvents` array of `"ph"`
//! phase records) that both `chrome://tracing` and
//! [ui.perfetto.dev](https://ui.perfetto.dev) open directly. One
//! simulated cycle is mapped to one microsecond of trace time — Perfetto
//! has no "cycles" unit, and µs keeps its zoom heuristics usable.
//!
//! Track layout:
//! - one *process* per CPU (`pid = core`), whose threads are pipeline
//!   lanes: committed instructions appear as complete (`"X"`) slices from
//!   decode to commit, spread over a few lanes so overlapping lifetimes
//!   stack instead of hiding each other; stage times ride in `args`;
//! - one process for the buses (`pid = 1000 + bus index`) with a slice
//!   per granted transaction (commands vs line transfers);
//! - counter (`"C"`) tracks from the interval samples: aggregate IPC and
//!   backplane-bus utilization over time.

use crate::bus::BusId;
use crate::json::Value;
use crate::RunObservation;

/// Instruction slices are spread round-robin over this many lanes
/// (threads) per CPU so concurrently live instructions stay visible.
const LANES: u64 = 8;

/// Process id carrying backplane-bus activity; boards follow at `+1+i`.
const BUS_PID: i64 = 1000;

fn meta(name_kind: &str, pid: i64, tid: i64, name: &str) -> Value {
    Value::obj()
        .field("ph", "M")
        .field("name", name_kind)
        .field("pid", pid)
        .field("tid", tid)
        .field("args", Value::obj().field("name", name))
}

fn slice(name: &str, cat: &str, pid: i64, tid: i64, ts: u64, dur: u64, args: Value) -> Value {
    Value::obj()
        .field("ph", "X")
        .field("name", name)
        .field("cat", cat)
        .field("pid", pid)
        .field("tid", tid)
        .field("ts", ts)
        .field("dur", dur.max(1))
        .field("args", args)
}

fn counter(name: &str, ts: u64, series: Value) -> Value {
    Value::obj()
        .field("ph", "C")
        .field("name", name)
        .field("pid", 0_i64)
        .field("tid", 0_i64)
        .field("ts", ts)
        .field("args", series)
}

/// Builds the trace document from one observed run.
pub fn perfetto_trace(obs: &RunObservation) -> Value {
    let mut events: Vec<Value> = Vec::new();

    for (core, timelines) in obs.timelines.iter().enumerate() {
        let pid = core as i64;
        events.push(meta("process_name", pid, 0, &format!("cpu{core}")));
        for lane in 0..LANES {
            events.push(meta(
                "thread_name",
                pid,
                lane as i64,
                &format!("pipe lane {lane}"),
            ));
        }
        for t in timelines {
            // Only instructions with a full lifetime become slices; a
            // truncated record (e.g. still in flight at run end) has no
            // well-defined duration.
            let Some(committed) = t.committed_at else {
                continue;
            };
            let args = Value::obj()
                .field("seq", t.seq)
                .field("pc", format!("{:#x}", t.pc))
                .field("decode", t.decoded_at)
                .field(
                    "dispatch",
                    t.dispatched_at.map(Value::from).unwrap_or(Value::Null),
                )
                .field(
                    "complete",
                    t.completed_at.map(Value::from).unwrap_or(Value::Null),
                )
                .field("commit", committed)
                .field("replays", t.replays);
            events.push(slice(
                &format!("{} #{}", t.op, t.seq),
                "pipeline",
                pid,
                (t.seq % LANES) as i64,
                t.decoded_at,
                committed - t.decoded_at,
                args,
            ));
        }
    }

    // Slices in request order; a stable sort keeps the memory system's
    // order among requests made on the same cycle.
    let mut transfers: Vec<_> = obs.bus.iter().collect();
    transfers.sort_by_key(|t| t.requested_at);
    let mut bus_pids_named = std::collections::BTreeSet::new();
    for t in transfers {
        let (pid, name) = match t.bus {
            BusId::Backplane => (BUS_PID, "backplane bus".to_string()),
            BusId::Board(i) => (BUS_PID + 1 + i as i64, format!("board {i} bus")),
        };
        if bus_pids_named.insert(pid) {
            events.push(meta("process_name", pid, 0, &name));
        }
        events.push(slice(
            if t.line_transfer { "line" } else { "cmd" },
            "bus",
            pid,
            0,
            t.granted_at,
            t.done_at - t.granted_at,
            Value::obj()
                .field("requested_at", t.requested_at)
                .field("queue_delay", t.granted_at - t.requested_at),
        ));
    }

    for s in &obs.intervals {
        events.push(counter("ipc", s.end, Value::obj().field("ipc", s.ipc)));
        events.push(counter(
            "bus utilization",
            s.end,
            Value::obj().field("util", s.bus_util),
        ));
    }

    Value::obj()
        .field("traceEvents", Value::Arr(events))
        .field("displayTimeUnit", "ms")
        .field(
            "otherData",
            Value::obj()
                .field("generator", "s64v-observe")
                .field("time_unit", "1 trace us = 1 simulated cycle"),
        )
}

/// The trace document as a compact JSON string.
pub fn perfetto_json(obs: &RunObservation) -> String {
    perfetto_trace(obs).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::BusTransfer;
    use crate::interval::{CpuInterval, IntervalSample};
    use crate::stage::InstrTimeline;
    use s64v_isa::OpClass;

    fn observation() -> RunObservation {
        RunObservation {
            bus: vec![
                BusTransfer {
                    bus: BusId::Board(0),
                    requested_at: 30,
                    line_transfer: false,
                    granted_at: 30,
                    done_at: 34,
                },
                BusTransfer {
                    bus: BusId::Backplane,
                    requested_at: 10,
                    line_transfer: true,
                    granted_at: 12,
                    done_at: 28,
                },
            ],
            intervals: vec![IntervalSample {
                start: 0,
                end: 100,
                committed: 150,
                ipc: 1.5,
                bus_busy: 20,
                bus_txns: 2,
                bus_util: 0.2,
                cpus: vec![CpuInterval {
                    committed: 150,
                    ipc: 1.5,
                    window_occ: 4,
                    rs_occ: 2,
                    lq_occ: 1,
                    sq_occ: 0,
                    mshr_occ: [0, 1, 0],
                    stalls: [90, 5, 3, 2, 0, 0, 0],
                }],
            }],
            timelines: vec![vec![
                InstrTimeline {
                    seq: 0,
                    pc: 0x100,
                    op: OpClass::Load,
                    decoded_at: 1,
                    dispatched_at: Some(3),
                    completed_at: Some(9),
                    committed_at: Some(10),
                    replays: 1,
                },
                InstrTimeline {
                    seq: 1,
                    pc: 0x104,
                    op: OpClass::IntAlu,
                    decoded_at: 1,
                    dispatched_at: None,
                    completed_at: None,
                    committed_at: None, // in flight: no slice
                    replays: 0,
                },
            ]],
        }
    }

    #[test]
    fn export_is_valid_json_with_the_expected_tracks() {
        let text = perfetto_json(&observation());
        let doc = Value::parse(&text).expect("well-formed trace");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        assert!(!events.is_empty());

        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(Value::as_str))
            .collect();
        assert!(phases.contains(&"X"), "slices present");
        assert!(phases.contains(&"C"), "counters present");
        assert!(phases.contains(&"M"), "metadata present");

        // The committed instruction became a pipeline slice; the
        // in-flight one did not.
        let pipeline_slices: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Value::as_str) == Some("pipeline"))
            .collect();
        assert_eq!(pipeline_slices.len(), 1);
        let s = pipeline_slices[0];
        assert_eq!(s.get("ts").and_then(Value::as_i64), Some(1));
        assert_eq!(s.get("dur").and_then(Value::as_i64), Some(9));
        assert_eq!(
            s.get("args")
                .and_then(|a| a.get("replays"))
                .and_then(Value::as_i64),
            Some(1)
        );

        // Both buses produced slices under distinct pids.
        let bus_pids: std::collections::BTreeSet<i64> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Value::as_str) == Some("bus"))
            .filter_map(|e| e.get("pid").and_then(Value::as_i64))
            .collect();
        assert_eq!(bus_pids.len(), 2);

        // Bus slices come in request order, whatever order they were logged.
        let requested: Vec<i64> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Value::as_str) == Some("bus"))
            .filter_map(|e| e.get("args")?.get("requested_at")?.as_i64())
            .collect();
        assert_eq!(requested, [10, 30]);
    }

    #[test]
    fn every_slice_has_positive_duration() {
        let doc = perfetto_trace(&observation());
        for e in doc.get("traceEvents").and_then(Value::as_array).unwrap() {
            if e.get("ph").and_then(Value::as_str) == Some("X") {
                assert!(e.get("dur").and_then(Value::as_i64).unwrap() >= 1);
            }
        }
    }
}
