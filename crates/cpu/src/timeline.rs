//! Per-instruction pipeline timelines.
//!
//! The paper's verification flow compared the performance model against
//! the logic simulator *instruction by instruction*: "individual execution
//! results of each of these programs on the logic simulator is a detailed
//! match of output from the performance model" (§2). This module provides
//! the model-side half of that discipline: an optional recorder that
//! captures, per dynamic instruction, the cycle it passed every pipeline
//! stage — decode, dispatch (with replay count), completion and commit.
//! It is the core's one recorder: an observed run's `pipeline.txt` and
//! the Perfetto trace's pipeline slices are drawn from it, and two runs
//! compare stage by stage through [`PipelineTrace::entries`].
//!
//! Memory is bounded by recording only the first N decoded instructions.

use s64v_isa::OpClass;
pub use s64v_observe::InstrTimeline;

/// A bounded recorder of instruction timelines: the first `capacity`
/// decoded instructions, in program order.
#[derive(Debug, Clone)]
pub struct PipelineTrace {
    entries: Vec<InstrTimeline>,
    capacity: usize,
}

impl PipelineTrace {
    /// Creates a recorder for the first `capacity` instructions.
    pub fn new(capacity: usize) -> Self {
        PipelineTrace {
            entries: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
        }
    }

    /// Starts an entry at decode.
    pub fn on_decode(&mut self, seq: u64, pc: u64, op: OpClass, now: u64) {
        if seq as usize >= self.capacity {
            return;
        }
        let entry = InstrTimeline {
            seq,
            pc,
            op,
            decoded_at: now,
            dispatched_at: None,
            completed_at: None,
            committed_at: None,
            replays: 0,
        };
        debug_assert_eq!(
            seq as usize,
            self.entries.len(),
            "decode order is program order"
        );
        self.entries.push(entry);
    }

    fn entry_mut(&mut self, seq: u64) -> Option<&mut InstrTimeline> {
        self.entries.get_mut(seq as usize)
    }

    /// Records a dispatch (overwrites earlier dispatches — the final one
    /// after replays is the one that mattered).
    pub fn on_dispatch(&mut self, seq: u64, now: u64) {
        if let Some(e) = self.entry_mut(seq) {
            e.dispatched_at = Some(now);
        }
    }

    /// Records a cancel-and-replay.
    pub fn on_replay(&mut self, seq: u64) {
        if let Some(e) = self.entry_mut(seq) {
            e.replays += 1;
            e.dispatched_at = None;
        }
    }

    /// Records completion.
    pub fn on_complete(&mut self, seq: u64, now: u64) {
        if let Some(e) = self.entry_mut(seq) {
            if e.completed_at.is_none() {
                e.completed_at = Some(now);
            }
        }
    }

    /// Records retirement.
    pub fn on_commit(&mut self, seq: u64, now: u64) {
        if let Some(e) = self.entry_mut(seq) {
            e.committed_at = Some(now);
        }
    }

    /// The recorded timelines in program (sequence) order.
    pub fn entries(&self) -> &[InstrTimeline] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(commit: u64) -> PipelineTrace {
        let mut t = PipelineTrace::new(4);
        t.on_decode(0, 0x100, OpClass::IntAlu, 1);
        t.on_dispatch(0, 3);
        t.on_complete(0, 5);
        t.on_commit(0, commit);
        t
    }

    #[test]
    fn stages_are_recorded_in_order() {
        let t = sample(6);
        let e = &t.entries()[0];
        assert_eq!(e.decoded_at, 1);
        assert_eq!(e.dispatched_at, Some(3));
        assert_eq!(e.completed_at, Some(5));
        assert_eq!(e.committed_at, Some(6));
        assert!(e.is_consistent());
    }

    #[test]
    fn capacity_bounds_recording() {
        let mut t = PipelineTrace::new(2);
        for seq in 0..5u64 {
            t.on_decode(seq, seq * 4, OpClass::Nop, seq);
        }
        assert_eq!(t.entries().len(), 2);
        t.on_commit(4, 99); // out of window: ignored
        assert!(t.entries().iter().all(|e| e.committed_at.is_none()));
    }

    #[test]
    fn replays_clear_the_dispatch_stamp() {
        let mut t = PipelineTrace::new(1);
        t.on_decode(0, 0, OpClass::Load, 0);
        t.on_dispatch(0, 2);
        t.on_replay(0);
        assert_eq!(t.entries()[0].dispatched_at, None);
        assert_eq!(t.entries()[0].replays, 1);
        t.on_dispatch(0, 9);
        assert_eq!(t.entries()[0].dispatched_at, Some(9));
    }

    #[test]
    fn completion_keeps_the_first_stamp() {
        let mut t = PipelineTrace::new(1);
        t.on_decode(0, 0, OpClass::Nop, 0);
        t.on_complete(0, 4);
        t.on_complete(0, 9);
        assert_eq!(t.entries()[0].completed_at, Some(4));
    }
}
