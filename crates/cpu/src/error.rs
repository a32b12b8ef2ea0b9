//! Structured core-model errors with cycle-stamped pipeline snapshots.
//!
//! When the pipeline detects that it can no longer make progress (a model
//! bug, never a workload property), it reports a [`CoreError`] carrying a
//! full [`PipelineSnapshot`] of the faulting cycle instead of panicking
//! with a bare string. The run entry points ([`crate::Core::try_step`],
//! [`crate::Core::try_run_from`]) surface these.

use s64v_isa::{OpClass, RsKind};
use std::fmt;

/// Occupancy of one reservation-station kind against its capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RsOccupancy {
    /// Which reservation station.
    pub kind: RsKind,
    /// Entries currently held.
    pub occupancy: usize,
    /// Configured capacity.
    pub capacity: usize,
}

/// The instruction at the window head when the snapshot was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeadInstr {
    /// Allocation sequence number.
    pub seq: u64,
    /// Operation class.
    pub op: OpClass,
    /// Whether it has been dispatched to an execution unit.
    pub dispatched: bool,
    /// Whether its result is final.
    pub completed: bool,
}

/// A cycle-stamped snapshot of one core's pipeline state: ROB head/tail,
/// per-station RS occupancy, LSQ occupancy, and commit progress.
///
/// Snapshots are plain `Copy` data so taking one per audited cycle costs
/// only register moves; they are attached to every [`CoreError`] and used
/// by the `s64v-core` invariant auditor as its per-core view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineSnapshot {
    /// Cycle the snapshot describes.
    pub cycle: u64,
    /// The core's CPU id.
    pub core_id: usize,
    /// Instructions in the window (ROB occupancy).
    pub rob_len: usize,
    /// Window capacity.
    pub rob_capacity: usize,
    /// Next sequence number to allocate (the window tail; equals total
    /// instructions ever decoded).
    pub next_seq: u64,
    /// Instructions committed so far.
    pub committed: u64,
    /// The window-head instruction, if any.
    pub head: Option<HeadInstr>,
    /// Per-station occupancy in [`RsKind::ALL`] order.
    pub rs: [RsOccupancy; 4],
    /// Loads in flight in the load queue.
    pub loads_in_flight: usize,
    /// Load-queue capacity.
    pub load_queue: usize,
    /// Stores in flight in the store queue.
    pub stores_in_flight: usize,
    /// Store-queue capacity.
    pub store_queue: usize,
    /// Instructions waiting between fetch and decode.
    pub fetch_queue_len: usize,
    /// Last cycle an instruction committed (or the window was empty).
    pub last_commit_cycle: u64,
}

impl fmt::Display for PipelineSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "window {}/{} (next seq {}, committed {}), ",
            self.rob_len, self.rob_capacity, self.next_seq, self.committed
        )?;
        for rs in &self.rs {
            write!(f, "{} {}/{} ", rs.kind, rs.occupancy, rs.capacity)?;
        }
        write!(
            f,
            "LQ {}/{} SQ {}/{}, fetchq {}, last commit at cycle {}",
            self.loads_in_flight,
            self.load_queue,
            self.stores_in_flight,
            self.store_queue,
            self.fetch_queue_len,
            self.last_commit_cycle
        )
    }
}

/// Why a core aborted the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreFault {
    /// Instructions were in flight but nothing committed for longer than
    /// the deadlock horizon: the pipeline is wedged.
    Wedged {
        /// The no-progress horizon that was exceeded, in cycles.
        horizon: u64,
    },
}

/// A structured core-model error: what went wrong, on which core, and the
/// full pipeline state at the first faulting cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreError {
    /// The failure class.
    pub fault: CoreFault,
    /// Pipeline state at the faulting cycle.
    pub snapshot: PipelineSnapshot,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &self.snapshot;
        match self.fault {
            CoreFault::Wedged { horizon } => {
                let head = s.head.map(|h| (h.seq, h.op, h.dispatched, h.completed));
                write!(
                    f,
                    "core {} wedged at cycle {}: head {:?} (no commit for > {} cycles); {}",
                    s.core_id, s.cycle, head, horizon, s
                )
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> PipelineSnapshot {
        PipelineSnapshot {
            cycle: 1_234,
            core_id: 3,
            rob_len: 12,
            rob_capacity: 64,
            next_seq: 100,
            committed: 88,
            head: Some(HeadInstr {
                seq: 88,
                op: OpClass::Load,
                dispatched: true,
                completed: false,
            }),
            rs: [
                RsOccupancy {
                    kind: RsKind::Rse,
                    occupancy: 3,
                    capacity: 16,
                },
                RsOccupancy {
                    kind: RsKind::Rsf,
                    occupancy: 0,
                    capacity: 16,
                },
                RsOccupancy {
                    kind: RsKind::Rsa,
                    occupancy: 4,
                    capacity: 10,
                },
                RsOccupancy {
                    kind: RsKind::Rsbr,
                    occupancy: 1,
                    capacity: 6,
                },
            ],
            loads_in_flight: 2,
            load_queue: 16,
            stores_in_flight: 0,
            store_queue: 10,
            fetch_queue_len: 8,
            last_commit_cycle: 200,
        }
    }

    #[test]
    fn wedge_message_names_core_cycle_and_head() {
        let err = CoreError {
            fault: CoreFault::Wedged { horizon: 1_000_000 },
            snapshot: snapshot(),
        };
        let msg = err.to_string();
        assert!(msg.contains("core 3 wedged at cycle 1234"), "got: {msg}");
        assert!(msg.contains("Load"), "head op must be shown: {msg}");
        assert!(msg.contains("window 12/64"), "got: {msg}");
        assert!(msg.contains("RSA 4/10"), "got: {msg}");
    }
}
