//! Core pipeline statistics.

use s64v_observe::CpiStack;
use s64v_stats::{Counter, Histogram, Ratio};

/// Why decode stalled (first blocking resource wins, checked in pipeline
/// order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeStall {
    /// Instruction window (ROB) full.
    Window,
    /// Renaming registers exhausted.
    Rename,
    /// Target reservation station full.
    ReservationStation,
    /// Load queue full.
    LoadQueue,
    /// Store queue full.
    StoreQueue,
}

/// Where a zero-commit cycle's blame lands (head-of-window attribution —
/// an online alternative to the paper's idealized-model breakdown, §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// Instructions retired this cycle (not a stall).
    Busy,
    /// Window head is a load waiting on an off-chip (L2-miss) fill.
    L2Miss,
    /// Window head is a load waiting on an L1-miss/L2-hit fill.
    L1Miss,
    /// Window head is executing (or waiting to finish executing).
    Execute,
    /// Window head sits in a reservation station waiting for operands.
    Dispatch,
    /// Window empty because fetch is stalled on a mispredicted branch.
    FrontendBranch,
    /// Window empty for any other front-end reason (I-miss, bubbles).
    FrontendFetch,
}

/// Per-cause cycle counts for the online CPI stack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallCycles {
    /// Cycles with at least one commit.
    pub busy: Counter,
    /// Cycles blamed on L2-miss data waits.
    pub l2_miss: Counter,
    /// Cycles blamed on L1-miss data waits.
    pub l1_miss: Counter,
    /// Cycles blamed on execution latency.
    pub execute: Counter,
    /// Cycles blamed on operand waits in the reservation stations.
    pub dispatch: Counter,
    /// Cycles blamed on mispredicted-branch fetch stalls.
    pub frontend_branch: Counter,
    /// Cycles blamed on other front-end starvation.
    pub frontend_fetch: Counter,
}

impl StallCycles {
    /// Records `n` cycles of identical blame (one for a stepped cycle,
    /// many when a quiescent stretch is slept through in one jump).
    pub fn record_n(&mut self, cause: StallCause, n: u64) {
        match cause {
            StallCause::Busy => self.busy.add(n),
            StallCause::L2Miss => self.l2_miss.add(n),
            StallCause::L1Miss => self.l1_miss.add(n),
            StallCause::Execute => self.execute.add(n),
            StallCause::Dispatch => self.dispatch.add(n),
            StallCause::FrontendBranch => self.frontend_branch.add(n),
            StallCause::FrontendFetch => self.frontend_fetch.add(n),
        }
    }
}

/// Statistics collected by one core.
#[derive(Debug, Clone)]
pub struct CoreStats {
    /// Cycles simulated.
    pub cycles: Counter,
    /// Instructions committed.
    pub committed: Counter,
    /// Fetch groups brought in from the L1I.
    pub fetch_groups: Counter,
    /// Conditional branches resolved.
    pub cond_branches: Counter,
    /// Conditional branches mispredicted.
    pub mispredicts: Counter,
    /// Dispatches cancelled and replayed (speculative dispatch, §3.1).
    pub replays: Counter,
    /// L1 operand cache bank conflicts (aborted second requests, §3.2).
    pub bank_conflicts: Counter,
    /// Store-to-load forwards from the store queue.
    pub store_forwards: Counter,
    /// Wrong-path fetch blocks brought in while mispredicted branches
    /// were pending (only with `wrong_path_fetch`).
    pub wrong_path_fetches: Counter,
    /// Decode stalls by cause.
    pub stall_window: Counter,
    /// Decode stalls: rename registers.
    pub stall_rename: Counter,
    /// Decode stalls: reservation stations.
    pub stall_rs: Counter,
    /// Decode stalls: load queue.
    pub stall_lq: Counter,
    /// Decode stalls: store queue.
    pub stall_sq: Counter,
    /// Instruction-window occupancy sampled each cycle.
    pub window_occupancy: Histogram,
    /// Load-queue occupancy sampled each cycle.
    pub lq_occupancy: Histogram,
    /// Store-queue occupancy sampled each cycle.
    pub sq_occupancy: Histogram,
    /// Online CPI-stack attribution (head-of-window blame per cycle).
    pub stall_cycles: StallCycles,
    /// Top-down hierarchical CPI accounting: every cycle attributed to
    /// exactly one taxonomy leaf (`s64v-observe::cpi`). Conservation
    /// (`cpi.total() == cycles`) is audited in checked mode.
    pub cpi: CpiStack,
}

impl CoreStats {
    /// Creates zeroed statistics for a window of `window` entries and
    /// load/store queues of the given sizes.
    pub fn new(window: u32, lq: u32, sq: u32) -> Self {
        CoreStats {
            cycles: Counter::new(),
            committed: Counter::new(),
            fetch_groups: Counter::new(),
            cond_branches: Counter::new(),
            mispredicts: Counter::new(),
            replays: Counter::new(),
            bank_conflicts: Counter::new(),
            store_forwards: Counter::new(),
            wrong_path_fetches: Counter::new(),
            stall_window: Counter::new(),
            stall_rename: Counter::new(),
            stall_rs: Counter::new(),
            stall_lq: Counter::new(),
            stall_sq: Counter::new(),
            window_occupancy: Histogram::new(window as u64),
            lq_occupancy: Histogram::new(lq as u64),
            sq_occupancy: Histogram::new(sq as u64),
            stall_cycles: StallCycles::default(),
            cpi: CpiStack::default(),
        }
    }

    /// Records `n` identical decode stalls (one for a stepped cycle, many
    /// when a quiescent stretch is slept through in one jump).
    pub fn record_stall_n(&mut self, cause: DecodeStall, n: u64) {
        match cause {
            DecodeStall::Window => self.stall_window.add(n),
            DecodeStall::Rename => self.stall_rename.add(n),
            DecodeStall::ReservationStation => self.stall_rs.add(n),
            DecodeStall::LoadQueue => self.stall_lq.add(n),
            DecodeStall::StoreQueue => self.stall_sq.add(n),
        }
    }

    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles.get() == 0 {
            0.0
        } else {
            self.committed.get() as f64 / self.cycles.get() as f64
        }
    }

    /// Branch misprediction ratio.
    pub fn mispredict_ratio(&self) -> Ratio {
        Ratio::of(self.mispredicts.get(), self.cond_branches.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_is_safe_when_idle() {
        let s = CoreStats::new(64, 16, 10);
        assert_eq!(s.ipc(), 0.0);
    }

    #[test]
    fn ipc_computes() {
        let mut s = CoreStats::new(64, 16, 10);
        s.cycles.add(100);
        s.committed.add(150);
        assert!((s.ipc() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn stall_causes_are_separated() {
        let mut s = CoreStats::new(64, 16, 10);
        s.record_stall_n(DecodeStall::Window, 1);
        s.record_stall_n(DecodeStall::StoreQueue, 2);
        assert_eq!(s.stall_window.get(), 1);
        assert_eq!(s.stall_sq.get(), 2);
        assert_eq!(s.stall_rename.get(), 0);
    }
}
