//! The split-transaction system bus.
//!
//! The paper's model covers "a request queue, bus conflict, bandwidth, and
//! latency" (§2.1). The bus is *split transaction*: an address/command
//! phase and a later data phase each occupy the bus only for their own
//! duration; the memory round trip in between leaves the bus free for
//! other requests. We therefore model the bus as a set of reserved busy
//! intervals — a request is granted at the earliest gap that fits its
//! occupancy — plus a bound on outstanding transactions; both queuing
//! effects surface in the returned grant times.

use s64v_stats::Counter;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What a bus transaction carries, which determines its occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusOp {
    /// A full cache-line transfer (fill, copy-back, move-out data).
    LineTransfer,
    /// An address-only command (request, upgrade, invalidation).
    Command,
}

/// Outcome of a bus request: when it was granted and when it releases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusGrant {
    /// Cycle the transaction gained the bus.
    pub granted_at: u64,
    /// Cycle the bus phase completes.
    pub done_at: u64,
}

/// How far behind the maximum observed time a reservation can still be
/// requested (writebacks are scheduled at future fill times, so requests
/// are not strictly time-ordered). Intervals older than this are pruned.
const PRUNE_SLACK: u64 = 100_000;

/// The shared system bus.
#[derive(Debug, Clone)]
pub struct SystemBus {
    line_cycles: u32,
    cmd_cycles: u32,
    outstanding_limit: u32,
    /// Reserved busy intervals, sorted by start, disjoint.
    busy: Vec<(u64, u64)>,
    /// Completion times of outstanding transactions (full round trips).
    outstanding: BinaryHeap<Reverse<u64>>,
    max_now: u64,
    transactions: Counter,
    cmd_transactions: Counter,
    line_transactions: Counter,
    busy_cycles: Counter,
    queue_delay_cycles: Counter,
}

impl SystemBus {
    /// Creates a bus with the given occupancies and outstanding limit.
    ///
    /// # Panics
    ///
    /// Panics if `outstanding_limit` is zero.
    pub fn new(line_cycles: u32, cmd_cycles: u32, outstanding_limit: u32) -> Self {
        assert!(
            outstanding_limit > 0,
            "bus needs a positive outstanding window"
        );
        SystemBus {
            line_cycles,
            cmd_cycles,
            outstanding_limit,
            busy: Vec::new(),
            outstanding: BinaryHeap::new(),
            max_now: 0,
            transactions: Counter::new(),
            cmd_transactions: Counter::new(),
            line_transactions: Counter::new(),
            busy_cycles: Counter::new(),
            queue_delay_cycles: Counter::new(),
        }
    }

    fn occupancy(&self, op: BusOp) -> u64 {
        match op {
            BusOp::LineTransfer => self.line_cycles as u64,
            BusOp::Command => self.cmd_cycles as u64,
        }
    }

    fn prune(&mut self) {
        let horizon = self.max_now.saturating_sub(PRUNE_SLACK);
        // Intervals are disjoint and sorted by start, so their ends are
        // sorted too and the stale set is exactly a prefix. Checking the
        // head makes the common nothing-to-prune call O(1) instead of a
        // full `retain` walk.
        match self.busy.first() {
            Some(&(_, end)) if end < horizon => {
                let cut = self.busy.partition_point(|&(_, end)| end < horizon);
                self.busy.drain(..cut);
            }
            _ => {}
        }
    }

    /// Finds the earliest start `>= from` where `occ` cycles fit between
    /// reserved intervals, and reserves it.
    fn reserve(&mut self, from: u64, occ: u64) -> u64 {
        let mut start = from;
        let mut idx = self.busy.partition_point(|&(s, _)| s < start);
        // The previous interval may still overlap `start`.
        if idx > 0 && self.busy[idx - 1].1 > start {
            start = self.busy[idx - 1].1;
        }
        while idx < self.busy.len() && start + occ > self.busy[idx].0 {
            start = start.max(self.busy[idx].1);
            idx += 1;
        }
        self.busy.insert(idx, (start, start + occ));
        start
    }

    /// Requests the bus at `now` for `op`; `completes_at_offset` is when
    /// the whole transaction (e.g. the memory round trip it starts)
    /// retires from the outstanding window, measured from the grant.
    ///
    /// Returns the grant: `granted_at >= now` reflects both bus-busy time
    /// and outstanding-window stalls.
    pub fn request(&mut self, now: u64, op: BusOp, completes_at_offset: u64) -> BusGrant {
        self.max_now = self.max_now.max(now);
        self.prune();

        // Drain outstanding transactions that retired by `now`.
        while let Some(&Reverse(done)) = self.outstanding.peek() {
            if done <= now {
                self.outstanding.pop();
            } else {
                break;
            }
        }
        let mut earliest = now;
        // If the outstanding window is full, wait for the oldest to retire.
        while self.outstanding.len() as u32 >= self.outstanding_limit {
            let Reverse(done) = self.outstanding.pop().expect("full window is non-empty");
            earliest = earliest.max(done);
        }

        let occ = self.occupancy(op);
        let granted_at = self.reserve(earliest, occ);
        let done_at = granted_at + occ;
        self.outstanding
            .push(Reverse(granted_at + completes_at_offset.max(occ)));
        self.transactions.incr();
        match op {
            BusOp::Command => self.cmd_transactions.incr(),
            BusOp::LineTransfer => self.line_transactions.incr(),
        }
        self.busy_cycles.add(occ);
        self.queue_delay_cycles.add(granted_at - now);
        BusGrant {
            granted_at,
            done_at,
        }
    }

    /// Total transactions granted.
    pub fn transactions(&self) -> u64 {
        self.transactions.get()
    }

    /// Command-phase transactions granted.
    pub fn cmd_transactions(&self) -> u64 {
        self.cmd_transactions.get()
    }

    /// Line-transfer transactions granted.
    pub fn line_transactions(&self) -> u64 {
        self.line_transactions.get()
    }

    /// Occupancy one command-phase transaction books on the bus. Every
    /// grant books exactly its op's occupancy, so
    /// `busy_cycles == cmd_occupancy * cmd_transactions +
    /// line_occupancy * line_transactions` is an exact conservation law of
    /// the model (audited in checked mode).
    pub fn cmd_occupancy(&self) -> u64 {
        self.cmd_cycles as u64
    }

    /// Occupancy one line-transfer transaction books on the bus.
    pub fn line_occupancy(&self) -> u64 {
        self.line_cycles as u64
    }

    /// Total cycles the bus spent occupied.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles.get()
    }

    /// Total cycles requests waited for the bus or the outstanding window.
    pub fn queue_delay_cycles(&self) -> u64 {
        self.queue_delay_cycles.get()
    }

    /// Bus utilization over `elapsed` cycles (0..=1).
    pub fn utilization(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.busy_cycles.get() as f64 / elapsed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SystemBus {
        /// Counts a grant that never booked its occupancy.
        pub(crate) fn lose_grant(&mut self) {
            self.transactions.incr();
        }
    }

    #[test]
    fn back_to_back_requests_serialize() {
        let mut bus = SystemBus::new(16, 4, 8);
        let a = bus.request(0, BusOp::LineTransfer, 100);
        let b = bus.request(0, BusOp::LineTransfer, 100);
        assert_eq!(a.granted_at, 0);
        assert_eq!(a.done_at, 16);
        assert_eq!(b.granted_at, 16, "second request waits for the bus");
        assert_eq!(bus.queue_delay_cycles(), 16);
    }

    #[test]
    fn split_transaction_gap_is_usable() {
        let mut bus = SystemBus::new(16, 4, 8);
        // Command now, data phase ~300 cycles later.
        let cmd = bus.request(0, BusOp::Command, 316);
        assert_eq!(cmd.done_at, 4);
        let data = bus.request(300, BusOp::LineTransfer, 16);
        assert_eq!(data.granted_at, 300);
        // Another CPU's command in the gap must NOT wait for the data phase.
        let other = bus.request(10, BusOp::Command, 316);
        assert_eq!(other.granted_at, 10, "bus is free between split phases");
    }

    #[test]
    fn reservations_respect_future_intervals() {
        let mut bus = SystemBus::new(16, 4, 8);
        // A data phase reserved at [300, 316).
        bus.request(300, BusOp::LineTransfer, 16);
        // A long request at 290 cannot fit before 300 (only 10 free), so it
        // lands after the reservation.
        let g = bus.request(290, BusOp::LineTransfer, 16);
        assert_eq!(g.granted_at, 316);
        // A short command fits in the gap before the reservation.
        let g = bus.request(290, BusOp::Command, 4);
        assert_eq!(g.granted_at, 290);
    }

    #[test]
    fn idle_bus_grants_immediately() {
        let mut bus = SystemBus::new(16, 4, 8);
        bus.request(0, BusOp::LineTransfer, 50);
        let later = bus.request(100, BusOp::Command, 10);
        assert_eq!(later.granted_at, 100);
        assert_eq!(later.done_at, 104);
    }

    #[test]
    fn outstanding_window_throttles() {
        let mut bus = SystemBus::new(1, 1, 2);
        bus.request(0, BusOp::Command, 500);
        bus.request(1, BusOp::Command, 500);
        let g = bus.request(2, BusOp::Command, 500);
        assert!(
            g.granted_at >= 500,
            "granted at {} but window was full",
            g.granted_at
        );
    }

    #[test]
    fn utilization_accumulates() {
        let mut bus = SystemBus::new(10, 2, 8);
        bus.request(0, BusOp::LineTransfer, 10);
        bus.request(50, BusOp::Command, 2);
        assert_eq!(bus.transactions(), 2);
        assert_eq!(bus.busy_cycles(), 12);
        assert!((bus.utilization(100) - 0.12).abs() < 1e-12);
    }

    #[test]
    fn old_intervals_are_pruned() {
        let mut bus = SystemBus::new(16, 4, 8);
        for i in 0..1000u64 {
            bus.request(i * 1000, BusOp::LineTransfer, 16);
        }
        assert!(
            bus.busy.len() < 200,
            "busy list must be pruned, got {}",
            bus.busy.len()
        );
    }
}
