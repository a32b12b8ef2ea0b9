//! Past the L2: the backplane bus, the per-board local buses of a
//! hierarchical topology, and main memory.

use super::{MemorySystem, BUS_LOG_CAP};
use crate::bus::{BusGrant, BusOp};
use crate::config::BusTopology;
use s64v_observe::{BusId, BusTransfer};

impl MemorySystem {
    pub(super) fn board_of(&self, core: usize) -> Option<usize> {
        match self.cfg.bus_topology {
            BusTopology::Flat => None,
            BusTopology::Hierarchical { cpus_per_board, .. } => {
                Some(core / cpus_per_board as usize)
            }
        }
    }

    pub(super) fn board_crossing(&self) -> u64 {
        match self.cfg.bus_topology {
            BusTopology::Flat => 0,
            BusTopology::Hierarchical {
                board_crossing_cycles,
                ..
            } => board_crossing_cycles as u64,
        }
    }

    /// Backplane-bus request; logged while [`MemorySystem::log_bus`] is on.
    pub(super) fn req_backplane(&mut self, t: u64, op: BusOp, window: u64) -> BusGrant {
        let g = self.bus.request(t, op, window);
        self.bus_queued |= g.granted_at > t;
        self.log_transfer(BusId::Backplane, t, op, g);
        g
    }

    /// Board-local bus request; logged while [`MemorySystem::log_bus`] is on.
    pub(super) fn req_board(&mut self, board: usize, t: u64, op: BusOp, window: u64) -> BusGrant {
        let g = self.boards[board].request(t, op, window);
        self.bus_queued |= g.granted_at > t;
        self.log_transfer(BusId::Board(board as u8), t, op, g);
        g
    }

    fn log_transfer(&mut self, bus: BusId, requested_at: u64, op: BusOp, g: BusGrant) {
        if let Some(log) = self.bus_log.as_mut().filter(|l| l.len() < BUS_LOG_CAP) {
            log.push(BusTransfer {
                bus,
                requested_at,
                line_transfer: op == BusOp::LineTransfer,
                granted_at: g.granted_at,
                done_at: g.done_at,
            });
        }
    }

    pub(super) fn miss_from_memory(
        &mut self,
        core: usize,
        line_addr: u64,
        t: u64,
        snoop: u64,
    ) -> u64 {
        let round_trip = snoop + self.cfg.dram_latency as u64 + self.cfg.bus_line_cycles as u64;
        match self.board_of(core) {
            None => {
                let cmd = self.req_backplane(t, BusOp::Command, round_trip);
                let mem_done = self.dram.access(cmd.done_at + snoop, line_addr);
                let data = self.req_backplane(mem_done, BusOp::LineTransfer, 0);
                data.done_at
            }
            Some(board) => {
                // Request: board bus, crossing, backplane; data comes back
                // the same way.
                let crossing = self.board_crossing();
                let cmd = self.req_board(board, t, BusOp::Command, round_trip);
                let bp_cmd = self.req_backplane(cmd.done_at + crossing, BusOp::Command, round_trip);
                let mem_done = self.dram.access(bp_cmd.done_at + snoop, line_addr);
                let bp_data = self.req_backplane(mem_done, BusOp::LineTransfer, 0);
                let data =
                    self.req_board(board, bp_data.done_at + crossing, BusOp::LineTransfer, 0);
                data.done_at
            }
        }
    }
}
