//! The MESI glue between the private hierarchies and the directory:
//! coherent L2 misses, move-outs, ownership upgrades and the
//! invalidations they send, timed and warm.

use super::MemorySystem;
use crate::bus::BusOp;
use crate::coherence::{Mesi, ReadOutcome};

impl MemorySystem {
    pub(super) fn miss_coherent(
        &mut self,
        core: usize,
        line_addr: u64,
        t: u64,
        write_intent: bool,
    ) -> u64 {
        let snoop = self.cfg.snoop_latency as u64;
        if write_intent {
            let w = self.dir.write(core, line_addr);
            self.cores[core]
                .stats
                .coherence
                .invalidations_caused
                .add(w.invalidations as u64);
            self.invalidate_remote_copies(core, line_addr);
            if let Some(owner) = w.move_out_from {
                self.cores[owner].stats.coherence.move_outs_out.incr();
                self.cores[core].stats.coherence.move_outs_in.incr();
                self.move_out_transfer(core, owner, t)
            } else {
                self.miss_from_memory(core, line_addr, t, snoop)
            }
        } else {
            match self.dir.read(core, line_addr) {
                ReadOutcome::FromMemory | ReadOutcome::SharedFill => {
                    self.miss_from_memory(core, line_addr, t, snoop)
                }
                ReadOutcome::MoveOut { owner } => {
                    self.cores[owner].stats.coherence.move_outs_out.incr();
                    self.cores[core].stats.coherence.move_outs_in.incr();
                    // The owner keeps a now-clean copy (M→S downgrade).
                    self.cores[owner].l2.mark_clean(line_addr);
                    self.cores[owner].l1d.invalidate(line_addr);
                    self.move_out_transfer(core, owner, t)
                }
            }
        }
    }

    pub(super) fn move_out_transfer(&mut self, requester: usize, owner: usize, t: u64) -> u64 {
        let snoop = self.cfg.snoop_latency as u64;
        let supply = self.cfg.move_out_latency as u64;
        match (self.board_of(requester), self.board_of(owner)) {
            (Some(rb), Some(ob)) if rb != ob => {
                // Cross-board move-out: request and data traverse the
                // backplane and both board buses (§3.3's costly case).
                let crossing = self.board_crossing();
                let cmd = self.req_board(rb, t, BusOp::Command, snoop + supply);
                let bp = self.req_backplane(cmd.done_at + crossing, BusOp::Command, snoop + supply);
                let remote = self.req_board(
                    ob,
                    bp.done_at + crossing + snoop + supply,
                    BusOp::LineTransfer,
                    0,
                );
                let back = self.req_backplane(remote.done_at + crossing, BusOp::LineTransfer, 0);
                let data = self.req_board(rb, back.done_at + crossing, BusOp::LineTransfer, 0);
                data.done_at
            }
            (Some(rb), _) => {
                // Same board: the local bus handles it entirely.
                let cmd = self.req_board(rb, t, BusOp::Command, snoop + supply);
                let data = self.req_board(rb, cmd.done_at + snoop + supply, BusOp::LineTransfer, 0);
                data.done_at
            }
            (None, _) => {
                let cmd = self.req_backplane(t, BusOp::Command, snoop + supply);
                let data = self.req_backplane(cmd.done_at + snoop + supply, BusOp::LineTransfer, 0);
                data.done_at
            }
        }
    }

    /// Invalidates the structural copies of `line_addr` in the CPUs whose
    /// directory states the `Directory::write` by `core` just cleared —
    /// a CPU fills its caches only through the directory, so no other can
    /// hold the line — and in the few the directory cannot vouch for.
    pub(super) fn invalidate_remote_copies(&mut self, core: usize, line_addr: u64) {
        self.warm_epoch += 1; // remote structures change under the memos
        for &i in self.dir.invalidated().iter().chain(&self.untracked) {
            if i != core {
                self.cores[i].l2.invalidate(line_addr);
                self.cores[i].l1d.invalidate(line_addr);
                self.cores[i].l1i.invalidate(line_addr);
            }
        }
        debug_assert!(
            self.cores.iter().enumerate().all(|(i, c)| i == core
                || !(c.l2.contains(line_addr)
                    || c.l1d.contains(line_addr)
                    || c.l1i.contains(line_addr))),
            "a CPU the directory did not list still holds line {line_addr:#x}"
        );
    }

    /// `core` just re-filled `line_addr` by merging with its own in-flight
    /// fill; unless the directory still records it as a holder, its
    /// copies are from now on found only by sweeping it.
    pub(super) fn note_merged_fill(&mut self, core: usize, line_addr: u64) {
        if self.smp
            && !self.dir.state(core, line_addr).is_valid()
            && !self.untracked.contains(&core)
        {
            self.untracked.push(core);
        }
    }

    /// A store hit a line this CPU holds but may not own: acquire ownership
    /// (S→M / E→M upgrade), invalidating remote copies.
    pub(super) fn ensure_ownership(&mut self, core: usize, line_addr: u64, ready: u64) -> u64 {
        match self.dir.state(core, line_addr) {
            Mesi::Modified => ready,
            Mesi::Exclusive => {
                // Silent E→M upgrade.
                self.dir.write(core, line_addr);
                ready
            }
            Mesi::Shared | Mesi::Invalid => {
                let w = self.dir.write(core, line_addr);
                self.cores[core].stats.coherence.upgrades.incr();
                self.cores[core]
                    .stats
                    .coherence
                    .invalidations_caused
                    .add(w.invalidations as u64);
                self.invalidate_remote_copies(core, line_addr);
                let snoop = self.cfg.snoop_latency as u64;
                if let Some(owner) = w.move_out_from {
                    self.cores[owner].stats.coherence.move_outs_out.incr();
                    self.cores[core].stats.coherence.move_outs_in.incr();
                    self.move_out_transfer(core, owner, ready)
                } else {
                    // An address-only transaction: the invalidation
                    // broadcast — or, with nothing left to invalidate
                    // (the directory lost the line to an earlier remote
                    // write racing this store), the approximated cost of
                    // the refetch.
                    let cmd = self.req_backplane(ready, BusOp::Command, snoop);
                    cmd.done_at + snoop
                }
            }
        }
    }

    pub(super) fn warm_ownership(&mut self, core: usize, line_addr: u64) {
        if self.dir.state(core, line_addr) != Mesi::Modified {
            let w = self.dir.write(core, line_addr);
            if w.invalidations > 0 {
                self.invalidate_remote_copies(core, line_addr);
            }
        }
    }

    pub(super) fn any_remote_valid(&self, core: usize, line_addr: u64) -> bool {
        (0..self.cores.len())
            .filter(|&i| i != core)
            .any(|i| self.dir.state(i, line_addr).is_valid())
    }
}
