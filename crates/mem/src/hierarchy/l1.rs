//! The first level: the TLBs and the L1 instruction and operand caches —
//! the entry points the core calls, timed and warm.

use super::{DataAccess, FetchAccess, MemorySystem};
use crate::addr::line_of;

impl MemorySystem {
    /// Instruction fetch of the line containing `pc` at cycle `now`.
    pub fn fetch(&mut self, core: usize, pc: u64, now: u64) -> FetchAccess {
        self.warm_epoch += 1; // timed activity invalidates the warm memos
        let tlb_miss = if self.cfg.perfect_tlb {
            false
        } else {
            let miss = !self.cores[core].itlb.access(pc);
            self.cores[core].stats.itlb.record(!miss);
            miss
        };
        let t = now
            + if tlb_miss {
                self.cfg.tlb_walk_cycles as u64
            } else {
                0
            };
        let lat = self.cfg.l1i.latency as u64;

        if self.cfg.perfect_l1 {
            self.cores[core].stats.l1i.record(true);
            return FetchAccess {
                ready_at: t + lat,
                l1_hit: true,
                l2_hit: true,
                tlb_miss,
            };
        }

        let line = line_of(pc);
        let hit = self.cores[core].l1i.access(pc);
        self.cores[core].stats.l1i.record(hit);
        if hit {
            let mut ready = t + lat;
            if let Some(p) = self.cores[core].l1i_mshr.pending_completion(line) {
                ready = ready.max(p);
            }
            return FetchAccess {
                ready_at: ready,
                l1_hit: true,
                l2_hit: true,
                tlb_miss,
            };
        }

        // Primary L1I miss: request the line from the L2.
        let miss_seen_at = t + lat;
        if let Some(p) = self.cores[core].l1i_mshr.pending_completion(line) {
            // In-flight fill for a line evicted before its data landed.
            self.cores[core].l1i.fill(pc, false);
            self.note_merged_fill(core, line);
            return FetchAccess {
                ready_at: p.max(miss_seen_at),
                l1_hit: false,
                l2_hit: true,
                tlb_miss,
            };
        }
        let stall_until = self.cores[core].l1i_mshr.next_free_at(miss_seen_at);
        self.cores[core].l1i_mshr.retire_completed(stall_until);
        let fill = self.fill_l2(core, line, stall_until, false, false);
        self.cores[core].l1i_mshr.allocate(line, fill.ready_at);
        if let Some(ev) = self.cores[core].l1i.fill(pc, false) {
            // Instruction lines are never dirty; nothing to write back.
            debug_assert!(!ev.dirty);
        }
        FetchAccess {
            ready_at: fill.ready_at,
            l1_hit: false,
            l2_hit: fill.hit,
            tlb_miss,
        }
    }

    /// Data load from `addr` at cycle `now`.
    pub fn load(&mut self, core: usize, addr: u64, now: u64) -> DataAccess {
        let access = self.data_access(core, addr, now, false);
        self.cores[core]
            .stats
            .record_load_latency(access.ready_at.saturating_sub(now));
        access
    }

    /// Data store to `addr` at cycle `now` (write-allocate, copy-back).
    pub fn store(&mut self, core: usize, addr: u64, now: u64) -> DataAccess {
        self.data_access(core, addr, now, true)
    }

    fn data_access(&mut self, core: usize, addr: u64, now: u64, is_store: bool) -> DataAccess {
        self.warm_epoch += 1; // timed activity invalidates the warm memos
        let tlb_miss = if self.cfg.perfect_tlb {
            false
        } else {
            let miss = !self.cores[core].dtlb.access(addr);
            self.cores[core].stats.dtlb.record(!miss);
            miss
        };
        let t = now
            + if tlb_miss {
                self.cfg.tlb_walk_cycles as u64
            } else {
                0
            };
        let lat = self.cfg.l1d.latency as u64;

        if self.cfg.perfect_l1 {
            self.record_l1d(core, true, is_store);
            return DataAccess {
                ready_at: t + lat,
                l1_hit: true,
                l2_hit: true,
                tlb_miss,
                mshr_wait: false,
                bus_wait: false,
            };
        }

        let line = line_of(addr);
        let hit = self.cores[core].l1d.access(addr);
        self.record_l1d(core, hit, is_store);

        if hit {
            if is_store {
                self.cores[core].l1d.mark_dirty(addr);
            }
            let mut ready = t + lat;
            if let Some(p) = self.cores[core].l1d_mshr.pending_completion(line) {
                ready = ready.max(p);
            }
            if is_store && self.smp {
                ready = self.ensure_ownership(core, line, ready);
            }
            return DataAccess {
                ready_at: ready,
                l1_hit: true,
                l2_hit: true,
                tlb_miss,
                mshr_wait: false,
                bus_wait: false,
            };
        }

        // Primary L1D miss.
        let miss_seen_at = t + lat;
        if let Some(p) = self.cores[core].l1d_mshr.pending_completion(line) {
            // In-flight fill for a line evicted before its data landed.
            self.cores[core].l1d.fill(addr, is_store);
            let mut ready = p.max(miss_seen_at);
            if is_store && self.smp {
                ready = self.ensure_ownership(core, line, ready);
            }
            self.note_merged_fill(core, line);
            return DataAccess {
                ready_at: ready,
                l1_hit: false,
                l2_hit: true,
                tlb_miss,
                mshr_wait: false,
                bus_wait: false,
            };
        }
        let stall_until = self.cores[core].l1d_mshr.next_free_at(miss_seen_at);
        let l1_mshr_wait = stall_until > miss_seen_at;
        self.cores[core].l1d_mshr.retire_completed(stall_until);
        let fill = self.fill_l2(core, line, stall_until, is_store, false);
        self.cores[core].l1d_mshr.allocate(line, fill.ready_at);
        if let Some(ev) = self.cores[core].l1d.fill(addr, is_store) {
            if ev.dirty {
                // Copy-back into the (inclusive) L2: structural only; the
                // L2 either holds the line or absorbs it as a dirty fill.
                if !self.cores[core].l2.mark_dirty(ev.line_addr) {
                    self.absorb_orphan_writeback(core, ev.line_addr, fill.ready_at);
                }
            }
        }

        // The demand miss triggers the hardware prefetcher (§3.4).
        if self.cfg.prefetch_enabled {
            let requests = self.cores[core].prefetcher.on_demand_miss(addr);
            for pf_addr in requests {
                self.issue_prefetch(core, pf_addr, miss_seen_at);
            }
        }

        DataAccess {
            ready_at: fill.ready_at,
            l1_hit: false,
            l2_hit: fill.hit,
            tlb_miss,
            mshr_wait: l1_mshr_wait || fill.mshr_wait,
            bus_wait: fill.bus_wait,
        }
    }

    fn record_l1d(&mut self, core: usize, hit: bool, is_store: bool) {
        let stats = &mut self.cores[core].stats;
        stats.l1d.record(hit);
        if is_store {
            stats.l1d_stores.record(hit);
        } else {
            stats.l1d_loads.record(hit);
        }
    }

    // ----- functional warming --------------------------------------------
    //
    // The paper traces workloads only after they reach steady state
    // (§2.2). These structural-only accesses replay a warm-up prefix into
    // the caches, TLBs, prefetch engines and directory without charging
    // any timing or statistics, so the timed portion starts warm.

    /// Warms the instruction side with a fetch of `pc` (no timing, no
    /// statistics).
    ///
    /// Consecutive fetches of one line — the overwhelmingly common case
    /// for sequential code — are collapsed to a memo check: a repeat
    /// access would only refresh the LRU stamps of the already-MRU TLB
    /// page and L1I line, and stamps are compared only by order, so
    /// skipping the refresh leaves every future replacement decision
    /// (and therefore all observable behaviour) unchanged.
    pub fn warm_fetch(&mut self, core: usize, pc: u64) {
        let line = line_of(pc);
        if self.cores[core].warm_fetch_memo == Some((line, self.warm_epoch)) {
            return;
        }
        if !self.cfg.perfect_tlb {
            self.cores[core].itlb.access(pc);
        }
        if self.cfg.perfect_l1 {
            return;
        }
        if !self.cores[core].l1i.access(pc) {
            self.warm_l2(core, line, false);
            self.cores[core].l1i.fill(pc, false);
        }
        // The line is now resident and most-recently-used (the epoch is
        // re-read: a warm_l2 eviction above may have bumped it).
        self.cores[core].warm_fetch_memo = Some((line, self.warm_epoch));
    }

    /// Warms the data side with an access to `addr`.
    ///
    /// Repeats of the previous access's line are collapsed like
    /// [`MemorySystem::warm_fetch`]; a store is only skipped if an
    /// earlier store already dirtied the line (and, under SMP, acquired
    /// ownership), so the skip has no side effects left to perform.
    pub fn warm_data(&mut self, core: usize, addr: u64, is_store: bool) {
        let line = line_of(addr);
        if let Some((l, had_store, epoch)) = self.cores[core].warm_data_memo {
            if l == line && epoch == self.warm_epoch && (had_store || !is_store) {
                return;
            }
        }
        if !self.cfg.perfect_tlb {
            self.cores[core].dtlb.access(addr);
        }
        if self.cfg.perfect_l1 {
            return;
        }
        if self.cores[core].l1d.access(addr) {
            if is_store {
                self.cores[core].l1d.mark_dirty(addr);
                if self.smp {
                    self.warm_ownership(core, line);
                }
            }
            self.cores[core].warm_data_memo = Some((line, is_store, self.warm_epoch));
            return;
        }
        self.warm_l2(core, line, is_store);
        if let Some(ev) = self.cores[core].l1d.fill(addr, is_store) {
            if ev.dirty {
                self.cores[core].l2.mark_dirty(ev.line_addr);
            }
        }
        if self.cfg.prefetch_enabled {
            let requests = self.cores[core].prefetcher.on_demand_miss(addr);
            for pf_addr in requests {
                let pf_line = line_of(pf_addr);
                let already_cached = self.cores[core].l2.contains(pf_line);
                let remotely_owned = self.smp && self.any_remote_valid(core, pf_line);
                if !already_cached && !remotely_owned {
                    self.warm_l2(core, pf_line, false);
                    self.cores[core].prefetched_lines.insert(pf_line);
                }
            }
        }
        // Prefetch-triggered L2 evictions can (rarely) knock the line
        // back out of the L1 through inclusion; only memoise residency.
        self.cores[core].warm_data_memo = if self.cores[core].l1d.contains(addr) {
            Some((line, is_store, self.warm_epoch))
        } else {
            None
        };
    }
}
