//! The second level: the L2, its MSHR file, copy-backs out of it and
//! the hardware prefetcher it feeds, timed and warm.

use super::MemorySystem;
use crate::addr::line_of;
use crate::bus::BusOp;
use crate::coherence::ReadOutcome;

#[derive(Debug, Clone, Copy)]
pub(super) struct L2Fill {
    pub(super) ready_at: u64,
    pub(super) hit: bool,
    /// The fill stalled for an L2 MSHR (blame metadata).
    pub(super) mshr_wait: bool,
    /// A bus request on the fill path queued (blame metadata).
    pub(super) bus_wait: bool,
}

impl MemorySystem {
    /// A dirty L1 line was evicted but its line is no longer in the L2
    /// (the L2 evicted it earlier without back-invalidation taking effect,
    /// which cannot happen when inclusion is maintained, but is handled
    /// defensively): push it to memory.
    pub(super) fn absorb_orphan_writeback(&mut self, core: usize, line_addr: u64, now: u64) {
        self.cores[core].stats.writebacks.incr();
        self.req_backplane(now, BusOp::LineTransfer, self.cfg.bus_line_cycles as u64);
        let _ = line_addr;
    }

    /// Requests the line containing `line_addr` from the L2, going to the
    /// bus/memory/another CPU's cache on an L2 miss. Returns the cycle the
    /// line is available to the L1 and whether the L2 hit.
    pub(super) fn fill_l2(
        &mut self,
        core: usize,
        line_addr: u64,
        t: u64,
        write_intent: bool,
        is_prefetch: bool,
    ) -> L2Fill {
        let l2_lat = self.cfg.l2_latency() as u64;

        if self.cfg.perfect_l2 {
            self.cores[core].stats.l2_all.record(true);
            if !is_prefetch {
                self.cores[core].stats.l2_demand.record(true);
            }
            return L2Fill {
                ready_at: t + l2_lat,
                hit: true,
                mshr_wait: false,
                bus_wait: false,
            };
        }

        let hit = self.cores[core].l2.access(line_addr);
        self.cores[core].stats.l2_all.record(hit);
        if !is_prefetch {
            self.cores[core].stats.l2_demand.record(hit);
        }

        if hit {
            if self.cores[core].prefetched_lines.remove(&line_addr) && !is_prefetch {
                self.cores[core].stats.prefetch_useful.incr();
            }
            let mut ready = t + l2_lat;
            if let Some(p) = self.cores[core].l2_mshr.pending_completion(line_addr) {
                ready = ready.max(p);
            }
            if write_intent && self.smp {
                ready = self.ensure_ownership(core, line_addr, ready);
            }
            return L2Fill {
                ready_at: ready,
                hit: true,
                mshr_wait: false,
                bus_wait: false,
            };
        }

        // A miss on a line whose fill is still in flight (the line was
        // filled structurally and evicted again before the data landed):
        // merge with the pending fill instead of re-requesting.
        if let Some(p) = self.cores[core].l2_mshr.pending_completion(line_addr) {
            let ready = p.max(t + l2_lat);
            self.cores[core].l2.fill(line_addr, write_intent);
            if write_intent && self.smp {
                let ready = self.ensure_ownership(core, line_addr, ready);
                return L2Fill {
                    ready_at: ready,
                    hit: false,
                    mshr_wait: false,
                    bus_wait: false,
                };
            }
            self.note_merged_fill(core, line_addr);
            return L2Fill {
                ready_at: ready,
                hit: false,
                mshr_wait: false,
                bus_wait: false,
            };
        }

        // Primary L2 miss: stall for an MSHR, then go off-core.
        let miss_seen_at = t + l2_lat;
        let t = self.cores[core].l2_mshr.next_free_at(miss_seen_at);
        let l2_mshr_wait = t > miss_seen_at;
        self.cores[core].l2_mshr.retire_completed(t);
        self.bus_queued = false;
        let data_at = if self.smp {
            self.miss_coherent(core, line_addr, t, write_intent)
        } else {
            self.miss_from_memory(core, line_addr, t, 0)
        };
        let bus_wait = self.bus_queued;

        self.cores[core].l2_mshr.allocate(line_addr, data_at);
        let ev = {
            let cm = &mut self.cores[core];
            let (l1d, l1i) = (&cm.l1d, &cm.l1i);
            cm.l2.fill_protected(line_addr, write_intent, |l| {
                l1d.contains(l) || l1i.contains(l)
            })
        };
        if let Some(ev) = ev {
            self.handle_l2_eviction(core, ev.line_addr, ev.dirty, data_at);
        }
        if is_prefetch {
            self.cores[core].prefetched_lines.insert(line_addr);
        }
        L2Fill {
            ready_at: data_at,
            hit: false,
            mshr_wait: l2_mshr_wait,
            bus_wait,
        }
    }

    fn handle_l2_eviction(&mut self, core: usize, line_addr: u64, dirty: bool, now: u64) {
        // Inclusion: back-invalidate the L1 copies.
        let l1d_dirty = self.cores[core].l1d.invalidate(line_addr).unwrap_or(false);
        self.cores[core].l1i.invalidate(line_addr);
        self.cores[core].prefetched_lines.remove(&line_addr);
        let was_modified = if self.smp {
            self.dir.evict(core, line_addr)
        } else {
            dirty || l1d_dirty
        };
        if was_modified || dirty || l1d_dirty {
            self.cores[core].stats.writebacks.incr();
            self.req_backplane(now, BusOp::LineTransfer, self.cfg.bus_line_cycles as u64);
        }
    }

    pub(super) fn issue_prefetch(&mut self, core: usize, pf_addr: u64, now: u64) {
        let line = line_of(pf_addr);
        if self.cores[core].l2.contains(line) {
            return;
        }
        if self.cores[core].l2_mshr.pending_completion(line).is_some() {
            return;
        }
        if !self.cores[core].l2_mshr.has_free_entry(now) {
            return; // never stall demand traffic for a prefetch
        }
        if self.smp && self.any_remote_valid(core, line) {
            return; // avoid coherence side effects from speculation
        }
        self.cores[core].stats.prefetch_issued.incr();
        self.fill_l2(core, line, now, false, true);
    }

    pub(super) fn warm_l2(&mut self, core: usize, line_addr: u64, write_intent: bool) {
        if self.cfg.perfect_l2 {
            return;
        }
        if self.cores[core].l2.access(line_addr) {
            if write_intent && self.smp {
                self.warm_ownership(core, line_addr);
            }
            return;
        }
        if self.smp {
            if write_intent {
                let w = self.dir.write(core, line_addr);
                if w.invalidations > 0 {
                    self.invalidate_remote_copies(core, line_addr);
                }
            } else {
                match self.dir.read(core, line_addr) {
                    ReadOutcome::MoveOut { owner } => {
                        self.warm_epoch += 1; // owner's caches change
                        self.cores[owner].l2.mark_clean(line_addr);
                        self.cores[owner].l1d.invalidate(line_addr);
                    }
                    ReadOutcome::FromMemory | ReadOutcome::SharedFill => {}
                }
            }
        }
        let ev = {
            let cm = &mut self.cores[core];
            let (l1d, l1i) = (&cm.l1d, &cm.l1i);
            cm.l2.fill_protected(line_addr, write_intent, |l| {
                l1d.contains(l) || l1i.contains(l)
            })
        };
        if let Some(ev) = ev {
            self.warm_epoch += 1; // inclusion may strip L1 lines under a memo
            self.cores[core].l1d.invalidate(ev.line_addr);
            self.cores[core].l1i.invalidate(ev.line_addr);
            self.cores[core].prefetched_lines.remove(&ev.line_addr);
            if self.smp {
                self.dir.evict(core, ev.line_addr);
            }
        }
    }
}
