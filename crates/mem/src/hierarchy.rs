//! The per-cycle memory-system façade used by the core model.
//!
//! [`MemorySystem`] owns every cache, TLB, the prefetch engines, the MESI
//! directory, the system bus and main memory. The core model calls
//! [`MemorySystem::fetch`], [`MemorySystem::load`] and
//! [`MemorySystem::store`] with the current cycle and receives completion
//! times that already include every queuing and contention effect.
//!
//! # Structural-now, timed-later
//!
//! Cache directories are updated immediately when a miss is *processed*,
//! while the returned `ready_at` reflects when data actually arrives; an
//! access to a line whose fill is still in flight structurally hits but is
//! timed against the pending MSHR completion — exactly the paper's
//! "a request that causes an L1 operand cache miss stays in load/store
//! queues until its requested line become ready" behaviour.

use crate::addr::line_of;
use crate::bus::{BusGrant, BusOp, SystemBus};
use crate::cache::{BankSelector, Cache, MshrFile};
use crate::coherence::{Directory, Mesi, ReadOutcome};
use crate::config::{BusTopology, MemConfig};
use crate::dram::Dram;
use crate::prefetch::StridePrefetcher;
use crate::stats::MemStats;
use crate::tlb::Tlb;
use s64v_observe::{BusId, CacheLevel, CohAction, ObsEvent, Probe};
use std::collections::HashSet;

/// Result of an instruction fetch access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchAccess {
    /// Cycle the fetched instructions are available.
    pub ready_at: u64,
    /// Whether the L1 instruction cache hit.
    pub l1_hit: bool,
    /// Whether the access was served without leaving the chip's caches
    /// (`false` only on an L2 miss).
    pub l2_hit: bool,
    /// Whether the ITLB missed (walk latency already included).
    pub tlb_miss: bool,
}

/// Result of a data (load/store) access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataAccess {
    /// Cycle the data is available for forwarding (loads) or the line is
    /// ready for the store's write.
    pub ready_at: u64,
    /// Whether the L1 operand cache hit.
    pub l1_hit: bool,
    /// Whether the access was served by the caches (`false` on L2 miss).
    pub l2_hit: bool,
    /// Whether the DTLB missed.
    pub tlb_miss: bool,
    /// Whether the access had to wait for a free MSHR (at the L1D or L2
    /// file) before its miss could even be tracked. Blame metadata for
    /// top-down CPI accounting; never affects timing decisions.
    pub mshr_wait: bool,
    /// Whether any bus request on the access's miss path queued behind
    /// other traffic (granted later than requested). Blame metadata.
    pub bus_wait: bool,
}

/// Occupancy of one MSHR file against its capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrLevel {
    /// In-flight entries.
    pub occupancy: usize,
    /// Configured entries.
    pub capacity: u32,
}

/// Per-CPU MSHR occupancies at the snapshot cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreMemSnapshot {
    /// L1 instruction-cache MSHR file.
    pub l1i_mshr: MshrLevel,
    /// L1 operand-cache MSHR file.
    pub l1d_mshr: MshrLevel,
    /// L2 MSHR file.
    pub l2_mshr: MshrLevel,
}

/// A snapshot of the memory system's outstanding state: per-CPU MSHR
/// occupancy, bus credit counters, and directory footprint. Attached to
/// structured simulation errors by the `s64v-core` integrity layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemSnapshot {
    /// One entry per CPU.
    pub cores: Vec<CoreMemSnapshot>,
    /// Transactions granted on the backplane bus.
    pub bus_transactions: u64,
    /// Cycles the backplane bus was occupied.
    pub bus_busy_cycles: u64,
    /// Lines the MESI directory currently tracks.
    pub tracked_lines: usize,
}

impl std::fmt::Display for MemSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MSHRs")?;
        for (i, c) in self.cores.iter().enumerate() {
            write!(
                f,
                " [cpu{} i{}/{} d{}/{} l2:{}/{}]",
                i,
                c.l1i_mshr.occupancy,
                c.l1i_mshr.capacity,
                c.l1d_mshr.occupancy,
                c.l1d_mshr.capacity,
                c.l2_mshr.occupancy,
                c.l2_mshr.capacity
            )?;
        }
        write!(
            f,
            ", bus {} transactions / {} busy cycles, {} tracked lines",
            self.bus_transactions, self.bus_busy_cycles, self.tracked_lines
        )
    }
}

/// Completion time assigned to a fill dropped by fault injection: far
/// enough out that the request never completes within any realistic run.
const DROPPED_FILL_READY: u64 = u64::MAX >> 2;

#[derive(Debug, Clone)]
struct CoreMem {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l1i_mshr: MshrFile,
    l1d_mshr: MshrFile,
    l2_mshr: MshrFile,
    itlb: Tlb,
    dtlb: Tlb,
    prefetcher: StridePrefetcher,
    prefetched_lines: HashSet<u64>,
    stats: MemStats,
    /// Warm-path short-circuit: the line of this core's previous
    /// `warm_fetch`, tagged with the warm epoch it was recorded in
    /// (see [`MemorySystem::warm_epoch`]). A repeated warm fetch of the
    /// same line would only re-refresh the already-most-recently-used
    /// TLB page and L1I line — stamps are unique and monotone, so the
    /// relative LRU order every future replacement decision consults is
    /// unchanged — and can be skipped outright.
    warm_fetch_memo: Option<(u64, u64)>,
    /// Same for `warm_data`: `(line, had_store, epoch)`. `had_store`
    /// records whether a store already dirtied the line (and, under SMP,
    /// acquired ownership), so a repeated store is only skipped once
    /// those side effects have happened.
    warm_data_memo: Option<(u64, bool, u64)>,
}

impl CoreMem {
    fn new(cfg: &MemConfig) -> Self {
        CoreMem {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            l1i_mshr: MshrFile::new(cfg.l1_mshrs),
            l1d_mshr: MshrFile::new(cfg.l1_mshrs),
            l2_mshr: MshrFile::new(cfg.l2_mshrs),
            itlb: Tlb::new(cfg.tlb_entries),
            dtlb: Tlb::new(cfg.tlb_entries),
            prefetcher: StridePrefetcher::new(32, cfg.prefetch_degree.max(1)),
            prefetched_lines: HashSet::new(),
            stats: MemStats::default(),
            warm_fetch_memo: None,
            warm_data_memo: None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct L2Fill {
    ready_at: u64,
    hit: bool,
    /// The fill stalled for an L2 MSHR (blame metadata).
    mshr_wait: bool,
    /// A bus request on the fill path queued (blame metadata).
    bus_wait: bool,
}

/// The complete memory system for one or more CPUs.
///
/// # Examples
///
/// ```
/// use s64v_mem::{MemConfig, MemorySystem};
///
/// let mut mem = MemorySystem::new(MemConfig::sparc64_v(), 1);
/// let first = mem.load(0, 0x1000, 100);
/// assert!(!first.l1_hit);                  // cold cache
/// let again = mem.load(0, 0x1000, first.ready_at);
/// assert!(again.l1_hit);
/// ```
#[derive(Debug)]
pub struct MemorySystem {
    cfg: MemConfig,
    cores: Vec<CoreMem>,
    bus: SystemBus,
    /// Per-board local buses ([`BusTopology::Hierarchical`] only).
    boards: Vec<SystemBus>,
    dram: Dram,
    dir: Directory,
    smp: bool,
    /// The L1 operand cache's address → bank mapping (from `cfg`).
    l1d_banks: BankSelector,
    /// CPUs that may hold a line the directory does not record them as
    /// holding: every CPU under a perfect L2 (its L1 fills never reach
    /// the directory), otherwise one that re-filled a line by merging
    /// with its own in-flight fill after the line was evicted or
    /// invalidated. An invalidation sweeps these as well as the holders.
    untracked: Vec<usize>,
    /// Per-CPU "drop the next fill" fault flags (fault injection only).
    drop_fill: Vec<bool>,
    /// Optional structured-event sink (pure observer, see `s64v-observe`).
    probe: Option<Box<dyn Probe>>,
    /// Generation counter guarding the per-core warm memos: bumped by
    /// every timed access and by any warm-path eviction/coherence action,
    /// so a memo is only honoured while nothing else has touched the
    /// structures it summarises (sampled runs interleave warm and timed
    /// phases on one shared system).
    warm_epoch: u64,
    /// Blame scratch: set by [`MemorySystem::req_backplane`] /
    /// [`MemorySystem::req_board`] whenever a grant queued behind other
    /// traffic; cleared and sampled around each primary-miss path. Pure
    /// metadata — never read by any timing decision.
    bus_queued: bool,
}

impl MemorySystem {
    /// Creates a memory system for `cores` CPUs.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cfg: MemConfig, cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        let boards = match cfg.bus_topology {
            BusTopology::Flat => Vec::new(),
            BusTopology::Hierarchical { cpus_per_board, .. } => {
                let n = cores.div_ceil(cpus_per_board as usize);
                (0..n)
                    .map(|_| {
                        SystemBus::new(cfg.bus_line_cycles, cfg.bus_cmd_cycles, cfg.bus_outstanding)
                    })
                    .collect()
            }
        };
        MemorySystem {
            cores: (0..cores).map(|_| CoreMem::new(&cfg)).collect(),
            bus: SystemBus::new(cfg.bus_line_cycles, cfg.bus_cmd_cycles, cfg.bus_outstanding),
            boards,
            dram: Dram::new(cfg.dram_latency, 16),
            dir: Directory::new(cores),
            smp: cores > 1,
            l1d_banks: BankSelector::new(cfg.l1d_banks, cfg.l1d_bank_bytes),
            untracked: if cfg.perfect_l2 {
                (0..cores).collect()
            } else {
                Vec::new()
            },
            drop_fill: vec![false; cores],
            probe: None,
            warm_epoch: 0,
            bus_queued: false,
            cfg,
        }
    }

    /// A deep copy of every structure — caches, TLBs, MSHR files,
    /// prefetchers, directory, buses, DRAM, statistics and the warm memos
    /// — with no probe attached. A fork of a functionally warmed system
    /// is indistinguishable from one warmed afresh over the same records,
    /// which is what lets one warming pass serve many detailed windows.
    pub fn fork(&self) -> Self {
        MemorySystem {
            cfg: self.cfg.clone(),
            cores: self.cores.clone(),
            bus: self.bus.clone(),
            boards: self.boards.clone(),
            dram: self.dram.clone(),
            dir: self.dir.clone(),
            smp: self.smp,
            l1d_banks: self.l1d_banks,
            untracked: self.untracked.clone(),
            drop_fill: self.drop_fill.clone(),
            probe: None,
            warm_epoch: self.warm_epoch,
            bus_queued: self.bus_queued,
        }
    }

    fn board_of(&self, core: usize) -> Option<usize> {
        match self.cfg.bus_topology {
            BusTopology::Flat => None,
            BusTopology::Hierarchical { cpus_per_board, .. } => {
                Some(core / cpus_per_board as usize)
            }
        }
    }

    fn board_crossing(&self) -> u64 {
        match self.cfg.bus_topology {
            BusTopology::Flat => 0,
            BusTopology::Hierarchical {
                board_crossing_cycles,
                ..
            } => board_crossing_cycles as u64,
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// The L1 operand-cache bank an access at `addr` goes to (§3.2: two
    /// requests per cycle unless they conflict on a bank).
    #[inline]
    pub fn l1d_bank(&self, addr: u64) -> u32 {
        self.l1d_banks.bank(addr)
    }

    /// Number of CPUs.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Per-CPU statistics.
    pub fn stats(&self, core: usize) -> &MemStats {
        &self.cores[core].stats
    }

    /// The shared system bus (for utilization reports).
    pub fn bus(&self) -> &SystemBus {
        &self.bus
    }

    /// Attaches a structured-event [`Probe`]. Probes only observe: every
    /// access outcome and completion time is identical with or without
    /// one attached (the timed paths below emit *after* deciding).
    pub fn attach_probe(&mut self, probe: Box<dyn Probe>) {
        self.probe = Some(probe);
    }

    /// Detaches and returns the probe, if one was attached.
    pub fn take_probe(&mut self) -> Option<Box<dyn Probe>> {
        self.probe.take()
    }

    fn emit(&mut self, ev: ObsEvent) {
        if let Some(p) = self.probe.as_mut() {
            p.event(ev);
        }
    }

    /// Backplane-bus request with event emission.
    fn req_backplane(&mut self, t: u64, op: BusOp, window: u64) -> BusGrant {
        let g = self.bus.request(t, op, window);
        self.bus_queued |= g.granted_at > t;
        self.emit(ObsEvent::BusGrant {
            bus: BusId::Backplane,
            cycle: t,
            line_transfer: op == BusOp::LineTransfer,
            granted_at: g.granted_at,
            done_at: g.done_at,
        });
        g
    }

    /// Board-local bus request with event emission.
    fn req_board(&mut self, board: usize, t: u64, op: BusOp, window: u64) -> BusGrant {
        let g = self.boards[board].request(t, op, window);
        self.bus_queued |= g.granted_at > t;
        self.emit(ObsEvent::BusGrant {
            bus: BusId::Board(board as u8),
            cycle: t,
            line_transfer: op == BusOp::LineTransfer,
            granted_at: g.granted_at,
            done_at: g.done_at,
        });
        g
    }

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
            self.emit(ObsEvent::CacheAccess {
                core: core as u32,
                cycle: now,
                level: CacheLevel::L1I,
                hit: true,
                is_store: false,
            });
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
        self.emit(ObsEvent::CacheAccess {
            core: core as u32,
            cycle: now,
            level: CacheLevel::L1I,
            hit,
            is_store: false,
        });
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
        let retired = self.cores[core].l1i_mshr.retire_completed(stall_until);
        if retired > 0 {
            self.emit(ObsEvent::MshrRetire {
                core: core as u32,
                cycle: stall_until,
                level: CacheLevel::L1I,
                retired: retired as u32,
            });
        }
        let fill = self.fill_l2(core, line, stall_until, false, false);
        self.cores[core].l1i_mshr.allocate(line, fill.ready_at);
        self.emit(ObsEvent::MshrAlloc {
            core: core as u32,
            cycle: stall_until,
            level: CacheLevel::L1I,
            line,
            ready_at: fill.ready_at,
        });
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
        let mut access = self.data_access(core, addr, now, false);
        if self.drop_fill[core] && !access.l1_hit {
            // Fault injection: the fill for this miss is lost; the load's
            // data never arrives.
            self.drop_fill[core] = false;
            access.ready_at = DROPPED_FILL_READY;
        }
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
            self.record_l1d(core, true, is_store, now);
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
        self.record_l1d(core, hit, is_store, now);

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
        let retired = self.cores[core].l1d_mshr.retire_completed(stall_until);
        if retired > 0 {
            self.emit(ObsEvent::MshrRetire {
                core: core as u32,
                cycle: stall_until,
                level: CacheLevel::L1D,
                retired: retired as u32,
            });
        }
        let fill = self.fill_l2(core, line, stall_until, is_store, false);
        self.cores[core].l1d_mshr.allocate(line, fill.ready_at);
        self.emit(ObsEvent::MshrAlloc {
            core: core as u32,
            cycle: stall_until,
            level: CacheLevel::L1D,
            line,
            ready_at: fill.ready_at,
        });
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

    fn record_l1d(&mut self, core: usize, hit: bool, is_store: bool, now: u64) {
        let stats = &mut self.cores[core].stats;
        stats.l1d.record(hit);
        if is_store {
            stats.l1d_stores.record(hit);
        } else {
            stats.l1d_loads.record(hit);
        }
        self.emit(ObsEvent::CacheAccess {
            core: core as u32,
            cycle: now,
            level: CacheLevel::L1D,
            hit,
            is_store,
        });
    }

    /// A dirty L1 line was evicted but its line is no longer in the L2
    /// (the L2 evicted it earlier without back-invalidation taking effect,
    /// which cannot happen when inclusion is maintained, but is handled
    /// defensively): push it to memory.
    fn absorb_orphan_writeback(&mut self, core: usize, line_addr: u64, now: u64) {
        self.cores[core].stats.writebacks.incr();
        self.req_backplane(now, BusOp::LineTransfer, self.cfg.bus_line_cycles as u64);
        let _ = line_addr;
    }

    /// Requests the line containing `line_addr` from the L2, going to the
    /// bus/memory/another CPU's cache on an L2 miss. Returns the cycle the
    /// line is available to the L1 and whether the L2 hit.
    fn fill_l2(
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
            self.emit(ObsEvent::CacheAccess {
                core: core as u32,
                cycle: t,
                level: CacheLevel::L2,
                hit: true,
                is_store: write_intent,
            });
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
        self.emit(ObsEvent::CacheAccess {
            core: core as u32,
            cycle: t,
            level: CacheLevel::L2,
            hit,
            is_store: write_intent,
        });

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
        let retired = self.cores[core].l2_mshr.retire_completed(t);
        if retired > 0 {
            self.emit(ObsEvent::MshrRetire {
                core: core as u32,
                cycle: t,
                level: CacheLevel::L2,
                retired: retired as u32,
            });
        }
        self.bus_queued = false;
        let data_at = if self.smp {
            self.miss_coherent(core, line_addr, t, write_intent)
        } else {
            self.miss_from_memory(core, line_addr, t, 0)
        };
        let bus_wait = self.bus_queued;

        self.cores[core].l2_mshr.allocate(line_addr, data_at);
        self.emit(ObsEvent::MshrAlloc {
            core: core as u32,
            cycle: t,
            level: CacheLevel::L2,
            line: line_addr,
            ready_at: data_at,
        });
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

    fn miss_from_memory(&mut self, core: usize, line_addr: u64, t: u64, snoop: u64) -> u64 {
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

    fn miss_coherent(&mut self, core: usize, line_addr: u64, t: u64, write_intent: bool) -> u64 {
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
                self.emit(ObsEvent::Coherence {
                    core: core as u32,
                    cycle: t,
                    line: line_addr,
                    action: CohAction::MoveOut {
                        owner: owner as u32,
                    },
                });
                self.move_out_transfer(core, owner, t)
            } else {
                self.emit(ObsEvent::Coherence {
                    core: core as u32,
                    cycle: t,
                    line: line_addr,
                    action: CohAction::WriteMiss,
                });
                self.miss_from_memory(core, line_addr, t, snoop)
            }
        } else {
            match self.dir.read(core, line_addr) {
                ReadOutcome::FromMemory | ReadOutcome::SharedFill => {
                    self.emit(ObsEvent::Coherence {
                        core: core as u32,
                        cycle: t,
                        line: line_addr,
                        action: CohAction::ReadShared,
                    });
                    self.miss_from_memory(core, line_addr, t, snoop)
                }
                ReadOutcome::MoveOut { owner } => {
                    self.cores[owner].stats.coherence.move_outs_out.incr();
                    self.cores[core].stats.coherence.move_outs_in.incr();
                    // The owner keeps a now-clean copy (M→S downgrade).
                    self.cores[owner].l2.mark_clean(line_addr);
                    self.cores[owner].l1d.invalidate(line_addr);
                    self.emit(ObsEvent::Coherence {
                        core: core as u32,
                        cycle: t,
                        line: line_addr,
                        action: CohAction::MoveOut {
                            owner: owner as u32,
                        },
                    });
                    self.move_out_transfer(core, owner, t)
                }
            }
        }
    }

    fn move_out_transfer(&mut self, requester: usize, owner: usize, t: u64) -> u64 {
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
    /// directory states the [`Directory::write`] by `core` just cleared —
    /// a CPU fills its caches only through the directory, so no other can
    /// hold the line — and in the few the directory cannot vouch for.
    fn invalidate_remote_copies(&mut self, core: usize, line_addr: u64) {
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
    fn note_merged_fill(&mut self, core: usize, line_addr: u64) {
        if self.smp
            && !self.dir.state(core, line_addr).is_valid()
            && !self.untracked.contains(&core)
        {
            self.untracked.push(core);
        }
    }

    /// A store hit a line this CPU holds but may not own: acquire ownership
    /// (S→M / E→M upgrade), invalidating remote copies.
    fn ensure_ownership(&mut self, core: usize, line_addr: u64, ready: u64) -> u64 {
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
                self.emit(ObsEvent::Coherence {
                    core: core as u32,
                    cycle: ready,
                    line: line_addr,
                    action: CohAction::Upgrade,
                });
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

    fn issue_prefetch(&mut self, core: usize, pf_addr: u64, now: u64) {
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

    fn warm_l2(&mut self, core: usize, line_addr: u64, write_intent: bool) {
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

    fn warm_ownership(&mut self, core: usize, line_addr: u64) {
        if self.dir.state(core, line_addr) != Mesi::Modified {
            let w = self.dir.write(core, line_addr);
            if w.invalidations > 0 {
                self.invalidate_remote_copies(core, line_addr);
            }
        }
    }

    fn any_remote_valid(&self, core: usize, line_addr: u64) -> bool {
        (0..self.cores.len())
            .filter(|&i| i != core)
            .any(|i| self.dir.state(i, line_addr).is_valid())
    }

    // ----- integrity: snapshots, audits, fault hooks ---------------------

    /// MSHR occupancy/capacity for `core`'s three files (L1I, L1D, L2).
    pub fn mshr_levels(&self, core: usize) -> [MshrLevel; 3] {
        let cm = &self.cores[core];
        [
            MshrLevel {
                occupancy: cm.l1i_mshr.occupancy(),
                capacity: cm.l1i_mshr.capacity(),
            },
            MshrLevel {
                occupancy: cm.l1d_mshr.occupancy(),
                capacity: cm.l1d_mshr.capacity(),
            },
            MshrLevel {
                occupancy: cm.l2_mshr.occupancy(),
                capacity: cm.l2_mshr.capacity(),
            },
        ]
    }

    /// Snapshot of outstanding memory-system state (attached to structured
    /// simulation errors).
    pub fn snapshot(&self) -> MemSnapshot {
        MemSnapshot {
            cores: (0..self.cores.len())
                .map(|c| {
                    let [l1i_mshr, l1d_mshr, l2_mshr] = self.mshr_levels(c);
                    CoreMemSnapshot {
                        l1i_mshr,
                        l1d_mshr,
                        l2_mshr,
                    }
                })
                .collect(),
            bus_transactions: self.bus.transactions(),
            bus_busy_cycles: self.bus.busy_cycles(),
            tracked_lines: self.dir.tracked_lines(),
        }
    }

    /// Cheap per-cycle MSHR credit audit: every file within capacity.
    pub fn audit_mshr_credit(&self) -> Result<(), String> {
        for (c, _) in self.cores.iter().enumerate() {
            for (name, level) in ["L1I", "L1D", "L2"].iter().zip(self.mshr_levels(c)) {
                if level.occupancy > level.capacity as usize {
                    return Err(format!(
                        "cpu {c} {name} MSHR file over capacity: {} entries in a {}-entry file",
                        level.occupancy, level.capacity
                    ));
                }
            }
        }
        Ok(())
    }

    /// Cheap per-cycle bus credit audit. Two exact conservation laws hold
    /// for every bus: the per-op transaction counts sum to the total, and
    /// every grant books exactly its op's occupancy, so the busy-cycle
    /// total is fully determined by those counts.
    pub fn audit_bus_credit(&self) -> Result<(), String> {
        let buses = std::iter::once((&self.bus, "backplane".to_string())).chain(
            self.boards
                .iter()
                .enumerate()
                .map(|(i, b)| (b, format!("board {i}"))),
        );
        for (bus, name) in buses {
            let (tx, cmd, line) = (
                bus.transactions(),
                bus.cmd_transactions(),
                bus.line_transactions(),
            );
            if tx != cmd + line {
                return Err(format!(
                    "{name} bus transaction count mismatch: {tx} granted != \
                     {cmd} commands + {line} line transfers"
                ));
            }
            let busy = bus.busy_cycles();
            let booked = bus.cmd_occupancy() * cmd + bus.line_occupancy() * line;
            if busy != booked {
                return Err(format!(
                    "{name} bus credit mismatch: {busy} busy cycles booked, but \
                     {cmd} commands + {line} line transfers account for {booked}"
                ));
            }
        }
        Ok(())
    }

    /// MESI legality sweep over every tracked line: at most one
    /// Modified/Exclusive copy, never coexisting with other valid copies.
    pub fn audit_coherence(&self) -> Result<(), String> {
        for (line, states) in self.dir.lines() {
            if !self.dir.check_invariants(line) {
                return Err(format!(
                    "MESI violation on line {line:#x}: states {states:?}"
                ));
            }
        }
        Ok(())
    }

    /// Inclusion/eviction consistency (end-of-run check): a line the
    /// directory records as Invalid for a CPU must not sit in that CPU's
    /// L2 — an eviction that skipped the directory (or vice versa) would
    /// leave exactly this mismatch.
    pub fn audit_inclusion(&self) -> Result<(), String> {
        for (line, states) in self.dir.lines() {
            for (c, s) in states.iter().enumerate() {
                if !s.is_valid() && self.cores[c].l2.contains(line) {
                    return Err(format!(
                        "inclusion violation: cpu {c} L2 holds line {line:#x} \
                         the directory records as Invalid"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Fault-injection hook: the next L1D fill requested by `core` is
    /// dropped — its data never arrives, wedging the consuming load.
    #[doc(hidden)]
    pub fn fault_drop_next_fill(&mut self, core: usize) {
        self.drop_fill[core] = true;
    }

    /// Fault-injection hook: corrupts directory state by forcing `core` to
    /// Modified on a line another CPU validly holds, creating an illegal
    /// second owner. Returns the corrupted line, or `None` if no suitable
    /// line is tracked yet (caller should retry after more traffic).
    #[doc(hidden)]
    pub fn fault_corrupt_tag(&mut self, core: usize) -> Option<u64> {
        let line = self
            .dir
            .lines()
            .filter(|(_, states)| {
                states
                    .iter()
                    .enumerate()
                    .any(|(c, s)| c != core && s.is_valid())
            })
            .map(|(line, _)| line)
            .min()?;
        self.warm_epoch += 1; // coherence state no longer matches the memos
        self.dir.fault_force_state(core, line, Mesi::Modified);
        Some(line)
    }

    /// Fault-injection hook: count a backplane-bus grant that never booked
    /// its occupancy.
    #[doc(hidden)]
    pub fn fault_lose_bus_grant(&mut self) {
        self.bus.fault_lose_grant();
    }

    /// Fault-injection hook: overcommit `core`'s L1D MSHR file past its
    /// capacity.
    #[doc(hidden)]
    pub fn fault_overcommit_mshr(&mut self, core: usize) {
        self.cores[core].l1d_mshr.fault_overcommit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn up() -> MemorySystem {
        MemorySystem::new(MemConfig::sparc64_v(), 1)
    }

    #[test]
    fn cold_load_misses_then_hits() {
        let mut m = up();
        let a = m.load(0, 0x4000, 0);
        assert!(!a.l1_hit && !a.l2_hit);
        assert!(
            a.ready_at > 100,
            "memory access should be slow, got {}",
            a.ready_at
        );
        let b = m.load(0, 0x4000, a.ready_at);
        assert!(b.l1_hit);
        assert_eq!(b.ready_at, a.ready_at + m.config().l1d.latency as u64);
    }

    #[test]
    fn l2_hit_is_much_faster_than_memory() {
        let mut m = up();
        let miss = m.load(0, 0x4000, 0);
        // Evict 0x4000 from the (2-way) L1 with same-set conflicts while
        // it stays resident in the much larger L2.
        let probe = Cache::new(m.config().l1d);
        let target = probe.set_of(0x4000);
        let conflicts: Vec<u64> = (1..1_000_000u64)
            .map(|i| 0x4000 + i * crate::addr::LINE_BYTES)
            .filter(|&a| probe.set_of(a) == target)
            .take(4)
            .collect();
        for (i, &a) in conflicts.iter().enumerate() {
            m.load(0, a, 10_000 * (i as u64 + 1));
        }
        let t = 1_000_000;
        let back = m.load(0, 0x4000, t);
        assert!(!back.l1_hit);
        assert!(back.l2_hit, "line must still be in L2");
        assert!(back.ready_at - t < miss.ready_at, "L2 hit must beat memory");
    }

    #[test]
    fn merged_miss_waits_for_pending_fill() {
        let mut m = up();
        let a = m.load(0, 0x8000, 0);
        // Second access to the same line two cycles later: structural hit,
        // but timed against the in-flight fill.
        let b = m.load(0, 0x8008, 2);
        assert!(b.l1_hit, "structurally present");
        assert!(b.ready_at >= a.ready_at, "must wait for the fill");
    }

    #[test]
    fn store_marks_line_dirty_and_writeback_happens() {
        let mut m = up();
        let st = m.store(0, 0x1000, 0);
        assert!(!st.l1_hit);
        // Walk enough same-L2-set conflicting lines to force the dirty
        // line all the way out (the L2 is 4-way, and L1-resident lines
        // are protected, so push plenty through).
        let probe = Cache::new(m.config().l2);
        let target = probe.set_of(0x1000);
        let conflicts: Vec<u64> = (1..100_000_000u64)
            .map(|i| 0x1000 + i * crate::addr::LINE_BYTES)
            .filter(|&a| probe.set_of(a) == target)
            .take(10)
            .collect();
        for (i, &a) in conflicts.iter().enumerate() {
            m.load(0, a, 1_000_000 * (i as u64 + 1));
        }
        assert!(
            m.stats(0).writebacks.get() >= 1,
            "dirty eviction must write back"
        );
    }

    #[test]
    fn perfect_l1_never_misses() {
        let mut m = MemorySystem::new(MemConfig::sparc64_v().with_perfect_l1(), 1);
        for i in 0..100u64 {
            let a = m.load(0, i * 4096, i);
            assert!(a.l1_hit);
        }
        assert_eq!(m.stats(0).l1d.misses.get(), 0);
    }

    #[test]
    fn perfect_l2_serves_all_l1_misses() {
        let mut m = MemorySystem::new(MemConfig::sparc64_v().with_perfect_l2(), 1);
        for i in 0..100u64 {
            let a = m.load(0, i << 20, i * 1000);
            assert!(a.l2_hit);
        }
        assert_eq!(m.stats(0).l2_demand.misses.get(), 0);
    }

    #[test]
    fn tlb_miss_adds_walk_latency() {
        let mut m = up();
        let a = m.load(0, 0, 0);
        assert!(a.tlb_miss);
        let mut m2 = MemorySystem::new(MemConfig::sparc64_v().with_perfect_tlb(), 1);
        let b = m2.load(0, 0, 0);
        assert!(!b.tlb_miss);
        assert!(a.ready_at > b.ready_at);
    }

    #[test]
    fn fetch_path_uses_l1i() {
        let mut m = up();
        let a = m.fetch(0, 0x4_0000, 0);
        assert!(!a.l1_hit);
        let b = m.fetch(0, 0x4_0000, a.ready_at);
        assert!(b.l1_hit);
        assert_eq!(m.stats(0).l1i.accesses.get(), 2);
        assert_eq!(m.stats(0).l1d.accesses.get(), 0);
    }

    #[test]
    fn sequential_misses_train_the_prefetcher() {
        let mut m = up();
        let mut t = 0;
        for i in 0..16u64 {
            let a = m.load(0, i * 64, t);
            t = a.ready_at + 1;
        }
        assert!(
            m.stats(0).prefetch_issued.get() > 0,
            "stream must be detected"
        );
        assert!(
            m.stats(0).prefetch_useful.get() > 0,
            "later demands must hit prefetched lines"
        );
        // Demand miss ratio must beat the no-prefetch configuration.
        let mut base = MemorySystem::new(MemConfig::sparc64_v().without_prefetch(), 1);
        let mut t = 0;
        for i in 0..16u64 {
            let a = base.load(0, i * 64, t);
            t = a.ready_at + 1;
        }
        assert!(m.stats(0).l2_demand.misses.get() < base.stats(0).l2_demand.misses.get());
    }

    #[test]
    fn smp_read_of_modified_line_is_a_move_out() {
        let mut m = MemorySystem::new(MemConfig::sparc64_v(), 2);
        let st = m.store(0, 0x9000, 0);
        let ld = m.load(1, 0x9000, st.ready_at + 10);
        assert!(!ld.l1_hit);
        assert_eq!(m.stats(1).coherence.move_outs_in.get(), 1);
        assert_eq!(m.stats(0).coherence.move_outs_out.get(), 1);
    }

    #[test]
    fn smp_store_invalidates_remote_copies() {
        let mut m = MemorySystem::new(MemConfig::sparc64_v(), 2);
        let a = m.load(0, 0xa000, 0);
        let b = m.load(1, 0xa000, 0);
        let st = m.store(0, 0xa000, a.ready_at.max(b.ready_at) + 10);
        assert!(st.l1_hit);
        assert!(m.stats(0).coherence.upgrades.get() >= 1);
        // CPU 1 lost its copy.
        let re = m.load(1, 0xa000, st.ready_at + 1000);
        assert!(!re.l1_hit);
    }

    #[test]
    fn probes_observe_without_perturbing() {
        let mut plain = up();
        let mut observed = up();
        observed.attach_probe(Box::new(s64v_observe::EventLog::with_capacity(100_000)));
        let (mut t1, mut t2) = (0, 0);
        for i in 0..64u64 {
            let a = plain.load(0, i * 64, t1);
            let b = observed.load(0, i * 64, t2);
            assert_eq!(a, b, "observation must not change access outcomes");
            t1 = a.ready_at + 1;
            t2 = b.ready_at + 1;
            let f1 = plain.fetch(0, 0x40_0000 + i * 64, t1);
            let f2 = observed.fetch(0, 0x40_0000 + i * 64, t2);
            assert_eq!(f1, f2);
        }
        let log = observed.take_probe().expect("attached").into_events();
        for kind in ["cache", "mshr-alloc", "bus-grant"] {
            assert!(
                log.iter().any(|e| e.kind() == kind),
                "no {kind} events recorded"
            );
        }
    }

    #[test]
    fn up_never_touches_coherence() {
        let mut m = up();
        m.store(0, 0x100, 0);
        m.load(0, 0x100, 1000);
        assert_eq!(m.stats(0).coherence.upgrades.get(), 0);
        assert_eq!(m.stats(0).coherence.move_outs_in.get(), 0);
    }
}

#[cfg(test)]
mod warm_tests {
    use super::*;

    #[test]
    fn warming_fills_without_stats_or_timing() {
        let mut m = MemorySystem::new(MemConfig::sparc64_v(), 1);
        for i in 0..100u64 {
            m.warm_data(0, 0x4000 + i * 64, i % 3 == 0);
            m.warm_fetch(0, 0x9_0000 + i * 64);
        }
        assert_eq!(
            m.stats(0).l1d.accesses.get(),
            0,
            "warming must not count stats"
        );
        assert_eq!(m.stats(0).l1i.accesses.get(), 0);
        assert_eq!(m.bus().transactions(), 0, "warming must not touch the bus");
        // But the lines are resident: timed accesses hit.
        let a = m.load(0, 0x4000, 10);
        assert!(a.l1_hit, "warmed line must hit");
        let f = m.fetch(0, 0x9_0000, 10);
        assert!(f.l1_hit);
    }

    #[test]
    fn fork_copies_warm_state_and_then_diverges_independently() {
        let warm = |m: &mut MemorySystem, range: std::ops::Range<u64>| {
            for i in range {
                m.warm_data(0, 0x4000 + i * 64, i % 3 == 0);
                m.warm_fetch(0, 0x9_0000 + i * 64);
            }
        };
        let mut original = MemorySystem::new(MemConfig::sparc64_v(), 1);
        warm(&mut original, 0..200);
        let mut fork = original.fork();
        // Timed traffic on the fork leaves the original untouched ...
        let timed: Vec<DataAccess> = (0..300u64)
            .map(|i| fork.load(0, 0x4000 + i * 64, 10 + i))
            .collect();
        assert_eq!(original.stats(0).l1d.accesses.get(), 0);
        // ... so the original keeps warming exactly as an unforked system
        // would, and a second fork taken later matches a fresh pass.
        warm(&mut original, 200..400);
        let mut fresh = MemorySystem::new(MemConfig::sparc64_v(), 1);
        warm(&mut fresh, 0..400);
        let mut late = original.fork();
        for i in 0..500u64 {
            assert_eq!(
                late.load(0, 0x4000 + i * 64, 10 + i),
                fresh.load(0, 0x4000 + i * 64, 10 + i)
            );
        }
        assert_eq!(late.stats(0), fresh.stats(0));
        // And the first fork saw what a system warmed over 0..200 sees.
        let mut short = MemorySystem::new(MemConfig::sparc64_v(), 1);
        warm(&mut short, 0..200);
        for (i, t) in timed.iter().enumerate() {
            let i = i as u64;
            assert_eq!(*t, short.load(0, 0x4000 + i * 64, 10 + i));
        }
    }

    #[test]
    fn a_fork_renders_as_its_original_and_shares_no_storage_with_it() {
        // Enough lines to evict from every level and train the prefetcher.
        let churn = |m: &mut MemorySystem, salt: u64| {
            for i in 0..40_000u64 {
                let addr = (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt) & 0xff_ffc0;
                m.warm_data(0, addr, i % 3 == 0);
                m.warm_fetch(0, 0x900_0000 + (i % 5_000) * 64);
                m.warm_data(0, 0x100_0000 + i * 64, false);
            }
        };
        let mut original = MemorySystem::new(MemConfig::sparc64_v(), 1);
        churn(&mut original, 0);
        let mut fork = original.fork();
        let rendered = format!("{original:?}");
        assert_eq!(format!("{fork:?}"), rendered);
        // Neither side can reach the other's arrays: whatever one does,
        // the other still renders as it did at the fork.
        churn(&mut fork, 0x5a5a);
        for i in 0..2_000u64 {
            fork.store(0, 0x4000 + i * 64, 10 + i);
        }
        assert_eq!(format!("{original:?}"), rendered);
        let forked = format!("{fork:?}");
        assert_ne!(forked, rendered);
        churn(&mut original, 0xa5a5);
        assert_eq!(format!("{fork:?}"), forked);
    }

    #[test]
    fn warming_trains_the_prefetcher() {
        let mut m = MemorySystem::new(MemConfig::sparc64_v(), 1);
        // Build a stream far beyond the L1 so timed accesses keep missing
        // L1 but find prefetched lines in L2.
        for i in 0..64u64 {
            m.warm_data(0, 0x100_0000 + i * 64, false);
        }
        // Next line in the stream was prefetched into L2 during warming.
        let probe = 0x100_0000 + 64 * 64;
        let mut found = false;
        for k in 0..4u64 {
            if m.cores[0].l2.contains(probe + k * 64) {
                found = true;
            }
        }
        assert!(found, "warm stream must leave prefetched lines in the L2");
    }

    #[test]
    fn warm_smp_stores_take_ownership() {
        let mut m = MemorySystem::new(MemConfig::sparc64_v(), 2);
        m.warm_data(0, 0x8000, false);
        m.warm_data(1, 0x8000, true);
        assert_eq!(m.dir.state(1, crate::addr::line_of(0x8000)), Mesi::Modified);
        assert_eq!(m.dir.state(0, crate::addr::line_of(0x8000)), Mesi::Invalid);
        // Timed read by CPU 0 is now a move-out from CPU 1.
        let a = m.load(0, 0x8000, 100);
        assert!(!a.l1_hit);
        assert_eq!(m.stats(0).coherence.move_outs_in.get(), 1);
    }

    #[test]
    fn perfect_flags_short_circuit_warming() {
        let mut m = MemorySystem::new(MemConfig::sparc64_v().with_perfect_l1(), 1);
        m.warm_data(0, 0x8000, true);
        m.warm_fetch(0, 0x9000);
        assert_eq!(m.cores[0].l1d.occupancy(), 0, "perfect L1 never fills");
    }
}

#[cfg(test)]
mod smp_tests {
    use super::*;

    #[test]
    fn read_sharing_is_free_of_move_outs() {
        let mut m = MemorySystem::new(MemConfig::sparc64_v(), 4);
        for core in 0..4 {
            let a = m.load(core, 0xc000, core as u64 * 1000);
            assert!(!a.l1_hit);
        }
        for core in 0..4 {
            assert_eq!(m.stats(core).coherence.move_outs_in.get(), 0);
        }
    }

    #[test]
    fn write_steals_a_modified_line_between_cpus() {
        let mut m = MemorySystem::new(MemConfig::sparc64_v(), 2);
        let st0 = m.store(0, 0xd000, 0);
        let st1 = m.store(1, 0xd000, st0.ready_at + 100);
        assert!(st1.ready_at > st0.ready_at);
        assert_eq!(m.stats(0).coherence.move_outs_out.get(), 1);
        // CPU 0 has lost the line entirely (write steal invalidates).
        let back = m.load(0, 0xd000, st1.ready_at + 1000);
        assert!(!back.l1_hit);
    }

    #[test]
    fn upgrade_is_cheaper_than_a_miss() {
        let mut m = MemorySystem::new(MemConfig::sparc64_v(), 2);
        // Both CPUs read; CPU 0 then upgrades with a store hit.
        let a = m.load(0, 0xe000, 0);
        let b = m.load(1, 0xe000, 0);
        let t = a.ready_at.max(b.ready_at) + 10;
        let st = m.store(0, 0xe000, t);
        assert!(st.l1_hit, "upgrade happens on a present line");
        let upgrade_cost = st.ready_at - t;
        assert!(
            upgrade_cost < a.ready_at, // far below a cold miss
            "upgrade cost {upgrade_cost} must be below a memory miss"
        );
        assert_eq!(m.stats(0).coherence.upgrades.get(), 1);
    }

    #[test]
    fn remote_l1_copies_are_invalidated_too() {
        let mut m = MemorySystem::new(MemConfig::sparc64_v(), 2);
        let a = m.load(1, 0xf000, 0);
        let _ = m.store(0, 0xf000, a.ready_at + 10);
        assert!(
            !m.cores[1].l1d.contains(0xf000),
            "inclusion: L1 copy must go"
        );
        assert!(!m.cores[1].l2.contains(0xf000));
    }

    #[test]
    fn directory_and_caches_stay_consistent_under_churn() {
        let mut m = MemorySystem::new(MemConfig::sparc64_v(), 4);
        let mut t = 0u64;
        for i in 0..2000u64 {
            let core = (i % 4) as usize;
            let addr = 0x10_0000 + (i * 2654435761 % 4096) * 64;
            if i % 3 == 0 {
                t = m.store(core, addr, t).ready_at.max(t) + 1;
            } else {
                t = m.load(core, addr, t).ready_at.max(t) + 1;
            }
            let line = crate::addr::line_of(addr);
            assert!(m.dir.check_invariants(line), "MESI invariant at {line:#x}");
            // If the directory says Invalid, the L2 must not hold it.
            for c in 0..4 {
                if m.dir.state(c, line) == Mesi::Invalid {
                    assert!(
                        !m.cores[c].l2.contains(line),
                        "core {c} holds {line:#x} the directory lost"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod topology_tests {
    use super::*;

    fn hier(cores: usize) -> MemorySystem {
        MemorySystem::new(MemConfig::sparc64_v().with_hierarchical_bus(4, 12), cores)
    }

    #[test]
    fn boards_are_assigned_by_cpu_index() {
        let m = hier(8);
        assert_eq!(m.board_of(0), Some(0));
        assert_eq!(m.board_of(3), Some(0));
        assert_eq!(m.board_of(4), Some(1));
        assert_eq!(m.board_of(7), Some(1));
        assert_eq!(m.boards.len(), 2);
    }

    #[test]
    fn flat_topology_has_no_boards() {
        let m = MemorySystem::new(MemConfig::sparc64_v(), 4);
        assert!(m.boards.is_empty());
        assert_eq!(m.board_of(2), None);
    }

    #[test]
    fn memory_misses_pay_the_board_crossing() {
        let mut flat = MemorySystem::new(MemConfig::sparc64_v(), 8);
        let mut hier = hier(8);
        let a = flat.load(0, 0x5_0000, 0);
        let b = hier.load(0, 0x5_0000, 0);
        assert!(
            b.ready_at > a.ready_at,
            "hierarchical path must be slower: {} vs {}",
            b.ready_at,
            a.ready_at
        );
    }

    #[test]
    fn cross_board_move_out_costs_more_than_same_board() {
        // Owner on CPU 1 (board 0): requester CPU 2 (board 0, same) vs
        // CPU 5 (board 1, cross).
        let mut same = hier(8);
        let st = same.store(1, 0x9000, 0);
        let r_same = same.load(2, 0x9000, st.ready_at + 10);

        let mut cross = hier(8);
        let st = cross.store(1, 0x9000, 0);
        let r_cross = cross.load(5, 0x9000, st.ready_at + 10);

        let t_same = r_same.ready_at - (st.ready_at + 10);
        let t_cross = r_cross.ready_at - (st.ready_at + 10);
        assert!(
            t_cross > t_same,
            "cross-board move-out {t_cross} must exceed same-board {t_same}"
        );
        assert_eq!(cross.stats(5).coherence.move_outs_in.get(), 1);
    }

    #[test]
    fn local_traffic_does_not_occupy_remote_boards() {
        let mut m = hier(8);
        // Board-0 CPUs hammer memory; board 1's bus must stay idle.
        let mut t = 0;
        for i in 0..50u64 {
            t = m.load(0, 0x10_0000 + i * 4096, t).ready_at + 1;
        }
        assert!(m.boards[0].busy_cycles() > 0);
        assert_eq!(m.boards[1].busy_cycles(), 0, "remote board bus stays idle");
        assert!(
            m.bus.busy_cycles() > 0,
            "backplane carries the memory traffic"
        );
    }
}
