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
//!
//! # Layout
//!
//! One file per level, each holding the level's timed rule beside the
//! `warm_*` rule functional warming replays through it: `l1.rs` (TLBs,
//! L1I and L1D: `fetch`, `load`/`store`, `warm_fetch`, `warm_data`),
//! `l2.rs` (the L2, its MSHR file and the prefetcher), `offchip.rs` (the
//! backplane and board buses and DRAM) and `mesi.rs` (the directory glue:
//! coherent misses, move-outs, ownership). `mod.rs` holds the state and
//! its construction, and the snapshots and audits.

use crate::bus::SystemBus;
use crate::cache::{BankSelector, Cache, MshrFile};
use crate::coherence::Directory;
use crate::config::{BusTopology, MemConfig};
use crate::dram::Dram;
use crate::prefetch::StridePrefetcher;
use crate::stats::MemStats;
use crate::tlb::Tlb;
use s64v_observe::BusTransfer;
use std::collections::HashSet;

mod l1;
mod l2;
mod mesi;
mod offchip;
#[cfg(test)]
mod smp_tests;
#[cfg(test)]
mod tests;
#[cfg(test)]
mod topology_tests;
#[cfg(test)]
mod warm_tests;

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

/// How many bus transfers [`MemorySystem::log_bus`] keeps: the first
/// 2^20 (32 MB), more than a 16-CPU TPC-C run at default sizes grants.
pub const BUS_LOG_CAP: usize = 1 << 20;

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
///
/// A clone is a deep copy of every structure — caches, TLBs, MSHR files,
/// prefetchers, directory, buses, DRAM, statistics and the warm memos. A
/// clone of a functionally warmed system is indistinguishable from one
/// warmed afresh over the same records, which is what lets one warming
/// pass serve many detailed windows.
#[derive(Debug, Clone)]
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
    /// The bus transfers granted since [`MemorySystem::log_bus`], at most
    /// [`BUS_LOG_CAP`] of them; `None` when not logging. Pure observation:
    /// a grant is logged after it is decided.
    bus_log: Option<Vec<BusTransfer>>,
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
            bus_log: None,
            warm_epoch: 0,
            bus_queued: false,
            cfg,
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

    /// Starts logging granted bus transfers (the first [`BUS_LOG_CAP`];
    /// later ones are not kept), discarding any earlier log.
    pub fn log_bus(&mut self) {
        self.bus_log = Some(Vec::new());
    }

    /// Stops logging and returns the transfers logged, in the order
    /// their grants were computed (empty if nothing was logging).
    pub fn take_bus_log(&mut self) -> Vec<BusTransfer> {
        self.bus_log.take().unwrap_or_default()
    }

    // ----- integrity: snapshots and audits --------------------------------

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
}
