//! Detailed memory-system model for the SPARC64 V performance model.
//!
//! The paper stresses that — unlike the usual "detailed core + latency-only
//! memory" simulators — its performance model gives the memory system the
//! same level of detail as the processor core (§2.1): request queues, bus
//! conflicts, bandwidth, latency, the cache protocol, and requests between
//! L2 caches for multiprocessor models. This crate is that memory system:
//!
//! * [`cache`] — set-associative, non-blocking, copy-back caches with MSHRs
//!   and the L1 operand cache's 8×4-byte banking,
//! * [`tlb`] — instruction/data TLBs with a fixed-cost table walk,
//! * [`prefetch`] — the L2 hardware prefetcher triggered by L1 demand
//!   misses (§3.4),
//! * [`bus`] — a split-transaction system bus with bandwidth and an
//!   outstanding-transaction limit,
//! * [`dram`] — main-memory latency,
//! * [`coherence`] — MESI state tracking between the per-CPU L2 caches,
//!   including cache-to-cache "move-out" transfers (§3.3),
//! * [`hierarchy`] — [`MemorySystem`], the per-cycle façade the core model
//!   issues fetches, loads and stores into.
//!
//! Timing uses deterministic resource reservation: every shared resource
//! (cache ports, bus, DRAM) tracks when it is next free, so contention and
//! queuing delays appear in the returned completion times without a
//! message-level event simulator.

pub mod addr;
pub mod bus;
pub mod cache;
pub mod coherence;
pub mod config;
pub mod dram;
pub mod hierarchy;
pub mod prefetch;
pub mod stats;
pub mod tlb;

pub use config::{BusTopology, CacheGeometry, L2Location, MemConfig};
pub use hierarchy::{
    CoreMemSnapshot, DataAccess, FetchAccess, MemSnapshot, MemorySystem, MshrLevel, BUS_LOG_CAP,
};
pub use stats::{CacheStats, MemStats};
