//! The structured event taxonomy and the [`Probe`] sink trait.
//!
//! Every model component that can narrate its behaviour (the core
//! pipeline, the cache hierarchy, the system buses, the MESI directory)
//! optionally holds a boxed [`Probe`] and forwards one [`ObsEvent`] per
//! interesting occurrence. The default state is *no probe attached*: the
//! emission sites reduce to a single `Option` check on a field that is
//! `None`, and — crucially — a probe can only ever observe, never steer,
//! so attaching one cannot perturb simulation results (the same
//! discipline as checked-mode auditing).

use s64v_isa::OpClass;

/// Which cache a [`ObsEvent::CacheAccess`] or MSHR event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLevel {
    /// L1 instruction cache.
    L1I,
    /// L1 operand cache.
    L1D,
    /// Unified on-chip L2.
    L2,
}

impl CacheLevel {
    /// Short lower-case label (`l1i`/`l1d`/`l2`).
    pub fn label(&self) -> &'static str {
        match self {
            CacheLevel::L1I => "l1i",
            CacheLevel::L1D => "l1d",
            CacheLevel::L2 => "l2",
        }
    }
}

/// Which bus granted a [`ObsEvent::BusGrant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusId {
    /// The shared backplane bus.
    Backplane,
    /// A per-board local bus (hierarchical topologies only).
    Board(u8),
}

/// Coherence action behind a [`ObsEvent::Coherence`] event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CohAction {
    /// A write miss took the line from memory (I→M).
    WriteMiss,
    /// A read miss filled from memory or joined the sharers (I→S/E).
    ReadShared,
    /// The line was supplied cache-to-cache by `owner` (move-out).
    MoveOut {
        /// CPU that owned the Modified copy.
        owner: u32,
    },
    /// A store hit a Shared/stale line and upgraded to Modified (S→M).
    Upgrade,
}

/// One structured cycle-level event.
///
/// Every variant carries the cycle it describes ([`ObsEvent::cycle`]);
/// pipeline variants also carry the dynamic instruction's program-order
/// sequence number, so a stream of events can be re-threaded into
/// per-instruction timelines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObsEvent {
    /// A fetch group's leading access went to the L1I.
    Fetch {
        /// CPU id.
        core: u32,
        /// Cycle of the access.
        cycle: u64,
        /// Program counter fetched.
        pc: u64,
        /// L1I hit.
        l1_hit: bool,
        /// Served on-chip (false only on an L2 miss).
        l2_hit: bool,
        /// Cycle the instructions are available to decode.
        ready_at: u64,
    },
    /// An instruction entered the window (decode/rename).
    Decode {
        /// CPU id.
        core: u32,
        /// Cycle of decode.
        cycle: u64,
        /// Program-order sequence number.
        seq: u64,
        /// Program counter.
        pc: u64,
        /// Instruction class.
        op: OpClass,
    },
    /// An instruction left its reservation station for a unit.
    Dispatch {
        /// CPU id.
        core: u32,
        /// Cycle of dispatch.
        cycle: u64,
        /// Program-order sequence number.
        seq: u64,
    },
    /// A speculatively dispatched instruction was cancelled and replayed.
    Replay {
        /// CPU id.
        core: u32,
        /// Cycle of the cancel.
        cycle: u64,
        /// Program-order sequence number.
        seq: u64,
    },
    /// An instruction finished executing (loads: data returned).
    Complete {
        /// CPU id.
        core: u32,
        /// Cycle of completion.
        cycle: u64,
        /// Program-order sequence number.
        seq: u64,
    },
    /// An instruction retired from the window head.
    Commit {
        /// CPU id.
        core: u32,
        /// Cycle of retirement.
        cycle: u64,
        /// Program-order sequence number.
        seq: u64,
    },
    /// A timed access probed a cache directory.
    CacheAccess {
        /// CPU id.
        core: u32,
        /// Cycle the access reached the cache.
        cycle: u64,
        /// Which cache.
        level: CacheLevel,
        /// Whether the directory hit.
        hit: bool,
        /// Whether the access carried write intent.
        is_store: bool,
    },
    /// A primary miss allocated a miss-status holding register.
    MshrAlloc {
        /// CPU id.
        core: u32,
        /// Cycle of the allocation.
        cycle: u64,
        /// MSHR file level.
        level: CacheLevel,
        /// Line address tracked.
        line: u64,
        /// Cycle the fill lands and the entry retires.
        ready_at: u64,
    },
    /// Completed MSHR entries were retired from a file.
    MshrRetire {
        /// CPU id.
        core: u32,
        /// Cycle of the retirement sweep.
        cycle: u64,
        /// MSHR file level.
        level: CacheLevel,
        /// Entries retired by the sweep.
        retired: u32,
    },
    /// A bus transaction was granted.
    BusGrant {
        /// Which bus.
        bus: BusId,
        /// Cycle the request was made.
        cycle: u64,
        /// Line transfer (`true`) or address-only command (`false`).
        line_transfer: bool,
        /// Cycle the transaction gained the bus.
        granted_at: u64,
        /// Cycle the bus phase released.
        done_at: u64,
    },
    /// A MESI directory transition with system-wide effects.
    Coherence {
        /// Requesting CPU id.
        core: u32,
        /// Cycle of the directory update.
        cycle: u64,
        /// Line address.
        line: u64,
        /// What happened.
        action: CohAction,
    },
}

impl ObsEvent {
    /// The cycle the event describes.
    pub fn cycle(&self) -> u64 {
        match *self {
            ObsEvent::Fetch { cycle, .. }
            | ObsEvent::Decode { cycle, .. }
            | ObsEvent::Dispatch { cycle, .. }
            | ObsEvent::Replay { cycle, .. }
            | ObsEvent::Complete { cycle, .. }
            | ObsEvent::Commit { cycle, .. }
            | ObsEvent::CacheAccess { cycle, .. }
            | ObsEvent::MshrAlloc { cycle, .. }
            | ObsEvent::MshrRetire { cycle, .. }
            | ObsEvent::BusGrant { cycle, .. }
            | ObsEvent::Coherence { cycle, .. } => cycle,
        }
    }

    /// Short kind label (event-taxonomy key, stable across versions).
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::Fetch { .. } => "fetch",
            ObsEvent::Decode { .. } => "decode",
            ObsEvent::Dispatch { .. } => "dispatch",
            ObsEvent::Replay { .. } => "replay",
            ObsEvent::Complete { .. } => "complete",
            ObsEvent::Commit { .. } => "commit",
            ObsEvent::CacheAccess { .. } => "cache",
            ObsEvent::MshrAlloc { .. } => "mshr-alloc",
            ObsEvent::MshrRetire { .. } => "mshr-retire",
            ObsEvent::BusGrant { .. } => "bus-grant",
            ObsEvent::Coherence { .. } => "coherence",
        }
    }
}

/// A sink for structured simulation events.
///
/// Implementations MUST be pure observers: a probe receives events but
/// has no channel back into the model, so simulation results are
/// byte-identical with any probe attached or none (the engine's cache
/// fingerprints therefore ignore observation options entirely). `Sync`
/// because a functionally warmed machine — probe slot and all — is shared
/// by reference between the campaign workers that copy it.
pub trait Probe: std::fmt::Debug + Send + Sync {
    /// Receives one event. Called on the model's hot path — implementors
    /// should do no more than buffer.
    fn event(&mut self, ev: ObsEvent);

    /// Drains whatever the sink retained. Recording sinks override this;
    /// streaming/counting sinks keep the empty default.
    fn into_events(self: Box<Self>) -> Vec<ObsEvent> {
        Vec::new()
    }
}

/// The standard recording probe: a bounded in-memory event buffer.
///
/// Events past the bound are counted, not stored, so a runaway trace
/// cannot exhaust memory; [`EventLog::dropped`] says how many were shed.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<ObsEvent>,
    cap: usize,
    dropped: u64,
}

impl EventLog {
    /// A log that retains at most `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        EventLog {
            events: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// The buffered events, in arrival order.
    pub fn events(&self) -> &[ObsEvent] {
        &self.events
    }

    /// Events shed once the buffer filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Probe for EventLog {
    fn event(&mut self, ev: ObsEvent) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    fn into_events(self: Box<Self>) -> Vec<ObsEvent> {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commit(cycle: u64) -> ObsEvent {
        ObsEvent::Commit {
            core: 0,
            cycle,
            seq: cycle,
        }
    }

    #[test]
    fn event_log_bounds_memory() {
        let mut log = EventLog::with_capacity(2);
        for c in 0..5 {
            log.event(commit(c));
        }
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.dropped(), 3);
        assert_eq!(Box::new(log).into_events().len(), 2);
    }

    #[test]
    fn every_event_reports_its_cycle_and_kind() {
        let ev = ObsEvent::BusGrant {
            bus: BusId::Board(1),
            cycle: 7,
            line_transfer: true,
            granted_at: 9,
            done_at: 25,
        };
        assert_eq!(ev.cycle(), 7);
        assert_eq!(ev.kind(), "bus-grant");
        assert_eq!(commit(3).cycle(), 3);
        assert_eq!(commit(3).kind(), "commit");
    }

    #[test]
    fn default_probe_sink_retains_nothing() {
        #[derive(Debug)]
        struct Counting(u64);
        impl Probe for Counting {
            fn event(&mut self, _ev: ObsEvent) {
                self.0 += 1;
            }
        }
        let mut p = Counting(0);
        p.event(commit(0));
        assert_eq!(p.0, 1);
        assert!(Box::new(p).into_events().is_empty());
    }
}
