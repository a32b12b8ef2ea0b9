//! The kernel's phase ledger (cargo feature `phase-profile`, off by
//! default).
//!
//! With the feature on, the stepping thread stores a [`Phase`] id at each
//! phase boundary of a cycle and keeps exact [`Work`] counters; a second
//! thread samples the id every ~150 µs (`examples/kernel_profile.rs`), so
//! host time divides among phases without a timer call per boundary. With
//! the feature off — every ordinary build — [`enter`] and [`count`] are
//! empty inline functions and the crate compiles to the code it would
//! without them.
//!
//! The ledger is process-wide and assumes one stepping thread: it is an
//! instrument for the profiling example, not for campaigns.

/// Where in a cycle the stepping thread is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Not inside the kernel (set-up, warming, the caller's own code).
    Outside,
    /// The run loop between steps.
    RunLoop,
    /// Writeback: delivering this cycle's events off the wheel.
    Deliver,
    /// Writeback: speculative loads confirming and cancelling dependents.
    Confirm,
    /// Writeback: executions and data returns completing.
    Complete,
    /// Writeback: drained stores freeing their queue entries.
    Release,
    /// Commit.
    Commit,
    /// Head-of-window blame and the end-of-cycle counters.
    Account,
    /// Memory issue, outside the memory system.
    MemoryIssue,
    /// Inside `s64v-mem` (`load`, `store`, `fetch`).
    Mem,
    /// Dispatch: selecting ready entries.
    Select,
    /// Dispatch: starting the selected entries.
    Start,
    /// Decode / allocate.
    Decode,
    /// Fetch, outside the memory system.
    Fetch,
    /// The quiescence probe and a sleep's bookkeeping.
    Sleep,
}

impl Phase {
    /// Every phase, in id order.
    pub const ALL: [Phase; 15] = [
        Phase::Outside,
        Phase::RunLoop,
        Phase::Deliver,
        Phase::Confirm,
        Phase::Complete,
        Phase::Release,
        Phase::Commit,
        Phase::Account,
        Phase::MemoryIssue,
        Phase::Mem,
        Phase::Select,
        Phase::Start,
        Phase::Decode,
        Phase::Fetch,
        Phase::Sleep,
    ];
}

/// Exact work counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Work {
    /// Cycles advanced by a step.
    SteppedCycles,
    /// Stepped cycles in which some phase changed state.
    ActiveCycles,
    /// Cycles accounted by a sleep without stepping.
    SleptCycles,
    /// Quiescence probes run.
    Probes,
    /// Probes that proved a sleep of at least one cycle.
    Sleeps,
    /// Wheel events delivered to their slot.
    EventsDelivered,
    /// Wheel bits dropped because the slot's stamp had moved on (the
    /// event was disarmed or re-armed).
    EventsStale,
    /// Entries examined by the completion pass.
    CompletionsExamined,
    /// Entries the completion pass finished.
    Completions,
    /// Operand-ready times computed: one `operands_ready_at` evaluation,
    /// made when a waiting entry's readiness is refreshed.
    ReadyEvaluations,
    /// Window entries visited by waves down the producer→consumer links
    /// (cancels, refreshes, re-arms).
    WaveVisits,
    /// Entries select took out of a reservation station.
    Selected,
}

impl Work {
    /// Every counter, in index order.
    pub const ALL: [Work; 12] = [
        Work::SteppedCycles,
        Work::ActiveCycles,
        Work::SleptCycles,
        Work::Probes,
        Work::Sleeps,
        Work::EventsDelivered,
        Work::EventsStale,
        Work::CompletionsExamined,
        Work::Completions,
        Work::ReadyEvaluations,
        Work::WaveVisits,
        Work::Selected,
    ];
}

#[cfg(feature = "phase-profile")]
mod ledger {
    use super::{Phase, Work};
    use std::sync::atomic::{AtomicU64, AtomicU8, Ordering::Relaxed};

    static PHASE: AtomicU8 = AtomicU8::new(Phase::Outside as u8);
    static WORK: [AtomicU64; Work::ALL.len()] = [const { AtomicU64::new(0) }; Work::ALL.len()];

    #[inline(always)]
    pub fn enter(phase: Phase) {
        // Statistics only: the sampler reads whatever id it finds.
        PHASE.store(phase as u8, Relaxed);
    }

    #[inline(always)]
    pub fn count(work: Work, n: u64) {
        // One writer, so a load and a store, not a locked add.
        let c = &WORK[work as usize];
        c.store(c.load(Relaxed) + n, Relaxed);
    }

    pub fn current() -> Phase {
        Phase::ALL[PHASE.load(Relaxed) as usize]
    }

    pub fn work(work: Work) -> u64 {
        WORK[work as usize].load(Relaxed)
    }

    pub fn reset() {
        for c in &WORK {
            c.store(0, Relaxed);
        }
    }
}

#[cfg(feature = "phase-profile")]
pub use ledger::{current, reset, work};

/// Marks the stepping thread as inside `phase` until the next call.
#[cfg(feature = "phase-profile")]
#[inline(always)]
pub fn enter(phase: Phase) {
    ledger::enter(phase);
}

/// Adds `n` to a work counter.
#[cfg(feature = "phase-profile")]
#[inline(always)]
pub fn count(work: Work, n: u64) {
    ledger::count(work, n);
}

/// Marks the stepping thread as inside `phase` (a no-op in this build).
#[cfg(not(feature = "phase-profile"))]
#[inline(always)]
pub fn enter(_phase: Phase) {}

/// Adds `n` to a work counter (a no-op in this build).
#[cfg(not(feature = "phase-profile"))]
#[inline(always)]
pub fn count(_work: Work, _n: u64) {}
