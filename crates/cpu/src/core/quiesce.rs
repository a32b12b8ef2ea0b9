//! Quiescence: proving the pipeline frozen until a known cycle and
//! sleeping through the cycles in between.
//!
//! The pipeline is *frozen* when every pending state change hangs off a
//! timed event. Everything the window and the memory pipe wait for — an
//! execution or address generation completing, a load's issue slot and
//! data return, a waiting entry's operands becoming ready, a speculative
//! load confirming, the draining store freeing its queue entry — is an
//! event on the core's wheel, so the probe's term for all of it is the
//! wheel's next event. The phase files contribute what is not on the wheel
//! (`*_wake`): the front end's next fetch slot and the fetch queue's head
//! becoming decodable *arm* their cycles; a change that can only follow an
//! armed event (a consumer whose producer has no result time yet, a full
//! fetch queue, a structurally stalled decode) is *chained* and needs no
//! entry of its own, because the run loop re-probes after every stepped
//! cycle; and a phase that can act on the very next cycle with no
//! timestamp to show for it *refuses* (`None`).

use super::Core;
use crate::profile::{self, Phase, Work};
use s64v_trace::TraceStream;

/// The earliest armed event of one quiescence probe.
#[derive(Debug)]
pub(super) struct Wake(u64);

impl Wake {
    /// Candidates at or before the probed cycle mean present activity;
    /// they leave the wakeup at most one cycle ahead and the caller steps
    /// normally.
    pub(super) fn arm(&mut self, cycle: u64) {
        self.0 = self.0.min(cycle);
    }
}

impl Core {
    /// Disables (or re-enables) quiescent-cycle skipping for this core.
    /// Skipping is on by default; either way results are byte-identical —
    /// the switch exists for equivalence testing and debugging.
    pub fn set_skip(&mut self, enabled: bool) {
        self.skip = enabled;
    }

    /// Whether quiescent-cycle skipping is enabled.
    pub fn skip_enabled(&self) -> bool {
        self.skip
    }

    /// The one sleeping rule, for every run loop: after an inert step at
    /// `now`, returns the next cycle this core must be stepped on. When
    /// the probe proves the pipeline frozen until a later cycle, the
    /// cycles in between are accounted at once and the core need not be
    /// touched again before the returned cycle; otherwise that cycle is
    /// `now + 1`. `cap` bounds the sleep for loops that must see the core
    /// step on a particular cycle (an observer boundary, a budget poll).
    /// The core's state is private and only its own step mutates it, so
    /// what other cores or the memory system do meanwhile cannot end the
    /// sleep early. Call it only after everything that reads this cycle's
    /// statistics has run: the slept cycles are recorded ahead of time.
    pub fn sleep_after<S: TraceStream>(&mut self, stream: &S, now: u64, cap: u64) -> u64 {
        if !self.skip {
            return now + 1;
        }
        profile::enter(Phase::Sleep);
        profile::count(Work::Probes, 1);
        let Some(wake) = self.next_wakeup(stream, now) else {
            profile::enter(Phase::RunLoop);
            return now + 1;
        };
        // A wakeup at or before `now` is present activity, not a sleep.
        let wake = wake.min(cap).max(now + 1);
        let slept = wake - 1 - now;
        if slept > 0 {
            profile::count(Work::Sleeps, 1);
            profile::count(Work::SleptCycles, slept);
            // Every input of the accounting is frozen with the pipeline:
            // each state transition it reads (head completion, dispatch or
            // replay, fetch-queue motion, structural releases) is an armed
            // event, and the one time-dependent predicate — the fetch
            // queue's head arriving — cannot flip inside the stretch
            // because its arrival is armed too. So `slept` cycles read at
            // `now` are `slept` stepped cycles.
            self.account_blame(0, now, slept);
            self.replay_decode_stall(now, slept);
            self.account_cycles(wake - 1, slept);
        }
        profile::enter(Phase::RunLoop);
        wake
    }

    /// The earliest future cycle at which this core can do anything beyond
    /// repeating cycle `now`'s idle bookkeeping, or `None` when quiescence
    /// cannot be proven and every cycle must be stepped (see the module
    /// docs).
    fn next_wakeup<S: TraceStream>(&self, stream: &S, now: u64) -> Option<u64> {
        let mut wake = Wake(u64::MAX);
        self.dispatch_wake(now, &mut wake)?;
        self.memory_wake()?;
        self.commit_wake(&mut wake)?;
        // Everything timed — completions, issue slots, operands becoming
        // ready, confirms, the drain release — is on the wheel.
        wake.arm(self.wheel.next_event(now));
        self.fetch_wake(stream, &mut wake)?;
        self.decode_wake(now, &mut wake)?;
        (wake.0 != u64::MAX).then_some(wake.0)
    }
}
