//! Writeback: the cycle's events come off the wheel; speculative loads
//! confirm or cancel their dependents, executions and data returns
//! complete, drained stores free their queue entries.

use super::dispatch::exec_done_at;
use super::Core;
use crate::profile::{self, Phase, Work};
use crate::rob::{
    Rob, WorkList, COMPLETED, DISPATCHED, MISPREDICTED, NEVER, SPECULATIVE, WAITING_DATA,
};
use crate::wheel::Lane;
use s64v_isa::OpClass;

/// Whether none of the in-window producers of the entry in `slot` still
/// advertises a hit-predicted (cancellable) result: a result derived from
/// a speculative one is itself speculative until then.
pub(super) fn producers_settled(rob: &Rob, slot: usize) -> bool {
    let mut producers = rob.entry(slot).producers.iter();
    producers.all(|p| rob.producer(slot, p).is_none_or(|pe| !pe.is(SPECULATIVE)))
}

/// The cycle by which the address and every operand, data included, of
/// the store in `slot` are architecturally available; [`NEVER`] while an
/// in-window producer has no settled result time.
pub(super) fn store_data_at(rob: &Rob, slot: usize) -> u64 {
    let entry = rob.entry(slot);
    let mut latest = if entry.addr_ready_at == NEVER {
        0
    } else {
        entry.addr_ready_at
    };
    for p in entry.producers.iter().chain(entry.data_producers.iter()) {
        if let Some(pe) = rob.producer(slot, p) {
            if pe.result_at == NEVER || pe.is(SPECULATIVE) {
                return NEVER;
            }
            latest = latest.max(pe.result_at);
        }
    }
    latest
}

/// What a wave of [`Core::result_changed`] does to the dispatched,
/// incomplete consumers it reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Wave {
    /// Returns them to their reservation stations (a failed hit
    /// prediction).
    Cancel,
    /// Re-arms and settles them; what is due already goes on this cycle's
    /// completion list (the confirm pass, which runs before it).
    BeforePass,
    /// Re-arms and settles them; what is due already is due next cycle
    /// (every phase after the completion pass).
    AfterPass,
}

impl Core {
    /// Returns whether any pipeline state changed (beyond bookkeeping),
    /// so the run loop can restrict quiescence probes to inert cycles.
    pub(super) fn writeback(&mut self, now: u64) -> bool {
        profile::enter(Phase::Deliver);
        let (confirm, release) = self.deliver_events(now);
        profile::enter(Phase::Confirm);
        let confirmed = confirm && self.confirm_speculative_loads(now);
        profile::enter(Phase::Complete);
        let completed = self.complete_instructions(now);
        profile::enter(Phase::Release);
        if release {
            // The draining store — the queue's oldest — is in the cache.
            self.lsq.release_store();
        }
        confirmed || completed || release
    }

    /// Takes this cycle's events off the wheel, filing each slot on the
    /// list its lane feeds; returns whether a speculative-load confirm and
    /// a store-drain release are due.
    fn deliver_events(&mut self, now: u64) -> (bool, bool) {
        let (mut confirm, mut release) = (false, false);
        let rob = &mut self.rob;
        self.wheel.deliver(now, |lane, slot| {
            profile::count(Work::EventsDelivered, 1);
            match lane {
                Lane::Complete => rob.file(WorkList::Due, slot),
                Lane::Issue => rob.file(WorkList::IssueReady, slot),
                Lane::Ready => rob.set_ready(slot, true),
                Lane::Confirm => confirm = true,
                Lane::Release => release = true,
            }
        });
        (confirm, release)
    }

    /// The confirm pass, run on the cycles a confirm is due. The list is
    /// walked in its own order — arrival order perturbed by the
    /// `swap_remove`s of earlier passes — because that order decides which
    /// of two failing loads' dependents re-enter a full station first.
    fn confirm_speculative_loads(&mut self, now: u64) -> bool {
        let mut confirmed = std::mem::take(&mut self.mem_pipe.confirmed);
        confirmed.clear();
        let mut i = 0;
        while i < self.mem_pipe.spec_loads.len() {
            let sl = self.mem_pipe.spec_loads[i];
            if sl.confirm_at > now {
                i += 1;
                continue;
            }
            let entry = self.rob.entry_mut(sl.slot);
            debug_assert!(entry.is(SPECULATIVE) && !entry.is(COMPLETED));
            // What the load really delivers, as its consumers see it.
            let actual = entry.mem_ready_at + 1;
            let hit = actual <= sl.confirm_at;
            if !hit {
                // Miss: advertise the real time (and, below, cancel the
                // dependents dispatched on the wrong prediction). On a
                // hit the advertised time stands.
                entry.result_at = actual;
            }
            entry.flags &= !SPECULATIVE;
            confirmed.push((sl.slot, hit));
            self.mem_pipe.spec_loads.swap_remove(i);
        }
        // Every load of the batch is settled before any consequence is
        // drawn, cancels before settles: a consumer of two of them sees
        // both final.
        for &(slot, hit) in &confirmed {
            if !hit {
                self.result_changed(slot, Wave::Cancel, now);
            }
        }
        for &(slot, hit) in &confirmed {
            if hit {
                self.result_changed(slot, Wave::BeforePass, now);
            }
        }
        let acted = !confirmed.is_empty();
        self.mem_pipe.confirmed = confirmed;
        acted
    }

    /// Draws the consequences of a change to the advertised result of the
    /// entry in `origin` — its time set, moved or withdrawn, its
    /// speculation settled — in exactly its consumers, oldest first,
    /// following the producer→consumer links:
    ///
    /// * a consumer still waiting in its reservation station gets its
    ///   cached operand-ready time refreshed;
    /// * in a [`Wave::Cancel`] (a failed hit prediction, §3.1: "all
    ///   instructions that have read-after-write dependency must be
    ///   cancelled at every stage of the execution pipelines"), a
    ///   dispatched, incomplete consumer returns to its station, and its
    ///   own consumers join the wave;
    /// * otherwise a store waiting for data has its completion re-armed,
    ///   and a derived-speculative result whose producers are now all
    ///   settled settles — completing no earlier than next cycle — and
    ///   its consumers join the wave.
    pub(super) fn result_changed(&mut self, origin: usize, wave: Wave, now: u64) {
        self.rob.start_wave(origin);
        self.run_wave(wave, now);
    }

    /// Walks the wave [`Rob::start_wave`] started (see `result_changed`;
    /// commit starts one for the entry it is about to retire).
    pub(super) fn run_wave(&mut self, wave: Wave, now: u64) {
        let mut from = 0;
        while let Some(slot) = self.rob.take_next(WorkList::Wave, from) {
            from = self.rob.age(slot) + 1;
            profile::count(Work::WaveVisits, 1);
            let entry = self.rob.entry(slot);
            if entry.is(COMPLETED) {
                continue;
            }
            if !entry.is(DISPATCHED) {
                self.refresh_ready(slot, now);
                continue;
            }
            let op = entry.op;
            if wave == Wave::Cancel {
                let kind = op.rs_kind().expect("dispatched ops have an RS");
                let buffer = entry.rs_buffer;
                self.rob.cancel_entry(slot);
                // Whatever it had armed — a completion, an issue slot —
                // is stale.
                self.wheel.disarm(Lane::Complete, slot);
                self.wheel.disarm(Lane::Issue, slot);
                self.refresh_ready(slot, now);
                self.rs.reinsert(kind, buffer, slot);
                self.stats.replays.incr();
                self.note_replay(self.rob.seq_in(slot));
                self.rob.widen_wave(slot);
            } else if entry.is(WAITING_DATA) {
                self.rearm_store(slot, now, wave == Wave::BeforePass);
            } else if entry.is(SPECULATIVE)
                && !op.is_mem()
                && !op.is_branch()
                && producers_settled(&self.rob, slot)
            {
                let done = exec_done_at(&self.cfg, entry.dispatched_at, op);
                self.rob.entry_mut(slot).flags &= !SPECULATIVE;
                self.wheel.arm(Lane::Complete, slot, done.max(now + 1));
                self.rob.widen_wave(slot);
            }
        }
    }

    /// Arms the completion of a store whose address is generated: at the
    /// cycle its data is in, if every producer's time is settled;
    /// otherwise it waits for the producer whose result changes next.
    /// Before this cycle's completion pass a store already due goes on
    /// the pass's list; after it, it is due next cycle.
    fn rearm_store(&mut self, slot: usize, now: u64, before_pass: bool) {
        let data_at = store_data_at(&self.rob, slot);
        if data_at == NEVER {
            return;
        }
        if before_pass && data_at <= now {
            self.rob.file(WorkList::Due, slot);
        } else {
            let at = data_at.max(now + 1);
            if self.wheel.stamp(Lane::Complete, slot) != at {
                self.wheel.arm(Lane::Complete, slot, at);
            }
        }
    }

    fn complete_instructions(&mut self, now: u64) -> bool {
        let mut acted = false;
        // Program order: `Bht::update` and the mispredict stall's release
        // must happen in the order the branches appear.
        let mut from = 0;
        while let Some(slot) = self.rob.take_next(WorkList::Due, from) {
            from = self.rob.age(slot) + 1;
            profile::count(Work::CompletionsExamined, 1);
            let entry = self.rob.entry(slot);
            let op = entry.op;
            let finished = match op {
                OpClass::Nop => unreachable!("nops complete at decode"),
                OpClass::Load => {
                    debug_assert!(entry.mem_ready_at <= now && !entry.is(SPECULATIVE));
                    self.lsq.release_load();
                    true
                }
                OpClass::Store => {
                    debug_assert!(entry.addr_ready_at <= now);
                    let data_at = store_data_at(&self.rob, slot);
                    if data_at <= now {
                        self.lsq
                            .set_store_data_ready(entry.sq_index as usize, data_at);
                        true
                    } else {
                        // The data is not in: wait for its cycle, or for
                        // the producer whose result changes next.
                        self.rob.entry_mut(slot).flags |= WAITING_DATA;
                        self.rearm_store(slot, now, false);
                        false
                    }
                }
                OpClass::BranchCond | OpClass::BranchUncond => {
                    debug_assert!(exec_done_at(&self.cfg, entry.dispatched_at, op) <= now);
                    self.resolve_branch(slot, now);
                    true
                }
                _ => {
                    debug_assert!(!entry.is(SPECULATIVE), "armed only once settled");
                    debug_assert!(exec_done_at(&self.cfg, entry.dispatched_at, op) <= now);
                    true
                }
            };
            if finished {
                acted = true;
                profile::count(Work::Completions, 1);
                self.rob.mark_completed(slot);
                self.note_complete(self.rob.seq_in(slot), now);
            }
        }
        acted
    }

    /// A resolved branch trains the predictor and, if it is the one fetch
    /// stalled behind, restarts fetch after the redirect penalty.
    fn resolve_branch(&mut self, slot: usize, now: u64) {
        let entry = self.rob.entry(slot);
        let mispredicted = entry.is(MISPREDICTED);
        if entry.op == OpClass::BranchCond {
            self.stats.cond_branches.incr();
            if !self.cfg.perfect_branch_prediction {
                let rec = self.rob.rec(slot);
                let taken = rec.instr.branch.map(|b| b.taken).unwrap_or(false);
                self.bht.update(rec.pc, taken);
            }
            if mispredicted {
                self.stats.mispredicts.incr();
            }
        }
        if mispredicted && self.front.stalling_branch == Some(self.rob.seq_in(slot)) {
            self.front.stalled = false;
            self.front.stalling_branch = None;
            self.front.next_fetch_at = self
                .front
                .next_fetch_at
                .max(now + self.cfg.redirect_penalty as u64);
        }
    }
}
