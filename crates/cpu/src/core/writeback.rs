//! Writeback: speculative loads confirm or cancel their dependents,
//! executions and data returns complete, drained stores free their queue
//! entries.

use super::dispatch::exec_done_at;
use super::quiesce::Wake;
use super::Core;
use crate::rob::{InstrState, Rob};
use s64v_isa::OpClass;

/// Per-cycle scratch lists: cleared every cycle, so after the first few
/// cycles a step performs no heap allocation.
#[derive(Debug, Default)]
pub(super) struct Scratch {
    incomplete: Vec<u64>,
    /// (seq, pc, taken, mispredicted)
    branches: Vec<(u64, u64, bool, bool)>,
    load_seqs: Vec<u64>,
    store_data: Vec<(u64, u64)>,
    failed_loads: Vec<u64>,
    poison: Vec<u64>,
}

/// Whether none of `entry`'s in-window producers still advertises a
/// hit-predicted (cancellable) result: a result derived from a speculative
/// one is itself speculative until then.
pub(super) fn producers_settled(rob: &Rob, entry: &InstrState) -> bool {
    entry
        .producers
        .iter()
        .all(|&p| rob.get(p).is_none_or(|pe| !pe.result_speculative))
}

/// The cycle by which a store's address and every operand, data included,
/// are architecturally available; `None` while an in-window producer has
/// no settled result time.
fn store_data_at(rob: &Rob, entry: &InstrState) -> Option<u64> {
    let mut latest = entry.addr_ready_at.unwrap_or(0);
    for &p in entry.producers.iter().chain(entry.data_producers.iter()) {
        if let Some(pe) = rob.get(p) {
            let at = pe.result_at.filter(|_| !pe.result_speculative)?;
            latest = latest.max(at);
        }
    }
    Some(latest)
}

impl Core {
    /// Returns whether any pipeline state changed (beyond bookkeeping),
    /// so the run loop can restrict quiescence probes to inert cycles.
    pub(super) fn writeback(&mut self, now: u64) -> bool {
        let confirmed = self.confirm_speculative_loads(now);
        let completed = self.complete_instructions(now);
        let released = self.release_drained_stores(now);
        confirmed || completed || released
    }

    fn confirm_speculative_loads(&mut self, now: u64) -> bool {
        let mut acted = false;
        let mut failed = std::mem::take(&mut self.wb_scratch.failed_loads);
        failed.clear();
        let mut i = 0;
        while i < self.mem_pipe.spec_loads.len() {
            let sl = self.mem_pipe.spec_loads[i];
            if sl.confirm_at > now {
                i += 1;
                continue;
            }
            acted = true;
            let entry = self
                .rob
                .get_mut(sl.seq)
                .expect("speculative load left the window");
            if sl.actual_ready <= sl.confirm_at {
                // Hit as predicted: the advertised time stands.
                entry.result_speculative = false;
            } else {
                // Miss: advertise the real time and cancel the dependents
                // dispatched on the wrong prediction.
                entry.result_at = Some(sl.actual_ready);
                entry.result_speculative = false;
                failed.push(sl.seq);
            }
            self.mem_pipe.spec_loads.swap_remove(i);
        }
        for &seq in &failed {
            self.cancel_dependents(seq, now);
        }
        self.wb_scratch.failed_loads = failed;
        acted
    }

    /// §3.1: "all instructions that have read-after-write dependency must
    /// be cancelled at every stage of the execution pipelines."
    fn cancel_dependents(&mut self, poisoned_seq: u64, now: u64) {
        let mut poison = std::mem::take(&mut self.wb_scratch.poison);
        poison.clear();
        poison.push(poisoned_seq);
        for seq in self.rob.seqs() {
            if seq <= poisoned_seq {
                continue;
            }
            let Some(entry) = self.rob.get(seq) else {
                continue;
            };
            if !entry.dispatched || entry.completed {
                continue;
            }
            let depends = entry
                .producers
                .iter()
                .chain(entry.data_producers.iter())
                .any(|p| poison.contains(p));
            if !depends {
                continue;
            }
            let kind = entry
                .rec
                .instr
                .op
                .rs_kind()
                .expect("dispatched ops have an RS");
            let buffer = entry.rs_buffer;
            self.rob.cancel_entry(seq);
            self.rs.reinsert(kind, buffer, seq);
            self.stats.replays.incr();
            self.note_replay(seq, now);
            poison.push(seq);
        }
        self.wb_scratch.poison = poison;
    }

    fn complete_instructions(&mut self, now: u64) -> bool {
        let mut acted = false;
        let mut resolved_branches = std::mem::take(&mut self.wb_scratch.branches);
        let mut completed_loads = std::mem::take(&mut self.wb_scratch.load_seqs);
        let mut store_data = std::mem::take(&mut self.wb_scratch.store_data);
        let mut pending = std::mem::take(&mut self.wb_scratch.incomplete);
        resolved_branches.clear();
        completed_loads.clear();
        store_data.clear();
        self.rob.collect_due(now, &mut pending);

        // Each arm reads the handful of fields it needs through the shared
        // borrow and only then mutates; copying whole `InstrState`s out of
        // the window (~2 cache lines apiece) dominated this scan's cost.
        for &seq in &pending {
            let entry = self.rob.get(seq).expect("incomplete entries are live");
            let op = entry.rec.instr.op;
            match op {
                OpClass::Nop => {
                    acted = true;
                    self.rob.mark_completed(seq);
                    self.note_complete(seq, now);
                }
                OpClass::Load => {
                    if entry.mem_issued {
                        let ready = entry.mem_ready_at.expect("issued load has a data time");
                        if ready <= now {
                            acted = true;
                            self.rob.get_mut(seq).expect("present").result_speculative = false;
                            self.rob.mark_completed(seq);
                            self.note_complete(seq, now);
                            completed_loads.push(seq);
                        }
                    }
                }
                OpClass::Store => {
                    if entry.addr_ready_at.is_some_and(|a| a <= now) {
                        match store_data_at(&self.rob, entry) {
                            Some(data_at) if data_at <= now => {
                                acted = true;
                                store_data.push((seq, data_at));
                                self.rob.mark_completed(seq);
                                self.note_complete(seq, now);
                            }
                            // Data readiness can change any cycle as
                            // producers settle: re-examine every cycle.
                            _ => self.rob.set_wake(seq, 0),
                        }
                    }
                }
                OpClass::BranchCond | OpClass::BranchUncond => {
                    if entry.dispatched && exec_done_at(&self.cfg, entry.dispatched_at, op) <= now {
                        acted = true;
                        let taken = entry.rec.instr.branch.map(|b| b.taken).unwrap_or(false);
                        resolved_branches.push((seq, entry.rec.pc, taken, entry.mispredicted));
                        self.rob.get_mut(seq).expect("present").resolved = true;
                        self.rob.mark_completed(seq);
                        self.note_complete(seq, now);
                    }
                }
                _ => {
                    if !entry.dispatched {
                        continue;
                    }
                    let done = exec_done_at(&self.cfg, entry.dispatched_at, op);
                    if !entry.result_speculative {
                        if done <= now {
                            acted = true;
                            self.rob.mark_completed(seq);
                            self.note_complete(seq, now);
                        }
                    } else if producers_settled(&self.rob, entry) {
                        // A derived-speculative result settles when its
                        // producers have; until then it is checked again
                        // next cycle.
                        acted = true;
                        self.rob.get_mut(seq).expect("present").result_speculative = false;
                        self.rob.set_wake(seq, done);
                    }
                }
            }
        }

        for &seq in &completed_loads {
            self.lsq.release_load(seq);
        }
        for &(seq, data_at) in &store_data {
            self.lsq.set_store_data_ready(seq, data_at);
        }
        for &(seq, pc, taken, mispredicted) in &resolved_branches {
            if self.rob.get(seq).map(|e| e.rec.instr.op) == Some(OpClass::BranchCond) {
                self.stats.cond_branches.incr();
                if !self.cfg.perfect_branch_prediction {
                    self.bht.update(pc, taken);
                }
                if mispredicted {
                    self.stats.mispredicts.incr();
                }
            }
            if mispredicted && self.front.stalling_branch == Some(seq) {
                self.front.stalled = false;
                self.front.stalling_branch = None;
                self.front.next_fetch_at = self
                    .front
                    .next_fetch_at
                    .max(now + self.cfg.redirect_penalty as u64);
            }
        }

        self.wb_scratch.branches = resolved_branches;
        self.wb_scratch.load_seqs = completed_loads;
        self.wb_scratch.store_data = store_data;
        self.wb_scratch.incomplete = pending;
        acted
    }

    fn release_drained_stores(&mut self, now: u64) -> bool {
        let mut acted = false;
        let mut i = 0;
        while i < self.mem_pipe.draining.len() {
            if self.mem_pipe.draining[i].free_at <= now {
                acted = true;
                let seq = self.mem_pipe.draining[i].seq;
                self.lsq.release_store(seq);
                self.mem_pipe.draining.swap_remove(i);
            } else {
                i += 1;
            }
        }
        acted
    }

    /// Writeback's wake term for the accesses memory issue left open:
    /// speculative loads confirm (and may cancel dependents), and draining
    /// stores free their queue entries, at fixed cycles.
    pub(super) fn writeback_wake(&self, wake: &mut Wake) {
        for sl in &self.mem_pipe.spec_loads {
            wake.arm(sl.confirm_at);
        }
        for d in &self.mem_pipe.draining {
            wake.arm(d.free_at);
        }
    }

    /// Writeback's wake term for one dispatched entry that is not a load:
    /// the cycle it completes. A time hanging off an unsettled producer is
    /// chained to that producer's own event.
    pub(super) fn completion_wake(&self, entry: &InstrState, now: u64, wake: &mut Wake) {
        let op = entry.rec.instr.op;
        match op {
            OpClass::Store => {
                if let Some(data_at) = store_data_at(&self.rob, entry) {
                    wake.arm(data_at);
                }
            }
            _ if op.is_branch() || !entry.result_speculative => {
                wake.arm(exec_done_at(&self.cfg, entry.dispatched_at, op));
            }
            // A derived-speculative result settles the cycle after its
            // producers settle.
            _ => {
                if producers_settled(&self.rob, entry) {
                    wake.arm(now + 1);
                }
            }
        }
    }
}
