//! Checked mode's audit of the schedule.
//!
//! The kernel acts on cached answers — the wheel's stamps, the window's
//! ready marks, the producer→consumer links — where its definition would
//! walk the window: which incomplete entries' time has come, which waiting
//! entries' operands are ready, which entries hang off a producer. After
//! every audited cycle [`Core::audit_schedule`] recomputes those answers
//! the naive way, entry by entry, from the definitions
//! (`operands_ready_at`, `store_data_at`, `exec_done_at`, the producer
//! lists) and fails on the first disagreement, naming the slot. A lost or
//! mis-armed event is therefore caught on the cycle it happens, not a
//! million cycles later by the wedge horizon.

use super::dispatch::{exec_done_at, operands_ready_at};
use super::writeback::{producers_settled, store_data_at};
use super::Core;
use crate::rob::{WorkList, COMPLETED, DISPATCHED, MEM_ISSUED, NEVER, SPECULATIVE, WAITING_DATA};
use crate::wheel::Lane;
use s64v_isa::OpClass;

impl Core {
    /// Checks, after the step at `now`, that everything the kernel has
    /// scheduled is what the naive definitions say it should be (see the
    /// module docs). `Err` describes the first disagreement.
    pub fn audit_schedule(&self, now: u64) -> Result<(), String> {
        for list in [WorkList::Due, WorkList::Wave] {
            if !self.rob.is_list_empty(list) {
                return Err(format!("the {list:?} list was not drained by its pass"));
            }
        }
        // How many distinct live consumers list each slot as a producer,
        // from the consumers' own lists.
        let mut listed_by = vec![0u32; self.rob.capacity().next_power_of_two()];
        for seq in self.rob.seqs() {
            let slot = self.rob.slot_of(seq);
            let entry = self.rob.entry(slot);
            let here = |what: &str| format!("slot {slot} (seq {seq}, {}): {what}", entry.op);

            let mut seen = [usize::MAX; 2 * s64v_isa::MAX_SRCS];
            for (i, p) in entry
                .producers
                .iter()
                .chain(entry.data_producers.iter())
                .enumerate()
            {
                if self.rob.producer(slot, p).is_none() || seen.contains(&p) {
                    continue; // retired, or listed twice
                }
                seen[i] = p;
                if !self.rob.is_dependent(p, slot) {
                    return Err(here(&format!("lists slot {p} but is not linked from it")));
                }
                listed_by[p] += 1;
            }

            if entry.is(COMPLETED) {
                continue;
            }
            if !entry.is(DISPATCHED) {
                self.audit_waiting(slot, now).map_err(|m| here(&m))?;
            } else {
                self.audit_in_flight(slot, now).map_err(|m| here(&m))?;
            }
        }
        for seq in self.rob.seqs() {
            let slot = self.rob.slot_of(seq);
            let linked = self.rob.dependents_count(slot);
            if linked != listed_by[slot] {
                return Err(format!(
                    "slot {slot} (seq {seq}): {linked} consumers linked, {} list it",
                    listed_by[slot]
                ));
            }
        }
        Ok(())
    }

    /// An entry waiting in its reservation station: it must be there, and
    /// its ready mark and wake event must be what chasing its producers
    /// says.
    fn audit_waiting(&self, slot: usize, now: u64) -> Result<(), String> {
        let entry = self.rob.entry(slot);
        let kind = entry.op.rs_kind().expect("only nops skip the stations");
        if !self.rs.holds(kind, entry.rs_buffer, slot) {
            return Err(format!("not in {kind} buffer {}", entry.rs_buffer));
        }
        let ready_at = operands_ready_at(&self.rob, &self.cfg, slot);
        let armed = self.wheel.stamp(Lane::Ready, slot);
        if ready_at <= now {
            if !self.rob.is_ready(slot) {
                return Err(format!("operands ready since {ready_at}, not marked ready"));
            }
        } else if self.rob.is_ready(slot) {
            return Err(format!("marked ready, operands not before {ready_at}"));
        } else if armed != ready_at {
            return Err(format!(
                "operands ready at {ready_at}, wake armed for {armed}"
            ));
        } else if armed != NEVER && !self.wheel.is_scheduled(Lane::Ready, slot) {
            return Err(format!("wake event for cycle {armed} is lost"));
        }
        Ok(())
    }

    /// A dispatched, incomplete entry: the event it waits for must be the
    /// one its state calls for, and must be on the wheel.
    fn audit_in_flight(&self, slot: usize, now: u64) -> Result<(), String> {
        let entry = self.rob.entry(slot);
        let done = exec_done_at(&self.cfg, entry.dispatched_at, entry.op);
        // The lane and cycle of the event the entry must have armed, or
        // `None` when it waits for a producer's event instead.
        let expect = match entry.op {
            OpClass::Nop => unreachable!("nops complete at decode"),
            OpClass::Load if !entry.is(MEM_ISSUED) => {
                if entry.addr_ready_at < now && self.rob.is_listed(WorkList::IssueReady, slot) {
                    return Ok(()); // waiting for a port
                }
                Some((Lane::Issue, entry.addr_ready_at + 1))
            }
            OpClass::Load => {
                if entry.is(SPECULATIVE) {
                    let confirm = self.mem_pipe.spec_loads.iter().find(|sl| sl.slot == slot);
                    let confirm_at = confirm.map(|sl| sl.confirm_at);
                    if confirm_at != Some(self.wheel.stamp(Lane::Confirm, slot))
                        || !self.wheel.is_scheduled(Lane::Confirm, slot)
                    {
                        return Err(format!("confirm due at {confirm_at:?} is not scheduled"));
                    }
                }
                Some((Lane::Complete, entry.mem_ready_at))
            }
            OpClass::Store if entry.addr_ready_at > now => {
                Some((Lane::Complete, entry.addr_ready_at))
            }
            OpClass::Store => {
                if !entry.is(WAITING_DATA) {
                    return Err("address generated, neither complete nor waiting for data".into());
                }
                let data_at = store_data_at(&self.rob, slot);
                (data_at != NEVER).then_some((Lane::Complete, data_at.max(now + 1)))
            }
            OpClass::BranchCond | OpClass::BranchUncond => Some((Lane::Complete, done)),
            _ if entry.is(SPECULATIVE) => {
                if producers_settled(&self.rob, slot) {
                    return Err("producers settled, result still speculative".into());
                }
                None
            }
            // A result that was derived-speculative completes the cycle
            // after it settled at the earliest, which is not recorded.
            _ => Some((
                Lane::Complete,
                self.wheel.stamp(Lane::Complete, slot).max(done),
            )),
        };
        match expect {
            None => {
                let armed = self.wheel.stamp(Lane::Complete, slot);
                if armed != NEVER {
                    return Err(format!("waits for a producer, yet armed for {armed}"));
                }
            }
            Some((lane, at)) => {
                let armed = self.wheel.stamp(lane, slot);
                if armed != at || at <= now {
                    return Err(format!("{lane:?} due at {at}, armed for {armed}"));
                }
                if !self.wheel.is_scheduled(lane, slot) {
                    return Err(format!("{lane:?} event for cycle {at} is lost"));
                }
            }
        }
        Ok(())
    }
}
