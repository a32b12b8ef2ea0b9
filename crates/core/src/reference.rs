//! The reference checker — this reproduction's "logic simulator" analogue.
//!
//! During development the paper verified the performance model against a
//! cycle-accurate logic simulator built from the RTL (§2.2): the two were
//! run on the same inputs and compared. No RTL exists here, so the
//! equivalent cross-check is an *independent, much simpler timing model* —
//! a scalar in-order machine over the same [`s64v_mem::MemorySystem`] —
//! that shares none of the out-of-order model's scheduling code. The two
//! models must agree on the things any correct pair of models agrees on:
//!
//! * identical architectural work (instructions, memory accesses, branch
//!   outcomes are all trace-given),
//! * the out-of-order model is never slower than the scalar machine,
//! * both rank workloads and cache configurations the same way.
//!
//! [`compare`] packages that check; the `verify_model` harness binary and
//! the integration tests run it across workloads.

use crate::system::SystemConfig;
use s64v_cpu::Bht;
use s64v_isa::OpClass;
use s64v_mem::MemorySystem;
use s64v_trace::{TraceRecord, TraceStream};

/// Cycle count and event totals from the reference machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReferenceResult {
    /// Total cycles.
    pub cycles: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// Conditional branches executed.
    pub cond_branches: u64,
    /// Mispredicted conditional branches.
    pub mispredicts: u64,
}

impl ReferenceResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// A scalar, in-order, blocking-memory reference machine.
///
/// One instruction enters execution per cycle; every load blocks until its
/// data returns; branches redirect after a fixed resolve time when
/// mispredicted. It reuses the detailed [`MemorySystem`] (so cache
/// behaviour matches the main model exactly) but none of the out-of-order
/// machinery.
#[derive(Debug)]
pub struct ReferenceMachine {
    config: SystemConfig,
}

impl ReferenceMachine {
    /// Creates a reference machine for `config` (its core width/window
    /// parameters are ignored; memory parameters are honoured).
    pub fn new(config: SystemConfig) -> Self {
        ReferenceMachine { config }
    }

    /// Runs a trace to completion (optionally warming on a prefix).
    pub fn run<S: TraceStream>(&self, mut stream: S, warmup: usize) -> ReferenceResult {
        let mut mem = MemorySystem::new(self.config.mem.clone(), 1);
        let mut bht = Bht::new(self.config.core.bht);
        let lat = &self.config.core.latencies;

        let mut warmed = 0usize;
        let mut now = 0u64;
        let mut instructions = 0u64;
        let mut cond = 0u64;
        let mut wrong = 0u64;

        while let Some(rec) = stream.next_record() {
            if warmed < warmup {
                warmed += 1;
                Self::warm_one(
                    &mut mem,
                    &mut bht,
                    &rec,
                    self.config.core.perfect_branch_prediction,
                );
                continue;
            }
            instructions += 1;

            // Fetch: every instruction pays the I-side when its line is new
            // (the fetch interface caches at line granularity internally).
            let fetch = mem.fetch(0, rec.pc, now);
            now = fetch.ready_at.max(now + 1);

            // Execute.
            match rec.instr.op {
                OpClass::Load => {
                    let m = rec.instr.mem.expect("load has memory info");
                    let access = mem.load(0, m.addr, now);
                    now = access.ready_at;
                }
                OpClass::Store => {
                    let m = rec.instr.mem.expect("store has memory info");
                    let access = mem.store(0, m.addr, now);
                    // Stores retire into the write buffer: charge only the
                    // occupancy, not the full line fill.
                    now += 1;
                    let _ = access;
                }
                OpClass::BranchCond => {
                    cond += 1;
                    let taken = rec.instr.branch.expect("cond branch info").taken;
                    let predicted = if self.config.core.perfect_branch_prediction {
                        taken
                    } else {
                        bht.predict(rec.pc)
                    };
                    if !self.config.core.perfect_branch_prediction {
                        bht.update(rec.pc, taken);
                    }
                    now += lat.get(OpClass::BranchCond) as u64;
                    if predicted != taken {
                        wrong += 1;
                        now += self.config.core.redirect_penalty as u64 + 4;
                    }
                }
                op => {
                    now += lat.get(op) as u64;
                }
            }
        }

        ReferenceResult {
            cycles: now,
            instructions,
            cond_branches: cond,
            mispredicts: wrong,
        }
    }

    fn warm_one(mem: &mut MemorySystem, bht: &mut Bht, rec: &TraceRecord, perfect_bp: bool) {
        mem.warm_fetch(0, rec.pc);
        if rec.instr.op == OpClass::BranchCond && !perfect_bp {
            if let Some(b) = rec.instr.branch {
                bht.update(rec.pc, b.taken);
            }
        }
        if let Some(m) = rec.instr.mem {
            mem.warm_data(0, m.addr, rec.instr.op == OpClass::Store);
        }
    }
}

/// Outcome of cross-checking the detailed model against the reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelCheck {
    /// Detailed-model cycles.
    pub model_cycles: u64,
    /// Reference-machine cycles.
    pub reference_cycles: u64,
    /// Detailed model speedup over the scalar reference (≥ 1 expected).
    pub speedup: f64,
    /// Both executed the same instruction count.
    pub same_work: bool,
}

impl ModelCheck {
    /// Whether the cross-check passed.
    pub fn passed(&self) -> bool {
        self.same_work && self.speedup >= 1.0
    }
}

/// Runs both models on the same trace and compares them.
pub fn compare(config: &SystemConfig, trace: &s64v_trace::VecTrace, warmup: usize) -> ModelCheck {
    let model = crate::model::PerformanceModel::new(config.clone());
    let detailed = model.run(crate::model::Run::of(trace).warm(warmup));
    let reference = ReferenceMachine::new(config.clone()).run(trace.stream(), warmup);
    ModelCheck {
        model_cycles: detailed.cycles,
        reference_cycles: reference.cycles,
        speedup: reference.cycles as f64 / detailed.cycles.max(1) as f64,
        same_work: detailed.committed == reference.instructions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Run;
    use s64v_workloads::{Suite, SuiteKind};

    #[test]
    fn out_of_order_model_beats_the_scalar_reference() {
        for kind in [SuiteKind::SpecInt95, SuiteKind::SpecFp95, SuiteKind::Tpcc] {
            let suite = Suite::preset(kind);
            let trace = suite.programs()[0].generate(50_000, 5);
            let check = compare(&SystemConfig::sparc64_v(), &trace, 30_000);
            assert!(check.same_work, "{kind}: same architectural work");
            assert!(
                check.speedup >= 1.0,
                "{kind}: OOO model must not lose to in-order ({:.2}×)",
                check.speedup
            );
        }
    }

    #[test]
    fn both_models_rank_unambiguous_configs_identically() {
        // The L2 on/off-chip trade-off is one-sided for TPC-C (more
        // latency on every L2 access plus direct-mapped conflicts), so
        // two correct models must order it the same way. (Close calls
        // like Figure 11's 2% L1 trade-off can legitimately flip between
        // models of different fidelity — that is the paper's point.)
        let suite = Suite::preset(SuiteKind::Tpcc);
        let trace = suite.programs()[0].generate(60_000, 5);
        let on = SystemConfig::sparc64_v();
        let off = on
            .clone()
            .with_mem(on.mem.clone().with_off_chip_l2_direct());

        let ref_on = ReferenceMachine::new(on.clone()).run(trace.stream(), 30_000);
        let ref_off = ReferenceMachine::new(off.clone()).run(trace.stream(), 30_000);
        let model_on = crate::model::PerformanceModel::new(on).run(Run::of(&trace).warm(30_000));
        let model_off = crate::model::PerformanceModel::new(off).run(Run::of(&trace).warm(30_000));

        assert!(ref_on.cycles < ref_off.cycles, "reference prefers on-chip");
        assert!(model_on.cycles < model_off.cycles, "model prefers on-chip");
    }

    #[test]
    fn reference_is_deterministic() {
        let suite = Suite::preset(SuiteKind::SpecInt95);
        let trace = suite.programs()[1].generate(20_000, 5);
        let m = ReferenceMachine::new(SystemConfig::sparc64_v());
        let a = m.run(trace.stream(), 5_000);
        let b = m.run(trace.stream(), 5_000);
        assert_eq!(a, b);
    }
}
