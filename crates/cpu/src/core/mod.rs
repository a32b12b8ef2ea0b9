//! The cycle-stepped out-of-order core.
//!
//! [`Core::try_step`] advances one cycle through the pipeline phases in
//! reverse order — writeback, commit, memory issue, dispatch, decode,
//! fetch — so that every same-cycle hand-off observes the previous cycle's
//! state. The model is trace driven: architecturally correct paths,
//! addresses and branch outcomes come from the trace; the pipeline decides
//! only *when* things happen.
//!
//! One file per phase, each an `impl Core` block holding the phase's step
//! function, the state only that phase writes and the timing rules it
//! sets. Nothing in a cycle scans the window: what happens at a known
//! cycle is an event on the core's wheel ([`crate::wheel`]), delivered by
//! writeback on that cycle, and a change to a producer's result reaches
//! exactly its consumers through the window's links ([`crate::rob`]). So
//! the quiescence probe's term for everything timed is the wheel's next
//! event, and a phase file adds only what has no timestamp:
//!
//! | file | phase | owns | arms on the wheel | wake term |
//! |---|---|---|---|---|
//! | `fetch.rs` | fetch | `FrontEnd` (fetch queue, next fetch slot, mispredict stall) | — | next fetch slot |
//! | `decode.rs` | decode / allocate | `DecodeGate` (the one reading of decode backpressure) | a new entry's `Ready` | fetch-queue head becoming decodable; an open gate refuses |
//! | `dispatch.rs` | dispatch | execution-unit busy times; operand-ready and execution-done times | `Complete` (execution, address generation), a load's `Issue` slot, consumers' `Ready` | a ready entry waiting for a unit; parked replays refuse |
//! | `memory.rs` | memory issue | `MemPipe` (speculative loads awaiting confirm) | a load's `Complete` (data return) and `Confirm`, the drain's `Release`, consumers' `Ready` | an undrained committed store or a load that lost arbitration refuses |
//! | `writeback.rs` | writeback | event delivery; the wave down the links (cancel, settle, re-arm); "producers settled", store-data time | a settled result's or a store's `Complete`, consumers' `Ready` | — (all on the wheel) |
//! | `commit.rs` | commit + accounting | head-of-window blame, per-cycle counters, the wedge horizon | — | completed head refuses; the wedge check |
//! | `quiesce.rs` | — | the skip switch | — | composes the terms with the wheel's next event; sleeps |
//! | `audit.rs` | — (checked mode) | — | — | recomputes the schedule from the definitions |

use crate::bpred::Bht;
use crate::config::CoreConfig;
use crate::error::{CoreError, HeadInstr, PipelineSnapshot, RsOccupancy};
use crate::lsq::LoadStoreQueues;
use crate::profile::{self, Phase, Work};
use crate::rename::{RenameMap, RenamePool};
use crate::rob::{Rob, COMPLETED, DISPATCHED};
use crate::rs::ReservationStations;
use crate::stats::CoreStats;
use crate::timeline::PipelineTrace;
use crate::wheel::Wheel;
use s64v_isa::{OpClass, RsKind};
use s64v_mem::MemorySystem;
use s64v_trace::{TraceRecord, TraceStream};

mod audit;
mod commit;
mod decode;
mod dispatch;
mod fetch;
mod memory;
mod quiesce;
mod writeback;

#[cfg(test)]
mod tests;

/// Functional warming of one record (the paper's steady-state tracing,
/// §2.2): CPU `cpu`'s instruction and operand paths of `mem` see the
/// record's addresses and every table of `bhts` — none under perfect
/// branch prediction, which never consults a table — sees a conditional
/// branch's outcome. No timing is simulated. The arguments are
/// everything warming reads or writes, so a warm state can be built,
/// kept and copied with no core; and the memory system and the tables
/// never read each other, so one memory state can be warmed beside any
/// number of tables.
pub fn warm_record(bhts: &mut [Bht], mem: &mut MemorySystem, cpu: usize, rec: &TraceRecord) {
    mem.warm_fetch(cpu, rec.pc);
    if rec.instr.op == OpClass::BranchCond {
        if let Some(b) = rec.instr.branch {
            for bht in bhts {
                bht.update(rec.pc, b.taken);
            }
        }
    }
    if let Some(m) = rec.instr.mem {
        mem.warm_data(cpu, m.addr, rec.instr.op == OpClass::Store);
    }
}

/// One SPARC64 V core.
///
/// # Examples
///
/// ```
/// use s64v_cpu::{Core, CoreConfig};
/// use s64v_isa::Instr;
/// use s64v_mem::{MemConfig, MemorySystem};
/// use s64v_trace::{TraceRecord, VecTrace};
///
/// let trace: VecTrace = (0..100)
///     .map(|i| TraceRecord::new(0x1000 + i * 4, Instr::nop()))
///     .collect();
/// let mut mem = MemorySystem::new(MemConfig::sparc64_v(), 1);
/// let mut core = Core::new(CoreConfig::sparc64_v(), 0);
/// let mut stream = trace.stream();
/// let mut now = 0;
/// while !core.is_done(&stream) {
///     core.try_step(&mut mem, &mut stream, now).expect("no wedge");
///     now += 1;
/// }
/// assert_eq!(core.stats().committed.get(), 100);
/// ```
#[derive(Debug)]
pub struct Core {
    cfg: CoreConfig,
    core_id: usize,
    rob: Rob,
    /// The timed events of everything in the window and the memory pipe.
    wheel: Wheel,
    rs: ReservationStations,
    rename_pool: RenamePool,
    rename_map: RenameMap,
    lsq: LoadStoreQueues,
    bht: Bht,
    stats: CoreStats,
    front: fetch::FrontEnd,
    int_unit_busy: [u64; 2],
    fp_unit_busy: [u64; 2],
    mem_pipe: memory::MemPipe,
    last_commit_cycle: u64,
    /// Quiescent-cycle skipping enabled (see `quiesce.rs`).
    skip: bool,
    timeline: Option<PipelineTrace>,
}

impl Core {
    /// Creates a core with the given configuration and CPU id (its index
    /// in the shared [`MemorySystem`]).
    pub fn new(cfg: CoreConfig, core_id: usize) -> Self {
        let bht = Bht::new(cfg.bht);
        Core::warmed(cfg, core_id, bht)
    }

    /// A core whose branch history table has already seen a warm-up:
    /// `bht` is the table [`warm_record`] trained, the only core state
    /// functional warming touches, so this core equals a [`Core::new`]
    /// that replayed the same records through [`Core::warm`]. Pipeline
    /// state, statistics and timelines start empty.
    ///
    /// # Panics
    ///
    /// Panics if `bht` was not built from `cfg.bht`.
    pub fn warmed(cfg: CoreConfig, core_id: usize, bht: Bht) -> Self {
        assert_eq!(*bht.config(), cfg.bht, "the table is not this core's");
        let longest = s64v_isa::opclass::ALL_OP_CLASSES
            .iter()
            .map(|&op| cfg.latencies.get(op))
            .max()
            .expect("there are op classes");
        Core {
            rob: Rob::new(cfg.window_size),
            // A lap covers the longest execution (dispatch + latency + the
            // issue slot after it); memory returns may lap.
            wheel: Wheel::new(longest + 3, (cfg.window_size as usize).next_power_of_two()),
            rs: ReservationStations::new(&cfg),
            rename_pool: RenamePool::new(cfg.int_rename_regs, cfg.fp_rename_regs),
            rename_map: RenameMap::new(),
            lsq: LoadStoreQueues::new(cfg.load_queue, cfg.store_queue),
            bht,
            stats: CoreStats::new(cfg.window_size, cfg.load_queue, cfg.store_queue),
            front: fetch::FrontEnd::new(cfg.fetch_queue),
            int_unit_busy: [0; 2],
            fp_unit_busy: [0; 2],
            mem_pipe: memory::MemPipe::default(),
            last_commit_cycle: 0,
            skip: true,
            timeline: None,
            core_id,
            cfg,
        }
    }

    /// Enables per-instruction timeline recording for the first
    /// `capacity` instructions (see [`crate::timeline::PipelineTrace`]).
    pub fn enable_timeline(&mut self, capacity: usize) {
        self.timeline = Some(PipelineTrace::new(capacity));
    }

    /// The recorded timelines, if recording was enabled.
    pub fn timeline(&self) -> Option<&PipelineTrace> {
        self.timeline.as_ref()
    }

    // ----- observation hooks ----------------------------------------------
    //
    // The timeline recorder only records; nothing it holds feeds back into
    // the pipeline.

    fn note_decode(&mut self, seq: u64, pc: u64, op: OpClass, now: u64) {
        if let Some(t) = self.timeline.as_mut() {
            t.on_decode(seq, pc, op, now);
        }
    }

    fn note_dispatch(&mut self, seq: u64, now: u64) {
        if let Some(t) = self.timeline.as_mut() {
            t.on_dispatch(seq, now);
        }
    }

    fn note_replay(&mut self, seq: u64) {
        if let Some(t) = self.timeline.as_mut() {
            t.on_replay(seq);
        }
    }

    fn note_complete(&mut self, seq: u64, now: u64) {
        if let Some(t) = self.timeline.as_mut() {
            t.on_complete(seq, now);
        }
    }

    fn note_commit(&mut self, seq: u64, now: u64) {
        if let Some(t) = self.timeline.as_mut() {
            t.on_commit(seq, now);
        }
    }

    /// The core's configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Collected statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Whether everything in flight has drained and the stream is dry.
    pub fn is_done<S: TraceStream>(&self, stream: &S) -> bool {
        !self.front.has_input(stream)
            && self.front.queue.is_empty()
            && self.rob.is_empty()
            && self.lsq.is_empty()
    }

    /// Replays one warm-up record into the memory system and branch
    /// predictor without simulating any timing (see [`warm_record`]).
    pub fn warm(&mut self, mem: &mut MemorySystem, rec: &TraceRecord) {
        let bhts: &mut [Bht] = if self.cfg.perfect_branch_prediction {
            &mut []
        } else {
            std::slice::from_mut(&mut self.bht)
        };
        warm_record(bhts, mem, self.core_id, rec);
    }

    /// Functional fast-forward: replays a stream through [`Core::warm`]
    /// until it is exhausted or `limit` records have been consumed,
    /// returning how many were replayed. Caches, TLBs and the branch
    /// predictor observe every record; no pipeline timing state
    /// (ROB/RS/LSQ) is touched and no cycles elapse, so a detailed
    /// window started afterwards sees warmed micro-architectural state
    /// at cycle zero. This is the SMARTS-style warming mode sampled
    /// simulation interleaves between detailed windows.
    pub fn fast_forward<S: TraceStream>(
        &mut self,
        mem: &mut MemorySystem,
        stream: &mut S,
        limit: u64,
    ) -> u64 {
        let mut replayed = 0;
        while replayed < limit {
            let Some(rec) = stream.next_record() else {
                break;
            };
            self.warm(mem, &rec);
            replayed += 1;
        }
        replayed
    }

    /// Advances one cycle, reporting a wedged pipeline (no commit progress
    /// past the deadlock horizon with instructions in flight — a model
    /// bug, never a workload property) as a [`CoreError`] carrying a
    /// cycle-stamped [`PipelineSnapshot`].
    pub fn try_step<S: TraceStream>(
        &mut self,
        mem: &mut MemorySystem,
        stream: &mut S,
        now: u64,
    ) -> Result<(), Box<CoreError>> {
        self.try_step_active(mem, stream, now).map(|_| ())
    }

    /// [`Core::try_step`] returning whether any pipeline state changed.
    /// Run loops offer the core a sleep ([`Core::sleep_after`]) only after
    /// a fully inert cycle: a busy pipeline is never quiescent, and even a
    /// zero-commit cycle that dispatched, issued, fetched or completed
    /// something almost never is — gating on inertness spares the
    /// full-window probe walk. The gate can only forgo a sleep (the probe
    /// is a pure read), never change simulated results.
    pub fn try_step_active<S: TraceStream>(
        &mut self,
        mem: &mut MemorySystem,
        stream: &mut S,
        now: u64,
    ) -> Result<bool, Box<CoreError>> {
        let wb_active = self.writeback(now);
        profile::enter(Phase::Commit);
        let committed = self.commit(now);
        profile::enter(Phase::Account);
        self.account_blame(committed, now, 1);
        profile::enter(Phase::MemoryIssue);
        let mem_active = self.memory_issue(mem, now);
        profile::enter(Phase::Select);
        let dispatched = self.dispatch(now);
        // Parked replays reclaim freed slots before decode allocates new
        // entries, so cancelled instructions keep age priority.
        let parked = self.rs.has_parked();
        self.rs.drain_replays(self.rob.head_slot());
        profile::enter(Phase::Decode);
        let decoded = self.decode(now);
        profile::enter(Phase::Fetch);
        let fetched = self.fetch(mem, stream, now);
        profile::enter(Phase::Account);
        self.account_cycles(now, 1);
        self.check_wedge(now)?;
        profile::enter(Phase::RunLoop);
        let active =
            wb_active || committed > 0 || mem_active || dispatched || parked || decoded || fetched;
        profile::count(Work::SteppedCycles, 1);
        profile::count(Work::ActiveCycles, active as u64);
        Ok(active)
    }

    /// Runs a stream to completion starting at `start_cycle` (sampled
    /// simulation times several windows against one shared memory system,
    /// whose resource reservations must stay monotonic). Returns the cycle
    /// after the last step; a wedged pipeline surfaces as a [`CoreError`].
    pub fn try_run_from<S: TraceStream>(
        &mut self,
        mem: &mut MemorySystem,
        stream: &mut S,
        start_cycle: u64,
    ) -> Result<u64, Box<CoreError>> {
        let mut now = start_cycle;
        self.front.next_fetch_at = self.front.next_fetch_at.max(start_cycle);
        self.last_commit_cycle = self.last_commit_cycle.max(start_cycle);
        while !self.is_done(stream) {
            let active = self.try_step_active(mem, stream, now)?;
            now = if active {
                now + 1
            } else {
                self.sleep_after(stream, now, u64::MAX)
            };
        }
        Ok(now)
    }

    /// A cycle-stamped snapshot of the pipeline state: ROB head/tail and
    /// occupancy, per-station RS occupancy, LSQ occupancy, fetch-queue
    /// depth and commit progress. Plain `Copy` data, cheap enough to take
    /// every audited cycle.
    pub fn snapshot(&self, now: u64) -> PipelineSnapshot {
        let head = self.rob.head().map(|(_, e)| HeadInstr {
            seq: self.rob.head_seq(),
            op: e.op,
            dispatched: e.is(DISPATCHED),
            completed: e.is(COMPLETED),
        });
        let rs_occupancy = |kind| RsOccupancy {
            kind,
            occupancy: self.rs.occupancy(kind),
            capacity: self.rs.capacity(kind),
        };
        PipelineSnapshot {
            cycle: now,
            core_id: self.core_id,
            rob_len: self.rob.len(),
            rob_capacity: self.rob.capacity(),
            next_seq: self.rob.next_seq(),
            committed: self.stats.committed.get(),
            head,
            rs: [
                rs_occupancy(RsKind::Rse),
                rs_occupancy(RsKind::Rsf),
                rs_occupancy(RsKind::Rsa),
                rs_occupancy(RsKind::Rsbr),
            ],
            loads_in_flight: self.lsq.loads_in_flight(),
            load_queue: self.cfg.load_queue as usize,
            stores_in_flight: self.lsq.stores_in_flight(),
            store_queue: self.cfg.store_queue as usize,
            fetch_queue_len: self.front.queue.len(),
            last_commit_cycle: self.last_commit_cycle,
        }
    }
}
