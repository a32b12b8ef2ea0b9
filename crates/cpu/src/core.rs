//! The cycle-stepped out-of-order core.
//!
//! [`Core::step`] advances one cycle through the pipeline phases in
//! reverse order — writeback, commit, memory issue, dispatch, decode,
//! fetch — so that every same-cycle hand-off observes the previous cycle's
//! state. The model is trace driven: architecturally correct paths,
//! addresses and branch outcomes come from the trace; the pipeline decides
//! only *when* things happen.

use crate::bpred::Bht;
use crate::config::CoreConfig;
use crate::error::{CoreError, CoreFault, HeadInstr, PipelineSnapshot, RsOccupancy};
use crate::lsq::LoadStoreQueues;
use crate::rename::{RenameMap, RenamePool};
use crate::rob::{InstrState, Rob};
use crate::rs::ReservationStations;
use crate::stats::{CoreStats, DecodeStall, StallCause};
use crate::timeline::{PipelineTrace, TimelineMode};
use s64v_isa::{OpClass, RsKind};
use s64v_mem::cache::bank_of;
use s64v_mem::MemorySystem;
use s64v_observe::{CpiLeaf, MemBlame, ObsEvent, Probe};
use s64v_trace::{TraceRecord, TraceStream};
use std::collections::VecDeque;

/// An instruction sitting in the fetch queue between fetch and decode.
#[derive(Debug, Clone, Copy)]
struct FetchedInstr {
    rec: TraceRecord,
    ready_at: u64,
    predicted_taken: bool,
    mispredicted: bool,
    /// Whether the fetch block's L1I access hit (CPI blame: a pending
    /// front whose fetch missed starves decode on the I-cache).
    fetch_l1_hit: bool,
    /// Whether the fetch block's ITLB access missed (CPI blame).
    fetch_tlb_miss: bool,
}

/// A speculatively timed load awaiting hit/miss confirmation.
#[derive(Debug, Clone, Copy)]
struct SpecLoad {
    seq: u64,
    confirm_at: u64,
    actual_ready: u64,
}

/// A committed store draining to the L1 operand cache.
#[derive(Debug, Clone, Copy)]
struct DrainingStore {
    seq: u64,
    free_at: u64,
}

/// Functional warming of one record (the paper's steady-state tracing,
/// §2.2): CPU `cpu`'s instruction and operand paths of `mem` see the
/// record's addresses and `bht` — `None` under perfect branch prediction,
/// which never consults a table — sees a conditional branch's outcome.
/// No timing is simulated. The arguments are everything warming reads or
/// writes, so a warm state can be built, kept and copied with no core.
pub fn warm_record(bht: Option<&mut Bht>, mem: &mut MemorySystem, cpu: usize, rec: &TraceRecord) {
    mem.warm_fetch(cpu, rec.pc);
    if rec.instr.op == OpClass::BranchCond {
        if let (Some(bht), Some(b)) = (bht, rec.instr.branch) {
            bht.update(rec.pc, b.taken);
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
///     core.step(&mut mem, &mut stream, now);
///     now += 1;
/// }
/// assert_eq!(core.stats().committed.get(), 100);
/// ```
#[derive(Debug)]
pub struct Core {
    cfg: CoreConfig,
    core_id: usize,
    rob: Rob,
    rs: ReservationStations,
    rename_pool: RenamePool,
    rename_map: RenameMap,
    lsq: LoadStoreQueues,
    bht: Bht,
    stats: CoreStats,
    fetch_queue: VecDeque<FetchedInstr>,
    pending_rec: Option<TraceRecord>,
    next_fetch_at: u64,
    fetch_stalled: bool,
    stalling_branch: Option<u64>,
    wrong_path_pc: u64,
    int_unit_busy: [u64; 2],
    fp_unit_busy: [u64; 2],
    spec_loads: Vec<SpecLoad>,
    draining: Vec<DrainingStore>,
    last_commit_cycle: u64,
    /// Quiescent-cycle skipping enabled (see [`Core::next_wakeup`]).
    skip: bool,
    timeline: Option<PipelineTrace>,
    probe: Option<Box<dyn Probe>>,
    // Reusable per-cycle scratch buffers: cleared every cycle, so after
    // the first few cycles a step performs no heap allocation.
    scratch_incomplete: Vec<u64>,
    scratch_branches: Vec<(u64, u64, bool, bool)>,
    scratch_load_seqs: Vec<u64>,
    scratch_store_data: Vec<(u64, u64)>,
    scratch_ready_loads: Vec<u64>,
    scratch_banks: Vec<u32>,
    scratch_failed_loads: Vec<u64>,
    scratch_poison: Vec<u64>,
}

/// Cycles with zero commits after which the model declares itself wedged
/// (a model bug, not a workload property).
const DEADLOCK_HORIZON: u64 = 1_000_000;

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
    /// state, statistics, timelines and probes start empty.
    ///
    /// # Panics
    ///
    /// Panics if `bht` was not built from `cfg.bht`.
    pub fn warmed(cfg: CoreConfig, core_id: usize, bht: Bht) -> Self {
        assert_eq!(*bht.config(), cfg.bht, "the table is not this core's");
        Core {
            rob: Rob::new(cfg.window_size),
            rs: ReservationStations::new(&cfg),
            rename_pool: RenamePool::new(cfg.int_rename_regs, cfg.fp_rename_regs),
            rename_map: RenameMap::new(),
            lsq: LoadStoreQueues::new(cfg.load_queue, cfg.store_queue),
            bht,
            stats: CoreStats::new(cfg.window_size, cfg.load_queue, cfg.store_queue),
            fetch_queue: VecDeque::new(),
            pending_rec: None,
            next_fetch_at: 0,
            fetch_stalled: false,
            stalling_branch: None,
            wrong_path_pc: 0,
            int_unit_busy: [0; 2],
            fp_unit_busy: [0; 2],
            spec_loads: Vec::new(),
            draining: Vec::new(),
            last_commit_cycle: 0,
            skip: true,
            timeline: None,
            probe: None,
            scratch_incomplete: Vec::new(),
            scratch_branches: Vec::new(),
            scratch_load_seqs: Vec::new(),
            scratch_store_data: Vec::new(),
            scratch_ready_loads: Vec::new(),
            scratch_banks: Vec::new(),
            scratch_failed_loads: Vec::new(),
            scratch_poison: Vec::new(),
            core_id,
            cfg,
        }
    }

    /// Enables per-instruction timeline recording for the first
    /// `capacity` instructions (see [`crate::timeline::PipelineTrace`]).
    pub fn enable_timeline(&mut self, capacity: usize) {
        self.timeline = Some(PipelineTrace::new(capacity));
    }

    /// Enables timeline recording with an explicit [`TimelineMode`]
    /// (ring-buffer tail or strided sampling instead of the first-N
    /// default).
    pub fn enable_timeline_mode(&mut self, mode: TimelineMode) {
        self.timeline = Some(PipelineTrace::with_mode(mode));
    }

    /// The recorded timelines, if recording was enabled.
    pub fn timeline(&self) -> Option<&PipelineTrace> {
        self.timeline.as_ref()
    }

    /// Attaches a structured-event [`Probe`]. Probes are pure observers:
    /// every stage event is emitted after the pipeline has decided, so
    /// simulated results are identical with or without one attached.
    pub fn attach_probe(&mut self, probe: Box<dyn Probe>) {
        self.probe = Some(probe);
    }

    /// Detaches and returns the probe, if one was attached.
    pub fn take_probe(&mut self) -> Option<Box<dyn Probe>> {
        self.probe.take()
    }

    // ----- observation hooks ----------------------------------------------
    //
    // Both sinks (the timeline recorder and the structured-event probe)
    // only record; neither feeds anything back into the pipeline.

    fn note_decode(&mut self, seq: u64, pc: u64, op: OpClass, now: u64) {
        if let Some(t) = self.timeline.as_mut() {
            t.on_decode(seq, pc, op, now);
        }
        if let Some(p) = self.probe.as_mut() {
            p.event(ObsEvent::Decode {
                core: self.core_id as u32,
                cycle: now,
                seq,
                pc,
                op,
            });
        }
    }

    fn note_dispatch(&mut self, seq: u64, now: u64) {
        if let Some(t) = self.timeline.as_mut() {
            t.on_dispatch(seq, now);
        }
        if let Some(p) = self.probe.as_mut() {
            p.event(ObsEvent::Dispatch {
                core: self.core_id as u32,
                cycle: now,
                seq,
            });
        }
    }

    fn note_replay(&mut self, seq: u64, now: u64) {
        if let Some(t) = self.timeline.as_mut() {
            t.on_replay(seq);
        }
        if let Some(p) = self.probe.as_mut() {
            p.event(ObsEvent::Replay {
                core: self.core_id as u32,
                cycle: now,
                seq,
            });
        }
    }

    fn note_complete(&mut self, seq: u64, now: u64) {
        if let Some(t) = self.timeline.as_mut() {
            t.on_complete(seq, now);
        }
        if let Some(p) = self.probe.as_mut() {
            p.event(ObsEvent::Complete {
                core: self.core_id as u32,
                cycle: now,
                seq,
            });
        }
    }

    fn note_commit(&mut self, seq: u64, now: u64) {
        if let Some(t) = self.timeline.as_mut() {
            t.on_commit(seq, now);
        }
        if let Some(p) = self.probe.as_mut() {
            p.event(ObsEvent::Commit {
                core: self.core_id as u32,
                cycle: now,
                seq,
            });
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
        self.pending_rec.is_none()
            && stream.remaining_hint() == Some(0)
            && self.fetch_queue.is_empty()
            && self.rob.is_empty()
            && self.lsq.is_empty()
    }

    /// Replays one warm-up record into the memory system and branch
    /// predictor without simulating any timing (see [`warm_record`]).
    pub fn warm(&mut self, mem: &mut MemorySystem, rec: &TraceRecord) {
        let bht = (!self.cfg.perfect_branch_prediction).then_some(&mut self.bht);
        warm_record(bht, mem, self.core_id, rec);
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

    /// Advances one cycle.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline makes no progress for an implausible number
    /// of cycles (a model bug). [`Core::try_step`] reports the same
    /// condition as a structured [`CoreError`] instead.
    pub fn step<S: TraceStream>(&mut self, mem: &mut MemorySystem, stream: &mut S, now: u64) {
        if let Err(e) = self.try_step(mem, stream, now) {
            panic!("{e}");
        }
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
        let committed = self.commit(now);
        let blame = self.stall_blame(committed);
        self.stats.stall_cycles.record(blame);
        let leaf = self.cpi_blame(committed, now);
        self.stats.cpi.record(leaf);
        let mem_active = self.memory_issue(mem, now);
        let dispatched = self.dispatch(now);
        // Parked replays reclaim freed slots before decode allocates new
        // entries, so cancelled instructions keep age priority.
        let parked = self.rs.has_parked();
        self.rs.drain_replays();
        let decoded = self.decode(now);
        let fetched = self.fetch(mem, stream, now);
        let active =
            wb_active || committed > 0 || mem_active || dispatched || parked || decoded || fetched;

        self.stats.cycles.incr();
        self.stats.window_occupancy.record(self.rob.len() as u64);
        self.stats
            .lq_occupancy
            .record(self.lsq.loads_in_flight() as u64);
        self.stats
            .sq_occupancy
            .record(self.lsq.stores_in_flight() as u64);

        if self.rob.is_empty() {
            // An empty window makes no commits by construction; only count
            // wedge time while instructions are actually stuck in flight.
            self.last_commit_cycle = now;
        }
        if !self.rob.is_empty() && now.saturating_sub(self.last_commit_cycle) > DEADLOCK_HORIZON {
            // Boxed so the per-cycle return value stays a word wide; the
            // error path is taken at most once per run.
            return Err(Box::new(CoreError {
                fault: CoreFault::Wedged {
                    horizon: DEADLOCK_HORIZON,
                },
                snapshot: self.snapshot(now),
            }));
        }
        Ok(active)
    }

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

    /// Runs a whole trace to completion on a fresh cycle counter, returning
    /// the final cycle count.
    ///
    /// # Panics
    ///
    /// Panics where [`Core::try_run`] would return an error.
    pub fn run<S: TraceStream>(&mut self, mem: &mut MemorySystem, stream: &mut S) -> u64 {
        self.run_from(mem, stream, 0)
    }

    /// Fallible form of [`Core::run`].
    pub fn try_run<S: TraceStream>(
        &mut self,
        mem: &mut MemorySystem,
        stream: &mut S,
    ) -> Result<u64, Box<CoreError>> {
        self.try_run_from(mem, stream, 0)
    }

    /// Runs a stream to completion starting at `start_cycle` (sampled
    /// simulation times several windows against one shared memory system,
    /// whose resource reservations must stay monotonic). Returns the cycle
    /// after the last step.
    ///
    /// # Panics
    ///
    /// Panics where [`Core::try_run_from`] would return an error.
    pub fn run_from<S: TraceStream>(
        &mut self,
        mem: &mut MemorySystem,
        stream: &mut S,
        start_cycle: u64,
    ) -> u64 {
        match self.try_run_from(mem, stream, start_cycle) {
            Ok(now) => now,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`Core::run_from`]: a wedged pipeline surfaces as
    /// a [`CoreError`] instead of a panic.
    pub fn try_run_from<S: TraceStream>(
        &mut self,
        mem: &mut MemorySystem,
        stream: &mut S,
        start_cycle: u64,
    ) -> Result<u64, Box<CoreError>> {
        let mut now = start_cycle;
        self.next_fetch_at = self.next_fetch_at.max(start_cycle);
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

    /// The one sleeping rule, for every run loop: after an inert step at
    /// `now`, returns the next cycle this core must be stepped on. When
    /// [`Core::next_wakeup`] proves the pipeline frozen until a later
    /// cycle, the idle bookkeeping of the cycles in between is replayed at
    /// once ([`Core::skip_cycles`]) and the core need not be touched again
    /// before the returned cycle; otherwise that cycle is `now + 1`. `cap`
    /// bounds the sleep for loops that must see the core step on a
    /// particular cycle (an observer boundary, a budget poll). The core's
    /// state is private and only its own step mutates it, so what other
    /// cores or the memory system do meanwhile cannot end the sleep early.
    /// Call it only after everything that reads this cycle's statistics
    /// has run: the replay records the slept cycles ahead of time.
    pub fn sleep_after<S: TraceStream>(&mut self, stream: &S, now: u64, cap: u64) -> u64 {
        if !self.skip {
            return now + 1;
        }
        let Some(wake) = self.next_wakeup(stream, now) else {
            return now + 1;
        };
        // A wakeup at or before `now` is present activity, not a sleep.
        let wake = wake.min(cap).max(now + 1);
        if wake > now + 1 {
            self.skip_cycles(now, wake - 1 - now);
        }
        wake
    }

    /// The earliest future cycle at which this core can do anything beyond
    /// repeating the current cycle's idle bookkeeping, or `None` when
    /// quiescence cannot be proven and every cycle must be stepped.
    ///
    /// The pipeline is *frozen* when every pending state change hangs off a
    /// timed event: an issued load's data return, an address generation or
    /// execution completing, a speculative load confirming, a draining
    /// store freeing its queue slot, the front end's next fetch slot, or
    /// the fetch queue's head becoming decodable. Anything whose time is
    /// not directly known here is *chained*: it can only happen after one
    /// of the armed events fires (its producer completes, a branch
    /// resolves, a commit frees a resource), so it needs no entry of its
    /// own — the run loop re-probes after every stepped cycle. Conditions
    /// that can act on the very next cycle (parked replays, an undrained
    /// committed store, an allocatable decode) refuse the jump outright.
    ///
    /// A returned wakeup is exact for the *stats replay* contract: every
    /// cycle strictly before it records the same stall blame, occupancy
    /// samples and decode-stall cause as stepping would, which is what
    /// [`Core::skip_cycles`] replays in one batch. The wedge-horizon check
    /// is armed as an event of its own so a wedged model faults on the
    /// same cycle either way.
    pub fn next_wakeup<S: TraceStream>(&self, stream: &S, now: u64) -> Option<u64> {
        const INF: u64 = u64::MAX;
        let mut wake = INF;
        // Candidates at or before `now` mean present activity; they leave
        // `wake <= now + 1` and the caller steps normally.
        let mut arm = |t: u64| wake = wake.min(t);

        // Parked replays re-enter their buffers as slots free: per-cycle
        // activity that carries no timestamp.
        if self.rs.has_parked() {
            return None;
        }
        // Speculative loads confirm (and may cancel dependents) at a
        // fixed cycle.
        for sl in &self.spec_loads {
            arm(sl.confirm_at);
        }
        // In-flight store drains free their queue entries at a fixed cycle.
        for d in &self.draining {
            arm(d.free_at);
        }
        // A committed store that has not started draining grabs a port on
        // the next memory-issue phase.
        if let Some(d) = self.lsq.next_drain() {
            if !d.draining {
                return None;
            }
        }

        // A completed head retires on the very next commit phase. (Nops
        // complete at decode, which runs after commit within a cycle, so a
        // zero-commit cycle can still leave a completed head behind.)
        // Younger completed entries are chained to the head's own events.
        if self.rob.head().is_some_and(|h| h.completed) {
            return None;
        }

        let fwd_penalty: u64 = if self.cfg.data_forwarding { 0 } else { 2 };
        for seq in self.rob.seqs() {
            let e = self.rob.get(seq).expect("in range");
            if e.completed {
                continue;
            }
            let op = e.rec.instr.op;
            if !e.dispatched {
                // Waiting in a reservation station: dispatch is possible
                // once operands and an execution unit are ready. An
                // in-flight producer without a timed result is chained to
                // its own event.
                let mut t = now + 1;
                let mut chained = false;
                for &p in e.producers.iter() {
                    match self.rob.get(p) {
                        None => {}
                        Some(pe) => match pe.result_at {
                            None => {
                                chained = true;
                                break;
                            }
                            Some(at) => t = t.max((at + fwd_penalty).saturating_sub(2)),
                        },
                    }
                }
                if chained {
                    continue;
                }
                let unit_free = match op.rs_kind() {
                    Some(RsKind::Rse) => self.int_unit_busy[0].min(self.int_unit_busy[1]),
                    Some(RsKind::Rsf) => self.fp_unit_busy[0].min(self.fp_unit_busy[1]),
                    _ => 0,
                };
                arm(t.max(unit_free));
                continue;
            }
            match op {
                OpClass::Load => {
                    if e.mem_issued {
                        match e.mem_ready_at {
                            Some(rdy) => arm(rdy),
                            None => return None,
                        }
                    } else {
                        match e.addr_ready_at {
                            // Issues the cycle after the address is ready.
                            Some(a) => arm(a + 1),
                            None => return None,
                        }
                    }
                }
                OpClass::Store => {
                    let addr_ready = e.addr_ready_at?;
                    let mut t = addr_ready;
                    let mut chained = false;
                    for &p in e.producers.iter().chain(e.data_producers.iter()) {
                        match self.rob.get(p) {
                            None => {}
                            Some(pe) => match pe.result_at {
                                Some(at) if !pe.result_speculative => t = t.max(at),
                                // Settles via the producer's own event.
                                _ => {
                                    chained = true;
                                    break;
                                }
                            },
                        }
                    }
                    if !chained {
                        arm(t);
                    }
                }
                OpClass::BranchCond | OpClass::BranchUncond => {
                    arm(e.dispatched_at + 1 + self.cfg.latencies.get(op) as u64);
                }
                _ => {
                    if !e.result_speculative {
                        arm(e.dispatched_at + 1 + self.cfg.latencies.get(op) as u64);
                    } else {
                        // A derived-speculative result settles the cycle
                        // after its producers settle; with all producers
                        // already settled that is the next cycle.
                        let unsettled = e.producers.iter().any(|&p| {
                            self.rob
                                .get(p)
                                .map(|pe| pe.result_speculative)
                                .unwrap_or(false)
                        });
                        if !unsettled {
                            arm(now + 1);
                        }
                    }
                }
            }
        }

        // Front end.
        if self.fetch_stalled {
            if self.cfg.wrong_path_fetch {
                arm(self.next_fetch_at);
            } else if self.rob.is_empty() && self.fetch_queue.is_empty() {
                // Fetch resumes when the stalling branch resolves; with an
                // empty window and no queued instructions there is nothing
                // to arm, so refuse.
                return None;
            }
            // Otherwise resumption is chained to the branch's completion
            // (armed in the window walk) or to the queued branch's own
            // decode (armed below) — the common case on a mispredict whose
            // fetch block misses in the I-cache: the window drains empty
            // while the branch waits in the fetch queue for its fill.
        } else {
            let has_input = self.pending_rec.is_some() || stream.remaining_hint() != Some(0);
            let has_room = self.fetch_queue.len() + self.cfg.fetch_width as usize
                <= self.cfg.fetch_queue as usize;
            if has_input && has_room {
                arm(self.next_fetch_at);
            }
            // A full fetch queue unblocks only through decode (chained).
        }

        // Decode.
        if let Some(front) = self.fetch_queue.front() {
            if front.ready_at > now {
                arm(front.ready_at);
            } else if self.decode_stall_reason(&front.rec).is_none() {
                // Decode would allocate next cycle.
                return None;
            }
            // Structurally stalled: unblocking requires an armed event
            // (a commit, completion or queue release).
        }

        // The wedge check must fire on the same cycle as when stepping.
        if !self.rob.is_empty() {
            arm(self.last_commit_cycle + DEADLOCK_HORIZON + 1);
        }

        if wake == INF {
            None
        } else {
            Some(wake)
        }
    }

    /// Replays the bookkeeping of `n` provably quiescent cycles following
    /// `now` in one batch, exactly as `n` further [`Core::try_step`] calls
    /// would have recorded it. The caller advances its cycle counter by
    /// `n` and steps the wakeup cycle normally.
    pub fn skip_cycles(&mut self, now: u64, n: u64) {
        debug_assert!(n > 0);
        let blame = self.stall_blame(0);
        self.stats.stall_cycles.record_n(blame, n);
        // The CPI-blame inputs are all skip-stable: every state transition
        // they read (head completion/dispatch/replay, fetch-queue motion,
        // structural releases) is armed as a wakeup event, and the one
        // time-dependent predicate (`front.ready_at > cycle`) cannot flip
        // inside the stretch because `front.ready_at` itself is armed.
        let leaf = self.cpi_blame(0, now);
        self.stats.cpi.record_n(leaf, n);
        self.stats.cycles.add(n);
        self.stats
            .window_occupancy
            .record_n(self.rob.len() as u64, n);
        self.stats
            .lq_occupancy
            .record_n(self.lsq.loads_in_flight() as u64, n);
        self.stats
            .sq_occupancy
            .record_n(self.lsq.stores_in_flight() as u64, n);
        if let Some(front) = self.fetch_queue.front() {
            if front.ready_at <= now {
                if let Some(stall) = self.decode_stall_reason(&front.rec) {
                    self.stats.record_stall_n(stall, n);
                }
            }
        }
        if self.rob.is_empty() {
            self.last_commit_cycle = now + n;
        }
    }

    /// A cycle-stamped snapshot of the pipeline state: ROB head/tail and
    /// occupancy, per-station RS occupancy, LSQ occupancy, fetch-queue
    /// depth and commit progress. Plain `Copy` data, cheap enough to take
    /// every audited cycle.
    pub fn snapshot(&self, now: u64) -> PipelineSnapshot {
        let head = self.rob.head().map(|e| HeadInstr {
            seq: e.seq,
            op: e.rec.instr.op,
            dispatched: e.dispatched,
            completed: e.completed,
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
            fetch_queue_len: self.fetch_queue.len(),
            last_commit_cycle: self.last_commit_cycle,
        }
    }

    /// Fault-injection hook: marks `n` reservation-station slots of `kind`
    /// as stuck-held (see `ReservationStations::fault_stall_slots`).
    #[doc(hidden)]
    pub fn fault_stall_rs_slots(&mut self, kind: RsKind, n: usize) {
        self.rs.fault_stall_slots(kind, n);
    }

    /// Fault-injection hook: rewinds the committed-instruction counter to
    /// zero, violating commit monotonicity for the auditor to catch.
    #[doc(hidden)]
    pub fn fault_rewind_committed(&mut self) {
        self.stats.committed.reset();
    }

    /// Fault-injection hook: counts a cycle that is never attributed to
    /// any CPI-taxonomy leaf, breaking the top-down conservation invariant
    /// for the auditor to catch.
    #[doc(hidden)]
    pub fn fault_leak_cpi_cycle(&mut self) {
        self.stats.cycles.incr();
    }

    // ----- writeback ------------------------------------------------------

    /// Returns whether any pipeline state changed (beyond bookkeeping),
    /// so the run loop can restrict quiescence probes to inert cycles.
    fn writeback(&mut self, now: u64) -> bool {
        let confirmed = self.confirm_speculative_loads(now);
        let completed = self.complete_instructions(now);
        let released = self.release_drained_stores(now);
        confirmed || completed || released
    }

    fn confirm_speculative_loads(&mut self, now: u64) -> bool {
        let mut acted = false;
        let mut failed = std::mem::take(&mut self.scratch_failed_loads);
        failed.clear();
        let mut i = 0;
        while i < self.spec_loads.len() {
            let sl = self.spec_loads[i];
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
            self.spec_loads.swap_remove(i);
        }
        for &seq in &failed {
            self.cancel_dependents(seq, now);
        }
        self.scratch_failed_loads = failed;
        acted
    }

    /// §3.1: "all instructions that have read-after-write dependency must
    /// be cancelled at every stage of the execution pipelines."
    fn cancel_dependents(&mut self, poisoned_seq: u64, now: u64) {
        let mut poison = std::mem::take(&mut self.scratch_poison);
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
        self.scratch_poison = poison;
    }

    fn complete_instructions(&mut self, now: u64) -> bool {
        let mut acted = false;
        // (seq, pc, taken, mispredicted)
        let mut resolved_branches = std::mem::take(&mut self.scratch_branches);
        let mut completed_loads = std::mem::take(&mut self.scratch_load_seqs);
        let mut store_data = std::mem::take(&mut self.scratch_store_data);
        let mut pending = std::mem::take(&mut self.scratch_incomplete);
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
                        if let Some(data_at) = self.store_data_ready(entry, now) {
                            acted = true;
                            store_data.push((seq, data_at));
                            self.rob.mark_completed(seq);
                            self.note_complete(seq, now);
                        } else {
                            // Data readiness can change any cycle as
                            // producers settle: re-examine every cycle.
                            self.rob.set_wake(seq, 0);
                        }
                    }
                }
                OpClass::BranchCond | OpClass::BranchUncond => {
                    if entry.dispatched {
                        let done = entry.dispatched_at + 1 + self.cfg.latencies.get(op) as u64;
                        if done <= now {
                            acted = true;
                            let taken = entry.rec.instr.branch.map(|b| b.taken).unwrap_or(false);
                            resolved_branches.push((seq, entry.rec.pc, taken, entry.mispredicted));
                            self.rob.get_mut(seq).expect("present").resolved = true;
                            self.rob.mark_completed(seq);
                            self.note_complete(seq, now);
                        }
                    }
                }
                _ => {
                    if entry.dispatched && !entry.result_speculative {
                        let done = entry.dispatched_at + 1 + self.cfg.latencies.get(op) as u64;
                        if done <= now {
                            acted = true;
                            self.rob.mark_completed(seq);
                            self.note_complete(seq, now);
                        }
                    } else if entry.dispatched {
                        // Derived-speculative results settle when their
                        // producers settle; checked again next cycle.
                        let producers_settled = entry.producers.iter().all(|&p| {
                            self.rob
                                .get(p)
                                .map(|pe| !pe.result_speculative)
                                .unwrap_or(true)
                        });
                        if producers_settled {
                            acted = true;
                            let done = entry.dispatched_at + 1 + self.cfg.latencies.get(op) as u64;
                            self.rob.get_mut(seq).expect("present").result_speculative = false;
                            self.rob.set_wake(seq, done);
                        }
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
            if mispredicted && self.stalling_branch == Some(seq) {
                self.fetch_stalled = false;
                self.stalling_branch = None;
                self.next_fetch_at = self
                    .next_fetch_at
                    .max(now + self.cfg.redirect_penalty as u64);
            }
        }

        self.scratch_branches = resolved_branches;
        self.scratch_load_seqs = completed_loads;
        self.scratch_store_data = store_data;
        self.scratch_incomplete = pending;
        acted
    }

    /// When a store's data operands are all architecturally available,
    /// returns the cycle the data was ready; `None` while still pending.
    fn store_data_ready(&self, entry: &InstrState, now: u64) -> Option<u64> {
        let mut latest = entry.addr_ready_at.unwrap_or(0);
        for &p in entry.producers.iter().chain(entry.data_producers.iter()) {
            match self.rob.get(p) {
                None => {}
                Some(pe) => {
                    let at = pe.result_at?;
                    if pe.result_speculative || at > now {
                        return None;
                    }
                    latest = latest.max(at);
                }
            }
        }
        Some(latest)
    }

    fn release_drained_stores(&mut self, now: u64) -> bool {
        let mut acted = false;
        let mut i = 0;
        while i < self.draining.len() {
            if self.draining[i].free_at <= now {
                acted = true;
                let seq = self.draining[i].seq;
                self.lsq.release_store(seq);
                self.draining.swap_remove(i);
            } else {
                i += 1;
            }
        }
        acted
    }

    // ----- commit ---------------------------------------------------------

    fn commit(&mut self, now: u64) -> u32 {
        let mut committed = 0;
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.rob.head() else { break };
            if !head.completed {
                break;
            }
            committed += 1;
            let dest = head.rec.instr.real_dest();
            let is_store = head.rec.instr.op == OpClass::Store;
            let seq = self.rob.pop_head();
            self.note_commit(seq, now);
            if let Some(dest) = dest {
                self.rename_pool.release(dest.class());
                self.rename_map.retire(dest, seq);
            }
            if is_store {
                self.lsq.mark_store_committed(seq);
            }
            self.stats.committed.incr();
            self.last_commit_cycle = now;
        }
        committed
    }

    /// Head-of-window blame for a zero-commit cycle (the online CPI stack).
    fn stall_blame(&self, committed: u32) -> StallCause {
        if committed > 0 {
            return StallCause::Busy;
        }
        match self.rob.head() {
            None => {
                if self.fetch_stalled {
                    StallCause::FrontendBranch
                } else {
                    StallCause::FrontendFetch
                }
            }
            Some(head) => {
                if head.rec.instr.op.is_mem() && head.mem_issued && !head.completed {
                    match head.mem_l2_hit {
                        Some(false) => StallCause::L2Miss,
                        _ => StallCause::L1Miss,
                    }
                } else if head.dispatched {
                    StallCause::Execute
                } else {
                    StallCause::Dispatch
                }
            }
        }
    }

    /// Top-down taxonomy blame for one cycle: every cycle lands on exactly
    /// one [`CpiLeaf`] (the decision tree below is total), so the per-leaf
    /// counts conserve the cycle counter by construction.
    ///
    /// Like [`Core::stall_blame`], attribution is head-of-window: the
    /// oldest in-flight instruction is what commit is waiting on, so its
    /// state names the bottleneck. The refinements over the 7-way stack:
    /// an empty window distinguishes I-cache misses, ITLB walks, plain
    /// decode bubbles and branch-flush recovery (wrong-path-fetch configs
    /// charge the frontend, since fetch bandwidth is genuinely consumed);
    /// a waiting load is blamed on the memory level recorded at issue
    /// (MSHR and bus queuing ahead of fill level); a cancelled-and-waiting
    /// head is bad speculation; and an undispatchable head consults the
    /// decode backpressure to name the exhausted resource.
    fn cpi_blame(&self, committed: u32, now: u64) -> CpiLeaf {
        if committed > 0 {
            return CpiLeaf::Retire;
        }
        let Some(head) = self.rob.head() else {
            if self.fetch_stalled {
                return if self.cfg.wrong_path_fetch {
                    CpiLeaf::FrontendWrongPath
                } else {
                    CpiLeaf::BadSpecBranchFlush
                };
            }
            return match self.fetch_queue.front() {
                Some(front) if front.ready_at > now => {
                    if front.fetch_tlb_miss {
                        CpiLeaf::FrontendITlb
                    } else if !front.fetch_l1_hit {
                        CpiLeaf::FrontendICache
                    } else {
                        CpiLeaf::FrontendDecodeStarve
                    }
                }
                _ => CpiLeaf::FrontendDecodeStarve,
            };
        };
        if head.rec.instr.op.is_mem() && head.mem_issued && !head.completed {
            // Store-forwarded loads never recorded a blame: they are
            // supplied at L1-hit speed from the store queue.
            return head
                .mem_blame
                .map(MemBlame::leaf)
                .unwrap_or(CpiLeaf::MemL1d);
        }
        if head.completed || head.dispatched {
            // Completed heads retire on the next commit phase (a decode-
            // completed nop behind this cycle's commit); dispatched heads
            // are executing or generating an address.
            return CpiLeaf::CoreExecLatency;
        }
        if head.replays > 0 {
            // Cancelled by a mis-speculated dispatch and waiting to replay.
            return CpiLeaf::BadSpecReplay;
        }
        // Undispatched head: name the exhausted resource via the decode
        // backpressure this cycle observes, falling back to execution
        // latency when decode flows freely (the head is merely waiting
        // for a unit or dispatch slot).
        match self.fetch_queue.front() {
            Some(front) if front.ready_at <= now => match self.decode_stall_reason(&front.rec) {
                Some(DecodeStall::StoreQueue) => CpiLeaf::MemStoreBuffer,
                Some(DecodeStall::LoadQueue) => CpiLeaf::MemMshr,
                Some(DecodeStall::ReservationStation) => CpiLeaf::CoreRsFull,
                Some(DecodeStall::Window) | Some(DecodeStall::Rename) => CpiLeaf::CoreRobFull,
                None => CpiLeaf::CoreExecLatency,
            },
            _ => CpiLeaf::CoreExecLatency,
        }
    }

    // ----- memory issue ----------------------------------------------------

    fn memory_issue(&mut self, mem: &mut MemorySystem, now: u64) -> bool {
        let mut acted = false;
        let mut ports_left = self.cfg.dcache_ports;
        let banks = mem.config().l1d_banks;
        let bank_bytes = mem.config().l1d_bank_bytes;
        let mut used_banks = std::mem::take(&mut self.scratch_banks);
        used_banks.clear();

        // Loads first, oldest first. The pending-load mask lists
        // dispatched, not-yet-issued loads; address readiness is checked
        // inline, and a load still in address generation neither issues
        // nor consumes a port.
        let mut ready_loads = std::mem::take(&mut self.scratch_ready_loads);
        self.rob.collect_pending_loads(&mut ready_loads);

        for &seq in &ready_loads {
            if ports_left == 0 {
                break;
            }
            let (addr, width, addr_ready) = {
                let e = self.rob.get(seq).expect("listed");
                let m = e.rec.instr.mem.expect("load has memory info");
                (m.addr, m.width.bytes(), e.addr_ready_at)
            };
            if addr_ready.is_none_or(|a| a >= now) {
                continue;
            }
            let bank = bank_of(addr, banks, bank_bytes);
            if used_banks.contains(&bank) {
                // §3.2: conflicting lower-priority request aborts and
                // retries in a later cycle.
                self.stats.bank_conflicts.incr();
                continue;
            }
            used_banks.push(bank);
            ports_left -= 1;
            acted = true;
            self.issue_load(mem, seq, addr, width, now);
        }
        self.scratch_ready_loads = ready_loads;

        // Committed stores drain through the remaining ports. At most one
        // store is in flight at a time: if the oldest drain candidate is
        // already on its way, younger ones wait their turn.
        while ports_left > 0 {
            let Some(drain) = self.lsq.next_drain() else {
                break;
            };
            if drain.draining {
                break; // oldest is already on its way
            }
            let addr = drain.addr.expect("drain candidates have addresses");
            let bank = bank_of(addr, banks, bank_bytes);
            if used_banks.contains(&bank) {
                self.stats.bank_conflicts.incr();
                break;
            }
            used_banks.push(bank);
            ports_left -= 1;
            acted = true;
            let access = mem.store(self.core_id, addr, now);
            self.lsq.mark_store_draining(drain.seq);
            self.draining.push(DrainingStore {
                seq: drain.seq,
                free_at: access.ready_at,
            });
        }
        self.scratch_banks = used_banks;
        acted
    }

    fn issue_load(&mut self, mem: &mut MemorySystem, seq: u64, addr: u64, width: u64, now: u64) {
        self.rob.mark_load_issued(seq);
        // Store-to-load forwarding from the store queue.
        if let Some(fwd_at) = self.lsq.forward_for(seq, addr, width) {
            let ready = fwd_at.max(now) + 1;
            let e = self.rob.get_mut(seq).expect("issuing load exists");
            e.mem_issued = true;
            e.mem_ready_at = Some(ready);
            e.result_at = Some(ready + 1);
            e.result_speculative = false;
            self.rob.set_wake(seq, ready);
            self.stats.store_forwards.incr();
            return;
        }

        let access = mem.load(self.core_id, addr, now);
        let actual_ready = access.ready_at + 1;
        let predicted_ready = now + mem.config().l1d.latency as u64 + 1;
        let e = self.rob.get_mut(seq).expect("issuing load exists");
        e.mem_issued = true;
        e.mem_ready_at = Some(actual_ready);
        e.mem_l2_hit = Some(access.l2_hit);
        e.mem_blame = Some(MemBlame::classify(
            access.l1_hit,
            access.l2_hit,
            access.mshr_wait,
            access.bus_wait,
        ));
        if self.cfg.speculative_dispatch {
            // Advertise the L1-hit prediction; confirm or cancel when the
            // hit/miss outcome would be known.
            e.result_at = Some(predicted_ready + 1);
            e.result_speculative = true;
            self.spec_loads.push(SpecLoad {
                seq,
                confirm_at: predicted_ready,
                actual_ready: actual_ready + 1,
            });
        } else {
            // Conservative scheduling: consumers wake only after the data
            // is valid, costing a wakeup bubble even on hits.
            e.result_at = Some(actual_ready + 2);
            e.result_speculative = false;
        }
        // The load's completion fires when its data returns.
        self.rob.set_wake(seq, actual_ready);
    }

    // ----- dispatch ---------------------------------------------------------

    fn dispatch(&mut self, now: u64) -> bool {
        let mut acted = false;
        for kind in RsKind::ALL {
            if self.rs.occupancy(kind) == 0 {
                // Nothing waiting (stuck fault slots never dispatch):
                // selection would scan and pick nothing.
                continue;
            }
            let picked = {
                let rob = &self.rob;
                let cfg = &self.cfg;
                let int_busy = self.int_unit_busy;
                let fp_busy = self.fp_unit_busy;
                self.rs.select_dispatch(
                    kind,
                    |seq| Self::operands_ready(rob, cfg, seq, now),
                    |unit| match kind {
                        RsKind::Rse => int_busy[unit as usize] <= now,
                        RsKind::Rsf => fp_busy[unit as usize] <= now,
                        RsKind::Rsa | RsKind::Rsbr => true,
                    },
                )
            };
            for &(seq, unit, buffer) in picked.iter() {
                acted = true;
                self.start_execution(seq, unit, buffer, kind, now);
            }
        }
        acted
    }

    fn operands_ready(rob: &Rob, cfg: &CoreConfig, seq: u64, now: u64) -> bool {
        let Some(entry) = rob.get(seq) else {
            return false;
        };
        let forwarding_penalty = if cfg.data_forwarding { 0 } else { 2 };
        entry.producers.iter().all(|&p| match rob.get(p) {
            None => true, // committed: value is in the register file
            Some(pe) => match pe.result_at {
                None => false,
                Some(at) => {
                    if pe.result_speculative && !cfg.speculative_dispatch {
                        false
                    } else {
                        at + forwarding_penalty <= now + 2
                    }
                }
            },
        })
    }

    fn start_execution(&mut self, seq: u64, unit: u8, buffer: u8, kind: RsKind, now: u64) {
        self.note_dispatch(seq, now);
        let (op, spec_input) = {
            let e = self.rob.get(seq).expect("dispatching entry exists");
            let spec = e.producers.iter().any(|&p| {
                self.rob
                    .get(p)
                    .map(|pe| pe.result_speculative)
                    .unwrap_or(false)
            });
            (e.rec.instr.op, spec)
        };
        let lat = self.cfg.latencies.get(op) as u64;

        if !op.is_pipelined() {
            match kind {
                RsKind::Rse => self.int_unit_busy[unit as usize] = now + 1 + lat,
                RsKind::Rsf => self.fp_unit_busy[unit as usize] = now + 1 + lat,
                _ => {}
            }
        }

        let store_addr = {
            let e = self.rob.get_mut(seq).expect("dispatching entry exists");
            e.dispatched = true;
            e.dispatched_at = now;
            e.rs_buffer = buffer;
            match op {
                OpClass::Load | OpClass::Store => {
                    e.addr_ready_at = Some(now + 1 + lat);
                    if op == OpClass::Store {
                        e.rec.instr.mem.map(|m| m.addr)
                    } else {
                        None
                    }
                }
                OpClass::BranchCond | OpClass::BranchUncond => None,
                _ => {
                    e.result_at = Some(now + 2 + lat);
                    e.result_speculative = spec_input;
                    None
                }
            }
        };
        // Arm the writeback scan's wake time (see `Rob::collect_due`).
        // Loads stay inert until `issue_load` knows the data-return cycle.
        match op {
            OpClass::Load => {}
            OpClass::Store => self.rob.set_wake(seq, now + 1 + lat),
            _ => {
                if spec_input {
                    // Speculative results settle on producer events:
                    // re-examine every cycle.
                    self.rob.set_wake(seq, 0);
                } else {
                    self.rob.set_wake(seq, now + 1 + lat);
                }
            }
        }
        if op == OpClass::Load {
            self.rob.mark_load_pending(seq);
        }
        if let Some(addr) = store_addr {
            self.lsq.set_store_addr(seq, addr);
        }
    }

    // ----- decode -----------------------------------------------------------

    fn decode(&mut self, now: u64) -> bool {
        let mut acted = false;
        for _ in 0..self.cfg.issue_width {
            let Some(front) = self.fetch_queue.front() else {
                break;
            };
            if front.ready_at > now {
                break;
            }
            if let Some(stall) = self.decode_stall_reason(&front.rec) {
                self.stats.record_stall(stall);
                break;
            }
            let fetched = self.fetch_queue.pop_front().expect("checked non-empty");
            acted = true;
            self.allocate(fetched, now);
        }
        acted
    }

    fn decode_stall_reason(&self, rec: &TraceRecord) -> Option<DecodeStall> {
        if self.rob.is_full() {
            return Some(DecodeStall::Window);
        }
        let instr = &rec.instr;
        if let Some(dest) = instr.real_dest() {
            if !self.rename_pool.can_allocate(dest.class()) {
                return Some(DecodeStall::Rename);
            }
        }
        if let Some(kind) = instr.op.rs_kind() {
            if !self.rs.has_space(kind) {
                return Some(DecodeStall::ReservationStation);
            }
        }
        match instr.op {
            OpClass::Load if !self.lsq.has_load_space() => Some(DecodeStall::LoadQueue),
            OpClass::Store if !self.lsq.has_store_space() => Some(DecodeStall::StoreQueue),
            _ => None,
        }
    }

    fn allocate(&mut self, fetched: FetchedInstr, now: u64) {
        let seq = self.rob.next_seq();
        let rec = fetched.rec;
        self.note_decode(seq, rec.pc, rec.instr.op, now);
        let mut entry = InstrState::new(seq, rec);
        entry.predicted_taken = fetched.predicted_taken;
        entry.mispredicted = fetched.mispredicted;

        // Record true dependences through the rename map. For stores the
        // data register (srcs[1]) is needed at retirement, not at address
        // generation.
        match rec.instr.op {
            OpClass::Store => {
                if let Some(base) = rec.instr.srcs[0].filter(|r| !r.is_zero()) {
                    if let Some(p) = self.rename_map.producer(base) {
                        entry.producers.push(p);
                    }
                }
                if let Some(data) = rec.instr.srcs[1].filter(|r| !r.is_zero()) {
                    if let Some(p) = self.rename_map.producer(data) {
                        entry.data_producers.push(p);
                    }
                }
            }
            _ => {
                for src in rec.instr.sources() {
                    if let Some(p) = self.rename_map.producer(src) {
                        entry.producers.push(p);
                    }
                }
            }
        }

        if let Some(dest) = rec.instr.real_dest() {
            let ok = self.rename_pool.allocate(dest.class());
            debug_assert!(ok, "decode_stall_reason checked rename space");
            self.rename_map.define(dest, seq);
        }

        match rec.instr.op.rs_kind() {
            Some(kind) => {
                let buffer = self.rs.try_insert(kind, seq);
                debug_assert!(buffer.is_some(), "decode_stall_reason checked RS space");
                entry.rs_buffer = buffer.unwrap_or(0);
            }
            None => {
                // Nops retire without executing.
                entry.completed = true;
                self.note_complete(seq, now);
            }
        }

        match rec.instr.op {
            OpClass::Load => self.lsq.alloc_load(seq),
            OpClass::Store => {
                let width = rec.instr.mem.expect("store has memory info").width.bytes();
                self.lsq.alloc_store(seq, width);
            }
            _ => {}
        }

        if fetched.mispredicted {
            self.stalling_branch = Some(seq);
        }
        self.rob.push(entry);
    }

    // ----- fetch ------------------------------------------------------------

    fn fetch<S: TraceStream>(&mut self, mem: &mut MemorySystem, stream: &mut S, now: u64) -> bool {
        if self.fetch_stalled {
            // Optionally model the front end charging down the wrong path
            // while the mispredicted branch resolves: one sequential block
            // per cycle pollutes the I-cache and consumes bandwidth; the
            // instructions themselves are squashed (never decoded).
            if self.cfg.wrong_path_fetch && now >= self.next_fetch_at {
                let pc = self.wrong_path_pc;
                let access = mem.fetch(self.core_id, pc, now + 1);
                // One wrong-path block in flight at a time: the next block
                // waits for this fill, like the demand path. Without this
                // pacing a long stall floods the memory system with one
                // miss per cycle and the backlog never drains.
                self.next_fetch_at = access.ready_at;
                self.wrong_path_pc = pc + self.cfg.fetch_block_bytes;
                self.stats.wrong_path_fetches.incr();
                return true;
            }
            return false;
        }
        if now < self.next_fetch_at {
            return false;
        }
        if self.fetch_queue.len() + self.cfg.fetch_width as usize > self.cfg.fetch_queue as usize {
            return false;
        }
        let Some(first) = self.peek_record(stream) else {
            return false;
        };

        // One aligned fetch block per cycle; the priority stage costs one
        // cycle before the L1I access, the validate stage one after.
        let block = first.pc / self.cfg.fetch_block_bytes;
        let access = mem.fetch(self.core_id, first.pc, now + 1);
        let ready_at = access.ready_at + 1;
        self.stats.fetch_groups.incr();
        if let Some(p) = self.probe.as_mut() {
            p.event(ObsEvent::Fetch {
                core: self.core_id as u32,
                cycle: now,
                pc: first.pc,
                l1_hit: access.l1_hit,
                l2_hit: access.l2_hit,
                ready_at,
            });
        }

        let mut fetched = 0;
        let mut expected_pc = first.pc;
        while fetched < self.cfg.fetch_width {
            let Some(rec) = self.peek_record(stream) else {
                break;
            };
            if rec.pc / self.cfg.fetch_block_bytes != block || rec.pc != expected_pc {
                break;
            }
            self.pending_rec = None; // consume the peeked record
            fetched += 1;
            expected_pc = rec.pc + TraceRecord::INSTR_BYTES;

            let mut predicted_taken = false;
            let mut mispredicted = false;
            match rec.instr.op {
                OpClass::BranchCond => {
                    let actual = rec.instr.branch.expect("cond branch has info").taken;
                    let pred = if self.cfg.perfect_branch_prediction {
                        actual
                    } else {
                        self.bht.predict(rec.pc)
                    };
                    predicted_taken = pred;
                    mispredicted = pred != actual;
                }
                OpClass::BranchUncond => {
                    predicted_taken = true;
                }
                _ => {}
            }

            self.fetch_queue.push_back(FetchedInstr {
                rec,
                ready_at,
                predicted_taken,
                mispredicted,
                fetch_l1_hit: access.l1_hit,
                fetch_tlb_miss: access.tlb_miss,
            });

            if mispredicted {
                // Nothing architecturally useful can be fetched until the
                // branch resolves; the wrong path starts at the next
                // sequential block (predicted-not-taken mispredicts) or
                // the predicted target's block (predicted-taken).
                self.fetch_stalled = true;
                self.wrong_path_pc = if predicted_taken {
                    rec.instr.branch.map(|b| b.target).unwrap_or(rec.pc + 4)
                } else {
                    rec.pc + 4
                };
                return true;
            }
            if predicted_taken {
                // Correctly predicted taken: the BHT's access latency puts
                // bubbles in front of the target fetch (§4.3.2).
                let bubbles = if self.cfg.perfect_branch_prediction {
                    0
                } else {
                    self.bht.config().access_cycles as u64
                };
                self.next_fetch_at = now + 1 + bubbles;
                return true;
            }
        }
        true
    }

    fn peek_record<S: TraceStream>(&mut self, stream: &mut S) -> Option<TraceRecord> {
        if self.pending_rec.is_none() {
            self.pending_rec = stream.next_record();
        }
        self.pending_rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;
    use s64v_isa::{Instr, MemWidth, Reg};
    use s64v_mem::MemConfig;
    use s64v_trace::{TraceBuilder, VecTrace};

    fn run_trace(trace: &VecTrace, cfg: CoreConfig) -> (CoreStats, u64) {
        let mut mem = MemorySystem::new(MemConfig::sparc64_v(), 1);
        let mut core = Core::new(cfg, 0);
        let mut stream = trace.stream();
        let cycles = core.run(&mut mem, &mut stream);
        (core.stats().clone(), cycles)
    }

    /// Builds a loop trace: `iters` iterations of `body` closed by an
    /// unconditional branch back to the top, so code lines are warm after
    /// the first iteration (like real workloads).
    fn loop_trace(body: &[Instr], iters: usize) -> VecTrace {
        let mut b = TraceBuilder::new(0x10_0000);
        let start = b.pc();
        for _ in 0..iters {
            for i in body {
                b.push(*i);
            }
            b.push(Instr::branch_uncond(start));
        }
        b.finish()
    }

    fn nops(n: usize) -> VecTrace {
        let mut b = TraceBuilder::new(0x10_0000);
        for _ in 0..n {
            b.push(Instr::nop());
        }
        b.finish()
    }

    #[test]
    fn commits_every_instruction_exactly_once() {
        let (stats, _) = run_trace(&nops(1000), CoreConfig::sparc64_v());
        assert_eq!(stats.committed.get(), 1000);
    }

    #[test]
    fn independent_alu_ops_sustain_high_ipc() {
        // Four independent chains in a tight loop: decode width and the two
        // integer units are the limit once the I-cache is warm.
        let body: Vec<Instr> = (0..8u8)
            .map(|i| {
                Instr::alu(
                    OpClass::IntAlu,
                    Reg::int(1 + (i % 4)),
                    &[Reg::int(1 + (i % 4))],
                )
            })
            .collect();
        let (stats, _) = run_trace(&loop_trace(&body, 500), CoreConfig::sparc64_v());
        assert_eq!(stats.committed.get(), 500 * 9);
        assert!(stats.ipc() > 1.2, "got IPC {}", stats.ipc());
    }

    #[test]
    fn dependent_chain_is_serialized() {
        let mut b = TraceBuilder::new(0x10_0000);
        for _ in 0..2000 {
            b.push(Instr::alu(OpClass::IntAlu, Reg::int(1), &[Reg::int(1)]));
        }
        let (stats, _) = run_trace(&b.finish(), CoreConfig::sparc64_v());
        assert!(
            stats.ipc() < 1.2,
            "a serial chain cannot exceed 1 IPC, got {}",
            stats.ipc()
        );
    }

    #[test]
    fn two_way_issue_is_slower_on_parallel_code() {
        // A mixed body (int, FP, loads) so decode width, not a single
        // execution-unit family, is the limiting resource.
        let mut body: Vec<Instr> = Vec::new();
        for i in 0..12u8 {
            body.push(Instr::alu(
                OpClass::IntAlu,
                Reg::int(1 + (i % 6)),
                &[Reg::int(1 + (i % 6))],
            ));
            body.push(Instr::alu(
                OpClass::FpAdd,
                Reg::fp(1 + (i % 6)),
                &[Reg::fp(1 + (i % 6))],
            ));
        }
        for i in 0..6u64 {
            body.push(Instr::load(
                Reg::int(10),
                Reg::int(11),
                0x40_0000 + i * 8,
                MemWidth::B8,
            ));
        }
        let t = loop_trace(&body, 500);
        let (wide, _) = run_trace(&t, CoreConfig::sparc64_v());
        let (narrow, _) = run_trace(&t, CoreConfig::sparc64_v().with_issue_width(2));
        assert!(
            wide.ipc() > narrow.ipc() * 1.1,
            "4-way {} vs 2-way {}",
            wide.ipc(),
            narrow.ipc()
        );
    }

    #[test]
    fn loads_complete_and_release_the_queue() {
        let mut b = TraceBuilder::new(0x10_0000);
        for i in 0..200u64 {
            b.push(Instr::load(
                Reg::int(1),
                Reg::int(2),
                0x40_0000 + i * 8,
                MemWidth::B8,
            ));
        }
        let (stats, _) = run_trace(&b.finish(), CoreConfig::sparc64_v());
        assert_eq!(stats.committed.get(), 200);
    }

    #[test]
    fn mispredicted_branches_cost_cycles() {
        // Alternating taken/not-taken branch at one site defeats a 2-bit
        // counter roughly half the time.
        let mut b = TraceBuilder::new(0x10_0000);
        for i in 0..1000 {
            b.push(Instr::alu(OpClass::IntAlu, Reg::int(1), &[Reg::int(2)]));
            let taken = i % 2 == 0;
            let target = b.pc() + 4; // branch to fall-through: control flow stays linear
            b.push(Instr::branch_cond(taken, target));
        }
        let t = b.finish();
        let (real, _) = run_trace(&t, CoreConfig::sparc64_v());
        let (perfect, _) = run_trace(&t, CoreConfig::sparc64_v().with_perfect_branch_prediction());
        assert!(
            real.mispredicts.get() > 100,
            "got {}",
            real.mispredicts.get()
        );
        assert_eq!(perfect.mispredicts.get(), 0);
        assert!(perfect.ipc() > real.ipc());
    }

    #[test]
    fn speculative_dispatch_beats_conservative_on_hits() {
        // Warm, dependent load-use chains in a tiny footprint (all hits).
        let body: Vec<Instr> = (0..8u64)
            .flat_map(|i| {
                [
                    Instr::load(Reg::int(1), Reg::int(2), 0x40_0000 + i * 8, MemWidth::B8),
                    Instr::alu(OpClass::IntAlu, Reg::int(3), &[Reg::int(1)]),
                ]
            })
            .collect();
        let t = loop_trace(&body, 300);
        let (spec, _) = run_trace(&t, CoreConfig::sparc64_v());
        let (cons, _) = run_trace(&t, CoreConfig::sparc64_v().without_speculative_dispatch());
        assert!(
            spec.ipc() > cons.ipc(),
            "speculative {} must beat conservative {}",
            spec.ipc(),
            cons.ipc()
        );
    }

    #[test]
    fn cache_misses_trigger_replays_under_speculative_dispatch() {
        let mut b = TraceBuilder::new(0x10_0000);
        // Strideless large-footprint dependent load-use pairs: many misses.
        let mut addr = 0x100_0000u64;
        for _ in 0..500 {
            addr = addr
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = 0x100_0000 + (addr % (64 << 20));
            b.push(Instr::load(Reg::int(1), Reg::int(2), a & !7, MemWidth::B8));
            b.push(Instr::alu(OpClass::IntAlu, Reg::int(3), &[Reg::int(1)]));
            b.push(Instr::alu(OpClass::IntAlu, Reg::int(4), &[Reg::int(3)]));
        }
        let (stats, _) = run_trace(&b.finish(), CoreConfig::sparc64_v());
        assert!(
            stats.replays.get() > 0,
            "misses must cancel speculative dependents"
        );
    }

    #[test]
    fn store_to_load_forwarding_happens() {
        let mut b = TraceBuilder::new(0x10_0000);
        for i in 0..200u64 {
            let addr = 0x40_0000 + (i % 4) * 8;
            b.push(Instr::alu(OpClass::IntAlu, Reg::int(1), &[Reg::int(2)]));
            b.push(Instr::store(Reg::int(1), Reg::int(2), addr, MemWidth::B8));
            b.push(Instr::load(Reg::int(3), Reg::int(2), addr, MemWidth::B8));
        }
        let (stats, _) = run_trace(&b.finish(), CoreConfig::sparc64_v());
        assert_eq!(stats.committed.get(), 600);
        assert!(stats.store_forwards.get() > 0);
    }

    #[test]
    fn bank_conflicts_are_detected() {
        let mut b = TraceBuilder::new(0x10_0000);
        // Pairs of independent loads to the same bank (same addr mod 32).
        for i in 0..500u64 {
            b.push(Instr::load(
                Reg::int(1),
                Reg::int(9),
                0x40_0000 + i * 64,
                MemWidth::B4,
            ));
            b.push(Instr::load(
                Reg::int(2),
                Reg::int(9),
                0x48_0000 + i * 64,
                MemWidth::B4,
            ));
        }
        let (stats, _) = run_trace(&b.finish(), CoreConfig::sparc64_v());
        assert!(
            stats.bank_conflicts.get() > 0,
            "same-bank pairs must conflict"
        );
    }

    #[test]
    fn determinism_same_trace_same_cycles() {
        let mut b = TraceBuilder::new(0x10_0000);
        for i in 0..500u64 {
            b.push(Instr::load(
                Reg::int(1),
                Reg::int(2),
                0x40_0000 + i * 16,
                MemWidth::B8,
            ));
            b.push(Instr::alu(OpClass::IntAlu, Reg::int(3), &[Reg::int(1)]));
            b.push(Instr::branch_cond(i % 3 == 0, b.pc() + 4));
        }
        let t = b.finish();
        let (_, c1) = run_trace(&t, CoreConfig::sparc64_v());
        let (_, c2) = run_trace(&t, CoreConfig::sparc64_v());
        assert_eq!(c1, c2);
    }

    #[test]
    fn unified_rs_is_at_least_as_fast() {
        let body: Vec<Instr> = (0..10u8)
            .map(|i| {
                Instr::alu(
                    OpClass::IntAlu,
                    Reg::int(1 + (i % 6)),
                    &[Reg::int(1 + (i % 6))],
                )
            })
            .collect();
        let t = loop_trace(&body, 400);
        let (split, _) = run_trace(&t, CoreConfig::sparc64_v());
        let (unified, _) = run_trace(&t, CoreConfig::sparc64_v().with_unified_rs());
        assert!(
            unified.ipc() >= split.ipc() * 0.999,
            "unified {} vs split {}",
            unified.ipc(),
            split.ipc()
        );
    }
}

#[cfg(test)]
mod pipeline_tests {
    use super::*;
    use crate::config::CoreConfig;
    use s64v_isa::{Instr, MemWidth, OpClass, Reg};
    use s64v_mem::MemConfig;
    use s64v_trace::{TraceBuilder, VecTrace};

    fn run(trace: &VecTrace, cfg: CoreConfig) -> (CoreStats, u64) {
        let mut mem = MemorySystem::new(MemConfig::sparc64_v(), 1);
        let mut core = Core::new(cfg, 0);
        let mut stream = trace.stream();
        let cycles = core.run(&mut mem, &mut stream);
        (core.stats().clone(), cycles)
    }

    fn loop_trace(body: &[Instr], iters: usize) -> VecTrace {
        let mut b = TraceBuilder::new(0x10_0000);
        let start = b.pc();
        for _ in 0..iters {
            for i in body {
                b.push(*i);
            }
            b.push(Instr::branch_uncond(start));
        }
        b.finish()
    }

    #[test]
    fn commit_width_caps_retirement() {
        // Independent nops retire at most commit_width per cycle.
        let body: Vec<Instr> = (0..15).map(|_| Instr::nop()).collect();
        let t = loop_trace(&body, 300);
        let mut narrow = CoreConfig::sparc64_v();
        narrow.commit_width = 1;
        let (wide, _) = run(&t, CoreConfig::sparc64_v());
        let (one, _) = run(&t, narrow);
        assert!(
            one.ipc() <= 1.01,
            "1-wide commit caps IPC at 1, got {}",
            one.ipc()
        );
        assert!(wide.ipc() > one.ipc() * 1.5);
    }

    #[test]
    fn rename_pool_pressure_stalls_decode() {
        // A long chain of int-dest instructions behind a slow divide fills
        // the rename pool (32 int results in flight).
        let mut body: Vec<Instr> = vec![Instr::alu(OpClass::IntDiv, Reg::int(1), &[Reg::int(1)])];
        for i in 0..40u8 {
            body.push(Instr::alu(
                OpClass::IntAlu,
                Reg::int(2 + (i % 20)),
                &[Reg::int(1)],
            ));
        }
        let t = loop_trace(&body, 60);
        // In the shipped design the 8-entry RSE buffers saturate before the
        // 32-entry rename pool does.
        let (stats, _) = run(&t, CoreConfig::sparc64_v());
        assert!(stats.stall_rs.get() > 0, "RSE must backpressure decode");
        // With outsized reservation stations, the rename pool becomes the
        // binding resource.
        let mut big_rs = CoreConfig::sparc64_v();
        big_rs.rse_entries = 64;
        big_rs.rsf_entries = 64;
        let (stats, _) = run(&t, big_rs);
        assert!(
            stats.stall_rename.get() > 0,
            "rename pool must backpressure decode once the RS is huge"
        );
    }

    #[test]
    fn perfect_branch_prediction_removes_bubbles() {
        // A tight loop of taken branches: real BHT pays taken-branch
        // bubbles every iteration even when prediction is correct.
        let body: Vec<Instr> = (0..3).map(|_| Instr::nop()).collect();
        let t = loop_trace(&body, 500);
        let (real, real_cycles) = run(&t, CoreConfig::sparc64_v());
        let (perfect, perfect_cycles) =
            run(&t, CoreConfig::sparc64_v().with_perfect_branch_prediction());
        assert_eq!(
            real.mispredicts.get(),
            0,
            "uncond branches never mispredict"
        );
        assert!(
            perfect_cycles < real_cycles,
            "BHT access bubbles must cost cycles: {perfect_cycles} vs {real_cycles}"
        );
        let _ = perfect;
    }

    #[test]
    fn small_bht_bubbles_less_than_large() {
        // Both predict the loop perfectly; the 1-cycle table injects fewer
        // taken-branch bubbles than the 2-cycle table (Fig 9's latency
        // advantage).
        let body: Vec<Instr> = (0..3).map(|_| Instr::nop()).collect();
        let t = loop_trace(&body, 500);
        let (_, large_cycles) = run(&t, CoreConfig::sparc64_v());
        let (_, small_cycles) = run(&t, CoreConfig::sparc64_v().with_small_bht());
        assert!(
            small_cycles < large_cycles,
            "1-cycle BHT must fetch targets sooner: {small_cycles} vs {large_cycles}"
        );
    }

    #[test]
    fn divides_block_their_unit() {
        // Back-to-back divides on one chain serialize on the unpipelined
        // divider.
        let mut b = TraceBuilder::new(0x10_0000);
        for _ in 0..50 {
            b.push(Instr::alu(OpClass::IntDiv, Reg::int(1), &[Reg::int(1)]));
        }
        let t = b.finish();
        let (_, cycles) = run(&t, CoreConfig::sparc64_v());
        let div_lat = CoreConfig::sparc64_v().latencies.get(OpClass::IntDiv) as u64;
        assert!(
            cycles >= 50 * div_lat,
            "50 dependent divides need ≥ {} cycles, got {cycles}",
            50 * div_lat
        );
    }

    #[test]
    fn store_queue_pressure_throttles_store_bursts() {
        // A burst of stores to distinct lines drains slowly (each drain
        // occupies the SQ until its line is ready).
        let mut b = TraceBuilder::new(0x10_0000);
        for i in 0..300u64 {
            b.push(Instr::store(
                Reg::int(1),
                Reg::int(2),
                0x40_0000 + i * 4096,
                MemWidth::B8,
            ));
        }
        let t = b.finish();
        let (stats, _) = run(&t, CoreConfig::sparc64_v());
        assert!(
            stats.stall_sq.get() > 0,
            "store bursts must hit the 10-entry SQ"
        );
        assert_eq!(stats.committed.get(), 300);
    }

    #[test]
    fn window_occupancy_is_bounded_by_capacity() {
        let body: Vec<Instr> = (0..8)
            .map(|i| {
                Instr::load(
                    Reg::int(1 + (i % 4) as u8),
                    Reg::int(9),
                    (0x100_0000 + i) << 20,
                    MemWidth::B8,
                )
            })
            .collect();
        let t = loop_trace(&body, 100);
        let (stats, _) = run(&t, CoreConfig::sparc64_v());
        assert!(stats.window_occupancy.max_seen() <= 64);
        assert!(stats.lq_occupancy.max_seen() <= 16);
        assert!(stats.sq_occupancy.max_seen() <= 10);
    }

    #[test]
    fn mispredict_penalty_scales_with_redirect_config() {
        let mut b = TraceBuilder::new(0x10_0000);
        for i in 0..800 {
            b.push(Instr::branch_cond(i % 2 == 0, b.pc() + 4));
            b.push(Instr::nop());
        }
        let t = b.finish();
        let fast = CoreConfig::sparc64_v();
        let mut slow = CoreConfig::sparc64_v();
        slow.redirect_penalty = 20;
        let (_, fast_cycles) = run(&t, fast);
        let (_, slow_cycles) = run(&t, slow);
        assert!(
            slow_cycles > fast_cycles + 500,
            "larger redirect penalty must cost cycles: {slow_cycles} vs {fast_cycles}"
        );
    }

    #[test]
    fn zero_register_sources_never_stall() {
        // %g0 reads are free even behind a slow producer of %g0 (writes
        // to %g0 are discarded).
        let mut b = TraceBuilder::new(0x10_0000);
        for _ in 0..100 {
            b.push(Instr::alu(OpClass::IntDiv, Reg::int(0), &[Reg::int(5)]));
            b.push(Instr::alu(OpClass::IntAlu, Reg::int(6), &[Reg::int(0)]));
        }
        let t = b.finish();
        let (stats, cycles) = run(&t, CoreConfig::sparc64_v());
        assert_eq!(stats.committed.get(), 200);
        // The ALU ops never wait for the divides (no dependence through %g0),
        // but the divides serialize on the two dividers at ~38 cycles each.
        let div_lat = CoreConfig::sparc64_v().latencies.get(OpClass::IntDiv) as u64;
        assert!(
            cycles < 100 * div_lat,
            "ALU ops must not chain on %g0 ({cycles})"
        );
    }

    #[test]
    fn fp_and_int_pipes_run_concurrently() {
        let mut int_body: Vec<Instr> = Vec::new();
        let mut mixed_body: Vec<Instr> = Vec::new();
        for i in 0..8u8 {
            int_body.push(Instr::alu(
                OpClass::IntAlu,
                Reg::int(1 + (i % 4)),
                &[Reg::int(1 + (i % 4))],
            ));
            mixed_body.push(Instr::alu(
                OpClass::IntAlu,
                Reg::int(1 + (i % 4)),
                &[Reg::int(1 + (i % 4))],
            ));
            mixed_body.push(Instr::alu(
                OpClass::FpAdd,
                Reg::fp(1 + (i % 4)),
                &[Reg::fp(1 + (i % 4))],
            ));
        }
        let int_t = loop_trace(&int_body, 400);
        let mixed_t = loop_trace(&mixed_body, 400);
        let (int_stats, _) = run(&int_t, CoreConfig::sparc64_v());
        let (mixed_stats, _) = run(&mixed_t, CoreConfig::sparc64_v());
        assert!(
            mixed_stats.ipc() > int_stats.ipc(),
            "adding FP work to int-bound code must raise IPC: {} vs {}",
            mixed_stats.ipc(),
            int_stats.ipc()
        );
    }
}

#[cfg(test)]
mod timeline_tests {
    use super::*;
    use crate::config::CoreConfig;
    use s64v_isa::{Instr, MemWidth, OpClass, Reg};
    use s64v_mem::MemConfig;
    use s64v_trace::TraceBuilder;

    #[test]
    fn timelines_are_recorded_and_consistent() {
        let mut b = TraceBuilder::new(0x10_0000);
        for i in 0..200u64 {
            b.push(Instr::load(
                Reg::int(1),
                Reg::int(2),
                0x40_0000 + (i % 32) * 8,
                MemWidth::B8,
            ));
            b.push(Instr::alu(OpClass::IntAlu, Reg::int(3), &[Reg::int(1)]));
            b.push(Instr::branch_cond(i % 4 != 0, b.pc() + 4));
        }
        let t = b.finish();
        let mut mem = MemorySystem::new(MemConfig::sparc64_v(), 1);
        let mut core = Core::new(CoreConfig::sparc64_v(), 0);
        core.enable_timeline(100);
        let mut stream = t.stream();
        core.run(&mut mem, &mut stream);

        let tl = core.timeline().expect("enabled");
        assert_eq!(tl.entries().len(), 100);
        for e in tl.entries() {
            assert!(e.committed_at.is_some(), "seq {} never committed", e.seq);
            assert!(e.completed_at.is_some(), "seq {} never completed", e.seq);
            assert!(
                e.is_consistent(),
                "seq {} has out-of-order stages: {e:?}",
                e.seq
            );
        }
        // Commit order is program order.
        let commits: Vec<u64> = tl
            .entries()
            .iter()
            .map(|e| e.committed_at.unwrap())
            .collect();
        assert!(
            commits.windows(2).all(|w| w[0] <= w[1]),
            "in-order retirement"
        );
    }

    #[test]
    fn identical_runs_produce_identical_timelines() {
        let mut b = TraceBuilder::new(0x10_0000);
        for i in 0..150u64 {
            b.push(Instr::load(
                Reg::int(1),
                Reg::int(2),
                0x40_0000 + i * 512,
                MemWidth::B8,
            ));
            b.push(Instr::alu(OpClass::IntAlu, Reg::int(3), &[Reg::int(1)]));
        }
        let t = b.finish();
        let run = || {
            let mut mem = MemorySystem::new(MemConfig::sparc64_v(), 1);
            let mut core = Core::new(CoreConfig::sparc64_v(), 0);
            core.enable_timeline(300);
            let mut stream = t.stream();
            core.run(&mut mem, &mut stream);
            core.timeline().expect("enabled").clone()
        };
        let a = run();
        let b2 = run();
        assert!(
            a.diff_commits(&b2, 0).is_empty(),
            "determinism down to per-instruction commits"
        );
    }

    #[test]
    fn replayed_loads_show_in_the_timeline() {
        let mut b = TraceBuilder::new(0x10_0000);
        let mut x = 0x123u64;
        for _ in 0..150 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = (0x100_0000 + (x % (32 << 20))) & !7;
            b.push(Instr::load(Reg::int(1), Reg::int(2), addr, MemWidth::B8));
            b.push(Instr::alu(OpClass::IntAlu, Reg::int(3), &[Reg::int(1)]));
        }
        let t = b.finish();
        let mut mem = MemorySystem::new(MemConfig::sparc64_v(), 1);
        let mut core = Core::new(CoreConfig::sparc64_v(), 0);
        core.enable_timeline(300);
        let mut stream = t.stream();
        core.run(&mut mem, &mut stream);
        let replays: u32 = core
            .timeline()
            .unwrap()
            .entries()
            .iter()
            .map(|e| e.replays)
            .sum();
        assert!(
            replays > 0,
            "misses must cancel dependents in the timeline too"
        );
    }
}

#[cfg(test)]
mod probe_tests {
    use super::*;
    use crate::config::CoreConfig;
    use s64v_isa::{Instr, MemWidth, OpClass, Reg};
    use s64v_mem::MemConfig;
    use s64v_observe::EventLog;
    use s64v_trace::{TraceBuilder, VecTrace};

    fn mixed_trace() -> VecTrace {
        let mut b = TraceBuilder::new(0x10_0000);
        let mut x = 0x9e37u64;
        for i in 0..120u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = (0x100_0000 + x % (32 << 20)) & !7;
            b.push(Instr::load(Reg::int(1), Reg::int(2), addr, MemWidth::B8));
            b.push(Instr::alu(OpClass::IntAlu, Reg::int(3), &[Reg::int(1)]));
            b.push(Instr::branch_cond(i % 5 == 0, b.pc() + 4));
        }
        b.finish()
    }

    #[test]
    fn attached_probe_does_not_perturb_the_run() {
        let t = mixed_trace();
        let run = |with_probe: bool| {
            let mut mem = MemorySystem::new(MemConfig::sparc64_v(), 1);
            let mut core = Core::new(CoreConfig::sparc64_v(), 0);
            if with_probe {
                core.attach_probe(Box::new(EventLog::with_capacity(1 << 20)));
            }
            let mut stream = t.stream();
            let cycles = core.run(&mut mem, &mut stream);
            (cycles, core.stats().clone())
        };
        let (plain_cycles, plain_stats) = run(false);
        let (probed_cycles, probed_stats) = run(true);
        assert_eq!(plain_cycles, probed_cycles, "cycle count must not move");
        assert_eq!(
            format!("{plain_stats:?}"),
            format!("{probed_stats:?}"),
            "every counter must be identical with a probe attached"
        );
    }

    #[test]
    fn probe_narrates_the_whole_pipeline() {
        let t = mixed_trace();
        let mut mem = MemorySystem::new(MemConfig::sparc64_v(), 1);
        let mut core = Core::new(CoreConfig::sparc64_v(), 0);
        core.attach_probe(Box::new(EventLog::with_capacity(1 << 20)));
        let mut stream = t.stream();
        core.run(&mut mem, &mut stream);

        let committed = core.stats().committed.get();
        let events = core.take_probe().expect("attached").into_events();
        let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count() as u64;
        // Trace-driven decode never goes down the wrong path, so every
        // decoded instruction commits: the two streams must agree.
        assert_eq!(count("decode"), committed);
        assert_eq!(count("commit"), committed);
        assert!(count("fetch") > 0, "fetch groups must be narrated");
        assert!(count("dispatch") > 0, "dispatches must be narrated");
        assert!(count("complete") >= committed, "completions cover commits");
        // Events arrive in nondecreasing phase order within the stream only
        // per instruction; globally we just require cycle monotonicity to
        // hold loosely (each event's cycle is within the run).
        let last_cycle = core.stats().cycles.get();
        assert!(events.iter().all(|e| e.cycle() <= last_cycle + 1));
    }
}

#[cfg(test)]
mod cpi_stack_tests {
    use super::*;
    use crate::config::CoreConfig;
    use s64v_isa::{Instr, MemWidth, OpClass, Reg};
    use s64v_mem::MemConfig;
    use s64v_trace::TraceBuilder;

    fn stacked(trace: &s64v_trace::VecTrace) -> crate::stats::StallCycles {
        let mut mem = MemorySystem::new(MemConfig::sparc64_v(), 1);
        let mut core = Core::new(CoreConfig::sparc64_v(), 0);
        let mut stream = trace.stream();
        core.run(&mut mem, &mut stream);
        core.stats().stall_cycles
    }

    #[test]
    fn blame_covers_every_cycle() {
        let mut b = TraceBuilder::new(0x10_0000);
        for i in 0..500u64 {
            b.push(Instr::load(
                Reg::int(1),
                Reg::int(2),
                0x40_0000 + i * 128,
                MemWidth::B8,
            ));
            b.push(Instr::alu(OpClass::IntAlu, Reg::int(3), &[Reg::int(1)]));
        }
        let t = b.finish();
        let mut mem = MemorySystem::new(MemConfig::sparc64_v(), 1);
        let mut core = Core::new(CoreConfig::sparc64_v(), 0);
        let mut stream = t.stream();
        core.run(&mut mem, &mut stream);
        let s = core.stats().stall_cycles;
        let total: u64 = [
            s.busy,
            s.l2_miss,
            s.l1_miss,
            s.execute,
            s.dispatch,
            s.frontend_branch,
            s.frontend_fetch,
        ]
        .iter()
        .map(|c| c.get())
        .sum();
        assert_eq!(
            total,
            core.stats().cycles.get(),
            "every cycle gets exactly one blame"
        );
    }

    #[test]
    fn stall_blame_sums_to_total_cycles_on_mixed_workload() {
        // Satellite invariant: try_step records exactly one StallCause per
        // timed cycle, so the seven blame counters partition the run. Use
        // a deliberately mixed workload — integer ALU chains, long-latency
        // FP, cache-missing loads, stores, and conditional branches — so
        // every blame bucket is exercised in one run.
        let mut b = TraceBuilder::new(0x10_0000);
        let mut x = 3u64;
        for i in 0..300u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            b.push(Instr::load(
                Reg::int(1),
                Reg::int(2),
                (0x100_0000 + x % (64 << 20)) & !7,
                MemWidth::B8,
            ));
            b.push(Instr::alu(OpClass::IntAlu, Reg::int(3), &[Reg::int(1)]));
            b.push(Instr::alu(OpClass::FpDiv, Reg::fp(1), &[Reg::fp(1)]));
            b.push(Instr::store(
                Reg::int(3),
                Reg::int(2),
                0x80_0000 + (i % 64) * 8,
                MemWidth::B8,
            ));
            let fall_through = b.pc() + 4;
            b.push(Instr::branch_cond(i % 3 == 0, fall_through));
        }
        let t = b.finish();
        let mut mem = MemorySystem::new(MemConfig::sparc64_v(), 1);
        let mut core = Core::new(CoreConfig::sparc64_v(), 0);
        let mut stream = t.stream();
        let cycles = core.run(&mut mem, &mut stream);
        let s = core.stats().stall_cycles;
        let buckets = [
            s.busy,
            s.l2_miss,
            s.l1_miss,
            s.execute,
            s.dispatch,
            s.frontend_branch,
            s.frontend_fetch,
        ];
        let total: u64 = buckets.iter().map(|c| c.get()).sum();
        assert_eq!(cycles, core.stats().cycles.get(), "run reports its cycles");
        assert_eq!(
            total, cycles,
            "stall-cause attribution must partition the {cycles} timed cycles"
        );
        assert!(
            buckets.iter().filter(|c| c.get() > 0).count() >= 4,
            "mixed workload should spread blame across buckets, got {buckets:?}"
        );
    }

    #[test]
    fn memory_bound_code_blames_memory() {
        // Dependent loads over a huge random footprint: L2-miss blame must
        // dominate.
        let mut b = TraceBuilder::new(0x10_0000);
        let mut x = 7u64;
        for _ in 0..400 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            b.push(Instr::load(
                Reg::int(1),
                Reg::int(2),
                (0x100_0000 + x % (256 << 20)) & !7,
                MemWidth::B8,
            ));
            b.push(Instr::alu(OpClass::IntAlu, Reg::int(3), &[Reg::int(1)]));
        }
        let s = stacked(&b.finish());
        assert!(
            s.l2_miss.get() > s.busy.get(),
            "cold random loads: L2-miss blame {} must dominate busy {}",
            s.l2_miss.get(),
            s.busy.get()
        );
    }

    #[test]
    fn compute_bound_code_blames_execution() {
        let mut b = TraceBuilder::new(0x10_0000);
        for _ in 0..1000 {
            b.push(Instr::alu(OpClass::FpDiv, Reg::fp(1), &[Reg::fp(1)]));
        }
        let s = stacked(&b.finish());
        assert!(
            s.execute.get() > s.l2_miss.get() + s.l1_miss.get(),
            "serial divides blame execution"
        );
    }

    fn topdown(trace: &s64v_trace::VecTrace) -> (s64v_observe::CpiStack, u64) {
        let mut mem = MemorySystem::new(MemConfig::sparc64_v(), 1);
        let mut core = Core::new(CoreConfig::sparc64_v(), 0);
        let mut stream = trace.stream();
        let _ = core.run(&mut mem, &mut stream);
        (core.stats().cpi, core.stats().cycles.get())
    }

    #[test]
    fn topdown_leaves_conserve_cycles_on_mixed_workload() {
        let mut b = TraceBuilder::new(0x10_0000);
        let mut x = 3u64;
        for i in 0..300u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            b.push(Instr::load(
                Reg::int(1),
                Reg::int(2),
                (0x100_0000 + x % (64 << 20)) & !7,
                MemWidth::B8,
            ));
            b.push(Instr::alu(OpClass::IntAlu, Reg::int(3), &[Reg::int(1)]));
            b.push(Instr::alu(OpClass::FpDiv, Reg::fp(1), &[Reg::fp(1)]));
            b.push(Instr::store(
                Reg::int(3),
                Reg::int(2),
                0x80_0000 + (i % 64) * 8,
                MemWidth::B8,
            ));
            let fall_through = b.pc() + 4;
            b.push(Instr::branch_cond(i % 3 == 0, fall_through));
        }
        let (cpi, cycles) = topdown(&b.finish());
        assert!(
            cpi.conserves(cycles),
            "leaves sum {} must equal cycles {cycles}: {cpi:?}",
            cpi.total()
        );
        assert!(cpi.get(s64v_observe::CpiLeaf::Retire) > 0);
    }

    #[test]
    fn topdown_blames_backend_memory_on_cold_random_loads() {
        use s64v_observe::CpiGroup;
        let mut b = TraceBuilder::new(0x10_0000);
        let mut x = 7u64;
        for _ in 0..400 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            b.push(Instr::load(
                Reg::int(1),
                Reg::int(2),
                (0x100_0000 + x % (256 << 20)) & !7,
                MemWidth::B8,
            ));
            b.push(Instr::alu(OpClass::IntAlu, Reg::int(3), &[Reg::int(1)]));
        }
        let (cpi, cycles) = topdown(&b.finish());
        assert!(cpi.conserves(cycles));
        let mem_cycles = cpi.group_total(CpiGroup::BackendMemory);
        assert!(
            mem_cycles > cycles / 2,
            "cold random loads must be majority backend-memory, got {mem_cycles}/{cycles}"
        );
        // The fills come from DRAM, and the recorded level says so.
        assert!(
            cpi.get(s64v_observe::CpiLeaf::MemDram) > cpi.get(s64v_observe::CpiLeaf::MemL2),
            "L2-missing loads blame DRAM over L2: {cpi:?}"
        );
    }

    #[test]
    fn topdown_blames_backend_core_on_serial_divides() {
        use s64v_observe::CpiGroup;
        let mut b = TraceBuilder::new(0x10_0000);
        for _ in 0..1000 {
            b.push(Instr::alu(OpClass::FpDiv, Reg::fp(1), &[Reg::fp(1)]));
        }
        let (cpi, cycles) = topdown(&b.finish());
        assert!(cpi.conserves(cycles));
        assert!(
            cpi.group_total(CpiGroup::BackendCore) > cpi.group_total(CpiGroup::BackendMemory),
            "serial divides are a core problem: {cpi:?}"
        );
    }

    #[test]
    fn topdown_blames_bad_speculation_on_mispredicted_branches() {
        use s64v_observe::CpiGroup;
        let mut b = TraceBuilder::new(0x10_0000);
        let mut x = 11u64;
        for _ in 0..600 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let fall_through = b.pc() + 4;
            b.push(Instr::branch_cond(x.is_multiple_of(2), fall_through));
            b.push(Instr::nop());
        }
        let (cpi, cycles) = topdown(&b.finish());
        assert!(cpi.conserves(cycles));
        assert!(
            cpi.group_total(CpiGroup::BadSpeculation) > 0,
            "random branches must charge bad speculation: {cpi:?}"
        );
    }

    #[test]
    fn topdown_agrees_with_skipping_disabled() {
        // The same workload stepped cycle-by-cycle must attribute every
        // leaf identically to the skipping run (skip-stability of every
        // cpi_blame input).
        let mut b = TraceBuilder::new(0x10_0000);
        let mut x = 5u64;
        for _ in 0..300 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            b.push(Instr::load(
                Reg::int(1),
                Reg::int(2),
                (0x100_0000 + x % (128 << 20)) & !7,
                MemWidth::B8,
            ));
            b.push(Instr::alu(
                OpClass::FpDiv,
                Reg::fp(1),
                &[Reg::fp(1), Reg::fp(2)],
            ));
        }
        let t = b.finish();
        let run = |skip: bool| {
            let mut mem = MemorySystem::new(MemConfig::sparc64_v(), 1);
            let mut core = Core::new(CoreConfig::sparc64_v(), 0);
            core.set_skip(skip);
            let mut stream = t.stream();
            core.run(&mut mem, &mut stream);
            core.stats().cpi
        };
        assert_eq!(run(true), run(false));
    }
}

#[cfg(test)]
mod wrong_path_tests {
    use super::*;
    use crate::config::CoreConfig;
    use s64v_isa::Instr;
    use s64v_mem::MemConfig;
    use s64v_trace::TraceBuilder;

    #[test]
    fn wrong_path_fetch_pollutes_but_commits_identically() {
        let mut b = TraceBuilder::new(0x10_0000);
        for i in 0..600 {
            b.push(Instr::branch_cond(i % 2 == 0, b.pc() + 4));
            b.push(Instr::nop());
        }
        let t = b.finish();
        let run = |cfg: CoreConfig| {
            let mut mem = MemorySystem::new(MemConfig::sparc64_v(), 1);
            let mut core = Core::new(cfg, 0);
            let mut stream = t.stream();
            core.run(&mut mem, &mut stream);
            (core.stats().clone(), mem.stats(0).l1i.accesses.get())
        };
        let (base, base_l1i) = run(CoreConfig::sparc64_v());
        let (wp, wp_l1i) = run(CoreConfig::sparc64_v().with_wrong_path_fetch());
        assert_eq!(base.committed.get(), wp.committed.get());
        assert_eq!(base.wrong_path_fetches.get(), 0);
        assert!(
            wp.wrong_path_fetches.get() > 100,
            "mispredicts must fetch wrong paths"
        );
        assert!(wp_l1i > base_l1i, "wrong-path fetches hit the I-cache");
    }
}
