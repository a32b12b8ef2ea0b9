//! Simulation integrity layer: structured errors and the invariant auditor.
//!
//! A performance model that silently corrupts its own bookkeeping produces
//! numbers that *look* plausible — the most dangerous failure mode a
//! simulator has. This module gives every run two defenses:
//!
//! * [`SimError`] — a structured error carrying the first faulting cycle,
//!   the CPU involved, the violated [`Component`], and full pipeline /
//!   memory-system snapshots, instead of a bare panic string.
//!   [`crate::PerformanceModel::execute`] surfaces it; the campaign engine turns it into a JSON
//!   diagnostic dump next to the results cache.
//! * [`Auditor`] — the *checked mode* invariant sweep. Enabled via
//!   [`crate::RunOptions::checked`], it verifies after every simulated
//!   cycle that the model's conservation laws hold: instruction
//!   conservation (decoded = committed + in flight), occupancy within
//!   capacity for the window, reservation stations, LSQ and MSHR files,
//!   the schedule (every event, ready mark and producer→consumer link the
//!   kernel acts on is what its naive definition says, see
//!   `Core::audit_schedule`), bus busy-cycle credit conservation, commit
//!   monotonicity, and (on a periodic sweep plus at end of run) MESI
//!   legality and cache inclusion/eviction consistency. The first violated invariant aborts
//!   the run with a [`SimError`] naming the faulting cycle.
//!
//! The per-cycle checks read `Copy` snapshots and integer counters, plus
//! one walk of each core's window for the schedule audit; the
//! directory-wide coherence sweep runs every [`SWEEP_INTERVAL`] cycles.
//!
//! The per-core checks over one snapshot are [`check_pipeline`] and
//! [`check_cpi`]; the schedule, MSHR, bus, coherence and inclusion audits
//! live with the state they read (`Core::audit_schedule`,
//! `MemorySystem::audit_*`). That every check fires is shown twice: each
//! has a unit test in the crate that owns its state, corrupting that
//! state directly, and `scripts/mutate.sh` plants each fault class of
//! `specs/mutants/` in a copy of the source and requires the checked run
//! of `tests/fault_matrix.rs` to fail naming the expected [`Component`].

use s64v_cpu::{Core, CoreError, CoreStats, PipelineSnapshot};
use s64v_mem::{MemSnapshot, MemorySystem};
use std::fmt;

/// How many cycles pass between directory-wide coherence sweeps in checked
/// mode (the per-cycle checks are O(cores); the sweep is O(tracked lines)).
pub const SWEEP_INTERVAL: u64 = 4096;

/// The model component whose invariant a [`SimError`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// The pipeline itself wedged (no commit within the deadlock horizon).
    Pipeline,
    /// Instruction conservation: decoded ≠ committed + in flight.
    Conservation,
    /// Instruction window (ROB) occupancy exceeded its capacity.
    Window,
    /// A reservation station's occupancy exceeded its capacity.
    ReservationStation,
    /// Load/store queue occupancy exceeded its capacity.
    LoadStoreQueue,
    /// An MSHR file holds more in-flight misses than it has entries.
    Mshr,
    /// Bus transaction/busy-cycle credit conservation failed.
    Bus,
    /// An illegal MESI state combination (e.g. two Modified owners).
    Coherence,
    /// Cache inclusion / eviction consistency between L2s and the
    /// directory failed.
    Inclusion,
    /// The committed-instruction counter moved backwards.
    Commit,
    /// The kernel's schedule disagrees with its definition: an event lost
    /// or armed for the wrong cycle, a stale ready mark, a broken
    /// producer→consumer link.
    Schedule,
    /// The run exceeded a supervision budget (simulated-cycle ceiling or
    /// a wall-clock deadline enforced by an external watchdog). Not a
    /// model invariant: the harness treats watchdog errors as transient
    /// and retries them, where every other component fails fast.
    Watchdog,
}

impl Component {
    /// Stable kebab-case name (used in JSON dumps and reports).
    pub fn name(self) -> &'static str {
        match self {
            Component::Pipeline => "pipeline",
            Component::Conservation => "conservation",
            Component::Window => "window",
            Component::ReservationStation => "reservation-station",
            Component::LoadStoreQueue => "load-store-queue",
            Component::Mshr => "mshr",
            Component::Bus => "bus",
            Component::Coherence => "coherence",
            Component::Inclusion => "inclusion",
            Component::Commit => "commit",
            Component::Schedule => "schedule",
            Component::Watchdog => "watchdog",
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured simulation error: the first faulting cycle, the CPU (when
/// attributable), the violated component, and state snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct SimError {
    /// First cycle at which the violation was observed.
    pub cycle: u64,
    /// The CPU involved, when the violation is per-core.
    pub core: Option<usize>,
    /// Which invariant / component failed.
    pub component: Component,
    /// Human-readable description of the violation.
    pub message: String,
    /// The offending core's pipeline state, when available. Boxed so the
    /// error type stays small on the per-cycle `Result` paths.
    pub pipeline: Option<Box<PipelineSnapshot>>,
    /// Memory-system outstanding state at the faulting cycle.
    pub memory: Option<Box<MemSnapshot>>,
}

impl SimError {
    /// Wraps a structured core error (a wedged pipeline) with the memory
    /// system's view attached.
    pub fn from_core(err: CoreError, mem: &MemorySystem) -> Self {
        SimError {
            cycle: err.snapshot.cycle,
            core: Some(err.snapshot.core_id),
            component: Component::Pipeline,
            message: err.to_string(),
            pipeline: Some(Box::new(err.snapshot)),
            memory: Some(Box::new(mem.snapshot())),
        }
    }

    /// A per-core invariant violation on the cycle `s` describes,
    /// carrying the snapshot (and no memory snapshot).
    fn in_pipeline(s: &PipelineSnapshot, component: Component, message: String) -> Self {
        SimError {
            cycle: s.cycle,
            core: Some(s.core_id),
            component,
            message,
            pipeline: Some(Box::new(*s)),
            memory: None,
        }
    }

    /// A supervision-budget trip: the run burned past its simulated-cycle
    /// ceiling or was cancelled by a wall-clock watchdog. Carries no
    /// snapshots — the model state is healthy, just slow (or hung outside
    /// the model entirely).
    pub fn watchdog(cycle: u64, message: impl Into<String>) -> Self {
        SimError {
            cycle,
            core: None,
            component: Component::Watchdog,
            message: message.into(),
            pipeline: None,
            memory: None,
        }
    }

    /// Whether this error is a supervision-budget trip (see
    /// [`SimError::watchdog`]) rather than a model fault.
    pub fn is_watchdog(&self) -> bool {
        self.component == Component::Watchdog
    }

    /// Renders the error as a self-contained JSON diagnostic object (the
    /// campaign engine writes this next to the results-cache entry).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let core = match self.core {
            Some(c) => c.to_string(),
            None => "null".to_string(),
        };
        let pipeline = match &self.pipeline {
            Some(p) => format!("\"{}\"", esc(&p.to_string())),
            None => "null".to_string(),
        };
        let memory = match &self.memory {
            Some(m) => format!("\"{}\"", esc(&m.to_string())),
            None => "null".to_string(),
        };
        format!(
            "{{\n  \"cycle\": {},\n  \"core\": {},\n  \"component\": \"{}\",\n  \
             \"message\": \"{}\",\n  \"pipeline\": {},\n  \"memory\": {}\n}}\n",
            self.cycle,
            core,
            self.component.name(),
            esc(&self.message),
            pipeline,
            memory
        )
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.cycle)?;
        if let Some(c) = self.core {
            write!(f, " cpu {c}")?;
        }
        if self.component == Component::Watchdog {
            // Not an invariant: the model is healthy, the run overran.
            write!(f, ": watchdog: {}", self.message)
        } else {
            write!(
                f,
                ": {} invariant violated: {}",
                self.component, self.message
            )
        }
    }
}

impl std::error::Error for SimError {}

/// The checked-mode invariant auditor.
///
/// Call [`Auditor::check`] once per simulated cycle after every core has
/// stepped, and [`Auditor::finalize`] once after the run drains. The first
/// violation is returned as a [`SimError`] naming that cycle; a clean run
/// returns `Ok(())` throughout.
#[derive(Debug)]
pub struct Auditor {
    last_committed: Vec<u64>,
    next_sweep: u64,
}

impl Auditor {
    /// An auditor for a system of `cores` CPUs.
    pub fn new(cores: usize) -> Self {
        Auditor {
            last_committed: vec![0; cores],
            next_sweep: SWEEP_INTERVAL,
        }
    }

    /// Per-cycle invariant check over every core and the memory system.
    pub fn check(&mut self, now: u64, cores: &[Core], mem: &MemorySystem) -> Result<(), SimError> {
        let with_memory = |mut e: SimError| {
            e.memory = Some(Box::new(mem.snapshot()));
            e
        };
        for (i, core) in cores.iter().enumerate() {
            let s = core.snapshot(now);
            check_pipeline(&s, self.last_committed[i]).map_err(with_memory)?;
            self.last_committed[i] = s.committed;
            core.audit_schedule(now)
                .map_err(|m| with_memory(SimError::in_pipeline(&s, Component::Schedule, m)))?;
            check_cpi(&s, core.stats()).map_err(with_memory)?;
        }

        mem.audit_mshr_credit()
            .map_err(|m| system_error(now, Component::Mshr, m, mem))?;
        mem.audit_bus_credit()
            .map_err(|m| system_error(now, Component::Bus, m, mem))?;

        if now >= self.next_sweep {
            self.next_sweep = now + SWEEP_INTERVAL;
            mem.audit_coherence()
                .map_err(|m| system_error(now, Component::Coherence, m, mem))?;
        }
        Ok(())
    }

    /// End-of-run audit: one last per-cycle check plus the full coherence
    /// and inclusion sweeps (inclusion walks every tracked line against
    /// every L2, so it runs once rather than per cycle).
    pub fn finalize(
        &mut self,
        now: u64,
        cores: &[Core],
        mem: &MemorySystem,
    ) -> Result<(), SimError> {
        self.check(now, cores, mem)?;
        mem.audit_coherence()
            .map_err(|m| system_error(now, Component::Coherence, m, mem))?;
        mem.audit_inclusion()
            .map_err(|m| system_error(now, Component::Inclusion, m, mem))?;
        Ok(())
    }
}

/// A system-wide (memory-side) violation at `now`, with the memory
/// system's snapshot.
fn system_error(now: u64, component: Component, message: String, mem: &MemorySystem) -> SimError {
    SimError {
        cycle: now,
        core: None,
        component,
        message,
        pipeline: None,
        memory: Some(Box::new(mem.snapshot())),
    }
}

/// The per-core invariants one [`PipelineSnapshot`] must hold, given the
/// committed count the previous cycle's snapshot showed: commit
/// monotonicity, instruction conservation, and occupancy within capacity
/// for the window, every reservation station and the load/store queues.
/// A violation names the snapshot's cycle and CPU and carries the
/// snapshot; [`Auditor::check`] attaches the memory system's.
pub fn check_pipeline(s: &PipelineSnapshot, last_committed: u64) -> Result<(), SimError> {
    let fail = |component, message| Err(SimError::in_pipeline(s, component, message));
    // Commit monotonicity first: a rewound counter also breaks
    // conservation, and the root cause is the rewind.
    if s.committed < last_committed {
        return fail(
            Component::Commit,
            format!(
                "committed-instruction count moved backwards: {} after {last_committed}",
                s.committed
            ),
        );
    }
    // Conservation: every decoded instruction is either committed or
    // still in the window (wrong-path fetches are never decoded in this
    // model, so the balance is exact).
    if s.next_seq != s.committed + s.rob_len as u64 {
        return fail(
            Component::Conservation,
            format!(
                "instruction conservation broken: {} decoded != {} committed + {} in window",
                s.next_seq, s.committed, s.rob_len
            ),
        );
    }
    if s.rob_len > s.rob_capacity {
        return fail(
            Component::Window,
            format!(
                "instruction window over capacity: {} entries in a {}-entry window",
                s.rob_len, s.rob_capacity
            ),
        );
    }
    if let Some(rs) = s.rs.iter().find(|rs| rs.occupancy > rs.capacity) {
        return fail(
            Component::ReservationStation,
            format!(
                "{} over capacity: {} entries in a {}-entry station",
                rs.kind, rs.occupancy, rs.capacity
            ),
        );
    }
    if s.loads_in_flight > s.load_queue || s.stores_in_flight > s.store_queue {
        return fail(
            Component::LoadStoreQueue,
            format!(
                "LSQ over capacity: {}/{} loads, {}/{} stores",
                s.loads_in_flight, s.load_queue, s.stores_in_flight, s.store_queue
            ),
        );
    }
    Ok(())
}

/// Top-down CPI conservation for the core `s` describes: every simulated
/// cycle is attributed to exactly one blame-taxonomy leaf, so the leaf
/// counters partition the cycle counter exactly.
pub fn check_cpi(s: &PipelineSnapshot, stats: &CoreStats) -> Result<(), SimError> {
    if stats.cpi.conserves(stats.cycles.get()) {
        return Ok(());
    }
    Err(SimError::in_pipeline(
        s,
        Component::Conservation,
        format!(
            "CPI-stack conservation broken: {} attributed cycles != {} simulated",
            stats.cpi.total(),
            stats.cycles.get()
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use s64v_cpu::Core;
    use s64v_mem::{MemConfig, MemorySystem};

    fn parts() -> (Vec<Core>, MemorySystem) {
        let cfg = SystemConfig::sparc64_v();
        (
            vec![Core::new(cfg.core.clone(), 0)],
            MemorySystem::new(MemConfig::sparc64_v(), 1),
        )
    }

    /// A consistent snapshot of an idle core at `cycle`, to corrupt.
    fn snapshot(cycle: u64) -> PipelineSnapshot {
        parts().0[0].snapshot(cycle)
    }

    #[test]
    fn idle_system_passes_all_checks() {
        let (cores, mem) = parts();
        let mut a = Auditor::new(1);
        assert!(a.check(0, &cores, &mem).is_ok());
        assert!(a.finalize(1, &cores, &mem).is_ok());
    }

    #[test]
    fn rewound_commit_counter_is_flagged_as_commit_violation() {
        let s = snapshot(10);
        let err = check_pipeline(&s, 500).unwrap_err();
        assert_eq!(err.component, Component::Commit);
        assert_eq!(err.cycle, 10);
        assert_eq!(err.core, Some(0));
        assert!(
            err.to_string().contains("moved backwards: 0 after 500"),
            "{err}"
        );
    }

    #[test]
    fn undecoded_commits_break_instruction_conservation() {
        let mut s = snapshot(6);
        s.committed = 3;
        let err = check_pipeline(&s, 0).unwrap_err();
        assert_eq!(err.component, Component::Conservation);
        assert!(
            err.message
                .contains("0 decoded != 3 committed + 0 in window"),
            "{err}"
        );
    }

    #[test]
    fn an_overfull_window_is_flagged() {
        let mut s = snapshot(2);
        s.rob_len = s.rob_capacity + 1;
        s.next_seq = s.rob_len as u64;
        let err = check_pipeline(&s, 0).unwrap_err();
        assert_eq!(err.component, Component::Window);
        assert!(err.message.contains("window over capacity"), "{err}");
    }

    #[test]
    fn leaked_cpi_cycle_breaks_topdown_conservation() {
        let s = snapshot(4);
        let mut stats = CoreStats::new(64, 16, 10);
        stats.cycles.incr();
        let err = check_cpi(&s, &stats).unwrap_err();
        assert_eq!(err.component, Component::Conservation);
        assert_eq!(err.core, Some(0));
        assert!(
            err.message
                .contains("CPI-stack conservation broken: 0 attributed cycles != 1"),
            "{err}"
        );
    }

    #[test]
    fn stuck_rs_slots_break_the_occupancy_invariant() {
        let mut s = snapshot(3);
        let rsa = s.rs.iter_mut().find(|rs| rs.kind == s64v_isa::RsKind::Rsa);
        let rsa = rsa.expect("every station is in the snapshot");
        rsa.occupancy = rsa.capacity + 64;
        let err = check_pipeline(&s, 0).unwrap_err();
        assert_eq!(err.component, Component::ReservationStation);
        assert_eq!(err.cycle, 3);
        assert!(err.message.contains("RSA over capacity"), "{err}");
    }

    #[test]
    fn an_overfull_load_queue_is_flagged() {
        let mut s = snapshot(5);
        s.loads_in_flight = s.load_queue + 1;
        let err = check_pipeline(&s, 0).unwrap_err();
        assert_eq!(err.component, Component::LoadStoreQueue);
        assert!(err.message.contains("LSQ over capacity"), "{err}");
    }

    #[test]
    fn json_dump_is_self_contained() {
        let mut a = Auditor::new(1);
        a.last_committed[0] = 5;
        let (cores, mem) = parts();
        let err = a.check(42, &cores, &mem).unwrap_err();
        let json = err.to_json();
        assert!(json.contains("\"cycle\": 42"), "{json}");
        assert!(json.contains("\"component\": \"commit\""), "{json}");
        assert!(json.contains("\"pipeline\": \""), "{json}");
        assert!(json.contains("\"memory\": \""), "{json}");
    }
}
