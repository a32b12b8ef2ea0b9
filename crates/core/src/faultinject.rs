//! Deterministic fault injection for validating the integrity layer.
//!
//! A checker that never fires is indistinguishable from a checker that
//! does not work. This module flips model state *on purpose* — at a
//! deterministic, seed-derived cycle — so the invariant auditor
//! ([`crate::integrity::Auditor`]) can be proven to catch every class of
//! corruption it claims to cover:
//!
//! | fault class                     | detecting invariant              |
//! |---------------------------------|----------------------------------|
//! | [`FaultClass::DropFill`]        | pipeline wedge watchdog          |
//! | [`FaultClass::CorruptTag`]      | MESI legality sweep              |
//! | [`FaultClass::LoseBusGrant`]    | bus credit conservation          |
//! | [`FaultClass::StallRsSlot`]     | RS occupancy within capacity     |
//! | [`FaultClass::OvercommitMshr`]  | MSHR occupancy within capacity   |
//! | [`FaultClass::RewindCommit`]    | commit monotonicity              |
//! | [`FaultClass::LoseEvent`]       | schedule audit                   |
//!
//! Injection is fully reproducible: [`FaultPlan::seeded`] derives the
//! injection cycle from the seed, the fault class, the target CPU and the
//! simulation point's fingerprint via the same [`StableHasher`] the
//! results cache uses, so a failing campaign point can be re-run bit-for-
//! bit. Fault plans ride in [`crate::RunOptions`], never in
//! [`crate::SystemConfig`], so they cannot perturb cache fingerprints.

use crate::fingerprint::{Fingerprint, StableHasher};
use s64v_cpu::Core;
use s64v_isa::RsKind;
use s64v_mem::MemorySystem;

/// How many reservation-station slots [`FaultClass::StallRsSlot`] marks as
/// stuck: enough to exceed any configured station capacity outright, so
/// detection does not depend on workload pressure.
const STUCK_SLOTS: usize = 64;

/// A class of model-state corruption the injector can introduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Drop the next L1D fill on the target CPU: the consuming load's data
    /// never arrives and the pipeline wedges.
    DropFill,
    /// Corrupt directory state: force the target CPU to Modified on a line
    /// another CPU validly holds (an illegal second owner).
    CorruptTag,
    /// Count a bus grant that never booked its occupancy.
    LoseBusGrant,
    /// Mark a block of RSA slots on the target CPU as stuck-held.
    StallRsSlot,
    /// Overcommit the target CPU's L1D MSHR file past its capacity.
    OvercommitMshr,
    /// Rewind the target CPU's committed-instruction counter to zero.
    RewindCommit,
    /// Drop one scheduled completion event on the target CPU: the entry it
    /// belongs to is never told its execution finished.
    LoseEvent,
}

impl FaultClass {
    /// Every fault class, for exhaustive matrix tests.
    pub const ALL: [FaultClass; 7] = [
        FaultClass::DropFill,
        FaultClass::CorruptTag,
        FaultClass::LoseBusGrant,
        FaultClass::StallRsSlot,
        FaultClass::OvercommitMshr,
        FaultClass::RewindCommit,
        FaultClass::LoseEvent,
    ];

    /// Stable kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::DropFill => "drop-fill",
            FaultClass::CorruptTag => "corrupt-tag",
            FaultClass::LoseBusGrant => "lose-bus-grant",
            FaultClass::StallRsSlot => "stall-rs-slot",
            FaultClass::OvercommitMshr => "overcommit-mshr",
            FaultClass::RewindCommit => "rewind-commit",
            FaultClass::LoseEvent => "lose-event",
        }
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// When and where to inject one fault.
///
/// The plan stays *armed* until it successfully applies; classes that need
/// pre-existing state (e.g. [`FaultClass::CorruptTag`] needs a remotely
/// held line) retry every cycle from their trigger cycle until the state
/// exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// What to corrupt.
    pub class: FaultClass,
    /// The target CPU (ignored by system-wide classes).
    pub core: usize,
    /// First cycle at which to apply the fault.
    pub cycle: u64,
    armed: bool,
}

impl FaultPlan {
    /// A fault of `class` on `core`, applied from `cycle` onward.
    pub fn at(class: FaultClass, core: usize, cycle: u64) -> Self {
        FaultPlan {
            class,
            core,
            cycle,
            armed: true,
        }
    }

    /// Derives the injection cycle deterministically from `seed`, the
    /// fault identity and the simulation point's `fingerprint`, landing in
    /// `[window_start, window_start + window_len)`. The same inputs always
    /// produce the same plan, on any platform.
    ///
    /// # Panics
    ///
    /// Panics if `window_len` is zero.
    pub fn seeded(
        class: FaultClass,
        core: usize,
        seed: u64,
        fingerprint: Fingerprint,
        window_start: u64,
        window_len: u64,
    ) -> Self {
        assert!(window_len > 0, "fault window must be non-empty");
        let mut h = StableHasher::new();
        h.write_str("faultinject");
        h.write_str(class.name());
        h.write_u64(core as u64);
        h.write_u64(seed);
        h.write_str(&fingerprint.to_hex());
        let digest = h.finish().to_hex();
        let bits = u64::from_str_radix(&digest[..16], 16).expect("hex digest");
        FaultPlan::at(class, core, window_start + bits % window_len)
    }

    /// Whether the fault has not yet been applied.
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Applies the fault if `now` has reached the trigger cycle and the
    /// needed model state exists; otherwise stays armed for the next cycle.
    pub fn apply(&mut self, now: u64, cores: &mut [Core], mem: &mut MemorySystem) {
        if !self.armed || now < self.cycle {
            return;
        }
        let core = self.core.min(cores.len() - 1);
        match self.class {
            FaultClass::DropFill => {
                mem.fault_drop_next_fill(core);
                self.armed = false;
            }
            FaultClass::CorruptTag => {
                // Needs a line some *other* CPU validly holds; retry until
                // coherence traffic creates one.
                if mem.fault_corrupt_tag(core).is_some() {
                    self.armed = false;
                }
            }
            FaultClass::LoseBusGrant => {
                mem.fault_lose_bus_grant();
                self.armed = false;
            }
            FaultClass::StallRsSlot => {
                cores[core].fault_stall_rs_slots(RsKind::Rsa, STUCK_SLOTS);
                self.armed = false;
            }
            FaultClass::OvercommitMshr => {
                // Inject one phantom entry past the file's capacity so the
                // violation is immediate regardless of real occupancy.
                let cap = mem.mshr_levels(core)[1].capacity as usize;
                for _ in 0..=cap {
                    mem.fault_overcommit_mshr(core);
                }
                self.armed = false;
            }
            FaultClass::RewindCommit => {
                // A rewind of an all-zero counter is a no-op; retry until
                // something has committed so the corruption is observable.
                if cores[core].stats().committed.get() > 0 {
                    cores[core].fault_rewind_committed();
                    self.armed = false;
                }
            }
            FaultClass::LoseEvent => {
                // Needs something executing; retry until there is.
                if cores[core].fault_lose_event() {
                    self.armed = false;
                }
            }
        }
    }
}

/// A class of *harness-level* corruption the chaos layer can inject:
/// where [`FaultClass`] flips model state to prove the invariant auditor
/// catches it, these flip the machinery *around* the model — storage,
/// journaling, scheduling — to prove the supervised campaign runtime
/// recovers from each. The harness's soak gate asserts that a campaign
/// run under a chaos schedule still produces byte-identical results:
///
/// | harness fault class                     | recovering mechanism          |
/// |-----------------------------------------|-------------------------------|
/// | [`HarnessFaultClass::TornWrite`]        | checksum footer ⇒ miss + warn |
/// | [`HarnessFaultClass::TruncatedJournal`] | per-line checksum ⇒ skip      |
/// | [`HarnessFaultClass::PointHang`]        | wall-clock watchdog + retry   |
/// | [`HarnessFaultClass::WorkerPanic`]      | catch_unwind + retry          |
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HarnessFaultClass {
    /// A cache entry is written torn: a truncated body lands at the final
    /// path, as if a non-atomic writer crashed mid-write.
    TornWrite,
    /// A journal line is appended half-written and unterminated, as if
    /// the process died mid-append (the classic truncated tail).
    TruncatedJournal,
    /// A point's first attempt hangs instead of simulating, and only the
    /// wall-clock watchdog's cancellation can reclaim the worker.
    PointHang,
    /// A point's first attempt panics inside the worker.
    WorkerPanic,
}

impl HarnessFaultClass {
    /// Every harness fault class, for exhaustive soak schedules.
    pub const ALL: [HarnessFaultClass; 4] = [
        HarnessFaultClass::TornWrite,
        HarnessFaultClass::TruncatedJournal,
        HarnessFaultClass::PointHang,
        HarnessFaultClass::WorkerPanic,
    ];

    /// Stable kebab-case name (journal lines, soak reports).
    pub fn name(self) -> &'static str {
        match self {
            HarnessFaultClass::TornWrite => "torn-write",
            HarnessFaultClass::TruncatedJournal => "truncated-journal",
            HarnessFaultClass::PointHang => "point-hang",
            HarnessFaultClass::WorkerPanic => "worker-panic",
        }
    }
}

impl std::fmt::Display for HarnessFaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A seeded chaos schedule over the harness fault classes.
///
/// The plan is a pure decision function: whether a given *opportunity*
/// (one cache write, one journal append, one point attempt — identified
/// by a stable key such as the point fingerprint) suffers a fault depends
/// only on the seed, the class and the key, never on thread scheduling or
/// wall-clock time. The same seeded plan over the same campaign therefore
/// injects the same faults in every run — which is what lets the soak
/// harness diff a chaos run against an undisturbed one byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Schedule seed.
    pub seed: u64,
    /// Probability each opportunity fires, in parts per thousand
    /// (`0` disables the class of decisions entirely, `1000` fires all).
    pub rate_per_mille: u16,
}

impl ChaosPlan {
    /// A plan firing each opportunity with probability
    /// `rate_per_mille / 1000`.
    pub fn new(seed: u64, rate_per_mille: u16) -> Self {
        ChaosPlan {
            seed,
            rate_per_mille,
        }
    }

    /// Whether the opportunity identified by (`class`, `key`) suffers a
    /// fault under this plan. Deterministic in all three inputs.
    pub fn should_fire(&self, class: HarnessFaultClass, key: &str) -> bool {
        if self.rate_per_mille == 0 {
            return false;
        }
        let mut h = StableHasher::new();
        h.write_str("chaos");
        h.write_str(class.name());
        h.write_u64(self.seed);
        h.write_str(key);
        let digest = h.finish().to_hex();
        let bits = u64::from_str_radix(&digest[..16], 16).expect("hex digest");
        (bits % 1000) < u64::from(self.rate_per_mille)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::config_fingerprint;
    use crate::system::SystemConfig;

    #[test]
    fn seeded_plans_are_deterministic() {
        let fp = config_fingerprint(&SystemConfig::sparc64_v());
        let a = FaultPlan::seeded(FaultClass::DropFill, 0, 42, fp, 1_000, 5_000);
        let b = FaultPlan::seeded(FaultClass::DropFill, 0, 42, fp, 1_000, 5_000);
        assert_eq!(a, b);
        assert!(a.cycle >= 1_000 && a.cycle < 6_000, "cycle {}", a.cycle);
    }

    #[test]
    fn seed_class_and_core_all_shift_the_cycle() {
        let fp = config_fingerprint(&SystemConfig::sparc64_v());
        let base = FaultPlan::seeded(FaultClass::DropFill, 0, 42, fp, 0, 1 << 40);
        let other_seed = FaultPlan::seeded(FaultClass::DropFill, 0, 43, fp, 0, 1 << 40);
        let other_class = FaultPlan::seeded(FaultClass::RewindCommit, 0, 42, fp, 0, 1 << 40);
        let other_core = FaultPlan::seeded(FaultClass::DropFill, 1, 42, fp, 0, 1 << 40);
        assert_ne!(base.cycle, other_seed.cycle);
        assert_ne!(base.cycle, other_class.cycle);
        assert_ne!(base.cycle, other_core.cycle);
    }

    #[test]
    fn chaos_decisions_are_deterministic_and_rate_bounded() {
        let plan = ChaosPlan::new(7, 300);
        for class in HarnessFaultClass::ALL {
            for i in 0..64u32 {
                let key = format!("point-{i}");
                assert_eq!(
                    plan.should_fire(class, &key),
                    plan.should_fire(class, &key),
                    "decision must be a pure function of (seed, class, key)"
                );
            }
        }
        // Rate 0 never fires, rate 1000 always fires.
        let never = ChaosPlan::new(7, 0);
        let always = ChaosPlan::new(7, 1000);
        for i in 0..32u32 {
            let key = format!("k{i}");
            assert!(!never.should_fire(HarnessFaultClass::TornWrite, &key));
            assert!(always.should_fire(HarnessFaultClass::TornWrite, &key));
        }
        // A mid rate fires some but not all opportunities over a big set.
        let fired = (0..1000u32)
            .filter(|i| plan.should_fire(HarnessFaultClass::WorkerPanic, &format!("k{i}")))
            .count();
        assert!(
            (150..450).contains(&fired),
            "300 per-mille over 1000 keys fired {fired} times"
        );
        // Seed, class and key all shift the decision pattern somewhere.
        let other_seed = ChaosPlan::new(8, 300);
        assert!(
            (0..1000u32).any(|i| {
                let key = format!("k{i}");
                plan.should_fire(HarnessFaultClass::WorkerPanic, &key)
                    != other_seed.should_fire(HarnessFaultClass::WorkerPanic, &key)
            }),
            "different seeds must produce different schedules"
        );
    }

    #[test]
    fn plan_does_not_fire_before_its_cycle() {
        let mut plan = FaultPlan::at(FaultClass::LoseBusGrant, 0, 100);
        let cfg = SystemConfig::sparc64_v();
        let mut cores = vec![s64v_cpu::Core::new(cfg.core.clone(), 0)];
        let mut mem = s64v_mem::MemorySystem::new(s64v_mem::MemConfig::sparc64_v(), 1);
        plan.apply(99, &mut cores, &mut mem);
        assert!(plan.armed());
        plan.apply(100, &mut cores, &mut mem);
        assert!(!plan.armed());
        assert_eq!(mem.bus().transactions(), 1, "lost grant was counted");
    }
}
