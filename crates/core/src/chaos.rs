//! Seeded chaos schedules for soak campaigns.
//!
//! The invariant auditor ([`crate::integrity::Auditor`]) guards the
//! model's own state; this module perturbs the machinery *around* the
//! model — storage, journaling, scheduling — so the supervised campaign
//! runtime can be shown to recover from each disturbance. Every decision
//! is a pure function of the seed, the fault class and a stable key,
//! hashed with the same [`StableHasher`] the results cache uses.

use crate::fingerprint::StableHasher;

/// A class of harness-level corruption the chaos layer can inject. The
/// harness's soak gate asserts that a campaign run under a chaos
/// schedule still produces byte-identical results:
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
}
