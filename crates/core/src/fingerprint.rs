//! Stable fingerprints for simulation inputs.
//!
//! The campaign engine (`s64v-harness`) caches simulation results on disk
//! keyed by *what was simulated*: the full [`SystemConfig`], the workload,
//! the seed, the trace lengths, and the model version. That key must be
//! stable across processes and platforms — `std::hash` explicitly is not —
//! so this module provides [`StableHasher`], a fixed FNV-1a-style 128-bit
//! hash, and [`Fingerprint`], its hex-encoded digest.
//!
//! Configuration structs are hashed through their `Debug` encoding
//! ([`StableHasher::write_debug`]). Debug derives print every field, so
//! adding, removing or changing any configuration field automatically
//! changes the fingerprint and invalidates stale cache entries without
//! anyone having to remember to update a hash function.
//!
//! [`MODEL_FINGERPRINT_VERSION`] guards everything `Debug` cannot see:
//! bump it whenever the *timing behaviour* of the model changes (new
//! mechanism, recalibration, RNG change) so cached results from older
//! binaries are never mistaken for current ones.

use crate::system::SystemConfig;
use s64v_cpu::BhtConfig;
use std::fmt;

/// Version tag for the model's behaviour, mixed into every fingerprint.
///
/// Bump on any intentional timing change that `SystemConfig`'s fields do
/// not capture (the same occasions that call for `sh scripts/rebaseline.sh`).
pub const MODEL_FINGERPRINT_VERSION: u32 = 1;

/// A 128-bit stable hash digest, rendered as 32 lowercase hex digits.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    hi: u64,
    lo: u64,
}

impl Fingerprint {
    /// The 32-hex-digit encoding (the cache's file-name key).
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parses the [`to_hex`](Self::to_hex) encoding back.
    pub fn parse_hex(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Fingerprint { hi, lo })
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({self})")
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A platform-independent hasher with two independent 64-bit FNV-1a
/// lanes (seeded differently) giving a 128-bit digest.
///
/// Not cryptographic — collision resistance here only needs to beat the
/// few thousand distinct simulation points a campaign ever generates.
#[derive(Debug, Clone)]
pub struct StableHasher {
    hi: u64,
    lo: u64,
}

impl StableHasher {
    /// A fresh hasher (already seeded with [`MODEL_FINGERPRINT_VERSION`]).
    pub fn new() -> Self {
        let mut h = StableHasher {
            hi: FNV_OFFSET ^ 0x5bd1_e995_9e37_79b9,
            lo: FNV_OFFSET,
        };
        h.write_u64(MODEL_FINGERPRINT_VERSION as u64);
        h
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.lo = (self.lo ^ b as u64).wrapping_mul(FNV_PRIME);
            // The second lane sees the byte mixed with the first lane's
            // running state, so the lanes stay decorrelated.
            self.hi = (self.hi ^ (b as u64 ^ self.lo.rotate_left(29))).wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs an integer (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a string, length-prefixed so `("ab","c")` and `("a","bc")`
    /// hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Absorbs a value through its `Debug` encoding. Derived `Debug`
    /// prints every field, so any field change alters the digest.
    pub fn write_debug<T: fmt::Debug>(&mut self, value: &T) {
        self.write_str(&format!("{value:?}"));
    }

    /// The accumulated digest.
    pub fn finish(self) -> Fingerprint {
        Fingerprint {
            hi: self.hi,
            lo: self.lo,
        }
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// The canonical digest of a full system configuration.
pub fn config_fingerprint(config: &SystemConfig) -> Fingerprint {
    let mut h = StableHasher::new();
    h.write_debug(config);
    h.finish()
}

/// The key of the memory half of a warm state: the digest of what memory
/// warming reads, the memory configuration and the CPU count. Two
/// configurations with equal keys reach field-for-field the same warmed
/// memory system over the same records, whatever else — the branch
/// predictor, window, RS, queues, widths, core latencies — differs
/// between them. The set is complete by construction: a
/// [`WarmCursor`](crate::WarmCursor)'s memory system is built from
/// exactly these two values, and
/// [`warm_record`](s64v_cpu::warm_record) never lets a table read it.
pub fn memory_warm_key(config: &SystemConfig) -> Fingerprint {
    let mut h = StableHasher::new();
    h.write_debug(&config.mem);
    h.write_u64(config.cpus as u64);
    h.finish()
}

/// The key of the predictor half of a warm state: the branch history
/// table warming trains, `None` under perfect prediction (which never
/// consults a table, so a timed core starts from a cold one). A table is
/// built from its configuration alone and reads nothing but the records'
/// branch outcomes.
pub fn predictor_warm_key(config: &SystemConfig) -> Option<BhtConfig> {
    (!config.core.perfect_branch_prediction).then_some(config.core.bht)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_warm_digest_follows_what_warming_reads_and_nothing_else() {
        let base = SystemConfig::sparc64_v();
        let (memory, predictor) = (memory_warm_key(&base), predictor_warm_key(&base));
        assert_eq!(predictor, Some(BhtConfig::large_16k_4w_2t()));

        let mut core_only = base.clone();
        core_only.core.window_size = 32;
        core_only.core.rse_entries = 4;
        core_only.core = core_only.core.with_issue_width(2);
        core_only.core.speculative_dispatch = false;
        assert_eq!(memory, memory_warm_key(&core_only));
        assert_eq!(predictor, predictor_warm_key(&core_only));
        assert_ne!(config_fingerprint(&base), config_fingerprint(&core_only));

        // The predictor never reaches the memory key, nor memory the
        // predictor's.
        let mut bht = base.clone();
        bht.core.bht = BhtConfig::small_4k_2w_1t();
        assert_eq!(memory, memory_warm_key(&bht));
        assert_eq!(predictor_warm_key(&bht), Some(bht.core.bht));
        let mut perfect = base.clone();
        perfect.core.perfect_branch_prediction = true;
        assert_eq!(memory, memory_warm_key(&perfect));
        assert_eq!(predictor_warm_key(&perfect), None);
        let mut mem = base.clone();
        mem.mem.l2.latency += 1;
        assert_ne!(memory, memory_warm_key(&mem));
        assert_eq!(predictor, predictor_warm_key(&mem));
        assert_ne!(memory, memory_warm_key(&SystemConfig::smp(2)));
    }

    #[test]
    fn digests_are_stable_across_calls() {
        let a = config_fingerprint(&SystemConfig::sparc64_v());
        let b = config_fingerprint(&SystemConfig::sparc64_v());
        assert_eq!(a, b);
        assert_eq!(a.to_hex().len(), 32);
    }

    #[test]
    fn any_config_change_alters_the_digest() {
        let base = SystemConfig::sparc64_v();
        let a = config_fingerprint(&base);
        assert_ne!(a, config_fingerprint(&SystemConfig::smp(2)));

        let mut deeper = base.clone();
        deeper.core.window_size += 1;
        assert_ne!(a, config_fingerprint(&deeper));

        let mut mem = base.clone();
        mem.mem.l2.latency += 1;
        assert_ne!(a, config_fingerprint(&mem));
    }

    #[test]
    fn hex_round_trips() {
        let f = config_fingerprint(&SystemConfig::sparc64_v());
        assert_eq!(Fingerprint::parse_hex(&f.to_hex()), Some(f));
        assert_eq!(Fingerprint::parse_hex("zz"), None);
        assert_eq!(Fingerprint::parse_hex(&"0".repeat(31)), None);
    }

    #[test]
    fn string_hashing_is_length_prefixed() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
