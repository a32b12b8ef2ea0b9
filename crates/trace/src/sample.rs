//! Trace sampling.
//!
//! The paper's TPC-C traces are *sampled* from a steady-state run (§2.2,
//! §4.1): tracing starts only after the workload reaches steady state, and
//! long captures are reduced to representative windows. Here the whole
//! trace is generated, so sampling is a plan over it: which windows to
//! time in detail, and how much of the trace before each to warm.

/// SplitMix64 — a tiny stand-alone mixer used only to derive a sampling
/// phase from a seed; deterministic across platforms.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A deterministic plan of detailed-simulation windows over a long trace
/// (SMARTS/SimPoint-style systematic sampling).
///
/// Every `period` records one `window`-record stretch is simulated in
/// full detail; the `warmup` records immediately preceding each window
/// are replayed *functionally* (caches, TLBs, branch predictors only) so
/// the detailed window starts from warmed micro-architectural state. The
/// `seed` picks the phase of the first window within its period, so
/// different seeds sample different (but equally spaced) windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplePlan {
    /// Records between the starts of consecutive detailed windows.
    pub period: u64,
    /// Detailed-simulation records per window.
    pub window: u64,
    /// Functionally-warmed records before each window.
    pub warmup: u64,
    /// Phase seed: deterministically offsets the first window.
    pub seed: u64,
}

impl SamplePlan {
    /// Creates a plan.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `window > period`.
    pub fn new(period: u64, window: u64, warmup: u64, seed: u64) -> Self {
        assert!(window > 0, "sample window must be positive");
        assert!(window <= period, "sample window must not exceed the period");
        SamplePlan {
            period,
            window,
            warmup,
            seed,
        }
    }

    /// The seed-derived phase of the first window: a fixed offset in
    /// `[0, period - window]` so every window fits inside its period.
    pub fn phase(&self) -> u64 {
        let slack = self.period - self.window;
        if slack == 0 {
            0
        } else {
            splitmix64(self.seed) % (slack + 1)
        }
    }

    /// The detailed windows over a trace of `trace_len` records, as
    /// ascending `(start, len)` pairs. The final window is truncated at
    /// the end of the trace; windows never overlap.
    pub fn windows(&self, trace_len: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut start = self.phase();
        while start < trace_len {
            out.push((start, self.window.min(trace_len - start)));
            start += self.period;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_windows_tile_deterministically() {
        let p = SamplePlan::new(100, 20, 50, 42);
        let w = p.windows(1_000);
        assert_eq!(w, p.windows(1_000), "plans are deterministic");
        assert!(w.len() >= 9, "expected ~10 windows, got {}", w.len());
        let phase = p.phase();
        assert!(phase <= 80, "phase must keep the window inside a period");
        for (i, &(start, len)) in w.iter().enumerate() {
            assert_eq!(start, phase + 100 * i as u64);
            assert!(len <= 20 && len > 0);
        }
    }

    #[test]
    fn plan_truncates_final_window_and_degenerates_to_identity() {
        let p = SamplePlan::new(10, 10, 0, 7);
        // window == period: zero slack, phase 0, windows tile the trace.
        assert_eq!(p.phase(), 0);
        assert_eq!(p.windows(25), vec![(0, 10), (10, 10), (20, 5)]);
        assert!(p.windows(0).is_empty());
    }

    #[test]
    fn plan_phase_varies_with_seed() {
        let phases: Vec<u64> = (0..16)
            .map(|s| SamplePlan::new(1_000, 100, 0, s).phase())
            .collect();
        let first = phases[0];
        assert!(
            phases.iter().any(|&p| p != first),
            "16 seeds all produced phase {first}"
        );
    }
}
