//! Campaign progress events and the end-of-run report.
//!
//! The engine pushes one [`ProgressEvent`] per point transition into an
//! optional `std::sync::mpsc` channel; callers that want live output
//! drain it from their own thread (see the `campaign` binary). The
//! aggregate [`CampaignReport`] is computed by the engine itself, so a
//! caller that ignores the channel loses nothing but the live feed.

use crate::registry::RegistryCounters;
use std::time::Duration;

/// One point's lifecycle, as seen from outside the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgressEvent {
    /// A worker picked the point up.
    Started {
        /// Index into the campaign's point list.
        index: usize,
        /// The point's label.
        label: String,
    },
    /// The point finished (simulated or served from cache).
    Finished {
        /// Index into the campaign's point list.
        index: usize,
        /// The point's label.
        label: String,
        /// Whether the result came from the on-disk cache.
        cache_hit: bool,
        /// Trace records covered (timed + warm-up, all CPUs).
        records: u64,
        /// Wall time spent on this point.
        elapsed: Duration,
    },
    /// The point failed — a simulation error, a caught panic or a
    /// watchdog cancellation; the campaign continues without it.
    Failed {
        /// Index into the campaign's point list.
        index: usize,
        /// The point's label.
        label: String,
        /// The simulation error, panic message or watchdog error.
        error: String,
    },
    /// Never sent: a point is attempted once. Kept, inert, because the
    /// benchmark crate still names it; it goes with ROADMAP item 3.
    Retrying {
        /// Index into the campaign's point list.
        index: usize,
        /// The point's label.
        label: String,
        /// The attempt that failed (0-based).
        attempt: u32,
        /// Its error.
        error: String,
    },
    /// Periodic liveness pulse while points are running (period set by
    /// `CampaignSpec::heartbeat`).
    Heartbeat {
        /// Points finished or failed so far.
        done: usize,
        /// Total points in the campaign.
        total: usize,
        /// Points currently being simulated.
        in_flight: usize,
        /// Wall time since the campaign started.
        elapsed: Duration,
        /// Naive remaining-time estimate (`None` until a point finishes).
        eta: Option<Duration>,
    },
}

/// Aggregate outcome of a campaign run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignReport {
    /// Points that produced metrics (including cache hits).
    pub completed: usize,
    /// Points that failed: a simulation error, a caught panic or a
    /// watchdog cancellation.
    pub failed: usize,
    /// Completed points served from the cache.
    pub cache_hits: usize,
    /// Always 0: a point is attempted once. Kept, inert, because the
    /// benchmark crate still reads it; it goes with ROADMAP item 3.
    pub retries: usize,
    /// Points cancelled by the watchdog (deadline or cycle budget), a
    /// subset of `failed`.
    pub timed_out: usize,
    /// Trace records the simulated points' statistics rest on (cache
    /// hits excluded): each point's warm-up plus timed records, whether
    /// or not a shared warm state spared it the replay.
    pub simulated_records: u64,
    /// What the campaign's shared-input [registry](crate::registry)
    /// was asked for and actually did.
    pub registry: RegistryCounters,
    /// Wall time for the whole campaign.
    pub elapsed: Duration,
    /// Summed per-point simulation wall time across all workers (the
    /// engine's self-profile; exceeds `elapsed` when workers overlap).
    pub sim_wall: Duration,
    /// The slowest simulated points, worst first: `(label, wall time)`.
    pub slowest: Vec<(String, Duration)>,
}

impl CampaignReport {
    /// Simulated trace records per wall-clock second (the engine-level
    /// analogue of the paper's instructions-per-second model speed).
    pub fn records_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.simulated_records as f64 / secs
        }
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} completed ({} from cache), {} failed, {:.2}M records simulated in {:.1}s ({:.0}K rec/s)",
            self.completed,
            self.cache_hits,
            self.failed,
            self.simulated_records as f64 / 1e6,
            self.elapsed.as_secs_f64(),
            self.records_per_second() / 1e3,
        );
        let shared = &self.registry;
        if shared.traces_requested > 0 {
            s.push_str(&format!(
                "; {} of {} requested traces generated ({:.2}M records, {:.2}M kept)",
                shared.traces_generated,
                shared.traces_requested,
                shared.records_generated as f64 / 1e6,
                shared.records_materialized as f64 / 1e6,
            ));
        }
        if shared.machines_requested > 0 {
            s.push_str(&format!(
                ", {:.2}M of {:.2}M requested warm-up records replayed through memory \
                 ({} of {} warming passes saved, {} machines copied)",
                shared.records_warmed as f64 / 1e6,
                shared.records_warm_requested as f64 / 1e6,
                shared.machines_requested - shared.warm_passes,
                shared.machines_requested,
                shared.machines_copied,
            ));
        }
        if shared.tables_trained > 0 {
            s.push_str(&format!(
                ", {:.2}M records trained into {} branch tables",
                shared.records_trained as f64 / 1e6,
                shared.tables_trained,
            ));
        }
        if self.timed_out > 0 {
            s.push_str(&format!(", {} timed out", self.timed_out));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_summary_and_rate() {
        let r = CampaignReport {
            completed: 10,
            failed: 1,
            cache_hits: 4,
            simulated_records: 3_000_000,
            elapsed: Duration::from_secs(2),
            ..Default::default()
        };
        assert_eq!(r.records_per_second(), 1_500_000.0);
        let s = r.summary();
        assert!(s.contains("10 completed"));
        assert!(s.contains("4 from cache"));
        assert!(s.contains("1 failed"));
        assert!(
            !s.contains("timed out"),
            "a healthy campaign's summary stays unchanged"
        );
    }

    #[test]
    fn summary_reports_what_the_registry_shared() {
        let r = CampaignReport {
            completed: 64,
            registry: RegistryCounters {
                traces_requested: 64,
                traces_generated: 8,
                records_generated: 11_760_000,
                records_materialized: 512_000,
                records_warm_requested: 47_360_000,
                records_warmed: 11_520_000,
                machines_requested: 64,
                warm_passes: 8,
                machines_copied: 56,
                tables_trained: 16,
                records_trained: 23_040_000,
            },
            ..Default::default()
        };
        let s = r.summary();
        assert!(s.contains("8 of 64 requested traces generated (11.76M records, 0.51M kept)"));
        assert!(s.contains(
            "11.52M of 47.36M requested warm-up records replayed through memory \
             (56 of 64 warming passes saved, 56 machines copied), \
             23.04M records trained into 16 branch tables"
        ));
        let all_hits = CampaignReport {
            completed: 3,
            cache_hits: 3,
            ..Default::default()
        };
        assert!(!all_hits.summary().contains("traces"));
    }

    #[test]
    fn summary_reports_supervision_counts_when_present() {
        let r = CampaignReport {
            completed: 5,
            failed: 1,
            timed_out: 1,
            ..Default::default()
        };
        let s = r.summary();
        assert!(s.contains("1 failed"));
        assert!(s.ends_with(", 1 timed out"), "{s}");
        assert!(!s.contains("retried"), "{s}");
    }

    #[test]
    fn zero_elapsed_is_safe() {
        assert_eq!(CampaignReport::default().records_per_second(), 0.0);
    }
}
