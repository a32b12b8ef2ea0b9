//! What the harness tells a person, and the one place that tells it.
//!
//! The engine pushes one [`ProgressEvent`] per point transition into an
//! optional `std::sync::mpsc` channel and computes the aggregate
//! [`CampaignReport`] itself, so a caller that ignores the channel loses
//! nothing but the live feed. Library code prints nothing: what it finds
//! on the way — a corrupt cache entry, a failure record from an older
//! build — it returns as data.
//!
//! A [`Printer`] is the only writer to stderr in the crate (the
//! `campaign` binary makes one per process). It writes two levels:
//! *progress* — a line per finished point, a heartbeat while a campaign
//! has points left, the exploration's narration — which `--quiet` drops
//! (and with it the listening thread), and the *report* — summaries,
//! slowest points, failures, warnings and errors — which always prints.

use crate::figures::RunSummary;
use crate::registry::{lock, RegistryCounters};
use s64v_explore::ExploreEvent;
use std::fmt::{Arguments, Display};
use std::io::{Stderr, Write};
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One point's lifecycle, as seen from outside the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgressEvent {
    /// A worker picked the point up.
    Started {
        /// Index into the campaign's point list.
        index: usize,
        /// The point's label.
        label: String,
        /// Points in the campaign: what a printer's heartbeat counts
        /// against.
        total: usize,
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
    /// Cache entries found corrupt, each with why, in path order: their
    /// points were looked up as misses and simulated again.
    pub corrupt_entries: Vec<(PathBuf, String)>,
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
        match self.corrupt_entries.len() {
            0 => {}
            1 => s.push_str(", 1 corrupt cache entry re-simulated"),
            n => s.push_str(&format!(", {n} corrupt cache entries re-simulated")),
        }
        s
    }
}

/// How often a printer on stderr pulses while a campaign has points left.
const HEARTBEAT: Duration = Duration::from_secs(10);

/// The harness's one voice: report lines, written with `writeln!`, and
/// progress lines unless quiet, each whole, to `W`.
#[derive(Debug)]
pub struct Printer<W = Stderr> {
    out: Mutex<W>,
    quiet: bool,
    heartbeat: Duration,
}

impl Printer {
    /// A printer on stderr, pulsing every 10 s: the one place the crate
    /// opens stderr.
    #[allow(clippy::disallowed_methods)]
    pub fn stderr(quiet: bool) -> Self {
        Printer::new(std::io::stderr(), quiet, HEARTBEAT)
    }
}

impl<W: Write + Send> Printer<W> {
    /// A printer on `out`: `quiet` drops the progress level, and a
    /// campaign with points left pulses every `heartbeat`.
    pub fn new(out: W, quiet: bool, heartbeat: Duration) -> Self {
        Printer {
            out: Mutex::new(out),
            quiet,
            heartbeat,
        }
    }

    /// Writes report text: what `writeln!(printer, …)` calls. Text the
    /// writer refuses is lost, not an error: there is nowhere left to say
    /// so.
    pub fn write_fmt(&self, text: Arguments) {
        let _ = lock(&self.out).write_fmt(text);
    }

    /// Writes one progress line, unless quiet.
    pub fn progress(&self, line: Arguments) {
        if !self.quiet {
            writeln!(self, "{line}");
        }
    }

    /// Reports why the process cannot go on and ends it with exit code 2
    /// (a usage, spec or I/O error).
    pub fn fatal(&self, line: impl Display) -> ! {
        writeln!(self, "{line}");
        std::process::exit(2);
    }

    /// Runs `work` with this printer listening to the campaigns it runs,
    /// and every line printed before returning. When quiet, `work` gets
    /// no sender and no listener runs: the engine then builds no event.
    pub fn run<T>(&self, work: impl FnOnce(Option<Sender<ProgressEvent>>) -> T) -> T {
        if self.quiet {
            return work(None);
        }
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(move || self.listen(rx));
            work(Some(tx))
        })
    }

    /// Prints a numbered line per finished point until every sender is
    /// gone, and a heartbeat each period while a campaign has points
    /// left. Campaigns through one printer run one after another (an
    /// exploration's rounds): one ends when its last point does, and the
    /// numbering runs on across them.
    fn listen(&self, rx: Receiver<ProgressEvent>) {
        let (mut printed, mut done, mut in_flight, mut total) = (0usize, 0usize, 0usize, 0usize);
        let mut started = Instant::now();
        // When the next heartbeat is due, while a campaign has points left.
        let mut beat_at: Option<Instant> = None;
        loop {
            let event = match beat_at {
                Some(at) => rx.recv_timeout(at.saturating_duration_since(Instant::now())),
                None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            let point = match event {
                Err(RecvTimeoutError::Disconnected) => return,
                Err(RecvTimeoutError::Timeout) => {
                    let elapsed = started.elapsed();
                    let eta =
                        (done > 0).then(|| elapsed.mul_f64((total - done) as f64 / done as f64));
                    let eta = eta.map_or("?".to_string(), |t| format!("{:.0}s", t.as_secs_f64()));
                    self.progress(format_args!(
                        "[heartbeat] {done}/{total} done, {in_flight} in flight, \
                         {:.0}s elapsed, ETA {eta}",
                        elapsed.as_secs_f64()
                    ));
                    beat_at = Some(Instant::now() + self.heartbeat);
                    continue;
                }
                Ok(ProgressEvent::Started { total: points, .. }) => {
                    if beat_at.is_none() {
                        (done, total, started) = (0, points, Instant::now());
                        beat_at = Some(started + self.heartbeat);
                    }
                    in_flight += 1;
                    continue;
                }
                Ok(ProgressEvent::Retrying { .. }) => continue,
                Ok(ProgressEvent::Finished {
                    label,
                    cache_hit: true,
                    ..
                }) => format!("cached   {label}"),
                Ok(ProgressEvent::Finished { label, elapsed, .. }) => {
                    format!("{:>6.1}s  {label}", elapsed.as_secs_f64())
                }
                Ok(ProgressEvent::Failed { label, error, .. }) => {
                    format!("FAILED   {label}: {error}")
                }
            };
            (printed, done, in_flight) = (printed + 1, done + 1, in_flight.saturating_sub(1));
            if done >= total {
                beat_at = None;
            }
            self.progress(format_args!("[{printed:>4}] {point}"));
        }
    }

    /// Narrates one search-level event of an exploration.
    pub fn explore_event(&self, event: &ExploreEvent) {
        let line = match event {
            ExploreEvent::GridExpanded {
                total,
                invalid,
                pruned,
                feasible,
            } => format!(
                "grid {total}: {invalid} invalid, {pruned} statically pruned, {feasible} feasible"
            ),
            ExploreEvent::RoundStarted {
                round,
                records,
                candidates,
            } => format!("round {round}: {candidates} candidates x {records} records"),
            ExploreEvent::RoundFinished(s) => {
                let best = match (s.best_id, s.best_objective) {
                    (Some(id), Some(obj)) => format!("best #{id} ({obj:.4})"),
                    _ => "no survivors".to_string(),
                };
                format!(
                    "round {} done: promoted {}, eliminated {} on rank + {} dominated, \
                     {} failed, {best}",
                    s.round, s.promoted, s.eliminated_rank, s.eliminated_dominated, s.failed
                )
            }
            ExploreEvent::FrontierExtracted { size } => {
                format!("frontier-update: {size} non-dominated configurations")
            }
        };
        self.progress(format_args!("[explore] {line}"));
    }

    /// Warns of each corrupt cache entry a campaign simulated past.
    pub fn corrupt_entries(&self, report: &CampaignReport) {
        for (path, why) in &report.corrupt_entries {
            let path = path.display();
            writeln!(
                self,
                "warning: corrupted cache entry {path} ({why}; treating as a miss)"
            );
        }
    }

    /// The end of a figures run: its warnings, summary and slowest
    /// points, each failed point and unrendered figure, and a failure
    /// line when there is any of those. Returns whether there was.
    pub fn figures_report(&self, run: &RunSummary) -> bool {
        let report = &run.report;
        self.corrupt_entries(report);
        writeln!(self, "campaign: {}", report.summary());
        if !report.slowest.is_empty() {
            let wall = report.sim_wall.as_secs_f64();
            writeln!(
                self,
                "simulation wall time {wall:.1}s across workers; slowest points:"
            );
            for (label, elapsed) in &report.slowest {
                writeln!(self, "  {:>6.1}s  {label}", elapsed.as_secs_f64());
            }
        }
        for (label, error) in &run.point_failures {
            writeln!(self, "failed point: {label}: {error}");
        }
        for (name, reason) in &run.render_failures {
            writeln!(self, "figure {name} did not render: {reason}");
        }
        let (failed, unrendered) = (run.point_failures.len(), run.render_failures.len());
        let any = failed + unrendered > 0;
        if any {
            writeln!(
                self,
                "campaign FAILED: {failed} point(s) failed, {unrendered} figure(s) did not render"
            );
        }
        any
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

    impl Printer<Vec<u8>> {
        fn text(&self) -> String {
            String::from_utf8(lock(&self.out).clone()).expect("UTF-8")
        }
    }

    #[test]
    fn heartbeat_pulses_while_points_run() {
        let printer = Printer::new(Vec::new(), false, Duration::from_millis(1));
        // Waits for a pulse of these counts: a 1 ms period pulses soon.
        let pulse = |counts: &str| {
            let start = Instant::now();
            while !printer.text().contains(counts) {
                assert!(start.elapsed() < Duration::from_secs(10), "{counts}");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let label = || String::from("p");
        printer.run(|tx| {
            let send = |event| tx.as_ref().expect("listening").send(event).unwrap();
            for index in 0..2 {
                send(ProgressEvent::Started {
                    index,
                    label: label(),
                    total: 2,
                });
            }
            pulse("[heartbeat] 0/2 done, 2 in flight, ");
            send(ProgressEvent::Finished {
                index: 0,
                label: label(),
                cache_hit: true,
                records: 0,
                elapsed: Duration::ZERO,
            });
            pulse("[heartbeat] 1/2 done, 1 in flight, ");
            send(ProgressEvent::Failed {
                index: 1,
                label: label(),
                error: "wedged".into(),
            });
        });
        // No estimate before the first finish, one after it, and no
        // pulse once the campaign's last point is done.
        let text = printer.text();
        let (before, after) = text.split_once("[   1] cached   p\n").expect("p0");
        let (between, last) = after.split_once("[   2] FAILED   p: wedged\n").expect("p1");
        let pulses = |lines: &str, counts: &str, eta: bool| {
            let beat = |l: &str| l.starts_with(counts) && l.ends_with("ETA ?") != eta;
            lines.lines().all(beat)
        };
        let (zero, one) = (
            "[heartbeat] 0/2 done, 2 in flight, ",
            "[heartbeat] 1/2 done, 1 in flight, ",
        );
        assert!(
            pulses(before, zero, false) && pulses(between, one, true),
            "{text}"
        );
        assert_eq!(last, "");
    }
}
