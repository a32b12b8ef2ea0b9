//! The campaign supervision layer: watchdogs, retry policy, crash-safe
//! storage primitives and the cache lock.
//!
//! A campaign lives or dies by the harness surviving individual
//! failures: one hung point, one torn cache write, or one panicking
//! worker must never wedge or corrupt a session.
//! This module supplies the shared mechanisms the rest of the harness
//! threads through its layers:
//!
//! * [`SupervisePolicy`] — per-point wall-clock deadline, simulated-cycle
//!   budget, bounded retries and deterministic backoff, set on the spec
//!   (`campaign --deadline` / `--cycle-budget` / `--retries`).
//! * [`Watchdog`] — a monitor thread that cancels overdue in-flight
//!   points cooperatively (the model polls a flag; see
//!   [`s64v_core::CycleBudget`]) so the worker returns with a structured
//!   timeout instead of being torn down mid-write.
//! * Sealed storage — [`seal`]/[`unseal`] wrap an artifact's payload with
//!   a length+checksum footer verified on read; [`atomic_write`] lands
//!   bytes via temp file + fsync + atomic rename, and [`replace`] via
//!   temp file + rename alone, made durable later, many files at a time,
//!   by [`sync_group`]. Corruption is always a warning and a miss, never
//!   a panic.
//! * [`CacheLock`] — a pid-stamped lock file per `results-cache/` so two
//!   concurrent campaigns cannot interleave writes to one directory.

use s64v_core::fingerprint::{Fingerprint, StableHasher};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------

/// The per-point supervision contract of one campaign.
///
/// The defaults keep historical behaviour for healthy campaigns (no
/// deadline, no cycle ceiling) while arming the retry ladder: transient
/// failures — a worker panic or a watchdog timeout — are retried up to
/// [`SupervisePolicy::retries`] times with deterministic backoff, then
/// quarantined; deterministic [`s64v_core::SimError`]s fail fast with no
/// retry (re-running a pure function reproduces the same fault).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisePolicy {
    /// Wall-clock deadline per point *attempt* (`None` = no watchdog).
    pub deadline: Option<Duration>,
    /// Simulated-cycle ceiling per point attempt (`None` = unlimited).
    pub cycle_budget: Option<u64>,
    /// Re-attempts allowed after a transient failure before the point is
    /// quarantined (0 = fail on the first transient fault).
    pub retries: u32,
    /// Base backoff unit between attempts; attempt `n` sleeps
    /// `n * backoff` plus a deterministic jitter in `[0, backoff)`.
    pub backoff: Duration,
}

impl Default for SupervisePolicy {
    fn default() -> Self {
        SupervisePolicy {
            deadline: None,
            cycle_budget: None,
            retries: 2,
            backoff: Duration::from_millis(20),
        }
    }
}

impl SupervisePolicy {
    /// The deterministic backoff before retry attempt `attempt` (1-based)
    /// of the point with fingerprint `fp`: linear in the attempt number
    /// plus a seeded jitter, so the backoff *schedule* of a campaign is a
    /// pure function of its points — reproducible run to run — while
    /// still decorrelating retries of different points.
    pub fn backoff_for(&self, fp: Fingerprint, attempt: u32) -> Duration {
        let base = self.backoff;
        if base.is_zero() {
            return Duration::ZERO;
        }
        let mut h = StableHasher::new();
        h.write_str("backoff");
        h.write_str(&fp.to_hex());
        h.write_u64(u64::from(attempt));
        let digest = h.finish().to_hex();
        let bits = u64::from_str_radix(&digest[..16], 16).expect("hex digest");
        let jitter_nanos = bits % base.as_nanos().max(1) as u64;
        base * attempt + Duration::from_nanos(jitter_nanos)
    }
}

// ---------------------------------------------------------------------
// Wall-clock watchdog
// ---------------------------------------------------------------------

#[derive(Debug)]
struct Flight {
    started: Instant,
    cancel: Arc<AtomicBool>,
}

/// A monitor thread that cancels overdue in-flight point attempts.
///
/// Workers [`register`](Watchdog::register) each attempt with its cancel
/// flag; the monitor ticks a few times per deadline and sets the flag on
/// any attempt older than the deadline. Cancellation is cooperative —
/// the simulation polls the flag from its cycle loop and returns a
/// structured watchdog [`s64v_core::SimError`] — so an overdue point is
/// *marked* timed out and the campaign carries on; nothing is ever torn
/// down mid-write.
#[derive(Debug)]
pub struct Watchdog {
    flights: Arc<Mutex<HashMap<u64, Flight>>>,
    next_token: AtomicUsize,
    stop: Arc<AtomicBool>,
    monitor: Option<std::thread::JoinHandle<()>>,
}

/// Deregisters its flight on drop.
pub struct WatchGuard<'a> {
    watchdog: &'a Watchdog,
    token: u64,
}

impl Drop for WatchGuard<'_> {
    fn drop(&mut self) {
        let mut flights = self
            .watchdog
            .flights
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        flights.remove(&self.token);
    }
}

impl Watchdog {
    /// Spawns the monitor thread for a per-attempt `deadline`.
    pub fn spawn(deadline: Duration) -> Self {
        let flights: Arc<Mutex<HashMap<u64, Flight>>> = Arc::new(Mutex::new(HashMap::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let tick = (deadline / 4).clamp(Duration::from_millis(5), Duration::from_millis(250));
        let monitor = {
            let flights = Arc::clone(&flights);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(tick);
                    let flights = flights.lock().unwrap_or_else(|e| e.into_inner());
                    for flight in flights.values() {
                        if flight.started.elapsed() > deadline {
                            flight.cancel.store(true, Ordering::Relaxed);
                        }
                    }
                }
            })
        };
        Watchdog {
            flights,
            next_token: AtomicUsize::new(0),
            stop,
            monitor: Some(monitor),
        }
    }

    /// Registers an in-flight attempt whose `cancel` flag the monitor may
    /// set; drop the guard when the attempt finishes.
    pub fn register(&self, cancel: Arc<AtomicBool>) -> WatchGuard<'_> {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed) as u64;
        let mut flights = self.flights.lock().unwrap_or_else(|e| e.into_inner());
        flights.insert(
            token,
            Flight {
                started: Instant::now(),
                cancel,
            },
        );
        drop(flights);
        WatchGuard {
            watchdog: self,
            token,
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.monitor.take() {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------
// Sealed, crash-safe storage
// ---------------------------------------------------------------------

/// First token of the integrity footer line appended by [`seal`].
pub const SEAL_MARKER: &str = "#s64v-seal v1";

fn content_crc(payload: &str) -> String {
    let mut h = StableHasher::new();
    h.write_str("seal");
    h.write_u64(payload.len() as u64);
    h.write_str(payload);
    h.finish().to_hex()[..16].to_string()
}

/// Appends the integrity footer — `#s64v-seal v1 len=<bytes> crc=<hex>` —
/// to a text payload. The payload must be newline-terminated (every
/// artifact the harness writes is), so the footer is always a line of
/// its own and [`unseal`] can strip it exactly.
pub fn seal(payload: &str) -> String {
    let mut out = String::with_capacity(payload.len() + 48);
    out.push_str(payload);
    if !payload.ends_with('\n') {
        out.push('\n');
    }
    let body = &out[..];
    let crc = content_crc(body);
    out = format!("{body}{SEAL_MARKER} len={} crc={crc}\n", body.len());
    out
}

/// Verifies and strips a [`seal`]ed artifact's footer, returning the
/// payload. `Err` carries the reason (missing footer, length mismatch,
/// checksum mismatch) — callers warn and treat the artifact as a miss.
pub fn unseal(text: &str) -> Result<&str, String> {
    let footer_at = text
        .rfind(SEAL_MARKER)
        .ok_or_else(|| "missing integrity footer (torn write or pre-seal artifact)".to_string())?;
    // The footer must be the final line, directly after the payload.
    if footer_at > 0 && text.as_bytes()[footer_at - 1] != b'\n' {
        return Err("integrity footer is not on its own line".to_string());
    }
    let payload = &text[..footer_at];
    let footer = text[footer_at..].trim_end();
    let mut len: Option<usize> = None;
    let mut crc: Option<&str> = None;
    for field in footer.split_whitespace() {
        if let Some(v) = field.strip_prefix("len=") {
            len = v.parse().ok();
        } else if let Some(v) = field.strip_prefix("crc=") {
            crc = Some(v);
        }
    }
    let len = len.ok_or_else(|| "unparsable integrity footer".to_string())?;
    let crc = crc.ok_or_else(|| "unparsable integrity footer".to_string())?;
    if payload.len() != len {
        return Err(format!(
            "length mismatch: footer says {len} bytes, payload holds {}",
            payload.len()
        ));
    }
    let actual = content_crc(payload);
    if actual != crc {
        return Err(format!("checksum mismatch: footer {crc}, payload {actual}"));
    }
    Ok(payload)
}

/// Writes `data` to `path` crash-safely: a temp file in the same
/// directory, fsync, atomic rename over the destination, then a
/// best-effort directory fsync so the rename itself is durable. A crash
/// at any step leaves either the old entry or a stray temp file — never
/// a half-written artifact at the final path.
pub fn atomic_write(path: &Path, data: &[u8]) -> std::io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(data)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    #[cfg(unix)]
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Lands `data` at `path` whole or not at all — a temp file in the same
/// directory renamed over the destination — without waiting for the
/// disk. A crash of the process leaves either the old entry or a stray
/// temp file; only a crash of the host before [`sync_group`] has made
/// the file durable can leave it empty or torn at its final path, which
/// is why whatever is written this way must detect damage on read (a
/// sealed footer) or be rewritten when it reads back wrong.
pub fn replace(path: &Path, data: &[u8]) -> std::io::Result<()> {
    let tmp = tmp_path(path);
    std::fs::write(&tmp, data)?;
    std::fs::rename(&tmp, path)
}

/// The group commit of files [`replace`]d into `dir`: an fsync per file,
/// then one of the directory, so the renames themselves are durable. A
/// file gone since it was written (replaced again, removed) is skipped.
pub fn sync_group(dir: &Path, files: &[PathBuf]) -> std::io::Result<()> {
    for file in files {
        match std::fs::File::open(file) {
            Ok(f) => f.sync_all()?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    #[cfg(unix)]
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

fn tmp_path(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_string());
    path.with_file_name(format!("{name}.tmp{}", std::process::id()))
}

/// A short per-line checksum for journal lines: appended as
/// ` |c=<hex>` by the journal writer and verified by the loader, so a
/// torn append (truncated tail, merged lines) is detected and skipped
/// instead of being misparsed as a valid record.
pub fn line_crc(body: &str) -> String {
    let mut h = StableHasher::new();
    h.write_str("journal-line");
    h.write_str(body);
    h.finish().to_hex()[..8].to_string()
}

// ---------------------------------------------------------------------
// Cache lock
// ---------------------------------------------------------------------

/// Lock-file name inside a cache directory.
pub const LOCK_FILE: &str = ".campaign.lock";

/// How long an acquirer waits for a live holder before giving up.
const LOCK_TIMEOUT: Duration = Duration::from_secs(30);

#[cfg(target_os = "linux")]
fn pid_alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

#[cfg(not(target_os = "linux"))]
fn pid_alive(_pid: u32) -> bool {
    // Without a portable liveness probe, assume the holder is alive and
    // let the acquisition timeout arbitrate.
    true
}

/// An exclusive advisory lock on one cache directory.
///
/// The lock is a `.campaign.lock` file stamped with the holder's pid,
/// created with `O_EXCL` so exactly one process wins. A second campaign
/// against the same `results-cache/` waits for the holder to finish
/// (bounded by a timeout) instead of interleaving writes with it; a lock
/// left behind by a dead process is detected by pid liveness and
/// reclaimed. A second acquire from the same process waits like any
/// other.
#[derive(Debug)]
pub struct CacheLock {
    dir: PathBuf,
}

impl CacheLock {
    /// Acquires the lock on `dir` (created if missing), waiting up to the
    /// default timeout for a live holder.
    pub fn acquire(dir: &Path) -> std::io::Result<CacheLock> {
        Self::acquire_with_timeout(dir, LOCK_TIMEOUT)
    }

    /// [`acquire`](CacheLock::acquire) with an explicit patience bound.
    pub fn acquire_with_timeout(dir: &Path, timeout: Duration) -> std::io::Result<CacheLock> {
        std::fs::create_dir_all(dir)?;
        let dir = dir.canonicalize()?;
        let path = dir.join(LOCK_FILE);
        let start = Instant::now();
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    let _ = writeln!(file, "pid {}", std::process::id());
                    let _ = file.sync_all();
                    return Ok(CacheLock { dir });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|text| text.strip_prefix("pid ")?.trim().parse::<u32>().ok());
                    if let Some(pid) = holder {
                        if !pid_alive(pid) {
                            // Reclaim a dead holder's lock. Rename-then-
                            // remove so only one contender wins the
                            // reclaim; the loser just loops.
                            let grave =
                                dir.join(format!("{LOCK_FILE}.stale{}", std::process::id()));
                            if std::fs::rename(&path, &grave).is_ok() {
                                let _ = std::fs::remove_file(&grave);
                            }
                            continue;
                        }
                    }
                    if start.elapsed() >= timeout {
                        let who = holder
                            .map(|p| format!("pid {p}"))
                            .unwrap_or_else(|| "an unknown process".to_string());
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::WouldBlock,
                            format!(
                                "cache directory {} is locked by {who}; \
                                 remove {} if that campaign is gone",
                                dir.display(),
                                path.display()
                            ),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for CacheLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(self.dir.join(LOCK_FILE));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fp as fp;

    #[test]
    fn seal_round_trips_and_detects_damage() {
        let payload = "s64v-point v1\ncycles: 123\n";
        let sealed = seal(payload);
        assert_eq!(unseal(&sealed).expect("clean unseal"), payload);
        assert!(sealed.ends_with('\n'));

        // Truncation (torn write) loses the footer.
        let torn = &sealed[..sealed.len() * 2 / 3];
        assert!(unseal(torn).is_err(), "torn artifact must not verify");

        // A single flipped payload byte fails the checksum.
        let mut bytes = sealed.clone().into_bytes();
        bytes[3] ^= 0x20;
        let flipped = String::from_utf8(bytes).expect("still utf-8");
        let err = unseal(&flipped).expect_err("bit flip must not verify");
        assert!(err.contains("checksum"), "got: {err}");

        // Extra bytes appended after the payload fail the length check.
        let padded = sealed.replace(SEAL_MARKER, &format!("extra line\n{SEAL_MARKER}"));
        assert!(unseal(&padded).is_err());

        // Unsealed text is an explicit miss, not a panic.
        assert!(unseal(payload).is_err());
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_grows() {
        let policy = SupervisePolicy::default();
        let a1 = policy.backoff_for(fp("p"), 1);
        assert_eq!(a1, policy.backoff_for(fp("p"), 1), "pure function");
        let a2 = policy.backoff_for(fp("p"), 2);
        assert!(a2 > a1, "later attempts back off longer");
        assert_ne!(
            a1,
            policy.backoff_for(fp("q"), 1),
            "different points decorrelate"
        );
        let zero = SupervisePolicy {
            backoff: Duration::ZERO,
            ..SupervisePolicy::default()
        };
        assert_eq!(zero.backoff_for(fp("p"), 3), Duration::ZERO);
    }

    #[test]
    fn watchdog_cancels_only_overdue_flights() {
        let watchdog = Watchdog::spawn(Duration::from_millis(30));
        let slow = Arc::new(AtomicBool::new(false));
        let guard = watchdog.register(Arc::clone(&slow));
        let deadline = Instant::now() + Duration::from_secs(5);
        while !slow.load(Ordering::Relaxed) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(slow.load(Ordering::Relaxed), "overdue flight cancelled");
        drop(guard);

        // A fast flight that deregisters in time is never cancelled.
        let fast = Arc::new(AtomicBool::new(false));
        let guard = watchdog.register(Arc::clone(&fast));
        drop(guard);
        std::thread::sleep(Duration::from_millis(60));
        assert!(!fast.load(Ordering::Relaxed), "finished flight untouched");
    }

    #[test]
    fn cache_lock_blocks_a_second_acquire_and_reclaims_dead_holders() {
        let dir = std::env::temp_dir().join(format!("s64v-lock-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        // A second acquire while the lock is held — from this process or
        // any other live one — waits, then gives up at the timeout.
        let held = CacheLock::acquire(&dir).expect("first acquire");
        assert!(dir.join(LOCK_FILE).exists());
        let err = CacheLock::acquire_with_timeout(&dir, Duration::from_millis(80))
            .expect_err("a held lock must block");
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        drop(held);
        assert!(!dir.join(LOCK_FILE).exists(), "release removes it");

        // A dead holder's lock is reclaimed immediately.
        std::fs::write(dir.join(LOCK_FILE), "pid 999999999\n").expect("plant stale lock");
        let reclaimed = CacheLock::acquire_with_timeout(&dir, Duration::from_millis(500))
            .expect("stale lock reclaimed");
        drop(reclaimed);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_lands_whole_files() {
        let dir = std::env::temp_dir().join(format!("s64v-aw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("entry.point");
        atomic_write(&path, b"first\n").expect("write");
        assert_eq!(std::fs::read(&path).expect("read"), b"first\n");
        atomic_write(&path, b"second\n").expect("overwrite");
        assert_eq!(std::fs::read(&path).expect("read"), b"second\n");
        // The group-committed form lands the same bytes; its commit
        // skips a file that is gone by then.
        let other = dir.join("other.cpi.json");
        replace(&path, b"third\n").expect("replace");
        replace(&other, b"{}\n").expect("replace");
        std::fs::remove_file(&other).expect("remove");
        sync_group(&dir, &[path.clone(), other]).expect("commit");
        assert_eq!(std::fs::read(&path).expect("read"), b"third\n");
        // No temp litter remains after a clean write.
        let stray = std::fs::read_dir(&dir)
            .expect("readdir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .count();
        assert_eq!(stray, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
