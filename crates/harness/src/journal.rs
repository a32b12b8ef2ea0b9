//! Append-only campaign journal.
//!
//! The journal records every point outcome as one line, flushed as it
//! happens, so an interrupted campaign leaves a complete account of what
//! finished and what failed. On resume the *results* come back through
//! the content-addressed cache; the journal's job is the bookkeeping the
//! cache cannot do — which points panicked (and why), and how far the
//! previous run got.
//!
//! Line format (space-separated, message is the line's tail; every line
//! carries a ` |c=<crc>` suffix over its body so the loader can detect a
//! torn append — a truncated tail, or two lines merged by a crash
//! mid-write — and skip the damage instead of misparsing it):
//!
//! ```text
//! ok     <fingerprint> <label...> |c=<crc>
//! fail   <fingerprint> <label> :: <error message> |c=<crc>
//! retry  <fingerprint> <label> :: <transient error> |c=<crc>
//! ```
//!
//! `retry` lines record recovered transient failures (the point went on
//! to succeed or be quarantined — later lines say which).

use crate::supervise::line_crc;
use s64v_core::fingerprint::Fingerprint;
use std::collections::HashSet;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// One failed point recorded in a journal.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedPoint {
    /// The point's fingerprint.
    pub fingerprint: Fingerprint,
    /// Its human-readable label.
    pub label: String,
    /// The panic/error message.
    pub error: String,
}

/// What a previous run left behind.
#[derive(Debug, Clone, Default)]
pub struct JournalState {
    /// Fingerprints of points that completed.
    pub completed: HashSet<Fingerprint>,
    /// Points that failed, in journal order (a point that later
    /// succeeded — e.g. on a retry run — is dropped from this list).
    pub failed: Vec<FailedPoint>,
    /// Recovered transient failures, in journal order (each one is an
    /// attempt that failed and was re-run).
    pub retries: Vec<FailedPoint>,
    /// Lines that are not UTF-8 or whose checksum failed (torn appends)
    /// — skipped, counted.
    pub corrupt_lines: usize,
}

/// An open journal file, safe to append from worker threads.
#[derive(Debug)]
pub struct Journal {
    file: Mutex<std::fs::File>,
}

/// The journal file inside a cache directory.
pub fn journal_path(cache_dir: &Path) -> PathBuf {
    cache_dir.join("journal.log")
}

impl Journal {
    /// Opens `path` for appending, creating it (and its directory) if
    /// missing.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        // A crash mid-append leaves a torn final line with no newline —
        // possibly ending mid-character; seal it off so this session's
        // first append lands on a fresh line (the fragment alone fails its
        // checksum and is skipped by the loader). Only the last byte is
        // read, best effort like every journal write.
        if ends_mid_line(&mut file).unwrap_or(false) {
            let _ = file.write_all(b"\n");
        }
        Ok(Journal {
            file: Mutex::new(file),
        })
    }

    /// Reads the accumulated state (missing file = empty state). A line
    /// that is not UTF-8 (a torn multi-byte character, disk damage) or
    /// has a missing or wrong checksum is a torn append: it is skipped
    /// and counted once in [`JournalState::corrupt_lines`], never
    /// misparsed, never an error, and never costs the other lines.
    pub fn load(path: &Path) -> JournalState {
        let mut state = JournalState::default();
        let Ok(bytes) = std::fs::read(path) else {
            return state;
        };
        for raw in bytes.split(|&b| b == b'\n') {
            let raw = raw.strip_suffix(b"\r").unwrap_or(raw);
            let Ok(line) = std::str::from_utf8(raw) else {
                state.corrupt_lines += 1;
                continue;
            };
            let Some((body, crc)) = line.rsplit_once(" |c=") else {
                if !line.is_empty() {
                    state.corrupt_lines += 1;
                }
                continue;
            };
            if line_crc(body) != crc {
                state.corrupt_lines += 1;
                continue;
            }
            let mut parts = body.splitn(3, ' ');
            let (Some(tag), Some(second), Some(rest)) = (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            let Some(fp) = Fingerprint::parse_hex(second) else {
                continue;
            };
            match tag {
                "ok" => {
                    state.completed.insert(fp);
                    state.failed.retain(|f| f.fingerprint != fp);
                }
                "fail" | "retry" => {
                    let (label, error) = match rest.split_once(" :: ") {
                        Some((l, e)) => (l.to_string(), e.to_string()),
                        None => (rest.to_string(), String::new()),
                    };
                    let record = FailedPoint {
                        fingerprint: fp,
                        label,
                        error,
                    };
                    if tag == "retry" {
                        state.retries.push(record);
                    } else {
                        state.failed.push(record);
                    }
                }
                _ => {}
            }
        }
        state
    }

    /// Records a completed point.
    pub fn record_ok(&self, fp: Fingerprint, label: &str) {
        self.append(&format!("ok {fp} {}", sanitize(label)));
    }

    /// Records a failed point with its error message.
    pub fn record_fail(&self, fp: Fingerprint, label: &str, error: &str) {
        let (label, error) = (sanitize(label), sanitize(error));
        self.append(&format!("fail {fp} {label} :: {error}"));
    }

    /// Records a recovered transient failure (the attempt will be re-run;
    /// a later `ok` or `fail` line carries the point's final outcome).
    pub fn record_retry(&self, fp: Fingerprint, label: &str, error: &str) {
        let (label, error) = (sanitize(label), sanitize(error));
        self.append(&format!("retry {fp} {label} :: {error}"));
    }

    /// Appends one line.
    fn append(&self, body: &str) {
        let line = format!("{body} |c={}\n", line_crc(body));
        // A poisoned lock means some worker panicked mid-append; the file
        // handle itself is still fine (at worst one line is torn, and the
        // loader skips checksum-failing lines), so keep journaling rather
        // than letting one dead worker silence the rest of the campaign.
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        // Journal writes are best-effort: losing a line degrades the
        // resume report, never the results (the cache holds those).
        let _ = file.write_all(line.as_bytes());
        let _ = file.flush();
    }
}

/// Whether `file` ends without a newline (an empty file does not).
fn ends_mid_line(file: &mut std::fs::File) -> std::io::Result<bool> {
    if file.metadata()?.len() == 0 {
        return Ok(false);
    }
    let mut last = [0u8];
    file.seek(SeekFrom::End(-1))?;
    file.read_exact(&mut last)?;
    Ok(last != *b"\n")
}

/// Keeps journal entries one line each.
fn sanitize(s: &str) -> String {
    s.replace(['\n', '\r'], " ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fp as fp;

    #[test]
    fn round_trips_ok_and_fail_lines() {
        let dir = std::env::temp_dir().join(format!("s64v-journal-test-{}", std::process::id()));
        let path = journal_path(&dir);
        std::fs::remove_file(&path).ok();

        let j = Journal::open(&path).expect("open");
        j.record_ok(fp("a"), "point a");
        j.record_fail(fp("b"), "point b", "warmup must leave\nrecords");
        j.record_ok(fp("c"), "point c");

        let state = Journal::load(&path);
        assert!(state.completed.contains(&fp("a")));
        assert!(state.completed.contains(&fp("c")));
        assert_eq!(state.failed.len(), 1);
        assert_eq!(state.failed[0].label, "point b");
        assert!(state.failed[0].error.contains("warmup must leave"));

        // A later success clears the failure.
        j.record_ok(fp("b"), "point b");
        let state = Journal::load(&path);
        assert!(state.failed.is_empty());
        assert_eq!(state.completed.len(), 3);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_and_garbage_files_load_empty() {
        let state = Journal::load(Path::new("/nonexistent/journal.log"));
        assert!(state.completed.is_empty());

        let dir = std::env::temp_dir().join(format!("s64v-journal-gbg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("journal.log");
        std::fs::write(&path, "not a journal line\nok tooshort x\n").expect("write");
        let state = Journal::load(&path);
        assert!(state.completed.is_empty());
        assert!(state.failed.is_empty());
        assert_eq!(state.corrupt_lines, 2, "checksum-less lines are counted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retry_lines_round_trip() {
        let dir = std::env::temp_dir().join(format!("s64v-journal-rc-{}", std::process::id()));
        let path = journal_path(&dir);
        std::fs::remove_file(&path).ok();

        let j = Journal::open(&path).expect("open");
        j.record_retry(fp("a"), "point a", "panic: worker died");
        j.record_ok(fp("a"), "point a");

        let state = Journal::load(&path);
        assert!(state.completed.contains(&fp("a")));
        assert!(
            state.failed.is_empty(),
            "a recovered retry is not a failure"
        );
        assert_eq!(state.retries.len(), 1);
        assert!(state.retries[0].error.contains("worker died"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_tail_is_skipped_not_misparsed() {
        let dir = std::env::temp_dir().join(format!("s64v-journal-trunc-{}", std::process::id()));
        let path = journal_path(&dir);
        std::fs::remove_file(&path).ok();

        let j = Journal::open(&path).expect("open");
        j.record_ok(fp("whole"), "whole point");
        j.record_ok(fp("torn"), "torn point");

        // Tear the tail mid-line, as a crash mid-append would.
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, &text[..text.len() - 9]).expect("tear");

        let state = Journal::load(&path);
        assert!(state.completed.contains(&fp("whole")));
        assert!(
            !state.completed.contains(&fp("torn")),
            "a torn ok line must not count as completed"
        );
        assert_eq!(state.corrupt_lines, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `€` is three bytes in UTF-8; a torn append can end after the first.
    fn torn_euro_line(j: &Journal, path: &Path, tag: &str) -> Vec<u8> {
        j.record_ok(fp(tag), &format!("point {tag} €"));
        let mut bytes = std::fs::read(path).expect("read");
        let euro = bytes.windows(3).rposition(|w| w == "€".as_bytes());
        bytes.truncate(euro.expect("the label's character") + 1);
        bytes
    }

    #[test]
    fn a_torn_multibyte_character_mid_file_costs_one_line() {
        let dir = std::env::temp_dir().join(format!("s64v-journal-utf8-{}", std::process::id()));
        let path = journal_path(&dir);
        std::fs::remove_file(&path).ok();

        let j = Journal::open(&path).expect("open");
        j.record_ok(fp("before"), "point before");
        let mut bytes = torn_euro_line(&j, &path, "torn");
        assert!(std::str::from_utf8(&bytes).is_err(), "ends mid-character");
        bytes.push(b'\n');
        std::fs::write(&path, &bytes).expect("tear");
        j.record_fail(fp("after"), "point after", "boom");

        let state = Journal::load(&path);
        assert!(state.completed.contains(&fp("before")));
        assert!(!state.completed.contains(&fp("torn")));
        assert_eq!(state.failed.len(), 1, "the line after the damage survives");
        assert_eq!(state.corrupt_lines, 1, "the damaged line counts once");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_torn_multibyte_character_at_the_tail_is_sealed_off_on_open() {
        let dir = std::env::temp_dir().join(format!("s64v-journal-tail-{}", std::process::id()));
        let path = journal_path(&dir);
        std::fs::remove_file(&path).ok();

        let j = Journal::open(&path).expect("open");
        j.record_ok(fp("before"), "point before");
        let bytes = torn_euro_line(&j, &path, "torn");
        drop(j);
        std::fs::write(&path, &bytes).expect("tear");

        // The next session seals the fragment off before its own append.
        let j = Journal::open(&path).expect("reopen");
        j.record_ok(fp("next"), "point next");
        let state = Journal::load(&path);
        assert!(state.completed.contains(&fp("before")));
        assert!(
            state.completed.contains(&fp("next")),
            "the first append after a torn tail lands on a line of its own"
        );
        assert_eq!(state.completed.len(), 2);
        assert_eq!(state.corrupt_lines, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_survive_a_poisoned_lock() {
        let dir = std::env::temp_dir().join(format!("s64v-journal-psn-{}", std::process::id()));
        let path = journal_path(&dir);
        std::fs::remove_file(&path).ok();

        let j = Journal::open(&path).expect("open");
        j.record_ok(fp("before"), "point before");

        // Poison the mutex the way a real campaign would: a worker
        // panicking while holding it.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = j.file.lock().unwrap();
            panic!("worker died mid-append");
        }));
        std::panic::set_hook(hook);
        assert!(j.file.is_poisoned());

        j.record_ok(fp("after"), "point after");
        let state = Journal::load(&path);
        assert!(state.completed.contains(&fp("before")));
        assert!(
            state.completed.contains(&fp("after")),
            "a poisoned lock must not stop the journal"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
