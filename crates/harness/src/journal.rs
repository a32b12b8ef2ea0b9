//! Inert names of the retired campaign journal. The cache directory is
//! the only record of what a run left (`<fingerprint>.point` results and
//! `<fingerprint>.fail.json` failure records); nothing reads or writes a
//! `journal.log`. These names do no I/O and stay only because the
//! benchmark crate still imports them; they go with ROADMAP item 3.

use s64v_core::fingerprint::Fingerprint;
use std::path::{Path, PathBuf};

/// Where the journal used to live inside a cache directory.
pub fn journal_path(cache_dir: &Path) -> PathBuf {
    cache_dir.join("journal.log")
}

/// A journal that records nothing.
#[derive(Debug)]
pub struct Journal;

/// What [`Journal::load`] returns: always empty.
#[derive(Debug, Clone, Default)]
pub struct JournalState {
    /// Always empty.
    pub retries: Vec<String>,
}

impl Journal {
    /// Opens nothing; always `Ok`.
    pub fn open(_path: &Path) -> std::io::Result<Self> {
        Ok(Journal)
    }

    /// Reads nothing.
    pub fn load(_path: &Path) -> JournalState {
        JournalState::default()
    }

    /// Records nothing.
    pub fn record_ok(&self, _fp: Fingerprint, _label: &str) {}
}
