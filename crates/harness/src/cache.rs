//! Content-addressed on-disk result cache.
//!
//! One file per point, named by the point's fingerprint, holding the
//! [`PointMetrics`] as versioned `key: value` text. The format is
//! deliberately boring: human-inspectable, diff-able, and tolerant —
//! any file that fails to parse (truncated write, format change) is
//! treated as a miss and re-simulated, never an error.
//!
//! Entries are written whole or not at all — temp file, atomic rename —
//! and made durable in groups: [`ResultCache::commit`] fsyncs every file
//! written since the last commit, then the directory once (the engine
//! commits every few dozen finished points, at the first to finish 10 s
//! after the last commit, and at the end of a campaign). Entries carry a
//! length+checksum footer (see [`crate::supervise::seal`]) verified on
//! every read, so what a host crash before a commit can leave — an empty
//! or torn entry at its final path — or an in-place bit flip is detected
//! as corruption rather than misparsed: the point re-simulates and the
//! engine counts the entry in its report. An entry without its footer is
//! corrupt like any other damaged one.
//!
//! Staleness never needs detection here: the fingerprint covers the
//! configuration, workload, seed, lengths and model version, so a stale
//! result is simply a file nobody looks up any more.

use crate::registry::lock;
use crate::spec::PointMetrics;
use crate::supervise::{replace, seal, sync_group, unseal};
use s64v_core::fingerprint::Fingerprint;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Format tag written as the first line of every cache file. Bumped to
/// v2 when the CPI stack joined [`PointMetrics`]; entries carrying any
/// *other* `s64v-point` version tag are a silent miss (a format upgrade,
/// not corruption) and re-simulate.
const FORMAT: &str = "s64v-point v2";

/// Prefix shared by every cache-format version tag (see [`FORMAT`]).
const FORMAT_FAMILY: &str = "s64v-point v";

/// Handle on a cache directory. Clones share the list of files awaiting
/// a [`commit`](ResultCache::commit).
#[derive(Debug, Clone, Default)]
pub struct ResultCache {
    dir: PathBuf,
    /// Files renamed into place since the last commit.
    uncommitted: Arc<Mutex<Vec<PathBuf>>>,
}

impl ResultCache {
    /// Opens (creating if needed) a cache directory.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(ResultCache {
            dir: dir.to_path_buf(),
            ..ResultCache::default()
        })
    }

    /// The file a fingerprint maps to.
    pub fn path_of(&self, fp: Fingerprint) -> PathBuf {
        self.dir.join(format!("{fp}.point"))
    }

    /// Looks a point up. `Ok(None)` is a plain miss: no readable entry,
    /// or a healthy one from another cache format. `Err` says why an
    /// entry that exists is corrupt — it is not UTF-8, fails its
    /// integrity footer or does not parse (a partial write survived a
    /// crash, or the bytes were damaged in place): the point re-simulates
    /// like on a miss, and its next store repairs the entry.
    pub fn lookup(&self, fp: Fingerprint) -> Result<Option<PointMetrics>, String> {
        let Ok(bytes) = std::fs::read(self.path_of(fp)) else {
            return Ok(None);
        };
        let text = String::from_utf8(bytes).map_err(|_| "not UTF-8".to_string())?;
        let payload = unseal(&text)?;
        if is_stale_format(payload) {
            // The store after the re-simulation upgrades it.
            return Ok(None);
        }
        let parsed = parse(payload).ok_or("unparsable payload")?;
        Ok(Some(parsed))
    }

    /// [`lookup`](ResultCache::lookup), with a corrupt entry one more
    /// miss.
    pub fn load(&self, fp: Fingerprint) -> Option<PointMetrics> {
        self.lookup(fp).ok().flatten()
    }

    /// Stores a point's metrics, sealed with an integrity footer and
    /// written whole (temp file + atomic rename); durable at the next
    /// [`commit`](ResultCache::commit).
    pub fn store(&self, fp: Fingerprint, m: &PointMetrics) -> std::io::Result<()> {
        self.write(self.path_of(fp), seal(&encode(m)).as_bytes())
            .map(drop)
    }

    /// Lands `data` at `path` and lists it for the next commit.
    fn write(&self, path: PathBuf, data: &[u8]) -> std::io::Result<PathBuf> {
        replace(&path, data)?;
        lock(&self.uncommitted).push(path.clone());
        Ok(path)
    }

    /// Makes every file stored since the last commit durable — an fsync
    /// per file, then one of the directory — and returns how many there
    /// were. Until then a stored file is whole to every reader, but a
    /// host crash may leave it empty or torn.
    pub fn commit(&self) -> std::io::Result<usize> {
        let files = std::mem::take(&mut *lock(&self.uncommitted));
        if !files.is_empty() {
            sync_group(&self.dir, &files)?;
        }
        Ok(files.len())
    }

    /// The artifact file a fingerprint maps to for a given extension
    /// (`cpi.json`, `trace.json`, `pipeline.txt`, `metrics.jsonl`, or a
    /// failed point's `fail.json` failure record), next to where the
    /// point's result is cached.
    pub fn artifact_path(&self, fp: Fingerprint, ext: &str) -> PathBuf {
        self.dir.join(format!("{fp}.{ext}"))
    }

    /// Writes an artifact whole (like [`store`], but unsealed — these
    /// files feed external tools that expect plain JSON/text) and returns
    /// its path. With no footer to check, a reader that can re-render an
    /// artifact compares bytes instead (see
    /// [`holds_artifact`](ResultCache::holds_artifact)).
    ///
    /// [`store`]: ResultCache::store
    pub fn store_artifact(
        &self,
        fp: Fingerprint,
        ext: &str,
        data: &str,
    ) -> std::io::Result<PathBuf> {
        self.write(self.artifact_path(fp, ext), data.as_bytes())
    }

    /// Whether the artifact on disk is exactly `data`: a missing, torn
    /// or damaged one is not, and is rewritten like a missing one.
    pub fn holds_artifact(&self, fp: Fingerprint, ext: &str, data: &str) -> bool {
        std::fs::read(self.artifact_path(fp, ext)).is_ok_and(|bytes| bytes == data.as_bytes())
    }
}

fn encode(m: &PointMetrics) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{FORMAT}");
    let _ = writeln!(s, "cycles: {}", m.cycles);
    let _ = writeln!(s, "committed: {}", m.committed);
    for (key, (num, den)) in [
        ("l1i", m.l1i),
        ("l1d", m.l1d),
        ("l2_all", m.l2_all),
        ("l2_demand", m.l2_demand),
        ("mispredict", m.mispredict),
    ] {
        let _ = writeln!(s, "{key}: {num} {den}");
    }
    let _ = writeln!(s, "prefetches: {}", m.prefetches);
    let _ = writeln!(s, "move_outs: {}", m.move_outs);
    let _ = writeln!(s, "bus_busy_cycles: {}", m.bus_busy_cycles);
    let _ = writeln!(s, "bus_transactions: {}", m.bus_transactions);
    // `{:?}` prints the shortest representation that parses back to the
    // identical f64, so cached and fresh metrics stay bit-equal.
    let _ = writeln!(s, "mean_load_latency: {:?}", m.mean_load_latency);
    let stalls: Vec<String> = m.stalls.iter().map(u64::to_string).collect();
    let _ = writeln!(s, "stalls: {}", stalls.join(" "));
    let cpi: Vec<String> = m.cpi.iter().map(u64::to_string).collect();
    let _ = writeln!(s, "cpi: {}", cpi.join(" "));
    let _ = writeln!(s, "reference_cycles: {}", m.reference_cycles);
    let _ = writeln!(s, "same_work: {}", m.same_work);
    s
}

/// Whether the payload is a well-formed entry from a *different* cache
/// format version — a leftover from before an upgrade, which should miss
/// silently (the next store rewrites it) rather than count as corruption.
fn is_stale_format(text: &str) -> bool {
    text.lines()
        .next()
        .is_some_and(|first| first != FORMAT && first.starts_with(FORMAT_FAMILY))
}

fn parse(text: &str) -> Option<PointMetrics> {
    let mut lines = text.lines();
    if lines.next()? != FORMAT {
        return None;
    }
    let mut m = PointMetrics::default();
    let mut seen: Vec<&str> = Vec::with_capacity(16);
    for line in lines {
        let (key, value) = line.split_once(": ")?;
        if seen.contains(&key) {
            return None;
        }
        seen.push(key);
        match key {
            "cycles" => m.cycles = value.parse().ok()?,
            "committed" => m.committed = value.parse().ok()?,
            "l1i" => m.l1i = parse_pair(value)?,
            "l1d" => m.l1d = parse_pair(value)?,
            "l2_all" => m.l2_all = parse_pair(value)?,
            "l2_demand" => m.l2_demand = parse_pair(value)?,
            "mispredict" => m.mispredict = parse_pair(value)?,
            "prefetches" => m.prefetches = value.parse().ok()?,
            "move_outs" => m.move_outs = value.parse().ok()?,
            "bus_busy_cycles" => m.bus_busy_cycles = value.parse().ok()?,
            "bus_transactions" => m.bus_transactions = value.parse().ok()?,
            "mean_load_latency" => m.mean_load_latency = value.parse().ok()?,
            "stalls" => m.stalls = parse_cells(value)?,
            "cpi" => m.cpi = parse_cells(value)?,
            "reference_cycles" => m.reference_cycles = value.parse().ok()?,
            "same_work" => m.same_work = value.parse().ok()?,
            _ => return None,
        }
    }
    // Every field must be present exactly once: no key repeats, and an
    // unknown key is a miss, so sixteen keys are the sixteen fields.
    (seen.len() == 16).then_some(m)
}

fn parse_cells<const N: usize>(value: &str) -> Option<[u64; N]> {
    let cells: Option<Vec<u64>> = value.split_whitespace().map(|p| p.parse().ok()).collect();
    cells?.try_into().ok()
}

fn parse_pair(value: &str) -> Option<(u64, u64)> {
    let (a, b) = value.split_once(' ')?;
    Some((a.parse().ok()?, b.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PointMetrics {
        PointMetrics {
            cycles: 123_456,
            committed: 10_000,
            l1i: (1, 2),
            l1d: (3, 4),
            l2_all: (5, 6),
            l2_demand: (7, 8),
            mispredict: (9, 10),
            prefetches: 11,
            move_outs: 12,
            bus_busy_cycles: 13,
            bus_transactions: 14,
            mean_load_latency: 3.0625e2,
            stalls: [1, 2, 3, 4, 5, 6, 7],
            cpi: [100, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
            reference_cycles: 99,
            same_work: true,
        }
    }

    #[test]
    fn encode_parse_round_trips() {
        assert_eq!(parse(&encode(&sample())), Some(sample()));
    }

    #[test]
    fn malformed_text_is_a_miss() {
        assert_eq!(parse(""), None);
        assert_eq!(parse("wrong header\ncycles: 1\n"), None);
        let truncated: String = encode(&sample()).lines().take(5).collect();
        assert_eq!(parse(&truncated), None);
        let tampered = encode(&sample()).replace("cycles:", "cycels:");
        assert_eq!(parse(&tampered), None);
        // A repeated field cannot stand in for a missing one.
        let duplicated = encode(&sample()).replace("committed: 10000", "cycles: 7");
        assert_eq!(parse(&duplicated), None);
    }

    #[test]
    fn stale_format_versions_miss_silently() {
        // An entry from a previous cache format is healthy text, not
        // damage: it must miss (and re-simulate) without the corruption
        // corruption path deciding anything about it.
        let old = encode(&sample()).replacen(FORMAT, "s64v-point v1", 1);
        assert!(is_stale_format(&old));
        assert_eq!(parse(&old), None);
        // The current format and garbage are both "not stale": one
        // parses, the other is corruption.
        assert!(!is_stale_format(&encode(&sample())));
        assert!(!is_stale_format("wrong header\n"));
    }

    #[test]
    fn store_and_load_via_directory() {
        let dir = std::env::temp_dir().join(format!("s64v-cache-test-{}", std::process::id()));
        let cache = ResultCache::open(&dir).expect("create");
        let fp = crate::test_fp("cache-test");
        assert_eq!(cache.load(fp), None);
        cache.store(fp, &sample()).expect("store");
        assert_eq!(cache.load(fp), Some(sample()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stores_are_whole_at_once_and_durable_a_group_at_a_time() {
        let dir = std::env::temp_dir().join(format!("s64v-cache-group-{}", std::process::id()));
        let cache = ResultCache::open(&dir).expect("create");
        let fp = crate::test_fp("group-test");
        cache.store(fp, &sample()).expect("store");
        cache.store_artifact(fp, "cpi.json", "{}\n").expect("store");
        // Readable before the commit, from any handle on the directory.
        assert_eq!(
            ResultCache::open(&dir).expect("reopen").load(fp),
            Some(sample())
        );
        assert!(cache.holds_artifact(fp, "cpi.json", "{}\n"));
        assert!(!cache.holds_artifact(fp, "cpi.json", "{\"torn"));
        assert_eq!(cache.clone().commit().expect("commit"), 2, "clones share");
        assert_eq!(cache.commit().expect("commit"), 0, "nothing new");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn in_place_corruption_is_a_miss_and_a_restore_repairs_it() {
        let dir = std::env::temp_dir().join(format!("s64v-cache-corrupt-{}", std::process::id()));
        let cache = ResultCache::open(&dir).expect("create");
        let fp = crate::test_fp("corruption-test");
        cache.store(fp, &sample()).expect("store");

        // Damage the entry in place (flip a header byte), as a crashed or
        // interfering writer would.
        let path = cache.path_of(fp);
        let mut bytes = std::fs::read(&path).expect("read entry");
        bytes[0] ^= 0xff;
        std::fs::write(&path, &bytes).expect("rewrite entry");

        assert_eq!(cache.lookup(fp), Err("not UTF-8".to_string()));
        assert_eq!(cache.load(fp), None, "corruption must read as a miss");
        std::fs::write(&path, "garbage").expect("overwrite entry");
        let why = cache.lookup(fp).expect_err("a garbage entry is corrupt");
        assert!(why.contains("missing integrity footer"), "{why}");
        cache.store(fp, &sample()).expect("restore");
        assert_eq!(cache.load(fp), Some(sample()), "a fresh store repairs it");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn entries_are_sealed_and_unsealed_entries_are_misses() {
        let dir = std::env::temp_dir().join(format!("s64v-cache-seal-{}", std::process::id()));
        let cache = ResultCache::open(&dir).expect("create");
        let fp = crate::test_fp("seal-test");
        cache.store(fp, &sample()).expect("store");
        let on_disk = std::fs::read_to_string(cache.path_of(fp)).expect("read");
        assert!(
            on_disk.contains(crate::supervise::SEAL_MARKER),
            "stored entries carry the integrity footer"
        );

        // Truncation (the classic torn write) now fails the footer check.
        std::fs::write(cache.path_of(fp), &on_disk[..on_disk.len() / 2]).expect("tear");
        assert_eq!(cache.load(fp), None, "torn entry must read as a miss");

        // Every current-format entry was written sealed, so one without
        // its footer has lost it.
        std::fs::write(cache.path_of(fp), encode(&sample())).expect("unsealed");
        assert_eq!(cache.load(fp), None, "an unsealed entry is a miss");
        std::fs::remove_dir_all(&dir).ok();
    }
}
