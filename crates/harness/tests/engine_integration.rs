//! End-to-end tests of the campaign engine's contract: determinism
//! across thread counts, resume-from-cache equivalence (torn entries
//! included, and counted), fingerprint sensitivity, per-point failure
//! isolation, and a failure record that lives exactly until its point
//! succeeds.

use s64v_core::{program_seed, SystemConfig};
use s64v_harness::cache::ResultCache;
use s64v_harness::perf::{failure_label, PerfSource};
use s64v_harness::{run_campaign, CampaignSpec, SimPoint, WorkUnit};
use s64v_workloads::SuiteKind;
use std::path::PathBuf;

/// A small but non-trivial point set: two configurations over a few
/// programs from two suites, at tiny run lengths.
fn small_points() -> Vec<SimPoint> {
    let base = SystemConfig::sparc64_v();
    let two_way = base
        .clone()
        .with_core(base.core.clone().with_issue_width(2));
    let mut points = Vec::new();
    for config in [&base, &two_way] {
        for (suite, index, name) in [
            (SuiteKind::SpecInt95, 0, "go"),
            (SuiteKind::SpecInt95, 1, "m88ksim"),
            (SuiteKind::SpecFp95, 0, "tomcatv"),
        ] {
            points.push(SimPoint {
                config: config.clone(),
                work: WorkUnit::Program { suite, index },
                records: 500,
                warmup: 1_000,
                seed: program_seed(42, name),
            });
        }
    }
    points
}

fn spec(points: Vec<SimPoint>, threads: usize, cache_dir: Option<PathBuf>) -> CampaignSpec {
    let mut s = CampaignSpec::new("integration", points).with_threads(threads);
    s.cache_dir = cache_dir;
    s
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("s64v-it-{tag}-{}", std::process::id()))
}

#[test]
fn one_thread_and_many_threads_agree_exactly() {
    let single = run_campaign(&spec(small_points(), 1, None), None).expect("run");
    let many = run_campaign(&spec(small_points(), 4, None), None).expect("run");
    assert_eq!(single.outcomes.len(), many.outcomes.len());
    for (i, (a, b)) in single.outcomes.iter().zip(&many.outcomes).enumerate() {
        // Bit-identical metrics, not approximately equal: the schedule
        // of workers must never leak into simulation results.
        assert_eq!(a, b, "point {i} differs between 1 and 4 threads");
    }
    assert!(single.failures().is_empty());
}

#[test]
fn resumed_campaign_matches_a_fresh_run() {
    let dir = temp_dir("resume");
    std::fs::remove_dir_all(&dir).ok();

    // Fresh, uncached reference.
    let fresh = run_campaign(&spec(small_points(), 2, None), None).expect("run");

    // First run covers only half the points (an interrupted campaign),
    // the second the full set against the same cache.
    let half: Vec<SimPoint> = small_points().into_iter().take(3).collect();
    let partial = run_campaign(&spec(half, 2, Some(dir.clone())), None).expect("run");
    assert_eq!(partial.report.cache_hits, 0);

    let resumed = run_campaign(&spec(small_points(), 2, Some(dir.clone())), None).expect("run");
    assert_eq!(
        resumed.report.cache_hits, 3,
        "the half already simulated must come from the cache"
    );
    assert_eq!(fresh.outcomes, resumed.outcomes);

    // What a crash can leave behind: two entries torn to 3/5 of their
    // length.
    let n = small_points().len();
    let cache = ResultCache::open(&dir).expect("open");
    let mut torn = Vec::new();
    for p in [&small_points()[0], &small_points()[4]] {
        let path = cache.path_of(p.fingerprint());
        let entry = std::fs::read(&path).expect("entry");
        std::fs::write(&path, &entry[..entry.len() * 3 / 5]).expect("tear");
        torn.push(path);
    }
    torn.sort();

    // The torn entries miss, and the report counts them as corrupt.
    let repaired = run_campaign(&spec(small_points(), 2, Some(dir.clone())), None).expect("run");
    let r = &repaired.report;
    assert_eq!(r.cache_hits, n - 2, "the torn entries miss");
    let corrupt: Vec<PathBuf> = r.corrupt_entries.iter().map(|(p, _)| p.clone()).collect();
    assert_eq!(corrupt, torn);
    let summary = r.summary();
    assert!(
        summary.ends_with(", 2 corrupt cache entries re-simulated"),
        "{summary}"
    );
    assert_eq!(fresh.outcomes, repaired.outcomes);

    // A fourth run is pure cache: re-simulating repaired both entries.
    let cached = run_campaign(&spec(small_points(), 2, Some(dir.clone())), None).expect("run");
    assert_eq!(cached.report.cache_hits, n);
    assert!(!cached.report.summary().contains("corrupt"));
    assert_eq!(fresh.outcomes, cached.outcomes);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fingerprint_tracks_every_input() {
    let points = small_points();
    let p = &points[0];

    // Any config field change must change the key (the Debug encoding
    // covers fields added later without touching the harness).
    let mut tweaked = p.clone();
    tweaked.config.core.dcache_ports = 1;
    assert_ne!(p.fingerprint(), tweaked.fingerprint());

    // Same for lengths and seed…
    let mut longer = p.clone();
    longer.records += 1;
    assert_ne!(p.fingerprint(), longer.fingerprint());
    let mut reseeded = p.clone();
    reseeded.seed ^= 1;
    assert_ne!(p.fingerprint(), reseeded.fingerprint());

    // …while an identical reconstruction maps to the same entry.
    assert_eq!(p.fingerprint(), small_points()[0].fingerprint());
}

#[test]
fn panicking_point_fails_alone() {
    let dir = temp_dir("panic");
    std::fs::remove_dir_all(&dir).ok();

    let mut points = small_points();
    // Zero timed records after warm-up: execute_point rejects this with
    // a panic, standing in for any mid-simulation crash.
    points[1].records = 0;

    let outcome = run_campaign(&spec(points.clone(), 2, Some(dir.clone())), None).expect("run");
    let failures = outcome.failures();
    assert_eq!(failures.len(), 1);
    let (index, error, _dump) = failures[0];
    assert_eq!(index, 1);
    assert!(
        error.contains("warmup must leave records to time"),
        "panic message must be preserved, got: {error}"
    );
    assert!(
        outcome.outcomes[1].metrics().is_none(),
        "failed slot stays empty"
    );
    let healthy = outcome.report.completed;
    assert_eq!(healthy, points.len() - 1, "other points are unaffected");

    // Fixing the point and re-running simulates it while everything else
    // cache-hits.
    points[1].records = 500;
    let fixed = run_campaign(&spec(points.clone(), 2, Some(dir.clone())), None).expect("run");
    assert!(fixed.failures().is_empty());
    assert_eq!(fixed.report.cache_hits, points.len() - 1);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_failure_record_lives_until_its_point_succeeds() {
    let dir = temp_dir("record");
    std::fs::remove_dir_all(&dir).ok();
    let mut points = small_points();
    let (point, other) = (points.remove(0), points.remove(0));

    // Another point's artifact, so the directory is a perf source.
    run_campaign(&spec(vec![other], 1, Some(dir.clone())), None).expect("run");

    // A budget cuts the point off: it leaves a failure record naming it.
    let mut budgeted = spec(vec![point.clone()], 1, Some(dir.clone()));
    budgeted.supervise.cycle_budget = Some(100);
    let cut = run_campaign(&budgeted, None).expect("run");
    let cache = ResultCache::open(&dir).expect("open");
    let record = cache.artifact_path(point.fingerprint(), "fail.json");
    assert_eq!(cut.failures()[0].2, Some(record.as_path()), "reported");
    let text = std::fs::read_to_string(&record).expect("a failure record");
    assert_eq!(failure_label(&text), Ok(Some(point.label())));
    let source = PerfSource::load(&dir).expect("load");
    assert_eq!(source.excluded, [point.label()]);

    // Supervision is not in the fingerprint: the same point without a
    // budget simulates, succeeds and removes its stale record.
    let plain = spec(vec![point], 1, Some(dir.clone()));
    let clean = run_campaign(&plain, None).expect("run");
    assert_eq!((clean.report.completed, clean.report.cache_hits), (1, 0));
    assert!(!record.exists(), "the success left the stale record");
    assert!(PerfSource::load(&dir).expect("load").excluded.is_empty());

    // An observed re-run bypasses the cache and can fail beside the
    // entry; the next plain run is a hit and removes that record too.
    budgeted.observe.metrics = true;
    run_campaign(&budgeted, None).expect("run");
    assert!(record.exists(), "the observed run failed");
    assert_eq!(
        run_campaign(&plain, None).expect("run").report.cache_hits,
        1
    );
    assert!(!record.exists(), "the hit left the stale record");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_truncation_of_a_failure_record_panics_the_perf_loader() {
    let dir = temp_dir("torn-record");
    std::fs::remove_dir_all(&dir).ok();
    // A core that can never commit wedges: its record carries the
    // pipeline snapshot. The other point leaves a `.cpi.json`.
    let mut points: Vec<SimPoint> = small_points().into_iter().take(2).collect();
    points[1].config.core.commit_width = 0;
    run_campaign(&spec(points.clone(), 1, Some(dir.clone())), None).expect("run");
    let cache = ResultCache::open(&dir).expect("open");
    let record = cache.artifact_path(points[1].fingerprint(), "fail.json");
    let bytes = std::fs::read(&record).expect("the wedge left a record");
    let name = record.display().to_string();

    // Every prefix loads cleanly or fails naming the record; so does a
    // record that is not UTF-8.
    let prefixes = (0..=bytes.len()).map(|len| bytes[..len].to_vec());
    for text in prefixes.chain([b"{\"label\": \"\xff\", \"error\": \"\"}".to_vec()]) {
        std::fs::write(&record, &text).expect("plant");
        match PerfSource::load(&dir) {
            Ok(source) => assert_eq!(source.excluded, [points[1].label()]),
            Err(e) => assert!(e.starts_with(&name), "{} bytes: {e}", text.len()),
        }
    }
    std::fs::write(&record, &bytes).expect("restore");
    assert!(PerfSource::load(&dir).is_ok(), "the whole record loads");

    std::fs::remove_dir_all(&dir).ok();
}
