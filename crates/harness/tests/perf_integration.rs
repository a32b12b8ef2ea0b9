//! End-to-end test of the performance-regression observatory: a real
//! campaign against a baseline configuration, the same campaign with a
//! deliberately slower DRAM, and `campaign perf`'s attribution run over
//! the two cache directories — the injected regression must land on
//! backend-memory, dominated by the DRAM leaf.

use s64v_core::{program_seed, SystemConfig};
use s64v_harness::journal::{journal_path, Journal};
use s64v_harness::perf::{validate_cpi_artifact, PerfDiff, PerfSource};
use s64v_harness::{run_campaign, CampaignSpec, SimPoint, WorkUnit};
use s64v_observe::json::Value;
use s64v_observe::CpiGroup;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("s64v-perf-it-{tag}-{}", std::process::id()))
}

/// Memory-heavy points so a DRAM-latency change has cycles to move.
fn points(config: &SystemConfig) -> Vec<SimPoint> {
    use s64v_workloads::SuiteKind;
    [
        (SuiteKind::Tpcc, 0, "tpcc"),
        (SuiteKind::SpecInt95, 0, "go"),
        (SuiteKind::SpecInt95, 1, "m88ksim"),
    ]
    .into_iter()
    .map(|(suite, index, name)| SimPoint {
        config: config.clone(),
        work: WorkUnit::Program { suite, index },
        records: 4_000,
        warmup: 1_000,
        seed: program_seed(7, name),
    })
    .collect()
}

fn run_into(dir: &PathBuf, config: &SystemConfig) {
    std::fs::remove_dir_all(dir).ok();
    let mut spec = CampaignSpec::new("perf-it", points(config)).with_threads(2);
    spec.cache_dir = Some(dir.clone());
    let outcome = run_campaign(&spec, None).expect("campaign runs");
    assert!(outcome.failures().is_empty(), "clean campaign");
}

#[test]
fn dram_latency_regression_is_attributed_to_backend_memory() {
    let base_dir = temp_dir("base");
    let slow_dir = temp_dir("slow");

    let base_cfg = SystemConfig::sparc64_v();
    let mut slow_cfg = base_cfg.clone();
    slow_cfg.mem.dram_latency = base_cfg.mem.dram_latency * 4;

    run_into(&base_dir, &base_cfg);
    run_into(&slow_dir, &slow_cfg);

    // Every point left a conservation-valid .cpi.json artifact.
    for dir in [&base_dir, &slow_dir] {
        let artifacts: Vec<_> = std::fs::read_dir(dir)
            .expect("cache dir")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.to_string_lossy().ends_with(".cpi.json"))
            .collect();
        assert_eq!(artifacts.len(), 3, "one artifact per point in {dir:?}");
        for p in artifacts {
            let text = std::fs::read_to_string(&p).expect("artifact");
            let doc = Value::parse(&text).expect("valid JSON");
            validate_cpi_artifact(&doc).expect("artifact conserves");
        }
    }

    let base = PerfSource::load(&base_dir).expect("base loads");
    let new = PerfSource::load(&slow_dir).expect("new loads");
    assert_eq!(base.workloads.len(), 3);
    assert!(base.excluded.is_empty() && new.excluded.is_empty());

    let diff = PerfDiff::compute(&base, &new);
    assert_eq!(diff.workloads.len(), 3);
    assert!(diff.unmatched.is_empty(), "{:?}", diff.unmatched);

    for w in &diff.workloads {
        // Slower DRAM can only regress CPI, and the regression must be
        // blamed on the memory backend — specifically the DRAM leaf —
        // with the leaf contributions summing to the total delta.
        assert!(w.delta_pct > 0.0, "{}: expected a regression", w.name);
        let mem = w.group_pct(CpiGroup::BackendMemory);
        for g in CpiGroup::ALL {
            assert!(
                w.group_pct(g) <= mem,
                "{}: {:?} ({:+.2}%) outweighs backend-memory ({mem:+.2}%)",
                w.name,
                g.label(),
                w.group_pct(g)
            );
        }
        let (top_pct, top_path) = s64v_observe::CpiLeaf::ALL
            .into_iter()
            .map(|l| (w.leaf_pct[l.index()], l.path()))
            .max_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"))
            .expect("16 leaves");
        assert_eq!(
            top_path, "backend-memory/dram",
            "{}: top contributor is {top_path} ({top_pct:+.2}%)",
            w.name
        );
        let leaf_sum: f64 = w.leaf_pct.iter().sum();
        assert!(
            (leaf_sum - w.delta_pct).abs() < 1e-6,
            "{}: attribution leaks — leaves sum to {leaf_sum:.4}, delta is {:.4}",
            w.name,
            w.delta_pct
        );
        assert!(
            w.summary().contains("backend-memory/dram"),
            "summary names the culprit: {}",
            w.summary()
        );
    }

    // Satellite check: a journaled failure on one side surfaces as an
    // excluded point in the diff rather than silently vanishing.
    {
        let journal = Journal::open(&journal_path(&slow_dir)).expect("journal opens");
        journal.record_fail(
            points(&slow_cfg)[0].fingerprint(),
            "tpcc[0] synthetic",
            "watchdog: injected for the exclusion test",
        );
    }
    let new_with_failure = PerfSource::load(&slow_dir).expect("reloads");
    assert_eq!(
        new_with_failure.excluded,
        vec!["tpcc[0] synthetic".to_string()]
    );
    let diff = PerfDiff::compute(&base, &new_with_failure);
    assert_eq!(diff.new_excluded.len(), 1);
    assert!(diff
        .render()
        .contains("excluded from aggregation (new): 1 point(s)"));

    std::fs::remove_dir_all(&base_dir).ok();
    std::fs::remove_dir_all(&slow_dir).ok();
}
