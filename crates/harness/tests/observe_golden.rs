//! The observation artifacts at smoke size, pinned: a traced campaign's
//! `trace.json`, `pipeline.txt` and `metrics.jsonl` must hash to
//! `specs/observe_smoke.golden.txt`, one line per (point, artifact).
//!
//! Two points cover what the artifacts narrate: a SPECint95 program
//! point (one core, flat bus) and a 2-CPU TPC-C point on boards of two
//! plus a backplane, so the Perfetto trace carries both board-bus and
//! backplane transfers.
//!
//! After an *intentional* change to an artifact: `sh scripts/rebaseline.sh`,
//! and explain the diff.

use s64v_core::{program_seed, SystemConfig};
use s64v_harness::cache::ResultCache;
use s64v_harness::spec::ObservePlan;
use s64v_harness::{run_campaign, CampaignSpec, SimPoint, WorkUnit};
use s64v_workloads::SuiteKind;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../specs/observe_smoke.golden.txt"
);

const ARTIFACTS: [&str; 3] = ["trace.json", "pipeline.txt", "metrics.jsonl"];

/// The smoke sizes of `scripts/ci.sh` and `figures_golden`, seed 42.
fn points() -> Vec<SimPoint> {
    let base = SystemConfig::sparc64_v();
    let boards = SystemConfig {
        cpus: 2,
        ..base
            .clone()
            .with_mem(base.mem.clone().with_hierarchical_bus(2, 12))
    };
    vec![
        SimPoint {
            config: base,
            work: WorkUnit::Program {
                suite: SuiteKind::SpecInt95,
                index: 0,
            },
            records: 8_000,
            warmup: 40_000,
            seed: program_seed(42, "go"),
        },
        SimPoint {
            config: boards,
            work: WorkUnit::SmpTpcc,
            records: 4_000,
            warmup: 20_000,
            seed: 42,
        },
    ]
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Traces every point into a fresh cache directory and returns one
/// `<label> <artifact> <bytes> <fnv1a>` line per artifact.
fn observe(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("s64v-observe-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let points = points();
    let spec = CampaignSpec {
        cache_dir: Some(dir.clone()),
        observe: ObservePlan {
            trace_matches: vec![String::new()],
            metrics: true,
        },
        ..CampaignSpec::new("observe-golden", points.clone()).with_threads(1)
    };
    let outcome = run_campaign(&spec, None).expect("observed campaign");
    assert!(outcome.failures().is_empty(), "every point simulates");
    let cache = ResultCache::open(&dir).expect("cache dir");
    let mut lines = String::new();
    for p in &points {
        for ext in ARTIFACTS {
            let bytes = std::fs::read(cache.artifact_path(p.fingerprint(), ext)).expect(ext);
            lines.push_str(&format!(
                "{} {ext} {} {:#018x}\n",
                p.label(),
                bytes.len(),
                fnv1a(&bytes)
            ));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    lines
}

#[test]
fn traced_smoke_points_match_the_golden_byte_for_byte() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file");
    let got = observe("check");
    assert!(got == golden, "artifacts depart from {GOLDEN}:\n{got}");
}

#[test]
#[ignore = "rewrites specs/observe_smoke.golden.txt"]
fn regenerate() {
    std::fs::write(GOLDEN, observe("regenerate")).expect("writing the golden file");
}
