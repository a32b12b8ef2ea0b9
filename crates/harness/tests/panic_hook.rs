//! The process's panic hook survives campaigns: worker panics stay off
//! stderr, every other thread's panics reach the hook that was installed
//! before the first campaign ran — even when campaigns overlap. (Alone
//! in its test binary: the hook is per process.)

use s64v_core::{ChaosPlan, HarnessFaultClass, SystemConfig};
use s64v_harness::supervise::SupervisePolicy;
use s64v_harness::{run_campaign, CampaignSpec, SimPoint, WorkUnit};
use s64v_workloads::SuiteKind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Duration;

static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

fn points(seed: u64) -> Vec<SimPoint> {
    (0..4)
        .map(|index| SimPoint {
            config: SystemConfig::sparc64_v(),
            work: WorkUnit::Program {
                suite: SuiteKind::SpecInt95,
                index,
            },
            records: 3_000,
            warmup: 2_000,
            seed,
        })
        .collect()
}

/// Whether `plan` makes `point`'s first attempt panic (a hang is tried
/// first and would pre-empt it).
fn panics(plan: &ChaosPlan, point: &SimPoint) -> bool {
    let key = point.fingerprint().to_hex();
    !plan.should_fire(HarnessFaultClass::PointHang, &key)
        && plan.should_fire(HarnessFaultClass::WorkerPanic, &key)
}

#[test]
fn overlapping_campaigns_leave_the_previous_panic_hook_live() {
    std::panic::set_hook(Box::new(|_| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
    }));

    // Two campaigns, each with a schedule that panics at least one worker.
    let campaigns: Vec<(CampaignSpec, usize)> = [11u64, 12]
        .into_iter()
        .map(|seed| {
            let points = points(seed);
            let (plan, injected) = (0..)
                .map(|s| ChaosPlan::new(s, 500))
                .map(|plan| (plan, points.iter().filter(|p| panics(&plan, p)).count()))
                .find(|(_, injected)| *injected > 0)
                .expect("some seed panics a point");
            let spec = CampaignSpec {
                chaos: Some(plan),
                supervise: SupervisePolicy {
                    backoff: Duration::ZERO,
                    ..SupervisePolicy::default()
                },
                ..CampaignSpec::new("hook", points).with_heartbeat(None)
            };
            (spec, injected)
        })
        .collect();

    // Both start together and each runs on two workers.
    let start = Barrier::new(campaigns.len());
    std::thread::scope(|scope| {
        for (spec, injected) in &campaigns {
            let start = &start;
            scope.spawn(move || {
                start.wait();
                let outcome = run_campaign(&spec.clone().with_threads(2), None).expect("run");
                assert!(outcome.failures().is_empty(), "retries recover chaos");
                assert!(outcome.report.retries >= *injected, "{:?}", outcome.report);
            });
        }
    });
    assert_eq!(
        HOOK_CALLS.load(Ordering::SeqCst),
        0,
        "worker panics stay away from the hook"
    );

    // The hook installed first still hears every other thread.
    assert!(std::panic::catch_unwind(|| panic!("outside any campaign")).is_err());
    assert_eq!(HOOK_CALLS.load(Ordering::SeqCst), 1);
}
