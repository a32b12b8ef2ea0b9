//! The process's panic hook survives campaigns: worker panics stay off
//! stderr, every other thread's panics reach the hook that was installed
//! before the first campaign ran — even when campaigns overlap. (Alone
//! in its test binary: the hook is per process.)

use s64v_core::SystemConfig;
use s64v_harness::{run_campaign, CampaignSpec, SimPoint, WorkUnit};
use s64v_workloads::SuiteKind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

/// Four programs; the `panicking` ones time no records, so they panic
/// ("warmup must leave records to time").
fn points(seed: u64, panicking: &[usize]) -> Vec<SimPoint> {
    (0..4)
        .map(|index| SimPoint {
            config: SystemConfig::sparc64_v(),
            work: WorkUnit::Program {
                suite: SuiteKind::SpecInt95,
                index,
            },
            records: if panicking.contains(&index) { 0 } else { 3_000 },
            warmup: 2_000,
            seed,
        })
        .collect()
}

#[test]
fn overlapping_campaigns_leave_the_previous_panic_hook_live() {
    std::panic::set_hook(Box::new(|_| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
    }));

    // Two campaigns, each with points that panic a worker.
    let campaigns: Vec<(CampaignSpec, &[usize])> = [(11u64, &[1][..]), (12, &[0, 3][..])]
        .into_iter()
        .map(|(seed, panicking)| {
            let spec = CampaignSpec::new("hook", points(seed, panicking));
            (spec, panicking)
        })
        .collect();

    // Both start together and each runs on two workers.
    let start = Barrier::new(campaigns.len());
    std::thread::scope(|scope| {
        for (spec, panicking) in &campaigns {
            let start = &start;
            scope.spawn(move || {
                start.wait();
                let outcome = run_campaign(&spec.clone().with_threads(2), None).expect("run");
                let failures = outcome.failures();
                let failed: Vec<usize> = failures.iter().map(|f| f.0).collect();
                assert_eq!(failed, *panicking, "only the panicking points fail");
                assert!(
                    failures.iter().all(|f| f.1.contains("warmup must leave")),
                    "{failures:?}"
                );
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
