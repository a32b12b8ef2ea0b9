//! Cross-statistic consistency invariants: relations that must hold
//! between independently collected counters for any workload.

use sparc64v::model::{PerformanceModel, Run, SystemConfig};
use sparc64v::trace::TraceSummary;
use sparc64v::workloads::{Suite, SuiteKind};

const WARMUP: usize = 50_000;
const TIMED: usize = 10_000;

#[test]
fn counters_are_mutually_consistent() {
    let model = PerformanceModel::new(SystemConfig::sparc64_v());
    for kind in SuiteKind::ALL {
        let suite = Suite::preset(kind);
        let program = &suite.programs()[0];
        let trace = program.generate(WARMUP + TIMED, 17);
        let timed = sparc64v::trace::VecTrace::from_records(trace.records()[WARMUP..].to_vec());
        let summary = TraceSummary::collect(timed.stream());
        let r = model.run(Run::of(&trace).warm(WARMUP));
        let core = &r.core_stats[0];
        let mem = &r.mem_stats[0];

        // Commit width bounds throughput.
        assert!(
            r.cycles * 4 >= r.committed,
            "{kind}: cannot retire more than 4 per cycle"
        );
        // Every timed conditional branch resolves exactly once.
        assert_eq!(
            core.cond_branches.get(),
            summary.cond_branches,
            "{kind}: resolved branches == trace branches"
        );
        assert!(core.mispredicts.get() <= core.cond_branches.get());
        // Every load and store touches the L1D at least once (replays and
        // line-crossers may touch more; forwarded loads touch less).
        let mem_ops = summary.count(sparc64v::isa::OpClass::Load)
            + summary.count(sparc64v::isa::OpClass::Store);
        let l1d = mem.l1d.accesses.get() + core.store_forwards.get();
        assert!(
            l1d >= mem_ops,
            "{kind}: {l1d} L1D accesses+forwards for {mem_ops} memory ops"
        );
        // Misses never exceed accesses anywhere.
        for (name, c) in [
            ("l1i", &mem.l1i),
            ("l1d", &mem.l1d),
            ("l2_all", &mem.l2_all),
            ("l2_demand", &mem.l2_demand),
        ] {
            assert!(
                c.misses.get() <= c.accesses.get(),
                "{kind}/{name}: misses exceed accesses"
            );
        }
        // Demand L2 traffic is a subset of all L2 traffic.
        assert!(
            mem.l2_demand.accesses.get() <= mem.l2_all.accesses.get(),
            "{kind}"
        );
        // The CPI stack accounts for every cycle exactly once.
        let s = &core.stall_cycles;
        let blamed: u64 = [
            s.busy,
            s.l2_miss,
            s.l1_miss,
            s.execute,
            s.dispatch,
            s.frontend_branch,
            s.frontend_fetch,
        ]
        .iter()
        .map(|c| c.get())
        .sum();
        assert_eq!(
            blamed,
            core.cycles.get(),
            "{kind}: CPI stack covers all cycles"
        );
        // Occupancies respect the hardware limits.
        assert!(core.window_occupancy.max_seen() <= 64, "{kind}");
        assert!(core.lq_occupancy.max_seen() <= 16, "{kind}");
        assert!(core.sq_occupancy.max_seen() <= 10, "{kind}");
    }
}

#[test]
fn perfect_everything_is_an_upper_bound_for_every_suite() {
    let base = SystemConfig::sparc64_v();
    let ideal = base
        .clone()
        .with_mem(
            base.mem
                .clone()
                .with_perfect_l1()
                .with_perfect_l2()
                .with_perfect_tlb(),
        )
        .with_core(base.core.clone().with_perfect_branch_prediction());
    for kind in SuiteKind::ALL {
        let suite = Suite::preset(kind);
        let trace = suite.programs()[0].generate(WARMUP + TIMED, 17);
        let real = PerformanceModel::new(base.clone()).run(Run::of(&trace).warm(WARMUP));
        let best = PerformanceModel::new(ideal.clone()).run(Run::of(&trace).warm(WARMUP));
        assert!(
            best.cycles <= real.cycles,
            "{kind}: idealized machine must be an upper bound"
        );
        assert!(
            best.ipc() <= 6.01,
            "{kind}: dispatch width bounds even the ideal machine"
        );
    }
}
