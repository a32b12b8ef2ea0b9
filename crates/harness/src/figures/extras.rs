//! The evaluation beyond the paper's figures: model verification, the
//! ablations, the CPI stacks, and the methodology checks.

use super::paper::{base, named, no_prefetch, off_chip_l2_direct, small_bht};
use super::{
    col, ipc, ipc_pct, FigureDef, Grid, Lines, Page, PointStore, Row, SuiteAgg, UP_SUITES,
};
use crate::spec::{HarnessOpts, PointMetrics, SimPoint, WorkUnit};
use crate::validate::{self, SampleOpts, DEFAULT_TOLERANCE};
use s64v_core::stability::SeedStudy;
use s64v_core::{CpiGroup, CpiLeaf, CpiStack, SystemConfig};
use s64v_stats::Table;
use s64v_workloads::{Suite, SuiteKind};

/// The §3.1/§3.2 ablation configurations.
fn ablation_configs() -> Vec<(String, SystemConfig)> {
    let b = base();
    let no_spec = b
        .clone()
        .with_core(b.core.clone().without_speculative_dispatch());
    let no_fwd = b
        .clone()
        .with_core(b.core.clone().without_data_forwarding());
    let single_port = {
        let mut c = b.clone();
        c.core.dcache_ports = 1;
        c
    };
    let wrong_path = b.clone().with_core(b.core.clone().with_wrong_path_fetch());
    named([
        ("base", b),
        ("no-spec-dispatch", no_spec),
        ("no-forwarding", no_fwd),
        ("single-port-L1D", single_port),
        ("wrong-path-fetch", wrong_path),
    ])
}

/// The window/queue sizing sweep's configurations.
fn window_sweep() -> Vec<(String, SystemConfig)> {
    [
        (16u32, 8u32, 6u32),
        (32, 12, 8),
        (64, 16, 10),
        (128, 32, 20),
    ]
    .iter()
    .map(|&(win, lq, sq)| {
        let mut c = base();
        c.core.window_size = win;
        c.core.load_queue = lq;
        c.core.store_queue = sq;
        (format!("win{win}/lq{lq}/sq{sq}"), c)
    })
    .collect()
}

/// The SMP bus-network ablation's configurations.
fn bus_configs() -> Vec<(String, SystemConfig)> {
    let flat = base();
    let hier4 = flat
        .clone()
        .with_mem(flat.mem.clone().with_hierarchical_bus(4, 12));
    let hier2 = flat
        .clone()
        .with_mem(flat.mem.clone().with_hierarchical_bus(2, 12));
    named([
        ("flat", flat),
        ("boards of 4 + backplane", hier4),
        ("boards of 2 + backplane", hier2),
    ])
}

/// A suite's top-down stack and committed instructions, merged over its
/// programs.
fn topdown(agg: &SuiteAgg) -> (CpiStack, u64) {
    let mut stack = CpiStack::default();
    let mut committed = 0u64;
    for p in &agg.programs {
        stack.merge(&CpiStack::from_cells(p.cpi));
        committed += p.committed;
    }
    (stack, committed)
}

/// The evaluation's remaining entries, `workloads_report` last.
pub(super) fn figures() -> Vec<FigureDef> {
    let mut topdown_columns = vec![col("CPI", |a| {
        let (stack, committed) = topdown(a[0]);
        format!(
            "{:.3}",
            stack.total().max(1) as f64 / committed.max(1) as f64
        )
    })];
    topdown_columns.extend(
        CpiGroup::ALL
            .into_iter()
            .zip([
                "retire",
                "frontend",
                "bad-spec",
                "backend-core",
                "backend-mem",
            ])
            .map(|(g, header)| {
                col(header, move |a| {
                    let stack = topdown(a[0]).0;
                    let share = stack.group_total(g) as f64 / stack.total().max(1) as f64;
                    format!("{share:.2}")
                })
            }),
    );
    topdown_columns.push(col("top stall leaf", |a| {
        let stack = topdown(a[0]).0;
        CpiLeaf::ALL
            .into_iter()
            .filter(|l| *l != CpiLeaf::Retire)
            .max_by_key(|l| stack.get(*l))
            .expect("taxonomy has stall leaves")
            .path()
    }));
    // `PointMetrics::stalls` order.
    let stall_causes = [
        "busy",
        "L2-miss",
        "L1-miss",
        "execute",
        "dispatch",
        "fe-branch",
        "fe-fetch",
    ];
    let stall_columns = stall_causes.into_iter().enumerate().map(|(k, header)| {
        col(header, move |a| {
            let cause = |k: usize| a[0].programs.iter().map(|p| p.stalls[k]).sum::<u64>();
            let total: u64 = (0..7).map(cause).sum();
            format!("{:.2}", cause(k) as f64 / total.max(1) as f64)
        })
    });
    vec![
        FigureDef::new("verify_model", verify_points, verify_render),
        Grid::new(
            "ablation",
            [
                "Ablations — speculative dispatch / data forwarding / dual access",
                "§3.1, §3.2",
                "each technique should contribute IPC; dual access matters most for memory-heavy work",
            ],
            ablation_configs(),
            vec![
                ipc(0, "base IPC"),
                ipc_pct(1, 0, "no-spec %"),
                ipc_pct(2, 0, "no-fwd %"),
                ipc_pct(3, 0, "1-port %"),
                ipc_pct(4, 0, "wrong-path %"),
            ],
        )
        .into(),
        Grid {
            rows: [SuiteKind::SpecInt95, SuiteKind::Tpcc].map(Row::Suite).into(),
            lines: Lines::Configs("configuration"),
            ..Grid::new(
                "ablation_window",
                [
                    "Sizing sweep — instruction window and load/store queues",
                    "Table 1 (design validation)",
                    "IPC saturates near the shipped sizes (64-entry window, 16/10 LSQ)",
                ],
                window_sweep(),
                vec![ipc(0, "SPECint95 IPC"), ipc(1, "TPC-C IPC")],
            )
        }
        .into(),
        Grid {
            rows: vec![Row::Smp],
            lines: Lines::Configs("topology"),
            ..Grid::new(
                "ablation_bus",
                [
                    "Ablation — SMP bus network: flat vs board + backplane",
                    "§2.1 (system-level communication structure)",
                    "board crossings tax coherence; throughput drops as sharing spans boards",
                ],
                bus_configs(),
                vec![
                    ipc(0, "TPC-C SMP IPC"),
                    col("move-outs", |a| a[0].programs[0].move_outs.to_string()),
                    col("bus util %", |a| {
                        format!("{:.1}", a[0].programs[0].bus_utilization() * 100.0)
                    }),
                ],
            )
        }
        .into(),
        Grid::new(
            "cpi_stack",
            [
                "Online CPI stacks",
                "§4.2 (cross-check of Fig 7 by a second method)",
                "L2-miss blame dominates TPC-C; execute dominates SPECfp; branches show on int",
            ],
            named([("base", base())]),
            stall_columns.collect(),
        )
        .into(),
        Grid::new(
            "cpi_topdown",
            [
                "Top-down CPI accounting",
                "§4.2 (Fig 7 stall breakdown via exhaustive cycle blame)",
                "conservation-checked: the five groups partition every core cycle",
            ],
            named([("base", base())]),
            topdown_columns,
        )
        .into(),
        FigureDef::new("stability", stability_points, stability_render),
        FigureDef::new(
            "sampling_accuracy",
            |o| validate::all_points(o, &SampleOpts::for_sizes(o)),
            sampling_accuracy_render,
        ),
        FigureDef::new("workloads_report", |_| Vec::new(), workloads_report_render),
    ]
}

// ---------------------------------------------------------------------
// Figures of their own shape
// ---------------------------------------------------------------------

/// Model verification runs each program through two machines
/// ([`WorkUnit::Verify`]), which no grid row does.
fn verify_suite_points(kind: SuiteKind, o: &HarnessOpts) -> Vec<SimPoint> {
    (0..Suite::preset(kind).programs().len())
        .map(|index| SimPoint {
            config: base(),
            work: WorkUnit::Verify { suite: kind, index },
            records: o.records,
            warmup: o.warmup,
            seed: o.seed,
        })
        .collect()
}

fn verify_points(o: &HarnessOpts) -> Vec<SimPoint> {
    UP_SUITES
        .iter()
        .flat_map(|&kind| verify_suite_points(kind, o))
        .collect()
}

fn verify_render(o: &HarnessOpts, store: &PointStore, page: &mut Page) -> Result<(), String> {
    page.banner(
        "Model verification — detailed model vs scalar reference",
        "§2.2 (logic-simulator cross-check analogue)",
        "identical architectural work; the out-of-order model is never slower",
    );
    let mut t = Table::with_headers(&[
        "workload",
        "model cycles",
        "reference cycles",
        "speedup",
        "verdict",
    ]);
    let mut all_ok = true;
    for kind in UP_SUITES {
        let points = verify_suite_points(kind, o);
        let checks: Vec<&PointMetrics> = points
            .iter()
            .map(|p| store.get(p))
            .collect::<Result<_, _>>()?;
        let model: u64 = checks.iter().map(|c| c.cycles).sum();
        let reference: u64 = checks.iter().map(|c| c.reference_cycles).sum();
        let ok = checks.iter().all(|c| c.same_work);
        all_ok &= ok;
        t.row(vec![
            kind.label().to_string(),
            model.to_string(),
            reference.to_string(),
            format!("{:.2}x", reference as f64 / model.max(1) as f64),
            if ok { "ok".into() } else { "MISMATCH".into() },
        ]);
    }
    page.table("verify_model", &t);
    if all_ok {
        Ok(())
    } else {
        Err("model/reference verification mismatch".to_string())
    }
}

/// The stability study: per comparison, its name and — for each of five
/// raw seeds — the (base, alt) points of one program at half length.
/// Not a grid: each pair reduces to an IPC ratio, the five ratios to a
/// [`SeedStudy`].
fn stability_pairs(o: &HarnessOpts) -> Vec<(&'static str, Vec<[SimPoint; 2]>)> {
    let comparisons = [
        (
            "TPC-C: 4k-BHT / 16k-BHT",
            base(),
            small_bht(),
            SuiteKind::Tpcc,
            0,
        ),
        (
            "SPECfp(swim): prefetch / none",
            no_prefetch(),
            base(),
            SuiteKind::SpecFp95,
            1,
        ),
        (
            "TPC-C: off.8m-1w / on.2m-4w",
            base(),
            off_chip_l2_direct(),
            SuiteKind::Tpcc,
            0,
        ),
    ];
    let study = |(name, base_cfg, alt_cfg, suite, index)| {
        let point = |config: &SystemConfig, seed| SimPoint {
            config: config.clone(),
            work: WorkUnit::Program { suite, index },
            records: o.records / 2,
            warmup: o.warmup / 2,
            seed,
        };
        let seeds = (0..5).map(|i| o.seed + i * 101);
        let pair = |seed| [point(&base_cfg, seed), point(&alt_cfg, seed)];
        (name, seeds.map(pair).collect())
    };
    comparisons.into_iter().map(study).collect()
}

fn stability_points(o: &HarnessOpts) -> Vec<SimPoint> {
    let pairs = stability_pairs(o).into_iter().flat_map(|(_, pairs)| pairs);
    pairs.flatten().collect()
}

fn stability_render(o: &HarnessOpts, store: &PointStore, page: &mut Page) -> Result<(), String> {
    page.banner(
        "Seed stability of the headline comparisons",
        "methodology",
        "every figure's winner keeps winning on every seed (min/max straddle no 1.0)",
    );
    let mut t = Table::with_headers(&["comparison (alt/base IPC)", "mean", "stddev", "min", "max"]);
    for (name, pairs) in stability_pairs(o) {
        let ratio = |[base, alt]: &[SimPoint; 2]| {
            let (b, a) = (store.get(base)?.ipc(), store.get(alt)?.ipc());
            Ok(if b == 0.0 { 0.0 } else { a / b })
        };
        let ratios: Vec<f64> = pairs.iter().map(ratio).collect::<Result<_, String>>()?;
        let s = SeedStudy::from_values(&ratios);
        t.row(vec![
            name.to_string(),
            format!("{:.3}", s.mean),
            format!("{:.4}", s.stddev),
            format!("{:.3}", s.min),
            format!("{:.3}", s.max),
        ]);
    }
    page.table("stability", &t);
    Ok(())
}

/// The sampled-vs-full A/B of [`crate::validate`] at its default
/// geometry and gate.
fn sampling_accuracy_render(
    o: &HarnessOpts,
    store: &PointStore,
    page: &mut Page,
) -> Result<(), String> {
    page.banner(
        "Sampling accuracy — sampled vs full-detail A/B on every UP workload",
        "methodology, Fig 19 discipline",
        "sampled IPC within 2% of full detail; 95% CI covers; per-window CPI conserves",
    );
    let report =
        validate::assess_onto(page, o, &SampleOpts::for_sizes(o), DEFAULT_TOLERANCE, store)?;
    if report.passed() {
        Ok(())
    } else {
        Err(format!(
            "sampling accuracy gate failed — {}",
            report.failures().join("; ")
        ))
    }
}

/// Every workload preset's calibrated parameters (§4.1 analogue): the
/// exact knobs this reproduction's synthetic traces are built from.
fn workloads_report_render(_: &HarnessOpts, _: &PointStore, page: &mut Page) -> Result<(), String> {
    page.banner(
        "Workload presets",
        "§4.1 (workload and trace generation)",
        "parameters behind the synthetic SPEC CPU95/2000 and TPC-C traces",
    );
    page.text(&s64v_workloads::describe::full_report());
    Ok(())
}
