//! The experiment registry: every table/figure of the evaluation,
//! declared as campaign points plus a render step.
//!
//! Each [`FigureDef`] contributes (a) the [`SimPoint`]s it needs and (b)
//! a render function that assembles its tables from resolved point
//! metrics. [`run_figures`] merges the points of all requested figures,
//! **deduplicates them by fingerprint** (the base configuration's suite
//! runs are shared by most figures, so a merged campaign simulates them
//! once), executes the campaign, and renders every figure from the one
//! result store. Output formats deliberately match the historical
//! per-binary harnesses line for line.

use crate::engine::{run_campaign, PointOutcome};
use crate::journal::FailedPoint;
use crate::progress::{CampaignReport, ProgressEvent};
use crate::spec::{CampaignSpec, HarnessOpts, ObservePlan, PointMetrics, SimPoint, WorkUnit};
use crate::supervise::SupervisePolicy;
use crate::{banner, emit};
use s64v_core::accuracy::{machine_residual, MACHINE_RESIDUAL_MAX};
use s64v_core::fingerprint::Fingerprint;
use s64v_core::stability::SeedStudy;
use s64v_core::versions::ModelVersion;
use s64v_core::ChaosPlan;
use s64v_core::{program_seed, CpiGroup, CpiLeaf, CpiStack, SystemConfig};
use s64v_stats::ratio::relative_change_percent;
use s64v_stats::{Ratio, Table};
use s64v_workloads::{Suite, SuiteKind};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::mpsc::Sender;
use std::time::Duration;

/// The five uniprocessor workloads in the paper's reporting order.
pub const UP_SUITES: [SuiteKind; 5] = [
    SuiteKind::SpecInt95,
    SuiteKind::SpecFp95,
    SuiteKind::SpecInt2000,
    SuiteKind::SpecFp2000,
    SuiteKind::Tpcc,
];

/// A point a figure needed but the campaign could not supply (the
/// simulation failed, or the figure was rendered against the wrong run).
#[derive(Debug, Clone, PartialEq)]
pub struct MissingPoint {
    /// The missing point's label.
    pub label: String,
}

impl std::fmt::Display for MissingPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "missing point result: {}", self.label)
    }
}

/// Resolved point metrics, addressable by point identity.
#[derive(Debug, Default)]
pub struct PointStore {
    map: HashMap<Fingerprint, PointMetrics>,
}

impl PointStore {
    /// Builds a store from a campaign's points and outcomes (failed
    /// points are simply absent).
    pub fn from_run(points: &[SimPoint], outcomes: &[PointOutcome]) -> Self {
        let mut map = HashMap::with_capacity(points.len());
        for (p, o) in points.iter().zip(outcomes) {
            if let Some(m) = o.metrics() {
                map.insert(p.fingerprint(), m.clone());
            }
        }
        PointStore { map }
    }

    /// Looks a point's metrics up by fingerprint.
    pub fn get(&self, point: &SimPoint) -> Result<&PointMetrics, MissingPoint> {
        self.map
            .get(&point.fingerprint())
            .ok_or_else(|| MissingPoint {
                label: point.label(),
            })
    }
}

/// A suite's aggregated outcome: geometric-mean IPC (the paper reports
/// suite-level IPC ratios) and exactly-merged event ratios.
#[derive(Debug, Clone)]
pub struct SuiteAgg {
    /// Figure label (e.g. `"SPECint95"` or `"TPC-C(16P)"`).
    pub label: String,
    /// Per-program metrics.
    pub programs: Vec<PointMetrics>,
}

impl SuiteAgg {
    /// Geometric-mean IPC across programs.
    pub fn ipc(&self) -> f64 {
        if self.programs.is_empty() {
            return 0.0;
        }
        let log_sum: f64 = self.programs.iter().map(|p| p.ipc().ln()).sum();
        (log_sum / self.programs.len() as f64).exp()
    }

    fn merge(&self, f: impl Fn(&PointMetrics) -> (u64, u64)) -> Ratio {
        self.programs
            .iter()
            .map(|p| {
                let (num, den) = f(p);
                Ratio::of(num, den)
            })
            .fold(Ratio::default(), |acc, r| acc.merge(r))
    }

    /// Merged L1I miss ratio.
    pub fn l1i_miss(&self) -> Ratio {
        self.merge(|p| p.l1i)
    }

    /// Merged L1 operand miss ratio.
    pub fn l1d_miss(&self) -> Ratio {
        self.merge(|p| p.l1d)
    }

    /// Merged L2 miss ratio over all requests (prefetches included).
    pub fn l2_all_miss(&self) -> Ratio {
        self.merge(|p| p.l2_all)
    }

    /// Merged demand-only L2 miss ratio.
    pub fn l2_demand_miss(&self) -> Ratio {
        self.merge(|p| p.l2_demand)
    }

    /// Merged branch misprediction ratio.
    pub fn mispredict(&self) -> Ratio {
        self.merge(|p| p.mispredict)
    }
}

// ---------------------------------------------------------------------
// Point builders
// ---------------------------------------------------------------------

/// One [`WorkUnit::Program`] point per program of `kind`, each seeded by
/// its [`program_seed`] so every program gets an independent stream.
pub fn suite_points(config: &SystemConfig, kind: SuiteKind, o: &HarnessOpts) -> Vec<SimPoint> {
    Suite::preset(kind)
        .programs()
        .iter()
        .enumerate()
        .map(|(index, p)| SimPoint {
            config: config.clone(),
            work: WorkUnit::Program { suite: kind, index },
            records: o.records,
            warmup: o.warmup,
            seed: program_seed(o.seed, p.name()),
        })
        .collect()
}

/// [`suite_points`] over all five uniprocessor suites.
pub fn up_points(config: &SystemConfig, o: &HarnessOpts) -> Vec<SimPoint> {
    UP_SUITES
        .iter()
        .flat_map(|&kind| suite_points(config, kind, o))
        .collect()
}

/// The TPC-C SMP point for `config` (CPU count from the options).
pub fn smp_point(config: &SystemConfig, o: &HarnessOpts) -> SimPoint {
    SimPoint {
        config: SystemConfig {
            cpus: o.smp_cpus,
            ..config.clone()
        },
        work: WorkUnit::SmpTpcc,
        records: o.smp_records,
        warmup: o.smp_warmup,
        seed: o.seed,
    }
}

fn gather_suite(
    store: &PointStore,
    config: &SystemConfig,
    kind: SuiteKind,
    o: &HarnessOpts,
) -> Result<SuiteAgg, MissingPoint> {
    let programs = suite_points(config, kind, o)
        .iter()
        .map(|p| store.get(p).cloned())
        .collect::<Result<_, _>>()?;
    Ok(SuiteAgg {
        label: kind.label().to_string(),
        programs,
    })
}

fn gather_up(
    store: &PointStore,
    config: &SystemConfig,
    o: &HarnessOpts,
) -> Result<Vec<SuiteAgg>, MissingPoint> {
    UP_SUITES
        .iter()
        .map(|&kind| gather_suite(store, config, kind, o))
        .collect()
}

fn gather_smp(
    store: &PointStore,
    config: &SystemConfig,
    o: &HarnessOpts,
) -> Result<SuiteAgg, MissingPoint> {
    let m = store.get(&smp_point(config, o))?.clone();
    Ok(SuiteAgg {
        label: format!("TPC-C({}P)", o.smp_cpus),
        programs: vec![m],
    })
}

// ---------------------------------------------------------------------
// Table builders
// ---------------------------------------------------------------------

fn ipc_ratio_table(base_name: &str, alt_name: &str, rows: &[(SuiteAgg, SuiteAgg)]) -> Table {
    let mut t = Table::new(vec![
        "workload".to_string(),
        format!("{base_name} IPC"),
        format!("{alt_name} IPC"),
        format!("{alt_name}/{base_name} %"),
        "delta %".to_string(),
    ]);
    for (base, alt) in rows {
        let ratio = if base.ipc() > 0.0 {
            alt.ipc() / base.ipc() * 100.0
        } else {
            0.0
        };
        t.row(vec![
            base.label.clone(),
            format!("{:.3}", base.ipc()),
            format!("{:.3}", alt.ipc()),
            format!("{ratio:.1}"),
            format!("{:+.1}", relative_change_percent(alt.ipc(), base.ipc())),
        ]);
    }
    t
}

fn ratio_table(
    metric_name: &str,
    series: &[(&str, &[SuiteAgg])],
    metric: impl Fn(&SuiteAgg) -> f64,
) -> Table {
    let mut headers = vec!["workload".to_string()];
    headers.extend(
        series
            .iter()
            .map(|(name, _)| format!("{name} {metric_name}")),
    );
    let mut t = Table::new(headers);
    for i in 0..series[0].1.len() {
        let mut row = vec![series[0].1[i].label.clone()];
        row.extend(series.iter().map(|(_, s)| format!("{:.4}", metric(&s[i]))));
        t.row(row);
    }
    t
}

// ---------------------------------------------------------------------
// Shared configurations
// ---------------------------------------------------------------------

fn base() -> SystemConfig {
    SystemConfig::sparc64_v()
}

fn two_way() -> SystemConfig {
    let b = base();
    b.clone().with_core(b.core.clone().with_issue_width(2))
}

fn small_bht() -> SystemConfig {
    let b = base();
    b.clone().with_core(b.core.clone().with_small_bht())
}

fn small_l1() -> SystemConfig {
    let b = base();
    b.clone().with_mem(b.mem.clone().with_small_l1())
}

fn off_chip_l2_2way() -> SystemConfig {
    let b = base();
    b.clone().with_mem(b.mem.clone().with_off_chip_l2_2way())
}

fn off_chip_l2_direct() -> SystemConfig {
    let b = base();
    b.clone().with_mem(b.mem.clone().with_off_chip_l2_direct())
}

fn no_prefetch() -> SystemConfig {
    let b = base();
    b.clone().with_mem(b.mem.clone().without_prefetch())
}

fn unified_rs() -> SystemConfig {
    let b = base();
    b.clone().with_core(b.core.clone().with_unified_rs())
}

/// Figure 7's cumulative-idealization ladder: base, +perfect L2,
/// +perfect L1/TLB, +perfect branch prediction (each on top of the
/// previous).
fn fig07_ladder() -> [SystemConfig; 4] {
    let b = base();
    let l2 = b.clone().with_mem(b.mem.clone().with_perfect_l2());
    let l1 = l2
        .clone()
        .with_mem(l2.mem.clone().with_perfect_l1().with_perfect_tlb());
    let br = l1
        .clone()
        .with_core(l1.core.clone().with_perfect_branch_prediction());
    [b, l2, l1, br]
}

/// Raw-seed program points (figures that generate each program's trace
/// straight from the base seed rather than the per-program derivation).
fn raw_seed_points(config: &SystemConfig, kind: SuiteKind, o: &HarnessOpts) -> Vec<SimPoint> {
    (0..Suite::preset(kind).programs().len())
        .map(|index| SimPoint {
            config: config.clone(),
            work: WorkUnit::Program { suite: kind, index },
            records: o.records,
            warmup: o.warmup,
            seed: o.seed,
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figures
// ---------------------------------------------------------------------

/// One experiment: its identity, its points, and its render step.
pub struct FigureDef {
    /// Output name (also the `results/<name>.csv` stem).
    pub name: &'static str,
    /// Builds the simulation points the figure needs.
    pub points: fn(&HarnessOpts) -> Vec<SimPoint>,
    /// Renders the figure (banner, tables, CSVs) from resolved points.
    /// An `Err` means a required point failed or — for the verification
    /// figure — the model check itself did not pass.
    pub render: fn(&HarnessOpts, &PointStore) -> Result<(), String>,
}

macro_rules! two_config_ipc_figure {
    ($points:ident, $render:ident, $base:expr, $alt:expr, $base_name:expr, $alt_name:expr,
     $csv:expr, $title:expr, $paper:expr, $expect:expr) => {
        fn $points(o: &HarnessOpts) -> Vec<SimPoint> {
            let mut pts = up_points(&$base, o);
            pts.extend(up_points(&$alt, o));
            pts
        }

        fn $render(o: &HarnessOpts, store: &PointStore) -> Result<(), String> {
            banner($title, $paper, $expect);
            let base = gather_up(store, &$base, o).map_err(|e| e.to_string())?;
            let alt = gather_up(store, &$alt, o).map_err(|e| e.to_string())?;
            let rows: Vec<_> = base.into_iter().zip(alt).collect();
            emit($csv, &ipc_ratio_table($base_name, $alt_name, &rows));
            Ok(())
        }
    };
}

two_config_ipc_figure!(
    fig08_points,
    fig08_render,
    base(),
    two_way(),
    "4-way",
    "2-way",
    "fig08_issue_width",
    "Figure 8 — Issue width: 4-way vs 2-way",
    "§4.3.1, Fig 8",
    "2-way is a bottleneck everywhere; SPECint95/2000 lose the most (high cache-hit ratios)"
);

two_config_ipc_figure!(
    fig09_points,
    fig09_render,
    base(),
    small_bht(),
    "16k-4w.2t",
    "4k-2w.1t",
    "fig09_bht",
    "Figure 9 — BHT: latency vs size",
    "§4.3.2, Fig 9",
    "SPEC ≈ parity (slight 4k benefit possible); TPC-C loses ≈ 5.6% IPC on the small table"
);

two_config_ipc_figure!(
    fig11_points,
    fig11_render,
    base(),
    small_l1(),
    "128k-2w.4c",
    "32k-1w.3c",
    "fig11_l1",
    "Figure 11 — L1 cache: latency vs volume",
    "§4.3.3, Fig 11",
    "TPC-C loses ≈ 2.0% IPC on the small fast L1; SPEC nearly neutral"
);

two_config_ipc_figure!(
    fig16_points,
    fig16_render,
    no_prefetch(),
    base(),
    "without",
    "with",
    "fig16_prefetch",
    "Figure 16 — Hardware prefetching impact",
    "§4.3.5, Fig 16",
    "SPECfp gains > 13% IPC (chain access pattern); int/TPC-C gain modestly"
);

two_config_ipc_figure!(
    fig18_points,
    fig18_render,
    unified_rs(),
    base(),
    "1RS",
    "2RS",
    "fig18_rs",
    "Figure 18 — Reservation station: 1RS vs 2RS",
    "§4.4.1, Fig 18",
    "2RS slightly below 1RS (≈ 1–2%); the simpler structure was adopted anyway"
);

fn fig07_points(o: &HarnessOpts) -> Vec<SimPoint> {
    fig07_ladder()
        .iter()
        .flat_map(|cfg| {
            UP_SUITES
                .iter()
                .flat_map(move |&kind| raw_seed_points(cfg, kind, o))
        })
        .collect()
}

fn fig07_render(o: &HarnessOpts, store: &PointStore) -> Result<(), String> {
    banner(
        "Figure 7 — Benchmark characteristics",
        "§4.2, Fig 7",
        "SPECint95 branch ≈ 30% vs SPECfp95 ≈ 3%; SPECfp95 core ≈ 74%; TPC-C sx ≈ 35%",
    );
    let ladder = fig07_ladder();
    let mut t = Table::with_headers(&["workload", "sx", "ibs/tlb", "branch", "core"]);
    for kind in UP_SUITES {
        // Per-program cumulative-idealization fractions (what each
        // idealization step removes, as a share of base cycles; `core` is
        // the residue), then the suite mean.
        let cycles_per_config: Vec<Vec<f64>> = ladder
            .iter()
            .map(|cfg| {
                raw_seed_points(cfg, kind, o)
                    .iter()
                    .map(|p| Ok(store.get(p)?.cycles as f64))
                    .collect::<Result<_, MissingPoint>>()
            })
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let n = cycles_per_config[0].len();
        let mut sums = [0.0f64; 4]; // sx, ibs/tlb, branch, core
        for (i, &b) in cycles_per_config[0].iter().enumerate() {
            let (t1, t2, t3) = (
                cycles_per_config[1][i],
                cycles_per_config[2][i],
                cycles_per_config[3][i],
            );
            let sx = ((b - t1) / b).max(0.0);
            let ibs_tlb = ((t1 - t2) / b).max(0.0);
            let branch = ((t2 - t3) / b).max(0.0);
            let core = (1.0 - sx - ibs_tlb - branch).max(0.0);
            for (slot, v) in sums.iter_mut().zip([sx, ibs_tlb, branch, core]) {
                *slot += v;
            }
        }
        let mut row = vec![kind.label().to_string()];
        row.extend(sums.iter().map(|s| format!("{:.2}", s / n as f64)));
        t.row(row);
    }
    emit("fig07_breakdown", &t);
    Ok(())
}

fn fig10_points(o: &HarnessOpts) -> Vec<SimPoint> {
    let mut pts = up_points(&base(), o);
    pts.extend(up_points(&small_bht(), o));
    pts
}

fn fig10_render(o: &HarnessOpts, store: &PointStore) -> Result<(), String> {
    banner(
        "Figure 10 — Branch prediction failures",
        "§4.3.2, Fig 10",
        "SPEC rates ≈ equal on both tables; TPC-C's 4k-2w.1t rate ≈ 60% higher than 16k-4w.2t",
    );
    let large = gather_up(store, &base(), o).map_err(|e| e.to_string())?;
    let small = gather_up(store, &small_bht(), o).map_err(|e| e.to_string())?;
    let t = ratio_table(
        "mispredict %",
        &[("16k-4w.2t", &large), ("4k-2w.1t", &small)],
        |s| s.mispredict().percent(),
    );
    emit("fig10_bpred_miss", &t);
    for (l, s) in large.iter().zip(&small) {
        let inc = if l.mispredict().value() > 0.0 {
            (s.mispredict().value() / l.mispredict().value() - 1.0) * 100.0
        } else {
            0.0
        };
        println!(
            "{}: small-table failure rate {:+.0}% vs large",
            l.label, inc
        );
    }
    Ok(())
}

fn fig12_points(o: &HarnessOpts) -> Vec<SimPoint> {
    let mut pts = up_points(&base(), o);
    pts.extend(up_points(&small_l1(), o));
    pts
}

fn fig12_render(o: &HarnessOpts, store: &PointStore) -> Result<(), String> {
    banner(
        "Figure 12 — L1 instruction cache miss",
        "§4.3.3, Fig 12",
        "TPC-C: 32k-1w instruction miss rate ≈ 99% greater than 128k-2w",
    );
    let big = gather_up(store, &base(), o).map_err(|e| e.to_string())?;
    let small = gather_up(store, &small_l1(), o).map_err(|e| e.to_string())?;
    let t = ratio_table(
        "L1I miss %",
        &[("128k-2w.4c", &big), ("32k-1w.3c", &small)],
        |s| s.l1i_miss().percent(),
    );
    emit("fig12_l1i_miss", &t);
    for (b, s) in big.iter().zip(&small) {
        if b.l1i_miss().value() > 0.0 {
            println!(
                "{}: small-cache I-miss {:+.0}% vs large",
                b.label,
                (s.l1i_miss().value() / b.l1i_miss().value() - 1.0) * 100.0
            );
        }
    }
    Ok(())
}

fn fig13_render(o: &HarnessOpts, store: &PointStore) -> Result<(), String> {
    banner(
        "Figure 13 — L1 operand cache miss",
        "§4.3.3, Fig 13",
        "TPC-C: 32k-1w operand miss rate ≈ 64% greater than 128k-2w",
    );
    let big = gather_up(store, &base(), o).map_err(|e| e.to_string())?;
    let small = gather_up(store, &small_l1(), o).map_err(|e| e.to_string())?;
    let t = ratio_table(
        "L1D miss %",
        &[("128k-2w.4c", &big), ("32k-1w.3c", &small)],
        |s| s.l1d_miss().percent(),
    );
    emit("fig13_l1d_miss", &t);
    for (b, s) in big.iter().zip(&small) {
        if b.l1d_miss().value() > 0.0 {
            println!(
                "{}: small-cache D-miss {:+.0}% vs large",
                b.label,
                (s.l1d_miss().value() / b.l1d_miss().value() - 1.0) * 100.0
            );
        }
    }
    Ok(())
}

/// The three L2 designs of Figures 14/15, with their display names.
fn l2_designs() -> [(&'static str, SystemConfig); 3] {
    [
        ("on.2m-4w", base()),
        ("off.8m-2w", off_chip_l2_2way()),
        ("off.8m-1w", off_chip_l2_direct()),
    ]
}

fn fig14_points(o: &HarnessOpts) -> Vec<SimPoint> {
    l2_designs()
        .iter()
        .flat_map(|(_, cfg)| {
            let mut pts = up_points(cfg, o);
            pts.push(smp_point(cfg, o));
            pts
        })
        .collect()
}

fn gather_l2_series(
    store: &PointStore,
    o: &HarnessOpts,
) -> Result<Vec<Vec<SuiteAgg>>, MissingPoint> {
    l2_designs()
        .iter()
        .map(|(_, cfg)| {
            let mut rows = gather_up(store, cfg, o)?;
            rows.push(gather_smp(store, cfg, o)?);
            Ok(rows)
        })
        .collect()
}

fn fig14_render(o: &HarnessOpts, store: &PointStore) -> Result<(), String> {
    banner(
        "Figure 14 — L2 cache: latency vs volume",
        "§4.3.4, Fig 14",
        "off.8m-1w ≈ −14% (TPC-C UP) / −12.4% (16P); off.8m-2w slightly above on.2m-4w",
    );
    let series = gather_l2_series(store, o).map_err(|e| e.to_string())?;
    let mut t = Table::with_headers(&[
        "workload",
        "on.2m-4w IPC",
        "off.8m-2w IPC",
        "off.8m-1w IPC",
        "off.8m-2w %",
        "off.8m-1w %",
    ]);
    for (i, on_chip) in series[0].iter().enumerate() {
        let base = on_chip.ipc();
        let o2 = series[1][i].ipc();
        let o1 = series[2][i].ipc();
        t.row(vec![
            on_chip.label.clone(),
            format!("{base:.3}"),
            format!("{o2:.3}"),
            format!("{o1:.3}"),
            format!("{:.1}", o2 / base * 100.0),
            format!("{:.1}", o1 / base * 100.0),
        ]);
    }
    emit("fig14_l2", &t);
    Ok(())
}

fn fig15_render(o: &HarnessOpts, store: &PointStore) -> Result<(), String> {
    banner(
        "Figure 15 — L2 cache miss",
        "§4.3.4, Fig 15",
        "the 8 MB off-chip designs miss less (esp. TPC-C); direct mapping gives some back",
    );
    let series = gather_l2_series(store, o).map_err(|e| e.to_string())?;
    let mut t = Table::with_headers(&["workload", "on.2m-4w %", "off.8m-2w %", "off.8m-1w %"]);
    for (i, on_chip) in series[0].iter().enumerate() {
        t.row(vec![
            on_chip.label.clone(),
            format!("{:.3}", on_chip.l2_demand_miss().percent()),
            format!("{:.3}", series[1][i].l2_demand_miss().percent()),
            format!("{:.3}", series[2][i].l2_demand_miss().percent()),
        ]);
    }
    emit("fig15_l2_miss", &t);
    Ok(())
}

fn fig17_points(o: &HarnessOpts) -> Vec<SimPoint> {
    let mut pts = up_points(&base(), o);
    pts.extend(up_points(&no_prefetch(), o));
    pts
}

fn fig17_render(o: &HarnessOpts, store: &PointStore) -> Result<(), String> {
    banner(
        "Figure 17 — Hardware prefetching: L2 cache miss",
        "§4.3.5, Fig 17",
        "with-Demand < without (prefetch removes demand misses); with > with-Demand shows useless prefetches",
    );
    let with = gather_up(store, &base(), o).map_err(|e| e.to_string())?;
    let without = gather_up(store, &no_prefetch(), o).map_err(|e| e.to_string())?;
    let mut t = Table::with_headers(&["workload", "with %", "with-Demand %", "without %"]);
    for (w, wo) in with.iter().zip(&without) {
        t.row(vec![
            w.label.clone(),
            format!("{:.3}", w.l2_all_miss().percent()),
            format!("{:.3}", w.l2_demand_miss().percent()),
            format!("{:.3}", wo.l2_demand_miss().percent()),
        ]);
    }
    emit("fig17_prefetch_miss", &t);
    Ok(())
}

/// The CPU2000 suites Figure 19 validates on.
const FIG19_SUITES: [SuiteKind; 2] = [SuiteKind::SpecInt2000, SuiteKind::SpecFp2000];

fn fig19_points(o: &HarnessOpts) -> Vec<SimPoint> {
    ModelVersion::ALL
        .iter()
        .flat_map(|v| {
            let cfg = v.configure(&base());
            FIG19_SUITES
                .iter()
                .flat_map(move |&kind| raw_seed_points(&cfg, kind, o))
        })
        .collect()
}

fn fig19_render(o: &HarnessOpts, store: &PointStore) -> Result<(), String> {
    banner(
        "Figure 19 — Performance model accuracy",
        "§5, Fig 19",
        "estimates decrease v1→v8 except an upward blip at v5; final error < 5% (4.2% int / 3.9% fp)",
    );
    for kind in FIG19_SUITES {
        let names: Vec<String> = Suite::preset(kind)
            .programs()
            .iter()
            .map(|p| p.name().to_string())
            .collect();
        // Cycle counts per (version, workload).
        let cycles: Vec<Vec<f64>> = ModelVersion::ALL
            .iter()
            .map(|v| {
                raw_seed_points(&v.configure(&base()), kind, o)
                    .iter()
                    .map(|p| Ok(store.get(p)?.cycles as f64))
                    .collect::<Result<_, MissingPoint>>()
            })
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let v8_row = cycles.last().expect("ladder is non-empty");
        // The "physical machine": v8 plus the per-program residual.
        let machine: Vec<f64> = names
            .iter()
            .zip(v8_row)
            .map(|(name, &c)| c * (1.0 + machine_residual(name, MACHINE_RESIDUAL_MAX)))
            .collect();

        let mut t = Table::with_headers(&["version", "perf ratio to v8", "error vs machine %"]);
        let mut ratios = Vec::new();
        for (version, row) in ModelVersion::ALL.iter().zip(&cycles) {
            // Performance ∝ 1/cycles; geometric mean of per-program ratios.
            let log_sum: f64 = row.iter().zip(v8_row).map(|(&c, &c8)| (c8 / c).ln()).sum();
            let perf_ratio = (log_sum / row.len() as f64).exp();
            let err: f64 = row
                .iter()
                .zip(&machine)
                .map(|(&c, &m)| ((c - m) / m).abs())
                .sum::<f64>()
                / row.len() as f64;
            t.row(vec![
                version.to_string(),
                format!("{perf_ratio:.3}"),
                format!("{:.2}", err * 100.0),
            ]);
            ratios.push(perf_ratio);
        }
        println!("--- {} ---", kind.label());
        emit(&format!("fig19_accuracy_{}", kind.label()), &t);
        let v5_up = ratios[4] > ratios[3];
        println!(
            "v5 blip (estimate rises when specials get detailed modeling): {}",
            if v5_up {
                "reproduced"
            } else {
                "NOT reproduced"
            }
        );
    }
    Ok(())
}

fn verify_points(o: &HarnessOpts) -> Vec<SimPoint> {
    UP_SUITES
        .iter()
        .flat_map(|&kind| {
            (0..Suite::preset(kind).programs().len()).map(move |index| SimPoint {
                config: base(),
                work: WorkUnit::Verify { suite: kind, index },
                records: o.records,
                warmup: o.warmup,
                seed: o.seed,
            })
        })
        .collect()
}

fn verify_render(o: &HarnessOpts, store: &PointStore) -> Result<(), String> {
    banner(
        "Model verification — detailed model vs scalar reference",
        "§2.2 (logic-simulator cross-check analogue)",
        "identical architectural work; the out-of-order model is never slower",
    );
    let all = verify_points(o);
    let mut t = Table::with_headers(&[
        "workload",
        "model cycles",
        "reference cycles",
        "speedup",
        "verdict",
    ]);
    let mut all_ok = true;
    for kind in UP_SUITES {
        let checks: Vec<&PointMetrics> = all
            .iter()
            .filter(|p| matches!(p.work, WorkUnit::Verify { suite, .. } if suite == kind))
            .map(|p| store.get(p))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
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
    emit("verify_model", &t);
    if all_ok {
        Ok(())
    } else {
        Err("model/reference verification mismatch".to_string())
    }
}

/// The §3.1/§3.2 ablation configurations, with their display names.
fn ablation_configs() -> [(&'static str, SystemConfig); 5] {
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
    [
        ("base", b),
        ("no-spec-dispatch", no_spec),
        ("no-forwarding", no_fwd),
        ("single-port-L1D", single_port),
        ("wrong-path-fetch", wrong_path),
    ]
}

fn ablation_points(o: &HarnessOpts) -> Vec<SimPoint> {
    ablation_configs()
        .iter()
        .flat_map(|(_, cfg)| up_points(cfg, o))
        .collect()
}

fn ablation_render(o: &HarnessOpts, store: &PointStore) -> Result<(), String> {
    banner(
        "Ablations — speculative dispatch / data forwarding / dual access",
        "§3.1, §3.2",
        "each technique should contribute IPC; dual access matters most for memory-heavy work",
    );
    let results: Vec<Vec<SuiteAgg>> = ablation_configs()
        .iter()
        .map(|(_, cfg)| gather_up(store, cfg, o))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut t = Table::with_headers(&[
        "workload",
        "base IPC",
        "no-spec %",
        "no-fwd %",
        "1-port %",
        "wrong-path %",
    ]);
    for (i, base) in results[0].iter().enumerate() {
        let base_ipc = base.ipc();
        let pct = |j: usize| format!("{:.1}", results[j][i].ipc() / base_ipc * 100.0);
        t.row(vec![
            base.label.clone(),
            format!("{base_ipc:.3}"),
            pct(1),
            pct(2),
            pct(3),
            pct(4),
        ]);
    }
    emit("ablation", &t);
    Ok(())
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

const WINDOW_SUITES: [SuiteKind; 2] = [SuiteKind::SpecInt95, SuiteKind::Tpcc];

fn ablation_window_points(o: &HarnessOpts) -> Vec<SimPoint> {
    window_sweep()
        .iter()
        .flat_map(|(_, cfg)| {
            WINDOW_SUITES
                .iter()
                .flat_map(move |&kind| suite_points(cfg, kind, o))
        })
        .collect()
}

fn ablation_window_render(o: &HarnessOpts, store: &PointStore) -> Result<(), String> {
    banner(
        "Sizing sweep — instruction window and load/store queues",
        "Table 1 (design validation)",
        "IPC saturates near the shipped sizes (64-entry window, 16/10 LSQ)",
    );
    let mut t = Table::with_headers(&["configuration", "SPECint95 IPC", "TPC-C IPC"]);
    for (name, cfg) in window_sweep() {
        let int = gather_suite(store, &cfg, SuiteKind::SpecInt95, o).map_err(|e| e.to_string())?;
        let tpcc = gather_suite(store, &cfg, SuiteKind::Tpcc, o).map_err(|e| e.to_string())?;
        t.row(vec![
            name,
            format!("{:.3}", int.ipc()),
            format!("{:.3}", tpcc.ipc()),
        ]);
    }
    emit("ablation_window", &t);
    Ok(())
}

/// The SMP bus-network ablation's configurations.
fn bus_configs() -> [(&'static str, SystemConfig); 3] {
    let flat = base();
    let hier4 = flat
        .clone()
        .with_mem(flat.mem.clone().with_hierarchical_bus(4, 12));
    let hier2 = flat
        .clone()
        .with_mem(flat.mem.clone().with_hierarchical_bus(2, 12));
    [
        ("flat", flat),
        ("boards of 4 + backplane", hier4),
        ("boards of 2 + backplane", hier2),
    ]
}

fn ablation_bus_points(o: &HarnessOpts) -> Vec<SimPoint> {
    bus_configs()
        .iter()
        .map(|(_, cfg)| smp_point(cfg, o))
        .collect()
}

fn ablation_bus_render(o: &HarnessOpts, store: &PointStore) -> Result<(), String> {
    banner(
        "Ablation — SMP bus network: flat vs board + backplane",
        "§2.1 (system-level communication structure)",
        "board crossings tax coherence; throughput drops as sharing spans boards",
    );
    let mut t = Table::with_headers(&["topology", "TPC-C SMP IPC", "move-outs", "bus util %"]);
    for (name, cfg) in bus_configs() {
        let r = gather_smp(store, &cfg, o).map_err(|e| e.to_string())?;
        let m = &r.programs[0];
        t.row(vec![
            name.to_string(),
            format!("{:.3}", r.ipc()),
            m.move_outs.to_string(),
            format!("{:.1}", m.bus_utilization() * 100.0),
        ]);
    }
    emit("ablation_bus", &t);
    Ok(())
}

fn cpi_stack_points(o: &HarnessOpts) -> Vec<SimPoint> {
    up_points(&base(), o)
}

fn cpi_stack_render(o: &HarnessOpts, store: &PointStore) -> Result<(), String> {
    banner(
        "Online CPI stacks",
        "§4.2 (cross-check of Fig 7 by a second method)",
        "L2-miss blame dominates TPC-C; execute dominates SPECfp; branches show on int",
    );
    let mut t = Table::with_headers(&[
        "workload",
        "busy",
        "L2-miss",
        "L1-miss",
        "execute",
        "dispatch",
        "fe-branch",
        "fe-fetch",
    ]);
    for kind in UP_SUITES {
        let agg = gather_suite(store, &base(), kind, o).map_err(|e| e.to_string())?;
        let mut sums = [0u64; 7];
        for p in &agg.programs {
            for (slot, c) in sums.iter_mut().zip(p.stalls) {
                *slot += c;
            }
        }
        let total: u64 = sums.iter().sum();
        let mut row = vec![kind.label().to_string()];
        row.extend(
            sums.iter()
                .map(|&c| format!("{:.2}", c as f64 / total.max(1) as f64)),
        );
        t.row(row);
    }
    emit("cpi_stack", &t);
    Ok(())
}

fn cpi_topdown_points(o: &HarnessOpts) -> Vec<SimPoint> {
    up_points(&base(), o)
}

fn cpi_topdown_render(o: &HarnessOpts, store: &PointStore) -> Result<(), String> {
    banner(
        "Top-down CPI accounting",
        "§4.2 (Fig 7 stall breakdown via exhaustive cycle blame)",
        "conservation-checked: the five groups partition every core cycle",
    );
    let mut t = Table::with_headers(&[
        "workload",
        "CPI",
        "retire",
        "frontend",
        "bad-spec",
        "backend-core",
        "backend-mem",
        "top stall leaf",
    ]);
    for kind in UP_SUITES {
        let agg = gather_suite(store, &base(), kind, o).map_err(|e| e.to_string())?;
        let mut stack = CpiStack::default();
        let mut committed = 0u64;
        for p in &agg.programs {
            stack.merge(&CpiStack::from_cells(p.cpi));
            committed += p.committed;
        }
        let total = stack.total().max(1);
        let top_stall = CpiLeaf::ALL
            .into_iter()
            .filter(|l| *l != CpiLeaf::Retire)
            .max_by_key(|l| stack.get(*l))
            .expect("taxonomy has stall leaves");
        let mut row = vec![
            kind.label().to_string(),
            format!("{:.3}", total as f64 / committed.max(1) as f64),
        ];
        row.extend(
            CpiGroup::ALL
                .into_iter()
                .map(|g| format!("{:.2}", stack.group_total(g) as f64 / total as f64)),
        );
        row.push(top_stall.path());
        t.row(row);
    }
    emit("cpi_topdown", &t);
    Ok(())
}

/// The stability study's comparisons: (name, base config, alt config,
/// suite, program index).
fn stability_comparisons() -> [(&'static str, SystemConfig, SystemConfig, SuiteKind, usize); 3] {
    [
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
    ]
}

fn stability_seeds(o: &HarnessOpts) -> Vec<u64> {
    (0..5).map(|i| o.seed + i * 101).collect()
}

fn stability_point(
    cfg: &SystemConfig,
    kind: SuiteKind,
    index: usize,
    seed: u64,
    o: &HarnessOpts,
) -> SimPoint {
    SimPoint {
        config: cfg.clone(),
        work: WorkUnit::Program { suite: kind, index },
        records: o.records / 2,
        warmup: o.warmup / 2,
        seed,
    }
}

fn stability_points(o: &HarnessOpts) -> Vec<SimPoint> {
    stability_comparisons()
        .iter()
        .flat_map(|(_, base_cfg, alt_cfg, kind, index)| {
            stability_seeds(o).into_iter().flat_map(move |seed| {
                [
                    stability_point(base_cfg, *kind, *index, seed, o),
                    stability_point(alt_cfg, *kind, *index, seed, o),
                ]
            })
        })
        .collect()
}

fn stability_render(o: &HarnessOpts, store: &PointStore) -> Result<(), String> {
    banner(
        "Seed stability of the headline comparisons",
        "methodology",
        "every figure's winner keeps winning on every seed (min/max straddle no 1.0)",
    );
    let mut t = Table::with_headers(&["comparison (alt/base IPC)", "mean", "stddev", "min", "max"]);
    for (name, base_cfg, alt_cfg, kind, index) in stability_comparisons() {
        let ratios: Vec<f64> = stability_seeds(o)
            .into_iter()
            .map(|seed| {
                let b = store
                    .get(&stability_point(&base_cfg, kind, index, seed, o))?
                    .ipc();
                let a = store
                    .get(&stability_point(&alt_cfg, kind, index, seed, o))?
                    .ipc();
                Ok(if b == 0.0 { 0.0 } else { a / b })
            })
            .collect::<Result<_, MissingPoint>>()
            .map_err(|e| e.to_string())?;
        let s = SeedStudy::from_values(&ratios);
        t.row(vec![
            name.to_string(),
            format!("{:.3}", s.mean),
            format!("{:.4}", s.stddev),
            format!("{:.3}", s.min),
            format!("{:.3}", s.max),
        ]);
    }
    emit("stability", &t);
    Ok(())
}

fn sampling_accuracy_points(o: &HarnessOpts) -> Vec<SimPoint> {
    let s = crate::validate::SampleOpts::for_sizes(o);
    crate::validate::all_points(o, &s)
}

fn sampling_accuracy_render(o: &HarnessOpts, store: &PointStore) -> Result<(), String> {
    banner(
        "Sampling accuracy — sampled vs full-detail A/B on every UP workload",
        "methodology, Fig 19 discipline",
        "sampled IPC within 2% of full detail; 95% CI covers; per-window CPI conserves",
    );
    let s = crate::validate::SampleOpts::for_sizes(o);
    let report = crate::validate::assess_default(o, &s, store)?;
    emit("sampling_accuracy", &report.table());
    if report.passed() {
        Ok(())
    } else {
        Err(format!(
            "sampling accuracy gate failed — {}",
            report.failures().join("; ")
        ))
    }
}

/// Figures that only print (Table 1, the workload presets) need no points.
fn no_points(_: &HarnessOpts) -> Vec<SimPoint> {
    Vec::new()
}

/// T-1: Table 1, the SPARC64 V microarchitecture parameters, as
/// configured in the model.
fn table1_render(_: &HarnessOpts, _: &PointStore) -> Result<(), String> {
    let cfg = base();
    let core = &cfg.core;
    let mem = &cfg.mem;

    banner(
        "Table 1 — Microarchitecture",
        "Table 1",
        "the model's base configuration reproduces the published parameters",
    );

    let mut t = Table::with_headers(&["parameter", "value"]);
    let kib = |b: u64| format!("{} KB", b / 1024);
    t.row(vec![
        "Instruction set architecture".into(),
        "SPARC-V9 (op-class model)".into(),
    ]);
    t.row(vec![
        "Execution control method".into(),
        "Out-of-order superscalar".into(),
    ]);
    t.row(vec![
        "Issue number".into(),
        format!("{}-way", core.issue_width),
    ]);
    t.row(vec![
        "Instruction window".into(),
        format!("{} instructions", core.window_size),
    ]);
    t.row(vec![
        "Instruction fetch width".into(),
        format!(
            "{} bytes ({} instructions)",
            core.fetch_block_bytes, core.fetch_width
        ),
    ]);
    t.row(vec![
        "Branch history table".into(),
        format!(
            "{}-way, {}K-entry, {}-cycle",
            core.bht.ways,
            core.bht.entries / 1024,
            core.bht.access_cycles
        ),
    ]);
    t.row(vec![
        "Execution units".into(),
        "Fixed-point: 2, Floating-point: 2 (multiply-add), Address generator: 2".into(),
    ]);
    t.row(vec![
        "Reservation stations".into(),
        format!(
            "RSE: {}({}/{}) fixed-point, RSF: {}({}/{}) floating-point, RSA: {}, RSBR: {}",
            2 * core.rse_entries,
            core.rse_entries,
            core.rse_entries,
            2 * core.rsf_entries,
            core.rsf_entries,
            core.rsf_entries,
            core.rsa_entries,
            core.rsbr_entries
        ),
    ]);
    t.row(vec![
        "Renaming registers".into(),
        format!(
            "Fixed-point: {}, Floating-point: {}",
            core.int_rename_regs, core.fp_rename_regs
        ),
    ]);
    t.row(vec![
        "Load/Store queue".into(),
        format!("{}/{} entries", core.load_queue, core.store_queue),
    ]);
    t.row(vec![
        "Level 1 cache (I/D)".into(),
        format!("{}-way, {}", mem.l1i.ways, kib(mem.l1i.capacity_bytes)),
    ]);
    t.row(vec![
        "L1 operand banks".into(),
        format!("{} × {} bytes", mem.l1d_banks, mem.l1d_bank_bytes),
    ]);
    t.row(vec![
        "Level 2 cache".into(),
        format!(
            "On-chip {}-way {} MB",
            mem.l2.ways,
            mem.l2.capacity_bytes >> 20
        ),
    ]);
    t.row(vec![
        "Hardware prefetch".into(),
        format!("enabled, degree {}", mem.prefetch_degree),
    ]);
    emit("table1", &t);
    Ok(())
}

/// Every workload preset's calibrated parameters (§4.1 analogue): the
/// exact knobs this reproduction's synthetic traces are built from.
fn workloads_report_render(_: &HarnessOpts, _: &PointStore) -> Result<(), String> {
    banner(
        "Workload presets",
        "§4.1 (workload and trace generation)",
        "parameters behind the synthetic SPEC CPU95/2000 and TPC-C traces",
    );
    print!("{}", s64v_workloads::describe::full_report());
    Ok(())
}

/// Every experiment, in the evaluation's reporting order (`table1` and
/// `workloads_report` simulate nothing and bracket the rest).
pub const FIGURES: &[FigureDef] = &[
    FigureDef {
        name: "table1",
        points: no_points,
        render: table1_render,
    },
    FigureDef {
        name: "fig07_breakdown",
        points: fig07_points,
        render: fig07_render,
    },
    FigureDef {
        name: "fig08_issue_width",
        points: fig08_points,
        render: fig08_render,
    },
    FigureDef {
        name: "fig09_bht",
        points: fig09_points,
        render: fig09_render,
    },
    FigureDef {
        name: "fig10_bpred_miss",
        points: fig10_points,
        render: fig10_render,
    },
    FigureDef {
        name: "fig11_l1",
        points: fig11_points,
        render: fig11_render,
    },
    FigureDef {
        name: "fig12_l1i_miss",
        points: fig12_points,
        render: fig12_render,
    },
    FigureDef {
        name: "fig13_l1d_miss",
        points: fig12_points, // same configurations as Figure 12
        render: fig13_render,
    },
    FigureDef {
        name: "fig14_l2",
        points: fig14_points,
        render: fig14_render,
    },
    FigureDef {
        name: "fig15_l2_miss",
        points: fig14_points, // same configurations as Figure 14
        render: fig15_render,
    },
    FigureDef {
        name: "fig16_prefetch",
        points: fig16_points,
        render: fig16_render,
    },
    FigureDef {
        name: "fig17_prefetch_miss",
        points: fig17_points,
        render: fig17_render,
    },
    FigureDef {
        name: "fig18_rs",
        points: fig18_points,
        render: fig18_render,
    },
    FigureDef {
        name: "fig19_accuracy",
        points: fig19_points,
        render: fig19_render,
    },
    FigureDef {
        name: "verify_model",
        points: verify_points,
        render: verify_render,
    },
    FigureDef {
        name: "ablation",
        points: ablation_points,
        render: ablation_render,
    },
    FigureDef {
        name: "ablation_window",
        points: ablation_window_points,
        render: ablation_window_render,
    },
    FigureDef {
        name: "ablation_bus",
        points: ablation_bus_points,
        render: ablation_bus_render,
    },
    FigureDef {
        name: "cpi_stack",
        points: cpi_stack_points,
        render: cpi_stack_render,
    },
    FigureDef {
        name: "cpi_topdown",
        points: cpi_topdown_points,
        render: cpi_topdown_render,
    },
    FigureDef {
        name: "stability",
        points: stability_points,
        render: stability_render,
    },
    FigureDef {
        name: "sampling_accuracy",
        points: sampling_accuracy_points,
        render: sampling_accuracy_render,
    },
    FigureDef {
        name: "workloads_report",
        points: no_points,
        render: workloads_report_render,
    },
];

/// Looks a figure up by name.
pub fn figure(name: &str) -> Option<&'static FigureDef> {
    FIGURES.iter().find(|f| f.name == name)
}

/// All figure names, in reporting order.
pub fn figure_names() -> Vec<&'static str> {
    FIGURES.iter().map(|f| f.name).collect()
}

// ---------------------------------------------------------------------
// Campaign orchestration
// ---------------------------------------------------------------------

/// Engine execution options; the `campaign` binary sets each from its
/// flag of the same name. The default runs uncached, unchecked and
/// unobserved on every available core.
#[derive(Debug, Clone, Default)]
pub struct EngineOpts {
    /// Worker threads (`None` = available parallelism).
    pub threads: Option<usize>,
    /// Cache directory (`None` = no cache, no journal).
    pub cache_dir: Option<PathBuf>,
    /// Run every point in checked mode (invariant auditor on).
    pub checked: bool,
    /// Label substrings selecting points for full event tracing.
    pub trace: Vec<String>,
    /// Record interval metrics for every point.
    pub metrics: bool,
    /// Per-point supervision policy (see [`crate::supervise`]).
    pub supervise: SupervisePolicy,
    /// Seeded chaos schedule (`campaign soak` only; `None` = no chaos).
    pub chaos: Option<ChaosPlan>,
}

/// What [`run_figures`] is left with after rendering.
#[derive(Debug)]
pub struct RunSummary {
    /// The campaign's aggregate counters.
    pub report: CampaignReport,
    /// This run's simulation failures (point label, panic message).
    pub point_failures: Vec<(String, String)>,
    /// Failures left in the journal by previous runs and still
    /// unresolved (points that succeeded *this* run are filtered out).
    pub prior_failures: Vec<FailedPoint>,
    /// Figures that could not render (name, reason).
    pub render_failures: Vec<(&'static str, String)>,
}

impl RunSummary {
    /// Whether every point simulated, every figure rendered, and no
    /// failure from a previous run is still unresolved. Drives the
    /// campaign binary's exit code.
    pub fn all_ok(&self) -> bool {
        self.point_failures.is_empty()
            && self.render_failures.is_empty()
            && self.prior_failures.is_empty()
    }

    /// One-line failure accounting for the end of the run, or `None`
    /// when everything passed.
    pub fn failure_line(&self) -> Option<String> {
        if self.all_ok() {
            return None;
        }
        Some(format!(
            "campaign FAILED: {} point(s) failed this run, {} unresolved from previous runs, {} figure(s) did not render",
            self.point_failures.len(),
            self.prior_failures.len(),
            self.render_failures.len(),
        ))
    }
}

/// Runs the named figures as one merged, deduplicated campaign and
/// renders each from the shared result store.
///
/// Returns `Err` only for unknown figure names or cache/journal I/O
/// failures; simulation and render failures are reported in the summary
/// so one broken point cannot take down a whole evaluation run.
pub fn run_figures(
    names: &[&str],
    opts: &HarnessOpts,
    engine: &EngineOpts,
    progress: Option<Sender<ProgressEvent>>,
) -> Result<RunSummary, String> {
    let figures: Vec<&FigureDef> = names
        .iter()
        .map(|n| figure(n).ok_or_else(|| format!("unknown figure: {n}")))
        .collect::<Result<_, _>>()?;

    // Merge and deduplicate: identical fingerprints are one simulation.
    let mut points: Vec<SimPoint> = Vec::new();
    let mut seen: HashMap<Fingerprint, ()> = HashMap::new();
    for fig in &figures {
        for p in (fig.points)(opts) {
            if seen.insert(p.fingerprint(), ()).is_none() {
                points.push(p);
            }
        }
    }

    let spec = CampaignSpec {
        name: names.join(","),
        points,
        threads: engine.threads,
        cache_dir: engine.cache_dir.clone(),
        checked: engine.checked,
        fault: None,
        observe: ObservePlan {
            trace_matches: engine.trace.clone(),
            metrics: engine.metrics,
            ..ObservePlan::default()
        },
        heartbeat: Some(Duration::from_secs(10)),
        supervise: engine.supervise.clone(),
        chaos: engine.chaos,
    };
    let outcome = run_campaign(&spec, progress).map_err(|e| format!("campaign I/O: {e}"))?;
    let store = PointStore::from_run(&spec.points, &outcome.outcomes);

    let mut render_failures = Vec::new();
    for (i, fig) in figures.iter().enumerate() {
        if i > 0 {
            println!();
        }
        if let Err(reason) = (fig.render)(opts, &store) {
            render_failures.push((fig.name, reason));
        }
    }
    let point_failures = outcome
        .failures()
        .into_iter()
        .map(|(i, error, dump)| {
            let mut msg = error.to_string();
            if let Some(path) = dump {
                msg.push_str(&format!(" (diagnostic dump: {})", path.display()));
            }
            (spec.points[i].label(), msg)
        })
        .collect();
    // A journaled failure counts as unresolved only while no success for
    // the same point exists: the journal's own later-ok rule covers
    // previous runs, and this filter covers successes from *this* run
    // (the prior list was snapshotted before the campaign started).
    let completed: std::collections::HashSet<Fingerprint> = spec
        .points
        .iter()
        .zip(&outcome.outcomes)
        .filter(|(_, o)| matches!(o, PointOutcome::Metrics(_)))
        .map(|(p, _)| p.fingerprint())
        .collect();
    let prior_failures = outcome
        .prior_failures
        .into_iter()
        .filter(|f| !completed.contains(&f.fingerprint))
        .collect();
    Ok(RunSummary {
        report: outcome.report,
        point_failures,
        prior_failures,
        render_failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_consistent() {
        assert_eq!(FIGURES.len(), 23);
        assert!(figure("fig08_issue_width").is_some());
        assert!(figure("nope").is_none());
        let names = figure_names();
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "figure names must be unique");
    }

    #[test]
    fn print_only_figures_bracket_the_registry_and_need_no_points() {
        let names = figure_names();
        assert_eq!(names.first(), Some(&"table1"));
        assert_eq!(names.last(), Some(&"workloads_report"));
        let o = HarnessOpts::smoke();
        for name in ["table1", "workloads_report"] {
            assert!((figure(name).unwrap().points)(&o).is_empty(), "{name}");
        }
    }

    #[test]
    fn merged_campaign_deduplicates_shared_points() {
        let o = HarnessOpts::smoke();
        // fig08 and fig09 share the base configuration's suite runs.
        let fig08 = (figure("fig08_issue_width").unwrap().points)(&o);
        let fig09 = (figure("fig09_bht").unwrap().points)(&o);
        let mut seen = std::collections::HashSet::new();
        let mut merged = 0usize;
        for p in fig08.iter().chain(&fig09) {
            if seen.insert(p.fingerprint()) {
                merged += 1;
            }
        }
        assert!(
            merged < fig08.len() + fig09.len(),
            "base-config points must dedup"
        );
        // Exactly the base set is shared.
        assert_eq!(
            merged,
            fig08.len() + fig09.len() - up_points(&base(), &o).len()
        );
    }

    #[test]
    fn unknown_figures_are_rejected() {
        let err = run_figures(
            &["no_such_figure"],
            &HarnessOpts::smoke(),
            &EngineOpts::default(),
            None,
        )
        .unwrap_err();
        assert!(err.contains("unknown figure"));
    }
}
