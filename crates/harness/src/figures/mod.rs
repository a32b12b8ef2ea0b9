//! The experiment registry: every table/figure of the evaluation, as one
//! table of [`FigureDef`]s.
//!
//! Most figures have one shape — named configurations × a set of
//! workloads × column functions — and are written as a `Grid`: data.
//! A grid's simulation points are *derived* from its configurations and
//! rows, and its renderer looks up exactly those, so what a figure
//! simulates and what it prints cannot drift apart. The few figures of
//! another shape (`paper`'s Table 1 and Fig 19, `extras`' model
//! verification, seed stability, sampling accuracy and workload report)
//! give a hand-written points/render pair in the same struct.
//!
//! [`run_figures`] merges the points of all requested figures,
//! **deduplicates them by fingerprint** (the base configuration's suite
//! runs are shared by most figures, so a merged campaign simulates them
//! once), executes the campaign, and renders every figure from the one
//! result store onto a [`Page`].

mod extras;
mod paper;

use crate::engine::{run_campaign, PointOutcome};
use crate::progress::{CampaignReport, ProgressEvent};
use crate::spec::{CampaignSpec, HarnessOpts, PointMetrics, SimPoint, WorkUnit};
use s64v_core::fingerprint::Fingerprint;
use s64v_core::{program_seed, SystemConfig};
use s64v_stats::{Ratio, Table};
use s64v_workloads::{Suite, SuiteKind};
use std::collections::{HashMap, HashSet};
use std::sync::mpsc::Sender;
use std::sync::{Arc, LazyLock};

/// The five uniprocessor workloads in the paper's reporting order.
pub const UP_SUITES: [SuiteKind; 5] = [
    SuiteKind::SpecInt95,
    SuiteKind::SpecFp95,
    SuiteKind::SpecInt2000,
    SuiteKind::SpecFp2000,
    SuiteKind::Tpcc,
];

/// Resolved point metrics, addressable by point identity.
#[derive(Debug, Default)]
pub struct PointStore {
    map: HashMap<Fingerprint, PointMetrics>,
}

impl PointStore {
    /// Builds a store from campaign points paired with their outcomes
    /// (failed points are simply absent).
    pub fn from_run<'a>(run: impl IntoIterator<Item = (&'a SimPoint, &'a PointOutcome)>) -> Self {
        let mut store = PointStore::default();
        for (p, o) in run {
            if let Some(m) = o.metrics() {
                store.map.insert(p.fingerprint(), m.clone());
            }
        }
        store
    }

    /// Looks a point's metrics up by fingerprint. `Err` names a point the
    /// figure needed but the campaign could not supply (the simulation
    /// failed, or the figure was rendered against the wrong run).
    pub fn get(&self, point: &SimPoint) -> Result<&PointMetrics, String> {
        let found = self.map.get(&point.fingerprint());
        found.ok_or_else(|| format!("missing point result: {}", point.label()))
    }
}

/// What a figure renders: its text (banner, tables, remarks) in order,
/// and each table again as CSV. Rendering only fills the page;
/// [`Page::publish`] prints it and writes the CSVs.
#[derive(Debug, Default)]
pub struct Page {
    text: String,
    csvs: Vec<(String, String)>,
}

impl Page {
    /// Appends text verbatim.
    pub fn text(&mut self, text: &str) {
        self.text.push_str(text);
    }

    /// Appends one line.
    pub fn line(&mut self, line: impl std::fmt::Display) {
        self.text(&format!("{line}\n"));
    }

    /// Appends the standard header of one experiment.
    pub fn banner(&mut self, experiment: &str, paper_ref: &str, expectation: &str) {
        let rule = "================================================================";
        self.line(format_args!(
            "{rule}\n{experiment}  [{paper_ref}]\npaper expectation: {expectation}\n{rule}"
        ));
    }

    /// Appends a table; publishing also writes it as `<name>.csv`.
    pub fn table(&mut self, name: &str, table: &Table) {
        self.text(&table.to_string());
        self.csvs.push((name.to_string(), table.to_csv()));
    }

    /// Prints the page and writes each table as CSV under `results/`, or
    /// under `S64V_RESULTS_DIR` when set — smoke campaigns (CI) point it
    /// at a scratch directory so reduced-size runs never clobber the
    /// committed full-size tables. The directory is created if missing;
    /// `Err` names the first CSV that could not be written, and why.
    pub fn publish(&self) -> Result<(), String> {
        print!("{}", self.text);
        let dir = std::env::var("S64V_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
        let dir = std::path::Path::new(&dir);
        for (name, csv) in &self.csvs {
            let path = dir.join(format!("{name}.csv"));
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, csv))
                .map_err(|e| format!("could not write {}: {e}", path.display()))?;
        }
        Ok(())
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

    /// An event ratio — a `(numerator, denominator)` field of
    /// [`PointMetrics`] — merged exactly over the programs.
    pub fn ratio(&self, field: Field) -> Ratio {
        self.programs
            .iter()
            .map(|p| {
                let (num, den) = field(p);
                Ratio::of(num, den)
            })
            .fold(Ratio::default(), |acc, r| acc.merge(r))
    }
}

/// Selects one of [`PointMetrics`]' `(misses, accesses)`-style pairs.
pub type Field = fn(&PointMetrics) -> (u64, u64);

// ---------------------------------------------------------------------
// Point builders
// ---------------------------------------------------------------------

/// How a figure seeds its program traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Seeds {
    /// Each program by its own [`program_seed`]: independent streams.
    PerProgram,
    /// Every program straight from the base seed.
    Raw,
}

/// One workload of a figure: a uniprocessor suite, or the TPC-C SMP run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Row {
    /// Every program of the suite on a uniprocessor.
    Suite(SuiteKind),
    /// Lock-stepped TPC-C on `smp_cpus` CPUs.
    Smp,
}

impl Row {
    /// The points that measure this workload on `config` — what a figure
    /// both declares and looks up.
    pub(crate) fn points(
        self,
        config: &SystemConfig,
        seeds: Seeds,
        o: &HarnessOpts,
    ) -> Vec<SimPoint> {
        let Row::Suite(kind) = self else {
            return vec![SimPoint {
                config: SystemConfig {
                    cpus: o.smp_cpus,
                    ..config.clone()
                },
                work: WorkUnit::SmpTpcc,
                records: o.smp_records,
                warmup: o.smp_warmup,
                seed: o.seed,
            }];
        };
        Suite::preset(kind)
            .programs()
            .iter()
            .enumerate()
            .map(|(index, p)| SimPoint {
                config: config.clone(),
                work: WorkUnit::Program { suite: kind, index },
                records: o.records,
                warmup: o.warmup,
                seed: match seeds {
                    Seeds::PerProgram => program_seed(o.seed, p.name()),
                    Seeds::Raw => o.seed,
                },
            })
            .collect()
    }

    /// Its points' metrics from `store`, under the figure label.
    fn gather(
        self,
        store: &PointStore,
        config: &SystemConfig,
        seeds: Seeds,
        o: &HarnessOpts,
    ) -> Result<SuiteAgg, String> {
        Ok(SuiteAgg {
            label: match self {
                Row::Suite(kind) => kind.label().to_string(),
                Row::Smp => format!("TPC-C({}P)", o.smp_cpus),
            },
            programs: self
                .points(config, seeds, o)
                .iter()
                .map(|p| store.get(p).cloned())
                .collect::<Result<_, _>>()?,
        })
    }
}

// ---------------------------------------------------------------------
// Grid figures
// ---------------------------------------------------------------------

/// The five uniprocessor suites as grid rows.
pub(crate) fn up_rows() -> Vec<Row> {
    UP_SUITES.map(Row::Suite).into()
}

/// Which axis of a grid the table's lines run along.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Lines {
    /// One line per workload; a cell sees that workload's aggregate under
    /// each configuration, in configuration order.
    Workloads,
    /// One line per configuration, under this corner header; a cell sees
    /// that configuration's aggregate for each workload, in row order.
    Configs(&'static str),
}

type Cell<T> = Box<dyn Fn(&[&SuiteAgg]) -> T + Send + Sync>;

/// One column of a grid: its header and how a line's cell is computed.
pub(crate) struct Column {
    header: String,
    cell: Cell<String>,
}

/// A column computed by `cell`.
pub(crate) fn col(
    header: impl Into<String>,
    cell: impl Fn(&[&SuiteAgg]) -> String + Send + Sync + 'static,
) -> Column {
    Column {
        header: header.into(),
        cell: Box::new(cell),
    }
}

/// The line's `i`th aggregate's IPC.
pub(crate) fn ipc(i: usize, header: impl Into<String>) -> Column {
    col(header, move |a| format!("{:.3}", a[i].ipc()))
}

/// The `i`th aggregate's IPC as a percentage of the `of`th's.
pub(crate) fn ipc_pct(i: usize, of: usize, header: impl Into<String>) -> Column {
    col(header, move |a| {
        let base = a[of].ipc();
        let pct = if base > 0.0 {
            a[i].ipc() / base * 100.0
        } else {
            0.0
        };
        format!("{pct:.1}")
    })
}

/// The `i`th aggregate's `field` ratio in percent, to `decimals` places.
pub(crate) fn pct(i: usize, header: impl Into<String>, field: Field, decimals: usize) -> Column {
    col(header, move |a| {
        format!("{:.decimals$}", a[i].ratio(field).percent())
    })
}

/// A figure of the common shape, as data.
pub(crate) struct Grid {
    /// Figure name (also its CSV stem).
    pub name: &'static str,
    /// Banner: experiment title, paper reference, paper expectation.
    pub banner: [&'static str; 3],
    /// Display name and configuration of each design point.
    pub configs: Vec<(String, SystemConfig)>,
    /// The columns after the line's label.
    pub columns: Vec<Column>,
    /// The workloads.
    pub rows: Vec<Row>,
    /// How program traces are seeded.
    pub seeds: Seeds,
    /// Which axis the table's lines run along.
    pub lines: Lines,
    /// A remark printed under the table for each line that has one.
    pub note: Option<Cell<Option<String>>>,
}

impl Grid {
    /// The usual grid: the five uniprocessor suites, one line each, every
    /// program on its own seed, no remarks.
    pub(crate) fn new(
        name: &'static str,
        banner: [&'static str; 3],
        configs: Vec<(String, SystemConfig)>,
        columns: Vec<Column>,
    ) -> Self {
        Grid {
            name,
            banner,
            configs,
            columns,
            rows: up_rows(),
            seeds: Seeds::PerProgram,
            lines: Lines::Workloads,
            note: None,
        }
    }

    /// Configurations × rows, configuration-major.
    fn points(&self, o: &HarnessOpts) -> Vec<SimPoint> {
        self.configs
            .iter()
            .flat_map(|(_, cfg)| {
                self.rows
                    .iter()
                    .flat_map(move |r| r.points(cfg, self.seeds, o))
            })
            .collect()
    }

    fn render(&self, o: &HarnessOpts, store: &PointStore, page: &mut Page) -> Result<(), String> {
        let [title, paper, expectation] = self.banner;
        page.banner(title, paper, expectation);
        let cells: Vec<Vec<SuiteAgg>> = self
            .configs
            .iter()
            .map(|(_, cfg)| {
                self.rows
                    .iter()
                    .map(|r| r.gather(store, cfg, self.seeds, o))
                    .collect()
            })
            .collect::<Result<_, _>>()?;
        let (corner, lines): (&str, Vec<(&str, Vec<&SuiteAgg>)>) = match self.lines {
            Lines::Workloads => (
                "workload",
                (0..self.rows.len())
                    .map(|r| {
                        let label = cells[0][r].label.as_str();
                        (label, cells.iter().map(|c| &c[r]).collect())
                    })
                    .collect(),
            ),
            Lines::Configs(corner) => (
                corner,
                self.configs
                    .iter()
                    .zip(&cells)
                    .map(|((name, _), c)| (name.as_str(), c.iter().collect()))
                    .collect(),
            ),
        };
        let mut headers = vec![corner.to_string()];
        headers.extend(self.columns.iter().map(|c| c.header.clone()));
        let mut t = Table::new(headers);
        for (label, aggs) in &lines {
            let mut row = vec![label.to_string()];
            row.extend(self.columns.iter().map(|c| (c.cell)(aggs)));
            t.row(row);
        }
        page.table(self.name, &t);
        for (_, aggs) in &lines {
            if let Some(remark) = self.note.as_ref().and_then(|note| note(aggs)) {
                page.line(remark);
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------

/// One experiment: its identity, its points, and its render step.
pub struct FigureDef {
    /// Output name (also the `results/<name>.csv` stem).
    pub name: &'static str,
    /// Builds the simulation points the figure needs.
    pub points: Points,
    /// Renders the figure (banner, tables) from resolved points. An `Err`
    /// means a required point failed or — for the verification and
    /// sampling figures — the check itself did not pass; what was
    /// rendered up to there stays on the page.
    pub render: Render,
}

/// [`FigureDef::points`]: sizes in, the figure's points out.
pub type Points = Box<dyn Fn(&HarnessOpts) -> Vec<SimPoint> + Send + Sync>;
/// [`FigureDef::render`]: sizes and resolved points in, a filled page out.
pub type Render =
    Box<dyn Fn(&HarnessOpts, &PointStore, &mut Page) -> Result<(), String> + Send + Sync>;

impl FigureDef {
    /// A figure of its own shape: a hand-written points/render pair.
    fn new(
        name: &'static str,
        points: fn(&HarnessOpts) -> Vec<SimPoint>,
        render: fn(&HarnessOpts, &PointStore, &mut Page) -> Result<(), String>,
    ) -> Self {
        FigureDef {
            name,
            points: Box::new(points),
            render: Box::new(render),
        }
    }
}

impl From<Grid> for FigureDef {
    fn from(grid: Grid) -> Self {
        let grid = Arc::new(grid);
        let declared = Arc::clone(&grid);
        FigureDef {
            name: grid.name,
            points: Box::new(move |o| declared.points(o)),
            render: Box::new(move |o, store, page| grid.render(o, store, page)),
        }
    }
}

/// Every experiment, in the evaluation's reporting order (`table1` and
/// `workloads_report` simulate nothing and bracket the rest). Built once
/// per process.
static FIGURES: LazyLock<Vec<FigureDef>> = LazyLock::new(|| {
    let mut all = paper::figures();
    all.extend(extras::figures());
    all
});

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

/// What [`run_figures`] is left with after rendering.
#[derive(Debug)]
pub struct RunSummary {
    /// The campaign's aggregate counters.
    pub report: CampaignReport,
    /// This run's simulation failures (point label, panic message).
    pub point_failures: Vec<(String, String)>,
    /// Figures that could not render (name, reason).
    pub render_failures: Vec<(&'static str, String)>,
}

/// Runs the named figures as one merged, deduplicated campaign executed
/// as `template` says (its name and points are replaced) and renders each
/// from the shared result store.
///
/// Returns `Err` only for unknown figure names or cache directory I/O
/// failures; simulation and render failures are reported in the summary
/// so one broken point cannot take down a whole evaluation run.
pub fn run_figures(
    names: &[&str],
    opts: &HarnessOpts,
    template: &CampaignSpec,
    progress: Option<Sender<ProgressEvent>>,
) -> Result<RunSummary, String> {
    let figures: Vec<&FigureDef> = names
        .iter()
        .map(|n| figure(n).ok_or_else(|| format!("unknown figure: {n} (try --list)")))
        .collect::<Result<_, _>>()?;

    // Merge and deduplicate: identical fingerprints are one simulation.
    let mut points: Vec<SimPoint> = Vec::new();
    let mut seen: HashSet<Fingerprint> = HashSet::new();
    for fig in &figures {
        for p in (fig.points)(opts) {
            if seen.insert(p.fingerprint()) {
                points.push(p);
            }
        }
    }

    let spec = CampaignSpec {
        name: names.join(","),
        points,
        ..template.clone()
    };
    let outcome = run_campaign(&spec, progress).map_err(|e| format!("campaign I/O: {e}"))?;
    let store = PointStore::from_run(spec.points.iter().zip(&outcome.outcomes));

    let mut render_failures = Vec::new();
    for (i, fig) in figures.iter().enumerate() {
        let mut page = Page::default();
        if i > 0 {
            page.line("");
        }
        // What rendered is published either way; the first failure of
        // the two is the figure's.
        let rendered = (fig.render)(opts, &store, &mut page);
        if let Err(reason) = rendered.and(page.publish()) {
            render_failures.push((fig.name, reason));
        }
    }
    let point_failures = outcome
        .failures()
        .into_iter()
        .map(|(i, error, record)| {
            let mut msg = error.to_string();
            if let Some(path) = record {
                msg.push_str(&format!(" (failure record: {})", path.display()));
            }
            (spec.points[i].label(), msg)
        })
        .collect();
    Ok(RunSummary {
        report: outcome.report,
        point_failures,
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
        let unique: HashSet<_> = names.iter().collect();
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

    /// Every figure renders from a store holding exactly the points it
    /// declares, and with any one of them taken out it does not: `points`
    /// and `render` agree, for the hand-written pairs as for the grids.
    #[test]
    fn every_figure_reads_exactly_the_points_it_declares() {
        let o = HarnessOpts::smoke();
        // Plausible, self-consistent metrics: the verification verdict
        // holds and a window's CPI stack conserves its cycles.
        let mut cpi = [0u64; 16];
        cpi[0] = 1_000;
        let metrics = PointOutcome::Metrics(Box::new(PointMetrics {
            cycles: 1_000,
            committed: 800,
            l1i: (1, 100),
            l1d: (2, 100),
            l2_all: (3, 100),
            l2_demand: (2, 90),
            mispredict: (5, 100),
            stalls: [1; 7],
            cpi,
            reference_cycles: 2_000,
            same_work: true,
            ..PointMetrics::default()
        }));
        for fig in FIGURES.iter() {
            let declared = (fig.points)(&o);
            let mut store = PointStore::from_run(declared.iter().map(|p| (p, &metrics)));
            let render = |store: &PointStore| (fig.render)(&o, store, &mut Page::default());
            assert_eq!(render(&store), Ok(()), "{}", fig.name);
            for p in &declared {
                let held = store.map.remove(&p.fingerprint()).expect("declared once");
                let missed = render(&store).is_err();
                assert!(missed, "{} never reads {}", fig.name, p.label());
                store.map.insert(p.fingerprint(), held);
            }
        }
    }

    #[test]
    fn merged_campaign_deduplicates_shared_points() {
        let o = HarnessOpts::smoke();
        // fig08 and fig09 share the base configuration's suite runs.
        let fig08 = (figure("fig08_issue_width").unwrap().points)(&o);
        let fig09 = (figure("fig09_bht").unwrap().points)(&o);
        let mut seen = HashSet::new();
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
        // Exactly the base set — what `cpi_stack` runs — is shared.
        let base = (figure("cpi_stack").unwrap().points)(&o);
        assert_eq!(merged, fig08.len() + fig09.len() - base.len());
    }

    #[test]
    fn unknown_figures_are_rejected() {
        let err = run_figures(
            &["no_such_figure"],
            &HarnessOpts::smoke(),
            &CampaignSpec::new("", Vec::new()),
            None,
        )
        .unwrap_err();
        assert!(err.contains("unknown figure"));
    }
}
