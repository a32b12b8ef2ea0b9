//! Every call the benchmark makes into the simulator.
//!
//! This is the only file that names items from the `s64v-*` crates, the
//! `campaign` command line and the `S64V_*` variables, so a change to
//! the simulator's run paths needs a correction here and nowhere else.

use s64v_core::{program_seed, PerformanceModel, RunOptions, RunResult, SystemConfig};
use s64v_cpu::{Bht, BhtConfig, Core};
use s64v_explore::{ExploreReport, ExploreSpec, Measurement, RoundPlan};
use s64v_harness::cache::ResultCache;
use s64v_harness::engine::{run_campaign, try_execute_point, PointOutcome};
use s64v_harness::explore::{run_explore, ExploreOpts};
use s64v_harness::figures::figure;
use s64v_harness::journal::{journal_path, Journal};
use s64v_harness::progress::ProgressEvent;
use s64v_harness::spec::{CampaignSpec, HarnessOpts, SimPoint, WorkUnit};
use s64v_harness::validate::{full_point, sampled_points, SampleOpts};
use s64v_isa::OpClass;
use s64v_mem::cache::Cache;
use s64v_mem::coherence::{Directory, Mesi};
use s64v_mem::{CacheGeometry, MemorySystem};
use s64v_observe::CpiGroup;
use s64v_trace::{SliceStream, TraceRecord, VecTrace};
use s64v_workloads::{smp_traces, suite::tpcc_program, Suite};
use std::hint::black_box;
use std::path::Path;
use std::process::Command;

pub use s64v_harness::spec::PointMetrics as Metrics;
pub use s64v_observe::json::Value as Json;
pub use s64v_workloads::SuiteKind as SuiteId;

pub type Trace = VecTrace;
pub type Record = TraceRecord;
pub type Config = SystemConfig;
pub type Point = SimPoint;

// ---------------------------------------------------------------------
// s64v-workloads
// ---------------------------------------------------------------------

/// `"SPECint95[0]"`.
pub fn program_label(suite: SuiteId, index: usize) -> String {
    format!("{}[{index}]", suite.label())
}

/// The per-program trace seed campaigns derive from a base seed.
pub fn derived_seed(base: u64, suite: SuiteId, index: usize) -> u64 {
    program_seed(base, Suite::preset(suite).programs()[index].name())
}

pub fn generate(suite: SuiteId, index: usize, records: usize, seed: u64) -> Trace {
    Suite::preset(suite).programs()[index].generate(records, seed)
}

/// One TPC-C trace per CPU with shared regions overlapping.
pub fn generate_smp(cpus: usize, records_per_cpu: usize, seed: u64) -> Vec<Trace> {
    smp_traces(&tpcc_program(), cpus, records_per_cpu, seed)
}

// ---------------------------------------------------------------------
// s64v-core: the run path campaigns use
// ---------------------------------------------------------------------

/// The production configuration with `cpus` processors.
pub fn config(cpus: usize) -> Config {
    SystemConfig::smp(cpus)
}

/// Warm on the first `warmup` records of each trace, then time the rest
/// through the model's `drive` loop (`no_skip` steps every cycle).
pub fn run_warm(traces: &[Trace], warmup: usize, no_skip: bool) -> Result<Metrics, String> {
    let model = PerformanceModel::new(config(traces.len()));
    let opts = RunOptions {
        no_skip,
        ..RunOptions::default()
    };
    let result = match traces {
        [one] => model.try_run_trace_warm(one, warmup, opts),
        many => model.try_run_traces_warm(many, warmup, opts),
    };
    result.map(|r| metrics_of(&r)).map_err(|e| e.to_string())
}

/// The flattening the campaign engine applies to a run's result.
fn metrics_of(r: &RunResult) -> Metrics {
    let pair = |ratio: s64v_stats::Ratio| (ratio.numerator(), ratio.denominator());
    let mut stalls = [0u64; 7];
    let mut cpi = [0u64; 16];
    for c in &r.core_stats {
        let s = &c.stall_cycles;
        for (slot, counter) in stalls.iter_mut().zip([
            s.busy,
            s.l2_miss,
            s.l1_miss,
            s.execute,
            s.dispatch,
            s.frontend_branch,
            s.frontend_fetch,
        ]) {
            *slot += counter.get();
        }
        for (slot, cell) in cpi.iter_mut().zip(c.cpi.cells) {
            *slot += cell;
        }
    }
    Metrics {
        cycles: r.cycles,
        committed: r.committed,
        l1i: pair(r.l1i_miss_ratio()),
        l1d: pair(r.l1d_miss_ratio()),
        l2_all: pair(r.l2_all_miss_ratio()),
        l2_demand: pair(r.l2_demand_miss_ratio()),
        mispredict: pair(r.mispredict_ratio()),
        prefetches: r.prefetches_issued(),
        move_outs: r.move_outs(),
        bus_busy_cycles: r.bus_busy_cycles,
        bus_transactions: r.bus_transactions,
        mean_load_latency: r.mean_load_latency(),
        stalls,
        cpi,
        reference_cycles: 0,
        same_work: true,
    }
}

/// Cycles the top-down stack attributes to one group, in group order:
/// retire, frontend, bad-speculation, backend-core, backend-memory.
pub fn cpi_groups(m: &Metrics) -> [u64; 5] {
    let stack = s64v_observe::CpiStack::from_cells(m.cpi);
    CpiGroup::ALL.map(|g| stack.group_total(g))
}

// ---------------------------------------------------------------------
// s64v-cpu and s64v-mem: the same work, one public call at a time
// ---------------------------------------------------------------------

pub struct Mem(MemorySystem);
pub struct Cpu(Core);

pub fn new_mem(cfg: &Config) -> Mem {
    Mem(MemorySystem::new(cfg.mem.clone(), cfg.cpus))
}

pub fn new_cpu(cfg: &Config, id: usize) -> Cpu {
    Cpu(Core::new(cfg.core.clone(), id))
}

/// The `Core::warm` loop of a warmed run: every CPU's first `warmup`
/// records, interleaved in chunks so shared lines mix.
pub fn warm(cpus: &mut [Cpu], mem: &mut Mem, traces: &[Trace], warmup: usize) {
    const CHUNK: usize = 1024;
    let mut pos = 0;
    while pos < warmup {
        let end = (pos + CHUNK).min(warmup);
        for (cpu, trace) in cpus.iter_mut().zip(traces) {
            for rec in &trace.records()[pos..end] {
                cpu.0.warm(&mut mem.0, rec);
            }
        }
        pos = end;
    }
}

/// `Core::fast_forward` over `records`; returns how many were replayed.
pub fn fast_forward(cpu: &mut Cpu, mem: &mut Mem, records: &[Record]) -> u64 {
    let mut stream = SliceStream::new(records);
    cpu.0
        .fast_forward(&mut mem.0, &mut stream, records.len() as u64)
}

pub fn set_skip(cpu: &mut Cpu, enabled: bool) {
    cpu.0.set_skip(enabled);
}

/// `Core::run_from` cycle 0 over `records`; returns the cycle count.
pub fn detailed(cpu: &mut Cpu, mem: &mut Mem, records: &[Record]) -> Result<u64, String> {
    let mut stream = SliceStream::new(records);
    cpu.0
        .try_run_from(&mut mem.0, &mut stream, 0)
        .map_err(|e| e.to_string())
}

/// Lock-steps every CPU over its records one cycle at a time with no
/// skipping: the multiprocessor loop, written from `Core`'s public
/// per-cycle calls.
pub fn lockstep(cpus: &mut [Cpu], mem: &mut Mem, records: &[&[Record]]) -> Result<u64, String> {
    let mut streams: Vec<SliceStream<'_>> = records.iter().map(|r| SliceStream::new(r)).collect();
    let mut done = vec![false; cpus.len()];
    let mut now = 0u64;
    while done.iter().any(|d| !d) {
        for (i, cpu) in cpus.iter_mut().enumerate() {
            if done[i] {
                continue;
            }
            if cpu.0.is_done(&streams[i]) {
                done[i] = true;
                continue;
            }
            cpu.0
                .try_step(&mut mem.0, &mut streams[i], now)
                .map_err(|e| e.to_string())?;
        }
        now += 1;
    }
    Ok(now.saturating_sub(1))
}

/// What a finished machine measured, in the engine's flattened form.
pub fn collect(cycles: u64, cpus: &[Cpu], mem: &Mem) -> Metrics {
    metrics_of(&RunResult {
        cycles,
        committed: cpus.iter().map(|c| c.0.stats().committed.get()).sum(),
        core_stats: cpus.iter().map(|c| c.0.stats().clone()).collect(),
        mem_stats: (0..cpus.len()).map(|i| mem.0.stats(i).clone()).collect(),
        bus_transactions: mem.0.bus().transactions(),
        bus_busy_cycles: mem.0.bus().busy_cycles(),
    })
}

/// Counters the flattened metrics leave out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Extra {
    pub replays: u64,
    pub dtlb_misses: u64,
    pub prefetch_useful: u64,
}

pub fn extra(cpus: &[Cpu], mem: &Mem) -> Extra {
    let mut e = Extra::default();
    for (i, cpu) in cpus.iter().enumerate() {
        let m = mem.0.stats(i);
        e.replays += cpu.0.stats().replays.get();
        e.dtlb_misses += m.dtlb.misses.get();
        e.prefetch_useful += m.prefetch_useful.get();
    }
    e
}

/// Replays the records' fetch and data addresses through the functional
/// warming entry points with no core; returns the accesses made.
pub fn mem_warm_replay(mem: &mut Mem, cpu: usize, records: &[Record]) -> u64 {
    let mut accesses = records.len() as u64;
    for rec in records {
        mem.0.warm_fetch(cpu, rec.pc);
        if let Some(m) = rec.instr.mem {
            mem.0.warm_data(cpu, m.addr, rec.instr.op == OpClass::Store);
            accesses += 1;
        }
    }
    accesses
}

/// Replays the records' address stream through the timed entry points
/// with no core: one fetch per 32-byte block entered, one load or store
/// per memory operation, CPUs interleaved record by record on a clock
/// that advances two cycles per record. Returns the accesses made.
pub fn mem_timed_replay(mem: &mut Mem, records: &[&[Record]]) -> u64 {
    let longest = records.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut block = vec![u64::MAX; records.len()];
    let mut accesses = 0u64;
    for i in 0..longest {
        let now = 2 * i as u64;
        for (cpu, recs) in records.iter().enumerate() {
            let Some(rec) = recs.get(i) else { continue };
            if rec.pc / 32 != block[cpu] {
                block[cpu] = rec.pc / 32;
                black_box(mem.0.fetch(cpu, rec.pc, now));
                accesses += 1;
            }
            if let Some(m) = rec.instr.mem {
                if rec.instr.op == OpClass::Store {
                    black_box(mem.0.store(cpu, m.addr, now));
                } else {
                    black_box(mem.0.load(cpu, m.addr, now));
                }
                accesses += 1;
            }
        }
    }
    accesses
}

// Component loops, shaped like `crates/bench/benches/components.rs`.

/// `ops` predict-and-update pairs on the production branch history table.
pub fn bht_ops(ops: u64) {
    let mut bht = Bht::new(BhtConfig::large_16k_4w_2t());
    for i in 0..ops {
        let pc = (i % 30_000) * 4;
        black_box(bht.predict(pc));
        bht.update(pc, !i.is_multiple_of(3));
    }
}

/// `ops` lookups (filling on a miss) of an L1-sized cache.
pub fn cache_ops(ops: u64) {
    let mut cache = Cache::new(CacheGeometry::new(128 * 1024, 2, 4));
    for i in 0..ops {
        let addr = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) & 0xf_ffff;
        if !cache.access(addr) {
            cache.fill(addr, false);
        }
    }
}

/// `ops` read, write and evict transitions on a 16-CPU MESI directory.
pub fn directory_ops(ops: u64) {
    let mut dir = Directory::new(16);
    for i in 0..ops {
        let core = (i % 16) as usize;
        let line = (i % 4096) * 64;
        match i % 3 {
            0 if matches!(dir.state(core, line), Mesi::Invalid) => {
                dir.read(core, line);
            }
            1 => {
                dir.write(core, line);
            }
            _ => {
                dir.evict(core, line);
            }
        }
    }
}

// ---------------------------------------------------------------------
// s64v-harness: points, the engine, the cache and the journal
// ---------------------------------------------------------------------

fn harness_opts(records: usize, warmup: usize, seed: u64) -> HarnessOpts {
    HarnessOpts {
        records,
        warmup,
        seed,
        ..HarnessOpts::smoke()
    }
}

/// The points `campaign --figures <name>` runs at these sizes.
pub fn figure_points(name: &str, records: usize, warmup: usize, seed: u64) -> Vec<Point> {
    let def = figure(name).unwrap_or_else(|| panic!("unknown figure {name}"));
    (def.points)(&harness_opts(records, warmup, seed))
}

/// Geometry of one program's sampled run: `windows` detailed windows of
/// `window` records spread over a `region`-record timed region that
/// follows `lead_in` records, each window functionally warmed from
/// record 0 (the validation default).
#[derive(Debug, Clone, Copy)]
pub struct SamplePlanSizes {
    pub lead_in: usize,
    pub region: usize,
    pub windows: usize,
    pub window: usize,
}

pub fn window_points(suite: SuiteId, index: usize, s: &SamplePlanSizes, seed: u64) -> Vec<Point> {
    let o = harness_opts(s.region, s.lead_in, seed);
    let sample = SampleOpts {
        windows: s.windows,
        window: s.window,
        warmup: s.lead_in + s.region,
    };
    sampled_points(suite, index, &o, &sample)
}

/// The full-detail point over the same timed region as [`window_points`].
pub fn reference_point(suite: SuiteId, index: usize, s: &SamplePlanSizes, seed: u64) -> Point {
    full_point(suite, index, &harness_opts(s.region, s.lead_in, seed))
}

/// A program point on `cfg`.
pub fn program_point(
    cfg: &Config,
    suite: SuiteId,
    index: usize,
    records: usize,
    warmup: usize,
    seed: u64,
) -> Point {
    SimPoint {
        config: cfg.clone(),
        work: WorkUnit::Program { suite, index },
        records,
        warmup,
        seed,
    }
}

/// What a point simulates, for driving it by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// Warm `warmup` records, time the next `records`.
    Program { suite: SuiteId, index: usize },
    /// Fast-forward up to `warmup` records before `start`, time `len`;
    /// the point's `records` is the whole trace's length.
    Window {
        suite: SuiteId,
        index: usize,
        start: usize,
        len: usize,
    },
}

pub fn work_of(p: &Point) -> Work {
    match p.work {
        WorkUnit::Program { suite, index } => Work::Program { suite, index },
        WorkUnit::SampledWindow {
            suite,
            index,
            start,
            len,
        } => Work::Window {
            suite,
            index,
            start,
            len,
        },
        WorkUnit::SmpTpcc | WorkUnit::Verify { .. } => {
            panic!("the benchmark builds no {:?} points", p.work)
        }
    }
}

pub fn point_label(p: &Point) -> String {
    p.label()
}

pub fn fingerprint_hex(p: &Point) -> String {
    p.fingerprint().to_hex()
}

/// The engine's own execution of one point.
pub fn execute_point(p: &Point) -> Result<Metrics, String> {
    try_execute_point(p, RunOptions::default()).map_err(|e| e.to_string())
}

/// What one `run_campaign` call produced.
pub struct CampaignRun {
    /// Per point, in order: its metrics or why it has none.
    pub outcomes: Vec<Result<Metrics, String>>,
    /// Attempts that failed transiently and were re-run.
    pub retries: usize,
}

pub fn campaign(
    points: &[Point],
    threads: usize,
    cache_dir: Option<&Path>,
) -> Result<CampaignRun, String> {
    let mut spec = CampaignSpec::new("benchmark", points.to_vec())
        .with_threads(threads)
        .with_heartbeat(None);
    spec.cache_dir = cache_dir.map(Path::to_path_buf);
    let out = run_campaign(&spec, None).map_err(|e| format!("campaign I/O: {e}"))?;
    Ok(CampaignRun {
        outcomes: out
            .outcomes
            .into_iter()
            .map(|o| match o {
                PointOutcome::Metrics(m) => Ok(*m),
                PointOutcome::Failed { error, .. } | PointOutcome::TimedOut { error, .. } => {
                    Err(error)
                }
            })
            .collect(),
        retries: out.report.retries,
    })
}

pub fn cache_store(dir: &Path, p: &Point, m: &Metrics) -> std::io::Result<()> {
    ResultCache::open(dir)?.store(p.fingerprint(), m)
}

pub fn cache_load(dir: &Path, p: &Point) -> Option<Metrics> {
    ResultCache::open(dir).ok()?.load(p.fingerprint())
}

/// Appends one success line per point to the directory's journal.
pub fn journal_record(dir: &Path, points: &[Point]) -> std::io::Result<()> {
    let journal = Journal::open(&journal_path(dir))?;
    for p in points {
        journal.record_ok(p.fingerprint(), &p.label());
    }
    Ok(())
}

/// Retry lines a campaign left in the directory's journal.
pub fn journal_retries(dir: &Path) -> usize {
    Journal::load(&journal_path(dir)).retries.len()
}

// ---------------------------------------------------------------------
// s64v-explore
// ---------------------------------------------------------------------

pub struct Query(ExploreSpec);

/// Record counts of an exploration query's two stages.
#[derive(Debug, Clone, Copy)]
pub struct ExploreSizes {
    pub screen: (usize, usize),
    pub full: (usize, usize),
}

/// The benchmark's query: `specs/rs_window_sweep.explore.json`'s grid
/// and constraints on TPC-C[0], with the seed and lengths given.
pub fn explore_spec_text(seed: u64, s: &ExploreSizes) -> String {
    format!(
        r#"{{
    "name": "benchmark-rs-window-sweep",
    "workload": {{"suite": "TPC-C", "index": 0}},
    "seed": {seed},
    "screen": {{"records": {}, "warmup": {}}},
    "full":   {{"records": {}, "warmup": {}}},
    "knobs": [
        {{"name": "rse_entries", "values": [4, 6, 8, 10, 12]}},
        {{"name": "rsf_entries", "values": [4, 6, 8, 10]}},
        {{"name": "window_size", "values": [32, 48, 64, 80, 96]}}
    ],
    "objective": {{"maximize": "ipc"}},
    "constraints": [
        {{"knob": "rse_entries", "max": 32}},
        {{"metric": "area_mm2", "max": 300.0}}
    ],
    "eta": 3,
    "min_survivors": 4
}}
"#,
        s.screen.0, s.screen.1, s.full.0, s.full.1
    )
}

pub fn parse_query(text: &str) -> Result<Query, String> {
    ExploreSpec::parse(text).map(Query)
}

/// The deterministic part of a search's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The report's `answer` section, serialized.
    pub text: String,
    pub evaluations: usize,
    pub failed: usize,
    pub rounds: usize,
    /// Detailed records of the evaluations that succeeded.
    pub detailed_records: u64,
}

fn answer_of(report: &ExploreReport) -> Answer {
    let r = &report.result;
    Answer {
        text: report.answer_value().to_string(),
        evaluations: r.counters.evaluations,
        failed: r.counters.failed,
        rounds: r.counters.rounds,
        detailed_records: r
            .rounds
            .iter()
            .map(|s| ((s.entered - s.failed) * s.records) as u64)
            .sum(),
    }
}

fn plan_points(q: &ExploreSpec, plan: &RoundPlan) -> Vec<Point> {
    plan.entries
        .iter()
        .map(|(_, config)| {
            program_point(
                config,
                q.workload.suite,
                q.workload.index,
                plan.records,
                plan.warmup,
                q.seed,
            )
        })
        .collect()
}

fn measurement_of(m: &Metrics) -> Measurement {
    Measurement {
        cycles: m.cycles,
        committed: m.committed,
        bus_transactions: m.bus_transactions,
        bus_busy_cycles: m.bus_busy_cycles,
        l1d: m.l1d,
        l2_demand: m.l2_demand,
        mispredict: m.mispredict,
        area_mm2: 0.0,
    }
}

/// `run_search` with `eval` standing in for the campaign engine: it gets
/// each round's points and returns their metrics (`None` = failed).
pub fn search(q: &Query, mut eval: impl FnMut(&[Point]) -> Vec<Option<Metrics>>) -> Answer {
    let result = s64v_explore::run_search(
        &q.0,
        |plan| {
            eval(&plan_points(&q.0, plan))
                .iter()
                .map(|m| m.as_ref().map(measurement_of))
                .collect()
        },
        |_| {},
    );
    answer_of(&ExploreReport {
        spec: q.0.clone(),
        result,
        execution: Default::default(),
    })
}

/// The harness's own driver for the query, with no cache; also counts
/// the attempts the engine re-ran.
pub fn explore(q: &Query, threads: usize) -> Result<(Answer, usize), String> {
    let opts = ExploreOpts {
        threads: Some(threads),
        ..ExploreOpts::default()
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let report = run_explore(&q.0, &opts, Some(tx), |_| {})?;
    let retries = rx
        .try_iter()
        .filter(|e| matches!(e, ProgressEvent::Retrying { .. }))
        .count();
    Ok((answer_of(&report), retries))
}

/// Parses the report `campaign explore` printed.
pub fn parse_explore_report(stdout: &str) -> Result<Answer, String> {
    ExploreReport::parse(stdout).map(|r| answer_of(&r))
}

// ---------------------------------------------------------------------
// The campaign command line
// ---------------------------------------------------------------------

/// A `campaign` invocation that inherits no `S64V_*` setting.
fn campaign_command(bin: &Path) -> Command {
    let mut cmd = Command::new(bin);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("S64V_") {
            cmd.env_remove(key);
        }
    }
    cmd
}

/// `campaign --figures <figure>` on a cache directory, tables to `results_dir`.
#[allow(clippy::too_many_arguments)]
pub fn figures_command(
    bin: &Path,
    figure: &str,
    cache_dir: &Path,
    results_dir: &Path,
    threads: usize,
    records: usize,
    warmup: usize,
    seed: u64,
) -> Command {
    let mut cmd = campaign_command(bin);
    cmd.args(["--figures", figure, "--cache-dir"])
        .arg(cache_dir)
        .args(["--quiet", "--threads", &threads.to_string()])
        .env("S64V_RECORDS", records.to_string())
        .env("S64V_WARMUP", warmup.to_string())
        .env("S64V_SEED", seed.to_string())
        .env("S64V_RESULTS_DIR", results_dir);
    cmd
}

/// `campaign explore --spec <file> --no-cache`.
pub fn explore_command(bin: &Path, spec: &Path, threads: usize) -> Command {
    let mut cmd = campaign_command(bin);
    cmd.args(["explore", "--spec"]).arg(spec).args([
        "--no-cache",
        "--quiet",
        "--threads",
        &threads.to_string(),
    ]);
    cmd
}

/// `campaign --list`: starts, prints the figure names, exits.
pub fn list_command(bin: &Path) -> Command {
    let mut cmd = campaign_command(bin);
    cmd.arg("--list");
    cmd
}
