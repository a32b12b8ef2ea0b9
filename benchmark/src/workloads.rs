//! The six workloads: what each prepares, what it times, and what it
//! hands back to be checked.
//!
//! Load model, all workloads: closed loop, one client (this process),
//! one workload per invocation. The simulator receives only the traces
//! and specs generated here from `--seed`.

use crate::api::{self, ExploreSizes, Metrics, Point, SamplePlanSizes, SuiteId, Trace};
use crate::expected::Facts;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    UpCpuBound,
    UpMemBound,
    SmpTpcc,
    SampledLong,
    CampaignCold,
    ExploreSweep,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::UpCpuBound,
        Workload::UpMemBound,
        Workload::SmpTpcc,
        Workload::SampledLong,
        Workload::CampaignCold,
        Workload::ExploreSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::UpCpuBound => "up_cpu_bound",
            Workload::UpMemBound => "up_mem_bound",
            Workload::SmpTpcc => "smp_tpcc",
            Workload::SampledLong => "sampled_long",
            Workload::CampaignCold => "campaign_cold",
            Workload::ExploreSweep => "explore_sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the timed region is a `campaign` child process. Those
    /// repetitions are cold by design; in-process workloads discard one
    /// untimed repetition first.
    pub fn is_cli(self) -> bool {
        matches!(self, Workload::CampaignCold | Workload::ExploreSweep)
    }
}

/// The figure `campaign_cold` runs: 2 configurations × 43 programs.
pub const COLD_FIGURE: &str = "fig09_bht";

/// Record counts of every workload. Each warm : detailed ratio is the
/// one ISSUE 11 fixed; the absolute counts are scaled down from its
/// indicative ones so that a whole run, traced or not, ends in about
/// fifteen seconds on two cores (see README, "Sizes").
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `up_cpu_bound`: (warm, detailed) records per program, 1 : 1.
    pub up_cpu: (usize, usize),
    /// `up_mem_bound`: (warm, detailed) records, 4 : 5.
    pub up_mem: (usize, usize),
    /// `smp_tpcc`: CPUs, then (warm, detailed) records per CPU, 5 : 2.
    pub smp_cpus: usize,
    pub smp: (usize, usize),
    /// `sampled_long`: region : detailed = 25 : 1.
    pub sampled: SamplePlanSizes,
    /// `campaign_cold`: (`S64V_WARMUP`, `S64V_RECORDS`), 40 : 3.
    pub cold: (usize, usize),
    /// `explore_sweep`: (records, warm-up) per stage, 1 : 10.
    pub explore: ExploreSizes,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            up_cpu: (250_000, 250_000),
            up_mem: (800_000, 1_000_000),
            smp_cpus: 16,
            smp: (100_000, 40_000),
            sampled: SamplePlanSizes {
                lead_in: 40_000,
                region: 1_600_000,
                windows: 8,
                window: 8_000,
            },
            cold: (200_000, 15_000),
            explore: ExploreSizes {
                screen: (2_500, 25_000),
                full: (10_000, 100_000),
            },
        }
    }

    /// Every record count divided by 20, for a quick self-check.
    pub fn smoke() -> Sizes {
        let f = Sizes::full();
        let d = |n: usize| n / 20;
        let pair = |(a, b): (usize, usize)| (d(a), d(b));
        Sizes {
            up_cpu: pair(f.up_cpu),
            up_mem: pair(f.up_mem),
            smp_cpus: f.smp_cpus,
            smp: pair(f.smp),
            sampled: SamplePlanSizes {
                lead_in: d(f.sampled.lead_in),
                region: d(f.sampled.region),
                windows: f.sampled.windows,
                window: d(f.sampled.window),
            },
            cold: pair(f.cold),
            explore: ExploreSizes {
                screen: pair(f.explore.screen),
                full: pair(f.explore.full),
            },
        }
    }
}

/// The cache-resident programs of `up_cpu_bound`.
pub const CPU_BOUND_PROGRAMS: [(SuiteId, usize); 4] = [
    (SuiteId::SpecInt95, 0),
    (SuiteId::SpecFp95, 0),
    (SuiteId::SpecInt2000, 0),
    (SuiteId::SpecFp2000, 0),
];

/// The programs `sampled_long` samples.
pub const SAMPLED_PROGRAMS: [(SuiteId, usize); 8] = [
    (SuiteId::SpecInt95, 0),
    (SuiteId::SpecFp95, 0),
    (SuiteId::SpecInt2000, 0),
    (SuiteId::SpecFp2000, 0),
    (SuiteId::SpecInt95, 1),
    (SuiteId::SpecFp95, 1),
    (SuiteId::SpecInt2000, 1),
    (SuiteId::Tpcc, 0),
];

/// Everything a workload needs besides its own constants.
pub struct Ctx {
    pub seed: u64,
    /// Engine and CLI worker threads: `min(nproc, 2)`.
    pub threads: usize,
    pub sizes: Sizes,
    /// The root workspace's release `campaign` binary.
    pub campaign_bin: PathBuf,
    /// Where temporary cache directories and specs go (inside `out/`).
    pub scratch: PathBuf,
}

impl Ctx {
    /// The programs a uniprocessor workload runs, with their lengths.
    pub fn up_programs(&self, w: Workload) -> (&'static [(SuiteId, usize)], usize, usize) {
        match w {
            Workload::UpCpuBound => (
                &CPU_BOUND_PROGRAMS,
                self.sizes.up_cpu.0,
                self.sizes.up_cpu.1,
            ),
            Workload::UpMemBound => (
                &[(SuiteId::Tpcc, 0)],
                self.sizes.up_mem.0,
                self.sizes.up_mem.1,
            ),
            _ => panic!("{} is not a uniprocessor workload", w.name()),
        }
    }

    pub fn sampled_points(&self) -> Vec<Point> {
        SAMPLED_PROGRAMS
            .iter()
            .flat_map(|&(suite, index)| {
                api::window_points(suite, index, &self.sizes.sampled, self.seed)
            })
            .collect()
    }

    pub fn cold_points(&self) -> Vec<Point> {
        api::figure_points(COLD_FIGURE, self.sizes.cold.1, self.sizes.cold.0, self.seed)
    }

    /// A directory no earlier repetition has used.
    pub fn fresh_dir(&self, tag: &str) -> Result<PathBuf, String> {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = self
            .scratch
            .join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// What one repetition's untimed preparation produced.
pub enum Input {
    /// One trace set per run (a set holds one trace per CPU).
    Traces(Vec<Vec<Trace>>),
    Points(Vec<Point>),
    /// A fresh directory holding everything a `campaign` child touches.
    Dir(PathBuf),
}

impl Input {
    /// Removes what the repetition left on disk.
    pub fn cleanup(self) {
        if let Input::Dir(dir) = self {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One simulated operation's exact result: (cycles, committed) where the
/// workload can tell them per operation, or why the operation failed.
pub type OpResult = Result<Option<(u64, u64)>, String>;

/// What one repetition's timed region produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every point or evaluation attempted, by label.
    pub ops: Vec<(String, OpResult)>,
    /// Records the reported statistics speak for (see README).
    pub records: u64,
    /// Exact counts beyond per-operation cycles (search accounting).
    pub facts: Vec<(String, u64)>,
}

impl Outcome {
    pub fn failed(&self) -> usize {
        self.ops.iter().filter(|(_, r)| r.is_err()).count()
    }

    /// Every exact number, by name, for comparison against `expected/`.
    pub fn all_facts(&self) -> Facts {
        let mut out: Facts = self.facts.iter().cloned().collect();
        for (label, r) in &self.ops {
            if let Ok(Some((cycles, committed))) = r {
                out.insert(format!("{label}.cycles"), *cycles);
                out.insert(format!("{label}.committed"), *committed);
            }
        }
        out
    }
}

fn op(m: Result<Metrics, String>) -> OpResult {
    m.map(|m| Some((m.cycles, m.committed)))
}

/// The untimed preparation of one repetition.
pub fn setup(w: Workload, ctx: &Ctx) -> Result<Input, String> {
    match w {
        Workload::UpCpuBound | Workload::UpMemBound => {
            let (programs, warm, detailed) = ctx.up_programs(w);
            Ok(Input::Traces(
                programs
                    .iter()
                    .map(|&(suite, index)| {
                        let seed = api::derived_seed(ctx.seed, suite, index);
                        vec![api::generate(suite, index, warm + detailed, seed)]
                    })
                    .collect(),
            ))
        }
        Workload::SmpTpcc => {
            let (warm, detailed) = ctx.sizes.smp;
            Ok(Input::Traces(vec![api::generate_smp(
                ctx.sizes.smp_cpus,
                warm + detailed,
                ctx.seed,
            )]))
        }
        Workload::SampledLong => Ok(Input::Points(ctx.sampled_points())),
        Workload::CampaignCold | Workload::ExploreSweep => {
            let dir = ctx.fresh_dir(w.name())?;
            if w == Workload::ExploreSweep {
                let text = api::explore_spec_text(ctx.seed, &ctx.sizes.explore);
                std::fs::write(spec_path(&dir), text).map_err(|e| format!("writing spec: {e}"))?;
            }
            // The binary must exist and start before it is timed.
            cli_start(ctx)?;
            Ok(Input::Dir(dir))
        }
    }
}

fn spec_path(dir: &Path) -> PathBuf {
    dir.join("query.explore.json")
}

/// Runs `campaign --list` to completion; returns its wall time.
pub fn cli_start(ctx: &Ctx) -> Result<f64, String> {
    let (wall, out) = run_child(api::list_command(&ctx.campaign_bin))?;
    if !out.status.success() || !String::from_utf8_lossy(&out.stdout).contains(COLD_FIGURE) {
        return Err(format!(
            "{} --list did not list {COLD_FIGURE}",
            ctx.campaign_bin.display()
        ));
    }
    Ok(wall)
}

/// Spawn to exit of one child, with its output.
fn run_child(mut cmd: Command) -> Result<(f64, std::process::Output), String> {
    cmd.stdin(Stdio::null());
    let t0 = Instant::now();
    let out = cmd
        .output()
        .map_err(|e| format!("running {:?}: {e}", cmd.get_program()))?;
    Ok((t0.elapsed().as_secs_f64(), out))
}

/// The timed region of one repetition: its wall time and what it made.
pub fn run(w: Workload, ctx: &Ctx, input: &Input) -> Result<(f64, Outcome), String> {
    match (w, input) {
        (Workload::UpCpuBound | Workload::UpMemBound, Input::Traces(sets)) => {
            let (programs, warm, detailed) = ctx.up_programs(w);
            let t0 = Instant::now();
            let results: Vec<_> = sets
                .iter()
                .map(|set| api::run_warm(set, warm, false))
                .collect();
            let wall = t0.elapsed().as_secs_f64();
            let ops: Vec<_> = programs
                .iter()
                .zip(results)
                .map(|(&(suite, index), m)| (api::program_label(suite, index), op(m)))
                .collect();
            let records = detailed as u64 * ops.iter().filter(|(_, r)| r.is_ok()).count() as u64;
            Ok((
                wall,
                Outcome {
                    ops,
                    records,
                    facts: Vec::new(),
                },
            ))
        }
        (Workload::SmpTpcc, Input::Traces(sets)) => {
            let (warm, detailed) = ctx.sizes.smp;
            let t0 = Instant::now();
            let result = api::run_warm(&sets[0], warm, false);
            let wall = t0.elapsed().as_secs_f64();
            let records = match result {
                Ok(_) => (detailed * ctx.sizes.smp_cpus) as u64,
                Err(_) => 0,
            };
            let label = format!("TPC-C({}P)", ctx.sizes.smp_cpus);
            Ok((
                wall,
                Outcome {
                    ops: vec![(label, op(result))],
                    records,
                    facts: Vec::new(),
                },
            ))
        }
        (Workload::SampledLong, Input::Points(points)) => {
            let t0 = Instant::now();
            let run = api::campaign(points, ctx.threads, None)?;
            let wall = t0.elapsed().as_secs_f64();
            Ok((wall, sampled_outcome(ctx, points, run.outcomes)))
        }
        (Workload::CampaignCold, Input::Dir(dir)) => {
            let (warmup, records) = ctx.sizes.cold;
            let cache = dir.join("cache");
            let (wall, out) = run_child(api::figures_command(
                &ctx.campaign_bin,
                COLD_FIGURE,
                &cache,
                &dir.join("results"),
                ctx.threads,
                records,
                warmup,
                ctx.seed,
            ))?;
            // Exit 0 = all points ran, 1 = some failed; anything else is
            // a usage or I/O error and the repetition is malformed.
            if !matches!(out.status.code(), Some(0 | 1)) {
                return Err(format!(
                    "campaign exited with {}: {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            Ok((wall, cold_outcome(ctx, &cache)))
        }
        (Workload::ExploreSweep, Input::Dir(dir)) => {
            let (wall, out) = run_child(api::explore_command(
                &ctx.campaign_bin,
                &spec_path(dir),
                ctx.threads,
            ))?;
            if !matches!(out.status.code(), Some(0 | 1)) {
                return Err(format!(
                    "campaign explore exited with {}: {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            let answer = api::parse_explore_report(&String::from_utf8_lossy(&out.stdout))
                .map_err(|e| format!("unreadable exploration report: {e}"))?;
            Ok((wall, explore_outcome(&answer)))
        }
        _ => panic!("{} was given another workload's input", w.name()),
    }
}

/// A program's sampled IPC speaks for its whole timed region, and only
/// if every one of its windows ran.
pub fn sampled_outcome(
    ctx: &Ctx,
    points: &[Point],
    outcomes: Vec<Result<Metrics, String>>,
) -> Outcome {
    let ops: Vec<_> = points
        .iter()
        .zip(outcomes)
        .map(|(p, m)| (api::point_label(p), op(m)))
        .collect();
    let per_program = ops.len() / SAMPLED_PROGRAMS.len();
    let covered = ops
        .chunks(per_program.max(1))
        .filter(|windows| windows.iter().all(|(_, r)| r.is_ok()))
        .count();
    Outcome {
        records: (covered * ctx.sizes.sampled.region) as u64,
        ops,
        facts: Vec::new(),
    }
}

/// The ratio-estimator IPC of each sampled program: committed over
/// cycles, summed over its windows (`None` if a window failed).
pub fn sampled_ipcs(outcome: &Outcome) -> Vec<Option<f64>> {
    let per_program = (outcome.ops.len() / SAMPLED_PROGRAMS.len()).max(1);
    outcome
        .ops
        .chunks(per_program)
        .map(|windows| {
            let mut cycles = 0u64;
            let mut committed = 0u64;
            for (_, r) in windows {
                let (c, i) = r.as_ref().ok()?.as_ref()?;
                cycles += c;
                committed += i;
            }
            (cycles > 0).then(|| committed as f64 / cycles as f64)
        })
        .collect()
}

/// Reads back what a `campaign --figures` child stored: a point absent
/// from its cache failed, wedged, timed out or was quarantined.
pub fn cold_outcome(ctx: &Ctx, cache: &Path) -> Outcome {
    let ops: Vec<_> = ctx
        .cold_points()
        .iter()
        .map(|p| {
            let m = api::cache_load(cache, p).ok_or_else(|| "no cache entry".to_string());
            // Two configurations share each program label.
            let label = format!("{} @{}", api::point_label(p), &api::fingerprint_hex(p)[..8]);
            (label, op(m))
        })
        .collect();
    let ok = ops.iter().filter(|(_, r)| r.is_ok()).count();
    Outcome {
        records: (ok * ctx.sizes.cold.1) as u64,
        ops,
        facts: Vec::new(),
    }
}

/// An exploration's operations are its evaluations; which candidate
/// each one was is inside the answer, whose every number is a fact.
pub fn explore_outcome(answer: &api::Answer) -> Outcome {
    let ops = (0..answer.evaluations)
        .map(|i| {
            let r = if i < answer.failed {
                Err("evaluation failed".to_string())
            } else {
                Ok(None)
            };
            (format!("eval{i}"), r)
        })
        .collect();
    Outcome {
        ops,
        records: answer.detailed_records,
        facts: vec![
            ("explore.evaluations".into(), answer.evaluations as u64),
            ("explore.rounds".into(), answer.rounds as u64),
            ("explore.answer_hash".into(), fnv1a(answer.text.as_bytes())),
        ],
    }
}

/// FNV-1a folded to 63 bits, to hold a long exact text as one JSON
/// integer in `expected/`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let h = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    h >> 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn smoke_keeps_every_ratio() {
        let (f, s) = (Sizes::full(), Sizes::smoke());
        let ratio = |(a, b): (usize, usize)| a as f64 / b as f64;
        assert_eq!(ratio(f.up_cpu), ratio(s.up_cpu));
        assert_eq!(ratio(f.up_mem), ratio(s.up_mem));
        assert_eq!(ratio(f.smp), ratio(s.smp));
        assert_eq!(ratio(f.cold), ratio(s.cold));
        assert_eq!(ratio(f.explore.screen), ratio(s.explore.screen));
        assert_eq!(ratio(f.explore.full), ratio(s.explore.full));
        assert_eq!(
            f.sampled.region / f.sampled.window,
            s.sampled.region / s.sampled.window
        );
        assert_eq!(s.up_cpu.1 * 20, f.up_cpu.1);
    }

    /// The built `campaign` binary: named by `run.sh --test`, else looked
    /// for where `bench.sh` and the root workspace put it.
    fn campaign_bin() -> PathBuf {
        let bench = Path::new(env!("CARGO_MANIFEST_DIR"));
        std::env::var_os("BENCH_CAMPAIGN_BIN")
            .map(PathBuf::from)
            .into_iter()
            .chain(std::env::var_os("CARGO_TARGET_DIR").map(PathBuf::from))
            .chain([bench.join("target"), bench.join("../target")])
            .flat_map(|p| [p.join("release/campaign"), p])
            .find(|p| p.is_file())
            .expect("no campaign binary: run these tests with benchmark/run.sh --test")
    }

    #[test]
    fn a_campaign_whose_every_point_fails_is_counted_not_fatal() {
        // S64V_RECORDS=0: every program point fails cleanly with "warmup
        // must leave records to time" and the child exits 1.
        let mut sizes = Sizes::smoke();
        sizes.cold = (1_000, 0);
        let ctx = Ctx {
            seed: 42,
            threads: 1,
            sizes,
            campaign_bin: campaign_bin(),
            scratch: Path::new(env!("CARGO_MANIFEST_DIR")).join("out/tmp"),
        };
        let input = setup(Workload::CampaignCold, &ctx).expect("set-up");
        let (wall, outcome) = run(Workload::CampaignCold, &ctx, &input).expect("a structured run");
        input.cleanup();
        assert!(wall > 0.0);
        assert_eq!(outcome.ops.len(), 86);
        assert_eq!(outcome.failed(), 86, "failed_ops_pct = 100");
        assert_eq!(outcome.records, 0);
        assert!(outcome.all_facts().is_empty());
    }

    #[test]
    fn failed_operations_are_counted_and_carry_no_facts() {
        let o = Outcome {
            ops: vec![
                ("a".into(), Ok(Some((10, 20)))),
                ("anonymous".into(), Ok(None)),
                ("b".into(), Err("wedged".into())),
            ],
            records: 20,
            facts: vec![("extra".into(), 3)],
        };
        assert_eq!(o.failed(), 1);
        let want: Facts = [("a.cycles", 10), ("a.committed", 20), ("extra", 3)]
            .map(|(k, v)| (k.to_string(), v))
            .into();
        assert_eq!(o.all_facts(), want);
    }

    #[test]
    fn sampled_ipc_is_the_ratio_estimator() {
        let window = |c, i| ("w".to_string(), Ok(Some((c, i))));
        let mut ops = Vec::new();
        for p in 0..SAMPLED_PROGRAMS.len() {
            ops.push(window(100, 50));
            ops.push(if p == 1 {
                ("w".to_string(), Err("x".to_string()))
            } else {
                window(300, 250)
            });
        }
        let ipcs = sampled_ipcs(&Outcome {
            ops,
            records: 0,
            facts: Vec::new(),
        });
        assert_eq!(ipcs.len(), SAMPLED_PROGRAMS.len());
        assert_eq!(ipcs[0], Some(0.75));
        assert_eq!(ipcs[1], None);
    }
}
