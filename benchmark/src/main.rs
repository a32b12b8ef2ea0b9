//! The repo benchmark: one workload per invocation, measured from
//! outside the simulator. See README.md beside this crate.
//!
//! ```text
//! s64v-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                [--smoke] [--rebaseline]
//!                --campaign-bin PATH --bench-dir PATH
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0
//! whenever that line was printed, even for a run whose operations
//! failed or whose statistics differ (`correct` says so); it is 2 for a
//! malformed run: bad arguments, a missing binary or expected file, a
//! child that could not be started or read.

mod api;
mod expected;
mod metrics;
mod report;
mod span;
mod stats;
mod traced;
mod workloads;

use expected::{Expected, DEFAULT_SEED};
use report::{Check, RunInfo};
use std::path::PathBuf;
use std::time::Instant;
use workloads::{Ctx, Outcome, Sizes, Workload};

/// Timed repetitions a run makes at least, whatever `--seconds` says:
/// a median of fewer says little.
const MIN_REPS: usize = 3;
/// And at most, so a tiny `--smoke` repetition cannot loop for long.
const MAX_REPS: usize = 40;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    rebaseline: bool,
    campaign_bin: PathBuf,
    bench_dir: PathBuf,
}

fn usage() -> String {
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: s64v-benchmark --workload {{{}}} [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      [--smoke] [--rebaseline] --campaign-bin PATH --bench-dir PATH",
        names.join("|")
    )
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 15.0;
    let mut trace = false;
    let mut smoke = false;
    let mut rebaseline = false;
    let mut campaign_bin = None;
    let mut bench_dir = None;
    while let Some(flag) = raw.next() {
        let mut value = || raw.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => smoke = true,
            "--rebaseline" => rebaseline = true,
            "--campaign-bin" => campaign_bin = Some(PathBuf::from(value()?)),
            "--bench-dir" => bench_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
        rebaseline,
        campaign_bin: campaign_bin.ok_or("--campaign-bin is required")?,
        bench_dir: bench_dir.ok_or("--bench-dir is required")?,
    })
}

/// The end-to-end run: tracing off, repetitions until `--seconds` of
/// setting up and timing have passed.
fn run_untraced(args: &Args, ctx: &Ctx, info: &RunInfo) -> Result<Check, String> {
    let w = args.workload;
    if !w.is_cli() {
        // Let allocator arenas, page tables and lazy statics settle.
        let input = workloads::setup(w, ctx)?;
        workloads::run(w, ctx, &input)?;
    }
    let mut setup_s = Vec::new();
    let mut wall_s = Vec::new();
    let mut first: Option<Outcome> = None;
    let mut check = Check::default();
    let started = Instant::now();
    while setup_s.len() < MIN_REPS
        || (started.elapsed().as_secs_f64() < args.seconds && setup_s.len() < MAX_REPS)
    {
        let t0 = Instant::now();
        let input = workloads::setup(w, ctx)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let (wall, outcome) = workloads::run(w, ctx, &input)?;
        input.cleanup();
        wall_s.push(wall);
        check.attempted += outcome.ops.len();
        check.failed += outcome.failed();
        for (label, r) in &outcome.ops {
            if let Err(e) = r {
                check.note(format!("{label}: {e}"));
            }
        }
        match &first {
            None => first = Some(outcome),
            Some(f) if *f != outcome => check.broken(format!(
                "repetition {} differs from the first",
                setup_s.len()
            )),
            Some(_) => {}
        }
    }
    let first = first.expect("at least one repetition");
    let facts = first.all_facts();
    let wall = stats::Summary::of(&wall_s).expect("repetitions");
    let setup = stats::Summary::of(&setup_s).expect("repetitions");

    let expected_path = info.expected_path();
    if args.rebaseline {
        let mut e = Expected::load(&expected_path).unwrap_or_default();
        e.untraced = facts.clone();
        e.save(&expected_path)?;
    }
    let golden = if info.golden_applies() {
        Some(Expected::load(&expected_path)?)
    } else {
        None
    };
    check.compare_golden(golden.as_ref().map(|e| &e.untraced), &facts);

    let mut sampled_err = None;
    if w == Workload::SampledLong {
        if let Some(g) = &golden {
            sampled_err = traced::sampled_ipc_err_pct(&first, &g.traced);
        }
    }

    let peak_rss_mb = if w.is_cli() {
        report::children_peak_rss_mb()?
    } else {
        report::own_peak_rss_mb()?
    };
    // The reported time is the tenth percentile of the repetitions, not
    // their median: interference in a shared sandbox only ever adds
    // time and outlasts a repetition, and between identical runs the
    // median moved twice as much (README, "Observed spreads"). Median,
    // quartiles and every repetition are in the output file.
    let values = vec![
        ("setup_s", setup.p10),
        ("wall_s", wall.p10),
        (
            "sim_records_per_s",
            stats::per_second(first.records, wall.p10),
        ),
        ("peak_rss_mb", peak_rss_mb),
    ];
    let detail = api::Json::obj()
        .field("reps", wall.n)
        .field("setup_s", report::summary_json(&setup_s, &setup))
        .field("wall_s", report::summary_json(&wall_s, &wall))
        .field("sim_records", first.records)
        .field(
            "sampled_ipc_err_pct",
            sampled_err.map_or(api::Json::Null, api::Json::from),
        );
    report::finish(info, &check, metrics::END_TO_END, &values, detail, None)?;
    Ok(check)
}

fn run(args: Args) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out_dir = args.bench_dir.join("out");
    let ctx = Ctx {
        seed: args.seed,
        threads: nproc.min(2),
        sizes: if args.smoke {
            Sizes::smoke()
        } else {
            Sizes::full()
        },
        campaign_bin: args.campaign_bin.clone(),
        scratch: out_dir.join("tmp"),
    };
    let info = |trace: bool| RunInfo {
        workload: args.workload,
        seed: args.seed,
        smoke: args.smoke,
        trace,
        nproc,
        threads: ctx.threads,
        bench_dir: args.bench_dir.clone(),
        out_dir: out_dir.clone(),
    };
    std::fs::create_dir_all(&ctx.scratch)
        .map_err(|e| format!("creating {}: {e}", ctx.scratch.display()))?;
    // Rebaselining needs both halves of the expected file.
    if args.rebaseline && !info(false).golden_applies() {
        return Err("--rebaseline takes the default seed at full size".into());
    }
    let mut checks = Vec::new();
    if !args.trace || args.rebaseline {
        checks.push(run_untraced(&args, &ctx, &info(false))?);
    }
    if args.trace || args.rebaseline {
        checks.push(traced::run(&ctx, &info(true), args.rebaseline)?);
    }
    if args.rebaseline {
        eprintln!("rebaselined {}", info(false).expected_path().display());
    }
    if !checks.iter().all(Check::correct) {
        eprintln!("{}: run completed but is not correct", args.workload.name());
    }
    Ok(())
}

fn main() {
    report::map_large_blocks();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    if let Err(e) = run(args) {
        eprintln!("benchmark error: {e}");
        std::process::exit(2);
    }
}
