//! End-to-end campaign driver: every figure through the engine, plus
//! the design-space exploration modes. `campaign --help` prints the
//! command line — generated, like the parser, from the one flag table in
//! [`s64v_harness::cli`]; what follows says what the modes do, not how
//! their flags are spelled.
//!
//! Run sizes come from the environment (`S64V_RECORDS`, `S64V_WARMUP`,
//! `S64V_SMP_CPUS`, `S64V_SMP_RECORDS`, `S64V_SMP_WARMUP`, `S64V_SEED`;
//! a malformed value is a usage error in every mode) and rendered tables
//! go to `S64V_RESULTS_DIR`; everything else is a flag. Failed points
//! leave a JSON diagnostic dump next to their cache entry; traced points
//! leave `<fingerprint>.trace.json` (open at <https://ui.perfetto.dev>)
//! and `<fingerprint>.pipeline.txt` there.
//!
//! `validate` is the sampled-simulation accuracy gate (the Fig 19
//! discipline applied to our own sampling engine): it runs every
//! uniprocessor figure workload twice — once in full detail, once as a
//! plan of independently cached detailed windows with functional
//! warm-up — and exits nonzero unless each workload's sampled IPC lands
//! within the tolerance of the full-detail IPC *and* the reported 95%
//! confidence interval covers it *and* the aggregated per-window CPI
//! stacks conserve their cycles. Its `--out` report is deterministic:
//! the CI smoke stage diffs it against a golden.
//!
//! `explore` answers one declarative design-space query (see
//! `s64v-explore` for the spec grammar): the grid is pruned statically,
//! screened at short trace length, successively halved up to full
//! length, and the winner plus Pareto frontier land as a structured
//! report on stdout.
//!
//! `perf` is the regression observatory: it diffs two performance
//! sources — each a campaign cache directory (aggregating its
//! `<fingerprint>.cpi.json` top-down artifacts, with journaled
//! failures surfaced as excluded points) or a single `.cpi.json`
//! artifact — and attributes every CPI delta to the blame taxonomy
//! ("TPC-C regressed 8%: +6% backend-memory/dram, +2%
//! bad-speculation/replay").
//!
//! Exits nonzero if any point failed to simulate, any figure failed to
//! render (including a model verification mismatch), any journaled
//! failure from a previous run is still unresolved, or any exploration
//! query had failed points.

#![forbid(unsafe_code)]

use s64v_explore::{ExploreEvent, ExploreReport, ExploreSpec};
use s64v_harness::cli::{self, Args};
use s64v_harness::engine::{run_campaign, CampaignOutcome};
use s64v_harness::explore::{run_explore, ExploreOpts};
use s64v_harness::figures::{figure_names, run_figures, Page, PointStore};
use s64v_harness::perf::{sampled_cpi_artifact, validate_cpi_artifact, PerfDiff, PerfSource};
use s64v_harness::progress::ProgressEvent;
use s64v_harness::spec::{CampaignSpec, HarnessOpts, SimPoint};
use s64v_harness::supervise::{atomic_write, SupervisePolicy};
use s64v_harness::validate::{
    assess_onto, full_point, sampled_points, validate_workloads, SampleOpts, DEFAULT_TOLERANCE,
};
use s64v_observe::json::Value;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Prints the usage and why the command line does not fit it; exits 2.
fn usage_error(reason: &str) -> ! {
    eprint!("{}", cli::usage());
    eprintln!("campaign: {reason}");
    std::process::exit(2);
}

/// The number given for `name`, within `range`; any other value is a
/// usage error.
fn number<T: std::str::FromStr + PartialOrd>(
    args: &Args,
    name: &str,
    range: impl std::ops::RangeBounds<T>,
) -> Option<T> {
    let number = args.number(name, range);
    number.unwrap_or_else(|reason| usage_error(&reason))
}

/// `--threads`: the worker count.
fn threads(args: &Args) -> Option<usize> {
    number(args, "--threads", ..).map(|n: usize| n.max(1))
}

/// `--cache-dir` / `--no-cache`, whichever came last; `default` when
/// neither was given.
fn cache_dir(args: &Args, default: Option<&str>) -> Option<PathBuf> {
    match args.last_of(&["--cache-dir", "--no-cache"]) {
        Some("--cache-dir") => args.text("--cache-dir").map(PathBuf::from),
        Some(_) => None,
        None => default.map(PathBuf::from),
    }
}

/// `--deadline`, `--cycle-budget`, `--retries` over the default policy.
fn supervise(args: &Args) -> SupervisePolicy {
    let policy = SupervisePolicy::default();
    let deadline = number(args, "--deadline", f64::MIN_POSITIVE..).map(|secs| {
        Duration::try_from_secs_f64(secs)
            .unwrap_or_else(|_| usage_error(&format!("--deadline {secs}: too long to wait")))
    });
    SupervisePolicy {
        deadline,
        cycle_budget: number(args, "--cycle-budget", 1..),
        retries: number(args, "--retries", ..).unwrap_or(policy.retries),
        ..policy
    }
}

/// The execution template the engine flags describe — every campaign a
/// mode runs is this with a name and points. Flags a mode does not take
/// are simply absent.
fn template(args: &Args, default_cache: Option<&str>) -> CampaignSpec {
    let mut t = CampaignSpec::new("", Vec::new());
    t.threads = threads(args);
    t.cache_dir = cache_dir(args, default_cache);
    t.checked = args.has("--checked");
    t.observe.trace_matches = args.all("--trace").map(String::from).collect();
    t.observe.metrics = args.has("--metrics");
    t.supervise = supervise(args);
    t
}

/// Validates one artifact by extension; returns a reason on failure.
fn check_artifact(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    if path.ends_with(".trace.json") {
        let doc = Value::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .ok_or("missing traceEvents array")?;
        if events.is_empty() {
            return Err("empty traceEvents array".to_string());
        }
    } else if path.ends_with(".metrics.jsonl") {
        if text.trim().is_empty() {
            return Err("no interval samples".to_string());
        }
        for (i, line) in text.lines().enumerate() {
            Value::parse(line).map_err(|e| format!("line {}: invalid JSON: {e}", i + 1))?;
        }
    } else if path.ends_with(".cpi.json") {
        // A top-down CPI artifact must conserve: its 16 leaves sum
        // exactly to its core-cycle count, and each group total matches
        // the sum of its member leaves.
        let doc = Value::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
        validate_cpi_artifact(&doc)?;
    } else if path.ends_with(".pipeline.txt") {
        if text.trim().is_empty() {
            return Err("empty diagram".to_string());
        }
    } else if path.ends_with(".explore.json") {
        // Spec, fingerprint, answer and execution sections must all
        // parse back.
        ExploreReport::parse(&text)?;
    } else {
        return Err("unknown artifact extension".to_string());
    }
    Ok(())
}

/// Runs `work` with the per-point progress printer listening (silent
/// when `quiet`), and the printer drained before returning.
fn with_printer<T>(quiet: bool, work: impl FnOnce(mpsc::Sender<ProgressEvent>) -> T) -> T {
    let (tx, rx) = mpsc::channel::<ProgressEvent>();
    let printer = std::thread::spawn(move || {
        let mut done = 0usize;
        for event in rx {
            if quiet {
                continue;
            }
            match event {
                ProgressEvent::Started { .. } => {}
                ProgressEvent::Finished {
                    label,
                    cache_hit,
                    elapsed,
                    ..
                } => {
                    done += 1;
                    if cache_hit {
                        eprintln!("[{done:>4}] cached   {label}");
                    } else {
                        eprintln!("[{done:>4}] {:>6.1}s  {label}", elapsed.as_secs_f64());
                    }
                }
                ProgressEvent::Failed { label, error, .. } => {
                    done += 1;
                    eprintln!("[{done:>4}] FAILED   {label}: {error}");
                }
                ProgressEvent::Retrying {
                    label,
                    attempt,
                    error,
                    ..
                } => {
                    // A retry is not a completed point; the counter holds.
                    eprintln!(
                        "[....] retry    {label} (attempt {} failed: {error})",
                        attempt + 1
                    );
                }
                ProgressEvent::Heartbeat {
                    done: d,
                    total,
                    in_flight,
                    elapsed,
                    eta,
                } => {
                    let eta = match eta {
                        Some(t) => format!("{:.0}s", t.as_secs_f64()),
                        None => "?".to_string(),
                    };
                    eprintln!(
                        "[heartbeat] {d}/{total} done, {in_flight} in flight, \
                         {:.0}s elapsed, ETA {eta}",
                        elapsed.as_secs_f64()
                    );
                }
            }
        }
    });
    let result = work(tx);
    printer.join().expect("progress printer panicked");
    result
}

/// Runs one campaign with the progress printer; a cache or journal I/O
/// error ends `who`'s process with exit code 2.
fn run_points(who: &str, quiet: bool, spec: &CampaignSpec) -> CampaignOutcome {
    with_printer(quiet, |tx| run_campaign(spec, Some(tx))).unwrap_or_else(|e| {
        eprintln!("{who} error: {e}");
        std::process::exit(2);
    })
}

/// Narrates one search-level event on stderr.
fn print_explore_event(event: &ExploreEvent) {
    match event {
        ExploreEvent::GridExpanded {
            total,
            invalid,
            pruned,
            feasible,
        } => eprintln!(
            "[explore] grid {total}: {invalid} invalid, {pruned} statically pruned, \
             {feasible} feasible"
        ),
        ExploreEvent::RoundStarted {
            round,
            records,
            candidates,
        } => eprintln!("[explore] round {round}: {candidates} candidates x {records} records"),
        ExploreEvent::RoundFinished(s) => {
            let best = match (s.best_id, s.best_objective) {
                (Some(id), Some(obj)) => format!("best #{id} ({obj:.4})"),
                _ => "no survivors".to_string(),
            };
            eprintln!(
                "[explore] round {} done: promoted {}, eliminated {} on rank + {} dominated, \
                 {} failed, {best}",
                s.round, s.promoted, s.eliminated_rank, s.eliminated_dominated, s.failed
            );
        }
        ExploreEvent::FrontierExtracted { size } => {
            eprintln!("[explore] frontier-update: {size} non-dominated configurations")
        }
    }
}

/// Writes `mode`'s `--out` report whole (parent directories created,
/// temp file + atomic rename), or ends the process with exit 2.
fn write_report(mode: &str, path: &Path, report: &Value) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| atomic_write(path, format!("{report:#}\n").as_bytes()));
    if let Err(e) = written {
        eprintln!("{mode} error: could not write {}: {e}", path.display());
        std::process::exit(2);
    }
}

/// Answers one query: the report (or its answer section) on stdout, the
/// full report at `--out`, the search's events and a summary on stderr.
fn explore_main(args: &Args) -> ! {
    let opts = ExploreOpts {
        threads: threads(args),
        cache_dir: cache_dir(args, Some("results-cache")),
        heartbeat: Some(Duration::from_secs(10)),
        supervise: supervise(args),
    };
    let Some(spec_path) = args.text("--spec") else {
        usage_error("explore needs --spec FILE");
    };
    let text = std::fs::read_to_string(spec_path).unwrap_or_else(|e| {
        eprintln!("cannot read {spec_path}: {e}");
        std::process::exit(2);
    });
    let spec = ExploreSpec::parse(&text).unwrap_or_else(|e| {
        eprintln!("invalid spec {spec_path}: {e}");
        std::process::exit(2);
    });
    let quiet = args.has("--quiet");
    let report = with_printer(quiet, |tx| {
        run_explore(&spec, &opts, Some(tx), |e| {
            if !quiet {
                print_explore_event(e);
            }
        })
    })
    .unwrap_or_else(|e| {
        eprintln!("explore error: {e}");
        std::process::exit(2);
    });
    let doc = if args.has("--answer-only") {
        report.answer_value()
    } else {
        report.to_value()
    };
    println!("{doc:#}");
    std::io::stdout().flush().ok();
    if let Some(out) = args.text("--out").map(Path::new) {
        // An existing directory gets the report under the query's name.
        let path = if out.is_dir() {
            out.join(format!("{}.explore.json", spec.name))
        } else {
            out.to_path_buf()
        };
        write_report("explore", &path, &report.to_value());
    }
    eprintln!("explore: {}", report.summary());
    let failed = report.execution.failed;
    if failed > 0 {
        eprintln!("explore FAILED: {failed} point(s) failed to simulate");
    }
    std::process::exit(i32::from(failed > 0));
}

fn perf_main(args: &Args) -> ! {
    let folded_out = args.text("--folded").map(PathBuf::from);
    let [base_path, new_path] = args.positional.as_slice() else {
        unreachable!("the parser counted perf's two sources");
    };
    let load = |p: &str| {
        PerfSource::load(Path::new(p)).unwrap_or_else(|e| {
            eprintln!("perf: {e}");
            std::process::exit(2);
        })
    };
    let base = load(base_path);
    let new = load(new_path);
    let diff = PerfDiff::compute(&base, &new);
    println!("perf: {} -> {}", base.name, new.name);
    print!("{}", diff.render());

    if let Some(out) = &folded_out {
        let text = new.folded();
        match std::fs::write(out, &text) {
            Ok(()) => eprintln!(
                "perf: wrote {} folded stack line(s) to {}",
                text.lines().count(),
                out.display()
            ),
            Err(e) => {
                eprintln!("perf: cannot write {}: {e}", out.display());
                std::process::exit(2);
            }
        }
    }

    std::process::exit(0);
}

/// `campaign validate`: the sampled-simulation accuracy gate. Runs the
/// full-detail reference campaign and the sampled-window campaign
/// (timed separately, so the epilogue can report the sampled-mode
/// speedup), assembles the A/B report, writes per-workload aggregate
/// `.sampled.cpi.json` artifacts into the cache directory, and exits
/// nonzero unless every workload passes the gate: sampled IPC within
/// tolerance of full detail, confidence interval covering the
/// full-detail value, and per-window CPI stacks conserving their cycles.
fn validate_main(args: &Args, opts: HarnessOpts) -> ! {
    let template = template(args, Some("results-cache"));
    let quiet = args.has("--quiet");
    let out = args.text("--out").map(PathBuf::from);
    let tolerance = number(args, "--tolerance", f64::MIN_POSITIVE..f64::MAX)
        .map_or(DEFAULT_TOLERANCE, |pct: f64| pct / 100.0);
    let mut sample = SampleOpts::for_sizes(&opts);
    sample.windows = number(args, "--windows", 2..).unwrap_or(sample.windows);
    sample.window = number(args, "--window", 1..).unwrap_or(sample.window);
    // `--under-warm` is the negative control: no per-window warm-up at
    // all. The gate is expected to FAIL under it — cold caches bias every
    // window slow — which is how CI proves the gate can actually catch
    // insufficient warming.
    sample.warmup = match args.last_of(&["--sample-warmup", "--under-warm"]) {
        Some("--under-warm") => 0,
        _ => number(args, "--sample-warmup", ..).unwrap_or(sample.warmup),
    };

    let workloads = validate_workloads();
    let full_points: Vec<SimPoint> = workloads
        .iter()
        .map(|&(kind, index)| full_point(kind, index, &opts))
        .collect();
    let window_points: Vec<SimPoint> = workloads
        .iter()
        .flat_map(|&(kind, index)| sampled_points(kind, index, &opts, &sample))
        .collect();

    let run = |name: &str, points: &[SimPoint]| {
        let spec = CampaignSpec {
            name: name.to_string(),
            points: points.to_vec(),
            ..template.clone()
        };
        let started = Instant::now();
        (run_points("validate", quiet, &spec), started.elapsed())
    };
    let (full, full_wall) = run("validate-full", &full_points);
    let (sampled, sampled_wall) = run("validate-sampled", &window_points);

    let runs = [(&full, &full_points), (&sampled, &window_points)];
    let mut failed_points = 0usize;
    for (outcome, points) in runs {
        for (i, error, _) in outcome.failures() {
            eprintln!("failed point: {}: {error}", points[i].label());
            failed_points += 1;
        }
    }
    let store = PointStore::from_run(
        runs.iter()
            .flat_map(|(outcome, points)| points.iter().zip(&outcome.outcomes)),
    );

    let mut page = Page::default();
    page.banner(
        "Sampled-simulation accuracy validation",
        "Fig 19 discipline",
        &format!(
            "sampled IPC within {:.1}% of full detail, 95% CI covering it",
            tolerance * 100.0
        ),
    );
    let report = match assess_onto(&mut page, &opts, &sample, tolerance, &store) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("validate error: {e}");
            std::process::exit(if failed_points > 0 { 1 } else { 2 });
        }
    };
    page.publish();

    // Per-workload aggregate artifacts: the standard `.cpi.json` schema
    // built from the merged window stacks, keyed by the full-detail
    // point's fingerprint (`<fp>.sampled.cpi.json` next to its entry).
    if let Some(dir) = &template.cache_dir {
        for (&(kind, index), w) in workloads.iter().zip(&report.workloads) {
            let fp = full_point(kind, index, &opts).fingerprint();
            let label = format!("{} sampled", w.label);
            match sampled_cpi_artifact(&label, fp, &w.windows, &w.ipc, report.z) {
                Ok(text) => {
                    let path = dir.join(format!("{}.sampled.cpi.json", fp.to_hex()));
                    if let Err(e) = atomic_write(&path, text.as_bytes()) {
                        eprintln!("warning: could not write {}: {e}", path.display());
                    }
                }
                Err(e) => eprintln!("warning: no aggregate artifact for {label}: {e}"),
            }
        }
    }

    if let Some(path) = &out {
        write_report("validate", path, &report.to_value());
        eprintln!("validate: wrote report to {}", path.display());
    }

    // The speedup epilogue: both campaigns estimate the same simulated
    // region, so end-to-end rates are represented-records over wall time.
    // Only meaningful on a cold cache (cache hits skip simulation).
    let represented = (workloads.len() * opts.records) as f64;
    let rate = |wall: std::time::Duration| represented / wall.as_secs_f64().max(1e-9) / 1_000.0;
    eprintln!(
        "validate: full-detail {:.1}s ({:.0}K rec/s), sampled {:.1}s ({:.0}K rec/s), speedup {:.1}x",
        full_wall.as_secs_f64(),
        rate(full_wall),
        sampled_wall.as_secs_f64(),
        rate(sampled_wall),
        full_wall.as_secs_f64() / sampled_wall.as_secs_f64().max(1e-9),
    );

    for line in report.failures() {
        eprintln!("validate FAILED: {line}");
    }
    if failed_points > 0 {
        eprintln!("validate FAILED: {failed_points} point(s) did not simulate");
    }
    std::process::exit(if failed_points == 0 && report.passed() {
        0
    } else {
        1
    });
}

fn figures_main(args: &Args, opts: HarnessOpts) {
    let template = template(args, Some("results-cache"));
    if args.has("--list") {
        for name in figure_names() {
            println!("{name}");
        }
        return;
    }

    if args.has("--check-artifact") {
        let mut bad = 0;
        for path in args.all("--check-artifact") {
            match check_artifact(path) {
                Ok(()) => eprintln!("artifact ok: {path}"),
                Err(reason) => {
                    eprintln!("artifact BAD: {path}: {reason}");
                    bad += 1;
                }
            }
        }
        std::process::exit(if bad > 0 { 1 } else { 0 });
    }

    if !template.observe.trace_matches.is_empty() && template.cache_dir.is_none() {
        eprintln!("--trace needs a cache directory for its artifacts (drop --no-cache)");
        std::process::exit(2);
    }

    // An unknown name fails the run before anything simulates.
    let names: Vec<&str> = match args.text("--figures") {
        None | Some("all") => figure_names(),
        Some(list) => list.split(',').map(str::trim).collect(),
    };
    let summary = with_printer(args.has("--quiet"), |tx| {
        run_figures(&names, &opts, &template, Some(tx))
    })
    .unwrap_or_else(|e| {
        eprintln!("campaign error: {e}");
        std::process::exit(2);
    });

    eprintln!("campaign: {}", summary.report.summary());
    if !summary.report.slowest.is_empty() {
        eprintln!(
            "simulation wall time {:.1}s across workers; slowest points:",
            summary.report.sim_wall.as_secs_f64()
        );
        for (label, elapsed) in &summary.report.slowest {
            eprintln!("  {:>6.1}s  {label}", elapsed.as_secs_f64());
        }
    }
    for (label, error) in &summary.point_failures {
        eprintln!("failed point: {label}: {error}");
    }
    for f in &summary.prior_failures {
        eprintln!(
            "unresolved failure from a previous run: {}: {}",
            f.label, f.error
        );
    }
    for (name, reason) in &summary.render_failures {
        eprintln!("figure {name} did not render: {reason}");
    }
    if let Some(line) = summary.failure_line() {
        eprintln!("{line}");
        std::process::exit(1);
    }
}

fn main() {
    let opts = HarnessOpts::from_env().unwrap_or_else(|e| {
        eprintln!("campaign: {e}");
        std::process::exit(2);
    });
    let mut raw = std::env::args().skip(1).peekable();
    let worded = cli::MODES[1..].iter().map(|(mode, _)| *mode);
    let mode = raw
        .peek()
        .and_then(|word| worded.clone().find(|m| m == word));
    if mode.is_some() {
        raw.next();
    }
    let mode = mode.unwrap_or("figures");
    let args = cli::parse(mode, raw).unwrap_or_else(|reason| usage_error(&reason));
    if args.has("--help") {
        print!("{}", cli::usage());
        return;
    }
    match mode {
        "explore" => explore_main(&args),
        "validate" => validate_main(&args, opts),
        "perf" => perf_main(&args),
        _ => figures_main(&args, opts),
    }
}
