//! The `campaign` binary at its command line: the two print-only
//! figures run end to end as empty campaigns, and every subcommand
//! takes each engine flag its usage line lists — through the one shared
//! flag parser — while anything else stays a usage error (exit 2). The
//! environment carries run sizes only: a malformed one is a usage error,
//! and the variables that once mirrored engine flags are not read.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("s64v-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Runs the binary with tiny sizes (these tests are about the command
/// line, not results) and its CSVs pointed into `dir`; returns the exit
/// code, stdout and stderr.
fn campaign(dir: &Path, args: &[&str]) -> (Option<i32>, String, String) {
    campaign_with(dir, args, &[])
}

/// [`campaign`] run from inside `dir` with `env` set on top.
fn campaign_with(dir: &Path, args: &[&str], env: &[(&str, &str)]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .stdin(Stdio::null())
        .current_dir(dir)
        .env("S64V_RECORDS", "400")
        .env("S64V_WARMUP", "200")
        .env("S64V_RESULTS_DIR", dir.join("results"))
        .envs(env.iter().copied())
        .output()
        .expect("campaign binary runs");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

#[test]
fn retired_engine_variables_are_not_read() {
    // Each of these once set an engine option; flags are the only channel
    // now, so hostile values must change nothing — least of all where the
    // cache lands.
    let retired = [
        ("S64V_THREADS", "abc"),
        ("S64V_CACHE_DIR", "/nonexistent/x"),
        ("S64V_NO_CACHE", "1"),
        ("S64V_CHECKED", "1"),
        ("S64V_TRACE", "SPEC"),
        ("S64V_METRICS", "1"),
        ("S64V_POINT_DEADLINE", "0.000001"),
        ("S64V_CYCLE_BUDGET", "1"),
        ("S64V_POINT_RETRIES", "x"),
        ("S64V_BACKOFF_MS", "-5"),
        ("S64V_SAMPLE_WINDOWS", "0"),
        ("S64V_SAMPLE_WINDOW", "0"),
        ("S64V_SAMPLE_WARMUP", "none"),
    ];
    let args = ["--figures", "table1,workloads_report"];
    let run = |tag: &str, env: &[(&str, &str)]| {
        let dir = scratch(tag);
        let (code, stdout, stderr) = campaign_with(&dir, &args, env);
        assert_eq!(code, Some(0), "{tag}:\n{stderr}");
        assert!(
            dir.join("results-cache").is_dir(),
            "{tag}: the default cache directory was not used"
        );
        std::fs::remove_dir_all(&dir).ok();
        (stdout, stderr)
    };
    assert_eq!(run("hostile", &retired), run("plain", &[]));
}

#[test]
fn a_malformed_size_is_a_usage_error_naming_the_variable() {
    let dir = scratch("sizes");
    let sizes = [
        "S64V_RECORDS",
        "S64V_WARMUP",
        "S64V_SMP_CPUS",
        "S64V_SMP_RECORDS",
        "S64V_SMP_WARMUP",
        "S64V_SEED",
    ];
    let modes: [&[&str]; 4] = [
        &["--list"],
        &["validate", "--no-cache"],
        &["explore", "--spec", "/nonexistent.json"],
        &["perf", "a", "b"],
    ];
    for name in sizes {
        for bad in ["8k", "", "-1"] {
            for mode in modes {
                let (code, stdout, stderr) = campaign_with(&dir, mode, &[(name, bad)]);
                assert_eq!(code, Some(2), "{name}={bad:?} {mode:?}:\n{stderr}");
                assert!(stderr.contains(name), "{name}={bad:?} {mode:?}:\n{stderr}");
                assert!(stdout.is_empty(), "{name}={bad:?} {mode:?}: nothing ran");
            }
        }
    }
    // A machine with no CPU is not a size either.
    let (code, _, stderr) = campaign_with(&dir, &["--list"], &[("S64V_SMP_CPUS", "0")]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("S64V_SMP_CPUS"), "{stderr}");
    // Unset keeps the defaults; well-formed values are taken.
    let (code, _, stderr) = campaign_with(&dir, &["--list"], &[("S64V_SEED", "7")]);
    assert_eq!(code, Some(0), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn print_only_figures_run_as_empty_campaigns() {
    let dir = scratch("empty");
    let cache = dir.join("cache");
    let cache = cache.to_str().expect("utf-8 path");
    // No cache on one worker, a fresh cache on eight, the same cache again.
    let runs: [&[&str]; 3] = [
        &["--threads", "1", "--no-cache"],
        &["--threads", "8", "--cache-dir", cache],
        &["--threads", "8", "--cache-dir", cache],
    ];
    let mut first = None;
    for engine_flags in runs {
        let args = [&["--figures", "table1,workloads_report"], engine_flags].concat();
        let (code, stdout, stderr) = campaign(&dir, &args);
        assert_eq!(code, Some(0), "{args:?}:\n{stderr}");
        assert!(
            stderr.contains("campaign: 0 completed (0 from cache), 0 failed"),
            "{stderr}"
        );
        assert!(stdout.contains("Table 1 — Microarchitecture") && stdout.contains("== TPC-C =="));
        assert_eq!(first.get_or_insert(stdout.clone()), &stdout);
    }
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/table1.csv");
    assert_eq!(
        std::fs::read_to_string(dir.join("results/table1.csv")).expect("emitted CSV"),
        std::fs::read_to_string(committed).expect("committed CSV"),
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_subcommand_shares_the_engine_flags_and_rejects_the_rest() {
    let dir = scratch("flags");
    let cache = dir.join("cache");
    let cache = cache.to_str().expect("utf-8 path");
    let soak = dir.join("soak");
    let soak = soak.to_str().expect("utf-8 path");

    // `before` + flag + `after` must get past parsing (no usage text).
    let parsed = |before: &[&str], flag: &[&str], after: &[&str]| {
        let args = [before, flag, after].concat();
        let (code, _, stderr) = campaign(&dir, &args);
        assert!(!stderr.contains("usage: campaign"), "{args:?}:\n{stderr}");
        (code, stderr)
    };
    let rejected = |args: &[&str]| {
        let (code, _, stderr) = campaign(&dir, args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(stderr.starts_with("usage: campaign"), "{args:?}:\n{stderr}");
    };

    let basic: [&[&str]; 4] = [
        &["--threads", "2"],
        &["--cache-dir", cache],
        &["--no-cache"],
        &["--quiet"],
    ];
    let supervision: [&[&str]; 3] = [
        &["--deadline", "30"],
        &["--cycle-budget", "100000000"],
        &["--retries", "1"],
    ];
    for flag in basic.iter().chain(&supervision) {
        // Figures mode: `--list` stops before anything runs.
        assert_eq!(parsed(&[], flag, &["--list"]).0, Some(0), "{flag:?}");
        // A spec that cannot be read ends explore right after parsing;
        // serve drains an empty stdin.
        let (_, stderr) = parsed(&["explore", "--spec", "/nonexistent.json"], flag, &[]);
        assert!(stderr.contains("cannot read"), "{flag:?}:\n{stderr}");
        assert_eq!(parsed(&["serve"], flag, &[]).0, Some(0), "{flag:?}");
    }
    assert_eq!(parsed(&[], &["--checked"], &["--list"]).0, Some(0));
    // validate takes the basic four plus --checked: one tiny run.
    parsed(
        &["validate", "--checked", "--windows", "2", "--window", "100"],
        &basic.concat(),
        &[],
    );
    let (code, stderr) = parsed(
        &["soak", "--dir", soak],
        &["--threads", "2", "--quiet"],
        &[],
    );
    assert_eq!(code, Some(0), "{stderr}");

    let modes: [&[&str]; 6] = [
        &[],
        &["explore"],
        &["serve"],
        &["validate"],
        &["soak"],
        &["perf"],
    ];
    for mode in modes {
        rejected(&[mode, &["--bogus"]].concat());
    }
    rejected(&["--threads", "many"]);
    rejected(&["--deadline", "0"]);
    // Engine flags a subcommand's usage line does not list.
    rejected(&["explore", "--checked"]);
    rejected(&["serve", "--checked"]);
    rejected(&["validate", "--retries", "1"]);
    rejected(&["soak", "--cache-dir", cache]);
    rejected(&["perf", "--threads", "2", cache, cache]);

    std::fs::remove_dir_all(&dir).ok();
}
