//! The `campaign` binary at its command line: the two print-only
//! figures run end to end as empty campaigns, and every subcommand
//! takes each engine flag its usage line lists — through the one shared
//! flag parser — while anything else stays a usage error (exit 2).

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
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .stdin(Stdio::null())
        .env("S64V_RECORDS", "400")
        .env("S64V_WARMUP", "200")
        .env("S64V_RESULTS_DIR", dir.join("results"))
        .output()
        .expect("campaign binary runs");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
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
