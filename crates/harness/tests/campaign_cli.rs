//! The `campaign` binary at its command line: the two print-only
//! figures run end to end as empty campaigns, and every mode takes
//! exactly the flags the one flag table (`s64v_harness::cli::TABLE`)
//! gives it — anything else stays a usage error (exit 2) — and prints
//! that table on `--help`. The environment carries run sizes only: a
//! malformed one is a usage error, and the variables that once mirrored
//! engine flags are not read. A spec no parser should recurse through,
//! or one that would panic, never end or ask for unbounded memory, is
//! a bad spec (exit 2), not a crash, and a report that cannot be written
//! where `--out` says is an error (exit 2), not a warning. README.md
//! quotes the usage text verbatim.

use s64v_explore::ExploreSpec;
use s64v_harness::cli::{flags, Flag, MODES};
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
    // A machine with no CPU is not a size either, nor an SMP run with no
    // record to time.
    for name in ["S64V_SMP_CPUS", "S64V_SMP_RECORDS"] {
        let (code, stdout, stderr) =
            campaign_with(&dir, &["--figures", "ablation_bus"], &[(name, "0")]);
        assert_eq!(code, Some(2), "{name}=0:\n{stderr}");
        assert!(stderr.contains(name), "{name}=0:\n{stderr}");
        assert!(stdout.is_empty(), "{name}=0: nothing ran");
    }
    // Unset keeps the defaults; well-formed values are taken.
    let (code, _, stderr) = campaign_with(&dir, &["--list"], &[("S64V_SEED", "7")]);
    assert_eq!(code, Some(0), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_nesting_bomb_spec_is_an_invalid_spec_not_a_crash() {
    let dir = scratch("hostile");
    let query = |search: &str, knobs: &str, index: usize| {
        format!(
            r#"{{"name": "hostile", "workload": {{"suite": "SPECint95", "index": {index}}},
            "screen": {{"records": 400, "warmup": 200}}, "full": {{"records": 400, "warmup": 200}},
            "knobs": [{knobs}], "objective": {{"maximize": "ipc"}}, "search": {search}}}"#
        )
    };
    let axis = |name: &str, to: &str| {
        format!(r#"{{"name": "{name}", "range": {{"from": 1, "to": {to}, "step": 1}}}}"#)
    };
    let small = axis("rse_entries", "4");
    let cube = ["rse_entries", "rsf_entries", "rsa_entries"].map(|k| axis(k, "100"));
    // Each would recurse without bound, panic, never end, ask for
    // unbounded memory or fail every point, in that order.
    let hostile = [
        "[".repeat(200_000),
        query(r#"{"eta": 4294967296}"#, &small, 0),
        query(r#"{"eta": 4294967297}"#, &small, 0),
        query("{}", &axis("window_size", "9223372036854775807"), 0),
        query("{}", &cube.join(", "), 0),
        query("{}", &small, 99),
    ];
    for (i, text) in hostile.iter().enumerate() {
        // Rejected by the parser first: the binary never gets to run it.
        assert!(ExploreSpec::parse(text).is_err(), "case {i} parses");
        let spec = dir.join(format!("hostile{i}.explore.json"));
        std::fs::write(&spec, text).expect("write spec");
        let spec = spec.to_str().expect("utf-8 path");
        let (code, stdout, stderr) = campaign(&dir, &["explore", "--spec", spec, "--no-cache"]);
        assert_eq!(code, Some(2), "case {i}: {stderr}");
        assert!(stderr.contains("invalid spec"), "case {i}: {stderr}");
        assert!(stdout.is_empty(), "case {i}: {stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_unwritable_out_report_fails_the_run() {
    let dir = scratch("out");
    let spec = dir.join("tiny.explore.json");
    let query = r#"{"name": "tiny", "workload": {"suite": "SPECint95", "index": 0}, "seed": 42,
        "screen": {"records": 400, "warmup": 200}, "full": {"records": 400, "warmup": 200},
        "knobs": [{"name": "rse_entries", "values": [6, 10]}], "objective": {"maximize": "ipc"}}"#;
    std::fs::write(&spec, query).expect("write spec");
    // `--out` under a regular file: its parent cannot be created.
    let out = dir.join("tiny.explore.json/report.json");
    let (spec, out) = (spec.to_str().expect("utf-8"), out.to_str().expect("utf-8"));
    let runs: [(&str, &[&str]); 2] = [
        ("explore", &["explore", "--spec", spec]),
        (
            "validate",
            &["validate", "--windows", "2", "--window", "100"],
        ),
    ];
    for (mode, select) in runs {
        let args = [select, &["--no-cache", "--quiet", "--out", out]].concat();
        let (code, _, stderr) = campaign(&dir, &args);
        assert_eq!(code, Some(2), "{mode}:\n{stderr}");
        assert!(
            stderr.contains(&format!("{mode} error: could not write {out}")),
            "{mode}:\n{stderr}"
        );
    }
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
    let path = |leaf: &str| dir.join(leaf).to_str().expect("utf-8 path").to_string();
    // A well-formed value for each flag that takes one; paths land in the
    // scratch directory (`--check-artifact` gets one that is not there).
    let value = |f: &Flag| {
        f.value.map(|kind| match (f.name, kind) {
            ("--figures", _) => "table1".to_string(),
            ("--spec", _) => "/nonexistent.json".to_string(),
            (_, "N") => "2".to_string(),
            (_, "SECS" | "PCT") => "30".to_string(),
            (name, _) => path(name.trim_start_matches('-')),
        })
    };
    // What selects each mode, arguments that end it soon after parsing,
    // and how it must end with every flag it takes given at once:
    // `--list` prints names, an unreadable spec stops explore, validate
    // runs one tiny A/B to its epilogue (the gate may fail there), perf
    // finds no sources.
    type Invocation = (
        Vec<&'static str>,
        Vec<&'static str>,
        &'static [i32],
        &'static str,
    );
    let invocation = |mode: &str| -> Invocation {
        match mode {
            "figures" => (vec![], vec!["--list"], &[0], ""),
            "explore" => (vec!["explore"], vec![], &[2], "cannot read"),
            "validate" => (
                vec!["validate"],
                vec!["--no-cache", "--windows", "2", "--window", "100"],
                &[0, 1],
                "validate: full-detail",
            ),
            "perf" => (
                vec!["perf", "/nonexistent/a", "/nonexistent/b"],
                vec![],
                &[2],
                "perf: /nonexistent/a",
            ),
            other => unreachable!("no mode {other}"),
        }
    };
    let (_, help, _) = campaign(&dir, &["--help"]);

    for (mode, _) in MODES {
        let (select, finish, codes, needle) = invocation(mode);
        // Every flag the table gives the mode, all at once: past parsing,
        // and on to the mode's own end.
        let mut taken: Vec<String> = Vec::new();
        for f in flags().filter(|f| f.takes(mode) && f.name != "--help") {
            taken.push(f.name.to_string());
            taken.extend(value(&f));
        }
        let args: Vec<&str> = select
            .iter()
            .copied()
            .chain(taken.iter().map(String::as_str))
            .chain(finish.iter().copied())
            .collect();
        let (code, _, stderr) = campaign(&dir, &args);
        assert!(!stderr.contains("usage: campaign"), "{args:?}:\n{stderr}");
        assert!(
            code.is_some_and(|c| codes.contains(&c)) && stderr.contains(needle),
            "{args:?}: exit {code:?}, expected {codes:?} and {needle:?}:\n{stderr}"
        );

        // `campaign <mode> --help`: the one usage text, on stdout.
        let word = select.first().copied();
        let args: Vec<&str> = word.into_iter().chain(["--help"]).collect();
        let (code, stdout, stderr) = campaign(&dir, &args);
        assert_eq!((code, stdout.as_str()), (Some(0), help.as_str()), "{mode}");
        assert!(stderr.is_empty(), "{mode}:\n{stderr}");

        // Every flag it does not give the mode: a usage error.
        let takes = |name: &str| flags().any(|g| g.name == name && g.takes(mode));
        for f in flags().filter(|f| !takes(f.name)) {
            let mut args = select.clone();
            args.push(f.name);
            let v = value(&f);
            args.extend(v.as_deref());
            let (code, stdout, stderr) = campaign(&dir, &args);
            assert_eq!(code, Some(2), "{args:?}");
            assert!(stderr.starts_with("usage: campaign"), "{args:?}:\n{stderr}");
            assert!(stdout.is_empty(), "{args:?}");
        }
    }

    // The help is the table: every flag with its value and help line,
    // and README.md quotes it verbatim.
    assert!(help.starts_with("usage: campaign [FLAG]..."), "{help}");
    let readme = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../README.md");
    let readme = std::fs::read_to_string(readme).expect("README.md");
    assert!(readme.contains(&help), "README.md must quote:\n{help}");
    for f in flags() {
        assert!(
            help.contains(&format!("  {}", f.name)) && help.contains(f.help),
            "{}",
            f.name
        );
    }

    // Values are typed and ranged by the mode before it does anything.
    let rejected = |args: &[&str]| {
        let (code, _, stderr) = campaign(&dir, args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(stderr.starts_with("usage: campaign"), "{args:?}:\n{stderr}");
    };
    rejected(&["--bogus"]);
    rejected(&["--threads", "many"]);
    rejected(&["--threads"]);
    rejected(&["--deadline", "0"]);
    rejected(&["--deadline", "1e300"]);
    rejected(&["--cycle-budget", "0"]);
    rejected(&["validate", "--windows", "1"]);
    rejected(&["perf", "only-one"]);
    rejected(&["perf", "a", "b", "c"]);
    rejected(&["stray"]);

    std::fs::remove_dir_all(&dir).ok();
}
