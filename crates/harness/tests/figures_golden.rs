//! The whole evaluation at smoke size, pinned: `campaign --figures all`
//! must print `specs/figures_smoke.golden.txt`'s first section on stdout
//! and write exactly the CSVs of its second section. The gate of
//! `sampling_accuracy` legitimately fails at these sizes (it is tuned for
//! the CI geometry), so the pinned exit code is 1 with that figure the
//! only one that did not render.
//!
//! After an *intentional* change to a rendered table:
//! `cargo test -p s64v-harness --test figures_golden -- --ignored regenerate`,
//! and explain the diff.

use std::path::PathBuf;
use std::process::{Command, Stdio};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../specs/figures_smoke.golden.txt"
);

const SIZES: [(&str, &str); 6] = [
    ("S64V_RECORDS", "8000"),
    ("S64V_WARMUP", "40000"),
    ("S64V_SMP_CPUS", "2"),
    ("S64V_SMP_RECORDS", "4000"),
    ("S64V_SMP_WARMUP", "20000"),
    ("S64V_SEED", "42"),
];

/// One per figure, except `workloads_report` (prints only) and
/// `fig19_accuracy` (one table per CPU2000 suite).
const CSVS: [&str; 23] = [
    "ablation.csv",
    "ablation_bus.csv",
    "ablation_window.csv",
    "cpi_stack.csv",
    "cpi_topdown.csv",
    "fig07_breakdown.csv",
    "fig08_issue_width.csv",
    "fig09_bht.csv",
    "fig10_bpred_miss.csv",
    "fig11_l1.csv",
    "fig12_l1i_miss.csv",
    "fig13_l1d_miss.csv",
    "fig14_l2.csv",
    "fig15_l2_miss.csv",
    "fig16_prefetch.csv",
    "fig17_prefetch_miss.csv",
    "fig18_rs.csv",
    "fig19_accuracy_SPECfp2000.csv",
    "fig19_accuracy_SPECint2000.csv",
    "sampling_accuracy.csv",
    "stability.csv",
    "table1.csv",
    "verify_model.csv",
];

/// What one `--figures all --no-cache --quiet` run produced.
struct Evaluation {
    code: Option<i32>,
    stdout: String,
    stderr: String,
    /// The written CSVs in name order, each under a `== <file> ==` line.
    csvs: String,
}

fn evaluate(tag: &str) -> Evaluation {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("s64v-figures-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["--figures", "all", "--no-cache", "--quiet"])
        .stdin(Stdio::null())
        .current_dir(&dir)
        .envs(SIZES)
        .env("S64V_RESULTS_DIR", dir.join("results"))
        .output()
        .expect("campaign binary runs");
    let mut names: Vec<String> = std::fs::read_dir(dir.join("results"))
        .expect("results directory")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .collect();
    names.sort();
    assert_eq!(names, CSVS, "exactly the expected CSVs are written");
    let mut csvs = String::new();
    for name in &names {
        csvs.push_str(&format!("== {name} ==\n"));
        csvs.push_str(&std::fs::read_to_string(dir.join("results").join(name)).expect("CSV"));
    }
    std::fs::remove_dir_all(&dir).ok();
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    Evaluation {
        code: out.status.code(),
        stdout: text(&out.stdout),
        stderr: text(&out.stderr),
        csvs,
    }
}

#[test]
fn the_smoke_evaluation_matches_the_golden_byte_for_byte() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file");
    let split = golden
        .find(&format!("== {} ==\n", CSVS[0]))
        .expect("the golden has a CSV section");
    let (want_stdout, want_csvs) = golden.split_at(split);
    let got = evaluate("check");
    assert!(
        got.stdout == want_stdout,
        "stdout departs from {GOLDEN}:\n{}",
        got.stdout
    );
    assert!(
        got.csvs == want_csvs,
        "CSVs depart from {GOLDEN}:\n{}",
        got.csvs
    );

    assert_eq!(got.code, Some(1), "{}", got.stderr);
    let unrendered: Vec<&str> = got
        .stderr
        .lines()
        .filter(|l| l.starts_with("figure ") && l.contains("did not render"))
        .collect();
    assert_eq!(unrendered.len(), 1, "{}", got.stderr);
    assert!(
        unrendered[0].starts_with("figure sampling_accuracy did not render"),
        "{}",
        unrendered[0]
    );
    assert!(
        got.stderr
            .contains("campaign FAILED: 0 point(s) failed, 1 figure(s) did not render"),
        "{}",
        got.stderr
    );
}

#[test]
#[ignore = "rewrites specs/figures_smoke.golden.txt"]
fn regenerate() {
    let got = evaluate("regenerate");
    std::fs::write(GOLDEN, got.stdout + &got.csvs).expect("writing the golden file");
}
