//! The `campaign` command line, stated once: [`TABLE`] is the flag list
//! exactly as `--help` prints it, and the same lines — flag, value name,
//! help, accepting modes — are what [`parse`] admits for each of the four
//! modes, so the parser cannot drift from its help.

use std::ops::RangeBounds;
use std::str::FromStr;

/// The modes, in usage order: each one's name — what [`TABLE`] knows it
/// by and the first argument that selects it (figures, the default, has
/// no selecting word) — and what must follow `campaign` to run it.
pub const MODES: [(&str, &str); 4] = [
    ("figures", ""),
    ("explore", "explore --spec FILE "),
    ("validate", "validate "),
    ("perf", "perf BASE NEW "),
];

/// Every flag, one per line: the flag with its value's name, two or more
/// spaces, its help, and in brackets the modes that take it. A name may
/// repeat for modes that read it differently.
pub const TABLE: &str = "  --figures all|NAME,...   figures to run, in this order (default: all) [figures]
  --list                   print the figure names and exit [figures]
  --threads N              worker threads (default: every core) [figures explore validate]
  --cache-dir DIR          result cache and journal (default: results-cache) [figures explore validate]
  --no-cache               neither read nor write a result cache [figures explore validate]
  --checked                run every point under the invariant auditor (same results) [figures validate]
  --trace PATTERN          trace points whose label contains PATTERN into the cache directory (repeatable) [figures]
  --metrics                write <fingerprint>.metrics.jsonl interval series for every point [figures]
  --deadline SECS          wall-clock limit per point attempt [figures explore]
  --cycle-budget N         simulated-cycle limit per attempt [figures explore]
  --retries N              re-attempts before quarantine (default: 2) [figures explore]
  --check-artifact PATH    validate a written artifact by its extension and exit; runs nothing (repeatable) [figures]
  --spec FILE              the query to answer (JSON, see specs/*.explore.json) [explore]
  --out FILE               also write the full report here [explore validate]
  --answer-only            print the deterministic answer section only [explore]
  --tolerance PCT          relative IPC error allowed (default: 2) [validate]
  --windows N              detailed windows per workload (default: 10) [validate]
  --window N               records per window (default: a tenth of the timed region, at least 2000) [validate]
  --sample-warmup N        records replayed functionally before each window (default: from record 0) [validate]
  --under-warm             no per-window warm-up: the negative control, expected to fail the gate [validate]
  --folded PATH            also write NEW's CPI stacks in folded (flamegraph) form [perf]
  --quiet                  no per-point progress on stderr [figures explore validate]
  --help                   print this text and exit [figures explore validate perf]
";

/// One line of [`TABLE`].
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag as typed.
    pub name: &'static str,
    /// The name of the value that follows it (`None`: a switch).
    pub value: Option<&'static str>,
    /// One line for `--help`.
    pub help: &'static str,
    modes: &'static str,
}

impl Flag {
    /// Whether `mode` accepts the flag.
    pub fn takes(&self, mode: &str) -> bool {
        self.modes.split(' ').any(|m| m == mode)
    }
}

/// The flags of [`TABLE`], in its order.
pub fn flags() -> impl Iterator<Item = Flag> {
    TABLE.lines().map(|line| {
        let shape = "a table line is `  FLAG [VALUE]  HELP [MODES]`";
        let (spelled, rest) = line.trim_start().split_once("  ").expect(shape);
        let (help, modes) = rest.trim_start().rsplit_once(" [").expect(shape);
        let (name, value) = match spelled.split_once(' ') {
            Some((name, value)) => (name, Some(value)),
            None => (spelled, None),
        };
        Flag {
            name,
            value,
            help,
            modes: modes.trim_end_matches(']'),
        }
    })
}

/// One mode's parsed command line: its flags and their values in the
/// order given, and the arguments that are not flags.
#[derive(Debug)]
pub struct Args {
    given: Vec<(&'static str, String)>,
    /// The arguments that are not flags.
    pub positional: Vec<String>,
}

/// Parses `mode`'s arguments (after the selecting word). `Err` says what
/// is wrong with them: an unknown flag or one of another mode, a missing
/// value, a stray or missing positional (`perf` takes two, `BASE NEW`).
/// Values are typed and ranged by the mode as it reads them
/// ([`Args::number`]).
pub fn parse(mode: &str, args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let positionals = 2 * usize::from(mode == "perf");
    let (mut given, mut positional) = (Vec::new(), Vec::new());
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with('-') && positional.len() < positionals {
            positional.push(arg);
            continue;
        }
        let flag = flags()
            .find(|f| f.name == arg && f.takes(mode))
            .ok_or_else(|| format!("{mode} does not take {arg}"))?;
        let value = match flag.value {
            None => String::new(),
            Some(value) => args
                .next()
                .ok_or_else(|| format!("{arg} needs its {value}"))?,
        };
        given.push((flag.name, value));
    }
    let parsed = Args { given, positional };
    if parsed.positional.len() < positionals && !parsed.has("--help") {
        return Err(format!("{mode} needs BASE and NEW"));
    }
    Ok(parsed)
}

impl Args {
    /// Every value given for `name`, in order. A name the table does not
    /// have is a bug in the caller.
    pub fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        debug_assert!(flags().any(|f| f.name == name), "no flag {name}");
        let named = move |(n, v): &'a (&str, String)| (*n == name).then_some(v.as_str());
        self.given.iter().filter_map(named)
    }

    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.all(name).next().is_some()
    }

    /// The last value given for `name`.
    pub fn text<'a>(&'a self, name: &'a str) -> Option<&'a str> {
        self.all(name).last()
    }

    /// The last value given for `name` as a number within `range`; `Err`
    /// names the flag whose value is not one.
    pub fn number<T: FromStr + PartialOrd>(
        &self,
        name: &str,
        range: impl RangeBounds<T>,
    ) -> Result<Option<T>, String> {
        let Some(value) = self.text(name) else {
            return Ok(None);
        };
        let number = value.parse().ok().filter(|n| range.contains(n));
        number
            .map(Some)
            .ok_or_else(|| format!("{name} {value}: not a number it takes"))
    }

    /// Which of `names` was given last (flags that override each other).
    pub fn last_of(&self, names: &[&str]) -> Option<&'static str> {
        let mut latest_first = self.given.iter().rev().map(|(n, _)| *n);
        latest_first.find(|n| names.contains(n))
    }
}

/// The usage text: how each mode is invoked, then [`TABLE`].
pub fn usage() -> String {
    let mut text = String::new();
    for (_, synopsis) in MODES {
        let lead = if text.is_empty() { "usage:" } else { "      " };
        text.push_str(&format!("{lead} campaign {synopsis}[FLAG]...\n"));
    }
    format!(
        "{text}\nflags, and the modes that take them:\n{TABLE}\n\
         BASE and NEW are cache directories or .cpi.json artifacts.\n\
         run sizes: S64V_RECORDS S64V_WARMUP S64V_SMP_CPUS S64V_SMP_RECORDS\n\
         \x20          S64V_SMP_WARMUP S64V_SEED; tables go to S64V_RESULTS_DIR\n"
    )
}
