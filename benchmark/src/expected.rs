//! `expected/<workload>.json`: the exact simulated statistics of the
//! default seed at full size, which a change meant only to make the
//! simulator faster must leave identical.

use crate::api::Json;
use std::collections::BTreeMap;
use std::path::Path;

pub const DEFAULT_SEED: u64 = 42;

pub type Facts = BTreeMap<String, u64>;

/// The two fact sets of one workload: what the end-to-end run produces
/// and what the traced run adds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Expected {
    pub untraced: Facts,
    pub traced: Facts,
}

fn facts_json(facts: &Facts) -> Json {
    facts
        .iter()
        .fold(Json::obj(), |obj, (k, v)| obj.field(k, *v))
}

fn facts_from(v: Option<&Json>, what: &str) -> Result<Facts, String> {
    let Some(Json::Obj(fields)) = v else {
        return Err(format!("missing object \"{what}\""));
    };
    fields
        .iter()
        .map(|(k, v)| {
            v.as_i64()
                .and_then(|i| u64::try_from(i).ok())
                .map(|i| (k.clone(), i))
                .ok_or_else(|| format!("{what}.{k} is not a count"))
        })
        .collect()
}

impl Expected {
    pub fn to_text(&self) -> String {
        let doc = Json::obj()
            .field("seed", DEFAULT_SEED)
            .field("untraced", facts_json(&self.untraced))
            .field("traced", facts_json(&self.traced));
        format!("{doc:#}\n")
    }

    pub fn parse(text: &str) -> Result<Expected, String> {
        let doc = Json::parse(text)?;
        Ok(Expected {
            untraced: facts_from(doc.get("untraced"), "untraced")?,
            traced: facts_from(doc.get("traced"), "traced")?,
        })
    }

    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Expected::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn save(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_text()).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// The names whose value differs between the two sets, or that only one
/// of them has.
pub fn mismatches(expected: &Facts, actual: &Facts) -> Vec<String> {
    let mut names: Vec<String> = expected
        .iter()
        .filter(|(k, v)| actual.get(*k) != Some(v))
        .map(|(k, _)| k.clone())
        .collect();
    names.extend(
        actual
            .keys()
            .filter(|k| !expected.contains_key(*k))
            .cloned(),
    );
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(pairs: &[(&str, u64)]) -> Facts {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn file_round_trips() {
        let e = Expected {
            untraced: facts(&[
                ("TPC-C[0].cycles", 123_456_789_012),
                ("TPC-C[0].committed", 7),
            ]),
            traced: facts(&[("cycles", 9), ("hash", u64::MAX >> 1)]),
        };
        assert_eq!(Expected::parse(&e.to_text()), Ok(e));
    }

    #[test]
    fn malformed_files_are_refused() {
        assert!(Expected::parse("{").is_err());
        assert!(Expected::parse(r#"{"untraced": {}}"#).is_err());
        assert!(Expected::parse(r#"{"untraced": {"a": 1.5}, "traced": {}}"#).is_err());
        assert!(Expected::parse(r#"{"untraced": {"a": -1}, "traced": {}}"#).is_err());
    }

    #[test]
    fn mismatches_name_changed_missing_and_extra() {
        let want = facts(&[("same", 1), ("changed", 2), ("gone", 3)]);
        let got = facts(&[("same", 1), ("changed", 9), ("new", 4)]);
        assert_eq!(mismatches(&want, &got), vec!["changed", "gone", "new"]);
        assert!(mismatches(&want, &want).is_empty());
    }
}
