//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out when the traced run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: what ran, when, which span caused it, for which point.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The simulation point the call belongs to (spans of one point
    /// share it); `u32::MAX` for work outside any point.
    pub point: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub const NO_POINT: u32 = u32::MAX;

/// Records spans on one thread; nesting follows enter/exit order.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn enter(&mut self, name: &'static str, point: u32) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            point,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].dur_ns()
    }

    /// Times `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, point: u32, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, point);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name totals: calls, total time and self time in nanoseconds.
pub fn ledger(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            point: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let spans = vec![
            span("point", 0, 100, None),
            span("warm", 10, 40, Some(0)),
            span("detailed", 40, 90, Some(0)),
            span("inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("p", 10, 50, None),
            span("a", 15, 30, Some(0)),
            span("b", 25, 40, Some(0)),
            // Starts before and ends after the parent: clipped to it.
            span("c", 0, 12, Some(0)),
            span("d", 45, 70, Some(0)),
        ];
        // Covered: [10,12) + [15,40) + [45,50) = 2 + 25 + 5.
        assert_eq!(self_times(&spans)[0], 40 - 32);
    }

    #[test]
    fn ledger_sums_by_name() {
        let spans = vec![
            span("point", 0, 50, None),
            span("warm", 0, 20, Some(0)),
            span("point", 50, 100, None),
            span("warm", 60, 70, Some(2)),
        ];
        let l = ledger(&spans);
        assert_eq!(l["point"], (2, 100, 70));
        assert_eq!(l["warm"], (2, 30, 30));
    }

    #[test]
    fn tracer_nests_by_call_order() {
        let mut t = Tracer::new();
        let outer = t.enter("outer", 7);
        t.span("inner", 7, || std::hint::black_box(1 + 1));
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.total_ns("inner"), s[1].dur_ns());
    }
}
