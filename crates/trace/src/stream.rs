//! Streaming interface consumed by the simulator.
//!
//! The core model pulls records one at a time through [`TraceStream`]; this
//! keeps memory bounded for long traces and lets workload generators feed
//! the simulator *lazily*: `s64v-workloads`' `ProgramStream` hands a trace
//! out chunk by chunk, functional warming consumes each chunk and forgets
//! it, and a campaign materializes — as a [`VecTrace`] read through a
//! [`SliceStream`] — only the windows it times in detail.

use crate::record::TraceRecord;

/// A source of trace records.
///
/// Implementors produce the committed-order dynamic instruction stream of
/// one CPU. `next_record` returns `None` at end of trace.
pub trait TraceStream {
    /// Produces the next record, or `None` when the trace is exhausted.
    fn next_record(&mut self) -> Option<TraceRecord>;

    /// A hint of how many records remain (`None` if unknown/unbounded).
    fn remaining_hint(&self) -> Option<u64> {
        None
    }
}

/// An owned, fully materialized trace.
///
/// # Examples
///
/// ```
/// use s64v_isa::Instr;
/// use s64v_trace::{TraceRecord, TraceStream, VecTrace};
///
/// let trace = VecTrace::from_records(vec![TraceRecord::new(0, Instr::nop())]);
/// let mut s = trace.stream();
/// assert!(s.next_record().is_some());
/// assert!(s.next_record().is_none());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VecTrace {
    records: Vec<TraceRecord>,
}

impl VecTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        VecTrace::default()
    }

    /// Wraps a vector of records.
    pub fn from_records(records: Vec<TraceRecord>) -> Self {
        VecTrace { records }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records as a slice.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Appends a record.
    pub fn push(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    /// A borrowing stream over the records.
    pub fn stream(&self) -> SliceStream<'_> {
        SliceStream {
            records: &self.records,
            pos: 0,
        }
    }

    /// Iterator over records.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceRecord> {
        self.records.iter()
    }
}

impl FromIterator<TraceRecord> for VecTrace {
    fn from_iter<T: IntoIterator<Item = TraceRecord>>(iter: T) -> Self {
        VecTrace {
            records: iter.into_iter().collect(),
        }
    }
}

impl Extend<TraceRecord> for VecTrace {
    fn extend<T: IntoIterator<Item = TraceRecord>>(&mut self, iter: T) {
        self.records.extend(iter);
    }
}

impl IntoIterator for VecTrace {
    type Item = TraceRecord;
    type IntoIter = std::vec::IntoIter<TraceRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

impl<'a> IntoIterator for &'a VecTrace {
    type Item = &'a TraceRecord;
    type IntoIter = std::slice::Iter<'a, TraceRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

/// Borrowing stream over a slice of records (see [`VecTrace::stream`]).
#[derive(Debug, Clone)]
pub struct SliceStream<'a> {
    records: &'a [TraceRecord],
    pos: usize,
}

impl<'a> SliceStream<'a> {
    /// Creates a stream over a record slice.
    pub fn new(records: &'a [TraceRecord]) -> Self {
        SliceStream { records, pos: 0 }
    }
}

impl TraceStream for SliceStream<'_> {
    fn next_record(&mut self) -> Option<TraceRecord> {
        let r = self.records.get(self.pos).copied()?;
        self.pos += 1;
        Some(r)
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some((self.records.len() - self.pos) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s64v_isa::Instr;

    fn nops(n: usize) -> VecTrace {
        (0..n)
            .map(|i| TraceRecord::new(i as u64 * 4, Instr::nop()))
            .collect()
    }

    #[test]
    fn slice_stream_yields_in_order_and_ends() {
        let t = nops(3);
        let mut s = t.stream();
        assert_eq!(s.remaining_hint(), Some(3));
        assert_eq!(s.next_record().unwrap().pc, 0);
        assert_eq!(s.next_record().unwrap().pc, 4);
        assert_eq!(s.next_record().unwrap().pc, 8);
        assert!(s.next_record().is_none());
        assert_eq!(s.remaining_hint(), Some(0));
    }

    #[test]
    fn vec_trace_collects_and_extends() {
        let mut t: VecTrace = nops(2).into_iter().collect();
        t.extend(nops(3));
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
    }
}
