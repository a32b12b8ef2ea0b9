//! The warm cursor: one functional-warming pass serving many windows.
//!
//! A sampled run times short detailed windows of a long trace, each on
//! caches, TLBs and a branch predictor that have seen the `warm` records
//! before it (DESIGN.md §7.8). Windows warmed from a common origin share
//! a prefix of that history, so replaying it once and *copying* the
//! warmed state at each window start does the work of re-warming every
//! window from the origin — Σ window starts becomes the last start.
//!
//! [`WarmCursor`] is that pass: the functional state of a cold machine
//! after [`Core::warm`] over trace records `[origin, pos)`. It only ever
//! warms; timing happens on a [`WarmCursor::fork`], which shares nothing
//! with the cursor it came from. A fork at `pos` is therefore
//! field-for-field the machine a fresh "cold at `origin`, warm to `pos`"
//! pass builds, whatever order windows are served in — order decides
//! only how many records get replayed.

use crate::integrity::SimError;
use crate::model::{collect_result, drive, RunOptions};
use crate::system::{RunResult, SystemConfig};
use s64v_cpu::Core;
use s64v_mem::MemorySystem;
use s64v_trace::{SliceStream, TraceRecord};

/// A uniprocessor machine functionally warmed over `[origin, pos)` of
/// one trace (see the module docs).
#[derive(Debug)]
pub struct WarmCursor {
    core: Core,
    mem: MemorySystem,
    origin: usize,
    pos: usize,
}

impl WarmCursor {
    /// A cold machine positioned at `origin`.
    ///
    /// # Panics
    ///
    /// Panics for an SMP configuration: sampled windows are uniprocessor.
    pub fn new(config: &SystemConfig, origin: usize) -> Self {
        assert_eq!(config.cpus, 1, "sampled windows are uniprocessor");
        WarmCursor {
            core: Core::new(config.core.clone(), 0),
            mem: MemorySystem::new(config.mem.clone(), 1),
            origin,
            pos: origin,
        }
    }

    /// First record this cursor warmed from.
    pub fn origin(&self) -> usize {
        self.origin
    }

    /// Next record to warm: the start of a window forked now.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Continues the pass through `records[self.pos()..pos]` and returns
    /// how many records that replayed.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is behind the cursor (a cursor cannot rewind; the
    /// caller starts another at the origin) or beyond the trace.
    pub fn advance_to(&mut self, records: &[TraceRecord], pos: usize) -> u64 {
        assert!(pos >= self.pos, "a warm cursor only moves forward");
        let mut stream = SliceStream::new(&records[self.pos..pos]);
        let replayed = self
            .core
            .fast_forward(&mut self.mem, &mut stream, (pos - self.pos) as u64);
        self.pos = pos;
        replayed
    }

    /// A deep copy: every memory-system structure plus a fresh core
    /// carrying the branch history. The copy and the cursor evolve
    /// independently from here on.
    pub fn fork(&self) -> WarmCursor {
        WarmCursor {
            core: self.core.fork_warm(),
            mem: self.mem.fork(),
            origin: self.origin,
            pos: self.pos,
        }
    }

    /// Times `records[pos..pos + len]` in detail on this warmed machine,
    /// consuming it (a cursor that has run timed cycles is no longer a
    /// functional state; fork first to keep warming).
    ///
    /// # Panics
    ///
    /// Panics on an empty or out-of-range window, never on a simulation
    /// fault.
    pub fn try_run_window(
        self,
        records: &[TraceRecord],
        len: usize,
        opts: RunOptions,
    ) -> Result<RunResult, SimError> {
        assert!(len > 0, "empty window");
        assert!(self.pos + len <= records.len(), "window exceeds the trace");
        let mut streams = [SliceStream::new(&records[self.pos..self.pos + len])];
        let mut cores = [self.core];
        let mut mem = self.mem;
        let cycles = drive(&mut cores, &mut mem, &mut streams, opts, None)?;
        Ok(collect_result(cycles, &cores, &mem))
    }
}
