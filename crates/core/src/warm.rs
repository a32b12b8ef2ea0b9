//! The warm cursor: one functional-warming pass serving many machines.
//!
//! A detailed run times `[start, start + len)` of a trace on caches, TLBs
//! and a branch predictor that have seen the records before it
//! (DESIGN.md §7.8) — a warmed program point is the window
//! `[warmup, warmup + records)`, a sampled window any other. Runs warmed
//! from a common origin share a prefix of that history, and runs that
//! differ only in what warming never reads share all of it, so replaying
//! it once and *copying* the warmed state does the work of re-warming
//! every run from the origin.
//!
//! [`WarmCursor`] is that pass: the functional state of a cold machine
//! after [`warm_record`] over trace records `[origin, pos)`. It holds
//! exactly what warming reads and writes — a branch history table, a
//! memory system, whether prediction is perfect — and no core, so the
//! state cannot depend on any configuration field outside
//! [`warm_fingerprint`](crate::warm_fingerprint). It only ever warms;
//! timing happens on a [`WarmCursor::fork`], which shares nothing with
//! the cursor it came from, under whichever core configuration the run
//! asks for. A fork at `pos` is therefore field-for-field the state a
//! fresh "cold at `origin`, warm to `pos`" pass builds, whatever order
//! runs are served in — order decides only how many records get replayed.

use crate::integrity::SimError;
use crate::model::{timed, RunOptions};
use crate::observe::ObserveConfig;
use crate::system::{RunResult, SystemConfig};
use s64v_cpu::{warm_record, Bht, Core, CoreConfig};
use s64v_mem::MemorySystem;
use s64v_observe::RunObservation;
use s64v_trace::{SliceStream, TraceRecord};

/// A uniprocessor's functional state warmed over `[origin, pos)` of one
/// trace (see the module docs).
#[derive(Debug)]
pub struct WarmCursor {
    bht: Bht,
    /// Perfect branch prediction: the table is never trained.
    perfect_branches: bool,
    mem: MemorySystem,
    origin: usize,
    pos: usize,
}

impl WarmCursor {
    /// A cold state positioned at `origin`, built from the fields of
    /// `config` that [`warm_fingerprint`](crate::warm_fingerprint) hashes.
    ///
    /// # Panics
    ///
    /// Panics for an SMP configuration: a cursor warms one CPU.
    pub fn new(config: &SystemConfig, origin: usize) -> Self {
        assert_eq!(config.cpus, 1, "a warm cursor is uniprocessor");
        WarmCursor {
            bht: Bht::new(config.core.bht),
            perfect_branches: config.core.perfect_branch_prediction,
            mem: MemorySystem::new(config.mem.clone(), 1),
            origin,
            pos: origin,
        }
    }

    /// First record this cursor warmed from.
    pub fn origin(&self) -> usize {
        self.origin
    }

    /// Next record to warm: the start of a window timed now.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Continues the pass through `chunk`, the trace's next records
    /// (`[self.pos(), self.pos() + chunk.len())`): a cursor takes its
    /// trace a piece at a time and never looks back, so whoever feeds it
    /// need not keep what it has warmed.
    pub fn advance(&mut self, chunk: &[TraceRecord]) {
        for rec in chunk {
            let bht = (!self.perfect_branches).then_some(&mut self.bht);
            warm_record(bht, &mut self.mem, 0, rec);
        }
        self.pos += chunk.len();
    }

    /// A deep copy: every memory-system structure and the branch history.
    /// The copy and the cursor evolve independently from here on.
    pub fn fork(&self) -> WarmCursor {
        WarmCursor {
            bht: self.bht.clone(),
            perfect_branches: self.perfect_branches,
            mem: self.mem.fork(),
            origin: self.origin,
            pos: self.pos,
        }
    }

    /// Times `window` — the trace's records from `pos` on, as many as the
    /// run is to cover — in detail on a `core` built over this warmed
    /// state, consuming it (a state that has run timed cycles is no
    /// longer functional; fork first to keep warming). Observed per
    /// `ocfg` when given — probes attach to the timed machine, so the
    /// warm-up is not narrated — and the observation is empty otherwise.
    ///
    /// # Panics
    ///
    /// Panics on an empty window, or a `core` whose predictor is not the
    /// one this cursor warmed — never on a simulation fault.
    pub fn try_run_window(
        self,
        core: &CoreConfig,
        window: &[TraceRecord],
        opts: RunOptions,
        ocfg: Option<ObserveConfig>,
    ) -> Result<(RunResult, RunObservation), SimError> {
        assert!(!window.is_empty(), "empty window");
        assert_eq!(
            core.perfect_branch_prediction, self.perfect_branches,
            "the cursor warmed another predictor"
        );
        let streams = vec![SliceStream::new(window)];
        let cores = vec![Core::warmed(core.clone(), 0, self.bht)];
        timed(cores, self.mem, streams, opts, ocfg)
    }
}
