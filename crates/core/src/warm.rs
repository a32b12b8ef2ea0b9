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
//! exactly what warming reads and writes — a memory system, and beside
//! it the branch history tables of the predictors it serves — and no
//! core. The two halves never read each other, so they are keyed apart:
//! the memory state can depend on no configuration field outside
//! [`memory_warm_key`](crate::memory_warm_key), and a table on nothing but
//! its [`predictor_warm_key`](crate::predictor_warm_key). One memory
//! state therefore serves every predictor of a branch-predictor study,
//! each timed machine taking its own table.
//!
//! A cursor only ever warms; timing happens on a
//! [`WarmCursor::fork_for`], which shares nothing with the cursor it came
//! from, under whichever core configuration the run asks for. A fork at
//! `pos` is therefore field-for-field the state a fresh "cold at
//! `origin`, warm to `pos`" pass of that configuration alone builds,
//! whatever order runs are served in and whatever other tables trained
//! beside it — order decides only how many records get replayed.

use crate::integrity::SimError;
use crate::model::{timed, RunOptions};
use crate::observe::ObserveConfig;
use crate::system::{RunResult, SystemConfig};
use s64v_cpu::{warm_record, Bht, BhtConfig, Core, CoreConfig};
use s64v_mem::MemorySystem;
use s64v_observe::RunObservation;
use s64v_trace::{SliceStream, TraceRecord};

/// A uniprocessor's functional state warmed over `[origin, pos)` of one
/// trace (see the module docs).
#[derive(Debug)]
pub struct WarmCursor {
    mem: MemorySystem,
    /// One per predictor served, trained beside the memory system.
    tables: Vec<Bht>,
    origin: usize,
    pos: usize,
}

impl WarmCursor {
    /// A cold state positioned at `origin`: the memory system of `config`
    /// (the fields [`memory_warm_key`](crate::memory_warm_key) hashes)
    /// and, trained beside it, one cold table per configuration in
    /// `tables` (distinct, each some served point's
    /// [`predictor_warm_key`](crate::predictor_warm_key); a configuration
    /// alone passes its own key, no table under perfect prediction).
    ///
    /// # Panics
    ///
    /// Panics for an SMP configuration: a cursor warms one CPU.
    pub fn with_tables(
        config: &SystemConfig,
        tables: impl IntoIterator<Item = BhtConfig>,
        origin: usize,
    ) -> Self {
        assert_eq!(config.cpus, 1, "a warm cursor is uniprocessor");
        WarmCursor {
            mem: MemorySystem::new(config.mem.clone(), 1),
            tables: tables.into_iter().map(Bht::new).collect(),
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
    /// need not keep what it has warmed. The memory system sees every
    /// record once, however many tables train beside it.
    pub fn advance(&mut self, chunk: &[TraceRecord]) {
        for rec in chunk {
            warm_record(&mut self.tables, &mut self.mem, 0, rec);
        }
        self.pos += chunk.len();
    }

    /// A deep copy: the memory system's derived `Clone` (every structure,
    /// so a field added there is copied too) and every table. The copy
    /// and the cursor evolve independently from here on.
    pub fn fork(&self) -> WarmCursor {
        WarmCursor {
            mem: self.mem.clone(),
            tables: self.tables.clone(),
            origin: self.origin,
            pos: self.pos,
        }
    }

    /// The machine a core of configuration `core` times on: a deep copy
    /// of the memory system and of the one table that core predicts with
    /// (none under perfect prediction).
    ///
    /// # Panics
    ///
    /// Panics if this cursor trained no table for `core`'s predictor.
    pub fn fork_for(&self, core: &CoreConfig) -> WarmCursor {
        WarmCursor {
            mem: self.mem.clone(),
            tables: self
                .table_for(core)
                .map(|at| self.tables[at].clone())
                .into_iter()
                .collect(),
            origin: self.origin,
            pos: self.pos,
        }
    }

    /// Where the trained table `core` predicts with is; `None` under
    /// perfect prediction, which starts from a cold one.
    fn table_for(&self, core: &CoreConfig) -> Option<usize> {
        if core.perfect_branch_prediction {
            return None;
        }
        let at = self.tables.iter().position(|t| *t.config() == core.bht);
        Some(at.expect("the cursor warmed another predictor"))
    }

    /// Times `window` — the trace's records from `pos` on, as many as the
    /// run is to cover — in detail on a `core` built over this warmed
    /// state, consuming it (a state that has run timed cycles is no
    /// longer functional; fork first to keep warming). Observed per
    /// `ocfg` when given — the recorders start on the timed machine, so
    /// the warm-up is not recorded — and the observation is empty
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics on an empty window, or a `core` whose predictor this cursor
    /// did not train — never on a simulation fault.
    pub fn try_run_window(
        mut self,
        core: &CoreConfig,
        window: &[TraceRecord],
        opts: RunOptions,
        ocfg: Option<ObserveConfig>,
    ) -> Result<(RunResult, RunObservation), SimError> {
        assert!(!window.is_empty(), "empty window");
        let bht = match self.table_for(core) {
            Some(at) => self.tables.swap_remove(at),
            None => Bht::new(core.bht),
        };
        // A cursor that trained other predictors too is done with their
        // tables: they go before the timed machine is built.
        self.tables = Vec::new();
        let streams = vec![SliceStream::new(window)];
        let cores = vec![Core::warmed(core.clone(), 0, bht)];
        timed(cores, self.mem, streams, opts, ocfg)
    }
}
