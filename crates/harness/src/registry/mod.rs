//! The per-campaign shared-input registry.
//!
//! Points of one campaign routinely need the *same* inputs: a sweep runs
//! one program's trace under many configurations — most of which differ
//! only in fields functional warming never reads — and a sampled plan
//! times many windows of one trace that share most of their warm-up. The
//! registry is built once per
//! [`run_campaign`](crate::engine::run_campaign) from the point list and
//! is the only place a campaign generates traces or warms machines.
//!
//! **A program is one forward pass.** Per uniprocessor **reuse key**
//! ([`ReuseKey::Program`]) the registry holds no trace. It holds a
//! [`ProgramStream`] and a *plan*, known in full when [`Registry::new`]
//! has seen the points, of what that stream's records are wanted for:
//!
//! * the **windows** points time — a program point `[warmup, warmup +
//!   records)`, a sampled window `[start, start + len)`, a verification
//!   point the whole `[0, n)` (see [`SimPoint::window`]) — one per
//!   distinct range, whoever shares it;
//! * per **memory key** — `(`[`memory_warm_key`]`, warm origin)` of the
//!   key's points — a *chain* of **stops**: the positions those points
//!   start timing from, each wanting the functional state of a cold
//!   machine warmed over `[origin, stop)`; and beside the chain, its
//!   points' distinct [`predictor_warm_key`]s — one branch history table
//!   each, none under perfect prediction.
//!
//! Whoever asks for something the pass has not reached advances it: one
//! chunk of 4 096 records at a time is generated into a buffer that
//! stays in the host's cache, replayed through the live cursor of *every*
//! chain — one memory state, and the tables training beside it — copied
//! into the windows it overlaps, and forgotten. A chunk ends early at a
//! plan position (a chain's origin, a stop, a window's end), so
//! everything is **published** exactly where it falls: a chain starts
//! cold at its origin, training a table for each predictor still wanted;
//! at a stop its cursor — memory state and tables — is copied into the
//! stop (the chain's last wanted stop gets the cursor itself); a window
//! complete at its end becomes a shared trace. A point's machine is a
//! copy of its stop's memory state plus a copy of its own table: field
//! for field what a cursor of that configuration alone would have built.
//! Askers of something already published copy or share it from where it
//! sits. Several workers may ask at once — the pass is behind one lock,
//! held a chunk at a time, so they take turns advancing and each stops
//! when its own item is out.
//!
//! Nothing is therefore replayed or generated twice, whatever order
//! points are served in and however many workers serve them: records
//! generated, records warmed, tables trained and passes started are
//! functions of the point list alone (a result-cache hit releases its
//! point unasked and can only shorten the pass or spare a table). A
//! hundred configurations of one sweep round replay the warm-up once and
//! copy it a hundred times; a branch-predictor study warms each program's
//! memory once beside one table per predictor; a plan's windows cost one
//! replay up to the last start.
//!
//! The two keys split warm state along the boundary `s64v_cpu`'s
//! `warm_record` already has — the memory system and the tables never
//! read each other. The memory key hashes the memory
//! configuration and the CPU count, all a cursor's memory system is built
//! from; the predictor key is the table's configuration. Both are
//! computed once per point, when the plan is.
//!
//! **What is held when.** Every point is a *consumer* of its key and a
//! *user* of its window and stop. The engine releases a point when its
//! outcome is final — metrics, cache hit, failure or timeout, after its
//! one attempt. A published state or window is dropped with
//! its last user, and one nobody is left to want is never built; the
//! whole entry — generator, cursors — goes with the key's last consumer.
//! A key in service thus holds one chunk, the cursors of chains with a
//! stop still ahead, and the states and windows published but not yet
//! released: memory follows the plan, not the trace's length. A table is
//! trained only if a point wanting it is unreleased when its chain
//! starts. The registry is empty when the campaign returns.
//!
//! **A runner that dies.** A worker that unwinds while holding a pass
//! leaves it half-advanced — some cursors past the chunk, some not. The
//! next to lock it discards the pass whole: the generator, every cursor
//! and everything published (whoever already copied or shares an item
//! keeps it). The pass starts over from the seed and republishes what
//! still has users.
//!
//! **SMP keys** ([`ReuseKey::Smp`]) run sixteen lock-stepped streams that
//! the model warms itself: their trace set is generated whole, once, by
//! whichever point asks first (concurrent first requests block on that
//! one generation), shared as an `Arc` and dropped with the key.
//!
//! Generation and warming are deterministic, so sharing never changes a
//! result; the counters say how much it saved.

use crate::spec::{SimPoint, WorkUnit};
use s64v_core::{memory_warm_key, predictor_warm_key, BhtConfig, Fingerprint, WarmCursor};
use s64v_trace::{TraceRecord, VecTrace};
use s64v_workloads::program::ProgramStream;
use s64v_workloads::{smp_traces, suite::tpcc_program, Suite, SuiteKind};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Records a pass generates, warms and forgets at a time: small enough
/// (128 KB) to be read back from the host's cache by every cursor, large
/// enough that taking the pass's lock is noise.
const CHUNK: usize = 4096;

/// What makes two points' generated inputs identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReuseKey {
    /// One uniprocessor program trace (`Program`, `Verify` and
    /// `SampledWindow` points).
    Program {
        /// Suite the program belongs to.
        suite: SuiteKind,
        /// Index within the suite's program list.
        index: usize,
        /// Nominal trace length in records.
        records: usize,
        /// Exact generation seed.
        seed: u64,
    },
    /// One TPC-C trace per CPU with overlapping shared regions.
    Smp {
        /// CPUs (= traces).
        cpus: usize,
        /// Records per CPU.
        records: usize,
        /// Exact generation seed.
        seed: u64,
    },
}

impl ReuseKey {
    /// The key of `point`'s inputs.
    pub fn of(point: &SimPoint) -> ReuseKey {
        match point.work {
            WorkUnit::Program { suite, index } | WorkUnit::Verify { suite, index } => {
                ReuseKey::Program {
                    suite,
                    index,
                    records: point.records + point.warmup,
                    seed: point.seed,
                }
            }
            // A window point's `records` is already the whole trace.
            WorkUnit::SampledWindow { suite, index, .. } => ReuseKey::Program {
                suite,
                index,
                records: point.records,
                seed: point.seed,
            },
            WorkUnit::SmpTpcc => ReuseKey::Smp {
                cpus: point.config.cpus,
                records: point.records + point.warmup,
                seed: point.seed,
            },
        }
    }
}

/// Exact counts of what a campaign asked of the registry and what the
/// registry actually did (see [`crate::progress::CampaignReport`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryCounters {
    /// Trace sets points asked for (one per point that ran; a cache hit
    /// asks for none).
    pub traces_requested: u64,
    /// Generators started: one per program pass, one per SMP trace set.
    pub traces_generated: u64,
    /// Records generated, summed over every CPU's trace.
    pub records_generated: u64,
    /// Records kept as a trace someone times: every distinct window of a
    /// program key, the whole trace set of an SMP key.
    pub records_materialized: u64,
    /// Functional warm-up records uniprocessor points (program points
    /// and sampled windows) asked for: Σ `(stop − origin)` over the points
    /// that ran.
    pub records_warm_requested: u64,
    /// Records actually replayed through a memory state to serve them.
    pub records_warmed: u64,
    /// Warmed machines those points asked for (one each).
    pub machines_requested: u64,
    /// Cold memory states started at a chain's origin.
    pub warm_passes: u64,
    /// Warmed states copied: into a stop the cursor moves on from, and
    /// out of a stop for a point to time on.
    pub machines_copied: u64,
    /// Cold branch history tables started beside a memory state.
    pub tables_trained: u64,
    /// Records replayed into those tables, summed over tables.
    pub records_trained: u64,
}

/// One stop of a chain: a trace position some points start timing from.
#[derive(Debug, Default)]
struct Stop {
    /// Points timing from here that are not yet released.
    users: usize,
    /// The state warmed over `[origin, stop)`, once the pass has come by.
    state: Option<Arc<WarmCursor>>,
}

/// One memory key's stops, its predictors and the cursor warming towards
/// them.
#[derive(Debug)]
struct Chain {
    memory: Fingerprint,
    origin: usize,
    /// A point whose configuration builds this chain's cold memory state.
    config: usize,
    /// The chain's distinct predictors, each with its unreleased points.
    tables: Vec<(BhtConfig, usize)>,
    /// Tables the live cursor trains.
    training: usize,
    stops: BTreeMap<usize, Stop>,
    /// Live from the origin to the last stop anyone still wants.
    cursor: Option<WarmCursor>,
}

impl Chain {
    fn wanted_from(&self, pos: usize) -> bool {
        self.stops.range(pos..).any(|(_, stop)| stop.users > 0)
    }

    /// The pass stands at `pos`, a chunk boundary: start the chain if
    /// this is its origin, publish the stop if this is one, and let the
    /// cursor go when no wanted stop is left ahead.
    fn settle(&mut self, pos: usize, points: &[SimPoint], counters: &mut RegistryCounters) {
        if pos == self.origin && self.wanted_from(pos) {
            let wanted = self.tables.iter().filter(|(_, users)| *users > 0);
            let tables: Vec<BhtConfig> = wanted.map(|&(table, _)| table).collect();
            self.training = tables.len();
            let config = &points[self.config].config;
            self.cursor = Some(WarmCursor::with_tables(config, tables, pos));
            counters.warm_passes += 1;
            counters.tables_trained += self.training as u64;
        }
        let Some(cursor) = self.cursor.take() else {
            return;
        };
        let wanted_later = self.wanted_from(pos + 1);
        match self.stops.get_mut(&pos) {
            Some(stop) if stop.users > 0 && wanted_later => {
                counters.machines_copied += 1;
                stop.state = Some(Arc::new(cursor.fork()));
                self.cursor = Some(cursor);
            }
            Some(stop) if stop.users > 0 => stop.state = Some(Arc::new(cursor)),
            _ if wanted_later => self.cursor = Some(cursor),
            _ => {}
        }
    }
}

/// One distinct range of records some points time.
#[derive(Debug, Default)]
struct Window {
    /// Points timing it that are not yet released.
    users: usize,
    /// The part of the range the pass has been through so far.
    filling: Vec<TraceRecord>,
    /// The whole range as a one-CPU trace set, once the pass is past it.
    records: Option<Arc<Vec<VecTrace>>>,
}

/// One program's forward pass: the plan and how far it has come (see the
/// module docs).
#[derive(Debug)]
struct Pass {
    suite: SuiteKind,
    index: usize,
    seed: u64,
    chains: Vec<Chain>,
    /// By `(start, len)`.
    windows: BTreeMap<(usize, usize), Window>,
    /// Every chain origin, stop and window end: where chunks end early.
    cuts: BTreeSet<usize>,
    /// The generator and its chunk buffer; `None` until someone asks.
    run: Option<Box<(ProgramStream, Vec<TraceRecord>)>>,
}

impl Pass {
    /// Generates the next chunk and takes it everywhere it is wanted.
    fn step(&mut self, points: &[SimPoint], counters: &Mutex<RegistryCounters>) {
        if self.run.is_none() {
            let suite = Suite::preset(self.suite);
            let stream = suite.programs()[self.index].stream(self.seed);
            self.run = Some(Box::new((stream, Vec::new())));
            let mut counters = lock(counters);
            counters.traces_generated += 1;
            for chain in &mut self.chains {
                chain.settle(0, points, &mut counters);
            }
        }
        let (stream, chunk) = &mut **self.run.as_mut().expect("started above");
        let pos = stream.pos();
        let cut = self.cuts.range(pos + 1..).next();
        let upto = (pos + CHUNK).min(*cut.expect("nothing is wanted past the plan's last cut"));
        chunk.clear();
        stream.fill(chunk, upto);
        let (mut warmed, mut trained) = (0, 0);
        for chain in &mut self.chains {
            if let Some(cursor) = &mut chain.cursor {
                cursor.advance(chunk);
                warmed += chunk.len();
                trained += chunk.len() * chain.training;
            }
        }
        let mut materialized = 0;
        for (&(start, len), window) in self.windows.range_mut(..(upto, 0)) {
            let (from, to) = (start.max(pos), (start + len).min(upto));
            if window.users == 0 || window.records.is_some() || from >= to {
                continue;
            }
            window.filling.reserve_exact(len - window.filling.len());
            window
                .filling
                .extend_from_slice(&chunk[from - pos..to - pos]);
            materialized += to - from;
            if to == start + len {
                let trace = VecTrace::from_records(std::mem::take(&mut window.filling));
                window.records = Some(Arc::new(vec![trace]));
            }
        }
        let mut counters = lock(counters);
        counters.records_generated += chunk.len() as u64;
        counters.records_warmed += warmed as u64;
        counters.records_trained += trained as u64;
        counters.records_materialized += materialized as u64;
        for chain in &mut self.chains {
            chain.settle(upto, points, &mut counters);
        }
    }

    /// Forgets everything but the plan (see "A runner that dies").
    fn discard(&mut self) {
        self.run = None;
        for chain in &mut self.chains {
            chain.cursor = None;
            for stop in chain.stops.values_mut() {
                stop.state = None;
            }
        }
        for window in self.windows.values_mut() {
            *window = Window {
                users: window.users,
                ..Window::default()
            };
        }
    }
}

/// The pass behind `pass`, discarded first if a runner died holding it.
fn runner(pass: &Mutex<Pass>) -> MutexGuard<'_, Pass> {
    pass.lock().unwrap_or_else(|dead| {
        let mut half_advanced = dead.into_inner();
        half_advanced.discard();
        pass.clear_poison();
        half_advanced
    })
}

/// What one reuse key's points share.
#[derive(Debug)]
enum Entry {
    Program(Mutex<Pass>),
    Smp(OnceLock<Arc<Vec<VecTrace>>>),
}

#[derive(Debug)]
struct Slot {
    consumers: usize,
    entry: Arc<Entry>,
}

/// What one point asks of its key's entry: worked out once, in
/// [`Registry::new`].
#[derive(Debug, Clone, Copy)]
struct Ask {
    key: ReuseKey,
    /// The records the point times, `(start, len)` (program keys).
    window: Option<(usize, usize)>,
    /// The chain (by index in its pass) and stop the point times from.
    stop: Option<(usize, usize)>,
    /// The chain's table (by index) the point predicts with.
    table: Option<usize>,
}

/// The shared inputs of one campaign (see the module docs).
#[derive(Debug)]
pub struct Registry<'a> {
    points: &'a [SimPoint],
    /// By point index.
    asks: Vec<Ask>,
    slots: Mutex<HashMap<ReuseKey, Slot>>,
    counters: Mutex<RegistryCounters>,
}

/// A poisoned lock means a worker panicked while holding it; every
/// critical section that takes a lock this way leaves its data
/// consistent at each step, so the survivors carry on.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<'a> Registry<'a> {
    /// Registers every point as a consumer of its reuse key and plans
    /// each program key's pass. Nothing is generated or warmed until a
    /// point asks.
    pub fn new(points: &'a [SimPoint]) -> Registry<'a> {
        let mut entries: HashMap<ReuseKey, (usize, Entry)> = HashMap::new();
        let mut asks = Vec::with_capacity(points.len());
        for (at, point) in points.iter().enumerate() {
            let key = ReuseKey::of(point);
            let (consumers, entry) = entries.entry(key).or_insert_with(|| {
                let entry = match key {
                    ReuseKey::Program {
                        suite, index, seed, ..
                    } => Entry::Program(Mutex::new(Pass {
                        suite,
                        index,
                        seed,
                        chains: Vec::new(),
                        windows: BTreeMap::new(),
                        cuts: BTreeSet::new(),
                        run: None,
                    })),
                    ReuseKey::Smp { .. } => Entry::Smp(OnceLock::new()),
                };
                (0, entry)
            });
            *consumers += 1;
            let mut ask = Ask {
                key,
                window: None,
                stop: None,
                table: None,
            };
            if let Entry::Program(pass) = entry {
                let pass = pass.get_mut().unwrap_or_else(|e| e.into_inner());
                // A verification point times its whole trace on machines
                // of its own; the others a window on a shared warm state.
                let (start, len) = point.window().unwrap_or((0, point.records + point.warmup));
                pass.windows.entry((start, len)).or_default().users += 1;
                pass.cuts.insert(start + len);
                ask.window = Some((start, len));
                if point.window().is_some() {
                    let memory = memory_warm_key(&point.config);
                    let origin = start.saturating_sub(point.warmup);
                    let known = pass
                        .chains
                        .iter()
                        .position(|c| (c.memory, c.origin) == (memory, origin));
                    let chain = known.unwrap_or_else(|| {
                        pass.chains.push(Chain {
                            memory,
                            origin,
                            config: at,
                            tables: Vec::new(),
                            training: 0,
                            stops: BTreeMap::new(),
                            cursor: None,
                        });
                        pass.chains.len() - 1
                    });
                    pass.cuts.extend([origin, start]);
                    ask.stop = Some((chain, start));
                    let chain = &mut pass.chains[chain];
                    chain.stops.entry(start).or_default().users += 1;
                    ask.table = predictor_warm_key(&point.config).map(|bht| {
                        let known = chain.tables.iter().position(|&(t, _)| t == bht);
                        let table = known.unwrap_or_else(|| {
                            chain.tables.push((bht, 0));
                            chain.tables.len() - 1
                        });
                        chain.tables[table].1 += 1;
                        table
                    });
                }
            }
            asks.push(ask);
        }
        let slots = entries
            .into_iter()
            .map(|(key, (consumers, entry))| {
                let entry = Arc::new(entry);
                (key, Slot { consumers, entry })
            })
            .collect();
        Registry {
            points,
            asks,
            slots: Mutex::new(slots),
            counters: Mutex::default(),
        }
    }

    fn entry(&self, key: ReuseKey) -> Arc<Entry> {
        lock(&self.slots)
            .get(&key)
            .map(|slot| Arc::clone(&slot.entry))
            .expect("point was registered and not yet released")
    }

    /// Advances `pass` until `published` finds what it is after.
    fn ask<T>(&self, pass: &Mutex<Pass>, published: impl Fn(&Pass) -> Option<T>) -> T {
        loop {
            // Locked a chunk at a time: others ask and release in between.
            let mut pass = runner(pass);
            if let Some(found) = published(&pass) {
                return found;
            }
            pass.step(self.points, &self.counters);
        }
    }

    /// The trace set point `at` times, one trace per CPU: a uniprocessor
    /// point's window of its program — record 0 of the trace is the first
    /// record timed (for a verification point, of the program) — or an
    /// SMP point's whole traces, warm-up included. Generated by whoever
    /// asks first; everyone after shares it.
    pub fn traces(&self, at: usize) -> Arc<Vec<VecTrace>> {
        lock(&self.counters).traces_requested += 1;
        let ask = self.asks[at];
        match &*self.entry(ask.key) {
            Entry::Program(pass) => {
                let range = ask.window.expect("a program key's point");
                self.ask(pass, |pass| pass.windows[&range].records.clone())
            }
            Entry::Smp(traces) => Arc::clone(traces.get_or_init(|| {
                let ReuseKey::Smp {
                    cpus,
                    records,
                    seed,
                } = ask.key
                else {
                    unreachable!("an SMP entry's key");
                };
                let traces = smp_traces(&tpcc_program(), cpus, records, seed);
                let generated: usize = traces.iter().map(VecTrace::len).sum();
                let mut counters = lock(&self.counters);
                counters.traces_generated += 1;
                counters.records_generated += generated as u64;
                counters.records_materialized += generated as u64;
                Arc::new(traces)
            })),
        }
    }

    /// The functional state after warming `[stop − warmup, stop)` of
    /// uniprocessor point `at`'s program, ready to time the point's
    /// window from `stop`: a copy of the memory state its stop holds and
    /// of the point's own table (see the module docs for who replays
    /// what).
    pub fn warmed(&self, at: usize) -> WarmCursor {
        let ask = self.asks[at];
        let (chain, stop) = ask.stop.expect("only uniprocessor points warm");
        let Entry::Program(pass) = &*self.entry(ask.key) else {
            unreachable!("a uniprocessor point's key");
        };
        let (state, origin) = self.ask(pass, |pass| {
            let chain = &pass.chains[chain];
            let state = chain.stops[&stop].state.clone()?;
            Some((state, chain.origin))
        });
        let mut counters = lock(&self.counters);
        counters.machines_requested += 1;
        counters.records_warm_requested += (stop - origin) as u64;
        counters.machines_copied += 1;
        drop(counters);
        state.fork_for(&self.points[at].config.core)
    }

    /// Declares point `at` finished for good. Drops its window and its
    /// stop's warm state with their last user and the key's whole entry
    /// with its last consumer.
    pub fn release(&self, at: usize) {
        let ask = self.asks[at];
        if let Entry::Program(pass) = &*self.entry(ask.key) {
            let mut pass = runner(pass);
            if let Some(window) = ask.window.and_then(|range| pass.windows.get_mut(&range)) {
                window.users -= 1;
                if window.users == 0 {
                    *window = Window::default();
                }
            }
            if let Some((chain, stop)) = ask.stop {
                let chain = &mut pass.chains[chain];
                if let Some(table) = ask.table {
                    chain.tables[table].1 -= 1;
                }
                let stop = chain.stops.get_mut(&stop).expect("a planned stop");
                stop.users -= 1;
                if stop.users == 0 {
                    stop.state = None;
                }
            }
        }
        let mut slots = lock(&self.slots);
        let slot = slots.get_mut(&ask.key).expect("an unreleased point's key");
        slot.consumers -= 1;
        let spent = (slot.consumers == 0).then(|| slots.remove(&ask.key));
        // The generator and cursors are freed outside the lock.
        drop(slots);
        drop(spent);
    }

    /// Keys that still have unreleased consumers.
    pub fn live(&self) -> usize {
        lock(&self.slots).len()
    }

    /// The counts so far.
    pub fn counters(&self) -> RegistryCounters {
        *lock(&self.counters)
    }
}

#[cfg(test)]
mod tests;
