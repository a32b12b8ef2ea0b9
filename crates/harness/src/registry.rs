//! The per-campaign shared-input registry.
//!
//! Points of one campaign routinely need the *same* inputs: a sweep runs
//! one program's trace under many configurations, a sampled plan times
//! many windows of one trace, and those windows share most of their
//! functional warm-up. The registry is built once per
//! [`run_campaign`](crate::engine::run_campaign) from the point list and
//! is the only place a campaign generates traces or warms cursors:
//!
//! * per **reuse key** ([`ReuseKey`]) one generated trace set, built by
//!   whichever point asks first (concurrent first requests block on one
//!   generation) and handed out as an `Arc`;
//! * per `(config fingerprint, warm origin)` of that key's sampled
//!   windows a pool of [`WarmCursor`]s. A window takes the cursor that
//!   is furthest along without having passed its start (or a cold one at
//!   the origin when none is), advances it *outside* any lock, forks its
//!   machine, and puts the cursor back. Served in ascending order a
//!   plan's windows therefore replay `last start − origin` records in
//!   total instead of Σ `(start − origin)`; served in any other order,
//!   or by several workers at once, they replay more — and compute the
//!   same thing, because a fork depends only on `(origin, start)`.
//!
//! **Lifetime.** Every point is a *consumer* of its key. The engine
//! releases a point when its outcome is final (metrics, cache hit,
//! deterministic failure or quarantine — never between retries), and the
//! entry — trace and cursors — is dropped with its last consumer. With
//! the engine's reuse-affine schedule a worker sits in one key at a
//! time, so live traces are bounded by the worker count, and the
//! registry is empty when the campaign returns.
//!
//! **Buffers.** A dropped entry's trace *allocations* are kept and the
//! next generation builds into them, so a campaign allocates about one
//! trace set per worker, once, instead of one per key. A buffer set is
//! only created when none is spare — when every existing one is live —
//! so spare plus live sets stay bounded by the worker count too. This is
//! what keeps a campaign's peak memory the same from run to run: freeing
//! and re-allocating multi-megabyte blocks leaves holes in the
//! allocator's heaps whose reuse depends on which small allocation lands
//! in them first, i.e. on thread timing.
//!
//! Generation and warming are deterministic, so sharing never changes a
//! result; the counters say how much it saved.

use crate::spec::{SimPoint, WorkUnit};
use s64v_core::{config_fingerprint, Fingerprint, WarmCursor};
use s64v_trace::VecTrace;
use s64v_workloads::{smp_traces_into, suite::tpcc_program, Suite, SuiteKind};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

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
        /// Trace length in records.
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

    /// The key's trace set, built into the allocations of `spare` (a
    /// trace set some finished key no longer needs, or empty).
    fn generate(self, spare: Vec<VecTrace>) -> Vec<VecTrace> {
        match self {
            ReuseKey::Program {
                suite,
                index,
                records,
                seed,
            } => {
                let buffer = spare.into_iter().next().unwrap_or_default();
                vec![Suite::preset(suite).programs()[index].generate_into(buffer, records, seed)]
            }
            ReuseKey::Smp {
                cpus,
                records,
                seed,
            } => smp_traces_into(&tpcc_program(), cpus, records, seed, spare),
        }
    }
}

/// Exact counts of what a campaign asked of the registry and what the
/// registry actually did (see [`crate::progress::CampaignReport`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryCounters {
    /// Trace sets points asked for (one per executed attempt).
    pub traces_requested: u64,
    /// Trace sets generated.
    pub traces_generated: u64,
    /// Records generated, summed over every CPU's trace.
    pub records_generated: u64,
    /// Functional warm-up records sampled windows asked for:
    /// Σ `(start − origin)` over executed window attempts.
    pub records_warm_requested: u64,
    /// Records cursors actually replayed to serve them.
    pub records_warmed: u64,
}

/// Warm cursors of one `(config fingerprint, origin)`.
#[derive(Debug, Default)]
struct CursorSlot {
    /// Window points not yet released.
    users: usize,
    pool: Vec<WarmCursor>,
}

type CursorKey = (Fingerprint, usize);

#[derive(Debug, Default)]
struct Entry {
    traces: OnceLock<Arc<Vec<VecTrace>>>,
    cursors: Mutex<HashMap<CursorKey, CursorSlot>>,
}

#[derive(Debug)]
struct Slot {
    consumers: usize,
    entry: Arc<Entry>,
}

/// The shared inputs of one campaign (see the module docs).
#[derive(Debug)]
pub struct Registry {
    slots: Mutex<HashMap<ReuseKey, Slot>>,
    /// Trace sets of dropped entries, waiting to be generated into.
    spare: Mutex<Vec<Vec<VecTrace>>>,
    counters: Mutex<RegistryCounters>,
}

/// A poisoned lock here means a worker panicked while holding it; every
/// critical section below leaves the maps consistent at each step, so
/// the survivors carry on.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The warm origin and cursor key of a sampled-window point.
fn cursor_key(point: &SimPoint, start: usize) -> CursorKey {
    (
        config_fingerprint(&point.config),
        start.saturating_sub(point.warmup),
    )
}

impl Registry {
    /// Registers every point as a consumer of its reuse key (and every
    /// sampled window as a user of its cursor key). Nothing is generated
    /// until a point asks.
    pub fn new(points: &[SimPoint]) -> Registry {
        let mut slots: HashMap<ReuseKey, Slot> = HashMap::new();
        for point in points {
            let slot = slots.entry(ReuseKey::of(point)).or_insert_with(|| Slot {
                consumers: 0,
                entry: Arc::default(),
            });
            slot.consumers += 1;
            if let WorkUnit::SampledWindow { start, .. } = point.work {
                lock(&slot.entry.cursors)
                    .entry(cursor_key(point, start))
                    .or_default()
                    .users += 1;
            }
        }
        Registry {
            slots: Mutex::new(slots),
            spare: Mutex::default(),
            counters: Mutex::default(),
        }
    }

    fn entry(&self, key: ReuseKey) -> Arc<Entry> {
        lock(&self.slots)
            .get(&key)
            .map(|slot| Arc::clone(&slot.entry))
            .expect("point was registered and not yet released")
    }

    /// The point's generated trace set (one trace per CPU), generating it
    /// if no earlier consumer of the key has.
    pub fn traces(&self, point: &SimPoint) -> Arc<Vec<VecTrace>> {
        lock(&self.counters).traces_requested += 1;
        let key = ReuseKey::of(point);
        let entry = self.entry(key);
        let traces = entry.traces.get_or_init(|| {
            let spare = lock(&self.spare).pop().unwrap_or_default();
            let traces = key.generate(spare);
            let records: usize = traces.iter().map(VecTrace::len).sum();
            let mut counters = lock(&self.counters);
            counters.traces_generated += 1;
            counters.records_generated += records as u64;
            Arc::new(traces)
        });
        Arc::clone(traces)
    }

    /// A machine functionally warmed over `[start − warmup, start)` of
    /// the sampled-window `point`'s `trace`, ready to time the window.
    /// The last unreleased user of a cursor takes the cursor itself
    /// instead of a copy, so a window nobody shares warm-up with
    /// (bounded warming, a one-point registry) costs exactly one pass
    /// and no fork.
    pub fn warmed(&self, point: &SimPoint, trace: &VecTrace, start: usize) -> WarmCursor {
        let key = cursor_key(point, start);
        let entry = self.entry(ReuseKey::of(point));
        let (taken, shared) = {
            let mut cursors = lock(&entry.cursors);
            let slot = cursors.get_mut(&key).expect("window was registered");
            let best = (0..slot.pool.len())
                .filter(|&i| slot.pool[i].pos() <= start)
                .max_by_key(|&i| slot.pool[i].pos());
            (best.map(|i| slot.pool.swap_remove(i)), slot.users > 1)
        };
        let mut cursor = taken.unwrap_or_else(|| WarmCursor::new(&point.config, key.1));
        let replayed = cursor.advance_to(trace.records(), start);
        {
            let mut counters = lock(&self.counters);
            counters.records_warm_requested += (start - key.1) as u64;
            counters.records_warmed += replayed;
        }
        if !shared {
            return cursor;
        }
        let fork = cursor.fork();
        // The slot is gone if every other user was released meanwhile.
        if let Some(slot) = lock(&entry.cursors).get_mut(&key) {
            slot.pool.push(cursor);
        }
        fork
    }

    /// Declares `point` finished for good. Drops its cursors with their
    /// last user and the key's whole entry with its last consumer; the
    /// entry's trace buffers go to the next generation.
    pub fn release(&self, point: &SimPoint) {
        let key = ReuseKey::of(point);
        let mut slots = lock(&self.slots);
        let Some(slot) = slots.get_mut(&key) else {
            return;
        };
        if let WorkUnit::SampledWindow { start, .. } = point.work {
            let mut cursors = lock(&slot.entry.cursors);
            let ckey = cursor_key(point, start);
            if let Some(c) = cursors.get_mut(&ckey) {
                c.users -= 1;
                if c.users == 0 {
                    cursors.remove(&ckey);
                }
            }
        }
        slot.consumers -= 1;
        if slot.consumers > 0 {
            return;
        }
        let entry = slots.remove(&key).map(|slot| slot.entry);
        drop(slots);
        // Every consumer is done, so nobody else holds the entry or its
        // traces — unless one died holding them, and then they are just
        // freed. An entry served from the result cache never generated.
        let traces = entry
            .and_then(Arc::into_inner)
            .and_then(|entry| entry.traces.into_inner())
            .and_then(Arc::into_inner);
        if let Some(traces) = traces {
            lock(&self.spare).push(traces);
        }
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
mod tests {
    use super::*;
    use s64v_core::SystemConfig;

    fn window(start: usize, warmup: usize) -> SimPoint {
        SimPoint {
            config: SystemConfig::sparc64_v(),
            work: WorkUnit::SampledWindow {
                suite: SuiteKind::SpecInt95,
                index: 0,
                start,
                len: 500,
            },
            records: 6_000,
            warmup,
            seed: 7,
        }
    }

    #[test]
    fn a_full_point_and_its_windows_share_one_key() {
        let full = SimPoint {
            work: WorkUnit::Program {
                suite: SuiteKind::SpecInt95,
                index: 0,
            },
            records: 4_000,
            warmup: 2_000,
            ..window(0, 0)
        };
        assert_eq!(ReuseKey::of(&full), ReuseKey::of(&window(2_000, 6_000)));
        let verify = SimPoint {
            work: WorkUnit::Verify {
                suite: SuiteKind::SpecInt95,
                index: 0,
            },
            ..full.clone()
        };
        assert_eq!(ReuseKey::of(&full), ReuseKey::of(&verify));
        let smp = SimPoint {
            config: SystemConfig::smp(2),
            work: WorkUnit::SmpTpcc,
            ..full.clone()
        };
        assert_ne!(ReuseKey::of(&full), ReuseKey::of(&smp));
    }

    #[test]
    fn ascending_windows_warm_once_and_release_empties_the_registry() {
        let points: Vec<SimPoint> = [1_000, 2_500, 4_000]
            .iter()
            .map(|&s| window(s, 6_000))
            .collect();
        let reg = Registry::new(&points);
        assert_eq!(reg.live(), 1);
        let weak = {
            let traces = reg.traces(&points[0]);
            for p in &points {
                let WorkUnit::SampledWindow { start, .. } = p.work else {
                    unreachable!()
                };
                let same = reg.traces(p);
                assert!(Arc::ptr_eq(&traces, &same));
                let machine = reg.warmed(p, &same[0], start);
                assert_eq!((machine.origin(), machine.pos()), (0, start));
            }
            Arc::downgrade(&traces)
        };
        let c = reg.counters();
        assert_eq!((c.traces_requested, c.traces_generated), (4, 1));
        assert_eq!(c.records_generated, 6_000);
        assert_eq!(c.records_warm_requested, 1_000 + 2_500 + 4_000);
        assert_eq!(c.records_warmed, 4_000, "one pass to the last start");
        for p in &points {
            assert!(weak.upgrade().is_some(), "held until the last consumer");
            reg.release(p);
        }
        assert_eq!(reg.live(), 0);
        assert!(weak.upgrade().is_none(), "dropped with the last consumer");
    }

    #[test]
    fn a_finished_keys_buffer_serves_the_next_generation() {
        let first = window(1_000, 6_000);
        let second = SimPoint {
            seed: 8,
            ..first.clone()
        };
        let reg = Registry::new(&[first.clone(), second.clone()]);
        let buffer = reg.traces(&first)[0].records().as_ptr();
        reg.release(&first);
        let traces = reg.traces(&second);
        assert_eq!(traces[0].records().as_ptr(), buffer, "no new allocation");
        let fresh = Suite::preset(SuiteKind::SpecInt95).programs()[0].generate(6_000, 8);
        assert_eq!(traces[0], fresh, "and the trace a fresh buffer would hold");
        assert_eq!(reg.counters().traces_generated, 2);
    }

    #[test]
    fn out_of_order_and_repeated_requests_start_over_from_the_origin() {
        let points: Vec<SimPoint> = [3_000, 1_000].iter().map(|&s| window(s, 6_000)).collect();
        let reg = Registry::new(&points);
        let traces = reg.traces(&points[0]);
        reg.warmed(&points[0], &traces[0], 3_000);
        reg.warmed(&points[1], &traces[0], 1_000); // behind the cursor
        reg.warmed(&points[1], &traces[0], 1_000); // a retry: zero advance
        assert_eq!(reg.counters().records_warmed, 3_000 + 1_000);
    }

    #[test]
    fn bounded_warm_windows_never_share_and_never_fork() {
        let points: Vec<SimPoint> = [1_000, 2_500].iter().map(|&s| window(s, 400)).collect();
        let reg = Registry::new(&points);
        let traces = reg.traces(&points[0]);
        let a = reg.warmed(&points[0], &traces[0], 1_000);
        let b = reg.warmed(&points[1], &traces[0], 2_500);
        assert_eq!((a.origin(), b.origin()), (600, 2_100));
        let c = reg.counters();
        assert_eq!(c.records_warmed, 800);
        assert_eq!(c.records_warm_requested, 800);
    }
}
