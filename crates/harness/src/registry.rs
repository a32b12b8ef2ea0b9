//! The per-campaign shared-input registry.
//!
//! Points of one campaign routinely need the *same* inputs: a sweep runs
//! one program's trace under many configurations — most of which differ
//! only in fields functional warming never reads — and a sampled plan
//! times many windows of one trace that share most of their warm-up. The
//! registry is built once per
//! [`run_campaign`](crate::engine::run_campaign) from the point list and
//! is the only place a campaign generates traces or warms machines:
//!
//! * per **reuse key** ([`ReuseKey`]) one generated trace set, built by
//!   whichever point asks first (concurrent first requests block on one
//!   generation) and handed out as an `Arc`;
//! * per **warm key** — `(`[`warm_fingerprint`]`, warm origin)` of that
//!   reuse key's uniprocessor points — a *chain* of stops: the trace
//!   positions those points start timing from (a program point stops at
//!   its `warmup`, a sampled window at its `start`; see
//!   [`SimPoint::window`]). Each stop holds one warmed state, built once
//!   by whichever of its users asks first — concurrent first requests
//!   block on that one pass, exactly as on a generation — by continuing
//!   from the furthest state the chain already holds short of the stop,
//!   or from a cold machine at the origin when it holds none. Every user
//!   of the stop copies the state from where it sits; it never leaves the
//!   registry while anyone may still ask for it, so a late arrival cannot
//!   find it missing and start a duplicate pass. The last unreleased user
//!   takes the state instead of copying it, unless a later stop is still
//!   wanted — then the state stays as what that stop continues from and
//!   is taken by its pass. A hundred configurations of one sweep round
//!   therefore replay the warm-up once and copy it a hundred times less
//!   one; a plan's windows served in ascending order replay `last start −
//!   origin` records in total instead of Σ `(start − origin)`; served in
//!   any other order they replay more — and everyone computes the same
//!   thing, because a copy depends only on `(warm key, stop)`.
//!
//! The warm key hashes the memory configuration, the branch history
//! table's geometry, the perfect-prediction flag and the CPU count: all a
//! [`WarmCursor`] is built from, hence all its state can depend on.
//!
//! **Lifetime.** Every point is a *consumer* of its key. The engine
//! releases a point when its outcome is final (metrics, cache hit,
//! deterministic failure or quarantine — never between retries), and the
//! entry — trace and warm states — is dropped with its last consumer; a
//! stop's state goes earlier, with the stop's last user (or, kept for a
//! later stop, with that stop's pass). With the engine's reuse-affine
//! schedule a worker sits in one key at a time, so live traces are
//! bounded by the worker count; a key served in ascending order holds
//! the one state being copied from plus the copy each worker is timing
//! on — `workers + 1` machines — and the registry is empty when the
//! campaign returns.
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
use s64v_core::{warm_fingerprint, Fingerprint, WarmCursor};
use s64v_trace::VecTrace;
use s64v_workloads::{smp_traces_into, suite::tpcc_program, Suite, SuiteKind};
use std::collections::{BTreeMap, HashMap};
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
    /// Functional warm-up records uniprocessor points (program points
    /// and sampled windows) asked for: Σ `(stop − origin)` over executed
    /// attempts.
    pub records_warm_requested: u64,
    /// Records actually replayed to serve them.
    pub records_warmed: u64,
    /// Warmed machines those attempts asked for (one each).
    pub machines_requested: u64,
    /// Warming passes started on a cold machine at an origin.
    pub warm_passes: u64,
    /// Warmed states copied, for a point to time on or for a later stop
    /// to continue from.
    pub machines_copied: u64,
}

/// One stop of a chain: a trace position some points start timing from.
#[derive(Debug, Default)]
struct Stop {
    /// Points timing from here that are not yet released.
    users: usize,
    /// The state warmed over `[origin, stop)`: built once by whichever
    /// user asks first, copied by the others from where it sits.
    state: Arc<OnceLock<WarmCursor>>,
}

/// The stops of one warm key, ascending.
type Chain = BTreeMap<usize, Stop>;

/// `(warm fingerprint, warm origin)`.
type WarmKey = (Fingerprint, usize);

#[derive(Debug, Default)]
struct Entry {
    traces: OnceLock<Arc<Vec<VecTrace>>>,
    chains: Mutex<HashMap<WarmKey, Chain>>,
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

/// A poisoned lock means a worker panicked while holding it; every
/// critical section here and in the engine leaves its data consistent at
/// each step, so the survivors carry on.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The warm key of a uniprocessor point timing from `stop`.
fn warm_key(point: &SimPoint, stop: usize) -> WarmKey {
    (
        warm_fingerprint(&point.config),
        stop.saturating_sub(point.warmup),
    )
}

impl Registry {
    /// Registers every point as a consumer of its reuse key (and every
    /// uniprocessor point as a user of its stop). Nothing is generated
    /// or warmed until a point asks.
    pub fn new(points: &[SimPoint]) -> Registry {
        let mut slots: HashMap<ReuseKey, Slot> = HashMap::new();
        for point in points {
            let slot = slots.entry(ReuseKey::of(point)).or_insert_with(|| Slot {
                consumers: 0,
                entry: Arc::default(),
            });
            slot.consumers += 1;
            if let Some((stop, _)) = point.window() {
                lock(&slot.entry.chains)
                    .entry(warm_key(point, stop))
                    .or_default()
                    .entry(stop)
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

    /// The functional state after warming `[stop − warmup, stop)` of the
    /// uniprocessor `point`'s `trace`, ready to time the point's window
    /// from `stop` (see the module docs for who replays what). A point
    /// nobody shares warm-up with (bounded warming, a one-point registry)
    /// costs exactly one pass and no copy.
    pub fn warmed(&self, point: &SimPoint, trace: &VecTrace) -> WarmCursor {
        let (stop, _) = point.window().expect("only uniprocessor points warm");
        let key = warm_key(point, stop);
        let entry = self.entry(ReuseKey::of(point));
        let state = lock(&entry.chains)
            .get(&key)
            .and_then(|chain| chain.get(&stop))
            .map(|s| Arc::clone(&s.state))
            .expect("point was registered and not yet released");
        state.get_or_init(|| {
            let mut cursor = self.base(&entry, key, stop).unwrap_or_else(|| {
                lock(&self.counters).warm_passes += 1;
                WarmCursor::new(&point.config, key.1)
            });
            let replayed = cursor.advance_to(trace.records(), stop);
            lock(&self.counters).records_warmed += replayed;
            cursor
        });
        {
            let mut counters = lock(&self.counters);
            counters.machines_requested += 1;
            counters.records_warm_requested += (stop - key.1) as u64;
        }
        // The last user, with no later stop to leave the state for, takes
        // it: the chain lets go of its reference and ours is the only one.
        let last = {
            let mut chains = lock(&entry.chains);
            let chain = chains.get_mut(&key).expect("an unreleased user's chain");
            let wanted_later = chain.range(stop + 1..).any(|(_, s)| s.users > 0);
            let here = chain.get_mut(&stop).expect("an unreleased user's stop");
            let last = here.users == 1 && !wanted_later;
            if last {
                here.state = Arc::default();
            }
            last
        };
        self.take_or_copy(state, last)
    }

    /// The furthest state `key`'s chain holds short of `stop`, to continue
    /// warming from: taken out of the chain when none of its own users is
    /// left, copied otherwise.
    fn base(&self, entry: &Entry, key: WarmKey, stop: usize) -> Option<WarmCursor> {
        let mut chains = lock(&entry.chains);
        let chain = chains.get_mut(&key)?;
        let (&at, found) = chain
            .range(..stop)
            .rev()
            .find(|(_, s)| s.state.get().is_some())?;
        let spent = found.users == 0;
        let state = Arc::clone(&found.state);
        if spent {
            chain.remove(&at);
        }
        drop(chains);
        Some(self.take_or_copy(state, spent))
    }

    /// The warmed state in `state` itself when `take` is set and no one
    /// else holds it, a copy of it otherwise.
    fn take_or_copy(&self, state: Arc<OnceLock<WarmCursor>>, take: bool) -> WarmCursor {
        let shared = if take {
            match Arc::try_unwrap(state) {
                Ok(cell) => return cell.into_inner().expect("a warmed state"),
                Err(shared) => shared,
            }
        } else {
            state
        };
        lock(&self.counters).machines_copied += 1;
        shared.get().expect("a warmed state").fork()
    }

    /// Declares `point` finished for good. Drops its stop's warm state
    /// with the stop's last user (unless a later stop will continue from
    /// it) and the key's whole entry with its last consumer; the entry's
    /// trace buffers go to the next generation.
    pub fn release(&self, point: &SimPoint) {
        let key = ReuseKey::of(point);
        let mut slots = lock(&self.slots);
        let Some(slot) = slots.get_mut(&key) else {
            return;
        };
        if let Some((stop, _)) = point.window() {
            let mut chains = lock(&slot.entry.chains);
            let key = warm_key(point, stop);
            if let Some(chain) = chains.get_mut(&key) {
                let users = chain.get_mut(&stop).map_or(0, |s| {
                    s.users -= 1;
                    s.users
                });
                if users == 0 {
                    // Worth keeping only as what a later stop that is
                    // still wanted continues from — and then every
                    // earlier spent state is superseded.
                    let keep = chain[&stop].state.get().is_some()
                        && chain.range(stop + 1..).any(|(_, s)| s.users > 0);
                    chain
                        .retain(|&at, s| s.users > 0 || if keep { at >= stop } else { at != stop });
                }
                if chain.values().all(|s| s.users == 0) {
                    chains.remove(&key);
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
                let (start, _) = p.window().expect("a window");
                let same = reg.traces(p);
                assert!(Arc::ptr_eq(&traces, &same));
                let machine = reg.warmed(p, &same[0]);
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
        reg.warmed(&points[0], &traces[0]);
        reg.warmed(&points[1], &traces[0]); // behind every warmed state
        reg.warmed(&points[1], &traces[0]); // a retry: zero advance
        assert_eq!(reg.counters().records_warmed, 3_000 + 1_000);
    }

    #[test]
    fn bounded_warm_windows_never_share_and_never_fork() {
        let points: Vec<SimPoint> = [1_000, 2_500].iter().map(|&s| window(s, 400)).collect();
        let reg = Registry::new(&points);
        let traces = reg.traces(&points[0]);
        let a = reg.warmed(&points[0], &traces[0]);
        let b = reg.warmed(&points[1], &traces[0]);
        assert_eq!((a.origin(), b.origin()), (600, 2_100));
        let c = reg.counters();
        assert_eq!(c.records_warmed, 800);
        assert_eq!(c.records_warm_requested, 800);
        assert_eq!((c.warm_passes, c.machines_copied), (2, 0));
    }

    /// `n` program points on one trace whose configurations differ only
    /// in the instruction window: one warm key, one stop.
    fn sweep(n: u32) -> Vec<SimPoint> {
        (0..n)
            .map(|i| {
                let mut config = SystemConfig::sparc64_v();
                config.core.window_size = 32 + 8 * i;
                SimPoint {
                    config,
                    work: WorkUnit::Program {
                        suite: SuiteKind::SpecInt95,
                        index: 0,
                    },
                    records: 500,
                    warmup: 1_500,
                    seed: 7,
                }
            })
            .collect()
    }

    /// Warmed states the registry holds for `point`'s reuse key.
    fn held(reg: &Registry, point: &SimPoint) -> usize {
        let entry = reg.entry(ReuseKey::of(point));
        let chains = lock(&entry.chains);
        chains
            .values()
            .flat_map(|chain| chain.values())
            .filter(|stop| stop.state.get().is_some())
            .count()
    }

    #[test]
    fn a_stops_users_copy_one_state_in_place_and_the_last_takes_it() {
        let points = sweep(4);
        let reg = Registry::new(&points);
        let traces = reg.traces(&points[0]);
        for (i, p) in points.iter().enumerate() {
            let machine = reg.warmed(p, &traces[0]);
            assert_eq!((machine.origin(), machine.pos()), (0, 1_500));
            // A retry before release finds the state where it was.
            reg.warmed(p, &traces[0]);
            let last = i + 1 == points.len();
            assert_eq!(
                held(&reg, p),
                usize::from(!last),
                "one state, never a second"
            );
            if !last {
                reg.release(p);
            }
        }
        let c = reg.counters();
        assert_eq!(
            c.machines_copied, 6,
            "everyone copies but the last, who takes"
        );
        assert_eq!(c.records_warm_requested, 8 * 1_500);
        // The last user took the state; its retry has to warm again.
        assert_eq!((c.warm_passes, c.records_warmed), (2, 2 * 1_500));
        reg.release(&points[3]);
        assert_eq!(reg.live(), 0);
    }

    #[test]
    fn concurrent_first_requests_wait_for_one_pass() {
        let points = sweep(4);
        let reg = Registry::new(&points);
        let traces = reg.traces(&points[0]);
        let barrier = std::sync::Barrier::new(points.len());
        std::thread::scope(|scope| {
            for p in &points {
                let (reg, trace, barrier) = (&reg, &traces[0], &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    assert_eq!(reg.warmed(p, trace).pos(), 1_500);
                });
            }
        });
        let c = reg.counters();
        assert_eq!((c.warm_passes, c.records_warmed), (1, 1_500));
        assert_eq!(c.machines_copied, 4, "nobody is released, so nobody takes");
        assert_eq!(held(&reg, &points[0]), 1);
    }

    #[test]
    fn a_spent_state_waits_for_the_next_stop_and_is_taken_by_its_pass() {
        let points: Vec<SimPoint> = [1_000, 2_500, 4_000]
            .iter()
            .map(|&s| window(s, 6_000))
            .collect();
        let reg = Registry::new(&points);
        let traces = reg.traces(&points[0]);
        for p in &points[..2] {
            reg.warmed(p, &traces[0]);
            assert_eq!(held(&reg, p), 1);
            reg.release(p);
            assert_eq!(held(&reg, p), 1, "kept for the stop after it");
        }
        reg.warmed(&points[2], &traces[0]);
        assert_eq!(
            held(&reg, &points[2]),
            0,
            "the last stop's lone user took it"
        );
        // A later stop served from the result cache never asks: its
        // predecessor's state goes when nothing is left to want it.
        let reg = Registry::new(&points[..2]);
        let traces = reg.traces(&points[0]);
        reg.warmed(&points[0], &traces[0]);
        reg.release(&points[0]);
        assert_eq!(held(&reg, &points[1]), 1);
        reg.release(&points[1]);
        assert_eq!(reg.live(), 0);
    }
}
