//! How a campaign's points are dealt to its workers.

use crate::registry::{lock, ReuseKey};
use crate::spec::{SimPoint, WorkUnit};
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

/// Reuse-affine work distribution.
///
/// The work list is the point list reordered so that points with equal
/// [`ReuseKey`] are contiguous — groups in order of first appearance,
/// and within a group the unsampled points first, then sampled windows
/// ascending by `start`, which is the order a shared warm cursor serves
/// cheapest. Workers are dealt *contiguous* segments of that list
/// balanced by [`point_records`]; a group is split between two workers
/// only when it alone outweighs a worker's fair share. A worker pops its
/// own segment from the front, so it runs a program's pass, uses it up
/// and moves on. An idle worker steals from the *back* of a victim's
/// segment: a whole trailing group while the victim has more than one
/// group queued, and only when no victim has — nothing else is left —
/// the back half of a victim's last group, provided what is left of it
/// times from one stop (a sweep round). A chain of windows is left to
/// the worker serving it: a thief that joins a pass ahead of its victim
/// makes the pass publish, and hold, every state and window between the
/// two (`sampled_long`: 13 → up to 21 MB peak for 2 % of wall).
///
/// Scheduling decides when a point runs and how much of its input it
/// finds ready, never what it computes: outcomes are index-aligned with
/// the spec at any thread count.
pub(super) struct Schedule {
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// Reuse group of each point, by point index.
    group: Vec<usize>,
    /// Where each point starts timing its trace, by point index.
    stop: Vec<Option<usize>>,
}

impl Schedule {
    pub(super) fn new(points: &[SimPoint], workers: usize) -> Self {
        let mut ids: HashMap<ReuseKey, usize> = HashMap::new();
        let group: Vec<usize> = points
            .iter()
            .map(|p| {
                let next = ids.len();
                *ids.entry(ReuseKey::of(p)).or_insert(next)
            })
            .collect();
        let mut order: Vec<usize> = (0..points.len()).collect();
        order.sort_by_key(|&i| {
            let window_start = match points[i].work {
                WorkUnit::SampledWindow { start, .. } => Some(start),
                _ => None,
            };
            (group[i], window_start)
        });

        let cost = |i: &usize| super::point_records(&points[*i]);
        let total: u64 = order.iter().map(cost).sum();
        let share = total / workers as u64;
        let mut queues: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
        let mut dealt = 0u64;
        // The worker whose share of the cost axis holds the midpoint of
        // the run starting at `dealt`; midpoints ascend along the list,
        // so every worker's segment is contiguous.
        let mut deal = |run: &[usize], run_cost: u64| {
            let worker = (dealt + run_cost / 2) * workers as u64 / total.max(1);
            queues[(worker as usize).min(workers - 1)].extend(run);
            dealt += run_cost;
        };
        for run in order.chunk_by(|&a, &b| group[a] == group[b]) {
            let run_cost: u64 = run.iter().map(cost).sum();
            if run_cost > share {
                for i in run {
                    deal(std::slice::from_ref(i), cost(i));
                }
            } else {
                deal(run, run_cost);
            }
        }
        Schedule {
            queues: queues.into_iter().map(Mutex::new).collect(),
            group,
            stop: points
                .iter()
                .map(|p| p.window().map(|(start, _)| start))
                .collect(),
        }
    }

    // Deque locks are only held across a pop or a steal; a poisoned lock
    // means a worker died in between, and the queue itself is still
    // intact — recover it so the surviving workers drain the campaign.
    pub(super) fn queue(&self, worker: usize) -> std::sync::MutexGuard<'_, VecDeque<usize>> {
        lock(&self.queues[worker])
    }

    /// The next point for worker `me`, or `None` once every queue is
    /// empty. (Points a thief is carrying between two queues are briefly
    /// invisible, so a worker can retire a moment early; the thief still
    /// runs them.)
    pub(super) fn pop(&self, me: usize) -> Option<usize> {
        if let Some(i) = self.queue(me).pop_front() {
            return Some(i);
        }
        for split in [false, true] {
            for offset in 1..self.queues.len() {
                let victim = (me + offset) % self.queues.len();
                let mut stolen = {
                    let mut q = self.queue(victim);
                    let Some(&back) = q.back() else { continue };
                    let trailing = q
                        .iter()
                        .rev()
                        .take_while(|&&i| self.group[i] == self.group[back])
                        .count();
                    let take = if trailing < q.len() {
                        trailing
                    } else if split && q.iter().all(|&i| self.stop[i] == self.stop[back]) {
                        (trailing / 2).max(1)
                    } else {
                        continue;
                    };
                    let keep = q.len() - take;
                    q.split_off(keep)
                };
                let first = stolen.pop_front();
                self.queue(me).append(&mut stolen);
                return first;
            }
        }
        None
    }
}
