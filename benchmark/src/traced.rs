//! The traced run: the benchmark drives a workload's points serially
//! through each layer's public functions with a span around every call,
//! and beside that runs the same points through the engine. The spans
//! give the per-layer host times; the two paths must produce identical
//! statistics, or the spans measured different work.
//!
//! Nothing here is timed from inside the simulator: a layer's time is
//! what its public entry points took when called from this file.

use crate::api::{self, Config, Extra, Metrics, Point, Trace, Work};
use crate::expected::{Expected, Facts};
use crate::metrics::PER_LAYER;
use crate::report::{self, Check, RunInfo};
use crate::span::{self, Tracer, NO_POINT};
use crate::stats::{self, ns_per, pct, per_kilo};
use crate::workloads::{self, Ctx, Outcome, Workload, SAMPLED_PROGRAMS};
use std::collections::{BTreeMap, BTreeSet};

/// Operations per component loop: enough to time, a blink to run.
const COMPONENT_OPS: u64 = 2_000_000;
/// Cache entries stored, loaded and journaled by the storage loops.
const STORAGE_OPS: usize = 16;
/// `campaign --list` starts timed for `harness.cli_start_ms`.
const CLI_STARTS: usize = 5;

/// A generated program trace and what it was generated from.
#[derive(Default)]
struct TraceSlot {
    key: Option<(api::SuiteId, usize, usize, u64)>,
    trace: Trace,
    /// The caller generated the trace as set-up, outside the point.
    ready_made: bool,
}

/// Exact counters summed over the points driven by hand.
#[derive(Default)]
struct Sums {
    points: u64,
    cycles: u64,
    committed: u64,
    l1i_misses: u64,
    l1d_misses: u64,
    l2_demand_misses: u64,
    mispredicts: u64,
    branches: u64,
    bus_transactions: u64,
    bus_busy_cycles: u64,
    move_outs: u64,
    prefetches: u64,
    cpi_groups: [u64; 5],
    extra: Extra,
    /// Records generated, functionally replayed and timed in detail.
    generated: u64,
    functional: u64,
    detailed: u64,
}

impl Sums {
    fn add(&mut self, m: &Metrics, e: &Extra) {
        self.points += 1;
        self.cycles += m.cycles;
        self.committed += m.committed;
        self.l1i_misses += m.l1i.0;
        self.l1d_misses += m.l1d.0;
        self.l2_demand_misses += m.l2_demand.0;
        self.mispredicts += m.mispredict.0;
        self.branches += m.mispredict.1;
        self.bus_transactions += m.bus_transactions;
        self.bus_busy_cycles += m.bus_busy_cycles;
        self.move_outs += m.move_outs;
        self.prefetches += m.prefetches;
        for (sum, g) in self.cpi_groups.iter_mut().zip(api::cpi_groups(m)) {
            *sum += g;
        }
        self.extra.replays += e.replays;
        self.extra.dtlb_misses += e.dtlb_misses;
        self.extra.prefetch_useful += e.prefetch_useful;
    }

    fn facts(&self) -> Vec<(&'static str, u64)> {
        let g = self.cpi_groups;
        vec![
            ("points", self.points),
            ("cycles", self.cycles),
            ("committed", self.committed),
            ("l1i_misses", self.l1i_misses),
            ("l1d_misses", self.l1d_misses),
            ("l2_demand_misses", self.l2_demand_misses),
            ("dtlb_misses", self.extra.dtlb_misses),
            ("mispredicts", self.mispredicts),
            ("branches", self.branches),
            ("replays", self.extra.replays),
            ("bus_transactions", self.bus_transactions),
            ("bus_busy_cycles", self.bus_busy_cycles),
            ("move_outs", self.move_outs),
            ("prefetches", self.prefetches),
            ("prefetch_useful", self.extra.prefetch_useful),
            ("cpi.retire", g[0]),
            ("cpi.frontend", g[1]),
            ("cpi.bad_speculation", g[2]),
            ("cpi.backend_core", g[3]),
            ("cpi.backend_memory", g[4]),
            ("records.generated", self.generated),
            ("records.functional", self.functional),
            ("records.detailed", self.detailed),
        ]
    }
}

struct Pass<'a> {
    ctx: &'a Ctx,
    tr: Tracer,
    check: Check,
    values: BTreeMap<&'static str, f64>,
    facts: Facts,
    sums: Sums,
    /// Records and accesses of the probes that have no point of their own.
    noskip_records: u64,
    warm_replay_accesses: u64,
    timed_replay_accesses: u64,
    timed_replay_records: u64,
}

/// What the engine would generate for `points`, and how many distinct
/// traces that is: a program point generates its own trace, window
/// points share one per (program, length, seed).
fn regen_ratio(points: &[Point]) -> f64 {
    let mut distinct = BTreeSet::new();
    let mut windows = BTreeSet::new();
    let mut generations = 0usize;
    for p in points {
        match api::work_of(p) {
            Work::Program { suite, index } => {
                generations += 1;
                distinct.insert((suite as usize, index, p.records + p.warmup, p.seed));
            }
            Work::Window { suite, index, .. } => {
                let key = (suite as usize, index, p.records, p.seed);
                distinct.insert(key);
                windows.insert(key);
            }
        }
    }
    generations += windows.len();
    if distinct.is_empty() {
        0.0
    } else {
        generations as f64 / distinct.len() as f64
    }
}

/// Records a point replays functionally, and records it times.
fn point_records(p: &Point) -> (u64, u64) {
    match api::work_of(p) {
        Work::Program { .. } => (p.warmup as u64, p.records as u64),
        Work::Window { start, len, .. } => (p.warmup.min(start) as u64, len as u64),
    }
}

impl<'a> Pass<'a> {
    fn new(ctx: &'a Ctx) -> Pass<'a> {
        Pass {
            ctx,
            tr: Tracer::new(),
            check: Check::default(),
            values: BTreeMap::new(),
            facts: Facts::new(),
            sums: Sums::default(),
            noskip_records: 0,
            warm_replay_accesses: 0,
            timed_replay_accesses: 0,
            timed_replay_records: 0,
        }
    }

    fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    /// Counts one attempted operation and, if it failed, why.
    fn attempt<T>(&mut self, label: &str, r: Result<T, String>) -> Option<T> {
        self.check.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.check.failed += 1;
                self.check.note(format!("{label}: {e}"));
                None
            }
        }
    }

    // -----------------------------------------------------------------
    // The manual path
    // -----------------------------------------------------------------

    /// Makes `slot` hold the trace `p` runs, generating it in a span.
    /// As in the engine, a program point generates its own trace every
    /// time and the windows of one sampled trace share it.
    fn trace_for(&mut self, pid: u32, p: &Point, slot: &mut TraceSlot) {
        let (suite, index, len, shared) = match api::work_of(p) {
            Work::Program { suite, index } => (suite, index, p.records + p.warmup, false),
            Work::Window { suite, index, .. } => (suite, index, p.records, true),
        };
        let key = Some((suite, index, len, p.seed));
        if slot.key != key || !(shared || slot.ready_made) {
            slot.trace = Trace::default();
            slot.trace = self.tr.span("workloads.generate", pid, || {
                api::generate(suite, index, len, p.seed)
            });
            slot.key = key;
            self.sums.generated += len as u64;
        }
    }

    /// One point, one public call per span: generate, build the memory
    /// system and the core, replay the warm-up functionally, time the
    /// rest with `Core::run_from`, flatten the statistics.
    fn manual_point(
        &mut self,
        pid: u32,
        p: &Point,
        slot: &mut TraceSlot,
    ) -> Result<Metrics, String> {
        let root = self.tr.enter("point", pid);
        self.trace_for(pid, p, slot);
        let records = slot.trace.records();
        let mut mem = self.tr.span("mem.new", pid, || api::new_mem(&p.config));
        let mut cpu = self.tr.span("cpu.new", pid, || api::new_cpu(&p.config, 0));
        let timed = match api::work_of(p) {
            Work::Program { .. } => {
                self.tr.span("cpu.warm", pid, || {
                    api::warm(
                        std::slice::from_mut(&mut cpu),
                        &mut mem,
                        std::slice::from_ref(&slot.trace),
                        p.warmup,
                    )
                });
                &records[p.warmup..]
            }
            Work::Window { start, len, .. } => {
                let from = start.saturating_sub(p.warmup);
                self.tr.span("cpu.fast_forward", pid, || {
                    api::fast_forward(&mut cpu, &mut mem, &records[from..start])
                });
                &records[start..start + len]
            }
        };
        let cycles = self.tr.span("cpu.detailed", pid, || {
            api::detailed(&mut cpu, &mut mem, timed)
        });
        let out = cycles.map(|cycles| {
            let cpus = std::slice::from_ref(&cpu);
            let m = self
                .tr
                .span("core.collect", pid, || api::collect(cycles, cpus, &mem));
            let (functional, detailed) = point_records(p);
            self.sums.add(&m, &api::extra(cpus, &mem));
            self.sums.functional += functional;
            self.sums.detailed += detailed;
            m
        });
        self.tr.exit(root);
        out
    }

    /// The same program point with quiescent-cycle skipping off.
    fn noskip_point(&mut self, pid: u32, p: &Point, trace: &Trace) -> Result<Metrics, String> {
        let mut mem = api::new_mem(&p.config);
        let mut cpu = api::new_cpu(&p.config, 0);
        api::warm(
            std::slice::from_mut(&mut cpu),
            &mut mem,
            std::slice::from_ref(trace),
            p.warmup,
        );
        api::set_skip(&mut cpu, false);
        let timed = &trace.records()[p.warmup..];
        let cycles = self.tr.span("cpu.noskip", pid, || {
            api::detailed(&mut cpu, &mut mem, timed)
        })?;
        self.noskip_records += timed.len() as u64;
        Ok(api::collect(cycles, std::slice::from_ref(&cpu), &mem))
    }

    /// The memory system alone: the first `warm` records of every trace
    /// through the functional entry points, the next `timed` through
    /// the timed ones.
    fn mem_replay(&mut self, pid: u32, cfg: &Config, traces: &[Trace], warm: usize, timed: usize) {
        let mut mem = api::new_mem(cfg);
        let warm_accesses = self.tr.span("mem.warm_replay", pid, || {
            traces
                .iter()
                .enumerate()
                .map(|(cpu, t)| api::mem_warm_replay(&mut mem, cpu, &t.records()[..warm]))
                .sum::<u64>()
        });
        let rest: Vec<_> = traces
            .iter()
            .map(|t| &t.records()[warm..warm + timed])
            .collect();
        let timed_accesses = self.tr.span("mem.timed_replay", pid, || {
            api::mem_timed_replay(&mut mem, &rest)
        });
        self.warm_replay_accesses += warm_accesses;
        self.timed_replay_accesses += timed_accesses;
        self.timed_replay_records += (timed * traces.len()) as u64;
    }

    // -----------------------------------------------------------------
    // Workload-independent component loops
    // -----------------------------------------------------------------

    /// Times `f`, a loop of `ops` operations, as one span; returns what
    /// it returned and the nanoseconds per operation.
    fn per_op<R>(&mut self, span: &'static str, ops: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let t = self.tr.enter(span, NO_POINT);
        let out = f();
        (out, ns_per(self.tr.exit(t), ops))
    }

    fn components(&mut self) -> Result<(), String> {
        let ops = COMPONENT_OPS;
        let ((), ns) = self.per_op("component.bht", ops, || api::bht_ops(ops));
        self.set("cpu.bht_op_ns", ns);
        let ((), ns) = self.per_op("component.cache", ops, || api::cache_ops(ops));
        self.set("mem.cache_access_ns", ns);
        let ((), ns) = self.per_op("component.directory", ops, || api::directory_ops(ops));
        self.set("mem.directory_op_ns", ns);

        let cfg = api::config(1);
        let points: Vec<Point> = (0..STORAGE_OPS)
            .map(|i| api::program_point(&cfg, api::SuiteId::SpecInt95, 0, 1_000 + i, 1_000, 7))
            .collect();
        let fingerprints = 2_000;
        let ((), ns) = self.per_op("component.fingerprint", fingerprints as u64, || {
            for i in 0..fingerprints {
                std::hint::black_box(api::fingerprint_hex(&points[i % points.len()]));
            }
        });
        self.set("core.fingerprint_us", ns / 1e3);

        let dir = self.ctx.fresh_dir("storage")?;
        let metrics = Metrics::default();
        let io = |e: std::io::Error| format!("storage loop in {}: {e}", dir.display());
        let n = STORAGE_OPS as u64;
        let (stored, ns) = self.per_op("component.cache_store", n, || {
            points
                .iter()
                .try_for_each(|p| api::cache_store(&dir, p, &metrics))
        });
        stored.map_err(io)?;
        self.set("harness.cache_store_us", ns / 1e3);
        let (all_back, ns) = self.per_op("component.cache_load", n, || {
            points
                .iter()
                .all(|p| api::cache_load(&dir, p).as_ref() == Some(&metrics))
        });
        if !all_back {
            self.check
                .broken("a stored cache entry did not load back".into());
        }
        self.set("harness.cache_load_us", ns / 1e3);
        let (journaled, ns) = self.per_op("component.journal", n, || {
            api::journal_record(&dir, &points)
        });
        journaled.map_err(io)?;
        self.set("harness.journal_record_us", ns / 1e3);
        let _ = std::fs::remove_dir_all(&dir);

        let mut starts = Vec::new();
        for _ in 0..CLI_STARTS {
            let t = self.tr.enter("component.cli_start", NO_POINT);
            starts.push(workloads::cli_start(self.ctx)?);
            self.tr.exit(t);
        }
        self.set("harness.cli_start_ms", stats::median(&starts) * 1e3);
        Ok(())
    }

    // -----------------------------------------------------------------
    // The six workloads
    // -----------------------------------------------------------------

    fn uniprocessor(&mut self, w: Workload) {
        let (programs, warm, detailed) = self.ctx.up_programs(w);
        let cfg = api::config(1);
        for (i, &(suite, index)) in programs.iter().enumerate() {
            let pid = i as u32;
            let label = api::program_label(suite, index);
            let seed = api::derived_seed(self.ctx.seed, suite, index);
            let p = api::program_point(&cfg, suite, index, detailed, warm, seed);
            // These workloads get their traces ready-made: generation is
            // set-up, outside the point.
            let mut slot = TraceSlot::default();
            self.trace_for(pid, &p, &mut slot);
            slot.ready_made = true;
            let manual = self.manual_point(pid, &p, &mut slot);
            let Some(manual) = self.attempt(&label, manual) else {
                continue;
            };
            let traces = std::slice::from_ref(&slot.trace);
            // The run path campaigns use, on the same trace.
            let engine = self
                .tr
                .span("core.run_warm", pid, || api::run_warm(traces, warm, false));
            match engine {
                Ok(m) => self
                    .check
                    .same(&m, &manual, || format!("{label}: engine vs manual path")),
                Err(e) => self.check.broken(format!("{label}: engine failed: {e}")),
            }
            match self.noskip_point(pid, &p, &slot.trace) {
                Ok(m) => self
                    .check
                    .same(&m, &manual, || format!("{label}: skip vs no-skip")),
                Err(e) => self.check.broken(format!("{label}: no-skip failed: {e}")),
            }
            self.mem_replay(pid, &cfg, traces, warm, detailed);
        }
        self.set("harness.points", programs.len() as f64);
        self.set("harness.regen_ratio", 1.0);
    }

    fn smp(&mut self) {
        let (warm, detailed) = self.ctx.sizes.smp;
        let n = self.ctx.sizes.smp_cpus;
        let cfg = api::config(n);
        let label = format!("TPC-C({n}P)");
        let traces = self.tr.span("workloads.smp_generate", 0, || {
            api::generate_smp(n, warm + detailed, self.ctx.seed)
        });
        let engine = self
            .tr
            .span("core.run_warm", 0, || api::run_warm(&traces, warm, false));

        // By hand: the lock-step loop written from `Core`'s per-cycle
        // calls steps every cycle, so it is also the no-skip run.
        let root = self.tr.enter("point", 0);
        let mut mem = self.tr.span("mem.new", 0, || api::new_mem(&cfg));
        let mut cpus: Vec<_> = (0..n)
            .map(|id| self.tr.span("cpu.new", 0, || api::new_cpu(&cfg, id)))
            .collect();
        self.tr.span("cpu.warm", 0, || {
            api::warm(&mut cpus, &mut mem, &traces, warm)
        });
        let timed: Vec<_> = traces.iter().map(|t| &t.records()[warm..]).collect();
        let cycles = self.tr.span("cpu.noskip", 0, || {
            api::lockstep(&mut cpus, &mut mem, &timed)
        });
        let manual = cycles.map(|cycles| {
            let m = self
                .tr
                .span("core.collect", 0, || api::collect(cycles, &cpus, &mem));
            self.sums.add(&m, &api::extra(&cpus, &mem));
            m
        });
        self.tr.exit(root);
        self.sums.generated += ((warm + detailed) * n) as u64;
        self.sums.functional += (warm * n) as u64;
        self.sums.detailed += (detailed * n) as u64;
        self.noskip_records += (detailed * n) as u64;

        if let Some(manual) = self.attempt(&label, manual) {
            match engine {
                Ok(m) => self.check.same(&m, &manual, || {
                    format!("{label}: engine (skipping) vs manual lock-step (no skip)")
                }),
                Err(e) => self.check.broken(format!("{label}: engine failed: {e}")),
            }
        }
        self.mem_replay(0, &cfg, &traces, warm, detailed);
        self.set("harness.points", 1.0);
        self.set("harness.regen_ratio", 1.0);
    }

    /// Engine workloads: `engine[i]` is the engine's own result for
    /// point `i`; drive each by hand and require the same statistics.
    fn manual_points(&mut self, points: &[Point], engine: &[Option<Metrics>]) -> TraceSlot {
        let mut slot = TraceSlot::default();
        for (i, p) in points.iter().enumerate() {
            let label = api::point_label(p);
            let manual = self.manual_point(i as u32, p, &mut slot);
            if let (Some(manual), Some(engine)) = (self.attempt(&label, manual), &engine[i]) {
                self.check.same(engine, &manual, || {
                    format!("{label}: engine vs manual path")
                });
            }
        }
        slot
    }

    /// The engine's own execution of each point, serially, one span
    /// each; their sum is what a perfect scheduler would divide.
    fn execute_points(&mut self, points: &[Point]) -> Vec<Option<Metrics>> {
        points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let r = self
                    .tr
                    .span("harness.execute_point", i as u32, || api::execute_point(p));
                if let Err(e) = &r {
                    self.check
                        .note(format!("{}: engine: {e}", api::point_label(p)));
                }
                r.ok()
            })
            .collect()
    }

    /// Harness accounting shared by the engine workloads, from the
    /// serial point spans, a one-thread run and the `threads`-thread run.
    fn harness_metrics(&mut self, points: usize, failed: usize, retried: usize, wall_t_s: f64) {
        let sum_s = self.tr.total_ns("harness.execute_point") as f64 / 1e9;
        let serial_s = self.tr.total_ns("harness.serial") as f64 / 1e9;
        self.set("harness.points", points as f64);
        self.set("harness.points_failed", failed as f64);
        self.set("harness.points_retried", retried as f64);
        self.set("harness.point_exec_sum_s", sum_s);
        self.set(
            "harness.parallel_efficiency_pct",
            pct(sum_s, self.ctx.threads as f64 * wall_t_s),
        );
        self.set("harness.overhead_pct", pct(serial_s - sum_s, serial_s));
    }

    fn sampled(&mut self) -> Result<(), String> {
        let points = self.ctx.sampled_points();
        let threads = self.ctx.threads;
        // What the end-to-end run times.
        let t = self.tr.enter("harness.threaded", NO_POINT);
        let threaded = api::campaign(&points, threads, None)?;
        let wall_t = self.tr.exit(t) as f64 / 1e9;
        let engine = self.execute_points(&points);
        let t = self.tr.enter("harness.serial", NO_POINT);
        let serial = api::campaign(&points, 1, None)?;
        self.tr.exit(t);
        for (i, p) in points.iter().enumerate() {
            let label = api::point_label(p);
            self.check
                .same(&threaded.outcomes[i].clone().ok(), &engine[i], || {
                    format!("{label}: {threads}-thread campaign vs serial execution")
                });
            self.check
                .same(&serial.outcomes[i].clone().ok(), &engine[i], || {
                    format!("{label}: 1-thread campaign vs serial execution")
                });
        }
        let failed = engine.iter().filter(|m| m.is_none()).count();
        let slot = self.manual_points(&points, &engine);
        self.harness_metrics(points.len(), failed, serial.retries, wall_t);
        self.set("harness.regen_ratio", regen_ratio(&points));

        // The full-detail reference over each program's timed region.
        let references: Vec<Point> = SAMPLED_PROGRAMS
            .iter()
            .map(|&(s, i)| api::reference_point(s, i, &self.ctx.sizes.sampled, self.ctx.seed))
            .collect();
        let t = self.tr.enter("reference.full_detail", NO_POINT);
        let full = api::campaign(&references, threads, None)?;
        self.tr.exit(t);
        for (&(suite, index), r) in SAMPLED_PROGRAMS.iter().zip(&full.outcomes) {
            let label = api::program_label(suite, index);
            match r {
                Ok(m) => {
                    self.facts.insert(format!("ref.{label}.cycles"), m.cycles);
                    self.facts
                        .insert(format!("ref.{label}.committed"), m.committed);
                }
                Err(e) => self.check.broken(format!("{label}: reference failed: {e}")),
            }
        }
        let sampled = workloads::sampled_outcome(
            self.ctx,
            &points,
            engine
                .into_iter()
                .map(|m| m.ok_or_else(|| "failed".to_string()))
                .collect(),
        );
        match sampled_ipc_err_pct(&sampled, &self.facts) {
            Some(err) => self.set("core.sampled_ipc_err_pct", err),
            None => self
                .check
                .broken("no sampled-vs-full-detail error could be computed".into()),
        }

        // The last program's trace, memory system alone.
        if let Some(first_window) = points.last().map(|p| match api::work_of(p) {
            Work::Window { start, .. } => start.min(slot.trace.len()),
            Work::Program { .. } => 0,
        }) {
            let cfg = api::config(1);
            let timed = (slot.trace.len() - first_window).min(self.ctx.sizes.sampled.window);
            self.mem_replay(
                NO_POINT,
                &cfg,
                std::slice::from_ref(&slot.trace),
                first_window,
                timed,
            );
        }
        Ok(())
    }

    fn cold(&mut self) -> Result<(), String> {
        let ctx = self.ctx;
        let points = ctx.cold_points();
        // What the end-to-end run times, then the same command again on
        // the cache it filled.
        let input = workloads::setup(Workload::CampaignCold, ctx)?;
        let t = self.tr.enter("harness.cli_cold", NO_POINT);
        let (wall_t, cli) = workloads::run(Workload::CampaignCold, ctx, &input)?;
        self.tr.exit(t);
        let t = self.tr.enter("harness.cli_hot", NO_POINT);
        let (hot_s, hot) = workloads::run(Workload::CampaignCold, ctx, &input)?;
        self.tr.exit(t);
        self.set("harness.hot_rerun_ms", hot_s * 1e3);
        self.check
            .same(&hot, &cli, || "hot rerun vs cold run".to_string());
        let retried = match &input {
            workloads::Input::Dir(dir) => api::journal_retries(&dir.join("cache")),
            _ => 0,
        };
        input.cleanup();

        let engine = self.execute_points(&points);
        for ((label, r), m) in cli.ops.iter().zip(&engine) {
            let direct = m.as_ref().map(|m| (m.cycles, m.committed));
            self.check.same(&r.clone().ok().flatten(), &direct, || {
                format!("{label}: campaign child vs serial execution")
            });
        }
        let dir = ctx.fresh_dir("serial")?;
        let t = self.tr.enter("harness.serial", NO_POINT);
        api::campaign(&points, 1, Some(&dir))?;
        self.tr.exit(t);
        let _ = std::fs::remove_dir_all(&dir);

        let slot = self.manual_points(&points, &engine);
        self.harness_metrics(points.len(), cli.failed(), retried, wall_t);
        self.set("harness.regen_ratio", regen_ratio(&points));
        if let Some(p) = points.last() {
            self.mem_replay(
                NO_POINT,
                &p.config,
                std::slice::from_ref(&slot.trace),
                p.warmup,
                p.records,
            );
        }
        Ok(())
    }

    fn explore(&mut self) -> Result<(), String> {
        let ctx = self.ctx;
        let query = api::parse_query(&api::explore_spec_text(ctx.seed, &ctx.sizes.explore))?;
        let input = workloads::setup(Workload::ExploreSweep, ctx)?;
        let t = self.tr.enter("harness.cli_explore", NO_POINT);
        let (wall_t, cli) = workloads::run(Workload::ExploreSweep, ctx, &input)?;
        self.tr.exit(t);
        input.cleanup();

        // The same search with the engine's point execution as the
        // evaluator, serially.
        let mut all_points: Vec<Point> = Vec::new();
        let mut engine: Vec<Option<Metrics>> = Vec::new();
        let by_engine = api::search(&query, |round| {
            let from = all_points.len();
            all_points.extend_from_slice(round);
            let results = self.execute_points(&all_points[from..]);
            engine.extend(results.iter().cloned());
            results
        });
        // And with the manual path as the evaluator: what is left of the
        // search's wall after its evaluations is the search's own time.
        let mut slot = TraceSlot::default();
        let mut evals: Vec<f64> = Vec::new();
        let mut next = 0usize;
        let t = self.tr.enter("explore.search", NO_POINT);
        let by_hand = api::search(&query, |round| {
            round
                .iter()
                .map(|p| {
                    let i = next;
                    next += 1;
                    let e = self.tr.enter("explore.eval", i as u32);
                    let manual = self.manual_point(i as u32, p, &mut slot);
                    evals.push(self.tr.exit(e) as f64 / 1e6);
                    let manual = self.attempt(&api::point_label(p), manual);
                    if let (Some(m), Some(Some(e))) = (&manual, engine.get(i)) {
                        self.check
                            .same(e, m, || format!("evaluation {i}: engine vs manual path"));
                    }
                    manual
                })
                .collect()
        });
        let search_ns = self.tr.exit(t);
        let eval_ns = self.tr.total_ns("explore.eval");
        self.set("explore.self_ms", (search_ns - eval_ns) as f64 / 1e6);
        self.set("explore.eval_ms_p50", stats::median(&evals));
        self.set("explore.evals", by_hand.evaluations as f64);
        self.set("explore.rounds", by_hand.rounds as f64);

        let t = self.tr.enter("harness.serial", NO_POINT);
        let (by_harness, retried) = api::explore(&query, 1)?;
        self.tr.exit(t);

        let cli_facts = cli.all_facts();
        for (who, answer) in [
            ("serial engine search", &by_engine),
            ("manual search", &by_hand),
            ("1-thread harness search", &by_harness),
        ] {
            let facts = workloads::explore_outcome(answer).all_facts();
            self.check.same(&facts, &cli_facts, || {
                format!("{who} vs the campaign child's answer")
            });
        }
        self.facts.extend(cli_facts);
        self.harness_metrics(all_points.len(), by_engine.failed, retried, wall_t);
        self.set("harness.regen_ratio", regen_ratio(&all_points));
        if let Some(p) = all_points.last() {
            self.mem_replay(
                NO_POINT,
                &p.config,
                std::slice::from_ref(&slot.trace),
                p.warmup,
                p.records,
            );
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // From spans and sums to metrics
    // -----------------------------------------------------------------

    fn derive(&mut self, w: Workload) {
        let ledger = span::ledger(self.tr.spans());
        let total = |name: &str| ledger.get(name).map_or(0, |e| e.1);
        let calls = |name: &str| ledger.get(name).map_or(0, |e| e.0);
        let s = &self.sums;
        let mut v: Vec<(&'static str, f64)> = Vec::new();

        // Host time per unit of work, layer by layer.
        let smp = w == Workload::SmpTpcc;
        let (gen_name, gen_metric) = if smp {
            (
                "workloads.smp_generate",
                "workloads.smp_generate_ns_per_rec",
            )
        } else {
            ("workloads.generate", "workloads.generate_ns_per_rec")
        };
        v.push((gen_metric, ns_per(total(gen_name), s.generated)));
        v.push((
            "cpu.new_us",
            ns_per(total("cpu.new"), calls("cpu.new")) / 1e3,
        ));
        v.push((
            "mem.new_us",
            ns_per(total("mem.new"), calls("mem.new")) / 1e3,
        ));
        let warmed = if total("cpu.warm") > 0 {
            s.functional
        } else {
            0
        };
        let forwarded = if total("cpu.fast_forward") > 0 {
            s.functional
        } else {
            0
        };
        v.push(("cpu.warm_ns_per_rec", ns_per(total("cpu.warm"), warmed)));
        v.push((
            "cpu.fast_forward_ns_per_rec",
            ns_per(total("cpu.fast_forward"), forwarded),
        ));
        v.push((
            "cpu.noskip_ns_per_rec",
            ns_per(total("cpu.noskip"), self.noskip_records),
        ));
        // The model's own loop, net of what the manual path spent
        // building and warming the same machines.
        let run_warm = total("core.run_warm");
        let drive_ns =
            run_warm.saturating_sub(total("mem.new") + total("cpu.new") + total("cpu.warm"));
        let drive = if run_warm > 0 {
            ns_per(drive_ns, s.detailed)
        } else {
            0.0
        };
        // No public call lock-steps several cores with skipping on, so
        // the multiprocessor's detailed time is the model loop's.
        let (detailed_ns, detailed_rec) = if smp {
            (drive_ns, drive)
        } else {
            (
                total("cpu.detailed"),
                ns_per(total("cpu.detailed"), s.detailed),
            )
        };
        v.push(("cpu.detailed_ns_per_rec", detailed_rec));
        v.push(("cpu.detailed_ns_per_cycle", ns_per(detailed_ns, s.cycles)));
        v.push(("core.drive_ns_per_rec", drive));
        v.push((
            "core.drive_vs_run_from_pct",
            if run_warm > 0 && !smp {
                pct(drive - detailed_rec, detailed_rec)
            } else {
                0.0
            },
        ));
        let timed_access = ns_per(total("mem.timed_replay"), self.timed_replay_accesses);
        v.push(("mem.timed_ns_per_access", timed_access));
        v.push((
            "mem.warm_ns_per_access",
            ns_per(total("mem.warm_replay"), self.warm_replay_accesses),
        ));
        let accesses_per_rec = if self.timed_replay_records == 0 {
            0.0
        } else {
            self.timed_replay_accesses as f64 / self.timed_replay_records as f64
        };
        v.push((
            "cpu.self_ns_per_rec",
            detailed_rec - timed_access * accesses_per_rec,
        ));
        v.push((
            "core.rewarm_ratio",
            if s.detailed == 0 {
                0.0
            } else {
                s.functional as f64 / s.detailed as f64
            },
        ));

        // Exact statistics of the points driven by hand.
        v.push((
            "cpu.ipc",
            if s.cycles == 0 {
                0.0
            } else {
                s.committed as f64 / s.cycles as f64
            },
        ));
        v.push((
            "cpu.mispredict_pct",
            pct(s.mispredicts as f64, s.branches as f64),
        ));
        v.push(("cpu.replays_pki", per_kilo(s.extra.replays, s.committed)));
        let core_cycles: u64 = s.cpi_groups.iter().sum();
        for (name, cycles) in [
            "cpu.cpi.retire",
            "cpu.cpi.frontend",
            "cpu.cpi.bad_speculation",
            "cpu.cpi.backend_core",
            "cpu.cpi.backend_memory",
        ]
        .into_iter()
        .zip(s.cpi_groups)
        {
            v.push((name, pct(cycles as f64, core_cycles as f64)));
        }
        v.push(("mem.l1i_mpki", per_kilo(s.l1i_misses, s.committed)));
        v.push(("mem.l1d_mpki", per_kilo(s.l1d_misses, s.committed)));
        v.push((
            "mem.l2_demand_mpki",
            per_kilo(s.l2_demand_misses, s.committed),
        ));
        v.push(("mem.dtlb_mpki", per_kilo(s.extra.dtlb_misses, s.committed)));
        v.push(("mem.bus_txn_pki", per_kilo(s.bus_transactions, s.committed)));
        v.push((
            "mem.bus_util_pct",
            pct(s.bus_busy_cycles as f64, s.cycles as f64),
        ));
        v.push(("mem.moveouts_pki", per_kilo(s.move_outs, s.committed)));
        v.push((
            "mem.prefetch_accuracy_pct",
            pct(s.extra.prefetch_useful as f64, s.prefetches as f64),
        ));

        // How much of the manual path's wall its layer spans explain,
        // and how that wall splits. Generation counts only where it is
        // part of the point; ready-made traces are set-up.
        let point_total = total("point");
        let point_self = ledger.get("point").map_or(0, |e| e.2);
        let spans = self.tr.spans();
        let in_point = |names: &[&str]| -> u64 {
            spans
                .iter()
                .filter(|s| names.contains(&s.name))
                .filter(|s| s.parent.is_some_and(|p| spans[p].name == "point"))
                .map(span::Span::dur_ns)
                .sum()
        };
        let share = |ns: u64| pct(ns as f64, point_total as f64);
        v.push(("trace.span_coverage_pct", share(point_total - point_self)));
        v.push((
            "trace.share.generate_pct",
            share(in_point(&["workloads.generate"])),
        ));
        v.push((
            "trace.share.functional_pct",
            share(in_point(&["cpu.warm", "cpu.fast_forward"])),
        ));
        v.push((
            "trace.share.detailed_pct",
            share(in_point(&["cpu.detailed", "cpu.noskip"])),
        ));
        // The manual path against the engine on the same points.
        let engine_ns = if run_warm > 0 {
            run_warm
        } else {
            total("harness.execute_point")
        };
        let manual_ns = point_total;
        v.push((
            "trace.manual_vs_engine_pct",
            if engine_ns == 0 || smp {
                0.0
            } else {
                pct(manual_ns as f64 - engine_ns as f64, engine_ns as f64)
            },
        ));

        for (name, value) in v {
            self.set(name, value);
        }
        for (name, value) in self.sums.facts() {
            self.facts.insert(name.to_string(), value);
        }
    }
}

/// `sampled_long`'s accuracy: over its programs, the largest relative
/// difference between the ratio-estimator IPC of the sampled windows and
/// the full-detail IPC recorded in `reference` (`ref.<program>.*`).
pub fn sampled_ipc_err_pct(sampled: &Outcome, reference: &Facts) -> Option<f64> {
    let mut worst = 0.0f64;
    for (&(suite, index), ipc) in SAMPLED_PROGRAMS
        .iter()
        .zip(workloads::sampled_ipcs(sampled))
    {
        let label = api::program_label(suite, index);
        let cycles = *reference.get(&format!("ref.{label}.cycles"))?;
        let committed = *reference.get(&format!("ref.{label}.committed"))?;
        if cycles == 0 {
            return None;
        }
        let full = committed as f64 / cycles as f64;
        worst = worst.max(100.0 * (ipc? - full).abs() / full);
    }
    Some(worst)
}

/// Runs the traced pass of the workload, prints its per-layer metrics
/// and writes `out/<workload>.trace.json`.
pub fn run(ctx: &Ctx, info: &RunInfo, rebaseline: bool) -> Result<Check, String> {
    let w = info.workload;
    if !w.is_cli() {
        // As in the end-to-end run: one untimed repetition first.
        let input = workloads::setup(w, ctx)?;
        workloads::run(w, ctx, &input)?;
    }
    let mut pass = Pass::new(ctx);
    let root = pass.tr.enter("traced_run", NO_POINT);
    pass.components()?;
    match w {
        Workload::UpCpuBound | Workload::UpMemBound => pass.uniprocessor(w),
        Workload::SmpTpcc => pass.smp(),
        Workload::SampledLong => pass.sampled()?,
        Workload::CampaignCold => pass.cold()?,
        Workload::ExploreSweep => pass.explore()?,
    }
    pass.tr.exit(root);
    pass.derive(w);

    let path = info.expected_path();
    if rebaseline {
        let mut e = Expected::load(&path).unwrap_or_default();
        e.traced = pass.facts.clone();
        e.save(&path)?;
    }
    let golden = if info.golden_applies() {
        Some(Expected::load(&path)?)
    } else {
        None
    };
    pass.check
        .compare_golden(golden.as_ref().map(|e| &e.traced), &pass.facts);

    let values: Vec<(&str, f64)> = PER_LAYER
        .iter()
        .map(|d| (d.name, pass.values.get(d.name).copied().unwrap_or(0.0)))
        .collect();
    let detail = api::Json::obj().field(
        "facts",
        pass.facts
            .iter()
            .fold(api::Json::obj(), |o, (k, v)| o.field(k, *v)),
    );
    report::finish(
        info,
        &pass.check,
        PER_LAYER,
        &values,
        detail,
        Some(&pass.tr),
    )?;
    Ok(pass.check)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_error_is_the_worst_program() {
        let mut ops = Vec::new();
        let mut reference = Facts::new();
        for (n, &(suite, index)) in SAMPLED_PROGRAMS.iter().enumerate() {
            // Sampled IPC 1.0 everywhere; full-detail IPC 1.0 except one
            // program at 0.8, i.e. 25 % off.
            ops.push(("w".to_string(), Ok(Some((100, 100)))));
            let label = api::program_label(suite, index);
            reference.insert(format!("ref.{label}.cycles"), 1_000);
            reference.insert(
                format!("ref.{label}.committed"),
                if n == 3 { 800 } else { 1_000 },
            );
        }
        let outcome = Outcome {
            ops,
            records: 0,
            facts: Vec::new(),
        };
        let err = sampled_ipc_err_pct(&outcome, &reference).unwrap();
        assert!((err - 25.0).abs() < 1e-9, "{err}");
        assert_eq!(sampled_ipc_err_pct(&outcome, &Facts::new()), None);
    }

    #[test]
    fn regeneration_counts_program_points_once_each_and_windows_once_per_trace() {
        let cfg = api::config(1);
        let a = api::program_point(&cfg, api::SuiteId::Tpcc, 0, 100, 50, 1);
        let b = api::program_point(&api::config(2), api::SuiteId::Tpcc, 0, 100, 50, 1);
        // Two configurations of one trace: generated twice, one distinct.
        assert_eq!(regen_ratio(&[a, b]), 2.0);
        let s = api::SamplePlanSizes {
            lead_in: 100,
            region: 1_000,
            windows: 4,
            window: 10,
        };
        let windows = api::window_points(api::SuiteId::Tpcc, 0, &s, 1);
        assert!(windows.len() >= 3);
        assert_eq!(regen_ratio(&windows), 1.0);
        assert_eq!(regen_ratio(&[]), 0.0);
    }
}
