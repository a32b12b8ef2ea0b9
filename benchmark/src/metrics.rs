//! Every metric the benchmark prints, by name and unit. BENCHMARK.json
//! lists the same names; a unit test keeps the two in step.

/// One metric's declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Which direction is an improvement: `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Tracing off. Host times; noisy in a sandbox.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("wall_s", "s", "lower"),
    m("sim_records_per_s", "records/s", "higher"),
    m("peak_rss_mb", "MB", "lower"),
];

/// The traced run. Host times come from one pass each and are noisy;
/// counts, ratios of counts and `cpu.ipc` repeat exactly for a seed. A
/// metric a workload does not exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // s64v-workloads
    m("workloads.generate_ns_per_rec", "ns", "lower"),
    m("workloads.smp_generate_ns_per_rec", "ns", "lower"),
    // s64v-cpu, host
    m("cpu.new_us", "us", "lower"),
    m("cpu.warm_ns_per_rec", "ns", "lower"),
    m("cpu.fast_forward_ns_per_rec", "ns", "lower"),
    m("cpu.detailed_ns_per_rec", "ns", "lower"),
    m("cpu.detailed_ns_per_cycle", "ns", "lower"),
    m("cpu.noskip_ns_per_rec", "ns", "lower"),
    m("cpu.self_ns_per_rec", "ns", "lower"),
    m("cpu.bht_op_ns", "ns", "lower"),
    // s64v-cpu, exact
    m("cpu.ipc", "instr/cycle", "higher"),
    m("cpu.mispredict_pct", "%", "lower"),
    m("cpu.replays_pki", "1/ki", "lower"),
    m("cpu.cpi.retire", "%", "higher"),
    m("cpu.cpi.frontend", "%", "lower"),
    m("cpu.cpi.bad_speculation", "%", "lower"),
    m("cpu.cpi.backend_core", "%", "lower"),
    m("cpu.cpi.backend_memory", "%", "lower"),
    // s64v-mem, host
    m("mem.new_us", "us", "lower"),
    m("mem.timed_ns_per_access", "ns", "lower"),
    m("mem.warm_ns_per_access", "ns", "lower"),
    m("mem.cache_access_ns", "ns", "lower"),
    m("mem.directory_op_ns", "ns", "lower"),
    // s64v-mem, exact
    m("mem.l1i_mpki", "1/ki", "lower"),
    m("mem.l1d_mpki", "1/ki", "lower"),
    m("mem.l2_demand_mpki", "1/ki", "lower"),
    m("mem.dtlb_mpki", "1/ki", "lower"),
    m("mem.bus_txn_pki", "1/ki", "lower"),
    m("mem.bus_util_pct", "%", "lower"),
    m("mem.moveouts_pki", "1/ki", "lower"),
    m("mem.prefetch_accuracy_pct", "%", "higher"),
    // s64v-core
    m("core.drive_ns_per_rec", "ns", "lower"),
    m("core.drive_vs_run_from_pct", "%", "lower"),
    m("core.fingerprint_us", "us", "lower"),
    m("core.rewarm_ratio", "ratio", "lower"),
    m("core.sampled_ipc_err_pct", "%", "lower"),
    // s64v-harness, exact
    m("harness.points", "count", "higher"),
    m("harness.points_failed", "count", "lower"),
    m("harness.points_retried", "count", "lower"),
    m("harness.regen_ratio", "ratio", "lower"),
    // s64v-harness, host
    m("harness.point_exec_sum_s", "s", "lower"),
    m("harness.parallel_efficiency_pct", "%", "higher"),
    m("harness.overhead_pct", "%", "lower"),
    m("harness.cache_store_us", "us", "lower"),
    m("harness.cache_load_us", "us", "lower"),
    m("harness.journal_record_us", "us", "lower"),
    m("harness.hot_rerun_ms", "ms", "lower"),
    m("harness.cli_start_ms", "ms", "lower"),
    // s64v-explore
    m("explore.evals", "count", "lower"),
    m("explore.rounds", "count", "lower"),
    m("explore.self_ms", "ms", "lower"),
    m("explore.eval_ms_p50", "ms", "lower"),
    // The benchmark's own spans
    m("trace.span_coverage_pct", "%", "higher"),
    m("trace.share.generate_pct", "%", "lower"),
    m("trace.share.functional_pct", "%", "lower"),
    m("trace.share.detailed_pct", "%", "higher"),
    m("trace.manual_vs_engine_pct", "%", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Json;
    use crate::workloads::Workload;

    fn declared(doc: &Json, key: &str) -> Vec<MetricDef> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|v| {
                let s = |k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();
                // Leaked: a handful of short strings in a test.
                MetricDef {
                    name: s("name").leak(),
                    unit: s("unit").leak(),
                    better: s("better").leak(),
                }
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(declared(&doc, "end_to_end"), END_TO_END);
        assert_eq!(declared(&doc, "per_layer"), PER_LAYER);
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn names_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(d.better, "lower" | "higher"));
        }
    }
}
