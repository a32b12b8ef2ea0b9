//! Timing benches and the pipeline-timeline dump.
//!
//! The evaluation's tables and figures are not here: each is an entry of
//! the [`s64v_harness::figures`] registry, run with `campaign --figures
//! <name>` (`campaign --list` names them all). This crate keeps what the
//! campaign engine does not cover: `benches/sim_speed.rs` (simulator
//! throughput, the analogue of the paper's §2.1 instructions-per-second
//! figure) and `benches/components.rs` (cache, BHT, directory and codec
//! rates), both gated against `specs/bench_floor.json` in CI, and the
//! `pipeline_dump` binary (per-instruction stage timestamps, §2.2).

pub use s64v_harness::{banner, HarnessOpts};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults_parse() {
        let o = HarnessOpts::from_env();
        assert!(o.records > 0);
        assert!(o.smp_cpus >= 1);
    }

    #[test]
    fn smoke_is_small() {
        let o = HarnessOpts::smoke();
        assert!(o.records <= 10_000);
        assert_eq!(o.smp_cpus, 2);
    }
}
