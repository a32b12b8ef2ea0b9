//! Per-program trace seeds for suite experiments.
//!
//! The experiments themselves (points, execution, aggregation, tables)
//! live in the `s64v-harness` campaign engine; this is the one piece of
//! a suite run that is part of the model's contract, because cached
//! results and goldens are keyed by the seeds it derives.

/// The trace seed of one program in a suite run: the base campaign seed
/// XORed with a hash of the program name, so every program in a suite
/// gets an independent stream.
pub fn program_seed(base_seed: u64, program_name: &str) -> u64 {
    let mut h: u64 = 0x517c_c1b7_2722_0a95;
    for b in program_name.bytes() {
        h = (h.rotate_left(5) ^ b as u64).wrapping_mul(0x27220a95);
    }
    base_seed ^ h
}
