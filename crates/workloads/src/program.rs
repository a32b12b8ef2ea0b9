//! Programs: complete generator specifications and trace expansion.

use crate::codegen::{CodeGen, CodeSpec, StaticCode};
use crate::mix::InstrMix;
use crate::regions::DataSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s64v_isa::Instr;
use s64v_trace::{TraceBuilder, VecTrace};

/// The complete specification of one synthetic program.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramSpec {
    /// Display name (e.g. `"gcc-like"`).
    pub name: String,
    /// User-mode instruction mix.
    pub mix: InstrMix,
    /// User-mode code structure.
    pub code: CodeSpec,
    /// User-mode data regions.
    pub data: DataSpec,
    /// Kernel-mode episodes: target fraction of kernel loops (0 disables).
    pub kernel_fraction: f64,
    /// Kernel code structure (required when `kernel_fraction > 0`).
    pub kernel_code: Option<CodeSpec>,
    /// Kernel instruction mix (defaults to `mix` when `None`).
    pub kernel_mix: Option<InstrMix>,
    /// Kernel data regions (defaults to `data` when `None`).
    pub kernel_data: Option<DataSpec>,
}

impl ProgramSpec {
    /// A purely user-mode program.
    pub fn user_only(name: &str, mix: InstrMix, code: CodeSpec, data: DataSpec) -> Self {
        ProgramSpec {
            name: name.to_string(),
            mix,
            code,
            data,
            kernel_fraction: 0.0,
            kernel_code: None,
            kernel_mix: None,
            kernel_data: None,
        }
    }
}

/// A runnable program: expands its spec into traces.
///
/// # Examples
///
/// ```
/// use s64v_workloads::{Suite, SuiteKind};
///
/// let suite = Suite::preset(SuiteKind::SpecFp95);
/// let t = suite.programs()[0].generate(5_000, 1);
/// assert_eq!(t.len(), 5_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    spec: ProgramSpec,
}

impl Program {
    /// Wraps a spec.
    ///
    /// # Panics
    ///
    /// Panics if `kernel_fraction > 0` without a kernel code spec, or on
    /// invalid code parameters.
    pub fn new(spec: ProgramSpec) -> Self {
        spec.code.validate();
        if spec.kernel_fraction > 0.0 {
            let kc = spec
                .kernel_code
                .as_ref()
                .expect("kernel_fraction > 0 requires kernel_code");
            kc.validate();
        }
        Program { spec }
    }

    /// The program's name.
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// The underlying spec.
    pub fn spec(&self) -> &ProgramSpec {
        &self.spec
    }

    /// Deterministically generates a trace of exactly `n` records.
    pub fn generate(&self, n: usize, seed: u64) -> VecTrace {
        self.generate_into(VecTrace::new(), n, seed)
    }

    /// [`Program::generate`] into `buffer`'s allocation (its old records
    /// are discarded): the same trace, without a fresh allocation when
    /// the buffer is large enough.
    pub fn generate_into(&self, buffer: VecTrace, n: usize, seed: u64) -> VecTrace {
        let spec = &self.spec;
        let user_code = StaticCode::build(&spec.code, &spec.mix, seed);
        let user_gen = CodeGen::new(&spec.code, &user_code, false);
        let mut user_addr = spec.data.generator();

        let kernel_mix = spec.kernel_mix.clone().unwrap_or_else(|| spec.mix.clone());
        let kernel_parts = spec.kernel_code.as_ref().map(|kc| {
            let code = StaticCode::build(kc, &kernel_mix, seed ^ 0x5eed_4be5_7a11_c0de);
            let addr = spec.kernel_data.as_ref().unwrap_or(&spec.data).generator();
            (kc, code, addr)
        });

        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
        let mut builder = TraceBuilder::reusing(spec.code.base, buffer);

        match kernel_parts {
            None => {
                while builder.len() < n {
                    let (start, len, iters) = user_gen.choose_loop(&mut rng);
                    self.enter_loop(&mut builder, &user_code, start, n);
                    {
                        let budget = n - builder.len();
                        user_gen.emit_loop(
                            &mut builder,
                            &mut rng,
                            &mut user_addr,
                            start,
                            len,
                            iters,
                            budget,
                        );
                    }
                }
            }
            Some((kc, kernel_code, mut kernel_addr)) => {
                let kernel_gen = CodeGen::new(kc, &kernel_code, true);
                while builder.len() < n {
                    let kernel_episode = spec.kernel_fraction > 0.0
                        && rng.gen_bool(spec.kernel_fraction.clamp(0.0, 1.0));
                    if kernel_episode {
                        let (start, len, iters) = kernel_gen.choose_loop(&mut rng);
                        self.enter_loop(&mut builder, &kernel_code, start, n);
                        {
                            let budget = n - builder.len();
                            kernel_gen.emit_loop(
                                &mut builder,
                                &mut rng,
                                &mut kernel_addr,
                                start,
                                len,
                                iters,
                                budget,
                            );
                        }
                    } else {
                        let (start, len, iters) = user_gen.choose_loop(&mut rng);
                        self.enter_loop(&mut builder, &user_code, start, n);
                        {
                            let budget = n - builder.len();
                            user_gen.emit_loop(
                                &mut builder,
                                &mut rng,
                                &mut user_addr,
                                start,
                                len,
                                iters,
                                budget,
                            );
                        }
                    }
                }
            }
        }

        let trace = builder.finish();
        debug_assert_eq!(trace.len(), n);
        trace
    }

    /// Emits the call-like unconditional branch into the next loop (the
    /// transition that costs taken-branch fetch bubbles, like a real call).
    fn enter_loop(&self, builder: &mut TraceBuilder, code: &StaticCode, start: usize, n: usize) {
        if builder.len() >= n {
            return;
        }
        let target = code.blocks()[start].pc_start;
        if builder.is_empty() {
            builder.set_pc(target);
        } else if builder.pc() != target {
            builder.push(Instr::branch_uncond(target));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regions::Region;
    use s64v_isa::OpClass;
    use s64v_trace::TraceSummary;

    fn spec() -> ProgramSpec {
        ProgramSpec::user_only(
            "unit",
            InstrMix::spec_int(),
            CodeSpec {
                base: 0x1_0000,
                blocks: 64,
                hot_blocks: 16,
                hot_weight: 0.8,
                block_len_min: 3,
                block_len_max: 8,
                loop_blocks_min: 1,
                loop_blocks_max: 3,
                loop_iters_min: 2,
                loop_iters_max: 12,
                predictable_fraction: 0.6,
                easy_bias: 0.92,
                hard_bias: 0.6,
            },
            DataSpec::new(vec![Region::uniform(0x100_0000, 64 * 1024, 1.0)]),
        )
    }

    #[test]
    fn generates_exact_length_deterministically() {
        let p = Program::new(spec());
        let a = p.generate(7777, 3);
        let b = p.generate(7777, 3);
        assert_eq!(a.len(), 7777);
        assert_eq!(a, b);
    }

    #[test]
    fn generating_into_a_used_buffer_changes_nothing_but_the_allocation() {
        let p = Program::new(spec());
        let fresh = p.generate(5_000, 3);
        let used = p.generate(9_000, 11);
        let ptr = used.records().as_ptr();
        let reused = p.generate_into(used, 5_000, 3);
        assert_eq!(reused, fresh);
        assert_eq!(reused.records().as_ptr(), ptr, "no new allocation");
    }

    #[test]
    fn loop_transitions_use_unconditional_branches() {
        let p = Program::new(spec());
        let t = p.generate(20_000, 3);
        let s = TraceSummary::collect(t.stream());
        assert!(
            s.count(OpClass::BranchUncond) > 50,
            "loop transitions emit calls"
        );
    }

    #[test]
    fn kernel_fraction_produces_kernel_records() {
        let mut sp = spec();
        sp.kernel_fraction = 0.4;
        sp.kernel_code = Some(CodeSpec {
            base: 0x9000_0000,
            ..sp.code.clone()
        });
        sp.kernel_data = Some(DataSpec::new(vec![Region::uniform(
            0x5000_0000,
            1 << 20,
            1.0,
        )]));
        let p = Program::new(sp);
        let t = p.generate(30_000, 3);
        let s = TraceSummary::collect(t.stream());
        assert!(
            (0.15..0.75).contains(&s.kernel_fraction()),
            "kernel fraction {}",
            s.kernel_fraction()
        );
    }

    #[test]
    #[should_panic(expected = "requires kernel_code")]
    fn kernel_fraction_without_code_panics() {
        let mut sp = spec();
        sp.kernel_fraction = 0.2;
        let _ = Program::new(sp);
    }
}
