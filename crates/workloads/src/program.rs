//! Programs: complete generator specifications and trace expansion.

use crate::codegen::{CodeSpec, StaticCode};
use crate::mix::InstrMix;
use crate::regions::{AddressGen, DataSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s64v_isa::Instr;
use s64v_trace::{TraceRecord, VecTrace};

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

    /// Deterministically generates a trace of exactly `n` records: the
    /// first `n` of [`Program::stream`], so a shorter trace is a prefix
    /// of a longer one.
    pub fn generate(&self, n: usize, seed: u64) -> VecTrace {
        let mut records = Vec::new();
        self.stream(seed).fill(&mut records, n);
        VecTrace::from_records(records)
    }

    /// The program's trace under `seed` as a resumable generator: records
    /// come out as they are asked for, and none is kept.
    pub fn stream(&self, seed: u64) -> ProgramStream {
        let spec = &self.spec;
        let kernel = spec.kernel_code.as_ref().map(|kc| Side {
            code: StaticCode::build(
                kc,
                spec.kernel_mix.as_ref().unwrap_or(&spec.mix),
                seed ^ 0x5eed_4be5_7a11_c0de,
            ),
            addr: spec.kernel_data.as_ref().unwrap_or(&spec.data).generator(),
        });
        ProgramStream {
            user: Side {
                code: StaticCode::build(&spec.code, &spec.mix, seed),
                addr: spec.data.generator(),
            },
            kernel,
            kernel_fraction: spec.kernel_fraction,
            rng: StdRng::seed_from_u64(seed.wrapping_add(1)),
            walk: None,
            pc: None,
            pos: 0,
            carry: Vec::new(),
            // A block's body, its ending branch and the branch into it.
            longest_block: spec
                .kernel_code
                .iter()
                .chain([&spec.code])
                .map(|code| code.block_len_max as usize + 2)
                .max()
                .expect("user code"),
        }
    }
}

/// One privilege level's code and data.
#[derive(Debug, Clone)]
struct Side {
    code: StaticCode,
    addr: AddressGen,
}

/// Where the walk stands in the loop it is visiting, between two blocks.
#[derive(Debug, Clone, Copy)]
struct Walk {
    kernel: bool,
    /// The loop: first block, block count, iterations.
    start: usize,
    blocks: usize,
    iters: u32,
    /// The next block to run: iteration and index within the loop.
    iter: u32,
    block: usize,
}

/// A program's trace as a resumable generator (see [`Program::stream`]):
/// the static code, the random stream, the address generators and the
/// walk's position. It emits whole blocks; what a block runs past the
/// record asked for waits in a carry of at most one block.
///
/// # Examples
///
/// ```
/// use s64v_workloads::{Suite, SuiteKind};
///
/// let suite = Suite::preset(SuiteKind::SpecInt95);
/// let program = &suite.programs()[0];
/// let mut stream = program.stream(7);
/// let mut records = Vec::new();
/// stream.fill(&mut records, 1_000);
/// stream.fill(&mut records, 2_500); // appends records 1000..2500
/// assert_eq!(records, program.generate(2_500, 7).records());
/// ```
#[derive(Debug, Clone)]
pub struct ProgramStream {
    user: Side,
    kernel: Option<Side>,
    kernel_fraction: f64,
    rng: StdRng,
    walk: Option<Walk>,
    /// Where control stands after the last emitted record; `None` before
    /// the first.
    pc: Option<u64>,
    /// Records handed out so far.
    pos: usize,
    carry: Vec<TraceRecord>,
    /// Most records one [`ProgramStream::emit_block`] appends.
    longest_block: usize,
}

impl ProgramStream {
    /// Index of the next record [`ProgramStream::fill`] appends.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Static blocks expanded so far, over user and kernel code: at most
    /// the blocks the trace has entered.
    pub fn blocks_built(&self) -> usize {
        self.user.code.blocks_built() + self.kernel.as_ref().map_or(0, |k| k.code.blocks_built())
    }

    /// Appends records `pos()..upto` of the trace to `out` (nothing when
    /// the stream is already there).
    pub fn fill(&mut self, out: &mut Vec<TraceRecord>, upto: usize) {
        let want = upto.saturating_sub(self.pos);
        // Room for the last block to run over, so a buffer sized for the
        // trace never grows.
        out.reserve(want + self.longest_block);
        let end = out.len() + want;
        let carried = self.carry.len().min(want);
        out.extend(self.carry.drain(..carried));
        while out.len() < end {
            self.emit_block(out);
        }
        // The carry is empty whenever a block was emitted.
        self.carry.extend(out.drain(end..));
        self.pos += want;
    }

    /// Appends the walk's next block to `out`, entering a new loop first
    /// when the last one is done: a call-like unconditional branch to its
    /// head (the transition that costs taken-branch fetch bubbles, like a
    /// real call) unless control is already there.
    fn emit_block(&mut self, out: &mut Vec<TraceRecord>) {
        let walk = match self.walk.take() {
            Some(walk) => walk,
            None => {
                let kernel = match &self.kernel {
                    Some(_) if self.kernel_fraction > 0.0 => {
                        self.rng.gen_bool(self.kernel_fraction.clamp(0.0, 1.0))
                    }
                    _ => false,
                };
                let code = match &self.kernel {
                    Some(side) if kernel => &side.code,
                    _ => &self.user.code,
                };
                let (start, blocks, iters) = code.choose_loop(&mut self.rng);
                let head = code.pc_start(start);
                if let Some(pc) = self.pc.filter(|&pc| pc != head) {
                    out.push(TraceRecord::new(pc, Instr::branch_uncond(head)));
                }
                Walk {
                    kernel,
                    start,
                    blocks,
                    iters,
                    iter: 0,
                    block: 0,
                }
            }
        };
        let last_block = walk.block + 1 == walk.blocks;
        let last_iter = walk.iter + 1 == walk.iters;
        let side = match &mut self.kernel {
            Some(kernel) if walk.kernel => kernel,
            _ => &mut self.user,
        };
        let back_edge = last_block.then(|| (!last_iter, side.code.pc_start(walk.start)));
        side.code.emit_block(
            walk.start + walk.block,
            back_edge,
            walk.kernel,
            &mut self.rng,
            &mut side.addr,
            out,
        );
        self.pc = out.last().map(TraceRecord::next_pc);
        self.walk = match (last_block, last_iter) {
            (true, true) => None,
            (true, false) => Some(Walk {
                iter: walk.iter + 1,
                block: 0,
                ..walk
            }),
            (false, _) => Some(Walk {
                block: walk.block + 1,
                ..walk
            }),
        };
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
