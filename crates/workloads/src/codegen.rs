//! The code-structure model: static blocks, loops and branch sites.
//!
//! A synthetic program's *static code* is a contiguous sequence of basic
//! blocks; block contents (lengths, op classes, register patterns, branch
//! bias) are derived deterministically from the program seed, so every
//! revisit of a block replays the same instruction addresses — which is
//! what gives the L1 instruction cache and the branch history table
//! realistic locality to work with.
//!
//! Dynamic execution is a loop walk: pick a run of consecutive blocks
//! (weighted towards a hot subset), iterate it a few times with a
//! conditional back-edge, then jump to the next loop. Every block ends
//! with a conditional branch site whose *direction* is sampled per
//! execution from the site's fixed bias; for inner blocks the taken target
//! equals the fall-through so control flow stays linear while the branch
//! predictor (and taken-branch fetch bubbles) see realistic behaviour.

//!
//! Only the *layout* — every block's address, which needs every earlier
//! block's length — is computed up front; a block's body is expanded the
//! first time the walk visits it, so a short trace pays for the blocks it
//! runs and not for the program's whole text.

use crate::mix::InstrMix;
use crate::regions::AddressGen;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s64v_isa::{Instr, MemWidth, OpClass, Reg};
use s64v_trace::TraceRecord;

/// Static code-structure parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeSpec {
    /// Base address of the code.
    pub base: u64,
    /// Number of static basic blocks (= conditional branch sites).
    pub blocks: u32,
    /// Number of leading blocks forming the hot subset.
    pub hot_blocks: u32,
    /// Probability a new loop is drawn from the hot subset.
    pub hot_weight: f64,
    /// Minimum instructions per block (excluding the ending branch).
    pub block_len_min: u32,
    /// Maximum instructions per block.
    pub block_len_max: u32,
    /// Minimum blocks per loop.
    pub loop_blocks_min: u32,
    /// Maximum blocks per loop.
    pub loop_blocks_max: u32,
    /// Minimum iterations per loop visit.
    pub loop_iters_min: u32,
    /// Maximum iterations per loop visit.
    pub loop_iters_max: u32,
    /// Fraction of branch sites with a strong (predictable) bias.
    pub predictable_fraction: f64,
    /// Taken probability of predictable sites (mirrored to 1−p for half).
    pub easy_bias: f64,
    /// Taken probability of hard sites (mirrored likewise).
    pub hard_bias: f64,
}

impl CodeSpec {
    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent ranges.
    pub fn validate(&self) {
        assert!(self.blocks >= 1, "need at least one block");
        assert!(
            self.hot_blocks <= self.blocks,
            "hot subset exceeds block count"
        );
        assert!(self.block_len_min >= 1 && self.block_len_min <= self.block_len_max);
        assert!(self.loop_blocks_min >= 1 && self.loop_blocks_min <= self.loop_blocks_max);
        assert!(self.loop_iters_min >= 1 && self.loop_iters_min <= self.loop_iters_max);
        assert!((0.0..=1.0).contains(&self.hot_weight));
        assert!((0.0..=1.0).contains(&self.predictable_fraction));
    }
}

/// One static instruction slot of a block.
#[derive(Debug, Clone, Copy)]
enum StaticOp {
    Alu {
        op: OpClass,
        dest: Reg,
        src_a: Reg,
        src_b: Reg,
    },
    Load {
        dest: Reg,
        base: Reg,
    },
    Store {
        data: Reg,
        base: Reg,
    },
    Nop,
    Special,
}

/// `body_at` of a block nothing has visited yet.
const UNBUILT: u32 = u32::MAX;

/// The static code of one program: laid out in full, expanded on demand
/// (see the module docs).
#[derive(Debug, Clone)]
pub struct StaticCode {
    spec: CodeSpec,
    mix: InstrMix,
    seed: u64,
    /// Address of each block's first instruction, and past the last
    /// block's ending branch: `blocks + 1` entries.
    pcs: Vec<u64>,
    /// Where each block's body starts in `ops` ([`UNBUILT`] before its
    /// first visit); its length is the layout's.
    body_at: Vec<u32>,
    /// Taken probability of each built block's ending branch site.
    taken_bias: Vec<f64>,
    /// The bodies of the blocks visited so far, in order of first visit.
    ops: Vec<StaticOp>,
    built: usize,
}

impl StaticCode {
    /// Lays the code of `spec` out deterministically from `seed`.
    pub fn build(spec: &CodeSpec, mix: &InstrMix, seed: u64) -> Self {
        spec.validate();
        let blocks = spec.blocks as usize;
        let mut pcs = Vec::with_capacity(blocks + 1);
        let mut pc = spec.base;
        for id in 0..blocks {
            pcs.push(pc);
            let len = Self::block_len(spec, &mut Self::block_rng(seed, id));
            pc += (len as u64 + 1) * TraceRecord::INSTR_BYTES;
        }
        pcs.push(pc);
        StaticCode {
            spec: spec.clone(),
            mix: mix.clone(),
            seed,
            pcs,
            body_at: vec![UNBUILT; blocks],
            taken_bias: vec![0.0; blocks],
            ops: Vec::new(),
            built: 0,
        }
    }

    /// Everything about block `id` derives from this generator, which
    /// draws the block's length first.
    fn block_rng(seed: u64, id: usize) -> StdRng {
        StdRng::seed_from_u64(seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(id as u64 + 1)))
    }

    fn block_len(spec: &CodeSpec, rng: &mut StdRng) -> u32 {
        rng.gen_range(spec.block_len_min..=spec.block_len_max)
    }

    /// Expands block `id` into the arena on its first visit.
    fn visit(&mut self, id: usize) {
        if self.body_at[id] != UNBUILT {
            return;
        }
        let spec = &self.spec;
        let mut rng = Self::block_rng(self.seed, id);
        let len = Self::block_len(spec, &mut rng);
        self.body_at[id] = u32::try_from(self.ops.len()).expect("static code fits 32 bits");
        Self::build_ops(&mut rng, &self.mix, len, &mut self.ops);
        let predictable = rng.gen_bool(spec.predictable_fraction);
        let bias_mag = if predictable {
            spec.easy_bias
        } else {
            spec.hard_bias
        };
        // Compiled code leans taken (~65% of conditional branches),
        // which also makes the static not-taken fallback costly for
        // displaced sites — the Figure 9/10 capacity effect.
        self.taken_bias[id] = if rng.gen_bool(0.65) {
            bias_mag
        } else {
            1.0 - bias_mag
        };
        self.built += 1;
    }

    fn build_ops(rng: &mut StdRng, mix: &InstrMix, len: u32, ops: &mut Vec<StaticOp>) {
        // Register allocation mimicking compiled code: destinations cycle
        // through a scratch window; sources prefer recent destinations
        // (true dependences) with loop-invariant registers mixed in.
        let mut recent_int: Vec<u8> = vec![1, 2];
        let mut recent_fp: Vec<u8> = vec![1, 2];
        let mut next_int = 8u8;
        let mut next_fp = 4u8;

        let alloc_int = |recent: &mut Vec<u8>, next: &mut u8| -> u8 {
            let d = *next;
            *next = if *next >= 27 { 8 } else { *next + 1 };
            recent.push(d);
            if recent.len() > 4 {
                recent.remove(0);
            }
            d
        };
        let pick = |recent: &[u8], rng: &mut StdRng, invariant_max: u8, dep_p: f64| -> u8 {
            if rng.gen_bool(dep_p) && !recent.is_empty() {
                recent[rng.gen_range(0..recent.len())]
            } else {
                1 + rng.gen_range(0..invariant_max)
            }
        };

        for _ in 0..len {
            let op = mix.sample(rng);
            let s = match op {
                OpClass::Load => {
                    let base = 1 + rng.gen_range(0..6);
                    let dest = alloc_int(&mut recent_int, &mut next_int);
                    StaticOp::Load {
                        dest: Reg::int(dest),
                        base: Reg::int(base),
                    }
                }
                OpClass::Store => {
                    let base = 1 + rng.gen_range(0..6);
                    let data = pick(&recent_int, rng, 6, 0.5);
                    StaticOp::Store {
                        data: Reg::int(data),
                        base: Reg::int(base),
                    }
                }
                OpClass::Nop => StaticOp::Nop,
                OpClass::Special => StaticOp::Special,
                op if op.is_fp() => {
                    // Compiled FP loops are unrolled but keep reduction
                    // chains; the deep FMA pipes make these the dominant
                    // "core" time the paper attributes to pipeline depth.
                    let a = pick(&recent_fp, rng, 3, 0.45);
                    let b = pick(&recent_fp, rng, 3, 0.45);
                    let d = {
                        let d = next_fp;
                        next_fp = if next_fp >= 30 { 4 } else { next_fp + 1 };
                        recent_fp.push(d);
                        if recent_fp.len() > 4 {
                            recent_fp.remove(0);
                        }
                        d
                    };
                    StaticOp::Alu {
                        op,
                        dest: Reg::fp(d),
                        src_a: Reg::fp(a),
                        src_b: Reg::fp(b),
                    }
                }
                op => {
                    let a = pick(&recent_int, rng, 6, 0.5);
                    let b = pick(&recent_int, rng, 6, 0.5);
                    let d = alloc_int(&mut recent_int, &mut next_int);
                    StaticOp::Alu {
                        op,
                        dest: Reg::int(d),
                        src_a: Reg::int(a),
                        src_b: Reg::int(b),
                    }
                }
            };
            ops.push(s);
        }
    }

    /// Number of static blocks.
    pub fn blocks(&self) -> usize {
        self.body_at.len()
    }

    /// Blocks expanded so far: at most the blocks the walk has visited.
    pub fn blocks_built(&self) -> usize {
        self.built
    }

    /// Address of block `id`'s first instruction; `id == blocks()` gives
    /// the address past the last block.
    pub fn pc_start(&self, id: usize) -> u64 {
        self.pcs[id]
    }

    /// Instructions in block `id`, including its ending branch.
    pub fn block_records(&self, id: usize) -> usize {
        ((self.pcs[id + 1] - self.pcs[id]) / TraceRecord::INSTR_BYTES) as usize
    }

    /// Picks the next loop: (first block index, block count, iterations).
    pub fn choose_loop(&self, rng: &mut StdRng) -> (usize, usize, u32) {
        let spec = &self.spec;
        let hot = spec.hot_blocks > 0 && rng.gen_bool(spec.hot_weight);
        let pool = if hot { spec.hot_blocks } else { spec.blocks };
        let len = rng.gen_range(spec.loop_blocks_min..=spec.loop_blocks_max) as usize;
        let max_start = (pool as usize).saturating_sub(len).max(1);
        let start = rng.gen_range(0..max_start);
        let iters = rng.gen_range(spec.loop_iters_min..=spec.loop_iters_max);
        (start, len.min(self.blocks() - start), iters)
    }

    /// Appends one execution of block `id` to `out`: its body, then its
    /// ending conditional branch. `back_edge` is `Some((taken, loop head))`
    /// for a loop's last block, whose branch returns to the head except
    /// on exit; an inner site draws its direction from the site's bias
    /// and targets its own fall-through, so the walk stays linear either
    /// way. `kernel` marks every record privileged.
    pub fn emit_block(
        &mut self,
        id: usize,
        back_edge: Option<(bool, u64)>,
        kernel: bool,
        rng: &mut StdRng,
        addr_gen: &mut AddressGen,
        out: &mut Vec<TraceRecord>,
    ) {
        self.visit(id);
        let privileged = |i: Instr| if kernel { i.kernel() } else { i };
        let mut pc = self.pcs[id];
        let body = self.body_at[id] as usize;
        for op in &self.ops[body..body + self.block_records(id) - 1] {
            let instr = match *op {
                StaticOp::Alu {
                    op,
                    dest,
                    src_a,
                    src_b,
                } => Instr::alu(op, dest, &[src_a, src_b]),
                StaticOp::Load { dest, base } => {
                    Instr::load(dest, base, addr_gen.next_addr(rng), MemWidth::B8)
                }
                StaticOp::Store { data, base } => {
                    Instr::store(data, base, addr_gen.next_addr(rng), MemWidth::B8)
                }
                StaticOp::Nop => Instr::nop(),
                StaticOp::Special => Instr::special(),
            };
            out.push(TraceRecord::new(pc, privileged(instr)));
            pc += TraceRecord::INSTR_BYTES;
        }
        let branch = match back_edge {
            Some((taken, head)) => Instr::branch_cond(taken, head),
            None => Instr::branch_cond(rng.gen_bool(self.taken_bias[id]), self.pcs[id + 1]),
        };
        out.push(TraceRecord::new(pc, privileged(branch)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Program, ProgramSpec};
    use crate::regions::{DataSpec, Region};
    use s64v_trace::{TraceSummary, VecTrace};

    fn tiny_spec() -> CodeSpec {
        CodeSpec {
            base: 0x1_0000,
            blocks: 32,
            hot_blocks: 8,
            hot_weight: 0.8,
            block_len_min: 3,
            block_len_max: 8,
            loop_blocks_min: 1,
            loop_blocks_max: 3,
            loop_iters_min: 2,
            loop_iters_max: 10,
            predictable_fraction: 0.7,
            easy_bias: 0.9,
            hard_bias: 0.6,
        }
    }

    fn tiny_data() -> DataSpec {
        DataSpec::new(vec![Region::uniform(0x100_0000, 64 * 1024, 1.0)])
    }

    /// `n` records of pure user code over `spec`.
    fn user_trace(spec: &CodeSpec, n: usize, seed: u64) -> VecTrace {
        let spec = ProgramSpec::user_only("unit", InstrMix::spec_int(), spec.clone(), tiny_data());
        Program::new(spec).generate(n, seed)
    }

    #[test]
    fn static_code_is_deterministic() {
        let spec = tiny_spec();
        let mut a = StaticCode::build(&spec, &InstrMix::spec_int(), 5);
        let mut b = StaticCode::build(&spec, &InstrMix::spec_int(), 5);
        assert_eq!(a.blocks(), b.blocks());
        // Visited in opposite orders: a block is a function of its id.
        for id in 0..a.blocks() {
            a.visit(id);
            b.visit(a.blocks() - 1 - id);
        }
        for id in 0..a.blocks() {
            assert_eq!(a.pc_start(id), b.pc_start(id));
            assert_eq!(a.block_records(id), b.block_records(id));
            assert_eq!(a.taken_bias[id], b.taken_bias[id]);
        }
    }

    #[test]
    fn blocks_are_laid_out_contiguously() {
        let mut code = StaticCode::build(&tiny_spec(), &InstrMix::spec_int(), 5);
        let mut rng = StdRng::seed_from_u64(1);
        let mut addr_gen = tiny_data().generator();
        for id in 0..code.blocks() {
            let mut out = Vec::new();
            code.emit_block(id, None, false, &mut rng, &mut addr_gen, &mut out);
            assert_eq!(out.len(), code.block_records(id));
            assert_eq!(out[0].pc, code.pc_start(id));
            assert!(out.windows(2).all(|w| w[0].next_pc() == w[1].pc));
            let branch = out.last().expect("a block ends with a branch");
            assert_eq!(branch.next_pc(), code.pc_start(id + 1), "taken or not");
        }
    }

    #[test]
    fn a_block_is_expanded_on_its_first_visit_only() {
        let mut code = StaticCode::build(&tiny_spec(), &InstrMix::spec_int(), 5);
        assert_eq!(code.blocks_built(), 0, "layout expands nothing");
        let mut rng = StdRng::seed_from_u64(1);
        let mut addr_gen = tiny_data().generator();
        let mut out = Vec::new();
        for id in [3, 7, 3, 3, 7] {
            code.emit_block(id, None, false, &mut rng, &mut addr_gen, &mut out);
        }
        assert_eq!(code.blocks_built(), 2);
    }

    #[test]
    fn emitted_trace_has_requested_length_and_structure() {
        let spec = tiny_spec();
        let t = user_trace(&spec, 5000, 9);
        assert_eq!(t.len(), 5000);
        let s = TraceSummary::collect(t.stream());
        assert!(
            s.cond_branches > 300,
            "one branch per block, got {}",
            s.cond_branches
        );
        assert!(s.branch_sites <= spec.blocks as u64);
        assert!(s.mem_fraction() > 0.2);
    }

    #[test]
    fn traces_are_seed_deterministic() {
        let spec = tiny_spec();
        let a = user_trace(&spec, 2000, 11);
        let b = user_trace(&spec, 2000, 11);
        assert_eq!(a, b);
        let c = user_trace(&spec, 2000, 12);
        assert_ne!(a, c, "different seeds give different traces");
    }

    #[test]
    fn revisited_blocks_replay_the_same_pcs() {
        let spec = tiny_spec();
        let t = user_trace(&spec, 20_000, 3);
        let s = TraceSummary::collect(t.stream());
        // 32 blocks × ≤ 9 instructions × 4 bytes ≈ ≤ 1.2 KB of code.
        assert!(
            s.code_footprint_bytes() < 4096,
            "code footprint {} must reflect the static code, not the trace length",
            s.code_footprint_bytes()
        );
    }

    #[test]
    fn back_edges_are_mostly_taken() {
        let spec = tiny_spec();
        let t = user_trace(&spec, 10_000, 3);
        let back_edges: Vec<bool> = t
            .iter()
            .filter(|r| {
                r.instr.op == OpClass::BranchCond
                    && r.instr.branch.is_some_and(|b| b.target <= r.pc)
            })
            .map(|r| r.instr.branch.expect("cond branch").taken)
            .collect();
        assert!(!back_edges.is_empty());
        let taken = back_edges.iter().filter(|&&t| t).count();
        assert!(
            taken * 2 > back_edges.len(),
            "back edges are taken except on loop exit ({taken}/{})",
            back_edges.len()
        );
    }

    #[test]
    fn kernel_flag_marks_records() {
        let spec = tiny_spec();
        let mut code = StaticCode::build(&spec, &InstrMix::tpcc(), 4);
        let mut rng = StdRng::seed_from_u64(4);
        let mut addr_gen = tiny_data().generator();
        let mut records = Vec::new();
        let head = code.pc_start(0);
        code.emit_block(0, None, true, &mut rng, &mut addr_gen, &mut records);
        code.emit_block(
            1,
            Some((true, head)),
            true,
            &mut rng,
            &mut addr_gen,
            &mut records,
        );
        let t = VecTrace::from_records(records);
        let s = TraceSummary::collect(t.stream());
        assert_eq!(s.kernel_instructions, s.instructions);
    }
}
