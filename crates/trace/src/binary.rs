//! Compact binary trace format.
//!
//! The paper's traces are large on-disk artifacts (sampled TPC-C captures).
//! This module provides an equivalent: a compact little-endian encoding of
//! [`TraceRecord`]s with a magic/version header, suitable both for files
//! and in-memory buffers.
//!
//! Layout:
//!
//! ```text
//! header:  b"S64V" | u16 version | u16 reserved | u64 record count
//! record:  u64 pc | u8 op | u8 dest | u8 src0 | u8 src1 | u8 src2 | u8 flags
//!          [u64 mem addr]    (if flags.HAS_MEM)
//!          [u64 br target]   (if flags.HAS_BRANCH)
//! ```
//!
//! Register bytes hold [`Reg::dense_index`] or `0xff` for "none"; `flags`
//! packs memory width, branch direction and privilege.

use crate::record::TraceRecord;
use crate::stream::VecTrace;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use s64v_isa::{BranchInfo, Instr, MemInfo, MemWidth, OpClass, Privilege, Reg};
use std::error::Error;
use std::fmt;

const MAGIC: &[u8; 4] = b"S64V";
const VERSION: u16 = 1;

const NO_REG: u8 = 0xff;
const FLAG_HAS_MEM: u8 = 1 << 0;
const FLAG_HAS_BRANCH: u8 = 1 << 1;
const FLAG_TAKEN: u8 = 1 << 2;
const FLAG_KERNEL: u8 = 1 << 3;
const WIDTH_SHIFT: u8 = 4; // two bits
/// Every bit a record's `flags` byte may set; bits 6–7 are not.
const FLAG_KNOWN: u8 =
    FLAG_HAS_MEM | FLAG_HAS_BRANCH | FLAG_TAKEN | FLAG_KERNEL | (0b11 << WIDTH_SHIFT);

/// Error decoding a binary trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeTraceError {
    /// The buffer does not start with the `S64V` magic.
    BadMagic,
    /// The format version is not supported.
    UnsupportedVersion(u16),
    /// The buffer ended before the declared record count was read.
    Truncated,
    /// A field held an invalid value (unknown op code, bad register...).
    Corrupt(&'static str),
}

impl fmt::Display for DecodeTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeTraceError::BadMagic => write!(f, "missing S64V trace magic"),
            DecodeTraceError::UnsupportedVersion(v) => {
                write!(f, "unsupported trace format version {v}")
            }
            DecodeTraceError::Truncated => write!(f, "trace buffer ended prematurely"),
            DecodeTraceError::Corrupt(what) => write!(f, "corrupt trace field: {what}"),
        }
    }
}

impl Error for DecodeTraceError {}

fn op_to_u8(op: OpClass) -> u8 {
    match op {
        OpClass::IntAlu => 0,
        OpClass::IntMul => 1,
        OpClass::IntDiv => 2,
        OpClass::FpAdd => 3,
        OpClass::FpMul => 4,
        OpClass::FpMulAdd => 5,
        OpClass::FpDiv => 6,
        OpClass::Load => 7,
        OpClass::Store => 8,
        OpClass::BranchCond => 9,
        OpClass::BranchUncond => 10,
        OpClass::Nop => 11,
        OpClass::Special => 12,
    }
}

fn op_from_u8(v: u8) -> Option<OpClass> {
    Some(match v {
        0 => OpClass::IntAlu,
        1 => OpClass::IntMul,
        2 => OpClass::IntDiv,
        3 => OpClass::FpAdd,
        4 => OpClass::FpMul,
        5 => OpClass::FpMulAdd,
        6 => OpClass::FpDiv,
        7 => OpClass::Load,
        8 => OpClass::Store,
        9 => OpClass::BranchCond,
        10 => OpClass::BranchUncond,
        11 => OpClass::Nop,
        12 => OpClass::Special,
        _ => return None,
    })
}

fn reg_to_u8(reg: Option<Reg>) -> u8 {
    match reg {
        None => NO_REG,
        Some(r) => r.dense_index() as u8,
    }
}

fn reg_from_u8(v: u8) -> Result<Option<Reg>, DecodeTraceError> {
    if v == NO_REG {
        return Ok(None);
    }
    Reg::from_dense(v as usize)
        .map(Some)
        .ok_or(DecodeTraceError::Corrupt("register index"))
}

fn width_to_bits(w: MemWidth) -> u8 {
    match w {
        MemWidth::B1 => 0,
        MemWidth::B2 => 1,
        MemWidth::B4 => 2,
        MemWidth::B8 => 3,
    }
}

fn width_from_bits(b: u8) -> MemWidth {
    match b & 0b11 {
        0 => MemWidth::B1,
        1 => MemWidth::B2,
        2 => MemWidth::B4,
        _ => MemWidth::B8,
    }
}

/// Encodes a trace into a freshly allocated buffer.
///
/// # Examples
///
/// ```
/// use s64v_isa::Instr;
/// use s64v_trace::{binary, TraceRecord, VecTrace};
///
/// let t = VecTrace::from_records(vec![TraceRecord::new(0, Instr::nop())]);
/// let bytes = binary::encode(&t);
/// let back = binary::decode(&bytes)?;
/// assert_eq!(back, t);
/// # Ok::<(), binary::DecodeTraceError>(())
/// ```
pub fn encode(trace: &VecTrace) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + trace.len() * 16);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u16_le(0);
    buf.put_u64_le(trace.len() as u64);
    for rec in trace.records() {
        encode_record_into(&mut buf, rec);
    }
    buf.freeze()
}

fn encode_record_into(buf: &mut BytesMut, rec: &TraceRecord) {
    let i = &rec.instr;
    buf.put_u64_le(rec.pc);
    buf.put_u8(op_to_u8(i.op));
    buf.put_u8(reg_to_u8(i.dest));
    buf.put_u8(reg_to_u8(i.srcs[0]));
    buf.put_u8(reg_to_u8(i.srcs[1]));
    buf.put_u8(reg_to_u8(i.srcs[2]));
    let mut flags = 0u8;
    if let Some(m) = i.mem {
        flags |= FLAG_HAS_MEM | (width_to_bits(m.width) << WIDTH_SHIFT);
    }
    if let Some(b) = i.branch {
        flags |= FLAG_HAS_BRANCH;
        if b.taken {
            flags |= FLAG_TAKEN;
        }
    }
    if i.privilege == Privilege::Kernel {
        flags |= FLAG_KERNEL;
    }
    buf.put_u8(flags);
    if let Some(m) = i.mem {
        buf.put_u64_le(m.addr);
    }
    if let Some(b) = i.branch {
        buf.put_u64_le(b.target);
    }
}

/// Decodes a trace from a buffer produced by [`encode`]. Only the exact
/// bytes `encode` writes are accepted, so `encode(decode(b)?) == b`.
///
/// # Errors
///
/// Returns [`DecodeTraceError`] when the buffer is malformed, truncated,
/// longer than its declared record count, or written by an unsupported
/// format version.
pub fn decode(mut buf: &[u8]) -> Result<VecTrace, DecodeTraceError> {
    if buf.remaining() < 16 {
        return Err(DecodeTraceError::Truncated);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(DecodeTraceError::BadMagic);
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(DecodeTraceError::UnsupportedVersion(version));
    }
    if buf.get_u16_le() != 0 {
        return Err(DecodeTraceError::Corrupt("reserved header field"));
    }
    let count = buf.get_u64_le();
    let mut trace = VecTrace::new();
    for _ in 0..count {
        trace.push(decode_record_from(&mut buf)?);
    }
    if !buf.is_empty() {
        return Err(DecodeTraceError::Corrupt("bytes after the last record"));
    }
    Ok(trace)
}

/// Decodes one record from the front of `buf`, advancing it.
fn decode_record_from(buf: &mut &[u8]) -> Result<TraceRecord, DecodeTraceError> {
    if buf.remaining() < 14 {
        return Err(DecodeTraceError::Truncated);
    }
    let pc = buf.get_u64_le();
    let op = op_from_u8(buf.get_u8()).ok_or(DecodeTraceError::Corrupt("op class"))?;
    let dest = reg_from_u8(buf.get_u8())?;
    let srcs = [
        reg_from_u8(buf.get_u8())?,
        reg_from_u8(buf.get_u8())?,
        reg_from_u8(buf.get_u8())?,
    ];
    let flags = buf.get_u8();
    if flags & !FLAG_KNOWN != 0 {
        return Err(DecodeTraceError::Corrupt("unknown flag bits"));
    }
    let mem = if flags & FLAG_HAS_MEM != 0 {
        if buf.remaining() < 8 {
            return Err(DecodeTraceError::Truncated);
        }
        Some(MemInfo {
            addr: buf.get_u64_le(),
            width: width_from_bits(flags >> WIDTH_SHIFT),
        })
    } else if flags >> WIDTH_SHIFT != 0 {
        return Err(DecodeTraceError::Corrupt("width without a memory operand"));
    } else {
        None
    };
    let branch = if flags & FLAG_HAS_BRANCH != 0 {
        if buf.remaining() < 8 {
            return Err(DecodeTraceError::Truncated);
        }
        Some(BranchInfo {
            taken: flags & FLAG_TAKEN != 0,
            target: buf.get_u64_le(),
        })
    } else if flags & FLAG_TAKEN != 0 {
        return Err(DecodeTraceError::Corrupt("direction without a branch"));
    } else {
        None
    };
    if mem.is_some() != op.is_mem() {
        return Err(DecodeTraceError::Corrupt("memory attribute mismatch"));
    }
    if branch.is_some() != op.is_branch() {
        return Err(DecodeTraceError::Corrupt("branch attribute mismatch"));
    }
    let privilege = if flags & FLAG_KERNEL != 0 {
        Privilege::Kernel
    } else {
        Privilege::User
    };
    let instr = Instr {
        op,
        dest,
        srcs,
        mem,
        branch,
        privilege,
    };
    Ok(TraceRecord { pc, instr })
}

#[cfg(test)]
mod tests {
    use super::*;
    use s64v_isa::{Instr, OpClass, Reg};

    fn sample_trace() -> VecTrace {
        let mut t = VecTrace::new();
        t.push(TraceRecord::new(0x1000, Instr::nop()));
        t.push(TraceRecord::new(
            0x1004,
            Instr::alu(
                OpClass::FpMulAdd,
                Reg::fp(1),
                &[Reg::fp(2), Reg::fp(3), Reg::fp(4)],
            ),
        ));
        t.push(TraceRecord::new(
            0x1008,
            Instr::load(Reg::int(9), Reg::int(8), 0xdead_0000_beef, MemWidth::B8),
        ));
        t.push(TraceRecord::new(0x100c, Instr::branch_cond(true, 0x2000)));
        t.push(TraceRecord::new(0x2000, Instr::special().kernel()));
        t
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample_trace();
        let encoded = encode(&t);
        let decoded = decode(&encoded).unwrap();
        assert_eq!(decoded, t);
    }

    #[test]
    fn rejects_bad_magic() {
        let t = sample_trace();
        let mut bytes = encode(&t).to_vec();
        bytes[0] = b'X';
        assert_eq!(decode(&bytes), Err(DecodeTraceError::BadMagic));
    }

    #[test]
    fn rejects_truncation() {
        let t = sample_trace();
        let bytes = encode(&t);
        let cut = &bytes[..bytes.len() - 3];
        assert_eq!(decode(cut), Err(DecodeTraceError::Truncated));
    }

    #[test]
    fn rejects_future_version() {
        let t = VecTrace::new();
        let mut bytes = encode(&t).to_vec();
        bytes[4] = 99;
        assert!(matches!(
            decode(&bytes),
            Err(DecodeTraceError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn rejects_corrupt_op() {
        let mut t = VecTrace::new();
        t.push(TraceRecord::new(0, Instr::nop()));
        let mut bytes = encode(&t).to_vec();
        bytes[16 + 8] = 0xee; // op byte of the first record
        assert!(matches!(decode(&bytes), Err(DecodeTraceError::Corrupt(_))));
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = VecTrace::new();
        assert_eq!(decode(&encode(&t)).unwrap(), t);
    }

    #[test]
    fn rejects_bytes_encode_never_writes() {
        let mut t = VecTrace::new();
        t.push(TraceRecord::new(0, Instr::nop()));
        let good = encode(&t).to_vec();
        let flags = 16 + 13; // the first record's flags byte
        let corrupt = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = good.clone();
            edit(&mut bytes);
            matches!(decode(&bytes), Err(DecodeTraceError::Corrupt(_)))
        };
        assert!(corrupt(&|b| b.push(0)), "trailing byte");
        assert!(corrupt(&|b| b[6] = 1), "reserved header field");
        assert!(corrupt(&|b| b[flags] |= 1 << 6), "flag bit 6");
        assert!(corrupt(&|b| b[flags] |= 1 << 7), "flag bit 7");
        assert!(
            corrupt(&|b| b[flags] |= 2 << WIDTH_SHIFT),
            "width, no memory"
        );
        assert!(corrupt(&|b| b[flags] |= FLAG_TAKEN), "taken, no branch");
    }
}
