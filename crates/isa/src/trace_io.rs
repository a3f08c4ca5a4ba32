//! Binary serialization of committed-path traces, so expensive
//! functional runs can be captured once and replayed across many
//! machine configurations (or machines).
//!
//! Layout: `"RTRC"` magic, `u16` version, `u64` record count, then one
//! fixed-width 73-byte record per instruction:
//!
//! ```text
//! seq u64 | pc u64 | inst u64 (encoded) | src1 u64 | src2 u64
//! | flags u8 (bit0 result, bit1 ea, bit2 control, bit3 taken)
//! | result u64 | ea u64 | target u64 | next_pc u64
//! ```
//!
//! Optional fields are always present in the record (zero when absent);
//! the flags byte says which are meaningful.
//!
//! `seq`, `target` and `next_pc` are not stored in [`DynInst`]: the
//! writer emits the record's index and the derived
//! [`DynInst::target`] (zero without a control outcome) and
//! [`DynInst::next_pc`], so the bytes match what earlier versions, which
//! stored them, wrote. The reader recomputes all three and rejects a
//! record that disagrees with [`TraceIoError::Inconsistent`] rather than
//! dropping the stored value unchecked.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use crate::encode;
use crate::trace::{ControlOutcome, DynInst};

const MAGIC: &[u8; 4] = b"RTRC";
const VERSION: u16 = 1;
/// Bytes per encoded record.
const RECORD_BYTES: usize = 73;
/// Records the reader reserves before any arrive. The header count is
/// untrusted, so the buffer grows with the records actually read.
const PREALLOC_RECORDS: u64 = 1 << 16;

/// An error produced while reading a trace stream.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure (including a stream shorter than its
    /// header's record count).
    Io(io::Error),
    /// The magic bytes did not match.
    BadMagic,
    /// Unsupported version.
    BadVersion(u16),
    /// An instruction word failed to decode.
    Decode(crate::DecodeError),
    /// A stored field disagrees with the value the record derives.
    Inconsistent {
        /// Index of the offending record.
        record: u64,
        /// The on-disk field: `"seq"`, `"target"` or `"next_pc"`.
        field: &'static str,
    },
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceIoError::BadMagic => write!(f, "not a redsim trace (bad magic)"),
            TraceIoError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceIoError::Decode(e) => write!(f, "bad instruction in trace: {e}"),
            TraceIoError::Inconsistent { record, field } => {
                write!(
                    f,
                    "trace record {record}: stored {field} disagrees with the record"
                )
            }
        }
    }
}

impl Error for TraceIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl From<crate::DecodeError> for TraceIoError {
    fn from(e: crate::DecodeError) -> Self {
        TraceIoError::Decode(e)
    }
}

/// Writes a trace to `w`.
///
/// A `&mut` reference can be passed for any `W: Write`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace<W: Write>(mut w: W, trace: &[DynInst]) -> Result<(), TraceIoError> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(trace.len() as u64).to_le_bytes())?;
    for (seq, d) in trace.iter().enumerate() {
        let mut flags = 0u8;
        if d.result.is_some() {
            flags |= 1;
        }
        if d.ea.is_some() {
            flags |= 2;
        }
        if let Some(c) = d.control {
            flags |= 4;
            if c.taken {
                flags |= 8;
            }
        }
        let mut rec = [0u8; RECORD_BYTES];
        rec[0..8].copy_from_slice(&(seq as u64).to_le_bytes());
        rec[8..16].copy_from_slice(&d.pc.to_le_bytes());
        rec[16..24].copy_from_slice(&encode::encode(&d.inst).to_le_bytes());
        rec[24..32].copy_from_slice(&d.src1.to_le_bytes());
        rec[32..40].copy_from_slice(&d.src2.to_le_bytes());
        rec[40] = flags;
        rec[41..49].copy_from_slice(&d.result.unwrap_or(0).to_le_bytes());
        rec[49..57].copy_from_slice(&d.ea.unwrap_or(0).to_le_bytes());
        rec[57..65].copy_from_slice(&d.target().unwrap_or(0).to_le_bytes());
        rec[65..73].copy_from_slice(&d.next_pc().to_le_bytes());
        w.write_all(&rec)?;
    }
    Ok(())
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, TraceIoError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8-byte field"))
}

/// Reads a trace from `r`.
///
/// A `&mut` reference can be passed for any `R: Read`. The header's
/// record count is not trusted for allocation: the buffer grows as
/// records arrive, so a header claiming more records than the stream
/// holds ends in an [`TraceIoError::Io`] error, not a huge allocation.
///
/// # Errors
///
/// Fails on I/O errors (a short stream included), bad magic/version,
/// undecodable instruction words, or a stored `seq`/`target`/`next_pc`
/// that disagrees with the record ([`TraceIoError::Inconsistent`]).
pub fn read_trace<R: Read>(mut r: R) -> Result<Vec<DynInst>, TraceIoError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(TraceIoError::BadMagic);
    }
    let mut vbuf = [0u8; 2];
    r.read_exact(&mut vbuf)?;
    let version = u16::from_le_bytes(vbuf);
    if version != VERSION {
        return Err(TraceIoError::BadVersion(version));
    }
    let count = read_u64(&mut r)?;
    let mut out = Vec::with_capacity(count.min(PREALLOC_RECORDS) as usize);
    let mut rec = [0u8; RECORD_BYTES];
    for seq in 0..count {
        if out.len() == out.capacity() {
            // Double, but never past the header's count: an honest
            // stream ends with the buffer sized exactly.
            out.reserve_exact((count - seq).min(out.len() as u64) as usize);
        }
        r.read_exact(&mut rec)?;
        let flags = rec[40];
        let d = DynInst {
            pc: le_u64(&rec[8..16]),
            inst: encode::decode(le_u64(&rec[16..24]))?,
            src1: le_u64(&rec[24..32]),
            src2: le_u64(&rec[32..40]),
            result: (flags & 1 != 0).then(|| le_u64(&rec[41..49])),
            ea: (flags & 2 != 0).then(|| le_u64(&rec[49..57])),
            control: (flags & 4 != 0).then_some(ControlOutcome {
                taken: flags & 8 != 0,
            }),
        };
        let inconsistent = |field| TraceIoError::Inconsistent { record: seq, field };
        if le_u64(&rec[0..8]) != seq {
            return Err(inconsistent("seq"));
        }
        if le_u64(&rec[57..65]) != d.target().unwrap_or(0) {
            return Err(inconsistent("target"));
        }
        if le_u64(&rec[65..73]) != d.next_pc() {
            return Err(inconsistent("next_pc"));
        }
        out.push(d);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::emu::Emulator;

    fn sample_trace() -> Vec<DynInst> {
        let p = assemble(
            r#"
                .data
            x: .word 5
                .text
            main:
                la t0, x
                ld a0, 0(t0)
            loop:
                addi a0, a0, -1
                bnez a0, loop
                sd a0, 0(t0)
                halt
            "#,
        )
        .unwrap();
        Emulator::new(&p).run_trace(1000).unwrap()
    }

    #[test]
    fn round_trip_is_lossless() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn empty_trace_round_trips() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &[]).unwrap();
        assert!(read_trace(buf.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let r = read_trace(&b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00"[..]);
        assert!(matches!(r, Err(TraceIoError::BadMagic)));
    }

    #[test]
    fn truncated_stream_fails_cleanly() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        for cut in [5, 14, 20, buf.len() - 1] {
            assert!(read_trace(&buf[..cut]).is_err(), "cut {cut}");
        }
    }

    fn header(count: u64) -> Vec<u8> {
        let mut h = b"RTRC\x01\x00".to_vec();
        h.extend_from_slice(&count.to_le_bytes());
        h
    }

    #[test]
    fn hostile_counts_fail_without_allocating_for_them() {
        // A bare header claiming 2^40 (or 2^64 - 1) records must end in
        // a typed short-read error, not an abort on a ~100 TB reserve.
        for count in [1u64 << 40, u64::MAX] {
            let r = read_trace(header(count).as_slice());
            assert!(matches!(r, Err(TraceIoError::Io(_))), "count {count}");
            // Likewise with some genuine records in front of the gap.
            let mut buf = Vec::new();
            write_trace(&mut buf, &sample_trace()).unwrap();
            buf[6..14].copy_from_slice(&count.to_le_bytes());
            let r = read_trace(buf.as_slice());
            assert!(matches!(r, Err(TraceIoError::Io(_))), "count {count}");
        }
    }

    #[test]
    fn honest_stream_is_read_into_an_exact_buffer() {
        let t = vec![sample_trace()[0]; 200_000];
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.capacity(), t.len());
    }

    /// Byte offsets of the derived fields inside a record.
    const SEQ: usize = 0;
    const TARGET: usize = 57;
    const NEXT_PC: usize = 65;

    #[test]
    fn records_disagreeing_with_their_derivation_are_rejected() {
        let t = sample_trace();
        let branch = t
            .iter()
            .position(|d| d.control.is_some())
            .expect("sample has a branch");
        let mut clean = Vec::new();
        write_trace(&mut clean, &t).unwrap();
        for (record, offset, field) in [
            (3, SEQ, "seq"),
            (branch, TARGET, "target"),
            // A non-control record stores a zero target.
            (0, TARGET, "target"),
            (branch, NEXT_PC, "next_pc"),
            (t.len() - 1, NEXT_PC, "next_pc"),
        ] {
            let mut buf = clean.clone();
            buf[14 + record * RECORD_BYTES + offset] ^= 0x40;
            match read_trace(buf.as_slice()) {
                Err(TraceIoError::Inconsistent {
                    record: r,
                    field: f,
                }) => {
                    assert_eq!((r, f), (record as u64, field));
                }
                other => panic!("{field} at record {record}: {other:?}"),
            }
        }
    }

    #[test]
    fn replay_through_simulator_matches_direct_run() {
        // The serialized trace must drive the timing model identically.
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.last().unwrap().inst.op, crate::Opcode::Halt);
    }
}
