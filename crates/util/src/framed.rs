//! The one framed log: the crash-consistent append-only JSONL format
//! the campaign progress manifest and the serve job journal share.
//!
//! A log is a header line followed by one *frame* per record:
//!
//! ```text
//! {"kind":"header","version":2,"fingerprint":"00ab…","shards":28}
//! {"crc":"9f3c21d07a5e448b","rec":{"kind":"shard","id":0,…}}
//! {"crc":"04d1fe2b93c07a66","rec":{"kind":"shard","id":3,…}}
//! ```
//!
//! The `crc` field is the [`fx64`] checksum of the exact payload bytes
//! between `"rec":` and the closing brace, as 16 lowercase hex digits:
//! verification is slice, hash, compare — no JSON parse — and each
//! frame is still valid JSON, so `jq` keeps working on logs.
//!
//! The module owns the crash-consistency discipline; what a record
//! *means* stays with the caller's per-payload callback. [`Appender`]
//! latches its first IO error, so only the last line can tear.
//! [`replay`] therefore drops a damaged **last** line (the kill window)
//! and refuses a damaged **interior** line — at-rest damage — with
//! [`ReplayError::Corrupt`] naming it. [`compact`] rewrites header plus
//! records atomically, so a torn tail never precedes the next append.

use std::io;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

use crate::hash::fx64;
use crate::io::{atomic_write, write_all_retrying, Io, IoFile};

/// Wraps a record payload in its checksummed frame.
#[must_use]
pub fn frame_record(payload: &str) -> String {
    format!(
        "{{\"crc\":\"{:016x}\",\"rec\":{payload}}}",
        fx64(payload.as_bytes())
    )
}

/// Validates one frame and returns the payload slice.
///
/// # Errors
///
/// A human-readable description of the defect (bad prefix, bad hex,
/// checksum mismatch) — [`replay`] decides whether the position makes
/// it a tolerable torn tail or fatal interior corruption.
pub fn unframe_record(line: &str) -> Result<&str, String> {
    let Some(rest) = line.strip_prefix("{\"crc\":\"") else {
        return Err("frame does not start with {\"crc\":\"".to_owned());
    };
    if rest.len() < 16 + 8 + 1 {
        return Err("frame truncated before the payload".to_owned());
    }
    // Byte-wise, so a character across byte 16 is a defect, not a
    // slicing panic; a case-flipped digit is damage, not a spelling.
    let hex = &rest.as_bytes()[..16];
    if !hex.iter().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return Err(format!(
            "checksum field {:?} is not 16 lowercase hex digits",
            String::from_utf8_lossy(hex)
        ));
    }
    let (hex, rest) = rest.split_at(16);
    let want = u64::from_str_radix(hex, 16).unwrap_or_default();
    let Some(rest) = rest.strip_prefix("\",\"rec\":") else {
        return Err("frame missing \",\"rec\": after the checksum".to_owned());
    };
    let Some(payload) = rest.strip_suffix('}') else {
        return Err("frame missing its closing brace".to_owned());
    };
    let got = fx64(payload.as_bytes());
    if got != want {
        return Err(format!(
            "checksum mismatch: header says {want:016x}, payload hashes to {got:016x}"
        ));
    }
    Ok(payload)
}

/// Why [`replay`] refused a log.
#[derive(Debug)]
pub enum ReplayError {
    /// The first line is not the expected header; carries the line
    /// found instead.
    Header(String),
    /// An interior line failed its frame check or its record callback.
    Corrupt {
        /// 1-based line number of the damaged record.
        line: usize,
        /// What exactly failed (framing, checksum, record).
        detail: String,
    },
}

/// Reads a whole log; a missing file reads as the empty log.
///
/// # Errors
///
/// Any other `io::Error` of [`Io::read_to_string`].
pub fn read(io: &dyn Io, path: &Path) -> io::Result<String> {
    match io.read_to_string(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(String::new()),
        r => r,
    }
}

/// Replays a log: matches the header, unframes every record and hands
/// each payload to `apply`, in file order. An empty log has no records.
///
/// A line that fails its frame check, or whose payload `apply` rejects
/// with a defect description, is skipped when it is the last line — the
/// torn tail of a kill mid-append — and is [`ReplayError::Corrupt`]
/// anywhere else.
///
/// # Errors
///
/// [`ReplayError::Header`] on a foreign header, [`ReplayError::Corrupt`]
/// on a damaged interior line.
pub fn replay(
    text: &str,
    header: &str,
    mut apply: impl FnMut(&str) -> Result<(), String>,
) -> Result<(), ReplayError> {
    let mut lines = text.lines().enumerate().peekable();
    match lines.next() {
        None => return Ok(()),
        Some((_, h)) if h == header => {}
        Some((_, h)) => return Err(ReplayError::Header(h.to_owned())),
    }
    while let Some((idx, line)) = lines.next() {
        let Err(detail) = unframe_record(line).and_then(&mut apply) else {
            continue;
        };
        if lines.peek().is_some() {
            return Err(ReplayError::Corrupt {
                line: idx + 1,
                detail,
            });
        }
    }
    Ok(())
}

/// Rewrites a log atomically as `header` plus one frame per record, in
/// iteration order: temp file, optional `fsync` (`sync`), rename.
///
/// # Errors
///
/// Any `io::Error` of [`atomic_write`]; the old log is then untouched.
pub fn compact<I>(io: &dyn Io, path: &Path, header: &str, records: I, sync: bool) -> io::Result<()>
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let mut buf = String::with_capacity(256);
    buf.push_str(header);
    buf.push('\n');
    for rec in records {
        buf.push_str(&frame_record(rec.as_ref()));
        buf.push('\n');
    }
    atomic_write(io, path, buf.as_bytes(), sync)
}

/// The shared, error-latching log appender. One frame per record,
/// written whole through [`write_all_retrying`] (EINTR and short
/// writes are absorbed) and optionally fsynced per record. The *first*
/// IO error latches: every later append refuses immediately, which is
/// what guarantees only the log's final line can ever be torn.
pub struct Appender {
    sync_each: bool,
    /// The open file, or — once an append failed — its first error.
    state: Mutex<io::Result<Box<dyn IoFile>>>,
}

impl Appender {
    /// Opens the log at `path` for appending. `sync_each` adds a
    /// durability barrier after every record.
    ///
    /// # Errors
    ///
    /// Any `io::Error` from [`Io::open_append`].
    pub fn open(io: &dyn Io, path: &Path, sync_each: bool) -> io::Result<Self> {
        Ok(Appender {
            sync_each,
            state: Mutex::new(Ok(io.open_append(path)?)),
        })
    }

    /// Frames and appends one record payload.
    ///
    /// # Errors
    ///
    /// Once this call or an earlier one hit an IO error, every append
    /// fails with a copy (same kind and message) of that first error;
    /// [`Appender::into_error`] hands back the original.
    pub fn append(&self, payload: &str) -> io::Result<()> {
        let copy = |e: &io::Error| io::Error::new(e.kind(), e.to_string());
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        match &mut *st {
            Err(e) => Err(copy(e)),
            Ok(file) => {
                let line = format!("{}\n", frame_record(payload));
                write_all_retrying(file.as_mut(), line.as_bytes())
                    .and_then(|()| if self.sync_each { file.sync() } else { Ok(()) })
                    .map_err(|e| {
                        let first = copy(&e);
                        *st = Err(e);
                        first
                    })
            }
        }
    }

    /// The latched error, if any append failed.
    #[must_use]
    pub fn into_error(self) -> Option<io::Error> {
        let state = self.state.into_inner();
        state.unwrap_or_else(PoisonError::into_inner).err()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{ChaosConfig, ChaosIo, RealIo};
    use crate::{Json, Rng};
    use std::sync::Arc;

    const HEADER: &str = r#"{"kind":"test-log","version":1}"#;

    /// Replays `text`, collecting every accepted payload.
    fn payloads(text: &str) -> Result<Vec<String>, ReplayError> {
        let mut out = Vec::new();
        replay(text, HEADER, |p| {
            out.push(p.to_owned());
            Ok(())
        })?;
        Ok(out)
    }

    /// The generative property of the whole discipline, on a log of
    /// random records appended until a kill: the appender latches its
    /// first error, every truncation replays its complete-frame prefix,
    /// every flipped byte of an interior frame is `Corrupt` at that
    /// frame's line, and compaction reproduces the appended bytes.
    #[test]
    fn appends_truncations_flips_and_compaction_over_a_random_log() {
        let mut rng = Rng::new(0xF4A3_ED10);
        let records: Vec<String> = (0..10)
            .map(|i| {
                let body: String = (0..rng.range_u64(0, 40))
                    .map(|_| char::from(b'a' + rng.below(26) as u8))
                    .collect();
                format!("{{\"kind\":\"rec\",\"id\":{i},\"body\":\"{body}\"}}")
            })
            .collect();
        let dir = std::env::temp_dir().join(format!("redsim-framed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("test dir");
        let path = dir.join("log.jsonl");
        std::fs::write(&path, format!("{HEADER}\n")).expect("seed");

        // Open plus one write per record survive; the next append is
        // killed mid-write and every later one refuses.
        let kill = ChaosConfig {
            kill_after_ops: Some(1 + records.len() as u64),
            ..ChaosConfig::quiet(0)
        };
        let log =
            Appender::open(&ChaosIo::new(Arc::new(RealIo), kill), &path, false).expect("open");
        for r in &records {
            log.append(r).expect("append lands");
        }
        let first = log.append(&records[0]).expect_err("killed append");
        let later = log
            .append(&records[1])
            .expect_err("the appender stays latched");
        assert_eq!(later.to_string(), first.to_string());
        let original = log.into_error().expect("latched");
        assert_eq!(original.to_string(), first.to_string());
        let torn = read(&RealIo, &path).expect("read");
        let log = &torn[..=torn.rfind('\n').expect("newline")];
        assert_ne!(log, torn, "the killed append left a torn frame");
        assert_eq!(payloads(&torn).expect("torn tail"), records);
        assert!(
            log.lines().all(|l| Json::parse(l).is_ok()),
            "frames are JSON"
        );

        // A torn header is refused, never half-read (headers are only
        // written by `compact`, never appended, so they cannot tear).
        assert_eq!(read(&RealIo, &dir.join("missing")).expect("empty"), "");
        assert!(payloads("").expect("empty log").is_empty());
        for cut in 1..HEADER.len() {
            assert!(matches!(payloads(&log[..cut]), Err(ReplayError::Header(_))));
        }
        // Each frame's newline: the frame is complete up to it.
        let frame_ends: Vec<usize> = log.match_indices('\n').skip(1).map(|(i, _)| i).collect();
        for cut in HEADER.len()..=log.len() {
            let complete = frame_ends.iter().filter(|&&end| end <= cut).count();
            let got = payloads(&log[..cut])
                .unwrap_or_else(|e| panic!("cut at {cut} must replay, got {e:?}"));
            assert_eq!(got, records[..complete], "cut at {cut}");
        }

        // Every single-byte flip (ASCII stays ASCII) of every frame but
        // the last names that frame's line.
        let mut bytes = log.as_bytes().to_vec();
        let mut start = HEADER.len() + 1;
        for (i, &end) in frame_ends[..records.len() - 1].iter().enumerate() {
            for pos in start..end {
                for mask in 1..0x80u8 {
                    bytes[pos] ^= mask;
                    let text = std::str::from_utf8(&bytes).expect("ASCII flips stay UTF-8");
                    match payloads(text) {
                        Err(ReplayError::Corrupt { line, .. }) => {
                            assert_eq!(line, i + 2, "flip {mask:#x} at byte {pos}");
                        }
                        other => panic!("flip {mask:#x} at byte {pos}: {other:?}"),
                    }
                    bytes[pos] ^= mask;
                }
            }
            start = end + 1;
        }

        // Compacting the replayed payloads reproduces the appended log.
        let replayed = payloads(log).expect("clean log");
        compact(&RealIo, &path, HEADER, &replayed, false).expect("compact");
        assert_eq!(read(&RealIo, &path).expect("read"), log);
    }
}
