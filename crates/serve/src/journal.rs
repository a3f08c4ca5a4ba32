//! The durable job journal.
//!
//! One append-only [`redsim_util::framed`] log per state directory —
//! the campaign manifest's format, so every record carries its own
//! checksum:
//!
//! ```text
//! {"kind":"serve-journal","version":1}
//! {"crc":"…","rec":{"kind":"job","id":0,"spec":{…}}}
//! {"crc":"…","rec":{"kind":"done","id":0,"res":{…}}}
//! ```
//!
//! A `job` record is an *acknowledged* submission; a `done` record is
//! its result. Framing, the torn-tail rule, appending and compaction
//! live in [`redsim_util::framed`]; this module owns the header and
//! what the two record kinds mean.
//!
//! Every result payload is built from integers, bools and strings
//! only — no floats, no wall-clock — so `parse → to_string` is
//! byte-exact and a compacted journal ([`compact`]) is a deterministic
//! function of the state it encodes.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use redsim_util::framed::{self, ReplayError};
use redsim_util::io::Io;
use redsim_util::Json;

use crate::spec::JobSpec;
use crate::ServeError;

/// Journal format version; a mismatch is a typed refusal, never a
/// half-parse.
pub const JOURNAL_VERSION: u64 = 1;

/// The journal's first line.
#[must_use]
pub fn header_line() -> String {
    Json::obj()
        .field("kind", "serve-journal")
        .field("version", JOURNAL_VERSION)
        .to_string()
}

/// The (unframed) payload of a job record.
#[must_use]
pub fn job_record(id: u64, spec: &JobSpec) -> String {
    format!(
        "{{\"kind\":\"job\",\"id\":{id},\"spec\":{}}}",
        spec.canonical()
    )
}

/// The (unframed) payload of a done record. `res` must be the
/// result's canonical JSON object.
#[must_use]
pub fn done_record(id: u64, res: &str) -> String {
    format!("{{\"kind\":\"done\",\"id\":{id},\"res\":{res}}}")
}

/// Everything a journal encodes: acknowledged jobs, their results,
/// and the next id to assign.
#[derive(Debug, Default)]
pub struct JournalState {
    /// Acknowledged submissions, by id.
    pub specs: BTreeMap<u64, JobSpec>,
    /// Completed results (canonical JSON objects), by id.
    pub results: BTreeMap<u64, String>,
    /// The next job id to assign.
    pub next_id: u64,
}

/// Rewrites the journal atomically in its compacted form: header, job
/// records in id order, done records in id order — a pure function of
/// the state, so two drained servers with the same history compact to
/// identical bytes regardless of worker count or append interleaving.
///
/// # Errors
///
/// Any `io::Error` of [`framed::compact`]; the old journal is then
/// untouched.
pub fn compact(
    io: &dyn Io,
    path: &Path,
    specs: &BTreeMap<u64, JobSpec>,
    results: &BTreeMap<u64, String>,
    sync: bool,
) -> io::Result<()> {
    let jobs = specs.iter().map(|(&id, spec)| job_record(id, spec));
    let dones = results.iter().map(|(&id, res)| done_record(id, res));
    framed::compact(io, path, &header_line(), jobs.chain(dones), sync)
}

/// Loads a journal, tolerating a torn tail and refusing interior
/// damage. A missing file is an empty state. A result without its job
/// record cannot occur under the append discipline (the job record is
/// acknowledged first), so it is reported as corruption.
///
/// # Errors
///
/// [`ServeError::Mismatch`] on a foreign header,
/// [`ServeError::Corrupt`] on interior damage, [`ServeError::Io`] when
/// the file exists but cannot be read.
pub fn load(io: &dyn Io, path: &Path) -> Result<JournalState, ServeError> {
    let mut state = JournalState::default();
    framed::replay(&framed::read(io, path)?, &header_line(), |payload| {
        parse_record(payload, &mut state)
    })
    .map_err(|e| match e {
        ReplayError::Header(h) => ServeError::Mismatch(format!(
            "header {h:?} is not a v{JOURNAL_VERSION} serve journal"
        )),
        ReplayError::Corrupt { line, detail } => ServeError::Corrupt { line, detail },
    })?;
    state.next_id = state.specs.keys().next_back().map_or(0, |&id| id + 1);
    Ok(state)
}

/// Folds one record payload into the state. Returns the defect
/// description on failure ([`framed::replay`] decides torn-tail vs
/// interior).
fn parse_record(payload: &str, state: &mut JournalState) -> Result<(), String> {
    let j = Json::parse(payload).map_err(|e| format!("payload is not valid JSON: {e}"))?;
    let id = |j: &Json| -> Result<u64, String> {
        j.get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| "record has no id".to_owned())
    };
    match j.get("kind").and_then(Json::as_str) {
        Some("job") => {
            let id = id(&j)?;
            let spec = j.get("spec").ok_or("job record has no spec")?;
            let spec = JobSpec::parse(spec)?;
            state.specs.insert(id, spec);
            Ok(())
        }
        Some("done") => {
            let id = id(&j)?;
            if !state.specs.contains_key(&id) {
                return Err(format!("result for unknown job id {id}"));
            }
            let res = j.get("res").ok_or("done record has no res")?;
            // Result payloads are integer/bool/string only, so this
            // re-rendering is byte-exact.
            state.results.insert(id, res.to_string());
            Ok(())
        }
        // A checksummed record of an unknown kind is a format
        // extension written by a newer build, not damage.
        Some(_) => Ok(()),
        None => Err("record has no kind".to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_core::ExecMode;
    use redsim_util::io::RealIo;
    use redsim_workloads::Workload;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("redsim-journal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("test dir");
        d.join("jobs.progress.jsonl")
    }

    fn sample_state() -> JournalState {
        let mut state = JournalState::default();
        state
            .specs
            .insert(0, JobSpec::new(Workload::Gzip, ExecMode::Sie));
        state
            .specs
            .insert(1, JobSpec::new(Workload::Mcf, ExecMode::DieIrb));
        state.results.insert(
            0,
            r#"{"ok":true,"fp":"00000000000000aa","cycles":10}"#.to_owned(),
        );
        state.next_id = 2;
        state
    }

    /// The compacted bytes of a state.
    fn compacted(path: &Path, state: &JournalState) -> String {
        compact(&RealIo, path, &state.specs, &state.results, false).expect("compact");
        std::fs::read_to_string(path).expect("read")
    }

    #[test]
    fn compact_load_round_trip_is_byte_exact() {
        let path = tmp("roundtrip");
        let text = compacted(&path, &sample_state());
        let loaded = load(&RealIo, &path).expect("load");
        assert_eq!(loaded.next_id, 2);
        assert_eq!(compacted(&path, &loaded), text);
    }

    #[test]
    fn torn_tail_is_tolerated_interior_damage_is_typed() {
        let path = tmp("torn");
        let text = compacted(&path, &sample_state());
        // Tear the final line mid-frame.
        std::fs::write(&path, &text[..text.len() - 10]).expect("write");
        let loaded = load(&RealIo, &path).expect("torn tail tolerated");
        assert_eq!(loaded.specs.len(), 2);
        assert!(loaded.results.is_empty(), "the torn result re-runs");

        // The same damage on an interior line refuses with the line.
        let lines: Vec<&str> = text.lines().collect();
        let damaged = format!("{}\n{}\n{}\n", lines[0], &lines[1][..20], lines[2]);
        std::fs::write(&path, damaged).expect("write");
        match load(&RealIo, &path) {
            Err(ServeError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn foreign_headers_are_refused_and_missing_files_are_empty() {
        let path = tmp("header");
        assert!(load(&RealIo, &path).expect("missing file").specs.is_empty());
        std::fs::write(&path, "{\"kind\":\"header\",\"version\":2}\n").expect("write");
        assert!(matches!(load(&RealIo, &path), Err(ServeError::Mismatch(_))));
    }
}
