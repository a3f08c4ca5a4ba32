//! Hostile frames on restart: a checksum field that is not sixteen hex
//! digits — here a two-byte character straddling the field's end — is
//! a frame defect like any other. As the journal's last line it is a
//! torn tail and `Engine::open` recovers; as an interior line it is a
//! typed `Corrupt` naming the line. Neither may panic.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use redsim_core::ExecMode;
use redsim_serve::engine::{Engine, EngineOptions};
use redsim_serve::journal::{header_line, job_record};
use redsim_serve::spec::JobSpec;
use redsim_serve::ServeError;
use redsim_util::framed::frame_record;
use redsim_util::io::RealIo;
use redsim_workloads::Workload;

/// Fifteen hex digits, then `é` (two bytes) across byte 16 of the field.
const SPLIT_CHAR_FRAME: &str = "{\"crc\":\"000000000000000é\",\"rec\":{}}";

fn state_dir(tag: &str, journal: &str) -> PathBuf {
    let d = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("journal-frames-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("state dir");
    std::fs::write(journal_path(&d), journal).expect("seed journal");
    d
}

fn journal_path(dir: &Path) -> PathBuf {
    dir.join("jobs.progress.jsonl")
}

#[test]
fn a_split_character_checksum_is_a_torn_tail_at_the_end() {
    let header = header_line();
    let dir = state_dir("tail", &format!("{header}\n{SPLIT_CHAR_FRAME}\n"));
    let engine = Engine::open(Arc::new(RealIo), &dir, EngineOptions::default()).expect("torn tail");
    assert_eq!(
        engine.status().next_id,
        0,
        "the torn record was never acked"
    );
    engine.close().expect("close");
    assert_eq!(
        std::fs::read_to_string(journal_path(&dir)).expect("journal"),
        format!("{header}\n"),
        "open compacts the torn tail away"
    );
}

#[test]
fn a_split_character_checksum_is_corrupt_inside_the_journal() {
    let job = frame_record(&job_record(0, &JobSpec::new(Workload::Gzip, ExecMode::Sie)));
    let journal = format!("{}\n{SPLIT_CHAR_FRAME}\n{job}\n", header_line());
    let dir = state_dir("interior", &journal);
    match Engine::open(Arc::new(RealIo), &dir, EngineOptions::default()) {
        Err(ServeError::Corrupt { line, detail }) => {
            assert_eq!(line, 2);
            assert!(detail.contains("hex digits"), "{detail}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert_eq!(
        std::fs::read_to_string(journal_path(&dir)).expect("journal"),
        journal,
        "a refused journal is left as found"
    );
}
