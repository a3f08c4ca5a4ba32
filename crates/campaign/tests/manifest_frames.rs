//! Hostile frames on resume: a checksum field that is not sixteen hex
//! digits — here a two-byte character straddling the field's end — is
//! a frame defect like any other. As the manifest's last line it is a
//! torn tail and resume completes; as an interior line it is a typed
//! `Corrupt` naming the line. Neither may panic.

use std::path::PathBuf;

use redsim_campaign::{
    run_campaign, CampaignError, CampaignOptions, CampaignOutcome, CampaignSpec, Scenario,
};
use redsim_core::{ExecMode, FaultConfig, ForwardingPolicy};
use redsim_workloads::Workload;

/// Fifteen hex digits, then `é` (two bytes) across byte 16 of the field.
const SPLIT_CHAR_FRAME: &str = "{\"crc\":\"000000000000000é\",\"rec\":{}}";

fn spec() -> CampaignSpec {
    CampaignSpec {
        scenarios: vec![Scenario {
            name: "die/fu".to_owned(),
            mode: ExecMode::Die,
            faults: FaultConfig {
                fu_rate: 2e-4,
                seed: 11,
                ..FaultConfig::none()
            },
            forwarding: ForwardingPolicy::PrimaryToBoth,
        }],
        workloads: vec![Workload::Gzip],
        seeds: 2,
        quick: true,
        watchdog: Some(5_000_000),
        metrics_window: None,
    }
}

fn opts(dir: &str) -> CampaignOptions {
    let base = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("frames-{}-{dir}", std::process::id()));
    CampaignOptions::new(base.join("c.progress.jsonl"), base.join("c.report.json"))
}

fn report(outcome: CampaignOutcome) -> String {
    match outcome {
        CampaignOutcome::Complete(r) => r.report,
        CampaignOutcome::Interrupted { completed, total } => {
            panic!("expected completion, interrupted at {completed}/{total}")
        }
    }
}

#[test]
fn a_split_character_checksum_is_a_torn_tail_at_the_end() {
    let spec = spec();
    let mut o = opts("tail");
    let reference = report(run_campaign(&spec, &o).expect("clean run"));
    let clean = std::fs::read_to_string(&o.progress_path).expect("manifest");
    std::fs::write(&o.progress_path, format!("{clean}{SPLIT_CHAR_FRAME}\n")).expect("damage");

    o.resume = true;
    assert_eq!(
        report(run_campaign(&spec, &o).expect("torn tail")),
        reference
    );
    assert_eq!(
        std::fs::read_to_string(&o.progress_path).expect("manifest"),
        clean,
        "resume compacts the torn tail away"
    );
}

#[test]
fn a_split_character_checksum_is_corrupt_inside_the_manifest() {
    let spec = spec();
    let mut o = opts("interior");
    report(run_campaign(&spec, &o).expect("clean run"));
    let clean = std::fs::read_to_string(&o.progress_path).expect("manifest");
    let (header, records) = clean.split_once('\n').expect("header line");
    std::fs::write(
        &o.progress_path,
        format!("{header}\n{SPLIT_CHAR_FRAME}\n{records}"),
    )
    .expect("damage");

    o.resume = true;
    match run_campaign(&spec, &o) {
        Err(CampaignError::Corrupt { line, detail }) => {
            assert_eq!(line, 2);
            assert!(detail.contains("hex digits"), "{detail}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}
