//! Chaos-recovery properties of the campaign runner: transient host
//! faults are absorbed, retry is deterministic, quarantine degrades
//! gracefully, and at-rest manifest damage is a typed refusal.
//!
//! The kill-at-every-write-boundary sweep lives in the workspace-level
//! `tests/chaos_recovery.rs`; this file covers the per-property pieces
//! the sweep builds on.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use redsim_campaign::{
    hang_trace_path, run_campaign, CampaignError, CampaignOptions, CampaignOutcome, CampaignReport,
    CampaignSpec, FlakePlan, HangDumpOptions, Scenario,
};
use redsim_core::{ExecMode, FaultConfig, ForwardingPolicy};
use redsim_util::io::{ChaosConfig, ChaosIo, RealIo};
use redsim_util::Json;
use redsim_workloads::Workload;

fn small_spec() -> CampaignSpec {
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

fn opts(dir: &str, threads: usize) -> CampaignOptions {
    let base = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("chaos-{}-{dir}", std::process::id()));
    let mut o = CampaignOptions::new(base.join("c.progress.jsonl"), base.join("c.report.json"));
    o.threads = threads;
    o
}

fn complete(outcome: CampaignOutcome) -> CampaignReport {
    match outcome {
        CampaignOutcome::Complete(r) => r,
        CampaignOutcome::Interrupted { completed, total } => {
            panic!("expected completion, interrupted at {completed}/{total}")
        }
    }
}

fn reference_report(spec: &CampaignSpec) -> String {
    let o = opts("reference", 2);
    complete(run_campaign(spec, &o).expect("clean run")).report
}

#[test]
fn transient_host_faults_are_absorbed_without_a_retry() {
    // EINTR and short writes at a heavy rate: the retrying write loop
    // must absorb every one of them — same report, first try, no
    // resume needed.
    let spec = small_spec();
    let reference = reference_report(&spec);

    let mut o = opts("transient", 2);
    o.io = Arc::new(ChaosIo::new(
        Arc::new(RealIo),
        ChaosConfig::transient_only(0xfeed, 0.4),
    ));
    let report = complete(run_campaign(&spec, &o).expect("transient faults absorbed"));
    assert_eq!(report.report, reference);
    assert_eq!(
        std::fs::read_to_string(&o.report_path).expect("report on disk"),
        reference
    );
}

#[test]
fn interior_manifest_corruption_is_a_typed_refusal_naming_the_line() {
    let spec = small_spec();
    let mut o = opts("corrupt", 1);
    complete(run_campaign(&spec, &o).expect("clean run"));

    // Flip a payload byte on the *first* record (line 2, 1-based) —
    // interior, because the second record follows it.
    let text = std::fs::read_to_string(&o.progress_path).expect("manifest");
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    assert_eq!(lines.len(), 3, "header plus two records");
    lines[1] = lines[1].replace("\"ok\":true", "\"ok\":trve");
    std::fs::write(&o.progress_path, lines.join("\n") + "\n").expect("damage the manifest");

    o.resume = true;
    match run_campaign(&spec, &o) {
        Err(CampaignError::Corrupt { line, detail }) => {
            assert_eq!(line, 2, "the damaged line is named");
            assert!(detail.contains("checksum mismatch"), "{detail}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn flaky_shards_retry_to_byte_identical_reports_at_any_thread_count() {
    // Shard 0 fails twice (< the 3-attempt budget) with an injected
    // transient fault. Success records carry no attempt count, so the
    // flaky run's report matches the clean one byte for byte — at one
    // thread and at four.
    let spec = small_spec();
    let reference = reference_report(&spec);
    let policy = redsim_campaign::RetryPolicy {
        backoff: Duration::from_millis(1),
        ..Default::default()
    };

    for threads in [1, 4] {
        let mut o = opts(&format!("flaky-t{threads}"), threads);
        o.retry = policy.clone();
        o.flake = Some(FlakePlan {
            shards: vec![0],
            failures: 2,
        });
        let report = complete(run_campaign(&spec, &o).expect("retries succeed"));
        assert_eq!(
            report.report, reference,
            "retry schedule leaks into the report at {threads} threads"
        );
        assert!(report.failed.is_empty());
    }
}

#[test]
fn an_exhausted_retry_budget_quarantines_the_shard_deterministically() {
    // Shard 1 fails every attempt: the supervisor quarantines it after
    // the 3-attempt budget, the other shard completes, and the verdict
    // (kind, attempts, quarantined flag) is recorded in the manifest.
    let spec = small_spec();
    let run = |threads: usize, dir: &str| {
        let mut o = opts(dir, threads);
        o.retry.backoff = Duration::from_millis(1);
        o.flake = Some(FlakePlan {
            shards: vec![1],
            failures: u32::MAX,
        });
        complete(run_campaign(&spec, &o).expect("campaign degrades, not aborts"))
    };
    let report = run(1, "quarantine");

    assert_eq!(report.failed.len(), 1);
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(report.quarantined[0].index, 1);
    assert_eq!(
        report.quarantined[0].kind,
        redsim_campaign::JobErrorKind::Injected
    );
    let rec = Json::parse(&report.records[1]).expect("record parses");
    assert_eq!(rec.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(rec.get("ekind").and_then(Json::as_str), Some("injected"));
    assert_eq!(rec.get("attempts").and_then(Json::as_u64), Some(3));
    assert_eq!(rec.get("quarantined").and_then(Json::as_bool), Some(true));
    let summary = Json::parse(&report.report).expect("report parses");
    assert_eq!(
        summary.get("quarantined").and_then(Json::as_u64),
        Some(1),
        "the report counts quarantined shards"
    );

    // The verdict is thread-count invariant.
    let again = run(4, "quarantine4");
    assert_eq!(again.report, report.report);
}

#[test]
fn an_expired_host_deadline_quarantines_with_the_deadline_kind() {
    // A zero host deadline raises every attempt's cancellation flag
    // before the simulator starts, so cancellation lands at the first
    // poll (cycle 64) — fully deterministic, no thread timing anywhere.
    let spec = small_spec();
    let run = |threads: usize, dir: &str| {
        let mut o = opts(dir, threads);
        o.retry.backoff = Duration::from_millis(1);
        o.host_deadline = Some(Duration::ZERO);
        complete(run_campaign(&spec, &o).expect("deadline quarantines, not aborts"))
    };
    let report = run(1, "deadline");

    assert_eq!(report.quarantined.len(), 2, "every shard hit the deadline");
    for rec in &report.records {
        let j = Json::parse(rec).expect("record parses");
        assert_eq!(j.get("ekind").and_then(Json::as_str), Some("deadline"));
        assert_eq!(j.get("quarantined").and_then(Json::as_bool), Some(true));
        assert!(
            j.get("error")
                .and_then(Json::as_str)
                .is_some_and(|e| e.contains("host wall-clock deadline")),
            "deadline message recorded: {rec}"
        );
    }
    let again = run(4, "deadline4");
    assert_eq!(again.report, report.report);
}

#[test]
fn a_kill_during_the_hang_sidecar_write_leaves_no_sidecar_until_resume() {
    // DIE with fu_rate 1.0 livelocks; the watchdog contains the shard
    // and the campaign replays it into a flight-recorder sidecar.
    let spec = CampaignSpec {
        scenarios: vec![Scenario {
            name: "livelock".to_owned(),
            mode: ExecMode::Die,
            faults: FaultConfig {
                fu_rate: 1.0,
                seed: 3,
                ..FaultConfig::none()
            },
            forwarding: ForwardingPolicy::PrimaryToBoth,
        }],
        workloads: vec![Workload::Gzip],
        seeds: 1,
        quick: true,
        watchdog: Some(20_000),
        metrics_window: None,
    };
    let with_dumps = |o: &mut CampaignOptions| {
        o.hang_dumps = Some(HangDumpOptions {
            base: o.report_path.clone(),
            capacity: 4096,
        });
    };
    // Count the IO operations with and without the sidecar: the
    // sidecar's own operations (create temp, write, sync, rename) come
    // last, so the first write after the plain run's count is its data.
    let ops = |dir: &str, dumps: bool| {
        let probe = ChaosIo::new(Arc::new(RealIo), ChaosConfig::quiet(0));
        let mut o = opts(dir, 1);
        o.io = Arc::new(probe.clone());
        if dumps {
            with_dumps(&mut o);
        }
        complete(run_campaign(&spec, &o).expect("quiet chaos is a clean run"));
        probe.ops()
    };
    let plain = ops("sidecar-plain", false);
    assert!(
        ops("sidecar-dumps", true) > plain + 1,
        "the sidecar goes through the Io seam"
    );

    let mut o = opts("sidecar-kill", 1);
    with_dumps(&mut o);
    o.io = Arc::new(ChaosIo::new(
        Arc::new(RealIo),
        ChaosConfig {
            kill_after_ops: Some(plain + 1),
            ..ChaosConfig::quiet(0)
        },
    ));
    let killed = complete(run_campaign(&spec, &o).expect("a sidecar failure never fails the run"));
    let sidecar = hang_trace_path(&o.report_path, 0);
    assert!(killed.hang_traces.is_empty());
    assert!(
        !sidecar.exists(),
        "a torn sidecar never lands at its final path"
    );

    let mut o = opts("sidecar-kill", 1);
    with_dumps(&mut o);
    o.resume = true;
    let resumed = complete(run_campaign(&spec, &o).expect("resume"));
    assert_eq!(resumed.hang_traces, vec![sidecar.clone()]);
    let text = std::fs::read_to_string(&sidecar).expect("sidecar on disk");
    let parsed = Json::parse(text.trim_end()).expect("the resumed sidecar is complete JSON");
    assert!(parsed
        .get("traceEvents")
        .and_then(Json::items)
        .is_some_and(|events| !events.is_empty()));
}
