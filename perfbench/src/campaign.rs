//! The `campaign` layer probe: a one-scenario `fig_coverage`-style
//! fault campaign run through `run_campaign` with real IO, the default
//! `critical` fsync policy and two threads, into a fresh directory. The
//! benchmark seed picks the fault seeds.
//!
//! Per-shard timing comes from the program's own IO seam: the progress
//! manifest is opened through an [`Io`] that stamps every appended
//! record with the appending worker and the time.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use redsim_campaign::{
    run_campaign, CampaignOptions, CampaignOutcome, CampaignReport, CampaignSpec, Scenario,
};
use redsim_core::{ExecMode, FaultConfig, ForwardingPolicy};
use redsim_util::io::{Io, IoFile, RealIo};
use redsim_util::rng::SplitMix64;
use redsim_util::Json;
use redsim_workloads::Workload;

use crate::layers::timed;
use crate::report::Report;
use crate::THREADS;

/// A one-scenario campaign over `workloads`: `fig_coverage`'s
/// `die-irb/fu` (functional-unit faults at 2e-4, fault seed drawn from
/// `seed`), the `campaign` layer probe of every traced run.
pub fn probe_spec(seed: u64, workloads: Vec<Workload>, quick: bool) -> CampaignSpec {
    let faults = FaultConfig {
        fu_rate: 2e-4,
        seed: SplitMix64::new(seed).next_u64() >> 32,
        ..FaultConfig::none()
    };
    CampaignSpec {
        scenarios: vec![Scenario {
            name: "die-irb/fu".to_owned(),
            mode: ExecMode::DieIrb,
            faults,
            forwarding: ForwardingPolicy::PrimaryToBoth,
        }],
        workloads,
        seeds: 1,
        quick,
        watchdog: Some(50_000_000),
        metrics_window: Some(10_000),
    }
}

/// Record-append stamps: when the manifest was opened for appending,
/// and which worker appended each record when.
#[derive(Debug, Default)]
struct Stamps {
    opened: Option<Instant>,
    appends: Vec<(ThreadId, Instant)>,
}

/// [`RealIo`] that stamps progress-manifest appends.
#[derive(Debug, Default)]
struct StampingIo {
    stamps: Arc<Mutex<Stamps>>,
}

struct StampingFile {
    inner: Box<dyn IoFile>,
    stamps: Arc<Mutex<Stamps>>,
}

impl IoFile for StampingFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        if buf[..n].ends_with(b"\n") {
            let mut s = self.stamps.lock().expect("stamp lock");
            s.appends
                .push((std::thread::current().id(), Instant::now()));
        }
        Ok(n)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }
}

impl Io for StampingIo {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        RealIo.read_to_string(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        RealIo.create_dir_all(path)
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn IoFile>> {
        RealIo.create(path)
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn IoFile>> {
        let inner = RealIo.open_append(path)?;
        self.stamps.lock().expect("stamp lock").opened = Some(Instant::now());
        Ok(Box::new(StampingFile {
            inner,
            stamps: Arc::clone(&self.stamps),
        }))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealIo.rename(from, to)
    }
    fn exists(&self, path: &Path) -> bool {
        RealIo.exists(path)
    }
}

/// One completed campaign pass.
pub struct Pass {
    /// The completed campaign.
    pub report: CampaignReport,
    /// Wall seconds of `run_campaign`.
    pub wall: f64,
    /// Per shard: seconds from its worker's previous record (or the
    /// manifest opening) to its own record.
    pub shard_s: Vec<f64>,
}

impl Pass {
    /// Records the `campaign` fan-out metrics of this pass.
    pub fn layer_metrics(&self, report: &mut Report) {
        let sum: f64 = self.shard_s.iter().sum();
        let threads = THREADS as f64;
        report.set("campaign.shard_s_sum", sum);
        report.set(
            "campaign.critical_path_s",
            self.shard_s.iter().copied().fold(0.0, f64::max),
        );
        report.set("campaign.parallel_efficiency", sum / (threads * self.wall));
        report.set("campaign.residual_s", self.wall - sum / threads);
        // Successful retries leave no trace in the records; failed
        // shards (a correctness violation here) carry their attempts.
        let retries: u64 = self
            .report
            .records
            .iter()
            .filter_map(|line| Json::parse(line).ok()?.get("attempts")?.as_u64())
            .map(|a| a.saturating_sub(1))
            .sum();
        report.set("campaign.retries", retries as f64);
        report.set("campaign.quarantined", self.report.quarantined.len() as f64);
    }
}

/// Runs `spec` once into a fresh `dir`, stamping manifest appends.
pub fn pass(spec: &CampaignSpec, dir: &Path) -> Result<Pass, String> {
    let _ = fs::remove_dir_all(dir);
    let base: PathBuf = dir.join("coverage");
    let mut opts = CampaignOptions::new(
        base.with_extension("progress.jsonl"),
        base.with_extension("report.json"),
    );
    opts.threads = THREADS;
    let stamping = Arc::new(StampingIo::default());
    opts.io = Arc::clone(&stamping) as Arc<dyn Io>;
    let (outcome, wall) = timed(|| run_campaign(spec, &opts));
    let report = match outcome.map_err(|e| e.to_string())? {
        CampaignOutcome::Complete(r) => r,
        CampaignOutcome::Interrupted { completed, total } => {
            return Err(format!(
                "campaign stopped after {completed} of {total} shards"
            ))
        }
    };
    let stamps = std::mem::take(&mut *stamping.stamps.lock().expect("stamp lock"));
    let mut shard_s = Vec::new();
    if let Some(opened) = stamps.opened {
        let mut last: Vec<(ThreadId, Instant)> = Vec::new();
        for (tid, at) in stamps.appends {
            let prev = match last.iter_mut().find(|(t, _)| *t == tid) {
                Some(slot) => std::mem::replace(&mut slot.1, at),
                None => {
                    last.push((tid, at));
                    opened
                }
            };
            shard_s.push((at - prev).as_secs_f64());
        }
    }
    let _ = fs::remove_dir_all(dir);
    Ok(Pass {
        report,
        wall,
        shard_s,
    })
}

/// Checks a pass: complete, nothing failed or quarantined, and every
/// shard recorded and stamped.
pub fn check_pass(report: &mut Report, spec: &CampaignSpec, p: &Pass) {
    let shards = spec.shards().len();
    report.attempted += shards as u64;
    report.failed += p.report.failed.len() as u64;
    report.check(p.report.failed.is_empty(), || {
        format!("{} campaign shards failed", p.report.failed.len())
    });
    report.check(p.report.quarantined.is_empty(), || {
        format!("{} campaign shards quarantined", p.report.quarantined.len())
    });
    report.check(p.report.records.len() == shards, || {
        format!(
            "campaign recorded {} of {shards} shards",
            p.report.records.len()
        )
    });
    report.check(p.shard_s.len() == shards, || {
        format!("{} record appends for {shards} shards", p.shard_s.len())
    });
}
