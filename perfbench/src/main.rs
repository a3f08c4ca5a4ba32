//! Same-host benchmark of the redsim workspace: two workloads (`sweep`,
//! `serve`), end-to-end metrics from an untraced run and per-layer
//! metrics from a separate traced run, with every output checked for
//! correctness.
//!
//! ```text
//! perfbench --workload <sweep|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints one run record (host, code,
//! workload context) and, as the last line, the result object:
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when any
//! correctness check fails and 2 on a usage error.

mod campaign;
mod host;
mod layers;
mod plan;
mod report;
mod serve;
mod stats;
mod sweep;

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use redsim_core::SimStats;
use redsim_util::Json;
use redsim_workloads::Workload;

use crate::layers::TraceSet;
use crate::report::{Report, END_TO_END, PER_LAYER};

/// Load-generator threads and engine/harness workers (the host's two
/// cores).
pub const THREADS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Latency samples a run collects at least, so the 95th percentile has
/// ten samples beyond it.
pub const MIN_SAMPLES: usize = 200;

/// What every workload run needs to know.
pub struct Ctx {
    /// The benchmark seed all inputs derive from.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Scratch directory inside the checkout, removed at exit.
    pub work: PathBuf,
}

/// The fan-out layer a workload measures through its own traced pass;
/// the other fan-outs, and the `campaign` shard runner, are measured by
/// probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Own {
    /// `bench`: the harness grid (`sweep`).
    Bench,
    /// `serve`: the engine under load (`serve`).
    Serve,
}

/// Every layer probe over `set`, except the fan-out `own` the workload
/// already measured. Returns the core replay's per-item column stats.
pub fn probe_layers(
    ctx: &Ctx,
    set: &TraceSet,
    report: &mut Report,
    own: Own,
) -> Result<Vec<[SimStats; 4]>, String> {
    let quick = own == Own::Serve;
    layers::isa(set, report);
    let rows = layers::core(set, ctx.seed, report);
    layers::structures(set, report);
    fs::create_dir_all(&ctx.work).map_err(|e| e.to_string())?;
    layers::util(&ctx.work, report);
    if own != Own::Bench {
        let (mut h, _) = sweep::warm_harness(&set.items, quick)?;
        let pass = sweep::grid(&mut h, &sweep::jobs_for(&set.items, quick));
        report.check(pass.errors.is_empty(), || {
            format!("bench probe jobs failed: {:?}", pass.errors)
        });
        report.check(rows.iter().flatten().eq(pass.stats.iter()), || {
            "bench probe grid differs from the core replay".to_owned()
        });
        pass.bench_metrics(report);
    }
    let mut workloads: Vec<Workload> = Vec::new();
    for &(w, _) in &set.items {
        if !workloads.contains(&w) {
            workloads.push(w);
        }
    }
    let spec = campaign::probe_spec(ctx.seed, workloads, quick);
    let p = campaign::pass(&spec, &ctx.work.join("campaign-probe"))?;
    campaign::check_pass(report, &spec, &p);
    p.layer_metrics(report);
    if own != Own::Serve {
        serve::probe(ctx, report)?;
    }
    Ok(rows)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_owned();
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed expects an unsigned integer".to_owned())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number".to_owned())?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <sweep|serve> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if !PathBuf::from("crates").is_dir() {
        eprintln!("perfbench: run from the repository root (no crates/ here)");
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        work: PathBuf::from(".perfbench-work"),
    };
    let _ = fs::remove_dir_all(&ctx.work);
    let mut report = Report::default();
    let outcome = match (args.workload.as_str(), args.trace) {
        ("sweep", false) => sweep::run(&ctx, &mut report),
        ("sweep", true) => sweep::traced(&ctx, &mut report),
        ("serve", false) => serve::run(&ctx, &mut report),
        ("serve", true) => serve::traced(&ctx, &mut report),
        (other, _) => {
            eprintln!("perfbench: unknown workload {other:?} (sweep or serve)");
            return ExitCode::from(2);
        }
    };
    let _ = fs::remove_dir_all(&ctx.work);
    if let Err(e) = outcome {
        report.failed += 1;
        report.attempted = report.attempted.max(1);
        report.check(false, || format!("workload aborted: {e}"));
    }
    if report.get("peak_rss_mb").is_none() {
        report.set("peak_rss_mb", host::peak_rss_mb());
    }
    let result = report.result(if args.trace { &PER_LAYER } else { &END_TO_END });
    let notes: Json = report
        .notes
        .iter()
        .fold(Json::obj(), |j, &(k, v)| j.field(k, v));
    let record = Json::obj()
        .field("workload", args.workload.as_str())
        .field("seed", args.seed)
        .field("seconds", args.seconds)
        .field("trace", args.trace)
        .field("threads", THREADS)
        .field("host", host::identity())
        .field("notes", notes)
        .field(
            "violations",
            report
                .violations
                .iter()
                .map(|v| Json::from(v.as_str()))
                .collect::<Json>(),
        );
    for v in &report.violations {
        eprintln!("perfbench: check failed: {v}");
    }
    println!("{}", Json::obj().field("run", record));
    println!("{result}");
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
