//! The `sweep` workload: the `fig_recovery` grid (12 kernels × SIE,
//! DIE, DIE-IRB, DIE-2xALU at default sizing) run through
//! `Harness::try_sweep_with` on two threads, with the benchmark seed as
//! every kernel's input seed. Also the `bench` fan-out probe the other
//! workloads' traced runs use.

use std::cell::Cell;
use std::sync::Mutex;
use std::time::Instant;

use redsim_bench::{Harness, Job};
use redsim_core::SimStats;
use redsim_workloads::{Params, Workload};

use crate::layers::{self, grid_columns, recovery, timed, TraceSet};
use crate::report::Report;
use crate::stats::median;
use crate::{Ctx, MIN_SAMPLES, SETUPS, THREADS};

/// One grid pass: results in job order plus each job's host interval.
pub struct GridRun {
    /// Stats per job (default-valued where a job failed).
    pub stats: Vec<SimStats>,
    /// Jobs that failed, as `label: message`.
    pub errors: Vec<String>,
    /// Wall seconds of the pass.
    pub wall: f64,
    /// Per job: seconds from its worker picking it up to its result.
    pub job_s: Vec<f64>,
}

impl GridRun {
    /// Records the `bench` fan-out metrics of this pass.
    pub fn bench_metrics(&self, report: &mut Report) {
        let sum: f64 = self.job_s.iter().sum();
        let threads = THREADS as f64;
        report.set("bench.job_s_sum", sum);
        report.set(
            "bench.critical_path_s",
            self.job_s.iter().copied().fold(0.0, f64::max),
        );
        report.set("bench.parallel_efficiency", sum / (threads * self.wall));
        report.set("bench.residual_s", self.wall - sum / threads);
    }
}

thread_local! {
    /// When this worker thread last delivered a result.
    static LAST_DONE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Runs `jobs` on the harness's cached traces with [`THREADS`] workers.
/// A job's interval runs from its worker's previous completion (or the
/// pass start) to its own completion callback.
pub fn grid(h: &mut Harness, jobs: &[Job]) -> GridRun {
    let done: Mutex<Vec<(usize, f64)>> = Mutex::new(Vec::with_capacity(jobs.len()));
    let t0 = Instant::now();
    let (stats, errors) = h.try_sweep_with(jobs, THREADS, |i, _| {
        let now = Instant::now();
        let start = LAST_DONE.with(|c| c.replace(Some(now))).unwrap_or(t0);
        done.lock()
            .expect("completion log lock")
            .push((i, (now - start).as_secs_f64()));
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut job_s = vec![0.0; jobs.len()];
    for (i, s) in done.into_inner().expect("completion log lock") {
        job_s[i] = s;
    }
    GridRun {
        stats,
        errors: errors
            .iter()
            .map(|e| format!("{}: {}", e.label, e.message))
            .collect(),
        wall,
        job_s,
    }
}

/// The recovery grid over `items`, row-major (item × column).
pub fn jobs_for(items: &[(Workload, Params)], quick: bool) -> Vec<Job> {
    let mut jobs = Vec::new();
    for &(w, p) in items {
        let default = if quick {
            w.tiny_params()
        } else {
            w.default_params()
        };
        for (_, mode, cfg) in grid_columns() {
            let job = Job::new(w, mode, &cfg);
            jobs.push(if p.seed == default.seed {
                job
            } else {
                job.with_input_seed(p.seed)
            });
        }
    }
    jobs
}

/// A harness with every item's trace already cached (warm), so grid
/// passes time simulation and fan-out only.
pub fn warm_harness(
    items: &[(Workload, Params)],
    quick: bool,
) -> Result<(Harness, TraceSet), String> {
    let mut h = Harness::new(quick);
    let traces = jobs_for(items, quick)
        .iter()
        .step_by(4)
        .map(|j| h.try_trace_for(j.workload, j.input_seed))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok((
        h,
        TraceSet {
            items: items.to_vec(),
            traces,
        },
    ))
}

fn items(seed: u64) -> Vec<(Workload, Params)> {
    Workload::ALL
        .iter()
        .map(|&w| {
            let mut p = w.default_params();
            p.seed = seed;
            (w, p)
        })
        .collect()
}

/// Checks one pass: no failed job, every job's exact invariants, and
/// identical stats to the reference pass when one is given.
fn check_pass(report: &mut Report, run: &GridRun, set: &TraceSet, reference: Option<&[SimStats]>) {
    report.attempted += run.stats.len() as u64;
    report.failed += run.errors.len() as u64;
    for e in &run.errors {
        report.check(false, || format!("grid job failed: {e}"));
    }
    for (i, s) in run.stats.iter().enumerate() {
        let (w, _) = set.items[i / 4];
        layers::check_job(
            report,
            &format!("grid {w} column {}", i % 4),
            s,
            set.traces[i / 4].len(),
        );
    }
    if let Some(r) = reference {
        report.check(r == run.stats.as_slice(), || {
            "grid stats differ between passes of the same inputs".to_owned()
        });
    }
}

/// The untraced run: set-up several times, then whole grid passes until
/// the time is up and the latency tail has enough samples.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let items = items(ctx.seed);
    let mut setups = Vec::new();
    let (r, s) = timed(|| warm_harness(&items, false));
    setups.push(s);
    let (mut h, set) = r?;
    // Further set-ups only time the work: each harness is dropped (and
    // the one in use kept) so peak memory stays that of one set-up.
    for _ in 1..SETUPS {
        let (r, s) = timed(|| warm_harness(&items, false).map(drop));
        r?;
        setups.push(s);
    }
    let jobs = jobs_for(&items, false);
    let t0 = Instant::now();
    let (mut rates, mut job_ms) = (Vec::new(), Vec::new());
    let mut reference: Option<Vec<SimStats>> = None;
    while t0.elapsed().as_secs_f64() < ctx.seconds || job_ms.len() < MIN_SAMPLES {
        let (cpu0, steal0) = crate::host::cpu_and_steal_s();
        let pass = grid(&mut h, &jobs);
        let (cpu1, steal1) = crate::host::cpu_and_steal_s();
        check_pass(report, &pass, &set, reference.as_deref());
        rates.push((jobs.len() as f64, pass.wall));
        eprintln!(
            "sweep pass {}: {:.3} s wall, {:.2} s cpu, {:.2} s stolen",
            rates.len(),
            pass.wall,
            cpu1 - cpu0,
            steal1 - steal0
        );
        job_ms.extend(pass.job_s.iter().map(|s| s * 1e3));
        reference.get_or_insert(pass.stats);
    }
    let rows: Vec<[SimStats; 4]> = reference
        .expect("at least one pass")
        .chunks_exact(4)
        .map(|c| [c[0].clone(), c[1].clone(), c[2].clone(), c[3].clone()])
        .collect();
    let (alu, all) = recovery(&rows);
    report.note("alu_recovery_pct", alu);
    report.note("overall_recovery_pct", all);
    report.set("setup_s", median(&setups).unwrap_or(0.0));
    report.rates(&rates);
    report.latencies(&job_ms);
    Ok(())
}

/// The traced run: one untraced and one traced grid pass (the ratio is
/// the tracing overhead), the `bench` fan-out metrics of the traced
/// pass, then every layer probe over the sweep's traces.
pub fn traced(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let items = items(ctx.seed);
    let (mut h, set) = warm_harness(&items, false)?;
    let jobs = jobs_for(&items, false);
    let t0 = Instant::now();
    let (plain, _) = h.try_sweep(&jobs, THREADS);
    let untraced_wall = t0.elapsed().as_secs_f64();
    let pass = grid(&mut h, &jobs);
    check_pass(report, &pass, &set, Some(&plain));
    report.set("trace_overhead", pass.wall / untraced_wall - 1.0);
    pass.bench_metrics(report);
    let rows = crate::probe_layers(ctx, &set, report, crate::Own::Bench)?;
    report.check(rows.iter().flatten().eq(pass.stats.iter()), || {
        "single-thread core replay differs from the grid's stats".to_owned()
    });
    Ok(())
}
