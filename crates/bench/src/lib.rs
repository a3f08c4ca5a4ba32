#![warn(missing_docs)]

//! # redsim-bench
//!
//! The experiment harness: every table and figure of the DIE-IRB paper
//! has a regeneration binary in `src/bin/` built on the helpers here.
//!
//! | Binary | Regenerates |
//! |--------|-------------|
//! | `fig2`             | Figure 2 — % IPC loss vs SIE for the 8 DIE resource configs |
//! | `table_config`     | the §4 base-machine configuration table |
//! | `fig_recovery`     | the headline SIE / DIE / DIE-IRB / DIE-2xALU comparison |
//! | `fig_hitrate`      | IRB PC-hit and reuse-test pass rates per workload |
//! | `fig_size_sweep`   | DIE-IRB sensitivity to IRB capacity |
//! | `fig_ports`        | DIE-IRB sensitivity to IRB port provisioning |
//! | `fig_conflict`     | conflict-miss reduction (victim buffer / associativity) |
//! | `fig_faults`       | fault-injection detection coverage (§3.4 scenarios) |
//! | `fig_name_vs_value`| value-based vs name-based reuse test |
//! | `fig_sie_irb`      | IRB on SIE vs IRB on DIE (why DIE benefits more) |
//! | `fig_priority`     | scheduling-vs-reuse ablation of DIE-IRB's gain |
//! | `fig_cluster`      | the clustered alternative of §3 vs DIE-IRB vs SIE-2xALU |
//! | `fig_scheduler`    | §3.3's data-capture vs non-data-capture reuse tests |
//! | `fig_fidelity`     | wrong-path fetch + store-to-load forwarding sensitivity |
//!
//! All binaries share one command line (see [`Cli`]):
//!
//! * `--quick` (or `REDSIM_QUICK=1`) — run the tiny workload instances;
//! * `--json` — emit the result table as a JSON object instead of text;
//! * `--threads N` — fan the simulation grid across `N` worker threads
//!   (default: all available cores). Every simulation is single-threaded
//!   and deterministic, so the results are identical for any `N`.
//!
//! The binaries build their experiment grid as a list of [`Job`]s and
//! hand it to [`Harness::try_sweep`], which materializes each workload's
//! committed trace once (shared as `Arc<[DynInst]>`) and runs the grid
//! in parallel on the shared [`pool`] — the same pool, attempt path
//! ([`run_job_isolated`]) and simulator builder ([`Job::simulator`])
//! the fault-campaign shards run through.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use redsim_core::{
    ExecMode, FaultConfig, Instrumentation, MachineConfig, MetricsCollector, NullTracer, SimStats,
    Simulator, SliceSource, StallSummary, Throughput, WindowSample,
};
use redsim_isa::trace::DynInst;
use redsim_util::Json;
use redsim_workloads::{Params, Workload, DEFAULT_TRACE_BUDGET};

pub mod diff;

/// Shared command line of the figure binaries.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Run tiny workload instances (`--quick` or `REDSIM_QUICK=1`).
    pub quick: bool,
    /// Emit JSON instead of the aligned text table (`--json`).
    pub json: bool,
    /// Worker threads for [`Harness::try_sweep`] (`--threads N`).
    pub threads: usize,
    /// Replications across independent seeds (`--seeds N`, default 1).
    /// Figure binaries that support it report mean ± stddev columns.
    pub seeds: u32,
    /// Windowed-metrics sampling period in simulated cycles
    /// (`--metrics-window N`), for the binaries that forward it into
    /// [`Job::with_metrics_window`]. `None` when the flag is absent —
    /// each binary picks its own default. Zero is rejected at the front
    /// door: a zero-cycle window reaches the sampler as a degenerate
    /// tiling, never a useful series.
    pub metrics_window: Option<u64>,
    args: Vec<String>,
}

/// A rejected shared-CLI argument. The binaries print the message and
/// exit 2 — the same typed-error path `FaultConfig::validate` feeds —
/// instead of silently substituting a default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--threads` needs a positive integer (0 used to be clamped to 1
    /// deep inside the sweep; it is a usage error and is rejected at
    /// the front door).
    InvalidThreads(String),
    /// `--seeds` needs a positive integer.
    InvalidSeeds(String),
    /// `--metrics-window` needs a positive cycle count (0 used to leak
    /// through as a zero-cycle window — a degenerate tiling the sampler
    /// should never see).
    InvalidMetricsWindow(String),
    /// A value flag (`--threads`, `--seeds`, `--metrics-window`) was
    /// the last argument, with no value after it.
    MissingValue(&'static str),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::InvalidThreads(v) => {
                write!(f, "--threads expects a positive integer, got {v:?}")
            }
            CliError::InvalidSeeds(v) => {
                write!(f, "--seeds expects a positive integer, got {v:?}")
            }
            CliError::InvalidMetricsWindow(v) => {
                write!(
                    f,
                    "--metrics-window expects a positive cycle count, got {v:?}"
                )
            }
            CliError::MissingValue(flag) => write!(f, "{flag} expects a value"),
        }
    }
}

impl std::error::Error for CliError {}

/// Truthiness of an environment flag: unset, empty, `0` and `false`
/// (ASCII case-insensitive) are off; anything else is on.
/// `REDSIM_QUICK=0` must mean *off* — the old `var_os(..).is_some()`
/// check got this wrong. This is the workspace's only environment
/// truthiness check (audited when the bug was fixed).
fn env_flag(name: &str) -> bool {
    env_value_enabled(std::env::var_os(name).as_deref())
}

/// The pure decision behind [`env_flag`], split out so tests can cover
/// it without racing on process-global environment state.
fn env_value_enabled(value: Option<&std::ffi::OsStr>) -> bool {
    let Some(v) = value else { return false };
    let s = v.to_string_lossy();
    !(s.is_empty() || s == "0" || s.eq_ignore_ascii_case("false"))
}

/// The argument after the first `name`: `None` when the flag is absent,
/// [`CliError::MissingValue`] when it is the last argument.
fn value_after<'a>(args: &'a [String], name: &'static str) -> Result<Option<&'a str>, CliError> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or(CliError::MissingValue(name)),
    }
}

/// `v` as a number above zero, if it is one.
fn positive<T: std::str::FromStr + PartialOrd + Default>(v: &str) -> Option<T> {
    v.parse().ok().filter(|n| *n > T::default())
}

impl Cli {
    /// Parses the process arguments; invalid values print the
    /// [`CliError`] and exit with code 2.
    #[must_use]
    pub fn parse() -> Self {
        Self::try_from_vec(std::env::args().skip(1).collect()).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Parses an explicit argument vector (for tests).
    ///
    /// # Panics
    ///
    /// Panics on arguments [`Cli::try_from_vec`] rejects.
    #[must_use]
    pub fn from_vec(args: Vec<String>) -> Self {
        Self::try_from_vec(args).expect("valid shared CLI arguments")
    }

    /// Parses an explicit argument vector, rejecting invalid values
    /// with a typed error instead of substituting defaults.
    ///
    /// # Errors
    ///
    /// [`CliError`] when `--threads`, `--seeds` or `--metrics-window`
    /// is zero, not an integer, or missing its value.
    pub fn try_from_vec(args: Vec<String>) -> Result<Self, CliError> {
        let quick = args.iter().any(|a| a == "--quick") || env_flag("REDSIM_QUICK");
        let json = args.iter().any(|a| a == "--json");
        let threads = match value_after(&args, "--threads")? {
            Some(v) => positive(v).ok_or_else(|| CliError::InvalidThreads(v.to_owned()))?,
            None => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        };
        let seeds = match value_after(&args, "--seeds")? {
            Some(v) => positive(v).ok_or_else(|| CliError::InvalidSeeds(v.to_owned()))?,
            None => 1,
        };
        let metrics_window = match value_after(&args, "--metrics-window")? {
            Some(v) => {
                Some(positive(v).ok_or_else(|| CliError::InvalidMetricsWindow(v.to_owned()))?)
            }
            None => None,
        };
        Ok(Cli {
            quick,
            json,
            threads,
            seeds,
            metrics_window,
            args,
        })
    }

    /// Whether a bare flag (e.g. `--verbose`) is present.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The value following a `--key value` pair, if present.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&str> {
        self.args
            .windows(2)
            .find(|w| w[0] == name)
            .map(|w| w[1].as_str())
    }
}

/// One cell of the experiment grid: a workload run under a mode and
/// machine configuration, optionally with fault injection.
#[derive(Debug, Clone)]
pub struct Job {
    /// The workload whose committed trace to replay.
    pub workload: Workload,
    /// Execution mode (SIE / DIE / DIE-IRB / ...).
    pub mode: ExecMode,
    /// Machine configuration.
    pub config: MachineConfig,
    /// Transient-fault injection, if any.
    pub faults: Option<FaultConfig>,
    /// Watchdog deadline in simulated cycles
    /// ([`Simulator::with_watchdog`]); a job that reaches it comes back
    /// with `watchdog_fired` set instead of running forever.
    pub watchdog: Option<u64>,
    /// Workload input seed override (replication across `--seeds`);
    /// `None` uses the workload's default parameters.
    pub input_seed: Option<u64>,
    /// Windowed-metrics collection: `Some(n)` samples the time series
    /// every `n` simulated cycles and returns the windows alongside the
    /// stats (surfaced through the [`Harness::try_sweep_with`]
    /// callback). `None` — the default — runs metrics-free.
    pub metrics_window: Option<u64>,
    /// Host-side cancellation flag ([`Simulator::with_cancel`]): a
    /// supervisor raising it aborts the run with a
    /// [`JobErrorKind::Deadline`] failure. `None` — the default — runs
    /// uncancellable.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Reuse attribution ([`Simulator::with_attribution`]): when set
    /// the stats carry the opcode-class × PC × loop breakdown of every
    /// IRB event. Off by default (byte-identical stats when off).
    pub attribution: bool,
}

impl Job {
    /// Creates a fault-free job.
    #[must_use]
    pub fn new(workload: Workload, mode: ExecMode, config: &MachineConfig) -> Self {
        Job {
            workload,
            mode,
            config: config.clone(),
            faults: None,
            watchdog: None,
            input_seed: None,
            metrics_window: None,
            cancel: None,
            attribution: false,
        }
    }

    /// Adds fault injection to the job.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Sets a watchdog deadline in simulated cycles.
    #[must_use]
    pub fn with_watchdog(mut self, max_cycles: u64) -> Self {
        self.watchdog = Some(max_cycles);
        self
    }

    /// Overrides the workload's input-generation seed.
    #[must_use]
    pub fn with_input_seed(mut self, seed: u64) -> Self {
        self.input_seed = Some(seed);
        self
    }

    /// Enables windowed-metrics collection every `window_cycles`
    /// simulated cycles.
    #[must_use]
    pub fn with_metrics_window(mut self, window_cycles: u64) -> Self {
        self.metrics_window = Some(window_cycles);
        self
    }

    /// Attaches a host-side cancellation flag; a supervisor raising it
    /// mid-run turns the job into a [`JobErrorKind::Deadline`] failure.
    #[must_use]
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Enables reuse attribution for the run.
    #[must_use]
    pub fn with_attribution(mut self) -> Self {
        self.attribution = true;
        self
    }

    /// The simulator this job runs on: the only place a job's faults,
    /// watchdog, cancel flag and attribution reach a [`Simulator`].
    /// Every run of a job — a sweep cell, a campaign shard attempt, a
    /// hang replay — starts here.
    ///
    /// # Errors
    ///
    /// A [`JobErrorKind::Sim`] failure when the fault configuration is
    /// invalid.
    ///
    /// # Panics
    ///
    /// Panics if [`Job::config`] is invalid ([`Simulator::new`]).
    pub fn simulator(&self) -> Result<Simulator, JobFailure> {
        let mut sim = Simulator::new(self.config.clone(), self.mode);
        if let Some(fc) = self.faults {
            sim = sim.try_with_faults(fc).map_err(|e| {
                JobFailure::new(
                    JobErrorKind::Sim,
                    format!("invalid fault configuration: {e}"),
                )
            })?;
        }
        if let Some(w) = self.watchdog {
            sim = sim.with_watchdog(w);
        }
        if let Some(c) = &self.cancel {
            sim = sim.with_cancel(Arc::clone(c));
        }
        if self.attribution {
            sim = sim.with_attribution();
        }
        Ok(sim)
    }

    /// A short human-readable label (error reports, manifests).
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}/{:?}", self.workload.name(), self.mode)
    }
}

/// How a sweep job died. The split drives the campaign supervisor's
/// retry decision: *transient* kinds (a host-side effect that can
/// plausibly differ on a re-run) are retried with backoff; *persistent*
/// kinds (a property of the job itself — the same inputs will fail the
/// same way) fail immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobErrorKind {
    /// The timing simulation returned a [`redsim_core::SimError`]
    /// (deadlock, emulation fault). Deterministic, so persistent.
    Sim,
    /// The workload trace could not be materialized (assembly or
    /// functional-emulation failure). Deterministic, so persistent.
    Trace,
    /// The job panicked (caught by the sweep's `catch_unwind`
    /// isolation). Treated as transient: a panic can be a host effect
    /// (allocation failure) and the retry cap bounds the cost of
    /// re-trying a deterministic one.
    Panic,
    /// A host wall-clock deadline cancelled the run
    /// ([`Job::with_cancel`]). Transient: host load varies.
    Deadline,
    /// A host IO failure while persisting the job's results. Transient.
    Io,
    /// A fault injected by a test harness (chaos schedules, flake
    /// plans). Transient by construction.
    Injected,
}

impl JobErrorKind {
    /// Whether the supervisor should retry a failure of this kind.
    #[must_use]
    pub fn is_transient(self) -> bool {
        match self {
            JobErrorKind::Sim | JobErrorKind::Trace => false,
            JobErrorKind::Panic
            | JobErrorKind::Deadline
            | JobErrorKind::Io
            | JobErrorKind::Injected => true,
        }
    }

    /// The manifest/JSON spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobErrorKind::Sim => "sim",
            JobErrorKind::Trace => "trace",
            JobErrorKind::Panic => "panic",
            JobErrorKind::Deadline => "deadline",
            JobErrorKind::Io => "io",
            JobErrorKind::Injected => "injected",
        }
    }

    /// Parses the manifest spelling; unknown strings fall back to
    /// [`JobErrorKind::Sim`] (the conservative, non-retried kind) so a
    /// record written by a newer binary never triggers retry storms.
    #[must_use]
    pub fn parse_lossy(s: &str) -> Self {
        match s {
            "trace" => JobErrorKind::Trace,
            "panic" => JobErrorKind::Panic,
            "deadline" => JobErrorKind::Deadline,
            "io" => JobErrorKind::Io,
            "injected" => JobErrorKind::Injected,
            _ => JobErrorKind::Sim,
        }
    }
}

/// One failure of one job *attempt*, before it is tied to a grid index:
/// the kind (retry classification), a display message, and — for panics
/// — the payload preserved verbatim for post-mortems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Retry classification.
    pub kind: JobErrorKind,
    /// Human-readable rendering (for panics: `panic: {payload}`).
    pub message: String,
    /// The `catch_unwind` payload, verbatim, when the failure was a
    /// panic with a `String`/`&str` payload.
    pub panic_payload: Option<String>,
}

impl JobFailure {
    /// A non-panic failure of the given kind.
    #[must_use]
    pub fn new(kind: JobErrorKind, message: impl Into<String>) -> Self {
        JobFailure {
            kind,
            message: message.into(),
            panic_payload: None,
        }
    }
}

/// One failed sweep job: which grid cell died and why. Produced by
/// [`Harness::try_sweep`] instead of aborting the whole sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// Index of the job in the submitted grid.
    pub index: usize,
    /// The job's [`Job::label`].
    pub label: String,
    /// The simulation error or panic message.
    pub message: String,
    /// Retry classification of the failure.
    pub kind: JobErrorKind,
    /// For panics with a `String`/`&str` payload: the payload verbatim,
    /// so quarantined shards stay debuggable post-mortem.
    pub panic_payload: Option<String>,
}

impl JobError {
    /// Ties an attempt failure to its grid cell.
    #[must_use]
    pub fn from_failure(index: usize, label: String, failure: JobFailure) -> Self {
        JobError {
            index,
            label,
            message: failure.message,
            kind: failure.kind,
            panic_payload: failure.panic_payload,
        }
    }

    /// The record as a JSON object (the `"errors"` array of `--json`
    /// output).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .field("index", self.index)
            .field("label", self.label.as_str())
            .field("message", self.message.as_str())
            .field("kind", self.kind.as_str());
        if let Some(p) = &self.panic_payload {
            j = j.field("panic", p.as_str());
        }
        j
    }
}

/// Maps a simulation error to its retry classification: a raised
/// cancellation flag is the host deadline firing (transient); anything
/// else is a deterministic property of the job (persistent).
fn classify_sim_error(e: &redsim_core::SimError) -> JobErrorKind {
    match e {
        redsim_core::SimError::HostCancelled { .. } => JobErrorKind::Deadline,
        _ => JobErrorKind::Sim,
    }
}

/// One job's successful attempt: its stats, host throughput and
/// windowed-metrics series (empty unless [`Job::metrics_window`] is set).
pub type JobOutput = (SimStats, Throughput, Vec<WindowSample>);

/// Runs one job attempt with panic isolation: a simulation error or a
/// panicking simulation (a model bug, an invalid configuration) becomes
/// a [`JobFailure`] instead of tearing down the caller. A `String`/`&str`
/// panic payload is preserved verbatim in [`JobFailure::panic_payload`]
/// — the display message prefixes it with `panic: `, but post-mortems
/// get the raw text. The returned [`Throughput`] times the timing
/// simulation only (`job_seconds`; traces are built before).
///
/// This is the one attempt path: the sweep pool runs it once per job,
/// and the campaign shard supervisor retries around it.
///
/// # Errors
///
/// Every failure mode of the job — simulation error, fired deadline,
/// panic — as a typed [`JobFailure`].
pub fn run_job_isolated(trace: &[DynInst], job: &Job) -> Result<JobOutput, JobFailure> {
    let attempt = || -> Result<JobOutput, JobFailure> {
        let sim = job.simulator()?;
        let mut source = SliceSource::new(trace);
        let sim_err =
            |e: redsim_core::SimError| JobFailure::new(classify_sim_error(&e), e.to_string());
        let t0 = std::time::Instant::now();
        let (stats, windows) = if let Some(window) = job.metrics_window {
            let mut collector = MetricsCollector::new(window);
            let stats = sim
                .run_source_instrumented(
                    &mut source,
                    Instrumentation {
                        tracer: &mut NullTracer,
                        metrics: &mut collector,
                        profiler: None,
                    },
                )
                .map_err(sim_err)?;
            (stats, collector.into_samples())
        } else {
            (sim.run_source(&mut source).map_err(sim_err)?, Vec::new())
        };
        let perf = Throughput {
            wall_seconds: 0.0,
            job_seconds: t0.elapsed().as_secs_f64(),
            sim_cycles: stats.cycles,
            committed_insts: stats.committed_insts,
        };
        Ok((stats, perf, windows))
    };
    catch_unwind(AssertUnwindSafe(attempt)).unwrap_or_else(|payload| {
        let payload = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned());
        let msg = payload
            .clone()
            .unwrap_or_else(|| "panic with non-string payload".to_owned());
        Err(JobFailure {
            kind: JobErrorKind::Panic,
            message: format!("panic: {msg}"),
            panic_payload: payload,
        })
    })
}

/// The one worker pool behind figure sweeps and campaign shards: runs
/// `run(i)` for every `i` in `0..n` across `threads` workers (clamped to
/// `1..=n`; one worker runs on the calling thread) and returns the
/// results in index order. Workers claim indices in order from a shared
/// counter, so which thread runs a job varies, but never the result.
///
/// `run` returning `None` stops the pool: no index not yet claimed
/// starts, and every slot without a result — the stopping one
/// included — comes back `None`.
pub fn pool<T: Send + Sync>(
    n: usize,
    threads: usize,
    run: impl Fn(usize) -> Option<T> + Sync,
) -> Vec<Option<T>> {
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let worker = || {
        while !stop.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            match run(i) {
                Some(r) => assert!(slots[i].set(r).is_ok(), "each job runs once"),
                None => stop.store(true, Ordering::Relaxed),
            }
        }
    };
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        worker();
    } else {
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(worker);
            }
        });
    }
    slots.into_iter().map(OnceLock::into_inner).collect()
}

/// Harness context: workload sizing, per-workload trace caching, and
/// accumulated wall-clock throughput of every sweep run.
#[derive(Debug, Default)]
pub struct Harness {
    quick: bool,
    cache: HashMap<(Workload, Option<u64>), Arc<[DynInst]>>,
    perf: Throughput,
    stalls: StallSummary,
}

impl Harness {
    /// Creates a harness; `quick` selects the tiny workload instances.
    #[must_use]
    pub fn new(quick: bool) -> Self {
        Harness {
            quick,
            cache: HashMap::new(),
            perf: Throughput::default(),
            stalls: StallSummary::default(),
        }
    }

    /// Creates a harness sized by the shared command line.
    #[must_use]
    pub fn from_cli(cli: &Cli) -> Self {
        Self::new(cli.quick)
    }

    /// Creates a quick-mode harness (used by the smoke bench).
    #[must_use]
    pub fn quick() -> Self {
        Self::new(true)
    }

    /// Whether quick mode is on.
    #[must_use]
    pub fn is_quick(&self) -> bool {
        self.quick
    }

    /// The workload parameters this harness runs.
    #[must_use]
    pub fn params(&self, w: Workload) -> Params {
        if self.quick {
            w.tiny_params()
        } else {
            w.default_params()
        }
    }

    /// The committed-path trace of a workload at its default input
    /// seed; see [`Harness::try_trace_for`].
    ///
    /// # Panics
    ///
    /// Panics if the workload fails to assemble or execute.
    pub fn trace(&mut self, w: Workload) -> Arc<[DynInst]> {
        self.try_trace_for(w, None)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The committed-path trace of a workload, with an optional
    /// input-seed override. Each `(workload, seed)` pair is built once
    /// (the functional emulator is the expensive part) and shared by
    /// reference count, so sweeps re-run the timing model over the
    /// identical instruction stream without copying it. A workload that
    /// fails to assemble or to reach `halt` within the instruction
    /// budget reports a [`redsim_workloads::WorkloadError`]; failures
    /// are not cached, so a retry re-runs the emulator.
    pub fn try_trace_for(
        &mut self,
        w: Workload,
        input_seed: Option<u64>,
    ) -> Result<Arc<[DynInst]>, redsim_workloads::WorkloadError> {
        if let Some(t) = self.cache.get(&(w, input_seed)) {
            return Ok(Arc::clone(t));
        }
        let mut params = self.params(w);
        if let Some(seed) = input_seed {
            params.seed = seed;
        }
        let trace: Arc<[DynInst]> = w.trace(params, DEFAULT_TRACE_BUDGET)?.into();
        self.cache.insert((w, input_seed), Arc::clone(&trace));
        Ok(trace)
    }

    /// Every job's trace, in job order, each distinct one built once
    /// through [`Harness::try_trace_for`] — the pool's first phase. A
    /// trace that cannot be built is a [`JobErrorKind::Trace`] failure
    /// for its jobs.
    pub fn job_traces(&mut self, jobs: &[Job]) -> Vec<Result<Arc<[DynInst]>, JobFailure>> {
        jobs.iter()
            .map(|j| {
                self.try_trace_for(j.workload, j.input_seed)
                    .map_err(|e| JobFailure::new(JobErrorKind::Trace, e.to_string()))
            })
            .collect()
    }

    /// Host throughput accumulated over every sweep this harness has
    /// run: elapsed wall-clock (trace builds included) and the summed
    /// per-job simulation time.
    #[must_use]
    pub fn perf(&self) -> &Throughput {
        &self.perf
    }

    /// Cycle-accounting aggregate (productive vs attributed stall
    /// cycles) over every simulation this harness has run. Deterministic
    /// — unlike [`Harness::perf`] it carries no wall-clock values, so
    /// it is safe to include in golden outputs.
    #[must_use]
    pub fn stall_summary(&self) -> &StallSummary {
        &self.stalls
    }

    /// Runs an experiment grid without aborting on individual-job
    /// failure: a job that returns a simulation error *or panics* is
    /// isolated, its slot in the returned stats is a default-valued
    /// placeholder, and a structured [`JobError`] records what
    /// happened. The remaining jobs still run to completion.
    pub fn try_sweep(&mut self, jobs: &[Job], threads: usize) -> (Vec<SimStats>, Vec<JobError>) {
        self.try_sweep_with(jobs, threads, |_, _| {})
    }

    /// [`Harness::try_sweep`] with a per-job completion callback.
    ///
    /// The grid runs through the shared pool: [`Harness::job_traces`],
    /// then [`pool`] running [`run_job_isolated`] across `threads`
    /// workers. Results come back in job order, and because every
    /// simulation is single-threaded and deterministic, the stats are
    /// bit-identical for any thread count. The pool's elapsed time,
    /// trace builds included, adds to [`Harness::perf`]'s
    /// `wall_seconds`; each job's simulation time to its `job_seconds`.
    ///
    /// `on_done(index, result)` fires once per job, from the worker
    /// thread that finished it, as soon as the result is known —
    /// completion *order* is thread-schedule dependent, but each call's
    /// content is deterministic. On success the callback also receives
    /// the job's windowed-metrics series (empty unless the job set
    /// [`Job::with_metrics_window`]).
    ///
    /// A job whose *trace* cannot be materialized (workload assembly or
    /// emulation failure) is reported as a [`JobError`] like any other
    /// failure; the remaining jobs still run.
    pub fn try_sweep_with(
        &mut self,
        jobs: &[Job],
        threads: usize,
        on_done: impl Fn(usize, Result<(&SimStats, &[WindowSample]), &JobError>) + Sync,
    ) -> (Vec<SimStats>, Vec<JobError>) {
        let t0 = std::time::Instant::now();
        let traces = self.job_traces(jobs);
        let results = pool(jobs.len(), threads, |i| {
            let outcome = match &traces[i] {
                Ok(trace) => run_job_isolated(trace, &jobs[i]),
                Err(e) => Err(e.clone()),
            };
            Some(match outcome {
                Ok(r) => {
                    on_done(i, Ok((&r.0, r.2.as_slice())));
                    Ok(r)
                }
                Err(failure) => {
                    let err = JobError::from_failure(i, jobs[i].label(), failure);
                    on_done(i, Err(&err));
                    Err(err)
                }
            })
        });
        self.perf.wall_seconds += t0.elapsed().as_secs_f64();
        // Accumulate in job order so the total is thread-count
        // independent apart from the wall-clock values themselves.
        let mut errors = Vec::new();
        let stats = results
            .into_iter()
            .map(|r| match r.expect("the sweep never stops early") {
                Ok((stats, perf, _)) => {
                    self.perf.add(&perf);
                    self.stalls.add_run(&stats);
                    stats
                }
                Err(e) => {
                    errors.push(e);
                    SimStats::default()
                }
            })
            .collect();
        (stats, errors)
    }
}

/// Arithmetic mean.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation (n−1 denominator); 0 for fewer than two
/// samples.
#[must_use]
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// Formats replicated samples as `mean±stddev` with `decimals` fraction
/// digits; a single sample renders without the `±` suffix.
#[must_use]
pub fn pm(xs: &[f64], decimals: usize) -> String {
    if xs.len() < 2 {
        format!("{:.decimals$}", mean(xs))
    } else {
        format!("{:.decimals$}±{:.decimals$}", mean(xs), stddev(xs))
    }
}

/// A fixed-width text table printer for the figure binaries.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with column headers.
    #[must_use]
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                // Right-align numeric-looking cells, left-align labels.
                let numeric = cell
                    .chars()
                    .all(|ch| ch.is_ascii_digit() || "+-.%x".contains(ch));
                if numeric && i > 0 {
                    line.push_str(&format!("{cell:>w$}", w = widths[i]));
                } else {
                    line.push_str(&format!("{cell:<w$}", w = widths[i]));
                }
            }
            line
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * cols.saturating_sub(1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// The table as a JSON object: `{"header": [...], "rows": [[...]]}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let header: Json = self.header.iter().map(|h| Json::from(h.as_str())).collect();
        let rows: Json = self
            .rows
            .iter()
            .map(|r| r.iter().map(|c| Json::from(c.as_str())).collect::<Json>())
            .collect();
        Json::obj().field("header", header).field("rows", rows)
    }
}

/// Prints a figure's result table, honouring `--json`.
///
/// In text mode this reproduces the binaries' traditional layout: the
/// title, a parenthesized note including the quick-mode flag, a blank
/// line, then the aligned table. `perf` (usually [`Harness::perf`])
/// reports the host-side throughput of the runs behind the figure —
/// `wall_seconds` (elapsed, trace builds included) then `job_seconds`
/// (summed simulation time): in JSON it lands in a trailing `"perf"`
/// field; in text mode it goes to *stderr*, keeping stdout captures
/// byte-stable across machines.
///
/// `errors` (usually the second half of [`Harness::try_sweep`]) lists
/// the grid cells that failed: in JSON they become an `"errors"` array
/// before `"perf"`; in text mode each is reported on stderr. Callers
/// are expected to exit nonzero when the slice is non-empty.
///
/// `stalls` (usually [`Harness::stall_summary`]) is the deterministic
/// cycle-accounting aggregate behind the figure: in JSON it lands in a
/// `"stalls"` field after `"table"`; in text mode it prints one stderr
/// line, keeping stdout captures byte-stable.
pub fn emit(
    cli: &Cli,
    title: &str,
    note: &str,
    table: &Table,
    stalls: &StallSummary,
    errors: &[JobError],
    perf: &Throughput,
) {
    if cli.json {
        let out = Json::obj()
            .field("title", title)
            .field("note", note)
            .field("quick", cli.quick)
            .field("table", table.to_json())
            .field("stalls", stalls.to_json())
            .field(
                "errors",
                errors.iter().map(JobError::to_json).collect::<Json>(),
            )
            .field("perf", perf.to_json());
        println!("{out}");
    } else {
        println!("{title}");
        if note.is_empty() {
            println!("(quick mode: {})\n", cli.quick);
        } else {
            println!("({note}, quick mode: {})\n", cli.quick);
        }
        print!("{}", table.render());
        for e in errors {
            eprintln!("error: job {} ({}): {}", e.index, e.label, e.message);
        }
        if stalls.cycles > 0 {
            let b = &stalls.stalls;
            eprintln!(
                "stalls: {} of {} cycles productive; frontend {}, deps {}, issue {}, \
                 fu {}, irb-port {}, exec {}, commit {}, rewind {}",
                stalls.productive_cycles,
                stalls.cycles,
                b.frontend_empty,
                b.waiting_deps,
                b.issue_starved,
                b.fu_contention,
                b.irb_port,
                b.execution,
                b.commit_blocked,
                b.rewind,
            );
        }
        if perf.wall_seconds > 0.0 {
            eprintln!(
                "perf: {:.2}s wall-clock, {:.2}s summed job time, {:.2}M cycles/s, \
                 {:.2}M insts/s per job-second ({} sim cycles, {} committed insts)",
                perf.wall_seconds,
                perf.job_seconds,
                perf.cycles_per_sec() / 1e6,
                perf.insts_per_sec() / 1e6,
                perf.sim_cycles,
                perf.committed_insts,
            );
        }
    }
}

/// Formats a ratio as a percentage with one decimal.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{x:.1}%")
}

/// Formats an IPC with three decimals.
#[must_use]
pub fn ipc(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["app", "ipc"]);
        t.row(vec!["gzip", "1.234"]);
        t.row(vec!["a", "2.0"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("app"));
        assert!(lines[1].starts_with("---"));
    }

    #[test]
    fn empty_table_renders_without_panicking() {
        // Regression: `2 * (cols - 1)` underflowed for a header-less
        // table; the separator math must saturate instead.
        let t = Table::new(Vec::<String>::new());
        let s = t.render();
        assert_eq!(s, "\n\n");
        let mut one = Table::new(vec!["only"]);
        one.row(vec!["x"]);
        assert!(one.render().contains("only"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn table_to_json_shape() {
        let mut t = Table::new(vec!["app", "ipc"]);
        t.row(vec!["gzip", "1.234"]);
        assert_eq!(
            t.to_json().to_string(),
            r#"{"header":["app","ipc"],"rows":[["gzip","1.234"]]}"#
        );
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn cli_parses_shared_flags() {
        let cli = Cli::from_vec(
            [
                "--quick",
                "--json",
                "--threads",
                "3",
                "--forwarding",
                "per-stream",
            ]
            .iter()
            .map(|s| (*s).to_owned())
            .collect(),
        );
        assert!(cli.quick);
        assert!(cli.json);
        assert_eq!(cli.threads, 3);
        assert!(cli.flag("--quick"));
        assert_eq!(cli.value("--forwarding"), Some("per-stream"));
        assert_eq!(cli.value("--missing"), None);
    }

    #[test]
    fn env_flag_truthiness_treats_zero_and_false_as_off() {
        use std::ffi::OsStr;
        // Regression: REDSIM_QUICK=0 used to enable quick mode because
        // the check was `var_os(..).is_some()`.
        assert!(!env_value_enabled(None));
        assert!(!env_value_enabled(Some(OsStr::new(""))));
        assert!(!env_value_enabled(Some(OsStr::new("0"))));
        assert!(!env_value_enabled(Some(OsStr::new("false"))));
        assert!(!env_value_enabled(Some(OsStr::new("FALSE"))));
        assert!(!env_value_enabled(Some(OsStr::new("False"))));
        assert!(env_value_enabled(Some(OsStr::new("1"))));
        assert!(env_value_enabled(Some(OsStr::new("true"))));
        assert!(env_value_enabled(Some(OsStr::new("yes"))));
        // "00" is deliberately on: only the exact spellings are off.
        assert!(env_value_enabled(Some(OsStr::new("00"))));
    }

    #[test]
    fn cli_rejects_nonpositive_thread_and_seed_counts() {
        let args = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        assert_eq!(
            Cli::try_from_vec(args(&["--threads", "0"])).err(),
            Some(CliError::InvalidThreads("0".into()))
        );
        assert_eq!(
            Cli::try_from_vec(args(&["--threads", "many"])).err(),
            Some(CliError::InvalidThreads("many".into()))
        );
        assert_eq!(
            Cli::try_from_vec(args(&["--seeds", "0"])).err(),
            Some(CliError::InvalidSeeds("0".into()))
        );
        assert_eq!(
            Cli::try_from_vec(args(&["--seeds", "-3"])).err(),
            Some(CliError::InvalidSeeds("-3".into()))
        );
        let ok = Cli::try_from_vec(args(&["--threads", "2", "--seeds", "3"])).expect("valid");
        assert_eq!((ok.threads, ok.seeds), (2, 3));
        let e = CliError::InvalidThreads("0".into());
        assert!(e.to_string().contains("--threads"));
    }

    #[test]
    fn cli_rejects_a_zero_metrics_window() {
        // Regression: `--metrics-window 0` used to flow through to the
        // sampler (or be silently reinterpreted per binary) instead of
        // being a typed usage error like `--threads 0` / `--seeds 0`.
        let args = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        assert_eq!(
            Cli::try_from_vec(args(&["--metrics-window", "0"])).err(),
            Some(CliError::InvalidMetricsWindow("0".into()))
        );
        assert_eq!(
            Cli::try_from_vec(args(&["--metrics-window", "lots"])).err(),
            Some(CliError::InvalidMetricsWindow("lots".into()))
        );
        let ok = Cli::try_from_vec(args(&["--metrics-window", "512"])).expect("valid");
        assert_eq!(ok.metrics_window, Some(512));
        assert_eq!(
            Cli::try_from_vec(vec![]).expect("valid").metrics_window,
            None
        );
        let e = CliError::InvalidMetricsWindow("0".into());
        assert!(e.to_string().contains("--metrics-window"));
    }

    #[test]
    fn cli_rejects_a_trailing_value_flag() {
        // Regression: `--threads` as the last argument was dropped by
        // the `windows(2)` lookup and the sweep ran on every core.
        let args = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        for flag in ["--threads", "--seeds", "--metrics-window"] {
            assert_eq!(
                Cli::try_from_vec(args(&["--quick", flag])).err(),
                Some(CliError::MissingValue(flag))
            );
        }
        assert_eq!(
            CliError::MissingValue("--threads").to_string(),
            "--threads expects a value"
        );
    }

    #[test]
    #[should_panic(expected = "valid shared CLI arguments")]
    fn from_vec_panics_on_rejected_arguments() {
        let _ = Cli::from_vec(vec!["--threads".into(), "0".into()]);
    }

    #[test]
    fn harness_accumulates_a_conserving_stall_summary() {
        let mut h = Harness::quick();
        let cfg = MachineConfig::paper_baseline();
        let (s1, _) = h.try_sweep(&[Job::new(Workload::Gzip, ExecMode::Sie, &cfg)], 1);
        let jobs = vec![Job::new(Workload::Gzip, ExecMode::DieIrb, &cfg)];
        let (swept, _) = h.try_sweep(&jobs, 1);
        let sum = h.stall_summary();
        assert_eq!(sum.cycles, s1[0].cycles + swept[0].cycles);
        assert_eq!(
            sum.productive_cycles + sum.stalls.total(),
            sum.cycles,
            "aggregated cycle accounting must still partition"
        );
    }

    #[test]
    fn harness_trace_is_cached_and_stable() {
        let mut h = Harness::quick();
        let a = h.trace(Workload::Gzip);
        let b = h.trace(Workload::Gzip);
        assert!(Arc::ptr_eq(&a, &b), "second call reuses the cached trace");
        assert!(!a.is_empty());
    }

    /// One job run on its own, outside any pool.
    fn run_alone(h: &mut Harness, w: Workload, mode: ExecMode, cfg: &MachineConfig) -> SimStats {
        let trace = h.trace(w);
        run_job_isolated(&trace, &Job::new(w, mode, cfg))
            .expect("simulation completes")
            .0
    }

    #[test]
    fn harness_run_produces_stats() {
        let mut h = Harness::quick();
        let cfg = MachineConfig::paper_baseline();
        let s = run_alone(&mut h, Workload::Gzip, ExecMode::Sie, &cfg);
        assert!(s.ipc() > 0.0);
    }

    #[test]
    fn sweep_matches_individual_runs() {
        let mut h = Harness::quick();
        let cfg = MachineConfig::paper_baseline();
        let jobs = vec![
            Job::new(Workload::Gzip, ExecMode::Sie, &cfg),
            Job::new(Workload::Gzip, ExecMode::Die, &cfg),
            Job::new(Workload::Mcf, ExecMode::DieIrb, &cfg),
        ];
        let (swept, _) = h.try_sweep(&jobs, 1);
        let alone = |h: &mut Harness, w, mode| run_alone(h, w, mode, &cfg);
        assert_eq!(swept[0], alone(&mut h, Workload::Gzip, ExecMode::Sie));
        assert_eq!(swept[1], alone(&mut h, Workload::Gzip, ExecMode::Die));
        assert_eq!(swept[2], alone(&mut h, Workload::Mcf, ExecMode::DieIrb));
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let mut h = Harness::quick();
        let cfg = MachineConfig::paper_baseline();
        let mut jobs = Vec::new();
        for w in [Workload::Gzip, Workload::Mcf] {
            for mode in [ExecMode::Sie, ExecMode::Die, ExecMode::DieIrb] {
                jobs.push(Job::new(w, mode, &cfg));
            }
        }
        jobs.push(
            Job::new(Workload::Gzip, ExecMode::Die, &cfg).with_faults(FaultConfig {
                fu_rate: 1e-4,
                seed: 7,
                ..FaultConfig::none()
            }),
        );
        let serial = h.try_sweep(&jobs, 1);
        let parallel = h.try_sweep(&jobs, 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn sweep_of_empty_grid_is_empty() {
        let mut h = Harness::quick();
        let (stats, errors) = h.try_sweep(&[], 8);
        assert!(stats.is_empty() && errors.is_empty());
    }

    #[test]
    fn stddev_and_pm_formatting() {
        assert_eq!(stddev(&[]), 0.0);
        assert_eq!(stddev(&[5.0]), 0.0);
        assert_eq!(stddev(&[2.0, 4.0]), f64::sqrt(2.0));
        assert_eq!(pm(&[1.25], 2), "1.25");
        assert_eq!(pm(&[1.0, 2.0], 1), "1.5±0.7");
    }

    #[test]
    fn input_seed_changes_the_cached_trace() {
        let mut h = Harness::quick();
        let mut trace_for = |seed| h.try_trace_for(Workload::Gzip, seed).expect("gzip builds");
        let base = trace_for(None);
        let same = trace_for(None);
        assert!(Arc::ptr_eq(&base, &same));
        let other = trace_for(Some(99));
        assert!(!Arc::ptr_eq(&base, &other), "seeds get distinct traces");
    }

    #[test]
    fn try_sweep_isolates_a_panicking_job() {
        let mut h = Harness::quick();
        let cfg = MachineConfig::paper_baseline();
        // fu_rate 2.0 is invalid; `run_job` rejects it through
        // `Simulator::try_with_faults`, exercising the error path.
        let bad = FaultConfig {
            fu_rate: 2.0,
            ..FaultConfig::none()
        };
        let jobs = vec![
            Job::new(Workload::Gzip, ExecMode::Sie, &cfg),
            Job::new(Workload::Gzip, ExecMode::Die, &cfg).with_faults(bad),
            Job::new(Workload::Gzip, ExecMode::DieIrb, &cfg),
        ];
        let (stats, errors) = h.try_sweep(&jobs, 2);
        assert_eq!(stats.len(), 3);
        assert!(stats[0].ipc() > 0.0, "healthy jobs still complete");
        assert!(stats[2].ipc() > 0.0, "healthy jobs still complete");
        assert_eq!(
            stats[1],
            SimStats::default(),
            "failed slot is a placeholder"
        );
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].index, 1);
        assert_eq!(errors[0].label, "gzip/Die");
        assert!(
            errors[0].message.contains("invalid fault configuration"),
            "panic message survives: {}",
            errors[0].message
        );
    }

    #[test]
    fn try_sweep_reports_an_invalid_fault_rate_as_a_sim_error() {
        let mut h = Harness::quick();
        let cfg = MachineConfig::paper_baseline();
        let bad = FaultConfig {
            fu_rate: -1.0,
            ..FaultConfig::none()
        };
        let jobs = vec![Job::new(Workload::Gzip, ExecMode::Die, &cfg).with_faults(bad)];
        let (_, errors) = h.try_sweep(&jobs, 1);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].kind, JobErrorKind::Sim, "persistent, not a panic");
    }

    #[test]
    fn pool_returns_results_in_index_order_at_any_thread_count() {
        for threads in [1, 3, 64] {
            let out = pool(10, threads, |i| Some(i * i));
            assert_eq!(out, (0..10).map(|i| Some(i * i)).collect::<Vec<_>>());
        }
        assert!(pool(0, 4, Some).is_empty());
    }

    #[test]
    fn a_stopping_job_starts_nothing_after_it() {
        // One worker claims indices in order, so the cut is exact: the
        // stopping slot and every later one stay empty.
        let out = pool(6, 1, |i| (i != 2).then_some(i));
        assert_eq!(out, vec![Some(0), Some(1), None, None, None, None]);
    }

    #[test]
    fn perf_reports_wall_clock_then_summed_job_time() {
        let mut h = Harness::quick();
        let cfg = MachineConfig::paper_baseline();
        let jobs = vec![
            Job::new(Workload::Gzip, ExecMode::Sie, &cfg),
            Job::new(Workload::Gzip, ExecMode::Die, &cfg),
        ];
        let _ = h.try_sweep(&jobs, 1);
        let p = *h.perf();
        assert!(p.job_seconds > 0.0);
        // On one worker the pool's wall-clock covers the trace build
        // and both jobs, so it bounds their summed time from above.
        assert!(p.wall_seconds >= p.job_seconds, "{p:?}");
        let json = p.to_json().to_string();
        assert!(
            json.starts_with(r#"{"wall_seconds":"#) && json.contains(r#","job_seconds":"#),
            "{json}"
        );
    }

    #[test]
    fn try_sweep_with_reports_every_completion() {
        use std::sync::Mutex;
        let mut h = Harness::quick();
        let cfg = MachineConfig::paper_baseline();
        let jobs = vec![
            Job::new(Workload::Gzip, ExecMode::Sie, &cfg),
            Job::new(Workload::Gzip, ExecMode::Die, &cfg),
        ];
        let seen = Mutex::new(Vec::new());
        let (stats, errors) = h.try_sweep_with(&jobs, 2, |i, r| {
            seen.lock().unwrap().push((i, r.is_ok()));
        });
        assert!(errors.is_empty());
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, true), (1, true)]);
        assert_eq!(stats.len(), 2);
    }

    #[test]
    fn metrics_windows_flow_through_the_callback() {
        use std::sync::Mutex;
        let mut h = Harness::quick();
        let cfg = MachineConfig::paper_baseline();
        let jobs = vec![
            Job::new(Workload::Gzip, ExecMode::Sie, &cfg).with_metrics_window(512),
            Job::new(Workload::Gzip, ExecMode::Sie, &cfg),
        ];
        let committed = Mutex::new(0u64);
        let (stats, errors) = h.try_sweep_with(&jobs, 1, |i, r| {
            let (s, windows) = r.expect("jobs succeed");
            if i == 0 {
                assert!(!windows.is_empty(), "windowed job yields samples");
                let cycle_sum: u64 = windows.iter().map(WindowSample::cycles).sum();
                assert_eq!(cycle_sum, s.cycles, "windows tile the whole run");
                *committed.lock().unwrap() =
                    windows.iter().map(|w| w.counters.committed_insts).sum();
            } else {
                assert!(windows.is_empty(), "metrics-free job yields none");
            }
        });
        assert!(errors.is_empty());
        assert_eq!(*committed.lock().unwrap(), stats[0].committed_insts);
        assert_eq!(
            stats[0], stats[1],
            "metrics collection is observationally pure"
        );
    }

    #[test]
    fn panic_payloads_are_preserved_verbatim() {
        let mut h = Harness::quick();
        let trace = h.trace(Workload::Gzip);
        let mut cfg = MachineConfig::paper_baseline();
        cfg.fetch_width = 0; // Simulator::new panics in validate().
        let job = Job::new(Workload::Gzip, ExecMode::Sie, &cfg);
        let err = match run_job_isolated(&trace, &job) {
            Err(e) => e,
            Ok(_) => panic!("an invalid config must fail the job"),
        };
        assert_eq!(err.kind, JobErrorKind::Panic);
        assert_eq!(
            err.panic_payload.as_deref(),
            Some("fetch width must be positive"),
            "the payload survives without any prefix or rewording"
        );
        assert_eq!(err.message, "panic: fetch width must be positive");
    }

    #[test]
    fn error_kinds_classify_and_round_trip() {
        assert!(!JobErrorKind::Sim.is_transient());
        assert!(!JobErrorKind::Trace.is_transient());
        assert!(JobErrorKind::Panic.is_transient());
        assert!(JobErrorKind::Deadline.is_transient());
        assert!(JobErrorKind::Io.is_transient());
        assert!(JobErrorKind::Injected.is_transient());
        for k in [
            JobErrorKind::Sim,
            JobErrorKind::Trace,
            JobErrorKind::Panic,
            JobErrorKind::Deadline,
            JobErrorKind::Io,
            JobErrorKind::Injected,
        ] {
            assert_eq!(JobErrorKind::parse_lossy(k.as_str()), k);
        }
        // Unknown spellings degrade to the non-retried kind.
        assert_eq!(JobErrorKind::parse_lossy("gamma-ray"), JobErrorKind::Sim);
    }

    #[test]
    fn a_raised_cancel_flag_fails_the_job_as_a_deadline() {
        use std::sync::atomic::AtomicBool;
        let mut h = Harness::quick();
        let trace = h.trace(Workload::Gzip);
        let cfg = MachineConfig::paper_baseline();
        let flag = Arc::new(AtomicBool::new(true)); // already expired
        let job = Job::new(Workload::Gzip, ExecMode::Sie, &cfg).with_cancel(Arc::clone(&flag));
        let err = match run_job_isolated(&trace, &job) {
            Err(e) => e,
            Ok(_) => panic!("a pre-raised flag must cancel the run"),
        };
        assert_eq!(err.kind, JobErrorKind::Deadline);
        assert!(
            err.message.contains("host wall-clock deadline"),
            "message names the mechanism: {}",
            err.message
        );
        // An unarmed job over the same trace is untouched by the flag.
        let clean = Job::new(Workload::Gzip, ExecMode::Sie, &cfg);
        let (stats, _, _) = run_job_isolated(&trace, &clean).expect("clean run completes");
        assert!(stats.ipc() > 0.0);
    }

    #[test]
    fn job_error_json_carries_kind_and_panic_payload() {
        let err = JobError {
            index: 3,
            label: "gzip/Sie".into(),
            message: "panic: boom".into(),
            kind: JobErrorKind::Panic,
            panic_payload: Some("boom".into()),
        };
        let s = err.to_json().to_string();
        assert!(s.contains(r#""kind":"panic""#), "{s}");
        assert!(s.contains(r#""panic":"boom""#), "{s}");
        let plain = JobError {
            index: 0,
            label: "gzip/Sie".into(),
            message: "pipeline made no progress near cycle 7".into(),
            kind: JobErrorKind::Sim,
            panic_payload: None,
        };
        let s = plain.to_json().to_string();
        assert!(s.contains(r#""kind":"sim""#), "{s}");
        assert!(!s.contains(r#""panic""#), "no payload field when none: {s}");
    }

    #[test]
    fn watchdog_job_comes_back_flagged_not_failed() {
        let mut h = Harness::quick();
        let cfg = MachineConfig::paper_baseline();
        let jobs = vec![Job::new(Workload::Gzip, ExecMode::Sie, &cfg).with_watchdog(50)];
        let (stats, errors) = h.try_sweep(&jobs, 1);
        assert!(errors.is_empty(), "a tripped watchdog is not a job error");
        assert!(stats[0].watchdog_fired);
    }
}
