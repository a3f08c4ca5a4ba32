//! The `serve` workload: the engine hosted in-process the way
//! `redsim-serve serve` hosts it (`Engine::open` with two workers, then
//! `serve_tcp` on `127.0.0.1:0`), driven by two closed-loop clients that
//! each `submit` a quick job with the crate's own `Client` and `wait`
//! for its result. Every request's trace tier is planned from the seed
//! (see [`crate::plan`]) and checked against the engine's counters.

use std::collections::BTreeMap;
use std::fs;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use redsim_campaign::supervisor::execute_shard;
use redsim_campaign::RetryPolicy;
use redsim_core::Metric;
use redsim_serve::engine::{Engine, EngineOptions};
use redsim_serve::net::{serve_tcp, Client};
use redsim_serve::spec::{JobSpec, DEFAULT_TRACE_BUDGET};
use redsim_serve::store::{StoreStats, TraceOrigin, TraceStore};
use redsim_util::io::RealIo;
use redsim_util::Json;
use redsim_workloads::{Params, Workload};

use crate::host;
use crate::layers::{timed, TraceSet};
use crate::plan::{plan, tier_counts, Plan, Tier};
use crate::report::Report;
use crate::stats::median;
use crate::{Ctx, MIN_SAMPLES, SETUPS, THREADS};

/// `ping` round trips timed per traced run.
const PINGS: usize = 12;

/// `(cycles, insts)` answered per spec fingerprint.
type Results = BTreeMap<u64, (u64, u64)>;

/// One answered request, as its client saw it.
#[derive(Debug, Clone)]
struct Sample {
    tier: Tier,
    spec: JobSpec,
    latency_ms: f64,
    submit_ms: f64,
    wait_ms: f64,
    /// `(cycles, insts)` from the result payload.
    result: Option<(u64, u64)>,
}

/// A set-up engine, listening.
struct Hosted {
    engine: Arc<Engine>,
    listener: TcpListener,
    addr: SocketAddr,
}

/// Opens a fresh engine in `dir` after persisting the plan's disk-tier
/// traces into `<dir>/traces` through `TraceStore::get`.
fn set_up(plan: &Plan, dir: &Path) -> Result<Hosted, String> {
    let _ = fs::remove_dir_all(dir);
    let io = Arc::new(RealIo);
    {
        let store = TraceStore::open(io.clone(), dir.join("traces"), true)
            .map_err(|e| format!("trace store: {e}"))?;
        for spec in &plan.persist {
            store
                .get(spec, DEFAULT_TRACE_BUDGET)
                .map_err(|e| format!("persisting {}: {e}", spec.canonical()))?;
        }
    }
    let opts = EngineOptions {
        workers: THREADS,
        ..EngineOptions::default()
    };
    let engine = Arc::new(Engine::open(io, dir, opts).map_err(|e| e.to_string())?);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    Ok(Hosted {
        engine,
        listener,
        addr,
    })
}

/// What one engine lifetime served.
struct Load {
    samples: Vec<Sample>,
    /// Requests answered per client (a prefix of its plan).
    done: Vec<usize>,
    /// Transport errors and refused or failed requests.
    errors: Vec<String>,
    wall: f64,
    ping_ms: Vec<f64>,
    store: StoreStats,
    dedup_hits: u64,
}

fn request(client: &mut Client, req: &Json) -> Result<(Json, f64), String> {
    let (r, s) = timed(|| client.request(req));
    let j = r.map_err(|e| format!("transport: {e}"))?;
    if j.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("refused: {j}"));
    }
    Ok((j, s * 1e3))
}

/// One planned request: submit, then wait for the result.
fn submit_and_wait(client: &mut Client, tier: Tier, spec: &JobSpec) -> Result<Sample, String> {
    let spec_json = Json::parse(&spec.canonical()).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let (sub, submit_ms) = request(
        client,
        &Json::obj().field("op", "submit").field("spec", spec_json),
    )?;
    let id = sub
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("submit: no id")?;
    let cached = sub.get("cached").and_then(Json::as_bool);
    if cached != Some(tier == Tier::Dedup) {
        return Err(format!(
            "{} request answered with cached={cached:?}",
            tier.name()
        ));
    }
    let (res, wait_ms) = request(client, &Json::obj().field("op", "wait").field("id", id))?;
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    let res = res.get("res").ok_or("wait: no result")?;
    if res.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("job failed: {res}"));
    }
    if res.get("fp").and_then(Json::as_str) != Some(spec.fingerprint_hex().as_str()) {
        return Err(format!("result for another spec: {res}"));
    }
    let cycles = res.get("cycles").and_then(Json::as_u64);
    let insts = res.get("insts").and_then(Json::as_u64);
    Ok(Sample {
        tier,
        spec: spec.clone(),
        latency_ms,
        submit_ms,
        wait_ms,
        result: cycles.zip(insts),
    })
}

/// Serves `plan` from `hosted` until every client finishes its list (or
/// fails), then closes the engine.
fn serve_load(hosted: Hosted, plan: &Plan, pings: usize) -> Result<Load, String> {
    let Hosted {
        engine,
        listener,
        addr,
    } = hosted;
    let addr = addr.to_string();
    let mut ping_ms = Vec::new();
    let (per_client, served, wall) = std::thread::scope(|s| {
        let server = s.spawn(|| serve_tcp(&engine, &listener));
        if pings > 0 {
            match Client::connect_tcp(&addr) {
                Ok(mut c) => {
                    for _ in 0..pings {
                        if let Ok((_, ms)) = request(&mut c, &Json::obj().field("op", "ping")) {
                            ping_ms.push(ms);
                        }
                    }
                }
                Err(e) => eprintln!("ping client: {e}"),
            }
        }
        let t0 = Instant::now();
        let clients: Vec<_> = plan
            .clients
            .iter()
            .map(|list| {
                let addr = &addr;
                s.spawn(move || {
                    let mut out = (Vec::new(), None);
                    let mut client = match Client::connect_tcp(addr) {
                        Ok(c) => c,
                        Err(e) => {
                            out.1 = Some(format!("connect: {e}"));
                            return out;
                        }
                    };
                    for r in list {
                        match submit_and_wait(&mut client, r.tier, &r.spec) {
                            Ok(sample) => out.0.push(sample),
                            Err(e) => {
                                out.1 = Some(e);
                                break;
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        let per_client: Vec<(Vec<Sample>, Option<String>)> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        let wall = t0.elapsed().as_secs_f64();
        engine.stop();
        (per_client, server.join().expect("server thread"), wall)
    });
    let mut errors: Vec<String> = per_client.iter().filter_map(|(_, e)| e.clone()).collect();
    if let Err(e) = served {
        errors.push(format!("accept loop: {e}"));
    }
    let store = engine.store_stats();
    let dedup_hits = engine
        .metrics_registry()
        .entries()
        .find_map(|(name, _, m)| match m {
            Metric::Counter(c) if name == "serve_jobs_dedup_hits_total" => Some(*c),
            _ => None,
        })
        .unwrap_or(0);
    if let Err(e) = engine.close() {
        errors.push(format!("close: {e}"));
    }
    let done = per_client.iter().map(|(s, _)| s.len()).collect();
    Ok(Load {
        samples: per_client.into_iter().flat_map(|(s, _)| s).collect(),
        done,
        errors,
        wall,
        ping_ms,
        store,
        dedup_hits,
    })
}

/// Checks a load: no errors, the engine's store and dedup counters
/// equal the planned tier mix of the answered prefix exactly, every
/// result carries its counts, a repeated spec gets the same counts, and
/// so does every spec `reference` (an earlier load of the same plan)
/// answered. Returns the load's results.
fn check_load(
    report: &mut Report,
    plan: &Plan,
    load: &Load,
    reference: Option<&Results>,
) -> Results {
    let answered = load.samples.len() as u64;
    report.attempted += answered + load.errors.len() as u64;
    report.failed += load.errors.len() as u64;
    for e in &load.errors {
        report.check(false, || format!("serve: {e}"));
    }
    let want = tier_counts(plan, &load.done);
    let got = [
        load.store.builds,
        load.store.disk_hits,
        load.store.mem_hits,
        load.dedup_hits,
    ];
    report.check(want == got, || {
        format!("serve tiers planned (cold, disk, mem, dedup) {want:?}, engine counted {got:?}")
    });
    report.check(load.store.persist_failures == 0, || {
        format!("{} trace persists failed", load.store.persist_failures)
    });
    let mut results = Results::new();
    for s in &load.samples {
        let Some(got) = s.result else {
            report.check(false, || {
                format!("result without cycles/insts for {}", s.spec.canonical())
            });
            continue;
        };
        let fp = s.spec.fingerprint();
        let first = *results.entry(fp).or_insert(got);
        let earlier = reference.and_then(|r| r.get(&fp)).copied();
        report.check(first == got && earlier.unwrap_or(got) == got, || {
            format!(
                "{} answered (cycles, insts) {got:?}, earlier {first:?} in this load and {earlier:?} in the first",
                s.spec.canonical()
            )
        });
    }
    results
}

fn tier_ms(samples: &[Sample], tier: Tier) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.tier == tier)
        .map(|s| s.latency_ms)
        .collect()
}

/// The untraced run: set up several times, then serve whole plans, each
/// on a fresh engine, until the time is up and at least [`MIN_SAMPLES`]
/// requests are answered. Stopping only between plans keeps every
/// run's request and key mix the same; every lifetime must answer what
/// the first one answered.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let plan = plan(ctx.seed, THREADS);
    let dir = ctx.work.join("serve");
    let mut setups = Vec::new();
    let mut hosted = None;
    for _ in 0..SETUPS {
        if let Some(h) = hosted.take() {
            let Hosted { engine, .. } = h;
            engine.close().map_err(|e| e.to_string())?;
        }
        let (h, s) = timed(|| set_up(&plan, &dir));
        setups.push(s);
        hosted = Some(h?);
    }
    let t0 = Instant::now();
    let (mut samples, mut wall) = (Vec::new(), 0.0);
    // The first lifetime's peak is reported: one lifetime whatever the
    // run's speed, measured from a reset at its start. The set-ups stand
    // for the daemon that persisted the disk tier before a restart, so
    // the heap they freed goes back to the kernel first, as it would
    // with their own process. Later lifetimes also carry what the
    // allocator kept from earlier engines; their largest peak is noted.
    host::release_free_heap();
    let mut lifetime_peaks = Vec::new();
    let mut reference = None;
    loop {
        let h = match hosted.take() {
            Some(h) => h,
            None => {
                let (h, s) = timed(|| set_up(&plan, &dir));
                setups.push(s);
                h?
            }
        };
        host::reset_peak_rss();
        let start_mb = host::rss_mb();
        let load = serve_load(h, &plan, 0)?;
        lifetime_peaks.push(host::peak_rss_mb());
        eprintln!(
            "serve lifetime {}: {:.3} s wall, peak {:.1} MB from {start_mb:.1} MB at its start",
            lifetime_peaks.len(),
            load.wall,
            host::peak_rss_mb()
        );
        let results = check_load(report, &plan, &load, reference.as_ref());
        reference.get_or_insert(results);
        wall += load.wall;
        samples.extend(load.samples);
        let done = t0.elapsed().as_secs_f64() >= ctx.seconds && samples.len() >= MIN_SAMPLES;
        if !load.errors.is_empty() || done {
            break;
        }
    }
    let _ = fs::remove_dir_all(&dir);
    let all: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    report.set("setup_s", median(&setups).unwrap_or(0.0));
    report.set("jobs_per_s", samples.len() as f64 / wall);
    report.set("peak_rss_mb", lifetime_peaks[0]);
    report.note(
        "peak_rss_lifetime_max_mb",
        lifetime_peaks.iter().copied().fold(0.0, f64::max),
    );
    report.latencies(&all);
    for (tier, name) in [
        (Tier::Cold, "latency_cold_p50_ms"),
        (Tier::Disk, "latency_disk_p50_ms"),
        (Tier::Mem, "latency_mem_p50_ms"),
        (Tier::Dedup, "latency_dedup_p50_ms"),
    ] {
        report.note(name, median(&tier_ms(&samples, tier)).unwrap_or(0.0));
    }
    Ok(())
}

/// Records the `serve` layer metrics of a traced load, replaying its
/// requests directly against a separate `TraceStore` and
/// `execute_shard` to split each latency into protocol, store and
/// execution time.
fn layer_metrics(report: &mut Report, plan: &Plan, load: &Load, dir: &Path) -> Result<(), String> {
    let fresh: Vec<&Sample> = load
        .samples
        .iter()
        .filter(|s| s.tier != Tier::Dedup)
        .collect();
    let ms = |f: &dyn Fn(&Sample) -> f64, dedup: bool| -> f64 {
        let v: Vec<f64> = load
            .samples
            .iter()
            .filter(|s| (s.tier == Tier::Dedup) == dedup)
            .map(f)
            .collect();
        median(&v).unwrap_or(0.0)
    };
    let ping = median(&load.ping_ms).unwrap_or(0.0);
    report.set("serve.ping_ms", ping);
    report.set("serve.submit_ms", ms(&|s| s.submit_ms, false));
    report.set("serve.submit_dedup_ms", ms(&|s| s.submit_ms, true));
    report.set("serve.wait_ms", ms(&|s| s.wait_ms, false));
    for (tier, name) in [
        (Tier::Cold, "serve.latency_cold_p50_ms"),
        (Tier::Disk, "serve.latency_disk_p50_ms"),
        (Tier::Mem, "serve.latency_mem_p50_ms"),
        (Tier::Dedup, "serve.latency_dedup_p50_ms"),
    ] {
        report.set(name, median(&tier_ms(&load.samples, tier)).unwrap_or(0.0));
    }
    report.set("serve.store.builds", load.store.builds as f64);
    report.set("serve.store.disk_hits", load.store.disk_hits as f64);
    report.set("serve.store.mem_hits", load.store.mem_hits as f64);
    report.set("serve.dedup_hits", load.dedup_hits as f64);

    // Direct replay on a separate store: the same disk keys persisted
    // first, then the answered requests in client order.
    let _ = fs::remove_dir_all(dir);
    let io = Arc::new(RealIo);
    let persisted: Vec<JobSpec> = plan
        .persist
        .iter()
        .filter(|p| {
            fresh
                .iter()
                .any(|s| s.spec.fingerprint() == p.fingerprint())
        })
        .cloned()
        .collect();
    {
        let store =
            TraceStore::open(io.clone(), dir.to_path_buf(), true).map_err(|e| e.to_string())?;
        for spec in &persisted {
            store
                .get(spec, DEFAULT_TRACE_BUDGET)
                .map_err(|e| e.to_string())?;
        }
    }
    let store = TraceStore::open(io, dir.to_path_buf(), true).map_err(|e| e.to_string())?;
    let (mut build, mut disk, mut mem, mut exec, mut residual) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for s in &fresh {
        let (got, get_s) = timed(|| store.get(&s.spec, DEFAULT_TRACE_BUDGET));
        let (trace, origin) = got.map_err(|e| e.to_string())?;
        let expect = match s.tier {
            Tier::Cold => TraceOrigin::Built,
            Tier::Disk => TraceOrigin::Disk,
            _ => TraceOrigin::Memory,
        };
        report.check(origin == expect, || {
            format!(
                "direct store replay: {:?} for a {} request",
                origin,
                s.tier.name()
            )
        });
        match origin {
            TraceOrigin::Built => build.push(get_s * 1e3),
            TraceOrigin::Disk => disk.push(get_s * 1e3),
            TraceOrigin::Memory => mem.push(get_s * 1e3),
        }
        let job = s.spec.to_job();
        let (out, exec_s) =
            timed(|| execute_shard(&trace, &job, &RetryPolicy::default(), None, None, 0));
        let stats = out.map_err(|e| e.failure.message)?;
        report.check(
            s.result == Some((stats.0.cycles, stats.0.committed_insts)),
            || {
                format!(
                    "served result differs from direct execution of {}",
                    s.spec.canonical()
                )
            },
        );
        exec.push(exec_s * 1e3);
        residual.push(s.latency_ms - (get_s + exec_s) * 1e3 - 2.0 * ping);
    }
    drop(store);
    let _ = fs::remove_dir_all(dir);
    report.set("serve.store_get_ms.build", median(&build).unwrap_or(0.0));
    report.set("serve.store_get_ms.disk", median(&disk).unwrap_or(0.0));
    report.set("serve.store_get_ms.mem", median(&mem).unwrap_or(0.0));
    report.set("serve.execute_ms", median(&exec).unwrap_or(0.0));
    report.set("serve.residual_ms", median(&residual).unwrap_or(0.0));
    Ok(())
}

/// A traced load of `plan` with pings, checked against `reference`,
/// plus its layer metrics. Returns the load's wall seconds.
fn traced_load(
    ctx: &Ctx,
    plan: &Plan,
    report: &mut Report,
    reference: Option<&Results>,
) -> Result<f64, String> {
    let dir = ctx.work.join("serve");
    let load = serve_load(set_up(plan, &dir)?, plan, PINGS)?;
    check_load(report, plan, &load, reference);
    layer_metrics(report, plan, &load, &ctx.work.join("serve-direct"))?;
    let _ = fs::remove_dir_all(&dir);
    Ok(load.wall)
}

/// The `serve` layer probe of other workloads' traced runs: one
/// client's planned list.
pub fn probe(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let p = plan(ctx.seed, 1);
    traced_load(ctx, &p, report, None).map(|_| ())
}

/// The traced run: one untraced and one traced load of the same plan
/// (the ratio is the tracing overhead; the answers must match), the
/// serve layer metrics, then every other layer probe over the plan's
/// quick traces.
pub fn traced(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let p = plan(ctx.seed, THREADS);
    let dir = ctx.work.join("serve");
    let plain = serve_load(set_up(&p, &dir)?, &p, 0)?;
    let reference = check_load(report, &p, &plain, None);
    let traced_wall = traced_load(ctx, &p, report, Some(&reference))?;
    report.set("trace_overhead", traced_wall / plain.wall - 1.0);
    let mut items: Vec<(Workload, Params)> = Vec::new();
    for r in p.clients.iter().flatten() {
        let item = (r.spec.workload, r.spec.params());
        if !items.contains(&item) {
            items.push(item);
        }
    }
    items.truncate(12);
    let set = TraceSet::build(items)?;
    crate::probe_layers(ctx, &set, report, crate::Own::Serve)?;
    Ok(())
}
