//! `redsim-serve` — the simulation-as-a-service daemon and its client.
//!
//! ```text
//! redsim-serve serve --state-dir <dir> [options]      run the daemon
//!   --listen <addr>        TCP listen address (default 127.0.0.1:0)
//!   --unix <path>          listen on a unix socket instead
//!   --workers <n>          worker threads (default 1)
//!   --fsync always|critical|never                     (default critical)
//!   --deadline-ms <n>      host wall-clock deadline per attempt
//!
//! redsim-serve submit --connect <ep> --workload <w> [options]
//!   --mode sie|die|die-irb|sie-irb|die-cluster        (default sie)
//!   --full                 default workload sizing (quick otherwise)
//!   --seed <n> --watchdog <n>
//!   --fault-fu <r> --fault-bus <r> --fault-irb <r> --fault-seed <n>
//!   --attribution          carry the reuse-attribution breakdown
//!   --wait                 block for and print the result
//!
//! redsim-serve status|metrics|shutdown --connect <ep>
//! ```
//!
//! `--connect` takes `tcp <addr>`, `unix <path>`, a bare `<host>:<port>`,
//! or `--state-dir <dir>` to read the daemon's `endpoint` file. The
//! daemon prints `listening tcp <addr>` (or `unix`) on stdout and
//! writes the same endpoint to `<state-dir>/endpoint` so scripts can
//! find an ephemeral port.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use redsim_cli::{die, usage, Args};
use redsim_core::{ExecMode, FaultConfig};
use redsim_serve::engine::{Engine, EngineOptions};
use redsim_serve::net::{serve_tcp, Client};
use redsim_serve::spec::JobSpec;
use redsim_util::io::{FsyncPolicy, RealIo};
use redsim_util::Json;
use redsim_workloads::Workload;

const USAGE: &str = "usage: redsim-serve <serve|submit|status|metrics|shutdown> [options]\n\
     serve    --state-dir <dir> [--listen <addr> | --unix <path>] [--workers n] [--fsync p] [--deadline-ms n]\n\
     submit   --connect <ep> --workload <w> [--mode m] [--full] [--seed n] [--watchdog n] [--attribution] [--wait]\n\
     status | metrics | shutdown   --connect <ep>\n\
     <ep> is `tcp addr`, `unix path`, `addr`, or use --state-dir to read the endpoint file";

fn main() {
    let args = Args::from_env();
    match args.positional().first().map(String::as_str) {
        Some("serve") => cmd_serve(&args),
        Some("submit") => cmd_submit(&args),
        Some("status") => cmd_request(&args, &Json::obj().field("op", "status")),
        Some("metrics") => cmd_metrics(&args),
        Some("shutdown") => cmd_request(&args, &Json::obj().field("op", "shutdown")),
        _ => usage(USAGE),
    }
}

fn state_dir(args: &Args) -> PathBuf {
    match args.value_of("--state-dir") {
        Some(d) => PathBuf::from(d),
        None => usage(USAGE),
    }
}

fn cmd_serve(args: &Args) {
    let dir = state_dir(args);
    let workers = args
        .parsed_or("--workers", 1usize)
        .unwrap_or_else(|e| die(&e));
    let fsync = match args.value_of("--fsync") {
        None => FsyncPolicy::default(),
        Some(p) => FsyncPolicy::parse(p).unwrap_or_else(|| die(&format!("bad --fsync `{p}`"))),
    };
    let host_deadline = args.value_of("--deadline-ms").map(|ms| {
        let ms: u64 = ms
            .parse()
            .unwrap_or_else(|_| die(&format!("bad --deadline-ms `{ms}`")));
        std::time::Duration::from_millis(ms)
    });
    let opts = EngineOptions {
        workers,
        fsync,
        host_deadline,
        ..EngineOptions::default()
    };
    let engine = Arc::new(
        Engine::open(Arc::new(RealIo), &dir, opts).unwrap_or_else(|e| die(&e.to_string())),
    );

    if let Some(path) = args.value_of("--unix") {
        serve_on_unix(&engine, &dir, path);
    } else {
        let addr = args.value_of("--listen").unwrap_or("127.0.0.1:0");
        let listener =
            TcpListener::bind(addr).unwrap_or_else(|e| die(&format!("bind {addr}: {e}")));
        let local = listener
            .local_addr()
            .unwrap_or_else(|e| die(&format!("local_addr: {e}")));
        announce(&dir, &format!("tcp {local}"));
        serve_tcp(&engine, &listener).unwrap_or_else(|e| die(&format!("accept loop: {e}")));
    }
    engine
        .close()
        .unwrap_or_else(|e| die(&format!("final journal compaction: {e}")));
}

#[cfg(unix)]
fn serve_on_unix(engine: &Arc<Engine>, dir: &Path, path: &str) {
    use redsim_serve::net::serve_unix;
    let _ = std::fs::remove_file(path); // stale socket from a previous run
    let listener = std::os::unix::net::UnixListener::bind(path)
        .unwrap_or_else(|e| die(&format!("bind {path}: {e}")));
    announce(dir, &format!("unix {path}"));
    serve_unix(engine, &listener).unwrap_or_else(|e| die(&format!("accept loop: {e}")));
    let _ = std::fs::remove_file(path);
}

#[cfg(not(unix))]
fn serve_on_unix(_engine: &Arc<Engine>, _dir: &Path, _path: &str) {
    die("--unix is not available on this platform");
}

/// Prints the endpoint and records it in `<state-dir>/endpoint` so
/// scripts can find an ephemeral port.
fn announce(dir: &Path, endpoint: &str) {
    println!("listening {endpoint}");
    if let Err(e) = std::fs::write(dir.join("endpoint"), format!("{endpoint}\n")) {
        eprintln!("warning: could not write endpoint file: {e}");
    }
}

fn connect(args: &Args) -> Client {
    let endpoint = match args.value_of("--connect") {
        Some(ep) => ep.to_owned(),
        None => {
            let dir = state_dir(args);
            let path = dir.join("endpoint");
            std::fs::read_to_string(&path)
                .unwrap_or_else(|e| die(&format!("{}: {e}", path.display())))
        }
    };
    Client::connect(&endpoint).unwrap_or_else(|e| die(&format!("connect {}: {e}", endpoint.trim())))
}

fn cmd_request(args: &Args, req: &Json) {
    let mut client = connect(args);
    let resp = client.request(req).unwrap_or_else(|e| die(&e.to_string()));
    println!("{resp}");
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        std::process::exit(1);
    }
}

fn cmd_metrics(args: &Args) {
    let mut client = connect(args);
    let resp = client
        .request(&Json::obj().field("op", "metrics"))
        .unwrap_or_else(|e| die(&e.to_string()));
    match resp.get("prometheus").and_then(Json::as_str) {
        Some(text) => print!("{text}"),
        None => die(&format!("unexpected response: {resp}")),
    }
}

fn cmd_submit(args: &Args) {
    let workload = args.value_of("--workload").unwrap_or_else(|| usage(USAGE));
    let workload = Workload::from_name(workload)
        .unwrap_or_else(|| die(&format!("unknown workload `{workload}`")));
    let mode = args.value_of("--mode").unwrap_or("sie");
    let mode = ExecMode::from_name(mode).unwrap_or_else(|| die(&format!("unknown mode `{mode}`")));
    let mut spec = JobSpec::new(workload, mode);
    spec.quick = !args.has("--full");
    if let Some(s) = args.value_of("--seed") {
        spec.input_seed = Some(
            s.parse()
                .unwrap_or_else(|_| die(&format!("bad --seed `{s}`"))),
        );
    }
    if let Some(w) = args.value_of("--watchdog") {
        spec.watchdog = Some(
            w.parse()
                .unwrap_or_else(|_| die(&format!("bad --watchdog `{w}`"))),
        );
    }
    let fu: f64 = args
        .parsed_or("--fault-fu", 0.0)
        .unwrap_or_else(|e| die(&e));
    let bus: f64 = args
        .parsed_or("--fault-bus", 0.0)
        .unwrap_or_else(|e| die(&e));
    let irb: f64 = args
        .parsed_or("--fault-irb", 0.0)
        .unwrap_or_else(|e| die(&e));
    if fu != 0.0 || bus != 0.0 || irb != 0.0 {
        spec.faults = Some(FaultConfig {
            fu_rate: fu,
            forward_rate: bus,
            irb_rate: irb,
            seed: args
                .parsed_or("--fault-seed", 0u64)
                .unwrap_or_else(|e| die(&e)),
        });
    }
    spec.attribution = args.has("--attribution");

    let mut client = connect(args);
    let spec_json = Json::parse(&spec.canonical()).expect("canonical spec is JSON");
    let resp = client
        .request(&Json::obj().field("op", "submit").field("spec", spec_json))
        .unwrap_or_else(|e| die(&e.to_string()));
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        die(&format!("submit refused: {resp}"));
    }
    let id = resp
        .get("id")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| die(&format!("unexpected response: {resp}")));
    println!("{resp}");
    if args.has("--wait") {
        let resp = client
            .request(&Json::obj().field("op", "wait").field("id", id))
            .unwrap_or_else(|e| die(&e.to_string()));
        println!("{resp}");
        if resp.get("ok").and_then(Json::as_bool) != Some(true) {
            std::process::exit(1);
        }
    }
}
