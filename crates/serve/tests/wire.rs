//! Wire-level latency and bounds of the native protocol over TCP: a
//! round trip costs host work only, never a TCP timer, and the client
//! refuses an overlong response line before buffering it.
//!
//! A message that leaves in two writes (the JSON, then its `'\n'`)
//! stalls on Nagle plus the peer's delayed ACK, at least 40 ms on
//! Linux per direction. The medians below sit far under that stall,
//! so they fail on any host if the split write or Nagle comes back.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use redsim_core::ExecMode;
use redsim_serve::engine::{Engine, EngineOptions};
use redsim_serve::net::{serve_tcp, Client, MAX_RESPONSE_LINE};
use redsim_serve::spec::JobSpec;
use redsim_util::io::RealIo;
use redsim_util::Json;
use redsim_workloads::Workload;

/// The bound on a median round trip: a quarter of one delayed-ACK stall.
const MEDIAN_BOUND: Duration = Duration::from_millis(10);

fn test_dir(tag: &str) -> PathBuf {
    let base = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let d = base.join(format!("wire-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Opens an engine in a fresh directory and serves it over TCP on an
/// ephemeral port until shutdown.
fn spawn_server(tag: &str) -> (Arc<Engine>, SocketAddr, std::thread::JoinHandle<()>) {
    let opts = EngineOptions {
        workers: 2,
        trace_budget: 20_000_000,
        ..EngineOptions::default()
    };
    let engine =
        Arc::new(Engine::open(Arc::new(RealIo), &test_dir(tag), opts).expect("open engine"));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let served = Arc::clone(&engine);
    let handle = std::thread::spawn(move || serve_tcp(&served, &listener).expect("accept loop"));
    (engine, addr, handle)
}

fn shutdown(mut client: Client, engine: &Engine, server: std::thread::JoinHandle<()>) {
    client
        .request(&Json::obj().field("op", "shutdown"))
        .expect("shutdown");
    server.join().expect("server thread");
    engine.close().expect("close");
}

/// The median of `n` timed `req` round trips; every answer must be ok.
/// Returns it with the length of the last response line.
fn median_round_trip(client: &mut Client, req: &Json, n: usize) -> (Duration, usize) {
    let mut times = Vec::with_capacity(n);
    let mut len = 0;
    for _ in 0..n {
        let t0 = Instant::now();
        let resp = client.request(req).expect("round trip");
        times.push(t0.elapsed());
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        len = resp.to_string().len() + 1;
    }
    times.sort();
    (times[n / 2], len)
}

#[test]
fn tcp_pings_take_no_delayed_ack_stall() {
    let (engine, addr, server) = spawn_server("ping");
    let mut client = Client::connect_tcp(&addr.to_string()).expect("connect");
    let (median, _) = median_round_trip(&mut client, &Json::obj().field("op", "ping"), 50);
    assert!(median < MEDIAN_BOUND, "median ping {median:?}");
    shutdown(client, &engine, server);
}

#[test]
fn multi_segment_attribution_waits_take_no_delayed_ack_stall() {
    let (engine, addr, server) = spawn_server("attribution");
    let mut client = Client::connect_tcp(&addr.to_string()).expect("connect");
    let mut spec = JobSpec::new(Workload::Gzip, ExecMode::DieIrb);
    spec.attribution = true;
    let spec_json = Json::parse(&spec.canonical()).expect("spec json");
    let ack = client
        .request(&Json::obj().field("op", "submit").field("spec", spec_json))
        .expect("submit");
    let id = ack.get("id").and_then(Json::as_u64).expect("id");
    let wait = Json::obj()
        .field("op", "wait")
        .field("id", id)
        .field("timeout_ms", 300_000u64);
    // The first wait runs the job; the timed ones are served finished.
    client.request(&wait).expect("first wait");

    let (median, len) = median_round_trip(&mut client, &wait, 20);
    assert!(
        len > 1460,
        "the response should span more than one 1460-byte Ethernet segment: {len} bytes"
    );
    assert!(median < MEDIAN_BOUND, "median attribution wait {median:?}");
    shutdown(client, &engine, server);
}

#[test]
fn overlong_response_line_is_refused_at_the_cap() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    // A fake server that answers the first request with a line longer
    // than the client's cap and never terminates it, then holds the
    // connection open until the client hangs up — so only the cap, not
    // an EOF, can end the client's read.
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut request = String::new();
        reader.read_line(&mut request).expect("request line");
        let mut writer = stream;
        let chunk = vec![b'A'; 64 * 1024];
        let mut sent = 0;
        while sent <= MAX_RESPONSE_LINE {
            if writer.write_all(&chunk).is_err() {
                return;
            }
            sent += chunk.len();
        }
        let _ = reader.read_line(&mut request);
    });

    let mut client = Client::connect_tcp(&addr.to_string()).expect("connect");
    let err = client
        .request(&Json::obj().field("op", "ping"))
        .expect_err("an overlong response line must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("cap"), "{err}");
    drop(client);
    fake.join().expect("fake server");
}
