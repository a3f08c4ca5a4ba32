//! The wire layer: blocking `std::net` servers and a small client.
//!
//! The native protocol is one JSON object per line in each direction:
//!
//! ```text
//! → {"op":"submit","spec":{"workload":"gzip","mode":"die-irb"}}
//! ← {"ok":true,"id":0,"cached":false}
//! → {"op":"wait","id":0}
//! ← {"ok":true,"id":0,"res":{"ok":true,"fp":"…","cycles":…}}
//! ```
//!
//! Ops: `ping`, `submit`, `wait` (optional `timeout_ms`), `status`,
//! `metrics`, `shutdown`. Errors come back as
//! `{"ok":false,"error":"…"}` and keep the connection open; a
//! malformed line closes it.
//!
//! A connection whose first line is an HTTP request line is treated
//! as HTTP/1.1 with no HTTP stack in the tree: `GET /metrics` answers
//! with the Prometheus text exposition, `GET /jobs`,
//! `GET /jobs/<id>` and `GET /jobs/<id>/attribution` serve the stored
//! deterministic JSON results, non-GET methods get 405 and unknown
//! paths 404. Request lines are capped at [`MAX_REQUEST_LINE`] bytes
//! and response lines at [`MAX_RESPONSE_LINE`], so an oversized line
//! cannot make either end buffer unbounded input.
//!
//! Framing rule: one message, one write. Every native message (JSON
//! plus its `'\n'`) and every HTTP response is rendered into one buffer
//! and handed to the stream in a single `write_all`, and both TCP ends
//! set `TCP_NODELAY`. A message split over two writes leaves its tail
//! as a second small segment that Nagle holds until the first is
//! ACKed, while the peer delays that ACK (≥ 40 ms on Linux) because it
//! has not yet seen a full line; paid once in each direction, that
//! stall was the 88 ms floor under every round trip.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use redsim_util::Json;

use crate::engine::{Engine, RequestKind};
use crate::spec::JobSpec;
use crate::ServeError;

/// How often the accept loop polls the engine's stop flag.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// How often an idle connection re-checks the engine's stop flag.
const CONN_READ_TIMEOUT: Duration = Duration::from_millis(500);

/// Hard cap on one request line (native op or HTTP request/header
/// line). Longer lines are rejected and the connection closed before
/// the buffer can grow past this.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Hard cap on one response line read by [`Client::request`]. The
/// largest real response is a `wait` on an `--attribution` job, whose
/// breakdown is folded to a fixed top-K: measured over the twelve
/// workloads in every mode, quick and full sizing, the longest line is
/// 1,911 bytes (gcc, die-irb, full) and a `metrics` response ~4.4 KB.
/// The cap leaves two orders of magnitude of headroom over both.
pub const MAX_RESPONSE_LINE: usize = 256 * 1024;

/// How many HTTP header lines are drained before responding; anything
/// beyond is ignored (the connection closes after the response).
const MAX_HTTP_HEADERS: usize = 64;

/// Serves the native protocol (and `GET /metrics`) on a TCP listener
/// until the engine is stopped (e.g. by a `shutdown` op).
///
/// # Errors
///
/// Any `io::Error` from the listener itself; per-connection errors
/// only close that connection.
pub fn serve_tcp(engine: &Arc<Engine>, listener: &TcpListener) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    accept_loop(
        engine,
        || {
            let (stream, _peer) = listener.accept()?;
            stream.set_nonblocking(false)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(CONN_READ_TIMEOUT))?;
            Ok(stream)
        },
        TcpStream::try_clone,
    )
}

/// Unix-socket twin of [`serve_tcp`].
///
/// # Errors
///
/// Any `io::Error` from the listener itself.
#[cfg(unix)]
pub fn serve_unix(engine: &Arc<Engine>, listener: &UnixListener) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    accept_loop(
        engine,
        || {
            let (stream, _peer) = listener.accept()?;
            stream.set_nonblocking(false)?;
            stream.set_read_timeout(Some(CONN_READ_TIMEOUT))?;
            Ok(stream)
        },
        UnixStream::try_clone,
    )
}

/// The accept loop both listeners share. `accept` polls the
/// non-blocking listener for one connection, returned ready for
/// blocking reads; each connection gets a thread reading from a
/// `try_clone` of its stream and writing to the original.
fn accept_loop<S: Read + Write + Send + 'static>(
    engine: &Arc<Engine>,
    mut accept: impl FnMut() -> io::Result<S>,
    try_clone: fn(&S) -> io::Result<S>,
) -> io::Result<()> {
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        match accept() {
            Ok(mut stream) => {
                let engine = Arc::clone(engine);
                conns.push(std::thread::spawn(move || {
                    if let Ok(reader) = try_clone(&stream) {
                        handle_conn(&engine, BufReader::new(reader), &mut stream);
                    }
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if engine.stopped() {
                    break;
                }
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        conns.retain(|h| !h.is_finished());
    }
    for h in conns {
        let _ = h.join();
    }
    Ok(())
}

/// The one bounded line reader, for both ends: reads a line of at most
/// `cap` bytes into `line`, reusing its allocation. A read timeout
/// means "ask `stopped` and keep waiting unless it says stop" (then
/// `Ok(0)`), so idle keep-alive connections don't pin the server; a
/// timeout mid-line keeps the partial bytes and resumes.
///
/// An overlong line fails with `InvalidData` *before* buffering past
/// the cap — a peer streaming an unterminated line can never make
/// this end allocate unbounded memory.
fn read_line_capped<R: BufRead>(
    reader: &mut R,
    line: &mut String,
    cap: usize,
    stopped: &dyn Fn() -> bool,
) -> io::Result<usize> {
    let mut bytes = std::mem::take(line).into_bytes();
    bytes.clear();
    loop {
        let (used, done) = match reader.fill_buf() {
            Ok([]) => break, // EOF: hand back any partial line, like read_line.
            Ok(available) => match available.iter().position(|&b| b == b'\n') {
                Some(i) => ((i + 1).min(available.len()), true),
                None => (available.len(), false),
            },
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stopped() {
                    return Ok(0);
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if bytes.len() + used > cap {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line exceeds the {cap}-byte cap"),
            ));
        }
        bytes.extend_from_slice(&reader.fill_buf()?[..used]);
        reader.consume(used);
        if done {
            break;
        }
    }
    *line = String::from_utf8(bytes)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "line is not UTF-8"))?;
    Ok(line.len())
}

/// Whether a first line spells an HTTP request line (any method);
/// native-protocol lines are JSON objects, which never do.
fn looks_like_http(line: &str) -> bool {
    let line = line.trim_end();
    line.ends_with("HTTP/1.1") || line.ends_with("HTTP/1.0")
}

/// Drives one connection: HTTP if it opens with a request line,
/// otherwise the line protocol until EOF, error, or a `shutdown` op.
fn handle_conn<R: BufRead>(engine: &Engine, mut reader: R, writer: &mut dyn Write) {
    let stopped = || engine.stopped();
    let mut line = String::new();
    if read_line_capped(&mut reader, &mut line, MAX_REQUEST_LINE, &stopped).unwrap_or(0) == 0 {
        return;
    }
    if looks_like_http(&line) {
        let _ = respond_http(engine, &line, &mut reader, writer);
        return;
    }
    loop {
        let (response, shutdown) = dispatch(engine, line.trim_end());
        if send_line(writer, &response).is_err() || shutdown {
            return;
        }
        match read_line_capped(&mut reader, &mut line, MAX_REQUEST_LINE, &stopped) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

/// Sends one native message: `msg` and its `'\n'` rendered into one
/// buffer and handed to the stream in a single `write_all` (the module
/// doc's framing rule).
fn send_line(writer: &mut dyn Write, msg: &Json) -> io::Result<()> {
    let mut line = msg.to_string();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Answers one HTTP request (already-read request line in `first`)
/// with one `write_all` of the whole response.
fn respond_http<R: BufRead>(
    engine: &Engine,
    first: &str,
    reader: &mut R,
    writer: &mut dyn Write,
) -> io::Result<()> {
    engine.count_request(RequestKind::Http);
    // Drain the request headers up to the blank line, each bounded by
    // the request-line cap and at most MAX_HTTP_HEADERS of them.
    let stopped = || engine.stopped();
    let mut line = String::new();
    for _ in 0..MAX_HTTP_HEADERS {
        if read_line_capped(reader, &mut line, MAX_REQUEST_LINE, &stopped)? == 0
            || line.trim_end().is_empty()
        {
            break;
        }
    }
    let mut parts = first.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("/");
    let (status, content_type, body) = route(engine, method, path);
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    writer.write_all(response.as_bytes())?;
    writer.flush()
}

/// Resolves one HTTP request to (status, content type, body).
fn route(engine: &Engine, method: &str, path: &str) -> (&'static str, &'static str, String) {
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain",
            "only GET is supported\n".to_owned(),
        );
    }
    if path == "/metrics" {
        return (
            "200 OK",
            "text/plain; version=0.0.4",
            engine.metrics_registry().to_prometheus(),
        );
    }
    if path == "/jobs" {
        return ("200 OK", "application/json", engine.jobs_json().to_string());
    }
    if let Some(rest) = path.strip_prefix("/jobs/") {
        let (id, attribution) = match rest.strip_suffix("/attribution") {
            Some(id) => (id, true),
            None => (rest, false),
        };
        if let Ok(id) = id.parse::<u64>() {
            return job_route(engine, id, attribution);
        }
    }
    (
        "404 Not Found",
        "text/plain",
        "not found; try /metrics, /jobs, /jobs/<id>, /jobs/<id>/attribution\n".to_owned(),
    )
}

/// `GET /jobs/<id>` serves the stored result payload verbatim;
/// `/jobs/<id>/attribution` extracts just its `"attribution"` section
/// (`null` when the job ran without attribution). A known job without
/// a result yet answers `{"id":…,"done":false}`; an id the engine
/// never acknowledged is 404.
fn job_route(engine: &Engine, id: u64, attribution: bool) -> (&'static str, &'static str, String) {
    match engine.result(id) {
        Some(res) if attribution => {
            let attr = Json::parse(&res)
                .ok()
                .and_then(|j| j.get("attribution").cloned())
                .unwrap_or(Json::Null);
            ("200 OK", "application/json", attr.to_string())
        }
        Some(res) => ("200 OK", "application/json", res),
        None if engine.knows(id) => (
            "200 OK",
            "application/json",
            Json::obj().field("id", id).field("done", false).to_string(),
        ),
        None => (
            "404 Not Found",
            "application/json",
            Json::obj()
                .field("error", "unknown job")
                .field("id", id)
                .to_string(),
        ),
    }
}

fn err_response(msg: &str) -> Json {
    Json::obj().field("ok", false).field("error", msg)
}

fn serve_error_response(e: &ServeError) -> Json {
    err_response(&e.to_string())
}

/// Executes one request line, returning the response and whether the
/// connection (and server) should shut down.
fn dispatch(engine: &Engine, line: &str) -> (Json, bool) {
    let j = match Json::parse(line) {
        Ok(j) => j,
        Err(e) => return (err_response(&format!("bad request: {e}")), false),
    };
    let op = j.get("op").and_then(Json::as_str).unwrap_or("");
    match op {
        "ping" => engine.count_request(RequestKind::Ping),
        "submit" => engine.count_request(RequestKind::Submit),
        "wait" => engine.count_request(RequestKind::Wait),
        "status" => engine.count_request(RequestKind::Status),
        "metrics" => engine.count_request(RequestKind::Metrics),
        "shutdown" => engine.count_request(RequestKind::Shutdown),
        _ => {}
    }
    let response = match op {
        "ping" => Json::obj().field("ok", true).field("pong", true),
        "submit" => match j.get("spec").map(JobSpec::parse) {
            None => err_response("submit needs a \"spec\" object"),
            Some(Err(e)) => err_response(&e),
            Some(Ok(spec)) => match engine.submit(&spec) {
                Ok((id, cached)) => Json::obj()
                    .field("ok", true)
                    .field("id", id)
                    .field("cached", cached),
                Err(e) => serve_error_response(&e),
            },
        },
        "wait" => match j.get("id").and_then(Json::as_u64) {
            None => err_response("wait needs an \"id\""),
            Some(id) => {
                let timeout = j
                    .get("timeout_ms")
                    .and_then(Json::as_u64)
                    .map(Duration::from_millis);
                match engine.wait(id, timeout) {
                    Ok(Some(res)) => {
                        let res = Json::parse(&res).unwrap_or_else(|_| Json::Str(res.clone()));
                        Json::obj()
                            .field("ok", true)
                            .field("id", id)
                            .field("res", res)
                    }
                    Ok(None) => err_response("timeout"),
                    Err(e) => serve_error_response(&e),
                }
            }
        },
        "status" => {
            let s = engine.status();
            Json::obj()
                .field("ok", true)
                .field("queued", s.queued)
                .field("running", s.running)
                .field("done", s.done)
                .field("failed", s.failed)
                .field("next_id", s.next_id)
        }
        "metrics" => Json::obj()
            .field("ok", true)
            .field("prometheus", engine.metrics_registry().to_prometheus()),
        "shutdown" => {
            engine.stop();
            Json::obj().field("ok", true).field("stopping", true)
        }
        other => err_response(&format!("unknown op {other:?}")),
    };
    (response, op == "shutdown")
}

/// One end of a client connection (TCP or unix socket).
enum ClientStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Read for ClientStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ClientStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            ClientStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for ClientStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ClientStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            ClientStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            ClientStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            ClientStream::Unix(s) => s.flush(),
        }
    }
}

/// A blocking line-protocol client.
pub struct Client {
    reader: BufReader<ClientStream>,
    writer: ClientStream,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client").finish_non_exhaustive()
    }
}

impl Client {
    /// Connects to an endpoint: `tcp <addr>`, `unix <path>`, or a
    /// bare `<host>:<port>`.
    ///
    /// # Errors
    ///
    /// Any `io::Error` from connecting, or `InvalidInput` for an
    /// endpoint spelling this build cannot reach.
    pub fn connect(endpoint: &str) -> io::Result<Client> {
        let endpoint = endpoint.trim();
        if let Some(path) = endpoint.strip_prefix("unix ") {
            return Self::connect_unix(Path::new(path.trim()));
        }
        let addr = endpoint.strip_prefix("tcp ").unwrap_or(endpoint).trim();
        Self::connect_tcp(addr)
    }

    /// Connects over TCP.
    ///
    /// # Errors
    ///
    /// Any `io::Error` from `TcpStream::connect`.
    pub fn connect_tcp(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = ClientStream::Tcp(stream.try_clone()?);
        Ok(Client {
            reader: BufReader::new(reader),
            writer: ClientStream::Tcp(stream),
        })
    }

    /// Connects over a unix socket.
    ///
    /// # Errors
    ///
    /// Any `io::Error` from `UnixStream::connect`; `InvalidInput` on
    /// non-unix builds.
    pub fn connect_unix(path: &Path) -> io::Result<Client> {
        #[cfg(unix)]
        {
            let stream = UnixStream::connect(path)?;
            let reader = ClientStream::Unix(stream.try_clone()?);
            Ok(Client {
                reader: BufReader::new(reader),
                writer: ClientStream::Unix(stream),
            })
        }
        #[cfg(not(unix))]
        {
            let _ = path;
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "unix sockets are not available on this platform",
            ))
        }
    }

    /// Sends one request and reads one response line.
    ///
    /// # Errors
    ///
    /// Any transport `io::Error`, or `InvalidData` when the response
    /// is not a JSON object or its line would exceed
    /// [`MAX_RESPONSE_LINE`] bytes.
    pub fn request(&mut self, req: &Json) -> io::Result<Json> {
        send_line(&mut self.writer, req)?;
        // The client sets no read timeout, so it never has to decide
        // whether to stop waiting.
        let mut line = String::new();
        if read_line_capped(&mut self.reader, &mut line, MAX_RESPONSE_LINE, &|| false)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Json::parse(line.trim_end())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use redsim_util::io::RealIo;

    /// A `Write` that keeps every `write` call's bytes separately.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn engine(tag: &str) -> Engine {
        let dir = std::env::temp_dir().join(format!("redsim-net-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = EngineOptions {
            workers: 1,
            ..EngineOptions::default()
        };
        Engine::open(Arc::new(RealIo), &dir, opts).expect("open engine")
    }

    /// The `write` calls `handle_conn` makes answering `input`.
    fn writes_for(engine: &Engine, input: &str) -> Vec<String> {
        let mut out = CountingWriter::default();
        handle_conn(engine, input.as_bytes(), &mut out);
        out.writes
            .into_iter()
            .map(|w| String::from_utf8(w).expect("utf-8 response"))
            .collect()
    }

    #[test]
    fn send_line_is_one_write_of_the_message_and_its_newline() {
        let mut out = CountingWriter::default();
        let msg = Json::obj().field("ok", true).field("pong", true);
        send_line(&mut out, &msg).expect("send");
        assert_eq!(out.writes, vec![b"{\"ok\":true,\"pong\":true}\n".to_vec()]);
    }

    #[test]
    fn each_native_response_is_one_write() {
        let engine = engine("native");
        let input = "{\"op\":\"ping\"}\n{\"op\":\"status\"}\n{\"op\":\"metrics\"}\n\
                     {\"op\":\"nope\"}\nnot json\n";
        let writes = writes_for(&engine, input);
        assert_eq!(writes.len(), 5, "{writes:?}");
        assert_eq!(writes[0], "{\"ok\":true,\"pong\":true}\n");
        for w in &writes {
            assert!(w.ends_with('\n'), "{w:?}");
            assert_eq!(w.matches('\n').count(), 1, "one message per write: {w:?}");
            Json::parse(w.trim_end()).expect("each write is one JSON object");
        }
        engine.close().expect("close");
    }

    #[test]
    fn each_http_response_is_one_write_with_unchanged_bytes() {
        let engine = engine("http");
        for path in ["/metrics", "/jobs", "/jobs/7", "/nope"] {
            let writes = writes_for(&engine, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"));
            assert_eq!(writes.len(), 1, "{path}: {writes:?}");
            let (head, body) = writes[0].split_once("\r\n\r\n").expect("head/body");
            assert!(head.starts_with("HTTP/1.1 "), "{head}");
            assert!(
                head.ends_with(&format!(
                    "Content-Length: {}\r\nConnection: close",
                    body.len()
                )),
                "{head}"
            );
        }
        let body = "not found; try /metrics, /jobs, /jobs/<id>, /jobs/<id>/attribution\n";
        assert_eq!(
            writes_for(&engine, "GET /nope HTTP/1.1\r\n\r\n"),
            vec![format!(
                "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\
                 Connection: close\r\n\r\n{body}",
                body.len()
            )]
        );
        let writes = writes_for(&engine, "POST /jobs HTTP/1.1\r\n\r\n");
        assert_eq!(writes.len(), 1, "{writes:?}");
        assert!(writes[0].starts_with("HTTP/1.1 405 Method Not Allowed\r\n"));
        engine.close().expect("close");
    }

    #[test]
    fn capped_reader_reuses_its_line_and_refuses_overlong_input() {
        let never = || false;
        let mut reader = BufReader::new("first\nsecond\ntail".as_bytes());
        let mut line = String::with_capacity(64);
        let buffer = line.as_ptr();
        for want in ["first\n", "second\n", "tail"] {
            let n = read_line_capped(&mut reader, &mut line, 64, &never).expect("line");
            assert_eq!((n, line.as_str()), (want.len(), want));
            assert_eq!(line.as_ptr(), buffer, "the line's allocation is reused");
        }
        assert_eq!(
            read_line_capped(&mut reader, &mut line, 64, &never).expect("eof"),
            0
        );

        // An unterminated line fails at the cap, having taken no more
        // than the cap from the reader.
        let total = 1 << 20;
        let mut flood = BufReader::new(io::repeat(b'A').take(total));
        let err = read_line_capped(&mut flood, &mut line, 4096, &never).expect_err("cap");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let taken = total - flood.get_ref().limit() - flood.buffer().len() as u64;
        assert!(taken <= 4096, "took {taken} bytes past a 4096-byte cap");

        let err = read_line_capped(&mut &b"\xff\n"[..], &mut line, 64, &never).expect_err("utf-8");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
