//! Minimal HTTP/1.1 over TCP.
//!
//! Implements exactly the subset the SPATIAL deployment needs: `GET`/`POST` with
//! `Content-Length` bodies and status lines. No chunked encoding, no TLS — the
//! paper's cluster runs on a trusted internal network and so does this one
//! (loopback). Two transports share the parsing/validation logic in this module:
//! the original blocking [`HttpServer`] (thread-per-connection, one request per
//! connection, `Connection: close` — JMeter's default HTTP sampler shape) and the
//! readiness-driven [`crate::reactor::ReactorServer`] (non-blocking sockets,
//! HTTP/1.1 keep-alive and pipelining), which consumes the incremental
//! [`parse_request_buffer`] entry point over per-connection buffers.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Maximum accepted body size (16 MiB) — a hygiene bound against runaway peers.
pub(crate) const MAX_BODY: usize = 16 << 20;

/// Maximum accepted bytes for the request/status line plus all headers (32 KiB).
/// Without this bound a misbehaving peer could stream an endless header section and
/// grow memory without limit despite [`MAX_BODY`].
pub(crate) const MAX_HEAD: usize = 32 << 10;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Path with query string, e.g. `/shap/explain`.
    pub path: String,
    /// Lower-cased header map.
    pub headers: HashMap<String, String>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// True when the client asked for the connection to close after this request
    /// (`Connection: close`). HTTP/1.1 defaults to keep-alive.
    pub fn wants_close(&self) -> bool {
        self.headers.get("connection").is_some_and(|v| v.trim().eq_ignore_ascii_case("close"))
    }
}

/// An HTTP response under construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code (200, 404, 503, ...).
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Content type header value.
    pub content_type: String,
    /// Extra `x-*` response headers (lowercase names, CR/LF-free values). The
    /// standard `content-length`/`content-type`/`connection` trio is always emitted
    /// separately and never belongs here.
    pub headers: Vec<(String, String)>,
}

impl Response {
    /// A 200 response with a JSON body.
    pub fn json(body: impl Into<Vec<u8>>) -> Self {
        Self {
            status: 200,
            body: body.into(),
            content_type: "application/json".into(),
            headers: Vec::new(),
        }
    }

    /// A plain-text response with the given status.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            body: body.into().into_bytes(),
            content_type: "text/plain; charset=utf-8".into(),
            headers: Vec::new(),
        }
    }

    /// Returns the response with an extra header attached.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// First value of a (lowercase) extra header, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// The status phrase for serialization.
    fn phrase(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Status",
        }
    }

    /// Serializes the response to wire bytes. The `connection` header is the only
    /// byte-level difference between the blocking server (`close`) and the reactor
    /// under keep-alive — the keep-alive determinism test pins this.
    pub(crate) fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        out.extend_from_slice(
            format!(
                "HTTP/1.1 {} {}\r\ncontent-length: {}\r\ncontent-type: {}\r\nconnection: {}\r\n",
                self.status,
                self.phrase(),
                self.body.len(),
                self.content_type,
                if keep_alive { "keep-alive" } else { "close" },
            )
            .as_bytes(),
        );
        for (name, value) in &self.headers {
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(value.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }

    pub(crate) fn write_to(&self, stream: &mut impl Write) -> std::io::Result<()> {
        stream.write_all(&self.to_bytes(false))?;
        stream.flush()
    }
}

/// Error from HTTP parsing or transport.
#[derive(Debug)]
pub enum HttpError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The peer sent something that isn't HTTP/1.1 as we speak it.
    Malformed(String),
    /// The peer's head section (request line + headers) exceeded [`MAX_HEAD`];
    /// servers answer this with `431 Request Header Fields Too Large`.
    TooLarge(String),
    /// The peer declared a body exceeding [`MAX_BODY`]; servers answer this with
    /// `413 Payload Too Large` (distinct from 400: the request was well-formed,
    /// just bigger than this deployment accepts).
    BodyTooLarge(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io error: {e}"),
            Self::Malformed(what) => write!(f, "malformed http: {what}"),
            Self::TooLarge(what) => write!(f, "oversized http head: {what}"),
            Self::BodyTooLarge(what) => write!(f, "oversized http body: {what}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Reads one `\n`-terminated line, charging its bytes against `budget`.
///
/// The returned line keeps its terminator (like [`BufRead::read_line`]); callers
/// trim. Exceeding the budget is a [`HttpError::TooLarge`].
fn read_line_bounded(reader: &mut impl BufRead, budget: &mut usize) -> Result<String, HttpError> {
    let mut buf = Vec::new();
    // +1 so we can tell "exactly at budget" from "over budget".
    reader.take(*budget as u64 + 1).read_until(b'\n', &mut buf)?;
    if buf.len() > *budget {
        return Err(HttpError::TooLarge(format!("head exceeds the {MAX_HEAD}-byte limit")));
    }
    // EOF before the line terminator: the peer closed (or shut down) mid-head. The
    // old behaviour returned the partial line, which let a truncated head parse as
    // a complete zero-header request instead of being rejected.
    if !buf.ends_with(b"\n") {
        return Err(HttpError::Malformed("head truncated before line terminator".into()));
    }
    *budget -= buf.len();
    String::from_utf8(buf).map_err(|_| HttpError::Malformed("non-utf8 head line".into()))
}

/// Reads one request from a stream.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    let mut budget = MAX_HEAD;
    let line = read_line_bounded(&mut reader, &mut budget)?;
    let mut parts = line.split_whitespace();
    let method =
        parts.next().ok_or_else(|| HttpError::Malformed("empty request line".into()))?.to_string();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("request line lacks a path".into()))?
        .to_string();

    let mut headers = HashMap::new();
    loop {
        let header = read_line_bounded(&mut reader, &mut budget)?;
        let trimmed = header.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line: {trimmed}")));
        };
        let name = name.trim().to_ascii_lowercase();
        if name.is_empty() {
            return Err(HttpError::Malformed("empty header name".into()));
        }
        // Last-wins on repeated headers is fine for application headers, but a
        // repeated content-length is the classic request-smuggling vector (two
        // parsers, two framings); reject it outright.
        if headers.insert(name.clone(), value.trim().to_string()).is_some()
            && name == "content-length"
        {
            return Err(HttpError::Malformed("duplicate content-length".into()));
        }
    }

    let len = body_length(&headers)?;
    if len > MAX_BODY {
        return Err(HttpError::BodyTooLarge(format!(
            "declared body of {len} bytes exceeds the {MAX_BODY}-byte limit"
        )));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(Request { method, path, headers, body })
}

/// Parses the declared body length: absent means 0; anything but a plain ASCII
/// digit string is malformed. `usize::from_str` alone would accept `"+5"`, which a
/// lenient upstream parser can frame differently than we do — the same smuggling
/// class as a duplicate content-length.
fn body_length(headers: &HashMap<String, String>) -> Result<usize, HttpError> {
    let Some(v) = headers.get("content-length") else {
        return Ok(0);
    };
    if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
        return Err(HttpError::Malformed(format!("non-numeric content-length: {v:?}")));
    }
    v.parse().map_err(|_| HttpError::Malformed(format!("unparsable content-length: {v:?}")))
}

/// Outcome of incrementally parsing a connection's buffered bytes.
#[derive(Debug)]
pub(crate) enum Parsed {
    /// A complete request plus the number of buffered bytes it consumed.
    Complete(Request, usize),
    /// The buffer holds a valid prefix; more bytes are needed.
    Partial,
}

/// Takes one `\n`-terminated line out of `buf` starting at `pos`, charging its
/// bytes against `budget` — the buffered twin of [`read_line_bounded`], enforcing
/// the identical [`MAX_HEAD`] accounting. Returns `None` when the line is still
/// incomplete (and within budget).
fn take_line<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    budget: &mut usize,
) -> Result<Option<&'a str>, HttpError> {
    let rest = &buf[*pos..];
    match rest.iter().position(|&b| b == b'\n') {
        Some(i) => {
            let line_len = i + 1;
            if line_len > *budget {
                return Err(HttpError::TooLarge(format!("head exceeds the {MAX_HEAD}-byte limit")));
            }
            *budget -= line_len;
            let line = std::str::from_utf8(&rest[..line_len])
                .map_err(|_| HttpError::Malformed("non-utf8 head line".into()))?;
            *pos += line_len;
            Ok(Some(line))
        }
        None if rest.len() > *budget => {
            Err(HttpError::TooLarge(format!("head exceeds the {MAX_HEAD}-byte limit")))
        }
        None => Ok(None),
    }
}

/// Parses one request out of a connection buffer without consuming the stream —
/// the reactor's entry point. Mirrors [`read_request`] check for check (duplicate
/// content-length, digit-only lengths, empty header names, the [`MAX_HEAD`] /
/// [`MAX_BODY`] bounds), so the non-blocking core rejects exactly what the
/// blocking core rejects.
pub(crate) fn parse_request_buffer(buf: &[u8]) -> Result<Parsed, HttpError> {
    let mut pos = 0usize;
    let mut budget = MAX_HEAD;
    let Some(line) = take_line(buf, &mut pos, &mut budget)? else {
        return Ok(Parsed::Partial);
    };
    let mut parts = line.split_whitespace();
    let method =
        parts.next().ok_or_else(|| HttpError::Malformed("empty request line".into()))?.to_string();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("request line lacks a path".into()))?
        .to_string();

    let mut headers = HashMap::new();
    loop {
        let Some(header) = take_line(buf, &mut pos, &mut budget)? else {
            return Ok(Parsed::Partial);
        };
        let trimmed = header.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line: {trimmed}")));
        };
        let name = name.trim().to_ascii_lowercase();
        if name.is_empty() {
            return Err(HttpError::Malformed("empty header name".into()));
        }
        if headers.insert(name.clone(), value.trim().to_string()).is_some()
            && name == "content-length"
        {
            return Err(HttpError::Malformed("duplicate content-length".into()));
        }
    }

    let len = body_length(&headers)?;
    if len > MAX_BODY {
        return Err(HttpError::BodyTooLarge(format!(
            "declared body of {len} bytes exceeds the {MAX_BODY}-byte limit"
        )));
    }
    if buf.len() - pos < len {
        return Ok(Parsed::Partial);
    }
    let body = buf[pos..pos + len].to_vec();
    Ok(Parsed::Complete(Request { method, path, headers, body }, pos + len))
}

/// Maps a parse error to the status the blocking accept loop answers with.
pub(crate) fn error_status(e: &HttpError) -> u16 {
    match e {
        HttpError::TooLarge(_) => 431,
        HttpError::BodyTooLarge(_) => 413,
        _ => 400,
    }
}

/// Reads one response from a stream (client side).
///
/// Allocates a fresh [`BufReader`] per call, which is only safe when at most one
/// response is in flight on the stream (the buffered reader would otherwise
/// swallow bytes of the next response). Pipelined clients — the keep-alive pooled
/// client, the fuzz harness — must hold one reader across responses and call
/// [`read_response_buffered`] instead.
pub fn read_response(stream: &mut TcpStream) -> Result<Response, HttpError> {
    let mut reader = BufReader::new(stream);
    read_response_buffered(&mut reader)
}

/// Reads one response through a caller-owned buffered reader, leaving any
/// following pipelined response bytes in the reader for the next call.
pub fn read_response_buffered(reader: &mut impl BufRead) -> Result<Response, HttpError> {
    read_response_keep_conn(reader).map(|(resp, _)| resp)
}

/// Like [`read_response_buffered`], but also reports whether the server asked to
/// close the connection (`connection: close`) — the signal the pooled keep-alive
/// client uses to decide whether a connection may be returned to its pool.
pub(crate) fn read_response_keep_conn(
    mut reader: &mut impl BufRead,
) -> Result<(Response, bool), HttpError> {
    let mut budget = MAX_HEAD;
    let line = read_line_bounded(&mut reader, &mut budget)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Malformed(format!("bad status line: {line}")))?;
    let mut content_type = "text/plain".to_string();
    let mut len = 0usize;
    let mut extra = Vec::new();
    let mut server_close = false;
    loop {
        let header = read_line_bounded(&mut reader, &mut budget)?;
        let trimmed = header.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            match name.as_str() {
                "content-length" => {
                    len = value
                        .trim()
                        .parse()
                        .map_err(|_| HttpError::Malformed("unparsable content-length".into()))?;
                }
                "content-type" => content_type = value.trim().to_string(),
                "connection" => server_close = value.trim().eq_ignore_ascii_case("close"),
                // Application headers (x-spatial-degraded, ...) survive the hop so
                // the gateway can forward them to its own client.
                _ => extra.push((name, value.trim().to_string())),
            }
        }
    }
    if len > MAX_BODY {
        return Err(HttpError::Malformed(format!("body of {len} bytes exceeds limit")));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok((Response { status, body, content_type, headers: extra }, server_close))
}

/// Header names the clients frame themselves on every request. Caller-supplied
/// values for these are dropped: a second `content-length` is the classic
/// request-smuggling shape the PR-5-hardened servers reject with 400, and a
/// caller's `connection: close` would silently defeat pooling.
const RESERVED_HEADERS: [&str; 3] = ["host", "content-length", "connection"];

/// Encodes one complete request into `out` (cleared first, capacity kept):
/// request line, the client-owned `host`/`content-length`/`connection` trio,
/// the caller's headers in order minus [`RESERVED_HEADERS`], a blank line and
/// the body. Both clients send the result with a single `write_all` — the one
/// place a request head is built, and the reason a request is never split
/// across segments (see DESIGN.md §15, transport rules).
pub(crate) fn encode_request<'a>(
    out: &mut Vec<u8>,
    method: &str,
    path: &str,
    headers: impl IntoIterator<Item = &'a (String, String)>,
    body: &[u8],
    keep_alive: bool,
) {
    out.clear();
    out.extend_from_slice(method.as_bytes());
    out.push(b' ');
    out.extend_from_slice(path.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nhost: spatial\r\ncontent-length: ");
    write!(out, "{}", body.len()).expect("writing to a Vec cannot fail");
    out.extend_from_slice(if keep_alive {
        b"\r\nconnection: keep-alive\r\n"
    } else {
        b"\r\nconnection: close\r\n"
    });
    for (name, value) in headers {
        if RESERVED_HEADERS.iter().any(|r| name.eq_ignore_ascii_case(r)) {
            continue;
        }
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

/// Issues one request over a fresh connection and waits for the response.
///
/// `timeout` bounds connect, read and write individually.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> Result<Response, HttpError> {
    request_with_headers(addr, method, path, &[], body, timeout)
}

/// Like [`request`], with extra headers (e.g. `x-spatial-deadline-ms`) on the wire.
///
/// Header names should be lowercase; values must not contain CR/LF. `host`,
/// `content-length` and `connection` are framed by the client and dropped from
/// `headers`.
pub fn request_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(String, String)],
    body: &[u8],
    timeout: Duration,
) -> Result<Response, HttpError> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    // Best effort, as in the reactor's accept path: the request below is one
    // write, so a socket that refuses the option still sends it whole.
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut wire = Vec::with_capacity(128 + body.len());
    encode_request(&mut wire, method, path, headers, body, false);
    stream.write_all(&wire)?;
    read_response(&mut stream)
}

/// A running HTTP server; dropping it (or calling [`HttpServer::shutdown`]) stops the
/// accept loop.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `127.0.0.1:0` and serves each connection on a thread from the accept
    /// loop, calling `handler` per request. The handler runs on the connection
    /// thread; services put their own worker pools behind it.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn spawn(
        handler: impl Fn(Request) -> Response + Send + Sync + 'static,
    ) -> std::io::Result<Self> {
        Self::spawn_on("127.0.0.1:0".parse().expect("loopback addr parses"), handler)
    }

    /// Like [`HttpServer::spawn`] but binds an explicit address — used to bring a
    /// replica back on the port it previously served (health-checker restore tests,
    /// rolling restarts).
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn spawn_on(
        bind: SocketAddr,
        handler: impl Fn(Request) -> Response + Send + Sync + 'static,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        // Poll with a timeout so shutdown is prompt without a wake-up connection.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handler = Arc::new(handler);
        let accept_thread =
            std::thread::Builder::new().name(format!("http-accept-{addr}")).spawn(move || {
                while !stop_flag.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((mut conn, _)) => {
                            let handler = Arc::clone(&handler);
                            std::thread::spawn(move || {
                                let _ = conn.set_nodelay(true);
                                let _ = conn.set_read_timeout(Some(Duration::from_secs(30)));
                                let response = match read_request(&mut conn) {
                                    // A handler panic must not kill the connection
                                    // before a response is written — the client would
                                    // hang until its read timeout. Catch it and
                                    // answer 500.
                                    Ok(req) => {
                                        match catch_unwind(AssertUnwindSafe(|| handler(req))) {
                                            Ok(resp) => resp,
                                            Err(_) => {
                                                Response::text(500, "handler panicked".to_string())
                                            }
                                        }
                                    }
                                    Err(e @ HttpError::TooLarge(_)) => {
                                        Response::text(431, format!("bad request: {e}"))
                                    }
                                    Err(e @ HttpError::BodyTooLarge(_)) => {
                                        Response::text(413, format!("bad request: {e}"))
                                    }
                                    Err(e) => Response::text(400, format!("bad request: {e}")),
                                };
                                let _ = response.write_to(&mut conn);
                            });
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
            })?;
        Ok(Self { addr, stop, accept_thread: Some(accept_thread) })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins it.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer").field("addr", &self.addr).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> HttpServer {
        HttpServer::spawn(|req| {
            if req.path == "/echo" {
                Response::json(req.body)
            } else {
                Response::text(404, "not found")
            }
        })
        .unwrap()
    }

    #[test]
    fn round_trips_a_post() {
        let server = echo_server();
        let resp =
            request(server.addr(), "POST", "/echo", b"{\"x\":1}", Duration::from_secs(5)).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"{\"x\":1}");
        assert_eq!(resp.content_type, "application/json");
    }

    #[test]
    fn unknown_path_is_404() {
        let server = echo_server();
        let resp = request(server.addr(), "GET", "/nope", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn empty_body_get_works() {
        let server = echo_server();
        let resp = request(server.addr(), "GET", "/echo", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.body.is_empty());
    }

    #[test]
    fn custom_headers_reach_the_handler() {
        let server = HttpServer::spawn(|req| {
            let v = req.headers.get("x-spatial-deadline-ms").cloned().unwrap_or_default();
            Response::text(200, v)
        })
        .unwrap();
        let resp = request_with_headers(
            server.addr(),
            "GET",
            "/any",
            &[("x-spatial-deadline-ms".into(), "250".into())],
            b"",
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(resp.body, b"250");
    }

    /// What the two head builders `encode_request` replaced put on the wire:
    /// `request_with_headers`' head (`connection: close`) and
    /// `PooledClient::exchange`'s (`connection: keep-alive`), each followed by
    /// the body. Only the pooled builder dropped reserved names; the one-shot
    /// one now does too, which no caller could rely on (the servers answer a
    /// duplicate `content-length` with 400).
    fn legacy_wire(
        method: &str,
        path: &str,
        headers: &[(String, String)],
        body: &[u8],
        keep_alive: bool,
    ) -> Vec<u8> {
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nhost: spatial\r\ncontent-length: {}\r\nconnection: {}\r\n",
            body.len(),
            if keep_alive { "keep-alive" } else { "close" }
        );
        for (name, value) in headers {
            if ["host", "content-length", "connection"].iter().any(|r| name.eq_ignore_ascii_case(r))
            {
                continue;
            }
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut wire = head.into_bytes();
        wire.extend_from_slice(body);
        wire
    }

    #[test]
    fn encoded_request_is_byte_identical_to_the_legacy_head_then_body() {
        let h = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
            pairs.iter().map(|(n, v)| (n.to_string(), v.to_string())).collect()
        };
        let header_sets = [
            h(&[]),
            h(&[("x-spatial-deadline-ms", "250")]),
            h(&[("x-spatial-trace-id", "00051ace"), ("x-spatial-idempotent", "1"), ("x-k", "")]),
            // Caller-supplied reserved names, in mixed case, between kept ones.
            h(&[
                ("Content-Length", "999"),
                ("x-spatial-app", "1"),
                ("CONNECTION", "close"),
                ("Host", "evil"),
                ("x-after", "kept"),
            ]),
        ];
        let big = vec![0xA5u8; 3 << 10];
        let bodies: [&[u8]; 3] = [b"", b"{\"features\":[1.0,-2.5]}", &big];
        // One buffer across every case, as a pooled connection reuses it: stale
        // bytes of a longer request must never leak into a shorter one.
        let mut out = Vec::new();
        for headers in &header_sets {
            for body in bodies {
                for keep_alive in [true, false] {
                    for (method, path) in [("POST", "/serve/predict"), ("GET", "/x?y=1")] {
                        encode_request(&mut out, method, path, headers, body, keep_alive);
                        assert_eq!(
                            out,
                            legacy_wire(method, path, headers, body, keep_alive),
                            "{method} {path} keep_alive={keep_alive} headers={headers:?}"
                        );
                    }
                }
            }
        }
        // The pooled client's two slices are one chained sequence.
        let (base, attempt) = (&header_sets[3], &header_sets[1]);
        encode_request(&mut out, "POST", "/p", base.iter().chain(attempt), b"hi", true);
        let joined: Vec<_> = base.iter().chain(attempt).cloned().collect();
        assert_eq!(out, legacy_wire("POST", "/p", &joined, b"hi", true));
    }

    #[test]
    fn concurrent_requests_are_served() {
        let server = echo_server();
        let addr = server.addr();
        let handles: Vec<_> = (0..16)
            .map(|i| {
                std::thread::spawn(move || {
                    let body = format!("{{\"i\":{i}}}");
                    let resp =
                        request(addr, "POST", "/echo", body.as_bytes(), Duration::from_secs(5))
                            .unwrap();
                    assert_eq!(resp.body, body.as_bytes());
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn shutdown_stops_accepting() {
        let mut server = echo_server();
        let addr = server.addr();
        // Before shutdown the server answers.
        let before = request(addr, "GET", "/echo", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(before.status, 200);
        server.shutdown();
        // After shutdown the listener is closed, so the connection must be refused
        // (or, at worst, reset mid-request): no successful response can arrive.
        let result = request(addr, "GET", "/echo", b"", Duration::from_millis(300));
        assert!(result.is_err(), "post-shutdown request must fail, got {result:?}");
    }

    #[test]
    fn large_body_round_trips() {
        let server = echo_server();
        let body = vec![b'a'; 1 << 20];
        let resp = request(server.addr(), "POST", "/echo", &body, Duration::from_secs(10)).unwrap();
        assert_eq!(resp.body.len(), body.len());
    }

    #[test]
    fn handler_panic_answers_500_instead_of_hanging() {
        let server = HttpServer::spawn(|req| {
            if req.path == "/boom" {
                panic!("handler exploded");
            }
            Response::json(req.body)
        })
        .unwrap();
        let resp = request(server.addr(), "GET", "/boom", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(resp.status, 500);
        // The server survives and keeps answering.
        let ok = request(server.addr(), "POST", "/ok", b"x", Duration::from_secs(5)).unwrap();
        assert_eq!(ok.status, 200);
    }

    /// Writes raw bytes to the server, half-closes, and reads the response.
    fn raw_round_trip(addr: SocketAddr, bytes: &[u8]) -> Result<Response, HttpError> {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = stream.write_all(bytes);
        let _ = stream.flush();
        let _ = stream.shutdown(std::net::Shutdown::Write);
        read_response(&mut stream)
    }

    #[test]
    fn duplicate_content_length_is_rejected() {
        // Regression (conformance harness): the header map's last-wins insert
        // silently accepted two conflicting content-length framings — the classic
        // request-smuggling shape. Must be 400, not "use the second value".
        let server = echo_server();
        let resp = raw_round_trip(
            server.addr(),
            b"POST /echo HTTP/1.1\r\ncontent-length: 3\r\ncontent-length: 1\r\n\r\nabc",
        )
        .unwrap();
        assert_eq!(resp.status, 400);
        // Equal duplicates are rejected too: one framing, one header.
        let resp = raw_round_trip(
            server.addr(),
            b"POST /echo HTTP/1.1\r\ncontent-length: 3\r\ncontent-length: 3\r\n\r\nabc",
        )
        .unwrap();
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn plus_prefixed_content_length_is_rejected() {
        // Regression (conformance harness): `usize::from_str` accepts "+3", which a
        // stricter upstream parser would frame as 0 bytes. Digits only.
        let server = echo_server();
        for bad in ["+3", "-1", "3 3", "0x10", ""] {
            let head = format!("POST /echo HTTP/1.1\r\ncontent-length: {bad}\r\n\r\nabc");
            let resp = raw_round_trip(server.addr(), head.as_bytes()).unwrap();
            assert_eq!(resp.status, 400, "content-length {bad:?} must be rejected");
        }
    }

    #[test]
    fn truncated_head_is_rejected_not_parsed() {
        // Regression (conformance harness): a peer closing mid-head used to yield an
        // empty "line" at EOF, which broke the header loop and let the truncated
        // prefix parse as a complete request with no headers.
        let server = HttpServer::spawn(|_| Response::text(200, "should never run")).unwrap();
        for partial in
            ["GET /echo HTTP/1.1\r\ncontent-le", "GET /echo HTTP/1.1\r\n", "GET /echo HTTP/1.1"]
        {
            let resp = raw_round_trip(server.addr(), partial.as_bytes()).unwrap();
            assert_eq!(resp.status, 400, "truncated head {partial:?} must be 400");
        }
    }

    #[test]
    fn declared_oversized_body_is_413() {
        // The declared length alone must trigger the rejection — no body bytes are
        // sent, so the server must not wait for (or allocate) 17 MiB either.
        let server = echo_server();
        let head = format!("POST /echo HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY + 1);
        let resp = raw_round_trip(server.addr(), head.as_bytes()).unwrap();
        assert_eq!(resp.status, 413);
        // Absurd (but digit-valid) lengths get the same treatment.
        let head = format!("POST /echo HTTP/1.1\r\ncontent-length: {}\r\n\r\n", u64::MAX);
        let resp = raw_round_trip(server.addr(), head.as_bytes()).unwrap();
        assert!(resp.status == 413 || resp.status == 400, "status {}", resp.status);
    }

    #[test]
    fn empty_header_name_is_rejected() {
        let server = echo_server();
        let resp = raw_round_trip(server.addr(), b"GET /echo HTTP/1.1\r\n: stray\r\n\r\n").unwrap();
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn oversized_head_is_rejected_with_431() {
        let server = echo_server();
        // Hand-roll a request whose single header exceeds the 32 KiB head budget.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let huge = "x".repeat(MAX_HEAD + 1024);
        write!(stream, "GET /echo HTTP/1.1\r\nx-bloat: {huge}\r\n\r\n").unwrap();
        stream.flush().unwrap();
        let resp = read_response(&mut stream).unwrap();
        assert_eq!(resp.status, 431);
    }

    #[test]
    fn buffered_parser_matches_blocking_parser() {
        // Every prefix of a valid request is Partial; the full bytes are Complete
        // with the exact consumed count, and trailing bytes are left alone.
        let wire = b"POST /echo HTTP/1.1\r\nx-k: v\r\ncontent-length: 3\r\n\r\nabcREST";
        let full = wire.len() - 4;
        for cut in 0..full {
            match parse_request_buffer(&wire[..cut]) {
                Ok(Parsed::Partial) => {}
                other => panic!("prefix of {cut} bytes must be Partial, got {other:?}"),
            }
        }
        match parse_request_buffer(wire) {
            Ok(Parsed::Complete(req, consumed)) => {
                assert_eq!(consumed, full);
                assert_eq!(req.method, "POST");
                assert_eq!(req.path, "/echo");
                assert_eq!(req.headers.get("x-k").map(String::as_str), Some("v"));
                assert_eq!(req.body, b"abc");
            }
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn buffered_parser_rejects_what_the_blocking_parser_rejects() {
        let cases: [(&[u8], u16); 5] = [
            (b"POST /e HTTP/1.1\r\ncontent-length: 3\r\ncontent-length: 1\r\n\r\nabc", 400),
            (b"POST /e HTTP/1.1\r\ncontent-length: +3\r\n\r\nabc", 400),
            (b"GET /e HTTP/1.1\r\n: stray\r\n\r\n", 400),
            (b"\r\n\r\n", 400),
            (b"GET\r\n\r\n", 400),
        ];
        for (bytes, status) in cases {
            let err = match parse_request_buffer(bytes) {
                Err(e) => e,
                ok => panic!("{:?} must be rejected, got {ok:?}", String::from_utf8_lossy(bytes)),
            };
            assert_eq!(error_status(&err), status);
        }
        // Declared-oversized body is 413 from the head alone.
        let head = format!("POST /e HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY + 1);
        let err = parse_request_buffer(head.as_bytes()).unwrap_err();
        assert_eq!(error_status(&err), 413);
        // An over-budget head is 431 even before its terminating blank line shows up.
        let huge = format!("GET /e HTTP/1.1\r\nx-bloat: {}", "y".repeat(MAX_HEAD + 1024));
        let err = parse_request_buffer(huge.as_bytes()).unwrap_err();
        assert_eq!(error_status(&err), 431);
    }

    #[test]
    fn wants_close_reads_the_connection_header() {
        let parse = |wire: &[u8]| match parse_request_buffer(wire) {
            Ok(Parsed::Complete(req, _)) => req,
            other => panic!("expected Complete, got {other:?}"),
        };
        assert!(parse(b"GET /e HTTP/1.1\r\nconnection: close\r\n\r\n").wants_close());
        assert!(parse(b"GET /e HTTP/1.1\r\nConnection: Close\r\n\r\n").wants_close());
        assert!(!parse(b"GET /e HTTP/1.1\r\nconnection: keep-alive\r\n\r\n").wants_close());
        assert!(!parse(b"GET /e HTTP/1.1\r\n\r\n").wants_close());
    }

    /// Spawns a one-shot server that answers its first connection with exactly
    /// `bytes` and closes — for driving the *client-side* parser with
    /// malformed responses.
    fn raw_response_server(bytes: Vec<u8>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            if let Ok((mut conn, _)) = listener.accept() {
                let _ = conn.set_read_timeout(Some(Duration::from_secs(5)));
                let mut sink = [0u8; 4096];
                let _ = conn.read(&mut sink); // consume the request head
                let _ = conn.write_all(&bytes);
                let _ = conn.flush();
            }
        });
        addr
    }

    #[test]
    fn client_rejects_garbage_status_line_with_typed_error() {
        // Mirror of the PR-5 server-side fuzz crop, pointed at the client
        // parser: garbage where the status line should be must surface as a
        // typed HttpError::Malformed, never a panic or a bogus Response.
        for garbage in [
            &b"BANANA SPLIT\r\n\r\n"[..],
            b"HTTP/1.1 OK maybe\r\n\r\n",
            b"HTTP/1.1\r\n\r\n",
            b"\r\n\r\n",
            b"\x00\x01\x02\x03",
        ] {
            let addr = raw_response_server(garbage.to_vec());
            let err = request(addr, "GET", "/x", b"", Duration::from_secs(5)).unwrap_err();
            assert!(
                matches!(err, HttpError::Malformed(_)),
                "{:?} must be Malformed, got {err}",
                String::from_utf8_lossy(garbage)
            );
        }
    }

    #[test]
    fn client_rejects_bad_content_length_with_typed_error() {
        // Non-numeric and oversized response content-lengths are both typed
        // Malformed errors — the oversized case *before* any allocation.
        for bad in [
            "HTTP/1.1 200 OK\r\ncontent-length: banana\r\n\r\n".to_string(),
            format!("HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n", MAX_BODY + 1),
            format!("HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n", u64::MAX),
        ] {
            let addr = raw_response_server(bad.clone().into_bytes());
            let err = request(addr, "GET", "/x", b"", Duration::from_secs(5)).unwrap_err();
            assert!(matches!(err, HttpError::Malformed(_)), "{bad:?} must be Malformed, got {err}");
        }
    }

    #[test]
    fn client_treats_missing_content_length_as_empty_body() {
        // A response without content-length is legal HTTP and means zero bytes
        // here (no chunked encoding in this deployment) — it must parse, and
        // trailing junk on the wire must not leak into the body.
        let addr = raw_response_server(b"HTTP/1.1 200 OK\r\n\r\nleftover".to_vec());
        let resp = request(addr, "GET", "/x", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.body.is_empty());
    }

    #[test]
    fn client_rejects_connection_closed_before_any_response_byte() {
        let addr = raw_response_server(Vec::new());
        let err = request(addr, "GET", "/x", b"", Duration::from_secs(5)).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "empty response must be Malformed: {err}");
    }

    #[test]
    fn unterminated_head_cannot_grow_memory() {
        // A peer that streams header bytes forever (no blank line) is cut off at the
        // head budget instead of ballooning the server's buffer. The client here
        // sends just over the budget and the server must answer 431.
        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(stream, "GET /echo HTTP/1.1\r\n").unwrap();
        let chunk = format!("x-h: {}\r\n", "y".repeat(1000));
        for _ in 0..(MAX_HEAD / chunk.len() + 2) {
            if stream.write_all(chunk.as_bytes()).is_err() {
                break; // server already slammed the door — that's fine too
            }
        }
        let resp = read_response(&mut stream);
        match resp {
            Ok(r) => assert_eq!(r.status, 431),
            // The server may have closed the connection after rejecting.
            Err(HttpError::Io(_)) | Err(HttpError::Malformed(_)) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}
