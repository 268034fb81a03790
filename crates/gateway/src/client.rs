//! Pooled keep-alive HTTP client for upstream forwarding.
//!
//! The blocking [`crate::http::request_with_headers`] opens a fresh TCP
//! connection per attempt — a full handshake on every proxied request, which is
//! where the blocking gateway pays most of its per-request cost. [`PooledClient`]
//! keeps a small per-upstream pool of idle keep-alive connections and reuses
//! them across requests:
//!
//! - Checkout probes the idle connection with a non-blocking one-byte read, so a
//!   server that closed while the connection sat idle is detected *before* the
//!   request bytes are spent on it.
//! - A request that still fails on a reused connection (the close raced the
//!   probe) is replayed once on a fresh connection — but *only* when the
//!   failure proves the server never processed the request: a non-timeout
//!   write error, or EOF / connection reset before the first response byte.
//!   Timeouts and failures after response bytes started arriving are never
//!   replayed (the server may be mid-processing; a replay would silently
//!   deliver a non-idempotent request twice and bypass the retry-budget
//!   layer). Suppressed replays surface the transport error to the caller and
//!   are counted in [`ClientStats::replay_suppressed`].
//! - The server's `Connection` answer is honored: `close` responses drop the
//!   connection (so the blocking one-shot servers and the chaos proxy keep
//!   working unpooled), anything else returns it to the pool up to
//!   `max_idle_per_host`.
//!
//! Headers are passed as two borrowed slices (`base` + per-attempt extras) so
//! the forward path no longer clones its header set per attempt. The client
//! always frames the request itself (`host`, `content-length`, `connection`);
//! caller-supplied headers with those names are dropped rather than emitted as
//! duplicates the hardened servers reject with 400.
//!
//! Every request leaves as one `write_all` of one buffer on a `TCP_NODELAY`
//! socket. Head and body written separately on a default socket cost a fixed
//! ~40 ms per request: Nagle holds the second segment until the first is
//! ACKed, and the upstream delays that ACK waiting for data to piggy-back on.
//! Each pooled connection keeps its encode buffer, so the steady state
//! allocates nothing for the write.

use crate::http::{encode_request, read_response_keep_conn, HttpError, Response};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Idle connections kept per upstream address.
const MAX_IDLE_PER_HOST: usize = 8;

/// Encode-buffer capacity an idle connection may keep. One oversized body must
/// not pin megabytes per pooled connection for the life of the pool.
const MAX_RETAINED_WRITE_BUF: usize = 64 << 10;

/// True when `e` is *not* a timeout. A timed-out request may still be draining
/// or executing server-side, so timeouts never justify a replay; any other
/// transport failure at the probed points proves the server never answered.
fn not_a_timeout(e: &std::io::Error) -> bool {
    !matches!(e.kind(), std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock)
}

/// One pooled connection: the stream plus its long-lived buffered reader (the
/// reader must outlive a single response so pipelined bytes are never dropped)
/// and the buffer each request is encoded into before its single write.
struct Idle {
    reader: BufReader<TcpStream>,
    write_buf: Vec<u8>,
}

/// Connection-reuse counters, mirrored into the gateway's `/metrics`.
#[derive(Debug, Default)]
pub struct ClientStats {
    connects: AtomicU64,
    reuses: AtomicU64,
    stale_drops: AtomicU64,
    retries_on_stale: AtomicU64,
    replay_suppressed: AtomicU64,
}

impl ClientStats {
    /// Fresh TCP connections opened.
    pub fn connects(&self) -> u64 {
        self.connects.load(Ordering::Relaxed)
    }
    /// Requests served over a pooled (reused) connection.
    pub fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }
    /// Idle connections discarded because the checkout probe saw them dead.
    pub fn stale_drops(&self) -> u64 {
        self.stale_drops.load(Ordering::Relaxed)
    }
    /// Requests replayed on a fresh connection after a reused one failed
    /// *before* the server could have processed them (write error, or
    /// EOF/reset before the first response byte).
    pub fn retries_on_stale(&self) -> u64 {
        self.retries_on_stale.load(Ordering::Relaxed)
    }
    /// Reused-connection failures that were **not** replayed because the
    /// server may already have processed the request (timeout, or failure
    /// after response bytes started arriving). These surface as errors to the
    /// caller, whose retry policy owns the idempotency decision.
    pub fn replay_suppressed(&self) -> u64 {
        self.replay_suppressed.load(Ordering::Relaxed)
    }
}

/// A keep-alive connection pool over every upstream the gateway talks to.
pub struct PooledClient {
    idle: Mutex<HashMap<SocketAddr, Vec<Idle>>>,
    stats: ClientStats,
}

impl Default for PooledClient {
    fn default() -> Self {
        Self::new()
    }
}

impl PooledClient {
    /// An empty pool.
    pub fn new() -> Self {
        Self { idle: Mutex::new(HashMap::new()), stats: ClientStats::default() }
    }

    /// Reuse counters for dashboards and the throughput bench.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// Issues one request, preferring a pooled connection. `base_headers` and
    /// `attempt_headers` are written in order; both are borrowed, so callers
    /// retrying with per-attempt headers never clone the shared base set.
    ///
    /// # Errors
    ///
    /// Transport failures and malformed responses surface as [`HttpError`].
    pub fn request(
        &self,
        addr: SocketAddr,
        method: &str,
        path: &str,
        base_headers: &[(String, String)],
        attempt_headers: &[(String, String)],
        body: &[u8],
        timeout: Duration,
    ) -> Result<Response, HttpError> {
        if let Some(mut conn) = self.checkout(addr) {
            self.stats.reuses.fetch_add(1, Ordering::Relaxed);
            match self.exchange(
                &mut conn,
                method,
                path,
                base_headers,
                attempt_headers,
                body,
                timeout,
            ) {
                Ok((resp, server_close)) => {
                    if !server_close {
                        self.checkin(addr, conn);
                    }
                    return Ok(resp);
                }
                Err((err, replayable)) => {
                    if !replayable {
                        // A timeout, or a failure after response bytes started
                        // arriving: the server may have processed (or still be
                        // processing) the request, so a replay could deliver a
                        // non-idempotent request twice. Surface the error to
                        // the caller's retry-budget layer instead.
                        self.stats.replay_suppressed.fetch_add(1, Ordering::Relaxed);
                        return Err(err);
                    }
                    // The reused connection proved dead before the server could
                    // have processed the request (its close raced the idle
                    // probe); replay once on a fresh connection.
                    self.stats.retries_on_stale.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        // Best effort, as in the reactor's accept path: the request is one
        // write either way.
        let _ = stream.set_nodelay(true);
        self.stats.connects.fetch_add(1, Ordering::Relaxed);
        let mut conn = Idle { reader: BufReader::new(stream), write_buf: Vec::new() };
        let (resp, server_close) = self
            .exchange(&mut conn, method, path, base_headers, attempt_headers, body, timeout)
            .map_err(|(e, _)| e)?;
        if !server_close {
            self.checkin(addr, conn);
        }
        Ok(resp)
    }

    /// Writes one keep-alive request and reads its response off `conn`.
    ///
    /// The error side carries a replay verdict: `true` when the failure proves
    /// the server never processed the request (non-timeout write error, or
    /// EOF/reset before the first response byte), `false` when a replay would
    /// be unsafe (timeout anywhere, or any failure once response bytes exist).
    #[allow(clippy::too_many_arguments)]
    fn exchange(
        &self,
        conn: &mut Idle,
        method: &str,
        path: &str,
        base_headers: &[(String, String)],
        attempt_headers: &[(String, String)],
        body: &[u8],
        timeout: Duration,
    ) -> Result<(Response, bool), (HttpError, bool)> {
        let stream = conn.reader.get_mut();
        let setup = stream
            .set_read_timeout(Some(timeout))
            .and_then(|()| stream.set_write_timeout(Some(timeout)));
        if let Err(e) = setup {
            // Nothing was written, so the server cannot have seen the request.
            let replayable = not_a_timeout(&e);
            return Err((HttpError::Io(e), replayable));
        }
        encode_request(
            &mut conn.write_buf,
            method,
            path,
            base_headers.iter().chain(attempt_headers),
            body,
            true,
        );
        if let Err(e) = conn.reader.get_mut().write_all(&conn.write_buf) {
            let replayable = not_a_timeout(&e);
            return Err((HttpError::Io(e), replayable));
        }
        // Probe for the first response byte before parsing. EOF or a reset
        // here is the stale-keep-alive signature — the server closed without
        // answering, so it never processed the request and a replay is safe.
        // Once at least one response byte exists, the server *did* process the
        // request and no failure after this point may be replayed.
        match conn.reader.fill_buf() {
            Ok([]) => {
                let e = std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed before any response byte",
                );
                return Err((HttpError::Io(e), true));
            }
            Ok(_) => {}
            Err(e) => {
                let replayable = not_a_timeout(&e);
                return Err((HttpError::Io(e), replayable));
            }
        }
        read_response_keep_conn(&mut conn.reader).map_err(|e| (e, false))
    }

    /// Pops an idle connection for `addr`, discarding any the probe finds dead.
    fn checkout(&self, addr: SocketAddr) -> Option<Idle> {
        loop {
            let conn = self.idle.lock().get_mut(&addr)?.pop()?;
            if Self::probe_alive(&conn) {
                return Some(conn);
            }
            self.stats.stale_drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// True when the idle connection is still open: a non-blocking read must see
    /// no data (`WouldBlock`). EOF or buffered bytes (a server speaking out of
    /// turn) both disqualify it.
    fn probe_alive(conn: &Idle) -> bool {
        let stream = conn.reader.get_ref();
        if stream.set_nonblocking(true).is_err() {
            return false;
        }
        let mut probe = [0u8; 1];
        let alive = matches!(
            (&*stream).peek(&mut probe),
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock
        );
        alive && stream.set_nonblocking(false).is_ok()
    }

    fn checkin(&self, addr: SocketAddr, mut conn: Idle) {
        if conn.write_buf.capacity() > MAX_RETAINED_WRITE_BUF {
            conn.write_buf = Vec::new();
        }
        let mut idle = self.idle.lock();
        let pool = idle.entry(addr).or_default();
        if pool.len() < MAX_IDLE_PER_HOST {
            pool.push(conn);
        }
    }
}

impl std::fmt::Debug for PooledClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let idle: usize = self.idle.lock().values().map(Vec::len).sum();
        f.debug_struct("PooledClient").field("idle", &idle).field("stats", &self.stats).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{HttpServer, Response as HttpResponse};
    use crate::reactor::ReactorServer;
    use std::sync::Arc;

    fn no_headers() -> &'static [(String, String)] {
        &[]
    }

    #[test]
    fn reuses_connections_against_a_keep_alive_server() {
        let server = ReactorServer::spawn(|req| HttpResponse::json(req.body)).unwrap();
        let client = PooledClient::new();
        for i in 0..5 {
            let body = format!("b{i}");
            let resp = client
                .request(
                    server.addr(),
                    "POST",
                    "/x",
                    no_headers(),
                    no_headers(),
                    body.as_bytes(),
                    Duration::from_secs(5),
                )
                .unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body, body.as_bytes());
        }
        assert_eq!(client.stats().connects(), 1, "one connection should serve all requests");
        assert_eq!(client.stats().reuses(), 4);
        assert_eq!(server.stats().accepted_total(), 1);
    }

    #[test]
    fn keep_alive_exchange_does_not_wait_for_a_delayed_ack() {
        // Regression: head and body left as two writes on a socket without
        // TCP_NODELAY, so from the second request on Nagle held the body until
        // the server's delayed ACK (~40 ms) released it — 19 × 44 ms here. One
        // write per request takes a few milliseconds for all twenty.
        let server = ReactorServer::spawn(|req| HttpResponse::json(req.body)).unwrap();
        let client = PooledClient::new();
        let body = vec![b'x'; 3 << 10];
        let start = std::time::Instant::now();
        for _ in 0..20 {
            let resp = client
                .request(
                    server.addr(),
                    "POST",
                    "/x",
                    no_headers(),
                    no_headers(),
                    &body,
                    Duration::from_secs(5),
                )
                .unwrap();
            assert_eq!(resp.body, body);
        }
        let elapsed = start.elapsed();
        assert_eq!(client.stats().connects(), 1, "all twenty must share one connection");
        assert!(
            elapsed < Duration::from_millis(400),
            "20 keep-alive exchanges took {elapsed:?}: a timer is back on the request path"
        );
    }

    #[test]
    fn honors_connection_close_from_one_shot_servers() {
        // The blocking server closes after every response; the pool must not
        // cache those connections, and every request must still succeed.
        let server = HttpServer::spawn(|req| HttpResponse::json(req.body)).unwrap();
        let client = PooledClient::new();
        for _ in 0..3 {
            let resp = client
                .request(
                    server.addr(),
                    "POST",
                    "/x",
                    no_headers(),
                    no_headers(),
                    b"hi",
                    Duration::from_secs(5),
                )
                .unwrap();
            assert_eq!(resp.status, 200);
        }
        assert_eq!(client.stats().connects(), 3);
        assert_eq!(client.stats().reuses(), 0);
    }

    #[test]
    fn survives_an_upstream_restart_between_requests() {
        let addr = {
            let server = ReactorServer::spawn(|_| HttpResponse::json(b"\"one\"".to_vec())).unwrap();
            let client_addr = server.addr();
            let client = PooledClient::new();
            let resp = client
                .request(
                    client_addr,
                    "GET",
                    "/x",
                    no_headers(),
                    no_headers(),
                    b"",
                    Duration::from_secs(5),
                )
                .unwrap();
            assert_eq!(resp.status, 200);
            // Server drops here with a pooled idle connection outstanding.
            drop(server);
            let second =
                ReactorServer::spawn_on(client_addr, |_| HttpResponse::json(b"\"two\"".to_vec()));
            // The port may need a beat to rebind; skip the flaky-port case.
            let Ok(second) = second else { return };
            let resp = client
                .request(
                    client_addr,
                    "GET",
                    "/x",
                    no_headers(),
                    no_headers(),
                    b"",
                    Duration::from_secs(5),
                )
                .unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body, b"\"two\"");
            drop(second);
            client_addr
        };
        let _ = addr;
    }

    /// A raw upstream whose behavior is keyed by request body: `ok` is answered
    /// with a keep-alive 200, `stall` is read and then never answered, and
    /// `truncate` gets a partial status line followed by a close. Returns the
    /// address plus delivery counters for the stall and truncate bodies.
    fn scripted_upstream() -> (std::net::SocketAddr, Arc<AtomicU64>, Arc<AtomicU64>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stalls = Arc::new(AtomicU64::new(0));
        let truncates = Arc::new(AtomicU64::new(0));
        let (s, t) = (Arc::clone(&stalls), Arc::clone(&truncates));
        std::thread::spawn(move || {
            while let Ok((mut conn, _)) = listener.accept() {
                let (s, t) = (Arc::clone(&s), Arc::clone(&t));
                std::thread::spawn(move || {
                    let _ = conn.set_read_timeout(Some(Duration::from_secs(5)));
                    while let Ok(req) = crate::http::read_request(&mut conn) {
                        match req.body.as_slice() {
                            b"stall" => {
                                // Deliberately no response: the client must time
                                // out without replaying the request anywhere.
                                s.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(Duration::from_secs(2));
                                return;
                            }
                            b"truncate" => {
                                // The first response byte arrives, then the
                                // connection dies mid-status-line.
                                t.fetch_add(1, Ordering::Relaxed);
                                let _ = conn.write_all(b"HTTP/1.1 2");
                                let _ = conn.flush();
                                return;
                            }
                            _ => {
                                let resp = HttpResponse::json(req.body.clone());
                                if conn.write_all(&resp.to_bytes(true)).is_err() {
                                    return;
                                }
                            }
                        }
                    }
                });
            }
        });
        (addr, stalls, truncates)
    }

    #[test]
    fn timed_out_request_is_not_replayed() {
        // Regression: `request()` used to replay on *any* error from a reused
        // connection, including timeouts — a stalling upstream saw every
        // non-idempotent request twice. A timeout must surface as an error
        // after exactly one delivery.
        let (addr, stalls, _) = scripted_upstream();
        let client = PooledClient::new();
        // Prime the pool with a healthy keep-alive exchange.
        let ok = client
            .request(addr, "POST", "/x", no_headers(), no_headers(), b"ok", Duration::from_secs(5))
            .unwrap();
        assert_eq!(ok.status, 200);
        // The stalled request times out on the reused connection.
        let err = client.request(
            addr,
            "POST",
            "/x",
            no_headers(),
            no_headers(),
            b"stall",
            Duration::from_millis(250),
        );
        assert!(err.is_err(), "a stalled upstream must surface an error, got {err:?}");
        // Give any (buggy) background replay a beat to land before counting.
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(stalls.load(Ordering::Relaxed), 1, "exactly one delivery of the stalled body");
        assert_eq!(client.stats().replay_suppressed(), 1);
        assert_eq!(client.stats().retries_on_stale(), 0);
        assert_eq!(client.stats().connects(), 1, "no fresh connection may be opened for a replay");
    }

    #[test]
    fn failure_after_first_response_byte_is_not_replayed() {
        // Once response bytes exist the server definitely processed the
        // request; a mid-response connection drop is an error, not a replay.
        let (addr, _, truncates) = scripted_upstream();
        let client = PooledClient::new();
        let ok = client
            .request(addr, "POST", "/x", no_headers(), no_headers(), b"ok", Duration::from_secs(5))
            .unwrap();
        assert_eq!(ok.status, 200);
        let err = client.request(
            addr,
            "POST",
            "/x",
            no_headers(),
            no_headers(),
            b"truncate",
            Duration::from_secs(5),
        );
        assert!(err.is_err(), "truncated response must surface an error, got {err:?}");
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(truncates.load(Ordering::Relaxed), 1, "exactly one delivery");
        assert_eq!(client.stats().replay_suppressed(), 1);
        assert_eq!(client.stats().retries_on_stale(), 0);
    }

    #[test]
    fn caller_supplied_content_length_cannot_poison_a_pooled_connection() {
        // Regression: `exchange` appended caller headers verbatim after its own
        // framing trio, so a caller-supplied `content-length` (or `connection`)
        // produced duplicates the PR-5-hardened servers reject with 400 — and a
        // wrong length could desynchronize every later request on the pooled
        // connection. Reserved names are dropped.
        let server = ReactorServer::spawn(|req| HttpResponse::json(req.body)).unwrap();
        let client = PooledClient::new();
        let poisoned = vec![
            ("content-length".to_string(), "999".to_string()),
            ("Connection".to_string(), "close".to_string()),
            ("x-spatial-app".to_string(), "1".to_string()),
        ];
        for i in 0..3 {
            let body = format!("b{i}");
            let resp = client
                .request(
                    server.addr(),
                    "POST",
                    "/x",
                    &poisoned,
                    no_headers(),
                    body.as_bytes(),
                    Duration::from_secs(5),
                )
                .unwrap();
            assert_eq!(resp.status, 200, "reserved headers must be filtered, not duplicated");
            assert_eq!(resp.body, body.as_bytes());
        }
        // The connection stayed framed correctly and kept being reused.
        assert_eq!(client.stats().connects(), 1);
        assert_eq!(client.stats().reuses(), 2);
    }

    #[test]
    fn headers_from_both_slices_reach_the_server() {
        let server = ReactorServer::spawn(|req| {
            let a = req.headers.get("x-spatial-a").cloned().unwrap_or_default();
            let b = req.headers.get("x-spatial-b").cloned().unwrap_or_default();
            HttpResponse::json(format!("{a}{b}").into_bytes())
        })
        .unwrap();
        let client = PooledClient::new();
        let base = vec![("x-spatial-a".to_string(), "1".to_string())];
        let extra = vec![("x-spatial-b".to_string(), "2".to_string())];
        let resp = client
            .request(server.addr(), "GET", "/x", &base, &extra, b"", Duration::from_secs(5))
            .unwrap();
        assert_eq!(resp.body, b"12");
    }
}
