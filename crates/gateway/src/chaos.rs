//! Deterministic fault injection — the chaos-engineering layer.
//!
//! SPATIAL's availability claims (§V–§VI) are only credible if they hold while the
//! deployment is actively failing, so this module lets tests and experiments wrap
//! any upstream in reproducible faults: added latency, injected 5xx responses,
//! connection drops, and corrupted payloads. Every decision comes from a seeded
//! [`FaultPlan`] hashed per request index, so a run with the same seed and the same
//! request sequence injects *exactly* the same faults — chaos you can put in a
//! regression test.
//!
//! Two wrappers are provided:
//!
//! - [`ChaosProxy`] sits on the wire in front of any upstream socket (a
//!   [`crate::ServiceHost`], another proxy, anything speaking our HTTP subset) and
//!   injects transport-level faults.
//! - [`ChaosService`] wraps a [`Microservice`] in-process and injects handler-level
//!   faults, including panics to exercise the worker pool's panic containment.

use crate::http::{self, read_request, Response};
use crate::retry::unit_from_hash;
use crate::service::{Microservice, ServiceError};
use crate::wire::{to_json, ErrorBody};
use spatial_linalg::rng::derive_seed;
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Added latency before the request proceeds.
    Latency,
    /// A fabricated `503` response without touching the upstream.
    Error,
    /// The connection is closed without any response bytes.
    Drop,
    /// The response payload is mangled on the wire (unparsable HTTP).
    Corrupt,
}

/// A seeded, reproducible plan of fault rates.
///
/// Each request is assigned an index `n` (arrival order); the decision for `n` is a
/// pure function of `(seed, n)`, so identical request sequences see identical
/// faults. Rates are probabilities in `[0, 1]` and must sum to at most 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Experiment seed; derive per-replica seeds with
    /// [`spatial_linalg::rng::derive_seed`] so replicas fail independently.
    pub seed: u64,
    /// Probability of a latency injection.
    pub latency_rate: f64,
    /// How much latency a latency fault adds.
    pub added_latency: Duration,
    /// Probability of a fabricated 503.
    pub error_rate: f64,
    /// Probability of a silent connection drop.
    pub drop_rate: f64,
    /// Probability of a corrupted response payload.
    pub corrupt_rate: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            latency_rate: 0.0,
            added_latency: Duration::from_millis(25),
            error_rate: 0.0,
            drop_rate: 0.0,
            corrupt_rate: 0.0,
        }
    }
}

impl FaultPlan {
    /// A plan with every fault kind at `rate / 4`, totalling `rate`.
    pub fn uniform(seed: u64, rate: f64, added_latency: Duration) -> Self {
        let each = rate / 4.0;
        Self {
            seed,
            latency_rate: each,
            added_latency,
            error_rate: each,
            drop_rate: each,
            corrupt_rate: each,
        }
    }

    /// Combined probability that a request is faulted.
    pub fn total_rate(&self) -> f64 {
        self.latency_rate + self.error_rate + self.drop_rate + self.corrupt_rate
    }

    /// The (deterministic) fault decision for request number `index`.
    ///
    /// # Panics
    ///
    /// Panics if the rates are negative or sum to more than 1.
    pub fn decide(&self, index: u64) -> Option<Fault> {
        let rates = [self.latency_rate, self.error_rate, self.drop_rate, self.corrupt_rate];
        assert!(
            rates.iter().all(|r| (0.0..=1.0).contains(r)) && self.total_rate() <= 1.0,
            "invalid fault rates: {self:?}"
        );
        let u = unit_from_hash(derive_seed(self.seed, index));
        let mut threshold = 0.0;
        for (rate, fault) in
            rates.iter().zip([Fault::Latency, Fault::Error, Fault::Drop, Fault::Corrupt])
        {
            threshold += rate;
            if u < threshold {
                return Some(fault);
            }
        }
        None
    }
}

/// Snapshot of how many faults of each kind a chaos wrapper has injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// Latency injections.
    pub latency: u64,
    /// Fabricated 5xx responses.
    pub error: u64,
    /// Silent connection drops.
    pub drop: u64,
    /// Corrupted payloads.
    pub corrupt: u64,
}

impl FaultCounts {
    /// Total injected faults.
    pub fn total(&self) -> u64 {
        self.latency + self.error + self.drop + self.corrupt
    }
}

impl std::fmt::Display for FaultCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "faults: {} (latency {}, error {}, drop {}, corrupt {})",
            self.total(),
            self.latency,
            self.error,
            self.drop,
            self.corrupt
        )
    }
}

/// Lock-free fault tally shared with connection threads.
#[derive(Debug, Default)]
struct FaultTally {
    latency: AtomicU64,
    error: AtomicU64,
    drop: AtomicU64,
    corrupt: AtomicU64,
}

impl FaultTally {
    fn record(&self, fault: Fault) {
        match fault {
            Fault::Latency => &self.latency,
            Fault::Error => &self.error,
            Fault::Drop => &self.drop,
            Fault::Corrupt => &self.corrupt,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> FaultCounts {
        FaultCounts {
            latency: self.latency.load(Ordering::Relaxed),
            error: self.error.load(Ordering::Relaxed),
            drop: self.drop.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }
}

/// Shared state of one running chaos proxy.
#[derive(Debug)]
struct ProxyState {
    upstream: SocketAddr,
    plan: FaultPlan,
    forward_timeout: Duration,
    next_index: AtomicU64,
    tally: FaultTally,
}

/// A wire-level fault injector in front of one upstream socket.
///
/// Register the proxy's address (instead of the upstream's) at the gateway; every
/// request passes through the proxy, which injects faults per its [`FaultPlan`] and
/// otherwise forwards transparently (including `x-spatial-*` headers, so deadline
/// propagation keeps working under chaos).
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    state: Arc<ProxyState>,
}

impl ChaosProxy {
    /// Spawns the proxy on a loopback port.
    ///
    /// `forward_timeout` bounds each forwarded upstream request.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn spawn(
        upstream: SocketAddr,
        plan: FaultPlan,
        forward_timeout: Duration,
    ) -> std::io::Result<Self> {
        // Validate rates eagerly so a bad plan fails at spawn, not mid-soak.
        let _ = plan.decide(0);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let state = Arc::new(ProxyState {
            upstream,
            plan,
            forward_timeout,
            next_index: AtomicU64::new(0),
            tally: FaultTally::default(),
        });
        let thread_state = Arc::clone(&state);
        let accept_thread =
            std::thread::Builder::new().name(format!("chaos-proxy-{addr}")).spawn(move || {
                while !stop_flag.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((mut conn, _)) => {
                            let state = Arc::clone(&thread_state);
                            std::thread::spawn(move || {
                                let _ = conn.set_nodelay(true);
                                let _ = conn.set_read_timeout(Some(Duration::from_secs(30)));
                                let req = match read_request(&mut conn) {
                                    Ok(req) => req,
                                    Err(e) => {
                                        let _ = Response::text(400, format!("bad request: {e}"))
                                            .write_to(&mut conn);
                                        return;
                                    }
                                };
                                let index = state.next_index.fetch_add(1, Ordering::SeqCst);
                                let fault = state.plan.decide(index);
                                if let Some(f) = fault {
                                    state.tally.record(f);
                                }
                                match fault {
                                    Some(Fault::Latency) => {
                                        std::thread::sleep(state.plan.added_latency);
                                        let _ = relay(&state, &req).write_to(&mut conn);
                                    }
                                    Some(Fault::Error) => {
                                        let _ = Response {
                                            status: 503,
                                            body: to_json(&ErrorBody {
                                                error: "chaos: injected 503".into(),
                                            }),
                                            content_type: "application/json".into(),
                                            headers: Vec::new(),
                                        }
                                        .write_to(&mut conn);
                                    }
                                    // Close without writing a byte: the client sees
                                    // the connection drop mid-request.
                                    Some(Fault::Drop) => {}
                                    Some(Fault::Corrupt) => {
                                        let resp = relay(&state, &req);
                                        let mut mangled = resp.body;
                                        for b in &mut mangled {
                                            *b ^= 0xA5;
                                        }
                                        // An unparsable status line plus flipped
                                        // payload bytes: the client's HTTP parser
                                        // must reject this, never mistake it for a
                                        // clean response.
                                        let _ = conn
                                            .write_all(b"HTTP/1.1 CHAOS corrupted\r\n\r\n")
                                            .and_then(|()| conn.write_all(&mangled));
                                    }
                                    None => {
                                        let _ = relay(&state, &req).write_to(&mut conn);
                                    }
                                }
                            });
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
            })?;
        Ok(Self { addr, stop, accept_thread: Some(accept_thread), state })
    }

    /// The proxy's bound address — register this at the gateway.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The wrapped upstream's address.
    pub fn upstream(&self) -> SocketAddr {
        self.state.upstream
    }

    /// How many requests the proxy has seen.
    pub fn requests_seen(&self) -> u64 {
        self.state.next_index.load(Ordering::SeqCst)
    }

    /// Injected-fault tally so far.
    pub fn fault_counts(&self) -> FaultCounts {
        self.state.tally.snapshot()
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for ChaosProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosProxy")
            .field("addr", &self.addr)
            .field("upstream", &self.state.upstream)
            .field("plan", &self.state.plan)
            .finish()
    }
}

/// Forwards a request to the upstream, relaying `x-spatial-*` headers, and maps
/// transport failures to 502 like the gateway does.
fn relay(state: &ProxyState, req: &http::Request) -> Response {
    let headers: Vec<(String, String)> = req
        .headers
        .iter()
        .filter(|(name, _)| name.starts_with("x-spatial-"))
        .map(|(name, value)| (name.clone(), value.clone()))
        .collect();
    match http::request_with_headers(
        state.upstream,
        &req.method,
        &req.path,
        &headers,
        &req.body,
        state.forward_timeout,
    ) {
        Ok(resp) => resp,
        Err(e) => Response {
            status: 502,
            body: to_json(&ErrorBody { error: format!("chaos proxy: upstream failure: {e}") }),
            content_type: "application/json".into(),
            headers: Vec::new(),
        },
    }
}

/// An in-process fault injector around a [`Microservice`].
///
/// Faults map to handler-level behaviours: latency sleeps on the worker thread,
/// errors surface as [`ServiceError::Internal`], drops become handler *panics*
/// (exercising the worker pool's panic containment end to end), and corruption
/// mangles the response bytes.
pub struct ChaosService {
    inner: Arc<dyn Microservice>,
    plan: FaultPlan,
    next_index: AtomicU64,
    tally: FaultTally,
}

impl ChaosService {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: Arc<dyn Microservice>, plan: FaultPlan) -> Self {
        let _ = plan.decide(0); // validate rates eagerly
        Self { inner, plan, next_index: AtomicU64::new(0), tally: FaultTally::default() }
    }

    /// Injected-fault tally so far.
    pub fn fault_counts(&self) -> FaultCounts {
        self.tally.snapshot()
    }
}

impl Microservice for ChaosService {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn vcpus(&self) -> usize {
        self.inner.vcpus()
    }

    fn handle(&self, endpoint: &str, body: &[u8]) -> Result<Vec<u8>, ServiceError> {
        let index = self.next_index.fetch_add(1, Ordering::SeqCst);
        let fault = self.plan.decide(index);
        if let Some(f) = fault {
            self.tally.record(f);
        }
        match fault {
            Some(Fault::Latency) => {
                std::thread::sleep(self.plan.added_latency);
                self.inner.handle(endpoint, body)
            }
            Some(Fault::Error) => Err(ServiceError::Internal("chaos: injected fault".into())),
            Some(Fault::Drop) => panic!("chaos: injected handler panic"),
            Some(Fault::Corrupt) => {
                let mut out = self.inner.handle(endpoint, body)?;
                for b in &mut out {
                    *b ^= 0xA5;
                }
                Ok(out)
            }
            None => self.inner.handle(endpoint, body),
        }
    }
}

impl std::fmt::Debug for ChaosService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosService")
            .field("inner", &self.inner.name())
            .field("plan", &self.plan)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{request, request_with_headers, HttpError, HttpServer};

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let plan = FaultPlan::uniform(42, 0.2, Duration::from_millis(1));
        let a: Vec<_> = (0..512).map(|i| plan.decide(i)).collect();
        let b: Vec<_> = (0..512).map(|i| plan.decide(i)).collect();
        assert_eq!(a, b, "same seed must reproduce the same schedule");
        let other = FaultPlan { seed: 43, ..plan };
        let c: Vec<_> = (0..512).map(|i| other.decide(i)).collect();
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn zero_rates_never_fault_and_full_rate_always_faults() {
        let quiet = FaultPlan::default();
        assert!((0..256).all(|i| quiet.decide(i).is_none()));
        let storm = FaultPlan { error_rate: 1.0, ..FaultPlan::default() };
        assert!((0..256).all(|i| storm.decide(i) == Some(Fault::Error)));
    }

    #[test]
    fn fault_frequency_tracks_the_rate() {
        let plan = FaultPlan { seed: 7, error_rate: 0.1, ..FaultPlan::default() };
        let hits = (0..10_000).filter(|&i| plan.decide(i).is_some()).count();
        assert!((700..=1300).contains(&hits), "10% of 10k should be ~1000, got {hits}");
    }

    #[test]
    #[should_panic(expected = "invalid fault rates")]
    fn rates_over_one_are_rejected() {
        let plan = FaultPlan { error_rate: 0.7, drop_rate: 0.7, ..FaultPlan::default() };
        let _ = plan.decide(0);
    }

    fn upstream_echo() -> HttpServer {
        HttpServer::spawn(|req| {
            let echoed = req.headers.get("x-spatial-deadline-ms").cloned();
            match echoed {
                Some(v) => Response::text(200, v),
                None => Response::json(req.body),
            }
        })
        .unwrap()
    }

    #[test]
    fn quiet_proxy_is_transparent_and_forwards_spatial_headers() {
        let upstream = upstream_echo();
        let proxy =
            ChaosProxy::spawn(upstream.addr(), FaultPlan::default(), Duration::from_secs(5))
                .unwrap();
        let resp = request(proxy.addr(), "POST", "/x", b"payload", Duration::from_secs(5)).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"payload");
        // x-spatial-* headers pass through.
        let resp = request_with_headers(
            proxy.addr(),
            "GET",
            "/x",
            &[("x-spatial-deadline-ms".into(), "99".into())],
            b"",
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(resp.body, b"99");
        assert_eq!(proxy.requests_seen(), 2);
        assert_eq!(proxy.fault_counts().total(), 0);
    }

    #[test]
    fn error_fault_is_a_503_without_touching_the_upstream() {
        // A dead upstream proves the proxy answered from its own fault path.
        let dead = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let plan = FaultPlan { error_rate: 1.0, ..FaultPlan::default() };
        let proxy = ChaosProxy::spawn(dead, plan, Duration::from_millis(200)).unwrap();
        let resp = request(proxy.addr(), "GET", "/x", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(proxy.fault_counts().error, 1);
    }

    #[test]
    fn drop_fault_fails_the_client_transport() {
        let upstream = upstream_echo();
        let plan = FaultPlan { drop_rate: 1.0, ..FaultPlan::default() };
        let proxy = ChaosProxy::spawn(upstream.addr(), plan, Duration::from_secs(5)).unwrap();
        let result = request(proxy.addr(), "GET", "/x", b"", Duration::from_secs(2));
        assert!(result.is_err(), "dropped connection must error, got {result:?}");
        assert_eq!(proxy.fault_counts().drop, 1);
    }

    #[test]
    fn corrupt_fault_is_unparsable_not_silently_wrong() {
        let upstream = upstream_echo();
        let plan = FaultPlan { corrupt_rate: 1.0, ..FaultPlan::default() };
        let proxy = ChaosProxy::spawn(upstream.addr(), plan, Duration::from_secs(5)).unwrap();
        let result = request(proxy.addr(), "POST", "/x", b"data", Duration::from_secs(2));
        match result {
            Err(HttpError::Malformed(_)) | Err(HttpError::Io(_)) => {}
            other => panic!("corrupted response must fail parsing, got {other:?}"),
        }
        assert_eq!(proxy.fault_counts().corrupt, 1);
    }

    #[test]
    fn latency_fault_delays_but_succeeds() {
        let upstream = upstream_echo();
        let plan = FaultPlan {
            latency_rate: 1.0,
            added_latency: Duration::from_millis(80),
            ..FaultPlan::default()
        };
        let proxy = ChaosProxy::spawn(upstream.addr(), plan, Duration::from_secs(5)).unwrap();
        let t0 = std::time::Instant::now();
        let resp = request(proxy.addr(), "POST", "/x", b"z", Duration::from_secs(5)).unwrap();
        assert_eq!(resp.status, 200);
        assert!(t0.elapsed() >= Duration::from_millis(80), "latency must be injected");
        assert_eq!(proxy.fault_counts().latency, 1);
    }

    struct Upper;

    impl Microservice for Upper {
        fn name(&self) -> &str {
            "upper"
        }
        fn vcpus(&self) -> usize {
            1
        }
        fn handle(&self, _endpoint: &str, body: &[u8]) -> Result<Vec<u8>, ServiceError> {
            Ok(String::from_utf8_lossy(body).to_uppercase().into_bytes())
        }
    }

    #[test]
    fn chaos_service_injects_handler_level_faults() {
        let quiet = ChaosService::new(Arc::new(Upper), FaultPlan::default());
        assert_eq!(quiet.handle("/x", b"ab").unwrap(), b"AB");
        assert_eq!(quiet.name(), "upper");
        assert_eq!(quiet.vcpus(), 1);

        let err_only = ChaosService::new(
            Arc::new(Upper),
            FaultPlan { error_rate: 1.0, ..FaultPlan::default() },
        );
        assert!(matches!(err_only.handle("/x", b"ab"), Err(ServiceError::Internal(_))));
        assert_eq!(err_only.fault_counts().error, 1);

        let corrupt = ChaosService::new(
            Arc::new(Upper),
            FaultPlan { corrupt_rate: 1.0, ..FaultPlan::default() },
        );
        let out = corrupt.handle("/x", b"ab").unwrap();
        assert_ne!(out, b"AB", "corrupted output must differ");
    }

    #[test]
    fn chaos_service_drop_fault_panics_for_worker_containment() {
        let svc = ChaosService::new(
            Arc::new(Upper),
            FaultPlan { drop_rate: 1.0, ..FaultPlan::default() },
        );
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| svc.handle("/x", b"a")));
        assert!(result.is_err(), "drop fault must panic at the service level");
        assert_eq!(svc.fault_counts().drop, 1);
    }
}
