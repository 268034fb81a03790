//! The API gateway — the Kong substitute.
//!
//! "The back-end deployment uses a micro-service API gateway to support various
//! micro-services … The API Gateway manages the communication flow" (§V). This
//! gateway routes by path prefix, load-balances round-robin across replicas, records
//! per-route latency/error metrics, health-checks upstreams, and applies a full
//! resilience policy suite so the deployment stays available while individual
//! replicas are failing:
//!
//! - a three-state circuit breaker per replica ([`crate::breaker`]) that fails fast
//!   on sick upstreams and recovers via a single half-open probe;
//! - bounded retries with exponential backoff + jitter for idempotent requests,
//!   metered by a gateway-wide retry budget ([`crate::retry`]) so a failing
//!   upstream cannot trigger a retry storm, with 5xx/transport failover to the
//!   next replica;
//! - per-request deadline propagation: a client's `x-spatial-deadline-ms` header is
//!   honored and decremented across retries, expired work is shed with `504`;
//! - an optional background health checker that proactively evicts failing
//!   replicas from rotation and restores them on recovery;
//! - resilience telemetry (retries, breaker transitions, sheds, evictions)
//!   surfaced as a [`spatial_telemetry::ResilienceReport`] and, since the
//!   observability PR, as counters in a [`MetricsRegistry`];
//! - end-to-end tracing: each client request becomes a span tree (root + one child
//!   per attempt), the trace context propagates upstream via `x-spatial-trace-id` /
//!   `x-spatial-parent-span`, and the admin endpoints `GET /metrics` (Prometheus
//!   text), `GET /trace/{id}` (JSON span tree), and `GET /healthz` expose it all.

use crate::breaker::{Admission, Breaker, Transition};
use crate::client::PooledClient;
use crate::http::{self, Request, Response};
use crate::reactor::{ReactorServer, ReactorStats};
use crate::retry::{RetryPolicy, TokenBucket};
use crate::wire::{to_json, ErrorBody};
use parking_lot::{Mutex, RwLock};
use spatial_durability::journal::{names as durability_names, DurabilityReport};
use spatial_durability::json::Codec;
use spatial_fleet::shadow::{compare_shadow, ShadowEvidence, ShadowOutcome, ShadowSampler};
use spatial_linalg::rng;
use spatial_telemetry::clock::SystemClock;
use spatial_telemetry::fleet as fleet_metrics;
use spatial_telemetry::profile::{ProfScope, Profiler};
use spatial_telemetry::registry::{HistogramHandle, MetricsRegistry, SeriesValue};
use spatial_telemetry::slo::{BudgetBreach, SloEngine, SloSpec, SloStatus};
use spatial_telemetry::trace::{trace_to_json, SpanCollector, SpanId, SpanStatus, TraceId};
use spatial_telemetry::{Counter, LatencyRecorder, ResilienceReport, SummaryReport};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::breaker::CircuitConfig;

/// Header carrying a request's remaining deadline budget in milliseconds. The
/// gateway sheds work whose deadline has passed (504) and forwards the header,
/// decremented, to upstreams so the whole chain honors the same budget.
pub const DEADLINE_HEADER: &str = "x-spatial-deadline-ms";

/// Marker header declaring a non-`GET` request safe to retry. `GET` requests are
/// always treated as idempotent.
pub const IDEMPOTENT_HEADER: &str = "x-spatial-idempotent";

/// Header carrying the 32-hex trace id. Clients may supply one; the gateway
/// generates one otherwise and forwards it upstream on every attempt.
pub const TRACE_HEADER: &str = "x-spatial-trace-id";

/// Header carrying the 16-hex id of the caller's span; the upstream parents its own
/// spans under it. The gateway overwrites this with the current attempt's span id.
pub const PARENT_SPAN_HEADER: &str = "x-spatial-parent-span";

/// Header carrying an opaque shard key. Routes configured with
/// [`RoutingPolicy::ConsistentHash`] pin all requests bearing the same key to the
/// same replica (while it stays available); requests without the header fall back
/// to round-robin.
pub const SHARD_KEY_HEADER: &str = "x-spatial-shard-key";

/// Spans retained by the gateway's trace collector before the oldest are evicted.
const SPAN_CAPACITY: usize = 4096;

/// Background health-checker policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthCheckConfig {
    /// Delay between probe sweeps.
    pub interval: Duration,
    /// Per-probe timeout.
    pub timeout: Duration,
    /// Consecutive failed probes that evict a replica from rotation.
    pub failures_to_evict: u32,
    /// Consecutive successful probes that restore an evicted replica.
    pub successes_to_restore: u32,
    /// Per-replica probe jitter as a fraction of `interval` (`0.0` disables it).
    /// With N replicas of one route, a jitter-free checker fires N probes in the
    /// same instant every sweep — a synchronized burst that can tip a struggling
    /// upstream over. Each probe is instead delayed by a seeded offset in
    /// `[0, jitter * interval)`, deterministic per `(sweep, route, replica)`.
    pub jitter: f64,
    /// Seed for the probe-offset stream, so two gateways with the same
    /// configuration jitter identically.
    pub jitter_seed: u64,
}

impl Default for HealthCheckConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(500),
            timeout: Duration::from_millis(250),
            failures_to_evict: 2,
            successes_to_restore: 1,
            jitter: 0.0,
            jitter_seed: 0,
        }
    }
}

/// How a route spreads requests over its replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// Rotate through replicas in registration order (the seed behaviour).
    #[default]
    RoundRobin,
    /// Prefer the replica with the fewest requests currently in flight
    /// (ties break toward the lowest index, so the choice is deterministic).
    LeastLoaded,
    /// Rendezvous-hash the request's [`SHARD_KEY_HEADER`] over the replicas so
    /// equal keys stick to one replica; keyless requests fall back to
    /// round-robin. The seed keeps the key→replica mapping reproducible.
    ConsistentHash {
        /// Seed mixed into every rendezvous score.
        seed: u64,
    },
}

impl RoutingPolicy {
    /// Stable label for status endpoints and dashboards.
    pub fn name(&self) -> &'static str {
        match self {
            RoutingPolicy::RoundRobin => "round-robin",
            RoutingPolicy::LeastLoaded => "least-loaded",
            RoutingPolicy::ConsistentHash { .. } => "consistent-hash",
        }
    }
}

/// Full gateway policy bundle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatewayConfig {
    /// Per-attempt upstream timeout (connect/read/write each).
    pub upstream_timeout: Duration,
    /// Circuit-breaker policy applied per upstream replica.
    pub circuit: CircuitConfig,
    /// Retry/backoff/budget policy for idempotent requests.
    pub retry: RetryPolicy,
    /// Background health checking; `None` disables the checker thread.
    pub health: Option<HealthCheckConfig>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            upstream_timeout: Duration::from_secs(30),
            circuit: CircuitConfig::default(),
            retry: RetryPolicy::default(),
            health: None,
        }
    }
}

/// Health state of one upstream replica.
#[derive(Debug)]
struct Upstream {
    addr: SocketAddr,
    breaker: Breaker,
    /// Set by the background health checker; evicted replicas leave rotation.
    evicted: AtomicBool,
    /// Set administratively (e.g. while the replica is a rollout canary);
    /// drained replicas leave live rotation but stay health-checked and keep
    /// receiving shadow traffic.
    drained: AtomicBool,
    /// Requests currently being forwarded to this replica.
    in_flight: AtomicUsize,
    /// Free-form operator annotation surfaced by `GET /fleet` (e.g. the epoch).
    tag: Mutex<String>,
    probe_failures: AtomicU32,
    probe_successes: AtomicU32,
}

impl Upstream {
    fn new(addr: SocketAddr, circuit: CircuitConfig) -> Self {
        Self {
            addr,
            breaker: Breaker::new(circuit),
            evicted: AtomicBool::new(false),
            drained: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            tag: Mutex::new(String::new()),
            probe_failures: AtomicU32::new(0),
            probe_successes: AtomicU32::new(0),
        }
    }

    /// Feeds one background-probe outcome into the evict/restore state.
    fn note_probe(&self, ok: bool, cfg: &HealthCheckConfig, stats: &ResilienceCounters) {
        if ok {
            self.probe_failures.store(0, Ordering::Relaxed);
            let successes = self.probe_successes.fetch_add(1, Ordering::Relaxed) + 1;
            if self.evicted.load(Ordering::Relaxed) && successes >= cfg.successes_to_restore {
                self.evicted.store(false, Ordering::Relaxed);
                // The prober has seen the replica answer; clear the breaker too so
                // the restored replica re-enters rotation immediately.
                self.breaker.on_success();
                stats.restorations.inc();
            }
        } else {
            self.probe_successes.store(0, Ordering::Relaxed);
            let failures = self.probe_failures.fetch_add(1, Ordering::Relaxed) + 1;
            if !self.evicted.load(Ordering::Relaxed) && failures >= cfg.failures_to_evict {
                self.evicted.store(true, Ordering::Relaxed);
                stats.evictions.inc();
            }
        }
    }
}

/// A shadow tap on a route: a fraction of live requests is duplicated to
/// `target` after the primary response is in hand, and the two responses are
/// compared. Shadow failures are recorded, never surfaced.
#[derive(Debug)]
struct ShadowTap {
    target: SocketAddr,
    sampler: Mutex<ShadowSampler>,
    evidence: Mutex<ShadowEvidence>,
}

/// One routing entry: a path prefix and its upstream replicas.
#[derive(Debug)]
struct Route {
    upstreams: Vec<Upstream>,
    next: AtomicUsize,
    policy: RoutingPolicy,
    shadow: Option<ShadowTap>,
    recorder: Arc<LatencyRecorder>,
    /// Per-route request latency in the shared registry, exposed via `/metrics`.
    duration: HistogramHandle,
    /// Per-route latency of each upstream attempt alone; `duration` minus this
    /// is the gateway's own time (routing, backoff, recording).
    upstream_exchange: HistogramHandle,
}

/// Shared routing table.
#[derive(Default)]
struct Table {
    routes: HashMap<String, Route>,
}

/// Resilience event counters, shared between the forward path, the health checker,
/// and [`ApiGateway::resilience_report`]. The counters live in the gateway's
/// [`MetricsRegistry`], so `/metrics` exposes them under `spatial_gateway_*_total`
/// names while this struct keeps cheap typed handles.
#[derive(Debug)]
struct ResilienceCounters {
    retries: Arc<Counter>,
    retry_budget_exhausted: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    breaker_opened: Arc<Counter>,
    breaker_probes: Arc<Counter>,
    breaker_closed: Arc<Counter>,
    evictions: Arc<Counter>,
    restorations: Arc<Counter>,
}

impl ResilienceCounters {
    fn register(registry: &MetricsRegistry) -> Self {
        Self {
            retries: registry
                .counter("spatial_gateway_retries_total", "Retry attempts issued by the gateway"),
            retry_budget_exhausted: registry.counter(
                "spatial_gateway_retry_budget_exhausted_total",
                "Retries suppressed because the token-bucket retry budget was empty",
            ),
            deadline_exceeded: registry.counter(
                "spatial_gateway_deadline_exceeded_total",
                "Requests shed with 504 because their deadline budget expired",
            ),
            breaker_opened: registry.counter(
                "spatial_gateway_breaker_opened_total",
                "Circuit-breaker transitions into the open state",
            ),
            breaker_probes: registry.counter(
                "spatial_gateway_breaker_probes_total",
                "Half-open probe requests admitted by a circuit breaker",
            ),
            breaker_closed: registry.counter(
                "spatial_gateway_breaker_closed_total",
                "Circuit-breaker recoveries back into the closed state",
            ),
            evictions: registry.counter(
                "spatial_gateway_evictions_total",
                "Replicas evicted from rotation by the background health checker",
            ),
            restorations: registry.counter(
                "spatial_gateway_restorations_total",
                "Evicted replicas restored to rotation by the background health checker",
            ),
        }
    }
}

/// Everything the per-request forward path needs.
struct ForwardState {
    table: Arc<RwLock<Table>>,
    config: GatewayConfig,
    stats: Arc<ResilienceCounters>,
    retry_bucket: TokenBucket,
    jitter_salt: AtomicU64,
    registry: Arc<MetricsRegistry>,
    collector: Arc<SpanCollector>,
    profiler: Arc<Profiler>,
    slos: Arc<SloEngine>,
    /// Outcome of the boot-time durable-state recovery, published by
    /// [`ApiGateway::set_durability_report`] and served by `GET /durability`.
    durability: Mutex<Option<DurabilityReport>>,
    /// Pooled keep-alive client carrying every upstream attempt (and shadow
    /// duplicate), so proxied requests stop paying per-attempt connect cost.
    client: PooledClient,
    /// Counters of the reactor serving the listen socket; installed right after
    /// spawn so `GET /metrics` can mirror the event-loop gauges.
    reactor: Mutex<Option<Arc<ReactorStats>>>,
}

/// Observable status of one replica, for dashboards and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// The replica's address.
    pub addr: SocketAddr,
    /// Breaker state: `"closed"`, `"open"`, or `"half-open"`.
    pub breaker: &'static str,
    /// Whether the background health checker has evicted it from rotation.
    pub evicted: bool,
    /// Whether an operator (or the rollout driver) has drained it from live
    /// rotation.
    pub drained: bool,
    /// Requests currently in flight to it.
    pub in_flight: usize,
    /// Operator annotation (e.g. `"epoch=2 canary"`), empty when unset.
    pub tag: String,
}

/// Snapshot of a route's shadow tap, as returned by [`ApiGateway::shadow_report`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowReport {
    /// Where duplicates are sent.
    pub target: SocketAddr,
    /// Live requests the sampler has seen since the tap was set.
    pub total: u64,
    /// Requests duplicated to the target.
    pub sampled: u64,
    /// Comparison outcomes accumulated so far.
    pub evidence: ShadowEvidence,
}

/// Snapshot of the gateway's upstream connection-pool counters, as returned by
/// [`ApiGateway::upstream_pool_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForwardPoolStats {
    /// Fresh TCP connections opened to upstreams.
    pub connects: u64,
    /// Upstream requests served over a pooled keep-alive connection.
    pub reuses: u64,
    /// Idle connections discarded after the liveness probe saw them dead.
    pub stale_drops: u64,
    /// Requests replayed on a fresh connection after a reused one failed
    /// before the server could have processed them.
    pub retries_on_stale: u64,
    /// Reused-connection failures surfaced as errors because a replay would
    /// have been unsafe (timeout, or the response had already started).
    pub replay_suppressed: u64,
}

/// The running gateway.
pub struct ApiGateway {
    server: ReactorServer,
    state: Arc<ForwardState>,
    health_stop: Arc<AtomicBool>,
    health_thread: Option<std::thread::JoinHandle<()>>,
}

impl ApiGateway {
    /// Spawns the gateway on a loopback port with the default circuit breaker and
    /// the seed behaviour otherwise: no retries, no background health checker.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn spawn(upstream_timeout: Duration) -> std::io::Result<Self> {
        Self::spawn_with_circuit(upstream_timeout, CircuitConfig::default())
    }

    /// Spawns the gateway with an explicit circuit-breaker policy (and no retries,
    /// like [`ApiGateway::spawn`]).
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn spawn_with_circuit(
        upstream_timeout: Duration,
        circuit: CircuitConfig,
    ) -> std::io::Result<Self> {
        Self::spawn_with_config(GatewayConfig {
            upstream_timeout,
            circuit,
            retry: RetryPolicy::disabled(),
            health: None,
        })
    }

    /// Spawns the gateway with the full resilience policy bundle.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn spawn_with_config(config: GatewayConfig) -> std::io::Result<Self> {
        let registry = Arc::new(MetricsRegistry::new());
        // Mirror the shared compute pool into this registry so `GET /metrics` shows
        // compute saturation next to the request-path series.
        spatial_parallel::global().install_metrics(&registry);
        let collector = Arc::new(SpanCollector::new(SPAN_CAPACITY));
        let clock = Arc::new(SystemClock::new());
        let profiler = Arc::new(Profiler::new(clock.clone()));
        // Pool worker time lands in the same profile as the request path.
        spatial_parallel::global().install_profiler(Arc::clone(&profiler));
        let state = Arc::new(ForwardState {
            table: Arc::new(RwLock::new(Table::default())),
            config,
            stats: Arc::new(ResilienceCounters::register(&registry)),
            retry_bucket: TokenBucket::new(config.retry.budget, config.retry.budget_refill_per_sec),
            jitter_salt: AtomicU64::new(0),
            registry,
            collector,
            profiler,
            slos: Arc::new(SloEngine::new(clock)),
            durability: Mutex::new(None),
            client: PooledClient::new(),
            reactor: Mutex::new(None),
        });
        let handler_state = Arc::clone(&state);
        let server = ReactorServer::spawn(move |req: Request| forward(&handler_state, req))?;
        *state.reactor.lock() = Some(server.stats());
        let health_stop = Arc::new(AtomicBool::new(false));
        let health_thread = match config.health {
            Some(health) => Some(spawn_health_checker(
                Arc::clone(&state.table),
                Arc::clone(&state.stats),
                health,
                Arc::clone(&health_stop),
            )?),
            None => None,
        };
        Ok(Self { server, state, health_stop, health_thread })
    }

    /// The gateway's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Event-loop counters of the reactor serving the gateway's listen socket
    /// (open connections, keep-alive reuse, wakeups).
    pub fn reactor_stats(&self) -> Arc<ReactorStats> {
        self.server.stats()
    }

    /// Reuse counters of the pooled keep-alive upstream client.
    pub fn upstream_pool_stats(&self) -> ForwardPoolStats {
        let s = self.state.client.stats();
        ForwardPoolStats {
            connects: s.connects(),
            reuses: s.reuses(),
            stale_drops: s.stale_drops(),
            retries_on_stale: s.retries_on_stale(),
            replay_suppressed: s.replay_suppressed(),
        }
    }

    /// Registers (or extends) a route: requests whose path starts with
    /// `/{prefix}/` forward to `upstream`. Registering the same prefix again adds a
    /// replica for round-robin balancing.
    pub fn register(&self, prefix: &str, upstream: SocketAddr) {
        let circuit = self.state.config.circuit;
        let duration = self.state.registry.histogram_with(
            "spatial_gateway_request_duration_ms",
            "End-to-end gateway request latency in milliseconds, by route",
            &[("route", prefix)],
        );
        let upstream_exchange = self.state.registry.histogram_with(
            "spatial_gateway_upstream_exchange_duration_ms",
            "Latency of one upstream attempt (request written to response read) in milliseconds, by route",
            &[("route", prefix)],
        );
        let mut table = self.state.table.write();
        match table.routes.get_mut(prefix) {
            Some(route) => route.upstreams.push(Upstream::new(upstream, circuit)),
            None => {
                table.routes.insert(
                    prefix.to_string(),
                    Route {
                        upstreams: vec![Upstream::new(upstream, circuit)],
                        next: AtomicUsize::new(0),
                        policy: RoutingPolicy::RoundRobin,
                        shadow: None,
                        recorder: Arc::new(LatencyRecorder::new(prefix)),
                        duration,
                        upstream_exchange,
                    },
                );
            }
        }
    }

    /// The gateway's unified metrics registry, as served by `GET /metrics`.
    pub fn metrics_registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.state.registry)
    }

    /// The gateway's span collector, as served by `GET /trace/{id}`.
    pub fn trace_collector(&self) -> Arc<SpanCollector> {
        Arc::clone(&self.state.collector)
    }

    /// The gateway's continuous profiler, as served by `GET /profile`. Every
    /// forwarded request is attributed to named stages under `gateway.forward`.
    pub fn profiler(&self) -> Arc<Profiler> {
        Arc::clone(&self.state.profiler)
    }

    /// Installs (or replaces) an SLO over the gateway's own metrics. Installed
    /// SLOs are re-evaluated on every `/metrics` scrape and by
    /// [`ApiGateway::slo_statuses`] / [`ApiGateway::slo_breach`].
    pub fn install_slo(&self, spec: SloSpec) {
        self.state.slos.install(spec);
    }

    /// Evaluates every installed SLO against the gateway registry, publishing
    /// the budget/burn gauges as a side effect.
    pub fn slo_statuses(&self) -> Vec<SloStatus> {
        self.state.slos.evaluate(&self.state.registry)
    }

    /// The most severe breach currently firing across installed SLOs, if any —
    /// the signal the fleet driver feeds into
    /// `FleetController::step_with_slo`.
    pub fn slo_breach(&self) -> Option<BudgetBreach> {
        self.slo_statuses().into_iter().filter_map(|s| s.breach).max_by_key(|b| b.severity)
    }

    /// Publishes the outcome of the boot-time durable-state recovery. The
    /// report is served by `GET /durability`, and its counts land in the
    /// `spatial_durability_*` counters on `/metrics` — the driver calls this
    /// once after `spatial_fleet::DurablePlane::recover`, before admitting
    /// traffic. Calling it again (e.g. after an in-place restart) replaces the
    /// report and accumulates the counters.
    pub fn set_durability_report(&self, report: DurabilityReport) {
        let r = &self.state.registry;
        r.counter(durability_names::RECOVERIES_COUNTER, durability_names::RECOVERIES_HELP).inc();
        r.counter(
            durability_names::RECORDS_RECOVERED_COUNTER,
            durability_names::RECORDS_RECOVERED_HELP,
        )
        .add(report.records_recovered);
        r.counter(
            durability_names::TRUNCATED_TAILS_COUNTER,
            durability_names::TRUNCATED_TAILS_HELP,
        )
        .add(report.truncated_tails);
        *self.state.durability.lock() = Some(report);
    }

    /// The last recovery report published via
    /// [`ApiGateway::set_durability_report`], if any.
    pub fn durability_report(&self) -> Option<DurabilityReport> {
        *self.state.durability.lock()
    }

    /// Registered prefixes.
    pub fn routes(&self) -> Vec<String> {
        self.state.table.read().routes.keys().cloned().collect()
    }

    /// The JMeter-style summary for one route, if registered.
    pub fn route_summary(&self, prefix: &str) -> Option<SummaryReport> {
        self.state.table.read().routes.get(prefix).map(|r| r.recorder.summary())
    }

    /// Per-replica breaker/eviction status for one route.
    pub fn replica_status(&self, prefix: &str) -> Vec<ReplicaStatus> {
        let table = self.state.table.read();
        match table.routes.get(prefix) {
            Some(route) => route
                .upstreams
                .iter()
                .map(|u| ReplicaStatus {
                    addr: u.addr,
                    breaker: u.breaker.state_name(),
                    evicted: u.evicted.load(Ordering::Relaxed),
                    drained: u.drained.load(Ordering::Relaxed),
                    in_flight: u.in_flight.load(Ordering::Relaxed),
                    tag: u.tag.lock().clone(),
                })
                .collect(),
            None => Vec::new(),
        }
    }

    /// Sets the routing policy of a registered route. Returns `false` for an
    /// unknown prefix.
    pub fn set_routing(&self, prefix: &str, policy: RoutingPolicy) -> bool {
        let mut table = self.state.table.write();
        match table.routes.get_mut(prefix) {
            Some(route) => {
                route.policy = policy;
                true
            }
            None => false,
        }
    }

    /// Drains (or un-drains) one replica of a route: a drained replica leaves
    /// live rotation but stays health-checked and remains a valid shadow
    /// target. Returns `false` when the route or replica is unknown.
    pub fn set_drain(&self, prefix: &str, addr: SocketAddr, drained: bool) -> bool {
        let table = self.state.table.read();
        let Some(up) = table
            .routes
            .get(prefix)
            .and_then(|route| route.upstreams.iter().find(|u| u.addr == addr))
        else {
            return false;
        };
        up.drained.store(drained, Ordering::Relaxed);
        true
    }

    /// Annotates one replica with a free-form tag shown by `GET /fleet` (e.g.
    /// `"epoch=2 canary"`). Returns `false` when the route or replica is unknown.
    pub fn set_replica_tag(&self, prefix: &str, addr: SocketAddr, tag: &str) -> bool {
        let table = self.state.table.read();
        let Some(up) = table
            .routes
            .get(prefix)
            .and_then(|route| route.upstreams.iter().find(|u| u.addr == addr))
        else {
            return false;
        };
        *up.tag.lock() = tag.to_string();
        true
    }

    /// Installs a shadow tap on a route: from now on, a `fraction` of live
    /// requests is duplicated to `target` after the primary response is served,
    /// and the responses are compared (see `spatial_fleet::shadow`). Replaces
    /// any existing tap and resets its counters. Returns `false` for an unknown
    /// prefix.
    pub fn set_shadow(&self, prefix: &str, target: SocketAddr, fraction: f64) -> bool {
        let mut table = self.state.table.write();
        match table.routes.get_mut(prefix) {
            Some(route) => {
                route.shadow = Some(ShadowTap {
                    target,
                    sampler: Mutex::new(ShadowSampler::new(fraction)),
                    evidence: Mutex::new(ShadowEvidence::default()),
                });
                true
            }
            None => false,
        }
    }

    /// Removes a route's shadow tap, if any.
    pub fn clear_shadow(&self, prefix: &str) {
        if let Some(route) = self.state.table.write().routes.get_mut(prefix) {
            route.shadow = None;
        }
    }

    /// Snapshot of a route's shadow tap; `None` when no tap is installed.
    pub fn shadow_report(&self, prefix: &str) -> Option<ShadowReport> {
        let table = self.state.table.read();
        let tap = table.routes.get(prefix)?.shadow.as_ref()?;
        let sampler = tap.sampler.lock();
        let report = ShadowReport {
            target: tap.target,
            total: sampler.total(),
            sampled: sampler.shadowed(),
            evidence: *tap.evidence.lock(),
        };
        Some(report)
    }

    /// Snapshot of the gateway's resilience telemetry. `faults_injected` is zero
    /// here; merge in [`crate::chaos::FaultCounts`] totals when running under chaos.
    pub fn resilience_report(&self) -> ResilienceReport {
        let c = &self.state.stats;
        ResilienceReport {
            retries: c.retries.value(),
            retry_budget_exhausted: c.retry_budget_exhausted.value(),
            deadline_exceeded: c.deadline_exceeded.value(),
            breaker_opened: c.breaker_opened.value(),
            breaker_probes: c.breaker_probes.value(),
            breaker_closed: c.breaker_closed.value(),
            evictions: c.evictions.value(),
            restorations: c.restorations.value(),
            faults_injected: 0,
        }
    }

    /// Health-checks every upstream of a route by `GET /{prefix}/health`; returns
    /// `(healthy, total)`. Replicas are probed **concurrently**, so N dead replicas
    /// cost one upstream timeout of wall clock, not N.
    pub fn health_check(&self, prefix: &str) -> (usize, usize) {
        let upstreams: Vec<SocketAddr> = {
            let table = self.state.table.read();
            match table.routes.get(prefix) {
                Some(r) => r.upstreams.iter().map(|u| u.addr).collect(),
                None => return (0, 0),
            }
        };
        let total = upstreams.len();
        let timeout = self.state.config.upstream_timeout;
        let healthy = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for addr in upstreams {
                let healthy = &healthy;
                let path = format!("/{prefix}/health");
                s.spawn(move || {
                    if http::request(addr, "GET", &path, b"", timeout)
                        .is_ok_and(|r| r.status == 200)
                    {
                        healthy.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        (healthy.load(Ordering::SeqCst), total)
    }
}

impl Drop for ApiGateway {
    fn drop(&mut self) {
        self.health_stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.health_thread.take() {
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for ApiGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ApiGateway")
            .field("addr", &self.addr())
            .field("routes", &self.routes())
            .finish()
    }
}

/// Replica selection outcome for one attempt.
enum Pick {
    NoRoute,
    /// Every replica is evicted, open, or has a probe in flight.
    Unavailable,
    /// `(index, addr, half_open_probe)` — the last flag marks a breaker probe, so
    /// the attempt span can record how it was admitted.
    Picked(usize, SocketAddr, bool),
}

/// Rendezvous score of one replica for one shard key: the replica with the
/// highest score owns the key. Seeded and pure, so the key→replica mapping is
/// reproducible and survives unrelated replicas joining or leaving (only keys
/// owned by a departed replica move).
fn shard_score(seed: u64, key: &str, replica: usize) -> u64 {
    // FNV-1a over the key, mixed with the seed, finalized per replica.
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    rng::derive_seed(h, replica as u64)
}

/// The order in which one attempt tries a route's replicas, per routing policy.
/// The walk still applies eviction, drain, and breaker admission; the policy
/// only decides preference.
fn candidate_order(route: &Route, shard_key: Option<&str>) -> Vec<usize> {
    let n = route.upstreams.len();
    let round_robin = |route: &Route| {
        let start_at = route.next.fetch_add(1, Ordering::Relaxed);
        (0..n).map(|k| (start_at + k) % n).collect::<Vec<_>>()
    };
    match (route.policy, shard_key) {
        (RoutingPolicy::LeastLoaded, _) => {
            let load: Vec<usize> =
                route.upstreams.iter().map(|u| u.in_flight.load(Ordering::Relaxed)).collect();
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&i| (load[i], i));
            order
        }
        (RoutingPolicy::ConsistentHash { seed }, Some(key)) => {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&i| (std::cmp::Reverse(shard_score(seed, key, i)), i));
            order
        }
        _ => round_robin(route),
    }
}

/// Walks the policy-ordered replicas that are in rotation (not evicted, not
/// drained) and admitted by their breaker. In the half-open state the breaker
/// grants a single probe.
fn pick_replica(state: &ForwardState, prefix: &str, shard_key: Option<&str>) -> Pick {
    let table = state.table.read();
    let Some(route) = table.routes.get(prefix) else {
        return Pick::NoRoute;
    };
    if route.upstreams.is_empty() {
        return Pick::Unavailable;
    }
    let now = Instant::now();
    for i in candidate_order(route, shard_key) {
        let up = &route.upstreams[i];
        if up.evicted.load(Ordering::Relaxed) || up.drained.load(Ordering::Relaxed) {
            continue;
        }
        match up.breaker.try_acquire(now) {
            Admission::Admit => return Pick::Picked(i, up.addr, false),
            Admission::Probe => {
                state.stats.breaker_probes.inc();
                return Pick::Picked(i, up.addr, true);
            }
            Admission::Reject => continue,
        }
    }
    Pick::Unavailable
}

/// Adjusts a replica's in-flight counter around an upstream attempt.
fn track_in_flight(state: &ForwardState, prefix: &str, index: usize, delta: isize) {
    let table = state.table.read();
    if let Some(up) = table.routes.get(prefix).and_then(|r| r.upstreams.get(index)) {
        if delta >= 0 {
            up.in_flight.fetch_add(delta as usize, Ordering::Relaxed);
        } else {
            up.in_flight.fetch_sub(delta.unsigned_abs(), Ordering::Relaxed);
        }
    }
}

/// Reports an attempt outcome to the chosen replica's breaker.
fn note_attempt(state: &ForwardState, prefix: &str, index: usize, ok: bool) {
    let table = state.table.read();
    if let Some(route) = table.routes.get(prefix) {
        if let Some(up) = route.upstreams.get(index) {
            if ok {
                if up.breaker.on_success() == Transition::Closed {
                    state.stats.breaker_closed.inc();
                }
            } else if up.breaker.on_failure(Instant::now()) == Transition::Opened {
                state.stats.breaker_opened.inc();
            }
        }
    }
}

fn json_error(status: u16, message: String) -> Response {
    Response {
        status,
        body: to_json(&ErrorBody { error: message }),
        content_type: "application/json".into(),
        headers: Vec::new(),
    }
}

/// The `x-spatial-*` headers to forward upstream verbatim. The deadline and trace
/// context headers are excluded: the gateway rewrites those per attempt.
fn forwardable_headers(req: &Request) -> Vec<(String, String)> {
    req.headers
        .iter()
        .filter(|(name, _)| {
            name.starts_with("x-spatial-")
                && *name != DEADLINE_HEADER
                && *name != TRACE_HEADER
                && *name != PARENT_SPAN_HEADER
        })
        .map(|(name, value)| (name.clone(), value.clone()))
        .collect()
}

/// Refreshes the event-loop and upstream-pool gauges at scrape time, so
/// `GET /metrics` always shows current reactor occupancy next to the
/// request-path series.
fn mirror_transport_gauges(state: &ForwardState) {
    if let Some(reactor) = state.reactor.lock().as_ref() {
        let set = |name: &str, help: &str, value: u64| {
            state.registry.gauge(name, help).set(value as f64);
        };
        set(
            "spatial_gateway_reactor_open_connections",
            "Client connections currently held open by the gateway's event loop",
            reactor.open_connections(),
        );
        set(
            "spatial_gateway_reactor_accepted_total",
            "Client connections accepted by the gateway's event loop since start",
            reactor.accepted_total(),
        );
        set(
            "spatial_gateway_reactor_wakeups_total",
            "Readiness wakeups (poll returns) of the gateway's event loop",
            reactor.wakeups(),
        );
        set(
            "spatial_gateway_reactor_keepalive_reuses_total",
            "Requests served on an already-open client connection (keep-alive reuse)",
            reactor.keepalive_reuses(),
        );
        set(
            "spatial_gateway_reactor_rejected_over_limit_total",
            "Client connections refused with 503 because the connection limit was reached",
            reactor.rejected_over_limit(),
        );
    }
    let pool = state.client.stats();
    let set = |name: &str, help: &str, value: u64| {
        state.registry.gauge(name, help).set(value as f64);
    };
    set(
        "spatial_gateway_upstream_pool_connects_total",
        "Fresh TCP connections the pooled upstream client has opened",
        pool.connects(),
    );
    set(
        "spatial_gateway_upstream_pool_reuses_total",
        "Upstream requests served over a pooled keep-alive connection",
        pool.reuses(),
    );
    set(
        "spatial_gateway_upstream_pool_stale_drops_total",
        "Idle upstream connections discarded after the liveness probe saw them dead",
        pool.stale_drops(),
    );
    set(
        "spatial_gateway_upstream_pool_stale_retries_total",
        "Upstream requests replayed on a fresh connection after a reused one failed",
        pool.retries_on_stale(),
    );
    set(
        "spatial_gateway_upstream_pool_replay_suppressed_total",
        "Reused-connection failures surfaced as errors because a replay would be unsafe",
        pool.replay_suppressed(),
    );
}

/// Serves the gateway's admin surface: `/metrics`, `/healthz`, `/trace/{id}`,
/// `/profile`, `/slo[/{name}]`, `/durability`, and `/exemplars/{family}`.
/// Returns `None` for
/// ordinary paths, which fall through to route forwarding. Unknown resources
/// under the admin prefixes all answer the same `{"error": …}` 404 shape.
fn admin_response(state: &ForwardState, req: &Request) -> Option<Response> {
    match req.path.as_str() {
        "/metrics" => {
            // Scrapes drive SLO evaluation: the burn/budget gauges in the body
            // are current as of this scrape.
            let _ = state.slos.evaluate(&state.registry);
            mirror_transport_gauges(state);
            Some(Response {
                status: 200,
                body: state.registry.encode().into_bytes(),
                content_type: "text/plain; version=0.0.4".into(),
                headers: Vec::new(),
            })
        }
        "/healthz" => {
            let routes = state.table.read().routes.len();
            Some(Response::json(format!("{{\"status\":\"ok\",\"routes\":{routes}}}").into_bytes()))
        }
        "/fleet" => Some(Response::json(fleet_status_json(state).into_bytes())),
        "/durability" => Some(match *state.durability.lock() {
            Some(report) => Response::json(report.to_bytes()),
            None => json_error(404, "no durable recovery has been reported".to_string()),
        }),
        "/profile" => Some(Response {
            status: 200,
            body: state.profiler.collapsed().into_bytes(),
            content_type: "text/plain".into(),
            headers: Vec::new(),
        }),
        "/slo" => {
            let statuses = state.slos.evaluate(&state.registry);
            let body: Vec<String> = statuses.iter().map(slo_status_json).collect();
            Some(Response::json(format!("{{\"slos\":[{}]}}", body.join(",")).into_bytes()))
        }
        path => Some(if let Some(id) = path.strip_prefix("/trace/") {
            match TraceId::from_hex(id) {
                None => json_error(400, format!("malformed trace id {id:?}")),
                Some(trace) => {
                    let forest = state.collector.tree(trace);
                    if forest.is_empty() {
                        json_error(404, format!("no spans recorded for trace {trace}"))
                    } else {
                        Response::json(trace_to_json(trace, &forest).into_bytes())
                    }
                }
            }
        } else if let Some(name) = path.strip_prefix("/slo/") {
            match state.slos.evaluate(&state.registry).into_iter().find(|s| s.name == name) {
                Some(status) => Response::json(slo_status_json(&status).into_bytes()),
                None => json_error(404, format!("no SLO named {name:?}")),
            }
        } else if let Some(family) = path.strip_prefix("/exemplars/") {
            match exemplars_json(&state.registry, family) {
                Some(body) => Response::json(body.into_bytes()),
                None => json_error(404, format!("no histogram family named {family:?}")),
            }
        } else {
            return None;
        }),
    }
}

/// Renders one [`SloStatus`] as JSON for the `/slo` endpoints.
fn slo_status_json(status: &SloStatus) -> String {
    let burns: Vec<String> = status
        .burn_rates
        .iter()
        .map(|(window, burn)| format!("{{\"window\":\"{window}\",\"burn_rate\":{burn}}}"))
        .collect();
    let breach = match &status.breach {
        Some(b) => format!(
            "{{\"severity\":\"{}\",\"burn_rate\":{},\"window\":\"{}\"}}",
            b.severity.as_str(),
            b.burn_rate,
            b.window
        ),
        None => "null".to_string(),
    };
    format!(
        "{{\"name\":\"{}\",\"objective\":{},\"budget_remaining\":{},\"burn_rates\":[{}],\
         \"breach\":{}}}",
        json_escape(&status.name),
        status.objective,
        status.budget_remaining,
        burns.join(","),
        breach
    )
}

/// Builds the `GET /exemplars/{family}` body: per-series, per-bucket surviving
/// exemplars with their trace ids (each resolvable via `GET /trace/{id}`).
/// `None` when no histogram family has that name.
fn exemplars_json(registry: &MetricsRegistry, family: &str) -> Option<String> {
    let snapshot = registry.snapshot();
    let metric = snapshot.iter().find(|m| m.name == family)?;
    let mut series_out = Vec::new();
    for series in &metric.series {
        let SeriesValue::Histogram(hist) = &series.value else {
            return None;
        };
        let labels: Vec<String> = series
            .labels
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
            .collect();
        let buckets: Vec<String> = hist
            .bucket_exemplars()
            .iter()
            .map(|(upper, kept)| {
                let exemplars: Vec<String> = kept
                    .iter()
                    .map(|e| format!("{{\"trace_id\":\"{}\",\"value\":{}}}", e.trace_id, e.value()))
                    .collect();
                let le = if upper.is_infinite() { "+Inf".to_string() } else { upper.to_string() };
                format!("{{\"le\":\"{le}\",\"exemplars\":[{}]}}", exemplars.join(","))
            })
            .collect();
        series_out.push(format!(
            "{{\"labels\":{{{}}},\"buckets\":[{}]}}",
            labels.join(","),
            buckets.join(",")
        ));
    }
    Some(format!(
        "{{\"family\":\"{}\",\"series\":[{}]}}",
        json_escape(family),
        series_out.join(",")
    ))
}

/// Minimal JSON string escaping for operator-supplied values (tags).
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Builds the `GET /fleet` body: per-route routing policy, per-replica breaker
/// + eviction + drain + in-flight + tag state, and the shadow tap if one is
/// installed. Routes are sorted by name so the output is deterministic.
fn fleet_status_json(state: &ForwardState) -> String {
    let table = state.table.read();
    let mut names: Vec<&String> = table.routes.keys().collect();
    names.sort();
    let routes: Vec<String> = names
        .into_iter()
        .map(|name| {
            let route = &table.routes[name];
            let replicas: Vec<String> = route
                .upstreams
                .iter()
                .map(|u| {
                    format!(
                        "{{\"addr\":\"{}\",\"breaker\":\"{}\",\"evicted\":{},\"drained\":{},\
                         \"in_flight\":{},\"tag\":\"{}\"}}",
                        u.addr,
                        u.breaker.state_name(),
                        u.evicted.load(Ordering::Relaxed),
                        u.drained.load(Ordering::Relaxed),
                        u.in_flight.load(Ordering::Relaxed),
                        json_escape(&u.tag.lock()),
                    )
                })
                .collect();
            let shadow = match &route.shadow {
                Some(tap) => {
                    let sampler = tap.sampler.lock();
                    let evidence = *tap.evidence.lock();
                    format!(
                        "{{\"target\":\"{}\",\"total\":{},\"sampled\":{},\"samples\":{},\
                         \"mismatches\":{},\"errors\":{}}}",
                        tap.target,
                        sampler.total(),
                        sampler.shadowed(),
                        evidence.samples,
                        evidence.mismatches,
                        evidence.errors,
                    )
                }
                None => "null".to_string(),
            };
            format!(
                "{{\"route\":\"{}\",\"policy\":\"{}\",\"replicas\":[{}],\"shadow\":{}}}",
                json_escape(name),
                route.policy.name(),
                replicas.join(","),
                shadow
            )
        })
        .collect();
    format!("{{\"routes\":[{}]}}", routes.join(","))
}

/// Resolves the route and forwards the request with the configured resilience
/// policies: breaker admission, deadline budget, bounded budgeted retries with
/// failover, and per-route latency recording (one sample per client request).
///
/// Tracing: the whole forward is one root span (`gateway /{prefix}`) under the
/// client's trace context (or a fresh trace), and every upstream attempt is a child
/// span tagged with its attempt number, replica, admission, and outcome. Upstreams
/// receive the trace id and the attempt span as their parent.
fn forward(state: &ForwardState, req: Request) -> Response {
    if let Some(resp) = admin_response(state, &req) {
        return resp;
    }
    let _prof = ProfScope::enter(&state.profiler, "gateway.forward");
    let prefix = req.path.trim_start_matches('/').split('/').next().unwrap_or("").to_string();
    let (recorder, duration, upstream_exchange) = {
        let _stage = ProfScope::enter(&state.profiler, "route-resolve");
        let table = state.table.read();
        match table.routes.get(&prefix) {
            Some(route) => (
                Arc::clone(&route.recorder),
                route.duration.clone(),
                route.upstream_exchange.clone(),
            ),
            None => {
                return json_error(404, format!("no route for /{prefix}"));
            }
        }
    };

    let prepare = ProfScope::enter(&state.profiler, "prepare");
    let trace_id = req
        .headers
        .get(TRACE_HEADER)
        .and_then(|v| TraceId::from_hex(v.trim()))
        .unwrap_or_else(TraceId::generate);
    let client_span = req.headers.get(PARENT_SPAN_HEADER).and_then(|v| SpanId::from_hex(v.trim()));
    let mut root = state.collector.start_span(trace_id, client_span, &format!("gateway /{prefix}"));
    root.set_attr("method", &req.method);
    root.set_attr("path", &req.path);

    let arrival = Instant::now();
    let deadline: Option<Instant> = req
        .headers
        .get(DEADLINE_HEADER)
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(|ms| arrival + Duration::from_millis(ms));
    let idempotent =
        req.method.eq_ignore_ascii_case("GET") || req.headers.contains_key(IDEMPOTENT_HEADER);
    let max_attempts = if idempotent { state.config.retry.max_attempts.max(1) } else { 1 };
    let base_headers = forwardable_headers(&req);
    let shard_key = req.headers.get(SHARD_KEY_HEADER).cloned();
    drop(prepare);

    let mut attempts = 0u32;
    let mut retries = 0u32;

    let response = loop {
        let admit = ProfScope::enter(&state.profiler, "admit");
        // Shed work whose deadline has already passed — including requests that
        // expired while backing off between retries.
        if let Some(d) = deadline {
            if Instant::now() >= d {
                state.stats.deadline_exceeded.inc();
                root.set_attr("shed", "deadline-expired");
                break json_error(504, format!("deadline exceeded for /{prefix}"));
            }
        }

        let (index, upstream, probe) = match pick_replica(state, &prefix, shard_key.as_deref()) {
            Pick::NoRoute => break json_error(404, format!("no route for /{prefix}")),
            Pick::Unavailable => {
                root.set_attr("shed", "no-available-upstream");
                break json_error(
                    503,
                    format!("circuit open or replica evicted: no available upstream of /{prefix}"),
                );
            }
            Pick::Picked(i, addr, probe) => (i, addr, probe),
        };

        attempts += 1;
        let mut attempt_span =
            state.collector.start_span(trace_id, Some(root.span_id()), "attempt");
        attempt_span.set_attr("attempt", attempts.to_string());
        attempt_span.set_attr("replica", upstream.to_string());
        attempt_span.set_attr("breaker", if probe { "half-open-probe" } else { "admit" });

        // Clamp the attempt timeout to the remaining deadline and propagate the
        // decremented budget upstream, along with the trace context. Only the
        // per-attempt headers are materialized here; the shared base set rides
        // along borrowed, uncloned.
        let mut timeout = state.config.upstream_timeout;
        let mut attempt_headers: Vec<(String, String)> = Vec::with_capacity(3);
        if let Some(d) = deadline {
            let remaining = d.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                state.stats.deadline_exceeded.inc();
                attempt_span.set_status(SpanStatus::Error);
                attempt_span.set_attr("outcome", "deadline-expired");
                root.set_attr("shed", "deadline-expired");
                break json_error(504, format!("deadline exceeded for /{prefix}"));
            }
            timeout = timeout.min(remaining);
            attempt_headers.push((DEADLINE_HEADER.to_string(), remaining.as_millis().to_string()));
        }
        attempt_headers.push((TRACE_HEADER.to_string(), trace_id.to_string()));
        attempt_headers.push((PARENT_SPAN_HEADER.to_string(), attempt_span.span_id().to_string()));

        track_in_flight(state, &prefix, index, 1);
        drop(admit);
        let result = {
            let _stage = ProfScope::enter(&state.profiler, "upstream.attempt");
            let sent = Instant::now();
            let result = state.client.request(
                upstream,
                &req.method,
                &req.path,
                &base_headers,
                &attempt_headers,
                &req.body,
                timeout,
            );
            upstream_exchange.observe_with_exemplar(sent.elapsed().as_secs_f64() * 1e3, trace_id);
            result
        };
        let settle = ProfScope::enter(&state.profiler, "settle");
        track_in_flight(state, &prefix, index, -1);
        // Transport failures count against the breaker; an HTTP response (any
        // status) means the replica is alive.
        note_attempt(state, &prefix, index, result.is_ok());

        // A < 500 response is final; 5xx (including an upstream 503 "saturated")
        // and transport errors fail over to the next replica when the retry policy
        // allows, and are relayed to the client when it doesn't.
        let failure = match result {
            Ok(resp) if resp.status < 500 => {
                attempt_span.set_status(SpanStatus::Ok);
                attempt_span.set_attr("status", resp.status.to_string());
                break resp;
            }
            Ok(resp) => {
                attempt_span.set_status(SpanStatus::Error);
                attempt_span.set_attr("status", resp.status.to_string());
                resp
            }
            Err(e) => {
                attempt_span.set_status(SpanStatus::Error);
                attempt_span.set_attr("error", e.to_string());
                json_error(502, format!("upstream failure: {e}"))
            }
        };

        if attempts >= max_attempts {
            attempt_span.set_attr("outcome", "max-attempts-reached");
            break finalize_failure(state, &prefix, deadline, failure);
        }
        if !state.retry_bucket.try_take() {
            state.stats.retry_budget_exhausted.inc();
            attempt_span.set_attr("outcome", "retry-budget-exhausted");
            break finalize_failure(state, &prefix, deadline, failure);
        }
        retries += 1;
        state.stats.retries.inc();
        attempt_span.set_attr("outcome", "retrying");
        let backoff = state
            .config
            .retry
            .backoff_before_retry(retries, state.jitter_salt.fetch_add(1, Ordering::Relaxed));
        if let Some(d) = deadline {
            // Never sleep past the deadline: shed instead.
            if Instant::now() + backoff >= d {
                state.stats.deadline_exceeded.inc();
                root.set_attr("shed", "deadline-expired");
                break json_error(504, format!("deadline exceeded for /{prefix}"));
            }
        }
        drop(attempt_span);
        drop(settle);
        {
            let _stage = ProfScope::enter(&state.profiler, "backoff");
            std::thread::sleep(backoff);
        }
    };

    let elapsed_ms = arrival.elapsed().as_secs_f64() * 1e3;
    let code = response.status.to_string();
    {
        let _stage = ProfScope::enter(&state.profiler, "record");
        recorder.mark_now();
        if response.status < 500 {
            recorder.record_ok(elapsed_ms);
        } else {
            recorder.record_err(elapsed_ms);
        }
        // The request's trace id rides along as the bucket exemplar, so a latency
        // outlier on `/metrics` links straight to its span tree.
        duration.observe_with_exemplar(elapsed_ms, trace_id);
        state
            .registry
            .counter_with(
                "spatial_gateway_requests_total",
                "Requests handled by the gateway, by route and status code",
                &[("route", &prefix), ("code", &code)],
            )
            .inc();
    }
    // The primary response is already decided; the shadow duplicate (if the
    // route has a tap and the sampler admits this request) happens after the
    // route latency was recorded, so shadow overhead never pollutes the
    // client-latency series.
    {
        let _stage = ProfScope::enter(&state.profiler, "shadow");
        maybe_shadow(state, &prefix, &req, &response, &base_headers);
    }
    let _stage = ProfScope::enter(&state.profiler, "finish");
    root.set_attr("status", code);
    root.set_attr("attempts", attempts.to_string());
    root.set_status(if response.status < 500 { SpanStatus::Ok } else { SpanStatus::Error });
    root.finish();
    response
}

/// Picks the terminal failure response: a passed deadline wins (504) over relaying
/// the last upstream failure.
fn finalize_failure(
    state: &ForwardState,
    prefix: &str,
    deadline: Option<Instant>,
    last_failure: Response,
) -> Response {
    if let Some(d) = deadline {
        if Instant::now() >= d {
            state.stats.deadline_exceeded.inc();
            return json_error(504, format!("deadline exceeded for /{prefix}"));
        }
    }
    last_failure
}

/// Marker header set on shadow duplicates so upstreams (and tests) can tell a
/// mirrored request from live traffic.
pub const SHADOW_HEADER: &str = "x-spatial-shadow";

/// Duplicates this request to the route's shadow target — if a tap is installed
/// and its sampler admits the request — and scores the canary's answer against
/// the already-served primary response. Runs synchronously so evidence counts
/// are deterministic under serial load; the duplicate is bounded by the normal
/// upstream timeout. The primary response is never altered: shadow mismatches
/// and failures become evidence in the tap (and `spatial_fleet_shadow_*`
/// counters), not client-visible errors.
fn maybe_shadow(
    state: &ForwardState,
    prefix: &str,
    req: &Request,
    primary: &Response,
    base_headers: &[(String, String)],
) {
    let target = {
        let table = state.table.read();
        let Some(tap) = table.routes.get(prefix).and_then(|r| r.shadow.as_ref()) else {
            return;
        };
        if !tap.sampler.lock().admit() {
            return;
        }
        tap.target
    };
    state
        .registry
        .counter_with(
            fleet_metrics::FLEET_SHADOW_REQUESTS_COUNTER,
            fleet_metrics::FLEET_SHADOW_REQUESTS_HELP,
            &[("route", prefix)],
        )
        .inc();
    let shadow_mark = [(SHADOW_HEADER.to_string(), "1".to_string())];
    let outcome = match state.client.request(
        target,
        &req.method,
        &req.path,
        base_headers,
        &shadow_mark,
        &req.body,
        state.config.upstream_timeout,
    ) {
        Ok(resp) => compare_shadow(primary.status, &primary.body, resp.status, &resp.body),
        Err(_) => ShadowOutcome::Error,
    };
    match outcome {
        ShadowOutcome::Match => {}
        ShadowOutcome::Mismatch => state
            .registry
            .counter_with(
                fleet_metrics::FLEET_SHADOW_MISMATCHES_COUNTER,
                fleet_metrics::FLEET_SHADOW_MISMATCHES_HELP,
                &[("route", prefix)],
            )
            .inc(),
        ShadowOutcome::Error => state
            .registry
            .counter_with(
                fleet_metrics::FLEET_SHADOW_ERRORS_COUNTER,
                fleet_metrics::FLEET_SHADOW_ERRORS_HELP,
                &[("route", prefix)],
            )
            .inc(),
    }
    let table = state.table.read();
    if let Some(tap) = table.routes.get(prefix).and_then(|r| r.shadow.as_ref()) {
        tap.evidence.lock().record(outcome);
    }
}

/// The seeded probe-start offset for one replica in one health sweep: a
/// deterministic point in `[0, jitter * interval)`, keyed by `(sweep, route,
/// replica)`. Zero when jitter is disabled. Spreading probe starts means N
/// replicas of one route are not hit by a synchronized probe burst every sweep.
fn probe_offset(config: &HealthCheckConfig, sweep: u64, prefix: &str, replica: usize) -> Duration {
    if config.jitter <= 0.0 {
        return Duration::ZERO;
    }
    let mut h = config.jitter_seed ^ sweep.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for b in prefix.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Top 53 bits of the derived stream → a uniform unit float.
    let unit = (rng::derive_seed(h, replica as u64) >> 11) as f64 / (1u64 << 53) as f64;
    config.interval.mul_f64(config.jitter.min(1.0) * unit)
}

/// Spawns the background health checker: each sweep probes every upstream of every
/// route concurrently (each probe delayed by its seeded jitter offset), evicting
/// replicas after consecutive failures and restoring them on recovery.
fn spawn_health_checker(
    table: Arc<RwLock<Table>>,
    stats: Arc<ResilienceCounters>,
    config: HealthCheckConfig,
    stop: Arc<AtomicBool>,
) -> std::io::Result<std::thread::JoinHandle<()>> {
    std::thread::Builder::new().name("gateway-health-checker".into()).spawn(move || {
        let mut sweep = 0u64;
        while !stop.load(Ordering::Relaxed) {
            let targets: Vec<(String, usize, SocketAddr)> = {
                let t = table.read();
                t.routes
                    .iter()
                    .flat_map(|(prefix, route)| {
                        route
                            .upstreams
                            .iter()
                            .enumerate()
                            .map(|(i, up)| (prefix.clone(), i, up.addr))
                            .collect::<Vec<_>>()
                    })
                    .collect()
            };
            let outcomes: Vec<(String, usize, bool)> = std::thread::scope(|s| {
                let handles: Vec<_> = targets
                    .iter()
                    .map(|(prefix, i, addr)| {
                        let offset = probe_offset(&config, sweep, prefix, *i);
                        let path = format!("/{prefix}/health");
                        let addr = *addr;
                        let timeout = config.timeout;
                        s.spawn(move || {
                            if !offset.is_zero() {
                                std::thread::sleep(offset);
                            }
                            http::request(addr, "GET", &path, b"", timeout)
                                .is_ok_and(|r| r.status == 200)
                        })
                    })
                    .collect();
                targets
                    .iter()
                    .zip(handles)
                    .map(|((prefix, i, _), h)| (prefix.clone(), *i, h.join().unwrap_or(false)))
                    .collect()
            });
            {
                let t = table.read();
                for (prefix, i, ok) in outcomes {
                    if let Some(route) = t.routes.get(&prefix) {
                        if let Some(up) = route.upstreams.get(i) {
                            up.note_probe(ok, &config, &stats);
                        }
                    }
                }
            }
            sweep = sweep.wrapping_add(1);
            // Sleep in small slices so shutdown stays prompt.
            let mut slept = Duration::ZERO;
            while slept < config.interval && !stop.load(Ordering::Relaxed) {
                let slice = Duration::from_millis(10).min(config.interval - slept);
                std::thread::sleep(slice);
                slept += slice;
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{request_with_headers, HttpServer};
    use crate::service::{Microservice, ServiceError, ServiceHost};

    struct Upper;

    impl Microservice for Upper {
        fn name(&self) -> &str {
            "upper"
        }
        fn vcpus(&self) -> usize {
            2
        }
        fn handle(&self, endpoint: &str, body: &[u8]) -> Result<Vec<u8>, ServiceError> {
            if endpoint == "/shout" {
                Ok(String::from_utf8_lossy(body).to_uppercase().into_bytes())
            } else {
                Err(ServiceError::NotFound)
            }
        }
    }

    fn cluster() -> (ApiGateway, ServiceHost) {
        let host = ServiceHost::spawn(Arc::new(Upper), 16).unwrap();
        let gw = ApiGateway::spawn(Duration::from_secs(5)).unwrap();
        gw.register("upper", host.addr());
        (gw, host)
    }

    #[test]
    fn forwarding_reuses_pooled_upstream_connections() {
        let (gw, host) = cluster();
        for _ in 0..4 {
            let r = http::request(gw.addr(), "POST", "/upper/shout", b"x", Duration::from_secs(5))
                .unwrap();
            assert_eq!(r.status, 200);
        }
        let pool = gw.upstream_pool_stats();
        assert_eq!(pool.connects, 1, "all four forwards should share one upstream connection");
        assert_eq!(pool.reuses, 3);
        assert_eq!(host.reactor_stats().accepted_total(), 1);
        let resp =
            http::request(gw.addr(), "GET", "/metrics", b"", Duration::from_secs(5)).unwrap();
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("spatial_gateway_reactor_open_connections"), "{text}");
        assert!(text.contains("spatial_gateway_upstream_pool_reuses_total 3"), "{text}");
    }

    #[test]
    fn forwards_to_the_service() {
        let (gw, _host) = cluster();
        let resp =
            http::request(gw.addr(), "POST", "/upper/shout", b"spatial", Duration::from_secs(5))
                .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"SPATIAL");
    }

    #[test]
    fn unknown_route_is_404_at_the_gateway() {
        let (gw, _host) = cluster();
        let resp =
            http::request(gw.addr(), "POST", "/nope/x", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(resp.status, 404);
        assert!(String::from_utf8_lossy(&resp.body).contains("no route"));
    }

    #[test]
    fn dead_upstream_is_502() {
        let gw = ApiGateway::spawn(Duration::from_millis(300)).unwrap();
        // Grab a port that nothing listens on by binding and dropping.
        let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        gw.register("ghost", dead);
        let resp =
            http::request(gw.addr(), "GET", "/ghost/x", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(resp.status, 502);
        let summary = gw.route_summary("ghost").unwrap();
        assert_eq!(summary.errors, 1);
    }

    #[test]
    fn metrics_accumulate_per_route() {
        let (gw, _host) = cluster();
        for _ in 0..5 {
            let _ = http::request(gw.addr(), "POST", "/upper/shout", b"x", Duration::from_secs(5))
                .unwrap();
        }
        let summary = gw.route_summary("upper").unwrap();
        assert_eq!(summary.samples, 5);
        assert_eq!(summary.errors, 0);
        assert!(summary.avg_ms > 0.0);
    }

    #[test]
    fn round_robin_spreads_over_replicas() {
        let a = ServiceHost::spawn(Arc::new(Upper), 16).unwrap();
        let b = ServiceHost::spawn(Arc::new(Upper), 16).unwrap();
        let gw = ApiGateway::spawn(Duration::from_secs(5)).unwrap();
        gw.register("upper", a.addr());
        gw.register("upper", b.addr());
        // Both replicas answer; 4 requests must all succeed through alternating
        // upstreams.
        for _ in 0..4 {
            let resp =
                http::request(gw.addr(), "POST", "/upper/shout", b"y", Duration::from_secs(5))
                    .unwrap();
            assert_eq!(resp.status, 200);
        }
        assert_eq!(gw.route_summary("upper").unwrap().samples, 4);
    }

    #[test]
    fn circuit_opens_after_threshold_and_fails_fast() {
        let gw = ApiGateway::spawn_with_circuit(
            Duration::from_millis(200),
            CircuitConfig { failure_threshold: 2, cooldown: Duration::from_secs(60) },
        )
        .unwrap();
        let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        gw.register("ghost", dead);
        // First two requests hit the dead upstream (502) and trip the breaker...
        for _ in 0..2 {
            let r =
                http::request(gw.addr(), "GET", "/ghost/x", b"", Duration::from_secs(5)).unwrap();
            assert_eq!(r.status, 502);
        }
        // ...after which requests fail fast with 503 without touching the socket.
        let t0 = std::time::Instant::now();
        let r = http::request(gw.addr(), "GET", "/ghost/x", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(r.status, 503);
        assert!(String::from_utf8_lossy(&r.body).contains("circuit open"));
        assert!(t0.elapsed() < Duration::from_millis(150), "must fail fast");
        assert!(gw.resilience_report().breaker_opened >= 1);
        assert_eq!(gw.replica_status("ghost")[0].breaker, "open");
    }

    #[test]
    fn circuit_skips_dead_replica_and_uses_live_one() {
        let live = ServiceHost::spawn(Arc::new(Upper), 16).unwrap();
        let gw = ApiGateway::spawn_with_circuit(
            Duration::from_millis(300),
            CircuitConfig { failure_threshold: 1, cooldown: Duration::from_secs(60) },
        )
        .unwrap();
        let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        gw.register("upper", dead);
        gw.register("upper", live.addr());
        // At most one request pays for the dead replica; everything after round-robins
        // onto the live one only.
        let mut failures = 0;
        for _ in 0..6 {
            let r = http::request(gw.addr(), "POST", "/upper/shout", b"x", Duration::from_secs(5))
                .unwrap();
            if r.status != 200 {
                failures += 1;
            }
        }
        assert!(failures <= 1, "breaker should isolate the dead replica: {failures}");
    }

    #[test]
    fn circuit_recovers_after_cooldown() {
        let gw = ApiGateway::spawn_with_circuit(
            Duration::from_millis(200),
            CircuitConfig { failure_threshold: 1, cooldown: Duration::from_millis(100) },
        )
        .unwrap();
        // After the cooldown the half-open breaker admits a probe, which retries the
        // socket: an opened circuit's 503 turns back into the upstream's 502.
        let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        gw.register("ghost", dead);
        let first =
            http::request(gw.addr(), "GET", "/ghost/x", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(first.status, 502); // trips the breaker (threshold 1)
        let open =
            http::request(gw.addr(), "GET", "/ghost/x", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(open.status, 503);
        std::thread::sleep(Duration::from_millis(150));
        let retried =
            http::request(gw.addr(), "GET", "/ghost/x", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(retried.status, 502, "after cooldown the probe retries the socket");
        let report = gw.resilience_report();
        assert!(report.breaker_probes >= 1, "recovery must go through a half-open probe");
    }

    #[test]
    fn health_check_counts_live_upstreams() {
        let (gw, _host) = cluster();
        assert_eq!(gw.health_check("upper"), (1, 1));
        let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        gw.register("upper", dead);
        let gw2 = gw; // silence move lint in older clippy
        assert_eq!(gw2.health_check("upper"), (1, 2));
        assert_eq!(gw2.health_check("missing"), (0, 0));
    }

    #[test]
    fn health_check_probes_replicas_concurrently() {
        // Two "black hole" replicas: the listener accepts into its backlog but never
        // answers, so each probe burns the full upstream timeout. Concurrent probing
        // must cost ~one timeout of wall clock, not the serial two.
        let hole_a = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let hole_b = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let gw = ApiGateway::spawn(Duration::from_millis(400)).unwrap();
        gw.register("slow", hole_a.local_addr().unwrap());
        gw.register("slow", hole_b.local_addr().unwrap());
        let t0 = Instant::now();
        assert_eq!(gw.health_check("slow"), (0, 2));
        let wall = t0.elapsed();
        assert!(
            wall < Duration::from_millis(700),
            "2 dead replicas must probe in ~1 timeout, took {wall:?}"
        );
    }

    #[test]
    fn retries_fail_over_to_a_live_replica() {
        let live = ServiceHost::spawn(Arc::new(Upper), 16).unwrap();
        let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let gw = ApiGateway::spawn_with_config(GatewayConfig {
            upstream_timeout: Duration::from_millis(300),
            // High threshold: we're testing retries, not the breaker.
            circuit: CircuitConfig { failure_threshold: 100, cooldown: Duration::from_secs(60) },
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(5),
                jitter: 0.5,
                budget: 64,
                budget_refill_per_sec: 0.0,
            },
            health: None,
        })
        .unwrap();
        gw.register("upper", dead);
        gw.register("upper", live.addr());
        // Marked idempotent, every request must succeed: attempts that land on the
        // dead replica fail over to the live one.
        for _ in 0..8 {
            let r = request_with_headers(
                gw.addr(),
                "POST",
                "/upper/shout",
                &[(IDEMPOTENT_HEADER.to_string(), "1".to_string())],
                b"x",
                Duration::from_secs(5),
            )
            .unwrap();
            assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
        }
        let report = gw.resilience_report();
        assert!(report.retries >= 1, "some attempts must have been retried");
        assert_eq!(gw.route_summary("upper").unwrap().errors, 0);
    }

    #[test]
    fn non_idempotent_posts_are_not_retried() {
        let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let gw = ApiGateway::spawn_with_config(GatewayConfig {
            upstream_timeout: Duration::from_millis(200),
            circuit: CircuitConfig { failure_threshold: 100, cooldown: Duration::from_secs(60) },
            retry: RetryPolicy::default(),
            health: None,
        })
        .unwrap();
        gw.register("ghost", dead);
        let r = http::request(gw.addr(), "POST", "/ghost/x", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(r.status, 502);
        assert_eq!(gw.resilience_report().retries, 0, "bare POST must not retry");
    }

    #[test]
    fn retry_budget_prevents_a_retry_storm() {
        let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let gw = ApiGateway::spawn_with_config(GatewayConfig {
            upstream_timeout: Duration::from_millis(100),
            circuit: CircuitConfig { failure_threshold: 1000, cooldown: Duration::from_secs(60) },
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
                jitter: 0.0,
                budget: 2,
                budget_refill_per_sec: 0.0,
            },
            health: None,
        })
        .unwrap();
        gw.register("ghost", dead);
        for _ in 0..5 {
            let r =
                http::request(gw.addr(), "GET", "/ghost/x", b"", Duration::from_secs(5)).unwrap();
            assert_eq!(r.status, 502);
        }
        let report = gw.resilience_report();
        assert_eq!(report.retries, 2, "only the 2 budgeted retries may happen");
        assert!(report.retry_budget_exhausted >= 3, "later requests hit the empty bucket");
    }

    /// A service that answers `/slow/work` after a configurable delay.
    struct Slow {
        delay: Duration,
    }

    impl Microservice for Slow {
        fn name(&self) -> &str {
            "slow"
        }
        fn vcpus(&self) -> usize {
            2
        }
        fn handle(&self, _endpoint: &str, body: &[u8]) -> Result<Vec<u8>, ServiceError> {
            std::thread::sleep(self.delay);
            Ok(body.to_vec())
        }
    }

    #[test]
    fn deadline_bounds_a_slow_upstream_with_504() {
        let host =
            ServiceHost::spawn(Arc::new(Slow { delay: Duration::from_millis(800) }), 16).unwrap();
        let gw = ApiGateway::spawn(Duration::from_secs(10)).unwrap();
        gw.register("slow", host.addr());
        let t0 = Instant::now();
        let r = request_with_headers(
            gw.addr(),
            "POST",
            "/slow/work",
            &[(DEADLINE_HEADER.to_string(), "100".to_string())],
            b"x",
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(r.status, 504, "{}", String::from_utf8_lossy(&r.body));
        assert!(
            t0.elapsed() < Duration::from_millis(600),
            "the caller must never wait past its budget (waited {:?})",
            t0.elapsed()
        );
        assert_eq!(gw.resilience_report().deadline_exceeded, 1);
    }

    #[test]
    fn expired_deadline_is_shed_before_touching_the_upstream() {
        let hits = Arc::new(AtomicUsize::new(0));
        let hits_in_handler = Arc::clone(&hits);
        let upstream = HttpServer::spawn(move |_req| {
            hits_in_handler.fetch_add(1, Ordering::SeqCst);
            Response::json(b"{}".to_vec())
        })
        .unwrap();
        let gw = ApiGateway::spawn(Duration::from_secs(5)).unwrap();
        gw.register("svc", upstream.addr());
        let r = request_with_headers(
            gw.addr(),
            "GET",
            "/svc/x",
            &[(DEADLINE_HEADER.to_string(), "0".to_string())],
            b"",
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(r.status, 504);
        assert_eq!(hits.load(Ordering::SeqCst), 0, "expired work must be shed, not forwarded");
        assert_eq!(gw.resilience_report().deadline_exceeded, 1);
    }

    #[test]
    fn deadline_header_is_propagated_decremented() {
        let seen = Arc::new(parking_lot::Mutex::new(None::<u64>));
        let seen_in_handler = Arc::clone(&seen);
        let upstream = HttpServer::spawn(move |req| {
            let ms = req.headers.get(DEADLINE_HEADER).and_then(|v| v.parse::<u64>().ok());
            *seen_in_handler.lock() = ms;
            Response::json(b"{}".to_vec())
        })
        .unwrap();
        let gw = ApiGateway::spawn(Duration::from_secs(5)).unwrap();
        gw.register("svc", upstream.addr());
        let r = request_with_headers(
            gw.addr(),
            "GET",
            "/svc/x",
            &[(DEADLINE_HEADER.to_string(), "5000".to_string())],
            b"",
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(r.status, 200);
        let forwarded = seen.lock().expect("upstream must receive the deadline header");
        assert!(
            forwarded <= 5000 && forwarded > 3000,
            "deadline must be decremented but close to the original, got {forwarded}"
        );
    }

    #[test]
    fn health_checker_evicts_and_restores_a_replica() {
        // Replica A: a plain service host. Replica B: an HTTP server we can kill
        // and bring back on the same port.
        let a = ServiceHost::spawn(Arc::new(Upper), 16).unwrap();
        let b = HttpServer::spawn(|req| {
            if req.path.ends_with("/health") {
                Response::json(br#"{"status":"ok"}"#.to_vec())
            } else {
                Response::json(b"b".to_vec())
            }
        })
        .unwrap();
        let b_addr = b.addr();
        let gw = ApiGateway::spawn_with_config(GatewayConfig {
            upstream_timeout: Duration::from_millis(500),
            circuit: CircuitConfig { failure_threshold: 3, cooldown: Duration::from_millis(200) },
            retry: RetryPolicy::disabled(),
            health: Some(HealthCheckConfig {
                interval: Duration::from_millis(40),
                timeout: Duration::from_millis(150),
                failures_to_evict: 2,
                successes_to_restore: 1,
                ..HealthCheckConfig::default()
            }),
        })
        .unwrap();
        gw.register("upper", a.addr());
        gw.register("upper", b_addr);

        // Both in rotation and healthy.
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(gw.replica_status("upper").iter().filter(|r| r.evicted).count(), 0);

        // Kill B; the checker needs 2 failed probes at 40ms intervals.
        drop(b);
        let evicted_at = Instant::now();
        while gw.resilience_report().evictions == 0 {
            assert!(
                evicted_at.elapsed() < Duration::from_secs(5),
                "checker never evicted the dead replica"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        // With B out of rotation, every request lands on A and succeeds — no 502s
        // even though round-robin would have hit B half the time.
        for _ in 0..10 {
            let r = http::request(gw.addr(), "POST", "/upper/shout", b"q", Duration::from_secs(5))
                .unwrap();
            assert_eq!(r.status, 200, "evicted replica must be out of rotation");
        }

        // Bring B back on the same port; the checker must restore it.
        let b2 = HttpServer::spawn_on(b_addr, |req| {
            if req.path.ends_with("/health") {
                Response::json(br#"{"status":"ok"}"#.to_vec())
            } else {
                Response::json(b"b".to_vec())
            }
        })
        .expect("rebind the replica's port");
        let restored_at = Instant::now();
        while gw.resilience_report().restorations == 0 {
            assert!(
                restored_at.elapsed() < Duration::from_secs(5),
                "checker never restored the recovered replica"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(gw.replica_status("upper").iter().filter(|r| r.evicted).count(), 0);
        // And traffic flows to both again.
        for _ in 0..4 {
            let r = http::request(gw.addr(), "POST", "/upper/shout", b"q", Duration::from_secs(5))
                .unwrap();
            assert_eq!(r.status, 200);
        }
        drop(b2);
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let (gw, _host) = cluster();
        for _ in 0..3 {
            let r = http::request(gw.addr(), "POST", "/upper/shout", b"x", Duration::from_secs(5))
                .unwrap();
            assert_eq!(r.status, 200);
        }
        let resp =
            http::request(gw.addr(), "GET", "/metrics", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("# TYPE spatial_gateway_request_duration_ms histogram"), "{text}");
        assert!(text
            .contains("spatial_gateway_request_duration_ms_bucket{route=\"upper\",le=\"+Inf\"} 3"));
        assert!(text.contains("spatial_gateway_request_duration_ms_count{route=\"upper\"} 3"));
        assert!(text.contains("spatial_gateway_requests_total{code=\"200\",route=\"upper\"} 3"));
        assert!(text.contains("# TYPE spatial_gateway_retries_total counter"));
    }

    #[test]
    fn healthz_answers_with_route_count() {
        let (gw, _host) = cluster();
        let resp =
            http::request(gw.addr(), "GET", "/healthz", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"routes\":1"), "{body}");
    }

    #[test]
    fn trace_endpoint_returns_the_span_tree() {
        let (gw, _host) = cluster();
        // Supply the trace id so the test can retrieve it afterwards: `Response`
        // carries no headers, so a generated id would be unobservable to the client.
        let trace = "00000000000000000000000000abc123";
        let r = request_with_headers(
            gw.addr(),
            "POST",
            "/upper/shout",
            &[(TRACE_HEADER.to_string(), trace.to_string())],
            b"x",
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(r.status, 200);

        let resp = http::request(
            gw.addr(),
            "GET",
            &format!("/trace/{trace}"),
            b"",
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(resp.status, 200);
        let json = String::from_utf8(resp.body).unwrap();
        assert!(json.contains(&format!("\"trace_id\":\"{trace}\"")), "{json}");
        assert!(json.contains("\"name\":\"gateway /upper\""), "{json}");
        assert!(json.contains("\"name\":\"attempt\""), "{json}");
        assert!(json.contains("\"status\":\"ok\""), "{json}");

        // The collector agrees: one root with one successful attempt child.
        let forest = gw.trace_collector().tree(TraceId::from_hex(trace).unwrap());
        assert_eq!(forest.len(), 1);
        assert_eq!(forest[0].span.name, "gateway /upper");
        assert_eq!(forest[0].children.len(), 1);
        assert_eq!(forest[0].children[0].span.name, "attempt");
    }

    #[test]
    fn unknown_or_malformed_trace_ids_are_rejected() {
        let (gw, _host) = cluster();
        let missing = http::request(
            gw.addr(),
            "GET",
            "/trace/00000000000000000000000000000001",
            b"",
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(missing.status, 404);
        let malformed =
            http::request(gw.addr(), "GET", "/trace/not-hex", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(malformed.status, 400);
    }

    #[test]
    fn trace_context_is_rewritten_toward_the_upstream() {
        let seen =
            Arc::new(parking_lot::Mutex::new(Vec::<(Option<String>, Option<String>)>::new()));
        let seen_in_handler = Arc::clone(&seen);
        let upstream = HttpServer::spawn(move |req| {
            seen_in_handler.lock().push((
                req.headers.get(TRACE_HEADER).cloned(),
                req.headers.get(PARENT_SPAN_HEADER).cloned(),
            ));
            Response::json(b"{}".to_vec())
        })
        .unwrap();
        let gw = ApiGateway::spawn(Duration::from_secs(5)).unwrap();
        gw.register("svc", upstream.addr());

        let trace = "0000000000000000000000000000beef";
        let client_span = "00000000000000ab";
        let r = request_with_headers(
            gw.addr(),
            "GET",
            "/svc/x",
            &[
                (TRACE_HEADER.to_string(), trace.to_string()),
                (PARENT_SPAN_HEADER.to_string(), client_span.to_string()),
            ],
            b"",
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(r.status, 200);

        let observed = seen.lock().clone();
        assert_eq!(observed.len(), 1);
        let (up_trace, up_parent) = &observed[0];
        assert_eq!(up_trace.as_deref(), Some(trace), "trace id must propagate unchanged");
        let up_parent = up_parent.as_deref().expect("upstream must receive a parent span");
        assert_ne!(up_parent, client_span, "the parent must be the attempt span, not the client's");

        // The root span is parented under the client's span id.
        let forest = gw.trace_collector().tree(TraceId::from_hex(trace).unwrap());
        assert_eq!(forest.len(), 1);
        assert_eq!(forest[0].span.parent, SpanId::from_hex(client_span));
        assert_eq!(
            forest[0].children[0].span.span_id,
            SpanId::from_hex(up_parent).unwrap(),
            "the upstream's parent header must be the attempt span's id"
        );
    }

    #[test]
    fn shard_scores_are_deterministic_and_key_sensitive() {
        assert_eq!(shard_score(7, "user-42", 0), shard_score(7, "user-42", 0));
        assert_ne!(shard_score(7, "user-42", 0), shard_score(7, "user-42", 1));
        assert_ne!(shard_score(7, "user-42", 0), shard_score(7, "user-43", 0));
        assert_ne!(shard_score(7, "user-42", 0), shard_score(8, "user-42", 0));
    }

    #[test]
    fn probe_offset_is_zero_without_jitter_and_bounded_with_it() {
        let plain = HealthCheckConfig::default();
        assert_eq!(probe_offset(&plain, 3, "upper", 1), Duration::ZERO);

        let jittered = HealthCheckConfig {
            interval: Duration::from_millis(100),
            jitter: 0.5,
            jitter_seed: 11,
            ..HealthCheckConfig::default()
        };
        let mut offsets = Vec::new();
        for replica in 0..4 {
            let off = probe_offset(&jittered, 0, "upper", replica);
            assert!(off <= Duration::from_millis(50), "offset {off:?} exceeds jitter bound");
            assert_eq!(off, probe_offset(&jittered, 0, "upper", replica), "must be deterministic");
            offsets.push(off);
        }
        offsets.dedup();
        assert!(offsets.len() > 1, "replicas of one route must not probe in lockstep");
        // A new sweep re-draws the offsets, so lockstep cannot re-emerge over time.
        assert_ne!(
            (0..4).map(|r| probe_offset(&jittered, 0, "upper", r)).collect::<Vec<_>>(),
            (0..4).map(|r| probe_offset(&jittered, 1, "upper", r)).collect::<Vec<_>>(),
        );
    }

    fn two_named_replicas() -> (ApiGateway, HttpServer, HttpServer) {
        let a = HttpServer::spawn(|_req| Response::json(b"\"a\"".to_vec())).unwrap();
        let b = HttpServer::spawn(|_req| Response::json(b"\"b\"".to_vec())).unwrap();
        let gw = ApiGateway::spawn(Duration::from_secs(5)).unwrap();
        gw.register("svc", a.addr());
        gw.register("svc", b.addr());
        (gw, a, b)
    }

    #[test]
    fn consistent_hash_pins_a_shard_key_to_one_replica() {
        let (gw, _a, _b) = two_named_replicas();
        assert!(gw.set_routing("svc", RoutingPolicy::ConsistentHash { seed: 42 }));
        let body_for = |key: &str| {
            let r = request_with_headers(
                gw.addr(),
                "GET",
                "/svc/x",
                &[(SHARD_KEY_HEADER.to_string(), key.to_string())],
                b"",
                Duration::from_secs(5),
            )
            .unwrap();
            assert_eq!(r.status, 200);
            String::from_utf8(r.body).unwrap()
        };
        let first = body_for("session-9");
        for _ in 0..7 {
            assert_eq!(body_for("session-9"), first, "a shard key must stick to its replica");
        }
        // Different keys spread: across many keys both replicas must appear.
        let spread: std::collections::HashSet<String> =
            (0..16).map(|k| body_for(&format!("session-{k}"))).collect();
        assert_eq!(spread.len(), 2, "hashing must use both replicas across keys");
    }

    #[test]
    fn consistent_hash_without_a_key_falls_back_to_round_robin() {
        let (gw, _a, _b) = two_named_replicas();
        assert!(gw.set_routing("svc", RoutingPolicy::ConsistentHash { seed: 42 }));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4 {
            let r = http::request(gw.addr(), "GET", "/svc/x", b"", Duration::from_secs(5)).unwrap();
            seen.insert(String::from_utf8(r.body).unwrap());
        }
        assert_eq!(seen.len(), 2, "keyless requests must round-robin over both replicas");
    }

    #[test]
    fn least_loaded_routes_around_a_busy_replica() {
        let slow = HttpServer::spawn(|_req| {
            std::thread::sleep(Duration::from_millis(400));
            Response::json(b"\"slow\"".to_vec())
        })
        .unwrap();
        let fast = HttpServer::spawn(|_req| Response::json(b"\"fast\"".to_vec())).unwrap();
        let gw = ApiGateway::spawn(Duration::from_secs(5)).unwrap();
        gw.register("svc", slow.addr());
        gw.register("svc", fast.addr());
        assert!(gw.set_routing("svc", RoutingPolicy::LeastLoaded));

        // All replicas idle: ties break by index, so the first request occupies
        // replica 0 (the slow one)...
        let gw_addr = gw.addr();
        let occupier = std::thread::spawn(move || {
            http::request(gw_addr, "GET", "/svc/x", b"", Duration::from_secs(5)).unwrap()
        });
        std::thread::sleep(Duration::from_millis(150));
        // ...so while it is in flight, a least-loaded pick must land on replica 1.
        let r = http::request(gw.addr(), "GET", "/svc/x", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(String::from_utf8(r.body).unwrap(), "\"fast\"");
        let first = occupier.join().unwrap();
        assert_eq!(String::from_utf8(first.body).unwrap(), "\"slow\"");
    }

    #[test]
    fn drained_replica_is_skipped_until_undrained() {
        let (gw, a, _b) = two_named_replicas();
        assert!(gw.set_drain("svc", a.addr(), true));
        for _ in 0..4 {
            let r = http::request(gw.addr(), "GET", "/svc/x", b"", Duration::from_secs(5)).unwrap();
            assert_eq!(
                String::from_utf8(r.body).unwrap(),
                "\"b\"",
                "drained replica must not serve"
            );
        }
        assert!(gw.replica_status("svc").iter().any(|r| r.drained));
        assert!(gw.set_drain("svc", a.addr(), false));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4 {
            let r = http::request(gw.addr(), "GET", "/svc/x", b"", Duration::from_secs(5)).unwrap();
            seen.insert(String::from_utf8(r.body).unwrap());
        }
        assert_eq!(seen.len(), 2, "undrained replica must rejoin rotation");
    }

    #[test]
    fn fleet_endpoint_reports_routing_and_replica_state() {
        let (gw, a, _b) = two_named_replicas();
        assert!(gw.set_routing("svc", RoutingPolicy::LeastLoaded));
        assert!(gw.set_replica_tag("svc", a.addr(), "epoch=2 canary"));
        assert!(gw.set_drain("svc", a.addr(), true));
        let resp = http::request(gw.addr(), "GET", "/fleet", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"route\":\"svc\""), "{body}");
        assert!(body.contains("\"policy\":\"least-loaded\""), "{body}");
        assert!(body.contains("\"tag\":\"epoch=2 canary\""), "{body}");
        assert!(body.contains("\"drained\":true"), "{body}");
        assert!(body.contains(&format!("\"addr\":\"{}\"", a.addr())), "{body}");
        assert!(body.contains("\"shadow\":null"), "{body}");
    }

    #[test]
    fn shadow_tap_duplicates_a_fraction_with_the_shadow_header() {
        let primary = HttpServer::spawn(|_req| Response::json(b"{\"class\":1}".to_vec())).unwrap();
        let shadow_hits = Arc::new(AtomicUsize::new(0));
        let marked = Arc::new(AtomicUsize::new(0));
        let (hits, flags) = (Arc::clone(&shadow_hits), Arc::clone(&marked));
        let shadow = HttpServer::spawn(move |req| {
            hits.fetch_add(1, Ordering::SeqCst);
            if req.headers.get(SHADOW_HEADER).map(String::as_str) == Some("1") {
                flags.fetch_add(1, Ordering::SeqCst);
            }
            Response::json(b"{\"class\":1}".to_vec())
        })
        .unwrap();
        let gw = ApiGateway::spawn(Duration::from_secs(5)).unwrap();
        gw.register("svc", primary.addr());
        assert!(gw.set_shadow("svc", shadow.addr(), 0.5));
        for _ in 0..10 {
            let r = http::request(gw.addr(), "GET", "/svc/x", b"", Duration::from_secs(5)).unwrap();
            assert_eq!(r.status, 200);
        }
        let report = gw.shadow_report("svc").expect("tap must be installed");
        assert_eq!(report.total, 10);
        assert_eq!(report.sampled, 5, "credit sampler at 0.5 must shadow exactly half");
        assert_eq!(shadow_hits.load(Ordering::SeqCst), 5);
        assert_eq!(marked.load(Ordering::SeqCst), 5, "duplicates must carry the shadow header");
        assert_eq!(report.evidence.samples, 5);
        assert_eq!(report.evidence.mismatches, 0);
        assert_eq!(report.evidence.errors, 0);
    }

    #[test]
    fn profile_endpoint_attributes_forward_time_to_stages() {
        let (gw, _host) = cluster();
        for _ in 0..5 {
            let r = http::request(gw.addr(), "POST", "/upper/shout", b"x", Duration::from_secs(5))
                .unwrap();
            assert_eq!(r.status, 200);
        }
        let resp =
            http::request(gw.addr(), "GET", "/profile", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        for frame in [
            "gateway.forward ",
            "gateway.forward;route-resolve ",
            "gateway.forward;upstream.attempt ",
        ] {
            assert!(text.contains(frame), "missing {frame:?} in:\n{text}");
        }
        // The named child stages account for ≥90% of the forward wall time.
        let attribution = gw.profiler().attribution("gateway.forward");
        assert!(attribution >= 0.9, "only {attribution:.3} of forward time attributed");
    }

    #[test]
    fn slo_endpoints_report_budget_and_fire_on_sustained_burn() {
        let (gw, _host) = cluster();
        // A healthy latency SLO: everything finishes far below one second.
        gw.install_slo(SloSpec::latency(
            "upper-latency",
            "spatial_gateway_request_duration_ms",
            1_000.0,
            0.95,
        ));
        for _ in 0..10 {
            let r = http::request(gw.addr(), "POST", "/upper/shout", b"x", Duration::from_secs(5))
                .unwrap();
            assert_eq!(r.status, 200);
        }
        let statuses = gw.slo_statuses();
        assert_eq!(statuses.len(), 1);
        assert_eq!(statuses[0].budget_remaining, 1.0, "no slow request, full budget");
        assert!(gw.slo_breach().is_none());
        let resp =
            http::request(gw.addr(), "GET", "/slo/upper-latency", b"", Duration::from_secs(5))
                .unwrap();
        assert_eq!(resp.status, 200);

        // Tighten the threshold so every request is an SLI miss: burn hits
        // 1 / (1 - 0.95) = 20 ≥ 14.4 over both page windows.
        gw.install_slo(SloSpec::latency(
            "upper-latency",
            "spatial_gateway_request_duration_ms",
            0.000_001,
            0.95,
        ));
        for _ in 0..10 {
            let _ = http::request(gw.addr(), "POST", "/upper/shout", b"x", Duration::from_secs(5))
                .unwrap();
        }
        let breach = gw.slo_breach().expect("sustained misses must breach");
        assert_eq!(breach.severity, spatial_telemetry::slo::BreachSeverity::Page);
        assert_eq!(breach.slo, "upper-latency");
        // The burn/budget gauges ride the `/metrics` scrape.
        let resp =
            http::request(gw.addr(), "GET", "/metrics", b"", Duration::from_secs(5)).unwrap();
        let text = String::from_utf8(resp.body).unwrap();
        assert!(
            text.contains("spatial_slo_error_budget_remaining{slo=\"upper-latency\"}"),
            "{text}"
        );
        assert!(
            text.contains("spatial_slo_burn_rate{slo=\"upper-latency\",window=\"5m\"}"),
            "{text}"
        );
    }

    #[test]
    fn exemplars_endpoint_links_buckets_to_resolvable_traces() {
        let (gw, _host) = cluster();
        let trace = "00000000000000000000000000facade";
        let r = request_with_headers(
            gw.addr(),
            "POST",
            "/upper/shout",
            &[(TRACE_HEADER.to_string(), trace.to_string())],
            b"x",
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(r.status, 200);
        let resp = http::request(
            gw.addr(),
            "GET",
            "/exemplars/spatial_gateway_request_duration_ms",
            b"",
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"family\":\"spatial_gateway_request_duration_ms\""), "{body}");
        assert!(body.contains(&format!("\"trace_id\":\"{trace}\"")), "{body}");
        // The linked trace resolves to its span tree.
        let resolved = http::request(
            gw.addr(),
            "GET",
            &format!("/trace/{trace}"),
            b"",
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(resolved.status, 200);
    }

    #[test]
    fn unknown_admin_resources_share_one_404_shape() {
        let (gw, _host) = cluster();
        let mut shapes = std::collections::HashSet::new();
        for path in
            ["/trace/00000000000000000000000000000001", "/slo/missing", "/exemplars/missing"]
        {
            let r = http::request(gw.addr(), "GET", path, b"", Duration::from_secs(5)).unwrap();
            assert_eq!(r.status, 404, "{path}");
            let body = String::from_utf8(r.body).unwrap();
            assert!(body.starts_with('{'), "{path}: {body}");
            // The first JSON key is the shape; all admin 404s must agree.
            shapes.insert(body.split('"').nth(1).map(str::to_string));
        }
        assert_eq!(shapes.len(), 1, "admin 404 bodies must share one shape: {shapes:?}");
    }

    #[test]
    fn shadow_failures_never_surface_to_the_client() {
        let primary = HttpServer::spawn(|_req| Response::json(b"{\"class\":0}".to_vec())).unwrap();
        let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let gw = ApiGateway::spawn(Duration::from_millis(500)).unwrap();
        gw.register("svc", primary.addr());
        assert!(gw.set_shadow("svc", dead, 1.0));
        for _ in 0..4 {
            let r = http::request(gw.addr(), "GET", "/svc/x", b"", Duration::from_secs(5)).unwrap();
            assert_eq!(r.status, 200, "a dead shadow target must never fail the primary");
        }
        let report = gw.shadow_report("svc").expect("tap must be installed");
        assert_eq!(report.sampled, 4);
        assert_eq!(report.evidence.errors, 4, "transport failures count as shadow errors");
        gw.clear_shadow("svc");
        assert!(gw.shadow_report("svc").is_none());
        assert_eq!(gw.route_summary("svc").unwrap().errors, 0);
    }
}
