//! Integration: the observability plane end to end — one traced client request
//! through a retrying gateway cluster, scraped back out through `GET /metrics`
//! (Prometheus text), `GET /trace/{id}` (JSON span tree), and `GET /healthz`.

use spatial::gateway::breaker::CircuitConfig;
use spatial::gateway::gateway::{ApiGateway, GatewayConfig, IDEMPOTENT_HEADER, TRACE_HEADER};
use spatial::gateway::http::{request, request_with_headers};
use spatial::gateway::retry::RetryPolicy;
use spatial::gateway::{Microservice, ServiceError, ServiceHost};
use std::sync::Arc;
use std::time::Duration;

/// Echoes the body back reversed — cheap, deterministic, content-checkable.
struct Reverse;

impl Microservice for Reverse {
    fn name(&self) -> &str {
        "reverse"
    }
    fn vcpus(&self) -> usize {
        2
    }
    fn handle(&self, endpoint: &str, body: &[u8]) -> Result<Vec<u8>, ServiceError> {
        if endpoint == "/flip" {
            let mut out = body.to_vec();
            out.reverse();
            Ok(out)
        } else {
            Err(ServiceError::NotFound)
        }
    }
}

fn observed_cluster() -> (ApiGateway, Vec<ServiceHost>) {
    let gw = ApiGateway::spawn_with_config(GatewayConfig {
        upstream_timeout: Duration::from_secs(2),
        circuit: CircuitConfig::default(),
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
            jitter: 0.5,
            budget: 32,
            budget_refill_per_sec: 8.0,
        },
        health: None,
    })
    .expect("gateway spawns");
    let mut hosts = Vec::new();
    for _ in 0..2 {
        let host = ServiceHost::spawn(Arc::new(Reverse), 32).expect("replica spawns");
        gw.register("reverse", host.addr());
        hosts.push(host);
    }
    (gw, hosts)
}

// Structural Prometheus exposition validation now lives in the conformance
// crate (`spatial_conformance::scrape`), shared with the fleet-rollout suite
// and the bench bins.
use spatial_conformance::assert_valid_prometheus_text;

#[test]
fn a_single_request_is_visible_in_metrics_trace_and_healthz() {
    let (gw, _hosts) = observed_cluster();

    // -- the one client request, with an explicit trace id -----------------------
    let trace_hex = "00000000000000000000000000051ace";
    let resp = request_with_headers(
        gw.addr(),
        "POST",
        "/reverse/flip",
        &[
            (TRACE_HEADER.to_string(), trace_hex.to_string()),
            (IDEMPOTENT_HEADER.to_string(), "1".to_string()),
        ],
        b"lairps",
        Duration::from_secs(5),
    )
    .expect("gateway answers");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, b"sprial");

    // -- GET /metrics ------------------------------------------------------------
    let metrics =
        request(gw.addr(), "GET", "/metrics", b"", Duration::from_secs(5)).expect("metrics");
    assert_eq!(metrics.status, 200);
    assert_eq!(metrics.content_type, "text/plain; version=0.0.4");
    let text = String::from_utf8(metrics.body).expect("exposition is UTF-8");
    assert_valid_prometheus_text(&text);
    assert!(text.contains("# TYPE spatial_gateway_request_duration_ms histogram"));
    assert!(
        text.contains("spatial_gateway_request_duration_ms_bucket{route=\"reverse\""),
        "request-latency buckets must be present:\n{text}"
    );
    assert!(text.contains("spatial_gateway_request_duration_ms_count{route=\"reverse\"} 1"));
    assert!(text.contains("spatial_gateway_requests_total{code=\"200\",route=\"reverse\"} 1"));
    // Upstream time is its own series (one sample per attempt, exemplar = the
    // request's trace id), so gateway self-time is the difference of two sums.
    assert!(text.contains("# TYPE spatial_gateway_upstream_exchange_duration_ms histogram"));
    assert!(
        text.contains("spatial_gateway_upstream_exchange_duration_ms_count{route=\"reverse\"} 1"),
        "one attempt, one upstream-exchange sample:\n{text}"
    );
    let exchange_exemplar = text
        .lines()
        .find(|l| {
            l.starts_with("spatial_gateway_upstream_exchange_duration_ms_bucket") && l.contains('#')
        })
        .expect("an upstream-exchange bucket carries an exemplar");
    assert!(
        exchange_exemplar.contains(&format!("trace_id=\"{trace_hex}\"")),
        "{exchange_exemplar}"
    );
    // The resilience counters are registered up front, visible even at zero.
    for counter in [
        "spatial_gateway_retries_total",
        "spatial_gateway_breaker_opened_total",
        "spatial_gateway_deadline_exceeded_total",
    ] {
        assert!(text.contains(&format!("# TYPE {counter} counter")), "missing {counter}");
    }

    // -- GET /trace/{id} ---------------------------------------------------------
    let traced =
        request(gw.addr(), "GET", &format!("/trace/{trace_hex}"), b"", Duration::from_secs(5))
            .expect("trace endpoint answers");
    assert_eq!(traced.status, 200);
    let json = String::from_utf8(traced.body).unwrap();
    assert!(json.contains(&format!("\"trace_id\":\"{trace_hex}\"")), "{json}");
    assert!(json.contains("\"gateway /reverse\""), "root span present: {json}");
    assert!(json.contains("\"attempt\""), "attempt child span present: {json}");
    // Root + at least one attempt span.
    let span_count: usize = json
        .split("\"span_count\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.trim().parse().ok())
        .expect("span_count field present");
    assert!(span_count >= 2, "a request produces root + attempt spans, got {span_count}");

    // -- unknown trace -----------------------------------------------------------
    let missing = request(
        gw.addr(),
        "GET",
        "/trace/000000000000000000000000deadbeef",
        b"",
        Duration::from_secs(5),
    )
    .unwrap();
    assert_eq!(missing.status, 404);

    // -- GET /healthz ------------------------------------------------------------
    let health =
        request(gw.addr(), "GET", "/healthz", b"", Duration::from_secs(5)).expect("healthz");
    assert_eq!(health.status, 200);
    let body = String::from_utf8(health.body).unwrap();
    assert!(body.contains("\"status\":\"ok\""), "{body}");
}

#[test]
fn metrics_accumulate_across_requests_and_stay_well_formed() {
    let (gw, _hosts) = observed_cluster();
    for _ in 0..5 {
        let resp =
            request(gw.addr(), "POST", "/reverse/flip", b"abc", Duration::from_secs(5)).unwrap();
        assert_eq!(resp.status, 200);
    }
    // A 404 from the service maps to a non-200 code label.
    let resp = request(gw.addr(), "POST", "/reverse/nope", b"abc", Duration::from_secs(5)).unwrap();
    assert_ne!(resp.status, 200);

    let metrics = request(gw.addr(), "GET", "/metrics", b"", Duration::from_secs(5)).unwrap();
    let text = String::from_utf8(metrics.body).unwrap();
    assert_valid_prometheus_text(&text);
    assert!(text.contains("spatial_gateway_request_duration_ms_count{route=\"reverse\"} 6"));
    assert!(text.contains("spatial_gateway_requests_total{code=\"200\",route=\"reverse\"} 5"));
}

// ---------------------------------------------------------------------------
// ISSUE 7 acceptance: SLO burn-rate paging, exemplars, and the continuous
// profiler, end to end. A 3-replica UC1 serving fleet behind the gateway,
// mid-rollout, when a latency regression burns the error budget: the
// multi-window burn-rate page fires, the `BudgetBreach` feeds the fleet
// controller, and the ramp aborts with the epoch quarantined — the same gate
// drift uses. `/metrics` stays valid with exemplars whose trace ids resolve
// through `/trace/{id}`, and `GET /profile` attributes ≥ 90 % of the gateway's
// request wall time to named stages. Two episodes match structurally.
// ---------------------------------------------------------------------------

use spatial::data::unimib::{binarize_falls, generate, UnimibConfig};
use spatial::data::Dataset;
use spatial::fleet::{
    FleetController, FleetEvent, FleetEventKind, ReplicaHandle, RolloutConfig, ShadowEvidence,
};
use spatial::gateway::services::ServingService;
use spatial::ml::tree::DecisionTree;
use spatial::ml::{Model, ModelStore};
use spatial::telemetry::slo::{BreachSeverity, SloSpec};
use std::net::SocketAddr;

const ROUTE: &str = "serve";
const FAMILY: &str = "spatial_gateway_request_duration_ms";

fn uc1_data() -> (Dataset, Dataset) {
    let ds = binarize_falls(&generate(&UnimibConfig { samples: 400, ..UnimibConfig::default() }));
    ds.split(0.8, 42)
}

fn fit_tree(train: &Dataset) -> Arc<dyn Model> {
    let mut tree = DecisionTree::new();
    tree.fit(train).expect("fit");
    Arc::new(tree)
}

fn body_for(row: &[f64]) -> Vec<u8> {
    let coords: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
    format!("{{\"features\":[{}]}}", coords.join(",")).into_bytes()
}

struct Fleet {
    gw: ApiGateway,
    _hosts: Vec<ServiceHost>,
    addrs: Vec<SocketAddr>,
    ctl: FleetController,
}

/// Like the ISSUE 6 fleet, but every replica host attributes its handler time
/// into the gateway's continuous profiler.
fn build_fleet(train: &Dataset, clean: &Arc<dyn Model>, cfg: RolloutConfig) -> Fleet {
    let gw = ApiGateway::spawn(Duration::from_secs(5)).expect("gateway spawns");
    let mut hosts = Vec::new();
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for i in 0..3 {
        let store = Arc::new(ModelStore::with_majority_fallback(train, 8).expect("store"));
        store.promote(Arc::clone(clean), 0, 0.9, "baseline");
        let host = ServiceHost::spawn_with_profiler(
            Arc::new(ServingService::new(Arc::clone(&store), train.n_features(), 2)),
            32,
            gw.profiler(),
        )
        .expect("replica spawns");
        gw.register(ROUTE, host.addr());
        addrs.push(host.addr());
        handles.push(ReplicaHandle { name: format!("replica-{i}"), store });
        hosts.push(host);
    }
    let ctl = FleetController::new(handles, cfg).with_registry(gw.metrics_registry());
    Fleet { gw, _hosts: hosts, addrs, ctl }
}

fn apply_events(fleet: &Fleet, events: &[FleetEvent]) {
    let canary = fleet.addrs[0];
    for event in events {
        match event.kind {
            FleetEventKind::CanaryStarted | FleetEventKind::CanaryRetried => {
                assert!(fleet.gw.set_drain(ROUTE, canary, true));
            }
            FleetEventKind::EpochQuarantined
            | FleetEventKind::RampAborted
            | FleetEventKind::RampStarted => {
                assert!(fleet.gw.set_drain(ROUTE, canary, false));
            }
            FleetEventKind::CanaryRolledBack
            | FleetEventKind::ReplicaRamped
            | FleetEventKind::RolloutCompleted => {}
        }
    }
}

/// Everything the episode's outcome consists of, minus wall-clock timings —
/// what "deterministic" means for an observability run.
#[derive(Debug, PartialEq)]
struct EpisodeSummary {
    log: Vec<String>,
    statuses: Vec<u16>,
    breach: String,
    budget_after: String,
    /// Named profiler frames under the request path, sorted by `report`.
    /// Timings vary between runs; the stage structure must not.
    frames: Vec<String>,
}

/// One deterministic episode: a healthy rollout starts ramping; a latency
/// regression (modelled by tightening the SLO threshold so live traffic burns
/// budget at 20×) pages; the page aborts the ramp and quarantines the epoch.
fn slo_gated_episode() -> (EpisodeSummary, Fleet) {
    let (train, holdout) = uc1_data();
    let clean = fit_tree(&train);
    let candidate = fit_tree(&train); // identical behaviour: nothing to shadow-flag

    let cfg = RolloutConfig {
        soak_ticks: 1,
        ramp_interval: 1,
        min_shadow_samples: 8,
        ..RolloutConfig::default()
    };
    let mut fleet = build_fleet(&train, &clean, cfg);

    // Phase 1 — a healthy latency SLO: 95 % of requests under 10 s. Loopback
    // traffic never comes close, so the rollout proceeds.
    fleet.gw.install_slo(SloSpec::latency("serve-latency", FAMILY, 10_000.0, 0.95));

    let epoch =
        fleet.ctl.begin_rollout(0, candidate, 0.92, "healthy retrain").expect("rollout starts");
    assert_eq!(epoch, 1);
    apply_events(&fleet, &fleet.ctl.events().to_vec());

    let mut statuses = Vec::new();
    let evidence = ShadowEvidence { samples: 64, mismatches: 0, errors: 0 };
    let readings = vec![Vec::new(), Vec::new(), Vec::new()];
    let serve_tick = |fleet: &mut Fleet, statuses: &mut Vec<u16>, tick: u64| {
        for k in 0..20usize {
            let row = holdout.features.row(k % holdout.features.rows());
            let resp = request(
                fleet.gw.addr(),
                "POST",
                "/serve/predict",
                &body_for(row),
                Duration::from_secs(5),
            )
            .expect("client request answered");
            statuses.push(resp.status);
        }
        let breach = fleet.gw.slo_breach();
        let events = fleet.ctl.step_with_slo(tick, &readings, evidence, breach.as_ref());
        apply_events(&fleet, &events);
        breach
    };

    // Tick 1: soak completes, the ramp starts. Tick 2: one replica promotes.
    assert!(serve_tick(&mut fleet, &mut statuses, 1).is_none(), "healthy SLO must not breach");
    assert!(serve_tick(&mut fleet, &mut statuses, 2).is_none());

    // Phase 2 — the regression: every request now lands over the threshold,
    // burning budget at 1/(1-0.95) = 20× — past the 14.4× page line.
    fleet.gw.install_slo(SloSpec::latency("serve-latency", FAMILY, 0.000_001, 0.95));
    let breach = serve_tick(&mut fleet, &mut statuses, 3).expect("the regression must page");
    assert_eq!(breach.severity, BreachSeverity::Page);

    let slo_status = fleet
        .gw
        .slo_statuses()
        .into_iter()
        .find(|s| s.name == "serve-latency")
        .expect("installed SLO reports");

    let frames: Vec<String> = fleet
        .gw
        .profiler()
        .report()
        .into_iter()
        .map(|(path, _)| path)
        .filter(|p| p.starts_with("gateway.") || p.starts_with("service."))
        .collect();

    let summary = EpisodeSummary {
        log: fleet.ctl.events().iter().map(|e| e.to_string()).collect(),
        statuses,
        breach: format!(
            "{} {} burn={:.1} over {}",
            breach.slo,
            breach.severity.as_str(),
            breach.burn_rate,
            breach.window
        ),
        budget_after: format!("{:.3}", slo_status.budget_remaining),
        frames,
    };
    (summary, fleet)
}

#[test]
fn a_burn_rate_page_gates_the_ramp_like_drift() {
    let (summary, fleet) = slo_gated_episode();

    // The page aborted the ramp and quarantined the epoch — SLO burn gates
    // promotions exactly like drift.
    let kinds: Vec<FleetEventKind> = fleet.ctl.events().iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        vec![
            FleetEventKind::CanaryStarted,
            FleetEventKind::RampStarted,
            FleetEventKind::ReplicaRamped,
            FleetEventKind::RampAborted,
            FleetEventKind::EpochQuarantined,
        ],
        "{:?}",
        summary.log
    );
    let abort = &summary.log[3];
    assert!(abort.contains("slo serve-latency page"), "abort must cite the SLO: {abort}");
    assert!(fleet.ctl.is_quarantined(1));
    assert_eq!(fleet.ctl.phase(), spatial::fleet::RolloutPhase::Idle);
    for (name, epoch) in fleet.ctl.replica_epochs() {
        assert_eq!(epoch, 0, "{name} must be back on the baseline epoch");
    }
    assert_eq!(summary.breach, "serve-latency page burn=20.0 over 1h");
    assert_eq!(summary.budget_after, "0.000", "a total regression leaves no budget");

    // Clients never saw the incident.
    assert_eq!(summary.statuses.len(), 60);
    assert!(summary.statuses.iter().all(|&s| s == 200), "non-200 in {:?}", summary.statuses);
}

#[test]
fn metrics_exemplars_and_traces_link_up() {
    let (_, fleet) = slo_gated_episode();

    // /metrics: still valid exposition, now with SLO gauges and exemplars.
    let resp =
        request(fleet.gw.addr(), "GET", "/metrics", b"", Duration::from_secs(5)).expect("metrics");
    assert_eq!(resp.status, 200);
    let text = String::from_utf8(resp.body).expect("utf-8");
    assert_valid_prometheus_text(&text);
    for needle in [
        "spatial_slo_error_budget_remaining{slo=\"serve-latency\"}",
        "spatial_slo_burn_rate{slo=\"serve-latency\",window=\"5m\"}",
        "spatial_slo_burn_rate{slo=\"serve-latency\",window=\"3d\"}",
        "# {trace_id=\"",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }

    // /exemplars: the duration histogram's buckets carry trace links...
    let resp = request(
        fleet.gw.addr(),
        "GET",
        &format!("/exemplars/{FAMILY}"),
        b"",
        Duration::from_secs(5),
    )
    .expect("exemplars");
    assert_eq!(resp.status, 200);
    let body = String::from_utf8(resp.body).expect("utf-8");
    let trace = body
        .split("\"trace_id\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("at least one exemplar");
    assert_eq!(trace.len(), 32, "trace ids are 32 hex chars: {trace}");

    // ...and the linked trace resolves to its span tree.
    let resp =
        request(fleet.gw.addr(), "GET", &format!("/trace/{trace}"), b"", Duration::from_secs(5))
            .expect("trace lookup");
    assert_eq!(resp.status, 200, "exemplar trace {trace} must resolve");
}

#[test]
fn the_profile_attributes_request_time_to_named_stages() {
    let (summary, fleet) = slo_gated_episode();

    for frame in ["gateway.forward", "gateway.forward;upstream.attempt", "service.serve"] {
        assert!(
            summary.frames.iter().any(|p| p == frame),
            "missing frame {frame} in {:?}",
            summary.frames
        );
    }

    let resp =
        request(fleet.gw.addr(), "GET", "/profile", b"", Duration::from_secs(5)).expect("profile");
    assert_eq!(resp.status, 200);
    let text = String::from_utf8(resp.body).expect("utf-8");
    assert!(text.contains("gateway.forward;upstream.attempt "), "{text}");

    // ≥ 90 % of request wall time lands in named child stages, so a flame
    // graph of this profile explains where requests actually went.
    let attribution = fleet.gw.profiler().attribution("gateway.forward");
    assert!(attribution >= 0.9, "only {attribution:.3} of forward time attributed to stages");
}

#[test]
fn the_slo_episode_is_deterministic_across_runs() {
    let (first, _) = slo_gated_episode();
    let (second, _) = slo_gated_episode();
    assert!(!first.log.is_empty());
    assert_eq!(first, second, "structural summaries must match across runs");
}
