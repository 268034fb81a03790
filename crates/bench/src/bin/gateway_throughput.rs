//! Gateway transport throughput — blocking thread-per-connection core vs the
//! event-driven reactor, plus micro-batcher occupancy under concurrent load.
//!
//! Both transports serve the *same* trivial handler, so the measurement
//! isolates the I/O core: the blocking [`HttpServer`] opens a thread and a
//! fresh TCP connection per request (`connection: close`), while the
//! [`ReactorServer`] multiplexes keep-alive connections over one poller
//! thread. Load is generated **open-loop** (seeded Poisson arrivals, latency
//! measured from the scheduled arrival) so a slow server cannot hide its own
//! queueing — see `spatial_gateway::loadgen::run_open_loop`.
//!
//! Each transport climbs a geometric ladder of offered rates; a rung
//! *qualifies* when p99 stays under [`P99_BUDGET_MS`], nothing errored, and
//! the achieved rate kept up with the offered rate. The headline figure is the
//! highest qualifying achieved rate — "req/s at p99 < 10 ms". A second
//! section drives the model-serving service hard enough that concurrent
//! predicts coalesce, and reports the adaptive micro-batcher's occupancy
//! histogram.
//!
//! Prints one JSON object on stdout; `--write` also saves it to
//! `BENCH_gateway_throughput.json`. `--smoke` runs a reduced ladder and
//! asserts the reactor's advantage (>= 5x on multi-core runners; on a
//! single-core runner no concurrency exists anywhere in the stack, the result
//! is flagged `degraded_measurement` and the ratio assertion is skipped —
//! loudly).

use spatial_bench::banner;
use spatial_data::Dataset;
use spatial_gateway::http::{HttpServer, Response};
use spatial_gateway::loadgen::{run_open_loop, OpenLoopPlan};
use spatial_gateway::reactor::ReactorServer;
use spatial_gateway::service::ServiceHost;
use spatial_gateway::services::ServingService;
use spatial_linalg::Matrix;
use spatial_ml::tree::DecisionTree;
use spatial_ml::{Model, ModelStore};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// The latency budget a rate rung must hold to qualify.
const P99_BUDGET_MS: f64 = 10.0;
/// An achieved rate below this fraction of offered means the transport fell
/// behind the schedule — the rung does not qualify even if p99 looks good.
const KEEPUP_FRACTION: f64 = 0.85;

/// One measured rung of the rate ladder.
struct Rung {
    offered_rps: f64,
    achieved_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    error_rate: f64,
    qualified: bool,
}

/// One transport's full ladder plus its connection accounting.
struct TransportRun {
    name: &'static str,
    rungs: Vec<Rung>,
    /// Highest qualifying achieved rate (0 when no rung qualified).
    best_rps: f64,
    /// TCP connections the generator opened across the whole ladder.
    connections_opened: u64,
    /// Requests served over reused keep-alive connections.
    keepalive_reuses: u64,
}

fn main() {
    banner(
        "gateway transport throughput — blocking core vs event-driven reactor",
        "keep-alive + readiness-driven I/O multiplies request throughput at a fixed tail budget",
    );
    let smoke = std::env::args().any(|a| a == "--smoke");
    let write = std::env::args().any(|a| a == "--write");
    let threads_available = spatial_parallel::global().threads();
    let degraded = threads_available == 1;
    if degraded {
        eprintln!(
            "WARNING: only 1 hardware thread is available — client, server and poller \
             all share one core, so every rate below understates real throughput and \
             the reactor-vs-blocking ratio is meaningless. The emitted JSON carries \
             \"degraded_measurement\": true; do not use this run as a trajectory point."
        );
    }

    let (rates, duration): (Vec<f64>, Duration) = if smoke {
        (vec![200.0, 400.0, 800.0, 1600.0, 3200.0], Duration::from_millis(250))
    } else {
        (vec![500.0, 1000.0, 2000.0, 4000.0, 8000.0, 16000.0], Duration::from_secs(1))
    };

    // -- transport ladders -----------------------------------------------------
    let blocking_server = HttpServer::spawn(|_req| Response::json(br#"{"ok":true}"#.to_vec()))
        .expect("blocking server binds");
    let blocking = climb("blocking", blocking_server.addr(), &rates, duration);
    drop(blocking_server);

    let reactor_server = ReactorServer::spawn(|_req| Response::json(br#"{"ok":true}"#.to_vec()))
        .expect("reactor server binds");
    let reactor = climb("reactor", reactor_server.addr(), &rates, duration);
    let reactor_stats = reactor_server.stats();
    let accepted = reactor_stats.accepted_total();
    let served_keepalive = reactor_stats.keepalive_reuses();
    drop(reactor_server);

    let speedup =
        if blocking.best_rps > 0.0 { reactor.best_rps / blocking.best_rps } else { f64::NAN };

    // -- micro-batcher occupancy ----------------------------------------------
    let batch = measure_batching(if smoke { 1500.0 } else { 4000.0 }, duration);

    // -- verdicts --------------------------------------------------------------
    for run in [&blocking, &reactor] {
        eprintln!(
            "{:>9}: best {:.0} req/s at p99 < {P99_BUDGET_MS} ms ({} conns opened, {} keep-alive reuses)",
            run.name, run.best_rps, run.connections_opened, run.keepalive_reuses
        );
    }
    eprintln!(
        "  reactor: {accepted} connections accepted server-side, {served_keepalive} requests on reused connections"
    );
    eprintln!(
        "  batcher: {} requests in {} batches (mean occupancy {:.2}, window {:?})",
        batch.requests, batch.batches, batch.mean_occupancy, batch.final_window
    );

    if smoke {
        assert!(
            reactor.rungs.iter().any(|r| r.qualified),
            "the reactor must sustain at least the lowest rung under the p99 budget"
        );
        assert!(
            reactor.keepalive_reuses > 0,
            "open-loop clients must reuse reactor connections via keep-alive"
        );
        assert_eq!(
            batch.histogram_total, batch.batches,
            "occupancy histogram must account for every batch"
        );
        if degraded {
            eprintln!(
                "single-core runner: SKIPPING the reactor-vs-blocking ratio assertion \
                 (no concurrency is possible; see degraded_measurement in the JSON)"
            );
        } else {
            assert!(
                speedup >= 5.0,
                "expected the reactor to sustain >= 5x the blocking core's rate at \
                 p99 < {P99_BUDGET_MS} ms on {threads_available} threads; got {:.0} vs {:.0} req/s ({speedup:.2}x)",
                reactor.best_rps,
                blocking.best_rps,
            );
            eprintln!("smoke OK: reactor {speedup:.1}x over the blocking core");
        }
    }

    let json = render_json(threads_available, degraded, &blocking, &reactor, speedup, &batch);
    println!("{json}");
    if write {
        spatial_durability::backend::atomic_write(
            "BENCH_gateway_throughput.json",
            format!("{json}\n").as_bytes(),
        )
        .expect("write BENCH_gateway_throughput.json");
        eprintln!("wrote BENCH_gateway_throughput.json");
    }
}

/// Climbs the offered-rate ladder against one server, open-loop at each rung.
fn climb(name: &'static str, addr: SocketAddr, rates: &[f64], duration: Duration) -> TransportRun {
    let mut rungs = Vec::new();
    let (mut connections_opened, mut keepalive_reuses) = (0u64, 0u64);
    let mut best_rps = 0.0f64;
    for (i, &offered_rps) in rates.iter().enumerate() {
        let plan = OpenLoopPlan {
            offered_rps,
            duration,
            timeout: Duration::from_secs(5),
            seed: 0xBEEF ^ i as u64,
            ..OpenLoopPlan::default()
        };
        let res = run_open_loop(addr, "POST", "/bench", b"{}", &plan);
        let error_rate = res.summary.error_rate();
        let qualified = res.summary.p99_ms < P99_BUDGET_MS
            && error_rate == 0.0
            && res.achieved_rps >= KEEPUP_FRACTION * offered_rps;
        if qualified {
            best_rps = best_rps.max(res.achieved_rps);
        }
        connections_opened += res.connections_opened;
        keepalive_reuses += res.keepalive_reuses;
        eprintln!(
            "  {name} @ {offered_rps:>6.0} offered: {:>6.0} achieved, p99 {:>7.2} ms{}",
            res.achieved_rps,
            res.summary.p99_ms,
            if qualified { "" } else { "  (over budget)" }
        );
        rungs.push(Rung {
            offered_rps,
            achieved_rps: res.achieved_rps,
            p50_ms: res.summary.p50_ms,
            p99_ms: res.summary.p99_ms,
            error_rate,
            qualified,
        });
    }
    TransportRun { name, rungs, best_rps, connections_opened, keepalive_reuses }
}

/// What the micro-batcher did under concurrent open-loop load.
struct BatchReport {
    offered_rps: f64,
    achieved_rps: f64,
    requests: u64,
    batches: u64,
    mean_occupancy: f64,
    final_window: Duration,
    /// `(upper_bound, cumulative_count)` pairs; the last bound is `+Inf`.
    histogram: Vec<(f64, u64)>,
    histogram_total: u64,
}

/// Drives the serving service open-loop so concurrent predicts coalesce, then
/// reads the batcher's occupancy counters. The model is a tiny decision tree —
/// per-row inference is cheap on purpose, so occupancy measures the transport
/// and batch window, not model latency.
fn measure_batching(offered_rps: f64, duration: Duration) -> BatchReport {
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for i in 0..40 {
        let label = i % 2;
        rows.push(vec![label as f64 * 6.0 + (i as f64 % 3.0) * 0.1, (i as f64 % 5.0) * 0.1]);
        labels.push(label);
    }
    let ds = Dataset::new(
        Matrix::from_row_vecs(rows),
        labels,
        vec!["x".into(), "y".into()],
        vec!["a".into(), "b".into()],
    );
    let store = Arc::new(ModelStore::with_majority_fallback(&ds, 4).expect("fallback model fits"));
    let mut model = DecisionTree::new();
    model.fit(&ds).expect("tree fits");
    store.promote(Arc::new(model), 0, 0.99, "bench");
    let svc = Arc::new(ServingService::new(store, 2, 4));
    let host = ServiceHost::spawn(Arc::clone(&svc) as _, 256).expect("service host binds");

    let plan = OpenLoopPlan {
        offered_rps,
        duration,
        timeout: Duration::from_secs(5),
        seed: 0xFACE,
        max_in_flight: 32,
        ..OpenLoopPlan::default()
    };
    let body = br#"{"features":[6.0,0.1]}"#;
    let res = run_open_loop(host.addr(), "POST", "/serve/predict", body, &plan);
    let stats = svc.batch_stats();
    let histogram = stats.occupancy_histogram();
    let histogram_total = histogram.last().map(|&(_, n)| n).unwrap_or(0);
    BatchReport {
        offered_rps,
        achieved_rps: res.achieved_rps,
        requests: stats.requests(),
        batches: stats.batches(),
        mean_occupancy: stats.mean_occupancy(),
        final_window: stats.current_window(),
        histogram,
        histogram_total,
    }
}

/// Emits the whole run as one hand-built JSON object (no serde needed).
fn render_json(
    threads_available: usize,
    degraded: bool,
    blocking: &TransportRun,
    reactor: &TransportRun,
    speedup: f64,
    batch: &BatchReport,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"spatial-gateway-throughput/v1\",\n");
    out.push_str(&format!("  \"threads_available\": {threads_available},\n"));
    out.push_str(&format!("  \"degraded_measurement\": {degraded},\n"));
    out.push_str(&format!("  \"p99_budget_ms\": {P99_BUDGET_MS},\n"));
    for run in [blocking, reactor] {
        out.push_str(&format!("  \"{}\": {{\n", run.name));
        out.push_str(&format!("    \"best_rps_under_budget\": {},\n", num(run.best_rps)));
        out.push_str(&format!("    \"connections_opened\": {},\n", run.connections_opened));
        out.push_str(&format!("    \"keepalive_reuses\": {},\n", run.keepalive_reuses));
        out.push_str("    \"ladder\": [\n");
        for (i, r) in run.rungs.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"offered_rps\": {}, \"achieved_rps\": {}, \"p50_ms\": {}, \"p99_ms\": {}, \"error_rate\": {}, \"qualified\": {}}}{}\n",
                num(r.offered_rps),
                num(r.achieved_rps),
                num(r.p50_ms),
                num(r.p99_ms),
                num(r.error_rate),
                r.qualified,
                if i + 1 < run.rungs.len() { "," } else { "" }
            ));
        }
        out.push_str("    ]\n  },\n");
    }
    out.push_str(&format!("  \"reactor_vs_blocking_speedup\": {},\n", num(speedup)));
    out.push_str("  \"micro_batcher\": {\n");
    out.push_str(&format!("    \"offered_rps\": {},\n", num(batch.offered_rps)));
    out.push_str(&format!("    \"achieved_rps\": {},\n", num(batch.achieved_rps)));
    out.push_str(&format!("    \"requests\": {},\n", batch.requests));
    out.push_str(&format!("    \"batches\": {},\n", batch.batches));
    out.push_str(&format!("    \"mean_occupancy\": {},\n", num(batch.mean_occupancy)));
    out.push_str(&format!("    \"final_window_us\": {},\n", batch.final_window.as_micros()));
    out.push_str("    \"occupancy_cumulative\": [\n");
    for (i, (bound, count)) in batch.histogram.iter().enumerate() {
        let le = if bound.is_finite() { num(*bound) } else { "\"+Inf\"".into() };
        out.push_str(&format!(
            "      {{\"le\": {le}, \"count\": {count}}}{}\n",
            if i + 1 < batch.histogram.len() { "," } else { "" }
        ));
    }
    out.push_str("    ]\n  }\n}");
    out
}

/// JSON number formatting: six significant decimals, `null` for non-finite.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".into()
    }
}
