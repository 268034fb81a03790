//! The metric tables, the text of `BENCHMARK.json` generated from them (a unit
//! test keeps the committed file in step), and the arithmetic that turns a traced run into per-layer
//! values.

use crate::stats;
use crate::trace::{self, Span, CLIENT_REQUEST, MODEL_CALL};
use crate::workloads::{PhaseOutcome, Workload};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the metric
    /// may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: "lower", bound: 0.0 }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: "higher", bound: 0.0 }
}

const fn within(bound: f64, metric: Metric) -> Metric {
    Metric { bound, ..metric }
}

/// What a user of the system sees; printed with `--trace 0`.
pub const END_TO_END: &[Metric] = &[
    within(0.25, lower("setup_s", "s")),
    within(0.15, lower("latency_p50_ms", "ms")),
    within(0.25, lower("latency_p95_ms", "ms")),
    within(0.10, higher("goodput_high_ops_s", "ops/s")),
    within(0.20, lower("rss_peak_mb", "MB")),
];

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 22;

/// The text of `BENCHMARK.json`, generated from the tables here so the file
/// and the program cannot drift apart (`--contract` prints it; a unit test
/// compares it with the committed file).
pub fn contract() -> String {
    use crate::json::Json;
    let describe = |m: &Metric, bounded: bool| {
        let mut members = vec![
            ("name".to_string(), Json::str(m.name)),
            ("unit".to_string(), Json::str(m.unit)),
            ("better".to_string(), Json::str(m.better)),
        ];
        if bounded {
            members.push(("bound".to_string(), Json::Num(m.bound)));
        }
        Json::Obj(members).render()
    };
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = Workload::ALL
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))]).render())
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        list(workloads),
        list(END_TO_END.iter().map(|m| describe(m, true)).collect()),
        list(PER_LAYER.iter().map(|m| describe(m, false)).collect()),
    )
}

/// One group per layer (= module); printed with `--trace 1`. A layer that is
/// not on a workload's path reports 0 there.
pub const PER_LAYER: &[Metric] = &[
    // gateway::gateway
    lower("gateway.hop_us", "us"),
    lower("gateway.retries", "count"),
    lower("gateway.shed", "count"),
    // gateway::client + gateway::reactor + gateway::http
    lower("client.exchange_us", "us"),
    higher("client.pool_reuse_share", "ratio"),
    lower("reactor.wakeups_per_req", "ratio"),
    higher("reactor.keepalive_reuse_share", "ratio"),
    lower("http.response_parse_ns", "ns"),
    // gateway::service + gateway::worker
    lower("host.transport_self_us", "us"),
    lower("host.saturated_503", "count"),
    // gateway::batch
    higher("batch.occupancy_mean_ref", "ratio"),
    higher("batch.occupancy_mean_sat", "ratio"),
    lower("batch.window_us_final", "us"),
    lower("batch.submit_overhead_us", "us"),
    // gateway::services::serving
    lower("serving.handle_us", "us"),
    lower("serving.self_us", "us"),
    lower("serving.handle_direct_us", "us"),
    // gateway::services::shap + gateway::wire
    lower("shap.handle_us", "us"),
    lower("shap.self_us", "us"),
    lower("wire.explain_decode_ns", "ns"),
    lower("wire.explain_encode_ns", "ns"),
    // ml::forest + ml::store + linalg::matrix
    lower("forest.predict_row_us", "us"),
    lower("forest.predict_batch_row_us", "us"),
    lower("forest.batch_span_us", "us"),
    lower("store.serving_ns", "ns"),
    lower("matrix.from_row_vecs_ns", "ns"),
    // xai::shap + parallel::pool
    lower("shap.explain_us", "us"),
    lower("shap.model_calls_per_explain", "count"),
    lower("shap.model_rows_per_explain", "count"),
    lower("shap.model_share", "ratio"),
    lower("pool.jobs_per_explain", "count"),
    lower("pool.par_map_overhead_us", "us"),
    // gateway::services::stream + core::stream + core::drift
    lower("stream.handle_us", "us"),
    lower("stream.ack_p50_us", "us"),
    lower("stream.detect_delay_events", "events"),
    lower("pipeline.offer_us", "us"),
    lower("pipeline.offer_reordered_us", "us"),
    lower("pipeline.pending_max", "count"),
    lower("pipeline.stale_dropped", "count"),
    lower("detector.update_ns", "ns"),
    // data::ingest + data::stream + ml::online
    lower("ring.push_pop_ns", "ns"),
    lower("ring.backpressure_spins", "count"),
    lower("qc.admit_ns", "ns"),
    lower("window.push_ns", "ns"),
    lower("fusion.update_ns", "ns"),
    lower("ensemble.prequential_us", "us"),
    lower("ensemble.predict_us", "us"),
    // telemetry::registry
    lower("registry.encode_us", "us"),
    lower("registry.series", "count"),
    // the closed-loop burst: completions per second with every pipeline full
    higher("sat.capacity_ops_s", "ops/s"),
    // the operator's side of mixed_ops
    higher("mixed.bg_explain_ops_s", "ops/s"),
    // how the end-to-end median splits (gateway run)
    lower("split.handle_share_of_p50", "ratio"),
    lower("split.model_share_of_p50", "ratio"),
    // the harness itself
    lower("gen.lag_p99_us", "us"),
    higher("gen.sent", "count"),
    higher("gen.samples", "count"),
    lower("gen.encode_event_ns", "ns"),
    lower("trace.overhead_share", "ratio"),
    higher("trace.attributed_share", "ratio"),
    lower("tail.latency_p99_ms", "ms"),
];

/// The four phases of a `--trace 1` run.
pub struct TracedPhases<'a> {
    /// Reference rate through the gateway, wrappers installed, recording off.
    pub untraced: &'a PhaseOutcome,
    /// The same with recording on.
    pub gateway: &'a PhaseOutcome,
    /// Reference rate straight at the service host, recording on.
    pub direct: &'a PhaseOutcome,
    /// A short closed-loop burst, recording off, for occupancy at saturation.
    pub sat: &'a PhaseOutcome,
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn p50_ms(phase: &PhaseOutcome) -> f64 {
    stats::median(phase.latency_ms.iter().map(|&(_, ms)| ms).collect())
}

/// Per-layer values for one workload's traced run. Names absent from the result
/// (a layer off this workload's path) are reported as 0 by the caller.
pub fn per_layer(
    workload: Workload,
    phases: &TracedPhases<'_>,
    spans: &[Span],
    probes: &[(&'static str, f64)],
) -> Vec<(&'static str, f64)> {
    let via_gateway = trace::summarize(spans, "gateway");
    let at_host = trace::summarize(spans, "direct");
    let counters = &phases.gateway.layers;
    let mut out: Vec<(&'static str, f64)> = probes.to_vec();

    out.extend([
        (
            "gateway.hop_us",
            via_gateway.median_us(CLIENT_REQUEST) - at_host.median_us(CLIENT_REQUEST),
        ),
        ("gateway.retries", counters.retries as f64),
        ("gateway.shed", phases.gateway.shed as f64),
        (
            "client.pool_reuse_share",
            ratio(counters.upstream_reuses, counters.upstream_reuses + counters.upstream_connects),
        ),
        ("reactor.wakeups_per_req", ratio(counters.reactor_wakeups, counters.reactor_requests)),
        (
            "reactor.keepalive_reuse_share",
            ratio(counters.reactor_reuses, counters.reactor_requests),
        ),
        ("host.transport_self_us", at_host.self_median_us(CLIENT_REQUEST)),
        ("host.saturated_503", phases.direct.shed as f64),
        ("batch.occupancy_mean_ref", ratio(counters.batch_requests, counters.batch_batches)),
        (
            "batch.occupancy_mean_sat",
            ratio(phases.sat.layers.batch_requests, phases.sat.layers.batch_batches),
        ),
        ("batch.window_us_final", phases.sat.layers.batch_window_us),
        ("sat.capacity_ops_s", phases.sat.capacity_ops_s()),
        ("forest.batch_span_us", via_gateway.median_us(MODEL_CALL)),
        ("registry.encode_us", counters.registry_encode_us),
        ("registry.series", counters.registry_series as f64),
        ("pipeline.stale_dropped", phases.gateway.stale_dropped as f64),
        ("stream.detect_delay_events", phases.gateway.detect_delay_events as f64),
    ]);

    // The services on this workload's path.
    let handle = match workload {
        Workload::PredictOpen | Workload::MixedOps => "serving.handle",
        Workload::ExplainOpen => "shap.handle",
        Workload::StreamOpen => "stream.handle",
    };
    for (span, handle_metric, self_metric) in [
        ("serving.handle", "serving.handle_us", Some("serving.self_us")),
        ("shap.handle", "shap.handle_us", None),
        ("stream.handle", "stream.handle_us", None),
    ] {
        out.push((handle_metric, via_gateway.median_us(span)));
        if let Some(self_metric) = self_metric {
            out.push((self_metric, via_gateway.self_median_us(span)));
        }
    }
    // SHAP calls the model ~2 000 times per explanation, recorded as totals, not
    // spans: what is left of a handle after the model's share is SHAP's own work
    // (sampling, regression, JSON) plus batch wait.
    if let Some(shap) = via_gateway.get("shap.handle") {
        let handles = shap.count.max(1) as f64;
        let mean_handle_us: f64 = spans
            .iter()
            .filter(|s| s.run == "gateway" && s.name == "shap.handle")
            .map(|s| s.duration_ns() as f64 / 1e3)
            .sum::<f64>()
            / handles;
        let model_us = phases.gateway.model_ns as f64 / 1e3 / handles;
        out.push(("shap.self_us", (mean_handle_us - model_us).max(0.0)));
    }
    if workload == Workload::StreamOpen {
        out.push(("stream.ack_p50_us", stats::median(phases.untraced.ack_ms.clone()) * 1e3));
    }
    if workload == Workload::MixedOps {
        let seconds = phases.untraced.span_ns as f64 / 1e9;
        out.push(("mixed.bg_explain_ops_s", phases.untraced.bg_explains as f64 / seconds));
    }

    let root_us = via_gateway.median_us(CLIENT_REQUEST);
    if root_us > 0.0 {
        out.push(("split.handle_share_of_p50", via_gateway.median_us(handle) / root_us));
        out.push(("split.model_share_of_p50", via_gateway.self_median_us(MODEL_CALL) / root_us));
    }

    let open = [phases.untraced, phases.gateway, phases.direct];
    let untraced_p50 = p50_ms(phases.untraced);
    out.extend([
        ("gen.lag_p99_us", open.iter().map(|p| p.lag_p99_us()).fold(0.0, f64::max)),
        ("gen.sent", open.iter().map(|p| p.lag_ns.len()).sum::<usize>() as f64),
        ("gen.samples", open.iter().map(|p| p.latency_ms.len()).sum::<usize>() as f64),
        ("trace.overhead_share", (p50_ms(phases.gateway) - untraced_p50) / untraced_p50),
        ("trace.attributed_share", at_host.attributed_share),
        (
            "tail.latency_p99_ms",
            stats::segmented_percentile(&phases.untraced.latency_ms, phases.untraced.span_ns, 0.99),
        ),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(committed, contract(), "regenerate with: run.sh --contract > BENCHMARK.json");
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for name in &names {
            assert!(
                name.len() <= 64
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().chain(PER_LAYER).all(|m| m.unit.len() <= 16));
    }
}
