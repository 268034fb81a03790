//! The four workloads: what each sends, at which fixed rates, and how a phase
//! of it is run and checked.

use crate::fixture::{Cluster, Fixture, RenderedRow, Topology, EXPLAIN_CLASS};
use crate::gen::{self, ConnPlan, Pace, RequestSource, Sample, PIPELINE};
use crate::rng::{mix, SplitMix64};
use crate::trace::Tracer;
use crate::verify;
use spatial_data::ingest::StreamEvent;
use spatial_data::stream::{generate_drift_stream, DriftStreamConfig};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PredictOpen,
    ExplainOpen,
    StreamOpen,
    MixedOps,
}

/// Offered rates of the open-loop phases, in requests per second.
///
/// Constants, calibrated once on the seed commit (see README.md "Calibration"):
/// `reference` is 40 % and `high` 75 % of the median of three `capacity_ops_s`
/// runs, rounded to two significant figures. Never derived at run time: a rate
/// that followed the program would hide a slowdown.
#[derive(Debug, Clone, Copy)]
pub struct Rates {
    pub reference: f64,
    pub high: f64,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::PredictOpen, Workload::ExplainOpen, Workload::StreamOpen, Workload::MixedOps];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PredictOpen => "predict_open",
            Workload::ExplainOpen => "explain_open",
            Workload::StreamOpen => "stream_open",
            Workload::MixedOps => "mixed_ops",
        }
    }

    /// Why the workload exists, as recorded in `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PredictOpen => "POST /serve/predict via the gateway: transport, HTTP, routing, pooled client, worker pool and batch window dominate; XAI does nothing, so XAI changes must show no change here",
            Workload::ExplainOpen => "POST /shap/explain via the gateway: KernelSHAP over the forest is nearly all the work (paper Fig 8c); transport changes must show no change here",
            Workload::StreamOpen => "POST /serve/stream, one labelled event per request, interleaved over two connections: the predict layers used as ordered writes to one locked pipeline",
            Workload::MixedOps => "predict traffic on one connection while the operator runs explanations and scrapes /metrics on the other: contention for the two cores and the dispatch threads",
        }
    }

    pub fn topology(self) -> Topology {
        match self {
            Workload::PredictOpen => Topology { serving: true, shap: false, stream: false },
            Workload::ExplainOpen => Topology { serving: false, shap: true, stream: false },
            Workload::StreamOpen => Topology { serving: false, shap: false, stream: true },
            Workload::MixedOps => Topology { serving: true, shap: true, stream: false },
        }
    }

    pub fn rates(self) -> Rates {
        match self {
            Workload::PredictOpen => Rates { reference: 270.0, high: 500.0 },
            Workload::ExplainOpen => Rates { reference: 44.0, high: 83.0 },
            Workload::StreamOpen => Rates { reference: 270.0, high: 500.0 },
            Workload::MixedOps => Rates { reference: 130.0, high: 250.0 },
        }
    }

    /// Latency limit of the foreground request class, for goodput.
    pub fn limit_ms(self) -> f64 {
        match self {
            Workload::ExplainOpen => 250.0,
            _ => 100.0,
        }
    }

    /// Gateway prefix and path of the foreground request class.
    pub fn route(self) -> (&'static str, &'static str) {
        match self {
            Workload::PredictOpen | Workload::MixedOps => ("serve", "/serve/predict"),
            Workload::ExplainOpen => ("shap", "/shap/explain"),
            Workload::StreamOpen => ("serve", "/serve/stream"),
        }
    }

    /// One in how many responses the correctness gate re-derives. The stream
    /// gate checks every decision instead.
    pub fn verify_one_in(self) -> u64 {
        match self {
            Workload::ExplainOpen => 16,
            _ => 64,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Open loop at the reference rate; latency is reported from here.
    Reference,
    /// Open loop at the high rate; goodput is reported from here.
    High,
    /// Closed loop, pipelines full; capacity is reported from here.
    Saturation,
}

impl PhaseKind {
    pub fn name(self) -> &'static str {
        match self {
            PhaseKind::Reference => "ref",
            PhaseKind::High => "high",
            PhaseKind::Saturation => "sat",
        }
    }
}

/// Requests sent before the clock starts, so thread pools, the upstream
/// connection pool and the batch window are past their cold start.
const WARMUP_REQUESTS: usize = 256;
/// The same for explanations, which cost ~100 times as much each.
const EXPLAIN_WARMUP_REQUESTS: usize = 64;
/// Events per second of phase prepared for the closed-loop stream phase, about
/// three times what the seed commit takes. If the program outruns it the phase
/// ends early and capacity is taken over the shorter window.
const SAT_EVENTS_PER_S: f64 = 25_000.0;
/// Features jittered per request.
const JITTERED: usize = 4;

/// Predict / explain requests: a test row with a few seeded features nudged, so
/// every request is distinct and no cache can answer the benchmark.
pub struct RowSource {
    path: &'static str,
    /// What closes the body after the feature array.
    suffix: String,
    seed: u64,
    phase: u64,
    rows: Arc<Vec<RenderedRow>>,
}

impl RowSource {
    pub fn new(
        fixture: &Fixture,
        path: &'static str,
        explain: bool,
        seed: u64,
        phase: u64,
    ) -> Self {
        let suffix =
            if explain { format!("],\"class\":{EXPLAIN_CLASS}}}") } else { "]}".to_string() };
        Self { path, suffix, seed, phase, rows: Arc::clone(&fixture.rendered_test) }
    }

    /// The row behind request `index` and its `(position, new value)` nudges,
    /// positions ascending and distinct.
    fn pick(&self, index: usize) -> (&RenderedRow, Vec<(usize, f64)>) {
        let mut rng = SplitMix64::new(mix(self.seed, self.phase, index as u64), 1);
        let row = &self.rows[rng.below(self.rows.len())];
        let mut nudges: Vec<(usize, f64)> = (0..JITTERED)
            .map(|_| {
                let at = rng.below(row.values.len());
                let v = row.values[at];
                (at, v + (rng.unit() - 0.5) * 0.02 * (v.abs() + 1.0))
            })
            .collect();
        nudges.sort_by_key(|&(at, _)| at);
        nudges.dedup_by_key(|&mut (at, _)| at);
        (row, nudges)
    }

    /// The exact feature row request `index` carries.
    pub fn features(&self, index: usize) -> Vec<f64> {
        let (row, nudges) = self.pick(index);
        let mut values = row.values.clone();
        for (at, v) in nudges {
            values[at] = v;
        }
        values
    }
}

impl RequestSource for RowSource {
    fn write_request(&self, index: usize, out: &mut Vec<u8>) -> usize {
        const PREFIX: &str = "{\"features\":[";
        let (row, nudges) = self.pick(index);
        let printed: Vec<String> = nudges.iter().map(|(_, v)| format!("{v}")).collect();
        let replaced: usize =
            nudges.iter().map(|&(at, _)| row.ranges[at].1 - row.ranges[at].0).sum();
        let added: usize = printed.iter().map(String::len).sum();
        let body_len = PREFIX.len() + row.text.len() - replaced + added + self.suffix.len();
        gen::write_head(out, "POST", self.path, body_len);
        let body_at = out.len();
        out.extend_from_slice(PREFIX.as_bytes());
        let mut copied = 0;
        for (&(at, _), text) in nudges.iter().zip(&printed) {
            let (start, end) = row.ranges[at];
            out.extend_from_slice(&row.text.as_bytes()[copied..start]);
            out.extend_from_slice(text.as_bytes());
            copied = end;
        }
        out.extend_from_slice(&row.text.as_bytes()[copied..]);
        out.extend_from_slice(self.suffix.as_bytes());
        debug_assert_eq!(out.len() - body_at, body_len);
        body_at
    }
}

/// Events of one stream phase in *send* order: `seq` order with a seeded 5 % of
/// adjacent pairs swapped, so the reorder buffer has work beyond what the two
/// connections' interleaving gives it.
pub struct StreamSource {
    /// `events[k]` is what request `k` carries (warm-up first).
    pub events: Vec<StreamEvent>,
    /// `request_of[seq]` is the request that carries event `seq`.
    pub request_of: Vec<usize>,
    /// Requests `0..base` are the warm-up; timed request `index` is `base + index`.
    pub base: usize,
    /// First drifted `seq`.
    pub drift_at: u64,
}

impl StreamSource {
    /// `count` events (warm-up included) with the concept drift at the midpoint.
    pub fn new(seed: u64, phase: u64, count: usize) -> Self {
        let drift_at = (count / 2) as u64;
        let mut events = generate_drift_stream(&DriftStreamConfig {
            events: count,
            drift_at,
            seed: mix(seed, phase, 0),
            ..DriftStreamConfig::default()
        });
        let mut rng = SplitMix64::new(seed, 0x5747 ^ phase);
        let mut k = 0;
        while k + 1 < events.len() {
            if rng.unit() < 0.05 {
                events.swap(k, k + 1);
                k += 2;
            } else {
                k += 1;
            }
        }
        let mut request_of = vec![0; events.len()];
        for (k, event) in events.iter().enumerate() {
            request_of[event.seq as usize] = k;
        }
        Self { events, request_of, base: 0, drift_at }
    }
}

/// The `/serve/stream` body for one event.
pub fn encode_event(event: &StreamEvent, out: &mut Vec<u8>) {
    write!(out, "{{\"stream\":{},\"seq\":{},\"values\":[", event.stream, event.seq)
        .expect("writing to a Vec cannot fail");
    for (i, v) in event.values.iter().enumerate() {
        let comma = if i > 0 { "," } else { "" };
        write!(out, "{comma}{v}").expect("writing to a Vec cannot fail");
    }
    match event.label {
        Some(label) => write!(out, "],\"label\":{label}}}"),
        None => write!(out, "]}}"),
    }
    .expect("writing to a Vec cannot fail");
}

impl RequestSource for StreamSource {
    fn write_request(&self, index: usize, out: &mut Vec<u8>) -> usize {
        let mut body = Vec::with_capacity(128);
        encode_event(&self.events[self.base + index], &mut body);
        gen::write_head(out, "POST", "/serve/stream", body.len());
        let body_at = out.len();
        out.extend_from_slice(&body);
        body_at
    }

    fn limit(&self) -> Option<usize> {
        Some(self.events.len() - self.base)
    }
}

/// The operator's side of `mixed_ops`: explanations one at a time, and a
/// `GET /metrics` scrape whenever a second has passed since the last one.
pub struct BackgroundSource {
    explain: RowSource,
    t0: Instant,
    next_scrape_ns: AtomicU64,
    /// Phase indices that went out as scrapes instead of explanations.
    pub scrapes: Mutex<Vec<usize>>,
}

impl RequestSource for BackgroundSource {
    fn write_request(&self, index: usize, out: &mut Vec<u8>) -> usize {
        let now = self.t0.elapsed().as_nanos() as u64;
        // Relaxed: one connection thread is the only reader and writer.
        if now >= self.next_scrape_ns.load(Ordering::Relaxed) {
            self.next_scrape_ns.store(now + 1_000_000_000, Ordering::Relaxed);
            self.scrapes.lock().expect("no panic while held").push(index);
            out.extend_from_slice(b"GET /metrics HTTP/1.1\r\nhost: benchmark\r\n\r\n");
            return out.len();
        }
        self.explain.write_request(index, out)
    }
}

/// Program counters of one phase (warm-up excluded), read from the public stats
/// structs before the cluster is dropped.
#[derive(Debug, Default, Clone)]
pub struct LayerCounters {
    /// Micro-batcher of the foreground service.
    pub batch_requests: u64,
    pub batch_batches: u64,
    pub batch_window_us: f64,
    /// The gateway's reactor.
    pub reactor_wakeups: u64,
    pub reactor_requests: u64,
    pub reactor_reuses: u64,
    /// The gateway's pooled upstream client.
    pub upstream_connects: u64,
    pub upstream_reuses: u64,
    pub retries: u64,
    /// One `MetricsRegistry::encode` of the gateway's registry after the phase.
    pub registry_encode_us: f64,
    pub registry_series: u64,
}

impl LayerCounters {
    fn read(cluster: &Cluster) -> Self {
        let batch = cluster.foreground_batch_stats();
        let reactor = cluster.gateway.reactor_stats();
        let upstream = cluster.gateway.upstream_pool_stats();
        Self {
            batch_requests: batch.requests(),
            batch_batches: batch.batches(),
            batch_window_us: batch.current_window().as_secs_f64() * 1e6,
            reactor_wakeups: reactor.wakeups(),
            reactor_requests: reactor.requests_total(),
            reactor_reuses: reactor.keepalive_reuses(),
            upstream_connects: upstream.connects,
            upstream_reuses: upstream.reuses,
            retries: cluster.gateway.resilience_report().retries,
            registry_encode_us: 0.0,
            registry_series: 0,
        }
    }

    /// Counters since `earlier`; gauges (window, registry) keep the later value.
    fn since(self, earlier: &Self) -> Self {
        Self {
            batch_requests: self.batch_requests - earlier.batch_requests,
            batch_batches: self.batch_batches - earlier.batch_batches,
            reactor_wakeups: self.reactor_wakeups - earlier.reactor_wakeups,
            reactor_requests: self.reactor_requests - earlier.reactor_requests,
            reactor_reuses: self.reactor_reuses - earlier.reactor_reuses,
            upstream_connects: self.upstream_connects - earlier.upstream_connects,
            upstream_reuses: self.upstream_reuses - earlier.upstream_reuses,
            retries: self.retries - earlier.retries,
            ..self
        }
    }
}

/// What one phase produced, for the foreground class unless named otherwise.
#[derive(Debug, Default)]
pub struct PhaseOutcome {
    pub span_ns: u64,
    /// Requests sent, warm-up and background included.
    pub attempted: u64,
    /// No response, a status other than 200, or a failed correctness check.
    pub failed: u64,
    /// Responses the correctness gate re-derived.
    pub verified: u64,
    /// `(scheduled offset ns, latency ms)` of good responses. On `stream_open`
    /// this is decision latency; elsewhere scheduled send → last response byte.
    pub latency_ms: Vec<(u64, f64)>,
    /// Scheduled send → last response byte of every good foreground response
    /// (on `stream_open` the acknowledgement, whether or not it carried a decision).
    pub ack_ms: Vec<f64>,
    /// Good responses that met the workload's latency limit.
    pub within_limit: u64,
    /// Arrival time of every good foreground response.
    pub done_ns: Vec<u64>,
    /// How late the generator itself sent each foreground request (see `Sample::lag_ns`).
    pub lag_ns: Vec<u64>,
    /// `mixed_ops`: background explanations completed inside the phase.
    pub bg_explains: u64,
    pub bg_scrapes: u64,
    /// Responses with status 429 / 503.
    pub shed: u64,
    /// `stream_open`: events between the injected drift and the `Drifting`
    /// transition; when the phase ended first, the events sent after the drift
    /// (a lower bound) and `drift_detected` false.
    pub detect_delay_events: u64,
    pub drift_detected: bool,
    pub stale_dropped: u64,
    /// Traced phases: time inside the `Model` wrapper, summed over threads.
    pub model_ns: u64,
    pub layers: LayerCounters,
    /// First failures, for the report.
    pub errors: Vec<String>,
}

impl PhaseOutcome {
    /// Good responses that arrived inside the phase, per second of phase.
    pub fn capacity_ops_s(&self) -> f64 {
        let inside = self.done_ns.iter().filter(|&&done| done <= self.span_ns).count();
        inside as f64 / (self.span_ns as f64 / 1e9)
    }

    /// p99 of the generator's own lateness, in microseconds (0 with no requests).
    pub fn lag_p99_us(&self) -> f64 {
        let mut lag: Vec<f64> = self.lag_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        crate::stats::sort(&mut lag);
        if lag.is_empty() {
            0.0
        } else {
            crate::stats::percentile(&lag, 0.99)
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }
}

/// Runs connection plans on one thread each and returns their samples.
fn drive(
    plans: &[ConnPlan<'_>],
    t0: Instant,
    span_ns: u64,
    tracer: Option<&Tracer>,
) -> Vec<Result<Vec<Sample>, String>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| scope.spawn(move || gen::run_connection(plan, t0, span_ns, tracer)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(result) => result.map_err(|e| format!("connection failed: {e}")),
                Err(_) => Err("generator thread panicked".to_string()),
            })
            .collect()
    })
}

/// How many generator connections (= threads) this host allows.
pub fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from).min(2)
}

fn keep_none(_: usize) -> bool {
    false
}

fn keep_all(_: usize) -> bool {
    true
}

enum Foreground {
    Rows(RowSource),
    Stream(StreamSource),
}

impl Foreground {
    fn source(&self) -> &dyn RequestSource {
        match self {
            Foreground::Rows(rows) => rows,
            Foreground::Stream(stream) => stream,
        }
    }
}

/// Where a traced phase's spans go: the tracer every wrapper reports to, and
/// the run label to record under (`None`: wrappers installed, recording off).
pub type Tracing<'a> = Option<(&'a Arc<Tracer>, Option<&'static str>)>;

pub struct Scenario<'f> {
    pub workload: Workload,
    pub fixture: &'f Fixture,
    pub seed: u64,
}

impl Scenario<'_> {
    /// Spawns a fresh cluster, warms it up, runs one timed phase through the
    /// gateway (or, with `direct`, straight at the service host) and checks the
    /// outputs off the clock. Each phase gets its own cluster: `stream_open`
    /// needs a pipeline that starts at `seq` 0, and the other workloads get
    /// phases that cannot leak state into each other. `round` tells repeated
    /// phases of one kind apart.
    pub fn run_phase(
        &self,
        kind: PhaseKind,
        round: u64,
        span: Duration,
        direct: bool,
        tracing: Tracing<'_>,
    ) -> PhaseOutcome {
        let workload = self.workload;
        let explain = workload == Workload::ExplainOpen;
        let span_ns = span.as_nanos() as u64;
        let cluster = Cluster::spawn(self.fixture, workload.topology(), tracing.map(|(t, _)| t));
        let (prefix, path) = workload.route();
        let addr = if direct { cluster.host_addr(prefix) } else { cluster.gateway_addr() };
        // Distinct per phase and round, so no two of a run send the same request.
        let phase_id = kind as u64
            + 10 * u64::from(direct)
            + 100 * u64::from(tracing.is_some())
            + 10_000 * round;
        let rate = match kind {
            PhaseKind::Reference => workload.rates().reference,
            PhaseKind::High => workload.rates().high,
            PhaseKind::Saturation => 0.0,
        };
        // mixed_ops gives the second connection to the operator.
        let fg_conns = if workload == Workload::MixedOps { 1 } else { connections() };
        let schedule = gen::arrival_schedule(
            &mut SplitMix64::new(self.seed, 0xA771 ^ phase_id),
            rate,
            span_ns,
        );
        let warm_count = if explain { EXPLAIN_WARMUP_REQUESTS } else { WARMUP_REQUESTS };
        let mut out = PhaseOutcome { span_ns, ..PhaseOutcome::default() };

        let mut foreground = match workload {
            Workload::StreamOpen => {
                // Enough events for the schedule, or for a closed loop more than
                // the pipeline can take in the phase.
                let timed = match kind {
                    PhaseKind::Saturation => (span.as_secs_f64() * SAT_EVENTS_PER_S) as usize,
                    _ => schedule.len(),
                };
                Foreground::Stream(StreamSource::new(self.seed, phase_id, warm_count + timed))
            }
            _ => Foreground::Rows(RowSource::new(self.fixture, path, explain, self.seed, phase_id)),
        };

        // Warm-up: untimed, as fast as the pipelines allow. The stream warm-up is
        // the head of the phase's own event sequence (the pipeline must see every
        // `seq` from 0); the others draw from a separate index space.
        let warm_rows = RowSource::new(self.fixture, path, explain, self.seed, phase_id + 1000);
        let warm_source: &dyn RequestSource = match &foreground {
            Foreground::Stream(stream) => stream,
            Foreground::Rows(_) => &warm_rows,
        };
        let warm_plans: Vec<ConnPlan<'_>> = (0..fg_conns)
            .map(|c| ConnPlan {
                addr,
                source: warm_source,
                first: c,
                stride: fg_conns,
                pace: Pace::Open { at_ns: vec![0; warm_count / fg_conns] },
                keep_body: &keep_none,
            })
            .collect();
        for result in drive(&warm_plans, Instant::now(), u64::MAX, None) {
            match result {
                Ok(samples) => {
                    out.attempted += samples.len() as u64;
                    for s in samples.iter().filter(|s| s.status != 200) {
                        out.fail(format!("warm-up request {} got status {}", s.index, s.status));
                    }
                }
                Err(e) => out.fail(e),
            }
        }
        drop(warm_plans);
        if let Foreground::Stream(stream) = &mut foreground {
            stream.base = warm_count / fg_conns * fg_conns;
        }
        let before = LayerCounters::read(&cluster);

        // The timed phase.
        let verify_one_in = workload.verify_one_in();
        let seed = self.seed;
        let sampled =
            move |index: usize| mix(seed, phase_id, index as u64).is_multiple_of(verify_one_in);
        let bg_sampled =
            move |index: usize| mix(seed, phase_id + 2000, index as u64).is_multiple_of(16);
        let keep: &(dyn Fn(usize) -> bool + Sync) =
            if workload == Workload::StreamOpen { &keep_all } else { &sampled };
        let mut plans: Vec<ConnPlan<'_>> = (0..fg_conns)
            .map(|c| ConnPlan {
                addr,
                source: foreground.source(),
                first: c,
                stride: fg_conns,
                pace: match kind {
                    PhaseKind::Saturation => Pace::Closed { in_flight: PIPELINE },
                    _ => Pace::Open {
                        at_ns: schedule.iter().copied().skip(c).step_by(fg_conns).collect(),
                    },
                },
                keep_body: keep,
            })
            .collect();
        let t0 = Instant::now() + Duration::from_millis(20);
        let background = (workload == Workload::MixedOps).then(|| BackgroundSource {
            explain: RowSource::new(
                self.fixture,
                "/shap/explain",
                true,
                self.seed,
                phase_id + 2000,
            ),
            t0,
            // A service host has no /metrics: the direct run does not scrape.
            next_scrape_ns: AtomicU64::new(if direct { u64::MAX } else { 1_000_000_000 }),
            scrapes: Mutex::new(Vec::new()),
        });
        if let Some(bg) = &background {
            plans.push(ConnPlan {
                addr: if direct { cluster.host_addr("shap") } else { addr },
                source: bg,
                first: 0,
                stride: 1,
                pace: Pace::Closed { in_flight: 1 },
                keep_body: &bg_sampled,
            });
        }
        let recording = tracing.and_then(|(tracer, run)| run.map(|run| (tracer, run)));
        if let Some((tracer, run)) = recording {
            tracer.set_run(Some(run));
        }
        let model_ns = |tracer: &Tracer| tracer.model_ns.load(Ordering::Relaxed);
        let model_ns_before = recording.map_or(0, |(t, _)| model_ns(t));
        let mut results = drive(&plans, t0, span_ns, recording.map(|(t, _)| &**t));
        if let Some((tracer, _)) = recording {
            tracer.set_run(None);
            out.model_ns = model_ns(tracer) - model_ns_before;
        }
        drop(plans);

        if let Some(bg) = &background {
            self.collect_background(bg, results.pop().expect("one result per plan"), &mut out);
        }
        let mut samples: Vec<Sample> = Vec::new();
        for result in results {
            match result {
                Ok(s) => samples.extend(s),
                Err(e) => out.fail(e),
            }
        }
        samples.sort_by_key(|s| s.index);
        out.attempted += samples.len() as u64;
        for s in &samples {
            out.lag_ns.push(s.lag_ns);
            out.shed += u64::from(matches!(s.status, 429 | 503));
            let Some(done_ns) = s.done_ns.filter(|_| s.status == 200) else {
                out.fail(format!("{} request {} got status {}", kind.name(), s.index, s.status));
                continue;
            };
            let ms = (done_ns - s.sched_ns) as f64 / 1e6;
            out.ack_ms.push(ms);
            if workload != Workload::StreamOpen {
                out.latency_ms.push((s.sched_ns, ms));
            }
            out.within_limit += u64::from(ms <= workload.limit_ms());
            out.done_ns.push(done_ns);
        }

        // The correctness gate, off the clock.
        match &foreground {
            Foreground::Stream(source) => {
                let (service, _) = cluster.stream.as_ref().expect("stream topology");
                let checked = verify::stream(source, &samples, service, &mut out.latency_ms);
                out.verified += checked.verified;
                checked.errors.into_iter().for_each(|e| out.fail(e));
                out.stale_dropped = service.summary().stale_dropped;
                (out.detect_delay_events, out.drift_detected) = checked.detect_delay_events;
            }
            Foreground::Rows(rows) => {
                for s in &samples {
                    let Some(body) = &s.body else { continue };
                    out.verified += 1;
                    let features = rows.features(s.index);
                    let checked = if explain {
                        verify::explain(self.fixture, &features, body)
                    } else {
                        verify::predict(self.fixture, &features, body)
                    };
                    if let Err(e) = checked {
                        out.fail(format!("{} request {}: {e}", kind.name(), s.index));
                    }
                }
            }
        }

        out.layers = LayerCounters::read(&cluster).since(&before);
        let registry = cluster.gateway.metrics_registry();
        let encode_started = Instant::now();
        let encoded = registry.encode();
        out.layers.registry_encode_us = encode_started.elapsed().as_secs_f64() * 1e6;
        std::hint::black_box(encoded);
        out.layers.registry_series =
            registry.snapshot().iter().map(|family| family.series.len() as u64).sum();
        out
    }

    /// Folds the operator connection of `mixed_ops` into the outcome.
    fn collect_background(
        &self,
        bg: &BackgroundSource,
        result: Result<Vec<Sample>, String>,
        out: &mut PhaseOutcome,
    ) {
        let samples = match result {
            Ok(samples) => samples,
            Err(e) => return out.fail(e),
        };
        let scrapes = bg.scrapes.lock().expect("no panic while held").clone();
        out.attempted += samples.len() as u64;
        for s in &samples {
            let scrape = scrapes.contains(&s.index);
            if s.status != 200 {
                out.fail(format!("background request {} got status {}", s.index, s.status));
            } else if scrape {
                out.bg_scrapes += 1;
            } else if s.done_ns.is_some_and(|done| done <= out.span_ns) {
                out.bg_explains += 1;
            }
            if let (false, Some(body)) = (scrape, &s.body) {
                out.verified += 1;
                if let Err(e) = verify::explain(self.fixture, &bg.explain.features(s.index), body) {
                    out.fail(format!("background explain {}: {e}", s.index));
                }
            }
        }
    }
}
