//! Isolated layer probes: fixed-iteration, single-threaded timings of each
//! layer's public functions on the fixture's own inputs. They say what a layer
//! costs when nothing contends with it; the spans say what it costs in a run.

use crate::fixture::{shap_config, Fixture, EXPLAIN_CLASS, N_FEATURES, SERVICE_VCPUS};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{encode_event, StreamSource};
use spatial_core::drift::{DriftDetector, PageHinkley};
use spatial_core::stream::{StreamPipeline, StreamPipelineConfig};
use spatial_data::ingest::IngestRing;
use spatial_data::stream::{QualityControl, SensorFusion, WindowExtractor, WindowOutcome};
use spatial_gateway::http::{read_response_buffered, Request, Response};
use spatial_gateway::services::ServingService;
use spatial_gateway::wire::{from_json, to_json, ExplainRequest, ExplainResponse};
use spatial_gateway::{BatcherConfig, MicroBatcher, Microservice, PooledClient, ReactorServer};
use spatial_linalg::Matrix;
use spatial_ml::online::OnlineEnsemble;
use spatial_ml::{Model, ModelStore};
use spatial_xai::shap::KernelShap;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Median over `iterations` individually timed calls, in microseconds. For
/// calls long enough (≥ 10 µs) that two clock reads do not matter.
fn median_us(iterations: usize, mut call: impl FnMut(usize)) -> f64 {
    let samples = (0..iterations)
        .map(|i| {
            let started = Instant::now();
            call(i);
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(samples)
}

/// Mean over one timed loop of `iterations` calls, in nanoseconds. For calls
/// too short to time one by one.
fn mean_ns(iterations: usize, mut call: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    for i in 0..iterations {
        call(i);
    }
    started.elapsed().as_secs_f64() * 1e9 / iterations as f64
}

fn predict_body(row: &[f64]) -> Vec<u8> {
    let values: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
    format!("{{\"features\":[{}]}}", values.join(",")).into_bytes()
}

/// Runs every probe; returns `(metric name, value)` pairs.
pub fn run(fixture: &Fixture, seed: u64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let test = &fixture.test.features;
    let row = |i: usize| test.row(i % test.rows());
    let forest: Arc<dyn Model> = fixture.forest.clone();

    // gateway::client + gateway::reactor + gateway::http -----------------------
    {
        let server = ReactorServer::spawn(|_: Request| Response::json(b"{}".to_vec()))
            .expect("bind the probe server");
        let client = PooledClient::new();
        let body = predict_body(row(0));
        let timeout = Duration::from_secs(5);
        out.push((
            "client.exchange_us",
            median_us(25, |_| {
                let response =
                    client.request(server.addr(), "POST", "/echo", &[], &[], &body, timeout);
                assert_eq!(black_box(response).expect("probe exchange").status, 200);
            }),
        ));
        let answer = "{\"class\":1,\"confidence\":0.98,\"version\":1,\"degraded\":false,\"model\":\"random-forest\"}";
        let canned = format!(
            "HTTP/1.1 200 OK\r\ncontent-length: {}\r\ncontent-type: application/json\r\nconnection: keep-alive\r\n\r\n{answer}",
            answer.len()
        )
        .into_bytes();
        out.push((
            "http.response_parse_ns",
            mean_ns(20_000, |_| {
                let mut reader = &canned[..];
                black_box(read_response_buffered(&mut reader).expect("canned response parses"));
            }),
        ));
    }

    // gateway::batch ---------------------------------------------------------------
    {
        let batcher = MicroBatcher::new(BatcherConfig::default(), |inputs: &[u64]| inputs.to_vec());
        out.push((
            "batch.submit_overhead_us",
            median_us(400, |i| {
                black_box(batcher.submit(i as u64));
            }),
        ));
    }

    // gateway::services::serving + ml::store + linalg::matrix -----------------------
    {
        let store = Arc::new(
            ModelStore::with_majority_fallback(&fixture.train, 4).expect("non-empty training set"),
        );
        store.promote(Arc::clone(&forest), 0, 1.0, "probe");
        let service = ServingService::new(Arc::clone(&store), N_FEATURES, SERVICE_VCPUS);
        let bodies: Vec<Vec<u8>> = (0..64).map(|i| predict_body(row(i))).collect();
        out.push((
            "serving.handle_direct_us",
            median_us(400, |i| {
                black_box(
                    service.handle("/predict", &bodies[i % bodies.len()]).expect("probe predict"),
                );
            }),
        ));
        out.push((
            "store.serving_ns",
            mean_ns(200_000, |_| {
                black_box(store.serving());
            }),
        ));
        let rows: Vec<Vec<f64>> = (0..32).map(|i| row(i).to_vec()).collect();
        out.push((
            "matrix.from_row_vecs_ns",
            mean_ns(5_000, |_| {
                black_box(Matrix::from_row_vecs(black_box(&rows).clone()));
            }),
        ));
    }

    // ml::forest -----------------------------------------------------------------------
    {
        out.push((
            "forest.predict_row_us",
            mean_ns(4_000, |i| {
                black_box(fixture.forest.predict_proba(black_box(row(i))));
            }) / 1e3,
        ));
        let batch = Matrix::from_row_vecs((0..256).map(|i| row(i).to_vec()).collect());
        out.push((
            "forest.predict_batch_row_us",
            median_us(12, |_| {
                black_box(fixture.forest.predict_proba_batch(black_box(&batch)));
            }) / 256.0,
        ));
    }

    // gateway::wire ------------------------------------------------------------------
    {
        let request = to_json(&ExplainRequest { features: row(0).to_vec(), class: EXPLAIN_CLASS });
        out.push((
            "wire.explain_decode_ns",
            mean_ns(3_000, |_| {
                black_box(from_json::<ExplainRequest>(black_box(&request)).expect("probe decode"));
            }),
        ));
        let response = ExplainResponse {
            method: "kernel-shap".into(),
            values: row(1).iter().map(|v| v / 977.0).collect(),
            base_value: 0.1234567890123,
            prediction: 0.9876543210987,
        };
        out.push((
            "wire.explain_encode_ns",
            mean_ns(3_000, |_| {
                black_box(to_json(black_box(&response)));
            }),
        ));
    }

    // xai::shap + parallel::pool -------------------------------------------------------
    {
        let tracer = Arc::new(Tracer::new());
        let counted = crate::fixture::traced_model(Arc::clone(&forest), &tracer);
        let shap = KernelShap::new(
            counted.as_ref(),
            &fixture.train.features,
            fixture.train.feature_names.clone(),
            shap_config(),
        );
        const EXPLAINS: usize = 12;
        let pool = spatial_parallel::global();
        let jobs_before = pool.jobs_total() + pool.inline_jobs_total();
        tracer.set_run(Some("probe"));
        let started = Instant::now();
        let explain_us = median_us(EXPLAINS, |i| {
            black_box(spatial_parallel::run_inline(|| shap.explain(row(i), EXPLAIN_CLASS)));
        });
        let total_ns = started.elapsed().as_nanos() as f64;
        tracer.set_run(None);
        let per = |total: u64| total as f64 / EXPLAINS as f64;
        out.push(("shap.explain_us", explain_us));
        out.push(("shap.model_calls_per_explain", per(tracer.model_calls.load(Ordering::Relaxed))));
        out.push(("shap.model_rows_per_explain", per(tracer.model_rows.load(Ordering::Relaxed))));
        out.push(("shap.model_share", tracer.model_ns.load(Ordering::Relaxed) as f64 / total_ns));
        out.push((
            "pool.jobs_per_explain",
            per(pool.jobs_total() + pool.inline_jobs_total() - jobs_before),
        ));
        out.push((
            "pool.par_map_overhead_us",
            median_us(400, |_| {
                black_box(pool.par_map_indexed(2, |i| i));
            }),
        ));
    }

    // core::stream + core::drift + data::stream + data::ingest + ml::online -----------
    {
        const EVENTS: usize = 8_000;
        let in_order = StreamSource::new(seed, 0x9806, EVENTS);
        let mut sorted = in_order.events.clone();
        sorted.sort_by_key(|e| e.seq);

        let mut pipeline = StreamPipeline::new(StreamPipelineConfig::default());
        out.push((
            "pipeline.offer_us",
            mean_ns(EVENTS, |i| {
                black_box(pipeline.offer(sorted[i].clone()));
            }) / 1e3,
        ));
        let mut pipeline = StreamPipeline::new(StreamPipelineConfig::default());
        let mut pending_max = 0;
        out.push((
            "pipeline.offer_reordered_us",
            mean_ns(EVENTS, |i| {
                black_box(pipeline.offer(in_order.events[i].clone()));
                pending_max = pending_max.max(pipeline.pending_len());
            }) / 1e3,
        ));
        out.push(("pipeline.pending_max", pending_max as f64));

        let mut detector = PageHinkley::new(StreamPipelineConfig::default().drift);
        out.push((
            "detector.update_ns",
            mean_ns(200_000, |i| {
                black_box(detector.update(f64::from(u8::from(i % 7 == 0))));
            }),
        ));

        let ring = IngestRing::new(16);
        out.push((
            "ring.push_pop_ns",
            mean_ns(100_000, |i| {
                ring.try_push(sorted[i % EVENTS].clone()).expect("the ring has room");
                black_box(ring.pop());
            }),
        ));
        let ring = IngestRing::new(16);
        std::thread::scope(|scope| {
            scope.spawn(|| sorted.iter().for_each(|e| ring.push_blocking(e.clone())));
            let mut taken = 0;
            while taken < EVENTS {
                match ring.pop() {
                    Some(event) => {
                        black_box(event);
                        taken += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
        });
        out.push(("ring.backpressure_spins", ring.stats().backpressure_spins() as f64));

        // The pipeline's stages one at a time, each fed what the stage before
        // it produced (collected untimed).
        let config = StreamPipelineConfig::default();
        let mut qc = QualityControl::new(config.n_streams, config.qc.clone());
        out.push((
            "qc.admit_ns",
            mean_ns(EVENTS, |i| {
                black_box(qc.admit(sorted[i].stream, &sorted[i].values));
            }),
        ));
        let mut windows = WindowExtractor::new(config.n_streams, config.window.clone());
        let mut features = Vec::new();
        out.push((
            "window.push_ns",
            mean_ns(EVENTS, |i| {
                if let WindowOutcome::Features { features: f, .. } =
                    windows.push(sorted[i].stream, &sorted[i].values)
                {
                    features.push((sorted[i].stream, f, sorted[i].label.unwrap_or(0)));
                }
            }),
        ));
        let mut fusion = SensorFusion::new(config.n_streams);
        let mut fused = Vec::new();
        let inputs = features.clone();
        let mut inputs = inputs.into_iter();
        out.push((
            "fusion.update_ns",
            mean_ns(features.len(), |_| {
                let (stream, f, label) = inputs.next().expect("one input per iteration");
                if let Some(v) = fusion.update(stream, f) {
                    fused.push((v, label));
                }
            }),
        ));
        let n_features = config.n_streams * WindowExtractor::n_features(config.n_channels);
        let mut ensemble = OnlineEnsemble::new(n_features, config.n_classes);
        out.push((
            "ensemble.prequential_us",
            mean_ns(fused.len(), |i| {
                black_box(ensemble.prequential(&fused[i].0, fused[i].1));
            }) / 1e3,
        ));
        out.push((
            "ensemble.predict_us",
            mean_ns(fused.len(), |i| {
                black_box(ensemble.predict(&fused[i].0));
            }) / 1e3,
        ));

        // The generator's own event encoder, so its cost is on record too.
        let mut buffer = Vec::with_capacity(128);
        out.push((
            "gen.encode_event_ns",
            mean_ns(EVENTS, |i| {
                buffer.clear();
                encode_event(&sorted[i], &mut buffer);
                black_box(&buffer);
            }),
        ));
    }
    out
}
