//! Integration: the full micro-service cluster — all five paper services behind the
//! API gateway, exercised over real HTTP, including load and saturation behaviour.

use rand::Rng;
use spatial::data::Dataset;
use spatial::gateway::http::request;
use spatial::gateway::loadgen::{run, ThreadGroup};
use spatial::gateway::services::{
    ImpactService, LimeService, OcclusionService, PipelineService, ShapService,
};
use spatial::gateway::wire::*;
use spatial::gateway::{ApiGateway, ServiceHost};
use spatial::linalg::{rng, Matrix};
use spatial::ml::mlp::{MlpClassifier, MlpConfig};
use spatial::ml::tree::DecisionTree;
use spatial::ml::{Model, TrainError};
use spatial::xai::lime::LimeConfig;
use spatial::xai::lime_image::LimeImageConfig;
use spatial::xai::occlusion::OcclusionConfig;
use spatial::xai::shap::ShapConfig;
use std::sync::Arc;
use std::time::Duration;

/// A deterministic image model for the vision services.
struct BrightCenter;

impl Model for BrightCenter {
    fn name(&self) -> &str {
        "bright-center"
    }
    fn n_classes(&self) -> usize {
        2
    }
    fn fit(&mut self, _: &Dataset) -> Result<(), TrainError> {
        Ok(())
    }
    fn predict_proba(&self, pixels: &[f64]) -> Vec<f64> {
        let side = (pixels.len() as f64).sqrt() as usize;
        let p = pixels[(side / 2) * side + side / 2].clamp(0.0, 1.0);
        vec![1.0 - p, p]
    }
}

fn tabular_fixture() -> (DecisionTree, Dataset) {
    let ds = Dataset::new(
        Matrix::from_rows(&[
            &[0.0, 1.0],
            &[1.0, 1.0],
            &[0.1, -1.0],
            &[0.9, -1.0],
            &[0.2, 0.5],
            &[0.8, -0.5],
        ]),
        vec![0, 1, 0, 1, 0, 1],
        vec!["signal".into(), "noise".into()],
        vec!["a".into(), "b".into()],
    );
    let mut dt = DecisionTree::new();
    dt.fit(&ds).unwrap();
    (dt, ds)
}

fn gradient_fixture() -> (MlpClassifier, Dataset) {
    let mut r = rng::seeded(2);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..120 {
        let label = r.random_range(0..2usize);
        rows.push(vec![
            label as f64 * 2.0 - 1.0 + rng::normal(&mut r, 0.0, 0.4),
            rng::normal(&mut r, 0.0, 0.4),
        ]);
        labels.push(label);
    }
    let ds = Dataset::new(
        Matrix::from_row_vecs(rows),
        labels,
        vec!["x".into(), "y".into()],
        vec!["a".into(), "b".into()],
    );
    let mut nn = MlpClassifier::with_config(MlpConfig {
        hidden: vec![12],
        epochs: 60,
        batch_size: 16,
        learning_rate: 5e-3,
        ..MlpConfig::default()
    });
    nn.fit(&ds).unwrap();
    (nn, ds)
}

/// Spins up the full paper deployment: five services + gateway.
fn full_cluster() -> (ApiGateway, Vec<ServiceHost>, Dataset, Dataset) {
    let (dt, tab_ds) = tabular_fixture();
    let dt = Arc::new(dt);
    let (nn, grad_ds) = gradient_fixture();

    let shap = ServiceHost::spawn(
        Arc::new(ShapService::new(
            Arc::clone(&dt) as Arc<dyn Model>,
            tab_ds.features.clone(),
            tab_ds.feature_names.clone(),
            ShapConfig { n_coalitions: 64, ..ShapConfig::default() },
            4,
        )),
        64,
    )
    .unwrap();
    let lime = ServiceHost::spawn(
        Arc::new(
            LimeService::new(
                Arc::clone(&dt) as Arc<dyn Model>,
                tab_ds.features.clone(),
                tab_ds.feature_names.clone(),
                LimeConfig { n_samples: 64, ..LimeConfig::default() },
                4,
            )
            .with_image_model(
                Arc::new(BrightCenter),
                LimeImageConfig { n_samples: 32, ..LimeImageConfig::default() },
            ),
        ),
        64,
    )
    .unwrap();
    let occlusion = ServiceHost::spawn(
        Arc::new(OcclusionService::new(
            Arc::new(BrightCenter),
            OcclusionConfig { patch: 4, stride: 4, fill: 0.0 },
            4,
        )),
        64,
    )
    .unwrap();
    let impact = ServiceHost::spawn(
        Arc::new(ImpactService::new(
            Arc::new(nn),
            grad_ds.feature_names.clone(),
            grad_ds.class_names.clone(),
            8,
        )),
        64,
    )
    .unwrap();
    let pipeline = ServiceHost::spawn(Arc::new(PipelineService::new(8)), 64).unwrap();

    let gw = ApiGateway::spawn(Duration::from_secs(60)).unwrap();
    for host in [&shap, &lime, &occlusion, &impact, &pipeline] {
        gw.register(host.name(), host.addr());
    }
    (gw, vec![shap, lime, occlusion, impact, pipeline], tab_ds, grad_ds)
}

#[test]
fn every_service_answers_through_the_gateway() {
    let (gw, _hosts, tab_ds, grad_ds) = full_cluster();
    let t = Duration::from_secs(60);

    // SHAP.
    let body = to_json(&ExplainRequest { features: vec![0.9, 1.0], class: 1 });
    let r = request(gw.addr(), "POST", "/shap/explain", &body, t).unwrap();
    assert_eq!(r.status, 200, "shap: {}", String::from_utf8_lossy(&r.body));
    let shap_out: ExplainResponse = from_json(&r.body).unwrap();
    assert_eq!(shap_out.values.len(), tab_ds.n_features());

    // LIME tabular.
    let r = request(gw.addr(), "POST", "/lime/explain", &body, t).unwrap();
    assert_eq!(r.status, 200);

    // LIME image.
    let mut pixels = vec![0.1; 256];
    pixels[8 * 16 + 8] = 1.0;
    let img_body = to_json(&ExplainImageRequest { side: 16, pixels: pixels.clone(), class: 1 });
    let r = request(gw.addr(), "POST", "/lime/explain-image", &img_body, t).unwrap();
    assert_eq!(r.status, 200, "lime-image: {}", String::from_utf8_lossy(&r.body));

    // Occlusion.
    let r = request(gw.addr(), "POST", "/occlusion/explain-image", &img_body, t).unwrap();
    assert_eq!(r.status, 200);
    let occ: OcclusionResponse = from_json(&r.body).unwrap();
    assert_eq!(occ.drops.len(), occ.cols * occ.cols);

    // Impact.
    let imp_body = to_json(&ImpactRequest {
        features: grad_ds.features.as_slice().to_vec(),
        rows: grad_ds.n_samples(),
        labels: grad_ds.labels.clone(),
        epsilon: 1.0,
    });
    let r = request(gw.addr(), "POST", "/impact/evasion", &imp_body, t).unwrap();
    assert_eq!(r.status, 200, "impact: {}", String::from_utf8_lossy(&r.body));
    let imp: ImpactResponse = from_json(&r.body).unwrap();
    assert!(imp.impact > 0.0);

    // Pipeline.
    let csv = spatial::data::csv::to_csv(&tab_ds);
    let train_body =
        to_json(&TrainRequest { csv, model: "decision-tree".into(), train_fraction: 0.7, seed: 1 });
    let r = request(gw.addr(), "POST", "/pipeline/train", &train_body, t).unwrap();
    assert_eq!(r.status, 200, "pipeline: {}", String::from_utf8_lossy(&r.body));

    // All five routes healthy.
    for route in ["shap", "lime", "occlusion", "impact", "pipeline"] {
        assert_eq!(gw.health_check(route), (1, 1), "{route}");
    }
}

#[test]
fn concurrent_load_through_the_gateway_succeeds() {
    let (gw, _hosts, _tab, _grad) = full_cluster();
    let body = to_json(&ExplainRequest { features: vec![0.5, 0.5], class: 0 });
    let result = run(
        gw.addr(),
        "POST",
        "/shap/explain",
        &body,
        &ThreadGroup {
            threads: 8,
            requests_per_thread: 4,
            ramp_up: Duration::from_millis(200),
            timeout: Duration::from_secs(60),
            headers: Vec::new(),
        },
    );
    assert_eq!(result.summary.samples, 32);
    assert_eq!(result.summary.errors, 0, "no request should fail under mild load");
    let gw_summary = gw.route_summary("shap").unwrap();
    assert_eq!(gw_summary.samples, 32);
}

#[test]
fn forwarded_requests_do_not_wait_for_a_delayed_ack() {
    // Regression: the gateway→service hop wrote head and body separately on a
    // socket without TCP_NODELAY, so every forwarded request after a pooled
    // connection's first waited out the upstream's ~40 ms delayed ACK
    // (19 × 44 ms here). The same budget as the pooled client's own test.
    let host = ServiceHost::spawn(Arc::new(PipelineService::new(2)), 16).unwrap();
    let gw = ApiGateway::spawn(Duration::from_secs(5)).unwrap();
    gw.register(host.name(), host.addr());
    // A 3 KB body the service rejects right after reading it: the exchange is
    // the cost, not the handler.
    let body = vec![b'x'; 3 << 10];
    let start = std::time::Instant::now();
    for _ in 0..20 {
        let resp =
            request(gw.addr(), "POST", "/pipeline/train", &body, Duration::from_secs(5)).unwrap();
        assert_eq!(resp.status, 400, "{}", String::from_utf8_lossy(&resp.body));
    }
    let elapsed = start.elapsed();
    assert_eq!(gw.upstream_pool_stats().connects, 1, "the hop must reuse one pooled connection");
    assert!(
        elapsed < Duration::from_millis(400),
        "20 forwarded requests took {elapsed:?}: a timer is back on the request path"
    );
}

#[test]
fn gateway_isolates_a_dead_service() {
    let (gw, mut hosts, _tab, _grad) = full_cluster();
    // Kill the occlusion service by dropping its host.
    let idx = hosts.iter().position(|h| h.name() == "occlusion").unwrap();
    hosts.remove(idx);
    std::thread::sleep(Duration::from_millis(50));

    // Occlusion requests now fail at the gateway with 502...
    let body = to_json(&ExplainImageRequest { side: 16, pixels: vec![0.0; 256], class: 0 });
    let r = request(gw.addr(), "POST", "/occlusion/explain-image", &body, Duration::from_secs(5))
        .unwrap();
    assert_eq!(r.status, 502);

    // ...while the other services keep answering.
    let ok = request(
        gw.addr(),
        "POST",
        "/shap/explain",
        &to_json(&ExplainRequest { features: vec![0.5, 0.5], class: 0 }),
        Duration::from_secs(60),
    )
    .unwrap();
    assert_eq!(ok.status, 200);
}
