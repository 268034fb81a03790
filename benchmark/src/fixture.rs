//! The common fixture: UC1 fall-detection data, the promoted forest, and the
//! in-process cluster (gateway → pooled client → service host → service) with
//! every knob at its default.

use crate::trace::Tracer;
use spatial_core::stream::StreamPipelineConfig;
use spatial_data::unimib::{self, Representation, UnimibConfig};
use spatial_data::Dataset;
use spatial_gateway::services::{ServingService, ShapService, StreamService};
use spatial_gateway::{
    ApiGateway, BatchStats, GatewayConfig, Microservice, ServiceError, ServiceHost,
};
use spatial_linalg::Matrix;
use spatial_ml::forest::RandomForest;
use spatial_ml::{Model, ModelStore, TrainError};
use spatial_xai::shap::ShapConfig;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::Arc;

/// Seed of the dataset and the forest. A constant, not `--seed`: tree shapes,
/// and with them the cost of a prediction (±20 % between seeds) and of an
/// explanation, depend on the data, and the driver compares runs made with
/// different seeds. `--seed` drives everything the generator sends instead.
pub const FIXTURE_SEED: u64 = 7;
const WINDOWS: usize = 2000;
pub const N_FEATURES: usize = 151;
const FOREST_TREES: usize = 50;
/// The paper's vCPU allocation for a service (Fig. 8 deployment).
pub const SERVICE_VCPUS: usize = 4;
/// Waiting slots per service host: above the 2 × 16 requests the generator
/// keeps in flight, so a correct run never meets the 503 saturation envelope.
pub const QUEUE_DEPTH: usize = 64;
/// The class every explain request attributes (`1` = fall).
pub const EXPLAIN_CLASS: usize = 1;

pub fn shap_config() -> ShapConfig {
    ShapConfig { n_coalitions: 256, background_limit: 8, ..ShapConfig::default() }
}

/// One test row, pre-rendered so building a request costs a copy and a few
/// float prints instead of 151.
pub struct RenderedRow {
    pub values: Vec<f64>,
    /// `v0,v1,...` as the program will parse it.
    pub text: String,
    /// Byte range of each value inside `text`.
    pub ranges: Vec<(usize, usize)>,
}

impl RenderedRow {
    fn new(values: &[f64]) -> Self {
        let mut text = String::with_capacity(values.len() * 20);
        let mut ranges = Vec::with_capacity(values.len());
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                text.push(',');
            }
            let start = text.len();
            write!(text, "{v}").expect("writing to a String cannot fail");
            ranges.push((start, text.len()));
        }
        Self { values: values.to_vec(), text, ranges }
    }
}

/// Seeded data and the model trained on it.
pub struct Fixture {
    pub train: Dataset,
    pub test: Dataset,
    pub forest: Arc<RandomForest>,
    /// The test rows every request source draws from.
    pub rendered_test: Arc<Vec<RenderedRow>>,
}

impl Fixture {
    pub fn build() -> Self {
        let raw = unimib::generate_raw(
            &UnimibConfig { samples: WINDOWS, seed: FIXTURE_SEED, ..UnimibConfig::default() },
            Representation::Magnitude,
        );
        let (train, test) = unimib::binarize_falls(&raw).split(0.75, FIXTURE_SEED);
        assert_eq!(train.n_features(), N_FEATURES, "UC1 magnitude windows have 151 features");
        let mut forest = RandomForest::with_trees(FOREST_TREES);
        forest.fit(&train).expect("the seeded UC1 set has both classes");
        let rendered_test = Arc::new(test.features.iter_rows().map(RenderedRow::new).collect());
        Self { train, test, forest: Arc::new(forest), rendered_test }
    }
}

/// Delegating `Model` that reports every call to the tracer.
struct TracedModel {
    inner: Arc<dyn Model>,
    tracer: Arc<Tracer>,
}

impl Model for TracedModel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn n_classes(&self) -> usize {
        self.inner.n_classes()
    }

    fn fit(&mut self, _: &Dataset) -> Result<(), TrainError> {
        Err(TrainError::InvalidConfig("the traced wrapper serves an already fitted model".into()))
    }

    fn predict_proba(&self, features: &[f64]) -> Vec<f64> {
        self.tracer.in_model(1, false, || self.inner.predict_proba(features))
    }

    fn predict_proba_batch(&self, features: &Matrix) -> Matrix {
        self.tracer
            .in_model(features.rows() as u64, true, || self.inner.predict_proba_batch(features))
    }
}

/// Wraps `inner` so every call through the `Model` trait reports to `tracer`.
pub fn traced_model(inner: Arc<dyn Model>, tracer: &Arc<Tracer>) -> Arc<dyn Model> {
    Arc::new(TracedModel { inner, tracer: Arc::clone(tracer) })
}

/// Delegating `Microservice` that opens a span around each handled request.
struct TracedService {
    inner: Arc<dyn Microservice>,
    tracer: Arc<Tracer>,
    span: &'static str,
}

impl Microservice for TracedService {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn vcpus(&self) -> usize {
        self.inner.vcpus()
    }

    fn handle(&self, endpoint: &str, body: &[u8]) -> Result<Vec<u8>, ServiceError> {
        self.handle_with_headers(endpoint, body).map(|(body, _)| body)
    }

    fn handle_with_headers(
        &self,
        endpoint: &str,
        body: &[u8],
    ) -> Result<(Vec<u8>, Vec<(String, String)>), ServiceError> {
        self.tracer.in_service(self.span, body, || self.inner.handle_with_headers(endpoint, body))
    }

    fn response_headers(&self) -> Vec<(String, String)> {
        self.inner.response_headers()
    }
}

/// Which services sit behind the gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    pub serving: bool,
    pub shap: bool,
    pub stream: bool,
}

/// A running cluster. Dropping it shuts the reactors and worker pools down.
pub struct Cluster {
    pub gateway: ApiGateway,
    pub serving: Option<(Arc<ServingService>, ServiceHost)>,
    pub shap: Option<(Arc<ShapService>, ServiceHost)>,
    pub stream: Option<(Arc<StreamService>, ServiceHost)>,
}

impl Cluster {
    /// Spawns the services of `topology` and a gateway routing to them. With a
    /// tracer, the forest and every service are wrapped at their trait seams;
    /// without one the program runs exactly as shipped.
    ///
    /// `ServingService` and `StreamService` both name themselves `serve`, so
    /// they cannot share a gateway: `topology` may ask for one of the two.
    pub fn spawn(fixture: &Fixture, topology: Topology, tracer: Option<&Arc<Tracer>>) -> Self {
        assert!(!(topology.serving && topology.stream), "both services claim the `serve` prefix");
        let model: Arc<dyn Model> = match tracer {
            Some(tracer) => traced_model(fixture.forest.clone(), tracer),
            None => fixture.forest.clone(),
        };
        let gateway =
            ApiGateway::spawn_with_config(GatewayConfig::default()).expect("bind the gateway");
        let host = |service: Arc<dyn Microservice>, span: &'static str| {
            let service = match tracer {
                Some(tracer) => {
                    Arc::new(TracedService { inner: service, tracer: Arc::clone(tracer), span })
                }
                None => service,
            };
            let host = ServiceHost::spawn(service, QUEUE_DEPTH).expect("bind a service host");
            gateway.register(host.name(), host.addr());
            host
        };
        let serving = topology.serving.then(|| {
            let store = ModelStore::with_majority_fallback(&fixture.train, 4)
                .expect("the training set is not empty");
            store.promote(Arc::clone(&model), 0, 1.0, "benchmark fixture");
            let service = Arc::new(ServingService::new(Arc::new(store), N_FEATURES, SERVICE_VCPUS));
            let host = host(service.clone(), "serving.handle");
            (service, host)
        });
        let shap = topology.shap.then(|| {
            let service = Arc::new(ShapService::new(
                Arc::clone(&model),
                fixture.train.features.clone(),
                fixture.train.feature_names.clone(),
                shap_config(),
                SERVICE_VCPUS,
            ));
            let host = host(service.clone(), "shap.handle");
            (service, host)
        });
        let stream = topology.stream.then(|| {
            let service =
                Arc::new(StreamService::new(StreamPipelineConfig::default(), SERVICE_VCPUS));
            let host = host(service.clone(), "stream.handle");
            (service, host)
        });
        Self { gateway, serving, shap, stream }
    }

    /// Batch counters of the service the foreground requests go to.
    pub fn foreground_batch_stats(&self) -> &BatchStats {
        match (&self.serving, &self.shap, &self.stream) {
            (Some((service, _)), _, _) => service.batch_stats(),
            (None, Some((service, _)), _) => service.batch_stats(),
            (None, None, Some((service, _))) => service.batch_stats(),
            (None, None, None) => unreachable!("a cluster hosts at least one service"),
        }
    }

    pub fn gateway_addr(&self) -> SocketAddr {
        self.gateway.addr()
    }

    /// Address of the service host behind `prefix`, for the direct (no gateway) run.
    pub fn host_addr(&self, prefix: &str) -> SocketAddr {
        match prefix {
            "shap" => self.shap.as_ref().map(|(_, h)| h.addr()),
            _ => self
                .serving
                .as_ref()
                .map(|(_, h)| h)
                .or(self.stream.as_ref().map(|(_, h)| h))
                .map(ServiceHost::addr),
        }
        .expect("the topology has a host for the prefix")
    }
}
