//! The correctness gate: every checked response is re-derived in process from
//! the same inputs and must match exactly.

use crate::fixture::{shap_config, Fixture, EXPLAIN_CLASS};
use crate::gen::Sample;
use crate::workloads::StreamSource;
use spatial_core::stream::{StreamDecision, StreamPipeline, StreamPipelineConfig};
use spatial_core::DriftState;
use spatial_gateway::services::StreamService;
use spatial_ml::Model;
use spatial_xai::shap::KernelShap;
use std::collections::HashMap;

fn text(body: &[u8]) -> Result<&str, String> {
    std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())
}

/// `/serve/predict`: the whole body must equal what `predict_proba` on the
/// same row renders to.
pub fn predict(fixture: &Fixture, features: &[f64], body: &[u8]) -> Result<(), String> {
    let proba = fixture.forest.predict_proba(features);
    let (class, confidence) = proba
        .iter()
        .copied()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .ok_or("model produced no classes")?;
    let expected = format!(
        "{{\"class\":{class},\"confidence\":{confidence},\"version\":1,\"degraded\":false,\"model\":\"{}\"}}",
        fixture.forest.name()
    );
    if body == expected.as_bytes() {
        Ok(())
    } else {
        Err(format!("body {:?}, expected {expected:?}", String::from_utf8_lossy(body)))
    }
}

/// The number after `"key":` in a flat JSON object.
fn number(body: &str, key: &str) -> Result<f64, String> {
    let at = body.find(&format!("\"{key}\":")).ok_or_else(|| format!("no \"{key}\""))?;
    let rest = &body[at + key.len() + 3..];
    let end = rest.find([',', '}']).ok_or_else(|| format!("unterminated \"{key}\""))?;
    rest[..end].trim().parse().map_err(|_| format!("bad number for \"{key}\""))
}

/// The float array after `"key":`.
fn array(body: &str, key: &str) -> Result<Vec<f64>, String> {
    let at = body.find(&format!("\"{key}\":[")).ok_or_else(|| format!("no \"{key}\" array"))?;
    let rest = &body[at + key.len() + 4..];
    let end = rest.find(']').ok_or_else(|| format!("unterminated \"{key}\""))?;
    rest[..end]
        .split(',')
        .map(|tok| tok.trim().parse().map_err(|_| format!("bad number {tok:?} in \"{key}\"")))
        .collect()
}

/// `/shap/explain`: values, base value and prediction must be bit-equal to a
/// direct `KernelShap::explain` of the same row.
pub fn explain(fixture: &Fixture, features: &[f64], body: &[u8]) -> Result<(), String> {
    let body = text(body)?;
    let shap = KernelShap::new(
        fixture.forest.as_ref(),
        &fixture.train.features,
        fixture.train.feature_names.clone(),
        shap_config(),
    );
    let expected = spatial_parallel::run_inline(|| shap.explain(features, EXPLAIN_CLASS));
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    if bits(&array(body, "values")?) != bits(&expected.values) {
        return Err("SHAP values differ from a direct KernelShap::explain".into());
    }
    if number(body, "base_value")?.to_bits() != expected.base_value.to_bits() {
        return Err("base_value differs from a direct KernelShap::explain".into());
    }
    if number(body, "prediction")?.to_bits() != expected.prediction.to_bits() {
        return Err("prediction differs from a direct KernelShap::explain".into());
    }
    Ok(())
}

fn render_decision(d: &StreamDecision) -> String {
    format!(
        "{{\"seq\":{},\"class\":{},\"proba\":{},\"confidence\":{},\"drift\":\"{}\"}}",
        d.seq,
        d.class,
        d.proba,
        d.confidence,
        d.drift.name()
    )
}

/// The `{...}` decision objects inside a `/serve/stream` response, with their `seq`.
fn decisions_in(body: &str) -> Result<Vec<(u64, &str)>, String> {
    let at = body.find("\"decisions\":[").ok_or("no \"decisions\" array")?;
    let mut rest = &body[at + 13..];
    let mut found = Vec::new();
    while let Some(open) = rest.find('{') {
        let close = rest[open..].find('}').ok_or("unterminated decision")? + open;
        let object = &rest[open..=close];
        found.push((number(object, "seq")? as u64, object));
        rest = &rest[close + 1..];
    }
    Ok(found)
}

pub struct StreamCheck {
    pub verified: u64,
    pub errors: Vec<String>,
    /// Events from the injected drift to the `Drifting` transition and `true`,
    /// or the events released after the drift and `false` if it never came.
    pub detect_delay_events: (u64, bool),
}

/// `/serve/stream`: the service's full decision log, and every decision carried
/// by a response, must equal what an in-process `StreamPipeline` produces when
/// fed the same events in `seq` order. Also fills `latency_ms` with decision
/// latency: scheduled send of the event whose window completed → receipt of the
/// response that carried the decision.
pub fn stream(
    source: &StreamSource,
    samples: &[Sample],
    service: &StreamService,
    latency_ms: &mut Vec<(u64, f64)>,
) -> StreamCheck {
    let mut check =
        StreamCheck { verified: 0, errors: Vec::new(), detect_delay_events: (0, false) };
    // Everything that was sent: the warm-up, then the timed requests.
    let mut sent: Vec<&spatial_data::ingest::StreamEvent> =
        source.events[..source.base].iter().collect();
    sent.extend(samples.iter().map(|s| &source.events[source.base + s.index]));
    sent.sort_by_key(|e| e.seq);
    let mut reference = StreamPipeline::new(StreamPipelineConfig::default());
    let expected: Vec<StreamDecision> =
        sent.into_iter().flat_map(|e| reference.offer(e.clone())).collect();

    let log = service.decisions();
    check.verified += expected.len() as u64;
    if log != expected {
        check.errors.push(format!(
            "decision log differs from the in-order reference ({} vs {} decisions)",
            log.len(),
            expected.len()
        ));
    }
    if service.transitions() != reference.transitions() {
        check.errors.push("drift transitions differ from the in-order reference".into());
    }
    check.detect_delay_events = reference
        .transitions()
        .iter()
        .find(|(seq, state)| *state == DriftState::Drifting && *seq >= source.drift_at)
        .map_or((reference.summary().events.saturating_sub(source.drift_at), false), |(seq, _)| {
            (seq - source.drift_at, true)
        });

    // Responses: each carried decision must be the reference one, byte for byte.
    let by_seq: HashMap<u64, String> =
        expected.iter().map(|d| (d.seq, render_decision(d))).collect();
    let by_index: HashMap<usize, &Sample> = samples.iter().map(|s| (s.index, s)).collect();
    for sample in samples {
        let (Some(done_ns), Some(body)) = (sample.done_ns, &sample.body) else { continue };
        let decisions = match text(body).and_then(decisions_in) {
            Ok(decisions) => decisions,
            Err(e) => {
                check.errors.push(format!("stream response {}: {e}", sample.index));
                continue;
            }
        };
        for (seq, object) in decisions {
            if by_seq.get(&seq).map(String::as_str) != Some(object) {
                check.errors.push(format!(
                    "decision {seq} in response {} is not the reference one",
                    sample.index
                ));
            }
            // Warm-up events have no scheduled send; their decisions are not timed.
            let request = source.request_of[seq as usize];
            if let Some(origin) = request.checked_sub(source.base).and_then(|i| by_index.get(&i)) {
                latency_ms
                    .push((origin.sched_ns, done_ns.saturating_sub(origin.sched_ns) as f64 / 1e6));
            }
        }
    }
    check
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_numbers_arrays_and_decisions_out_of_flat_json() {
        let body =
            r#"{"method":"kernel-shap","values":[0.5,-1e-3, 2],"base_value":0.25,"prediction":1}"#;
        assert_eq!(array(body, "values").unwrap(), vec![0.5, -1e-3, 2.0]);
        assert_eq!(number(body, "base_value").unwrap(), 0.25);
        assert_eq!(number(body, "prediction").unwrap(), 1.0);
        assert!(number(body, "missing").is_err());

        let body = r#"{"seq":9,"decisions":[{"seq":7,"class":1,"proba":0.9,"confidence":1,"drift":"stable"},{"seq":9,"class":0,"proba":0.6,"confidence":0.8,"drift":"warning"}]}"#;
        let found = decisions_in(body).unwrap();
        assert_eq!(found.iter().map(|(seq, _)| *seq).collect::<Vec<_>>(), vec![7, 9]);
        assert!(found[1].1.ends_with("\"drift\":\"warning\"}"));
        assert!(decisions_in(r#"{"seq":1,"decisions":[]}"#).unwrap().is_empty());
    }
}
