//! In-memory spans, the self-time calculator, and the trace file.
//!
//! Spans are recorded only by code in this directory: the generator's
//! `client.request` root and the delegating wrappers in `fixture.rs` at the
//! `Microservice` and `Model` trait seams. Spans of one request share a trace id
//! derived from the request body, because `Microservice::handle` sees nothing
//! else; the root span's id *is* the trace id, so a wrapper can name its parent
//! without any header crossing the program.

use crate::json::Json;
use crate::stats;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub const CLIENT_REQUEST: &str = "client.request";
pub const MODEL_CALL: &str = "model.call";

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Which traced phase recorded it ("gateway" or "direct").
    pub run: &'static str,
    pub trace: u64,
    pub id: u64,
    /// Id of the span that caused this one; 0 for none.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Rows in a `model.call`; 0 elsewhere.
    pub rows: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// FNV-1a over the request body: the trace id both ends can compute.
pub fn body_hash(body: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in body {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    // 0 means "no parent"; ids below 2^32 are handed out to child spans.
    h | (1 << 63)
}

thread_local! {
    /// `(trace, span id)` of the service span open on this thread.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Span sink shared by the generator and the wrappers. Recording is off until
/// [`Tracer::set_run`] names a run, so the same cluster serves the untraced
/// comparison phase.
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    run: Mutex<&'static str>,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Totals over every call through the `Model` wrapper while enabled.
    pub model_calls: AtomicU64,
    pub model_rows: AtomicU64,
    pub model_ns: AtomicU64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            run: Mutex::new(""),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            model_calls: AtomicU64::new(0),
            model_rows: AtomicU64::new(0),
            model_ns: AtomicU64::new(0),
        }
    }

    /// Starts recording under `run`, or stops with `None`.
    pub fn set_run(&self, run: Option<&'static str>) {
        *self.run.lock().expect("no panic while held") = run.unwrap_or("");
        // SeqCst: the flag publishes the run label written just above.
        self.enabled.store(run.is_some(), Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, mut span: Span) {
        span.run = *self.run.lock().expect("no panic while held");
        self.spans.lock().expect("no panic while held").push(span);
    }

    /// Records the generator's root span for the request whose body hashes to `trace`.
    pub fn client_span(&self, trace: u64, start_ns: u64, end_ns: u64) {
        self.push(Span {
            run: "",
            trace,
            id: trace,
            parent: 0,
            name: CLIENT_REQUEST,
            start_ns,
            end_ns,
            rows: 0,
        });
    }

    /// Runs a service handler as a child of the request whose body this is.
    pub fn in_service<R>(&self, name: &'static str, body: &[u8], f: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return f();
        }
        let trace = body_hash(body);
        // Relaxed: the counter only has to hand out distinct values.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let outer = CURRENT.replace((trace, id));
        let out = f();
        CURRENT.set(outer);
        self.push(Span {
            run: "",
            trace,
            id,
            parent: trace,
            name,
            start_ns,
            end_ns: self.now_ns(),
            rows: 0,
        });
        out
    }

    /// Times one call into the model. Every call lands in the totals; only batch
    /// calls become spans (KernelSHAP makes ~2 000 single-row calls per
    /// explanation, which would drown the trace).
    pub fn in_model<R>(&self, rows: u64, as_span: bool, f: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        // Relaxed: statistics, read after the threads are quiescent.
        self.model_calls.fetch_add(1, Ordering::Relaxed);
        self.model_rows.fetch_add(rows, Ordering::Relaxed);
        self.model_ns.fetch_add(end_ns - start_ns, Ordering::Relaxed);
        if as_span {
            let (trace, parent) = CURRENT.get();
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.push(Span {
                run: "",
                trace,
                id,
                parent,
                name: MODEL_CALL,
                start_ns,
                end_ns,
                rows,
            });
        }
        out
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut self.spans.lock().expect("no panic while held"))
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its children cover. Children may overlap each other (a batch leader's model
/// call is shared) and may stick out of the parent (clock skew between threads);
/// both are handled by clipping to the parent and merging. A span whose parent
/// is absent from `spans` is a root.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let index_of: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(&parent) = index_of.get(&span.parent) {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Per-name roll-up of one run of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct NameSummary {
    pub name: &'static str,
    pub count: usize,
    pub median_us: f64,
    pub self_median_us: f64,
    /// This name's total self time over the total duration of root spans.
    pub self_share: f64,
}

pub struct RunSummary {
    pub by_name: Vec<NameSummary>,
    /// Self time of spans that hang off a `client.request` root, over the total
    /// duration of those roots: how much of the end-to-end time is attributed.
    pub attributed_share: f64,
}

impl RunSummary {
    pub fn get(&self, name: &str) -> Option<&NameSummary> {
        self.by_name.iter().find(|s| s.name == name)
    }

    pub fn median_us(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |s| s.median_us)
    }

    pub fn self_median_us(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |s| s.self_median_us)
    }
}

pub fn summarize(spans: &[Span], run: &str) -> RunSummary {
    let spans: Vec<Span> = spans.iter().filter(|s| s.run == run).cloned().collect();
    let selfs = self_times_ns(&spans);
    let ids: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    // A span is attributed when following parents reaches a client.request root.
    let reaches_root = |mut at: usize| {
        for _ in 0..8 {
            if spans[at].name == CLIENT_REQUEST {
                return true;
            }
            match ids.get(&spans[at].parent) {
                Some(&parent) => at = parent,
                None => return false,
            }
        }
        false
    };
    let mut groups: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    let (mut root_ns, mut attributed_ns) = (0u64, 0u64);
    for (i, span) in spans.iter().enumerate() {
        let entry = groups.entry(span.name).or_default();
        entry.0.push(span.duration_ns() as f64 / 1e3);
        entry.1.push(selfs[i] as f64 / 1e3);
        if span.name == CLIENT_REQUEST {
            root_ns += span.duration_ns();
        }
        // A root with no service span under it is a request the join lost.
        let joined = span.name != CLIENT_REQUEST || selfs[i] < span.duration_ns();
        if joined && reaches_root(i) {
            attributed_ns += selfs[i];
        }
    }
    let by_name = groups
        .into_iter()
        .map(|(name, (durations, selfs))| NameSummary {
            name,
            count: durations.len(),
            self_share: selfs.iter().sum::<f64>() * 1e3 / (root_ns.max(1) as f64),
            median_us: stats::median(durations),
            self_median_us: stats::median(selfs),
        })
        .collect();
    RunSummary { by_name, attributed_share: attributed_ns as f64 / root_ns.max(1) as f64 }
}

pub fn print_summary(workload: &str, spans: &[Span]) {
    for run in ["gateway", "direct"] {
        let summary = summarize(spans, run);
        if summary.by_name.is_empty() {
            continue;
        }
        println!(
            "trace {workload} [{run}]: attributed {:.1} % of client.request time",
            summary.attributed_share * 100.0
        );
        println!(
            "  {:<16} {:>8} {:>12} {:>14} {:>10}",
            "span", "count", "median_us", "self_median_us", "self_share"
        );
        for s in &summary.by_name {
            println!(
                "  {:<16} {:>8} {:>12.1} {:>14.1} {:>9.1}%",
                s.name,
                s.count,
                s.median_us,
                s.self_median_us,
                s.self_share * 100.0
            );
        }
    }
}

/// Writes the trace as JSON with one span per line, the form [`read_file`] reads.
pub fn write_file(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"workload\":{},\"seed\":{seed},\"spans\":[", Json::str(workload).render())?;
    for (i, s) in spans.iter().enumerate() {
        let line = Json::obj([
            ("run", Json::str(s.run)),
            ("name", Json::str(s.name)),
            ("trace", Json::str(format!("{:016x}", s.trace))),
            ("id", Json::str(format!("{:016x}", s.id))),
            ("parent", Json::str(format!("{:016x}", s.parent))),
            ("start_ns", Json::Int(s.start_ns as i64)),
            ("end_ns", Json::Int(s.end_ns as i64)),
            ("rows", Json::Int(s.rows as i64)),
        ]);
        let comma = if i + 1 < spans.len() { "," } else { "" };
        writeln!(out, "{}{comma}", line.render())?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

/// The text after `"key":` up to the next `,` or `}`, quotes stripped. Only for
/// the fixed-shape lines [`write_file`] emits.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[at..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim_matches('"'))
}

/// Interns a span name read from a file (there are a handful of distinct ones).
fn intern(name: &str) -> &'static str {
    static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut names = NAMES.lock().expect("no panic while held");
    match names.iter().find(|n| **n == name) {
        Some(known) => known,
        None => {
            let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
            names.push(leaked);
            leaked
        }
    }
}

pub fn read_file(path: &Path) -> std::io::Result<Vec<Span>> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut spans = Vec::new();
    for line in std::io::BufReader::new(std::fs::File::open(path)?).lines() {
        let line = line?;
        if !line.starts_with("{\"run\":") {
            continue;
        }
        let text = |key| field(&line, key).ok_or_else(|| bad("span line lacks a field"));
        let hex = |key| u64::from_str_radix(text(key)?, 16).map_err(|_| bad("bad hex id"));
        let int = |key| text(key)?.parse::<u64>().map_err(|_| bad("bad integer"));
        spans.push(Span {
            run: intern(text("run")?),
            name: intern(text("name")?),
            trace: hex("trace")?,
            id: hex("id")?,
            parent: hex("parent")?,
            start_ns: int("start_ns")?,
            end_ns: int("end_ns")?,
            rows: int("rows")?,
        });
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { run: "direct", trace: 9, id, parent, name, start_ns, end_ns, rows: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, 0, CLIENT_REQUEST, 0, 100),
            // Two children overlapping on [30, 40): union covers [20, 60) = 40.
            span(2, 1, "serving.handle", 20, 40),
            span(3, 1, "serving.handle", 30, 60),
            // A grandchild inside the second child.
            span(4, 3, MODEL_CALL, 35, 50),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 20, 15, 15]);
    }

    #[test]
    fn child_sticking_out_of_its_parent_is_clipped() {
        let spans = [span(1, 0, CLIENT_REQUEST, 10, 50), span(2, 1, "shap.handle", 0, 70)];
        assert_eq!(self_times_ns(&spans), vec![0, 70]);
    }

    #[test]
    fn span_with_a_missing_parent_is_a_root_and_is_not_attributed() {
        let spans = [
            span(1, 0, CLIENT_REQUEST, 0, 100),
            span(2, 1, "serving.handle", 10, 90),
            // Parent 77 was never recorded (a model call on a pool thread).
            span(3, 77, MODEL_CALL, 20, 30),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 80, 10]);
        let summary = summarize(&spans, "direct");
        assert_eq!(summary.attributed_share, 1.0);
        assert_eq!(summary.get(MODEL_CALL).map(|s| s.count), Some(1));
        assert_eq!(summary.median_us("serving.handle"), 0.08);
    }

    #[test]
    fn root_without_a_service_span_lowers_the_attributed_share() {
        let spans = [
            span(1, 0, CLIENT_REQUEST, 0, 100),
            span(2, 1, "serving.handle", 0, 50),
            span(5, 0, CLIENT_REQUEST, 0, 100),
        ];
        assert_eq!(summarize(&spans, "direct").attributed_share, 0.5);
    }

    #[test]
    fn trace_file_round_trips() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join("unit-test");
        let path = dir.join("trace-test.json");
        let spans = vec![
            span(body_hash(b"x"), 0, CLIENT_REQUEST, 5, 50),
            Span { rows: 4, ..span(2, body_hash(b"x"), MODEL_CALL, 7, 9) },
        ];
        write_file(&path, "predict_open", 7, &spans).unwrap();
        assert_eq!(read_file(&path).unwrap(), spans);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
