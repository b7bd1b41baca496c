//! The traced run: the same events, replayed in process on one thread
//! through each layer's public functions, with a span around every call.
//!
//! A request is `request` with children `http.parse`
//! (`Request::read_from`), `api.dispatch` (`Router::dispatch` on
//! `api::build_router()`) and `http.write` (`Response::write_to_with`
//! into a `Vec`); a time-travel read adds `ingest.crowd_at`. An epoch
//! trigger is `epoch` with children `ingest.run_epoch` and
//! `ingest.stats`. Set-up is `setup.load_tsv` and `setup.open`. Spans
//! stay in memory and are written to `spans.jsonl` at the end; nothing
//! inside the program is instrumented. Registry values (pipeline
//! stages, shard fan-out, WAL bytes, history bytes) are read through
//! the program's own metrics registry.

use crate::exposition::Exposition;
use crate::generator::{Class, Event};
use crate::report::{mean, percentile, Metrics};
use crowdweb_loadgen::trace::EPOCH_PLACEHOLDER;
use crowdweb_server::{AppState, Request};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// The request classes the traced run dispatches over HTTP framing.
pub const TRACED_CLASSES: [Class; 7] = [
    Class::Crowd,
    Class::CrowdMap,
    Class::Flows,
    Class::Tiles,
    Class::EpochRead,
    Class::Checkins,
    Class::Export,
];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (the layer boundary).
    pub name: &'static str,
    /// Index of the parent span.
    pub parent: Option<usize>,
    /// Index of the replayed event this span belongs to.
    pub request: Option<usize>,
    /// The event's class.
    pub class: Option<Class>,
    /// Start, ns after the replay origin.
    pub start_ns: u64,
    /// End, ns after the replay origin.
    pub end_ns: u64,
    /// Body bytes written (`http.write` only).
    pub bytes: u64,
}

impl Span {
    fn micros(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn begin(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<usize>,
        class: Option<Class>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent,
            request,
            class,
            start_ns,
            end_ns: start_ns,
            bytes: 0,
        });
        Some(self.spans.len() - 1)
    }

    fn end(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now();
        }
    }
}

/// What one epoch trigger did, observed whether or not spans record.
#[derive(Debug, Clone, Copy)]
struct EpochObs {
    /// The `ingest.run_epoch` span, when recording.
    span: Option<usize>,
    build_us: f64,
    applied: f64,
    remined: f64,
    checkpoint_bytes: f64,
}

/// The result of one replay.
pub struct Replay {
    /// Recorded spans (empty with recording off).
    pub spans: Vec<Span>,
    /// Wall seconds of the event loop, set-up excluded.
    pub loop_secs: f64,
    epochs: Vec<EpochObs>,
    after_open: Exposition,
    at_end: Exposition,
    replayed_records: usize,
    full_rebuilds: u64,
}

/// Replays `events` (scrapes are skipped) over a fresh platform built
/// from `tsv`, with a WAL in `wal` for the durable workloads.
///
/// # Errors
///
/// Fails when the platform does not build or a request does not parse.
pub fn replay(
    events: &[Event],
    tsv: &Path,
    min_days: usize,
    wal: Option<&Path>,
    record: bool,
) -> Result<Replay, String> {
    let mut rec = Recorder {
        on: record,
        origin: Instant::now(),
        spans: Vec::with_capacity(if record { events.len() * 4 + 2 } else { 0 }),
    };
    let span = rec.begin("setup.load_tsv", None, None, None);
    let dataset = crowdweb_dataset::tsv::load_path(tsv)
        .map_err(|e| format!("loading {}: {e}", tsv.display()))?;
    rec.end(span);
    let base_len = dataset.len();
    let span = rec.begin("setup.open", None, None, None);
    let state: AppState = crate::child::app_state(dataset, min_days, wal)?;
    rec.end(span);
    let router = crowdweb_server::api::build_router();
    let engine = state.engine();
    let after_open = Exposition::parse(&state.metrics().render());
    let replayed_records = state.snapshot().dataset().len() - base_len;

    let mut epochs = Vec::new();
    let mut wire = Vec::new();
    let started = Instant::now();
    for (index, event) in events.iter().enumerate() {
        let class = Some(event.class);
        match event.class {
            Class::Scrape => {}
            Class::Epoch => {
                let top = rec.begin("epoch", None, Some(index), class);
                let span = rec.begin("ingest.run_epoch", top, Some(index), class);
                let report = engine
                    .run_epoch()
                    .map_err(|e| format!("epoch in the traced run: {e}"))?;
                rec.end(span);
                let stats_span = rec.begin("ingest.stats", top, Some(index), class);
                let stats = engine.stats();
                rec.end(stats_span);
                rec.end(top);
                if let Some(report) = report {
                    epochs.push(EpochObs {
                        span,
                        build_us: report.duration_micros as f64,
                        applied: report.applied as f64,
                        remined: report.users_remined as f64,
                        checkpoint_bytes: stats.wal_checkpoint_bytes as f64,
                    });
                }
            }
            _ => {
                let top = rec.begin("request", None, Some(index), class);
                let mut path = event.path.clone();
                if event.class == Class::EpochRead {
                    let epoch = engine.epoch();
                    let span = rec.begin("ingest.crowd_at", top, Some(index), class);
                    std::hint::black_box(engine.crowd_at(epoch));
                    rec.end(span);
                    path = path.replace(EPOCH_PLACEHOLDER, &epoch.to_string());
                }
                let raw = match &event.body {
                    Some(json) => format!(
                        "POST {path} HTTP/1.1\r\nHost: loadgen\r\nContent-Type: application/json\r\n\
                         Content-Length: {}\r\n\r\n{json}",
                        json.len()
                    ),
                    None => format!("GET {path} HTTP/1.1\r\nHost: loadgen\r\n\r\n"),
                };
                let span = rec.begin("http.parse", top, Some(index), class);
                let request = Request::read_from(raw.as_bytes())
                    .map_err(|e| format!("replayed request {path} does not parse: {e}"))?;
                rec.end(span);
                let span = rec.begin("api.dispatch", top, Some(index), class);
                let (response, _route) = router.dispatch(&state, &request);
                rec.end(span);
                let span = rec.begin("http.write", top, Some(index), class);
                wire.clear();
                response
                    .write_to_with(&mut wire, true)
                    .map_err(|e| format!("writing {path}: {e}"))?;
                rec.end(span);
                if let Some(i) = span {
                    let head = wire
                        .windows(4)
                        .position(|w| w == b"\r\n\r\n")
                        .map_or(0, |p| p + 4);
                    rec.spans[i].bytes = (wire.len() - head) as u64;
                }
                rec.end(top);
            }
        }
    }
    let loop_secs = started.elapsed().as_secs_f64();
    Ok(Replay {
        spans: rec.spans,
        loop_secs,
        epochs,
        after_open,
        at_end: Exposition::parse(&state.metrics().render()),
        replayed_records,
        full_rebuilds: engine.stats().full_rebuilds,
    })
}

impl Replay {
    /// The per-layer metrics of a recorded replay; `untraced` is the
    /// same replay with recording off, for `trace.overhead_pct`.
    pub fn layer_metrics(&self, untraced: &Replay, out: &mut Metrics) {
        let spans_named = |name: &str, class: Option<Class>| -> Vec<f64> {
            self.spans
                .iter()
                .filter(|s| s.name == name && (class.is_none() || s.class == class))
                .map(Span::micros)
                .collect()
        };
        out.push(
            "http.parse_us",
            mean(&spans_named("http.parse", None)),
            "us",
        );
        for class in TRACED_CLASSES {
            let label = class.label();
            let write = spans_named("http.write", Some(class));
            out.push(&format!("http.write_us.{label}"), mean(&write), "us");
            let mut dispatch = spans_named("api.dispatch", Some(class));
            dispatch.sort_by(f64::total_cmp);
            out.push(
                &format!("api.dispatch_us.{label}.p50"),
                percentile(&dispatch, 0.5),
                "us",
            );
            out.push(
                &format!("api.dispatch_us.{label}.p90"),
                percentile(&dispatch, 0.9),
                "us",
            );
            let bytes: Vec<f64> = self
                .spans
                .iter()
                .filter(|s| s.name == "http.write" && s.class == Some(class))
                .map(|s| s.bytes as f64)
                .collect();
            out.push(&format!("api.body_bytes.{label}"), mean(&bytes), "bytes");
        }

        // Epoch triggers that found an empty queue publish nothing; the
        // epoch rows describe the ones that ran.
        let ran = self.epochs.len();
        let wall: Vec<f64> = self
            .epochs
            .iter()
            .filter_map(|e| e.span.map(|i| self.spans[i].micros()))
            .collect();
        let build: Vec<f64> = self.epochs.iter().map(|e| e.build_us).collect();
        let ran_wall = mean(&wall);
        out.push("ingest.epoch_wall_us", ran_wall, "us");
        out.push("ingest.epoch_build_us", mean(&build), "us");
        out.push(
            "ingest.epoch_post_build_us",
            (ran_wall - mean(&build)).max(0.0),
            "us",
        );
        let fanout = "crowdweb_ingest_shard_fanout_seconds_sum";
        out.push(
            "ingest.epoch_mine_us",
            per(self.at_end.delta(&self.after_open, fanout, &[]) * 1e6, ran),
            "us",
        );
        let field = |f: fn(&EpochObs) -> f64| -> Vec<f64> { self.epochs.iter().map(f).collect() };
        out.push(
            "ingest.epoch_applied",
            mean(&field(|e| e.applied)),
            "records",
        );
        out.push(
            "ingest.epoch_users_remined",
            mean(&field(|e| e.remined)),
            "users",
        );
        out.push("ingest.full_rebuilds", self.full_rebuilds as f64, "count");
        out.push(
            "ingest.materialize_us",
            mean(&spans_named("ingest.crowd_at", None)),
            "us",
        );
        out.push(
            "ingest.history_resident_bytes",
            self.at_end
                .sum("crowdweb_ingest_history_resident_bytes", &[]),
            "bytes",
        );

        let appended_bytes = self.at_end.delta(
            &self.after_open,
            "crowdweb_ingest_wal_appended_bytes_total",
            &[],
        );
        let appended_records = self.at_end.delta(
            &self.after_open,
            "crowdweb_ingest_wal_appended_records_total",
            &[],
        );
        let checkpoints: f64 = self.epochs.iter().map(|e| e.checkpoint_bytes).sum();
        out.push(
            "wal.append_bytes_per_record",
            per(appended_bytes, appended_records as usize),
            "bytes",
        );
        out.push(
            "wal.checkpoint_bytes_per_epoch",
            per(checkpoints, ran),
            "bytes",
        );
        out.push(
            "wal.write_amplification",
            if appended_bytes > 0.0 {
                (appended_bytes + checkpoints) / appended_bytes
            } else {
                0.0
            },
            "ratio",
        );
        out.push(
            "wal.replayed_records",
            self.replayed_records as f64,
            "records",
        );

        let setup = |name: &str| spans_named(name, None).first().copied().unwrap_or(0.0) / 1e6;
        out.push("setup.load_tsv_s", setup("setup.load_tsv"), "s");
        out.push("setup.open_s", setup("setup.open"), "s");
        for stage in ["prepare", "mine", "grid", "crowd"] {
            out.push(
                &format!("pipeline.stage_s.{stage}"),
                self.after_open
                    .sum("crowdweb_pipeline_stage_seconds_sum", &[("stage", stage)]),
                "s",
            );
        }
        out.push(
            "trace.overhead_pct",
            (self.loop_secs / untraced.loop_secs - 1.0) * 100.0,
            "%",
        );
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_spans(&self, path: &Path) -> Result<(), String> {
        let mut text = String::with_capacity(self.spans.len() * 120);
        let opt = |v: Option<usize>| v.map_or("null".to_owned(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"parent\":{},\"request\":{},\"name\":\"{}\",\"class\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"bytes\":{}}}",
                opt(s.parent),
                opt(s.request),
                s.name,
                s.class
                    .map_or("null".to_owned(), |c| format!("\"{}\"", c.label())),
                s.start_ns,
                s.end_ns,
                s.bytes
            );
        }
        std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// `total / n`, or 0 when `n` is 0.
fn per(total: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}
