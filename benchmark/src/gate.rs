//! The correctness gate every run ends with.
//!
//! After the load, the gate publishes a final epoch and checks that:
//!
//! - `ingest/stats` shows every 2xx check-in applied and nothing queued;
//! - every time-travel read, each pinned to a published epoch, got a 2xx;
//! - the server's `crowd` and `crowd/flows` bodies for all 24 hours, and
//!   its NDJSON export, are byte-identical to an in-process cold rebuild
//!   over the base dataset plus the WAL prefix plus the acknowledged
//!   check-ins in receipt-`seq` order.
//!
//! The export fetched for the byte check also feeds
//! `loadgen.export_mb_s`.

use crate::generator::{Class, Sample, Schedule};
use crate::workload::record_from_body;
use crowdweb_dataset::{Dataset, MergeRecord};
use crowdweb_loadgen::client::Client;
use crowdweb_server::{AppState, Request, Router};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const GATE_TIMEOUT: Duration = Duration::from_secs(60);

/// One request the gate made, timed like a generator sample.
#[derive(Debug, Clone)]
pub struct GateRequest {
    /// Request class.
    pub class: Class,
    /// Send-to-last-byte seconds.
    pub secs: f64,
    /// Body bytes received.
    pub bytes: usize,
}

/// The gate's verdict plus what it measured on the way.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// One line per failed check; empty when the run is correct.
    pub failures: Vec<String>,
    /// Every request the gate sent.
    pub requests: Vec<GateRequest>,
    /// `/api/v1/metrics` after the gate, closing the reactor deltas.
    pub final_metrics: String,
}

/// The cold-built reference platform, served in process.
pub struct Reference {
    state: AppState,
    router: Router<AppState>,
}

impl Reference {
    /// Builds the reference over `base` plus `records` (merged in the
    /// given order) with the server's activity filter.
    ///
    /// # Errors
    ///
    /// Propagates merge and pipeline failures.
    pub fn build(base: &Dataset, records: &[MergeRecord], min_days: usize) -> Result<Self, String> {
        let merged = base
            .merge_records(records)
            .map_err(|e| format!("merging the reference dataset: {e}"))?;
        Ok(Reference {
            state: AppState::build(merged, min_days)
                .map_err(|e| format!("building the reference: {e}"))?,
            router: crowdweb_server::api::build_router(),
        })
    }

    /// The reference body of `GET path`.
    ///
    /// # Panics
    ///
    /// Panics if the in-process request fails to parse, which the
    /// gate's fixed paths never do.
    pub fn get(&self, path: &str) -> Vec<u8> {
        let raw = format!("GET {path} HTTP/1.1\r\nHost: reference\r\n\r\n");
        let request = Request::read_from(raw.as_bytes()).expect("gate paths parse");
        self.router.route(&self.state, &request).into_body_bytes()
    }
}

/// The 48 views compared byte for byte: `crowd` and `crowd/flows` for
/// every hour of the day.
pub fn view_paths() -> Vec<String> {
    (0..24u8)
        .flat_map(|h| {
            [
                format!("/api/v1/crowd?hour={h}"),
                format!("/api/v1/crowd/flows?from={h}&to={}", (h + 1) % 24),
            ]
        })
        .collect()
}

/// Compares each path's server body with the reference body and names
/// every path that differs or failed to fetch.
pub fn compare_views(
    paths: &[String],
    mut server: impl FnMut(&str) -> Result<Vec<u8>, String>,
    mut reference: impl FnMut(&str) -> Vec<u8>,
) -> Vec<String> {
    paths
        .iter()
        .filter_map(|path| match server(path) {
            Ok(body) if body == reference(path) => None,
            Ok(body) => Some(format!(
                "{path}: server body ({} bytes) differs from the cold rebuild",
                body.len()
            )),
            Err(e) => Some(format!("{path}: {e}")),
        })
        .collect()
}

/// The acknowledged check-ins of a run in receipt-`seq` order.
///
/// # Errors
///
/// Fails when a 2xx check-in response carries no receipt.
pub fn acked_records(schedule: &Schedule, samples: &[Sample]) -> Result<Vec<MergeRecord>, String> {
    let mut acked: Vec<(u64, MergeRecord)> = Vec::new();
    for s in samples {
        let event = &schedule.events[s.index];
        if event.class != Class::Checkins || !s.ok() {
            continue;
        }
        let seq = s
            .body
            .as_deref()
            .and_then(|b| serde_json::from_str::<serde_json::Value>(b).ok())
            .and_then(|v| v["first_seq"].as_u64())
            .ok_or_else(|| format!("check-in {} acked without a receipt", s.index))?;
        acked.push((
            seq,
            record_from_body(event.body.as_deref().unwrap_or_default())?,
        ));
    }
    acked.sort_by_key(|(seq, _)| *seq);
    Ok(acked.into_iter().map(|(_, r)| r).collect())
}

/// Runs the gate against the server at `addr`. `prefix` is the WAL
/// prefix the server opened over (empty for most workloads).
///
/// # Errors
///
/// Only for failures of the harness itself (the reference does not
/// build); a wrong server state is reported in
/// [`GateReport::failures`].
pub fn run(
    addr: SocketAddr,
    schedule: &Schedule,
    samples: &[Sample],
    base: &Dataset,
    prefix: &[MergeRecord],
    min_days: usize,
) -> Result<GateReport, String> {
    let mut report = GateReport::default();
    let mut client = Client::new(addr, GATE_TIMEOUT);
    let mut get = |client: &mut Client, class: Class, path: &str, body: Option<&str>| {
        let started = Instant::now();
        let response = client.request(path, body);
        report.requests.push(GateRequest {
            class,
            secs: started.elapsed().as_secs_f64(),
            bytes: response.as_ref().map_or(0, |r| r.body.len()),
        });
        match response {
            Ok(r) if r.is_success() => Ok(r.body),
            Ok(r) => Err(format!("{path} answered {}", r.status)),
            Err(e) => Err(format!("{path}: {e}")),
        }
    };
    let mut failures = Vec::new();

    if let Err(e) = get(&mut client, Class::Epoch, "/api/v1/ingest/epoch", Some("")) {
        failures.push(format!("final epoch: {e}"));
    }
    let acked = acked_records(schedule, samples)?;
    match get(&mut client, Class::Scrape, "/api/v1/ingest/stats", None) {
        Ok(body) => {
            let stats: serde_json::Value =
                serde_json::from_str(&body).unwrap_or(serde_json::Value::Null);
            let applied = stats["total_applied"].as_u64();
            if applied != Some(acked.len() as u64) {
                failures.push(format!(
                    "ingest/stats total_applied {applied:?} != {} acknowledged check-ins",
                    acked.len()
                ));
            }
            if stats["queue_depth"].as_u64() != Some(0) {
                failures.push(format!(
                    "queue not drained by the final epoch: {}",
                    stats["queue_depth"]
                ));
            }
        }
        Err(e) => failures.push(format!("ingest/stats: {e}")),
    }
    for s in samples {
        if schedule.events[s.index].class == Class::EpochRead && !s.ok() {
            failures.push(format!(
                "time-travel read {} pinned to published epoch {:?} answered {}",
                s.index, s.epoch_target, s.status
            ));
        }
    }

    let records: Vec<MergeRecord> = prefix.iter().chain(&acked).cloned().collect();
    let reference = Reference::build(base, &records, min_days)?;
    failures.extend(compare_views(
        &view_paths(),
        |path| {
            let class = if path.contains("/flows") {
                Class::Flows
            } else {
                Class::Crowd
            };
            get(&mut client, class, path, None).map(String::into_bytes)
        },
        |path| reference.get(path),
    ));
    let export_path = "/api/v1/export/checkins";
    let expected_export = reference.get(export_path);
    match get(&mut client, Class::Export, export_path, None) {
        Ok(body) if body.as_bytes() == expected_export => {}
        Ok(body) => failures.push(format!(
            "export: {} bytes differ from the cold rebuild's {}",
            body.len(),
            expected_export.len()
        )),
        Err(e) => failures.push(format!("export: {e}")),
    }
    match get(&mut client, Class::Scrape, "/api/v1/metrics", None) {
        Ok(text) => report.final_metrics = text,
        Err(e) => failures.push(format!("final metrics scrape: {e}")),
    }
    report.failures = failures;
    Ok(report)
}
