//! The open-loop generator: a shared schedule fanned out over at most
//! `nproc` kept-alive connections.
//!
//! Every request, epoch trigger, scheduled export and metrics scrape is
//! an [`Event`] with a send time fixed before the run. Each sender thread owns one
//! [`Client`] and claims the next due event from a shared index
//! whenever it is free, so an event waits for *a* connection, never for
//! one particular sender: lateness accrues only when every connection
//! is busy. Latency runs from the scheduled send to the last body byte,
//! so a stall is charged to the requests it delays (no coordinated
//! omission), and lateness (actual send − scheduled) is recorded beside
//! it.

use crate::proc_stat::ProcSample;
use crowdweb_loadgen::client::Client;
use crowdweb_loadgen::trace::{EndpointKind, Trace, EPOCH_PLACEHOLDER};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Socket timeout of every generator request.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Senders start this long after the schedule is handed over, so thread
/// start-up is not charged to the first events as lateness.
const LEAD: Duration = Duration::from_millis(20);

/// What an event does: one HTTP request; a scrape also reads `/proc`
/// for the server and generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// `GET /crowd?hour=H`.
    Crowd,
    /// `GET /crowd/map?hour=H`.
    CrowdMap,
    /// `GET /crowd/flows?from=H&to=H`.
    Flows,
    /// `GET /tiles/{z}/{x}/{y}?hour=H`.
    Tiles,
    /// `GET /crowd?hour=H&epoch=N`, pinned to the latest published epoch.
    EpochRead,
    /// `POST /checkins`.
    Checkins,
    /// `GET /export/checkins`, chunked NDJSON.
    Export,
    /// `POST /ingest/epoch`.
    Epoch,
    /// `/proc` readings plus `GET /api/v1/metrics`.
    Scrape,
}

impl Class {
    /// Stable label used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Class::Crowd => "crowd",
            Class::CrowdMap => "crowd_map",
            Class::Flows => "flows",
            Class::Tiles => "tiles",
            Class::EpochRead => "epoch_read",
            Class::Checkins => "checkins",
            Class::Export => "export",
            Class::Epoch => "epoch",
            Class::Scrape => "scrape",
        }
    }

    /// Whether the class is a dashboard read (the `read_*` metrics).
    pub fn is_dashboard_read(self) -> bool {
        matches!(
            self,
            Class::Crowd | Class::CrowdMap | Class::Flows | Class::Tiles | Class::EpochRead
        )
    }

    fn of(kind: EndpointKind) -> Class {
        match kind {
            EndpointKind::Checkins => Class::Checkins,
            EndpointKind::Crowd => Class::Crowd,
            EndpointKind::CrowdMap => Class::CrowdMap,
            EndpointKind::Flows => Class::Flows,
            EndpointKind::Tiles => Class::Tiles,
            EndpointKind::Export => Class::Export,
            EndpointKind::EpochRead => Class::EpochRead,
        }
    }
}

/// One scheduled event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Microseconds after the run start at which it is due.
    pub at_us: u64,
    /// Index into [`Schedule::phase_names`].
    pub phase: u16,
    /// What it does.
    pub class: Class,
    /// Request path and query ([`EPOCH_PLACEHOLDER`] for epoch reads).
    pub path: String,
    /// Request body; `Some` makes the request a POST.
    pub body: Option<String>,
}

/// A run's full schedule: the trace's requests, the epoch triggers on
/// the scenario's cadence, the workload's bulk exports and the two
/// scrapes that open and close the measured window, merged in send
/// order.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Events in send order.
    pub events: Vec<Event>,
    /// Phase names of the trace.
    pub phase_names: Vec<String>,
    /// Wall microseconds of each phase.
    pub phase_wall_us: Vec<u64>,
    /// Start of the measured window (end of the warm-up), µs.
    pub window_start_us: u64,
    /// End of the measured window (end of the trace), µs.
    pub window_end_us: u64,
}

impl Schedule {
    /// Builds the schedule from a synthesized trace. `api_base` prefixes
    /// the epoch and export paths; exports run every `export_every_secs`
    /// starting a quarter period in; `warmup_us` is the unmeasured
    /// lead-in.
    pub fn new(
        trace: &Trace,
        api_base: &str,
        epoch_every_secs: f64,
        export_every_secs: f64,
        warmup_us: u64,
    ) -> Schedule {
        let total_us = trace.total_wall_us();
        let phase_at = |at_us: u64| -> u16 {
            let mut end = 0;
            for (i, wall) in trace.phase_wall_us.iter().enumerate() {
                end += wall;
                if at_us < end {
                    return i as u16;
                }
            }
            trace.phase_wall_us.len().saturating_sub(1) as u16
        };
        let mut events: Vec<Event> = trace
            .events
            .iter()
            .map(|e| Event {
                at_us: e.schedule_us,
                phase: e.phase,
                class: Class::of(e.kind),
                path: e.path.clone(),
                body: e.body.clone(),
            })
            .collect();
        let cadences = [
            (
                epoch_every_secs,
                1.0,
                Class::Epoch,
                "ingest/epoch",
                Some(String::new()),
            ),
            (
                export_every_secs,
                0.25,
                Class::Export,
                "export/checkins",
                None,
            ),
        ];
        for (every_secs, first, class, route, body) in cadences {
            if every_secs <= 0.0 {
                continue;
            }
            let step = (every_secs * 1e6) as u64;
            let mut at = (every_secs * first * 1e6) as u64;
            while at < total_us {
                events.push(Event {
                    at_us: at,
                    phase: phase_at(at),
                    class,
                    path: format!("{api_base}/{route}"),
                    body: body.clone(),
                });
                at += step;
            }
        }
        for at in [warmup_us, total_us] {
            events.push(Event {
                at_us: at,
                phase: phase_at(at),
                class: Class::Scrape,
                path: "/api/v1/metrics".to_owned(),
                body: None,
            });
        }
        // Stable: at equal times trace requests go before the epoch
        // trigger, the trigger before the export, and the export before
        // the scrape.
        events.sort_by_key(|e| e.at_us);
        Schedule {
            events,
            phase_names: trace.phase_names.clone(),
            phase_wall_us: trace.phase_wall_us.clone(),
            window_start_us: warmup_us,
            window_end_us: total_us,
        }
    }

    /// Whether an event falls inside the measured window.
    pub fn measured(&self, event: &Event) -> bool {
        event.at_us >= self.window_start_us && event.at_us < self.window_end_us
    }
}

/// What happened to one event.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the event in the schedule.
    pub index: usize,
    /// Nanoseconds after the run start at which it was due.
    pub due_ns: u64,
    /// When the request actually went out.
    pub sent_ns: u64,
    /// When its last body byte arrived (or the transport failed).
    pub done_ns: u64,
    /// HTTP status; 0 for a transport error.
    pub status: u16,
    /// Body bytes received.
    pub bytes: usize,
    /// The body, kept for check-in receipts, epoch reports and scrapes.
    pub body: Option<String>,
    /// For epoch reads: the published epoch the request was pinned to.
    pub epoch_target: Option<u64>,
    /// For scrapes: `/proc` readings of the server and this process,
    /// taken just before the request.
    pub proc: Option<(ProcSample, ProcSample)>,
}

impl Sample {
    /// Latency from scheduled send to last body byte, ns.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// Lateness of the send, ns.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }

    /// Whether the request got a 2xx.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// The most senders a run may use on this machine: one per core.
pub fn max_senders() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Replays `events` open loop against `addr` over `senders` kept-alive
/// connections. Scrapes read `/proc/<server_pid>` when a pid is given.
///
/// # Errors
///
/// Refuses more senders than [`max_senders`] (or none): extra sender
/// threads would compete with the server for cores and measure the
/// generator instead.
pub fn drive(
    addr: SocketAddr,
    events: &[Event],
    senders: usize,
    server_pid: Option<u32>,
) -> Result<Vec<Sample>, String> {
    if senders == 0 || senders > max_senders() {
        return Err(format!(
            "{senders} senders requested; this machine allows 1..={}",
            max_senders()
        ));
    }
    let next = AtomicUsize::new(0);
    let latest_epoch = AtomicU64::new(0);
    let start = Instant::now() + LEAD;
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..senders)
            .map(|_| {
                let (next, latest_epoch) = (&next, &latest_epoch);
                scope.spawn(move || {
                    let mut client = Client::new(addr, REQUEST_TIMEOUT);
                    let mut out = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(event) = events.get(index) else {
                            return out;
                        };
                        out.push(send(
                            &mut client,
                            start,
                            index,
                            event,
                            latest_epoch,
                            server_pid,
                        ));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sender threads do not panic"))
            .collect()
    });
    samples.sort_by_key(|s| s.index);
    Ok(samples)
}

fn send(
    client: &mut Client,
    start: Instant,
    index: usize,
    event: &Event,
    latest_epoch: &AtomicU64,
    server_pid: Option<u32>,
) -> Sample {
    let due = start + Duration::from_micros(event.at_us);
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
    let mut epoch_target = None;
    let path = if event.class == Class::EpochRead {
        let epoch = latest_epoch.load(Ordering::Relaxed);
        epoch_target = Some(epoch);
        event.path.replace(EPOCH_PLACEHOLDER, &epoch.to_string())
    } else {
        event.path.clone()
    };
    let proc = (event.class == Class::Scrape).then(|| {
        (
            server_pid.map_or_else(ProcSample::default, ProcSample::read),
            ProcSample::read_self(),
        )
    });
    let sent_ns = nanos_since(start);
    let result = client.request(&path, event.body.as_deref());
    let done_ns = nanos_since(start);
    let (status, bytes, body) = match result {
        Ok(r) => {
            let keep = matches!(event.class, Class::Checkins | Class::Epoch | Class::Scrape);
            (r.status, r.body.len(), keep.then_some(r.body))
        }
        Err(_) => (0, 0, None),
    };
    if event.class == Class::Epoch && (200..300).contains(&status) {
        // Only a published epoch number may pin a time-travel read.
        let published = body
            .as_deref()
            .and_then(|b| serde_json::from_str::<serde_json::Value>(b).ok())
            .and_then(|v| v["epoch"].as_u64());
        if let Some(epoch) = published {
            latest_epoch.fetch_max(epoch, Ordering::Relaxed);
        }
    }
    Sample {
        index,
        due_ns: event.at_us * 1_000,
        sent_ns,
        done_ns,
        status,
        bytes,
        body,
        epoch_target,
        proc,
    }
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(Instant::now().saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// A scripted slow server: every connection answers each request
    /// after `delay`, one at a time, like a server with one worker per
    /// connection.
    fn slow_server(delay: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream);
                    loop {
                        let mut line = String::new();
                        loop {
                            line.clear();
                            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                                return;
                            }
                            if line == "\r\n" {
                                break;
                            }
                        }
                        std::thread::sleep(delay);
                        let reply = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
                        if reader.get_mut().write_all(reply.as_bytes()).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        addr
    }

    fn read_at(at_ms: u64) -> Event {
        Event {
            at_us: at_ms * 1_000,
            phase: 0,
            class: Class::Crowd,
            path: "/x".to_owned(),
            body: None,
        }
    }

    #[test]
    fn lateness_accrues_only_when_every_connection_is_busy() {
        if max_senders() < 2 {
            return;
        }
        let addr = slow_server(Duration::from_millis(150));
        // Events 0 and 1 occupy both connections until ~150 ms. Event 2
        // (due at 50 ms) must wait for one of them; event 3 (due at
        // 400 ms) finds both free again. Event 4 is due while only one
        // connection is busy (event 3's) and must go out on time.
        let events = [0, 0, 50, 400, 450].map(read_at);
        let samples = drive(addr, &events, 2, None).unwrap();
        let late_ms: Vec<u64> = samples.iter().map(|s| s.late_ns() / 1_000_000).collect();
        assert!(samples.iter().all(Sample::ok), "{samples:?}");
        assert!(late_ms[0] < 40 && late_ms[1] < 40, "{late_ms:?}");
        assert!(
            late_ms[2] >= 60,
            "event 2 must wait for a connection: {late_ms:?}"
        );
        assert!(late_ms[3] < 40, "{late_ms:?}");
        assert!(
            late_ms[4] < 40,
            "one idle connection must take a due event: {late_ms:?}"
        );
        // Latency counts from the schedule, so event 2's wait shows.
        assert!(samples[2].latency_ns() >= samples[0].latency_ns() + 60_000_000);
    }

    #[test]
    fn refuses_more_senders_than_cores() {
        let err = drive("127.0.0.1:9".parse().unwrap(), &[], max_senders() + 1, None).unwrap_err();
        assert!(err.contains("senders"), "{err}");
        assert!(drive("127.0.0.1:9".parse().unwrap(), &[], 0, None).is_err());
    }
}
