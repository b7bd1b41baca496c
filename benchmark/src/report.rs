//! Turning a timed run's samples into metrics, and printing them.
//!
//! End-to-end metrics come from the generator's samples and the
//! server's `/proc` readings. A latency metric is the lower quartile,
//! over the measured window's 1-second sub-windows, of each
//! sub-window's percentile: host disruptions on a shared machine can
//! cover two thirds of a run, and a quartile still reads the seconds
//! they spared. The generator and reactor rows of the per-layer
//! set come from the same timed run: the reactor rows are deltas of the
//! server's own `/api/v1/metrics` between the scrape that opens the
//! measured window and the one that closes the gate.

use crate::exposition::Exposition;
use crate::gate::GateReport;
use crate::generator::{Class, Sample, Schedule};
use crate::workload::is_ladder;

/// Length of the sub-windows the latency metrics are taken over.
const SUB_WINDOW_US: u64 = 1_000_000;

/// Read latency limit of the capacity ladder, ms.
const LADDER_P90_LIMIT_MS: f64 = 1.0;
/// Share of a step's reads that must succeed for the step to pass.
const LADDER_MIN_COMPLETED: f64 = 0.97;

/// Metrics in print order: `(name, value, unit)`.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one metric. Non-finite values (an empty ratio) read 0.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_owned(), value, unit));
    }
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile of ascending `sorted`; 0 for no values.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Everything a timed run produced.
pub struct TimedRun<'a> {
    /// The replayed schedule.
    pub schedule: &'a Schedule,
    /// One sample per event, in schedule order.
    pub samples: &'a [Sample],
    /// The gate's verdict and requests.
    pub gate: &'a GateReport,
    /// Seconds to a healthy server, one per set-up.
    pub setup_secs: &'a [f64],
}

impl TimedRun<'_> {
    fn class(&self, s: &Sample) -> Class {
        self.schedule.events[s.index].class
    }

    fn phase(&self, s: &Sample) -> &str {
        &self.schedule.phase_names[self.schedule.events[s.index].phase as usize]
    }

    fn measured(&self, s: &Sample) -> bool {
        self.schedule.measured(&self.schedule.events[s.index])
    }

    /// The sub-window of the measured window an event falls in.
    fn sub_window(&self, s: &Sample) -> Option<usize> {
        let at = self.schedule.events[s.index].at_us;
        self.measured(s)
            .then(|| ((at - self.schedule.window_start_us) / SUB_WINDOW_US) as usize)
    }

    /// Latencies (ms, ascending) of the measured window outside the
    /// capacity ladder, one list per sub-window.
    fn latency_by_window(&self, keep: impl Fn(Class) -> bool) -> Vec<Vec<f64>> {
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for s in self.samples {
            if is_ladder(self.phase(s)) || !keep(self.class(s)) {
                continue;
            }
            if let Some(w) = self.sub_window(s) {
                if windows.len() <= w {
                    windows.resize(w + 1, Vec::new());
                }
                windows[w].push(s.latency_ns() as f64 / 1e6);
            }
        }
        for w in &mut windows {
            w.sort_by(f64::total_cmp);
        }
        windows
    }

    /// The lower quartile, over sub-windows, of each sub-window's
    /// `q`-th percentile.
    fn windowed_percentile(&self, keep: impl Fn(Class) -> bool, q: f64) -> f64 {
        let mut per_window: Vec<f64> = self
            .latency_by_window(keep)
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| percentile(w, q))
            .collect();
        per_window.sort_by(f64::total_cmp);
        percentile(&per_window, 0.25)
    }

    /// All latencies of [`Self::latency_by_window`], pooled, ascending.
    fn latency_samples(&self, keep: impl Fn(Class) -> bool) -> Vec<f64> {
        let mut ms: Vec<f64> = self.latency_by_window(keep).concat();
        ms.sort_by(f64::total_cmp);
        ms
    }

    /// The `/proc` readings of the scrapes opening and closing the
    /// measured window.
    fn window_proc(&self) -> Option<(&Sample, &Sample)> {
        let mut scrapes = self.samples.iter().filter(|s| s.proc.is_some());
        Some((scrapes.next()?, scrapes.next()?))
    }

    /// Requests of the measured window that got an answer.
    fn completed(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| self.measured(s) && self.class(s) != Class::Scrape && s.status != 0)
            .count()
    }

    /// `(server, generator)` CPU µs per completed request over the
    /// measured window.
    fn cpu_per_request(&self) -> (f64, f64) {
        let Some((start, end)) = self.window_proc() else {
            return (0.0, 0.0);
        };
        let (start, end) = (start.proc.expect("scrape"), end.proc.expect("scrape"));
        let n = self.completed().max(1) as f64;
        (
            (end.0.cpu_secs - start.0.cpu_secs) * 1e6 / n,
            (end.1.cpu_secs - start.1.cpu_secs) * 1e6 / n,
        )
    }

    /// Generator requests sent, and how many failed or were refused.
    pub fn attempted_failed(&self) -> (usize, usize) {
        let failed = self.samples.iter().filter(|s| !s.ok()).count();
        (self.samples.len(), failed)
    }

    /// The end-to-end metrics.
    pub fn end_to_end(&self, out: &mut Metrics) {
        out.push("setup_s", median(self.setup_secs), "s");
        let read = Class::is_dashboard_read;
        out.push("read_p50_ms", self.windowed_percentile(read, 0.5), "ms");
        out.push("read_p90_ms", self.windowed_percentile(read, 0.9), "ms");
        let write = |c| c == Class::Checkins;
        out.push("write_p50_ms", self.windowed_percentile(write, 0.5), "ms");
        out.push("cpu_us_per_req", self.cpu_per_request().0, "us");
    }

    /// The generator and reactor rows of the per-layer metrics.
    pub fn timed_layers(&self, out: &mut Metrics) {
        let mut late: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| self.measured(s))
            .map(|s| s.late_ns() as f64 / 1e3)
            .collect();
        late.sort_by(f64::total_cmp);
        out.push("loadgen.late_p50_us", percentile(&late, 0.5), "us");
        out.push("loadgen.late_p90_us", percentile(&late, 0.9), "us");
        out.push("loadgen.cpu_us_per_req", self.cpu_per_request().1, "us");
        let reads = self.latency_samples(Class::is_dashboard_read);
        let writes = self.latency_samples(|c| c == Class::Checkins);
        out.push("loadgen.read_p99_ms", percentile(&reads, 0.99), "ms");
        out.push("loadgen.read_p999_ms", percentile(&reads, 0.999), "ms");
        out.push("loadgen.read_samples", reads.len() as f64, "count");
        out.push(
            "loadgen.write_p90_ms",
            self.windowed_percentile(|c| c == Class::Checkins, 0.9),
            "ms",
        );
        out.push("loadgen.write_p99_ms", percentile(&writes, 0.99), "ms");
        out.push("loadgen.write_samples", writes.len() as f64, "count");
        let mut epochs: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| self.measured(s) && self.class(s) == Class::Epoch)
            .map(|s| s.latency_ns() as f64 / 1e6)
            .collect();
        epochs.sort_by(f64::total_cmp);
        out.push("loadgen.epoch_p50_ms", percentile(&epochs, 0.5), "ms");
        out.push("loadgen.max_read_rps", self.max_read_rps(), "req/s");
        // Every export of the run: the load's and the gate's.
        let (bytes, secs) = self
            .samples
            .iter()
            .filter(|s| self.class(s) == Class::Export && s.ok())
            .map(|s| {
                (
                    s.bytes as f64,
                    s.done_ns.saturating_sub(s.sent_ns) as f64 / 1e9,
                )
            })
            .chain(
                self.gate
                    .requests
                    .iter()
                    .filter(|r| r.class == Class::Export)
                    .map(|r| (r.bytes as f64, r.secs)),
            )
            .fold((0.0, 0.0), |(b, t), (rb, rt)| (b + rb, t + rt));
        out.push("loadgen.export_mb_s", bytes / secs / 1e6, "MB/s");
        let (attempted, failed) = self.attempted_failed();
        out.push(
            "loadgen.failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "fraction",
        );
        let rss = self.window_proc().map_or(0.0, |(_, end)| {
            end.proc.expect("scrape").0.peak_rss_bytes as f64 / 1e6
        });
        out.push("server.rss_peak_mb", rss, "MB");
        self.reactor_layers(out);
    }

    /// Highest measured phase read rate whose read p90 stays within
    /// [`LADDER_P90_LIMIT_MS`] with at least [`LADDER_MIN_COMPLETED`] of
    /// its reads answered, log-interpolated into the first phase that
    /// misses. Phases are taken in rate order and the search stops at
    /// the first miss, since a backlog carries into later phases.
    fn max_read_rps(&self) -> f64 {
        let mut steps: Vec<(f64, f64, f64)> = Vec::new();
        for (p, name) in self.schedule.phase_names.iter().enumerate() {
            if crate::workload::is_warmup(name) || name.starts_with("drain-") {
                continue;
            }
            let reads: Vec<&Sample> = self
                .samples
                .iter()
                .filter(|s| {
                    self.schedule.events[s.index].phase as usize == p
                        && self.class(s).is_dashboard_read()
                })
                .collect();
            if reads.is_empty() {
                continue;
            }
            let mut ms: Vec<f64> = reads.iter().map(|s| s.latency_ns() as f64 / 1e6).collect();
            ms.sort_by(f64::total_cmp);
            let wall = self.schedule.phase_wall_us[p] as f64 / 1e6;
            let done = reads.iter().filter(|s| s.ok()).count() as f64 / reads.len() as f64;
            steps.push((reads.len() as f64 / wall, percentile(&ms, 0.9), done));
        }
        steps.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut best: Option<(f64, f64)> = None;
        for (rate, p90, done) in steps {
            if p90 <= LADDER_P90_LIMIT_MS && done >= LADDER_MIN_COMPLETED {
                best = Some((rate, p90));
                continue;
            }
            return match best {
                Some((pass_rate, pass_p90)) if p90 > LADDER_P90_LIMIT_MS => {
                    let t = (LADDER_P90_LIMIT_MS - pass_p90) / (p90 - pass_p90);
                    (pass_rate.ln() + (rate.ln() - pass_rate.ln()) * t).exp()
                }
                Some((pass_rate, _)) => pass_rate,
                None => 0.0,
            };
        }
        best.map_or(0.0, |(rate, _)| rate)
    }

    fn reactor_layers(&self, out: &mut Metrics) {
        let start = self
            .samples
            .iter()
            .find(|s| s.proc.is_some())
            .and_then(|s| s.body.as_deref())
            .map(Exposition::parse)
            .unwrap_or_default();
        let end = Exposition::parse(&self.gate.final_metrics);
        for (class, route) in [
            (Class::Crowd, "/api/v1/crowd"),
            (Class::CrowdMap, "/api/v1/crowd/map"),
            (Class::Flows, "/api/v1/crowd/flows"),
            (Class::Tiles, "/api/v1/tiles/:z/:x/:y"),
            (Class::Checkins, "/api/v1/checkins"),
            (Class::Export, "/api/v1/export/checkins"),
            (Class::Epoch, "/api/v1/ingest/epoch"),
        ] {
            let filter = [("route", route)];
            let count = end.delta(&start, "crowdweb_http_request_seconds_count", &filter);
            let server_us = if count > 0.0 {
                end.delta(&start, "crowdweb_http_request_seconds_sum", &filter) * 1e6 / count
            } else {
                0.0
            };
            // Time-travel reads share the crowd route.
            let same_route =
                |c: Class| c == class || (class == Class::Crowd && c == Class::EpochRead);
            let mut client_us: Vec<f64> = self
                .samples
                .iter()
                .filter(|s| {
                    s.due_ns >= self.schedule.window_start_us * 1_000 && same_route(self.class(s))
                })
                .map(|s| s.done_ns.saturating_sub(s.sent_ns) as f64 / 1e3)
                .collect();
            client_us.extend(
                self.gate
                    .requests
                    .iter()
                    .filter(|r| same_route(r.class))
                    .map(|r| r.secs * 1e6),
            );
            let label = class.label();
            out.push(&format!("reactor.server_us.{label}"), server_us, "us");
            out.push(
                &format!("reactor.outside_us.{label}"),
                if client_us.is_empty() {
                    0.0
                } else {
                    mean(&client_us) - server_us
                },
                "us",
            );
        }
        let requests = end
            .delta(&start, "crowdweb_http_requests_total", &[])
            .max(1.0);
        out.push(
            "reactor.ticks_per_req",
            end.delta(&start, "crowdweb_server_reactor_tick_seconds_count", &[]) / requests,
            "ticks/req",
        );
        out.push(
            "reactor.keepalive_reuse_frac",
            end.delta(&start, "crowdweb_server_keepalive_reuses_total", &[]) / requests,
            "fraction",
        );
        out.push(
            "reactor.streamed_bytes",
            end.delta(&start, "crowdweb_http_streamed_body_bytes_total", &[]),
            "bytes",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn non_finite_metrics_read_zero() {
        let mut m = Metrics::default();
        m.push("x", f64::NAN, "ms");
        assert_eq!(m.0[0].1, 0.0);
    }
}
