//! The four workloads and the inputs each one is built from.
//!
//! A workload is a loadgen scenario (an embedded TOML file under
//! `workloads/`) plus what a scenario cannot express: whether the WAL is
//! on, how many check-ins are pre-built into it, and the cadence of bulk
//! exports. Every input is a pure function of the seed: the base dataset
//! is `SynthConfig::paper_nyc().seed(seed)` and the trace is
//! `Trace::synthesize` of the scenario with its seed replaced.

use crowdweb_dataset::{Dataset, MergeRecord, UserId};
use crowdweb_loadgen::{Phase, Scenario, Trace};
use crowdweb_synth::SynthConfig;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    toml: &'static str,
    /// Every accepted check-in is logged to a WAL with an fsync per
    /// submit.
    pub durable: bool,
    /// Check-ins pre-built into the WAL the server opens over (paper
    /// scale; `--quick` uses a fiftieth).
    pub prefill: usize,
    /// Seconds between bulk exports (0: none), the first a quarter
    /// period in. An export stalls the whole server while it streams,
    /// so a fixed cadence, like a periodic export job, keeps those
    /// stalls apart from each other and from the epoch triggers.
    pub export_every_secs: f64,
}

/// The workloads, in the order `repeat` runs them on even sets.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "read_ladder",
        toml: include_str!("../workloads/read_ladder.toml"),
        durable: false,
        prefill: 0,
        export_every_secs: 0.0,
    },
    Workload {
        name: "ingest_durable",
        toml: include_str!("../workloads/ingest_durable.toml"),
        durable: true,
        prefill: 0,
        export_every_secs: 0.0,
    },
    Workload {
        name: "commute_mixed",
        toml: include_str!("../workloads/commute_mixed.toml"),
        durable: false,
        prefill: 0,
        export_every_secs: 0.0,
    },
    Workload {
        name: "restart_export",
        toml: include_str!("../workloads/restart_export.toml"),
        durable: true,
        prefill: 120_000,
        export_every_secs: 10.0,
    },
];

/// Wall seconds of the unmeasured `warmup` phase at full scale.
pub const WARMUP_SECS: f64 = 3.0;

/// `--quick` multiplies every phase rate by this, so a debug build of
/// the server keeps up.
const QUICK_RATE: f64 = 0.1;

impl Workload {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The workload's scenario with its seed replaced by `seed` and its
    /// measured phases stretched to `seconds` of wall time. The warm-up
    /// keeps its [`WARMUP_SECS`] unless `quick`, which also scales it
    /// and every rate down.
    ///
    /// # Panics
    ///
    /// Panics if the embedded TOML does not parse; the unit tests pin
    /// that it does.
    pub fn scenario(&self, seed: u64, seconds: f64, quick: bool) -> Scenario {
        let mut scenario =
            Scenario::from_toml_str(self.toml).expect("embedded workload scenarios parse");
        scenario.seed = seed;
        let measured: f64 = scenario
            .phases
            .iter()
            .filter(|p| !is_warmup(&p.name))
            .map(|p| scenario.wall_secs(p))
            .sum();
        let scale = seconds / measured;
        let compression = scenario.time_compression;
        for phase in &mut scenario.phases {
            if is_warmup(&phase.name) {
                phase.virtual_secs = WARMUP_SECS * compression;
                if quick {
                    phase.virtual_secs *= scale;
                }
            } else {
                phase.virtual_secs *= scale;
            }
            if quick {
                phase.start_rps *= QUICK_RATE;
                phase.end_rps *= QUICK_RATE;
            }
        }
        scenario
    }

    /// The base dataset the server loads.
    ///
    /// # Errors
    ///
    /// Propagates synthesis failures.
    pub fn dataset(seed: u64, quick: bool) -> Result<Dataset, String> {
        let config = if quick {
            SynthConfig::small(seed)
        } else {
            SynthConfig::paper_nyc().seed(seed)
        };
        config
            .generate()
            .map_err(|e| format!("dataset synthesis: {e}"))
    }

    /// The server's activity filter: the paper's 50 days, or 20 for the
    /// 91-day `--quick` dataset.
    pub fn min_active_days(quick: bool) -> usize {
        if quick {
            20
        } else {
            50
        }
    }

    /// The check-ins pre-built into this workload's WAL, in submit
    /// order: write-only trace events from the base dataset's users,
    /// spread over the first two months of the study.
    pub fn prefill_records(&self, seed: u64, quick: bool) -> Result<Vec<MergeRecord>, String> {
        let count = if quick {
            self.prefill / 50
        } else {
            self.prefill
        };
        if count == 0 {
            return Ok(Vec::new());
        }
        let base = self.scenario(seed, 1.0, false);
        let wall_secs = 10.0;
        let virtual_secs = 60.0 * 86_400.0;
        let scenario = Scenario {
            name: format!("{}-prefill", self.name),
            seed: seed ^ 0x5EED_F111,
            time_compression: virtual_secs / wall_secs,
            start_day_offset: 0,
            epoch_every_secs: 0.0,
            phases: vec![Phase {
                name: "prefill".to_owned(),
                virtual_secs,
                start_rps: count as f64 / wall_secs,
                end_rps: count as f64 / wall_secs,
                write_fraction: 1.0,
                surge: None,
                surge_weight: 0.0,
            }],
            ..base
        };
        let trace = Trace::synthesize(&scenario).map_err(|e| e.to_string())?;
        trace
            .events
            .iter()
            .map(|e| record_from_body(e.body.as_deref().unwrap_or_default()))
            .collect()
    }
}

/// Whether a phase is the unmeasured warm-up.
pub fn is_warmup(phase: &str) -> bool {
    phase == "warmup"
}

/// Whether a phase belongs to a capacity ladder (`step-*`, `drain-*`):
/// measured, but left out of the latency metrics.
pub fn is_ladder(phase: &str) -> bool {
    phase.starts_with("step-") || phase.starts_with("drain-")
}

/// Parses a `POST /checkins` body into the record the server merges.
/// This is the reference side of the correctness gate, written against
/// the documented check-in schema rather than the server's own parser:
/// `category` defaults to `"Unknown"`, `tz_offset_minutes` to 0.
///
/// # Errors
///
/// Rejects bodies that are not a check-in object.
pub fn record_from_body(body: &str) -> Result<MergeRecord, String> {
    let v: serde_json::Value =
        serde_json::from_str(body).map_err(|e| format!("check-in body: {e}"))?;
    let field = |key: &str| format!("check-in body lacks {key}: {body}");
    let user = v["user"].as_u64().ok_or_else(|| field("user"))?;
    let lat = v["lat"].as_f64().ok_or_else(|| field("lat"))?;
    let lon = v["lon"].as_f64().ok_or_else(|| field("lon"))?;
    let time = v["time"].as_str().ok_or_else(|| field("time"))?;
    Ok(MergeRecord {
        user: UserId::new(u32::try_from(user).map_err(|_| field("a u32 user"))?),
        venue_key: v["venue"]
            .as_str()
            .ok_or_else(|| field("venue"))?
            .to_owned(),
        category: v["category"].as_str().unwrap_or("Unknown").to_owned(),
        location: crowdweb_geo::LatLon::new(lat, lon).map_err(|e| e.to_string())?,
        tz_offset_minutes: v["tz_offset_minutes"]
            .as_i64()
            .and_then(|m| i32::try_from(m).ok())
            .unwrap_or(0),
        time: crowdweb_dataset::tsv::parse_time(time).map_err(|e| e.to_string())?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_parses_and_fills_the_requested_window() {
        for w in WORKLOADS {
            let s = w.scenario(7, 20.0, false);
            assert_eq!(s.seed, 7);
            assert!(is_warmup(&s.phases[0].name), "{} starts warm", w.name);
            let warmup = s.wall_secs(&s.phases[0]);
            let measured = s.total_wall_secs() - warmup;
            assert!((warmup - WARMUP_SECS).abs() < 1e-9, "{}", w.name);
            assert!((measured - 20.0).abs() < 1e-9, "{}: {measured}", w.name);
            let quick = w.scenario(7, 2.0, true);
            assert!(quick.total_wall_secs() < 2.5, "{}", w.name);
        }
    }

    #[test]
    fn prefill_bodies_become_records() {
        let w = Workload::named("restart_export").unwrap();
        let records = w.prefill_records(3, true).unwrap();
        assert_eq!(records.len(), w.prefill / 50);
        assert!(records.iter().all(|r| r.user.raw() < 1083));
        assert!(Workload::named("read_ladder")
            .unwrap()
            .prefill_records(3, true)
            .unwrap()
            .is_empty());
    }
}
