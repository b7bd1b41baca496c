//! Multi-city tenancy and sparse-grid guarantees, end to end:
//!
//! - two cities ingest **concurrently** over real TCP without
//!   cross-contaminating each other's snapshots;
//! - per-city WAL roots recover independently after a restart;
//! - a formerly-`GridTooLarge` resolution now builds and serves
//!   `/api/v1/cities/{id}/crowd/map` over TCP;
//! - on such a sparse grid, every retained epoch materializes
//!   byte-identically under Sequential vs Threads(4) and shards(1) vs
//!   shards(4). (Dense-vs-sparse backing equivalence on one grid is
//!   pinned by the `CellStore` proptests in `crowdweb-geo` and the
//!   crowd-model backing test in `crowdweb-crowd`.)

use crowdweb::dataset::MergeRecord;
use crowdweb::ingest::{IngestConfig, ShardedIngestEngine, WalConfig};
use crowdweb::prelude::*;
use crowdweb_server::Server;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "crowdweb-tenancy-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config() -> IngestConfig {
    let mut c = IngestConfig::default();
    c.preprocessor = c.preprocessor.min_active_days(20);
    c
}

/// Clones every 37th check-in, shifted in time, as a merge batch.
fn shifted_records(d: &Dataset, shift_secs: i64, n: usize) -> Vec<MergeRecord> {
    d.checkins()
        .iter()
        .step_by(37)
        .take(n)
        .map(|c| {
            let v = d.venue(c.venue()).unwrap();
            MergeRecord {
                user: c.user(),
                venue_key: v.name().to_owned(),
                category: "Office".to_owned(),
                location: v.location(),
                tz_offset_minutes: c.tz_offset_minutes(),
                time: Timestamp::from_unix_seconds(c.time().unix_seconds() + shift_secs),
            }
        })
        .collect()
}

fn request(addr: SocketAddr, raw: String) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    let mut buf = String::new();
    stream.read_to_string(&mut buf).unwrap();
    let code = buf
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let (head, body) = buf.split_once("\r\n\r\n").unwrap_or((buf.as_str(), ""));
    let body = if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        decode_chunked(body)
    } else {
        body.to_owned()
    };
    (code, body)
}

/// Decodes an HTTP/1.1 chunked body (a streamed endpoint, such as the
/// check-in export, frames with `Transfer-Encoding: chunked` instead of
/// `Content-Length`).
fn decode_chunked(mut rest: &str) -> String {
    let mut out = String::new();
    while let Some((size_line, tail)) = rest.split_once("\r\n") {
        let size = usize::from_str_radix(size_line.trim(), 16).unwrap_or(0);
        if size == 0 {
            break;
        }
        out.push_str(&tail[..size]);
        rest = &tail[size + 2..]; // past the chunk data and its CRLF
    }
    out
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    request(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    request(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// A batch of `n` check-in JSON objects at a city-distinct venue.
/// Every record is unique (distinct user per batch slot) so merge
/// dedup can never shrink the count.
fn checkin_batch(tag: &str, batch: usize, n: usize) -> String {
    let offset = if tag == "nyc" { 10_000 } else { 20_000 };
    let items: Vec<String> = (0..n)
        .map(|i| {
            format!(
                r#"{{"user": {}, "venue": "{tag}-venue-{}", "lat": 40.7, "lon": -74.0,
                     "time": "Tue Apr 03 1{}:00:09 +0000 2012"}}"#,
                offset + batch * 100 + i,
                i % 7,
                i % 10
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

fn total_checkins(addr: SocketAddr, city: &str) -> u64 {
    let (code, body) = get(addr, &format!("/api/v1/cities/{city}/stats"));
    assert_eq!(code, 200, "{body}");
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    v["total_checkins"].as_u64().unwrap()
}

fn epoch_of(addr: SocketAddr, city: &str) -> u64 {
    let (code, body) = get(addr, &format!("/api/v1/cities/{city}/healthz"));
    assert_eq!(code, 200, "{body}");
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    v["epoch"].as_u64().unwrap()
}

#[test]
fn concurrent_city_ingest_never_cross_contaminates() {
    let nyc = SynthConfig::small(71).generate().unwrap();
    let tokyo = SynthConfig::small(82).generate().unwrap();
    let mut state = AppState::build(nyc, 20).unwrap();
    state.add_city("tokyo", tokyo, config()).unwrap();
    let (addr, _handle, _join) = Server::bind("127.0.0.1:0", state).unwrap().spawn();

    let nyc_before = total_checkins(addr, "nyc");
    let tokyo_before = total_checkins(addr, "tokyo");

    // Two writers hammer their own city at the same time, batch by
    // batch, then publish an epoch each.
    const BATCHES: usize = 8;
    const PER_BATCH: usize = 5;
    std::thread::scope(|scope| {
        for city in ["nyc", "tokyo"] {
            scope.spawn(move || {
                for batch in 0..BATCHES {
                    let (code, body) = post(
                        addr,
                        &format!("/api/v1/cities/{city}/checkins"),
                        &checkin_batch(city, batch, PER_BATCH),
                    );
                    assert_eq!(code, 200, "{city}: {body}");
                }
                let (code, body) = post(addr, &format!("/api/v1/cities/{city}/ingest/epoch"), "");
                assert_eq!(code, 200, "{city}: {body}");
            });
        }
    });

    // Every write landed in its own city — and only there.
    let wrote = (BATCHES * PER_BATCH) as u64;
    assert_eq!(epoch_of(addr, "nyc"), 1);
    assert_eq!(epoch_of(addr, "tokyo"), 1);
    assert_eq!(total_checkins(addr, "nyc"), nyc_before + wrote);
    assert_eq!(total_checkins(addr, "tokyo"), tokyo_before + wrote);

    // The crowd surfaces stay distinct datasets, not one merged blob.
    let (_, nyc_crowd) = get(addr, "/api/v1/cities/nyc/crowd?hour=9");
    let (_, tokyo_crowd) = get(addr, "/api/v1/cities/tokyo/crowd?hour=9");
    assert_ne!(nyc_crowd, tokyo_crowd);
}

#[test]
fn per_city_wal_recovery_replays_independently() {
    let dir = temp_dir("recovery");
    let build = || {
        let mut cfg = config();
        cfg.wal = Some(WalConfig::new(&dir));
        let mut state =
            AppState::with_config(SynthConfig::small(71).generate().unwrap(), cfg).unwrap();
        let mut cfg = config();
        cfg.wal = Some(WalConfig::new(&dir)); // scoped to <dir>/tokyo by add_city
        state
            .add_city("tokyo", SynthConfig::small(82).generate().unwrap(), cfg)
            .unwrap();
        state
    };

    let state = build();
    let nyc_records = shifted_records(state.default_city().snapshot().dataset(), 1800, 25);
    let tokyo_records =
        shifted_records(state.city("tokyo").unwrap().snapshot().dataset(), 7200, 30);
    state.default_city().engine().submit(nyc_records).unwrap();
    state.default_city().engine().run_epoch().unwrap().unwrap();
    let tokyo = state.city("tokyo").unwrap();
    tokyo.engine().submit(tokyo_records).unwrap();
    tokyo.engine().run_epoch().unwrap().unwrap();
    let nyc_crowd = serde_json::to_string(state.default_city().snapshot().crowd()).unwrap();
    let tokyo_crowd = serde_json::to_string(tokyo.snapshot().crowd()).unwrap();
    drop(state);

    // A fresh process over the same WAL roots replays each city from
    // its own directory — neither sees the other's records.
    let recovered = build();
    assert_eq!(
        serde_json::to_string(recovered.default_city().snapshot().crowd()).unwrap(),
        nyc_crowd,
        "default-city recovery diverged"
    );
    assert_eq!(
        serde_json::to_string(recovered.city("tokyo").unwrap().snapshot().crowd()).unwrap(),
        tokyo_crowd,
        "tokyo recovery diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn formerly_too_large_grid_serves_crowd_map_over_tcp() {
    // 8192 x 8192 = 2^26 cells — over the old 2^24 hard cap, so this
    // exact configuration used to die at startup with GridTooLarge.
    let mut cfg = config();
    cfg.grid_rows = 8192;
    cfg.grid_cols = 8192;
    let mut state =
        AppState::with_config(SynthConfig::small(71).generate().unwrap(), cfg.clone()).unwrap();
    state
        .add_city("tokyo", SynthConfig::small(82).generate().unwrap(), cfg)
        .unwrap();
    let (addr, _handle, _join) = Server::bind("127.0.0.1:0", state).unwrap().spawn();

    for city in ["nyc", "tokyo"] {
        let (code, body) = get(addr, &format!("/api/v1/cities/{city}/crowd/map?hour=9"));
        assert_eq!(code, 200, "{city}: {body}");
        assert!(body.starts_with("<svg"), "{city}: not an SVG map");
        let (code, body) = get(addr, &format!("/api/v1/cities/{city}/crowd?hour=9"));
        assert_eq!(code, 200);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert!(
            !v["cells"].as_array().unwrap().is_empty(),
            "{city}: sub-meter grid lost every placement"
        );
    }
}

#[test]
fn retained_epochs_identical_on_sparse_grids_across_policies() {
    // The byte-identity gate at a formerly-GridTooLarge resolution:
    // every retained epoch, not just the head, must materialize
    // identically whatever the parallelism policy or shard count.
    let base = SynthConfig::small(71).generate().unwrap();
    let first = shifted_records(&base, 1800, 25);
    let second = shifted_records(&base, 7200, 25);

    let mut runs: Vec<(String, Vec<String>)> = Vec::new();
    for parallelism in [Parallelism::Sequential, Parallelism::Threads(4)] {
        for shards in [1usize, 4] {
            let mut cfg = config();
            cfg.grid_rows = 8192;
            cfg.grid_cols = 8192;
            cfg.parallelism = parallelism;
            cfg.shards = shards;
            let engine = ShardedIngestEngine::open(base.clone(), cfg).unwrap();
            engine.submit(first.clone()).unwrap();
            engine.run_epoch().unwrap().expect("first epoch");
            engine.submit(second.clone()).unwrap();
            engine.run_epoch().unwrap().expect("second epoch");
            let materialized: Vec<String> = engine
                .epochs()
                .iter()
                .map(|info| {
                    let model = engine.crowd_at(info.epoch).expect("retained epoch");
                    serde_json::to_string(&*model).unwrap()
                })
                .collect();
            assert!(
                materialized.len() >= 2,
                "expected at least two retained epochs"
            );
            runs.push((format!("{parallelism:?}/shards={shards}"), materialized));
        }
    }
    let (reference_label, reference) = &runs[0];
    for (label, materialized) in &runs[1..] {
        assert_eq!(
            materialized, reference,
            "{label} diverged from {reference_label}"
        );
    }
}
