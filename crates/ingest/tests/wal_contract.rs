//! The WAL contract on both engines: segments are the only durable copy
//! of the records. Epochs and reopens write no checkpoint, a log in the
//! earlier checkpoint layout replays each record once and is never
//! rewritten, and replay is identical under any parallelism policy.

use crowdweb_dataset::{Dataset, MergeRecord, Timestamp};
use crowdweb_exec::Parallelism;
use crowdweb_ingest::{
    shard_of, IngestConfig, IngestEngine, IngestError, PlatformSnapshot, ShardedIngestEngine,
    SubmitReceipt, Wal, WalConfig, WalEntry,
};
use crowdweb_obs::MetricsRegistry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "crowdweb-wal-contract-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn config() -> IngestConfig {
    let mut c = IngestConfig::default();
    c.preprocessor = c.preprocessor.min_active_days(20);
    c
}

fn base() -> Dataset {
    crowdweb_synth::SynthConfig::small(51).generate().unwrap()
}

fn shifted_records(d: &Dataset, shift_secs: i64, n: usize) -> Vec<MergeRecord> {
    d.checkins()
        .iter()
        .step_by(97)
        .take(n)
        .map(|c| {
            let v = d.venue(c.venue()).unwrap();
            MergeRecord {
                user: c.user(),
                venue_key: v.name().to_owned(),
                category: d.taxonomy().name_of(v.category()).unwrap().to_owned(),
                location: v.location(),
                tz_offset_minutes: c.tz_offset_minutes(),
                time: Timestamp::from_unix_seconds(c.time().unix_seconds() + shift_secs),
            }
        })
        .collect()
}

/// Which engine a test drives: the plain one, or the sharded one with
/// this many shards.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Plain,
    Sharded(usize),
}

enum Engine {
    Plain(IngestEngine),
    Sharded(ShardedIngestEngine),
}

impl Engine {
    fn open(kind: Kind, config: IngestConfig) -> Result<Engine, IngestError> {
        match kind {
            Kind::Plain => IngestEngine::open(base(), config).map(Engine::Plain),
            Kind::Sharded(shards) => {
                ShardedIngestEngine::open(base(), IngestConfig { shards, ..config })
                    .map(Engine::Sharded)
            }
        }
    }

    fn submit(&self, records: Vec<MergeRecord>) -> SubmitReceipt {
        match self {
            Engine::Plain(e) => e.submit(records),
            Engine::Sharded(e) => e.submit(records),
        }
        .unwrap()
    }

    fn epoch(&self) {
        match self {
            Engine::Plain(e) => e.run_epoch(),
            Engine::Sharded(e) => e.run_epoch(),
        }
        .unwrap()
        .expect("non-empty queue");
    }

    fn snapshot(&self) -> Arc<PlatformSnapshot> {
        match self {
            Engine::Plain(e) => e.snapshot(),
            Engine::Sharded(e) => e.snapshot(),
        }
    }

    /// `(segment, checkpoint)` bytes as the engine's stats report them.
    fn wal_bytes(&self) -> (u64, u64) {
        match self {
            Engine::Plain(e) => {
                let s = e.stats();
                (s.wal_segment_bytes, s.wal_checkpoint_bytes)
            }
            Engine::Sharded(e) => {
                let s = e.stats();
                (s.wal_segment_bytes, s.wal_checkpoint_bytes)
            }
        }
    }
}

/// The crowd model of a cold build over the base plus `records`.
fn cold_crowd(records: &[MergeRecord]) -> String {
    let merged = base().merge_records(records).unwrap();
    let engine = IngestEngine::open(merged, config()).unwrap();
    serde_json::to_string(engine.snapshot().crowd()).unwrap()
}

fn crowd_json(engine: &Engine) -> String {
    serde_json::to_string(engine.snapshot().crowd()).unwrap()
}

/// Every file under `dir`, recursively, with its bytes.
fn files_under(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files.extend(files_under(&path));
        } else {
            files.insert(path.clone(), std::fs::read(&path).unwrap());
        }
    }
    files
}

fn named(files: &BTreeMap<PathBuf, Vec<u8>>, pred: impl Fn(&str) -> bool) -> Vec<&PathBuf> {
    files
        .keys()
        .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(&pred))
        .collect()
}

#[test]
fn durable_epochs_write_only_segments() {
    for kind in [Kind::Plain, Kind::Sharded(3)] {
        let dir = temp_dir("segments-only");
        let registry = MetricsRegistry::new();
        let mut cfg = config();
        // Small segments, so the run rotates through several.
        cfg.wal = Some(WalConfig::new(&dir).segment_bytes(2048));
        let engine = Engine::open(
            kind,
            IngestConfig {
                metrics: Some(registry.clone()),
                ..cfg.clone()
            },
        )
        .unwrap();
        let mut all = Vec::new();
        for round in 1..=4 {
            let batch = shifted_records(&base(), 3600 * round, 10);
            engine.submit(batch.clone());
            engine.epoch();
            all.extend(batch);
        }
        let files = files_under(&dir);
        assert!(
            named(&files, |n| n.starts_with("checkpoint")).is_empty(),
            "{kind:?}: an epoch wrote a checkpoint"
        );
        let segments = named(&files, |n| n.starts_with("seg-") && n.ends_with(".wal"));
        assert!(segments.len() > 1, "{kind:?}: segments did not rotate");
        let on_disk: u64 = segments.iter().map(|p| files[*p].len() as u64).sum();
        let appended = registry
            .counter_value("crowdweb_ingest_wal_appended_bytes_total", &[])
            .unwrap();
        assert_eq!(on_disk, appended, "{kind:?}: live segments != appended");
        assert_eq!(engine.wal_bytes(), (appended, 0), "{kind:?}");
        drop(engine);

        let reopened = Engine::open(kind, cfg).unwrap();
        assert_eq!(
            reopened.snapshot().dataset().len(),
            base().len() + all.len()
        );
        assert_eq!(crowd_json(&reopened), cold_crowd(&all), "{kind:?}");
        assert_eq!(
            files_under(&dir),
            files,
            "{kind:?}: the reopen rewrote the log"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn previous_checkpoint_layout_replays_once_and_is_never_rewritten() {
    // What an epoch at seq 8 left behind in the earlier layout: each log
    // holds a checkpoint of its entries up to its watermark, plus a
    // segment it had not yet deleted, with entries on both sides of it.
    const EPOCH_AT: u64 = 8;
    const SEGMENT_FROM: u64 = 5;
    for kind in [Kind::Plain, Kind::Sharded(2)] {
        let dir = temp_dir("legacy-layout");
        let records = shifted_records(&base(), 3600, 12);
        let entries: Vec<WalEntry> = records
            .iter()
            .enumerate()
            .map(|(i, record)| WalEntry {
                seq: i as u64 + 1,
                record: record.clone(),
            })
            .collect();
        let logs: Vec<(PathBuf, Vec<&WalEntry>)> = match kind {
            Kind::Plain => vec![(dir.clone(), entries.iter().collect())],
            Kind::Sharded(n) => (0..n)
                .map(|k| {
                    let routed = entries
                        .iter()
                        .filter(|e| shard_of(e.record.user, n) == k)
                        .collect();
                    (dir.join(format!("shard-{k}")), routed)
                })
                .collect(),
        };
        let mut straddles = false;
        for (log, routed) in &logs {
            let watermark = routed
                .iter()
                .map(|e| e.seq)
                .filter(|&seq| seq <= EPOCH_AT)
                .max()
                .unwrap_or(0);
            let mut text = format!("{{\"last_seq\":{watermark}}}\n");
            for entry in routed.iter().filter(|e| e.seq <= watermark) {
                text.push_str(&serde_json::to_string(entry).unwrap());
                text.push('\n');
            }
            std::fs::create_dir_all(log).unwrap();
            std::fs::write(log.join("checkpoint.jsonl"), text).unwrap();
            let segment: Vec<WalEntry> = routed
                .iter()
                .filter(|e| e.seq >= SEGMENT_FROM)
                .map(|e| (*e).clone())
                .collect();
            straddles |= segment.iter().any(|e| e.seq <= watermark)
                && segment.iter().any(|e| e.seq > watermark);
            let (mut wal, _) = Wal::open(&WalConfig::new(log)).unwrap();
            wal.append(&segment).unwrap();
        }
        assert!(straddles, "{kind:?}: no segment straddles its checkpoint");
        let before = files_under(&dir);

        let mut cfg = config();
        cfg.wal = Some(WalConfig::new(&dir));
        let engine = Engine::open(kind, cfg.clone()).unwrap();
        assert_eq!(
            engine.snapshot().dataset().len(),
            base().len() + records.len(),
            "{kind:?}: a record was applied twice"
        );
        assert_eq!(crowd_json(&engine), cold_crowd(&records), "{kind:?}");
        assert!(engine.wal_bytes().1 > 0, "{kind:?}: checkpoint not read");

        let more = shifted_records(&base(), 7200, 6);
        assert_eq!(engine.submit(more.clone()).first_seq, 13, "{kind:?}");
        engine.epoch();
        let after = files_under(&dir);
        for (path, bytes) in &before {
            assert_eq!(
                after.get(path),
                Some(bytes),
                "{kind:?}: {} changed",
                path.display()
            );
        }
        drop(engine);

        let reopened = Engine::open(kind, cfg).unwrap();
        let mut all = records.clone();
        all.extend(more);
        assert_eq!(crowd_json(&reopened), cold_crowd(&all), "{kind:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Builds the same 4-shard log in `dir`: an applied batch plus a tail
/// that never reached an epoch.
fn four_shard_log(dir: &Path) -> Vec<MergeRecord> {
    let mut cfg = config();
    cfg.shards = 4;
    cfg.wal = Some(WalConfig::new(dir));
    let engine = ShardedIngestEngine::open(base(), cfg).unwrap();
    let applied = shifted_records(engine.snapshot().dataset(), 3600, 20);
    let tail = shifted_records(engine.snapshot().dataset(), 10_800, 10);
    engine.submit(applied.clone()).unwrap();
    engine.run_epoch().unwrap().unwrap();
    engine.submit(tail.clone()).unwrap();
    let mut all = applied;
    all.extend(tail);
    all
}

#[test]
fn shard_replay_is_identical_across_policies() {
    let mut opened = Vec::new();
    for parallelism in [Parallelism::Sequential, Parallelism::Threads(4)] {
        let dir = temp_dir("policy");
        let records = four_shard_log(&dir);
        let mut cfg = config();
        cfg.shards = 4;
        cfg.parallelism = parallelism;
        cfg.wal = Some(WalConfig::new(&dir));
        let engine = ShardedIngestEngine::open(base(), cfg).unwrap();
        let snapshot = engine.snapshot();
        let next = engine.submit(records[..1].to_vec()).unwrap().first_seq;
        opened.push((
            serde_json::to_string(snapshot.crowd()).unwrap(),
            serde_json::to_string(snapshot.patterns()).unwrap(),
            snapshot.dataset().len(),
            next,
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert_eq!(opened[0], opened[1], "Threads(4) replay diverged");
    assert_eq!(opened[0].3, 31);
}

#[test]
fn corrupt_checkpoint_line_in_one_shard_fails_open() {
    let dir = temp_dir("corrupt-checkpoint");
    four_shard_log(&dir);
    std::fs::write(
        dir.join("shard-1").join("checkpoint.jsonl"),
        "{\"last_seq\":0}\nnot a wal entry\n",
    )
    .unwrap();
    let mut cfg = config();
    cfg.shards = 4;
    cfg.parallelism = Parallelism::Threads(4);
    cfg.wal = Some(WalConfig::new(&dir));
    match ShardedIngestEngine::open(base(), cfg) {
        Err(IngestError::Corrupt(_)) => {}
        Err(other) => panic!("expected Corrupt, got {other:?}"),
        Ok(_) => panic!("a corrupt checkpoint line must fail open"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
