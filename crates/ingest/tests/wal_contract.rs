//! The WAL contract: segments are the only durable copy of the records.
//! Epochs and reopens write no checkpoint, a log in the earlier
//! checkpoint layout replays each record once and is never rewritten
//! (an unsharded one in the WAL root is folded into the shards once),
//! and replay is identical under any parallelism policy.

use crowdweb_dataset::{Dataset, MergeRecord, Timestamp};
use crowdweb_exec::Parallelism;
use crowdweb_ingest::{
    shard_of, IngestConfig, IngestError, ShardedIngestEngine, Wal, WalConfig, WalEntry,
};
use crowdweb_obs::MetricsRegistry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

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

fn open(shards: usize, config: IngestConfig) -> ShardedIngestEngine {
    ShardedIngestEngine::open(base(), IngestConfig { shards, ..config }).unwrap()
}

/// The crowd model of a cold build over the base plus `records`.
fn cold_crowd(records: &[MergeRecord]) -> String {
    let merged = base().merge_records(records).unwrap();
    let engine = ShardedIngestEngine::open(merged, config()).unwrap();
    serde_json::to_string(engine.snapshot().crowd()).unwrap()
}

fn crowd_json(engine: &ShardedIngestEngine) -> String {
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

/// `(segment, checkpoint)` bytes as the engine's stats report them.
fn wal_bytes(engine: &ShardedIngestEngine) -> (u64, u64) {
    let s = engine.stats();
    (s.wal_segment_bytes, s.wal_checkpoint_bytes)
}

#[test]
fn durable_epochs_write_only_segments() {
    for shards in [1usize, 3] {
        let dir = temp_dir("segments-only");
        let registry = MetricsRegistry::new();
        let mut cfg = config();
        // Small segments, so the run rotates through several.
        cfg.wal = Some(WalConfig::new(&dir).segment_bytes(2048));
        let engine = open(
            shards,
            IngestConfig {
                metrics: Some(registry.clone()),
                ..cfg.clone()
            },
        );
        let mut all = Vec::new();
        for round in 1..=4 {
            let batch = shifted_records(&base(), 3600 * round, 10);
            engine.submit(batch.clone()).unwrap();
            engine.run_epoch().unwrap().expect("non-empty queue");
            all.extend(batch);
        }
        let files = files_under(&dir);
        assert!(
            named(&files, |n| n.starts_with("checkpoint")).is_empty(),
            "{shards} shards: an epoch wrote a checkpoint"
        );
        let segments = named(&files, |n| n.starts_with("seg-") && n.ends_with(".wal"));
        assert!(
            segments.len() > 1,
            "{shards} shards: segments did not rotate"
        );
        let on_disk: u64 = segments.iter().map(|p| files[*p].len() as u64).sum();
        let appended = registry
            .counter_value("crowdweb_ingest_wal_appended_bytes_total", &[])
            .unwrap();
        assert_eq!(
            on_disk, appended,
            "{shards} shards: live segments != appended"
        );
        assert_eq!(wal_bytes(&engine), (appended, 0), "{shards} shards");
        drop(engine);

        let reopened = open(shards, cfg);
        assert_eq!(
            reopened.snapshot().dataset().len(),
            base().len() + all.len()
        );
        assert_eq!(crowd_json(&reopened), cold_crowd(&all), "{shards} shards");
        assert_eq!(
            files_under(&dir),
            files,
            "{shards} shards: the reopen rewrote the log"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Where a log in the earlier checkpoint layout lives.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// In the WAL root, as the unsharded engine of earlier releases
    /// wrote it.
    Root,
    /// In the `shard-<k>` directories of this many shards.
    Shards(usize),
}

#[test]
fn previous_checkpoint_layout_replays_once_and_is_never_rewritten() {
    // What an epoch at seq 8 left behind in the earlier layout: each log
    // holds a checkpoint of its entries up to its watermark, plus a
    // segment it had not yet deleted, with entries on both sides of it.
    const EPOCH_AT: u64 = 8;
    const SEGMENT_FROM: u64 = 5;
    // A root log is opened by 1 and by 2 shards: the open folds it into
    // the shards once and deletes it.
    for (layout, shards) in [(Layout::Shards(2), 2), (Layout::Root, 1), (Layout::Root, 2)] {
        let case = format!("{layout:?} at {shards} shards");
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
        let logs: Vec<(PathBuf, Vec<&WalEntry>)> = match layout {
            Layout::Root => vec![(dir.clone(), entries.iter().collect())],
            Layout::Shards(n) => (0..n)
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
        assert!(straddles, "{case}: no segment straddles its checkpoint");
        let before = files_under(&dir);

        let mut cfg = config();
        cfg.wal = Some(WalConfig::new(&dir));
        let engine = open(shards, cfg.clone());
        assert_eq!(
            engine.snapshot().dataset().len(),
            base().len() + records.len(),
            "{case}: a record was applied twice"
        );
        assert_eq!(crowd_json(&engine), cold_crowd(&records), "{case}");
        assert!(wal_bytes(&engine).1 > 0, "{case}: checkpoint not read");
        // What later epochs and opens must never rewrite: the shard logs
        // as found, or, for a root log, the shard logs the fold left.
        let kept = match layout {
            Layout::Shards(_) => before,
            Layout::Root => {
                let root_files: Vec<PathBuf> = std::fs::read_dir(&dir)
                    .unwrap()
                    .map(|e| e.unwrap().path())
                    .filter(|p| p.is_file())
                    .collect();
                assert!(
                    root_files.is_empty(),
                    "{case}: the root log was not folded away: {root_files:?}"
                );
                files_under(&dir)
            }
        };

        let more = shifted_records(&base(), 7200, 6);
        assert_eq!(engine.submit(more.clone()).unwrap().first_seq, 13, "{case}");
        engine.run_epoch().unwrap().expect("non-empty queue");
        let after = files_under(&dir);
        for (path, bytes) in &kept {
            assert_eq!(
                after.get(path),
                Some(bytes),
                "{case}: {} changed",
                path.display()
            );
        }
        drop(engine);

        let reopened = open(shards, cfg);
        let mut all = records.clone();
        all.extend(more);
        assert_eq!(crowd_json(&reopened), cold_crowd(&all), "{case}");
        assert_eq!(
            files_under(&dir),
            after,
            "{case}: the reopen rewrote the log"
        );
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
