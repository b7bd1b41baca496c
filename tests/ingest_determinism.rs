//! End-to-end guarantees of the live ingestion subsystem: an epoch
//! snapshot is byte-identical to a cold pipeline build over the merged
//! dataset (under any parallelism policy), epochs chain, and WAL
//! recovery — including a torn final record — reaches the same state.

use crowdweb::dataset::MergeRecord;
use crowdweb::ingest::{shard_of, IngestConfig, ShardedIngestEngine, WalConfig};
use crowdweb::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "crowdweb-ingest-e2e-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(parallelism: Parallelism) -> IngestConfig {
    let mut c = IngestConfig::default();
    c.preprocessor = c.preprocessor.min_active_days(20);
    c.parallelism = parallelism;
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

fn cold(dataset: &Dataset, parallelism: Parallelism) -> PipelineOutput {
    PipelineDriver::new(0.15)
        .unwrap()
        .preprocessor(Preprocessor::new().min_active_days(20))
        .windows(TimeWindows::hourly())
        .grid(BoundingBox::NYC, 20, 20)
        .parallelism(parallelism)
        .run(dataset)
        .unwrap()
}

fn crowd_json(model: &CrowdModel) -> String {
    serde_json::to_string(model).unwrap()
}

#[test]
fn sharded_snapshots_match_unsharded_and_cold_build() {
    // The tentpole determinism criterion: shards(4) == shards(1) ==
    // cold rebuild, byte for byte, under Sequential and Threads(4).
    for parallelism in [Parallelism::Sequential, Parallelism::Threads(4)] {
        let base = SynthConfig::small(71).generate().unwrap();
        let records = shifted_records(&base, 3600, 40);
        let merged = base.merge_records(&records).unwrap();
        let out = cold(&merged, parallelism);

        let mut snapshots = Vec::new();
        for shards in [4usize, 1] {
            let mut cfg = config(parallelism);
            cfg.shards = shards;
            let engine = ShardedIngestEngine::open(base.clone(), cfg).unwrap();
            assert_eq!(engine.shard_count(), shards);
            engine.submit(records.clone()).unwrap();
            engine.run_epoch().unwrap().expect("non-empty queue");
            snapshots.push((shards, engine.snapshot()));
        }
        for (shards, snap) in &snapshots {
            assert_eq!(
                crowd_json(snap.crowd()),
                crowd_json(&out.crowd),
                "{parallelism:?} crowd diverged from cold build at {shards} shards"
            );
            assert_eq!(
                serde_json::to_string(snap.patterns()).unwrap(),
                serde_json::to_string(&out.patterns).unwrap(),
                "{parallelism:?} patterns diverged from cold build at {shards} shards"
            );
        }
    }
}

#[test]
fn metrics_instrumentation_never_perturbs_epoch_output() {
    // Observability must stay out of the determinism story: an engine
    // with a metrics registry injected publishes byte-identical
    // snapshots to one without, while the registry fills up.
    let base = SynthConfig::small(76).generate().unwrap();
    let records = shifted_records(&base, 3600, 30);

    let registry = crowdweb::obs::MetricsRegistry::new();
    let mut observed_cfg = config(Parallelism::Threads(4));
    observed_cfg.metrics = Some(registry.clone());
    let observed = ShardedIngestEngine::open(base.clone(), observed_cfg).unwrap();
    observed.submit(records.clone()).unwrap();
    observed.run_epoch().unwrap().expect("non-empty queue");

    let plain = ShardedIngestEngine::open(base, config(Parallelism::Threads(4))).unwrap();
    plain.submit(records).unwrap();
    plain.run_epoch().unwrap().expect("non-empty queue");

    assert_eq!(
        crowd_json(observed.snapshot().crowd()),
        crowd_json(plain.snapshot().crowd()),
        "metrics injection changed the crowd model"
    );
    assert_eq!(
        serde_json::to_string(observed.snapshot().patterns()).unwrap(),
        serde_json::to_string(plain.snapshot().patterns()).unwrap(),
        "metrics injection changed mined patterns"
    );
    // And the registry actually observed the run.
    assert!(
        registry
            .counter_value("crowdweb_ingest_accepted_total", &[])
            .unwrap_or(0)
            > 0
    );
    assert!(registry
        .render()
        .contains("crowdweb_pipeline_stage_seconds_bucket"));
}

#[test]
fn chained_epochs_match_one_shot_cold_build() {
    let base = SynthConfig::small(72).generate().unwrap();
    let first = shifted_records(&base, 1800, 25);
    let second = shifted_records(&base, 7200, 25);
    let mut all = first.clone();
    all.extend(second.iter().cloned());
    let merged = base.merge_records(&all).unwrap();

    let engine = ShardedIngestEngine::open(base, config(Parallelism::Sequential)).unwrap();
    engine.submit(first).unwrap();
    engine.run_epoch().unwrap().expect("first epoch");
    engine.submit(second).unwrap();
    let report = engine.run_epoch().unwrap().expect("second epoch");
    assert_eq!(report.epoch, 2);

    let out = cold(&merged, Parallelism::Sequential);
    assert_eq!(
        crowd_json(engine.snapshot().crowd()),
        crowd_json(&out.crowd)
    );
}

#[test]
fn app_state_cold_build_matches_engine_epoch() {
    let base = SynthConfig::small(75).generate().unwrap();
    let records = shifted_records(&base, 3600, 30);
    let merged = base.merge_records(&records).unwrap();

    let state = AppState::build(base, 20).unwrap();
    state.engine().submit(records).unwrap();
    state
        .engine()
        .run_epoch()
        .unwrap()
        .expect("non-empty queue");

    let cold_state = AppState::build(merged, 20).unwrap();
    assert_eq!(
        crowd_json(state.snapshot().crowd()),
        crowd_json(cold_state.snapshot().crowd())
    );
}

#[test]
fn wal_replay_after_crash_reaches_cold_build_state() {
    let dir = temp_dir("crash");
    let base = SynthConfig::small(73).generate().unwrap();
    let applied = shifted_records(&base, 3600, 20);
    let tail = shifted_records(&base, 10800, 15);
    let mut all = applied.clone();
    all.extend(tail.iter().cloned());
    let merged = base.merge_records(&all).unwrap();

    let mut cfg = config(Parallelism::Sequential);
    cfg.wal = Some(WalConfig::new(&dir));
    let engine = ShardedIngestEngine::open(base.clone(), cfg.clone()).unwrap();
    engine.submit(applied).unwrap();
    engine.run_epoch().unwrap().expect("first epoch");
    engine.submit(tail).unwrap();
    // Crash before the second epoch: the tail lives only in the WAL.
    drop(engine);

    let engine = ShardedIngestEngine::open(base, cfg).unwrap();
    let out = cold(&merged, Parallelism::Sequential);
    assert_eq!(
        crowd_json(engine.snapshot().crowd()),
        crowd_json(&out.crowd)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_shard_tail_leaves_other_shards_intact() {
    // A torn tail in one shard's WAL must lose only that shard's final
    // record: the other shards replay fully — including records with
    // HIGHER sequence numbers than the torn one — and the reconciled
    // global sequence continues past everything that survived.
    const SHARDS: usize = 4;
    let dir = temp_dir("torn-shard");
    let base = SynthConfig::small(74).generate().unwrap();
    let records = shifted_records(&base, 3600, 24);
    let mut cfg = config(Parallelism::Sequential);
    cfg.shards = SHARDS;
    cfg.wal = Some(WalConfig::new(&dir));
    let engine = ShardedIngestEngine::open(base.clone(), cfg.clone()).unwrap();
    engine.submit(records.clone()).unwrap();
    // Crash before any epoch: everything lives only in the shard WALs.
    drop(engine);

    // Tear a shard that does NOT hold the globally last record, so the
    // survivors include sequence numbers above the torn one.
    let last_index_by_shard =
        |k: usize| records.iter().rposition(|r| shard_of(r.user, SHARDS) == k);
    let torn_shard = (0..SHARDS)
        .find(|&k| last_index_by_shard(k).is_some_and(|i| i < records.len() - 1))
        .expect("more than one shard holds records");
    let lost_index = last_index_by_shard(torn_shard).unwrap();
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir.join(format!("shard-{torn_shard}")))
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "wal"))
        .collect();
    segs.sort();
    let last = segs.last().expect("a live segment on the torn shard");
    let len = std::fs::metadata(last).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(last).unwrap();
    f.set_len(len - 3).unwrap();
    drop(f);

    let engine = ShardedIngestEngine::open(base.clone(), cfg).unwrap();
    let survivors: Vec<MergeRecord> = records
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != lost_index)
        .map(|(_, r)| r.clone())
        .collect();
    let merged = base.merge_records(&survivors).unwrap();
    let out = cold(&merged, Parallelism::Sequential);
    assert_eq!(
        crowd_json(engine.snapshot().crowd()),
        crowd_json(&out.crowd),
        "recovery must keep every record except the torn shard's tail"
    );
    // The other shards were not rewound: the globally last record
    // survived, so the next sequence number continues after it.
    let receipt = engine.submit(shifted_records(&base, 7200, 1)).unwrap();
    assert_eq!(receipt.first_seq, records.len() as u64 + 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_wal_tail_recovers_the_intact_prefix() {
    let dir = temp_dir("torn");
    let base = SynthConfig::small(74).generate().unwrap();
    let records = shifted_records(&base, 3600, 12);
    let mut cfg = config(Parallelism::Sequential);
    cfg.shards = 1;
    cfg.wal = Some(WalConfig::new(&dir));
    let engine = ShardedIngestEngine::open(base.clone(), cfg.clone()).unwrap();
    engine.submit(records.clone()).unwrap();
    // Crash before any epoch, then tear the final record's frame.
    drop(engine);
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir.join("shard-0"))
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "wal"))
        .collect();
    segs.sort();
    let last = segs.last().expect("a live segment");
    let len = std::fs::metadata(last).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(last).unwrap();
    f.set_len(len - 3).unwrap();
    drop(f);

    let engine = ShardedIngestEngine::open(base.clone(), cfg).unwrap();
    let merged = base.merge_records(&records[..records.len() - 1]).unwrap();
    let out = cold(&merged, Parallelism::Sequential);
    assert_eq!(
        crowd_json(engine.snapshot().crowd()),
        crowd_json(&out.crowd)
    );
    std::fs::remove_dir_all(&dir).ok();
}
