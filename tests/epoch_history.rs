//! Determinism guarantees of the epoch history store: for every epoch
//! retained in the ring, `materialize(N)` — nearest full checkpoint
//! plus the replayed delta chain — must be byte-identical to a cold
//! pipeline rebuild over the first `N` epochs' merged dataset, under
//! any parallelism policy and any shard count, and eviction must only
//! ever narrow the retained range from the oldest end.

use crowdweb::dataset::MergeRecord;
use crowdweb::ingest::{IngestConfig, ShardedIngestEngine};
use crowdweb::prelude::*;

fn config(parallelism: Parallelism) -> IngestConfig {
    let mut c = IngestConfig::default();
    c.preprocessor = c.preprocessor.min_active_days(20);
    c.parallelism = parallelism;
    // A short cadence so a handful of epochs exercises both
    // representations: full checkpoints and delta chains.
    c.checkpoint_every = 3;
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

/// One distinct batch per epoch: different shifts touch different
/// placements, so consecutive epochs genuinely differ.
fn batches(base: &Dataset, epochs: usize) -> Vec<Vec<MergeRecord>> {
    (0..epochs)
        .map(|i| shifted_records(base, 1800 * (i as i64 + 1), 12))
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
fn materialized_epochs_match_cold_rebuilds() {
    const EPOCHS: usize = 6;
    for parallelism in [Parallelism::Sequential, Parallelism::Threads(4)] {
        let base = SynthConfig::small(71).generate().unwrap();
        let batches = batches(&base, EPOCHS);

        let engine = ShardedIngestEngine::open(base.clone(), config(parallelism)).unwrap();
        for batch in &batches {
            engine.submit(batch.clone()).unwrap();
            engine.run_epoch().unwrap().expect("non-empty queue");
        }
        assert_eq!(engine.epoch(), EPOCHS as u64);
        assert_eq!(engine.history().retained(), (0, EPOCHS as u64));

        // Epoch N == a cold rebuild over base + the first N batches.
        let mut applied: Vec<MergeRecord> = Vec::new();
        for n in 0..=EPOCHS {
            if n > 0 {
                applied.extend(batches[n - 1].iter().cloned());
            }
            let merged = base.merge_records(&applied).unwrap();
            let out = cold(&merged, parallelism);
            let got = engine.crowd_at(n as u64).expect("epoch retained");
            assert_eq!(
                crowd_json(&got),
                crowd_json(&out.crowd),
                "{parallelism:?}: epoch {n} diverged from its cold rebuild"
            );
        }
        // The newest materialization IS the live model.
        assert_eq!(
            crowd_json(&engine.crowd_at(EPOCHS as u64).unwrap()),
            crowd_json(engine.snapshot().crowd())
        );
    }
}

#[test]
fn sharded_history_matches_unsharded_and_cold_rebuilds() {
    const EPOCHS: usize = 5;
    for parallelism in [Parallelism::Sequential, Parallelism::Threads(4)] {
        let base = SynthConfig::small(71).generate().unwrap();
        let batches = batches(&base, EPOCHS);

        let mut engines = Vec::new();
        for shards in [1usize, 4] {
            let mut cfg = config(parallelism);
            cfg.shards = shards;
            let engine = ShardedIngestEngine::open(base.clone(), cfg).unwrap();
            for batch in &batches {
                engine.submit(batch.clone()).unwrap();
                engine.run_epoch().unwrap().expect("non-empty queue");
            }
            engines.push((shards, engine));
        }

        let mut applied: Vec<MergeRecord> = Vec::new();
        for n in 0..=EPOCHS {
            if n > 0 {
                applied.extend(batches[n - 1].iter().cloned());
            }
            let merged = base.merge_records(&applied).unwrap();
            let want = crowd_json(&cold(&merged, parallelism).crowd);
            for (shards, engine) in &engines {
                let got = engine.crowd_at(n as u64).expect("epoch retained");
                assert_eq!(
                    crowd_json(&got),
                    want,
                    "{parallelism:?}: epoch {n} diverged at {shards} shards"
                );
            }
        }
    }
}

#[test]
fn eviction_narrows_retention_from_the_oldest_end_only() {
    const EPOCHS: u64 = 9;
    let base = SynthConfig::small(72).generate().unwrap();
    let batches = batches(&base, EPOCHS as usize);
    let mut cfg = config(Parallelism::Sequential);
    cfg.history_depth = 4;
    let engine = ShardedIngestEngine::open(base, cfg).unwrap();

    // Capture each epoch's model as it is published.
    let mut published = vec![crowd_json(engine.snapshot().crowd())];
    for batch in &batches {
        engine.submit(batch.clone()).unwrap();
        engine.run_epoch().unwrap().expect("non-empty queue");
        published.push(crowd_json(engine.snapshot().crowd()));
    }

    assert_eq!(engine.history().retained(), (EPOCHS - 3, EPOCHS));
    let listing = engine.epochs();
    assert_eq!(listing.len(), 4);
    // The promote-on-evict fold keeps the front a checkpoint even when
    // the entry that fell out was the only full one in its chain.
    assert_eq!(listing[0].kind, "full");
    for n in 0..=EPOCHS {
        match engine.crowd_at(n) {
            Some(got) if n >= EPOCHS - 3 => assert_eq!(
                crowd_json(&got),
                published[n as usize],
                "retained epoch {n} must replay to its published model"
            ),
            None if n < EPOCHS - 3 => {}
            other => panic!("epoch {n}: unexpected retention {:?}", other.is_some()),
        }
    }
}
