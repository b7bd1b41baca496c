//! **History H1** — epoch history cost: publish (record) latency and
//! resident bytes of the delta-compressed history ring vs a full-model
//! ring, plus time-travel materialization latency for the oldest
//! (longest delta chain) and newest retained epochs.
//!
//! The delta ring stores a `CrowdSplice` per incremental epoch with a
//! full checkpoint every K; the full ring checkpoints every epoch —
//! its resident bytes are what retaining an owned model copy per epoch
//! would cost (`tests/epoch_history.rs` asserts both replay
//! byte-identically to cold rebuilds).
//!
//! Prints a cost table and writes it to `out/epoch_history.tsv`.

use criterion::{criterion_group, criterion_main, Criterion};
use crowdweb_bench::{banner, mid_context};
use crowdweb_crowd::CrowdModel;
use crowdweb_dataset::{Dataset, MergeRecord, Timestamp};
use crowdweb_ingest::{CrowdHistory, EpochMode, IngestConfig, ShardedIngestEngine};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const DEPTH: usize = 16;
const EPOCHS: usize = 16;
const BATCH: usize = 64;

fn config() -> IngestConfig {
    let mut c = IngestConfig::default();
    c.preprocessor = c.preprocessor.min_active_days(20);
    c.shards = 1;
    c
}

/// Clones existing check-ins, time-shifted by epoch, as ingest batches.
fn batch(dataset: &Dataset, n: usize, shift_secs: i64) -> Vec<MergeRecord> {
    let stride = (dataset.len() / n).max(1);
    dataset
        .checkins()
        .iter()
        .step_by(stride)
        .take(n)
        .map(|c| {
            let v = dataset.venue(c.venue()).unwrap();
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

/// Runs `EPOCHS` engine epochs and returns the published crowd model of
/// every epoch (0 = cold build), so history configurations can be
/// replayed over an identical model sequence.
fn epoch_models(dataset: &Dataset) -> Vec<Arc<CrowdModel>> {
    let engine = ShardedIngestEngine::open(dataset.clone(), config()).unwrap();
    let mut models = vec![engine.snapshot().crowd_arc()];
    for e in 0..EPOCHS {
        engine
            .submit(batch(dataset, BATCH, 1800 * (e as i64 + 1)))
            .unwrap();
        engine.run_epoch().unwrap().expect("non-empty queue");
        models.push(engine.snapshot().crowd_arc());
    }
    models
}

struct HistoryCost {
    record_mean_us: f64,
    resident_bytes: usize,
    chain_len: usize,
    chain_us: u128,
    checkpoint_us: u128,
}

/// Replays the model sequence into a fresh history ring and measures
/// record latency, steady-state resident bytes, and the two
/// materialization extremes.
fn measure(models: &[Arc<CrowdModel>], checkpoint_every: u64) -> HistoryCost {
    let history = CrowdHistory::new(Arc::clone(&models[0]), DEPTH, checkpoint_every, None);
    let mut record_us = 0u128;
    for (n, model) in models.iter().enumerate().skip(1) {
        let t0 = Instant::now();
        history.record(
            n as u64,
            &models[n - 1],
            Arc::clone(model),
            EpochMode::Incremental,
            BATCH,
        );
        record_us += t0.elapsed().as_micros();
    }
    let listing = history.epochs();
    let resident_bytes = listing.iter().map(|e| e.resident_bytes).sum();
    // The two replay extremes: the epoch at the end of the longest
    // delta chain, and a checkpoint (returned by shared Arc).
    let mut chain = (listing[0].epoch, 0usize);
    let mut since_full = 0usize;
    for e in &listing {
        since_full = if e.kind == "full" { 0 } else { since_full + 1 };
        if since_full >= chain.1 {
            chain = (e.epoch, since_full);
        }
    }
    let checkpoint = listing
        .iter()
        .rev()
        .find(|e| e.kind == "full")
        .expect("the ring always holds a checkpoint")
        .epoch;
    let t0 = Instant::now();
    black_box(history.materialize(chain.0).unwrap());
    let chain_us = t0.elapsed().as_micros();
    let t1 = Instant::now();
    black_box(history.materialize(checkpoint).unwrap());
    let checkpoint_us = t1.elapsed().as_micros();
    HistoryCost {
        record_mean_us: record_us as f64 / (models.len() - 1) as f64,
        resident_bytes,
        chain_len: chain.1,
        chain_us,
        checkpoint_us,
    }
}

fn bench(c: &mut Criterion) {
    let ctx = mid_context();

    banner(
        "Epoch history: delta ring vs full-model ring, 16 epochs deep",
        "deltas shrink resident bytes; checkpoints bound replay latency",
    );
    println!(
        "{:>10} {:>14} {:>16} {:>10} {:>10} {:>14}",
        "config", "record_us", "resident_bytes", "chain_len", "chain_us", "checkpoint_us"
    );

    let models = epoch_models(&ctx.dataset);
    let mut rows = Vec::new();
    for (label, checkpoint_every) in [("delta_k8", 8u64), ("full_k1", 1)] {
        let cost = measure(&models, checkpoint_every);
        println!(
            "{label:>10} {:>14.1} {:>16} {:>10} {:>10} {:>14}",
            cost.record_mean_us,
            cost.resident_bytes,
            cost.chain_len,
            cost.chain_us,
            cost.checkpoint_us
        );
        rows.push(format!(
            "{label}\t{:.1}\t{}\t{}\t{}\t{}",
            cost.record_mean_us,
            cost.resident_bytes,
            cost.chain_len,
            cost.chain_us,
            cost.checkpoint_us
        ));
    }

    std::fs::create_dir_all("out").unwrap();
    std::fs::write(
        "out/epoch_history.tsv",
        format!(
            "config\trecord_mean_us\tresident_bytes\tchain_len\tmaterialize_chain_us\tmaterialize_checkpoint_us\n{}\n",
            rows.join("\n")
        ),
    )
    .unwrap();
    println!("wrote out/epoch_history.tsv");

    let mut group = c.benchmark_group("epoch_history");
    group.sample_size(10);
    group.bench_function("record_delta", |b| {
        let history = CrowdHistory::new(Arc::clone(&models[0]), DEPTH, u64::MAX, None);
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            let prev = &models[(n as usize - 1) % (models.len() - 1)];
            let next = &models[n as usize % (models.len() - 1) + 1];
            history.record(n, prev, Arc::clone(next), EpochMode::Incremental, BATCH);
        })
    });
    group.bench_function("materialize_oldest", |b| {
        let history = CrowdHistory::new(Arc::clone(&models[0]), DEPTH, u64::MAX, None);
        for (n, model) in models.iter().enumerate().skip(1) {
            history.record(
                n as u64,
                &models[n - 1],
                Arc::clone(model),
                EpochMode::Incremental,
                BATCH,
            );
        }
        let (oldest, _) = history.retained();
        b.iter(|| black_box(history.materialize(black_box(oldest)).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
