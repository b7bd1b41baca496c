//! **Ingest I1** — live ingestion throughput: incremental epoch latency
//! vs a cold pipeline rebuild over the merged dataset, across batch
//! sizes, plus durable (WAL-backed) submit throughput.
//!
//! The incremental path re-prepares, re-mines, and re-places only the
//! users touched by the batch (`tests/ingest_determinism.rs` asserts the
//! result is byte-identical to the cold build), so epoch latency should
//! scale with batch size, not dataset size.
//!
//! Prints a latency table and writes it to `out/ingest_throughput.tsv`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowdweb_bench::{banner, mid_context};
use crowdweb_crowd::{PipelineDriver, TimeWindows};
use crowdweb_dataset::{Dataset, MergeRecord, Timestamp};
use crowdweb_exec::Parallelism;
use crowdweb_geo::BoundingBox;
use crowdweb_ingest::{IngestConfig, ShardedIngestEngine, WalConfig};
use crowdweb_prep::Preprocessor;
use std::hint::black_box;
use std::time::Instant;

const MIN_SUPPORT: f64 = 0.15;
const BATCH_SIZES: [usize; 3] = [16, 64, 256];

fn config() -> IngestConfig {
    let mut c = IngestConfig::default();
    c.preprocessor = c.preprocessor.min_active_days(20);
    c.shards = 1;
    c.min_support = MIN_SUPPORT;
    c
}

/// Clones existing check-ins, time-shifted, as an ingest batch.
fn batch(dataset: &Dataset, n: usize) -> Vec<MergeRecord> {
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
                time: Timestamp::from_unix_seconds(c.time().unix_seconds() + 3600),
            }
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let ctx = mid_context();

    banner(
        "Ingest: incremental epoch latency vs cold rebuild, by batch size",
        "epoch latency tracks batch size (users re-mined), not dataset size",
    );
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>10} {:>12}",
        "batch", "remined", "epoch_us", "cold_us", "speedup", "mode"
    );

    let mut rows = Vec::new();
    for n in BATCH_SIZES {
        let records = batch(&ctx.dataset, n);
        let merged = ctx.dataset.merge_records(&records).unwrap();

        let engine = ShardedIngestEngine::open(ctx.dataset.clone(), config()).unwrap();
        engine.submit(records).unwrap();
        let t0 = Instant::now();
        let report = engine.run_epoch().unwrap().expect("non-empty queue");
        let epoch_us = t0.elapsed().as_micros();

        let t1 = Instant::now();
        let out = PipelineDriver::new(MIN_SUPPORT)
            .unwrap()
            .preprocessor(Preprocessor::new().min_active_days(20))
            .windows(TimeWindows::hourly())
            .grid(BoundingBox::NYC, 20, 20)
            .parallelism(Parallelism::Auto)
            .run(&merged)
            .unwrap();
        let cold_us = t1.elapsed().as_micros();
        black_box(out);

        let speedup = cold_us as f64 / epoch_us.max(1) as f64;
        let mode = format!("{:?}", report.mode);
        println!(
            "{n:>8} {:>10} {epoch_us:>12} {cold_us:>12} {speedup:>9.2}x {mode:>12}",
            report.users_remined
        );
        rows.push(format!(
            "{n}\t{}\t{epoch_us}\t{cold_us}\t{speedup:.3}\t{mode}",
            report.users_remined
        ));
    }

    // Sharded epoch latency: the same 256-record batch through the
    // sharded engine at shard counts 1, 2, 4. Fan-out parallelism only
    // helps with >1 CPU; on a single core expect rough parity with a
    // small coordination overhead (snapshots are byte-identical either
    // way — `tests/ingest_determinism.rs`).
    println!(
        "\n{:>8} {:>10} {:>12} {:>12}",
        "shards", "remined", "epoch_us", "mode"
    );
    for shards in [1usize, 2, 4] {
        let records = batch(&ctx.dataset, 256);
        let mut cfg = config();
        cfg.shards = shards;
        let engine = ShardedIngestEngine::open(ctx.dataset.clone(), cfg).unwrap();
        engine.submit(records).unwrap();
        let t0 = Instant::now();
        let report = engine.run_epoch().unwrap().expect("non-empty queue");
        let epoch_us = t0.elapsed().as_micros();
        let mode = format!("{:?}", report.mode);
        println!(
            "{shards:>8} {:>10} {epoch_us:>12} {mode:>12}",
            report.users_remined
        );
        rows.push(format!(
            "shards_{shards}\t{}\t{epoch_us}\t-\t-\t{mode}",
            report.users_remined
        ));
    }

    // Durable submit throughput: records/s through queue + fsynced WAL.
    let wal_dir = std::env::temp_dir().join(format!("crowdweb-bench-wal-{}", std::process::id()));
    std::fs::remove_dir_all(&wal_dir).ok();
    let mut cfg = config();
    cfg.wal = Some(WalConfig::new(&wal_dir));
    let engine = ShardedIngestEngine::open(ctx.dataset.clone(), cfg).unwrap();
    let records = batch(&ctx.dataset, 256);
    let t0 = Instant::now();
    let mut submitted = 0usize;
    for _ in 0..8 {
        submitted += engine.submit(records.clone()).unwrap().accepted;
    }
    let submit_us = t0.elapsed().as_micros();
    let rec_per_s = submitted as f64 / (submit_us as f64 / 1e6);
    let wal_bytes = engine.stats().wal_segment_bytes;
    println!("\ndurable submit: {submitted} records in {submit_us} us ({rec_per_s:.0} rec/s, {wal_bytes} WAL bytes)");
    rows.push(format!(
        "wal_submit\t{submitted}\t{submit_us}\t{wal_bytes}\t{rec_per_s:.0}\trec_per_s"
    ));
    drop(engine);
    std::fs::remove_dir_all(&wal_dir).ok();

    std::fs::create_dir_all("out").unwrap();
    std::fs::write(
        "out/ingest_throughput.tsv",
        format!(
            "batch\tremined\tepoch_us\tcold_us\tspeedup\tmode\n{}\n",
            rows.join("\n")
        ),
    )
    .unwrap();
    println!("wrote out/ingest_throughput.tsv");

    let mut group = c.benchmark_group("ingest_throughput");
    group.sample_size(10);
    for n in BATCH_SIZES {
        let records = batch(&ctx.dataset, n);
        group.bench_with_input(BenchmarkId::new("submit_epoch", n), &records, |b, recs| {
            let engine = ShardedIngestEngine::open(ctx.dataset.clone(), config()).unwrap();
            b.iter(|| {
                engine.submit(black_box(recs.clone())).unwrap();
                engine.run_epoch().unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
