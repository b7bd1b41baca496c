//! **Ingest I1** — live ingestion throughput: incremental epoch latency
//! vs a cold pipeline rebuild over the merged dataset, across batch
//! sizes and at two dataset scales, plus durable (WAL-backed) submit
//! throughput.
//!
//! The incremental path re-prepares, re-mines, and re-places only the
//! users touched by the batch (`tests/ingest_determinism.rs` asserts the
//! result is byte-identical to the cold build). Its other steps — the
//! merge of the batch into the dataset, the study-window check and the
//! splice of the sequence database — cost the batch plus at most one
//! copy of the dataset, so the `mid` rows (120 users) and the `paper`
//! rows (1,083 users, ~221k check-ins) show how far epoch latency still
//! grows with the dataset.
//!
//! Each epoch row is the median of [`EPOCHS`] successive epochs on one
//! engine. Prints a latency table and writes it to
//! `out/ingest_throughput.tsv`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowdweb_analytics::ExperimentContext;
use crowdweb_bench::{banner, mid_context, paper_context};
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
/// Epochs per row; the row reports their median.
const EPOCHS: usize = 5;

/// The engine configuration for a context: one shard, and the
/// context's own activity threshold.
fn config_for(ctx: &ExperimentContext) -> IngestConfig {
    let mut c = IngestConfig::default();
    c.preprocessor = c.preprocessor.min_active_days(ctx.min_active_days);
    c.shards = 1;
    c.min_support = MIN_SUPPORT;
    c
}

fn config() -> IngestConfig {
    config_for(mid_context())
}

/// Clones existing check-ins, shifted by `hours`, as an ingest batch.
fn batch_at(dataset: &Dataset, n: usize, hours: i64) -> Vec<MergeRecord> {
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
                time: Timestamp::from_unix_seconds(c.time().unix_seconds() + hours * 3600),
            }
        })
        .collect()
}

fn batch(dataset: &Dataset, n: usize) -> Vec<MergeRecord> {
    batch_at(dataset, n, 1)
}

fn median(mut values: Vec<u128>) -> u128 {
    values.sort_unstable();
    values[values.len() / 2]
}

/// One table row per batch size: the median of [`EPOCHS`] successive
/// epochs (each a fresh batch, shifted one more hour) against one cold
/// rebuild over the first epoch's merged dataset.
fn epoch_rows(scale: &str, ctx: &ExperimentContext, rows: &mut Vec<String>) {
    for n in BATCH_SIZES {
        let engine = ShardedIngestEngine::open(ctx.dataset.clone(), config_for(ctx)).unwrap();
        let mut epoch_us = Vec::with_capacity(EPOCHS);
        let mut remined = Vec::with_capacity(EPOCHS);
        let mut mode = String::new();
        for k in 0..EPOCHS {
            engine
                .submit(batch_at(&ctx.dataset, n, 1 + k as i64))
                .unwrap();
            let t0 = Instant::now();
            let report = engine.run_epoch().unwrap().expect("non-empty queue");
            epoch_us.push(t0.elapsed().as_micros());
            remined.push(report.users_remined as u128);
            mode = format!("{:?}", report.mode);
        }
        let (epoch_us, remined) = (median(epoch_us), median(remined));

        let merged = ctx.dataset.merge_records(&batch(&ctx.dataset, n)).unwrap();
        let t1 = Instant::now();
        let out = PipelineDriver::new(MIN_SUPPORT)
            .unwrap()
            .preprocessor(Preprocessor::new().min_active_days(ctx.min_active_days))
            .windows(TimeWindows::hourly())
            .grid(BoundingBox::NYC, 20, 20)
            .parallelism(Parallelism::Auto)
            .run(&merged)
            .unwrap();
        let cold_us = t1.elapsed().as_micros();
        black_box(out);

        let speedup = cold_us as f64 / epoch_us.max(1) as f64;
        println!(
            "{scale:>6} {n:>8} {remined:>10} {epoch_us:>12} {cold_us:>12} {speedup:>9.2}x {mode:>12}"
        );
        rows.push(format!(
            "{scale}\t{n}\t{remined}\t{epoch_us}\t{cold_us}\t{speedup:.3}\t{mode}"
        ));
    }
}

fn bench(c: &mut Criterion) {
    let ctx = mid_context();

    banner(
        "Ingest: incremental epoch latency vs cold rebuild, by batch size and scale",
        "epoch latency tracks the batch (users re-mined) plus one copy of the dataset",
    );
    println!(
        "{:>6} {:>8} {:>10} {:>12} {:>12} {:>10} {:>12}",
        "scale", "batch", "remined", "epoch_us", "cold_us", "speedup", "mode"
    );

    let mut rows = Vec::new();
    epoch_rows("mid", ctx, &mut rows);
    epoch_rows("paper", paper_context(), &mut rows);

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
            "mid\tshards_{shards}\t{}\t{epoch_us}\t-\t-\t{mode}",
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
        "mid\twal_submit\t{submitted}\t{submit_us}\t{wal_bytes}\t{rec_per_s:.0}\trec_per_s"
    ));
    drop(engine);
    std::fs::remove_dir_all(&wal_dir).ok();

    std::fs::create_dir_all("out").unwrap();
    std::fs::write(
        "out/ingest_throughput.tsv",
        format!(
            "scale\tbatch\tremined\tepoch_us\tcold_us\tspeedup\tmode\n{}\n",
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
