//! The ingest engine's configuration, its metric handles, and the
//! epoch build: previous snapshot plus drained batch in, next snapshot
//! out.

use crate::shard::mine_sharded;
use crate::{EpochMode, IngestError, PlatformSnapshot, WalConfig, WalEntry};
use crowdweb_crowd::{CrowdBuilder, CrowdDelta, PipelineDriver, TimeWindows};
use crowdweb_dataset::{MergeRecord, UserId};
use crowdweb_exec::Parallelism;
use crowdweb_geo::BoundingBox;
use crowdweb_mobility::PatternMiner;
use crowdweb_obs::{
    Counter, Gauge, Histogram, MetricsRegistry, EPOCH_LATENCY_BUCKETS, SHARD_FANOUT_SECONDS,
};
use crowdweb_prep::{PrepUpdate, Preprocessor};
use std::collections::BTreeSet;

/// Everything the engine needs to build and rebuild snapshots.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Preprocessing configuration (window, filter, slotting, labels).
    pub preprocessor: Preprocessor,
    /// Relative mining support threshold.
    pub min_support: f64,
    /// Display windows of the crowd model.
    pub windows: TimeWindows,
    /// Display grid bounds.
    pub bounds: BoundingBox,
    /// Display grid rows.
    pub grid_rows: u32,
    /// Display grid columns.
    pub grid_cols: u32,
    /// Execution policy threaded through every parallel stage.
    pub parallelism: Parallelism,
    /// Bounded queue capacity, split evenly across the shards; a batch
    /// that would overflow any shard's slice is rejected whole with
    /// [`IngestError::Backpressure`].
    pub queue_capacity: usize,
    /// When set, a submit leaving the queue at or above this depth runs
    /// an epoch inline before returning.
    pub epoch_batch: Option<usize>,
    /// When set, accepted records are logged durably and replayed on
    /// [`ShardedIngestEngine::open`](crate::ShardedIngestEngine::open).
    pub wal: Option<WalConfig>,
    /// When set, the engine records ingest metrics (queue depth, WAL
    /// bytes, epoch latency) and threads the registry through the
    /// pipeline stages. Never affects snapshot contents.
    pub metrics: Option<MetricsRegistry>,
    /// Shard count: `0` (the default) resolves to the machine's
    /// available parallelism, capped at
    /// [`MAX_SHARDS`](crate::shard::MAX_SHARDS).
    pub shards: usize,
    /// How many published epochs the engine's
    /// [`CrowdHistory`](crate::CrowdHistory) retains for the server's
    /// `?epoch=N` time travel. Clamped to ≥ 1 (the latest epoch is
    /// always retained).
    pub history_depth: usize,
    /// Force a full checkpoint (instead of a delta splice) into the
    /// epoch history every this-many epochs, bounding reconstruction
    /// chains. Clamped to ≥ 1.
    pub checkpoint_every: u64,
}

impl Default for IngestConfig {
    /// Mirrors the server defaults: paper preprocessor, 0.15 support,
    /// hourly windows, 20 × 20 NYC grid, auto parallelism, a 65 536
    /// record queue, manual epochs, no WAL, 16 retained history epochs
    /// with a checkpoint every 8.
    fn default() -> IngestConfig {
        IngestConfig {
            preprocessor: Preprocessor::new(),
            min_support: 0.15,
            windows: TimeWindows::hourly(),
            bounds: BoundingBox::NYC,
            grid_rows: 20,
            grid_cols: 20,
            parallelism: Parallelism::Auto,
            queue_capacity: 65_536,
            epoch_batch: None,
            wal: None,
            metrics: None,
            shards: 0,
            history_depth: 16,
            checkpoint_every: 8,
        }
    }
}

impl IngestConfig {
    pub(crate) fn driver(&self) -> Result<PipelineDriver, IngestError> {
        Ok(PipelineDriver::new(self.min_support)?
            .preprocessor(self.preprocessor)
            .windows(self.windows.clone())
            .grid(self.bounds, self.grid_rows, self.grid_cols)
            .parallelism(self.parallelism)
            .metrics(self.metrics.clone()))
    }

    pub(crate) fn miner(&self) -> Result<PatternMiner, IngestError> {
        Ok(PatternMiner::new(self.min_support)
            .map_err(crowdweb_crowd::PipelineError::Mobility)?
            .parallelism(self.parallelism)
            .metrics(self.metrics.clone()))
    }
}

/// Pre-registered handles for the engine's hot-path metrics, so submits
/// and epochs never touch the registry's family table. The per-shard
/// handles are indexed by shard (bounded `shard` label).
#[derive(Debug)]
pub(crate) struct IngestMetrics {
    registry: MetricsRegistry,
    pub(crate) accepted: Counter,
    pub(crate) wal_bytes: Counter,
    pub(crate) wal_records: Counter,
    pub(crate) queue_depth: Gauge,
    pub(crate) epoch_seconds: Histogram,
    pub(crate) dirty_users: Gauge,
    pub(crate) shard_queue_depth: Vec<Gauge>,
    pub(crate) shard_dirty_users: Vec<Gauge>,
    pub(crate) fanout_seconds: Vec<Histogram>,
}

impl IngestMetrics {
    pub(crate) fn new(registry: MetricsRegistry, shards: usize) -> IngestMetrics {
        let mut metrics = IngestMetrics {
            accepted: registry.counter(
                "crowdweb_ingest_accepted_total",
                "Records accepted into the ingest queue.",
                &[],
            ),
            wal_bytes: registry.counter(
                "crowdweb_ingest_wal_appended_bytes_total",
                "Bytes appended to active WAL segments.",
                &[],
            ),
            wal_records: registry.counter(
                "crowdweb_ingest_wal_appended_records_total",
                "Records appended to active WAL segments.",
                &[],
            ),
            queue_depth: registry.gauge(
                "crowdweb_ingest_queue_depth",
                "Records currently queued for the next epoch.",
                &[],
            ),
            epoch_seconds: registry.histogram(
                "crowdweb_ingest_epoch_seconds",
                "Wall-clock seconds from epoch start to snapshot publication.",
                &[],
                &EPOCH_LATENCY_BUCKETS,
            ),
            dirty_users: registry.gauge(
                "crowdweb_ingest_epoch_dirty_users",
                "Users recomputed by the most recent epoch.",
                &[],
            ),
            shard_queue_depth: Vec::with_capacity(shards),
            shard_dirty_users: Vec::with_capacity(shards),
            fanout_seconds: Vec::with_capacity(shards),
            registry,
        };
        for k in 0..shards {
            let label = k.to_string();
            metrics.shard_queue_depth.push(metrics.registry.gauge(
                "crowdweb_ingest_shard_queue_depth",
                "Records queued on this shard for the next epoch.",
                &[("shard", &label)],
            ));
            metrics.shard_dirty_users.push(metrics.registry.gauge(
                "crowdweb_ingest_shard_dirty_users",
                "Users this shard re-mined in the most recent epoch.",
                &[("shard", &label)],
            ));
            metrics.fanout_seconds.push(metrics.registry.histogram(
                SHARD_FANOUT_SECONDS,
                "Wall-clock seconds of this shard's re-mine slice per epoch.",
                &[("shard", &label)],
                &EPOCH_LATENCY_BUCKETS,
            ));
        }
        metrics
    }

    pub(crate) fn count_epoch(&self, mode: EpochMode) {
        let label = match mode {
            EpochMode::Incremental => "incremental",
            EpochMode::FullRebuild => "full_rebuild",
        };
        self.registry
            .counter(
                "crowdweb_ingest_epochs_total",
                "Published epochs, by rebuild mode.",
                &[("mode", label)],
            )
            .inc();
    }
}

#[cfg(test)]
thread_local! {
    /// Set by a test to make the next [`build_next_snapshot`] on its
    /// thread fail, as a merge or pipeline error would.
    pub(crate) static FAIL_NEXT_BUILD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Builds the epoch-`previous.epoch() + 1` snapshot from `previous`
/// plus a drained batch. Dirty users (those in the batch) are
/// re-prepared, re-mined across `shards` partitions
/// ([`mine_sharded`]) and re-placed; if the batch moved the study
/// window the full pipeline runs instead.
pub(crate) fn build_next_snapshot(
    config: &IngestConfig,
    shards: usize,
    metrics: Option<&IngestMetrics>,
    previous: &PlatformSnapshot,
    batch: &[WalEntry],
) -> Result<(PlatformSnapshot, EpochMode, CrowdDelta), IngestError> {
    #[cfg(test)]
    if FAIL_NEXT_BUILD.with(|fail| fail.replace(false)) {
        return Err(IngestError::Corrupt("injected build failure".to_owned()));
    }
    let records: Vec<MergeRecord> = batch.iter().map(|e| e.record.clone()).collect();
    let dirty: BTreeSet<UserId> = records.iter().map(|r| r.user).collect();
    let merged = previous.dataset().merge_records(&records)?;
    let epoch = previous.epoch() + 1;
    match config
        .preprocessor
        .update(previous.prepared(), &merged, &dirty)
        .map_err(crowdweb_crowd::PipelineError::Prep)?
    {
        PrepUpdate::Incremental(prepared) => {
            let patterns = mine_sharded(
                config,
                shards,
                metrics,
                &prepared,
                previous.patterns(),
                &dirty,
            )?;
            let (crowd, delta) = CrowdBuilder::new(&merged, &prepared)
                .windows(config.windows.clone())
                .parallelism(config.parallelism)
                .update(previous.crowd(), &patterns, &dirty)
                .map_err(crowdweb_crowd::PipelineError::Crowd)?;
            let snapshot = PlatformSnapshot::new(
                epoch,
                merged,
                *prepared,
                patterns,
                previous.grid().clone(),
                crowd,
                config.min_support,
            );
            Ok((snapshot, EpochMode::Incremental, delta))
        }
        PrepUpdate::FullRebuild => {
            let out = config.driver()?.run(&merged)?;
            let mut cells: BTreeSet<(usize, _)> = BTreeSet::new();
            for p in previous.crowd().placements() {
                cells.insert((p.window, p.cell));
            }
            for p in out.crowd.placements() {
                cells.insert((p.window, p.cell));
            }
            let delta = CrowdDelta {
                users_recomputed: out.prepared.user_count(),
                placements_removed: previous.crowd().placement_count(),
                placements_added: out.crowd.placement_count(),
                cells_touched: cells.len(),
            };
            let snapshot = PlatformSnapshot::new(
                epoch,
                merged,
                out.prepared,
                out.patterns,
                out.grid,
                out.crowd,
                config.min_support,
            );
            Ok((snapshot, EpochMode::FullRebuild, delta))
        }
    }
}
