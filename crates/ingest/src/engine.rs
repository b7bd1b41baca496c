//! The epoch-based ingest engine: queue → WAL → snapshot swap.

use crate::{
    CrowdHistory, EpochInfo, EpochMode, EpochReport, IngestError, IngestStats, PlatformSnapshot,
    SubmitReceipt, Wal, WalConfig, WalEntry,
};
use crowdweb_crowd::CrowdModel;
use crowdweb_crowd::{CrowdBuilder, CrowdDelta, PipelineDriver, TimeWindows};
use crowdweb_dataset::{Dataset, MergeRecord, UserId};
use crowdweb_exec::{EpochCell, Parallelism};
use crowdweb_geo::BoundingBox;
use crowdweb_mobility::{PatternMiner, UserPatterns};
use crowdweb_obs::{Counter, Gauge, Histogram, MetricsRegistry, EPOCH_LATENCY_BUCKETS};
use crowdweb_prep::{PrepUpdate, Prepared, Preprocessor};
use parking_lot::Mutex;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

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
    /// Bounded queue capacity; batches that would exceed it are
    /// rejected whole with [`IngestError::Backpressure`].
    pub queue_capacity: usize,
    /// When set, a submit leaving the queue at or above this depth runs
    /// an epoch inline before returning.
    pub epoch_batch: Option<usize>,
    /// When set, accepted records are logged durably and replayed on
    /// [`IngestEngine::open`].
    pub wal: Option<WalConfig>,
    /// When set, the engine records ingest metrics (queue depth, WAL
    /// bytes, epoch latency) and threads the registry through the
    /// pipeline stages. Never affects snapshot contents.
    pub metrics: Option<MetricsRegistry>,
    /// Shard count for [`ShardedIngestEngine`](crate::ShardedIngestEngine):
    /// `0` (the default) resolves to the machine's available
    /// parallelism, capped at [`MAX_SHARDS`](crate::shard::MAX_SHARDS).
    /// The unsharded [`IngestEngine`] ignores this field.
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
/// and epochs never touch the registry's family table.
#[derive(Debug, Clone)]
pub(crate) struct IngestMetrics {
    pub(crate) registry: MetricsRegistry,
    pub(crate) accepted: Counter,
    pub(crate) wal_bytes: Counter,
    pub(crate) wal_records: Counter,
    pub(crate) queue_depth: Gauge,
    pub(crate) epoch_seconds: Histogram,
    pub(crate) dirty_users: Gauge,
}

impl IngestMetrics {
    pub(crate) fn new(registry: MetricsRegistry) -> IngestMetrics {
        IngestMetrics {
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
            registry,
        }
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

/// Mutable engine internals. One mutex covers the queue and the WAL so
/// WAL append order always equals queue order — that ordering is what
/// makes crash replay deterministic.
#[derive(Debug)]
struct Inner {
    queue: VecDeque<WalEntry>,
    wal: Option<Wal>,
    next_seq: u64,
    total_accepted: u64,
    total_applied: u64,
    epochs_run: u64,
    full_rebuilds: u64,
    last_epoch: Option<EpochReport>,
}

/// The live-ingestion engine (see the [crate docs](crate)).
///
/// Readers call [`Self::snapshot`] and never block behind ingestion;
/// writers submit batches that are framed into the WAL and queued, and
/// epochs fold the queue into a fresh [`PlatformSnapshot`] swapped in
/// atomically.
#[derive(Debug)]
pub struct IngestEngine {
    config: IngestConfig,
    cell: EpochCell<PlatformSnapshot>,
    inner: Mutex<Inner>,
    /// Serializes epochs without blocking submitters or readers.
    epoch_guard: Mutex<()>,
    history: CrowdHistory,
    metrics: Option<IngestMetrics>,
}

impl IngestEngine {
    /// Opens the engine over a base dataset: replays the WAL (when
    /// configured), merges every surviving record, and cold-builds the
    /// epoch-0 snapshot on the merged dataset. Replay rewrites nothing.
    ///
    /// # Errors
    ///
    /// WAL I/O or corruption errors, merge failures, and pipeline
    /// failures from the cold build.
    pub fn open(base: Dataset, config: IngestConfig) -> Result<IngestEngine, IngestError> {
        let (wal, replayed, next_seq) = match &config.wal {
            Some(wal_config) => {
                let (wal, recovery) = Wal::open(wal_config)?;
                (Some(wal), recovery.entries, recovery.last_seq + 1)
            }
            None => (None, Vec::new(), 1),
        };
        let records: Vec<MergeRecord> = replayed.into_iter().map(|e| e.record).collect();
        let merged = base.merge_records(&records)?;
        let out = config.driver()?.run(&merged)?;
        let snapshot = PlatformSnapshot::new(
            0,
            merged,
            out.prepared,
            out.patterns,
            out.grid,
            out.crowd,
            config.min_support,
        );
        let metrics = config.metrics.clone().map(IngestMetrics::new);
        let history = CrowdHistory::new(
            snapshot.crowd_arc(),
            config.history_depth,
            config.checkpoint_every,
            config.metrics.as_ref(),
        );
        Ok(IngestEngine {
            metrics,
            history,
            config,
            cell: EpochCell::new(Arc::new(snapshot)),
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                wal,
                next_seq,
                total_accepted: 0,
                total_applied: 0,
                epochs_run: 0,
                full_rebuilds: 0,
                last_epoch: None,
            }),
            epoch_guard: Mutex::new(()),
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &IngestConfig {
        &self.config
    }

    /// The currently published snapshot (wait-free for practical
    /// purposes; see [`EpochCell`]).
    pub fn snapshot(&self) -> Arc<PlatformSnapshot> {
        self.cell.load()
    }

    /// The published epoch number.
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// Records currently queued.
    pub fn queue_depth(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Accepts a batch: assigns sequence numbers, appends the batch to
    /// the WAL (durably, when configured), and enqueues it — all under
    /// one lock, so log order equals queue order. If the queue would
    /// overflow the whole batch is rejected. When
    /// [`IngestConfig::epoch_batch`] is reached, an epoch runs inline
    /// and its report rides on the receipt.
    ///
    /// # Errors
    ///
    /// [`IngestError::Backpressure`] on a full queue and WAL I/O
    /// errors both reject the batch atomically (nothing queued, the
    /// sequence numbers released) — the client may retry. An inline
    /// epoch that fails *after* acceptance returns
    /// [`IngestError::EpochFailed`] carrying the accepted range — the
    /// batch is held by the engine and must **not** be re-submitted.
    pub fn submit(&self, records: Vec<MergeRecord>) -> Result<SubmitReceipt, IngestError> {
        let (first_seq, last_seq, depth) = {
            let mut inner = self.inner.lock();
            if inner.queue.len() + records.len() > self.config.queue_capacity {
                return Err(IngestError::Backpressure {
                    queued: inner.queue.len(),
                    capacity: self.config.queue_capacity,
                    rejected: records.len(),
                });
            }
            if records.is_empty() {
                return Ok(SubmitReceipt {
                    accepted: 0,
                    first_seq: 0,
                    last_seq: 0,
                    queue_depth: inner.queue.len(),
                    epoch: None,
                });
            }
            let first_seq = inner.next_seq;
            let entries: Vec<WalEntry> = records
                .into_iter()
                .enumerate()
                .map(|(i, record)| WalEntry {
                    seq: first_seq + i as u64,
                    record,
                })
                .collect();
            let last_seq = entries.last().expect("non-empty").seq;
            inner.next_seq = last_seq + 1;
            if let Some(wal) = inner.wal.as_mut() {
                let bytes_before = wal.segment_bytes();
                let mark = wal.mark();
                if let Err(e) = wal.append(&entries) {
                    // Reject atomically: discard whatever the failed
                    // append left in the segment and release the batch's
                    // sequence numbers so a client retry is safe. If the
                    // rollback itself fails the numbers stay consumed —
                    // replay may then resurrect the batch, so the client
                    // must not re-submit (at-least-once under a double
                    // fault; see DESIGN.md §9).
                    if wal.rollback_to(mark).is_ok() {
                        inner.next_seq = first_seq;
                    }
                    return Err(e);
                }
                if let Some(metrics) = &self.metrics {
                    metrics
                        .wal_bytes
                        .add(wal.segment_bytes().saturating_sub(bytes_before));
                    metrics.wal_records.add(entries.len() as u64);
                }
            }
            inner.total_accepted += entries.len() as u64;
            if let Some(metrics) = &self.metrics {
                metrics.accepted.add(entries.len() as u64);
            }
            inner.queue.extend(entries);
            if let Some(metrics) = &self.metrics {
                metrics.queue_depth.set(inner.queue.len() as i64);
            }
            (first_seq, last_seq, inner.queue.len())
        };
        let mut report = None;
        if self.config.epoch_batch.is_some_and(|batch| depth >= batch) {
            // The batch is already accepted (logged and queued): an
            // epoch failure here must not read as a rejected submit, or
            // clients would re-submit and double-apply. Wrap it so the
            // error itself carries the accepted range.
            match self.run_epoch() {
                Ok(r) => report = r,
                Err(source) => {
                    return Err(IngestError::EpochFailed {
                        accepted: (last_seq - first_seq + 1) as usize,
                        first_seq,
                        last_seq,
                        source: Box::new(source),
                    })
                }
            }
        }
        Ok(SubmitReceipt {
            accepted: (last_seq - first_seq + 1) as usize,
            first_seq,
            last_seq,
            queue_depth: self.queue_depth(),
            epoch: report,
        })
    }

    /// Drains the queue and publishes a new snapshot. Returns `None`
    /// when the queue was empty. Dirty users (those in the batch) are
    /// re-prepared, re-mined, and re-placed incrementally; if the batch
    /// moved the study window the full pipeline runs instead. Readers
    /// keep serving the previous snapshot throughout; the swap is
    /// atomic.
    ///
    /// The epoch does no WAL I/O: every record it applies is already
    /// durable in a segment.
    ///
    /// # Errors
    ///
    /// Merge and pipeline errors; the drained batch is re-queued at the
    /// front, so no accepted record is lost.
    pub fn run_epoch(&self) -> Result<Option<EpochReport>, IngestError> {
        let _epoch = self.epoch_guard.lock();
        let start = Instant::now();
        let batch: Vec<WalEntry> = {
            let mut inner = self.inner.lock();
            let batch: Vec<WalEntry> = inner.queue.drain(..).collect();
            if let Some(metrics) = &self.metrics {
                metrics.queue_depth.set(0);
            }
            batch
        };
        if batch.is_empty() {
            return Ok(None);
        }
        let previous = self.cell.load();
        let result = self.build_next(&previous, &batch);
        let (snapshot, mode, delta) = match result {
            Ok(next) => next,
            Err(e) => {
                // Put the batch back, oldest first, ahead of anything
                // submitted while we were building.
                let mut inner = self.inner.lock();
                for entry in batch.into_iter().rev() {
                    inner.queue.push_front(entry);
                }
                if let Some(metrics) = &self.metrics {
                    metrics.queue_depth.set(inner.queue.len() as i64);
                }
                return Err(e);
            }
        };
        let report = EpochReport {
            epoch: snapshot.epoch(),
            applied: batch.len(),
            users_remined: delta.users_recomputed,
            mode,
            duration_micros: u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX),
            delta,
        };
        let next = Arc::new(snapshot);
        // Record into the history before publishing, so any epoch a
        // reader can observe as latest is already materializable.
        self.history.record(
            next.epoch(),
            previous.crowd(),
            next.crowd_arc(),
            mode,
            batch.len(),
        );
        self.cell.store(next);
        if let Some(metrics) = &self.metrics {
            metrics.epoch_seconds.observe(start.elapsed().as_secs_f64());
            metrics.dirty_users.set(delta.users_recomputed as i64);
            metrics.count_epoch(mode);
        }
        let mut inner = self.inner.lock();
        inner.total_applied += batch.len() as u64;
        inner.epochs_run += 1;
        if mode == EpochMode::FullRebuild {
            inner.full_rebuilds += 1;
        }
        inner.last_epoch = Some(report);
        Ok(Some(report))
    }

    /// Builds the next snapshot from `previous` plus a drained batch.
    fn build_next(
        &self,
        previous: &PlatformSnapshot,
        batch: &[WalEntry],
    ) -> Result<(PlatformSnapshot, EpochMode, CrowdDelta), IngestError> {
        build_next_snapshot(&self.config, previous, batch, |prepared, prev, dirty| {
            self.config
                .miner()?
                .detect_updated(prepared, prev, dirty)
                .map_err(crowdweb_crowd::PipelineError::Mobility)
                .map_err(IngestError::from)
        })
    }

    /// The engine's bounded epoch history.
    pub fn history(&self) -> &CrowdHistory {
        &self.history
    }

    /// Materializes the crowd model as published at `epoch`, or `None`
    /// when the epoch has been evicted from (or never reached) the
    /// history ring.
    pub fn crowd_at(&self, epoch: u64) -> Option<Arc<CrowdModel>> {
        self.history.materialize(epoch)
    }

    /// One row per retained history epoch, oldest first.
    pub fn epochs(&self) -> Vec<EpochInfo> {
        self.history.epochs()
    }

    /// Point-in-time statistics for `GET /api/ingest/stats`.
    pub fn stats(&self) -> IngestStats {
        let inner = self.inner.lock();
        IngestStats {
            epoch: self.cell.epoch(),
            history_depth: self.history.depth(),
            history_capacity: self.history.capacity(),
            queue_depth: inner.queue.len(),
            queue_capacity: self.config.queue_capacity,
            total_accepted: inner.total_accepted,
            total_applied: inner.total_applied,
            durable: inner.wal.is_some(),
            wal_segment_bytes: inner.wal.as_ref().map_or(0, Wal::segment_bytes),
            wal_checkpoint_bytes: inner.wal.as_ref().map_or(0, Wal::checkpoint_bytes),
            epochs_run: inner.epochs_run,
            full_rebuilds: inner.full_rebuilds,
            last_epoch: inner.last_epoch,
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Set by a test to make the next [`build_next_snapshot`] on its
    /// thread fail, as a merge or pipeline error would.
    pub(crate) static FAIL_NEXT_BUILD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Builds the epoch-`previous.epoch() + 1` snapshot from `previous`
/// plus a drained batch, shared by the unsharded and sharded engines.
///
/// `mine` supplies the incremental re-mining strategy — the unsharded
/// engine calls [`PatternMiner::detect_updated`] directly, the sharded
/// engine fans per-shard partitions of the dirty set out over
/// [`crowdweb_exec::parallel_map_with_index`]. Both must honour the
/// same contract: return one [`UserPatterns`] per prepared user, in
/// `prepared.seqdb().user_ids()` order, re-mining exactly the users
/// that are dirty or absent from `previous.patterns()`.
pub(crate) fn build_next_snapshot<F>(
    config: &IngestConfig,
    previous: &PlatformSnapshot,
    batch: &[WalEntry],
    mine: F,
) -> Result<(PlatformSnapshot, EpochMode, CrowdDelta), IngestError>
where
    F: FnOnce(
        &Prepared,
        &[UserPatterns],
        &BTreeSet<UserId>,
    ) -> Result<Vec<UserPatterns>, IngestError>,
{
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
            let patterns = mine(&prepared, previous.patterns(), &dirty)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crowdweb_dataset::Timestamp;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("crowdweb-engine-{tag}-{}-{n}", std::process::id()))
    }

    fn config() -> IngestConfig {
        let mut c = IngestConfig::default();
        c.preprocessor = c.preprocessor.min_active_days(20);
        c
    }

    fn base() -> Dataset {
        crowdweb_synth::SynthConfig::small(51).generate().unwrap()
    }

    /// Clones `n` existing check-ins shifted by `shift_secs` as records.
    fn shifted_records(d: &Dataset, shift_secs: i64, n: usize) -> Vec<MergeRecord> {
        d.checkins()
            .iter()
            .step_by(97) // spread across users
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

    #[test]
    fn backpressure_rejects_whole_batch() {
        let mut cfg = config();
        cfg.queue_capacity = 3;
        let engine = IngestEngine::open(base(), cfg).unwrap();
        let records = shifted_records(engine.snapshot().dataset(), 3600, 2);
        engine.submit(records.clone()).unwrap();
        let err = engine.submit(records).unwrap_err();
        assert!(matches!(
            err,
            IngestError::Backpressure {
                queued: 2,
                capacity: 3,
                rejected: 2
            }
        ));
        assert_eq!(engine.queue_depth(), 2, "rejected batch must not enqueue");
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn empty_submit_and_empty_epoch_are_noops() {
        let engine = IngestEngine::open(base(), config()).unwrap();
        let receipt = engine.submit(Vec::new()).unwrap();
        assert_eq!(receipt.accepted, 0);
        assert!(engine.run_epoch().unwrap().is_none());
        assert_eq!(engine.epoch(), 0);
    }

    #[test]
    fn epoch_applies_batch_and_updates_stats() {
        let engine = IngestEngine::open(base(), config()).unwrap();
        let before = engine.snapshot();
        let records = shifted_records(before.dataset(), 3600, 5);
        let receipt = engine.submit(records).unwrap();
        assert_eq!(receipt.accepted, 5);
        assert_eq!((receipt.first_seq, receipt.last_seq), (1, 5));
        let report = engine.run_epoch().unwrap().expect("non-empty queue");
        assert_eq!(report.epoch, 1);
        assert_eq!(report.applied, 5);
        assert_eq!(report.mode, EpochMode::Incremental);
        let after = engine.snapshot();
        assert_eq!(after.epoch(), 1);
        assert_eq!(after.dataset().len(), before.dataset().len() + 5);
        // The pinned pre-epoch snapshot is untouched.
        assert_eq!(before.epoch(), 0);
        let stats = engine.stats();
        assert_eq!(stats.total_accepted, 5);
        assert_eq!(stats.total_applied, 5);
        assert_eq!(stats.epochs_run, 1);
        assert_eq!(stats.queue_depth, 0);
        assert!(!stats.durable);
        assert!(serde_json::to_string(&stats).is_ok());
    }

    #[test]
    fn auto_epoch_runs_at_threshold() {
        let mut cfg = config();
        cfg.epoch_batch = Some(3);
        let engine = IngestEngine::open(base(), cfg).unwrap();
        let records = shifted_records(engine.snapshot().dataset(), 3600, 4);
        let receipt = engine.submit(records).unwrap();
        let report = receipt.epoch.expect("threshold reached, epoch must run");
        assert_eq!(report.applied, 4);
        assert_eq!(engine.epoch(), 1);
        assert_eq!(receipt.queue_depth, 0);
    }

    #[test]
    fn wal_append_failure_rejects_batch_atomically() {
        let dir = temp_dir("walfail");
        let mut cfg = config();
        cfg.wal = Some(crate::WalConfig::new(&dir));
        let engine = IngestEngine::open(base(), cfg).unwrap();
        let records = shifted_records(engine.snapshot().dataset(), 3600, 2);
        // Sabotage the first append: no directory, no segment file.
        std::fs::remove_dir_all(&dir).unwrap();
        let err = engine.submit(records.clone()).unwrap_err();
        assert!(matches!(err, IngestError::Wal(_)), "{err:?}");
        assert_eq!(engine.queue_depth(), 0, "failed batch must not enqueue");
        // The sequence numbers were released: a retry reuses the range
        // safely because nothing of the failed batch survived.
        std::fs::create_dir_all(&dir).unwrap();
        let receipt = engine.submit(records).unwrap();
        assert_eq!((receipt.first_seq, receipt.last_seq), (1, 2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inline_epoch_failure_reports_accepted_range() {
        let dir = temp_dir("epochfail");
        let mut cfg = config();
        cfg.wal = Some(crate::WalConfig::new(&dir));
        cfg.epoch_batch = Some(2);
        let engine = IngestEngine::open(base(), cfg.clone()).unwrap();
        let records = shifted_records(engine.snapshot().dataset(), 3600, 2);
        engine.submit(records[..1].to_vec()).unwrap();
        // Fail the inline epoch's build, after the batch was accepted.
        FAIL_NEXT_BUILD.with(|fail| fail.set(true));
        let err = engine.submit(records[1..].to_vec()).unwrap_err();
        match err {
            IngestError::EpochFailed {
                accepted,
                first_seq,
                last_seq,
                ..
            } => assert_eq!((accepted, first_seq, last_seq), (1, 2, 2)),
            other => panic!("expected EpochFailed, got {other:?}"),
        }
        // The engine still holds the batch: both records are queued
        // again and the epoch did not advance, so a client re-submit
        // would double-apply — what the error's contract warns against.
        assert_eq!(engine.epoch(), 0);
        assert_eq!(engine.queue_depth(), 2);
        drop(engine);
        // A reopen applies each accepted record exactly once.
        let engine = IngestEngine::open(base(), cfg.clone()).unwrap();
        let merged = base().merge_records(&records).unwrap();
        assert_eq!(engine.snapshot().dataset().len(), merged.len());
        assert_eq!(
            serde_json::to_string(engine.snapshot().crowd()).unwrap(),
            serde_json::to_string(&cfg.driver().unwrap().run(&merged).unwrap().crowd).unwrap()
        );
        assert_eq!(engine.submit(records).unwrap().first_seq, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metrics_track_submits_epochs_and_wal() {
        let dir = temp_dir("metrics");
        let registry = MetricsRegistry::new();
        let mut cfg = config();
        cfg.wal = Some(crate::WalConfig::new(&dir));
        cfg.metrics = Some(registry.clone());
        let engine = IngestEngine::open(base(), cfg).unwrap();
        let records = shifted_records(engine.snapshot().dataset(), 3600, 5);
        engine.submit(records).unwrap();
        assert_eq!(
            registry.counter_value("crowdweb_ingest_accepted_total", &[]),
            Some(5)
        );
        assert_eq!(
            registry.counter_value("crowdweb_ingest_wal_appended_records_total", &[]),
            Some(5)
        );
        let wal_bytes = registry
            .counter_value("crowdweb_ingest_wal_appended_bytes_total", &[])
            .unwrap();
        assert!(wal_bytes > 0, "WAL append must record bytes");
        assert_eq!(
            registry.gauge_value("crowdweb_ingest_queue_depth", &[]),
            Some(5)
        );
        engine.run_epoch().unwrap().unwrap();
        assert_eq!(
            registry.gauge_value("crowdweb_ingest_queue_depth", &[]),
            Some(0)
        );
        assert_eq!(
            registry.counter_value("crowdweb_ingest_epochs_total", &[("mode", "incremental")]),
            Some(1)
        );
        let (count, sum) = registry
            .histogram_stats("crowdweb_ingest_epoch_seconds", &[])
            .unwrap();
        assert_eq!(count, 1);
        assert!(sum >= 0.0);
        let dirty = registry
            .gauge_value("crowdweb_ingest_epoch_dirty_users", &[])
            .unwrap();
        assert!(dirty > 0, "epoch must recompute the touched users");
        // The pipeline stages recorded through the same registry.
        assert!(registry
            .histogram_stats(
                crowdweb_obs::STAGE_SECONDS,
                &[("stage", "prepare"), ("policy", "auto")]
            )
            .is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_replay_reaches_same_snapshot() {
        let dir = temp_dir("replay");
        let mut cfg = config();
        cfg.wal = Some(crate::WalConfig::new(&dir));
        let records;
        let crowd_json;
        {
            let engine = IngestEngine::open(base(), cfg.clone()).unwrap();
            records = shifted_records(engine.snapshot().dataset(), 3600, 6);
            engine.submit(records.clone()).unwrap();
            engine.run_epoch().unwrap().unwrap();
            crowd_json = serde_json::to_string(engine.snapshot().crowd()).unwrap();
            assert!(engine.stats().durable);
        } // crash
        let engine = IngestEngine::open(base(), cfg).unwrap();
        // Everything replayed into the epoch-0 cold build.
        assert_eq!(engine.epoch(), 0);
        assert_eq!(
            serde_json::to_string(engine.snapshot().crowd()).unwrap(),
            crowd_json,
            "replayed snapshot diverged from pre-crash snapshot"
        );
        // Sequence numbers continue after the replayed tail.
        let receipt = engine.submit(records).unwrap();
        assert_eq!(receipt.first_seq, 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
