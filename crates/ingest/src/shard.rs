//! The live-ingestion engine, sharded by user id.
//!
//! [`ShardedIngestEngine`] splits the live path into `N` shards, each
//! owning a bounded queue slice, its own WAL directory
//! (`<wal dir>/shard-<k>/`), and an independent dirty-user set.
//! Records route to shards by a **stable** hash of the user id
//! ([`shard_of`]); the hash is an on-disk compatibility contract — it
//! must not change across releases, or restart recovery would reroute
//! entries away from the shard logs that hold them.
//!
//! Determinism is preserved by keeping ordering decisions global while
//! distributing only the work:
//!
//! - sequence numbers are assigned from one global counter at submit,
//!   so the union of all shard queues always reconstructs the exact
//!   submit order (venue interning in `merge_records` is
//!   order-sensitive);
//! - epochs drain every shard and merge/re-prepare over the seq-sorted
//!   union, then fan the expensive re-mining out **per shard** on
//!   [`parallel_map_with_index`], splicing results back in prepared
//!   user order — byte-identical to
//!   [`PatternMiner::detect_updated`](crowdweb_mobility::PatternMiner::detect_updated)
//!   for any shard count and any
//!   [`Parallelism`](crowdweb_exec::Parallelism) policy.
//!
//! The shard segments are the only durable copy of the records: epochs
//! write nothing to disk. Crash recovery opens every `shard-*`
//! directory concurrently (plus any unsharded log an earlier release
//! left in the WAL root), unions the surviving entries by sequence
//! number, and
//! cold-builds epoch 0 without rewriting a byte. A torn tail in one
//! shard truncates only that shard's final frame; the other shards'
//! records — including ones with higher sequence numbers — survive
//! replay. Only a fold of stale sources (see [`ShardedIngestEngine::open`])
//! writes a checkpoint.

use crate::engine::{build_next_snapshot, IngestConfig, IngestMetrics};
use crate::{
    CrowdHistory, EpochInfo, EpochMode, EpochReport, IngestError, PlatformSnapshot, ShardStats,
    ShardedIngestStats, SubmitReceipt, Wal, WalConfig, WalEntry,
};
use crowdweb_crowd::CrowdModel;
use crowdweb_dataset::{Dataset, MergeRecord, UserId};
use crowdweb_exec::{parallel_map, parallel_map_with_index, EpochCell};
use crowdweb_mobility::UserPatterns;
use crowdweb_prep::{Prepared, UserView};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Hard cap on the shard count, so the per-shard metric label stays
/// bounded no matter what a builder passes in.
pub const MAX_SHARDS: usize = 64;

/// Routes a user to a shard: FNV-1a over the raw id, modulo `shards`.
///
/// Stability matters more than quality here: the same user must land on
/// the same shard across every release and restart, because each
/// shard's WAL only holds the entries routed to it. The hash is part of
/// the on-disk format; never change it.
pub fn shard_of(user: UserId, shards: usize) -> usize {
    debug_assert!(shards > 0, "shard count must be positive");
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in user.raw().to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % shards as u64) as usize
}

/// Resolves a configured shard count: `0` means "available
/// parallelism", and everything is clamped to `1..=`[`MAX_SHARDS`].
pub fn effective_shards(configured: usize) -> usize {
    let n = if configured == 0 {
        crowdweb_exec::Parallelism::Auto.worker_count()
    } else {
        configured
    };
    n.clamp(1, MAX_SHARDS)
}

/// One shard's mutable state. Ordering still lives globally (a single
/// sequence counter under the engine-wide lock); the shard owns the
/// durability and the dirty set for its user range.
#[derive(Debug)]
struct ShardState {
    queue: VecDeque<WalEntry>,
    wal: Option<Wal>,
    /// Highest sequence number applied from this shard (0 if none).
    watermark: u64,
    accepted: u64,
    applied_total: u64,
}

#[derive(Debug)]
struct ShardedInner {
    shards: Vec<ShardState>,
    next_seq: u64,
    total_accepted: u64,
    total_applied: u64,
    epochs_run: u64,
    full_rebuilds: u64,
    last_epoch: Option<EpochReport>,
}

/// The live-ingestion engine (see the [module docs](self) and the
/// [crate docs](crate)).
///
/// Readers call [`Self::snapshot`] and never block behind ingestion;
/// writers submit batches that are framed into the shard WALs and
/// queued, and epochs fold the queues into a fresh
/// [`PlatformSnapshot`] swapped in atomically. Snapshots are
/// byte-identical for any shard count.
#[derive(Debug)]
pub struct ShardedIngestEngine {
    config: IngestConfig,
    shard_count: usize,
    per_shard_capacity: usize,
    cell: EpochCell<PlatformSnapshot>,
    inner: Mutex<ShardedInner>,
    /// Serializes epochs without blocking submitters or readers.
    epoch_guard: Mutex<()>,
    history: CrowdHistory,
    metrics: Option<IngestMetrics>,
}

impl ShardedIngestEngine {
    /// Opens the engine over a base dataset with
    /// [`IngestConfig::shards`] shards: replays every shard WAL (opened
    /// concurrently under [`IngestConfig::parallelism`]) and any legacy
    /// unsharded log in the WAL root, unions the surviving entries by
    /// sequence number, and cold-builds the epoch-0 snapshot.
    ///
    /// Replay rewrites nothing, with one exception: shard directories
    /// beyond the current count (left by a larger previous
    /// configuration) and a legacy root log are **folded**. Every entry
    /// is re-routed under the current count, each current shard writes
    /// a checkpoint of its entries, and only then are the stale
    /// sources deleted.
    ///
    /// # Errors
    ///
    /// WAL I/O or corruption errors, merge failures, and pipeline
    /// failures from the cold build.
    pub fn open(base: Dataset, config: IngestConfig) -> Result<ShardedIngestEngine, IngestError> {
        let shard_count = effective_shards(config.shards);
        let per_shard_capacity = config.queue_capacity.div_ceil(shard_count).max(1);

        let mut wals: Vec<Option<Wal>> = Vec::with_capacity(shard_count);
        let mut entries: Vec<WalEntry> = Vec::new();
        let mut last_seq = 0u64;
        let mut stale_dirs: Vec<PathBuf> = Vec::new();
        let mut legacy_files: Vec<PathBuf> = Vec::new();
        if let Some(wal_config) = &config.wal {
            let shard_configs: Vec<WalConfig> = (0..shard_count)
                .map(|k| shard_wal_config(wal_config, k))
                .collect();
            for opened in parallel_map(config.parallelism, &shard_configs, Wal::open) {
                let (wal, recovery) = opened?;
                last_seq = last_seq.max(recovery.last_seq);
                entries.extend(recovery.entries);
                wals.push(Some(wal));
            }
            // Any unsharded log an earlier release left in the root, and
            // shard directories beyond the current count, are recovered
            // and folded into the current shards below, then deleted.
            let (_, recovery) = Wal::open(wal_config)?;
            last_seq = last_seq.max(recovery.last_seq);
            entries.extend(recovery.entries);
            (stale_dirs, legacy_files) = stale_sources(&wal_config.dir, shard_count)?;
            for dir in &stale_dirs {
                let (_, recovery) = Wal::open(&WalConfig {
                    dir: dir.clone(),
                    segment_bytes: wal_config.segment_bytes,
                })?;
                last_seq = last_seq.max(recovery.last_seq);
                entries.extend(recovery.entries);
            }
        } else {
            for _ in 0..shard_count {
                wals.push(None);
            }
        }
        entries.sort_by_key(|e| e.seq);
        entries.dedup_by_key(|e| e.seq);

        let mut watermarks = vec![0u64; shard_count];
        for entry in &entries {
            let k = shard_of(entry.record.user, shard_count);
            watermarks[k] = watermarks[k].max(entry.seq);
        }
        if !stale_dirs.is_empty() || !legacy_files.is_empty() {
            // The stale sources are about to go, so every entry must
            // first be durable in its shard under the *current* count.
            let mut routed: Vec<Vec<WalEntry>> = vec![Vec::new(); shard_count];
            for entry in &entries {
                routed[shard_of(entry.record.user, shard_count)].push(entry.clone());
            }
            for (k, (wal, routed)) in wals.iter_mut().zip(routed).enumerate() {
                wal.as_mut()
                    .expect("stale sources exist only with a WAL")
                    .checkpoint(watermarks[k], &routed)?;
            }
            for dir in stale_dirs {
                fs::remove_dir_all(&dir)?;
            }
            for file in legacy_files {
                fs::remove_file(&file)?;
            }
        }

        let records: Vec<MergeRecord> = entries.into_iter().map(|e| e.record).collect();
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

        let shards: Vec<ShardState> = wals
            .into_iter()
            .zip(watermarks)
            .map(|(wal, watermark)| ShardState {
                queue: VecDeque::new(),
                wal,
                watermark,
                accepted: 0,
                applied_total: 0,
            })
            .collect();

        let metrics = config
            .metrics
            .clone()
            .map(|registry| IngestMetrics::new(registry, shard_count));
        let history = CrowdHistory::new(
            snapshot.crowd_arc(),
            config.history_depth,
            config.checkpoint_every,
            config.metrics.as_ref(),
        );
        Ok(ShardedIngestEngine {
            metrics,
            history,
            config,
            shard_count,
            per_shard_capacity,
            cell: EpochCell::new(Arc::new(snapshot)),
            inner: Mutex::new(ShardedInner {
                shards,
                next_seq: last_seq + 1,
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

    /// The resolved shard count.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The currently published snapshot.
    pub fn snapshot(&self) -> Arc<PlatformSnapshot> {
        self.cell.load()
    }

    /// The published epoch number.
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// Records currently queued across every shard.
    pub fn queue_depth(&self) -> usize {
        self.inner.lock().shards.iter().map(|s| s.queue.len()).sum()
    }

    /// Accepts a batch: splits it by [`shard_of`] (preserving the
    /// batch's order within each shard and assigning sequence numbers
    /// from one global counter, so the seq-sorted union of the shard
    /// queues reconstructs the submit order exactly), appends each
    /// slice to its shard's WAL (durably, when configured), and
    /// enqueues — all under one lock, so log order equals queue order.
    /// If **any** target shard's queue slice would overflow, the whole
    /// batch is rejected and nothing is appended anywhere. When
    /// [`IngestConfig::epoch_batch`] is reached, an epoch runs inline
    /// and its report rides on the receipt.
    ///
    /// # Errors
    ///
    /// [`IngestError::Backpressure`] (reporting the saturated shard's
    /// queue) and WAL I/O errors both reject the batch atomically
    /// (nothing queued, every shard's append undone, the sequence
    /// numbers released) — the client may retry. An inline epoch that
    /// fails *after* acceptance returns [`IngestError::EpochFailed`]
    /// carrying the accepted range — the batch is held by the engine
    /// and must **not** be re-submitted.
    pub fn submit(&self, records: Vec<MergeRecord>) -> Result<SubmitReceipt, IngestError> {
        let n = self.shard_count;
        let (first_seq, last_seq, depth) = {
            let mut inner = self.inner.lock();
            let mut incoming = vec![0usize; n];
            for record in &records {
                incoming[shard_of(record.user, n)] += 1;
            }
            for (k, count) in incoming.iter().enumerate() {
                if inner.shards[k].queue.len() + count > self.per_shard_capacity {
                    return Err(IngestError::Backpressure {
                        queued: inner.shards[k].queue.len(),
                        capacity: self.per_shard_capacity,
                        rejected: records.len(),
                    });
                }
            }
            if records.is_empty() {
                return Ok(SubmitReceipt {
                    accepted: 0,
                    first_seq: 0,
                    last_seq: 0,
                    queue_depth: inner.shards.iter().map(|s| s.queue.len()).sum(),
                    epoch: None,
                });
            }
            let first_seq = inner.next_seq;
            let total = records.len();
            let mut per_shard: Vec<Vec<WalEntry>> = vec![Vec::new(); n];
            for (i, record) in records.into_iter().enumerate() {
                let k = shard_of(record.user, n);
                per_shard[k].push(WalEntry {
                    seq: first_seq + i as u64,
                    record,
                });
            }
            let last_seq = first_seq + total as u64 - 1;
            inner.next_seq = last_seq + 1;

            if self.config.wal.is_some() {
                let mut appended: Vec<(usize, crate::wal::WalMark)> = Vec::new();
                let mut appended_bytes = 0u64;
                let mut failure: Option<IngestError> = None;
                for (k, slice) in per_shard.iter().enumerate() {
                    if slice.is_empty() {
                        continue;
                    }
                    let wal = inner.shards[k].wal.as_mut().expect("durable engine");
                    let before = wal.segment_bytes();
                    let mark = wal.mark();
                    match wal.append(slice) {
                        Ok(()) => {
                            appended_bytes += wal.segment_bytes().saturating_sub(before);
                            appended.push((k, mark));
                        }
                        Err(e) => {
                            // Reject the whole batch atomically: undo
                            // this shard's partial frame and every
                            // sibling append that already landed, then
                            // release the sequence numbers. If any
                            // rollback fails the numbers stay consumed
                            // (at-least-once under a double fault; see
                            // DESIGN.md §9).
                            let mut clean = wal.rollback_to(mark).is_ok();
                            for (j, sibling) in appended.drain(..) {
                                let wal = inner.shards[j].wal.as_mut().expect("durable engine");
                                clean &= wal.rollback_to(sibling).is_ok();
                            }
                            if clean {
                                inner.next_seq = first_seq;
                            }
                            failure = Some(e);
                            break;
                        }
                    }
                }
                if let Some(e) = failure {
                    return Err(e);
                }
                if let Some(metrics) = &self.metrics {
                    metrics.wal_bytes.add(appended_bytes);
                    metrics.wal_records.add(total as u64);
                }
            }

            inner.total_accepted += total as u64;
            if let Some(metrics) = &self.metrics {
                metrics.accepted.add(total as u64);
            }
            for (k, slice) in per_shard.into_iter().enumerate() {
                let shard = &mut inner.shards[k];
                shard.accepted += slice.len() as u64;
                shard.queue.extend(slice);
                if let Some(metrics) = &self.metrics {
                    metrics.shard_queue_depth[k].set(shard.queue.len() as i64);
                }
            }
            let depth: usize = inner.shards.iter().map(|s| s.queue.len()).sum();
            if let Some(metrics) = &self.metrics {
                metrics.queue_depth.set(depth as i64);
            }
            (first_seq, last_seq, depth)
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

    /// Drains every shard and publishes a new snapshot; returns `None`
    /// when all queues were empty. The merge and re-prepare run over
    /// the seq-sorted union (ordering is global), the re-mine fans out
    /// per shard on the `crowdweb-exec` engine, and each shard's delta
    /// is spliced back in prepared user order, so the snapshot is
    /// byte-identical for any shard count. Readers keep serving the
    /// previous snapshot throughout; the swap is atomic. The epoch does
    /// no WAL I/O: every record it applies is already durable in its
    /// shard's segments.
    ///
    /// # Errors
    ///
    /// Merge and pipeline errors re-queue each shard's slice at the
    /// front of that shard's queue, so no accepted record is lost.
    pub fn run_epoch(&self) -> Result<Option<EpochReport>, IngestError> {
        let _epoch = self.epoch_guard.lock();
        let start = Instant::now();
        let per_shard_batch: Vec<Vec<WalEntry>> = {
            let mut inner = self.inner.lock();
            let drained: Vec<Vec<WalEntry>> = inner
                .shards
                .iter_mut()
                .map(|s| s.queue.drain(..).collect())
                .collect();
            if let Some(metrics) = &self.metrics {
                for gauge in &metrics.shard_queue_depth {
                    gauge.set(0);
                }
                metrics.queue_depth.set(0);
            }
            drained
        };
        let total: usize = per_shard_batch.iter().map(Vec::len).sum();
        if total == 0 {
            return Ok(None);
        }
        let mut batch: Vec<WalEntry> = per_shard_batch.iter().flatten().cloned().collect();
        batch.sort_by_key(|e| e.seq);

        let previous = self.cell.load();
        let result = build_next_snapshot(
            &self.config,
            self.shard_count,
            self.metrics.as_ref(),
            &previous,
            &batch,
        );
        let (snapshot, mode, delta) = match result {
            Ok(next) => next,
            Err(e) => {
                // Put each slice back at the front of its own shard,
                // oldest first, ahead of anything submitted meanwhile.
                let mut inner = self.inner.lock();
                for (k, drained) in per_shard_batch.into_iter().enumerate() {
                    let shard = &mut inner.shards[k];
                    for entry in drained.into_iter().rev() {
                        shard.queue.push_front(entry);
                    }
                    if let Some(metrics) = &self.metrics {
                        metrics.shard_queue_depth[k].set(shard.queue.len() as i64);
                    }
                }
                if let Some(metrics) = &self.metrics {
                    let depth: usize = inner.shards.iter().map(|s| s.queue.len()).sum();
                    metrics.queue_depth.set(depth as i64);
                }
                return Err(e);
            }
        };
        let report = EpochReport {
            epoch: snapshot.epoch(),
            applied: total,
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
            total,
        );
        self.cell.store(next);
        if let Some(metrics) = &self.metrics {
            metrics.epoch_seconds.observe(start.elapsed().as_secs_f64());
            metrics.dirty_users.set(delta.users_recomputed as i64);
            metrics.count_epoch(mode);
            for (k, drained) in per_shard_batch.iter().enumerate() {
                let dirty: BTreeSet<UserId> = drained.iter().map(|e| e.record.user).collect();
                metrics.shard_dirty_users[k].set(dirty.len() as i64);
            }
        }
        let mut inner = self.inner.lock();
        inner.total_applied += total as u64;
        inner.epochs_run += 1;
        if mode == EpochMode::FullRebuild {
            inner.full_rebuilds += 1;
        }
        inner.last_epoch = Some(report);
        for (shard, drained) in inner.shards.iter_mut().zip(&per_shard_batch) {
            shard.applied_total += drained.len() as u64;
            if let Some(last) = drained.last() {
                shard.watermark = shard.watermark.max(last.seq);
            }
        }
        Ok(Some(report))
    }

    /// Point-in-time statistics, including one [`ShardStats`] row per
    /// shard (`GET /api/v1/ingest/stats`).
    pub fn stats(&self) -> ShardedIngestStats {
        let inner = self.inner.lock();
        let shards: Vec<ShardStats> = inner
            .shards
            .iter()
            .enumerate()
            .map(|(k, shard)| ShardStats {
                shard: k,
                queue_depth: shard.queue.len(),
                queue_capacity: self.per_shard_capacity,
                watermark: shard.watermark,
                total_accepted: shard.accepted,
                total_applied: shard.applied_total,
                wal_segment_bytes: shard.wal.as_ref().map_or(0, Wal::segment_bytes),
                wal_checkpoint_bytes: shard.wal.as_ref().map_or(0, Wal::checkpoint_bytes),
            })
            .collect();
        ShardedIngestStats {
            epoch: self.cell.epoch(),
            history_depth: self.history.depth(),
            history_capacity: self.history.capacity(),
            shard_count: self.shard_count,
            queue_depth: shards.iter().map(|s| s.queue_depth).sum(),
            queue_capacity: self.per_shard_capacity * self.shard_count,
            total_accepted: inner.total_accepted,
            total_applied: inner.total_applied,
            durable: self.config.wal.is_some(),
            wal_segment_bytes: shards.iter().map(|s| s.wal_segment_bytes).sum(),
            wal_checkpoint_bytes: shards.iter().map(|s| s.wal_checkpoint_bytes).sum(),
            epochs_run: inner.epochs_run,
            full_rebuilds: inner.full_rebuilds,
            last_epoch: inner.last_epoch,
            shards,
        }
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
}

/// The sharded re-mine: partitions the to-mine set (dirty users plus
/// users absent from the previous patterns) by [`shard_of`], mines each
/// partition as one parallel task, and splices results back in
/// `prepared.seqdb().user_ids()` order. Produces exactly what
/// [`PatternMiner::detect_updated`](crowdweb_mobility::PatternMiner::detect_updated)
/// produces, byte for byte — the per-user miner is deterministic and
/// the splice order is global — while giving the executor
/// shard-grained units of work.
pub(crate) fn mine_sharded(
    config: &IngestConfig,
    shards: usize,
    metrics: Option<&IngestMetrics>,
    prepared: &Prepared,
    previous: &[UserPatterns],
    dirty: &BTreeSet<UserId>,
) -> Result<Vec<UserPatterns>, IngestError> {
    let miner = config.miner()?;
    let prev: HashMap<UserId, &UserPatterns> = previous.iter().map(|p| (p.user, p)).collect();
    let mut buckets: Vec<Vec<UserView<'_>>> = vec![Vec::new(); shards];
    for view in prepared.seqdb().views() {
        if dirty.contains(&view.user()) || !prev.contains_key(&view.user()) {
            buckets[shard_of(view.user(), shards)].push(view);
        }
    }
    let mined = parallel_map_with_index(config.parallelism, &buckets, |k, views| {
        let started = Instant::now();
        let out: Result<Vec<UserPatterns>, _> =
            views.iter().map(|view| miner.detect_view(*view)).collect();
        if let Some(metrics) = metrics {
            metrics.fanout_seconds[k].observe(started.elapsed().as_secs_f64());
        }
        out
    });
    let mut mined_by_user: HashMap<UserId, UserPatterns> = HashMap::new();
    for shard in mined {
        for patterns in shard.map_err(crowdweb_crowd::PipelineError::Mobility)? {
            mined_by_user.insert(patterns.user, patterns);
        }
    }
    Ok(prepared
        .seqdb()
        .user_ids()
        .iter()
        .map(|user| match mined_by_user.remove(user) {
            Some(fresh) => fresh,
            // Only reachable for users present in `previous` (the
            // bucket filter mined everyone else).
            None => (*prev.get(user).expect("filtered above")).clone(),
        })
        .collect())
}

fn shard_wal_config(base: &WalConfig, shard: usize) -> WalConfig {
    WalConfig {
        dir: base.dir.join(format!("shard-{shard}")),
        segment_bytes: base.segment_bytes,
    }
}

/// What an open folds into the current shards: `shard-<k>` directories
/// with `k` at or beyond the current count, and the segment and
/// checkpoint files an earlier, unsharded release left in the WAL root.
fn stale_sources(
    dir: &Path,
    shard_count: usize,
) -> Result<(Vec<PathBuf>, Vec<PathBuf>), IngestError> {
    let (mut dirs, mut files) = (Vec::new(), Vec::new());
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let stale_shard = name
            .strip_prefix("shard-")
            .and_then(|k| k.parse::<usize>().ok())
            .is_some_and(|k| k >= shard_count);
        if path.is_dir() && stale_shard {
            dirs.push(path);
        } else if path.is_file()
            && (name == "checkpoint.jsonl" || (name.starts_with("seg-") && name.ends_with(".wal")))
        {
            files.push(path);
        }
    }
    dirs.sort();
    files.sort();
    Ok((dirs, files))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdweb_dataset::Timestamp;
    use crowdweb_obs::{MetricsRegistry, SHARD_FANOUT_SECONDS};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("crowdweb-shard-{tag}-{}-{n}", std::process::id()))
    }

    fn config(shards: usize) -> IngestConfig {
        let mut c = IngestConfig::default();
        c.preprocessor = c.preprocessor.min_active_days(20);
        c.shards = shards;
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

    #[test]
    fn routing_is_stable_and_in_range() {
        for raw in [0u32, 1, 7, 97, 12_345, u32::MAX] {
            let user = UserId::new(raw);
            for shards in [1usize, 2, 4, 7, 64] {
                let k = shard_of(user, shards);
                assert!(k < shards);
                assert_eq!(k, shard_of(user, shards), "routing must be deterministic");
            }
            assert_eq!(shard_of(user, 1), 0);
        }
    }

    #[test]
    fn effective_shards_clamps() {
        assert!(effective_shards(0) >= 1);
        assert_eq!(effective_shards(3), 3);
        assert_eq!(effective_shards(1_000), MAX_SHARDS);
    }

    /// The crowd model of a cold build over the base plus `records`.
    fn cold_crowd(cfg: &IngestConfig, records: &[MergeRecord]) -> String {
        let merged = base().merge_records(records).unwrap();
        serde_json::to_string(&cfg.driver().unwrap().run(&merged).unwrap().crowd).unwrap()
    }

    #[test]
    fn backpressure_rejects_whole_batch() {
        let mut cfg = config(1);
        cfg.queue_capacity = 3;
        let engine = ShardedIngestEngine::open(base(), cfg).unwrap();
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
        let engine = ShardedIngestEngine::open(base(), config(1)).unwrap();
        let receipt = engine.submit(Vec::new()).unwrap();
        assert_eq!(receipt.accepted, 0);
        assert!(engine.run_epoch().unwrap().is_none());
        assert_eq!(engine.epoch(), 0);
    }

    #[test]
    fn epoch_applies_batch_and_updates_stats() {
        let engine = ShardedIngestEngine::open(base(), config(1)).unwrap();
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
        let mut cfg = config(1);
        cfg.epoch_batch = Some(3);
        let engine = ShardedIngestEngine::open(base(), cfg).unwrap();
        let records = shifted_records(engine.snapshot().dataset(), 3600, 4);
        let receipt = engine.submit(records).unwrap();
        let report = receipt.epoch.expect("threshold reached, epoch must run");
        assert_eq!(report.applied, 4);
        assert_eq!(engine.epoch(), 1);
        assert_eq!(receipt.queue_depth, 0);
    }

    #[test]
    fn metrics_track_submits_epochs_and_wal() {
        let dir = temp_dir("metrics");
        let registry = MetricsRegistry::new();
        let mut cfg = config(1);
        cfg.wal = Some(WalConfig::new(&dir));
        cfg.metrics = Some(registry.clone());
        let engine = ShardedIngestEngine::open(base(), cfg).unwrap();
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
    fn wal_append_failure_rejects_batch_atomically() {
        // One shard: the failing append is the only one. Four shards:
        // the failing shard is the highest-numbered one the batch
        // routes to, so its lower-numbered siblings' appends have
        // already landed and must be rolled back.
        for (shards, n) in [(1usize, 2usize), (4, 16)] {
            let dir = temp_dir("walfail");
            let mut cfg = config(shards);
            cfg.wal = Some(WalConfig::new(&dir));
            let engine = ShardedIngestEngine::open(base(), cfg.clone()).unwrap();
            let records = shifted_records(engine.snapshot().dataset(), 3600, n);
            let routed: BTreeSet<usize> =
                records.iter().map(|r| shard_of(r.user, shards)).collect();
            let failing = *routed.last().unwrap();
            if shards > 1 {
                assert!(routed.len() >= 2, "the batch must span several shards");
            }
            // Sabotage the failing shard's first append: no directory,
            // no segment file.
            let shard_dir = dir.join(format!("shard-{failing}"));
            std::fs::remove_dir_all(&shard_dir).unwrap();
            let err = engine.submit(records.clone()).unwrap_err();
            assert!(matches!(err, IngestError::Wal(_)), "{shards}: {err:?}");
            assert_eq!(engine.queue_depth(), 0, "failed batch must not enqueue");
            assert_eq!(
                engine.stats().wal_segment_bytes,
                0,
                "{shards}: a sibling append survived the rejection"
            );
            // The sequence numbers were released: a retry reuses the
            // range safely because nothing of the failed batch survived.
            std::fs::create_dir_all(&shard_dir).unwrap();
            let receipt = engine.submit(records.clone()).unwrap();
            assert_eq!((receipt.first_seq, receipt.last_seq), (1, n as u64));
            drop(engine);
            // A reopen applies each record exactly once.
            let engine = ShardedIngestEngine::open(base(), cfg.clone()).unwrap();
            assert_eq!(
                engine.snapshot().dataset().len(),
                base().len() + n,
                "{shards}: a record was lost or applied twice"
            );
            assert_eq!(
                serde_json::to_string(engine.snapshot().crowd()).unwrap(),
                cold_crowd(&cfg, &records)
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn sharded_epoch_matches_cold_build() {
        let records = shifted_records(&base(), 3600, 24);
        let want = cold_crowd(&config(1), &records);
        for shards in [1usize, 4] {
            let engine = ShardedIngestEngine::open(base(), config(shards)).unwrap();
            let receipt = engine.submit(records.clone()).unwrap();
            assert_eq!(receipt.accepted, 24);
            let report = engine.run_epoch().unwrap().unwrap();
            assert_eq!(report.epoch, 1);
            assert_eq!(report.applied, 24);
            assert_eq!(
                serde_json::to_string(engine.snapshot().crowd()).unwrap(),
                want,
                "{shards} shards diverged from the cold build"
            );
        }
    }

    #[test]
    fn backpressure_reports_the_saturated_shard() {
        let mut cfg = config(4);
        cfg.queue_capacity = 4; // one slot per shard
        let engine = ShardedIngestEngine::open(base(), cfg).unwrap();
        let records = shifted_records(engine.snapshot().dataset(), 3600, 8);
        let err = engine.submit(records).unwrap_err();
        match err {
            IngestError::Backpressure {
                capacity, rejected, ..
            } => {
                assert_eq!(capacity, 1, "per-shard capacity");
                assert_eq!(rejected, 8);
            }
            other => panic!("expected backpressure, got {other:?}"),
        }
        assert_eq!(engine.queue_depth(), 0, "rejected batch must not enqueue");
    }

    #[test]
    fn stats_expose_per_shard_rows() {
        let dir = temp_dir("stats");
        let mut cfg = config(4);
        cfg.wal = Some(WalConfig::new(&dir));
        let engine = ShardedIngestEngine::open(base(), cfg).unwrap();
        let records = shifted_records(engine.snapshot().dataset(), 3600, 16);
        engine.submit(records).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.shard_count, 4);
        assert_eq!(stats.shards.len(), 4);
        assert_eq!(stats.queue_depth, 16);
        assert_eq!(
            stats.shards.iter().map(|s| s.queue_depth).sum::<usize>(),
            16
        );
        assert!(stats.durable);
        engine.run_epoch().unwrap().unwrap();
        let stats = engine.stats();
        assert_eq!(stats.total_applied, 16);
        let applied: u64 = stats.shards.iter().map(|s| s.total_applied).sum();
        assert_eq!(applied, 16);
        // Watermarks cover every applied sequence number.
        let max_watermark = stats.shards.iter().map(|s| s.watermark).max().unwrap();
        assert_eq!(max_watermark, 16);
        assert!(serde_json::to_string(&stats).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn per_shard_metrics_are_bounded_and_recorded() {
        let registry = MetricsRegistry::new();
        let mut cfg = config(2);
        cfg.metrics = Some(registry.clone());
        let engine = ShardedIngestEngine::open(base(), cfg).unwrap();
        let records = shifted_records(engine.snapshot().dataset(), 3600, 12);
        engine.submit(records).unwrap();
        let queued: i64 = (0..2)
            .map(|k| {
                registry
                    .gauge_value(
                        "crowdweb_ingest_shard_queue_depth",
                        &[("shard", &k.to_string())],
                    )
                    .unwrap()
            })
            .sum();
        assert_eq!(queued, 12);
        engine.run_epoch().unwrap().unwrap();
        for k in 0..2usize {
            let label = k.to_string();
            let (count, _) = registry
                .histogram_stats(SHARD_FANOUT_SECONDS, &[("shard", &label)])
                .expect("per-shard fan-out histogram registered");
            assert_eq!(count, 1, "shard {k} must record exactly one fan-out");
            assert_eq!(
                registry.gauge_value("crowdweb_ingest_shard_queue_depth", &[("shard", &label)]),
                Some(0)
            );
        }
    }

    #[test]
    fn shard_wal_replay_reaches_same_snapshot() {
        for shards in [1usize, 4] {
            let dir = temp_dir("replay");
            let mut cfg = config(shards);
            cfg.wal = Some(WalConfig::new(&dir));
            let records;
            let crowd_json;
            {
                let engine = ShardedIngestEngine::open(base(), cfg.clone()).unwrap();
                records = shifted_records(engine.snapshot().dataset(), 3600, 12);
                engine.submit(records.clone()).unwrap();
                engine.run_epoch().unwrap().unwrap();
                crowd_json = serde_json::to_string(engine.snapshot().crowd()).unwrap();
                assert!(engine.stats().durable);
            } // crash
            let engine = ShardedIngestEngine::open(base(), cfg).unwrap();
            // Everything replayed into the epoch-0 cold build.
            assert_eq!(engine.epoch(), 0);
            assert_eq!(
                serde_json::to_string(engine.snapshot().crowd()).unwrap(),
                crowd_json,
                "{shards}: replayed snapshot diverged from pre-crash snapshot"
            );
            // The global sequence continues after the replayed tail.
            let receipt = engine.submit(records).unwrap();
            assert_eq!(receipt.first_seq, 13);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn inline_epoch_failure_reports_accepted_range() {
        for shards in [1usize, 4] {
            let dir = temp_dir("epochfail");
            let mut cfg = config(shards);
            cfg.wal = Some(WalConfig::new(&dir));
            cfg.epoch_batch = Some(8);
            let engine = ShardedIngestEngine::open(base(), cfg.clone()).unwrap();
            let records = shifted_records(engine.snapshot().dataset(), 3600, 8);
            engine.submit(records[..5].to_vec()).unwrap();
            // Fail the inline epoch's build, after the batch was accepted.
            crate::engine::FAIL_NEXT_BUILD.with(|fail| fail.set(true));
            let err = engine.submit(records[5..].to_vec()).unwrap_err();
            match err {
                IngestError::EpochFailed {
                    accepted,
                    first_seq,
                    last_seq,
                    ..
                } => assert_eq!((accepted, first_seq, last_seq), (3, 6, 8)),
                other => panic!("{shards}: expected EpochFailed, got {other:?}"),
            }
            // The engine still holds the batch: every shard got its
            // slice back and the epoch did not advance, so a client
            // re-submit would double-apply — what the error's contract
            // warns against.
            assert_eq!(engine.epoch(), 0);
            assert_eq!(engine.queue_depth(), 8);
            let stats = engine.stats();
            assert_eq!(stats.total_applied, 0);
            assert!(stats.shards.iter().all(|s| s.watermark == 0));
            drop(engine);
            // A reopen applies each accepted record exactly once.
            let engine = ShardedIngestEngine::open(base(), cfg.clone()).unwrap();
            assert_eq!(engine.snapshot().dataset().len(), base().len() + 8);
            assert_eq!(
                serde_json::to_string(engine.snapshot().crowd()).unwrap(),
                cold_crowd(&cfg, &records)
            );
            assert_eq!(engine.submit(records[..1].to_vec()).unwrap().first_seq, 9);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn reopening_with_fewer_shards_folds_stale_directories() {
        let dir = temp_dir("fold");
        let mut cfg = config(4);
        cfg.wal = Some(WalConfig::new(&dir));
        let records;
        let crowd_json;
        {
            let engine = ShardedIngestEngine::open(base(), cfg.clone()).unwrap();
            records = shifted_records(engine.snapshot().dataset(), 3600, 12);
            engine.submit(records.clone()).unwrap();
            crowd_json = serde_json::to_string(engine.snapshot().crowd()).unwrap();
        } // crash before any epoch
        cfg.shards = 2;
        let engine = ShardedIngestEngine::open(base(), cfg.clone()).unwrap();
        let merged = serde_json::to_string(engine.snapshot().crowd()).unwrap();
        assert_ne!(
            merged, crowd_json,
            "replayed records must be part of the rebuilt snapshot"
        );
        assert!(!dir.join("shard-2").exists(), "stale shard dir must fold");
        assert!(!dir.join("shard-3").exists(), "stale shard dir must fold");
        // Records survived the fold: a fresh 2-shard open still has them.
        drop(engine);
        let engine = ShardedIngestEngine::open(base(), cfg).unwrap();
        assert_eq!(
            serde_json::to_string(engine.snapshot().crowd()).unwrap(),
            merged
        );
        assert_eq!(engine.submit(records).unwrap().first_seq, 13);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_unsharded_wal_is_migrated() {
        let dir = temp_dir("migrate");
        let mut cfg = config(2);
        cfg.wal = Some(WalConfig::new(&dir));
        // What an earlier, unsharded release left behind: one log in
        // the WAL root holding every record.
        let records = shifted_records(&base(), 3600, 12);
        let entries: Vec<WalEntry> = records
            .iter()
            .enumerate()
            .map(|(i, record)| WalEntry {
                seq: i as u64 + 1,
                record: record.clone(),
            })
            .collect();
        let (mut wal, _) = Wal::open(&WalConfig::new(&dir)).unwrap();
        wal.append(&entries).unwrap();
        drop(wal);
        let engine = ShardedIngestEngine::open(base(), cfg.clone()).unwrap();
        assert_eq!(
            serde_json::to_string(engine.snapshot().crowd()).unwrap(),
            cold_crowd(&cfg, &records),
            "migration from the unsharded layout lost records"
        );
        let (_, root_files) = stale_sources(&dir, 2).unwrap();
        assert!(
            root_files.is_empty(),
            "legacy root log must be folded away: {root_files:?}"
        );
        assert_eq!(engine.submit(records).unwrap().first_seq, 13);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
