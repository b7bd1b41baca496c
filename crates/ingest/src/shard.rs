//! User-id-range sharded ingest engine.
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
//!   user order — byte-identical to the unsharded engine's
//!   `detect_updated` for any shard count and any
//!   [`Parallelism`](crowdweb_exec::Parallelism) policy.
//!
//! The shard segments are the only durable copy of the records: epochs
//! write nothing to disk. Crash recovery opens every `shard-*`
//! directory concurrently (plus any legacy unsharded log in the WAL
//! root), unions the surviving entries by sequence number, and
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
use crowdweb_obs::{Gauge, Histogram, EPOCH_LATENCY_BUCKETS, SHARD_FANOUT_SECONDS};
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

/// Pre-registered per-shard metric handles (bounded `shard` label).
#[derive(Debug)]
struct ShardMetrics {
    base: IngestMetrics,
    queue_depth: Vec<Gauge>,
    dirty_users: Vec<Gauge>,
    fanout_seconds: Vec<Histogram>,
}

impl ShardMetrics {
    fn new(base: IngestMetrics, shards: usize) -> ShardMetrics {
        let mut queue_depth = Vec::with_capacity(shards);
        let mut dirty_users = Vec::with_capacity(shards);
        let mut fanout_seconds = Vec::with_capacity(shards);
        for k in 0..shards {
            let label = k.to_string();
            queue_depth.push(base.registry.gauge(
                "crowdweb_ingest_shard_queue_depth",
                "Records queued on this shard for the next epoch.",
                &[("shard", &label)],
            ));
            dirty_users.push(base.registry.gauge(
                "crowdweb_ingest_shard_dirty_users",
                "Users this shard re-mined in the most recent epoch.",
                &[("shard", &label)],
            ));
            fanout_seconds.push(base.registry.histogram(
                SHARD_FANOUT_SECONDS,
                "Wall-clock seconds of this shard's re-mine slice per epoch.",
                &[("shard", &label)],
                &EPOCH_LATENCY_BUCKETS,
            ));
        }
        ShardMetrics {
            base,
            queue_depth,
            dirty_users,
            fanout_seconds,
        }
    }
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

/// The sharded live-ingestion engine (see the [module docs](self)).
///
/// Drop-in compatible with [`IngestEngine`](crate::IngestEngine) for
/// the submit → epoch → snapshot flow, with byte-identical snapshots
/// for any shard count.
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
    metrics: Option<ShardMetrics>,
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
            // Any unsharded log left in the root by the plain engine, and
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
            .map(|registry| ShardMetrics::new(IngestMetrics::new(registry), shard_count));
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
    /// slice to its shard's WAL, and enqueues — all under one lock.
    /// If **any** target shard's queue slice would overflow, the whole
    /// batch is rejected and nothing is appended anywhere.
    ///
    /// # Errors
    ///
    /// Same contract as [`IngestEngine::submit`](crate::IngestEngine::submit):
    /// [`IngestError::Backpressure`] (reporting the saturated shard's
    /// queue) and WAL errors reject atomically; an inline-epoch failure
    /// returns [`IngestError::EpochFailed`] with the accepted range.
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
                    metrics.base.wal_bytes.add(appended_bytes);
                    metrics.base.wal_records.add(total as u64);
                }
            }

            inner.total_accepted += total as u64;
            if let Some(metrics) = &self.metrics {
                metrics.base.accepted.add(total as u64);
            }
            for (k, slice) in per_shard.into_iter().enumerate() {
                let shard = &mut inner.shards[k];
                shard.accepted += slice.len() as u64;
                shard.queue.extend(slice);
                if let Some(metrics) = &self.metrics {
                    metrics.queue_depth[k].set(shard.queue.len() as i64);
                }
            }
            let depth: usize = inner.shards.iter().map(|s| s.queue.len()).sum();
            if let Some(metrics) = &self.metrics {
                metrics.base.queue_depth.set(depth as i64);
            }
            (first_seq, last_seq, depth)
        };
        let mut report = None;
        if self.config.epoch_batch.is_some_and(|batch| depth >= batch) {
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
    /// is spliced back in prepared user order — byte-identical to the
    /// unsharded engine. The epoch does no WAL I/O: every record it
    /// applies is already durable in its shard's segments.
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
                for gauge in &metrics.queue_depth {
                    gauge.set(0);
                }
                metrics.base.queue_depth.set(0);
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
        let result =
            build_next_snapshot(&self.config, &previous, &batch, |prepared, prev, dirty| {
                self.mine_sharded(prepared, prev, dirty)
            });
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
                        metrics.queue_depth[k].set(shard.queue.len() as i64);
                    }
                }
                if let Some(metrics) = &self.metrics {
                    let depth: usize = inner.shards.iter().map(|s| s.queue.len()).sum();
                    metrics.base.queue_depth.set(depth as i64);
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
            metrics
                .base
                .epoch_seconds
                .observe(start.elapsed().as_secs_f64());
            metrics.base.dirty_users.set(delta.users_recomputed as i64);
            metrics.base.count_epoch(mode);
            for (k, drained) in per_shard_batch.iter().enumerate() {
                let dirty: BTreeSet<UserId> = drained.iter().map(|e| e.record.user).collect();
                metrics.dirty_users[k].set(dirty.len() as i64);
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

    /// The sharded re-mine: partitions the to-mine set (dirty users
    /// plus users absent from the previous patterns) by [`shard_of`],
    /// mines each partition as one parallel task, and splices results
    /// back in `prepared.seqdb().user_ids()` order. Produces exactly
    /// what [`PatternMiner::detect_updated`] produces, byte for byte —
    /// the per-user miner is deterministic and the splice order is
    /// global — while giving the executor shard-grained units of work.
    fn mine_sharded(
        &self,
        prepared: &Prepared,
        previous: &[UserPatterns],
        dirty: &BTreeSet<UserId>,
    ) -> Result<Vec<UserPatterns>, IngestError> {
        let miner = self.config.miner()?;
        let prev: HashMap<UserId, &UserPatterns> = previous.iter().map(|p| (p.user, p)).collect();
        let mut buckets: Vec<Vec<UserView<'_>>> = vec![Vec::new(); self.shard_count];
        for view in prepared.seqdb().views() {
            if dirty.contains(&view.user()) || !prev.contains_key(&view.user()) {
                buckets[shard_of(view.user(), self.shard_count)].push(view);
            }
        }
        let metrics = self.metrics.as_ref();
        let mined = parallel_map_with_index(self.config.parallelism, &buckets, |k, views| {
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

fn shard_wal_config(base: &WalConfig, shard: usize) -> WalConfig {
    WalConfig {
        dir: base.dir.join(format!("shard-{shard}")),
        segment_bytes: base.segment_bytes,
    }
}

/// What an open folds into the current shards: `shard-<k>` directories
/// with `k` at or beyond the current count, and the segment and
/// checkpoint files an unsharded engine left in the WAL root.
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
    use crate::IngestEngine;
    use crowdweb_dataset::Timestamp;
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

    #[test]
    fn sharded_epoch_matches_unsharded_engine() {
        let unsharded = IngestEngine::open(base(), config(1)).unwrap();
        let records = shifted_records(unsharded.snapshot().dataset(), 3600, 24);
        unsharded.submit(records.clone()).unwrap();
        unsharded.run_epoch().unwrap().unwrap();
        let want = serde_json::to_string(unsharded.snapshot().crowd()).unwrap();
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
                "{shards} shards diverged from the unsharded engine"
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
        let registry = crowdweb_obs::MetricsRegistry::new();
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
        let dir = temp_dir("replay");
        let mut cfg = config(4);
        cfg.wal = Some(WalConfig::new(&dir));
        let records;
        let crowd_json;
        {
            let engine = ShardedIngestEngine::open(base(), cfg.clone()).unwrap();
            records = shifted_records(engine.snapshot().dataset(), 3600, 12);
            engine.submit(records.clone()).unwrap();
            engine.run_epoch().unwrap().unwrap();
            crowd_json = serde_json::to_string(engine.snapshot().crowd()).unwrap();
        } // crash
        let engine = ShardedIngestEngine::open(base(), cfg).unwrap();
        assert_eq!(engine.epoch(), 0);
        assert_eq!(
            serde_json::to_string(engine.snapshot().crowd()).unwrap(),
            crowd_json,
            "replayed snapshot diverged from pre-crash snapshot"
        );
        // The global sequence continues after the replayed tail.
        let receipt = engine.submit(records).unwrap();
        assert_eq!(receipt.first_seq, 13);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inline_epoch_failure_reports_accepted_range() {
        let dir = temp_dir("epochfail");
        let mut cfg = config(4);
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
            other => panic!("expected EpochFailed, got {other:?}"),
        }
        // Every shard got its slice back and the epoch did not advance.
        assert_eq!(engine.epoch(), 0);
        assert_eq!(engine.queue_depth(), 8);
        let stats = engine.stats();
        assert_eq!(stats.total_applied, 0);
        assert!(stats.shards.iter().all(|s| s.watermark == 0));
        drop(engine);
        // A reopen applies each accepted record exactly once.
        let engine = ShardedIngestEngine::open(base(), cfg.clone()).unwrap();
        let merged = base().merge_records(&records).unwrap();
        assert_eq!(engine.snapshot().dataset().len(), merged.len());
        assert_eq!(
            serde_json::to_string(engine.snapshot().crowd()).unwrap(),
            serde_json::to_string(&cfg.driver().unwrap().run(&merged).unwrap().crowd).unwrap()
        );
        assert_eq!(engine.submit(records[..1].to_vec()).unwrap().first_seq, 9);
        std::fs::remove_dir_all(&dir).unwrap();
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
        let records;
        let crowd_json;
        {
            let engine = IngestEngine::open(base(), cfg.clone()).unwrap();
            records = shifted_records(engine.snapshot().dataset(), 3600, 12);
            engine.submit(records.clone()).unwrap();
            engine.run_epoch().unwrap().unwrap();
            crowd_json = serde_json::to_string(engine.snapshot().crowd()).unwrap();
        } // crash; switch the deployment to the sharded engine
        let engine = ShardedIngestEngine::open(base(), cfg).unwrap();
        assert_eq!(
            serde_json::to_string(engine.snapshot().crowd()).unwrap(),
            crowd_json,
            "migration from the unsharded layout lost records"
        );
        assert!(
            !dir.join("checkpoint.jsonl").exists(),
            "legacy root checkpoint must be folded away"
        );
        assert_eq!(engine.submit(records).unwrap().first_seq, 13);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
