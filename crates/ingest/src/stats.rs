//! Observability types for the ingest subsystem.

use crowdweb_crowd::CrowdDelta;
use serde::{Deserialize, Serialize};

/// How an epoch rebuilt the snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EpochMode {
    /// Only dirty users were re-prepared, re-mined, and re-placed.
    Incremental,
    /// The batch moved the study window (or otherwise invalidated the
    /// shortcut); the full pipeline ran.
    FullRebuild,
}

/// Summary of one completed epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochReport {
    /// The epoch number the new snapshot was published at.
    pub epoch: u64,
    /// Records drained from the queue and applied.
    pub applied: usize,
    /// Users whose patterns were re-mined.
    pub users_remined: usize,
    /// Incremental or full rebuild.
    pub mode: EpochMode,
    /// Wall-clock time of the epoch, in microseconds.
    pub duration_micros: u64,
    /// How much of the crowd model moved.
    pub delta: CrowdDelta,
}

/// Receipt returned to a submitter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SubmitReceipt {
    /// Records accepted into the queue (all or nothing per batch).
    pub accepted: usize,
    /// Sequence number of the first accepted record (0 if none).
    pub first_seq: u64,
    /// Sequence number of the last accepted record (0 if none).
    pub last_seq: u64,
    /// Queue depth right after the batch was enqueued.
    pub queue_depth: usize,
    /// Present when the submit tripped the auto-epoch threshold and an
    /// epoch ran inline.
    pub epoch: Option<EpochReport>,
}

/// One shard's slice of [`ShardedIngestStats`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ShardStats {
    /// Shard index (`hash(user) % shard_count`).
    pub shard: usize,
    /// Records waiting in this shard's queue.
    pub queue_depth: usize,
    /// This shard's queue capacity (the engine capacity split evenly).
    pub queue_capacity: usize,
    /// Highest sequence number applied from this shard (0 if none).
    /// Kept in memory only: a restart recomputes it from the records
    /// the shard's log replays.
    pub watermark: u64,
    /// Records routed to this shard since the engine opened.
    pub total_accepted: u64,
    /// Records from this shard applied to a snapshot.
    pub total_applied: u64,
    /// Live WAL segment bytes in this shard's directory.
    pub wal_segment_bytes: u64,
    /// Bytes of this shard's checkpoint, if it has one: a legacy
    /// checkpoint from an earlier release, or one written when an open
    /// folded stale logs into this shard. Epochs never write one.
    pub wal_checkpoint_bytes: u64,
}

/// Point-in-time statistics of the sharded engine
/// (`GET /api/v1/ingest/stats`): engine-wide totals plus one
/// [`ShardStats`] row per shard.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShardedIngestStats {
    /// Current published epoch.
    pub epoch: u64,
    /// Epochs currently retained by the history ring (scrubbable via
    /// `?epoch=N`).
    pub history_depth: usize,
    /// The history ring's retention capacity.
    pub history_capacity: usize,
    /// Resolved shard count.
    pub shard_count: usize,
    /// Records waiting across every shard queue.
    pub queue_depth: usize,
    /// Total capacity across every shard queue.
    pub queue_capacity: usize,
    /// Records accepted since the engine opened.
    pub total_accepted: u64,
    /// Records applied to a snapshot since the engine opened.
    pub total_applied: u64,
    /// Whether write-ahead logs are configured.
    pub durable: bool,
    /// Live WAL segment bytes summed over every shard.
    pub wal_segment_bytes: u64,
    /// Legacy or folded checkpoint bytes summed over every shard (see
    /// [`ShardStats::wal_checkpoint_bytes`]).
    pub wal_checkpoint_bytes: u64,
    /// Epochs run since the engine opened.
    pub epochs_run: u64,
    /// How many of those fell back to a full pipeline rebuild.
    pub full_rebuilds: u64,
    /// The most recent epoch, if any has run.
    pub last_epoch: Option<EpochReport>,
    /// Per-shard breakdown, indexed by shard.
    pub shards: Vec<ShardStats>,
}
