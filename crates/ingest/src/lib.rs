//! Live check-in ingestion for the CrowdWeb platform.
//!
//! The paper's demo flow — "if any audience member is willing to share
//! their check-in history, we can upload it to the platform" — implies
//! a serving system that absorbs new data while answering queries. This
//! crate turns the batch pipeline into that system:
//!
//! 1. **Bounded queue** — [`ShardedIngestEngine::submit`] accepts
//!    [`MergeRecord`](crowdweb_dataset::MergeRecord) batches into a
//!    bounded queue; a full queue rejects the batch with
//!    [`IngestError::Backpressure`] instead of growing without limit.
//! 2. **Write-ahead log** ([`wal`]) — accepted records are framed
//!    (`len + crc32 + JSON`) into segment files *before* they are
//!    queued and replayed on startup. The segments are the only
//!    durable copy: epochs and restarts write nothing else, so ingest
//!    cost tracks the new records, not the history. A torn final
//!    record is truncated away on replay.
//! 3. **Epoch snapshots** ([`engine`]) — [`ShardedIngestEngine::run_epoch`]
//!    drains the queue, merges the batch into the dataset, re-runs the
//!    pipeline *incrementally* (only users whose sequences changed are
//!    re-prepared, re-mined, and re-placed; the crowd model is spliced
//!    per user), and atomically publishes an immutable
//!    [`Arc<PlatformSnapshot>`](PlatformSnapshot) via
//!    [`crowdweb_exec::EpochCell`] — readers never block behind
//!    ingestion and never observe a half-updated pipeline.
//! 4. **Observability** ([`stats`]) — [`ShardedIngestEngine::stats`]
//!    reports queue depth, WAL bytes, epoch latency, and re-mine
//!    counts, engine-wide and per shard.
//! 5. **Sharding** ([`shard`]) — [`ShardedIngestEngine`] partitions
//!    the queue, the WAL, and the per-epoch dirty set across
//!    `hash(user) % N` shards so epoch re-mining fans out per shard,
//!    while a global sequence counter keeps snapshots byte-identical
//!    for any shard count, one included.
//! 6. **Epoch history** ([`history`]) — each published epoch is also
//!    recorded in a bounded [`CrowdHistory`] ring as either a shared
//!    full checkpoint or a [`CrowdSplice`](crowdweb_crowd::CrowdSplice)
//!    delta, so any retained epoch's crowd model can be rematerialized
//!    on demand (the server's `?epoch=N` time-travel parameter).
//!
//! Determinism contract: after any sequence of submits and epochs, the
//! published snapshot's pipeline stages are byte-identical to a cold
//! build over the merged dataset with the same configuration — under
//! any [`Parallelism`](crowdweb_exec::Parallelism) policy. Crash
//! recovery (WAL replay, including a torn tail) reaches the same
//! snapshot minus any records that never finished hitting disk.
//!
//! # Examples
//!
//! ```
//! use crowdweb_ingest::{IngestConfig, ShardedIngestEngine};
//! use crowdweb_dataset::MergeRecord;
//! use crowdweb_synth::SynthConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let base = SynthConfig::small(51).generate()?;
//! let mut config = IngestConfig::default();
//! config.preprocessor = config.preprocessor.min_active_days(20);
//! let engine = ShardedIngestEngine::open(base, config)?;
//! let before = engine.snapshot();
//!
//! // Re-submit an existing check-in shifted by an hour.
//! let c = before.dataset().checkins()[0];
//! let venue = before.dataset().venue(c.venue()).unwrap();
//! let record = MergeRecord {
//!     user: c.user(),
//!     venue_key: venue.name().to_owned(),
//!     category: "Office".to_owned(),
//!     location: venue.location(),
//!     tz_offset_minutes: c.tz_offset_minutes(),
//!     time: crowdweb_dataset::Timestamp::from_unix_seconds(c.time().unix_seconds() + 3600),
//! };
//! let receipt = engine.submit(vec![record])?;
//! assert_eq!(receipt.accepted, 1);
//! let report = engine.run_epoch()?.expect("queue was non-empty");
//! assert_eq!(report.epoch, 1);
//! assert_eq!(engine.snapshot().dataset().len(), before.dataset().len() + 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod history;
pub mod shard;
pub mod snapshot;
pub mod stats;
pub mod wal;

pub use engine::IngestConfig;
pub use error::IngestError;
pub use history::{CrowdHistory, EpochInfo, EpochRecord, EpochRepr};
pub use shard::{effective_shards, shard_of, ShardedIngestEngine, MAX_SHARDS};
pub use snapshot::PlatformSnapshot;
pub use stats::{EpochMode, EpochReport, ShardStats, ShardedIngestStats, SubmitReceipt};
pub use wal::{Wal, WalConfig, WalEntry, WalRecovery};
