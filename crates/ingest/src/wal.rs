//! Durable append-only write-ahead log for ingested check-ins.
//!
//! Every accepted [`MergeRecord`] is framed as
//! `[u32 len][u32 crc32][JSON payload]` (both integers little-endian)
//! and appended to the active segment file before the record is
//! queued, so an accepted batch survives a crash. Segments rotate at a
//! byte threshold and are named `seg-<first-seq>.wal`. Creating a
//! segment (or the log directory) also syncs the parent directory, so
//! the entry naming an acknowledged frame survives a power cut.
//!
//! The segments are the only durable copy of the records: epochs write
//! nothing and [`Wal::open`] rewrites nothing, so ingest writes track
//! the new records, never the history. A `checkpoint.jsonl` (a
//! `{"last_seq":N}` header plus entries) is still read when present:
//! earlier releases rewrote one after every epoch, and the sharded
//! engine writes one when it folds stale logs ([`Wal::checkpoint`]).
//! Segment entries at or below its header are skipped, since the
//! checkpoint already holds them.
//!
//! Replay tolerates a torn tail: decoding stops at the first frame
//! whose length, CRC, or payload fails to verify; the file is truncated
//! back to the last good record boundary and any later segments (which
//! could only exist if the torn one was not really the tail) are
//! discarded.

use crate::IngestError;
use crowdweb_dataset::MergeRecord;
use serde::{Deserialize, Serialize};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// One durable log entry: a record plus its global sequence number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalEntry {
    /// Monotonic sequence number assigned at submit time.
    pub seq: u64,
    /// The ingested record.
    pub record: MergeRecord,
}

#[derive(Debug, Serialize, Deserialize)]
struct CheckpointHeader {
    last_seq: u64,
}

/// Where and how the log is stored.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the segments (and any checkpoint).
    pub dir: PathBuf,
    /// Rotation threshold: a segment reaching this many bytes is closed
    /// and the next append opens a fresh one.
    pub segment_bytes: u64,
}

impl WalConfig {
    /// Default configuration over `dir` (4 MiB segments).
    pub fn new(dir: impl Into<PathBuf>) -> WalConfig {
        WalConfig {
            dir: dir.into(),
            segment_bytes: 4 * 1024 * 1024,
        }
    }

    /// Sets the segment rotation threshold.
    pub fn segment_bytes(mut self, bytes: u64) -> WalConfig {
        self.segment_bytes = bytes;
        self
    }
}

/// Everything recovered from disk by [`Wal::open`].
#[derive(Debug)]
pub struct WalRecovery {
    /// All surviving entries — any checkpoint's plus the segments'
    /// newer ones — in ascending `seq` order.
    pub entries: Vec<WalEntry>,
    /// Highest sequence number seen (0 when the log was empty).
    pub last_seq: u64,
}

#[derive(Debug)]
struct SegmentMeta {
    path: PathBuf,
    last_seq: u64,
    bytes: u64,
}

#[derive(Debug)]
struct ActiveSegment {
    file: File,
    meta: SegmentMeta,
}

/// A point-in-time position of the log used to undo one append; see
/// [`Wal::mark`] / [`Wal::rollback_to`].
#[derive(Debug)]
pub(crate) struct WalMark {
    segment_count: usize,
    /// `(path, bytes, last_seq)` of the active segment, if one existed.
    active: Option<(PathBuf, u64, u64)>,
}

/// The write-ahead log (see the [module docs](self)).
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    segment_limit: u64,
    /// Closed segments, in ascending first-seq order.
    segments: Vec<SegmentMeta>,
    active: Option<ActiveSegment>,
    checkpoint_bytes: u64,
}

/// Frames larger than this are treated as corruption, not records.
const MAX_RECORD_BYTES: u32 = 16 * 1024 * 1024;
const FRAME_HEADER: usize = 8;
const CHECKPOINT_FILE: &str = "checkpoint.jsonl";
const CHECKPOINT_TMP: &str = "checkpoint.tmp";

/// CRC-32 (IEEE polynomial, reflected) of every byte value, built at
/// compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[byte] = crc;
        byte += 1;
    }
    table
};

/// CRC-32 (IEEE polynomial), one table lookup per byte.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Syncs `dir` itself, making the entries created or renamed in it
/// durable.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Creates `dir` and any missing ancestors, syncing the parent of each
/// directory it creates.
fn create_dir_synced(dir: &Path) -> io::Result<()> {
    let missing: Vec<&Path> = dir
        .ancestors()
        .take_while(|p| !p.as_os_str().is_empty() && !p.is_dir())
        .collect();
    fs::create_dir_all(dir)?;
    for created in missing {
        let parent = created.parent().filter(|p| !p.as_os_str().is_empty());
        sync_dir(parent.unwrap_or(Path::new(".")))?;
    }
    Ok(())
}

impl Wal {
    /// Opens (or creates) the log under `config.dir` and replays every
    /// surviving entry. A torn final record is truncated away; see the
    /// [module docs](self) for the recovery rules.
    ///
    /// Nothing is rewritten: the only writes are the truncation of a
    /// torn segment and the removal of the segments after it.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`IngestError::Corrupt`] for an unreadable
    /// checkpoint (segment corruption is recovered, not fatal).
    pub fn open(config: &WalConfig) -> Result<(Wal, WalRecovery), IngestError> {
        create_dir_synced(&config.dir)?;
        // Drop a stale temp checkpoint from a crash mid-rewrite.
        let _ = fs::remove_file(config.dir.join(CHECKPOINT_TMP));

        let mut entries: Vec<WalEntry> = Vec::new();
        let mut last_seq = 0u64;
        let mut checkpoint_bytes = 0u64;
        let checkpoint_path = config.dir.join(CHECKPOINT_FILE);
        let mut checkpoint_last = 0u64;
        if checkpoint_path.exists() {
            let text = fs::read_to_string(&checkpoint_path)?;
            checkpoint_bytes = text.len() as u64;
            let mut lines = text.lines();
            let header: CheckpointHeader = match lines.next() {
                Some(line) => serde_json::from_str(line)
                    .map_err(|e| IngestError::Corrupt(format!("checkpoint header: {e}")))?,
                None => CheckpointHeader { last_seq: 0 },
            };
            checkpoint_last = header.last_seq;
            for line in lines {
                let entry: WalEntry = serde_json::from_str(line)
                    .map_err(|e| IngestError::Corrupt(format!("checkpoint entry: {e}")))?;
                last_seq = last_seq.max(entry.seq);
                entries.push(entry);
            }
            last_seq = last_seq.max(checkpoint_last);
        }

        let mut segment_paths: Vec<PathBuf> = fs::read_dir(&config.dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".wal"))
            })
            .collect();
        // Zero-padded first-seq names make lexicographic order numeric.
        segment_paths.sort();

        let mut segments = Vec::new();
        let mut torn = false;
        for path in segment_paths {
            if torn {
                // Anything after a torn segment cannot be trusted.
                fs::remove_file(&path)?;
                continue;
            }
            let bytes = fs::read(&path)?;
            let (decoded, good_offset) = decode_segment(&bytes);
            if good_offset < bytes.len() {
                torn = true;
                if good_offset == 0 {
                    fs::remove_file(&path)?;
                } else {
                    // The truncated segment stays live, so the cut must
                    // be durable before later appends depend on it.
                    let file = OpenOptions::new().write(true).open(&path)?;
                    file.set_len(good_offset as u64)?;
                    file.sync_all()?;
                }
            }
            let mut seg_last = 0u64;
            for entry in decoded {
                seg_last = seg_last.max(entry.seq);
                last_seq = last_seq.max(entry.seq);
                if entry.seq > checkpoint_last {
                    entries.push(entry);
                }
            }
            if good_offset > 0 {
                segments.push(SegmentMeta {
                    path,
                    last_seq: seg_last,
                    bytes: good_offset as u64,
                });
            }
        }

        if torn {
            // Removed segments must stay removed: new appends reuse
            // their sequence numbers.
            sync_dir(&config.dir)?;
        }
        entries.sort_by_key(|e| e.seq);
        entries.dedup_by_key(|e| e.seq);
        let wal = Wal {
            dir: config.dir.clone(),
            segment_limit: config.segment_bytes,
            segments,
            active: None,
            checkpoint_bytes,
        };
        Ok((wal, WalRecovery { entries, last_seq }))
    }

    /// Appends a batch durably (written, flushed, and synced before
    /// returning; a segment this call creates also has its directory
    /// entry synced). Rotates to a fresh segment when the active one
    /// has reached the configured threshold.
    ///
    /// # Errors
    ///
    /// I/O failures; on error the in-memory state still matches the
    /// bytes known to be on disk.
    pub fn append(&mut self, entries: &[WalEntry]) -> Result<(), IngestError> {
        let Some(first) = entries.first() else {
            return Ok(());
        };
        if self.active.is_none() {
            let path = self.dir.join(format!("seg-{:020}.wal", first.seq));
            let file = OpenOptions::new().create(true).append(true).open(&path)?;
            self.active = Some(ActiveSegment {
                file,
                meta: SegmentMeta {
                    path,
                    last_seq: 0,
                    bytes: 0,
                },
            });
            sync_dir(&self.dir)?;
        }
        let active = self.active.as_mut().expect("created above");
        let mut buf = Vec::new();
        for entry in entries {
            let payload = serde_json::to_string(entry)
                .expect("WAL entries serialize infallibly")
                .into_bytes();
            let len = u32::try_from(payload.len()).expect("record under 4 GiB");
            buf.extend_from_slice(&len.to_le_bytes());
            buf.extend_from_slice(&crc32(&payload).to_le_bytes());
            buf.extend_from_slice(&payload);
        }
        active.file.write_all(&buf)?;
        active.file.sync_data()?;
        active.meta.bytes += buf.len() as u64;
        active.meta.last_seq = entries.last().expect("non-empty").seq;
        if active.meta.bytes >= self.segment_limit {
            let closed = self.active.take().expect("checked above");
            self.segments.push(closed.meta);
        }
        Ok(())
    }

    /// Captures the log's position so a subsequent [`Wal::append`] can
    /// be undone with [`Wal::rollback_to`].
    pub(crate) fn mark(&self) -> WalMark {
        WalMark {
            segment_count: self.segments.len(),
            active: self
                .active
                .as_ref()
                .map(|a| (a.meta.path.clone(), a.meta.bytes, a.meta.last_seq)),
        }
    }

    /// Undoes at most one `append` issued since `mark` was captured,
    /// truncating the segment it wrote back to the marked length (or
    /// deleting the segment the append created). Used by submit to
    /// reject a batch atomically when a sibling shard's append fails,
    /// and to discard the partial frame of an append that itself
    /// failed.
    ///
    /// # Errors
    ///
    /// I/O failures; the caller must then treat the batch's sequence
    /// numbers as consumed (replay may resurrect the rolled-back
    /// records, so they must never be re-issued).
    pub(crate) fn rollback_to(&mut self, mark: WalMark) -> Result<(), IngestError> {
        match mark.active {
            Some((path, bytes, last_seq)) => {
                let still_active = self.active.as_ref().is_some_and(|a| a.meta.path == path);
                if still_active {
                    let active = self.active.as_mut().expect("checked above");
                    active.file.set_len(bytes)?;
                    active.meta.bytes = bytes;
                    active.meta.last_seq = last_seq;
                } else {
                    // The append rotated the marked segment into the
                    // closed list; truncate it and reinstate it as
                    // active so later appends continue where the mark
                    // left off.
                    let idx = self
                        .segments
                        .iter()
                        .position(|s| s.path == path)
                        .ok_or_else(|| {
                            IngestError::Corrupt("rollback lost track of its segment".to_owned())
                        })?;
                    let meta = self.segments.remove(idx);
                    let file = OpenOptions::new().append(true).open(&meta.path)?;
                    file.set_len(bytes)?;
                    self.active = Some(ActiveSegment {
                        file,
                        meta: SegmentMeta {
                            path: meta.path,
                            last_seq,
                            bytes,
                        },
                    });
                }
            }
            None => {
                // The append created the segment it wrote; remove it.
                if let Some(active) = self.active.take() {
                    fs::remove_file(&active.meta.path)?;
                } else if self.segments.len() > mark.segment_count {
                    let meta = self.segments.pop().expect("checked above");
                    fs::remove_file(&meta.path)?;
                }
            }
        }
        Ok(())
    }

    /// Writes a checkpoint holding `entries` under a `last_seq` header,
    /// then deletes the segments it fully covers. The checkpoint is
    /// written to a temp file, synced, renamed and its directory
    /// synced, so a crash keeps either the previous state or the new
    /// one, and the new one is durable when this returns. Only the
    /// sharded engine's open-time fold calls this: records from a
    /// directory about to be deleted must first become durable here.
    ///
    /// # Errors
    ///
    /// I/O failures. A failure after the rename leaves extra segments
    /// behind; replay skips them by the checkpoint header.
    pub fn checkpoint(&mut self, last_seq: u64, entries: &[WalEntry]) -> Result<(), IngestError> {
        let mut text = String::new();
        text.push_str(
            &serde_json::to_string(&CheckpointHeader { last_seq })
                .expect("header serializes infallibly"),
        );
        text.push('\n');
        for entry in entries {
            text.push_str(&serde_json::to_string(entry).expect("WAL entries serialize infallibly"));
            text.push('\n');
        }
        let tmp = self.dir.join(CHECKPOINT_TMP);
        let final_path = self.dir.join(CHECKPOINT_FILE);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_data()?;
        }
        fs::rename(&tmp, &final_path)?;
        sync_dir(&self.dir)?;
        self.checkpoint_bytes = text.len() as u64;

        let mut kept = Vec::new();
        for seg in self.segments.drain(..) {
            if seg.last_seq <= last_seq {
                fs::remove_file(&seg.path)?;
            } else {
                kept.push(seg);
            }
        }
        self.segments = kept;
        if self
            .active
            .as_ref()
            .is_some_and(|a| a.meta.last_seq <= last_seq)
        {
            let active = self.active.take().expect("checked above");
            fs::remove_file(&active.meta.path)?;
        }
        Ok(())
    }

    /// Total bytes across live segment files.
    pub fn segment_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum::<u64>()
            + self.active.as_ref().map_or(0, |a| a.meta.bytes)
    }

    /// Bytes of the checkpoint file, if one exists: a legacy one read at
    /// open, or one written by [`Wal::checkpoint`].
    pub fn checkpoint_bytes(&self) -> u64 {
        self.checkpoint_bytes
    }

    /// Number of live segment files (including the active one).
    pub fn segment_count(&self) -> usize {
        self.segments.len() + usize::from(self.active.is_some())
    }

    /// The directory the log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Decodes frames from a segment's bytes. Returns the entries decoded
/// and the offset of the first byte that failed to verify (equal to
/// `bytes.len()` for a clean segment).
fn decode_segment(bytes: &[u8]) -> (Vec<WalEntry>, usize) {
    let mut entries = Vec::new();
    let mut offset = 0usize;
    while bytes.len() - offset >= FRAME_HEADER {
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_RECORD_BYTES {
            return (entries, offset);
        }
        let start = offset + FRAME_HEADER;
        let Some(end) = start
            .checked_add(len as usize)
            .filter(|&e| e <= bytes.len())
        else {
            return (entries, offset);
        };
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            return (entries, offset);
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            return (entries, offset);
        };
        let Ok(entry) = serde_json::from_str::<WalEntry>(text) else {
            return (entries, offset);
        };
        entries.push(entry);
        offset = end;
    }
    (entries, offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdweb_dataset::{Timestamp, UserId};
    use crowdweb_geo::LatLon;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_wal_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("crowdweb-wal-{tag}-{}-{n}", std::process::id()))
    }

    fn entry(seq: u64) -> WalEntry {
        WalEntry {
            seq,
            record: MergeRecord {
                user: UserId::new(seq as u32),
                venue_key: format!("venue-{seq}"),
                category: "Coffee Shop".to_owned(),
                location: LatLon::new(40.7501, -73.9876).unwrap(),
                tz_offset_minutes: -240,
                time: Timestamp::from_unix_seconds(1_333_000_000 + seq as i64),
            },
        }
    }

    /// The bitwise CRC-32 the table replaced: the reference the table
    /// must reproduce on every input.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    proptest::proptest! {
        #[test]
        fn prop_table_crc32_matches_bitwise(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..600)
        ) {
            proptest::prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }
    }

    #[test]
    fn round_trip_across_reopen() {
        let dir = temp_wal_dir("roundtrip");
        let config = WalConfig::new(&dir);
        let written: Vec<WalEntry> = (1..=5).map(entry).collect();
        {
            let (mut wal, rec) = Wal::open(&config).unwrap();
            assert!(rec.entries.is_empty());
            wal.append(&written).unwrap();
            assert!(wal.segment_bytes() > 0);
        } // crash: drop without checkpoint
        let (_, rec) = Wal::open(&config).unwrap();
        assert_eq!(rec.entries, written);
        assert_eq!(rec.last_seq, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_rotate_at_threshold() {
        let dir = temp_wal_dir("rotate");
        let config = WalConfig::new(&dir).segment_bytes(256);
        let (mut wal, _) = Wal::open(&config).unwrap();
        for seq in 1..=8 {
            wal.append(&[entry(seq)]).unwrap();
        }
        assert!(wal.segment_count() > 1, "no rotation happened");
        let (_, rec) = Wal::open(&config).unwrap();
        assert_eq!(rec.entries.len(), 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_compacts_covered_segments() {
        let dir = temp_wal_dir("compact");
        let config = WalConfig::new(&dir).segment_bytes(256);
        let (mut wal, _) = Wal::open(&config).unwrap();
        let applied: Vec<WalEntry> = (1..=8).map(entry).collect();
        for e in &applied {
            wal.append(std::slice::from_ref(e)).unwrap();
        }
        wal.checkpoint(8, &applied).unwrap();
        assert_eq!(wal.segment_count(), 0, "covered segments must be deleted");
        assert_eq!(wal.segment_bytes(), 0);
        assert!(wal.checkpoint_bytes() > 0);
        // Everything survives via the checkpoint.
        let (_, rec) = Wal::open(&config).unwrap();
        assert_eq!(rec.entries, applied);
        assert_eq!(rec.last_seq, 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_keeps_newer_segments() {
        let dir = temp_wal_dir("keepnew");
        let config = WalConfig::new(&dir).segment_bytes(64); // every batch rotates
        let (mut wal, _) = Wal::open(&config).unwrap();
        let applied: Vec<WalEntry> = (1..=2).map(entry).collect();
        wal.append(&applied).unwrap();
        wal.append(&[entry(3)]).unwrap(); // newer than the checkpoint
        wal.checkpoint(2, &applied).unwrap();
        assert!(wal.segment_count() >= 1, "uncovered segment was deleted");
        let (_, rec) = Wal::open(&config).unwrap();
        assert_eq!(rec.entries.len(), 3);
        assert_eq!(rec.last_seq, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rollback_undoes_one_append() {
        let dir = temp_wal_dir("rollback");
        let config = WalConfig::new(&dir);
        let (mut wal, _) = Wal::open(&config).unwrap();
        // Rolling back the very first append removes its segment.
        let mark = wal.mark();
        wal.append(&[entry(1), entry(2)]).unwrap();
        wal.rollback_to(mark).unwrap();
        assert_eq!(wal.segment_bytes(), 0);
        // Rolling back a later append truncates to the marked length.
        wal.append(&[entry(1)]).unwrap();
        let kept_bytes = wal.segment_bytes();
        let mark = wal.mark();
        wal.append(&[entry(2), entry(3)]).unwrap();
        wal.rollback_to(mark).unwrap();
        assert_eq!(wal.segment_bytes(), kept_bytes);
        // Appends continue cleanly after a rollback.
        wal.append(&[entry(2)]).unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&config).unwrap();
        assert_eq!(rec.entries, vec![entry(1), entry(2)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rollback_reinstates_a_rotated_segment() {
        let dir = temp_wal_dir("rollback-rotate");
        let config = WalConfig::new(&dir).segment_bytes(64); // every batch rotates
        let (mut wal, _) = Wal::open(&config).unwrap();
        wal.append(&[entry(1)]).unwrap();
        assert_eq!(wal.segment_count(), 1);
        // This append starts a new segment AND rotates it closed.
        let mark = wal.mark();
        wal.append(&[entry(2)]).unwrap();
        assert_eq!(wal.segment_count(), 2);
        wal.rollback_to(mark).unwrap();
        let (_, rec) = Wal::open(&config).unwrap();
        assert_eq!(rec.entries, vec![entry(1)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_to_last_good_record() {
        let dir = temp_wal_dir("torn");
        let config = WalConfig::new(&dir);
        let written: Vec<WalEntry> = (1..=4).map(entry).collect();
        {
            let (mut wal, _) = Wal::open(&config).unwrap();
            wal.append(&written).unwrap();
        }
        // Tear the final record: chop 3 bytes off the segment.
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|e| e == "wal"))
            .unwrap();
        let len = std::fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let (wal, rec) = Wal::open(&config).unwrap();
        assert_eq!(rec.entries, written[..3].to_vec());
        assert_eq!(rec.last_seq, 3);
        // The tear was truncated away: a second replay is clean.
        drop(wal);
        let (_, rec) = Wal::open(&config).unwrap();
        assert_eq!(rec.entries.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_record_drops_later_segments() {
        let dir = temp_wal_dir("corrupt");
        let config = WalConfig::new(&dir).segment_bytes(64); // rotate per batch
        {
            let (mut wal, _) = Wal::open(&config).unwrap();
            for seq in 1..=3 {
                wal.append(&[entry(seq)]).unwrap();
            }
            assert!(wal.segment_count() >= 2);
        }
        // Flip a payload byte in the FIRST segment: everything after it
        // is untrustworthy.
        let mut segs: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "wal"))
            .collect();
        segs.sort();
        let mut bytes = std::fs::read(&segs[0]).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&segs[0], &bytes).unwrap();
        let (_, rec) = Wal::open(&config).unwrap();
        assert!(rec.entries.is_empty(), "{:?}", rec.entries);
        // Later segments are gone from disk too.
        let remaining = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "wal"))
            .count();
        assert_eq!(remaining, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
