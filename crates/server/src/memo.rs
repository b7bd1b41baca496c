//! The render memo: every tagged crowd view renders once per epoch.
//!
//! Between two epochs a crowd view is immutable — the server already
//! says so with its strong `"{city}-e{epoch}"` `ETag` — so each
//! [`CityState`](crate::CityState) keeps one [`RenderMemo`] of the
//! `200` bodies it has rendered, keyed by `(epoch, View)`. The first
//! read of a key renders it; every later read copies the shared bytes.
//!
//! The memo is deliberately small:
//!
//! - **Key.** The epoch plus the view's *parsed* parameters ([`View`]),
//!   never the raw query string, so `hour=9` and `hour=09` share an
//!   entry and stray parameters do not split one. The memo lives per
//!   city, so the key carries no city.
//! - **What is stored.** Only `200` bodies. Handlers answer `304`s,
//!   `400`/`404` envelopes and errors exactly as before and never
//!   insert them.
//! - **Lifetime.** Bodies for epochs that have left the history ring
//!   are dropped when a newer epoch is first inserted. Retention stays
//!   with the ring: handlers check it before they consult the memo.
//! - **Bound.** Resident body bytes never exceed [`MEMO_CAP_BYTES`]. An
//!   insert that would pass it is skipped and the fresh render is
//!   served anyway — no LRU, no invalidation protocol, no option.
//! - **Concurrency.** A miss renders outside any lock. Two concurrent
//!   misses on one key render identical bytes, and the first insert wins.

use crowdweb_geo::TileCoord;
use crowdweb_obs::{Counter, Gauge, MetricsRegistry};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Upper bound on one city's memoized body bytes.
///
/// Sized from the measured working set on the paper-scale NYC city
/// (20×20 grid, 16 retained epochs). Replaying the benchmark's four
/// workloads in process, the memo peaks at 0.35–0.55 MB. Scrubbing all
/// 24 hours of `crowd`, `crowd/map`, `crowd/geojson` and `crowd/flows`
/// costs 0.5 MB per epoch, so 8 MB across the whole ring. 16 MiB holds
/// that full scrub with as much again for tiles, while a flood of
/// distinct tile keys costs at most this much before inserts stop.
pub const MEMO_CAP_BYTES: usize = 16 << 20;

/// One tagged crowd view with its parsed parameters — the memo key
/// within an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum View {
    /// `crowd?hour=H`.
    Crowd {
        /// Hour of day.
        hour: u8,
    },
    /// `crowd/map?hour=H[&label=L]`.
    Map {
        /// Hour of day.
        hour: u8,
        /// Optional place-label filter.
        label: Option<u32>,
    },
    /// `crowd/geojson?hour=H`.
    Geojson {
        /// Hour of day.
        hour: u8,
    },
    /// `crowd/flows?from=H&to=H`.
    Flows {
        /// Origin hour.
        from: u8,
        /// Destination hour.
        to: u8,
    },
    /// `tiles/{z}/{x}/{y}?hour=H`.
    Tile {
        /// The validated tile address.
        tile: TileCoord,
        /// Hour of day.
        hour: u8,
    },
}

/// The `view` label values, in `View::index` order: the five views'
/// path suffixes.
pub const VIEW_NAMES: [&str; 5] = [
    "crowd",
    "crowd/map",
    "crowd/geojson",
    "crowd/flows",
    "tiles",
];

impl View {
    /// The view's position in [`VIEW_NAMES`].
    pub(crate) fn index(self) -> usize {
        match self {
            View::Crowd { .. } => 0,
            View::Map { .. } => 1,
            View::Geojson { .. } => 2,
            View::Flows { .. } => 3,
            View::Tile { .. } => 4,
        }
    }
}

/// Memoized bodies plus their running size.
#[derive(Default)]
struct Entries {
    bodies: HashMap<(u64, View), Arc<[u8]>>,
    bytes: usize,
    /// Newest epoch inserted so far; a newer one triggers the prune.
    newest: u64,
}

/// One city's epoch-keyed memo of rendered view bodies (see the module
/// docs).
pub struct RenderMemo {
    entries: RwLock<Entries>,
    hits: [Counter; 5],
    misses: [Counter; 5],
    /// Shared by every city's memo in the registry: each memo adds its
    /// own deltas, so the gauge reads the platform total.
    resident: Gauge,
}

impl std::fmt::Debug for RenderMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entries = self.entries.read();
        f.debug_struct("RenderMemo")
            .field("entries", &entries.bodies.len())
            .field("bytes", &entries.bytes)
            .finish()
    }
}

impl RenderMemo {
    /// An empty memo whose hit/miss counters and resident-bytes gauge
    /// are registered in `metrics` up front.
    pub fn new(metrics: &MetricsRegistry) -> RenderMemo {
        let per_view = |name: &str, help: &str| {
            VIEW_NAMES.map(|view| metrics.counter(name, help, &[("view", view)]))
        };
        RenderMemo {
            entries: RwLock::new(Entries::default()),
            hits: per_view(
                "crowdweb_render_memo_hits_total",
                "Tagged crowd view reads served from the render memo, by view.",
            ),
            misses: per_view(
                "crowdweb_render_memo_misses_total",
                "Tagged crowd view reads that found no memoized body, by view.",
            ),
            resident: metrics.gauge(
                "crowdweb_render_memo_resident_bytes",
                "Body bytes held by the render memos of every city.",
                &[],
            ),
        }
    }

    /// The memoized body of `view` at `epoch`, counting a hit or a miss.
    pub fn get(&self, epoch: u64, view: View) -> Option<Arc<[u8]>> {
        let found = self.hit(epoch, view);
        if found.is_none() {
            self.misses[view.index()].inc();
        }
        found
    }

    /// The memoized body of `view` at `epoch`, counting only a hit. The
    /// event loop looks here first; a read it cannot answer goes to a
    /// worker, whose [`RenderMemo::get`] counts the miss, so every read
    /// still counts exactly once.
    pub fn hit(&self, epoch: u64, view: View) -> Option<Arc<[u8]>> {
        let found = self.entries.read().bodies.get(&(epoch, view)).cloned();
        if found.is_some() {
            self.hits[view.index()].inc();
        }
        found
    }

    /// Stores a freshly rendered `200` body of `view` at `epoch`.
    /// `oldest_retained` is the oldest epoch the history ring still
    /// holds: the first insert at a newer epoch drops every body older
    /// than it, and a body for an epoch the ring has already left is
    /// not stored. Neither is one that would push the resident bytes
    /// past [`MEMO_CAP_BYTES`].
    pub fn insert(&self, epoch: u64, view: View, body: &[u8], oldest_retained: u64) {
        let mut entries = self.entries.write();
        let before = entries.bytes;
        if epoch > entries.newest {
            entries.newest = epoch;
            let mut freed = 0;
            entries.bodies.retain(|&(e, _), body| {
                let keep = e >= oldest_retained;
                if !keep {
                    freed += body.len();
                }
                keep
            });
            entries.bytes -= freed;
        }
        let fits = entries.bytes + body.len() <= MEMO_CAP_BYTES;
        if fits && epoch >= oldest_retained && !entries.bodies.contains_key(&(epoch, view)) {
            entries.bodies.insert((epoch, view), Arc::from(body));
            entries.bytes += body.len();
        }
        let delta = entries.bytes as i64 - before as i64;
        if delta != 0 {
            self.resident.add(delta);
        }
    }

    /// Body bytes currently memoized.
    pub fn resident_bytes(&self) -> usize {
        self.entries.read().bytes
    }
}

impl Drop for RenderMemo {
    fn drop(&mut self) {
        // The gauge is shared with the registry, which may outlive
        // this city's state.
        self.resident.add(-(self.entries.write().bytes as i64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memo() -> (RenderMemo, MetricsRegistry) {
        let metrics = MetricsRegistry::new();
        (RenderMemo::new(&metrics), metrics)
    }

    fn gauge(metrics: &MetricsRegistry) -> i64 {
        metrics
            .gauge_value("crowdweb_render_memo_resident_bytes", &[])
            .unwrap()
    }

    #[test]
    fn hits_and_misses_count_per_view() {
        let (memo, metrics) = memo();
        let view = View::Crowd { hour: 9 };
        assert!(memo.get(0, view).is_none());
        memo.insert(0, view, b"body", 0);
        assert_eq!(memo.get(0, view).as_deref(), Some(&b"body"[..]));
        assert!(memo.get(1, view).is_none(), "epochs never share bodies");
        let count = |name, view| metrics.counter_value(name, &[("view", view)]);
        assert_eq!(count("crowdweb_render_memo_hits_total", "crowd"), Some(1));
        assert_eq!(count("crowdweb_render_memo_misses_total", "crowd"), Some(2));
        // Every view's series is registered before its first read.
        for view in VIEW_NAMES {
            assert!(count("crowdweb_render_memo_hits_total", view).is_some());
        }
        assert_eq!(gauge(&metrics), 4);
    }

    #[test]
    fn the_loop_lookup_counts_hits_only() {
        let (memo, metrics) = memo();
        let view = View::Geojson { hour: 9 };
        assert!(memo.hit(0, view).is_none());
        memo.insert(0, view, b"{}", 0);
        assert_eq!(memo.hit(0, view).as_deref(), Some(&b"{}"[..]));
        let count = |name| metrics.counter_value(name, &[("view", "crowd/geojson")]);
        assert_eq!(count("crowdweb_render_memo_hits_total"), Some(1));
        assert_eq!(count("crowdweb_render_memo_misses_total"), Some(0));
    }

    #[test]
    fn a_newer_epoch_drops_bodies_the_ring_has_left() {
        let (memo, metrics) = memo();
        let view = View::Flows { from: 9, to: 10 };
        memo.insert(0, view, b"zero", 0);
        memo.insert(1, view, b"one", 0);
        // Epoch 2 arrives with the ring now holding 1..=2.
        memo.insert(2, view, b"two", 1);
        assert!(memo.get(0, view).is_none());
        assert_eq!(memo.get(1, view).as_deref(), Some(&b"one"[..]));
        assert_eq!(memo.resident_bytes(), 6);
        assert_eq!(gauge(&metrics), 6);
        // A late insert for an epoch the ring has left is not stored.
        memo.insert(0, view, b"zero", 1);
        assert!(memo.get(0, view).is_none());
    }

    #[test]
    fn inserts_past_the_cap_are_skipped() {
        let (memo, metrics) = memo();
        let big = vec![7u8; MEMO_CAP_BYTES / 2];
        let tile = |x| View::Tile {
            tile: TileCoord::new(12, x, 1).unwrap(),
            hour: 9,
        };
        memo.insert(0, tile(0), &big, 0);
        memo.insert(0, tile(1), &big, 0);
        memo.insert(0, tile(2), b"x", 0);
        assert!(memo.get(0, tile(2)).is_none(), "a full memo stores nothing");
        assert_eq!(memo.resident_bytes(), MEMO_CAP_BYTES);
        assert_eq!(gauge(&metrics), MEMO_CAP_BYTES as i64);
        drop(memo);
        assert_eq!(gauge(&metrics), 0, "a dropped memo gives its bytes back");
    }
}
