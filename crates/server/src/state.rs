//! Application state: a registry of per-city platforms, each a live
//! ingest engine plus a visitor-upload ring.
//!
//! Handlers do not borrow pipeline data from the state directly.
//! Instead they call [`CityState::snapshot`] once per request and serve
//! the whole request from that immutable [`PlatformSnapshot`] — a new
//! epoch published mid-request never tears a response.
//!
//! # Tenancy
//!
//! [`AppState`] holds one [`CityState`] per registered city id. The
//! platform boots with a single **default city** (id
//! [`DEFAULT_CITY`]) serving the established `/api/v1/...` paths;
//! further cities register with [`AppState::add_city`] and are served
//! under `/api/v1/cities/{id}/...`. Each city owns its dataset, sharded
//! ingest engine, epoch history, WAL root (`<wal>/<city>/shard-<k>/`),
//! and upload ring — nothing is shared between cities except the
//! process-wide metrics registry.
//!
//! Each city also holds a [`RenderMemo`]: the tagged crowd views render
//! once per epoch and later reads copy the memoized bytes (see
//! [`crate::memo`]).
//!
//! Handlers execute on the reactor's bounded worker pool (see
//! [`crate::reactor`]), so the state is shared behind an `Arc` and
//! everything reachable from it must stay `Sync`; a blocking handler
//! occupies one worker, never the event thread.

use crate::memo::RenderMemo;
use crowdweb_dataset::{Dataset, UserId};
use crowdweb_ingest::{IngestConfig, PlatformSnapshot, ShardedIngestEngine};
use crowdweb_mobility::{PatternMiner, UserPatterns};
use crowdweb_obs::{Counter, MetricsRegistry};
use crowdweb_prep::{LabelScheme, Preprocessor, WindowChoice};
use parking_lot::RwLock;
use std::collections::{BTreeMap, VecDeque};
use std::error::Error;
use std::sync::{Arc, OnceLock};

/// A mined upload from a booth visitor ("if any audience member is
/// willing to share their check-in history, we can upload it to the
/// platform and visualize their patterns").
#[derive(Debug, Clone)]
pub struct UploadResult {
    /// Users found in the uploaded history.
    pub users: Vec<UserId>,
    /// Their mined patterns.
    pub patterns: Vec<UserPatterns>,
    /// Check-ins parsed from the upload.
    pub checkin_count: usize,
}

/// Id of the city the platform boots with, served by the un-prefixed
/// `/api/v1/...` paths (and their `/api/...` legacy aliases).
pub const DEFAULT_CITY: &str = "nyc";

/// Default relative support for the platform's pattern view. Voluntary
/// check-ins are sparse, so routine items recur on a minority of active
/// days; 0.15 recovers full routines (see the paper's Fig. 5
/// sensitivity).
pub const DEFAULT_MIN_SUPPORT: f64 = 0.15;

/// Default microcell grid resolution (cells per side over NYC).
pub const DEFAULT_GRID_SIDE: u32 = 20;

/// How many visitor uploads each city remembers (newest evicts oldest).
pub const DEFAULT_UPLOAD_HISTORY: usize = 16;

/// The capped upload ring plus the monotonic per-city sequence that
/// names its entries. An upload's sequence number is assigned at
/// ingest, never reused, and survives eviction of older entries — it
/// is the stable cursor the `/api/v1/uploads?after=<id>` pagination
/// keys on.
#[derive(Default)]
struct UploadRing {
    next_seq: u64,
    entries: VecDeque<(u64, UploadResult)>,
}

/// One city's platform: a live [`ShardedIngestEngine`] publishing
/// epoch snapshots, the memo of its rendered crowd views, and a capped
/// ring of recent visitor uploads.
///
/// The ingest queue and WAL are partitioned across user-id-range
/// shards (`IngestConfig::shards`; 0 = one per available core), so
/// epoch re-mining fans out per shard while snapshots stay
/// byte-identical for any shard count.
pub struct CityState {
    id: String,
    engine: ShardedIngestEngine,
    memo: RenderMemo,
    uploads: RwLock<UploadRing>,
    /// This city's series of `crowdweb_http_requests_by_city_total`,
    /// resolved on the first counted request (see
    /// [`AppState::note_city_request`]).
    requests: OnceLock<Counter>,
}

impl std::fmt::Debug for CityState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("CityState")
            .field("id", &self.id)
            .field("epoch", &snap.epoch())
            .field("users", &snap.prepared().user_count())
            .field("checkins", &snap.dataset().len())
            .field("min_support", &snap.min_support())
            .finish()
    }
}

impl CityState {
    fn open(id: &str, dataset: Dataset, config: IngestConfig) -> Result<CityState, Box<dyn Error>> {
        let memo = RenderMemo::new(&config.metrics.clone().unwrap_or_default());
        let engine = ShardedIngestEngine::open(dataset, config)?;
        Ok(CityState {
            id: id.to_owned(),
            engine,
            memo,
            uploads: RwLock::new(UploadRing::default()),
            requests: OnceLock::new(),
        })
    }

    /// The city's registered id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The city's current immutable pipeline snapshot. Handlers take
    /// one per request and serve everything from it.
    pub fn snapshot(&self) -> Arc<PlatformSnapshot> {
        self.engine.snapshot()
    }

    /// The city's live sharded ingest engine (submit, epochs, stats).
    pub fn engine(&self) -> &ShardedIngestEngine {
        &self.engine
    }

    /// The city's memo of rendered crowd view bodies.
    pub fn memo(&self) -> &RenderMemo {
        &self.memo
    }

    /// The city's mining support threshold.
    pub fn min_support(&self) -> f64 {
        self.engine.config().min_support
    }

    /// Parses an uploaded TSV check-in history, mines its users'
    /// patterns over its full span (visitor histories are short, so no
    /// window/filter), stores it in the city's upload ring, and returns
    /// the result.
    ///
    /// # Errors
    ///
    /// Returns parse errors for malformed TSV and mining errors
    /// otherwise.
    pub fn ingest_upload(&self, tsv: &str) -> Result<UploadResult, Box<dyn Error>> {
        let uploaded = crowdweb_dataset::tsv::from_str(tsv)?;
        let prepared = Preprocessor::new()
            .window(WindowChoice::Full)
            .min_active_days(0)
            .label_scheme(LabelScheme::Kind)
            .prepare(&uploaded)?;
        let patterns = PatternMiner::new(self.min_support())?.detect_all(&prepared)?;
        let result = UploadResult {
            users: prepared.users().to_vec(),
            checkin_count: uploaded.len(),
            patterns,
        };
        let mut ring = self.uploads.write();
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.entries.len() == DEFAULT_UPLOAD_HISTORY {
            ring.entries.pop_front();
        }
        ring.entries.push_back((seq, result.clone()));
        Ok(result)
    }

    /// The city's most recent visitor upload, if any.
    pub fn last_upload(&self) -> Option<UploadResult> {
        self.uploads.read().entries.back().map(|(_, r)| r.clone())
    }

    /// All the city's remembered visitor uploads, newest first, each
    /// with its stable sequence id (see `UploadRing`): ids descend
    /// with the listing order and pagination cursors key on them.
    pub fn uploads(&self) -> Vec<(u64, UploadResult)> {
        self.uploads.read().entries.iter().rev().cloned().collect()
    }
}

/// The platform state: a registry of [`CityState`]s keyed by city id,
/// plus the process-wide metrics registry.
///
/// The platform always has a default city; [`AppState`]'s accessor
/// methods ([`AppState::snapshot`], [`AppState::engine`], …) delegate
/// to it so single-city callers never need to name a city.
pub struct AppState {
    cities: BTreeMap<String, Arc<CityState>>,
    default_city: String,
    metrics: MetricsRegistry,
}

impl std::fmt::Debug for AppState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppState")
            .field("cities", &self.cities.keys().collect::<Vec<_>>())
            .field("default_city", &self.default_city)
            .field("default", self.default_city())
            .finish()
    }
}

impl AppState {
    /// Builds the platform state with defaults: richest-3-months window,
    /// the given activity filter, kind labels, 0.15 support, 20×20 grid.
    /// The dataset becomes the default city ([`DEFAULT_CITY`]).
    ///
    /// # Errors
    ///
    /// Propagates preprocessing, mining, and crowd-building failures.
    pub fn build(dataset: Dataset, min_active_days: usize) -> Result<AppState, Box<dyn Error>> {
        AppState::with_options(
            dataset,
            Preprocessor::new().min_active_days(min_active_days),
            DEFAULT_MIN_SUPPORT,
            DEFAULT_GRID_SIDE,
        )
    }

    /// Builds the platform state with explicit knobs.
    ///
    /// # Errors
    ///
    /// Propagates preprocessing, mining, and crowd-building failures.
    pub fn with_options(
        dataset: Dataset,
        preprocessor: Preprocessor,
        min_support: f64,
        grid_side: u32,
    ) -> Result<AppState, Box<dyn Error>> {
        let config = IngestConfig {
            preprocessor,
            min_support,
            grid_rows: grid_side,
            grid_cols: grid_side,
            ..IngestConfig::default()
        };
        AppState::with_config(dataset, config)
    }

    /// Builds the platform state around a fully explicit ingest
    /// configuration (WAL directory, queue bounds, epoch batching) for
    /// the default city. The default city's WAL root is used as given —
    /// un-scoped, exactly as pre-tenancy deployments laid it out; only
    /// cities registered via [`AppState::add_city`] get `<wal>/<city>/`
    /// roots.
    ///
    /// # Errors
    ///
    /// Propagates WAL recovery and pipeline failures.
    pub fn with_config(
        dataset: Dataset,
        mut config: IngestConfig,
    ) -> Result<AppState, Box<dyn Error>> {
        // Metrics are default-on in the server: install a fresh
        // registry unless the caller supplied their own.
        let metrics = match &config.metrics {
            Some(metrics) => metrics.clone(),
            None => {
                let metrics = MetricsRegistry::new();
                config.metrics = Some(metrics.clone());
                metrics
            }
        };
        let default = CityState::open(DEFAULT_CITY, dataset, config)?;
        let mut cities = BTreeMap::new();
        cities.insert(DEFAULT_CITY.to_owned(), Arc::new(default));
        Ok(AppState {
            cities,
            default_city: DEFAULT_CITY.to_owned(),
            metrics,
        })
    }

    /// Registers a further city under `id`, served at
    /// `/api/v1/cities/{id}/...`. The city gets its own dataset and
    /// ingest engine; its WAL root (when `config.wal` is set) is scoped
    /// to `<wal dir>/<id>/`, so shards land in `<wal>/<id>/shard-<k>/`
    /// and per-city recovery replays independently. The city records
    /// into the platform metrics registry unless `config.metrics` is
    /// already set.
    ///
    /// # Errors
    ///
    /// Rejects ids that are not lowercase slugs (`[a-z0-9_-]`, 1–64
    /// chars), duplicate registrations, and propagates WAL recovery and
    /// pipeline failures.
    pub fn add_city(
        &mut self,
        id: &str,
        dataset: Dataset,
        mut config: IngestConfig,
    ) -> Result<(), Box<dyn Error>> {
        validate_city_id(id)?;
        if self.cities.contains_key(id) {
            return Err(format!("city {id:?} is already registered").into());
        }
        if let Some(wal) = &mut config.wal {
            wal.dir = wal.dir.join(id);
        }
        if config.metrics.is_none() {
            config.metrics = Some(self.metrics.clone());
        }
        let city = CityState::open(id, dataset, config)?;
        self.cities.insert(id.to_owned(), Arc::new(city));
        Ok(())
    }

    /// The city registered under `id`, if any.
    pub fn city(&self, id: &str) -> Option<&CityState> {
        self.cities.get(id).map(Arc::as_ref)
    }

    /// The default city's state (always present).
    pub fn default_city(&self) -> &CityState {
        self.cities
            .get(&self.default_city)
            .expect("the default city is registered at construction")
    }

    /// The default city's id.
    pub fn default_city_id(&self) -> &str {
        &self.default_city
    }

    /// All registered city ids, in ascending order.
    pub fn city_ids(&self) -> Vec<&str> {
        self.cities.keys().map(String::as_str).collect()
    }

    /// Counts a request against a city's per-city request counter.
    /// Only registered cities reach this (the handler 404s unknown ids
    /// first), so the `city` label's cardinality is bounded by the
    /// registry size, never by what clients send. The city's series is
    /// resolved once, on its first counted request, so a city nobody
    /// asked for adds no zero-valued series to the exposition.
    pub fn note_city_request(&self, city: &CityState) {
        debug_assert!(
            self.city(city.id())
                .is_some_and(|registered| std::ptr::eq(registered, city)),
            "label must be registered"
        );
        city.requests
            .get_or_init(|| {
                self.metrics.counter(
                    "crowdweb_http_requests_by_city_total",
                    "Requests served, by registered city.",
                    &[("city", city.id())],
                )
            })
            .inc();
    }

    /// The current immutable pipeline snapshot of the **default city**.
    pub fn snapshot(&self) -> Arc<PlatformSnapshot> {
        self.default_city().snapshot()
    }

    /// The **default city's** live sharded ingest engine.
    pub fn engine(&self) -> &ShardedIngestEngine {
        self.default_city().engine()
    }

    /// The platform's metrics registry. Ingest and pipeline stages
    /// record into it; the server threads it through request handling
    /// and exposes it at `GET /api/metrics`. One registry serves every
    /// city.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The **default city's** mining support threshold.
    pub fn min_support(&self) -> f64 {
        self.default_city().min_support()
    }

    /// [`CityState::ingest_upload`] on the default city.
    ///
    /// # Errors
    ///
    /// Returns parse errors for malformed TSV and mining errors
    /// otherwise.
    pub fn ingest_upload(&self, tsv: &str) -> Result<UploadResult, Box<dyn Error>> {
        self.default_city().ingest_upload(tsv)
    }

    /// The default city's most recent visitor upload, if any.
    pub fn last_upload(&self) -> Option<UploadResult> {
        self.default_city().last_upload()
    }

    /// The default city's remembered visitor uploads, newest first,
    /// with their stable sequence ids.
    pub fn uploads(&self) -> Vec<(u64, UploadResult)> {
        self.default_city().uploads()
    }
}

fn validate_city_id(id: &str) -> Result<(), Box<dyn Error>> {
    if id.is_empty() || id.len() > 64 {
        return Err(format!("city id {id:?} must be 1-64 characters").into());
    }
    if !id
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-')
    {
        return Err(format!("city id {id:?} must match [a-z0-9_-]").into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdweb_synth::SynthConfig;

    fn state() -> AppState {
        let dataset = SynthConfig::small(51).generate().unwrap();
        AppState::build(dataset, 20).unwrap()
    }

    #[test]
    fn build_populates_everything() {
        let s = state();
        let snap = s.snapshot();
        assert_eq!(snap.epoch(), 0);
        assert!(snap.prepared().user_count() > 0);
        assert_eq!(snap.patterns().len(), snap.prepared().user_count());
        assert!(snap.crowd().placement_count() > 0);
        assert_eq!(s.min_support(), DEFAULT_MIN_SUPPORT);
        assert!(!format!("{s:?}").is_empty());
        assert_eq!(s.city_ids(), vec![DEFAULT_CITY]);
        assert_eq!(s.default_city_id(), DEFAULT_CITY);
    }

    #[test]
    fn per_user_lookups() {
        let s = state();
        let snap = s.snapshot();
        let user = snap.prepared().users()[0];
        assert!(snap.patterns_of(user).is_some());
        let graph = snap.place_graph_of(user).unwrap();
        assert!(!graph.is_empty());
        assert!(snap.patterns_of(UserId::new(9999)).is_none());
        assert!(snap.place_graph_of(UserId::new(9999)).is_none());
    }

    #[test]
    fn upload_round_trip() {
        let s = state();
        assert!(s.last_upload().is_none());
        // A tiny visitor history: same venue each morning, eatery at
        // noon, 4 days.
        let mut tsv = String::new();
        for day in 1..=4 {
            tsv.push_str(&format!(
                "9001\thomeV\tx\tHome (private)\t40.75\t-73.99\t-240\tSun Apr {:02} 11:00:00 +0000 2012\n",
                day
            ));
            tsv.push_str(&format!(
                "9001\tthaiV\tx\tThai Restaurant\t40.76\t-73.98\t-240\tSun Apr {:02} 16:30:00 +0000 2012\n",
                day
            ));
        }
        let result = s.ingest_upload(&tsv).unwrap();
        assert_eq!(result.checkin_count, 8);
        assert_eq!(result.users, vec![UserId::new(9001)]);
        let up = &result.patterns[0];
        assert!(up.pattern_count() > 0, "visitor patterns must be mined");
        assert!(s.last_upload().is_some());
    }

    #[test]
    fn upload_rejects_garbage() {
        let s = state();
        assert!(s.ingest_upload("not\ttsv").is_err());
    }

    #[test]
    fn upload_ring_caps_and_orders_newest_first() {
        let s = state();
        let mk = |user: u32| {
            format!(
                "{user}\tv1\tx\tCoffee Shop\t40.75\t-73.99\t-240\tTue Apr 03 13:00:00 +0000 2012\n"
            )
        };
        for i in 0..DEFAULT_UPLOAD_HISTORY + 3 {
            s.ingest_upload(&mk(100 + i as u32)).unwrap();
        }
        let ring = s.uploads();
        assert_eq!(ring.len(), DEFAULT_UPLOAD_HISTORY);
        // Newest first: the last submitted user leads.
        let newest = 100 + (DEFAULT_UPLOAD_HISTORY + 2) as u32;
        assert_eq!(ring[0].1.users, vec![UserId::new(newest)]);
        assert_eq!(s.last_upload().unwrap().users, vec![UserId::new(newest)]);
        // The oldest three were evicted.
        let oldest_kept = ring.last().unwrap().1.users[0];
        assert_eq!(oldest_kept, UserId::new(103));
        // Sequence ids are stable across eviction: the newest entry is
        // the (DEFAULT_UPLOAD_HISTORY + 3)rd upload ever (0-based seq),
        // the oldest kept is seq 3, and ids descend with the listing.
        assert_eq!(ring[0].0, (DEFAULT_UPLOAD_HISTORY + 2) as u64);
        assert_eq!(ring.last().unwrap().0, 3);
        assert!(ring.windows(2).all(|w| w[0].0 > w[1].0));
    }

    #[test]
    fn add_city_registers_an_isolated_platform() {
        let mut s = state();
        let dataset = SynthConfig::small(77).generate().unwrap();
        s.add_city("tokyo", dataset, IngestConfig::default())
            .unwrap();
        assert_eq!(s.city_ids(), vec![DEFAULT_CITY, "tokyo"]);
        let tokyo = s.city("tokyo").unwrap();
        assert_eq!(tokyo.id(), "tokyo");
        // Different dataset, different snapshot; upload rings isolated.
        assert_ne!(
            tokyo.snapshot().dataset().len(),
            s.snapshot().dataset().len()
        );
        tokyo
            .ingest_upload(
                "42\tv\tx\tCoffee Shop\t40.75\t-73.99\t-240\tTue Apr 03 13:00:00 +0000 2012\n",
            )
            .unwrap();
        assert!(tokyo.last_upload().is_some());
        assert!(s.last_upload().is_none(), "default city ring untouched");
        assert!(s.city("osaka").is_none());
    }

    #[test]
    fn add_city_rejects_bad_and_duplicate_ids() {
        let mut s = state();
        for bad in ["", "Tokyo", "a b", "漢字", &"x".repeat(65)] {
            let dataset = SynthConfig::small(5).generate().unwrap();
            assert!(
                s.add_city(bad, dataset, IngestConfig::default()).is_err(),
                "id {bad:?} must be rejected"
            );
        }
        let dataset = SynthConfig::small(5).generate().unwrap();
        assert!(s
            .add_city(DEFAULT_CITY, dataset, IngestConfig::default())
            .is_err());
        let dataset = SynthConfig::small(5).generate().unwrap();
        s.add_city("paris", dataset, IngestConfig::default())
            .unwrap();
        let dataset = SynthConfig::small(5).generate().unwrap();
        assert!(s
            .add_city("paris", dataset, IngestConfig::default())
            .is_err());
    }

    #[test]
    fn add_city_scopes_the_wal_root() {
        use crowdweb_ingest::WalConfig;
        let dir = std::env::temp_dir().join(format!(
            "crowdweb-city-wal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = state();
        let dataset = SynthConfig::small(9).generate().unwrap();
        let config = IngestConfig {
            wal: Some(WalConfig::new(&dir)),
            shards: 2,
            ..IngestConfig::default()
        };
        s.add_city("berlin", dataset, config).unwrap();
        // Scoped root: <wal>/berlin/shard-<k>/ exists per shard.
        assert!(dir.join("berlin").join("shard-0").is_dir());
        assert!(dir.join("berlin").join("shard-1").is_dir());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn city_request_counter_labels_by_registered_id() {
        let s = state();
        s.note_city_request(s.default_city());
        s.note_city_request(s.default_city());
        assert_eq!(
            s.metrics().counter_value(
                "crowdweb_http_requests_by_city_total",
                &[("city", DEFAULT_CITY)]
            ),
            Some(2)
        );
    }
}
