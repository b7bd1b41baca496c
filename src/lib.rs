//! # CrowdWeb
//!
//! A from-scratch Rust implementation of **CrowdWeb** (ICDCS 2023): a
//! platform that detects individual human mobility patterns from sparse
//! geotagged check-ins with a modified PrefixSpan over abstracted
//! places, then synchronizes and aggregates them into city-scale crowd
//! views over time windows.
//!
//! This facade crate re-exports every subsystem:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`exec`] | `crowdweb-exec` | shared work-stealing pool, symbol interning |
//! | [`geo`] | `crowdweb-geo` | coordinates, microcell grids, tiles, clustering |
//! | [`dataset`] | `crowdweb-dataset` | GTSM data model, TSV I/O, statistics |
//! | [`synth`] | `crowdweb-synth` | calibrated synthetic Foursquare-NYC generator |
//! | [`prep`] | `crowdweb-prep` | window/filter/discretize/label/sequence pipeline |
//! | [`seqmine`] | `crowdweb-seqmine` | PrefixSpan, modified PrefixSpan, GSP |
//! | [`mobility`] | `crowdweb-mobility` | per-user patterns, place graphs, prediction |
//! | [`crowd`] | `crowdweb-crowd` | crowd synchronization, aggregation, animation |
//! | [`ingest`] | `crowdweb-ingest` | live ingestion: WAL, epoch snapshots, incremental updates |
//! | [`obs`] | `crowdweb-obs` | metrics registry: counters, gauges, histograms, Prometheus text |
//! | [`viz`] | `crowdweb-viz` | SVG charts/maps, GeoJSON export |
//! | [`server`] | `crowdweb-server` | the web platform (HTTP API + front-end) |
//! | [`analytics`] | `crowdweb-analytics` | per-figure experiment harness |
//!
//! # Quickstart
//!
//! [`PipelineDriver`](crowd::PipelineDriver) runs the whole
//! prepare → mine → grid → crowd pipeline with one configuration and
//! one [`Parallelism`](exec::Parallelism) policy:
//!
//! ```
//! use crowdweb::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Data (synthetic stand-in for the Foursquare NYC dataset).
//! let dataset = SynthConfig::small(7).generate()?;
//! let out = PipelineDriver::new(0.15)?
//!     .preprocessor(Preprocessor::new().min_active_days(20))
//!     .parallelism(Parallelism::Auto)
//!     .run(&dataset)?;
//! let snapshot = out.crowd.snapshot_at_hour(9).expect("hourly windows");
//! println!("9-10 am crowd: {} users", snapshot.total_users());
//! # Ok(())
//! # }
//! ```
//!
//! The stages remain individually drivable — see
//! [`prep::Preprocessor`], [`mobility::PatternMiner`],
//! [`crowd::CrowdBuilder`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use crowdweb_analytics as analytics;
pub use crowdweb_crowd as crowd;
pub use crowdweb_dataset as dataset;
pub use crowdweb_exec as exec;
pub use crowdweb_geo as geo;
pub use crowdweb_ingest as ingest;
pub use crowdweb_mobility as mobility;
pub use crowdweb_obs as obs;
pub use crowdweb_prep as prep;
pub use crowdweb_seqmine as seqmine;
pub use crowdweb_server as server;
pub use crowdweb_synth as synth;
pub use crowdweb_viz as viz;

/// The most common imports in one place.
pub mod prelude {
    pub use crowdweb_crowd::{
        CrowdBuilder, CrowdModel, CrowdSnapshot, PipelineDriver, PipelineOutput, TimeWindow,
        TimeWindows,
    };
    pub use crowdweb_dataset::{
        CheckIn, Dataset, DatasetStats, Taxonomy, Timestamp, UserId, Venue, VenueId,
    };
    pub use crowdweb_exec::Parallelism;
    pub use crowdweb_geo::{BoundingBox, CellId, LatLon, MicrocellGrid};
    pub use crowdweb_ingest::{IngestConfig, PlatformSnapshot, ShardedIngestEngine};
    pub use crowdweb_mobility::{
        evaluate_predictor, PatternMiner, PlaceGraph, PredictorKind, UserPatterns,
    };
    pub use crowdweb_prep::{
        ActivityFilter, LabelScheme, Prepared, Preprocessor, SeqItem, StudyWindow, TimeSlotting,
    };
    pub use crowdweb_seqmine::{Gsp, ModifiedPrefixSpan, Pattern, PatternSet, PrefixSpan};
    pub use crowdweb_server::{AppState, Server};
    pub use crowdweb_synth::SynthConfig;
}
