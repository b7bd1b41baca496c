//! The CrowdWeb web platform: an embedded HTTP server exposing the
//! crowd and pattern views over a JSON/SVG API with a self-contained
//! single-page front-end.
//!
//! The original demo is a browser app backed by a web service; this
//! crate provides the same surface with zero external web dependencies:
//!
//! - [`http`] — a minimal HTTP/1.1 request parser and response writer
//!   over `std::net`.
//! - [`router`] — path/method routing with `:param` captures.
//! - [`state`] — the live application state: an ingest engine
//!   publishing immutable epoch snapshots (dataset, patterns, crowd
//!   model) plus a capped ring of visitor uploads (the demo's "share
//!   your check-in history" feature).
//! - [`api`] — the JSON/SVG endpoint handlers.
//! - [`memo`] — the per-city, epoch-keyed memo of rendered crowd views.
//! - [`frontend`] — the embedded HTML/JS page.
//! - [`reactor`] — the evented connection loop: one event thread
//!   blocked in `poll(2)` over nonblocking sockets (HTTP/1.1
//!   keep-alive, pipelined responses), with handlers executing on a
//!   bounded worker pool.
//! - [`sys`] — the dependency-free readiness shim: `poll(2)` FFI, the
//!   self-pipe waker, and socket knobs. The only module with `unsafe`.
//! - [`server`] — the front door: binding, tunables, lifecycle.
//!
//! # Examples
//!
//! ```no_run
//! use crowdweb_server::{AppState, Server};
//! use crowdweb_synth::SynthConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dataset = SynthConfig::small(1).generate()?;
//! let state = AppState::build(dataset, 20)?;
//! let server = Server::bind("127.0.0.1:0", state)?;
//! println!("CrowdWeb listening on http://{}", server.local_addr());
//! server.run(); // blocks
//! # Ok(())
//! # }
//! ```

// `deny`, not `forbid`: the `sys` module carries the crate's only
// `unsafe` (three FFI call sites behind scoped `#[allow]`s); everything
// else stays unsafe-free and the lint catches regressions.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod frontend;
pub mod http;
pub mod memo;
pub mod reactor;
pub mod router;
pub mod server;
pub mod state;
pub mod sys;

pub use http::{BodyStream, Method, Request, Response, ResponseBody, StatusCode};
pub use router::Router;
pub use server::Server;
pub use state::{AppState, CityState};
