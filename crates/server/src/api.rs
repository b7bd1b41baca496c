//! The JSON/SVG API handlers.
//!
//! # Versioning and alias policy
//!
//! The canonical API surface lives under `/api/v1/...`. Every endpoint
//! is *also* reachable at its historical `/api/...` spelling: the alias
//! is registered against the **same handler** (see
//! [`Router::get_aliased`]), so the two spellings can never drift, and
//! both report the canonical `/api/v1/...` pattern as their metrics
//! route label — aliasing adds zero label cardinality. New clients
//! should use `/api/v1`; the unversioned aliases are kept for existing
//! dashboards and scripts and carry no deprecation deadline. A future
//! breaking revision would mount `/api/v2` alongside `/api/v1` and
//! leave both the v1 routes and the legacy aliases untouched.
//!
//! # Multi-city tenancy
//!
//! The server hosts any number of cities, each an isolated platform
//! (dataset, ingest engine, WAL root, epoch history, upload ring). A
//! data endpoint therefore has *three* spellings, all generated from
//! its one row in the endpoint table and served by one handler fn:
//!
//! - `/api/v1/cities/{city}/...` — the explicit tenant route;
//! - `/api/v1/...` — the same endpoint on the **default city**;
//! - `/api/...` — the legacy alias of the default-city route.
//!
//! Unregistered city ids answer `404 {"error":{"code":"unknown-city"}}`.
//! Served city requests increment
//! `crowdweb_http_requests_by_city_total{city=...}`; only registered
//! ids become labels, so the cardinality is bounded by the registry,
//! and the route label is the matched `{city}` *pattern*, never the
//! path value. Metrics (`/api/v1/metrics`) and the front-end (`/`) are
//! platform-global and have no per-city spelling. `GET /api/v1/cities`
//! lists the registry.
//!
//! # Error envelope
//!
//! Every error response — handler errors, router 404/405, reactor
//! 400/413/503 — carries one uniform JSON envelope:
//!
//! ```json
//! {"error": {"code": "<kebab-slug>", "message": "...", "status": 404}}
//! ```
//!
//! `code` is machine-readable and stable (`"unknown-user"`,
//! `"bad-hour"`, `"queue-full"`, …; defaults to the status's slug such
//! as `"not-found"` when nothing more specific applies), `message` is
//! human-readable and may change, `status` repeats the HTTP status
//! code. Handlers build envelopes via [`Response::error`] /
//! [`Response::error_with_code`]; there is no other error body shape.
//!
//! # Routes
//!
//! | Route | Returns |
//! |---|---|
//! | `GET /` | embedded front-end |
//! | `GET /api/v1/cities` | registered cities and their vitals (JSON) |
//! | `GET /api/v1/stats` | dataset statistics (Sec. I.1 numbers) |
//! | `GET /api/v1/users?limit=N&offset=M` \| `?after=<user>` | qualifying users, paginated (`{"total", "items", "next_after"}`) |
//! | `GET /api/v1/patterns/:user` | a user's mined patterns (JSON) |
//! | `GET /api/v1/network/:user` | a user's place graph (SVG) |
//! | `GET /api/v1/crowd?hour=H` | crowd snapshot (JSON) |
//! | `GET /api/v1/crowd/map?hour=H` | crowd heat map (SVG) |
//! | `GET /api/v1/crowd/geojson?hour=H` | crowd snapshot (GeoJSON) |
//! | `GET /api/v1/crowd/flows?from=H&to=H` | inter-window flows (JSON) |
//! | `GET /api/v1/crowd/flows/map?from=H&to=H` | inter-window flow map (SVG) |
//! | `GET /api/v1/crowd/timeline` | per-window crowd timeline (SVG) |
//! | `GET /api/v1/crowd/compare?a=H&b=H` | two-window comparison (JSON) |
//! | `GET /api/v1/crowd/diff?a=N&b=N` | per-user crowd delta between two retained epochs (JSON) |
//! | `GET /api/v1/epochs` | retained epoch history listing (JSON) |
//! | `GET /api/v1/figures/:id` | figure data series (`fig5`…`fig8`) |
//! | `GET /api/v1/figures/:id/svg` | figure chart (SVG) |
//! | `POST /api/v1/upload` | mine an uploaded TSV check-in history |
//! | `GET /api/v1/upload/last` | the most recent upload's patterns |
//! | `GET /api/v1/uploads?limit=N&offset=M` \| `?after=<id>` | recent uploads, newest first, paginated |
//! | `POST /api/v1/checkins` | enqueue live check-ins (single or batch JSON) |
//! | `POST /api/v1/ingest/epoch` | drain the queue into a new epoch snapshot |
//! | `GET /api/v1/ingest/stats` | ingest queue/WAL/epoch/shard statistics |
//! | `GET /api/v1/metrics` | platform metrics (Prometheus text exposition) |
//! | `GET /api/v1/healthz` | liveness: epoch, queue, shard count (JSON) |
//! | `GET /api/v1/hotspots` | detected crowd hotspots (JSON) |
//! | `GET /api/v1/heatmap` | city activity rhythm (SVG) |
//! | `GET /api/v1/heatmap/:user` | one user's activity rhythm (SVG) |
//! | `GET /api/v1/entropy/:user` | predictability profile (JSON) |
//! | `GET /api/v1/groups?threshold=T` | users grouped by pattern similarity (JSON) |
//! | `GET /api/v1/trajectory/:user?date=D` | one day's trajectory (JSON + GeoJSON) |
//! | `GET /api/v1/tiles/:z/:x/:y?hour=H` | slippy-map crowd tile (SVG) |
//! | `GET /api/v1/export/checkins` | bulk check-in export (NDJSON, streamed chunked) |
//!
//! Each route above (minus `GET /`) also answers at `/api/...` without
//! the version segment, and each data route (minus `GET /`,
//! `/api/v1/cities`, and `/api/v1/metrics`) additionally answers at
//! `GET /api/v1/cities/{city}/...` for any registered city.
//!
//! # Response bodies
//!
//! Handlers return [`Response`] whose body is either
//! [`ResponseBody::Full`](crate::http::ResponseBody::Full) (written
//! with `Content-Length`) or
//! [`ResponseBody::Stream`](crate::http::ResponseBody::Stream) (a
//! pull-based [`BodyStream`] the reactor drains with `Transfer-
//! Encoding: chunked`, polling the producer only while the socket can
//! take more — see `DESIGN.md` §13). Every body that is resident
//! anyway — the rendered maps, GeoJSON and tiles included — is `Full`.
//! Only `export/checkins` streams: `CheckinExportStream` produces it
//! incrementally and it never materializes.
//!
//! # Conditional requests
//!
//! The tagged temporal endpoints (`crowd`, `crowd/map`,
//! `crowd/geojson`, `crowd/flows`, `tiles`, `export/checkins`) set a
//! strong `ETag` of the serving identity — `"{city}-e{epoch}"` — and
//! answer `304 Not Modified` to a revalidating `If-None-Match` (weak
//! comparison per RFC 9110 §13.1.2). A crowd view is immutable once
//! its epoch is published, so pollers pay a round-trip, not a body,
//! while the epoch stands still.
//!
//! # Render memo
//!
//! The same immutability lets the five tagged crowd views render once
//! per epoch. After the `304` check, their handlers consult the city's
//! [`RenderMemo`](crate::memo::RenderMemo), keyed by the epoch and the
//! parsed view parameters: a hit copies the memoized bytes, a miss
//! renders through `render_view` and memoizes the `200` body. A
//! `?epoch=N` hit also skips rematerializing the crowd model.
//!
//! Each view's parsing is one resolver with two consumers. The handler
//! (`serve_view`) runs on a worker and renders on a miss. The route's
//! probe (`probe_view`) runs on the reactor's event thread and answers
//! only a `304` or a memo hit, declining everything else to the
//! handler, so a render-free read never waits for a worker.
//!
//! # Cursor pagination
//!
//! `/users` and `/uploads` accept `?after=<id>` as an alternative to
//! `offset`: the page resumes strictly past the id (ascending user ids
//! on `/users`, descending upload sequence ids on `/uploads`), and the
//! response's `next_after` carries the cursor for the following page
//! (`null` on the final page and in offset mode). Cursors stay stable
//! while rows are inserted or evicted underneath; mixing `after` with
//! `offset`, or a non-integer cursor, is a 400 `"bad-cursor"`
//! envelope.
//!
//! # Time travel
//!
//! Every crowd endpoint (`crowd`, `crowd/map`, `crowd/geojson`,
//! `crowd/flows`, `crowd/flows/map`, `crowd/timeline`,
//! `crowd/compare`, `tiles`) accepts an optional `?epoch=N` parameter
//! that serves the view as it was published at epoch `N`, exactly as
//! the live endpoint rendered it when `N` was latest — the engine's
//! [`CrowdHistory`](crowdweb_ingest::CrowdHistory) rematerializes the
//! crowd model from its delta-compressed ring. `GET /api/v1/epochs`
//! lists which epochs are scrubbable; asking for an evicted (or
//! not-yet-published) epoch is a 404 `"unknown-epoch"` envelope, and a
//! non-integer epoch is a 400 `"bad-epoch"` envelope.
//! `export/checkins` also accepts `?epoch=N` but honors only the live
//! epoch — the history ring retains crowd models, not datasets, so
//! historical record exports are gone once the epoch advances.

use crate::http::{BodyStream, STREAM_CHUNK_BYTES};
use crate::memo::View;
use crate::{AppState, CityState, Method, Request, Response, Router, StatusCode};
use crowdweb_crowd::{CrowdModel, CrowdSnapshot, CrowdSplice};
use crowdweb_dataset::{MergeRecord, UserId};
use crowdweb_ingest::{IngestError, PlatformSnapshot};
use crowdweb_mobility::{PatternMiner, UserPatterns};
use crowdweb_viz::{render_place_graph, snapshot_to_geojson, CityMap, Histogram, LineChart};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// A city-scoped handler: the platform state, the resolved city, and
/// the request. Every data endpoint has this shape; the same fn serves
/// the `/api/v1/cities/{city}/...` route, the default-city `/api/v1/...`
/// route, and the legacy `/api/...` alias.
type CityHandler = fn(&AppState, &CityState, &Request, &HashMap<String, String>) -> Response;

/// How one city-scoped endpoint serves a request.
#[derive(Clone, Copy)]
enum Endpoint {
    /// A GET handler.
    Get(CityHandler),
    /// A POST handler.
    Post(CityHandler),
    /// A tagged crowd view (GET). Its resolver feeds both the handler,
    /// which serves through the memo and renders on a miss
    /// ([`serve_view`]), and the route's probe, which answers on the
    /// event loop only what needs no render ([`probe_view`]).
    View(ViewResolver),
}

/// Every city-scoped endpoint by path suffix, in registration order:
/// the router takes the first match, so this order fixes each
/// request's scan. [`build_router`] registers each row at its three
/// [`spellings`].
const ENDPOINTS: &[(&str, Endpoint)] = &[
    ("/stats", Endpoint::Get(stats)),
    ("/users", Endpoint::Get(users)),
    ("/patterns/:user", Endpoint::Get(patterns)),
    ("/network/:user", Endpoint::Get(network)),
    ("/crowd", Endpoint::View(crowd)),
    ("/crowd/map", Endpoint::View(crowd_map)),
    ("/crowd/geojson", Endpoint::View(crowd_geojson)),
    ("/crowd/flows", Endpoint::View(crowd_flows)),
    ("/crowd/diff", Endpoint::Get(crowd_diff)),
    ("/epochs", Endpoint::Get(epochs_list)),
    ("/figures/:id", Endpoint::Get(figure_data)),
    ("/figures/:id/svg", Endpoint::Get(figure_svg)),
    ("/upload", Endpoint::Post(upload)),
    ("/upload/last", Endpoint::Get(upload_last)),
    ("/uploads", Endpoint::Get(uploads_list)),
    ("/checkins", Endpoint::Post(checkins_submit)),
    ("/ingest/epoch", Endpoint::Post(ingest_epoch)),
    ("/ingest/stats", Endpoint::Get(ingest_stats)),
    ("/healthz", Endpoint::Get(healthz)),
    ("/hotspots", Endpoint::Get(hotspots)),
    ("/crowd/flows/map", Endpoint::Get(crowd_flows_map)),
    ("/crowd/timeline", Endpoint::Get(crowd_timeline)),
    ("/heatmap", Endpoint::Get(heatmap)),
    ("/heatmap/:user", Endpoint::Get(heatmap_user)),
    ("/entropy/:user", Endpoint::Get(entropy)),
    ("/groups", Endpoint::Get(groups)),
    ("/crowd/compare", Endpoint::Get(crowd_compare)),
    ("/trajectory/:user", Endpoint::Get(trajectory)),
    ("/tiles/:z/:x/:y", Endpoint::View(tile)),
    ("/export/checkins", Endpoint::Get(export_checkins)),
];

/// The three spellings of the endpoint at `suffix`, tenant route first:
/// `/api/v1/cities/{city}{suffix}` (explicit city), `/api/v1{suffix}`
/// (default city), and `/api{suffix}` (legacy alias of the default-city
/// route).
fn spellings(suffix: &str) -> [String; 3] {
    [
        format!("/api/v1/cities/{{city}}{suffix}"),
        format!("/api/v1{suffix}"),
        format!("/api{suffix}"),
    ]
}

/// The city a request addresses: on the tenant route the registered
/// city named by the `{city}` capture (`None` for an unknown id), on the
/// other two spellings the default city.
fn resolve_city<'a>(
    app: &'a AppState,
    params: &HashMap<String, String>,
    tenant: bool,
) -> Option<&'a CityState> {
    if tenant {
        app.city(params.get("city")?)
    } else {
        Some(app.default_city())
    }
}

/// Registers one endpoint at its three [`spellings`]. The tenant route
/// reports its own `{city}` *pattern* as its metrics label (bounded
/// cardinality — see [`Router::dispatch`]); the default-city route and
/// its legacy alias share one handler and the canonical `/api/v1/...`
/// label. Every spelling counts the request against the city it
/// resolves: the handler always, a view's probe only when it answers,
/// so each request is counted once by whichever path answers it.
fn register(router: &mut Router<AppState>, suffix: &str, endpoint: Endpoint) {
    let [tenant_route, v1_route, legacy_alias] = spellings(suffix);
    for (patterns, tenant) in [
        (&[tenant_route.as_str()][..], true),
        (&[v1_route.as_str(), legacy_alias.as_str()][..], false),
    ] {
        let serve = move |app: &AppState, req: &Request, params: &HashMap<String, String>| {
            let Some(city) = resolve_city(app, params, tenant) else {
                // Unknown ids are never counted, so they never become
                // metric labels: the per-city label stays bounded by
                // the registry.
                let id = params.get("city").map(String::as_str).unwrap_or_default();
                return error_envelope(
                    StatusCode::NotFound,
                    "unknown-city",
                    &format!("unknown city {id:?}"),
                );
            };
            app.note_city_request(city);
            match endpoint {
                Endpoint::Get(handler) | Endpoint::Post(handler) => handler(app, city, req, params),
                Endpoint::View(resolve) => serve_view(city, resolve(city, req, params)),
            }
        };
        match endpoint {
            Endpoint::Get(_) => {
                router.add(Method::Get, patterns, serve);
            }
            Endpoint::Post(_) => {
                router.add(Method::Post, patterns, serve);
            }
            Endpoint::View(resolve) => {
                router.get_probed(patterns, serve, move |app, req, params| {
                    let city = resolve_city(app, params, tenant)?;
                    let response = probe_view(city, resolve(city, req, params))?;
                    app.note_city_request(city);
                    Some(response)
                })
            }
        }
    }
}

/// Builds the full CrowdWeb route table: the front-end, the city
/// listing, the metrics exposition, and every row of the endpoint
/// table at its three spellings (one handler, shared per endpoint — see
/// the module docs).
pub fn build_router() -> Router<AppState> {
    let mut router = Router::new();
    router.get("/", |_, _, _| {
        Response::html(crate::frontend::INDEX_HTML.to_owned())
    });
    router.get_aliased("/api/v1/cities", "/api/cities", cities_list);
    for &(suffix, endpoint) in ENDPOINTS {
        register(&mut router, suffix, endpoint);
        if suffix == "/ingest/stats" {
            // Metrics are platform-global (one registry serves every
            // city), so there is no per-city spelling. The route keeps
            // its place in the scan order, after the ingest stats.
            router.get_aliased("/api/v1/metrics", "/api/metrics", metrics_text);
        }
    }
    router
}

/// One row of `GET /api/v1/cities`: a registered city and its vitals.
#[derive(Serialize)]
struct CityDto {
    id: String,
    default: bool,
    epoch: u64,
    users: usize,
    checkins: usize,
}

/// `GET /api/v1/cities`: every registered city, ascending by id, with
/// the default city flagged.
fn cities_list(state: &AppState, _: &Request, _: &HashMap<String, String>) -> Response {
    let items: Vec<CityDto> = state
        .city_ids()
        .into_iter()
        .map(|id| {
            let city = state.city(id).expect("listed ids are registered");
            let snap = city.snapshot();
            CityDto {
                id: id.to_owned(),
                default: id == state.default_city_id(),
                epoch: snap.epoch(),
                users: snap.prepared().user_count(),
                checkins: snap.dataset().len(),
            }
        })
        .collect();
    ok_json(&PageDto {
        total: items.len(),
        items,
        next_after: None,
    })
}

fn ok_json<T: Serialize>(value: &T) -> Response {
    match serde_json::to_string(value) {
        Ok(body) => Response::json(body),
        Err(e) => Response::error(StatusCode::InternalServerError, &e.to_string()),
    }
}

/// Builds an error envelope with a handler-specific machine-readable
/// code. The single funnel for every ad-hoc error a handler emits — the
/// body shape is owned by [`Response::error_with_code`].
fn error_envelope(status: StatusCode, code: &str, message: &str) -> Response {
    Response::error_with_code(status, code, message)
}

fn parse_user(params: &HashMap<String, String>) -> Result<UserId, Response> {
    params
        .get("user")
        .and_then(|s| s.parse::<u32>().ok())
        .map(UserId::new)
        .ok_or_else(|| error_envelope(StatusCode::BadRequest, "bad-user-id", "bad user id"))
}

fn parse_hour(request: &Request) -> Result<u8, Response> {
    match request.query_param("hour") {
        None => Ok(9), // the paper's default view
        Some(raw) => {
            raw.parse::<u8>().ok().filter(|h| *h < 24).ok_or_else(|| {
                error_envelope(StatusCode::BadRequest, "bad-hour", "hour must be 0-23")
            })
        }
    }
}

/// Pagination bounds. `limit` defaults to 100 and must be 1..=1000;
/// `offset` defaults to 0 and accepts any non-negative integer
/// (offsets past the end yield an empty page, which is valid). Values
/// outside those bounds are a 400 envelope, never a silent clamp.
const DEFAULT_PAGE_LIMIT: usize = 100;
const MAX_PAGE_LIMIT: usize = 1000;

struct Page {
    limit: usize,
    offset: usize,
}

fn parse_page(request: &Request) -> Result<Page, Response> {
    let limit = match request.query_param("limit") {
        None => DEFAULT_PAGE_LIMIT,
        Some(raw) => raw
            .parse::<usize>()
            .ok()
            .filter(|l| (1..=MAX_PAGE_LIMIT).contains(l))
            .ok_or_else(|| {
                error_envelope(
                    StatusCode::BadRequest,
                    "bad-limit",
                    &format!("limit must be an integer in 1..={MAX_PAGE_LIMIT}"),
                )
            })?,
    };
    let offset = match request.query_param("offset") {
        None => 0,
        Some(raw) => raw.parse::<usize>().map_err(|_| {
            error_envelope(
                StatusCode::BadRequest,
                "bad-offset",
                "offset must be a non-negative integer",
            )
        })?,
    };
    Ok(Page { limit, offset })
}

/// Parses the cursor-pagination `?after=<id>` parameter. `after` names
/// the id of the last item the client already has (a user id on
/// `/users`, an upload sequence id on `/uploads`); the page resumes
/// strictly past it, so a cursor walk stays stable while the
/// collection shifts underneath (unlike `offset`, which re-counts from
/// the front every page). A non-integer cursor, or mixing `after` with
/// `offset`, is a 400 `"bad-cursor"` envelope.
fn parse_after(request: &Request) -> Result<Option<u64>, Response> {
    let Some(raw) = request.query_param("after") else {
        return Ok(None);
    };
    if request.query_param("offset").is_some() {
        return Err(error_envelope(
            StatusCode::BadRequest,
            "bad-cursor",
            "after and offset are mutually exclusive",
        ));
    }
    match raw.parse::<u64>() {
        Ok(after) => Ok(Some(after)),
        Err(_) => Err(error_envelope(
            StatusCode::BadRequest,
            "bad-cursor",
            "after must be a non-negative integer id",
        )),
    }
}

/// A paginated listing: the unfiltered total plus one page of items.
/// Cursor-mode pages additionally carry `next_after` — the cursor for
/// the following page — `null` on the final page and in offset mode.
#[derive(Serialize)]
struct PageDto<T> {
    total: usize,
    items: Vec<T>,
    next_after: Option<u64>,
}

fn paginate<T>(items: impl IntoIterator<Item = T>, total: usize, page: &Page) -> PageDto<T> {
    PageDto {
        total,
        items: items
            .into_iter()
            .skip(page.offset)
            .take(page.limit)
            .collect(),
        next_after: None,
    }
}

/// Cursor-mode pagination: takes the already-`after`-filtered row
/// iterator, pulls one page plus a lookahead row, and derives
/// `next_after` from the page's last id when more rows remain.
fn paginate_after<T>(
    rows: impl IntoIterator<Item = T>,
    total: usize,
    limit: usize,
    id_of: impl Fn(&T) -> u64,
) -> PageDto<T> {
    let mut items: Vec<T> = rows.into_iter().take(limit + 1).collect();
    let more = items.len() > limit;
    items.truncate(limit);
    let next_after = if more { items.last().map(&id_of) } else { None };
    PageDto {
        total,
        items,
        next_after,
    }
}

#[derive(Serialize)]
struct StatsDto {
    total_checkins: usize,
    user_count: usize,
    venue_count: usize,
    mean_records_per_user: f64,
    median_records_per_user: f64,
    filtered_users: usize,
    study_window: String,
    min_support: f64,
}

fn stats(_app: &AppState, state: &CityState, _: &Request, _: &HashMap<String, String>) -> Response {
    let snap = state.snapshot();
    let s = crowdweb_dataset::DatasetStats::compute(snap.dataset());
    ok_json(&StatsDto {
        total_checkins: s.total_checkins,
        user_count: s.user_count,
        venue_count: s.venue_count,
        mean_records_per_user: s.mean_records_per_user,
        median_records_per_user: s.median_records_per_user,
        filtered_users: snap.prepared().user_count(),
        study_window: snap.prepared().window().to_string(),
        min_support: snap.min_support(),
    })
}

#[derive(Serialize)]
struct UserDto {
    user: u32,
    active_days: usize,
    patterns: usize,
}

fn users(
    _app: &AppState,
    state: &CityState,
    request: &Request,
    _: &HashMap<String, String>,
) -> Response {
    let page = match parse_page(request) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let after = match parse_after(request) {
        Ok(a) => a,
        Err(resp) => return resp,
    };
    let snap = state.snapshot();
    let all = snap.patterns();
    let rows = all.iter().map(|p| UserDto {
        user: p.user.raw(),
        active_days: p.active_days,
        patterns: p.pattern_count(),
    });
    // Patterns are mined in ascending user order, so the user id is a
    // sorted cursor: `after=<user>` resumes strictly past that id.
    let dto = match after {
        None => paginate(rows, all.len(), &page),
        Some(after) => paginate_after(
            rows.filter(|r| u64::from(r.user) > after),
            all.len(),
            page.limit,
            |r| u64::from(r.user),
        ),
    };
    ok_json(&dto)
}

#[derive(Serialize)]
struct PatternDto {
    items: Vec<String>,
    support: usize,
    relative_support: f64,
}

#[derive(Serialize)]
struct UserPatternsDto {
    user: u32,
    active_days: usize,
    patterns: Vec<PatternDto>,
}

fn patterns_dto(snap: &PlatformSnapshot, up: &UserPatterns) -> UserPatternsDto {
    let labeler = snap.labeler();
    let slotting = snap.prepared().slotting();
    UserPatternsDto {
        user: up.user.raw(),
        active_days: up.active_days,
        patterns: up
            .patterns
            .iter()
            .map(|p| PatternDto {
                items: p
                    .items
                    .iter()
                    .map(|it| {
                        format!(
                            "{} @ {}",
                            labeler
                                .name_of(it.label)
                                .unwrap_or_else(|| it.label.to_string()),
                            slotting.label(it.slot)
                        )
                    })
                    .collect(),
                support: p.support,
                relative_support: p.relative_support(up.active_days),
            })
            .collect(),
    }
}

fn patterns(
    _app: &AppState,
    state: &CityState,
    _: &Request,
    params: &HashMap<String, String>,
) -> Response {
    let user = match parse_user(params) {
        Ok(u) => u,
        Err(resp) => return resp,
    };
    let snap = state.snapshot();
    match snap.patterns_of(user) {
        Some(up) => ok_json(&patterns_dto(&snap, up)),
        None => error_envelope(
            StatusCode::NotFound,
            "unknown-user",
            "unknown or filtered user",
        ),
    }
}

fn network(
    _app: &AppState,
    state: &CityState,
    _: &Request,
    params: &HashMap<String, String>,
) -> Response {
    let user = match parse_user(params) {
        Ok(u) => u,
        Err(resp) => return resp,
    };
    let snap = state.snapshot();
    match snap.place_graph_of(user) {
        Some(graph) => {
            let labeler = snap.labeler();
            Response::svg(render_place_graph(&graph, |l| {
                labeler.name_of(l).unwrap_or_else(|| l.to_string())
            }))
        }
        None => error_envelope(
            StatusCode::NotFound,
            "unknown-user",
            "unknown or filtered user",
        ),
    }
}

#[derive(Serialize)]
struct CrowdCellDto {
    cell: u64,
    users: usize,
}

#[derive(Serialize)]
struct CrowdDto {
    window: String,
    total_users: usize,
    cells: Vec<CrowdCellDto>,
}

#[derive(Serialize)]
struct FlowDto {
    from: u64,
    to: u64,
    count: usize,
}

/// The epoch a temporal crowd endpoint serves: the live snapshot, or a
/// retained `?epoch=N` whose crowd model is materialized only when
/// something has to be rendered from it.
enum ViewEpoch {
    Live(Arc<PlatformSnapshot>),
    Retained(u64),
}

impl ViewEpoch {
    fn epoch(&self) -> u64 {
        match self {
            ViewEpoch::Live(snap) => snap.epoch(),
            ViewEpoch::Retained(epoch) => *epoch,
        }
    }

    /// The crowd model published at this epoch. A retained epoch is
    /// rematerialized from the engine's delta-compressed history; one
    /// evicted since [`view_epoch`] checked it is the usual 404.
    fn model(&self, state: &CityState) -> Result<Arc<CrowdModel>, Response> {
        match self {
            ViewEpoch::Live(snap) => Ok(snap.crowd_arc()),
            ViewEpoch::Retained(epoch) => state
                .engine()
                .crowd_at(*epoch)
                .ok_or_else(|| unknown_epoch(state, *epoch)),
        }
    }
}

/// The 404 `"unknown-epoch"` envelope naming the scrubbable range.
fn unknown_epoch(state: &CityState, epoch: u64) -> Response {
    let (oldest, newest) = state.engine().history().retained();
    error_envelope(
        StatusCode::NotFound,
        "unknown-epoch",
        &format!("epoch {epoch} is not retained (history holds {oldest}..={newest})"),
    )
}

/// Resolves the epoch a temporal endpoint should serve: the live
/// snapshot by default (one `snapshot()` call, so the model and the
/// epoch can't straddle a concurrent publish), or — when the request
/// carries `?epoch=N` — epoch `N` as published, provided the history
/// ring still retains it. A non-integer epoch is a 400 `"bad-epoch"`
/// envelope; an epoch outside the retained ring is a 404
/// `"unknown-epoch"` envelope. Nothing is materialized yet.
fn view_epoch(state: &CityState, request: &Request) -> Result<ViewEpoch, Response> {
    let Some(raw) = request.query_param("epoch") else {
        return Ok(ViewEpoch::Live(state.snapshot()));
    };
    let Ok(epoch) = raw.parse::<u64>() else {
        return Err(error_envelope(
            StatusCode::BadRequest,
            "bad-epoch",
            "epoch must be a non-negative integer",
        ));
    };
    let (oldest, newest) = state.engine().history().retained();
    if (oldest..=newest).contains(&epoch) {
        Ok(ViewEpoch::Retained(epoch))
    } else {
        Err(unknown_epoch(state, epoch))
    }
}

/// The crowd model an untagged temporal endpoint renders from (see
/// [`view_epoch`]).
fn crowd_view(state: &CityState, request: &Request) -> Result<Arc<CrowdModel>, Response> {
    view_epoch(state, request)?.model(state)
}

/// True when the request's `If-None-Match` header revalidates `etag`:
/// the wildcard `*`, or any member of the comma-separated candidate
/// list, compared ignoring a `W/` weakness prefix on the candidate
/// (our tags are strong, and weak comparison is the correct semantics
/// for `If-None-Match` per RFC 9110 §13.1.2).
fn if_none_match(request: &Request, etag: &str) -> bool {
    let Some(raw) = request.headers.get("if-none-match") else {
        return false;
    };
    raw.split(',').map(str::trim).any(|candidate| {
        candidate == "*" || candidate.strip_prefix("W/").unwrap_or(candidate) == etag
    })
}

/// [`view_epoch`] with conditional-request handling: derives the strong
/// `ETag` (`"{city}-e{epoch}"` — a crowd view is immutable once its
/// epoch is published) and short-circuits to `304 Not Modified` when
/// the request's `If-None-Match` revalidates it.
fn tagged_view_epoch(
    state: &CityState,
    request: &Request,
) -> Result<(ViewEpoch, String), Response> {
    let at = view_epoch(state, request)?;
    let etag = format!("\"{}-e{}\"", state.id(), at.epoch());
    if if_none_match(request, &etag) {
        return Err(Response::not_modified(&etag));
    }
    Ok((at, etag))
}

/// A tagged crowd view's request, parsed: the epoch it serves, its
/// `ETag` and its memo key — or the response that ends the request
/// early, a `304` or a 4xx envelope.
type Resolved = Result<(ViewEpoch, String, View), Response>;

/// Parses one tagged crowd view's request. Each view has exactly one
/// resolver, shared by the worker ([`serve_view`]) and the event loop
/// ([`probe_view`]), so the two never parse differently. The order in
/// which it checks parameters decides which envelope a request with
/// several bad ones gets. It materializes nothing.
type ViewResolver = fn(&CityState, &Request, &HashMap<String, String>) -> Resolved;

/// Serves a resolved tagged crowd view on a worker through the city's
/// render memo. A hit copies the memoized body; a miss materializes the
/// model, renders it with [`render_view`] and memoizes the `200` body.
/// Early responses and error envelopes pass through and are never
/// stored.
fn serve_view(state: &CityState, resolved: Resolved) -> Response {
    let (at, etag, view) = match resolved {
        Ok(resolved) => resolved,
        Err(resp) => return resp,
    };
    let epoch = at.epoch();
    let body = match state.memo().get(epoch, view) {
        Some(body) => body.to_vec(),
        None => match at.model(state).and_then(|model| render_view(&model, view)) {
            Ok(body) => {
                let (oldest, _) = state.engine().history().retained();
                state.memo().insert(epoch, view, &body, oldest);
                body
            }
            Err(resp) => return resp,
        },
    };
    view_response(view, body, &etag)
}

/// Answers a resolved tagged crowd view without rendering: a `304`, or
/// a memo hit, with the bytes [`serve_view`] would send. Declines
/// (`None`) everything else — a miss and every 4xx envelope — so a
/// worker serves it. Takes only the locks a memo hit takes anyway.
fn probe_view(state: &CityState, resolved: Resolved) -> Option<Response> {
    match resolved {
        Ok((at, etag, view)) => {
            let body = state.memo().hit(at.epoch(), view)?;
            Some(view_response(view, body.to_vec(), &etag))
        }
        Err(resp) if resp.status == StatusCode::NotModified => Some(resp),
        Err(_) => None,
    }
}

/// The `200` of one tagged crowd view.
fn view_response(view: View, body: Vec<u8>, etag: &str) -> Response {
    let content_type = match view {
        View::Crowd { .. } | View::Flows { .. } => "application/json; charset=utf-8",
        View::Geojson { .. } => "application/json",
        View::Map { .. } | View::Tile { .. } => "image/svg+xml",
    };
    Response::full(content_type, body).with_etag(etag)
}

fn json_bytes<T: Serialize>(value: &T) -> Result<Vec<u8>, Response> {
    serde_json::to_string(value)
        .map(String::into_bytes)
        .map_err(|e| Response::error(StatusCode::InternalServerError, &e.to_string()))
}

fn no_window() -> Response {
    error_envelope(
        StatusCode::NotFound,
        "no-window",
        "no window covers that hour",
    )
}

fn snapshot_at(crowd: &CrowdModel, hour: u8) -> Result<CrowdSnapshot, Response> {
    crowd.snapshot_at_hour(hour).ok_or_else(no_window)
}

/// Renders the `200` body of one tagged crowd view from `model`: the
/// only producer of those bytes, memo or not. An hour no window covers
/// is a 404 `"no-window"` envelope.
fn render_view(model: &CrowdModel, view: View) -> Result<Vec<u8>, Response> {
    match view {
        View::Crowd { hour } => {
            let snap = snapshot_at(model, hour)?;
            json_bytes(&CrowdDto {
                window: snap.window.label(),
                total_users: snap.total_users(),
                cells: snap
                    .busiest_cells()
                    .into_iter()
                    .map(|(cell, users)| CrowdCellDto {
                        cell: cell.0,
                        users,
                    })
                    .collect(),
            })
        }
        View::Map { hour, label } => {
            let snap = match label {
                None => snapshot_at(model, hour)?,
                Some(label) => {
                    let idx = model.windows().index_of_hour(hour).ok_or_else(no_window)?;
                    model
                        .snapshot_by_label(idx, crowdweb_prep::PlaceLabel(label))
                        .map_err(|e| {
                            Response::error(StatusCode::InternalServerError, &e.to_string())
                        })?
                }
            };
            Ok(CityMap::new(model.grid()).render(&snap).into_bytes())
        }
        View::Geojson { hour } => {
            let snap = snapshot_at(model, hour)?;
            json_bytes(&snapshot_to_geojson(&snap, model.grid()))
        }
        View::Flows { from, to } => {
            let windows = model.windows();
            let (Some(fi), Some(ti)) = (windows.index_of_hour(from), windows.index_of_hour(to))
            else {
                return Err(no_window());
            };
            let flows = model
                .flows(fi, ti)
                .map_err(|e| Response::error(StatusCode::InternalServerError, &e.to_string()))?;
            json_bytes(
                &flows
                    .into_iter()
                    .map(|f| FlowDto {
                        from: f.from.0,
                        to: f.to.0,
                        count: f.count,
                    })
                    .collect::<Vec<_>>(),
            )
        }
        View::Tile { tile, hour } => {
            let snap = snapshot_at(model, hour)?;
            Ok(render_tile(model, tile, &snap).into_bytes())
        }
    }
}

fn crowd(state: &CityState, request: &Request, _: &HashMap<String, String>) -> Resolved {
    let (at, etag) = tagged_view_epoch(state, request)?;
    let hour = parse_hour(request)?;
    Ok((at, etag, View::Crowd { hour }))
}

/// `crowd/map`: an optional `?label=N` restricts the view to one place
/// label ("only the shoppers").
fn crowd_map(state: &CityState, request: &Request, _: &HashMap<String, String>) -> Resolved {
    let (at, etag) = tagged_view_epoch(state, request)?;
    let label = match request.query_param("label") {
        None => None,
        Some(raw) => Some(raw.parse::<u32>().map_err(|_| {
            error_envelope(
                StatusCode::BadRequest,
                "bad-label",
                "label must be an integer",
            )
        })?),
    };
    let hour = parse_hour(request)?;
    Ok((at, etag, View::Map { hour, label }))
}

fn crowd_geojson(state: &CityState, request: &Request, _: &HashMap<String, String>) -> Resolved {
    let (at, etag) = tagged_view_epoch(state, request)?;
    let hour = parse_hour(request)?;
    Ok((at, etag, View::Geojson { hour }))
}

/// Parses an optional hour-of-day query parameter (`default` when
/// absent); anything but `0..=23` is a 400 `"bad-hour"` envelope.
fn parse_hour_param(request: &Request, name: &str, default: u8) -> Result<u8, Response> {
    match request.query_param(name) {
        None => Ok(default),
        Some(raw) => raw.parse::<u8>().ok().filter(|h| *h < 24).ok_or_else(|| {
            error_envelope(StatusCode::BadRequest, "bad-hour", "hours must be 0-23")
        }),
    }
}

fn crowd_flows(state: &CityState, request: &Request, _: &HashMap<String, String>) -> Resolved {
    let from = parse_hour_param(request, "from", 9)?;
    let to = parse_hour_param(request, "to", 10)?;
    let (at, etag) = tagged_view_epoch(state, request)?;
    Ok((at, etag, View::Flows { from, to }))
}

/// `GET /api/v1/epochs`: which epochs are currently scrubbable via
/// `?epoch=N`, plus what retaining each one costs.
#[derive(Serialize)]
struct EpochListDto {
    latest: u64,
    capacity: usize,
    epochs: Vec<crowdweb_ingest::EpochInfo>,
}

fn epochs_list(
    _app: &AppState,
    state: &CityState,
    _: &Request,
    _: &HashMap<String, String>,
) -> Response {
    ok_json(&EpochListDto {
        latest: state.engine().epoch(),
        capacity: state.engine().history().capacity(),
        epochs: state.engine().epochs(),
    })
}

/// `GET /api/v1/crowd/diff?a=N&b=N`: the exact per-user placement delta
/// between two retained epochs.
#[derive(Serialize)]
struct CrowdDiffDto {
    a: u64,
    b: u64,
    users_changed: usize,
    changes: Vec<crowdweb_crowd::UserSplice>,
}

fn crowd_diff(
    _app: &AppState,
    state: &CityState,
    request: &Request,
    _: &HashMap<String, String>,
) -> Response {
    let parse = |name: &str| -> Result<u64, Response> {
        request
            .query_param(name)
            .and_then(|raw| raw.parse::<u64>().ok())
            .ok_or_else(|| {
                error_envelope(
                    StatusCode::BadRequest,
                    "bad-epoch",
                    "a and b must be non-negative integer epochs",
                )
            })
    };
    let (a, b) = match (parse("a"), parse("b")) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(r), _) | (_, Err(r)) => return r,
    };
    let materialize = |epoch: u64| -> Result<Arc<CrowdModel>, Response> {
        state
            .engine()
            .crowd_at(epoch)
            .ok_or_else(|| unknown_epoch(state, epoch))
    };
    let (model_a, model_b) = match (materialize(a), materialize(b)) {
        (Ok(ma), Ok(mb)) => (ma, mb),
        (Err(r), _) | (_, Err(r)) => return r,
    };
    let splice = CrowdSplice::between(&model_a, &model_b);
    ok_json(&CrowdDiffDto {
        a,
        b,
        users_changed: splice.user_count(),
        changes: splice.changes().to_vec(),
    })
}

/// Support sweep used by the figure endpoints.
const SWEEP: [f64; 7] = [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875];

#[derive(Serialize)]
struct SeriesDto {
    figure: String,
    x: Vec<f64>,
    y: Vec<f64>,
}

/// Computes a figure's data series against one snapshot.
fn figure_series(snap: &PlatformSnapshot, id: &str) -> Option<SeriesDto> {
    let db = snap.prepared().seqdb();
    let mine_all = |support: f64| -> Vec<UserPatterns> {
        PatternMiner::new(support)
            .expect("sweep supports are valid")
            .detect_all(snap.prepared())
            .expect("state sequences are valid")
    };
    match id {
        "fig5" => {
            let mut x = Vec::new();
            let mut y = Vec::new();
            for s in SWEEP {
                let all = mine_all(s);
                let avg = if all.is_empty() {
                    0.0
                } else {
                    all.iter().map(UserPatterns::pattern_count).sum::<usize>() as f64
                        / all.len() as f64
                };
                x.push(s);
                y.push(avg);
            }
            Some(SeriesDto {
                figure: "fig5".into(),
                x,
                y,
            })
        }
        "fig6" => {
            let all = mine_all(0.5);
            Some(SeriesDto {
                figure: "fig6".into(),
                x: (0..all.len()).map(|i| i as f64).collect(),
                y: all.iter().map(|u| u.pattern_count() as f64).collect(),
            })
        }
        "fig7" => {
            let mut x = Vec::new();
            let mut y = Vec::new();
            for s in SWEEP {
                let lengths: Vec<f64> = mine_all(s)
                    .iter()
                    .filter(|u| u.pattern_count() > 0)
                    .map(UserPatterns::mean_pattern_length)
                    .collect();
                x.push(s);
                y.push(if lengths.is_empty() {
                    0.0
                } else {
                    lengths.iter().sum::<f64>() / lengths.len() as f64
                });
            }
            Some(SeriesDto {
                figure: "fig7".into(),
                x,
                y,
            })
        }
        "fig8" => {
            let values: Vec<f64> = mine_all(0.5)
                .iter()
                .filter(|u| u.pattern_count() > 0)
                .map(UserPatterns::mean_pattern_length)
                .collect();
            Some(SeriesDto {
                figure: "fig8".into(),
                x: (0..values.len()).map(|i| i as f64).collect(),
                y: values,
            })
        }
        _ => {
            let _ = db;
            None
        }
    }
}

fn figure_data(
    _app: &AppState,
    state: &CityState,
    _: &Request,
    params: &HashMap<String, String>,
) -> Response {
    let snap = state.snapshot();
    match figure_series(&snap, params.get("id").map(String::as_str).unwrap_or("")) {
        Some(series) => ok_json(&series),
        None => error_envelope(
            StatusCode::NotFound,
            "unknown-figure",
            "unknown figure (fig5..fig8)",
        ),
    }
}

fn figure_svg(
    _app: &AppState,
    state: &CityState,
    _: &Request,
    params: &HashMap<String, String>,
) -> Response {
    let id = params.get("id").map(String::as_str).unwrap_or("");
    let snap = state.snapshot();
    let Some(series) = figure_series(&snap, id) else {
        return error_envelope(
            StatusCode::NotFound,
            "unknown-figure",
            "unknown figure (fig5..fig8)",
        );
    };
    let svg = match id {
        "fig5" | "fig7" => {
            let points: Vec<(f64, f64)> = series
                .x
                .iter()
                .copied()
                .zip(series.y.iter().copied())
                .collect();
            let (title, ylabel) = if id == "fig5" {
                (
                    "Fig 5: sequences per user vs min_support",
                    "avg sequences per user",
                )
            } else {
                (
                    "Fig 7: avg sequence length vs min_support",
                    "avg length per user",
                )
            };
            LineChart::new(title)
                .x_label("minimum support threshold")
                .y_label(ylabel)
                .series("modified PrefixSpan", &points)
                .render()
        }
        _ => {
            let title = if id == "fig6" {
                "Fig 6: distribution of sequence counts (min_support = 0.5)"
            } else {
                "Fig 8: distribution of avg lengths (min_support = 0.5)"
            };
            Histogram::from_values(title, &series.y, 10)
                .x_label(if id == "fig6" {
                    "sequences"
                } else {
                    "avg length"
                })
                .render()
        }
    };
    Response::svg(svg)
}

#[derive(Serialize)]
struct UploadDto {
    users: Vec<u32>,
    checkins: usize,
    patterns: Vec<UserPatternsDto>,
}

/// One `GET /api/v1/uploads` row: the upload plus its stable ring
/// sequence id — the cursor value for `?after=<id>`.
#[derive(Serialize)]
struct UploadRowDto {
    id: u64,
    users: Vec<u32>,
    checkins: usize,
    patterns: Vec<UserPatternsDto>,
}

fn upload_row_dto(
    snap: &PlatformSnapshot,
    seq: u64,
    result: &crate::state::UploadResult,
) -> UploadRowDto {
    let UploadDto {
        users,
        checkins,
        patterns,
    } = upload_dto(snap, result);
    UploadRowDto {
        id: seq,
        users,
        checkins,
        patterns,
    }
}

fn upload_dto(snap: &PlatformSnapshot, result: &crate::state::UploadResult) -> UploadDto {
    UploadDto {
        users: result.users.iter().map(|u| u.raw()).collect(),
        checkins: result.checkin_count,
        patterns: result
            .patterns
            .iter()
            .map(|up| patterns_dto(snap, up))
            .collect(),
    }
}

fn upload(
    _app: &AppState,
    state: &CityState,
    request: &Request,
    _: &HashMap<String, String>,
) -> Response {
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return error_envelope(StatusCode::BadRequest, "bad-body", "body must be utf-8 tsv");
    };
    match state.ingest_upload(body) {
        Ok(result) => ok_json(&upload_dto(&state.snapshot(), &result)),
        Err(e) => error_envelope(StatusCode::BadRequest, "bad-upload", &e.to_string()),
    }
}

fn upload_last(
    _app: &AppState,
    state: &CityState,
    _: &Request,
    _: &HashMap<String, String>,
) -> Response {
    match state.last_upload() {
        Some(result) => ok_json(&upload_dto(&state.snapshot(), &result)),
        None => error_envelope(StatusCode::NotFound, "no-upload", "no upload yet"),
    }
}

fn uploads_list(
    _app: &AppState,
    state: &CityState,
    request: &Request,
    _: &HashMap<String, String>,
) -> Response {
    let page = match parse_page(request) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let after = match parse_after(request) {
        Ok(a) => a,
        Err(resp) => return resp,
    };
    let snap = state.snapshot();
    let uploads = state.uploads();
    let rows = uploads
        .iter()
        .map(|(seq, r)| upload_row_dto(&snap, *seq, r));
    // The listing is newest first with sequence ids descending, so the
    // cursor walks *down*: `after=<id>` resumes at the next-older
    // upload, stable even as new uploads evict ring entries.
    let dto = match after {
        None => paginate(rows, uploads.len(), &page),
        Some(after) => paginate_after(
            rows.filter(|r| r.id < after),
            uploads.len(),
            page.limit,
            |r| r.id,
        ),
    };
    ok_json(&dto)
}

/// One live check-in as submitted to `POST /api/checkins`. `category`
/// defaults to `"Unknown"` and `tz_offset_minutes` to `0` (UTC) when
/// omitted.
#[derive(Deserialize)]
struct CheckinDto {
    user: u32,
    venue: String,
    #[serde(default)]
    category: Option<String>,
    lat: f64,
    lon: f64,
    #[serde(default)]
    tz_offset_minutes: Option<i32>,
    time: String,
}

fn checkin_to_record(dto: &CheckinDto) -> Result<MergeRecord, String> {
    if dto.venue.is_empty() {
        return Err("venue must not be empty".to_owned());
    }
    let location = crowdweb_geo::LatLon::new(dto.lat, dto.lon).map_err(|e| e.to_string())?;
    let time = crowdweb_dataset::tsv::parse_time(&dto.time).map_err(|e| e.to_string())?;
    Ok(MergeRecord {
        user: UserId::new(dto.user),
        venue_key: dto.venue.clone(),
        category: dto.category.clone().unwrap_or_else(|| "Unknown".to_owned()),
        location,
        tz_offset_minutes: dto.tz_offset_minutes.unwrap_or(0),
        time,
    })
}

fn checkins_submit(
    _app: &AppState,
    state: &CityState,
    request: &Request,
    _: &HashMap<String, String>,
) -> Response {
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return error_envelope(
            StatusCode::BadRequest,
            "bad-body",
            "body must be utf-8 json",
        );
    };
    // Accept a single check-in object or an array of them.
    let dtos: Vec<CheckinDto> = match serde_json::from_str::<Vec<CheckinDto>>(body) {
        Ok(list) => list,
        Err(_) => match serde_json::from_str::<CheckinDto>(body) {
            Ok(one) => vec![one],
            Err(e) => {
                return error_envelope(
                    StatusCode::BadRequest,
                    "bad-checkin",
                    &format!("body must be a check-in object or array: {e}"),
                )
            }
        },
    };
    let mut records = Vec::with_capacity(dtos.len());
    for (i, dto) in dtos.iter().enumerate() {
        match checkin_to_record(dto) {
            Ok(r) => records.push(r),
            Err(msg) => {
                return error_envelope(
                    StatusCode::BadRequest,
                    "bad-checkin",
                    &format!("check-in {i}: {msg}"),
                )
            }
        }
    }
    match state.engine().submit(records) {
        Ok(receipt) => ok_json(&receipt),
        Err(e @ IngestError::Backpressure { .. }) => {
            error_envelope(StatusCode::ServiceUnavailable, "queue-full", &e.to_string())
                .with_retry_after(RETRY_AFTER_SECS)
        }
        // The batch was accepted and logged but the inline epoch
        // failed: the records are durable, so the client must NOT
        // re-submit — a distinct code makes that distinguishable from
        // a rejected batch.
        Err(e @ IngestError::EpochFailed { .. }) => error_envelope(
            StatusCode::InternalServerError,
            "epoch-failed",
            &e.to_string(),
        ),
        Err(e) => Response::error(StatusCode::InternalServerError, &e.to_string()),
    }
}

/// Advertised backoff for 503 load-shedding responses. The queue drains
/// on the next epoch run, so one second is the honest order of
/// magnitude; load generators use it directly instead of guessing.
pub(crate) const RETRY_AFTER_SECS: u32 = 1;

#[derive(Serialize)]
struct EpochRunDto {
    ran: bool,
    epoch: u64,
    /// Wall time the whole request spent running the epoch (including
    /// "nothing to do" probes when `ran` is false), so harnesses can
    /// measure epoch lag under load from the response body alone
    /// instead of scraping `/api/metrics` mid-run.
    duration_micros: u64,
    report: Option<crowdweb_ingest::EpochReport>,
}

fn ingest_epoch(
    _app: &AppState,
    state: &CityState,
    _: &Request,
    _: &HashMap<String, String>,
) -> Response {
    let started = std::time::Instant::now();
    match state.engine().run_epoch() {
        Ok(report) => ok_json(&EpochRunDto {
            ran: report.is_some(),
            epoch: state.engine().epoch(),
            duration_micros: started.elapsed().as_micros() as u64,
            report,
        }),
        Err(e) => Response::error(StatusCode::InternalServerError, &e.to_string()),
    }
}

fn ingest_stats(
    _app: &AppState,
    state: &CityState,
    _: &Request,
    _: &HashMap<String, String>,
) -> Response {
    ok_json(&state.engine().stats())
}

fn metrics_text(state: &AppState, _: &Request, _: &HashMap<String, String>) -> Response {
    Response::text(state.metrics().render())
}

#[derive(Serialize)]
struct HealthDto {
    status: &'static str,
    epoch: u64,
    history_depth: usize,
    history_capacity: usize,
    queue_depth: usize,
    queue_capacity: usize,
    shards: usize,
    durable: bool,
    open_connections: i64,
}

fn healthz(
    app: &AppState,
    state: &CityState,
    _: &Request,
    _: &HashMap<String, String>,
) -> Response {
    let stats = state.engine().stats();
    ok_json(&HealthDto {
        status: "ok",
        epoch: stats.epoch,
        history_depth: stats.history_depth,
        history_capacity: stats.history_capacity,
        queue_depth: stats.queue_depth,
        queue_capacity: stats.queue_capacity,
        shards: stats.shard_count,
        durable: stats.durable,
        // Published by the reactor loop; 0 when the router is driven
        // without a running server (tests, embedding).
        open_connections: app
            .metrics()
            .gauge_value("crowdweb_server_open_connections", &[])
            .unwrap_or(0),
    })
}

#[derive(Serialize)]
struct HotspotDto {
    window: String,
    cell: u64,
    users: usize,
    z_score: f64,
    phase: String,
}

fn hotspots(
    _app: &AppState,
    state: &CityState,
    _: &Request,
    _: &HashMap<String, String>,
) -> Response {
    let snap = state.snapshot();
    match crowdweb_crowd::detect_hotspots(snap.crowd(), &crowdweb_crowd::HotspotConfig::default()) {
        Ok(found) => {
            let windows = snap.crowd().windows();
            let rows: Vec<HotspotDto> = found
                .into_iter()
                .map(|h| HotspotDto {
                    window: windows.get(h.window).map(|w| w.label()).unwrap_or_default(),
                    cell: h.cell.0,
                    users: h.count,
                    z_score: h.z_score,
                    phase: format!("{:?}", h.phase),
                })
                .collect();
            ok_json(&rows)
        }
        Err(e) => Response::error(StatusCode::InternalServerError, &e.to_string()),
    }
}

fn crowd_flows_map(
    _app: &AppState,
    state: &CityState,
    request: &Request,
    _: &HashMap<String, String>,
) -> Response {
    let (from, to) = match (
        parse_hour_param(request, "from", 9),
        parse_hour_param(request, "to", 10),
    ) {
        (Ok(f), Ok(t)) => (f, t),
        (Err(r), _) | (_, Err(r)) => return r,
    };
    let model = match crowd_view(state, request) {
        Ok(m) => m,
        Err(resp) => return resp,
    };
    let windows = model.windows();
    let (Some(fi), Some(ti)) = (windows.index_of_hour(from), windows.index_of_hour(to)) else {
        return error_envelope(
            StatusCode::NotFound,
            "no-window",
            "no window covers that hour",
        );
    };
    match model.flows(fi, ti) {
        Ok(flows) => Response::svg(crowdweb_viz::render_flow_map(
            model.grid(),
            &flows,
            &format!("{from}h \u{2192} {to}h"),
        )),
        Err(e) => Response::error(StatusCode::InternalServerError, &e.to_string()),
    }
}

fn crowd_timeline(
    _app: &AppState,
    state: &CityState,
    request: &Request,
    _: &HashMap<String, String>,
) -> Response {
    match crowd_view(state, request) {
        Ok(model) => Response::svg(crowdweb_viz::render_crowd_timeline(
            &model.animation_frames(),
        )),
        Err(resp) => resp,
    }
}

fn heatmap(
    _app: &AppState,
    state: &CityState,
    _: &Request,
    _: &HashMap<String, String>,
) -> Response {
    let snap = state.snapshot();
    let profile = crowdweb_dataset::ActivityProfile::of_dataset(snap.dataset());
    Response::svg(crowdweb_viz::render_activity_heatmap(
        &profile,
        "City activity rhythm (weekday x hour)",
    ))
}

fn heatmap_user(
    _app: &AppState,
    state: &CityState,
    _: &Request,
    params: &HashMap<String, String>,
) -> Response {
    let user = match parse_user(params) {
        Ok(u) => u,
        Err(resp) => return resp,
    };
    let snap = state.snapshot();
    if snap.dataset().checkins_of(user).is_empty() {
        return error_envelope(StatusCode::NotFound, "unknown-user", "unknown user");
    }
    let profile = crowdweb_dataset::ActivityProfile::of_user(snap.dataset(), user);
    Response::svg(crowdweb_viz::render_activity_heatmap(
        &profile,
        &format!("Activity rhythm of {user}"),
    ))
}

#[derive(Serialize)]
struct EntropyDto {
    user: u32,
    visits: usize,
    distinct_places: usize,
    random_entropy: f64,
    uncorrelated_entropy: f64,
    actual_entropy: f64,
    max_predictability: f64,
}

fn entropy(
    _app: &AppState,
    state: &CityState,
    _: &Request,
    params: &HashMap<String, String>,
) -> Response {
    let user = match parse_user(params) {
        Ok(u) => u,
        Err(resp) => return resp,
    };
    let snap = state.snapshot();
    let Some(view) = snap.prepared().seqdb().view_of(user) else {
        return error_envelope(
            StatusCode::NotFound,
            "unknown-user",
            "unknown or filtered user",
        );
    };
    let p = crowdweb_mobility::predictability_profile(&view.decode());
    ok_json(&EntropyDto {
        user: user.raw(),
        visits: p.visits,
        distinct_places: p.distinct_places,
        random_entropy: p.random_entropy,
        uncorrelated_entropy: p.uncorrelated_entropy,
        actual_entropy: p.actual_entropy,
        max_predictability: p.max_predictability,
    })
}

#[derive(Serialize)]
struct GroupDto {
    members: Vec<u32>,
}

fn groups(
    _app: &AppState,
    state: &CityState,
    request: &Request,
    _: &HashMap<String, String>,
) -> Response {
    let threshold: f64 = match request.query_param("threshold") {
        None => 0.6,
        Some(raw) => match raw.parse::<f64>() {
            Ok(t) if (0.0..=1.0).contains(&t) => t,
            _ => {
                return error_envelope(
                    StatusCode::BadRequest,
                    "bad-threshold",
                    "threshold must be in [0, 1]",
                )
            }
        },
    };
    let snap = state.snapshot();
    let groups = crowdweb_mobility::group_users(snap.patterns(), threshold);
    let rows: Vec<GroupDto> = groups
        .into_iter()
        .map(|g| GroupDto {
            members: g.members.iter().map(|u| u.raw()).collect(),
        })
        .collect();
    ok_json(&rows)
}

fn crowd_compare(
    _app: &AppState,
    state: &CityState,
    request: &Request,
    _: &HashMap<String, String>,
) -> Response {
    let (a, b) = match (
        parse_hour_param(request, "a", 9),
        parse_hour_param(request, "b", 19),
    ) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(r), _) | (_, Err(r)) => return r,
    };
    let model = match crowd_view(state, request) {
        Ok(m) => m,
        Err(resp) => return resp,
    };
    match crowdweb_crowd::compare_windows(&model, a, b) {
        Ok(cmp) => ok_json(&cmp),
        Err(e) => Response::error(StatusCode::InternalServerError, &e.to_string()),
    }
}

#[derive(Serialize)]
struct TrajectoryDto {
    user: u32,
    date: String,
    points: usize,
    path_m: f64,
    radius_of_gyration_m: f64,
    polyline: String,
    geojson: crowdweb_geo::geojson::Feature,
}

fn trajectory(
    _app: &AppState,
    state: &CityState,
    request: &Request,
    params: &HashMap<String, String>,
) -> Response {
    use crowdweb_geo::trajectory::{path_length_m, radius_of_gyration_m};
    let user = match parse_user(params) {
        Ok(u) => u,
        Err(resp) => return resp,
    };
    let snap = state.snapshot();
    let checkins = snap.dataset().checkins_of(user);
    if checkins.is_empty() {
        return error_envelope(StatusCode::NotFound, "unknown-user", "unknown user");
    }
    // Group the user's check-ins by local date.
    let mut per_day: HashMap<crowdweb_dataset::CivilDate, Vec<crowdweb_geo::LatLon>> =
        HashMap::new();
    for c in checkins {
        if let Some(v) = snap.dataset().venue(c.venue()) {
            per_day
                .entry(c.local_date())
                .or_default()
                .push(v.location());
        }
    }
    let date = match request.query_param("date") {
        Some(raw) => {
            let parts: Vec<&str> = raw.split('-').collect();
            let parsed = (parts.len() == 3)
                .then(|| {
                    let y = parts[0].parse::<i32>().ok()?;
                    let m = parts[1].parse::<u8>().ok()?;
                    let d = parts[2].parse::<u8>().ok()?;
                    crowdweb_dataset::CivilDate::new(y, m, d).ok()
                })
                .flatten();
            match parsed {
                Some(d) => d,
                None => {
                    return error_envelope(
                        StatusCode::BadRequest,
                        "bad-date",
                        "date must be YYYY-MM-DD",
                    )
                }
            }
        }
        // Default: the user's busiest day.
        None => {
            *per_day
                .iter()
                .max_by_key(|(d, pts)| (pts.len(), std::cmp::Reverse(**d)))
                .expect("user has check-ins")
                .0
        }
    };
    let Some(points) = per_day.get(&date) else {
        return error_envelope(
            StatusCode::NotFound,
            "no-checkins",
            "no check-ins on that date",
        );
    };
    let feature =
        crowdweb_geo::geojson::Feature::new(crowdweb_geo::geojson::Geometry::line(points))
            .with_property("user", i64::from(user.raw()))
            .with_property("date", date.to_string());
    ok_json(&TrajectoryDto {
        user: user.raw(),
        date: date.to_string(),
        points: points.len(),
        path_m: path_length_m(points),
        radius_of_gyration_m: radius_of_gyration_m(points),
        polyline: crowdweb_geo::polyline::encode(points),
        geojson: feature,
    })
}

/// `tiles/{z}/{x}/{y}`: one slippy-map tile of the crowd heat layer,
/// the portion of the microcell grid intersecting Web-Mercator tile
/// `z/x/y`, shaded by the crowd of `?hour=H` (default 9). Standard
/// `z/x/y` addressing means any web map library can use the platform
/// as a tile source.
fn tile(state: &CityState, request: &Request, params: &HashMap<String, String>) -> Resolved {
    let bad_tile = |message: &str| error_envelope(StatusCode::BadRequest, "bad-tile", message);
    let parse = |name: &str| -> Option<u32> { params.get(name).and_then(|s| s.parse().ok()) };
    let (Some(z), Some(x), Some(y)) = (parse("z"), parse("x"), parse("y")) else {
        return Err(bad_tile("tile coordinates must be integers"));
    };
    let z = u8::try_from(z).map_err(|_| bad_tile("zoom out of range"))?;
    let tile = crowdweb_geo::TileCoord::new(z, x, y).map_err(|e| bad_tile(&e.to_string()))?;
    let (at, etag) = tagged_view_epoch(state, request)?;
    let hour = parse_hour(request)?;
    Ok((at, etag, View::Tile { tile, hour }))
}

/// Renders tile `tile` of `snap`'s crowd as a 256×256 SVG.
fn render_tile(model: &CrowdModel, tile: crowdweb_geo::TileCoord, snap: &CrowdSnapshot) -> String {
    use crowdweb_viz::sequential_color;
    let tile_bounds = tile.bounds();
    let grid = model.grid();
    let max = snap.cells.values().max().copied().unwrap_or(0).max(1);

    const SIZE: f64 = 256.0;
    let mut doc = crowdweb_viz::Document::new(SIZE, SIZE);
    let project = |lat: f64, lon: f64| -> (f64, f64) {
        (
            (lon - tile_bounds.west()) / tile_bounds.lon_span() * SIZE,
            (1.0 - (lat - tile_bounds.south()) / tile_bounds.lat_span()) * SIZE,
        )
    };
    for (&cell, &count) in &snap.cells {
        let Some(bounds) = grid.cell_bounds(cell) else {
            continue;
        };
        if !bounds.intersects(&tile_bounds) {
            continue;
        }
        let (x0, y1) = project(bounds.south(), bounds.west());
        let (x1, y0) = project(bounds.north(), bounds.east());
        let color = sequential_color(count as f64 / max as f64).to_hex();
        doc.rect(x0, y0, (x1 - x0).abs(), (y1 - y0).abs(), &color, None);
    }
    doc.finish()
}

/// One `export/checkins` NDJSON line: a check-in joined with its
/// venue. Field names follow the `POST /api/v1/checkins` submission
/// shape where they overlap; `time_unix` is the UTC Unix timestamp.
#[derive(Serialize)]
struct ExportRowDto {
    user: u32,
    venue: String,
    category: Option<String>,
    lat: f64,
    lon: f64,
    tz_offset_minutes: i32,
    time_unix: i64,
}

/// The `export/checkins` producer: serializes the snapshot's check-in
/// records one JSON object per line, one ~[`STREAM_CHUNK_BYTES`] batch
/// per pull. It holds only the `Arc`'d snapshot and a row index, so
/// the full export is never materialized — not in the handler and not
/// in the reactor, whose buffering stays bounded by the stream budget.
struct CheckinExportStream {
    snap: Arc<PlatformSnapshot>,
    next: usize,
}

impl BodyStream for CheckinExportStream {
    fn next_chunk(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        let dataset = self.snap.dataset();
        let checkins = dataset.checkins();
        if self.next >= checkins.len() {
            return Ok(None);
        }
        let mut out = Vec::new();
        while self.next < checkins.len() && out.len() < STREAM_CHUNK_BYTES {
            let c = &checkins[self.next];
            self.next += 1;
            let Some(venue) = dataset.venue(c.venue()) else {
                // Unreachable on a well-formed dataset (check-ins only
                // enter against registered venues); skip defensively
                // rather than abort a multi-megabyte export.
                continue;
            };
            let row = ExportRowDto {
                user: c.user().raw(),
                venue: venue.name().to_owned(),
                category: dataset
                    .taxonomy()
                    .name_of(venue.category())
                    .map(str::to_owned),
                lat: venue.location().lat(),
                lon: venue.location().lon(),
                tz_offset_minutes: c.tz_offset_minutes(),
                time_unix: c.time().unix_seconds(),
            };
            let line = serde_json::to_string(&row).map_err(std::io::Error::other)?;
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
        }
        Ok(Some(out))
    }
}

/// `GET /api/v1/cities/{city}/export/checkins`: bulk NDJSON export of
/// the city's current check-in records, streamed chunked. Epoch
/// history retains only crowd models (not datasets), so `?epoch=N` is
/// honored exactly when `N` is the snapshot's own epoch — anything
/// else is the usual 400/404 envelope. Carries the same
/// `ETag`/`If-None-Match` revalidation as the crowd endpoints.
fn export_checkins(
    _app: &AppState,
    state: &CityState,
    request: &Request,
    _: &HashMap<String, String>,
) -> Response {
    let snap = state.snapshot();
    if let Some(raw) = request.query_param("epoch") {
        let Ok(epoch) = raw.parse::<u64>() else {
            return error_envelope(
                StatusCode::BadRequest,
                "bad-epoch",
                "epoch must be a non-negative integer",
            );
        };
        if epoch != snap.epoch() {
            return error_envelope(
                StatusCode::NotFound,
                "unknown-epoch",
                &format!(
                    "check-in records are only retained for the live epoch {}",
                    snap.epoch()
                ),
            );
        }
    }
    let etag = format!("\"{}-e{}\"", state.id(), snap.epoch());
    if if_none_match(request, &etag) {
        return Response::not_modified(&etag);
    }
    Response::stream(
        "application/x-ndjson",
        Box::new(CheckinExportStream { snap, next: 0 }),
    )
    .with_etag(&etag)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crowdweb_synth::SynthConfig;

    fn state() -> AppState {
        AppState::build(SynthConfig::small(53).generate().unwrap(), 20).unwrap()
    }

    fn get(router: &Router<AppState>, state: &AppState, path: &str) -> (u16, String) {
        let req = Request::read_from(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes()).unwrap();
        let resp = router.route(state, &req);
        (
            resp.status.code(),
            String::from_utf8(resp.into_body_bytes()).unwrap(),
        )
    }

    #[test]
    fn stats_endpoint() {
        let (s, r) = (state(), build_router());
        let (code, body) = get(&r, &s, "/api/stats");
        assert_eq!(code, 200);
        assert!(body.contains("\"total_checkins\""));
        assert!(body.contains("\"study_window\""));
    }

    /// After epochs that add a user, a venue and check-ins in another
    /// month, `/stats` (read from the counts the dataset keeps) answers
    /// byte for byte what a walk over every check-in computes.
    #[test]
    fn stats_body_on_a_merged_dataset_matches_a_walk() {
        let (s, r) = (state(), build_router());
        let records = [
            (7, "\"Office #0\"", "Tue Apr 03 13:00:00 +0000 2012"),
            (
                900_001,
                "\"Brand New Cafe\"",
                "Sun Jul 01 03:30:00 +0000 2012",
            ),
            (
                900_001,
                "\"Brand New Cafe\"",
                "Mon Jul 02 23:59:00 +0000 2012",
            ),
        ];
        for (user, venue, time) in records {
            let json = format!(
                "{{\"user\":{user},\"venue\":{venue},\"category\":\"Cafe\",\"lat\":40.75,\
                 \"lon\":-73.99,\"tz_offset_minutes\":-240,\"time\":\"{time}\"}}"
            );
            assert_eq!(post(&r, &s, "/api/v1/checkins", &json).0, 200);
            assert_eq!(post(&r, &s, "/api/v1/ingest/epoch", "").0, 200);
        }
        let snap = s.snapshot();
        let d = snap.dataset();
        let mut per_user: HashMap<crowdweb_dataset::UserId, usize> = HashMap::new();
        for c in d.checkins() {
            *per_user.entry(c.user()).or_insert(0) += 1;
        }
        let mut counts: Vec<usize> = per_user.values().copied().collect();
        counts.sort_unstable();
        let n = counts.len();
        let median = if n % 2 == 1 {
            counts[n / 2] as f64
        } else {
            (counts[n / 2 - 1] + counts[n / 2]) as f64 / 2.0
        };
        let walked = serde_json::to_string(&StatsDto {
            total_checkins: d.checkins().len(),
            user_count: n,
            venue_count: d.venues().len(),
            mean_records_per_user: d.checkins().len() as f64 / n as f64,
            median_records_per_user: median,
            filtered_users: snap.prepared().user_count(),
            study_window: snap.prepared().window().to_string(),
            min_support: snap.min_support(),
        })
        .unwrap();
        for path in ["/api/v1/stats", "/api/stats"] {
            assert_eq!(get(&r, &s, path), (200, walked.clone()), "{path}");
        }
        assert!(per_user.contains_key(&crowdweb_dataset::UserId::new(900_001)));
    }

    /// Asserts one line of Prometheus text exposition is well-formed.
    fn assert_prometheus_line(line: &str) {
        fn valid_name(name: &str) -> bool {
            !name.is_empty()
                && name
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
                && !name.as_bytes()[0].is_ascii_digit()
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            assert!(valid_name(name), "bad HELP name in {line:?}");
            return;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            assert!(
                valid_name(parts.next().unwrap_or("")),
                "bad TYPE in {line:?}"
            );
            let kind = parts.next().unwrap_or("");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "bad TYPE kind in {line:?}"
            );
            return;
        }
        let (metric, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line {line:?} has no value");
        });
        assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
        let name = metric.split('{').next().unwrap();
        assert!(valid_name(name), "bad metric name in {line:?}");
        if metric.contains('{') {
            assert!(metric.ends_with('}'), "unterminated labels in {line:?}");
        }
    }

    #[test]
    fn metrics_endpoint_serves_valid_stable_prometheus_text() {
        let s = state();
        let r = build_router();
        let req = Request::read_from("GET /api/metrics HTTP/1.1\r\n\r\n".as_bytes()).unwrap();
        let first = r.route(&s, &req);
        assert_eq!(first.status.code(), 200);
        assert!(first.content_type.starts_with("text/plain"));
        let text = String::from_utf8(first.body_bytes().to_vec()).unwrap();
        assert!(!text.is_empty(), "cold build must have recorded metrics");
        for line in text.lines().filter(|l| !l.is_empty()) {
            assert_prometheus_line(line);
        }
        // The cold build ran the full pipeline through the default-on
        // registry: stage timings must be present.
        assert!(
            text.contains("crowdweb_pipeline_stage_seconds_bucket"),
            "{text}"
        );
        assert!(text.contains("stage=\"mine\""));
        assert!(text.contains("crowdweb_pipeline_runs_total"));
        // The epoch history store publishes its retention gauges (the
        // cold build seeds epoch 0) and registers the reconstruction
        // histogram up front.
        assert!(text.contains("crowdweb_ingest_history_retained_epochs 1"));
        assert!(text.contains("crowdweb_ingest_history_resident_bytes{kind=\"full\"}"));
        assert!(text.contains("crowdweb_ingest_history_resident_bytes{kind=\"delta\"} 0"));
        assert!(text.contains("crowdweb_ingest_history_reconstruction_seconds"));
        // The render memo registers its per-view counters and its
        // resident-bytes gauge before the first read.
        assert!(text.contains("crowdweb_render_memo_hits_total{view=\"crowd/map\"} 0"));
        assert!(text.contains("crowdweb_render_memo_misses_total{view=\"tiles\"} 0"));
        assert!(text.contains("crowdweb_render_memo_resident_bytes 0"));
        // Deterministic ordering: a second scrape with unchanged state
        // is byte-identical.
        let second = r.route(&s, &req);
        assert_eq!(
            first.body_bytes(),
            second.body_bytes(),
            "scrapes must order deterministically"
        );
    }

    #[test]
    fn healthz_endpoint_reports_epoch_and_queue() {
        let (s, r) = (state(), build_router());
        let (code, body) = get(&r, &s, "/api/v1/healthz");
        assert_eq!(code, 200);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["status"], "ok");
        assert_eq!(v["epoch"].as_u64(), Some(0));
        // The history ring holds the cold build and reports its
        // configured retention.
        assert_eq!(v["history_depth"].as_u64(), Some(1));
        assert!(v["history_capacity"].as_u64().unwrap() >= 1);
        assert_eq!(v["queue_depth"].as_u64(), Some(0));
        assert!(v["queue_capacity"].as_u64().unwrap() > 0);
        assert!(v["shards"].as_u64().unwrap() >= 1);
        assert_eq!(v["durable"].as_bool(), Some(false));
        // Driven without a running reactor, the gauge is absent → 0.
        assert_eq!(v["open_connections"].as_i64(), Some(0));
    }

    #[test]
    fn users_and_patterns_endpoints() {
        let s = state();
        let r = build_router();
        let (code, body) = get(&r, &s, "/api/v1/users");
        assert_eq!(code, 200);
        let page: serde_json::Value = serde_json::from_str(&body).unwrap();
        let items = page["items"].as_array().unwrap();
        assert!(!items.is_empty());
        assert_eq!(page["total"].as_u64().unwrap() as usize, items.len());
        let uid = items[0]["user"].as_u64().unwrap();
        let (code, body) = get(&r, &s, &format!("/api/v1/patterns/{uid}"));
        assert_eq!(code, 200);
        assert!(body.contains("\"patterns\""));
        // Pattern items carry readable labels with slot ranges.
        assert!(body.contains(":00-"));
        let (code, _) = get(&r, &s, "/api/v1/patterns/999999");
        assert_eq!(code, 404);
        let (code, _) = get(&r, &s, "/api/v1/patterns/not-a-number");
        assert_eq!(code, 400);
    }

    #[test]
    fn users_pagination_windows_and_validates() {
        let s = state();
        let r = build_router();
        let (_, body) = get(&r, &s, "/api/v1/users");
        let full: serde_json::Value = serde_json::from_str(&body).unwrap();
        let total = full["total"].as_u64().unwrap() as usize;
        assert!(total >= 3, "need a few users to paginate over");
        // A window in the middle: same total, bounded items, correct
        // slice.
        let (code, body) = get(&r, &s, "/api/v1/users?limit=2&offset=1");
        assert_eq!(code, 200);
        let page: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(page["total"].as_u64().unwrap() as usize, total);
        assert_eq!(page["items"].as_array().unwrap().len(), 2);
        assert_eq!(page["items"][0], full["items"][1]);
        // An offset past the end is a valid empty page.
        let (code, body) = get(&r, &s, &format!("/api/v1/users?offset={}", total + 5));
        assert_eq!(code, 200);
        let page: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(page["items"].as_array().unwrap().len(), 0);
        assert_eq!(page["total"].as_u64().unwrap() as usize, total);
        // Out-of-bounds values are rejected, never clamped.
        for bad in [
            "/api/v1/users?limit=0",
            "/api/v1/users?limit=1001",
            "/api/v1/users?limit=-1",
            "/api/v1/users?limit=abc",
            "/api/v1/users?offset=-1",
            "/api/v1/users?offset=x",
        ] {
            let (code, body) = get(&r, &s, bad);
            assert_eq!(code, 400, "{bad}: {body}");
            let v: serde_json::Value = serde_json::from_str(&body).unwrap();
            let code_slug = v["error"]["code"].as_str().unwrap();
            assert!(
                code_slug == "bad-limit" || code_slug == "bad-offset",
                "{bad}: {body}"
            );
        }
    }

    #[test]
    fn network_endpoint_returns_svg() {
        let s = state();
        let r = build_router();
        let uid = s.snapshot().prepared().users()[0].raw();
        let (code, body) = get(&r, &s, &format!("/api/network/{uid}"));
        assert_eq!(code, 200);
        assert!(body.starts_with("<svg"));
    }

    #[test]
    fn crowd_endpoints() {
        let s = state();
        let r = build_router();
        let (code, body) = get(&r, &s, "/api/crowd?hour=9");
        assert_eq!(code, 200);
        assert!(body.contains("\"window\":\"9-10 am\""));
        let (code, body) = get(&r, &s, "/api/crowd/map?hour=9");
        assert_eq!(code, 200);
        assert!(body.starts_with("<svg"));
        // Label-filtered view (kind index 2 = Eatery).
        let (code, body) = get(&r, &s, "/api/crowd/map?hour=12&label=2");
        assert_eq!(code, 200);
        assert!(body.starts_with("<svg"));
        let (code, _) = get(&r, &s, "/api/crowd/map?hour=12&label=zzz");
        assert_eq!(code, 400);
        let (code, body) = get(&r, &s, "/api/crowd/geojson?hour=9");
        assert_eq!(code, 200);
        assert!(body.contains("FeatureCollection"));
        let (code, _) = get(&r, &s, "/api/crowd?hour=99");
        assert_eq!(code, 400);
        let (code, body) = get(&r, &s, "/api/crowd/flows?from=9&to=10");
        assert_eq!(code, 200);
        assert!(body.starts_with('['));
    }

    #[test]
    fn figure_endpoints() {
        let s = state();
        let r = build_router();
        for fig in ["fig5", "fig6", "fig7", "fig8"] {
            let (code, body) = get(&r, &s, &format!("/api/figures/{fig}"));
            assert_eq!(code, 200, "{fig}");
            assert!(body.contains(fig));
            let (code, body) = get(&r, &s, &format!("/api/figures/{fig}/svg"));
            assert_eq!(code, 200, "{fig} svg");
            assert!(body.starts_with("<svg"));
        }
        let (code, _) = get(&r, &s, "/api/figures/fig99");
        assert_eq!(code, 404);
    }

    #[test]
    fn fig5_series_is_nonincreasing() {
        let s = state();
        let series = figure_series(&s.snapshot(), "fig5").unwrap();
        for w in series.y.windows(2) {
            assert!(w[0] >= w[1], "{:?}", series.y);
        }
    }

    #[test]
    fn upload_flow() {
        let s = state();
        let r = build_router();
        let (code, _) = get(&r, &s, "/api/upload/last");
        assert_eq!(code, 404);
        let tsv = "77\tv1\tx\tCoffee Shop\t40.75\t-73.99\t-240\tTue Apr 03 13:00:00 +0000 2012\n\
77\tv1\tx\tCoffee Shop\t40.75\t-73.99\t-240\tWed Apr 04 13:00:00 +0000 2012\n";
        let raw = format!(
            "POST /api/upload HTTP/1.1\r\nContent-Length: {}\r\n\r\n{tsv}",
            tsv.len()
        );
        let req = Request::read_from(raw.as_bytes()).unwrap();
        let resp = r.route(&s, &req);
        assert_eq!(resp.status.code(), 200);
        let body = String::from_utf8(resp.into_body_bytes()).unwrap();
        assert!(body.contains("\"checkins\":2"));
        let (code, _) = get(&r, &s, "/api/upload/last");
        assert_eq!(code, 200);
    }

    fn post(router: &Router<AppState>, state: &AppState, path: &str, body: &str) -> (u16, String) {
        let raw = format!(
            "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let req = Request::read_from(raw.as_bytes()).unwrap();
        let resp = router.route(state, &req);
        (
            resp.status.code(),
            String::from_utf8(resp.into_body_bytes()).unwrap(),
        )
    }

    #[test]
    fn live_ingest_endpoints() {
        let s = state();
        let r = build_router();
        let (code, body) = get(&r, &s, "/api/ingest/stats");
        assert_eq!(code, 200);
        assert!(body.contains("\"queue_depth\":0"));
        // Submit a check-in at an existing venue, then run an epoch.
        let snap = s.snapshot();
        let c = snap.dataset().checkins()[0];
        let v = snap.dataset().venue(c.venue()).unwrap();
        let json = format!(
            "[{{\"user\":{},\"venue\":{},\"category\":\"Office\",\"lat\":{},\"lon\":{},\"tz_offset_minutes\":-240,\"time\":\"Tue Apr 03 13:00:00 +0000 2012\"}}]",
            c.user().raw(),
            serde_json::to_string(v.name()).unwrap(),
            v.location().lat(),
            v.location().lon()
        );
        drop(snap);
        let (code, body) = post(&r, &s, "/api/checkins", &json);
        assert_eq!(code, 200, "{body}");
        assert!(body.contains("\"accepted\":1"));
        let (code, body) = post(&r, &s, "/api/ingest/epoch", "");
        assert_eq!(code, 200, "{body}");
        assert!(body.contains("\"ran\":true"));
        assert!(body.contains("\"epoch\":1"));
        // Harnesses measure epoch lag from the response body alone.
        let run: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert!(run["duration_micros"].as_u64().unwrap() > 0, "{body}");
        // The report says where the epoch's time went, stage by stage.
        let stages = &run["report"]["stages"];
        for stage in ["merge", "prepare", "mine", "crowd", "history", "publish"] {
            assert!(
                stages[format!("{stage}_micros").as_str()]
                    .as_u64()
                    .is_some(),
                "{stage}: {body}"
            );
        }
        let (code, body) = get(&r, &s, "/api/ingest/stats");
        assert_eq!(code, 200);
        assert!(body.contains("\"epochs_run\":1"));
        assert!(body.contains("\"total_applied\":1"));
        let stats: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(stats["last_epoch"]["stages"], *stages, "{body}");
        // The published snapshot advanced and still serves queries.
        assert_eq!(s.snapshot().epoch(), 1);
        let (code, _) = get(&r, &s, "/api/stats");
        assert_eq!(code, 200);
        // An epoch over an empty queue is a no-op, but still reports
        // the wall time the probe spent.
        let (code, body) = post(&r, &s, "/api/ingest/epoch", "");
        assert_eq!(code, 200);
        assert!(body.contains("\"ran\":false"));
        assert!(body.contains("\"duration_micros\""), "{body}");
    }

    /// Submits one existing check-in shifted by `step` hours and runs
    /// an epoch, so each call perturbs the crowd model deterministically.
    pub(crate) fn advance_epoch(router: &Router<AppState>, s: &AppState, step: usize) {
        let snap = s.snapshot();
        let c = snap.dataset().checkins()[step * 31 % snap.dataset().checkins().len()];
        let v = snap.dataset().venue(c.venue()).unwrap();
        let json = format!(
            "{{\"user\":{},\"venue\":{},\"category\":\"Office\",\"lat\":{},\"lon\":{},\
             \"tz_offset_minutes\":-240,\"time\":\"Tue Apr 03 {:02}:00:00 +0000 2012\"}}",
            c.user().raw(),
            serde_json::to_string(v.name()).unwrap(),
            v.location().lat(),
            v.location().lon(),
            10 + step % 12,
        );
        drop(snap);
        let (code, body) = post(router, s, "/api/v1/checkins", &json);
        assert_eq!(code, 200, "{body}");
        let (code, body) = post(router, s, "/api/v1/ingest/epoch", "");
        assert_eq!(code, 200, "{body}");
        assert!(body.contains("\"ran\":true"), "{body}");
    }

    #[test]
    fn time_travel_serves_retained_epochs_byte_identically() {
        let s = state();
        let r = build_router();
        // Capture the live crowd body at each epoch as it is published.
        let mut expected = vec![get(&r, &s, "/api/v1/crowd?hour=9").1];
        for step in 0..3 {
            advance_epoch(&r, &s, step);
            expected.push(get(&r, &s, "/api/v1/crowd?hour=9").1);
        }
        // Every retained epoch answers exactly as it did when latest.
        for (epoch, want) in expected.iter().enumerate() {
            let (code, body) = get(&r, &s, &format!("/api/v1/crowd?hour=9&epoch={epoch}"));
            assert_eq!(code, 200, "epoch {epoch}: {body}");
            assert_eq!(&body, want, "epoch {epoch} must be byte-identical");
        }
        // ?epoch= applies across the temporal endpoints.
        for path in [
            "/api/v1/crowd/map?hour=9&epoch=1",
            "/api/v1/crowd/geojson?hour=9&epoch=1",
            "/api/v1/crowd/flows?from=9&to=10&epoch=1",
            "/api/v1/crowd/flows/map?from=9&to=10&epoch=1",
            "/api/v1/crowd/timeline?epoch=1",
            "/api/v1/crowd/compare?a=9&b=19&epoch=1",
            "/api/v1/tiles/11/602/770?hour=9&epoch=1",
        ] {
            let (code, body) = get(&r, &s, path);
            assert_eq!(code, 200, "{path}: {body}");
        }
        // The listing covers epochs 0..=3, oldest first, each row
        // carrying identity, provenance, and retention cost.
        let (code, body) = get(&r, &s, "/api/v1/epochs");
        assert_eq!(code, 200);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["latest"].as_u64(), Some(3));
        assert!(v["capacity"].as_u64().unwrap() >= 4);
        let rows = v["epochs"].as_array().unwrap();
        assert_eq!(rows.len(), 4);
        for (n, row) in rows.iter().enumerate() {
            assert_eq!(row["epoch"].as_u64(), Some(n as u64), "{body}");
            assert!(row["unix_ms"].as_u64().is_some());
            assert!(row["resident_bytes"].as_u64().is_some());
            let kind = row["kind"].as_str().unwrap();
            assert!(kind == "full" || kind == "delta", "{kind}");
        }
        // Epoch 0 (the cold build) is always a full checkpoint; the
        // following incremental epochs are deltas under the default
        // checkpoint cadence.
        assert_eq!(rows[0]["kind"], "full");
        assert_eq!(rows[1]["kind"], "delta");
        // The diff endpoint reports the exact per-user delta; a
        // self-diff is empty.
        let (code, body) = get(&r, &s, "/api/v1/crowd/diff?a=0&b=3");
        assert_eq!(code, 200);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["a"].as_u64(), Some(0));
        assert_eq!(v["b"].as_u64(), Some(3));
        assert_eq!(
            v["users_changed"].as_u64().unwrap() as usize,
            v["changes"].as_array().unwrap().len()
        );
        let (code, body) = get(&r, &s, "/api/v1/crowd/diff?a=2&b=2");
        assert_eq!(code, 200);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["users_changed"].as_u64(), Some(0));
        // Health and ingest stats report the deepened history.
        let (_, body) = get(&r, &s, "/api/v1/healthz");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["history_depth"].as_u64(), Some(4));
        let (_, body) = get(&r, &s, "/api/v1/ingest/stats");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["history_depth"].as_u64(), Some(4));
        assert!(v["history_capacity"].as_u64().unwrap() >= 4);
    }

    #[test]
    fn checkins_endpoint_accepts_single_object_and_rejects_garbage() {
        let s = state();
        let r = build_router();
        let one = "{\"user\":7,\"venue\":\"Test Cafe\",\"lat\":40.75,\"lon\":-73.99,\
                   \"time\":\"Tue Apr 03 13:00:00 +0000 2012\"}";
        let (code, body) = post(&r, &s, "/api/checkins", one);
        assert_eq!(code, 200, "{body}");
        assert!(body.contains("\"accepted\":1"));
        assert!(body.contains("\"queue_depth\":1"));
        let (code, _) = post(&r, &s, "/api/checkins", "not json");
        assert_eq!(code, 400);
        // Out-of-range latitude.
        let bad = "{\"user\":7,\"venue\":\"x\",\"lat\":91.0,\"lon\":0.0,\
                   \"time\":\"Tue Apr 03 13:00:00 +0000 2012\"}";
        let (code, _) = post(&r, &s, "/api/checkins", bad);
        assert_eq!(code, 400);
        // Unparseable time string.
        let bad = "{\"user\":7,\"venue\":\"x\",\"lat\":40.0,\"lon\":0.0,\"time\":\"2012-04-03\"}";
        let (code, _) = post(&r, &s, "/api/checkins", bad);
        assert_eq!(code, 400);
    }

    #[test]
    fn checkins_endpoint_backpressure_returns_503() {
        let dataset = SynthConfig::small(53).generate().unwrap();
        let mut config = crowdweb_ingest::IngestConfig::default();
        config.preprocessor = config.preprocessor.min_active_days(20);
        config.queue_capacity = 1;
        let s = AppState::with_config(dataset, config).unwrap();
        let r = build_router();
        let one = "{\"user\":7,\"venue\":\"Test Cafe\",\"lat\":40.75,\"lon\":-73.99,\
                   \"time\":\"Tue Apr 03 13:00:00 +0000 2012\"}";
        let (code, _) = post(&r, &s, "/api/checkins", one);
        assert_eq!(code, 200);
        let raw = format!(
            "POST /api/checkins HTTP/1.1\r\nContent-Length: {}\r\n\r\n{one}",
            one.len()
        );
        let req = Request::read_from(raw.as_bytes()).unwrap();
        let resp = r.route(&s, &req);
        assert_eq!(resp.status.code(), 503);
        assert!(String::from_utf8(resp.body_bytes().to_vec())
            .unwrap()
            .contains("queue full"));
        // The shed response advertises a principled backoff, and the
        // header survives serialization.
        assert_eq!(resp.retry_after, Some(super::RETRY_AFTER_SECS));
        let mut wire = Vec::new();
        resp.write_to(&mut wire).unwrap();
        let wire = String::from_utf8(wire).unwrap();
        let head = &wire[..wire.find("\r\n\r\n").unwrap()];
        assert!(head.contains("Retry-After: 1"), "{head}");
    }

    #[test]
    fn uploads_endpoint_lists_history_newest_first() {
        let s = state();
        let r = build_router();
        let (code, body) = get(&r, &s, "/api/v1/uploads");
        assert_eq!(code, 200);
        assert_eq!(body, "{\"total\":0,\"items\":[],\"next_after\":null}");
        for user in [501, 502] {
            let tsv = format!(
                "{user}\tv1\tx\tCoffee Shop\t40.75\t-73.99\t-240\tTue Apr 03 13:00:00 +0000 2012\n"
            );
            let (code, _) = post(&r, &s, "/api/v1/upload", &tsv);
            assert_eq!(code, 200);
        }
        let (code, body) = get(&r, &s, "/api/v1/uploads");
        assert_eq!(code, 200);
        let page: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(page["total"].as_u64(), Some(2));
        let rows = page["items"].as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0]["users"][0].as_u64(), Some(502));
        assert_eq!(rows[1]["users"][0].as_u64(), Some(501));
        // Pagination applies to the newest-first ordering.
        let (code, body) = get(&r, &s, "/api/v1/uploads?limit=1&offset=1");
        assert_eq!(code, 200);
        let page: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(page["total"].as_u64(), Some(2));
        assert_eq!(page["items"][0]["users"][0].as_u64(), Some(501));
        let (code, _) = get(&r, &s, "/api/v1/uploads?limit=5000");
        assert_eq!(code, 400);
    }

    #[test]
    fn hotspot_and_group_endpoints() {
        let s = state();
        let r = build_router();
        let (code, body) = get(&r, &s, "/api/hotspots");
        assert_eq!(code, 200);
        assert!(body.starts_with('['));
        let (code, body) = get(&r, &s, "/api/groups?threshold=0.5");
        assert_eq!(code, 200);
        let groups: Vec<serde_json::Value> = serde_json::from_str(&body).unwrap();
        let total: usize = groups
            .iter()
            .map(|g| g["members"].as_array().unwrap().len())
            .sum();
        assert_eq!(total, s.snapshot().patterns().len());
        let (code, _) = get(&r, &s, "/api/groups?threshold=2.0");
        assert_eq!(code, 400);
    }

    #[test]
    fn heatmap_timeline_and_flow_map_endpoints() {
        let s = state();
        let r = build_router();
        for path in [
            "/api/heatmap",
            "/api/crowd/timeline",
            "/api/crowd/flows/map?from=9&to=10",
        ] {
            let (code, body) = get(&r, &s, path);
            assert_eq!(code, 200, "{path}");
            assert!(body.starts_with("<svg"), "{path}");
        }
        let uid = s.snapshot().prepared().users()[0].raw();
        let (code, body) = get(&r, &s, &format!("/api/heatmap/{uid}"));
        assert_eq!(code, 200);
        assert!(body.starts_with("<svg"));
        let (code, _) = get(&r, &s, "/api/heatmap/999999");
        assert_eq!(code, 404);
    }

    #[test]
    fn compare_endpoint() {
        let s = state();
        let r = build_router();
        let (code, body) = get(&r, &s, "/api/crowd/compare?a=9&b=19");
        assert_eq!(code, 200);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["before_window"], "9-10 am");
        assert_eq!(v["after_window"], "7-8 pm");
        assert!(v["deltas"].is_array());
        let (code, _) = get(&r, &s, "/api/crowd/compare?a=99");
        assert_eq!(code, 400);
    }

    #[test]
    fn entropy_endpoint() {
        let s = state();
        let r = build_router();
        let uid = s.snapshot().prepared().users()[0].raw();
        let (code, body) = get(&r, &s, &format!("/api/entropy/{uid}"));
        assert_eq!(code, 200);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        let pi = v["max_predictability"].as_f64().unwrap();
        assert!((0.0..=1.0).contains(&pi));
        assert!(v["visits"].as_u64().unwrap() > 0);
        let (code, _) = get(&r, &s, "/api/entropy/999999");
        assert_eq!(code, 404);
    }

    #[test]
    fn tile_endpoint_serves_slippy_tiles() {
        let s = state();
        let r = build_router();
        // The z10 tile over Manhattan.
        let (code, body) = get(&r, &s, "/api/tiles/10/301/384?hour=9");
        assert_eq!(code, 200);
        assert!(body.starts_with("<svg"));
        // A tile over the Pacific has no cells: valid empty tile.
        let (code, body) = get(&r, &s, "/api/tiles/10/100/384?hour=9");
        assert_eq!(code, 200);
        assert_eq!(body.matches("<rect").count(), 0);
        // Out-of-range coordinates are rejected.
        let (code, _) = get(&r, &s, "/api/tiles/2/9/0");
        assert_eq!(code, 400);
        let (code, _) = get(&r, &s, "/api/tiles/abc/0/0");
        assert_eq!(code, 400);
    }

    #[test]
    fn trajectory_endpoint() {
        let s = state();
        let r = build_router();
        let uid = s.snapshot().prepared().users()[0].raw();
        let (code, body) = get(&r, &s, &format!("/api/trajectory/{uid}"));
        assert_eq!(code, 200);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert!(v["points"].as_u64().unwrap() >= 1);
        assert!(v["path_m"].as_f64().unwrap() >= 0.0);
        assert!(v["polyline"].as_str().is_some());
        assert_eq!(v["geojson"]["geometry"]["type"], "LineString");
        // Explicit date selection.
        let date = v["date"].as_str().unwrap().to_owned();
        let (code, body2) = get(&r, &s, &format!("/api/trajectory/{uid}?date={date}"));
        assert_eq!(code, 200);
        let v2: serde_json::Value = serde_json::from_str(&body2).unwrap();
        assert_eq!(v2["date"], date);
        // Errors.
        let (code, _) = get(&r, &s, &format!("/api/trajectory/{uid}?date=garbage"));
        assert_eq!(code, 400);
        let (code, _) = get(&r, &s, &format!("/api/trajectory/{uid}?date=2031-01-01"));
        assert_eq!(code, 404);
        let (code, _) = get(&r, &s, "/api/trajectory/999999");
        assert_eq!(code, 404);
    }

    /// Every error the API emits — bad params, unknown resources,
    /// router 404/405 — must carry the uniform envelope:
    /// `{"error": {"code": "<kebab-slug>", "message": ..., "status": N}}`.
    #[test]
    fn every_error_response_carries_the_uniform_envelope() {
        let s = state();
        let r = build_router();
        let cases: &[(&str, u16, &str)] = &[
            ("/api/v1/patterns/not-a-number", 400, "bad-user-id"),
            ("/api/v1/patterns/999999", 404, "unknown-user"),
            ("/api/v1/network/999999", 404, "unknown-user"),
            ("/api/v1/crowd?hour=99", 400, "bad-hour"),
            ("/api/v1/crowd?epoch=zzz", 400, "bad-epoch"),
            ("/api/v1/crowd?epoch=999", 404, "unknown-epoch"),
            ("/api/v1/crowd/map?hour=12&label=zzz", 400, "bad-label"),
            ("/api/v1/crowd/flows?from=77", 400, "bad-hour"),
            ("/api/v1/crowd/flows?epoch=999", 404, "unknown-epoch"),
            ("/api/v1/crowd/diff?a=0", 400, "bad-epoch"),
            ("/api/v1/crowd/diff?a=zzz&b=0", 400, "bad-epoch"),
            ("/api/v1/crowd/diff?a=0&b=999", 404, "unknown-epoch"),
            ("/api/v1/figures/fig99", 404, "unknown-figure"),
            ("/api/v1/upload/last", 404, "no-upload"),
            ("/api/v1/users?limit=0", 400, "bad-limit"),
            ("/api/v1/users?offset=-1", 400, "bad-offset"),
            ("/api/v1/groups?threshold=2.0", 400, "bad-threshold"),
            ("/api/v1/crowd/compare?a=99", 400, "bad-hour"),
            ("/api/v1/heatmap/999999", 404, "unknown-user"),
            ("/api/v1/entropy/999999", 404, "unknown-user"),
            ("/api/v1/trajectory/999999", 404, "unknown-user"),
            ("/api/v1/tiles/abc/0/0", 400, "bad-tile"),
            ("/api/v1/tiles/2/9/0", 400, "bad-tile"),
            // Router-level errors use the status' default slug.
            ("/definitely/not/a/route", 404, "not-found"),
        ];
        for &(path, status, code_slug) in cases {
            let (code, body) = get(&r, &s, path);
            assert_eq!(code, status, "{path}: {body}");
            let v: serde_json::Value = serde_json::from_str(&body)
                .unwrap_or_else(|e| panic!("{path}: non-JSON error body {body:?}: {e}"));
            assert_eq!(v["error"]["code"].as_str(), Some(code_slug), "{path}");
            assert!(
                !v["error"]["message"].as_str().unwrap().is_empty(),
                "{path}"
            );
            assert_eq!(v["error"]["status"].as_u64(), Some(u64::from(status)));
            let slug = v["error"]["code"].as_str().unwrap();
            assert!(
                slug.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-'),
                "{path}: code {slug:?} is not kebab-case"
            );
        }
        // Method mismatch (405) and bad POST bodies are enveloped too.
        let (code, body) = post(&r, &s, "/api/v1/users", "");
        assert_eq!(code, 405);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["error"]["code"], "method-not-allowed");
        let (code, body) = post(&r, &s, "/api/v1/checkins", "not json");
        assert_eq!(code, 400, "{body}");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["error"]["code"], "bad-checkin");
        let (code, body) = post(&r, &s, "/api/v1/upload", "not\ttsv");
        assert_eq!(code, 400);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["error"]["code"], "bad-upload");
    }

    /// Routes one request and returns its status, its body, and the
    /// metrics label of the route that answered (`None` when no route
    /// matched).
    fn dispatch_labeled(
        router: &Router<AppState>,
        state: &AppState,
        method: &str,
        path: &str,
    ) -> (u16, String, Option<String>) {
        // The uploads and check-ins handlers reject this POST body, and
        // an epoch over the empty queue is a no-op: no POST changes state.
        let body = if method == "POST" { "not\ttsv" } else { "" };
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let req = Request::read_from(raw.as_bytes()).unwrap();
        let (resp, label) = router.dispatch(state, &req);
        let label = label.map(str::to_owned);
        let code = resp.status.code();
        (
            code,
            String::from_utf8(resp.into_body_bytes()).unwrap(),
            label,
        )
    }

    /// The GET inputs the spelling tests request: every `Get` and
    /// `View` row of [`ENDPOINTS`], its captures filled from one
    /// fixture map, then query-string and error-path cases. Each input
    /// is `(row suffix, request suffix)`.
    fn spelled_get_inputs(s: &AppState) -> Vec<(&'static str, String)> {
        let uid = s.snapshot().prepared().users()[0].raw().to_string();
        let fixture: HashMap<&str, &str> = HashMap::from([
            ("user", uid.as_str()),
            ("id", "fig5"),
            // The z10 tile over Manhattan.
            ("z", "10"),
            ("x", "301"),
            ("y", "384"),
        ]);
        let mut inputs: Vec<(&'static str, String)> = ENDPOINTS
            .iter()
            .filter(|(_, endpoint)| !matches!(endpoint, Endpoint::Post(_)))
            .map(|&(suffix, _)| {
                let filled: Vec<&str> = suffix
                    .split('/')
                    .map(|segment| match segment.strip_prefix(':') {
                        Some(name) => fixture[name],
                        None => segment,
                    })
                    .collect();
                (suffix, filled.join("/"))
            })
            .collect();
        for (suffix, request) in [
            ("/users", "/users?limit=3&offset=1"),
            ("/crowd", "/crowd?hour=9"),
            ("/crowd", "/crowd?hour=9&epoch=0"),
            ("/crowd/geojson", "/crowd/geojson?hour=9"),
            ("/crowd/flows", "/crowd/flows?from=9&to=10"),
            ("/crowd/diff", "/crowd/diff?a=0&b=0"),
            ("/groups", "/groups?threshold=0.5"),
            // Error paths answer identically as well.
            ("/patterns/:user", "/patterns/999999"),
            ("/crowd", "/crowd?hour=99"),
        ] {
            inputs.push((suffix, request.to_owned()));
        }
        inputs
    }

    /// The legacy `/api/...` aliases answer with byte-identical bodies
    /// to their canonical `/api/v1/...` routes — same handler, zero
    /// drift — for every GET row of the endpoint table, and both
    /// report the canonical label. POST rows are wired at both
    /// spellings too (with a body that changes no state).
    #[test]
    fn legacy_aliases_return_identical_bodies() {
        let s = state();
        let r = build_router();
        for (suffix, request) in spelled_get_inputs(&s) {
            let label = Some(format!("/api/v1{suffix}"));
            let v1 = dispatch_labeled(&r, &s, "GET", &format!("/api/v1{request}"));
            let legacy = dispatch_labeled(&r, &s, "GET", &format!("/api{request}"));
            assert_eq!(v1.2, label, "{request}: not served by its row");
            assert_eq!(v1, legacy, "{request}");
        }
        for &(suffix, endpoint) in ENDPOINTS {
            if let Endpoint::Post(_) = endpoint {
                let label = Some(format!("/api/v1{suffix}"));
                let (v1_code, _, v1_label) =
                    dispatch_labeled(&r, &s, "POST", &format!("/api/v1{suffix}"));
                let (legacy_code, _, legacy_label) =
                    dispatch_labeled(&r, &s, "POST", &format!("/api{suffix}"));
                assert_eq!((v1_code, &v1_label), (legacy_code, &label), "{suffix}");
                assert_eq!(legacy_label, label, "{suffix}");
            }
        }
    }

    #[test]
    fn home_serves_frontend() {
        let s = state();
        let r = build_router();
        let (code, body) = get(&r, &s, "/");
        assert_eq!(code, 200);
        assert!(body.contains("<!DOCTYPE html>"));
        assert!(body.contains("CrowdWeb"));
    }

    /// The explicit default-city spelling answers byte-identically to
    /// the bare `/api/v1/...` route — one handler serves both — for
    /// every GET row of the endpoint table, and reports its own
    /// `{city}` pattern as its label. POST rows are wired at the tenant
    /// spelling too.
    #[test]
    fn default_city_routes_match_the_bare_v1_routes() {
        let s = state();
        let r = build_router();
        let city = s.default_city_id().to_owned();
        for (suffix, request) in spelled_get_inputs(&s) {
            let (v1_code, v1_body, _) =
                dispatch_labeled(&r, &s, "GET", &format!("/api/v1{request}"));
            let (city_code, city_body, city_label) =
                dispatch_labeled(&r, &s, "GET", &format!("/api/v1/cities/{city}{request}"));
            assert_eq!(
                city_label,
                Some(format!("/api/v1/cities/{{city}}{suffix}")),
                "{request}: not served by its row"
            );
            assert_eq!(v1_code, city_code, "{request}");
            assert_eq!(v1_body, city_body, "{request}");
        }
        for &(suffix, endpoint) in ENDPOINTS {
            if let Endpoint::Post(_) = endpoint {
                let (v1_code, _, _) = dispatch_labeled(&r, &s, "POST", &format!("/api/v1{suffix}"));
                let (city_code, _, city_label) =
                    dispatch_labeled(&r, &s, "POST", &format!("/api/v1/cities/{city}{suffix}"));
                assert_eq!(v1_code, city_code, "{suffix}");
                assert_eq!(
                    city_label,
                    Some(format!("/api/v1/cities/{{city}}{suffix}")),
                    "{suffix}"
                );
            }
        }
    }

    /// Every `/api/v1...` pattern the router registers is documented
    /// verbatim (parameter spellings like `:user` included) in the
    /// README: each endpoint row in its tenant and default-city
    /// spellings, plus the platform-global city listing and metrics.
    #[test]
    fn readme_documents_every_v1_route() {
        let readme = include_str!("../../../README.md");
        let mut patterns: Vec<String> = ENDPOINTS
            .iter()
            .flat_map(|&(suffix, _)| spellings(suffix))
            .filter(|pattern| pattern.starts_with("/api/v1"))
            .collect();
        patterns.extend(["/api/v1/cities".to_owned(), "/api/v1/metrics".to_owned()]);
        patterns.sort();
        patterns.dedup();
        assert_eq!(patterns.len(), 62);
        let missing: Vec<&String> = patterns.iter().filter(|p| !readme.contains(*p)).collect();
        assert!(
            missing.is_empty(),
            "README.md does not document registered routes: {missing:?}"
        );
    }

    /// Tenant routes are isolated: each city answers from its own
    /// platform, and unregistered ids get a stable 404 envelope.
    #[test]
    fn tenant_routes_serve_isolated_cities() {
        let mut s = state();
        s.add_city(
            "tokyo",
            SynthConfig::small(99).generate().unwrap(),
            crowdweb_ingest::IngestConfig::default(),
        )
        .unwrap();
        let r = build_router();
        let (code, nyc) = get(
            &r,
            &s,
            &format!("/api/v1/cities/{}/stats", s.default_city_id()),
        );
        assert_eq!(code, 200);
        let (code, tokyo) = get(&r, &s, "/api/v1/cities/tokyo/stats");
        assert_eq!(code, 200);
        assert_ne!(nyc, tokyo, "cities must not share state");
        let (code, body) = get(&r, &s, "/api/v1/cities/atlantis/stats");
        assert_eq!(code, 404);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["error"]["code"], "unknown-city");
    }

    /// `GET /api/v1/cities` lists the registry in ascending id order,
    /// flags the default city, and aliases at `/api/cities`.
    #[test]
    fn cities_listing_reports_the_registry() {
        let mut s = state();
        s.add_city(
            "tokyo",
            SynthConfig::small(99).generate().unwrap(),
            crowdweb_ingest::IngestConfig::default(),
        )
        .unwrap();
        let r = build_router();
        let (code, body) = get(&r, &s, "/api/v1/cities");
        assert_eq!(code, 200);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["total"], 2);
        let items = v["items"].as_array().unwrap();
        assert_eq!(items[0]["id"], "nyc");
        assert_eq!(items[0]["default"].as_bool(), Some(true));
        assert_eq!(items[1]["id"], "tokyo");
        assert_eq!(items[1]["default"].as_bool(), Some(false));
        assert!(items[1]["users"].as_u64().unwrap() > 0);
        assert!(items[1]["checkins"].as_u64().unwrap() > 0);
        let (_, alias) = get(&r, &s, "/api/cities");
        assert_eq!(body, alias, "legacy alias must answer identically");
    }

    /// Served city requests increment the per-city counter; unknown
    /// ids never become labels, so cardinality is bounded by the
    /// registry.
    #[test]
    fn city_requests_increment_the_bounded_per_city_counter() {
        let s = state();
        let r = build_router();
        let city = s.default_city_id().to_owned();
        get(&r, &s, &format!("/api/v1/cities/{city}/stats"));
        // The bare spelling counts against the default city too.
        get(&r, &s, "/api/v1/stats");
        // A 404 must not mint a label.
        get(&r, &s, "/api/v1/cities/atlantis/stats");
        assert_eq!(
            s.metrics()
                .counter_value("crowdweb_http_requests_by_city_total", &[("city", &city)]),
            Some(2)
        );
        assert_eq!(
            s.metrics().counter_value(
                "crowdweb_http_requests_by_city_total",
                &[("city", "atlantis")]
            ),
            None
        );
    }

    /// Routes a GET carrying extra raw header lines (each
    /// `Name: value\r\n`-terminated) — the conditional-request helper.
    fn get_with(
        router: &Router<AppState>,
        state: &AppState,
        path: &str,
        headers: &str,
    ) -> Response {
        let req =
            Request::read_from(format!("GET {path} HTTP/1.1\r\n{headers}\r\n").as_bytes()).unwrap();
        router.route(state, &req)
    }

    /// The bulk export must emit exactly one NDJSON line per dataset
    /// check-in, in record order, as a streamed body.
    #[test]
    fn export_checkins_streams_one_ndjson_line_per_record() {
        let s = state();
        let r = build_router();
        let snap = s.snapshot();
        let total = snap.dataset().checkins().len();
        let req =
            Request::read_from("GET /api/v1/export/checkins HTTP/1.1\r\n\r\n".as_bytes()).unwrap();
        let resp = r.route(&s, &req);
        assert_eq!(resp.status.code(), 200);
        assert_eq!(resp.content_type, "application/x-ndjson");
        assert!(
            matches!(resp.body, crate::http::ResponseBody::Stream(_)),
            "the export must stream, not materialize"
        );
        let body = String::from_utf8(resp.into_body_bytes()).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), total, "one line per check-in");
        // Rows are the snapshot's records joined with their venues, in
        // dataset order.
        for (i, probe) in [0, total / 2, total - 1].into_iter().enumerate() {
            let row: serde_json::Value = serde_json::from_str(lines[probe]).unwrap();
            let c = snap.dataset().checkins()[probe];
            let v = snap.dataset().venue(c.venue()).unwrap();
            assert_eq!(row["user"].as_u64(), Some(u64::from(c.user().raw())), "{i}");
            assert_eq!(row["venue"].as_str(), Some(v.name()), "{i}");
            assert_eq!(row["time_unix"].as_i64(), Some(c.time().unix_seconds()));
        }
    }

    /// Export conditional requests and epoch pinning: matching
    /// `If-None-Match` short-circuits to an empty 304; `?epoch` only
    /// accepts the live epoch (records are not retained historically).
    #[test]
    fn export_checkins_revalidates_and_pins_the_live_epoch() {
        let s = state();
        let r = build_router();
        let req =
            Request::read_from("GET /api/v1/export/checkins HTTP/1.1\r\n\r\n".as_bytes()).unwrap();
        let resp = r.route(&s, &req);
        let etag = resp.etag.clone().expect("export carries an ETag");
        assert_eq!(etag, format!("\"{}-e0\"", s.default_city_id()));
        // Strong, weak-prefixed, list-member, and wildcard candidates
        // all revalidate (weak comparison per RFC 9110 §13.1.2).
        for candidate in [
            etag.clone(),
            format!("W/{etag}"),
            format!("\"stale\", {etag}"),
            "*".to_owned(),
        ] {
            let resp = get_with(
                &r,
                &s,
                "/api/v1/export/checkins",
                &format!("If-None-Match: {candidate}\r\n"),
            );
            assert_eq!(resp.status.code(), 304, "candidate {candidate}");
            assert_eq!(resp.etag.as_deref(), Some(etag.as_str()));
            assert!(resp.into_body_bytes().is_empty(), "a 304 has no body");
        }
        // A non-matching candidate serves the stream again.
        let resp = get_with(
            &r,
            &s,
            "/api/v1/export/checkins",
            "If-None-Match: \"other-e9\"\r\n",
        );
        assert_eq!(resp.status.code(), 200);
        // The live epoch is the only exportable one.
        let (code, _) = get(&r, &s, "/api/v1/export/checkins?epoch=0");
        assert_eq!(code, 200);
        let (code, body) = get(&r, &s, "/api/v1/export/checkins?epoch=7");
        assert_eq!(code, 404, "{body}");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["error"]["code"], "unknown-epoch");
        let (code, body) = get(&r, &s, "/api/v1/export/checkins?epoch=x");
        assert_eq!(code, 400, "{body}");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["error"]["code"], "bad-epoch");
    }

    /// The temporal crowd endpoints all tag with the serving epoch and
    /// answer 304 to a matching `If-None-Match`; publishing a new epoch
    /// rotates the tag so stale validators miss.
    #[test]
    fn crowd_endpoints_revalidate_until_the_epoch_advances() {
        let s = state();
        let r = build_router();
        let tagged = [
            "/api/v1/crowd?hour=9",
            "/api/v1/crowd/map?hour=9",
            "/api/v1/crowd/geojson?hour=9",
            "/api/v1/crowd/flows?from=9&to=10",
            "/api/v1/tiles/11/602/770?hour=9",
        ];
        let expect = format!("\"{}-e0\"", s.default_city_id());
        for path in tagged {
            let req =
                Request::read_from(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes()).unwrap();
            let resp = r.route(&s, &req);
            assert_eq!(resp.status.code(), 200, "{path}");
            assert_eq!(resp.etag.as_deref(), Some(expect.as_str()), "{path}");
            let resp = get_with(&r, &s, path, &format!("If-None-Match: {expect}\r\n"));
            assert_eq!(resp.status.code(), 304, "{path}");
        }
        // A new epoch invalidates epoch-0 validators...
        advance_epoch(&r, &s, 0);
        let resp = get_with(
            &r,
            &s,
            "/api/v1/crowd?hour=9",
            &format!("If-None-Match: {expect}\r\n"),
        );
        assert_eq!(resp.status.code(), 200, "a stale validator must miss");
        assert_eq!(
            resp.etag.as_deref(),
            Some(format!("\"{}-e1\"", s.default_city_id()).as_str())
        );
        // ...but a pinned time-travel read still revalidates against
        // the old epoch's tag: the view is immutable once published.
        let resp = get_with(
            &r,
            &s,
            "/api/v1/crowd?hour=9&epoch=0",
            &format!("If-None-Match: {expect}\r\n"),
        );
        assert_eq!(resp.status.code(), 304);
    }

    /// A cursor walk over `/users` visits exactly the full listing:
    /// pages resume strictly past `after`, each non-final page names
    /// the next cursor, and the final page's cursor is null.
    #[test]
    fn users_cursor_walk_covers_the_listing_exactly() {
        let s = state();
        let r = build_router();
        let (_, body) = get(&r, &s, "/api/v1/users");
        let full: serde_json::Value = serde_json::from_str(&body).unwrap();
        let all = full["items"].as_array().unwrap().clone();
        assert!(all.len() >= 3, "need a few users to walk over");
        assert!(
            full["next_after"].is_null(),
            "offset mode never emits a cursor: {body}"
        );
        // First page plain, then follow next_after to the end.
        let (_, body) = get(&r, &s, "/api/v1/users?limit=2");
        let first: serde_json::Value = serde_json::from_str(&body).unwrap();
        let mut walked = first["items"].as_array().unwrap().clone();
        let mut cursor = walked.last().unwrap()["user"].as_u64().unwrap();
        loop {
            let (code, body) = get(&r, &s, &format!("/api/v1/users?limit=2&after={cursor}"));
            assert_eq!(code, 200, "{body}");
            let page: serde_json::Value = serde_json::from_str(&body).unwrap();
            assert_eq!(page["total"], full["total"]);
            let items = page["items"].as_array().unwrap();
            for item in items {
                assert!(
                    item["user"].as_u64().unwrap() > cursor,
                    "pages resume strictly past the cursor"
                );
            }
            walked.extend(items.iter().cloned());
            match page["next_after"].as_u64() {
                Some(next) => {
                    assert_eq!(
                        next,
                        items.last().unwrap()["user"].as_u64().unwrap(),
                        "the cursor is the page's last id"
                    );
                    cursor = next;
                }
                None => break,
            }
        }
        assert_eq!(walked, all, "the walk must visit the listing exactly");
    }

    /// Upload cursors walk the ring newest-to-oldest by sequence id,
    /// and malformed cursors get the `bad-cursor` envelope everywhere.
    #[test]
    fn uploads_cursor_pages_and_bad_cursors_are_rejected() {
        let s = state();
        let r = build_router();
        for user in 70..74 {
            let tsv = format!(
                "{user}\tv1\tx\tCoffee Shop\t40.75\t-73.99\t-240\tTue Apr 03 13:00:00 +0000 2012\n"
            );
            let raw = format!(
                "POST /api/upload HTTP/1.1\r\nContent-Length: {}\r\n\r\n{tsv}",
                tsv.len()
            );
            let req = Request::read_from(raw.as_bytes()).unwrap();
            assert_eq!(r.route(&s, &req).status.code(), 200);
        }
        let (_, body) = get(&r, &s, "/api/v1/uploads?limit=2");
        let page: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(page["total"].as_u64(), Some(4));
        let ids: Vec<u64> = page["items"]
            .as_array()
            .unwrap()
            .iter()
            .map(|i| i["id"].as_u64().unwrap())
            .collect();
        assert_eq!(ids, vec![3, 2], "newest first, by ingest sequence");
        let (code, body) = get(&r, &s, "/api/v1/uploads?limit=2&after=2");
        assert_eq!(code, 200);
        let page: serde_json::Value = serde_json::from_str(&body).unwrap();
        let ids: Vec<u64> = page["items"]
            .as_array()
            .unwrap()
            .iter()
            .map(|i| i["id"].as_u64().unwrap())
            .collect();
        assert_eq!(ids, vec![1, 0], "the cursor resumes at the next-older row");
        assert!(page["next_after"].is_null(), "{body}");
        assert!(
            page["items"][0]["users"].as_array().is_some(),
            "upload rows keep their result shape: {body}"
        );
        for bad in [
            "/api/v1/uploads?after=abc",
            "/api/v1/uploads?after=-1",
            "/api/v1/uploads?after=1&offset=1",
            "/api/v1/users?after=abc",
            "/api/v1/users?after=1&offset=1",
        ] {
            let (code, body) = get(&r, &s, bad);
            assert_eq!(code, 400, "{bad}: {body}");
            let v: serde_json::Value = serde_json::from_str(&body).unwrap();
            assert_eq!(v["error"]["code"], "bad-cursor", "{bad}: {body}");
        }
    }

    /// One request per tagged view, with the view it memoizes under.
    pub(crate) fn memo_cases() -> Vec<(&'static str, View)> {
        let tile = crowdweb_geo::TileCoord::new(11, 602, 770).unwrap();
        vec![
            ("crowd?hour=9", View::Crowd { hour: 9 }),
            (
                "crowd/map?hour=9",
                View::Map {
                    hour: 9,
                    label: None,
                },
            ),
            (
                "crowd/map?hour=12&label=2",
                View::Map {
                    hour: 12,
                    label: Some(2),
                },
            ),
            ("crowd/geojson?hour=9", View::Geojson { hour: 9 }),
            ("crowd/flows?from=9&to=10", View::Flows { from: 9, to: 10 }),
            ("tiles/11/602/770?hour=9", View::Tile { tile, hour: 9 }),
        ]
    }

    fn memo_count(s: &AppState, name: &str, view: View) -> u64 {
        s.metrics()
            .counter_value(name, &[("view", crate::memo::VIEW_NAMES[view.index()])])
            .unwrap()
    }

    pub(crate) fn state_with(
        parallelism: crowdweb_exec::Parallelism,
        history_depth: usize,
    ) -> AppState {
        let mut config = crowdweb_ingest::IngestConfig {
            parallelism,
            history_depth,
            ..crowdweb_ingest::IngestConfig::default()
        };
        config.preprocessor = config.preprocessor.min_active_days(20);
        AppState::with_config(SynthConfig::small(53).generate().unwrap(), config).unwrap()
    }

    /// A memo hit returns exactly what the view's render function makes
    /// of the model, live and at a retained `?epoch=N`, under both
    /// parallelism policies — and both policies serve identical bytes.
    #[test]
    fn memo_hits_match_direct_renders_across_parallelism() {
        use crowdweb_exec::Parallelism;
        let mut served: Vec<Vec<(String, String)>> = Vec::new();
        for parallelism in [Parallelism::Sequential, Parallelism::Threads(4)] {
            let s = state_with(parallelism, 16);
            let r = build_router();
            for step in 0..3 {
                advance_epoch(&r, &s, step);
            }
            let live = s.snapshot().epoch();
            assert_eq!(live, 3);
            let mut bodies = Vec::new();
            for (epoch, model) in [
                (None, s.snapshot().crowd_arc()),
                (Some(1), s.engine().crowd_at(1).unwrap()),
            ] {
                for (suffix, view) in memo_cases() {
                    let path = match epoch {
                        None => format!("/api/v1/{suffix}"),
                        Some(n) => format!("/api/v1/{suffix}&epoch={n}"),
                    };
                    let hits = memo_count(&s, "crowdweb_render_memo_hits_total", view);
                    let (code, cold) = get(&r, &s, &path);
                    assert_eq!(code, 200, "{path}: {cold}");
                    let (code, warm) = get(&r, &s, &path);
                    assert_eq!(code, 200, "{path}: {warm}");
                    assert_eq!(
                        memo_count(&s, "crowdweb_render_memo_hits_total", view),
                        hits + 1,
                        "{path}: the second read must be a memo hit"
                    );
                    let direct = render_view(&model, view).unwrap();
                    assert_eq!(warm.as_bytes(), direct, "{path}: hit != direct render");
                    assert_eq!(cold, warm, "{path}");
                    bodies.push((path, warm));
                }
            }
            assert!(s.default_city().memo().resident_bytes() > 0);
            served.push(bodies);
        }
        assert_eq!(served[0], served[1], "Sequential and Threads(4) differ");
    }

    /// Re-submits every check-in of the first user with mined patterns
    /// under a fresh user id and runs an epoch: the twin mines the same
    /// patterns, so the crowd gains a placement wherever the original
    /// has one.
    fn add_twin_of_a_patterned_user(router: &Router<AppState>, s: &AppState) {
        let snap = s.snapshot();
        let original = snap
            .patterns()
            .iter()
            .find(|p| p.pattern_count() > 0)
            .expect("the synthetic city has routine users")
            .user;
        let dataset = snap.dataset();
        let rows: Vec<String> = dataset
            .checkins_of(original)
            .iter()
            .map(|c| {
                let v = dataset.venue(c.venue()).unwrap();
                format!(
                    "{{\"user\":{},\"venue\":{},\"category\":{},\"lat\":{},\"lon\":{},\
                     \"tz_offset_minutes\":{},\"time\":\"{}\"}}",
                    900_000 + original.raw(),
                    serde_json::to_string(v.name()).unwrap(),
                    serde_json::to_string(dataset.taxonomy().name_of(v.category()).unwrap())
                        .unwrap(),
                    v.location().lat(),
                    v.location().lon(),
                    c.tz_offset_minutes(),
                    crowdweb_dataset::tsv::format_time(c.time()),
                )
            })
            .collect();
        drop(snap);
        let (code, body) = post(
            router,
            s,
            "/api/v1/checkins",
            &format!("[{}]", rows.join(",")),
        );
        assert_eq!(code, 200, "{body}");
        let (code, body) = post(router, s, "/api/v1/ingest/epoch", "");
        assert_eq!(code, 200, "{body}");
    }

    /// Publishing an epoch moves the live read to new bytes under a new
    /// `ETag`, while `?epoch=<old>` keeps answering the old bytes.
    #[test]
    fn memo_follows_the_live_epoch_and_keeps_retained_bodies() {
        let s = state();
        let r = build_router();
        let city = s.default_city_id().to_owned();
        let read = |path: &str| {
            let resp = get_with(&r, &s, path, "");
            let etag = resp.etag.clone().unwrap();
            (etag, String::from_utf8(resp.into_body_bytes()).unwrap())
        };
        // Memoize every hour's crowd at epoch 0.
        let before: Vec<(String, String)> = (0..24)
            .map(|hour| read(&format!("/api/v1/crowd?hour={hour}")))
            .collect();
        let old_model = s.snapshot().crowd_arc();
        add_twin_of_a_patterned_user(&r, &s);
        let new_model = s.snapshot().crowd_arc();
        let hour = (0..24u8)
            .find(|&hour| {
                let view = View::Crowd { hour };
                render_view(&old_model, view).unwrap() != render_view(&new_model, view).unwrap()
            })
            .expect("the twin moves some hour's crowd");
        let view = View::Crowd { hour };
        let (etag0, body0) = &before[usize::from(hour)];
        assert_eq!(etag0, &format!("\"{city}-e0\""));
        let (etag1, body1) = read(&format!("/api/v1/crowd?hour={hour}"));
        assert_eq!(etag1, format!("\"{city}-e1\""));
        assert_ne!(&body1, body0, "the live read must render the new epoch");
        assert_eq!(body1.as_bytes(), render_view(&new_model, view).unwrap());
        let (etag_old, body_old) = read(&format!("/api/v1/crowd?hour={hour}&epoch=0"));
        assert_eq!(&etag_old, etag0);
        assert_eq!(&body_old, body0, "a retained epoch keeps its old bytes");
        assert_eq!(
            memo_count(&s, "crowdweb_render_memo_hits_total", view),
            1,
            "only the epoch-0 read hits"
        );
    }

    /// Retention stays with the history ring: once an epoch is evicted
    /// it answers 404 even though its bodies were memoized.
    #[test]
    fn evicted_epochs_answer_404_despite_memoized_bodies() {
        let s = state_with(crowdweb_exec::Parallelism::Sequential, 2);
        let r = build_router();
        let (code, _) = get(&r, &s, "/api/v1/crowd?hour=9&epoch=0");
        assert_eq!(code, 200);
        let (code, _) = get(&r, &s, "/api/v1/crowd?hour=9&epoch=0");
        assert_eq!(code, 200);
        for step in 0..3 {
            advance_epoch(&r, &s, step);
        }
        assert_eq!(s.engine().history().retained(), (2, 3));
        for suffix in [
            "crowd?hour=9",
            "crowd/map?hour=9",
            "tiles/11/602/770?hour=9",
        ] {
            let (code, body) = get(&r, &s, &format!("/api/v1/{suffix}&epoch=0"));
            assert_eq!(code, 404, "{suffix}: {body}");
            assert!(body.contains("unknown-epoch"), "{body}");
        }
        // The first read at a newer epoch dropped the evicted bodies.
        let (code, _) = get(&r, &s, "/api/v1/crowd?hour=9");
        assert_eq!(code, 200);
        let memo = s.default_city().memo();
        assert!(memo.get(0, View::Crowd { hour: 9 }).is_none());
    }

    /// 400 and 404 envelopes — and 304s — leave the memo untouched.
    #[test]
    fn error_and_not_modified_responses_are_never_memoized() {
        let s = state();
        let r = build_router();
        for (path, status) in [
            ("/api/v1/crowd?hour=99", 400),
            ("/api/v1/crowd?epoch=zzz", 400),
            ("/api/v1/crowd?epoch=999", 404),
            ("/api/v1/crowd/map?hour=12&label=zzz", 400),
            ("/api/v1/crowd/geojson?hour=24", 400),
            ("/api/v1/crowd/flows?from=77", 400),
            ("/api/v1/crowd/flows?epoch=999", 404),
            ("/api/v1/tiles/2/9/0", 400),
            ("/api/v1/tiles/11/602/770?hour=x", 400),
        ] {
            let (code, body) = get(&r, &s, path);
            assert_eq!(code, status, "{path}: {body}");
        }
        let memo = s.default_city().memo();
        assert_eq!(memo.resident_bytes(), 0, "no error body may be stored");
        // A 304 is answered before the memo is consulted.
        let etag = format!("\"{}-e0\"", s.default_city_id());
        for (suffix, view) in memo_cases() {
            let path = format!("/api/v1/{suffix}");
            let resp = get_with(&r, &s, &path, &format!("If-None-Match: {etag}\r\n"));
            assert_eq!(resp.status.code(), 304, "{path}");
            assert_eq!(resp.etag.as_deref(), Some(etag.as_str()));
            assert!(resp.into_body_bytes().is_empty());
            assert_eq!(memo_count(&s, "crowdweb_render_memo_misses_total", view), 0);
        }
        assert_eq!(memo.resident_bytes(), 0);
        // Memoized or not, revalidation answers the same 304.
        get(&r, &s, "/api/v1/crowd?hour=9");
        let resp = get_with(
            &r,
            &s,
            "/api/v1/crowd?hour=9",
            &format!("If-None-Match: {etag}\r\n"),
        );
        assert_eq!(resp.status.code(), 304);
    }

    /// Equivalent spellings of one view share a memo entry: the key is
    /// the parsed parameters, not the raw query.
    #[test]
    fn memo_keys_on_parsed_parameters() {
        let s = state();
        let r = build_router();
        let view = View::Crowd { hour: 9 };
        let (_, first) = get(&r, &s, "/api/v1/crowd?hour=9");
        for path in [
            "/api/v1/crowd",
            "/api/v1/crowd?hour=09",
            "/api/v1/crowd?hour=9&utm=x",
            "/api/crowd?hour=9",
        ] {
            let (code, body) = get(&r, &s, path);
            assert_eq!(code, 200);
            assert_eq!(body, first, "{path}");
        }
        assert_eq!(memo_count(&s, "crowdweb_render_memo_misses_total", view), 1);
        assert_eq!(memo_count(&s, "crowdweb_render_memo_hits_total", view), 4);
    }

    /// A flood of distinct tile keys fills the memo up to its cap and no
    /// further, and every tile is still served, freshly rendered.
    #[test]
    fn tile_flood_never_passes_the_memo_cap() {
        use crate::memo::MEMO_CAP_BYTES;
        let s = state();
        let r = build_router();
        let gauge = || {
            s.metrics()
                .gauge_value("crowdweb_render_memo_resident_bytes", &[])
                .unwrap()
        };
        // Fill the memo to within a few tiles of its cap.
        let filler = vec![b' '; MEMO_CAP_BYTES - 4096];
        s.default_city()
            .memo()
            .insert(0, View::Crowd { hour: 23 }, &filler, 0);
        let model = s.snapshot().crowd_arc();
        let mut stored = 0;
        for x in 600..640 {
            for hour in [8, 9] {
                let tile = crowdweb_geo::TileCoord::new(11, x, 770).unwrap();
                let path = format!("/api/v1/tiles/11/{x}/770?hour={hour}");
                let (code, body) = get(&r, &s, &path);
                assert_eq!(code, 200, "{path}");
                let view = View::Tile { tile, hour };
                assert_eq!(body.as_bytes(), render_view(&model, view).unwrap());
                assert!(gauge() <= MEMO_CAP_BYTES as i64, "gauge {}", gauge());
                stored += usize::from(s.default_city().memo().get(0, view).is_some());
            }
        }
        assert!(stored > 0, "tiles fit until the cap");
        assert!(stored < 80, "the cap must turn later tiles away");
        assert_eq!(gauge(), s.default_city().memo().resident_bytes() as i64);
    }
}
