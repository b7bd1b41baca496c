//! The evented connection loop.
//!
//! One event thread owns a nonblocking listener and every open
//! connection, and spends its idle time blocked in `poll(2)` (via the
//! [`crate::sys`] shim) instead of spinning a tick: the kernel wakes it
//! when a socket turns readable or writable, a self-pipe wakes it when
//! a worker finishes a dispatched response, and the poll timeout is
//! computed from the nearest per-connection deadline — so an idle
//! server costs ~zero CPU and a ready event is serviced in
//! syscall-latency, not tick-granularity, time.
//!
//! Connections are persistent (HTTP/1.1 keep-alive): after a response
//! drains, the connection returns to `Reading` and any bytes the
//! client pipelined behind the previous request are served next, in
//! arrival order. Each connection carries a request budget and an
//! idle deadline; the final response before budget exhaustion (or any
//! negotiated close) says `Connection: close`, idle connections are
//! reaped quietly, and half-sent requests are reaped as misbehaviour.
//!
//! The per-connection state machine:
//!
//! ```text
//!            accept (cap-checked, else immediate 503 + close)
//!              │
//!              ▼
//!   ┌──────── Reading ────────┐   bytes accumulate; head end and
//!   │  buf / head_end / want  │   Content-Length detected by the
//!   └──────────┬──────────┬───┘   scanners in `http` (the hardened
//!              │          │       parser stays authoritative)
//!              │          │ complete GET the route's probe answers
//!              │          │ (a 304 or a render-memo hit): written in
//!              │          │ the same pass, no worker
//!              │ complete | EOF, everything else
//!              ▼          │
//!          Dispatched ────┼───── job on the worker pool: parse with
//!              │          │      `Request::read_from`, route, record
//!              │ response │      metrics, serialize with the
//!              ▼ bytes    ▼      negotiated disposition
//!           Writing ──────────── nonblocking writes until drained
//!              │          │
//!              │ close    │ keep-alive: budget left & client agreed
//!              ▼          ▼
//!            closed     Reading (pipelined bytes served next)
//! ```
//!
//! The probe is the route's handler minus everything that can take
//! long: it parses, checks the ring's retained range and looks the
//! memo up, but never renders, materializes an epoch or does I/O, and
//! it declines (the request goes to the pool) whatever it cannot answer
//! that way. A panicking probe costs only its connection. Fairness: the
//! loop answers at most one request per connection per pass; a
//! connection left holding another complete pipelined request is driven
//! again on the next pass, which then polls with a zero timeout, so
//! one pipelining client cannot hold the only event thread.
//!
//! Deadlines are enforced from the loop, never with per-socket
//! timeouts: `Reading` a fresh request has a read deadline, an idle
//! keep-alive connection an idle deadline, `Writing` a write deadline,
//! and `Dispatched` none (handlers may legitimately run long).
//! Saturation is explicit at both edges: over the connection cap a
//! fresh socket gets an immediate 503-and-close, and a full worker
//! queue bounces a request that needs a worker back so the event
//! thread answers 503 itself — honouring the connection's negotiated
//! keep-alive, so shedding one request does not kill a healthy client's
//! pipeline. Requests the probe answers never need a worker, so they
//! are served even then.

use crate::http::{
    encode_chunk, find_head_end, scan_head, scan_wants_keep_alive, BodyStream, HeadScan,
    ResponseBody, LAST_CHUNK, MAX_HEAD_BYTES, MAX_LINE_BYTES,
};
use crate::sys::{self, Interest, PollSet, Readiness, Waker};
use crate::{AppState, Method, Request, Response, Router, StatusCode};
use crowdweb_exec::{PoolSaturated, WorkerPool};
use crowdweb_obs::{Counter, Gauge, Histogram, MetricsRegistry, HTTP_LATENCY_BUCKETS};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

/// Tunables for the evented connection loop. Constructed by `Server`'s
/// builder methods; defaults suit an interactive deployment.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// How long a connection may take to deliver a complete request
    /// head + body before being reaped (default 30 s).
    pub read_timeout: Duration,
    /// How long a connection may take to drain its response bytes
    /// (default 30 s).
    pub write_timeout: Duration,
    /// Open-connection cap; sockets accepted beyond it get an
    /// immediate `503` (default 1024).
    pub max_connections: usize,
    /// Worker threads executing `Router::dispatch` off the event
    /// thread (default 8).
    pub workers: usize,
    /// Bound on jobs queued for the workers; a full queue answers
    /// `503` instead of growing latency without limit (default 128).
    pub job_queue_capacity: usize,
    /// Requests served per connection before the server closes it
    /// (keep-alive budget, default 100; minimum 1). The last response
    /// says `Connection: close`.
    pub keep_alive_requests: u32,
    /// How long a keep-alive connection may sit idle between requests
    /// before being reaped (default 5 s).
    pub keep_alive_idle: Duration,
    /// Per-connection in-flight budget for streamed (chunked) response
    /// bodies, in encoded bytes (default 64 KiB). A stream's producer
    /// is polled only while fewer than this many encoded-but-unwritten
    /// bytes are buffered, so a stalled consumer parks the producer
    /// instead of growing server memory: peak buffering is bounded by
    /// the budget plus one chunk.
    pub stream_budget: usize,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            max_connections: 1024,
            workers: 8,
            job_queue_capacity: 128,
            keep_alive_requests: 100,
            keep_alive_idle: Duration::from_secs(5),
            stream_budget: 64 * 1024,
        }
    }
}

/// A worker's serialized response: either every byte up front
/// (`Content-Length` framing) or the head plus a live chunk producer
/// the write path pulls as the socket drains.
enum Payload {
    /// Head + body serialized into one buffer.
    Full(Vec<u8>),
    /// Serialized head (declaring `Transfer-Encoding: chunked`) and
    /// the producer of the body chunks, with the canonical route label
    /// for the streamed-bytes metrics.
    Stream {
        head: Vec<u8>,
        body: Box<dyn BodyStream>,
        route: String,
    },
}

/// Token-addressed completion from a worker: the response payload plus
/// the negotiated keep-alive disposition, or `None` when the
/// connection should just be dropped.
type Completion = (u64, Option<(Payload, bool)>);

/// What happens once a `Writing` buffer drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteThen {
    /// `Connection: close` semantics: flush, drain, hang up.
    Close,
    /// Keep-alive: return to `Reading` and serve any pipelined bytes.
    Continue,
}

enum ConnState {
    /// Accumulating request bytes until the head terminator and the
    /// declared body length are both satisfied.
    Reading {
        buf: Vec<u8>,
        head_end: Option<usize>,
        /// Total bytes (head + body) that make the request complete.
        want: Option<usize>,
    },
    /// A worker owns the request; the loop only waits.
    Dispatched,
    /// Serialized response bytes draining through nonblocking writes.
    /// With an active `stream`, `buf` holds the encoded-but-unwritten
    /// window of a chunked body and is refilled from the producer each
    /// time it drains — never holding more than the stream budget plus
    /// one chunk.
    Writing {
        buf: Vec<u8>,
        written: usize,
        then: WriteThen,
        stream: Option<LiveStream>,
    },
}

/// A streamed body being pulled through a connection, with its
/// per-route metric handles resolved once at response start.
struct LiveStream {
    body: Box<dyn BodyStream>,
    /// Set once the producer returned `None` and the terminal chunk
    /// was appended to the write buffer.
    done: bool,
    /// A producer failure held back until the chunks encoded before it
    /// have drained: everything the producer yielded still reaches the
    /// client, *then* the connection tears down without the terminal
    /// chunk.
    failed: Option<io::Error>,
    streamed_bytes: Counter,
    streamed_chunks: Counter,
}

impl LiveStream {
    fn new(body: Box<dyn BodyStream>, route: &str, metrics: &ReactorMetrics) -> LiveStream {
        let (streamed_bytes, streamed_chunks) = metrics.streamed(route);
        LiveStream {
            body,
            done: false,
            failed: None,
            streamed_bytes,
            streamed_chunks,
        }
    }
}

struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// When the current request started arriving — the latency clock
    /// for access metrics (reset per keep-alive request).
    started: Instant,
    /// Loop-enforced deadline; `None` while a handler runs.
    deadline: Option<Instant>,
    /// Requests fully served on this connection so far.
    served: u32,
    /// Pipelined bytes received beyond the request currently being
    /// handled; become the next `Reading` buffer.
    pending: Vec<u8>,
    /// Set once the client half-closed: no further requests can
    /// arrive, so every response is final.
    saw_eof: bool,
}

impl Conn {
    fn new(stream: TcpStream, read_timeout: Duration) -> Conn {
        let accepted_at = Instant::now();
        Conn {
            stream,
            state: ConnState::Reading {
                buf: Vec::new(),
                head_end: None,
                want: None,
            },
            started: accepted_at,
            deadline: Some(accepted_at + read_timeout),
            served: 0,
            pending: Vec::new(),
            saw_eof: false,
        }
    }

    /// The poll interest for the current state.
    fn interest(&self) -> Interest {
        match self.state {
            ConnState::Reading { .. } => Interest {
                read: true,
                write: false,
            },
            // No interest while a worker runs — the self-pipe delivers
            // the completion; the kernel still reports errors/hangups.
            ConnState::Dispatched => Interest {
                read: false,
                write: false,
            },
            ConnState::Writing { .. } => Interest {
                read: false,
                write: true,
            },
        }
    }

    /// Whether this connection is parked between keep-alive requests
    /// with nothing buffered — the reap of such a connection is
    /// housekeeping, not client misbehaviour.
    fn idle_between_requests(&self) -> bool {
        matches!(&self.state, ConnState::Reading { buf, .. }
            if self.served > 0 && buf.is_empty())
    }
}

/// Pre-registered reactor metric handles, so the hot loop never touches
/// the registry's family table.
struct ReactorMetrics {
    registry: MetricsRegistry,
    open_connections: Gauge,
    deferred_writes: Gauge,
    tick_seconds: Histogram,
    read_timeouts: Counter,
    write_timeouts: Counter,
    rejected_cap: Counter,
    rejected_busy: Counter,
    keepalive_reuses: Counter,
    keepalive_reaped: Counter,
    stream_buffered: Gauge,
    stream_aborts: Counter,
    /// Each route's streamed-body byte and chunk counters, resolved on
    /// the route's first streamed response. Only the event thread
    /// touches them.
    streamed: RefCell<HashMap<String, (Counter, Counter)>>,
}

impl ReactorMetrics {
    fn new(registry: MetricsRegistry) -> ReactorMetrics {
        ReactorMetrics {
            open_connections: registry.gauge(
                "crowdweb_server_open_connections",
                "Connections currently registered with the reactor.",
                &[],
            ),
            deferred_writes: registry.gauge(
                "crowdweb_server_deferred_writes",
                "Connections with response bytes queued but not yet fully written.",
                &[],
            ),
            tick_seconds: registry.histogram(
                "crowdweb_server_reactor_tick_seconds",
                "Wall-clock seconds per reactor wakeup that moved bytes or events.",
                &[],
                &HTTP_LATENCY_BUCKETS,
            ),
            read_timeouts: registry.counter(
                "crowdweb_http_timeouts_total",
                "Connections dropped at the read deadline before a complete request arrived.",
                &[],
            ),
            write_timeouts: registry.counter(
                "crowdweb_server_write_timeouts_total",
                "Connections dropped at the write deadline with a response still queued.",
                &[],
            ),
            rejected_cap: registry.counter(
                "crowdweb_server_rejected_total",
                "Connections refused with 503, by reason.",
                &[("reason", "max_connections")],
            ),
            rejected_busy: registry.counter(
                "crowdweb_server_rejected_total",
                "Connections refused with 503, by reason.",
                &[("reason", "worker_queue_full")],
            ),
            keepalive_reuses: registry.counter(
                "crowdweb_server_keepalive_reuses_total",
                "Requests served on an already-used (kept-alive) connection.",
                &[],
            ),
            keepalive_reaped: registry.counter(
                "crowdweb_server_keepalive_reaped_total",
                "Idle keep-alive connections reaped at the idle deadline.",
                &[],
            ),
            stream_buffered: registry.gauge(
                "crowdweb_server_stream_buffered_bytes",
                "Encoded-but-unwritten streamed body bytes across all connections.",
                &[],
            ),
            stream_aborts: registry.counter(
                "crowdweb_server_stream_aborts_total",
                "Streamed responses aborted by a mid-body producer error (connection closed without the terminal chunk).",
                &[],
            ),
            streamed: RefCell::new(HashMap::new()),
            registry,
        }
    }

    /// The streamed-body byte and chunk counters of `route`, looked up in
    /// the registry only on the route's first streamed response.
    fn streamed(&self, route: &str) -> (Counter, Counter) {
        let mut streamed = self.streamed.borrow_mut();
        if let Some(counters) = streamed.get(route) {
            return counters.clone();
        }
        let counters = (
            self.registry.counter(
                "crowdweb_http_streamed_body_bytes_total",
                "Streamed (chunked) response body bytes produced, by route pattern.",
                &[("route", route)],
            ),
            self.registry.counter(
                "crowdweb_http_streamed_chunks_total",
                "Chunks produced by streamed response bodies, by route pattern.",
                &[("route", route)],
            ),
        );
        streamed.insert(route.to_owned(), counters.clone());
        counters
    }
}

/// Shared per-wakeup context threaded through the state machine.
struct Ctx<'a> {
    state: &'a Arc<AppState>,
    router: &'a Arc<Router<AppState>>,
    pool: &'a WorkerPool,
    done_tx: &'a mpsc::Sender<Completion>,
    /// The self-pipe's write end, shared by every job.
    waker: &'a Arc<Waker>,
    metrics: &'a ReactorMetrics,
    config: &'a ReactorConfig,
}

enum Drive {
    /// Bytes or events moved.
    Progress,
    /// Nothing to do right now.
    Idle,
    /// The loop answered a request on this connection in this pass and
    /// another complete request is buffered: drive it again next pass.
    Yield,
    /// The connection is finished (drained, dead, or hopeless).
    Close,
}

/// Records a drive's outcome in the loop's bookkeeping: a finished
/// connection leaves the table, a yielding one is queued for the next
/// pass. Returns whether anything moved.
fn settle(
    outcome: Drive,
    token: u64,
    conns: &mut HashMap<u64, Conn>,
    again: &mut Vec<u64>,
) -> bool {
    match outcome {
        Drive::Progress => true,
        Drive::Idle => false,
        Drive::Yield => {
            again.push(token);
            true
        }
        Drive::Close => {
            conns.remove(&token);
            true
        }
    }
}

/// Runs the event loop until `shutdown` is observed. Consumes the
/// listener; joins the worker pool before returning.
pub(crate) fn run(
    listener: TcpListener,
    state: Arc<AppState>,
    router: Arc<Router<AppState>>,
    shutdown: Arc<AtomicBool>,
    config: ReactorConfig,
) {
    listener
        .set_nonblocking(true)
        .expect("listener supports nonblocking mode");
    // A 10k-connection storm overflows the default accept backlog (128)
    // long before the event loop falls behind.
    sys::boost_listen_backlog(&listener, 1024);
    let metrics = ReactorMetrics::new(state.metrics().clone());
    let pool = WorkerPool::new(config.workers, config.job_queue_capacity);
    let (done_tx, done_rx) = mpsc::channel::<Completion>();
    let (waker, wake_rx) = sys::wake_pair().expect("self-pipe pair");
    let mut pollset = PollSet::new();
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 0;
    // Connections that yielded with a complete request buffered; no
    // readiness event will come for bytes already read, so the next
    // pass drives them itself.
    let mut again: Vec<u64> = Vec::new();

    while !shutdown.load(Ordering::SeqCst) {
        // 1. Block until the kernel has something for us: a pending
        // accept, a readable/writable connection, a worker completion
        // (self-pipe), or the nearest deadline. This wait is the whole
        // point — an idle server sits here at zero CPU.
        pollset.clear();
        pollset.register_listener(&listener);
        pollset.register_waker(&wake_rx);
        for (&token, conn) in conns.iter() {
            pollset.register(&conn.stream, token, conn.interest());
        }
        let now = Instant::now();
        let timeout = if again.is_empty() {
            conns
                .values()
                .filter_map(|c| c.deadline)
                .min()
                .map(|deadline| deadline.saturating_duration_since(now))
        } else {
            Some(Duration::ZERO)
        };
        if pollset.wait(timeout).is_err() {
            // A failed poll is unrecoverable loop state; degrade to a
            // short park rather than spinning on the error.
            std::thread::sleep(Duration::from_millis(1));
        }
        if pollset.waker_ready() {
            wake_rx.drain();
        }
        // Sorted for the lookup in step 4; yields of this pass queue
        // up for the next one.
        let mut redrive = std::mem::take(&mut again);
        redrive.sort_unstable();
        redrive.dedup();

        let woke = Instant::now();
        let mut progressed = false;
        let ctx = Ctx {
            state: &state,
            router: &router,
            pool: &pool,
            done_tx: &done_tx,
            waker: &waker,
            metrics: &metrics,
            config: &config,
        };

        // 2. Accept every pending socket (cap-aware).
        if pollset.listener_ready() {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        progressed = true;
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        // Nagle delays the second and later responses
                        // on a pipelined/kept-alive connection by up to
                        // a delayed-ACK interval (~40ms); responses are
                        // written whole, so there is nothing for Nagle
                        // to usefully coalesce.
                        let _ = stream.set_nodelay(true);
                        let mut conn = Conn::new(stream, config.read_timeout);
                        if conns.len() >= config.max_connections {
                            // Over the cap: answer 503 through the
                            // normal write path (the connection
                            // occupies a map slot only until the
                            // refusal drains). The request was never
                            // read, so the refusal always closes.
                            metrics.rejected_cap.inc();
                            queue_response(
                                &mut conn,
                                Response::error(
                                    StatusCode::ServiceUnavailable,
                                    "connection limit reached",
                                ),
                                false,
                                config.write_timeout,
                            );
                        }
                        conns.insert(next_token, conn);
                        next_token += 1;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        // 3. Move finished worker responses into write queues, then
        // immediately attempt the write — the socket is almost always
        // writable, so most responses go out without another poll.
        while let Ok((token, payload)) = done_rx.try_recv() {
            progressed = true;
            match payload {
                Some((payload, keep_alive)) => {
                    if let Some(conn) = conns.get_mut(&token) {
                        let keep = keep_alive && !conn.saw_eof;
                        let (buf, stream) = match payload {
                            Payload::Full(bytes) => (bytes, None),
                            Payload::Stream { head, body, route } => {
                                (head, Some(LiveStream::new(body, &route, &metrics)))
                            }
                        };
                        conn.state = ConnState::Writing {
                            buf,
                            written: 0,
                            then: if keep {
                                WriteThen::Continue
                            } else {
                                WriteThen::Close
                            },
                            stream,
                        };
                        conn.deadline = Some(Instant::now() + config.write_timeout);
                        let outcome = drive(token, conn, &ctx);
                        settle(outcome, token, &mut conns, &mut again);
                    }
                }
                None => {
                    conns.remove(&token);
                }
            }
        }

        // 4. Pump the connections that yielded last pass, then every
        // connection the kernel flagged — each once per pass, so one
        // that was just re-driven is skipped.
        for &token in &redrive {
            if let Some(conn) = conns.get_mut(&token) {
                let outcome = drive(token, conn, &ctx);
                progressed |= settle(outcome, token, &mut conns, &mut again);
            }
        }
        let ready: Vec<(u64, Readiness)> = pollset.ready().collect();
        for (token, readiness) in ready {
            if redrive.binary_search(&token).is_ok() {
                continue;
            }
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            // A dispatched connection has no read/write interest, so
            // any readiness here is the kernel reporting the client
            // gone (POLLHUP/POLLERR) — the response has nowhere to go.
            if matches!(conn.state, ConnState::Dispatched) {
                if readiness.dead {
                    progressed = true;
                    conns.remove(&token);
                }
                continue;
            }
            let outcome = drive(token, conn, &ctx);
            progressed |= settle(outcome, token, &mut conns, &mut again);
        }

        // 5. Deadlines, enforced by the loop instead of per-socket
        // timeouts. A reading connection past its deadline mid-request
        // is client misbehaviour: count it, never answer it. An idle
        // keep-alive connection is just housekeeping.
        let now = Instant::now();
        conns.retain(|_, conn| match conn.deadline {
            Some(deadline) if now >= deadline => {
                if conn.idle_between_requests() {
                    metrics.keepalive_reaped.inc();
                } else {
                    match conn.state {
                        ConnState::Reading { .. } => metrics.read_timeouts.inc(),
                        _ => metrics.write_timeouts.inc(),
                    }
                }
                false
            }
            _ => true,
        });

        // 6. Loop-health signals.
        metrics.open_connections.set(conns.len() as i64);
        let deferred = conns
            .values()
            .filter(|c| matches!(c.state, ConnState::Writing { .. }))
            .count();
        metrics.deferred_writes.set(deferred as i64);
        let stream_buffered: usize = conns
            .values()
            .map(|c| match &c.state {
                ConnState::Writing {
                    buf,
                    written,
                    stream: Some(_),
                    ..
                } => buf.len().saturating_sub(*written),
                _ => 0,
            })
            .sum();
        metrics.stream_buffered.set(stream_buffered as i64);
        if progressed {
            metrics.tick_seconds.observe(woke.elapsed().as_secs_f64());
        }
    }

    metrics.open_connections.set(0);
    metrics.deferred_writes.set(0);
    metrics.stream_buffered.set(0);
    drop(conns);
    drop(pool); // drains queued jobs and joins every worker
}

/// Serializes a loop-generated response (over-cap or pool-saturated
/// 503) and moves the connection straight to `Writing`, honouring the
/// connection's negotiated disposition.
fn queue_response(conn: &mut Conn, response: Response, keep_alive: bool, write_timeout: Duration) {
    let mut out = Vec::new();
    let _ = response.write_to_with(&mut out, keep_alive);
    conn.state = ConnState::Writing {
        buf: out,
        written: 0,
        then: if keep_alive {
            WriteThen::Continue
        } else {
            WriteThen::Close
        },
        stream: None,
    };
    conn.deadline = Some(Instant::now() + write_timeout);
}

/// Advances one connection's state machine as far as it can go without
/// another poll event: a drained keep-alive response rolls straight
/// into reading (and possibly dispatching) the next pipelined request.
/// It stops after the loop itself has answered one request, so one
/// pipelining client gets one such answer per pass.
fn drive(token: u64, conn: &mut Conn, ctx: &Ctx<'_>) -> Drive {
    let mut progressed = false;
    let mut answered = false;
    loop {
        let step = match conn.state {
            ConnState::Reading { .. } if answered => {
                return if reading_complete(conn) {
                    Drive::Yield
                } else {
                    Drive::Progress
                };
            }
            ConnState::Reading { .. } => {
                let step = drive_read(token, conn, ctx);
                // Straight from reading to writing: the probe (or the
                // shed path) answered without a worker.
                answered = matches!(conn.state, ConnState::Writing { .. });
                step
            }
            ConnState::Dispatched => Drive::Idle,
            ConnState::Writing { .. } => drive_write(token, conn, ctx),
        };
        match step {
            Drive::Progress => {
                progressed = true;
                // A state transition may leave more work doable right
                // now (pipelined request buffered, response writable):
                // keep going until the machine genuinely blocks.
                if matches!(conn.state, ConnState::Dispatched) {
                    return Drive::Progress;
                }
            }
            Drive::Idle => {
                return if progressed {
                    Drive::Progress
                } else {
                    Drive::Idle
                };
            }
            outcome @ (Drive::Yield | Drive::Close) => return outcome,
        }
    }
}

fn drive_read(token: u64, conn: &mut Conn, ctx: &Ctx<'_>) -> Drive {
    // A pipelined request may already be complete in the buffer from
    // the previous drain — serve it before touching the socket.
    if reading_complete(conn) {
        return dispatch(token, conn, ctx);
    }
    let mut progressed = false;
    loop {
        let mut chunk = [0u8; 8192];
        match conn.stream.read(&mut chunk) {
            // EOF: the client finished (or gave up) — finalize with
            // whatever arrived. The parser decides between a request,
            // a 400, or nothing to say; a clean between-requests close
            // deserves silence, not an error.
            Ok(0) => {
                conn.saw_eof = true;
                let empty = matches!(&conn.state, ConnState::Reading { buf, .. } if buf.is_empty());
                if empty {
                    return Drive::Close;
                }
                return dispatch(token, conn, ctx);
            }
            Ok(n) => {
                progressed = true;
                // First bytes of a fresh keep-alive request: the idle
                // deadline becomes a read deadline — the client now
                // owes us a complete request.
                let was_idle = conn.idle_between_requests();
                if was_idle {
                    conn.started = Instant::now();
                    conn.deadline = Some(Instant::now() + ctx.config.read_timeout);
                }
                if accumulate(conn, &chunk[..n]) {
                    return dispatch(token, conn, ctx);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Drive::Close,
        }
    }
    if progressed {
        Drive::Progress
    } else {
        Drive::Idle
    }
}

/// Whether the `Reading` buffer already holds a complete request.
fn reading_complete(conn: &mut Conn) -> bool {
    matches!(conn.state, ConnState::Reading { .. }) && accumulate(conn, &[])
}

/// Extends the read buffer and re-evaluates completeness. Returns true
/// once the buffered bytes should go to a worker.
fn accumulate(conn: &mut Conn, bytes: &[u8]) -> bool {
    let ConnState::Reading {
        buf,
        head_end,
        want,
    } = &mut conn.state
    else {
        return false;
    };
    buf.extend_from_slice(bytes);
    if head_end.is_none() {
        *head_end = find_head_end(buf);
        match *head_end {
            Some(end) => {
                *want = Some(match scan_head(&buf[..end]) {
                    HeadScan::BodyBytes(n) => end + n,
                    // Untrustworthy head: don't wait for a body that
                    // may never come — parse now for the real 400.
                    HeadScan::Malformed => end,
                });
            }
            // A head that exceeds every parser bound without ever
            // terminating gets parsed as-is; `read_line_bounded` and
            // the head-size cap turn it into the right 400.
            None if buf.len() > MAX_HEAD_BYTES + MAX_LINE_BYTES => {
                *want = Some(buf.len());
            }
            None => {}
        }
    }
    want.is_some_and(|w| buf.len() >= w)
}

/// Serves a connection's buffered request; bytes pipelined beyond it
/// stay behind for the next round. A request the route's probe answers
/// is queued for writing right here. Every other request moves the
/// connection to `Dispatched` and goes to the worker pool; on a
/// saturated pool the event thread sheds load itself with a 503 that
/// honours the connection's keep-alive. Returns `Close` when the probe
/// panicked, else `Progress`.
fn dispatch(token: u64, conn: &mut Conn, ctx: &Ctx<'_>) -> Drive {
    let ConnState::Reading {
        mut buf,
        head_end,
        want,
    } = std::mem::replace(&mut conn.state, ConnState::Dispatched)
    else {
        return Drive::Idle;
    };
    conn.deadline = None;
    if conn.served > 0 {
        ctx.metrics.keepalive_reuses.inc();
    }
    let take = want.unwrap_or(buf.len()).min(buf.len());
    conn.pending = buf.split_off(take);
    // The keep-alive offer this request is allowed: budget not yet
    // exhausted by this request, and the client still able to send
    // more (no half-close seen).
    let allow_keep_alive = conn.served + 1 < ctx.config.keep_alive_requests.max(1) && !conn.saw_eof;
    let registry = &ctx.metrics.registry;
    match probe(
        &buf,
        allow_keep_alive,
        ctx.state,
        ctx.router,
        registry,
        conn.started,
    ) {
        Probed::Answered(response, keep) => {
            queue_response(conn, response, keep, ctx.config.write_timeout);
            return Drive::Progress;
        }
        Probed::Panicked => return Drive::Close,
        Probed::Declined => {}
    }
    // The shed path answers without parsing, so its disposition comes
    // from a head scan — computed now, before `buf` moves into the job.
    let shed_keep_alive = allow_keep_alive
        && head_end.is_some_and(|end| scan_wants_keep_alive(&buf[..end.min(buf.len())]));
    let started = conn.started;
    let state = Arc::clone(ctx.state);
    let router = Arc::clone(ctx.router);
    let registry = registry.clone();
    let done = ctx.done_tx.clone();
    let waker = Arc::clone(ctx.waker);
    let job = move || {
        let payload = execute(&buf, allow_keep_alive, &state, &router, &registry, started).map(
            |(r, keep, route)| {
                let (mut head, body) = r.into_head_and_body(keep);
                let payload = match body {
                    ResponseBody::Full(bytes) => {
                        head.reserve(bytes.len());
                        head.extend_from_slice(&bytes);
                        Payload::Full(head)
                    }
                    ResponseBody::Stream(body) => Payload::Stream {
                        head,
                        body,
                        route: route.to_owned(),
                    },
                };
                (payload, keep)
            },
        );
        let _ = done.send((token, payload));
        // Poke the event loop out of `poll` — without this the
        // response would wait for the next unrelated event or timeout.
        waker.wake();
    };
    if let Err(PoolSaturated(job)) = ctx.pool.try_execute(job) {
        drop(job);
        ctx.metrics.rejected_busy.inc();
        // The request was read and well-formed — shedding it must not
        // cost the client its connection if keep-alive was negotiated.
        queue_response(
            conn,
            Response::error(StatusCode::ServiceUnavailable, "worker queue full")
                .with_retry_after(crate::api::RETRY_AFTER_SECS),
            shed_keep_alive,
            ctx.config.write_timeout,
        );
    }
    Drive::Progress
}

/// What the event loop's probe made of a buffered request.
enum Probed {
    /// Answered without a worker: the response and the negotiated
    /// keep-alive disposition.
    Answered(Response, bool),
    /// Needs a worker: not a `GET`, unparsable, no probe on the route,
    /// or declined by it.
    Declined,
    /// The probe panicked; the connection is dropped.
    Panicked,
}

/// Runs the matched route's probe on the event thread for a buffered
/// `GET` (anything else is declined unparsed), recording the access
/// metrics of an answered request exactly as [`execute`] would. A
/// declined request records nothing: the worker that serves it does.
/// The parse runs under the same `catch_unwind` as the probe, so
/// nothing here can take the loop down.
fn probe(
    bytes: &[u8],
    allow_keep_alive: bool,
    state: &AppState,
    router: &Router<AppState>,
    registry: &MetricsRegistry,
    started: Instant,
) -> Probed {
    if !bytes.starts_with(b"GET ") {
        return Probed::Declined;
    }
    let probed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let request = Request::read_from(bytes).ok()?;
        let (response, route) = router.probe(state, &request)?;
        route.record(
            registry,
            Some(request.method),
            &response,
            request.body.len(),
            started,
        );
        Some((response, allow_keep_alive && request.wants_keep_alive()))
    }));
    match probed {
        Ok(Some((response, keep))) => Probed::Answered(response, keep),
        Ok(None) => Probed::Declined,
        Err(_) => {
            handler_panicked();
            Probed::Panicked
        }
    }
}

/// Logs a caught handler or probe panic; the connection is dropped and
/// serving goes on.
fn handler_panicked() {
    eprintln!("crowdweb: connection handler panicked; worker recovered");
}

/// Parses and routes one buffered request on a worker thread. Returns
/// the response to write, the negotiated keep-alive disposition, and
/// the canonical route label (for streamed-body metrics), or `None`
/// when the connection deserves nothing (unreadable stream, panicking
/// handler).
fn execute<'r>(
    bytes: &[u8],
    allow_keep_alive: bool,
    state: &AppState,
    router: &'r Router<AppState>,
    registry: &MetricsRegistry,
    started: Instant,
) -> Option<(Response, bool, &'r str)> {
    match Request::read_from(bytes) {
        Ok(request) => {
            let keep = allow_keep_alive && request.wants_keep_alive();
            // A panicking handler must not take the worker down or leak
            // the connection: catch, drop the connection, keep serving.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                router.dispatch_metered(state, &request)
            }));
            match result {
                Ok((response, route)) => {
                    route.record(
                        registry,
                        Some(request.method),
                        &response,
                        request.body.len(),
                        started,
                    );
                    Some((response, keep, route.label()))
                }
                Err(_) => {
                    handler_panicked();
                    None
                }
            }
        }
        // Malformed head (InvalidData) or a body shorter than its
        // Content-Length (read_exact → UnexpectedEof): the client sent
        // a broken request and deserves a 400, not a silent drop. A
        // broken request also forfeits its framing, so the connection
        // always closes after the 400.
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
            ) =>
        {
            let message = if e.kind() == io::ErrorKind::UnexpectedEof {
                "request body shorter than content-length".to_owned()
            } else {
                e.to_string()
            };
            let response = Response::error(StatusCode::BadRequest, &message);
            let route = router.unparsed();
            route.record(registry, None, &response, 0, started);
            Some((response, false, route.label()))
        }
        Err(_) => None,
    }
}

fn drive_write(token: u64, conn: &mut Conn, ctx: &Ctx<'_>) -> Drive {
    let ConnState::Writing {
        buf,
        written,
        then,
        stream,
    } = &mut conn.state
    else {
        return Drive::Idle;
    };
    let then = *then;
    // A closing response never had (or no longer wants) its request
    // stream read: discard arriving bytes so the close is a FIN, not a
    // RST that would destroy the response before the client reads it.
    // A keep-alive connection must NOT drain — those bytes are the
    // client's next pipelined request.
    if then == WriteThen::Close {
        drain_input(&mut conn.stream);
    }
    let mut progressed = false;
    loop {
        while *written < buf.len() {
            match conn.stream.write(&buf[*written..]) {
                Ok(0) => return Drive::Close,
                Ok(n) => {
                    *written += n;
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // The socket stalled with encoded bytes still
                    // queued: the producer stays parked until this
                    // window drains — backpressure, not buffering.
                    return if progressed {
                        Drive::Progress
                    } else {
                        Drive::Idle
                    };
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Drive::Close,
            }
        }
        // Window drained. Pull the next window from an active stream;
        // a finished (or absent) stream means the response is complete.
        let Some(live) = stream.as_mut() else { break };
        if live.done {
            *stream = None;
            break;
        }
        match refill_stream(buf, written, live, ctx.config.stream_budget) {
            Ok(()) => {
                progressed = true;
                // The producer made progress, so the write deadline
                // clocks the new window — a long stream is not
                // penalized for its total size, only for stalling.
                conn.deadline = Some(Instant::now() + ctx.config.write_timeout);
            }
            Err(_) => {
                // Producer died mid-body: tear the connection down
                // WITHOUT the terminal chunk, so the client's decoder
                // sees truncation instead of a short-but-valid body.
                ctx.metrics.stream_aborts.inc();
                return Drive::Close;
            }
        }
    }
    let _ = conn.stream.flush();
    match then {
        WriteThen::Close => {
            drain_input(&mut conn.stream);
            Drive::Close
        }
        WriteThen::Continue => {
            // Response fully drained under keep-alive: back to Reading
            // with whatever the client pipelined behind the request.
            // The caller's drive loop immediately re-evaluates, so a
            // buffered complete request dispatches without waiting for
            // a poll event. `token` keeps the access path uniform.
            let _ = token;
            conn.served += 1;
            conn.started = Instant::now();
            let buffered = std::mem::take(&mut conn.pending);
            let idle = buffered.is_empty();
            conn.state = ConnState::Reading {
                buf: buffered,
                head_end: None,
                want: None,
            };
            conn.deadline = Some(
                Instant::now()
                    + if idle {
                        ctx.config.keep_alive_idle
                    } else {
                        ctx.config.read_timeout
                    },
            );
            Drive::Progress
        }
    }
}

/// Refills a drained write window from a streamed body: pulls and
/// chunk-encodes producer output until at least `budget` encoded bytes
/// are queued or the body completes (appending the terminal chunk
/// exactly once). The window therefore never exceeds the budget plus
/// one encoded chunk — the reactor's bounded-memory guarantee for
/// streams.
///
/// # Errors
///
/// Propagates a producer failure; the caller must close the connection
/// without the terminal chunk. A failure that strikes after this
/// refill already encoded chunks is held on the stream and returned by
/// the *next* refill instead, so everything the producer yielded
/// before dying still reaches the client ahead of the teardown.
fn refill_stream(
    buf: &mut Vec<u8>,
    written: &mut usize,
    live: &mut LiveStream,
    budget: usize,
) -> io::Result<()> {
    if let Some(err) = live.failed.take() {
        return Err(err);
    }
    buf.clear();
    *written = 0;
    while !live.done && buf.len() < budget.max(1) {
        match live.body.next_chunk() {
            Ok(Some(data)) if data.is_empty() => continue,
            Ok(Some(data)) => {
                live.streamed_chunks.inc();
                live.streamed_bytes.add(data.len() as u64);
                encode_chunk(buf, &data);
            }
            Ok(None) => {
                buf.extend_from_slice(LAST_CHUNK);
                live.done = true;
            }
            Err(err) if buf.is_empty() => return Err(err),
            Err(err) => {
                live.failed = Some(err);
                break;
            }
        }
    }
    Ok(())
}

/// Reads and discards whatever is waiting on the socket (bounded per
/// call so an aggressive sender cannot pin the loop).
fn drain_input(stream: &mut TcpStream) {
    let mut scratch = [0u8; 4096];
    for _ in 0..8 {
        match stream.read(&mut scratch) {
            Ok(n) if n > 0 => continue,
            _ => break,
        }
    }
}

/// `method` label slots: `GET`, `POST`, and `invalid` for requests that
/// never parsed.
const METHOD_SLOTS: usize = 3;

/// One slot per [`StatusCode`] variant.
const STATUS_SLOTS: usize = 8;

fn status_slot(status: StatusCode) -> usize {
    match status {
        StatusCode::Ok => 0,
        StatusCode::NotModified => 1,
        StatusCode::BadRequest => 2,
        StatusCode::NotFound => 3,
        StatusCode::MethodNotAllowed => 4,
        StatusCode::PayloadTooLarge => 5,
        StatusCode::InternalServerError => 6,
        StatusCode::ServiceUnavailable => 7,
    }
}

/// One route's access metrics, labelled by its registration pattern
/// (bounded cardinality), never by raw request path. The router holds
/// one per route; a request records through handles, so the hot path
/// builds no label string and takes no registry lock.
///
/// The latency histogram and both byte counters are resolved once, on
/// the route's first request; each `crowdweb_http_requests_total`
/// series once per (method, status), on its first use. Resolving on
/// first use, not at registration, keeps the exposition listing only
/// the series that traffic has touched.
pub(crate) struct RouteMetrics {
    label: String,
    resolved: OnceLock<ResolvedRoute>,
}

struct ResolvedRoute {
    /// The registry the handles belong to: a router served against a
    /// different registry resolves afresh instead of recording here.
    registry: MetricsRegistry,
    latency: Histogram,
    request_bytes: Counter,
    response_bytes: Counter,
    requests: [[OnceLock<Counter>; STATUS_SLOTS]; METHOD_SLOTS],
}

impl ResolvedRoute {
    fn new(registry: &MetricsRegistry, route: &str) -> ResolvedRoute {
        ResolvedRoute {
            registry: registry.clone(),
            latency: registry.histogram(
                "crowdweb_http_request_seconds",
                "Wall-clock seconds from first read to response ready, by route pattern.",
                &[("route", route)],
                &HTTP_LATENCY_BUCKETS,
            ),
            request_bytes: registry.counter(
                "crowdweb_http_request_body_bytes_total",
                "Request body bytes received, by route pattern.",
                &[("route", route)],
            ),
            response_bytes: registry.counter(
                "crowdweb_http_response_body_bytes_total",
                "Response body bytes produced, by route pattern.",
                &[("route", route)],
            ),
            requests: Default::default(),
        }
    }
}

impl RouteMetrics {
    /// Unresolved metrics for the route labelled `label`.
    pub(crate) fn new(label: &str) -> RouteMetrics {
        RouteMetrics {
            label: label.to_owned(),
            resolved: OnceLock::new(),
        }
    }

    /// The route's metrics label.
    pub(crate) fn label(&self) -> &str {
        &self.label
    }

    /// Records one access: the request counter by method and status,
    /// the latency since `started`, and the body byte counts. `method`
    /// is `None` for a request that never parsed.
    pub(crate) fn record(
        &self,
        registry: &MetricsRegistry,
        method: Option<Method>,
        response: &Response,
        request_body_bytes: usize,
        started: Instant,
    ) {
        let cached = self
            .resolved
            .get_or_init(|| ResolvedRoute::new(registry, &self.label));
        let fresh;
        let handles = if cached.registry == *registry {
            cached
        } else {
            fresh = ResolvedRoute::new(registry, &self.label);
            &fresh
        };
        let (slot, method) = match method {
            Some(Method::Get) => (0, "GET"),
            Some(Method::Post) => (1, "POST"),
            None => (2, "invalid"),
        };
        handles.requests[slot][status_slot(response.status)]
            .get_or_init(|| {
                registry.counter(
                    "crowdweb_http_requests_total",
                    "HTTP requests served, by method, route pattern, and status.",
                    &[
                        ("method", method),
                        ("route", &self.label),
                        ("status", &response.status.code().to_string()),
                    ],
                )
            })
            .inc();
        handles.latency.observe(started.elapsed().as_secs_f64());
        handles.request_bytes.add(request_body_bytes as u64);
        handles.response_bytes.add(response.body.len_hint() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api;
    use crowdweb_synth::SynthConfig;

    fn app() -> (Arc<AppState>, Arc<Router<AppState>>, MetricsRegistry) {
        let dataset = SynthConfig::small(71).users(10).generate().unwrap();
        let state = AppState::build(dataset, 10).unwrap();
        let registry = state.metrics().clone();
        (Arc::new(state), Arc::new(api::build_router()), registry)
    }

    #[test]
    fn execute_routes_complete_requests_and_records() {
        let (state, router, registry) = app();
        let (response, keep, route) = execute(
            b"GET /api/stats HTTP/1.1\r\nHost: t\r\n\r\n",
            true,
            &state,
            &router,
            &registry,
            Instant::now(),
        )
        .expect("well-formed request gets a response");
        assert_eq!(response.status.code(), 200);
        assert!(keep, "an HTTP/1.1 request with budget left keeps alive");
        assert_eq!(route, "/api/v1/stats");
        // The legacy spelling folds into the canonical v1 route label.
        assert_eq!(
            registry.counter_value(
                "crowdweb_http_requests_total",
                &[
                    ("method", "GET"),
                    ("route", "/api/v1/stats"),
                    ("status", "200")
                ]
            ),
            Some(1)
        );
    }

    #[test]
    fn execute_negotiates_connection_disposition() {
        let (state, router, registry) = app();
        // Client asks to close: honoured even with budget left.
        let (_, keep, _) = execute(
            b"GET /api/stats HTTP/1.1\r\nConnection: close\r\n\r\n",
            true,
            &state,
            &router,
            &registry,
            Instant::now(),
        )
        .unwrap();
        assert!(!keep);
        // Budget exhausted: closed even though the client would stay.
        let (_, keep, _) = execute(
            b"GET /api/stats HTTP/1.1\r\n\r\n",
            false,
            &state,
            &router,
            &registry,
            Instant::now(),
        )
        .unwrap();
        assert!(!keep);
    }

    #[test]
    fn execute_maps_parser_errors_to_400() {
        let (state, router, registry) = app();
        let (response, keep, _) = execute(
            b"BREW /coffee HTCPCP/1.0\r\n\r\n",
            true,
            &state,
            &router,
            &registry,
            Instant::now(),
        )
        .expect("malformed request gets a 400");
        assert_eq!(response.status.code(), 400);
        assert!(!keep, "a broken request forfeits its framing — close");
        // Truncated body keeps the dedicated message.
        let (response, _, _) = execute(
            b"POST /api/upload HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort",
            true,
            &state,
            &router,
            &registry,
            Instant::now(),
        )
        .unwrap();
        assert_eq!(response.status.code(), 400);
        assert!(String::from_utf8(response.into_body_bytes())
            .unwrap()
            .contains("content-length"));
        assert_eq!(
            registry.counter_value(
                "crowdweb_http_requests_total",
                &[
                    ("method", "invalid"),
                    ("route", "unparsed"),
                    ("status", "400")
                ]
            ),
            Some(2)
        );
    }

    /// The access-metric lines of an exposition, minus the latency
    /// buckets and sums that depend on timing.
    fn access_lines(registry: &MetricsRegistry) -> Vec<String> {
        registry
            .render()
            .lines()
            .filter(|l| l.contains("crowdweb_http_"))
            .filter(|l| {
                !l.starts_with("crowdweb_http_request_seconds_bucket")
                    && !l.starts_with("crowdweb_http_request_seconds_sum")
            })
            .map(str::to_owned)
            .collect()
    }

    /// What recording an access looked like before per-route handles:
    /// four registry lookups per request.
    fn record_by_lookup(
        metrics: &MetricsRegistry,
        method: &str,
        route: &str,
        response: &Response,
        request_body_bytes: usize,
    ) {
        let status = response.status.code().to_string();
        metrics
            .counter(
                "crowdweb_http_requests_total",
                "HTTP requests served, by method, route pattern, and status.",
                &[("method", method), ("route", route), ("status", &status)],
            )
            .inc();
        metrics
            .histogram(
                "crowdweb_http_request_seconds",
                "Wall-clock seconds from first read to response ready, by route pattern.",
                &[("route", route)],
                &HTTP_LATENCY_BUCKETS,
            )
            .observe(0.0);
        metrics
            .counter(
                "crowdweb_http_request_body_bytes_total",
                "Request body bytes received, by route pattern.",
                &[("route", route)],
            )
            .add(request_body_bytes as u64);
        metrics
            .counter(
                "crowdweb_http_response_body_bytes_total",
                "Response body bytes produced, by route pattern.",
                &[("route", route)],
            )
            .add(response.body.len_hint() as u64);
    }

    /// Pre-resolved route handles record exactly the series and values
    /// per-request registry lookups did, and a router served against a
    /// second registry records there, not into the first.
    #[test]
    fn route_handles_expose_what_registry_lookups_did() {
        let traffic: &[&[u8]] = &[
            b"GET /api/v1/stats HTTP/1.1\r\n\r\n",
            b"GET /api/stats HTTP/1.1\r\n\r\n",
            b"GET /api/v1/crowd/map?hour=9 HTTP/1.1\r\n\r\n",
            b"GET /api/v1/crowd?hour=99 HTTP/1.1\r\n\r\n",
            b"GET /nope HTTP/1.1\r\n\r\n",
            b"POST /api/v1/users HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
            b"POST /api/v1/checkins HTTP/1.1\r\nContent-Length: 3\r\n\r\nbad",
            b"BREW /coffee HTCPCP/1.0\r\n\r\n",
            b"GET /api/v1/export/checkins HTTP/1.1\r\n\r\n",
            b"GET /api/v1/stats HTTP/1.1\r\n\r\n",
            b"GARBAGE\r\n\r\n",
            b"GET /api/export/checkins HTTP/1.1\r\n\r\n",
        ];
        let router = Arc::new(api::build_router());
        let mut served = Vec::new();
        for _ in 0..2 {
            let (state, _, registry) = app();
            let metrics = ReactorMetrics::new(registry.clone());
            for raw in traffic {
                let (response, _, route) =
                    execute(raw, true, &state, &router, &registry, Instant::now()).unwrap();
                // A streamed body counts its bytes and chunks as the
                // loop pulls it.
                if let ResponseBody::Stream(body) = response.body {
                    let mut live = LiveStream::new(body, route, &metrics);
                    let (mut buf, mut written) = (Vec::new(), 0usize);
                    while !live.done {
                        refill_stream(&mut buf, &mut written, &mut live, 1 << 16).unwrap();
                    }
                }
            }
            served.push(access_lines(&registry));
        }
        let (state, _, reference) = app();
        let _loop_series = ReactorMetrics::new(reference.clone());
        for raw in traffic {
            match Request::read_from(*raw) {
                Ok(request) => {
                    let (response, route) = router.dispatch(&state, &request);
                    let route = route.unwrap_or("unmatched");
                    record_by_lookup(
                        &reference,
                        &request.method.to_string(),
                        route,
                        &response,
                        request.body.len(),
                    );
                    if let ResponseBody::Stream(mut body) = response.body {
                        let bytes = reference.counter(
                            "crowdweb_http_streamed_body_bytes_total",
                            "Streamed (chunked) response body bytes produced, by route pattern.",
                            &[("route", route)],
                        );
                        let chunks = reference.counter(
                            "crowdweb_http_streamed_chunks_total",
                            "Chunks produced by streamed response bodies, by route pattern.",
                            &[("route", route)],
                        );
                        while let Some(chunk) = body.next_chunk().unwrap() {
                            chunks.inc();
                            bytes.add(chunk.len() as u64);
                        }
                    }
                }
                Err(e) => {
                    let response = Response::error(StatusCode::BadRequest, &e.to_string());
                    record_by_lookup(&reference, "invalid", "unparsed", &response, 0);
                }
            }
        }
        assert_eq!(
            served[0], served[1],
            "a second registry sees its own traffic"
        );
        assert_eq!(served[0], access_lines(&reference));
        assert!(
            served[0]
                .iter()
                .all(|l| !l.contains("route=\"/api/v1/users\"")),
            "an untouched route must not appear"
        );
    }

    fn idle_conn() -> Conn {
        let stream = TcpStream::connect(
            std::net::TcpListener::bind("127.0.0.1:0")
                .unwrap()
                .local_addr()
                .unwrap(),
        )
        .unwrap();
        Conn::new(stream, Duration::from_secs(1))
    }

    #[test]
    fn accumulate_tracks_head_and_body_completion() {
        let mut conn = idle_conn();
        assert!(!accumulate(&mut conn, b"POST /x HTTP/1.1\r\nContent-"));
        assert!(!accumulate(&mut conn, b"Length: 5\r\n\r\n"));
        assert!(!accumulate(&mut conn, b"he"));
        assert!(accumulate(&mut conn, b"llo"));
        let ConnState::Reading { buf, want, .. } = &conn.state else {
            panic!("still reading");
        };
        assert_eq!(*want, Some(buf.len()));
    }

    #[test]
    fn pipelined_bytes_stay_pending_after_dispatch() {
        let (state, router, registry) = app();
        let pool = WorkerPool::new(1, 8);
        let (done_tx, _done_rx) = mpsc::channel::<Completion>();
        let (waker, _wake_rx) = sys::wake_pair().unwrap();
        let metrics = ReactorMetrics::new(registry);
        let config = ReactorConfig::default();
        let ctx = Ctx {
            state: &state,
            router: &router,
            pool: &pool,
            done_tx: &done_tx,
            waker: &waker,
            metrics: &metrics,
            config: &config,
        };
        let mut conn = idle_conn();
        // Two complete requests in one segment: only the first goes to
        // the worker; the second waits in `pending`.
        assert!(accumulate(
            &mut conn,
            b"GET /api/v1/stats HTTP/1.1\r\n\r\nGET /api/v1/healthz HTTP/1.1\r\n\r\n"
        ));
        dispatch(0, &mut conn, &ctx);
        assert!(matches!(conn.state, ConnState::Dispatched));
        assert_eq!(conn.pending, b"GET /api/v1/healthz HTTP/1.1\r\n\r\n");
    }

    /// Builds a deterministically saturated pool: one parked worker,
    /// one filled queue slot. Returns the park release handle.
    fn saturated_pool() -> (WorkerPool, mpsc::Sender<()>) {
        let pool = WorkerPool::new(1, 1);
        let (park_tx, park_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.try_execute(move || {
            let _ = started_tx.send(());
            let _ = park_rx.recv();
        })
        .unwrap();
        started_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("worker picks up the parked job");
        pool.try_execute(|| {}).expect("queue slot is free");
        (pool, park_tx)
    }

    #[test]
    fn saturated_pool_503_advertises_retry_after_and_keeps_alive() {
        let (state, router, registry) = app();
        let (pool, park_tx) = saturated_pool();
        let (done_tx, _done_rx) = mpsc::channel::<Completion>();
        let (waker, _wake_rx) = sys::wake_pair().unwrap();
        let metrics = ReactorMetrics::new(registry);
        let config = ReactorConfig::default();
        let ctx = Ctx {
            state: &state,
            router: &router,
            pool: &pool,
            done_tx: &done_tx,
            waker: &waker,
            metrics: &metrics,
            config: &config,
        };
        let mut conn = idle_conn();
        assert!(accumulate(&mut conn, b"GET /api/v1/stats HTTP/1.1\r\n\r\n"));
        dispatch(0, &mut conn, &ctx);
        let ConnState::Writing { buf, then, .. } = &conn.state else {
            panic!("shed connection should be writing its 503");
        };
        let wire = String::from_utf8_lossy(buf);
        assert!(wire.starts_with("HTTP/1.1 503 "), "{wire}");
        assert!(wire.contains("worker queue full"), "{wire}");
        let head = &wire[..wire.find("\r\n\r\n").unwrap()];
        assert!(head.contains("Retry-After: 1"), "{head}");
        // The shed request negotiated keep-alive (HTTP/1.1, budget
        // left), so the 503 must not kill the client's pipeline.
        assert_eq!(*then, WriteThen::Continue);
        assert!(head.contains("Connection: keep-alive"), "{head}");
        let _ = park_tx.send(());
    }

    #[test]
    fn saturated_pool_503_honours_a_close_request() {
        let (state, router, registry) = app();
        let (pool, park_tx) = saturated_pool();
        let (done_tx, _done_rx) = mpsc::channel::<Completion>();
        let (waker, _wake_rx) = sys::wake_pair().unwrap();
        let metrics = ReactorMetrics::new(registry);
        let config = ReactorConfig::default();
        let ctx = Ctx {
            state: &state,
            router: &router,
            pool: &pool,
            done_tx: &done_tx,
            waker: &waker,
            metrics: &metrics,
            config: &config,
        };
        let mut conn = idle_conn();
        assert!(accumulate(
            &mut conn,
            b"GET /api/v1/stats HTTP/1.1\r\nConnection: close\r\n\r\n"
        ));
        dispatch(0, &mut conn, &ctx);
        let ConnState::Writing { buf, then, .. } = &conn.state else {
            panic!("shed connection should be writing its 503");
        };
        assert_eq!(*then, WriteThen::Close);
        assert!(
            String::from_utf8_lossy(buf).contains("Connection: close"),
            "client asked to close; the shed 503 must agree"
        );
        let _ = park_tx.send(());
    }

    #[test]
    fn over_cap_refusal_always_closes() {
        let mut conn = idle_conn();
        queue_response(
            &mut conn,
            Response::error(StatusCode::ServiceUnavailable, "connection limit reached"),
            false,
            Duration::from_secs(1),
        );
        let ConnState::Writing { buf, then, .. } = &conn.state else {
            panic!("refusal should be queued");
        };
        assert_eq!(*then, WriteThen::Close);
        assert!(String::from_utf8_lossy(buf).contains("Connection: close"));
    }

    #[test]
    fn accumulate_finalizes_untrustworthy_heads_without_waiting() {
        let mut conn = idle_conn();
        // Conflicting Content-Length: complete immediately (no body
        // wait), so the parser can answer 400 now.
        assert!(accumulate(
            &mut conn,
            b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 3\r\n\r\n"
        ));
    }

    /// A scripted producer: yields `chunks` in order, then the given
    /// terminal outcome. Counts how many times it was polled.
    struct Scripted {
        chunks: Vec<Vec<u8>>,
        polls: usize,
        fail_at_end: bool,
    }

    impl BodyStream for Scripted {
        fn next_chunk(&mut self) -> io::Result<Option<Vec<u8>>> {
            self.polls += 1;
            if self.chunks.is_empty() {
                if self.fail_at_end {
                    return Err(io::Error::other("producer died"));
                }
                return Ok(None);
            }
            Ok(Some(self.chunks.remove(0)))
        }
    }

    fn live(body: Box<dyn BodyStream>) -> LiveStream {
        let metrics = ReactorMetrics::new(MetricsRegistry::new());
        LiveStream::new(body, "/api/v1/export/checkins", &metrics)
    }

    #[test]
    fn refill_stops_at_the_budget_and_parks_the_producer() {
        // 10 chunks of 1 KiB against a 2 KiB budget: one refill must
        // pull only enough chunks to cross the budget, leaving the
        // rest unpolled (bounded memory under a stalled consumer).
        let mut stream = live(Box::new(Scripted {
            chunks: (0..10).map(|_| vec![b'x'; 1024]).collect(),
            polls: 0,
            fail_at_end: false,
        }));
        let (mut buf, mut written) = (Vec::new(), 0usize);
        refill_stream(&mut buf, &mut written, &mut stream, 2048).unwrap();
        assert!(buf.len() >= 2048, "window reaches the budget");
        assert!(
            buf.len() < 2048 + 1024 + 16,
            "window bounded by budget + one encoded chunk, got {}",
            buf.len()
        );
        assert!(!stream.done, "producer parked, not drained");
        assert_eq!(stream.streamed_chunks.get(), 2);
        assert_eq!(stream.streamed_bytes.get(), 2048);
    }

    #[test]
    fn refill_appends_the_terminal_chunk_exactly_once() {
        let mut stream = live(Box::new(Scripted {
            chunks: vec![b"ab".to_vec()],
            polls: 0,
            fail_at_end: false,
        }));
        let (mut buf, mut written) = (Vec::new(), 0usize);
        refill_stream(&mut buf, &mut written, &mut stream, 1 << 20).unwrap();
        assert!(stream.done);
        assert_eq!(buf, b"2\r\nab\r\n0\r\n\r\n");
        // A done stream refilled again would yield an empty window —
        // drive_write drops the stream before that can happen.
    }

    #[test]
    fn refill_propagates_producer_errors() {
        // An immediate failure (no chunks yielded) surfaces on the
        // first refill.
        let mut stream = live(Box::new(Scripted {
            chunks: vec![],
            polls: 0,
            fail_at_end: true,
        }));
        let (mut buf, mut written) = (Vec::new(), 0usize);
        let err = refill_stream(&mut buf, &mut written, &mut stream, 1 << 20).unwrap_err();
        assert_eq!(err.to_string(), "producer died");
        assert!(!stream.done, "an errored stream is never 'done'");
    }

    #[test]
    fn refill_holds_a_late_error_until_the_yielded_chunks_drain() {
        // A failure after a yielded chunk must not discard that chunk:
        // the first refill hands it over cleanly, the second surfaces
        // the held error (and the terminal chunk never appears).
        let mut stream = live(Box::new(Scripted {
            chunks: vec![b"ok".to_vec()],
            polls: 0,
            fail_at_end: true,
        }));
        let (mut buf, mut written) = (Vec::new(), 0usize);
        refill_stream(&mut buf, &mut written, &mut stream, 1 << 20).unwrap();
        assert_eq!(buf, b"2\r\nok\r\n", "the pre-failure chunk survives");
        assert!(!stream.done);
        let err = refill_stream(&mut buf, &mut written, &mut stream, 1 << 20).unwrap_err();
        assert_eq!(err.to_string(), "producer died");
        assert!(!stream.done, "an errored stream is never 'done'");
    }

    /// A connected TCP pair: (reactor side, client side).
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (server, client)
    }

    #[test]
    fn mid_stream_error_closes_without_terminal_chunk() {
        let (state, router, registry) = app();
        let pool = WorkerPool::new(1, 8);
        let (done_tx, _done_rx) = mpsc::channel::<Completion>();
        let (waker, _wake_rx) = sys::wake_pair().unwrap();
        let metrics = ReactorMetrics::new(registry);
        let config = ReactorConfig::default();
        let ctx = Ctx {
            state: &state,
            router: &router,
            pool: &pool,
            done_tx: &done_tx,
            waker: &waker,
            metrics: &metrics,
            config: &config,
        };
        let (server, mut client) = socket_pair();
        let mut conn = Conn::new(server, Duration::from_secs(5));
        let body: Box<dyn BodyStream> = Box::new(Scripted {
            chunks: vec![b"first chunk".to_vec()],
            polls: 0,
            fail_at_end: true,
        });
        conn.state = ConnState::Writing {
            buf: b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
            written: 0,
            then: WriteThen::Close,
            stream: Some(LiveStream::new(body, "/x", &metrics)),
        };
        assert!(matches!(drive(0, &mut conn, &ctx), Drive::Close));
        assert_eq!(metrics.stream_aborts.get(), 1);
        drop(conn); // the reactor would remove the conn: FIN reaches the client
        let mut got = Vec::new();
        client.read_to_end(&mut got).unwrap();
        let wire = String::from_utf8_lossy(&got);
        assert!(wire.contains("b\r\nfirst chunk\r\n"), "{wire}");
        assert!(
            !wire.ends_with("0\r\n\r\n"),
            "terminal chunk must be absent so the client sees truncation: {wire}"
        );
    }

    #[test]
    fn streamed_keep_alive_response_returns_to_reading() {
        let (state, router, registry) = app();
        let pool = WorkerPool::new(1, 8);
        let (done_tx, _done_rx) = mpsc::channel::<Completion>();
        let (waker, _wake_rx) = sys::wake_pair().unwrap();
        let metrics = ReactorMetrics::new(registry);
        let config = ReactorConfig::default();
        let ctx = Ctx {
            state: &state,
            router: &router,
            pool: &pool,
            done_tx: &done_tx,
            waker: &waker,
            metrics: &metrics,
            config: &config,
        };
        let (server, mut client) = socket_pair();
        let mut conn = Conn::new(server, Duration::from_secs(5));
        let body: Box<dyn BodyStream> = Box::new(Scripted {
            chunks: vec![b"hello".to_vec(), b"world".to_vec()],
            polls: 0,
            fail_at_end: false,
        });
        conn.pending = b"GET /api/v1/healthz HTTP/1.1\r\n\r\n".to_vec();
        conn.state = ConnState::Writing {
            buf: b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
            written: 0,
            then: WriteThen::Continue,
            stream: Some(LiveStream::new(body, "/x", &metrics)),
        };
        // The drive loop drains the stream, then rolls into Reading and
        // dispatches the pipelined request (state becomes Dispatched).
        assert!(matches!(drive(0, &mut conn, &ctx), Drive::Progress));
        assert!(
            matches!(conn.state, ConnState::Dispatched),
            "pipelined follow-up dispatched after the stream drained"
        );
        assert_eq!(conn.served, 1);
        // The full chunked body, terminal chunk included, hit the wire.
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut got = vec![0u8; 1024];
        let mut len = 0;
        while !String::from_utf8_lossy(&got[..len]).contains("0\r\n\r\n") {
            let n = client.read(&mut got[len..]).unwrap();
            assert!(n > 0, "socket closed before the terminal chunk");
            len += n;
        }
        let wire = String::from_utf8_lossy(&got[..len]);
        assert!(
            wire.contains("5\r\nhello\r\n5\r\nworld\r\n0\r\n\r\n"),
            "{wire}"
        );
    }

    /// A request the probe can answer is served by `dispatch` itself,
    /// even with every worker busy and the job queue full; only a
    /// request that needs a worker is shed.
    #[test]
    fn saturated_pool_still_serves_memo_hits_and_revalidations() {
        let (state, router, registry) = app();
        let warm = Request::read_from(&b"GET /api/v1/crowd?hour=9 HTTP/1.1\r\n\r\n"[..]).unwrap();
        assert_eq!(router.route(&state, &warm).status.code(), 200);
        let (pool, park_tx) = saturated_pool();
        let (done_tx, _done_rx) = mpsc::channel::<Completion>();
        let (waker, _wake_rx) = sys::wake_pair().unwrap();
        let metrics = ReactorMetrics::new(registry);
        let config = ReactorConfig::default();
        let ctx = Ctx {
            state: &state,
            router: &router,
            pool: &pool,
            done_tx: &done_tx,
            waker: &waker,
            metrics: &metrics,
            config: &config,
        };
        let answer = |raw: &str| {
            let mut conn = idle_conn();
            assert!(accumulate(&mut conn, raw.as_bytes()));
            assert!(matches!(dispatch(0, &mut conn, &ctx), Drive::Progress));
            let ConnState::Writing { buf, then, .. } = &conn.state else {
                panic!("{raw:?} should be answered by the loop");
            };
            assert_eq!(*then, WriteThen::Continue, "{raw:?} keeps alive");
            String::from_utf8_lossy(buf).into_owned()
        };
        let etag = format!("\"{}-e0\"", state.default_city_id());
        let hit = answer("GET /api/v1/crowd?hour=9 HTTP/1.1\r\n\r\n");
        assert!(hit.starts_with("HTTP/1.1 200 "), "{hit}");
        assert!(hit.contains(&format!("ETag: {etag}\r\n")), "{hit}");
        let revalidated = answer(&format!(
            "GET /api/v1/crowd?hour=9 HTTP/1.1\r\nIf-None-Match: {etag}\r\n\r\n"
        ));
        assert!(revalidated.starts_with("HTTP/1.1 304 "), "{revalidated}");
        assert_eq!(metrics.rejected_busy.get(), 0, "nothing was shed");
        // A memo miss and a POST need a worker: shed as before.
        for raw in [
            "GET /api/v1/crowd?hour=10 HTTP/1.1\r\n\r\n",
            "POST /api/v1/checkins HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
        ] {
            let shed = answer(raw);
            assert!(shed.starts_with("HTTP/1.1 503 "), "{shed}");
            assert!(shed.contains("Retry-After: 1\r\n"), "{shed}");
        }
        assert_eq!(metrics.rejected_busy.get(), 2);
        let _ = park_tx.send(());
    }

    /// The probe answers a hit and a `304` with the pool path's exact
    /// bytes, declines everything else without recording anything, and
    /// a mixed run counts what an all-pool run counts.
    #[test]
    fn probe_answers_exactly_what_the_pool_would() {
        use crate::api::tests::{advance_epoch, memo_cases, state_with};
        use crowdweb_exec::Parallelism;
        let router = api::build_router();
        // Identical platforms: `mixed` tries the probe first and falls
        // back to the pool, `pool` only ever uses the pool.
        let (mixed, pool) = (
            state_with(Parallelism::Sequential, 16),
            state_with(Parallelism::Sequential, 16),
        );
        for s in [&mixed, &pool] {
            for step in 0..2 {
                advance_epoch(&router, s, step);
            }
        }
        let wire = |response: Response, keep: bool| {
            let mut out = Vec::new();
            response.write_to_with(&mut out, keep).unwrap();
            out
        };
        // Serves `raw` on both platforms, checks the bytes agree and
        // returns whether the probe answered.
        let serve = |raw: &str| {
            let raw = raw.as_bytes();
            let (response, keep, _) =
                execute(raw, true, &pool, &router, pool.metrics(), Instant::now()).unwrap();
            let expected = wire(response, keep);
            let before = mixed.metrics().render();
            let (got, answered) =
                match probe(raw, true, &mixed, &router, mixed.metrics(), Instant::now()) {
                    Probed::Answered(response, keep) => (wire(response, keep), true),
                    Probed::Declined => {
                        assert_eq!(
                            mixed.metrics().render(),
                            before,
                            "a decline records nothing"
                        );
                        let (response, keep, _) =
                            execute(raw, true, &mixed, &router, mixed.metrics(), Instant::now())
                                .unwrap();
                        (wire(response, keep), false)
                    }
                    Probed::Panicked => panic!("the probe panicked"),
                };
            let shown = String::from_utf8_lossy(raw);
            assert_eq!(
                String::from_utf8_lossy(&got),
                String::from_utf8_lossy(&expected),
                "{shown}"
            );
            answered
        };
        let city = mixed.default_city_id().to_owned();
        let mut memoized = std::collections::HashSet::new();
        for prefix in [
            "/api/v1/".to_owned(),
            "/api/".to_owned(),
            format!("/api/v1/cities/{city}/"),
        ] {
            for epoch in [None, Some(1)] {
                for (suffix, view) in memo_cases() {
                    let path = match epoch {
                        None => format!("{prefix}{suffix}"),
                        Some(n) => format!("{prefix}{suffix}&epoch={n}"),
                    };
                    let get = format!("GET {path} HTTP/1.1\r\n\r\n");
                    let miss = memoized.insert((epoch, view));
                    assert_eq!(serve(&get), !miss, "{path}: declined iff a miss");
                    assert!(serve(&get), "{path}: a hit is answered");
                    let etag = format!("\"{city}-e{}\"", epoch.unwrap_or(2));
                    let revalidate =
                        format!("GET {path} HTTP/1.1\r\nIf-None-Match: {etag}\r\n\r\n");
                    assert!(serve(&revalidate), "{path}: a 304 is answered");
                }
            }
        }
        for path in [
            "/api/v1/crowd?hour=99",
            "/api/crowd/map?hour=9&label=x",
            "/api/v1/cities/nyc/tiles/2/9/0",
            "/api/v1/crowd/flows?from=9&to=10&epoch=x",
            "/api/v1/crowd/geojson?hour=9&epoch=999",
            "/api/v1/cities/atlantis/crowd?hour=9",
            "/api/v1/stats",
        ] {
            assert!(!serve(&format!("GET {path} HTTP/1.1\r\n\r\n")), "{path}");
        }
        assert!(!serve(
            "POST /api/v1/crowd HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
        ));
        let counts = |s: &AppState| -> Vec<String> {
            s.metrics()
                .render()
                .lines()
                .filter(|l| {
                    [
                        "crowdweb_render_memo_hits_total",
                        "crowdweb_render_memo_misses_total",
                        "crowdweb_http_requests_total",
                        "crowdweb_http_requests_by_city_total",
                    ]
                    .iter()
                    .any(|name| l.starts_with(name))
                })
                .map(str::to_owned)
                .collect()
        };
        assert!(counts(&mixed).len() > 10, "{:?}", counts(&mixed));
        assert_eq!(counts(&mixed), counts(&pool));
    }

    /// A connection pipelining several memo hits gets one answer per
    /// drive, in order; the rest wait in its buffer for later passes
    /// instead of for a readiness event that will never come.
    #[test]
    fn pipelined_probe_answers_take_one_drive_each() {
        let (state, router, registry) = app();
        let paths = [
            "/api/v1/crowd?hour=9",
            "/api/v1/crowd/geojson?hour=9",
            "/api/v1/crowd/map?hour=9",
        ];
        let mut expected = Vec::new();
        for path in paths {
            let raw = format!("GET {path} HTTP/1.1\r\n\r\n");
            let request = Request::read_from(raw.as_bytes()).unwrap();
            let mut wire = Vec::new();
            let response = router.route(&state, &request);
            assert_eq!(response.status.code(), 200, "{path}");
            response.write_to_with(&mut wire, true).unwrap();
            expected.extend(wire);
        }
        // No worker can run: every answer below comes from the probe.
        let (pool, park_tx) = saturated_pool();
        let (done_tx, _done_rx) = mpsc::channel::<Completion>();
        let (waker, _wake_rx) = sys::wake_pair().unwrap();
        let metrics = ReactorMetrics::new(registry);
        let config = ReactorConfig::default();
        let ctx = Ctx {
            state: &state,
            router: &router,
            pool: &pool,
            done_tx: &done_tx,
            waker: &waker,
            metrics: &metrics,
            config: &config,
        };
        let (server, mut client) = socket_pair();
        let mut conn = Conn::new(server, Duration::from_secs(5));
        let pipelined: String = paths
            .iter()
            .map(|path| format!("GET {path} HTTP/1.1\r\n\r\n"))
            .collect();
        assert!(accumulate(&mut conn, pipelined.as_bytes()));
        assert!(matches!(drive(0, &mut conn, &ctx), Drive::Yield));
        assert_eq!(conn.served, 1);
        assert!(matches!(drive(0, &mut conn, &ctx), Drive::Yield));
        assert_eq!(conn.served, 2);
        assert!(matches!(drive(0, &mut conn, &ctx), Drive::Progress));
        assert_eq!(conn.served, 3);
        assert_eq!(metrics.rejected_busy.get(), 0);
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut got = vec![0u8; expected.len()];
        client.read_exact(&mut got).unwrap();
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&expected),
            "answered in request order"
        );
        let _ = park_tx.send(());
    }

    /// Runs the event loop over `router` on a background thread.
    /// Returns the address, the metrics and a stop function.
    fn serve_loop(
        router: Router<AppState>,
    ) -> (std::net::SocketAddr, MetricsRegistry, impl FnOnce()) {
        let (state, _, registry) = app();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let join = std::thread::spawn(move || {
            run(
                listener,
                state,
                Arc::new(router),
                flag,
                ReactorConfig::default(),
            )
        });
        let stop = move || {
            shutdown.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(addr);
            join.join().unwrap();
        };
        (addr, registry, stop)
    }

    /// Reads one `Content-Length`-framed response off a kept-alive
    /// connection.
    fn read_response(stream: &mut TcpStream) -> String {
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            assert_eq!(stream.read(&mut byte).unwrap(), 1, "closed mid-head");
            head.push(byte[0]);
        }
        let head = String::from_utf8(head).unwrap();
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        let mut body = vec![0u8; length];
        stream.read_exact(&mut body).unwrap();
        head + &String::from_utf8(body).unwrap()
    }

    /// Through the real loop: memo hits pipelined in one write are all
    /// answered, in order, although only the first had a readiness event.
    #[test]
    fn the_loop_answers_every_pipelined_memo_hit() {
        let (addr, registry, stop) = serve_loop(api::build_router());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let paths = ["crowd?hour=9", "crowd/geojson?hour=9", "crowd/flows"];
        // The first reads render on a worker and fill the memo.
        let mut first = Vec::new();
        for path in paths {
            write!(stream, "GET /api/v1/{path} HTTP/1.1\r\n\r\n").unwrap();
            let response = read_response(&mut stream);
            assert!(response.starts_with("HTTP/1.1 200 "), "{response}");
            first.push(response);
        }
        let pipelined: String = paths
            .iter()
            .map(|path| format!("GET /api/v1/{path} HTTP/1.1\r\n\r\n"))
            .collect();
        let sent = Instant::now();
        stream.write_all(pipelined.as_bytes()).unwrap();
        for expected in &first {
            assert_eq!(&read_response(&mut stream), expected);
        }
        // Each yielded request is driven by a zero-timeout pass, not
        // left for the wait's park backstop to pick up.
        assert!(
            sent.elapsed() < sys::MAX_PARK,
            "pipelined answers waited {:?}",
            sent.elapsed()
        );
        let hits: u64 = ["crowd", "crowd/geojson", "crowd/flows"]
            .iter()
            .map(|view| {
                registry
                    .counter_value("crowdweb_render_memo_hits_total", &[("view", view)])
                    .unwrap()
            })
            .sum();
        assert_eq!(hits, 3, "the pipelined reads were memo hits");
        drop(stream);
        stop();
    }

    /// A panicking probe costs only its own connection: it is dropped
    /// unanswered, and the loop goes on serving others.
    #[test]
    fn a_panicking_probe_drops_only_its_connection() {
        let mut router: Router<AppState> = Router::new();
        router.get_probed(
            &["/boom"],
            |_, _, _| Response::json("{}".into()),
            |_, _, _| panic!("probe failure"),
        );
        router.get("/ok", |_, _, _| Response::json("\"ok\"".into()));
        let (addr, _, stop) = serve_loop(router);
        let mut doomed = TcpStream::connect(addr).unwrap();
        doomed
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        doomed.write_all(b"GET /boom HTTP/1.1\r\n\r\n").unwrap();
        let mut got = Vec::new();
        let _ = doomed.read_to_end(&mut got);
        assert!(got.is_empty(), "a panicking probe answers nothing: {got:?}");
        let mut healthy = TcpStream::connect(addr).unwrap();
        healthy
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        healthy.write_all(b"GET /ok HTTP/1.1\r\n\r\n").unwrap();
        let response = read_response(&mut healthy);
        assert!(response.starts_with("HTTP/1.1 200 "), "{response}");
        assert!(response.ends_with("\"ok\""), "{response}");
        drop(healthy);
        stop();
    }
}
