//! **Server S2** — connection scaling.
//!
//! Two experiments, one TSV (`out/connection_scaling.tsv`; the
//! `CROWDWEB_SCALE_ONLY=1` spot check writes its row to
//! `target/release/connection_scaling.tsv` instead):
//!
//! **S2a (slow-drip)** — the evented reactor vs the old
//! thread-per-connection pool under slowloris load. A legacy
//! thread-per-connection server (rebuilt inline from the same public
//! pieces) must wait for slow clients to time out in worker-sized waves
//! before a fast client gets through; the reactor multiplexes every
//! connection on one event thread, so time-to-first-response stays flat
//! in the number of slow-drip connections.
//!
//! **S2b (keep-alive gate)** — the ISSUE 8 acceptance run: hold
//! thousands of primed keep-alive connections (10k by default) against
//! one reactor and measure first-byte dispatch percentiles through the
//! crowd, plus the server's idle CPU while all of them sit parked.
//! Client and server each need ~one fd per connection, which together
//! would overflow this box's un-raisable 20k fd limit — so the server
//! runs as a re-exec'd child process (`CROWDWEB_CONNSCALE_SERVER=1`)
//! and each side budgets its own limit.
//!
//! Knobs: `CROWDWEB_SCALE_CONNS=N` overrides the 10k target,
//! `CROWDWEB_SCALE_ONLY=1` skips S2a (the CI spot check uses both).

use crowdweb_bench::banner;
use crowdweb_exec::WorkerPool;
use crowdweb_server::{api, sys, AppState, Request, Router, Server};
use crowdweb_synth::SynthConfig;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const DRIP_COUNTS: [usize; 3] = [0, 8, 64];
const READ_TIMEOUT: Duration = Duration::from_millis(300);
const FAST_REQUESTS: usize = 32;
const PROBES: usize = 200;
/// Fds held back from the limit for the binary itself (stdio, the
/// probe/scrape sockets, dataset files, slack for the allocator).
const FD_MARGIN: u64 = 1024;

fn app_state() -> AppState {
    let dataset = SynthConfig::small(91).users(10).generate().unwrap();
    AppState::build(dataset, 10).unwrap()
}

fn main() {
    if std::env::var_os("CROWDWEB_CONNSCALE_SERVER").is_some() {
        run_server_child();
        return;
    }
    banner(
        "Server: connection scaling — slow-drip latency + the 10k keep-alive gate",
        "reactor first-response stays flat vs drips; 10k kept-alive conns, sub-ms p50 dispatch, idle CPU ~0",
    );
    let mut rows: Vec<String> = Vec::new();
    let scale_only = std::env::var_os("CROWDWEB_SCALE_ONLY").is_some();
    if !scale_only {
        drip_section(&mut rows);
    }
    keepalive_section(&mut rows);
    // The spot check is a gate, not a record: its row goes beside the
    // bench binary's profile directory (`target/release/`), so a gate
    // run never rewrites the committed S2 table.
    let dir = if scale_only {
        let exe = std::env::current_exe().unwrap();
        exe.parent()
            .and_then(std::path::Path::parent)
            .expect("bench binaries live in <target>/<profile>/deps")
            .to_path_buf()
    } else {
        std::path::PathBuf::from("out")
    };
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("connection_scaling.tsv");
    std::fs::write(&path, format!("{}\n", rows.join("\n"))).unwrap();
    println!("wrote {}", path.display());
}

// ---------------------------------------------------------------- child

/// The re-exec'd server half of S2b: bind, announce the address on
/// stdout, serve until the parent kills the process.
fn run_server_child() {
    let server = Server::bind("127.0.0.1:0", app_state())
        .unwrap()
        .max_connections(16_000)
        .workers(4)
        .keep_alive_requests(1_000_000)
        .keep_alive_idle(Duration::from_secs(600));
    println!("CONNSCALE_ADDR {}", server.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush().unwrap();
    server.run();
}

// ------------------------------------------------------------ S2a: drip

fn http_get(addr: SocketAddr, path: &str) -> u16 {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut buf = String::new();
    stream.read_to_string(&mut buf).unwrap();
    buf.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// The pre-reactor server shape: one blocking accept loop feeding whole
/// sockets to a bounded worker pool, slow clients reaped only by the
/// per-socket read timeout.
fn spawn_threadpool(state: Arc<AppState>) -> (SocketAddr, Arc<AtomicBool>, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let join = std::thread::spawn(move || {
        let router = Arc::new(api::build_router());
        let pool = WorkerPool::new(8, 32);
        for stream in listener.incoming() {
            if flag.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let state = Arc::clone(&state);
            let router: Arc<Router<AppState>> = Arc::clone(&router);
            // `execute` blocks when the queue is full — exactly the old
            // accept-loop behaviour under pressure.
            pool.execute(move || {
                let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
                if let Ok(request) = Request::read_from(&stream) {
                    let (response, _) = router.dispatch(&state, &request);
                    let _ = response.write_to(&stream);
                }
            });
        }
        drop(pool);
    });
    (addr, stop, join)
}

/// Opens `n` connections that drip a partial request head and hold the
/// socket open.
fn open_drips(addr: SocketAddr, n: usize) -> Vec<TcpStream> {
    (0..n)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            write!(s, "GET /api/healthz HTTP/1.1\r\nX-Drip: 1\r\n").unwrap();
            s
        })
        .collect()
}

/// Time-to-first-response for a fast client behind `drips` slow ones,
/// then sequential fast-request throughput.
fn measure(addr: SocketAddr, drips: usize) -> (u128, u128, f64) {
    let held = open_drips(addr, drips);
    std::thread::sleep(Duration::from_millis(100));
    let t0 = Instant::now();
    assert_eq!(http_get(addr, "/api/healthz"), 200);
    let first_response_us = t0.elapsed().as_micros();
    let t1 = Instant::now();
    for _ in 0..FAST_REQUESTS {
        assert_eq!(http_get(addr, "/api/healthz"), 200);
    }
    let total_us = t1.elapsed().as_micros();
    let req_per_s = FAST_REQUESTS as f64 / (total_us as f64 / 1e6);
    drop(held);
    (first_response_us, total_us, req_per_s)
}

fn drip_section(rows: &mut Vec<String>) {
    println!(
        "{:>12} {:>12} {:>18} {:>10} {:>12} {:>10}",
        "model", "slow_conns", "first_response_us", "requests", "total_us", "req_per_s"
    );
    rows.push("# S2a: fast-client latency vs slow-drip connection count".to_owned());
    rows.push("model\tslow_conns\tfirst_response_us\trequests\ttotal_us\treq_per_s".to_owned());
    for drips in DRIP_COUNTS {
        let (addr, stop, join) = spawn_threadpool(Arc::new(app_state()));
        let (first, total, rps) = measure(addr, drips);
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr); // poke the blocking accept
        join.join().unwrap();
        println!(
            "{:>12} {drips:>12} {first:>18} {FAST_REQUESTS:>10} {total:>12} {rps:>10.0}",
            "threadpool"
        );
        rows.push(format!(
            "threadpool\t{drips}\t{first}\t{FAST_REQUESTS}\t{total}\t{rps:.0}"
        ));
    }
    for drips in DRIP_COUNTS {
        let (addr, handle, join) = Server::bind("127.0.0.1:0", app_state())
            .unwrap()
            .read_timeout(Duration::from_secs(30))
            .spawn();
        let (first, total, rps) = measure(addr, drips);
        handle.shutdown();
        join.join().unwrap();
        println!(
            "{:>12} {drips:>12} {first:>18} {FAST_REQUESTS:>10} {total:>12} {rps:>10.0}",
            "reactor"
        );
        rows.push(format!(
            "reactor\t{drips}\t{first}\t{FAST_REQUESTS}\t{total}\t{rps:.0}"
        ));
    }
}

// ------------------------------------------------- S2b: keep-alive gate

/// Writes one keep-alive GET and reads one Content-Length-framed
/// response off `reader`, returning the time from send to first
/// response byte.
fn keepalive_roundtrip(reader: &mut BufReader<TcpStream>, path: &str) -> Duration {
    // One buffer, one write: a request split across writes stalls
    // ~40ms on Nagle + delayed ACK once the connection is warm, which
    // would drown the dispatch latency being measured.
    let request = format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n");
    reader.get_mut().write_all(request.as_bytes()).unwrap();
    reader.get_mut().flush().unwrap();
    let sent = Instant::now();
    let mut first_byte = None;
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        assert!(
            reader.read(&mut byte).unwrap() > 0,
            "server closed mid-response"
        );
        first_byte.get_or_insert_with(|| sent.elapsed());
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).unwrap();
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().unwrap())
        })
        .expect("framed response");
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    first_byte.unwrap()
}

/// Scrapes one unlabeled gauge from the child's /api/metrics.
fn scrape_gauge(addr: SocketAddr, name: &str) -> Option<f64> {
    let mut stream = TcpStream::connect(addr).ok()?;
    write!(
        stream,
        "GET /api/metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )
    .ok()?;
    let mut text = String::new();
    stream.read_to_string(&mut text).ok()?;
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}

/// (utime + stime) of a process in clock ticks, from /proc/<pid>/stat.
fn cpu_ticks(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields 14 and 15, counted after the parenthesized comm (which may
    // itself contain spaces).
    let after_comm = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx]
}

fn keepalive_section(rows: &mut Vec<String>) {
    let target: usize = std::env::var("CROWDWEB_SCALE_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    // The client side holds one fd per connection: clamp to this
    // process's limit and say so — a silent cap would read as "10k
    // held" when it wasn't.
    let limit = sys::open_file_limit().unwrap_or(u64::MAX);
    let conns = target.min(limit.saturating_sub(FD_MARGIN) as usize);
    if conns < target {
        println!(
            "note: fd limit {limit} clamps the keep-alive gate to {conns} connections \
             (asked for {target})"
        );
    }

    // The server runs as a re-exec'd child so each side spends its own
    // fd budget (20k here would not cover 2×10k in one process).
    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .env("CROWDWEB_CONNSCALE_SERVER", "1")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .expect("re-exec the bench as the server child");
    let addr: SocketAddr = {
        let stdout = child.stdout.take().expect("child stdout piped");
        let mut lines = BufReader::new(stdout).lines();
        loop {
            let line = lines
                .next()
                .expect("child announces its address")
                .expect("child stdout readable");
            if let Some(addr) = line.strip_prefix("CONNSCALE_ADDR ") {
                break addr.parse().expect("child address parses");
            }
        }
    };

    // Open and prime the crowd: every connection serves one real
    // request, proving it is a live kept-alive connection rather than
    // an unaccepted socket in a backlog.
    println!("priming {conns} keep-alive connections against {addr} ...");
    let t0 = Instant::now();
    let threads = 16;
    let held: Vec<BufReader<TcpStream>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let share = conns / threads + usize::from(t < conns % threads);
                    let mut out = Vec::with_capacity(share);
                    for _ in 0..share {
                        let stream = connect_with_retry(addr);
                        let mut reader = BufReader::new(stream);
                        keepalive_roundtrip(&mut reader, "/api/v1/healthz");
                        out.push(reader);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("primer threads do not panic"))
            .collect()
    });
    println!(
        "primed {} connections in {:.1}s",
        held.len(),
        t0.elapsed().as_secs_f64()
    );

    // The server's own view must agree that the whole crowd is open.
    let open = scrape_gauge(addr, "crowdweb_server_open_connections").unwrap_or(0.0) as usize;
    assert!(
        open >= held.len(),
        "server reports {open} open connections, client holds {}",
        held.len()
    );

    // Idle CPU: with every connection parked, the event loop should be
    // blocked in poll, not ticking.
    let pid = child.id();
    let ticks_before = cpu_ticks(pid);
    let idle_window = Duration::from_secs(2);
    std::thread::sleep(idle_window);
    let idle_cpu_pct = match (ticks_before, cpu_ticks(pid)) {
        (Some(a), Some(b)) => {
            // CLK_TCK is 100 on every Linux this runs on.
            (b.saturating_sub(a)) as f64 / 100.0 / idle_window.as_secs_f64() * 100.0
        }
        _ => f64::NAN,
    };

    // First-byte dispatch latency through the standing crowd, on a
    // fresh kept-alive probe connection.
    let mut probe = BufReader::new(connect_with_retry(addr));
    keepalive_roundtrip(&mut probe, "/api/v1/healthz"); // warm
    let mut lat_us: Vec<u64> = (0..PROBES)
        .map(|_| keepalive_roundtrip(&mut probe, "/api/v1/healthz").as_micros() as u64)
        .collect();
    lat_us.sort_unstable();
    let (p50, p90, p99) = (
        percentile(&lat_us, 0.50),
        percentile(&lat_us, 0.90),
        percentile(&lat_us, 0.99),
    );

    println!(
        "{:>12} {:>8} {:>8} {:>8} {:>8} {:>14} {:>12}",
        "held_conns", "probes", "p50_us", "p90_us", "p99_us", "idle_cpu_pct", "server_open"
    );
    println!(
        "{:>12} {:>8} {p50:>8} {p90:>8} {p99:>8} {idle_cpu_pct:>14.2} {open:>12}",
        held.len(),
        PROBES,
    );
    rows.push("# S2b: first-byte dispatch with a standing keep-alive crowd".to_owned());
    rows.push("held_conns\tprobes\tp50_us\tp90_us\tp99_us\tidle_cpu_pct\tserver_open".to_owned());
    rows.push(format!(
        "{}\t{PROBES}\t{p50}\t{p90}\t{p99}\t{idle_cpu_pct:.2}\t{open}",
        held.len()
    ));

    drop(probe);
    drop(held);
    let _ = child.kill();
    let _ = child.wait();
}

/// Connects, absorbing transient accept-backlog pressure during the
/// storm with a few timed retries.
fn connect_with_retry(addr: SocketAddr) -> TcpStream {
    for attempt in 0..5 {
        match TcpStream::connect_timeout(&addr, Duration::from_secs(10)) {
            Ok(s) => {
                let _ = s.set_nodelay(true);
                return s;
            }
            Err(e) if attempt == 4 => panic!("connect to {addr} failed after retries: {e}"),
            Err(_) => std::thread::sleep(Duration::from_millis(50 << attempt)),
        }
    }
    unreachable!()
}
