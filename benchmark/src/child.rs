//! The server under test as a child process, and the state it builds.
//!
//! The benchmark re-executes its own binary as `crowdweb-benchmark
//! serve`, which loads the generated TSV with `tsv::load_path` and
//! builds `AppState` the way `crowdweb serve --tsv` does, with a WAL
//! added for the durable workloads. The parent only ever talks to it
//! over TCP.

use crowdweb_dataset::{Dataset, MergeRecord};
use crowdweb_ingest::{IngestConfig, ShardedIngestEngine, WalConfig};
use crowdweb_loadgen::client;
use crowdweb_prep::Preprocessor;
use crowdweb_server::state::{DEFAULT_GRID_SIDE, DEFAULT_MIN_SUPPORT};
use crowdweb_server::{AppState, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a child may take from spawn to its first healthy answer.
const SETUP_DEADLINE: Duration = Duration::from_secs(150);

/// The platform state the server serves: `AppState::build` as
/// `crowdweb serve --tsv` calls it, or, with a WAL directory, the same
/// configuration plus the WAL.
///
/// # Errors
///
/// Propagates WAL recovery and pipeline failures.
pub fn app_state(
    dataset: Dataset,
    min_days: usize,
    wal: Option<&Path>,
) -> Result<AppState, String> {
    let state = match wal {
        None => AppState::build(dataset, min_days),
        Some(dir) => AppState::with_config(dataset, durable_config(min_days, dir, 0)),
    };
    state.map_err(|e| format!("building the platform state: {e}"))
}

/// The ingest configuration `AppState::build` uses, plus a WAL under
/// `dir`. `shards` 0 means one per core, the server default.
fn durable_config(min_days: usize, dir: &Path, shards: usize) -> IngestConfig {
    IngestConfig {
        preprocessor: Preprocessor::new().min_active_days(min_days),
        min_support: DEFAULT_MIN_SUPPORT,
        grid_rows: DEFAULT_GRID_SIDE,
        grid_cols: DEFAULT_GRID_SIDE,
        wal: Some(WalConfig::new(dir)),
        shards,
        ..IngestConfig::default()
    }
}

/// Builds a 2-shard WAL under `dir` holding `records`, through the
/// public engine API: open over the base dataset, submit in batches,
/// drop without an epoch so every record waits in the log for replay.
/// The queue is sized so that either shard could hold them all.
///
/// # Errors
///
/// Propagates engine and WAL failures.
pub fn build_wal(
    base: Dataset,
    records: &[MergeRecord],
    min_days: usize,
    dir: &Path,
) -> Result<(), String> {
    let config = IngestConfig {
        queue_capacity: (2 * records.len()).max(IngestConfig::default().queue_capacity),
        ..durable_config(min_days, dir, 2)
    };
    let engine = ShardedIngestEngine::open(base, config)
        .map_err(|e| format!("opening the prefill engine: {e}"))?;
    for batch in records.chunks(1000) {
        engine
            .submit(batch.to_vec())
            .map_err(|e| format!("prefilling the WAL: {e}"))?;
    }
    Ok(())
}

/// The `serve` subcommand: builds the state and serves until killed,
/// announcing `listening <addr>` on stdout once bound.
///
/// # Errors
///
/// Fails when the TSV does not load, the state does not build or the
/// port does not bind.
pub fn serve(tsv: &Path, min_days: usize, wal: Option<&Path>) -> Result<(), String> {
    let dataset = crowdweb_dataset::tsv::load_path(tsv)
        .map_err(|e| format!("loading {}: {e}", tsv.display()))?;
    let server = Server::bind("127.0.0.1:0", app_state(dataset, min_days, wal)?)
        .map_err(|e| format!("binding: {e}"))?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "listening {}", server.local_addr()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    drop(out);
    server.run();
    Ok(())
}

/// A running server child. Dropping it kills the process and waits for
/// it.
#[derive(Debug)]
pub struct ServerChild {
    child: Child,
    /// Held so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The bound address.
    pub addr: SocketAddr,
    /// Seconds from spawn to the first 2xx `GET /api/v1/healthz`: TSV
    /// load, WAL replay, cold build and bind.
    pub setup_secs: f64,
}

impl ServerChild {
    /// Spawns `exe serve` over `tsv` and waits until it answers
    /// `/api/v1/healthz` with a 2xx.
    ///
    /// # Errors
    ///
    /// Fails when the child cannot start, exits before binding or
    /// stays unhealthy past the set-up deadline.
    pub fn spawn(
        exe: &Path,
        tsv: &Path,
        min_days: usize,
        wal: Option<&Path>,
    ) -> Result<ServerChild, String> {
        let started = Instant::now();
        let mut command = Command::new(exe);
        command
            .arg("serve")
            .arg("--tsv")
            .arg(tsv)
            .arg("--min-active-days")
            .arg(min_days.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        if let Some(dir) = wal {
            command.arg("--wal").arg(dir);
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("spawning the server: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let Some(addr) = addr.filter(|_| read.is_ok()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("the server exited before binding ({line:?})"));
        };
        let mut server = ServerChild {
            child,
            _stdout: stdout,
            addr,
            setup_secs: 0.0,
        };
        loop {
            match client::request(addr, "/api/v1/healthz", None, Duration::from_secs(5)) {
                Ok(r) if r.is_success() => break,
                _ if started.elapsed() > SETUP_DEADLINE => {
                    return Err("the server never became healthy".to_owned())
                }
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        server.setup_secs = started.elapsed().as_secs_f64();
        Ok(server)
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
