//! One benchmark run: inputs, server set-up, timed load, correctness
//! gate and, with `--trace 1`, the in-process traced replay.
//!
//! Everything a run reads or writes lives under `.bench_out/` in the
//! working directory: per-seed inputs are cached in
//! `.bench_out/cache/` (untimed), and each run writes
//! `.bench_out/<workload>-s<seed>/result.json` (plus `spans.jsonl` when
//! traced).

use crate::child::{self, ServerChild};
use crate::gate;
use crate::generator::{self, Class, Event, Schedule};
use crate::proc_stat;
use crate::report::{Metrics, TimedRun};
use crate::traced;
use crate::workload::Workload;
use crowdweb_dataset::Dataset;
use crowdweb_loadgen::Trace;
use serde_json::Value;
use std::path::{Path, PathBuf};

/// Server set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Senders the generator uses, capped by the machine's cores.
const SENDERS: usize = 2;

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Small dataset, low rates: the test-suite mode.
    pub quick: bool,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Metrics,
    /// Every failed gate check; empty when the run is correct.
    pub failures: Vec<String>,
    /// Generator requests sent.
    pub attempted: usize,
    /// Of those, failed or refused.
    pub failed: usize,
}

/// Runs one workload in `root` (the checkout), re-executing `exe` as
/// the server.
///
/// # Errors
///
/// Harness failures: inputs that cannot be built, a server that never
/// becomes healthy, a traced replay that cannot run. A wrong server
/// state is not an error but a gate failure in the [`Outcome`].
pub fn run(args: &RunArgs, exe: &Path, root: &Path) -> Result<Outcome, String> {
    let w = args.workload;
    let min_days = Workload::min_active_days(args.quick);
    let tag = if args.quick { "quick-" } else { "" };
    let out = root.join(".bench_out");
    let cache = out
        .join("cache")
        .join(format!("{tag}s{seed}", seed = args.seed));
    let run_dir = out.join(format!("{tag}{}-s{}", w.name, args.seed));
    reset_dir(&run_dir)?;

    let tsv = cache.join("base.tsv");
    if !tsv.exists() {
        let dataset = Workload::dataset(args.seed, args.quick)?;
        write_atomically(&tsv, |tmp| {
            let file = std::fs::File::create(tmp).map_err(|e| e.to_string())?;
            let mut writer = std::io::BufWriter::new(file);
            crowdweb_dataset::tsv::to_writer(&dataset, &mut writer).map_err(|e| e.to_string())?;
            std::io::Write::flush(&mut writer).map_err(|e| e.to_string())
        })?;
    }
    let base = load(&tsv)?;
    let prefix = w.prefill_records(args.seed, args.quick)?;
    let prefill_wal = cache.join(format!("{}-wal", w.name));
    if !prefix.is_empty() && !prefill_wal.exists() {
        write_atomically(&prefill_wal, |tmp| {
            child::build_wal(base.clone(), &prefix, min_days, tmp)
        })?;
    }
    let fresh_wal = |name: &str| -> Result<Option<PathBuf>, String> {
        if !w.durable {
            return Ok(None);
        }
        let dir = run_dir.join(name);
        reset_dir(&dir)?;
        if prefill_wal.exists() {
            copy_dir(&prefill_wal, &dir)?;
        }
        Ok(Some(dir))
    };

    let scenario = w.scenario(args.seed, args.seconds, args.quick);
    let trace = Trace::synthesize(&scenario).map_err(|e| e.to_string())?;
    let warmup_us = trace.phase_wall_us[0];
    let schedule = Schedule::new(
        &trace,
        &scenario.api_base(),
        scenario.epoch_every_secs,
        w.export_every_secs,
        warmup_us,
    );

    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_secs = Vec::with_capacity(setups);
    let mut server = None;
    for _ in 0..setups {
        drop(server.take());
        let wal = fresh_wal("wal")?;
        let started = ServerChild::spawn(exe, &tsv, min_days, wal.as_deref())?;
        setup_secs.push(started.setup_secs);
        server = Some(started);
    }
    let server = server.expect("at least one set-up");
    let senders = SENDERS.min(generator::max_senders());
    let samples = generator::drive(server.addr, &schedule.events, senders, Some(server.pid()))?;
    let gate_report = gate::run(server.addr, &schedule, &samples, &base, &prefix, min_days)?;
    drop(server);

    let timed = TimedRun {
        schedule: &schedule,
        samples: &samples,
        gate: &gate_report,
        setup_secs: &setup_secs,
    };
    let (attempted, failed) = timed.attempted_failed();
    let mut metrics = Metrics::default();
    if args.trace {
        timed.timed_layers(&mut metrics);
        let events = replay_events(&schedule);
        let traced = traced::replay(
            &events,
            &tsv,
            min_days,
            fresh_wal("trace-wal")?.as_deref(),
            true,
        )?;
        let untraced = traced::replay(
            &events,
            &tsv,
            min_days,
            fresh_wal("trace-wal")?.as_deref(),
            false,
        )?;
        traced.layer_metrics(&untraced, &mut metrics);
        traced.write_spans(&run_dir.join("spans.jsonl"))?;
    } else {
        timed.end_to_end(&mut metrics);
    }
    for dir in ["wal", "trace-wal"] {
        let _ = std::fs::remove_dir_all(run_dir.join(dir));
    }

    let outcome = Outcome {
        metrics,
        failures: gate_report.failures,
        attempted,
        failed,
    };
    let record = result_json(args, &outcome, senders, &setup_secs, root);
    std::fs::write(
        run_dir.join("result.json"),
        serde_json::to_string_pretty(&record).map_err(|e| e.to_string())?,
    )
    .map_err(|e| format!("writing result.json: {e}"))?;
    Ok(outcome)
}

/// The traced run's events: the timed schedule without scrapes, then
/// the gate's final epoch and export.
fn replay_events(schedule: &Schedule) -> Vec<Event> {
    let mut events: Vec<Event> = schedule
        .events
        .iter()
        .filter(|e| e.class != Class::Scrape)
        .cloned()
        .collect();
    let tail = |class, path: &str, body: Option<String>| Event {
        at_us: schedule.window_end_us,
        phase: 0,
        class,
        path: path.to_owned(),
        body,
    };
    events.push(tail(
        Class::Epoch,
        "/api/v1/ingest/epoch",
        Some(String::new()),
    ));
    events.push(tail(Class::Export, "/api/v1/export/checkins", None));
    events
}

/// The metrics as a JSON object of `{"value", "unit"}` entries.
fn metrics_json(metrics: &Metrics) -> Value {
    Value::Object(
        metrics
            .0
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".to_owned(), Value::F64(*value)),
                        ("unit".to_owned(), Value::String((*unit).to_owned())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The final stdout line: `correct`, `attempted`, `failed`, `metrics`.
pub fn summary_line(outcome: &Outcome) -> String {
    Value::Object(vec![
        (
            "correct".to_owned(),
            Value::Bool(outcome.failures.is_empty()),
        ),
        ("attempted".to_owned(), Value::U64(outcome.attempted as u64)),
        ("failed".to_owned(), Value::U64(outcome.failed as u64)),
        ("metrics".to_owned(), metrics_json(&outcome.metrics)),
    ])
    .to_string()
}

/// `result.json`: the summary plus the run's inputs, gate failures,
/// set-up times and machine.
fn result_json(
    args: &RunArgs,
    outcome: &Outcome,
    senders: usize,
    setup_secs: &[f64],
    root: &Path,
) -> Value {
    let command_output = |program: &str, args: &[&str]| -> String {
        std::process::Command::new(program)
            .args(args)
            .current_dir(root)
            // Only the checkout's own repository, never a parent's.
            .env("GIT_DIR", root.join(".git"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_owned(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
            )
    };
    let text = |s: &str| Value::String(s.to_owned());
    Value::Object(vec![
        ("workload".to_owned(), text(args.workload.name)),
        ("seed".to_owned(), Value::U64(args.seed)),
        ("seconds".to_owned(), Value::F64(args.seconds)),
        ("trace".to_owned(), Value::Bool(args.trace)),
        ("quick".to_owned(), Value::Bool(args.quick)),
        (
            "correct".to_owned(),
            Value::Bool(outcome.failures.is_empty()),
        ),
        ("attempted".to_owned(), Value::U64(outcome.attempted as u64)),
        ("failed".to_owned(), Value::U64(outcome.failed as u64)),
        (
            "failures".to_owned(),
            Value::Array(outcome.failures.iter().map(|f| text(f)).collect()),
        ),
        (
            "setup_secs".to_owned(),
            Value::Array(setup_secs.iter().map(|s| Value::F64(*s)).collect()),
        ),
        ("metrics".to_owned(), metrics_json(&outcome.metrics)),
        (
            "env".to_owned(),
            Value::Object(vec![
                (
                    "nproc".to_owned(),
                    Value::U64(generator::max_senders() as u64),
                ),
                ("senders".to_owned(), Value::U64(senders as u64)),
                (
                    "git_rev".to_owned(),
                    text(&command_output("git", &["rev-parse", "HEAD"])),
                ),
                (
                    "rustc".to_owned(),
                    text(&command_output("rustc", &["--version"])),
                ),
                (
                    "load_avg_1m".to_owned(),
                    Value::F64(proc_stat::load_average()),
                ),
            ]),
        ),
    ])
}

fn load(tsv: &Path) -> Result<Dataset, String> {
    crowdweb_dataset::tsv::load_path(tsv).map_err(|e| format!("loading {}: {e}", tsv.display()))
}

fn reset_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

/// Builds `path` through a temporary sibling and renames it into
/// place, so an interrupted build never leaves a half-written cache.
fn write_atomically(
    path: &Path,
    build: impl FnOnce(&Path) -> Result<(), String>,
) -> Result<(), String> {
    let tmp = path.with_extension("partial");
    if tmp.is_dir() {
        let _ = std::fs::remove_dir_all(&tmp);
    }
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("creating {}: {e}", parent.display()))?;
    }
    build(&tmp)?;
    std::fs::rename(&tmp, path).map_err(|e| format!("publishing {}: {e}", path.display()))
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("creating {}: {e}", to.display()))?;
    let entries =
        std::fs::read_dir(from).map_err(|e| format!("reading {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)
                .map_err(|e| format!("copying {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}
