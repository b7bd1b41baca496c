//! `crowdweb-benchmark` — the CrowdWeb benchmark.
//!
//! ```text
//! crowdweb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! crowdweb-benchmark repeat --sets <n> [--trace <0|1>]
//! crowdweb-benchmark serve --tsv <file> --min-active-days <n> [--wal <dir>]
//! ```
//!
//! A run prints one `name<TAB>value<TAB>unit` line per metric and then
//! one JSON line with `correct`, `attempted`, `failed` and `metrics`;
//! it exits 1 when the correctness gate fails. `serve` is the server
//! child a run starts.

use crowdweb_benchmark::repeat::repeat;
use crowdweb_benchmark::run::{run, summary_line, RunArgs};
use crowdweb_benchmark::workload::{Workload, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str =
    "usage: crowdweb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
       crowdweb-benchmark repeat --sets <n> [--trace <0|1>]
       crowdweb-benchmark serve --tsv <file> --min-active-days <n> [--wal <dir>]";

/// Parsed `--flag value` pairs and bare switches; any other argument is
/// an error.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String], valued: &[&str], switches: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if valued.contains(&arg.as_str()) {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                out.push((arg.clone(), Some(value.clone())));
            } else if switches.contains(&arg.as_str()) {
                out.push((arg.clone(), None));
            } else {
                return Err(format!("unknown argument {arg:?}"));
            }
        }
        Ok(Flags(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.get(name) {
            Some(raw) => raw.parse().map_err(|_| format!("bad {name} {raw:?}")),
            None => default.ok_or_else(|| format!("{name} is required")),
        }
    }

    fn trace(&self) -> Result<bool, String> {
        match self.get("--trace") {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(other) => Err(format!("--trace takes 0 or 1, not {other:?}")),
        }
    }
}

fn usage(e: String) -> String {
    format!("{e}\n{USAGE}")
}

fn seconds(flags: &Flags) -> Result<f64, String> {
    let s: f64 = flags.number("--seconds", None)?;
    if s.is_finite() && s > 0.0 && s <= 600.0 {
        Ok(s)
    } else {
        Err(format!("--seconds must be in (0, 600], not {s}"))
    }
}

fn context() -> Result<(PathBuf, PathBuf), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let root = std::env::current_dir().map_err(|e| format!("reading the working dir: {e}"))?;
    Ok((exe, root))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &["--workload", "--seed", "--seconds", "--trace"],
        &["--quick"],
    )
    .map_err(usage)?;
    let name = flags.get("--workload").ok_or("--workload is required")?;
    let workload = Workload::named(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", names.join(", "))
    })?;
    let run_args = RunArgs {
        workload,
        seed: flags.number("--seed", Some(1))?,
        seconds: seconds(&flags)?,
        trace: flags.trace()?,
        quick: flags.has("--quick"),
    };
    let (exe, root) = context()?;
    let outcome = run(&run_args, &exe, &root)?;
    for (name, value, unit) in &outcome.metrics.0 {
        println!("{name}\t{value}\t{unit}");
    }
    for failure in &outcome.failures {
        eprintln!("correctness gate: {failure}");
    }
    println!("{}", summary_line(&outcome));
    Ok(if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_repeat(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--sets", "--trace"], &[]).map_err(usage)?;
    let sets = flags.number("--sets", None)?;
    let trace = flags.trace()?;
    let (exe, root) = context()?;
    Ok(if repeat(sets, trace, &exe, &root)? {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--tsv", "--min-active-days", "--wal"], &[]).map_err(usage)?;
    let tsv = flags.get("--tsv").ok_or("--tsv is required")?;
    crowdweb_benchmark::child::serve(
        Path::new(tsv),
        flags.number("--min-active-days", None)?,
        flags.get("--wal").map(Path::new),
    )?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("repeat") => cmd_repeat(&args[1..]),
        Some("-h" | "--help") | None => {
            println!("{USAGE}");
            return if args.is_empty() {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            };
        }
        _ => cmd_run(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("crowdweb-benchmark: {e}");
        ExitCode::FAILURE
    })
}
