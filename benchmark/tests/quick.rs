//! `--quick` runs of every workload: the small dataset, 1-second phases
//! and a tenth of the rates, through the same code path as a full run.
//! Each test works in a directory of its own under the target dir.

use crowdweb_benchmark::child::ServerChild;
use crowdweb_benchmark::gate::{compare_views, view_paths, Reference};
use crowdweb_benchmark::workload::{Workload, WORKLOADS};
use crowdweb_loadgen::client::Client;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_crowdweb-benchmark");

fn work_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("quick-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// Runs one quick workload in `dir`; returns stdout.
fn run(dir: &Path, workload: &str, trace: bool) -> String {
    let output = Command::new(BIN)
        .args(["--workload", workload, "--seed", "1", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--quick"])
        .current_dir(dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

/// Checks the printed metric lines and the closing JSON line against
/// the `BENCHMARK.json` list `key`.
fn check_output(stdout: &str, key: &str) {
    let spec = benchmark_json();
    let expected: Vec<(&str, &str)> = spec[key]
        .as_array()
        .unwrap()
        .iter()
        .map(|m| (m["name"].as_str().unwrap(), m["unit"].as_str().unwrap()))
        .collect();
    let lines: Vec<&str> = stdout.lines().collect();
    let (last, metric_lines) = lines.split_last().unwrap();
    let printed: Vec<(&str, &str)> = metric_lines
        .iter()
        .map(|l| {
            let cols: Vec<&str> = l.split('\t').collect();
            assert_eq!(cols.len(), 3, "metric line {l:?}");
            assert!(cols[1].parse::<f64>().unwrap().is_finite(), "{l:?}");
            (cols[0], cols[2])
        })
        .collect();
    assert_eq!(printed, expected, "{key} names and units");
    let summary: Value = serde_json::from_str(last).unwrap();
    assert_eq!(summary["correct"].as_bool(), Some(true), "{last}");
    assert!(summary["attempted"].as_u64().unwrap() >= 1);
    assert_eq!(summary["failed"].as_u64(), Some(0), "{last}");
    let metrics = summary["metrics"].as_object().unwrap();
    assert_eq!(metrics.len(), expected.len());
    for (name, unit) in expected {
        assert_eq!(summary["metrics"][name]["unit"], unit);
        assert!(summary["metrics"][name]["value"].as_f64().is_some());
    }
}

fn check_result_json(dir: &Path, workload: &str, trace: bool) {
    let path = dir.join(format!(".bench_out/quick-{workload}-s1/result.json"));
    let result: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert_eq!(result["workload"], workload);
    assert_eq!(result["seed"].as_u64(), Some(1));
    assert_eq!(result["trace"].as_bool(), Some(trace));
    assert_eq!(result["correct"].as_bool(), Some(true));
    assert_eq!(result["failures"].as_array().map(Vec::len), Some(0));
    assert!(result["metrics"].as_object().is_some_and(|m| !m.is_empty()));
    for key in ["nproc", "senders", "git_rev", "rustc", "load_avg_1m"] {
        assert!(!result["env"][key].is_null(), "env.{key} missing");
    }
    assert!(result["env"]["senders"].as_u64() <= result["env"]["nproc"].as_u64());
}

fn quick_workload(workload: &str) {
    let dir = work_dir(workload);
    check_output(&run(&dir, workload, false), "end_to_end");
    check_result_json(&dir, workload, false);
    check_output(&run(&dir, workload, true), "per_layer");
    check_result_json(&dir, workload, true);
    let spans =
        std::fs::read_to_string(dir.join(format!(".bench_out/quick-{workload}-s1/spans.jsonl")))
            .unwrap();
    let parsed: Vec<Value> = spans
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert!(parsed
        .iter()
        .any(|s| s["name"] == "api.dispatch" && s["parent"].as_u64().is_some()));
    assert!(parsed.iter().any(|s| s["name"] == "setup.open"));
}

#[test]
fn quick_read_ladder() {
    quick_workload("read_ladder");
}

#[test]
fn quick_ingest_durable() {
    quick_workload("ingest_durable");
}

#[test]
fn quick_commute_mixed() {
    quick_workload("commute_mixed");
}

#[test]
fn quick_restart_export() {
    quick_workload("restart_export");
}

#[test]
fn every_workload_is_listed_in_benchmark_json() {
    let spec = benchmark_json();
    let listed: Vec<&str> = spec["workloads"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w["name"].as_str().unwrap())
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(listed, ours);
}

#[test]
fn a_tampered_reference_body_fails_the_gate() {
    let dir = work_dir("tamper");
    let tsv = dir.join("base.tsv");
    let base = Workload::dataset(3, true).unwrap();
    crowdweb_dataset::tsv::to_writer(&base, std::fs::File::create(&tsv).unwrap()).unwrap();
    let base = crowdweb_dataset::tsv::load_path(&tsv).unwrap();
    let min_days = Workload::min_active_days(true);
    let server = ServerChild::spawn(Path::new(BIN), &tsv, min_days, None).unwrap();
    let reference = Reference::build(&base, &[], min_days).unwrap();
    let mut client = Client::new(server.addr, Duration::from_secs(10));
    let mut fetch = |path: &str| {
        client
            .request(path, None)
            .map(|r| r.body.into_bytes())
            .map_err(|e| e.to_string())
    };
    let paths = view_paths();
    assert!(compare_views(&paths, &mut fetch, |p| reference.get(p)).is_empty());
    let tampered = paths[5].clone();
    let failures = compare_views(&paths, &mut fetch, |p| {
        let mut body = reference.get(p);
        if p == tampered {
            body.push(b' ');
        }
        body
    });
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].starts_with(&tampered), "{failures:?}");
}
