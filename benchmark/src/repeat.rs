//! `crowdweb-benchmark repeat --sets N`: every workload N times, in
//! alternating order, with the spread of each metric against its bound.
//!
//! Set `k` runs seed `k + 1`, forward through the workloads on even sets
//! and backward on odd ones, each run a fresh process of this binary
//! measuring `run_seconds` from `BENCHMARK.json` in the working
//! directory. The spread of a metric is the distance between its first
//! and third quartile (Python's `statistics.quantiles(values, n=4)`) as
//! a share of its median, set against the metric's bound from the same
//! file. The medians go to `.bench_out/baseline.json`.

use crate::report::median;
use crate::workload::WORKLOADS;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// A spread above this marks a metric/workload pair as report-only.
const REPORT_ONLY_SPREAD: f64 = 0.10;

/// First and third quartile as `statistics.quantiles(data, n=4)` (the
/// default "exclusive" method) computes them; needs two or more values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len() as i64;
    if n < 2 {
        let only = data.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let m = n + 1;
    let cut = |i: i64| -> f64 {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Runs `sets` sets (traced runs when `trace`), prints the spread
/// table and returns whether every run passed the correctness gate.
///
/// # Errors
///
/// Fails when `BENCHMARK.json` has no `run_seconds`, or a run cannot
/// start or prints no result line.
pub fn repeat(sets: u64, trace: bool, exe: &Path, root: &Path) -> Result<bool, String> {
    let spec_path = root.join("BENCHMARK.json");
    let spec: Value = std::fs::read_to_string(&spec_path)
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok())
        .unwrap_or(Value::Null);
    let seconds = spec["run_seconds"]
        .as_u64()
        .ok_or_else(|| format!("{} gives no run_seconds", spec_path.display()))?;
    let bounds: BTreeMap<String, f64> = spec["end_to_end"]
        .as_array()
        .into_iter()
        .flatten()
        .filter_map(|m| Some((m["name"].as_str()?.to_owned(), m["bound"].as_f64()?)))
        .collect();
    let mut values: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    let mut units: BTreeMap<String, String> = BTreeMap::new();
    let mut all_correct = true;
    for set in 0..sets {
        let seed = set + 1;
        let mut order: Vec<_> = WORKLOADS.iter().collect();
        if set % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let output = Command::new(exe)
                .args(["--workload", w.name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .current_dir(root)
                .stdout(Stdio::piped())
                .output()
                .map_err(|e| format!("running {}: {e}", w.name))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let summary: Value = stdout
                .lines()
                .last()
                .and_then(|l| serde_json::from_str(l).ok())
                .ok_or_else(|| format!("{} seed {seed} printed no result", w.name))?;
            let correct = summary["correct"].as_bool() == Some(true);
            all_correct &= correct;
            eprintln!(
                "repeat: set {set} {} seed {seed}: {}",
                w.name,
                if correct { "correct" } else { "INCORRECT" }
            );
            for (name, metric) in summary["metrics"].as_object().into_iter().flatten() {
                values
                    .entry((w.name, name.clone()))
                    .or_default()
                    .push(metric["value"].as_f64().unwrap_or(0.0));
                units.insert(
                    name.clone(),
                    metric["unit"].as_str().unwrap_or("").to_owned(),
                );
            }
        }
    }

    println!("workload\tmetric\tunit\tmedian\tq1\tq3\tspread\tbound\tverdict");
    let mut baseline: BTreeMap<&str, Vec<(String, Value)>> = BTreeMap::new();
    for ((workload, name), series) in &values {
        let med = median(series);
        let (q1, q3) = quartiles(series);
        let spread = if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        };
        let bound = bounds.get(name).copied();
        let verdict = match bound {
            _ if spread > REPORT_ONLY_SPREAD => "report-only",
            Some(b) if spread < b / 3.0 => "steady",
            Some(b) if spread <= b => "within-bound",
            Some(_) => "over-bound",
            None => "per-layer",
        };
        println!(
            "{workload}\t{name}\t{}\t{med:.6}\t{q1:.6}\t{q3:.6}\t{spread:.4}\t{}\t{verdict}",
            units[name],
            bound.map_or("-".to_owned(), |b| b.to_string()),
        );
        baseline.entry(workload).or_default().push((
            name.clone(),
            Value::Object(vec![
                ("median".to_owned(), Value::F64(med)),
                ("q1".to_owned(), Value::F64(q1)),
                ("q3".to_owned(), Value::F64(q3)),
                ("spread".to_owned(), Value::F64(spread)),
                (
                    "report_only".to_owned(),
                    Value::Bool(spread > REPORT_ONLY_SPREAD),
                ),
            ]),
        ));
    }
    let rev = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .env("GIT_DIR", root.join(".git"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    let doc = Value::Object(vec![
        ("rev".to_owned(), Value::String(rev)),
        (
            "nproc".to_owned(),
            Value::U64(crate::generator::max_senders() as u64),
        ),
        ("sets".to_owned(), Value::U64(sets)),
        ("seconds".to_owned(), Value::U64(seconds)),
        ("trace".to_owned(), Value::Bool(trace)),
        (
            "workloads".to_owned(),
            Value::Object(
                baseline
                    .into_iter()
                    .map(|(w, rows)| (w.to_owned(), Value::Object(rows)))
                    .collect(),
            ),
        ),
    ]);
    let path = root.join(".bench_out").join("baseline.json");
    std::fs::create_dir_all(root.join(".bench_out")).map_err(|e| e.to_string())?;
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?,
    )
    .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("repeat: wrote {}", path.display());
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
