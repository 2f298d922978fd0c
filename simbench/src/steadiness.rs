//! The steadiness report: runs one workload repeatedly in child
//! processes, one seed each, and prints every end-to-end metric's median
//! and quartiles next to the bound `BENCHMARK.json` fixes for it — the
//! same arithmetic the acceptance check applies.

use crate::json::{self, Json};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::process::Command;

/// A metric's bound and direction, from `BENCHMARK.json`.
struct Bound {
    bound: f64,
    lower_is_better: bool,
}

fn bounds() -> Result<BTreeMap<String, Bound>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text)?;
    let mut out = BTreeMap::new();
    for m in doc.get("end_to_end").map_or(&[][..], Json::as_array) {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or("metric without a name")?;
        out.insert(
            name.to_owned(),
            Bound {
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
            },
        );
    }
    Ok(out)
}

/// Runs the workload once in a child process; returns its metrics.
fn run_once(workload: &str, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc = json::parse(last).map_err(|e| format!("seed {seed}: no result line ({e})"))?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("seed {seed}: the run was not correct:\n{stdout}"));
    }
    Ok(doc
        .get("metrics")
        .map_or(&[][..], Json::as_object)
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect())
}

pub fn report(
    workload: &str,
    first_seed: u64,
    runs: u64,
    sets: u64,
    seconds: f64,
) -> Result<(), String> {
    let bounds = bounds()?;
    let mut medians: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut steady = true;
    for set in 0..sets {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for seed in first_seed..first_seed + runs {
            let metrics = run_once(workload, seed, seconds)?;
            let line: Vec<String> = metrics.iter().map(|(k, v)| format!("{k}={v:.6}")).collect();
            println!("set {} seed {seed}: {}", set + 1, line.join(" "));
            for (k, v) in metrics {
                values.entry(k).or_default().push(v);
            }
        }
        println!(
            "{workload} set {}: {runs} runs\n{:<16} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
            set + 1,
            "metric",
            "q1",
            "median",
            "q3",
            "spread",
            "bound"
        );
        let mut set_medians = BTreeMap::new();
        for (name, v) in &values {
            let Some(b) = bounds.get(name) else { continue };
            let (q1, q3) = quartiles(v);
            let m = median(v);
            let spread = (q3 - q1) / m;
            let verdict = if spread <= b.bound / 3.0 {
                "steady"
            } else if spread <= b.bound {
                "within bound, above a third of it"
            } else {
                steady = false;
                "NOISY: spread exceeds the bound"
            };
            println!(
                "{name:<16} {q1:>12.6} {m:>12.6} {q3:>12.6} {spread:>8.4} {:>6.3}  {verdict}",
                b.bound
            );
            set_medians.insert(name.clone(), m);
        }
        medians.push(set_medians);
    }
    for (i, later) in medians.iter().enumerate().skip(1) {
        for (name, m) in later {
            let (Some(first), Some(b)) = (medians[0].get(name), bounds.get(name)) else {
                continue;
            };
            let worse = if b.lower_is_better {
                m / first - 1.0
            } else {
                first / m - 1.0
            };
            let ok = worse <= b.bound;
            steady &= ok;
            println!(
                "set {} vs set 1: {name:<16} {first:>12.6} -> {m:>12.6} ({:+.2}% worse, bound {:.0}%) {}",
                i + 1,
                worse * 100.0,
                b.bound * 100.0,
                if ok { "ok" } else { "DISAGREE" }
            );
        }
    }
    if steady {
        Ok(())
    } else {
        Err("some metric is not steady within its bound".into())
    }
}
