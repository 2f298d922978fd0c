//! The repository benchmark. See `README.md` in this directory.
//!
//! ```sh
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload certify --seed 1 --seconds 10 --trace 0
//! ```

mod certify;
mod farm;
mod json;
mod manifest;
mod mix;
mod report;
mod soak;
mod stats;
mod steadiness;
mod trace;

use report::Outcome;
use std::process::ExitCode;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `--steadiness N`: run the workload N times (seeds `seed..seed+N`)
    /// as child processes and report each metric's spread.
    steadiness: Option<u64>,
    /// `--sets M`: with `--steadiness`, repeat the whole set M times and
    /// compare each set's medians with the first.
    sets: u64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut steadiness = None;
    let mut sets = 1;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--steadiness" => {
                steadiness = Some(value.parse().ok().filter(|n: &u64| *n >= 2).ok_or_else(
                    || format!("--steadiness needs a run count of at least 2, got {value:?}"),
                )?)
            }
            "--sets" => {
                sets = value
                    .parse()
                    .ok()
                    .filter(|n: &u64| *n >= 1)
                    .ok_or_else(|| format!("bad set count {value:?}"))?
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload <certify|soak|farm> is required")?,
        seed,
        seconds,
        trace,
        steadiness,
        sets,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "certify" => Ok(certify::run(args.seconds, args.trace)),
        "soak" => Ok(soak::run(args.seed, args.seconds, args.trace)),
        "farm" => farm::run(args.seed, args.seconds, args.trace),
        other => Err(format!(
            "unknown workload {other:?} (have: certify | soak | farm)"
        )),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--pins") {
        return print_pins(argv.get(1).map_or("", String::as_str));
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steadiness {
        return match steadiness::report(&args.workload, args.seed, runs, args.sets, args.seconds) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("simbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    outcome.settle(args.trace);
    for line in &outcome.notes {
        println!("# {line}");
    }
    for e in &outcome.errors {
        println!("# FAILED: {e}");
    }
    if !outcome.spans.is_empty() {
        match write_spans(&args, &outcome.spans) {
            Ok(path) => println!("# {} spans written to {path}", outcome.spans.len()),
            Err(e) => eprintln!("simbench: cannot write spans: {e}"),
        }
    }
    for (name, value, unit) in &outcome.metrics.0 {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}

/// `--pins <soak|farm>`: recomputes a workload's pinned reference values
/// and prints them in the form the source file holds them.
fn print_pins(workload: &str) -> ExitCode {
    let lines = match workload {
        "soak" => soak::pins(),
        "farm" => match farm::pins() {
            Ok(lines) => lines,
            Err(e) => {
                eprintln!("simbench: {e}");
                return ExitCode::FAILURE;
            }
        },
        other => {
            eprintln!("simbench: no pins for {other:?} (have: soak | farm)");
            return ExitCode::from(2);
        }
    };
    for line in lines {
        println!("{line}");
    }
    ExitCode::SUCCESS
}

/// Writes a traced run's spans, held in memory until now, as NDJSON.
fn write_spans(args: &Args, spans: &[trace::Span]) -> std::io::Result<String> {
    let dir = std::path::Path::new(".simbench-run").join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.ndjson", args.workload, args.seed));
    std::fs::write(&path, trace::to_ndjson(spans))?;
    Ok(path.display().to_string())
}
