//! Regenerates every experiment of `EXPERIMENTS.md` (E1–E11): one section
//! per figure/theorem of the paper, with measured values. Exits 1 naming
//! each paper claim that failed (or when stdout is closed), and 2 on an
//! unknown experiment id.
//!
//! ```sh
//! cargo run --release -p simsym-bench --bin experiments          # all
//! cargo run --release -p simsym-bench --bin experiments e3 e8   # subset
//! ```

use simsym_bench::{report, BANNER, EXPERIMENTS};
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _, _)| *id).collect();
    if let Some(bad) = args.iter().find(|a| !ids.contains(&a.as_str())) {
        eprintln!("experiments: unknown experiment id {bad:?}");
        eprintln!("usage: experiments [{}]...", ids.join("|"));
        eprintln!("       (no id runs them all)");
        std::process::exit(2);
    }
    let mut stdout = std::io::stdout().lock();
    let mut print = |text: &str| {
        if stdout.write_all(text.as_bytes()).is_err() {
            std::process::exit(1);
        }
    };
    print(BANNER);
    let mut failed = Vec::new();
    for id in ids {
        if args.is_empty() || args.iter().any(|a| a == id) {
            let (section, verdict) = report(id).expect("a listed id");
            print(&section);
            failed.extend(verdict.err());
        }
    }
    for claim in &failed {
        eprintln!("experiments: claim failed: {claim}");
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}
