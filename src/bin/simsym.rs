//! The `simsym` command-line tool: analyze systems, run elections, seat
//! philosophers, and export Graphviz — from the shell.
//!
//! ```sh
//! simsym list
//! simsym analyze ring:5
//! simsym analyze figure2 --mark p0
//! simsym elect figure2
//! simsym dine 6 alternating
//! simsym dot marked-ring:5
//! simsym lint table:5 --program fixed-order
//! ```
//!
//! Each subcommand lives in its own module under `simsym/`. Every system
//! and `--family` resolves through the one registry in [`family`], and
//! every flag through the one parser in [`flags`].

#[path = "simsym/analyze.rs"]
mod analyze;
#[path = "simsym/dine.rs"]
mod dine;
#[path = "simsym/elect.rs"]
mod elect;
#[path = "simsym/family.rs"]
mod family;
#[path = "simsym/faults.rs"]
mod faults;
#[path = "simsym/flags.rs"]
mod flags;
#[path = "simsym/lint.rs"]
mod lint;
#[path = "simsym/serve.rs"]
mod serve;
#[path = "simsym/soak.rs"]
mod soak;
#[cfg(test)]
#[path = "simsym/tests.rs"]
mod tests;
#[path = "simsym/verify.rs"]
mod verify;

use family::parse_system_args;
use simsym::core::{hopcroft_similarity, markdown_report, Model};
use simsym::graph::dot;
use simsym::serve::{JobOutput, JobRunner};
use std::fmt;
use std::io::{self, Write};
use std::process::ExitCode;

/// What a command produced: text for stdout, plus whether the process
/// should exit nonzero *after* printing it (lint findings, not usage
/// errors).
#[derive(Debug)]
pub struct CmdOut {
    pub text: String,
    pub failed: bool,
}

/// Wraps successful command text in a passing [`CmdOut`].
pub fn ok(text: String) -> Result<CmdOut, String> {
    Ok(CmdOut {
        text,
        failed: false,
    })
}

/// Writes a command's diagnostics to stderr while it runs. A closed
/// stderr comes back as an error for the command to return (exit 1), not
/// a panic. Test builds print through `eprint!` instead, so the test
/// harness captures the text rather than interleaving it with its own
/// per-test report lines.
pub fn write_stderr(args: fmt::Arguments<'_>) -> io::Result<()> {
    if cfg!(test) {
        eprint!("{args}");
        Ok(())
    } else {
        io::stderr().lock().write_fmt(args)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (written, code) = match dispatch(&args) {
        Ok(out) => {
            let mut stdout = io::stdout().lock();
            let written = write!(stdout, "{}", out.text).and_then(|()| stdout.flush());
            let code = if out.failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            };
            (written, code)
        }
        Err(e) => (
            write!(io::stderr().lock(), "error: {e}\n\n{}\n", usage()),
            ExitCode::FAILURE,
        ),
    };
    // A closed pipe (`simsym ... | head`) is a failed run, not a panic.
    match written {
        Ok(()) => code,
        Err(_) => ExitCode::FAILURE,
    }
}

fn usage() -> String {
    format!(
        "usage:\n  simsym list\n  simsym analyze <system> [--mark p0,p1,...] [--trace [--seed N] [--steps N]]\n  simsym analyze --trace FILE\n  simsym elect <system> [--mark p0,...]\n  simsym dine <n> <greedy|alternating|chandy-misra|lehmann-rabin> [steps]\n  simsym report <system> [--mark p0,...]\n  simsym dot <system> [--mark p0,...]\n  simsym lint <system> [--mark p0,...] [--program NAME] [--seed N]\n              [--steps N] [--sweep] [--static] [--json] [--dot]\n  simsym verify --family <{families}> [--procs N]\n              [--program NAME] [--reduce none|quotient|por|both] [--depth N]\n              [--states N] [--json]\n  simsym faults --family <{families}>\n                --plan <crash|lossy|starve>\n                [--seed N] [--sweep M] [--steps N] [--journal] [--json]\n  simsym soak --family <{families}> [--budget N] [--seed N]\n              [--steps N] [--procs N] [--journal] [--repro-out FILE] [--json]\n  simsym serve [--addr HOST:PORT] [--workers N] [--queue N]\n              [--state-dir DIR] [--default-deadline-ms N]\n  simsym submit [--addr HOST:PORT] [--watch] [--deadline-ms N] <job.json | ->\n  simsym cancel [--addr HOST:PORT] JOB\n  simsym shutdown [--addr HOST:PORT]\n\nverify explores the family's selection machine exhaustively (depth-\nand state-bounded DFS over undoable steps) under a pluggable\nstate-space reduction: quotient canonicalizes states modulo the\nautomorphism group Aut(N, state0), por prunes commuting interleavings\nwith persistent sets, both composes the two, none is the identity\noracle. The requested mode and the identity baseline run under the\nsame budgets and are cross-checked; the report carries canonical state\ncounts, peak visited-store bytes, and the reduction factor (x100 in\nJSON). A reachable double selection (DYN-EXPLORE-UNIQ), a surfaced\nmachine-model violation, or a reducer that diverges from the oracle\n(DYN-EXPLORE-DIVERGED) exits nonzero; an exhausted search is certified\nup to depth d modulo Aut(N) (DYN-EXPLORE-CERTIFIED). --program swaps\nthe generated selection program for a seeded-defect fixture (grab is\nthe naive grab-your-fork strawman that double-selects). por takes\neach processor's interference set from the program's declared\nfootprint (the variables its ProgramSpec may touch), else its whole\nrow; a row reports \"interference\": \"static\" when that is narrower.\n\nfaults runs a seeded fault-injection sweep over one system family:\n--plan crash wraps the Q selection program in deterministic\ncrash/recovery faults (the marked leader is protected, losers crash\nand may recover with or without a state reset); --plan lossy runs\nChang-Roberts election on a unidirectional message ring whose channels\ndrop, duplicate, and reorder; --plan starve drives the k-bounded-fair\nstarvation adversary against the leader (k grows with the seed).\nEvery run is checked for Uniqueness and Stability under faults and\nthe sweep exits nonzero on error-severity findings. --sweep M fans\neach plan across M consecutive seeds on the deterministic schedule\nsweep, so identical invocations are byte-identical. With --journal\n(crash plan only) every processor — the leader included — crashes and\nreboots from a stable-storage journal, and the checker runs strict:\nany selection lost across a reboot is a DYN-RECOV-STAB error.\n\nsoak is the budgeted chaos loop: it fans randomized crash-reset plans\nacross schedules and seeds (strict checker) until the budget is spent\nor a violation is found. A violation is delta-debug shrunk — crash\nevents dropped, the schedule truncated and minimized, the processor\ncount reduced — while replaying to the identical verdict, and emitted\nas a replayable simsym-repro/v1 JSON artifact (--repro-out FILE).\nWithout --journal the selection decision lives in volatile memory and\nsoak finds the Stability violation by construction; with --journal the\nsame chaos stays clean. The exit code stays zero either way (the JSON\nreports \"violation_found\"); only replay divergence exits nonzero.\n\nanalyze --trace FILE replays a simsym-repro/v1 artifact verbatim (the\nschedule runs through a fixed-sequence scheduler) and exits nonzero if\nthe recorded verdict does not reproduce (SOAK-REPLAY-DIVERGED) or the\nembedded fault plan is ill-formed (SOAK-PLAN).\n\n--trace (with a system) runs the Q label learner under a seeded\nrandom-fair schedule and emits a replayable JSON schedule trace\n(verified by re-execution) on stdout; metrics go to stderr.\n\nlint runs static checks (spec/graph/ISA/labeling) and then the dynamic\ncheckers (lockset races, lock-order deadlock cycles, lock discipline, ISA\nconformance) over one seeded run — or a deterministic schedule sweep with\n--sweep. --program swaps the default Q label learner for a seeded-defect\nfixture (racy | fixed-order | isa-cheater | greedy | grab | uninit);\n--dot prints the lock-order graph in Graphviz syntax. --static skips\nthe dynamic pass entirely and instead runs the dataflow analyses over\nthe program's declared spec (uninit reads, dead phases, symmetry\nbreaks, static lock-order cycles) with zero VM steps executed. Exits\nnonzero on error-severity findings.\n\nserve runs the multi-tenant simulation farm: a bounded job queue over\nTCP (HTTP/1.1, newline-delimited JSON events) accepting sweep, lint,\nfaults, soak, and verify job specs. Jobs are sharded across a worker\npool by the deterministic strided-partition sweep, so results are\nbyte-identical for any --workers count and identical to the batch CLI.\nCompleted artifacts land in a content-addressed store keyed by the\njob's canonical argv; resubmitting the same job reports a cache hit\nand returns the stored document without recomputation. POST /shutdown\ndrains gracefully: queued and in-flight jobs finish, new submissions\nare rejected with SERVE-DRAINING. With --state-dir the farm is\ncrash-safe: every submit/start/finish/cancel is written ahead to an\nNDJSON job journal (synced before the ack) and artifacts spill to an\non-disk store, so after kill -9 a restart re-queues unfinished jobs\nand serves finished ones byte-identically from disk. deadline_ms in a\nspec (or --default-deadline-ms farm-wide) bounds a job's execution:\nthe worker stops at the next sweep-job boundary and reports\nSERVE-JOB-DEADLINE. A panicking job is caught (SERVE-JOB-PANIC),\nretried once, and cannot take the dispatcher down. submit posts one\njob spec (a JSON object, e.g. {{\"kind\":\"verify\",\"family\":\"ring\"}})\nand prints the result document; --watch streams the job's progress\nevents first; --deadline-ms injects the spec's deadline_ms field.\ncancel dequeues a queued job or interrupts a running one at its next\nsweep-job boundary.\n\n{systems}",
        families = family::family_names("|"),
        systems = family::systems_usage()
    )
}

fn dispatch(args: &[String]) -> Result<CmdOut, String> {
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("list") => ok(family::list()),
        Some("analyze") => analyze::analyze_command(rest),
        Some("elect") => {
            let (graph, init) = parse_system_args(rest)?;
            elect::elect(&graph, &init).and_then(ok)
        }
        Some("dine") => dine::dine(rest).and_then(ok),
        Some("report") => {
            let (graph, init) = parse_system_args(rest)?;
            ok(markdown_report(&graph, &init))
        }
        Some("dot") => {
            let (graph, init) = parse_system_args(rest)?;
            let theta = hopcroft_similarity(&graph, &init, Model::Q);
            ok(dot::to_dot(&graph, Some(theta.as_slice())))
        }
        Some("lint") => lint::lint(rest),
        Some("verify") => verify::verify(rest),
        Some("faults") => faults::faults(rest),
        Some("soak") => soak::soak(rest),
        Some("serve") => serve::serve(rest),
        Some("submit") => serve::submit(rest),
        Some("cancel") => serve::cancel(rest),
        Some("shutdown") => serve::shutdown(rest),
        Some("panic") => serve::panic_fixture(rest),
        Some(other) => Err(format!("unknown command {other:?}")),
        None => Err("missing command".to_owned()),
    }
}

/// Rendered JSON array elements, one per line, every one but the last
/// followed by a comma.
pub fn json_rows(rows: impl Iterator<Item = String>) -> String {
    let rows: Vec<String> = rows.collect();
    let mut out = rows.join(",\n");
    if !rows.is_empty() {
        out.push('\n');
    }
    out
}

/// The farm's [`JobRunner`]: routes job argv straight back through
/// [`dispatch`], so a served artifact is byte-identical to what the
/// batch CLI prints for the same arguments — by construction, not by
/// parallel maintenance of two render paths.
pub struct DispatchRunner;

impl JobRunner for DispatchRunner {
    fn run(&self, argv: &[String]) -> Result<JobOutput, String> {
        dispatch(argv).map(|out| JobOutput {
            document: out.text,
            failed: out.failed,
        })
    }
}
