//! `simsym soak`: the budgeted chaos loop, its shrinker, and the replay
//! `analyze --trace FILE` shares.

use crate::family::{by_flag, family_flag};
use crate::faults::Selection;
use crate::flags::{self, Kind};
use crate::CmdOut;
use simsym::check::{self, Diagnostic, FaultToleranceChecker};
use simsym::graph::SystemGraph;
use simsym::vm::engine::sweep::{sweep_jobs, SweepConfig, SweepScheduler};
use simsym::vm::faults::{FaultPlan, FaultSched, Faulty};
use simsym::vm::{engine, shrink_counterexample, FixedSequence, Machine, ReproArtifact, Shrunk};
use simsym_graph::ProcId;

/// Options for `soak`.
struct SoakOpts {
    family: String,
    budget: u64,
    seed: u64,
    steps: Option<u64>,
    procs: Option<usize>,
    journal: bool,
    json: bool,
    repro_out: Option<String>,
}

impl SoakOpts {
    fn parse(args: &[String]) -> Result<SoakOpts, String> {
        let flags = flags::parse(
            args,
            &[
                flags::FAMILY,
                ("--budget", Kind::Count("run")),
                flags::SEED,
                flags::STEPS,
                flags::PROCS,
                flags::JOURNAL,
                flags::JSON,
                ("--repro-out", Kind::Str("a file")),
            ],
        )?;
        flags.no_rest("soak flag")?;
        Ok(SoakOpts {
            family: family_flag(&flags, "soak")?,
            budget: flags.u64("--budget").unwrap_or(200),
            seed: flags.u64("--seed").unwrap_or(0),
            steps: flags.u64("--steps"),
            procs: flags.usize("--procs"),
            journal: flags.on("--journal"),
            json: flags.on("--json"),
            repro_out: flags.text("--repro-out"),
        })
    }
}

/// Builds `family` at an explicit processor count (the shrinker varies
/// it). Soak keeps floors above the topology minimums: ring and table
/// need 3 processors, alternating 4. A size the family cannot take is a
/// plain error, which the shrink oracle treats as a non-reproducing
/// candidate, so these floors are part of what the soak goldens pin.
fn soak_graph(family: &str, procs: usize) -> Result<SystemGraph, String> {
    let family = by_flag(family)?.0;
    let floor = match family.name {
        "ring" | "table" => 3,
        "alternating" => 4,
        _ => 0,
    };
    if procs < floor {
        return Err(format!(
            "{} soaks need at least {floor} processors (got {procs})",
            family.name
        ));
    }
    family.build_procs(procs)
}

/// One deterministic replay: build `family` at `procs` processors, wrap
/// the Q selection program in `plan` (journaled iff `journal`), drive
/// `schedule` verbatim through a fixed-sequence scheduler — no
/// [`FaultSched`]; a crashed processor's step is a no-op, exactly as in
/// the recorded run — and return the first error-severity code the
/// strict fault-tolerance checker reports (`None` for a clean run).
pub fn soak_run_fixed(
    family: &str,
    journal: bool,
    procs: usize,
    plan: &FaultPlan,
    schedule: &[ProcId],
) -> Result<Option<String>, String> {
    if schedule.is_empty() {
        return Ok(None);
    }
    if schedule.iter().any(|p| p.index() >= procs) {
        return Err(format!(
            "schedule references a processor out of range (have {procs})"
        ));
    }
    if plan.crashes.iter().any(|c| c.proc.index() >= procs) {
        return Err(format!(
            "fault plan references a processor out of range (have {procs})"
        ));
    }
    if !journal && plan.needs_journal() {
        return Err("fault plan has replay recoveries but journal is off".into());
    }
    let mut f = Selection::new(soak_graph(family, procs)?)?.faulty(plan.clone(), journal);
    let mut sched = FixedSequence::once(schedule.to_vec());
    let mut checker = FaultToleranceChecker::strict();
    let _report = engine::run(
        &mut f,
        &mut sched,
        schedule.len() as u64,
        &mut [&mut checker],
        &mut engine::stop::Never,
    );
    Ok(checker
        .into_diagnostics()
        .iter()
        .find(|d| d.severity == check::Severity::Error)
        .map(|d| d.code.to_owned()))
}

/// One run of the chaos loop: what was injected and what the strict
/// checker concluded. The schedule is kept only for violating runs (it
/// feeds the shrinker); clean runs drop it to keep the sweep cheap.
struct SoakRun {
    scheduler: String,
    seed: u64,
    steps: u64,
    violation: Option<String>,
    plan: FaultPlan,
    schedule: Vec<ProcId>,
}

/// A found-and-shrunk counterexample, ready to render.
struct SoakFound {
    scheduler: String,
    seed: u64,
    steps: u64,
    shrunk: Shrunk,
    artifact: ReproArtifact,
}

/// Everything `soak` concluded, for rendering.
struct SoakOutcome {
    procs: usize,
    runs: usize,
    found: Option<SoakFound>,
    diagnostics: Vec<Diagnostic>,
    failed: bool,
}

/// `simsym soak`: the budgeted chaos loop. Fans randomized crash-reset
/// plans across schedules and seeds through the sweep engine (strict
/// checker); the first violation is delta-debug shrunk and emitted as a
/// replayable `simsym-repro/v1` artifact. Finding a violation is a
/// *successful* soak — the exit code stays zero either way, and CI greps
/// `"violation_found"`; only a shrunk repro that fails to replay to the
/// recorded verdict exits nonzero.
pub fn soak(args: &[String]) -> Result<CmdOut, String> {
    let opts = SoakOpts::parse(args)?;
    let procs = opts.procs.unwrap_or(by_flag(&opts.family)?.1.faults);
    let mut diagnostics = Vec::new();

    // Degenerate plans: with one processor (p0 is implicitly protected so
    // a schedule always has someone to run) every seeded fault plan is
    // empty. Flag it instead of silently burning the whole budget on
    // chaos-free runs.
    if FaultPlan::victim_count(procs, &[]) == 0 {
        diagnostics.push(Diagnostic::new(
            check::Severity::Info,
            check::diag::codes::SOAK_DEGENERATE,
            check::Span::none(),
            format!(
                "a {procs}-processor soak has no crashable processor: every seeded \
                 fault plan is empty, so no chaos would be injected"
            ),
        ));
        let outcome = SoakOutcome {
            procs,
            runs: 0,
            found: None,
            diagnostics,
            failed: false,
        };
        return soak_render(&opts, &outcome);
    }

    let sel = Selection::new(soak_graph(&opts.family, procs)?)?;
    let leader = sel.leader()?;
    // Protect one arbitrary non-leader so a survivor always exists; the
    // leader itself stays crashable — Stability must be attackable, or
    // the soak proves nothing.
    let protect = ProcId::new((leader.index() + 1) % procs);
    let max_steps = opts.steps.unwrap_or(4_000);
    let horizon = (max_steps / 4).max(1);
    let config = SweepConfig {
        kinds: vec![SweepScheduler::RoundRobin, SweepScheduler::RandomFair],
        seeds: (opts.seed..opts.seed + opts.budget.div_ceil(2)).collect(),
        max_steps,
        threads: 4,
    };
    let runs: Vec<SoakRun> = sweep_jobs(&config, |kind, seed| {
        let base = FaultPlan::seeded_crash_resets(procs, &[protect], seed, horizon);
        let plan = if opts.journal {
            base.with_replay_recoveries()
        } else {
            base
        };
        let mut f = sel.faulty(plan.clone(), opts.journal);
        let mut sched = FaultSched::new(kind.scheduler::<Faulty<Machine>>(procs, seed));
        let mut checker = FaultToleranceChecker::strict();
        let mut schedule: Vec<ProcId> = Vec::new();
        let report = engine::run(
            &mut f,
            &mut sched,
            max_steps,
            &mut [&mut schedule, &mut checker],
            &mut engine::stop::Never,
        );
        let violation = checker
            .into_diagnostics()
            .iter()
            .find(|d| d.severity == check::Severity::Error)
            .map(|d| d.code.to_owned());
        if violation.is_none() {
            schedule = Vec::new();
        }
        SoakRun {
            scheduler: kind.label(),
            seed,
            steps: report.steps,
            violation,
            plan,
            schedule,
        }
    });
    let total_runs = runs.len();

    let mut failed = false;
    let found = match runs.into_iter().find(|r| r.violation.is_some()) {
        None => None,
        Some(run) => {
            let violation = run.violation.clone().expect("filtered on violation");
            let family = opts.family.clone();
            let journal = opts.journal;
            // The shrink oracle replays candidates deterministically; a
            // candidate the family cannot even build (odd alternating
            // size, too few processors) simply does not reproduce.
            let oracle = |n: usize, plan: &FaultPlan, schedule: &[ProcId]| {
                soak_run_fixed(&family, journal, n, plan, schedule)
                    .ok()
                    .flatten()
            };
            let shrunk =
                shrink_counterexample(procs, run.plan.clone(), run.schedule, &violation, oracle);
            let artifact = ReproArtifact {
                family: opts.family.clone(),
                procs: shrunk.procs,
                seed: run.seed,
                journal,
                violation: violation.clone(),
                plan: shrunk.plan.clone(),
                schedule: shrunk.schedule.clone(),
            };
            // Close the loop before shipping the artifact anywhere: it
            // must replay to the recorded verdict.
            let verdict = soak_run_fixed(
                &opts.family,
                journal,
                artifact.procs,
                &artifact.plan,
                &artifact.schedule,
            )?;
            if verdict.as_deref() != Some(violation.as_str()) {
                diagnostics.push(Diagnostic::new(
                    check::Severity::Error,
                    check::diag::codes::SOAK_REPLAY_DIVERGED,
                    check::Span::none(),
                    format!(
                        "shrunk counterexample replayed to {} instead of {}",
                        verdict.as_deref().unwrap_or("a clean run"),
                        violation
                    ),
                ));
                failed = true;
            }
            if let Some(path) = &opts.repro_out {
                std::fs::write(path, format!("{}\n", artifact.to_json()))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
            }
            Some(SoakFound {
                scheduler: run.scheduler,
                seed: run.seed,
                steps: run.steps,
                shrunk,
                artifact,
            })
        }
    };
    let outcome = SoakOutcome {
        procs,
        runs: total_runs,
        found,
        diagnostics,
        failed,
    };
    soak_render(&opts, &outcome)
}

fn soak_render(opts: &SoakOpts, outcome: &SoakOutcome) -> Result<CmdOut, String> {
    let text = if opts.json {
        soak_render_json(opts, outcome)
    } else {
        soak_render_text(opts, outcome)
    };
    Ok(CmdOut {
        text,
        failed: outcome.failed,
    })
}

/// Renders the `simsym-soak/v1` JSON document. Deterministic: identical
/// invocations are byte-identical.
fn soak_render_json(opts: &SoakOpts, o: &SoakOutcome) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"simsym-soak/v1\",\n  \"family\": \"{}\",\n  \"procs\": {},\n  \"journal\": {},\n  \"budget\": {},\n  \"runs\": {},\n  \"violation_found\": {},\n",
        opts.family,
        o.procs,
        opts.journal,
        opts.budget,
        o.runs,
        o.found.is_some()
    );
    match &o.found {
        Some(f) => {
            let s = &f.shrunk.stats;
            out.push_str(&format!(
                "  \"violation\": \"{}\",\n  \"found_at\": {{\"scheduler\": \"{}\", \"seed\": {}, \"steps\": {}}},\n",
                f.artifact.violation, f.scheduler, f.seed, f.steps
            ));
            out.push_str(&format!(
                "  \"shrink\": {{\"candidates\": {}, \"crashes_before\": {}, \"crashes_after\": {}, \"steps_before\": {}, \"steps_after\": {}, \"procs_before\": {}, \"procs_after\": {}}},\n",
                s.candidates,
                s.crashes_before,
                s.crashes_after,
                s.steps_before,
                s.steps_after,
                s.procs_before,
                s.procs_after
            ));
            out.push_str(&format!("  \"repro\": {},\n", f.artifact.to_json()));
        }
        None => out.push_str(
            "  \"violation\": null,\n  \"found_at\": null,\n  \"shrink\": null,\n  \"repro\": null,\n",
        ),
    }
    let diags: Vec<String> = o.diagnostics.iter().map(|d| d.to_json()).collect();
    out.push_str(&format!("  \"diagnostics\": [{}]\n}}\n", diags.join(",")));
    out
}

fn soak_render_text(opts: &SoakOpts, o: &SoakOutcome) -> String {
    let mut out = format!(
        "soak: family={} procs={} journal={} budget={} ({} runs)\n",
        opts.family, o.procs, opts.journal, opts.budget, o.runs
    );
    match &o.found {
        Some(f) => {
            let s = &f.shrunk.stats;
            out.push_str(&format!(
                "  violation {} found by {} (seed {}, {} steps)\n",
                f.artifact.violation, f.scheduler, f.seed, f.steps
            ));
            out.push_str(&format!(
                "  shrunk in {} candidate replays: crashes {} -> {}, schedule {} -> {}, processors {} -> {}\n",
                s.candidates,
                s.crashes_before,
                s.crashes_after,
                s.steps_before,
                s.steps_after,
                s.procs_before,
                s.procs_after
            ));
            out.push_str(&format!("  repro: {}\n", f.artifact.to_json()));
        }
        None => out.push_str("  no violation found within budget\n"),
    }
    for d in &o.diagnostics {
        out.push_str(&format!("    {d}\n"));
    }
    out
}
