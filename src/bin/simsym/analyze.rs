//! `simsym analyze`: the similarity and solvability report, a recorded
//! schedule trace (`--trace`), or the replay of a repro artifact
//! (`--trace FILE`).

use crate::family::parse_system_args;
use crate::flags::{self, Kind};
use crate::soak::soak_run_fixed;
use crate::{ok, write_stderr, CmdOut};
use simsym::check::{self, CheckReport, Diagnostic};
use simsym::core::{decide_selection_with_init, hopcroft_similarity, LabelLearner, Model};
use simsym::graph::SystemGraph;
use simsym::vm::engine::metrics::MetricsProbe;
use simsym::vm::engine::trace::{replay, TraceRecorder};
use simsym::vm::{
    engine, InstructionSet, Machine, Program, RandomFair, ReproArtifact, ReproError, Scheduler,
    SystemInit,
};
use std::sync::Arc;

/// `simsym analyze <system> [--mark ..] [--trace [--seed N] [--steps N]]`
/// or `simsym analyze --trace FILE`. A non-flag token right after
/// `--trace` is a repro artifact to replay.
pub fn analyze_command(args: &[String]) -> Result<CmdOut, String> {
    let flags = flags::parse(
        args,
        &[("--trace", Kind::OptStr), flags::SEED, flags::STEPS],
    )?;
    let seed = flags.u64("--seed").unwrap_or(0);
    let max_steps = flags.u64("--steps").unwrap_or(100_000);
    let tuned = seed != 0 || max_steps != 100_000;
    if !flags.on("--trace") && tuned {
        return Err("--seed/--steps only make sense with --trace".into());
    }
    if let Some(path) = flags.text("--trace") {
        if tuned {
            return Err("--seed/--steps do not apply when replaying a repro artifact".into());
        }
        if !flags.rest.is_empty() {
            return Err(
                "--trace FILE replays a repro artifact; a system spec is not allowed".into(),
            );
        }
        return analyze_replay(&path);
    }
    let (graph, init) = parse_system_args(&flags.rest)?;
    if flags.on("--trace") {
        analyze_trace(&graph, &init, seed, max_steps).and_then(ok)
    } else {
        ok(analyze(&graph, &init))
    }
}

/// Runs the Q label learner under a seeded random-fair schedule, records a
/// [`ScheduleTrace`], verifies it replays to the identical final state on a
/// fresh machine, and returns the JSON document.
fn analyze_trace(
    graph: &SystemGraph,
    init: &SystemInit,
    seed: u64,
    max_steps: u64,
) -> Result<String, String> {
    let labeling = hopcroft_similarity(graph, init, Model::Q);
    let prog = LabelLearner::new(graph, init, &labeling).map_err(|e| e.to_string())?;
    let prog: Arc<dyn Program> = Arc::new(prog);
    let graph = Arc::new(graph.clone());
    let fresh = || {
        Machine::new(
            Arc::clone(&graph),
            InstructionSet::Q,
            Arc::clone(&prog),
            init,
        )
        .map_err(|e| e.to_string())
    };

    let mut machine = fresh()?;
    let mut sched = RandomFair::seeded(seed);
    let kind = Scheduler::<Machine>::kind(&sched).to_string();
    let mut recorder = TraceRecorder::new(format!("random_fair(seed={})", seed), kind);
    let mut metrics = MetricsProbe::new();
    let report = engine::run(
        &mut machine,
        &mut sched,
        max_steps,
        &mut [&mut recorder, &mut metrics],
        &mut engine::stop::when(|m: &Machine| {
            m.graph()
                .processors()
                .all(|p| LabelLearner::is_done(m.local(p)))
        }),
    );
    let trace = recorder.into_trace();

    let mut replica = fresh()?;
    replay(&mut replica, &trace).map_err(|e| format!("trace failed to replay: {e}"))?;

    write_stderr(format_args!(
        "# {} steps under {} ({:?})\n{}",
        report.steps,
        trace.scheduler,
        report.stop,
        metrics.metrics()
    ))
    .map_err(|e| format!("cannot write metrics to stderr: {e}"))?;
    Ok(format!("{}\n", trace.to_json()))
}

/// `analyze --trace FILE`: replays a `simsym-repro/v1` artifact verbatim
/// and checks that the recorded verdict reproduces. An ill-formed fault
/// plan is a `SOAK-PLAN` diagnostic (nonzero exit), not a panic; a
/// verdict mismatch is `SOAK-REPLAY-DIVERGED`.
fn analyze_replay(path: &str) -> Result<CmdOut, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let artifact = match ReproArtifact::from_json(text.trim()) {
        Ok(a) => a,
        Err(ReproError::Plan(e)) => {
            let diag = Diagnostic::new(
                check::Severity::Error,
                check::diag::codes::SOAK_PLAN,
                check::Span::none(),
                format!("repro artifact carries an ill-formed fault plan: {e}"),
            );
            let report = CheckReport::new(format!("repro:{path}"), vec![diag]);
            return Ok(CmdOut {
                text: report.render_text(),
                failed: true,
            });
        }
        Err(e) => return Err(format!("{path}: {e}")),
    };
    let observed = soak_run_fixed(
        &artifact.family,
        artifact.journal,
        artifact.procs,
        &artifact.plan,
        &artifact.schedule,
    )?;
    let mut out = format!(
        "replayed {path}: family={} procs={} journal={} crashes={} steps={}\n",
        artifact.family,
        artifact.procs,
        artifact.journal,
        artifact.plan.crashes.len(),
        artifact.schedule.len()
    );
    if observed.as_deref() == Some(artifact.violation.as_str()) {
        out.push_str(&format!("verdict {} reproduced\n", artifact.violation));
        return ok(out);
    }
    let diag = Diagnostic::new(
        check::Severity::Error,
        check::diag::codes::SOAK_REPLAY_DIVERGED,
        check::Span::none(),
        format!(
            "artifact records verdict {} but the replay produced {}",
            artifact.violation,
            observed.as_deref().unwrap_or("a clean run")
        ),
    );
    out.push_str(&format!("    {diag}\n"));
    Ok(CmdOut {
        text: out,
        failed: true,
    })
}

fn analyze(graph: &SystemGraph, init: &SystemInit) -> String {
    let mut out = String::new();
    let theta = hopcroft_similarity(graph, init, Model::Q);
    out.push_str(&format!(
        "{} processors, {} variables, {} names; Q-similarity classes: {}\n",
        graph.processor_count(),
        graph.variable_count(),
        graph.name_count(),
        theta.class_count()
    ));
    let classes: Vec<String> = theta
        .proc_classes()
        .iter()
        .map(|c| {
            let ids: Vec<String> = c.iter().map(|p| p.to_string()).collect();
            format!("{{{}}}", ids.join(" "))
        })
        .collect();
    out.push_str(&format!("processor classes: {}\n", classes.join("  ")));
    for model in Model::ALL {
        let d = decide_selection_with_init(graph, init, model);
        out.push_str(&format!("  {d}\n"));
    }
    out
}
