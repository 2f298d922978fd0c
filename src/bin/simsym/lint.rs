//! `simsym lint`: static lints, then the dynamic checker suite.

use crate::family::parse_system_args;
use crate::flags::{self, Kind};
use crate::CmdOut;
use simsym::check::{self, suite::lint_sweep, CheckReport, Diagnostic};
use simsym::core::{hopcroft_similarity, LabelLearner, Model};
use simsym::graph::SystemGraph;
use simsym::vm::engine::sweep::{SweepConfig, SweepScheduler};
use simsym::vm::{InstructionSet, Machine, Program, RandomFair, SystemInit};
use std::sync::Arc;

/// Options for `lint`.
struct LintOpts {
    seed: u64,
    steps: u64,
    sweep: bool,
    json: bool,
    dot: bool,
    static_only: bool,
    program: Option<String>,
}

impl LintOpts {
    /// Parses lint's flags; the remaining tokens (`<system> [--mark ..]`)
    /// go on to [`parse_system_args`].
    fn parse(args: &[String]) -> Result<(LintOpts, Vec<String>), String> {
        let flags = flags::parse(
            args,
            &[
                flags::SEED,
                flags::STEPS,
                ("--sweep", Kind::Switch),
                flags::JSON,
                ("--dot", Kind::Switch),
                ("--static", Kind::Switch),
                flags::PROGRAM,
            ],
        )?;
        let opts = LintOpts {
            seed: flags.u64("--seed").unwrap_or(0),
            steps: flags.u64("--steps").unwrap_or(5_000),
            sweep: flags.on("--sweep"),
            json: flags.on("--json"),
            dot: flags.on("--dot"),
            static_only: flags.on("--static"),
            program: flags.text("--program"),
        };
        if opts.dot && opts.sweep {
            return Err("--dot and --sweep are mutually exclusive".into());
        }
        if opts.static_only && (opts.dot || opts.sweep) {
            return Err("--static runs no dynamic pass; it excludes --dot and --sweep".into());
        }
        Ok((opts, flags.rest))
    }
}

/// `simsym lint`: static lints over the system, then the dynamic checker
/// suite over one seeded run (or a schedule sweep). Exits nonzero when any
/// error-severity diagnostic is found.
pub fn lint(args: &[String]) -> Result<CmdOut, String> {
    let (opts, rest) = LintOpts::parse(args)?;
    let spec = rest.first().ok_or("missing system spec")?.clone();

    // Spec files get the raw-text lint before (and regardless of) parsing.
    let mut diags: Vec<Diagnostic> = Vec::new();
    if let Some(path) = spec.strip_prefix('@') {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        diags.extend(check::lint_spec(&text));
    }
    let (graph, init) = match parse_system_args(&rest) {
        Ok(pair) => pair,
        // A malformed spec file is a lint finding, not a usage error: the
        // raw-text lint above has already diagnosed it with line witnesses.
        Err(_) if diags.iter().any(|d| d.severity == check::Severity::Error) => {
            let report = CheckReport::new(spec, diags);
            return lint_render(&report, &opts, None);
        }
        Err(e) => return Err(e),
    };

    diags.extend(check::lint_graph(&graph));
    diags.extend(check::lint_labeling(&graph, &init));

    let graph = Arc::new(graph);
    let factory: Box<dyn Fn() -> Machine + Sync> = if let Some(name) = &opts.program {
        // Validate the fixture name once; the factory can then unwrap.
        fixture(name, &graph, &init)?;
        let (name, g, init) = (name.clone(), Arc::clone(&graph), init.clone());
        Box::new(move || {
            check::fixture_machine(&name, Arc::clone(&g), &init).expect("validated fixture")
        })
    } else {
        // Default dynamic pass: the Q label learner (Algorithm 2), a
        // known-conforming program that exercises every processor.
        let labeling = hopcroft_similarity(&graph, &init, Model::Q);
        match LabelLearner::new(&graph, &init, &labeling) {
            Ok(learner) => {
                let prog: Arc<dyn Program> = Arc::new(learner);
                let (g, init) = (Arc::clone(&graph), init.clone());
                Box::new(move || {
                    Machine::new(Arc::clone(&g), InstructionSet::Q, Arc::clone(&prog), &init)
                        .expect("learner machine construction")
                })
            }
            Err(_) => {
                // lint_labeling has already reported the inconsistency;
                // there is no sound machine to run, so stop at statics.
                let report = CheckReport::new(spec, diags);
                return lint_render(&report, &opts, None);
            }
        }
    };

    let machine = factory();
    diags.extend(check::lint_machine(&machine));
    if opts.static_only {
        // Statics only — the dataflow analyses over the program's spec
        // replace the dynamic pass; zero VM steps are executed.
        diags.extend(check::analyze_machine(&machine, &init)?);
        let report = CheckReport::new(spec, diags);
        return lint_render(&report, &opts, None);
    }
    drop(machine);

    if opts.sweep {
        let config = SweepConfig {
            kinds: vec![SweepScheduler::RoundRobin, SweepScheduler::RandomFair],
            seeds: (opts.seed..opts.seed + 8).collect(),
            max_steps: opts.steps,
            threads: 4,
        };
        let sweep = lint_sweep(spec.clone(), &factory, &config);
        let static_report = CheckReport::new(spec, diags);
        let failed = static_report.has_errors() || sweep.has_errors();
        let text = if opts.json {
            format!("{}\n{}\n", static_report.to_json(), sweep.to_json())
        } else {
            format!("{}{}", static_report.render_text(), sweep.render_text())
        };
        return Ok(CmdOut { text, failed });
    }

    let mut machine = factory();
    let mut sched = RandomFair::seeded(opts.seed);
    let outcome = check::run_dynamic(&mut machine, &mut sched, opts.steps);
    diags.extend(outcome.diagnostics);
    let report = CheckReport::new(spec, diags);
    lint_render(&report, &opts, Some(&outcome.lock_order))
}

/// The seeded-defect fixture program `name` as a machine on `graph`.
pub fn fixture(name: &str, graph: &Arc<SystemGraph>, init: &SystemInit) -> Result<Machine, String> {
    check::fixture_machine(name, Arc::clone(graph), init).ok_or_else(|| {
        format!(
            "unknown fixture program {name:?} (have: {})",
            check::FIXTURE_NAMES.join(", ")
        )
    })
}

/// Renders a lint report per the output flags; `--dot` substitutes the
/// lock-order graph (empty when no dynamic run happened).
fn lint_render(
    report: &CheckReport,
    opts: &LintOpts,
    lock_order: Option<&check::LockOrderGraph>,
) -> Result<CmdOut, String> {
    let text = if opts.dot {
        lock_order.cloned().unwrap_or_default().to_dot()
    } else if opts.json {
        format!("{}\n", report.to_json())
    } else {
        report.render_text()
    };
    Ok(CmdOut {
        text,
        failed: report.has_errors(),
    })
}
