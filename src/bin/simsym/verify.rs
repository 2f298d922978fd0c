//! `simsym verify`: reduction-aware exhaustive exploration of one family.

use crate::family::{by_flag, family_flag};
use crate::flags::{self, Kind};
use crate::lint::fixture;
use crate::{json_rows, CmdOut};
use simsym::check::explore_check::{
    check_exploration, check_exploration_static, diverged_diagnostics, Interference, Reduction,
};
use simsym::check::{self, CheckReport, Diagnostic};
use simsym::core::{hopcroft_similarity, selection_program_q, LabelLearner, Model};
use simsym::graph::SystemGraph;
use simsym::vm::engine::sweep::run_jobs;
use simsym::vm::{ExploreConfig, ExploreResult, InstructionSet, Machine, Program, SystemInit};
use simsym_graph::VarId;
use std::sync::Arc;

/// Options for `verify`.
struct VerifyOpts {
    family: String,
    procs: Option<usize>,
    program: Option<String>,
    reduce: Reduction,
    interference: String,
    depth: usize,
    states: usize,
    json: bool,
}

impl VerifyOpts {
    fn parse(args: &[String]) -> Result<VerifyOpts, String> {
        let flags = flags::parse(
            args,
            &[
                flags::FAMILY,
                flags::PROCS,
                flags::PROGRAM,
                ("--reduce", Kind::Enum("reduction", check::REDUCTION_NAMES)),
                (
                    "--interference",
                    Kind::Enum("interference", check::INTERFERENCE_NAMES),
                ),
                ("--depth", Kind::Usize("depth")),
                ("--states", Kind::Usize("state budget")),
                flags::JSON,
            ],
        )?;
        flags.no_rest("verify flag")?;
        let opts = VerifyOpts {
            family: family_flag(&flags, "verify")?,
            procs: flags.usize("--procs"),
            program: flags.text("--program"),
            reduce: flags.text("--reduce").map_or(Reduction::Both, |v| {
                Reduction::parse(&v).expect("--reduce is checked against REDUCTION_NAMES")
            }),
            interference: flags
                .text("--interference")
                .unwrap_or_else(|| "probe".to_owned()),
            depth: flags.usize("--depth").unwrap_or(12),
            states: flags.usize("--states").unwrap_or(200_000),
            json: flags.on("--json"),
        };
        if opts.depth == 0 || opts.states == 0 {
            return Err("--depth and --states need to be positive".into());
        }
        if opts.interference != "probe" && !matches!(opts.reduce, Reduction::Por | Reduction::Both)
        {
            return Err(format!(
                "--interference {} only affects the POR reductions; use --reduce por or both",
                opts.interference
            ));
        }
        Ok(opts)
    }
}

/// The same machinery `elect` runs: the generated Q selection program
/// when one exists, else the label learner itself.
fn selection_machine(graph: &Arc<SystemGraph>, init: &SystemInit) -> Result<Machine, String> {
    let program: Arc<dyn Program> =
        match selection_program_q(graph, init).map_err(|e| e.to_string())? {
            Some(select) => Arc::new(select),
            None => {
                let theta = hopcroft_similarity(graph, init, Model::Q);
                Arc::new(LabelLearner::new(graph, init, &theta).map_err(|e| e.to_string())?)
            }
        };
    Machine::new(Arc::clone(graph), InstructionSet::Q, program, init).map_err(|e| e.to_string())
}

/// One exploration of `machine` under `mode`, its POR pruning driven by
/// one-step probes or, given them, by the program's static footprints.
fn explore(
    machine: &Machine,
    init: &SystemInit,
    cfg: ExploreConfig,
    mode: Reduction,
    footprints: Option<&[Vec<VarId>]>,
) -> (ExploreResult, Vec<Diagnostic>) {
    match footprints {
        Some(footprints) => check_exploration_static(machine, init, cfg, mode, footprints),
        None => check_exploration(machine, init, cfg, mode),
    }
}

/// One verify run: the mode it explored under and what it found.
struct VerifyRow {
    reduce: Reduction,
    interference: Interference,
    result: ExploreResult,
}

/// `simsym verify`: reduction-aware exhaustive exploration of one family
/// (or a seeded-defect fixture on it). Runs the requested reduction *and*
/// the identity baseline under the same budgets, cross-checks them, and
/// exits nonzero on any error-severity finding — a reachable double
/// selection, a surfaced machine-model violation, or a reducer that
/// diverged from the oracle.
pub fn verify(args: &[String]) -> Result<CmdOut, String> {
    let opts = VerifyOpts::parse(args)?;
    // The uniform (unmarked) family: a symmetric system, so the
    // similarity quotient has a nontrivial Aut(N) to divide by.
    let (family, procs) = by_flag(&opts.family)?;
    let graph = family.build_procs(opts.procs.unwrap_or(procs.verify))?;
    let init = SystemInit::uniform(&graph);
    let graph = Arc::new(graph);

    let (machine, program_label) = match &opts.program {
        Some(name) => (fixture(name, &graph, &init)?, name.clone()),
        None => (selection_machine(&graph, &init)?, "learner".to_owned()),
    };

    let cfg = ExploreConfig {
        max_depth: opts.depth,
        max_states: opts.states,
        threads: 1,
    };
    // The requested mode plus the identity baseline, fanned across the
    // generic job runner (order-preserving, so row 0 is the request and
    // the identity oracle is always last). --interference both inserts a
    // probe-driven twin of the request between the two.
    let primary = match opts.interference.as_str() {
        "static" | "both" => Interference::Static,
        _ => Interference::Probe,
    };
    let mut modes: Vec<(Reduction, Interference)> = vec![(opts.reduce, primary)];
    if opts.interference == "both" {
        modes.push((opts.reduce, Interference::Probe));
    }
    if opts.reduce != Reduction::None {
        modes.push((Reduction::None, Interference::Probe));
    }
    let footprints = if primary == Interference::Static {
        Some(check::machine_footprints(&machine)?)
    } else {
        None
    };
    let mut runs = run_jobs(modes.len(), &modes, |&(mode, interference)| {
        let footprints = match interference {
            Interference::Static => footprints.as_deref(),
            Interference::Probe => None,
        };
        explore(&machine, &init, cfg, mode, footprints)
    });

    let mut rows = Vec::new();
    let mut diags = Vec::new();
    for (i, ((result, run_diags), (mode, interference))) in runs.drain(..).zip(modes).enumerate() {
        if i == 0 {
            diags.extend(run_diags);
        }
        rows.push(VerifyRow {
            reduce: mode,
            interference,
            result,
        });
    }
    if rows.len() > 1 {
        let baseline = rows.last().expect("identity baseline");
        for row in &rows[..rows.len() - 1] {
            diags.extend(diverged_diagnostics(
                &baseline.result,
                &row.result,
                row.reduce,
            ));
        }
    }
    let factor_x100 = rows.last().expect("at least one run").result.states_visited * 100
        / rows[0].result.states_visited.max(1);
    let system = format!("{}:{}", opts.family, graph.processor_count());
    let report = CheckReport::new(system.clone(), diags);
    let text = if opts.json {
        verify_render_json(&opts, &system, &program_label, &rows, factor_x100, &report)
    } else {
        verify_render_text(&opts, &system, &program_label, &rows, factor_x100, &report)
    };
    Ok(CmdOut {
        text,
        failed: report.has_errors(),
    })
}

/// Renders the `simsym-verify/v1` JSON document. All numbers are
/// integers (the reduction factor ships ×100), so the schema skeleton is
/// byte-stable across hosts.
fn verify_render_json(
    opts: &VerifyOpts,
    system: &str,
    program: &str,
    rows: &[VerifyRow],
    factor_x100: usize,
    report: &CheckReport,
) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"simsym-verify/v1\",\n  \"system\": \"{system}\",\n  \"program\": \"{program}\",\n  \"interference\": \"{}\",\n  \"depth\": {},\n  \"max_states\": {},\n  \"runs\": [\n",
        opts.interference, opts.depth, opts.states
    );
    out.push_str(&json_rows(rows.iter().map(|r| {
        format!(
            "    {{\"reduce\": \"{}\", \"interference\": \"{}\", \"states_canonical\": {}, \"states_seen\": {}, \"outcomes\": {}, \"group_order\": {}, \"group_capped\": {}, \"peak_visited_bytes\": {}, \"truncated\": {}, \"double_selection\": {}}}",
            r.reduce.label(),
            r.interference.label(),
            r.result.states_visited,
            r.result.states_seen,
            r.result.outcomes.len(),
            r.result.group_order,
            u8::from(r.result.group_capped),
            r.result.peak_visited_bytes,
            u8::from(r.result.truncated),
            u8::from(r.result.has_double_selection()),
        )
    })));
    let diags: Vec<String> = report.diagnostics.iter().map(|d| d.to_json()).collect();
    out.push_str(&format!(
        "  ],\n  \"reduction_factor_x100\": {factor_x100},\n  \"diagnostics\": [{}]\n}}\n",
        diags.join(",")
    ));
    out
}

fn verify_render_text(
    opts: &VerifyOpts,
    system: &str,
    program: &str,
    rows: &[VerifyRow],
    factor_x100: usize,
    report: &CheckReport,
) -> String {
    let mut out = format!(
        "verify {system} program={program} depth={} states<={}\n",
        opts.depth, opts.states
    );
    for r in rows {
        out.push_str(&format!(
            "  reduce={:<9} intf={:<7} {:>8} canonical states ({:>9} arrivals)  |Aut| {}{}  peak {} B  outcomes {}{}{}\n",
            r.reduce.label(),
            r.interference.label(),
            r.result.states_visited,
            r.result.states_seen,
            r.result.group_order,
            if r.result.group_capped {
                " (capped)"
            } else {
                ""
            },
            r.result.peak_visited_bytes,
            r.result.outcomes.len(),
            if r.result.truncated {
                "  [truncated]"
            } else {
                ""
            },
            if r.result.has_double_selection() {
                "  [DOUBLE SELECTION]"
            } else {
                ""
            },
        ));
    }
    out.push_str(&format!(
        "reduction factor: {}.{:02}x (reduce={} vs none)\n",
        factor_x100 / 100,
        factor_x100 % 100,
        rows[0].reduce.label()
    ));
    for d in &report.diagnostics {
        out.push_str(&format!("    {d}\n"));
    }
    out
}
