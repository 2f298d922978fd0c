//! `certify`: the reduced model checking `simsym verify` does, in-process
//! on one thread. Per case: build the system (graph, labeling, program,
//! machine), explore it under the requested reduction, explore it again
//! under the identity oracle, and diff the two.

use crate::report::{timed_repeats, Metrics, Outcome};
use crate::stats::median;
use crate::trace::{
    self, maybe_span, per_rep, reps_of, setup_layers, Recorder, TimedProgram, TimedReducer,
};
use simsym_check::explore_check::{
    check_exploration, diverged_diagnostics, explore_diagnostics, Reduction,
};
use simsym_check::{Diagnostic, Severity};
use simsym_core::{hopcroft_similarity, selection_program_q, LabelLearner, Model};
use simsym_graph::{topology, SystemGraph};
use simsym_vm::SystemInit;
use simsym_vm::{explore_with, ExploreConfig, ExploreResult, InstructionSet, Machine, Program};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A system family at one size.
#[derive(Clone, Copy, Debug)]
pub enum Family {
    Ring(usize),
    Table(usize),
    /// Hypercube of the given dimension (2^dim processors).
    Hypercube(usize),
    MarkedRing(usize),
    Alternating(usize),
}

impl Family {
    fn graph(self) -> SystemGraph {
        match self {
            Family::Ring(n) => topology::uniform_ring(n),
            Family::Table(n) => topology::philosophers_table(n),
            Family::Hypercube(d) => topology::hypercube(d),
            Family::MarkedRing(n) => topology::marked_ring(n),
            Family::Alternating(n) => topology::philosophers_alternating(n),
        }
    }
}

/// Canonical states and arrivals of one exploration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    pub states: usize,
    pub arrivals: usize,
}

/// One certify case with its pinned counts (reduced run, identity oracle).
pub struct Case {
    pub name: &'static str,
    pub family: Family,
    pub reduction: Reduction,
    /// `None`: the search runs until it has seen every reachable state.
    /// `Some(d)`: cut off at depth `d`, allowed only where Aut(N) is
    /// trivial (see [`check_case`]).
    pub depth: Option<usize>,
    pub reduced: Counts,
    pub oracle: Counts,
}

const fn counts(states: usize, arrivals: usize) -> Counts {
    Counts { states, arrivals }
}

/// The fixed case list. The symmetric and POR-only cases are exhausted,
/// so the reduced run can be checked against the identity oracle; the
/// sizes are the largest whose exhaustive searches keep a rep near a
/// second without one case dominating it. The |G| = 1 marked ring, where
/// canonicalization is pure overhead, has no finite search (new states
/// keep appearing with depth), so it is depth-bounded and sized to about
/// a quarter of a rep.
pub const CASES: &[Case] = &[
    Case {
        name: "ring-5-quotient",
        family: Family::Ring(5),
        reduction: Reduction::Quotient,
        depth: None,
        reduced: counts(4559, 13825),
        oracle: counts(22775, 69041),
    },
    Case {
        name: "table-5-both",
        family: Family::Table(5),
        reduction: Reduction::Both,
        depth: None,
        reduced: counts(1605, 2201),
        oracle: counts(22775, 69041),
    },
    Case {
        name: "hypercube-4-quotient",
        family: Family::Hypercube(2),
        reduction: Reduction::Quotient,
        depth: None,
        reduced: counts(832, 2055),
        oracle: counts(3203, 7873),
    },
    Case {
        name: "marked-ring-4-quotient",
        family: Family::MarkedRing(4),
        reduction: Reduction::Quotient,
        depth: Some(14),
        reduced: counts(11492, 28505),
        oracle: counts(11492, 28505),
    },
    Case {
        name: "alternating-4-por",
        family: Family::Alternating(4),
        reduction: Reduction::Por,
        depth: None,
        reduced: counts(1758, 2423),
        oracle: counts(3203, 7873),
    },
];

/// The depth bound of an exhaustive case: far beyond the longest path of
/// any case's state space, so reaching it marks the search truncated and
/// fails the case.
const EXHAUSTIVE: usize = 1_000_000;

const MAX_STATES: usize = 200_000;

/// Set-up passes a traced run times, for the medians of its set-up layers.
const SETUP_PASSES_TRACED: u64 = 15;

/// Set-up passes timed before every rep: `setup_s` is their median, so it
/// samples the whole run, as `run_s` does.
const SETUP_PASSES_PER_REP: usize = 25;

fn config(case: &Case) -> ExploreConfig {
    ExploreConfig {
        max_depth: case.depth.unwrap_or(EXHAUSTIVE),
        max_states: MAX_STATES,
        threads: 1,
    }
}

/// A case's system, ready to explore.
pub struct Built {
    init: SystemInit,
    machine: Machine,
    /// The step-timing wrapper the machine's program sits in (traced
    /// builds only).
    program: Option<Arc<TimedProgram>>,
}

/// Builds one case in the order `simsym verify` does: graph, labeling,
/// selection program (or the label learner when no processor is uniquely
/// labeled), machine. With a recorder, each call is a span and the
/// program is wrapped for step timing.
pub fn build(case: &Case, group: u64, mut rec: Option<&mut Recorder>) -> Built {
    let graph = maybe_span(&mut rec, "graph.topology", group, || case.family.graph());
    let graph = Arc::new(graph);
    let init = SystemInit::uniform(&graph);
    let theta = maybe_span(&mut rec, "core.label", group, || {
        hopcroft_similarity(&graph, &init, Model::Q)
    });
    let mut program = maybe_span(&mut rec, "core.program", group, || -> Arc<dyn Program> {
        match selection_program_q(&graph, &init).expect("consistent labeling") {
            Some(select) => Arc::new(select),
            None => Arc::new(LabelLearner::new(&graph, &init, &theta).expect("consistent")),
        }
    });
    let wrapper = rec.is_some().then(|| TimedProgram::new(program.clone()));
    if let Some(w) = &wrapper {
        program = w.clone();
    }
    let machine = maybe_span(&mut rec, "vm.machine", group, || {
        Machine::new(graph.clone(), InstructionSet::Q, program.clone(), &init)
            .expect("selection machine")
    });
    Built {
        init,
        machine,
        program: wrapper,
    }
}

/// Builds every case once.
pub fn setup() -> Vec<Built> {
    CASES.iter().map(|c| build(c, 0, None)).collect()
}

/// What one case produced.
pub struct CaseRun {
    pub reduced: ExploreResult,
    pub oracle: ExploreResult,
    pub diags: Vec<Diagnostic>,
    pub diverged: Vec<Diagnostic>,
}

/// One case, with exactly the library calls `simsym verify` makes.
pub fn run_case(case: &Case, b: &Built) -> CaseRun {
    let cfg = config(case);
    let (reduced, diags) = check_exploration(&b.machine, &b.init, cfg, case.reduction);
    let (oracle, _) = check_exploration(&b.machine, &b.init, cfg, Reduction::None);
    let diverged = diverged_diagnostics(&oracle, &reduced, case.reduction);
    CaseRun {
        reduced,
        oracle,
        diags,
        diverged,
    }
}

/// `check_exploration` unrolled so each layer call is a span: reducer
/// construction, then `explore_with` over a timed reducer and program,
/// then `explore_diagnostics`.
fn explore_traced(
    rec: &mut Recorder,
    case: &Case,
    b: &Built,
    mode: Reduction,
    group: u64,
) -> (ExploreResult, Vec<Diagnostic>) {
    let cfg = config(case);
    let build_name = if matches!(mode, Reduction::Quotient | Reduction::Both) {
        "graph.aut"
    } else {
        "reduce.build"
    };
    let inner = rec.span(build_name, group, |_| {
        mode.build(b.machine.graph(), &b.init)
    });
    let mut reducer = TimedReducer::new(inner);
    let program = b.program.as_ref().expect("traced build");
    program.take();
    let result = rec.span("explore", group, |rec| {
        let result = explore_with(&b.machine, cfg, &mut reducer);
        rec.aggregate(None, "explore.canon", reducer.canon.take());
        rec.aggregate(None, "explore.ample", reducer.ample.take());
        rec.aggregate(None, "explore.step", program.take());
        result
    });
    let diags = rec.span("check.diagnostics", group, |_| {
        explore_diagnostics(&result, cfg, mode)
    });
    (result, diags)
}

/// The traced twin of [`run_case`].
pub fn run_case_traced(rec: &mut Recorder, case: &Case, b: &Built, group: u64) -> CaseRun {
    rec.span(case.name, group, |rec| {
        let (reduced, diags) = explore_traced(rec, case, b, case.reduction, group);
        let (oracle, _) = rec.span("check.oracle", group, |rec| {
            explore_traced(rec, case, b, Reduction::None, group)
        });
        let diverged = rec.span("check.diverged", group, |_| {
            diverged_diagnostics(&oracle, &reduced, case.reduction)
        });
        CaseRun {
            reduced,
            oracle,
            diags,
            diverged,
        }
    })
}

fn counts_of(r: &ExploreResult) -> Counts {
    Counts {
        states: r.states_visited,
        arrivals: r.states_seen,
    }
}

/// What the oracle comparison looks at: selected sets, the
/// double-selection verdict, violation kinds and both counts.
fn observed(r: &ExploreResult) -> impl PartialEq + '_ {
    (
        &r.outcomes,
        r.has_double_selection(),
        &r.violation_kinds,
        counts_of(r),
    )
}

/// Output checks for one case: agreement with the identity oracle, no
/// error-severity finding, and the pinned counts.
///
/// `diverged_diagnostics` compares nothing once either search is
/// truncated, so an exhaustive case fails if it was cut off. The one
/// depth-bounded case has a trivial group, where the quotient maps every
/// state to itself: its reduced search must then equal the oracle's
/// exactly, truncated or not.
pub fn check_case(case: &Case, run: &CaseRun) -> Result<(), String> {
    match case.depth {
        None if run.reduced.truncated || run.oracle.truncated => {
            return Err(format!(
                "{}: search truncated, so the oracle comparison is empty",
                case.name
            ));
        }
        None => {}
        Some(_) if run.reduced.group_order != 1 || run.reduced.group_capped => {
            return Err(format!(
                "{}: depth-bounded, but |Aut(N)| = {}",
                case.name, run.reduced.group_order
            ));
        }
        Some(_) if observed(&run.reduced) != observed(&run.oracle) => {
            return Err(format!(
                "{}: with |Aut(N)| = 1 the reduced run differs from the oracle",
                case.name
            ));
        }
        Some(_) => {}
    }
    if !run.diverged.is_empty() {
        return Err(format!(
            "{}: reduced run diverged from the oracle",
            case.name
        ));
    }
    if let Some(d) = run.diags.iter().find(|d| d.severity == Severity::Error) {
        return Err(format!("{}: {} {}", case.name, d.code, d.message));
    }
    for (what, got, want) in [
        ("reduced", counts_of(&run.reduced), case.reduced),
        ("oracle", counts_of(&run.oracle), case.oracle),
    ] {
        if got != want {
            return Err(format!(
                "{}: {what} counts {got:?}, pinned {want:?}",
                case.name
            ));
        }
    }
    Ok(())
}

/// Every field of a result, for the traced-equals-untraced check.
pub fn result_key(run: &CaseRun) -> String {
    format!("{:?}|{:?}", run.reduced, run.oracle)
}

/// One rep: every case once. Returns the runs and the rep's wall time.
fn rep(built: &[Built]) -> (Vec<CaseRun>, Duration) {
    let t = Instant::now();
    let runs = CASES
        .iter()
        .zip(built)
        .map(|(c, b)| run_case(c, b))
        .collect();
    (runs, t.elapsed())
}

fn rep_traced(rec: &mut Recorder, built: &[Built], rep_no: u64) -> (Vec<CaseRun>, Duration) {
    let t = Instant::now();
    let runs = CASES
        .iter()
        .zip(built)
        .enumerate()
        .map(|(i, (c, b))| run_case_traced(rec, c, b, rep_no * 100 + i as u64))
        .collect();
    (runs, t.elapsed())
}

/// Checks a rep's runs, counting each case as one attempted operation.
/// Every rep, traced or not, must reproduce the first rep's results
/// field for field.
fn tally(out: &mut Outcome, runs: &[CaseRun], reference: &mut Option<Vec<String>>) {
    let keys: Vec<String> = runs.iter().map(result_key).collect();
    let reference = reference.get_or_insert_with(|| keys.clone());
    for (i, (case, run)) in CASES.iter().zip(runs).enumerate() {
        out.attempted += 1;
        let verdict = check_case(case, run).and_then(|()| {
            if keys[i] == reference[i] {
                Ok(())
            } else {
                Err(format!("{}: result differs from the first rep", case.name))
            }
        });
        if let Err(e) = verdict {
            out.fail(e);
        }
    }
}

pub fn run(seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut reference = None;
    let mut plain_times = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    if !traced {
        let mut setup_times = Vec::new();
        while plain_times.len() < 3 || Instant::now() < deadline {
            let built = timed_repeats(SETUP_PASSES_PER_REP, &mut setup_times, setup);
            let (runs, t) = rep(&built);
            tally(&mut out, &runs, &mut reference);
            plain_times.push(t.as_secs_f64());
        }
        out.info(format!(
            "{} reps of {} cases; run_s is the median rep",
            plain_times.len(),
            CASES.len()
        ));
        out.info(format!(
            "rep times (ms): {:?}",
            plain_times
                .iter()
                .map(|t| (t * 1e3).round() as u64)
                .collect::<Vec<_>>()
        ));
        out.metrics.put("setup_s", median(&setup_times), "s");
        out.metrics.put("run_s", median(&plain_times), "s");
        out.metrics
            .put("peak_rss_mb", crate::report::peak_rss_mb("self"), "MB");
        return out;
    }

    // Traced: untraced and traced reps alternate, so drift hits both.
    let built = setup();
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch);
    let mut traced_built = Vec::new();
    for pass in 0..SETUP_PASSES_TRACED {
        traced_built = rec.span("setup", pass, |rec| {
            CASES.iter().map(|c| build(c, pass, Some(rec))).collect()
        });
    }
    let mut traced_times = Vec::new();
    let mut first_traced = None;
    while traced_times.len() < 3 || Instant::now() < deadline {
        let (runs, t) = rep(&built);
        tally(&mut out, &runs, &mut reference);
        plain_times.push(t.as_secs_f64());
        let rep_no = traced_times.len() as u64 + 1;
        let (runs, t) = rec.span("rep", rep_no * 100 + 99, |rec| {
            rep_traced(rec, &traced_built, rep_no)
        });
        tally(&mut out, &runs, &mut reference);
        traced_times.push(t.as_secs_f64());
        first_traced.get_or_insert(runs);
    }
    let untraced = median(&plain_times);
    out.info(format!(
        "{} untraced and {} traced reps, alternating",
        plain_times.len(),
        traced_times.len()
    ));
    let spans = rec.into_spans();
    layer_metrics(
        &mut out.metrics,
        &spans,
        &first_traced.expect("a traced rep"),
        untraced,
    );
    out.metrics.put(
        "trace.overhead",
        median(&traced_times) / untraced - 1.0,
        "ratio",
    );
    out.spans = spans;
    out
}

fn layer_metrics(m: &mut Metrics, spans: &[trace::Span], runs: &[CaseRun], run_s: f64) {
    let ms = |ns: f64| ns / 1e6;
    let results = || runs.iter().flat_map(|r| [&r.reduced, &r.oracle]);
    let states: usize = results().map(|r| r.states_visited).sum();
    let arrivals: usize = results().map(|r| r.states_seen).sum();
    let peak = results().map(|r| r.peak_visited_bytes).max().unwrap_or(0);
    setup_layers(m, spans);
    let reps = reps_of(spans);
    let first = &reps[0];
    let busy = |s: &[trace::Span], name: &str| trace::busy(s, name) as f64;
    let per_call =
        |s: &[trace::Span], name: &str| busy(s, name) / trace::calls(s, name).max(1) as f64;
    m.put(
        "graph.aut_ms",
        per_rep(&reps, |s| ms(busy(s, "graph.aut"))),
        "ms",
    );
    m.put("explore.states", states as f64, "count");
    m.put("explore.arrivals", arrivals as f64, "count");
    m.put(
        "explore.dedup_ratio",
        states as f64 / arrivals as f64,
        "ratio",
    );
    m.put("explore.states_per_s", states as f64 / run_s, "1/s");
    for (layer, name) in [
        ("canon", "explore.canon"),
        ("ample", "explore.ample"),
        ("step", "explore.step"),
    ] {
        m.put(
            &format!("explore.{layer}_calls"),
            trace::calls(first, name) as f64,
            "count",
        );
        m.put(
            &format!("explore.{layer}_ns"),
            per_rep(&reps, |s| per_call(s, name)),
            "ns",
        );
    }
    m.put(
        "explore.canon_share",
        per_rep(&reps, |s| busy(s, "explore.canon") / busy(s, "explore")),
        "ratio",
    );
    m.put(
        "explore.self_share",
        per_rep(&reps, |s| {
            trace::self_total(s, "explore") as f64 / busy(s, "explore")
        }),
        "ratio",
    );
    m.put("explore.visited_peak_kb", peak as f64 / 1024.0, "KiB");
    let case_ns = |s: &[trace::Span]| CASES.iter().map(|c| busy(s, c.name)).sum::<f64>();
    m.put(
        "check.oracle_share",
        per_rep(&reps, |s| busy(s, "check.oracle") / case_ns(s)),
        "ratio",
    );
    for c in CASES {
        m.put(
            &format!("certify.{}_ms", c.name),
            per_rep(&reps, |s| ms(busy(s, c.name))),
            "ms",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small twins of the certify cases, one per reduction mode.
    fn small_cases() -> Vec<Case> {
        let case = |name, family, reduction, depth| Case {
            name,
            family,
            reduction,
            depth,
            reduced: counts(0, 0),
            oracle: counts(0, 0),
        };
        vec![
            case(
                "ring-4-quotient",
                Family::Ring(4),
                Reduction::Quotient,
                None,
            ),
            case("table-4-both", Family::Table(4), Reduction::Both, None),
            case(
                "marked-ring-3-quotient",
                Family::MarkedRing(3),
                Reduction::Quotient,
                Some(8),
            ),
            case(
                "alternating-4-por",
                Family::Alternating(4),
                Reduction::Por,
                None,
            ),
        ]
    }

    #[test]
    fn traced_runs_reproduce_untraced_results_and_repeat_their_counts() {
        for case in small_cases() {
            let plain = run_case(&case, &build(&case, 0, None));
            assert!(plain.diverged.is_empty(), "{}", case.name);
            assert_eq!(
                plain.reduced.truncated,
                case.depth.is_some(),
                "{}",
                case.name
            );
            let mut seen = Vec::new();
            for _ in 0..2 {
                let mut rec = Recorder::new(Instant::now());
                let b = build(&case, 0, Some(&mut rec));
                let traced = run_case_traced(&mut rec, &case, &b, 0);
                assert_eq!(result_key(&traced), result_key(&plain), "{}", case.name);
                let spans = rec.into_spans();
                let count = |name| trace::calls(&spans, name);
                seen.push([
                    count("explore.canon"),
                    count("explore.ample"),
                    count("explore.step"),
                ]);
                assert!(count("explore.canon") > 0 && count("explore.step") > 0);
                assert_eq!(
                    count("explore.ample") > 0,
                    case.reduction != Reduction::Quotient
                );
            }
            assert_eq!(seen[0], seen[1], "{}: counts repeat exactly", case.name);
        }
    }

    #[test]
    fn a_wrong_pin_is_an_operation_failure() {
        let case = &small_cases()[0];
        let run = run_case(case, &build(case, 0, None));
        assert!(check_case(case, &run).unwrap_err().contains("pinned"));
        let mut out = Outcome::default();
        let mut reference = None;
        tally(&mut out, std::slice::from_ref(&run), &mut reference);
        assert_eq!((out.attempted, out.failed), (1, 1));
    }

    #[test]
    fn truncated_searches_fail_unless_the_group_is_trivial() {
        let cases = small_cases();
        let mut run = run_case(&cases[0], &build(&cases[0], 0, None));
        let pinned = |r: &ExploreResult| Case {
            reduced: counts_of(r),
            oracle: counts_of(r),
            ..small_cases().swap_remove(0)
        };
        let mut case = pinned(&run.reduced);
        case.oracle = counts_of(&run.oracle);
        assert_eq!(check_case(&case, &run), Ok(()));
        run.oracle.truncated = true;
        assert!(check_case(&case, &run).unwrap_err().contains("truncated"));

        // A symmetric case cut off by depth is refused outright.
        case.depth = Some(5);
        let cut = run_case(&case, &build(&case, 0, None));
        assert!(cut.reduced.truncated && cut.diverged.is_empty());
        assert!(check_case(&case, &cut)
            .unwrap_err()
            .contains("|Aut(N)| = 4"));

        // With |G| = 1 the cut-off runs must agree exactly.
        let marked = &cases[2];
        let mut run = run_case(marked, &build(marked, 0, None));
        let mut case = pinned(&run.reduced);
        case.family = marked.family;
        case.depth = marked.depth;
        assert_eq!(check_case(&case, &run), Ok(()));
        run.reduced.outcomes.clear();
        assert!(check_case(&case, &run).unwrap_err().contains("differs"));
    }
}
