//! `simsym bench`: the deterministic perf micro-suite.

use crate::flags::{self, Kind};
use crate::verify::{explore, selection_machine};
use crate::{json_rows, ok, CmdOut};
use simsym::check;
use simsym::check::explore_check::{check_exploration, Interference, Reduction};
use simsym::core::{hopcroft_similarity, refinement_similarity, LabelLearner, Model};
use simsym::graph::{topology, SystemGraph};
use simsym::philo::{chandy_misra_init, ChandyMisraPhilosopher, LockOrderPhilosopher};
use simsym::vm::faults::{FaultPlan, FaultSched, Faulty};
use simsym::vm::{
    run, ExploreConfig, InstructionSet, Machine, Program, RoundRobin, Scheduler, System, SystemInit,
};
use std::sync::Arc;

/// Options for `bench`.
pub struct BenchOpts {
    pub json: bool,
    pub quick: bool,
    pub against: Option<String>,
}

impl BenchOpts {
    fn parse(args: &[String]) -> Result<BenchOpts, String> {
        let flags = flags::parse(
            args,
            &[
                flags::JSON,
                ("--quick", Kind::Switch),
                ("--against", Kind::Str("a file")),
            ],
        )?;
        flags.no_rest("bench flag")?;
        Ok(BenchOpts {
            json: flags.on("--json"),
            quick: flags.on("--quick"),
            against: flags.text("--against"),
        })
    }
}

/// One steps/second measurement: a fixed round-robin step budget on a
/// fixed machine.
pub struct ThroughputRow {
    pub family: &'static str,
    pub n: usize,
    pub isa: &'static str,
    pub steps: u64,
    pub nanos: u128,
}

/// One scale-tier measurement: a CSR-backed ring built through
/// `SystemGraph::from_fn`, timed for construction, run under the budgeted
/// Q diffusion workload, and costed in bytes per processor (adjacency plus
/// machine state). The 10^6 tier constructs and reports memory only —
/// `steps == 0` — so the suite stays inside a CI wall-clock budget.
pub struct ScaleRow {
    pub family: &'static str,
    pub n: usize,
    pub construct_nanos: u128,
    pub steps: u64,
    pub nanos: u128,
    pub bytes_per_processor: usize,
}

/// Builds the `n`-processor scale ring, runs `steps` round-robin steps of
/// the budgeted Q workload (skipped when `steps == 0`), and reports the
/// row. Construction is timed separately from stepping so the row shows
/// both "how fast does the 10^5 tier build" and "how fast does it run".
fn scale_row(family: &'static str, n: usize, steps: u64, reps: u32) -> Result<ScaleRow, String> {
    let mut built = None;
    let construct_nanos = time_min(
        || {
            let sys = simsym::core::scale_ring(n);
            let m = Machine::new(
                Arc::new(sys.graph),
                InstructionSet::Q,
                Arc::new(simsym::core::ScaleWorkload::new(2)),
                &sys.init,
            );
            built = Some(m);
        },
        1,
    );
    let m = built
        .expect("timed at least once")
        .map_err(|e| e.to_string())?;
    let nanos = if steps == 0 {
        1
    } else {
        time_steps(&m, steps, reps)
    };
    let bytes = m.graph().approx_bytes() + m.approx_state_bytes();
    Ok(ScaleRow {
        family,
        n,
        construct_nanos,
        steps,
        nanos,
        bytes_per_processor: bytes / n,
    })
}

/// One labeling-time measurement on a marked ring.
pub struct LabelingRow {
    pub n: usize,
    pub algorithm: &'static str,
    pub nanos: u128,
}

/// One reduction-aware exploration measurement: states visited and
/// wall-clock for one `(family, reduce)` pair under a fixed budget.
pub struct ExploreRow {
    pub family: &'static str,
    pub n: usize,
    pub reduce: &'static str,
    pub states_canonical: usize,
    pub states_seen: usize,
    pub nanos: u128,
}

/// One static-lint measurement: wall-clock for the full dataflow
/// analysis suite over one family's learner machine — zero VM steps.
pub struct StaticLintRow {
    pub family: &'static str,
    pub n: usize,
    pub nanos: u128,
}

/// One static-vs-probe interference measurement: the POR exploration of
/// one family under each interference source.
pub struct StaticInterferenceRow {
    pub family: &'static str,
    pub n: usize,
    pub interference: &'static str,
    pub states_canonical: usize,
    pub states_seen: usize,
    pub nanos: u128,
}

/// The zero-fault overhead measurement: the same machine and step budget
/// timed bare, through the fault layer with an empty plan, and through
/// the fault layer with an empty plan *plus* an active journal.
pub struct OverheadRow {
    pub steps: u64,
    pub plain_nanos: u128,
    pub faulted_nanos: u128,
    pub journaled_nanos: u128,
}

impl OverheadRow {
    /// Signed integer overhead percent. A (noise-induced) faster faulted
    /// run renders as a negative percent instead of silently clamping to
    /// zero; [`bench_schema_skeleton`] strips a numeric `-` along with
    /// the digits it signs, so the sign never reads as schema drift.
    pub fn percent(&self) -> i128 {
        (self.faulted_nanos as i128 - self.plain_nanos as i128) * 100 / self.plain_nanos as i128
    }

    /// What journaling costs on top of the fault layer itself: journaled
    /// vs faulted, so the number isolates the write-ahead log from the
    /// `Faulty`/`FaultSched` wrapping already priced by [`Self::percent`].
    pub fn journal_percent(&self) -> i128 {
        (self.journaled_nanos as i128 - self.faulted_nanos as i128) * 100
            / self.faulted_nanos as i128
    }
}

/// The Q label learner (Algorithm 2) on `graph` from the uniform init.
fn learner_machine(graph: SystemGraph) -> Result<(Machine, SystemInit), String> {
    let init = SystemInit::uniform(&graph);
    let labeling = hopcroft_similarity(&graph, &init, Model::Q);
    let learner = LabelLearner::new(&graph, &init, &labeling).map_err(|e| e.to_string())?;
    let m = Machine::new(Arc::new(graph), InstructionSet::Q, Arc::new(learner), &init)
        .map_err(|e| e.to_string())?;
    Ok((m, init))
}

/// Best-of-`reps` wall-clock nanos for one closure call (min suppresses
/// scheduler noise; clamped to 1 so steps/sec never divides by zero).
fn time_min<R, F: FnMut() -> R>(mut f: F, reps: u32) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..reps {
        let t = std::time::Instant::now();
        let out = f();
        best = best.min(t.elapsed().as_nanos());
        std::hint::black_box(&out);
    }
    best.max(1)
}

/// Best-of-`reps` nanos to run `steps` steps of the system `setup`
/// builds under its scheduler. Setup (a machine clone) happens *outside*
/// the timed window — the number is steps/second of the VM, not of
/// `Machine::clone`.
fn time_run<S: System, Q: Scheduler<S>>(
    steps: u64,
    reps: u32,
    mut setup: impl FnMut() -> (S, Q),
) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..reps {
        let (mut system, mut sched) = setup();
        let t = std::time::Instant::now();
        let report = run(&mut system, &mut sched, steps, &mut []);
        best = best.min(t.elapsed().as_nanos());
        std::hint::black_box(report.steps);
    }
    best.max(1)
}

/// [`time_run`] of round-robin steps from a clone of `base`.
fn time_steps(base: &Machine, steps: u64, reps: u32) -> u128 {
    time_run(steps, reps, || (base.clone(), RoundRobin::new()))
}

pub fn bench(args: &[String]) -> Result<CmdOut, String> {
    let opts = BenchOpts::parse(args)?;
    // --quick shrinks budgets and repetitions, never the entry list: the
    // emitted schema must match full mode so CI can diff against the
    // committed BENCH_pr3.json.
    let div = if opts.quick { 10 } else { 1 };
    let reps = if opts.quick { 1 } else { 3 };

    let mut throughput = Vec::new();
    for (family, graph, steps) in [
        ("ring", topology::uniform_ring(64), 320u64),
        ("marked-ring", topology::marked_ring(64), 10_000),
        ("hypercube", topology::hypercube(6), 320),
    ] {
        let m = learner_machine(graph)?.0;
        let steps = steps / div;
        throughput.push(ThroughputRow {
            family,
            n: 64,
            isa: "Q",
            steps,
            nanos: time_steps(&m, steps, reps),
        });
    }

    let graph = topology::philosophers_alternating(64);
    let init = SystemInit::uniform(&graph);
    let prog: Arc<dyn Program> = Arc::new(LockOrderPhilosopher::new(3, 2));
    let m =
        Machine::new(Arc::new(graph), InstructionSet::L, prog, &init).map_err(|e| e.to_string())?;
    let steps = 20_000 / div;
    throughput.push(ThroughputRow {
        family: "alternating",
        n: 64,
        isa: "L",
        steps,
        nanos: time_steps(&m, steps, reps),
    });

    let graph = topology::philosophers_table(64);
    let init = chandy_misra_init(&graph);
    let prog: Arc<dyn Program> = Arc::new(ChandyMisraPhilosopher::new(2, 2));
    let m =
        Machine::new(Arc::new(graph), InstructionSet::L, prog, &init).map_err(|e| e.to_string())?;
    throughput.push(ThroughputRow {
        family: "table",
        n: 64,
        isa: "L",
        steps,
        nanos: time_steps(&m, steps, reps),
    });

    // Scale tier: CSR construction plus the budgeted Q diffusion workload
    // at 10^2–10^6 processors. The 10^6 row constructs and reports bytes
    // per processor only (steps = 0) — what a 1-CPU CI container can
    // afford — while 10^5 actually runs.
    let mut scale_rows = Vec::new();
    for (n, steps) in [
        (64usize, 20_000u64),
        (4096, 20_000),
        (100_000, 300_000),
        (1_000_000, 0),
    ] {
        scale_rows.push(scale_row("scale-ring", n, steps / div, reps)?);
    }

    let mut labeling = Vec::new();
    let lreps = if opts.quick { 1 } else { 2 };
    for n in [64usize, 256, 1024] {
        let graph = topology::marked_ring(n);
        let init = SystemInit::uniform(&graph);
        labeling.push(LabelingRow {
            n,
            algorithm: "naive",
            nanos: time_min(|| refinement_similarity(&graph, &init, Model::Q), lreps),
        });
        labeling.push(LabelingRow {
            n,
            algorithm: "hopcroft",
            nanos: time_min(|| hopcroft_similarity(&graph, &init, Model::Q), lreps),
        });
    }
    // The naive refiner is quadratic-plus on a fully-splitting ring, so
    // 4096 is hopcroft-only — the point of the entry is that the
    // index-vector refiner still finishes comfortably there.
    let graph = topology::marked_ring(4096);
    let init = SystemInit::uniform(&graph);
    labeling.push(LabelingRow {
        n: 4096,
        algorithm: "hopcroft",
        nanos: time_min(|| hopcroft_similarity(&graph, &init, Model::Q), 1),
    });

    // Reduction-aware exploration: states visited and wall-clock for each
    // reduce mode on the marked ring (rigid, so POR does the work) and the
    // uniform table (|Aut| = n, so the quotient does). The timed window
    // includes building the reducer — the automorphism search is part of
    // what a verify run costs.
    let mut explore_rows = Vec::new();
    let mut interference_rows = Vec::new();
    let ecfg = ExploreConfig {
        max_depth: if opts.quick { 8 } else { 12 },
        max_states: 30_000 / div as usize,
        threads: 1,
    };
    for (family, graph) in [
        ("marked-ring", topology::marked_ring(4)),
        ("table", topology::philosophers_table(4)),
    ] {
        let init = SystemInit::uniform(&graph);
        let graph = Arc::new(graph);
        let machine = selection_machine(&graph, &init)?;
        for mode in Reduction::ALL {
            let mut result = None;
            let nanos = time_min(
                || result = Some(check_exploration(&machine, &init, ecfg, mode).0),
                reps,
            );
            let result = result.expect("timed at least once");
            explore_rows.push(ExploreRow {
                family,
                n: graph.processor_count(),
                reduce: mode.label(),
                states_canonical: result.states_visited,
                states_seen: result.states_seen,
                nanos,
            });
        }

        // Static vs probe interference under plain POR on the same
        // machine — what `verify --interference` trades.
        let footprints = check::machine_footprints(&machine)?;
        for interference in [Interference::Probe, Interference::Static] {
            let mut result = None;
            let static_footprints = match interference {
                Interference::Static => Some(footprints.as_slice()),
                Interference::Probe => None,
            };
            let nanos = time_min(
                || {
                    let (r, _) = explore(&machine, &init, ecfg, Reduction::Por, static_footprints);
                    result = Some(r);
                },
                reps,
            );
            let result = result.expect("timed at least once");
            interference_rows.push(StaticInterferenceRow {
                family,
                n: graph.processor_count(),
                interference: interference.label(),
                states_canonical: result.states_visited,
                states_seen: result.states_seen,
                nanos,
            });
        }
    }

    // Static lint wall-clock per family: the full dataflow suite over
    // the learner machine, zero VM steps. The contract is "cheap" —
    // well under the 100ms/family budget the docs promise.
    let mut static_lint_rows = Vec::new();
    for (family, graph) in [
        ("ring", topology::uniform_ring(64)),
        ("marked-ring", topology::marked_ring(64)),
        ("table", topology::philosophers_table(64)),
        ("alternating", topology::philosophers_alternating(64)),
        ("hypercube", topology::hypercube(6)),
    ] {
        let (m, init) = learner_machine(graph)?;
        let nanos = time_min(|| check::analyze_machine(&m, &init), reps);
        static_lint_rows.push(StaticLintRow {
            family,
            n: 64,
            nanos,
        });
    }

    // Zero-fault overhead: the marked-ring learner again, bare vs driven
    // through `Faulty` + `FaultSched` with an empty plan (what fault
    // injection costs a run that injects nothing; it must be near free),
    // and with the stable-storage journal active on top (every
    // tracked-register write journaled and fsynced at the modeled
    // boundary, though the empty plan never crashes anyone).
    let m = learner_machine(topology::marked_ring(64))?.0;
    let osteps = 10_000 / div;
    let oreps = if opts.quick { 1 } else { 5 };
    let faulted = |journal: bool| {
        time_run(osteps, oreps, || {
            let plan = FaultPlan::none();
            let f = if journal {
                Faulty::with_journal(m.clone(), plan, LabelLearner::journal_spec())
            } else {
                Faulty::new(m.clone(), plan)
            };
            (f, FaultSched::new(RoundRobin::new()))
        })
    };
    let overhead = OverheadRow {
        steps: osteps,
        plain_nanos: time_steps(&m, osteps, oreps),
        faulted_nanos: faulted(false),
        journaled_nanos: faulted(true),
    };

    let json = bench_render_json(
        &throughput,
        &scale_rows,
        &labeling,
        &explore_rows,
        &static_lint_rows,
        &interference_rows,
        &overhead,
    );
    if let Some(path) = &opts.against {
        let expected =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let (want, got) = (
            bench_schema_skeleton(&expected),
            bench_schema_skeleton(&json),
        );
        if want != got {
            return Ok(CmdOut {
                text: format!(
                    "bench schema drift against {path}\n  expected skeleton: {want}\n  emitted skeleton:  {got}\n"
                ),
                failed: true,
            });
        }
    }
    if opts.json {
        ok(json)
    } else {
        ok(bench_render_text(
            &throughput,
            &scale_rows,
            &labeling,
            &explore_rows,
            &static_lint_rows,
            &interference_rows,
            &overhead,
            &opts,
        ))
    }
}

/// Renders the BENCH_pr3.json document. All numbers are integers so the
/// schema skeleton (everything but digit runs) is byte-stable across
/// hosts and runs.
#[allow(clippy::too_many_arguments)]
pub fn bench_render_json(
    throughput: &[ThroughputRow],
    scale: &[ScaleRow],
    labeling: &[LabelingRow],
    explore: &[ExploreRow],
    static_lint: &[StaticLintRow],
    interference: &[StaticInterferenceRow],
    overhead: &OverheadRow,
) -> String {
    let mut out = String::from("{\n  \"schema\": \"simsym-bench/v1\",\n  \"step_throughput\": [\n");
    out.push_str(&json_rows(throughput.iter().map(|r| {
        let sps = (r.steps as u128) * 1_000_000_000 / r.nanos;
        format!(
            "    {{\"family\": \"{}\", \"n\": {}, \"isa\": \"{}\", \"steps\": {}, \"nanos\": {}, \"steps_per_sec\": {}}}",
            r.family,
            r.n,
            r.isa,
            r.steps,
            r.nanos,
            sps,
        )
    })));
    out.push_str("  ],\n  \"scale_tier\": [\n");
    out.push_str(&json_rows(scale.iter().map(|r| {
        let sps = if r.steps == 0 {
            0
        } else {
            (r.steps as u128) * 1_000_000_000 / r.nanos
        };
        format!(
            "    {{\"family\": \"{}\", \"n\": {}, \"isa\": \"Q\", \"construct_nanos\": {}, \"steps\": {}, \"nanos\": {}, \"steps_per_sec\": {}, \"bytes_per_processor\": {}}}",
            r.family,
            r.n,
            r.construct_nanos,
            r.steps,
            r.nanos,
            sps,
            r.bytes_per_processor,
        )
    })));
    out.push_str("  ],\n  \"labeling\": [\n");
    out.push_str(&json_rows(labeling.iter().map(|r| {
        format!(
            "    {{\"workload\": \"marked-ring\", \"n\": {}, \"algorithm\": \"{}\", \"nanos\": {}}}",
            r.n,
            r.algorithm,
            r.nanos,
        )
    })));
    out.push_str("  ],\n  \"explore_reduction\": [\n");
    out.push_str(&json_rows(explore.iter().map(|r| {
        format!(
            "    {{\"family\": \"{}\", \"n\": {}, \"reduce\": \"{}\", \"states_canonical\": {}, \"states_seen\": {}, \"nanos\": {}}}",
            r.family,
            r.n,
            r.reduce,
            r.states_canonical,
            r.states_seen,
            r.nanos,
        )
    })));
    out.push_str("  ],\n  \"static_lint\": [\n");
    out.push_str(&json_rows(static_lint.iter().map(|r| {
        format!(
            "    {{\"family\": \"{}\", \"n\": {}, \"nanos\": {}}}",
            r.family, r.n, r.nanos,
        )
    })));
    out.push_str("  ],\n  \"verify_static_interference\": [\n");
    out.push_str(&json_rows(interference.iter().map(|r| {
        format!(
            "    {{\"family\": \"{}\", \"n\": {}, \"interference\": \"{}\", \"states_canonical\": {}, \"states_seen\": {}, \"nanos\": {}}}",
            r.family,
            r.n,
            r.interference,
            r.states_canonical,
            r.states_seen,
            r.nanos,
        )
    })));
    out.push_str(&format!(
        "  ],\n  \"faults_overhead\": {{\"family\": \"marked-ring\", \"n\": 64, \"isa\": \"Q\", \"steps\": {}, \"plain_nanos\": {}, \"faulted_nanos\": {}, \"overhead_percent\": {}}},\n",
        overhead.steps,
        overhead.plain_nanos,
        overhead.faulted_nanos,
        overhead.percent()
    ));
    out.push_str(&format!(
        "  \"journal_overhead\": {{\"family\": \"marked-ring\", \"n\": 64, \"isa\": \"Q\", \"steps\": {}, \"faulted_nanos\": {}, \"journaled_nanos\": {}, \"overhead_percent\": {}}}\n}}\n",
        overhead.steps,
        overhead.faulted_nanos,
        overhead.journaled_nanos,
        overhead.journal_percent()
    ));
    out
}

#[allow(clippy::too_many_arguments)]
pub fn bench_render_text(
    throughput: &[ThroughputRow],
    scale: &[ScaleRow],
    labeling: &[LabelingRow],
    explore: &[ExploreRow],
    static_lint: &[StaticLintRow],
    interference: &[StaticInterferenceRow],
    overhead: &OverheadRow,
    opts: &BenchOpts,
) -> String {
    let mut out = format!(
        "step throughput (round-robin{}):\n",
        if opts.quick { ", quick" } else { "" }
    );
    for r in throughput {
        let sps = (r.steps as u128) * 1_000_000_000 / r.nanos;
        out.push_str(&format!(
            "  {:<12} n={:<5} {}  {:>7} steps in {:>12} ns  ({} steps/s)\n",
            r.family, r.n, r.isa, r.steps, r.nanos, sps
        ));
    }
    out.push_str("scale tier (CSR from_fn construction + budgeted Q diffusion):\n");
    for r in scale {
        let rate = if r.steps == 0 {
            "construct-only".to_owned()
        } else {
            format!("{} steps/s", (r.steps as u128) * 1_000_000_000 / r.nanos)
        };
        out.push_str(&format!(
            "  {:<12} n={:<8} built in {:>12} ns  {:<16} {:>5} bytes/processor\n",
            r.family, r.n, r.construct_nanos, rate, r.bytes_per_processor
        ));
    }
    out.push_str("labeling time (marked-ring):\n");
    for r in labeling {
        out.push_str(&format!(
            "  n={:<5} {:<9} {:>12} ns\n",
            r.n, r.algorithm, r.nanos
        ));
    }
    out.push_str("reduction-aware exploration (selection programs, bounded DFS):\n");
    for r in explore {
        out.push_str(&format!(
            "  {:<12} n={:<3} reduce={:<9} {:>7} canonical states ({:>8} arrivals) in {:>12} ns\n",
            r.family, r.n, r.reduce, r.states_canonical, r.states_seen, r.nanos
        ));
    }
    for family in ["marked-ring", "table"] {
        let states = |mode: &str| {
            explore
                .iter()
                .find(|r| r.family == family && r.reduce == mode)
                .map(|r| r.states_canonical)
        };
        if let (Some(none), Some(both)) = (states("none"), states("both")) {
            let x100 = none * 100 / both.max(1);
            out.push_str(&format!(
                "  {:<12} reduction factor {}.{:02}x (none vs both)\n",
                family,
                x100 / 100,
                x100 % 100
            ));
        }
    }
    out.push_str("static lint (dataflow suite over the learner spec, zero VM steps):\n");
    for r in static_lint {
        out.push_str(&format!(
            "  {:<12} n={:<3} {:>12} ns\n",
            r.family, r.n, r.nanos
        ));
    }
    out.push_str("static vs probe interference (reduce=por, bounded DFS):\n");
    for r in interference {
        let sps = (r.states_canonical as u128) * 1_000_000_000 / r.nanos;
        out.push_str(&format!(
            "  {:<12} n={:<3} intf={:<7} {:>7} canonical states ({:>8} arrivals) in {:>12} ns  ({} states/s)\n",
            r.family, r.n, r.interference, r.states_canonical, r.states_seen, r.nanos, sps
        ));
    }
    out.push_str(&format!(
        "zero-fault overhead (marked-ring n=64, {} steps, empty plan):\n  plain     {:>12} ns\n  faulted   {:>12} ns  ({:+}%)\n  journaled {:>12} ns  ({:+}% over faulted)\n",
        overhead.steps,
        overhead.plain_nanos,
        overhead.faulted_nanos,
        overhead.percent(),
        overhead.journaled_nanos,
        overhead.journal_percent()
    ));
    if opts.against.is_some() {
        out.push_str("schema matches baseline\n");
    }
    out
}

/// Collapses a bench JSON document to its schema skeleton: digits,
/// numeric minus signs, and whitespace outside string literals are
/// dropped, so two documents compare equal iff they share keys, labels,
/// and shape — numbers (including their sign, so an overhead percent can
/// flip negative under timer noise) are ignored, which is exactly the CI
/// smoke contract.
pub fn bench_schema_skeleton(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut in_string = false;
    let mut escaped = false;
    let mut chars = json.chars().peekable();
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else if c == '"' {
            in_string = true;
            out.push(c);
        } else if c == '-' && chars.peek().is_some_and(char::is_ascii_digit) {
            // The sign of a number: dropped with the digits it signs.
        } else if !c.is_ascii_digit() && !c.is_whitespace() {
            out.push(c);
        }
    }
    out
}
