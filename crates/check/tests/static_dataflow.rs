//! Integration tests for the static dataflow layer: the `uninit` fixture
//! is flagged statically and dynamically *for the same register*; the
//! never-initialized-`runlock` variant of Algorithm 4 is caught with zero
//! VM steps; the static lock graph covers the dynamic witness cycle on
//! `fixed-order` philosophers; the diagnostic-code registry matches the
//! DESIGN.md table; and POR, which takes its interference relation from
//! each program's spec, agrees with the identity oracle on the paper's
//! families while never visiting more states than POR over whole rows.

use proptest::prelude::*;
use simsym_check::dataflow::{RegUniverse, SpecCfg};
use simsym_check::diag::codes;
use simsym_check::explore_check::{check_exploration, Reduction};
use simsym_check::suite::run_dynamic;
use simsym_check::{analyze_spec, fixture_machine, machine_footprints, StaticLockGraph};
use simsym_core::{algorithm4_spec, hopcroft_similarity, selection_program_q, LabelLearner, Model};
use simsym_graph::{topology, SystemGraph, VarId};
use simsym_vm::{
    explore_with, ExploreConfig, FnProgram, InstructionSet, Machine, OpKind, PhaseSpec, PortSet,
    Program, ProgramSpec, RandomFair, SystemInit,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The `uninit` fixture reads `counter` before any write can reach it.
/// The must-initialize analysis flags it from the spec alone, and the
/// dynamic garbled-register trap fires on the very same register — the
/// static finding names the defect the runtime hits.
#[test]
fn uninit_fixture_is_flagged_statically_and_dynamically_on_the_same_register() {
    let g = Arc::new(topology::uniform_ring(3));
    let init = SystemInit::uniform(&g);
    let m = fixture_machine("uninit", Arc::clone(&g), &init).expect("known fixture");

    // Static half: no step has been executed on `m`.
    let diags = simsym_check::analyze_machine(&m, &init).expect("fixture ships a spec");
    let uninit: Vec<_> = diags
        .iter()
        .filter(|d| d.code == codes::STAT_UNINIT_READ)
        .collect();
    assert_eq!(uninit.len(), 1, "{diags:?}");
    assert!(
        uninit[0].message.contains("\"counter\""),
        "{}",
        uninit[0].message
    );
    assert!(
        uninit[0].witness.iter().any(|w| w == "register: counter"),
        "{:?}",
        uninit[0].witness
    );
    // The unreachable seeding phase doubles as the dead-phase witness.
    assert!(diags.iter().any(|d| d.code == codes::STAT_DEAD_PHASE));

    // Dynamic half: the same machine, actually run, garbles on `counter`.
    let mut m = fixture_machine("uninit", g, &init).expect("known fixture");
    let outcome = run_dynamic(&mut m, &mut RandomFair::seeded(0), 1_000);
    let garbled: Vec<_> = outcome
        .diagnostics
        .iter()
        .filter(|d| d.code == codes::DYN_GARBLED_REG)
        .collect();
    assert!(!garbled.is_empty(), "{:?}", outcome.diagnostics);
    assert!(
        garbled.iter().all(|d| d.message.contains("\"counter\"")),
        "{garbled:?}"
    );
}

/// Algorithm 4's extended (L*) relabel path walks the `runlock` cursor.
/// Dropping it from `boot_writes` reproduces the PR 4 defect — and the
/// must-initialize analysis catches it from the spec alone, naming the
/// register, with zero VM steps executed.
#[test]
fn a4_never_initialized_runlock_variant_is_flagged_statically() {
    let g = topology::marked_ring(4);
    let init = SystemInit::uniform(&g);

    let broken = algorithm4_spec(true, false);
    let diags = analyze_spec(&g, InstructionSet::LStar, &init, &broken).expect("valid spec");
    let uninit: Vec<_> = diags
        .iter()
        .filter(|d| d.code == codes::STAT_UNINIT_READ)
        .collect();
    assert!(
        uninit
            .iter()
            .any(|d| d.witness.iter().any(|w| w == "register: runlock")),
        "{diags:?}"
    );

    // The shipped boot seeds runlock: clean.
    let shipped = algorithm4_spec(true, true);
    let diags = analyze_spec(&g, InstructionSet::LStar, &init, &shipped).expect("valid spec");
    assert!(
        !diags.iter().any(|d| d.code == codes::STAT_UNINIT_READ),
        "{diags:?}"
    );

    // The non-extended program never reads runlock, so even a boot that
    // skips it is clean.
    let plain = algorithm4_spec(false, false);
    let diags = analyze_spec(&g, InstructionSet::L, &init, &plain).expect("valid spec");
    assert!(
        !diags.iter().any(|d| d.code == codes::STAT_UNINIT_READ),
        "{diags:?}"
    );
}

/// On `fixed-order` philosophers at table:5 the static lock graph (a
/// sound over-approximation of the dynamic hold-and-wait graph) must
/// cover the dynamic witness cycle edge for edge.
#[test]
fn static_lock_cycles_cover_the_dynamic_witness_on_fixed_order() {
    let g = Arc::new(topology::philosophers_table(5));
    let init = SystemInit::uniform(&g);
    let mut m = fixture_machine("fixed-order", Arc::clone(&g), &init).expect("known fixture");

    let spec = m.program().static_spec().expect("fixture ships a spec");
    let regs = RegUniverse::from_spec(&spec);
    let cfg = SpecCfg::build(&spec, &regs).expect("valid spec");
    let static_graph = StaticLockGraph::from_spec(&g, &spec, &cfg);
    let static_edges: BTreeSet<(VarId, VarId)> = static_graph.edges().collect();
    let static_cycles = static_graph.cycles();
    assert!(!static_cycles.is_empty(), "static graph: {static_edges:?}");

    let outcome = run_dynamic(&mut m, &mut simsym_vm::RoundRobin::new(), 400);
    let dynamic_cycles = outcome.lock_order.cycles();
    assert!(!dynamic_cycles.is_empty(), "dynamic run found no cycle");
    for cycle in &dynamic_cycles {
        for i in 0..cycle.len() {
            let edge = (cycle[i], cycle[(i + 1) % cycle.len()]);
            assert!(
                static_edges.contains(&edge),
                "dynamic witness edge {edge:?} missing from static graph {static_edges:?}"
            );
        }
        // The witness cycle's variables all appear in some static cycle.
        let static_vars: BTreeSet<VarId> = static_cycles.iter().flatten().copied().collect();
        assert!(cycle.iter().all(|v| static_vars.contains(v)));
    }
}

/// Every code in the registry appears in DESIGN.md's §5d table and vice
/// versa — the docs and the code cannot drift apart silently.
#[test]
fn diagnostic_code_registry_matches_the_design_doc_table() {
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
        .expect("DESIGN.md at the repo root");

    // Code-table rows look like "| `CODE` | severity | meaning |"; other
    // backticked table cells (citations, module paths) never match the
    // UPPER-CASE-DASH shape.
    let mut documented = BTreeSet::new();
    for line in design.lines() {
        let Some(rest) = line.strip_prefix("| `") else {
            continue;
        };
        let Some(code) = rest.split('`').next() else {
            continue;
        };
        let is_code = code.contains('-')
            && code
                .chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '-');
        if is_code {
            documented.insert(code.to_owned());
        }
    }

    let registry: BTreeSet<String> = codes::ALL.iter().map(|c| (*c).to_owned()).collect();
    let undocumented: Vec<_> = registry.difference(&documented).collect();
    let phantom: Vec<_> = documented.difference(&registry).collect();
    assert!(
        undocumented.is_empty(),
        "codes missing from DESIGN.md §5d: {undocumented:?}"
    );
    assert!(
        phantom.is_empty(),
        "DESIGN.md documents codes the registry lacks: {phantom:?}"
    );
}

/// A terminating spec'd wave: read `left`, then select or write `right`
/// depending on what was read. Same shape as the reduction-oracle
/// proptests, plus the `ProgramSpec` static interference needs.
fn wave_machine(graph: Arc<SystemGraph>, init: &SystemInit) -> Machine {
    let prog = FnProgram::new("wave", |local, ops| match local.pc {
        0 => {
            let v = ops.read(ops.name("left"));
            local.set("saw", v);
            local.pc = 1;
        }
        1 => {
            if local.get("saw") == simsym_vm::Value::Unit {
                ops.write(ops.name("right"), simsym_vm::Value::from(1));
            } else {
                local.selected = true;
            }
            local.pc = 2;
        }
        _ => {}
    })
    .with_spec(
        ProgramSpec::new("wave", 0)
            .phase(
                PhaseSpec::new(0, "read-left")
                    .writes(&["saw"])
                    .op(OpKind::Read, PortSet::Named(vec!["left".to_owned()]))
                    .succs(&[1]),
            )
            .phase(
                PhaseSpec::new(1, "decide")
                    .reads(&["saw"])
                    .op(OpKind::Write, PortSet::Named(vec!["right".to_owned()]))
                    .succs(&[2]),
            )
            .phase(PhaseSpec::new(2, "halt").succs(&[2])),
    );
    Machine::new(graph, InstructionSet::Q, Arc::new(prog), init).expect("wave machine")
}

/// A terminating atomicity offender with a spec: two writes to `left`
/// in one step (the second is refused and recorded), then halt.
fn greedy_once_machine(graph: Arc<SystemGraph>, init: &SystemInit) -> Machine {
    let prog = FnProgram::new("greedy-once", |local, ops| {
        if local.pc == 0 {
            ops.write(ops.name("left"), simsym_vm::Value::from(1));
            ops.write(ops.name("left"), simsym_vm::Value::from(2));
            local.pc = 1;
        }
    })
    .with_spec(
        ProgramSpec::new("greedy-once", 0)
            .phase(
                PhaseSpec::new(0, "double-write")
                    .op(OpKind::Write, PortSet::Named(vec!["left".to_owned()]))
                    .succs(&[1]),
            )
            .phase(PhaseSpec::new(1, "halt").succs(&[1])),
    );
    Machine::new(graph, InstructionSet::S, Arc::new(prog), init).expect("greedy-once machine")
}

/// One of the three §7 families, sized n ≤ 6 (alternating needs even n).
fn family_graph(fam: usize, size: usize) -> SystemGraph {
    match fam {
        0 => topology::uniform_ring(3 + size % 4),
        1 => topology::philosophers_table(3 + size % 4),
        _ => topology::philosophers_alternating(4 + 2 * (size % 2)),
    }
}

fn build_machine(prog: usize, graph: Arc<SystemGraph>, init: &SystemInit) -> Machine {
    match prog {
        0 => simsym_check::fixtures::grab_machine(graph, init),
        1 => wave_machine(graph, init),
        _ => greedy_once_machine(graph, init),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Soundness of static interference: POR driven by spec-derived
    /// footprints reproduces the identity oracle's outcome sets,
    /// Uniqueness verdict, and violation kinds on every family at n ≤ 6
    /// — and never visits more states than POR over whole rows.
    #[test]
    fn static_interference_por_matches_the_identity_oracle(
        fam in 0usize..3, size in 0usize..4, prog in 0usize..3
    ) {
        let g = Arc::new(family_graph(fam, size));
        let init = SystemInit::uniform(&g);
        let n = g.processor_count();
        let cfg = ExploreConfig {
            max_depth: 3 * n + 2,
            max_states: 200_000,
            threads: 1,
        };
        let m = build_machine(prog, g.clone(), &init);
        prop_assert!(machine_footprints(&m).is_ok(), "test programs ship specs");
        let (baseline, _) = check_exploration(&m, &init, cfg, Reduction::None);
        prop_assert!(!baseline.truncated);
        for mode in [Reduction::Por, Reduction::Both] {
            let probe = explore_with(&m, cfg, mode.build(&g, &init).as_mut());
            let (reduced, _) = check_exploration(&m, &init, cfg, mode);
            prop_assert!(!reduced.truncated, "mode {} truncated", mode.label());
            prop_assert_eq!(
                &reduced.outcomes, &baseline.outcomes,
                "outcomes diverged under {}+static", mode.label()
            );
            prop_assert_eq!(
                reduced.has_double_selection(),
                baseline.has_double_selection(),
                "uniqueness verdicts diverged under {}+static", mode.label()
            );
            prop_assert_eq!(
                &reduced.violation_kinds, &baseline.violation_kinds,
                "violation kinds diverged under {}+static", mode.label()
            );
            prop_assert!(
                reduced.states_visited <= baseline.states_visited,
                "{}+static visited {} states, identity only {}",
                mode.label(), reduced.states_visited, baseline.states_visited
            );
            // The static relation is clamped to the probe relation, so it
            // can only shrink ample sets further, never grow the space.
            prop_assert!(
                reduced.states_visited <= probe.states_visited,
                "{}+static visited {} states, probe POR only {}",
                mode.label(), reduced.states_visited, probe.states_visited
            );
        }
    }
}

/// The real selection machinery (what `simsym verify` runs by default)
/// under static-interference POR, explored to completion and compared
/// against the identity oracle on each family.
#[test]
fn selection_programs_certify_identically_under_static_interference() {
    for (graph, isa) in [
        (topology::uniform_ring(4), InstructionSet::Q),
        (topology::philosophers_table(4), InstructionSet::Q),
        (topology::philosophers_alternating(4), InstructionSet::Q),
    ] {
        let init = SystemInit::uniform(&graph);
        let graph = Arc::new(graph);
        let program: Arc<dyn Program> = match selection_program_q(&graph, &init).expect("labeling")
        {
            Some(select) => Arc::new(select),
            None => {
                let theta = hopcroft_similarity(&graph, &init, Model::Q);
                Arc::new(LabelLearner::new(&graph, &init, &theta).expect("labeling"))
            }
        };
        let m = Machine::new(Arc::clone(&graph), isa, program, &init).expect("machine");
        let cfg = ExploreConfig {
            max_depth: 64,
            max_states: 200_000,
            threads: 1,
        };
        assert!(
            machine_footprints(&m).is_ok(),
            "selection programs ship specs"
        );
        let (baseline, _) = check_exploration(&m, &init, cfg, Reduction::None);
        assert!(
            !baseline.truncated,
            "oracle truncated on {:?}",
            m.program_name()
        );
        let (reduced, _) = check_exploration(&m, &init, cfg, Reduction::Por);
        assert!(!reduced.truncated);
        assert_eq!(reduced.outcomes, baseline.outcomes);
        assert_eq!(
            reduced.has_double_selection(),
            baseline.has_double_selection()
        );
        assert_eq!(reduced.violation_kinds, baseline.violation_kinds);
        assert!(reduced.states_visited <= baseline.states_visited);
    }
}
