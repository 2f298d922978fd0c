//! Property tests: reduction soundness. On the paper's families (ring,
//! philosophers' table, alternating table) at n ≤ 6, exploring under the
//! similarity quotient, partial-order reduction, or both yields *exactly*
//! the selection outcomes, Uniqueness verdicts, and machine-model
//! violation kinds of the identity-reduction oracle — while never visiting
//! more states. Canonical fingerprints are also a pure function of the
//! machine state: two independently constructed reducers agree along any
//! schedule. They are invariant under the group: a schedule and its image
//! under any `π ∈ Γ` reach states with one quotient key, which is the
//! paper's reachability argument for exploring one state per orbit. With
//! a trivial group the quotient key is the identity key.

use proptest::prelude::*;
use simsym_check::explore_check::{check_exploration, Reduction};
use simsym_check::fixtures::grab_machine;
use simsym_core::{hopcroft_similarity, selection_program_q, LabelLearner, Model};
use simsym_graph::automorphism::automorphism_group;
use simsym_graph::{topology, ProcId, SystemGraph};
use simsym_vm::reduce::{init_colors, Identity, Reducer, SimilarityQuotient, GROUP_CAP};
use simsym_vm::{ExploreConfig, FnProgram, InstructionSet, Machine, Program, SystemInit, Value};
use std::sync::Arc;

/// One of the three §7 families, sized n ≤ 6 (alternating requires even n).
fn family_graph(fam: usize, size: usize) -> SystemGraph {
    match fam {
        0 => topology::uniform_ring(3 + size % 4),
        1 => topology::philosophers_table(3 + size % 4),
        _ => topology::philosophers_alternating(4 + 2 * (size % 2)),
    }
}

/// A terminating wave: read `left`, then write `right` if the read saw
/// `Unit`, selecting when it did not. Produces multiple distinct outcome
/// sets (including double selections on some interleavings) without any
/// machine-model violations.
fn wave_machine(graph: Arc<SystemGraph>, init: &SystemInit) -> Machine {
    let prog: Arc<dyn Program> = Arc::new(FnProgram::new("wave", |local, ops| match local.pc {
        0 => {
            let v = ops.read(ops.name("left"));
            local.set("saw", v);
            local.pc = 1;
        }
        1 => {
            if local.get("saw") == Value::Unit {
                ops.write(ops.name("right"), Value::from(1));
            } else {
                local.selected = true;
            }
            local.pc = 2;
        }
        _ => {}
    }));
    Machine::new(graph, InstructionSet::Q, prog, init).expect("wave machine")
}

/// A terminating atomicity offender: one step issuing two shared writes
/// (the second is refused and recorded), then halt — so the explored
/// violation-kind sets are non-empty but the state space stays tiny.
fn greedy_once_machine(graph: Arc<SystemGraph>, init: &SystemInit) -> Machine {
    let prog: Arc<dyn Program> = Arc::new(FnProgram::new("greedy-once", |local, ops| {
        if local.pc == 0 {
            ops.write(ops.name("left"), Value::from(1));
            ops.write(ops.name("left"), Value::from(2));
            local.pc = 1;
        }
    }));
    Machine::new(graph, InstructionSet::S, prog, init).expect("greedy-once machine")
}

/// The Q selection machine `simsym verify` explores: the selection
/// program where a processor is uniquely labeled, else the label learner.
/// Its steps post to Q variables, so quotient keys rename owners.
fn selection_machine(graph: Arc<SystemGraph>) -> Machine {
    let init = SystemInit::uniform(&graph);
    let program: Arc<dyn Program> = match selection_program_q(&graph, &init).expect("consistent") {
        Some(select) => Arc::new(select),
        None => {
            let theta = hopcroft_similarity(&graph, &init, Model::Q);
            Arc::new(LabelLearner::new(&graph, &init, &theta).expect("consistent"))
        }
    };
    Machine::new(graph, InstructionSet::Q, program, &init).expect("selection machine")
}

fn build_machine(prog: usize, graph: Arc<SystemGraph>, init: &SystemInit) -> Machine {
    match prog {
        0 => grab_machine(graph, init),
        1 => wave_machine(graph, init),
        _ => greedy_once_machine(graph, init),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn reduced_exploration_matches_the_identity_oracle(
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
        let (baseline, _) = check_exploration(&m, &init, cfg, Reduction::None);
        // Budgets are sized so these never truncate; a truncated baseline
        // would make outcome-set equality incomparable.
        prop_assert!(!baseline.truncated);
        for mode in [Reduction::Quotient, Reduction::Por, Reduction::Both] {
            let (reduced, _) = check_exploration(&m, &init, cfg, mode);
            prop_assert!(!reduced.truncated, "mode {} truncated", mode.label());
            prop_assert_eq!(
                &reduced.outcomes, &baseline.outcomes,
                "outcomes diverged under {}", mode.label()
            );
            prop_assert_eq!(
                reduced.has_double_selection(),
                baseline.has_double_selection(),
                "uniqueness verdicts diverged under {}", mode.label()
            );
            prop_assert_eq!(
                &reduced.violation_kinds, &baseline.violation_kinds,
                "violation kinds diverged under {}", mode.label()
            );
            prop_assert!(
                reduced.states_visited <= baseline.states_visited,
                "{} visited {} states, identity only {}",
                mode.label(), reduced.states_visited, baseline.states_visited
            );
        }
    }

    #[test]
    fn canonical_fingerprints_are_deterministic_across_reducer_instances(
        fam in 0usize..3, size in 0usize..4, prog in 0usize..3,
        steps in proptest::collection::vec(0usize..6, 0..40)
    ) {
        let g = Arc::new(family_graph(fam, size));
        let init = SystemInit::uniform(&g);
        let n = g.processor_count();
        // Two reducers built independently from scratch, driving two
        // machines along the same schedule: the canonical fingerprint must
        // be a pure function of the state, never of the instance.
        let mut a = SimilarityQuotient::new(&g, &init);
        let mut b = SimilarityQuotient::new(&g, &init);
        prop_assert!(a.group_order() >= 1);
        let mut m1 = build_machine(prog, g.clone(), &init);
        let mut m2 = build_machine(prog, g, &init);
        prop_assert_eq!(a.canonical_fingerprint(&m1), b.canonical_fingerprint(&m2));
        for s in steps {
            let p = ProcId::new(s % n);
            m1.step(p);
            m2.step(p);
            prop_assert_eq!(a.canonical_fingerprint(&m1), b.canonical_fingerprint(&m2));
        }
    }

    #[test]
    fn quotient_keys_are_invariant_under_permuted_schedules(
        fam in 0usize..3, steps in proptest::collection::vec(0usize..16, 0..40),
        incremental in any::<bool>()
    ) {
        let g = Arc::new(match fam {
            0 => topology::uniform_ring(5),
            1 => topology::philosophers_table(4),
            _ => topology::hypercube(2),
        });
        let init = SystemInit::uniform(&g);
        let group = automorphism_group(&g, Some(&init_colors(&g, &init)), GROUP_CAP)
            .expect("small group");
        let mut q = SimilarityQuotient::new(&g, &init);
        prop_assert_eq!(q.group_order(), group.len());
        prop_assert!(group.len() > 1);
        let n = g.processor_count();
        let schedule: Vec<usize> = steps.iter().map(|s| s % n).collect();
        let start = selection_machine(g);
        let mut m = start.clone();
        for &p in &schedule {
            m.step(ProcId::new(p));
        }
        let key = q.canonical_fingerprint(&m);
        for pi in &group {
            // The image schedule π(p₁)…π(p_k) reaches π·σ. Half the runs
            // key the images off incremental digests, so both digest
            // sources must agree too.
            let mut image = start.clone();
            if incremental {
                image.enable_incremental_fingerprint();
            }
            for &p in &schedule {
                image.step(ProcId::new(pi.node_map()[p]));
            }
            prop_assert_eq!(q.canonical_fingerprint(&image), key);
        }
    }

    #[test]
    fn a_trivial_group_keys_states_like_the_identity(
        steps in proptest::collection::vec(0usize..4, 0..40)
    ) {
        let g = Arc::new(topology::marked_ring(4));
        let mut q = SimilarityQuotient::new(&g, &SystemInit::uniform(&g));
        prop_assert_eq!(q.group_order(), 1);
        let mut plain = selection_machine(g);
        let mut inc = plain.clone();
        inc.enable_incremental_fingerprint();
        for s in steps {
            plain.step(ProcId::new(s));
            inc.step(ProcId::new(s));
            let key = Identity.canonical_fingerprint(&inc);
            prop_assert_eq!(q.canonical_fingerprint(&inc), key);
            prop_assert_eq!(q.canonical_fingerprint(&plain), key);
            prop_assert_eq!(Identity.canonical_fingerprint(&plain), key);
        }
    }
}
