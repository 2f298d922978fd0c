//! Cross-crate integration for the extension modules: consensus, choice
//! coordination, the bounded-fair-S learner, general families, traces,
//! and the report generator.

use simsym::core::{
    analyze_system, decide_choice, markdown_report, AgreementMonitor, ChoiceCoordination,
    ChoiceMonitor, ConsensusViaSelection, GeneralFamily, Model, SLearner, ValidityMonitor,
};
use simsym::graph::{parse_spec, to_spec, topology};
use simsym::vm::engine::trace::TraceRecorder;
use simsym::vm::{
    run, run_until, BoundedFairRandom, InstructionSet, Machine, RoundRobin, SystemInit, Value,
};
use simsym_graph::ProcId;
use std::sync::Arc;

#[test]
fn consensus_end_to_end_with_monitors_and_trace() {
    let g = topology::figure2();
    let mut init = SystemInit::uniform(&g);
    init.proc_values[2] = Value::from(9);
    let prog = ConsensusViaSelection::new(&g, &init)
        .expect("tables")
        .expect("p3 unique");
    let mut m = Machine::new(
        Arc::new(g.clone()),
        InstructionSet::Q,
        Arc::new(prog),
        &init,
    )
    .unwrap();
    let mut sched = RoundRobin::new();
    let mut agree = AgreementMonitor;
    let mut valid = ValidityMonitor::new(&init);
    let mut recorder = TraceRecorder::new("round-robin", "round-robin");
    let report = run_until(
        &mut m,
        &mut sched,
        500_000,
        &mut [&mut agree, &mut valid, &mut recorder],
        |mach| {
            mach.graph()
                .processors()
                .all(|p| ConsensusViaSelection::is_decided(mach.local(p)))
        },
    );
    assert!(report.violation.is_none());
    for p in g.processors() {
        assert_eq!(
            ConsensusViaSelection::decision(m.local(p)),
            Some(Value::from(9))
        );
    }
    // The trace recorded the whole run, p2's steps included.
    let trace = recorder.into_trace();
    assert_eq!(trace.steps.len() as u64, report.steps);
    assert!(trace.steps.iter().any(|s| s.proc == ProcId::new(2)));
}

#[test]
fn choice_coordination_from_a_parsed_spec() {
    // Define Figure 2 textually, parse it, and run choice coordination on
    // the parsed graph — the full user pipeline.
    let text = "
names a b
procs p1 p2 p3
vars  v1 v2 v3
edge p1 a v1
edge p2 a v1
edge p3 a v2
edge p1 b v3
edge p2 b v3
edge p3 b v3
";
    let parsed = parse_spec(text).expect("valid spec");
    let init = SystemInit::uniform(&parsed.graph);
    let designated = decide_choice(&parsed.graph, &init).expect("unique variable");
    let prog = ChoiceCoordination::new(&parsed.graph, &init)
        .expect("tables")
        .expect("solvable");
    let mut m = Machine::new(
        Arc::new(parsed.graph.clone()),
        InstructionSet::Q,
        Arc::new(prog),
        &init,
    )
    .unwrap();
    let mut sched = RoundRobin::new();
    let mut mon = ChoiceMonitor;
    let report = run(&mut m, &mut sched, 100_000, &mut [&mut mon]);
    assert!(report.violation.is_none());
    assert!(simsym::core::is_marked(&m, designated));
    // And the spec round-trips.
    let back = parse_spec(&to_spec(&parsed.graph)).unwrap();
    assert_eq!(back.graph.degree_sequence(), parsed.graph.degree_sequence());
}

#[test]
fn s_learner_matches_q_learner_labels_where_comparable() {
    // On systems where the Q and S labelings coincide, both learners must
    // converge to the same partition of processors.
    let g = topology::line(4);
    let init = SystemInit::uniform(&g);
    let q_theta = simsym::core::hopcroft_similarity(&g, &init, Model::Q);
    let s_theta = simsym::core::hopcroft_similarity(&g, &init, Model::BoundedFairS);
    assert_eq!(q_theta, s_theta, "line(4) labels agree across rules");
    let prog = Arc::new(SLearner::new(&g, &init, 4).unwrap());
    let mut m = Machine::new(Arc::new(g.clone()), InstructionSet::S, prog, &init).unwrap();
    let mut sched = BoundedFairRandom::new(4, 4, 3);
    let _ = run_until(&mut m, &mut sched, 3_000_000, &mut [], |mach| {
        mach.graph()
            .processors()
            .all(|p| SLearner::is_done(mach.local(p)))
    });
    for p in g.processors() {
        assert_eq!(
            SLearner::learned_label(m.local(p)),
            Some(s_theta.proc_label(p))
        );
    }
}

#[test]
fn general_family_decision_spans_topologies() {
    // Members with different shapes but shared NAMES.
    let a = topology::figure1(); // name "n"
    let mut b = simsym::graph::SystemGraph::builder();
    let n = b.name("n");
    let ps = b.processors(3);
    let v = b.variable();
    for p in ps {
        b.connect(p, n, v).unwrap();
    }
    let b = b.build().unwrap(); // 3-processor star over "n"
    let fam = GeneralFamily::new(vec![
        (a.clone(), SystemInit::with_marked(&a, &[ProcId::new(0)])),
        (b.clone(), SystemInit::with_marked(&b, &[ProcId::new(1)])),
    ])
    .unwrap();
    let elite = fam.elite(Model::Q).expect("both members have leaders");
    assert_eq!(elite.elected.len(), 2);
    // A symmetric member poisons the family.
    let fam2 = GeneralFamily::new(vec![
        (a.clone(), SystemInit::uniform(&a)),
        (b, SystemInit::with_marked(&a, &[ProcId::new(0)])),
    ]);
    // (second member init shape mismatch is also caught)
    assert!(fam2.is_err() || fam2.unwrap().elite(Model::Q).is_none());
}

#[test]
fn report_covers_the_full_pipeline() {
    let g = topology::marked_ring(4);
    let init = SystemInit::uniform(&g);
    let r = analyze_system(&g, &init);
    assert!(r.similarity_q.has_uniquely_labeled_processor());
    assert!(r.decisions.iter().any(|d| d.possible()));
    let md = markdown_report(&g, &init);
    assert!(md.contains("## Selection problem"));
    assert!(md.contains("selectable"));
}

#[test]
fn prelude_covers_the_basics() {
    use simsym::prelude::*;
    let ring = topology::uniform_ring(3);
    let theta = similarity(&ring, Model::Q);
    assert!(!theta.has_uniquely_labeled_processor());
    let init = SystemInit::with_marked(&ring, &[ProcId::new(0)]);
    assert!(decide_selection_with_init(&ring, &init, Model::Q).possible());
}
