//! E7/E11 — the mimicry obstruction for fair S and the model-power
//! lattice of §9: a witness for every strict separation, monotonicity
//! over a zoo of systems, the mimicry matrix's structure, and
//! disconnected twins. `experiments e11` also checks each witness row.

use simsym::core::{
    decide_selection, decide_selection_with_init, mimicry_matrix, power_table, Model,
};
use simsym::graph::{topology, SystemGraph};
use simsym::vm::{SystemInit, Value};
use simsym_graph::ProcId;

const BUDGET: usize = 1 << 12;

/// Figure 3 with `z` marked (the paper's mimicry example).
fn figure3_marked() -> (SystemGraph, SystemInit) {
    let g = topology::figure3();
    let init = SystemInit::with_marked(&g, &[ProcId::new(2)]);
    (g, init)
}

/// The fair-S/bounded-fair-S separation witness: Fig. 3 plus a mirror
/// component without `p`.
fn mimicry_gap() -> (SystemGraph, SystemInit) {
    let mut b = SystemGraph::builder();
    let a = b.name("a");
    let ps = b.processors(5);
    let vs = b.variables(3);
    b.connect(ps[0], a, vs[0]).unwrap();
    b.connect(ps[1], a, vs[1]).unwrap();
    b.connect(ps[2], a, vs[1]).unwrap();
    b.connect(ps[3], a, vs[2]).unwrap();
    b.connect(ps[4], a, vs[2]).unwrap();
    let g = b.build().unwrap();
    let mut init = SystemInit::uniform(&g);
    init.proc_values[2] = Value::from(1);
    init.proc_values[4] = Value::from(1);
    (g, init)
}

#[test]
fn every_strict_separation_has_a_witness() {
    let (gap, gap_init) = mimicry_gap();
    // fair S < bounded-fair S.
    assert!(!decide_selection_with_init(&gap, &gap_init, Model::FairS).possible());
    assert!(decide_selection_with_init(&gap, &gap_init, Model::BoundedFairS).possible());
    // bounded-fair S < Q.
    let fig2 = topology::figure2();
    assert!(!decide_selection(&fig2, Model::BoundedFairS).possible());
    assert!(decide_selection(&fig2, Model::Q).possible());
    // Q < L.
    let fig1 = topology::figure1();
    assert!(!decide_selection(&fig1, Model::Q).possible());
    assert!(decide_selection(&fig1, Model::L).possible());
    // L < L*.
    let ring2 = topology::uniform_ring(2);
    assert!(!decide_selection(&ring2, Model::L).possible());
    assert!(decide_selection(&ring2, Model::LStar).possible());
}

#[test]
fn solvability_is_monotone_in_model_power() {
    // Across a zoo of systems, a weaker model solving selection implies
    // every stronger model does too (with L*'s even-ring caveat handled
    // by the monotonicity holding anyway: L-solvable even systems stay
    // L*-solvable because L* outcomes refine L outcomes... verified
    // empirically here).
    let systems: Vec<(SystemGraph, SystemInit)> = vec![
        figure3_marked(),
        mimicry_gap(),
        (
            topology::figure1(),
            SystemInit::uniform(&topology::figure1()),
        ),
        (
            topology::figure2(),
            SystemInit::uniform(&topology::figure2()),
        ),
        (
            topology::marked_ring(4),
            SystemInit::uniform(&topology::marked_ring(4)),
        ),
        (
            topology::uniform_ring(3),
            SystemInit::uniform(&topology::uniform_ring(3)),
        ),
        (topology::line(4), SystemInit::uniform(&topology::line(4))),
    ];
    for (g, init) in &systems {
        let verdicts: Vec<bool> = Model::ALL
            .iter()
            .map(|&m| decide_selection_with_init(g, init, m).possible())
            .collect();
        for w in verdicts.windows(2) {
            assert!(
                !w[0] || w[1],
                "monotonicity violated on {g:?}: {verdicts:?}"
            );
        }
    }
}

#[test]
fn mimicry_matrix_is_reflexive_and_respects_similarity() {
    let (g, init) = figure3_marked();
    let m = mimicry_matrix(&g, &init, BUDGET);
    for (i, row) in m.iter().enumerate() {
        assert!(row[i], "p{i} mimics itself");
    }
    // Similar processors (none here beyond identity) would mimic
    // mutually; dissimilar ones may still mimic one way (p → q).
    assert!(m[0][1]);
    assert!(!m[1][0]);
}

#[test]
fn power_table_is_internally_consistent() {
    let fig1 = topology::figure1();
    let i1 = SystemInit::uniform(&fig1);
    let ring = topology::uniform_ring(5);
    let i5 = SystemInit::uniform(&ring);
    let rows = power_table(&[("figure1", &fig1, &i1), ("5-ring", &ring, &i5)]);
    assert_eq!(rows.len(), 2);
    for row in &rows {
        assert_eq!(row.decisions.len(), Model::ALL.len());
        for (d, m) in row.decisions.iter().zip(Model::ALL) {
            assert_eq!(d.model, m);
        }
    }
}

#[test]
fn unconnected_uniform_components_cannot_select_anywhere() {
    // Two disjoint identical components: every processor has a twin, so
    // even L* cannot help (the twin gets the twin outcome).
    let single = topology::figure1();
    let (g, _, _) = single.disjoint_union(&single);
    let init = SystemInit::uniform(&g);
    for m in Model::ALL {
        let d = decide_selection_with_init(&g, &init, m);
        assert!(!d.possible(), "{m}: {d}");
    }
}
