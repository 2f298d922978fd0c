//! The **bounded-fair S** distributed label learner (§6).
//!
//! The paper: *"The distributed algorithm for finding similarity labels
//! [in bounded-fair S] is nearly the same as the one given above for Q,
//! and it too can be used as the basis for a selection algorithm."*
//!
//! The differences from Algorithm 2 forced by plain read/write variables:
//!
//! * a variable is a single overwritable cell, so processors maintain a
//!   **cumulative record set** in each cell: a processor merges its
//!   record `(suspects, name, state₀)` into what it read, and rewrites
//!   only while its current record is missing (identical-content writers
//!   collide harmlessly; distinct-content writers converge because every
//!   rewrite carries everything its author saw);
//! * alibis are **set-based** (a processor can never count same-looking
//!   co-writers — that is exactly why the S labeling uses label sets):
//!   * *positive*: a record `(s, n, i)` at my variable rules out the
//!     variable label `β` if no label in `s` with initial state `i` is an
//!     `n`-writer of `β`-variables;
//!   * *negative*: bounded fairness turns silence into information —
//!     after a patience budget every processor must have written, so a
//!     `β` that *expects* a record with name `n` and writer-initial `i`
//!     which never appeared is ruled out. (This is the §5 observation
//!     that bounded fairness is equivalent to knowing neighbor counts,
//!     in set form.)
//!   * processor alibis use only condition 1 (neighbor-label
//!     containment): the counting condition 2 of Algorithm 2 is
//!     unavailable without multisets — and unnecessary, because the
//!     set-based labeling never separates what only counts could.
//!
//! Under *fair* (not bounded-fair) schedules no patience bound exists and
//! the negative alibi is unsound — that is the mimicry obstruction of
//! Figure 3 (`crate::mimic`).

use crate::labeling::InconsistentLabeling;
use crate::{hopcroft_similarity, Label, Labeling, Model};
use simsym_graph::SystemGraph;
use simsym_vm::{LocalState, OpEnv, Program, SystemInit, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const DONE: u32 = u32::MAX;

/// Compiled knowledge for the S learner.
#[derive(Clone, Debug)]
pub struct SLearnTables {
    names: usize,
    plabels: Vec<Label>,
    vlabels: Vec<Label>,
    state0_p: BTreeMap<Label, Value>,
    state0_v: BTreeMap<Label, Value>,
    nbr: BTreeMap<(Label, usize), Label>,
    /// `(name, proc label, var label)` triples that occur: `β`-variables
    /// have at least one `n`-writer labeled `α`.
    npresent: BTreeSet<(usize, Label, Label)>,
    /// Per variable label: the `(name, writer-initial)` pairs it expects
    /// records for.
    expected: BTreeMap<Label, BTreeSet<(usize, Value)>>,
}

impl SLearnTables {
    /// Compiles the tables from a system and its bounded-fair-S labeling.
    ///
    /// # Errors
    ///
    /// Returns [`InconsistentLabeling`] if same-labeled nodes disagree on
    /// initial states or neighbor labels (the labeling is then not a
    /// supersimilarity labeling).
    pub fn generate(
        graph: &SystemGraph,
        init: &SystemInit,
        labeling: &Labeling,
    ) -> Result<SLearnTables, InconsistentLabeling> {
        let names = graph.name_count();
        let mut state0_p = BTreeMap::new();
        for p in graph.processors() {
            let l = labeling.proc_label(p);
            let v = init.proc_values[p.index()].clone();
            if let Some(prev) = state0_p.insert(l, v.clone()) {
                if prev != v {
                    return Err(InconsistentLabeling {
                        detail: format!("processors labeled {l} differ in initial state"),
                    });
                }
            }
        }
        let mut state0_v = BTreeMap::new();
        for v in graph.variables() {
            let l = labeling.var_label(v);
            let val = init.var_values[v.index()].clone();
            if let Some(prev) = state0_v.insert(l, val.clone()) {
                if prev != val {
                    return Err(InconsistentLabeling {
                        detail: format!("variables labeled {l} differ in initial state"),
                    });
                }
            }
        }
        let mut nbr = BTreeMap::new();
        for p in graph.processors() {
            let alpha = labeling.proc_label(p);
            for (ni, &v) in graph.processor_neighbors(p).iter().enumerate() {
                let beta = labeling.var_label(v);
                if let Some(prev) = nbr.insert((alpha, ni), beta) {
                    if prev != beta {
                        return Err(InconsistentLabeling {
                            detail: format!("label {alpha} has ambiguous neighbor {ni}"),
                        });
                    }
                }
            }
        }
        let mut npresent = BTreeSet::new();
        let mut expected: BTreeMap<Label, BTreeSet<(usize, Value)>> = BTreeMap::new();
        for v in graph.variables() {
            let beta = labeling.var_label(v);
            for &(p, name) in graph.variable_edges(v) {
                let alpha = labeling.proc_label(p);
                npresent.insert((name.index(), alpha, beta));
                expected
                    .entry(beta)
                    .or_default()
                    .insert((name.index(), init.proc_values[p.index()].clone()));
            }
        }
        Ok(SLearnTables {
            names,
            plabels: labeling.proc_labels(),
            vlabels: labeling.var_labels(),
            state0_p,
            state0_v,
            nbr,
            npresent,
            expected,
        })
    }
}

/// A record `(suspects, name, writer-initial)` stored in a cell.
fn record(suspects: Value, name: usize, init: Value) -> Value {
    Value::tuple([suspects, Value::from(name), init])
}

/// Cell layout: `(original initial value, set of records)`.
fn decode_cell(v: &Value) -> (Value, Vec<Value>) {
    if let Some([orig, records]) = v.as_tuple().and_then(|t| <&[Value; 2]>::try_from(t).ok()) {
        if let Some(set) = records.as_set() {
            return (orig.clone(), set.to_vec());
        }
    }
    (v.clone(), Vec::new())
}

fn encode_cell(orig: Value, records: Vec<Value>) -> Value {
    Value::tuple([orig, Value::set(records)])
}

/// The distributed S-label learner / selector (instruction set **S**,
/// `k`-bounded-fair schedules).
pub struct SLearner {
    tables: Arc<SLearnTables>,
    elite: Option<BTreeSet<Label>>,
    /// Own-step budget after which silence becomes evidence.
    patience: i64,
    name: String,
}

impl SLearner {
    /// Builds the learner for `(graph, init)` under `k`-bounded-fair
    /// schedules, computing the bounded-fair-S labeling internally.
    ///
    /// # Errors
    ///
    /// Propagates table-generation failures.
    pub fn new(
        graph: &SystemGraph,
        init: &SystemInit,
        k: usize,
    ) -> Result<SLearner, InconsistentLabeling> {
        let theta = hopcroft_similarity(graph, init, Model::BoundedFairS);
        let tables = SLearnTables::generate(graph, init, &theta)?;
        let maxdeg = graph
            .variables()
            .map(|v| graph.variable_degree(v))
            .max()
            .unwrap_or(0);
        let patience = (8 * k * (graph.name_count() + 1) * (maxdeg + 1)
            + 8 * k * graph.processor_count()) as i64;
        Ok(SLearner {
            tables: Arc::new(tables),
            elite: None,
            patience,
            name: "s-learner".to_owned(),
        })
    }

    /// Turns the learner into a selection algorithm electing the processor
    /// whose label is in `elite`.
    pub fn with_elite(mut self, elite: BTreeSet<Label>) -> SLearner {
        self.elite = Some(elite);
        self.name = "s-select".to_owned();
        self
    }

    /// The label a processor learned, if finished.
    pub fn learned_label(local: &LocalState) -> Option<Label> {
        if local.pc != DONE {
            return None;
        }
        match local.get_ref("pec")?.as_set()? {
            [Value::Sym(l)] => Some(*l),
            _ => None,
        }
    }

    /// Whether a processor has finished.
    pub fn is_done(local: &LocalState) -> bool {
        local.pc == DONE
    }

    fn labels_set<I: IntoIterator<Item = Label>>(ls: I) -> Value {
        Value::set(ls.into_iter().map(Value::Sym))
    }

    fn set_labels(v: &Value) -> Vec<Label> {
        v.as_set()
            .map(|s| s.iter().filter_map(Value::as_sym).collect())
            .unwrap_or_default()
    }
}

impl Program for SLearner {
    fn boot(&self, initial: &Value) -> LocalState {
        let t = &self.tables;
        let mut s = LocalState::with_initial(initial.clone());
        let pec: Vec<Label> = t
            .plabels
            .iter()
            .copied()
            .filter(|l| t.state0_p.get(l) == Some(initial))
            .collect();
        s.set("pec", Self::labels_set(pec));
        s.set(
            "vec",
            Value::tuple(std::iter::repeat_n(Value::Unit, t.names)),
        );
        s.set(
            "cells",
            Value::tuple(std::iter::repeat_n(Value::Unit, t.names)),
        );
        s.set("clock", Value::from(0));
        if t.names == 0 {
            s.pc = DONE;
        }
        s
    }

    fn step(&self, local: &mut LocalState, ops: &mut OpEnv<'_>) {
        if local.pc == DONE {
            return;
        }
        let t = &self.tables;
        let names = t.names as u32;
        let clock = local.get("clock").as_int().unwrap_or(0);
        local.set("clock", Value::from(clock + 1));
        if local.pc < names {
            // Read phase.
            let ni = local.pc as usize;
            let raw = ops.read(ops.name_at(ni));
            let mut cells = tuple_vec(local, "cells");
            cells[ni] = raw;
            local.set("cells", Value::Tuple(cells.into()));
            local.pc += 1;
            if local.pc == names {
                self.update(local, clock + 1);
            }
        } else {
            // Merge-write phase: ensure my record is present in each cell.
            let ni = (local.pc - names) as usize;
            let name = ops.name_at(ni);
            let cells = tuple_vec(local, "cells");
            let (orig, mut records) = decode_cell(&cells[ni]);
            let mine = record(local.get("pec"), ni, local.get("init"));
            if records.contains(&mine) {
                // Already present: spend the step on a fresh read of the
                // same cell (keeps information flowing).
                let raw = ops.read(name);
                let mut cells = tuple_vec(local, "cells");
                cells[ni] = raw;
                local.set("cells", Value::Tuple(cells.into()));
            } else {
                records.push(mine);
                ops.write(name, encode_cell(orig, records));
            }
            local.pc += 1;
            if local.pc == 2 * names {
                let pec = Self::set_labels(&local.get("pec"));
                let all_posted = (0..t.names).all(|n| {
                    let cells = tuple_vec(local, "cells");
                    let (_, records) = decode_cell(&cells[n]);
                    records.contains(&record(local.get("pec"), n, local.get("init")))
                });
                if pec.len() == 1 && all_posted {
                    if let Some(elite) = &self.elite {
                        if elite.contains(&pec[0]) {
                            local.selected = true;
                        }
                    }
                    local.pc = DONE;
                } else {
                    local.pc = 0;
                }
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

fn tuple_vec(local: &LocalState, reg: &str) -> Vec<Value> {
    local
        .get_ref(reg)
        .and_then(|v| v.as_tuple())
        .map(<[Value]>::to_vec)
        .expect("register present")
}

impl SLearner {
    /// The alibi pass after reading every neighbor.
    fn update(&self, local: &mut LocalState, clock: i64) {
        let t = &self.tables;
        let cells = tuple_vec(local, "cells");
        let mut vec: Vec<Vec<Label>> = tuple_vec(local, "vec")
            .iter()
            .map(Self::set_labels)
            .collect();
        let patient = clock >= self.patience;
        for ni in 0..t.names {
            let (orig, records) = decode_cell(&cells[ni]);
            // Initialize candidates from the observed original value.
            if local
                .get_ref("vec")
                .and_then(|v| v.as_tuple())
                .map(|tu| tu[ni].is_unit())
                .unwrap_or(true)
            {
                vec[ni] = t
                    .vlabels
                    .iter()
                    .copied()
                    .filter(|l| t.state0_v.get(l) == Some(&orig))
                    .collect();
            }
            // Decode records.
            let recs: Vec<(Vec<Label>, usize, Value)> = records
                .iter()
                .filter_map(|r| {
                    let [s, n, i] = <&[Value; 3]>::try_from(r.as_tuple()?).ok()?;
                    Some((Self::set_labels(s), n.as_int()? as usize, i.clone()))
                })
                .collect();
            vec[ni].retain(|&beta| {
                // Positive alibi: some record is impossible at a β.
                for (suspects, n, init) in &recs {
                    let possible = suspects.iter().any(|&alpha| {
                        t.npresent.contains(&(*n, alpha, beta))
                            && t.state0_p.get(&alpha) == Some(init)
                    });
                    if !possible {
                        return false;
                    }
                }
                // Negative alibi (needs the patience bound): an expected
                // (name, init) never showed up.
                if patient {
                    if let Some(exp) = t.expected.get(&beta) {
                        for (n, init) in exp {
                            let seen = recs.iter().any(|(_, rn, ri)| rn == n && ri == init);
                            if !seen {
                                return false;
                            }
                        }
                    }
                }
                true
            });
        }
        // Processor alibi (condition 1 only).
        let pec = Self::set_labels(&local.get("pec"));
        let new_pec: Vec<Label> = pec
            .into_iter()
            .filter(|&alpha| {
                (0..t.names).all(|n| {
                    t.nbr
                        .get(&(alpha, n))
                        .map(|beta| vec[n].contains(beta))
                        .unwrap_or(false)
                })
            })
            .collect();
        local.set("pec", Self::labels_set(new_pec));
        local.set("vec", Value::tuple(vec.into_iter().map(Self::labels_set)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simsym_graph::{topology, ProcId};
    use simsym_vm::engine::{self, stop};
    use simsym_vm::{
        BoundedFairRandom, InstructionSet, Machine, RoundRobin, Scheduler, StabilityMonitor,
        UniquenessMonitor,
    };

    fn learn_s(
        graph: &SystemGraph,
        init: &SystemInit,
        k: usize,
        sched: &mut dyn Scheduler,
        max_steps: u64,
    ) -> Option<Vec<Label>> {
        let prog = Arc::new(SLearner::new(graph, init, k).expect("tables"));
        let mut m =
            Machine::new(Arc::new(graph.clone()), InstructionSet::S, prog, init).expect("machine");
        let _ = engine::run(
            &mut m,
            sched,
            max_steps,
            &mut [],
            &mut stop::when(|mach: &Machine| {
                mach.graph()
                    .processors()
                    .all(|p| SLearner::is_done(mach.local(p)))
            }),
        );
        let done = m
            .graph()
            .processors()
            .all(|p| SLearner::is_done(m.local(p)));
        done.then(|| {
            m.graph()
                .processors()
                .map(|p| SLearner::learned_label(m.local(p)).expect("learned"))
                .collect()
        })
    }

    fn assert_learns(graph: &SystemGraph, init: &SystemInit, max_steps: u64) {
        let theta = hopcroft_similarity(graph, init, Model::BoundedFairS);
        let k = graph.processor_count();
        let learned = learn_s(graph, init, k, &mut RoundRobin::new(), max_steps)
            .unwrap_or_else(|| panic!("S learner did not converge on {graph:?}"));
        for p in graph.processors() {
            assert_eq!(learned[p.index()], theta.proc_label(p), "{p} on {graph:?}");
        }
    }

    #[test]
    fn figure3_marked_learns_via_negative_alibi() {
        // p must learn that its variable has no z-labeled writer — pure
        // silence-as-evidence, the bounded-fairness dividend.
        let g = topology::figure3();
        let init = SystemInit::with_marked(&g, &[ProcId::new(2)]);
        assert_learns(&g, &init, 500_000);
    }

    #[test]
    fn line_learns_every_label() {
        assert_learns(
            &topology::line(4),
            &SystemInit::uniform(&topology::line(4)),
            2_000_000,
        );
    }

    #[test]
    fn marked_ring_learns() {
        let g = topology::uniform_ring(4);
        let init = SystemInit::with_marked(&g, &[ProcId::new(0)]);
        assert_learns(&g, &init, 2_000_000);
    }

    #[test]
    fn uniform_systems_converge_instantly() {
        // Single-class labelings: PEC is a singleton from boot.
        for g in [topology::figure1(), topology::uniform_ring(4)] {
            let init = SystemInit::uniform(&g);
            assert_learns(&g, &init, 100_000);
        }
    }

    #[test]
    fn figure2_coarse_s_labels() {
        // Under the set rule all three processors share one label — the
        // learner converges to that shared label (it cannot and must not
        // separate them).
        let g = topology::figure2();
        let init = SystemInit::uniform(&g);
        assert_learns(&g, &init, 200_000);
    }

    #[test]
    fn mimicry_gap_p_learns_and_selects() {
        // The fair-S-impossible system IS solvable in bounded-fair S:
        // p (the only unique label) elects itself.
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
        let theta = hopcroft_similarity(&g, &init, Model::BoundedFairS);
        let unique = theta.uniquely_labeled_processors();
        assert_eq!(unique, vec![ProcId::new(0)]);
        let elite = BTreeSet::from([theta.proc_label(unique[0])]);
        let prog = Arc::new(
            SLearner::new(&g, &init, 6)
                .expect("tables")
                .with_elite(elite),
        );
        let mut m = Machine::new(Arc::new(g), InstructionSet::S, prog, &init).unwrap();
        let mut sched = BoundedFairRandom::new(5, 6, 11);
        let mut uniq = UniquenessMonitor;
        let mut stab = StabilityMonitor::default();
        let report = engine::run(
            &mut m,
            &mut sched,
            3_000_000,
            &mut [&mut uniq, &mut stab],
            &mut stop::AnySelected,
        );
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert_eq!(m.selected(), vec![ProcId::new(0)]);
    }

    #[test]
    fn bounded_fair_random_schedules_converge() {
        let g = topology::line(3);
        let init = SystemInit::uniform(&g);
        let theta = hopcroft_similarity(&g, &init, Model::BoundedFairS);
        for seed in 0..3 {
            let mut sched = BoundedFairRandom::new(3, 4, seed);
            let learned = learn_s(&g, &init, 4, &mut sched, 3_000_000)
                .unwrap_or_else(|| panic!("seed {seed}"));
            for p in g.processors() {
                assert_eq!(learned[p.index()], theta.proc_label(p), "seed {seed} {p}");
            }
        }
    }

    #[test]
    fn cell_codec() {
        let c = encode_cell(Value::from(1), vec![Value::from(2)]);
        let (orig, recs) = decode_cell(&c);
        assert_eq!(orig, Value::from(1));
        assert_eq!(recs, vec![Value::from(2)]);
        // A raw (pre-protocol) value decodes as the original.
        let (orig, recs) = decode_cell(&Value::from(9));
        assert_eq!(orig, Value::from(9));
        assert!(recs.is_empty());
    }

    #[test]
    fn tables_reject_bad_labeling() {
        let g = topology::figure1();
        let init = SystemInit::with_marked(&g, &[ProcId::new(0)]);
        let bad = Labeling::from_raw(2, &[0, 0, 1]);
        assert!(SLearnTables::generate(&g, &init, &bad).is_err());
    }
}
