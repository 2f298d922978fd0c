//! The Choice Coordination Problem (\\[R80\\], cited in §1): processors must
//! collectively mark **exactly one shared variable**.
//!
//! The paper presents the selection problem as a generalization of Rabin's
//! coordinated choice; through the similarity lens, choice coordination is
//! its *dual*: where selection needs a uniquely labeled **processor**,
//! deterministic choice coordination needs a uniquely labeled **variable**
//! — if every variable has a similar twin, a schedule makes the twins'
//! states coincide forever and any marking of one is a marking of both.
//!
//! * [`decide_choice`] — the decision procedure (unique variable label?);
//! * [`ChoiceCoordination`] — the generated program (Algorithm 2 to learn
//!   labels, then every processor adjacent to the designated variable
//!   marks it);
//! * [`RandomizedChoice`] — where determinism fails (all variables
//!   similar, e.g. a shared board), a randomized protocol picks the
//!   winning slot from shared draws, choosing with probability 1 — the
//!   §8 randomization dividend once more.

use crate::distributed::{encode_post, labels_to_set, sweep_step, Alg2Tables};
use crate::{hopcroft_similarity, InconsistentLabeling, Label, Model};
use simsym_graph::{SystemGraph, VarId};
use simsym_vm::{LocalState, Machine, Monitor, OpEnv, Program, SystemInit, Value, Violation};
use std::sync::Arc;

const DONE: u32 = u32::MAX;
/// The marker value posted into the chosen variable.
const MARK_TAG: u32 = u32::MAX - 1;

/// The decision: deterministic choice coordination is possible iff some
/// variable is uniquely labeled by the similarity labeling.
pub fn decide_choice(graph: &SystemGraph, init: &SystemInit) -> Option<VarId> {
    let theta = hopcroft_similarity(graph, init, Model::Q);
    let mut counts = std::collections::BTreeMap::new();
    for v in graph.variables() {
        *counts.entry(theta.var_label(v)).or_insert(0usize) += 1;
    }
    graph
        .variables()
        .find(|&v| counts[&theta.var_label(v)] == 1)
}

/// Whether a variable currently carries a choice mark.
pub fn is_marked(machine: &Machine, v: VarId) -> bool {
    machine.var(v).peek_all().iter().any(|val| {
        // Accept the mark either bare (`(MARK,)`) or wrapped in the
        // standard post envelope (`((MARK,), name, phase, prior)`).
        let head = val.as_tuple().and_then(|t| t.first());
        match head {
            Some(Value::Sym(s)) => *s == MARK_TAG,
            Some(inner) => {
                inner
                    .as_tuple()
                    .and_then(|t| t.first())
                    .and_then(Value::as_sym)
                    == Some(MARK_TAG)
            }
            None => false,
        }
    })
}

/// Monitors the choice invariant: at most one variable ever marked.
#[derive(Clone, Debug, Default)]
pub struct ChoiceMonitor;

impl Monitor for ChoiceMonitor {
    fn observe(
        &mut self,
        machine: &Machine,
        _just_stepped: simsym_graph::ProcId,
    ) -> Option<Violation> {
        let marked: Vec<VarId> = machine
            .graph()
            .variables()
            .filter(|&v| is_marked(machine, v))
            .collect();
        if marked.len() > 1 {
            Some(Violation::Custom {
                step: machine.steps(),
                description: format!("choice coordination violated: {marked:?} all marked"),
            })
        } else {
            None
        }
    }
}

/// Deterministic choice coordination via label learning.
pub struct ChoiceCoordination {
    tables: Arc<Alg2Tables>,
    designated: Label,
}

impl ChoiceCoordination {
    /// Builds the program; `Ok(None)` when no variable is uniquely
    /// labeled (no deterministic solution exists).
    ///
    /// # Errors
    ///
    /// Propagates table-generation failures.
    pub fn new(
        graph: &SystemGraph,
        init: &SystemInit,
    ) -> Result<Option<ChoiceCoordination>, InconsistentLabeling> {
        let theta = hopcroft_similarity(graph, init, Model::Q);
        let Some(v) = decide_choice(graph, init) else {
            return Ok(None);
        };
        let designated = theta.var_label(v);
        let tables = Alg2Tables::generate(graph, init, &theta)?;
        Ok(Some(ChoiceCoordination {
            tables: Arc::new(tables),
            designated,
        }))
    }

    /// Whether a processor has finished its part.
    pub fn is_done(local: &LocalState) -> bool {
        local.pc == DONE
    }
}

impl Program for ChoiceCoordination {
    fn boot(&self, initial: &Value) -> LocalState {
        let t = &self.tables;
        let mut s = LocalState::with_initial(initial.clone());
        let pec: Vec<Label> = t
            .proc_labels()
            .iter()
            .copied()
            .filter(|l| t.state0_of_proc(*l) == Some(initial))
            .collect();
        s.set("pec", labels_to_set(pec));
        s.set(
            "vec",
            Value::tuple(std::iter::repeat_n(Value::Unit, t.name_count())),
        );
        s.set(
            "peeked",
            Value::tuple(std::iter::repeat_n(Value::Unit, t.name_count())),
        );
        s.set("phase", Value::from(0));
        s
    }

    fn step(&self, local: &mut LocalState, ops: &mut OpEnv<'_>) {
        if local.pc == DONE {
            return;
        }
        let t = &self.tables;
        match local.get("phase").as_int() {
            Some(0) => {
                // Learn my label (Algorithm 2).
                if let Some(pec) = sweep_step(local, ops, t, 0, None) {
                    if pec.len() == 1 {
                        local.set("mylabel", Value::Sym(pec[0]));
                        local.set("phase", Value::from(1));
                    }
                    local.pc = 0;
                }
            }
            Some(1) => {
                // Mark the designated variable if it is one of my
                // neighbors; otherwise I'm done.
                let my_label = local
                    .get("mylabel")
                    .as_sym()
                    .expect("phase 1 implies learned label");
                let target = (0..t.name_count())
                    .find(|&n| t.neighbor_label(my_label, n) == Some(self.designated));
                if let Some(n) = target {
                    let prior = local.get("mylabel");
                    ops.post(
                        ops.name_at(n),
                        encode_post(Value::tuple([Value::Sym(MARK_TAG)]), n, 1, prior),
                    );
                }
                local.pc = DONE;
            }
            other => panic!("choice program in invalid phase {other:?}"),
        }
    }

    fn name(&self) -> &str {
        "choice-coordination"
    }
}

/// Randomized choice coordination for fully shared boards: every
/// processor posts per-slot draws; the slot holding the strictly maximal
/// `(draw, slot)` pair across all processors is chosen by everyone.
///
/// Assumes every processor sees every variable (a
/// [`simsym_graph::topology::shared_board`]-style system) — Rabin's
/// original setting. Requires randomness and a `k`-bounded-fair schedule
/// (patience as in [`crate::RandomizedSelect`]).
pub struct RandomizedChoice {
    patience: i64,
    domain: u64,
}

impl RandomizedChoice {
    /// Builds the protocol (`patience >= 4k`).
    ///
    /// # Panics
    ///
    /// Panics on a non-positive patience or a domain smaller than 2.
    pub fn new(patience: i64, domain: u64) -> RandomizedChoice {
        assert!(patience > 0, "patience must be positive");
        assert!(domain >= 2, "domain must have at least two values");
        RandomizedChoice { patience, domain }
    }

    /// The slot a processor chose, if done.
    pub fn chosen(local: &LocalState) -> Option<i64> {
        (local.pc == DONE)
            .then(|| local.get("chosen").as_int())
            .flatten()
    }
}

impl Program for RandomizedChoice {
    fn boot(&self, initial: &Value) -> LocalState {
        let mut s = LocalState::with_initial(initial.clone());
        s.set("slot", Value::from(0));
        s.set("stage", Value::from(0));
        s.set("wait", Value::from(self.patience));
        s
    }

    fn step(&self, local: &mut LocalState, ops: &mut OpEnv<'_>) {
        if local.pc == DONE {
            return;
        }
        let slots = ops.name_count() as i64;
        match local.get("stage").as_int().unwrap_or(0) {
            0 => {
                // Post a draw into each slot, one per step.
                let slot = local.get("slot").as_int().unwrap_or(0);
                if slot < slots {
                    let draw = ops.random_below(self.domain) as i64;
                    ops.post(
                        ops.name_at(slot as usize),
                        Value::tuple([Value::from(draw)]),
                    );
                    local.set("slot", Value::from(slot + 1));
                } else {
                    local.set("stage", Value::from(1));
                }
            }
            1 => {
                // Patience: let everyone post everywhere.
                let w = local.get("wait").as_int().unwrap_or(0);
                if w <= 1 {
                    local.set("stage", Value::from(2));
                    local.set("slot", Value::from(0));
                    local.set("best", Value::Unit);
                } else {
                    local.set("wait", Value::from(w - 1));
                }
            }
            _ => {
                // Scan slots, tracking the maximal (draw, slot) pair —
                // identical data for everyone, hence identical choices.
                let slot = local.get("slot").as_int().unwrap_or(0);
                if slot < slots {
                    let view = ops.peek(ops.name_at(slot as usize));
                    let slot_max = view
                        .posted()
                        .filter_map(|v| v.as_tuple()?.first()?.as_int())
                        .max();
                    if let Some(m) = slot_max {
                        let key = Value::tuple([Value::from(m), Value::from(slot)]);
                        if local.get("best").is_unit() || key > local.get("best") {
                            local.set("best", key);
                            local.set("chosen", Value::from(slot));
                        }
                    }
                    local.set("slot", Value::from(slot + 1));
                } else {
                    local.pc = DONE;
                }
            }
        }
    }

    fn name(&self) -> &str {
        "randomized-choice"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simsym_graph::{topology, ProcId};
    use simsym_vm::{run_until, BoundedFairRandom, InstructionSet, RoundRobin};

    #[test]
    fn decide_choice_dual_of_selection() {
        // figure2: v2 and v3 (and v1) are all uniquely labeled — choice
        // is possible.
        let g = topology::figure2();
        let init = SystemInit::uniform(&g);
        assert!(decide_choice(&g, &init).is_some());
        // A shared board: all variables similar? board(3, 2): slot0 and
        // slot1 have identical environments — NOT similar actually: each
        // is the unique variable of its name! Names split them.
        // The genuinely hopeless case is the uniform ring: all forks
        // similar.
        let ring = topology::uniform_ring(4);
        assert!(decide_choice(&ring, &SystemInit::uniform(&ring)).is_none());
    }

    #[test]
    fn deterministic_choice_marks_exactly_one() {
        let g = topology::figure2();
        let init = SystemInit::uniform(&g);
        let designated = decide_choice(&g, &init).unwrap();
        let prog = ChoiceCoordination::new(&g, &init)
            .expect("tables")
            .expect("figure2 admits choice");
        let mut m = Machine::new(
            Arc::new(g.clone()),
            InstructionSet::Q,
            Arc::new(prog),
            &init,
        )
        .unwrap();
        let mut sched = RoundRobin::new();
        let mut mon = ChoiceMonitor;
        let report = run_until(&mut m, &mut sched, 200_000, &mut [&mut mon], |mach| {
            mach.graph()
                .processors()
                .all(|p| ChoiceCoordination::is_done(mach.local(p)))
        });
        assert!(report.violation.is_none(), "{:?}", report.violation);
        let marked: Vec<VarId> = g.variables().filter(|&v| is_marked(&m, v)).collect();
        assert_eq!(marked, vec![designated]);
    }

    #[test]
    fn symmetric_ring_has_no_deterministic_choice() {
        let g = topology::uniform_ring(5);
        let init = SystemInit::uniform(&g);
        assert!(ChoiceCoordination::new(&g, &init)
            .expect("tables")
            .is_none());
    }

    #[test]
    fn randomized_choice_agrees_on_shared_board() {
        // All processors see the same slots: deterministic choice between
        // similar... here slots have distinct names, so determinism would
        // actually work; the point of the randomized protocol is that it
        // needs NO labeling knowledge at all. Verify unanimity.
        let g = topology::shared_board(4, 3);
        let init = SystemInit::uniform(&g);
        for seed in 0..5u64 {
            let prog = Arc::new(RandomizedChoice::new(4 * 6, 1 << 16));
            let mut m = Machine::new(Arc::new(g.clone()), InstructionSet::Q, prog, &init)
                .unwrap()
                .with_randomness(seed);
            let mut sched = BoundedFairRandom::new(4, 6, seed);
            let _ = run_until(&mut m, &mut sched, 200_000, &mut [], |mach| {
                mach.graph()
                    .processors()
                    .all(|p| RandomizedChoice::chosen(mach.local(p)).is_some())
            });
            let choices: Vec<Option<i64>> = g
                .processors()
                .map(|p| RandomizedChoice::chosen(m.local(p)))
                .collect();
            assert!(choices[0].is_some(), "seed {seed}");
            assert!(
                choices.iter().all(|c| c == &choices[0]),
                "seed {seed}: disagreement {choices:?}"
            );
        }
    }

    #[test]
    fn choice_monitor_flags_double_marking() {
        let g = topology::shared_board(2, 2);
        let init = SystemInit::uniform(&g);
        let prog = Arc::new(simsym_vm::FnProgram::new("vandal", |local, ops| {
            let names = ops.all_names();
            let n = names[(local.pc as usize) % names.len()];
            ops.post(n, Value::tuple([Value::Sym(MARK_TAG)]));
            local.pc += 1;
        }));
        let mut m = Machine::new(Arc::new(g), InstructionSet::Q, prog, &init).unwrap();
        let mut mon = ChoiceMonitor;
        m.step(ProcId::new(0));
        assert!(mon.observe(&m, ProcId::new(0)).is_none());
        m.step(ProcId::new(0));
        assert!(mon.observe(&m, ProcId::new(0)).is_some());
    }
}
