//! `SELECT(Σ)` and Algorithms 3–4: selection programs for single systems
//! in **Q**, homogeneous families in **Q**, and systems in **L**.
//!
//! * [`selection_program_q`] — `SELECT(Σ)` for a single connected system in
//!   Q: Algorithm 2 plus “select yourself if your learned label is the
//!   designated unique label” (§4).
//! * [`Algorithm3`] — the two-phase family learner (§5): phase A runs
//!   Algorithm 2 *ignoring initial states* (identical on every member of a
//!   homogeneous family) so processors learn the init-independent labeling
//!   — in particular the neighbor-count classes of their variables; phase B
//!   re-runs Algorithm 2 with those classes as the variables' initial
//!   states and the member's true processor states, learning the family
//!   similarity label. With an `ELITE` set (Theorem 7) it selects.
//! * [`Algorithm4`] — selection in **L** (Theorem 9): `relabel` (lock each
//!   neighbor in name order, read-increment its counter), then a barrier,
//!   then phase B of Algorithm 3 over the *relabel outcome family*, with
//!   `peek`/`post` **emulated on read/write/lock** — each processor's
//!   lock-order rank keys its slot in a variable-resident map, which is
//!   precisely how L's power strictly exceeds Q's.
//!
//! ### Deviation note (barrier)
//!
//! The paper's Algorithm 4 analyzes the post-`relabel` system as a family
//! member, implicitly treating `relabel` as completed before label
//! learning begins. Executably, a processor cannot observe global
//! `relabel` completion under plain fairness; under a `k`-bounded-fair
//! schedule it *can* wait out a step budget that guarantees completion.
//! [`Algorithm4`] therefore takes the schedule bound `k` and inserts that
//! barrier. The paper itself notes (§4, §5) that for connected systems the
//! selection problem does not distinguish fair from bounded-fair
//! schedules, so this restriction loses no generality for solvability.

use crate::distributed::{
    encode_post, labels_to_set, learner_regs, set_to_labels, store_peek, update_suspects_phase,
    Alg2Tables, LabelLearner,
};
use crate::family::elite_from_member_labels;
use crate::quotient::similarity_reducer;
use crate::relabel::{lstar_outcomes, outcome_init, relabel_outcomes};
use crate::{hopcroft_similarity, Family, InconsistentLabeling, Label, Model};
use simsym_graph::SystemGraph;
use simsym_vm::{
    explore_with, ExploreConfig, ExploreResult, InstructionSet, JournalSpec, LocalState, Machine,
    OpEnv, OpKind, PeekView, PhaseSpec, PortSet, Program, ProgramSpec, RegId, SystemInit, Value,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Default enumeration budget for relabel outcome families.
pub const DEFAULT_OUTCOME_BUDGET: usize = 2_000;

/// Builds `SELECT(Σ)` for a single system in **Q**: returns `None` when
/// the similarity labeling leaves every processor shadowed (no selection
/// algorithm exists, Theorem 3).
///
/// # Errors
///
/// Propagates [`InconsistentLabeling`] if table generation fails (cannot
/// happen for labelings produced by Algorithm 1).
pub fn selection_program_q(
    graph: &SystemGraph,
    init: &SystemInit,
) -> Result<Option<LabelLearner>, InconsistentLabeling> {
    let theta = hopcroft_similarity(graph, init, Model::Q);
    let unique = theta.uniquely_labeled_processors();
    let Some(&leader) = unique.first() else {
        return Ok(None);
    };
    let designated = theta.proc_label(leader);
    let learner = LabelLearner::new(graph, init, &theta)?;
    Ok(Some(learner.with_elite(BTreeSet::from([designated]))))
}

/// Exhaustively explores Algorithm 2 on `(graph, init)` in **Q** under the
/// similarity-quotient reduction, certifying its selection behavior up to
/// the configured depth **modulo `Aut(N, state₀)`**:
///
/// * on a selectable system, the explored program is `SELECT(Σ)` and every
///   reachable selected-set has at most one member (Uniqueness);
/// * on a shadowed system ([`selection_program_q`] returns `None`), the
///   bare learner is explored and no reachable state selects anyone —
///   the dynamic face of Theorem 3.
///
/// The returned [`ExploreResult`]'s outcome set is closed over the
/// similarity group, so it equals what an unreduced exploration would
/// report; `truncated` downgrades the certificate to a lower bound.
///
/// # Errors
///
/// Propagates [`InconsistentLabeling`] from table generation (cannot
/// happen for labelings produced by Algorithm 1).
pub fn explore_selection_q(
    graph: &SystemGraph,
    init: &SystemInit,
    cfg: ExploreConfig,
) -> Result<ExploreResult, InconsistentLabeling> {
    let program: Arc<dyn Program> = match selection_program_q(graph, init)? {
        Some(select) => Arc::new(select),
        None => {
            let theta = hopcroft_similarity(graph, init, Model::Q);
            Arc::new(LabelLearner::new(graph, init, &theta)?)
        }
    };
    let machine = Machine::new(Arc::new(graph.clone()), InstructionSet::Q, program, init)
        .expect("learner machine construction is infallible on its own graph");
    let mut reducer = similarity_reducer(graph, init);
    Ok(explore_with(&machine, cfg, &mut reducer))
}

/// The two-phase family learner/selector of §5.
pub struct Algorithm3 {
    phase_a: Arc<Alg2Tables>,
    phase_b: Arc<Alg2Tables>,
    elite: Option<BTreeSet<Label>>,
    name: String,
}

impl Algorithm3 {
    /// Builds Algorithm 3 for a homogeneous family in **Q**.
    ///
    /// Returns `Ok(None)` when the family has no `ELITE` set — by
    /// Theorem 7 it then has no selection algorithm (calling
    /// [`Algorithm3::learner_only`] still yields the label-learning
    /// program).
    ///
    /// # Errors
    ///
    /// Propagates table-generation failures.
    pub fn for_family(family: &Family) -> Result<Option<Algorithm3>, InconsistentLabeling> {
        let mut alg = Self::learner_only(family)?;
        let (_, member_labels) = family_phase_b(family).1;
        let Some(elite) = elite_from_member_labels(&member_labels) else {
            return Ok(None);
        };
        alg.elite = Some(elite.labels);
        alg.name = "algorithm3-select".to_owned();
        Ok(Some(alg))
    }

    /// The label-learning program without selection.
    ///
    /// # Errors
    ///
    /// Propagates table-generation failures.
    pub fn learner_only(family: &Family) -> Result<Algorithm3, InconsistentLabeling> {
        let graph = family.graph();
        // Phase A: the init-independent labeling of the (single) network.
        let uniform = SystemInit::uniform(graph);
        let theta_a = hopcroft_similarity(graph, &uniform, Model::Q);
        let tables_a = Alg2Tables::generate(graph, &uniform, &theta_a)?.ignoring_init();
        // Phase B: the family labeling with variables re-seeded by their
        // phase-A label.
        let (family_b, _) = family_phase_b(family);
        let (ugraph, uinit) = family_b.union_system();
        let theta_b = hopcroft_similarity(&ugraph, &uinit, Model::Q);
        let tables_b = Alg2Tables::generate(&ugraph, &uinit, &theta_b)?;
        Ok(Algorithm3 {
            phase_a: Arc::new(tables_a),
            phase_b: Arc::new(tables_b),
            elite: None,
            name: "algorithm3".to_owned(),
        })
    }

    /// The phase-B (family) label a processor has learned, if finished.
    pub fn learned_label(local: &LocalState) -> Option<Label> {
        Self::is_done(local)
            .then(|| LabelLearner::learned_label(local))
            .flatten()
    }

    /// Whether a processor has finished both phases.
    pub fn is_done(local: &LocalState) -> bool {
        local.reg(learner_regs().phase).as_int() == Some(A3_DONE)
    }
}

/// Re-seeds the members' variable initial states with their phase-A labels
/// and returns the family plus its similarity data.
fn family_phase_b(family: &Family) -> (Family, (crate::Labeling, Vec<Vec<Label>>)) {
    let graph = family.graph();
    let uniform = SystemInit::uniform(graph);
    let theta_a = hopcroft_similarity(graph, &uniform, Model::Q);
    let members_b: Vec<SystemInit> = family
        .members()
        .iter()
        .map(|m| SystemInit {
            proc_values: m.proc_values.clone(),
            var_values: graph
                .variables()
                .map(|v| Value::Sym(theta_a.var_label(v)))
                .collect(),
        })
        .collect();
    let family_b = Family::new(graph.clone(), members_b).expect("same shapes as input family");
    let sim = family_b.similarity(Model::Q);
    (family_b, sim)
}

// Explicit phase values for the two selection programs. Completion is a
// *dedicated phase*, never a program-counter sentinel: `pc` stays an
// honest instruction pointer, so a long-running learner whose counter
// climbs toward `u32::MAX` can never spuriously read as converged.
const A3_PHASE_A: i64 = 0;
const A3_PHASE_B: i64 = 1;
const A3_DONE: i64 = 2;

const A4_RELABEL: i64 = 0;
const A4_BARRIER: i64 = 1;
const A4_LEARN: i64 = 2;
const A4_DONE: i64 = 3;
/// A processor that read a garbled register parks here: it never
/// converges and never selects; the violation is on its op record.
const A4_HALTED: i64 = 4;

impl Program for Algorithm3 {
    fn boot(&self, initial: &Value) -> LocalState {
        let r = learner_regs();
        // Phase A boots in ignore-init mode; remember the true initial
        // value for phase B.
        let mut s = LabelLearner::from_tables(Arc::clone(&self.phase_a)).boot(initial);
        s.pc = 0;
        s.set_reg(r.phase, Value::from(A3_PHASE_A));
        s.set_reg(r.true_init, initial.clone());
        s
    }

    fn step(&self, local: &mut LocalState, ops: &mut OpEnv<'_>) {
        let r = learner_regs();
        match local.reg(r.phase).as_int() {
            Some(A3_PHASE_A) => {
                let t = &self.phase_a;
                let names = t.name_count() as u32;
                if names == 0 {
                    // Degenerate: straight to phase B.
                    self.enter_phase_b(local);
                    return;
                }
                if local.pc < names {
                    let ni = local.pc as usize;
                    let name = ops.name_at(ni);
                    let view = ops.peek(name);
                    store_peek(local, ni, &view, t);
                    local.pc += 1;
                    if local.pc == names {
                        update_suspects_phase(local, t, 0);
                    }
                } else {
                    let ni = (local.pc - names) as usize;
                    let name = ops.name_at(ni);
                    let pec = local.reg(r.pec).clone();
                    ops.post(name, encode_post(pec, ni, 0, Value::Unit));
                    local.pc += 1;
                    if local.pc == 2 * names {
                        let pec = set_to_labels(local.reg(r.pec));
                        if pec.len() == 1 {
                            self.enter_phase_b(local);
                        } else {
                            local.pc = 0;
                        }
                    }
                }
            }
            Some(A3_PHASE_B) => {
                let t = &self.phase_b;
                let names = t.name_count() as u32;
                if names == 0 {
                    local.set_reg(r.phase, Value::from(A3_DONE));
                    return;
                }
                if local.pc < names {
                    let ni = local.pc as usize;
                    let name = ops.name_at(ni);
                    let view = ops.peek(name);
                    // VEC was pre-seeded at the phase switch; store_peek
                    // only records the posts.
                    store_peek(local, ni, &view, t);
                    local.pc += 1;
                    if local.pc == names {
                        update_suspects_phase(local, t, 1);
                    }
                } else {
                    let ni = (local.pc - names) as usize;
                    let name = ops.name_at(ni);
                    let pec = local.reg(r.pec).clone();
                    let prior = local.reg(r.alabel).clone();
                    ops.post(name, encode_post(pec, ni, 1, prior));
                    local.pc += 1;
                    if local.pc == 2 * names {
                        let pec = set_to_labels(local.reg(r.pec));
                        if pec.len() == 1 {
                            if let Some(elite) = &self.elite {
                                if elite.contains(&pec[0]) {
                                    local.selected = true;
                                }
                            }
                            local.set_reg(r.phase, Value::from(A3_DONE));
                        } else {
                            local.pc = 0;
                        }
                    }
                }
            }
            Some(A3_DONE) => {}
            other => panic!("algorithm 3 in invalid phase {other:?}"),
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn static_spec(&self) -> Option<ProgramSpec> {
        Some(
            ProgramSpec::new(&self.name, A3_PHASE_A as u32)
                .boot_writes(&["pec", "vec", "peeked", "round", "phase", "true_init"])
                .phase(
                    PhaseSpec::new(A3_PHASE_A as u32, "phase-a")
                        .reads(&["phase", "pec", "vec", "peeked", "true_init"])
                        .writes(&["pec", "vec", "peeked", "alabel", "phase"])
                        .op(OpKind::Peek, PortSet::All)
                        .op(OpKind::Post, PortSet::All)
                        .succs(&[A3_PHASE_A as u32, A3_PHASE_B as u32]),
                )
                .phase(
                    PhaseSpec::new(A3_PHASE_B as u32, "phase-b")
                        .reads(&["phase", "pec", "vec", "peeked", "alabel"])
                        .writes(&["pec", "vec", "peeked", "phase"])
                        .op(OpKind::Peek, PortSet::All)
                        .op(OpKind::Post, PortSet::All)
                        .succs(&[A3_PHASE_B as u32, A3_DONE as u32]),
                )
                .phase(
                    PhaseSpec::new(A3_DONE as u32, "done")
                        .reads(&["phase"])
                        .succs(&[A3_DONE as u32]),
                ),
        )
    }
}

impl Algorithm3 {
    fn enter_phase_b(&self, local: &mut LocalState) {
        let r = learner_regs();
        let a_label = LabelLearner::learned_label(local)
            .expect("phase A finished with a singleton suspect set");
        local.set_reg(r.alabel, Value::Sym(a_label));
        local.set_reg(r.phase, Value::from(A3_PHASE_B));
        let tb = &self.phase_b;
        let true_init = local.reg(r.true_init).clone();
        let pec: Vec<Label> = tb
            .proc_labels()
            .iter()
            .copied()
            .filter(|l| tb.state0_of_proc(*l) == Some(&true_init))
            .collect();
        local.set_reg(r.pec, labels_to_set(pec));
        // VEC[n] := labels whose (phase-B) initial state is the phase-A
        // label of my n-neighbor, which I can derive from my own phase-A
        // label.
        let ta = &self.phase_a;
        let vec: Vec<Value> = (0..tb.name_count())
            .map(|n| {
                let nbr_a = ta
                    .neighbor_label(a_label, n)
                    .expect("phase-A neighbor label exists");
                let want = Value::Sym(nbr_a);
                labels_to_set(
                    tb.var_labels()
                        .iter()
                        .copied()
                        .filter(|l| tb.state0_of_var(*l) == Some(&want)),
                )
            })
            .collect();
        local.set_reg(r.vec, Value::Tuple(vec.into()));
        local.set_reg(
            r.peeked,
            Value::tuple(std::iter::repeat_n(Value::Unit, tb.name_count())),
        );
        local.pc = 0;
    }
}

/// Selection for systems in **L** (Algorithm 4, Theorem 9) and **L***
/// (§6): `relabel`, barrier, then the emulated family learner.
pub struct Algorithm4 {
    tables: Arc<Alg2Tables>,
    elite: Option<BTreeSet<Label>>,
    names: usize,
    /// Own-step budget for the post-relabel barrier.
    barrier: i64,
    extended: bool,
    name: String,
}

/// The decision produced while generating [`Algorithm4`].
pub struct LSelectionPlan {
    /// The generated program, when selection is possible.
    pub program: Option<Algorithm4>,
    /// Whether the outcome family was enumerated exhaustively (if not,
    /// an impossibility verdict is heuristic, not a certificate).
    pub complete: bool,
    /// Per-member processor labels of the outcome family (diagnostics).
    pub member_labels: Vec<Vec<Label>>,
}

impl Algorithm4 {
    /// Analyzes a system in **L** (or **L*** with `extended = true`) under
    /// `k`-bounded-fair schedules and builds the selection program when
    /// one exists.
    ///
    /// # Errors
    ///
    /// Propagates table-generation failures.
    ///
    /// # Panics
    ///
    /// Panics if `k` is smaller than the processor count (no such
    /// schedule exists).
    pub fn plan(
        graph: &SystemGraph,
        init: &SystemInit,
        k: usize,
        extended: bool,
        budget: usize,
    ) -> Result<LSelectionPlan, InconsistentLabeling> {
        assert!(
            k >= graph.processor_count(),
            "k-bounded fairness requires k >= processor count"
        );
        let outcomes = if extended {
            lstar_outcomes(graph, budget)
        } else {
            relabel_outcomes(graph, budget)
        };
        // The family of relabel outcomes: processor states carry the
        // counts; variable states carry the final counter value (= the
        // variable's degree), which is what the learner observes.
        let members: Vec<SystemInit> = outcomes
            .outcomes
            .iter()
            .map(|o| {
                let mut m = outcome_init(graph, init, o);
                m.var_values = graph
                    .variables()
                    .map(|v| Value::from(graph.variable_degree(v)))
                    .collect();
                m
            })
            .collect();
        let family = Family::new(graph.clone(), members).expect("outcome shapes match");
        let (ugraph, uinit) = family.union_system();
        let theta = hopcroft_similarity(&ugraph, &uinit, Model::Q);
        let (_, member_labels) = family.similarity(Model::Q);
        let elite = elite_from_member_labels(&member_labels);
        let program = match elite {
            Some(elite) => {
                let tables = Alg2Tables::generate(&ugraph, &uinit, &theta)?;
                let maxdeg = graph
                    .variables()
                    .map(|v| graph.variable_degree(v))
                    .max()
                    .unwrap_or(0);
                let names = graph.name_count();
                let barrier = (8 * k * names * (maxdeg + 1) + k) as i64;
                Some(Algorithm4 {
                    tables: Arc::new(tables),
                    elite: Some(elite.labels),
                    names,
                    barrier,
                    extended,
                    name: if extended {
                        "algorithm4-lstar".to_owned()
                    } else {
                        "algorithm4".to_owned()
                    },
                })
            }
            None => None,
        };
        Ok(LSelectionPlan {
            program,
            complete: outcomes.complete,
            member_labels,
        })
    }

    /// Whether a processor has selected or definitively lost.
    pub fn is_done(local: &LocalState) -> bool {
        local.reg(learner_regs().phase).as_int() == Some(A4_DONE)
    }

    /// The family label a processor learned, if done.
    pub fn learned_label(local: &LocalState) -> Option<Label> {
        Self::is_done(local)
            .then(|| LabelLearner::learned_label(local))
            .flatten()
    }

    /// The stable-storage journal spec for crash–replay recovery.
    ///
    /// Unlike the label learner ([`LabelLearner::journal_spec`]), Algorithm
    /// 4 has no idempotent re-entry point: the relabel and emulated-post
    /// stages drive lock/read-increment/write side effects from scratch
    /// registers (`rstage`, `rbuf`, `pstage`, `pbuf`, …), so replaying onto
    /// a partial snapshot would re-issue writes that shared state already
    /// absorbed. The journal therefore tracks the *full* register file and
    /// replay restores the exact local state of the last committed step.
    pub fn journal_spec() -> JournalSpec {
        JournalSpec::all()
    }
}

/// Decodes an L-variable value into `(counter, entries)` where entries map
/// lock-rank → posted payload.
fn decode_lvar(v: &Value) -> (i64, Vec<(i64, Value)>) {
    if let Some([count, entries]) = v.as_tuple().and_then(|t| <&[Value; 2]>::try_from(t).ok()) {
        if let (Some(c), Some(set)) = (count.as_int(), entries.as_set()) {
            let entries = set
                .iter()
                .filter_map(|e| {
                    let [rank, payload] = <&[Value; 2]>::try_from(e.as_tuple()?).ok()?;
                    Some((rank.as_int()?, payload.clone()))
                })
                .collect();
            return (c, entries);
        }
    }
    (0, Vec::new())
}

fn encode_lvar(count: i64, entries: Vec<(i64, Value)>) -> Value {
    Value::tuple([
        Value::from(count),
        Value::set(
            entries
                .into_iter()
                .map(|(r, p)| Value::tuple([Value::from(r), p])),
        ),
    ])
}

impl Program for Algorithm4 {
    fn boot(&self, initial: &Value) -> LocalState {
        let r = learner_regs();
        let mut s = LocalState::with_initial(initial.clone());
        s.set_reg(r.phase, Value::from(A4_RELABEL));
        s.set_reg(r.rname, Value::from(0));
        s.set_reg(r.rstage, Value::from(0));
        s.set_reg(r.runlock, Value::from(0));
        s.set_reg(
            r.counts,
            Value::tuple(std::iter::repeat_n(Value::Unit, self.names)),
        );
        if self.names == 0 {
            s.set_reg(r.phase, Value::from(A4_DONE));
        }
        s
    }

    fn step(&self, local: &mut LocalState, ops: &mut OpEnv<'_>) {
        let r = learner_regs();
        match local.reg(r.phase).as_int() {
            Some(A4_RELABEL) => self.step_relabel(local, ops),
            Some(A4_BARRIER) => {
                let Some(w) = int_reg_or_halt(local, ops, r.wait, "wait") else {
                    return;
                };
                if w <= 1 {
                    self.enter_learn(local);
                } else {
                    local.set_reg(r.wait, Value::from(w - 1));
                }
            }
            Some(A4_LEARN) => self.step_learn(local, ops),
            Some(A4_DONE) | Some(A4_HALTED) => {}
            // An unknown phase is corrupted state, not a programming error
            // here: record it and park the processor.
            _ => halt_garbled(local, ops, "phase"),
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn static_spec(&self) -> Option<ProgramSpec> {
        let mut spec = algorithm4_spec(self.extended, true);
        spec.name = self.name.clone();
        Some(spec)
    }
}

/// The static spec of [`Algorithm4`]'s program text.
///
/// `boot_runlock` controls whether boot seeds the `runlock` unlock cursor.
/// The shipped program passes `true`; passing `false` with
/// `extended = true` reproduces the PR 4 defect where the L* unlock path
/// read `runlock` before any write had reached it — regression tests run
/// the must-initialize analysis on that variant and expect
/// `simsym_check`'s `STAT-UNINIT-READ` with **zero** VM steps executed.
pub fn algorithm4_spec(extended: bool, boot_runlock: bool) -> ProgramSpec {
    let relabel = A4_RELABEL as u32;
    let barrier = A4_BARRIER as u32;
    let learn = A4_LEARN as u32;
    let done = A4_DONE as u32;
    let halted = A4_HALTED as u32;
    let mut spec = ProgramSpec::new("algorithm4", relabel)
        .boot_writes(&["phase", "rname", "rstage", "counts"]);
    if boot_runlock {
        spec = spec.boot_writes(&["runlock"]);
    }
    let mut relabel_phase = PhaseSpec::new(relabel, "relabel")
        .reads(&["phase", "rname", "rstage", "counts"])
        // `rbuf` is always written (stage 1) before the stage-2 read, so
        // it belongs in writes only; `wait` seeds the barrier.
        .writes(&["rname", "rstage", "rbuf", "counts", "phase", "wait"])
        .op(OpKind::Read, PortSet::All)
        .op(OpKind::Write, PortSet::All)
        .op(OpKind::Unlock, PortSet::All)
        .succs(&[relabel, barrier, halted]);
    relabel_phase = if extended {
        // The L* release loop walks `runlock` over the name row — the
        // one register boot must seed for the path to be well-defined.
        relabel_phase
            .reads(&["runlock"])
            .writes(&["runlock"])
            .op(OpKind::LockMany, PortSet::All)
    } else {
        relabel_phase.op(OpKind::Lock, PortSet::All)
    };
    spec.phase(relabel_phase)
        .phase(
            PhaseSpec::new(barrier, "barrier")
                .reads(&["phase", "wait", "init", "counts"])
                .writes(&["wait", "phase", "pec", "vec", "peeked", "post_ni", "pstage"])
                .succs(&[barrier, learn, halted]),
        )
        .phase(
            PhaseSpec::new(learn, "learn")
                .reads(&[
                    "phase", "pec", "vec", "peeked", "post_ni", "pstage", "counts",
                ])
                .writes(&["pec", "vec", "peeked", "post_ni", "pstage", "pbuf", "phase"])
                .op(OpKind::Lock, PortSet::All)
                .op(OpKind::Read, PortSet::All)
                .op(OpKind::Write, PortSet::All)
                .op(OpKind::Unlock, PortSet::All)
                .succs(&[learn, done, halted]),
        )
        .phase(
            PhaseSpec::new(done, "done")
                .reads(&["phase"])
                .succs(&[done]),
        )
        .phase(
            PhaseSpec::new(halted, "halted")
                .reads(&["phase"])
                .succs(&[halted]),
        )
}

/// Records a garbled-register violation and parks the processor in
/// [`A4_HALTED`] — it will never converge or select, and the run goes on.
fn halt_garbled(local: &mut LocalState, ops: &mut OpEnv<'_>, register: &'static str) {
    ops.record_garbled_register(register);
    local.set_reg(learner_regs().phase, Value::from(A4_HALTED));
}

/// Reads a register that must hold an integer. A missing or non-integer
/// value used to default to 0 silently — which aims lock/unlock at
/// variable 0 or skips the barrier; instead the violation is recorded and
/// the processor halts.
fn int_reg_or_halt(
    local: &mut LocalState,
    ops: &mut OpEnv<'_>,
    reg: RegId,
    register: &'static str,
) -> Option<i64> {
    match local.reg(reg).as_int() {
        Some(v) => Some(v),
        None => {
            halt_garbled(local, ops, register);
            None
        }
    }
}

/// Like [`int_reg_or_halt`] for registers holding a name index: the value
/// must also lie in `0..bound`.
fn index_reg_or_halt(
    local: &mut LocalState,
    ops: &mut OpEnv<'_>,
    reg: RegId,
    register: &'static str,
    bound: usize,
) -> Option<usize> {
    let v = int_reg_or_halt(local, ops, reg, register)?;
    if v < 0 || v as usize >= bound {
        halt_garbled(local, ops, register);
        return None;
    }
    Some(v as usize)
}

impl Algorithm4 {
    fn step_relabel(&self, local: &mut LocalState, ops: &mut OpEnv<'_>) {
        let r = learner_regs();
        let Some(ni) = index_reg_or_halt(local, ops, r.rname, "rname", self.names) else {
            return;
        };
        let name = ops.name_at(ni);
        let Some(stage) = int_reg_or_halt(local, ops, r.rstage, "rstage") else {
            return;
        };
        match stage {
            0 => {
                // In L*, atomically lock *all* neighbors; in L, lock the
                // current one.
                let got = if self.extended {
                    let names = ops.all_names();
                    ops.lock_many(&names)
                } else {
                    ops.lock(name)
                };
                if got {
                    local.set_reg(r.rstage, Value::from(1));
                }
            }
            1 => {
                let v = ops.read(name);
                let (c, entries) = decode_lvar(&v);
                let Some(Value::Tuple(counts)) = local.reg_mut(r.counts) else {
                    panic!("counts register");
                };
                Arc::make_mut(counts)[ni] = Value::from(c);
                local.set_reg(r.rbuf, encode_lvar(c, entries));
                local.set_reg(r.rstage, Value::from(2));
            }
            2 => {
                let (c, entries) = decode_lvar(local.reg(r.rbuf));
                ops.write(name, encode_lvar(c + 1, entries));
                local.set_reg(r.rstage, Value::from(3));
            }
            _ => {
                if self.extended {
                    // Unlock only after processing the last name (the
                    // multi-lock held everything). Unlock one variable per
                    // step.
                    let next = ni + 1;
                    if next < self.names {
                        // Move to reading the next variable while still
                        // holding all locks; unlock at the very end.
                        local.set_reg(r.rname, Value::from(next));
                        local.set_reg(r.rstage, Value::from(1));
                        return;
                    }
                    // Release in reverse order, one per step, tracked by
                    // "runlock".
                    let Some(ru) = index_reg_or_halt(local, ops, r.runlock, "runlock", self.names)
                    else {
                        return;
                    };
                    if ru < self.names {
                        ops.unlock(ops.name_at(ru));
                        local.set_reg(r.runlock, Value::from(ru as i64 + 1));
                        if ru + 1 < self.names {
                            return;
                        }
                    }
                    self.enter_barrier(local);
                } else {
                    ops.unlock(name);
                    let next = ni + 1;
                    if next < self.names {
                        local.set_reg(r.rname, Value::from(next));
                        local.set_reg(r.rstage, Value::from(0));
                    } else {
                        self.enter_barrier(local);
                    }
                }
            }
        }
    }

    fn enter_barrier(&self, local: &mut LocalState) {
        let r = learner_regs();
        local.set_reg(r.phase, Value::from(A4_BARRIER));
        local.set_reg(r.wait, Value::from(self.barrier));
    }

    fn enter_learn(&self, local: &mut LocalState) {
        let t = &self.tables;
        let r = learner_regs();
        local.set_reg(r.phase, Value::from(A4_LEARN));
        // Pseudo-initial state: (true init, counts) — the family member's
        // processor state after relabel.
        let counts = local.reg(r.counts).clone();
        let pseudo = Value::tuple([local.reg(r.init).clone(), counts]);
        let pec: Vec<Label> = t
            .proc_labels()
            .iter()
            .copied()
            .filter(|l| t.state0_of_proc(*l) == Some(&pseudo))
            .collect();
        local.set_reg(r.pec, labels_to_set(pec));
        local.set_reg(
            r.vec,
            Value::tuple(std::iter::repeat_n(Value::Unit, self.names)),
        );
        local.set_reg(
            r.peeked,
            Value::tuple(std::iter::repeat_n(Value::Unit, self.names)),
        );
        local.pc = 0;
        local.set_reg(r.post_ni, Value::from(0));
        local.set_reg(r.pstage, Value::from(0));
    }

    fn step_learn(&self, local: &mut LocalState, ops: &mut OpEnv<'_>) {
        let t = &self.tables;
        let r = learner_regs();
        let names = self.names as u32;
        if local.pc < names {
            // Emulated peek: one atomic read.
            let ni = local.pc as usize;
            let name = ops.name_at(ni);
            let raw = ops.read(name);
            let (count, entries) = decode_lvar(&raw);
            let view = PeekView::owned(
                Value::from(count),
                entries.into_iter().map(|(_, p)| p).collect(),
            );
            store_peek(local, ni, &view, t);
            local.pc += 1;
            if local.pc == names {
                update_suspects_phase(local, t, 0);
                local.set_reg(r.post_ni, Value::from(0));
                local.set_reg(r.pstage, Value::from(0));
            }
        } else {
            // Emulated post: lock, read, write own slot, unlock.
            let Some(ni) = index_reg_or_halt(local, ops, r.post_ni, "post_ni", self.names) else {
                return;
            };
            let name = ops.name_at(ni);
            let Some(pstage) = int_reg_or_halt(local, ops, r.pstage, "pstage") else {
                return;
            };
            match pstage {
                0 => {
                    if ops.lock(name) {
                        local.set_reg(r.pstage, Value::from(1));
                    }
                }
                1 => {
                    let v = ops.read(name);
                    local.set_reg(r.pbuf, v);
                    local.set_reg(r.pstage, Value::from(2));
                }
                2 => {
                    let (count, mut entries) = decode_lvar(local.reg(r.pbuf));
                    let rank = local
                        .reg_opt(r.counts)
                        .and_then(|v| v.as_tuple())
                        .and_then(|t| t[ni].as_int())
                        .expect("rank recorded during relabel");
                    entries.retain(|(er, _)| *er != rank);
                    let payload = encode_post(local.reg(r.pec).clone(), ni, 0, Value::Unit);
                    entries.push((rank, payload));
                    ops.write(name, encode_lvar(count, entries));
                    local.set_reg(r.pstage, Value::from(3));
                }
                _ => {
                    ops.unlock(name);
                    let next = ni + 1;
                    if next < self.names {
                        local.set_reg(r.post_ni, Value::from(next));
                        local.set_reg(r.pstage, Value::from(0));
                    } else {
                        // Round complete.
                        let pec = set_to_labels(local.reg(r.pec));
                        if pec.len() == 1 {
                            if let Some(elite) = &self.elite {
                                if elite.contains(&pec[0]) {
                                    local.selected = true;
                                }
                            }
                            local.set_reg(r.phase, Value::from(A4_DONE));
                        } else {
                            local.pc = 0;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simsym_graph::{topology, ProcId};
    use simsym_vm::engine::{self, stop, StopCondition};
    use simsym_vm::{
        BoundedFairRandom, InstructionSet, Machine, RoundRobin, Scheduler, StabilityMonitor,
        UniquenessMonitor,
    };

    #[test]
    fn explore_selection_q_certifies_shadowed_ring() {
        // Uniform ring: no selection algorithm exists; the learner must
        // never select anywhere in the (quotiented) reachable space.
        let g = topology::uniform_ring(3);
        let init = SystemInit::uniform(&g);
        let cfg = ExploreConfig {
            max_depth: 12,
            max_states: 50_000,
            threads: 1,
        };
        let result = explore_selection_q(&g, &init, cfg).unwrap();
        assert!(result.outcomes.iter().all(|sel| sel.is_empty()));
        assert!(!result.has_double_selection());
        assert_eq!(result.group_order, 3);
        assert!(result.violation_kinds.is_empty());
    }

    #[test]
    fn explore_selection_q_certifies_unique_selection_on_marked_ring() {
        // Marking one processor makes selection possible; the explored
        // program is SELECT(Σ) and every reachable selected-set has at
        // most one member.
        let g = topology::uniform_ring(3);
        let init = SystemInit::with_marked(&g, &[ProcId::new(0)]);
        let cfg = ExploreConfig {
            max_depth: 16,
            max_states: 100_000,
            threads: 1,
        };
        let result = explore_selection_q(&g, &init, cfg).unwrap();
        assert!(!result.has_double_selection());
        assert!(
            result.outcomes.iter().any(|sel| sel.len() == 1),
            "SELECT must reach a selecting state: {:?}",
            result.outcomes
        );
        assert_eq!(result.group_order, 1, "marked ring is rigid");
    }

    fn selection_outcome(
        graph: &SystemGraph,
        isa: InstructionSet,
        prog: Arc<dyn Program>,
        init: &SystemInit,
        sched: &mut dyn Scheduler,
        max_steps: u64,
    ) -> (Vec<ProcId>, Option<simsym_vm::Violation>) {
        let mut m = Machine::new(Arc::new(graph.clone()), isa, prog, init).expect("machine");
        let mut uniq = UniquenessMonitor;
        let mut stab = StabilityMonitor::default();
        // Stop once someone selected *and* everyone has settled.
        let settled = stop::when(|mach: &Machine| {
            mach.graph().processors().all(|p| {
                let l = mach.local(p);
                LabelLearner::is_done(l)
                    || Algorithm3::is_done(l)
                    || Algorithm4::is_done(l)
                    || l.selected
            })
        });
        let report = engine::run(
            &mut m,
            sched,
            max_steps,
            &mut [&mut uniq, &mut stab],
            &mut StopCondition::<Machine>::and(stop::AnySelected, settled),
        );
        (m.selected(), report.violation)
    }

    #[test]
    fn q_selection_on_marked_ring() {
        let g = topology::uniform_ring(4);
        let init = SystemInit::with_marked(&g, &[ProcId::new(2)]);
        let prog = selection_program_q(&g, &init)
            .expect("tables generate")
            .expect("marked ring admits selection");
        let mut sched = RoundRobin::new();
        let (selected, violation) = selection_outcome(
            &g,
            InstructionSet::Q,
            Arc::new(prog),
            &init,
            &mut sched,
            100_000,
        );
        assert!(violation.is_none(), "violation: {violation:?}");
        assert_eq!(selected.len(), 1);
    }

    #[test]
    fn q_selection_impossible_on_uniform_ring() {
        let g = topology::uniform_ring(4);
        let init = SystemInit::uniform(&g);
        assert!(selection_program_q(&g, &init).expect("tables").is_none());
    }

    #[test]
    fn q_selection_impossible_on_figure1() {
        let g = topology::figure1();
        let init = SystemInit::uniform(&g);
        assert!(selection_program_q(&g, &init).expect("tables").is_none());
    }

    #[test]
    fn q_selection_on_figure2_impossible() {
        // Fig. 2 has p1 ~ p2: the only unique processor label is p3's, so
        // selection IS possible (select p3).
        let g = topology::figure2();
        let init = SystemInit::uniform(&g);
        let prog = selection_program_q(&g, &init)
            .expect("tables")
            .expect("p3 is uniquely labeled");
        let mut sched = RoundRobin::new();
        let (selected, violation) = selection_outcome(
            &g,
            InstructionSet::Q,
            Arc::new(prog),
            &init,
            &mut sched,
            100_000,
        );
        assert!(violation.is_none());
        assert_eq!(selected, vec![ProcId::new(2)], "the unique p3 is selected");
    }

    #[test]
    fn algorithm3_selects_across_family_members() {
        // Family over a 3-ring: member 0 marks p0, member 1 marks p1 with
        // a different value. One program must elect in both.
        let g = topology::uniform_ring(3);
        let mut a = SystemInit::uniform(&g);
        a.proc_values[0] = Value::from(1);
        let mut b = SystemInit::uniform(&g);
        b.proc_values[1] = Value::from(2);
        let family = Family::new(g.clone(), vec![a.clone(), b.clone()]).unwrap();
        let prog: Arc<dyn Program> = Arc::new(
            Algorithm3::for_family(&family)
                .expect("tables")
                .expect("family admits selection"),
        );
        for init in [&a, &b] {
            let mut sched = RoundRobin::new();
            let (selected, violation) = selection_outcome(
                &g,
                InstructionSet::Q,
                Arc::clone(&prog),
                init,
                &mut sched,
                200_000,
            );
            assert!(violation.is_none(), "violation: {violation:?}");
            assert_eq!(selected.len(), 1, "exactly one leader per member");
        }
    }

    #[test]
    fn algorithm3_impossible_with_symmetric_member() {
        let g = topology::uniform_ring(3);
        let family = Family::new(
            g.clone(),
            vec![
                SystemInit::with_marked(&g, &[ProcId::new(0)]),
                SystemInit::uniform(&g),
            ],
        )
        .unwrap();
        assert!(Algorithm3::for_family(&family).expect("tables").is_none());
    }

    #[test]
    fn algorithm4_selects_on_figure1() {
        // Figure 1 in L: the two processors race for the shared variable's
        // lock; the relabel counts split them and selection succeeds —
        // the canonical demonstration that L > Q.
        let g = topology::figure1();
        let init = SystemInit::uniform(&g);
        let k = 4;
        let plan = Algorithm4::plan(&g, &init, k, false, DEFAULT_OUTCOME_BUDGET).expect("tables");
        assert!(plan.complete);
        let prog: Arc<dyn Program> = Arc::new(plan.program.expect("figure 1 selects in L"));
        for seed in 0..5 {
            let mut sched = BoundedFairRandom::new(2, k, seed);
            let (selected, violation) = selection_outcome(
                &g,
                InstructionSet::L,
                Arc::clone(&prog),
                &init,
                &mut sched,
                500_000,
            );
            assert!(violation.is_none(), "violation: {violation:?}");
            assert_eq!(selected.len(), 1, "seed {seed}: exactly one selected");
        }
    }

    #[test]
    fn algorithm4_impossible_on_uniform_ring() {
        // Rings resist locking: the symmetric relabel outcome keeps all
        // processors similar (the L-impossibility behind DP).
        let g = topology::uniform_ring(3);
        let init = SystemInit::uniform(&g);
        let plan = Algorithm4::plan(&g, &init, 3, false, 100_000).expect("tables");
        assert!(plan.complete);
        assert!(plan.program.is_none());
    }

    #[test]
    fn lstar_selects_on_two_ring() {
        // The 2-ring cannot select in L (symmetric outcome exists) but can
        // in L*: extended locking orders the two processors globally.
        let g = topology::uniform_ring(2);
        let init = SystemInit::uniform(&g);
        let plan_l = Algorithm4::plan(&g, &init, 2, false, 100_000).expect("tables");
        assert!(plan_l.complete);
        assert!(plan_l.program.is_none(), "L cannot elect on the 2-ring");
        let plan = Algorithm4::plan(&g, &init, 2, true, 100_000).expect("tables");
        assert!(plan.complete);
        let prog: Arc<dyn Program> = Arc::new(plan.program.expect("L* elects on the 2-ring"));
        for seed in 0..5 {
            let mut sched = BoundedFairRandom::new(2, 2, seed);
            let (selected, violation) = selection_outcome(
                &g,
                InstructionSet::LStar,
                Arc::clone(&prog),
                &init,
                &mut sched,
                500_000,
            );
            assert!(violation.is_none(), "violation: {violation:?}");
            assert_eq!(selected.len(), 1, "seed {seed}");
        }
    }

    #[test]
    fn runaway_counter_is_not_convergence() {
        // Regression: `pc == u32::MAX` used to *be* the done sentinel, so
        // a long-running learner whose counter ever reached it read as
        // converged. Done is now a dedicated phase value.
        let r = learner_regs();
        let mut local = LocalState::with_initial(Value::Unit);
        local.pc = u32::MAX;
        local.set_reg(r.phase, Value::from(A3_PHASE_B));
        local.set_reg(r.pec, labels_to_set([7]));
        assert!(!Algorithm3::is_done(&local));
        assert_eq!(Algorithm3::learned_label(&local), None);
        local.set_reg(r.phase, Value::from(A4_LEARN));
        assert!(!Algorithm4::is_done(&local));
        assert_eq!(Algorithm4::learned_label(&local), None);
        // The dedicated phases do read as done.
        local.set_reg(r.phase, Value::from(A3_DONE));
        assert!(Algorithm3::is_done(&local));
        assert_eq!(Algorithm3::learned_label(&local), Some(7));
        local.set_reg(r.phase, Value::from(A4_DONE));
        assert!(Algorithm4::is_done(&local));
    }

    #[test]
    fn garbled_relabel_register_records_and_halts() {
        // Regression: a missing/garbled "rname" register used to default
        // to index 0 silently, aiming lock operations at the wrong
        // variable. It must be recorded and park the processor instead.
        let g = topology::figure1();
        let init = SystemInit::uniform(&g);
        let plan = Algorithm4::plan(&g, &init, 4, false, DEFAULT_OUTCOME_BUDGET).expect("tables");
        let prog: Arc<dyn Program> = Arc::new(plan.program.expect("figure 1 selects in L"));
        let mut m = Machine::new(Arc::new(g), InstructionSet::L, prog, &init).expect("machine");
        let p = ProcId::new(0);
        let mut garbled = m.local(p).clone();
        garbled.set_reg(learner_regs().rname, Value::Unit);
        m.restore_local(p, garbled);
        m.step(p);
        let record = m.last_record().expect("a step was taken");
        assert!(
            record.violations.iter().any(|v| matches!(
                v,
                simsym_vm::ModelViolation::GarbledRegister { register: "rname" }
            )),
            "expected a garbled-register violation, got {:?}",
            record.violations
        );
        // The processor is parked: further steps change nothing and it
        // never converges or selects.
        let before = m.local(p).clone();
        m.step(p);
        assert_eq!(*m.local(p), before);
        assert!(!Algorithm4::is_done(m.local(p)));
        assert!(!m.local(p).selected);
    }

    #[test]
    fn q_selection_survives_crash_replay_recovery() {
        use simsym_vm::{
            CrashFault, FaultEvent, FaultPlan, FaultSched, FaultView, Faulty, Recovery,
        };
        let g = topology::uniform_ring(4);
        let init = SystemInit::with_marked(&g, &[ProcId::new(2)]);
        let prog: Arc<dyn Program> = Arc::new(
            selection_program_q(&g, &init)
                .expect("tables generate")
                .expect("marked ring admits selection"),
        );
        // Fault-free run: when does the winner decide?
        let mut m0 = Machine::new(
            Arc::new(g.clone()),
            InstructionSet::Q,
            Arc::clone(&prog),
            &init,
        )
        .expect("machine");
        let mut sched = RoundRobin::new();
        engine::run(
            &mut m0,
            &mut sched,
            100_000,
            &mut [],
            &mut stop::AnySelected,
        );
        let winner = *m0.selected().first().expect("someone selected");
        let t = m0.steps();
        // Faulted run with the same schedule: crash the winner *after* the
        // decision committed, then reboot it from the journal.
        let m = Machine::new(Arc::new(g), InstructionSet::Q, prog, &init).expect("machine");
        let plan = FaultPlan::crashes(vec![CrashFault {
            proc: winner,
            at_step: t + 4,
            recovery: Some(Recovery::replay(t + 12)),
        }]);
        let mut f = Faulty::with_journal(m, plan, LabelLearner::journal_spec());
        let mut stab = StabilityMonitor::default();
        let mut fsched = FaultSched::new(RoundRobin::new());
        let report = engine::run(
            &mut f,
            &mut fsched,
            t + 64,
            &mut [&mut stab],
            &mut stop::Never,
        );
        assert!(report.violation.is_none(), "violation: {report:?}");
        assert!(
            simsym_vm::System::selected(&f).contains(&winner),
            "the decision survived the reboot"
        );
        assert!(f
            .fault_events()
            .iter()
            .any(|e| matches!(e, FaultEvent::Replayed { proc, entries, .. }
                if *proc == winner && *entries > 0)));
    }

    #[test]
    fn algorithm4_selection_survives_crash_replay_recovery() {
        use simsym_vm::{
            CrashFault, FaultEvent, FaultPlan, FaultSched, FaultView, Faulty, Recovery,
        };
        let g = topology::figure1();
        let init = SystemInit::uniform(&g);
        let k = 4;
        let plan4 = Algorithm4::plan(&g, &init, k, false, DEFAULT_OUTCOME_BUDGET).expect("tables");
        let prog: Arc<dyn Program> = Arc::new(plan4.program.expect("figure 1 selects in L"));
        let mut m0 = Machine::new(
            Arc::new(g.clone()),
            InstructionSet::L,
            Arc::clone(&prog),
            &init,
        )
        .expect("machine");
        let mut sched = BoundedFairRandom::new(2, k, 0);
        engine::run(
            &mut m0,
            &mut sched,
            500_000,
            &mut [],
            &mut stop::AnySelected,
        );
        let winner = *m0.selected().first().expect("someone selected");
        let t = m0.steps();
        // Same seed: the faulted schedule is identical up to the crash.
        let m = Machine::new(Arc::new(g), InstructionSet::L, prog, &init).expect("machine");
        let plan = FaultPlan::crashes(vec![CrashFault {
            proc: winner,
            at_step: t + 2,
            recovery: Some(Recovery::replay(t + 10)),
        }]);
        let mut f = Faulty::with_journal(m, plan, Algorithm4::journal_spec());
        let mut stab = StabilityMonitor::default();
        let mut fsched = FaultSched::new(BoundedFairRandom::new(2, k, 0));
        let report = engine::run(
            &mut f,
            &mut fsched,
            t + 64,
            &mut [&mut stab],
            &mut stop::Never,
        );
        assert!(report.violation.is_none(), "violation: {report:?}");
        assert!(simsym_vm::System::selected(&f).contains(&winner));
        assert!(Algorithm4::is_done(f.inner().local(winner)));
        assert!(f
            .fault_events()
            .iter()
            .any(|e| matches!(e, FaultEvent::Replayed { proc, .. } if *proc == winner)));
    }

    #[test]
    fn lvar_codec_round_trip() {
        let entries = vec![(0, Value::from(5)), (2, Value::set([Value::from(1)]))];
        let v = encode_lvar(3, entries.clone());
        let (c, e) = decode_lvar(&v);
        assert_eq!(c, 3);
        assert_eq!(e, entries);
        // Unit decodes to empty.
        assert_eq!(decode_lvar(&Value::Unit), (0, vec![]));
    }
}
