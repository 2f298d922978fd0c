//! Consensus and the FLP bridge (§3).
//!
//! The paper observes that Theorem 1 *is* the impossibility of consensus
//! with one crash-faulty processor \[FLP83\]: a halting failure is an
//! infinite schedule in which the faulty processor appears only finitely
//! often, and the consensus being reached concerns the selected processor.
//! This module makes both directions executable:
//!
//! * [`ConsensusViaSelection`] — on a system whose similarity labeling has
//!   a unique processor, consensus is solved by Algorithm 2 + flooding:
//!   every processor learns its label, the uniquely labeled processor
//!   decides its own input, and the decision spreads through the shared
//!   variables. Agreement/Validity are monitorable invariants.
//! * [`crash_outcomes`] — the crash adversary: run the same program under
//!   schedules that exclude one processor forever. For selection-based
//!   consensus, crashing the leader prevents termination — the concrete
//!   face of “no consensus under general schedules”.

use crate::distributed::{encode_post, labels_to_set, sweep_step, Alg2Tables};
use crate::{hopcroft_similarity, InconsistentLabeling, Label, Model};
use simsym_graph::{ProcId, SystemGraph};
use simsym_vm::{
    run_until, Excluding, LocalState, Machine, Monitor, OpEnv, Program, RandomFair, SystemInit,
    Value, Violation,
};
use std::sync::Arc;

const DONE: u32 = u32::MAX;
/// Phase tag for decision-flood posts.
const DECIDE_PHASE: i64 = 1;

/// Consensus over the processors' initial values, built on `SELECT(Σ)`.
///
/// Requires a connected system in **Q** whose similarity labeling has a
/// uniquely labeled processor (otherwise construction fails — and by
/// Theorem 2 no deterministic consensus that *depends on breaking the
/// tie* could exist).
pub struct ConsensusViaSelection {
    tables: Arc<Alg2Tables>,
    leader_label: Label,
}

impl ConsensusViaSelection {
    /// Builds the program for `(graph, init)`.
    ///
    /// Returns `Ok(None)` when no processor is uniquely labeled.
    ///
    /// # Errors
    ///
    /// Propagates table-generation failures.
    pub fn new(
        graph: &SystemGraph,
        init: &SystemInit,
    ) -> Result<Option<ConsensusViaSelection>, InconsistentLabeling> {
        let theta = hopcroft_similarity(graph, init, Model::Q);
        let Some(&leader) = theta.uniquely_labeled_processors().first() else {
            return Ok(None);
        };
        let leader_label = theta.proc_label(leader);
        let tables = Alg2Tables::generate(graph, init, &theta)?;
        Ok(Some(ConsensusViaSelection {
            tables: Arc::new(tables),
            leader_label,
        }))
    }

    /// The decision of a processor, if it has decided.
    pub fn decision(local: &LocalState) -> Option<Value> {
        (local.get("decided").as_bool() == Some(true)).then(|| local.get("decision"))
    }

    /// Whether a processor has decided and halted.
    pub fn is_decided(local: &LocalState) -> bool {
        local.pc == DONE && Self::decision(local).is_some()
    }
}

impl Program for ConsensusViaSelection {
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
        let names = t.name_count() as u32;
        match local.get("phase").as_int() {
            Some(0) => {
                // Phase 0: Algorithm 2 — learn my label.
                if let Some(pec) = sweep_step(local, ops, t, 0, None) {
                    if pec.len() == 1 {
                        local.set("mylabel", Value::Sym(pec[0]));
                        if pec[0] == self.leader_label {
                            // The leader decides its own input —
                            // Validity is by construction.
                            local.set("decision", local.get("init"));
                            local.set("decided", Value::from(true));
                        }
                        local.set("phase", Value::from(1));
                    }
                    local.pc = 0;
                }
            }
            Some(1) => {
                // Phase 1: decision flood. Alternate peeking for decision
                // markers and posting my own (once known).
                if local.pc < names {
                    let ni = local.pc as usize;
                    let view = ops.peek(ops.name_at(ni));
                    if ConsensusViaSelection::decision(local).is_none() {
                        for posted in view.posted() {
                            if let Some([payload, _, phase, _]) = posted
                                .as_tuple()
                                .and_then(|tu| <&[Value; 4]>::try_from(tu).ok())
                            {
                                if phase.as_int() == Some(DECIDE_PHASE) {
                                    if let Some([tag, value]) = payload
                                        .as_tuple()
                                        .and_then(|tu| <&[Value; 2]>::try_from(tu).ok())
                                    {
                                        if tag.as_sym() == Some(u32::MAX) {
                                            local.set("decision", value.clone());
                                            local.set("decided", Value::from(true));
                                        }
                                    }
                                }
                            }
                        }
                    }
                    local.pc += 1;
                } else {
                    let ni = (local.pc - names) as usize;
                    match ConsensusViaSelection::decision(local) {
                        Some(d) => {
                            // Relay the decision; carry my final label so
                            // phase-0 laggards keep their alibi data.
                            let payload = Value::tuple([Value::Sym(u32::MAX), d]);
                            let prior = local.get("mylabel");
                            ops.post(
                                ops.name_at(ni),
                                encode_post(payload, ni, DECIDE_PHASE, prior),
                            );
                            local.pc += 1;
                            if local.pc == 2 * names {
                                local.pc = DONE;
                            }
                        }
                        None => {
                            // Nothing to relay yet: go peek again.
                            local.pc = 0;
                        }
                    }
                }
            }
            other => panic!("consensus program in invalid phase {other:?}"),
        }
    }

    fn name(&self) -> &str {
        "consensus-via-selection"
    }
}

/// Monitors **Agreement**: no two processors ever hold different
/// decisions.
#[derive(Clone, Debug, Default)]
pub struct AgreementMonitor;

impl Monitor for AgreementMonitor {
    fn observe(&mut self, machine: &Machine, _just_stepped: ProcId) -> Option<Violation> {
        let mut seen: Option<Value> = None;
        for p in machine.graph().processors() {
            if let Some(d) = ConsensusViaSelection::decision(machine.local(p)) {
                match &seen {
                    None => seen = Some(d),
                    Some(prev) if *prev == d => {}
                    Some(prev) => {
                        return Some(Violation::Custom {
                            step: machine.steps(),
                            description: format!("agreement violated: decisions {prev} and {d}"),
                        })
                    }
                }
            }
        }
        None
    }
}

/// Monitors **Validity**: every decision equals some processor's input.
#[derive(Clone, Debug)]
pub struct ValidityMonitor {
    inputs: Vec<Value>,
}

impl ValidityMonitor {
    /// Builds the monitor from the system's initial values.
    pub fn new(init: &SystemInit) -> ValidityMonitor {
        ValidityMonitor {
            inputs: init.proc_values.clone(),
        }
    }
}

impl Monitor for ValidityMonitor {
    fn observe(&mut self, machine: &Machine, just_stepped: ProcId) -> Option<Violation> {
        if let Some(d) = ConsensusViaSelection::decision(machine.local(just_stepped)) {
            if !self.inputs.contains(&d) {
                return Some(Violation::Custom {
                    step: machine.steps(),
                    description: format!("validity violated: decision {d} is no one's input"),
                });
            }
        }
        None
    }
}

/// The outcome of running a consensus program with one processor crashed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CrashOutcome {
    /// The survivors decided (on the given value).
    Decided(Value),
    /// The survivors never decided within the budget — the termination
    /// failure Theorem 1 predicts when the crashed processor was load-
    /// bearing.
    Blocked,
}

/// Runs `fresh()` once per processor, crashing that processor (a general
/// schedule in which it never appears), and reports whether the survivors
/// decide.
pub fn crash_outcomes(fresh: impl Fn() -> Machine, max_steps: u64) -> Vec<(ProcId, CrashOutcome)> {
    let n = fresh().graph().processor_count();
    (0..n)
        .map(|crashed| {
            let crashed = ProcId::new(crashed);
            let mut m = fresh();
            let mut sched = Excluding::new(RandomFair::seeded(7), vec![crashed]);
            let _ = run_until(&mut m, &mut sched, max_steps, &mut [], |mach| {
                mach.graph()
                    .processors()
                    .filter(|&p| p != crashed)
                    .all(|p| ConsensusViaSelection::is_decided(mach.local(p)))
            });
            let all_decided = m
                .graph()
                .processors()
                .filter(|&p| p != crashed)
                .all(|p| ConsensusViaSelection::is_decided(m.local(p)));
            let outcome = if all_decided {
                let p = m
                    .graph()
                    .processors()
                    .find(|&p| p != crashed)
                    .expect("n >= 2");
                CrashOutcome::Decided(ConsensusViaSelection::decision(m.local(p)).expect("decided"))
            } else {
                CrashOutcome::Blocked
            };
            (crashed, outcome)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simsym_graph::topology;
    use simsym_vm::{InstructionSet, RoundRobin};

    fn consensus_machine(graph: &SystemGraph, init: &SystemInit) -> Machine {
        let prog = ConsensusViaSelection::new(graph, init)
            .expect("tables")
            .expect("unique processor exists");
        Machine::new(
            Arc::new(graph.clone()),
            InstructionSet::Q,
            Arc::new(prog),
            init,
        )
        .expect("machine")
    }

    #[test]
    fn figure2_reaches_consensus_on_leader_input() {
        let g = topology::figure2();
        let mut init = SystemInit::uniform(&g);
        // Distinct inputs; the unique processor (p2) holds value 9.
        init.proc_values = vec![Value::Unit, Value::Unit, Value::from(9)];
        // Wait — distinct inputs change the labeling; keep p0/p1 inputs
        // equal so they stay similar and p2 stays the unique leader.
        let mut m = consensus_machine(&g, &init);
        let mut sched = RoundRobin::new();
        let mut agree = AgreementMonitor;
        let mut valid = ValidityMonitor::new(&init);
        let report = run_until(
            &mut m,
            &mut sched,
            500_000,
            &mut [&mut agree, &mut valid],
            |mach| {
                mach.graph()
                    .processors()
                    .all(|p| ConsensusViaSelection::is_decided(mach.local(p)))
            },
        );
        assert!(report.violation.is_none(), "{:?}", report.violation);
        for p in g.processors() {
            assert_eq!(
                ConsensusViaSelection::decision(m.local(p)),
                Some(Value::from(9)),
                "{p} adopts the leader's input"
            );
        }
    }

    #[test]
    fn marked_ring_reaches_consensus() {
        let g = topology::uniform_ring(4);
        let mut init = SystemInit::uniform(&g);
        init.proc_values[2] = Value::from(7);
        let mut m = consensus_machine(&g, &init);
        let mut sched = RoundRobin::new();
        let mut agree = AgreementMonitor;
        let mut valid = ValidityMonitor::new(&init);
        let report = run_until(
            &mut m,
            &mut sched,
            1_000_000,
            &mut [&mut agree, &mut valid],
            |mach| {
                mach.graph()
                    .processors()
                    .all(|p| ConsensusViaSelection::is_decided(mach.local(p)))
            },
        );
        assert!(report.violation.is_none(), "{:?}", report.violation);
        // All four processors are uniquely labeled; whichever leader the
        // construction designated, everyone must agree on ITS input and
        // that input must be some processor's value (Validity monitored).
        let d0 = ConsensusViaSelection::decision(m.local(ProcId::new(0))).expect("decided");
        for p in g.processors() {
            assert_eq!(
                ConsensusViaSelection::decision(m.local(p)),
                Some(d0.clone())
            );
        }
        assert!(init.proc_values.contains(&d0));
    }

    #[test]
    fn symmetric_system_has_no_consensus_program() {
        let g = topology::figure1();
        let init = SystemInit::uniform(&g);
        assert!(ConsensusViaSelection::new(&g, &init)
            .expect("tables")
            .is_none());
    }

    #[test]
    fn crashing_the_leader_blocks_consensus() {
        // Theorem 1's content: under general schedules (= crashes), the
        // selection-based consensus cannot terminate when the processor
        // to be selected never runs.
        let g = topology::uniform_ring(3);
        let mut init = SystemInit::uniform(&g);
        init.proc_values[0] = Value::from(5);
        let g2 = g;
        let init2 = init.clone();
        let outcomes = crash_outcomes(move || consensus_machine(&g2, &init2), 300_000);
        // Crashing the leader (p0) blocks; crashing others may or may not
        // block (the flood path is the ring, so any crash disconnects the
        // relay for someone).
        let leader_outcome = &outcomes[0].1;
        assert_eq!(*leader_outcome, CrashOutcome::Blocked);
    }

    #[test]
    fn agreement_monitor_detects_split() {
        // Synthetic: two processors decide differently.
        let g = topology::figure1();
        let init = SystemInit::uniform(&g);
        let prog = Arc::new(simsym_vm::FnProgram::new("split-brain", |local, _ops| {
            // Each processor "decides" its pc parity — p0 and p1 diverge
            // after different numbers of steps.
            local.set("decision", Value::from(i64::from(local.pc % 2)));
            local.set("decided", Value::from(true));
            local.pc += 1;
        }));
        let mut m = Machine::new(Arc::new(g), InstructionSet::Q, prog, &init).unwrap();
        let mut agree = AgreementMonitor;
        m.step(ProcId::new(0)); // p0 decides 0
        m.step(ProcId::new(0)); // p0 decides 1
        assert!(agree.observe(&m, ProcId::new(0)).is_none());
        m.step(ProcId::new(1)); // p1 decides 0 — split!
        assert!(agree.observe(&m, ProcId::new(1)).is_some());
    }

    #[test]
    fn validity_monitor_detects_invented_values() {
        let g = topology::figure1();
        let init = SystemInit::uniform(&g);
        let prog = Arc::new(simsym_vm::FnProgram::new("inventor", |local, _ops| {
            local.set("decision", Value::from(42));
            local.set("decided", Value::from(true));
        }));
        let mut m = Machine::new(Arc::new(g), InstructionSet::Q, prog, &init).unwrap();
        let mut valid = ValidityMonitor::new(&init);
        m.step(ProcId::new(0));
        assert!(valid.observe(&m, ProcId::new(0)).is_some());
    }
}
