//! The unified execution engine: one run loop for every machine model.
//!
//! The paper's results (Theorems 1–11) are statements about *schedules* —
//! which schedule classes can or cannot drive a system to selection — so
//! execution semantics must live in exactly one place. This module is that
//! place:
//!
//! * [`System`] abstracts "something that steps processor-by-processor"
//!   (the shared-variable [`Machine`] and the message-passing machine both
//!   implement it);
//! * [`run`] is the **only** scheduler-driven run loop in the workspace —
//!   a [`Scheduler`] picks the next processor, a stack of [`Probe`]s
//!   observes every step, and a declarative [`StopCondition`] (see
//!   [`stop`]) decides when the run is done;
//! * [`metrics`] measures runs (per-processor step counts, op-kind
//!   histograms, lock contention);
//! * [`trace`] records replayable [`ScheduleTrace`]s with JSON
//!   export/import and [`replay`];
//! * [`sweep`] fans a system out over many seeds and schedule kinds on
//!   scoped threads and aggregates outcome statistics.
//!
//! The historical entry points [`crate::run`] and [`crate::run_until`]
//! survive as thin façades over [`run`]; they contain no loop of their own.
//!
//! [`ScheduleTrace`]: trace::ScheduleTrace
//! [`replay`]: trace::replay

pub mod metrics;
pub mod probe;
pub mod stop;
pub mod sweep;
pub mod trace;

use crate::{Machine, OpRecord, Scheduler, StepOp};
use simsym_graph::ProcId;

pub use probe::{Probe, RunReport, StopReason, Violation};
pub use stop::StopCondition;

/// A steppable distributed system, as the engine sees it.
///
/// The trait captures exactly what schedules, probes, and stop conditions
/// need: the processor universe, the step relation, and the observable
/// selection state. Model-specific inspection (variables, queues, local
/// states) stays on the concrete types.
pub trait System {
    /// Number of processors (schedulers pick from `0..processor_count()`).
    fn processor_count(&self) -> usize;

    /// Executes one atomic step of processor `p`.
    fn step(&mut self, p: ProcId);

    /// Steps executed so far.
    fn steps(&self) -> u64;

    /// Processors whose `selected` flag is set.
    fn selected(&self) -> Vec<ProcId>;

    /// Number of selected processors.
    fn selected_count(&self) -> usize {
        self.selected().len()
    }

    /// A 64-bit fingerprint of the global state (for replay checking and
    /// deduplication).
    fn fingerprint(&self) -> u64;

    /// What the most recent step did (`None` before the first step, or if
    /// the system does not track operations).
    fn last_op(&self) -> Option<StepOp> {
        None
    }

    /// The full [`OpRecord`] of the most recent step: op kind plus touched
    /// variables and attempted model violations. Systems that only track
    /// [`StepOp`]s lift them into records with no target/violation detail;
    /// the checker layer consumes this stream.
    fn last_record(&self) -> Option<OpRecord> {
        self.last_op().map(OpRecord::from_step)
    }
}

impl System for Machine {
    fn processor_count(&self) -> usize {
        self.graph().processor_count()
    }

    fn step(&mut self, p: ProcId) {
        Machine::step(self, p);
    }

    fn steps(&self) -> u64 {
        Machine::steps(self)
    }

    fn selected(&self) -> Vec<ProcId> {
        Machine::selected(self)
    }

    fn selected_count(&self) -> usize {
        Machine::selected_count(self)
    }

    fn fingerprint(&self) -> u64 {
        Machine::fingerprint(self)
    }

    fn last_op(&self) -> Option<StepOp> {
        Machine::last_op(self)
    }

    fn last_record(&self) -> Option<OpRecord> {
        Machine::last_record(self).cloned()
    }
}

/// Drives `system` under `scheduler` for at most `max_steps` steps.
///
/// This is the workspace's single run loop. Before each step the
/// [`StopCondition`] is consulted; after each step every [`Probe`] observes
/// the system and may abort the run with a [`Violation`]. When the run ends
/// (for any reason) each probe's [`Probe::finish`] sees the final state.
pub fn run<S: System + ?Sized>(
    system: &mut S,
    scheduler: &mut dyn Scheduler<S>,
    max_steps: u64,
    probes: &mut [&mut dyn Probe<S>],
    stop: &mut dyn StopCondition<S>,
) -> RunReport {
    let mut steps = 0u64;
    let mut violation = None;
    let mut reason = StopReason::MaxSteps;
    while steps < max_steps {
        if stop.should_stop(system) {
            reason = StopReason::Condition;
            break;
        }
        let p = scheduler.next(system);
        system.step(p);
        steps += 1;
        for probe in probes.iter_mut() {
            if let Some(v) = probe.observe(system, p) {
                violation = Some(v);
                reason = StopReason::Violation;
                break;
            }
        }
        if violation.is_some() {
            break;
        }
    }
    for probe in probes.iter_mut() {
        probe.finish(system);
    }
    RunReport {
        steps,
        selected: system.selected(),
        violation,
        stop: reason,
    }
}

/// Back-compat façades with the historical `run`/`run_until` signatures.
/// Both route straight into [`engine::run`](run).
pub mod compat {
    use super::{stop, Probe, RunReport, StopCondition, System};
    use crate::Scheduler;

    /// Runs `system` under `scheduler` for at most `max_steps`, consulting
    /// the probes after every step.
    pub fn run<S: System + ?Sized>(
        system: &mut S,
        scheduler: &mut dyn Scheduler<S>,
        max_steps: u64,
        probes: &mut [&mut dyn Probe<S>],
    ) -> RunReport {
        super::run(system, scheduler, max_steps, probes, &mut stop::Never)
    }

    /// Like [`run`] but also stops (cleanly) when `stop` returns `true`.
    pub fn run_until<S, F>(
        system: &mut S,
        scheduler: &mut dyn Scheduler<S>,
        max_steps: u64,
        probes: &mut [&mut dyn Probe<S>],
        stop: F,
    ) -> RunReport
    where
        S: System + ?Sized,
        F: FnMut(&S) -> bool,
    {
        let mut stop: F = stop;
        let stop: &mut dyn StopCondition<S> = &mut stop;
        super::run(system, scheduler, max_steps, probes, stop)
    }
}

#[cfg(test)]
mod tests {
    use super::probe::{StabilityMonitor, UniquenessMonitor, Violation};
    use super::*;
    use crate::{run, run_until, FnProgram, InstructionSet, RoundRobin, SystemInit, Value};
    use simsym_graph::topology;
    use std::sync::Arc;

    fn select_all_machine() -> Machine {
        let g = Arc::new(topology::figure1());
        let prog = Arc::new(FnProgram::new("select-all", |local, _ops| {
            local.selected = true;
        }));
        let init = SystemInit::uniform(&g);
        Machine::new(g, InstructionSet::S, prog, &init).unwrap()
    }

    #[test]
    fn uniqueness_monitor_fires_on_double_selection() {
        let mut m = select_all_machine();
        let mut sched = RoundRobin::new();
        let mut uniq = UniquenessMonitor;
        let mut schedule: Vec<ProcId> = Vec::new();
        let report = run(&mut m, &mut sched, 10, &mut [&mut schedule, &mut uniq]);
        assert_eq!(report.stop, StopReason::Violation);
        match report.violation {
            Some(Violation::Uniqueness { selected, .. }) => assert_eq!(selected.len(), 2),
            other => panic!("expected uniqueness violation, got {other:?}"),
        }
        assert_eq!(report.steps, 2);
        assert_eq!(schedule.len(), 2);
    }

    #[test]
    fn stability_monitor_fires_on_unselect() {
        let g = Arc::new(topology::figure1());
        let prog = Arc::new(FnProgram::new("flapper", |local, _ops| {
            local.selected = !local.selected;
        }));
        let init = SystemInit::uniform(&g);
        let mut m = Machine::new(g, InstructionSet::S, prog, &init).unwrap();
        let mut sched = crate::FixedSequence::cycling(vec![ProcId::new(0)]);
        let mut stab = StabilityMonitor::default();
        let report = run(&mut m, &mut sched, 10, &mut [&mut stab]);
        assert!(matches!(
            report.violation,
            Some(Violation::Stability { proc, .. }) if proc == ProcId::new(0)
        ));
    }

    #[test]
    fn clean_run_reports_max_steps() {
        let g = Arc::new(topology::figure1());
        let prog = Arc::new(FnProgram::new("count", |local, _ops| {
            local.pc += 1;
        }));
        let init = SystemInit::uniform(&g);
        let mut m = Machine::new(g, InstructionSet::S, prog, &init).unwrap();
        let mut sched = RoundRobin::new();
        let report = run(&mut m, &mut sched, 6, &mut []);
        assert_eq!(report.stop, StopReason::MaxSteps);
        assert_eq!(report.steps, 6);
        assert!(report.violation.is_none());
        assert!(report.selected.is_empty());
        assert!(!report.is_clean_selection());
    }

    #[test]
    fn run_until_stops_on_condition() {
        let g = Arc::new(topology::figure1());
        let prog = Arc::new(FnProgram::new("count", |local, _ops| {
            local.pc += 1;
        }));
        let init = SystemInit::uniform(&g);
        let mut m = Machine::new(g, InstructionSet::S, prog, &init).unwrap();
        let mut sched = RoundRobin::new();
        let report = run_until(&mut m, &mut sched, 100, &mut [], |mach| {
            mach.local(ProcId::new(0)).pc >= 3
        });
        assert_eq!(report.stop, StopReason::Condition);
        assert!(report.steps < 100);
    }

    #[test]
    fn declarative_stop_conditions_drive_the_engine() {
        let mut m = select_all_machine();
        let mut sched = RoundRobin::new();
        let report = super::run(
            &mut m,
            &mut sched,
            10,
            &mut [],
            &mut stop::SelectedAtLeast(2),
        );
        assert_eq!(report.stop, StopReason::Condition);
        assert_eq!(report.steps, 2);
    }

    #[test]
    fn similarity_observer_coincides_under_round_robin() {
        use super::probe::SimilarityObserver;
        // Uniform ring + round-robin: the two processors march in lockstep.
        let g = Arc::new(topology::uniform_ring(2));
        let prog = Arc::new(FnProgram::new("symmetric", |local, ops| {
            let right = ops.name("right");
            ops.write(right, Value::from(1));
            local.pc += 1;
        }));
        let init = SystemInit::uniform(&g);
        let mut m = Machine::new(g, InstructionSet::S, prog, &init).unwrap();
        let mut sched = RoundRobin::new();
        let mut obs = SimilarityObserver::new(vec![vec![ProcId::new(0), ProcId::new(1)]], 2);
        let _ = run(&mut m, &mut sched, 20, &mut [&mut obs]);
        assert_eq!(obs.coincidence_rate(), Some(1.0));
        assert_eq!(obs.coincidences, 10);
    }

    #[test]
    fn similarity_observer_detects_divergence() {
        use super::probe::SimilarityObserver;
        // Mark processor 0's initial state: the two processors differ at
        // every round boundary.
        let g = Arc::new(topology::uniform_ring(2));
        let prog = Arc::new(FnProgram::new("keep-init", |local, _ops| {
            local.pc += 1;
        }));
        let init = SystemInit::with_marked(&g, &[ProcId::new(0)]);
        let mut m = Machine::new(g, InstructionSet::S, prog, &init).unwrap();
        let mut sched = RoundRobin::new();
        let mut obs = SimilarityObserver::new(vec![vec![ProcId::new(0), ProcId::new(1)]], 2);
        let _ = run(&mut m, &mut sched, 20, &mut [&mut obs]);
        assert_eq!(obs.coincidence_rate(), Some(0.0));
    }

    #[test]
    fn probes_see_final_state_via_finish() {
        struct FinalSteps(u64);
        impl Probe<Machine> for FinalSteps {
            fn observe(&mut self, _m: &Machine, _p: ProcId) -> Option<Violation> {
                None
            }
            fn finish(&mut self, m: &Machine) {
                self.0 = m.steps();
            }
        }
        let mut m = select_all_machine();
        let mut probe = FinalSteps(0);
        let mut sched = RoundRobin::new();
        let _ = run(&mut m, &mut sched, 4, &mut [&mut probe]);
        assert_eq!(probe.0, 4);
    }
}
