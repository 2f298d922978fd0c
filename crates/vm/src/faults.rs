//! Deterministic fault injection: crash-stop, crash-recovery, and
//! adversarial starvation schedules.
//!
//! The paper's schedule classes already *contain* the crash-fault model:
//! a processor that crashes and never recovers simply appears finitely
//! often, which makes the schedule **general** (§2) — exactly the class
//! Theorem 1 uses to bridge to FLP. This module makes that connection
//! executable: a seeded [`FaultPlan`] is woven around any
//! [`System`] by the [`Faulty`] wrapper, crashed processors are skipped
//! by the [`FaultSched`] scheduler adapter, and every injected fault is
//! emitted as a [`FaultEvent`] so runs remain fully deterministic and
//! replayable — the fault timeline is a pure function of the step index,
//! so replaying a recorded schedule through a fresh wrapper with the same
//! plan reproduces every fingerprint byte-for-byte.
//!
//! The third instrument, [`StarveAdversary`], stays *inside* a schedule
//! class: it is a legal `k`-bounded-fair schedule that starves one target
//! processor to the very edge of every `k`-window, probing how tight the
//! bound of Theorem 1 really is.

use crate::engine::System;
use crate::journal::{JournalSpec, StableStore};
use crate::{LocalState, Machine, OpRecord, ScheduleKind, Scheduler, StepOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simsym_graph::ProcId;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

/// What a recovering processor's memory looks like after the reboot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryMode {
    /// Stable memory: the processor resumes exactly where it stopped.
    Resume,
    /// Volatile memory: local state resets to the boot snapshot — the
    /// mode under which Stability is violated by construction.
    Reset,
    /// Volatile memory over a stable store: boot snapshot, then the
    /// journal's durable entries are replayed onto it. Requires the
    /// wrapper to carry a journal ([`Faulty::with_journal`]).
    Replay,
}

impl RecoveryMode {
    /// Stable lower-case name used in JSON artifacts.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryMode::Resume => "resume",
            RecoveryMode::Reset => "reset",
            RecoveryMode::Replay => "replay",
        }
    }

    /// Parses [`RecoveryMode::name`] output.
    pub fn from_name(name: &str) -> Option<RecoveryMode> {
        match name {
            "resume" => Some(RecoveryMode::Resume),
            "reset" => Some(RecoveryMode::Reset),
            "replay" => Some(RecoveryMode::Replay),
            _ => None,
        }
    }
}

/// How a crashed processor comes back, if it does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Recovery {
    /// Step index (of the wrapped run) at which the processor becomes
    /// schedulable again.
    pub at_step: u64,
    /// What state the processor reboots with.
    pub mode: RecoveryMode,
}

impl Recovery {
    /// A stable-memory recovery: resume in place at `at_step`.
    pub fn resume(at_step: u64) -> Recovery {
        Recovery {
            at_step,
            mode: RecoveryMode::Resume,
        }
    }

    /// A volatile-memory recovery: reset to the boot snapshot at
    /// `at_step`.
    pub fn reset(at_step: u64) -> Recovery {
        Recovery {
            at_step,
            mode: RecoveryMode::Reset,
        }
    }

    /// A journaled recovery: boot snapshot plus journal replay at
    /// `at_step`.
    pub fn replay(at_step: u64) -> Recovery {
        Recovery {
            at_step,
            mode: RecoveryMode::Replay,
        }
    }
}

/// One processor's crash, with an optional recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashFault {
    /// The processor that crashes.
    pub proc: ProcId,
    /// Step index (of the wrapped run) at which it stops being scheduled.
    pub at_step: u64,
    /// `None` = crash-stop; `Some` = crash-recovery.
    pub recovery: Option<Recovery>,
}

/// A deterministic fault timeline: which processors crash when, and
/// whether/how they recover. Plans are data — two runs under the same
/// plan and schedule are identical, which is what makes faulted traces
/// replayable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Crash faults, at most one per processor.
    pub crashes: Vec<CrashFault>,
}

impl FaultPlan {
    /// The empty plan: no faults. [`Faulty`] under this plan behaves
    /// exactly like the wrapped system (the zero-fault overhead the bench
    /// measures).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan from explicit crash faults.
    ///
    /// In debug builds this asserts the plan is well-formed; release
    /// builds accept it unchecked. Callers handling untrusted input (CLI
    /// arguments, repro artifacts) should use [`FaultPlan::try_crashes`]
    /// and surface the [`FaultPlanError`] instead.
    pub fn crashes(crashes: Vec<CrashFault>) -> FaultPlan {
        let plan = FaultPlan { crashes };
        debug_assert!(
            plan.validate().is_ok(),
            "invalid fault plan: {}",
            plan.validate().unwrap_err()
        );
        plan
    }

    /// A validated plan from explicit crash faults: rejects a processor
    /// with two crash faults and a recovery that does not strictly
    /// follow its crash.
    pub fn try_crashes(crashes: Vec<CrashFault>) -> Result<FaultPlan, FaultPlanError> {
        let plan = FaultPlan { crashes };
        plan.validate()?;
        Ok(plan)
    }

    /// Checks plan well-formedness (the [`FaultPlan::try_crashes`]
    /// rules).
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        for (i, c) in self.crashes.iter().enumerate() {
            if let Some(d) = self.crashes[..i].iter().find(|d| d.proc == c.proc) {
                return Err(FaultPlanError::DuplicateProcessor {
                    proc: d.proc,
                    first: d.at_step,
                    second: c.at_step,
                });
            }
            if let Some(r) = c.recovery {
                if r.at_step <= c.at_step {
                    return Err(FaultPlanError::RecoveryBeforeCrash {
                        proc: c.proc,
                        crash: c.at_step,
                        recovery: r.at_step,
                    });
                }
            }
        }
        Ok(())
    }

    /// A seeded crash plan over `procs` processors: every processor not in
    /// `protect` may crash at a pseudorandom step below `horizon`, and
    /// roughly half of the crashed recover later (half of those with a
    /// state reset). When `protect` is empty, processor 0 is implicitly
    /// protected so at least one processor always survives — a schedule
    /// needs someone to run.
    ///
    /// # Panics
    ///
    /// Panics if `procs == 0` or `horizon == 0`.
    pub fn seeded_crashes(procs: usize, protect: &[ProcId], seed: u64, horizon: u64) -> FaultPlan {
        assert!(procs > 0, "a plan needs at least one processor");
        assert!(horizon > 0, "crash horizon must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let implicit = [ProcId::new(0)];
        let protect: &[ProcId] = if protect.is_empty() {
            &implicit
        } else {
            protect
        };
        let mut crashes = Vec::new();
        for p in (0..procs).map(ProcId::new) {
            if protect.contains(&p) {
                continue;
            }
            // Two in three victims actually crash; the rest run clean.
            if rng.gen_range(0..3u32) == 0 {
                continue;
            }
            let at_step = rng.gen_range(0..horizon);
            let recovery = if rng.gen() {
                Some(Recovery {
                    at_step: at_step + 1 + rng.gen_range(0..horizon),
                    mode: if rng.gen() {
                        RecoveryMode::Reset
                    } else {
                        RecoveryMode::Resume
                    },
                })
            } else {
                None
            };
            crashes.push(CrashFault {
                proc: p,
                at_step,
                recovery,
            });
        }
        FaultPlan { crashes }
    }

    /// A crash-recovery-reset variant of [`FaultPlan::seeded_crashes`]:
    /// every victim crashes **and** recovers with a state reset — the
    /// adversary Stability cannot survive without a journal. Crash and
    /// recovery steps come from the same seeded stream.
    pub fn seeded_crash_resets(
        procs: usize,
        protect: &[ProcId],
        seed: u64,
        horizon: u64,
    ) -> FaultPlan {
        let mut plan = FaultPlan::seeded_crashes(procs, protect, seed, horizon);
        for c in &mut plan.crashes {
            let at_step = c
                .recovery
                .map(|r| r.at_step)
                .unwrap_or(c.at_step + 1 + horizon / 2);
            c.recovery = Some(Recovery::reset(at_step));
        }
        plan
    }

    /// The number of processors a seeded plan may actually crash, after
    /// the implicit "protect processor 0" rule. Zero means every seeded
    /// plan is empty — the degenerate case the CLI flags as
    /// `SOAK-DEGENERATE` instead of silently burning budget.
    pub fn victim_count(procs: usize, protect: &[ProcId]) -> usize {
        let implicit = [ProcId::new(0)];
        let protect: &[ProcId] = if protect.is_empty() {
            &implicit
        } else {
            protect
        };
        (0..procs)
            .map(ProcId::new)
            .filter(|p| !protect.contains(p))
            .count()
    }

    /// Converts every [`RecoveryMode::Reset`] recovery into
    /// [`RecoveryMode::Replay`] — the `--journal` switch: the same fault
    /// timeline, but reboots restore from the stable store.
    pub fn with_replay_recoveries(mut self) -> FaultPlan {
        for c in &mut self.crashes {
            if let Some(r) = &mut c.recovery {
                if r.mode == RecoveryMode::Reset {
                    r.mode = RecoveryMode::Replay;
                }
            }
        }
        self
    }

    /// Whether any recovery in the plan replays from a journal.
    pub fn needs_journal(&self) -> bool {
        self.crashes
            .iter()
            .any(|c| matches!(c.recovery, Some(r) if r.mode == RecoveryMode::Replay))
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
    }
}

/// Why a [`FaultPlan`] is ill-formed (see [`FaultPlan::try_crashes`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPlanError {
    /// A processor has two crash faults.
    DuplicateProcessor {
        /// The doubly-faulted processor.
        proc: ProcId,
        /// Step of its first crash fault.
        first: u64,
        /// Step of the conflicting second fault.
        second: u64,
    },
    /// A recovery does not strictly follow its crash.
    RecoveryBeforeCrash {
        /// The processor whose fault is inconsistent.
        proc: ProcId,
        /// The crash step.
        crash: u64,
        /// The offending recovery step (`<=` the crash step).
        recovery: u64,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::DuplicateProcessor {
                proc,
                first,
                second,
            } => write!(
                f,
                "processor p{} has two crash faults (steps {first} and {second})",
                proc.index()
            ),
            FaultPlanError::RecoveryBeforeCrash {
                proc,
                crash,
                recovery,
            } => write!(
                f,
                "p{} recovery at step {recovery} does not strictly follow its crash at step {crash}",
                proc.index()
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// One injected fault, stamped with the step index it took effect at.
/// The event stream is what checkers and the CLI report; it is also the
/// audit trail proving a faulted trace replayed the same timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultEvent {
    /// A processor crashed (stopped being scheduled).
    Crashed {
        /// Step index the crash took effect before.
        step: u64,
        /// The crashed processor.
        proc: ProcId,
    },
    /// A crashed processor recovered (resume or boot-snapshot reset).
    Recovered {
        /// Step index the recovery took effect before.
        step: u64,
        /// The recovered processor.
        proc: ProcId,
        /// Whether its local state was reset to the boot snapshot.
        reset: bool,
    },
    /// A crashed processor recovered by replaying its journal onto the
    /// boot snapshot.
    Replayed {
        /// Step index the recovery took effect before.
        step: u64,
        /// The recovered processor.
        proc: ProcId,
        /// Durable journal entries replayed.
        entries: usize,
    },
    /// A channel message was dropped at its send boundary.
    MessageDropped {
        /// Machine step count when the send was attempted.
        step: u64,
        /// Index of the channel in the network's channel list.
        channel: usize,
    },
    /// A channel message was enqueued twice at its send boundary.
    MessageDuplicated {
        /// Machine step count when the send happened.
        step: u64,
        /// Index of the channel in the network's channel list.
        channel: usize,
    },
    /// A receive was served from inside the queue instead of its head.
    DeliveryReordered {
        /// Machine step count when the receive happened.
        step: u64,
        /// Index of the channel in the network's channel list.
        channel: usize,
        /// Queue position the delivered message came from (0 = head, i.e.
        /// no visible reordering).
        depth: usize,
    },
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultEvent::Crashed { step, proc } => write!(f, "step {step}: {proc:?} crashed"),
            FaultEvent::Recovered { step, proc, reset } => write!(
                f,
                "step {step}: {proc:?} recovered{}",
                if *reset { " (state reset)" } else { "" }
            ),
            FaultEvent::Replayed {
                step,
                proc,
                entries,
            } => write!(
                f,
                "step {step}: {proc:?} recovered (journal replay, {entries} entries)"
            ),
            FaultEvent::MessageDropped { step, channel } => {
                write!(f, "step {step}: dropped message on channel {channel}")
            }
            FaultEvent::MessageDuplicated { step, channel } => {
                write!(f, "step {step}: duplicated message on channel {channel}")
            }
            FaultEvent::DeliveryReordered {
                step,
                channel,
                depth,
            } => write!(
                f,
                "step {step}: reordered delivery on channel {channel} (depth {depth})"
            ),
        }
    }
}

/// What the fault layer exposes to schedulers and checkers: the current
/// crash set and the event log. Implemented by [`Faulty`] (crash faults)
/// and by the message-passing machine (channel faults, empty crash set).
pub trait FaultView {
    /// Whether processor `p` is currently crashed.
    fn is_crashed(&self, p: ProcId) -> bool;

    /// Every fault injected so far, in injection order.
    fn fault_events(&self) -> &[FaultEvent];
}

/// A [`System`] whose per-processor local state can be read and
/// restored — what [`Faulty`] needs to implement crash-recovery resets.
pub trait FaultableSystem: System {
    /// Processor `p`'s local state.
    fn local(&self, p: ProcId) -> &LocalState;

    /// Replaces processor `p`'s local state.
    fn restore_local(&mut self, p: ProcId, state: LocalState);
}

impl FaultableSystem for Machine {
    fn local(&self, p: ProcId) -> &LocalState {
        Machine::local(self, p)
    }

    fn restore_local(&mut self, p: ProcId, state: LocalState) {
        Machine::restore_local(self, p, state);
    }
}

/// Wraps a system with a [`FaultPlan`]: crashed processors no-op when
/// stepped (schedulers built with [`FaultSched`] never pick them), and
/// recoveries optionally reset local state to the boot snapshot captured
/// at construction.
///
/// The fault timeline is keyed to the wrapper's own step counter, so the
/// crash set before step `t` is a pure function of `t` — the property the
/// trace-replay guarantee rests on. The fingerprint mixes the crash set
/// into the inner fingerprint so a replay diverging on fault state is
/// caught by the per-step fingerprint check.
pub struct Faulty<S> {
    inner: S,
    plan: FaultPlan,
    crashed: Vec<bool>,
    boot: Vec<LocalState>,
    journal: Option<StableStore>,
    events: Vec<FaultEvent>,
    t: u64,
}

impl<S: FaultableSystem> Faulty<S> {
    /// Wraps `inner` (in its initial state) under `plan`. Boot snapshots
    /// for recovery resets are captured here.
    ///
    /// # Panics
    ///
    /// Panics if the plan names a processor outside the system, if the
    /// plan would crash every processor at step 0 — a schedule needs at
    /// least one live processor to pick — or if the plan contains a
    /// [`RecoveryMode::Replay`] recovery (those need
    /// [`Faulty::with_journal`]).
    pub fn new(inner: S, plan: FaultPlan) -> Faulty<S> {
        assert!(
            !plan.needs_journal(),
            "plan has replay recoveries; use Faulty::with_journal"
        );
        Faulty::build(inner, plan, None)
    }

    /// Wraps `inner` under `plan` with a stable-storage journal: every
    /// commit point (per `spec`) is logged durably with the committing
    /// step, and [`RecoveryMode::Replay`] recoveries rebuild local state
    /// by replaying the log onto the boot snapshot.
    ///
    /// # Panics
    ///
    /// As [`Faulty::new`], except replay recoveries are allowed.
    pub fn with_journal(inner: S, plan: FaultPlan, spec: JournalSpec) -> Faulty<S> {
        Faulty::build(inner, plan, Some(spec))
    }

    fn build(inner: S, plan: FaultPlan, spec: Option<JournalSpec>) -> Faulty<S> {
        let n = inner.processor_count();
        for c in &plan.crashes {
            assert!(
                c.proc.index() < n,
                "fault plan names {:?} but the system has {n} processors",
                c.proc
            );
        }
        let boot: Vec<LocalState> = (0..n)
            .map(|p| inner.local(ProcId::new(p)).clone())
            .collect();
        let journal = spec.map(|spec| StableStore::new(spec, &boot));
        let mut faulty = Faulty {
            inner,
            plan,
            crashed: vec![false; n],
            boot,
            journal,
            events: Vec::new(),
            t: 0,
        };
        faulty.apply_due();
        assert!(
            faulty.crashed.iter().any(|&c| !c),
            "fault plan crashes every processor at step 0"
        );
        faulty
    }

    /// The wrapped system.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps the system, discarding the fault state.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// The plan this wrapper runs under.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Applies every crash/recovery transition due at the current step
    /// counter. Called after each step (and once at construction), so
    /// schedulers always see the crash set of the *upcoming* step.
    fn apply_due(&mut self) {
        for c in &self.plan.crashes {
            let i = c.proc.index();
            if c.at_step == self.t && !self.crashed[i] {
                self.crashed[i] = true;
                self.events.push(FaultEvent::Crashed {
                    step: self.t,
                    proc: c.proc,
                });
            }
            if let Some(r) = c.recovery {
                if r.at_step == self.t && self.crashed[i] {
                    self.crashed[i] = false;
                    match r.mode {
                        RecoveryMode::Resume => {
                            self.events.push(FaultEvent::Recovered {
                                step: self.t,
                                proc: c.proc,
                                reset: false,
                            });
                        }
                        RecoveryMode::Reset => {
                            self.inner.restore_local(c.proc, self.boot[i].clone());
                            self.events.push(FaultEvent::Recovered {
                                step: self.t,
                                proc: c.proc,
                                reset: true,
                            });
                        }
                        RecoveryMode::Replay => {
                            let journal = self
                                .journal
                                .as_ref()
                                .expect("replay recovery requires a journal");
                            let (state, entries) = journal.replay_onto(i, &self.boot[i]);
                            self.inner.restore_local(c.proc, state);
                            self.events.push(FaultEvent::Replayed {
                                step: self.t,
                                proc: c.proc,
                                entries,
                            });
                        }
                    }
                }
            }
        }
    }
}

impl<S: FaultableSystem> System for Faulty<S> {
    fn processor_count(&self) -> usize {
        self.inner.processor_count()
    }

    fn step(&mut self, p: ProcId) {
        // A crashed processor's step is a no-op (defensive: FaultSched
        // never schedules one), but it still advances the fault clock so
        // the timeline stays a function of the step index alone.
        if !self.crashed[p.index()] {
            self.inner.step(p);
            if let Some(journal) = &mut self.journal {
                // Commit detection: if a tracked register or the
                // `selected` flag changed this step, the journal logs the
                // entry durably with the step.
                journal.observe(p.index(), self.inner.local(p), self.t);
            }
        }
        self.t += 1;
        self.apply_due();
    }

    fn steps(&self) -> u64 {
        self.t
    }

    fn selected(&self) -> Vec<ProcId> {
        self.inner.selected()
    }

    fn selected_count(&self) -> usize {
        self.inner.selected_count()
    }

    fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.inner.fingerprint().hash(&mut h);
        self.crashed.hash(&mut h);
        if let Some(journal) = &self.journal {
            journal.fingerprint().hash(&mut h);
        }
        h.finish()
    }

    fn last_op(&self) -> Option<StepOp> {
        self.inner.last_op()
    }

    fn last_record(&self) -> Option<OpRecord> {
        self.inner.last_record()
    }
}

impl<S: FaultableSystem> FaultView for Faulty<S> {
    fn is_crashed(&self, p: ProcId) -> bool {
        self.crashed[p.index()]
    }

    fn fault_events(&self) -> &[FaultEvent] {
        &self.events
    }
}

/// Scheduler adapter that skips currently-crashed processors. Unlike
/// [`crate::Excluding`] the exclusion set is *time-varying*: it is read
/// off the system's [`FaultView`] at every choice, so recoveries put a
/// processor back into rotation automatically.
///
/// A schedule with crashes is **general** — the crashed processor appears
/// only finitely often — regardless of the inner scheduler's class.
pub struct FaultSched<Inner> {
    inner: Inner,
}

impl<Inner> FaultSched<Inner> {
    /// Wraps `inner`, skipping crashed processors.
    pub fn new(inner: Inner) -> FaultSched<Inner> {
        FaultSched { inner }
    }
}

impl<S, Inner> Scheduler<S> for FaultSched<Inner>
where
    S: System + FaultView + ?Sized,
    Inner: Scheduler<S>,
{
    fn next(&mut self, system: &S) -> ProcId {
        // Skip crashed choices; bounded retries then fall back to scanning.
        for _ in 0..64 {
            let p = self.inner.next(system);
            if !system.is_crashed(p) {
                return p;
            }
        }
        (0..system.processor_count())
            .map(ProcId::new)
            .find(|&p| !system.is_crashed(p))
            .expect("at least one processor must remain alive")
    }

    fn kind(&self) -> ScheduleKind {
        ScheduleKind::General
    }
}

/// A legal `k`-bounded-fair schedule that starves one target processor to
/// the edge of every window: the target runs exactly at steps
/// `k-1, 2k-1, 3k-1, …` — once per window, always at the last admissible
/// moment — while the remaining processors round-robin through the other
/// slots.
///
/// This is the adversary Theorem 1's bound is about: bounded fairness
/// caps how much knowledge the target can be denied, and this schedule
/// denies exactly that maximum.
#[derive(Clone, Debug)]
pub struct StarveAdversary {
    target: ProcId,
    k: usize,
    step: u64,
    rr: usize,
}

impl StarveAdversary {
    /// A `k`-bounded-fair starvation schedule over `procs` processors
    /// against `target`.
    ///
    /// # Panics
    ///
    /// Panics if `k < procs` (no bounded-fair schedule fits all
    /// processors in a smaller window), if `procs < 2` (starvation needs
    /// someone else to run), or if `target` is out of range.
    pub fn new(procs: usize, target: ProcId, k: usize) -> StarveAdversary {
        assert!(
            k >= procs,
            "k-bounded fairness requires k >= processor count"
        );
        assert!(procs >= 2, "starvation needs at least two processors");
        assert!(target.index() < procs, "starvation target out of range");
        StarveAdversary {
            target,
            k,
            step: 0,
            rr: 0,
        }
    }

    /// The starved processor.
    pub fn target(&self) -> ProcId {
        self.target
    }
}

impl<S: System + ?Sized> Scheduler<S> for StarveAdversary {
    fn next(&mut self, system: &S) -> ProcId {
        let n = system.processor_count();
        let choice = if self.step % self.k as u64 == (self.k - 1) as u64 {
            self.target
        } else {
            // Round-robin over the n-1 non-targets: each appears exactly
            // once per n-1 non-target slots, and with k >= n at most one
            // target edge falls between two runs of the same processor,
            // so every processor's gap is <= k — the whole schedule is
            // k-bounded fair, not just the target.
            let slot = self.rr % (n - 1);
            self.rr += 1;
            (0..n)
                .map(ProcId::new)
                .filter(|&q| q != self.target)
                .nth(slot)
                .expect("n - 1 non-targets exist")
        };
        self.step += 1;
        choice
    }

    fn kind(&self) -> ScheduleKind {
        ScheduleKind::BoundedFair(self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{self, stop};
    use crate::{FnProgram, InstructionSet, RoundRobin, SystemInit, Value};
    use simsym_graph::topology;
    use std::sync::Arc;

    fn counting_machine(n: usize) -> Machine {
        let g = Arc::new(topology::uniform_ring(n));
        let prog = Arc::new(FnProgram::new("count", |local, _ops| {
            local.pc += 1;
        }));
        let init = SystemInit::uniform(&g);
        Machine::new(g, InstructionSet::S, prog, &init).unwrap()
    }

    #[test]
    fn crash_stop_freezes_the_victim() {
        let plan = FaultPlan::crashes(vec![CrashFault {
            proc: ProcId::new(1),
            at_step: 4,
            recovery: None,
        }]);
        let mut f = Faulty::new(counting_machine(3), plan);
        let mut sched = FaultSched::new(RoundRobin::new());
        engine::run(&mut f, &mut sched, 30, &mut [], &mut stop::Never);
        // p1 ran only before its crash; the survivors kept stepping.
        let pc1 = f.inner().local(ProcId::new(1)).pc;
        assert!(pc1 <= 2, "crashed processor kept running: pc {pc1}");
        assert!(f.inner().local(ProcId::new(0)).pc > pc1);
        assert!(f.is_crashed(ProcId::new(1)));
        assert_eq!(
            f.fault_events(),
            &[FaultEvent::Crashed {
                step: 4,
                proc: ProcId::new(1)
            }]
        );
    }

    #[test]
    fn recovery_with_reset_restores_boot_state() {
        let plan = FaultPlan::crashes(vec![CrashFault {
            proc: ProcId::new(1),
            at_step: 3,
            recovery: Some(Recovery::reset(9)),
        }]);
        let mut f = Faulty::new(counting_machine(3), plan);
        let mut sched = FaultSched::new(RoundRobin::new());
        engine::run(&mut f, &mut sched, 9, &mut [], &mut stop::Never);
        // Recovery fires after step 9: state is back at boot.
        assert!(!f.is_crashed(ProcId::new(1)));
        assert_eq!(f.inner().local(ProcId::new(1)).pc, 0);
        assert!(matches!(
            f.fault_events(),
            [
                FaultEvent::Crashed { .. },
                FaultEvent::Recovered { reset: true, .. }
            ]
        ));
        // And it runs again afterwards.
        engine::run(&mut f, &mut sched, 12, &mut [], &mut stop::Never);
        assert!(f.inner().local(ProcId::new(1)).pc > 0);
    }

    #[test]
    fn recovery_without_reset_resumes_in_place() {
        let plan = FaultPlan::crashes(vec![CrashFault {
            proc: ProcId::new(1),
            at_step: 3,
            recovery: Some(Recovery::resume(6)),
        }]);
        let mut f = Faulty::new(counting_machine(2), plan);
        let mut sched = FaultSched::new(RoundRobin::new());
        engine::run(&mut f, &mut sched, 6, &mut [], &mut stop::Never);
        let pc_at_crash = f.inner().local(ProcId::new(1)).pc;
        assert!(pc_at_crash > 0);
        engine::run(&mut f, &mut sched, 10, &mut [], &mut stop::Never);
        assert!(f.inner().local(ProcId::new(1)).pc > pc_at_crash);
    }

    #[test]
    fn fault_sched_never_schedules_crashed() {
        let plan = FaultPlan::crashes(vec![CrashFault {
            proc: ProcId::new(0),
            at_step: 0,
            recovery: None,
        }]);
        let mut f = Faulty::new(counting_machine(3), plan);
        let mut sched = FaultSched::new(RoundRobin::new());
        for _ in 0..50 {
            let p = sched.next(&f);
            assert_ne!(p, ProcId::new(0));
            f.step(p);
        }
        assert_eq!(f.inner().local(ProcId::new(0)).pc, 0);
    }

    #[test]
    fn empty_plan_is_transparent() {
        let mut plain = counting_machine(3);
        let mut f = Faulty::new(counting_machine(3), FaultPlan::none());
        let mut s1 = RoundRobin::new();
        let mut s2 = FaultSched::new(RoundRobin::new());
        engine::run(&mut plain, &mut s1, 20, &mut [], &mut stop::Never);
        engine::run(&mut f, &mut s2, 20, &mut [], &mut stop::Never);
        assert_eq!(plain.fingerprint(), f.inner().fingerprint());
        assert!(f.fault_events().is_empty());
    }

    #[test]
    fn fingerprint_reflects_crash_state() {
        let plan = FaultPlan::crashes(vec![CrashFault {
            proc: ProcId::new(1),
            at_step: 0,
            recovery: None,
        }]);
        let f = Faulty::new(counting_machine(2), plan);
        let g = Faulty::new(counting_machine(2), FaultPlan::none());
        // Same inner state, different crash sets: different fingerprints.
        assert_eq!(f.inner().fingerprint(), g.inner().fingerprint());
        assert_ne!(System::fingerprint(&f), System::fingerprint(&g));
    }

    #[test]
    fn seeded_plans_are_deterministic_and_spare_protected() {
        let leader = ProcId::new(2);
        let a = FaultPlan::seeded_crashes(5, &[leader], 7, 100);
        let b = FaultPlan::seeded_crashes(5, &[leader], 7, 100);
        let c = FaultPlan::seeded_crashes(5, &[leader], 8, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.crashes.iter().all(|f| f.proc != leader));
        for f in &a.crashes {
            if let Some(r) = f.recovery {
                assert!(r.at_step > f.at_step);
            }
        }
    }

    #[test]
    #[should_panic(expected = "crashes every processor")]
    fn all_crashed_at_boot_rejected() {
        let plan = FaultPlan::crashes(
            (0..2)
                .map(|i| CrashFault {
                    proc: ProcId::new(i),
                    at_step: 0,
                    recovery: None,
                })
                .collect(),
        );
        let _ = Faulty::new(counting_machine(2), plan);
    }

    #[test]
    fn starve_adversary_is_bounded_fair_and_starves_to_the_edge() {
        let n = 4;
        let k = 6;
        let target = ProcId::new(2);
        let m = counting_machine(n);
        let mut s = StarveAdversary::new(n, target, k);
        let picks: Vec<usize> = (0..240).map(|_| s.next(&m).index()).collect();
        // The target runs exactly at the window edges k-1, 2k-1, ...
        for (i, &p) in picks.iter().enumerate() {
            assert_eq!(
                p == target.index(),
                (i + 1) % k == 0,
                "step {i} picked p{p}"
            );
        }
        // The schedule is k-bounded fair for *every* processor.
        for w in picks.windows(k) {
            for p in 0..n {
                assert!(w.contains(&p), "window {w:?} misses p{p}");
            }
        }
        assert_eq!(Scheduler::<Machine>::kind(&s), ScheduleKind::BoundedFair(k));
    }

    #[test]
    fn try_crashes_rejects_duplicates_and_bad_recoveries() {
        let dup = FaultPlan::try_crashes(vec![
            CrashFault {
                proc: ProcId::new(1),
                at_step: 2,
                recovery: None,
            },
            CrashFault {
                proc: ProcId::new(1),
                at_step: 5,
                recovery: None,
            },
        ]);
        assert!(matches!(
            dup,
            Err(FaultPlanError::DuplicateProcessor {
                first: 2,
                second: 5,
                ..
            })
        ));
        let bad = FaultPlan::try_crashes(vec![CrashFault {
            proc: ProcId::new(0),
            at_step: 4,
            recovery: Some(Recovery::reset(4)),
        }]);
        assert!(matches!(
            bad,
            Err(FaultPlanError::RecoveryBeforeCrash {
                crash: 4,
                recovery: 4,
                ..
            })
        ));
        assert!(bad.unwrap_err().to_string().contains("strictly follow"));
        let ok = FaultPlan::try_crashes(vec![CrashFault {
            proc: ProcId::new(0),
            at_step: 4,
            recovery: Some(Recovery::resume(5)),
        }]);
        assert!(ok.is_ok());
    }

    #[test]
    fn with_replay_recoveries_converts_only_resets() {
        let plan = FaultPlan::crashes(vec![
            CrashFault {
                proc: ProcId::new(1),
                at_step: 1,
                recovery: Some(Recovery::reset(5)),
            },
            CrashFault {
                proc: ProcId::new(2),
                at_step: 2,
                recovery: Some(Recovery::resume(6)),
            },
            CrashFault {
                proc: ProcId::new(3),
                at_step: 3,
                recovery: None,
            },
        ]);
        let replayed = plan.with_replay_recoveries();
        let modes: Vec<Option<RecoveryMode>> = replayed
            .crashes
            .iter()
            .map(|c| c.recovery.map(|r| r.mode))
            .collect();
        assert_eq!(
            modes,
            vec![Some(RecoveryMode::Replay), Some(RecoveryMode::Resume), None]
        );
        assert!(replayed.needs_journal());
    }

    #[test]
    fn victim_count_flags_degenerate_single_processor_plans() {
        assert_eq!(FaultPlan::victim_count(1, &[]), 0);
        assert_eq!(FaultPlan::victim_count(5, &[]), 4);
        assert_eq!(FaultPlan::victim_count(5, &[ProcId::new(2)]), 4);
        assert_eq!(
            FaultPlan::victim_count(2, &[ProcId::new(0), ProcId::new(1)]),
            0
        );
        // The degenerate case: a seeded plan over one processor is empty.
        assert!(FaultPlan::seeded_crashes(1, &[], 7, 100).is_empty());
    }

    #[test]
    #[should_panic(expected = "use Faulty::with_journal")]
    fn replay_plan_without_journal_is_rejected() {
        let plan = FaultPlan::crashes(vec![CrashFault {
            proc: ProcId::new(1),
            at_step: 1,
            recovery: Some(Recovery::replay(5)),
        }]);
        let _ = Faulty::new(counting_machine(2), plan);
    }

    #[test]
    fn replay_recovery_restores_journaled_state() {
        // A program whose committed register is its step parity and whose
        // scratch register is never journaled.
        let g = Arc::new(topology::uniform_ring(2));
        let prog = Arc::new(FnProgram::new("journal-toy", |local, _ops| {
            local.pc += 1;
            local.set("scratch", Value::from(local.pc as i64));
            if local.pc % 3 == 0 {
                local.set("committed", Value::from(local.pc as i64));
            }
        }));
        let init = SystemInit::uniform(&g);
        let m = Machine::new(g, InstructionSet::S, prog, &init).unwrap();
        let plan = FaultPlan::crashes(vec![CrashFault {
            proc: ProcId::new(1),
            at_step: 9,
            recovery: Some(Recovery::replay(13)),
        }]);
        let mut f = Faulty::with_journal(m, plan, JournalSpec::registers(["committed"]));
        let mut sched = FaultSched::new(RoundRobin::new());
        engine::run(&mut f, &mut sched, 13, &mut [], &mut stop::Never);
        assert!(!f.is_crashed(ProcId::new(1)));
        let local = f.inner().local(ProcId::new(1)).clone();
        // p1 stepped at global steps 1,3,5,7 before crashing at 9, so its
        // pc reached 4 and "committed" last changed at pc 3: the journal
        // replay restores committed=3 and the pc recorded with it, while
        // the unjournaled scratch register is lost (back to boot: unset).
        assert_eq!(local.get("committed"), Value::from(3));
        assert_eq!(local.pc, 3);
        assert_eq!(local.get("scratch"), Value::Unit);
        assert!(matches!(
            f.fault_events(),
            [
                FaultEvent::Crashed { .. },
                FaultEvent::Replayed { entries: 1, .. }
            ]
        ));
        // And the processor keeps running from the replayed state.
        engine::run(&mut f, &mut sched, 6, &mut [], &mut stop::Never);
        assert!(f.inner().local(ProcId::new(1)).pc > 3);
    }

    #[test]
    fn replay_recovery_preserves_selected_flag() {
        // Select at pc 2, then crash with a reset-style reboot: without a
        // journal the flag is wiped; with replay it survives.
        let g = Arc::new(topology::uniform_ring(2));
        let init = SystemInit::uniform(&g);
        let make = |recovery: Recovery| {
            let m = Machine::new(
                Arc::clone(&g),
                InstructionSet::S,
                Arc::new(FnProgram::new("select-at-2", |local, _ops| {
                    local.pc += 1;
                    if local.pc == 2 {
                        local.selected = true;
                    }
                })),
                &init,
            )
            .unwrap();
            let plan = FaultPlan::crashes(vec![CrashFault {
                proc: ProcId::new(1),
                at_step: 6,
                recovery: Some(recovery),
            }]);
            (m, plan)
        };
        let (m, plan) = make(Recovery::reset(10));
        let mut wiped = Faulty::new(m, plan);
        let mut sched = FaultSched::new(RoundRobin::new());
        engine::run(&mut wiped, &mut sched, 12, &mut [], &mut stop::Never);
        assert!(!wiped.inner().local(ProcId::new(1)).selected);

        let (m, plan) = make(Recovery::replay(10));
        let mut journaled = Faulty::with_journal(m, plan, JournalSpec::selected_only());
        let mut sched = FaultSched::new(RoundRobin::new());
        engine::run(&mut journaled, &mut sched, 12, &mut [], &mut stop::Never);
        assert!(journaled.inner().local(ProcId::new(1)).selected);
    }

    #[test]
    fn journaled_faulted_runs_replay_byte_identically() {
        let build = || {
            let plan = FaultPlan::crashes(vec![CrashFault {
                proc: ProcId::new(1),
                at_step: 5,
                recovery: Some(Recovery::replay(11)),
            }]);
            Faulty::with_journal(counting_machine(3), plan, JournalSpec::selected_only())
        };
        let mut a = build();
        let mut sched = FaultSched::new(RoundRobin::new());
        let mut rec = crate::engine::trace::TraceRecorder::new("rr", "round-robin");
        engine::run(&mut a, &mut sched, 20, &mut [&mut rec], &mut stop::Never);
        let trace = rec.into_trace();
        let mut b = build();
        crate::engine::trace::replay(&mut b, &trace).unwrap();
        assert_eq!(System::fingerprint(&a), System::fingerprint(&b));
    }

    #[test]
    fn selection_survives_loser_crashes() {
        // The acceptance shape in miniature: select on a marked two-ring,
        // crash a loser mid-run, selection still lands uniquely on the
        // marked processor. The full cross-family sweep lives in the CLI.
        let g = Arc::new(topology::uniform_ring(3));
        let prog = Arc::new(FnProgram::new("mark-wins", |local, _ops| {
            if local.get("init") == Value::from(1) {
                local.selected = true;
            }
            local.pc += 1;
        }));
        let init = SystemInit::with_marked(&g, &[ProcId::new(0)]);
        let m = Machine::new(g, InstructionSet::S, prog, &init).unwrap();
        let plan = FaultPlan::crashes(vec![CrashFault {
            proc: ProcId::new(1),
            at_step: 2,
            recovery: None,
        }]);
        let mut f = Faulty::new(m, plan);
        let mut sched = FaultSched::new(RoundRobin::new());
        let report = engine::run(&mut f, &mut sched, 50, &mut [], &mut stop::AnySelected);
        assert_eq!(report.selected, vec![ProcId::new(0)]);
    }
}
