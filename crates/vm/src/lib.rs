//! # simsym-vm
//!
//! An executable realization of the machine model of Johnson & Schneider,
//! *Symmetry and Similarity in Distributed Systems* (PODC 1985).
//!
//! A system `Σ = (N, state₀, I, SP)` is simulated as a [`Machine`]: the
//! network `N` comes from `simsym-graph`, `state₀` is a [`SystemInit`],
//! `I` is an [`InstructionSet`] (**S** read/write, **L** + lock/unlock,
//! **Q** peek/post, **L\*** extended locking), and `SP` is realized by a
//! [`Scheduler`]. Every processor executes the same [`Program`]; an atomic
//! step is one instruction, and the schedule decides who steps.
//!
//! On top of the machine sits the [`engine`] — the single run loop shared
//! by every machine model in the workspace:
//!
//! * [`engine::run`] drives any [`engine::System`] under a [`Scheduler`],
//!   observed by a stack of [`Probe`]s and stopped by a declarative
//!   [`engine::StopCondition`]; [`run`]/[`run_until`] are thin façades over
//!   it. Built-in probes cover **Uniqueness** and **Stability** (the two
//!   requirements of the selection problem, §3), a [`SimilarityObserver`]
//!   measuring state coincidence, step/op/contention metrics
//!   ([`engine::metrics`]) and replayable JSON traces ([`engine::trace`]);
//! * [`engine::sweep`] fans a system over many seeds and schedule classes
//!   on scoped threads and aggregates selection statistics;
//! * schedules: [`RoundRobin`] (the proofs' workhorse), [`RandomFair`],
//!   [`BoundedFairRandom`], [`FixedSequence`], [`Excluding`] (crashed
//!   processors) and closure-driven [`Adversary`] schedules;
//! * [`explore`] — exhaustive schedule-space enumeration, and
//!   [`find_double_selection`] — the constructive Theorem-1 adversary that
//!   assembles the `ε · p · ρ` double-selection schedule.
//!
//! ```
//! use simsym_vm::{Machine, InstructionSet, SystemInit, FnProgram, RoundRobin, run};
//! use simsym_graph::topology;
//! use std::sync::Arc;
//!
//! // Two processors sharing one variable (Fig. 1), each counting steps.
//! let g = Arc::new(topology::figure1());
//! let prog = Arc::new(FnProgram::new("count", |local, _ops| { local.pc += 1; }));
//! let init = SystemInit::uniform(&g);
//! let mut m = Machine::new(g, InstructionSet::S, prog, &init)?;
//! let report = run(&mut m, &mut RoundRobin::new(), 10, &mut []);
//! assert_eq!(report.steps, 10);
//! # Ok::<(), simsym_vm::MachineError>(())
//! ```

mod digest;
pub mod engine;
mod explore;
pub mod faults;
mod isa;
mod journal;
pub mod json;
mod machine;
mod program;
pub mod reduce;
pub mod repro;
mod schedule;
mod state;
mod value;

pub use digest::DigestHasher;
pub use engine::compat::{run, run_until};
/// Historical name for [`Probe`]: observers were called monitors before the
/// engine unified the run loops. External impls keep compiling.
pub use engine::probe::Probe as Monitor;
pub use engine::probe::{
    RunReport, SimilarityObserver, StabilityMonitor, StopReason, UniquenessMonitor, Violation,
};
pub use engine::{Probe, System};
pub use faults::{
    CrashFault, FaultEvent, FaultPlan, FaultPlanError, FaultSched, FaultView, FaultableSystem,
    Faulty, Recovery, RecoveryMode, StarveAdversary,
};
pub use journal::JournalSpec;
pub use repro::{shrink_counterexample, ReproArtifact, ReproError, ShrinkStats, Shrunk};

pub use explore::{
    explore, explore_reference, explore_with, find_double_selection, is_quiescent, DoubleSelection,
    ExploreConfig, ExploreResult,
};
pub use isa::InstructionSet;
pub use machine::{
    Machine, MachineError, ModelViolation, OpEnv, OpKind, OpRecord, PeekView, StepOp, StepUndo,
};
pub use program::{FnProgram, IdleProgram, OpFootprint, PhaseSpec, PortSet, Program, ProgramSpec};
pub use reduce::{Identity, Por, ProbedStep, Reducer, SimilarityQuotient, VisitedSet};
pub use schedule::{
    Adversary, BoundedFairRandom, Excluding, FixedSequence, RandomFair, RoundRobin, ScheduleKind,
    Scheduler,
};
pub use state::{LocalState, RegId, SharedVar, SystemInit};
pub use value::{Value, ValueId};
