//! # simsym-check — static lints and dynamic checkers
//!
//! A checker subsystem over the paper's systems, in two halves.
//!
//! **Static lints** ([`static_check`]) examine a [`SystemGraph`] /
//! topology spec before anything executes: bipartiteness and edge-table
//! well-formedness of the spec format, unreachable shared variables,
//! instruction-set vs variable-kind mismatches, and cross-validation of
//! the similarity labeling against Algorithm 1.
//!
//! **Dynamic checkers** ([`lockset`], [`lock_order`], [`discipline`],
//! [`isa_check`], [`fault_tolerance`]) are engine [`Probe`]s consuming the per-step op stream
//! ([`OpRecord`]): an Eraser-style lockset race detector for L/L*, lock
//! discipline checks, a hold-and-wait lock-order graph with deadlock cycle
//! detection (and DOT export), and ISA conformance against the declared
//! instruction set `I`.
//!
//! All findings share the [`Diagnostic`] type with stable codes
//! ([`diag::codes`]), deterministic ordering, and a hand-rolled JSON
//! encoding matching the engine's trace codec. [`CheckerSuite`] bundles
//! the dynamic checkers for one run; [`lint_sweep`] fans them across the
//! engine's deterministic schedule sweep.
//!
//! [`SystemGraph`]: simsym_graph::SystemGraph
//! [`Probe`]: simsym_vm::Probe
//! [`OpRecord`]: simsym_vm::OpRecord

pub mod dataflow;
pub mod diag;
pub mod discipline;
pub mod explore_check;
pub mod fault_tolerance;
pub mod fixtures;
pub mod isa_check;
pub mod lock_order;
mod locks;
pub mod lockset;
pub mod static_check;
pub mod suite;

pub use dataflow::{
    analyze_machine, analyze_spec, machine_footprints, static_footprints, StaticLockGraph,
};
pub use diag::{CheckReport, Diagnostic, Severity, Span};
pub use discipline::DisciplineChecker;
pub use explore_check::{
    check_exploration, diverged_diagnostics, explore_diagnostics, narrows_interference,
    por_footprints, Reduction, REDUCTION_NAMES,
};
pub use fault_tolerance::FaultToleranceChecker;
pub use fixtures::{fixture_machine, FIXTURE_NAMES};
pub use isa_check::IsaChecker;
pub use lock_order::{LockOrderChecker, LockOrderGraph};
pub use locks::HeldLocks;
pub use lockset::LocksetChecker;
pub use static_check::{lint_graph, lint_labeling, lint_machine, lint_spec};
pub use suite::{lint_sweep, run_dynamic, CheckerSuite, DynamicRun, SweepLintReport};
