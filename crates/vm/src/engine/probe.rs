//! The composable observer stack of the execution engine.
//!
//! A [`Probe`] watches a running system from the outside: the engine calls
//! [`Probe::observe`] after every step and [`Probe::finish`] once when the
//! run stops. Probes either *measure* (metrics, traces, similarity
//! statistics) or *check* (returning a [`Violation`] aborts the run) — the
//! two requirements of the selection problem (§3) ship as the built-in
//! [`UniquenessMonitor`] and [`StabilityMonitor`] probes.

use crate::engine::System;
use crate::{LocalState, Machine};
use simsym_graph::ProcId;
use std::fmt;

/// A violation of a monitored invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Violation {
    /// More than one processor is selected — breaks the **Uniqueness**
    /// requirement of the selection problem (§3).
    Uniqueness {
        /// Step at which the violation was observed.
        step: u64,
        /// The selected processors.
        selected: Vec<ProcId>,
    },
    /// A selected processor became unselected — breaks **Stability** (§3).
    Stability {
        /// Step at which the violation was observed.
        step: u64,
        /// The processor that lost its selection.
        proc: ProcId,
    },
    /// A domain-specific violation reported by a custom probe.
    Custom {
        /// Step at which the violation was observed.
        step: u64,
        /// Human-readable description.
        description: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Uniqueness { step, selected } => {
                write!(
                    f,
                    "uniqueness violated at step {step}: selected = {selected:?}"
                )
            }
            Violation::Stability { step, proc } => {
                write!(
                    f,
                    "stability violated at step {step}: {proc} lost selection"
                )
            }
            Violation::Custom { step, description } => {
                write!(f, "violation at step {step}: {description}")
            }
        }
    }
}

/// Why a run stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The step budget was exhausted.
    MaxSteps,
    /// The stop condition was met.
    Condition,
    /// A probe reported a violation.
    Violation,
}

/// The outcome of an engine run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Steps executed in this run.
    pub steps: u64,
    /// Processors selected when the run stopped.
    pub selected: Vec<ProcId>,
    /// First violation observed, if any.
    pub violation: Option<Violation>,
    /// Why the run stopped.
    pub stop: StopReason,
}

impl RunReport {
    /// Whether exactly one processor is selected and no violation occurred.
    pub fn is_clean_selection(&self) -> bool {
        self.violation.is_none() && self.selected.len() == 1
    }
}

/// Observes the system after every step of an engine run.
///
/// The type parameter is the system being observed; it defaults to the
/// shared-variable [`Machine`] so existing probe implementations read
/// naturally. Probes over any [`System`] work for the message-passing
/// machine too.
pub trait Probe<S: ?Sized = Machine> {
    /// Called after `just_stepped` executed a step; returning a violation
    /// aborts the run.
    fn observe(&mut self, system: &S, just_stepped: ProcId) -> Option<Violation>;

    /// Called once when the run stops, with the final system state.
    fn finish(&mut self, system: &S) {
        let _ = system;
    }
}

/// Records the schedule: every processor stepped, in order. The loop
/// stops calling probes at the first violation, so a recorder must come
/// before any probe that can abort the run.
impl<S: ?Sized> Probe<S> for Vec<ProcId> {
    fn observe(&mut self, _system: &S, just_stepped: ProcId) -> Option<Violation> {
        self.push(just_stepped);
        None
    }
}

/// Monitors the **Uniqueness** requirement: at most one selected processor.
#[derive(Clone, Debug, Default)]
pub struct UniquenessMonitor;

impl<S: System + ?Sized> Probe<S> for UniquenessMonitor {
    fn observe(&mut self, system: &S, _just_stepped: ProcId) -> Option<Violation> {
        let selected = system.selected();
        if selected.len() > 1 {
            Some(Violation::Uniqueness {
                step: system.steps(),
                selected,
            })
        } else {
            None
        }
    }
}

/// Monitors the **Stability** requirement: once selected, always selected.
#[derive(Clone, Debug, Default)]
pub struct StabilityMonitor {
    selected_before: Vec<ProcId>,
}

impl<S: System + ?Sized> Probe<S> for StabilityMonitor {
    fn observe(&mut self, system: &S, _just_stepped: ProcId) -> Option<Violation> {
        let selected = system.selected();
        for &p in &self.selected_before {
            if !selected.contains(&p) {
                return Some(Violation::Stability {
                    step: system.steps(),
                    proc: p,
                });
            }
        }
        self.selected_before = selected;
        None
    }
}

/// Statistics collector for the *similarity* definition: counts, at the end
/// of every scheduling round, whether all processors within each declared
/// class have identical local states.
///
/// The paper's definition (§3): a schedule causes processors to behave
/// similarly if it brings them to the same state at the same time
/// *infinitely often*. Over a finite run we measure the coincidence rate at
/// round boundaries; a round-robin schedule over similar processors yields
/// rate 1.
#[derive(Clone, Debug)]
pub struct SimilarityObserver {
    classes: Vec<Vec<ProcId>>,
    round_len: u64,
    /// Rounds where every class was internally state-equal.
    pub coincidences: u64,
    /// Rounds where some class differed internally.
    pub divergences: u64,
}

impl SimilarityObserver {
    /// Observes the given processor classes at every multiple of
    /// `round_len` steps.
    ///
    /// # Panics
    ///
    /// Panics if `round_len == 0`.
    pub fn new(classes: Vec<Vec<ProcId>>, round_len: u64) -> Self {
        assert!(round_len > 0, "round length must be positive");
        SimilarityObserver {
            classes,
            round_len,
            coincidences: 0,
            divergences: 0,
        }
    }

    /// Fraction of observed rounds with full coincidence (`None` before the
    /// first round completes).
    pub fn coincidence_rate(&self) -> Option<f64> {
        let total = self.coincidences + self.divergences;
        (total > 0).then(|| self.coincidences as f64 / total as f64)
    }

    fn classes_coincide(&self, machine: &Machine) -> bool {
        self.classes.iter().all(|class| {
            let mut states = class.iter().map(|&p| machine.local(p));
            match states.next() {
                None => true,
                Some(first) => states.all(|s| states_equal(first, s)),
            }
        })
    }
}

fn states_equal(a: &LocalState, b: &LocalState) -> bool {
    a == b
}

impl Probe<Machine> for SimilarityObserver {
    fn observe(&mut self, machine: &Machine, _just_stepped: ProcId) -> Option<Violation> {
        if machine.steps().is_multiple_of(self.round_len) {
            if self.classes_coincide(machine) {
                self.coincidences += 1;
            } else {
                self.divergences += 1;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_display() {
        let v = Violation::Uniqueness {
            step: 3,
            selected: vec![ProcId::new(0), ProcId::new(1)],
        };
        assert!(v.to_string().contains("uniqueness"));
        let v = Violation::Stability {
            step: 1,
            proc: ProcId::new(0),
        };
        assert!(v.to_string().contains("stability"));
        let v = Violation::Custom {
            step: 0,
            description: "adjacent philosophers both eating".into(),
        };
        assert!(v.to_string().contains("philosophers"));
    }

    #[test]
    #[should_panic(expected = "round length")]
    fn zero_round_length_rejected() {
        let _ = SimilarityObserver::new(vec![], 0);
    }
}
