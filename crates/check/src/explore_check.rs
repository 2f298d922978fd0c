//! Reduction-aware exhaustive model checking: the `simsym verify` backbone.
//!
//! Wraps [`simsym_vm::explore_with`] in the diagnostic vocabulary of this
//! crate. A [`Reduction`] picks which state-space reduction the explorer
//! composes — the similarity quotient of §3 (canonicalize modulo
//! `Aut(N, state₀)`), persistent-set partial-order reduction, both, or the
//! identity oracle — and [`check_exploration`] turns the resulting
//! [`ExploreResult`] into `DYN-EXPLORE-*` diagnostics:
//!
//! * [`codes::DYN_EXPLORE_UNIQ`] (error) — some reachable state has two or
//!   more selected processors; the witness schedule is attached.
//! * machine-model violations surfaced during exploration are mapped onto
//!   the same codes the per-step dynamic checkers use
//!   ([`codes::DYN_ATOMICITY`], [`codes::DYN_ISA_OP`],
//!   [`codes::DYN_GARBLED_REG`]).
//! * [`codes::DYN_EXPLORE_TRUNCATED`] (warning) — a budget was hit, so
//!   everything above is a lower bound, not a certificate.
//! * [`codes::DYN_EXPLORE_CERTIFIED`] (info) — the reachable space was
//!   exhausted: Uniqueness holds *up to depth d modulo `Aut(N)`*.
//!
//! [`diverged_diagnostics`] diffs a reduced run against the identity
//! oracle ([`codes::DYN_EXPLORE_DIVERGED`]) — the runtime form of the
//! soundness property the `proptest_reduction` tests establish.
//!
//! POR's interference relation is a property of the program: every
//! processor runs the same text, so the variables one may ever address
//! follow from the program's [`ProgramSpec`](simsym_vm::ProgramSpec) (see
//! [`por_footprints`]).

use crate::diag::{codes, Diagnostic, Severity, Span};
use simsym_core::similarity_reducer;
use simsym_graph::{SystemGraph, VarId};
use simsym_vm::{
    explore_with, ExploreConfig, ExploreResult, Identity, Machine, Por, PortSet, Reducer,
    SystemInit,
};

/// The reduction modes `simsym verify --reduce` accepts, in CLI order.
pub const REDUCTION_NAMES: &[&str] = &["none", "quotient", "por", "both"];

/// Which state-space reduction an exploration composes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Reduction {
    /// Identity oracle: every distinct raw state is kept.
    None,
    /// Similarity-quotient canonicalization modulo `Aut(N, state₀)`.
    Quotient,
    /// Persistent-set partial-order reduction over op targets.
    Por,
    /// POR running over quotient canonicalization.
    Both,
}

impl Reduction {
    /// All modes, in the same order as [`REDUCTION_NAMES`].
    pub const ALL: [Reduction; 4] = [
        Reduction::None,
        Reduction::Quotient,
        Reduction::Por,
        Reduction::Both,
    ];

    /// Parses a CLI name (see [`REDUCTION_NAMES`]).
    pub fn parse(name: &str) -> Option<Reduction> {
        match name {
            "none" => Some(Reduction::None),
            "quotient" => Some(Reduction::Quotient),
            "por" => Some(Reduction::Por),
            "both" => Some(Reduction::Both),
            _ => None,
        }
    }

    /// The CLI name of this mode.
    pub fn label(self) -> &'static str {
        match self {
            Reduction::None => "none",
            Reduction::Quotient => "quotient",
            Reduction::Por => "por",
            Reduction::Both => "both",
        }
    }

    /// Builds the reducer for `graph` started from `init`, with POR over
    /// the all-ports relation (every processor's whole `n-nbr` row). The
    /// quotient modes compute `Aut(N, state₀)` through
    /// [`simsym_core::similarity_group`], which cross-asserts Theorem 10
    /// (orbits refine similarity) on the way.
    pub fn build(self, graph: &SystemGraph, init: &SystemInit) -> Box<dyn Reducer> {
        self.build_with(graph, init, || all_ports(graph))
    }

    /// [`Reduction::build`] with POR over `footprints`, which only the
    /// POR modes compute.
    fn build_with(
        self,
        graph: &SystemGraph,
        init: &SystemInit,
        footprints: impl FnOnce() -> Vec<Vec<VarId>>,
    ) -> Box<dyn Reducer> {
        match self {
            Reduction::None => Box::new(Identity),
            Reduction::Quotient => Box::new(similarity_reducer(graph, init)),
            Reduction::Por => Box::new(Por::new(graph, &footprints(), Identity)),
            Reduction::Both => Box::new(Por::new(
                graph,
                &footprints(),
                similarity_reducer(graph, init),
            )),
        }
    }
}

/// Every processor's whole `n-nbr` row: the footprint of a program that
/// may use any port.
fn all_ports(graph: &SystemGraph) -> Vec<Vec<VarId>> {
    graph
        .processors()
        .map(|p| PortSet::All.resolve(graph, p))
        .collect()
}

/// The variables each processor of `machine` may ever address, as POR's
/// interference relation reads them: from the program's spec
/// ([`machine_footprints`](crate::dataflow::machine_footprints)) when it
/// has a well-formed one, else every processor's whole row.
pub fn por_footprints(machine: &Machine) -> Vec<Vec<VarId>> {
    crate::dataflow::machine_footprints(machine).unwrap_or_else(|_| all_ports(machine.graph()))
}

/// Whether `footprints` leave some processor a strictly smaller
/// interference row than its adjacency row — that is, whether POR runs on
/// a narrower relation than the all-ports one.
pub fn narrows_interference(graph: &SystemGraph, footprints: &[Vec<VarId>]) -> bool {
    graph.processors().any(|p| {
        graph
            .processor_neighbors(p)
            .iter()
            .any(|v| !footprints[p.index()].contains(v))
    })
}

/// Explores `machine` exhaustively under `reduction` and reports the
/// outcome as diagnostics. `init` must be the initial state `machine` was
/// built from (it colors the automorphism search). The POR modes take
/// their interference relation from [`por_footprints`].
pub fn check_exploration(
    machine: &Machine,
    init: &SystemInit,
    cfg: ExploreConfig,
    reduction: Reduction,
) -> (ExploreResult, Vec<Diagnostic>) {
    let mut reducer = reduction.build_with(machine.graph(), init, || por_footprints(machine));
    let result = explore_with(machine, cfg, reducer.as_mut());
    let diags = explore_diagnostics(&result, cfg, reduction);
    (result, diags)
}

/// Renders an [`ExploreResult`] as `DYN-EXPLORE-*` diagnostics without
/// re-running anything.
pub fn explore_diagnostics(
    result: &ExploreResult,
    cfg: ExploreConfig,
    reduction: Reduction,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mode = reduction.label();

    if let Some(schedule) = &result.uniqueness_violation {
        let witness: Vec<String> = schedule.iter().map(|p| format!("step {p}")).collect();
        let span = schedule
            .last()
            .map(|p| Span::proc(*p).with_step(schedule.len() as u64))
            .unwrap_or_else(Span::none);
        out.push(
            Diagnostic::new(
                Severity::Error,
                codes::DYN_EXPLORE_UNIQ,
                span,
                format!(
                    "exhaustive exploration (reduce={mode}) reached a state with two or more \
                     selected processors after {} steps — Uniqueness is violated",
                    schedule.len()
                ),
            )
            .with_witness(witness),
        );
    }

    for kind in &result.violation_kinds {
        let (code, what) = violation_kind_code(kind);
        out.push(Diagnostic::new(
            Severity::Error,
            code,
            Span::none(),
            format!("exhaustive exploration (reduce={mode}) can reach {what}"),
        ));
    }

    if result.group_capped {
        out.push(Diagnostic::new(
            Severity::Info,
            codes::DYN_EXPLORE_GROUP_CAPPED,
            Span::none(),
            format!(
                "|Aut(N, state₀)| exceeds the enumeration cap ({}); the quotient fell back \
                 to the identity-only group — group order 1 here means \"unenumerable\", \
                 not \"asymmetric\", and reduce={mode} performed no symmetry reduction",
                simsym_vm::reduce::GROUP_CAP
            ),
        ));
    }

    if result.truncated {
        out.push(Diagnostic::new(
            Severity::Warning,
            codes::DYN_EXPLORE_TRUNCATED,
            Span::none(),
            format!(
                "exploration (reduce={mode}) hit its budget (depth {}, {} states): \
                 {} states visited is a lower bound, not a certificate",
                cfg.max_depth, cfg.max_states, result.states_visited
            ),
        ));
    } else if result.uniqueness_violation.is_none() && result.violation_kinds.is_empty() {
        out.push(Diagnostic::new(
            Severity::Info,
            codes::DYN_EXPLORE_CERTIFIED,
            Span::none(),
            format!(
                "Uniqueness verified up to depth {} modulo Aut(N) of order {}: \
                 {} canonical states ({} arrivals), reduce={mode}",
                cfg.max_depth, result.group_order, result.states_visited, result.states_seen
            ),
        ));
    }

    out
}

/// Maps a [`simsym_vm::ModelViolation::kind_name`] label onto the same
/// diagnostic code the per-step dynamic checkers use, with a short
/// description. Unknown (future) kinds surface under the generic
/// exploration code rather than vanishing.
fn violation_kind_code(kind: &str) -> (&'static str, String) {
    match kind {
        "second-shared-op" => (
            codes::DYN_ATOMICITY,
            "a second shared operation inside one atomic step".to_owned(),
        ),
        "op-not-in-isa" => (
            codes::DYN_ISA_OP,
            "an operation outside the declared instruction set".to_owned(),
        ),
        "garbled-register" => (
            codes::DYN_GARBLED_REG,
            "a garbled or missing local register".to_owned(),
        ),
        other => (
            codes::DYN_ISA_OP,
            format!("an unmapped machine-model violation: {other}"),
        ),
    }
}

/// Diffs a reduced exploration against the identity oracle. Empty when
/// they agree (or when either run was truncated, where outcome sets are
/// legitimately incomparable); otherwise one
/// [`codes::DYN_EXPLORE_DIVERGED`] error listing every mismatch.
pub fn diverged_diagnostics(
    baseline: &ExploreResult,
    reduced: &ExploreResult,
    mode: Reduction,
) -> Vec<Diagnostic> {
    if baseline.truncated || reduced.truncated {
        return Vec::new();
    }
    let mut mismatches = Vec::new();
    if reduced.outcomes != baseline.outcomes {
        mismatches.push(format!(
            "outcome sets differ: {} selected-sets reduced vs {} under identity",
            reduced.outcomes.len(),
            baseline.outcomes.len()
        ));
    }
    if reduced.has_double_selection() != baseline.has_double_selection() {
        mismatches.push(format!(
            "double-selection verdicts differ: {} reduced vs {} under identity",
            reduced.has_double_selection(),
            baseline.has_double_selection()
        ));
    }
    if reduced.violation_kinds != baseline.violation_kinds {
        mismatches.push(format!(
            "violation kinds differ: {:?} reduced vs {:?} under identity",
            reduced.violation_kinds, baseline.violation_kinds
        ));
    }
    if reduced.states_visited > baseline.states_visited {
        mismatches.push(format!(
            "reduced run visited MORE states than the identity oracle ({} > {})",
            reduced.states_visited, baseline.states_visited
        ));
    }
    if mismatches.is_empty() {
        return Vec::new();
    }
    vec![Diagnostic::new(
        Severity::Error,
        codes::DYN_EXPLORE_DIVERGED,
        Span::none(),
        format!(
            "reduce={} disagreed with the identity-reduction oracle — \
             a reducer bug, not a property of the explored program",
            mode.label()
        ),
    )
    .with_witness(mismatches)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{fixture_machine, grab_machine};
    use simsym_graph::topology;
    use std::sync::Arc;

    #[test]
    fn reduction_names_round_trip() {
        for (name, mode) in REDUCTION_NAMES.iter().zip(Reduction::ALL) {
            assert_eq!(Reduction::parse(name), Some(mode));
            assert_eq!(mode.label(), *name);
        }
        assert_eq!(Reduction::parse("bogus"), None);
    }

    #[test]
    fn grab_fixture_yields_a_uniqueness_error_under_every_reduction() {
        let g = Arc::new(topology::uniform_ring(3));
        let init = SystemInit::uniform(&g);
        let cfg = ExploreConfig::default();
        for mode in Reduction::ALL {
            let m = grab_machine(g.clone(), &init);
            let (result, diags) = check_exploration(&m, &init, cfg, mode);
            assert!(result.has_double_selection(), "mode {}", mode.label());
            assert!(
                diags.iter().any(|d| d.code == codes::DYN_EXPLORE_UNIQ
                    && d.severity == Severity::Error
                    && !d.witness.is_empty()),
                "mode {}",
                mode.label()
            );
        }
    }

    #[test]
    fn uniqueness_witness_replays_to_a_double_selection() {
        let g = Arc::new(topology::uniform_ring(3));
        let init = SystemInit::uniform(&g);
        let m = grab_machine(g.clone(), &init);
        let (result, _) = check_exploration(&m, &init, ExploreConfig::default(), Reduction::Both);
        let mut replay = grab_machine(g, &init);
        for p in result.uniqueness_violation.expect("grab double-selects") {
            replay.step(p);
        }
        assert!(replay.selected_count() >= 2);
    }

    #[test]
    fn greedy_fixture_maps_model_violations_onto_checker_codes() {
        let g = Arc::new(topology::figure1());
        let init = SystemInit::uniform(&g);
        let m = fixture_machine("greedy", g, &init).expect("known fixture");
        let cfg = ExploreConfig {
            max_depth: 6,
            ..ExploreConfig::default()
        };
        let (result, diags) = check_exploration(&m, &init, cfg, Reduction::None);
        assert!(result.violation_kinds.contains("second-shared-op"));
        assert!(diags.iter().any(|d| d.code == codes::DYN_ATOMICITY));
    }

    #[test]
    fn quiet_system_earns_a_certificate_mentioning_the_group_order() {
        let g = Arc::new(topology::uniform_ring(3));
        let init = SystemInit::uniform(&g);
        let prog: Arc<dyn simsym_vm::Program> = Arc::new(simsym_vm::IdleProgram);
        let m = simsym_vm::Machine::new(g, simsym_vm::InstructionSet::Q, prog, &init)
            .expect("idle machine");
        let (result, diags) =
            check_exploration(&m, &init, ExploreConfig::default(), Reduction::Quotient);
        assert!(!result.truncated);
        assert_eq!(result.group_order, 3);
        let cert = diags
            .iter()
            .find(|d| d.code == codes::DYN_EXPLORE_CERTIFIED)
            .expect("certified");
        assert_eq!(cert.severity, Severity::Info);
        assert!(cert.message.contains("modulo Aut(N) of order 3"));
    }

    #[test]
    fn capped_group_surfaces_an_info_diagnostic_instead_of_feigning_asymmetry() {
        // star(8) under a uniform init has |Aut(N, state₀)| = 8! = 40320 >
        // GROUP_CAP, so the quotient silently used to degrade to the
        // identity group and certify "modulo Aut(N) of order 1". The cap
        // must now be reported.
        let g = Arc::new(topology::star(8));
        let init = SystemInit::uniform(&g);
        let prog: Arc<dyn simsym_vm::Program> = Arc::new(simsym_vm::IdleProgram);
        let m = simsym_vm::Machine::new(g, simsym_vm::InstructionSet::Q, prog, &init)
            .expect("idle machine");
        let (result, diags) =
            check_exploration(&m, &init, ExploreConfig::default(), Reduction::Quotient);
        assert!(result.group_capped, "8! exceeds GROUP_CAP");
        assert_eq!(result.group_order, 1, "identity fallback");
        let capped = diags
            .iter()
            .find(|d| d.code == codes::DYN_EXPLORE_GROUP_CAPPED)
            .expect("cap diagnostic");
        assert_eq!(capped.severity, Severity::Info);
        assert!(capped.message.contains("unenumerable"));
        // An under-cap group stays silent.
        let g = Arc::new(topology::uniform_ring(3));
        let init = SystemInit::uniform(&g);
        let prog: Arc<dyn simsym_vm::Program> = Arc::new(simsym_vm::IdleProgram);
        let m = simsym_vm::Machine::new(g, simsym_vm::InstructionSet::Q, prog, &init)
            .expect("idle machine");
        let (result, diags) =
            check_exploration(&m, &init, ExploreConfig::default(), Reduction::Quotient);
        assert!(!result.group_capped);
        assert!(!diags
            .iter()
            .any(|d| d.code == codes::DYN_EXPLORE_GROUP_CAPPED));
    }

    #[test]
    fn truncated_runs_warn_instead_of_certifying() {
        let g = Arc::new(topology::uniform_ring(3));
        let init = SystemInit::uniform(&g);
        let m = grab_machine(g, &init);
        let cfg = ExploreConfig {
            max_states: 2,
            ..ExploreConfig::default()
        };
        let (result, diags) = check_exploration(&m, &init, cfg, Reduction::None);
        assert!(result.truncated);
        assert!(diags
            .iter()
            .any(|d| d.code == codes::DYN_EXPLORE_TRUNCATED && d.severity == Severity::Warning));
        assert!(!diags.iter().any(|d| d.code == codes::DYN_EXPLORE_CERTIFIED));
    }

    #[test]
    fn grab_por_prunes_to_the_pinned_counts_and_keeps_the_oracle_verdicts() {
        // grab only ever touches its first-named neighbour, so its spec
        // narrows each processor's interference row to one variable; the
        // pinned counts are what that narrower relation prunes to.
        let g = Arc::new(topology::uniform_ring(3));
        let init = SystemInit::uniform(&g);
        let cfg = ExploreConfig::default();
        let m = grab_machine(g, &init);
        assert!(narrows_interference(m.graph(), &por_footprints(&m)));
        let (oracle, _) = check_exploration(&m, &init, cfg, Reduction::None);
        for (mode, states) in [(Reduction::Por, 14), (Reduction::Both, 10)] {
            let (reduced, diags) = check_exploration(&m, &init, cfg, mode);
            assert_eq!(reduced.states_visited, states, "mode {}", mode.label());
            assert!(!reduced.truncated);
            assert_eq!(reduced.outcomes, oracle.outcomes, "mode {}", mode.label());
            assert!(reduced.has_double_selection() && oracle.has_double_selection());
            assert_eq!(reduced.violation_kinds, oracle.violation_kinds);
            assert!(diags.iter().any(|d| d.code == codes::DYN_EXPLORE_UNIQ));
            assert!(diverged_diagnostics(&oracle, &reduced, mode).is_empty());
        }
    }

    #[test]
    fn a_program_without_a_spec_keeps_the_all_ports_relation() {
        let g = Arc::new(topology::uniform_ring(3));
        let init = SystemInit::uniform(&g);
        let prog: Arc<dyn simsym_vm::Program> =
            Arc::new(simsym_vm::FnProgram::new("spec-less", |_, _| {}));
        let m = simsym_vm::Machine::new(g.clone(), simsym_vm::InstructionSet::Q, prog, &init)
            .expect("spec-less machine");
        assert_eq!(por_footprints(&m), all_ports(&g));
        assert!(!narrows_interference(&g, &por_footprints(&m)));
    }

    #[test]
    fn a_fabricated_mismatch_is_reported_as_divergence() {
        let baseline = ExploreResult::default();
        let mut reduced = ExploreResult::default();
        reduced.outcomes.insert(vec![]);
        let diags = diverged_diagnostics(&baseline, &reduced, Reduction::Quotient);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::DYN_EXPLORE_DIVERGED);
        assert!(diags[0].witness.iter().any(|w| w.contains("outcome sets")));

        // Truncation makes the comparison vacuous.
        let truncated = ExploreResult {
            truncated: true,
            ..ExploreResult::default()
        };
        assert!(diverged_diagnostics(&truncated, &reduced, Reduction::Quotient).is_empty());
    }
}
