//! Static dataflow analyses over [`ProgramSpec`]s — defects caught with
//! zero VM steps executed.
//!
//! The paper's results hinge on what a protocol *can* do, which is a
//! property of its program text. This module tree analyzes the
//! declarative [`ProgramSpec`] a [`Program`](simsym_vm::Program)
//! optionally exposes:
//!
//! * [`mod@cfg`] — lowering a spec into a control-flow graph with interned
//!   registers, plus per-processor port resolution;
//! * [`solver`] — the monotone-framework worklist solver over finite
//!   powerset lattices;
//! * [`uninit`] — must-initialize analysis
//!   ([`STAT-UNINIT-READ`](crate::diag::codes::STAT_UNINIT_READ));
//! * [`deadphase`] — unreachable phases
//!   ([`STAT-DEAD-PHASE`](crate::diag::codes::STAT_DEAD_PHASE));
//! * [`symmetry`] — program text or initial values distinguishing
//!   similar processors
//!   ([`STAT-SYM-BREAK`](crate::diag::codes::STAT_SYM_BREAK));
//! * [`lockgraph`] — the potential lock-acquisition order and its cycles
//!   ([`STAT-LOCK-CYCLE`](crate::diag::codes::STAT_LOCK_CYCLE));
//! * [`interference`] — per-processor may-touch footprints feeding
//!   [`Por::new`](simsym_vm::Por::new).
//!
//! Every analysis is sound *relative to the spec*: the spec author
//! vouches that it over-approximates the program's behaviour (see
//! [`ProgramSpec`]), and the analyses only ever widen from there.

pub mod cfg;
pub mod deadphase;
pub mod interference;
pub mod lockgraph;
pub mod solver;
pub mod symmetry;
pub mod uninit;

pub use cfg::{RegUniverse, SpecCfg};
pub use interference::static_footprints;
pub use lockgraph::StaticLockGraph;
pub use solver::{solve_forward, BitSet, Meet};

use crate::diag::{sort_diagnostics, Diagnostic};
use simsym_graph::SystemGraph;
use simsym_vm::{InstructionSet, Machine, ProgramSpec, SystemInit};

/// Runs all four static analyses on `spec` for a machine shaped
/// `(graph, isa, init)`, returning deterministically sorted diagnostics.
///
/// # Errors
///
/// Returns the validation message when `spec` is structurally malformed.
pub fn analyze_spec(
    graph: &SystemGraph,
    isa: InstructionSet,
    init: &SystemInit,
    spec: &ProgramSpec,
) -> Result<Vec<Diagnostic>, String> {
    let regs = RegUniverse::from_spec(spec);
    let cfg = SpecCfg::build(spec, &regs)?;
    let mut diags = uninit::uninit_reads(spec, &regs, &cfg);
    diags.extend(deadphase::dead_phases(spec, &cfg));
    diags.extend(symmetry::symmetry_breaks(spec, init));
    if isa.allows_lock() {
        diags.extend(StaticLockGraph::from_spec(graph, spec, &cfg).cycle_diagnostics(spec));
    }
    sort_diagnostics(&mut diags);
    Ok(diags)
}

/// Runs [`analyze_spec`] on `machine`'s program, or explains why it
/// cannot (the program exposes no spec, or the spec is malformed).
///
/// # Errors
///
/// Returns a message naming the program when no spec is available.
pub fn analyze_machine(machine: &Machine, init: &SystemInit) -> Result<Vec<Diagnostic>, String> {
    let spec = machine.program().static_spec().ok_or_else(|| {
        format!(
            "program {:?} provides no static spec; only dynamic checking applies",
            machine.program_name()
        )
    })?;
    analyze_spec(machine.graph(), machine.isa(), init, &spec)
}

/// Derives the static may-touch footprints of `machine`'s program for
/// POR interference.
///
/// # Errors
///
/// Returns a message naming the program when no spec is available or the
/// spec is malformed.
pub fn machine_footprints(machine: &Machine) -> Result<Vec<Vec<simsym_graph::VarId>>, String> {
    let spec = machine.program().static_spec().ok_or_else(|| {
        format!(
            "program {:?} provides no static spec; static interference unavailable",
            machine.program_name()
        )
    })?;
    static_footprints(machine.graph(), &spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::codes;
    use simsym_graph::topology;
    use simsym_vm::{FnProgram, IdleProgram, OpKind, PhaseSpec, PortSet};
    use std::sync::Arc;

    #[test]
    fn analyze_spec_combines_all_four_analyses() {
        let g = topology::uniform_ring(3);
        let init = SystemInit::uniform(&g);
        let spec = ProgramSpec::new("kitchen-sink", 0)
            .id_dependent()
            .phase(
                PhaseSpec::new(0, "lock-first")
                    .reads(&["ghost"])
                    .op(OpKind::Lock, PortSet::First)
                    .succs(&[1]),
            )
            .phase(
                PhaseSpec::new(1, "lock-last")
                    .op(OpKind::Lock, PortSet::Last)
                    .succs(&[0]),
            )
            .phase(PhaseSpec::new(2, "dead").succs(&[2]));
        let diags = analyze_spec(&g, InstructionSet::L, &init, &spec).unwrap();
        let codes_seen: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert!(codes_seen.contains(&codes::STAT_UNINIT_READ));
        assert!(codes_seen.contains(&codes::STAT_DEAD_PHASE));
        assert!(codes_seen.contains(&codes::STAT_SYM_BREAK));
        assert!(codes_seen.contains(&codes::STAT_LOCK_CYCLE));
    }

    #[test]
    fn lock_analysis_is_gated_on_the_instruction_set() {
        let g = topology::uniform_ring(3);
        let init = SystemInit::uniform(&g);
        let spec = ProgramSpec::new("locker", 0)
            .phase(
                PhaseSpec::new(0, "a")
                    .op(OpKind::Lock, PortSet::First)
                    .succs(&[1]),
            )
            .phase(
                PhaseSpec::new(1, "b")
                    .op(OpKind::Lock, PortSet::Last)
                    .succs(&[0]),
            );
        let in_l = analyze_spec(&g, InstructionSet::L, &init, &spec).unwrap();
        assert!(in_l.iter().any(|d| d.code == codes::STAT_LOCK_CYCLE));
        let in_s = analyze_spec(&g, InstructionSet::S, &init, &spec).unwrap();
        assert!(!in_s.iter().any(|d| d.code == codes::STAT_LOCK_CYCLE));
    }

    #[test]
    fn analyze_machine_requires_a_spec() {
        let g = Arc::new(topology::figure1());
        let init = SystemInit::uniform(&g);
        let opaque = Arc::new(FnProgram::new("opaque", |_, _| {}));
        let m = Machine::new(Arc::clone(&g), InstructionSet::S, opaque, &init).unwrap();
        assert!(analyze_machine(&m, &init).unwrap_err().contains("opaque"));
        assert!(machine_footprints(&m).is_err());
        let idle = Machine::new(g, InstructionSet::S, Arc::new(IdleProgram), &init).unwrap();
        assert!(analyze_machine(&idle, &init).unwrap().is_empty());
        assert_eq!(machine_footprints(&idle).unwrap(), vec![vec![]; 2]);
    }
}
