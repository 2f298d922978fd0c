//! Static interference: per-processor may-touch footprints for
//! partial-order reduction.
//!
//! [`Por`](simsym_vm::Por) decides whether an outsider can interfere
//! with an ample candidate by intersecting the outsider's *static row* —
//! everything it could ever touch — with the candidate's current
//! targets. The full `n-nbr` adjacency row is sound for that but
//! maximally pessimistic. A [`ProgramSpec`] does better: union the
//! resolved targets of every shared-op footprint in every phase
//! *reachable from the entry*. That set over-approximates every runtime target (ports
//! over-approximate name choice, reachable phases over-approximate
//! control flow, and unreachable phases never execute), so substituting
//! it for the adjacency row preserves `Por`'s commutation argument while
//! ample sets can only shrink.

use super::cfg::{resolved_ops, RegUniverse, SpecCfg};
use simsym_graph::{SystemGraph, VarId};
use simsym_vm::ProgramSpec;

/// Derives per-processor may-touch footprints from `spec`'s reachable
/// phases, suitable for [`Por::new`](simsym_vm::Por::new).
///
/// # Errors
///
/// Returns the validation message when `spec` is structurally malformed.
pub fn static_footprints(
    graph: &SystemGraph,
    spec: &ProgramSpec,
) -> Result<Vec<Vec<VarId>>, String> {
    let regs = RegUniverse::from_spec(spec);
    let cfg = SpecCfg::build(spec, &regs)?;
    let reachable = cfg.reachable();
    Ok(graph
        .processors()
        .map(|p| {
            let mut vars: Vec<VarId> = cfg
                .nodes
                .iter()
                .enumerate()
                .filter(|(n, _)| reachable[*n])
                .flat_map(|(_, node)| resolved_ops(graph, p, spec, node.phase))
                .flat_map(|op| op.targets)
                .collect();
            vars.sort_unstable();
            vars.dedup();
            vars
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simsym_graph::{topology, ProcId};
    use simsym_vm::{OpKind, PhaseSpec, PortSet};

    #[test]
    fn footprints_union_reachable_ops_only() {
        let g = topology::uniform_ring(4);
        let spec = ProgramSpec::new("t", 0)
            .phase(
                PhaseSpec::new(0, "first-only")
                    .op(OpKind::Write, PortSet::First)
                    .succs(&[0]),
            )
            .phase(
                PhaseSpec::new(1, "dead")
                    .op(OpKind::Write, PortSet::All)
                    .succs(&[1]),
            );
        let fp = static_footprints(&g, &spec).unwrap();
        assert_eq!(fp.len(), 4);
        for p in g.processors() {
            assert_eq!(
                fp[p.index()],
                PortSet::First.resolve(&g, p),
                "dead phase's All footprint must not leak in"
            );
        }
    }

    #[test]
    fn all_ports_reproduce_the_adjacency_row() {
        let g = topology::uniform_ring(4);
        let spec = ProgramSpec::new("t", 0).phase(
            PhaseSpec::new(0, "loop")
                .op(OpKind::Read, PortSet::All)
                .succs(&[0]),
        );
        let fp = static_footprints(&g, &spec).unwrap();
        let p = ProcId::new(2);
        let mut row = g.processor_neighbors(p).to_vec();
        row.sort_unstable();
        row.dedup();
        assert_eq!(fp[p.index()], row);
    }

    #[test]
    fn malformed_specs_propagate_their_error() {
        let g = topology::figure1();
        assert!(static_footprints(&g, &ProgramSpec::new("bad", 3)).is_err());
    }
}
