//! Static lock-order graph: potential lock-acquisition order from the
//! CFG, with cycle flagging.
//!
//! A forward may-analysis per processor over the variable powerset: the
//! IN fact of a phase is every lock the processor *may* hold on entry.
//! Each lock-acquiring footprint then contributes `held → acquired`
//! edges, and the union over all processors is the static counterpart of
//! the dynamic hold-and-wait graph in [`crate::lock_order`]. Dynamic
//! edges need a run that actually blocks; static edges need only the
//! *possibility*, so the static graph over-approximates every dynamic
//! witness — the superset property the cross-check test pins down.

use super::cfg::{resolved_ops, SpecCfg};
use super::solver::{solve_forward, BitSet, Meet};
use crate::diag::{codes, Diagnostic, Severity, Span};
use simsym_graph::{SystemGraph, VarId};
use simsym_vm::{OpKind, ProgramSpec};
use std::collections::{BTreeMap, BTreeSet};

/// The potential lock-acquisition order: an edge `a → b` means some
/// processor may acquire `b` while holding `a`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StaticLockGraph {
    edges: BTreeMap<VarId, BTreeSet<VarId>>,
}

impl StaticLockGraph {
    /// Builds the graph from every processor's resolved CFG.
    pub fn from_spec(graph: &SystemGraph, spec: &ProgramSpec, cfg: &SpecCfg) -> StaticLockGraph {
        let mut g = StaticLockGraph::default();
        let succs = cfg.succs();
        let bits = graph.variable_count();
        for p in graph.processors() {
            let ops: Vec<Vec<super::cfg::ResolvedOp>> = cfg
                .nodes
                .iter()
                .map(|n| resolved_ops(graph, p, spec, n.phase))
                .collect();
            let held = solve_forward(&succs, cfg.entry, BitSet::empty(bits), Meet::Union, &{
                let ops = &ops;
                move |n: usize, fact: &BitSet| transfer(&ops[n], fact)
            });
            for (n, fact) in held.iter().enumerate() {
                let Some(fact) = fact else { continue };
                for op in &ops[n] {
                    let atomic = match op.op {
                        // A plain lock may block while holding; lock_many
                        // acquires its whole set indivisibly, so only
                        // previously held locks order before it.
                        OpKind::Lock | OpKind::LockMany => true,
                        _ => false,
                    };
                    if !atomic {
                        continue;
                    }
                    for h in fact.ones() {
                        for &t in &op.targets {
                            if t.index() != h {
                                g.edges.entry(VarId::new(h)).or_default().insert(t);
                            }
                        }
                    }
                }
            }
        }
        g
    }

    /// All edges, in deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = (VarId, VarId)> + '_ {
        self.edges
            .iter()
            .flat_map(|(&from, tos)| tos.iter().map(move |&to| (from, to)))
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.values().map(BTreeSet::len).sum()
    }

    /// One witness cycle per strongly connected component containing one,
    /// in the same normalization as
    /// [`LockOrderGraph::cycles`](crate::lock_order::LockOrderGraph::cycles):
    /// the variable sequence around the cycle starting from its smallest
    /// member, closing edge implicit.
    pub fn cycles(&self) -> Vec<Vec<VarId>> {
        crate::lock_order::witness_cycles(&self.edges, BTreeSet::iter)
    }

    /// One [`codes::STAT_LOCK_CYCLE`] error per witness cycle.
    pub fn cycle_diagnostics(&self, spec: &ProgramSpec) -> Vec<Diagnostic> {
        self.cycles()
            .into_iter()
            .map(|cycle| {
                let ring = cycle
                    .iter()
                    .map(|v| format!("v{}", v.index()))
                    .collect::<Vec<_>>()
                    .join(" → ");
                Diagnostic::new(
                    Severity::Error,
                    codes::STAT_LOCK_CYCLE,
                    Span::var(cycle[0]),
                    format!(
                        "program {:?}: the potential lock-acquisition order contains the cycle \
                         {ring} → v{} — some schedule can deadlock",
                        spec.name,
                        cycle[0].index(),
                    ),
                )
                .with_witness(cycle.iter().map(|v| format!("v{}", v.index())).collect())
            })
            .collect()
    }
}

/// May-held transfer of one phase: locks add their targets; an unlock
/// removes its target only when it is the phase's sole footprint with a
/// single resolved target (otherwise the unlock may not execute, or may
/// hit a different variable, so the lock conservatively stays held).
fn transfer(ops: &[super::cfg::ResolvedOp], fact: &BitSet) -> BitSet {
    let mut out = fact.clone();
    if let [op] = ops {
        if op.op == OpKind::Unlock {
            if let [t] = op.targets.as_slice() {
                out.remove(t.index());
                return out;
            }
        }
    }
    for op in ops {
        if matches!(op.op, OpKind::Lock | OpKind::LockMany) {
            for &t in &op.targets {
                out.insert(t.index());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simsym_graph::topology;
    use simsym_vm::{PhaseSpec, PortSet};

    /// The fixed-order philosopher text: lock first, lock last, unlock
    /// last, unlock first.
    fn fixed_order_spec() -> ProgramSpec {
        ProgramSpec::new("fo", 0)
            .phase(
                PhaseSpec::new(0, "lock-first")
                    .op(OpKind::Lock, PortSet::First)
                    .succs(&[0, 1]),
            )
            .phase(
                PhaseSpec::new(1, "lock-last")
                    .op(OpKind::Lock, PortSet::Last)
                    .succs(&[1, 2]),
            )
            .phase(
                PhaseSpec::new(2, "unlock-last")
                    .op(OpKind::Unlock, PortSet::Last)
                    .succs(&[3]),
            )
            .phase(
                PhaseSpec::new(3, "unlock-first")
                    .op(OpKind::Unlock, PortSet::First)
                    .succs(&[0]),
            )
    }

    fn build(graph: &SystemGraph, spec: &ProgramSpec) -> StaticLockGraph {
        let regs = super::super::cfg::RegUniverse::from_spec(spec);
        let cfg = SpecCfg::build(spec, &regs).unwrap();
        StaticLockGraph::from_spec(graph, spec, &cfg)
    }

    #[test]
    fn fixed_order_on_a_ring_has_the_philosopher_cycle() {
        let g = topology::uniform_ring(3);
        let spec = fixed_order_spec();
        let slg = build(&g, &spec);
        let cycles = slg.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 3, "all three forks are on the cycle");
        let diags = slg.cycle_diagnostics(&spec);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::STAT_LOCK_CYCLE);
    }

    #[test]
    fn global_order_discipline_is_cycle_free() {
        // Lock first then last but in a *globally* consistent direction is
        // not expressible per-processor on a ring; on figure1 (single
        // shared variable) first == last and no hold-and-wait edge forms.
        let g = topology::figure1();
        let slg = build(&g, &fixed_order_spec());
        assert_eq!(slg.edge_count(), 0);
        assert!(slg.cycles().is_empty());
    }

    #[test]
    fn strong_unlock_release_needs_a_sole_determined_target() {
        // A phase that may unlock *either* of two names keeps both held.
        let g = topology::uniform_ring(3);
        let spec = ProgramSpec::new("weak", 0)
            .phase(
                PhaseSpec::new(0, "lock-all")
                    .op(OpKind::Lock, PortSet::First)
                    .op(OpKind::Lock, PortSet::Last)
                    .succs(&[1]),
            )
            .phase(
                PhaseSpec::new(1, "maybe-unlock")
                    .op(OpKind::Unlock, PortSet::All)
                    .succs(&[0]),
            );
        let slg = build(&g, &spec);
        // Held set never shrinks, so the cross edges persist.
        assert!(slg.edge_count() > 0);
    }
}
