//! Lowering a [`ProgramSpec`] into analyzable control-flow graphs.
//!
//! Registers are processor-independent (every processor runs the same
//! program text), so one [`SpecCfg`] with an interned register universe
//! serves the register analyses for all processors. Shared-operation
//! targets *are* processor-dependent — each [`PortSet`](simsym_vm::PortSet) resolves through
//! the processor's `n-nbr` row — so the lock-order and interference
//! analyses resolve a per-processor view with [`resolved_ops`].

use simsym_graph::{ProcId, SystemGraph, VarId};
use simsym_vm::{OpKind, ProgramSpec};
use std::collections::BTreeMap;

/// Interned register names of a spec: boot writes plus every phase's
/// reads and writes, in first-appearance order.
pub struct RegUniverse {
    names: Vec<String>,
    index: BTreeMap<String, usize>,
}

impl RegUniverse {
    /// Interns every register the spec mentions.
    pub fn from_spec(spec: &ProgramSpec) -> RegUniverse {
        let mut u = RegUniverse {
            names: Vec::new(),
            index: BTreeMap::new(),
        };
        for r in &spec.boot_writes {
            u.intern(r);
        }
        for p in &spec.phases {
            for r in p.reads.iter().chain(&p.writes) {
                u.intern(r);
            }
        }
        u
    }

    fn intern(&mut self, name: &str) -> usize {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.names.len();
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), i);
        i
    }

    /// Number of distinct registers.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no registers were interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The name of register `i`.
    pub fn name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// The index of `name`, if interned.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }
}

/// One node of the spec-level CFG: a phase with interned registers and
/// phase ids mapped to node indices.
pub struct CfgNode {
    /// The phase id (`PhaseSpec::pc`).
    pub pc: u32,
    /// The phase's diagnostic label.
    pub label: String,
    /// Interned registers the phase may read before writing them.
    pub reads: Vec<usize>,
    /// Interned registers the phase may write.
    pub writes: Vec<usize>,
    /// Indices into `SpecCfg::nodes` of possible successors.
    pub succs: Vec<usize>,
    /// Index of this phase in `ProgramSpec::phases` (for port lookup).
    pub phase: usize,
}

/// The processor-independent CFG of a spec.
pub struct SpecCfg {
    /// Node index of the entry phase.
    pub entry: usize,
    /// Nodes, index-aligned with `ProgramSpec::phases`.
    pub nodes: Vec<CfgNode>,
}

impl SpecCfg {
    /// Lowers `spec` (which must pass [`ProgramSpec::validate`]).
    pub fn build(spec: &ProgramSpec, regs: &RegUniverse) -> Result<SpecCfg, String> {
        spec.validate()?;
        let nodes = spec
            .phases
            .iter()
            .enumerate()
            .map(|(i, p)| CfgNode {
                pc: p.pc,
                label: p.label.clone(),
                reads: p
                    .reads
                    .iter()
                    .map(|r| regs.index_of(r).expect("interned from spec"))
                    .collect(),
                writes: p
                    .writes
                    .iter()
                    .map(|r| regs.index_of(r).expect("interned from spec"))
                    .collect(),
                succs: p
                    .succs
                    .iter()
                    .map(|s| spec.phase_index(*s).expect("validated"))
                    .collect(),
                phase: i,
            })
            .collect();
        Ok(SpecCfg {
            entry: spec.phase_index(spec.entry).expect("validated"),
            nodes,
        })
    }

    /// The successor lists, in the shape the solver wants.
    pub fn succs(&self) -> Vec<Vec<usize>> {
        self.nodes.iter().map(|n| n.succs.clone()).collect()
    }

    /// Which nodes any execution may reach from the entry.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.entry];
        seen[self.entry] = true;
        while let Some(n) = stack.pop() {
            for &s in &self.nodes[n].succs {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }
}

/// A shared operation of one phase with its ports resolved for one
/// processor.
pub struct ResolvedOp {
    /// The operation kind.
    pub op: OpKind,
    /// Concrete variables the op may address, sorted and deduplicated.
    pub targets: Vec<VarId>,
}

/// Resolves the shared-op footprints of `spec.phases[phase]` for
/// processor `p` on `graph`.
pub fn resolved_ops(
    graph: &SystemGraph,
    p: ProcId,
    spec: &ProgramSpec,
    phase: usize,
) -> Vec<ResolvedOp> {
    spec.phases[phase]
        .ops
        .iter()
        .map(|f| ResolvedOp {
            op: f.op,
            targets: f.ports.resolve(graph, p),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simsym_graph::topology;
    use simsym_vm::{PhaseSpec, PortSet};

    fn two_phase_spec() -> ProgramSpec {
        ProgramSpec::new("t", 0)
            .boot_writes(&["a"])
            .phase(
                PhaseSpec::new(0, "go")
                    .reads(&["a"])
                    .writes(&["b"])
                    .op(OpKind::Write, PortSet::First)
                    .succs(&[5]),
            )
            .phase(PhaseSpec::new(5, "halt").succs(&[5]))
    }

    #[test]
    fn lowering_maps_phase_ids_to_node_indices() {
        let spec = two_phase_spec();
        let regs = RegUniverse::from_spec(&spec);
        assert_eq!(regs.len(), 3); // init, a, b
        let cfg = SpecCfg::build(&spec, &regs).unwrap();
        assert_eq!(cfg.entry, 0);
        assert_eq!(cfg.nodes[0].succs, [1]);
        assert_eq!(cfg.nodes[1].pc, 5);
        assert_eq!(cfg.reachable(), [true, true]);
        let g = topology::uniform_ring(3);
        let ops = resolved_ops(&g, ProcId::new(1), &spec, 0);
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].targets.len(), 1);
    }

    #[test]
    fn invalid_specs_are_rejected_at_lowering() {
        let spec = ProgramSpec::new("t", 9);
        let regs = RegUniverse::from_spec(&spec);
        assert!(SpecCfg::build(&spec, &regs).is_err());
    }
}
