//! Lock-order deadlock analysis: hold-and-wait edges, cycle detection,
//! DOT export.
//!
//! A classical lock-order analysis adds an edge `a → b` whenever a
//! processor acquires `b` while holding `a`. That is too strong for this
//! codebase: Lehmann–Rabin's coin flips make every philosopher acquire its
//! forks in *both* orders across a run, so successful nested acquisition
//! would paint both edge directions and flag the (deadlock-free) protocol.
//! What actually distinguishes deadlock-prone protocols is **hold-and-
//! wait**: a processor that keeps retrying a failed lock while holding
//! another. Lehmann–Rabin never does this — on a failed second-fork
//! attempt it *releases* the first fork before retrying — whereas the
//! fixed-order philosopher spins on its second fork forever.
//!
//! So the checker records an edge `h → t` only when a processor makes two
//! *consecutive* failed attempts on the same target set `T ∋ t` while
//! holding `h` (one failed attempt alone is ordinary contention). Cycles
//! in the resulting [`LockOrderGraph`] are potential deadlocks, reported
//! with the witness cycle.

use crate::diag::{codes, Diagnostic, Severity, Span};
use crate::locks::HeldLocks;
use simsym_graph::{ProcId, VarId};
use simsym_vm::engine::System;
use simsym_vm::{OpKind, Probe, Violation};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Witness for one lock-order edge: who waited, and when.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeWitness {
    /// The processor that held the source lock while waiting on the target.
    pub proc: ProcId,
    /// The step of the second (confirming) failed attempt.
    pub step: u64,
}

/// One witness cycle per strongly connected component of a successor map
/// that contains one, in deterministic order: each a DFS path from the
/// component's smallest member back to it, the closing edge implicit.
/// `successors` lists a source's targets in ascending order.
pub(crate) fn witness_cycles<'a, S, I>(
    edges: &'a BTreeMap<VarId, S>,
    successors: impl Fn(&'a S) -> I,
) -> Vec<Vec<VarId>>
where
    I: Iterator<Item = &'a VarId>,
{
    let succ = |v: VarId| edges.get(&v).map(&successors).into_iter().flatten();
    let mut cycles = Vec::new();
    let mut in_reported_scc: BTreeSet<VarId> = BTreeSet::new();
    'starts: for &start in edges.keys() {
        if in_reported_scc.contains(&start) {
            continue;
        }
        // Iterative DFS for a path from `start` back to `start`, with an
        // explicit successor cursor per frame.
        let mut path = vec![start];
        let mut on_path: BTreeSet<VarId> = [start].into();
        let mut visited: BTreeSet<VarId> = BTreeSet::new();
        let mut cursors = vec![succ(start)];
        while let Some(cursor) = cursors.last_mut() {
            match cursor.next() {
                Some(&next) if next == start => {
                    in_reported_scc.extend(path.iter().copied());
                    cycles.push(path);
                    continue 'starts;
                }
                Some(&next) => {
                    if on_path.contains(&next) || visited.contains(&next) {
                        continue;
                    }
                    on_path.insert(next);
                    path.push(next);
                    cursors.push(succ(next));
                }
                None => {
                    cursors.pop();
                    let done = path.pop().expect("path tracks cursors");
                    on_path.remove(&done);
                    visited.insert(done);
                }
            }
        }
    }
    cycles
}

/// The accumulated lock-order graph: `from → to` means some processor
/// persistently waited on `to` while holding `from`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LockOrderGraph {
    edges: BTreeMap<VarId, BTreeMap<VarId, EdgeWitness>>,
}

impl LockOrderGraph {
    /// All edges with their first witnesses, in deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = (VarId, VarId, EdgeWitness)> + '_ {
        self.edges
            .iter()
            .flat_map(|(&from, tos)| tos.iter().map(move |(&to, &w)| (from, to, w)))
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.values().map(BTreeMap::len).sum()
    }

    fn add_edge(&mut self, from: VarId, to: VarId, witness: EdgeWitness) {
        self.edges
            .entry(from)
            .or_default()
            .entry(to)
            .or_insert(witness);
    }

    /// Finds elementary cycles, one witness cycle per strongly connected
    /// component that contains one (deterministic order). Each cycle is
    /// returned as the sequence of variables around it, starting from its
    /// smallest member; the closing edge back to the start is implicit.
    pub fn cycles(&self) -> Vec<Vec<VarId>> {
        witness_cycles(&self.edges, BTreeMap::keys)
    }

    /// Renders the graph in Graphviz DOT syntax, following the conventions
    /// of `simsym_graph::dot` (variables as boxes; directed wait edges
    /// labeled with their witness).
    pub fn to_dot(&self) -> String {
        let mut nodes: BTreeSet<VarId> = BTreeSet::new();
        for (from, to, _) in self.edges() {
            nodes.insert(from);
            nodes.insert(to);
        }
        let mut out = String::from("digraph lockorder {\n  graph [layout=circo, overlap=false];\n");
        for v in &nodes {
            let _ = writeln!(
                out,
                "  v{} [shape=box, style=filled, fillcolor=\"#eeeeee\"];",
                v.index()
            );
        }
        for (from, to, w) in self.edges() {
            let _ = writeln!(
                out,
                "  v{} -> v{} [label=\"p{}@{}\"];",
                from.index(),
                to.index(),
                w.proc.index(),
                w.step
            );
        }
        out.push_str("}\n");
        out
    }
}

/// The lock-order deadlock checker (a [`Probe`]).
#[derive(Clone, Debug, Default)]
pub struct LockOrderChecker {
    locks: HeldLocks,
    /// Last failed lock target set per processor, awaiting confirmation by
    /// a second consecutive failed attempt on the same targets.
    pending: BTreeMap<ProcId, Vec<VarId>>,
    graph: LockOrderGraph,
}

impl LockOrderChecker {
    /// A fresh checker.
    pub fn new() -> LockOrderChecker {
        LockOrderChecker::default()
    }

    /// The lock-order graph accumulated so far.
    pub fn graph(&self) -> &LockOrderGraph {
        &self.graph
    }

    /// Cycle diagnostics for the accumulated graph: one
    /// [`codes::DYN_LOCK_CYCLE`] error per witness cycle.
    pub fn into_diagnostics(self) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        for cycle in self.graph.cycles() {
            let mut route: Vec<String> = cycle.iter().map(|v| format!("v{}", v.index())).collect();
            route.push(format!("v{}", cycle[0].index()));
            let witness = cycle
                .iter()
                .enumerate()
                .map(|(i, &from)| {
                    let to = cycle[(i + 1) % cycle.len()];
                    let w = self.graph.edges[&from][&to];
                    format!(
                        "v{} -> v{}: p{} persistently waited on v{} while holding v{} (step {})",
                        from.index(),
                        to.index(),
                        w.proc.index(),
                        to.index(),
                        from.index(),
                        w.step
                    )
                })
                .collect();
            diags.push(
                Diagnostic::new(
                    Severity::Error,
                    codes::DYN_LOCK_CYCLE,
                    Span::var(cycle[0]),
                    format!(
                        "potential deadlock: lock-order cycle {}",
                        route.join(" -> ")
                    ),
                )
                .with_witness(witness),
            );
        }
        diags
    }
}

impl<S: System + ?Sized> Probe<S> for LockOrderChecker {
    fn observe(&mut self, system: &S, p: ProcId) -> Option<Violation> {
        let record = system.last_record()?;
        match record.kind {
            OpKind::Lock | OpKind::LockMany if record.contended => {
                let held = self.locks.held(p);
                let confirmed = self.pending.get(&p) == Some(&record.targets);
                if confirmed && !held.is_empty() {
                    let witness = EdgeWitness {
                        proc: p,
                        step: system.steps(),
                    };
                    for &h in held {
                        for &t in &record.targets {
                            if t != h && !held.contains(&t) {
                                self.graph.add_edge(h, t, witness);
                            }
                        }
                    }
                } else {
                    self.pending.insert(p, record.targets.clone());
                }
            }
            // A successful acquisition or an unlock means the processor
            // moved on: its pending wait (if any) is stale.
            OpKind::Lock | OpKind::LockMany | OpKind::Unlock => {
                self.pending.remove(&p);
            }
            // Local computation and data accesses while waiting don't
            // cancel the wait.
            _ => {}
        }
        self.locks.apply(p, &record);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simsym_graph::topology;
    use simsym_vm::engine::{self, stop};
    use simsym_vm::{FnProgram, InstructionSet, Machine, RoundRobin, SystemInit};
    use std::sync::Arc;

    /// All philosophers lock "left" then spin on "right": the canonical
    /// all-hold-one deadlock on a uniform ring.
    fn fixed_order_machine(n: usize) -> Machine {
        let g = Arc::new(topology::uniform_ring(n));
        let prog = Arc::new(FnProgram::new("fixed-order", |local, ops| {
            let left = ops.name("left");
            let right = ops.name("right");
            match local.pc {
                0 => {
                    if ops.lock(left) {
                        local.pc = 1;
                    }
                }
                1 => {
                    if ops.lock(right) {
                        local.pc = 2;
                    }
                }
                2 => {
                    ops.unlock(right);
                    local.pc = 3;
                }
                _ => {
                    ops.unlock(left);
                    local.pc = 0;
                }
            }
        }));
        let init = SystemInit::uniform(&g);
        Machine::new(g, InstructionSet::L, prog, &init).unwrap()
    }

    #[test]
    fn fixed_order_ring_produces_cycle_witness() {
        let mut m = fixed_order_machine(3);
        let mut checker = LockOrderChecker::new();
        engine::run(
            &mut m,
            &mut RoundRobin::new(),
            100,
            &mut [&mut checker],
            &mut stop::Never,
        );
        assert!(checker.graph().edge_count() >= 3);
        let diags = checker.into_diagnostics();
        assert_eq!(diags.len(), 1, "one cycle: {diags:?}");
        assert_eq!(diags[0].code, codes::DYN_LOCK_CYCLE);
        // The witness walks the whole ring.
        assert_eq!(diags[0].witness.len(), 3);
    }

    #[test]
    fn single_failed_attempt_is_just_contention() {
        // p0 takes the figure-1 variable; p1 attempts exactly once while
        // holding nothing, then gives up. No edges.
        let g = Arc::new(topology::figure1());
        let prog = Arc::new(FnProgram::new("once", |local, ops| {
            let n = ops.name("n");
            if local.pc == 0 {
                let _ = ops.lock(n);
                local.pc = 1;
            }
        }));
        let init = SystemInit::uniform(&g);
        let mut m = Machine::new(g, InstructionSet::L, prog, &init).unwrap();
        let mut checker = LockOrderChecker::new();
        engine::run(
            &mut m,
            &mut RoundRobin::new(),
            10,
            &mut [&mut checker],
            &mut stop::Never,
        );
        assert_eq!(checker.graph().edge_count(), 0);
        assert_eq!(checker.into_diagnostics(), vec![]);
    }

    #[test]
    fn dot_export_renders_edges() {
        let mut m = fixed_order_machine(3);
        let mut checker = LockOrderChecker::new();
        engine::run(
            &mut m,
            &mut RoundRobin::new(),
            100,
            &mut [&mut checker],
            &mut stop::Never,
        );
        let dot = checker.graph().to_dot();
        assert!(dot.starts_with("digraph lockorder {"));
        assert!(dot.contains("shape=box"));
        assert!(dot.contains(" -> "));
        assert!(dot.contains("label=\"p"));
        // Deterministic: same run, same rendering.
        assert_eq!(dot, checker.graph().to_dot());
    }

    #[test]
    fn empty_graph_has_no_cycles() {
        let g = LockOrderGraph::default();
        assert!(g.cycles().is_empty());
        assert_eq!(g.edge_count(), 0);
        assert!(g.to_dot().contains("digraph lockorder"));
    }
}
