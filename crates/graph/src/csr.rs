//! Compressed sparse row (CSR) adjacency for hot loops.
//!
//! [`SystemGraph`] stores adjacency as nested `Vec`s — convenient for
//! construction and validation, but every row is a separate heap
//! allocation, which costs a pointer chase per neighbor access in tight
//! refinement loops. [`CsrAdjacency`] flattens both directions into
//! contiguous arrays:
//!
//! * `proc_row(p)` — the `n-nbr` row of processor `p`, one [`VarId`] per
//!   name, at stride `|NAMES|` in one flat buffer;
//! * `var_edges(v)` — the `(processor, name)` edges of variable `v`,
//!   delimited by an offsets array.
//!
//! Building the CSR is `O(P·|NAMES| + E)` and is done once per algorithm
//! invocation (e.g. per Hopcroft refinement run).

use crate::{NameId, ProcId, SystemGraph, VarId};

/// Flattened adjacency of a [`SystemGraph`], processors → variables via the
/// name-indexed `n-nbr` rows and variables → processors via offset-delimited
/// edge lists.
#[derive(Clone, Debug)]
pub struct CsrAdjacency {
    name_count: usize,
    /// `proc_flat[p * name_count + n]` = the `n`-neighbor of processor `p`.
    proc_flat: Vec<VarId>,
    /// `var_edges_flat[var_offsets[v] .. var_offsets[v + 1]]` = edges of `v`.
    var_offsets: Vec<u32>,
    var_edges_flat: Vec<(ProcId, NameId)>,
}

impl CsrAdjacency {
    /// Flattens the adjacency of `graph`.
    pub fn new(graph: &SystemGraph) -> CsrAdjacency {
        let name_count = graph.name_count();
        let mut proc_flat = Vec::with_capacity(graph.processor_count() * name_count);
        for p in graph.processors() {
            proc_flat.extend_from_slice(graph.processor_neighbors(p));
        }
        let mut var_offsets = Vec::with_capacity(graph.variable_count() + 1);
        let mut var_edges_flat = Vec::with_capacity(graph.edge_count());
        var_offsets.push(0);
        for v in graph.variables() {
            var_edges_flat.extend_from_slice(graph.variable_edges(v));
            var_offsets.push(var_edges_flat.len() as u32);
        }
        CsrAdjacency {
            name_count,
            proc_flat,
            var_offsets,
            var_edges_flat,
        }
    }

    /// Number of edge names (`|NAMES|`) — the stride of the processor rows.
    pub fn name_count(&self) -> usize {
        self.name_count
    }

    /// The `n-nbr` row of processor `p`: one [`VarId`] per name, in dense
    /// name order.
    pub fn proc_row(&self, p: ProcId) -> &[VarId] {
        let start = p.index() * self.name_count;
        &self.proc_flat[start..start + self.name_count]
    }

    /// The `(processor, name)` edges incident to variable `v`, sorted.
    pub fn var_edges(&self, v: VarId) -> &[(ProcId, NameId)] {
        let start = self.var_offsets[v.index()] as usize;
        let end = self.var_offsets[v.index() + 1] as usize;
        &self.var_edges_flat[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    #[test]
    fn csr_matches_nested_adjacency() {
        for g in [
            topology::figure1(),
            topology::figure2(),
            topology::figure3(),
            topology::uniform_ring(7),
            topology::star(4),
            topology::shared_board(3, 2),
        ] {
            let csr = CsrAdjacency::new(&g);
            assert_eq!(csr.name_count(), g.name_count());
            for p in g.processors() {
                assert_eq!(csr.proc_row(p), g.processor_neighbors(p));
            }
            for v in g.variables() {
                assert_eq!(csr.var_edges(v), g.variable_edges(v));
            }
        }
    }

    #[test]
    fn csr_offsets_bracket_every_variable() {
        let g = topology::star(1);
        let csr = CsrAdjacency::new(&g);
        for v in g.variables() {
            assert_eq!(csr.var_edges(v).len(), g.variable_degree(v));
        }
    }
}
