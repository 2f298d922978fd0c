//! Labelings of system-graph nodes, and partition utilities.
//!
//! The paper analyzes systems through *labelings* of the nodes (§3):
//!
//! * a **supersimilarity labeling** gives similar-or-equal behaviour to
//!   same-labeled nodes (same label ⟹ similar);
//! * a **subsimilarity labeling** never separates similar nodes
//!   (similar ⟹ same label);
//! * a **similarity labeling** is both — it is the partition into
//!   similarity classes, unique up to renaming of labels.

use serde::{Deserialize, Serialize};
use simsym_graph::{NameId, Node, ProcId, SystemGraph, VarId};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// A label: a dense small integer naming a class of nodes.
pub type Label = u32;

/// A labeling of all nodes of a system graph (processors first, then
/// variables, in the linear node index order).
///
/// Labelings produced by this crate are **canonical**: labels are dense
/// `0..class_count` and numbered by first occurrence, so two equal
/// partitions compare equal as `Labeling` values.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Labeling {
    proc_count: usize,
    labels: Vec<Label>,
}

impl Labeling {
    /// Wraps raw labels (one per node, processors first), canonicalizing
    /// them by first occurrence.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() < proc_count`.
    pub fn from_raw<K: Clone + Ord>(proc_count: usize, labels: &[K]) -> Labeling {
        assert!(labels.len() >= proc_count, "labels must cover all nodes");
        let mut remap: BTreeMap<K, Label> = BTreeMap::new();
        let mut next = 0u32;
        let canon = labels
            .iter()
            .map(|l| {
                *remap.entry(l.clone()).or_insert_with(|| {
                    let id = next;
                    next += 1;
                    id
                })
            })
            .collect();
        Labeling {
            proc_count,
            labels: canon,
        }
    }

    /// The trivial subsimilarity labeling: every node the same label.
    pub fn trivial(graph: &SystemGraph) -> Labeling {
        Labeling {
            proc_count: graph.processor_count(),
            labels: vec![0; graph.node_count()],
        }
    }

    /// The discrete labeling: every node its own label (the trivial
    /// *supersimilarity* labeling).
    pub fn discrete(graph: &SystemGraph) -> Labeling {
        Labeling {
            proc_count: graph.processor_count(),
            labels: (0..graph.node_count() as u32).collect(),
        }
    }

    /// Number of processors covered.
    pub fn processor_count(&self) -> usize {
        self.proc_count
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// The label of a node.
    pub fn of(&self, node: Node) -> Label {
        self.labels[node.linear_index(self.proc_count)]
    }

    /// The label of a processor.
    pub fn proc_label(&self, p: ProcId) -> Label {
        self.labels[p.index()]
    }

    /// The label of a variable.
    pub fn var_label(&self, v: VarId) -> Label {
        self.labels[self.proc_count + v.index()]
    }

    /// All labels as a slice over the linear node index.
    pub fn as_slice(&self) -> &[Label] {
        &self.labels
    }

    /// Number of distinct labels.
    pub fn class_count(&self) -> usize {
        let mut ls: Vec<Label> = self.labels.clone();
        ls.sort_unstable();
        ls.dedup();
        ls.len()
    }

    /// The distinct labels given to processors (`PLABELS` in §4).
    pub fn proc_labels(&self) -> Vec<Label> {
        let mut ls: Vec<Label> = self.labels[..self.proc_count].to_vec();
        ls.sort_unstable();
        ls.dedup();
        ls
    }

    /// The distinct labels given to variables (`VLABELS` in §4).
    pub fn var_labels(&self) -> Vec<Label> {
        let mut ls: Vec<Label> = self.labels[self.proc_count..].to_vec();
        ls.sort_unstable();
        ls.dedup();
        ls
    }

    /// The processors carrying `label`.
    pub fn procs_with_label(&self, label: Label) -> Vec<ProcId> {
        (0..self.proc_count)
            .filter(|&i| self.labels[i] == label)
            .map(ProcId::new)
            .collect()
    }

    /// The variables carrying `label`.
    pub fn vars_with_label(&self, label: Label) -> Vec<VarId> {
        (self.proc_count..self.labels.len())
            .filter(|&i| self.labels[i] == label)
            .map(|i| VarId::new(i - self.proc_count))
            .collect()
    }

    /// Processors whose label is shared with no other processor.
    ///
    /// By Theorem 3, if this is empty the system has **no selection
    /// algorithm**; conversely `SELECT(Σ)` elects a uniquely labeled
    /// processor.
    pub fn uniquely_labeled_processors(&self) -> Vec<ProcId> {
        let mut counts: BTreeMap<Label, usize> = BTreeMap::new();
        for &l in &self.labels[..self.proc_count] {
            *counts.entry(l).or_insert(0) += 1;
        }
        (0..self.proc_count)
            .filter(|&i| counts[&self.labels[i]] == 1)
            .map(ProcId::new)
            .collect()
    }

    /// Whether some processor is uniquely labeled.
    pub fn has_uniquely_labeled_processor(&self) -> bool {
        !self.uniquely_labeled_processors().is_empty()
    }

    /// Whether every processor shares its label with some other processor —
    /// the impossibility condition of Theorems 2/3.
    pub fn all_processors_shadowed(&self) -> bool {
        !self.has_uniquely_labeled_processor()
    }

    /// Whether `self` refines `coarser`: every class of `self` lies within
    /// one class of `coarser`.
    pub fn is_refinement_of(&self, coarser: &Labeling) -> bool {
        if self.labels.len() != coarser.labels.len() {
            return false;
        }
        let mut image: BTreeMap<Label, Label> = BTreeMap::new();
        for (i, &l) in self.labels.iter().enumerate() {
            match image.get(&l) {
                Some(&c) if c != coarser.labels[i] => return false,
                Some(_) => {}
                None => {
                    image.insert(l, coarser.labels[i]);
                }
            }
        }
        true
    }

    /// Whether two labelings are the same partition (they are canonical, so
    /// this is plain equality).
    pub fn same_partition(&self, other: &Labeling) -> bool {
        self == other
    }

    /// Groups the nodes by label, in label order.
    pub fn classes(&self) -> Vec<Vec<Node>> {
        let max = self
            .labels
            .iter()
            .copied()
            .max()
            .map_or(0, |m| m as usize + 1);
        let mut out: Vec<Vec<Node>> = vec![Vec::new(); max];
        let vc = self.labels.len() - self.proc_count;
        for (i, &l) in self.labels.iter().enumerate() {
            out[l as usize].push(Node::from_linear_index(i, self.proc_count, vc));
        }
        out
    }

    /// Groups only the processors by label (classes listed in label order;
    /// classes with no processors omitted).
    pub fn proc_classes(&self) -> Vec<Vec<ProcId>> {
        self.proc_labels()
            .into_iter()
            .map(|l| self.procs_with_label(l))
            .collect()
    }
}

impl fmt::Debug for Labeling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Labeling[procs: ")?;
        for (i, &l) in self.labels[..self.proc_count].iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "p{i}:{l}")?;
        }
        write!(f, " | vars: ")?;
        for (i, &l) in self.labels[self.proc_count..].iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "v{i}:{l}")?;
        }
        write!(f, "]")
    }
}

/// Error: a labeling is not a supersimilarity labeling, so a quantity that
/// presumes label-consistency (like `neighborhood_size`) is ill-defined.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InconsistentLabeling {
    /// Human-readable description of the inconsistency.
    pub detail: String,
}

impl fmt::Display for InconsistentLabeling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "labeling is not environment-consistent: {}", self.detail)
    }
}

impl Error for InconsistentLabeling {}

/// The `neighborhood_size(n, α, β)` function of Algorithm 2: the number of
/// `n`-neighbors labeled `α` of a variable labeled `β`. Well-defined only
/// for labelings under which same-labeled variables have identical
/// per-name label counts (the Q environment condition).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NeighborhoodTable {
    /// `(name, proc_label, var_label) -> count`.
    table: BTreeMap<(NameId, Label, Label), usize>,
    var_labels: Vec<Label>,
}

impl NeighborhoodTable {
    /// Builds the table from a graph and a labeling.
    ///
    /// # Errors
    ///
    /// Returns [`InconsistentLabeling`] if two same-labeled variables
    /// disagree on some per-name label count — i.e. the labeling violates
    /// the Q environment condition for variables.
    pub fn new(graph: &SystemGraph, labeling: &Labeling) -> Result<Self, InconsistentLabeling> {
        let mut table: BTreeMap<(NameId, Label, Label), usize> = BTreeMap::new();
        let mut seen_var_label: BTreeMap<Label, VarId> = BTreeMap::new();
        for v in graph.variables() {
            let beta = labeling.var_label(v);
            // Count (name, alpha) pairs for this variable.
            let mut counts: BTreeMap<(NameId, Label), usize> = BTreeMap::new();
            for &(p, name) in graph.variable_edges(v) {
                *counts.entry((name, labeling.proc_label(p))).or_insert(0) += 1;
            }
            match seen_var_label.get(&beta) {
                None => {
                    seen_var_label.insert(beta, v);
                    for ((name, alpha), c) in counts {
                        table.insert((name, alpha, beta), c);
                    }
                }
                Some(&first) => {
                    // Verify consistency with the first representative.
                    let mut expected: BTreeMap<(NameId, Label), usize> = BTreeMap::new();
                    for (&(name, alpha, b), &c) in &table {
                        if b == beta {
                            expected.insert((name, alpha), c);
                        }
                    }
                    if expected != counts {
                        return Err(InconsistentLabeling {
                            detail: format!(
                                "variables {first} and {v} share label {beta} but have different neighborhoods"
                            ),
                        });
                    }
                }
            }
        }
        Ok(NeighborhoodTable {
            table,
            var_labels: labeling.var_labels(),
        })
    }

    /// `neighborhood_size(n, α, β)`.
    pub fn size(&self, name: NameId, proc_label: Label, var_label: Label) -> usize {
        self.table
            .get(&(name, proc_label, var_label))
            .copied()
            .unwrap_or(0)
    }

    /// The nonzero entries `(n, α, β, neighborhood_size(n, α, β))`, in
    /// `(n, α, β)` order.
    pub fn entries(&self) -> impl Iterator<Item = (NameId, Label, Label, usize)> + '_ {
        self.table
            .iter()
            .map(|(&(name, alpha, beta), &size)| (name, alpha, beta, size))
    }

    /// Total number of neighbors (over all names and labels) of a variable
    /// labeled `β`.
    pub fn degree_of_var_label(&self, var_label: Label) -> usize {
        self.table
            .iter()
            .filter(|((_, _, b), _)| *b == var_label)
            .map(|(_, &c)| c)
            .sum()
    }

    /// All variable labels known to the table.
    pub fn var_labels(&self) -> &[Label] {
        &self.var_labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simsym_graph::topology;

    #[test]
    fn canonical_from_raw() {
        let g = topology::figure1();
        let a = Labeling::from_raw(2, &[7, 7, 3]);
        let b = Labeling::from_raw(2, &[0, 0, 1]);
        assert_eq!(a, b);
        assert_eq!(a.class_count(), 2);
        assert_eq!(a.proc_label(ProcId::new(0)), 0);
        assert_eq!(a.var_label(VarId::new(0)), 1);
        assert_eq!(a.node_count(), g.node_count());
    }

    #[test]
    fn trivial_and_discrete() {
        let g = topology::uniform_ring(3);
        let t = Labeling::trivial(&g);
        assert_eq!(t.class_count(), 1);
        assert!(t.all_processors_shadowed());
        let d = Labeling::discrete(&g);
        assert_eq!(d.class_count(), 6);
        assert_eq!(d.uniquely_labeled_processors().len(), 3);
        assert!(d.is_refinement_of(&t));
        assert!(!t.is_refinement_of(&d));
    }

    #[test]
    fn unique_processors() {
        let l = Labeling::from_raw(3, &[0, 0, 1, 2]);
        assert_eq!(l.uniquely_labeled_processors(), vec![ProcId::new(2)]);
        assert!(l.has_uniquely_labeled_processor());
        let l = Labeling::from_raw(2, &[0, 0, 1]);
        assert!(!l.has_uniquely_labeled_processor());
    }

    #[test]
    fn plabels_vlabels_disjoint_queries() {
        let l = Labeling::from_raw(2, &[0, 1, 1, 2]);
        assert_eq!(l.proc_labels(), vec![0, 1]);
        assert_eq!(l.var_labels(), vec![1, 2]);
        assert_eq!(l.procs_with_label(1), vec![ProcId::new(1)]);
        assert_eq!(l.vars_with_label(1), vec![VarId::new(0)]);
    }

    #[test]
    fn classes_cover_all_nodes() {
        let l = Labeling::from_raw(2, &[0, 1, 0, 1]);
        let classes = l.classes();
        assert_eq!(classes.len(), 2);
        let total: usize = classes.iter().map(Vec::len).sum();
        assert_eq!(total, 4);
        let pcs = l.proc_classes();
        assert_eq!(pcs, vec![vec![ProcId::new(0)], vec![ProcId::new(1)]]);
    }

    #[test]
    fn refinement_checks() {
        let coarse = Labeling::from_raw(2, &[0, 0, 1, 1]);
        let fine = Labeling::from_raw(2, &[0, 1, 2, 2]);
        assert!(fine.is_refinement_of(&coarse));
        assert!(!coarse.is_refinement_of(&fine));
        assert!(coarse.is_refinement_of(&coarse));
        // Crossing partitions refine neither way.
        let cross = Labeling::from_raw(2, &[0, 1, 0, 1]);
        assert!(!cross.is_refinement_of(&coarse) || !coarse.is_refinement_of(&cross));
    }

    #[test]
    fn neighborhood_table_on_figure2() {
        let g = topology::figure2();
        // Similarity classes of Fig. 2: {p1,p2}, {p3}, {v1}, {v2}, {v3}.
        let l = Labeling::from_raw(3, &[0, 0, 1, 2, 3, 4]);
        let t = NeighborhoodTable::new(&g, &l).expect("consistent");
        let a = g.names().get("a").unwrap();
        let b = g.names().get("b").unwrap();
        // v1 (label 2) has two a-neighbors labeled 0.
        assert_eq!(t.size(a, 0, 2), 2);
        // v2 (label 3) has one a-neighbor labeled 1 (= p3).
        assert_eq!(t.size(a, 1, 3), 1);
        // v3 (label 4) has two b-neighbors labeled 0 and one labeled 1.
        assert_eq!(t.size(b, 0, 4), 2);
        assert_eq!(t.size(b, 1, 4), 1);
        // Absent combinations are 0.
        assert_eq!(t.size(b, 0, 2), 0);
        assert_eq!(t.degree_of_var_label(4), 3);
        assert_eq!(t.degree_of_var_label(2), 2);
    }

    #[test]
    fn neighborhood_table_rejects_inconsistent() {
        let g = topology::figure2();
        // Lump all variables together: v1 (deg 2) and v3 (deg 3) disagree.
        let l = Labeling::from_raw(3, &[0, 0, 1, 2, 2, 2]);
        let err = NeighborhoodTable::new(&g, &l).unwrap_err();
        assert!(err.to_string().contains("different neighborhoods"));
    }

    #[test]
    fn debug_render() {
        let l = Labeling::from_raw(1, &[0, 1]);
        let s = format!("{l:?}");
        assert!(s.contains("p0:0"));
        assert!(s.contains("v0:1"));
    }
}
