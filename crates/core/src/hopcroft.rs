//! Worklist partition refinement — the `O(|P ∪ V| log |P ∪ V|)` variant of
//! Algorithm 1 (Theorem 5), in the style of Hopcroft's DFA-minimization
//! algorithm \[H71\] which the paper cites.
//!
//! The naive Algorithm 1 ([`crate::refine`]) recomputes every node's full
//! environment each sweep — `O(E)` per sweep, `O(N)` sweeps worst case.
//! The worklist variant instead propagates *splitters*: when a class `B`
//! splits off, only the neighbors of `B` can become distinguishable, and
//! their signatures **relative to `B`** suffice to split their classes.
//!
//! * For **Q** (count semantics) the classic Hopcroft optimization applies:
//!   after a class splits while processing a splitter, it is enough to
//!   enqueue all parts but the largest, because count-stability w.r.t. a
//!   parent class and one part implies it w.r.t. the other part. This
//!   yields the `E log N` bound.
//! * For **S** (set semantics, §6) the count trick is unsound — counts
//!   split classes the set rule must keep together — so boolean signatures
//!   are used and every part is enqueued (Paige–Tarjan-style, still
//!   near-linear in practice).
//!
//! The fixpoint equals the naive algorithm's fixpoint; the benchmark
//! `similarity_scaling` (experiment E3) compares the two implementations.

use crate::refine::initial_partition;
use crate::{Labeling, Model};
use simsym_graph::{Node, ProcId, SystemGraph, VarId};
use simsym_vm::SystemInit;
use std::collections::{BTreeMap, VecDeque};

/// Computes the similarity labeling with the worklist algorithm.
///
/// Produces the same partition as
/// [`refinement_similarity`](crate::refine::refinement_similarity); prefer
/// this entry point for large systems.
pub fn hopcroft_similarity(graph: &SystemGraph, init: &SystemInit, model: Model) -> Labeling {
    let start = initial_partition(graph, init);
    refine_worklist(graph, start, model)
}

/// Runs worklist refinement from an arbitrary starting partition.
pub fn refine_worklist(graph: &SystemGraph, start: Labeling, model: Model) -> Labeling {
    let mut p = Partition::new(graph, &start);
    // Seed: every initial class is a potential splitter.
    let mut worklist: VecDeque<usize> = (0..p.class_count()).collect();
    let mut queued = vec![true; p.class_count()];
    while let Some(b) = worklist.pop_front() {
        queued[b] = false;
        let splits = p.split_by(graph, model, b);
        for (_origin, mut parts) in splits {
            if model.counts_neighbors() {
                // Hopcroft: enqueue all but the largest part — unless the
                // origin class was still pending, in which case all parts
                // inherit its pending status.
                let origin_was_queued = parts.iter().any(|&c| queued.get(c) == Some(&true));
                if !origin_was_queued {
                    // Drop the largest part from the queue set.
                    let largest = parts
                        .iter()
                        .copied()
                        .max_by_key(|&c| p.class_len(c))
                        .expect("split produces parts");
                    parts.retain(|&c| c != largest);
                }
                for c in parts {
                    enqueue(&mut worklist, &mut queued, c);
                }
            } else {
                for c in parts {
                    enqueue(&mut worklist, &mut queued, c);
                }
            }
        }
    }
    p.into_labeling(graph)
}

fn enqueue(worklist: &mut VecDeque<usize>, queued: &mut Vec<bool>, c: usize) {
    if queued.len() <= c {
        queued.resize(c + 1, false);
    }
    if !queued[c] {
        queued[c] = true;
        worklist.push_back(c);
    }
}

/// Mutable partition state for the worklist algorithm — true Hopcroft
/// bookkeeping with index vectors instead of per-class `Vec`s and
/// `BTreeMap`-keyed signatures:
///
/// * the member lists of all classes live in **one** contiguous `elems`
///   array, each class owning the slice `elems[start[c]..end[c]]`; a class
///   splits by *swapping* its members in place and carving the slice, so no
///   member list is ever cloned or reallocated;
/// * split signatures are **counting rows** in a flat `cnt` array (one
///   `u32` per touched node per name), reset after each splitter by
///   walking the touched list — allocation-free across `split_by` calls.
struct Partition {
    /// `class_of[node_linear_index]`.
    class_of: Vec<u32>,
    /// All node indices, contiguous per class.
    elems: Vec<u32>,
    /// `loc[node]` — the node's position in `elems`.
    loc: Vec<u32>,
    /// `start[class] .. end[class]` brackets the class's slice of `elems`.
    start: Vec<u32>,
    end: Vec<u32>,
    /// Per-name neighbor counts relative to the current splitter, node-major
    /// (`cnt[node * names + name]`). Zeroed outside `split_by`.
    cnt: Vec<u32>,
    /// Whether a node already appears in `touched`.
    touched_mark: Vec<bool>,
    /// Nodes with a nonzero `cnt` row for the current splitter.
    touched: Vec<u32>,
    /// Scratch copy of the splitter's members (the splitter's own class may
    /// split while it is being processed).
    splitter: Vec<u32>,
    /// Number of processor nodes (the prefix of the linear index space).
    procs: usize,
}

impl Partition {
    fn new(graph: &SystemGraph, start: &Labeling) -> Partition {
        let n = graph.node_count();
        let mut class_of = vec![0u32; n];
        let mut remap: BTreeMap<u32, u32> = BTreeMap::new();
        let mut sizes: Vec<u32> = Vec::new();
        for (i, slot) in class_of.iter_mut().enumerate() {
            let node = Node::from_linear_index(i, graph.processor_count(), graph.variable_count());
            let l = start.of(node);
            let c = *remap.entry(l).or_insert_with(|| {
                sizes.push(0);
                (sizes.len() - 1) as u32
            });
            *slot = c;
            sizes[c as usize] += 1;
        }
        // Counting sort of nodes into contiguous class slices.
        let mut starts = Vec::with_capacity(sizes.len());
        let mut ends = Vec::with_capacity(sizes.len());
        let mut offset = 0u32;
        for &s in &sizes {
            starts.push(offset);
            ends.push(offset + s);
            offset += s;
        }
        let mut cursor = starts.clone();
        let mut elems = vec![0u32; n];
        let mut loc = vec![0u32; n];
        for (i, &c) in class_of.iter().enumerate() {
            let pos = cursor[c as usize];
            elems[pos as usize] = i as u32;
            loc[i] = pos;
            cursor[c as usize] += 1;
        }
        Partition {
            class_of,
            elems,
            loc,
            start: starts,
            end: ends,
            cnt: vec![0; n * graph.name_count()],
            touched_mark: vec![false; n],
            touched: Vec::with_capacity(n),
            splitter: Vec::new(),
            procs: graph.processor_count(),
        }
    }

    fn class_count(&self) -> usize {
        self.start.len()
    }

    fn class_len(&self, c: usize) -> usize {
        (self.end[c] - self.start[c]) as usize
    }

    /// Splits every class touched by splitter `b`. Returns, per class that
    /// actually split, the list of resulting class ids (old id first).
    fn split_by(&mut self, g: &SystemGraph, model: Model, b: usize) -> Vec<(usize, Vec<usize>)> {
        let names = g.name_count();
        let pc = self.procs;
        // Phase 1: accumulate per-name counts relative to B for every
        // affected node. For processors the count row is indexed by the
        // name whose neighbor is in B; for variables by the edge name of
        // each B-processor.
        self.splitter.clear();
        self.splitter
            .extend_from_slice(&self.elems[self.start[b] as usize..self.end[b] as usize]);
        for i in 0..self.splitter.len() {
            let m = self.splitter[i] as usize;
            if m < pc {
                // Splitter member is a processor: affect its variables.
                for (ni, &v) in g.processor_neighbors(ProcId::new(m)).iter().enumerate() {
                    let node = pc + v.index();
                    self.touch(node);
                    self.cnt[node * names + ni] += 1;
                }
            } else {
                // Splitter member is a variable: affect its processors.
                for &(p, name) in g.variable_edges(VarId::new(m - pc)) {
                    let node = p.index();
                    self.touch(node);
                    self.cnt[node * names + name.index()] += 1;
                }
            }
        }
        if !model.counts_neighbors() {
            // Set semantics: collapse counts to presence.
            for &node in &self.touched {
                let row = node as usize * names;
                for slot in &mut self.cnt[row..row + names] {
                    *slot = (*slot).min(1);
                }
            }
        }
        // Phase 2: group touched nodes by (class, count row). Untouched
        // class members implicitly carry the all-zero row.
        let mut touched = std::mem::take(&mut self.touched);
        {
            let class_of = &self.class_of;
            let cnt = &self.cnt;
            touched.sort_unstable_by(|&a, &b| {
                let (a, b) = (a as usize, b as usize);
                class_of[a]
                    .cmp(&class_of[b])
                    .then_with(|| {
                        cnt[a * names..a * names + names].cmp(&cnt[b * names..b * names + names])
                    })
                    .then_with(|| a.cmp(&b))
            });
        }
        // Phase 3: carve each class's signature groups into new classes by
        // in-place member swaps.
        let mut result = Vec::new();
        let mut i = 0;
        while i < touched.len() {
            let class = self.class_of[touched[i] as usize] as usize;
            let mut j = i;
            while j < touched.len() && self.class_of[touched[j] as usize] as usize == class {
                j += 1;
            }
            let touched_count = j - i;
            let has_untouched = touched_count < self.class_len(class);
            // Runs of equal count rows within touched[i..j].
            let mut runs: Vec<(usize, usize)> = Vec::new();
            let mut r = i;
            for k in i + 1..=j {
                if k == j || !rows_equal(&self.cnt, names, touched[k - 1], touched[k]) {
                    runs.push((r, k));
                    r = k;
                }
            }
            if runs.len() + usize::from(has_untouched) > 1 {
                // Keep the untouched members (if any) in the old class id;
                // otherwise keep the first group there.
                let mut part_ids = vec![class];
                let skip_first = !has_untouched;
                for (k, &(rs, re)) in runs.iter().enumerate() {
                    if skip_first && k == 0 {
                        continue;
                    }
                    let new_id = self.start.len();
                    let mut e = self.end[class];
                    for &node in &touched[rs..re] {
                        e -= 1;
                        let pos = self.loc[node as usize];
                        let other = self.elems[e as usize];
                        self.elems[e as usize] = node;
                        self.elems[pos as usize] = other;
                        self.loc[other as usize] = pos;
                        self.loc[node as usize] = e;
                        self.class_of[node as usize] = new_id as u32;
                    }
                    self.start.push(e);
                    self.end.push(self.end[class]);
                    self.end[class] = e;
                    part_ids.push(new_id);
                }
                result.push((class, part_ids));
            }
            i = j;
        }
        // Phase 4: reset the scratch rows of exactly the touched nodes.
        for &node in &touched {
            let row = node as usize * names;
            self.cnt[row..row + names].fill(0);
            self.touched_mark[node as usize] = false;
        }
        touched.clear();
        self.touched = touched;
        result
    }

    fn touch(&mut self, node: usize) {
        if !self.touched_mark[node] {
            self.touched_mark[node] = true;
            self.touched.push(node as u32);
        }
    }

    fn into_labeling(self, graph: &SystemGraph) -> Labeling {
        Labeling::from_raw(graph.processor_count(), &self.class_of)
    }
}

fn rows_equal(cnt: &[u32], names: usize, a: u32, b: u32) -> bool {
    let (a, b) = (a as usize * names, b as usize * names);
    cnt[a..a + names] == cnt[b..b + names]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::refinement_similarity;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use simsym_graph::topology;
    use simsym_vm::SystemInit;

    fn agree(graph: &SystemGraph, init: &SystemInit, model: Model) {
        let naive = refinement_similarity(graph, init, model);
        let fast = hopcroft_similarity(graph, init, model);
        assert_eq!(naive, fast, "partition mismatch on {graph:?} under {model}");
    }

    #[test]
    fn agrees_on_paper_figures() {
        for g in [
            topology::figure1(),
            topology::figure2(),
            topology::figure3(),
            topology::philosophers_table(5),
            topology::philosophers_alternating(6),
        ] {
            let init = SystemInit::uniform(&g);
            agree(&g, &init, Model::Q);
            agree(&g, &init, Model::BoundedFairS);
        }
    }

    #[test]
    fn agrees_on_marked_rings() {
        for n in [3, 4, 5, 8] {
            let g = topology::marked_ring(n);
            let init = SystemInit::uniform(&g);
            agree(&g, &init, Model::Q);
            agree(&g, &init, Model::BoundedFairS);
        }
    }

    #[test]
    fn agrees_on_lines_and_stars() {
        for g in [
            topology::line(6),
            topology::star(5),
            topology::shared_board(4, 3),
        ] {
            let init = SystemInit::uniform(&g);
            agree(&g, &init, Model::Q);
            agree(&g, &init, Model::BoundedFairS);
        }
    }

    #[test]
    fn agrees_on_random_systems() {
        let mut rng = StdRng::seed_from_u64(2026);
        for trial in 0..25 {
            let procs = 3 + (trial % 8);
            let vars = 2 + (trial % 5);
            let names = 1 + (trial % 3);
            let g = topology::random_system(procs, vars, names, &mut rng);
            let init = SystemInit::uniform(&g);
            agree(&g, &init, Model::Q);
            agree(&g, &init, Model::BoundedFairS);
        }
    }

    #[test]
    fn agrees_with_marked_inits() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..10 {
            let g = topology::random_system(5 + trial, 4, 2, &mut rng);
            let init = SystemInit::with_marked(&g, &[simsym_graph::ProcId::new(0)]);
            agree(&g, &init, Model::Q);
            agree(&g, &init, Model::BoundedFairS);
        }
    }

    #[test]
    fn large_ring_stays_coarse() {
        let g = topology::uniform_ring(512);
        let init = SystemInit::uniform(&g);
        let l = hopcroft_similarity(&g, &init, Model::Q);
        assert_eq!(l.class_count(), 2);
    }

    #[test]
    fn large_marked_ring_fully_splits() {
        let g = topology::marked_ring(128);
        let init = SystemInit::uniform(&g);
        let l = hopcroft_similarity(&g, &init, Model::Q);
        assert_eq!(l.proc_labels().len(), 128);
    }
}
