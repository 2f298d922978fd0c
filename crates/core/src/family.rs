//! Homogeneous families of systems (§5) and the `ELITE` label sets of
//! Theorems 7 and 9.
//!
//! A *family* is a set of systems with the same instruction set, schedule
//! class and `NAMES`; a **homogeneous** family additionally shares the
//! network topology, so members differ only in initial states. One program
//! must solve selection for *every* member. The similarity labeling of a
//! family is the similarity labeling of the (unconnected) **union system**
//! of all members — computed here with Algorithm 1 over the disjoint union,
//! which puts every member's labels in one shared label space.
//!
//! **Theorem 7**: a family of systems in Q has a selection algorithm iff
//! there is a set `ELITE` of processor labels such that each member
//! contains *exactly one* processor labeled in `ELITE`.

use crate::{hopcroft_similarity, Label, Labeling, Model};
use simsym_graph::{ProcId, SystemGraph};
use simsym_vm::SystemInit;
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// Errors constructing a [`Family`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FamilyError {
    /// A member's initial state does not match the shared network.
    MemberShapeMismatch {
        /// Index of the offending member.
        member: usize,
    },
    /// The family has no members.
    Empty,
    /// A member's name table differs from the first member's — systems of
    /// a family share `NAMES` by definition.
    NameMismatch {
        /// Index of the offending member.
        member: usize,
    },
}

impl fmt::Display for FamilyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FamilyError::MemberShapeMismatch { member } => {
                write!(f, "member {member} has an initial state of the wrong shape")
            }
            FamilyError::Empty => write!(f, "family has no members"),
            FamilyError::NameMismatch { member } => {
                write!(f, "member {member} uses a different name table")
            }
        }
    }
}

impl Error for FamilyError {}

/// A homogeneous family: one network, many initial states.
#[derive(Clone, Debug)]
pub struct Family {
    graph: SystemGraph,
    members: Vec<SystemInit>,
}

impl Family {
    /// Builds a family over `graph` with the given member initial states.
    ///
    /// # Errors
    ///
    /// Returns [`FamilyError::Empty`] with no members, or
    /// [`FamilyError::MemberShapeMismatch`] when a member's state vectors
    /// do not match the graph.
    pub fn new(graph: SystemGraph, members: Vec<SystemInit>) -> Result<Family, FamilyError> {
        if members.is_empty() {
            return Err(FamilyError::Empty);
        }
        for (i, m) in members.iter().enumerate() {
            if !m.matches(&graph) {
                return Err(FamilyError::MemberShapeMismatch { member: i });
            }
        }
        Ok(Family { graph, members })
    }

    /// The shared network.
    pub fn graph(&self) -> &SystemGraph {
        &self.graph
    }

    /// The member initial states.
    pub fn members(&self) -> &[SystemInit] {
        &self.members
    }

    /// Number of members.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Builds the (unconnected) union system of all members: the disjoint
    /// union of `member_count` copies of the network, with each copy's
    /// initial state taken from the corresponding member.
    pub fn union_system(&self) -> (SystemGraph, SystemInit) {
        let mut graph = self.graph.clone();
        for _ in 1..self.members.len() {
            let (g, _, _) = graph.disjoint_union(&self.graph);
            graph = g;
        }
        let mut proc_values = Vec::new();
        let mut var_values = Vec::new();
        for m in &self.members {
            proc_values.extend(m.proc_values.iter().cloned());
            var_values.extend(m.var_values.iter().cloned());
        }
        (
            graph,
            SystemInit {
                proc_values,
                var_values,
            },
        )
    }

    /// The similarity labeling of the family: Algorithm 1 on the union
    /// system (shared label space). Returns the union labeling plus, per
    /// member, the labels of its processors (`member_proc_labels[m][p]`).
    pub fn similarity(&self, model: Model) -> (Labeling, Vec<Vec<Label>>) {
        let (ugraph, uinit) = self.union_system();
        let labeling = hopcroft_similarity(&ugraph, &uinit, model);
        let n = self.graph.processor_count();
        let per_member = (0..self.members.len())
            .map(|m| {
                (0..n)
                    .map(|p| labeling.proc_label(ProcId::new(m * n + p)))
                    .collect()
            })
            .collect();
        (labeling, per_member)
    }

    /// Computes an `ELITE` set for the family (Theorem 7): a set of
    /// processor labels such that every member has **exactly one**
    /// processor labeled in the set. Returns `None` when no such set
    /// exists — in which case the family has no selection algorithm.
    pub fn elite(&self, model: Model) -> Option<EliteSet> {
        let (_, member_labels) = self.similarity(model);
        elite_from_member_labels(&member_labels)
    }
}

/// A *general* family (§5): systems sharing `NAMES` (and instruction set
/// and schedule type) but possibly differing in **topology** as well as
/// initial states. The similarity labeling is still the labeling of the
/// disjoint union, and Theorem 7's `ELITE` criterion still decides
/// selection.
///
/// (The two-phase Algorithm 3 is specific to *homogeneous* families;
/// for general families the decision is available here and the
/// label-learning requires bounded fairness, per Theorem 6's unconnected
/// case.)
#[derive(Clone, Debug)]
pub struct GeneralFamily {
    members: Vec<(SystemGraph, SystemInit)>,
}

impl GeneralFamily {
    /// Builds a general family.
    ///
    /// # Errors
    ///
    /// * [`FamilyError::Empty`] with no members;
    /// * [`FamilyError::MemberShapeMismatch`] when a member's init does
    ///   not match its graph;
    /// * [`FamilyError::NameMismatch`] when members disagree on `NAMES`.
    pub fn new(members: Vec<(SystemGraph, SystemInit)>) -> Result<GeneralFamily, FamilyError> {
        if members.is_empty() {
            return Err(FamilyError::Empty);
        }
        for (i, (g, init)) in members.iter().enumerate() {
            if !init.matches(g) {
                return Err(FamilyError::MemberShapeMismatch { member: i });
            }
            if g.names() != members[0].0.names() {
                return Err(FamilyError::NameMismatch { member: i });
            }
        }
        Ok(GeneralFamily { members })
    }

    /// The members.
    pub fn members(&self) -> &[(SystemGraph, SystemInit)] {
        &self.members
    }

    /// The union system over all members.
    pub fn union_system(&self) -> (SystemGraph, SystemInit) {
        let mut graph = self.members[0].0.clone();
        for (g, _) in &self.members[1..] {
            let (u, _, _) = graph.disjoint_union(g);
            graph = u;
        }
        let mut proc_values = Vec::new();
        let mut var_values = Vec::new();
        for (_, init) in &self.members {
            proc_values.extend(init.proc_values.iter().cloned());
            var_values.extend(init.var_values.iter().cloned());
        }
        (
            graph,
            SystemInit {
                proc_values,
                var_values,
            },
        )
    }

    /// The family similarity labeling: Algorithm 1 on the union, plus the
    /// per-member processor labels (members have different sizes here).
    pub fn similarity(&self, model: Model) -> (Labeling, Vec<Vec<Label>>) {
        let (ugraph, uinit) = self.union_system();
        let labeling = hopcroft_similarity(&ugraph, &uinit, model);
        let mut out = Vec::with_capacity(self.members.len());
        let mut offset = 0usize;
        for (g, _) in &self.members {
            let n = g.processor_count();
            out.push(
                (0..n)
                    .map(|p| labeling.proc_label(ProcId::new(offset + p)))
                    .collect(),
            );
            offset += n;
        }
        (labeling, out)
    }

    /// Theorem 7's decision: an `ELITE` set hitting every member exactly
    /// once, or `None` (no selection algorithm for the family).
    pub fn elite(&self, model: Model) -> Option<EliteSet> {
        let (_, member_labels) = self.similarity(model);
        elite_from_member_labels(&member_labels)
    }
}

/// An `ELITE` set of processor labels plus, per member, which processor it
/// elects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EliteSet {
    /// The elite labels.
    pub labels: BTreeSet<Label>,
    /// The unique elite processor of each member.
    pub elected: Vec<ProcId>,
}

/// Core combinatorial step shared by Theorem 7 and Theorem 9: given each
/// member's multiset of processor labels (in a common label space), find a
/// set of labels hitting every member exactly once.
///
/// Tries the greedy loop from the proof of Theorem 9 first; when the
/// greedy invariant fails (possible with sampled versions), falls back to
/// an exact exponential search over candidate labels, so `None` is a
/// *certificate* that no `ELITE` exists.
pub fn elite_from_member_labels(member_labels: &[Vec<Label>]) -> Option<EliteSet> {
    let counts: Vec<BTreeMap<Label, usize>> = member_labels
        .iter()
        .map(|ls| {
            let mut m = BTreeMap::new();
            for &l in ls {
                *m.entry(l).or_insert(0) += 1;
            }
            m
        })
        .collect();
    let elite = greedy_elite(&counts)
        .filter(|e| verify_elite(&counts, e))
        .or_else(|| exact_elite(&counts))?;
    let elected = member_labels
        .iter()
        .map(|ls| {
            let hits: Vec<ProcId> = ls
                .iter()
                .enumerate()
                .filter(|(_, l)| elite.contains(l))
                .map(|(i, _)| ProcId::new(i))
                .collect();
            debug_assert_eq!(hits.len(), 1);
            hits[0]
        })
        .collect();
    Some(EliteSet {
        labels: elite,
        elected,
    })
}

fn verify_elite(counts: &[BTreeMap<Label, usize>], elite: &BTreeSet<Label>) -> bool {
    counts.iter().all(|m| {
        m.iter()
            .filter(|(l, _)| elite.contains(l))
            .map(|(_, &c)| c)
            .sum::<usize>()
            == 1
    })
}

/// The greedy loop from the proof of Theorem 9: the first member with no
/// elite label yet takes its first label (in label order) that it
/// carries once and that is safe globally — no member carries it twice or
/// alongside an elite label. Each label's carriers are indexed once, so
/// a step costs the labels it tries, not a scan of every member.
fn greedy_elite(counts: &[BTreeMap<Label, usize>]) -> Option<BTreeSet<Label>> {
    let mut carriers: BTreeMap<Label, Vec<(usize, usize)>> = BTreeMap::new();
    for (m, labels) in counts.iter().enumerate() {
        for (&l, &c) in labels {
            carriers.entry(l).or_default().push((m, c));
        }
    }
    let mut elite: BTreeSet<Label> = BTreeSet::new();
    // Whether each member carries an elite label; a member, once covered,
    // stays covered.
    let mut covered = vec![false; counts.len()];
    let mut next = 0;
    loop {
        while covered.get(next) == Some(&true) {
            next += 1;
        }
        let Some(member) = counts.get(next) else {
            return Some(elite);
        };
        // Usable only when it does not over-cover any member.
        let (&l, _) = member
            .iter()
            .find(|(l, &c)| c == 1 && carriers[*l].iter().all(|&(m, c)| c <= 1 && !covered[m]))?;
        elite.insert(l);
        for &(m, _) in &carriers[&l] {
            covered[m] = true;
        }
    }
}

/// Exact-cover search: every member must be covered exactly once.
fn exact_elite(counts: &[BTreeMap<Label, usize>]) -> Option<BTreeSet<Label>> {
    // Labels usable at all: count <= 1 in every member.
    let mut labels: BTreeSet<Label> = BTreeSet::new();
    for m in counts {
        labels.extend(m.keys().copied());
    }
    let usable: Vec<Label> = labels
        .into_iter()
        .filter(|l| counts.iter().all(|m| m.get(l).copied().unwrap_or(0) <= 1))
        .collect();
    let mut chosen = BTreeSet::new();
    let mut covered = vec![false; counts.len()];
    fn dfs(
        counts: &[BTreeMap<Label, usize>],
        usable: &[Label],
        chosen: &mut BTreeSet<Label>,
        covered: &mut [bool],
    ) -> bool {
        // Pick the uncovered member with the fewest usable labels.
        let target = (0..counts.len())
            .filter(|&m| !covered[m])
            .min_by_key(|&m| usable.iter().filter(|l| counts[m].contains_key(l)).count());
        let Some(target) = target else {
            return true; // all covered exactly once
        };
        let candidates: Vec<Label> = usable
            .iter()
            .copied()
            .filter(|l| counts[target].contains_key(l) && !chosen.contains(l))
            .collect();
        'next: for l in candidates {
            // Adding l must not double-cover any member.
            let mut newly = Vec::new();
            for (m, c) in counts.iter().enumerate() {
                if c.get(&l).copied().unwrap_or(0) > 0 {
                    if covered[m] {
                        continue 'next;
                    }
                    newly.push(m);
                }
            }
            chosen.insert(l);
            for &m in &newly {
                covered[m] = true;
            }
            if dfs(counts, usable, chosen, covered) {
                return true;
            }
            chosen.remove(&l);
            for &m in &newly {
                covered[m] = false;
            }
        }
        false
    }
    dfs(counts, &usable, &mut chosen, &mut covered).then_some(chosen)
}

// ---------------------------------------------------------------------------
// Scale tier: 10^5–10^6-processor homogeneous families.
//
// Everything below exists so the 100k–1M tier is constructible on a small
// container: the topologies build through `SystemGraph::from_fn` (three flat
// allocations, no per-node maps), the initial states are uniform `Vec`s of
// `Value::Unit`, and the workload program touches O(1) state per step with a
// hard post budget, so shared-memory footprint stays bounded by the edge
// count no matter how long the schedule runs.
// ---------------------------------------------------------------------------

/// A scale-tier system: a CSR-backed graph plus its uniform initial state.
/// The pair is exactly what [`simsym_vm::Machine::new`] wants; the struct
/// exists so constructors can also report their memory footprint.
pub struct ScaleSystem {
    /// The network, CSR-backed.
    pub graph: SystemGraph,
    /// The fully symmetric initial state.
    pub init: SystemInit,
}

impl ScaleSystem {
    fn uniform(graph: SystemGraph) -> ScaleSystem {
        let init = SystemInit::uniform(&graph);
        ScaleSystem { graph, init }
    }

    /// Approximate bytes the *adjacency* costs, before any machine state.
    pub fn graph_bytes(&self) -> usize {
        self.graph.approx_bytes()
    }
}

/// A scale-tier uniform ring of `n` processors (Figure 4 topology).
pub fn scale_ring(n: usize) -> ScaleSystem {
    ScaleSystem::uniform(simsym_graph::topology::uniform_ring(n))
}

/// A scale-tier alternating table of `n` philosophers (even `n`,
/// Figure 5 topology).
pub fn scale_table(n: usize) -> ScaleSystem {
    ScaleSystem::uniform(simsym_graph::topology::philosophers_alternating(n))
}

/// A scale-tier `dim`-dimensional hypercube: `2^dim` processors
/// (`dim = 17` ≈ 10^5, `dim = 20` ≈ 10^6).
pub fn scale_hypercube(dim: usize) -> ScaleSystem {
    ScaleSystem::uniform(simsym_graph::topology::hypercube(dim))
}

/// The budgeted Q workload for the scale tier: round `r` posts
/// `Int(r)` to the processor's name `r mod |NAMES|` while `r` is under the
/// post budget, then peeks that name and accumulates the observed multiset
/// size into `seen`. Every step performs exactly one shared operation and
/// touches O(1) local state, and because a Q `post` *replaces* the poster's
/// subvalue, shared memory is bounded by the edge count — the program can
/// run forever on a 10^6-processor system without growing.
///
/// The program is processor-id-independent (it depends only on the local
/// round counter), so it is a legal §2 program and runs identically on
/// every member of a homogeneous family.
pub struct ScaleWorkload {
    /// How many leading rounds post before the program settles into
    /// peek-only steady state.
    pub post_budget: u32,
}

impl ScaleWorkload {
    /// A workload posting for `post_budget` rounds, then peeking forever.
    pub fn new(post_budget: u32) -> ScaleWorkload {
        ScaleWorkload { post_budget }
    }

    fn regs() -> (simsym_vm::RegId, simsym_vm::RegId) {
        static REGS: std::sync::OnceLock<(simsym_vm::RegId, simsym_vm::RegId)> =
            std::sync::OnceLock::new();
        *REGS.get_or_init(|| {
            (
                simsym_vm::RegId::intern("round"),
                simsym_vm::RegId::intern("seen"),
            )
        })
    }
}

impl simsym_vm::Program for ScaleWorkload {
    /// Boots with **no registers at all** — the workload never reads
    /// `init`, and at 10^6 processors skipping the per-processor register
    /// vector turns boot into two flat allocations for the whole machine.
    /// (The default boot's one-tiny-alloc-per-processor pattern is also
    /// what drives glibc's heap-trim pathology on small containers.)
    fn boot(&self, _initial: &simsym_vm::Value) -> simsym_vm::LocalState {
        simsym_vm::LocalState::new()
    }

    fn step(&self, local: &mut simsym_vm::LocalState, ops: &mut simsym_vm::OpEnv<'_>) {
        let (r_round, r_seen) = Self::regs();
        let round = local
            .reg_opt(r_round)
            .and_then(simsym_vm::Value::as_int)
            .unwrap_or(0);
        let name = ops.name_at(round as usize % ops.name_count());
        if (round as u64) < u64::from(self.post_budget) {
            ops.post(name, simsym_vm::Value::from(round));
        } else {
            let observed = ops.peek(name).posted_len() as i64;
            let seen = local
                .reg_opt(r_seen)
                .and_then(simsym_vm::Value::as_int)
                .unwrap_or(0);
            local.set_reg(r_seen, simsym_vm::Value::from(seen + observed));
        }
        local.set_reg(r_round, simsym_vm::Value::from(round + 1));
    }

    fn name(&self) -> &str {
        "scale-diffusion"
    }

    fn static_spec(&self) -> Option<simsym_vm::ProgramSpec> {
        use simsym_vm::{OpKind, PhaseSpec, PortSet, ProgramSpec};
        Some(
            ProgramSpec::new("scale-diffusion", 0).phase(
                PhaseSpec::new(0, "diffuse")
                    .reads(&["round", "seen"])
                    .writes(&["round", "seen"])
                    .op(OpKind::Post, PortSet::All)
                    .op(OpKind::Peek, PortSet::All)
                    .succs(&[0]),
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simsym_graph::topology;
    use simsym_vm::Value;

    #[test]
    fn family_validation() {
        let g = topology::uniform_ring(3);
        assert_eq!(
            Family::new(g.clone(), vec![]).unwrap_err(),
            FamilyError::Empty
        );
        let bad = SystemInit {
            proc_values: vec![Value::Unit],
            var_values: vec![],
        };
        assert!(matches!(
            Family::new(g.clone(), vec![bad]).unwrap_err(),
            FamilyError::MemberShapeMismatch { member: 0 }
        ));
        let ok = Family::new(g.clone(), vec![SystemInit::uniform(&g)]).unwrap();
        assert_eq!(ok.member_count(), 1);
    }

    #[test]
    fn union_system_shapes() {
        let g = topology::uniform_ring(3);
        let fam = Family::new(
            g.clone(),
            vec![SystemInit::uniform(&g), SystemInit::uniform(&g)],
        )
        .unwrap();
        let (ug, ui) = fam.union_system();
        assert_eq!(ug.processor_count(), 6);
        assert_eq!(ug.variable_count(), 6);
        assert!(ui.matches(&ug));
        assert!(!ug.is_connected());
    }

    #[test]
    fn single_member_family_with_mark_elects() {
        let g = topology::uniform_ring(3);
        let init = SystemInit::with_marked(&g, &[ProcId::new(1)]);
        let fam = Family::new(g, vec![init]).unwrap();
        let elite = fam.elite(Model::Q).expect("marked ring has a leader");
        // Marking p1 in an oriented ring makes *every* processor uniquely
        // labeled, so ELITE may elect any one of them — but exactly one.
        assert_eq!(elite.elected.len(), 1);
        assert_eq!(elite.labels.len(), 1);
    }

    #[test]
    fn symmetric_member_blocks_family() {
        // Two members: one marked (leader exists), one uniform (all
        // similar). The family cannot elect: the uniform member gives
        // every processor a shadowed label.
        let g = topology::uniform_ring(3);
        let marked = SystemInit::with_marked(&g, &[ProcId::new(0)]);
        let uniform = SystemInit::uniform(&g);
        let fam = Family::new(g, vec![marked, uniform]).unwrap();
        assert!(fam.elite(Model::Q).is_none());
    }

    #[test]
    fn two_marked_members_need_two_labels() {
        // Member A marks p0, member B marks p2 with a *different* value:
        // union similarity gives different labels; ELITE must cover both.
        let g = topology::uniform_ring(3);
        let a = SystemInit::with_marked(&g, &[ProcId::new(0)]);
        let mut b = SystemInit::uniform(&g);
        b.proc_values[2] = Value::from(99);
        let fam = Family::new(g, vec![a, b]).unwrap();
        let elite = fam.elite(Model::Q).expect("both members have leaders");
        // One elected processor per member (which one is ELITE's choice:
        // both members have all processors uniquely labeled).
        assert_eq!(elite.elected.len(), 2);
    }

    #[test]
    fn identical_members_share_labels() {
        let g = topology::uniform_ring(3);
        let init = SystemInit::with_marked(&g, &[ProcId::new(0)]);
        let fam = Family::new(g, vec![init.clone(), init]).unwrap();
        let (_, member_labels) = fam.similarity(Model::Q);
        assert_eq!(member_labels[0], member_labels[1]);
        let elite = fam.elite(Model::Q).expect("family elects");
        assert_eq!(elite.labels.len(), 1);
        assert_eq!(elite.elected, vec![ProcId::new(0), ProcId::new(0)]);
    }

    #[test]
    fn elite_from_labels_exact_cover() {
        // Greedy would fail here without the safety check: member 0 has
        // unique labels {1, 2}, member 1 has {2, 3} with 2 appearing twice
        // only in member... craft: m0 = [1, 2], m1 = [2, 2, 3].
        // Choosing 2 for m0 over-covers m1; exact search must pick {1, 3}
        // or {1}? m0 needs exactly one of {1, 2}; m1 exactly one of
        // {2(x2 - unusable), 3}. So ELITE = {1, 3} — 1 covers m0 only,
        // 3 covers m1 only.
        let members = vec![vec![1, 2], vec![2, 2, 3]];
        let elite = elite_from_member_labels(&members).expect("solvable");
        assert_eq!(elite.labels, BTreeSet::from([1, 3]));
        assert_eq!(elite.elected, vec![ProcId::new(0), ProcId::new(2)]);
    }

    #[test]
    fn elite_impossible_when_member_all_shadowed() {
        // Member 1 has every label duplicated: no usable label covers it.
        let members = vec![vec![1, 2], vec![3, 3, 4, 4]];
        assert!(elite_from_member_labels(&members).is_none());
    }

    #[test]
    fn elite_requires_exactly_one_not_at_least_one() {
        // A label set covering member 0 twice is invalid; only {5} works:
        // m0 = [5, 6], m1 = [6, 7]: choosing {6} covers both exactly once!
        let members = vec![vec![5, 6], vec![6, 7]];
        let elite = elite_from_member_labels(&members).expect("solvable");
        // Any valid answer covers each member exactly once.
        for m in &members {
            let c: usize = m.iter().filter(|l| elite.labels.contains(l)).count();
            assert_eq!(c, 1);
        }
    }

    #[test]
    fn general_family_mixed_topologies() {
        // Member A: figure1 with p0 marked; member B: a 1-processor
        // system over the same single name "n" with a private variable.
        let a_graph = topology::figure1();
        let a_init = SystemInit::with_marked(&a_graph, &[ProcId::new(0)]);
        let mut b = SystemGraph::builder();
        let n = b.name("n");
        let p = b.processor();
        let v = b.variable();
        b.connect(p, n, v).unwrap();
        let b_graph = b.build().unwrap();
        let b_init = SystemInit::uniform(&b_graph);
        let fam = GeneralFamily::new(vec![(a_graph, a_init), (b_graph, b_init)]).unwrap();
        let (ug, ui) = fam.union_system();
        assert_eq!(ug.processor_count(), 3);
        assert!(ui.matches(&ug));
        // Both members have a uniquely identifiable processor (A: the
        // marked one — the unmarked one shares nothing with B's because
        // B's variable has one writer while A's has two).
        let elite = fam.elite(Model::Q).expect("family selects");
        assert_eq!(elite.elected.len(), 2);
    }

    #[test]
    fn general_family_with_symmetric_member_fails() {
        let a = topology::figure1();
        let fam = GeneralFamily::new(vec![
            (a.clone(), SystemInit::uniform(&a)),
            (a.clone(), SystemInit::with_marked(&a, &[ProcId::new(1)])),
        ])
        .unwrap();
        assert!(fam.elite(Model::Q).is_none(), "the uniform member blocks");
    }

    #[test]
    fn general_family_rejects_name_mismatch() {
        let a = topology::figure1(); // name "n"
        let b = topology::uniform_ring(2); // names left/right
        let err = GeneralFamily::new(vec![
            (a.clone(), SystemInit::uniform(&a)),
            (b.clone(), SystemInit::uniform(&b)),
        ])
        .unwrap_err();
        assert!(matches!(err, FamilyError::NameMismatch { member: 1 }));
        assert!(err.to_string().contains("name table"));
    }

    #[test]
    fn family_error_display() {
        assert!(FamilyError::Empty.to_string().contains("no members"));
    }

    #[test]
    fn scale_constructors_build_100k_tier_quickly() {
        let t = std::time::Instant::now();
        let ring = scale_ring(100_000);
        let cube = scale_hypercube(17); // 131,072 processors
        let table = scale_table(100_000);
        assert!(
            t.elapsed() < std::time::Duration::from_secs(5),
            "scale construction took {:?}",
            t.elapsed()
        );
        assert_eq!(ring.graph.processor_count(), 100_000);
        assert_eq!(cube.graph.processor_count(), 1 << 17);
        assert_eq!(table.graph.processor_count(), 100_000);
        assert!(ring.init.matches(&ring.graph));
        // The CSR adjacency must stay lean: well under 100 bytes per
        // processor for a degree-2 ring.
        assert!(
            ring.graph_bytes() / 100_000 < 100,
            "ring adjacency is {} bytes/processor",
            ring.graph_bytes() / 100_000
        );
    }

    #[test]
    fn scale_workload_runs_budgeted_on_100k_ring() {
        use simsym_vm::{run, InstructionSet, Machine, Program, RoundRobin};
        use std::sync::Arc;
        let n = 100_000;
        let sys = scale_ring(n);
        let workload = ScaleWorkload::new(2);
        workload
            .static_spec()
            .expect("workload declares a spec")
            .validate()
            .expect("spec is well-formed");
        let mut m = Machine::new(
            Arc::new(sys.graph),
            InstructionSet::Q,
            Arc::new(workload),
            &sys.init,
        )
        .unwrap();
        // Four round-robin passes: two posting rounds, two peeking rounds.
        let mut sched = RoundRobin::new();
        let report = run(&mut m, &mut sched, 4 * n as u64, &mut []);
        assert_eq!(report.steps, 4 * n as u64);
        // After every processor posted to both its names, each ring
        // variable holds exactly its two neighbors' subvalues, so each
        // processor's final peek observed 2 and `seen` sums to 2 per
        // peeking round.
        let r_seen = simsym_vm::RegId::intern("seen");
        for p in m.graph().processors().take(16) {
            assert_eq!(
                m.local(p).reg(r_seen).as_int(),
                Some(4),
                "processor {p:?} saw a wrong multiset size"
            );
        }
        // Shared state is bounded: two subvalues per ring variable, three
        // registers per processor — a few hundred bytes each, not kilobytes.
        let bytes = m.approx_state_bytes();
        assert!(
            bytes / n < 512,
            "machine state is {} bytes/processor",
            bytes / n
        );
        // The 10^6 tier boots as lean: adjacency plus machine state stays
        // within 140 bytes per processor.
        let n = 1_000_000;
        let sys = scale_ring(n);
        let m = Machine::new(
            Arc::new(sys.graph),
            InstructionSet::Q,
            Arc::new(ScaleWorkload::new(2)),
            &sys.init,
        )
        .unwrap();
        let per_proc = (m.graph().approx_bytes() + m.approx_state_bytes()) / n;
        assert!(per_proc <= 140, "10^6 ring is {per_proc} bytes/processor");
    }
}
