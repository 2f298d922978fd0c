//! State-space reducers for the schedule explorer.
//!
//! The paper's central observation — processors with equal similarity
//! labels are interchangeable — is exactly a *state-space reduction*: if
//! `π` is an automorphism of the system graph that preserves the initial
//! state, then a global state `σ` is reachable iff `π·σ` is (permute the
//! schedule by `π`), and both sides select symmetric processor sets. The
//! explorer therefore only needs one representative per orbit of the
//! automorphism group `Γ = Aut(N, state₀)`.
//!
//! A [`Reducer`] packages the two halves of that argument:
//!
//! * **canonicalization** — [`Reducer::canonical_fingerprint`] maps the
//!   machine's current state to a dedup key; [`SimilarityQuotient`] takes
//!   the minimum over `Γ` of a permuted 128-bit state key, so all states
//!   of one orbit collapse to one key. Soundness needs `Γ` closed under
//!   composition (two states with equal minima are related by
//!   `π₂⁻¹·π₁ ∈ Γ`), which is why the full group is enumerated rather
//!   than a generating set. Both keys are built from the machine's
//!   position-free 128-bit node digests: [`Identity`] reads the
//!   incremental fingerprint, the XOR of every digest placed at its own
//!   node, and the quotient places each digest at its image under `π`
//!   instead, renaming Q subvalue owners by swapping only the terms of
//!   owners `π` moves. No state is rehashed per permutation, and a
//!   trivial group costs nothing over [`Identity`]. The digests hash
//!   register names and values, never interned ids, so a key is the
//!   same in every process;
//! * **outcome closure** — the quotient search visits one orbit
//!   representative, so every observed selected-set is re-expanded
//!   through `Γ` ([`Reducer::expand_outcome`]); the identity oracle's
//!   outcome set is automatically `Γ`-closed, making the two sets equal.
//!
//! [`Por`] adds persistent-set partial-order reduction on top of any
//! canonicalizer (`Por<Identity>` is plain POR, `Por<SimilarityQuotient>`
//! is `quotient ∘ por`). Its ample sets come from [`Reducer::ample`] over
//! per-step probe data; see that method for the commutation argument.
//!
//! [`VisitedSet`] is the visited-store abstraction shared by all
//! reducers: a hash-set of canonical keys with byte accounting, so
//! reduction factors can be read off as memory saved, not just states
//! skipped.

use crate::digest::{place, rename_owners, xor_into, Digest};
use crate::value::InternedValues;
use crate::{Machine, SystemInit, Value};
use simsym_graph::automorphism::{automorphism_group, Automorphism};
use simsym_graph::{CsrAdjacency, ProcId, SystemGraph, VarId};
use std::collections::{BTreeSet, HashSet};
use std::hash::Hash;

/// Largest automorphism group [`SimilarityQuotient::new`] will enumerate
/// before falling back to the identity-only (no-reduction) group.
pub const GROUP_CAP: usize = 4096;

/// What one exploratory probe of a processor's next step observed, handed
/// to [`Reducer::ample`] so partial-order reducers can pick a subset of
/// processors to expand.
#[derive(Clone, Debug)]
pub struct ProbedStep {
    /// The probed processor.
    pub proc: ProcId,
    /// Whether the step changes the (canonical) state — halted processors
    /// probe as unchanged and never seed an ample set.
    pub changed: bool,
    /// Whether the step flips the stepping processor's `selected` flag or
    /// records a model violation. Visible steps must not be commuted past
    /// other processors' steps, so they disqualify an ample set.
    pub visible: bool,
    /// The shared variables the step addressed ([`crate::OpRecord`]
    /// targets).
    pub targets: Vec<VarId>,
    /// Whether the successor's canonical key is on the DFS stack — the
    /// ingredient of the cycle proviso (an ample set all of whose
    /// successors close cycles would let the search ignore the other
    /// processors forever).
    pub succ_on_stack: bool,
}

/// A pluggable state-space reduction for [`crate::explore_with`].
///
/// Implementations must preserve the two properties the explorer
/// certifies: the set of reachable selected-sets (outcomes), and the
/// reachability of a state with two selected processors (Uniqueness
/// violations). [`Identity`] is the oracle; property tests pin the other
/// reducers to it on small instances.
pub trait Reducer {
    /// Stable label used in reports (`"none"`, `"quotient"`, `"por"`, …).
    fn name(&self) -> &'static str;

    /// Canonical 128-bit dedup key of the machine's current global state.
    /// States mapped to the same key must be reachability- and
    /// outcome-equivalent.
    fn canonical_fingerprint(&mut self, m: &Machine) -> (u64, u64);

    /// `|Γ|` — how many automorphisms the canonicalization quotients by
    /// (1 for identity and plain POR).
    fn group_order(&self) -> usize {
        1
    }

    /// Whether the group enumeration hit [`GROUP_CAP`] and fell back to
    /// the identity-only group — reports must then not read
    /// `group_order() == 1` as "the system is asymmetric".
    fn group_capped(&self) -> bool {
        false
    }

    /// Inserts `selected` *and its closure under the reducer's symmetry
    /// group* into `out`, so a quotient search reports the same outcome
    /// set the unreduced search would.
    fn expand_outcome(&self, selected: &[ProcId], out: &mut BTreeSet<Vec<ProcId>>);

    /// Whether the explorer should probe steps and ask [`Reducer::ample`]
    /// for a reduced expansion set at every state.
    fn uses_por(&self) -> bool {
        false
    }

    /// Chooses a proper ample subset of the probed steps (indices into
    /// `probes`), or `None` to expand every processor.
    fn ample(&self, probes: &[ProbedStep]) -> Option<Vec<usize>> {
        let _ = probes;
        None
    }
}

/// Today's behavior: raw incremental fingerprints, no symmetry, no POR.
/// Kept as the oracle every other reducer is cross-checked against.
#[derive(Clone, Copy, Debug, Default)]
pub struct Identity;

impl Reducer for Identity {
    fn name(&self) -> &'static str {
        "none"
    }

    fn canonical_fingerprint(&mut self, m: &Machine) -> (u64, u64) {
        m.incremental_fingerprint()
            .unwrap_or_else(|| m.wide_fingerprint())
    }

    fn expand_outcome(&self, selected: &[ProcId], out: &mut BTreeSet<Vec<ProcId>>) {
        out.insert(selected.to_vec());
    }
}

impl<R: Reducer + ?Sized> Reducer for Box<R> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn canonical_fingerprint(&mut self, m: &Machine) -> (u64, u64) {
        (**self).canonical_fingerprint(m)
    }
    fn group_order(&self) -> usize {
        (**self).group_order()
    }
    fn group_capped(&self) -> bool {
        (**self).group_capped()
    }
    fn expand_outcome(&self, selected: &[ProcId], out: &mut BTreeSet<Vec<ProcId>>) {
        (**self).expand_outcome(selected, out)
    }
    fn uses_por(&self) -> bool {
        (**self).uses_por()
    }
    fn ample(&self, probes: &[ProbedStep]) -> Option<Vec<usize>> {
        (**self).ample(probes)
    }
}

/// Canonicalizes states modulo the similarity group `Γ = Aut(N, state₀)`:
/// the canonical fingerprint of `σ` is `min over π ∈ Γ` of the 128-bit
/// state key of `π·σ`, so all states of one `Γ`-orbit dedup to one
/// visited entry — "verified up to depth d **modulo Aut(N)**".
///
/// A state key is the XOR over nodes of a node's position-free digest
/// placed at its position; the identity permutation gives exactly the
/// machine's incremental fingerprint. `π·σ` places node `i`'s digest at
/// node `π(i)` and renames the owners of Q subvalues through `π`, which
/// swaps only the digest terms of the owners `π` moves. Local states
/// carry no processor identities in the paper's anonymous common-program
/// model, so their digests move unchanged.
#[derive(Clone, Debug)]
pub struct SimilarityQuotient {
    proc_count: usize,
    /// Node permutations over the linear index space, identity included;
    /// always a full group (closed under composition and inverse).
    perms: Vec<Vec<usize>>,
    /// Whether the group enumeration bailed at [`GROUP_CAP`] and `perms`
    /// is the identity-only fallback rather than the true `Aut(N, state₀)`.
    capped: bool,
    /// Node digests of machines without an incremental fingerprint,
    /// reused across calls.
    scratch: Vec<Digest>,
}

impl SimilarityQuotient {
    /// Computes `Aut(N, state₀)` — automorphisms of `graph` preserving
    /// the initial values in `init` — and builds the quotient reducer.
    /// Falls back to the identity-only group (no reduction) if the group
    /// exceeds [`GROUP_CAP`].
    pub fn new(graph: &SystemGraph, init: &SystemInit) -> SimilarityQuotient {
        let colors = init_colors(graph, init);
        match automorphism_group(graph, Some(&colors), GROUP_CAP) {
            Some(group) => Self::from_automorphisms(graph, &group),
            None => Self::from_automorphisms(graph, &[Automorphism::identity(graph)]).mark_capped(),
        }
    }

    /// Builds the reducer from an explicit automorphism list. The list
    /// must be closed under composition (a group or subgroup) for the
    /// canonical form to be sound; [`automorphism_group`] guarantees
    /// this.
    pub fn from_automorphisms(graph: &SystemGraph, autos: &[Automorphism]) -> SimilarityQuotient {
        let perms = if autos.is_empty() {
            vec![Automorphism::identity(graph).node_map().to_vec()]
        } else {
            autos.iter().map(|a| a.node_map().to_vec()).collect()
        };
        SimilarityQuotient {
            proc_count: graph.processor_count(),
            perms,
            capped: false,
            scratch: Vec::new(),
        }
    }

    /// Records that the group enumeration hit [`GROUP_CAP`], so this
    /// reducer's identity-only group is a *fallback*, not the true
    /// `Aut(N, state₀)`. Builders that enumerate the group themselves
    /// (e.g. `simsym_core::similarity_group`) call this when their
    /// enumeration bailed.
    pub fn mark_capped(mut self) -> SimilarityQuotient {
        self.capped = true;
        self
    }

    /// The size of the group being quotiented by.
    pub fn automorphism_count(&self) -> usize {
        self.perms.len()
    }
}

/// Initial node colors from a [`SystemInit`]: densified ranks of the
/// initial values over the linear node index space, the `state₀`
/// constraint on `Aut(N, state₀)`.
pub fn init_colors(graph: &SystemGraph, init: &SystemInit) -> Vec<u64> {
    let mut distinct: Vec<&Value> = init
        .proc_values
        .iter()
        .chain(init.var_values.iter())
        .collect();
    distinct.sort();
    distinct.dedup();
    let rank = |v: &Value| -> u64 {
        distinct
            .binary_search_by(|probe| probe.cmp(&v))
            .expect("value present") as u64
    };
    let _ = graph;
    init.proc_values
        .iter()
        .map(&rank)
        .chain(init.var_values.iter().map(&rank))
        .collect()
}

impl Reducer for SimilarityQuotient {
    fn name(&self) -> &'static str {
        "quotient"
    }

    fn canonical_fingerprint(&mut self, m: &Machine) -> (u64, u64) {
        if self.perms.len() == 1 {
            // The trivial group (or the GROUP_CAP fallback): the only
            // image is the identity key.
            return Identity.canonical_fingerprint(m);
        }
        let pc = self.proc_count;
        let vars = m.shared_vars();
        let digests = m.node_digests(&mut self.scratch);
        debug_assert_eq!(digests.len(), pc + vars.len());
        let values = InternedValues::read();
        let mut best = (u64::MAX, u64::MAX);
        for perm in &self.perms {
            let mut key = (0, 0);
            for (i, &d) in digests[..pc].iter().enumerate() {
                xor_into(&mut key, place(perm[i], d));
            }
            for (j, (&d, v)) in digests[pc..].iter().zip(vars).enumerate() {
                let d = rename_owners(d, v.sub_owners(), perm, &values);
                xor_into(&mut key, place(perm[pc + j], d));
            }
            best = best.min(key);
        }
        best
    }

    fn group_order(&self) -> usize {
        self.perms.len()
    }

    fn group_capped(&self) -> bool {
        self.capped
    }

    fn expand_outcome(&self, selected: &[ProcId], out: &mut BTreeSet<Vec<ProcId>>) {
        for perm in &self.perms {
            let mut image: Vec<ProcId> = selected
                .iter()
                .map(|p| ProcId::new(perm[p.index()]))
                .collect();
            image.sort_unstable();
            out.insert(image);
        }
    }
}

/// Persistent-set partial-order reduction over the [`crate::OpRecord`]
/// independence relation, stacked on any canonicalizer: `Por<Identity>`
/// is plain POR, `Por<SimilarityQuotient>` composes `quotient ∘ por`.
///
/// The commutation argument exploits two machine-model facts: a step
/// performs **at most one** shared operation whose target set is fixed by
/// the stepping processor's local state, and a processor can only ever
/// address variables in its static `n-nbr` row. Two steps with disjoint
/// target sets therefore commute exactly, and a processor whose whole row
/// is disjoint from a set of current targets can never interfere with
/// those steps — now or later.
#[derive(Clone, Debug)]
pub struct Por<R = Identity> {
    inner: R,
    words: usize,
    /// Per-processor static adjacency bitmask over variables (row-major,
    /// `words` words per processor).
    adj: Vec<u64>,
}

fn mask_set(mask: &mut [u64], v: usize) {
    mask[v / 64] |= 1u64 << (v % 64);
}

fn masks_intersect(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

impl Por<Identity> {
    /// Plain POR with raw-fingerprint canonicalization.
    pub fn new(graph: &SystemGraph) -> Por<Identity> {
        Por::over(graph, Identity)
    }
}

impl<R: Reducer> Por<R> {
    /// Stacks POR on top of `inner`'s canonicalization.
    pub fn over(graph: &SystemGraph, inner: R) -> Por<R> {
        let pc = graph.processor_count();
        let words = graph.variable_count().div_ceil(64).max(1);
        let csr = CsrAdjacency::new(graph);
        let mut adj = vec![0u64; pc * words];
        for p in graph.processors() {
            let row = &mut adj[p.index() * words..(p.index() + 1) * words];
            for v in csr.proc_row(p) {
                mask_set(row, v.index());
            }
        }
        Por { inner, words, adj }
    }

    /// Stacks POR on top of `inner`, with the interference relation taken
    /// from statically derived per-processor footprints instead of the
    /// full `n-nbr` adjacency rows.
    ///
    /// `footprints[p]` must over-approximate every shared variable
    /// processor `p`'s program can ever address (the checker layer derives
    /// it from the reachable phases of a
    /// [`ProgramSpec`](crate::ProgramSpec)). The closure argument of
    /// [`Reducer::ample`] is unchanged — a processor stays outside an
    /// ample set only if *nothing it can ever do* touches a member's
    /// current targets — so soundness is preserved while ample sets can
    /// only shrink. Defensively, each footprint is clamped to the
    /// processor's adjacency row: programs address variables only through
    /// names, so the clamp never drops a reachable target, and the
    /// relation can never be *wider* than [`Por::over`]'s.
    ///
    /// # Panics
    ///
    /// Panics if `footprints.len()` differs from the processor count.
    pub fn with_static_interference(
        graph: &SystemGraph,
        footprints: &[Vec<VarId>],
        inner: R,
    ) -> Por<R> {
        let pc = graph.processor_count();
        assert_eq!(footprints.len(), pc, "one footprint per processor required");
        let words = graph.variable_count().div_ceil(64).max(1);
        let csr = CsrAdjacency::new(graph);
        let mut adj = vec![0u64; pc * words];
        for p in graph.processors() {
            let row = &mut adj[p.index() * words..(p.index() + 1) * words];
            let nbrs: HashSet<VarId> = csr.proc_row(p).iter().copied().collect();
            for &v in &footprints[p.index()] {
                if nbrs.contains(&v) {
                    mask_set(row, v.index());
                }
            }
        }
        Por { inner, words, adj }
    }

    fn static_row(&self, p: ProcId) -> &[u64] {
        &self.adj[p.index() * self.words..(p.index() + 1) * self.words]
    }
}

impl<R: Reducer> Reducer for Por<R> {
    fn name(&self) -> &'static str {
        "por"
    }

    fn canonical_fingerprint(&mut self, m: &Machine) -> (u64, u64) {
        self.inner.canonical_fingerprint(m)
    }

    fn group_order(&self) -> usize {
        self.inner.group_order()
    }

    fn group_capped(&self) -> bool {
        self.inner.group_capped()
    }

    fn expand_outcome(&self, selected: &[ProcId], out: &mut BTreeSet<Vec<ProcId>>) {
        self.inner.expand_outcome(selected, out)
    }

    fn uses_por(&self) -> bool {
        true
    }

    /// Computes a persistent set by closure: seed with one enabled,
    /// invisible processor; repeatedly add any processor whose **static**
    /// variable row intersects the **current** targets of a member (such
    /// a processor could, now or after other steps, touch a member's
    /// target, so its steps need not commute). A closure that pulls in a
    /// visible step, or every enabled processor, is discarded; among the
    /// surviving seeds the smallest closure wins. The cycle proviso
    /// requires at least one member's successor off the DFS stack.
    fn ample(&self, probes: &[ProbedStep]) -> Option<Vec<usize>> {
        let enabled: Vec<usize> = (0..probes.len()).filter(|&i| probes[i].changed).collect();
        if enabled.len() <= 1 {
            return None;
        }
        let target_mask = |i: usize| -> Vec<u64> {
            let mut mask = vec![0u64; self.words];
            for v in &probes[i].targets {
                mask_set(&mut mask, v.index());
            }
            mask
        };
        let mut best: Option<Vec<usize>> = None;
        for &seed in &enabled {
            if probes[seed].visible {
                continue;
            }
            let mut members = vec![seed];
            let mut in_set = vec![false; probes.len()];
            in_set[seed] = true;
            let mut targets = target_mask(seed);
            let mut admissible = true;
            loop {
                let mut grew = false;
                // Outsiders are *all* other processors, enabled or not: a
                // currently-halted processor can wake after another step
                // and touch a member's target.
                for q in 0..probes.len() {
                    if in_set[q] || !masks_intersect(self.static_row(probes[q].proc), &targets) {
                        continue;
                    }
                    if probes[q].visible {
                        admissible = false;
                        break;
                    }
                    in_set[q] = true;
                    members.push(q);
                    let qmask = target_mask(q);
                    for (t, m) in targets.iter_mut().zip(&qmask) {
                        *t |= m;
                    }
                    grew = true;
                }
                if !admissible || !grew {
                    break;
                }
            }
            if !admissible {
                continue;
            }
            let member_enabled = members.iter().filter(|&&i| probes[i].changed).count();
            if member_enabled >= enabled.len() {
                continue; // no reduction from this seed
            }
            // Cycle proviso: some member's successor must leave the stack.
            if !members
                .iter()
                .any(|&i| probes[i].changed && !probes[i].succ_on_stack)
            {
                continue;
            }
            if best.as_ref().is_none_or(|b| members.len() < b.len()) {
                members.sort_unstable();
                best = Some(members);
            }
        }
        best
    }
}

/// The visited-state store: a hash-set of canonical keys with memory
/// accounting, shared by every reducer so `quotient ∘ por` composes and
/// reduction factors can be reported as bytes, not just states.
#[derive(Clone, Debug, Default)]
pub struct VisitedSet<K = (u64, u64)> {
    set: HashSet<K>,
}

impl<K: Eq + Hash> VisitedSet<K> {
    /// An empty store.
    pub fn new() -> VisitedSet<K> {
        VisitedSet {
            set: HashSet::new(),
        }
    }

    /// Inserts a canonical key; `false` if it was already present.
    pub fn insert(&mut self, key: K) -> bool {
        self.set.insert(key)
    }

    /// Whether the key has been visited.
    pub fn contains(&self, key: &K) -> bool {
        self.set.contains(key)
    }

    /// Number of canonical states stored.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Peak bytes held by the store: allocated capacity times the inline
    /// key payload plus one control byte per slot. Table capacity never
    /// shrinks, so the current estimate is the peak. Heap data owned by
    /// non-`Copy` keys (the reference oracle's full state snapshots) is
    /// not counted; the fingerprint stores every reducer uses are fully
    /// inline.
    pub fn peak_bytes(&self) -> usize {
        self.set.capacity() * (std::mem::size_of::<K>() + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FnProgram, InstructionSet, Machine, SystemInit};
    use simsym_graph::topology;
    use std::sync::Arc;

    fn ring_machine(n: usize) -> Machine {
        let g = Arc::new(topology::uniform_ring(n));
        let prog = Arc::new(FnProgram::new("poster", |local, ops| {
            if local.pc == 0 {
                let left = ops.name("left");
                ops.post(left, Value::from(1));
                local.pc = 1;
            }
        }));
        let init = SystemInit::uniform(&g);
        Machine::new(g, InstructionSet::Q, prog, &init).unwrap()
    }

    #[test]
    fn quotient_group_size_matches_ring_rotations() {
        let m = ring_machine(5);
        let q = SimilarityQuotient::new(m.graph(), &SystemInit::uniform(m.graph()));
        assert_eq!(q.automorphism_count(), 5);
        assert_eq!(q.group_order(), 5);
    }

    #[test]
    fn rotated_states_share_a_canonical_fingerprint() {
        // Step p0 in one machine and p2 in another: the global states are
        // rotations of each other, so their canonical fingerprints agree
        // while the raw fingerprints differ.
        let mut a = ring_machine(5);
        let mut b = ring_machine(5);
        a.enable_incremental_fingerprint();
        b.enable_incremental_fingerprint();
        a.step(ProcId::new(0));
        b.step(ProcId::new(2));
        let mut q = SimilarityQuotient::new(a.graph(), &SystemInit::uniform(a.graph()));
        assert_ne!(a.incremental_fingerprint(), b.incremental_fingerprint());
        assert_eq!(q.canonical_fingerprint(&a), q.canonical_fingerprint(&b));
        // And the canonical form distinguishes genuinely different states.
        let fresh = ring_machine(5);
        assert_ne!(q.canonical_fingerprint(&a), q.canonical_fingerprint(&fresh));
    }

    #[test]
    fn canonical_fingerprint_is_deterministic_across_instances() {
        let mut m = ring_machine(4);
        m.step(ProcId::new(1));
        let init = SystemInit::uniform(m.graph());
        let mut q1 = SimilarityQuotient::new(m.graph(), &init);
        let mut q2 = SimilarityQuotient::new(m.graph(), &init);
        assert_eq!(q1.canonical_fingerprint(&m), q2.canonical_fingerprint(&m));
    }

    #[test]
    fn marked_init_pins_the_group() {
        let g = Arc::new(topology::uniform_ring(5));
        let marked = SystemInit::with_marked(&g, &[ProcId::new(0)]);
        let q = SimilarityQuotient::new(&g, &marked);
        assert_eq!(q.automorphism_count(), 1, "marking p0 kills all rotations");
    }

    #[test]
    fn outcome_closure_covers_the_orbit() {
        let m = ring_machine(4);
        let q = SimilarityQuotient::new(m.graph(), &SystemInit::uniform(m.graph()));
        let mut out = BTreeSet::new();
        q.expand_outcome(&[ProcId::new(0)], &mut out);
        // One selected processor expands to all four rotations.
        assert_eq!(out.len(), 4);
        for i in 0..4 {
            assert!(out.contains(&vec![ProcId::new(i)]));
        }
    }

    #[test]
    fn identity_reducer_matches_raw_fingerprint() {
        let mut m = ring_machine(3);
        m.enable_incremental_fingerprint();
        let mut id = Identity;
        assert_eq!(
            id.canonical_fingerprint(&m),
            m.incremental_fingerprint().unwrap()
        );
        let mut out = BTreeSet::new();
        id.expand_outcome(&[ProcId::new(2)], &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn por_ample_prefers_a_conflict_pair_on_a_ring() {
        // Ring of 5: p0 and p1 both currently target the variable between
        // them; p2, p3, p4 target elsewhere pairwise. The closure of p0 is
        // {p0, p1} — a genuine reduction.
        let g = topology::uniform_ring(5);
        let por = Por::new(&g);
        let shared = g.n_nbr(ProcId::new(0), g.names().get("right").unwrap());
        assert_eq!(
            shared,
            g.n_nbr(ProcId::new(1), g.names().get("left").unwrap())
        );
        let far = g.n_nbr(ProcId::new(3), g.names().get("right").unwrap());
        let probes: Vec<ProbedStep> = (0..5)
            .map(|i| ProbedStep {
                proc: ProcId::new(i),
                changed: i < 2 || i == 3,
                visible: false,
                targets: match i {
                    0 | 1 => vec![shared],
                    3 => vec![far],
                    _ => vec![],
                },
                succ_on_stack: false,
            })
            .collect();
        let ample = por.ample(&probes).expect("reduction exists");
        assert_eq!(ample, vec![0, 1]);
    }

    #[test]
    fn por_ample_declines_when_everything_conflicts() {
        // All processors target one shared variable: no proper subset is
        // persistent.
        let g = topology::star(4);
        let por = Por::new(&g);
        let hub = VarId::new(0);
        let probes: Vec<ProbedStep> = (0..4)
            .map(|i| ProbedStep {
                proc: ProcId::new(i),
                changed: true,
                visible: false,
                targets: vec![hub],
                succ_on_stack: false,
            })
            .collect();
        assert!(por.ample(&probes).is_none());
    }

    #[test]
    fn por_ample_rejects_visible_and_on_stack_members() {
        // p0 and p1 conflict on their shared variable; p3 is enabled and
        // independent, so {p0, p1} is a proper ample candidate. p3's own
        // target touches p0's row, so seeding from p3 cascades to the full
        // enabled set and never wins.
        let g = topology::uniform_ring(4);
        let por = Por::new(&g);
        let shared = g.n_nbr(ProcId::new(0), g.names().get("right").unwrap());
        let far = g.n_nbr(ProcId::new(3), g.names().get("right").unwrap());
        let mk = |visible: bool, on_stack: bool| -> Vec<ProbedStep> {
            (0..4)
                .map(|i| ProbedStep {
                    proc: ProcId::new(i),
                    changed: i != 2,
                    visible: visible && i < 2,
                    targets: match i {
                        0 | 1 => vec![shared],
                        3 => vec![far],
                        _ => vec![],
                    },
                    succ_on_stack: on_stack && i < 2,
                })
                .collect()
        };
        assert!(por.ample(&mk(false, false)).is_some());
        // A visible member disqualifies the closure (C2)…
        assert!(por.ample(&mk(true, false)).is_none());
        // …and so do all-on-stack successors (the cycle proviso, C3).
        assert!(por.ample(&mk(false, true)).is_none());
    }

    #[test]
    fn static_interference_full_footprints_match_probe_rows() {
        let g = topology::uniform_ring(4);
        let full: Vec<Vec<VarId>> = g
            .processors()
            .map(|p| g.processor_neighbors(p).to_vec())
            .collect();
        let probe = Por::new(&g);
        let stat = Por::with_static_interference(&g, &full, Identity);
        assert_eq!(probe.adj, stat.adj);
        assert_eq!(probe.words, stat.words);
    }

    #[test]
    fn static_interference_restricts_and_clamps_rows() {
        let g = topology::uniform_ring(4);
        let p0 = ProcId::new(0);
        let left = g.n_nbr(p0, g.names().get("left").unwrap());
        let foreign = g
            .variables()
            .find(|v| !g.processor_neighbors(p0).contains(v))
            .unwrap();
        // p0 may only ever touch `left`; a variable outside its name row is
        // clamped away rather than widening the relation.
        let mut fp: Vec<Vec<VarId>> = g
            .processors()
            .map(|p| g.processor_neighbors(p).to_vec())
            .collect();
        fp[0] = vec![left, foreign];
        let por = Por::with_static_interference(&g, &fp, Identity);
        let row = por.static_row(p0);
        assert!(masks_intersect(row, &{
            let mut m = vec![0u64; por.words];
            mask_set(&mut m, left.index());
            m
        }));
        let mut other = vec![0u64; por.words];
        for v in g.variables() {
            if v != left {
                mask_set(&mut other, v.index());
            }
        }
        assert!(!masks_intersect(row, &other));
    }

    #[test]
    fn visited_set_counts_and_accounts() {
        let mut v: VisitedSet = VisitedSet::new();
        assert!(v.is_empty());
        assert!(v.insert((1, 2)));
        assert!(!v.insert((1, 2)));
        assert!(v.insert((3, 4)));
        assert_eq!(v.len(), 2);
        assert!(v.contains(&(1, 2)));
        assert!(v.peak_bytes() >= 2 * (std::mem::size_of::<(u64, u64)>() + 1));
    }
}
