//! Processor-local state, shared-variable state, and system initial states.
//!
//! Registers are **interned**: every register name is mapped once to a
//! dense [`RegId`] by a process-global interner, and [`LocalState`] stores
//! register values in a flat `Vec` indexed by `RegId` instead of a
//! `BTreeMap<String, Value>`. Hot programs resolve their `RegId`s once and
//! read through [`LocalState::reg`] without hashing, allocation, or
//! cloning; the legacy string-named API ([`LocalState::get`] /
//! [`LocalState::set`]) is a thin shim over the interner, so existing
//! programs, fixtures and diagnostics are unaffected.
//!
//! Equality, ordering, hashing and display remain **name-based**: they
//! iterate the set registers in lexicographic name order, exactly as the
//! old `BTreeMap` representation did, so state fingerprints and trace JSON
//! are byte-identical to the previous layout and independent of interning
//! order. `LocalState::digest` is the exception: the machine's
//! state keys hash registers in `RegId` order, for speed, and stay
//! process-local.

use crate::digest::{digest_of, owner_term, xor_into, Digest, DigestHasher};
use crate::{Value, ValueId};
use serde::{Deserialize, Serialize};
use simsym_graph::{ProcId, SystemGraph};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{OnceLock, RwLock, RwLockReadGuard};

/// Dense id of an interned register name.
///
/// Ids are assigned by a process-global, append-only interner: the same
/// name always yields the same id within a process. Programs on a hot path
/// resolve their register names once (at construction, or in a
/// `OnceLock`) and then access registers by id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegId(u32);

impl RegId {
    /// Interns `name`, returning its dense id (allocating one on first
    /// use).
    pub fn intern(name: &str) -> RegId {
        let interner = interner();
        if let Some(&id) = interner.read().expect("interner lock").by_name.get(name) {
            return RegId(id);
        }
        let mut w = interner.write().expect("interner lock");
        if let Some(&id) = w.by_name.get(name) {
            return RegId(id);
        }
        let id = w.names.len() as u32;
        // Register names are a small, program-defined vocabulary; leaking
        // each distinct name once buys `&'static str` access everywhere.
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        w.names.push(leaked);
        w.by_name.insert(leaked, id);
        RegId(id)
    }

    /// The id of `name` if it has been interned.
    pub fn lookup(name: &str) -> Option<RegId> {
        interner()
            .read()
            .expect("interner lock")
            .by_name
            .get(name)
            .map(|&id| RegId(id))
    }

    /// The interned name.
    pub fn name(self) -> &'static str {
        interner().read().expect("interner lock").names[self.0 as usize]
    }

    /// The dense index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

struct RegInterner {
    names: Vec<&'static str>,
    by_name: HashMap<&'static str, u32>,
}

fn interner() -> &'static RwLock<RegInterner> {
    static INTERNER: OnceLock<RwLock<RegInterner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(RegInterner {
            names: Vec::new(),
            by_name: HashMap::new(),
        })
    })
}

/// Snapshot of the interner's name table for bulk id→name resolution
/// (one lock acquisition instead of one per register).
fn interned_names() -> RwLockReadGuard<'static, RegInterner> {
    interner().read().expect("interner lock")
}

static UNIT: Value = Value::Unit;

/// The complete local state of a processor.
///
/// The paper folds the program counter into the processor state (§2); two
/// processors *have the same state* exactly when their `LocalState`s are
/// equal, which is what the similarity relation compares. Every field —
/// including `selected` and the program counter — therefore participates in
/// equality.
///
/// A register holding [`Value::Unit`] *explicitly set* is distinct from an
/// unset register, exactly as the old map representation distinguished a
/// present `Unit` entry from an absent key.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LocalState {
    /// The program counter (which instruction the program will execute
    /// next). Programs are free to interpret this as a phase id.
    pub pc: u32,
    /// The `selected_p` flag of the selection problem (§3). Initially
    /// `false`; setting it selects the processor. The Stability monitor
    /// checks it is never reset.
    pub selected: bool,
    /// Set registers as `(id, value)` pairs sorted by [`RegId`]. Sparse:
    /// memory scales with the registers a processor actually uses, not
    /// with the process-global interner — at the 100k–1M scale tier this
    /// is the difference between ~100 B and several KB per processor.
    regs: Vec<(RegId, Value)>,
}

impl LocalState {
    /// A fresh state: `pc = 0`, not selected, no registers.
    pub fn new() -> Self {
        LocalState {
            pc: 0,
            selected: false,
            regs: Vec::new(),
        }
    }

    /// A fresh state with register `init` holding the processor's initial
    /// value — the conventional way programs receive `state₀`.
    pub fn with_initial(value: Value) -> Self {
        let mut s = LocalState::new();
        s.set("init", value);
        s
    }

    /// Borrows register `r`, yielding [`Value::Unit`] if it was never set.
    /// The allocation-free read path for interned programs.
    pub fn reg(&self, r: RegId) -> &Value {
        self.reg_opt(r).unwrap_or(&UNIT)
    }

    /// Borrows register `r` if set.
    pub fn reg_opt(&self, r: RegId) -> Option<&Value> {
        self.regs
            .binary_search_by_key(&r, |e| e.0)
            .ok()
            .map(|i| &self.regs[i].1)
    }

    /// Mutably borrows register `r` if set — lets programs update compound
    /// registers (tuples, sets) in place without a clone-and-rewrite.
    pub fn reg_mut(&mut self, r: RegId) -> Option<&mut Value> {
        self.regs
            .binary_search_by_key(&r, |e| e.0)
            .ok()
            .map(|i| &mut self.regs[i].1)
    }

    /// Writes register `r`.
    pub fn set_reg(&mut self, r: RegId, value: Value) {
        match self.regs.binary_search_by_key(&r, |e| e.0) {
            Ok(i) => self.regs[i].1 = value,
            Err(i) => self.regs.insert(i, (r, value)),
        }
    }

    /// Removes register `r`, returning its prior value.
    pub fn unset_reg(&mut self, r: RegId) -> Option<Value> {
        match self.regs.binary_search_by_key(&r, |e| e.0) {
            Ok(i) => Some(self.regs.remove(i).1),
            Err(_) => None,
        }
    }

    /// Approximate heap footprint in bytes, excluding the inline struct
    /// size — the per-processor figure the scale bench rows report.
    pub fn approx_heap_bytes(&self) -> usize {
        self.regs.len() * std::mem::size_of::<(RegId, Value)>()
            + self
                .regs
                .iter()
                .map(|(_, v)| v.approx_heap_bytes())
                .sum::<usize>()
    }

    /// Reads register `name`, returning [`Value::Unit`] if it was never
    /// set. Clones; hot paths should intern a [`RegId`] and use
    /// [`LocalState::reg`].
    pub fn get(&self, name: &str) -> Value {
        self.get_ref(name).cloned().unwrap_or(Value::Unit)
    }

    /// Borrows register `name` if set.
    pub fn get_ref(&self, name: &str) -> Option<&Value> {
        RegId::lookup(name).and_then(|r| self.reg_opt(r))
    }

    /// Writes register `name`.
    pub fn set(&mut self, name: &str, value: Value) {
        self.set_reg(RegId::intern(name), value);
    }

    /// Removes register `name`, returning its prior value.
    pub fn unset(&mut self, name: &str) -> Option<Value> {
        RegId::lookup(name).and_then(|r| self.unset_reg(r))
    }

    /// The state's position-free 128-bit digest: `pc`, `selected` and
    /// the set registers in [`RegId`] order. Unlike the name-ordered
    /// [`Hash`], it takes no interner lock, allocates nothing and hashes
    /// no name strings, so it depends on interning order and is only
    /// comparable within one process. Equal states have equal digests,
    /// whatever order their registers were set in.
    pub(crate) fn digest(&self) -> Digest {
        let mut h = DigestHasher::new();
        h.write_u32(self.pc);
        h.write_u8(u8::from(self.selected));
        h.write_usize(self.regs.len());
        for (r, v) in &self.regs {
            h.write_u32(r.0);
            v.hash(&mut h);
        }
        h.finish128()
    }

    /// Iterates over `(register, value)` pairs in name order.
    pub fn registers(&self) -> impl Iterator<Item = (&'static str, &Value)> + '_ {
        let mut entries = self.sorted_entries();
        entries.reverse();
        std::iter::from_fn(move || entries.pop())
    }

    /// The set registers as `(id, value)` pairs sorted by [`RegId`].
    pub(crate) fn regs(&self) -> &[(RegId, Value)] {
        &self.regs
    }

    /// The set registers as `(name, value)` pairs sorted by name — the
    /// iteration order of the old `BTreeMap` representation, on which
    /// equality, ordering, hashing and display are all defined.
    fn sorted_entries(&self) -> Vec<(&'static str, &Value)> {
        let names = interned_names();
        let mut entries: Vec<(&'static str, &Value)> = self
            .regs
            .iter()
            .map(|(r, v)| (names.names[r.index()], v))
            .collect();
        entries.sort_unstable_by_key(|&(name, _)| name);
        entries
    }
}

impl PartialEq for LocalState {
    fn eq(&self, other: &Self) -> bool {
        // Entries are sorted by process-global RegId, so equal register
        // maps mean structurally equal vectors.
        self.pc == other.pc && self.selected == other.selected && self.regs == other.regs
    }
}

impl Eq for LocalState {}

impl PartialOrd for LocalState {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LocalState {
    fn cmp(&self, other: &Self) -> Ordering {
        self.pc
            .cmp(&other.pc)
            .then_with(|| self.selected.cmp(&other.selected))
            .then_with(|| self.sorted_entries().cmp(&other.sorted_entries()))
    }
}

impl Hash for LocalState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Field-for-field reproduction of the old derived implementation
        // over `(pc, selected, BTreeMap<String, Value>)`: the map hashed a
        // length prefix and then each `(name, value)` pair in name order.
        // State fingerprints (and thus trace JSON) depend on this.
        self.pc.hash(state);
        self.selected.hash(state);
        let entries = self.sorted_entries();
        state.write_usize(entries.len());
        for (name, value) in entries {
            name.hash(state);
            value.hash(state);
        }
    }
}

impl Default for LocalState {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for LocalState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pc={} selected={}", self.pc, self.selected)?;
        for (k, v) in self.sorted_entries() {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

/// The runtime state of one shared variable.
///
/// The representation depends on the instruction set:
/// * **S** uses [`SharedVar::Plain`] with the lock bit permanently unset;
/// * **L** uses [`SharedVar::Plain`] and its lock bit;
/// * **Q** uses [`SharedVar::Multi`] — the paper's unusual variable holding
///   one *subvalue per posting processor*, where `peek` returns the
///   unordered multiset of subvalues (deliberately hiding who posted what,
///   and how many processors have not yet posted).
///
/// `Multi` subvalues are **interned** ([`ValueId`]) and held two ways at
/// once: an `owner → ValueId` association (the paper's per-processor
/// subvalue), plus a cached canonical `(ValueId, count)` multiset kept
/// sorted by *value* order. `post` patches both incrementally, so `peek`
/// never clones or sorts. Equality, ordering and hashing are defined over
/// the resolved values in owner order, byte-identical to the previous
/// `BTreeMap<ProcId, Value>` representation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum SharedVar {
    /// A single-celled variable with a lock bit (S and L).
    Plain {
        /// Current contents.
        value: Value,
        /// The lock bit used by `lock`/`unlock` (always `false` in S).
        locked: bool,
    },
    /// A Q variable: a subvalue per processor that has posted.
    Multi {
        /// The variable's initial state `state₀(v)`. The paper folds this
        /// into generated-program knowledge; we expose it through `peek` so
        /// family algorithms (§5) can discover it at run time.
        base: Value,
        /// Interned subvalues keyed by owner, sorted by [`ProcId`]. The
        /// key is *not* observable by programs: `peek` strips it.
        owners: Vec<(ProcId, ValueId)>,
        /// The cached canonical multiset: distinct subvalues with
        /// multiplicities, sorted by resolved [`Value`] order. This is the
        /// view `peek` exposes, patched in O(log k) per `post`.
        counts: Vec<(ValueId, u32)>,
    },
}

/// Borrowed view of a Q variable's canonical multiset, as returned by
/// [`SharedVar::multi_counts`]: `(base, sorted distinct (id, count)
/// pairs, total subvalue count)`.
pub type MultiCounts<'a> = (&'a Value, &'a [(ValueId, u32)], usize);

impl SharedVar {
    /// A plain variable holding `value`, unlocked.
    pub fn plain(value: Value) -> Self {
        SharedVar::Plain {
            value,
            locked: false,
        }
    }

    /// A Q variable with initial state `base` and no subvalues (the
    /// paper's initial condition).
    pub fn multi(base: Value) -> Self {
        SharedVar::Multi {
            base,
            owners: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Posts `value` as `owner`'s subvalue, replacing any prior one.
    /// Returns `(new, previous)` interned ids — exactly the undo and
    /// fingerprint delta. No-op (and `unreachable`) on plain variables.
    pub fn post_sub(&mut self, owner: ProcId, value: Value) -> (ValueId, Option<ValueId>) {
        let vid = ValueId::intern(&value);
        match self {
            SharedVar::Multi { owners, counts, .. } => {
                let prev = match owners.binary_search_by_key(&owner, |e| e.0) {
                    Ok(i) => Some(std::mem::replace(&mut owners[i].1, vid)),
                    Err(i) => {
                        owners.insert(i, (owner, vid));
                        None
                    }
                };
                if prev != Some(vid) {
                    if let Some(pv) = prev {
                        Self::counts_remove(counts, pv);
                    }
                    Self::counts_insert(counts, vid);
                }
                (vid, prev)
            }
            SharedVar::Plain { .. } => unreachable!("post on plain var"),
        }
    }

    /// Reverts a [`SharedVar::post_sub`] by `owner` whose result carried
    /// `prev` as the previous id: restores the prior subvalue, or removes
    /// the owner's entry entirely if there was none.
    pub fn unpost_sub(&mut self, owner: ProcId, prev: Option<ValueId>) {
        match self {
            SharedVar::Multi { owners, counts, .. } => {
                let i = owners
                    .binary_search_by_key(&owner, |e| e.0)
                    .expect("unpost of never-posted owner");
                let cur = match prev {
                    Some(pv) => std::mem::replace(&mut owners[i].1, pv),
                    None => owners.remove(i).1,
                };
                if prev != Some(cur) {
                    Self::counts_remove(counts, cur);
                    if let Some(pv) = prev {
                        Self::counts_insert(counts, pv);
                    }
                }
            }
            SharedVar::Plain { .. } => unreachable!("unpost on plain var"),
        }
    }

    fn counts_insert(counts: &mut Vec<(ValueId, u32)>, vid: ValueId) {
        let v = vid.resolve();
        match counts.binary_search_by(|&(c, _)| c.resolve().cmp(v)) {
            Ok(i) => counts[i].1 += 1,
            Err(i) => counts.insert(i, (vid, 1)),
        }
    }

    fn counts_remove(counts: &mut Vec<(ValueId, u32)>, vid: ValueId) {
        let v = vid.resolve();
        let i = counts
            .binary_search_by(|&(c, _)| c.resolve().cmp(v))
            .expect("count underflow: removing absent subvalue");
        if counts[i].1 == 1 {
            counts.remove(i);
        } else {
            counts[i].1 -= 1;
        }
    }

    /// The cached canonical multiset of a Q variable: `(base, distinct
    /// (ValueId, count) pairs in value order, total subvalue count)`.
    /// `None` for plain variables. This is the zero-copy `peek` source.
    pub fn multi_counts(&self) -> Option<MultiCounts<'_>> {
        match self {
            SharedVar::Plain { .. } => None,
            SharedVar::Multi {
                base,
                owners,
                counts,
            } => Some((base, counts.as_slice(), owners.len())),
        }
    }

    /// The `(owner, subvalue)` association of a Q variable, sorted by
    /// owner. Empty for plain variables.
    pub fn sub_owners(&self) -> &[(ProcId, ValueId)] {
        match self {
            SharedVar::Plain { .. } => &[],
            SharedVar::Multi { owners, .. } => owners,
        }
    }

    /// The multiset of subvalues as a canonically sorted vector (what
    /// `peek` returns). Empty for plain variables. Clones; hot paths use
    /// [`SharedVar::multi_counts`] through the borrowed
    /// [`PeekView`](crate::PeekView).
    pub fn peek_all(&self) -> Vec<Value> {
        match self {
            SharedVar::Plain { .. } => Vec::new(),
            SharedVar::Multi { owners, counts, .. } => {
                let mut vs = Vec::with_capacity(owners.len());
                for &(vid, n) in counts {
                    for _ in 0..n {
                        vs.push(vid.resolve().clone());
                    }
                }
                vs
            }
        }
    }

    /// The variable's position-free 128-bit digest, the term
    /// [`Machine`](crate::Machine) keys place at its node. A plain
    /// variable hashes its whole state. A Q variable's digest is the hash
    /// of its base XOR one owner term per posted subvalue, so a `post`
    /// patches it in O(1) and a processor renaming swaps only the terms
    /// of the owners it moves.
    pub(crate) fn digest(&self) -> Digest {
        match self {
            SharedVar::Plain { .. } => digest_of(self),
            SharedVar::Multi { base, owners, .. } => {
                let mut h = DigestHasher::new();
                std::mem::discriminant(self).hash(&mut h);
                base.hash(&mut h);
                let mut d = h.finish128();
                for &(p, vid) in owners {
                    xor_into(&mut d, owner_term(p.index(), vid));
                }
                d
            }
        }
    }

    /// An *anonymized* snapshot of the variable state, for similarity
    /// checking: two Q variables with the same multiset of subvalues are in
    /// the same state even if the posting processors differ.
    pub fn observable_state(&self) -> Value {
        match self {
            SharedVar::Plain { value, locked } => {
                Value::tuple([value.clone(), Value::from(*locked)])
            }
            SharedVar::Multi { base, counts, .. } => {
                let bag: BTreeMap<Value, usize> = counts
                    .iter()
                    .map(|&(vid, n)| (vid.resolve().clone(), n as usize))
                    .collect();
                Value::tuple([base.clone(), Value::Bag(std::sync::Arc::new(bag))])
            }
        }
    }

    /// Approximate heap footprint in bytes, excluding the inline enum
    /// size. Interned subvalues are charged at id size — the leaked value
    /// itself is shared process-wide.
    pub fn approx_heap_bytes(&self) -> usize {
        match self {
            SharedVar::Plain { value, .. } => value.approx_heap_bytes(),
            SharedVar::Multi {
                base,
                owners,
                counts,
            } => {
                base.approx_heap_bytes()
                    + owners.len() * std::mem::size_of::<(ProcId, ValueId)>()
                    + counts.len() * std::mem::size_of::<(ValueId, u32)>()
            }
        }
    }
}

impl PartialEq for SharedVar {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                SharedVar::Plain {
                    value: a,
                    locked: la,
                },
                SharedVar::Plain {
                    value: b,
                    locked: lb,
                },
            ) => a == b && la == lb,
            (
                SharedVar::Multi {
                    base: a,
                    owners: oa,
                    ..
                },
                SharedVar::Multi {
                    base: b,
                    owners: ob,
                    ..
                },
            ) => {
                // ValueIds are canonical (equal values intern to equal
                // ids), so the owner association compares directly.
                a == b && oa == ob
            }
            _ => false,
        }
    }
}

impl Eq for SharedVar {}

impl PartialOrd for SharedVar {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SharedVar {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reproduces the derived ordering over the old representation:
        // Plain < Multi, then fieldwise with `BTreeMap<ProcId, Value>`
        // comparing (owner, value) pairs lexicographically in owner order.
        match (self, other) {
            (
                SharedVar::Plain {
                    value: a,
                    locked: la,
                },
                SharedVar::Plain {
                    value: b,
                    locked: lb,
                },
            ) => a.cmp(b).then_with(|| la.cmp(lb)),
            (SharedVar::Plain { .. }, SharedVar::Multi { .. }) => Ordering::Less,
            (SharedVar::Multi { .. }, SharedVar::Plain { .. }) => Ordering::Greater,
            (
                SharedVar::Multi {
                    base: a,
                    owners: oa,
                    ..
                },
                SharedVar::Multi {
                    base: b,
                    owners: ob,
                    ..
                },
            ) => a.cmp(b).then_with(|| {
                oa.iter()
                    .map(|&(p, vid)| (p, vid.resolve()))
                    .cmp(ob.iter().map(|&(p, vid)| (p, vid.resolve())))
            }),
        }
    }
}

impl Hash for SharedVar {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Byte-identical to the derived impl over the old representation:
        // discriminant, then fields, with `BTreeMap<ProcId, Value>`
        // hashing a length prefix and each (owner, value) pair in owner
        // order. Machine fingerprints (and thus trace JSON) depend on it.
        std::mem::discriminant(self).hash(state);
        match self {
            SharedVar::Plain { value, locked } => {
                value.hash(state);
                locked.hash(state);
            }
            SharedVar::Multi { base, owners, .. } => {
                base.hash(state);
                state.write_usize(owners.len());
                for &(p, vid) in owners {
                    p.hash(state);
                    vid.resolve().hash(state);
                }
            }
        }
    }
}

/// Initial states for every processor and variable of a system — the
/// `state₀` component of `Σ = (N, state₀, I, SP)`.
///
/// Kept separate from the graph because homogeneous families (§5) share a
/// network but differ exactly here.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SystemInit {
    /// Initial value handed to each processor's `Program::init`.
    pub proc_values: Vec<Value>,
    /// Initial contents of each plain variable (ignored by Q variables,
    /// which start with no subvalues, *unless* a program models the §5
    /// two-phase trick of re-seeding variable states).
    pub var_values: Vec<Value>,
}

impl SystemInit {
    /// The uniform initial state: every processor and variable starts with
    /// [`Value::Unit`] — the fully symmetric start.
    pub fn uniform(graph: &SystemGraph) -> Self {
        SystemInit {
            proc_values: vec![Value::Unit; graph.processor_count()],
            var_values: vec![Value::Unit; graph.variable_count()],
        }
    }

    /// Uniform except that the given processors receive distinct marks
    /// `1, 2, …` (processor `marked[i]` gets `Value::Int(i+1)`).
    pub fn with_marked(graph: &SystemGraph, marked: &[ProcId]) -> Self {
        let mut init = Self::uniform(graph);
        for (i, &p) in marked.iter().enumerate() {
            init.proc_values[p.index()] = Value::from(i as i64 + 1);
        }
        init
    }

    /// The initial state of a node in the combined linear index space
    /// (processors first) — the `state₀(x)` function of the paper.
    pub fn node_value(&self, linear_index: usize) -> &Value {
        if linear_index < self.proc_values.len() {
            &self.proc_values[linear_index]
        } else {
            &self.var_values[linear_index - self.proc_values.len()]
        }
    }

    /// Validates that the shapes match a graph.
    pub fn matches(&self, graph: &SystemGraph) -> bool {
        self.proc_values.len() == graph.processor_count()
            && self.var_values.len() == graph.variable_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::rename_owners;
    use simsym_graph::topology;

    #[test]
    fn local_state_defaults() {
        let s = LocalState::new();
        assert_eq!(s.pc, 0);
        assert!(!s.selected);
        assert_eq!(s.get("x"), Value::Unit);
        assert_eq!(s, LocalState::default());
    }

    #[test]
    fn registers_round_trip() {
        let mut s = LocalState::new();
        s.set("x", Value::from(3));
        assert_eq!(s.get("x"), Value::from(3));
        assert_eq!(s.get_ref("x"), Some(&Value::from(3)));
        assert_eq!(s.unset("x"), Some(Value::from(3)));
        assert_eq!(s.get("x"), Value::Unit);
    }

    #[test]
    fn equality_includes_everything() {
        let mut a = LocalState::new();
        let mut b = LocalState::new();
        assert_eq!(a, b);
        a.pc = 1;
        assert_ne!(a, b);
        b.pc = 1;
        b.selected = true;
        assert_ne!(a, b);
        a.selected = true;
        a.set("r", Value::from(false));
        assert_ne!(a, b);
        b.set("r", Value::from(false));
        assert_eq!(a, b);
    }

    #[test]
    fn with_initial_seeds_register() {
        let s = LocalState::with_initial(Value::from(9));
        assert_eq!(s.get("init"), Value::from(9));
    }

    #[test]
    fn display_lists_registers() {
        let mut s = LocalState::new();
        s.set("a", Value::from(1));
        let d = s.to_string();
        assert!(d.contains("pc=0"));
        assert!(d.contains("a=1"));
    }

    #[test]
    fn plain_var_observable_state_includes_lock() {
        let mut v = SharedVar::plain(Value::from(1));
        let before = v.observable_state();
        if let SharedVar::Plain { locked, .. } = &mut v {
            *locked = true;
        }
        assert_ne!(before, v.observable_state());
    }

    #[test]
    fn multi_var_peek_is_sorted_and_anonymous() {
        let mut v = SharedVar::multi(Value::Unit);
        v.post_sub(ProcId::new(3), Value::from(2));
        v.post_sub(ProcId::new(1), Value::from(5));
        v.post_sub(ProcId::new(2), Value::from(2));
        assert_eq!(
            v.peek_all(),
            vec![Value::from(2), Value::from(2), Value::from(5)]
        );
        // Same multiset posted by different processors is the same
        // observable state.
        let mut w = SharedVar::multi(Value::Unit);
        w.post_sub(ProcId::new(7), Value::from(5));
        w.post_sub(ProcId::new(8), Value::from(2));
        w.post_sub(ProcId::new(9), Value::from(2));
        assert_eq!(v.observable_state(), w.observable_state());
    }

    #[test]
    fn post_sub_replaces_and_unpost_restores() {
        let mut v = SharedVar::multi(Value::Unit);
        let p = ProcId::new(4);
        let (a, prev) = v.post_sub(p, Value::from(10));
        assert_eq!(prev, None);
        assert_eq!(v.sub_owners(), &[(p, a)]);
        let snapshot = v.clone();
        let (b, prev) = v.post_sub(p, Value::from(11));
        assert_eq!(prev, Some(a));
        assert_ne!(a, b);
        assert_eq!(v.peek_all(), vec![Value::from(11)]);
        // Undo the second post: byte-identical to the snapshot.
        v.unpost_sub(p, Some(a));
        assert_eq!(v, snapshot);
        assert_eq!(v.peek_all(), vec![Value::from(10)]);
        // Undo the first post: back to empty.
        v.unpost_sub(p, None);
        assert_eq!(v, SharedVar::multi(Value::Unit));
        assert!(v.sub_owners().is_empty());
    }

    #[test]
    fn multi_counts_track_multiplicity() {
        let mut v = SharedVar::multi(Value::Unit);
        v.post_sub(ProcId::new(0), Value::from(2));
        v.post_sub(ProcId::new(1), Value::from(2));
        v.post_sub(ProcId::new(2), Value::from(1));
        let (base, counts, total) = v.multi_counts().unwrap();
        assert_eq!(base, &Value::Unit);
        assert_eq!(total, 3);
        assert_eq!(counts.len(), 2);
        // Counts are sorted by resolved value, not interning order.
        assert_eq!(counts[0].0.resolve(), &Value::from(1));
        assert_eq!(counts[1].0.resolve(), &Value::from(2));
        assert_eq!(counts[1].1, 2);
        // Re-posting the same value is id-stable and count-neutral.
        let (vid, prev) = v.post_sub(ProcId::new(0), Value::from(2));
        assert_eq!(prev, Some(vid));
        assert_eq!(v.multi_counts().unwrap().2, 3);
        assert!(SharedVar::plain(Value::Unit).multi_counts().is_none());
    }

    #[test]
    fn shared_var_ordering_matches_value_order() {
        // Ordering goes through resolved values (not interning-order ids):
        // intern 9000 before 8999 and check Multi ordering still follows
        // value order.
        let mut hi = SharedVar::multi(Value::Unit);
        hi.post_sub(ProcId::new(0), Value::from(9000));
        let mut lo = SharedVar::multi(Value::Unit);
        lo.post_sub(ProcId::new(0), Value::from(8999));
        assert!(lo < hi);
        assert!(SharedVar::plain(Value::from(999_999)) < lo);
    }

    #[test]
    fn plain_var_peek_is_empty() {
        assert!(SharedVar::plain(Value::from(1)).peek_all().is_empty());
    }

    #[test]
    fn permuted_hash_is_equivariant_for_multi_vars() {
        // v with subvalues {p0→2, p1→5}, its owners renamed by the swap
        // (0 1), must digest exactly like w with subvalues {p1→2, p0→5}.
        let mut v = SharedVar::multi(Value::Unit);
        v.post_sub(ProcId::new(0), Value::from(2));
        v.post_sub(ProcId::new(1), Value::from(5));
        let mut w = SharedVar::multi(Value::Unit);
        w.post_sub(ProcId::new(1), Value::from(2));
        w.post_sub(ProcId::new(0), Value::from(5));
        let id = [0usize, 1];
        let swap = [1usize, 0];
        let renamed =
            |x: &SharedVar, perm: &[usize]| rename_owners(x.digest(), x.sub_owners(), perm);
        assert_ne!(v.digest(), w.digest());
        assert_eq!(renamed(&v, &id), v.digest());
        assert_eq!(renamed(&v, &swap), w.digest());
        assert_eq!(renamed(&w, &swap), v.digest());
        // Plain variables and empty Q variables are permutation-blind.
        for x in [
            SharedVar::plain(Value::from(3)),
            SharedVar::multi(Value::from(1)),
        ] {
            assert_eq!(renamed(&x, &swap), x.digest());
        }
        // The digest is incremental: posting and unposting by owner
        // restores it.
        let before = v.digest();
        let (_, prev) = v.post_sub(ProcId::new(0), Value::from(9));
        assert_ne!(v.digest(), before);
        v.unpost_sub(ProcId::new(0), prev);
        assert_eq!(v.digest(), before);
    }

    #[test]
    fn digest_ignores_register_write_order() {
        // Intern two fresh names in opposite orders across the states, so
        // RegId order differs from write order in one of them.
        let mut a = LocalState::new();
        a.set("digest_order_zeta", Value::from(1));
        a.set("digest_order_alpha", Value::from(2));
        let mut b = LocalState::new();
        b.set("digest_order_alpha", Value::from(2));
        b.set("digest_order_zeta", Value::from(1));
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        // Every field separates digests.
        let mut c = b.clone();
        c.set("digest_order_alpha", Value::from(3));
        assert_ne!(c.digest(), a.digest());
        let mut d = b.clone();
        d.pc = 1;
        assert_ne!(d.digest(), a.digest());
        let mut e = b.clone();
        e.selected = true;
        assert_ne!(e.digest(), a.digest());
        // An explicitly set Unit register differs from an unset one.
        let mut f = b.clone();
        f.set("digest_order_unit", Value::Unit);
        assert_ne!(f.digest(), b.digest());
        f.unset("digest_order_unit");
        assert_eq!(f.digest(), b.digest());
    }

    #[test]
    fn system_init_uniform_matches() {
        let g = topology::uniform_ring(3);
        let init = SystemInit::uniform(&g);
        assert!(init.matches(&g));
        assert_eq!(init.proc_values.len(), 3);
        assert_eq!(init.var_values.len(), 3);
        assert!(init.proc_values.iter().all(Value::is_unit));
    }

    #[test]
    fn system_init_marked() {
        let g = topology::uniform_ring(3);
        let init = SystemInit::with_marked(&g, &[ProcId::new(2)]);
        assert_eq!(init.proc_values[2], Value::from(1));
        assert!(init.proc_values[0].is_unit());
    }

    #[test]
    fn node_value_spans_procs_then_vars() {
        let g = topology::uniform_ring(2);
        let mut init = SystemInit::uniform(&g);
        init.var_values[1] = Value::from(7);
        assert_eq!(init.node_value(0), &Value::Unit);
        assert_eq!(init.node_value(3), &Value::from(7));
    }
}
