//! **Algorithm 2**: the distributed program by which each processor learns
//! its own similarity label (§4), realized as a [`Program`] for `simsym-vm`
//! machines in instruction set **Q**.
//!
//! The program is *generated* from the system: the graph, the initial
//! state, and the similarity labeling `Θ` (computed centrally by
//! Algorithm 1) are compiled into lookup tables — `PLABELS`, `VLABELS`,
//! initial states per label, `n-nbr` on labels, and the
//! `neighborhood_size` function. Every processor runs the same generated
//! program; a processor's behaviour depends only on its own initial state
//! and what it observes by peeking.
//!
//! Each processor keeps a set `PEC` of labels it suspects for itself and,
//! per name `n`, a set `VEC[n]` of labels it suspects for its
//! `n`-neighbor. It repeatedly peeks all neighbors, removes labels for
//! which it has found an **alibi**, and posts `(PEC, n)` to each neighbor:
//!
//! * a **variable alibi** (`v-alibi`): label `β` is impossible for a
//!   variable if, for some name `n` and label set `Lab`, more processors
//!   posted `n`-suspecting only labels in `Lab` than a `β`-variable has
//!   `n`-neighbors with labels in `Lab`;
//! * a **processor alibi** (`p-alibi`): label `α` is impossible for me if
//!   (1) my `n`-neighbor has an alibi for `n-nbr(α)`, or (2) all
//!   `neighborhood_size(n, n-nbr(α), α)` processors labeled `α` around my
//!   `n`-neighbor already know their label (posted the singleton `{α}`)
//!   while I still do not know mine.
//!
//! A processor is done when `PEC` is a singleton: it has learned its label
//! (Theorem 6: this terminates on connected fair systems). `SELECT(Σ)`
//! (§3, [`crate::select`]) is this program plus “select yourself if your
//! label is the designated elite label”.

use crate::labeling::NeighborhoodTable;
use crate::{InconsistentLabeling, Label, Labeling};
use simsym_graph::SystemGraph;
use simsym_vm::{
    JournalSpec, LocalState, OpEnv, OpKind, PeekView, PhaseSpec, PortSet, Program, ProgramSpec,
    RegId, SystemInit, Value, ValueId,
};
use std::borrow::Borrow;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

/// Sentinel program counter: the processor has learned its label and
/// halted.
const DONE: u32 = u32::MAX;

/// Interned register ids shared by the learner programs (Algorithms 2–4),
/// resolved once per process so the step loops never hash a register name.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LearnerRegs {
    pub(crate) pec: RegId,
    pub(crate) vec: RegId,
    pub(crate) peeked: RegId,
    pub(crate) round: RegId,
    pub(crate) phase: RegId,
    pub(crate) alabel: RegId,
    pub(crate) true_init: RegId,
    pub(crate) init: RegId,
    pub(crate) rname: RegId,
    pub(crate) rstage: RegId,
    pub(crate) rbuf: RegId,
    pub(crate) runlock: RegId,
    pub(crate) counts: RegId,
    pub(crate) wait: RegId,
    pub(crate) post_ni: RegId,
    pub(crate) pstage: RegId,
    pub(crate) pbuf: RegId,
}

pub(crate) fn learner_regs() -> LearnerRegs {
    static REGS: OnceLock<LearnerRegs> = OnceLock::new();
    *REGS.get_or_init(|| LearnerRegs {
        pec: RegId::intern("pec"),
        vec: RegId::intern("vec"),
        peeked: RegId::intern("peeked"),
        round: RegId::intern("round"),
        phase: RegId::intern("phase"),
        alabel: RegId::intern("alabel"),
        true_init: RegId::intern("true_init"),
        init: RegId::intern("init"),
        rname: RegId::intern("rname"),
        rstage: RegId::intern("rstage"),
        rbuf: RegId::intern("rbuf"),
        runlock: RegId::intern("runlock"),
        counts: RegId::intern("counts"),
        wait: RegId::intern("wait"),
        post_ni: RegId::intern("post_ni"),
        pstage: RegId::intern("pstage"),
        pbuf: RegId::intern("pbuf"),
    })
}

/// The compiled knowledge Algorithm 2 needs about `(Σ, Θ)`.
#[derive(Clone, Debug)]
pub struct Alg2Tables {
    names: usize,
    plabels: Vec<Label>,
    vlabels: Vec<Label>,
    /// `state₀` of each processor label.
    state0_p: BTreeMap<Label, Value>,
    /// `state₀` of each variable label.
    state0_v: BTreeMap<Label, Value>,
    /// Processor labels, sorted — the dense index space for the flat
    /// tables below (`plabel_sorted[ai]` ↔ index `ai`).
    plabel_sorted: Vec<Label>,
    /// Variable labels, sorted (index space `bi`).
    vlabel_sorted: Vec<Label>,
    /// `n-nbr` lifted to label indices: `nbr_dense[ai * names + n]` is the
    /// vlabel index of the `n`-neighbor of an `α`-labeled processor, or
    /// `u32::MAX` when the labeling has no entry. Replaces a
    /// `BTreeMap<(Label, usize), Label>` — the learner's alibi kernel
    /// probes this table in its innermost loops.
    nbr_dense: Vec<u32>,
    /// `neighborhood_size(name, α, β)` as a flat row-major array:
    /// `nsize_dense[(n * np + ai) * nv + bi]`, zeros included. The v-alibi
    /// capacity sums walk whole `(n, α)` rows with dense adds instead of
    /// one `BTreeMap` lookup per `(α, β)` pair.
    nsize_dense: Vec<u32>,
    /// One [`CapMask`] per `(name, vlabel index)` over the plabel index
    /// bits, at `cap_masks[n * nv + bi]`, read from `nsize_dense`. Built
    /// only when the plabels fit one word (`plabel_sorted.len() <= 64`),
    /// the dense v-alibi path's precondition; empty otherwise.
    cap_masks: Vec<CapMask>,
    /// Direct label → plabel-index map (`u32::MAX` = not a plabel), built
    /// when the label values are small enough to index an array. Turns the
    /// alibi kernels' label resolution into one load instead of a binary
    /// search; `None` falls back to searching `plabel_sorted`.
    plabel_map: Option<Vec<u32>>,
    /// Algorithm 3 phase-1 mode: ignore all initial states, so every
    /// processor suspects every processor label and every variable every
    /// variable label (§5: a run that ignores initial states has the same
    /// effect on each member of a homogeneous family).
    ignore_init: bool,
    /// Process-unique id assigned at generation; keys the thread-local
    /// alibi memo so entries can never be confused across table sets
    /// (addresses can be reused, epochs cannot).
    epoch: u64,
}

impl Alg2Tables {
    /// Compiles the tables from a system and its similarity labeling.
    ///
    /// # Errors
    ///
    /// Returns [`InconsistentLabeling`] if `labeling` is not a
    /// supersimilarity labeling of `(graph, init)` — the tables are only
    /// well-defined for environment-consistent labelings.
    pub fn generate(
        graph: &SystemGraph,
        init: &SystemInit,
        labeling: &Labeling,
    ) -> Result<Alg2Tables, InconsistentLabeling> {
        let names = graph.name_count();
        let table = NeighborhoodTable::new(graph, labeling)?;
        let mut state0_p = BTreeMap::new();
        for p in graph.processors() {
            let l = labeling.proc_label(p);
            let v = init.proc_values[p.index()].clone();
            if let Some(prev) = state0_p.insert(l, v.clone()) {
                if prev != v {
                    return Err(InconsistentLabeling {
                        detail: format!("processors labeled {l} have different initial states"),
                    });
                }
            }
        }
        let mut state0_v = BTreeMap::new();
        for v in graph.variables() {
            let l = labeling.var_label(v);
            let val = init.var_values[v.index()].clone();
            if let Some(prev) = state0_v.insert(l, val.clone()) {
                if prev != val {
                    return Err(InconsistentLabeling {
                        detail: format!("variables labeled {l} have different initial states"),
                    });
                }
            }
        }
        let mut nbr = BTreeMap::new();
        for p in graph.processors() {
            let alpha = labeling.proc_label(p);
            for (ni, &v) in graph.processor_neighbors(p).iter().enumerate() {
                let beta = labeling.var_label(v);
                if let Some(prev) = nbr.insert((alpha, ni), beta) {
                    if prev != beta {
                        return Err(InconsistentLabeling {
                            detail: format!(
                                "processors labeled {alpha} disagree on the label of their neighbor {ni}"
                            ),
                        });
                    }
                }
            }
        }
        let mut plabel_sorted = labeling.proc_labels();
        plabel_sorted.sort_unstable();
        plabel_sorted.dedup();
        let mut vlabel_sorted = labeling.var_labels();
        vlabel_sorted.sort_unstable();
        vlabel_sorted.dedup();
        let (np, nv) = (plabel_sorted.len(), vlabel_sorted.len());
        let mut nbr_dense = vec![u32::MAX; np * names];
        for ((alpha, ni), beta) in &nbr {
            let ai = plabel_sorted.binary_search(alpha).expect("known plabel");
            let bi = vlabel_sorted.binary_search(beta).expect("known vlabel");
            nbr_dense[ai * names + ni] = bi as u32;
        }
        let mut nsize_dense = vec![0u32; names * np * nv];
        for name in graph.names().ids() {
            for (ai, &alpha) in plabel_sorted.iter().enumerate() {
                let row = (name.index() * np + ai) * nv;
                for (bi, &beta) in vlabel_sorted.iter().enumerate() {
                    nsize_dense[row + bi] = table.size(name, alpha, beta) as u32;
                }
            }
        }
        let plabel_map = match plabel_sorted.last() {
            Some(&max) if (max as usize) < (1 << 16) => {
                let mut map = vec![u32::MAX; max as usize + 1];
                for (ai, &l) in plabel_sorted.iter().enumerate() {
                    map[l as usize] = ai as u32;
                }
                Some(map)
            }
            _ => None,
        };
        let mut tables = Alg2Tables {
            names,
            plabels: labeling.proc_labels(),
            vlabels: labeling.var_labels(),
            state0_p,
            state0_v,
            plabel_sorted,
            vlabel_sorted,
            nbr_dense,
            nsize_dense,
            cap_masks: Vec::new(),
            plabel_map,
            ignore_init: false,
            epoch: {
                static EPOCH: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
                EPOCH.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            },
        };
        if np <= 64 {
            // Walk `nsize_dense` in row order: a column walk per mask
            // strides across the table.
            let mut masks = vec![CapMask::default(); names * nv];
            for n in 0..names {
                for ai in 0..np {
                    let row = tables.nsize_row(n, ai);
                    for (m, &size) in masks[n * nv..(n + 1) * nv].iter_mut().zip(row) {
                        m.add(1 << ai, size);
                    }
                }
            }
            tables.cap_masks = masks;
        }
        Ok(tables)
    }

    /// Switches the tables into the initial-state-ignoring mode used by
    /// Algorithm 3's first phase.
    pub fn ignoring_init(mut self) -> Alg2Tables {
        self.ignore_init = true;
        self
    }

    /// Number of names the tables were compiled for.
    pub fn name_count(&self) -> usize {
        self.names
    }

    /// The processor labels (`PLABELS`).
    pub fn proc_labels(&self) -> &[Label] {
        &self.plabels
    }

    /// The variable labels (`VLABELS`).
    pub fn var_labels(&self) -> &[Label] {
        &self.vlabels
    }

    /// The label of the `n`-neighbor of an `α`-labeled processor.
    pub fn neighbor_label(&self, alpha: Label, name: usize) -> Option<Label> {
        let bi = self.nbr_index(self.plabel_index(alpha)?, name)?;
        Some(self.vlabel_sorted[bi])
    }

    /// Dense index of a processor label, if it is a genuine `PLABEL`.
    fn plabel_index(&self, alpha: Label) -> Option<usize> {
        match &self.plabel_map {
            Some(map) => match map.get(alpha as usize) {
                Some(&ai) if ai != u32::MAX => Some(ai as usize),
                _ => None,
            },
            None => self.plabel_sorted.binary_search(&alpha).ok(),
        }
    }

    /// Dense index of a variable label, if it is a genuine `VLABEL`.
    fn vlabel_index(&self, beta: Label) -> Option<usize> {
        self.vlabel_sorted.binary_search(&beta).ok()
    }

    /// Dense vlabel index of the `n`-neighbor of plabel index `ai`.
    fn nbr_index(&self, ai: usize, name: usize) -> Option<usize> {
        match self.nbr_dense[ai * self.names + name] {
            u32::MAX => None,
            bi => Some(bi as usize),
        }
    }

    /// The `(name, α)` row of `neighborhood_size`, indexed by vlabel index.
    fn nsize_row(&self, name: usize, ai: usize) -> &[u32] {
        let nv = self.vlabel_sorted.len();
        let start = (name * self.plabel_sorted.len() + ai) * nv;
        &self.nsize_dense[start..start + nv]
    }

    /// The precomputed capacity mask of `name` against vlabel index `bi`.
    /// Only valid when `plabel_sorted.len() <= 64`.
    fn cap_mask(&self, name: usize, bi: usize) -> &CapMask {
        &self.cap_masks[name * self.vlabel_sorted.len() + bi]
    }

    /// `state₀` of a processor label, if known.
    pub fn state0_of_proc(&self, label: Label) -> Option<&Value> {
        self.state0_p.get(&label)
    }

    /// `state₀` of a variable label, if known.
    pub fn state0_of_var(&self, label: Label) -> Option<&Value> {
        self.state0_v.get(&label)
    }

    /// `neighborhood_size(name, α, β)`: how many `α`-labeled processors
    /// have a `β`-labeled `name`-neighbor (0 for unknown labels).
    pub fn nsize(&self, name: usize, alpha: Label, beta: Label) -> usize {
        match (self.plabel_index(alpha), self.vlabel_index(beta)) {
            (Some(ai), Some(bi)) => self.nsize_row(name, ai)[bi] as usize,
            _ => 0,
        }
    }
}

/// The generated Algorithm-2 program: every processor learns its label
/// under `Θ`.
///
/// Optionally selects the processor whose learned label lies in `elite`
/// (turning the learner into `SELECT(Σ)`).
pub struct LabelLearner {
    tables: Arc<Alg2Tables>,
    elite: Option<BTreeSet<Label>>,
    name: String,
}

impl LabelLearner {
    /// Builds the label-learning program for `(graph, init, labeling)`.
    ///
    /// # Errors
    ///
    /// See [`Alg2Tables::generate`].
    pub fn new(
        graph: &SystemGraph,
        init: &SystemInit,
        labeling: &Labeling,
    ) -> Result<LabelLearner, InconsistentLabeling> {
        Ok(LabelLearner {
            tables: Arc::new(Alg2Tables::generate(graph, init, labeling)?),
            elite: None,
            name: "algorithm2".to_owned(),
        })
    }

    /// Builds directly from compiled tables (used by Algorithm 3/4 which
    /// share tables across phases).
    pub fn from_tables(tables: Arc<Alg2Tables>) -> LabelLearner {
        LabelLearner {
            tables,
            elite: None,
            name: "algorithm2".to_owned(),
        }
    }

    /// Turns the learner into `SELECT(Σ)`: a processor selects itself when
    /// its learned label is in `elite`.
    pub fn with_elite(mut self, elite: BTreeSet<Label>) -> LabelLearner {
        self.elite = Some(elite);
        self.name = "select".to_owned();
        self
    }

    /// The stable-storage journal spec for crash–replay recovery of the
    /// learner (and of `SELECT(Σ)` built on it).
    ///
    /// `pec`, `vec` and `round` are the commit-point registers: they only
    /// change at round boundaries (`update_suspects_phase` after the last
    /// peek, the round counter after the last post), so journaling them —
    /// plus the always-journaled `pc` and `selected` flag — is enough to
    /// resume mid-protocol. `peeked` is deliberately *not* tracked: it is
    /// scratch that a resumed round re-fills before anything reads it, and
    /// an entry lost to the fsync boundary merely costs the alibis of one
    /// round (the suspect sets shrink monotonically, so a replayed
    /// processor re-peeks and converges to the same label).
    pub fn journal_spec() -> JournalSpec {
        JournalSpec::registers(["pec", "vec", "round"])
    }

    /// The label a processor has learned, if its `PEC` is a singleton.
    pub fn learned_label(local: &LocalState) -> Option<Label> {
        match local.reg_opt(learner_regs().pec)?.as_set()? {
            [Value::Sym(l)] => Some(*l),
            _ => None,
        }
    }

    /// Whether the processor has finished (learned its label and posted it).
    pub fn is_done(local: &LocalState) -> bool {
        local.pc == DONE
    }

    /// The current suspect set of a processor.
    pub fn suspects(local: &LocalState) -> Vec<Label> {
        local
            .reg_opt(learner_regs().pec)
            .and_then(|v| v.as_set())
            .map(|s| s.iter().filter_map(Value::as_sym).collect())
            .unwrap_or_default()
    }
}

pub(crate) fn labels_to_set<I: IntoIterator<Item = Label>>(labels: I) -> Value {
    Value::set(labels.into_iter().map(Value::Sym))
}

pub(crate) fn set_to_labels(v: &Value) -> Vec<Label> {
    v.as_set()
        .map(|s| s.iter().filter_map(Value::as_sym).collect())
        .unwrap_or_default()
}

/// A decoded posted record: `(suspects, name)`, with the bag multiplicity
/// carried as a count instead of expanded into copies — the alibi kernels
/// are weighted by it.
pub(crate) struct Posted {
    pub(crate) suspects: Vec<Label>,
    pub(crate) name: usize,
    pub(crate) count: u64,
}

/// Encodes a posted record. Multi-phase algorithms (Algorithm 3/4) tag
/// posts with their phase and carry the poster's *final label from the
/// previous phase* so that laggards still see the information their phase
/// needs after the poster has overwritten its subvalue.
pub(crate) fn encode_post(suspects: Value, name: usize, phase: i64, prior: Value) -> Value {
    Value::tuple([suspects, Value::from(name), Value::from(phase), prior])
}

/// A decoded post with its suspect set held as a bitset over plabel
/// indices — the alibi kernels then run on word operations end to end.
pub(crate) struct DensePost {
    pub(crate) bits: u64,
    pub(crate) name: usize,
    pub(crate) count: u64,
}

/// The decoded contents of one peeked bag: dense when every posted
/// suspect label is a genuine `PLABEL` and the label space fits one word,
/// sparse otherwise (garbled posts, foreign labels, > 64 plabels).
pub(crate) enum DecodedPosts {
    Dense(Vec<DensePost>),
    Sparse(Vec<Posted>),
}

/// Decodes a peeked bag for `phase`, preferring the dense representation.
pub(crate) fn decode_posts_for(t: &Alg2Tables, bag: &Value, phase: i64) -> DecodedPosts {
    if t.plabel_sorted.len() <= 64 {
        if let Some(dense) = decode_posts_dense(t, bag, phase) {
            return DecodedPosts::Dense(dense);
        }
    }
    DecodedPosts::Sparse(decode_posts(bag, phase))
}

/// Dense decoding: `None` when some suspect label is not a known plabel
/// (the caller then re-decodes sparsely — exactness over speed).
fn decode_posts_dense(t: &Alg2Tables, bag: &Value, phase: i64) -> Option<Vec<DensePost>> {
    let Value::Bag(m) = bag else {
        return Some(Vec::new());
    };
    let mut out = Vec::with_capacity(m.len());
    for (item, &count) in m.iter() {
        let Some([suspects, name, post_phase, prior]) = item
            .as_tuple()
            .and_then(|t| <&[Value; 4]>::try_from(t).ok())
        else {
            continue;
        };
        let (Some(n), Some(pp)) = (name.as_int(), post_phase.as_int()) else {
            continue;
        };
        if pp == phase {
            // Mirrors `set_to_labels`: a non-set decodes as the empty
            // suspect set, and non-symbol items are skipped.
            let mut bits = 0u64;
            if let Some(items) = suspects.as_set() {
                for it in items {
                    if let Some(l) = it.as_sym() {
                        bits |= 1u64 << t.plabel_index(l)?;
                    }
                }
            }
            out.push(DensePost {
                bits,
                name: n as usize,
                count: count as u64,
            });
        } else if pp == phase + 1 {
            if let Some(l) = prior.as_sym() {
                out.push(DensePost {
                    bits: 1u64 << t.plabel_index(l)?,
                    name: n as usize,
                    count: count as u64,
                });
            }
        }
    }
    Some(out)
}

/// Decodes the posts relevant to `phase`: same-phase posts verbatim, and
/// posts from *later* phases reinterpreted as final singleton posts of this
/// phase (via their `prior` label).
pub(crate) fn decode_posts(bag: &Value, phase: i64) -> Vec<Posted> {
    let Value::Bag(m) = bag else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (item, &count) in m.iter() {
        let Some([suspects, name, post_phase, prior]) = item
            .as_tuple()
            .and_then(|t| <&[Value; 4]>::try_from(t).ok())
        else {
            continue;
        };
        let (Some(n), Some(pp)) = (name.as_int(), post_phase.as_int()) else {
            continue;
        };
        if pp == phase {
            out.push(Posted {
                suspects: set_to_labels(suspects),
                name: n as usize,
                count: count as u64,
            });
        } else if pp == phase + 1 {
            if let Some(l) = prior.as_sym() {
                out.push(Posted {
                    suspects: vec![l],
                    name: n as usize,
                    count: count as u64,
                });
            }
        }
    }
    out
}

impl Program for LabelLearner {
    fn boot(&self, initial: &Value) -> LocalState {
        let t = &self.tables;
        let r = learner_regs();
        let mut s = LocalState::with_initial(initial.clone());
        let pec: Vec<Label> = if t.ignore_init {
            t.plabels.clone()
        } else {
            t.plabels
                .iter()
                .copied()
                .filter(|l| t.state0_p.get(l) == Some(initial))
                .collect()
        };
        s.set_reg(r.pec, labels_to_set(pec.iter().copied()));
        s.set_reg(
            r.vec,
            Value::tuple(std::iter::repeat_n(Value::Unit, t.names)),
        );
        s.set_reg(
            r.peeked,
            Value::tuple(std::iter::repeat_n(Value::Unit, t.names)),
        );
        s.set_reg(r.round, Value::from(0));
        if t.names == 0 {
            // Degenerate: no shared variables; the initial suspects are
            // final (a single processor system).
            s.pc = DONE;
            if pec.len() == 1 {
                if let Some(elite) = &self.elite {
                    s.selected = elite.contains(&pec[0]);
                }
            }
        }
        s
    }

    fn step(&self, local: &mut LocalState, ops: &mut OpEnv<'_>) {
        let t = &self.tables;
        let r = learner_regs();
        let names = t.names as u32;
        if local.pc == DONE {
            return;
        }
        if local.pc < names {
            // Peek phase.
            let ni = local.pc as usize;
            let name = ops.name_at(ni);
            let view = ops.peek(name);
            store_peek(local, ni, &view, t);
            local.pc += 1;
            if local.pc == names {
                update_suspects_phase(local, t, 0);
            }
        } else {
            // Post phase.
            let ni = (local.pc - names) as usize;
            let name = ops.name_at(ni);
            let pec = local.reg(r.pec).clone();
            ops.post(name, encode_post(pec, ni, 0, Value::Unit));
            local.pc += 1;
            if local.pc == 2 * names {
                let round = local.reg(r.round).as_int().unwrap_or(0);
                local.set_reg(r.round, Value::from(round + 1));
                let pec = set_to_labels(local.reg(r.pec));
                if pec.len() == 1 {
                    if let Some(elite) = &self.elite {
                        if elite.contains(&pec[0]) {
                            local.selected = true;
                        }
                    }
                    local.pc = DONE;
                } else {
                    local.pc = 0;
                }
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    // Algorithm 2's text: alternate a peek sweep and a post sweep over all
    // names until the suspect set is a singleton. The peek/post `pc`
    // ranges are two phases; every register the sweeps consult is seeded
    // at boot, and every shared op may address any name.
    fn static_spec(&self) -> Option<ProgramSpec> {
        Some(
            ProgramSpec::new(&self.name, 0)
                .boot_writes(&["pec", "vec", "peeked", "round"])
                .phase(
                    PhaseSpec::new(0, "peek-sweep")
                        .reads(&["pec", "vec", "peeked"])
                        .writes(&["pec", "vec", "peeked"])
                        .op(OpKind::Peek, PortSet::All)
                        .succs(&[0, 1]),
                )
                .phase(
                    PhaseSpec::new(1, "post-sweep")
                        .reads(&["pec", "round"])
                        .writes(&["round"])
                        .op(OpKind::Post, PortSet::All)
                        .succs(&[0, 1, 2]),
                )
                .phase(PhaseSpec::new(2, "done").succs(&[2])),
        )
    }
}

/// One [`BAG_CACHE`] entry: the canonical `(ValueId, count)` multiset key
/// and the materialized bag it produced.
type CachedBag = (Vec<(ValueId, u32)>, Value);

thread_local! {
    /// Content-addressed cache of recently materialized peek bags, keyed
    /// by the canonical `(ValueId, count)` multiset. Interning makes the
    /// key exact (equal slices ⇔ equal bags), so a hit skips rebuilding an
    /// identical `Value::Bag` — which every processor in a round-robin
    /// sweep would otherwise do for the same shared variable.
    static BAG_CACHE: RefCell<Vec<CachedBag>> = const { RefCell::new(Vec::new()) };
}

/// Materializes the peeked bag, consulting [`BAG_CACHE`] when the view
/// exposes its canonical counts and the bag is big enough for a rebuild
/// to cost more than the lookup.
fn bag_of(view: &PeekView) -> Value {
    match view.posted_counts() {
        Some(counts) if counts.len() >= 16 => BAG_CACHE.with(|c| {
            let mut cache = c.borrow_mut();
            if let Some(i) = cache.iter().position(|(k, _)| k == counts) {
                let hit = cache.remove(i);
                let v = hit.1.clone();
                cache.push(hit);
                v
            } else {
                let v = view.to_bag();
                if cache.len() >= 8 {
                    cache.remove(0);
                }
                cache.push((counts.to_vec(), v.clone()));
                v
            }
        }),
        _ => view.to_bag(),
    }
}

/// Records the peek result and (re)computes the base candidate set for the
/// variable, minus previously accumulated alibis.
pub(crate) fn store_peek(local: &mut LocalState, ni: usize, view: &PeekView, t: &Alg2Tables) {
    let r = learner_regs();
    // peeked[ni] = bag of posted records — updated in place, copying the
    // tuple only if another state still shares it.
    let Some(Value::Tuple(peeked)) = local.reg_mut(r.peeked) else {
        panic!("peeked register present");
    };
    Arc::make_mut(peeked)[ni] = bag_of(view);
    // Initialize VEC[ni] on first peek: labels whose state₀ matches the
    // observed initial value.
    let Some(Value::Tuple(vec)) = local.reg_mut(r.vec) else {
        panic!("vec register present");
    };
    if vec[ni].is_unit() {
        let base: Vec<Label> = if t.ignore_init {
            t.vlabels.clone()
        } else {
            t.vlabels
                .iter()
                .copied()
                .filter(|l| t.state0_v.get(l) == Some(view.initial()))
                .collect()
        };
        Arc::make_mut(vec)[ni] = labels_to_set(base);
    }
}

/// The body of Algorithm 2's loop after all peeks of a round:
/// `VEC[n] -= v-alibi(local[n])`, then `PEC -= p-alibi(VEC, local, PEC)`.
pub(crate) fn update_suspects_phase(local: &mut LocalState, t: &Alg2Tables, phase: i64) {
    let r = learner_regs();
    let peeked: Vec<DecodedPosts> = local
        .reg_opt(r.peeked)
        .and_then(|v| v.as_tuple())
        .expect("peeked register present")
        .iter()
        .map(|b| decode_posts_for(t, b, phase))
        .collect();
    let mut vec: Vec<Vec<Label>> = local
        .reg_opt(r.vec)
        .and_then(|v| v.as_tuple())
        .expect("vec register present")
        .iter()
        .map(set_to_labels)
        .collect();
    // v-alibi per name.
    for (ni, posts) in peeked.iter().enumerate() {
        let alibis = match posts {
            DecodedPosts::Dense(posts) => v_alibi_dense(posts, &vec[ni], t),
            DecodedPosts::Sparse(posts) => v_alibi(posts, &vec[ni], t),
        };
        vec[ni].retain(|l| !alibis.contains(l));
    }
    // p-alibi.
    let pec = set_to_labels(local.reg(r.pec));
    let alibis = p_alibi(&pec, &vec, &peeked, t);
    let new_pec: Vec<Label> = pec
        .iter()
        .copied()
        .filter(|l| !alibis.contains(l))
        .collect();
    local.set_reg(r.pec, labels_to_set(new_pec));
    local.set_reg(r.vec, Value::tuple(vec.into_iter().map(labels_to_set)));
}

/// `v-alibi`: variable labels ruled out by the posted suspect sets.
///
/// The paper quantifies `Lab` over the powerset of `PLABELS` but notes
/// (footnote 2) that linearly many sets suffice; we enumerate the unions
/// of the *distinct posted suspect sets* (any violated powerset witness
/// has such a union as a tighter witness).
pub(crate) fn v_alibi(posts: &[Posted], candidates: &[Label], t: &Alg2Tables) -> BTreeSet<Label> {
    let mut out = BTreeSet::new();
    if posts.is_empty() || candidates.is_empty() {
        return out;
    }
    let cand_idx: Vec<Option<usize>> = candidates.iter().map(|&b| t.vlabel_index(b)).collect();
    let mut ruled = vec![false; candidates.len()];
    let mut names: Vec<usize> = posts.iter().map(|p| p.name).collect();
    names.sort_unstable();
    names.dedup();
    for n in names {
        if ruled.iter().all(|r| *r) {
            break;
        }
        // The label universe actually posted for this name, sorted. It may
        // contain labels outside PLABELS: those still participate in the
        // subset tests but contribute zero capacity, exactly as a missing
        // `neighborhood_size` entry would.
        let mut universe: Vec<Label> = Vec::new();
        for p in posts.iter().filter(|p| p.name == n) {
            for &l in &p.suspects {
                if let Err(i) = universe.binary_search(&l) {
                    universe.insert(i, l);
                }
            }
        }
        if universe.len() <= 64 {
            v_alibi_narrow(
                posts, candidates, &cand_idx, &mut ruled, &mut out, t, n, &universe,
            );
        } else {
            v_alibi_wide(
                posts, candidates, &cand_idx, &mut ruled, &mut out, t, n, &universe,
            );
        }
    }
    out
}

/// Per-candidate capacity as bit machinery: capacity(lab, β) is a
/// popcount over the index bits whose `neighborhood_size(n, α, β)` is 1,
/// plus a (rarely populated) overflow list for larger entries. This reads
/// exactly the candidates the caller asked about instead of accumulating
/// whole dense rows per lab.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct CapMask {
    ones: u64,
    overflow: Vec<(u64, u64)>,
}

impl CapMask {
    /// Adds the `neighborhood_size` of one index bit: a size of 1 sets the
    /// bit in `ones`, a larger one goes to `overflow`, 0 adds nothing.
    fn add(&mut self, bit: u64, size: u32) {
        match u64::from(size) {
            0 => {}
            1 => self.ones |= bit,
            v => self.overflow.push((bit, v)),
        }
    }

    /// The mask of `(bit, neighborhood_size)` pairs.
    fn from_sizes(sizes: impl IntoIterator<Item = (u64, u32)>) -> CapMask {
        let mut m = CapMask::default();
        for (bit, size) in sizes {
            m.add(bit, size);
        }
        m
    }
}

/// Unions of subsets of the distinct sets; beyond the cap, a chain of
/// prefix unions keeps the enumeration polynomial. The alibi set is a
/// union over the result, so order and duplicates are irrelevant — only
/// the cap threshold must match the spec.
fn labs_u64(distinct: &[(u64, u64)]) -> Vec<u64> {
    let k = distinct.len();
    let mut labs: Vec<u64> = if k <= UNION_CAP {
        (1u32..(1u32 << k))
            .map(|mask| {
                let mut u = 0u64;
                for (i, &(b, _)) in distinct.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        u |= b;
                    }
                }
                u
            })
            .collect()
    } else {
        let mut chain = Vec::with_capacity(2 * k);
        let mut acc = 0u64;
        for &(b, _) in distinct {
            chain.push(b);
            acc |= b;
            chain.push(acc);
        }
        chain
    };
    labs.sort_unstable();
    labs.dedup();
    labs
}

/// The shared v-alibi verdict loop over single-word bitsets:
/// `posted_within(lab) > capacity(lab, β)` rules β out.
fn rule_candidates_u64(
    labs: &[u64],
    distinct: &[(u64, u64)],
    masks: &[impl Borrow<CapMask>],
    candidates: &[Label],
    ruled: &mut [bool],
    out: &mut BTreeSet<Label>,
) {
    for &lab in labs {
        if ruled.iter().all(|r| *r) {
            return;
        }
        let posted_within: u64 = distinct
            .iter()
            .filter(|&&(b, _)| b & !lab == 0)
            .map(|&(_, c)| c)
            .sum();
        for (ci, &beta) in candidates.iter().enumerate() {
            if ruled[ci] {
                continue;
            }
            let m = masks[ci].borrow();
            let capacity = u64::from((lab & m.ones).count_ones())
                + m.overflow
                    .iter()
                    .filter(|&&(bit, _)| lab & bit != 0)
                    .map(|&(_, v)| v)
                    .sum::<u64>();
            if posted_within > capacity {
                ruled[ci] = true;
                out.insert(beta);
            }
        }
    }
}

/// One memo entry of [`VALIBI_CACHE`]: the table epoch, name, distinct
/// posted bitsets, and candidate list fully determine the per-name ruled
/// set (sorted).
type ValibiKey = (u64, usize, Vec<(u64, u64)>, Vec<Label>);

thread_local! {
    /// Memo for the per-name dense v-alibi verdict. Under a round-robin
    /// sweep every processor peeks the same shared bag and (early on)
    /// holds the same candidate set, so the expensive lab enumeration
    /// repeats `n`-fold per round with identical inputs.
    static VALIBI_CACHE: RefCell<Vec<(ValibiKey, Vec<Label>)>> = const { RefCell::new(Vec::new()) };
}

/// The labels ruled out by name `n` alone, over dense posts. Pure in
/// `(t.epoch, n, distinct, candidates)` — which is what the memo keys on.
fn v_alibi_name_dense(
    t: &Alg2Tables,
    n: usize,
    distinct: &[(u64, u64)],
    candidates: &[Label],
) -> Vec<Label> {
    static NO_CAPACITY: CapMask = CapMask {
        ones: 0,
        overflow: Vec::new(),
    };
    let labs = labs_u64(distinct);
    let masks: Vec<&CapMask> = candidates
        .iter()
        .map(|&b| match t.vlabel_index(b) {
            Some(bi) => t.cap_mask(n, bi),
            None => &NO_CAPACITY,
        })
        .collect();
    let mut ruled = vec![false; candidates.len()];
    let mut out = BTreeSet::new();
    rule_candidates_u64(&labs, distinct, &masks, candidates, &mut ruled, &mut out);
    out.into_iter().collect()
}

/// `v_alibi` over dense posts: suspect sets are already bitsets over the
/// plabel index space, so the whole kernel is word operations plus one
/// `nsize` column read per candidate — and the per-name verdict is
/// memoized across the (typically identical) peeks of one round.
pub(crate) fn v_alibi_dense(
    posts: &[DensePost],
    candidates: &[Label],
    t: &Alg2Tables,
) -> BTreeSet<Label> {
    let mut out = BTreeSet::new();
    if posts.is_empty() || candidates.is_empty() {
        return out;
    }
    let mut names: Vec<usize> = posts.iter().map(|p| p.name).collect();
    names.sort_unstable();
    names.dedup();
    for n in names {
        let mut distinct: Vec<(u64, u64)> = Vec::new();
        for p in posts.iter().filter(|p| p.name == n) {
            match distinct.iter_mut().find(|(b, _)| *b == p.bits) {
                Some(entry) => entry.1 += p.count,
                None => distinct.push((p.bits, p.count)),
            }
        }
        let ruled = VALIBI_CACHE.with(|c| {
            let mut cache = c.borrow_mut();
            let pos = cache.iter().position(|((e, cn, d, cand), _)| {
                *e == t.epoch && *cn == n && d == &distinct && cand == candidates
            });
            if let Some(i) = pos {
                let hit = cache.remove(i);
                let ruled = hit.1.clone();
                cache.push(hit);
                ruled
            } else {
                let ruled = v_alibi_name_dense(t, n, &distinct, candidates);
                if cache.len() >= 8 {
                    cache.remove(0);
                }
                cache.push((
                    (t.epoch, n, distinct.clone(), candidates.to_vec()),
                    ruled.clone(),
                ));
                ruled
            }
        });
        out.extend(ruled);
        if out.len() == candidates.len() {
            break;
        }
    }
    out
}

/// The sparse narrow case: the posted label universe still fits one
/// machine word, so the same u64 kernel applies after indexing the
/// universe.
#[allow(clippy::too_many_arguments)]
fn v_alibi_narrow(
    posts: &[Posted],
    candidates: &[Label],
    cand_idx: &[Option<usize>],
    ruled: &mut [bool],
    out: &mut BTreeSet<Label>,
    t: &Alg2Tables,
    n: usize,
    universe: &[Label],
) {
    // Distinct suspect sets as bitsets over the universe, with their
    // multiplicities — posted_within is then a handful of word-wise
    // subset tests instead of a scan over every post.
    let mut distinct: Vec<(u64, u64)> = Vec::new();
    for p in posts.iter().filter(|p| p.name == n) {
        let mut bits = 0u64;
        for &l in &p.suspects {
            bits |= 1 << universe.binary_search(&l).expect("label in universe");
        }
        match distinct.iter_mut().find(|(b, _)| *b == bits) {
            Some(entry) => entry.1 += p.count,
            None => distinct.push((bits, p.count)),
        }
    }
    let labs = labs_u64(&distinct);
    let masks: Vec<CapMask> = cand_idx
        .iter()
        .map(|bi| match *bi {
            Some(bi) => {
                CapMask::from_sizes(universe.iter().enumerate().filter_map(|(i, &alpha)| {
                    t.plabel_index(alpha)
                        .map(|ai| (1 << i, t.nsize_row(n, ai)[bi]))
                }))
            }
            None => CapMask::default(),
        })
        .collect();
    rule_candidates_u64(&labs, &distinct, &masks, candidates, ruled, out);
}

/// Fallback for universes past 64 labels: the same enumeration over
/// multi-word bitsets, with capacities from dense `nsize` row sums.
#[allow(clippy::too_many_arguments)]
fn v_alibi_wide(
    posts: &[Posted],
    candidates: &[Label],
    cand_idx: &[Option<usize>],
    ruled: &mut [bool],
    out: &mut BTreeSet<Label>,
    t: &Alg2Tables,
    n: usize,
    universe: &[Label],
) {
    let nv = t.vlabel_sorted.len();
    let words = universe.len().div_ceil(64).max(1);
    let mut distinct: Vec<(Vec<u64>, u64)> = Vec::new();
    for p in posts.iter().filter(|p| p.name == n) {
        let mut bits = vec![0u64; words];
        for &l in &p.suspects {
            let i = universe.binary_search(&l).expect("label in universe");
            bits[i / 64] |= 1 << (i % 64);
        }
        match distinct.iter_mut().find(|(b, _)| *b == bits) {
            Some(entry) => entry.1 += p.count,
            None => distinct.push((bits, p.count)),
        }
    }
    let k = distinct.len();
    let mut labs: Vec<Vec<u64>> = if k <= UNION_CAP {
        (1u32..(1u32 << k))
            .map(|mask| {
                let mut u = vec![0u64; words];
                for (i, (b, _)) in distinct.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        for (uw, bw) in u.iter_mut().zip(b) {
                            *uw |= bw;
                        }
                    }
                }
                u
            })
            .collect()
    } else {
        let mut chain = Vec::with_capacity(2 * k);
        let mut acc = vec![0u64; words];
        for (b, _) in &distinct {
            chain.push(b.clone());
            for (aw, bw) in acc.iter_mut().zip(b) {
                *aw |= bw;
            }
            chain.push(acc.clone());
        }
        chain
    };
    labs.sort_unstable();
    labs.dedup();
    // Capacity row per universe label (unknown labels have none).
    let rows: Vec<Option<&[u32]>> = universe
        .iter()
        .map(|&l| t.plabel_index(l).map(|ai| t.nsize_row(n, ai)))
        .collect();
    let mut cap_row = vec![0u64; nv];
    for lab in &labs {
        if ruled.iter().all(|r| *r) {
            return;
        }
        let posted_within: u64 = distinct
            .iter()
            .filter(|(b, _)| b.iter().zip(lab).all(|(bw, lw)| bw & !lw == 0))
            .map(|&(_, c)| c)
            .sum();
        if posted_within == 0 {
            continue;
        }
        cap_row.iter_mut().for_each(|c| *c = 0);
        for (i, row) in rows.iter().enumerate() {
            if lab[i / 64] & (1 << (i % 64)) != 0 {
                if let Some(row) = row {
                    for (c, &r) in cap_row.iter_mut().zip(*row) {
                        *c += u64::from(r);
                    }
                }
            }
        }
        for (ci, &beta) in candidates.iter().enumerate() {
            if !ruled[ci] && posted_within > cand_idx[ci].map_or(0, |bi| cap_row[bi]) {
                ruled[ci] = true;
                out.insert(beta);
            }
        }
    }
}

/// Beyond this many distinct suspect sets, `v_alibi` switches from the
/// full subset-union enumeration to the linear prefix-union chain.
const UNION_CAP: usize = 12;

/// `p-alibi`: processor labels ruled out for *me*.
pub(crate) fn p_alibi(
    pec: &[Label],
    vec: &[Vec<Label>],
    peeked: &[DecodedPosts],
    t: &Alg2Tables,
) -> BTreeSet<Label> {
    let mut out = BTreeSet::new();
    let np = t.plabel_sorted.len();
    // Per name, how many posts are the singleton `{α}`, dense over plabel
    // indices — condition 2's "knowers" counted once, not per PEC member.
    let singles: Vec<Vec<u64>> = if pec.len() > 1 {
        (0..t.names)
            .map(|n| {
                let mut counts = vec![0u64; np];
                match &peeked[n] {
                    DecodedPosts::Dense(posts) => {
                        for p in posts.iter().filter(|p| p.name == n) {
                            if p.bits.count_ones() == 1 {
                                counts[p.bits.trailing_zeros() as usize] += p.count;
                            }
                        }
                    }
                    DecodedPosts::Sparse(posts) => {
                        for p in posts.iter().filter(|p| p.name == n) {
                            if let [alpha] = p.suspects[..] {
                                if let Some(ai) = t.plabel_index(alpha) {
                                    counts[ai] += p.count;
                                }
                            }
                        }
                    }
                }
                counts
            })
            .collect()
    } else {
        Vec::new()
    };
    for &alpha in pec {
        let ai = t.plabel_index(alpha);
        let mut alibi = false;
        for n in 0..t.names {
            let Some(bi) = ai.and_then(|ai| t.nbr_index(ai, n)) else {
                // α-processors have no neighbor table entry for n — since
                // every processor has one neighbor per name this cannot
                // happen for genuine labels; treat as an alibi.
                alibi = true;
                break;
            };
            // Condition 1: my n-neighbor cannot be labeled n-nbr(α).
            let beta = t.vlabel_sorted[bi];
            if !vec[n].contains(&beta) {
                alibi = true;
                break;
            }
            // Condition 2: all α-processors around my n-neighbor already
            // know they are α, and I still don't know who I am.
            if pec.len() > 1 {
                let ai = ai.expect("nbr entry implies known plabel");
                let knowers = singles[n][ai];
                if knowers == u64::from(t.nsize_row(n, ai)[bi]) && knowers > 0 {
                    alibi = true;
                    break;
                }
            }
        }
        if alibi {
            out.insert(alpha);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hopcroft_similarity;
    use crate::Model;
    use simsym_graph::{topology, ProcId};
    use simsym_vm::engine::{self, stop};
    use simsym_vm::{
        BoundedFairRandom, InstructionSet, Machine, RandomFair, RoundRobin, Scheduler, SystemInit,
    };

    /// Runs the learner until every processor is done (or the budget runs
    /// out) and returns the learned labels.
    fn learn(
        graph: &SystemGraph,
        init: &SystemInit,
        sched: &mut dyn Scheduler,
        max_steps: u64,
    ) -> Option<Vec<Label>> {
        let labeling = hopcroft_similarity(graph, init, Model::Q);
        let prog = LabelLearner::new(graph, init, &labeling).expect("consistent labeling");
        let mut m = Machine::new(
            Arc::new(graph.clone()),
            InstructionSet::Q,
            Arc::new(prog),
            init,
        )
        .expect("valid machine");
        let report = engine::run(
            &mut m,
            sched,
            max_steps,
            &mut [],
            &mut stop::when(|mach: &Machine| {
                mach.graph()
                    .processors()
                    .all(|p| LabelLearner::is_done(mach.local(p)))
            }),
        );
        let all_done = m
            .graph()
            .processors()
            .all(|p| LabelLearner::is_done(m.local(p)));
        if !all_done {
            let _ = report;
            return None;
        }
        Some(
            m.graph()
                .processors()
                .map(|p| LabelLearner::learned_label(m.local(p)).expect("done means learned"))
                .collect(),
        )
    }

    fn assert_learns_theta(graph: &SystemGraph, init: &SystemInit, max_steps: u64) {
        let labeling = hopcroft_similarity(graph, init, Model::Q);
        let mut sched = RoundRobin::new();
        let learned = learn(graph, init, &mut sched, max_steps)
            .unwrap_or_else(|| panic!("learner did not converge on {graph:?}"));
        for p in graph.processors() {
            assert_eq!(
                learned[p.index()],
                labeling.proc_label(p),
                "{p} learned the wrong label on {graph:?}"
            );
        }
    }

    #[test]
    fn figure2_processors_learn_their_labels() {
        // The paper's worked example: p3 needs the second kind of alibi.
        let g = topology::figure2();
        assert_learns_theta(&g, &SystemInit::uniform(&g), 10_000);
    }

    #[test]
    fn figure2_learning_under_random_fair_schedule() {
        let g = topology::figure2();
        let init = SystemInit::uniform(&g);
        let labeling = hopcroft_similarity(&g, &init, Model::Q);
        for seed in 0..10 {
            let mut sched = RandomFair::seeded(seed);
            let learned = learn(&g, &init, &mut sched, 50_000)
                .unwrap_or_else(|| panic!("no convergence with seed {seed}"));
            for p in g.processors() {
                assert_eq!(learned[p.index()], labeling.proc_label(p));
            }
        }
    }

    #[test]
    fn marked_ring_all_learn_unique_labels() {
        let g = topology::marked_ring(5);
        assert_learns_theta(&g, &SystemInit::uniform(&g), 100_000);
    }

    #[test]
    fn marked_init_ring_learns() {
        let g = topology::uniform_ring(4);
        let init = SystemInit::with_marked(&g, &[ProcId::new(0)]);
        assert_learns_theta(&g, &init, 100_000);
    }

    #[test]
    fn line_learns() {
        let g = topology::line(4);
        assert_learns_theta(&g, &SystemInit::uniform(&g), 100_000);
    }

    #[test]
    fn uniform_ring_converges_instantly() {
        // All processors share one label: PEC is a singleton from the
        // start; one round posts it and finishes.
        let g = topology::uniform_ring(4);
        let init = SystemInit::uniform(&g);
        let labeling = hopcroft_similarity(&g, &init, Model::Q);
        let mut sched = RoundRobin::new();
        let learned = learn(&g, &init, &mut sched, 1_000).expect("converges");
        assert!(learned
            .iter()
            .all(|&l| l == labeling.proc_label(ProcId::new(0))));
    }

    #[test]
    fn figure1_converges_to_shared_label() {
        let g = topology::figure1();
        assert_learns_theta(&g, &SystemInit::uniform(&g), 1_000);
    }

    #[test]
    fn bounded_fair_schedule_also_works() {
        let g = topology::figure2();
        let init = SystemInit::uniform(&g);
        let labeling = hopcroft_similarity(&g, &init, Model::Q);
        let mut sched = BoundedFairRandom::new(3, 5, 42);
        let learned = learn(&g, &init, &mut sched, 50_000).expect("converges");
        for p in g.processors() {
            assert_eq!(learned[p.index()], labeling.proc_label(p));
        }
    }

    #[test]
    fn tables_reject_non_supersimilar_labeling() {
        let g = topology::figure2();
        let init = SystemInit::uniform(&g);
        // All nodes in two coarse classes: not environment-consistent.
        let bad = Labeling::from_raw(3, &[0, 0, 0, 1, 1, 1]);
        assert!(Alg2Tables::generate(&g, &init, &bad).is_err());
    }

    #[test]
    fn tables_reject_mismatched_initial_states() {
        let g = topology::figure1();
        let init = SystemInit::with_marked(&g, &[ProcId::new(0)]);
        // Both processors share a label but have different initial states.
        let l = Labeling::from_raw(2, &[0, 0, 1]);
        let err = Alg2Tables::generate(&g, &init, &l).unwrap_err();
        assert!(err.to_string().contains("initial states"));
    }

    #[test]
    fn suspects_shrink_monotonically() {
        let g = topology::figure2();
        let init = SystemInit::uniform(&g);
        let labeling = hopcroft_similarity(&g, &init, Model::Q);
        let prog = LabelLearner::new(&g, &init, &labeling).unwrap();
        let mut m = Machine::new(Arc::new(g), InstructionSet::Q, Arc::new(prog), &init).unwrap();
        let mut sched = RoundRobin::new();
        let mut last: Vec<usize> = vec![usize::MAX; 3];
        for _ in 0..200 {
            let p = sched.next(&m);
            m.step(p);
            for q in m.graph().processors() {
                let now = LabelLearner::suspects(m.local(q)).len();
                assert!(
                    now <= last[q.index()] || last[q.index()] == usize::MAX,
                    "suspects grew for {q}"
                );
                if now > 0 {
                    last[q.index()] = now;
                }
            }
        }
    }

    #[test]
    fn crashed_learner_replays_from_journal_and_still_converges() {
        use simsym_vm::{
            CrashFault, FaultEvent, FaultPlan, FaultSched, FaultView, Faulty, Recovery,
        };
        // Crash p1 mid-protocol and reboot it from the journal: the
        // replayed processor re-peeks, re-announces its (journaled)
        // suspect set idempotently, and every processor still learns its
        // correct label.
        let g = topology::figure2();
        let init = SystemInit::uniform(&g);
        let labeling = hopcroft_similarity(&g, &init, Model::Q);
        let prog = LabelLearner::new(&g, &init, &labeling).expect("consistent labeling");
        let m =
            Machine::new(Arc::new(g), InstructionSet::Q, Arc::new(prog), &init).expect("machine");
        let plan = FaultPlan::crashes(vec![CrashFault {
            proc: ProcId::new(1),
            at_step: 7,
            recovery: Some(Recovery::replay(19)),
        }]);
        let mut f = Faulty::with_journal(m, plan, LabelLearner::journal_spec());
        let mut fsched = FaultSched::new(RoundRobin::new());
        engine::run(
            &mut f,
            &mut fsched,
            50_000,
            &mut [],
            &mut stop::when(|sys: &Faulty<Machine>| {
                sys.inner()
                    .graph()
                    .processors()
                    .all(|p| LabelLearner::is_done(sys.inner().local(p)))
            }),
        );
        assert!(f
            .fault_events()
            .iter()
            .any(|e| matches!(e, FaultEvent::Replayed { proc, .. } if proc.index() == 1)));
        for p in f.inner().graph().processors() {
            assert!(
                LabelLearner::is_done(f.inner().local(p)),
                "{p} did not converge after the replay recovery"
            );
            assert_eq!(
                LabelLearner::learned_label(f.inner().local(p)),
                Some(labeling.proc_label(p)),
                "{p} learned the wrong label after the replay recovery"
            );
        }
    }

    #[test]
    fn learned_label_accessor() {
        let mut s = LocalState::new();
        assert_eq!(LabelLearner::learned_label(&s), None);
        s.set("pec", Value::set([Value::Sym(3)]));
        assert_eq!(LabelLearner::learned_label(&s), Some(3));
        s.set("pec", Value::set([Value::Sym(3), Value::Sym(4)]));
        assert_eq!(LabelLearner::learned_label(&s), None);
    }

    /// Whether two tuple values share one allocation.
    fn shares_storage(a: &Value, b: &Value) -> bool {
        matches!((a, b), (Value::Tuple(x), Value::Tuple(y)) if Arc::ptr_eq(x, y))
    }

    #[test]
    fn store_peek_on_a_cloned_state_copies_on_write() {
        // Exploration clones a state and steps the clone: the original's
        // `peeked` and `vec` must not see the clone's in-place updates.
        let g = topology::figure2();
        let init = SystemInit::uniform(&g);
        let labeling = hopcroft_similarity(&g, &init, Model::Q);
        let prog = LabelLearner::new(&g, &init, &labeling).expect("consistent labeling");
        let r = learner_regs();
        let original = prog.boot(&init.proc_values[0]);
        let mut copy = original.clone();
        assert!(shares_storage(original.reg(r.peeked), copy.reg(r.peeked)));
        assert!(shares_storage(original.reg(r.vec), copy.reg(r.vec)));

        let post = encode_post(original.reg(r.pec).clone(), 0, 0, Value::Unit);
        let view = PeekView::owned(init.var_values[0].clone(), vec![post.clone()]);
        store_peek(&mut copy, 0, &view, &prog.tables);

        let unset = Value::tuple(std::iter::repeat_n(Value::Unit, prog.tables.names));
        assert_eq!(original.reg(r.peeked), &unset);
        assert_eq!(original.reg(r.vec), &unset);
        assert_eq!(original, prog.boot(&init.proc_values[0]));
        let peeked = copy.reg(r.peeked).as_tuple().expect("peeked tuple");
        assert_eq!(peeked[0], Value::bag([post]));
        assert!(!copy.reg(r.vec).as_tuple().expect("vec tuple")[0].is_unit());

        // Now unshared, the register is updated in place, without a copy.
        let Some(Value::Tuple(storage)) = copy.reg_opt(r.peeked) else {
            panic!("peeked tuple");
        };
        let addr = Arc::as_ptr(storage);
        store_peek(&mut copy, 1, &view, &prog.tables);
        let Some(Value::Tuple(storage)) = copy.reg_opt(r.peeked) else {
            panic!("peeked tuple");
        };
        assert_eq!(Arc::as_ptr(storage), addr);
    }

    #[test]
    fn precomputed_capacity_masks_match_the_nsize_rows() {
        for g in [
            topology::figure2(),
            topology::marked_ring(8),
            topology::marked_ring(64),
        ] {
            let init = SystemInit::uniform(&g);
            let labeling = hopcroft_similarity(&g, &init, Model::Q);
            let t = Alg2Tables::generate(&g, &init, &labeling).expect("consistent labeling");
            let (np, nv) = (t.plabel_sorted.len(), t.vlabel_sorted.len());
            assert!(np <= 64, "{np} plabels");
            assert_eq!(t.cap_masks.len(), t.names * nv);
            for n in 0..t.names {
                for bi in 0..nv {
                    let want =
                        CapMask::from_sizes((0..np).map(|ai| (1 << ai, t.nsize_row(n, ai)[bi])));
                    assert_eq!(t.cap_mask(n, bi), &want, "name {n}, vlabel index {bi}");
                }
            }
        }
        // Past one word of plabels the dense path is never taken, and no
        // masks are built.
        let g = topology::marked_ring(65);
        let init = SystemInit::uniform(&g);
        let labeling = hopcroft_similarity(&g, &init, Model::Q);
        let t = Alg2Tables::generate(&g, &init, &labeling).expect("consistent labeling");
        assert!(t.plabel_sorted.len() > 64);
        assert!(t.cap_masks.is_empty());
    }
}
