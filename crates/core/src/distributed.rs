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
//!
//! The rule is written once. After the last peek of a round, each peeked
//! bag is decoded into suspect sets over the plabel indices (a plabel is
//! its own index: canonical labelings number processors first); a post
//! holding a label outside PLABELS lies within no `Lab ⊆ PLABELS` and is
//! dropped. Per post-name, the decoded bag keeps the unions of the
//! distinct posted sets (footnote 2), each with the number of posts
//! within it, and the plabels condition 2 of the p-alibi rules out. None
//! of that depends on the peeker, so a bag is decoded once per (bag,
//! phase, tables) and shared through a small per-thread cache by every
//! processor that peeks it. The v-alibi is then a capacity test per
//! candidate against those unions, with precomputed capacity masks, and
//! the p-alibi a bit test per `(α, n)`; the update writes back only what
//! changed. Sets are one machine word for up to 64 plabels and a word
//! vector past that, through the same code. The round itself is one step
//! function shared by this program, both phases of Algorithm 3, consensus
//! and choice coordination; each keeps its own registers and decides where
//! a finished round goes.

use crate::labeling::NeighborhoodTable;
use crate::{InconsistentLabeling, Label, Labeling};
use simsym_graph::SystemGraph;
use simsym_vm::{
    JournalSpec, LocalState, OpEnv, OpKind, PeekView, PhaseSpec, PortSet, Program, ProgramSpec,
    RegId, SystemInit, Value, ValueId,
};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::{Arc, OnceLock};
use std::thread::LocalKey;

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
    /// The processor labels, sorted. Canonical labelings number processors
    /// first, so these are `0..np` and each plabel is its own index in the
    /// flat tables below.
    plabels: Vec<Label>,
    /// The variable labels, sorted — the index space `bi` of the flat
    /// tables below.
    vlabels: Vec<Label>,
    /// `state₀` of each processor label.
    state0_p: BTreeMap<Label, Value>,
    /// `state₀` of each variable label.
    state0_v: BTreeMap<Label, Value>,
    /// `n-nbr` lifted to label indices: `nbr_dense[ai * names + n]` is the
    /// vlabel index of the `n`-neighbor of an `α`-labeled processor, or
    /// `u32::MAX` when the labeling has no entry. Replaces a
    /// `BTreeMap<(Label, usize), Label>` — the learner's alibi kernel
    /// probes this table in its innermost loops.
    nbr_dense: Vec<u32>,
    /// `neighborhood_size(name, α, β)` as a flat row-major array:
    /// `nsize_dense[(n * np + ai) * nv + bi]`, zeros included.
    nsize_dense: Vec<u32>,
    /// One [`CapMask`] per `(name, vlabel index)` over the plabel index
    /// bits, at `cap_masks[n * nv + bi]`, read from `nsize_dense`.
    cap_masks: Vec<CapMask>,
    /// The vlabel index of each label value, `u32::MAX` for labels that
    /// are not variable labels.
    vlabel_at: Vec<u32>,
    /// Algorithm 3 phase-1 mode: ignore all initial states, so every
    /// processor suspects every processor label and every variable every
    /// variable label (§5: a run that ignores initial states has the same
    /// effect on each member of a homogeneous family).
    ignore_init: bool,
    /// Process-unique id assigned at generation; keys the thread-local
    /// decoded bags so entries can never be confused across table sets
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
        let plabels = labeling.proc_labels();
        let vlabels = labeling.var_labels();
        let (np, nv) = (plabels.len(), vlabels.len());
        debug_assert!(
            plabels.iter().copied().eq(0..np as Label),
            "canonical labelings number processors first"
        );
        let mut vlabel_at = vec![u32::MAX; vlabels.last().map_or(0, |&l| l as usize + 1)];
        for (bi, &beta) in vlabels.iter().enumerate() {
            vlabel_at[beta as usize] = bi as u32;
        }
        let mut nbr_dense = vec![u32::MAX; np * names];
        for (&(alpha, ni), &beta) in &nbr {
            nbr_dense[alpha as usize * names + ni] = vlabel_at[beta as usize];
        }
        // Only the nonzero sizes, in (name, α, β) order, so that each
        // mask's overflow list comes out sorted by α.
        let mut nsize_dense = vec![0u32; names * np * nv];
        let mut cap_masks = vec![CapMask::over(np); names * nv];
        for (name, alpha, beta, size) in table.entries() {
            let (n, ai) = (name.index(), alpha as usize);
            let bi = vlabel_at[beta as usize] as usize;
            nsize_dense[(n * np + ai) * nv + bi] = size as u32;
            cap_masks[n * nv + bi].add(ai, size as u32);
        }
        Ok(Alg2Tables {
            names,
            plabels,
            vlabels,
            state0_p,
            state0_v,
            nbr_dense,
            nsize_dense,
            cap_masks,
            vlabel_at,
            ignore_init: false,
            epoch: {
                static EPOCH: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
                EPOCH.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            },
        })
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
        Some(self.vlabels[bi])
    }

    /// Dense index of a processor label, if it is a genuine `PLABEL`.
    fn plabel_index(&self, alpha: Label) -> Option<usize> {
        ((alpha as usize) < self.plabels.len()).then_some(alpha as usize)
    }

    /// Dense index of a variable label, if it is a genuine `VLABEL`.
    fn vlabel_index(&self, beta: Label) -> Option<usize> {
        match self.vlabel_at.get(beta as usize) {
            Some(&bi) if bi != u32::MAX => Some(bi as usize),
            _ => None,
        }
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
        let nv = self.vlabels.len();
        let start = (name * self.plabels.len() + ai) * nv;
        &self.nsize_dense[start..start + nv]
    }

    /// The precomputed capacity mask of `name` against vlabel index `bi`.
    fn cap_mask(&self, name: usize, bi: usize) -> &CapMask {
        &self.cap_masks[name * self.vlabels.len() + bi]
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

/// Encodes a posted record. Multi-phase algorithms (Algorithm 3/4) tag
/// posts with their phase and carry the poster's *final label from the
/// previous phase* so that laggards still see the information their phase
/// needs after the poster has overwritten its subvalue.
pub(crate) fn encode_post(suspects: Value, name: usize, phase: i64, prior: Value) -> Value {
    Value::tuple([suspects, Value::from(name), Value::from(phase), prior])
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
        if local.pc == DONE {
            return;
        }
        let Some(pec) = sweep_step(local, ops, &self.tables, 0, None) else {
            return;
        };
        let r = learner_regs();
        let round = local.reg(r.round).as_int().unwrap_or(0);
        local.set_reg(r.round, Value::from(round + 1));
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
/// exposes its canonical counts, so that every peeker of an unchanged
/// variable holds the same `Arc` and shares its decode.
fn bag_of(view: &PeekView) -> Value {
    match view.posted_counts() {
        Some(counts) => BAG_CACHE.with(|c| {
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

/// One step of Algorithm 2's round, for a learner whose round occupies
/// `pc` values `0..2·names`: the next peek (then, after the last one,
/// [`update_suspects_phase`]), or the next post of `(PEC, n)` tagged with
/// `phase` and the value of the `prior` register (unit without one).
/// Returns the suspect set when the post sweep ends, with `pc` at
/// `2·names`: the caller decides where the round goes from there.
pub(crate) fn sweep_step(
    local: &mut LocalState,
    ops: &mut OpEnv<'_>,
    t: &Alg2Tables,
    phase: i64,
    prior: Option<RegId>,
) -> Option<Vec<Label>> {
    let r = learner_regs();
    let names = t.names as u32;
    if local.pc < names {
        let ni = local.pc as usize;
        let view = ops.peek(ops.name_at(ni));
        store_peek(local, ni, &view, t);
        local.pc += 1;
        if local.pc == names {
            update_suspects_phase(local, t, phase);
        }
        return None;
    }
    let ni = (local.pc - names) as usize;
    let pec = local.reg(r.pec).clone();
    let prior = prior.map_or(Value::Unit, |p| local.reg(p).clone());
    ops.post(ops.name_at(ni), encode_post(pec, ni, phase, prior));
    local.pc += 1;
    (local.pc == 2 * names).then(|| set_to_labels(local.reg(r.pec)))
}

/// The body of Algorithm 2's loop after all peeks of a round:
/// `VEC[n] -= v-alibi(local[n])`, then `PEC -= p-alibi(VEC, local, PEC)`.
/// Only the registers, and the `VEC` entries, that change are written.
pub(crate) fn update_suspects_phase(local: &mut LocalState, t: &Alg2Tables, phase: i64) {
    if t.plabels.len() <= 64 {
        update_suspects::<u64>(local, t, phase);
    } else {
        update_suspects::<Vec<u64>>(local, t, phase);
    }
}

/// [`update_suspects_phase`] over plabel sets of type `S`.
fn update_suspects<S: LabelSet>(local: &mut LocalState, t: &Alg2Tables, phase: i64) {
    let r = learner_regs();
    let bags: Vec<Option<Rc<DecodedBag<S>>>> = local
        .reg_opt(r.peeked)
        .and_then(Value::as_tuple)
        .expect("peeked register present")
        .iter()
        .map(|bag| decoded_bag(t, bag, phase))
        .collect();
    let vec = local
        .reg_opt(r.vec)
        .and_then(Value::as_tuple)
        .expect("vec register present");
    // The new VEC: per name its labels, and a flag per (name, vlabel
    // index) for the p-alibi.
    let nv = t.vlabels.len();
    let mut survivors: Vec<Vec<Label>> = Vec::with_capacity(vec.len());
    let mut in_vec = vec![false; t.names * nv];
    let mut changed = Vec::new();
    for (ni, entry) in vec.iter().enumerate() {
        let mut kept = set_to_labels(entry);
        let before = kept.len();
        kept.retain(|&beta| {
            let bi = t.vlabel_index(beta);
            if let Some(Some(bag)) = bags.get(ni) {
                if v_alibi(bag, t, bi) {
                    return false;
                }
            }
            if let Some(bi) = bi.filter(|_| ni < t.names) {
                in_vec[ni * nv + bi] = true;
            }
            true
        });
        if kept.len() < before || !is_label_set(entry) {
            changed.push(ni);
        }
        survivors.push(kept);
    }
    let pec = set_to_labels(local.reg(r.pec));
    let kept = p_alibi(&pec, &in_vec, &bags, t);
    if kept.len() < pec.len() || !is_label_set(local.reg(r.pec)) {
        local.set_reg(r.pec, labels_to_set(kept));
    }
    if !changed.is_empty() {
        let Some(Value::Tuple(vec)) = local.reg_mut(r.vec) else {
            unreachable!("vec register present");
        };
        let vec = Arc::make_mut(vec);
        for ni in changed {
            vec[ni] = labels_to_set(std::mem::take(&mut survivors[ni]));
        }
    }
}

/// Whether `v` is a set of labels, so that [`labels_to_set`] of its
/// labels rebuilds it unchanged.
fn is_label_set(v: &Value) -> bool {
    v.as_set()
        .is_some_and(|s| s.iter().all(|l| l.as_sym().is_some()))
}

/// A set of plabel indices, the alibi kernel's working type: one machine
/// word when the plabels fit, a word vector otherwise. The kernel touches
/// sets only through this trait, whose operations run over the words, so
/// every width runs the same code and the one-word case compiles to plain
/// word operations.
trait LabelSet: Clone + Ord + 'static {
    /// The empty set over `width` indices.
    fn empty(width: usize) -> Self;
    fn words(&self) -> &[u64];
    fn words_mut(&mut self) -> &mut [u64];
    /// The thread's decoded bags over sets of this width.
    fn decoded() -> &'static LocalKey<DecodedBags<Self>>;

    fn insert(&mut self, i: usize) {
        self.words_mut()[i / 64] |= 1 << (i % 64);
    }
    fn contains(&self, i: usize) -> bool {
        self.words()[i / 64] >> (i % 64) & 1 != 0
    }
    /// Adds the indices set in `words`.
    fn union_words(&mut self, words: &[u64]) {
        for (a, b) in self.words_mut().iter_mut().zip(words) {
            *a |= b;
        }
    }
    fn is_subset(&self, other: &Self) -> bool {
        self.words()
            .iter()
            .zip(other.words())
            .all(|(a, b)| a & !b == 0)
    }
    /// `|self ∩ words|`.
    fn common(&self, words: &[u64]) -> u64 {
        self.words()
            .iter()
            .zip(words)
            .map(|(a, b)| u64::from((a & b).count_ones()))
            .sum()
    }
    /// The member of a singleton set.
    fn single(&self) -> Option<usize> {
        let mut words = self.words().iter().enumerate().filter(|(_, w)| **w != 0);
        match (words.next(), words.next()) {
            (Some((i, w)), None) if w.count_ones() == 1 => {
                Some(i * 64 + w.trailing_zeros() as usize)
            }
            _ => None,
        }
    }
}

impl LabelSet for u64 {
    fn empty(_: usize) -> u64 {
        0
    }
    fn words(&self) -> &[u64] {
        std::slice::from_ref(self)
    }
    fn words_mut(&mut self) -> &mut [u64] {
        std::slice::from_mut(self)
    }
    fn decoded() -> &'static LocalKey<DecodedBags<u64>> {
        &DECODED_BAGS
    }
}

impl LabelSet for Vec<u64> {
    fn empty(width: usize) -> Vec<u64> {
        vec![0; width.div_ceil(64)]
    }
    fn words(&self) -> &[u64] {
        self
    }
    fn words_mut(&mut self) -> &mut [u64] {
        self
    }
    fn decoded() -> &'static LocalKey<DecodedBags<Vec<u64>>> {
        &DECODED_BAGS_WIDE
    }
}

/// Per-candidate capacity as bit machinery: capacity(lab, β) is a
/// popcount of `lab` over the plabel index bits whose
/// `neighborhood_size(n, α, β)` is 1, plus a (rarely populated) overflow
/// list of `(index, size)` for larger entries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct CapMask {
    ones: Vec<u64>,
    overflow: Vec<(usize, u64)>,
}

impl CapMask {
    /// The empty mask over `np` plabel indices.
    fn over(np: usize) -> CapMask {
        CapMask {
            ones: vec![0; np.div_ceil(64)],
            overflow: Vec::new(),
        }
    }

    /// Adds the `neighborhood_size` of plabel index `ai`: a size of 1 sets
    /// its bit in `ones`, a larger one goes to `overflow`, 0 adds nothing.
    fn add(&mut self, ai: usize, size: u32) {
        match u64::from(size) {
            0 => {}
            1 => self.ones[ai / 64] |= 1 << (ai % 64),
            v => self.overflow.push((ai, v)),
        }
    }

    /// `Σ_{α ∈ lab} neighborhood_size(n, α, β)` for the mask's `(n, β)`.
    fn capacity<S: LabelSet>(&self, lab: &S) -> u64 {
        lab.common(&self.ones)
            + self
                .overflow
                .iter()
                .filter(|&&(ai, _)| lab.contains(ai))
                .map(|&(_, v)| v)
                .sum::<u64>()
    }
}

/// Beyond this many distinct suspect sets, a name's unions are the linear
/// prefix-union chain instead of the full subset-union enumeration.
const UNION_CAP: usize = 12;

/// One post-name's share of a decoded bag: what the alibis need from its
/// posts, none of which depends on who peeked the bag.
struct NamePosts<S> {
    name: usize,
    /// `(Lab, posted_within(Lab))` for every union `Lab` of a nonempty
    /// subset of the distinct posted suspect sets, or past [`UNION_CAP`]
    /// of a chain of them (footnote 2): the posts whose set lies within.
    unions: Vec<(S, u64)>,
    /// Condition 2 of the p-alibi: the plabels `α` whose singleton posts
    /// `{α}` number `neighborhood_size(name, α, name-nbr(α))`.
    complete: S,
}

/// A peeked bag decoded for one phase and one table set, shared by every
/// processor that peeks the same bag.
struct DecodedBag<S> {
    /// The bag itself: holding it keeps its address, the cache key, from
    /// passing to another bag.
    bag: Arc<BTreeMap<Value, usize>>,
    epoch: u64,
    phase: i64,
    /// One entry per name the bag's posts were posted under.
    names: Vec<NamePosts<S>>,
    /// Whether the v-alibi rules out each vlabel index, filled in as
    /// peekers ask.
    verdicts: Vec<Cell<Option<bool>>>,
}

/// A thread's decoded bags, most recently used last.
type DecodedBags<S> = RefCell<Vec<Rc<DecodedBag<S>>>>;

/// How many decoded bags a thread keeps.
const DECODED_BAG_CAP: usize = 16;

thread_local! {
    /// Decoded peeked bags, keyed by the bag's storage. [`bag_of`] hands
    /// every peeker of an unchanged bag the same `Arc`, so under a
    /// round-robin sweep the shared token variable is decoded once per
    /// change instead of once per peeker.
    static DECODED_BAGS: DecodedBags<u64> = const { RefCell::new(Vec::new()) };
    /// [`DECODED_BAGS`] for plabel spaces past one word.
    static DECODED_BAGS_WIDE: DecodedBags<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The posts of a peeked `bag` relevant to `phase`, decoded on first use
/// and then taken from the thread's cache; `None` for a value that is not
/// a bag (a name not yet peeked).
fn decoded_bag<S: LabelSet>(t: &Alg2Tables, bag: &Value, phase: i64) -> Option<Rc<DecodedBag<S>>> {
    let Value::Bag(bag) = bag else {
        return None;
    };
    S::decoded().with(|c| {
        let mut cache = c.borrow_mut();
        let hit = cache
            .iter()
            .rposition(|d| Arc::ptr_eq(&d.bag, bag) && d.epoch == t.epoch && d.phase == phase);
        let entry = match hit {
            Some(i) => cache.remove(i),
            None => {
                if cache.len() >= DECODED_BAG_CAP {
                    cache.remove(0);
                }
                Rc::new(decode_bag(t, bag, phase))
            }
        };
        cache.push(Rc::clone(&entry));
        Some(entry)
    })
}

/// Decodes the posts relevant to `phase`: same-phase posts verbatim, and
/// posts from the *next* phase reinterpreted as final singleton posts of
/// this phase (via their `prior` label). A suspect component that is not
/// a set decodes as the empty set, and items that are not labels are
/// skipped. A post naming no table name, or holding a label outside
/// PLABELS, lies within no `Lab ⊆ PLABELS` and is dropped.
fn decode_bag<S: LabelSet>(
    t: &Alg2Tables,
    bag: &Arc<BTreeMap<Value, usize>>,
    phase: i64,
) -> DecodedBag<S> {
    let np = t.plabels.len();
    // Per name, the distinct suspect sets in bag order with their counts.
    let mut distinct: Vec<(usize, Vec<(S, u64)>)> = Vec::new();
    'items: for (item, &count) in bag.iter() {
        let Some([suspects, name, post_phase, prior]) = item
            .as_tuple()
            .and_then(|t| <&[Value; 4]>::try_from(t).ok())
        else {
            continue;
        };
        let (Some(n), Some(pp)) = (name.as_int(), post_phase.as_int()) else {
            continue;
        };
        let Some(n) = usize::try_from(n).ok().filter(|&n| n < t.names) else {
            continue;
        };
        let labels = if pp == phase {
            suspects.as_set().unwrap_or(&[])
        } else if pp == phase + 1 && prior.as_sym().is_some() {
            std::slice::from_ref(prior)
        } else {
            continue;
        };
        let mut bits = S::empty(np);
        for l in labels.iter().filter_map(Value::as_sym) {
            if l as usize >= np {
                continue 'items;
            }
            bits.insert(l as usize);
        }
        let sets = match distinct.iter().position(|(m, _)| *m == n) {
            Some(i) => &mut distinct[i].1,
            None => {
                distinct.push((n, Vec::new()));
                &mut distinct.last_mut().expect("just pushed").1
            }
        };
        match sets.iter_mut().find(|(b, _)| *b == bits) {
            Some(entry) => entry.1 += count as u64,
            None => sets.push((bits, count as u64)),
        }
    }
    let names = distinct
        .into_iter()
        .map(|(name, sets)| NamePosts {
            name,
            unions: unions(&sets, np),
            complete: complete(t, name, &sets, np),
        })
        .collect();
    DecodedBag {
        bag: Arc::clone(bag),
        epoch: t.epoch,
        phase,
        names,
        verdicts: vec![Cell::new(None); t.vlabels.len()],
    }
}

/// The unions of subsets of the distinct sets, each with the posts that
/// lie within it; beyond the cap, a chain of prefix unions keeps the
/// enumeration polynomial. An alibi is a union over the result, so order
/// and duplicates are irrelevant — only the cap threshold must match the
/// spec.
fn unions<S: LabelSet>(distinct: &[(S, u64)], width: usize) -> Vec<(S, u64)> {
    let k = distinct.len();
    let mut labs: Vec<S> = if k <= UNION_CAP {
        // The union of subset `mask` is that of `mask` without its lowest
        // member, plus that member.
        let mut labs = Vec::with_capacity(1 << k);
        labs.push(S::empty(width));
        for mask in 1usize..(1 << k) {
            let mut u = labs[mask & (mask - 1)].clone();
            u.union_words(distinct[mask.trailing_zeros() as usize].0.words());
            labs.push(u);
        }
        labs.swap_remove(0);
        labs
    } else {
        let mut chain = Vec::with_capacity(2 * k);
        let mut acc = S::empty(width);
        for (b, _) in distinct {
            chain.push(b.clone());
            acc.union_words(b.words());
            chain.push(acc.clone());
        }
        chain
    };
    labs.sort_unstable();
    labs.dedup();
    labs.into_iter()
        .map(|lab| {
            let within = distinct
                .iter()
                .filter(|(b, _)| b.is_subset(&lab))
                .map(|&(_, c)| c)
                .sum();
            (lab, within)
        })
        .collect()
}

/// The plabels `α` whose singleton posts `{α}` under `name` number
/// `neighborhood_size(name, α, name-nbr(α))`.
fn complete<S: LabelSet>(t: &Alg2Tables, name: usize, distinct: &[(S, u64)], np: usize) -> S {
    let mut known = S::empty(np);
    for (bits, count) in distinct {
        let Some(ai) = bits.single() else {
            continue;
        };
        if let Some(bi) = t.nbr_index(ai, name) {
            if *count == u64::from(t.nsize_row(name, ai)[bi]) {
                known.insert(ai);
            }
        }
    }
    known
}

/// `v-alibi` for one candidate `β` (by vlabel index, `None` for a label
/// that is not a variable label): for some name `n` and some union `Lab`,
/// more processors posted `n`-suspecting only labels in `Lab` than a
/// `β`-variable has `n`-neighbors labeled in `Lab`.
///
/// The paper quantifies `Lab` over the powerset of `PLABELS` but notes
/// (footnote 2) that linearly many sets suffice; the unions of the
/// *distinct posted suspect sets* are enough (any violated powerset
/// witness has such a union as a tighter witness). A candidate that is
/// not a variable label has no capacity anywhere.
fn v_alibi<S: LabelSet>(bag: &DecodedBag<S>, t: &Alg2Tables, bi: Option<usize>) -> bool {
    let Some(bi) = bi else {
        return bag.names.iter().any(|g| !g.unions.is_empty());
    };
    let verdict = &bag.verdicts[bi];
    if let Some(ruled) = verdict.get() {
        return ruled;
    }
    let ruled = bag.names.iter().any(|g| {
        let mask = t.cap_mask(g.name, bi);
        g.unions
            .iter()
            .any(|(lab, within)| *within > mask.capacity(lab))
    });
    verdict.set(Some(ruled));
    ruled
}

/// `p-alibi`: the members of `pec` with no alibi. Under every name `n`,
/// (1) `n-nbr(α)` must survive in the new `VEC[n]` (`in_vec`, by name
/// and vlabel index), and (2) while `pec` is not a singleton, not all
/// `α`-processors around my `n`-neighbor may already know they are `α`.
/// Labels outside PLABELS always have one.
fn p_alibi<S: LabelSet>(
    pec: &[Label],
    in_vec: &[bool],
    bags: &[Option<Rc<DecodedBag<S>>>],
    t: &Alg2Tables,
) -> Vec<Label> {
    // Condition 2's knowers under each name `n`, from the bag peeked
    // through `n`.
    let known: Vec<Option<&S>> = (0..t.names)
        .map(|n| {
            let bag = bags.get(n)?.as_deref()?;
            let g = bag.names.iter().find(|g| g.name == n)?;
            (pec.len() > 1).then_some(&g.complete)
        })
        .collect();
    pec.iter()
        .copied()
        .filter(|&alpha| {
            let Some(ai) = t.plabel_index(alpha) else {
                return false;
            };
            (0..t.names).all(|n| match t.nbr_index(ai, n) {
                Some(bi) => {
                    in_vec[n * t.vlabels.len() + bi] && !known[n].is_some_and(|k| k.contains(ai))
                }
                None => false,
            })
        })
        .collect()
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
    /// out) and returns the learned labels and the steps it took.
    fn learn(
        graph: &SystemGraph,
        init: &SystemInit,
        sched: &mut dyn Scheduler,
        max_steps: u64,
    ) -> Option<(Vec<Label>, u64)> {
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
            return None;
        }
        let learned = m
            .graph()
            .processors()
            .map(|p| LabelLearner::learned_label(m.local(p)).expect("done means learned"))
            .collect();
        Some((learned, report.steps))
    }

    /// Asserts that round-robin learning yields `Θ`; returns the steps.
    fn assert_learns_theta(graph: &SystemGraph, init: &SystemInit, max_steps: u64) -> u64 {
        let labeling = hopcroft_similarity(graph, init, Model::Q);
        let mut sched = RoundRobin::new();
        let (learned, steps) = learn(graph, init, &mut sched, max_steps)
            .unwrap_or_else(|| panic!("learner did not converge on {graph:?}"));
        for p in graph.processors() {
            assert_eq!(
                learned[p.index()],
                labeling.proc_label(p),
                "{p} learned the wrong label on {graph:?}"
            );
        }
        steps
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
            let (learned, _) = learn(&g, &init, &mut sched, 50_000)
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
    fn marked_ring_past_one_word_of_plabels_learns_in_a_pinned_step_count() {
        // 65 processor labels: the suspect sets no longer fit one machine
        // word. The step count pins the schedule the learner takes there.
        let g = topology::marked_ring(65);
        let steps = assert_learns_theta(&g, &SystemInit::uniform(&g), 100_000);
        assert_eq!(steps, 13_260);
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
        let (learned, _) = learn(&g, &init, &mut sched, 1_000).expect("converges");
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
        let (learned, _) = learn(&g, &init, &mut sched, 50_000).expect("converges");
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
            topology::marked_ring(65),
        ] {
            let init = SystemInit::uniform(&g);
            let labeling = hopcroft_similarity(&g, &init, Model::Q);
            let t = Alg2Tables::generate(&g, &init, &labeling).expect("consistent labeling");
            let (np, nv) = (t.plabels.len(), t.vlabels.len());
            assert_eq!(t.cap_masks.len(), t.names * nv);
            for n in 0..t.names {
                for bi in 0..nv {
                    let mut want = CapMask::over(np);
                    for ai in 0..np {
                        want.add(ai, t.nsize_row(n, ai)[bi]);
                    }
                    assert_eq!(t.cap_mask(n, bi), &want, "name {n}, vlabel index {bi}");
                }
            }
        }
    }

    /// A small seeded generator for the synthetic posts below.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((self.0 >> 33) as usize) % bound
        }
    }

    /// A decoded post: `(suspects, name, count)`.
    type RefPost = (BTreeSet<Label>, usize, u64);

    /// `v-alibi` by its definition, restricted to the unions footnote 2
    /// allows: for every posted name `n` and every union `Lab ⊆ PLABELS`
    /// of a nonempty subset of the distinct suspect sets posted with `n`,
    /// a candidate `β` is ruled out when more posts lie within `Lab` than
    /// `Σ_{α ∈ Lab} neighborhood_size(n, α, β)`.
    fn v_alibi_reference(t: &Alg2Tables, posts: &[RefPost], candidates: &[Label]) -> Vec<Label> {
        let mut out = BTreeSet::new();
        let names: BTreeSet<usize> = posts.iter().map(|p| p.1).collect();
        for n in names {
            let mut distinct: Vec<(&BTreeSet<Label>, u64)> = Vec::new();
            for (s, _, c) in posts.iter().filter(|p| p.1 == n) {
                match distinct.iter_mut().find(|d| d.0 == s) {
                    Some(d) => d.1 += c,
                    None => distinct.push((s, *c)),
                }
            }
            assert!(distinct.len() <= 12, "brute force is exponential");
            for mask in 1u32..(1 << distinct.len()) {
                let lab: BTreeSet<Label> = (0..distinct.len())
                    .filter(|i| mask & (1 << i) != 0)
                    .flat_map(|i| distinct[i].0.iter().copied())
                    .collect();
                if lab.iter().any(|&l| t.plabel_index(l).is_none()) {
                    continue;
                }
                let within: u64 = distinct
                    .iter()
                    .filter(|d| d.0.is_subset(&lab))
                    .map(|d| d.1)
                    .sum();
                for &beta in candidates {
                    let capacity: u64 = lab.iter().map(|&a| t.nsize(n, a, beta) as u64).sum();
                    if within > capacity {
                        out.insert(beta);
                    }
                }
            }
        }
        out.into_iter().collect()
    }

    /// `p-alibi` by its definition: `α ∈ pec` is ruled out when, for some
    /// name `n`, (1) `n-nbr(α)` is not in `vec[n]`, or (2) `pec` is not a
    /// singleton and the posts with name `n` in the bag peeked through
    /// `n` that are exactly `{α}` number `neighborhood_size(n, α,
    /// n-nbr(α)) > 0`.
    fn p_alibi_reference(
        t: &Alg2Tables,
        pec: &BTreeSet<Label>,
        vec: &[BTreeSet<Label>],
        bags: &[Vec<RefPost>],
    ) -> BTreeSet<Label> {
        let mut out = BTreeSet::new();
        for &alpha in pec {
            for n in 0..t.names {
                let beta = t.neighbor_label(alpha, n).expect("genuine plabel");
                let knowers: u64 = bags[n]
                    .iter()
                    .filter(|(s, name, _)| *name == n && s.len() == 1 && s.contains(&alpha))
                    .map(|p| p.2)
                    .sum();
                let size = t.nsize(n, alpha, beta) as u64;
                if !vec[n].contains(&beta) || (pec.len() > 1 && knowers == size && knowers > 0) {
                    out.insert(alpha);
                }
            }
        }
        out
    }

    /// Seeded synthetic rounds on `g`. Each name's bag holds the posts of
    /// some variable's true neighbors (suspect sets that contain the
    /// poster's label, so that variable's label keeps its capacity) and
    /// at most one arbitrary post; some posts are repeated, some final
    /// (`phase + 1`, read through their prior label) and some from an
    /// unrelated phase. Extra suspect labels come from a few that the
    /// bag's posts share, or from a window near the poster's own label
    /// over the plabels and `foreign` (labels that are not plabels)
    /// interleaved; with `block`, some sets also take a run of that many
    /// foreign labels. `PEC` is one plabel in a quarter of the rounds and
    /// otherwise a random half of the posters' labels and a quarter of
    /// the rest.
    /// Checks each name's surviving `VEC` against [`v_alibi_reference`]
    /// and the surviving `PEC` against [`p_alibi_reference`] over those
    /// `VEC`s.
    fn check_alibis_against_reference(
        g: &SystemGraph,
        foreign: &[Label],
        block: usize,
        rounds: u64,
    ) {
        let init = SystemInit::uniform(g);
        let labeling = hopcroft_similarity(g, &init, Model::Q);
        let t = Alg2Tables::generate(g, &init, &labeling).expect("consistent labeling");
        let r = learner_regs();
        let mut pool: Vec<Label> = t.proc_labels().to_vec();
        pool.extend_from_slice(foreign);
        // Interleave the pool so that a window of it spans machine words.
        pool.sort_by_key(|&l| (l % 64, l));
        let vars: Vec<_> = g.variables().collect();
        for seed in 0..rounds {
            let mut rng = Lcg(seed);
            let phase = rng.below(2) as i64;
            let mut bags = Vec::new();
            let mut expected = Vec::new();
            let mut candidates = Vec::new();
            let mut decoded = Vec::new();
            // Half the bags are peeked through one processor's own
            // names, so that its label can survive condition 1.
            let focus = ProcId::new(rng.below(g.processor_count()));
            let mut posting = BTreeSet::from([labeling.proc_label(focus)]);
            for n in 0..t.names {
                let v = match rng.below(2) {
                    0 => g.processor_neighbors(focus)[n],
                    _ => vars[rng.below(vars.len())],
                };
                let mut neighbors: Vec<(Option<Label>, usize)> = Vec::new();
                for p in g.processors() {
                    for (n, &w) in g.processor_neighbors(p).iter().enumerate() {
                        if w == v {
                            neighbors.push((Some(labeling.proc_label(p)), n));
                        }
                    }
                }
                let mut posters = Vec::new();
                for _ in 0..1 + rng.below(8) {
                    if !neighbors.is_empty() {
                        posters.push(neighbors.swap_remove(rng.below(neighbors.len())));
                    }
                }
                if rng.below(2) == 0 {
                    posters.push((None, rng.below(t.names)));
                }
                // Labels that several posts of this bag suspect; in half
                // the bags every post suspects the first, so that unions
                // of posted sets are witnesses no single set is.
                let shared: Vec<Label> = (0..3).map(|_| pool[rng.below(pool.len())]).collect();
                let anchor = (rng.below(2) == 0).then_some(shared[0]);
                let mut items = Vec::new();
                let mut relevant: Vec<RefPost> = Vec::new();
                for (own, name) in posters {
                    let start = match own {
                        Some(l) => {
                            let at = pool.iter().position(|&p| p == l).expect("own label");
                            at + 4 * pool.len() - rng.below(4)
                        }
                        None => rng.below(pool.len()),
                    };
                    let mut suspects: BTreeSet<Label> = (0..rng.below(4))
                        .map(|_| match rng.below(2) {
                            0 => shared[rng.below(shared.len())],
                            _ => pool[(start + rng.below(8)) % pool.len()],
                        })
                        .chain(own)
                        .chain(anchor)
                        .collect();
                    if suspects.is_empty() {
                        suspects.insert(pool[start % pool.len()]);
                    }
                    if block > 0 && !foreign.is_empty() && rng.below(3) == 0 {
                        let from = rng.below(foreign.len());
                        suspects.extend(foreign.iter().cycle().skip(from).take(block));
                    }
                    let copies = if rng.below(4) == 0 { 2 } else { 1 };
                    let post = match rng.below(5) {
                        0 => {
                            let l = own.unwrap_or(*suspects.iter().next().expect("nonempty"));
                            suspects = [l].into();
                            encode_post(Value::Unit, name, phase + 1, Value::Sym(l))
                        }
                        1 => {
                            let set = labels_to_set(suspects.iter().copied());
                            items.push(encode_post(set, name, phase + 2, Value::Unit));
                            continue;
                        }
                        _ => encode_post(
                            labels_to_set(suspects.iter().copied()),
                            name,
                            phase,
                            Value::Unit,
                        ),
                    };
                    posting.extend(own);
                    relevant.push((suspects, name, copies));
                    items.extend(std::iter::repeat_n(post, copies as usize));
                }
                let mut cand: Vec<Label> = t
                    .var_labels()
                    .iter()
                    .copied()
                    .filter(|&l| l == labeling.var_label(v) || rng.below(3) != 0)
                    .collect();
                if rng.below(4) == 0 {
                    cand.push(Label::MAX);
                }
                expected.push(v_alibi_reference(&t, &relevant, &cand));
                candidates.push(cand);
                decoded.push(relevant);
                bags.push(Value::bag(items));
            }
            let pec: BTreeSet<Label> = if rng.below(4) == 0 {
                [t.proc_labels()[rng.below(t.proc_labels().len())]].into()
            } else {
                let odds = |l: &Label| if posting.contains(l) { 2 } else { 4 };
                t.proc_labels()
                    .iter()
                    .copied()
                    .filter(|l| rng.below(odds(l)) == 0)
                    .collect()
            };
            let mut local = LocalState::new();
            local.set_reg(r.pec, labels_to_set(pec.iter().copied()));
            local.set_reg(r.peeked, Value::tuple(bags));
            local.set_reg(
                r.vec,
                Value::tuple(candidates.iter().map(|c| labels_to_set(c.iter().copied()))),
            );
            update_suspects_phase(&mut local, &t, phase);
            let survivors = local.reg(r.vec).as_tuple().expect("vec tuple").to_vec();
            for (ni, kept) in survivors.iter().enumerate() {
                let kept = set_to_labels(kept);
                let ruled: Vec<Label> = candidates[ni]
                    .iter()
                    .copied()
                    .filter(|l| !kept.contains(l))
                    .collect();
                assert_eq!(ruled, expected[ni], "seed {seed}, name {ni}");
            }
            let vec: Vec<BTreeSet<Label>> = survivors
                .iter()
                .map(|v| set_to_labels(v).into_iter().collect())
                .collect();
            let ruled = p_alibi_reference(&t, &pec, &vec, &decoded);
            let want: Vec<Label> = pec.difference(&ruled).copied().collect();
            assert_eq!(set_to_labels(local.reg(r.pec)), want, "seed {seed}, PEC");
        }
    }

    #[test]
    fn v_alibi_matches_the_definition_within_one_word() {
        check_alibis_against_reference(&topology::figure2(), &[], 0, 100);
        check_alibis_against_reference(&topology::marked_ring(8), &[], 0, 100);
    }

    #[test]
    fn v_alibi_matches_the_definition_with_foreign_labels() {
        // A post holding a label outside PLABELS lies within no union
        // `Lab ⊆ PLABELS`, however many such labels there are.
        let few: Vec<Label> = (500..510).collect();
        check_alibis_against_reference(&topology::marked_ring(8), &few, 0, 100);
        let many: Vec<Label> = (1_000..1_080).collect();
        check_alibis_against_reference(&topology::marked_ring(8), &many, 40, 100);
    }

    #[test]
    fn a_post_holding_a_label_outside_plabels_rules_nothing_out() {
        // On marked-ring:8 a bag holding `({1}, 0)` under every name keeps
        // `VEC = {8}`; a garbled post `({999}, 0)` beside it changes no
        // register.
        let g = topology::marked_ring(8);
        let init = SystemInit::uniform(&g);
        let labeling = hopcroft_similarity(&g, &init, Model::Q);
        let t = Alg2Tables::generate(&g, &init, &labeling).expect("consistent labeling");
        let r = learner_regs();
        let post = |l: Label| encode_post(labels_to_set([l]), 0, 0, Value::Unit);
        let vec = Value::tuple(std::iter::repeat_n(labels_to_set([8]), t.names));
        let after = |bag: Value| {
            let mut local = LocalState::new();
            local.set_reg(r.pec, labels_to_set(t.proc_labels().iter().copied()));
            local.set_reg(r.peeked, Value::tuple(std::iter::repeat_n(bag, t.names)));
            local.set_reg(r.vec, vec.clone());
            update_suspects_phase(&mut local, &t, 0);
            (local.reg(r.pec).clone(), local.reg(r.vec).clone())
        };
        let plain = after(Value::bag([post(1)]));
        assert_eq!(plain.1, vec);
        assert_eq!(after(Value::bag([post(1), post(999)])), plain);
    }

    #[test]
    fn a_bag_shared_across_phases_is_decoded_per_phase() {
        // One post of each phase: phase 0 reads the phase-1 post as its
        // final `{prior}`, phase 1 reads its empty suspect set, which
        // rules every candidate out. Decoding the same bag storage for
        // both phases must give what a fresh copy of it gives.
        let g = topology::figure2();
        let init = SystemInit::uniform(&g);
        let labeling = hopcroft_similarity(&g, &init, Model::Q);
        let t = Alg2Tables::generate(&g, &init, &labeling).expect("consistent labeling");
        let r = learner_regs();
        let items = [
            encode_post(labels_to_set(t.proc_labels().to_vec()), 0, 0, Value::Unit),
            encode_post(labels_to_set([]), 0, 1, Value::Sym(t.proc_labels()[0])),
        ];
        let shared = Value::bag(items.clone());
        let after = |bag: Value, phase: i64| {
            let mut local = LocalState::new();
            local.set_reg(r.pec, labels_to_set(t.proc_labels().to_vec()));
            local.set_reg(r.peeked, Value::tuple(std::iter::repeat_n(bag, t.names)));
            local.set_reg(
                r.vec,
                Value::tuple(std::iter::repeat_n(
                    labels_to_set(t.var_labels().to_vec()),
                    t.names,
                )),
            );
            update_suspects_phase(&mut local, &t, phase);
            (local.reg(r.pec).clone(), local.reg(r.vec).clone())
        };
        let outcomes: Vec<_> = [0, 1]
            .map(|phase| {
                let fresh = after(Value::bag(items.clone()), phase);
                assert_eq!(after(shared.clone(), phase), fresh, "phase {phase}");
                fresh
            })
            .into();
        assert_ne!(outcomes[0], outcomes[1]);
    }

    #[test]
    fn v_alibi_matches_the_definition_past_one_word_of_plabels() {
        check_alibis_against_reference(&topology::marked_ring(65), &[], 0, 300);
        check_alibis_against_reference(&topology::marked_ring(130), &[], 0, 300);
        let few: Vec<Label> = (900..905).collect();
        check_alibis_against_reference(&topology::marked_ring(130), &few, 3, 60);
    }
}
