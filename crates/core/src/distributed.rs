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
//! bag is decoded into suspect sets over one label index space: a plabel
//! is its own index (canonical labelings number processors first), and a
//! posted label that is not a plabel follows them in sorted order, taking
//! part in the subset tests with zero capacity. One v-alibi kernel (the
//! unions of the distinct posted sets, footnote 2) and one p-alibi body run
//! over those sets, generic over their width: one machine word for up to
//! 64 labels, a word vector past that, with precomputed capacity masks and
//! a per-thread memo either way. The round itself is one step function
//! shared by this program, both phases of Algorithm 3, consensus and
//! choice coordination; each keeps its own registers and decides where a
//! finished round goes.

use crate::labeling::NeighborhoodTable;
use crate::{InconsistentLabeling, Label, Labeling};
use simsym_graph::SystemGraph;
use simsym_vm::{
    JournalSpec, LocalState, OpEnv, OpKind, PeekView, PhaseSpec, PortSet, Program, ProgramSpec,
    RegId, SystemInit, Value, ValueId,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
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
        let plabels = labeling.proc_labels();
        let vlabels = labeling.var_labels();
        let (np, nv) = (plabels.len(), vlabels.len());
        debug_assert!(
            plabels.iter().copied().eq(0..np as Label),
            "canonical labelings number processors first"
        );
        let mut nbr_dense = vec![u32::MAX; np * names];
        for (&(alpha, ni), beta) in &nbr {
            let bi = vlabels.binary_search(beta).expect("known vlabel");
            nbr_dense[alpha as usize * names + ni] = bi as u32;
        }
        let mut nsize_dense = vec![0u32; names * np * nv];
        // Walk the table in row order, filling each size's capacity mask
        // as it goes: a column walk per mask strides across the table.
        let mut cap_masks = vec![CapMask::over(np); names * nv];
        for name in graph.names().ids() {
            let n = name.index();
            for &alpha in &plabels {
                let row = (n * np + alpha as usize) * nv;
                for (bi, &beta) in vlabels.iter().enumerate() {
                    let size = table.size(name, alpha, beta) as u32;
                    nsize_dense[row + bi] = size;
                    cap_masks[n * nv + bi].add(alpha as usize, size);
                }
            }
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
        self.vlabels.binary_search(&beta).ok()
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
pub(crate) fn update_suspects_phase(local: &mut LocalState, t: &Alg2Tables, phase: i64) {
    update_at_width(local, t, phase, Vec::new());
}

/// Runs the round's update over label sets wide enough for the plabels
/// and `foreign`: one machine word when they fit, a word vector otherwise.
fn update_at_width(local: &mut LocalState, t: &Alg2Tables, phase: i64, foreign: Vec<Label>) {
    if t.plabels.len() + foreign.len() <= 64 {
        update_suspects::<u64>(local, t, phase, foreign);
    } else {
        update_suspects::<Vec<u64>>(local, t, phase, foreign);
    }
}

/// [`update_suspects_phase`] over suspect sets of type `S`, indexed over
/// the plabels and then `foreign`.
fn update_suspects<S: LabelSet>(
    local: &mut LocalState,
    t: &Alg2Tables,
    phase: i64,
    foreign: Vec<Label>,
) {
    let r = learner_regs();
    let bags = local
        .reg_opt(r.peeked)
        .and_then(|v| v.as_tuple())
        .expect("peeked register present");
    let peeked: Vec<Vec<Post<S>>> = match decode_posts(t, bags, phase, &foreign) {
        Ok(peeked) => peeked,
        // Some posted label is neither a plabel nor in `foreign` (only
        // possible on the first try): index those labels after the
        // plabels and decode again.
        Err(more) => return update_at_width(local, t, phase, more),
    };
    let width = t.plabels.len() + foreign.len();
    let mut vec: Vec<Vec<Label>> = local
        .reg_opt(r.vec)
        .and_then(|v| v.as_tuple())
        .expect("vec register present")
        .iter()
        .map(set_to_labels)
        .collect();
    // v-alibi per name.
    for (ni, posts) in peeked.iter().enumerate() {
        let alibis = v_alibi(posts, &vec[ni], t, width);
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

/// A decoded posted record: the suspect set over label indices, the name
/// it was posted under, and its multiplicity in the bag — the alibi
/// kernel is weighted by the count instead of expanding copies.
struct Post<S> {
    bits: S,
    name: usize,
    count: u64,
}

/// Decodes the posts relevant to `phase` from every peeked bag: same-phase
/// posts verbatim, and posts from the *next* phase reinterpreted as final
/// singleton posts of this phase (via their `prior` label). A suspect
/// component that is not a set decodes as the empty set, and items that
/// are not labels are skipped.
///
/// A plabel is its own index; `foreign` (sorted) indexes after the
/// plabels. On a label that is neither, returns every such label, sorted.
fn decode_posts<S: LabelSet>(
    t: &Alg2Tables,
    bags: &[Value],
    phase: i64,
    foreign: &[Label],
) -> Result<Vec<Vec<Post<S>>>, Vec<Label>> {
    let np = t.plabels.len();
    let width = np + foreign.len();
    let mut unknown = Vec::new();
    let mut decoded = Vec::with_capacity(bags.len());
    for bag in bags {
        let Value::Bag(m) = bag else {
            decoded.push(Vec::new());
            continue;
        };
        let mut posts = Vec::with_capacity(m.len());
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
            let labels = if pp == phase {
                suspects.as_set().unwrap_or(&[])
            } else if pp == phase + 1 && prior.as_sym().is_some() {
                std::slice::from_ref(prior)
            } else {
                continue;
            };
            let mut bits = S::empty(width);
            for l in labels.iter().filter_map(Value::as_sym) {
                if (l as usize) < np {
                    bits.insert(l as usize);
                } else if let Ok(i) = foreign.binary_search(&l) {
                    bits.insert(np + i);
                } else {
                    unknown.push(l);
                }
            }
            posts.push(Post {
                bits,
                name: n as usize,
                count: count as u64,
            });
        }
        decoded.push(posts);
    }
    if unknown.is_empty() {
        Ok(decoded)
    } else {
        unknown.sort_unstable();
        unknown.dedup();
        Err(unknown)
    }
}

/// A set of label indices, the alibi kernel's working type: one machine
/// word when the label space fits, a word vector otherwise. The kernel
/// touches sets only through this trait, so every width runs the same
/// code and the one-word case compiles to plain word operations.
trait LabelSet: Clone + Ord + 'static {
    /// The empty set over `width` indices.
    fn empty(width: usize) -> Self;
    /// The set whose low words are `words`, over `width` indices.
    fn from_words(words: &[u64], width: usize) -> Self;
    fn insert(&mut self, i: usize);
    fn contains(&self, i: usize) -> bool;
    fn union_with(&mut self, other: &Self);
    fn is_subset(&self, other: &Self) -> bool;
    /// `|self ∩ other|`.
    fn common(&self, other: &Self) -> u64;
    /// The member of a singleton set.
    fn single(&self) -> Option<usize>;
    /// The memo of per-name v-alibi verdicts over sets of this width.
    fn memo() -> &'static LocalKey<ValibiMemo<Self>>;
}

impl LabelSet for u64 {
    fn empty(_: usize) -> u64 {
        0
    }
    fn from_words(words: &[u64], _: usize) -> u64 {
        words.first().copied().unwrap_or(0)
    }
    fn insert(&mut self, i: usize) {
        *self |= 1 << i;
    }
    fn contains(&self, i: usize) -> bool {
        self >> i & 1 != 0
    }
    fn union_with(&mut self, other: &u64) {
        *self |= other;
    }
    fn is_subset(&self, other: &u64) -> bool {
        self & !other == 0
    }
    fn common(&self, other: &u64) -> u64 {
        u64::from((self & other).count_ones())
    }
    fn single(&self) -> Option<usize> {
        (self.count_ones() == 1).then(|| self.trailing_zeros() as usize)
    }
    fn memo() -> &'static LocalKey<ValibiMemo<u64>> {
        &VALIBI_CACHE
    }
}

impl LabelSet for Vec<u64> {
    fn empty(width: usize) -> Vec<u64> {
        vec![0; width.div_ceil(64)]
    }
    fn from_words(words: &[u64], width: usize) -> Vec<u64> {
        let mut set = words.to_vec();
        set.resize(width.div_ceil(64), 0);
        set
    }
    fn insert(&mut self, i: usize) {
        self[i / 64] |= 1 << (i % 64);
    }
    fn contains(&self, i: usize) -> bool {
        self[i / 64] >> (i % 64) & 1 != 0
    }
    fn union_with(&mut self, other: &Vec<u64>) {
        for (a, b) in self.iter_mut().zip(other) {
            *a |= b;
        }
    }
    fn is_subset(&self, other: &Vec<u64>) -> bool {
        self.iter().zip(other).all(|(a, b)| a & !b == 0)
    }
    fn common(&self, other: &Vec<u64>) -> u64 {
        self.iter().zip(other).map(|(a, b)| a.common(b)).sum()
    }
    fn single(&self) -> Option<usize> {
        let mut words = self.iter().enumerate().filter(|(_, w)| **w != 0);
        match (words.next(), words.next()) {
            (Some((i, w)), None) => w.single().map(|b| i * 64 + b),
            _ => None,
        }
    }
    fn memo() -> &'static LocalKey<ValibiMemo<Vec<u64>>> {
        &VALIBI_CACHE_WIDE
    }
}

/// Per-candidate capacity as bit machinery: capacity(lab, β) is a
/// popcount of `lab` over the plabel index bits whose
/// `neighborhood_size(n, α, β)` is 1, plus a (rarely populated) overflow
/// list of `(index, size)` for larger entries. This reads exactly the
/// candidates the caller asked about instead of accumulating whole dense
/// rows per lab.
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
}

/// Beyond this many distinct suspect sets, `v_alibi` switches from the
/// full subset-union enumeration to the linear prefix-union chain.
const UNION_CAP: usize = 12;

/// Unions of subsets of the distinct sets; beyond the cap, a chain of
/// prefix unions keeps the enumeration polynomial. The alibi set is a
/// union over the result, so order and duplicates are irrelevant — only
/// the cap threshold must match the spec.
fn unions<S: LabelSet>(distinct: &[(S, u64)], width: usize) -> Vec<S> {
    let k = distinct.len();
    let mut labs: Vec<S> = if k <= UNION_CAP {
        (1u32..(1u32 << k))
            .map(|mask| {
                let mut u = S::empty(width);
                for (i, (b, _)) in distinct.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        u.union_with(b);
                    }
                }
                u
            })
            .collect()
    } else {
        let mut chain = Vec::with_capacity(2 * k);
        let mut acc = S::empty(width);
        for (b, _) in distinct {
            chain.push(b.clone());
            acc.union_with(b);
            chain.push(acc.clone());
        }
        chain
    };
    labs.sort_unstable();
    labs.dedup();
    labs
}

/// One memo entry of [`VALIBI_CACHE`]: the table epoch, name, distinct
/// posted sets with their counts, and candidate list fully determine the
/// per-name ruled set (sorted). Labels outside the plabels index past them
/// and all have zero capacity, so which labels they are does not matter.
type ValibiKey<S> = (u64, usize, Vec<(S, u64)>, Vec<Label>);

/// A [`LabelSet`] width's memo of per-name v-alibi verdicts.
type ValibiMemo<S> = RefCell<Vec<(ValibiKey<S>, Vec<Label>)>>;

thread_local! {
    /// Memo for the per-name v-alibi verdict. Under a round-robin sweep
    /// every processor peeks the same shared bag and (early on) holds the
    /// same candidate set, so the expensive lab enumeration repeats
    /// `n`-fold per round with identical inputs.
    static VALIBI_CACHE: ValibiMemo<u64> = const { RefCell::new(Vec::new()) };
    /// [`VALIBI_CACHE`] for label spaces past one word.
    static VALIBI_CACHE_WIDE: ValibiMemo<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// `v-alibi`: variable labels ruled out by the posted suspect sets.
///
/// The paper quantifies `Lab` over the powerset of `PLABELS` but notes
/// (footnote 2) that linearly many sets suffice; we enumerate the unions
/// of the *distinct posted suspect sets* (any violated powerset witness
/// has such a union as a tighter witness). Posted labels outside PLABELS
/// still take part in the subset tests but contribute zero capacity,
/// exactly as a missing `neighborhood_size` entry would. The per-name
/// verdict is memoized across the (typically identical) peeks of one
/// round.
fn v_alibi<S: LabelSet>(
    posts: &[Post<S>],
    candidates: &[Label],
    t: &Alg2Tables,
    width: usize,
) -> BTreeSet<Label> {
    let mut out = BTreeSet::new();
    if posts.is_empty() || candidates.is_empty() {
        return out;
    }
    let mut names: Vec<usize> = posts.iter().map(|p| p.name).collect();
    names.sort_unstable();
    names.dedup();
    for n in names {
        let mut distinct: Vec<(S, u64)> = Vec::new();
        for p in posts.iter().filter(|p| p.name == n) {
            match distinct.iter_mut().find(|(b, _)| *b == p.bits) {
                Some(entry) => entry.1 += p.count,
                None => distinct.push((p.bits.clone(), p.count)),
            }
        }
        let ruled = S::memo().with(|c| {
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
                let ruled = v_alibi_name(t, n, &distinct, candidates, width);
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

/// The labels ruled out by name `n` alone: `posted_within(lab) >
/// capacity(lab, β)` rules β out. Pure in `(t.epoch, n, distinct,
/// candidates)` — which is what the memo keys on.
fn v_alibi_name<S: LabelSet>(
    t: &Alg2Tables,
    n: usize,
    distinct: &[(S, u64)],
    candidates: &[Label],
    width: usize,
) -> Vec<Label> {
    let labs = unions(distinct, width);
    let masks: Vec<(S, &[(usize, u64)])> = candidates
        .iter()
        .map(|&b| match t.vlabel_index(b) {
            Some(bi) => {
                let m = t.cap_mask(n, bi);
                (S::from_words(&m.ones, width), &m.overflow[..])
            }
            None => (S::empty(width), &[][..]),
        })
        .collect();
    let mut ruled = vec![false; candidates.len()];
    for lab in &labs {
        if ruled.iter().all(|r| *r) {
            break;
        }
        let posted_within: u64 = distinct
            .iter()
            .filter(|(b, _)| b.is_subset(lab))
            .map(|&(_, c)| c)
            .sum();
        for ((ones, overflow), ruled) in masks.iter().zip(ruled.iter_mut()) {
            if *ruled {
                continue;
            }
            let capacity = lab.common(ones)
                + overflow
                    .iter()
                    .filter(|&&(ai, _)| lab.contains(ai))
                    .map(|&(_, v)| v)
                    .sum::<u64>();
            *ruled = posted_within > capacity;
        }
    }
    candidates
        .iter()
        .zip(&ruled)
        .filter(|(_, r)| **r)
        .map(|(&b, _)| b)
        .collect()
}

/// `p-alibi`: processor labels ruled out for *me*.
fn p_alibi<S: LabelSet>(
    pec: &[Label],
    vec: &[Vec<Label>],
    peeked: &[Vec<Post<S>>],
    t: &Alg2Tables,
) -> BTreeSet<Label> {
    let mut out = BTreeSet::new();
    let np = t.plabels.len();
    // Per name, how many posts are the singleton `{α}`, dense over plabel
    // indices — condition 2's "knowers" counted once, not per PEC member.
    let singles: Vec<Vec<u64>> = if pec.len() > 1 {
        (0..t.names)
            .map(|n| {
                let mut counts = vec![0u64; np];
                for p in peeked[n].iter().filter(|p| p.name == n) {
                    if let Some(ai) = p.bits.single().filter(|&ai| ai < np) {
                        counts[ai] += p.count;
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
            let beta = t.vlabels[bi];
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
    /// allows: for every posted name `n` and every union `Lab` of a
    /// nonempty subset of the distinct suspect sets posted with `n`, a
    /// candidate `β` is ruled out when more posts lie within `Lab` than
    /// `Σ_{α ∈ Lab ∩ PLABELS} neighborhood_size(n, α, β)`.
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

    /// Seeded synthetic rounds on `g`. Each name's bag holds the posts of
    /// some variable's true neighbors (suspect sets that contain the
    /// poster's label, so that variable's label keeps its capacity) and
    /// at most one arbitrary post; some posts are repeated, some final
    /// (`phase + 1`, read through their prior label) and some from an
    /// unrelated phase. Extra suspect labels come from a few that the
    /// bag's posts share, or from a window near the poster's own label
    /// over the plabels and `foreign` (labels that are not plabels)
    /// interleaved; with `block`, some sets also take a run of that many
    /// foreign labels. Checks each name's surviving `VEC` against
    /// [`v_alibi_reference`].
    fn check_v_alibi_against_reference(
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
            for _ in 0..t.names {
                let v = vars[rng.below(vars.len())];
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
                bags.push(Value::bag(items));
            }
            let mut local = LocalState::new();
            local.set_reg(r.pec, labels_to_set([t.proc_labels()[0]]));
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
        }
    }

    #[test]
    fn v_alibi_matches_the_definition_within_one_word() {
        check_v_alibi_against_reference(&topology::figure2(), &[], 0, 100);
        check_v_alibi_against_reference(&topology::marked_ring(8), &[], 0, 100);
    }

    #[test]
    fn v_alibi_matches_the_definition_with_foreign_labels() {
        // Labels outside PLABELS take part in the subset tests with zero
        // capacity, whether the label space stays within one word or not.
        let few: Vec<Label> = (500..510).collect();
        check_v_alibi_against_reference(&topology::marked_ring(8), &few, 0, 100);
        let many: Vec<Label> = (1_000..1_080).collect();
        check_v_alibi_against_reference(&topology::marked_ring(8), &many, 40, 100);
    }

    #[test]
    fn v_alibi_matches_the_definition_past_one_word_of_plabels() {
        check_v_alibi_against_reference(&topology::marked_ring(65), &[], 0, 60);
        check_v_alibi_against_reference(&topology::marked_ring(130), &[], 0, 60);
        let few: Vec<Label> = (900..905).collect();
        check_v_alibi_against_reference(&topology::marked_ring(130), &few, 3, 60);
    }
}
