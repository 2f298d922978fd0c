//! The executable system: graph + instruction set + program + state.

use crate::digest::{fold, owner_term, place, xor_into, Digest};
use crate::value::InternedValues;
use crate::{InstructionSet, LocalState, Program, SharedVar, SystemInit, Value, ValueId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simsym_graph::{NameId, ProcId, SystemGraph, VarId};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Errors constructing a [`Machine`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum MachineError {
    /// The initial state vectors do not match the graph's node counts.
    InitShapeMismatch {
        /// Processors in the graph vs. values provided.
        procs: (usize, usize),
        /// Variables in the graph vs. values provided.
        vars: (usize, usize),
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::InitShapeMismatch { procs, vars } => write!(
                f,
                "initial state shape mismatch: graph has {} processors and {} variables, init provides {} and {}",
                procs.0, vars.0, procs.1, vars.1
            ),
        }
    }
}

impl Error for MachineError {}

/// The kind of shared (or channel) operation a step performed, recorded by
/// the machine for the engine's metrics and trace layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// No shared operation — purely local computation.
    Local,
    /// `read i from n` (S, L, L*).
    Read,
    /// `write i to n` (S, L, L*).
    Write,
    /// `lock(n)` (L, L*).
    Lock,
    /// `unlock(n)` (L, L*).
    Unlock,
    /// `lock` on a list of names (L* extended locking, §6).
    LockMany,
    /// `peek i from n` (Q).
    Peek,
    /// `post i to n` (Q).
    Post,
    /// `send` on a channel (message passing).
    Send,
    /// `receive` on a channel (message passing).
    Recv,
}

impl OpKind {
    /// Every operation kind, in declaration order (the histogram order used
    /// by the engine's metrics layer).
    pub const ALL: [OpKind; 10] = [
        OpKind::Local,
        OpKind::Read,
        OpKind::Write,
        OpKind::Lock,
        OpKind::Unlock,
        OpKind::LockMany,
        OpKind::Peek,
        OpKind::Post,
        OpKind::Send,
        OpKind::Recv,
    ];

    /// Index of this kind within [`OpKind::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lower-case name, used in traces and metrics tables.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Local => "local",
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Lock => "lock",
            OpKind::Unlock => "unlock",
            OpKind::LockMany => "lock_many",
            OpKind::Peek => "peek",
            OpKind::Post => "post",
            OpKind::Send => "send",
            OpKind::Recv => "recv",
        }
    }

    /// Inverse of [`OpKind::name`].
    pub fn from_name(name: &str) -> Option<OpKind> {
        Some(match name {
            "local" => OpKind::Local,
            "read" => OpKind::Read,
            "write" => OpKind::Write,
            "lock" => OpKind::Lock,
            "unlock" => OpKind::Unlock,
            "lock_many" => OpKind::LockMany,
            "peek" => OpKind::Peek,
            "post" => OpKind::Post,
            "send" => OpKind::Send,
            "recv" => OpKind::Recv,
            _ => return None,
        })
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What the most recent step did, as observed by the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StepOp {
    /// The operation the step performed.
    pub kind: OpKind,
    /// Whether a lock/lock_many attempt found its target(s) held — the
    /// engine's lock-contention signal. Always `false` for other ops.
    pub contended: bool,
}

/// A machine-model violation a program attempted during a step.
///
/// Historically the [`OpEnv`] `panic!`ed on these; they are now *recorded*
/// on the step's [`OpRecord`] so the checker layer (`simsym-check`) can
/// surface them as diagnostics instead of crashing the run. The offending
/// operation is refused: it has no effect on shared state and returns a
/// neutral value (`Value::Unit` for reads, `false` for lock attempts, an
/// empty [`PeekView`] for peeks).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ModelViolation {
    /// A second shared operation within one atomic step (§2 requires one
    /// instruction per step).
    SecondSharedOp {
        /// The operation that legitimately charged this step.
        first: OpKind,
        /// The refused extra operation.
        second: OpKind,
    },
    /// An operation outside the machine's declared instruction set `I`.
    OpNotInIsa {
        /// The refused operation.
        op: OpKind,
        /// The machine's instruction set.
        isa: InstructionSet,
    },
    /// A local register the program expected to hold an integer was
    /// missing or held a non-integer value — the processor's state is
    /// garbled and the program refused to act on it.
    GarbledRegister {
        /// Static name of the register, as the program interned it.
        register: &'static str,
    },
}

impl ModelViolation {
    /// Stable short name of the violation class, independent of the
    /// offending operands — what the explorer aggregates when comparing
    /// reduced searches against the identity oracle.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ModelViolation::SecondSharedOp { .. } => "second-shared-op",
            ModelViolation::OpNotInIsa { .. } => "op-not-in-isa",
            ModelViolation::GarbledRegister { .. } => "garbled-register",
        }
    }
}

impl fmt::Display for ModelViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelViolation::SecondSharedOp { first, second } => write!(
                f,
                "second shared operation ({second}) in one atomic step (after {first})"
            ),
            ModelViolation::OpNotInIsa { op, isa } => {
                write!(f, "{op} is not available in instruction set {isa}")
            }
            ModelViolation::GarbledRegister { register } => {
                write!(f, "register {register:?} is missing or non-integer")
            }
        }
    }
}

/// Everything the machine records about its most recent step: the compact
/// [`StepOp`] fields plus which variables the operation touched and any
/// [`ModelViolation`]s the program attempted. Traces and metrics consume
/// the [`StepOp`] projection; the checker layer consumes the full record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpRecord {
    /// The operation the step performed.
    pub kind: OpKind,
    /// Whether a lock/lock_many attempt found its target(s) held.
    pub contended: bool,
    /// The shared variables the operation addressed (resolved through the
    /// stepping processor's `n_nbr`; empty for purely local steps).
    pub targets: Vec<VarId>,
    /// Model violations attempted during the step, in program order.
    pub violations: Vec<ModelViolation>,
}

impl OpRecord {
    /// A purely local step: no shared operation, no violations.
    pub fn local() -> OpRecord {
        OpRecord {
            kind: OpKind::Local,
            contended: false,
            targets: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// Lifts a compact [`StepOp`] into a record with no target or violation
    /// detail — used by systems that only track `last_op`.
    pub fn from_step(op: StepOp) -> OpRecord {
        OpRecord {
            kind: op.kind,
            contended: op.contended,
            targets: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// The compact projection recorded by traces and metrics.
    pub fn step_op(&self) -> StepOp {
        StepOp {
            kind: self.kind,
            contended: self.contended,
        }
    }
}

/// What a `peek` instruction returns: the variable's initial state together
/// with the unordered multiset of posted subvalues (canonically sorted).
///
/// The number of subvalues is a *lower bound* on the number of neighbors of
/// the variable — a processor cannot directly observe the neighbor count
/// (§2), which is exactly why bounded-fair knowledge matters in §5.
///
/// The view **borrows** the variable's cached canonical multiset: a peek
/// clones nothing and sorts nothing. The refusal path ([`OpEnv::peek`]
/// outside Q, or as a second shared op) returns [`PeekView::empty`], which
/// allocates nothing either. Emulation layers that reconstruct a view from
/// plain-variable state use [`PeekView::owned`].
#[derive(Clone, Debug)]
pub struct PeekView<'a> {
    init: PeekInit<'a>,
    posted: PeekPosted<'a>,
}

#[derive(Clone, Debug)]
enum PeekInit<'a> {
    Borrowed(&'a Value),
    Owned(Value),
}

#[derive(Clone, Debug)]
enum PeekPosted<'a> {
    /// Distinct subvalues with multiplicities, sorted by value — borrowed
    /// straight from [`SharedVar::multi_counts`].
    Counts {
        counts: &'a [(ValueId, u32)],
        total: usize,
    },
    /// An owned, canonically sorted expansion (emulation and tests).
    Owned(Vec<Value>),
}

impl<'a> PeekView<'a> {
    /// The empty view returned by a refused peek: unit initial state, no
    /// subvalues. Allocation-free.
    pub fn empty() -> PeekView<'static> {
        PeekView {
            init: PeekInit::Owned(Value::Unit),
            posted: PeekPosted::Owned(Vec::new()),
        }
    }

    /// An owned view from explicit parts; `posted` must already be in
    /// canonical (sorted) order. Used by emulation layers that rebuild the
    /// Q observation from plain-variable contents, and by tests.
    pub fn owned(initial: Value, posted: Vec<Value>) -> PeekView<'static> {
        PeekView {
            init: PeekInit::Owned(initial),
            posted: PeekPosted::Owned(posted),
        }
    }

    /// The variable's `state₀` component.
    pub fn initial(&self) -> &Value {
        match &self.init {
            PeekInit::Borrowed(v) => v,
            PeekInit::Owned(v) => v,
        }
    }

    /// Number of posted subvalues (with multiplicity).
    pub fn posted_len(&self) -> usize {
        match &self.posted {
            PeekPosted::Counts { total, .. } => *total,
            PeekPosted::Owned(vs) => vs.len(),
        }
    }

    /// The posted subvalues in canonical (sorted) order, with
    /// multiplicity — exactly the old `Vec<Value>` iteration order.
    pub fn posted(&self) -> impl Iterator<Item = &Value> + '_ {
        let (counts, owned): (&[(ValueId, u32)], &[Value]) = match &self.posted {
            PeekPosted::Counts { counts, .. } => (counts, &[]),
            PeekPosted::Owned(vs) => (&[], vs.as_slice()),
        };
        counts
            .iter()
            .flat_map(|&(vid, n)| std::iter::repeat_n(vid.resolve(), n as usize))
            .chain(owned.iter())
    }

    /// The distinct posted subvalues as interned `(id, multiplicity)`
    /// pairs in canonical order, when this view borrows a live multiset
    /// (`None` for owned/emulated views). Because [`ValueId`] interning is
    /// canonical, two views with equal count slices hold equal multisets —
    /// a cheap content key for callers that memoize per-peek work.
    pub fn posted_counts(&self) -> Option<&[(ValueId, u32)]> {
        match &self.posted {
            PeekPosted::Counts { counts, .. } => Some(counts),
            PeekPosted::Owned(_) => None,
        }
    }

    /// The posted multiset as a [`Value::Bag`] — built directly from the
    /// cached counts, without expanding duplicates.
    pub fn to_bag(&self) -> Value {
        match &self.posted {
            PeekPosted::Counts { counts, .. } => {
                let values = InternedValues::read();
                Value::Bag(std::sync::Arc::new(
                    counts
                        .iter()
                        .map(|&(vid, n)| (values.value(vid).clone(), n as usize))
                        .collect(),
                ))
            }
            PeekPosted::Owned(vs) => Value::bag(vs.iter().cloned()),
        }
    }
}

/// A running system `Σ`: the network, an instruction set, the common
/// program, and the current state of every processor and variable.
///
/// Machines are cheap to [`Clone`] (the graph and program are shared), which
/// the exhaustive schedule explorer uses heavily.
///
/// ```
/// use simsym_vm::{Machine, InstructionSet, SystemInit, FnProgram, Value};
/// use simsym_graph::{topology, ProcId};
/// use std::sync::Arc;
///
/// let g = Arc::new(topology::figure1());
/// let prog = Arc::new(FnProgram::new("post-once", |local, ops| {
///     if local.pc == 0 {
///         let n = ops.name("n");
///         ops.post(n, Value::from(1));
///         local.pc = 1;
///     }
/// }));
/// let init = SystemInit::uniform(&g);
/// let mut m = Machine::new(g, InstructionSet::Q, prog, &init)?;
/// m.step(ProcId::new(0));
/// assert_eq!(m.steps(), 1);
/// # Ok::<(), simsym_vm::MachineError>(())
/// ```
#[derive(Clone)]
pub struct Machine {
    graph: Arc<SystemGraph>,
    isa: InstructionSet,
    program: Arc<dyn Program>,
    locals: Vec<LocalState>,
    vars: Vec<SharedVar>,
    steps: u64,
    rng: Option<StdRng>,
    last_record: Option<OpRecord>,
    inc_fp: Option<IncFp>,
    /// The `post` performed by the in-flight step, if any — lets the
    /// incremental fingerprint patch the posted variable's digest in
    /// O(1) from the (owner, old id, new id) delta instead of rehashing
    /// the whole multiset. Reset at the start of every step.
    last_post_delta: Option<PostDelta>,
    /// Recycled id buffer for `lock_many` target resolution.
    scratch_vids: Vec<VarId>,
}

/// The shared-state delta of one `post`: which variable, which owner, and
/// the owner's previous and new interned subvalues.
#[derive(Clone, Copy)]
struct PostDelta {
    var: VarId,
    owner: ProcId,
    prev: Option<ValueId>,
    new: ValueId,
}

/// Incrementally maintained wide fingerprint: the XOR over nodes of
/// [`place`]`(node, digest)`. XOR makes the combination order-independent
/// and lets a step that touched `k` nodes update the global fingerprint
/// in `O(k)` instead of rehashing the whole state.
#[derive(Clone)]
struct IncFp {
    key: Digest,
    /// Position-free node digests ([`LocalState::digest`],
    /// [`SharedVar::digest`]), processors first, then variables. The
    /// similarity quotient reads them to build its permuted keys.
    nodes: Vec<Digest>,
    /// Each processor's [`LocalState::register_xor`]: an undoable step
    /// hashes only the registers it changed.
    regs: Vec<Digest>,
}

/// The XOR over nodes of each digest placed at its index: the identity
/// key of a state with these node digests.
fn placed_xor(nodes: impl Iterator<Item = Digest>) -> (u64, u64) {
    let mut key = (0, 0);
    for (i, d) in nodes.enumerate() {
        xor_into(&mut key, place(i, d));
    }
    key
}

impl IncFp {
    /// Replaces node `idx`'s digest, returning the old one.
    fn set(&mut self, idx: usize, digest: Digest) -> Digest {
        let old = std::mem::replace(&mut self.nodes[idx], digest);
        if old != digest {
            xor_into(&mut self.key, place(idx, old));
            xor_into(&mut self.key, place(idx, digest));
        }
        old
    }
}

/// The pre-image of one shared variable mutated by an undoable step.
///
/// `post` records only the posting owner's previous subvalue id — undoing
/// a Q step never clones or stores the whole multiset. Every other
/// mutation (writes, lock-bit changes) snapshots the variable wholesale,
/// which for a Plain variable is one small value.
enum VarUndo {
    Whole(VarId, SharedVar),
    Post {
        var: VarId,
        owner: ProcId,
        prev: Option<ValueId>,
    },
}

impl VarUndo {
    fn var(&self) -> VarId {
        match self {
            VarUndo::Whole(v, _) => *v,
            VarUndo::Post { var, .. } => *var,
        }
    }
}

/// Everything needed to reverse one [`Machine::step_undoable`] step: the
/// stepping processor's previous local state, the pre-images of the shared
/// variables the step mutated, and the previous step record and
/// fingerprint entries.
pub struct StepUndo {
    proc: ProcId,
    prev_local: LocalState,
    prev_vars: Vec<VarUndo>,
    prev_record: Option<OpRecord>,
    /// `(node index, previous digest)` for incremental-fingerprint
    /// restoration; empty when the fingerprint is not enabled.
    prev_digests: Vec<(usize, Digest)>,
    /// The stepping processor's previous register XOR.
    prev_regs: Digest,
}

impl Machine {
    /// Builds a machine in its initial state.
    ///
    /// Shared variables are created per the instruction set: plain cells
    /// for S/L/L*, multiset variables (with `state₀` as their base) for Q.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::InitShapeMismatch`] if `init` does not match
    /// the graph.
    pub fn new(
        graph: Arc<SystemGraph>,
        isa: InstructionSet,
        program: Arc<dyn Program>,
        init: &SystemInit,
    ) -> Result<Machine, MachineError> {
        if !init.matches(&graph) {
            return Err(MachineError::InitShapeMismatch {
                procs: (graph.processor_count(), init.proc_values.len()),
                vars: (graph.variable_count(), init.var_values.len()),
            });
        }
        let locals = init.proc_values.iter().map(|v| program.boot(v)).collect();
        let vars = init
            .var_values
            .iter()
            .map(|v| {
                if isa.uses_multi_vars() {
                    SharedVar::multi(v.clone())
                } else {
                    SharedVar::plain(v.clone())
                }
            })
            .collect();
        Ok(Machine {
            graph,
            isa,
            program,
            locals,
            vars,
            steps: 0,
            rng: None,
            last_record: None,
            inc_fp: None,
            last_post_delta: None,
            scratch_vids: Vec::new(),
        })
    }

    /// Enables coin flips ([`OpEnv::coin`]) with a deterministic seed —
    /// required by randomized programs (§8).
    pub fn with_randomness(mut self, seed: u64) -> Machine {
        self.rng = Some(StdRng::seed_from_u64(seed));
        self
    }

    /// The system graph.
    pub fn graph(&self) -> &SystemGraph {
        &self.graph
    }

    /// The instruction set.
    pub fn isa(&self) -> InstructionSet {
        self.isa
    }

    /// Name of the loaded program.
    pub fn program_name(&self) -> &str {
        self.program.name()
    }

    /// The loaded program.
    pub fn program(&self) -> &Arc<dyn Program> {
        &self.program
    }

    /// Number of steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Whether the machine was built with [`Machine::with_randomness`].
    pub fn has_randomness(&self) -> bool {
        self.rng.is_some()
    }

    /// The local state of processor `p`.
    pub fn local(&self, p: ProcId) -> &LocalState {
        &self.locals[p.index()]
    }

    /// All local states, indexed by processor.
    pub fn locals(&self) -> &[LocalState] {
        &self.locals
    }

    /// The state of variable `v`.
    pub fn var(&self, v: VarId) -> &SharedVar {
        &self.vars[v.index()]
    }

    /// All shared-variable states, indexed by variable.
    pub fn shared_vars(&self) -> &[SharedVar] {
        &self.vars
    }

    /// Processors whose `selected` flag is set.
    pub fn selected(&self) -> Vec<ProcId> {
        self.graph
            .processors()
            .filter(|p| self.locals[p.index()].selected)
            .collect()
    }

    /// Number of selected processors.
    pub fn selected_count(&self) -> usize {
        self.locals.iter().filter(|l| l.selected).count()
    }

    /// Executes one atomic step of processor `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range. Programs that violate the machine
    /// model (a second shared operation within the step, or an operation
    /// outside the instruction set) do **not** panic: the offending
    /// operation is refused — no shared-state effect, neutral return value
    /// — and recorded as a [`ModelViolation`] on the step's [`OpRecord`],
    /// where the checker layer (`simsym-check`) reports it.
    pub fn step(&mut self, p: ProcId) {
        self.exec_step(p, None);
        self.steps += 1;
        if self.inc_fp.is_some() {
            // Borrow dance: refresh needs `&mut self` alongside the
            // record's target list, so lend the list out and back.
            let rec = self.last_record.as_mut().expect("exec_step records");
            let targets = std::mem::take(&mut rec.targets);
            let _ = self.refresh_node_digests(p, None, &targets);
            self.last_record
                .as_mut()
                .expect("exec_step records")
                .targets = targets;
        }
    }

    /// Executes one atomic step of processor `p` and returns everything
    /// needed to reverse it with [`Machine::undo`]. Instead of cloning the
    /// whole machine per branch, the schedule explorer applies and undoes
    /// step deltas along its DFS spine.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range, or if the machine was built with
    /// randomness — undo cannot rewind the RNG, so undo-based exploration
    /// requires deterministic steps.
    pub fn step_undoable(&mut self, p: ProcId) -> StepUndo {
        assert!(
            self.rng.is_none(),
            "step_undoable requires a deterministic machine: undo cannot rewind the RNG"
        );
        let prev_local = self.locals[p.index()].clone();
        // Taking the record out makes exec_step start from a fresh one,
        // leaving this step's record in place and the previous owned here.
        let prev_record = self.last_record.take();
        let mut prev_vars = Vec::new();
        self.exec_step(p, Some(&mut prev_vars));
        self.steps += 1;
        let (prev_digests, prev_regs) = if self.inc_fp.is_some() {
            let touched: Vec<VarId> = prev_vars.iter().map(VarUndo::var).collect();
            self.refresh_node_digests(p, Some(&prev_local), &touched)
        } else {
            (Vec::new(), (0, 0))
        };
        StepUndo {
            proc: p,
            prev_local,
            prev_vars,
            prev_record,
            prev_digests,
            prev_regs,
        }
    }

    /// Reverses one [`Machine::step_undoable`] step. Undos must be applied
    /// in reverse order of the steps they record (LIFO, as in a DFS).
    pub fn undo(&mut self, undo: StepUndo) {
        let StepUndo {
            proc,
            prev_local,
            prev_vars,
            prev_record,
            prev_digests,
            prev_regs,
        } = undo;
        self.locals[proc.index()] = prev_local;
        for u in prev_vars.into_iter().rev() {
            match u {
                VarUndo::Whole(v, state) => self.vars[v.index()] = state,
                VarUndo::Post { var, owner, prev } => {
                    self.vars[var.index()].unpost_sub(owner, prev);
                }
            }
        }
        self.steps -= 1;
        self.last_record = prev_record;
        if let Some(fp) = &mut self.inc_fp {
            for (idx, old) in prev_digests.into_iter().rev() {
                fp.set(idx, old);
            }
            fp.regs[proc.index()] = prev_regs;
        }
    }

    /// Runs the program step for `p`, optionally capturing shared-variable
    /// pre-images into `undo_vars`, and returns the step's record.
    fn exec_step(&mut self, p: ProcId, undo_vars: Option<&mut Vec<VarUndo>>) {
        let mut local = std::mem::take(&mut self.locals[p.index()]);
        // The step record lives in `last_record` and is recycled in
        // place: once its vectors are warm, a step allocates nothing.
        let record = self.last_record.get_or_insert_with(OpRecord::local);
        record.kind = OpKind::Local;
        record.contended = false;
        record.targets.clear();
        record.violations.clear();
        self.last_post_delta = None;
        {
            let mut env = OpEnv {
                graph: &self.graph,
                isa: self.isa,
                vars: &mut self.vars,
                proc: p,
                rng: &mut self.rng,
                shared_ops: 0,
                record,
                undo: undo_vars,
                post_delta: &mut self.last_post_delta,
                scratch: &mut self.scratch_vids,
            };
            self.program.step(&mut local, &mut env);
        }
        self.locals[p.index()] = local;
    }

    /// Recomputes the node digests of processor `p` and the given
    /// variables, returning the previous `(node, digest)` pairs and `p`'s
    /// previous register XOR.
    ///
    /// Given `p`'s state before the step, `prev_local`, only the
    /// registers the step changed are rehashed; without it, all of them.
    /// A `post` step skips rehashing the posted multiset: its digest is
    /// patched from the step's [`PostDelta`] by XOR-ing out the owner's
    /// old subvalue term and XOR-ing in the new one — O(1) regardless of
    /// how many processors have posted.
    fn refresh_node_digests(
        &mut self,
        p: ProcId,
        prev_local: Option<&LocalState>,
        vars: &[VarId],
    ) -> (Vec<(usize, Digest)>, Digest) {
        let Some(fp) = self.inc_fp.as_mut() else {
            return (Vec::new(), (0, 0));
        };
        let pc = self.locals.len();
        let local = &self.locals[p.index()];
        let prev_regs = fp.regs[p.index()];
        match prev_local {
            Some(before) => local.patch_register_xor(before, &mut fp.regs[p.index()]),
            None => fp.regs[p.index()] = local.register_xor(),
        }
        let mut prev: Vec<(usize, Digest)> = Vec::with_capacity(1 + vars.len());
        prev.push((
            p.index(),
            fp.set(p.index(), local.digest_with(fp.regs[p.index()])),
        ));
        for &v in vars {
            let idx = pc + v.index();
            let digest = match self.last_post_delta {
                Some(d) if d.var == v => {
                    let values = InternedValues::read();
                    let mut digest = fp.nodes[idx];
                    if let Some(pv) = d.prev {
                        xor_into(&mut digest, owner_term(d.owner.index(), values.digest(pv)));
                    }
                    xor_into(
                        &mut digest,
                        owner_term(d.owner.index(), values.digest(d.new)),
                    );
                    digest
                }
                _ => self.vars[v.index()].digest(),
            };
            let old = fp.set(idx, digest);
            // A step touches a variable at most once per op, but
            // lock_many may list duplicates; keep the oldest pre-image.
            if !prev.iter().any(|&(i, _)| i == idx) {
                prev.push((idx, old));
            }
        }
        (prev, prev_regs)
    }

    /// The position-free digest of node `idx` (processors first),
    /// computed from scratch.
    fn node_digest(&self, idx: usize) -> Digest {
        match self.locals.get(idx) {
            Some(l) => l.digest(),
            None => self.vars[idx - self.locals.len()].digest(),
        }
    }

    /// Every node's digest, processors first: the incrementally
    /// maintained ones when the fingerprint is enabled, otherwise
    /// computed from scratch into `scratch`.
    pub(crate) fn node_digests<'a>(&'a self, scratch: &'a mut Vec<Digest>) -> &'a [Digest] {
        if let Some(fp) = &self.inc_fp {
            return &fp.nodes;
        }
        scratch.clear();
        scratch.extend((0..self.locals.len() + self.vars.len()).map(|i| self.node_digest(i)));
        scratch
    }

    /// Switches on the incrementally maintained wide fingerprint:
    /// computes every node digest once (`O(N)`), after which each step
    /// updates the fingerprint from its delta in `O(1)` node digests.
    pub fn enable_incremental_fingerprint(&mut self) {
        let nodes: Vec<Digest> = (0..self.locals.len() + self.vars.len())
            .map(|i| self.node_digest(i))
            .collect();
        let key = placed_xor(nodes.iter().copied());
        let regs = self.locals.iter().map(LocalState::register_xor).collect();
        self.inc_fp = Some(IncFp { key, nodes, regs });
    }

    /// The incrementally maintained 128-bit fingerprint, if enabled.
    /// Always equal to [`Machine::wide_fingerprint`] — property-tested in
    /// the vm test suite.
    pub fn incremental_fingerprint(&self) -> Option<(u64, u64)> {
        self.inc_fp.as_ref().map(|fp| fp.key)
    }

    /// The wide (128-bit) fingerprint recomputed from scratch — the
    /// reference value the incremental fingerprint must always match.
    pub fn wide_fingerprint(&self) -> (u64, u64) {
        placed_xor((0..self.locals.len() + self.vars.len()).map(|i| self.node_digest(i)))
    }

    /// Approximate resident bytes of the machine's mutable state (local
    /// states plus shared variables, inline and heap) — the numerator of
    /// the scale-tier bytes/processor bench rows. Excludes the shared
    /// graph and program, which [`SystemGraph::approx_bytes`] reports
    /// separately.
    pub fn approx_state_bytes(&self) -> usize {
        let locals_inline = self.locals.len() * std::mem::size_of::<LocalState>();
        let locals_heap: usize = self.locals.iter().map(LocalState::approx_heap_bytes).sum();
        let vars_inline = self.vars.len() * std::mem::size_of::<SharedVar>();
        let vars_heap: usize = self.vars.iter().map(SharedVar::approx_heap_bytes).sum();
        locals_inline + locals_heap + vars_inline + vars_heap
    }

    /// What the most recent step did (`None` before the first step). The
    /// engine's metrics and trace probes read this after every step.
    pub fn last_op(&self) -> Option<StepOp> {
        self.last_record.as_ref().map(OpRecord::step_op)
    }

    /// The full record of the most recent step — the [`StepOp`] fields plus
    /// the touched variables and any attempted [`ModelViolation`]s. The
    /// checker layer reads this after every step.
    pub fn last_record(&self) -> Option<&OpRecord> {
        self.last_record.as_ref()
    }

    /// Replaces the local state of processor `p` wholesale — the fault
    /// layer's crash-recovery reset. Keeps the incremental fingerprint
    /// coherent when it is enabled.
    pub fn restore_local(&mut self, p: ProcId, state: LocalState) {
        self.locals[p.index()] = state;
        let _ = self.refresh_node_digests(p, None, &[]);
    }

    /// A canonical snapshot of the global state (local states plus
    /// variable states), used by the schedule explorer to deduplicate.
    pub fn canonical_state(&self) -> (Vec<LocalState>, Vec<SharedVar>) {
        (self.locals.clone(), self.vars.clone())
    }

    /// A 64-bit fingerprint of the global state: the 128-bit key folded.
    /// A run that reads it after every step should first
    /// [enable](Machine::enable_incremental_fingerprint) the incremental key.
    pub fn fingerprint(&self) -> u64 {
        let key = self.incremental_fingerprint();
        fold(key.unwrap_or_else(|| self.wide_fingerprint()))
    }
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("isa", &self.isa)
            .field("program", &self.program.name())
            .field("processors", &self.locals.len())
            .field("variables", &self.vars.len())
            .field("steps", &self.steps)
            .finish()
    }
}

/// The shared-operation environment handed to [`Program::step`].
///
/// Enforces the machine model: at most one shared operation per step, and
/// only operations belonging to the machine's instruction set. An
/// operation that breaks either rule is *refused* — it has no effect on
/// shared state and returns a neutral value — and a [`ModelViolation`] is
/// recorded on the step's [`OpRecord`] for the checker layer to report.
pub struct OpEnv<'m> {
    graph: &'m SystemGraph,
    isa: InstructionSet,
    vars: &'m mut Vec<SharedVar>,
    proc: ProcId,
    rng: &'m mut Option<StdRng>,
    shared_ops: u32,
    record: &'m mut OpRecord,
    /// When the step runs under [`Machine::step_undoable`], mutating ops
    /// push pre-images here before touching shared state.
    undo: Option<&'m mut Vec<VarUndo>>,
    /// Slot for this step's `post` delta, read by the incremental
    /// fingerprint to patch the posted node digest in O(1).
    post_delta: &'m mut Option<PostDelta>,
    /// Machine-owned scratch for `lock_many` target ids.
    scratch: &'m mut Vec<VarId>,
}

impl<'m> OpEnv<'m> {
    /// Resolves an edge-name string to its id.
    ///
    /// # Panics
    ///
    /// Panics if the name is not in `NAMES` for this system.
    pub fn name(&self, name: &str) -> NameId {
        self.graph
            .names()
            .get(name)
            .unwrap_or_else(|| panic!("unknown edge name {name:?}"))
    }

    /// All edge names of the system, in dense order.
    pub fn all_names(&self) -> Vec<NameId> {
        self.graph.names().ids().collect()
    }

    /// The `i`-th edge name in dense order — `all_names()[i]` without
    /// the allocation, for per-step name indexing on the hot path.
    ///
    /// # Panics
    ///
    /// Panics if `i >= name_count()`.
    pub fn name_at(&self, i: usize) -> NameId {
        assert!(i < self.graph.name_count(), "name index {i} out of range");
        NameId::new(i)
    }

    /// Number of edge names (`|NAMES|`).
    pub fn name_count(&self) -> usize {
        self.graph.name_count()
    }

    /// Records that a local register the program expected to hold an
    /// integer was missing or garbled. The program should refuse to act on
    /// the bad value (typically by halting the processor) rather than
    /// defaulting it — this is the "record, don't panic" channel for local
    /// state corruption, mirroring how refused shared ops are reported.
    pub fn record_garbled_register(&mut self, register: &'static str) {
        self.record
            .violations
            .push(ModelViolation::GarbledRegister { register });
    }

    /// Charges the step with `op` on `targets`, enforcing the machine
    /// model. Returns `false` — recording a [`ModelViolation`] and leaving
    /// the step uncharged — when the operation must be refused: either a
    /// shared op already charged this step, or `op` is outside the
    /// instruction set.
    fn permit(&mut self, op: OpKind, in_isa: bool, targets: &[VarId]) -> bool {
        if self.shared_ops >= 1 {
            self.record.violations.push(ModelViolation::SecondSharedOp {
                first: self.record.kind,
                second: op,
            });
            return false;
        }
        if !in_isa {
            self.record
                .violations
                .push(ModelViolation::OpNotInIsa { op, isa: self.isa });
            return false;
        }
        self.shared_ops += 1;
        self.record.kind = op;
        self.record.targets.clear();
        self.record.targets.extend_from_slice(targets);
        true
    }

    fn target(&self, n: NameId) -> VarId {
        self.graph.n_nbr(self.proc, n)
    }

    /// Records the whole pre-image of `v` for undo, if this step is
    /// undoable. Must be called before the op mutates the variable. `post`
    /// does not use this — it records only the owner's previous subvalue
    /// id ([`VarUndo::Post`]).
    fn capture(&mut self, v: VarId) {
        if let Some(buf) = self.undo.as_deref_mut() {
            buf.push(VarUndo::Whole(v, self.vars[v.index()].clone()));
        }
    }

    /// `read i from n` — S, L, L*. Outside those instruction sets, or as a
    /// second shared op in the step, the read is refused and returns
    /// [`Value::Unit`].
    pub fn read(&mut self, n: NameId) -> Value {
        let v = self.target(n);
        if !self.permit(OpKind::Read, self.isa.allows_read_write(), &[v]) {
            return Value::Unit;
        }
        match &self.vars[v.index()] {
            SharedVar::Plain { value, .. } => value.clone(),
            SharedVar::Multi { .. } => unreachable!("plain ops on multi var"),
        }
    }

    /// `write i to n` — S, L, L*. Outside those instruction sets, or as a
    /// second shared op in the step, the write is refused (no effect).
    pub fn write(&mut self, n: NameId, value: Value) {
        let v = self.target(n);
        if !self.permit(OpKind::Write, self.isa.allows_read_write(), &[v]) {
            return;
        }
        self.capture(v);
        match &mut self.vars[v.index()] {
            SharedVar::Plain { value: slot, .. } => *slot = value,
            SharedVar::Multi { .. } => unreachable!("plain ops on multi var"),
        }
    }

    /// `lock(n, success)` — L, L*. Returns `true` when the lock bit was
    /// clear and is now set by this processor; `false` if it was already
    /// set. Outside L/L*, or as a second shared op in the step, the
    /// attempt is refused and returns `false` without touching the bit.
    pub fn lock(&mut self, n: NameId) -> bool {
        let v = self.target(n);
        if !self.permit(OpKind::Lock, self.isa.allows_lock(), &[v]) {
            return false;
        }
        self.capture(v);
        let acquired = match &mut self.vars[v.index()] {
            SharedVar::Plain { locked, .. } => {
                if *locked {
                    false
                } else {
                    *locked = true;
                    true
                }
            }
            SharedVar::Multi { .. } => unreachable!("plain ops on multi var"),
        };
        if !acquired {
            self.record.contended = true;
        }
        acquired
    }

    /// `unlock(n)` — L, L*. Resets the lock bit unconditionally (the
    /// paper's locks have no owner). Outside L/L*, or as a second shared
    /// op in the step, the unlock is refused (no effect).
    pub fn unlock(&mut self, n: NameId) {
        let v = self.target(n);
        if !self.permit(OpKind::Unlock, self.isa.allows_lock(), &[v]) {
            return;
        }
        self.capture(v);
        match &mut self.vars[v.index()] {
            SharedVar::Plain { locked, .. } => *locked = false,
            SharedVar::Multi { .. } => unreachable!("plain ops on multi var"),
        }
    }

    /// Indivisibly locks a **list** of variables (§6 extended locking):
    /// if every named lock bit is clear, sets them all and returns `true`;
    /// otherwise changes nothing and returns `false`. Outside L*, or as a
    /// second shared op in the step, the attempt is refused and returns
    /// `false`.
    pub fn lock_many(&mut self, names: &[NameId]) -> bool {
        // Target ids go through a machine-owned scratch buffer (the
        // OpRecord recycling pattern): once warm, lock_many allocates
        // nothing per call.
        let mut vids = std::mem::take(self.scratch);
        vids.clear();
        vids.extend(names.iter().map(|&n| self.target(n)));
        let mut all_free = false;
        if self.permit(OpKind::LockMany, self.isa.allows_multi_lock(), &vids) {
            all_free = vids.iter().all(|v| match &self.vars[v.index()] {
                SharedVar::Plain { locked, .. } => !locked,
                SharedVar::Multi { .. } => unreachable!("plain ops on multi var"),
            });
            if all_free {
                for &v in &vids {
                    self.capture(v);
                    if let SharedVar::Plain { locked, .. } = &mut self.vars[v.index()] {
                        *locked = true;
                    }
                }
            } else {
                self.record.contended = true;
            }
        }
        *self.scratch = vids;
        all_free
    }

    /// `peek i from n` — Q. Returns the variable's initial state and the
    /// unordered multiset of posted subvalues, **borrowed** from the
    /// variable's cached canonical view: no clone, no sort. Outside Q, or
    /// as a second shared op in the step, the peek is refused and returns
    /// an empty view (also allocation-free).
    pub fn peek(&mut self, n: NameId) -> PeekView<'_> {
        let v = self.target(n);
        if !self.permit(OpKind::Peek, self.isa.allows_peek_post(), &[v]) {
            return PeekView::empty();
        }
        match &self.vars[v.index()] {
            SharedVar::Multi { .. } => {
                let (base, counts, total) = self.vars[v.index()]
                    .multi_counts()
                    .expect("multi var has counts");
                PeekView {
                    init: PeekInit::Borrowed(base),
                    posted: PeekPosted::Counts { counts, total },
                }
            }
            SharedVar::Plain { .. } => unreachable!("multi ops on plain var"),
        }
    }

    /// `post i to n` — Q. Creates or overwrites this processor's subvalue
    /// in the named variable. Outside Q, or as a second shared op in the
    /// step, the post is refused (no effect).
    pub fn post(&mut self, n: NameId, value: Value) {
        let v = self.target(n);
        if !self.permit(OpKind::Post, self.isa.allows_peek_post(), &[v]) {
            return;
        }
        let p = self.proc;
        let (new, prev) = self.vars[v.index()].post_sub(p, value);
        *self.post_delta = Some(PostDelta {
            var: v,
            owner: p,
            prev,
            new,
        });
        if let Some(buf) = self.undo.as_deref_mut() {
            buf.push(VarUndo::Post {
                var: v,
                owner: p,
                prev,
            });
        }
    }

    /// A fair coin flip — only available on machines built with
    /// [`Machine::with_randomness`]. Models the *free choice* of
    /// randomized algorithms (§8, \\[LR80\\]); does not count as a shared
    /// operation.
    ///
    /// # Panics
    ///
    /// Panics if the machine was not configured with randomness — a
    /// deterministic program must not flip coins.
    pub fn coin(&mut self) -> bool {
        self.rng
            .as_mut()
            .expect("coin() requires Machine::with_randomness")
            .gen()
    }

    /// Uniformly random integer in `0..bound`, under the same rules as
    /// [`OpEnv::coin`].
    ///
    /// # Panics
    ///
    /// Panics without randomness, or if `bound == 0`.
    pub fn random_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "random_below requires a positive bound");
        self.rng
            .as_mut()
            .expect("random_below() requires Machine::with_randomness")
            .gen_range(0..bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FnProgram, IdleProgram};
    use simsym_graph::topology;

    fn machine_with(isa: InstructionSet, prog: Arc<dyn Program>) -> Machine {
        let g = Arc::new(topology::figure1());
        let init = SystemInit::uniform(&g);
        Machine::new(g, isa, prog, &init).expect("valid machine")
    }

    #[test]
    fn init_shape_mismatch_rejected() {
        let g = Arc::new(topology::figure1());
        let bad = SystemInit {
            proc_values: vec![Value::Unit],
            var_values: vec![Value::Unit],
        };
        let err = Machine::new(g, InstructionSet::S, Arc::new(IdleProgram), &bad).unwrap_err();
        assert!(matches!(err, MachineError::InitShapeMismatch { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn read_write_round_trip() {
        let prog = Arc::new(FnProgram::new("w", |local, ops| {
            let n = ops.name("n");
            if local.pc == 0 {
                ops.write(n, Value::from(7));
                local.pc = 1;
            } else {
                let v = ops.read(n);
                local.set("seen", v);
            }
        }));
        let mut m = machine_with(InstructionSet::S, prog);
        let p0 = ProcId::new(0);
        let p1 = ProcId::new(1);
        m.step(p0); // p0 writes 7
        m.step(p1); // p1 writes 7 (pc 0)
        m.step(p0); // p0 reads
        assert_eq!(m.local(p0).get("seen"), Value::from(7));
        assert_eq!(m.steps(), 3);
    }

    #[test]
    fn lock_is_exclusive_and_unlock_releases() {
        let prog = Arc::new(FnProgram::new("locker", |local, ops| {
            let n = ops.name("n");
            match local.pc {
                0 => {
                    let got = ops.lock(n);
                    local.set("got", Value::from(got));
                    local.pc = 1;
                }
                1 => {
                    ops.unlock(n);
                    local.pc = 2;
                }
                _ => {}
            }
        }));
        let mut m = machine_with(InstructionSet::L, prog);
        let p0 = ProcId::new(0);
        let p1 = ProcId::new(1);
        m.step(p0);
        m.step(p1);
        assert_eq!(m.local(p0).get("got"), Value::from(true));
        assert_eq!(m.local(p1).get("got"), Value::from(false));
        m.step(p0); // p0 unlocks
                    // A fresh lock attempt by p1 would now succeed; emulate by checking
                    // the variable state directly.
        let v = m.graph().n_nbr(p0, m.graph().names().get("n").unwrap());
        assert!(matches!(m.var(v), SharedVar::Plain { locked: false, .. }));
    }

    #[test]
    fn post_and_peek_are_anonymous_multisets() {
        let prog = Arc::new(FnProgram::new("poster", |local, ops| {
            let n = ops.name("n");
            if local.pc == 0 {
                ops.post(n, Value::from(5));
                local.pc = 1;
            } else {
                let view = ops.peek(n);
                local.set("count", Value::from(view.posted_len()));
                local.set("initial", view.initial().clone());
            }
        }));
        let mut m = machine_with(InstructionSet::Q, prog);
        let p0 = ProcId::new(0);
        let p1 = ProcId::new(1);
        m.step(p0);
        m.step(p1);
        m.step(p0);
        assert_eq!(m.local(p0).get("count"), Value::from(2));
        assert_eq!(m.local(p0).get("initial"), Value::Unit);
    }

    #[test]
    fn post_overwrites_own_subvalue() {
        let prog = Arc::new(FnProgram::new("overposter", |local, ops| {
            let n = ops.name("n");
            let round = local.get("r").as_int().unwrap_or(0);
            ops.post(n, Value::from(round));
            local.set("r", Value::from(round + 1));
        }));
        let mut m = machine_with(InstructionSet::Q, prog);
        let p0 = ProcId::new(0);
        m.step(p0);
        m.step(p0);
        let v = m.graph().n_nbr(p0, m.graph().names().get("n").unwrap());
        // Only one subvalue (p0's), holding the latest post.
        assert_eq!(m.var(v).peek_all(), vec![Value::from(1)]);
    }

    #[test]
    fn second_shared_op_is_refused_and_recorded() {
        let prog = Arc::new(FnProgram::new("greedy", |_local, ops| {
            let n = ops.name("n");
            ops.write(n, Value::from(7));
            // Refused: the step is already charged. No effect on the var.
            ops.write(n, Value::from(9));
        }));
        let mut m = machine_with(InstructionSet::S, prog);
        let p0 = ProcId::new(0);
        m.step(p0);
        let rec = m.last_record().expect("step recorded");
        assert_eq!(rec.kind, OpKind::Write);
        assert_eq!(
            rec.violations,
            vec![ModelViolation::SecondSharedOp {
                first: OpKind::Write,
                second: OpKind::Write,
            }]
        );
        let v = m.graph().n_nbr(p0, m.graph().names().get("n").unwrap());
        assert!(matches!(m.var(v), SharedVar::Plain { value, .. } if *value == Value::from(7)));
    }

    #[test]
    fn lock_outside_l_is_refused_and_recorded() {
        let prog = Arc::new(FnProgram::new("cheater", |local, ops| {
            let n = ops.name("n");
            let got = ops.lock(n);
            local.set("got", Value::from(got));
        }));
        let mut m = machine_with(InstructionSet::S, prog);
        let p0 = ProcId::new(0);
        m.step(p0);
        assert_eq!(m.local(p0).get("got"), Value::from(false));
        let rec = m.last_record().expect("step recorded");
        // The refused op does not charge the step: the record stays local.
        assert_eq!(rec.kind, OpKind::Local);
        assert!(rec.targets.is_empty());
        assert_eq!(
            rec.violations,
            vec![ModelViolation::OpNotInIsa {
                op: OpKind::Lock,
                isa: InstructionSet::S,
            }]
        );
        let v = m.graph().n_nbr(p0, m.graph().names().get("n").unwrap());
        assert!(matches!(m.var(v), SharedVar::Plain { locked: false, .. }));
    }

    #[test]
    fn read_in_q_is_refused_and_recorded() {
        let prog = Arc::new(FnProgram::new("cheater", |local, ops| {
            let n = ops.name("n");
            let v = ops.read(n);
            local.set("seen", v);
        }));
        let mut m = machine_with(InstructionSet::Q, prog);
        let p0 = ProcId::new(0);
        m.step(p0);
        assert_eq!(m.local(p0).get("seen"), Value::Unit);
        let rec = m.last_record().expect("step recorded");
        assert_eq!(
            rec.violations,
            vec![ModelViolation::OpNotInIsa {
                op: OpKind::Read,
                isa: InstructionSet::Q,
            }]
        );
    }

    #[test]
    fn op_record_tracks_targets() {
        let prog = Arc::new(FnProgram::new("locker", |local, ops| {
            let n = ops.name("n");
            match local.pc {
                0 => {
                    let _ = ops.lock(n);
                    local.pc = 1;
                }
                _ => {
                    local.pc += 1;
                }
            }
        }));
        let mut m = machine_with(InstructionSet::L, prog);
        let p0 = ProcId::new(0);
        m.step(p0);
        let v = m.graph().n_nbr(p0, m.graph().names().get("n").unwrap());
        let rec = m.last_record().expect("step recorded").clone();
        assert_eq!(rec.kind, OpKind::Lock);
        assert_eq!(rec.targets, vec![v]);
        assert_eq!(
            rec.step_op(),
            StepOp {
                kind: OpKind::Lock,
                contended: false
            }
        );
        m.step(p0);
        let rec = m.last_record().expect("step recorded");
        assert_eq!(rec.kind, OpKind::Local);
        assert!(rec.targets.is_empty());
    }

    #[test]
    #[should_panic(expected = "coin() requires")]
    fn coin_without_randomness_panics() {
        let prog = Arc::new(FnProgram::new("flipper", |_local, ops| {
            let _ = ops.coin();
        }));
        let mut m = machine_with(InstructionSet::S, prog);
        m.step(ProcId::new(0));
    }

    #[test]
    fn coin_with_randomness_is_deterministic_per_seed() {
        let prog = Arc::new(FnProgram::new("flipper", |local, ops| {
            let b = ops.coin();
            local.set("b", Value::from(b));
        }));
        let run = |seed| {
            let mut m = machine_with(InstructionSet::S, prog.clone()).with_randomness(seed);
            m.step(ProcId::new(0));
            m.local(ProcId::new(0)).get("b")
        };
        assert_eq!(run(1), run(1));
        // Different seeds eventually differ (check a few).
        let vals: Vec<Value> = (0..8).map(run).collect();
        assert!(
            vals.iter().any(|v| v != &vals[0]),
            "coin should vary by seed"
        );
    }

    #[test]
    fn lock_many_is_all_or_nothing() {
        // Ring of 2 in L*: two names, two variables.
        let g = Arc::new(topology::uniform_ring(2));
        let prog = Arc::new(FnProgram::new("ml", |local, ops| {
            if local.pc == 0 {
                let names = [ops.name("left"), ops.name("right")];
                let got = ops.lock_many(&names);
                local.set("got", Value::from(got));
                local.pc = 1;
            }
        }));
        let init = SystemInit::uniform(&g);
        let mut m = Machine::new(g, InstructionSet::LStar, prog, &init).unwrap();
        let p0 = ProcId::new(0);
        let p1 = ProcId::new(1);
        m.step(p0);
        assert_eq!(m.local(p0).get("got"), Value::from(true));
        m.step(p1);
        // Both variables were taken by p0, so p1 gets neither.
        assert_eq!(m.local(p1).get("got"), Value::from(false));
        for v in m.graph().variables() {
            assert!(matches!(m.var(v), SharedVar::Plain { locked: true, .. }));
        }
    }

    #[test]
    fn selected_tracking() {
        let prog = Arc::new(FnProgram::new("selfish", |local, _ops| {
            local.selected = true;
        }));
        let mut m = machine_with(InstructionSet::S, prog);
        assert_eq!(m.selected_count(), 0);
        m.step(ProcId::new(0));
        assert_eq!(m.selected(), vec![ProcId::new(0)]);
        assert_eq!(m.selected_count(), 1);
    }

    #[test]
    fn fingerprint_changes_with_state() {
        let prog = Arc::new(FnProgram::new("w", |local, ops| {
            let n = ops.name("n");
            ops.write(n, Value::from(9));
            local.pc += 1;
        }));
        let mut m = machine_with(InstructionSet::S, prog);
        let f0 = m.fingerprint();
        m.step(ProcId::new(0));
        assert_ne!(f0, m.fingerprint());
    }

    #[test]
    fn incremental_node_digests_match_scratch_ones() {
        // Q posts patch digests by owner term, S writes rehash the
        // variable; either way the incremental digests must equal the
        // from-scratch ones, and a machine without the incremental
        // fingerprint must report the same digests.
        for isa in [InstructionSet::Q, InstructionSet::S] {
            let prog = Arc::new(FnProgram::new("post-or-write", move |local, ops| {
                let n = ops.name("n");
                let round = Value::from(i64::from(local.pc % 3));
                if isa == InstructionSet::Q {
                    ops.post(n, round.clone());
                } else {
                    ops.write(n, round.clone());
                }
                local.set("round", round);
                local.pc += 1;
            }));
            let mut inc = machine_with(isa, prog.clone());
            inc.enable_incremental_fingerprint();
            let mut plain = machine_with(isa, prog.clone());
            let scratch = |m: &Machine| -> Vec<Digest> {
                (0..m.locals.len() + m.vars.len())
                    .map(|i| m.node_digest(i))
                    .collect()
            };
            let mut undos = Vec::new();
            for p in [0, 1, 1, 0, 1, 0, 0] {
                let p = ProcId::new(p);
                undos.push(inc.step_undoable(p));
                plain.step(p);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                assert_eq!(inc.node_digests(&mut a), scratch(&inc).as_slice());
                assert_eq!(inc.node_digests(&mut a), plain.node_digests(&mut b));
                assert_eq!(
                    inc.incremental_fingerprint(),
                    Some(plain.wide_fingerprint())
                );
            }
            let fresh = machine_with(isa, prog.clone());
            while let Some(u) = undos.pop() {
                inc.undo(u);
            }
            let mut a = Vec::new();
            assert_eq!(inc.node_digests(&mut a), scratch(&fresh).as_slice());
            assert_eq!(
                inc.incremental_fingerprint(),
                Some(fresh.wide_fingerprint())
            );
        }
    }

    #[test]
    fn kept_register_xors_match_scratch_ones_after_every_change() {
        // Each step rewrites `same` with an equal value in fresh storage,
        // sets `flag` to unit or unsets it, and bumps `count`. An undoable
        // step patches the kept register XOR from what changed; a plain
        // step and a crash reset recompute it; an undo restores it.
        let prog = Arc::new(FnProgram::new("churn", |local, ops| {
            let n = ops.name("n");
            ops.post(n, Value::from(i64::from(local.pc % 2)));
            local.set(
                "same",
                Value::tuple([Value::from(1), Value::set([Value::from(2)])]),
            );
            if local.pc % 3 == 1 {
                local.unset("flag");
            } else {
                local.set("flag", Value::Unit);
            }
            local.set("count", Value::from(i64::from(local.pc)));
            local.pc += 1;
        }));
        let mut m = machine_with(InstructionSet::Q, prog);
        m.enable_incremental_fingerprint();
        let check = |m: &Machine| {
            let fp = m.inc_fp.as_ref().expect("enabled");
            for (p, local) in m.locals.iter().enumerate() {
                assert_eq!(fp.regs[p], local.register_xor(), "p{p}");
            }
            assert_eq!(m.incremental_fingerprint(), Some(m.wide_fingerprint()));
        };
        let mut undos = Vec::new();
        for p in [0, 1, 0, 0, 1, 1, 0, 0] {
            undos.push(m.step_undoable(ProcId::new(p)));
            check(&m);
        }
        while let Some(u) = undos.pop() {
            m.undo(u);
            check(&m);
        }
        for p in [1, 1, 0] {
            m.step(ProcId::new(p));
            check(&m);
        }
        let mut reset = LocalState::new();
        reset.set("flag", Value::from(true));
        m.restore_local(ProcId::new(1), reset);
        check(&m);
        for p in [1, 0, 1] {
            let _ = m.step_undoable(ProcId::new(p));
            check(&m);
        }
    }

    #[test]
    fn clone_is_independent() {
        let prog = Arc::new(FnProgram::new("w", |local, ops| {
            let n = ops.name("n");
            ops.write(n, Value::from(9));
            local.pc += 1;
        }));
        let m = machine_with(InstructionSet::S, prog);
        let mut m2 = m.clone();
        m2.step(ProcId::new(0));
        assert_eq!(m.steps(), 0);
        assert_ne!(m.fingerprint(), m2.fingerprint());
    }

    #[test]
    fn debug_shows_program() {
        let m = machine_with(InstructionSet::S, Arc::new(IdleProgram));
        let s = format!("{m:?}");
        assert!(s.contains("idle"));
        assert!(s.contains("Machine"));
    }
}
