//! Exhaustive exploration of the schedule space.
//!
//! For small systems, every reachable global state under *general*
//! schedules can be enumerated. This turns the paper's ∀-schedule
//! impossibility arguments into machine-checkable facts:
//!
//! * **Theorem 1** — for any candidate selection program in S with general
//!   schedules, the explorer either finds a reachable state with two
//!   selected processors, or finds a *starvation branch*: a crashed-
//!   processor continuation that selects a second leader after the first
//!   selection, which [`find_double_selection`] then assembles into an
//!   explicit double-selection schedule exactly as the proof does.
//! * Candidate algorithms can be exhaustively certified over bounded
//!   horizons (`explore` reports every distinct selected-set ever reached).
//!
//! The traversal is one generic core, [`Explorer`], parameterized three
//! ways:
//!
//! * **state keys** — either 128-bit fingerprints or full
//!   [`Machine::canonical_state`] snapshots (the reference oracle);
//! * **branching** — undo-based ([`Machine::step_undoable`] +
//!   [`Machine::undo`], no clone per branch) or clone-per-branch (the
//!   reference);
//! * **reduction** — a [`Reducer`] supplies the canonicalization
//!   (similarity-quotient collapses `Aut(N, state₀)`-orbits) and, for
//!   partial-order reduction, ample subsets of the enabled steps.
//!
//! [`explore`] is the historical entry point (identity reduction, parallel
//! first-level fanout); [`explore_with`] runs any reducer sequentially;
//! [`explore_reference`] is the clone-per-branch oracle the others are
//! property-tested against.

use crate::reduce::{Identity, ProbedStep, Reducer, VisitedSet};
use crate::{LocalState, Machine, SharedVar};
use simsym_graph::ProcId;
use std::collections::{BTreeSet, HashSet};
use std::hash::Hash;
use std::marker::PhantomData;

/// Limits for [`explore`].
#[derive(Clone, Copy, Debug)]
pub struct ExploreConfig {
    /// Maximum schedule depth (steps along one branch).
    pub max_depth: usize,
    /// Maximum number of distinct states to visit before truncating.
    pub max_states: usize,
    /// Spread the first level of branching across this many threads
    /// (1 = sequential).
    pub threads: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_depth: 32,
            max_states: 200_000,
            threads: 1,
        }
    }
}

/// The result of an exhaustive exploration.
#[derive(Clone, Debug)]
pub struct ExploreResult {
    /// Every distinct set of selected processors observed in any reachable
    /// state (sorted vectors). Under a symmetry-quotient reduction the set
    /// is closed over the automorphism group, so it equals the unreduced
    /// outcome set.
    pub outcomes: BTreeSet<Vec<ProcId>>,
    /// Number of distinct (canonical) states visited.
    pub states_visited: usize,
    /// Number of state arrivals, *including* ones deduplicated against the
    /// visited store. `states_seen / states_visited` measures how much
    /// re-convergence the dedup absorbed.
    pub states_seen: usize,
    /// Whether limits truncated the search (results are then a lower
    /// bound, not a certificate).
    pub truncated: bool,
    /// A schedule reaching a state with more than one selected processor,
    /// if one was found.
    pub uniqueness_violation: Option<Vec<ProcId>>,
    /// Machine-model violations observed on any explored step
    /// ([`crate::ModelViolation::kind_name`] labels).
    pub violation_kinds: BTreeSet<&'static str>,
    /// Peak bytes held by the visited store (canonical keys only).
    pub peak_visited_bytes: usize,
    /// `|Aut(N, state₀)|` quotiented by the reducer (1 when unreduced), so
    /// reports can phrase the certificate as "up to depth d modulo
    /// Aut(N)".
    pub group_order: usize,
    /// Whether the reducer's group enumeration hit
    /// [`crate::reduce::GROUP_CAP`] and fell back to the identity-only
    /// group — `group_order == 1` then means "unenumerable", not
    /// "asymmetric".
    pub group_capped: bool,
}

impl Default for ExploreResult {
    fn default() -> Self {
        ExploreResult {
            outcomes: BTreeSet::new(),
            states_visited: 0,
            states_seen: 0,
            truncated: false,
            uniqueness_violation: None,
            violation_kinds: BTreeSet::new(),
            peak_visited_bytes: 0,
            group_order: 1,
            group_capped: false,
        }
    }
}

impl ExploreResult {
    /// Whether some reachable state has two or more selected processors.
    pub fn has_double_selection(&self) -> bool {
        self.uniqueness_violation.is_some()
    }

    fn merge(&mut self, other: ExploreResult) {
        self.outcomes.extend(other.outcomes);
        self.states_visited += other.states_visited;
        self.states_seen += other.states_seen;
        self.truncated |= other.truncated;
        if self.uniqueness_violation.is_none() {
            self.uniqueness_violation = other.uniqueness_violation;
        }
        self.violation_kinds.extend(other.violation_kinds);
        self.peak_visited_bytes += other.peak_visited_bytes;
        self.group_order = self.group_order.max(other.group_order);
        self.group_capped |= other.group_capped;
    }
}

type CanonState = (Vec<LocalState>, Vec<SharedVar>);

/// A dedup key for visited states.
trait StateKey: Eq + Hash + Clone {
    fn of<R: Reducer + ?Sized>(m: &Machine, reducer: &mut R) -> Self;
}

impl StateKey for (u64, u64) {
    fn of<R: Reducer + ?Sized>(m: &Machine, reducer: &mut R) -> Self {
        reducer.canonical_fingerprint(m)
    }
}

impl StateKey for CanonState {
    fn of<R: Reducer + ?Sized>(m: &Machine, _reducer: &mut R) -> Self {
        m.canonical_state()
    }
}

/// How to take (and take back) one branch of the schedule tree.
trait Stepper {
    fn branch<T>(m: &mut Machine, p: ProcId, f: impl FnOnce(&mut Machine) -> T) -> T;
}

/// Apply one step with [`Machine::step_undoable`], run the continuation,
/// reverse the delta — no clone per branch.
struct UndoStepper;

impl Stepper for UndoStepper {
    fn branch<T>(m: &mut Machine, p: ProcId, f: impl FnOnce(&mut Machine) -> T) -> T {
        let undo = m.step_undoable(p);
        let out = f(m);
        m.undo(undo);
        out
    }
}

/// Clone the whole machine per branch — the reference bookkeeping.
struct CloneStepper;

impl Stepper for CloneStepper {
    fn branch<T>(m: &mut Machine, p: ProcId, f: impl FnOnce(&mut Machine) -> T) -> T {
        let mut next = m.clone();
        next.step(p);
        f(&mut next)
    }
}

/// The one DFS all exploration entry points share. `K` picks the dedup
/// key, `S` the branching discipline, `R` the reduction.
struct Explorer<'a, K: StateKey, S: Stepper, R: Reducer + ?Sized> {
    procs: &'a [ProcId],
    cfg: ExploreConfig,
    reducer: &'a mut R,
    seen: VisitedSet<K>,
    /// Canonical keys on the current DFS path — the ingredient of the POR
    /// cycle proviso.
    on_stack: HashSet<K>,
    schedule: Vec<ProcId>,
    result: ExploreResult,
    _stepper: PhantomData<S>,
}

fn record_outcome<R: Reducer + ?Sized>(
    machine: &Machine,
    reducer: &R,
    result: &mut ExploreResult,
    schedule: &[ProcId],
) {
    let selected = machine.selected();
    if selected.len() > 1 && result.uniqueness_violation.is_none() {
        result.uniqueness_violation = Some(schedule.to_vec());
    }
    // The set only ever holds whole orbits of the reducer's group, so a
    // selected set already present brings its orbit with it.
    if !result.outcomes.contains(&selected) {
        reducer.expand_outcome(&selected, &mut result.outcomes);
    }
}

impl<'a, K: StateKey, S: Stepper, R: Reducer + ?Sized> Explorer<'a, K, S, R> {
    fn new(procs: &'a [ProcId], cfg: ExploreConfig, reducer: &'a mut R) -> Self {
        Explorer {
            procs,
            cfg,
            reducer,
            seen: VisitedSet::new(),
            on_stack: HashSet::new(),
            schedule: Vec::new(),
            result: ExploreResult::default(),
            _stepper: PhantomData,
        }
    }

    fn dfs(&mut self, m: &mut Machine, key: K, depth: usize) {
        self.result.states_seen += 1;
        if !self.seen.insert(key.clone()) {
            return;
        }
        self.result.states_visited += 1;
        if self.result.states_visited > self.cfg.max_states {
            self.result.truncated = true;
            return;
        }
        record_outcome(m, &*self.reducer, &mut self.result, &self.schedule);
        if depth >= self.cfg.max_depth {
            self.result.truncated = true;
            return;
        }
        self.on_stack.insert(key.clone());
        if self.reducer.uses_por() {
            self.expand_por(m, &key, depth);
        } else {
            for i in 0..self.procs.len() {
                self.branch_into(m, self.procs[i], &key, depth);
            }
        }
        self.on_stack.remove(&key);
    }

    /// Takes the branch stepping `p`, recursing unless the step is a
    /// (canonical) no-op self-loop — halted processors are skipped to keep
    /// the frontier small; the state dedup would catch them anyway.
    fn branch_into(&mut self, m: &mut Machine, p: ProcId, parent: &K, depth: usize) {
        let this = &mut *self;
        S::branch(m, p, |child| {
            this.note_violations(child);
            let key = K::of(child, this.reducer);
            if key == *parent {
                return;
            }
            this.schedule.push(p);
            this.dfs(child, key, depth + 1);
            this.schedule.pop();
        });
    }

    /// Partial-order-reduced expansion: probe every processor's next step
    /// once, ask the reducer for an ample subset, expand only that (or
    /// every enabled step if no valid ample set exists).
    fn expand_por(&mut self, m: &mut Machine, key: &K, depth: usize) {
        let mut probes: Vec<ProbedStep> = Vec::with_capacity(self.procs.len());
        for &p in self.procs {
            let was_selected = m.local(p).selected;
            let this = &mut *self;
            let probe = S::branch(m, p, |child| {
                this.note_violations(child);
                let child_key = K::of(child, this.reducer);
                let record = child.last_record();
                ProbedStep {
                    proc: p,
                    changed: child_key != *key,
                    visible: child.local(p).selected != was_selected
                        || record.is_some_and(|r| !r.violations.is_empty()),
                    targets: record.map(|r| r.targets.clone()).unwrap_or_default(),
                    succ_on_stack: this.on_stack.contains(&child_key),
                }
            });
            probes.push(probe);
        }
        let chosen: Vec<ProcId> = match self.reducer.ample(&probes) {
            Some(ample) => ample.iter().map(|&i| probes[i].proc).collect(),
            None => probes
                .iter()
                .filter(|pr| pr.changed)
                .map(|pr| pr.proc)
                .collect(),
        };
        for p in chosen {
            self.branch_into(m, p, key, depth);
        }
    }

    fn note_violations(&mut self, child: &Machine) {
        if let Some(record) = child.last_record() {
            for v in &record.violations {
                self.result.violation_kinds.insert(v.kind_name());
            }
        }
    }

    fn finish(self) -> ExploreResult {
        let mut result = self.result;
        result.peak_visited_bytes = self.seen.peak_bytes();
        result.group_order = self.reducer.group_order();
        result.group_capped = self.reducer.group_capped();
        result
    }
}

/// Explores all schedules of `machine` up to the configured depth,
/// deduplicating global states.
///
/// The DFS is **undo-based**: instead of cloning the whole machine per
/// branch, it applies one step with [`Machine::step_undoable`], recurses,
/// and reverses the delta with [`Machine::undo`]. States are deduplicated
/// by the incrementally maintained 128-bit fingerprint. Whole-machine
/// clones happen only at fanout frontiers (one per worker when `threads >
/// 1`). [`explore_reference`] keeps the original clone-per-branch
/// traversal; the two are property-tested equivalent.
///
/// # Panics
///
/// Panics if the machine was built with randomness — exploration requires
/// deterministic steps (a randomized program has a *tree* per schedule).
pub fn explore(machine: &Machine, cfg: ExploreConfig) -> ExploreResult {
    let procs: Vec<ProcId> = machine.graph().processors().collect();
    if cfg.threads <= 1 || procs.len() <= 1 {
        return explore_with(machine, cfg, &mut Identity);
    }
    // Parallel: split on the first step — the fanout frontier, and the one
    // place a whole-machine clone is still taken. Each worker explores the
    // subtree rooted at one first move; std's scoped threads let us borrow
    // the machine without Arc plumbing.
    let mut result = ExploreResult {
        states_visited: 1, // the root state itself
        states_seen: 1,
        ..Default::default()
    };
    record_outcome(machine, &Identity, &mut result, &[]);
    let sub: Vec<ExploreResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = procs
            .iter()
            .map(|&p| {
                let procs = &procs;
                scope.spawn(move || {
                    let mut m = machine.clone();
                    m.enable_incremental_fingerprint();
                    m.step(p);
                    let mut reducer = Identity;
                    let mut ex: Explorer<'_, (u64, u64), UndoStepper, Identity> =
                        Explorer::new(procs, cfg, &mut reducer);
                    ex.note_violations(&m);
                    ex.schedule.push(p);
                    let key = <(u64, u64)>::of(&m, ex.reducer);
                    ex.dfs(&mut m, key, 1);
                    ex.finish()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });
    for s in sub {
        result.merge(s);
    }
    result
}

/// Explores all schedules of `machine` under a pluggable [`Reducer`] —
/// identity, similarity-quotient, partial-order, or their composition.
/// Sequential; the undo-based traversal and visited store are shared with
/// [`explore`].
///
/// # Panics
///
/// Panics if the machine was built with randomness (see [`explore`]).
pub fn explore_with<R: Reducer + ?Sized>(
    machine: &Machine,
    cfg: ExploreConfig,
    reducer: &mut R,
) -> ExploreResult {
    let procs: Vec<ProcId> = machine.graph().processors().collect();
    let mut m = machine.clone();
    m.enable_incremental_fingerprint();
    let mut ex: Explorer<'_, (u64, u64), UndoStepper, R> = Explorer::new(&procs, cfg, reducer);
    let key = <(u64, u64)>::of(&m, ex.reducer);
    ex.dfs(&mut m, key, 0);
    ex.finish()
}

/// The original clone-per-branch exploration, kept as the reference
/// implementation the undo-based [`explore`] is tested against. Visits the
/// same states in the same order; only the bookkeeping differs (full
/// canonical-state snapshots as dedup keys, a clone per branch).
pub fn explore_reference(machine: &Machine, cfg: ExploreConfig) -> ExploreResult {
    let procs: Vec<ProcId> = machine.graph().processors().collect();
    let mut reducer = Identity;
    let mut ex: Explorer<'_, CanonState, CloneStepper, Identity> =
        Explorer::new(&procs, cfg, &mut reducer);
    let mut m = machine.clone();
    let key = CanonState::of(&m, ex.reducer);
    ex.dfs(&mut m, key, 0);
    ex.finish()
}

/// Whether no processor can change the global state — a deadlock (or
/// termination) detector: stepping any processor leaves the canonical
/// state untouched.
///
/// Implemented with one step-and-undo per processor instead of one
/// whole-machine clone per processor.
///
/// Used to certify the DP deadlock (all philosophers holding their right
/// fork, spinning on the left) rather than inferring it from a silent
/// meal counter.
pub fn is_quiescent(machine: &Machine) -> bool {
    if machine.has_randomness() {
        // Undo cannot rewind the RNG; probe randomized machines the old
        // way, with one clone per processor.
        let base = machine.canonical_state();
        return machine.graph().processors().all(|p| {
            let mut next = machine.clone();
            next.step(p);
            next.canonical_state() == base
        });
    }
    let mut m = machine.clone();
    m.enable_incremental_fingerprint();
    let base = m.incremental_fingerprint();
    machine.graph().processors().all(|p| {
        let undo = m.step_undoable(p);
        let same = m.incremental_fingerprint() == base;
        m.undo(undo);
        same
    })
}

/// A certificate that a candidate program violates Uniqueness under general
/// schedules: an explicit schedule selecting two processors, assembled the
/// way the proof of Theorem 1 assembles `ε p ρ`.
#[derive(Clone, Debug)]
pub struct DoubleSelection {
    /// The full schedule that ends with ≥ 2 processors selected.
    pub schedule: Vec<ProcId>,
    /// The two processors that end up selected.
    pub selected: Vec<ProcId>,
}

/// Builds the Theorem-1 adversary schedule against a candidate selection
/// program in **S** under general schedules.
///
/// The construction follows the proof: run a fair schedule until some `p`
/// is about to be selected (prefix `ε`, selecting step `p`); since general
/// schedules permit `p` to take no further step, continue `ε` *without*
/// `p` until some `q ≠ p` is selected (suffix `ρ`); then `ε · p · ρ`
/// selects both. Returns `None` if the candidate never selects anyone
/// within the step budget under either schedule — which itself means the
/// candidate fails (it must select under *every* schedule).
///
/// One sampled fair schedule need not yield a usable `ε` (its prefix may
/// already have let a second processor get too far), so the construction
/// retries over a fixed list of seed pairs; the whole search stays
/// deterministic.
pub fn find_double_selection(
    fresh: impl Fn() -> Machine,
    max_steps: u64,
) -> Option<DoubleSelection> {
    const SEED_PAIRS: [(u64, u64); 8] = [
        (0xC0FFEE, 0xBEEF),
        (1, 2),
        (3, 5),
        (8, 13),
        (21, 34),
        (55, 89),
        (144, 233),
        (377, 610),
    ];
    SEED_PAIRS.iter().find_map(|&(eps_seed, rho_seed)| {
        try_double_selection(&fresh, max_steps, eps_seed, rho_seed)
    })
}

fn try_double_selection(
    fresh: &impl Fn() -> Machine,
    max_steps: u64,
    eps_seed: u64,
    rho_seed: u64,
) -> Option<DoubleSelection> {
    use crate::{run_until, Excluding, RandomFair};

    // Phase 1: fair run until a first selection; capture ε and p.
    let mut m = fresh();
    let mut sched = RandomFair::seeded(eps_seed);
    let report = run_until(&mut m, &mut sched, max_steps, &mut [], |mach| {
        mach.selected_count() >= 1
    });
    if report.selected.is_empty() {
        return None;
    }
    let p = report.selected[0];
    // ε is everything up to (excluding) p's selecting step. The selecting
    // step is the last step in the schedule taken by p (after which
    // selected_count >= 1 triggered the stop).
    let epsilon = &report.schedule[..report.schedule.len()];
    // Find the exact position of the selecting step: replay and watch.
    let mut m = fresh();
    let mut select_pos = None;
    for (i, &s) in epsilon.iter().enumerate() {
        m.step(s);
        if m.local(p).selected {
            select_pos = Some(i);
            break;
        }
    }
    let select_pos = select_pos?;
    let epsilon: Vec<ProcId> = epsilon[..select_pos].to_vec();

    // Phase 2: from ε, continue without p until some q is selected (ρ).
    let mut m = fresh();
    for &s in &epsilon {
        m.step(s);
    }
    if m.graph().processor_count() < 2 {
        return None;
    }
    let mut sched = Excluding::new(RandomFair::seeded(rho_seed), vec![p]);
    let report2 = run_until(&mut m, &mut sched, max_steps, &mut [], |mach| {
        mach.selected().iter().any(|&q| q != p)
    });
    if !report2.selected.iter().any(|&q| q != p) {
        return None;
    }
    let rho = report2.schedule;

    // Phase 3: ε · p · ρ — both p and q should be selected, *if* the
    // candidate's selecting step does not influence other processors
    // (true in S where the selecting instruction is local or a read).
    let mut m = fresh();
    let mut schedule = epsilon.clone();
    for &s in &epsilon {
        m.step(s);
    }
    m.step(p);
    schedule.push(p);
    for &s in &rho {
        m.step(s);
        schedule.push(s);
    }
    let selected = m.selected();
    (selected.len() >= 2).then_some(DoubleSelection { schedule, selected })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::{Por, SimilarityQuotient};
    use crate::{FnProgram, InstructionSet, SystemInit, Value};
    use simsym_graph::topology;
    use std::sync::Arc;

    /// Every processor's whole row: the footprint of a program that may
    /// use any port.
    fn all_ports(g: &simsym_graph::SystemGraph) -> Vec<Vec<simsym_graph::VarId>> {
        g.processors()
            .map(|p| crate::PortSet::All.resolve(g, p))
            .collect()
    }

    fn figure1_machine(prog: Arc<dyn crate::Program>) -> Machine {
        let g = Arc::new(topology::figure1());
        let init = SystemInit::uniform(&g);
        Machine::new(g, InstructionSet::S, prog, &init).unwrap()
    }

    /// A plausible-looking but doomed selection attempt in S: grab the
    /// variable by writing 1 if it reads 0, then select.
    fn naive_grab() -> Arc<dyn crate::Program> {
        Arc::new(FnProgram::new("naive-grab", |local, ops| {
            let n = ops.name("n");
            match local.pc {
                0 => {
                    let v = ops.read(n);
                    local.set("saw", v);
                    local.pc = 1;
                }
                1 => {
                    if local.get("saw") == Value::Unit {
                        ops.write(n, Value::from(1));
                        local.pc = 2;
                    } else {
                        local.pc = 3; // lost
                    }
                }
                2 => {
                    // Selecting step: local-only, as the model requires.
                    local.selected = true;
                    local.pc = 3;
                }
                _ => {}
            }
        }))
    }

    #[test]
    fn explore_finds_double_selection_of_naive_grab() {
        let m = figure1_machine(naive_grab());
        let res = explore(&m, ExploreConfig::default());
        assert!(res.has_double_selection(), "outcomes: {:?}", res.outcomes);
        assert!(!res.truncated);
        // Replaying the witness schedule reproduces the violation.
        let sched = res.uniqueness_violation.unwrap();
        let mut m = figure1_machine(naive_grab());
        for p in sched {
            m.step(p);
        }
        assert!(m.selected_count() >= 2);
    }

    #[test]
    fn explore_counts_states_and_outcomes() {
        let prog: Arc<dyn crate::Program> = Arc::new(FnProgram::new("two-phase", |local, _| {
            if local.pc < 2 {
                local.pc += 1;
            }
        }));
        let m = figure1_machine(prog);
        let res = explore(&m, ExploreConfig::default());
        // Each processor independently advances pc 0→1→2: 9 states.
        assert_eq!(res.states_visited, 9);
        assert_eq!(res.outcomes.len(), 1); // nobody ever selects
        assert!(!res.has_double_selection());
        assert!(res.states_seen >= res.states_visited);
        assert!(res.peak_visited_bytes > 0);
        assert_eq!(res.group_order, 1);
        assert!(res.violation_kinds.is_empty());
    }

    #[test]
    fn parallel_explore_agrees_with_sequential() {
        let m = figure1_machine(naive_grab());
        let seq = explore(
            &m,
            ExploreConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let par = explore(
            &m,
            ExploreConfig {
                threads: 2,
                ..Default::default()
            },
        );
        assert_eq!(seq.outcomes, par.outcomes);
        assert_eq!(seq.has_double_selection(), par.has_double_selection());
    }

    #[test]
    fn explore_truncates_at_depth() {
        let prog: Arc<dyn crate::Program> = Arc::new(FnProgram::new("counter", |local, _| {
            local.pc = local.pc.wrapping_add(1);
        }));
        let m = figure1_machine(prog);
        let res = explore(
            &m,
            ExploreConfig {
                max_depth: 3,
                ..Default::default()
            },
        );
        assert!(res.truncated);
    }

    #[test]
    fn reference_explorer_agrees_with_undo_explorer() {
        let m = figure1_machine(naive_grab());
        let undo = explore(&m, ExploreConfig::default());
        let reference = explore_reference(&m, ExploreConfig::default());
        assert_eq!(undo.outcomes, reference.outcomes);
        assert_eq!(undo.states_visited, reference.states_visited);
        assert_eq!(
            undo.has_double_selection(),
            reference.has_double_selection()
        );
    }

    fn ring_machine(n: usize) -> Machine {
        let g = Arc::new(topology::uniform_ring(n));
        let prog = Arc::new(FnProgram::new("wave", |local, ops| {
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
    fn quotient_exploration_matches_identity_outcomes_and_shrinks_states() {
        let m = ring_machine(5);
        let base = explore(&m, ExploreConfig::default());
        let mut q = SimilarityQuotient::new(m.graph(), &SystemInit::uniform(m.graph()));
        let reduced = explore_with(&m, ExploreConfig::default(), &mut q);
        assert_eq!(reduced.outcomes, base.outcomes);
        assert_eq!(reduced.group_order, 5);
        assert!(
            reduced.states_visited < base.states_visited,
            "quotient {} vs identity {}",
            reduced.states_visited,
            base.states_visited
        );
        assert!(!reduced.truncated);
    }

    #[test]
    fn por_exploration_matches_identity_outcomes() {
        let m = ring_machine(4);
        let base = explore(&m, ExploreConfig::default());
        let mut por = Por::new(m.graph(), &all_ports(m.graph()), Identity);
        let reduced = explore_with(&m, ExploreConfig::default(), &mut por);
        assert_eq!(reduced.outcomes, base.outcomes);
        assert!(
            reduced.states_visited <= base.states_visited,
            "por must never expand the state count"
        );
        assert!(!reduced.truncated);
    }

    #[test]
    fn boxed_reducer_composes_quotient_and_por() {
        let m = ring_machine(4);
        let base = explore(&m, ExploreConfig::default());
        let inner = SimilarityQuotient::new(m.graph(), &SystemInit::uniform(m.graph()));
        let mut both: Box<dyn Reducer> =
            Box::new(Por::new(m.graph(), &all_ports(m.graph()), inner));
        let reduced = explore_with(&m, ExploreConfig::default(), &mut both);
        assert_eq!(reduced.outcomes, base.outcomes);
        assert_eq!(reduced.group_order, 4);
        assert!(reduced.states_visited <= base.states_visited);
    }

    #[test]
    fn explore_surfaces_model_violation_kinds() {
        // A program that performs two shared ops in one step: the machine
        // refuses the second and records a violation the explorer surfaces.
        let prog: Arc<dyn crate::Program> = Arc::new(FnProgram::new("greedy", |local, ops| {
            if local.pc == 0 {
                let n = ops.name("n");
                ops.write(n, Value::from(1));
                ops.write(n, Value::from(2));
                local.pc = 1;
            }
        }));
        let m = figure1_machine(prog);
        let res = explore(&m, ExploreConfig::default());
        assert!(res.violation_kinds.contains("second-shared-op"));
    }

    #[test]
    fn theorem1_adversary_builds_explicit_schedule() {
        let witness = find_double_selection(|| figure1_machine(naive_grab()), 1000)
            .expect("naive-grab must be defeated");
        assert!(witness.selected.len() >= 2);
        // Replay: the schedule is a concrete certificate.
        let mut m = figure1_machine(naive_grab());
        for &p in &witness.schedule {
            m.step(p);
        }
        assert_eq!(m.selected().len(), witness.selected.len());
    }
}

#[cfg(test)]
mod quiescence_tests {
    use super::*;
    use crate::{FnProgram, IdleProgram, InstructionSet, SystemInit};
    use simsym_graph::topology;
    use std::sync::Arc;

    #[test]
    fn idle_machine_is_quiescent() {
        let g = Arc::new(topology::figure1());
        let init = SystemInit::uniform(&g);
        let m = Machine::new(g, InstructionSet::S, Arc::new(IdleProgram), &init).unwrap();
        assert!(is_quiescent(&m));
    }

    #[test]
    fn active_machine_is_not_quiescent() {
        let g = Arc::new(topology::figure1());
        let prog = Arc::new(FnProgram::new("count", |local, _| {
            local.pc = local.pc.wrapping_add(1);
        }));
        let init = SystemInit::uniform(&g);
        let m = Machine::new(g, InstructionSet::S, prog, &init).unwrap();
        assert!(!is_quiescent(&m));
    }

    #[test]
    fn machine_becomes_quiescent_after_halting() {
        let g = Arc::new(topology::figure1());
        let prog = Arc::new(FnProgram::new("three-steps", |local, _| {
            if local.pc < 3 {
                local.pc += 1;
            }
        }));
        let init = SystemInit::uniform(&g);
        let mut m = Machine::new(g, InstructionSet::S, prog, &init).unwrap();
        assert!(!is_quiescent(&m));
        for _ in 0..3 {
            m.step(simsym_graph::ProcId::new(0));
            m.step(simsym_graph::ProcId::new(1));
        }
        assert!(is_quiescent(&m));
    }
}
