//! An executable asynchronous message-passing machine.
//!
//! Channels are FIFO queues; an atomic step lets a processor do local work
//! plus at most one `send` or `receive` — the message-passing counterpart
//! of the one-instruction steps of the shared-variable machine. All
//! processors run the same [`MpProgram`]; asymmetry can enter only through
//! initial values, exactly as in the shared-variable model.

use crate::{ChannelFaults, MpNetwork};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simsym_graph::ProcId;
use simsym_vm::faults::{FaultEvent, FaultView, FaultableSystem};
use simsym_vm::{LocalState, OpKind, StepOp, System, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A program for message-passing processors.
pub trait MpProgram: Send + Sync {
    /// Builds the initial local state from the processor's `state₀`.
    fn boot(&self, initial: &Value) -> LocalState {
        LocalState::with_initial(initial.clone())
    }

    /// One atomic step: local computation plus at most one send/receive.
    fn step(&self, local: &mut LocalState, ops: &mut MpOps<'_>);

    /// Display name.
    fn name(&self) -> &str {
        "anonymous"
    }
}

/// The per-step operation environment.
///
/// Ports are indices into the processor's ordered neighbor lists:
/// out-port `k` sends to `out_neighbors(p)[k]`, in-port `k` receives from
/// `in_neighbors(p)[k]`.
pub struct MpOps<'m> {
    net: &'m MpNetwork,
    queues: &'m mut [VecDeque<Value>],
    proc: ProcId,
    ops_used: u32,
    op: Option<StepOp>,
    faults: Option<&'m mut ChannelFaultState>,
    step: u64,
}

/// Seeded channel-fault injection state: the policy, the RNG that decides
/// each injection, and the audit log of everything injected so far.
#[derive(Clone, Debug)]
struct ChannelFaultState {
    policy: ChannelFaults,
    rng: StdRng,
    events: Vec<FaultEvent>,
}

impl<'m> MpOps<'m> {
    /// Number of out-ports of this processor.
    pub fn out_count(&self) -> usize {
        self.net.out_neighbors(self.proc).len()
    }

    /// Number of in-ports of this processor.
    pub fn in_count(&self) -> usize {
        self.net.in_neighbors(self.proc).len()
    }

    /// The out-port that sends to the processor behind in-port `port`, or
    /// `None` when the network has no back-channel — the path
    /// acknowledgements take in [`crate::ReliableViewLearner`].
    pub fn reverse_port(&self, port: usize) -> Option<usize> {
        let from = self.net.in_neighbors(self.proc)[port];
        self.net
            .out_neighbors(self.proc)
            .iter()
            .position(|&q| q == from)
    }

    fn charge(&mut self, kind: OpKind) {
        self.ops_used += 1;
        assert!(
            self.ops_used <= 1,
            "program performed a second channel operation within one atomic step"
        );
        self.op = Some(StepOp {
            kind,
            contended: false,
        });
    }

    fn channel_index(&self, from: ProcId, to: ProcId) -> usize {
        self.net
            .channels()
            .iter()
            .position(|&(a, b)| a == from && b == to)
            .expect("channel exists")
    }

    /// Sends `value` on out-port `port`. Under a [`ChannelFaults`] policy
    /// the message may be dropped (never enqueued) or duplicated (enqueued
    /// twice); either injection is logged as a [`FaultEvent`].
    ///
    /// # Panics
    ///
    /// Panics if the port is out of range or a second operation is
    /// attempted this step.
    pub fn send(&mut self, port: usize, value: Value) {
        self.charge(OpKind::Send);
        let to = self.net.out_neighbors(self.proc)[port];
        let ci = self.channel_index(self.proc, to);
        if let Some(f) = self.faults.as_deref_mut() {
            // Fixed draw order (drop, then duplicate) keeps the RNG
            // stream — and so the whole run — a function of the schedule.
            let dropped = f.rng.gen_range(0..100u32) < u32::from(f.policy.drop_percent);
            let duplicated = f.rng.gen_range(0..100u32) < u32::from(f.policy.duplicate_percent);
            if dropped {
                f.events.push(FaultEvent::MessageDropped {
                    step: self.step,
                    channel: ci,
                });
                return;
            }
            self.queues[ci].push_back(value.clone());
            if duplicated {
                f.events.push(FaultEvent::MessageDuplicated {
                    step: self.step,
                    channel: ci,
                });
                self.queues[ci].push_back(value);
            }
            return;
        }
        self.queues[ci].push_back(value);
    }

    /// Receives the oldest pending message on in-port `port`, if any.
    /// Under a [`ChannelFaults`] policy with reordering, the delivery may
    /// instead be served from a random position inside the queue, logged
    /// as a [`FaultEvent`].
    ///
    /// # Panics
    ///
    /// Panics if the port is out of range or a second operation is
    /// attempted this step.
    pub fn recv(&mut self, port: usize) -> Option<Value> {
        self.charge(OpKind::Recv);
        let from = self.net.in_neighbors(self.proc)[port];
        let ci = self.channel_index(from, self.proc);
        if let Some(f) = self.faults.as_deref_mut() {
            if self.queues[ci].len() > 1
                && f.rng.gen_range(0..100u32) < u32::from(f.policy.reorder_percent)
            {
                let depth = f.rng.gen_range(1..self.queues[ci].len());
                f.events.push(FaultEvent::DeliveryReordered {
                    step: self.step,
                    channel: ci,
                    depth,
                });
                return self.queues[ci].remove(depth);
            }
        }
        self.queues[ci].pop_front()
    }
}

/// The running message-passing system.
#[derive(Clone)]
pub struct MpMachine {
    net: Arc<MpNetwork>,
    program: Arc<dyn MpProgram>,
    locals: Vec<LocalState>,
    queues: Vec<VecDeque<Value>>,
    steps: u64,
    last_op: Option<StepOp>,
    faults: Option<ChannelFaultState>,
}

impl MpMachine {
    /// Builds a machine with one initial value per processor.
    ///
    /// # Panics
    ///
    /// Panics if `init.len()` differs from the processor count.
    pub fn new(net: Arc<MpNetwork>, program: Arc<dyn MpProgram>, init: &[Value]) -> MpMachine {
        assert_eq!(init.len(), net.processor_count(), "one value per processor");
        let locals = init.iter().map(|v| program.boot(v)).collect();
        let queues = vec![VecDeque::new(); net.channels().len()];
        MpMachine {
            net,
            program,
            locals,
            queues,
            steps: 0,
            last_op: None,
            faults: None,
        }
    }

    /// Enables seeded channel-fault injection under `policy`. Every drop,
    /// duplication, and reordering decision is drawn from a deterministic
    /// RNG, so a `(policy, seed, schedule)` triple fixes the entire run.
    pub fn with_channel_faults(mut self, policy: ChannelFaults, seed: u64) -> MpMachine {
        self.faults = Some(ChannelFaultState {
            policy,
            rng: StdRng::seed_from_u64(seed),
            events: Vec::new(),
        });
        self
    }

    /// The channel-fault events injected so far (empty without a policy).
    pub fn channel_fault_events(&self) -> &[FaultEvent] {
        self.faults.as_ref().map_or(&[], |f| &f.events)
    }

    /// The network.
    pub fn net(&self) -> &MpNetwork {
        &self.net
    }

    /// Steps executed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// A processor's local state.
    pub fn local(&self, p: ProcId) -> &LocalState {
        &self.locals[p.index()]
    }

    /// Processors with the `selected` flag set.
    pub fn selected(&self) -> Vec<ProcId> {
        self.net
            .processors()
            .filter(|p| self.locals[p.index()].selected)
            .collect()
    }

    /// Executes one step of `p`.
    pub fn step(&mut self, p: ProcId) {
        let mut local = std::mem::take(&mut self.locals[p.index()]);
        let op = {
            let mut ops = MpOps {
                net: &self.net,
                queues: &mut self.queues,
                proc: p,
                ops_used: 0,
                op: None,
                faults: self.faults.as_mut(),
                step: self.steps,
            };
            self.program.step(&mut local, &mut ops);
            ops.op
        };
        self.locals[p.index()] = local;
        self.steps += 1;
        self.last_op = Some(op.unwrap_or(StepOp {
            kind: OpKind::Local,
            contended: false,
        }));
    }

    /// What the most recent step did (`None` before the first step).
    pub fn last_op(&self) -> Option<StepOp> {
        self.last_op
    }

    /// A 64-bit fingerprint of the global state (local states plus channel
    /// contents).
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.locals.hash(&mut h);
        self.queues.hash(&mut h);
        h.finish()
    }
}

impl System for MpMachine {
    fn processor_count(&self) -> usize {
        self.net.processor_count()
    }

    fn step(&mut self, p: ProcId) {
        MpMachine::step(self, p);
    }

    fn steps(&self) -> u64 {
        MpMachine::steps(self)
    }

    fn selected(&self) -> Vec<ProcId> {
        MpMachine::selected(self)
    }

    fn fingerprint(&self) -> u64 {
        MpMachine::fingerprint(self)
    }

    fn last_op(&self) -> Option<StepOp> {
        MpMachine::last_op(self)
    }
}

impl FaultableSystem for MpMachine {
    fn local(&self, p: ProcId) -> &LocalState {
        &self.locals[p.index()]
    }

    fn restore_local(&mut self, p: ProcId, state: LocalState) {
        self.locals[p.index()] = state;
    }
}

/// Channel faults never crash processors, so the crash set is empty; the
/// view exists so the fault-tolerance checkers can consume shared-variable
/// and message-passing runs uniformly.
impl FaultView for MpMachine {
    fn is_crashed(&self, _p: ProcId) -> bool {
        false
    }

    fn fault_events(&self) -> &[FaultEvent] {
        self.channel_fault_events()
    }
}

impl fmt::Debug for MpMachine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MpMachine")
            .field("processors", &self.net.processor_count())
            .field("channels", &self.net.channels().len())
            .field("program", &self.program.name())
            .field("steps", &self.steps)
            .finish()
    }
}

/// Distributed view learning: the message-passing analogue of Algorithm 2.
///
/// Every processor repeatedly broadcasts its current *view* on all
/// out-ports and folds the views received on its in-ports into a deeper
/// view `⟨state₀, (view of sender on port 0, …)⟩`. After `rounds`
/// iterations, two processors have equal views iff they are similar (in
/// the port-ordered unidirectional model) up to depth `rounds`; `rounds ≥
/// processor count` reaches the fixpoint.
pub struct ViewLearner {
    /// Rounds of exchange to run.
    pub rounds: i64,
}

impl MpProgram for ViewLearner {
    fn boot(&self, initial: &Value) -> LocalState {
        let mut s = LocalState::with_initial(initial.clone());
        s.set("view", Value::tuple([initial.clone()]));
        s.set("round", Value::from(0));
        s.set("port", Value::from(0));
        s.set("inbox", Value::tuple([]));
        s
    }

    fn step(&self, local: &mut LocalState, ops: &mut MpOps<'_>) {
        let round = local.get("round").as_int().unwrap_or(0);
        if round >= self.rounds {
            return; // done: view is final
        }
        match local.pc {
            0 => {
                // Send phase: view to each out-port, one per step.
                let port = local.get("port").as_int().unwrap_or(0) as usize;
                if port < ops.out_count() {
                    let msg = Value::tuple([Value::from(round), local.get("view")]);
                    ops.send(port, msg);
                    local.set("port", Value::from(port as i64 + 1));
                } else {
                    local.set("port", Value::from(0));
                    // Inbox slots, one per in-port, awaiting this round.
                    local.set(
                        "inbox",
                        Value::tuple(std::iter::repeat_n(Value::Unit, ops.in_count())),
                    );
                    local.pc = 1;
                }
            }
            _ => {
                // Receive phase: fill every in-port slot with this round's
                // message (skipping stale rounds), then fold.
                let mut inbox = local
                    .get_ref("inbox")
                    .and_then(|v| v.as_tuple())
                    .map(<[Value]>::to_vec)
                    .unwrap_or_default();
                let missing = inbox.iter().position(Value::is_unit);
                match missing {
                    None => {
                        // Fold: deeper view.
                        let view = Value::tuple([local.get("init"), Value::Tuple(inbox.into())]);
                        local.set("view", view);
                        local.set("round", Value::from(round + 1));
                        local.set("inbox", Value::tuple([]));
                        local.pc = 0;
                    }
                    Some(slot) => {
                        if let Some(msg) = ops.recv(slot) {
                            if let Some([r, v]) =
                                msg.as_tuple().and_then(|t| <&[Value; 2]>::try_from(t).ok())
                            {
                                if r.as_int() == Some(round) {
                                    inbox[slot] = v.clone();
                                    local.set("inbox", Value::Tuple(inbox.into()));
                                }
                                // Stale (earlier-round) messages are
                                // dropped; later rounds cannot arrive
                                // before we send ours (FIFO + lockstep
                                // rounds per channel).
                            }
                        }
                    }
                }
            }
        }
    }

    fn name(&self) -> &str {
        "view-learner"
    }
}

/// Chang–Roberts-style leader election on a unidirectional ring, driven by
/// the processors' initial values as identities.
///
/// With *distinct* identities exactly one processor (the maximum) selects
/// itself. With identical identities every processor selects — the
/// message-passing face of Theorem 2: similar processors cannot be
/// separated, so anonymous rings cannot elect.
pub struct ChangRoberts;

impl MpProgram for ChangRoberts {
    fn boot(&self, initial: &Value) -> LocalState {
        let mut s = LocalState::with_initial(initial.clone());
        s.set("best", initial.clone());
        s
    }

    fn step(&self, local: &mut LocalState, ops: &mut MpOps<'_>) {
        match local.pc {
            0 => {
                // Launch my id around the ring.
                ops.send(0, local.get("init"));
                local.pc = 1;
            }
            1 => {
                if let Some(msg) = ops.recv(0) {
                    let mine = local.get("init");
                    if msg == mine {
                        // My id made it all the way around: I win.
                        local.selected = true;
                        local.pc = 2;
                    } else if msg > mine {
                        local.set("best", msg.clone());
                        local.set("fwd", msg);
                        local.pc = 3;
                    }
                    // Smaller ids are swallowed.
                }
            }
            3 => {
                ops.send(0, local.get("fwd"));
                local.pc = 1;
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        "chang-roberts"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::{mp_similarity, MpModel};
    use simsym_vm::{run_until, RoundRobin};

    fn uniform(n: usize) -> Vec<Value> {
        vec![Value::Unit; n]
    }

    #[test]
    fn machine_basics() {
        let net = Arc::new(MpNetwork::ring_unidirectional(3));
        let m = MpMachine::new(Arc::clone(&net), Arc::new(ChangRoberts), &uniform(3));
        assert_eq!(m.steps(), 0);
        assert!(m.selected().is_empty());
        assert!(format!("{m:?}").contains("chang-roberts"));
    }

    #[test]
    fn chang_roberts_elects_unique_max() {
        let net = Arc::new(MpNetwork::ring_unidirectional(5));
        let ids: Vec<Value> = [3, 1, 4, 2, 5].into_iter().map(Value::from).collect();
        let mut m = MpMachine::new(Arc::clone(&net), Arc::new(ChangRoberts), &ids);
        let _ = run_until(&mut m, &mut RoundRobin::new(), 10_000, &mut [], |m| {
            !m.selected().is_empty()
        });
        assert_eq!(m.selected(), vec![ProcId::new(4)], "max id wins");
    }

    #[test]
    fn chang_roberts_anonymous_ring_elects_everyone() {
        // Identical ids: all processors are similar, and indeed all of
        // them "win" — uniqueness is hopeless, as Theorem 2 predicts.
        let net = Arc::new(MpNetwork::ring_unidirectional(4));
        let ids = vec![Value::from(7); 4];
        let mut m = MpMachine::new(Arc::clone(&net), Arc::new(ChangRoberts), &ids);
        let _ = run_until(&mut m, &mut RoundRobin::new(), 10_000, &mut [], |m| {
            m.selected().len() >= 4
        });
        assert_eq!(m.selected().len(), 4);
    }

    #[test]
    fn view_learner_matches_similarity_on_marked_ring() {
        let net = Arc::new(MpNetwork::ring_unidirectional(4));
        let mut init = uniform(4);
        init[1] = Value::from(9);
        let prog = Arc::new(ViewLearner { rounds: 5 });
        let mut m = MpMachine::new(Arc::clone(&net), prog, &init);
        let _ = run_until(&mut m, &mut RoundRobin::new(), 100_000, &mut [], |m| {
            m.net()
                .processors()
                .all(|p| m.local(p).get("round").as_int() == Some(5))
        });
        let views: Vec<Value> = net.processors().map(|p| m.local(p).get("view")).collect();
        let theta = mp_similarity(&net, &init, MpModel::AsyncUnidirectional);
        // Equal views ⟺ equal labels.
        for a in net.processors() {
            for b in net.processors() {
                assert_eq!(
                    views[a.index()] == views[b.index()],
                    theta.proc_label(a) == theta.proc_label(b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn view_learner_uniform_ring_views_coincide() {
        let net = Arc::new(MpNetwork::ring_unidirectional(3));
        let prog = Arc::new(ViewLearner { rounds: 4 });
        let mut m = MpMachine::new(Arc::clone(&net), prog, &uniform(3));
        let _ = run_until(&mut m, &mut RoundRobin::new(), 100_000, &mut [], |m| {
            m.net()
                .processors()
                .all(|p| m.local(p).get("round").as_int() == Some(4))
        });
        let v0 = m.local(ProcId::new(0)).get("view");
        for p in net.processors() {
            assert_eq!(m.local(p).get("view"), v0);
        }
    }

    #[test]
    fn view_learner_on_chain_distinguishes_everyone() {
        let net = Arc::new(MpNetwork::chain(3));
        let prog = Arc::new(ViewLearner { rounds: 3 });
        let mut m = MpMachine::new(Arc::clone(&net), prog, &uniform(3));
        let _ = run_until(&mut m, &mut RoundRobin::new(), 100_000, &mut [], |m| {
            m.net()
                .processors()
                .all(|p| m.local(p).get("round").as_int() == Some(3))
        });
        let views: Vec<Value> = net.processors().map(|p| m.local(p).get("view")).collect();
        assert_ne!(views[0], views[1]);
        assert_ne!(views[1], views[2]);
    }

    #[test]
    fn channel_faults_are_deterministic_per_seed() {
        let net = Arc::new(MpNetwork::ring_unidirectional(5));
        let ids: Vec<Value> = [3, 1, 4, 2, 5].into_iter().map(Value::from).collect();
        let policy = ChannelFaults::new(30, 20, 25);
        let run = |seed: u64| {
            let mut m = MpMachine::new(Arc::clone(&net), Arc::new(ChangRoberts), &ids)
                .with_channel_faults(policy, seed);
            let _ = run_until(&mut m, &mut RoundRobin::new(), 2_000, &mut [], |m| {
                !m.selected().is_empty()
            });
            (m.fingerprint(), m.channel_fault_events().to_vec())
        };
        let (fp_a, ev_a) = run(11);
        let (fp_b, ev_b) = run(11);
        let (fp_c, ev_c) = run(12);
        assert_eq!(fp_a, fp_b);
        assert_eq!(ev_a, ev_b);
        assert!(!ev_a.is_empty(), "a 30%-lossy run injects something");
        assert!(fp_a != fp_c || ev_a != ev_c, "seeds diverge");
    }

    #[test]
    fn dropped_messages_never_enqueue() {
        // 100% drop: the ring stays silent, nobody can ever elect.
        let net = Arc::new(MpNetwork::ring_unidirectional(3));
        let ids: Vec<Value> = [1, 2, 3].into_iter().map(Value::from).collect();
        let mut m = MpMachine::new(Arc::clone(&net), Arc::new(ChangRoberts), &ids)
            .with_channel_faults(ChannelFaults::new(100, 0, 0), 0);
        let _ = run_until(&mut m, &mut RoundRobin::new(), 500, &mut [], |m| {
            !m.selected().is_empty()
        });
        assert!(m.selected().is_empty());
        assert!(m
            .channel_fault_events()
            .iter()
            .all(|e| matches!(e, simsym_vm::FaultEvent::MessageDropped { .. })));
        assert!(!m.channel_fault_events().is_empty());
    }

    #[test]
    fn duplicates_are_absorbed_by_chang_roberts() {
        // 100% duplication: every send enqueues twice, yet the max id
        // still wins uniquely — duplicate ids are swallowed or re-forwarded
        // but a processor only selects on seeing its own id again.
        let net = Arc::new(MpNetwork::ring_unidirectional(5));
        let ids: Vec<Value> = [3, 1, 4, 2, 5].into_iter().map(Value::from).collect();
        let mut m = MpMachine::new(Arc::clone(&net), Arc::new(ChangRoberts), &ids)
            .with_channel_faults(ChannelFaults::new(0, 100, 0), 0);
        let _ = run_until(&mut m, &mut RoundRobin::new(), 20_000, &mut [], |m| {
            !m.selected().is_empty()
        });
        assert_eq!(m.selected(), vec![ProcId::new(4)], "max id still wins");
    }

    #[test]
    #[should_panic(expected = "exceeds 100")]
    fn channel_fault_percentages_validated() {
        let _ = ChannelFaults::new(101, 0, 0);
    }

    #[test]
    #[should_panic(expected = "second channel operation")]
    fn double_op_rejected() {
        struct Greedy;
        impl MpProgram for Greedy {
            fn step(&self, _local: &mut LocalState, ops: &mut MpOps<'_>) {
                ops.send(0, Value::Unit);
                ops.send(0, Value::Unit);
            }
        }
        let net = Arc::new(MpNetwork::ring_unidirectional(2));
        let mut m = MpMachine::new(Arc::clone(&net), Arc::new(Greedy), &uniform(2));
        m.step(ProcId::new(0));
    }
}
