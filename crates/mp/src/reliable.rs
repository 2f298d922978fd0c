//! A bounded ack/retransmit layer: view/label exchange that survives
//! lossy channels.
//!
//! [`ViewLearner`](crate::ViewLearner) assumes reliable FIFO channels — a
//! single dropped message stalls the round structure forever. This module
//! adds the classic remedy at the program level: every data message is
//! positively acknowledged on the back-channel, and unacknowledged sends
//! are retransmitted on a **deterministic retry schedule** counted in the
//! sender's *own steps* (no wall clock anywhere, so a `(policy, seed,
//! schedule)` triple still fixes the entire run and faulted traces replay
//! exactly).
//!
//! Protocol sketch, per processor and round `r`:
//!
//! * send `data(r, view)` once on every out-port; retransmit any port not
//!   yet acknowledged every `retry_every` own steps, up to `max_retries`
//!   retransmissions (unbounded when `None`);
//! * acknowledge **every** data message received — current, duplicate, or
//!   stale — so a lost ack is healed by the sender's retransmission;
//! * buffer data for round `r + 1` (a neighbor can run at most one round
//!   ahead, because advancing needs our ack, and FIFO reordering faults
//!   can then deliver its next-round data early);
//! * advance to round `r + 1` only when every in-port delivered round-`r`
//!   data *and* every out-port was acknowledged;
//! * after the final round, keep re-acknowledging stale data so lagging
//!   neighbors can finish.
//!
//! Acknowledgements ride the reverse channel
//! ([`MpOps::reverse_port`](crate::MpOps::reverse_port)), so the layer
//! requires a bidirectional network.

use crate::{MpOps, MpProgram};
use simsym_vm::{LocalState, Value};

/// Message tag: a view payload.
const DATA: i64 = 0;
/// Message tag: an acknowledgement.
const ACK: i64 = 1;

/// The reliable view learner: [`ViewLearner`](crate::ViewLearner)
/// semantics on top of the ack/retransmit layer.
pub struct ReliableViewLearner {
    /// Rounds of exchange to run.
    pub rounds: i64,
    /// Retransmit an unacknowledged send every this many own steps.
    pub retry_every: i64,
    /// Give up (mark the processor failed) after this many
    /// retransmissions of one message; `None` retries forever.
    pub max_retries: Option<i64>,
}

impl ReliableViewLearner {
    /// A learner with unbounded retries (liveness under any loss < 100%).
    pub fn new(rounds: i64, retry_every: i64) -> ReliableViewLearner {
        assert!(retry_every > 0, "retry interval must be positive");
        ReliableViewLearner {
            rounds,
            retry_every,
            max_retries: None,
        }
    }

    /// Caps retransmissions per message at `max_retries`.
    pub fn with_max_retries(mut self, max_retries: i64) -> ReliableViewLearner {
        self.max_retries = Some(max_retries);
        self
    }

    /// The round a processor has completed.
    pub fn round(local: &LocalState) -> i64 {
        local.get("round").as_int().unwrap_or(0)
    }

    /// Whether a processor finished all rounds.
    pub fn is_done(&self, local: &LocalState) -> bool {
        Self::round(local) >= self.rounds
    }

    /// Whether a processor exhausted its retry budget and gave up.
    pub fn is_failed(local: &LocalState) -> bool {
        local.get("failed").as_int() == Some(1)
    }

    /// Total acknowledgements this processor has received.
    pub fn ack_count(local: &LocalState) -> i64 {
        local.get("ack_count").as_int().unwrap_or(0)
    }

    fn data(round: i64, view: Value) -> Value {
        Value::tuple([Value::from(DATA), Value::from(round), view])
    }

    fn ack(round: i64) -> Value {
        Value::tuple([Value::from(ACK), Value::from(round)])
    }
}

/// Reads a tuple register as a vector.
fn tuple_reg(local: &LocalState, name: &str) -> Vec<Value> {
    local
        .get_ref(name)
        .and_then(|v| v.as_tuple())
        .map(<[Value]>::to_vec)
        .unwrap_or_default()
}

fn int_vec(local: &LocalState, name: &str) -> Vec<i64> {
    tuple_reg(local, name)
        .iter()
        .map(|v| v.as_int().unwrap_or(0))
        .collect()
}

fn set_int_vec(local: &mut LocalState, name: &str, vals: &[i64]) {
    local.set(name, Value::tuple(vals.iter().map(|&v| Value::from(v))));
}

/// Appends `(port, round)` to the pending-ack queue.
fn queue_ack(local: &mut LocalState, port: usize, round: i64) {
    let mut q = tuple_reg(local, "ackq");
    q.push(Value::tuple([Value::from(port as i64), Value::from(round)]));
    local.set("ackq", Value::Tuple(q.into()));
}

/// Pops the oldest pending ack, if any.
fn pop_ack(local: &mut LocalState) -> Option<(usize, i64)> {
    let mut q = tuple_reg(local, "ackq");
    if q.is_empty() {
        return None;
    }
    let head = q.remove(0);
    local.set("ackq", Value::Tuple(q.into()));
    let [port, round] = <&[Value; 2]>::try_from(head.as_tuple()?).ok()?;
    Some((port.as_int()? as usize, round.as_int()?))
}

impl MpProgram for ReliableViewLearner {
    fn boot(&self, initial: &Value) -> LocalState {
        let mut s = LocalState::with_initial(initial.clone());
        s.set("view", Value::tuple([initial.clone()]));
        s.set("round", Value::from(0));
        s.set("ackq", Value::tuple([]));
        s.set("ack_count", Value::from(0));
        s.set("failed", Value::from(0));
        // Port-sized registers are sized lazily on the first step (boot
        // has no view of the network).
        s
    }

    fn step(&self, local: &mut LocalState, ops: &mut MpOps<'_>) {
        if Self::is_failed(local) {
            return;
        }
        // Lazy init of the port-sized registers.
        if local.get_ref("acked").is_none() {
            set_int_vec(local, "acked", &vec![0; ops.out_count()]);
            set_int_vec(local, "retry", &vec![0; ops.out_count()]);
            set_int_vec(local, "retries", &vec![-1; ops.out_count()]);
            local.set(
                "inbox",
                Value::tuple(std::iter::repeat_n(Value::Unit, ops.in_count())),
            );
            local.set(
                "future",
                Value::tuple(std::iter::repeat_n(Value::Unit, ops.in_count())),
            );
            local.set("rport", Value::from(0));
        }
        let round = Self::round(local);
        let done = round >= self.rounds;

        // Tick the retry timers: own-step time, no wall clock.
        if !done {
            let mut retry = int_vec(local, "retry");
            for t in &mut retry {
                if *t > 0 {
                    *t -= 1;
                }
            }
            set_int_vec(local, "retry", &retry);
        }

        // 1. Flush pending acknowledgements, one per step.
        if let Some((port, r)) = pop_ack(local) {
            ops.send(port, Self::ack(r));
            return;
        }

        if done {
            // Serve lagging neighbors: keep re-acknowledging their
            // retransmitted data.
            let port = local.get("rport").as_int().unwrap_or(0) as usize % ops.in_count();
            local.set(
                "rport",
                Value::from((port as i64 + 1) % ops.in_count() as i64),
            );
            if let Some(msg) = ops.recv(port) {
                if let Some((DATA, r, _)) = decode(&msg) {
                    let back = ops.reverse_port(port).expect("bidirectional network");
                    queue_ack(local, back, r);
                }
            }
            return;
        }

        // 2. (Re)transmit the first due unacknowledged out-port.
        let acked = int_vec(local, "acked");
        let mut retry = int_vec(local, "retry");
        let mut retries = int_vec(local, "retries");
        for k in 0..acked.len() {
            if acked[k] == 0 && retry[k] == 0 {
                if let Some(cap) = self.max_retries {
                    if retries[k] >= cap {
                        local.set("failed", Value::from(1));
                        return;
                    }
                }
                ops.send(k, Self::data(round, local.get("view")));
                retry[k] = self.retry_every;
                retries[k] += 1;
                set_int_vec(local, "retry", &retry);
                set_int_vec(local, "retries", &retries);
                return;
            }
        }

        let inbox = tuple_reg(local, "inbox");
        let inbox_full = !inbox.iter().any(Value::is_unit);
        let all_acked = acked.iter().all(|&a| a == 1);

        // 3. Receive (round-robin over in-ports) until the round closes.
        if !(inbox_full && all_acked) {
            let port = local.get("rport").as_int().unwrap_or(0) as usize % ops.in_count();
            local.set(
                "rport",
                Value::from((port as i64 + 1) % ops.in_count() as i64),
            );
            if let Some(msg) = ops.recv(port) {
                self.handle(local, ops, port, round, &msg);
            }
            return;
        }

        // 4. Round closed on both sides: fold and advance.
        let view = Value::tuple([local.get("init"), Value::Tuple(inbox.into())]);
        local.set("view", view);
        local.set("round", Value::from(round + 1));
        // The one-round-ahead buffer becomes the new inbox.
        local.set("inbox", local.get("future"));
        local.set(
            "future",
            Value::tuple(std::iter::repeat_n(Value::Unit, ops.in_count())),
        );
        set_int_vec(local, "acked", &vec![0; ops.out_count()]);
        set_int_vec(local, "retry", &vec![0; ops.out_count()]);
        set_int_vec(local, "retries", &vec![-1; ops.out_count()]);
    }

    fn name(&self) -> &str {
        "reliable-view-learner"
    }
}

impl ReliableViewLearner {
    fn handle(
        &self,
        local: &mut LocalState,
        ops: &MpOps<'_>,
        port: usize,
        round: i64,
        msg: &Value,
    ) {
        let Some((tag, r, payload)) = decode(msg) else {
            return;
        };
        if tag == DATA {
            // Acknowledge everything — current, future, duplicate, or
            // stale — so a lost ack is healed by the retransmission.
            let back = ops.reverse_port(port).expect("bidirectional network");
            queue_ack(local, back, r);
            if r == round {
                let mut inbox = tuple_reg(local, "inbox");
                if inbox[port].is_unit() {
                    inbox[port] = payload;
                    local.set("inbox", Value::Tuple(inbox.into()));
                }
            } else if r == round + 1 {
                let mut future = tuple_reg(local, "future");
                if future[port].is_unit() {
                    future[port] = payload;
                    local.set("future", Value::Tuple(future.into()));
                }
            }
        } else if tag == ACK {
            local.set("ack_count", Value::from(Self::ack_count(local) + 1));
            let back = ops.reverse_port(port).expect("bidirectional network");
            if r == round {
                let mut acked = int_vec(local, "acked");
                if acked[back] == 0 {
                    acked[back] = 1;
                    set_int_vec(local, "acked", &acked);
                }
            }
        }
    }
}

/// Decodes a message into `(tag, round, payload)`; acks have no payload
/// and decode with `Unit`.
fn decode(msg: &Value) -> Option<(i64, i64, Value)> {
    let t = msg.as_tuple()?;
    match t {
        [tag, r, payload] => Some((tag.as_int()?, r.as_int()?, payload.clone())),
        [tag, r] => Some((tag.as_int()?, r.as_int()?, Value::Unit)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChannelFaults, MpMachine, MpNetwork, ViewLearner};
    use simsym_graph::ProcId;
    use simsym_vm::{run_until, RoundRobin, Value};
    use std::sync::Arc;

    fn all_done(m: &MpMachine, rounds: i64) -> bool {
        m.net()
            .processors()
            .all(|p| ReliableViewLearner::round(m.local(p)) >= rounds)
    }

    #[test]
    fn reliable_exchange_converges_on_clean_channels() {
        let net = Arc::new(MpNetwork::ring_bidirectional(3));
        let prog = Arc::new(ReliableViewLearner::new(3, 4));
        let mut m = MpMachine::new(Arc::clone(&net), prog, &vec![Value::Unit; 3]);
        let _ = run_until(&mut m, &mut RoundRobin::new(), 50_000, &mut [], |m| {
            all_done(m, 3)
        });
        assert!(all_done(&m, 3));
        let v0 = m.local(ProcId::new(0)).get("view");
        for p in net.processors() {
            assert_eq!(m.local(p).get("view"), v0, "uniform ring: views coincide");
        }
    }

    #[test]
    fn reliable_exchange_survives_drops_where_plain_learner_stalls() {
        let net = Arc::new(MpNetwork::ring_bidirectional(3));
        let mut init = vec![Value::Unit; 3];
        init[1] = Value::from(9);
        let policy = ChannelFaults::new(30, 0, 0);
        // The plain learner deadlocks on the first dropped message…
        let plain = Arc::new(ViewLearner { rounds: 3 });
        let mut mp = MpMachine::new(Arc::clone(&net), plain, &init).with_channel_faults(policy, 7);
        let _ = run_until(&mut mp, &mut RoundRobin::new(), 60_000, &mut [], |m| {
            m.net()
                .processors()
                .all(|p| m.local(p).get("round").as_int() == Some(3))
        });
        assert!(
            mp.net()
                .processors()
                .any(|p| mp.local(p).get("round").as_int() != Some(3)),
            "expected the unreliable learner to stall under 30% drops"
        );
        // …while the ack/retransmit layer pushes through the same loss.
        let prog = Arc::new(ReliableViewLearner::new(3, 4));
        let mut m = MpMachine::new(Arc::clone(&net), prog, &init).with_channel_faults(policy, 7);
        let _ = run_until(&mut m, &mut RoundRobin::new(), 60_000, &mut [], |m| {
            all_done(m, 3)
        });
        assert!(all_done(&m, 3), "reliable learner finished despite drops");
        assert!(
            m.net()
                .processors()
                .any(|p| ReliableViewLearner::ack_count(m.local(p)) > 0),
            "acks flowed"
        );
    }

    #[test]
    fn bounded_retries_give_up_on_dead_channels() {
        let net = Arc::new(MpNetwork::ring_bidirectional(3));
        let prog = Arc::new(ReliableViewLearner::new(3, 2).with_max_retries(3));
        let mut m = MpMachine::new(Arc::clone(&net), prog, &vec![Value::Unit; 3])
            .with_channel_faults(ChannelFaults::new(100, 0, 0), 0);
        let _ = run_until(&mut m, &mut RoundRobin::new(), 5_000, &mut [], |m| {
            m.net()
                .processors()
                .all(|p| ReliableViewLearner::is_failed(m.local(p)))
        });
        for p in net.processors() {
            assert!(
                ReliableViewLearner::is_failed(m.local(p)),
                "{p} exhausted its bounded retries"
            );
            assert_eq!(ReliableViewLearner::round(m.local(p)), 0);
        }
    }

    #[test]
    fn faulted_reliable_trace_replays_delivery_order_and_ack_counts() {
        use simsym_vm::engine::trace::{replay, TraceRecorder};
        // Drops force retransmissions, reordering scrambles delivery, and
        // duplication multiplies acks — the replayed run must reproduce
        // the exact delivery order (fingerprints cover queue contents)
        // and the exact per-processor ack counts.
        let net = Arc::new(MpNetwork::ring_bidirectional(3));
        let mut init = vec![Value::Unit; 3];
        init[2] = Value::from(4);
        let policy = ChannelFaults::new(20, 10, 30);
        let build = || {
            MpMachine::new(
                Arc::clone(&net),
                Arc::new(ReliableViewLearner::new(2, 4)),
                &init,
            )
            .with_channel_faults(policy, 13)
        };
        let mut m = build();
        let mut rec = TraceRecorder::new("round-robin", "round-robin");
        let _ = run_until(
            &mut m,
            &mut RoundRobin::new(),
            40_000,
            &mut [&mut rec],
            |m| all_done(m, 2),
        );
        assert!(all_done(&m, 2), "faulted run converged");
        let trace = rec.into_trace();
        let acks: Vec<i64> = net
            .processors()
            .map(|p| ReliableViewLearner::ack_count(m.local(p)))
            .collect();
        assert!(acks.iter().any(|&a| a > 0));
        let mut m2 = build();
        replay(&mut m2, &trace).expect("faulted MP trace replays byte-identically");
        let acks2: Vec<i64> = net
            .processors()
            .map(|p| ReliableViewLearner::ack_count(m2.local(p)))
            .collect();
        assert_eq!(acks, acks2, "ack counts reproduced exactly");
        assert_eq!(m.fingerprint(), m2.fingerprint());
        assert_eq!(m.channel_fault_events(), m2.channel_fault_events());
    }
}
