//! Structured run metrics: who stepped, what they did, and where locks
//! contended.
//!
//! Attach a [`MetricsProbe`] to an engine run and read the accumulated
//! [`StepMetrics`] afterwards. The op-kind histogram mirrors the paper's
//! instruction sets: `read`/`write` (S), plus `lock`/`unlock`/`lock_many`
//! (L, L*), `peek`/`post` (Q), and `send`/`recv` for the message-passing
//! model.

use crate::engine::{Probe, System, Violation};
use crate::OpKind;
use simsym_graph::ProcId;
use std::fmt;

/// Aggregated measurements of one engine run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StepMetrics {
    /// Steps executed by each processor (indexed by `ProcId`).
    pub steps_per_proc: Vec<u64>,
    /// Histogram over [`OpKind::ALL`] of the shared/channel operations
    /// performed.
    pub ops: OpHistogram,
    /// Failed `lock`/`lock_many` attempts (the target was already held).
    pub lock_contention: u64,
    /// Failed lock attempts per processor (indexed by `ProcId`).
    pub contention_per_proc: Vec<u64>,
    /// Total steps observed.
    pub total_steps: u64,
}

impl StepMetrics {
    /// Fresh metrics for a system with `procs` processors.
    pub fn new(procs: usize) -> Self {
        StepMetrics {
            steps_per_proc: vec![0; procs],
            ops: OpHistogram::default(),
            lock_contention: 0,
            contention_per_proc: vec![0; procs],
            total_steps: 0,
        }
    }

    fn record(&mut self, p: ProcId, op: Option<crate::StepOp>) {
        if p.index() >= self.steps_per_proc.len() {
            let n = p.index() + 1;
            self.steps_per_proc.resize(n, 0);
            self.contention_per_proc.resize(n, 0);
        }
        self.steps_per_proc[p.index()] += 1;
        self.total_steps += 1;
        if let Some(op) = op {
            self.ops.bump(op.kind);
            if op.contended {
                self.lock_contention += 1;
                self.contention_per_proc[p.index()] += 1;
            }
        }
    }
}

impl fmt::Display for StepMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "steps: {}", self.total_steps)?;
        for (i, &n) in self.steps_per_proc.iter().enumerate() {
            writeln!(
                f,
                "  p{i}: {n} steps, {} contended",
                self.contention_per_proc[i]
            )?;
        }
        writeln!(f, "ops:")?;
        for kind in OpKind::ALL {
            let n = self.ops.count(kind);
            if n > 0 {
                writeln!(f, "  {kind}: {n}")?;
            }
        }
        write!(f, "lock contention: {}", self.lock_contention)
    }
}

/// Counts per operation kind, indexed by [`OpKind::index`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpHistogram {
    counts: [u64; OpKind::ALL.len()],
}

impl OpHistogram {
    /// Count for one operation kind.
    pub fn count(&self, kind: OpKind) -> u64 {
        self.counts[kind.index()]
    }

    fn bump(&mut self, kind: OpKind) {
        self.counts[kind.index()] += 1;
    }

    /// `(kind, count)` pairs with nonzero counts, in [`OpKind::ALL`] order.
    pub fn nonzero(&self) -> impl Iterator<Item = (OpKind, u64)> + '_ {
        OpKind::ALL
            .iter()
            .map(|&k| (k, self.count(k)))
            .filter(|&(_, n)| n > 0)
    }
}

/// A [`Probe`] that accumulates [`StepMetrics`] over a run.
#[derive(Clone, Debug, Default)]
pub struct MetricsProbe {
    metrics: StepMetrics,
}

impl MetricsProbe {
    /// A fresh metrics probe (processor vectors grow on demand).
    pub fn new() -> Self {
        Self::default()
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &StepMetrics {
        &self.metrics
    }
}

impl<S: System + ?Sized> Probe<S> for MetricsProbe {
    fn observe(&mut self, system: &S, just_stepped: ProcId) -> Option<Violation> {
        self.metrics.record(just_stepped, system.last_op());
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{engine, FnProgram, InstructionSet, Machine, RoundRobin, SystemInit, Value};
    use simsym_graph::topology;
    use std::sync::Arc;

    #[test]
    fn histogram_counts_shared_ops() {
        let g = Arc::new(topology::uniform_ring(2));
        let prog = Arc::new(FnProgram::new("writer", |local, ops| {
            let right = ops.name("right");
            if local.pc % 2 == 0 {
                ops.write(right, Value::from(1));
            } else {
                let _ = ops.read(right);
            }
            local.pc += 1;
        }));
        let init = SystemInit::uniform(&g);
        let mut m = Machine::new(g, InstructionSet::S, prog, &init).unwrap();
        let mut sched = RoundRobin::new();
        let mut probe = MetricsProbe::new();
        let _ = engine::run(
            &mut m,
            &mut sched,
            8,
            &mut [&mut probe],
            &mut engine::stop::Never,
        );
        let metrics = probe.metrics();
        assert_eq!(metrics.total_steps, 8);
        assert_eq!(metrics.steps_per_proc, vec![4, 4]);
        assert_eq!(metrics.ops.count(OpKind::Write), 4);
        assert_eq!(metrics.ops.count(OpKind::Read), 4);
        assert_eq!(metrics.lock_contention, 0);
    }

    #[test]
    fn contention_counts_failed_lock_attempts() {
        // Figure 1: one shared variable `n`. p0 grabs the lock on its first
        // step and never releases; every later attempt by p1 contends.
        let g = Arc::new(topology::figure1());
        let prog = Arc::new(FnProgram::new("grabby", |local, ops| {
            let n = ops.name("n");
            if local.pc == 0 && ops.lock(n) {
                local.pc = 1;
            }
        }));
        let init = SystemInit::uniform(&g);
        let mut m = Machine::new(g, InstructionSet::L, prog, &init).unwrap();
        let mut sched = RoundRobin::new();
        let mut probe = MetricsProbe::new();
        let _ = engine::run(
            &mut m,
            &mut sched,
            6,
            &mut [&mut probe],
            &mut engine::stop::Never,
        );
        let metrics = probe.metrics();
        // Schedule p0 p1 p0 p1 p0 p1: p0 locks once then idles (2 local
        // steps); p1 fails all 3 of its attempts.
        assert_eq!(metrics.ops.count(OpKind::Lock), 4);
        assert_eq!(metrics.lock_contention, 3);
        assert_eq!(metrics.contention_per_proc, vec![0, 3]);
    }

    #[test]
    fn display_is_human_readable() {
        let mut metrics = StepMetrics::new(1);
        metrics.record(
            simsym_graph::ProcId::new(0),
            Some(crate::StepOp {
                kind: OpKind::Read,
                contended: false,
            }),
        );
        let text = metrics.to_string();
        assert!(text.contains("read: 1"));
        assert!(text.contains("steps: 1"));
    }
}
