//! Replayable schedule traces with JSON export/import.
//!
//! A [`TraceRecorder`] probe captures, for every step of an engine run, the
//! scheduled processor, the operation it performed ([`OpKind`]), whether a
//! lock attempt contended, and the machine fingerprint *after* the step.
//! The resulting [`ScheduleTrace`] serializes to a stable JSON document
//! ([`ScheduleTrace::to_json`] / [`ScheduleTrace::from_json`]) and can be
//! re-executed against a fresh copy of the same system with [`replay`],
//! which verifies every intermediate fingerprint — the engine's analogue of
//! the paper's "a schedule *is* the behavior" viewpoint (§2): a system plus
//! a schedule determines the whole run.
//!
//! The JSON encoder is deterministic (fixed key order, no whitespace
//! variation), so equal traces encode to byte-identical documents.

use crate::engine::{Probe, System, Violation};
use crate::json::{self, push_json_string};
use crate::{OpKind, StepOp};
use simsym_graph::ProcId;
use std::fmt;

/// One step of a recorded run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceStep {
    /// The processor that stepped.
    pub proc: ProcId,
    /// The operation its step performed.
    pub op: OpKind,
    /// Whether a lock-class op found its target held.
    pub contended: bool,
    /// System fingerprint *after* the step.
    pub fingerprint: u64,
}

/// A complete recorded run: metadata plus per-step records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleTrace {
    /// Free-form scheduler label, e.g. `"random_fair(seed=42)"`.
    pub scheduler: String,
    /// Schedule class label, e.g. `"fair"`.
    pub kind: String,
    /// The recorded steps, in execution order.
    pub steps: Vec<TraceStep>,
    /// Fingerprint of the final state.
    pub final_fingerprint: u64,
    /// Selected processors at the end of the run.
    pub selected: Vec<ProcId>,
}

impl ScheduleTrace {
    /// The bare schedule: the sequence of scheduled processors.
    pub fn schedule(&self) -> Vec<ProcId> {
        self.steps.iter().map(|s| s.proc).collect()
    }

    /// Encodes the trace as a deterministic single-line JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.steps.len() * 48);
        out.push_str("{\"version\":1,\"scheduler\":");
        push_json_string(&mut out, &self.scheduler);
        out.push_str(",\"kind\":");
        push_json_string(&mut out, &self.kind);
        out.push_str(",\"steps\":[");
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"p\":");
            out.push_str(&s.proc.index().to_string());
            out.push_str(",\"op\":\"");
            out.push_str(s.op.name());
            out.push_str("\",\"contended\":");
            out.push_str(if s.contended { "true" } else { "false" });
            out.push_str(",\"fp\":");
            out.push_str(&s.fingerprint.to_string());
            out.push('}');
        }
        out.push_str("],\"final_fp\":");
        out.push_str(&self.final_fingerprint.to_string());
        out.push_str(",\"selected\":[");
        for (i, p) in self.selected.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&p.index().to_string());
        }
        out.push_str("]}");
        out
    }

    /// Decodes a document produced by [`ScheduleTrace::to_json`].
    pub fn from_json(text: &str) -> Result<ScheduleTrace, TraceError> {
        let value = json::parse(text).map_err(TraceError::Json)?;
        let obj = value.as_object().ok_or(TraceError::Shape("root object"))?;
        let version = json::get(obj, "version")
            .and_then(json::Value::as_u64)
            .ok_or(TraceError::Shape("version"))?;
        if version != 1 {
            return Err(TraceError::Version(version));
        }
        let scheduler = json::get(obj, "scheduler")
            .and_then(json::Value::as_str)
            .ok_or(TraceError::Shape("scheduler"))?
            .to_owned();
        let kind = json::get(obj, "kind")
            .and_then(json::Value::as_str)
            .ok_or(TraceError::Shape("kind"))?
            .to_owned();
        let raw_steps = json::get(obj, "steps")
            .and_then(json::Value::as_array)
            .ok_or(TraceError::Shape("steps"))?;
        let mut steps = Vec::with_capacity(raw_steps.len());
        for raw in raw_steps {
            let s = raw.as_object().ok_or(TraceError::Shape("step object"))?;
            let proc = json::get(s, "p")
                .and_then(json::Value::as_u64)
                .ok_or(TraceError::Shape("step.p"))?;
            let op = json::get(s, "op")
                .and_then(json::Value::as_str)
                .and_then(OpKind::from_name)
                .ok_or(TraceError::Shape("step.op"))?;
            let contended = json::get(s, "contended")
                .and_then(json::Value::as_bool)
                .ok_or(TraceError::Shape("step.contended"))?;
            let fingerprint = json::get(s, "fp")
                .and_then(json::Value::as_u64)
                .ok_or(TraceError::Shape("step.fp"))?;
            steps.push(TraceStep {
                proc: ProcId::new(proc as usize),
                op,
                contended,
                fingerprint,
            });
        }
        let final_fingerprint = json::get(obj, "final_fp")
            .and_then(json::Value::as_u64)
            .ok_or(TraceError::Shape("final_fp"))?;
        let selected = json::get(obj, "selected")
            .and_then(json::Value::as_array)
            .ok_or(TraceError::Shape("selected"))?
            .iter()
            .map(|v| v.as_u64().map(|i| ProcId::new(i as usize)))
            .collect::<Option<Vec<_>>>()
            .ok_or(TraceError::Shape("selected entries"))?;
        Ok(ScheduleTrace {
            scheduler,
            kind,
            steps,
            final_fingerprint,
            selected,
        })
    }
}

/// Errors from trace decoding or replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The document is not well-formed JSON.
    Json(String),
    /// The document is JSON but not a trace (names the missing/ill-typed
    /// field).
    Shape(&'static str),
    /// Unknown trace format version.
    Version(u64),
    /// Replay diverged from the recorded run at the given step.
    Diverged {
        /// Index of the first diverging step (trace order).
        step: usize,
        /// The fingerprint the trace recorded.
        expected: u64,
        /// The fingerprint replay observed.
        actual: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Json(e) => write!(f, "malformed JSON: {e}"),
            TraceError::Shape(field) => write!(f, "not a trace document: bad field {field}"),
            TraceError::Version(v) => write!(f, "unsupported trace version {v}"),
            TraceError::Diverged {
                step,
                expected,
                actual,
            } => write!(
                f,
                "replay diverged at step {step}: expected fingerprint {expected:#018x}, got {actual:#018x}"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// A [`Probe`] that records a [`ScheduleTrace`] while the engine runs.
#[derive(Clone, Debug)]
pub struct TraceRecorder {
    trace: ScheduleTrace,
}

impl TraceRecorder {
    /// A recorder labeled with the scheduler description and schedule
    /// class (e.g. from [`Scheduler::kind`](crate::Scheduler::kind)).
    pub fn new(scheduler: impl Into<String>, kind: impl Into<String>) -> Self {
        TraceRecorder {
            trace: ScheduleTrace {
                scheduler: scheduler.into(),
                kind: kind.into(),
                steps: Vec::new(),
                final_fingerprint: 0,
                selected: Vec::new(),
            },
        }
    }

    /// Consumes the recorder, yielding the trace (valid once the run ended:
    /// [`Probe::finish`] fills in the final fingerprint and selection).
    pub fn into_trace(self) -> ScheduleTrace {
        self.trace
    }
}

impl<S: System + ?Sized> Probe<S> for TraceRecorder {
    fn observe(&mut self, system: &S, just_stepped: ProcId) -> Option<Violation> {
        let op = system.last_op().unwrap_or(StepOp {
            kind: OpKind::Local,
            contended: false,
        });
        self.trace.steps.push(TraceStep {
            proc: just_stepped,
            op: op.kind,
            contended: op.contended,
            fingerprint: system.fingerprint(),
        });
        None
    }

    fn finish(&mut self, system: &S) {
        self.trace.final_fingerprint = system.fingerprint();
        self.trace.selected = system.selected();
    }
}

/// Re-executes a recorded trace against `system` (which must be in the same
/// initial state as the recorded run), verifying the fingerprint after
/// every step and at the end.
///
/// On success the system is left in the recorded final state.
pub fn replay<S: System + ?Sized>(system: &mut S, trace: &ScheduleTrace) -> Result<(), TraceError> {
    for (i, step) in trace.steps.iter().enumerate() {
        system.step(step.proc);
        let actual = system.fingerprint();
        if actual != step.fingerprint {
            return Err(TraceError::Diverged {
                step: i,
                expected: step.fingerprint,
                actual,
            });
        }
    }
    let actual = system.fingerprint();
    if actual != trace.final_fingerprint {
        return Err(TraceError::Diverged {
            step: trace.steps.len(),
            expected: trace.final_fingerprint,
            actual,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use crate::{
        FnProgram, InstructionSet, Machine, RandomFair, RoundRobin, Scheduler, SystemInit, Value,
    };
    use simsym_graph::topology;
    use std::sync::Arc;

    fn counter_machine() -> Machine {
        let g = Arc::new(topology::uniform_ring(3));
        let prog = Arc::new(FnProgram::new("counter", |local, ops| {
            let right = ops.name("right");
            if local.pc % 2 == 0 {
                ops.write(right, Value::from(local.pc as i64));
            } else {
                let _ = ops.read(right);
            }
            local.pc += 1;
        }));
        let init = SystemInit::uniform(&g);
        Machine::new(g, InstructionSet::S, prog, &init).unwrap()
    }

    fn record(seed: u64, steps: u64) -> ScheduleTrace {
        let mut m = counter_machine();
        let mut sched = RandomFair::seeded(seed);
        let kind = Scheduler::<Machine>::kind(&sched).to_string();
        let mut rec = TraceRecorder::new(format!("random_fair(seed={seed})"), kind);
        let _ = engine::run(
            &mut m,
            &mut sched,
            steps,
            &mut [&mut rec],
            &mut engine::stop::Never,
        );
        rec.into_trace()
    }

    #[test]
    fn recorder_records_every_step() {
        let mut m = counter_machine();
        let mut rec = TraceRecorder::new("round-robin", "round-robin");
        let report = engine::run(
            &mut m,
            &mut RoundRobin::new(),
            6,
            &mut [&mut rec],
            &mut engine::stop::Never,
        );
        let trace = rec.into_trace();
        assert_eq!(report.steps, 6);
        assert_eq!(trace.steps.len(), 6);
        let procs: Vec<usize> = trace.schedule().iter().map(|p| p.index()).collect();
        assert_eq!(procs, vec![0, 1, 2, 0, 1, 2]);
        // The last step's fingerprint is the state the run ended in.
        assert_eq!(trace.steps[5].fingerprint, m.fingerprint());
        assert_eq!(trace.final_fingerprint, m.fingerprint());
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let trace = record(42, 17);
        let json = trace.to_json();
        let back = ScheduleTrace::from_json(&json).unwrap();
        assert_eq!(trace, back);
        // Deterministic encoder: encoding again is byte-identical.
        assert_eq!(json, back.to_json());
    }

    #[test]
    fn replay_reaches_identical_final_state() {
        let trace = record(7, 25);
        let mut fresh = counter_machine();
        replay(&mut fresh, &trace).unwrap();
        assert_eq!(fresh.fingerprint(), trace.final_fingerprint);
        assert_eq!(fresh.steps(), trace.steps.len() as u64);
    }

    #[test]
    fn replay_detects_divergence() {
        let mut trace = record(7, 10);
        trace.steps[4].fingerprint ^= 1;
        let mut fresh = counter_machine();
        let err = replay(&mut fresh, &trace).unwrap_err();
        assert!(matches!(err, TraceError::Diverged { step: 4, .. }));
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(matches!(
            ScheduleTrace::from_json("not json"),
            Err(TraceError::Json(_))
        ));
        assert!(matches!(
            ScheduleTrace::from_json("{\"version\":2}"),
            Err(TraceError::Version(2))
        ));
        assert!(matches!(
            ScheduleTrace::from_json("{\"version\":1}"),
            Err(TraceError::Shape(_))
        ));
        assert!(matches!(
            ScheduleTrace::from_json("[1,2"),
            Err(TraceError::Json(_))
        ));
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut trace = record(1, 3);
        trace.scheduler = "odd \"label\"\nwith\tescapes\\".into();
        let back = ScheduleTrace::from_json(&trace.to_json()).unwrap();
        assert_eq!(back.scheduler, trace.scheduler);
    }

    #[test]
    fn trace_records_op_kinds() {
        let trace = record(3, 12);
        assert_eq!(trace.steps.len(), 12);
        assert!(trace
            .steps
            .iter()
            .all(|s| matches!(s.op, OpKind::Read | OpKind::Write)));
        assert_eq!(trace.schedule().len(), 12);
    }
}
