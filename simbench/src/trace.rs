//! Outside-in tracing: spans recorded at the boundaries of calls into the
//! library's public functions and traits, from benchmark-owned code only.
//!
//! Two kinds of record share one shape:
//!
//! * a **call span** stands for one call (`calls == 1`): a case, an
//!   exploration, a sweep run, one farm request;
//! * an **aggregate span** stands for every call of one hot boundary
//!   (`Program::step`, `Reducer::canonical_fingerprint`, …) made inside
//!   its parent: `calls` counts them and `busy_ns` sums their durations.
//!   Hot boundaries fire millions of times per run, so they are counted
//!   and timed by the wrappers below rather than stored one by one.
//!
//! Spans of one case, run or job share a `group` id. Everything is held
//! in memory and written out as NDJSON when the run ends.

use crate::report::Metrics;
use crate::stats::median;
use simsym_graph::ProcId;
use simsym_vm::engine::{Probe, System, Violation};
use simsym_vm::faults::{FaultEvent, FaultView};
use simsym_vm::{
    LocalState, Machine, OpEnv, OpRecord, ProbedStep, Program, ProgramSpec, Reducer, ScheduleKind,
    Scheduler, StepOp, Value,
};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub group: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u64,
    pub busy_ns: u64,
}

/// The in-memory span store of one thread.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a call span as a child of the innermost open span.
    pub fn enter(&mut self, name: impl Into<String>, group: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            group,
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            calls: 1,
            busy_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.busy_ns = end - span.start_ns;
    }

    /// Runs `f` inside a call span.
    pub fn span<T>(&mut self, name: &str, group: u64, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.enter(name, group);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Records a call span measured elsewhere (clock readings taken on
    /// other threads, against the same epoch).
    pub fn record(
        &mut self,
        name: &str,
        group: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (start_ns, end_ns) = (at(start), at(end));
        self.spans.push(Span {
            id,
            parent,
            group,
            name: name.to_owned(),
            start_ns,
            end_ns,
            calls: 1,
            busy_ns: end_ns - start_ns,
        });
        id
    }

    /// Attaches the totals of a hot boundary to `parent` (or to the
    /// innermost open span) and returns the aggregate's id.
    pub fn aggregate(&mut self, parent: Option<usize>, name: &str, totals: Totals) -> usize {
        let parent = parent.or_else(|| self.open.last().copied());
        let (group, start_ns, end_ns) = parent.map_or((0, 0, 0), |p| {
            let s = &self.spans[p];
            (s.group, s.start_ns, s.end_ns)
        });
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            group,
            name: name.to_owned(),
            start_ns,
            end_ns,
            calls: totals.calls,
            busy_ns: totals.ns,
        });
        id
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Runs `f` inside a call span when there is a recorder, plainly if not.
pub fn maybe_span<T>(
    rec: &mut Option<&mut Recorder>,
    name: &str,
    group: u64,
    f: impl FnOnce() -> T,
) -> T {
    match rec {
        Some(rec) => rec.span(name, group, |_| f()),
        None => f(),
    }
}

/// The spans of each `rep` span's subtree, one list per rep.
pub fn reps_of(spans: &[Span]) -> Vec<Vec<Span>> {
    let mut reps: Vec<Vec<Span>> = Vec::new();
    let mut owner: Vec<Option<usize>> = vec![None; spans.len()];
    for s in spans {
        owner[s.id] = if s.name == "rep" {
            reps.push(Vec::new());
            Some(reps.len() - 1)
        } else {
            s.parent.and_then(|p| owner[p])
        };
        if let Some(r) = owner[s.id] {
            reps[r].push(s.clone());
        }
    }
    reps
}

/// Median over reps of a per-rep figure.
pub fn per_rep(reps: &[Vec<Span>], f: impl Fn(&[Span]) -> f64) -> f64 {
    let v: Vec<f64> = reps.iter().map(|s| f(s)).collect();
    median(&v)
}

/// `core.label_ms` and `core.program_ms`: the median over traced set-up
/// passes (`setup` spans) of each layer's time in one pass.
pub fn setup_layers(m: &mut Metrics, spans: &[Span]) {
    for (metric, layer) in [
        ("core.label_ms", "core.label"),
        ("core.program_ms", "core.program"),
    ] {
        let passes: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "setup")
            .map(|pass| {
                spans
                    .iter()
                    .filter(|s| s.parent == Some(pass.id) && s.name == layer)
                    .map(|s| s.busy_ns as f64 / 1e6)
                    .sum()
            })
            .collect();
        m.put(metric, median(&passes), "ms");
    }
}

/// A span's self time: its busy time minus the part its children cover.
/// Call-span children cover the union of their intervals (clipped to the
/// parent); aggregate children cover their summed busy time, since each
/// of their calls ran nested inside, and apart from, the others.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let span = spans.iter().find(|s| s.id == id).expect("span id");
    let mut intervals: Vec<(u64, u64)> = Vec::new();
    let mut summed = 0u64;
    for child in spans.iter().filter(|s| s.parent == Some(id)) {
        if child.calls == 1 && span.calls == 1 {
            let lo = child.start_ns.max(span.start_ns);
            let hi = child.end_ns.min(span.end_ns);
            if hi > lo {
                intervals.push((lo, hi));
            }
        } else {
            summed += child.busy_ns;
        }
    }
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = 0u64;
    for (lo, hi) in intervals {
        let lo = lo.max(reach);
        if hi > lo {
            covered += hi - lo;
            reach = hi;
        }
    }
    span.busy_ns.saturating_sub(covered + summed)
}

/// Sum of `busy_ns` over spans named `name`.
pub fn busy(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.busy_ns)
        .sum()
}

/// Sum of `calls` over spans named `name`.
pub fn calls(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.calls)
        .sum()
}

/// Sum of self time over spans named `name`.
pub fn self_total(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| self_ns(spans, s.id))
        .sum()
}

/// Renders spans as NDJSON, one object per line.
pub fn to_ndjson(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"group\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"calls\": {}, \"busy_ns\": {}}}",
            s.id, s.group, s.name, s.start_ns, s.end_ns, s.calls, s.busy_ns
        );
    }
    out
}

/// Call count and summed duration of one hot boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub calls: u64,
    pub ns: u64,
}

/// A single-thread hot-boundary counter.
#[derive(Default)]
pub struct Counter {
    calls: Cell<u64>,
    ns: Cell<u64>,
}

impl Counter {
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.ns.set(self.ns.get() + t.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        out
    }

    /// Returns the totals so far and resets them.
    pub fn take(&self) -> Totals {
        Totals {
            calls: self.calls.replace(0),
            ns: self.ns.replace(0),
        }
    }
}

/// [`Program`] wrapper timing `step`. The machine holds it behind an
/// `Arc`, so the counters are atomics (uncontended: one thread steps).
pub struct TimedProgram {
    inner: Arc<dyn Program>,
    calls: AtomicU64,
    ns: AtomicU64,
}

impl TimedProgram {
    pub fn new(inner: Arc<dyn Program>) -> Arc<TimedProgram> {
        Arc::new(TimedProgram {
            inner,
            calls: AtomicU64::new(0),
            ns: AtomicU64::new(0),
        })
    }

    pub fn take(&self) -> Totals {
        Totals {
            calls: self.calls.swap(0, Ordering::Relaxed),
            ns: self.ns.swap(0, Ordering::Relaxed),
        }
    }
}

impl Program for TimedProgram {
    fn boot(&self, initial: &Value) -> LocalState {
        self.inner.boot(initial)
    }

    fn step(&self, local: &mut LocalState, ops: &mut OpEnv<'_>) {
        let t = Instant::now();
        self.inner.step(local, ops);
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn static_spec(&self) -> Option<ProgramSpec> {
        self.inner.static_spec()
    }
}

/// [`Reducer`] wrapper timing `canonical_fingerprint` and `ample`.
pub struct TimedReducer {
    inner: Box<dyn Reducer>,
    pub canon: Counter,
    pub ample: Counter,
}

impl TimedReducer {
    pub fn new(inner: Box<dyn Reducer>) -> TimedReducer {
        TimedReducer {
            inner,
            canon: Counter::default(),
            ample: Counter::default(),
        }
    }
}

impl Reducer for TimedReducer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn canonical_fingerprint(&mut self, m: &Machine) -> (u64, u64) {
        let inner = &mut self.inner;
        self.canon.time(|| inner.canonical_fingerprint(m))
    }

    fn group_order(&self) -> usize {
        self.inner.group_order()
    }

    fn group_capped(&self) -> bool {
        self.inner.group_capped()
    }

    fn expand_outcome(&self, selected: &[ProcId], out: &mut BTreeSet<Vec<ProcId>>) {
        self.inner.expand_outcome(selected, out);
    }

    fn uses_por(&self) -> bool {
        self.inner.uses_por()
    }

    fn ample(&self, probes: &[ProbedStep]) -> Option<Vec<usize>> {
        self.ample.time(|| self.inner.ample(probes))
    }
}

/// [`System`] wrapper timing `step`; forwards [`FaultView`] so fault
/// schedulers and checkers see through it.
pub struct TimedSystem<S> {
    pub inner: S,
    pub step: Counter,
}

impl<S> TimedSystem<S> {
    pub fn new(inner: S) -> TimedSystem<S> {
        TimedSystem {
            inner,
            step: Counter::default(),
        }
    }
}

impl<S: System> System for TimedSystem<S> {
    fn processor_count(&self) -> usize {
        self.inner.processor_count()
    }

    fn step(&mut self, p: ProcId) {
        let inner = &mut self.inner;
        self.step.time(|| inner.step(p));
    }

    fn steps(&self) -> u64 {
        self.inner.steps()
    }

    fn selected(&self) -> Vec<ProcId> {
        self.inner.selected()
    }

    fn selected_count(&self) -> usize {
        self.inner.selected_count()
    }

    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }

    fn last_op(&self) -> Option<StepOp> {
        self.inner.last_op()
    }

    fn last_record(&self) -> Option<OpRecord> {
        self.inner.last_record()
    }
}

impl<S: FaultView> FaultView for TimedSystem<S> {
    fn is_crashed(&self, p: ProcId) -> bool {
        self.inner.is_crashed(p)
    }

    fn fault_events(&self) -> &[FaultEvent] {
        self.inner.fault_events()
    }
}

/// [`Scheduler`] wrapper timing `next`.
pub struct TimedSched<I> {
    inner: I,
    pub next: Counter,
}

impl<I> TimedSched<I> {
    pub fn new(inner: I) -> TimedSched<I> {
        TimedSched {
            inner,
            next: Counter::default(),
        }
    }
}

impl<S: ?Sized, I: Scheduler<S>> Scheduler<S> for TimedSched<I> {
    fn next(&mut self, system: &S) -> ProcId {
        let inner = &mut self.inner;
        self.next.time(|| inner.next(system))
    }

    fn kind(&self) -> ScheduleKind {
        self.inner.kind()
    }
}

/// [`Probe`] wrapper timing `observe` and `finish`.
pub struct TimedProbe<P> {
    pub inner: P,
    pub observe: Counter,
}

impl<P> TimedProbe<P> {
    pub fn new(inner: P) -> TimedProbe<P> {
        TimedProbe {
            inner,
            observe: Counter::default(),
        }
    }
}

impl<S: ?Sized, P: Probe<S>> Probe<S> for TimedProbe<P> {
    fn observe(&mut self, system: &S, just_stepped: ProcId) -> Option<Violation> {
        let inner = &mut self.inner;
        self.observe.time(|| inner.observe(system, just_stepped))
    }

    fn finish(&mut self, system: &S) {
        let inner = &mut self.inner;
        self.observe.time(|| inner.finish(system));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start: u64, end: u64, calls: u64, busy: u64) -> Span {
        Span {
            id,
            parent,
            group: 7,
            name: format!("s{id}"),
            start_ns: start,
            end_ns: end,
            calls,
            busy_ns: busy,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_nested_children() {
        // root [0, 100): children [10, 30) and [20, 50) overlap, so they
        // cover 40; a grandchild [12, 18) belongs to the first child only.
        let spans = vec![
            span(0, None, 0, 100, 1, 100),
            span(1, Some(0), 10, 30, 1, 20),
            span(2, Some(0), 20, 50, 1, 30),
            span(3, Some(1), 12, 18, 1, 6),
            // a child sticking out of its parent is clipped to it
            span(4, Some(0), 90, 120, 1, 30),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 40 - 10);
        assert_eq!(self_ns(&spans, 1), 20 - 6);
        assert_eq!(self_ns(&spans, 2), 30);
        assert_eq!(self_ns(&spans, 3), 6);
    }

    #[test]
    fn aggregate_children_subtract_their_summed_busy_time() {
        // An exploration of 1000ns whose 50 canonicalizations took 300ns
        // and whose 40 program steps took 200ns; the steps themselves
        // nest a 25ns aggregate.
        let spans = vec![
            span(0, None, 0, 1000, 1, 1000),
            span(1, Some(0), 0, 1000, 50, 300),
            span(2, Some(0), 0, 1000, 40, 200),
            span(3, Some(2), 0, 1000, 40, 25),
        ];
        assert_eq!(self_ns(&spans, 0), 500);
        assert_eq!(self_ns(&spans, 2), 175);
        assert_eq!(self_total(&spans, "s1"), 300);
    }

    #[test]
    fn recorder_nests_spans_and_shares_the_group() {
        let mut rec = Recorder::new(Instant::now());
        rec.span("case", 3, |rec| {
            rec.span("explore", 3, |rec| {
                rec.aggregate(None, "canon", Totals { calls: 5, ns: 1 });
            });
        });
        let spans = &rec.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.group == 3));
        assert_eq!(calls(spans, "canon"), 5);
        assert!(spans[0].busy_ns >= spans[1].busy_ns);
        assert!(to_ndjson(spans).lines().count() == 3);
    }
}
