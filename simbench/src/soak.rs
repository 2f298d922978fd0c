//! `soak`: seeded schedule sweeps with fault injection, in-process through
//! `engine::sweep` on one sweep thread. Two parts per rep:
//!
//! * the `soak --journal` path: journaled crash-reset plans on the Q
//!   selection program over `ring:5` and `table:6`, checked by the strict
//!   fault-tolerance checker — every run must end clean;
//! * plain seeded round-robin and random-fair elections on
//!   `marked-ring:64` under Q, which must each select exactly one leader.
//!
//! The workload seed picks one of [`BLOCKS`] seed blocks; each block's
//! digest of every run's (steps, verdict) is pinned.

use crate::mix::{fnv1a, splitmix64};
use crate::report::{timed_repeats, Metrics, Outcome};
use crate::stats::median;
use crate::trace::{
    self, maybe_span, per_rep, reps_of, setup_layers, Recorder, Span, TimedProbe, TimedProgram,
    TimedSched, TimedSystem,
};
use simsym_check::{FaultToleranceChecker, Severity};
use simsym_core::{hopcroft_similarity, selection_program_q, LabelLearner, Model};
use simsym_graph::{topology, ProcId, SystemGraph};
use simsym_vm::engine::stop::{AnySelected, Never};
use simsym_vm::engine::sweep::{sweep_jobs, SweepConfig, SweepScheduler};
use simsym_vm::engine::{self, RunReport};
use simsym_vm::faults::{FaultPlan, FaultSched, Faulty};
use simsym_vm::{InstructionSet, Machine, Program, SystemInit};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Seed blocks the workload seed maps onto.
pub const BLOCKS: u64 = 16;
/// Seeds per scheduler family in each journaled sweep.
const JOURNAL_SEEDS: u64 = 4;
/// Step budget of a journaled run (the `soak` default); crashes fall in
/// its first quarter, as in `soak`.
const JOURNAL_STEPS: u64 = 4_000;
/// Seeds per scheduler family in the election sweep.
const ELECTION_SEEDS: u64 = 4;
/// Step budget of an election (far above what any selection needs).
const ELECTION_STEPS: u64 = 1_000_000;
const ELECTION_PROCS: usize = 64;

const KINDS: [SweepScheduler; 2] = [SweepScheduler::RoundRobin, SweepScheduler::RandomFair];

/// Pinned FNV-1a digest of every run's (part, scheduler, seed, steps,
/// verdict) per seed block, from `--pins soak`.
const PINS: [u64; BLOCKS as usize] = [
    0x7041d28550797b55, // 170902 steps
    0x6d4ae44dea885d06, // 168303 steps
    0x6fd6f39b0f09ad4f, // 168540 steps
    0x71bf9c32103771bb, // 169074 steps
    0x6f8d0aa6a4ebbe72, // 170546 steps
    0x718abdf8c01fe516, // 170143 steps
    0x9cd2b6640b37d53e, // 169049 steps
    0x30d3c853b777f2f4, // 168907 steps
    0x723822159056b2db, // 169944 steps
    0x2821aa6b4b31a65b, // 168916 steps
    0x33db25a5747c0f6b, // 171394 steps
    0xf1bb0fc81a334829, // 170324 steps
    0xaffb132a91c460e2, // 168357 steps
    0xf5d570236447243a, // 171185 steps
    0xb753f626308b8049, // 167682 steps
    0xf742108b52dbbe23, // 169418 steps
];

/// One system of the soak, built once per set-up pass.
pub struct Family {
    name: &'static str,
    graph: Arc<SystemGraph>,
    init: SystemInit,
    program: Arc<dyn Program>,
    /// The step-timing wrapper (traced builds only).
    timed: Option<Arc<TimedProgram>>,
    /// The processor the crash plans never touch, as `soak` picks it.
    protect: ProcId,
}

fn build(name: &'static str, mut rec: Option<&mut Recorder>, group: u64) -> Family {
    let graph = maybe_span(&mut rec, "graph.topology", group, || match name {
        "ring:5" => topology::uniform_ring(5),
        "table:6" => topology::philosophers_table(6),
        _ => topology::marked_ring(ELECTION_PROCS),
    });
    // The journaled families mark p0, as `soak` does; the marked ring is
    // structurally asymmetric already.
    let init = if name == "marked-ring:64" {
        SystemInit::uniform(&graph)
    } else {
        SystemInit::with_marked(&graph, &[ProcId::new(0)])
    };
    let theta = maybe_span(&mut rec, "core.label", group, || {
        hopcroft_similarity(&graph, &init, Model::Q)
    });
    let leader = theta.uniquely_labeled_processors()[0];
    let mut program = maybe_span(&mut rec, "core.program", group, || -> Arc<dyn Program> {
        let select = selection_program_q(&graph, &init)
            .expect("consistent labeling")
            .expect("a marked family admits selection in Q");
        Arc::new(select)
    });
    let wrapper = rec.is_some().then(|| TimedProgram::new(program.clone()));
    if let Some(w) = &wrapper {
        program = w.clone();
    }
    let graph = Arc::new(graph);
    maybe_span(&mut rec, "vm.machine", group, || {
        Machine::new(graph.clone(), InstructionSet::Q, program.clone(), &init)
            .expect("selection machine")
    });
    let procs = graph.processor_count();
    Family {
        name,
        graph,
        init,
        program,
        timed: wrapper,
        protect: ProcId::new((leader.index() + 1) % procs),
    }
}

const FAMILIES: [&str; 3] = ["ring:5", "table:6", "marked-ring:64"];

pub fn setup(rec: Option<&mut Recorder>, group: u64) -> Vec<Family> {
    match rec {
        Some(rec) => FAMILIES
            .iter()
            .map(|f| build(f, Some(rec), group))
            .collect(),
        None => FAMILIES.iter().map(|f| build(f, None, group)).collect(),
    }
}

/// The seed block a workload seed selects.
pub fn block(mut seed: u64) -> u64 {
    // A splitmix64 step: nearby seeds land on unrelated blocks.
    splitmix64(&mut seed) % BLOCKS
}

/// One run's observable outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    pub part: &'static str,
    pub scheduler: String,
    pub seed: u64,
    pub steps: u64,
    /// `clean`, or what went wrong.
    pub verdict: String,
}

fn machine(f: &Family) -> Machine {
    Machine::new(
        f.graph.clone(),
        InstructionSet::Q,
        f.program.clone(),
        &f.init,
    )
    .expect("selection machine")
}

fn journal_plan(f: &Family, seed: u64) -> FaultPlan {
    FaultPlan::seeded_crash_resets(
        f.graph.processor_count(),
        &[f.protect],
        seed,
        JOURNAL_STEPS / 4,
    )
    .with_replay_recoveries()
}

fn checker_verdict(checker: FaultToleranceChecker) -> String {
    checker
        .into_diagnostics()
        .iter()
        .find(|d| d.severity == Severity::Error)
        .map_or_else(|| "clean".to_owned(), |d| d.code.to_owned())
}

fn election_verdict(report: &RunReport) -> String {
    if report.is_clean_selection() {
        "clean".to_owned()
    } else {
        format!("selected {:?}", report.selected)
    }
}

fn row(part: &'static str, kind: SweepScheduler, seed: u64, steps: u64, verdict: String) -> Row {
    Row {
        part,
        scheduler: kind.label(),
        seed,
        steps,
        verdict,
    }
}

/// A journaled crash-reset run, exactly as `soak --journal` drives it.
fn journal_run(f: &Family, kind: SweepScheduler, seed: u64) -> Row {
    let mut sys = Faulty::with_journal(
        machine(f),
        journal_plan(f, seed),
        LabelLearner::journal_spec(),
    );
    let mut sched =
        FaultSched::new(kind.scheduler::<Faulty<Machine>>(f.graph.processor_count(), seed));
    let mut checker = FaultToleranceChecker::strict();
    let report = engine::run(
        &mut sys,
        &mut sched,
        JOURNAL_STEPS,
        &mut [&mut checker],
        &mut Never,
    );
    row(f.name, kind, seed, report.steps, checker_verdict(checker))
}

/// An election run to the first selection.
fn election_run(f: &Family, kind: SweepScheduler, seed: u64) -> Row {
    let mut sys = machine(f);
    let mut sched = kind.scheduler::<Machine>(f.graph.processor_count(), seed);
    let report = engine::run(
        &mut sys,
        &mut *sched,
        ELECTION_STEPS,
        &mut [],
        &mut AnySelected,
    );
    row(f.name, kind, seed, report.steps, election_verdict(&report))
}

/// The traced twin of [`journal_run`]: system, scheduler, probe and
/// program wrapped; the run is one call span holding their aggregates.
fn journal_run_traced(
    f: &Family,
    kind: SweepScheduler,
    seed: u64,
    rec: &Mutex<Recorder>,
    group: u64,
) -> Row {
    let mut rec = rec.lock().expect("recorder");
    let run = rec.enter("sweep.run", group);
    let m = rec.span("vm.machine", group, |_| machine(f));
    let mut sys = TimedSystem::new(Faulty::with_journal(
        m,
        journal_plan(f, seed),
        LabelLearner::journal_spec(),
    ));
    let inner = kind.scheduler::<TimedSystem<Faulty<Machine>>>(f.graph.processor_count(), seed);
    let mut sched = TimedSched::new(FaultSched::new(inner));
    let mut checker = TimedProbe::new(FaultToleranceChecker::strict());
    let report = engine::run(
        &mut sys,
        &mut sched,
        JOURNAL_STEPS,
        &mut [&mut checker],
        &mut Never,
    );
    let step = rec.aggregate(Some(run), "vm.step", sys.step.take());
    rec.aggregate(
        Some(step),
        "vm.program",
        f.timed.as_ref().expect("traced").take(),
    );
    rec.aggregate(Some(run), "vm.sched", sched.next.take());
    rec.aggregate(Some(run), "check.probe", checker.observe.take());
    rec.exit(run);
    row(
        f.name,
        kind,
        seed,
        report.steps,
        checker_verdict(checker.inner),
    )
}

/// The traced twin of [`election_run`].
fn election_run_traced(
    f: &Family,
    kind: SweepScheduler,
    seed: u64,
    rec: &Mutex<Recorder>,
    group: u64,
) -> Row {
    let mut rec = rec.lock().expect("recorder");
    let run = rec.enter("sweep.run", group);
    let m = rec.span("vm.machine", group, |_| machine(f));
    let mut sys = TimedSystem::new(m);
    let mut sched =
        TimedSched::new(kind.scheduler::<TimedSystem<Machine>>(f.graph.processor_count(), seed));
    let report = engine::run(
        &mut sys,
        &mut sched,
        ELECTION_STEPS,
        &mut [],
        &mut AnySelected,
    );
    let step = rec.aggregate(Some(run), "vm.step", sys.step.take());
    rec.aggregate(
        Some(step),
        "vm.program",
        f.timed.as_ref().expect("traced").take(),
    );
    rec.aggregate(Some(run), "vm.sched", sched.next.take());
    rec.exit(run);
    row(f.name, kind, seed, report.steps, election_verdict(&report))
}

fn sweep_config(block: u64, per_block: u64, max_steps: u64) -> SweepConfig {
    SweepConfig {
        kinds: KINDS.to_vec(),
        seeds: (block * per_block..(block + 1) * per_block).collect(),
        max_steps,
        threads: 1,
    }
}

/// One rep: both journaled sweeps, then the election sweep.
pub fn rep(fams: &[Family], block: u64, rec: Option<&Mutex<Recorder>>) -> Vec<Row> {
    let mut rows = Vec::new();
    let journal = sweep_config(block, JOURNAL_SEEDS, JOURNAL_STEPS);
    let election = sweep_config(block, ELECTION_SEEDS, ELECTION_STEPS);
    for (i, f) in fams.iter().enumerate() {
        let cfg = if f.name == "marked-ring:64" {
            &election
        } else {
            &journal
        };
        rows.extend(sweep_jobs(cfg, |kind, seed| {
            let group =
                (i as u64) << 32 | seed << 1 | u64::from(kind == SweepScheduler::RandomFair);
            match (rec, f.name) {
                (None, "marked-ring:64") => election_run(f, kind, seed),
                (None, _) => journal_run(f, kind, seed),
                (Some(rec), "marked-ring:64") => election_run_traced(f, kind, seed, rec, group),
                (Some(rec), _) => journal_run_traced(f, kind, seed, rec, group),
            }
        }));
    }
    rows
}

/// FNV-1a over every row, in sweep order.
pub fn digest(rows: &[Row]) -> u64 {
    let text: String = rows
        .iter()
        .map(|r| {
            format!(
                "{}|{}|{}|{}|{}\n",
                r.part, r.scheduler, r.seed, r.steps, r.verdict
            )
        })
        .collect();
    fnv1a(text.as_bytes())
}

/// Checks one rep: every run clean, and the digest pinned for its block.
fn tally(out: &mut Outcome, rows: &[Row], block: u64) {
    for r in rows {
        out.attempted += 1;
        if r.verdict != "clean" {
            out.fail(format!(
                "{} {} seed {}: {}",
                r.part, r.scheduler, r.seed, r.verdict
            ));
        }
    }
    let d = digest(rows);
    if d != PINS[block as usize] {
        out.fail(format!(
            "block {block}: digest {d:016x}, pinned {:016x}",
            PINS[block as usize]
        ));
    }
}

/// Set-up passes a traced run times.
const SETUP_PASSES_TRACED: u64 = 15;

/// Set-up passes timed before every rep: `setup_s` is their median, so it
/// samples the whole run, as `run_s` does.
const SETUP_PASSES_PER_REP: usize = 10;

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let block = block(seed);
    out.info(format!(
        "seed {seed} selects seed block {block} of {BLOCKS}"
    ));
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut plain_times = Vec::new();
    let mut reference: Option<Vec<Row>> = None;
    let mut check_same = |out: &mut Outcome, rows: &[Row]| match &reference {
        Some(first) if first != rows => out.fail("a rep's runs differ from the first rep's".into()),
        Some(_) => {}
        None => reference = Some(rows.to_vec()),
    };
    if !traced {
        let mut setup_times = Vec::new();
        while plain_times.len() < 3 || Instant::now() < deadline {
            let fams = timed_repeats(SETUP_PASSES_PER_REP, &mut setup_times, || setup(None, 0));
            let t = Instant::now();
            let rows = rep(&fams, block, None);
            plain_times.push(t.elapsed().as_secs_f64());
            tally(&mut out, &rows, block);
            check_same(&mut out, &rows);
        }
        out.info(format!(
            "{} reps of {} runs; run_s is the median rep",
            plain_times.len(),
            reference.as_ref().map_or(0, Vec::len)
        ));
        out.info(format!(
            "rep times (ms): {:?}",
            plain_times
                .iter()
                .map(|t| (t * 1e3).round() as u64)
                .collect::<Vec<_>>()
        ));
        out.metrics.put("setup_s", median(&setup_times), "s");
        out.metrics.put("run_s", median(&plain_times), "s");
        out.metrics
            .put("peak_rss_mb", crate::report::peak_rss_mb("self"), "MB");
        return out;
    }

    let fams = setup(None, 0);
    let rec = Mutex::new(Recorder::new(Instant::now()));
    let mut traced_fams = Vec::new();
    for pass in 0..SETUP_PASSES_TRACED {
        let mut r = rec.lock().expect("recorder");
        traced_fams = r.span("setup", pass, |r| setup(Some(r), pass));
    }
    let mut traced_times = Vec::new();
    let mut first_rows = None;
    while traced_times.len() < 3 || Instant::now() < deadline {
        let t = Instant::now();
        let rows = rep(&fams, block, None);
        plain_times.push(t.elapsed().as_secs_f64());
        tally(&mut out, &rows, block);
        check_same(&mut out, &rows);
        let id = rec
            .lock()
            .expect("recorder")
            .enter("rep", traced_times.len() as u64);
        let t = Instant::now();
        let rows = rep(&traced_fams, block, Some(&rec));
        traced_times.push(t.elapsed().as_secs_f64());
        rec.lock().expect("recorder").exit(id);
        tally(&mut out, &rows, block);
        check_same(&mut out, &rows);
        first_rows.get_or_insert(rows);
    }
    let untraced = median(&plain_times);
    out.info(format!(
        "{} untraced and {} traced reps, alternating",
        plain_times.len(),
        traced_times.len()
    ));
    let spans = rec.into_inner().expect("recorder").into_spans();
    let reps = reps_of(&spans);
    let rows = first_rows.expect("a traced rep");
    let steps: u64 = rows.iter().map(|r| r.steps).sum();
    if reps.iter().any(|s| trace::calls(s, "vm.step") != steps) {
        out.fail("traced step count differs from the runs' step count".into());
    }
    setup_layers(&mut out.metrics, &spans);
    layer_metrics(&mut out.metrics, &reps, &rows, untraced);
    out.metrics.put(
        "trace.overhead",
        median(&traced_times) / untraced - 1.0,
        "ratio",
    );
    out.spans = spans;
    out
}

fn layer_metrics(m: &mut Metrics, reps: &[Vec<Span>], rows: &[Row], run_s: f64) {
    let per_rep = |f: &dyn Fn(&[Span]) -> f64| per_rep(reps, f);
    let steps: u64 = rows.iter().map(|r| r.steps).sum();
    let journal: Vec<&Row> = rows.iter().filter(|r| r.part != "marked-ring:64").collect();
    let clean = journal.iter().filter(|r| r.verdict == "clean").count();
    let first = &reps[0];
    m.put("vm.steps", trace::calls(first, "vm.step") as f64, "count");
    m.put("vm.steps_per_s", steps as f64 / run_s, "1/s");
    let ns_per = |s: &[Span], name: &str, per: &str| {
        trace::busy(s, name) as f64 / trace::calls(s, per).max(1) as f64
    };
    m.put(
        "vm.step_ns",
        per_rep(&|s| ns_per(s, "vm.step", "vm.step")),
        "ns",
    );
    m.put(
        "vm.program_ns",
        per_rep(&|s| ns_per(s, "vm.program", "vm.program")),
        "ns",
    );
    m.put(
        "vm.machine_ns",
        per_rep(&|s| {
            trace::self_total(s, "vm.step") as f64 / trace::calls(s, "vm.step").max(1) as f64
        }),
        "ns",
    );
    m.put(
        "vm.sched_ns",
        per_rep(&|s| ns_per(s, "vm.sched", "vm.sched")),
        "ns",
    );
    m.put(
        "check.probe_ns",
        per_rep(&|s| ns_per(s, "check.probe", "check.probe")),
        "ns",
    );
    m.put("sweep.runs", rows.len() as f64, "count");
    m.put(
        "faults.clean_share",
        clean as f64 / journal.len().max(1) as f64,
        "ratio",
    );
}

/// The pinned digest of every block, for `--pins soak`.
pub fn pins() -> Vec<String> {
    let fams = setup(None, 0);
    (0..BLOCKS)
        .map(|b| {
            let rows = rep(&fams, b, None);
            let steps: u64 = rows.iter().map(|r| r.steps).sum();
            format!("0x{:016x}, // {steps} steps", digest(&rows))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_runs_reproduce_steps_and_verdicts_and_repeat_their_counts() {
        let plain = setup(None, 0);
        let mut step_calls = Vec::new();
        for _ in 0..2 {
            let traced = setup(Some(&mut Recorder::new(Instant::now())), 0);
            let rec = Mutex::new(Recorder::new(Instant::now()));
            let mut steps = 0;
            for kind in KINDS {
                for seed in [0, 1] {
                    let want = journal_run(&plain[0], kind, seed);
                    assert_eq!(want.verdict, "clean");
                    assert_eq!(journal_run_traced(&traced[0], kind, seed, &rec, 0), want);
                    steps += want.steps;
                }
            }
            let want = election_run(&plain[2], SweepScheduler::RoundRobin, 0);
            assert_eq!(want.verdict, "clean");
            assert_eq!(
                election_run_traced(&traced[2], SweepScheduler::RoundRobin, 0, &rec, 0),
                want
            );
            steps += want.steps;
            let spans = rec.into_inner().unwrap().into_spans();
            assert_eq!(trace::calls(&spans, "vm.step"), steps);
            assert_eq!(trace::calls(&spans, "sweep.run"), 5);
            step_calls.push((
                trace::calls(&spans, "vm.program"),
                trace::calls(&spans, "vm.sched"),
                trace::calls(&spans, "check.probe"),
            ));
        }
        assert_eq!(step_calls[0], step_calls[1], "counts repeat exactly");
    }

    #[test]
    fn seeds_map_onto_blocks_and_digests_see_every_field() {
        assert!((0..1000).all(|s| block(s) < BLOCKS));
        let mut blocks: Vec<u64> = (0..100).map(block).collect();
        blocks.sort_unstable();
        blocks.dedup();
        assert_eq!(blocks.len() as u64, BLOCKS, "100 seeds reach every block");
        let r = row(
            "ring:5",
            SweepScheduler::RoundRobin,
            3,
            4000,
            "clean".into(),
        );
        let mut other = r.clone();
        other.verdict = "DYN-RECOV-STAB".into();
        assert_ne!(digest(std::slice::from_ref(&r)), digest(&[other]));
        let mut out = Outcome::default();
        tally(&mut out, &[r], 0);
        assert_eq!(
            (out.attempted, out.failed),
            (1, 1),
            "a digest off its pin fails"
        );
    }
}
