//! `simsym faults`: seeded fault-injection sweeps over one family.

use crate::family::{by_flag, family_flag};
use crate::flags::{self, Kind};
use crate::{json_rows, CmdOut};
use simsym::check::{self, Diagnostic, FaultToleranceChecker};
use simsym::core::{hopcroft_similarity, selection_program_q, LabelLearner, Model};
use simsym::graph::SystemGraph;
use simsym::mp::{ChangRoberts, ChannelFaults, MpMachine, MpNetwork};
use simsym::vm::engine::sweep::{sweep_jobs, SweepConfig, SweepScheduler};
use simsym::vm::faults::{FaultEvent, FaultPlan, FaultSched, FaultView, Faulty, StarveAdversary};
use simsym::vm::{engine, InstructionSet, Machine, Program, SystemInit, Value};
use simsym_graph::ProcId;
use std::sync::Arc;

/// Options for `faults`.
pub struct FaultsOpts {
    pub family: String,
    pub plan: String,
    pub seed: u64,
    pub sweep: u64,
    pub steps: Option<u64>,
    pub journal: bool,
    pub json: bool,
}

impl FaultsOpts {
    fn parse(args: &[String]) -> Result<FaultsOpts, String> {
        let flags = flags::parse(
            args,
            &[
                flags::FAMILY,
                (
                    "--plan",
                    Kind::Enum("fault plan", &["crash", "lossy", "starve"]),
                ),
                flags::SEED,
                ("--sweep", Kind::Count("seed")),
                flags::STEPS,
                flags::JOURNAL,
                flags::JSON,
            ],
        )?;
        flags.no_rest("faults flag")?;
        let opts = FaultsOpts {
            family: family_flag(&flags, "faults")?,
            plan: flags
                .text("--plan")
                .ok_or("faults needs --plan <crash|lossy|starve>")?,
            seed: flags.u64("--seed").unwrap_or(0),
            sweep: flags.u64("--sweep").unwrap_or(1),
            steps: flags.u64("--steps"),
            journal: flags.on("--journal"),
            json: flags.on("--json"),
        };
        if opts.journal && opts.plan != "crash" {
            return Err("--journal only applies to --plan crash".into());
        }
        Ok(opts)
    }
}

/// One faulted run in a `faults` sweep: what happened, what was injected,
/// and what the fault-tolerance checker concluded.
#[derive(Default)]
pub struct FaultRunRow {
    pub scheduler: String,
    pub seed: u64,
    pub steps: u64,
    pub selected: Vec<ProcId>,
    pub crashed: Vec<ProcId>,
    pub crashes: usize,
    pub recoveries: usize,
    pub replayed: usize,
    pub dropped: usize,
    pub duplicated: usize,
    pub reordered: usize,
    pub diagnostics: Vec<Diagnostic>,
}

impl FaultRunRow {
    fn count_events(&mut self, events: &[FaultEvent]) {
        for ev in events {
            match ev {
                FaultEvent::Crashed { .. } => self.crashes += 1,
                FaultEvent::Recovered { .. } => self.recoveries += 1,
                FaultEvent::Replayed { .. } => self.replayed += 1,
                FaultEvent::MessageDropped { .. } => self.dropped += 1,
                FaultEvent::MessageDuplicated { .. } => self.duplicated += 1,
                FaultEvent::DeliveryReordered { .. } => self.reordered += 1,
                // FaultEvent is non-exhaustive; unknown kinds simply are
                // not tallied.
                _ => {}
            }
        }
    }
}

/// What every shared-memory fault plan runs: a family with p0
/// structurally marked so a Q selection algorithm exists, and that
/// program.
pub struct Selection {
    graph: Arc<SystemGraph>,
    init: SystemInit,
    prog: Arc<dyn Program>,
}

impl Selection {
    pub fn new(graph: SystemGraph) -> Result<Selection, String> {
        let init = SystemInit::with_marked(&graph, &[ProcId::new(0)]);
        let prog = selection_program_q(&graph, &init)
            .map_err(|e| e.to_string())?
            .ok_or("marked family admits no selection algorithm in Q")?;
        Ok(Selection {
            graph: Arc::new(graph),
            init,
            prog: Arc::new(prog),
        })
    }

    /// `family` at the size the fault sweeps run it.
    fn for_faults(family: &str) -> Result<Selection, String> {
        let (family, procs) = by_flag(family)?;
        Selection::new(family.build_procs(procs.faults)?)
    }

    /// The unique leader the labeling designates.
    pub fn leader(&self) -> Result<ProcId, String> {
        hopcroft_similarity(&self.graph, &self.init, Model::Q)
            .uniquely_labeled_processors()
            .first()
            .copied()
            .ok_or_else(|| "marked family has no uniquely labeled processor".to_owned())
    }

    /// A fresh machine running the selection program under `plan`,
    /// recovering from a stable-storage journal iff `journal`.
    pub fn faulty(&self, plan: FaultPlan, journal: bool) -> Faulty<Machine> {
        let (graph, prog) = (Arc::clone(&self.graph), Arc::clone(&self.prog));
        let m = Machine::new(graph, InstructionSet::Q, prog, &self.init)
            .expect("validated selection machine");
        if journal {
            Faulty::with_journal(m, plan, LabelLearner::journal_spec())
        } else {
            Faulty::new(m, plan)
        }
    }
}

fn faults_sweep_config(opts: &FaultsOpts, kinds: &[SweepScheduler], max_steps: u64) -> SweepConfig {
    SweepConfig {
        kinds: kinds.to_vec(),
        seeds: (opts.seed..opts.seed + opts.sweep).collect(),
        max_steps,
        threads: 4,
    }
}

/// `simsym faults`: a seeded fault-injection sweep. Exits nonzero when the
/// fault-tolerance checker reports any error-severity finding.
pub fn faults(args: &[String]) -> Result<CmdOut, String> {
    let opts = FaultsOpts::parse(args)?;
    let rows = match opts.plan.as_str() {
        "crash" => faults_crash(&opts)?,
        "lossy" => faults_lossy(&opts)?,
        "starve" => faults_starve(&opts)?,
        other => return Err(format!("unknown fault plan {other:?}")),
    };
    let failed = rows
        .iter()
        .flat_map(|r| &r.diagnostics)
        .any(|d| d.severity == check::Severity::Error);
    let text = if opts.json {
        faults_render_json(&opts, &rows)
    } else {
        faults_render_text(&opts, &rows)
    };
    Ok(CmdOut { text, failed })
}

/// Crash/recovery plan: the Q selection program under seeded crash-stop
/// and crash-recovery faults. The leader is protected; everyone else may
/// crash, and may come back with or without a state reset. Uniqueness
/// must survive (a dead loser cannot un-compete); selection itself need
/// not — crashes make the schedule General, which is the paper's
/// impossibility regime, so `selected` may honestly stay empty.
///
/// With `--journal` the adversary is strictly harder and the bar
/// strictly higher: *every* processor (the leader included — one
/// arbitrary loser is protected so a schedule survives) crashes and
/// recovers by replaying its stable-storage journal, and the checker
/// runs strict, so any selection lost across a reboot is a
/// `DYN-RECOV-STAB` error. The journal is what makes that bar meetable.
pub fn faults_crash(opts: &FaultsOpts) -> Result<Vec<FaultRunRow>, String> {
    let sel = Selection::for_faults(&opts.family)?;
    let (procs, leader) = (sel.graph.processor_count(), sel.leader()?);
    let max_steps = opts.steps.unwrap_or(4_000);
    // Crashes land in the first quarter so recoveries (at most one more
    // horizon later) still play out inside the run.
    let horizon = (max_steps / 4).max(1);
    let survivor = ProcId::new((leader.index() + 1) % procs);
    let config = faults_sweep_config(
        opts,
        &[SweepScheduler::RoundRobin, SweepScheduler::RandomFair],
        max_steps,
    );
    Ok(sweep_jobs(&config, |kind, seed| {
        let (mut f, mut checker) = if opts.journal {
            let plan = FaultPlan::seeded_crash_resets(procs, &[survivor], seed, horizon)
                .with_replay_recoveries();
            (sel.faulty(plan, true), FaultToleranceChecker::strict())
        } else {
            let plan = FaultPlan::seeded_crashes(procs, &[leader], seed, horizon);
            (sel.faulty(plan, false), FaultToleranceChecker::new())
        };
        let mut sched = FaultSched::new(kind.scheduler::<Faulty<Machine>>(procs, seed));
        let report = engine::run(
            &mut f,
            &mut sched,
            max_steps,
            &mut [&mut checker],
            &mut engine::stop::Never,
        );
        let mut row = FaultRunRow {
            scheduler: kind.label(),
            seed,
            steps: report.steps,
            selected: report.selected,
            crashed: (0..procs)
                .map(ProcId::new)
                .filter(|&p| f.is_crashed(p))
                .collect(),
            diagnostics: checker.into_diagnostics(),
            ..FaultRunRow::default()
        };
        row.count_events(f.fault_events());
        row
    }))
}

/// Lossy-channel plan: Chang-Roberts election on a unidirectional message
/// ring whose channels drop, duplicate, and reorder under a seeded policy.
/// Uniqueness must survive; the election token may legitimately be lost,
/// in which case nobody is elected.
pub fn faults_lossy(opts: &FaultsOpts) -> Result<Vec<FaultRunRow>, String> {
    let n = by_flag(&opts.family)?.1.faults;
    let net = Arc::new(MpNetwork::ring_unidirectional(n));
    // Distinct ids with the maximum away from p0, so the winning token
    // has to travel through faulty channels.
    let ids: Vec<Value> = (0..n)
        .map(|i| Value::from(((i + 2) % n + 1) as i64))
        .collect();
    let policy = ChannelFaults::new(10, 15, 20);
    let max_steps = opts.steps.unwrap_or(20_000);
    let config = faults_sweep_config(
        opts,
        &[SweepScheduler::RoundRobin, SweepScheduler::RandomFair],
        max_steps,
    );
    Ok(sweep_jobs(&config, |kind, seed| {
        let mut m = MpMachine::new(Arc::clone(&net), Arc::new(ChangRoberts), &ids)
            .with_channel_faults(policy, seed);
        let mut sched = kind.scheduler::<MpMachine>(n, seed);
        let mut checker = FaultToleranceChecker::new();
        let report = engine::run(
            &mut m,
            &mut sched,
            max_steps,
            &mut [&mut checker],
            &mut engine::stop::AnySelected,
        );
        let mut row = FaultRunRow {
            scheduler: kind.label(),
            seed,
            steps: report.steps,
            selected: report.selected,
            diagnostics: checker.into_diagnostics(),
            ..FaultRunRow::default()
        };
        row.count_events(m.channel_fault_events());
        row
    }))
}

/// Starvation plan: the k-bounded-fair adversary denies the leader every
/// step it legally can. Because the schedule stays inside the
/// k-bounded-fair class, selection must still complete — this is the
/// boundary Theorem 1's bound draws, probed from the inside.
pub fn faults_starve(opts: &FaultsOpts) -> Result<Vec<FaultRunRow>, String> {
    let sel = Selection::for_faults(&opts.family)?;
    let (procs, leader) = (sel.graph.processor_count(), sel.leader()?);
    let max_steps = opts.steps.unwrap_or(20_000);
    let config = faults_sweep_config(opts, &[SweepScheduler::RoundRobin], max_steps);
    Ok(sweep_jobs(&config, |_kind, seed| {
        // k grows with the seed: seed 0 probes the tightest legal window
        // (k = n, the target runs exactly once per n steps).
        let k = procs + seed as usize;
        let mut f = sel.faulty(FaultPlan::none(), false);
        let mut sched = StarveAdversary::new(procs, leader, k);
        let mut checker = FaultToleranceChecker::new();
        let report = engine::run(
            &mut f,
            &mut sched,
            max_steps,
            &mut [&mut checker],
            &mut engine::stop::AnySelected,
        );
        let mut row = FaultRunRow {
            scheduler: format!("starve(k={k})"),
            seed,
            steps: report.steps,
            selected: report.selected,
            diagnostics: checker.into_diagnostics(),
            ..FaultRunRow::default()
        };
        row.count_events(f.fault_events());
        row
    }))
}

/// Elections, then Uniqueness and Stability violations, across `rows`.
fn faults_summary(rows: &[FaultRunRow]) -> (usize, usize, usize) {
    let count = |code: &str| {
        rows.iter()
            .flat_map(|r| &r.diagnostics)
            .filter(|d| d.code == code)
            .count()
    };
    (
        rows.iter().filter(|r| !r.selected.is_empty()).count(),
        count(check::diag::codes::DYN_FAULT_UNIQ),
        // A selection lost across a reboot is a Stability violation too —
        // the strict/journaled paths report it as DYN-RECOV-STAB.
        count(check::diag::codes::DYN_FAULT_STAB) + count(check::diag::codes::DYN_RECOV_STAB),
    )
}

/// Renders the `simsym-faults/v1` JSON document. Deterministic: identical
/// invocations are byte-identical.
fn faults_render_json(opts: &FaultsOpts, rows: &[FaultRunRow]) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"simsym-faults/v1\",\n  \"family\": \"{}\",\n  \"plan\": \"{}\",\n  \"runs\": [\n",
        opts.family, opts.plan
    );
    out.push_str(&json_rows(rows.iter().map(|r| {
        let sel: Vec<String> = r.selected.iter().map(|p| p.index().to_string()).collect();
        let cra: Vec<String> = r.crashed.iter().map(|p| p.index().to_string()).collect();
        let diags: Vec<String> = r.diagnostics.iter().map(|d| d.to_json()).collect();
        format!(
            "    {{\"scheduler\": \"{}\", \"seed\": {}, \"steps\": {}, \"selected\": [{}], \"crashed\": [{}], \"events\": {{\"crashes\": {}, \"recoveries\": {}, \"replayed\": {}, \"dropped\": {}, \"duplicated\": {}, \"reordered\": {}}}, \"diagnostics\": [{}]}}",
            r.scheduler,
            r.seed,
            r.steps,
            sel.join(", "),
            cra.join(", "),
            r.crashes,
            r.recoveries,
            r.replayed,
            r.dropped,
            r.duplicated,
            r.reordered,
            diags.join(","),
        )
    })));
    let (elections, uniq, stab) = faults_summary(rows);
    out.push_str(&format!(
        "  ],\n  \"summary\": {{\"runs\": {}, \"elections\": {}, \"uniqueness_violations\": {}, \"stability_violations\": {}}}\n}}\n",
        rows.len(),
        elections,
        uniq,
        stab
    ));
    out
}

fn faults_render_text(opts: &FaultsOpts, rows: &[FaultRunRow]) -> String {
    let mut out = format!(
        "fault sweep: family={} plan={} seeds {}..{}\n",
        opts.family,
        opts.plan,
        opts.seed,
        opts.seed + opts.sweep
    );
    for r in rows {
        let sel: Vec<String> = r
            .selected
            .iter()
            .map(|p| format!("p{}", p.index()))
            .collect();
        let cra: Vec<String> = r
            .crashed
            .iter()
            .map(|p| format!("p{}", p.index()))
            .collect();
        out.push_str(&format!(
            "  {:<20} seed={:<4} {:>6} steps  selected [{}]  crashed [{}]  crashes={} recoveries={} replayed={} dropped={} duplicated={} reordered={}\n",
            r.scheduler,
            r.seed,
            r.steps,
            sel.join(" "),
            cra.join(" "),
            r.crashes,
            r.recoveries,
            r.replayed,
            r.dropped,
            r.duplicated,
            r.reordered
        ));
        for d in &r.diagnostics {
            out.push_str(&format!("    {d}\n"));
        }
    }
    let (elections, uniq, stab) = faults_summary(rows);
    out.push_str(&format!(
        "summary: {} runs, {} elections, {} uniqueness violation(s), {} stability violation(s)\n",
        rows.len(),
        elections,
        uniq,
        stab
    ));
    out
}
