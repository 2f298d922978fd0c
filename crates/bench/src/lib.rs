//! Every experiment of `EXPERIMENTS.md` (E1–E11): one section per
//! figure/theorem of the paper, with measured values.
//!
//! Each experiment writes its section of the `experiments` report and
//! checks the paper's claims it measures: it returns `Err` naming the
//! first claim that fails. `tests/claims.rs` runs every experiment but
//! E3 (whose rows are timings) and compares each section byte for byte
//! against `tests/golden/experiments.txt`.

use simsym_check::fixtures::grab_machine;
use simsym_core::{
    decide_selection, decide_selection_with_init, fair_s_selection_possible, hopcroft_similarity,
    measure_randomized_selection, mimicry_matrix, power_table, refinement_similarity,
    render_power_table, selection_program_q, separation_witnesses, Algorithm3, Algorithm4, Family,
    LabelLearner, Model, DEFAULT_OUTCOME_BUDGET,
};
use simsym_graph::{topology, ProcId, SystemGraph};
use simsym_mp::{mp_similarity, reduced_similarity, same_partition, MpModel, MpNetwork};
use simsym_philo::{
    chandy_misra_init, measure_lehmann_rabin, ChandyMisraPhilosopher, ExclusionMonitor,
    LehmannRabinPhilosopher, LockOrderPhilosopher, MealCounter,
};
use simsym_vm::engine::sweep::{sweep, SweepConfig, SweepScheduler};
use simsym_vm::{
    explore, find_double_selection, run, run_until, ExploreConfig, FnProgram, InstructionSet,
    Machine, Program, RandomFair, RoundRobin, SimilarityObserver, SystemInit, Value,
};
use std::sync::Arc;
use std::time::Instant;

/// Writes the body of an experiment's section and checks its claims:
/// `Err` names the first claim that fails.
pub type Body = fn(&mut String) -> Result<(), String>;

/// The report's first lines, before any section.
pub const BANNER: &str = "simsym experiments — Johnson & Schneider, PODC 1985\n\
                          ===================================================\n\n";

/// Every experiment, in run order: its id, its section title, its body.
#[rustfmt::skip]
pub const EXPERIMENTS: [(&str, &str, Body); 11] = [
    ("e1", "Theorem 1 — no selection in S under general schedules", e1),
    ("e2", "Figure 1 / Theorem 2 — round-robin forces similarity", e2),
    ("e3", "Theorem 5 — naive vs worklist similarity computation", e3),
    ("e4", "Figure 2 / Theorem 6 — distributed label learning (Algorithm 2)", e4),
    ("e5", "Theorem 7 / Algorithm 3 — homogeneous families and ELITE", e5),
    ("e6", "Theorems 8-9 / Algorithm 4 — selection in L", e6),
    ("e7", "Figure 3 / §6 — fair-S mimicry", e7),
    ("e8", "Figures 4-5 / DP & DP' — dining philosophers", e8),
    ("e9", "§8 — the added power of randomization", e9),
    ("e10", "§6 — message passing", e10),
    ("e11", "§9 — the model-power hierarchy", e11),
];

/// Runs experiment `id`: its section of the report, and `Err` naming
/// the first claim that failed. `None` for an unknown id.
pub fn report(id: &str) -> Option<(String, Result<(), String>)> {
    let (_, title, body) = EXPERIMENTS.iter().find(|(e, _, _)| *e == id)?;
    let id = id.to_uppercase();
    let mut out = format!("--- {id}: {title} ---\n");
    let verdict = body(&mut out).map_err(|claim| format!("{id}: {claim}"));
    out.push('\n');
    Some((out, verdict))
}

/// Appends one formatted line to a section.
macro_rules! say {
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        writeln!($out, $($arg)*).expect("writing to a String cannot fail")
    }};
}

/// `Ok` when the claim holds, else `Err` naming it.
fn claim(holds: bool, what: &str) -> Result<(), String> {
    holds.then_some(()).ok_or_else(|| what.to_owned())
}

/// E1: the Theorem 1 strawman (grab the variable if it is still unset)
/// is defeated both by exhaustive exploration and by the proof's `ε·p·ρ`
/// adversary.
fn e1(out: &mut String) -> Result<(), String> {
    let fresh = || {
        let g = Arc::new(topology::figure1());
        let init = SystemInit::uniform(&g);
        grab_machine(g, &init)
    };
    let res = explore(&fresh(), ExploreConfig::default());
    let (states, truncated) = (res.states_visited, res.truncated);
    let double = res.has_double_selection();
    say!(
        out,
        "  exhaustive exploration of candidate 'grab-flag' on Fig. 1:"
    );
    say!(out, "    states visited: {states}, truncated: {truncated}");
    say!(out, "    double selection reachable: {double}");
    claim(!truncated, "the exploration is exhaustive")?;
    claim(double, "a double selection is reachable")?;
    let w = find_double_selection(fresh, 10_000).ok_or("the adversary wins")?;
    let (steps, selected) = (w.schedule.len(), &w.selected);
    say!(
        out,
        "  constructive ε·p·ρ adversary: schedule of {steps} steps selects {selected:?}"
    );
    let mut replay = fresh();
    for &p in &w.schedule {
        replay.step(p);
    }
    let replayed = selected.len() >= 2 && replay.selected_count() >= 2;
    claim(replayed, "the adversary's schedule replays")
}

/// E2: round-robin keeps Fig. 1's similar processors in lockstep, so no
/// selection exists in Q.
fn e2(out: &mut String) -> Result<(), String> {
    let g = Arc::new(topology::figure1());
    let init = SystemInit::uniform(&g);
    let theta = hopcroft_similarity(&g, &init, Model::Q);
    let classes = theta.proc_classes().len();
    say!(
        out,
        "  processor similarity classes: {classes} (processors share one label)"
    );
    claim(classes == 1, "the processors form one similarity class")?;
    let prog: Arc<dyn Program> = Arc::new(FnProgram::new("poster", |local, ops| {
        let n = ops.name("n");
        ops.post(n, Value::from(i64::from(local.pc)));
        local.pc = local.pc.wrapping_add(1);
    }));
    let mut m = Machine::new(Arc::clone(&g), InstructionSet::Q, prog, &init).unwrap();
    let mut obs = SimilarityObserver::new(vec![g.processors().collect()], 2);
    let _ = run(&mut m, &mut RoundRobin::new(), 1_000, &mut [&mut obs]);
    let rate = obs.coincidence_rate();
    let shown = rate.map_or("none".to_owned(), |r| format!("{r:?}"));
    say!(
        out,
        "  round-robin state-coincidence rate over 500 rounds: {shown}"
    );
    claim(rate == Some(1.0), "round-robin keeps the states coincident")?;
    let impossible = !decide_selection(&g, Model::Q).possible();
    say!(
        out,
        "  ⇒ no selection algorithm exists (Theorem 2): decided {impossible}"
    );
    claim(impossible, "selection is impossible in Q")
}

/// E3: naive refinement and the worklist (Hopcroft) labeler agree; the
/// rows time both.
fn e3(out: &mut String) -> Result<(), String> {
    say!(
        out,
        "  workload            naive (ms) hopcroft (ms)   speedup"
    );
    for n in [64usize, 256, 1024, 4096] {
        let g = topology::marked_ring(n);
        let init = SystemInit::uniform(&g);
        let t0 = Instant::now();
        let a = refinement_similarity(&g, &init, Model::Q);
        let naive = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let b = hopcroft_similarity(&g, &init, Model::Q);
        let fast = t1.elapsed().as_secs_f64() * 1e3;
        let workload = format!("marked-ring/{n}");
        let speedup = naive / fast;
        say!(
            out,
            "  {workload:<18}{naive:>12.2}{fast:>14.2}{speedup:>9.1}x"
        );
        claim(a == b, "naive refinement and Hopcroft agree")?;
    }
    Ok(())
}

/// E4: Algorithm 2 teaches every processor its similarity label.
fn e4(out: &mut String) -> Result<(), String> {
    say!(out, "  system               procs  steps to learn");
    for (name, g) in [
        ("figure2", topology::figure2()),
        ("marked-ring/4", topology::marked_ring(4)),
        ("marked-ring/8", topology::marked_ring(8)),
        ("marked-ring/16", topology::marked_ring(16)),
        ("line/8", topology::line(8)),
    ] {
        let init = SystemInit::uniform(&g);
        let theta = hopcroft_similarity(&g, &init, Model::Q);
        let prog = Arc::new(LabelLearner::new(&g, &init, &theta).unwrap());
        let mut m = Machine::new(Arc::new(g.clone()), InstructionSet::Q, prog, &init).unwrap();
        let report = run_until(&mut m, &mut RoundRobin::new(), 10_000_000, &mut [], |m| {
            m.graph()
                .processors()
                .all(|p| LabelLearner::is_done(m.local(p)))
        });
        let correct = g
            .processors()
            .all(|p| LabelLearner::learned_label(m.local(p)) == Some(theta.proc_label(p)));
        let (procs, steps) = (g.processor_count(), report.steps);
        say!(
            out,
            "  {name:<18}{procs:>8}{steps:>16}   correct: {correct}"
        );
        claim(correct, "every processor learns its own label")?;
    }
    Ok(())
}

/// E5: one Algorithm 3 program elects on every member of a family with
/// an ELITE; a family with a fully symmetric member has none.
fn e5(out: &mut String) -> Result<(), String> {
    let g = topology::uniform_ring(3);
    let mut a = SystemInit::uniform(&g);
    a.proc_values[0] = Value::from(1);
    let mut b = SystemInit::uniform(&g);
    b.proc_values[1] = Value::from(2);
    let family = Family::new(g.clone(), vec![a.clone(), b.clone()]).unwrap();
    let elite = family.elite(Model::Q).map(|e| e.labels);
    say!(out, "  family of 2 marked 3-rings: ELITE = {elite:?}");
    let prog = Algorithm3::for_family(&family).unwrap();
    let prog: Arc<dyn Program> = Arc::new(prog.ok_or("the family admits selection")?);
    for (i, member) in [a, b].iter().enumerate() {
        let g = Arc::new(g.clone());
        let mut m = Machine::new(g, InstructionSet::Q, Arc::clone(&prog), member).unwrap();
        let report = run_until(&mut m, &mut RoundRobin::new(), 1_000_000, &mut [], |m| {
            m.selected_count() >= 1
        });
        let (elected, steps) = (m.selected(), report.steps);
        say!(out, "  member {i}: elected {elected:?} after {steps} steps");
        claim(
            elected.len() == 1,
            "each member elects exactly one processor",
        )?;
    }
    let marked = SystemInit::with_marked(&g, &[ProcId::new(0)]);
    let bad = Family::new(g.clone(), vec![marked, SystemInit::uniform(&g)]).unwrap();
    let bad_elite = bad.elite(Model::Q).is_some();
    say!(
        out,
        "  family with a fully-symmetric member: ELITE exists = {bad_elite}"
    );
    claim(!bad_elite, "a fully symmetric member leaves no ELITE")
}

/// E6: Algorithm 4 elects in L where Q cannot, always uniquely.
fn e6(out: &mut String) -> Result<(), String> {
    let g = topology::figure1();
    let init = SystemInit::uniform(&g);
    let in_q = decide_selection(&g, Model::Q);
    let in_l = decide_selection(&g, Model::L);
    say!(out, "  figure1 in Q: {in_q}");
    say!(out, "  figure1 in L: {in_l}");
    claim(
        !in_q.possible() && in_l.possible(),
        "Fig. 1 is solvable from L, not Q",
    )?;
    let k = 4;
    let plan = Algorithm4::plan(&g, &init, k, false, DEFAULT_OUTCOME_BUDGET).unwrap();
    let prog: Arc<dyn Program> = Arc::new(plan.program.ok_or("Algorithm 4 solves Fig. 1")?);
    let trials = 20;
    let graph = Arc::new(g);
    let fresh = || {
        Machine::new(
            Arc::clone(&graph),
            InstructionSet::L,
            Arc::clone(&prog),
            &init,
        )
    };
    let schedulers = vec![SweepScheduler::BoundedFair { k }];
    let report = sweep(
        || fresh().unwrap(),
        &SweepConfig::new(schedulers, trials, 2_000_000, 4),
    );
    let mut wins = [0u32; 2];
    for o in &report.outcomes {
        claim(o.clean_selection, "every run elects exactly one processor")?;
        wins[o.selected[0].index()] += 1;
    }
    let [p0, p1] = wins;
    say!(out, "  {trials} runs under 4-bounded-fair schedules: wins p0={p0} p1={p1} (schedule-dependent, always unique)");
    for s in report.stats() {
        let (scheduler, rate) = (&s.scheduler, s.selection_rate);
        let mean = s.mean_steps_to_selection.unwrap_or(f64::NAN);
        say!(
            out,
            "  sweep[{scheduler}]: selection rate {rate:.2}, mean steps to selection {mean:.1}"
        );
    }
    let ring3 = decide_selection(&topology::uniform_ring(3), Model::L);
    let ring2 = decide_selection(&topology::uniform_ring(2), Model::LStar);
    say!(out, "  uniform 3-ring in L: {ring3}");
    say!(out, "  2-ring in L*: {ring2}");
    claim(!ring3.possible(), "the uniform 3-ring is unsolvable in L")?;
    claim(ring2.possible(), "the 2-ring is solvable in L*")
}

/// E7: with `z` marked, `z` mimics no other processor of Fig. 3, so
/// fair-S selection is possible.
fn e7(out: &mut String) -> Result<(), String> {
    let g = topology::figure3();
    let init = SystemInit::with_marked(&g, &[ProcId::new(2)]);
    say!(
        out,
        "  mimicry matrix (x mimics y) for Fig. 3 with z marked:"
    );
    for (x, row) in mimicry_matrix(&g, &init, 1 << 12).iter().enumerate() {
        let marks: Vec<&str> = row.iter().map(|&b| if b { "X" } else { "." }).collect();
        say!(out, "    p{x}: {}", marks.join(" "));
    }
    let fair_s = fair_s_selection_possible(&g, &init, 1 << 12);
    say!(
        out,
        "  fair-S selection possible: {fair_s} (z mimics no other)"
    );
    claim(fair_s, "fair-S selection is possible")?;
    let bounded = decide_selection_with_init(&g, &init, Model::BoundedFairS);
    say!(out, "  bounded-fair-S: {bounded}");
    Ok(())
}

/// A dining program of E8: how its table is laid and set, and the seed
/// of its coins, if it flips any.
struct Dining {
    table: fn(usize) -> SystemGraph,
    init: fn(&SystemGraph) -> SystemInit,
    program: Arc<dyn Program>,
    coins: Option<u64>,
}

impl Dining {
    /// Runs `n` philosophers for `steps` round-robin steps under the
    /// exclusion monitor: the meals eaten, and whether exclusion was
    /// violated.
    fn run(&self, n: usize, steps: u64) -> (MealCounter, bool) {
        let g = Arc::new((self.table)(n));
        let init = (self.init)(&g);
        let prog = Arc::clone(&self.program);
        let mut m = Machine::new(Arc::clone(&g), InstructionSet::L, prog, &init).unwrap();
        if let Some(seed) = self.coins {
            m = m.with_randomness(seed);
        }
        let mut meals = MealCounter::new(n);
        let mut excl = ExclusionMonitor::new(&g);
        let r = run(
            &mut m,
            &mut RoundRobin::new(),
            steps,
            &mut [&mut excl, &mut meals],
        );
        (meals, r.violation.is_some())
    }
}

/// E8: the symmetric program deadlocks on the prime table; DP′,
/// Chandy–Misra and Lehmann–Rabin feed everyone without violating
/// exclusion.
fn e8(out: &mut String) -> Result<(), String> {
    let dining = |table, init, program: Arc<dyn Program>, coins| Dining {
        table,
        init,
        program,
        coins,
    };
    let lock_order = || Arc::new(LockOrderPhilosopher::new(3, 2));
    let uniform = SystemInit::uniform;
    let dp = dining(topology::philosophers_table, uniform, lock_order(), None);
    let (meals, violated) = dp.run(5, 30_000);
    let total = meals.total();
    say!(out, "  DP  5-table lock-order: meals={total} violation={violated:?}  (deadlock: the similarity trap)");
    claim(total == 0 && !violated, "the symmetric program deadlocks")?;
    say!(
        out,
        "  solution                         n     meals/20k   min meals  fairness"
    );
    let table = topology::philosophers_table;
    #[rustfmt::skip]
    let solutions = [
        ("DP' alternating", [6, 10, 14],
            dining(topology::philosophers_alternating, uniform, lock_order(), None)),
        ("Chandy-Misra", [5, 9, 13],
            dining(table, chandy_misra_init, Arc::new(ChandyMisraPhilosopher::new(2, 2)), None)),
        ("Lehmann-Rabin", [5, 9, 13],
            dining(table, uniform, Arc::new(LehmannRabinPhilosopher::new(2, 2)), Some(7))),
    ];
    for (solution, sizes, dining) in solutions {
        for n in sizes {
            let (meals, violated) = dining.run(n, 20_000);
            let (total, min, fairness) = (meals.total(), meals.minimum(), meals.fairness());
            say!(
                out,
                "  {solution:<26}{n:>8}{total:>14}{min:>12}{fairness:>10.3}"
            );
            claim(!violated && min > 0, "each solution feeds everyone safely")?;
        }
    }
    Ok(())
}

/// E9: coins elect where no deterministic program can, and Lehmann–Rabin
/// feeds every philosopher.
fn e9(out: &mut String) -> Result<(), String> {
    say!(
        out,
        "  randomized selection where deterministic selection is impossible:"
    );
    say!(
        out,
        "  system            trials   successes   mean rounds    mean steps"
    );
    let trials = 30;
    for n in [2usize, 4, 8, 16] {
        let (name, g) = match n {
            2 => ("figure1".to_owned(), topology::figure1()),
            _ => (format!("star/{n}"), topology::star(n)),
        };
        claim(
            !decide_selection(&g, Model::Q).possible(),
            "no deterministic selection",
        )?;
        let stats = measure_randomized_selection(&g, n + 2, trials, 2_000_000);
        let (wins, rounds, steps) = (stats.successes, stats.mean_rounds, stats.mean_steps);
        say!(
            out,
            "  {name:<14}{trials:>10}{wins:>12}{rounds:>14.2}{steps:>14.1}"
        );
        claim(stats.violations == 0, "randomized selection is safe")?;
    }
    say!(
        out,
        "  Lehmann-Rabin on the 5-table (20 seeds, 40k steps each):"
    );
    let mut min_meals = u64::MAX;
    let mut total = 0u64;
    for seed in 0..20 {
        let s = measure_lehmann_rabin(5, seed, 40_000);
        claim(!s.violated, "Lehmann-Rabin keeps exclusion")?;
        min_meals = min_meals.min(s.min_meals());
        total += s.total_meals();
    }
    say!(out, "    total meals {total}, minimum per-philosopher over all seeds: {min_meals} (> 0: starvation-free w.p. 1)");
    claim(min_meals > 0, "Lehmann-Rabin feeds every philosopher")
}

/// E10: the reduction of message passing to Q agrees with the direct
/// similarity rule.
fn e10(out: &mut String) -> Result<(), String> {
    let ring = MpNetwork::ring_bidirectional(5);
    let uniform = vec![Value::Unit; 5];
    let direct = mp_similarity(&ring, &uniform, MpModel::AsyncBidirectional);
    let reduced = reduced_similarity(&ring, &uniform);
    let direct_labels: Vec<_> = ring.processors().map(|p| direct.proc_label(p)).collect();
    let classes = direct.class_count();
    let agrees = same_partition(&direct_labels, &reduced);
    say!(out, "  bidirectional 5-ring: direct similarity classes = {classes}, reduction-to-Q agrees = {agrees}");
    claim(agrees, "the reduction to Q agrees with the direct rule")?;
    let chain = MpNetwork::chain(4);
    let d = mp_similarity(&chain, &vec![Value::Unit; 4], MpModel::AsyncUnidirectional);
    say!(out, "  unidirectional chain of 4 (not strongly connected): {} classes — but fair-S-like mimicry applies", d.class_count());
    let uni = MpNetwork::ring_unidirectional(6);
    let mut init = vec![Value::Unit; 6];
    init[3] = Value::from(5);
    let l = mp_similarity(&uni, &init, MpModel::AsyncUnidirectional);
    say!(
        out,
        "  unidirectional 6-ring with one mark: {} classes (fully split)",
        l.class_count()
    );
    Ok(())
}

/// E11: each witness system is solvable in exactly the models from its
/// declared weakest one up, so every inequality of the hierarchy is
/// strict.
fn e11(out: &mut String) -> Result<(), String> {
    let witnesses = separation_witnesses();
    let rows: Vec<_> = witnesses
        .iter()
        .map(|w| (w.name, &w.graph, &w.init))
        .collect();
    let table = power_table(&rows);
    say!(out, "{}", render_power_table(&table));
    for (w, row) in witnesses.iter().zip(&table) {
        let from = |m| w.weakest_solving.is_some_and(|weakest| m >= weakest);
        let exact = row.decisions.iter().all(|d| d.possible() == from(d.model));
        claim(
            exact,
            &format!("{} is solvable from its weakest model up", w.name),
        )?;
    }
    // SELECT sanity: figure2 elects its unique processor in Q.
    let fig2 = topology::figure2();
    let init2 = SystemInit::uniform(&fig2);
    let prog = Arc::new(selection_program_q(&fig2, &init2).unwrap().unwrap());
    let mut m = Machine::new(Arc::new(fig2), InstructionSet::Q, prog, &init2).unwrap();
    let mut sched = RandomFair::seeded(3);
    let _ = run_until(&mut m, &mut sched, 100_000, &mut [], |m| {
        m.selected_count() >= 1
    });
    say!(out, "  SELECT(figure2) elected {:?}", m.selected());
    claim(
        m.selected().len() == 1,
        "SELECT(figure2) elects one processor",
    )
}
