//! Regenerates every experiment of `EXPERIMENTS.md` (E1–E11): one section
//! per figure/theorem of the paper, with measured values.
//!
//! ```sh
//! cargo run --release -p simsym-bench --bin experiments          # all
//! cargo run --release -p simsym-bench --bin experiments e3 e8   # subset
//! ```

use simsym_core::{
    decide_selection, decide_selection_with_init, fair_s_selection_possible, hopcroft_similarity,
    measure_randomized_selection, mimicry_matrix, power_table, refinement_similarity,
    render_power_table, selection_program_q, Algorithm3, Algorithm4, Family, LabelLearner, Model,
    DEFAULT_OUTCOME_BUDGET,
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

/// Every experiment, by id, in run order.
const EXPERIMENTS: [(&str, fn()); 11] = [
    ("e1", e1),
    ("e2", e2),
    ("e3", e3),
    ("e4", e4),
    ("e5", e5),
    ("e6", e6),
    ("e7", e7),
    ("e8", e8),
    ("e9", e9),
    ("e10", e10),
    ("e11", e11),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    if let Some(bad) = args
        .iter()
        .find(|a| !EXPERIMENTS.iter().any(|(id, _)| id == a))
    {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        eprintln!("experiments: unknown experiment id {bad:?}");
        eprintln!("usage: experiments [{}]...", ids.join("|"));
        eprintln!("       (no id runs them all)");
        std::process::exit(2);
    }
    println!("simsym experiments — Johnson & Schneider, PODC 1985");
    println!("===================================================\n");
    for (id, run) in EXPERIMENTS {
        if args.is_empty() || args.iter().any(|a| a == id) {
            run();
        }
    }
}

fn header(id: &str, title: &str) {
    println!("--- {id}: {title} ---");
}

fn e1() {
    header(
        "E1",
        "Theorem 1 — no selection in S under general schedules",
    );
    let grab: Arc<dyn Program> = Arc::new(FnProgram::new("grab-flag", |local, ops| {
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
                    local.pc = 3;
                }
            }
            2 => {
                local.selected = true;
                local.pc = 3;
            }
            _ => {}
        }
    }));
    let fresh = || {
        let g = Arc::new(topology::figure1());
        let init = SystemInit::uniform(&g);
        Machine::new(g, InstructionSet::S, Arc::clone(&grab), &init).unwrap()
    };
    let res = explore(&fresh(), ExploreConfig::default());
    println!("  exhaustive exploration of candidate 'grab-flag' on Fig. 1:");
    println!(
        "    states visited: {}, truncated: {}",
        res.states_visited, res.truncated
    );
    println!(
        "    double selection reachable: {}",
        res.has_double_selection()
    );
    let w = find_double_selection(fresh, 10_000).expect("adversary wins");
    println!(
        "  constructive ε·p·ρ adversary: schedule of {} steps selects {:?}",
        w.schedule.len(),
        w.selected
    );
    println!();
}

fn e2() {
    header("E2", "Figure 1 / Theorem 2 — round-robin forces similarity");
    let g = Arc::new(topology::figure1());
    let init = SystemInit::uniform(&g);
    let theta = hopcroft_similarity(&g, &init, Model::Q);
    println!(
        "  similarity classes: {} (processors share one label)",
        theta.class_count()
    );
    let prog: Arc<dyn Program> = Arc::new(FnProgram::new("poster", |local, ops| {
        let n = ops.name("n");
        ops.post(n, Value::from(i64::from(local.pc)));
        local.pc = local.pc.wrapping_add(1);
    }));
    let mut m = Machine::new(Arc::clone(&g), InstructionSet::Q, prog, &init).unwrap();
    let mut obs = SimilarityObserver::new(vec![g.processors().collect()], 2);
    let _ = run(&mut m, &mut RoundRobin::new(), 1_000, &mut [&mut obs]);
    println!(
        "  round-robin state-coincidence rate over 500 rounds: {:?}",
        obs.coincidence_rate()
    );
    println!(
        "  ⇒ no selection algorithm exists (Theorem 2): decided {}",
        !decide_selection(&g, Model::Q).possible()
    );
    println!();
}

fn e3() {
    header("E3", "Theorem 5 — naive vs worklist similarity computation");
    println!(
        "  {:<18}{:>12}{:>14}{:>10}",
        "workload", "naive (ms)", "hopcroft (ms)", "speedup"
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
        assert_eq!(a, b);
        println!(
            "  {:<18}{:>12.2}{:>14.2}{:>9.1}x",
            format!("marked-ring/{n}"),
            naive,
            fast,
            naive / fast
        );
    }
    println!();
}

fn e4() {
    header(
        "E4",
        "Figure 2 / Theorem 6 — distributed label learning (Algorithm 2)",
    );
    println!("  {:<18}{:>8}{:>16}", "system", "procs", "steps to learn");
    for (name, g) in [
        ("figure2".to_owned(), topology::figure2()),
        ("marked-ring/4".to_owned(), topology::marked_ring(4)),
        ("marked-ring/8".to_owned(), topology::marked_ring(8)),
        ("marked-ring/16".to_owned(), topology::marked_ring(16)),
        ("line/8".to_owned(), topology::line(8)),
    ] {
        let init = SystemInit::uniform(&g);
        let theta = hopcroft_similarity(&g, &init, Model::Q);
        let prog = Arc::new(LabelLearner::new(&g, &init, &theta).unwrap());
        let mut m = Machine::new(Arc::new(g.clone()), InstructionSet::Q, prog, &init).unwrap();
        let mut sched = RoundRobin::new();
        let report = run_until(&mut m, &mut sched, 10_000_000, &mut [], |mach| {
            mach.graph()
                .processors()
                .all(|p| LabelLearner::is_done(mach.local(p)))
        });
        let correct = m
            .graph()
            .processors()
            .all(|p| LabelLearner::learned_label(m.local(p)) == Some(theta.proc_label(p)));
        println!(
            "  {:<18}{:>8}{:>16}   correct: {}",
            name,
            g.processor_count(),
            report.steps,
            correct
        );
    }
    println!();
}

fn e5() {
    header(
        "E5",
        "Theorem 7 / Algorithm 3 — homogeneous families and ELITE",
    );
    let g = topology::uniform_ring(3);
    let mut a = SystemInit::uniform(&g);
    a.proc_values[0] = Value::from(1);
    let mut b = SystemInit::uniform(&g);
    b.proc_values[1] = Value::from(2);
    let family = Family::new(g.clone(), vec![a.clone(), b.clone()]).unwrap();
    let elite = family.elite(Model::Q);
    println!(
        "  family of 2 marked 3-rings: ELITE = {:?}",
        elite.as_ref().map(|e| &e.labels)
    );
    let prog: Arc<dyn Program> = Arc::new(
        Algorithm3::for_family(&family)
            .unwrap()
            .expect("selectable"),
    );
    for (i, member) in [a, b].iter().enumerate() {
        let mut m = Machine::new(
            Arc::new(g.clone()),
            InstructionSet::Q,
            Arc::clone(&prog),
            member,
        )
        .unwrap();
        let mut sched = RoundRobin::new();
        let report = run_until(&mut m, &mut sched, 1_000_000, &mut [], |mach| {
            mach.selected_count() >= 1
        });
        println!(
            "  member {i}: elected {:?} after {} steps",
            m.selected(),
            report.steps
        );
    }
    let bad = Family::new(
        g.clone(),
        vec![
            SystemInit::with_marked(&g, &[ProcId::new(0)]),
            SystemInit::uniform(&g),
        ],
    )
    .unwrap();
    println!(
        "  family with a fully-symmetric member: ELITE exists = {}",
        bad.elite(Model::Q).is_some()
    );
    println!();
}

fn e6() {
    header("E6", "Theorems 8-9 / Algorithm 4 — selection in L");
    let g = topology::figure1();
    let init = SystemInit::uniform(&g);
    println!("  figure1 in Q: {}", decide_selection(&g, Model::Q));
    println!("  figure1 in L: {}", decide_selection(&g, Model::L));
    let k = 4;
    let plan = Algorithm4::plan(&g, &init, k, false, DEFAULT_OUTCOME_BUDGET).unwrap();
    let prog: Arc<dyn Program> = Arc::new(plan.program.expect("solvable"));
    let trials = 20;
    let graph = Arc::new(g);
    let report = sweep(
        || {
            Machine::new(
                Arc::clone(&graph),
                InstructionSet::L,
                Arc::clone(&prog),
                &init,
            )
            .unwrap()
        },
        &SweepConfig::new(
            vec![SweepScheduler::BoundedFair { k }],
            trials,
            2_000_000,
            4,
        ),
    );
    let mut wins = [0u32; 2];
    for o in &report.outcomes {
        assert!(o.clean_selection, "seed {}: {:?}", o.seed, o.selected);
        wins[o.selected[0].index()] += 1;
    }
    println!("  {trials} runs under 4-bounded-fair schedules: wins p0={} p1={} (schedule-dependent, always unique)", wins[0], wins[1]);
    for s in report.stats() {
        println!(
            "  sweep[{}]: selection rate {:.2}, mean steps to selection {:.1}",
            s.scheduler,
            s.selection_rate,
            s.mean_steps_to_selection.unwrap_or(f64::NAN)
        );
    }
    println!(
        "  uniform 3-ring in L: {}",
        decide_selection(&topology::uniform_ring(3), Model::L)
    );
    println!(
        "  2-ring in L*: {}",
        decide_selection(&topology::uniform_ring(2), Model::LStar)
    );
    println!();
}

fn e7() {
    header("E7", "Figure 3 / §6 — fair-S mimicry");
    let g = topology::figure3();
    let init = SystemInit::with_marked(&g, &[ProcId::new(2)]);
    let m = mimicry_matrix(&g, &init, 1 << 12);
    println!("  mimicry matrix (x mimics y) for Fig. 3 with z marked:");
    for (x, row) in m.iter().enumerate() {
        let marks: Vec<&str> = row.iter().map(|&b| if b { "X" } else { "." }).collect();
        println!("    p{x}: {}", marks.join(" "));
    }
    println!(
        "  fair-S selection possible: {} (z mimics no other)",
        fair_s_selection_possible(&g, &init, 1 << 12)
    );
    println!(
        "  bounded-fair-S: {}",
        decide_selection_with_init(&g, &init, Model::BoundedFairS)
    );
    println!();
}

fn e8() {
    header("E8", "Figures 4-5 / DP & DP' — dining philosophers");
    // DP: 5-table deterministic symmetric -> deadlock.
    let t5 = Arc::new(topology::philosophers_table(5));
    let i5 = SystemInit::uniform(&t5);
    let mut m = Machine::new(
        Arc::clone(&t5),
        InstructionSet::L,
        Arc::new(LockOrderPhilosopher::new(3, 2)),
        &i5,
    )
    .unwrap();
    let mut meals = MealCounter::new(5);
    let mut excl = ExclusionMonitor::new(&t5);
    let r = run(
        &mut m,
        &mut RoundRobin::new(),
        30_000,
        &mut [&mut excl, &mut meals],
    );
    println!(
        "  DP  5-table lock-order: meals={} violation={:?}  (deadlock: the similarity trap)",
        meals.total(),
        r.violation.is_some()
    );
    println!(
        "  {:<26}{:>8}{:>14}{:>12}{:>10}",
        "solution", "n", "meals/20k", "min meals", "fairness"
    );
    for n in [6usize, 10, 14] {
        let g = Arc::new(topology::philosophers_alternating(n));
        let init = SystemInit::uniform(&g);
        let mut m = Machine::new(
            Arc::clone(&g),
            InstructionSet::L,
            Arc::new(LockOrderPhilosopher::new(3, 2)),
            &init,
        )
        .unwrap();
        let mut meals = MealCounter::new(n);
        let mut excl = ExclusionMonitor::new(&g);
        let r = run(
            &mut m,
            &mut RoundRobin::new(),
            20_000,
            &mut [&mut excl, &mut meals],
        );
        assert!(r.violation.is_none());
        println!(
            "  {:<26}{:>8}{:>14}{:>12}{:>10.3}",
            "DP' alternating",
            n,
            meals.total(),
            meals.minimum(),
            meals.fairness()
        );
    }
    for n in [5usize, 9, 13] {
        let g = Arc::new(topology::philosophers_table(n));
        let init = chandy_misra_init(&g);
        let mut m = Machine::new(
            Arc::clone(&g),
            InstructionSet::L,
            Arc::new(ChandyMisraPhilosopher::new(2, 2)),
            &init,
        )
        .unwrap();
        let mut meals = MealCounter::new(n);
        let mut excl = ExclusionMonitor::new(&g);
        let r = run(
            &mut m,
            &mut RoundRobin::new(),
            20_000,
            &mut [&mut excl, &mut meals],
        );
        assert!(r.violation.is_none());
        println!(
            "  {:<26}{:>8}{:>14}{:>12}{:>10.3}",
            "Chandy-Misra",
            n,
            meals.total(),
            meals.minimum(),
            meals.fairness()
        );
    }
    for n in [5usize, 9, 13] {
        let g = Arc::new(topology::philosophers_table(n));
        let init = SystemInit::uniform(&g);
        let mut m = Machine::new(
            Arc::clone(&g),
            InstructionSet::L,
            Arc::new(LehmannRabinPhilosopher::new(2, 2)),
            &init,
        )
        .unwrap()
        .with_randomness(7);
        let mut meals = MealCounter::new(n);
        let mut excl = ExclusionMonitor::new(&g);
        let r = run(
            &mut m,
            &mut RoundRobin::new(),
            20_000,
            &mut [&mut excl, &mut meals],
        );
        assert!(r.violation.is_none());
        println!(
            "  {:<26}{:>8}{:>14}{:>12}{:>10.3}",
            "Lehmann-Rabin",
            n,
            meals.total(),
            meals.minimum(),
            meals.fairness()
        );
    }
    println!();
}

fn e9() {
    header("E9", "§8 — the added power of randomization");
    println!("  randomized selection where deterministic selection is impossible:");
    println!(
        "  {:<14}{:>10}{:>12}{:>14}{:>14}",
        "system", "trials", "successes", "mean rounds", "mean steps"
    );
    for n in [2usize, 4, 8, 16] {
        let g = if n == 2 {
            topology::figure1()
        } else {
            topology::star(n)
        };
        assert!(!decide_selection(&g, Model::Q).possible());
        let stats = measure_randomized_selection(&g, n + 2, 30, 2_000_000);
        assert_eq!(stats.violations, 0);
        println!(
            "  {:<14}{:>10}{:>12}{:>14.2}{:>14.1}",
            if n == 2 {
                "figure1".to_owned()
            } else {
                format!("star/{n}")
            },
            30,
            stats.successes,
            stats.mean_rounds,
            stats.mean_steps
        );
    }
    println!("  Lehmann-Rabin on the 5-table (20 seeds, 40k steps each):");
    let mut min_meals = u64::MAX;
    let mut total = 0u64;
    for seed in 0..20 {
        let s = measure_lehmann_rabin(5, seed, 40_000);
        assert!(!s.violated);
        min_meals = min_meals.min(s.min_meals());
        total += s.total_meals();
    }
    println!("    total meals {total}, minimum per-philosopher over all seeds: {min_meals} (> 0: starvation-free w.p. 1)");
    println!();
}

fn e10() {
    header("E10", "§6 — message passing");
    let ring = MpNetwork::ring_bidirectional(5);
    let uniform = vec![Value::Unit; 5];
    let direct = mp_similarity(&ring, &uniform, MpModel::AsyncBidirectional);
    let reduced = reduced_similarity(&ring, &uniform);
    let direct_labels: Vec<_> = ring.processors().map(|p| direct.proc_label(p)).collect();
    println!(
        "  bidirectional 5-ring: direct similarity classes = {}, reduction-to-Q agrees = {}",
        direct.class_count(),
        same_partition(&direct_labels, &reduced)
    );
    let chain = MpNetwork::chain(4);
    let d = mp_similarity(&chain, &vec![Value::Unit; 4], MpModel::AsyncUnidirectional);
    println!("  unidirectional chain of 4 (not strongly connected): {} classes — but fair-S-like mimicry applies", d.class_count());
    let uni = MpNetwork::ring_unidirectional(6);
    let mut init = vec![Value::Unit; 6];
    init[3] = Value::from(5);
    let l = mp_similarity(&uni, &init, MpModel::AsyncUnidirectional);
    println!(
        "  unidirectional 6-ring with one mark: {} classes (fully split)",
        l.class_count()
    );
    println!();
}

fn e11() {
    header("E11", "§9 — the model-power hierarchy");
    let witnesses = simsym_core::separation_witnesses();
    let rows: Vec<(&str, &SystemGraph, &SystemInit)> = witnesses
        .iter()
        .map(|w| (w.name, &w.graph, &w.init))
        .collect();
    let table = power_table(&rows);
    println!("{}", render_power_table(&table));
    // SELECT sanity: figure2 elects its unique processor in Q.
    let fig2 = topology::figure2();
    let init2 = SystemInit::uniform(&fig2);
    let prog = selection_program_q(&fig2, &init2).unwrap().unwrap();
    let mut m = Machine::new(Arc::new(fig2), InstructionSet::Q, Arc::new(prog), &init2).unwrap();
    let _ = run_until(
        &mut m,
        &mut RandomFair::seeded(3),
        100_000,
        &mut [],
        |mach| mach.selected_count() >= 1,
    );
    println!("  SELECT(figure2) elected {:?}\n", m.selected());
}
