//! `simsym dine`: seats philosophers under one of the paper's solutions.

use simsym::graph::{topology, SystemGraph};
use simsym::philo::{
    chandy_misra_init, ChandyMisraPhilosopher, ExclusionMonitor, LehmannRabinPhilosopher,
    LockOrderPhilosopher, MealCounter,
};
use simsym::vm::{run, InstructionSet, Machine, Program, RoundRobin, SystemInit};
use std::sync::Arc;

pub fn dine(args: &[String]) -> Result<String, String> {
    let n: usize = args
        .first()
        .ok_or("dine needs a table size")?
        .parse()
        .map_err(|_| "bad table size")?;
    if n < 2 {
        return Err("table needs at least 2 philosophers".to_owned());
    }
    let solution = args.get(1).map(String::as_str).unwrap_or("alternating");
    let steps: u64 = match args.get(2) {
        Some(s) => s.parse().map_err(|_| "bad step count")?,
        None => 50_000,
    };
    let (graph, init, prog, randomized): (SystemGraph, SystemInit, Arc<dyn Program>, bool) =
        match solution {
            "greedy" => {
                let g = topology::philosophers_table(n);
                let i = SystemInit::uniform(&g);
                (g, i, Arc::new(LockOrderPhilosopher::new(3, 2)), false)
            }
            "alternating" => {
                if !n.is_multiple_of(2) {
                    return Err(format!(
                        "the alternating solution needs an even table (got {n}); that is DP' — for odd/prime tables use chandy-misra or lehmann-rabin"
                    ));
                }
                let g = topology::philosophers_alternating(n);
                let i = SystemInit::uniform(&g);
                (g, i, Arc::new(LockOrderPhilosopher::new(3, 2)), false)
            }
            "chandy-misra" => {
                let g = topology::philosophers_table(n);
                let i = chandy_misra_init(&g);
                (g, i, Arc::new(ChandyMisraPhilosopher::new(2, 2)), false)
            }
            "lehmann-rabin" => {
                let g = topology::philosophers_table(n);
                let i = SystemInit::uniform(&g);
                (g, i, Arc::new(LehmannRabinPhilosopher::new(2, 2)), true)
            }
            other => return Err(format!("unknown solution {other:?}")),
        };
    let mut m = Machine::new(Arc::new(graph.clone()), InstructionSet::L, prog, &init)
        .map_err(|e| e.to_string())?;
    if randomized {
        m = m.with_randomness(0xD15E);
    }
    let mut sched = RoundRobin::new();
    let mut excl = ExclusionMonitor::new(&graph);
    let mut meals = MealCounter::new(n);
    let report = run(&mut m, &mut sched, steps, &mut [&mut excl, &mut meals]);
    let mut out = format!("{solution} on a {n}-table for {} steps:\n", report.steps);
    match &report.violation {
        Some(v) => out.push_str(&format!("  VIOLATION: {v}\n")),
        None if meals.total() == 0 => {
            let certified = simsym::vm::is_quiescent(&m);
            out.push_str(&format!(
                "  no violation, but nobody eats ({})\n",
                if certified {
                    "certified deadlock: no step changes any state"
                } else {
                    "starvation"
                }
            ));
        }
        None => out.push_str(&format!(
            "  {} meals, min/philosopher {}, fairness {:.3}\n",
            meals.total(),
            meals.minimum(),
            meals.fairness()
        )),
    }
    out.push_str(&format!("  meals: {:?}\n", meals.meals));
    Ok(out)
}
