//! `simsym elect`: runs the generated Q selection program to a leader.

use simsym::core::selection_program_q;
use simsym::graph::SystemGraph;
use simsym::vm::{run_until, InstructionSet, Machine, RoundRobin, SystemInit};
use std::sync::Arc;

pub fn elect(graph: &SystemGraph, init: &SystemInit) -> Result<String, String> {
    let prog = selection_program_q(graph, init)
        .map_err(|e| e.to_string())?
        .ok_or("no selection algorithm exists in Q for this system (every processor is shadowed); try `analyze` to see which models can solve it")?;
    let mut m = Machine::new(
        Arc::new(graph.clone()),
        InstructionSet::Q,
        Arc::new(prog),
        init,
    )
    .map_err(|e| e.to_string())?;
    let mut sched = RoundRobin::new();
    let report = run_until(&mut m, &mut sched, 10_000_000, &mut [], |mach| {
        mach.selected_count() >= 1
    });
    Ok(format!(
        "elected {:?} after {} round-robin steps\n",
        m.selected(),
        report.steps
    ))
}
