//! E1 — Theorem 1: no selection algorithm exists in **S** under general
//! schedules; equivalently (as the paper notes) no consensus with one
//! crash-faulty processor (FLP).
//!
//! The tests defeat two candidates, `grab-flag` (the one `experiments e1`
//! checks) and `write-and-check`, both ways: by exhaustive
//! schedule-space exploration and by the constructive `ε · p · ρ`
//! adversary from the proof. They also check the parallel explorer
//! against the sequential one on `grab-flag`.

use simsym::graph::topology;
use simsym::vm::{
    explore, find_double_selection, ExploreConfig, FnProgram, InstructionSet, Machine, Program,
    SystemInit, Value,
};
use std::sync::Arc;

fn machine_for(prog: Arc<dyn Program>) -> Machine {
    let g = Arc::new(topology::figure1());
    let init = SystemInit::uniform(&g);
    Machine::new(g, InstructionSet::S, prog, &init).expect("machine")
}

/// The `grab-flag` candidate: test-and-set emulated with separate read
/// and write — the classic doomed attempt `experiments e1` defeats.
fn grab_flag() -> Machine {
    let g = Arc::new(topology::figure1());
    let init = SystemInit::uniform(&g);
    simsym::check::fixtures::grab_machine(g, &init)
}

/// Candidate 2: write a token, read it back, select if it survived — a
/// last-writer-wins attempt.
fn write_and_check() -> Arc<dyn Program> {
    Arc::new(FnProgram::new("write-and-check", |local, ops| {
        let n = ops.name("n");
        match local.pc {
            0 => {
                // Each processor writes a token derived from how often it
                // has retried (still symmetric across processors).
                let r = local.get("retry").as_int().unwrap_or(0);
                ops.write(n, Value::tuple([Value::from(r), Value::from(1)]));
                local.set("mine", Value::tuple([Value::from(r), Value::from(1)]));
                local.pc = 1;
            }
            1 => {
                let v = ops.read(n);
                if v == local.get("mine") {
                    local.selected = true;
                    local.pc = 2;
                } else {
                    let r = local.get("retry").as_int().unwrap_or(0);
                    local.set("retry", Value::from(r + 1));
                    local.pc = 0;
                }
            }
            _ => {}
        }
    }))
}

#[test]
fn exhaustive_exploration_defeats_grab_flag() {
    let res = explore(&grab_flag(), ExploreConfig::default());
    assert!(!res.truncated, "small system must be fully explored");
    assert!(
        res.has_double_selection(),
        "general schedules reach a double selection; outcomes: {:?}",
        res.outcomes
    );
}

#[test]
fn exhaustive_exploration_defeats_write_and_check() {
    let res = explore(
        &machine_for(write_and_check()),
        ExploreConfig {
            max_depth: 24,
            ..Default::default()
        },
    );
    assert!(res.has_double_selection(), "outcomes: {:?}", res.outcomes);
}

#[test]
fn constructive_adversary_builds_epsilon_p_rho() {
    // The proof's schedule: run until p would be selected, freeze p
    // (allowed: general schedules model crashed processors), continue
    // until q is selected, then un-freeze p's selecting step.
    let witness =
        find_double_selection(grab_flag, 10_000).expect("the adversary must defeat grab-flag");
    assert!(witness.selected.len() >= 2);
    // The witness schedule replays deterministically.
    let mut m = grab_flag();
    for &p in &witness.schedule {
        m.step(p);
    }
    assert!(m.selected_count() >= 2);
}

#[test]
fn adversary_also_defeats_write_and_check() {
    let witness = find_double_selection(|| machine_for(write_and_check()), 10_000)
        .expect("the adversary must defeat write-and-check");
    assert!(witness.selected.len() >= 2);
}

#[test]
fn parallel_exploration_matches_sequential() {
    let seq = explore(&grab_flag(), ExploreConfig::default());
    let par = explore(
        &grab_flag(),
        ExploreConfig {
            threads: 4,
            ..Default::default()
        },
    );
    assert_eq!(seq.outcomes, par.outcomes);
}
