//! Property tests for the flat-state hot path: the incrementally
//! maintained 128-bit fingerprint agrees with the full hash after every
//! step, and so does the 64-bit fingerprint folded from it, bare and
//! under the fault layer's journal and crash resets; undo reverses any
//! step exactly, and the undo-based explorer visits the same state space
//! as the clone-per-branch reference.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simsym_graph::{topology, ProcId, SystemGraph};
use simsym_vm::{
    explore, explore_reference, ExploreConfig, FaultPlan, Faulty, FnProgram, InstructionSet,
    JournalSpec, Machine, System, SystemInit, Value,
};
use std::sync::Arc;

fn arb_graph() -> impl Strategy<Value = SystemGraph> {
    (2usize..6, 1usize..4, 1usize..3, any::<u64>()).prop_map(|(p, v, n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        topology::random_system(p, v, n, &mut rng)
    })
}

/// A deterministic workload that churns every fingerprint input: pc,
/// selection, registers (set, mutate, unset), and shared variables
/// (write, lock/unlock).
fn build_machine(g: SystemGraph) -> Machine {
    let g = Arc::new(g);
    let init = SystemInit::uniform(&g);
    let prog = Arc::new(FnProgram::new("churn", |local, ops| {
        let names = ops.all_names();
        let name = names[(local.pc as usize) % names.len()];
        match local.pc % 5 {
            0 => ops.write(name, Value::from(i64::from(local.pc))),
            1 => {
                let v = ops.read(name);
                local.set("acc", Value::tuple([local.get("acc"), v]));
            }
            2 => {
                let got = ops.lock(names[0]);
                local.set("got", Value::from(got));
                local.selected = !local.selected;
            }
            3 => {
                if local.get("got") == Value::from(true) {
                    ops.unlock(names[0]);
                    local.set("got", Value::from(false));
                }
            }
            _ => {
                local.unset("acc");
                local.set(
                    "bag",
                    Value::bag([Value::from(i64::from(local.pc)), Value::Unit]),
                );
            }
        }
        local.pc = local.pc.wrapping_add(1);
    }));
    Machine::new(g, InstructionSet::L, prog, &init).unwrap()
}

/// A Q workload for the fault layer: posts that patch a variable's
/// digest in place, peeks, and a register the journal tracks.
fn build_q_machine(n: usize) -> Machine {
    let g = Arc::new(topology::uniform_ring(n));
    let init = SystemInit::with_marked(&g, &[ProcId::new(0)]);
    let prog = Arc::new(FnProgram::new("post-peek", |local, ops| {
        let names = ops.all_names();
        let name = names[(local.pc as usize) % names.len()];
        if local.pc % 2 == 0 {
            ops.post(name, Value::from(i64::from(local.pc % 4)));
        } else {
            let seen = ops.peek(name).to_bag();
            local.set("seen", seen);
        }
        local.pc += 1;
    }));
    Machine::new(g, InstructionSet::Q, prog, &init).unwrap()
}

/// Materializes a proptest index schedule onto the machine's processors.
fn schedule(m: &Machine, raw: &[usize]) -> Vec<ProcId> {
    let n = m.graph().processor_count();
    raw.iter().map(|&i| ProcId::new(i % n)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_fingerprint_matches_full_hash(
        g in arb_graph(),
        raw in prop::collection::vec(0usize..8, 1..60)
    ) {
        let mut m = build_machine(g);
        let mut scratch = m.clone();
        m.enable_incremental_fingerprint();
        prop_assert_eq!(m.incremental_fingerprint().unwrap(), m.wide_fingerprint());
        for p in schedule(&m, &raw) {
            m.step(p);
            scratch.step(p);
            prop_assert_eq!(
                m.incremental_fingerprint().unwrap(),
                m.wide_fingerprint(),
                "fingerprint drift after stepping {}", p
            );
            prop_assert_eq!(System::fingerprint(&m), System::fingerprint(&scratch));
        }
    }

    #[test]
    fn faulted_fingerprint_is_the_same_incremental_or_not(
        n in 3usize..6,
        plan_seed in any::<u64>(),
        replay in any::<bool>(),
        raw in prop::collection::vec(0usize..8, 1..80)
    ) {
        // Resets and journal replays restore a local state wholesale;
        // journaled commits feed the store's digest.
        let plan = FaultPlan::seeded_crash_resets(n, &[ProcId::new(0)], plan_seed, 30);
        let plan = if replay { plan.with_replay_recoveries() } else { plan };
        let mut inc = build_q_machine(n);
        inc.enable_incremental_fingerprint();
        let mut inc = Faulty::with_journal(inc, plan.clone(), JournalSpec::registers(["seen"]));
        let mut scratch = Faulty::with_journal(
            build_q_machine(n), plan, JournalSpec::registers(["seen"]),
        );
        for p in raw.iter().map(|&i| ProcId::new(i % n)) {
            inc.step(p);
            scratch.step(p);
            prop_assert_eq!(
                inc.inner().incremental_fingerprint().unwrap(),
                inc.inner().wide_fingerprint(),
                "fingerprint drift after stepping {}", p
            );
            prop_assert_eq!(inc.fingerprint(), scratch.fingerprint());
        }
    }

    #[test]
    fn undo_reverses_any_schedule_exactly(
        g in arb_graph(),
        raw in prop::collection::vec(0usize..8, 1..40)
    ) {
        let mut m = build_machine(g);
        m.enable_incremental_fingerprint();
        let before = m.wide_fingerprint();
        let mut undos = Vec::new();
        let mut fps = vec![before];
        for p in schedule(&m, &raw) {
            undos.push(m.step_undoable(p));
            fps.push(m.wide_fingerprint());
        }
        // Unwind in LIFO order; every intermediate state must reappear,
        // in both the full hash and the incremental fingerprint.
        while let Some(u) = undos.pop() {
            m.undo(u);
            fps.pop();
            let expect = *fps.last().unwrap();
            prop_assert_eq!(m.wide_fingerprint(), expect);
            prop_assert_eq!(m.incremental_fingerprint().unwrap(), expect);
        }
        prop_assert_eq!(m.wide_fingerprint(), before);
    }

    #[test]
    fn undo_explore_matches_clone_explore(
        g in arb_graph(),
        depth in 1usize..5
    ) {
        let m = build_machine(g);
        let cfg = ExploreConfig {
            max_depth: depth,
            max_states: 20_000,
            threads: 1,
        };
        let fast = explore(&m, cfg);
        let reference = explore_reference(&m, cfg);
        prop_assert_eq!(&fast.outcomes, &reference.outcomes);
        prop_assert_eq!(fast.states_visited, reference.states_visited);
        prop_assert_eq!(fast.truncated, reference.truncated);
        prop_assert_eq!(
            fast.has_double_selection(),
            reference.has_double_selection()
        );
    }
}
