use super::*;
use crate::family::parse_system;
use crate::faults::{faults_crash, faults_lossy, faults_starve, FaultsOpts};
use simsym::check;
use simsym::core::LabelLearner;
use simsym::serve::Server;
use simsym::vm::engine::trace::{replay, ScheduleTrace};
use simsym::vm::{InstructionSet, Machine, ReproArtifact};
use simsym_graph::ProcId;
use std::sync::Arc;

fn call_full(args: &[&str]) -> Result<CmdOut, String> {
    let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    dispatch(&v)
}

fn call(args: &[&str]) -> Result<String, String> {
    call_full(args).map(|out| out.text)
}

#[test]
fn list_runs() {
    assert!(call(&["list"]).unwrap().contains("figure1"));
}

/// FNV-1a 64 over the emitted trace JSON. A tiny, dependency-free
/// content hash: the goldens below pin the *bytes* of every trace, not
/// just their shape.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Byte-identity regression net for the Q-multiset representation:
/// `analyze --trace` output (schedule, ops, per-step fingerprints) must
/// stay byte-for-byte what the pre-interning `BTreeMap<ProcId, Value>`
/// representation produced, across 20 seeds on ring and marked-ring.
/// The hashes were captured from the old representation's output (the
/// interned rewrite was verified byte-identical against it before
/// these goldens were committed). Any observable drift — value
/// ordering, peek expansion, fingerprinting, scheduling — fails here.
#[test]
fn trace_bytes_are_stable_across_20_seeds() {
    const GOLDEN: &[(&str, u64, u64)] = &[
        ("ring:8", 1, 0xa99b6bb609668503),
        ("ring:8", 2, 0xf01859141abd9b9a),
        ("ring:8", 3, 0x3129136d520a0db0),
        ("ring:8", 4, 0xb68e3911e22c8b88),
        ("ring:8", 5, 0x5ef5a0d230681dd6),
        ("ring:8", 6, 0x456d12fa9c866feb),
        ("ring:8", 7, 0x8847cb335b305b09),
        ("ring:8", 8, 0x709836498be9801f),
        ("ring:8", 9, 0x32dc53593bb4fa72),
        ("ring:8", 10, 0x129f65a6b835ed44),
        ("ring:8", 11, 0xb4e1521e6f431aec),
        ("ring:8", 12, 0xd39b302b5ce3f541),
        ("ring:8", 13, 0x4a4538524c38281e),
        ("ring:8", 14, 0x8b83227c5e38a6d7),
        ("ring:8", 15, 0x2158ad24ca62aee0),
        ("ring:8", 16, 0xf52f0c14ace2b21b),
        ("ring:8", 17, 0x721e78480c6240e6),
        ("ring:8", 18, 0x8d8ae58164ef9779),
        ("ring:8", 19, 0x6e83c42a72d7e67a),
        ("ring:8", 20, 0xa4ec88e54c314153),
        ("marked-ring:8", 1, 0x0de6055790e78f42),
        ("marked-ring:8", 2, 0x3a20739ce54339c6),
        ("marked-ring:8", 3, 0x5a7e5e32efeb5960),
        ("marked-ring:8", 4, 0x4a0ae38d4d5e30f5),
        ("marked-ring:8", 5, 0x37bdd75c8251d193),
        ("marked-ring:8", 6, 0x1345ffca0961d833),
        ("marked-ring:8", 7, 0x68e4067a9389475f),
        ("marked-ring:8", 8, 0x3bba6476bea74694),
        ("marked-ring:8", 9, 0xc436941a9fc9ea6a),
        ("marked-ring:8", 10, 0x72c51bca7a6eb013),
        ("marked-ring:8", 11, 0xffa1719cf9e49180),
        ("marked-ring:8", 12, 0x70bd2afb757a898b),
        ("marked-ring:8", 13, 0x27b9b46fa09e8bc5),
        ("marked-ring:8", 14, 0x414e7cbb74bf2b2b),
        ("marked-ring:8", 15, 0x98df42b89fa86c27),
        ("marked-ring:8", 16, 0x3331ee76d8d6fdbd),
        ("marked-ring:8", 17, 0xca09505106d57fee),
        ("marked-ring:8", 18, 0x0e2ff33d70a96791),
        ("marked-ring:8", 19, 0xbfebfb4a9beba0e8),
        ("marked-ring:8", 20, 0x2311996986e76bff),
    ];
    for &(system, seed, want) in GOLDEN {
        let seed = seed.to_string();
        let out = call(&[
            "analyze", system, "--trace", "--seed", &seed, "--steps", "400",
        ])
        .expect("trace runs");
        assert_eq!(
            fnv1a64(out.as_bytes()),
            want,
            "trace bytes drifted for {system} seed {seed}"
        );
    }
}

#[test]
fn analyze_ring() {
    let out = call(&["analyze", "ring:5"]).unwrap();
    assert!(out.contains("5 processors"));
    assert!(out.contains("no selection"));
}

#[test]
fn analyze_with_mark() {
    let out = call(&["analyze", "ring:4", "--mark", "p0"]).unwrap();
    assert!(out.contains("selectable"));
}

#[test]
fn analyze_trace_emits_replayable_json() {
    let out = call(&["analyze", "ring:4", "--trace", "--seed", "7"]).unwrap();
    let trace = ScheduleTrace::from_json(out.trim()).expect("valid trace JSON");
    assert_eq!(trace.scheduler, "random_fair(seed=7)");
    assert_eq!(trace.kind, "fair");
    assert!(!trace.steps.is_empty());
    // Round-trip: re-encoding the parsed trace is byte-identical.
    assert_eq!(format!("{}\n", trace.to_json()), out);

    // Replay against a freshly built machine reaches the same final state.
    let (graph, init) = parse_system_args(&["ring:4".to_owned()]).unwrap();
    let labeling = hopcroft_similarity(&graph, &init, Model::Q);
    let prog = LabelLearner::new(&graph, &init, &labeling).unwrap();
    let mut m = Machine::new(Arc::new(graph), InstructionSet::Q, Arc::new(prog), &init).unwrap();
    replay(&mut m, &trace).expect("trace replays to identical final state");
    assert_eq!(m.fingerprint(), trace.final_fingerprint);
}

#[test]
fn analyze_trace_is_deterministic_per_seed() {
    let a = call(&["analyze", "figure1", "--trace", "--seed", "3"]).unwrap();
    let b = call(&["analyze", "figure1", "--trace", "--seed", "3"]).unwrap();
    let c = call(&["analyze", "figure1", "--trace", "--seed", "4"]).unwrap();
    assert_eq!(a, b);
    assert_ne!(a, c);
}

#[test]
fn trace_flags_require_trace() {
    let err = call(&["analyze", "ring:4", "--seed", "3"]).unwrap_err();
    assert!(err.contains("--trace"));
}

#[test]
fn elect_figure2() {
    let out = call(&["elect", "figure2"]).unwrap();
    assert!(out.contains("elected [p2]"));
}

#[test]
fn elect_refuses_symmetric() {
    let err = call(&["elect", "ring:4"]).unwrap_err();
    assert!(err.contains("no selection algorithm"));
}

#[test]
fn dine_greedy_deadlocks() {
    let out = call(&["dine", "5", "greedy", "5000"]).unwrap();
    assert!(out.contains("deadlock"));
}

#[test]
fn dine_alternating_feeds_everyone() {
    let out = call(&["dine", "6", "alternating", "20000"]).unwrap();
    assert!(out.contains("meals"));
    assert!(!out.contains("deadlock"));
}

#[test]
fn dine_rejects_odd_alternating() {
    let err = call(&["dine", "5", "alternating"]).unwrap_err();
    assert!(err.contains("even"));
}

#[test]
fn dine_chandy_misra_on_prime_table() {
    let out = call(&["dine", "5", "chandy-misra", "20000"]).unwrap();
    assert!(out.contains("meals"));
    assert!(!out.contains("deadlock"));
    assert!(!out.contains("VIOLATION"));
}

#[test]
fn dine_lehmann_rabin_on_prime_table() {
    let out = call(&["dine", "5", "lehmann-rabin", "20000"]).unwrap();
    assert!(out.contains("meals"));
    assert!(!out.contains("VIOLATION"));
}

#[test]
fn dot_renders() {
    let out = call(&["dot", "figure1"]).unwrap();
    assert!(out.starts_with("graph system {"));
}

#[test]
fn parse_errors_are_friendly() {
    assert!(call(&["analyze", "ring"]).is_err());
    assert!(call(&["analyze", "nonsense"]).is_err());
    assert!(call(&["analyze", "board:0x2"]).is_err());
    assert!(call(&["analyze", "ring:4", "--mark", "p9"]).is_err());
    assert!(call(&["bogus"]).is_err());
    assert!(call(&[]).is_err());
}

#[test]
fn report_renders_markdown() {
    let out = call(&["report", "figure2"]).unwrap();
    assert!(out.contains("# System analysis"));
    assert!(out.contains("Q: selectable"));
}

#[test]
fn spec_file_loads() {
    let dir = std::env::temp_dir().join("simsym-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fig2.sysg");
    std::fs::write(
        &path,
        "names a b\nprocs p1 p2 p3\nvars v1 v2 v3\nedge p1 a v1\nedge p2 a v1\nedge p3 a v2\nedge p1 b v3\nedge p2 b v3\nedge p3 b v3\n",
    )
    .unwrap();
    let arg = format!("@{}", path.display());
    let out = call(&["analyze", &arg]).unwrap();
    assert!(out.contains("3 processors"));
    assert!(out.contains("Q: selectable"));
}

#[test]
fn board_parses() {
    let g = parse_system("board:3x2").unwrap();
    assert_eq!(g.processor_count(), 3);
    assert_eq!(g.variable_count(), 2);
}

#[test]
fn lint_clean_system_passes() {
    let out = call_full(&["lint", "ring:5"]).unwrap();
    assert!(!out.failed, "{}", out.text);
    assert!(out.text.contains("0 error(s)"), "{}", out.text);
}

#[test]
fn lint_detects_all_four_seeded_defect_classes() {
    // Race: unprotected shared writes under L.
    let racy = call_full(&["lint", "figure1", "--program", "racy", "--json"]).unwrap();
    assert!(racy.failed);
    assert!(racy.text.contains("\"code\":\"DYN-RACE\""), "{}", racy.text);
    assert!(racy.text.contains("\"witness\":["), "{}", racy.text);

    // Deadlock: fixed-order philosophers on the uniform table.
    let dead = call_full(&["lint", "table:5", "--program", "fixed-order", "--json"]).unwrap();
    assert!(dead.failed);
    assert!(
        dead.text.contains("\"code\":\"DYN-LOCK-CYCLE\""),
        "{}",
        dead.text
    );
    assert!(
        dead.text.contains("persistently waited"),
        "witness cycle: {}",
        dead.text
    );

    // ISA violation: lock attempts on an S machine.
    let isa = call_full(&["lint", "figure1", "--program", "isa-cheater", "--json"]).unwrap();
    assert!(isa.failed);
    assert!(isa.text.contains("\"code\":\"DYN-ISA-OP\""), "{}", isa.text);

    // Atomicity: two shared writes in one step.
    let atom = call_full(&["lint", "figure1", "--program", "greedy", "--json"]).unwrap();
    assert!(atom.failed);
    assert!(
        atom.text.contains("\"code\":\"DYN-ATOMICITY\""),
        "{}",
        atom.text
    );
}

#[test]
fn lint_malformed_spec_reports_diagnostics_not_usage_errors() {
    let dir = std::env::temp_dir().join("simsym-lint-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.sysg");
    std::fs::write(
        &path,
        "names a\nprocs p1 p2\nvars v1\nedge p1 a v1\nedge p1 a v2\nbogus line here\n",
    )
    .unwrap();
    let arg = format!("@{}", path.display());
    let out = call_full(&["lint", &arg, "--json"]).unwrap();
    assert!(out.failed);
    assert!(out.text.contains("SPEC-"), "{}", out.text);
    assert!(out.text.contains("\"witness\":[\"line "), "{}", out.text);
}

#[test]
fn lint_dot_exports_lock_order_graph() {
    let out = call_full(&["lint", "table:5", "--program", "fixed-order", "--dot"]).unwrap();
    assert!(out.text.starts_with("digraph lockorder {"), "{}", out.text);
    assert!(out.text.contains(" -> "), "{}", out.text);
    // Errors were found, so the exit code still reflects them.
    assert!(out.failed);
}

#[test]
fn lint_sweep_output_is_byte_identical_across_runs() {
    let args = &["lint", "ring:3", "--sweep", "--steps", "200", "--json"];
    let a = call_full(args).unwrap();
    let b = call_full(args).unwrap();
    assert_eq!(a.text, b.text);
    assert!(!a.failed, "{}", a.text);
    assert!(a.text.contains("\"runs\":["), "{}", a.text);
}

#[test]
fn lint_rejects_unknown_fixture_and_flag_combos() {
    assert!(call(&["lint", "ring:3", "--program", "nope"])
        .unwrap_err()
        .contains("unknown fixture"));
    assert!(call(&["lint", "ring:3", "--sweep", "--dot"])
        .unwrap_err()
        .contains("mutually exclusive"));
}

#[test]
fn faults_crash_sweep_is_clean_on_every_family() {
    for family in ["ring", "table", "alternating", "hypercube"] {
        let out = call_full(&[
            "faults", "--family", family, "--plan", "crash", "--sweep", "2", "--steps", "2000",
            "--json",
        ])
        .unwrap();
        assert!(!out.failed, "{family}: {}", out.text);
        assert!(out.text.contains("\"schema\": \"simsym-faults/v1\""));
        assert!(
            out.text.contains("\"uniqueness_violations\": 0"),
            "{family}: {}",
            out.text
        );
        assert!(
            out.text.contains("\"stability_violations\": 0"),
            "{family}: {}",
            out.text
        );
    }
}

#[test]
fn faults_lossy_injects_channel_events() {
    let rows = faults_lossy(&FaultsOpts {
        family: "ring".into(),
        plan: "lossy".into(),
        seed: 0,
        sweep: 4,
        steps: Some(5_000),
        journal: false,
        json: false,
    })
    .unwrap();
    assert_eq!(rows.len(), 8, "two schedulers x four seeds");
    let injected: usize = rows
        .iter()
        .map(|r| r.dropped + r.duplicated + r.reordered)
        .sum();
    assert!(injected > 0, "lossy policy injected nothing");
    assert!(rows.iter().all(|r| r.crashes == 0 && r.recoveries == 0));
    // Uniqueness holds even under message loss: nobody double-selects.
    assert!(rows.iter().all(|r| r.selected.len() <= 1));
    assert!(rows.iter().all(|r| r.diagnostics.is_empty()));
}

#[test]
fn faults_starve_still_elects_within_the_bounded_fair_window() {
    // The adversary stays inside the k-bounded-fair class, so the
    // marked leader must still be elected — Theorem 1's boundary,
    // probed from the inside.
    let rows = faults_starve(&FaultsOpts {
        family: "ring".into(),
        plan: "starve".into(),
        seed: 0,
        sweep: 3,
        steps: Some(20_000),
        journal: false,
        json: false,
    })
    .unwrap();
    assert_eq!(rows.len(), 3);
    for r in &rows {
        assert_eq!(r.selected, vec![ProcId::new(0)], "{}", r.scheduler);
        assert!(r.steps < 20_000, "election never completed");
        assert!(r.diagnostics.is_empty());
    }
}

#[test]
fn faults_output_is_byte_identical_across_runs() {
    let args = &[
        "faults", "--family", "table", "--plan", "crash", "--seed", "5", "--sweep", "2", "--steps",
        "1000", "--json",
    ];
    let a = call(args).unwrap();
    let b = call(args).unwrap();
    assert_eq!(a, b);
}

#[test]
fn faults_rejects_bad_flags() {
    assert!(call(&["faults", "--plan", "crash"])
        .unwrap_err()
        .contains("--family"));
    assert!(call(&["faults", "--family", "ring"])
        .unwrap_err()
        .contains("--plan"));
    assert!(call(&["faults", "--family", "torus", "--plan", "crash"])
        .unwrap_err()
        .contains("unknown family"));
    assert!(call(&["faults", "--family", "ring", "--plan", "melt"])
        .unwrap_err()
        .contains("unknown fault plan"));
    assert!(
        call(&["faults", "--family", "ring", "--plan", "crash", "--sweep", "0"])
            .unwrap_err()
            .contains("at least one seed")
    );
}

#[test]
fn faults_journal_crash_sweep_is_clean_on_every_family() {
    for family in ["ring", "table", "alternating", "hypercube"] {
        let rows = faults_crash(&FaultsOpts {
            family: family.into(),
            plan: "crash".into(),
            seed: 0,
            sweep: 2,
            steps: Some(2_000),
            journal: true,
            json: true,
        })
        .unwrap();
        // Not trivially clean: the leader crashed and rebooted from
        // its journal somewhere in the sweep.
        let replayed: usize = rows.iter().map(|r| r.replayed).sum();
        assert!(replayed > 0, "{family}: no journal replay was exercised");
        assert!(
            rows.iter()
                .flat_map(|r| &r.diagnostics)
                .all(|d| d.severity != check::Severity::Error),
            "{family}: journaled sweep is not clean"
        );
    }
}

#[test]
fn faults_journal_flag_exits_clean_and_rejects_other_plans() {
    let out = call_full(&[
        "faults",
        "--family",
        "ring",
        "--plan",
        "crash",
        "--journal",
        "--sweep",
        "2",
        "--steps",
        "2000",
        "--json",
    ])
    .unwrap();
    assert!(!out.failed, "{}", out.text);
    assert!(
        out.text.contains("\"uniqueness_violations\": 0"),
        "{}",
        out.text
    );
    assert!(
        out.text.contains("\"stability_violations\": 0"),
        "{}",
        out.text
    );
    assert!(
        call(&["faults", "--family", "ring", "--plan", "lossy", "--journal"])
            .unwrap_err()
            .contains("--journal")
    );
}

#[test]
fn soak_finds_shrinks_and_replays_a_stability_violation() {
    let dir = std::env::temp_dir().join("simsym-soak-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("repro.json");
    let repro = path.to_str().unwrap().to_owned();
    let out = call_full(&[
        "soak",
        "--family",
        "ring",
        "--budget",
        "10",
        "--steps",
        "2000",
        "--json",
        "--repro-out",
        &repro,
    ])
    .unwrap();
    assert!(!out.failed, "{}", out.text);
    assert!(
        out.text.contains("\"violation_found\": true"),
        "{}",
        out.text
    );
    assert!(
        out.text.contains("\"violation\": \"DYN-RECOV-STAB\""),
        "{}",
        out.text
    );

    // The artifact is on disk, minimized to at most two crash events,
    // and replays to the identical verdict.
    let text = std::fs::read_to_string(&path).unwrap();
    let artifact = ReproArtifact::from_json(text.trim()).unwrap();
    assert!(artifact.plan.crashes.len() <= 2, "{text}");
    assert!(
        artifact.schedule.len() < 2_000,
        "schedule did not shrink: {text}"
    );
    let replayed = call_full(&["analyze", "--trace", &repro]).unwrap();
    assert!(!replayed.failed, "{}", replayed.text);
    assert!(
        replayed.text.contains("verdict DYN-RECOV-STAB reproduced"),
        "{}",
        replayed.text
    );

    // Tampering with the recorded verdict is caught as divergence.
    let tampered = dir.join("tampered.json");
    std::fs::write(&tampered, text.replace("DYN-RECOV-STAB", "DYN-FAULT-UNIQ")).unwrap();
    let diverged = call_full(&["analyze", "--trace", tampered.to_str().unwrap()]).unwrap();
    assert!(diverged.failed);
    assert!(
        diverged.text.contains("SOAK-REPLAY-DIVERGED"),
        "{}",
        diverged.text
    );
}

#[test]
fn soak_output_is_byte_identical_across_runs() {
    let args = &[
        "soak", "--family", "ring", "--budget", "6", "--steps", "2000", "--json",
    ];
    assert_eq!(call(args).unwrap(), call(args).unwrap());
}

#[test]
fn soak_with_journal_finds_nothing() {
    let out = call_full(&[
        "soak",
        "--family",
        "ring",
        "--journal",
        "--budget",
        "6",
        "--steps",
        "2000",
        "--json",
    ])
    .unwrap();
    assert!(!out.failed, "{}", out.text);
    assert!(
        out.text.contains("\"violation_found\": false"),
        "{}",
        out.text
    );
}

#[test]
fn soak_flags_degenerate_single_processor_plans() {
    let out = call_full(&[
        "soak", "--family", "ring", "--procs", "1", "--budget", "5", "--json",
    ])
    .unwrap();
    assert!(!out.failed, "{}", out.text);
    assert!(out.text.contains("SOAK-DEGENERATE"), "{}", out.text);
    assert!(
        out.text.contains("\"violation_found\": false"),
        "{}",
        out.text
    );
    assert!(out.text.contains("\"runs\": 0"), "{}", out.text);
}

#[test]
fn analyze_trace_surfaces_invalid_plans_as_diagnostics() {
    let dir = std::env::temp_dir().join("simsym-soak-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad-plan.json");
    // The recovery precedes its crash: FaultPlan::validate rejects it,
    // and the CLI must diagnose instead of panicking.
    std::fs::write(
        &path,
        "{\"schema\":\"simsym-repro/v1\",\"family\":\"ring\",\"procs\":5,\"seed\":0,\
         \"journal\":false,\"violation\":\"DYN-RECOV-STAB\",\"plan\":[{\"proc\":1,\
         \"at_step\":9,\"recovery\":{\"at_step\":3,\"mode\":\"reset\"}}],\"schedule\":[0,1]}",
    )
    .unwrap();
    let out = call_full(&["analyze", "--trace", path.to_str().unwrap()]).unwrap();
    assert!(out.failed);
    assert!(out.text.contains("SOAK-PLAN"), "{}", out.text);
}

#[test]
fn soak_rejects_bad_flags() {
    assert!(call(&["soak"]).unwrap_err().contains("--family"));
    assert!(call(&["soak", "--family", "torus"])
        .unwrap_err()
        .contains("unknown family"));
    assert!(call(&["soak", "--family", "ring", "--budget", "0"])
        .unwrap_err()
        .contains("at least one run"));
    assert!(call(&["soak", "--family", "ring", "--frobnicate"])
        .unwrap_err()
        .contains("unknown soak flag"));
}

#[test]
fn verify_certifies_a_clean_ring_and_reports_the_reduction() {
    let out = call_full(&[
        "verify", "--family", "ring", "--reduce", "both", "--depth", "24",
    ])
    .unwrap();
    assert!(!out.failed);
    assert!(out.text.contains("DYN-EXPLORE-CERTIFIED"), "{}", out.text);
    assert!(
        out.text.contains("modulo Aut(N) of order 4"),
        "{}",
        out.text
    );
    assert!(out.text.contains("reduction factor"), "{}", out.text);
}

#[test]
fn verify_grab_regression_exits_nonzero_with_a_witness() {
    let out = call_full(&["verify", "--family", "ring", "--program", "grab"]).unwrap();
    assert!(out.failed);
    assert!(out.text.contains("DYN-EXPLORE-UNIQ"), "{}", out.text);
}

#[test]
fn verify_json_carries_schema_runs_and_factor() {
    let out = call(&[
        "verify", "--family", "table", "--reduce", "quotient", "--json",
    ])
    .unwrap();
    assert!(out.contains("\"schema\": \"simsym-verify/v1\""));
    assert!(out.contains("\"reduce\": \"quotient\""));
    assert!(out.contains("\"reduce\": \"none\""));
    assert!(out.contains("\"reduction_factor_x100\""));
    assert!(out.contains("\"states_canonical\""));
    assert!(out.contains("\"peak_visited_bytes\""));
    // Nothing here exceeds GROUP_CAP, so every run reports an
    // uncapped, fully enumerated group.
    assert!(out.contains("\"group_capped\": 0"));
    assert!(!out.contains("\"group_capped\": 1"));
}

#[test]
fn hypercube_parses_and_verifies_from_the_cli() {
    // The family was only reachable through the library before: no
    // CLI path spelled "hypercube". Every entry point takes it now.
    let g = parse_system("hypercube:3").unwrap();
    assert_eq!(g.processor_count(), 8);
    assert_eq!(g.variable_count(), 12);
    assert!(call(&["analyze", "hypercube:3"])
        .unwrap()
        .contains("8 processors"));
    assert!(call(&["list"]).unwrap().contains("hypercube:D"));

    let out = call_full(&[
        "verify",
        "--family",
        "hypercube",
        "--reduce",
        "quotient",
        "--depth",
        "8",
        "--json",
    ])
    .unwrap();
    assert!(!out.failed, "{}", out.text);
    // Edge names are colors (dim0..dim2 must map to themselves), so
    // Aut is exactly the 2^3 XOR-translations, not the full 2^3·3!
    // hypercube group.
    assert!(out.text.contains("\"group_order\": 8"), "{}", out.text);
    assert!(out.text.contains("\"group_capped\": 0"), "{}", out.text);

    assert!(call(&["verify", "--family", "hypercube", "--procs", "6"])
        .unwrap_err()
        .contains("power-of-two"));
    assert!(call(&["analyze", "hypercube:0"])
        .unwrap_err()
        .contains("size >= 1"));
    assert!(call(&["analyze", "hypercube:27"])
        .unwrap_err()
        .contains("at most 26"));
}

#[test]
fn verify_rejects_bad_flags() {
    assert!(call(&["verify", "--family", "ring", "--reduce", "bogus"])
        .unwrap_err()
        .contains("unknown reduction"));
    assert!(call(&["verify"]).unwrap_err().contains("needs --family"));
    assert!(call(&["verify", "--family", "nope"])
        .unwrap_err()
        .contains("unknown family"));
    assert!(call(&["verify", "--family", "alternating", "--procs", "5"])
        .unwrap_err()
        .contains("even"));
}

// ---- the simulation farm ------------------------------------------

use simsym::serve::client as farm;

/// Boots a farm on an ephemeral port with the real [`DispatchRunner`].
fn boot_farm(
    workers: usize,
    queue: usize,
) -> (String, std::thread::JoinHandle<Result<CmdOut, String>>) {
    let addr_flag = "127.0.0.1:0".to_owned();
    let server = Server::bind(
        simsym::serve::ServeConfig {
            addr: addr_flag,
            workers,
            queue_capacity: queue,
            ..Default::default()
        },
        Arc::new(DispatchRunner),
    )
    .expect("bind farm");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || {
        let summary = server.run()?;
        ok(format!(
            "completed {} cache_hits {} rejected {}",
            summary.completed, summary.cache_hits, summary.rejected
        ))
    });
    (addr, handle)
}

/// Submits every spec, then fetches every result in order.
fn farm_results(addr: &str, specs: &[String]) -> Vec<farm::JobResult> {
    let submitted: Vec<_> = specs
        .iter()
        .map(|s| farm::submit_job(addr, s).expect("submit"))
        .collect();
    submitted
        .iter()
        .map(|s| farm::fetch_result(addr, s.job).expect("result"))
        .collect()
}

#[test]
fn served_jobs_are_byte_identical_across_worker_counts_and_to_batch_output() {
    let specs: Vec<String> = vec![
        "{\"kind\": \"lint\", \"system\": \"ring:5\", \"seed\": 3}".to_owned(),
        "{\"kind\": \"sweep\", \"system\": \"marked-ring:5\", \"steps\": 400}".to_owned(),
        "{\"kind\": \"verify\", \"family\": \"hypercube\", \"procs\": 8, \"depth\": 6}".to_owned(),
        "{\"kind\": \"faults\", \"family\": \"ring\", \"plan\": \"crash\", \"sweep\": 2}"
            .to_owned(),
    ];
    let (addr1, handle1) = boot_farm(1, 16);
    let one = farm_results(&addr1, &specs);
    farm::shutdown(&addr1).expect("shutdown");
    handle1.join().expect("farm thread").expect("farm summary");

    let (addr4, handle4) = boot_farm(4, 16);
    let four = farm_results(&addr4, &specs);
    farm::shutdown(&addr4).expect("shutdown");
    handle4.join().expect("farm thread").expect("farm summary");

    // Byte-identical regardless of worker count…
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(a.document, b.document);
        assert_eq!(a.failed, b.failed);
    }
    // …and identical to what the batch CLI prints for the same argv.
    let batch_argv: Vec<Vec<String>> = specs
        .iter()
        .map(|s| simsym::serve::spec::job_argv(s).expect("argv"))
        .collect();
    for (served, argv) in one.iter().zip(&batch_argv) {
        let batch = dispatch(argv).expect("batch dispatch");
        assert_eq!(served.document, batch.text);
        assert_eq!(served.failed, batch.failed);
    }
}

/// Counts runner invocations, so a cache hit that silently recomputes
/// is caught.
struct CountingRunner(std::sync::atomic::AtomicUsize);

impl JobRunner for CountingRunner {
    fn run(&self, argv: &[String]) -> Result<JobOutput, String> {
        self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        dispatch(argv).map(|out| JobOutput {
            document: out.text,
            failed: out.failed,
        })
    }
}

#[test]
fn resubmitting_a_job_hits_the_store_without_recomputation() {
    let runner = Arc::new(CountingRunner(std::sync::atomic::AtomicUsize::new(0)));
    let server = Server::bind(
        simsym::serve::ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_capacity: 8,
            ..Default::default()
        },
        Arc::clone(&runner) as Arc<dyn JobRunner>,
    )
    .expect("bind farm");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());

    let spec = "{\"kind\": \"lint\", \"system\": \"ring:4\", \"static\": true}";
    let first = farm::submit_job(&addr, spec).expect("submit");
    assert_eq!(first.cache, "miss");
    let first_doc = farm::fetch_result(&addr, first.job).expect("result");

    let second = farm::submit_job(&addr, spec).expect("resubmit");
    assert_eq!(second.cache, "hit");
    let second_doc = farm::fetch_result(&addr, second.job).expect("cached result");
    assert_eq!(first_doc.document, second_doc.document);
    assert_eq!(
        runner.0.load(std::sync::atomic::Ordering::SeqCst),
        1,
        "the cache hit must not re-run the job"
    );

    farm::shutdown(&addr).expect("shutdown");
    let summary = handle.join().expect("farm thread").expect("farm run");
    assert_eq!(summary.completed, 1);
    assert_eq!(summary.cache_hits, 1);
}

#[test]
fn the_farm_sustains_sixty_four_concurrent_jobs() {
    // 64 distinct static-lint jobs (varying system size over the
    // repertoire of families) through a queue of exactly that
    // capacity, on 2 workers. Every artifact must come back, every
    // fingerprint distinct, and the final summary must account for
    // all of them.
    let (addr, handle) = boot_farm(2, 64);
    let specs: Vec<String> = (0..64)
        .map(|i| {
            let family = ["ring", "line", "star", "table"][i % 4];
            format!(
                "{{\"kind\": \"lint\", \"system\": \"{family}:{}\", \"static\": true}}",
                3 + i / 4
            )
        })
        .collect();
    let results = farm_results(&addr, &specs);
    assert_eq!(results.len(), 64);
    for (spec, result) in specs.iter().zip(&results) {
        assert!(!result.document.is_empty(), "empty artifact for {spec}");
        assert!(result.document.contains("\"system\""), "{spec}");
    }
    farm::shutdown(&addr).expect("shutdown");
    let summary = handle.join().expect("farm thread").expect("farm summary");
    assert!(summary.text.contains("completed 64"), "{}", summary.text);
}

#[test]
fn draining_rejects_new_work_but_finishes_the_queue() {
    let (addr, handle) = boot_farm(1, 8);
    let jobs: Vec<_> = (0..3)
        .map(|i| {
            farm::submit_job(
                &addr,
                &format!(
                    "{{\"kind\": \"lint\", \"system\": \"ring:{}\", \"static\": true}}",
                    3 + i
                ),
            )
            .expect("submit")
        })
        .collect();
    // Open an event stream for the last job *before* asking for the
    // drain, so the farm cannot fully exit until we have watched the
    // job finish. The stream counts as open once its first line arrives.
    let watch_addr = addr.clone();
    let last = jobs[2].job;
    let (opened, stream_open) = std::sync::mpsc::channel();
    let watcher = std::thread::spawn(move || {
        let mut events = Vec::new();
        farm::watch_events(&watch_addr, last, |line| {
            if events.is_empty() {
                let _ = opened.send(());
            }
            events.push(line.to_owned());
        })
        .expect("events");
        events
    });
    stream_open.recv().expect("event stream opened");
    let ack = farm::shutdown(&addr).expect("shutdown");
    assert!(ack.contains("draining"), "{ack}");
    // New work is turned away while the queue drains. The exact
    // refusal depends on timing — SERVE-DRAINING from a live farm, a
    // connection error from one that already exited — but it must
    // never be accepted.
    match farm::submit_job(&addr, "{\"kind\": \"lint\", \"system\": \"ring:9\"}") {
        Err(e) => {
            if e.contains("SERVE-") {
                assert!(e.contains("SERVE-DRAINING"), "{e}");
            }
        }
        Ok(_) => panic!("draining farm accepted new work"),
    }
    // Every queued job still ran to completion.
    let events = watcher.join().expect("watcher");
    assert!(
        events.iter().any(|e| e.contains("\"event\": \"finished\"")),
        "{events:?}"
    );
    let summary = handle.join().expect("farm thread").expect("farm summary");
    assert!(summary.text.contains("completed 3"), "{}", summary.text);
}

#[test]
fn submit_command_parses_inline_specs_and_flags() {
    let (addr, handle) = boot_farm(1, 8);
    let out = call_full(&[
        "submit",
        "--addr",
        &addr,
        "--watch",
        "{\"kind\": \"lint\", \"system\": \"ring:3\", \"static\": true}",
    ])
    .expect("submit");
    assert!(out.text.contains("\"cache\": \"miss\""), "{}", out.text);
    assert!(out.text.contains("\"event\": \"queued\""), "{}", out.text);
    assert!(out.text.contains("\"event\": \"finished\""), "{}", out.text);
    assert!(out.text.contains("\"system\":\"ring:3\""), "{}", out.text);
    assert!(!out.failed);

    // A bad spec surfaces the diagnostic code, not a panic.
    let err = call_full(&["submit", "--addr", &addr, "{\"kind\": \"melt\"}"]).unwrap_err();
    assert!(err.contains("SERVE-JOB-SPEC"), "{err}");

    let bye = call_full(&["shutdown", "--addr", &addr]).expect("shutdown");
    assert!(bye.text.contains("draining"), "{}", bye.text);
    handle.join().expect("farm thread").expect("farm summary");

    // Usage errors are caught client-side before any connection.
    let err = call_full(&["submit"]).unwrap_err();
    assert!(err.contains("job spec"), "{err}");
    let err = call_full(&["serve", "--workers", "0"]).unwrap_err();
    assert!(err.contains("positive"), "{err}");
}

#[test]
fn panic_fixture_job_is_isolated_and_the_farm_keeps_serving() {
    let (addr, handle) = boot_farm(2, 8);
    let fixture = farm::submit_job(&addr, "{\"kind\": \"panic\", \"seed\": 3}")
        .expect("submit panic fixture");
    let verdict = farm::fetch_result(&addr, fixture.job).expect("fixture verdict");
    assert!(verdict.failed);
    assert!(
        verdict.document.contains("SERVE-JOB-PANIC"),
        "{}",
        verdict.document
    );
    // The dispatcher survived two panics (run + bounded retry) and
    // ordinary work still flows.
    let ok = farm::submit_job(
        &addr,
        "{\"kind\": \"lint\", \"system\": \"ring:3\", \"static\": true}",
    )
    .expect("submit after panic");
    assert!(!farm::fetch_result(&addr, ok.job).expect("result").failed);
    farm::shutdown(&addr).expect("shutdown");
    handle.join().expect("farm thread").expect("farm summary");
}

#[test]
fn deadline_ms_kills_a_long_soak_while_the_farm_answers_healthz() {
    let (addr, handle) = boot_farm(1, 8);
    // A soak sized to run for many seconds, against a 200ms budget:
    // the nested sweep observes the deadline at a job boundary.
    let submitted = farm::submit_job(
        &addr,
        "{\"kind\": \"soak\", \"family\": \"ring\", \"budget\": 400, \"deadline_ms\": 200}",
    )
    .expect("submit soak");
    let result = farm::fetch_result(&addr, submitted.job).expect("deadline verdict");
    assert!(result.failed);
    assert!(
        result.document.contains("SERVE-JOB-DEADLINE"),
        "{}",
        result.document
    );
    let health = farm::healthz(&addr).expect("healthz");
    assert!(health.contains("\"status\": \"ok\""), "{health}");
    assert!(health.contains("\"workers\": 1"), "{health}");
    farm::shutdown(&addr).expect("shutdown");
    handle.join().expect("farm thread").expect("farm summary");
}

#[test]
fn cancel_command_stops_a_running_soak() {
    let (addr, handle) = boot_farm(1, 8);
    let submitted = farm::submit_job(
        &addr,
        "{\"kind\": \"soak\", \"family\": \"ring\", \"budget\": 400}",
    )
    .expect("submit soak");
    let ack = call_full(&["cancel", "--addr", &addr, &submitted.job.to_string()]).expect("cancel");
    assert!(ack.text.contains("\"cancelled\": 1"), "{}", ack.text);
    let result = farm::fetch_result(&addr, submitted.job).unwrap_err();
    assert!(result.contains("cancelled"), "{result}");
    farm::shutdown(&addr).expect("shutdown");
    handle.join().expect("farm thread").expect("farm summary");

    let err = call_full(&["cancel", "not-a-number"]).unwrap_err();
    assert!(err.contains("numeric job id"), "{err}");
}

#[test]
fn submit_deadline_flag_injects_the_spec_field() {
    let (addr, handle) = boot_farm(1, 8);
    let out = call_full(&[
        "submit",
        "--addr",
        &addr,
        "--deadline-ms",
        "200",
        "{\"kind\": \"soak\", \"family\": \"ring\", \"budget\": 400}",
    ])
    .expect("submit returns the deadline verdict document");
    assert!(out.failed);
    assert!(out.text.contains("SERVE-JOB-DEADLINE"), "{}", out.text);
    farm::shutdown(&addr).expect("shutdown");
    handle.join().expect("farm thread").expect("farm summary");
}
/// Byte-identity net over the CLI's family-driven commands: FNV-1a 64
/// of stdout for `verify`, `faults`, `soak` and `lint` on every
/// built-in family, plus `list`, the usage text and the bytes of a
/// soak repro artifact. Any drift in what a family builds, which
/// defaults a command picks or how a document renders fails here.
#[test]
fn cli_stdout_golden_net() {
    const GOLDEN: &[(&str, u64)] = &[
        (
            "verify --family ring --reduce none --json",
            0x1f498bc3b652f112,
        ),
        (
            "verify --family ring --reduce quotient --json",
            0x629e5a6f52f35b26,
        ),
        (
            "verify --family ring --reduce por --json",
            0x40afaf6b01940d96,
        ),
        (
            "verify --family ring --reduce both --json",
            0x72a80da1dfaf48c0,
        ),
        (
            "verify --family table --reduce none --json",
            0x2d9371a82c5da84c,
        ),
        (
            "verify --family table --reduce quotient --json",
            0x4fa61d1d10cac378,
        ),
        (
            "verify --family table --reduce por --json",
            0xca0568325528bc04,
        ),
        (
            "verify --family table --reduce both --json",
            0xb1c17aead6eec0f6,
        ),
        (
            "verify --family alternating --reduce none --json",
            0xd6f4d0b1068bc161,
        ),
        (
            "verify --family alternating --reduce quotient --json",
            0xa3fe40c86c5e7730,
        ),
        (
            "verify --family alternating --reduce por --json",
            0xa8e258fe004fc94a,
        ),
        (
            "verify --family alternating --reduce both --json",
            0x27d54b3bcf0c923a,
        ),
        (
            "verify --family hypercube --procs 4 --reduce none --json",
            0x894e4f2fd2f83a23,
        ),
        (
            "verify --family hypercube --procs 4 --reduce quotient --json",
            0x402f3e0abd740ad2,
        ),
        (
            "verify --family hypercube --procs 4 --reduce por --json",
            0x3ee0e90bd0d25bed,
        ),
        (
            "verify --family hypercube --procs 4 --reduce both --json",
            0xad5d5c8473e0d36c,
        ),
        (
            "faults --family ring --plan crash --sweep 2 --steps 2000 --json",
            0xea9afdb80dd7d361,
        ),
        (
            "faults --family ring --plan lossy --sweep 2 --steps 2000 --json",
            0x2ad76601cad2441b,
        ),
        (
            "faults --family ring --plan starve --sweep 2 --steps 2000 --json",
            0x16737a339f8f78eb,
        ),
        (
            "faults --family ring --plan crash --journal --sweep 2 --steps 2000 --json",
            0x9bbecd2057ef628d,
        ),
        (
            "faults --family table --plan crash --sweep 2 --steps 2000 --json",
            0x9bba7e90eeec0e2b,
        ),
        (
            "faults --family table --plan lossy --sweep 2 --steps 2000 --json",
            0xeab704ae0c361608,
        ),
        (
            "faults --family table --plan starve --sweep 2 --steps 2000 --json",
            0x5852e5f053cf75f1,
        ),
        (
            "faults --family table --plan crash --journal --sweep 2 --steps 2000 --json",
            0x75d5d6358ce84735,
        ),
        (
            "faults --family alternating --plan crash --sweep 2 --steps 2000 --json",
            0x0972107aecda0376,
        ),
        (
            "faults --family alternating --plan lossy --sweep 2 --steps 2000 --json",
            0x0b79199f66f9fbb7,
        ),
        (
            "faults --family alternating --plan starve --sweep 2 --steps 2000 --json",
            0x4a9c9fcfc5bad96e,
        ),
        (
            "faults --family alternating --plan crash --journal --sweep 2 --steps 2000 --json",
            0x776aca54d63963ec,
        ),
        (
            "faults --family hypercube --plan crash --sweep 2 --steps 2000 --json",
            0xca723a5e22a115e4,
        ),
        (
            "faults --family hypercube --plan lossy --sweep 2 --steps 2000 --json",
            0xa0bff8e24b0c9b72,
        ),
        (
            "faults --family hypercube --plan starve --sweep 2 --steps 2000 --json",
            0xd7afa81ad886b71b,
        ),
        (
            "faults --family hypercube --plan crash --journal --sweep 2 --steps 2000 --json",
            0x56f157dd3d258386,
        ),
        (
            "soak --family ring --budget 10 --steps 2000 --json",
            0x0a13b19f2a4cbe97,
        ),
        (
            "soak --family table --budget 10 --steps 2000 --json",
            0x088ad38e21f2a44a,
        ),
        (
            "soak --family alternating --budget 10 --steps 2000 --json",
            0x50e13bacaa6911e2,
        ),
        (
            "soak --family hypercube --budget 10 --steps 2000 --json",
            0x35cd17daef7dacfd,
        ),
        ("lint figure1 --json", 0x6d23c5f0ab2cc671),
        ("lint figure2 --json", 0x2c53c0279effa808),
        ("lint figure3 --json", 0xa9b4b103b7494a58),
        ("lint ring:5 --json", 0x16a8229f0529592d),
        ("lint marked-ring:5 --json", 0x1df6fecaae7346e6),
        ("lint line:4 --json", 0xb1ab8ff395367732),
        ("lint star:4 --json", 0x61518e599785b278),
        ("lint table:5 --json", 0xbb76fc209a4ba0af),
        ("lint alternating:6 --json", 0x54d76633b43e7c4f),
        ("lint hypercube:3 --json", 0x1fe728f52698d182),
        ("lint board:3x2 --json", 0xb5abad8b06001c77),
        ("list", 0x4034f1cff5eee8ab),
        (
            "analyze table:5 --trace --seed 3 --steps 400",
            0xb1dd9d7e84a4a317,
        ),
        (
            "analyze alternating:6 --trace --seed 3 --steps 400",
            0xa4a38a74aa7332da,
        ),
        (
            "analyze hypercube:3 --trace --seed 3 --steps 400",
            0x8f873e3d7ab8c751,
        ),
    ];
    const USAGE: u64 = 0x0c5c3104b1f95083;
    const REPRO_RING: u64 = 0xe6a4f7b811df7121;
    const REPLAY_RING: u64 = 0x47de50a05f998e32;
    let mut drift = Vec::new();
    let mut check = |label: &str, text: &str, want: u64| {
        let got = fnv1a64(text.as_bytes());
        if got != want {
            drift.push(format!("(\"{label}\", {got:#018x}),"));
        }
    };
    for &(argv, want) in GOLDEN {
        let args: Vec<&str> = argv.split(' ').collect();
        let out = call(&args).unwrap_or_else(|e| panic!("{argv}: {e}"));
        check(argv, &out, want);
    }
    check("usage", &usage(), USAGE);

    let dir = std::env::temp_dir().join("simsym-golden-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("repro.json");
    let repro = path.to_str().unwrap().to_owned();
    let soak = [
        "soak", "--family", "ring", "--budget", "10", "--steps", "2000", "--json",
    ];
    let plain = call(&soak).unwrap();
    let mut with_repro = soak.to_vec();
    with_repro.extend(["--repro-out", &repro]);
    assert_eq!(
        call(&with_repro).unwrap(),
        plain,
        "--repro-out changed stdout"
    );
    check(
        "repro ring",
        &std::fs::read_to_string(&path).unwrap(),
        REPRO_RING,
    );
    let replay = call(&["analyze", "--trace", &repro]).unwrap();
    assert!(replay.contains("reproduced"), "{replay}");
    check(
        "analyze --trace <repro ring>",
        &replay.replace(&repro, "<repro>"),
        REPLAY_RING,
    );

    assert!(drift.is_empty(), "stdout drifted:\n{}", drift.join("\n"));
}

#[test]
fn verify_rejects_sizes_below_the_topology_minimum() {
    // These used to reach the topology constructors' asserts and panic.
    for (family, procs, want) in [
        ("ring", "1", "ring needs size >= 2"),
        ("table", "0", "table needs size >= 2"),
        ("alternating", "0", "alternating needs size >= 2"),
    ] {
        let err = call(&["verify", "--family", family, "--procs", procs]).unwrap_err();
        assert!(err.contains(want), "{family} --procs {procs}: {err}");
    }
}

#[test]
fn every_subcommand_rejects_a_flag_given_twice() {
    for args in [
        &["analyze", "ring:4", "--mark", "p0", "--mark", "p1"][..],
        &["lint", "ring:4", "--seed", "1", "--seed", "2"],
        &["verify", "--family", "ring", "--json", "--json"],
        &[
            "faults", "--family", "ring", "--family", "table", "--plan", "crash",
        ],
        &["soak", "--family", "ring", "--budget", "2", "--budget", "3"],
        &["serve", "--workers", "1", "--workers", "2"],
    ] {
        let err = call(args).unwrap_err();
        assert!(err.contains("given twice"), "{args:?}: {err}");
    }
}

#[test]
fn an_undersized_verify_job_fails_without_panicking_a_worker() {
    let server = Server::bind(
        simsym::serve::ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            queue_capacity: 4,
            ..Default::default()
        },
        Arc::new(DispatchRunner),
    )
    .expect("bind farm");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let job = farm::submit_job(
        &addr,
        "{\"kind\":\"verify\",\"family\":\"ring\",\"procs\":1}",
    )
    .expect("submit");
    let result = farm::fetch_result(&addr, job.job).expect("result");
    assert!(result.failed);
    assert!(
        result.document.contains("ring needs size >= 2"),
        "{}",
        result.document
    );
    farm::shutdown(&addr).expect("shutdown");
    let summary = handle.join().expect("farm thread").expect("farm run");
    assert_eq!((summary.panicked, summary.retried), (0, 0));
    assert_eq!(summary.completed, 1);
}
