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

/// Byte-identity regression net for recorded traces: `analyze --trace`
/// output (schedule, ops, per-step fingerprints) across 20 seeds on
/// ring and marked-ring. A fingerprint hashes state content only, so
/// these bytes are the same in every process. Any observable drift —
/// value ordering, peek expansion, fingerprinting, scheduling — fails
/// here.
#[test]
fn trace_bytes_are_stable_across_20_seeds() {
    const GOLDEN: &[(&str, u64, u64)] = &[
        ("ring:8", 1, 0x399fd024f765572c),
        ("ring:8", 2, 0xcb709bc67812363e),
        ("ring:8", 3, 0x326fbc3a53261ca4),
        ("ring:8", 4, 0x564ecc3df84b1f90),
        ("ring:8", 5, 0xb223259a0dfc59eb),
        ("ring:8", 6, 0x8330b5d94d33f9b9),
        ("ring:8", 7, 0x33116f177f2613ab),
        ("ring:8", 8, 0x4317346215a1bd74),
        ("ring:8", 9, 0xeb56e9c963d5d24b),
        ("ring:8", 10, 0xa3b5012748718b12),
        ("ring:8", 11, 0xc8edb8a0c27db335),
        ("ring:8", 12, 0xe2e4abbc465472a2),
        ("ring:8", 13, 0xe8907e480b8a6080),
        ("ring:8", 14, 0xd56f92c62e39145e),
        ("ring:8", 15, 0xf1a74846c0646e12),
        ("ring:8", 16, 0x0c2c6f5e988dac58),
        ("ring:8", 17, 0x2e3337f067c92351),
        ("ring:8", 18, 0xe676befe4c8a5d6f),
        ("ring:8", 19, 0x0841acecc6e1a725),
        ("ring:8", 20, 0xc24dc49934e80679),
        ("marked-ring:8", 1, 0xe4a84c8a5f23c196),
        ("marked-ring:8", 2, 0x3310eea6e6ca250b),
        ("marked-ring:8", 3, 0x2a0e92c565537483),
        ("marked-ring:8", 4, 0xa7f9eba1acacbe57),
        ("marked-ring:8", 5, 0xe5ce74c79149bbce),
        ("marked-ring:8", 6, 0x8cd472ec0326576b),
        ("marked-ring:8", 7, 0xe200ac8de1f895e9),
        ("marked-ring:8", 8, 0x3cdec27f2a255781),
        ("marked-ring:8", 9, 0xdaa777e0c7a9dde1),
        ("marked-ring:8", 10, 0x0f8f534b0d725201),
        ("marked-ring:8", 11, 0x91a9f3bffa5527ec),
        ("marked-ring:8", 12, 0x717928ab791d8d93),
        ("marked-ring:8", 13, 0x5341da628dcfa081),
        ("marked-ring:8", 14, 0xfec6fd9f274536b3),
        ("marked-ring:8", 15, 0xa9ce13e16417bab7),
        ("marked-ring:8", 16, 0x3c64e607e34aef78),
        ("marked-ring:8", 17, 0x9bc51e7a5bd745a7),
        ("marked-ring:8", 18, 0xac2d611277b34086),
        ("marked-ring:8", 19, 0xa2ef9a2e4280f196),
        ("marked-ring:8", 20, 0x5935d3bf112323c4),
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

/// `text` with the digits of every `"fp":` and `"final_fp":` value
/// replaced by `#`: what a trace records besides the state hash.
fn mask_fingerprints(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(i) = rest.find("fp\":") {
        let (head, tail) = rest.split_at(i + 4);
        out.push_str(head);
        out.push('#');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// The traces of `trace_bytes_are_stable_across_20_seeds` and of the
/// golden net's `analyze` lines, with every fingerprint masked: the
/// schedule, ops, contention and selected set. A change of the state
/// hash scheme re-pins those unmasked goldens; it must not move these.
#[test]
fn trace_bytes_with_fingerprints_masked_are_stable() {
    const GOLDEN: &[(&str, u64, u64)] = &[
        ("ring:8", 1, 0x3c52d978335530fc),
        ("ring:8", 2, 0xe105ebf095fbecfc),
        ("ring:8", 3, 0x8affca4e8f831a19),
        ("ring:8", 4, 0x7ec281ede2677ccc),
        ("ring:8", 5, 0xa2392eb3dda0bf91),
        ("ring:8", 6, 0x8ee04d04b7c5263c),
        ("ring:8", 7, 0xa563ab74c6fda6b7),
        ("ring:8", 8, 0xc95552cacbaf55ed),
        ("ring:8", 9, 0xc8cb4a7e1d095309),
        ("ring:8", 10, 0xebb79fcaf96e2cfe),
        ("ring:8", 11, 0xa8484780e3b8a782),
        ("ring:8", 12, 0x06c710662514f4bd),
        ("ring:8", 13, 0xec1b2192baa3f09b),
        ("ring:8", 14, 0x8897dbd17bc9e2de),
        ("ring:8", 15, 0x1caa98e80c055281),
        ("ring:8", 16, 0xc52a6e421bc2a186),
        ("ring:8", 17, 0x4ca54a5d78b0be56),
        ("ring:8", 18, 0x2c9ef11ab898194d),
        ("ring:8", 19, 0x0f8050944522d73a),
        ("ring:8", 20, 0xffceec2a69c691c3),
        ("marked-ring:8", 1, 0x6d72aa0026fe358e),
        ("marked-ring:8", 2, 0xc51681d5814ae77c),
        ("marked-ring:8", 3, 0x437d2d144035430b),
        ("marked-ring:8", 4, 0xa0951b4179a3aea8),
        ("marked-ring:8", 5, 0x1d991025748eab97),
        ("marked-ring:8", 6, 0xbaa6b9f92627c8cf),
        ("marked-ring:8", 7, 0xfa52894d2de216c1),
        ("marked-ring:8", 8, 0x6f0216fd5fcc2df4),
        ("marked-ring:8", 9, 0x8be0dcc80621cc82),
        ("marked-ring:8", 10, 0xc3699c8d47841200),
        ("marked-ring:8", 11, 0xefa84e48af390d5d),
        ("marked-ring:8", 12, 0x35543b0bf3270dff),
        ("marked-ring:8", 13, 0x7c7386ef96e68b60),
        ("marked-ring:8", 14, 0xde91f06657598483),
        ("marked-ring:8", 15, 0xcb27d463a3e85619),
        ("marked-ring:8", 16, 0xdef7a50b8d91390d),
        ("marked-ring:8", 17, 0xbfa7c2d86e8639b4),
        ("marked-ring:8", 18, 0x4bc4ba84cf2e6990),
        ("marked-ring:8", 19, 0x29a0b590ee801729),
        ("marked-ring:8", 20, 0xf6c777caa519f1ae),
        ("table:5", 3, 0x0079074b29b73058),
        ("alternating:6", 3, 0x369d2a1cf5aa29ab),
        ("hypercube:3", 3, 0xd76b15005852eb26),
    ];
    assert_eq!(
        mask_fingerprints("{\"fp\":12,\"x\":3,\"final_fp\":0}"),
        "{\"fp\":#,\"x\":3,\"final_fp\":#}"
    );
    for &(system, seed, want) in GOLDEN {
        let seed = seed.to_string();
        let out = call(&[
            "analyze", system, "--trace", "--seed", &seed, "--steps", "400",
        ])
        .expect("trace runs");
        assert_eq!(
            fnv1a64(mask_fingerprints(&out).as_bytes()),
            want,
            "masked trace bytes drifted for {system} seed {seed}"
        );
    }
}

/// A fingerprint is the same in every process: the built binary, which
/// interns registers and values in its own order, prints the bytes this
/// test process prints after whatever the other tests interned first.
/// Cargo builds the binary next to this test executable's `deps/`
/// directory for the package's integration tests.
#[test]
fn trace_bytes_match_the_built_binary() {
    let exe = std::env::current_exe().expect("test executable path");
    let bin = exe
        .parent()
        .and_then(|deps| deps.parent())
        .expect("target directory")
        .join(format!("simsym{}", std::env::consts::EXE_SUFFIX));
    for args in [
        &["analyze", "ring:8"][..],
        &[
            "analyze",
            "marked-ring:8",
            "--trace",
            "--seed",
            "1",
            "--steps",
            "400",
        ],
    ] {
        let child = std::process::Command::new(&bin)
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("spawn {}: {e}", bin.display()));
        assert!(child.status.success(), "{args:?}: {child:?}");
        assert_eq!(
            String::from_utf8(child.stdout).expect("utf-8 stdout"),
            call(args).expect("runs in process"),
            "{args:?}"
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
    // A seed list this long would abort on allocation.
    assert!(call(&[
        "faults",
        "--family",
        "ring",
        "--plan",
        "crash",
        "--sweep",
        "100000000000"
    ])
    .unwrap_err()
    .contains("--sweep takes at most 1048576 seeds"));
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
    assert!(
        call(&["soak", "--family", "ring", "--budget", "100000000000"])
            .unwrap_err()
            .contains("--budget takes at most 1048576 runs")
    );
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
    // POR reads its interference relation from the program; there is no
    // flag to choose it.
    assert!(call(&[
        "verify",
        "--family",
        "ring",
        "--reduce",
        "por",
        "--interference",
        "static"
    ])
    .unwrap_err()
    .contains("unknown verify flag \"--interference\""));
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
            0x5f6374c64a4ec81a,
        ),
        (
            "analyze alternating:6 --trace --seed 3 --steps 400",
            0x709c389712193a76,
        ),
        (
            "analyze hypercube:3 --trace --seed 3 --steps 400",
            0x3133c8260ee9d0e3,
        ),
    ];
    const USAGE: u64 = 0xa39c46f51683acaf;
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
fn sizes_past_the_edge_bound_are_refused_before_building() {
    // Each of these would allocate gigabytes (or overflow) if built.
    for args in [
        &["lint", "ring:200000000", "--static"][..],
        &["analyze", "hypercube:18"],
        &["analyze", "board:2049x2048"],
        &["analyze", "star:18446744073709551615"],
        &["verify", "--family", "ring", "--procs", "2097153"],
        &["soak", "--family", "table", "--procs", "200000000"],
        &["verify", "--family", "hypercube", "--procs", "67108864"],
    ] {
        let err = call(args).unwrap_err();
        assert!(err.contains("more than 2^22"), "{args:?}: {err}");
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
    for (spec, want) in [
        (
            "{\"kind\":\"verify\",\"family\":\"ring\",\"procs\":1}",
            "ring needs size >= 2",
        ),
        // Building this graph would abort the farm on allocation.
        (
            "{\"kind\":\"lint\",\"system\":\"ring:200000000\",\"static\":true}",
            "more than 2^22",
        ),
        // So would a seed list or a run budget this long.
        (
            "{\"kind\":\"faults\",\"family\":\"ring\",\"plan\":\"crash\",\"sweep\":100000000000}",
            "at most 1048576",
        ),
        (
            "{\"kind\":\"soak\",\"family\":\"ring\",\"budget\":100000000000}",
            "at most 1048576",
        ),
    ] {
        let job = farm::submit_job(&addr, spec).expect("submit");
        let result = farm::fetch_result(&addr, job.job).expect("result");
        assert!(result.failed);
        assert!(result.document.contains(want), "{}", result.document);
    }
    farm::shutdown(&addr).expect("shutdown");
    let summary = handle.join().expect("farm thread").expect("farm run");
    assert_eq!((summary.panicked, summary.retried), (0, 0));
    assert_eq!(summary.completed, 4);
}
