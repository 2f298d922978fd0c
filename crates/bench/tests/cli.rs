//! The `experiments` binary's argument handling, and a byte pin on the
//! fast experiments whose output has no timing column.

use std::process::Command;

#[test]
fn an_unknown_experiment_id_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("all")
        .output()
        .expect("run experiments");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no banner before the usage error");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment id \"all\""), "{err}");
    assert!(err.contains("usage: experiments"), "{err}");
}

/// FNV-1a 64, the same content hash the CLI's golden net uses.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Pins the observable step counts of Algorithms 2–4: E4's
/// 36/96/288/960/256 steps to learn, E5's 22/34 steps to elect and E6's
/// mean of 218.1 steps to selection, with every other byte of their
/// report. A speedup of the learner must leave this hash unchanged.
#[test]
fn algorithm_2_to_4_step_counts_are_pinned() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["e4", "e5", "e6"])
        .output()
        .expect("run experiments");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    for want in [
        "figure2                  3              36",
        "marked-ring/16          16             960",
        "elected [p0] after 34 steps",
        "mean steps to selection 218.1",
    ] {
        assert!(text.contains(want), "missing {want:?} in:\n{text}");
    }
    assert_eq!(fnv1a64(&out.stdout), 0x1b6c_5da7_f636_3964, "{text}");
}
