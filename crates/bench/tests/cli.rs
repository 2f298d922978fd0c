//! The `experiments` binary's argument handling. Only ids that fail
//! validation are passed, so no experiment ever runs here.

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
