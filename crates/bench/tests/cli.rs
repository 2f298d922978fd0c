//! The `experiments` binary's argument handling. What it prints, and
//! the claims it checks, are pinned by `claims.rs`.

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

#[test]
fn a_closed_stdout_exits_1_without_panicking() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("e2")
        .stdout(writer)
        .output()
        .expect("run experiments");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}
