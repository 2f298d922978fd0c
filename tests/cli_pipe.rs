//! The CLI on a closed pipe: `simsym ... | head` must end with exit code
//! 1, not a "failed printing to stdout" panic (exit code 101).
//!
//! Each case hands the child the write end of a pipe whose read end is
//! dropped before the spawn, so every write fails with `EPIPE`.

use std::process::{Command, Output, Stdio};

fn closed_pipe() -> Stdio {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    writer.into()
}

fn simsym(args: &[&str], stdout: Stdio, stderr: Stdio) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simsym"))
        .args(args)
        .stdout(stdout)
        .stderr(stderr)
        .output()
        .expect("spawn simsym")
}

#[test]
fn closed_stdout_fails_without_panicking() {
    let out = simsym(&["list"], closed_pipe(), Stdio::piped());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn closed_stderr_fails_without_panicking() {
    let out = simsym(&["nonsense"], Stdio::piped(), closed_pipe());
    assert_eq!(out.status.code(), Some(1));
}

/// `analyze --trace` writes its step line and metrics to stderr from
/// inside the command, before `main` prints the trace. A closed stderr
/// there must end the run with exit code 1 and nothing on stdout. A
/// panic would exit 101, its message lost to the closed stderr.
#[test]
fn closed_stderr_during_analyze_trace_fails_without_panicking() {
    let out = simsym(
        &[
            "analyze", "ring:4", "--trace", "--seed", "1", "--steps", "10",
        ],
        Stdio::piped(),
        closed_pipe(),
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(stdout.is_empty(), "stdout: {stdout}");
}
