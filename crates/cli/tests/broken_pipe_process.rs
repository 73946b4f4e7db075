//! `soap-cli` on a closed stdout: when the reader of its output goes away
//! (`soap-cli list | head -1`), the process must end quietly — no
//! "failed printing to stdout" panic, no exit status 101.

use std::process::{Command, Stdio};

/// Run `soap-cli args…` with stdout on a pipe whose read end is already
/// closed, so the first write fails with `BrokenPipe`.
fn run_with_closed_stdout(args: &[&str]) {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_soap-cli"))
        .args(args)
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .expect("soap-cli runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn a_closed_stdout_ends_the_process_quietly() {
    run_with_closed_stdout(&["list"]);
    run_with_closed_stdout(&["kernel", "bert-encoder", "--json"]);
}
