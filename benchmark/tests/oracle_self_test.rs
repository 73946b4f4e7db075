//! The oracle self-test: every workload checks each answer against an
//! expected value, so a run whose expectation was tampered with (`--tamper`
//! corrupts one expected bound) must report `"correct": false` and exit
//! non-zero, while the same short run untampered passes.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use std::process::Command;

/// Run one short benchmark from the repository root (it reads the golden
/// bounds there); returns the exit success flag and the last stdout line.
fn run(workload: &str, tamper: bool) -> (bool, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_soap-benchmark"));
    cmd.current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
        ]);
    if tamper {
        cmd.arg("--tamper");
    }
    let out = cmd.output().expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("").to_string();
    (out.status.success(), last)
}

#[test]
fn tampered_expectation_fails_every_workload() {
    for workload in ["cold-suite", "serve-hot", "serve-churn"] {
        let (ok, last) = run(workload, true);
        assert!(!ok, "{workload}: a tampered run must exit non-zero");
        assert!(
            last.contains("\"correct\": false"),
            "{workload}: tampered run must report correct=false, got {last}"
        );
    }
}

#[test]
fn untampered_run_passes() {
    for workload in ["cold-suite", "serve-hot", "serve-churn"] {
        let (ok, last) = run(workload, false);
        assert!(ok, "{workload}: clean run failed: {last}");
        assert!(last.contains("\"correct\": true"), "{workload}: {last}");
    }
}
