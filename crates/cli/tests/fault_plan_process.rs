//! `SOAP_FAULT_PLAN` and store repair at the `soap-cli` process boundary.
//! Only the analysis subcommands (`kernel`, `analyze`, `batch`) read the
//! plan: a stray plan in the environment of an inspection command must not
//! touch a store, and a malformed plan must say so on stderr instead of
//! silently running clean.  Likewise only analysis hydration repairs a
//! genuinely corrupt store: `cache stat` reports the corruption and writes
//! nothing.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const MATMUL_PY: &str = "\
for i in range(0, N):
    for j in range(0, N):
        for k in range(0, N):
            C[i, j] += A[i, k] * B[k, j]
";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("soap-cli-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Run `soap-cli args…`, with `SOAP_FAULT_PLAN` set to `plan` or removed.
fn soap_cli(args: &[&str], plan: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_soap-cli"));
    cmd.args(args);
    match plan {
        Some(plan) => cmd.env("SOAP_FAULT_PLAN", plan),
        None => cmd.env_remove("SOAP_FAULT_PLAN"),
    };
    cmd.output().expect("spawn soap-cli")
}

/// Every file in `dir`, name → bytes.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("store dir lists")
        .map(|e| {
            let path = e.expect("dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("file reads"))
        })
        .collect()
}

#[test]
fn a_stray_plan_cannot_touch_a_store_through_cache_stat() {
    let dir = temp_dir("stat");
    let source = dir.join("mm.py");
    std::fs::write(&source, MATMUL_PY).expect("source written");
    let store = dir.join("store");
    let store_arg = store.to_str().unwrap();
    let seeded = soap_cli(
        &[
            "analyze",
            source.to_str().unwrap(),
            "--cache-dir",
            store_arg,
        ],
        None,
    );
    assert!(seeded.status.success(), "{seeded:?}");
    let before = snapshot(&store);
    assert!(before.keys().any(|n| n.starts_with("seg-")), "{before:?}");
    assert!(before.keys().any(|n| n.starts_with("rpt-")), "{before:?}");

    let stat = soap_cli(
        &["cache", "stat", store_arg],
        Some("seed=1,corrupt_every=1"),
    );
    assert!(stat.status.success(), "{stat:?}");
    let after = snapshot(&store);
    assert!(
        !after.keys().any(|n| n.ends_with(".quarantined")),
        "cache stat quarantined segments: {:?}",
        after.keys().collect::<Vec<_>>()
    );
    assert_eq!(before, after, "cache stat changed the store");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_stat_reports_a_corrupt_segment_without_repairing_it() {
    let dir = temp_dir("corrupt");
    let store = dir.join("store");
    let store_arg = store.to_str().unwrap();
    let seeded = soap_cli(&["batch", "gemm", "--cache-dir", store_arg], None);
    assert!(seeded.status.success(), "{seeded:?}");

    // Flip one digest byte of the first record of the solve segment.
    let fresh = snapshot(&store);
    let (seg, bytes) = fresh
        .iter()
        .find(|(name, _)| name.starts_with("seg-"))
        .expect("a solve segment");
    let mut bytes = bytes.clone();
    let digest = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    bytes[digest] = if bytes[digest] == b'0' { b'1' } else { b'0' };
    std::fs::write(store.join(seg), &bytes).unwrap();
    let before = snapshot(&store);

    let stat = soap_cli(&["cache", "stat", store_arg], None);
    assert!(stat.status.success(), "{stat:?}");
    let stdout = String::from_utf8_lossy(&stat.stdout);
    let skipped: Vec<&str> = stdout
        .lines()
        .filter(|l| l.trim_start().starts_with("records skipped"))
        .collect();
    // Solve records first, then report records.
    assert_eq!(skipped.len(), 2, "{stdout}");
    assert!(skipped[0].ends_with(" 1"), "{stdout}");
    assert!(skipped[1].ends_with(" 0"), "{stdout}");
    assert!(stdout.contains("left in place"), "{stdout}");
    assert_eq!(before, snapshot(&store), "cache stat changed the store");

    // Hydration for an analysis still salvages and quarantines the segment.
    let batch = soap_cli(&["batch", "gemm", "--cache-dir", store_arg], None);
    assert!(batch.status.success(), "{batch:?}");
    let after = snapshot(&store);
    let quarantined = format!("{seg}.quarantined");
    assert!(after.contains_key(&quarantined), "{:?}", after.keys());
    assert!(!after.contains_key(seg), "{:?}", after.keys());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_malformed_plan_warns_and_runs_fault_free() {
    let clean = soap_cli(&["kernel", "gemm", "--json"], None);
    assert!(clean.status.success(), "{clean:?}");
    assert!(clean.stderr.is_empty(), "{clean:?}");

    // `corupt_every` is a typo: the whole plan is rejected.
    let typo = soap_cli(&["kernel", "gemm", "--json"], Some("seed=1,corupt_every=1"));
    assert!(typo.status.success(), "{typo:?}");
    let stderr = String::from_utf8_lossy(&typo.stderr);
    let warnings: Vec<&str> = stderr
        .lines()
        .filter(|l| l.contains("SOAP_FAULT_PLAN"))
        .collect();
    assert_eq!(warnings.len(), 1, "stderr: {stderr}");
    assert!(warnings[0].contains("corupt_every"), "{}", warnings[0]);
    assert_eq!(
        clean.stdout, typo.stdout,
        "a rejected plan must run fault-free"
    );

    // A well-formed plan is applied silently.
    let planned = soap_cli(
        &["kernel", "gemm", "--json"],
        Some("seed=1,cancel_at_subgraph=0"),
    );
    assert!(planned.status.success(), "{planned:?}");
    assert!(planned.stderr.is_empty(), "{planned:?}");
    assert_ne!(clean.stdout, planned.stdout, "the plan must reach kernel");
}
