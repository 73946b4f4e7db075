//! Synthetic violation fixture for `soap-lint --self-check`: every rule must
//! fire on this file, proving the scanner actually detects what it forbids.
//! This directory is excluded from the workspace walk.

use std::collections::HashMap;
use std::time::Instant;

pub fn float_sort(xs: &mut Vec<f64>) {
    // partial-cmp: raw float comparison instead of soap_symbolic::nan_last.
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
}

pub fn timing() -> std::time::Duration {
    // instant-now: wall-clock read outside deadline.rs.
    let t = Instant::now();
    t.elapsed()
}

pub fn panicky(input: Option<u32>) -> u32 {
    // unwrap-expect: library-code panic without a justification marker.
    input.unwrap()
}

pub fn serialize_counts(pairs: &[(String, u64)]) -> String {
    let mut counts: HashMap<&str, u64> = HashMap::new();
    for (k, v) in pairs {
        *counts.entry(k).or_default() += v;
    }
    let mut out = String::new();
    // hashmap-iter: arbitrary hash order feeding serialized output.
    for (k, v) in counts.iter() {
        out.push_str(&serde_json::to_string(&(k, v)).unwrap_or_default());
    }
    out
}

pub fn knobs() -> (bool, bool) {
    // env-docs: the UNDOCUMENTED one must be reported, the DOCUMENTED one not
    // (the self-check supplies a synthetic docs set naming only the latter).
    let documented = std::env::var("SOAP_SELF_CHECK_DOCUMENTED").is_ok();
    let undocumented = std::env::var("SOAP_SELF_CHECK_UNDOCUMENTED").is_ok();
    (documented, undocumented)
}

// global-state: process-global mutable state in library code.
static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

pub fn bump() -> u64 {
    COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

// lint:allow(no-such-rule): a marker naming an unknown rule is itself flagged
pub fn marked() {}
