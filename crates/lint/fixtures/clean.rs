//! Clean fixture for `soap-lint --self-check`: exercises the same constructs
//! as `violations.rs` but in their sanctioned forms (typed errors, justified
//! markers, canonicalized iteration, documented env vars) — the scanner must
//! report nothing here.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

pub fn float_sort(xs: &mut Vec<f64>) {
    xs.sort_by(|a, b| soap_symbolic::nan_last(*a, *b));
}

pub fn timing() -> Instant {
    // lint:allow(instant-now): fixture demonstrates a justified wall-clock read
    Instant::now()
}

pub fn checked(input: Option<u32>) -> Result<u32, &'static str> {
    input.ok_or("missing input")
}

pub fn serialize_counts(counts: &HashMap<String, u64>) -> String {
    // Canonicalize before serializing: BTreeMap iteration order is stable.
    let sorted: BTreeMap<&String, &u64> = counts.iter().collect();
    let mut out = String::new();
    for (k, v) in &sorted {
        out.push_str(&format!("{k}={v};"));
    }
    out
}

pub fn knob() -> bool {
    std::env::var("SOAP_SELF_CHECK_DOCUMENTED").is_ok()
}

/// Immutable statics are not state.
static KNOB_NAMES: [&str; 1] = ["SOAP_SELF_CHECK_DOCUMENTED"];

pub fn knob_names() -> &'static [&'static str] {
    &KNOB_NAMES
}

// lint:allow(global-state): fixture demonstrates a justified process-wide counter
static SEQUENCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

pub fn next_sequence() -> u64 {
    SEQUENCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}
