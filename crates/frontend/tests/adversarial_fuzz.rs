//! Adversarial fuzz for the two frontend parsers: seeded mutations of
//! valid-ish generated programs, plus raw byte garbage, are fed through
//! `parse_c` and `parse_python`.  The parsers may reject anything they like —
//! but they must never panic.  Failing inputs are printed with their seed so
//! a reproduction is one `cargo test` away.

use soap_frontend::{parse_c, parse_python};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[path = "support/programs.rs"]
mod programs;
use programs::{garbage_sources, mutated_sources, HISTORICAL_PANICS};

/// Both parsers must return `Ok` or `Err` — never panic — on `src`.
fn assert_no_panic(case: usize, kind: &str, src: &str) {
    for (dialect, parser) in [
        ("C", parse_c as fn(&str, &str) -> _),
        ("python", parse_python as fn(&str, &str) -> _),
    ] {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _ = parser("fuzz", src);
        }));
        if result.is_err() {
            panic!(
                "case {case} ({kind}): {dialect} parser panicked on input:\n\
                 ---8<---\n{src}\n--->8---"
            );
        }
    }
}

#[test]
fn mutated_programs_never_panic_the_parsers() {
    for (case, src) in mutated_sources().iter().enumerate() {
        assert_no_panic(case, "mutated", src);
    }
}

#[test]
fn raw_garbage_never_panics_the_parsers() {
    for (case, src) in garbage_sources().iter().enumerate() {
        assert_no_panic(case, "garbage", src);
    }
}

#[test]
fn known_historical_panics_stay_fixed() {
    for (case, src) in HISTORICAL_PANICS.iter().enumerate() {
        assert_no_panic(case, "regression", src);
    }
}
