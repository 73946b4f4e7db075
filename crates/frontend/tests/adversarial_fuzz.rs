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

/// Affine sums beyond `i64` — a loop bound, a `<=` bound's `+ 1`, a
/// subscript — are parse errors in both dialects: never an overflow panic,
/// and never a silently wrapped bound.
#[test]
fn overflowing_affine_sums_are_parse_errors() {
    const MAX: &str = "9223372036854775807";
    let body = "A[i] = B[i]";
    let python = [
        format!("for i in range({MAX}*N + {MAX}*N):\n    {body}\n"),
        format!("for i in range(0, {MAX} + 1):\n    {body}\n"),
        format!("for i in range(N):\n    A[i] = B[i + {MAX} + 1]\n"),
    ];
    let c = [
        format!("for (i = 0; i < {MAX}*N + {MAX}*N; i++) {{\n  {body};\n}}\n"),
        format!("for (i = 0; i <= {MAX}; i++) {{\n  {body};\n}}\n"),
        format!("for (i = 0; i < N; i++) {{\n  A[i] = B[i + {MAX} + 1];\n}}\n"),
    ];
    let cases = python
        .iter()
        .map(|src| ("python", parse_python("overflow", src), src))
        .chain(c.iter().map(|src| ("C", parse_c("overflow", src), src)));
    for (dialect, result, src) in cases {
        match result {
            Err(e) => assert!(e.to_string().contains("overflows"), "{dialect}: {e}"),
            Ok(program) => panic!("{dialect}: accepted {src:?} as {program:?}"),
        }
    }
    // The largest bounds that fit still parse.
    let program = parse_c(
        "fits",
        &format!(
            "for (i = 0; i <= {}; i++) {{\n  {body};\n}}\n",
            i64::MAX - 1
        ),
    )
    .expect("a bound of i64::MAX parses");
    let upper = &program.statements[0].domain.loops[0].upper;
    assert_eq!(upper.constant, i64::MAX);
}
