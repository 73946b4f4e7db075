//! A source near `MAX_SOURCE_BYTES` must parse in time linear in its size.
//! The daemon parses a POSTed body on its HTTP thread, before admission and
//! outside any request deadline, so a parse that is quadratic in some shape
//! of input lets one request hold a thread for minutes.  The shape here is
//! one statement reading about 96k distinct elements of one array; grouping
//! its reads with a scan per reference took 45.8 s in release (2-core
//! x86-64 VM), the linear grouping about 50 ms.

use soap_frontend::{parse_c, parse_python, FrontendError, MAX_SOURCE_BYTES};
use soap_ir::Program;
use std::time::{Duration, Instant};

/// Generous for a debug build on a loaded machine; the linear parse takes
/// well under a second in release.
const BUDGET: Duration = Duration::from_secs(10);

/// `head`, then `A[i+0]+A[i+1]+…` as long as the whole source stays within
/// the limit, then `tail`.  Returns the source and its reference count.
fn one_wide_statement(head: &str, tail: &str) -> (String, usize) {
    let mut src = String::with_capacity(MAX_SOURCE_BYTES);
    src.push_str(head);
    src.push_str("A[i]");
    let mut refs = 1;
    loop {
        let term = format!("+A[i+{refs}]");
        if src.len() + term.len() + tail.len() > MAX_SOURCE_BYTES {
            break;
        }
        src.push_str(&term);
        refs += 1;
    }
    src.push_str(tail);
    (src, refs)
}

#[test]
fn megabyte_statement_parses_within_budget_in_both_dialects() {
    let python = one_wide_statement("for i in range(N):\n    B[i] = ", "\n");
    let c = one_wide_statement("for (i = 0; i < N; i++) {\n  B[i] = ", ";\n}\n");
    for (dialect, (src, refs), parser) in [
        (
            "python",
            python,
            parse_python as fn(&str, &str) -> Result<Program, FrontendError>,
        ),
        ("C", c, parse_c),
    ] {
        assert!(refs >= 70_000, "{dialect}: only {refs} references");
        assert!(src.len() > MAX_SOURCE_BYTES - 64);
        let start = Instant::now();
        let program = parser("wide", &src).expect("the wide statement parses");
        let elapsed = start.elapsed();
        assert!(
            elapsed < BUDGET,
            "{dialect}: {} bytes with {refs} references took {elapsed:?} (budget {BUDGET:?})",
            src.len()
        );
        let inputs = &program.statements[0].inputs;
        assert_eq!(inputs.len(), 1);
        assert_eq!(inputs[0].num_components(), refs);
        assert_eq!(
            inputs[0].components[refs - 1].indices[0].offset,
            refs as i64 - 1
        );
    }
}
