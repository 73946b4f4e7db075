//! A source near `MAX_SOURCE_BYTES` must parse in time linear in its size.
//! The daemon parses a POSTed body on its HTTP thread, before admission and
//! outside any request deadline, so a parse that is quadratic in some shape
//! of input lets one request hold a thread for minutes.  The shape here is
//! one statement reading about 96k distinct elements of one array; grouping
//! its reads with a scan per reference took 45.8 s in release (2-core
//! x86-64 VM), the linear grouping about 50 ms.

use soap_frontend::{
    parse_c, parse_python, FrontendError, MAX_LOOP_DEPTH, MAX_LOWERED_LOOPS, MAX_SOURCE_BYTES,
};
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

/// A `MAX_LOOP_DEPTH`-deep nest around `statements` one-line statements, in
/// both dialects: every statement owns a copy of the whole nest.
fn deep_nest_sources(statements: usize) -> [(&'static str, String); 2] {
    let depth = MAX_LOOP_DEPTH;
    let innermost = format!("v{}", depth - 1);
    let mut python = String::new();
    let mut c = String::new();
    for d in 0..depth {
        python.push_str(&" ".repeat(d));
        python.push_str(&format!("for v{d} in range(N):\n"));
        c.push_str(&format!("for (v{d} = 0; v{d} < N; v{d}++) {{\n"));
    }
    for _ in 0..statements {
        python.push_str(&" ".repeat(depth));
        python.push_str(&format!("A[{innermost}] = B[{innermost}]\n"));
        c.push_str(&format!("A[{innermost}] = B[{innermost}];\n"));
    }
    c.push_str(&"}\n".repeat(depth));
    [("python", python), ("C", c)]
}

fn parse(dialect: &str, src: &str) -> Result<Program, FrontendError> {
    if dialect == "C" {
        parse_c("deep", src)
    } else {
        parse_python("deep", src)
    }
}

#[test]
fn deep_nest_copied_into_many_statements_is_rejected_in_both_dialects() {
    // 2,000 statements under 64 loops: 32 KB of C that would lower to
    // 128,000 loop copies.  The first statement past the budget is
    // rejected, on its own line, before it is lowered.
    let first_over = MAX_LOWERED_LOOPS / MAX_LOOP_DEPTH + 1;
    for (dialect, src) in deep_nest_sources(2000) {
        if dialect == "C" {
            assert!(src.len() < 40 * 1024, "C source is {} bytes", src.len());
        }
        assert_eq!(
            parse(dialect, &src).unwrap_err(),
            FrontendError::TooManyLoweredLoops {
                line: MAX_LOOP_DEPTH + first_over
            },
            "{dialect}"
        );
    }
    // Exactly at the budget, the same nest still parses.
    for (dialect, src) in deep_nest_sources(MAX_LOWERED_LOOPS / MAX_LOOP_DEPTH) {
        let program = parse(dialect, &src).expect("the budget itself is allowed");
        assert_eq!(program.statements.len(), MAX_LOWERED_LOOPS / MAX_LOOP_DEPTH);
        assert!(program
            .statements
            .iter()
            .all(|st| st.domain.loops.len() == MAX_LOOP_DEPTH));
    }
}
