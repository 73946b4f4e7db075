//! The Python-like dialect: indentation-scoped `for x in range(lo, hi):`.

use crate::rhs::Lowering;
use crate::{split_once_short, FrontendError, MAX_SOURCE_BYTES};
use soap_ir::parse::parse_affine;
use soap_ir::Program;

/// Parse a Python-like program into SOAP IR.
///
/// Supported lines: `for <var> in range(<lo>, <hi>):` (or `range(<hi>)`),
/// array assignments, comments (`#`), and blank lines.  Loop nesting follows
/// indentation, exactly as in the paper's listings.
pub fn parse_python(name: &str, source: &str) -> Result<Program, FrontendError> {
    if source.len() > MAX_SOURCE_BYTES {
        return Err(FrontendError::SourceTooLarge {
            bytes: source.len(),
        });
    }
    let mut lowering = Lowering::default();
    // Indentation of each open loop, innermost last.
    let mut indents: Vec<usize> = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let without_comment = raw.split('#').next().unwrap_or("");
        let line = without_comment.trim();
        if line.is_empty() {
            continue;
        }
        let indent = without_comment.len() - without_comment.trim_start().len();
        let col = |s: &str| crate::column_of(raw, s);
        // Pop loops that ended (dedent).
        while indents.last().is_some_and(|&level| indent <= level) {
            indents.pop();
            lowering.close_loop();
        }
        if let Some(rest) = line.strip_prefix("for ") {
            let (var, range) =
                split_once_short(rest, " in ").ok_or_else(|| FrontendError::Syntax {
                    line: line_no,
                    column: col(rest),
                    message: "expected 'for <var> in range(...):'".to_string(),
                })?;
            let range = range.trim().trim_end_matches(':').trim();
            let inner = range
                .strip_prefix("range(")
                .and_then(|r| r.strip_suffix(')'))
                .ok_or_else(|| FrontendError::Syntax {
                    line: line_no,
                    column: col(range),
                    message: format!("expected range(...), found '{range}'"),
                })?;
            let (lo, hi) = match inner.split_once(',') {
                Some((a, b)) => (a.trim(), b.trim()),
                None => ("0", inner.trim()),
            };
            let lower = parse_affine(lo)?;
            let upper = parse_affine(hi)?;
            lowering.open_loop(line_no, var.trim(), lower, upper)?;
            indents.push(indent);
        } else {
            lowering.statement(line, line_no, col(line))?;
        }
    }
    Ok(lowering.finish(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_LOOP_DEPTH;

    #[test]
    fn parses_example_1_stencil() {
        let src = r#"
for t in range(1, T):
    for i in range(t, N - t):
        A[i, t+1] = (A[i-1, t] + A[i, t] + A[i+1, t]) / 3 + B[i]
"#;
        let p = parse_python("example1", src).unwrap();
        assert_eq!(p.statements.len(), 1);
        let st = &p.statements[0];
        assert_eq!(st.domain.depth(), 2);
        assert_eq!(st.inputs.len(), 2);
        assert_eq!(st.inputs[0].num_components(), 3);
        assert!(!st.is_update);
    }

    #[test]
    fn parses_figure_2_two_statement_program() {
        let src = r#"
for i in range(100):
    for j in range(100):
        C[i, j] = (A[i] + A[i+1]) * (B[j] + B[j+1])
for i in range(100):
    for j in range(100):
        for k in range(100):
            E[i, j] += C[i, k] * D[k, j]
"#;
        let p = parse_python("figure2", src).unwrap();
        assert_eq!(p.statements.len(), 2);
        assert!(p.statements[1].is_update);
        assert_eq!(p.computed_arrays(), vec!["C", "E"]);
        // Constant loop bounds evaluate to the right domain size.
        let card = p.statements[1].execution_count();
        assert_eq!(card.eval(&Default::default()).unwrap(), 1.0e6);
    }

    #[test]
    fn reports_statements_outside_loops() {
        let err = parse_python("bad", "A[i] = B[i]\n").unwrap_err();
        assert!(matches!(
            err,
            FrontendError::StatementOutsideLoop { line: 1 }
        ));
    }

    #[test]
    fn reports_malformed_ranges() {
        let err = parse_python("bad", "for i in 0..N:\n    A[i] = B[i]\n").unwrap_err();
        // `0..N` starts at column 10 of the line.
        assert!(matches!(
            err,
            FrontendError::Syntax {
                line: 1,
                column: 10,
                ..
            }
        ));
    }

    #[test]
    fn rejects_oversized_sources_and_too_deep_nesting() {
        let big = "#".repeat(MAX_SOURCE_BYTES + 1);
        assert!(matches!(
            parse_python("big", &big),
            Err(FrontendError::SourceTooLarge { .. })
        ));
        let mut nested = String::new();
        for d in 0..=MAX_LOOP_DEPTH {
            nested.push_str(&" ".repeat(d));
            nested.push_str(&format!("for v{d} in range(N):\n"));
        }
        assert!(matches!(
            parse_python("deep", &nested),
            Err(FrontendError::NestingTooDeep { line }) if line == MAX_LOOP_DEPTH + 1
        ));
    }

    #[test]
    fn parsed_program_is_analyzable() {
        let src = r#"
for i in range(0, N):
    for j in range(0, N):
        for k in range(0, N):
            C[i, j] += A[i, k] * B[k, j]
"#;
        let p = parse_python("gemm", src).unwrap();
        let res = soap_sdg::analyze_program(
            &p,
            &soap_sdg::SdgOptions::default(),
            &soap_sdg::SolveCache::new(),
            None,
        )
        .unwrap();
        let mut b = std::collections::BTreeMap::new();
        b.insert("N".to_string(), 100.0);
        b.insert("S".to_string(), 100.0);
        let q = res.bound.eval(&b).unwrap();
        assert!((q - 2.0e5).abs() / 2.0e5 < 0.05);
    }
}
