//! The C-like dialect: brace-scoped `for (i = lo; i < hi; i++) { ... }`.

use crate::rhs::Lowering;
use crate::{split_once_short, FrontendError, MAX_SOURCE_BYTES};
use soap_ir::parse::parse_affine;
use soap_ir::Program;

/// Parse a C-like program into SOAP IR.
///
/// Supported constructs: `for (v = lo; v < hi; v++) {` (also `<=` upper
/// bounds and `++v`), array assignments terminated by `;`, `//` comments and
/// braces.  Declarations, scalar statements and other C constructs that do not
/// touch arrays are ignored, mirroring how the paper's tool extracts only the
/// access structure from C code.
pub fn parse_c(name: &str, source: &str) -> Result<Program, FrontendError> {
    if source.len() > MAX_SOURCE_BYTES {
        return Err(FrontendError::SourceTooLarge {
            bytes: source.len(),
        });
    }
    let mut lowering = Lowering::default();
    // Whether each open brace opened a loop, so `}` pops correctly.
    let mut brace_is_loop: Vec<bool> = Vec::new();

    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let without_comment = split_once_short(raw, "//").map_or(raw, |(code, _)| code);
        let mut rest = without_comment.trim();
        let col = |s: &str| crate::column_of(raw, s);
        let syntax = |part: &str, message: &str| FrontendError::Syntax {
            line: line_no,
            column: col(part),
            message: message.to_string(),
        };
        while !rest.is_empty() {
            if let Some(r) = rest.strip_prefix('}') {
                if brace_is_loop.pop() == Some(true) {
                    lowering.close_loop();
                }
                rest = r.trim_start();
                continue;
            }
            if rest.starts_with("for") {
                let open = rest
                    .find('(')
                    .ok_or_else(|| syntax(rest, "malformed for loop"))?;
                // Find the close paren *matching* the open by scanning
                // forward.  `rfind(')')` would pair with a stray ')' before
                // the '(' (an inverted, panicking slice) or with a ')' in
                // trailing code on the same line.
                let mut depth = 0usize;
                let mut close = None;
                for (off, b) in rest.bytes().enumerate().skip(open) {
                    match b {
                        b'(' => depth += 1,
                        b')' => {
                            depth -= 1;
                            if depth == 0 {
                                close = Some(off);
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                let close = close.ok_or_else(|| syntax(rest, "malformed for loop"))?;
                let header = &rest[open + 1..close];
                let mut clauses = header.split(';');
                let (Some(init), Some(cond), Some(_), None) = (
                    clauses.next(),
                    clauses.next(),
                    clauses.next(),
                    clauses.next(),
                ) else {
                    return Err(syntax(header, "for loop header must have three clauses"));
                };
                let (var, lo) = init
                    .split_once('=')
                    .ok_or_else(|| syntax(init, "for loop initialization must be 'var = expr'"))?;
                // `trim_start_matches("int")`, without its substring searcher.
                let mut var = var.trim();
                while let Some(rest) = var.strip_prefix("int") {
                    var = rest;
                }
                let var = var.trim();
                let lower = parse_affine(lo.trim())?;
                let upper = if let Some((_, ub)) = split_once_short(cond, "<=") {
                    let mut ub = parse_affine(ub.trim())?;
                    ub.constant += 1;
                    ub
                } else if let Some((_, ub)) = cond.split_once('<') {
                    parse_affine(ub.trim())?
                } else {
                    return Err(syntax(
                        cond,
                        "for loop condition must be 'var < bound' or 'var <= bound'",
                    ));
                };
                lowering.open_loop(line_no, var, lower, upper)?;
                // Whatever follows the loop header on this line.  A body
                // without braces is treated as braced: the next
                // `;`-terminated statement closes it.
                rest = rest[close + 1..].trim_start();
                rest = rest.strip_prefix('{').map_or(rest, str::trim_start);
                brace_is_loop.push(true);
                continue;
            }
            if let Some(r) = rest.strip_prefix('{') {
                brace_is_loop.push(false);
                rest = r.trim_start();
                continue;
            }
            // A statement up to the next ';'.
            let Some(semi) = rest.find(';') else {
                break;
            };
            let stmt_text = rest[..semi].trim();
            rest = rest[semi + 1..].trim_start();
            if stmt_text.is_empty() || !stmt_text.contains('=') || !stmt_text.contains('[') {
                continue;
            }
            lowering.statement(stmt_text, line_no, col(stmt_text))?;
        }
    }
    Ok(lowering.finish(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_LOOP_DEPTH;

    #[test]
    fn parses_c_style_gemm() {
        let src = r#"
for (i = 0; i < NI; i++) {
  for (j = 0; j < NJ; j++) {
    for (k = 0; k < NK; k++) {
      C[i][j] += A[i][k] * B[k][j];
    }
  }
}
"#;
        let p = parse_c("gemm", src).unwrap();
        assert_eq!(p.statements.len(), 1);
        let st = &p.statements[0];
        assert!(st.is_update);
        assert_eq!(st.domain.depth(), 3);
        assert_eq!(st.inputs.len(), 2);
        assert_eq!(st.parameters(), vec!["NI", "NJ", "NK"]);
    }

    #[test]
    fn parses_lu_with_dependent_bounds_and_inclusive_conditions() {
        let src = r#"
for (k = 0; k < N; k++) {
  for (i = k + 1; i < N; i++) {
    for (j = k + 1; j <= N - 1; j++) {
      A[i][j] = A[i][j] - A[i][k] * A[k][j];
    }
  }
}
"#;
        let p = parse_c("lu", src).unwrap();
        let st = &p.statements[0];
        assert_eq!(st.domain.loops[1].lower, parse_affine("k + 1").unwrap());
        assert_eq!(st.domain.loops[2].upper, parse_affine("N").unwrap());
        // `A[i][j] = A[i][j] - ...` reads its own output: the analysis treats
        // it via the §5.2 projection; here we only check the structure.
        assert_eq!(st.inputs.len(), 1);
        assert_eq!(st.inputs[0].num_components(), 3);
    }

    #[test]
    fn multiple_loop_nests_produce_multiple_statements() {
        let src = r#"
for (i = 0; i < N; i++) {
  for (j = 0; j < M; j++) {
    tmp[i] += A[i][j] * x[j];
  }
}
for (i = 0; i < N; i++) {
  for (j = 0; j < M; j++) {
    y[j] += A[i][j] * tmp[i];
  }
}
"#;
        let p = parse_c("atax", src).unwrap();
        assert_eq!(p.statements.len(), 2);
        assert_eq!(p.computed_arrays(), vec!["tmp", "y"]);
    }

    #[test]
    fn rejects_malformed_loops() {
        assert!(parse_c("bad", "for (i) { A[i] = B[i]; }").is_err());
        assert!(parse_c("bad", "A[i] = B[i];").is_err());
    }

    #[test]
    fn close_paren_before_open_is_an_error_not_a_panic() {
        // `rfind(')')` used to pair this stray ')' with the later '(' and
        // slice backwards, panicking.
        assert!(parse_c("bad", "for ) ( { A[i] = B[i]; }").is_err());
        assert!(parse_c("bad", "for (i = 0; i < N; i++ { A[i] = B[i]; }").is_err());
    }

    #[test]
    fn rejects_oversized_sources_and_too_deep_nesting() {
        let big = "x".repeat(MAX_SOURCE_BYTES + 1);
        assert!(matches!(
            parse_c("big", &big),
            Err(FrontendError::SourceTooLarge { .. })
        ));
        let mut nested = String::new();
        for d in 0..=MAX_LOOP_DEPTH {
            nested.push_str(&format!("for (v{d} = 0; v{d} < N; v{d}++) {{\n"));
        }
        nested.push_str("A[v0] = B[v0];\n");
        nested.push_str(&"}\n".repeat(MAX_LOOP_DEPTH + 1));
        assert!(matches!(
            parse_c("deep", &nested),
            Err(FrontendError::NestingTooDeep { line }) if line == MAX_LOOP_DEPTH + 1
        ));
    }

    #[test]
    fn syntax_errors_carry_line_and_column() {
        // The one-clause header `j` starts at column 8 of line 2.
        let err = parse_c("bad", "for (i = 0; i < N; i++) {\n  for (j) { }\n}").unwrap_err();
        match err {
            FrontendError::Syntax { line, column, .. } => {
                assert_eq!(line, 2);
                assert_eq!(column, 8);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}
