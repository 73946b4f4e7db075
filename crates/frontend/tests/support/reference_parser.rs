//! The frontend parsers as they stood before the single-pass rewrite,
//! kept as the oracle of `parser_differential.rs`: the old `parse_affine`
//! (terms built by clone-and-add), subscript groups concatenated into one
//! string and split again, reads grouped with `Vec::contains`, and every
//! statement validated twice with cloned names.  The production parsers
//! must return exactly what these return, `Ok` and `Err` alike.
#![allow(dead_code)]

use soap_frontend::{FrontendError, MAX_LOOP_DEPTH, MAX_SOURCE_BYTES};
use soap_ir::{
    AccessComponent, AffineExpr, ArrayAccess, IrError, IterationDomain, LinIndex, LoopVar, Program,
    Statement,
};
use std::collections::BTreeSet;

/// Parse an affine expression such as `"2*N + k - 3"`.
pub fn parse_affine(input: &str) -> Result<AffineExpr, IrError> {
    let mut expr = AffineExpr::zero();
    let mut rest = input.trim();
    let mut sign = 1i64;
    let mut first = true;
    while !rest.is_empty() {
        // Leading sign.
        if let Some(r) = rest.strip_prefix('+') {
            sign = 1;
            rest = r.trim_start();
        } else if let Some(r) = rest.strip_prefix('-') {
            sign = -1;
            rest = r.trim_start();
        } else if !first {
            return Err(IrError::Parse(format!("expected '+' or '-' in '{input}'")));
        }
        first = false;
        // One term: [int][*]ident | int | ident
        let term_end = rest.find(['+', '-']).unwrap_or(rest.len());
        let term = rest[..term_end].trim();
        rest = rest[term_end..].trim_start();
        if term.is_empty() {
            return Err(IrError::Parse(format!("empty term in '{input}'")));
        }
        let (coeff, name) = split_term(term, input)?;
        match name {
            None => expr = expr.offset(sign * coeff),
            Some(n) => {
                expr = expr.add(&AffineExpr::var(&n).scale(sign * coeff));
            }
        }
        sign = 1;
    }
    Ok(expr)
}

/// Split a single term like `"2*N"`, `"N"`, `"3"` into (coefficient, symbol).
fn split_term(term: &str, context: &str) -> Result<(i64, Option<String>), IrError> {
    if let Some((a, b)) = term.split_once('*') {
        let coeff: i64 = a
            .trim()
            .parse()
            .map_err(|_| IrError::Parse(format!("bad coefficient '{a}' in '{context}'")))?;
        let name = b.trim();
        if !is_ident(name) {
            return Err(IrError::Parse(format!(
                "bad symbol '{name}' in '{context}'"
            )));
        }
        Ok((coeff, Some(name.to_string())))
    } else if let Ok(c) = term.parse::<i64>() {
        Ok((c, None))
    } else if is_ident(term) {
        Ok((1, Some(term.to_string())))
    } else {
        Err(IrError::Parse(format!(
            "cannot parse term '{term}' in '{context}'"
        )))
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .map(|c| c.is_alphabetic() || c == '_')
            .unwrap_or(false)
        && s.chars().all(|c| c.is_alphanumeric() || c == '_')
}

/// `Statement::validate` as it stood: loop names cloned into a set, access
/// variables collected, sorted and deduplicated.
fn validate(st: &Statement) -> Result<(), IrError> {
    if st.domain.loops.is_empty() {
        return Err(IrError::EmptyLoopNest {
            statement: st.name.clone(),
        });
    }
    let mut seen = BTreeSet::new();
    for lv in &st.domain.loops {
        if !seen.insert(lv.name.clone()) {
            return Err(IrError::DuplicateLoopVariable {
                statement: st.name.clone(),
                variable: lv.name.clone(),
            });
        }
    }
    for acc in std::iter::once(&st.output).chain(st.inputs.iter()) {
        let dim = acc.dim();
        if acc.components.iter().any(|c| c.arity() != dim) {
            return Err(IrError::InconsistentArity {
                array: acc.array.clone(),
            });
        }
        for var in acc.variables() {
            if !seen.contains(&var) {
                return Err(IrError::UnknownVariable {
                    statement: st.name.clone(),
                    variable: var,
                });
            }
        }
    }
    Ok(())
}

fn validate_program(program: &Program) -> Result<(), IrError> {
    for st in &program.statements {
        validate(st)?;
    }
    Ok(())
}

/// 1-based byte column of the subslice `part` inside the line `whole` it was
/// sliced from.  Falls back to column 1 when `part` is not a subslice.
fn column_of(whole: &str, part: &str) -> usize {
    let whole_range = whole.as_ptr() as usize..whole.as_ptr() as usize + whole.len();
    let part_start = part.as_ptr() as usize;
    if whole_range.contains(&part_start) || part_start == whole_range.end {
        part_start - whole_range.start + 1
    } else {
        1
    }
}

/// An assignment extracted from one source line.
#[derive(Clone, Debug)]
pub struct Assignment {
    /// The written array and its subscripts.
    pub output: (String, Vec<LinIndex>),
    /// The array references on the right-hand side.
    pub reads: Vec<(String, Vec<LinIndex>)>,
    /// True for compound assignments (`+=`, `-=`, `*=`).
    pub is_update: bool,
}

/// Parse `name [subscripts] (=|+=|-=|*=) rhs`.
///
/// `col_base` is the 1-based column of `line`'s first byte in the original
/// source line; error columns are reported relative to it.
pub fn parse_assignment(
    line: &str,
    line_no: usize,
    col_base: usize,
) -> Result<Assignment, FrontendError> {
    let syntax = |column: usize, message: String| FrontendError::Syntax {
        line: line_no,
        column,
        message,
    };
    // Find the assignment operator outside of brackets.
    let ops = ["+=", "-=", "*=", "="];
    let mut depth = 0i32;
    let bytes = line.as_bytes();
    let mut split: Option<(usize, &str)> = None;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'[' | b'(' => depth += 1,
            b']' | b')' => depth -= 1,
            _ if depth == 0 => {
                // Check compound operators first (they contain '=').  Compare
                // bytes, not `line[i..]`: `i` walks bytes, and slicing the str
                // inside a multi-byte character would panic.
                if let Some(op) = ops
                    .iter()
                    .find(|op| bytes[i..].starts_with(op.as_bytes()))
                    .copied()
                {
                    // Skip relational operators such as '<=' '==' '>='.
                    let prev = if i > 0 { bytes[i - 1] } else { b' ' };
                    let next = bytes.get(i + op.len()).copied().unwrap_or(b' ');
                    if op == "=" && (prev == b'<' || prev == b'>' || prev == b'!' || next == b'=') {
                        i += 1;
                        continue;
                    }
                    split = Some((i, op));
                    break;
                }
            }
            _ => {}
        }
        i += 1;
    }
    let (pos, op) = split.ok_or_else(|| syntax(col_base, "expected an assignment".to_string()))?;
    let lhs = line[..pos].trim();
    let rhs = &line[pos + op.len()..];
    let output = parse_array_ref(lhs, line_no, col_base)?.ok_or_else(|| {
        syntax(
            col_base,
            format!("left-hand side '{lhs}' is not an array reference"),
        )
    })?;
    let reads = extract_array_refs(rhs, line_no, col_base + pos + op.len())?;
    Ok(Assignment {
        output,
        reads,
        is_update: op != "=",
    })
}

/// Parse a single array reference `A[i, j]` / `A[i][j]`; returns `None` when
/// the text is not an array reference (e.g. a scalar).
fn parse_array_ref(
    text: &str,
    line_no: usize,
    col: usize,
) -> Result<Option<(String, Vec<LinIndex>)>, FrontendError> {
    let text = text.trim();
    let Some(bracket) = text.find('[') else {
        return Ok(None);
    };
    let name = text[..bracket].trim();
    if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return Ok(None);
    }
    // Concatenate every [...] group, turning `A[i][j]` into `i, j`.
    let mut indices_text = String::new();
    let mut rest = &text[bracket..];
    while let Some(open) = rest.find('[') {
        // Look for the close *after* the open — a stray ']' earlier in the
        // text (e.g. `A[i]]x[`) would otherwise invert the slice below.
        let close = rest[open..]
            .find(']')
            .map(|c| open + c)
            .ok_or(FrontendError::Syntax {
                line: line_no,
                column: col,
                message: format!("unbalanced brackets in '{text}'"),
            })?;
        if !indices_text.is_empty() {
            indices_text.push(',');
        }
        indices_text.push_str(&rest[open + 1..close]);
        rest = &rest[close + 1..];
    }
    let indices = indices_text
        .split(',')
        .map(|part| parse_affine(part).map(|e| LinIndex::from_affine(&e)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(FrontendError::from)?;
    Ok(Some((name.to_string(), indices)))
}

/// Extract every array reference appearing in an expression.  `col_base` is
/// the 1-based column of `expr`'s first byte in the original source line.
pub fn extract_array_refs(
    expr: &str,
    line_no: usize,
    col_base: usize,
) -> Result<Vec<(String, Vec<LinIndex>)>, FrontendError> {
    let mut out = Vec::new();
    let bytes = expr.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_alphabetic() || bytes[i] == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            // Skip whitespace between the identifier and a possible bracket.
            let mut j = i;
            while j < bytes.len() && bytes[j] == b' ' {
                j += 1;
            }
            if j < bytes.len() && bytes[j] == b'[' {
                // Consume the chained [...] groups.
                let mut end = j;
                let mut depth = 0;
                while end < bytes.len() {
                    match bytes[end] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                // Possible chained group `][`.
                                let mut k = end + 1;
                                while k < bytes.len() && bytes[k] == b' ' {
                                    k += 1;
                                }
                                if !(k < bytes.len() && bytes[k] == b'[') {
                                    end += 1;
                                    break;
                                }
                            }
                        }
                        _ => {}
                    }
                    end += 1;
                }
                let text = &expr[start..end];
                if let Some(r) = parse_array_ref(text, line_no, col_base + start)? {
                    out.push(r);
                }
                i = end;
            }
        } else {
            i += 1;
        }
    }
    Ok(out)
}

/// Build an [`ArrayAccess`] list from raw reads, merging multiple references
/// to the same array into a multi-component access.
pub fn group_reads(reads: Vec<(String, Vec<LinIndex>)>) -> Vec<ArrayAccess> {
    let mut out: Vec<ArrayAccess> = Vec::new();
    for (array, indices) in reads {
        let comp = AccessComponent::new(indices);
        if let Some(acc) = out.iter_mut().find(|a| a.array == array) {
            if !acc.components.contains(&comp) {
                acc.components.push(comp);
            }
        } else {
            out.push(ArrayAccess::new(array, vec![comp]));
        }
    }
    out
}

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
    // Stack of (indentation, loop).
    let mut stack: Vec<(usize, LoopVar)> = Vec::new();
    let mut statements = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let without_comment = raw.split('#').next().unwrap_or("");
        if without_comment.trim().is_empty() {
            continue;
        }
        let indent = without_comment.len() - without_comment.trim_start().len();
        let line = without_comment.trim();
        let col = |s: &str| column_of(raw, s);
        // Pop loops that ended (dedent).
        while let Some((level, _)) = stack.last() {
            if indent <= *level {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(rest) = line.strip_prefix("for ") {
            let (var, range) = rest.split_once(" in ").ok_or(FrontendError::Syntax {
                line: line_no,
                column: col(rest),
                message: "expected 'for <var> in range(...):'".to_string(),
            })?;
            let range = range.trim().trim_end_matches(':').trim();
            let inner = range
                .strip_prefix("range(")
                .and_then(|r| r.strip_suffix(')'))
                .ok_or(FrontendError::Syntax {
                    line: line_no,
                    column: col(range),
                    message: format!("expected range(...), found '{range}'"),
                })?;
            let (lo, hi) = match inner.split_once(',') {
                Some((a, b)) => (a.trim().to_string(), b.trim().to_string()),
                None => ("0".to_string(), inner.trim().to_string()),
            };
            let lower = parse_affine(&lo)?;
            let upper = parse_affine(&hi)?;
            if stack.len() >= MAX_LOOP_DEPTH {
                return Err(FrontendError::NestingTooDeep { line: line_no });
            }
            stack.push((indent, LoopVar::new(var.trim(), lower, upper)));
        } else {
            if stack.is_empty() {
                return Err(FrontendError::StatementOutsideLoop { line: line_no });
            }
            let assignment = parse_assignment(line, line_no, col(line))?;
            let loops: Vec<LoopVar> = stack.iter().map(|(_, l)| l.clone()).collect();
            let st = Statement {
                name: format!("St{}", statements.len() + 1),
                domain: IterationDomain::new(loops),
                output: ArrayAccess::single(
                    assignment.output.0.clone(),
                    assignment.output.1.clone(),
                ),
                inputs: group_reads(assignment.reads),
                is_update: assignment.is_update,
            };
            validate(&st)?;
            statements.push(st);
        }
    }
    let program = Program::new(name, statements);
    validate_program(&program)?;
    Ok(program)
}

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
    let mut stack: Vec<LoopVar> = Vec::new();
    // Number of loops opened at each brace depth, so `}` pops correctly.
    let mut brace_is_loop: Vec<bool> = Vec::new();
    let mut statements = Vec::new();

    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let without_comment = raw.split("//").next().unwrap_or("");
        let mut rest = without_comment.trim();
        let col = |s: &str| column_of(raw, s);
        while !rest.is_empty() {
            if let Some(r) = rest.strip_prefix('}') {
                if let Some(was_loop) = brace_is_loop.pop() {
                    if was_loop {
                        stack.pop();
                    }
                }
                rest = r.trim_start();
                continue;
            }
            if rest.starts_with("for") {
                let open = rest.find('(').ok_or(FrontendError::Syntax {
                    line: line_no,
                    column: col(rest),
                    message: "malformed for loop".into(),
                })?;
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
                let close = close.ok_or(FrontendError::Syntax {
                    line: line_no,
                    column: col(rest),
                    message: "malformed for loop".into(),
                })?;
                let header = &rest[open + 1..close];
                let parts: Vec<&str> = header.split(';').collect();
                if parts.len() != 3 {
                    return Err(FrontendError::Syntax {
                        line: line_no,
                        column: col(header),
                        message: "for loop header must have three clauses".into(),
                    });
                }
                let init = parts[0];
                let cond = parts[1];
                let (var, lo) = init.split_once('=').ok_or(FrontendError::Syntax {
                    line: line_no,
                    column: col(init),
                    message: "for loop initialization must be 'var = expr'".into(),
                })?;
                let var = var.trim().trim_start_matches("int").trim();
                let lower = parse_affine(lo.trim())?;
                let (upper, inclusive) = if let Some((_, ub)) = cond.split_once("<=") {
                    (parse_affine(ub.trim())?, true)
                } else if let Some((_, ub)) = cond.split_once('<') {
                    (parse_affine(ub.trim())?, false)
                } else {
                    return Err(FrontendError::Syntax {
                        line: line_no,
                        column: col(cond),
                        message: "for loop condition must be 'var < bound' or 'var <= bound'"
                            .into(),
                    });
                };
                let upper = if inclusive { upper.offset(1) } else { upper };
                if stack.len() >= MAX_LOOP_DEPTH {
                    return Err(FrontendError::NestingTooDeep { line: line_no });
                }
                stack.push(LoopVar::new(var, lower, upper));
                // Whatever follows the loop header on this line.
                rest = rest[close + 1..].trim_start();
                if let Some(r) = rest.strip_prefix('{') {
                    brace_is_loop.push(true);
                    rest = r.trim_start();
                } else {
                    // Single-statement loop bodies without braces are treated
                    // as braced: the next `;`-terminated statement closes it.
                    brace_is_loop.push(true);
                }
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
            if stack.is_empty() {
                return Err(FrontendError::StatementOutsideLoop { line: line_no });
            }
            let assignment = parse_assignment(stmt_text, line_no, col(stmt_text))?;
            let st = Statement {
                name: format!("St{}", statements.len() + 1),
                domain: IterationDomain::new(stack.clone()),
                output: ArrayAccess::single(
                    assignment.output.0.clone(),
                    assignment.output.1.clone(),
                ),
                inputs: group_reads(assignment.reads),
                is_update: assignment.is_update,
            };
            validate(&st)?;
            statements.push(st);
        }
    }
    let program = Program::new(name, statements);
    validate_program(&program)?;
    Ok(program)
}
