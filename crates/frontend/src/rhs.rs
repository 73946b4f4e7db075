//! Shared statement parsing for both dialects: the assignment scan, array
//! references with their subscript groups, read grouping, and the assembly
//! of validated [`Statement`]s under the loop nest open at each line.
//!
//! One pass over each statement's text builds the IR directly: subscripts
//! are parsed where they stand, terms go straight into the coefficient
//! maps, and every name is copied once, into the IR that keeps it.

use crate::{FrontendError, MAX_LOOP_DEPTH, MAX_LOWERED_LOOPS};
use soap_ir::parse::parse_lin_index;
use soap_ir::{
    AccessComponent, AffineExpr, ArrayAccess, IterationDomain, LinIndex, LoopVar, Program,
    Statement,
};
use std::collections::{HashMap, HashSet};

/// Up to this many arrays in one statement, or components of one array, a
/// scan finds repeats faster than a hash table; past it, grouping hashes, so
/// a statement with tens of thousands of references stays linear.
const SCAN_LIMIT: usize = 16;

/// The statements parsed so far and the loop nest open at the current line.
///
/// Each loop is moved into the last statement it encloses and copied only
/// into the earlier ones, so the newest statement's domain is assembled
/// late, innermost loop first: the loops closed since the statement was
/// parsed are moved in as they close, and the `shared` outermost loops,
/// still open, are copied in when the next statement arrives or the source
/// ends.
///
/// Each statement's copy of its nest counts towards [`MAX_LOWERED_LOOPS`],
/// checked before the statement is parsed.
#[derive(Default)]
pub(crate) struct Lowering {
    loops: Vec<LoopVar>,
    statements: Vec<Statement>,
    shared: usize,
    lowered: usize,
}

impl Lowering {
    /// Open a loop inside the current nest.
    pub(crate) fn open_loop(
        &mut self,
        line_no: usize,
        var: &str,
        lower: AffineExpr,
        upper: AffineExpr,
    ) -> Result<(), FrontendError> {
        if self.loops.len() >= MAX_LOOP_DEPTH {
            return Err(FrontendError::NestingTooDeep { line: line_no });
        }
        self.loops.push(LoopVar::new(var, lower, upper));
        Ok(())
    }

    /// Close the innermost open loop.
    pub(crate) fn close_loop(&mut self) {
        let Some(lv) = self.loops.pop() else {
            return;
        };
        if self.loops.len() < self.shared {
            self.shared -= 1;
            if let Some(newest) = self.statements.last_mut() {
                newest.domain.loops.push(lv);
            }
        }
    }

    /// Parse the assignment `text` as the next statement, enclosed by the
    /// open loops.  `col` is the 1-based column of `text`'s first byte in
    /// its source line.
    pub(crate) fn statement(
        &mut self,
        text: &str,
        line_no: usize,
        col: usize,
    ) -> Result<(), FrontendError> {
        if self.loops.is_empty() {
            return Err(FrontendError::StatementOutsideLoop { line: line_no });
        }
        self.lowered += self.loops.len();
        if self.lowered > MAX_LOWERED_LOOPS {
            return Err(FrontendError::TooManyLoweredLoops { line: line_no });
        }
        let assignment = parse_assignment(text, line_no, col)?;
        // Validate against the open nest itself, lent for the check.
        let mut st = Statement {
            name: format!("St{}", self.statements.len() + 1),
            domain: IterationDomain::new(std::mem::take(&mut self.loops)),
            output: assignment.output,
            inputs: assignment.inputs,
            is_update: assignment.is_update,
        };
        let valid = st.validate();
        self.loops = std::mem::take(&mut st.domain.loops);
        valid?;
        self.seal_newest();
        self.shared = self.loops.len();
        st.domain.loops = Vec::with_capacity(self.shared);
        self.statements.push(st);
        Ok(())
    }

    /// The finished program.  Every statement was validated as it was
    /// added, so the program is valid.
    pub(crate) fn finish(mut self, name: &str) -> Program {
        while !self.loops.is_empty() {
            self.close_loop();
        }
        self.seal_newest();
        Program::new(name, self.statements)
    }

    /// Complete the newest statement's domain with the loops it shares with
    /// the open nest, and put it outermost first.
    fn seal_newest(&mut self) {
        if let Some(newest) = self.statements.last_mut() {
            let domain = &mut newest.domain.loops;
            domain.extend(self.loops[..self.shared].iter().rev().cloned());
            domain.reverse();
        }
    }
}

/// An assignment extracted from one statement.
#[derive(Clone, Debug)]
pub(crate) struct Assignment {
    /// The written array and its subscripts.
    pub output: ArrayAccess,
    /// The right-hand side's array references, grouped per array.
    pub inputs: Vec<ArrayAccess>,
    /// True for compound assignments (`+=`, `-=`, `*=`).
    pub is_update: bool,
}

/// Parse `name [subscripts] (=|+=|-=|*=) rhs`.
///
/// `col_base` is the 1-based column of `line`'s first byte in the original
/// source line; error columns are reported relative to it.
pub(crate) fn parse_assignment(
    line: &str,
    line_no: usize,
    col_base: usize,
) -> Result<Assignment, FrontendError> {
    let syntax = |column: usize, message: String| FrontendError::Syntax {
        line: line_no,
        column,
        message,
    };
    // Find the assignment operator outside of brackets: a compound `+=`,
    // `-=`, `*=`, or a `=` that is not part of `<=`, `>=`, `!=` or `==`.
    // Bytes, not chars: every byte compared is ASCII, and the slices below
    // start and end at ASCII bytes, so no cut lands inside a character.
    let bytes = line.as_bytes();
    let mut depth = 0i32;
    let mut split: Option<(usize, usize)> = None;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'[' | b'(' => depth += 1,
            b']' | b')' => depth -= 1,
            _ if depth != 0 => {}
            b'+' | b'-' | b'*' if bytes.get(i + 1) == Some(&b'=') => {
                split = Some((i, 2));
                break;
            }
            b'=' => {
                let prev = if i > 0 { bytes[i - 1] } else { b' ' };
                let next = bytes.get(i + 1).copied().unwrap_or(b' ');
                if !matches!(prev, b'<' | b'>' | b'!') && next != b'=' {
                    split = Some((i, 1));
                    break;
                }
            }
            _ => {}
        }
    }
    let (pos, op_len) =
        split.ok_or_else(|| syntax(col_base, "expected an assignment".to_string()))?;
    let lhs = line[..pos].trim();
    let (array, indices) = parse_array_ref(lhs, line_no, col_base)?.ok_or_else(|| {
        syntax(
            col_base,
            format!("left-hand side '{lhs}' is not an array reference"),
        )
    })?;
    let inputs = parse_reads(&line[pos + op_len..], line_no, col_base + pos + op_len)?;
    Ok(Assignment {
        output: ArrayAccess::single(array, indices),
        inputs,
        is_update: op_len == 2,
    })
}

/// Parse a single array reference `A[i, j]` / `A[i][j]`; returns `None` when
/// the text is not an array reference (e.g. a scalar).
fn parse_array_ref(
    text: &str,
    line_no: usize,
    col: usize,
) -> Result<Option<(&str, Vec<LinIndex>)>, FrontendError> {
    let text = text.trim();
    let Some(bracket) = text.find('[') else {
        return Ok(None);
    };
    let name = text[..bracket].trim();
    if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return Ok(None);
    }
    let indices = parse_subscripts(&text[bracket..], text, line_no, col)?;
    Ok(Some((name, indices)))
}

/// The subscripts of the `[...]` groups in `groups`, the part of the array
/// reference `text` from its first `[` on.  Text outside the groups is
/// ignored.
///
/// The groups form one subscript list, as if joined with commas, except
/// that groups before the first non-empty one add nothing: `A[][j]` is
/// `A[j]`, while `A[i][]` is `A[i, 0]` (an empty subscript is the constant
/// 0).  Groups are parsed where they stand; an unbalanced bracket anywhere
/// outranks a subscript error in an earlier group.
fn parse_subscripts(
    groups: &str,
    text: &str,
    line_no: usize,
    col: usize,
) -> Result<Vec<LinIndex>, FrontendError> {
    // Bytes, not chars: the brackets and commas sought are ASCII, so every
    // slice below starts and ends on a character boundary.
    let b = groups.as_bytes();
    let mut indices = Vec::new();
    let mut error = None;
    let mut joined = false;
    let mut i = 0;
    while let Some(at) = b[i..].iter().position(|&c| c == b'[') {
        let open = i + at;
        // Look for the close *after* the open — a stray ']' earlier in the
        // text (e.g. `A[i]]x[`) would otherwise invert the slice below.
        let Some(len) = b[open..].iter().position(|&c| c == b']') else {
            return Err(FrontendError::Syntax {
                line: line_no,
                column: col,
                message: format!("unbalanced brackets in '{text}'"),
            });
        };
        let close = open + len;
        i = close + 1;
        if len == 1 && !joined {
            continue;
        }
        joined = true;
        if error.is_some() {
            continue;
        }
        // Each comma-separated part of the group is one subscript.
        let mut start = open + 1;
        for end in open + 1..=close {
            if end < close && b[end] != b',' {
                continue;
            }
            match parse_lin_index(&groups[start..end]) {
                Ok(ix) => indices.push(ix),
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
            start = end + 1;
        }
    }
    if let Some(e) = error {
        return Err(e.into());
    }
    if !joined {
        indices.push(LinIndex::constant(0));
    }
    Ok(indices)
}

/// Every array reference of the expression `expr`, grouped per array.
/// `col_base` is the 1-based column of `expr`'s first byte in the original
/// source line.
fn parse_reads(
    expr: &str,
    line_no: usize,
    col_base: usize,
) -> Result<Vec<ArrayAccess>, FrontendError> {
    let mut reads = ReadGroups::default();
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
                // `expr[start..i]` is an identifier, so a valid array name.
                let text = expr[start..end].trim_end();
                let indices = parse_subscripts(&expr[j..end], text, line_no, col_base + start)?;
                reads.push(&expr[start..i], indices);
                i = end;
            }
        } else {
            i += 1;
        }
    }
    Ok(reads.finish())
}

/// Right-hand-side references grouped per array in first-appearance order;
/// [`ReadGroups::finish`] keeps each array's distinct components in the
/// order they first appeared.
#[derive(Default)]
struct ReadGroups {
    accesses: Vec<ArrayAccess>,
    /// Array name → position in `accesses`, once there are more than
    /// [`SCAN_LIMIT`] arrays.
    index: HashMap<String, usize>,
}

impl ReadGroups {
    fn push(&mut self, array: &str, indices: Vec<LinIndex>) {
        let component = AccessComponent::new(indices);
        let known = if self.accesses.len() > SCAN_LIMIT {
            self.index.get(array).copied()
        } else {
            self.accesses.iter().position(|a| a.array == array)
        };
        if let Some(k) = known {
            self.accesses[k].components.push(component);
            return;
        }
        let k = self.accesses.len();
        self.accesses.push(ArrayAccess::new(array, vec![component]));
        if k == SCAN_LIMIT {
            self.index = self
                .accesses
                .iter()
                .enumerate()
                .map(|(k, a)| (a.array.clone(), k))
                .collect();
        } else if k > SCAN_LIMIT {
            self.index.insert(array.to_string(), k);
        }
    }

    fn finish(mut self) -> Vec<ArrayAccess> {
        for acc in &mut self.accesses {
            dedup_in_order(&mut acc.components);
        }
        self.accesses
    }
}

/// Drop repeated components, keeping each first occurrence in place.
fn dedup_in_order(components: &mut Vec<AccessComponent>) {
    if components.len() <= SCAN_LIMIT {
        let mut kept = 0;
        for i in 0..components.len() {
            if !components[..kept].contains(&components[i]) {
                components.swap(kept, i);
                kept += 1;
            }
        }
        components.truncate(kept);
    } else {
        let first: Vec<bool> = {
            let mut seen = HashSet::with_capacity(components.len());
            components.iter().map(|c| seen.insert(c)).collect()
        };
        let mut first = first.into_iter();
        components.retain(|_| first.next() == Some(true));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_assignment() {
        let a = parse_assignment("C[i, j] = A[i] * B[j]", 1, 1).unwrap();
        assert_eq!(a.output.array, "C");
        assert!(!a.is_update);
        assert_eq!(a.inputs.len(), 2);
    }

    #[test]
    fn parses_compound_assignment_and_c_style_subscripts() {
        let a = parse_assignment("E[i][j] += C[i][k] * D[k][j]", 3, 1).unwrap();
        assert!(a.is_update);
        assert_eq!(a.output.dim(), 2);
        assert_eq!(a.inputs[0].array, "C");
        assert_eq!(a.inputs[0].dim(), 2);
    }

    #[test]
    fn extracts_offset_references() {
        let a = parse_assignment(
            "A[i, t+1] = (A[i-1, t] + A[i, t] + A[i+1, t]) / 3 + B[i]",
            1,
            1,
        )
        .unwrap();
        let components: usize = a.inputs.iter().map(ArrayAccess::num_components).sum();
        assert_eq!(components, 4);
        assert_eq!(a.inputs.len(), 2);
        assert_eq!(a.inputs[0].num_components(), 3);
    }

    #[test]
    fn rejects_scalar_left_hand_side() {
        assert!(parse_assignment("alpha = A[i]", 1, 1).is_err());
    }

    #[test]
    fn error_columns_point_at_the_offending_construct() {
        // `A[i` starts at offset 7 of the statement; with the statement
        // itself starting at column 5 of the source line, the unbalanced
        // bracket is reported at column 12.
        let err = parse_assignment("X[i] = A[i", 1, 5).unwrap_err();
        match err {
            FrontendError::Syntax { line, column, .. } => {
                assert_eq!(line, 1);
                assert_eq!(column, 12);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn multi_byte_characters_do_not_panic() {
        // A non-ASCII byte sequence ahead of the operator used to panic the
        // operator scan (`line[i..]` inside a UTF-8 character).
        assert!(parse_assignment("αβγ = A[i]", 1, 1).is_err());
        assert!(parse_assignment("A[i] = βy[j]", 1, 1).is_ok());
    }

    #[test]
    fn stray_close_bracket_before_open_is_an_error_not_a_panic() {
        assert!(parse_assignment("A[i]]x[ = B[i]", 1, 1).is_err());
    }
}
