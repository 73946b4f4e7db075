//! A tiny parser for affine expressions and subscript lists.
//!
//! This is *not* the program front-end (see `soap-frontend`); it only parses
//! the compact index/bound strings used by the programmatic builder API, e.g.
//! `"i-1"`, `"2*N + 1"`, `"r+2*w, s, c, b"`, and the loop bounds and
//! subscripts the front-end cuts out of source lines.

use crate::access::LinIndex;
use crate::domain::AffineExpr;
use crate::IrError;
use std::collections::BTreeMap;

/// Parse an affine expression such as `"2*N + k - 3"`.
pub fn parse_affine(input: &str) -> Result<AffineExpr, IrError> {
    let (terms, constant) = parse_terms(input)?;
    Ok(AffineExpr { terms, constant })
}

/// Parse one subscript such as `"i - 1"` straight into a [`LinIndex`]; the
/// grammar and errors are those of [`parse_affine`].
pub fn parse_lin_index(input: &str) -> Result<LinIndex, IrError> {
    let (coeffs, offset) = parse_terms(input)?;
    Ok(LinIndex { coeffs, offset })
}

/// The symbol coefficients and constant of an affine expression.  Each term
/// is added into the map in place: a symbol's name is copied once, when it
/// first appears, and a symbol whose coefficients cancel is removed.
fn parse_terms(input: &str) -> Result<(BTreeMap<String, i64>, i64), IrError> {
    match parse_ascii_terms(input) {
        Some(parsed) => Ok(parsed),
        None => parse_any_terms(input),
    }
}

/// Add `value` times the symbol `name` to `terms`; `None` when the
/// coefficient overflows `i64`.
fn add_term(terms: &mut BTreeMap<String, i64>, name: &str, value: i64) -> Option<()> {
    if value == 0 {
        return Some(());
    }
    match terms.get_mut(name) {
        Some(c) => {
            *c = c.checked_add(value)?;
            if *c == 0 {
                terms.remove(name);
            }
        }
        None => {
            terms.insert(name.to_string(), value);
        }
    }
    Some(())
}

/// [`parse_terms`] for the common input, in one pass over the bytes: ASCII
/// symbols, digits and whitespace, and no error (an overflowing sum is one).  `None` hands anything
/// else to [`parse_any_terms`], which reads Unicode symbols and whitespace
/// too and words the errors.  Where both succeed they agree.
fn parse_ascii_terms(input: &str) -> Option<(BTreeMap<String, i64>, i64)> {
    let b = input.as_bytes();
    // The ASCII characters `char::is_whitespace` accepts, as `trim` does.
    let skip_ws = |mut i: usize| {
        while b.get(i).is_some_and(|&c| matches!(c, b' ' | b'\t'..=b'\r')) {
            i += 1;
        }
        i
    };
    let ident = |i: &mut usize| -> Option<&str> {
        let start = *i;
        if !b
            .get(start)
            .is_some_and(|&c| c.is_ascii_alphabetic() || c == b'_')
        {
            return None;
        }
        while b
            .get(*i)
            .is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_')
        {
            *i += 1;
        }
        Some(&input[start..*i])
    };
    let mut terms = BTreeMap::new();
    let mut constant = 0i64;
    let mut i = skip_ws(0);
    let mut first = true;
    while i < b.len() {
        let sign = match b[i] {
            b'+' => {
                i = skip_ws(i + 1);
                1
            }
            b'-' => {
                i = skip_ws(i + 1);
                -1
            }
            _ if first => 1,
            _ => return None,
        };
        first = false;
        // One term: int [* ident] | ident
        let (coeff, name) = if b.get(i).is_some_and(u8::is_ascii_digit) {
            let mut c = 0i64;
            while let Some(&d) = b.get(i).filter(|d| d.is_ascii_digit()) {
                c = c.checked_mul(10)?.checked_add(i64::from(d - b'0'))?;
                i += 1;
            }
            i = skip_ws(i);
            if b.get(i) == Some(&b'*') {
                i = skip_ws(i + 1);
                (c, Some(ident(&mut i)?))
            } else {
                (c, None)
            }
        } else {
            (1, Some(ident(&mut i)?))
        };
        i = skip_ws(i);
        if i < b.len() && !matches!(b[i], b'+' | b'-') {
            return None;
        }
        match name {
            None => constant = constant.checked_add(sign * coeff)?,
            Some(n) => add_term(&mut terms, n, sign * coeff)?,
        }
    }
    Some((terms, constant))
}

/// [`parse_terms`] for any input: trims Unicode whitespace, accepts Unicode
/// symbols, and reports the first error.
fn parse_any_terms(input: &str) -> Result<(BTreeMap<String, i64>, i64), IrError> {
    let mut terms: BTreeMap<String, i64> = BTreeMap::new();
    let mut constant = 0i64;
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
        let overflow = || IrError::Parse(format!("sum overflows a 64-bit integer in '{input}'"));
        match name {
            None => constant = constant.checked_add(sign * coeff).ok_or_else(overflow)?,
            Some(n) => add_term(&mut terms, n, sign * coeff).ok_or_else(overflow)?,
        }
        sign = 1;
    }
    Ok((terms, constant))
}

/// Split a single term like `"2*N"`, `"N"`, `"3"` into (coefficient, symbol).
fn split_term<'a>(term: &'a str, context: &str) -> Result<(i64, Option<&'a str>), IrError> {
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
        Ok((coeff, Some(name)))
    } else if let Ok(c) = term.parse::<i64>() {
        Ok((c, None))
    } else if is_ident(term) {
        Ok((1, Some(term)))
    } else {
        Err(IrError::Parse(format!(
            "cannot parse term '{term}' in '{context}'"
        )))
    }
}

fn is_ident(s: &str) -> bool {
    s.chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_alphanumeric() || c == '_')
}

/// Parse a comma-separated list of subscripts, e.g. `"i-1, t"` or
/// `"r + 2*w, s, c, b"`.
pub fn parse_indices(input: &str) -> Result<Vec<LinIndex>, IrError> {
    input.split(',').map(parse_lin_index).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_constants_variables_and_sums() {
        assert_eq!(parse_affine("3").unwrap().constant, 3);
        let e = parse_affine("N").unwrap();
        assert_eq!(e.terms.get("N"), Some(&1));
        let e = parse_affine("2*N + k - 3").unwrap();
        assert_eq!(e.terms.get("N"), Some(&2));
        assert_eq!(e.terms.get("k"), Some(&1));
        assert_eq!(e.constant, -3);
        let e = parse_affine("-i + 1").unwrap();
        assert_eq!(e.terms.get("i"), Some(&-1));
        assert_eq!(e.constant, 1);
    }

    #[test]
    fn parses_index_lists() {
        let ix = parse_indices("i-1, t").unwrap();
        assert_eq!(ix.len(), 2);
        assert_eq!(ix[0].offset, -1);
        assert_eq!(ix[1].simple_var(), Some("t"));
        let ix = parse_indices("r + 2*w, s, c, b").unwrap();
        assert_eq!(ix.len(), 4);
        assert_eq!(ix[0].coeffs.get("w"), Some(&2));
        assert!(!ix[0].is_simple());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_affine("2 ** N").is_err());
        assert!(parse_affine("N +").is_err());
        assert!(parse_affine("3N").is_err());
        assert!(parse_affine("").is_ok()); // empty string is the zero expression
    }

    #[test]
    fn overflowing_sums_are_errors_in_both_passes() {
        const MAX: &str = "9223372036854775807";
        for input in [
            format!("{MAX}*N + {MAX}*N"),
            format!("{MAX}*β + {MAX}*β"),
            format!("{MAX} + 1"),
            format!("β + {MAX} + 1"),
            format!("-{MAX} - 2"),
        ] {
            match parse_affine(&input) {
                Err(IrError::Parse(message)) => assert!(message.contains("overflows"), "{message}"),
                other => panic!("{input}: {other:?}"),
            }
        }
        // Sums that stay in range still parse, cancellation included.
        let e = parse_affine(&format!("{MAX}*N - {MAX}*N + {MAX} - 1")).unwrap();
        assert!(e.terms.is_empty());
        assert_eq!(e.constant, i64::MAX - 1);
        assert_eq!(
            parse_affine(&format!("-{MAX} - 1")).unwrap().constant,
            i64::MIN
        );
    }

    #[test]
    fn ascii_pass_agrees_with_the_general_parser() {
        // Every short string over an alphabet of the grammar's characters,
        // Unicode letters and whitespace among them, sampled by xorshift.
        const ALPHABET: [&str; 16] = [
            " ", "\t", "+", "-", "*", "0", "1", "9", "N", "i", "_", "x", "β", "\u{a0}", ",", "\x0b",
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut accepted = 0;
        for _ in 0..20_000 {
            let mut s = String::new();
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let mut bits = state;
            for _ in 0..(bits % 11) {
                bits /= 11;
                s.push_str(ALPHABET[(bits % 16) as usize]);
                bits /= 16;
                if bits == 0 {
                    bits = state.rotate_left(29);
                }
            }
            let general = parse_any_terms(&s);
            match parse_ascii_terms(&s) {
                Some(fast) => {
                    assert_eq!(Ok(fast), general, "input {s:?}");
                    accepted += 1;
                }
                None => assert!(
                    general.is_err() || !s.is_ascii(),
                    "ASCII input {s:?} left to the general parser"
                ),
            }
        }
        assert!(
            accepted > 1_000,
            "only {accepted} inputs took the ASCII pass"
        );
    }

    #[test]
    fn round_trips_through_display() {
        for s in ["N - 1", "2*N + k", "i + 1", "0"] {
            let e = parse_affine(s).unwrap();
            let reparsed = parse_affine(&format!("{}", e)).unwrap();
            assert_eq!(e, reparsed, "round trip of '{s}'");
        }
    }
}
