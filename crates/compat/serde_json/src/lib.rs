//! Offline stand-in for `serde_json`: JSON text rendering and parsing for the
//! [`serde`] stand-in's [`Value`] model, plus the [`json!`] literal macro.
//!
//! Output follows serde_json's conventions (compact `{"k":v}` form from
//! [`to_string`], two-space indentation from [`to_string_pretty`], `null` for
//! non-finite floats) so generated artifacts stay byte-compatible if the real
//! crates are ever restored.
#![forbid(unsafe_code)]

pub use serde::{DeError, Value};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Convert any serializable type into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(v: &T) -> Value {
    v.to_value()
}

/// Render a serializable type as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(v: &T) -> Result<String, DeError> {
    let mut out = String::new();
    write_value(&mut out, &v.to_value(), None, 0);
    Ok(out)
}

/// Render a serializable type as pretty-printed JSON (two-space indents).
pub fn to_string_pretty<T: Serialize + ?Sized>(v: &T) -> Result<String, DeError> {
    let mut out = String::new();
    write_value(&mut out, &v.to_value(), Some(2), 0);
    Ok(out)
}

/// Parse JSON text into any deserializable type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, DeError> {
    let mut p = Parser {
        text: s,
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(DeError::msg(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    T::from_value(&v)
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Float(x) => {
            if x.is_finite() {
                if *x == x.trunc() && x.abs() < 1e15 {
                    // serde_json prints integral floats with a trailing ".0".
                    let _ = write!(out, "{x:.1}");
                } else {
                    let _ = write!(out, "{x}");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => write_seq(
            out,
            items.iter(),
            items.len(),
            indent,
            depth,
            '[',
            ']',
            write_value,
        ),
        Value::Object(fields) => write_seq(
            out,
            fields.iter(),
            fields.len(),
            indent,
            depth,
            '{',
            '}',
            |o, (k, val), ind, d| {
                write_escaped(o, k);
                o.push(':');
                if ind.is_some() {
                    o.push(' ');
                }
                write_value(o, val, ind, d);
            },
        ),
    }
}

#[allow(clippy::too_many_arguments)]
fn write_seq<T>(
    out: &mut String,
    items: impl Iterator<Item = T>,
    len: usize,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    mut write_item: impl FnMut(&mut String, T, Option<usize>, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for (i, it) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        write_item(out, it, indent, depth + 1);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    /// The input, for slicing string runs without re-validating UTF-8.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), DeError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(DeError::msg(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str, v: Value) -> Result<Value, DeError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(DeError::msg(format!("invalid token at byte {}", self.pos)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, DeError> {
        match self.peek() {
            Some(b'n') => self.eat_keyword("null", Value::Null),
            Some(b't') => self.eat_keyword("true", Value::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => {
                            return Err(DeError::msg(format!(
                                "expected ',' or ']' at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    // lint:allow(unwrap-expect): this is the parser's own expect(byte) helper returning Result, not Option::expect
                    self.expect(b':')?;
                    self.skip_ws();
                    let val = self.parse_value()?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => {
                            return Err(DeError::msg(format!(
                                "expected ',' or '}}' at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(DeError::msg(format!(
                "unexpected character at byte {}",
                self.pos
            ))),
        }
    }

    fn parse_string(&mut self) -> Result<String, DeError> {
        // lint:allow(unwrap-expect): this is the parser's own expect(byte) helper returning Result, not Option::expect
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash as one slice.
            // Both delimiters are ASCII, and a run starts right after an
            // ASCII byte, so both cuts land on char boundaries of `text`:
            // the slice never fails and the input is never re-validated.
            let start = self.pos;
            while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                self.text
                    .get(start..self.pos)
                    .ok_or_else(|| DeError::msg("invalid UTF-8"))?,
            );
            match self.peek() {
                None => return Err(DeError::msg("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    // A backslash: one escape sequence.
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| DeError::msg("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| DeError::msg("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| DeError::msg("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(DeError::msg("bad escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, DeError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| DeError::msg("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| DeError::msg(format!("invalid number '{text}'")))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|_| DeError::msg(format!("invalid number '{text}'")))
        }
    }
}

/// Build a [`Value`] from a JSON-like literal, mirroring `serde_json::json!`.
///
/// Object values and array elements may be arbitrary expressions whose types
/// implement `Serialize` (including nested `json!` invocations).  Unlike the
/// real macro, nested *literals* must be wrapped in their own `json!` call —
/// write `json!({"xs": json!([1, 2])})`, not `json!({"xs": [1, 2]})`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::to_value(&$item) ),* ])
    };
    ({ $($key:tt : $value:expr),* $(,)? }) => {
        $crate::Value::Object(vec![ $( (($key).to_string(), $crate::to_value(&$value)) ),* ])
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_and_pretty() {
        let v = json!({ "a": 1i64, "b": json!([true, "x"]) });
        assert_eq!(to_string(&v).unwrap(), r#"{"a":1,"b":[true,"x"]}"#);
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\n  \"a\": 1"));
    }

    #[test]
    fn parses_back_what_it_writes() {
        let v = json!({
            "name": "gemm",
            "bound": 2.5f64,
            "sizes": json!([1i64, 2i64, 3i64]),
            "flag": json!(null)
        });
        let text = to_string_pretty(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn escapes_strings() {
        let text = to_string(&"a\"b\\c\nd").unwrap();
        assert_eq!(text, r#""a\"b\\c\nd""#);
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, Value::Str("a\"b\\c\nd".to_string()));
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&2.5f64).unwrap(), "2.5");
    }

    fn round_trip(s: &str) -> String {
        let text = to_string(&s).unwrap();
        match from_str::<Value>(&text).unwrap() {
            Value::Str(back) => back,
            other => panic!("{text} parsed as {other:?}"),
        }
    }

    #[test]
    fn multibyte_strings_round_trip() {
        // 2-byte (é, ρ, σ, χ), 3-byte (€, U+2028) and 4-byte (emoji) UTF-8,
        // next to escapes and at both ends of the string.
        for s in [
            "é",
            "ρσχ",
            "ρ(S)=σ·χ",
            "€\u{2028}",
            "\u{1F600}",
            "a\u{1F600}b",
            "\"ρ\"",
            "σ\\χ",
            "é\n",
            "\té",
            "",
        ] {
            assert_eq!(round_trip(s), s, "{s:?}");
        }
    }

    #[test]
    fn every_escape_parses() {
        let text = r#""\"\\\/\b\f\n\r\t\u00e9\u03c1\ud83d""#;
        let back: Value = from_str(text).unwrap();
        // A lone surrogate escape has no char: it becomes U+FFFD.
        assert_eq!(
            back,
            Value::Str("\"\\/\u{8}\u{c}\n\r\té\u{3c1}\u{fffd}".to_string())
        );
    }

    #[test]
    fn control_characters_round_trip() {
        let all: String = (0u8..0x20).map(char::from).chain(['\u{7f}']).collect();
        assert_eq!(round_trip(&all), all);
        // The writer escapes them; the parser also accepts them raw.
        let raw: Value = from_str("\"a\tb\u{1}c\nρ\"").unwrap();
        assert_eq!(raw, Value::Str("a\tb\u{1}c\nρ".to_string()));
    }

    #[test]
    fn malformed_strings_are_errors() {
        for text in [
            "\"abc",
            "\"ρσ",
            "\"ab\\",
            "\"ab\\\"",
            "\"\\u12",
            "\"\\u12\"",
            "\"\\u12zz\"",
            "\"\\uρρ\"",
            "\"\\x\"",
            "[\"a\", \"b]",
            "{\"k\": \"v}",
        ] {
            assert!(from_str::<Value>(text).is_err(), "{text:?} parsed");
        }
    }

    /// xorshift64*: a tiny seeded generator for the property test.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn string(&mut self) -> String {
            const POOL: [char; 16] = [
                'a',
                'Z',
                '0',
                ' ',
                '"',
                '\\',
                '/',
                '\n',
                '\u{1}',
                '\u{1f}',
                'é',
                'ρ',
                'σ',
                'χ',
                '\u{2028}',
                '\u{1F600}',
            ];
            let len = self.below(12);
            (0..len).map(|_| POOL[self.below(16) as usize]).collect()
        }

        fn value(&mut self, depth: u32) -> Value {
            let kinds = if depth == 0 { 5 } else { 7 };
            match self.below(kinds) {
                0 => Value::Null,
                1 => Value::Bool(self.below(2) == 1),
                2 => Value::Int(self.next() as i64 as i128 * (1 + self.below(1 << 20) as i128)),
                // Finite and below 1e15 in magnitude: an integral float of
                // 1e15 or more prints without a decimal point and so reads
                // back as an integer, as in serde_json.
                3 => Value::Float((self.below(1 << 40) as f64 - (1u64 << 39) as f64) / 64.0),
                4 => Value::Str(self.string()),
                5 => Value::Array((0..self.below(4)).map(|_| self.value(depth - 1)).collect()),
                _ => Value::Object(
                    (0..self.below(4))
                        .map(|_| (self.string(), self.value(depth - 1)))
                        .collect(),
                ),
            }
        }
    }

    #[test]
    fn random_value_trees_round_trip() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for _ in 0..2000 {
            let v = rng.value(3);
            for text in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
                let back: Value = from_str(&text).unwrap();
                assert_eq!(back, v, "{text}");
            }
        }
    }
}
