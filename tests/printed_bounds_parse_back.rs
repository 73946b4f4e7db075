//! A printed bound means what it says: every registry bound and per-array ρ,
//! as `Display` prints it, is parsed back with conventional precedence
//! (`^` over unary `-` over `*`/`/` over `+`/`-`, `*` and `/` left to right,
//! `^` right to left) and evaluated; at several bindings the result must
//! match `Expr::eval` of the computed expression within 1e-12 relative
//! error.  A base that prints without the parentheses its precedence needs —
//! `1907/8^(1/4)` for (1907/8)^(1/4) — fails here.

use soap_bench::{analyze_kernel, reference_bindings};
use soap_symbolic::Expr;
use std::collections::BTreeMap;

/// A recursive-descent evaluator over the printed form.
struct Parser<'a> {
    text: &'a [u8],
    pos: usize,
    bindings: &'a BTreeMap<String, f64>,
}

impl Parser<'_> {
    fn eval(text: &str, bindings: &BTreeMap<String, f64>) -> Result<f64, String> {
        let mut p = Parser {
            text: text.as_bytes(),
            pos: 0,
            bindings,
        };
        let value = p.sum()?;
        p.skip_ws();
        if p.pos != p.text.len() {
            return Err(format!("trailing input at byte {} of {text:?}", p.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while self.text.get(self.pos) == Some(&b' ') {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.text.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn sum(&mut self) -> Result<f64, String> {
        let mut acc = self.product()?;
        loop {
            match self.peek() {
                Some(b'+') => {
                    self.pos += 1;
                    acc += self.product()?;
                }
                Some(b'-') => {
                    self.pos += 1;
                    acc -= self.product()?;
                }
                _ => return Ok(acc),
            }
        }
    }

    fn product(&mut self) -> Result<f64, String> {
        let mut acc = self.unary()?;
        loop {
            match self.peek() {
                Some(b'*') => {
                    self.pos += 1;
                    acc *= self.unary()?;
                }
                Some(b'/') => {
                    self.pos += 1;
                    acc /= self.unary()?;
                }
                _ => return Ok(acc),
            }
        }
    }

    fn unary(&mut self) -> Result<f64, String> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
            return Ok(-self.unary()?);
        }
        self.power()
    }

    fn power(&mut self) -> Result<f64, String> {
        let base = self.atom()?;
        if self.peek() == Some(b'^') {
            self.pos += 1;
            let exponent = self.unary()?;
            return Ok(base.powf(exponent));
        }
        Ok(base)
    }

    fn atom(&mut self) -> Result<f64, String> {
        match self.peek() {
            Some(b'(') => {
                self.pos += 1;
                let v = self.sum()?;
                self.eat(b')')?;
                Ok(v)
            }
            Some(c) if c.is_ascii_digit() => {
                let start = self.pos;
                while self.text.get(self.pos).is_some_and(u8::is_ascii_digit) {
                    self.pos += 1;
                }
                let digits = std::str::from_utf8(&self.text[start..self.pos]).unwrap();
                digits.parse::<f64>().map_err(|e| e.to_string())
            }
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos;
                while self
                    .text
                    .get(self.pos)
                    .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
                {
                    self.pos += 1;
                }
                let name = std::str::from_utf8(&self.text[start..self.pos]).unwrap();
                if self.peek() != Some(b'(') {
                    return self
                        .bindings
                        .get(name)
                        .copied()
                        .ok_or_else(|| format!("unbound symbol {name}"));
                }
                self.pos += 1;
                let mut args = vec![self.sum()?];
                while self.peek() == Some(b',') {
                    self.pos += 1;
                    args.push(self.sum()?);
                }
                self.eat(b')')?;
                match (name, args.as_slice()) {
                    ("sqrt", [x]) => Ok(x.sqrt()),
                    ("max", _) => Ok(args.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
                    ("min", _) => Ok(args.iter().copied().fold(f64::INFINITY, f64::min)),
                    _ => Err(format!("unknown function {name}/{}", args.len())),
                }
            }
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(char::from),
                self.pos
            )),
        }
    }
}

/// The reference bindings, then the same symbols at other magnitudes.
fn binding_sets(reference: &BTreeMap<String, f64>) -> Vec<BTreeMap<String, f64>> {
    let mut sets = vec![reference.clone()];
    for (i, scale) in [(1u32, 0.37), (2, 5.5), (3, 61.0)] {
        sets.push(
            reference
                .iter()
                .enumerate()
                .map(|(j, (name, value))| {
                    // Spread the symbols apart so a swapped pair shows.
                    let spread = 1.0 + 0.13 * f64::from(i) * j as f64;
                    (name.clone(), value * scale * spread)
                })
                .collect(),
        );
    }
    sets
}

fn check(kernel: &str, what: &str, expr: &Expr, bindings: &BTreeMap<String, f64>) {
    let printed = expr.to_string();
    let parsed = Parser::eval(&printed, bindings)
        .unwrap_or_else(|e| panic!("{kernel} {what}: cannot parse {printed:?}: {e}"));
    let computed = expr
        .eval(bindings)
        .unwrap_or_else(|| panic!("{kernel} {what}: {printed} does not evaluate"));
    let rel = (parsed - computed).abs() / computed.abs().max(f64::MIN_POSITIVE);
    assert!(
        rel <= 1e-12,
        "{kernel} {what}: printed {printed:?} reads {parsed:e}, computed {computed:e} (rel {rel:e})"
    );
}

#[test]
fn printed_registry_bounds_and_intensities_parse_back() {
    let mut checked = 0;
    for entry in soap_kernels::registry() {
        let analysis = analyze_kernel(&entry);
        for bindings in binding_sets(&reference_bindings(&entry)) {
            check(entry.name, "bound", &analysis.bound, &bindings);
            for a in &analysis.per_array {
                check(
                    entry.name,
                    &format!("rho of {}", a.array),
                    &a.rho,
                    &bindings,
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 100, "only {checked} intensities checked");
}

#[test]
fn rational_and_negative_bases_are_parenthesized() {
    let r = |n: i128, d: i128| Expr::Num(soap_symbolic::Rational::new(n, d));
    let quarter = soap_symbolic::Rational::new(1, 4);
    let cases = [
        (Expr::Pow(Box::new(r(1907, 8)), quarter), "(1907/8)^(1/4)"),
        (Expr::Pow(Box::new(r(-2, 1)), quarter), "(-2)^(1/4)"),
        (
            Expr::Pow(Box::new(r(3, 2)), soap_symbolic::Rational::new(2, 1)),
            "(3/2)^2",
        ),
        (Expr::Pow(Box::new(r(7, 1)), quarter), "7^(1/4)"),
    ];
    for (expr, printed) in cases {
        assert_eq!(expr.to_string(), printed);
        let parsed = Parser::eval(printed, &BTreeMap::new()).unwrap();
        let computed = expr.eval(&BTreeMap::new());
        // The negative base has no real fourth root: both read NaN.
        match computed {
            Some(c) if c.is_finite() => assert!((parsed - c).abs() <= 1e-12 * c.abs()),
            _ => assert!(parsed.is_nan(), "{printed} reads {parsed}"),
        }
    }
}
