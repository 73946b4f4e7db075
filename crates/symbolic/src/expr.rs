//! Symbolic expressions.
//!
//! [`Expr`] is a small computer-algebra core tailored to the needs of the
//! SOAP analysis: dominator-set size formulas, computational intensities and
//! final I/O bounds are sums/products of symbols with *rational* exponents
//! (√S, ∛S, …), occasionally wrapped in `max`/`min` for conditional bounds
//! (Section 5.3 of the paper).

use crate::intern::Symbol;
use crate::rational::Rational;
use std::collections::BTreeMap;
use std::fmt;

/// A symbolic expression in canonical (simplified) form.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Expr {
    /// A rational constant.
    Num(Rational),
    /// A named symbol (loop extent, memory size `S`, tile size, …), stored as
    /// a `Copy` interned handle; see [`crate::intern`].
    Sym(Symbol),
    /// A sum of at least two terms.
    Add(Vec<Expr>),
    /// A product of at least two factors.
    Mul(Vec<Expr>),
    /// A base raised to a rational power.
    Pow(Box<Expr>, Rational),
    /// The pointwise maximum of its arguments.
    Max(Vec<Expr>),
    /// The pointwise minimum of its arguments.
    Min(Vec<Expr>),
}

impl Expr {
    /// The constant 0.
    pub fn zero() -> Expr {
        Expr::Num(Rational::ZERO)
    }

    /// The constant 1.
    pub fn one() -> Expr {
        Expr::Num(Rational::ONE)
    }

    /// An integer constant.
    pub fn int(n: i64) -> Expr {
        Expr::Num(Rational::int(n as i128))
    }

    /// A rational constant.
    pub fn num(r: Rational) -> Expr {
        Expr::Num(r)
    }

    /// A symbol (interned; accepts both `&str` and `String`).
    pub fn sym(name: impl AsRef<str>) -> Expr {
        Expr::Sym(Symbol::intern(name.as_ref()))
    }

    /// Sum of an iterator of expressions (simplified).
    pub fn sum<I: IntoIterator<Item = Expr>>(items: I) -> Expr {
        let mut acc = Expr::zero();
        for it in items {
            acc = acc.add(it);
        }
        acc
    }

    /// Product of an iterator of expressions (simplified).
    pub fn product<I: IntoIterator<Item = Expr>>(items: I) -> Expr {
        let mut acc = Expr::one();
        for it in items {
            acc = acc.mul(it);
        }
        acc
    }

    /// True if this expression is the constant zero.
    pub fn is_zero(&self) -> bool {
        matches!(self, Expr::Num(r) if r.is_zero())
    }

    /// True if this expression is the constant one.
    pub fn is_one(&self) -> bool {
        matches!(self, Expr::Num(r) if r.is_one())
    }

    /// Return the constant value if the expression is a number.
    pub fn as_num(&self) -> Option<Rational> {
        match self {
            Expr::Num(r) => Some(*r),
            _ => None,
        }
    }

    /// Addition with simplification.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Expr) -> Expr {
        simplify_add(vec![self, rhs])
    }

    /// Subtraction with simplification.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Expr) -> Expr {
        self.add(rhs.neg())
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Expr {
        Expr::int(-1).mul(self)
    }

    /// Multiplication with simplification.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Expr) -> Expr {
        simplify_mul(vec![self, rhs])
    }

    /// Division with simplification.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, rhs: Expr) -> Expr {
        self.mul(rhs.pow(Rational::int(-1)))
    }

    /// Raise to a rational power, with simplification.
    pub fn pow(self, e: Rational) -> Expr {
        if e.is_zero() {
            return Expr::one();
        }
        if e.is_one() {
            return self;
        }
        match self {
            Expr::Num(r) => {
                if e.is_integer() {
                    Expr::Num(r.pow_i(e.numer() as i64))
                } else if r.is_one() {
                    Expr::one()
                } else if r.is_zero() && e.is_positive() {
                    Expr::zero()
                } else {
                    Expr::Pow(Box::new(Expr::Num(r)), e)
                }
            }
            Expr::Pow(base, e0) => base.pow(e0 * e),
            Expr::Mul(factors) => Expr::product(factors.into_iter().map(|f| f.pow(e))),
            other => Expr::Pow(Box::new(other), e),
        }
    }

    /// Square root.
    pub fn sqrt(self) -> Expr {
        self.pow(Rational::new(1, 2))
    }

    /// Pointwise maximum of two expressions.
    pub fn max(self, rhs: Expr) -> Expr {
        if self == rhs {
            return self;
        }
        if let (Some(a), Some(b)) = (self.as_num(), rhs.as_num()) {
            return Expr::Num(a.max(b));
        }
        let mut items = Vec::new();
        for e in [self, rhs] {
            match e {
                Expr::Max(v) => items.extend(v),
                other => items.push(other),
            }
        }
        items.sort();
        items.dedup();
        if items.len() == 1 {
            // lint:allow(unwrap-expect): the length check above guarantees a last element
            items.pop().unwrap()
        } else {
            Expr::Max(items)
        }
    }

    /// Pointwise minimum of two expressions.
    pub fn min(self, rhs: Expr) -> Expr {
        if self == rhs {
            return self;
        }
        if let (Some(a), Some(b)) = (self.as_num(), rhs.as_num()) {
            return Expr::Num(a.min(b));
        }
        let mut items = Vec::new();
        for e in [self, rhs] {
            match e {
                Expr::Min(v) => items.extend(v),
                other => items.push(other),
            }
        }
        items.sort();
        items.dedup();
        if items.len() == 1 {
            // lint:allow(unwrap-expect): the length check above guarantees a last element
            items.pop().unwrap()
        } else {
            Expr::Min(items)
        }
    }

    /// Evaluate numerically under the given symbol bindings.
    ///
    /// Returns `None` if a symbol is unbound or a negative base is raised to a
    /// fractional power.
    pub fn eval(&self, bindings: &BTreeMap<String, f64>) -> Option<f64> {
        match self {
            Expr::Num(r) => Some(r.to_f64()),
            Expr::Sym(s) => bindings.get(s.as_str()).copied(),
            Expr::Add(items) => {
                let mut acc = 0.0;
                for it in items {
                    acc += it.eval(bindings)?;
                }
                Some(acc)
            }
            Expr::Mul(items) => {
                let mut acc = 1.0;
                for it in items {
                    acc *= it.eval(bindings)?;
                }
                Some(acc)
            }
            Expr::Pow(base, e) => {
                let b = base.eval(bindings)?;
                let ef = e.to_f64();
                if b < 0.0 && !e.is_integer() {
                    return None;
                }
                Some(b.powf(ef))
            }
            Expr::Max(items) => {
                let mut acc = f64::NEG_INFINITY;
                for it in items {
                    acc = acc.max(it.eval(bindings)?);
                }
                Some(acc)
            }
            Expr::Min(items) => {
                let mut acc = f64::INFINITY;
                for it in items {
                    acc = acc.min(it.eval(bindings)?);
                }
                Some(acc)
            }
        }
    }

    /// Evaluate numerically with a single symbol binding, without building a
    /// `BTreeMap` — the hot shape for intensity evaluation `ρ(S)` where `S` is
    /// the only free symbol.
    ///
    /// Same `None` semantics as [`Expr::eval`]: unbound symbols (anything
    /// other than `sym`) and fractional powers of negative bases fail.
    pub fn eval_single(&self, sym: &str, value: f64) -> Option<f64> {
        self.eval_single_symbol(Symbol::intern(sym), value)
    }

    fn eval_single_symbol(&self, sym: Symbol, value: f64) -> Option<f64> {
        match self {
            Expr::Num(r) => Some(r.to_f64()),
            Expr::Sym(s) => (*s == sym).then_some(value),
            Expr::Add(items) => {
                let mut acc = 0.0;
                for it in items {
                    acc += it.eval_single_symbol(sym, value)?;
                }
                Some(acc)
            }
            Expr::Mul(items) => {
                let mut acc = 1.0;
                for it in items {
                    acc *= it.eval_single_symbol(sym, value)?;
                }
                Some(acc)
            }
            Expr::Pow(base, e) => {
                let b = base.eval_single_symbol(sym, value)?;
                if b < 0.0 && !e.is_integer() {
                    return None;
                }
                Some(b.powf(e.to_f64()))
            }
            Expr::Max(items) => {
                let mut acc = f64::NEG_INFINITY;
                for it in items {
                    acc = acc.max(it.eval_single_symbol(sym, value)?);
                }
                Some(acc)
            }
            Expr::Min(items) => {
                let mut acc = f64::INFINITY;
                for it in items {
                    acc = acc.min(it.eval_single_symbol(sym, value)?);
                }
                Some(acc)
            }
        }
    }

    /// Substitute `sym := value` and re-simplify.
    pub fn subs(&self, sym: &str, value: &Expr) -> Expr {
        self.subs_symbol(Symbol::intern(sym), value)
    }

    fn subs_symbol(&self, sym: Symbol, value: &Expr) -> Expr {
        match self {
            Expr::Num(_) => self.clone(),
            Expr::Sym(s) => {
                if *s == sym {
                    value.clone()
                } else {
                    self.clone()
                }
            }
            Expr::Add(items) => Expr::sum(items.iter().map(|i| i.subs_symbol(sym, value))),
            Expr::Mul(items) => Expr::product(items.iter().map(|i| i.subs_symbol(sym, value))),
            Expr::Pow(base, e) => base.subs_symbol(sym, value).pow(*e),
            Expr::Max(items) => {
                let mut it = items.iter().map(|i| i.subs_symbol(sym, value));
                // lint:allow(unwrap-expect): Max nodes are constructed with two or more items
                let first = it.next().expect("Max has at least two items");
                it.fold(first, |a, b| a.max(b))
            }
            Expr::Min(items) => {
                let mut it = items.iter().map(|i| i.subs_symbol(sym, value));
                // lint:allow(unwrap-expect): Min nodes are constructed with two or more items
                let first = it.next().expect("Min has at least two items");
                it.fold(first, |a, b| a.min(b))
            }
        }
    }

    /// Partial derivative with respect to `sym`.
    ///
    /// `Max`/`Min` are not differentiable; callers must eliminate them first
    /// (the analysis branches over conditional cases before optimizing).
    pub fn diff(&self, sym: &str) -> Expr {
        self.diff_symbol(Symbol::intern(sym))
    }

    fn diff_symbol(&self, sym: Symbol) -> Expr {
        match self {
            Expr::Num(_) => Expr::zero(),
            Expr::Sym(s) => {
                if *s == sym {
                    Expr::one()
                } else {
                    Expr::zero()
                }
            }
            Expr::Add(items) => Expr::sum(items.iter().map(|i| i.diff_symbol(sym))),
            Expr::Mul(items) => {
                // Product rule over n factors.
                let mut out = Expr::zero();
                for (i, fi) in items.iter().enumerate() {
                    let mut term = fi.diff_symbol(sym);
                    for (j, fj) in items.iter().enumerate() {
                        if i != j {
                            term = term.mul(fj.clone());
                        }
                    }
                    out = out.add(term);
                }
                out
            }
            Expr::Pow(base, e) => {
                // d/dx b^e = e * b^(e-1) * b'
                let b_prime = base.diff_symbol(sym);
                Expr::num(*e)
                    .mul(base.clone().pow(*e - Rational::ONE))
                    .mul(b_prime)
            }
            Expr::Max(_) | Expr::Min(_) => {
                panic!("cannot differentiate Max/Min expressions; resolve conditional cases first")
            }
        }
    }

    /// Distribute products over sums and re-simplify, producing a flat sum of
    /// monomial-like terms.
    ///
    /// Expansion collects like terms exactly (rational arithmetic), which
    /// eliminates the catastrophic cancellation that the factored Lemma-3
    /// expressions `2·∏E − ∏(E − t̂)` would otherwise suffer when evaluated in
    /// floating point at large tile extents.  `Max`/`Min` nodes are treated as
    /// atomic factors.
    pub fn expand(&self) -> Expr {
        match self {
            Expr::Num(_) | Expr::Sym(_) => self.clone(),
            Expr::Add(items) => Expr::sum(items.iter().map(|i| i.expand())),
            Expr::Pow(base, e) => {
                // Expand integer powers of sums by repeated distribution.
                let b = base.expand();
                if e.is_integer() && e.is_positive() && matches!(b, Expr::Add(_)) {
                    let n = e.numer() as usize;
                    distribute(std::iter::repeat_n(b, n))
                } else {
                    b.pow(*e)
                }
            }
            Expr::Mul(items) => distribute(items.iter().map(|i| i.expand())),
            Expr::Max(items) => {
                let mut it = items.iter().map(|i| i.expand());
                // lint:allow(unwrap-expect): Max nodes are constructed with two or more items
                let first = it.next().expect("Max has at least two items");
                it.fold(first, |a, b| a.max(b))
            }
            Expr::Min(items) => {
                let mut it = items.iter().map(|i| i.expand());
                // lint:allow(unwrap-expect): Min nodes are constructed with two or more items
                let first = it.next().expect("Min has at least two items");
                it.fold(first, |a, b| a.min(b))
            }
        }
    }

    /// Collect the set of free symbols.
    pub fn symbols(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_symbols(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_symbols(&self, out: &mut Vec<String>) {
        match self {
            Expr::Num(_) => {}
            Expr::Sym(s) => out.push(s.as_str().to_string()),
            Expr::Add(items) | Expr::Mul(items) | Expr::Max(items) | Expr::Min(items) => {
                for i in items {
                    i.collect_symbols(out);
                }
            }
            Expr::Pow(base, _) => base.collect_symbols(out),
        }
    }

    /// Split into `(coefficient, non-constant factors)` — useful for collecting
    /// like terms and for leading-term extraction.
    fn split_coeff(&self) -> (Rational, Vec<Expr>) {
        match self {
            Expr::Num(r) => (*r, vec![]),
            Expr::Mul(items) => {
                let mut coeff = Rational::ONE;
                let mut rest = Vec::new();
                for it in items {
                    match it {
                        Expr::Num(r) => coeff *= *r,
                        other => rest.push(other.clone()),
                    }
                }
                (coeff, rest)
            }
            other => (Rational::ONE, vec![other.clone()]),
        }
    }

    /// Owning variant of [`Expr::split_coeff`]: consumes the expression so the
    /// simplifier's like-term collection never clones subterms.
    fn into_coeff(self) -> (Rational, Vec<Expr>) {
        match self {
            Expr::Num(r) => (r, Vec::new()),
            Expr::Mul(items) => {
                let mut coeff = Rational::ONE;
                let mut rest = Vec::with_capacity(items.len());
                for it in items {
                    match it {
                        Expr::Num(r) => coeff *= r,
                        other => rest.push(other),
                    }
                }
                (coeff, rest)
            }
            other => (Rational::ONE, vec![other]),
        }
    }

    /// Total degree of the expression treating every symbol in `size_syms` as
    /// degree 1 and everything else as degree 0.  For sums, the maximum over
    /// terms; used for leading-order extraction.
    pub fn degree_in(&self, size_syms: &[String]) -> Rational {
        match self {
            Expr::Num(_) => Rational::ZERO,
            Expr::Sym(s) => {
                if size_syms.iter().any(|x| x == s.as_str()) {
                    Rational::ONE
                } else {
                    Rational::ZERO
                }
            }
            Expr::Add(items) | Expr::Max(items) | Expr::Min(items) => items
                .iter()
                .map(|i| i.degree_in(size_syms))
                .max()
                .unwrap_or(Rational::ZERO),
            Expr::Mul(items) => items
                .iter()
                .map(|i| i.degree_in(size_syms))
                .fold(Rational::ZERO, |a, b| a + b),
            Expr::Pow(base, e) => base.degree_in(size_syms) * *e,
        }
    }

    /// Keep only the terms of maximal total degree in `size_syms` (the leading
    /// order as all listed symbols go to infinity at the same rate).
    pub fn leading_term(&self, size_syms: &[String]) -> Expr {
        match self {
            Expr::Add(items) => {
                let degrees: Vec<Rational> = items.iter().map(|i| i.degree_in(size_syms)).collect();
                let max_deg = degrees.iter().cloned().max().unwrap_or(Rational::ZERO);
                Expr::sum(
                    items
                        .iter()
                        .zip(degrees)
                        .filter(|(_, d)| *d == max_deg)
                        .map(|(i, _)| i.clone()),
                )
            }
            other => other.clone(),
        }
    }
}

/// Distribute a product of (already expanded) factors over their sums,
/// producing a flat sum of term-by-term products.  Individual addends are not
/// sums themselves, so the term-level multiplications cannot re-create a
/// power of a sum and recursion terminates.
fn distribute<I: IntoIterator<Item = Expr>>(factors: I) -> Expr {
    let mut acc: Vec<Expr> = vec![Expr::one()];
    for factor in factors {
        let addends: Vec<Expr> = match factor {
            Expr::Add(terms) => terms,
            other => vec![other],
        };
        let mut next = Vec::with_capacity(acc.len() * addends.len());
        for a in &acc {
            for b in &addends {
                next.push(a.clone().mul(b.clone()));
            }
        }
        acc = next;
    }
    Expr::sum(acc)
}

/// Flatten and simplify a sum: fold constants and collect like terms.
///
/// Like terms are merged by sorting `(non-constant factors, coefficient)`
/// pairs and folding adjacent equals — the same canonical result as the
/// seed's `BTreeMap` collection without allocating tree nodes per term.
fn simplify_add(items: Vec<Expr>) -> Expr {
    let mut flat = Vec::with_capacity(items.len());
    for it in items {
        match it {
            Expr::Add(inner) => flat.extend(inner),
            other => flat.push(other),
        }
    }
    let mut constant = Rational::ZERO;
    let mut terms: Vec<(Vec<Expr>, Rational)> = Vec::with_capacity(flat.len());
    for it in flat {
        let (coeff, rest) = it.into_coeff();
        if rest.is_empty() {
            constant += coeff;
        } else {
            terms.push((rest, coeff));
        }
    }
    terms.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out: Vec<Expr> = Vec::with_capacity(terms.len() + 1);
    let mut terms = terms.into_iter();
    if let Some((mut rest, mut coeff)) = terms.next() {
        for (r, c) in terms {
            if r == rest {
                coeff += c;
            } else {
                push_collected_term(&mut out, std::mem::replace(&mut rest, r), coeff);
                coeff = c;
            }
        }
        push_collected_term(&mut out, rest, coeff);
    }
    if !constant.is_zero() {
        out.push(Expr::Num(constant));
    }
    match out.len() {
        0 => Expr::zero(),
        // lint:allow(unwrap-expect): this match arm only fires when exactly one element remains
        1 => out.pop().unwrap(),
        _ => {
            out.sort();
            Expr::Add(out)
        }
    }
}

/// Rebuild one collected term `coeff · ∏rest` and append it unless it
/// cancelled to zero.
fn push_collected_term(out: &mut Vec<Expr>, rest: Vec<Expr>, coeff: Rational) {
    if coeff.is_zero() {
        return;
    }
    let body = if rest.len() == 1 {
        // lint:allow(unwrap-expect): the branch above ensures a single factor remains
        rest.into_iter().next().expect("one factor")
    } else {
        Expr::Mul(rest)
    };
    if coeff.is_one() {
        out.push(body);
    } else {
        out.push(simplify_mul(vec![Expr::Num(coeff), body]));
    }
}

/// Flatten and simplify a product: fold constants and combine equal bases.
///
/// Equal bases are merged by sorting `(base, exponent)` pairs and folding
/// adjacent equals, mirroring [`simplify_add`]'s allocation-light collection.
fn simplify_mul(items: Vec<Expr>) -> Expr {
    let mut flat = Vec::with_capacity(items.len());
    for it in items {
        match it {
            Expr::Mul(inner) => flat.extend(inner),
            other => flat.push(other),
        }
    }
    let mut coeff = Rational::ONE;
    let mut powers: Vec<(Expr, Rational)> = Vec::with_capacity(flat.len());
    for it in flat {
        match it {
            Expr::Num(r) => {
                if r.is_zero() {
                    return Expr::zero();
                }
                coeff *= r;
            }
            Expr::Pow(base, e) => powers.push((*base, e)),
            other => powers.push((other, Rational::ONE)),
        }
    }
    powers.sort_by(|a, b| a.0.cmp(&b.0));
    let mut others: Vec<Expr> = Vec::with_capacity(powers.len());
    let mut powers = powers.into_iter();
    if let Some((mut base, mut e)) = powers.next() {
        for (b, e2) in powers {
            if b == base {
                e += e2;
            } else {
                apply_collected_power(&mut others, &mut coeff, std::mem::replace(&mut base, b), e);
                e = e2;
            }
        }
        apply_collected_power(&mut others, &mut coeff, base, e);
    }
    if coeff.is_zero() {
        return Expr::zero();
    }
    let mut out = Vec::with_capacity(others.len() + 1);
    if !coeff.is_one() {
        out.push(Expr::Num(coeff));
    }
    others.sort();
    out.extend(others);
    match out.len() {
        0 => Expr::one(),
        // lint:allow(unwrap-expect): this match arm only fires when exactly one element remains
        1 => out.pop().unwrap(),
        _ => Expr::Mul(out),
    }
}

/// Apply one collected `base^exponent`, folding numeric results into `coeff`.
fn apply_collected_power(others: &mut Vec<Expr>, coeff: &mut Rational, base: Expr, e: Rational) {
    if e.is_zero() {
        return;
    }
    match base.pow(e) {
        Expr::Num(r) => *coeff *= r,
        other => others.push(other),
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn needs_parens_in_product(e: &Expr) -> bool {
            matches!(e, Expr::Add(_))
        }
        match self {
            Expr::Num(r) => write!(f, "{}", r),
            Expr::Sym(s) => write!(f, "{}", s),
            Expr::Add(items) => {
                // Print non-constant terms first and the constant last
                // ("N - 1" rather than "-1 + N"); the canonical internal order
                // sorts numbers first, which reads poorly.
                let (consts, mut ordered): (Vec<&Expr>, Vec<&Expr>) =
                    items.iter().partition(|e| matches!(e, Expr::Num(_)));
                ordered.extend(consts);
                let mut first = true;
                for it in ordered {
                    let (coeff, _) = it.split_coeff();
                    if first {
                        write!(f, "{}", it)?;
                        first = false;
                    } else if coeff.is_negative() {
                        // Render "+ -x" as "- x" by negating the term.
                        write!(f, " - {}", it.clone().neg())?;
                    } else {
                        write!(f, " + {}", it)?;
                    }
                }
                Ok(())
            }
            Expr::Mul(items) => {
                // Separate negative-exponent factors into a denominator.
                let mut num_parts: Vec<String> = Vec::new();
                let mut den_parts: Vec<String> = Vec::new();
                for it in items {
                    match it {
                        Expr::Pow(base, e) if e.is_negative() => {
                            let inv = base.clone().pow(-*e);
                            if needs_parens_in_product(&inv) {
                                den_parts.push(format!("({})", inv));
                            } else {
                                den_parts.push(format!("{}", inv));
                            }
                        }
                        other => {
                            if needs_parens_in_product(other) {
                                num_parts.push(format!("({})", other));
                            } else {
                                num_parts.push(format!("{}", other));
                            }
                        }
                    }
                }
                let num = if num_parts.is_empty() {
                    "1".to_string()
                } else {
                    num_parts.join("*")
                };
                if den_parts.is_empty() {
                    write!(f, "{}", num)
                } else if den_parts.len() == 1 {
                    write!(f, "{}/{}", num, den_parts[0])
                } else {
                    write!(f, "{}/({})", num, den_parts.join("*"))
                }
            }
            Expr::Pow(base, e) => {
                // `^` binds tighter than the `/` of a fraction and the `-` of
                // a negative number, so such a base is parenthesized too:
                // `(1907/8)^(1/4)`, not `1907/8^(1/4)`.
                let compound = matches!(**base, Expr::Add(_) | Expr::Mul(_) | Expr::Pow(_, _));
                let signed_or_fraction =
                    matches!(**base, Expr::Num(r) if !r.is_integer() || r.is_negative());
                let b = if compound || signed_or_fraction {
                    format!("({})", base)
                } else {
                    format!("{}", base)
                };
                if *e == Rational::new(1, 2) {
                    write!(f, "sqrt({})", base)
                } else if *e == Rational::new(-1, 2) {
                    write!(f, "1/sqrt({})", base)
                } else if e.is_integer() {
                    write!(f, "{}^{}", b, e.numer())
                } else {
                    write!(f, "{}^({})", b, e)
                }
            }
            Expr::Max(items) => {
                let parts: Vec<String> = items.iter().map(|i| format!("{}", i)).collect();
                write!(f, "max({})", parts.join(", "))
            }
            Expr::Min(items) => {
                let parts: Vec<String> = items.iter().map(|i| format!("{}", i)).collect();
                write!(f, "min({})", parts.join(", "))
            }
        }
    }
}

// The wire format matches what `#[derive(Serialize, Deserialize)]` produced
// for the seed's `Expr` (externally tagged variants, `Sym` carrying its name
// as a plain string): `{"Sym":"N"}`, `{"Add":[…]}`, `{"Pow":[…, {…}]}`.
// Symbols are resolved through the interner on the way out and re-interned on
// the way in, so interning is invisible on the wire.
impl serde::Serialize for Expr {
    fn to_value(&self) -> serde::Value {
        let (tag, payload) = match self {
            Expr::Num(r) => ("Num", r.to_value()),
            Expr::Sym(s) => ("Sym", serde::Value::Str(s.as_str().to_string())),
            Expr::Add(items) => ("Add", items.to_value()),
            Expr::Mul(items) => ("Mul", items.to_value()),
            Expr::Pow(base, e) => (
                "Pow",
                serde::Value::Array(vec![base.to_value(), e.to_value()]),
            ),
            Expr::Max(items) => ("Max", items.to_value()),
            Expr::Min(items) => ("Min", items.to_value()),
        };
        serde::Value::Object(vec![(tag.to_string(), payload)])
    }
}

impl serde::Deserialize for Expr {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let serde::Value::Object(fields) = v else {
            return Err(serde::DeError::msg("Expr: expected a single-key object"));
        };
        let [(tag, payload)] = fields.as_slice() else {
            return Err(serde::DeError::msg(
                "Expr: expected exactly one variant tag",
            ));
        };
        match tag.as_str() {
            "Num" => Rational::from_value(payload).map(Expr::Num),
            "Sym" => payload
                .as_str()
                .map(|s| Expr::Sym(Symbol::intern(s)))
                .ok_or_else(|| serde::DeError::msg("Expr::Sym: expected a string name")),
            "Add" => Vec::from_value(payload).map(Expr::Add),
            "Mul" => Vec::from_value(payload).map(Expr::Mul),
            "Max" => Vec::from_value(payload).map(Expr::Max),
            "Min" => Vec::from_value(payload).map(Expr::Min),
            "Pow" => {
                let items = payload
                    .as_array()
                    .filter(|a| a.len() == 2)
                    .ok_or_else(|| serde::DeError::msg("Expr::Pow: expected [base, exponent]"))?;
                Ok(Expr::Pow(
                    Box::new(Expr::from_value(&items[0])?),
                    Rational::from_value(&items[1])?,
                ))
            }
            other => Err(serde::DeError::msg(format!(
                "Expr: unknown variant '{other}'"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n() -> Expr {
        Expr::sym("N")
    }
    fn s() -> Expr {
        Expr::sym("S")
    }

    #[test]
    fn constant_folding() {
        assert_eq!(Expr::int(2).add(Expr::int(3)), Expr::int(5));
        assert_eq!(Expr::int(2).mul(Expr::int(3)), Expr::int(6));
        assert_eq!(Expr::int(2).pow(Rational::int(10)), Expr::int(1024));
        assert!(Expr::int(5).sub(Expr::int(5)).is_zero());
    }

    #[test]
    fn like_terms_collect() {
        let e = n().add(n()).add(n());
        assert_eq!(e, Expr::int(3).mul(n()));
        let e2 = n().mul(Expr::int(2)).sub(n().mul(Expr::int(2)));
        assert!(e2.is_zero());
    }

    #[test]
    fn powers_combine() {
        let e = n().mul(n());
        assert_eq!(e, n().pow(Rational::int(2)));
        let e2 = n()
            .pow(Rational::new(1, 2))
            .mul(n().pow(Rational::new(1, 2)));
        assert_eq!(e2, n());
        let e3 = n().div(n());
        assert!(e3.is_one());
    }

    #[test]
    fn display_is_readable() {
        // 2*N^3 / sqrt(S)
        let bound = Expr::int(2).mul(n().pow(Rational::int(3))).div(s().sqrt());
        assert_eq!(format!("{}", bound), "2*N^3/sqrt(S)");
        let diff = n().sub(Expr::one());
        assert_eq!(format!("{}", diff), "N - 1");
    }

    #[test]
    fn eval_matches_structure() {
        let mut b = BTreeMap::new();
        b.insert("N".to_string(), 10.0);
        b.insert("S".to_string(), 4.0);
        let bound = Expr::int(2).mul(n().pow(Rational::int(3))).div(s().sqrt());
        assert!((bound.eval(&b).unwrap() - 1000.0).abs() < 1e-9);
        assert_eq!(Expr::sym("unbound").eval(&b), None);
    }

    #[test]
    fn eval_single_matches_map_eval() {
        let rho = Expr::num(Rational::new(1, 2)).mul(s().sqrt());
        let mut b = BTreeMap::new();
        b.insert("S".to_string(), 10000.0);
        assert_eq!(rho.eval_single("S", 10000.0), rho.eval(&b));
        assert_eq!(rho.eval_single("S", 10000.0), Some(50.0));
        // Unbound symbols still fail.
        assert_eq!(n().mul(s()).eval_single("S", 4.0), None);
        // Max/Min evaluate.
        assert_eq!(s().max(Expr::int(7)).eval_single("S", 3.0), Some(7.0));
    }

    #[test]
    fn differentiation_of_products_and_powers() {
        // d/dN (N^2 * S) = 2 N S
        let e = n().pow(Rational::int(2)).mul(s());
        let d = e.diff("N");
        assert_eq!(d, Expr::int(2).mul(n()).mul(s()));
        // d/dN sqrt(N) = 1/2 * N^(-1/2)
        let d2 = n().sqrt().diff("N");
        let expected = Expr::num(Rational::new(1, 2)).mul(n().pow(Rational::new(-1, 2)));
        assert_eq!(d2, expected);
    }

    #[test]
    fn substitution() {
        let e = n().pow(Rational::int(2)).add(s());
        let sub = e.subs("N", &Expr::int(3));
        assert_eq!(sub, Expr::int(9).add(s()));
    }

    #[test]
    fn leading_term_extraction() {
        // N^2 + 3N + S  with size symbol N -> N^2
        let e = n()
            .pow(Rational::int(2))
            .add(Expr::int(3).mul(n()))
            .add(s());
        let lead = e.leading_term(&["N".to_string()]);
        assert_eq!(lead, n().pow(Rational::int(2)));
    }

    #[test]
    fn expansion_cancels_exactly() {
        // N*M - (N-2)*(M-1)  =  N + 2*M - 2
        let g = n()
            .mul(Expr::sym("M"))
            .sub(n().sub(Expr::int(2)).mul(Expr::sym("M").sub(Expr::one())));
        let expanded = g.expand();
        let expected = n().add(Expr::int(2).mul(Expr::sym("M"))).sub(Expr::int(2));
        assert_eq!(expanded, expected);
        // (N+1)^3 expands to N^3 + 3N^2 + 3N + 1.
        let cube = n().add(Expr::one()).pow(Rational::int(3)).expand();
        let mut b = BTreeMap::new();
        b.insert("N".to_string(), 5.0);
        assert_eq!(cube.eval(&b).unwrap(), 216.0);
        assert!(matches!(cube, Expr::Add(ref v) if v.len() == 4));
    }

    #[test]
    fn expansion_keeps_max_atomic() {
        let e = n().max(s()).mul(n().add(Expr::one())).expand();
        // max(N,S)*N + max(N,S): two terms, Max preserved as a factor.
        let mut b = BTreeMap::new();
        b.insert("N".to_string(), 3.0);
        b.insert("S".to_string(), 10.0);
        assert_eq!(e.eval(&b).unwrap(), 40.0);
    }

    #[test]
    fn max_min_fold_constants_and_dedup() {
        assert_eq!(Expr::int(3).max(Expr::int(5)), Expr::int(5));
        assert_eq!(n().max(n()), n());
        let m = n().max(s());
        assert!(matches!(m, Expr::Max(ref v) if v.len() == 2));
        assert_eq!(Expr::int(3).min(Expr::int(5)), Expr::int(3));
    }

    #[test]
    fn symbols_are_collected() {
        let e = n().mul(s()).add(Expr::sym("M"));
        assert_eq!(
            e.symbols(),
            vec!["M".to_string(), "N".to_string(), "S".to_string()]
        );
    }
}
