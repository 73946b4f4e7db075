//! Sparse multivariate polynomials over [`Rational`].
//!
//! Polynomials are the workhorse for **exact iteration-domain counting**:
//! the cardinality `|D|` of a (possibly triangular/trapezoidal) loop nest is
//! obtained by repeatedly summing the trip-count polynomial of the innermost
//! loop over its affine bounds (Faulhaber summation), exactly as one would do
//! by hand for Cholesky (`≈ N³/6`), LU (`≈ N³/3`), or Floyd–Warshall (`N³`).

use crate::expr::Expr;
use crate::rational::Rational;
use std::collections::BTreeMap;
use std::fmt;

/// A monomial: a map from symbol name to (positive) integer exponent.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Monomial(pub BTreeMap<String, u32>);

impl Monomial {
    /// The empty monomial (the constant 1).
    pub fn unit() -> Self {
        Monomial(BTreeMap::new())
    }

    /// A single variable to the first power.
    pub fn var(name: &str) -> Self {
        let mut m = BTreeMap::new();
        m.insert(name.to_string(), 1);
        Monomial(m)
    }

    /// Product of two monomials.
    pub fn mul(&self, other: &Monomial) -> Monomial {
        let mut out = self.0.clone();
        for (k, v) in &other.0 {
            *out.entry(k.clone()).or_insert(0) += v;
        }
        Monomial(out)
    }

    /// Total degree.
    pub fn degree(&self) -> u32 {
        self.0.values().sum()
    }

    /// Degree in a single variable.
    pub fn degree_of(&self, var: &str) -> u32 {
        self.0.get(var).copied().unwrap_or(0)
    }

    /// Remove a variable, returning the removed exponent.
    fn without(&self, var: &str) -> (Monomial, u32) {
        let mut m = self.0.clone();
        let d = m.remove(var).unwrap_or(0);
        (Monomial(m), d)
    }
}

impl fmt::Debug for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "1");
        }
        let parts: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| {
                if *v == 1 {
                    k.clone()
                } else {
                    format!("{}^{}", k, v)
                }
            })
            .collect();
        write!(f, "{}", parts.join("*"))
    }
}

/// A sparse multivariate polynomial with rational coefficients.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Polynomial {
    /// Mapping monomial → coefficient; zero coefficients are never stored.
    terms: BTreeMap<Monomial, Rational>,
}

impl Polynomial {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Polynomial {
            terms: BTreeMap::new(),
        }
    }

    /// The constant-one polynomial.
    pub fn one() -> Self {
        Polynomial::constant(Rational::ONE)
    }

    /// A constant polynomial.
    pub fn constant(r: Rational) -> Self {
        let mut terms = BTreeMap::new();
        if !r.is_zero() {
            terms.insert(Monomial::unit(), r);
        }
        Polynomial { terms }
    }

    /// An integer constant polynomial.
    pub fn int(n: i64) -> Self {
        Polynomial::constant(Rational::int(n as i128))
    }

    /// The polynomial consisting of a single variable.
    pub fn var(name: &str) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(Monomial::var(name), Rational::ONE);
        Polynomial { terms }
    }

    /// The sum of `(monomial, coefficient)` terms: like monomials add up and
    /// zero coefficients are dropped, exactly as a chain of [`add`](Self::add)s
    /// of the single terms would leave them.
    pub fn from_terms(terms: impl IntoIterator<Item = (Monomial, Rational)>) -> Self {
        let mut out = Polynomial::zero();
        for (m, c) in terms {
            out.insert(m, c);
        }
        out.normalize()
    }

    /// Whether this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// The constant value if the polynomial has no variables.
    pub fn as_constant(&self) -> Option<Rational> {
        if self.terms.is_empty() {
            return Some(Rational::ZERO);
        }
        if self.terms.len() == 1 {
            if let Some(c) = self.terms.get(&Monomial::unit()) {
                return Some(*c);
            }
        }
        None
    }

    /// Iterate over `(monomial, coefficient)` pairs.
    pub fn terms(&self) -> impl Iterator<Item = (&Monomial, &Rational)> {
        self.terms.iter()
    }

    /// Number of terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    fn insert(&mut self, m: Monomial, c: Rational) {
        if c.is_zero() {
            return;
        }
        let entry = self.terms.entry(m).or_insert(Rational::ZERO);
        *entry += c;
        if entry.is_zero() {
            // Re-fetch key to remove; easier: rebuild below. Use retain at end of ops instead.
        }
    }

    fn normalize(mut self) -> Self {
        self.terms.retain(|_, c| !c.is_zero());
        self
    }

    /// Polynomial addition.
    pub fn add(&self, other: &Polynomial) -> Polynomial {
        let mut out = self.clone();
        for (m, c) in &other.terms {
            out.insert(m.clone(), *c);
        }
        out.normalize()
    }

    /// Polynomial subtraction.
    pub fn sub(&self, other: &Polynomial) -> Polynomial {
        self.add(&other.scale(Rational::int(-1)))
    }

    /// Multiply by a rational constant.
    pub fn scale(&self, r: Rational) -> Polynomial {
        if r.is_zero() {
            return Polynomial::zero();
        }
        Polynomial {
            terms: self
                .terms
                .iter()
                .map(|(m, c)| (m.clone(), *c * r))
                .collect(),
        }
    }

    /// Polynomial multiplication.
    pub fn mul(&self, other: &Polynomial) -> Polynomial {
        let mut out = Polynomial::zero();
        for (m1, c1) in &self.terms {
            for (m2, c2) in &other.terms {
                out.insert(m1.mul(m2), *c1 * *c2);
            }
        }
        out.normalize()
    }

    /// Raise to a non-negative integer power.
    pub fn pow(&self, e: u32) -> Polynomial {
        let mut out = Polynomial::one();
        for _ in 0..e {
            out = out.mul(self);
        }
        out
    }

    /// Total degree (maximum over terms).
    pub fn total_degree(&self) -> u32 {
        self.terms.keys().map(|m| m.degree()).max().unwrap_or(0)
    }

    /// Free variables of the polynomial.
    pub fn variables(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .terms
            .keys()
            .flat_map(|m| m.0.keys().cloned())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Substitute a variable with another polynomial.
    pub fn substitute(&self, var: &str, value: &Polynomial) -> Polynomial {
        let mut out = Polynomial::zero();
        for (m, c) in &self.terms {
            let (rest, d) = m.without(var);
            let mut term = Polynomial {
                terms: BTreeMap::from([(rest, *c)]),
            };
            term = term.mul(&value.pow(d));
            out = out.add(&term);
        }
        out
    }

    /// Evaluate under floating-point bindings; unbound variables yield `None`.
    pub fn eval(&self, bindings: &BTreeMap<String, f64>) -> Option<f64> {
        let mut acc = 0.0;
        for (m, c) in &self.terms {
            let mut t = c.to_f64();
            for (v, e) in &m.0 {
                let x = *bindings.get(v)?;
                t *= x.powi(*e as i32);
            }
            acc += t;
        }
        Some(acc)
    }

    /// Convert the polynomial into an [`Expr`].
    pub fn to_expr(&self) -> Expr {
        Expr::sum(self.terms.iter().map(|(m, c)| {
            let mut factors = vec![Expr::num(*c)];
            for (v, e) in &m.0 {
                factors.push(Expr::sym(v.clone()).pow(Rational::int(*e as i128)));
            }
            Expr::product(factors)
        }))
    }

    /// Keep only the terms of maximal total degree in the given variables
    /// (others are treated as degree 0).  This is the asymptotic leading term
    /// when all listed symbols tend to infinity at the same rate.
    pub fn leading_terms(&self, size_vars: &[String]) -> Polynomial {
        let deg = |m: &Monomial| -> u32 {
            m.0.iter()
                .filter(|(v, _)| size_vars.iter().any(|s| s == *v))
                .map(|(_, e)| *e)
                .sum()
        };
        let max_deg = self.terms.keys().map(deg).max().unwrap_or(0);
        Polynomial {
            terms: self
                .terms
                .iter()
                .filter(|(m, _)| deg(m) == max_deg)
                .map(|(m, c)| (m.clone(), *c))
                .collect(),
        }
    }

    /// Decompose as a univariate polynomial in `var`: returns coefficients
    /// `q_k` (polynomials in the remaining variables) such that
    /// `self = Σ_k q_k · var^k`.
    pub fn coefficients_in(&self, var: &str) -> Vec<Polynomial> {
        let max_deg = self
            .terms
            .keys()
            .map(|m| m.degree_of(var))
            .max()
            .unwrap_or(0) as usize;
        let mut out = vec![Polynomial::zero(); max_deg + 1];
        for (m, c) in &self.terms {
            let (rest, d) = m.without(var);
            out[d as usize].insert(rest, *c);
        }
        out.into_iter().map(|p| p.normalize()).collect()
    }

    /// Exact symbolic sum `Σ_{var = lo}^{hi} self` (inclusive bounds).
    ///
    /// `lo` and `hi` must not contain `var`.  Uses Faulhaber's formula, which
    /// holds as a polynomial identity for all integer bounds, so triangular
    /// domains (e.g. `for j in k+1..N`) are counted exactly.
    pub fn sum_over(&self, var: &str, lo: &Polynomial, hi: &Polynomial) -> Polynomial {
        assert!(
            !lo.variables().iter().any(|v| v == var) && !hi.variables().iter().any(|v| v == var),
            "summation bounds must not reference the summation variable"
        );
        let coeffs = self.coefficients_in(var);
        let lo_minus_1 = lo.sub(&Polynomial::one());
        let mut out = Polynomial::zero();
        for (k, q) in coeffs.iter().enumerate() {
            if q.is_zero() {
                continue;
            }
            // F_k(n) = Σ_{i=1}^{n} i^k  as a univariate polynomial in the
            // placeholder variable `__n`.
            let f = faulhaber(k as u32);
            let upper = f.substitute("__n", hi);
            let lower = f.substitute("__n", &lo_minus_1);
            out = out.add(&q.mul(&upper.sub(&lower)));
        }
        out
    }
}

/// Bernoulli numbers with the `B⁺` convention (`B₁ = +1/2`), as used in
/// Faulhaber's formula for `Σ_{i=1}^{n} i^k`.
fn bernoulli_plus(upto: usize) -> Vec<Rational> {
    // Compute B⁻ via the standard recurrence, then flip the sign of B₁.
    let mut b = vec![Rational::ZERO; upto + 1];
    b[0] = Rational::ONE;
    for m in 1..=upto {
        // B_m = -1/(m+1) * Σ_{j=0}^{m-1} C(m+1, j) B_j
        let mut acc = Rational::ZERO;
        for (j, bj) in b.iter().enumerate().take(m) {
            acc += Rational::int(binom(m as i128 + 1, j as i128)) * *bj;
        }
        b[m] = -acc / Rational::int(m as i128 + 1);
    }
    if upto >= 1 {
        b[1] = Rational::new(1, 2);
    }
    b
}

fn binom(n: i128, k: i128) -> i128 {
    if k < 0 || k > n {
        return 0;
    }
    let mut out = 1i128;
    for i in 0..k {
        out = out * (n - i) / (i + 1);
    }
    out
}

/// Faulhaber polynomial `F_k(__n) = Σ_{i=1}^{__n} i^k`.
fn faulhaber(k: u32) -> Polynomial {
    let b = bernoulli_plus(k as usize);
    let n = Polynomial::var("__n");
    let mut out = Polynomial::zero();
    for (j, bj) in b.iter().enumerate().take(k as usize + 1) {
        if bj.is_zero() {
            continue;
        }
        let coeff =
            *bj * Rational::int(binom(k as i128 + 1, j as i128)) / Rational::int(k as i128 + 1);
        out = out.add(&n.pow(k + 1 - j as u32).scale(coeff));
    }
    out
}

impl fmt::Debug for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_expr())
    }
}

impl fmt::Display for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_expr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n() -> Polynomial {
        Polynomial::var("N")
    }

    #[test]
    fn basic_arithmetic() {
        let p = n().mul(&n()).add(&Polynomial::int(3).mul(&n()));
        assert_eq!(p.total_degree(), 2);
        let q = p.sub(&p);
        assert!(q.is_zero());
    }

    #[test]
    fn substitution_composes() {
        // (x+1)^2 with x := N-1  =>  N^2
        let x = Polynomial::var("x");
        let p = x.add(&Polynomial::one()).pow(2);
        let sub = p.substitute("x", &n().sub(&Polynomial::one()));
        assert_eq!(sub, n().pow(2));
    }

    #[test]
    fn faulhaber_small_cases() {
        // F_1(n) = n(n+1)/2
        let f1 = faulhaber(1);
        let mut b = BTreeMap::new();
        b.insert("__n".to_string(), 10.0);
        assert_eq!(f1.eval(&b).unwrap(), 55.0);
        // F_2(10) = 385
        let f2 = faulhaber(2);
        assert_eq!(f2.eval(&b).unwrap(), 385.0);
        // F_3(10) = 3025
        let f3 = faulhaber(3);
        assert_eq!(f3.eval(&b).unwrap(), 3025.0);
    }

    #[test]
    fn sum_over_rectangle() {
        // Σ_{i=0}^{N-1} 1 = N
        let count =
            Polynomial::one().sum_over("i", &Polynomial::zero(), &n().sub(&Polynomial::one()));
        assert_eq!(count, n());
    }

    #[test]
    fn sum_over_triangle_matches_closed_form() {
        // Σ_{k=0}^{N-1} Σ_{i=k+1}^{N-1} Σ_{j=k+1}^{N-1} 1
        //   = Σ_k (N-1-k)^2 = (N-1)N(2N-1)/6
        let k = Polynomial::var("k");
        let inner = Polynomial::one()
            .sum_over(
                "j",
                &k.add(&Polynomial::one()),
                &n().sub(&Polynomial::one()),
            )
            .sum_over(
                "i",
                &k.add(&Polynomial::one()),
                &n().sub(&Polynomial::one()),
            )
            .sum_over("k", &Polynomial::zero(), &n().sub(&Polynomial::one()));
        let mut b = BTreeMap::new();
        b.insert("N".to_string(), 20.0);
        // direct brute force
        let mut brute = 0.0;
        for kk in 0..20 {
            for _i in kk + 1..20 {
                for _j in kk + 1..20 {
                    brute += 1.0;
                }
            }
        }
        assert_eq!(inner.eval(&b).unwrap(), brute);
        // leading term is N^3/3
        let lead = inner.leading_terms(&["N".to_string()]);
        assert_eq!(lead, n().pow(3).scale(Rational::new(1, 3)));
    }

    #[test]
    fn coefficients_in_variable() {
        // p = 2*i^2*N + 3*i + 5
        let i = Polynomial::var("i");
        let p = i
            .pow(2)
            .mul(&n())
            .scale(Rational::int(2))
            .add(&i.scale(Rational::int(3)))
            .add(&Polynomial::int(5));
        let coeffs = p.coefficients_in("i");
        assert_eq!(coeffs.len(), 3);
        assert_eq!(coeffs[0], Polynomial::int(5));
        assert_eq!(coeffs[1], Polynomial::int(3));
        assert_eq!(coeffs[2], n().scale(Rational::int(2)));
    }

    #[test]
    fn leading_terms_respect_size_vars_only() {
        // N^2 + N*S + 7  with size var N: N^2 has degree 2, N*S degree 1.
        let p = n()
            .pow(2)
            .add(&n().mul(&Polynomial::var("S")))
            .add(&Polynomial::int(7));
        let lead = p.leading_terms(&["N".to_string()]);
        assert_eq!(lead, n().pow(2));
    }

    #[test]
    fn to_expr_round_trips_numerically() {
        let p = n().pow(3).scale(Rational::new(2, 3)).add(&n());
        let e = p.to_expr();
        let mut b = BTreeMap::new();
        b.insert("N".to_string(), 6.0);
        assert_eq!(p.eval(&b), e.eval(&b));
    }
}
