//! Recognition of numeric constants as low-degree algebraic closed forms.
//!
//! The constants appearing in the paper's Table 2 are all of the form
//! `(p/q) · r^{1/k}` for small rationals and small roots (e.g. `2√3`,
//! `6√6`, `32/(3·∛3)`, `√2·300`).  After the numeric KKT solve and power-law
//! fit we therefore try to express the fitted constant in that shape so the
//! reported bounds print exactly like the paper's; if no clean form is found
//! within tolerance, the numeric value is kept.

use crate::expr::Expr;
use crate::rational::Rational;

/// A recognized closed form `rational · radicand^{1/root}` or a raw float.
#[derive(Clone, Debug, PartialEq)]
pub enum ClosedForm {
    /// An exact value `coefficient * radicand^(1/root)`.
    Exact {
        /// The rational multiplier.
        coefficient: Rational,
        /// The radicand (a rational; equals 1 when the value is rational).
        radicand: Rational,
        /// The root index k (1 for plain rationals, 2 for square roots, …).
        root: u32,
    },
    /// No clean algebraic form was found; the numeric value is kept.
    Numeric(f64),
}

/// Largest numerator a recognized `value^k` rational may have: the values the
/// analysis produces have small powered numerators (e.g. `(32/(3·∛3))³ =
/// 32768/81`); anything larger is a spurious continued-fraction match.
const MAX_POWERED_NUMERATOR: i128 = 1_000_000_000;

impl ClosedForm {
    /// Attempt to recognize `value` as `(p/q)·r^{1/k}` for k ∈ {1,2,3,4,6}.
    ///
    /// The search prefers the smallest root index and the smallest
    /// denominator; relative tolerance is 1e-4 (the numeric optimizer is
    /// accurate to ~1e-6).
    pub fn recognize(value: f64) -> ClosedForm {
        if !value.is_finite() {
            return ClosedForm::Numeric(value);
        }
        if value == 0.0 {
            return ClosedForm::Exact {
                coefficient: Rational::ZERO,
                radicand: Rational::ONE,
                root: 1,
            };
        }
        // Values we care about have small numerators/denominators once raised
        // to the k-th power (e.g. (2√3)² = 12, (32/(3·∛3))³ = 32768/81).  A
        // continued-fraction match exists for *any* float if the denominator
        // is allowed to grow, so candidates are restricted to a small set of
        // denominators and ranked by (tier, error, denominator, root), where
        // tier 0 means an essentially exact match.
        const DENOMS: [i128; 22] = [
            1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 18, 24, 25, 27, 32, 36, 48, 54, 64, 81, 96, 128,
        ];
        // (tier, error, denominator, root, rational)
        let mut best: Option<(u8, f64, i128, u32, Rational)> = None;
        let consider = |cand: (u8, f64, i128, u32, Rational),
                        best: &mut Option<(u8, f64, i128, u32, Rational)>| {
            let better = match best {
                None => true,
                Some(b) => (cand.0, cand.1, cand.2, cand.3) < (b.0, b.1, b.2, b.3),
            };
            if better {
                *best = Some(cand);
            }
        };
        for root in [1u32, 2, 3, 4, 6] {
            let powered = value.abs().powi(root as i32);
            let scale = powered.abs().max(1.0);
            // Tier 0: the input is exact up to float noise.  The denominator
            // bound must stay small: at the larger root indices a continued
            // fraction with a few-thousand denominator lands within
            // `1e-9·scale` of essentially *any* float (the spurious-match
            // probability scales with denom²·tol), which would beat the
            // legitimate tier-1 match at root 1 on tier alone.
            if let Some(r) = Rational::approximate(powered, 128, 1e-9 * scale) {
                // Same sanity cap as tier 1: a "closed form" whose k-th
                // power needs a ten-digit numerator is numerology, and
                // extracting k-th powers from it costs a √n trial-division
                // scan besides.
                if r.is_positive() && r.numer() <= MAX_POWERED_NUMERATOR {
                    consider((0, 0.0, r.denom(), root, r), &mut best);
                    continue;
                }
            }
            // Tier 1: the input carries numeric-optimizer noise; only simple
            // denominators are considered and the k-th power amplifies the
            // relative error of `value` by k.
            let tol = 3e-5 * root as f64 * scale;
            for &q in &DENOMS {
                let p = (powered * q as f64).round();
                if !(1.0..=MAX_POWERED_NUMERATOR as f64).contains(&p) {
                    continue;
                }
                // `p / q` is the correctly rounded quotient that
                // `Rational::new(p, q).to_f64()` returns (both fit exactly in
                // an f64 before and after reduction), so the `Rational` and
                // its gcd are only built for a candidate within tolerance.
                let err = (powered - p / q as f64).abs();
                if err <= tol {
                    consider(
                        (1, err / scale, q, root, Rational::new(p as i128, q)),
                        &mut best,
                    );
                }
            }
        }
        if let Some((_, _, _, root, r)) = best {
            let (coeff, radicand) = extract_kth_power(r, root);
            let coefficient = if value < 0.0 { -coeff } else { coeff };
            return ClosedForm::Exact {
                coefficient,
                radicand,
                root,
            };
        }
        ClosedForm::Numeric(value)
    }

    /// Convert the closed form back into an [`Expr`].
    pub fn to_expr(&self) -> Expr {
        match self {
            ClosedForm::Exact {
                coefficient,
                radicand,
                root,
            } => {
                let base = Expr::num(*coefficient);
                if radicand.is_one() || coefficient.is_zero() {
                    base
                } else {
                    base.mul(Expr::num(*radicand).pow(Rational::new(1, *root as i128)))
                }
            }
            ClosedForm::Numeric(v) => {
                // Fall back to a high-precision rational so Expr stays exact-ish.
                match Rational::approximate(*v, 1_000_000, 1e-9) {
                    Some(r) => Expr::num(r),
                    None => Expr::num(
                        Rational::approximate(*v, 1_000_000, 1e-3).unwrap_or(Rational::ZERO),
                    ),
                }
            }
        }
    }

    /// Numeric value of the closed form.
    pub fn value(&self) -> f64 {
        match self {
            ClosedForm::Exact {
                coefficient,
                radicand,
                root,
            } => coefficient.to_f64() * radicand.to_f64().powf(1.0 / *root as f64),
            ClosedForm::Numeric(v) => *v,
        }
    }

    /// True if an exact algebraic form was recognized.
    pub fn is_exact(&self) -> bool {
        matches!(self, ClosedForm::Exact { .. })
    }
}

/// Split `r = c^k · rest` so that `r^{1/k} = c · rest^{1/k}` with `rest`
/// free of k-th powers — this is what turns `√12` into `2√3`.
fn extract_kth_power(r: Rational, k: u32) -> (Rational, Rational) {
    if k == 1 {
        return (r, Rational::ONE);
    }
    let split = |n: i128| {
        // lint:allow(unwrap-expect): both `recognize` tiers cap the numerator at `MAX_POWERED_NUMERATOR` and the denominator at 128, so each side of a positive `r` fits a `u64`
        let n = u64::try_from(n).expect("bounded by MAX_POWERED_NUMERATOR");
        let (c, rest) = extract_int(n, k);
        (i128::from(c), i128::from(rest))
    };
    let (cn, rn) = split(r.numer());
    let (cd, rd) = split(r.denom());
    (Rational::new(cn, cd), Rational::new(rn, rd))
}

/// Split a positive integer `n = c^k · rest` with `rest` k-th-power-free
/// (k ≥ 2).  Trial division stops once `p^k` exceeds what is left (a larger
/// k-th power cannot divide it), and only 2 and odd `p` are tried.  Odd
/// composites are tried too but never divide: their prime factors were
/// divided out first.
fn extract_int(n: u64, k: u32) -> (u64, u64) {
    let mut c = 1u64;
    let mut rest = n;
    let mut p = 2u64;
    while let Some(pk) = p.checked_pow(k).filter(|&pk| pk <= rest) {
        while rest.is_multiple_of(pk) {
            rest /= pk;
            c *= p;
        }
        p += if p == 2 { 1 } else { 2 };
    }
    (c, rest)
}

/// The recognizer as it stood before the bit-exact speedups (a `Rational`
/// per tier-1 candidate, trial division to `√n` for every root index), kept
/// verbatim as the differential oracle for [`ClosedForm::recognize`] and
/// [`extract_int`].
#[cfg(test)]
mod oracle {
    use super::{ClosedForm, MAX_POWERED_NUMERATOR};
    use crate::rational::Rational;

    /// The former `ClosedForm::recognize`, verbatim.
    pub fn recognize(value: f64) -> ClosedForm {
        if !value.is_finite() {
            return ClosedForm::Numeric(value);
        }
        if value == 0.0 {
            return ClosedForm::Exact {
                coefficient: Rational::ZERO,
                radicand: Rational::ONE,
                root: 1,
            };
        }
        // Values we care about have small numerators/denominators once raised
        // to the k-th power (e.g. (2√3)² = 12, (32/(3·∛3))³ = 32768/81).  A
        // continued-fraction match exists for *any* float if the denominator
        // is allowed to grow, so candidates are restricted to a small set of
        // denominators and ranked by (tier, error, denominator, root), where
        // tier 0 means an essentially exact match.
        const DENOMS: [i128; 22] = [
            1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 18, 24, 25, 27, 32, 36, 48, 54, 64, 81, 96, 128,
        ];
        // (tier, error, denominator, root, rational)
        let mut best: Option<(u8, f64, i128, u32, Rational)> = None;
        let consider = |cand: (u8, f64, i128, u32, Rational),
                        best: &mut Option<(u8, f64, i128, u32, Rational)>| {
            let better = match best {
                None => true,
                Some(b) => (cand.0, cand.1, cand.2, cand.3) < (b.0, b.1, b.2, b.3),
            };
            if better {
                *best = Some(cand);
            }
        };
        for root in [1u32, 2, 3, 4, 6] {
            let powered = value.abs().powi(root as i32);
            let scale = powered.abs().max(1.0);
            // Tier 0: the input is exact up to float noise.  The denominator
            // bound must stay small: at the larger root indices a continued
            // fraction with a few-thousand denominator lands within
            // `1e-9·scale` of essentially *any* float (the spurious-match
            // probability scales with denom²·tol), which would beat the
            // legitimate tier-1 match at root 1 on tier alone.
            if let Some(r) = Rational::approximate(powered, 128, 1e-9 * scale) {
                // Same sanity cap as tier 1: a "closed form" whose k-th
                // power needs a ten-digit numerator is numerology, and
                // extracting k-th powers from it costs a √n trial-division
                // scan besides.
                if r.is_positive() && r.numer() <= MAX_POWERED_NUMERATOR {
                    consider((0, 0.0, r.denom(), root, r), &mut best);
                    continue;
                }
            }
            // Tier 1: the input carries numeric-optimizer noise; only simple
            // denominators are considered and the k-th power amplifies the
            // relative error of `value` by k.
            let tol = 3e-5 * root as f64 * scale;
            for &q in &DENOMS {
                let p = (powered * q as f64).round();
                if !(1.0..=MAX_POWERED_NUMERATOR as f64).contains(&p) {
                    continue;
                }
                let r = Rational::new(p as i128, q);
                let err = (powered - r.to_f64()).abs();
                if err <= tol {
                    consider((1, err / scale, q, root, r), &mut best);
                }
            }
        }
        if let Some((_, _, _, root, r)) = best {
            let (coeff, radicand) = extract_kth_power(r, root);
            let coefficient = if value < 0.0 { -coeff } else { coeff };
            return ClosedForm::Exact {
                coefficient,
                radicand,
                root,
            };
        }
        ClosedForm::Numeric(value)
    }

    /// Split `r = c^k · rest` so that `r^{1/k} = c · rest^{1/k}` with `rest`
    /// free of k-th powers — this is what turns `√12` into `2√3`.
    fn extract_kth_power(r: Rational, k: u32) -> (Rational, Rational) {
        if k == 1 {
            return (r, Rational::ONE);
        }
        let (cn, rn) = extract_int(r.numer(), k);
        let (cd, rd) = extract_int(r.denom(), k);
        (Rational::new(cn, cd), Rational::new(rn, rd))
    }

    /// Split a positive integer `n = c^k · rest` with `rest` k-th-power-free.
    pub fn extract_int(n: i128, k: u32) -> (i128, i128) {
        let mut c = 1i128;
        let mut rest = n;
        let mut p = 2i128;
        while p.checked_mul(p).map(|pp| pp <= rest).unwrap_or(false) {
            let pk = p.checked_pow(k);
            match pk {
                Some(pk) if pk > 0 => {
                    while rest % pk == 0 {
                        rest /= pk;
                        c *= p;
                    }
                }
                _ => break,
            }
            p += 1;
        }
        (c, rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_exact(value: f64, coeff: Rational, radicand: Rational, root: u32) {
        match ClosedForm::recognize(value) {
            ClosedForm::Exact {
                coefficient,
                radicand: r,
                root: k,
            } => {
                assert_eq!(coefficient, coeff, "coefficient for {value}");
                assert_eq!(r, radicand, "radicand for {value}");
                assert_eq!(k, root, "root for {value}");
            }
            ClosedForm::Numeric(v) => panic!("expected exact form for {value}, got numeric {v}"),
        }
    }

    #[test]
    fn recognizes_rationals() {
        assert_exact(0.5, Rational::new(1, 2), Rational::ONE, 1);
        assert_exact(12.0, Rational::int(12), Rational::ONE, 1);
        assert_exact(-0.75, Rational::new(-3, 4), Rational::ONE, 1);
    }

    #[test]
    fn recognizes_square_roots() {
        // 1/2 * sqrt(S) constants: 0.5 handled above; 2*sqrt(3):
        assert_exact(2.0 * 3.0_f64.sqrt(), Rational::int(2), Rational::int(3), 2);
        // 6*sqrt(6) (fdtd-2d improvement factor)
        assert_exact(6.0 * 6.0_f64.sqrt(), Rational::int(6), Rational::int(6), 2);
        // sqrt(2)*300 (LeNet-5 constant)
        assert_exact(
            300.0 * 2.0_f64.sqrt(),
            Rational::int(300),
            Rational::int(2),
            2,
        );
        // 1/4 * sqrt(1) is rational and must not be misread as a root.
        assert_exact(0.25, Rational::new(1, 4), Rational::ONE, 1);
    }

    #[test]
    fn recognizes_cube_roots() {
        // 32/(3*3^(1/3)) = (32/9)*3^(2/3)... easier: its cube is 32768/81.
        let v = 32.0 / (3.0 * 3.0_f64.powf(1.0 / 3.0));
        let cf = ClosedForm::recognize(v);
        assert!(cf.is_exact(), "expected exact for {v}: {cf:?}");
        assert!((cf.value() - v).abs() < 1e-6);
    }

    #[test]
    fn falls_back_to_numeric() {
        let cf = ClosedForm::recognize(std::f64::consts::PI);
        // π is not representable with our small radicands; either numeric or a
        // very close rational is acceptable but the value must be preserved.
        assert!((cf.value() - std::f64::consts::PI).abs() < 1e-3);
    }

    #[test]
    fn to_expr_round_trips() {
        let cf = ClosedForm::recognize(2.0 * 3.0_f64.sqrt());
        let e = cf.to_expr();
        let v = e.eval(&Default::default()).unwrap();
        assert!((v - 2.0 * 3.0_f64.sqrt()).abs() < 1e-9);
    }

    /// xorshift64*: the seeded stream of the differential sweep.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn assert_matches_oracle(value: f64) {
        let (fast, slow) = (ClosedForm::recognize(value), oracle::recognize(value));
        assert_eq!(fast, slow, "recognize({value:e})");
        assert_eq!(
            fast.value().to_bits(),
            slow.value().to_bits(),
            "value of recognize({value:e})"
        );
    }

    #[test]
    fn recognize_matches_oracle_on_seeded_sweep() {
        const ROOTS: [u32; 5] = [1, 2, 3, 4, 6];
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        // Random floats of either sign over twelve decades.
        for _ in 0..2_000 {
            let v = 10f64.powf(12.0 * rng.unit() - 6.0);
            assert_matches_oracle(if rng.below(2) == 0 { v } else { -v });
        }
        // k-th roots of small rationals, exact and with 1e-5 relative noise
        // (the optimizer's noise is ~1e-6, the tier-1 tolerance 3e-5·k).
        for _ in 0..2_000 {
            let p = 1 + rng.below(5_000);
            let q = 1 + rng.below(128);
            let k = ROOTS[rng.below(5) as usize];
            let v = (p as f64 / q as f64).powf(1.0 / f64::from(k));
            assert_matches_oracle(v);
            assert_matches_oracle(v * (1.0 + 1e-5 * (2.0 * rng.unit() - 1.0)));
        }
        // Perfect powers: c·r^{1/k} whose k-th power c^k·r carries a large
        // k-th-power factor for `extract_int` to pull out.
        for k in [2u32, 3, 4, 6] {
            for c in 1..=60u32 {
                for r in [1u32, 2, 3, 5, 6, 7, 10] {
                    let v = f64::from(c) * f64::from(r).powf(1.0 / f64::from(k));
                    assert_matches_oracle(v);
                    assert_matches_oracle(v / 3.0);
                }
            }
        }
    }

    #[test]
    fn extract_int_matches_oracle() {
        for k in [2u32, 3, 4, 6] {
            let edge = [1u64, 999_999_937, 387_420_489, 1 << 29, 1_000_000_000];
            for n in edge.into_iter().chain(1..=5_000) {
                let (c, rest) = extract_int(n, k);
                assert_eq!(
                    (i128::from(c), i128::from(rest)),
                    oracle::extract_int(i128::from(n), k),
                    "extract_int({n}, {k})"
                );
                assert_eq!(c.pow(k) * rest, n, "extract_int({n}, {k}) must factor n");
            }
        }
        assert_eq!(extract_int(387_420_489, 6), (27, 1));
        assert_eq!(extract_int(1 << 29, 4), (128, 2));
        assert_eq!(extract_int(999_999_937, 2), (1, 999_999_937));
        assert_eq!(extract_int(1_000_000_000, 3), (1_000, 1));
        assert_eq!(extract_int(1_000_000_000, 6), (10, 1_000));
    }

    #[test]
    fn kth_power_extraction() {
        assert_eq!(extract_int(12, 2), (2, 3));
        assert_eq!(extract_int(32768, 3), (32, 1));
        assert_eq!(extract_int(81, 3), (3, 3));
        assert_eq!(extract_int(7, 2), (1, 7));
    }
}
