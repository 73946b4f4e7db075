//! # soap-symbolic
//!
//! Exact rational and symbolic math substrate for the SOAP I/O lower-bound
//! analysis.  The paper ("Pebbles, Graphs, and a Pinch of Combinatorics",
//! SPAA 2021) performs its derivations with the MATLAB symbolic toolbox; this
//! crate provides the equivalent machinery from scratch:
//!
//! * [`Rational`] — exact arithmetic over `i128`.
//! * [`Expr`] — symbolic expressions (sums, products, rational powers, min/max)
//!   with simplification, differentiation, substitution, and evaluation.
//! * [`Polynomial`] — sparse multivariate polynomials, used for exact
//!   iteration-domain counting (including Faulhaber summation over affine
//!   bounds, which handles triangular loop nests such as Cholesky or LU).
//! * [`lp`] — a small exact-rational simplex solver for the access-exponent LP
//!   that determines the exponent σ of `χ(X) = c·X^σ`.
//! * [`posy`] — compiled posynomial forms (dense exponent matrix + flat
//!   coefficients) with allocation-free evaluation and analytic log-space
//!   gradients, the data layout every hot solver probe runs on.
//! * [`opt`] — the numeric KKT solver for the constrained product maximization
//!   (optimization problem (8) of the paper) and the power-law fitting that
//!   recovers the constant `c`.
//! * [`closed_form`] — recognition of fitted constants as low-degree algebraic
//!   numbers so that bounds print like the paper's (`2N³/√S`, `12N²T/√S`, …).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod closed_form;
pub mod deadline;
pub mod expr;
pub mod intern;
pub mod lp;
pub mod opt;
pub mod poly;
pub mod posy;
pub mod rational;

pub use closed_form::ClosedForm;
pub use deadline::{Deadline, Expired};
pub use expr::Expr;
pub use intern::Symbol;
pub use lp::LinearProgram;
pub use opt::{
    fit_power_law, CompiledConstraint, ConstrainedProduct, PowerLaw, SolveInfo, KKT_ITERATION_CAP,
    POWER_LAW_PROBES,
};
pub use poly::{Monomial, Polynomial};
pub use posy::{CompiledPosynomial, MaxPosynomial, MaxScratch};
pub use rational::Rational;

/// Total order on `f64` that sorts NaN *below* every number (including
/// `-inf`), shared by every float comparison in the workspace that must not
/// panic or misbehave on a rogue NaN:
///
/// * the Theorem-1 intensity maximum in `soap-sdg` (a subgraph whose `ρ`
///   failed to evaluate can never win the maximum),
/// * `loadgen`'s `--require-dedup` check, where a NaN dedup ratio must
///   fail the SLO rather than pass it.
///
/// "Last" refers to preference: NaN loses every `max_by` under this order.
/// This differs from `f64::total_cmp`, which sorts *negative* NaN below all
/// numbers but positive NaN above them — under `total_cmp` a positive-NaN
/// intensity would win the Theorem-1 maximum.
pub fn nan_last(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Less,
        (false, true) => std::cmp::Ordering::Greater,
        // lint:allow(partial-cmp): nan_last IS the sanctioned total order — the one raw comparison site, and both operands are non-NaN here
        (false, false) => a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal),
    }
}

#[cfg(test)]
mod nan_last_tests {
    use super::nan_last;
    use std::cmp::Ordering;

    #[test]
    fn nan_sorts_below_everything() {
        assert_eq!(nan_last(f64::NAN, f64::NEG_INFINITY), Ordering::Less);
        assert_eq!(nan_last(f64::NEG_INFINITY, f64::NAN), Ordering::Greater);
        assert_eq!(nan_last(f64::NAN, f64::NAN), Ordering::Equal);
        assert_eq!(nan_last(1.0, 2.0), Ordering::Less);
        let mut v = [2.0, f64::NAN, 1.0, f64::INFINITY];
        v.sort_by(|a, b| nan_last(*a, *b));
        assert!(v[0].is_nan());
        assert_eq!(&v[1..], &[1.0, 2.0, f64::INFINITY]);
        // A max_by under this order can never be won by NaN.
        let best = [1.0, f64::NAN, 3.0]
            .into_iter()
            .max_by(|a, b| nan_last(*a, *b))
            .unwrap();
        assert_eq!(best, 3.0);
    }
}
