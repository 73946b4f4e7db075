//! The `Expr`-eval reference KKT solver: the differential oracle of the
//! compiled solver in `soap_symbolic::opt`.
//!
//! It evaluates the objective and constraint by walking their `Expr` trees,
//! takes finite-difference gradients and projects onto the constraint by
//! bisection, so it shares no numeric machinery with the compiled posynomial
//! arrays of `soap_symbolic::posy`.  It shares only the *stepping policy*
//! (sign-based trust-region steps, rescale-rider variables,
//! objective-stagnation convergence, one continuation restart after a cap
//! hit), so the snapped outputs of the two solvers stay byte-identical.
//!
//! Included by path from the differential tests of `soap-symbolic`
//! (`posy_differential.rs`) and `soap-sdg` (`solver_differential.rs`).

use soap_symbolic::opt::ProductSolution;
use soap_symbolic::{Expr, SolveInfo, KKT_ITERATION_CAP};
use std::collections::BTreeMap;

/// Ratio deviations below this do not step (the solver's deadband).
const DEV_DEADBAND: f64 = 1e-7;

/// `max objective s.t. constraint ≤ x, D_t ≥ 1` over `Expr` trees.
pub struct ReferenceProblem {
    variables: Vec<String>,
    objective: Expr,
    constraint: Expr,
}

impl ReferenceProblem {
    pub fn new(variables: &[String], objective: &Expr, constraint: &Expr) -> Self {
        ReferenceProblem {
            variables: variables.to_vec(),
            objective: objective.clone(),
            constraint: constraint.clone(),
        }
    }

    /// One logical solve, warm-started from `warm` when given; a leg that
    /// exhausts the iteration budget is resumed once from its best iterate,
    /// exactly as `ConstrainedProduct::solve` does.
    pub fn solve(&self, x: f64, warm: Option<&[f64]>) -> (ProductSolution, SolveInfo) {
        let (mut sol, mut iterations, mut capped) = self.leg(x, warm);
        if capped {
            let (sol2, it2, capped2) = self.leg(x, Some(&sol.extents));
            iterations += it2;
            if sol2.chi >= sol.chi {
                sol = sol2;
                capped = capped2;
            }
        }
        let info = SolveInfo {
            solves: 1,
            iterations,
            cap_hits: u32::from(capped),
            max_form: false,
        };
        (sol, info)
    }

    fn eval(&self, e: &Expr, extents: &[f64]) -> f64 {
        let mut bindings = BTreeMap::new();
        for (name, v) in self.variables.iter().zip(extents) {
            bindings.insert(name.clone(), *v);
        }
        e.eval(&bindings).unwrap_or(f64::NAN)
    }

    /// Numeric partial derivative of `e` w.r.t. variable index `t`
    /// (central difference in log-space for robustness).
    fn d_dlog(&self, e: &Expr, extents: &[f64], t: usize) -> f64 {
        let h: f64 = 1e-5;
        let mut up = extents.to_vec();
        let mut dn = extents.to_vec();
        up[t] *= (h).exp();
        dn[t] *= (-h).exp();
        (self.eval(e, &up) - self.eval(e, &dn)) / (2.0 * h)
    }

    /// Scale all *unclamped* extents by a common factor so that the constraint
    /// is active (`g(D) = x`), using bisection on the log of the factor.
    fn rescale_to_constraint(&self, extents: &mut [f64], x: f64, clamped: &[bool]) {
        let g = |scale: f64, base: &[f64]| -> f64 {
            let scaled: Vec<f64> = base
                .iter()
                .zip(clamped)
                .map(|(v, c)| if *c { *v } else { (v * scale).max(1.0) })
                .collect();
            self.eval(&self.constraint, &scaled)
        };
        let base = extents.to_vec();
        let (mut lo, mut hi) = (1e-9_f64, 1e9_f64);
        // The constraint is increasing in the scale; find the active point.
        if g(hi, &base) < x {
            // Constraint can never reach X (all variables effectively capped):
            // leave as-is.
            return;
        }
        for _ in 0..200 {
            let mid = (lo.ln() + hi.ln()) / 2.0;
            let mid = mid.exp();
            if g(mid, &base) > x {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let scale = (lo * hi).sqrt();
        for (v, c) in extents.iter_mut().zip(clamped) {
            if !*c {
                *v = (*v * scale).max(1.0);
            }
        }
    }

    /// One leg of the damped multiplicative KKT fixed point: the optimum
    /// found, the iterations run, and whether the budget ran out.
    fn leg(&self, x: f64, warm: Option<&[f64]>) -> (ProductSolution, u64, bool) {
        let n = self.variables.len();
        assert!(n > 0, "constrained product needs at least one variable");
        // Initial guess: the warm-start shape when given, otherwise equal
        // extents sized so the constraint is roughly met.
        let mut extents = match warm {
            Some(w) => w.iter().map(|v| v.max(1.0)).collect(),
            None => vec![x.powf(1.0 / n as f64).max(1.0); n],
        };
        let mut clamped = vec![false; n];
        self.rescale_to_constraint(&mut extents, x, &clamped);
        // Rescale-rider detection from the expression structure (the
        // compiled solver reads the same fact off the exponent matrices).
        let constraint_syms = self.constraint.symbols();
        let in_constraint: Vec<bool> = self
            .variables
            .iter()
            .map(|v| constraint_syms.contains(v))
            .collect();

        let mut best = (f64::NEG_INFINITY, extents.clone());
        let mut iters_done = 0u64;
        let mut converged = false;
        let mut radius = vec![0.1f64; n];
        let mut prev_dev = vec![0.0f64; n];
        let mut best_improved_iter = 0usize;
        for iter in 0..KKT_ITERATION_CAP {
            iters_done += 1;
            // Benefit/cost ratios in log space.
            let mut log_ratio = vec![0.0; n];
            let mut n_active = 0usize;
            let mut ratio_sum = 0.0;
            for t in 0..n {
                if !in_constraint[t] {
                    clamped[t] = false;
                    log_ratio[t] = 0.0;
                    continue;
                }
                let num = self.d_dlog(&self.objective, &extents, t).max(1e-300);
                let den = self.d_dlog(&self.constraint, &extents, t).max(1e-300);
                log_ratio[t] = (num / den).ln();
                let at_box = extents[t] <= 1.0 + 1e-9;
                clamped[t] = at_box && log_ratio[t] < 0.0;
                if !clamped[t] {
                    n_active += 1;
                    ratio_sum += log_ratio[t];
                }
            }
            if n_active == 0 {
                converged = true;
                break;
            }
            let mean = ratio_sum / n_active as f64;
            let mut max_dev: f64 = 0.0;
            let mut applied_max: f64 = 0.0;
            for t in 0..n {
                if clamped[t] || !in_constraint[t] {
                    prev_dev[t] = 0.0;
                    continue;
                }
                let dev = log_ratio[t] - mean;
                max_dev = max_dev.max(dev.abs());
                // Deadband: a deviation at gradient-noise level must not
                // trigger a radius-sized step (it would kick a converged
                // symmetric iterate off the optimum).
                if dev.abs() < DEV_DEADBAND {
                    prev_dev[t] = 0.0;
                    continue;
                }
                if dev * prev_dev[t] > 0.0 {
                    radius[t] = (radius[t] * 1.2).min(0.35);
                } else if dev * prev_dev[t] < 0.0 {
                    radius[t] *= 0.7;
                }
                prev_dev[t] = dev;
                let step = dev.signum() * radius[t];
                applied_max = applied_max.max(step.abs());
                extents[t] = (extents[t] * step.exp()).max(1.0);
            }
            self.rescale_to_constraint(&mut extents, x, &clamped);
            let chi = self.eval(&self.objective, &extents);
            if chi > best.0 {
                if chi > best.0 * (1.0 + 1e-7) {
                    best_improved_iter = iter;
                }
                best = (chi, extents.clone());
            }
            if max_dev < DEV_DEADBAND || applied_max < 1e-10 || iter >= best_improved_iter + 30 {
                converged = true;
                break;
            }
        }
        let extents = best.1;
        let sol = ProductSolution {
            chi: self.eval(&self.objective, &extents),
            constraint_value: self.eval(&self.constraint, &extents),
            extents,
        };
        (sol, iters_done, !converged)
    }
}
