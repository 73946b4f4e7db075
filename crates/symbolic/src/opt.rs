//! Numeric solvers for the SOAP optimization problem (8).
//!
//! The paper reduces the I/O lower bound of a statement to the constrained
//! maximization
//!
//! ```text
//!   maximize   χ(D) = Σ_stmt ∏_{t ∈ vars(stmt)} |D_t|        (subcomputation size)
//!   subject to g(D) = Σ_j |A_j(D)| ≤ X,   |D_t| ≥ 1          (dominator ≤ X)
//! ```
//!
//! where the access-set sizes `|A_j|` come from Lemma 3 / Corollary 1.  Both
//! `χ` and `g` are smooth, monotonically increasing functions of the tile
//! extents `D_t`, so a damped multiplicative KKT fixed point in log-space
//! converges quickly.  Solving at a few large values of `X` and fitting
//! `χ(X) = c·X^σ` recovers the constant and the exponent of the computational
//! intensity `ρ = χ(X)/(X − S)`, whose minimizer `X₀ = σS/(σ−1)` is then known
//! in closed form.
//!
//! `χ` and `g` are built from Lemma 1 and Lemma 3 / Corollary 1 terms, so they
//! are posynomials, or max-posynomials where §5.1/§5.3 conservative unions
//! add `max` atoms.  The solver runs on their compiled forms
//! ([`crate::posy`]): analytic log-space gradients and Newton constraint
//! projection.  There is no second solver: a model outside that form cannot
//! be built into a [`ConstrainedProduct`], and the analysis reports it as a
//! numerical failure.

use crate::closed_form::ClosedForm;
use crate::deadline::{Deadline, Expired};
use crate::expr::Expr;
use crate::posy::{CompiledPosynomial, MaxPosynomial, MaxScratch, TIE_REL_FLOOR};
use crate::rational::Rational;

/// The hard per-solve KKT iteration budget; a solve that consumes the whole
/// budget without meeting a convergence test is counted as a cap hit.
pub const KKT_ITERATION_CAP: usize = 400;

/// The `X` values of the three power-law probes run by
/// [`fit_power_law`].  Public because the tile-shape fit
/// in `soap-core` reuses the *last* probe's optimum as the second point of
/// its two-point tile-exponent fit (no extra solve needed).
pub const POWER_LAW_PROBES: [f64; 3] = [1.0e7, 4.0e7, 1.6e8];

/// Ratio deviations below this are converged for every downstream consumer
/// (the rational/closed-form snapping tolerances sit at 3e-5): stepping on
/// them would amplify gradient noise into radius-sized kicks off the optimum.
const DEV_DEADBAND: f64 = 1e-7;

/// Governed KKT loops poll their [`Deadline`] every `MASK + 1` iterations
/// (a power of two so the test is one AND).  A single iteration is a few µs,
/// so a 16-iteration poll granularity bounds the overshoot past an expired
/// deadline to well under a millisecond per solve.
const DEADLINE_POLL_MASK: usize = 0xF;

/// A compiled dominator: pure posynomial when possible, otherwise the
/// piecewise max-posynomial form (§5.1/§5.3 conservative unions).
///
/// Public so the cross-subgraph solve cache (`soap-sdg`) can compile a
/// dominator for its canonical key, and assemble the canonical model's
/// dominator for [`ConstrainedProduct::from_compiled`].
#[derive(Clone, Debug)]
pub enum CompiledConstraint {
    /// A pure posynomial dominator.
    Pure(CompiledPosynomial),
    /// A dominator with `max`/`min` atoms (piecewise posynomial).
    Mixed(MaxPosynomial),
}

/// Reusable scratch for constraint evaluation (sized lazily; one per solve).
#[derive(Default)]
struct ConstraintScratch {
    terms: Vec<f64>,
    grad: Vec<f64>,
    max: MaxScratch,
}

impl CompiledConstraint {
    /// Compile a dominator expression: pure posynomial when possible,
    /// piecewise max-posynomial otherwise, `None` when neither form fits.
    /// The expression is expanded once and both attempts share it.
    pub fn compile(expr: &Expr, vars: &[String]) -> Option<CompiledConstraint> {
        let expanded = expr.expand();
        if let Some(pure) = CompiledPosynomial::from_expanded(&expanded, vars) {
            return Some(CompiledConstraint::Pure(pure));
        }
        MaxPosynomial::from_expanded(&expanded, vars).map(CompiledConstraint::Mixed)
    }

    /// Whether this is the piecewise max-posynomial form.
    fn is_max_form(&self) -> bool {
        matches!(self, CompiledConstraint::Mixed(_))
    }

    /// Mark every variable that occurs (with a non-zero exponent) anywhere in
    /// the constraint — monomial parts and all max/min branches.
    fn mark_occurring_vars(&self, mask: &mut [bool]) {
        let mark_poly = |p: &CompiledPosynomial, mask: &mut [bool]| {
            for k in 0..p.n_terms() {
                for (m, &e) in mask.iter_mut().zip(p.exponent_row(k)) {
                    *m |= e != 0;
                }
            }
        };
        match self {
            CompiledConstraint::Pure(p) => mark_poly(p, mask),
            CompiledConstraint::Mixed(m) => {
                for k in 0..m.n_terms() {
                    for (slot, &e) in mask.iter_mut().zip(m.exponent_row(k)) {
                        *slot |= e != 0;
                    }
                }
                for j in 0..m.n_atoms() {
                    for branch in m.atom_branches(j) {
                        mark_poly(branch, mask);
                    }
                }
            }
        }
    }

    fn eval(&self, x: &[f64], scratch: &mut ConstraintScratch) -> f64 {
        match self {
            CompiledConstraint::Pure(p) => p.eval(x),
            CompiledConstraint::Mixed(m) => m.eval(x, &mut scratch.max),
        }
    }

    /// Value plus full analytic log-space gradient in one pass.
    fn eval_grad(&self, x: &[f64], grad: &mut [f64], scratch: &mut ConstraintScratch) -> f64 {
        match self {
            CompiledConstraint::Pure(p) => {
                scratch.terms.resize(p.n_terms(), 0.0);
                let v = p.eval_terms(x, &mut scratch.terms);
                p.grad_log_from_terms(&scratch.terms, grad);
                v
            }
            CompiledConstraint::Mixed(m) => m.eval_grad(x, grad, &mut scratch.max),
        }
    }

    /// Value plus derivative w.r.t. a common log-scale of the `active`
    /// variables (the one derivative Newton constraint-projection needs).
    fn eval_and_scale_derivative(
        &self,
        x: &[f64],
        active: impl Fn(usize) -> bool,
        scratch: &mut ConstraintScratch,
    ) -> (f64, f64) {
        match self {
            CompiledConstraint::Pure(p) => p.eval_and_scale_derivative(x, active),
            CompiledConstraint::Mixed(m) => {
                scratch.grad.resize(x.len(), 0.0);
                let (grad, max) = (&mut scratch.grad, &mut scratch.max);
                let v = m.eval_grad(x, grad, max);
                let d = grad
                    .iter()
                    .enumerate()
                    .filter(|&(t, _)| active(t))
                    .map(|(_, g)| g)
                    .sum();
                (v, d)
            }
        }
    }
}

/// A constrained product-maximization problem over tile extents, held as the
/// compiled posynomial forms of its objective `χ(D)` and constraint `g(D)`
/// (the constraint is `g(D) ≤ X`).
///
/// The compiled KKT loop is the only solver: a problem whose sides are
/// outside (max-)posynomial form cannot be built ([`Self::new`] returns
/// `None`), and the caller reports it as a numerical failure instead of
/// running a second algorithm.
#[derive(Clone, Debug)]
pub struct ConstrainedProduct {
    objective: CompiledPosynomial,
    constraint: CompiledConstraint,
}

/// Result of solving a [`ConstrainedProduct`] at a specific `X`.
#[derive(Clone, Debug)]
pub struct ProductSolution {
    /// Optimal tile extents, one per problem variable.
    pub extents: Vec<f64>,
    /// The objective value `χ(X)`.
    pub chi: f64,
    /// The constraint value at the solution (≈ X when the constraint is active).
    pub constraint_value: f64,
}

/// A fitted power law `χ(X) ≈ coeff · X^exponent`.
#[derive(Clone, Debug, PartialEq)]
pub struct PowerLaw {
    /// The multiplicative constant `c`.
    pub coeff: f64,
    /// The exponent σ as an exact small rational.
    pub exponent: Rational,
}

/// Per-call accounting returned by [`ConstrainedProduct::solve`] and
/// [`fit_power_law`], aggregated over one or more KKT solves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveInfo {
    /// KKT solves performed.
    pub solves: u32,
    /// Total KKT fixed-point iterations.
    pub iterations: u64,
    /// Solves that exhausted the iteration budget without converging.
    pub cap_hits: u32,
    /// Whether the constraint was in piecewise max-posynomial form.
    pub max_form: bool,
}

impl SolveInfo {
    /// Accumulate another call's accounting into this one.
    pub fn absorb(&mut self, other: SolveInfo) {
        self.solves += other.solves;
        self.iterations += other.iterations;
        self.cap_hits += other.cap_hits;
        self.max_form |= other.max_form;
    }
}

impl ConstrainedProduct {
    /// Compile a problem from the variable list, objective and constraint.
    ///
    /// Both expressions are compiled once here; every subsequent
    /// [`Self::solve`] (the three power-law probes plus the tile-shape solve)
    /// reuses the compiled arrays.  Returns `None` when either side is
    /// outside (max-)posynomial form.
    pub fn new(variables: &[String], objective: &Expr, constraint: &Expr) -> Option<Self> {
        Some(ConstrainedProduct {
            objective: CompiledPosynomial::compile(objective, variables)?,
            constraint: CompiledConstraint::compile(constraint, variables)?,
        })
    }

    /// Build a problem from forms that were already compiled elsewhere (the
    /// cross-subgraph solve cache assembles them from its canonical key).
    /// Both must range over the same variables.
    pub fn from_compiled(objective: CompiledPosynomial, constraint: CompiledConstraint) -> Self {
        ConstrainedProduct {
            objective,
            constraint,
        }
    }

    /// The compiled objective `χ(D)`.
    pub fn objective(&self) -> &CompiledPosynomial {
        &self.objective
    }

    /// The compiled constraint `g(D)`.
    pub fn constraint(&self) -> &CompiledConstraint {
        &self.constraint
    }

    /// Solve `max objective s.t. constraint ≤ x, D_t ≥ 1` with a damped
    /// multiplicative KKT fixed point.
    ///
    /// At an interior optimum the KKT conditions require the per-variable
    /// "benefit/cost" ratios `(D_t ∂χ/∂D_t) / (D_t ∂g/∂D_t)` to be equal; the
    /// iteration nudges each `log D_t` towards the geometric mean of these
    /// ratios and re-projects onto the active constraint.
    ///
    /// `warm` is a warm-start shape: the iteration begins from it (projected
    /// back onto the constraint) instead of the symmetric cold start.  The
    /// power-law probes and the tile-shape solve are the same problem at
    /// different `X`, so continuing from the previous optimum removes almost
    /// all travel — and keeps every probe in the same basin, which a
    /// multi-extremal objective does not guarantee for independent cold
    /// starts.
    ///
    /// Under a `deadline` the KKT loop polls it every few iterations and
    /// returns [`Expired`] instead of an iterate when the budget is gone;
    /// with `None` the solve cannot fail.  The returned [`SolveInfo`] counts
    /// iterations, whether the iteration budget was exhausted, and whether
    /// the constraint is in max-posynomial form — the cross-subgraph cache
    /// uses it to surface non-convergence in `SolverSummary` instead of
    /// silently returning the last iterate.
    pub fn solve(
        &self,
        x: f64,
        warm: Option<&[f64]>,
        deadline: Option<&Deadline>,
    ) -> Result<(ProductSolution, SolveInfo), Expired> {
        let (mut sol, mut iterations, mut capped) = self.kkt(x, warm, deadline)?;
        if capped {
            // Continuation restart: a cold start that exhausted the budget
            // mid-travel usually converges in a few dozen iterations when
            // resumed from its own best iterate with fresh trust radii.  The
            // restart is part of the same logical solve, and the solve only
            // counts as converged if the iterate actually returned is the
            // restart's converged one — falling back to the first leg's
            // better-but-capped iterate keeps the cap hit.
            let (sol2, it2, capped2) = self.kkt(x, Some(&sol.extents), deadline)?;
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
            max_form: self.constraint.is_max_form(),
        };
        Ok((sol, info))
    }

    /// One leg of the KKT fixed point: the objective/constraint term values
    /// are computed once per iteration and shared across all `n` analytic
    /// log-space partial derivatives, and the constraint projection is done
    /// by safeguarded Newton on `log g`.
    ///
    /// Stepping is a sign-based trust region (see the loop comments): each
    /// variable moves by the sign of its ratio deviation times a per-variable
    /// radius that grows under a stable sign and halves on a flip, so the
    /// kink oscillation of max-form constraints (the argmax branch flips,
    /// the one-sided subgradient makes the raw deviation unbounded, and the
    /// old damped step bounced to the iteration cap) damps itself variable
    /// by variable.  Max-form solves additionally anneal the tie window of
    /// [`MaxPosynomial`]'s branch averaging from 25% down to the exact
    /// subgradient — a Polyak-style smoothing that keeps the surrogate
    /// smooth while the iterates travel.
    fn kkt(
        &self,
        x: f64,
        warm: Option<&[f64]>,
        deadline: Option<&Deadline>,
    ) -> Result<(ProductSolution, u64, bool), Expired> {
        let n = self.objective.n_vars();
        assert!(n > 0, "constrained product needs at least one variable");
        let mut extents: Vec<f64> = match warm {
            Some(w) => w.iter().map(|v| v.max(1.0)).collect(),
            None => vec![x.powf(1.0 / n as f64).max(1.0); n],
        };
        let mut clamped = vec![false; n];
        // Scratch buffers reused across iterations — the solve allocates a
        // fixed set of vectors up front and nothing inside the loop.
        let mut obj_terms = vec![0.0; self.objective.n_terms()];
        let mut d_obj = vec![0.0; n];
        let mut d_con = vec![0.0; n];
        let mut log_ratio = vec![0.0; n];
        let mut scaled = vec![0.0; n];
        let mut scratch = ConstraintScratch::default();
        rescale_newton(
            &self.constraint,
            &mut extents,
            x,
            &clamped,
            &mut scaled,
            &mut scratch,
        );

        let max_form = self.constraint.is_max_form();
        let mut best = (f64::NEG_INFINITY, extents.clone());
        let mut iters_done = 0u64;
        let mut converged = false;
        // Per-variable trust radii and the previous ratio deviations
        // (sign-change detection), plus — for max-form constraints — the
        // Polyak smoothing schedule: the tie window starts wide (branches
        // within 25% average their gradients, so the surrogate is smooth
        // while the iterates travel) and anneals down to the floor (the
        // exact subgradient) as the iterates settle.
        let mut tie_window = if max_form { 0.25 } else { TIE_REL_FLOOR };
        let mut radius = vec![0.1f64; n];
        let mut prev_dev = vec![0.0f64; n];
        let mut best_improved_iter = 0usize;
        // Variables absent from the constraint have an infinite benefit/cost
        // ratio (the objective is unbounded along them — degenerate merged
        // models produce these); stepping them chases an artifact.  They are
        // excluded from the KKT ratios and simply ride the common rescale
        // factor.
        let mut in_constraint = vec![false; n];
        self.constraint.mark_occurring_vars(&mut in_constraint);
        for iter in 0..KKT_ITERATION_CAP {
            if iter & DEADLINE_POLL_MASK == 0 && deadline.is_some_and(|d| d.expired()) {
                return Err(Expired);
            }
            iters_done += 1;
            if max_form {
                scratch.max.set_tie_window(tie_window);
                tie_window = (tie_window * 0.85).max(TIE_REL_FLOOR);
            }
            self.objective.eval_terms(&extents, &mut obj_terms);
            self.objective.grad_log_from_terms(&obj_terms, &mut d_obj);
            self.constraint
                .eval_grad(&extents, &mut d_con, &mut scratch);
            let mut n_active = 0usize;
            let mut ratio_sum = 0.0;
            for t in 0..n {
                if !in_constraint[t] {
                    clamped[t] = false;
                    log_ratio[t] = 0.0;
                    continue;
                }
                let num = d_obj[t].max(1e-300);
                let den = d_con[t].max(1e-300);
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
            for t in 0..n {
                if !clamped[t] && in_constraint[t] {
                    max_dev = max_dev.max((log_ratio[t] - mean).abs());
                }
            }
            // Trust-region step: each variable moves by the *sign* of its
            // ratio deviation times its own trust radius (resilient
            // propagation).  The radius adapts — it grows while the
            // deviation keeps its sign (steady travel: multi-block and
            // bandwidth-bound models mix so slowly that a deviation-
            // proportional step would creep for hundreds of iterations) and
            // halves when the sign flips (overshoot, or bouncing across a
            // max-form kink where the one-sided subgradient makes the raw
            // deviation essentially unbounded) — damping exactly the
            // variables that oscillate without starving the ones still in
            // transit.
            const MAX_RADIUS: f64 = 0.35;
            let mut applied_max: f64 = 0.0;
            for t in 0..n {
                if clamped[t] || !in_constraint[t] {
                    prev_dev[t] = 0.0;
                    continue;
                }
                let dev = log_ratio[t] - mean;
                // Deadband: a deviation at gradient-noise level must not
                // trigger a radius-sized step (it would kick a converged
                // symmetric iterate off the optimum).
                if dev.abs() < DEV_DEADBAND {
                    prev_dev[t] = 0.0;
                    continue;
                }
                if dev * prev_dev[t] > 0.0 {
                    radius[t] = (radius[t] * 1.2).min(MAX_RADIUS);
                } else if dev * prev_dev[t] < 0.0 {
                    radius[t] *= 0.7;
                }
                prev_dev[t] = dev;
                let step = dev.signum() * radius[t];
                applied_max = applied_max.max(step.abs());
                extents[t] = (extents[t] * step.exp()).max(1.0);
            }
            rescale_newton(
                &self.constraint,
                &mut extents,
                x,
                &clamped,
                &mut scaled,
                &mut scratch,
            );
            let chi = self.objective.eval(&extents);
            if chi > best.0 {
                if chi > best.0 * (1.0 + 1e-7) {
                    best_improved_iter = iter;
                }
                best.0 = chi;
                best.1.copy_from_slice(&extents);
            }
            if max_dev < DEV_DEADBAND {
                converged = true;
                break;
            }
            // Objective-stagnation convergence: the damped fixed point often
            // orbits the optimum with a ratio deviation that never reaches
            // 1e-10 (slow mixing on multi-block models; on max-form models
            // the uniform branch average is a subgradient, not the exact KKT
            // multiplier combination, so the deviation need not vanish at
            // all).  Once the best objective has not improved by a relative
            // 1e-7 for 30 iterations the orbit's best point is already
            // recorded — the worst further drift (30·1e-7 per window) sits
            // well under the 3e-5 rational/closed-form snapping tolerances,
            // so running to the cap cannot change any output.
            if iter >= best_improved_iter + 30 && (!max_form || tie_window <= TIE_REL_FLOOR) {
                converged = true;
                break;
            }
            // Trust radii collapsed: the iterates sit on a kink (or the box)
            // and nothing can move any more.
            if (!max_form || tie_window <= TIE_REL_FLOOR) && applied_max < 1e-10 {
                converged = true;
                break;
            }
        }
        let extents = best.1;
        let sol = ProductSolution {
            chi: self.objective.eval(&extents),
            constraint_value: self.constraint.eval(&extents, &mut scratch),
            extents,
        };
        Ok((sol, iters_done, !converged))
    }
}

/// Fit `χ(X) = c·X^σ` by running the KKT solve `kkt(x, warm)` at several
/// large `X` values.
///
/// The exponent is rationalized (denominator ≤ 12) because the theory
/// guarantees σ is a small rational (an LP optimum over unit constraints).
/// Also returns the aggregated accounting of the probe solves and the final
/// probe's optimal extents (callers reuse them to warm-start the tile-shape
/// solve).
///
/// The probes warm-start each other: the `4X` problem continues from the `X`
/// optimum, which keeps all three in the same basin of the multi-extremal
/// objective and removes the repeated travel phase.  Returns [`Expired`] as
/// soon as any probe solve does (a partial probe set cannot produce a
/// trustworthy exponent fit).
pub fn fit_power_law(
    mut kkt: impl FnMut(f64, Option<&[f64]>) -> Result<(ProductSolution, SolveInfo), Expired>,
) -> Result<(PowerLaw, SolveInfo, Vec<f64>), Expired> {
    let mut info = SolveInfo::default();
    let xs = POWER_LAW_PROBES;
    let mut warm: Option<Vec<f64>> = None;
    let mut chis = Vec::with_capacity(xs.len());
    for &x in &xs {
        let (sol, i) = kkt(x, warm.as_deref())?;
        info.absorb(i);
        chis.push(sol.chi);
        warm = Some(sol.extents);
    }
    let sigma_12 = (chis[1] / chis[0]).ln() / (xs[1] / xs[0]).ln();
    let sigma_23 = (chis[2] / chis[1]).ln() / (xs[2] / xs[1]).ln();
    let sigma_est = (sigma_12 + sigma_23) / 2.0;
    let exponent = Rational::approximate(sigma_est, 12, 0.02)
        .unwrap_or_else(|| Rational::approximate(sigma_est, 48, 0.05).unwrap_or(Rational::ONE));
    // The finite-X estimates carry an O(X^{-1/2}) error from the Lemma-3
    // surface terms; Richardson extrapolation over the last two samples
    // (X ratio 4, so the error halves) cancels it to first order.
    let c2 = chis[1] / xs[1].powf(exponent.to_f64());
    let c3 = chis[2] / xs[2].powf(exponent.to_f64());
    let coeff = 2.0 * c3 - c2;
    Ok((
        PowerLaw { coeff, exponent },
        info,
        // lint:allow(unwrap-expect): the probe loop above always runs and sets warm
        warm.expect("three probes ran"),
    ))
}

impl PowerLaw {
    /// The optimal `X₀ = σ·S/(σ−1)` minimizing `ρ(X) = c·X^σ/(X−S)`, as an
    /// expression in the symbol `S`.  Returns `None` when σ ≤ 1 (the optimum
    /// is at `X → ∞`).
    pub fn optimal_x(&self) -> Option<Expr> {
        if self.exponent <= Rational::ONE {
            return None;
        }
        let sigma = self.exponent;
        let factor = sigma / (sigma - Rational::ONE);
        Some(Expr::num(factor).mul(Expr::sym("S")))
    }

    /// The computational intensity `ρ(S) = min_X χ(X)/(X−S)` as a symbolic
    /// expression in `S`:
    ///
    /// * σ > 1:  `ρ = c · σ^σ/(σ−1)^{σ−1} · S^{σ−1}`
    /// * σ ≤ 1:  `ρ = c` (the limit X → ∞).
    ///
    /// The leading constant is passed through closed-form recognition so the
    /// result prints like the paper's (e.g. `1/2·sqrt(S)`).
    pub fn intensity(&self) -> Expr {
        let sigma = self.exponent;
        if sigma <= Rational::ONE {
            return ClosedForm::recognize(self.coeff).to_expr();
        }
        let sig_f = sigma.to_f64();
        let constant = self.coeff * sig_f.powf(sig_f) / (sig_f - 1.0).powf(sig_f - 1.0);
        let const_expr = ClosedForm::recognize(constant).to_expr();
        const_expr.mul(Expr::sym("S").pow(sigma - Rational::ONE))
    }
}

/// Scale all *unclamped* extents by a common factor so the compiled
/// constraint is active (`g(D) = x`): safeguarded Newton on `log g` as a
/// function of the log-scale.  `log g` is near-linear in the log-scale (each
/// term scales like `e^{deg·s}`), so Newton converges in a handful of
/// iterations; every step stays inside a shrinking bisection bracket for
/// robustness, and extents never drop below the `max(·, 1)` box.
fn rescale_newton(
    con: &CompiledConstraint,
    extents: &mut [f64],
    x: f64,
    clamped: &[bool],
    scaled: &mut [f64],
    scratch: &mut ConstraintScratch,
) {
    let apply = |u: f64, extents: &[f64], scaled: &mut [f64]| {
        let factor = u.exp();
        for ((s, &v), &c) in scaled.iter_mut().zip(extents.iter()).zip(clamped) {
            *s = if c { v } else { (v * factor).max(1.0) };
        }
    };
    let (mut lo, mut hi) = ((1e-9f64).ln(), (1e9f64).ln());
    apply(hi, extents, scaled);
    if con.eval(scaled, scratch) < x {
        // Constraint can never reach X (all variables effectively capped):
        // leave as-is.
        return;
    }
    let mut u = 0.0f64;
    let mut converged = false;
    for _ in 0..64 {
        apply(u, extents, scaled);
        let (g, dg) =
            con.eval_and_scale_derivative(scaled, |t| !clamped[t] && scaled[t] > 1.0, scratch);
        if (g - x).abs() <= x * 1e-12 {
            converged = true;
            break;
        }
        if g > x {
            hi = u;
        } else {
            lo = u;
        }
        // Newton on log g: u' = u + (log x − log g)·g/g'.
        let newton = if g > 0.0 && dg > 0.0 {
            u + (x.ln() - g.ln()) * g / dg
        } else {
            f64::NAN
        };
        u = if newton.is_finite() && newton > lo && newton < hi {
            newton
        } else {
            0.5 * (lo + hi)
        };
        if hi - lo <= f64::EPSILON * hi.abs().max(1.0) {
            converged = true;
            break;
        }
    }
    if !converged {
        u = 0.5 * (lo + hi);
    }
    apply(u, extents, scaled);
    extents.copy_from_slice(scaled);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn d(name: &str) -> Expr {
        Expr::sym(name)
    }

    /// An ungoverned cold-start solve.
    fn cold(p: &ConstrainedProduct, x: f64) -> ProductSolution {
        p.solve(x, None, None).unwrap().0
    }

    /// An ungoverned power-law fit.
    fn fit(p: &ConstrainedProduct) -> PowerLaw {
        fit_power_law(|x, warm| p.solve(x, warm, None)).unwrap().0
    }

    fn problem(variables: &[&str], objective: Expr, constraint: Expr) -> ConstrainedProduct {
        let variables: Vec<String> = variables.iter().map(|v| v.to_string()).collect();
        ConstrainedProduct::new(&variables, &objective, &constraint).unwrap()
    }

    /// Matrix multiplication: χ = Di·Dj·Dk, g = Di·Dk + Dk·Dj + Di·Dj.
    fn mmm_problem() -> ConstrainedProduct {
        let (di, dj, dk) = (d("Di"), d("Dj"), d("Dk"));
        let chi = di.clone().mul(dj.clone()).mul(dk.clone());
        let g = di
            .clone()
            .mul(dk.clone())
            .add(dk.clone().mul(dj.clone()))
            .add(di.clone().mul(dj.clone()));
        problem(&["Di", "Dj", "Dk"], chi, g)
    }

    #[test]
    fn mmm_solution_is_symmetric() {
        let p = mmm_problem();
        let sol = cold(&p, 3.0e6);
        // Optimal tiles: Di = Dj = Dk = sqrt(X/3) = 1000.
        for e in &sol.extents {
            assert!((e - 1000.0).abs() / 1000.0 < 0.01, "extent {e}");
        }
        assert!((sol.chi - 1.0e9).abs() / 1.0e9 < 0.02);
    }

    #[test]
    fn mmm_power_law_matches_paper() {
        let p = mmm_problem();
        let law = fit(&p);
        assert_eq!(law.exponent, Rational::new(3, 2));
        // c = (1/3)^{3/2} ≈ 0.19245
        assert!((law.coeff - 0.19245).abs() < 0.005, "coeff {}", law.coeff);
        // Intensity = sqrt(S)/2.
        let rho = law.intensity();
        let mut b = BTreeMap::new();
        b.insert("S".to_string(), 10000.0);
        assert!((rho.eval(&b).unwrap() - 50.0).abs() < 1.0, "rho {}", rho);
        // Numeric intensity agrees: golden-section minimization of
        // c·X^σ/(X−S) on [S(1+ε), 50·X₀].
        let (s, sigma) = (10000.0, law.exponent.to_f64());
        let rho_of = |x: f64| law.coeff * x.powf(sigma) / (x - s);
        let (mut lo, mut hi) = (s * 1.0001, s * sigma / (sigma - 1.0) * 50.0);
        let phi = (5.0_f64.sqrt() - 1.0) / 2.0;
        for _ in 0..200 {
            let (c, d) = (hi - phi * (hi - lo), lo + phi * (hi - lo));
            if rho_of(c) < rho_of(d) {
                hi = d;
            } else {
                lo = c;
            }
        }
        assert!((rho_of((lo + hi) / 2.0) - 50.0).abs() < 1.0);
        // X0 = 3S.
        let x0 = law.optimal_x().unwrap();
        assert!((x0.eval(&b).unwrap() - 30000.0).abs() < 1e-6);
    }

    #[test]
    fn stencil_problem_gives_linear_intensity() {
        // jacobi1d-style: χ = Di·Dt, g = Di + 2·Dt.
        let (di, dt) = (d("Di"), d("Dt"));
        let chi = di.clone().mul(dt.clone());
        let g = di.clone().add(Expr::int(2).mul(dt.clone()));
        let p = problem(&["Di", "Dt"], chi, g);
        let law = fit(&p);
        assert_eq!(law.exponent, Rational::int(2));
        // optimum: Di = X/2, Dt = X/4 -> χ = X²/8.
        assert!((law.coeff - 0.125).abs() < 0.01, "coeff {}", law.coeff);
        // ρ = c·4·S = S/2.
        let rho = law.intensity();
        let mut b = BTreeMap::new();
        b.insert("S".to_string(), 100.0);
        assert!((rho.eval(&b).unwrap() - 50.0).abs() < 2.0, "rho {}", rho);
    }

    #[test]
    fn bandwidth_bound_problem_has_sigma_one() {
        // mvt-like single statement: χ = Di·Dj, g = Di·Dj + Di + Dj.
        let (di, dj) = (d("Di"), d("Dj"));
        let chi = di.clone().mul(dj.clone());
        let g = chi.clone().add(di.clone()).add(dj.clone());
        let p = problem(&["Di", "Dj"], chi, g);
        let law = fit(&p);
        assert_eq!(law.exponent, Rational::ONE);
        assert!((law.coeff - 1.0).abs() < 0.02);
        assert!(law.optimal_x().is_none());
    }

    #[test]
    fn box_constraints_are_respected() {
        // Objective only involves D1; D2 should stay at 1... but the
        // constraint is driven by D1 only too, so D2 is free — it must not
        // produce NaN or negative extents.
        let p = problem(&["D1", "D2"], d("D1").mul(d("D2")), d("D1").add(d("D2")));
        let sol = cold(&p, 100.0);
        assert!(sol.extents.iter().all(|&e| e >= 1.0));
        assert!((sol.constraint_value - 100.0).abs() < 1.0);
        assert!((sol.chi - 2500.0).abs() < 50.0);
    }

    #[test]
    fn governed_solve_honours_the_deadline() {
        use crate::deadline::Deadline;
        let p = mmm_problem();
        // An already-cancelled deadline trips the very first poll.
        let dead = Deadline::never();
        dead.cancel();
        assert!(matches!(p.solve(1.0e6, None, Some(&dead)), Err(Expired)));
        assert!(matches!(
            fit_power_law(|x, warm| p.solve(x, warm, Some(&dead))),
            Err(Expired)
        ));
        // A live deadline changes nothing: byte-identical to the ungoverned
        // solve (the poll is on the same iteration schedule either way).
        let live = Deadline::never();
        let (gov, _) = p.solve(1.0e6, None, Some(&live)).unwrap();
        let plain = cold(&p, 1.0e6);
        assert_eq!(gov.extents, plain.extents);
        assert_eq!(gov.chi.to_bits(), plain.chi.to_bits());
    }
}
