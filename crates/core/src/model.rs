//! The dominator/subcomputation optimization model and its solution.
//!
//! An [`AccessModel`] is the optimization problem (8) of the paper for a
//! single (or merged, see `soap-sdg`) SOAP statement: maximize the
//! subcomputation size `χ(D)` subject to the dominator-set bound
//! `g(D) ≤ X`.  Solving it yields the computational intensity
//! `ρ(S) = min_X χ(X)/(X−S)`, the optimal `X₀`, and the optimal tile shape.

use crate::AnalysisError;
use soap_symbolic::{
    lp, ClosedForm, CompiledConstraint, CompiledPosynomial, ConstrainedProduct, Deadline, Expr,
    Rational, SolveInfo, POWER_LAW_PROBES,
};

/// The optimization model for one (possibly merged) statement.
#[derive(Clone, Debug)]
pub struct AccessModel {
    /// Human-readable name (statement or SDG-subgraph name).
    pub name: String,
    /// Tile variables (`D_<var>`), one per iteration variable.
    pub tile_variables: Vec<String>,
    /// The subcomputation-size objective `χ(D)` (Lemma 1; a sum of products
    /// for merged multi-statement subgraphs).
    pub objective: Expr,
    /// The dominator-size expression `g(D) = Σ_j |A_j(D)|` (Lemma 3 /
    /// Corollary 1 terms).
    pub dominator: Expr,
    /// Iteration-variable index sets of each dominator term, used for the
    /// exact exponent LP cross-check (empty entries are permitted).
    pub access_index_sets: Vec<Vec<usize>>,
}

/// The solved intensity information of an [`AccessModel`].
#[derive(Clone, Debug)]
pub struct IntensityResult {
    /// The model name.
    pub name: String,
    /// σ: the exponent of `χ(X) = c·X^σ`.
    pub sigma: Rational,
    /// c: the constant of the power law.
    pub chi_coeff: f64,
    /// The computational intensity `ρ(S)` as a symbolic expression in `S`.
    pub rho: Expr,
    /// `X₀ = σ·S/(σ−1)` (None when σ ≤ 1, i.e. the optimum is X → ∞).
    pub x0: Option<Expr>,
    /// Tile-shape exponents: for each tile variable, the exponent `x_t` such
    /// that the optimal `|D_t| ∝ X^{x_t}`.
    pub tile_exponents: Vec<(String, Rational)>,
    /// Tile-shape coefficients `α_t` such that `|D_t| ≈ α_t·X^{x_t}` at the
    /// optimum.
    pub tile_coeffs: Vec<(String, f64)>,
}

impl IntensityResult {
    /// Numeric intensity at a concrete fast-memory size `S` (words).
    ///
    /// Allocation-free: `ρ` only ever mentions the symbol `S`, so the single
    /// binding avoids building a `BTreeMap` per call.
    pub fn rho_at(&self, s: f64) -> f64 {
        self.rho.eval_single("S", s).unwrap_or(f64::NAN)
    }

    /// Concrete optimal tile sizes for a given fast-memory size `S`.
    ///
    /// Substitutes `X₀(S)` into the fitted per-variable power laws; when σ ≤ 1
    /// there is no finite `X₀` and the tiles grow with the full problem, so
    /// `None` is returned.
    pub fn tiles_at(&self, s: f64) -> Option<Vec<(String, f64)>> {
        let x0 = self.x0.as_ref()?;
        let x0v = x0.eval_single("S", s)?;
        Some(
            self.tile_exponents
                .iter()
                .zip(&self.tile_coeffs)
                .map(|((name, e), (_, a))| (name.clone(), (a * x0v.powf(e.to_f64())).max(1.0)))
                .collect(),
        )
    }
}

/// Solve an [`AccessModel`]: fit the power law of `χ(X)`, cross-check the
/// exponent against the exact access LP when available, and assemble the
/// symbolic intensity.  Also returns the aggregated KKT accounting of all
/// probe solves — the cross-subgraph cache uses it to surface
/// iteration-budget exhaustion in `SolverSummary`.
///
/// With `compiled = None` the objective and dominator are compiled once into
/// posynomial form inside [`ConstrainedProduct::new`] (falling back to the
/// `Expr`-eval path for models outside (max-)posynomial form); the solve
/// cache passes the forms it already compiled for its canonical key, which
/// skips the duplicate compilation but takes exactly the same numeric path.
/// All three power-law probes and the tile-shape solve reuse the compiled
/// arrays.  Under a `deadline` the KKT loops poll it and the whole solve
/// returns [`AnalysisError::Cancelled`] when it expires mid-solve.
pub fn solve_model(
    model: &AccessModel,
    compiled: Option<(CompiledPosynomial, CompiledConstraint)>,
    deadline: Option<&Deadline>,
) -> (Result<IntensityResult, AnalysisError>, SolveInfo) {
    let build = || match compiled {
        Some((objective, dominator)) => ConstrainedProduct::from_compiled(
            model.tile_variables.clone(),
            model.objective.clone(),
            model.dominator.clone(),
            objective,
            dominator,
        ),
        None => ConstrainedProduct::new(
            model.tile_variables.clone(),
            model.objective.clone(),
            model.dominator.clone(),
        ),
    };
    let mut info = SolveInfo::default();
    let result = solve_model_inner(model, build, &mut info, deadline);
    (result, info)
}

/// [`solve_model`] forced down the retained `Expr`-eval solver path
/// (finite-difference gradients, bisection projection) — the differential
/// baseline the compiled path is pinned against.
pub fn solve_model_reference(model: &AccessModel) -> Result<IntensityResult, AnalysisError> {
    let build = || {
        ConstrainedProduct::new_reference(
            model.tile_variables.clone(),
            model.objective.clone(),
            model.dominator.clone(),
        )
    };
    solve_model_inner(model, build, &mut SolveInfo::default(), None)
}

/// The [`AnalysisError`] for a deadline that expired inside a model solve.
fn cancelled(model: &AccessModel) -> AnalysisError {
    AnalysisError::Cancelled(format!("deadline expired while solving {}", model.name))
}

fn solve_model_inner(
    model: &AccessModel,
    build: impl FnOnce() -> ConstrainedProduct,
    info: &mut SolveInfo,
    deadline: Option<&Deadline>,
) -> Result<IntensityResult, AnalysisError> {
    if model.tile_variables.is_empty() {
        return Err(AnalysisError::InvalidStatement(format!(
            "model {} has no tile variables",
            model.name
        )));
    }
    if model.dominator.is_zero() {
        return Err(AnalysisError::NoInputs(model.name.clone()));
    }
    let problem = build();
    let (mut law, fit_info, fit_extents) = problem
        .fit_power_law(deadline)
        .map_err(|_| cancelled(model))?;
    info.absorb(fit_info);
    if !law.coeff.is_finite() || law.coeff <= 0.0 {
        return Err(AnalysisError::NumericalFailure(format!(
            "power-law fit failed for {} (coeff = {})",
            model.name, law.coeff
        )));
    }

    // Cross-check σ with the exact exponent LP when the dominator consists of
    // pure product terms (all index sets provided).  The LP is exact rational
    // arithmetic, so when the two disagree slightly we trust the LP.
    if !model.access_index_sets.is_empty() && model.access_index_sets.iter().all(|s| !s.is_empty())
    {
        let lp_sol = lp::access_exponent_lp(model.tile_variables.len(), &model.access_index_sets);
        let diff = (lp_sol.value.to_f64() - law.exponent.to_f64()).abs();
        if diff > 1e-9 && diff < 0.15 {
            law.exponent = lp_sol.value;
        }
    }

    // Per-variable tile shape from a large-X solve, warm-started from the
    // final power-law probe (the same problem at a nearby X).  The exponent
    // is fitted from *two* points — this solve (X = 1e8) and the last
    // power-law probe (X = 1.6e8), whose extents are already in hand — via
    // `ln(e₂/e₁)/ln(X₂/X₁)`: the single-point estimate `ln(extent)/ln(X)`
    // converges only like `1/ln X` (a tile `D = X/2` reads 0.962 at X = 1e8,
    // which snaps to exponent 0 with a huge coefficient instead of exponent 1
    // with coefficient 1/2), while the two-point ratio cancels the constant
    // exactly and costs no extra solve.
    let x_probe = 1.0e8;
    // lint:allow(unwrap-expect): POWER_LAW_PROBES is a non-empty const table
    let x_fit = *POWER_LAW_PROBES.last().expect("probes are non-empty");
    let (sol, probe_info) = problem
        .solve(x_probe, Some(&fit_extents), deadline)
        .map_err(|_| cancelled(model))?;
    info.absorb(probe_info);
    let mut tile_exponents = Vec::new();
    let mut tile_coeffs = Vec::new();
    for ((name, extent), fit_extent) in model
        .tile_variables
        .iter()
        .zip(&sol.extents)
        .zip(&fit_extents)
    {
        let raw = (fit_extent / extent).ln() / (x_fit / x_probe).ln();
        let e = Rational::approximate(raw, 12, 0.03)
            .or_else(|| Rational::approximate(raw, 48, 0.05))
            .unwrap_or(Rational::ZERO);
        let coeff = extent / x_probe.powf(e.to_f64());
        let coeff_cf = ClosedForm::recognize(coeff);
        tile_exponents.push((name.clone(), e));
        tile_coeffs.push((name.clone(), coeff_cf.value()));
    }

    let rho = law.intensity();
    let x0 = law.optimal_x();
    Ok(IntensityResult {
        name: model.name.clone(),
        sigma: law.exponent,
        chi_coeff: law.coeff,
        rho,
        x0,
        tile_exponents,
        tile_coeffs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access_size::tile_var;

    fn dv(v: &str) -> Expr {
        Expr::sym(tile_var(v))
    }

    #[test]
    fn mmm_model_solves_to_half_sqrt_s() {
        let model = AccessModel {
            name: "mmm".into(),
            tile_variables: vec![tile_var("i"), tile_var("j"), tile_var("k")],
            objective: dv("i").mul(dv("j")).mul(dv("k")),
            dominator: dv("i")
                .mul(dv("k"))
                .add(dv("k").mul(dv("j")))
                .add(dv("i").mul(dv("j"))),
            access_index_sets: vec![vec![0, 2], vec![2, 1], vec![0, 1]],
        };
        let res = solve_model(&model, None, None).0.unwrap();
        assert_eq!(res.sigma, Rational::new(3, 2));
        assert!((res.rho_at(10_000.0) - 50.0).abs() < 1.0);
        // X0 = 3S; tiles at S=10000 are ~sqrt(X0/3) = 100 each.
        let tiles = res.tiles_at(10_000.0).unwrap();
        for (_, t) in tiles {
            assert!((t - 100.0).abs() < 5.0, "tile size {t}");
        }
    }

    #[test]
    fn linear_tile_exponents_snap_to_one_not_zero() {
        // Regression (ROADMAP open item): χ = Di·Dt, g = Di + 2·Dt has the
        // optimal tiles Di = X/2, Dt = X/4.  The single-point estimate
        // ln(X/2)/ln(X) ≈ 0.962 at X = 1e8 missed every denominator-≤12
        // rational within 0.03 and fell back to exponent 0 with coefficient
        // ~5e7; the two-point fit must recover exponent 1 with coefficients
        // 1/2 and 1/4.
        let model = AccessModel {
            name: "stencil-tiles".into(),
            tile_variables: vec![tile_var("i"), tile_var("t")],
            objective: dv("i").mul(dv("t")),
            dominator: dv("i").add(Expr::int(2).mul(dv("t"))),
            access_index_sets: vec![],
        };
        let res = solve_model(&model, None, None).0.unwrap();
        assert_eq!(res.sigma, Rational::int(2));
        for (name, e) in &res.tile_exponents {
            assert_eq!(*e, Rational::ONE, "tile exponent of {name}");
        }
        let coeffs: std::collections::BTreeMap<&str, f64> = res
            .tile_coeffs
            .iter()
            .map(|(n, c)| (n.as_str(), *c))
            .collect();
        assert!(
            (coeffs["D_i"] - 0.5).abs() < 1e-6,
            "D_i coeff {}",
            coeffs["D_i"]
        );
        assert!(
            (coeffs["D_t"] - 0.25).abs() < 1e-6,
            "D_t coeff {}",
            coeffs["D_t"]
        );
        // Sane concrete tiles now: X₀ = 2S, so Di = S and Dt = S/2.
        let tiles: std::collections::BTreeMap<String, f64> =
            res.tiles_at(1000.0).unwrap().into_iter().collect();
        assert!((tiles["D_i"] - 1000.0).abs() / 1000.0 < 0.01);
        assert!((tiles["D_t"] - 500.0).abs() / 500.0 < 0.01);
    }

    #[test]
    fn empty_dominator_is_rejected() {
        let model = AccessModel {
            name: "empty".into(),
            tile_variables: vec![tile_var("i")],
            objective: dv("i"),
            dominator: Expr::zero(),
            access_index_sets: vec![],
        };
        assert!(matches!(
            solve_model(&model, None, None).0,
            Err(AnalysisError::NoInputs(_))
        ));
    }

    #[test]
    fn merged_objective_with_two_statements() {
        // Two fused GEMV-like statements sharing the A tile: χ = 2·Di·Dj,
        // g = Di·Dj + Di + Dj  =>  ρ → 2 (σ = 1).
        let chi = Expr::int(2).mul(dv("i").mul(dv("j")));
        let g = dv("i").mul(dv("j")).add(dv("i")).add(dv("j"));
        let model = AccessModel {
            name: "fused-gemv".into(),
            tile_variables: vec![tile_var("i"), tile_var("j")],
            objective: chi,
            dominator: g,
            access_index_sets: vec![],
        };
        let res = solve_model(&model, None, None).0.unwrap();
        assert_eq!(res.sigma, Rational::ONE);
        assert!((res.rho_at(64.0) - 2.0).abs() < 0.05);
        assert!(res.x0.is_none());
        assert!(res.tiles_at(64.0).is_none());
    }
}
