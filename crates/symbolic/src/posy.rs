//! Compiled posynomial forms of objective/dominator expressions.
//!
//! The objective `χ(D)` and dominator `g(D)` of optimization problem (8) are
//! always *posynomials* in the tile extents: sums of monomials
//! `c_k · ∏_t D_t^{e_{k,t}}` with integer exponents (Lemma 3 / Corollary 1
//! produce expanded products of extents minus integer offsets).  Compiling an
//! [`Expr`] once into a dense exponent matrix over variable *indices* turns
//! every solver probe into an allocation-free pass over flat `f64`/`i16`
//! arrays, and makes log-space gradients *analytic*:
//!
//! ```text
//!   ∂/∂log D_t  Σ_k c_k ∏ D^e  =  Σ_k e_{k,t} · term_k
//! ```
//!
//! so one evaluation of the per-term values serves the partial derivatives of
//! *all* variables — instead of `2n` finite-difference `Expr` tree walks per
//! KKT iteration (the reference solver the differential tests keep).
//!
//! Exact rational coefficients are kept alongside the `f64` mirrors so that
//! structurally identical models can be compared exactly (the cross-subgraph
//! canonical model key in `soap-sdg`).

use crate::expr::Expr;
use crate::rational::Rational;

/// A posynomial `Σ_k c_k · ∏_t x_t^{e_{k,t}}` compiled to flat arrays.
///
/// Terms are stored row-major: term `k` occupies
/// `exps[k*n_vars .. (k+1)*n_vars]`.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledPosynomial {
    n_vars: usize,
    /// Per-term coefficients as `f64` (hot path).
    coeffs: Vec<f64>,
    /// Per-term coefficients as exact rationals (canonical keys).
    rat_coeffs: Vec<Rational>,
    /// Dense `n_terms × n_vars` exponent matrix, row-major.
    exps: Vec<i16>,
}

impl CompiledPosynomial {
    /// Lower `expr` into a compiled posynomial over the given variable order.
    ///
    /// Returns `None` when the expression is not a posynomial over `vars`
    /// with integer exponents — unknown symbols, fractional powers, or
    /// `Max`/`Min` nodes (the §5.1 conservative-union fallback; see
    /// [`MaxPosynomial`]).
    pub fn compile(expr: &Expr, vars: &[String]) -> Option<CompiledPosynomial> {
        Self::from_expanded(&expr.expand(), vars)
    }

    /// [`Self::compile`] of an expression that is already `expand()`ed, so
    /// a caller trying several compiled forms expands only once.
    pub(crate) fn from_expanded(expanded: &Expr, vars: &[String]) -> Option<CompiledPosynomial> {
        let n_vars = vars.len();
        let terms: Vec<&Expr> = match expanded {
            Expr::Add(items) => items.iter().collect(),
            other => vec![other],
        };
        let mut coeffs = Vec::with_capacity(terms.len());
        let mut rat_coeffs = Vec::with_capacity(terms.len());
        let mut exps = vec![0i16; terms.len() * n_vars];
        for (k, term) in terms.iter().enumerate() {
            let row = &mut exps[k * n_vars..(k + 1) * n_vars];
            let coeff = compile_term(term, vars, row)?;
            coeffs.push(coeff.to_f64());
            rat_coeffs.push(coeff);
        }
        Some(CompiledPosynomial {
            n_vars,
            coeffs,
            rat_coeffs,
            exps,
        })
    }

    /// Assemble a compiled posynomial directly from term rows (exponent row
    /// plus exact coefficient).  Each row must have exactly `n_vars` entries.
    ///
    /// Used by the cross-subgraph solve cache to rebuild a canonical model's
    /// compiled form straight from its canonical key, so a cache miss solves
    /// the canonical structure without round-tripping through `Expr`
    /// construction and re-compilation.
    pub fn from_rows(n_vars: usize, rows: &[(Vec<i16>, Rational)]) -> CompiledPosynomial {
        let mut coeffs = Vec::with_capacity(rows.len());
        let mut rat_coeffs = Vec::with_capacity(rows.len());
        let mut exps = Vec::with_capacity(rows.len() * n_vars);
        for (row, coeff) in rows {
            debug_assert_eq!(row.len(), n_vars);
            coeffs.push(coeff.to_f64());
            rat_coeffs.push(*coeff);
            exps.extend_from_slice(row);
        }
        CompiledPosynomial {
            n_vars,
            coeffs,
            rat_coeffs,
            exps,
        }
    }

    /// Number of variables (row width of the exponent matrix).
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Number of terms (rows of the exponent matrix).
    pub fn n_terms(&self) -> usize {
        self.coeffs.len()
    }

    /// The exponent row of term `k`.
    pub fn exponent_row(&self, k: usize) -> &[i16] {
        &self.exps[k * self.n_vars..(k + 1) * self.n_vars]
    }

    /// The exact rational coefficient of term `k`.
    pub fn rational_coeff(&self, k: usize) -> Rational {
        self.rat_coeffs[k]
    }

    /// Evaluate at the point `x` (allocation-free).
    pub fn eval(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.n_vars);
        let mut acc = 0.0;
        for k in 0..self.coeffs.len() {
            acc += self.coeffs[k] * self.term_product(k, x);
        }
        acc
    }

    /// Evaluate at `x`, storing each term's value in `terms`; returns the sum.
    ///
    /// The per-term values are exactly what the analytic gradient needs, so
    /// one call serves the function value *and* all `n` partial derivatives.
    pub fn eval_terms(&self, x: &[f64], terms: &mut [f64]) -> f64 {
        debug_assert_eq!(terms.len(), self.n_terms());
        let mut acc = 0.0;
        for (k, slot) in terms.iter_mut().enumerate() {
            let t = self.coeffs[k] * self.term_product(k, x);
            *slot = t;
            acc += t;
        }
        acc
    }

    /// Analytic log-space gradient from precomputed term values:
    /// `out[t] = ∂/∂log x_t = Σ_k e_{k,t} · terms[k]`.
    pub fn grad_log_from_terms(&self, terms: &[f64], out: &mut [f64]) {
        debug_assert_eq!(terms.len(), self.n_terms());
        debug_assert_eq!(out.len(), self.n_vars);
        out.fill(0.0);
        for (k, &tv) in terms.iter().enumerate() {
            let row = &self.exps[k * self.n_vars..(k + 1) * self.n_vars];
            for (o, &e) in out.iter_mut().zip(row) {
                if e != 0 {
                    *o += f64::from(e) * tv;
                }
            }
        }
    }

    /// Evaluate at `x` together with the derivative of the value with respect
    /// to a common log-scale `s` applied to the variables selected by
    /// `active`:
    ///
    /// ```text
    ///   d/ds Σ_k c_k ∏_t (x_t·e^{s·[active t]})^{e_{k,t}} |_{s=0}
    ///     = Σ_k term_k · Σ_{t active} e_{k,t}
    /// ```
    ///
    /// This is the one derivative Newton constraint-projection needs.
    pub fn eval_and_scale_derivative(
        &self,
        x: &[f64],
        active: impl Fn(usize) -> bool,
    ) -> (f64, f64) {
        debug_assert_eq!(x.len(), self.n_vars);
        let mut value = 0.0;
        let mut derivative = 0.0;
        for k in 0..self.coeffs.len() {
            let tv = self.coeffs[k] * self.term_product(k, x);
            let row = &self.exps[k * self.n_vars..(k + 1) * self.n_vars];
            let mut active_deg = 0.0;
            for (t, &e) in row.iter().enumerate() {
                if e != 0 && active(t) {
                    active_deg += f64::from(e);
                }
            }
            value += tv;
            derivative += tv * active_deg;
        }
        (value, derivative)
    }

    /// `∏_t x_t^{e_{k,t}}` of term `k`.
    #[inline]
    fn term_product(&self, k: usize, x: &[f64]) -> f64 {
        let row = &self.exps[k * self.n_vars..(k + 1) * self.n_vars];
        let mut p = 1.0;
        for (&xi, &e) in x.iter().zip(row) {
            if e != 0 {
                p *= ipow(xi, e);
            }
        }
        p
    }
}

/// `x^e` by square-and-multiply, inlined into the term loops.
///
/// Bit-identical to `x.powi(e)`: `powi` with a run-time exponent lowers to a
/// call of the runtime's `__powidf2`, which runs exactly this sequence —
/// start from `x` (odd `e`) or `1`, square the base once per remaining bit of
/// `|e|` and multiply it in where the bit is set, and take `1 / y` for a
/// negative exponent.  Every rounding happens in the same order, so solver
/// iterates, cached solutions and stored records keep their `f64` bits; the
/// inline form only drops the out-of-line call from the KKT hot loop.  The
/// exponents of Lemma-3 terms are small, so the common cases `e = 1`
/// (`x`) and `e = 2` (`x * x`) leave the loop at once.
#[inline]
fn ipow(x: f64, e: i16) -> f64 {
    let mut n = e.unsigned_abs();
    let mut base = x;
    let mut y = if n & 1 != 0 { x } else { 1.0 };
    n >>= 1;
    while n != 0 {
        base *= base;
        if n & 1 != 0 {
            y *= base;
        }
        n >>= 1;
    }
    if e < 0 {
        1.0 / y
    } else {
        y
    }
}

/// A posynomial whose monomials may carry `max`/`min` factors over pure
/// posynomials — the shape of §5.1/§5.3 conservative-union dominators
/// (`max(D_r, D_w)·D_c`, or a top-level `max` of whole Lemma-3 sizes).
///
/// Piecewise-posynomial: evaluation takes the max/min over each atom's
/// branches, and the analytic log-gradient routes through the *selected*
/// branch (valid almost everywhere; the damped KKT iteration only ever needs
/// a subgradient at the kinks).
#[derive(Clone, Debug, PartialEq)]
pub struct MaxPosynomial {
    n_vars: usize,
    /// Per-term coefficients.
    coeffs: Vec<f64>,
    /// Per-term coefficients as exact rationals (canonical keys).
    rat_coeffs: Vec<Rational>,
    /// Dense `n_terms × n_vars` exponent matrix of the monomial parts.
    exps: Vec<i16>,
    /// Per-term `(start, len)` slice into `atom_refs`.
    term_atoms: Vec<(u32, u32)>,
    /// Flattened atom indices of all terms.
    atom_refs: Vec<u32>,
    /// The distinct max/min atoms.
    atoms: Vec<MaxAtom>,
}

/// One `max`/`min` factor over pure posynomial branches.
#[derive(Clone, Debug, PartialEq)]
struct MaxAtom {
    branches: Vec<CompiledPosynomial>,
    is_min: bool,
}

/// Reusable scratch buffers for [`MaxPosynomial`] evaluation, sized on first
/// use; one instance per solve keeps the hot loop allocation-free.
#[derive(Clone, Debug, Default)]
pub struct MaxScratch {
    /// Selected value per atom.
    atom_values: Vec<f64>,
    /// Per-branch values of the atom currently being prepared.
    branch_values: Vec<f64>,
    /// Subgradient of the atom, `n_atoms × n_vars` row-major.
    atom_grads: Vec<f64>,
    /// Per-branch term values (sized to the largest branch).
    branch_terms: Vec<f64>,
    /// Gradient accumulator for one branch.
    branch_grad: Vec<f64>,
    /// The relative tie window used by the next gradient evaluation; values
    /// `< TIE_REL_FLOOR` (including the default 0) fall back to the floor.
    tie_window: f64,
}

/// The minimum (and default) relative tie window: branches this close to the
/// selected one always average their gradients, mirroring what central
/// differences of the `Expr` tree (the tests' reference solver) do at kinks.
pub const TIE_REL_FLOOR: f64 = 1e-4;

impl MaxScratch {
    /// Set the relative tie window for subsequent gradient evaluations.
    ///
    /// Branches within this relative distance of the selected one count as
    /// tied and average their gradients — a Polyak-style smoothing of the
    /// `max`.  The trust-region KKT solve starts wide (smooth surrogate, no
    /// kink oscillation while the iterates travel) and anneals down to
    /// [`TIE_REL_FLOOR`] (the exact subgradient, matching the reference
    /// path's central differences).
    pub fn set_tie_window(&mut self, window: f64) {
        self.tie_window = window;
    }
}

impl MaxPosynomial {
    /// Lower `expr` into max-posynomial form over the given variable order.
    ///
    /// Returns `None` when even this form does not fit: fractional powers,
    /// unknown symbols, `max`/`min` with non-posynomial branches, or nested
    /// `max` under a power.
    pub fn compile(expr: &Expr, vars: &[String]) -> Option<MaxPosynomial> {
        Self::from_expanded(&expr.expand(), vars)
    }

    /// [`Self::compile`] of an expression that is already `expand()`ed (see
    /// [`CompiledPosynomial::from_expanded`]).
    pub(crate) fn from_expanded(expanded: &Expr, vars: &[String]) -> Option<MaxPosynomial> {
        let n_vars = vars.len();
        let terms: Vec<&Expr> = match expanded {
            Expr::Add(items) => items.iter().collect(),
            other => vec![other],
        };
        let mut out = MaxPosynomial {
            n_vars,
            coeffs: Vec::with_capacity(terms.len()),
            rat_coeffs: Vec::with_capacity(terms.len()),
            exps: vec![0i16; terms.len() * n_vars],
            term_atoms: Vec::with_capacity(terms.len()),
            atom_refs: Vec::new(),
            atoms: Vec::new(),
        };
        for (k, term) in terms.iter().enumerate() {
            let start = out.atom_refs.len() as u32;
            let row_range = k * n_vars..(k + 1) * n_vars;
            let mut coeff = Rational::ONE;
            let factors: Vec<&Expr> = match term {
                Expr::Mul(items) => items.iter().collect(),
                other => vec![other],
            };
            for f in factors {
                match f {
                    Expr::Max(items) | Expr::Min(items) => {
                        let branches: Option<Vec<CompiledPosynomial>> = items
                            .iter()
                            .map(|b| CompiledPosynomial::compile(b, vars))
                            .collect();
                        let atom = MaxAtom {
                            branches: branches?,
                            is_min: matches!(f, Expr::Min(_)),
                        };
                        let idx = out
                            .atoms
                            .iter()
                            .position(|a| *a == atom)
                            .unwrap_or_else(|| {
                                out.atoms.push(atom);
                                out.atoms.len() - 1
                            });
                        out.atom_refs.push(idx as u32);
                    }
                    other => {
                        let row = &mut out.exps[row_range.clone()];
                        coeff *= compile_term(other, vars, row)?;
                    }
                }
            }
            out.coeffs.push(coeff.to_f64());
            out.rat_coeffs.push(coeff);
            out.term_atoms
                .push((start, out.atom_refs.len() as u32 - start));
        }
        Some(out)
    }

    /// Assemble a max-posynomial directly from its parts: per-term monomial
    /// rows (`n_vars` exponents, exact coefficient, atom indices into
    /// `atoms`) and the atom list (`is_min` flag plus posynomial branches).
    ///
    /// The structural dual of [`MaxPosynomial::compile`], used by the
    /// cross-subgraph solve cache to rebuild a canonical model's compiled
    /// form straight from its canonical key (see
    /// [`CompiledPosynomial::from_rows`]).
    pub fn from_parts(
        n_vars: usize,
        terms: &[(Vec<i16>, Rational, Vec<u32>)],
        atoms: Vec<(bool, Vec<CompiledPosynomial>)>,
    ) -> MaxPosynomial {
        let mut out = MaxPosynomial {
            n_vars,
            coeffs: Vec::with_capacity(terms.len()),
            rat_coeffs: Vec::with_capacity(terms.len()),
            exps: Vec::with_capacity(terms.len() * n_vars),
            term_atoms: Vec::with_capacity(terms.len()),
            atom_refs: Vec::new(),
            atoms: atoms
                .into_iter()
                .map(|(is_min, branches)| MaxAtom { branches, is_min })
                .collect(),
        };
        for (row, coeff, atom_ids) in terms {
            debug_assert_eq!(row.len(), n_vars);
            let start = out.atom_refs.len() as u32;
            out.coeffs.push(coeff.to_f64());
            out.rat_coeffs.push(*coeff);
            out.exps.extend_from_slice(row);
            debug_assert!(atom_ids.iter().all(|&j| (j as usize) < out.atoms.len()));
            out.atom_refs.extend_from_slice(atom_ids);
            out.term_atoms.push((start, atom_ids.len() as u32));
        }
        out
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Number of terms (rows of the monomial-part exponent matrix).
    pub fn n_terms(&self) -> usize {
        self.coeffs.len()
    }

    /// The monomial-part exponent row of term `k`.
    pub fn exponent_row(&self, k: usize) -> &[i16] {
        &self.exps[k * self.n_vars..(k + 1) * self.n_vars]
    }

    /// The exact rational coefficient of term `k`.
    pub fn rational_coeff(&self, k: usize) -> Rational {
        self.rat_coeffs[k]
    }

    /// The atom indices attached to term `k` (indices into the atom list).
    pub fn term_atom_indices(&self, k: usize) -> &[u32] {
        let (start, len) = self.term_atoms[k];
        &self.atom_refs[start as usize..(start + len) as usize]
    }

    /// Number of distinct max/min atoms.
    pub fn n_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Whether atom `j` is a `min` (as opposed to a `max`).
    pub fn atom_is_min(&self, j: usize) -> bool {
        self.atoms[j].is_min
    }

    /// The pure-posynomial branches of atom `j`.
    pub fn atom_branches(&self, j: usize) -> &[CompiledPosynomial] {
        &self.atoms[j].branches
    }

    /// The monomial parts alone as a pure posynomial (atom factors dropped).
    ///
    /// Used by the canonical model key: the monomial-part matrix participates
    /// in the variable-signature refinement exactly like a pure dominator.
    pub fn monomial_part(&self) -> CompiledPosynomial {
        CompiledPosynomial {
            n_vars: self.n_vars,
            coeffs: self.coeffs.clone(),
            rat_coeffs: self.rat_coeffs.clone(),
            exps: self.exps.clone(),
        }
    }

    fn prepare_atoms(&self, x: &[f64], scratch: &mut MaxScratch, with_grads: bool) {
        // Branches within the tie window of the selected value count as tied;
        // the subgradient averages their gradients.  Symmetric optima sit
        // exactly on the kink (`max(D_i·D_j, D_i·D_k)` with `D_j = D_k`),
        // where a one-sided argmax gradient would break the symmetry and
        // drive the KKT iteration away — central differences of the `Expr`
        // tree average the two slopes there, and so do we.
        let tie_rel = scratch.tie_window.max(TIE_REL_FLOOR);
        let n_atoms = self.atoms.len();
        scratch.atom_values.resize(n_atoms, 0.0);
        if with_grads {
            scratch.atom_grads.resize(n_atoms * self.n_vars, 0.0);
            scratch.branch_grad.resize(self.n_vars, 0.0);
        }
        for (j, atom) in self.atoms.iter().enumerate() {
            scratch.branch_values.resize(atom.branches.len(), 0.0);
            let mut best_v = f64::NAN;
            for (b, branch) in atom.branches.iter().enumerate() {
                let v = branch.eval(x);
                scratch.branch_values[b] = v;
                let better = b == 0 || (atom.is_min && v < best_v) || (!atom.is_min && v > best_v);
                if better {
                    best_v = v;
                }
            }
            scratch.atom_values[j] = best_v;
            if with_grads {
                let grad_range = j * self.n_vars..(j + 1) * self.n_vars;
                scratch.atom_grads[grad_range.clone()].fill(0.0);
                let mut tied = 0usize;
                for (b, branch) in atom.branches.iter().enumerate() {
                    let rel_gap =
                        (scratch.branch_values[b] - best_v).abs() / best_v.abs().max(1e-300);
                    if rel_gap > tie_rel {
                        continue;
                    }
                    tied += 1;
                    scratch.branch_terms.resize(branch.n_terms(), 0.0);
                    branch.eval_terms(x, &mut scratch.branch_terms[..branch.n_terms()]);
                    branch.grad_log_from_terms(
                        &scratch.branch_terms[..branch.n_terms()],
                        &mut scratch.branch_grad,
                    );
                    for (acc, g) in scratch.atom_grads[grad_range.clone()]
                        .iter_mut()
                        .zip(&scratch.branch_grad)
                    {
                        *acc += g;
                    }
                }
                if tied > 1 {
                    for g in &mut scratch.atom_grads[grad_range] {
                        *g /= tied as f64;
                    }
                }
            }
        }
    }

    /// Evaluate at `x` (allocation-free after scratch warm-up).
    pub fn eval(&self, x: &[f64], scratch: &mut MaxScratch) -> f64 {
        self.prepare_atoms(x, scratch, false);
        let mut acc = 0.0;
        for k in 0..self.coeffs.len() {
            acc += self.term_value(k, x, scratch);
        }
        acc
    }

    /// Evaluate at `x` and fill the analytic log-space gradient:
    /// `grad[t] = ∂/∂log x_t`, routing each atom through its selected branch.
    pub fn eval_grad(&self, x: &[f64], grad: &mut [f64], scratch: &mut MaxScratch) -> f64 {
        debug_assert_eq!(grad.len(), self.n_vars);
        self.prepare_atoms(x, scratch, true);
        grad.fill(0.0);
        let mut acc = 0.0;
        for k in 0..self.coeffs.len() {
            let tv = self.term_value(k, x, scratch);
            acc += tv;
            if tv == 0.0 {
                continue;
            }
            let row = &self.exps[k * self.n_vars..(k + 1) * self.n_vars];
            let (start, len) = self.term_atoms[k];
            // d term/dlog x_t = term · (e_{k,t} + Σ_j ∂log atom_j/∂log x_t).
            for (t, g) in grad.iter_mut().enumerate() {
                let mut factor = f64::from(row[t]);
                for &j in &self.atom_refs[start as usize..(start + len) as usize] {
                    let j = j as usize;
                    let v = scratch.atom_values[j];
                    if v != 0.0 {
                        factor += scratch.atom_grads[j * self.n_vars + t] / v;
                    }
                }
                if factor != 0.0 {
                    *g += tv * factor;
                }
            }
        }
        acc
    }

    /// `coeff_k · ∏ x^e · ∏ atom values` of term `k` (atoms pre-evaluated).
    fn term_value(&self, k: usize, x: &[f64], scratch: &MaxScratch) -> f64 {
        let row = &self.exps[k * self.n_vars..(k + 1) * self.n_vars];
        let mut p = self.coeffs[k];
        for (&xi, &e) in x.iter().zip(row) {
            if e != 0 {
                p *= ipow(xi, e);
            }
        }
        let (start, len) = self.term_atoms[k];
        for &j in &self.atom_refs[start as usize..(start + len) as usize] {
            p *= scratch.atom_values[j as usize];
        }
        p
    }
}

/// Compile one expanded term (a monomial) into its coefficient and exponent
/// row; `None` when the term is not a monomial over `vars`.
fn compile_term(term: &Expr, vars: &[String], row: &mut [i16]) -> Option<Rational> {
    let mut coeff = Rational::ONE;
    let factors: Vec<&Expr> = match term {
        Expr::Mul(items) => items.iter().collect(),
        other => vec![other],
    };
    for f in factors {
        match f {
            Expr::Num(r) => coeff *= *r,
            Expr::Sym(s) => {
                let t = var_index(vars, s.as_str())?;
                row[t] = row[t].checked_add(1)?;
            }
            Expr::Pow(base, e) => {
                let Expr::Sym(s) = &**base else { return None };
                if !e.is_integer() {
                    return None;
                }
                let t = var_index(vars, s.as_str())?;
                let e = i16::try_from(e.numer()).ok()?;
                row[t] = row[t].checked_add(e)?;
            }
            // Max/Min (the conservative-union fallback) and nested sums (only
            // possible under fractional powers after expand()) are not
            // posynomial material.
            _ => return None,
        }
    }
    Some(coeff)
}

fn var_index(vars: &[String], name: &str) -> Option<usize> {
    vars.iter().position(|v| v == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn d(name: &str) -> Expr {
        Expr::sym(name)
    }

    fn vars(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn compiles_and_evaluates_the_mmm_dominator() {
        // Di·Dk + Dk·Dj + Di·Dj
        let g = d("Di")
            .mul(d("Dk"))
            .add(d("Dk").mul(d("Dj")))
            .add(d("Di").mul(d("Dj")));
        let p = CompiledPosynomial::compile(&g, &vars(&["Di", "Dj", "Dk"])).unwrap();
        assert_eq!(p.n_terms(), 3);
        assert_eq!(p.eval(&[2.0, 3.0, 5.0]), 2.0 * 5.0 + 5.0 * 3.0 + 2.0 * 3.0);
    }

    #[test]
    fn gradient_matches_symbolic_derivative() {
        // f = 2·Di²·Dj + 3·Dj; ∂f/∂log Di = 2·2·Di²·Dj, ∂f/∂log Dj = 2·Di²·Dj + 3·Dj.
        let f = Expr::int(2)
            .mul(d("Di").pow(Rational::int(2)))
            .mul(d("Dj"))
            .add(Expr::int(3).mul(d("Dj")));
        let p = CompiledPosynomial::compile(&f, &vars(&["Di", "Dj"])).unwrap();
        let x = [3.0, 7.0];
        let mut terms = vec![0.0; p.n_terms()];
        let total = p.eval_terms(&x, &mut terms);
        assert_eq!(total, 2.0 * 9.0 * 7.0 + 21.0);
        let mut grad = vec![0.0; 2];
        p.grad_log_from_terms(&terms, &mut grad);
        assert_eq!(grad[0], 2.0 * 2.0 * 9.0 * 7.0);
        assert_eq!(grad[1], 2.0 * 9.0 * 7.0 + 21.0);
    }

    #[test]
    fn expansion_happens_during_compilation() {
        // (Di − 2)·(Dj − 1) has integer-exponent monomials after expansion.
        let f = d("Di").sub(Expr::int(2)).mul(d("Dj").sub(Expr::one()));
        let p = CompiledPosynomial::compile(&f, &vars(&["Di", "Dj"])).unwrap();
        let mut b = BTreeMap::new();
        b.insert("Di".to_string(), 9.0);
        b.insert("Dj".to_string(), 4.0);
        assert_eq!(p.eval(&[9.0, 4.0]), f.eval(&b).unwrap());
    }

    #[test]
    fn non_posynomials_are_rejected() {
        let m = d("Di").max(d("Dj"));
        assert!(CompiledPosynomial::compile(&m, &vars(&["Di", "Dj"])).is_none());
        let frac = d("Di").pow(Rational::new(1, 2));
        assert!(CompiledPosynomial::compile(&frac, &vars(&["Di"])).is_none());
        let unknown = d("Di").mul(d("Dz"));
        assert!(CompiledPosynomial::compile(&unknown, &vars(&["Di"])).is_none());
    }

    #[test]
    fn ipow_is_bit_identical_to_powi() {
        // 0, 1, every power of two up to 2^996, and a geometric sweep with
        // ratio 1.37 from 1 up to 1e300 (inexact mantissas, so the rounding
        // order of every squaring and multiply is exercised).
        let mut xs = vec![0.0, 1.0];
        xs.extend((1..=996).map(|k| 2f64.powi(k)));
        let mut x = 1.0f64;
        while x <= 1e300 {
            xs.push(x);
            x *= 1.37;
        }
        xs.push(1e300);
        for &x in &xs {
            for e in -16i16..=16 {
                // black_box keeps the library call: a constant exponent would
                // be expanded inline by the compiler.
                let expected = x.powi(std::hint::black_box(i32::from(e)));
                assert_eq!(
                    ipow(x, e).to_bits(),
                    expected.to_bits(),
                    "ipow({x:e}, {e}) = {:e}, powi gives {expected:e}",
                    ipow(x, e)
                );
            }
        }
    }

    #[test]
    fn constant_terms_have_empty_rows() {
        let f = d("Di").add(Expr::int(5));
        let p = CompiledPosynomial::compile(&f, &vars(&["Di"])).unwrap();
        assert_eq!(p.eval(&[10.0]), 15.0);
        let constant_row: Vec<i16> = (0..p.n_terms())
            .find(|&k| p.rational_coeff(k) == Rational::int(5))
            .map(|k| p.exponent_row(k).to_vec())
            .unwrap();
        assert_eq!(constant_row, vec![0]);
    }
}
