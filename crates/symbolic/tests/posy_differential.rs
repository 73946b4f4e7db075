//! Differential property tests for the compiled posynomial core: over
//! randomized posynomials, the compiled evaluation must match `Expr::eval`
//! exactly (same multiset of monomials, IEEE-summed), and the analytic
//! log-space gradients must match central differences of the `Expr` tree.
//! The compiled KKT solver is pinned against the `Expr`-eval reference
//! solver of the test support.

#[path = "support/reference_solver.rs"]
mod reference_solver;

use reference_solver::ReferenceProblem;
use soap_symbolic::opt::ProductSolution;
use soap_symbolic::posy::TIE_REL_FLOOR;
use soap_symbolic::{
    fit_power_law, CompiledPosynomial, ConstrainedProduct, Expr, MaxPosynomial, MaxScratch,
    Rational,
};
use std::collections::BTreeMap;

/// Deterministic xorshift64* generator so every run checks the same cases.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A point component in `[1, 50)` — the extents the solver visits.
    fn point(&mut self) -> f64 {
        1.0 + (self.next() % 4900) as f64 / 100.0
    }
}

fn var_names(n: usize) -> Vec<String> {
    (0..n).map(|t| format!("D_{t}")).collect()
}

/// A random posynomial over `n` variables: `terms` monomials with integer
/// coefficients in `1..=9` and exponents in `0..=3`.
fn random_posynomial(rng: &mut XorShift, n: usize, terms: usize) -> Expr {
    let vars = var_names(n);
    let mut sum = Expr::zero();
    for _ in 0..terms {
        let mut term = Expr::int(1 + rng.below(9) as i64);
        for v in &vars {
            let e = rng.below(4) as i128;
            if e > 0 {
                term = term.mul(Expr::sym(v).pow(Rational::int(e)));
            }
        }
        sum = sum.add(term);
    }
    sum
}

fn bindings(vars: &[String], x: &[f64]) -> BTreeMap<String, f64> {
    vars.iter().cloned().zip(x.iter().copied()).collect()
}

#[test]
fn compiled_eval_matches_expr_eval_on_random_posynomials() {
    let mut rng = XorShift(0x5eed0001);
    for case in 0..200 {
        let n = 1 + rng.below(6) as usize;
        let terms = 1 + rng.below(8) as usize;
        let vars = var_names(n);
        let e = random_posynomial(&mut rng, n, terms);
        let p = CompiledPosynomial::compile(&e, &vars)
            .unwrap_or_else(|| panic!("case {case}: posynomial failed to compile: {e}"));
        for _ in 0..5 {
            let x: Vec<f64> = (0..n).map(|_| rng.point()).collect();
            let expected = e.eval(&bindings(&vars, &x)).unwrap();
            let got = p.eval(&x);
            let rel = (got - expected).abs() / expected.abs().max(1.0);
            assert!(
                rel < 1e-12,
                "case {case}: eval mismatch at {x:?}: {got} vs {expected} ({e})"
            );
        }
    }
}

#[test]
fn analytic_gradients_match_central_differences() {
    let mut rng = XorShift(0x5eed0002);
    for case in 0..100 {
        let n = 1 + rng.below(5) as usize;
        let terms = 1 + rng.below(6) as usize;
        let vars = var_names(n);
        let e = random_posynomial(&mut rng, n, terms);
        let p = CompiledPosynomial::compile(&e, &vars).expect("posynomial compiles");
        let x: Vec<f64> = (0..n).map(|_| rng.point()).collect();
        let mut term_values = vec![0.0; p.n_terms()];
        p.eval_terms(&x, &mut term_values);
        let mut grad = vec![0.0; n];
        p.grad_log_from_terms(&term_values, &mut grad);
        // Central differences of Expr::eval in log space.  The error scale
        // includes the function value: the FD quotient carries cancellation
        // noise of order `ulp(f)/h`, so a gradient component tiny relative to
        // `f` cannot be resolved more precisely than that.
        let f_val = e.eval(&bindings(&vars, &x)).unwrap();
        let h: f64 = 1e-5;
        for t in 0..n {
            let mut up = x.clone();
            let mut dn = x.clone();
            up[t] *= h.exp();
            dn[t] *= (-h).exp();
            let fd = (e.eval(&bindings(&vars, &up)).unwrap()
                - e.eval(&bindings(&vars, &dn)).unwrap())
                / (2.0 * h);
            let scale = f_val.abs() + grad[t].abs();
            assert!(
                (grad[t] - fd).abs() / scale < 1e-5,
                "case {case}: d/dlog {} mismatch: analytic {} vs fd {} ({e})",
                vars[t],
                grad[t],
                fd
            );
        }
    }
}

#[test]
fn max_posynomial_eval_and_gradient_match_expr() {
    let mut rng = XorShift(0x5eed0003);
    for case in 0..100 {
        let n = 2 + rng.below(4) as usize;
        let vars = var_names(n);
        // base posynomial + max(p1, p2)·monomial — the merged-dominator shape.
        let (t0, t1, t2) = (
            1 + rng.below(4) as usize,
            1 + rng.below(3) as usize,
            1 + rng.below(3) as usize,
        );
        let base = random_posynomial(&mut rng, n, t0);
        let b1 = random_posynomial(&mut rng, n, t1);
        let b2 = random_posynomial(&mut rng, n, t2);
        let factor = Expr::sym(&vars[rng.below(n as u64) as usize]);
        let e = base.clone().add(b1.clone().max(b2.clone()).mul(factor));
        let m = MaxPosynomial::compile(&e, &vars)
            .unwrap_or_else(|| panic!("case {case}: max-posynomial failed to compile: {e}"));
        let mut scratch = MaxScratch::default();
        for _ in 0..5 {
            let x: Vec<f64> = (0..n).map(|_| rng.point()).collect();
            let expected = e.eval(&bindings(&vars, &x)).unwrap();
            let got = m.eval(&x, &mut scratch);
            let rel = (got - expected).abs() / expected.abs().max(1.0);
            assert!(
                rel < 1e-12,
                "case {case}: max-eval mismatch at {x:?}: {got} vs {expected}"
            );
            // Gradient vs central differences, skipping points too close to a
            // kink (where the subgradient and the straddling difference
            // legitimately disagree).
            let v1 = b1.eval(&bindings(&vars, &x)).unwrap();
            let v2 = b2.eval(&bindings(&vars, &x)).unwrap();
            if (v1 - v2).abs() < 1e-3 * v1.abs().max(v2.abs()) {
                continue;
            }
            let mut grad = vec![0.0; n];
            m.eval_grad(&x, &mut grad, &mut scratch);
            let h: f64 = 1e-5;
            for t in 0..n {
                let mut up = x.clone();
                let mut dn = x.clone();
                up[t] *= h.exp();
                dn[t] *= (-h).exp();
                let fd = (e.eval(&bindings(&vars, &up)).unwrap()
                    - e.eval(&bindings(&vars, &dn)).unwrap())
                    / (2.0 * h);
                let scale = expected.abs() + grad[t].abs();
                assert!(
                    (grad[t] - fd).abs() / scale < 1e-4,
                    "case {case}: max-grad d/dlog {} mismatch: {} vs {}",
                    vars[t],
                    grad[t],
                    fd
                );
            }
        }
    }
}

#[test]
fn eval_single_agrees_with_map_eval_on_random_intensities() {
    let mut rng = XorShift(0x5eed0004);
    for _ in 0..100 {
        // c · S^(p/q) — the shape of every intensity expression.
        let c = Rational::new(1 + rng.below(20) as i128, 1 + rng.below(6) as i128);
        let p = rng.below(5) as i128;
        let q = 1 + rng.below(4) as i128;
        let rho = Expr::num(c).mul(Expr::sym("S").pow(Rational::new(p, q)));
        let s = 1.0 + rng.below(1_000_000) as f64;
        let mut b = BTreeMap::new();
        b.insert("S".to_string(), s);
        assert_eq!(rho.eval_single("S", s), rho.eval(&b));
    }
}

/// `1..=max_terms` random term rows over `n` variables: exponents in
/// `-4..=6` (zero about a third of the time, as in merged models) and
/// coefficients `p/q` with `p ∈ 1..=9`, `q ∈ 1..=4`.
fn random_rows(rng: &mut XorShift, n: usize, max_terms: u64) -> Vec<(Vec<i16>, Rational)> {
    let terms = 1 + rng.below(max_terms);
    (0..terms)
        .map(|_| {
            let row = (0..n)
                .map(|_| {
                    if rng.below(3) == 0 {
                        0
                    } else {
                        rng.below(11) as i16 - 4
                    }
                })
                .collect();
            let c = Rational::new(1 + rng.below(9) as i128, 1 + rng.below(4) as i128);
            (row, c)
        })
        .collect()
}

/// A point with components spread over `[1/16, 64)`, so negative exponents
/// and fractional bases both occur.
fn wide_point(rng: &mut XorShift, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            (1.0 + (rng.next() % 1000) as f64 / 1000.0) * f64::powi(2.0, rng.below(10) as i32 - 4)
        })
        .collect()
}

/// The naive evaluator the compiled forms must equal bit for bit: per term,
/// `Π_t x_t^{e_t}` through the library `powi`, multiplied in variable order.
fn naive_product(mut p: f64, row: &[i16], x: &[f64]) -> f64 {
    for (&xi, &e) in x.iter().zip(row) {
        if e != 0 {
            p *= xi.powi(i32::from(e));
        }
    }
    p
}

/// Naive per-term values `c_k · Π_t x_t^{e_{k,t}}` of a compiled posynomial.
fn naive_terms(p: &CompiledPosynomial, x: &[f64]) -> Vec<f64> {
    (0..p.n_terms())
        .map(|k| p.rational_coeff(k).to_f64() * naive_product(1.0, p.exponent_row(k), x))
        .collect()
}

fn naive_eval(p: &CompiledPosynomial, x: &[f64]) -> f64 {
    naive_terms(p, x).iter().fold(0.0, |acc, t| acc + t)
}

fn naive_grad_log(p: &CompiledPosynomial, terms: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; p.n_vars()];
    for (k, &tv) in terms.iter().enumerate() {
        for (o, &e) in out.iter_mut().zip(p.exponent_row(k)) {
            if e != 0 {
                *o += f64::from(e) * tv;
            }
        }
    }
    out
}

/// Naive `MaxPosynomial::eval_grad` at the default tie window: atoms take
/// the max/min branch value, tied branches average their gradients, and each
/// term is `c_k · Π x^e · Π atoms`.
fn naive_max_eval_grad(m: &MaxPosynomial, x: &[f64]) -> (f64, Vec<f64>) {
    let n = m.n_vars();
    let mut atom_values = Vec::new();
    let mut atom_grads = Vec::new();
    for j in 0..m.n_atoms() {
        let values: Vec<f64> = m
            .atom_branches(j)
            .iter()
            .map(|b| naive_eval(b, x))
            .collect();
        let mut best = f64::NAN;
        for (b, &v) in values.iter().enumerate() {
            if b == 0 || (m.atom_is_min(j) && v < best) || (!m.atom_is_min(j) && v > best) {
                best = v;
            }
        }
        let mut grad = vec![0.0; n];
        let mut tied = 0usize;
        for (branch, &v) in m.atom_branches(j).iter().zip(&values) {
            if (v - best).abs() / best.abs().max(1e-300) > TIE_REL_FLOOR {
                continue;
            }
            tied += 1;
            let g = naive_grad_log(branch, &naive_terms(branch, x));
            for (acc, g) in grad.iter_mut().zip(g) {
                *acc += g;
            }
        }
        if tied > 1 {
            for g in &mut grad {
                *g /= tied as f64;
            }
        }
        atom_values.push(best);
        atom_grads.push(grad);
    }
    let mut acc = 0.0;
    let mut grad = vec![0.0; n];
    for k in 0..m.n_terms() {
        let atoms = m.term_atom_indices(k);
        let mut tv = naive_product(m.rational_coeff(k).to_f64(), m.exponent_row(k), x);
        for &j in atoms {
            tv *= atom_values[j as usize];
        }
        acc += tv;
        if tv == 0.0 {
            continue;
        }
        for (t, g) in grad.iter_mut().enumerate() {
            let mut factor = f64::from(m.exponent_row(k)[t]);
            for &j in atoms {
                let v = atom_values[j as usize];
                if v != 0.0 {
                    factor += atom_grads[j as usize][t] / v;
                }
            }
            if factor != 0.0 {
                *g += tv * factor;
            }
        }
    }
    (acc, grad)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn compiled_posynomials_equal_a_naive_powi_reference_bit_for_bit() {
    let mut rng = XorShift(0x5eed0005);
    for case in 0..300 {
        let n = 1 + rng.below(6) as usize;
        let p = CompiledPosynomial::from_rows(n, &random_rows(&mut rng, n, 8));
        for _ in 0..4 {
            let x = wide_point(&mut rng, n);
            let expected_terms = naive_terms(&p, &x);
            let expected = naive_eval(&p, &x);
            assert_eq!(
                p.eval(&x).to_bits(),
                expected.to_bits(),
                "case {case}: eval at {x:?}"
            );
            let mut terms = vec![0.0; p.n_terms()];
            let total = p.eval_terms(&x, &mut terms);
            assert_eq!(
                total.to_bits(),
                expected.to_bits(),
                "case {case}: eval_terms sum"
            );
            assert_eq!(
                bits(&terms),
                bits(&expected_terms),
                "case {case}: term values"
            );
            let mut grad = vec![0.0; n];
            p.grad_log_from_terms(&terms, &mut grad);
            assert_eq!(
                bits(&grad),
                bits(&naive_grad_log(&p, &expected_terms)),
                "case {case}: log-gradient"
            );
            let mask = rng.next();
            let active = |t: usize| mask >> t & 1 == 1;
            let (value, derivative) = p.eval_and_scale_derivative(&x, active);
            let mut expected_derivative = 0.0;
            for (k, &tv) in expected_terms.iter().enumerate() {
                let mut deg = 0.0;
                for (t, &e) in p.exponent_row(k).iter().enumerate() {
                    if e != 0 && active(t) {
                        deg += f64::from(e);
                    }
                }
                expected_derivative += tv * deg;
            }
            assert_eq!(
                value.to_bits(),
                expected.to_bits(),
                "case {case}: scale value"
            );
            assert_eq!(
                derivative.to_bits(),
                expected_derivative.to_bits(),
                "case {case}: scale derivative"
            );
        }
    }
}

#[test]
fn max_posynomials_equal_a_naive_powi_reference_bit_for_bit() {
    let mut rng = XorShift(0x5eed0006);
    for case in 0..200 {
        let n = 2 + rng.below(4) as usize;
        let n_atoms = 1 + rng.below(2) as usize;
        let atoms: Vec<(bool, Vec<CompiledPosynomial>)> = (0..n_atoms)
            .map(|_| {
                let branches = (0..2 + rng.below(2))
                    .map(|_| {
                        let rows = random_rows(&mut rng, n, 3);
                        CompiledPosynomial::from_rows(n, &rows)
                    })
                    .collect();
                (rng.below(4) == 0, branches)
            })
            .collect();
        let terms: Vec<(Vec<i16>, Rational, Vec<u32>)> = random_rows(&mut rng, n, 5)
            .into_iter()
            .map(|(row, c)| {
                let ids = (0..n_atoms as u32).filter(|_| rng.below(2) == 0).collect();
                (row, c, ids)
            })
            .collect();
        let m = MaxPosynomial::from_parts(n, &terms, atoms);
        let mut scratch = MaxScratch::default();
        for _ in 0..4 {
            let x = wide_point(&mut rng, n);
            let (expected, expected_grad) = naive_max_eval_grad(&m, &x);
            assert_eq!(
                m.eval(&x, &mut scratch).to_bits(),
                expected.to_bits(),
                "case {case}: eval at {x:?}"
            );
            let mut grad = vec![0.0; n];
            let value = m.eval_grad(&x, &mut grad, &mut scratch);
            assert_eq!(
                value.to_bits(),
                expected.to_bits(),
                "case {case}: eval_grad value"
            );
            assert_eq!(
                bits(&grad),
                bits(&expected_grad),
                "case {case}: gradient at {x:?}"
            );
        }
    }
}

fn d(name: &str) -> Expr {
    Expr::sym(name)
}

/// A problem in both solvers' forms: compiled (it must compile) and the
/// `Expr`-eval reference.
fn both(
    variables: &[&str],
    objective: Expr,
    constraint: Expr,
) -> (ConstrainedProduct, ReferenceProblem) {
    let variables: Vec<String> = variables.iter().map(|v| v.to_string()).collect();
    let compiled = ConstrainedProduct::new(&variables, &objective, &constraint)
        .expect("the problem compiles to (max-)posynomial form");
    let reference = ReferenceProblem::new(&variables, &objective, &constraint);
    (compiled, reference)
}

/// An ungoverned cold-start compiled solve.
fn cold(p: &ConstrainedProduct, x: f64) -> ProductSolution {
    p.solve(x, None, None).unwrap().0
}

#[test]
fn compiled_and_reference_paths_agree() {
    // Matrix multiplication: χ = Di·Dj·Dk, g = Di·Dk + Dk·Dj + Di·Dj.
    let (di, dj, dk) = (d("Di"), d("Dj"), d("Dk"));
    let chi = di.clone().mul(dj.clone()).mul(dk.clone());
    let g = di
        .clone()
        .mul(dk.clone())
        .add(dk.clone().mul(dj.clone()))
        .add(di.clone().mul(dj.clone()));
    let (p, reference) = both(&["Di", "Dj", "Dk"], chi, g);
    for x in [1.0e5, 3.0e6, 1.0e8] {
        let fast = cold(&p, x);
        let slow = reference.solve(x, None).0;
        assert!(
            (fast.chi - slow.chi).abs() / slow.chi < 1e-6,
            "chi {} vs {}",
            fast.chi,
            slow.chi
        );
        for (a, b) in fast.extents.iter().zip(&slow.extents) {
            assert!((a - b).abs() / b < 1e-4, "extent {a} vs {b}");
        }
    }
    // The fitted laws must snap to the same rational exponent and the
    // same constant within the closed-form recognition tolerance.
    let fast_law = fit_power_law(|x, warm| p.solve(x, warm, None)).unwrap().0;
    let slow_law = fit_power_law(|x, warm| Ok(reference.solve(x, warm)))
        .unwrap()
        .0;
    assert_eq!(fast_law.exponent, slow_law.exponent);
    assert!((fast_law.coeff - slow_law.coeff).abs() / slow_law.coeff < 1e-6);
}

#[test]
fn max_dominators_compile_to_the_piecewise_form() {
    // A §5.3 conservative-union dominator containing Max compiles to the
    // max-posynomial form and must agree with the Expr reference solver.
    let (p, reference) = both(
        &["Dr", "Dw"],
        d("Dr").mul(d("Dw")),
        d("Dr").max(d("Dw")).add(d("Dr")),
    );
    let sol = cold(&p, 1000.0);
    let slow = reference.solve(1000.0, None).0;
    assert!(sol.chi.is_finite() && sol.chi > 0.0);
    assert!((sol.constraint_value - 1000.0).abs() < 1.0);
    assert!(
        (sol.chi - slow.chi).abs() / slow.chi < 1e-4,
        "chi {} vs {}",
        sol.chi,
        slow.chi
    );
    // Max-atoms *inside* monomials (non-injective subscripts like
    // Image[r+σ·w]: max(D_r,D_w)·D_c terms) compile too.
    let (conv, conv_reference) = both(
        &["Dr", "Dw", "Dc"],
        d("Dr").mul(d("Dw")).mul(d("Dc")),
        d("Dr").max(d("Dw")).mul(d("Dc")).add(d("Dr").mul(d("Dw"))),
    );
    let fast = cold(&conv, 1.0e6);
    let slow = conv_reference.solve(1.0e6, None).0;
    assert!((fast.constraint_value - 1.0e6).abs() < 1.0e3);
    // The analytic optimum is a²c with ac + a² = X at a² = X/3:
    // χ = √(X/3)·(2X/3) ≈ 3.849e8.  The compiled path must reach it; the
    // finite-difference reference is allowed to be (and is) a hair under.
    let analytic = (1.0e6f64 / 3.0).sqrt() * (2.0e6 / 3.0);
    assert!(
        (fast.chi - analytic).abs() / analytic < 1e-3,
        "chi {} vs analytic {analytic}",
        fast.chi
    );
    assert!(
        fast.chi >= slow.chi * (1.0 - 1e-3),
        "compiled regressed below reference"
    );
}
