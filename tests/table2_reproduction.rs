//! Integration test: the end-to-end pipeline reproduces the paper's Table-2
//! constants for a representative subset of kernels (exact-match rows) and
//! stays within the documented deviation envelope for the rest.

use soap::baselines::sota_bound;
use soap::kernels::{by_name, registry};
use soap::sdg::{analyze_program, SdgOptions, SolveCache};
use std::collections::BTreeMap;

fn bindings_for(kernel: &str) -> BTreeMap<String, f64> {
    let entry = by_name(kernel).expect("kernel exists");
    let mut b: BTreeMap<String, f64> = entry
        .program
        .parameters()
        .into_iter()
        .map(|p| (p, 128.0))
        .collect();
    b.insert("S".to_string(), 256.0);
    b
}

fn derived_over_paper(kernel: &str) -> f64 {
    let entry = by_name(kernel).expect("kernel exists");
    let opts = SdgOptions {
        assume_injective: entry.assume_injective,
        ..SdgOptions::default()
    };
    let analysis = analyze_program(&entry.program, &opts, &SolveCache::new(), None)
        .expect("analysis succeeds");
    let b = bindings_for(kernel);
    let derived = analysis.bound.eval(&b).expect("derived bound evaluates");
    let paper = sota_bound(kernel)
        .expect("table entry exists")
        .paper_soap_bound
        .eval(&b)
        .expect("paper bound evaluates");
    derived / paper
}

#[test]
fn linear_algebra_rows_match_the_paper() {
    for kernel in [
        "gemm", "2mm", "3mm", "symm", "trmm", "lu", "ludcmp", "doitgen",
    ] {
        let ratio = derived_over_paper(kernel);
        assert!(
            (ratio - 1.0).abs() < 0.06,
            "{kernel}: derived/paper = {ratio}"
        );
    }
}

#[test]
fn cholesky_improves_on_prior_work_by_two() {
    let ratio = derived_over_paper("cholesky");
    assert!((ratio - 1.0).abs() < 0.06, "cholesky ratio {ratio}");
    let t = sota_bound("cholesky").unwrap();
    let b = bindings_for("cholesky");
    let improvement = t.paper_soap_bound.eval(&b).unwrap() / t.prior_bound().eval(&b).unwrap();
    assert!((improvement - 2.0).abs() < 1e-9);
}

#[test]
fn stencil_rows_match_the_paper() {
    for kernel in ["jacobi-1d", "jacobi-2d", "seidel-2d", "heat-3d"] {
        let ratio = derived_over_paper(kernel);
        assert!(
            (ratio - 1.0).abs() < 0.08,
            "{kernel}: derived/paper = {ratio}"
        );
    }
}

#[test]
fn bandwidth_bound_rows_match_the_paper() {
    for kernel in ["atax", "bicg", "mvt", "gemver", "gesummv", "trisolv"] {
        let ratio = derived_over_paper(kernel);
        assert!(
            (ratio - 1.0).abs() < 0.05,
            "{kernel}: derived/paper = {ratio}"
        );
    }
}

#[test]
fn all_rows_stay_within_the_documented_envelope() {
    // Not every row matches the paper: durbin, adi, softmax, deriche,
    // syrk/syr2k, floyd-warshall and others derive smaller (still valid)
    // bounds, while gramschmidt and bert-encoder derive larger ones.  The
    // measured rows are listed under "Table 2 gaps" in docs/CORRECTNESS.md;
    // nothing may blow up above ~2.5× of the paper value.
    for entry in registry() {
        let ratio = derived_over_paper(entry.name);
        assert!(
            ratio > 5e-4 && ratio < 2.5,
            "{}: derived/paper ratio {ratio} outside the documented envelope",
            entry.name
        );
    }
}

#[test]
fn every_kernel_produces_a_finite_positive_bound() {
    for entry in registry() {
        let opts = SdgOptions {
            assume_injective: entry.assume_injective,
            ..SdgOptions::default()
        };
        let analysis = analyze_program(&entry.program, &opts, &SolveCache::new(), None)
            .unwrap_or_else(|e| panic!("{} failed: {e}", entry.name));
        let b = bindings_for(entry.name);
        let q = analysis.bound.eval(&b).unwrap_or(f64::NAN);
        assert!(q.is_finite() && q > 0.0, "{}: bound {q}", entry.name);
    }
}
