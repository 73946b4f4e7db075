//! Integration test: source code in, symbolic bound out — the full toolchain
//! the paper describes (parser → SOAP IR → SDG analysis), for both dialects.

use soap::frontend::{parse_c, parse_python};
use soap::ir::Program;
use soap::sdg::{analyze_program, ProgramAnalysis, SdgOptions, SolveCache};
use std::collections::BTreeMap;

/// A default-options, private-cache, ungoverned analysis.
fn analyze(program: &Program) -> ProgramAnalysis {
    analyze_program(program, &SdgOptions::default(), &SolveCache::new(), None).unwrap()
}

fn eval(bound: &soap::symbolic::Expr, pairs: &[(&str, f64)]) -> f64 {
    let b: BTreeMap<String, f64> = pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    bound.eval(&b).unwrap()
}

#[test]
fn python_gemm_matches_builder_gemm() {
    let src = r#"
for i in range(0, N):
    for j in range(0, N):
        for k in range(0, N):
            C[i, j] += A[i, k] * B[k, j]
"#;
    let parsed = parse_python("gemm", src).unwrap();
    let from_source = analyze(&parsed);
    let builtin = soap::kernels::polybench::gemm();
    let from_builder = analyze(&builtin);
    let ratio = eval(&from_source.bound, &[("N", 500.0), ("S", 2048.0)])
        / eval(
            &from_builder.bound,
            &[("NI", 500.0), ("NJ", 500.0), ("NK", 500.0), ("S", 2048.0)],
        );
    assert!((ratio - 1.0).abs() < 0.02, "ratio {ratio}");
}

#[test]
fn c_and_python_dialects_agree() {
    let py = r#"
for t in range(1, T):
    for i in range(1, N - 1):
        A[i, t] = (A[i-1, t-1] + A[i, t-1] + A[i+1, t-1]) / 3
"#;
    let c = r#"
for (t = 1; t < T; t++) {
  for (i = 1; i < N - 1; i++) {
    A[i][t] = (A[i-1][t-1] + A[i][t-1] + A[i+1][t-1]) / 3;
  }
}
"#;
    let from_py = analyze(&parse_python("jacobi", py).unwrap());
    let from_c = analyze(&parse_c("jacobi", c).unwrap());
    let args = &[("N", 4096.0), ("T", 512.0), ("S", 64.0)][..];
    let a = eval(&from_py.bound, args);
    let b = eval(&from_c.bound, args);
    assert!((a - b).abs() / a < 0.02, "python {a} vs c {b}");
    // And both reproduce the 2NT/S leading term.
    let expected = 2.0 * 4096.0 * 512.0 / 64.0;
    assert!(
        (a - expected).abs() / expected < 0.1,
        "bound {a} vs {expected}"
    );
}

#[test]
fn parsed_multi_statement_program_uses_sdg_reuse() {
    // atax written in C: the bound must be ~MN, not 2MN, because the matrix
    // read is shared between the two statements.
    let c = r#"
for (i = 0; i < N; i++) {
  for (j = 0; j < M; j++) {
    tmp[i] += A[i][j] * x[j];
  }
}
for (i = 0; i < N; i++) {
  for (j = 0; j < M; j++) {
    y[j] += A[i][j] * tmp[i];
  }
}
"#;
    let program = parse_c("atax", c).unwrap();
    let analysis = analyze(&program);
    let v = eval(
        &analysis.bound,
        &[("N", 1000.0), ("M", 1000.0), ("S", 4096.0)],
    );
    let mn = 1.0e6;
    assert!((v - mn).abs() / mn < 0.1, "bound {v} vs {mn}");
}
