//! Derive an I/O lower bound directly from source code, as the paper's tool
//! does: parse a Python-like loop nest, lower it to the SOAP IR, and analyze.
//!
//! ```text
//! cargo run --release --example from_source
//! ```

use soap::frontend::parse_python;
use soap::prelude::*;

const SOURCE: &str = r#"
# 3-point stencil composed with a matrix product (Figure 2 of the paper).
for i in range(0, N):
    for j in range(0, M):
        C[i, j] = (A[i] + A[i+1]) * (B[j] + B[j+1])
for i in range(0, N):
    for j in range(0, K):
        for k in range(0, M):
            E[i, j] += C[i, k] * D[k, j]
"#;

fn main() {
    let program = parse_python("figure2", SOURCE).expect("source parses");
    println!("parsed program:\n{program}");
    let analysis = analyze_program(&program, &SdgOptions::default(), &SolveCache::new(), None)
        .expect("analysis succeeds");
    println!("I/O lower bound: Q ≥ {}", analysis.bound);
    for array in &analysis.per_array {
        println!(
            "  {:<3} best fused subgraph {{{}}}  ρ = {}",
            array.array,
            array.best_subgraph.join(","),
            array.rho
        );
    }
    println!(
        "\nNote how array C's intensity reflects recomputation from A and B slices\n\
         (the \"pinch of combinatorics\" of Figure 2): its vertices are cheap to\n\
         rematerialize, so they contribute little I/O."
    );
}
