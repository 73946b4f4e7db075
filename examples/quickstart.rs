//! Quickstart: derive the I/O lower bound of matrix multiplication.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the GEMM SOAP program, runs the full SDG analysis, and prints the
//! symbolic bound (`2·NI·NJ·NK/√S`), the computational intensity, the optimal
//! X₀ and the optimal tile shape for a concrete cache size.

use soap::prelude::*;
use std::collections::BTreeMap;

fn main() {
    // C[i,j] += A[i,k] * B[k,j]  over  NI × NJ × NK
    let program = ProgramBuilder::new("gemm")
        .statement(|st| {
            st.loops(&[("i", "0", "NI"), ("j", "0", "NJ"), ("k", "0", "NK")])
                .update("C", "i,j")
                .read("A", "i,k")
                .read("B", "k,j")
        })
        .build()
        .expect("gemm is a valid SOAP program");

    let analysis = analyze_program(&program, &SdgOptions::default(), &SolveCache::new(), None)
        .expect("analysis succeeds");
    println!("kernel        : {}", program.name);
    println!("I/O lower bound: Q ≥ {}", analysis.bound);
    for array in &analysis.per_array {
        println!(
            "  array {:<4} |A| = {:<22} ρ = {:<14} (via subgraph {{{}}})",
            array.array,
            format!("{}", array.vertex_count),
            format!("{}", array.rho),
            array.best_subgraph.join(",")
        );
    }

    // Per-statement view: intensity, X0 and optimal tiles for S = 32 Ki words.
    let st = &program.statements[0];
    let res = analyze_statement(st, &AnalysisOptions::default()).expect("statement analysis");
    let s_words = 32.0 * 1024.0;
    println!("\nsingle-statement detail");
    println!("  σ              = {}", res.intensity.sigma);
    println!("  ρ(S)           = {}", res.intensity.rho);
    if let Some(x0) = &res.intensity.x0 {
        println!("  X0             = {}", x0);
    }
    if let Some(tiles) = res.intensity.tiles_at(s_words) {
        let rendered: Vec<String> = tiles.iter().map(|(v, t)| format!("{v} ≈ {t:.0}")).collect();
        println!("  optimal tiles  @ S = {s_words}: {}", rendered.join(", "));
    }

    // Numeric value of the bound for a concrete configuration.
    let mut bindings = BTreeMap::new();
    for p in ["NI", "NJ", "NK"] {
        bindings.insert(p.to_string(), 4096.0);
    }
    bindings.insert("S".to_string(), s_words);
    let q = analysis.bound.eval(&bindings).expect("bound evaluates");
    println!("\nQ(N = 4096, S = 32Ki words) ≥ {:.3e} words moved", q);
}
