//! Stencil analysis: reproduce the paper's improved bounds for time-tiled
//! stencils (jacobi-1d/2d, heat-3d) and validate one of them against an
//! explicit red-blue pebbling simulation.
//!
//! ```text
//! cargo run --release --example stencil_tiling
//! ```

use soap::pebbling::{simulate_program_order, Cdag};
use soap::prelude::*;
use std::collections::BTreeMap;

fn main() {
    // One solve cache shared by every analysis below: the stencils' renamed
    // subgraph structures are solved once.  No deadline.
    let (opts, cache) = (SdgOptions::default(), SolveCache::new());
    // The three time-versioned stencils from Polybench.
    for name in ["jacobi-1d", "jacobi-2d", "heat-3d"] {
        let entry = soap::kernels::by_name(name).expect("kernel exists");
        let analysis =
            analyze_program(&entry.program, &opts, &cache, None).expect("analysis succeeds");
        println!("{name:<10} Q ≥ {}", analysis.bound);
    }

    // Empirical check on a small jacobi-1d instance: no valid schedule can
    // move fewer words than the bound.
    let entry = soap::kernels::by_name("jacobi-1d").unwrap();
    let analysis = analyze_program(&entry.program, &opts, &cache, None).unwrap();
    let (n, t, s) = (48i64, 24i64, 16usize);
    let params: BTreeMap<String, i64> = [("N".to_string(), n), ("T".to_string(), t)]
        .into_iter()
        .collect();
    let cdag = Cdag::from_program(&entry.program, &params);
    let stats = simulate_program_order(&cdag, s).expect("valid pebbling");

    let mut bindings = BTreeMap::new();
    bindings.insert("N".to_string(), n as f64);
    bindings.insert("T".to_string(), t as f64);
    bindings.insert("S".to_string(), s as f64);
    let bound = analysis.bound.eval(&bindings).unwrap();

    println!("\njacobi-1d, N = {n}, T = {t}, S = {s} red pebbles");
    println!("  analytic lower bound : {bound:.0} words");
    println!(
        "  simulated schedule   : {} loads + {} stores = {} words",
        stats.loads,
        stats.stores,
        stats.io()
    );
    println!("  gap (schedule/bound) : {:.2}×", stats.io() as f64 / bound);
    assert!(
        stats.io() as f64 >= bound,
        "a valid schedule can never beat the lower bound"
    );
}
