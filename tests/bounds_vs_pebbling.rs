//! Integration test: analytic lower bounds against explicit red-blue pebbling
//! simulations on small CDAGs (soundness smoke test across crates).

use soap::pebbling::{min_dominator_size, simulate_program_order, Cdag, VertexKind};
use soap::sdg::{analyze_program, SdgOptions, SolveCache};
use std::collections::BTreeMap;

fn concrete_params(kernel: &str, size: i64) -> BTreeMap<String, i64> {
    soap::kernels::by_name(kernel)
        .unwrap()
        .program
        .parameters()
        .into_iter()
        .map(|p| (p, size))
        .collect()
}

#[test]
fn simulated_schedules_never_beat_the_bound() {
    for (kernel, size, s) in [
        ("gemm", 10i64, 32usize),
        ("jacobi-1d", 24, 12),
        ("lu", 12, 32),
    ] {
        let entry = soap::kernels::by_name(kernel).unwrap();
        let opts = SdgOptions::default();
        let analysis = analyze_program(&entry.program, &opts, &SolveCache::new(), None).unwrap();
        let params = concrete_params(kernel, size);
        let mut bindings: BTreeMap<String, f64> =
            params.iter().map(|(k, v)| (k.clone(), *v as f64)).collect();
        bindings.insert("S".to_string(), s as f64);
        let bound = analysis.bound.eval(&bindings).unwrap();

        let cdag = Cdag::from_program(&entry.program, &params);
        let stats = simulate_program_order(&cdag, s).unwrap();
        assert!(
            stats.io() as f64 >= bound,
            "{kernel}: simulated {} < bound {bound}",
            stats.io()
        );
    }
}

#[test]
fn lemma3_matches_exact_dominators_of_mmm_tiles() {
    let entry = soap::kernels::by_name("gemm").unwrap();
    let params = concrete_params("gemm", 6);
    let cdag = Cdag::from_program(&entry.program, &params);
    for tile in [2i64, 3] {
        let h: Vec<usize> = cdag
            .compute_vertices()
            .into_iter()
            .filter(|&v| match &cdag.kinds[v] {
                VertexKind::Compute { iteration, .. } => iteration.iter().all(|&x| x < tile),
                _ => false,
            })
            .collect();
        let exact = min_dominator_size(&cdag, &h);
        let lemma3 = (3 * tile * tile) as usize;
        assert_eq!(exact, lemma3, "tile {tile}");
    }
}

#[test]
fn larger_fast_memory_reduces_simulated_io_towards_the_bound() {
    let entry = soap::kernels::by_name("gemm").unwrap();
    let params = concrete_params("gemm", 12);
    let cdag = Cdag::from_program(&entry.program, &params);
    let io_small = simulate_program_order(&cdag, 16).unwrap().io();
    let io_large = simulate_program_order(&cdag, 256).unwrap().io();
    assert!(io_large < io_small);
    // With S ≥ the whole working set the traffic collapses to the compulsory
    // reads + writes: 3·N² loads (A, B, C_in) + N² stores.
    assert_eq!(io_large, 4 * 12 * 12);
}
