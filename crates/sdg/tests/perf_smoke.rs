//! Performance smoke test: the full SDG analysis of a 35-statement matmul
//! chain (the paper's practical scaling limit) must finish well inside a
//! generous wall-clock budget even in debug builds.
//!
//! This is a CI tripwire against gross regressions on the enumeration /
//! merge / simplification hot paths, not a benchmark — the `benchmark/`
//! workspace (see `BENCHMARK.json`) produces the real numbers.

use soap_sdg::{analyze_program, SdgOptions, SolveCache};
use std::time::{Duration, Instant};

#[path = "common/fixtures.rs"]
mod fixtures;
use fixtures::chain_of_matmuls;

#[test]
fn thirty_five_statement_chain_analyzes_within_budget() {
    // Generous: this takes well under 10 s in debug builds on a laptop-class
    // core; the budget only exists to catch order-of-magnitude regressions.
    const BUDGET: Duration = Duration::from_secs(120);
    let program = chain_of_matmuls(35);
    let opts = SdgOptions {
        max_subgraph_size: 3,
        max_subgraphs: 512,
        ..SdgOptions::default()
    };
    let start = Instant::now();
    let analysis =
        analyze_program(&program, &opts, &SolveCache::new(), None).expect("analysis succeeds");
    let elapsed = start.elapsed();
    assert!(
        elapsed < BUDGET,
        "35-statement chain took {elapsed:?} (budget {BUDGET:?}) — a hot path badly regressed"
    );
    // Sanity: every chain link got a Theorem-1 term and the bound evaluates.
    assert_eq!(analysis.per_array.len(), 35);
    let mut b = std::collections::BTreeMap::new();
    b.insert("N".to_string(), 512.0);
    b.insert("S".to_string(), 16384.0);
    let q = analysis.bound.eval(&b).expect("bound evaluates");
    assert!(q > 0.0);
}
