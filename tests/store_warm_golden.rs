//! Warm-store golden verification: a batch run answered entirely from the
//! disk-persisted canonical-solution store must reproduce the *committed*
//! golden registry bounds — not merely match its own cold run.  This closes
//! the loop the per-crate round-trip test cannot: if the store codec and a
//! fresh solve ever drifted in the same way (e.g. a lossy float path on both
//! sides), cold-vs-warm comparison would still pass, but the committed golden
//! file would not.

use soap_bench::{reference_bindings, suite_program};
use soap_sdg::{analyze_suite, SolveCache};
use std::fmt::Write as _;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/registry_bounds.txt"
);

#[test]
fn warm_store_run_reproduces_the_committed_golden_bounds() {
    let dir = std::env::temp_dir().join(format!("soap-warm-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let entries = soap_kernels::registry();
    let jobs: Vec<_> = entries.iter().map(suite_program).collect();

    // Cold process: solve everything, persist.
    {
        let cache = SolveCache::with_store(&dir).expect("store opens");
        let cold = analyze_suite(&jobs, &cache, None, None);
        assert_eq!(cold.summary.failures, 0);
        cache.flush_store().expect("flush succeeds");
    }

    // Warm process: hydrate, re-analyze with zero solves.  The whole suite
    // is answered from persisted finished reports — the front half
    // (enumerate / merge / instantiate) never runs, so the warm path is the
    // report codec end to end.
    let cache = SolveCache::with_store(&dir).expect("store reopens");
    let warm = analyze_suite(&jobs, &cache, None, None);
    assert_eq!(warm.summary.cache.misses, 0, "{:?}", warm.summary.cache);
    assert_eq!(warm.summary.cache.uncacheable, 0);
    assert_eq!(
        warm.summary.cache.report_hits,
        jobs.len() as u64,
        "{:?}",
        warm.summary.cache
    );
    assert_eq!(warm.summary.subgraphs_enumerated, 0);

    // Render the warm analyses in the exact format of the committed golden
    // file (see tests/registry_golden_bounds.rs, including its two header
    // comment lines) and require full-text equality — line containment alone
    // would let a codec bug that swaps two kernels' hydrated solutions pass,
    // since every swapped line still exists under the *other* kernel.
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file exists");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Golden per-kernel bounds at the Table-2 reference bindings \
         (size params = 256, S = 1024; see soap_bench::reference_bindings)."
    );
    let _ = writeln!(
        out,
        "# Regenerate with: SOAP_UPDATE_GOLDEN=1 cargo test --test registry_golden_bounds"
    );
    for (entry, report) in entries.iter().zip(&warm.reports) {
        let analysis = report.outcome.as_ref().expect("analysis succeeded");
        let bindings = reference_bindings(entry);
        let q = analysis.bound.eval(&bindings).unwrap_or(f64::NAN);
        let _ = writeln!(out, "kernel {}", entry.name);
        let _ = writeln!(out, "  bound {}", analysis.bound);
        let _ = writeln!(out, "  Q(ref) {q:.8e}");
        for a in &analysis.per_array {
            let _ = writeln!(out, "  array {} sigma={} rho={}", a.array, a.sigma, a.rho);
        }
    }
    if golden != out {
        let first_diff = golden
            .lines()
            .zip(out.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .map(|(i, (g, w))| format!("line {}:\n  golden: {g}\n  warm:   {w}", i + 1))
            .unwrap_or_else(|| "line counts differ".to_string());
        panic!(
            "warm-store registry snapshot differs from {GOLDEN_PATH} — a store \
             round trip changed a bound the cold path still gets right; first diff at {first_diff}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
