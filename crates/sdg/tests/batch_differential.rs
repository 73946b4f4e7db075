//! Differential tests for the cross-program batch engine: `analyze_suite`
//! over the full 38-kernel registry must produce **byte-identical**
//! `ProgramAnalysis` output to sequential per-program `analyze_program`
//! calls — under shard counts {1, 4, 16}, with the programs in reversed
//! order, and under generous budgets — while actually deduplicating
//! structures across programs.
//!
//! "Byte-identical" includes the *unsnapped* floats (`chi_coeff`,
//! `tile_coeffs`, `rho_ref`), compared bit-for-bit: the cache solves the
//! canonical model of every structure, so which program triggers the first
//! solve must not leak into any output.

use soap_sdg::{analyze_program, analyze_suite, SdgOptions, SolveCache, SuiteProgram};
use std::time::Duration;

#[path = "common/dump.rs"]
mod dump;
use dump::dump;

/// The Table-2 analysis options of a registry entry.
fn jobs() -> Vec<SuiteProgram> {
    soap_kernels::registry()
        .into_iter()
        .map(|entry| {
            SuiteProgram::new(
                entry.program,
                SdgOptions {
                    assume_injective: entry.assume_injective,
                    ..SdgOptions::default()
                },
            )
        })
        .collect()
}

#[test]
fn batch_registry_is_byte_identical_to_sequential_per_program_analysis() {
    let jobs = jobs();
    // The baseline: sequential per-program analyses, each over its own
    // private cache (the pre-batch behavior).
    let baseline: Vec<String> = jobs
        .iter()
        .map(|job| {
            let analysis = analyze_program(&job.program, &job.opts, &SolveCache::new(), None)
                .unwrap_or_else(|e| panic!("{}: {e}", job.name));
            dump(&analysis)
        })
        .collect();

    for shards in [1usize, 4, 16] {
        let cache = SolveCache::with_shards(shards);
        let batch = analyze_suite(&jobs, &cache, None, None);
        assert_eq!(batch.summary.failures, 0, "shards={shards}");
        for (expected, report) in baseline.iter().zip(&batch.reports) {
            let analysis = report.outcome.as_ref().expect("analysis succeeds");
            assert_eq!(
                expected,
                &dump(analysis),
                "{}: batch output (shards={shards}) diverged from sequential analysis",
                report.name
            );
        }
    }

    // Program order must not leak either: reverse the suite, compare against
    // the same baseline.
    let reversed: Vec<SuiteProgram> = jobs.iter().rev().cloned().collect();
    let cache = SolveCache::with_shards(16);
    let batch = analyze_suite(&reversed, &cache, None, None);
    assert_eq!(batch.summary.failures, 0);
    for (expected, report) in baseline.iter().rev().zip(&batch.reports) {
        let analysis = report.outcome.as_ref().expect("analysis succeeds");
        assert_eq!(
            expected,
            &dump(analysis),
            "{}: reversed-order batch output diverged from sequential analysis",
            report.name
        );
    }

    // Every analysis runs the governed code path: a budget that never runs
    // out must not change a single byte either.
    let hour = Some(Duration::from_secs(3600));
    let batch = analyze_suite(&jobs, &SolveCache::new(), hour, hour);
    assert_eq!(batch.summary.failures, 0);
    assert_eq!(batch.summary.degraded, 0);
    for (expected, report) in baseline.iter().zip(&batch.reports) {
        let analysis = report.outcome.as_ref().expect("analysis succeeds");
        assert_eq!(
            expected,
            &dump(analysis),
            "{}: generously budgeted batch output diverged from the no-budget analysis",
            report.name
        );
    }
}

#[test]
fn polybench_linear_algebra_family_hits_across_programs() {
    // The registry's linear-algebra kernels are full of renamed matmul /
    // matvec structures; a shared cache must answer some of them from other
    // programs' entries.
    let family = [
        "gemm", "2mm", "3mm", "atax", "bicg", "mvt", "gesummv", "syrk", "syr2k", "trmm", "symm",
    ];
    let jobs: Vec<SuiteProgram> = family
        .iter()
        .map(|name| {
            let entry = soap_kernels::by_name(name).expect("kernel exists");
            SuiteProgram::new(
                entry.program,
                SdgOptions {
                    assume_injective: entry.assume_injective,
                    ..SdgOptions::default()
                },
            )
        })
        .collect();
    let cache = SolveCache::new();
    let batch = analyze_suite(&jobs, &cache, None, None);
    assert_eq!(batch.summary.failures, 0);
    let stats = batch.summary.cache;
    assert!(
        stats.cross_program_hits > 0,
        "expected cross-program hits across the linear-algebra family, got {stats:?}"
    );
    // The suite-wide accounting decomposes: every hit is intra or cross.
    assert!(stats.cross_program_hits <= stats.hits);
    // Per-program summaries sum to the suite-wide cross count.
    let per_program_cross: u64 = batch
        .reports
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .map(|a| a.solver.cross_program_hits)
        .sum();
    assert_eq!(per_program_cross, stats.cross_program_hits);
}
