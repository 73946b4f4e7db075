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
use std::fmt::Write as _;
use std::time::Duration;

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

/// Exhaustive bit-exact dump of one analysis (everything except the solver
/// accounting, which legitimately differs between shared and private caches).
fn dump(analysis: &soap_sdg::ProgramAnalysis) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "program {}", analysis.name);
    let _ = writeln!(out, "bound {}", analysis.bound);
    let _ = writeln!(
        out,
        "degraded {} deferred {}",
        analysis.degraded, analysis.arrays_deferred
    );
    for a in &analysis.per_array {
        let _ = writeln!(
            out,
            "array {} |A|={} rho={} sigma={:?} via={:?} bound={}",
            a.array, a.vertex_count, a.rho, a.sigma, a.best_subgraph, a.bound
        );
    }
    for s in &analysis.subgraphs {
        let i = &s.intensity;
        let _ = writeln!(
            out,
            "subgraph {:?} sigma={:?} chi_coeff={:016x} rho={} x0={:?} rho_ref={:016x}",
            s.arrays,
            i.sigma,
            i.chi_coeff.to_bits(),
            i.rho,
            i.x0.as_ref().map(|e| format!("{e}")),
            s.rho_ref.to_bits(),
        );
        for ((name, e), (_, c)) in i.tile_exponents.iter().zip(&i.tile_coeffs) {
            let _ = writeln!(out, "  tile {name} exp={e:?} coeff={:016x}", c.to_bits());
        }
    }
    for n in &analysis.notes {
        let _ = writeln!(out, "note {n}");
    }
    out
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
