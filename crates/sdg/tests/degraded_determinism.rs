//! Degraded-mode guarantees: a plan-driven cancellation trip must produce
//! output that is (a) byte-identical for every worker budget and shard
//! count — the trips key on enumeration index and level, never wall-clock —
//! and (b) *sound*: the degraded bound never exceeds the full bound, because
//! an affected array defers its contribution (counts as zero) rather than
//! keeping a too-small candidate set for the Theorem-1 maximum.

use soap_kernels::registry;
use soap_sdg::{
    analyze_suite, override_plan, set_worker_budget, FaultPlan, SdgOptions, SolveCache,
    SuiteProgram,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Run `f` with the worker budget forced to `n`, restoring the previous one.
fn with_budget<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = set_worker_budget(n);
    let result = f();
    set_worker_budget(prev);
    result
}

/// The Table-2 analysis options of every registry entry.
fn jobs() -> Vec<SuiteProgram> {
    registry()
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

/// Bit-exact dump of one analysis, including the degraded-mode accounting.
fn dump(analysis: &soap_sdg::ProgramAnalysis) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "program {} degraded {} deferred {} cancelled {} enumerated {}",
        analysis.name,
        analysis.degraded,
        analysis.arrays_deferred,
        analysis.solver.cancelled,
        analysis.solver.subgraphs_enumerated,
    );
    let _ = writeln!(out, "bound {}", analysis.bound);
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
            "subgraph {:?} sigma={:?} chi_coeff={:016x} rho={} rho_ref={:016x}",
            s.arrays,
            i.sigma,
            i.chi_coeff.to_bits(),
            i.rho,
            s.rho_ref.to_bits(),
        );
    }
    for n in &analysis.notes {
        let _ = writeln!(out, "note {n}");
    }
    out
}

/// Numeric value of a program's bound: every parameter at 1000, fast memory
/// at 10^4.  An empty / unevaluable bound counts as zero (no claim at all).
fn bound_value(program: &soap_ir::Program, analysis: &soap_sdg::ProgramAnalysis) -> f64 {
    let mut bindings: BTreeMap<String, f64> = program
        .parameters()
        .into_iter()
        .map(|p| (p, 1000.0))
        .collect();
    bindings.insert("S".to_string(), 1.0e4);
    analysis.bound_at(&bindings).unwrap_or(0.0)
}

#[test]
fn plan_tripped_degraded_output_is_identical_across_budgets_and_shards() {
    let jobs = jobs();
    let plan = FaultPlan {
        seed: 42,
        cancel_at_subgraph: Some(3),
        cancel_at_level: Some(3),
        ..FaultPlan::default()
    };
    // The override guard also serializes this test against the chaos suite's
    // plan injection when the two binaries share a process (they don't — but
    // the in-file worker-budget mutation below still wants one test at a
    // time, which #[test] isolation per binary provides).
    let guard = override_plan(Some(plan));

    let baseline: Vec<String> = with_budget(1, || {
        let batch = analyze_suite(&jobs, &SolveCache::with_shards(1), None, None);
        assert_eq!(batch.summary.failures, 0, "degraded is not failed");
        assert!(
            batch.summary.degraded > 0,
            "this plan must degrade part of the registry"
        );
        batch
            .reports
            .iter()
            .map(|r| dump(r.outcome.as_ref().expect("analysis succeeds")))
            .collect()
    });
    assert!(
        baseline.iter().any(|d| d.contains("degraded true")),
        "baseline must contain degraded programs"
    );

    for budget in [1usize, 4] {
        for shards in [1usize, 16] {
            let batch = with_budget(budget, || {
                analyze_suite(&jobs, &SolveCache::with_shards(shards), None, None)
            });
            assert_eq!(batch.summary.failures, 0, "budget={budget} shards={shards}");
            for (expected, report) in baseline.iter().zip(&batch.reports) {
                assert_eq!(
                    expected,
                    &dump(report.outcome.as_ref().expect("analysis succeeds")),
                    "{}: degraded output under budget={budget} shards={shards} diverged",
                    report.name
                );
            }
        }
    }
    drop(guard);
}

#[test]
fn degraded_bounds_never_exceed_the_full_bounds() {
    let jobs = jobs();
    let full: Vec<f64> = {
        let _guard = override_plan(None);
        let batch = analyze_suite(&jobs, &SolveCache::new(), None, None);
        assert_eq!(batch.summary.failures, 0);
        batch
            .reports
            .iter()
            .zip(&jobs)
            .map(|(r, job)| bound_value(&job.program, r.outcome.as_ref().unwrap()))
            .collect()
    };

    // Several trip points, from "cancel almost everything" to "cancel the
    // tail": soundness must hold at every one, on every kernel.
    for cancel_at in [0u64, 1, 2, 5] {
        let _guard = override_plan(Some(FaultPlan {
            seed: 42,
            cancel_at_subgraph: Some(cancel_at),
            ..FaultPlan::default()
        }));
        let batch = analyze_suite(&jobs, &SolveCache::new(), None, None);
        assert_eq!(batch.summary.failures, 0, "cancel_at={cancel_at}");
        for ((report, job), full_bound) in batch.reports.iter().zip(&jobs).zip(&full) {
            let analysis = report.outcome.as_ref().expect("analysis succeeds");
            let degraded_bound = bound_value(&job.program, analysis);
            assert!(
                degraded_bound <= full_bound * (1.0 + 1e-9) + 1e-9,
                "{} at cancel_at={cancel_at}: degraded bound {degraded_bound} exceeds full \
                 bound {full_bound} — degraded output is UNSOUND",
                report.name
            );
        }
    }
}
