//! Degraded-mode guarantees: a plan-driven cancellation trip must produce
//! output that is (a) byte-identical for every worker budget and shard
//! count — the trips key on enumeration index and level, never wall-clock —
//! and (b) *sound*: the degraded bound never exceeds the full bound, because
//! an affected array defers its contribution (counts as zero) rather than
//! keeping a too-small candidate set for the Theorem-1 maximum.
//!
//! Each plan travels inside the cache it was built into, so faulted and
//! fault-free analyses may run side by side in one process.

use soap_kernels::registry;
use soap_sdg::{
    analyze_suite, enumerate_connected_subgraphs, set_worker_budget, BatchAnalysis, FaultPlan, Sdg,
    SdgOptions, SolveCache, SuiteProgram, DEFAULT_CACHE_SHARDS,
};
use std::collections::BTreeMap;

#[path = "common/dump.rs"]
mod dump;

/// The shared dump plus the run's degraded-mode solver counters.
fn dump(analysis: &soap_sdg::ProgramAnalysis) -> String {
    format!(
        "{}cancelled {} enumerated {}\n",
        dump::dump(analysis),
        analysis.solver.cancelled,
        analysis.solver.subgraphs_enumerated
    )
}

/// Run `f` with the worker budget forced to `n`, restoring the previous one.
fn with_budget<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = set_worker_budget(n);
    let result = f();
    set_worker_budget(prev);
    result
}

/// An in-memory cache with `shards` lock stripes under `plan`.
fn faulted(shards: usize, plan: FaultPlan) -> SolveCache {
    SolveCache::with_faults(None, shards, plan).expect("in-memory cache opens")
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

/// Numeric value of a program's bound: every parameter at 1000, fast memory
/// at 10^4.  An empty / unevaluable bound counts as zero (no claim at all).
fn bound_value(program: &soap_ir::Program, analysis: &soap_sdg::ProgramAnalysis) -> f64 {
    bound_at(program, analysis, 1000.0, 1.0e4)
}

/// The bound with every size parameter at `n` and fast memory at `s`.
fn bound_at(
    program: &soap_ir::Program,
    analysis: &soap_sdg::ProgramAnalysis,
    n: f64,
    s: f64,
) -> f64 {
    let mut bindings: BTreeMap<String, f64> =
        program.parameters().into_iter().map(|p| (p, n)).collect();
    bindings.insert("S".to_string(), s);
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
    let baseline: Vec<String> = with_budget(1, || {
        let batch = analyze_suite(&jobs, &faulted(1, plan), None, None);
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
                analyze_suite(&jobs, &faulted(shards, plan), None, None)
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
}

#[test]
fn degraded_bounds_never_exceed_the_full_bounds() {
    let jobs = jobs();
    let full: Vec<f64> = {
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
        let plan = FaultPlan {
            seed: 42,
            cancel_at_subgraph: Some(cancel_at),
            ..FaultPlan::default()
        };
        let batch = analyze_suite(&jobs, &faulted(DEFAULT_CACHE_SHARDS, plan), None, None);
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

#[test]
fn subgraph_cap_truncation_degrades_and_never_raises_the_bound() {
    // A cap of 3 subgraphs drops candidates from the Theorem-1 maximum of
    // most multi-array programs.  A dropped candidate could only raise the
    // bound, so a truncated program must be degraded with a bound no larger
    // than the uncapped one (every parameter 256, S = 1024); a program the
    // cap does not truncate must be byte-identical to the uncapped run.
    let jobs = jobs();
    let full = analyze_suite(&jobs, &SolveCache::new(), None, None);
    assert_eq!(full.summary.failures, 0);
    let capped_jobs: Vec<SuiteProgram> = jobs
        .iter()
        .map(|job| {
            SuiteProgram::new(
                job.program.clone(),
                SdgOptions {
                    max_subgraphs: 3,
                    ..job.opts.clone()
                },
            )
        })
        .collect();
    let capped = analyze_suite(&capped_jobs, &SolveCache::new(), None, None);
    assert_eq!(
        capped.summary.failures, 0,
        "truncation degrades, never fails"
    );
    let mut truncated = 0usize;
    for ((job, full), capped) in jobs.iter().zip(&full.reports).zip(&capped.reports) {
        let full = full.outcome.as_ref().expect("analysis succeeds");
        let analysis = capped.outcome.as_ref().expect("analysis succeeds");
        let sdg = Sdg::from_program(&job.program);
        let opts = &job.opts;
        if !enumerate_connected_subgraphs(&sdg, opts.max_subgraph_size, 3).truncated {
            assert_eq!(
                dump(full),
                dump(analysis),
                "{}: untruncated run diverged",
                job.name
            );
            continue;
        }
        truncated += 1;
        assert!(
            analysis.degraded,
            "{}: a truncated enumeration must degrade",
            job.name
        );
        assert!(
            analysis
                .notes
                .iter()
                .any(|n| n.contains("stopped at the cap of 3 subgraphs")),
            "{}: the degraded note must name the cap: {:?}",
            job.name,
            analysis.notes
        );
        let (bound, full_bound) = (
            bound_at(&job.program, analysis, 256.0, 1024.0),
            bound_at(&job.program, full, 256.0, 1024.0),
        );
        assert!(
            bound <= full_bound * (1.0 + 1e-9) + 1e-9,
            "{}: capped bound {bound} exceeds the uncapped bound {full_bound}",
            job.name
        );
    }
    assert!(
        truncated > 0,
        "a cap of 3 must truncate part of the registry"
    );
}

/// Every program's dump, in suite order.
fn dumps(batch: &BatchAnalysis) -> Vec<String> {
    batch
        .reports
        .iter()
        .map(|r| dump(r.outcome.as_ref().expect("analysis succeeds")))
        .collect()
}

#[test]
fn faulted_and_fault_free_suites_share_one_process() {
    let jobs = jobs();
    let serial = dumps(&analyze_suite(&jobs, &SolveCache::new(), None, None));

    // A plan that cancels every subgraph runs concurrently with a fault-free
    // suite: it must degrade its own run and leave the other untouched.
    let cancel_all = FaultPlan {
        seed: 42,
        cancel_at_subgraph: Some(0),
        ..FaultPlan::default()
    };
    let (faulted_run, clean_run) = std::thread::scope(|scope| {
        let faulted_run = scope.spawn(|| {
            analyze_suite(
                &jobs,
                &faulted(DEFAULT_CACHE_SHARDS, cancel_all),
                None,
                None,
            )
        });
        let clean_run = scope.spawn(|| analyze_suite(&jobs, &SolveCache::new(), None, None));
        (
            faulted_run.join().expect("faulted suite thread"),
            clean_run.join().expect("fault-free suite thread"),
        )
    });
    assert_eq!(faulted_run.summary.failures, 0);
    assert_eq!(faulted_run.summary.degraded, jobs.len());
    assert_eq!(clean_run.summary.failures, 0);
    assert_eq!(clean_run.summary.degraded, 0);
    assert_eq!(serial, dumps(&clean_run));
}
