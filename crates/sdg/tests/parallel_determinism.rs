//! Thread-count determinism: the analysis output must be a pure function of
//! program structure — byte-identical (unsnapped floats compared bit-for-bit)
//! for every worker budget (`SOAP_THREADS`), shard count, and their product.
//!
//! The parallel front half is built for this: subgraph enumeration commits
//! parallel proposals in serial discovery order, and a cache miss solves the
//! *canonical* model so which worker solves first never leaks into output.
//! These tests pin the property on the full 38-kernel registry and on a
//! deliberately skewed workload (one dominant seed component) where
//! self-scheduled workers interleave maximally.

use soap_ir::{Program, ProgramBuilder};
use soap_sdg::subgraphs::enumerate_connected_subgraphs;
use soap_sdg::{analyze_suite, set_worker_budget, Sdg, SdgOptions, SolveCache, SuiteProgram};
use std::sync::Mutex;

#[path = "common/naive.rs"]
mod naive;
use naive::enumerate_connected_subgraphs_naive;

#[path = "common/dump.rs"]
mod dump;
use dump::dump;

/// Serializes the tests that mutate the process-wide worker budget (tests of
/// one binary run on concurrent threads).
static BUDGET_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with the worker budget forced to `n`, restoring the previous one.
fn with_budget<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = set_worker_budget(n);
    let result = f();
    set_worker_budget(prev);
    result
}

/// The Table-2 analysis options of every registry entry.
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
fn registry_output_is_byte_identical_across_thread_budgets_and_shards() {
    let _guard = BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let jobs = jobs();
    // Reference: single-threaded run (every par_iter inlined) over one shard.
    let baseline: Vec<String> = with_budget(1, || {
        let batch = analyze_suite(&jobs, &SolveCache::with_shards(1), None, None);
        assert_eq!(batch.summary.failures, 0);
        batch
            .reports
            .iter()
            .map(|r| dump(r.outcome.as_ref().expect("analysis succeeds")))
            .collect()
    });

    for budget in [1usize, 2, 8] {
        for shards in [1usize, 16] {
            let batch = with_budget(budget, || {
                analyze_suite(&jobs, &SolveCache::with_shards(shards), None, None)
            });
            assert_eq!(batch.summary.failures, 0, "budget={budget} shards={shards}");
            assert_eq!(batch.summary.programs, jobs.len());
            for (expected, report) in baseline.iter().zip(&batch.reports) {
                let analysis = report.outcome.as_ref().expect("analysis succeeds");
                assert_eq!(
                    expected,
                    &dump(analysis),
                    "{}: output under budget={budget} shards={shards} diverged from the single-threaded reference",
                    report.name
                );
            }
        }
    }
}

/// One dominant seed component (a dense `hub`-array cluster sharing one
/// input) plus `tail` disjoint two-statement chains: the skew shape where a
/// static per-seed split would serialize behind the hub and worker
/// interleaving is maximal.
fn skewed_hub(hub: usize, tail: usize) -> Program {
    let mut b = ProgramBuilder::new(format!("skew{hub}x{tail}"));
    for s in 0..hub {
        let dst = format!("H{s}");
        b = b.statement(move |st| {
            st.loops(&[("i", "0", "N")])
                .write(&dst, "i")
                .read("HUB", "i")
        });
    }
    for s in 0..tail {
        let mid = format!("M{s}");
        let src = format!("X{s}");
        b = b.statement(move |st| {
            st.loops(&[("i", "0", "N")])
                .write(&mid, "i")
                .read(&src, "i")
        });
        let mid_in = format!("M{s}");
        let dst = format!("E{s}");
        b = b.statement(move |st| {
            st.loops(&[("i", "0", "N")])
                .write(&dst, "i")
                .read(&mid_in, "i")
        });
    }
    b.build().expect("skewed hub builds")
}

#[test]
fn skewed_enumeration_is_deterministic_and_matches_the_naive_oracle() {
    let _guard = BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // 54 computed arrays: the level-2 frontier (54 singleton sets) crosses
    // the parallel threshold, so worker budgets > 1 exercise the parallel
    // proposal stage for real.
    let sdg = Sdg::from_program(&skewed_hub(14, 20));

    // Uncapped: every budget must reproduce the serial family exactly, and
    // the family must equal the seed's naive string-set algorithm.
    let reference = with_budget(1, || enumerate_connected_subgraphs(&sdg, 3, 1_000_000));
    assert!(!reference.truncated);
    let naive = enumerate_connected_subgraphs_naive(&sdg, 3, 1_000_000);
    assert_eq!(reference.subgraphs, naive, "bitset family != naive oracle");
    for budget in [2usize, 8] {
        let parallel = with_budget(budget, || enumerate_connected_subgraphs(&sdg, 3, 1_000_000));
        assert_eq!(
            reference.subgraphs, parallel.subgraphs,
            "budget={budget} changed the uncapped enumeration"
        );
        assert_eq!(reference.truncated, parallel.truncated);
    }

    // Truncating cap landing mid-level: which subsets survive is part of the
    // contract — the parallel commit replays serial discovery order, so the
    // surviving family (and the truncated flag) must be byte-identical too,
    // and must match the naive oracle under the same cap.
    for cap in [60usize, 120, 200] {
        let capped_ref = with_budget(1, || enumerate_connected_subgraphs(&sdg, 3, cap));
        assert!(capped_ref.truncated, "cap {cap} must truncate this family");
        let capped_naive = enumerate_connected_subgraphs_naive(&sdg, 3, cap);
        assert_eq!(
            capped_ref.subgraphs, capped_naive,
            "cap {cap}: capped bitset family != naive oracle"
        );
        for budget in [2usize, 8] {
            let capped = with_budget(budget, || enumerate_connected_subgraphs(&sdg, 3, cap));
            assert_eq!(
                capped_ref.subgraphs, capped.subgraphs,
                "cap {cap} budget={budget}: surviving family diverged"
            );
            assert_eq!(capped_ref.truncated, capped.truncated);
        }
    }
}

#[test]
fn skewed_program_analysis_is_thread_count_invariant() {
    let _guard = BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let jobs = vec![SuiteProgram::new(
        skewed_hub(14, 20),
        SdgOptions {
            max_subgraph_size: 3,
            // Forces mid-level truncation, the most order-sensitive regime.
            max_subgraphs: 120,
            ..SdgOptions::default()
        },
    )];
    let baseline = with_budget(1, || {
        let batch = analyze_suite(&jobs, &SolveCache::with_shards(1), None, None);
        assert_eq!(batch.summary.failures, 0);
        dump(
            batch.reports[0]
                .outcome
                .as_ref()
                .expect("analysis succeeds"),
        )
    });
    for budget in [2usize, 8] {
        let batch = with_budget(budget, || {
            analyze_suite(&jobs, &SolveCache::with_shards(16), None, None)
        });
        assert_eq!(batch.summary.failures, 0);
        assert_eq!(
            baseline,
            dump(
                batch.reports[0]
                    .outcome
                    .as_ref()
                    .expect("analysis succeeds")
            ),
            "budget={budget}: skewed-program analysis diverged from single-threaded reference"
        );
    }
}
