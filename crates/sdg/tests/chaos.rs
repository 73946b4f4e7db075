//! Chaos suite: the 38-kernel registry analyzed under seeded fault plans.
//!
//! The contract under test is *isolation with reconciled accounting*: an
//! injected panic, transient I/O error, or corrupt store segment may degrade
//! the program (or segment) it hits, but it must never abort the batch,
//! never perturb the output of unaffected programs, and every enumerated
//! subgraph must be accounted for as exactly one of solved / merge-failed /
//! solve-failed / panicked / cancelled.
//!
//! Every plan decision is a pure function of (seed, stable identity), so the
//! set of faulted operations is predictable from the outside — which is what
//! lets these tests say "this exact program is hit, every other one is
//! byte-identical to the fault-free run".

use soap_kernels::registry;
use soap_sdg::{
    analyze_suite, enumerate_connected_subgraphs, override_plan, FaultPlan, Sdg, SdgOptions,
    SolveCache, SolveStore, SuiteProgram,
};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("soap-chaos-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

/// Bit-exact dump of everything in one analysis except timings and cache
/// accounting (which measure the run, not the input).
fn dump(analysis: &soap_sdg::ProgramAnalysis) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "program {}", analysis.name);
    let _ = writeln!(
        out,
        "degraded {} deferred {}",
        analysis.degraded, analysis.arrays_deferred
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

/// Per-program accounting must reconcile: every enumerated subgraph is
/// solved or lands in exactly one failure bucket.
fn assert_reconciled(analysis: &soap_sdg::ProgramAnalysis) {
    let s = &analysis.solver;
    assert_eq!(
        analysis.subgraphs.len()
            + s.merge_failures
            + s.solve_failures
            + s.panic_failures
            + s.cancelled,
        s.subgraphs_enumerated,
        "program {}: accounting does not reconcile (solved {} merge {} solve {} panic {} \
         cancelled {} enumerated {})",
        analysis.name,
        analysis.subgraphs.len(),
        s.merge_failures,
        s.solve_failures,
        s.panic_failures,
        s.cancelled,
        analysis.solver.subgraphs_enumerated,
    );
}

/// Fault-free reference dumps, name → dump, under an explicit empty plan so
/// a stray `SOAP_FAULT_PLAN` in the environment cannot leak in.
fn baseline() -> Vec<(String, String)> {
    let _guard = override_plan(None);
    let batch = analyze_suite(&jobs(), &SolveCache::new(), None, None);
    assert_eq!(batch.summary.failures, 0);
    batch
        .reports
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                dump(r.outcome.as_ref().expect("fault-free analysis succeeds")),
            )
        })
        .collect()
}

#[test]
fn injected_panics_stay_isolated_and_accounting_reconciles() {
    let reference = baseline();
    let plan = FaultPlan {
        seed: 42,
        panic_every: 5,
        ..FaultPlan::default()
    };

    // Predict the hit set from outside the pipeline: a program is affected
    // iff one of its enumerated subgraphs hashes onto the panic set.
    let jobs = jobs();
    let affected: BTreeSet<String> = jobs
        .iter()
        .filter(|job| {
            let sdg = Sdg::from_program(&job.program);
            let opts = &job.opts;
            enumerate_connected_subgraphs(&sdg, opts.max_subgraph_size, opts.max_subgraphs)
                .subgraphs
                .iter()
                .any(|arrays| plan.panics_subgraph(&job.name, arrays))
        })
        .map(|job| job.name.clone())
        .collect();
    assert!(
        !affected.is_empty() && affected.len() < jobs.len(),
        "seed 42 / panic_every 5 must hit a strict, non-empty subset of the registry \
         (hit {} of {})",
        affected.len(),
        jobs.len()
    );

    let _guard = override_plan(Some(plan));
    let batch = analyze_suite(&jobs, &SolveCache::new(), None, None);
    // Panics are absorbed per-subgraph: nothing aborts, no program errors.
    assert_eq!(batch.summary.failures, 0);
    assert_eq!(batch.summary.programs, jobs.len());

    for ((name, expected), report) in reference.iter().zip(&batch.reports) {
        assert_eq!(name, &report.name);
        let analysis = report.outcome.as_ref().expect("no program aborts");
        assert_reconciled(analysis);
        if affected.contains(name) {
            assert!(
                analysis.solver.panic_failures > 0,
                "{name}: predicted a panic hit but none was recorded"
            );
        } else {
            assert_eq!(
                analysis.solver.panic_failures, 0,
                "{name}: predicted fault-free but a panic was recorded"
            );
            assert_eq!(
                expected,
                &dump(analysis),
                "{name}: unaffected program diverged from the fault-free run"
            );
        }
    }
}

/// Populate a store at `dir` fault-free; returns the per-program dumps.
fn seed_store(dir: &Path) -> Vec<(String, String)> {
    let _guard = override_plan(None);
    let cache = SolveCache::with_store(dir).expect("store opens");
    let batch = analyze_suite(&jobs(), &cache, None, None);
    assert_eq!(batch.summary.failures, 0);
    let flushed = cache.flush_store().expect("flush succeeds");
    assert!(flushed.appended > 0, "cold run must persist solutions");
    batch
        .reports
        .iter()
        .map(|r| (r.name.clone(), dump(r.outcome.as_ref().unwrap())))
        .collect()
}

#[test]
fn transient_store_read_faults_heal_inside_the_retry_loop() {
    let dir = temp_dir("transient-heal");
    let cold = seed_store(&dir);

    // One injected failure per segment: attempt 0 fails, attempt 1 reads the
    // segment — hydration is complete and the warm run re-solves nothing.
    let _guard = override_plan(Some(FaultPlan {
        seed: 7,
        store_read_transient: 1,
        ..FaultPlan::default()
    }));
    let cache = SolveCache::with_store(&dir).expect("store opens through the retry loop");
    let stats = cache.store_load_stats().expect("store stats present");
    assert_eq!(stats.segments_rejected, 0, "notes: {:?}", stats.notes);
    assert_eq!(stats.quarantined, 0);
    let warm = analyze_suite(&jobs(), &cache, None, None);
    assert_eq!(warm.summary.failures, 0);
    assert_eq!(
        warm.summary.cache.misses, 0,
        "healed hydration must answer every cacheable solve from the store"
    );
    for ((name, expected), report) in cold.iter().zip(&warm.reports) {
        assert_eq!(name, &report.name);
        assert_eq!(
            expected,
            &dump(report.outcome.as_ref().expect("warm analysis succeeds")),
            "{name}: warm output diverged after healed transient faults"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn permanent_store_read_faults_reject_segments_without_aborting() {
    let dir = temp_dir("transient-permanent");
    let cold = seed_store(&dir);

    // More injected failures than the retry budget: every segment read
    // fails permanently.  The store degrades to "nothing hydrated" with
    // counted, noted rejections — and the batch silently re-solves.
    let _guard = override_plan(Some(FaultPlan {
        seed: 7,
        store_read_transient: 10,
        ..FaultPlan::default()
    }));
    let cache = SolveCache::with_store(&dir).expect("open survives rejected segments");
    let stats = cache.store_load_stats().expect("store stats present");
    assert!(stats.segments_rejected > 0);
    assert_eq!(stats.entries, 0);
    assert!(
        stats.notes.iter().any(|n| n.contains("injected")),
        "rejection must be noted: {:?}",
        stats.notes
    );
    let warm = analyze_suite(&jobs(), &cache, None, None);
    assert_eq!(warm.summary.failures, 0);
    for ((name, expected), report) in cold.iter().zip(&warm.reports) {
        assert_eq!(name, &report.name);
        assert_eq!(
            expected,
            &dump(report.outcome.as_ref().expect("analysis succeeds")),
            "{name}: output diverged when the store was unavailable"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_segments_are_quarantined_once_and_stay_silent_after() {
    let dir = temp_dir("quarantine");
    let cold = seed_store(&dir);
    let segments_before = SolveStore::open_existing(&dir)
        .expect("store opens")
        .segment_files()
        .expect("segments listed")
        .len();
    assert!(segments_before > 0);

    // Corrupt every segment on read: each one loses its records, is counted,
    // and is renamed out of the segment namespace.
    let guard = override_plan(Some(FaultPlan {
        seed: 7,
        corrupt_every: 1,
        ..FaultPlan::default()
    }));
    let cache = SolveCache::with_store(&dir).expect("open survives corrupt segments");
    let stats = cache.store_load_stats().expect("store stats present");
    assert!(stats.records_skipped > 0);
    assert_eq!(stats.quarantined, segments_before);
    assert!(stats.notes.iter().any(|n| n.contains("quarantined")));
    let warm = analyze_suite(&jobs(), &cache, None, None);
    assert_eq!(warm.summary.failures, 0);
    for ((name, expected), report) in cold.iter().zip(&warm.reports) {
        assert_eq!(name, &report.name);
        assert_eq!(
            expected,
            &dump(report.outcome.as_ref().expect("analysis succeeds")),
            "{name}: output diverged after quarantine"
        );
    }
    drop(guard);

    // On disk: each corrupt segment was renamed `*.quarantined` after its
    // surviving records were salvaged into a fresh segment, so a second open
    // sees a clean store — entries intact, no corruption notes.  This is the
    // bugfix: one warning at quarantine time, silence afterwards.
    let store = SolveStore::open_existing(&dir).expect("store opens");
    assert_eq!(
        store.quarantined_files().expect("quarantined listed").len(),
        segments_before
    );
    assert!(
        !store.segment_files().expect("segments listed").is_empty(),
        "salvage must leave the surviving records in the segment namespace"
    );
    let _guard = override_plan(None);
    let reopened = SolveCache::with_store(&dir).expect("reopen succeeds");
    let stats = reopened.store_load_stats().expect("store stats present");
    assert_eq!(stats.records_skipped, 0);
    assert_eq!(stats.quarantined, 0);
    assert!(stats.entries > 0, "salvaged records must hydrate");
    assert!(
        stats.notes.is_empty(),
        "quarantined segments must not re-warn: {:?}",
        stats.notes
    );
    let _ = std::fs::remove_dir_all(&dir);
}
