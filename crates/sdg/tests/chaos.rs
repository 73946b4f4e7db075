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
//!
//! A plan reaches the pipeline only through the cache it was built into
//! (`SolveCache::with_faults`); every other cache is fault-free, so the
//! tests of this binary run concurrently without serializing on a plan.

use soap_kernels::registry;
use soap_sdg::{
    analyze_suite, enumerate_connected_subgraphs, FaultPlan, Sdg, SdgOptions, SolveCache,
    SolveStore, SuiteProgram, DEFAULT_CACHE_SHARDS,
};
use std::collections::{BTreeMap, BTreeSet};
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

/// The bound of one analysis evaluated with every size parameter at 256 and
/// S = 1024.
fn bound_value(program: &soap_ir::Program, analysis: &soap_sdg::ProgramAnalysis) -> f64 {
    let mut bindings: BTreeMap<String, f64> = program
        .parameters()
        .into_iter()
        .map(|p| (p, 256.0))
        .collect();
    bindings.insert("S".to_string(), 1024.0);
    analysis.bound_at(&bindings).unwrap_or(f64::NAN)
}

/// Fault-free reference runs: name, dump and bound value per program.  The
/// library reads no environment, so a stray `SOAP_FAULT_PLAN` cannot leak
/// into a plain cache.
fn baseline() -> Vec<(String, String, f64)> {
    let jobs = jobs();
    let batch = analyze_suite(&jobs, &SolveCache::new(), None, None);
    assert_eq!(batch.summary.failures, 0);
    batch
        .reports
        .iter()
        .zip(&jobs)
        .map(|(r, job)| {
            let analysis = r.outcome.as_ref().expect("fault-free analysis succeeds");
            (
                r.name.clone(),
                dump(analysis),
                bound_value(&job.program, analysis),
            )
        })
        .collect()
}

#[test]
fn injected_panics_stay_isolated_and_accounting_reconciles() {
    let reference = baseline();
    for (seed, panic_every) in [(42, 5), (1, 3)] {
        let plan = FaultPlan {
            seed,
            panic_every,
            ..FaultPlan::default()
        };
        assert_panics_stay_isolated(plan, &reference);
    }
}

/// Run the registry under a panic plan: no program aborts, the accounting
/// reconciles, unaffected programs are byte-identical to the fault-free
/// run, and every affected program is degraded with a bound no larger than
/// its fault-free bound (a panicked subgraph is a missing Theorem-1
/// candidate, which must never raise the bound).
fn assert_panics_stay_isolated(plan: FaultPlan, reference: &[(String, String, f64)]) {
    let tag = format!("seed {} / panic_every {}", plan.seed, plan.panic_every);
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
        "{tag} must hit a strict, non-empty subset of the registry (hit {} of {})",
        affected.len(),
        jobs.len()
    );

    let cache =
        SolveCache::with_faults(None, DEFAULT_CACHE_SHARDS, plan).expect("in-memory cache opens");
    let batch = analyze_suite(&jobs, &cache, None, None);
    // Panics are absorbed per-subgraph: nothing aborts, no program errors.
    assert_eq!(batch.summary.failures, 0);
    assert_eq!(batch.summary.programs, jobs.len());

    for (((name, expected, full_bound), report), job) in
        reference.iter().zip(&batch.reports).zip(&jobs)
    {
        assert_eq!(name, &report.name);
        let analysis = report.outcome.as_ref().expect("no program aborts");
        assert_reconciled(analysis);
        if affected.contains(name) {
            assert!(
                analysis.solver.panic_failures > 0,
                "{tag}: {name}: predicted a panic hit but none was recorded"
            );
            assert!(
                analysis.degraded,
                "{tag}: {name}: a panicked subgraph must degrade the analysis"
            );
            let bound = bound_value(&job.program, analysis);
            assert!(
                bound <= full_bound * (1.0 + 1e-9) + 1e-9,
                "{tag}: {name}: bound {bound} exceeds the fault-free bound {full_bound}"
            );
        } else {
            assert_eq!(
                analysis.solver.panic_failures, 0,
                "{tag}: {name}: predicted fault-free but a panic was recorded"
            );
            assert_eq!(
                expected,
                &dump(analysis),
                "{tag}: {name}: unaffected program diverged from the fault-free run"
            );
        }
    }
}

/// Populate a store at `dir` fault-free; returns the per-program dumps.
fn seed_store(dir: &Path) -> Vec<(String, String)> {
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
    let plan = FaultPlan {
        seed: 7,
        store_read_transient: 1,
        ..FaultPlan::default()
    };
    let cache = SolveCache::with_faults(Some(&dir), DEFAULT_CACHE_SHARDS, plan)
        .expect("store opens through the retry loop");
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
    let plan = FaultPlan {
        seed: 7,
        store_read_transient: 10,
        ..FaultPlan::default()
    };
    let cache = SolveCache::with_faults(Some(&dir), DEFAULT_CACHE_SHARDS, plan)
        .expect("open survives rejected segments");
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
    let plan = FaultPlan {
        seed: 7,
        corrupt_every: 1,
        ..FaultPlan::default()
    };
    let cache = SolveCache::with_faults(Some(&dir), DEFAULT_CACHE_SHARDS, plan)
        .expect("open survives corrupt segments");
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

/// The `.tmp-*` staging files left in `dir` (a failed write must leave none).
fn staging_files(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .expect("store dir lists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(".tmp-"))
        })
        .collect()
}

#[test]
fn transient_store_write_faults_heal_inside_the_retry_loop() {
    let dir = temp_dir("write-heal");
    // One injected failure per segment write: attempt 0 fails, attempt 1
    // writes it, so the flush succeeds as if nothing had happened.
    let plan = FaultPlan {
        seed: 7,
        store_write_transient: 1,
        ..FaultPlan::default()
    };
    let cache =
        SolveCache::with_faults(Some(&dir), DEFAULT_CACHE_SHARDS, plan).expect("store opens");
    let cold = analyze_suite(&jobs(), &cache, None, None);
    assert_eq!(cold.summary.failures, 0);
    let flushed = cache
        .flush_store()
        .expect("flush heals inside the retry loop");
    assert!(flushed.appended > 0 && flushed.reports_appended > 0);
    drop(cache);
    assert!(staging_files(&dir).is_empty());

    let warm = SolveCache::with_store(&dir).expect("store reopens");
    let stats = warm.store_load_stats().expect("store stats present");
    assert_eq!(stats.entries, flushed.appended, "notes: {:?}", stats.notes);
    assert_eq!(stats.records_skipped + stats.segments_rejected, 0);
    let reports = warm.report_load_stats().expect("report stats present");
    assert_eq!(reports.entries, flushed.reports_appended);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn permanent_store_write_faults_fail_the_flush_and_write_nothing() {
    let dir = temp_dir("write-permanent");
    // Three injected failures per write exhaust the store's three attempts:
    // the flush reports the injected error and leaves the store untouched.
    let plan = FaultPlan {
        seed: 7,
        store_write_transient: 3,
        ..FaultPlan::default()
    };
    let cache =
        SolveCache::with_faults(Some(&dir), DEFAULT_CACHE_SHARDS, plan).expect("store opens");
    let batch = analyze_suite(&jobs(), &cache, None, None);
    assert_eq!(batch.summary.failures, 0);
    let err = cache
        .flush_store()
        .expect_err("every write attempt is injected to fail");
    assert!(err.to_string().contains("injected"), "{err}");
    let store = SolveStore::open_existing(&dir).expect("store opens");
    assert!(store.segment_files().expect("segments listed").is_empty());
    assert!(store.report_files().expect("reports listed").is_empty());
    assert!(staging_files(&dir).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
