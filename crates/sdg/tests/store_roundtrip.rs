//! Disk-store integration tests: cold solve → flush → fresh-process reload
//! must reproduce every result byte-identically (floats bit-compared), and
//! the failure modes of real shared directories — truncated records from a
//! crashed writer, future format versions, several processes flushing into
//! one directory — must degrade to counted notes, never panics or wrong
//! answers.

use soap_kernels::registry;
use soap_sdg::{
    analyze_program, analyze_suite, set_worker_budget, SdgOptions, SolveCache, SolveStore,
    StoreLoadStats, SuiteProgram, STORE_HEADER,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

#[path = "common/dump.rs"]
mod dump;
use dump::dump;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("soap-store-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The whole built-in registry with its Table-2 per-kernel options.
fn registry_jobs() -> Vec<SuiteProgram> {
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

/// Jobs for a named subset of the registry (cheap fixtures for the
/// corruption tests).
fn jobs_for(names: &[&str]) -> Vec<SuiteProgram> {
    registry_jobs()
        .into_iter()
        .filter(|j| names.contains(&j.name.as_str()))
        .collect()
}

/// Populate a store at `dir` by batch-analyzing `jobs` cold; returns the
/// number of structures persisted.
fn seed_store(dir: &Path, jobs: &[SuiteProgram]) -> usize {
    let cache = SolveCache::with_store(dir).expect("store opens");
    analyze_suite(jobs, &cache, None, None);
    cache.flush_store().expect("flush succeeds").appended
}

#[test]
fn full_registry_round_trips_byte_identically() {
    let dir = temp_dir("registry");
    let jobs = registry_jobs();

    let cold_cache = SolveCache::with_store(&dir).expect("store opens");
    let cold = analyze_suite(&jobs, &cold_cache, None, None);
    assert_eq!(cold.summary.failures, 0);
    assert!(cold.summary.cache.misses > 0);
    let flushed = cold_cache.flush_store().expect("flush succeeds").appended;
    assert_eq!(flushed as u64, cold.summary.cache.misses);
    drop(cold_cache);

    // This test covers the *solve-record* warm path (report replay has its
    // own test below): remove the finished-report records so every program
    // walks the pipeline against hydrated solutions.
    let store = SolveStore::open(&dir).unwrap();
    for rpt in store.report_files().unwrap() {
        std::fs::remove_file(rpt).unwrap();
    }

    // Fresh cache over the same directory — a simulated new process.
    let warm_cache = SolveCache::with_store(&dir).expect("store reopens");
    let load = warm_cache.store_load_stats().unwrap().clone();
    assert_eq!(load.records_skipped, 0, "notes: {:?}", load.notes);
    assert_eq!(load.segments_rejected, 0);
    assert_eq!(load.entries, flushed);
    let warm = analyze_suite(&jobs, &warm_cache, None, None);

    // The acceptance bar: a warm run over the full registry re-solves
    // nothing...
    assert_eq!(warm.summary.cache.misses, 0, "{:?}", warm.summary.cache);
    assert_eq!(warm.summary.cache.uncacheable, 0);
    assert_eq!(warm.summary.cache.report_hits, 0);
    assert!(warm.summary.cache.hits > 0, "{:?}", warm.summary.cache);
    assert_eq!(warm.summary.cache.store_hits, warm.summary.cache.hits);

    // ...and reproduces the cold output byte-for-byte, unsnapped floats
    // included.
    for (c, w) in cold.reports.iter().zip(&warm.reports) {
        assert_eq!(c.name, w.name);
        let (c, w) = (c.outcome.as_ref().unwrap(), w.outcome.as_ref().unwrap());
        assert_eq!(format!("{}", c.bound), format!("{}", w.bound), "{}", c.name);
        assert_eq!(c.notes, w.notes);
        assert_eq!(c.subgraphs.len(), w.subgraphs.len());
        for (sc, sw) in c.subgraphs.iter().zip(&w.subgraphs) {
            assert_eq!(sc.arrays, sw.arrays);
            assert_eq!(sc.intensity.sigma, sw.intensity.sigma);
            assert_eq!(
                sc.intensity.chi_coeff.to_bits(),
                sw.intensity.chi_coeff.to_bits(),
                "{}: chi_coeff drifted through the store",
                c.name
            );
            assert_eq!(
                format!("{}", sc.intensity.rho),
                format!("{}", sw.intensity.rho)
            );
            assert_eq!(sc.intensity.tile_exponents, sw.intensity.tile_exponents);
            for ((va, a), (vb, b)) in sc
                .intensity
                .tile_coeffs
                .iter()
                .zip(&sw.intensity.tile_coeffs)
            {
                assert_eq!(va, vb);
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{}: tile coeff for {va} drifted through the store",
                    c.name
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_record_is_skipped_with_a_counted_note() {
    let dir = temp_dir("truncate");
    let persisted = seed_store(&dir, &jobs_for(&["gemm", "mvt"]));
    assert!(persisted >= 2);

    // This test exercises the *solve-record* corruption path: remove the
    // finished-report records so the warm run walks the pipeline instead of
    // replaying whole reports.
    let store = SolveStore::open(&dir).unwrap();
    for rpt in store.report_files().unwrap() {
        std::fs::remove_file(rpt).unwrap();
    }

    // Simulate a crashed writer: chop the final record mid-line.
    let segment = store.segment_files().unwrap().pop().unwrap();
    let text = std::fs::read_to_string(&segment).unwrap();
    let cut = text.trim_end().len() - 40;
    std::fs::write(&segment, &text[..cut]).unwrap();

    let cache = SolveCache::with_store(&dir).expect("corrupt store still opens");
    let load = cache.store_load_stats().unwrap();
    assert_eq!(load.records_skipped, 1);
    assert_eq!(load.entries, persisted - 1);
    assert!(
        load.notes
            .iter()
            .any(|n| n.contains("corrupt/truncated record(s) skipped")),
        "notes: {:?}",
        load.notes
    );

    // The surviving entries still answer; only the lost structure re-solves,
    // and a flush heals the store.
    let warm = analyze_suite(&jobs_for(&["gemm", "mvt"]), &cache, None, None);
    assert_eq!(warm.summary.failures, 0);
    assert_eq!(warm.summary.cache.misses, 1);
    cache.flush_store().expect("flush heals");
    drop(cache);
    let healed = SolveCache::with_store(&dir).unwrap();
    assert_eq!(healed.store_load_stats().unwrap().entries, persisted);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every `.soapstore` file in the directory, either family.
fn all_segment_files(dir: &Path) -> usize {
    let store = SolveStore::open(dir).unwrap();
    store.segment_files().unwrap().len() + store.report_files().unwrap().len()
}

#[test]
fn full_registry_round_trips_from_report_records() {
    let dir = temp_dir("reports");
    let jobs = registry_jobs();

    let cold_cache = SolveCache::with_store(&dir).expect("store opens");
    let cold = analyze_suite(&jobs, &cold_cache, None, None);
    assert_eq!(cold.summary.failures, 0);
    assert_eq!(cold.summary.cache.report_hits, 0);
    let flush = cold_cache.flush_store().expect("flush succeeds");
    assert!(flush.reports_appended > 0);
    drop(cold_cache);

    // Fresh cache over the same directory — a simulated new process.  Every
    // program is answered from its persisted report: no enumeration, no
    // merging, no solving.
    let warm_cache = SolveCache::with_store(&dir).expect("store reopens");
    let report_load = warm_cache.report_load_stats().unwrap().clone();
    assert_eq!(report_load.records_skipped, 0, "{:?}", report_load.notes);
    assert_eq!(report_load.entries, flush.reports_appended);
    let warm = analyze_suite(&jobs, &warm_cache, None, None);
    assert_eq!(warm.summary.failures, 0);
    assert_eq!(
        warm.summary.cache.report_hits,
        jobs.len() as u64,
        "{:?}",
        warm.summary.cache
    );
    // Zero model traffic: the front half never ran.
    assert_eq!(warm.summary.cache.hits, 0, "{:?}", warm.summary.cache);
    assert_eq!(warm.summary.cache.misses, 0);
    assert_eq!(warm.summary.cache.uncacheable, 0);
    assert_eq!(warm.summary.subgraphs_enumerated, 0);
    let p = &warm.summary.phases;
    assert_eq!(
        (p.enumerate_ms, p.merge_ms, p.instantiate_ms, p.solve_ms),
        (0.0, 0.0, 0.0, 0.0)
    );

    // The replayed analyses are byte-identical to the cold ones.
    for (c, w) in cold.reports.iter().zip(&warm.reports) {
        assert_eq!(c.name, w.name);
        let (c, w) = (c.outcome.as_ref().unwrap(), w.outcome.as_ref().unwrap());
        assert_eq!(w.solver.report_hits, 1);
        assert!(!w.degraded);
        assert_eq!(format!("{}", c.bound), format!("{}", w.bound), "{}", c.name);
        assert_eq!(c.notes, w.notes);
        assert_eq!(c.per_array.len(), w.per_array.len());
        for (ac, aw) in c.per_array.iter().zip(&w.per_array) {
            assert_eq!(ac.array, aw.array);
            assert_eq!(
                format!("{}", ac.vertex_count),
                format!("{}", aw.vertex_count)
            );
            assert_eq!(format!("{}", ac.rho), format!("{}", aw.rho));
            assert_eq!(ac.sigma, aw.sigma);
            assert_eq!(ac.best_subgraph, aw.best_subgraph);
            assert_eq!(format!("{}", ac.bound), format!("{}", aw.bound));
        }
        assert_eq!(c.subgraphs.len(), w.subgraphs.len());
        for (sc, sw) in c.subgraphs.iter().zip(&w.subgraphs) {
            assert_eq!(sc.arrays, sw.arrays);
            assert_eq!(
                sc.intensity.chi_coeff.to_bits(),
                sw.intensity.chi_coeff.to_bits()
            );
            assert_eq!(sc.rho_ref.to_bits(), sw.rho_ref.to_bits(), "{}", c.name);
        }
    }

    // Satellite: a drop after an explicit flush with nothing new must write
    // no segment file in either family.
    let files_before = all_segment_files(&dir);
    let flush = warm_cache.flush_store().expect("no-op flush succeeds");
    assert_eq!((flush.appended, flush.reports_appended), (0, 0));
    assert!(flush.segment.is_none());
    drop(warm_cache);
    assert_eq!(all_segment_files(&dir), files_before);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn v1_solve_only_store_migrates_cleanly() {
    // A store directory written before report records existed holds only
    // `seg-` solve segments; it must open cleanly, report an empty report
    // layer, and keep answering every model from the solve records.
    let dir = temp_dir("migration");
    let jobs = jobs_for(&["gemm", "mvt"]);
    seed_store(&dir, &jobs);
    let store = SolveStore::open(&dir).unwrap();
    for rpt in store.report_files().unwrap() {
        std::fs::remove_file(rpt).unwrap();
    }

    let cache = SolveCache::with_store(&dir).expect("v1 store opens");
    let report_load = cache.report_load_stats().unwrap();
    assert_eq!(report_load.segments, 0);
    assert_eq!(report_load.entries, 0);
    assert!(report_load.notes.is_empty(), "{:?}", report_load.notes);
    let warm = analyze_suite(&jobs, &cache, None, None);
    assert_eq!(warm.summary.failures, 0);
    assert_eq!(warm.summary.cache.misses, 0, "{:?}", warm.summary.cache);
    assert_eq!(warm.summary.cache.report_hits, 0);
    assert!(warm.summary.cache.store_hits > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn format_version_mismatch_is_rejected_cleanly() {
    let dir = temp_dir("version");
    let persisted = seed_store(&dir, &jobs_for(&["gemm"]));

    // A segment from a hypothetical future format, and one from something
    // else entirely: both rejected whole, neither poisons the good segment.
    std::fs::write(
        dir.join("seg-99999999999999999999-1-0000.soapstore"),
        "soap-solve-store/2\n0123456789abcdef {\"key\":\"from-the-future\"}\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("seg-99999999999999999998-1-0000.soapstore"),
        "not a store segment at all\n",
    )
    .unwrap();

    let cache = SolveCache::with_store(&dir).expect("opens despite bad segments");
    let load = cache.store_load_stats().unwrap();
    assert_eq!(load.segments_rejected, 2);
    assert_eq!(load.records_skipped, 0);
    assert_eq!(load.entries, persisted);
    assert!(
        load.notes
            .iter()
            .any(|n| n.contains("format-version mismatch") && n.contains(STORE_HEADER)),
        "notes: {:?}",
        load.notes
    );
    assert!(load.notes.iter().any(|n| n.contains("missing")));
    let warm = analyze_suite(&jobs_for(&["gemm"]), &cache, None, None);
    assert_eq!(warm.summary.cache.misses, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_caches_flushing_into_one_directory_converge() {
    let dir = temp_dir("merge");
    // Two "processes" with overlapping workloads share the directory; both
    // open *before* either flushes, so each solves its own full workload.
    let cache_a = SolveCache::with_store(&dir).expect("store opens");
    let cache_b = SolveCache::with_store(&dir).expect("store opens concurrently");
    let jobs_a = jobs_for(&["gemm", "2mm"]);
    let jobs_b = jobs_for(&["2mm", "mvt"]);
    let a = analyze_suite(&jobs_a, &cache_a, None, None);
    let b = analyze_suite(&jobs_b, &cache_b, None, None);
    cache_a.flush_store().expect("A flushes");
    cache_b.flush_store().expect("B flushes");
    assert!(a.summary.cache.misses > 0 && b.summary.cache.misses > 0);

    // A third process sees the union: the overlap (2mm's structures, written
    // by both) merged last-writer-wins, and the whole combined suite runs
    // without a single solve.
    let merged = SolveCache::with_store(&dir).expect("merged store opens");
    let load = merged.store_load_stats().unwrap();
    assert_eq!(load.segments, 2);
    assert_eq!(load.records_skipped, 0);
    assert!(load.records > load.entries, "overlap written twice");
    let both = analyze_suite(&jobs_for(&["gemm", "2mm", "mvt"]), &merged, None, None);
    assert_eq!(both.summary.failures, 0);
    assert_eq!(both.summary.cache.misses, 0, "{:?}", both.summary.cache);
    assert_eq!(both.summary.cache.store_hits, both.summary.cache.hits);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file in `dir`, name → bytes.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

#[test]
fn hydration_is_identical_under_every_worker_budget() {
    let pristine = temp_dir("budget-pristine");
    let jobs = registry_jobs();
    let cold_cache = SolveCache::with_store(&pristine).expect("store opens");
    let cold = analyze_suite(&jobs, &cold_cache, None, None);
    assert_eq!(cold.summary.failures, 0);
    cold_cache.flush_store().expect("flush succeeds");
    drop(cold_cache);
    let cold: Vec<String> = cold
        .reports
        .iter()
        .map(|r| dump(r.outcome.as_ref().unwrap()))
        .collect();

    // One more solve segment, sorted last: three good records and one whose
    // digest has a flipped byte.
    let seg = SolveStore::open(&pristine)
        .unwrap()
        .segment_files()
        .unwrap()[0]
        .clone();
    let text = std::fs::read_to_string(seg).unwrap();
    let records: Vec<&str> = text.lines().skip(1).take(4).collect();
    assert_eq!(records.len(), 4);
    let flipped = if records[3].starts_with('0') {
        "1"
    } else {
        "0"
    };
    let corrupt = format!(
        "{STORE_HEADER}\n{}\n{}\n{}\n{flipped}{}\n",
        records[0],
        records[1],
        records[2],
        &records[3][1..]
    );
    std::fs::write(
        pristine.join("seg-99999999999999999999-1-0000.soapstore"),
        &corrupt,
    )
    .unwrap();
    let original = snapshot(&pristine);

    let mut runs: Vec<(StoreLoadStats, StoreLoadStats, Vec<u8>, Vec<String>)> = Vec::new();
    for budget in [1usize, 2, 8] {
        let dir = temp_dir(&format!("budget-{budget}"));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, bytes) in &original {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        let prev = set_worker_budget(budget);
        let cache = SolveCache::with_store(&dir).expect("store opens");
        let warm = analyze_suite(&jobs, &cache, None, None);
        set_worker_budget(prev);
        assert_eq!(warm.summary.cache.report_hits, jobs.len() as u64);
        let solve = cache.store_load_stats().unwrap().clone();
        let reports = cache.report_load_stats().unwrap().clone();
        drop(cache);
        assert_eq!(
            (solve.records_skipped, solve.quarantined),
            (1, 1),
            "budget {budget}: {:?}",
            solve.notes
        );
        // The salvaged segment is the one new file; it holds the three good
        // records.
        let after = snapshot(&dir);
        let salvaged: Vec<&Vec<u8>> = after
            .iter()
            .filter(|(name, _)| !original.contains_key(*name) && !name.ends_with(".quarantined"))
            .map(|(_, bytes)| bytes)
            .collect();
        assert_eq!(salvaged.len(), 1, "budget {budget}: {:?}", after.keys());
        let dumps = warm
            .reports
            .iter()
            .map(|r| dump(r.outcome.as_ref().unwrap()))
            .collect();
        runs.push((solve, reports, salvaged[0].clone(), dumps));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let mut expected_salvage = format!("{STORE_HEADER}\n");
    let mut good = records[..3].to_vec();
    good.sort();
    for line in good {
        expected_salvage.push_str(line);
        expected_salvage.push('\n');
    }
    assert_eq!(runs[0].2, expected_salvage.into_bytes());
    assert_eq!(
        runs[0].3, cold,
        "warm replay differs from the cold analysis"
    );
    for run in &runs[1..] {
        assert_eq!(run.0, runs[0].0, "solve load stats differ across budgets");
        assert_eq!(run.1, runs[0].1, "report load stats differ across budgets");
        assert_eq!(run.2, runs[0].2, "salvaged segment differs across budgets");
        assert_eq!(run.3, runs[0].3, "warm analyses differ across budgets");
    }
    let _ = std::fs::remove_dir_all(&pristine);
}

/// `program` with every loop variable `v` renamed `v_r` — in the loop
/// headers, the bounds and the subscripts.
fn rename_loops(program: &soap_ir::Program) -> soap_ir::Program {
    let mut renamed = program.clone();
    for st in &mut renamed.statements {
        let loops: Vec<String> = st.domain.loops.iter().map(|lv| lv.name.clone()).collect();
        let rename = |name: &String| {
            if loops.contains(name) {
                format!("{name}_r")
            } else {
                name.clone()
            }
        };
        for lv in &mut st.domain.loops {
            lv.name = rename(&lv.name);
            for bound in [&mut lv.lower, &mut lv.upper] {
                bound.terms = bound.terms.iter().map(|(k, v)| (rename(k), *v)).collect();
            }
        }
        for acc in std::iter::once(&mut st.output).chain(st.inputs.iter_mut()) {
            for comp in &mut acc.components {
                for ix in &mut comp.indices {
                    ix.coeffs = ix.coeffs.iter().map(|(k, v)| (rename(k), *v)).collect();
                }
            }
        }
    }
    renamed
}

#[test]
fn loop_renamed_program_never_replays_another_spellings_report() {
    // A report names its tile variables after the loops, so a store written
    // by plain gemm must not answer gemm with renamed loops: the warm
    // analysis of the renamed program must equal its cold analysis in
    // every result field, before and after its own report is persisted.
    let dir = temp_dir("loop-rename");
    let gemm = jobs_for(&["gemm"]).remove(0);
    seed_store(&dir, std::slice::from_ref(&gemm));
    let renamed = rename_loops(&gemm.program);
    assert_eq!(
        soap_sdg::canonical_program_hash(&gemm.program),
        soap_sdg::canonical_program_hash(&renamed),
        "the rename is structural only"
    );
    let cold = analyze_program(&renamed, &gemm.opts, &SolveCache::new(), None).unwrap();
    let tiles: Vec<&str> = cold.subgraphs[0]
        .intensity
        .tile_exponents
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    assert!(
        !tiles.is_empty() && tiles.iter().all(|t| t.ends_with("_r")),
        "cold tile variables follow the renamed loops: {tiles:?}"
    );

    let warm_cache = SolveCache::with_store(&dir).expect("store reopens");
    let warm = analyze_program(&renamed, &gemm.opts, &warm_cache, None).unwrap();
    assert_eq!(
        warm.solver.report_hits, 0,
        "plain gemm's report must not answer"
    );
    assert!(warm.solver.store_hits > 0, "its solved structures still do");
    assert_eq!(dump(&cold), dump(&warm));
    warm_cache.flush_store().expect("flush succeeds");
    drop(warm_cache);

    let replay_cache = SolveCache::with_store(&dir).expect("store reopens");
    let replay = analyze_program(&renamed, &gemm.opts, &replay_cache, None).unwrap();
    assert_eq!(replay.solver.report_hits, 1, "its own report answers");
    assert_eq!(dump(&cold), dump(&replay));
    let plain = analyze_program(&gemm.program, &gemm.opts, &replay_cache, None).unwrap();
    assert_eq!(plain.solver.report_hits, 1);
    assert_eq!(
        dump(&analyze_program(&gemm.program, &gemm.opts, &SolveCache::new(), None).unwrap()),
        dump(&plain)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
