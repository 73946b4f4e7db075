//! Finished-report records end to end: the line a store-backed cache writes
//! for an analysis is byte for byte what the `Value`-tree encoder of the test
//! support writes for it, and a held line that does not decode is answered
//! as a miss and healed by the next flush.

use soap_core::IntensityResult;
use soap_ir::Program;
use soap_kernels::registry;
use soap_sdg::analysis::SubgraphIntensity;
use soap_sdg::{
    analyze_program, structural_program_key, ArrayBound, ProgramAnalysis, SdgOptions, SolveCache,
    SolveStore,
};
use soap_symbolic::{Expr, Polynomial, Rational};
use std::path::{Path, PathBuf};

#[path = "common/report_oracle.rs"]
mod report_oracle;
use report_oracle::{fnv1a64, oracle_report_line};

#[path = "common/random_programs.rs"]
mod random_programs;
use random_programs::seeded_random_programs;

#[path = "common/dump.rs"]
mod dump;
use dump::dump;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("soap-report-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every record line of the store's report segments, sorted.
fn report_lines(dir: &Path) -> Vec<String> {
    let store = SolveStore::open_existing(dir).expect("store exists");
    let mut lines: Vec<String> = store
        .report_files()
        .expect("report files listed")
        .iter()
        .flat_map(|path| {
            let text = std::fs::read_to_string(path).expect("segment reads");
            text.lines().skip(1).map(str::to_string).collect::<Vec<_>>()
        })
        .collect();
    lines.sort();
    lines
}

/// The 38 registry programs with their Table-2 options, then a seeded set of
/// random programs under the default options.
fn programs() -> Vec<(Program, SdgOptions)> {
    let mut jobs: Vec<(Program, SdgOptions)> = registry()
        .into_iter()
        .map(|entry| {
            let opts = SdgOptions {
                assume_injective: entry.assume_injective,
                ..SdgOptions::default()
            };
            (entry.program, opts)
        })
        .collect();
    assert_eq!(jobs.len(), 38);
    jobs.extend(
        seeded_random_programs()
            .into_iter()
            .map(|program| (program, SdgOptions::default())),
    );
    jobs
}

/// The oracle line of a finished analysis.
fn oracle_line(key: u64, a: &ProgramAnalysis) -> String {
    oracle_report_line(key, &a.per_array, &a.subgraphs, &a.bound, &a.notes)
}

#[test]
fn flushed_report_lines_match_the_value_tree_encoder() {
    let dir = temp_dir("oracle");
    let cache = SolveCache::with_store(&dir).expect("store opens");
    let mut expected = Vec::new();
    let mut random_reports = 0;
    for (index, (program, opts)) in programs().iter().enumerate() {
        let Ok(analysis) = analyze_program(program, opts, &cache, None) else {
            continue;
        };
        if analysis.degraded {
            continue;
        }
        if index >= 38 {
            random_reports += 1;
        }
        expected.push(oracle_line(
            structural_program_key(program, opts),
            &analysis,
        ));
    }
    assert!(
        random_reports >= 20,
        "only {random_reports} random programs analyzed"
    );
    expected.sort();
    expected.dedup();
    cache.flush_store().expect("flush succeeds");
    assert_eq!(report_lines(&dir), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn undecodable_report_line_replays_as_a_miss_and_the_flush_heals_it() {
    let dir = temp_dir("undecodable");
    let entry = registry()
        .into_iter()
        .find(|e| e.program.name == "gemm")
        .expect("gemm is registered");
    let opts = SdgOptions::default();
    let cold = analyze_program(&entry.program, &opts, &SolveCache::new(), None).expect("analyzes");
    {
        let cache = SolveCache::with_store(&dir).expect("store opens");
        analyze_program(&entry.program, &opts, &cache, None).expect("analyzes");
        assert_eq!(
            cache
                .flush_store()
                .expect("flush succeeds")
                .reports_appended,
            1
        );
    }
    // Overwrite the report with a line whose digest is valid but whose
    // payload has the wrong shape.
    let key = structural_program_key(&entry.program, &opts);
    let payload = format!("{{\"key\":{key},\"report\":{{\"per_array\":\"not an array\"}}}}");
    let bad = format!("{:016x} {payload}", fnv1a64(payload.as_bytes()));
    let store = SolveStore::open_existing(&dir).expect("store exists");
    let segments = store.report_files().expect("report files listed");
    assert_eq!(segments.len(), 1);
    std::fs::write(
        &segments[0],
        format!("{}\n{bad}\n", soap_sdg::REPORT_HEADER),
    )
    .expect("segment rewritten");

    // Open checks digests only, so the line is hydrated; the replay's decode
    // rejects it and the analysis runs cold.
    let cache = SolveCache::with_store(&dir).expect("store opens");
    let load = cache.report_load_stats().expect("report stats present");
    assert_eq!((load.entries, load.records_skipped), (1, 0));
    let warm = analyze_program(&entry.program, &opts, &cache, None).expect("analyzes");
    assert_eq!(warm.solver.report_hits, 0);
    assert_eq!(dump(&warm), dump(&cold));
    // The fresh line is persisted over the bad one.
    let flush = cache.flush_store().expect("flush succeeds");
    assert_eq!(flush.reports_appended, 1);
    drop(cache);
    assert_eq!(report_lines(&dir), {
        let mut lines = vec![bad, oracle_line(key, &cold)];
        lines.sort();
        lines
    });

    // A fresh open replays the healed record as a hit.
    let healed = SolveCache::with_store(&dir).expect("store reopens");
    let replay = analyze_program(&entry.program, &opts, &healed, None).expect("analyzes");
    assert_eq!(replay.solver.report_hits, 1);
    assert_eq!(dump(&replay), dump(&cold));
    // Nothing new to write: the replayed line came from disk.
    assert_eq!(
        healed
            .flush_store()
            .expect("flush succeeds")
            .reports_appended,
        0
    );
    drop(healed);
    let _ = std::fs::remove_dir_all(&dir);
}
