//! Finished-report records end to end: the line a store-backed cache writes
//! for an analysis is byte for byte what the `Value`-tree encoder of the test
//! support writes for it, and a held line that does not decode is answered
//! as a miss and healed by the next flush.

use soap_core::IntensityResult;
use soap_ir::{Program, ProgramBuilder};
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

/// Deterministic xorshift64* generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A small random program: 1–3 statements over 2–3 loops, reading fresh
/// inputs and earlier outputs.  `None` when the drawn shape does not
/// validate.
fn random_program(rng: &mut Rng, case: usize) -> Option<Program> {
    const VARS: [&str; 3] = ["i", "j", "k"];
    const PARAMS: [&str; 2] = ["N", "M"];
    let mut builder = ProgramBuilder::new(format!("rand{case}"));
    // Arrays written so far, with their arity.
    let mut produced: Vec<(String, usize)> = Vec::new();
    for s in 0..1 + rng.below(3) {
        let depth = 2 + rng.below(2);
        let loops: Vec<(&str, &str, &str)> = VARS[..depth]
            .iter()
            .map(|v| (*v, "0", PARAMS[rng.below(PARAMS.len())]))
            .collect();
        let output = format!("W{s}");
        let out_arity = 1 + rng.below(depth);
        let out_ix = VARS[..out_arity].join(",");
        let reads: Vec<(String, String)> = (0..1 + rng.below(2))
            .map(|r| {
                let (name, arity) = if !produced.is_empty() && rng.below(2) == 0 {
                    produced[rng.below(produced.len())].clone()
                } else {
                    (format!("R{s}x{r}"), 1 + rng.below(2))
                };
                let ix: Vec<&str> = (0..arity).map(|_| VARS[rng.below(depth)]).collect();
                (name, ix.join(","))
            })
            .collect();
        let update = rng.below(2) == 0;
        builder = builder.statement(|st| {
            let st = st.loops(&loops);
            let mut st = if update {
                st.update(&output, &out_ix)
            } else {
                st.write(&output, &out_ix)
            };
            for (name, ix) in &reads {
                st = st.read(name, ix);
            }
            st
        });
        produced.push((output, out_arity));
    }
    builder.build().ok()
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
    let mut rng = Rng(0x5eed_2e90_2026_1019);
    for case in 0..60 {
        if let Some(program) = random_program(&mut rng, case) {
            jobs.push((program, SdgOptions::default()));
        }
    }
    jobs
}

/// Every result field of an analysis that a report replays.
fn dump(a: &ProgramAnalysis) -> String {
    format!(
        "{:?}",
        (
            &a.per_array,
            &a.subgraphs,
            &a.bound,
            &a.notes,
            a.degraded,
            a.arrays_deferred
        )
    )
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
