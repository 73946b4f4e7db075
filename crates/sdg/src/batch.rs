//! Cross-program batch analysis: many programs, one shared solve cache.
//!
//! The paper's headline result is a *suite* of bounds — dozens of kernels
//! analyzed by the same machinery — and real suites are full of renamed
//! copies of the same structures (gemm/2mm/3mm/bert's matmuls, the
//! jacobi/heat stencil family).  The canonical solve-cache key is
//! renaming-invariant, so sharing one [`SolveCache`] across the whole suite
//! solves each structure once *per suite* instead of once per kernel:
//! analyze the class, not the instance.
//!
//! [`analyze_suite`] runs a slice of [`SuiteProgram`]s through rayon over a
//! shared sharded cache with per-program error isolation (one failing
//! program reports its error in its [`ProgramReport`]; the rest of the suite
//! is unaffected) and returns a [`BatchAnalysis`]: per-program results and
//! timings plus a [`SuiteSummary`] with suite-wide cache accounting in which
//! cross-program hits are distinguishable from intra-program hits.
//!
//! Batch results are **byte-identical** to sequential per-program
//! [`analyze_program`] calls regardless of shard count, thread count, or
//! program order: a cache miss solves the *canonical model* of the
//! structure, never the requesting representative (see [`crate::cache`]).

use crate::analysis::{analyze_program, panic_message, PhaseTimings, ProgramAnalysis, SdgOptions};
use crate::cache::{CacheStats, SolveCache};
use rayon::prelude::*;
use soap_core::AnalysisError;
use soap_ir::Program;
use soap_symbolic::Deadline;
use std::time::{Duration, Instant};

/// One unit of batch work: a program plus the options to analyze it with.
#[derive(Clone, Debug)]
pub struct SuiteProgram {
    /// Report name (defaults to the program's own name).
    pub name: String,
    /// The program to analyze.
    pub program: Program,
    /// Analysis options for this program.
    pub opts: SdgOptions,
}

impl SuiteProgram {
    /// A suite entry named after the program, with the given options.
    pub fn new(program: Program, opts: SdgOptions) -> SuiteProgram {
        SuiteProgram {
            name: program.name.clone(),
            program,
            opts,
        }
    }

    /// A suite entry named after the program, with default options.
    pub fn with_default_opts(program: Program) -> SuiteProgram {
        SuiteProgram::new(program, SdgOptions::default())
    }
}

/// The outcome of one program of a batch run.
#[derive(Clone, Debug)]
pub struct ProgramReport {
    /// The suite entry's name.
    pub name: String,
    /// Wall-clock milliseconds spent analyzing this program.
    pub analysis_ms: f64,
    /// The analysis, or the error that failed it (isolated: other programs
    /// of the suite are unaffected).
    pub outcome: Result<ProgramAnalysis, AnalysisError>,
}

/// Aggregated accounting of one batch run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SuiteSummary {
    /// Programs analyzed.
    pub programs: usize,
    /// Programs whose analysis returned an error.
    pub failures: usize,
    /// Wall-clock milliseconds for the whole suite (parallel over programs).
    pub wall_ms: f64,
    /// Suite entries whose name collided with an earlier entry and were
    /// disambiguated to `name#2`, `name#3`, … in their [`ProgramReport`] (see
    /// [`analyze_suite`]).  0 when every entry name was unique.
    pub duplicate_names: usize,
    /// Sum of the per-program analysis times (equals `wall_ms` up to
    /// bookkeeping overhead on a single-threaded host; smaller than the sum
    /// under parallel execution).
    pub sum_program_ms: f64,
    /// Subgraph models attempted across the suite.
    pub subgraphs_enumerated: usize,
    /// Suite-wide per-phase timing totals (the successful programs'
    /// [`PhaseTimings`] summed; worker-summed phases can exceed `wall_ms`).
    pub phases: PhaseTimings,
    /// Suite-wide cache accounting: the shared cache's counter deltas over
    /// this run.  `cache.cross_program_hits` counts hits answered from a
    /// structure first solved by a *different* program — the dedup that only
    /// the shared cache provides; `cache.hits - cache.cross_program_hits`
    /// are ordinary intra-program hits.
    pub cache: CacheStats,
    /// Programs whose analysis completed *degraded* (deadline or plan-driven
    /// cancellation abandoned part of the work; the reported bound is a sound
    /// partial bound).  Degraded is not a failure: the programs count toward
    /// `programs`, not `failures`.  Always 0 on an ungoverned, fault-free
    /// run, and then omitted from the serialized summary.
    pub degraded: usize,
    /// Total array contributions deferred (counted as zero) across degraded
    /// programs.  Omitted from the serialized summary when 0.
    pub arrays_deferred: usize,
}

impl serde::Serialize for SuiteSummary {
    /// The canonical JSON record of a suite's accounting — one definition
    /// shared by `soap-cli batch` and `table2 --suite-json`, so the emitters
    /// cannot drift apart.
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("programs".to_string(), self.programs.to_value()),
            ("failures".to_string(), self.failures.to_value()),
            (
                "duplicate_names".to_string(),
                self.duplicate_names.to_value(),
            ),
            ("wall_ms".to_string(), self.wall_ms.to_value()),
            ("sum_program_ms".to_string(), self.sum_program_ms.to_value()),
            (
                "subgraphs_enumerated".to_string(),
                self.subgraphs_enumerated.to_value(),
            ),
            ("phases".to_string(), self.phases.to_value()),
            ("cache".to_string(), self.cache.to_value()),
        ];
        // Degradation accounting is emitted only when present, so the
        // serialized summary of an ungoverned, fault-free run stays
        // byte-identical to earlier releases.
        if self.degraded > 0 || self.arrays_deferred > 0 {
            fields.push(("degraded".to_string(), self.degraded.to_value()));
            fields.push((
                "arrays_deferred".to_string(),
                self.arrays_deferred.to_value(),
            ));
        }
        serde::Value::Object(fields)
    }
}

/// The result of a batch run: per-program reports (in input order) plus the
/// aggregated [`SuiteSummary`].
#[derive(Clone, Debug)]
pub struct BatchAnalysis {
    /// One report per suite entry, in input order.
    pub reports: Vec<ProgramReport>,
    /// Aggregated suite accounting.
    pub summary: SuiteSummary,
}

impl BatchAnalysis {
    /// Look up a report by suite-entry name.
    pub fn report(&self, name: &str) -> Option<&ProgramReport> {
        self.reports.iter().find(|r| r.name == name)
    }
}

/// Analyze a suite of programs over one shared cache: a fresh
/// `&SolveCache::new()`, one kept alive by a long-running service (so
/// structures solved by *earlier* suites are reused too), or a cache opened
/// with [`SolveCache::with_store`](crate::SolveCache::with_store) (so
/// structures solved by earlier *processes* are reused and new solves persist
/// for later ones; remember to flush such a cache at session end).
///
/// The summary's cache stats are the cache's counter deltas over this call;
/// when other threads use the same cache concurrently their traffic is
/// included in the delta.
///
/// **Budgets.**  `program_budget` caps each program's analysis individually,
/// `suite_budget` caps the whole run.  Each program's deadline is the
/// *minimum* of its own budget and whatever remains of the suite budget at
/// the moment it starts, so a suite that runs out of time degrades its
/// in-flight and remaining programs instead of erroring.  Degraded programs
/// complete with a sound partial bound ([`ProgramAnalysis::degraded`]) and
/// are counted in [`SuiteSummary::degraded`] — they are *not* failures.
/// With both budgets `None` no program has a deadline.
///
/// **Duplicate names.**  [`BatchAnalysis::report`] looks reports up by name,
/// and the per-program cache accounting is keyed by program scope, so two
/// suite entries sharing a name would silently shadow each other.  Duplicates
/// are therefore detected up front and disambiguated: the second entry named
/// `gemm` reports as `gemm#2`, the third as `gemm#3`, … (guaranteed unique
/// against the caller's own names too), and `SuiteSummary::duplicate_names`
/// counts how many entries were renamed so callers can surface the hint.
pub fn analyze_suite(
    jobs: &[SuiteProgram],
    cache: &SolveCache,
    program_budget: Option<Duration>,
    suite_budget: Option<Duration>,
) -> BatchAnalysis {
    let suite_deadline = suite_budget.map(Deadline::after);
    analyze_suite_inner(jobs, cache, &|job| {
        let budget = match (
            program_budget,
            suite_deadline.as_ref().and_then(|d| d.remaining()),
        ) {
            (Some(p), Some(s)) => Some(p.min(s)),
            (Some(p), None) => Some(p),
            (None, s) => s,
        };
        let deadline = budget.map(Deadline::after);
        analyze_program(&job.program, &job.opts, cache, deadline.as_ref())
    })
}

/// [`analyze_suite`] with no budgets.  Exists only for the `benchmark/`
/// workspace, which pins this name; other code calls [`analyze_suite`].
pub fn analyze_suite_with(jobs: &[SuiteProgram], cache: &SolveCache) -> BatchAnalysis {
    analyze_suite(jobs, cache, None, None)
}

/// Parse a `--timeout-ms` / `SOAP_TIMEOUT_MS`-style millisecond budget.
/// Strict in the spirit of [`rayon::parse_worker_threads`]: trimmed,
/// positive integer, anything else — including 0, which would mean "degrade
/// everything" and is never what the caller wants — is `None`.
pub fn parse_timeout_ms(raw: &str) -> Option<Duration> {
    let ms: u64 = raw.trim().parse().ok().filter(|&ms| ms > 0)?;
    Some(Duration::from_millis(ms))
}

/// The batch engine behind [`analyze_suite`], with the per-program
/// analysis injectable so the panic-isolation discipline is testable without
/// manufacturing a program whose real analysis panics.
fn analyze_suite_inner(
    jobs: &[SuiteProgram],
    cache: &SolveCache,
    analyze: &(dyn Fn(&SuiteProgram) -> Result<ProgramAnalysis, AnalysisError> + Sync),
) -> BatchAnalysis {
    let (report_names, duplicate_names) = disambiguated_names(jobs);
    let stats_before = cache.stats();
    // lint:allow(instant-now): suite deadline bookkeeping: wall-clock anchors the governed time budget
    let suite_start = Instant::now();
    let work: Vec<(&SuiteProgram, &String)> = jobs.iter().zip(report_names.iter()).collect();
    let reports: Vec<ProgramReport> = work
        .par_iter()
        .map(|&(job, name)| {
            // lint:allow(instant-now): per-program deadline bookkeeping: wall-clock anchors the governed time budget
            let start = Instant::now();
            let outcome = catch_outcome(|| analyze(job));
            ProgramReport {
                name: name.clone(),
                analysis_ms: start.elapsed().as_secs_f64() * 1e3,
                outcome,
            }
        })
        .collect();
    let wall_ms = suite_start.elapsed().as_secs_f64() * 1e3;
    let mut phases = PhaseTimings::default();
    for analysis in reports.iter().filter_map(|r| r.outcome.as_ref().ok()) {
        phases.accumulate(&analysis.phases);
    }
    let summary = SuiteSummary {
        programs: reports.len(),
        failures: reports.iter().filter(|r| r.outcome.is_err()).count(),
        duplicate_names,
        wall_ms,
        sum_program_ms: reports.iter().map(|r| r.analysis_ms).sum(),
        subgraphs_enumerated: reports
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .map(|a| a.solver.subgraphs_enumerated)
            .sum(),
        phases,
        cache: cache.stats().since(&stats_before),
        degraded: reports
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .filter(|a| a.degraded)
            .count(),
        arrays_deferred: reports
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .map(|a| a.arrays_deferred)
            .sum(),
    };
    BatchAnalysis { reports, summary }
}

/// Run one program's analysis with panic isolation: a panicking analysis
/// reports [`AnalysisError::Internal`] in its own [`ProgramReport`] — the
/// same per-program error discipline as a returned error — instead of
/// unwinding through the worker pool and killing the whole batch.
fn catch_outcome(
    analyze: impl FnOnce() -> Result<ProgramAnalysis, AnalysisError>,
) -> Result<ProgramAnalysis, AnalysisError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(analyze)).unwrap_or_else(|payload| {
        Err(AnalysisError::Internal(format!(
            "analysis panicked: {}",
            panic_message(&*payload)
        )))
    })
}

/// Report names for the suite entries, with duplicates disambiguated to
/// `name#k` (k = occurrence number, bumped past any identical caller-supplied
/// name), plus the number of entries that had to be renamed.
fn disambiguated_names(jobs: &[SuiteProgram]) -> (Vec<String>, usize) {
    use std::collections::{HashMap, HashSet};
    // Every caller-supplied name is reserved up front, so a rename can never
    // collide with a *later* entry's verbatim name (e.g. jobs `a, a, a#2`:
    // the duplicate skips `a#2` and becomes `a#3`).
    let mut taken: HashSet<String> = jobs.iter().map(|j| j.name.clone()).collect();
    let mut first_seen: HashSet<&str> = HashSet::new();
    let mut next_suffix: HashMap<&str, usize> = HashMap::new();
    let mut renamed = 0usize;
    let names = jobs
        .iter()
        .map(|job| {
            if first_seen.insert(job.name.as_str()) {
                return job.name.clone();
            }
            renamed += 1;
            let k = next_suffix.entry(job.name.as_str()).or_insert(2);
            let candidate = loop {
                let c = format!("{}#{k}", job.name);
                *k += 1;
                if !taken.contains(&c) {
                    break c;
                }
            };
            taken.insert(candidate.clone());
            candidate
        })
        .collect();
    (names, renamed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soap_ir::ProgramBuilder;

    fn matmul(name: &str, vars: [&str; 3]) -> Program {
        ProgramBuilder::new(name)
            .statement(|st| {
                st.loops(&[
                    (vars[0], "0", "N"),
                    (vars[1], "0", "N"),
                    (vars[2], "0", "N"),
                ])
                .update("C", &format!("{},{}", vars[0], vars[1]))
                .read("A", &format!("{},{}", vars[0], vars[2]))
                .read("B", &format!("{},{}", vars[2], vars[1]))
            })
            .build()
            .unwrap()
    }

    #[test]
    fn renamed_matmuls_hit_across_programs() {
        let jobs = vec![
            SuiteProgram::with_default_opts(matmul("mm1", ["i", "j", "k"])),
            SuiteProgram::with_default_opts(matmul("mm2", ["p", "q", "r"])),
        ];
        let batch = analyze_suite(&jobs, &SolveCache::new(), None, None);
        assert_eq!(batch.summary.programs, 2);
        assert_eq!(batch.summary.failures, 0);
        assert!(
            batch.summary.cache.cross_program_hits >= 1,
            "renamed matmul must be answered from the other program's entry: {:?}",
            batch.summary.cache
        );
        // Per-program summaries see their own traffic: the second program's
        // analysis reports the cross-program hit, the first reports none.
        let a = batch.report("mm1").unwrap().outcome.as_ref().unwrap();
        let b = batch.report("mm2").unwrap().outcome.as_ref().unwrap();
        assert_eq!(
            a.solver.cross_program_hits + b.solver.cross_program_hits,
            batch.summary.cache.cross_program_hits
        );
        // And the bounds are identical to standalone analyses.
        for (job, report) in jobs.iter().zip(&batch.reports) {
            let standalone =
                analyze_program(&job.program, &job.opts, &SolveCache::new(), None).unwrap();
            let batched = report.outcome.as_ref().unwrap();
            assert_eq!(
                format!("{}", standalone.bound),
                format!("{}", batched.bound)
            );
        }
    }

    #[test]
    fn duplicate_suite_names_are_disambiguated() {
        // Two `mm` entries plus a caller-supplied literal `mm#2`: the
        // duplicate must not shadow either, so it becomes `mm#3`.
        let mut literal = matmul("mm", ["x", "y", "z"]);
        literal.name = "mm#2".to_string();
        let jobs = vec![
            SuiteProgram::with_default_opts(matmul("mm", ["i", "j", "k"])),
            SuiteProgram::with_default_opts(matmul("mm", ["p", "q", "r"])),
            SuiteProgram::with_default_opts(literal),
        ];
        let batch = analyze_suite(&jobs, &SolveCache::new(), None, None);
        let names: Vec<&str> = batch.reports.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["mm", "mm#3", "mm#2"]);
        assert_eq!(batch.summary.duplicate_names, 1);
        // Every report is now reachable by name — nothing shadowed.
        for name in names {
            assert!(batch.report(name).unwrap().outcome.is_ok(), "{name}");
        }
        // Unique names stay verbatim and report no duplicates.
        let unique = analyze_suite(
            &[SuiteProgram::with_default_opts(matmul(
                "only",
                ["i", "j", "k"],
            ))],
            &SolveCache::new(),
            None,
            None,
        );
        assert_eq!(unique.summary.duplicate_names, 0);
        assert_eq!(unique.reports[0].name, "only");
    }

    #[test]
    fn store_backed_suite_runs_warm_with_zero_misses() {
        let dir = std::env::temp_dir().join(format!("soap-batch-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let jobs = vec![
            SuiteProgram::with_default_opts(matmul("mm1", ["i", "j", "k"])),
            SuiteProgram::with_default_opts(matmul("mm2", ["p", "q", "r"])),
        ];
        let cold = {
            let cache = SolveCache::with_store(&dir).expect("store opens");
            let batch = analyze_suite(&jobs, &cache, None, None);
            assert!(batch.summary.cache.misses > 0);
            assert_eq!(batch.summary.cache.store_hits, 0);
            cache.flush_store().expect("flush succeeds");
            batch
        };
        let cache = SolveCache::with_store(&dir).expect("store reopens");
        let warm = analyze_suite(&jobs, &cache, None, None);
        assert_eq!(warm.summary.cache.misses, 0, "{:?}", warm.summary.cache);
        assert_eq!(warm.summary.cache.uncacheable, 0);
        // The warm run is answered from persisted *report* records — the
        // whole front half is skipped, so there is no solve-cache traffic at
        // all (both jobs are renamed twins sharing one structural key).
        assert_eq!(
            warm.summary.cache.report_hits, 2,
            "{:?}",
            warm.summary.cache
        );
        assert_eq!(warm.summary.cache.hits, 0);
        // Byte-identical outputs, unsnapped floats included.
        for (c, w) in cold.reports.iter().zip(&warm.reports) {
            let (c, w) = (c.outcome.as_ref().unwrap(), w.outcome.as_ref().unwrap());
            assert_eq!(format!("{}", c.bound), format!("{}", w.bound));
            for (sc, sw) in c.subgraphs.iter().zip(&w.subgraphs) {
                assert_eq!(
                    sc.intensity.chi_coeff.to_bits(),
                    sw.intensity.chi_coeff.to_bits()
                );
                for ((_, a), (_, b)) in sc
                    .intensity
                    .tile_coeffs
                    .iter()
                    .zip(&sw.intensity.tile_coeffs)
                {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failing_programs_are_isolated() {
        use soap_ir::{ArrayAccess, IterationDomain, LinIndex, Statement};
        // A statement with an empty loop nest fails `Program::validate`, so
        // its analysis errors — the builder refuses to construct one, hence
        // assemble it directly.  The other programs of the suite must be
        // unaffected, and the failure must land in the report, not abort the
        // batch.
        let invalid = Program::new(
            "invalid",
            vec![Statement {
                name: "empty_nest".to_string(),
                domain: IterationDomain::new(vec![]),
                output: ArrayAccess::single("Z", vec![LinIndex::constant(0)]),
                inputs: vec![],
                is_update: false,
            }],
        );
        assert!(invalid.validate().is_err(), "fixture must be invalid");
        let jobs = vec![
            SuiteProgram::with_default_opts(matmul("ok", ["i", "j", "k"])),
            SuiteProgram::with_default_opts(invalid),
            SuiteProgram::with_default_opts(matmul("ok2", ["p", "q", "r"])),
        ];
        let batch = analyze_suite(&jobs, &SolveCache::new(), None, None);
        assert_eq!(batch.summary.programs, 3);
        assert_eq!(batch.summary.failures, 1);
        assert!(batch.report("ok").unwrap().outcome.is_ok());
        assert!(batch.report("ok2").unwrap().outcome.is_ok());
        let failure = &batch.report("invalid").unwrap().outcome;
        assert!(
            matches!(failure, Err(AnalysisError::InvalidStatement(_))),
            "expected an isolated InvalidStatement error, got {failure:?}"
        );
        // An init-only program, by contrast, analyzes successfully with
        // diagnostic notes (not an error) — both outcomes coexist in one
        // suite without affecting each other.
        let init_only = ProgramBuilder::new("init_only")
            .statement(|st| st.loops(&[("i", "0", "N")]).write("Z", "0"))
            .build()
            .unwrap();
        let batch = analyze_suite(
            &[SuiteProgram::with_default_opts(init_only)],
            &SolveCache::new(),
            None,
            None,
        );
        assert_eq!(batch.summary.failures, 0);
        let init = batch.report("init_only").unwrap().outcome.as_ref().unwrap();
        assert!(!init.notes.is_empty());
    }

    #[test]
    fn parse_timeout_is_strict() {
        assert_eq!(parse_timeout_ms("100"), Some(Duration::from_millis(100)));
        assert_eq!(parse_timeout_ms(" 5 "), Some(Duration::from_millis(5)));
        for bad in ["", "0", "-3", "1.5", "fast", "10ms"] {
            assert_eq!(parse_timeout_ms(bad), None, "input {bad:?}");
        }
    }

    #[test]
    fn exhausted_budget_degrades_instead_of_failing() {
        let jobs = vec![
            SuiteProgram::with_default_opts(matmul("mm1", ["i", "j", "k"])),
            SuiteProgram::with_default_opts(matmul("mm2", ["p", "q", "r"])),
        ];
        // A zero program budget is expired before any work starts, so every
        // cancellation trips at its deterministic commit point: the suite
        // must complete with degraded (not failed) reports and a zero bound.
        let batch = analyze_suite(&jobs, &SolveCache::new(), Some(Duration::ZERO), None);
        assert_eq!(batch.summary.failures, 0, "degraded is not failure");
        assert_eq!(batch.summary.degraded, 2);
        assert!(batch.summary.arrays_deferred >= 2);
        for report in &batch.reports {
            let analysis = report.outcome.as_ref().expect("degraded, not failed");
            assert!(analysis.degraded);
            assert!(analysis.per_array.is_empty());
            assert!(
                analysis.notes.iter().any(|n| n.contains("degraded")),
                "notes must explain the degradation: {:?}",
                analysis.notes
            );
        }
        // With no budgets nothing degrades and there is no degradation
        // accounting.
        let baseline = analyze_suite(&jobs, &SolveCache::new(), None, None);
        assert_eq!(baseline.summary.degraded, 0);
        assert_eq!(baseline.summary.arrays_deferred, 0);
        // A generous budget changes nothing: byte-identical bounds.
        let generous = analyze_suite(
            &jobs,
            &SolveCache::new(),
            Some(Duration::from_secs(3600)),
            Some(Duration::from_secs(3600)),
        );
        assert_eq!(generous.summary.degraded, 0);
        for (a, b) in generous.reports.iter().zip(&baseline.reports) {
            assert_eq!(
                format!("{}", a.outcome.as_ref().unwrap().bound),
                format!("{}", b.outcome.as_ref().unwrap().bound)
            );
        }
    }

    #[test]
    fn poisoned_program_does_not_kill_the_batch() {
        // A per-program analysis that *panics* (a bug, not an error return)
        // must be caught and reported as an isolated Internal error in its
        // own report; the other programs of the suite still complete, and the
        // suite accounting sees exactly one failure.  Inject the panic
        // through the analysis seam so the test does not depend on finding a
        // program that crashes the real pipeline.
        let jobs = vec![
            SuiteProgram::with_default_opts(matmul("ok", ["i", "j", "k"])),
            SuiteProgram::with_default_opts(matmul("poison", ["p", "q", "r"])),
            SuiteProgram::with_default_opts(matmul("ok2", ["x", "y", "z"])),
        ];
        let cache = SolveCache::new();
        let batch = analyze_suite_inner(&jobs, &cache, &|job| {
            if job.name == "poison" {
                panic!("injected analysis bug");
            }
            analyze_program(&job.program, &job.opts, &cache, None)
        });
        assert_eq!(batch.summary.programs, 3);
        assert_eq!(batch.summary.failures, 1);
        assert!(batch.report("ok").unwrap().outcome.is_ok());
        assert!(batch.report("ok2").unwrap().outcome.is_ok());
        match &batch.report("poison").unwrap().outcome {
            Err(AnalysisError::Internal(msg)) => {
                assert!(msg.contains("injected analysis bug"), "message: {msg}");
            }
            other => panic!("expected an isolated Internal error, got {other:?}"),
        }
    }
}
