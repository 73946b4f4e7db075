//! Program-level analysis: Theorem 1.

use crate::cache::{CacheStats, SolveCache};
use crate::graph::Sdg;
use crate::merge::merged_model;
use crate::service::structural_program_key;
use crate::store::StoredReport;
use crate::subgraphs::enumerate_connected_subgraphs_governed;
use rayon::prelude::*;
use soap_core::{AnalysisError, AnalysisOptions, IntensityResult};
use soap_ir::Program;
// `nan_last` (the shared NaN-below-everything total order) keeps the
// Theorem-1 maximum deterministic when a subgraph's `ρ` fails to evaluate:
// the seed's `partial_cmp(..).unwrap_or(Equal)` silently treated NaN as equal
// to everything, making the winner order-dependent.
use soap_symbolic::{nan_last, Deadline, Expr, Polynomial, Rational};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Options for the SDG analysis.
#[derive(Clone, Debug)]
pub struct SdgOptions {
    /// Section 5.3: treat linear-combination subscripts as injective.
    pub assume_injective: bool,
    /// Maximum number of arrays per enumerated subgraph.
    pub max_subgraph_size: usize,
    /// Hard cap on the number of enumerated subgraphs.
    pub max_subgraphs: usize,
    /// Reference fast-memory size used to order intensities numerically.
    pub reference_s: f64,
}

impl Default for SdgOptions {
    fn default() -> Self {
        SdgOptions {
            assume_injective: false,
            max_subgraph_size: 4,
            max_subgraphs: 4096,
            reference_s: 1.0e6,
        }
    }
}

/// The intensity of one evaluated SDG subgraph.
#[derive(Clone, Debug)]
pub struct SubgraphIntensity {
    /// The arrays of the subgraph `H`.
    pub arrays: Vec<String>,
    /// The solved intensity of the subgraph statement `St_H`.
    pub intensity: IntensityResult,
    /// `ρ` evaluated once at [`SdgOptions::reference_s`], cached so the
    /// Theorem-1 maximum compares plain floats instead of re-evaluating the
    /// symbolic intensity inside the comparator.
    pub rho_ref: f64,
}

/// The per-array term of Theorem 1.
#[derive(Clone, Debug)]
pub struct ArrayBound {
    /// The computed array.
    pub array: String,
    /// `|A|`: the exact number of CDAG vertices written into the array.
    pub vertex_count: Polynomial,
    /// The maximal intensity over subgraphs containing the array.
    pub rho: Expr,
    /// The exponent σ of that intensity's power law.
    pub sigma: Rational,
    /// The subgraph attaining the maximum.
    pub best_subgraph: Vec<String>,
    /// The array's contribution `|A| / ρ` (leading order).
    pub bound: Expr,
}

/// Solver-side accounting of one program analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverSummary {
    /// Subgraphs enumerated (models attempted).
    pub subgraphs_enumerated: usize,
    /// Models answered from the canonical-key cache.
    pub cache_hits: u64,
    /// Models actually solved (cache misses).
    pub cache_misses: u64,
    /// Models solved directly because no canonical key exists (outside
    /// (max-)posynomial form, or carrying exact-LP index sets).
    pub uncacheable: u64,
    /// The subset of `cache_hits` with a max-form (`max`/`min`) dominator.
    pub max_cache_hits: u64,
    /// The subset of `cache_misses` with a max-form dominator.
    pub max_cache_misses: u64,
    /// The subset of `cache_hits` answered from a structure first solved by a
    /// *different* program sharing the same cache (always 0 for a private
    /// per-program cache).
    pub cross_program_hits: u64,
    /// The subset of `cache_hits` answered from the disk-persisted store the
    /// cache was opened with ([`SolveCache::with_store`]) — structures solved
    /// by an earlier *process*.  Always 0 for a store-less cache; disjoint
    /// from `cross_program_hits`.
    pub store_hits: u64,
    /// 1 when this whole analysis was answered from a persisted *report*
    /// record keyed by [`crate::structural_program_key`] — skipping
    /// enumeration, merging, instantiation, and solving entirely (all other
    /// counters and the phase timings are then zero).  0 on every other
    /// path.
    pub report_hits: u64,
    /// KKT solves of this analysis that exhausted the iteration budget
    /// without converging (also reported in `notes` when non-zero).
    pub kkt_cap_hits: u64,
    /// Subgraphs dropped because statement merging failed.
    pub merge_failures: usize,
    /// Subgraphs dropped because the intensity solve failed.
    pub solve_failures: usize,
    /// Subgraphs dropped because their analysis panicked (caught and isolated
    /// per subgraph; the rest of the program's subgraphs still complete).
    pub panic_failures: usize,
    /// Subgraphs abandoned at a deadline/cancellation commit point.  Unlike
    /// the failure counters above these do **not** merely loosen the
    /// Theorem-1 maximum: every array touching a cancelled subgraph has its
    /// contribution deferred (counted as zero), keeping the degraded bound a
    /// sound partial bound.  Always 0 on an ungoverned, fault-free run.
    pub cancelled: usize,
}

/// Wall-clock decomposition of one program analysis into the pipeline's
/// phases, in milliseconds.
///
/// `enumerate_ms` is plain wall clock on the calling thread (SDG construction
/// plus connected-subgraph enumeration).  The other three are *summed across
/// workers*, so on a multi-threaded run their total can legitimately exceed
/// the program's wall clock.  `solve_ms` counts actual optimizer time (cache
/// misses and uncacheable models only); `instantiate_ms` is the remainder of
/// the per-subgraph cache path — canonical-key construction, shard lock
/// waits and stored-solution instantiation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTimings {
    /// SDG construction + connected-subgraph enumeration (wall clock).
    pub enumerate_ms: f64,
    /// Per-subgraph statement merging (summed across workers).
    pub merge_ms: f64,
    /// Canonical-key construction + cache lookup + stored-solution
    /// instantiation (summed across workers).
    pub instantiate_ms: f64,
    /// Actual optimizer solves — cache misses and uncacheable models (summed
    /// across workers).
    pub solve_ms: f64,
}

impl PhaseTimings {
    /// Fold another program's phase timings into suite-level totals.
    pub fn accumulate(&mut self, other: &PhaseTimings) {
        self.enumerate_ms += other.enumerate_ms;
        self.merge_ms += other.merge_ms;
        self.instantiate_ms += other.instantiate_ms;
        self.solve_ms += other.solve_ms;
    }
}

impl serde::Serialize for PhaseTimings {
    /// The canonical JSON record of a phase breakdown — shared by the CLI's
    /// batch summary and `table2 --suite-json` so the emitters cannot drift.
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("enumerate_ms".to_string(), self.enumerate_ms.to_value()),
            ("merge_ms".to_string(), self.merge_ms.to_value()),
            ("instantiate_ms".to_string(), self.instantiate_ms.to_value()),
            ("solve_ms".to_string(), self.solve_ms.to_value()),
        ])
    }
}

/// Best-effort human-readable message from a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The result of analyzing a whole program.
#[derive(Clone, Debug)]
pub struct ProgramAnalysis {
    /// Program name.
    pub name: String,
    /// Per-array Theorem-1 terms.
    pub per_array: Vec<ArrayBound>,
    /// All evaluated subgraphs and their intensities.
    pub subgraphs: Vec<SubgraphIntensity>,
    /// The total leading-order I/O lower bound `Q`.
    pub bound: Expr,
    /// Diagnostic notes (skipped arrays, enumeration truncation, …).
    pub notes: Vec<String>,
    /// Solve/cache accounting (hits, misses, failures, KKT cap hits).
    pub solver: SolverSummary,
    /// Per-phase timing breakdown (enumerate / merge / instantiate / solve).
    pub phases: PhaseTimings,
    /// True iff a deadline or cancellation abandoned part of the analysis.
    /// The `bound` is then a *sound partial bound*: numerically at most the
    /// full Theorem-1 bound (deferred arrays contribute zero), never more.
    /// Always false on an ungoverned, fault-free run.
    pub degraded: bool,
    /// Computed arrays whose contribution was deferred (counted as zero)
    /// because a candidate subgraph was cancelled before it solved, or
    /// because enumeration itself was cut short.
    pub arrays_deferred: usize,
}

impl ProgramAnalysis {
    /// Evaluate the bound numerically.
    pub fn bound_at(&self, bindings: &BTreeMap<String, f64>) -> Option<f64> {
        self.bound.eval(bindings)
    }

    /// The dominant (highest-degree) term of the bound, as a display string.
    pub fn bound_string(&self) -> String {
        format!("{}", self.bound)
    }
}

/// Analyze a program: enumerate SDG subgraphs, solve each subgraph
/// statement's intensity in parallel through `cache`, and combine them with
/// Theorem 1.
///
/// The cache may be shared: structures already solved by *other* programs
/// through it are answered without solving, and the returned
/// [`SolverSummary`] accounts this analysis's traffic only (with
/// cross-program hits broken out).  Results are byte-identical to a run with
/// a private cache (`&SolveCache::new()`) — see the order-invariance notes on
/// [`crate::cache`].
///
/// With no deadline (and no active fault plan) nothing is abandoned.  When
/// the deadline expires — or the active [`crate::faults::FaultPlan`] trips a
/// deterministic cancellation — the analysis abandons work only at commit
/// points (enumeration level boundaries, per-subgraph closure starts, KKT
/// iteration checks) and returns a **degraded-but-sound** result instead of
/// an error: every array touching a cancelled subgraph contributes *zero* to
/// the bound (see [`ProgramAnalysis::degraded`]), so the degraded bound never
/// exceeds the full Theorem-1 bound.
pub fn analyze_program(
    program: &Program,
    opts: &SdgOptions,
    cache: &SolveCache,
    deadline: Option<&Deadline>,
) -> Result<ProgramAnalysis, AnalysisError> {
    program
        .validate()
        .map_err(|e| AnalysisError::InvalidStatement(e.to_string()))?;
    // Report-store probe: a finished analysis persisted under the same
    // structural key (program structure modulo renaming, plus every option
    // that shapes the result) answers the whole request before any pipeline
    // work — enumeration, merging, instantiation, and solving are all
    // skipped.  Stored reports are never degraded, so the replay is the full
    // Theorem-1 result, byte-identical to recomputing it.
    let report_key = structural_program_key(program, opts);
    if let Some(report) = cache.lookup_report(report_key) {
        return Ok(ProgramAnalysis {
            name: program.name.clone(),
            per_array: report.per_array.clone(),
            subgraphs: report.subgraphs.clone(),
            bound: report.bound.clone(),
            notes: report.notes.clone(),
            solver: SolverSummary {
                report_hits: 1,
                ..SolverSummary::default()
            },
            phases: PhaseTimings::default(),
            degraded: false,
            arrays_deferred: 0,
        });
    }
    let plan = crate::faults::active_plan();
    let mut notes = Vec::new();
    // lint:allow(instant-now): phase timings are perf metadata on the report; bound computation never depends on them
    let enumerate_start = Instant::now();
    let sdg = Sdg::from_program(program);
    let enumeration = enumerate_connected_subgraphs_governed(
        &sdg,
        opts.max_subgraph_size,
        opts.max_subgraphs,
        deadline,
        plan.as_deref().and_then(|p| p.level_cap()),
    );
    let enumerate_ms = enumerate_start.elapsed().as_secs_f64() * 1e3;
    if enumeration.truncated {
        notes.push(format!(
            "subgraph enumeration truncated at {} subgraphs (max size {}); the bound may be looser than the full Theorem-1 maximum",
            opts.max_subgraphs, opts.max_subgraph_size
        ));
    }
    let enumeration_cut_short = enumeration.deadline_truncated;
    let subgraph_sets = enumeration.subgraphs;
    let core_opts = AnalysisOptions {
        assume_injective: opts.assume_injective,
    };

    // Solve all subgraph statements in parallel; structurally identical
    // merged models (canonical key modulo variable renaming) hit the shared
    // solve cache and are solved only once.  The session scopes this
    // analysis's accounting within the (possibly shared) cache.  Each
    // subgraph runs under `catch_unwind`, so one panicking subgraph is
    // dropped like any other per-subgraph failure instead of tearing down
    // the whole program analysis.
    let session = cache.session(deadline.cloned());
    let reference_s = opts.reference_s;
    let merge_ns = AtomicU64::new(0);
    let solve_call_ns = AtomicU64::new(0);
    enum SubgraphFailure {
        Merge(AnalysisError),
        Solve(AnalysisError),
        Panic(String),
        Cancelled,
    }
    let program_name = program.name.as_str();
    // The worker-pool stand-in has no `enumerate`; pair each set with its
    // enumeration index up front (the index keys the plan's deterministic,
    // thread-independent cancellation trip).
    let indexed_sets: Vec<(usize, &Vec<String>)> = subgraph_sets.iter().enumerate().collect();
    let outcomes: Vec<Result<SubgraphIntensity, SubgraphFailure>> = indexed_sets
        .par_iter()
        .map(|&(index, arrays)| {
            // Cancellation commit point: the plan trip is a pure function of
            // the enumeration index (thread-independent), the wall-clock
            // check is best-effort.  Checked before any work is spent.
            if plan.as_deref().is_some_and(|p| p.cancels_subgraph(index))
                || deadline.is_some_and(|d| d.expired())
            {
                return Err(SubgraphFailure::Cancelled);
            }
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if plan
                    .as_deref()
                    .is_some_and(|p| p.panics_subgraph(program_name, arrays))
                {
                    panic!(
                        "injected fault-plan panic (program {program_name}, subgraph {arrays:?})"
                    );
                }
                // lint:allow(instant-now): phase timings are perf metadata on the report; bound computation never depends on them
                let merge_start = Instant::now();
                let merged = merged_model(program, arrays, &core_opts);
                merge_ns.fetch_add(crate::cache::elapsed_ns(merge_start), Ordering::Relaxed);
                let model = merged.map_err(SubgraphFailure::Merge)?;
                // lint:allow(instant-now): phase timings are perf metadata on the report; bound computation never depends on them
                let solve_start = Instant::now();
                let solved = session.solve(&model);
                solve_call_ns.fetch_add(crate::cache::elapsed_ns(solve_start), Ordering::Relaxed);
                let intensity = solved.map_err(|e| match e {
                    AnalysisError::Cancelled(_) => SubgraphFailure::Cancelled,
                    other => SubgraphFailure::Solve(other),
                })?;
                let rho_ref = intensity.rho_at(reference_s);
                Ok(SubgraphIntensity {
                    arrays: arrays.clone(),
                    intensity,
                    rho_ref,
                })
            }))
            .unwrap_or_else(|payload| Err(SubgraphFailure::Panic(panic_message(&*payload))))
        })
        .collect();

    // Failed subgraphs only loosen the Theorem-1 maximum (fewer candidate
    // intensities); count them per error kind so a looser bound is
    // diagnosable instead of silently dropping them.  *Cancelled* subgraphs
    // are different: dropping a candidate would raise the claimed lower
    // bound, so every array they touch is deferred instead (contributes 0).
    let attempted = outcomes.len();
    let mut subgraphs: Vec<SubgraphIntensity> = Vec::with_capacity(attempted);
    let mut merge_failures = 0usize;
    let mut solve_failures = 0usize;
    let mut panic_failures = 0usize;
    let mut cancelled = 0usize;
    let mut deferred_arrays: BTreeSet<String> = BTreeSet::new();
    let mut first_panic: Option<String> = None;
    let mut failure_kinds: BTreeMap<String, usize> = BTreeMap::new();
    for (index, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(s) => subgraphs.push(s),
            Err(SubgraphFailure::Cancelled) => {
                cancelled += 1;
                deferred_arrays.extend(subgraph_sets[index].iter().cloned());
            }
            Err(failure) => {
                let (stage, kind) = match &failure {
                    SubgraphFailure::Merge(e) => {
                        merge_failures += 1;
                        ("merge", error_kind(e))
                    }
                    SubgraphFailure::Solve(e) => {
                        solve_failures += 1;
                        ("solve", error_kind(e))
                    }
                    SubgraphFailure::Panic(msg) => {
                        panic_failures += 1;
                        if first_panic.is_none() {
                            first_panic = Some(msg.clone());
                        }
                        ("analysis", "panic")
                    }
                    SubgraphFailure::Cancelled => unreachable!("handled above"),
                };
                *failure_kinds.entry(format!("{stage}/{kind}")).or_insert(0) += 1;
            }
        }
    }
    if merge_failures + solve_failures + panic_failures > 0 {
        let breakdown: Vec<String> = failure_kinds
            .iter()
            .map(|(kind, count)| format!("{count}× {kind}"))
            .collect();
        notes.push(format!(
            "{} of {} enumerated subgraphs were skipped ({}); their intensities are missing from the Theorem-1 maximum, so the bound may be looser",
            merge_failures + solve_failures + panic_failures,
            attempted,
            breakdown.join(", ")
        ));
    }
    if let Some(msg) = first_panic {
        notes.push(format!(
            "a subgraph analysis panicked (first payload: {msg}); this is a bug in the analysis, not a property of the input"
        ));
    }
    let cache_stats: CacheStats = session.stats();
    if cache_stats.kkt_cap_hits > 0 {
        notes.push(format!(
            "{} KKT solve(s) exhausted the iteration budget without converging; the affected intensities use the best iterate found and may be slightly loose",
            cache_stats.kkt_cap_hits
        ));
    }

    let degraded = enumeration_cut_short || cancelled > 0;
    if degraded {
        let mut parts = Vec::new();
        if enumeration_cut_short {
            parts.push("subgraph enumeration was cut short at a level boundary".to_string());
        }
        if cancelled > 0 {
            parts.push(format!(
                "{cancelled} of {attempted} subgraph(s) were cancelled before solving"
            ));
        }
        notes.push(format!(
            "analysis degraded by deadline/cancellation: {}; affected arrays contribute zero, so the reported bound is a sound partial bound (at most the full Theorem-1 bound)",
            parts.join("; ")
        ));
    }

    // Theorem 1: per computed array, the maximal intensity over subgraphs
    // containing it.  Under degradation an array is *deferred* — counted as
    // zero — when its candidate set may be incomplete: dropping a candidate
    // from the maximum would shrink the denominator and *raise* the claimed
    // lower bound, which is the unsound direction.
    let params = program.parameters();
    let mut per_array = Vec::new();
    let mut arrays_deferred = 0usize;
    let mut total = Expr::zero();
    for array in program.computed_arrays() {
        if enumeration_cut_short || deferred_arrays.contains(&array) {
            arrays_deferred += 1;
            notes.push(format!(
                "array {array}: contribution deferred (a candidate subgraph was cancelled before solving); counted as zero in the degraded bound"
            ));
            continue;
        }
        let candidates: Vec<&SubgraphIntensity> = subgraphs
            .iter()
            .filter(|s| s.arrays.contains(&array))
            .collect();
        if candidates.is_empty() {
            notes.push(format!(
                "array {array}: no analyzable subgraph (e.g. an initialization statement without inputs); its compulsory traffic is not included in the bound"
            ));
            continue;
        }
        let best = candidates
            .iter()
            .max_by(|a, b| nan_last(a.rho_ref, b.rho_ref))
            // lint:allow(unwrap-expect): candidate enumeration always yields at least the trivial subgraph
            .expect("non-empty candidates");
        let vertex_count = program.vertex_count_of(&array);
        let leading = vertex_count.leading_terms(&params).to_expr();
        let bound = leading.div(best.intensity.rho.clone());
        total = total.add(bound.clone());
        per_array.push(ArrayBound {
            array,
            vertex_count,
            rho: best.intensity.rho.clone(),
            sigma: best.intensity.sigma,
            best_subgraph: best.arrays.clone(),
            bound,
        });
    }

    let solve_ms = session.solve_ms();
    let phases = PhaseTimings {
        enumerate_ms,
        merge_ms: merge_ns.load(Ordering::Relaxed) as f64 / 1e6,
        instantiate_ms: (solve_call_ns.load(Ordering::Relaxed) as f64 / 1e6 - solve_ms).max(0.0),
        solve_ms,
    };

    // Persist the finished report for later processes — but only a *full*
    // result: degraded analyses are partial by construction, and a panicked
    // subgraph means the Theorem-1 maximum may be missing candidates for a
    // reason that is a bug, not a property of the input.
    if !degraded && panic_failures == 0 && cache.store_dir().is_some() {
        cache.record_report(
            report_key,
            StoredReport {
                per_array: per_array.clone(),
                subgraphs: subgraphs.clone(),
                bound: total.clone(),
                notes: notes.clone(),
            },
        );
    }

    Ok(ProgramAnalysis {
        name: program.name.clone(),
        per_array,
        subgraphs,
        bound: total,
        notes,
        solver: SolverSummary {
            subgraphs_enumerated: attempted,
            cache_hits: cache_stats.hits,
            cache_misses: cache_stats.misses,
            uncacheable: cache_stats.uncacheable,
            max_cache_hits: cache_stats.max_hits,
            max_cache_misses: cache_stats.max_misses,
            cross_program_hits: cache_stats.cross_program_hits,
            store_hits: cache_stats.store_hits,
            report_hits: 0,
            kkt_cap_hits: cache_stats.kkt_cap_hits,
            merge_failures,
            solve_failures,
            panic_failures,
            cancelled,
        },
        phases,
        degraded,
        arrays_deferred,
    })
}

/// [`analyze_program`] with no deadline.  Exists only for the `benchmark/`
/// workspace, which pins this name; other code calls [`analyze_program`].
pub fn analyze_program_with_cache(
    program: &Program,
    opts: &SdgOptions,
    cache: &SolveCache,
) -> Result<ProgramAnalysis, AnalysisError> {
    analyze_program(program, opts, cache, None)
}

/// The diagnostic kind label of an [`AnalysisError`] for failure breakdowns.
fn error_kind(err: &AnalysisError) -> &'static str {
    match err {
        AnalysisError::InvalidStatement(_) => "invalid statement",
        AnalysisError::NoInputs(_) => "no inputs",
        AnalysisError::NumericalFailure(_) => "numerical failure",
        AnalysisError::Internal(_) => "internal failure",
        AnalysisError::Cancelled(_) => "cancelled",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soap_ir::ProgramBuilder;

    /// A default-options, private-cache, ungoverned analysis.
    fn analyze(program: &Program) -> ProgramAnalysis {
        analyze_program(program, &SdgOptions::default(), &SolveCache::new(), None).unwrap()
    }

    fn eval(e: &Expr, pairs: &[(&str, f64)]) -> f64 {
        let b: BTreeMap<String, f64> = pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        e.eval(&b).unwrap()
    }

    fn gemm() -> Program {
        ProgramBuilder::new("gemm")
            .statement(|st| {
                st.loops(&[("i", "0", "N"), ("j", "0", "N"), ("k", "0", "N")])
                    .update("C", "i,j")
                    .read("A", "i,k")
                    .read("B", "k,j")
            })
            .build()
            .unwrap()
    }

    fn two_mm() -> Program {
        ProgramBuilder::new("2mm")
            .statement(|st| {
                st.loops(&[("i", "0", "N"), ("j", "0", "N"), ("k", "0", "N")])
                    .update("tmp", "i,j")
                    .read("A", "i,k")
                    .read("B", "k,j")
            })
            .statement(|st| {
                st.loops(&[("i", "0", "N"), ("l", "0", "N"), ("j", "0", "N")])
                    .update("D", "i,l")
                    .read("tmp", "i,j")
                    .read("C", "j,l")
            })
            .build()
            .unwrap()
    }

    #[test]
    fn gemm_program_bound_matches_single_statement() {
        let res = analyze(&gemm());
        assert_eq!(res.per_array.len(), 1);
        let q = eval(&res.bound, &[("N", 1000.0), ("S", 10_000.0)]);
        assert!((q - 2.0e7).abs() / 2.0e7 < 0.05, "bound {q}");
    }

    #[test]
    fn two_mm_bound_is_four_n_cubed_over_sqrt_s() {
        let res = analyze(&two_mm());
        assert_eq!(res.per_array.len(), 2);
        let q = eval(&res.bound, &[("N", 1000.0), ("S", 10_000.0)]);
        let expected = 4.0e9 / 100.0;
        assert!(
            (q - expected).abs() / expected < 0.1,
            "bound {q} vs {expected}"
        );
        // Both arrays should be bounded by the isolated matmul intensity.
        for ab in &res.per_array {
            assert_eq!(ab.sigma, Rational::new(3, 2), "array {}", ab.array);
        }
    }

    #[test]
    fn mvt_counts_the_matrix_once() {
        let p = ProgramBuilder::new("mvt")
            .statement(|st| {
                st.loops(&[("i", "0", "N"), ("j", "0", "N")])
                    .update("x1", "i")
                    .read("A", "i,j")
                    .read("y1", "j")
            })
            .statement(|st| {
                st.loops(&[("i", "0", "N"), ("j", "0", "N")])
                    .update("x2", "i")
                    .read("A", "j,i")
                    .read("y2", "j")
            })
            .build()
            .unwrap();
        let res = analyze(&p);
        // Q ≈ N² (the matrix is read once; the two MVs share it).
        let q = eval(&res.bound, &[("N", 1000.0), ("S", 10_000.0)]);
        assert!((q - 1.0e6).abs() / 1.0e6 < 0.1, "bound {q}");
    }

    #[test]
    fn notes_report_uncovered_arrays() {
        // An initialization statement writing zeros has no inputs at all; its
        // array cannot be bounded and must be reported in the notes.
        let p = ProgramBuilder::new("init_only")
            .statement(|st| st.loops(&[("i", "0", "N")]).write("Z", "0"))
            .build();
        // "Z[0]" uses a constant subscript; the loop variable i never appears,
        // which is fine for the IR but yields no analyzable dominator.
        let p = p.unwrap();
        let res = analyze(&p);
        assert!(res.per_array.is_empty());
        assert!(!res.notes.is_empty());
    }
}
