//! Canonical model keys and the cross-subgraph solve cache.
//!
//! On real programs the ~hundreds of merged subgraph models are highly
//! repetitive: a chain of `k` matmuls produces `O(k)` singleton/pair/triple
//! subgraphs whose [`CompiledModel`]s differ only in array and variable *names*.
//! Solving each takes thousands of compiled-posynomial probes, so structurally
//! identical models are detected up front and solved once.
//!
//! A model's **canonical key** is the pair of exponent matrices (objective,
//! dominator) of its compiled posynomial forms, with exact rational
//! coefficients, brought to a canonical variable order *modulo renaming*:
//! variables are sorted by an iteratively refined occurrence signature
//! (Weisfeiler–Leman style), the matrices' columns are permuted accordingly,
//! and the term rows sorted.  Equal keys therefore exhibit an explicit
//! isomorphism between the two models; distinct-but-isomorphic models can at
//! worst miss a cache hit (when the refinement cannot separate tied
//! variables), never collide.
//!
//! **Max-form dominators** (§5.1/§5.3 conservative-union `max(...)` terms,
//! compiled to [`MaxPosynomial`]) participate too: each term carries the
//! canonical indices of its `max`/`min` atoms, and each atom's branches are
//! stored as an unordered multiset of canonicalized exponent matrices
//! (branch order in the source expression depends on variable names, so it
//! must not leak into the key).  The explicit-isomorphism guarantee carries
//! over: equal keys mean the monomial matrices, the atom multisets and the
//! term↔atom incidence all coincide under the canonical variable renaming.
//!
//! The cache itself is a **sharded** hash map (lock stripes keyed by the
//! canonical key's hash) shared across the rayon workers of one program
//! analysis — or, through [`SolveCache::session`], across *many* program
//! analyses of a batch run or a long-lived daemon.
//! Hits re-instantiate the cached solution under the requesting model's
//! variable names.
//!
//! **Order invariance.**  A miss does not solve the requesting model as
//! given: it solves the *canonical model* reconstructed from the key
//! (canonical variable order, canonically sorted terms) and stores that
//! solution.  Every requester — including the first — then instantiates the
//! canonical solution under its own names, so the full numeric output
//! (including the unsnapped `chi_coeff`/`tile_coeffs` floats) is a pure
//! function of the canonical key: independent of which isomorphic model
//! arrived first, of the shard count, of thread interleaving, and of the
//! order programs are analyzed in.  This is what makes a batch analysis over
//! a shared cache byte-identical to sequential per-program analyses.
//!
//! **Persistence.**  [`SolveCache::with_store`] layers the cache over a
//! disk-persisted canonical-solution store ([`crate::store`]): entries
//! persisted by earlier processes are hydrated at open (hits on them are
//! counted as `store_hits`), and new misses are flushed back at session end —
//! the same order-invariance argument makes warm results byte-identical to
//! cold ones.

use crate::faults::FaultPlan;
use crate::store::{
    decode_report_payload, encode_report_payload, HeldReport, ReportParts, SolveStore,
    StoreFlushStats, StoreLoadStats, StoredReport,
};
use soap_core::{fit_intensity, solve_model, AnalysisError, CompiledModel, IntensityResult};
use soap_symbolic::{
    CompiledConstraint, CompiledPosynomial, ConstrainedProduct, Deadline, Expr, MaxPosynomial,
    Rational, SolveInfo,
};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One term row of a canonical matrix: permuted exponents plus the exact
/// coefficient.
pub(crate) type CanonicalRow = (Vec<i16>, Rational);

/// One canonicalized `max`/`min` atom: its branches as an unordered (sorted)
/// multiset of canonical matrices.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct CanonicalAtom {
    pub(crate) is_min: bool,
    pub(crate) branches: Vec<Vec<CanonicalRow>>,
}

/// One term of a canonical max-form dominator: the monomial part plus the
/// sorted canonical indices of its atoms.
pub(crate) type CanonicalMaxTerm = (Vec<i16>, Rational, Vec<u32>);

/// The canonical dominator: pure exponent matrix, or the max-posynomial
/// structure (monomial matrix + atom incidence + atom multiset).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) enum CanonicalDominator {
    Pure(Vec<CanonicalRow>),
    Max {
        terms: Vec<CanonicalMaxTerm>,
        atoms: Vec<CanonicalAtom>,
    },
}

/// The canonical key of a [`CompiledModel`] modulo variable renaming.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CanonicalKey {
    pub(crate) n_vars: usize,
    pub(crate) objective: Vec<CanonicalRow>,
    pub(crate) dominator: CanonicalDominator,
}

impl CanonicalKey {
    /// Whether the dominator of this key is in max-posynomial form.
    pub fn is_max_form(&self) -> bool {
        matches!(self.dominator, CanonicalDominator::Max { .. })
    }
}

/// A canonicalized model: the key and the variable order that produced it
/// (`order[p]` = the model's variable index at canonical position `p`).
pub struct CanonicalModel {
    /// The renaming-invariant key.
    pub key: CanonicalKey,
    /// Canonical position → original variable index.
    pub order: Vec<usize>,
}

/// Compute the canonical form of a compiled model.
///
/// Returns `None` when the model is not cacheable: an objective/dominator
/// outside (max-)posynomial form, or a non-empty `access_index_sets` (the
/// exact-LP cross-check depends on data outside the matrices, so such models
/// are solved directly).  Works on the compiled rows alone: nothing is
/// expanded or compiled here.
pub fn canonicalize(model: &CompiledModel) -> Option<CanonicalModel> {
    if !model.access_index_sets.is_empty() {
        return None;
    }
    let problem = model.problem.as_ref()?;
    let n_vars = model.tile_variables.len();
    let obj = problem.objective();
    let (order, dominator) = match problem.constraint() {
        CompiledConstraint::Pure(dom) => {
            let order = canonical_variable_order(&[(0u8, obj), (1u8, dom)], n_vars);
            let dominator = CanonicalDominator::Pure(permuted_rows(dom, &order));
            (order, dominator)
        }
        CompiledConstraint::Mixed(dom) => {
            let order = max_variable_order(obj, dom, n_vars);
            let dominator = canonical_max_dominator(dom, &order);
            (order, dominator)
        }
    };
    let key = CanonicalKey {
        n_vars,
        objective: permuted_rows(obj, &order),
        dominator,
    };
    Some(CanonicalModel { key, order })
}

/// Canonical variable order for a max-form model: the objective (tag 0) and
/// the dominator's monomial-part matrix (tag 1) refine like the pure case;
/// every atom branch contributes under one shared tag (2) — the branch
/// *multiset* is renaming-invariant even though branch order is not, so
/// pooling the branches keeps the order invariant under renaming (pooling
/// can only cost hits, never correctness: the full structure is in the key).
fn max_variable_order(obj: &CompiledPosynomial, dom: &MaxPosynomial, n_vars: usize) -> Vec<usize> {
    let mono = dom.monomial_part();
    let mut polys: Vec<(u8, &CompiledPosynomial)> = vec![(0u8, obj), (1u8, &mono)];
    for j in 0..dom.n_atoms() {
        for branch in dom.atom_branches(j) {
            polys.push((2u8, branch));
        }
    }
    canonical_variable_order(&polys, n_vars)
}

/// Canonicalize a max-form dominator under the given variable order: branch
/// matrices are permuted and sorted within each atom, atoms are sorted (and
/// re-indexed) by their canonical form, each term's atom list is remapped and
/// sorted, and finally the term rows are sorted.
fn canonical_max_dominator(dom: &MaxPosynomial, order: &[usize]) -> CanonicalDominator {
    let canon_atoms: Vec<CanonicalAtom> = (0..dom.n_atoms())
        .map(|j| {
            let mut branches: Vec<Vec<CanonicalRow>> = dom
                .atom_branches(j)
                .iter()
                .map(|b| permuted_rows(b, order))
                .collect();
            branches.sort();
            CanonicalAtom {
                is_min: dom.atom_is_min(j),
                branches,
            }
        })
        .collect();
    // Sort atom indices by canonical form; equal atoms are interchangeable,
    // so their relative order cannot affect the key.
    let mut atom_perm: Vec<usize> = (0..canon_atoms.len()).collect();
    atom_perm.sort_by(|&a, &b| canon_atoms[a].cmp(&canon_atoms[b]));
    let mut atom_rank = vec![0u32; canon_atoms.len()];
    for (new_idx, &old_idx) in atom_perm.iter().enumerate() {
        atom_rank[old_idx] = new_idx as u32;
    }
    let atoms: Vec<CanonicalAtom> = atom_perm.iter().map(|&j| canon_atoms[j].clone()).collect();
    let mut terms: Vec<CanonicalMaxTerm> = (0..dom.n_terms())
        .map(|k| {
            let row = dom.exponent_row(k);
            let permuted: Vec<i16> = order.iter().map(|&t| row[t]).collect();
            let mut atom_ids: Vec<u32> = dom
                .term_atom_indices(k)
                .iter()
                .map(|&j| atom_rank[j as usize])
                .collect();
            atom_ids.sort_unstable();
            (permuted, dom.rational_coeff(k), atom_ids)
        })
        .collect();
    terms.sort();
    CanonicalDominator::Max { terms, atoms }
}

/// One occurrence of a variable in a term: `(polynomial tag, own exponent,
/// coefficient)` plus the range of its co-occurring variables in the
/// refinement's arena.
struct Occurrence {
    var: u32,
    tag: u8,
    exp: i16,
    coeff: Rational,
    others: std::ops::Range<usize>,
}

/// Order the variables canonically by iterated signature refinement.
///
/// A variable's signature is a sortable value that is invariant under
/// variable renaming: the sorted list of its occurrences in the terms, each
/// `(polynomial tag, own exponent, coefficient, sorted co-occurring
/// (signature-rank, exponent) pairs)`, compared lexicographically.
///
/// Round 0 ranks variables by their raw occurrence profile; each subsequent
/// round re-ranks them using the previous ranks of the co-occurring variables
/// in every term, until the ranking reaches a fixed point (rank information
/// can take several rounds to propagate through chained statement blocks —
/// bert's 12-variable merged attention models need four).  Any remaining ties
/// are broken by original index, which can only cost cache hits, never
/// correctness (the full matrices are in the key).
///
/// The occurrences and their co-occurrence lists are collected once; each
/// round only rewrites the ranks in place and re-sorts the same buffers.
fn canonical_variable_order(polys: &[(u8, &CompiledPosynomial)], n_vars: usize) -> Vec<usize> {
    // Every occurrence, and the co-occurring (variable, exponent) pairs of
    // each in one arena.
    let mut occurrences: Vec<Occurrence> = Vec::new();
    let mut co: Vec<(u32, i16)> = Vec::new();
    for &(tag, poly) in polys {
        for k in 0..poly.n_terms() {
            let row = poly.exponent_row(k);
            let coeff = poly.rational_coeff(k);
            for (t, &e) in row.iter().enumerate() {
                if e == 0 {
                    continue;
                }
                let start = co.len();
                co.extend(
                    row.iter()
                        .enumerate()
                        .filter(|&(u, &eu)| u != t && eu != 0)
                        .map(|(u, &eu)| (u as u32, eu)),
                );
                occurrences.push(Occurrence {
                    var: t as u32,
                    tag,
                    exp: e,
                    coeff,
                    others: start..co.len(),
                });
            }
        }
    }
    // `ranked[i]` is `co[i]` with its variable replaced by that variable's
    // current rank, sorted within each occurrence's range.
    let mut ranked: Vec<(usize, i16)> = vec![(0, 0); co.len()];
    let entry = |ranked: &[(usize, i16)], a: &Occurrence, b: &Occurrence| {
        (a.tag, a.exp, a.coeff)
            .cmp(&(b.tag, b.exp, b.coeff))
            .then_with(|| ranked[a.others.clone()].cmp(&ranked[b.others.clone()]))
    };
    // Occurrence indices grouped by variable, each group sorted: the
    // variable's signature.
    let mut by_var: Vec<usize> = (0..occurrences.len()).collect();
    let mut sig_start = vec![0usize; n_vars + 1];
    for o in &occurrences {
        sig_start[o.var as usize + 1] += 1;
    }
    for t in 0..n_vars {
        sig_start[t + 1] += sig_start[t];
    }
    let mut ranks: Vec<usize> = vec![0; n_vars];
    let mut prev_ranks: Vec<usize> = vec![0; n_vars];
    let mut sorted: Vec<usize> = (0..n_vars).collect();
    for _round in 0..n_vars.max(2) {
        prev_ranks.copy_from_slice(&ranks);
        for o in &occurrences {
            let slot = &mut ranked[o.others.clone()];
            for (r, &(u, eu)) in slot.iter_mut().zip(&co[o.others.clone()]) {
                *r = (ranks[u as usize], eu);
            }
            slot.sort_unstable();
        }
        by_var.sort_unstable_by(|&a, &b| {
            let (oa, ob) = (&occurrences[a], &occurrences[b]);
            oa.var.cmp(&ob.var).then_with(|| entry(&ranked, oa, ob))
        });
        let compare = |a: usize, b: usize| {
            let sa = &by_var[sig_start[a]..sig_start[a + 1]];
            let sb = &by_var[sig_start[b]..sig_start[b + 1]];
            sa.iter()
                .zip(sb)
                .map(|(&x, &y)| entry(&ranked, &occurrences[x], &occurrences[y]))
                .find(|o| o.is_ne())
                .unwrap_or_else(|| sa.len().cmp(&sb.len()))
        };
        // Re-rank: equal signatures share a rank.
        sorted.sort_by(|&a, &b| compare(a, b));
        let mut next_rank = 0;
        for i in 0..n_vars {
            let t = sorted[i];
            if i > 0 && compare(t, sorted[i - 1]).is_ne() {
                next_rank = i;
            }
            ranks[t] = next_rank;
        }
        if ranks == prev_ranks {
            break;
        }
    }
    let mut order: Vec<usize> = (0..n_vars).collect();
    // Stable on original index for tied ranks.
    order.sort_by_key(|&t| ranks[t]);
    order
}

/// Permute the columns of a compiled posynomial to the canonical order and
/// sort the term rows.
fn permuted_rows(poly: &CompiledPosynomial, order: &[usize]) -> Vec<CanonicalRow> {
    let mut rows: Vec<CanonicalRow> = (0..poly.n_terms())
        .map(|k| {
            let row = poly.exponent_row(k);
            let permuted: Vec<i16> = order.iter().map(|&t| row[t]).collect();
            (permuted, poly.rational_coeff(k))
        })
        .collect();
    rows.sort();
    rows
}

/// A cached solution, stored in canonical variable order (also the unit the
/// disk store persists — see [`crate::store`]).
#[derive(Clone)]
pub(crate) struct CanonicalSolution {
    pub(crate) sigma: Rational,
    pub(crate) chi_coeff: f64,
    pub(crate) rho: Expr,
    pub(crate) x0: Option<Expr>,
    /// Indexed by canonical position.
    pub(crate) tile_exponents: Vec<Rational>,
    pub(crate) tile_coeffs: Vec<f64>,
}

/// Cache statistics, surfaced through `ProgramAnalysis` and `SuiteSummary`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Models answered from the cache.
    pub hits: u64,
    /// Models solved and inserted.
    pub misses: u64,
    /// Models solved directly because no canonical key exists.
    pub uncacheable: u64,
    /// The subset of `hits` whose dominator is in max-posynomial form.
    pub max_hits: u64,
    /// The subset of `misses` whose dominator is in max-posynomial form.
    pub max_misses: u64,
    /// KKT solves run by this cache (misses + uncacheable models) that
    /// exhausted the iteration budget without converging.
    pub kkt_cap_hits: u64,
    /// The subset of `hits` answered from an entry first inserted by a
    /// *different* session (another program of a batch run) — the dedup that
    /// only a shared cache can provide.  Always 0 for a private per-program
    /// cache.  Disjoint from `store_hits`.
    pub cross_program_hits: u64,
    /// The subset of `hits` answered from an entry hydrated out of the disk
    /// store at [`SolveCache::with_store`] open — the dedup only cross-process
    /// persistence can provide.  Always 0 for a store-less cache; disjoint
    /// from `cross_program_hits` (a hit is classified as exactly one of
    /// intra-program, cross-program, or persistent-store).
    pub store_hits: u64,
    /// Whole-program analyses answered from a persisted *report* record
    /// (`SolveCache::lookup_report`) — the warm path that skips
    /// enumeration, merging, instantiation, and solving entirely.  Counted
    /// separately from the per-model counters above: a report hit produces
    /// zero model traffic.
    pub report_hits: u64,
}

impl CacheStats {
    /// The counter deltas since an earlier snapshot of the same cache
    /// (saturating, in case another concurrent user reset nothing but raced).
    pub fn since(&self, before: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(before.hits),
            misses: self.misses.saturating_sub(before.misses),
            uncacheable: self.uncacheable.saturating_sub(before.uncacheable),
            max_hits: self.max_hits.saturating_sub(before.max_hits),
            max_misses: self.max_misses.saturating_sub(before.max_misses),
            kkt_cap_hits: self.kkt_cap_hits.saturating_sub(before.kkt_cap_hits),
            cross_program_hits: self
                .cross_program_hits
                .saturating_sub(before.cross_program_hits),
            store_hits: self.store_hits.saturating_sub(before.store_hits),
            report_hits: self.report_hits.saturating_sub(before.report_hits),
        }
    }
}

impl serde::Serialize for CacheStats {
    /// The canonical JSON record of the cache accounting, shared by the CLI
    /// batch subcommand and `table2 --suite-json` (one definition, so the
    /// emitters cannot drift apart).
    ///
    /// Every top-level field is a pure function of program structure —
    /// byte-identical for any thread count, shard count, or program order.
    /// The one exception is quarantined under `order_dependent`: *which*
    /// session first solves a shared structure (and therefore how `hits`
    /// splits into cross- vs intra-program) depends on scheduling.  The
    /// totals are invariant (`cross + intra = hits - store_hits`); only the
    /// split moves.  Consumers diffing records for determinism drop that one
    /// object instead of sed-stripping fields across the whole line.
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("hits".to_string(), self.hits.to_value()),
            ("misses".to_string(), self.misses.to_value()),
            ("uncacheable".to_string(), self.uncacheable.to_value()),
            ("store_hits".to_string(), self.store_hits.to_value()),
            ("report_hits".to_string(), self.report_hits.to_value()),
            ("max_hits".to_string(), self.max_hits.to_value()),
            ("max_misses".to_string(), self.max_misses.to_value()),
            ("kkt_cap_hits".to_string(), self.kkt_cap_hits.to_value()),
            (
                "order_dependent".to_string(),
                serde::Value::Object(vec![
                    (
                        "cross_program_hits".to_string(),
                        self.cross_program_hits.to_value(),
                    ),
                    (
                        "intra_program_hits".to_string(),
                        self.hits
                            .saturating_sub(self.cross_program_hits)
                            .saturating_sub(self.store_hits)
                            .to_value(),
                    ),
                ]),
            ),
        ])
    }
}

/// A bundle of cache counters.  The cache itself owns one (process/suite
/// accounting); every [`CacheSession`] owns another, so one shared cache can
/// report exact per-program numbers for many concurrent analyses.
#[derive(Default)]
struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    uncacheable: AtomicU64,
    /// Nanoseconds spent inside actual KKT solves (misses + uncacheable
    /// models) — the "solve" share of the per-phase timing breakdown.  Not
    /// part of [`CacheStats`]: wall-clock is not a determinism-checked
    /// output.  Summed across workers, so under parallel execution it can
    /// exceed the analysis's wall-clock time.
    solve_ns: AtomicU64,
    max_hits: AtomicU64,
    max_misses: AtomicU64,
    kkt_cap_hits: AtomicU64,
    cross_program_hits: AtomicU64,
    store_hits: AtomicU64,
    report_hits: AtomicU64,
}

impl CacheCounters {
    fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            uncacheable: self.uncacheable.load(Ordering::Relaxed),
            max_hits: self.max_hits.load(Ordering::Relaxed),
            max_misses: self.max_misses.load(Ordering::Relaxed),
            kkt_cap_hits: self.kkt_cap_hits.load(Ordering::Relaxed),
            cross_program_hits: self.cross_program_hits.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            report_hits: self.report_hits.load(Ordering::Relaxed),
        }
    }
}

/// Number of lock stripes of [`SolveCache::new`]: enough that the rayon
/// workers of a whole-registry batch run rarely contend on the same mutex,
/// small enough that an empty cache stays cheap to allocate per analysis.
pub const DEFAULT_CACHE_SHARDS: usize = 16;

/// One lock stripe: its slice of the key→cell map.
type CacheShard = Mutex<HashMap<CanonicalKey, Arc<SolveCell>>>;

/// A concurrent solve cache keyed by [`CanonicalKey`], shared across the
/// parallel subgraph workers of one program analysis — or, via
/// [`SolveCache::session`], across the many analyses of a batch run.
///
/// The key→cell map is split into `n` lock stripes selected by the key's
/// hash; each key maps to a [`OnceLock`] cell, so a stripe mutex only guards
/// its slice of lookups while the expensive solve runs outside any lock, and
/// concurrent requests for the same structure block on the cell instead of
/// duplicating the solve — `misses` is exactly the number of distinct
/// structures even under parallel first-touches.  The shard count changes
/// lock contention only, never results (see the module docs on order
/// invariance).
pub struct SolveCache {
    shards: Box<[CacheShard]>,
    counters: CacheCounters,
    scopes: AtomicU64,
    /// The disk-persisted layer, when opened with [`SolveCache::with_store`].
    store: Option<StoreLayer>,
    /// The fault plan of every analysis and store operation through this
    /// cache (see [`SolveCache::with_faults`]); fault-free by default.
    pub(crate) faults: FaultPlan,
}

/// The disk-persistence state of a store-backed cache: the store itself, the
/// load-time accounting, the keys this process has flushed, and the
/// finished-program reports as record payloads.
struct StoreLayer {
    store: SolveStore,
    load_stats: StoreLoadStats,
    /// Solve keys this process has written to the store.  Hydrated cells are
    /// not listed: they carry [`STORE_SCOPE`], which a flush skips anyway.
    persisted: Mutex<std::collections::HashSet<CanonicalKey>>,
    /// Finished-program reports keyed by
    /// [`structural_program_key`](crate::structural_program_key), each held
    /// as the payload of its record line — hydrated at open, extended by
    /// [`SolveCache::record_report`], decoded only by
    /// [`SolveCache::lookup_report`], written behind its digest by a flush.
    reports: Mutex<HashMap<u64, HeldReport>>,
    /// Report load-time accounting (a separate record family with its own
    /// segments, so its stats never mix into `load_stats`).
    report_load_stats: StoreLoadStats,
}

impl StoreLayer {
    /// The held reports, locked.
    fn held_reports(&self) -> std::sync::MutexGuard<'_, HashMap<u64, HeldReport>> {
        self.reports
            .lock()
            // lint:allow(unwrap-expect): a poisoned stripe means a solver panicked; propagating keeps fail-stop semantics
            .expect("report state poisoned")
    }
}

/// The session scope recorded on cells hydrated from the disk store; hits on
/// them are classified as persistent-store hits.  Live sessions use scopes
/// counted up from 1, so this sentinel is unreachable.
const STORE_SCOPE: u64 = u64::MAX;

/// The scope recorded on a cell whose initializing solve did not produce a
/// result *about the model* — it was cancelled by a deadline or died in a
/// panic.  Such cells are transient: the initializer unmaps them from the
/// shard immediately (so the next requester retries against a fresh cell),
/// they are never counted as hits or misses, and [`SolveCache::flush_store`]
/// refuses to persist them even if a flush races the unmapping.
const TRANSIENT_SCOPE: u64 = u64::MAX - 1;

impl Default for SolveCache {
    fn default() -> Self {
        SolveCache::new()
    }
}

impl Drop for SolveCache {
    /// Best-effort session-end flush of a store-backed cache: dropping the
    /// cache persists whatever it solved, so short-lived CLI invocations
    /// cannot lose their work by forgetting the explicit call.  Errors are
    /// swallowed (there is nowhere to report them from a destructor); callers
    /// that care run [`SolveCache::flush_store`] themselves first.
    fn drop(&mut self) {
        if self.store.is_some() {
            let _ = self.flush_store();
        }
    }
}

/// One cached structure: the scope of the session whose solve initialized
/// the cell (used to classify later hits as intra- vs cross-program) plus
/// the canonical solution itself.
type SolveCell = OnceLock<(u64, Result<CanonicalSolution, AnalysisError>)>;

/// A per-analysis view of a (possibly shared) [`SolveCache`]: carries the
/// session's scope id (for cross-program hit classification) and its own
/// counters, so [`CacheSession::stats`] reports exactly this analysis's
/// traffic even when many analyses share the cache concurrently.
pub struct CacheSession<'a> {
    cache: &'a SolveCache,
    scope: u64,
    local: CacheCounters,
    /// The deadline governing every solve of this session (see
    /// [`SolveCache::session`]).  A solve cancelled by it returns
    /// [`AnalysisError::Cancelled`] and leaves no trace in the cache.
    deadline: Option<Deadline>,
}

impl CacheSession<'_> {
    /// Solve `model` through the underlying shared cache, accounting the
    /// outcome to both the cache and this session.
    pub fn solve(&self, model: &CompiledModel) -> Result<IntensityResult, AnalysisError> {
        self.cache
            .solve_scoped(model, self.scope, Some(&self.local), self.deadline.as_ref())
    }

    /// This session's traffic only (not the whole cache's).
    pub fn stats(&self) -> CacheStats {
        self.local.snapshot()
    }

    /// Milliseconds this session spent inside actual KKT solves (cache
    /// misses + uncacheable models) — the "solve" share of the per-phase
    /// timing breakdown.  Summed across workers: under parallel execution it
    /// can exceed the analysis's wall-clock time.
    pub fn solve_ms(&self) -> f64 {
        self.local.solve_ns.load(Ordering::Relaxed) as f64 / 1e6
    }
}

impl SolveCache {
    /// An empty cache with [`DEFAULT_CACHE_SHARDS`] lock stripes.
    pub fn new() -> SolveCache {
        SolveCache::with_shards(DEFAULT_CACHE_SHARDS)
    }

    /// An empty cache with `n` lock stripes (clamped to ≥ 1).  The shard
    /// count is a concurrency knob only: results are byte-identical for any
    /// value.
    pub fn with_shards(n: usize) -> SolveCache {
        let n = n.max(1);
        SolveCache {
            shards: (0..n).map(|_| Mutex::default()).collect(),
            counters: CacheCounters::default(),
            scopes: AtomicU64::new(0),
            store: None,
            faults: FaultPlan::default(),
        }
    }

    /// A cache layered over the disk-persisted canonical-solution store at
    /// `dir` (created if absent): every solve and finished-report record
    /// already on disk is hydrated before the first solve, and
    /// [`flush_store`](SolveCache::flush_store) (also run on drop) persists
    /// whatever this cache solved on top.  Stored results are byte-identical
    /// to cold solves — the store persists the canonical solution itself,
    /// floats as raw bit patterns (see [`crate::store`]) — so a warm cache
    /// changes wall-clock time and nothing else.
    ///
    /// Corrupt records and mismatched-version segments are skipped with
    /// counted notes, never a panic: see
    /// [`store_load_stats`](SolveCache::store_load_stats).
    pub fn with_store(dir: impl Into<std::path::PathBuf>) -> std::io::Result<SolveCache> {
        SolveCache::with_faults(
            Some(&dir.into()),
            DEFAULT_CACHE_SHARDS,
            FaultPlan::default(),
        )
    }

    /// A cache with `shards` lock stripes under the fault-injection `plan` —
    /// store-backed like [`with_store`](SolveCache::with_store) when
    /// `store_dir` is given, in-memory like
    /// [`with_shards`](SolveCache::with_shards) otherwise.  The plan governs
    /// this cache's store hydration, flushes and salvage writes, and the
    /// fault decision points of every [`analyze_program`](crate::analyze_program)
    /// run through it; no other cache is affected.  With
    /// `FaultPlan::default()` this is exactly `with_store` / `with_shards`.
    pub fn with_faults(
        store_dir: Option<&std::path::Path>,
        shards: usize,
        plan: FaultPlan,
    ) -> std::io::Result<SolveCache> {
        let mut cache = SolveCache::with_shards(shards);
        cache.faults = plan;
        let Some(dir) = store_dir else {
            return Ok(cache);
        };
        let mut store = SolveStore::open(dir)?;
        store.faults = plan;
        let (entries, load_stats) = store.load()?;
        for (key, solution) in entries {
            let cell: Arc<SolveCell> = Arc::default();
            cell.set((STORE_SCOPE, solution))
                .unwrap_or_else(|_| unreachable!("fresh cell"));
            let shard = cache.shard_of(&key);
            cache.shards[shard]
                .lock()
                // lint:allow(unwrap-expect): a poisoned stripe means a solver panicked; propagating keeps fail-stop semantics
                .expect("cache poisoned")
                .insert(key, cell);
        }
        let (reports, report_load_stats) = store.load_reports()?;
        cache.store = Some(StoreLayer {
            store,
            load_stats,
            persisted: Mutex::default(),
            reports: Mutex::new(reports),
            report_load_stats,
        });
        Ok(cache)
    }

    /// Look up and decode the finished report held under a
    /// [`structural_program_key`](crate::structural_program_key).  `None`
    /// (and no counter traffic) for a store-less cache.  A hit is counted in
    /// [`CacheStats::report_hits`].  A held payload that does not decode (a
    /// record with a valid digest but a bad shape) is dropped and answered
    /// as a miss: the cold analysis then records a fresh one, which the next
    /// flush persists over the bad record under last-writer-wins.
    pub(crate) fn lookup_report(&self, key: u64) -> Option<StoredReport> {
        let layer = self.store.as_ref()?;
        let mut held = layer.held_reports();
        match decode_report_payload(&held.get(&key)?.payload) {
            Some((decoded_key, report)) if decoded_key == key => {
                self.counters.report_hits.fetch_add(1, Ordering::Relaxed);
                Some(report)
            }
            _ => {
                held.remove(&key);
                None
            }
        }
    }

    /// Record a finished report for later processes (and later requests of
    /// this one), encoded once into its record payload.  First writer wins —
    /// the analysis is a pure function of the key, so concurrent recordings
    /// are identical.  A no-op for a store-less cache.
    pub(crate) fn record_report(&self, key: u64, report: ReportParts<'_>) {
        let Some(layer) = &self.store else {
            return;
        };
        if layer.held_reports().contains_key(&key) {
            return;
        }
        let entry = HeldReport {
            payload: encode_report_payload(key, report).into_boxed_str(),
            on_disk: false,
        };
        layer.held_reports().entry(key).or_insert(entry);
    }

    /// The report-record load accounting (`None` for a store-less cache).
    pub fn report_load_stats(&self) -> Option<&StoreLoadStats> {
        self.store.as_ref().map(|l| &l.report_load_stats)
    }

    /// The load-time accounting of the disk store (`None` for a store-less
    /// cache): entries hydrated, corrupt records skipped, segments rejected.
    pub fn store_load_stats(&self) -> Option<&StoreLoadStats> {
        self.store.as_ref().map(|s| &s.load_stats)
    }

    /// The store directory, when this cache is store-backed.
    pub fn store_dir(&self) -> Option<&std::path::Path> {
        self.store.as_ref().map(|s| s.store.dir())
    }

    /// Persist every structure solved since the store was opened (or last
    /// flushed) as one new segment file; entries that came *from* the store
    /// are never rewritten.  A no-op returning `appended: 0` for a store-less
    /// cache or when there is nothing new.  Also runs best-effort on drop, so
    /// a `with_store` session persists its misses even without an explicit
    /// call — long-lived caches (e.g. the daemon's) should flush explicitly
    /// at session boundaries instead.
    pub fn flush_store(&self) -> std::io::Result<StoreFlushStats> {
        let Some(layer) = &self.store else {
            return Ok(StoreFlushStats::default());
        };
        // Collect solved-here entries not yet on disk.  Holding only one
        // stripe lock at a time; the `persisted` set is the cross-flush
        // dedup, so two concurrent flushes may at worst both write a key —
        // harmless under last-writer-wins (the records are identical).
        let mut fresh: Vec<crate::store::StoreEntry> = Vec::new();
        {
            // lint:allow(unwrap-expect): a poisoned stripe means a solver panicked; propagating keeps fail-stop semantics
            let persisted = layer.persisted.lock().expect("store state poisoned");
            for shard in &self.shards {
                // lint:allow(unwrap-expect): a poisoned stripe means a solver panicked; propagating keeps fail-stop semantics
                let map = shard.lock().expect("cache poisoned");
                for (key, cell) in map.iter() {
                    if let Some((scope, solution)) = cell.get() {
                        if *scope != STORE_SCOPE
                            && *scope != TRANSIENT_SCOPE
                            && !persisted.contains(key)
                        {
                            fresh.push((key.clone(), solution.clone()));
                        }
                    }
                }
            }
        }
        // Copy out the report payloads not yet on disk.
        let fresh_reports: Vec<(u64, String)> = layer
            .held_reports()
            .iter()
            .filter(|(_, entry)| !entry.on_disk)
            .map(|(key, entry)| (*key, entry.payload.to_string()))
            .collect();
        // Nothing new in either family: write no segment file at all, so a
        // drop after an explicit flush cannot litter shared store
        // directories with empty segments.
        if fresh.is_empty() && fresh_reports.is_empty() {
            return Ok(StoreFlushStats::default());
        }
        let (appended, segment) = if fresh.is_empty() {
            (0, None)
        } else {
            let refs: Vec<(&CanonicalKey, &Result<CanonicalSolution, AnalysisError>)> = fresh
                .iter()
                .map(|(key, solution)| (key, solution))
                .collect();
            let segment = layer.store.append(&refs)?;
            drop(refs);
            let appended = fresh.len();
            // lint:allow(unwrap-expect): a poisoned stripe means a solver panicked; propagating keeps fail-stop semantics
            let mut persisted = layer.persisted.lock().expect("store state poisoned");
            for (key, _) in fresh {
                persisted.insert(key);
            }
            (appended, Some(segment))
        };
        let reports_appended = if fresh_reports.is_empty() {
            0
        } else {
            let payloads: Vec<&str> = fresh_reports.iter().map(|(_, p)| p.as_str()).collect();
            layer.store.append_reports(&payloads)?;
            // A payload replaced since the copy (dropped at a replay and
            // recorded again) stays pending unless it is the same bytes.
            let mut held = layer.held_reports();
            for (key, payload) in &fresh_reports {
                if let Some(entry) = held.get_mut(key) {
                    if *entry.payload == **payload {
                        entry.on_disk = true;
                    }
                }
            }
            fresh_reports.len()
        };
        Ok(StoreFlushStats {
            appended,
            segment,
            reports_appended,
        })
    }

    /// Open a new session (one per program analysis).  Sessions are how a
    /// shared cache distinguishes cross-program hits from intra-program hits:
    /// a hit on an entry first inserted by a different session counts as
    /// cross-program.
    ///
    /// Under a [`Deadline`] every solve of the session polls it inside its
    /// KKT loops and returns [`AnalysisError::Cancelled`] when it expires
    /// mid-solve.  A cancelled solve is never cached and never persisted —
    /// the entry is unmapped so later requesters (with fresh budgets) retry
    /// it cleanly.
    pub fn session(&self, deadline: Option<Deadline>) -> CacheSession<'_> {
        CacheSession {
            cache: self,
            scope: self.scopes.fetch_add(1, Ordering::Relaxed) + 1,
            local: CacheCounters::default(),
            deadline,
        }
    }

    /// Solve `model`, answering structurally identical models from the cache
    /// (scope-less convenience for single-program use; see
    /// [`SolveCache::session`] for batch use).
    pub fn solve(&self, model: &CompiledModel) -> Result<IntensityResult, AnalysisError> {
        self.solve_scoped(model, 0, None, None)
    }

    /// Snapshot the cache-wide counters (every session's traffic combined).
    pub fn stats(&self) -> CacheStats {
        self.counters.snapshot()
    }

    fn shard_of(&self, key: &CanonicalKey) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % self.shards.len()
    }

    fn bump(
        &self,
        local: Option<&CacheCounters>,
        f: impl Fn(&CacheCounters) -> &AtomicU64,
        n: u64,
    ) {
        f(&self.counters).fetch_add(n, Ordering::Relaxed);
        if let Some(local) = local {
            f(local).fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Solve `model` for the given session scope.
    ///
    /// Failures are cached too (a model isomorphic to one that failed will
    /// fail identically).  A miss solves the *canonical model* of the key —
    /// not the requesting model as given — and every requester instantiates
    /// the stored canonical solution, so the output is a pure function of the
    /// structure (see the module docs).
    fn solve_scoped(
        &self,
        model: &CompiledModel,
        scope: u64,
        local: Option<&CacheCounters>,
        deadline: Option<&Deadline>,
    ) -> Result<IntensityResult, AnalysisError> {
        let Some(canon) = canonicalize(model) else {
            self.bump(local, |c| &c.uncacheable, 1);
            // lint:allow(instant-now): solve timing is perf metadata on the report; bound computation never depends on it
            let solve_start = std::time::Instant::now();
            let (solved, info) = solve_model(model, deadline);
            self.bump(local, |c| &c.solve_ns, elapsed_ns(solve_start));
            self.bump(local, |c| &c.kkt_cap_hits, u64::from(info.cap_hits));
            return solved;
        };
        let CanonicalModel { key, order } = canon;
        let max_form = key.is_max_form();
        // Whoever wins a cell's initialization race runs the solve; every
        // other requester of the same structure blocks until it lands.  The
        // cell records the *solver's* scope (not the map-entry inserter's),
        // so a hit is classified cross-program exactly when the solve that
        // answers it ran in a different session — even when two sessions
        // first-touch the same structure concurrently.
        //
        // A solve that was cancelled mid-flight (or panicked) initializes its
        // cell with the TRANSIENT_SCOPE marker instead of a result: the entry
        // is immediately unmapped (so later requesters retry against a fresh
        // cell), the initializer propagates the cancellation/panic, and a
        // waiter that observed the marker loops to retry — unless its own
        // deadline is gone too.  Catching the panic *inside* the closure is
        // what keeps one poisoned solve from wedging every later requester
        // of the same structure.
        let (solver_scope, cached) = loop {
            let cell = {
                let mut map = self.shards[self.shard_of(&key)]
                    .lock()
                    // lint:allow(unwrap-expect): a poisoned stripe means a solver panicked; propagating keeps fail-stop semantics
                    .expect("cache poisoned");
                if let Some(cell) = map.get(&key) {
                    Arc::clone(cell)
                } else {
                    let cell: Arc<SolveCell> = Arc::default();
                    map.insert(key.clone(), Arc::clone(&cell));
                    cell
                }
            };
            let mut solved_here = false;
            let mut cap_hits = 0u32;
            let mut solve_ns = 0u64;
            let mut panicked: Option<String> = None;
            let (solver_scope, cached) = cell.get_or_init(|| {
                solved_here = true;
                // lint:allow(instant-now): solve timing is perf metadata on the report; bound computation never depends on it
                let solve_start = std::time::Instant::now();
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    solve_canonical(&key, deadline)
                }));
                solve_ns = elapsed_ns(solve_start);
                match outcome {
                    Ok((solved, info)) => {
                        cap_hits = info.cap_hits;
                        let cell_scope = if matches!(&solved, Err(AnalysisError::Cancelled(_))) {
                            TRANSIENT_SCOPE
                        } else {
                            scope
                        };
                        // The canonical model's variables are already in
                        // canonical positions, so the storage order is the
                        // identity.
                        let identity: Vec<usize> = (0..key.n_vars).collect();
                        (cell_scope, to_canonical(&solved, &identity))
                    }
                    Err(payload) => {
                        let msg = payload
                            .downcast_ref::<&str>()
                            .map(|s| (*s).to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".to_string());
                        panicked = Some(msg.clone());
                        (
                            TRANSIENT_SCOPE,
                            Err(AnalysisError::Cancelled(format!("solver panicked: {msg}"))),
                        )
                    }
                }
            });
            self.bump(local, |c| &c.solve_ns, solve_ns);
            self.bump(local, |c| &c.kkt_cap_hits, u64::from(cap_hits));
            if *solver_scope != TRANSIENT_SCOPE {
                if solved_here {
                    self.bump(local, |c| &c.misses, 1);
                    if max_form {
                        self.bump(local, |c| &c.max_misses, 1);
                    }
                } else {
                    self.bump(local, |c| &c.hits, 1);
                    if max_form {
                        self.bump(local, |c| &c.max_hits, 1);
                    }
                    if *solver_scope == STORE_SCOPE {
                        self.bump(local, |c| &c.store_hits, 1);
                    } else if *solver_scope != scope {
                        self.bump(local, |c| &c.cross_program_hits, 1);
                    }
                }
                break (*solver_scope, cached.clone());
            }
            // Transient outcome: unmap the cell (only if it is still the
            // mapped one — a concurrent requester may have raced ahead).
            {
                let mut map = self.shards[self.shard_of(&key)]
                    .lock()
                    // lint:allow(unwrap-expect): a poisoned stripe means a solver panicked; propagating keeps fail-stop semantics
                    .expect("cache poisoned");
                if map.get(&key).is_some_and(|cur| Arc::ptr_eq(cur, &cell)) {
                    map.remove(&key);
                }
            }
            if let Some(msg) = panicked {
                // Re-raise the original panic so the per-subgraph isolation
                // in `analysis` accounts it exactly like an uncached panic.
                std::panic::resume_unwind(Box::new(msg));
            }
            if solved_here || deadline.is_some_and(|d| d.expired()) {
                // Our own budget is gone (we were the cancelled initializer,
                // or a waiter whose deadline expired while waiting).
                return instantiate(cached.clone(), model, &order);
            }
            // A waiter with budget left: retry against a fresh cell.
        };
        let _ = solver_scope;
        instantiate(cached, model, &order)
    }
}

/// Elapsed nanoseconds since `start`, saturated into a `u64` counter bump.
pub(crate) fn elapsed_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Solve the canonical model of a key: canonical variable names (`D_c000`,
/// `D_c001`, … — zero-padded so lexicographic order matches canonical
/// position order) over the compiled forms of [`canonical_compiled_forms`].
/// A pure function of the key, so the solve is identical no matter which
/// isomorphic model triggered the miss.
fn solve_canonical(
    key: &CanonicalKey,
    deadline: Option<&Deadline>,
) -> (Result<IntensityResult, AnalysisError>, SolveInfo) {
    let vars: Vec<String> = (0..key.n_vars).map(|i| format!("D_c{i:03}")).collect();
    // A zero dominator compiles to one all-zero row; a max-form one always
    // carries atoms.
    let has_inputs = match &key.dominator {
        CanonicalDominator::Pure(rows) => rows.iter().any(|(_, c)| !c.is_zero()),
        CanonicalDominator::Max { .. } => true,
    };
    let (objective, dominator) = canonical_compiled_forms(key);
    let problem = ConstrainedProduct::from_compiled(objective, dominator);
    fit_intensity("canonical", &vars, has_inputs, &[], |x, warm| {
        problem.solve(x, warm, deadline)
    })
}

/// The compiled forms of a key's canonical model, assembled directly from
/// the canonical matrices (`CompiledPosynomial::from_rows` /
/// `MaxPosynomial::from_parts`) — no `Expr` expansion or re-compilation on
/// the miss path, and the term order fed to the solver is exactly the key's
/// canonical row order.
fn canonical_compiled_forms(key: &CanonicalKey) -> (CompiledPosynomial, CompiledConstraint) {
    let objective = CompiledPosynomial::from_rows(key.n_vars, &key.objective);
    let dominator = match &key.dominator {
        CanonicalDominator::Pure(rows) => {
            CompiledConstraint::Pure(CompiledPosynomial::from_rows(key.n_vars, rows))
        }
        CanonicalDominator::Max { terms, atoms } => {
            let atoms = atoms
                .iter()
                .map(|atom| {
                    let branches = atom
                        .branches
                        .iter()
                        .map(|b| CompiledPosynomial::from_rows(key.n_vars, b))
                        .collect();
                    (atom.is_min, branches)
                })
                .collect();
            CompiledConstraint::Mixed(MaxPosynomial::from_parts(key.n_vars, terms, atoms))
        }
    };
    (objective, dominator)
}

/// Canonicalize one solve outcome for storage: tile data re-indexed by
/// canonical position so any isomorphic model can re-instantiate it.
fn to_canonical(
    solved: &Result<IntensityResult, AnalysisError>,
    order: &[usize],
) -> Result<CanonicalSolution, AnalysisError> {
    let res = solved.as_ref().map_err(Clone::clone)?;
    let mut tile_exponents = vec![Rational::ZERO; order.len()];
    let mut tile_coeffs = vec![0.0; order.len()];
    for (p, &t) in order.iter().enumerate() {
        tile_exponents[p] = res.tile_exponents[t].1;
        tile_coeffs[p] = res.tile_coeffs[t].1;
    }
    Ok(CanonicalSolution {
        sigma: res.sigma,
        chi_coeff: res.chi_coeff,
        rho: res.rho.clone(),
        x0: res.x0.clone(),
        tile_exponents,
        tile_coeffs,
    })
}

/// Re-express a cached canonical solution under `model`'s variable names.
///
/// Cached *failures* are re-labelled with the requesting model's name (the
/// stored message names whichever isomorphic model was solved first).
fn instantiate(
    cached: Result<CanonicalSolution, AnalysisError>,
    model: &CompiledModel,
    order: &[usize],
) -> Result<IntensityResult, AnalysisError> {
    let sol = cached.map_err(|e| relabel_error(e, &model.name))?;
    let n = order.len();
    let mut tile_exponents: Vec<(String, Rational)> = vec![(String::new(), Rational::ZERO); n];
    let mut tile_coeffs: Vec<(String, f64)> = vec![(String::new(), 0.0); n];
    for (p, &t) in order.iter().enumerate() {
        tile_exponents[t] = (model.tile_variables[t].clone(), sol.tile_exponents[p]);
        tile_coeffs[t] = (model.tile_variables[t].clone(), sol.tile_coeffs[p]);
    }
    Ok(IntensityResult {
        name: model.name.clone(),
        sigma: sol.sigma,
        chi_coeff: sol.chi_coeff,
        rho: sol.rho,
        x0: sol.x0,
        tile_exponents,
        tile_coeffs,
    })
}

/// Rewrite a cached failure so it names the model that asked, noting that
/// the underlying solve ran on a structurally identical model.
fn relabel_error(e: AnalysisError, name: &str) -> AnalysisError {
    match e {
        AnalysisError::InvalidStatement(msg) => AnalysisError::InvalidStatement(format!(
            "model {name} (via structurally identical cached model): {msg}"
        )),
        AnalysisError::NoInputs(_) => AnalysisError::NoInputs(name.to_string()),
        AnalysisError::NumericalFailure(msg) => AnalysisError::NumericalFailure(format!(
            "model {name} (via structurally identical cached model): {msg}"
        )),
        AnalysisError::Internal(msg) => AnalysisError::Internal(format!(
            "model {name} (via structurally identical cached model): {msg}"
        )),
        AnalysisError::Cancelled(msg) => AnalysisError::Cancelled(format!("model {name}: {msg}")),
    }
}

#[cfg(test)]
#[path = "../tests/common/canonical_oracle.rs"]
pub(crate) mod canonical_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use soap_core::access_size::tile_var;
    use soap_core::AccessModel;

    fn dv(v: &str) -> Expr {
        Expr::sym(tile_var(v))
    }

    fn mmm_model(name: &str, v: [&str; 3]) -> AccessModel {
        AccessModel {
            name: name.into(),
            tile_variables: v.iter().map(|x| tile_var(x)).collect(),
            objective: dv(v[0]).mul(dv(v[1])).mul(dv(v[2])),
            dominator: dv(v[0])
                .mul(dv(v[2]))
                .add(dv(v[2]).mul(dv(v[1])))
                .add(dv(v[0]).mul(dv(v[1]))),
            access_index_sets: vec![],
        }
    }

    #[test]
    fn renamed_models_share_a_key() {
        let a = canonicalize(&mmm_model("a", ["i", "j", "k"]).compile()).unwrap();
        let b = canonicalize(&mmm_model("b", ["p", "q", "r"]).compile()).unwrap();
        assert_eq!(a.key, b.key);
        // Reordered variables too: the canonical order undoes the shuffle.
        let c = canonicalize(&mmm_model("c", ["k", "i", "j"]).compile()).unwrap();
        assert_eq!(a.key, c.key);
    }

    #[test]
    fn different_structures_get_different_keys() {
        let mmm = canonicalize(&mmm_model("mmm", ["i", "j", "k"]).compile()).unwrap();
        // A stencil-like model over three variables: same variable count,
        // different matrices.
        let stencil = AccessModel {
            name: "stencil".into(),
            tile_variables: vec![tile_var("i"), tile_var("j"), tile_var("k")],
            objective: dv("i").mul(dv("j")).mul(dv("k")),
            dominator: dv("i").add(dv("j")).add(dv("k")),
            access_index_sets: vec![],
        };
        let stencil = canonicalize(&stencil.compile()).unwrap();
        assert_ne!(mmm.key, stencil.key);
        // Same matrices but a different coefficient also differs.
        let mut scaled = mmm_model("scaled", ["i", "j", "k"]);
        scaled.objective = Expr::int(2).mul(scaled.objective);
        let scaled = canonicalize(&scaled.compile()).unwrap();
        assert_ne!(mmm.key, scaled.key);
    }

    #[test]
    fn asymmetric_variables_order_canonically() {
        // χ = Di²·Dj, g = Di + Dj: Di and Dj have different profiles, so the
        // canonical order must map a renamed copy onto the same key.
        let make = |v: [&str; 2]| AccessModel {
            name: "asym".into(),
            tile_variables: v.iter().map(|x| tile_var(x)).collect(),
            objective: dv(v[0]).pow(Rational::int(2)).mul(dv(v[1])),
            dominator: dv(v[0]).add(dv(v[1])),
            access_index_sets: vec![],
        };
        let a = canonicalize(&make(["x", "y"]).compile()).unwrap();
        let b = canonicalize(&make(["u", "t"]).compile()).unwrap();
        let c = canonicalize(&make(["t", "u"]).compile()).unwrap();
        assert_eq!(a.key, b.key);
        assert_eq!(a.key, c.key);
    }

    /// A §5.3-style union model: χ = Πv, g = max-union of two Lemma-3 sizes
    /// plus a plain term, parameterized by variable names.
    fn union_model(name: &str, v: [&str; 3]) -> AccessModel {
        AccessModel {
            name: name.into(),
            tile_variables: v.iter().map(|x| tile_var(x)).collect(),
            objective: dv(v[0]).mul(dv(v[1])).mul(dv(v[2])),
            dominator: dv(v[0])
                .mul(dv(v[1]))
                .max(dv(v[0]).mul(dv(v[2])))
                .add(dv(v[1]).mul(dv(v[2]))),
            access_index_sets: vec![],
        }
    }

    #[test]
    fn renamed_max_models_share_a_key() {
        let a = canonicalize(&union_model("a", ["i", "j", "k"]).compile()).unwrap();
        assert!(a.key.is_max_form());
        let b = canonicalize(&union_model("b", ["p", "q", "r"]).compile()).unwrap();
        assert_eq!(a.key, b.key);
        // Reordered variables: the canonical order undoes the shuffle.  Note
        // the reordering also flips the branch order inside the max (Expr
        // simplification sorts operands by name), so this exercises the
        // unordered branch multiset too.
        let c = canonicalize(&union_model("c", ["k", "i", "j"]).compile()).unwrap();
        assert_eq!(a.key, c.key);
    }

    #[test]
    fn max_models_differing_in_one_branch_do_not_collide() {
        let base = canonicalize(&union_model("base", ["i", "j", "k"]).compile()).unwrap();
        // Same shape except one max branch has a squared exponent.
        let mut bumped = union_model("bumped", ["i", "j", "k"]);
        bumped.dominator = dv("i")
            .mul(dv("j"))
            .max(dv("i").pow(Rational::int(2)).mul(dv("k")))
            .add(dv("j").mul(dv("k")));
        let bumped = canonicalize(&bumped.compile()).unwrap();
        assert_ne!(base.key, bumped.key);
        // A different coefficient inside a branch also differs.
        let mut scaled = union_model("scaled", ["i", "j", "k"]);
        scaled.dominator = dv("i")
            .mul(dv("j"))
            .max(Expr::int(2).mul(dv("i")).mul(dv("k")))
            .add(dv("j").mul(dv("k")));
        let scaled = canonicalize(&scaled.compile()).unwrap();
        assert_ne!(base.key, scaled.key);
        // And so does moving the max to a different monomial association:
        // max(...)·j vs max(...) + j·k keeps different term↔atom incidence.
        let mut assoc = union_model("assoc", ["i", "j", "k"]);
        assoc.dominator = dv("i")
            .mul(dv("j"))
            .max(dv("i").mul(dv("k")))
            .mul(dv("j"))
            .add(dv("j").mul(dv("k")));
        let assoc = canonicalize(&assoc.compile()).unwrap();
        assert_ne!(base.key, assoc.key);
        // Pure and max-form models can never collide.
        let pure = canonicalize(&mmm_model("pure", ["i", "j", "k"]).compile()).unwrap();
        assert!(!pure.key.is_max_form());
        assert_ne!(pure.key, base.key);
    }

    #[test]
    fn max_cache_hits_reproduce_the_direct_solution() {
        let cache = SolveCache::new();
        let first = cache
            .solve(&union_model("first", ["i", "j", "k"]).compile())
            .unwrap();
        let renamed = union_model("renamed", ["c", "a", "b"]);
        let hit = cache.solve(&renamed.compile()).unwrap();
        let direct = solve_model(&renamed.compile(), None).0.unwrap();
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.max_hits, 1);
        assert_eq!(stats.max_misses, 1);
        assert_eq!(stats.uncacheable, 0);
        assert_eq!(hit.name, "renamed");
        assert_eq!(hit.sigma, direct.sigma);
        assert_eq!(hit.sigma, first.sigma);
        assert_eq!(format!("{}", hit.rho), format!("{}", direct.rho));
        for ((_, e_hit), (_, e_direct)) in hit.tile_exponents.iter().zip(&direct.tile_exponents) {
            assert_eq!(e_hit, e_direct);
        }
    }

    #[test]
    fn index_set_models_are_uncacheable() {
        // Models carrying exact-LP index sets depend on data outside the
        // matrices; the cache solves them directly and counts them.
        let mut model = mmm_model("lp", ["i", "j", "k"]);
        model.access_index_sets = vec![vec![0, 2], vec![2, 1], vec![0, 1]];
        assert!(canonicalize(&model.compile()).is_none());
        let cache = SolveCache::new();
        let _ = cache.solve(&model.compile());
        assert_eq!(cache.stats().uncacheable, 1);
    }

    #[test]
    fn models_outside_posynomial_form_are_uncacheable_failures() {
        let mut model = mmm_model("sqrt", ["i", "j", "k"]);
        model.dominator = model.dominator.sqrt();
        assert!(canonicalize(&model.compile()).is_none());
        let cache = SolveCache::new();
        let cached = cache.solve(&model.compile()).unwrap_err();
        assert!(
            matches!(cached, AnalysisError::NumericalFailure(_)),
            "{cached:?}"
        );
        assert_eq!(cached, solve_model(&model.compile(), None).0.unwrap_err());
        let stats = cache.stats();
        assert_eq!((stats.uncacheable, stats.misses, stats.hits), (1, 0, 0));
    }

    #[test]
    fn cached_failures_are_relabelled_for_the_requesting_model() {
        let failing = |name: &str, var: &str| AccessModel {
            name: name.into(),
            tile_variables: vec![tile_var(var)],
            objective: dv(var),
            dominator: Expr::zero(),
            access_index_sets: vec![],
        };
        let cache = SolveCache::new();
        let first = cache.solve(&failing("first", "i").compile());
        let second = cache.solve(&failing("second", "q").compile());
        assert!(matches!(first, Err(AnalysisError::NoInputs(ref n)) if n == "first"));
        assert!(matches!(second, Err(AnalysisError::NoInputs(ref n)) if n == "second"));
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn store_backed_cache_round_trips_and_counts_store_hits() {
        let dir = std::env::temp_dir().join(format!("soap-cache-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let model = mmm_model("first", ["i", "j", "k"]);
        let cold_result = {
            let cold = SolveCache::with_store(&dir).expect("store opens");
            assert_eq!(cold.store_load_stats().unwrap().entries, 0);
            let result = cold.solve(&model.compile()).unwrap();
            let flush = cold.flush_store().expect("flush succeeds");
            assert_eq!(flush.appended, 1);
            // A second flush has nothing new.
            assert_eq!(cold.flush_store().unwrap().appended, 0);
            result
        };
        // Fresh "process": hydrate from disk, solve a renamed twin.
        let warm = SolveCache::with_store(&dir).expect("store reopens");
        assert_eq!(warm.store_load_stats().unwrap().entries, 1);
        let renamed = mmm_model("renamed", ["p", "q", "r"]);
        let hit = warm.solve(&renamed.compile()).unwrap();
        let stats = warm.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.store_hits, 1);
        assert_eq!(stats.cross_program_hits, 0);
        assert_eq!(hit.sigma, cold_result.sigma);
        assert_eq!(hit.chi_coeff.to_bits(), cold_result.chi_coeff.to_bits());
        assert_eq!(format!("{}", hit.rho), format!("{}", cold_result.rho));
        for ((_, c_cold), (_, c_hit)) in cold_result.tile_coeffs.iter().zip(&hit.tile_coeffs) {
            assert_eq!(c_cold.to_bits(), c_hit.to_bits());
        }
        // Dropping the warm cache (which solved nothing) adds no segment.
        let segments_before = warm.store_dir().map(|d| d.to_path_buf()).unwrap();
        drop(warm);
        let store = SolveStore::open(segments_before).unwrap();
        assert_eq!(store.segment_files().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_failures_persist_too() {
        let dir = std::env::temp_dir().join(format!("soap-cache-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let failing = AccessModel {
            name: "failing".into(),
            tile_variables: vec![tile_var("i")],
            objective: dv("i"),
            dominator: Expr::zero(),
            access_index_sets: vec![],
        };
        {
            let cold = SolveCache::with_store(&dir).unwrap();
            assert!(cold.solve(&failing.compile()).is_err());
            assert_eq!(cold.flush_store().unwrap().appended, 1);
        }
        let warm = SolveCache::with_store(&dir).unwrap();
        let mut renamed = failing.clone();
        renamed.name = "renamed".into();
        renamed.tile_variables = vec![tile_var("q")];
        renamed.objective = dv("q");
        let err = warm.solve(&renamed.compile());
        assert!(matches!(err, Err(AnalysisError::NoInputs(ref n)) if n == "renamed"));
        let stats = warm.stats();
        assert_eq!((stats.misses, stats.store_hits), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_solves_are_never_cached() {
        let cache = SolveCache::new();
        let expired = Deadline::never();
        expired.cancel();
        // The governed session's solve is cancelled at the cache's init
        // commit point...
        let session = cache.session(Some(expired));
        let err = session.solve(&mmm_model("governed", ["i", "j", "k"]).compile());
        assert!(
            matches!(err, Err(AnalysisError::Cancelled(_))),
            "expected Cancelled, got {err:?}"
        );
        drop(session);
        // ...and leaves no trace: an ungoverned solve of the same structure
        // must run as a plain first-touch miss and succeed.
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0), "{stats:?}");
        let solved = cache.solve(&mmm_model("retry", ["p", "q", "r"]).compile());
        assert!(solved.is_ok());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 1), "{stats:?}");
    }

    #[test]
    fn cancelled_solves_are_never_flushed_to_the_store() {
        let dir = std::env::temp_dir().join(format!("soap-cache-cancel-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = SolveCache::with_store(&dir).unwrap();
            let expired = Deadline::never();
            expired.cancel();
            let session = cache.session(Some(expired));
            assert!(matches!(
                session.solve(&mmm_model("cancelled", ["i", "j", "k"]).compile()),
                Err(AnalysisError::Cancelled(_))
            ));
            drop(session);
            assert_eq!(cache.flush_store().unwrap().appended, 0);
        }
        let store = SolveStore::open(&dir).unwrap();
        assert!(store.segment_files().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_flush_keeps_every_entry_pending() {
        let dir = std::env::temp_dir().join(format!("soap-cache-wfault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let program = soap_ir::ProgramBuilder::new("mm")
            .statement(|st| {
                st.loops(&[("i", "0", "N"), ("j", "0", "N"), ("k", "0", "N")])
                    .update("C", "i,j")
                    .read("A", "i,k")
                    .read("B", "k,j")
            })
            .build()
            .unwrap();
        let plan = FaultPlan {
            store_write_transient: 3,
            ..FaultPlan::default()
        };
        let mut cache = SolveCache::with_faults(Some(&dir), DEFAULT_CACHE_SHARDS, plan).unwrap();
        crate::analyze_program(&program, &crate::SdgOptions::default(), &cache, None).unwrap();
        let err = cache.flush_store().unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        // The failed flush marked nothing as persisted: once the store
        // writes again, the same cache persists every solve and the report.
        cache.store.as_mut().unwrap().store.faults = FaultPlan::default();
        let flush = cache.flush_store().unwrap();
        assert!(flush.appended > 0);
        assert_eq!(flush.reports_appended, 1);
        drop(cache);
        let warm = SolveCache::with_store(&dir).unwrap();
        assert_eq!(warm.store_load_stats().unwrap().entries, flush.appended);
        assert_eq!(warm.report_load_stats().unwrap().entries, 1);
        drop(warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn governed_session_with_a_live_deadline_matches_ungoverned_output() {
        let governed_cache = SolveCache::new();
        let session = governed_cache.session(Some(Deadline::never()));
        let governed = session
            .solve(&mmm_model("m", ["i", "j", "k"]).compile())
            .unwrap();
        drop(session);
        let direct = solve_model(&mmm_model("m", ["i", "j", "k"]).compile(), None)
            .0
            .unwrap();
        assert_eq!(governed.sigma, direct.sigma);
        assert_eq!(governed.chi_coeff.to_bits(), direct.chi_coeff.to_bits());
        assert_eq!(format!("{}", governed.rho), format!("{}", direct.rho));
        assert_eq!(governed_cache.stats().misses, 1);
    }

    #[test]
    fn cache_hits_reproduce_the_direct_solution() {
        let cache = SolveCache::new();
        let first = cache
            .solve(&mmm_model("first", ["i", "j", "k"]).compile())
            .unwrap();
        let renamed = mmm_model("renamed", ["c", "a", "b"]);
        let hit = cache.solve(&renamed.compile()).unwrap();
        let direct = solve_model(&renamed.compile(), None).0.unwrap();
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(hit.name, "renamed");
        assert_eq!(hit.sigma, direct.sigma);
        assert_eq!(format!("{}", hit.rho), format!("{}", direct.rho));
        assert_eq!(first.sigma, hit.sigma);
        // Tile entries carry the renamed model's variable names, in order.
        let names: Vec<&str> = hit.tile_exponents.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["D_c", "D_a", "D_b"]);
        for ((_, e_hit), (_, e_direct)) in hit.tile_exponents.iter().zip(&direct.tile_exponents) {
            assert_eq!(e_hit, e_direct);
        }
    }
}
