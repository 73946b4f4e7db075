//! Offline stand-in for `rayon`: the `par_iter().map(..)/.filter_map(..)
//! .collect()` shape used by this workspace, executed on `std::thread::scope`
//! threads.
//!
//! ## Scheduling
//!
//! Work is *self-scheduled*: every worker (the calling thread plus up to
//! `worker_budget() - 1` spawned threads) repeatedly claims the next unclaimed
//! block of items from a shared atomic index and processes it.  Unlike the
//! one-contiguous-chunk-per-core static split this replaces, a skewed workload
//! (one item a thousand times heavier than the rest — e.g. the attention
//! statements of a transformer among its element-wise epilogues) keeps every
//! other worker busy on the remaining items instead of serializing a whole
//! chunk behind the heavy one.  Results are written back by item index, so
//! collection order matches the sequential iteration order exactly regardless
//! of which worker processed what (the same guarantee real rayon gives for
//! indexed parallel iterators).
//!
//! ## Worker budget (nested parallelism)
//!
//! All parallel iterators share one process-wide *worker budget*
//! ([`worker_budget`]): the number of threads this process aims to keep doing
//! parallel work at any moment.  The calling thread of a `par_iter` is always
//! a worker; every *extra* worker occupies one slot of a shared pool of
//! `budget - 1`.  A `par_iter` recruits helpers into free slots, and a helper
//! gives its slot back as soon as the loop's index is exhausted, so nested
//! parallelism (a suite-level `par_iter` over programs whose per-program
//! analyses `par_iter` over subgraphs) neither oversubscribes nor strands a
//! core:
//!
//! * An inner loop that starts while the outer loop holds the whole budget
//!   begins inline on its caller, but it checks the pool again before every
//!   block it claims.  When an outer worker runs out of programs and frees
//!   its slot, the inner loop still running on another worker recruits a
//!   helper into it.
//! * A caller that has finished claiming while its helpers are still busy
//!   lends its own slot to the pool while it waits for them, so a loop
//!   elsewhere can recruit into it; afterwards it takes the slot back
//!   unconditionally.  The count of slots in use is therefore signed: a
//!   lent slot can take it below zero.
//!
//! The budget defaults to the `SOAP_THREADS` environment variable (validated
//! by [`parse_worker_threads`]) or, when unset, to
//! [`std::thread::available_parallelism`]; [`set_worker_budget`] overrides it
//! at runtime (CLI `--threads`, the determinism tests, the benchmark's
//! single-worker replay).  The pool protocol is model-checked in
//! `tests/interleave_pool.rs`.
//!
//! ## Panic isolation
//!
//! Each item runs under [`std::panic::catch_unwind`]: one panicking item
//! never tears down the process (the old implementation's
//! `join().expect(..)` could abort outright when a second worker panicked
//! during unwinding) and never prevents the *other* items from completing.
//! After every item has run, the panic of the smallest panicking item index
//! is resumed on the caller — deterministically the same payload a
//! sequential run would have surfaced first, independent of thread count.
//! Callers that need per-item isolation (the batch engine's per-program
//! error discipline) catch around their own item body instead, in which case
//! no panic ever reaches this layer.
#![forbid(unsafe_code)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The usual `use rayon::prelude::*;` surface.
pub mod prelude {
    pub use crate::IntoParallelRefIterator;
}

/// Upper clamp of the worker budget: far above any plausible core count, low
/// enough that a typo (`SOAP_THREADS=100000`) cannot spawn an absurd number
/// of threads.
pub const MAX_WORKER_THREADS: usize = 512;

/// Parse a `SOAP_THREADS` / `--threads` override: a positive integer, clamped
/// to [`MAX_WORKER_THREADS`].  `None` for anything that does not parse as a
/// positive integer — callers fall back to the hardware default rather than
/// guessing what a typo meant.  The workspace's other strict parsers
/// (`parse_timeout_ms`, `parse_fault_plan`) follow the same contract.
pub fn parse_worker_threads(raw: &str) -> Option<usize> {
    let n: usize = raw.trim().parse().ok().filter(|&n| n > 0)?;
    Some(n.min(MAX_WORKER_THREADS))
}

/// The process-wide worker pool: the budget (target maximum concurrency) and
/// the number of *extra* worker slots in use.  The calling thread of a
/// `par_iter` is always a worker and holds no slot; a caller waiting for its
/// helpers lends its thread to the pool by decrementing `in_use`, which can
/// therefore drop below zero.  Both fields are accessed `Relaxed`: they
/// publish no other data (item results travel through the threads' `join`).
struct Pool {
    budget: AtomicUsize,
    in_use: AtomicIsize,
}

fn pool() -> &'static Pool {
    // lint:allow(global-state): one worker budget shared by every parallel loop of the process is what the pool is for
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let budget = std::env::var("SOAP_THREADS")
            .ok()
            .and_then(|raw| parse_worker_threads(&raw))
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Pool {
            budget: AtomicUsize::new(budget),
            in_use: AtomicIsize::new(0),
        }
    })
}

/// The current worker budget: the maximum number of threads this process
/// aims to keep doing parallel work at any moment (across *all* concurrent
/// and nested `par_iter`s combined).
pub fn worker_budget() -> usize {
    pool().budget.load(Ordering::Relaxed)
}

/// Override the worker budget (clamped to `1..=`[`MAX_WORKER_THREADS`]) and
/// return the previous value.  `1` makes every `par_iter` run inline on its
/// caller — the reference single-thread mode of the determinism tests.
///
/// Only the budget is stored: slots already in use are returned by their
/// holders as usual, and the new budget shapes every later grant.  Safe to
/// call while parallel work is in flight.
pub fn set_worker_budget(n: usize) -> usize {
    let n = n.clamp(1, MAX_WORKER_THREADS);
    pool().budget.swap(n, Ordering::Relaxed)
}

/// Reserve up to `want` extra worker slots: the grant is
/// `min(want, budget - 1 - in_use)`, possibly 0 (nothing free).
fn reserve_extra(want: usize) -> usize {
    if want == 0 {
        return 0;
    }
    let p = pool();
    let cap = p.budget.load(Ordering::Relaxed) as isize - 1;
    let mut granted = 0;
    let _ = p
        .in_use
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
            granted = (cap - used).clamp(0, want as isize) as usize;
            (granted > 0).then_some(used + granted as isize)
        });
    granted
}

/// Give `n` slots back to the pool (a helper leaving, or a caller lending
/// its own thread while it waits).  Unclamped: every release pairs with an
/// earlier reserve or with a later take-back.
fn release_extra(n: usize) {
    pool().in_use.fetch_sub(n as isize, Ordering::Relaxed);
}

/// Types whose references can be iterated in parallel.
pub trait IntoParallelRefIterator<'a> {
    /// Element type yielded by the parallel iterator.
    type Item: Sync + 'a;

    /// Start a parallel iteration over `&self`.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter {
            items: self,
            min_len: 1,
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter {
            items: self,
            min_len: 1,
        }
    }
}

/// A borrowed parallel iterator over a slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
    min_len: usize,
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Claim at least `min` items per scheduling step (default 1).  Raising
    /// it amortizes the shared-index atomics for very cheap items; 1 is the
    /// maximum-balance policy for heavy ones.  Purely a scheduling knob —
    /// results and their order are identical for any value.
    pub fn with_min_len(mut self, min: usize) -> Self {
        self.min_len = min.max(1);
        self
    }

    /// Parallel map.
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            min_len: self.min_len,
            f,
        }
    }

    /// Parallel filter-map.
    pub fn filter_map<R, F>(self, f: F) -> ParFilterMap<'a, T, F>
    where
        R: Send,
        F: Fn(&T) -> Option<R> + Sync,
    {
        ParFilterMap {
            items: self.items,
            min_len: self.min_len,
            f,
        }
    }
}

/// Result of [`ParIter::map`], awaiting collection.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    min_len: usize,
    f: F,
}

impl<'a, T: Sync, F> ParMap<'a, T, F> {
    /// Run the map on the worker pool and gather the results in input order.
    pub fn collect<R, C>(self) -> C
    where
        R: Send,
        F: Fn(&T) -> R + Sync,
        C: From<Vec<R>>,
    {
        C::from(run_self_scheduled(self.items, self.min_len, &self.f))
    }
}

/// Result of [`ParIter::filter_map`], awaiting collection.
pub struct ParFilterMap<'a, T, F> {
    items: &'a [T],
    min_len: usize,
    f: F,
}

impl<'a, T: Sync, F> ParFilterMap<'a, T, F> {
    /// Run the filter-map on the worker pool and gather the retained results
    /// in input order.
    pub fn collect<R, C>(self) -> C
    where
        R: Send,
        F: Fn(&T) -> Option<R> + Sync,
        C: From<Vec<R>>,
    {
        let per_item: Vec<Option<R>> = run_self_scheduled(self.items, self.min_len, &self.f);
        C::from(per_item.into_iter().flatten().collect::<Vec<R>>())
    }
}

/// The payload of a caught item panic.
type Panic = Box<dyn std::any::Any + Send + 'static>;

/// Run `f` over every item on the calling thread plus whatever helpers the
/// pool grants, self-scheduling blocks of `min_len` items off a shared atomic
/// index, and return the outputs in item order.
///
/// Before every block it claims, the caller recruits helpers into free pool
/// slots while unclaimed blocks remain beyond the one it is about to take, so
/// a loop that started inline picks up workers freed later.  A helper
/// returns its slot as soon as the index is exhausted.  A caller left waiting
/// for its helpers lends its own slot until they finish.
///
/// Every item runs — a panicking item is caught, the remaining items still
/// execute, and after the pool drains the panic of the *smallest* panicking
/// index is resumed on the caller (the payload a sequential run would have
/// surfaced, so the observable failure is thread-count-independent).
fn run_self_scheduled<T: Sync, R: Send>(
    items: &[T],
    min_len: usize,
    f: &(impl Fn(&T) -> R + Sync),
) -> Vec<R> {
    let n = items.len();
    if n <= 1 || worker_budget() <= 1 || min_len >= n {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    // Claim the next block and run it into `out`; false once the index is
    // exhausted.
    let run_block = |out: &mut Vec<(usize, Result<R, Panic>)>| -> bool {
        let start = next.fetch_add(min_len, Ordering::Relaxed);
        if start >= n {
            return false;
        }
        for (i, item) in items.iter().enumerate().take(start + min_len).skip(start) {
            out.push((i, catch_unwind(AssertUnwindSafe(|| f(item)))));
        }
        true
    };
    let helper = || {
        let mut out = Vec::new();
        while run_block(&mut out) {}
        release_extra(1);
        out
    };

    let mut outcomes: Vec<(usize, Result<R, Panic>)> = Vec::with_capacity(n);
    let mut worker_panic: Option<Panic> = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        loop {
            let claimed = next.load(Ordering::Relaxed);
            if claimed < n {
                let later_blocks = (n - claimed).div_ceil(min_len) - 1;
                for _ in 0..reserve_extra(later_blocks) {
                    match std::thread::Builder::new().spawn_scoped(scope, helper) {
                        Ok(handle) => handles.push(handle),
                        Err(_) => release_extra(1),
                    }
                }
            }
            if !run_block(&mut outcomes) {
                break;
            }
        }
        if handles.is_empty() {
            return;
        }
        // Lend this thread's slot while it only waits, then take it back
        // unconditionally: a conditional take-back would let `in_use` drift
        // below the threads actually running.
        release_extra(1);
        for handle in handles {
            match handle.join() {
                Ok(bucket) => outcomes.extend(bucket),
                // Unreachable in practice (item panics are caught above), but
                // a panic in the scheduling loop itself must still surface
                // exactly once instead of aborting via a double panic.
                Err(payload) => worker_panic = Some(payload),
            }
        }
        pool().in_use.fetch_add(1, Ordering::Relaxed);
    });
    if let Some(payload) = worker_panic {
        resume_unwind(payload);
    }

    // The shared index hands out every item exactly once; each bucket is in
    // ascending index order, so sorting restores the input order.
    assert_eq!(outcomes.len(), n, "every item runs exactly once");
    outcomes.sort_unstable_by_key(|&(i, _)| i);
    let mut results = Vec::with_capacity(n);
    for (_, outcome) in outcomes {
        match outcome {
            Ok(r) => results.push(r),
            Err(payload) => resume_unwind(payload),
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    /// Serializes the tests that mutate the process-wide worker budget (unit
    /// tests of one binary run concurrently).
    static BUDGET_LOCK: Mutex<()> = Mutex::new(());

    /// Run `f` with the budget forced to `n`, restoring the previous value.
    fn with_budget<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _guard = BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = super::set_worker_budget(n);
        let result = f();
        super::set_worker_budget(prev);
        result
    }

    #[test]
    fn map_preserves_order() {
        let input: Vec<u64> = (0..10_000).collect();
        let doubled: Vec<u64> = with_budget(4, || input.par_iter().map(|x| x * 2).collect());
        assert_eq!(doubled, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn filter_map_preserves_order_and_drops() {
        let input: Vec<u64> = (0..1000).collect();
        let evens: Vec<u64> = with_budget(4, || {
            input
                .par_iter()
                .filter_map(|x| (x % 2 == 0).then_some(*x))
                .collect()
        });
        assert_eq!(evens, (0..1000).step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs_work() {
        let empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = empty.par_iter().map(|x| *x).collect();
        assert!(out.is_empty());
        let one = [7u32];
        let out: Vec<u32> = one.par_iter().map(|x| x + 1).collect();
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn min_len_chunking_preserves_order() {
        let input: Vec<u64> = (0..997).collect();
        let out: Vec<u64> = with_budget(4, || {
            input.par_iter().with_min_len(16).map(|x| x + 1).collect()
        });
        assert_eq!(out, (1..998).collect::<Vec<_>>());
    }

    #[test]
    fn skewed_items_are_balanced_by_self_scheduling() {
        // One item 1000x heavier than the rest must not pin the others to the
        // same worker: with self-scheduling every item still completes and
        // order is preserved.  (The timing win itself shows in the
        // benchmark's cold-suite; this pins the correctness under skew.)
        let mut weights = vec![1u64; 64];
        weights[0] = 1000;
        let out: Vec<u64> = with_budget(8, || {
            weights
                .par_iter()
                .map(|w| (0..*w).map(|i| i % 7).sum::<u64>())
                .collect()
        });
        assert_eq!(out.len(), 64);
        assert_eq!(out[1..], vec![0u64; 63][..]);
    }

    #[test]
    fn one_poisoned_item_does_not_kill_the_rest() {
        // Every non-poisoned item must run to completion even though item 3
        // panics, and the caller observes exactly one panic (no process
        // abort from a second panicking worker, which the old
        // `join().expect(..)` implementation risked).
        let input: Vec<u64> = (0..100).collect();
        let completed = AtomicUsize::new(0);
        let observed = with_budget(4, || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _: Vec<u64> = input
                    .par_iter()
                    .map(|x| {
                        if *x == 3 {
                            panic!("poisoned item");
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                        *x
                    })
                    .collect();
            }))
        });
        let payload = observed.expect_err("the poisoned item's panic must resurface");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "poisoned item");
        assert_eq!(completed.load(Ordering::Relaxed), 99);
    }

    #[test]
    fn first_panicking_index_wins_deterministically() {
        // With several poisoned items the caller must always observe the
        // smallest index's payload, matching what a sequential run surfaces.
        let input: Vec<u64> = (0..64).collect();
        for budget in [1usize, 4] {
            let observed = with_budget(budget, || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _: Vec<u64> = input
                        .par_iter()
                        .map(|x| {
                            if *x % 10 == 7 {
                                panic!("poisoned {x}");
                            }
                            *x
                        })
                        .collect();
                }))
            });
            let payload = observed.expect_err("a panic must resurface");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(msg, "poisoned 7", "budget {budget}");
        }
    }

    #[test]
    fn nested_parallelism_stays_within_budget_and_is_correct() {
        // An outer par_iter holding the whole budget forces inner par_iters
        // inline; the combined result must still be correct and in order.
        let outer: Vec<u64> = (0..16).collect();
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let sums: Vec<u64> = with_budget(3, || {
            outer
                .par_iter()
                .map(|o| {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    let inner: Vec<u64> = (0..50u64).collect();
                    let s: Vec<u64> = inner.par_iter().map(|i| o * 100 + i).collect();
                    live.fetch_sub(1, Ordering::SeqCst);
                    s.iter().sum()
                })
                .collect()
        });
        let expected: Vec<u64> = (0..16)
            .map(|o| (0..50).map(|i| o * 100 + i).sum())
            .collect();
        assert_eq!(sums, expected);
        // The outer loop may use at most the budget's worth of workers; inner
        // loops only ever recruit into slots the outer loop has given back.
        assert!(peak.load(Ordering::SeqCst) <= 3, "peak {peak:?}");
    }

    /// Generous bound on every wait in the pool tests below: they finish in
    /// milliseconds when the pool behaves, and fail instead of hanging when
    /// it does not.
    const WAIT: Duration = Duration::from_secs(30);

    /// Block until `done(state)` holds or `deadline` passes.
    fn wait_for<S>(
        (lock, cv): &(Mutex<S>, Condvar),
        deadline: Instant,
        done: impl Fn(&S) -> bool,
    ) -> MutexGuard<'_, S> {
        let mut guard = lock.lock().unwrap_or_else(|e| e.into_inner());
        while !done(&guard) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            guard = cv
                .wait_timeout(guard, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        guard
    }

    /// Run `items` items in one `par_iter` whose items each wait until
    /// `threads` distinct threads have joined it, and return how many did.
    fn distinct_threads_in_one_loop(items: usize, threads: usize, deadline: Instant) -> usize {
        let seen = (Mutex::new(HashSet::new()), Condvar::new());
        let input: Vec<usize> = (0..items).collect();
        let _: Vec<()> = input
            .par_iter()
            .map(|_| {
                let mut ids = seen.0.lock().unwrap_or_else(|e| e.into_inner());
                ids.insert(std::thread::current().id());
                seen.1.notify_all();
                drop(ids);
                drop(wait_for(&seen, deadline, |ids| ids.len() >= threads));
            })
            .collect();
        let ids = seen.0.lock().unwrap_or_else(|e| e.into_inner());
        ids.len()
    }

    fn idle_slots() -> isize {
        let p = super::pool();
        p.budget.load(Ordering::SeqCst) as isize - 1 - p.in_use.load(Ordering::SeqCst)
    }

    /// At budget 2, one outer item runs a long inner loop that starts while
    /// the other outer item still holds the only extra slot, so it starts
    /// inline.  Once the other item is done, its worker runs out of outer
    /// items: it frees its slot (a helper) or lends it (the caller), and the
    /// inner loop, already in flight, must recruit it.  Returns how many
    /// distinct threads ran inner items.  `caller_is_light` picks which side
    /// of the outer loop runs out of work first.
    fn inner_threads_after_outer_worker_frees(caller_is_light: bool) -> usize {
        let deadline = Instant::now() + WAIT;
        let caller = std::thread::current().id();
        let inner_started = (Mutex::new(false), Condvar::new());
        let outer = [0u32, 1];
        let per_item: Vec<usize> = with_budget(2, || {
            outer
                .par_iter()
                .map(|_| {
                    if (std::thread::current().id() == caller) == caller_is_light {
                        drop(wait_for(&inner_started, deadline, |started| *started));
                        return 0;
                    }
                    let seen = Mutex::new(HashSet::new());
                    let inner: Vec<u32> = (0..64).collect();
                    let _: Vec<()> = inner
                        .par_iter()
                        .map(|_| {
                            *inner_started.0.lock().unwrap_or_else(|e| e.into_inner()) = true;
                            inner_started.1.notify_all();
                            let mut ids = seen.lock().unwrap_or_else(|e| e.into_inner());
                            ids.insert(std::thread::current().id());
                            drop(ids);
                            // Hold this item until a second thread has joined
                            // or a slot is free for the next claim to recruit.
                            while seen.lock().unwrap_or_else(|e| e.into_inner()).len() < 2
                                && idle_slots() <= 0
                                && Instant::now() < deadline
                            {
                                std::thread::yield_now();
                            }
                        })
                        .collect();
                    let ids = seen.lock().unwrap_or_else(|e| e.into_inner());
                    ids.len()
                })
                .collect()
        });
        per_item.into_iter().sum()
    }

    #[test]
    fn idle_worker_joins_inflight_nested_loop() {
        for caller_is_light in [true, false] {
            assert_eq!(
                inner_threads_after_outer_worker_frees(caller_is_light),
                2,
                "the in-flight inner loop stayed on one thread (caller_is_light {caller_is_light})"
            );
        }
    }

    #[test]
    fn pool_capacity_is_restored() {
        // Every loop below that gets helpers has its caller lend its slot
        // while it waits, and its inner loops recruit late.  Afterwards no
        // slot may be lost or leaked: a fresh loop gets all budget-1 helpers.
        const BUDGET: usize = 3;
        let deadline = Instant::now() + WAIT;
        let (sums, in_use, fresh) = with_budget(BUDGET, || {
            let outer: Vec<u64> = (0..6).collect();
            let mut sums = Vec::new();
            for _ in 0..20 {
                let round: Vec<u64> = outer
                    .par_iter()
                    .map(|o| {
                        let inner: Vec<u64> = (0..200u64).collect();
                        let s: Vec<u64> = inner
                            .par_iter()
                            .map(|i| (0..o * 50).fold(*i, |acc, x| acc ^ x))
                            .collect();
                        s.iter().sum::<u64>()
                    })
                    .collect();
                sums.push(round);
            }
            let in_use = super::pool().in_use.load(Ordering::SeqCst);
            (
                sums,
                in_use,
                distinct_threads_in_one_loop(8, BUDGET, deadline),
            )
        });
        let expected: Vec<u64> = (0..6u64)
            .map(|o| {
                (0..200u64)
                    .map(|i| (0..o * 50).fold(i, |acc, x| acc ^ x))
                    .sum()
            })
            .collect();
        assert!(sums.iter().all(|round| *round == expected));
        assert_eq!(in_use, 0, "slots leaked or lost at quiescence");
        assert_eq!(fresh, BUDGET, "a fresh loop did not get budget-1 helpers");
    }

    #[test]
    fn budget_one_runs_inline() {
        let input: Vec<u64> = (0..100).collect();
        let out: Vec<u64> = with_budget(1, || input.par_iter().map(|x| x * 3).collect());
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parse_worker_threads_validates_like_cache_shards() {
        assert_eq!(super::parse_worker_threads("1"), Some(1));
        assert_eq!(super::parse_worker_threads(" 8 "), Some(8));
        assert_eq!(
            super::parse_worker_threads("100000"),
            Some(super::MAX_WORKER_THREADS)
        );
        assert_eq!(super::parse_worker_threads("0"), None);
        assert_eq!(super::parse_worker_threads("-4"), None);
        assert_eq!(super::parse_worker_threads("eight"), None);
        assert_eq!(super::parse_worker_threads(""), None);
    }

    #[test]
    fn set_worker_budget_clamps_and_returns_previous() {
        let _guard = BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let original = super::worker_budget();
        let prev = super::set_worker_budget(0);
        assert_eq!(prev, original);
        assert_eq!(super::worker_budget(), 1);
        super::set_worker_budget(usize::MAX);
        assert_eq!(super::worker_budget(), super::MAX_WORKER_THREADS);
        super::set_worker_budget(original);
    }
}
