//! Model-checked invariants of the worker-budget pool and the
//! smallest-index panic discipline (see `src/lib.rs`: `reserve_extra`,
//! `release_extra`, `set_worker_budget`, `run_self_scheduled`).
//!
//! Each invariant comes in two flavours: the faithful port of the production
//! protocol, which must pass every explored schedule, and a deliberately
//! broken **mutation twin** that reintroduces the bug class the protocol
//! guards against — the checker must find a failing schedule for it, or the
//! pass on the correct variant would be vacuous.

use interleave::atomic::{AtomicIsize, AtomicUsize};
use interleave::{thread, Model};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Which variant of the slot protocol a model runs.
#[derive(Clone, Copy, PartialEq)]
enum Protocol {
    /// The production protocol.
    Faithful,
    /// MUTATION: the caller takes its lent slot back through
    /// `reserve_extra(1)`, which grants nothing when the pool is full, so
    /// `in_use` drifts below the threads actually running.
    TakeBackViaReserve,
    /// MUTATION: releases clamp `in_use` at 0 (the clamp the unsigned
    /// `idle_extra` count needed), so a release after the caller lent its
    /// slot is lost and the take-back leaves a slot in use for good.
    ClampedRelease,
    /// MUTATION: `set_worker_budget` also zeroes `in_use` (as the former
    /// setter reset the idle count), forgetting the slots held at the time.
    ResettingBudgetStore,
}

/// The pool's worker budget.  `set_worker_budget` only stores the budget and
/// touches no count, so most models hold it constant; reading a constant is
/// no schedule point, which keeps the nested models exhaustive in CI's time.
enum Budget {
    Fixed(usize),
    /// A budget that `set_worker_budget` may change while work is in flight.
    Live(AtomicUsize),
}

/// The production pool protocol, ported shim-for-shim from
/// `rayon::{reserve_extra, release_extra, set_worker_budget}` and the
/// take-back in `run_self_scheduled`.
struct PoolModel {
    budget: Budget,
    in_use: AtomicIsize,
    protocol: Protocol,
}

impl PoolModel {
    fn new(budget: Budget, protocol: Protocol) -> PoolModel {
        PoolModel {
            budget,
            in_use: AtomicIsize::new(0),
            protocol,
        }
    }

    /// `budget - 1`: the most extra slots the pool grants.
    fn cap(&self) -> isize {
        match &self.budget {
            Budget::Fixed(n) => *n as isize - 1,
            Budget::Live(n) => n.load(Ordering::Relaxed) as isize - 1,
        }
    }

    /// Faithful port of `set_worker_budget`: a store of the budget alone.
    fn set_budget(&self, n: usize) {
        match &self.budget {
            Budget::Fixed(_) => unreachable!("a fixed budget never changes"),
            Budget::Live(b) => {
                b.swap(n, Ordering::Relaxed);
            }
        }
        if self.protocol == Protocol::ResettingBudgetStore {
            self.in_use.store(0, Ordering::Relaxed);
        }
    }

    /// Faithful port: read the cap, then one atomic `fetch_update` claims
    /// `min(want, cap - in_use)`.  Asserts the reserve invariant: a grant
    /// never pushes `in_use` past the `budget - 1` this reserve read.
    fn reserve_extra(&self, want: usize) -> usize {
        if want == 0 {
            return 0;
        }
        let cap = self.cap();
        let mut granted = 0;
        let result = self
            .in_use
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
                granted = (cap - used).clamp(0, want as isize) as usize;
                (granted > 0).then_some(used + granted as isize)
            });
        if let Ok(before) = result {
            let after = before + granted as isize;
            assert!(
                after <= cap,
                "a reserve pushed in_use to {after} past {cap}"
            );
        }
        granted
    }

    /// MUTATION: the pre-PR6 bug class — a load/store pair instead of one
    /// atomic update, so two concurrent reservers can both see the same
    /// `in_use` and oversubscribe the pool.
    fn reserve_extra_torn(&self, want: usize) -> usize {
        if want == 0 {
            return 0;
        }
        let cap = self.cap();
        let used = self.in_use.load(Ordering::Relaxed);
        let granted = (cap - used).clamp(0, want as isize);
        self.in_use.store(used + granted, Ordering::Relaxed);
        granted as usize
    }

    /// Faithful port: an unclamped decrement.
    fn release_extra(&self, n: usize) {
        if self.protocol == Protocol::ClampedRelease {
            let _ = self
                .in_use
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
                    Some((used - n as isize).max(0))
                });
            return;
        }
        self.in_use.fetch_sub(n as isize, Ordering::Relaxed);
    }

    /// Faithful port: the caller re-counts its own thread unconditionally.
    fn take_back(&self) {
        if self.protocol == Protocol::TakeBackViaReserve {
            self.reserve_extra(1);
            return;
        }
        self.in_use.fetch_add(1, Ordering::Relaxed);
    }
}

/// Port of `run_self_scheduled`'s slot protocol on a loop of `items` items:
/// before every claim the caller recruits helpers for the unclaimed items
/// beyond the one it is about to take, a helper releases its slot once the
/// index is exhausted, and a caller that had helpers lends its slot while it
/// joins them.
fn run_loop(pool: &Arc<PoolModel>, items: usize) {
    let next = Arc::new(AtomicUsize::new(0));
    let mut helpers = Vec::new();
    loop {
        let claimed = next.load(Ordering::Relaxed);
        if claimed < items {
            for _ in 0..pool.reserve_extra(items - claimed - 1) {
                let pool = Arc::clone(pool);
                let next = Arc::clone(&next);
                helpers.push(thread::spawn(move || {
                    while next.fetch_add(1, Ordering::Relaxed) < items {}
                    pool.release_extra(1);
                }));
            }
        }
        if next.fetch_add(1, Ordering::Relaxed) >= items {
            break;
        }
    }
    join_lending_slot(pool, helpers);
}

/// The end of `run_self_scheduled`: a caller with helpers lends its slot
/// while it joins them, then takes it back.
fn join_lending_slot(pool: &PoolModel, helpers: Vec<thread::JoinHandle<()>>) {
    if helpers.is_empty() {
        return;
    }
    pool.release_extra(1);
    for helper in helpers {
        helper.join();
    }
    pool.take_back();
}

/// Nested loops at budget 2.  An outer loop of two items has reserved the
/// extra slot for its helper; one item is light, the other runs an inner
/// loop, which starts inline while the slot is held.
///
/// * `caller_runs_inner`: the outer helper takes the light item and releases
///   its slot on exit.  The inner loop has 3 items, the smallest loop that
///   can recruit after its first claim, so it may recruit the released slot
///   late.
/// * Otherwise the helper runs an inner loop of 2 items while the root, done
///   with the light item, lends its slot as it joins; the inner loop recruits
///   the lent slot if the loan lands before its first claim.
fn nested_model(caller_runs_inner: bool) {
    let pool = Arc::new(PoolModel::new(Budget::Fixed(2), Protocol::Faithful));
    assert_eq!(pool.reserve_extra(1), 1);
    let outer_helper = {
        let pool = Arc::clone(&pool);
        thread::spawn(move || {
            if !caller_runs_inner {
                run_loop(&pool, 2);
            }
            pool.release_extra(1);
        })
    };
    if caller_runs_inner {
        run_loop(&pool, 3);
    }
    join_lending_slot(&pool, vec![outer_helper]);
    let in_use = pool.in_use.load(Ordering::SeqCst);
    assert_eq!(in_use, 0, "in_use {in_use} at quiescence: a slot drifted");
}

/// Another program in flight at budget 2: the root reserves the extra slot
/// for a helper, if free, and lends its own slot while it joins it; a second
/// top-level thread (a second daemon connection, say) recruits up to two
/// helpers and releases them.  At quiescence every slot is back.
fn lending_beside_other_program_model(protocol: Protocol) {
    let pool = Arc::new(PoolModel::new(Budget::Fixed(2), protocol));
    let other = {
        let pool = Arc::clone(&pool);
        thread::spawn(move || {
            let got = pool.reserve_extra(2);
            pool.release_extra(got);
        })
    };
    let helpers = (0..pool.reserve_extra(1))
        .map(|_| {
            let pool = Arc::clone(&pool);
            thread::spawn(move || pool.release_extra(1))
        })
        .collect();
    join_lending_slot(&pool, helpers);
    other.join();
    let in_use = pool.in_use.load(Ordering::SeqCst);
    assert_eq!(in_use, 0, "in_use {in_use} at quiescence: a slot drifted");
}

/// `set_worker_budget` racing work in flight: a thread shrinks the budget
/// from 2 to 1 while the root recruits a helper and lends its slot as it
/// joins it.  A reserve that read the budget before the shrink sizes its
/// grant by the previous cap, so `in_use` can sit above the new `budget - 1`
/// until that helper leaves; no count is overwritten, so every slot is back
/// at quiescence.
fn budget_change_in_flight_model(protocol: Protocol) {
    let pool = Arc::new(PoolModel::new(Budget::Live(AtomicUsize::new(2)), protocol));
    let shrink = {
        let pool = Arc::clone(&pool);
        thread::spawn(move || pool.set_budget(1))
    };
    let helpers = (0..pool.reserve_extra(1))
        .map(|_| {
            let pool = Arc::clone(&pool);
            thread::spawn(move || pool.release_extra(1))
        })
        .collect();
    join_lending_slot(&pool, helpers);
    shrink.join();
    let in_use = pool.in_use.load(Ordering::SeqCst);
    assert_eq!(in_use, 0, "in_use {in_use} at quiescence: a slot drifted");
}

/// Invariant: with budget B, the extras granted to concurrent reservers
/// never total more than B−1 — the pool cannot oversubscribe — and every
/// grant is returned at quiescence.
#[test]
fn reserve_never_oversubscribes() {
    const BUDGET: usize = 3;
    let report = Model::new("rayon-reserve-no-oversubscribe")
        .max_dfs_schedules(200_000)
        .check(|| {
            let pool = Arc::new(PoolModel::new(Budget::Fixed(BUDGET), Protocol::Faithful));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let pool = Arc::clone(&pool);
                    thread::spawn(move || pool.reserve_extra(2))
                })
                .collect();
            let grants: Vec<usize> = workers.into_iter().map(|w| w.join()).collect();
            let total: usize = grants.iter().sum();
            assert!(
                total < BUDGET,
                "oversubscribed: {total} extras granted with budget {BUDGET}"
            );
            assert_eq!(
                pool.in_use.load(Ordering::SeqCst),
                total as isize,
                "grants and in_use must reconcile"
            );
            pool.release_extra(total);
            // Quiescence: everything returned, nothing lost.
            assert_eq!(pool.in_use.load(Ordering::SeqCst), 0);
        });
    assert!(
        report.exhaustive,
        "small model must be fully explored: {report:?}"
    );
}

/// Mutation twin: the torn load/store reserve must be caught oversubscribing.
#[test]
fn torn_reserve_is_caught() {
    const BUDGET: usize = 3;
    let failure = Model::new("rayon-reserve-torn-MUTATION").expect_failure(|| {
        let pool = Arc::new(PoolModel::new(Budget::Fixed(BUDGET), Protocol::Faithful));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let pool = Arc::clone(&pool);
                thread::spawn(move || pool.reserve_extra_torn(2))
            })
            .collect();
        let grants: Vec<usize> = workers.into_iter().map(|w| w.join()).collect();
        let total: usize = grants.iter().sum();
        assert!(
            total < BUDGET,
            "oversubscribed: {total} extras granted with budget {BUDGET}"
        );
    });
    assert!(failure.message.contains("oversubscribed"), "{failure:?}");
}

/// Invariant: an inner loop in flight recruits the slot an outer helper
/// released on exit (see [`nested_model`]); no reserve pushes `in_use` past
/// `budget - 1`, and `in_use == 0` at quiescence.
#[test]
fn nested_loop_recruits_released_slot() {
    let report = Model::new("rayon-nested-released-slot")
        .max_dfs_schedules(200_000)
        .check(|| nested_model(true));
    assert!(report.exhaustive, "{report:?}");
}

/// Invariant: an inner loop in flight recruits the slot the outer caller
/// lent while joining (see [`nested_model`]); no reserve pushes `in_use`
/// past `budget - 1`, and `in_use == 0` at quiescence.
#[test]
fn nested_loop_recruits_lent_slot() {
    let report = Model::new("rayon-nested-lent-slot")
        .max_dfs_schedules(200_000)
        .check(|| nested_model(false));
    assert!(report.exhaustive, "{report:?}");
}

/// Invariant: a caller lending its slot beside another program's recruits
/// (see [`lending_beside_other_program_model`]) leaves `in_use == 0` at
/// quiescence on every schedule, and no reserve pushes `in_use` past
/// `budget - 1`.
#[test]
fn lent_slot_is_taken_back_exactly() {
    let report = Model::new("rayon-lend-quiescent")
        .max_dfs_schedules(200_000)
        .check(|| lending_beside_other_program_model(Protocol::Faithful));
    assert!(report.exhaustive, "{report:?}");
}

/// Invariant: a budget shrink racing a reserve, its helpers' releases and a
/// lent slot (see [`budget_change_in_flight_model`]) leaves `in_use == 0` at quiescence, and
/// no reserve pushes `in_use` past the `budget - 1` it read.
#[test]
fn budget_change_in_flight_returns_every_slot() {
    let report = Model::new("rayon-budget-change-in-flight")
        .max_dfs_schedules(200_000)
        .check(|| budget_change_in_flight_model(Protocol::Faithful));
    assert!(report.exhaustive, "{report:?}");
}

/// Mutation twin: a budget store that also resets the count is caught
/// losing the slots held across it.
#[test]
fn resetting_budget_store_is_caught() {
    let failure = Model::new("rayon-resetting-budget-store-MUTATION")
        .expect_failure(|| budget_change_in_flight_model(Protocol::ResettingBudgetStore));
    assert!(failure.message.contains("drifted"), "{failure:?}");
}

/// Mutation twin: taking the lent slot back through `reserve_extra(1)` is
/// caught drifting once the other program has recruited the lent slot.
#[test]
fn take_back_via_reserve_is_caught() {
    let failure = Model::new("rayon-take-back-via-reserve-MUTATION")
        .expect_failure(|| lending_beside_other_program_model(Protocol::TakeBackViaReserve));
    assert!(failure.message.contains("drifted"), "{failure:?}");
}

/// Mutation twin: a release clamped at zero is caught losing a slot once the
/// caller has lent its own.
#[test]
fn clamped_release_with_lending_is_caught() {
    let failure = Model::new("rayon-clamped-release-MUTATION")
        .expect_failure(|| lending_beside_other_program_model(Protocol::ClampedRelease));
    assert!(failure.message.contains("drifted"), "{failure:?}");
}

/// The panic-discipline model: workers self-schedule items off a shared
/// atomic index, "panics" are recorded as poisoned outcomes, and the
/// collector must surface the **smallest** poisoned index — the payload a
/// sequential run would have hit first — regardless of which worker finished
/// first (ported from `run_self_scheduled`'s slot collection).
fn panic_discipline_model(pick_first_completed: bool) {
    const ITEMS: usize = 2;
    const POISONED: [bool; ITEMS] = [true, true]; // both items panic
    let next = Arc::new(AtomicUsize::new(0));
    // Completion-order sequence number per item — the order is
    // schedule-dependent, which is exactly what the collector must not
    // depend on.
    let order_ctr = Arc::new(AtomicUsize::new(0));
    let order: Arc<Vec<AtomicUsize>> =
        Arc::new((0..ITEMS).map(|_| AtomicUsize::new(usize::MAX)).collect());
    let workers: Vec<_> = (0..ITEMS)
        .map(|_| {
            let next = Arc::clone(&next);
            let order_ctr = Arc::clone(&order_ctr);
            let order = Arc::clone(&order);
            // One self-scheduled claim per worker: which item a worker gets
            // and the completion order are both schedule-dependent.
            thread::spawn(move || {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let seq = order_ctr.fetch_add(1, Ordering::SeqCst);
                order[i].store(seq, Ordering::SeqCst);
            })
        })
        .collect();
    for w in workers {
        w.join();
    }
    let seqs: Vec<usize> = order.iter().map(|s| s.load(Ordering::SeqCst)).collect();
    assert!(
        seqs.iter().all(|&s| s != usize::MAX),
        "every item ran exactly once"
    );
    let surfaced = if pick_first_completed {
        // MUTATION: surface the first panic in completion order (the old
        // pre-PR6 `join().expect(..)` shape): schedule-dependent.
        (0..ITEMS).filter(|&i| POISONED[i]).min_by_key(|&i| seqs[i])
    } else {
        // Faithful port: the smallest poisoned index wins.
        (0..ITEMS).find(|&i| POISONED[i])
    };
    assert_eq!(
        surfaced,
        Some(0),
        "resumed panic must be the smallest poisoned index (sequential-equivalent)"
    );
}

/// Invariant: the surfaced panic index is 1 on every schedule.
#[test]
fn panic_resumes_smallest_index() {
    let report = Model::new("rayon-panic-smallest-index")
        .max_dfs_schedules(200_000)
        .check(|| panic_discipline_model(false));
    assert!(report.exhaustive, "{report:?}");
}

/// Mutation twin: completion-order panic selection must be caught.
#[test]
fn completion_order_panic_is_caught() {
    let failure = Model::new("rayon-panic-completion-order-MUTATION")
        .expect_failure(|| panic_discipline_model(true));
    assert!(
        failure.message.contains("smallest poisoned index"),
        "{failure:?}"
    );
}
