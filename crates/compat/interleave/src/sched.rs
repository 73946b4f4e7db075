//! The controlled scheduler: one model thread runs at a time, every shim
//! operation yields back here, and which thread continues is a recorded,
//! replayable *decision*.

use std::cell::RefCell;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Panic payload used to unwind parked model threads when a run is torn down
/// (failure found, or the scheduler finished).  Model code must not
/// `catch_unwind`, or it would swallow this.
pub(crate) struct Aborted;

/// Scheduling state of one model thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Status {
    /// Eligible to be scheduled.
    Runnable,
    /// Parked until the given lock is released.
    BlockedLock(usize),
    /// Parked on the given condvar until notified.
    BlockedCv(usize),
    /// Parked until the given thread finishes.
    BlockedJoin(usize),
    /// Done (normally or by panic).
    Finished,
}

/// How choices beyond the forced prefix are made.
pub(crate) enum Policy {
    /// Always take choice 0 (the DFS leftmost descent).
    Leftmost,
    /// Seeded xorshift64* choices (the post-DFS random fallback).
    Random(XorShift),
}

/// The mutable scheduler state, guarded by the controller mutex.
pub(crate) struct Ctrl {
    pub threads: Vec<Status>,
    /// Lock id → current holder.
    pub locks: Vec<Option<usize>>,
    /// Condvar id → parked threads, in wait order.
    pub cvs: Vec<Vec<usize>>,
    /// The thread currently allowed to run (`None` = scheduler's turn).
    pub active: Option<usize>,
    /// Choices made so far this run.
    pub decisions: Vec<u8>,
    /// Number of options each decision chose among (for DFS backtracking).
    pub options: Vec<u8>,
    /// Choices forced by replay / DFS prefix; beyond it the policy decides.
    pub forced: Vec<u8>,
    pub policy: Policy,
    /// First failure observed (panic message, deadlock, step budget).
    pub failure: Option<String>,
    /// Tear-down flag: parked threads unwind with [`Aborted`].
    pub abort: bool,
}

impl Ctrl {
    fn new(forced: Vec<u8>, policy: Policy) -> Ctrl {
        Ctrl {
            threads: Vec::new(),
            locks: Vec::new(),
            cvs: Vec::new(),
            active: None,
            decisions: Vec::new(),
            options: Vec::new(),
            forced,
            policy,
            failure: None,
            abort: false,
        }
    }

    /// Make (and record) the next decision among `options` alternatives.
    pub fn decide(&mut self, options: usize) -> usize {
        debug_assert!(options >= 1);
        assert!(
            options < 256,
            "decision fan-out {options} exceeds u8 encoding"
        );
        let i = self.decisions.len();
        let choice = if i < self.forced.len() {
            (self.forced[i] as usize).min(options - 1)
        } else {
            match &mut self.policy {
                Policy::Leftmost => 0,
                Policy::Random(rng) => (rng.next() % options as u64) as usize,
            }
        };
        self.decisions.push(choice as u8);
        self.options.push(options as u8);
        choice
    }
}

/// One model run's shared coordination point: the scheduler thread and every
/// model thread rendezvous through `st`/`cv`.
pub(crate) struct Controller {
    pub st: Mutex<Ctrl>,
    pub cv: Condvar,
    /// OS handles of spawned model threads, joined at run teardown.
    pub os_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

// lint:allow(global-state): a model thread finds its controller through its own OS thread; each run installs and clears it
thread_local! {
    /// The controller + thread id of the model thread running on this OS
    /// thread, set by the per-run wrappers in `model.rs` / `thread.rs`.
    static CTX: RefCell<Option<(Arc<Controller>, usize)>> = const { RefCell::new(None) };
}

/// Run `f` with the current model context; panics if called outside a model.
pub(crate) fn with_ctx<R>(f: impl FnOnce(&Arc<Controller>, usize) -> R) -> R {
    CTX.with(|c| {
        let borrowed = c.borrow();
        let (ctrl, tid) = borrowed
            .as_ref()
            // lint:allow(unwrap-expect): using a shim primitive outside Model::check is API misuse; panicking is the documented contract
            .expect("interleave primitive used outside Model::check");
        f(ctrl, *tid)
    })
}

pub(crate) fn set_ctx(ctrl: Arc<Controller>, tid: usize) {
    CTX.with(|c| *c.borrow_mut() = Some((ctrl, tid)));
}

pub(crate) fn clear_ctx() {
    CTX.with(|c| *c.borrow_mut() = None);
}

impl Controller {
    pub fn new(forced: Vec<u8>, policy: Policy) -> Controller {
        Controller {
            st: Mutex::new(Ctrl::new(forced, policy)),
            cv: Condvar::new(),
            os_handles: Mutex::new(Vec::new()),
        }
    }

    /// The coordination mutex can only be "poisoned" by a panic while held,
    /// which our own code never does; recover rather than cascade.
    pub fn lock_st(&self) -> MutexGuard<'_, Ctrl> {
        self.st.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Park until the scheduler hands this thread the baton (or tears the
    /// run down, in which case unwind with [`Aborted`]).
    pub fn wait_for_turn<'a>(
        &'a self,
        mut st: MutexGuard<'a, Ctrl>,
        me: usize,
    ) -> MutexGuard<'a, Ctrl> {
        loop {
            if st.abort {
                // A thread that is already unwinding (guard drops during a
                // panic) must not panic again — that would be a process
                // abort.  Let it proceed unscheduled; the run is over.
                if std::thread::panicking() {
                    return st;
                }
                drop(st);
                std::panic::panic_any(Aborted);
            }
            if st.active == Some(me) {
                return st;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// A plain schedule point: hand the baton back and wait to be re-picked.
    pub fn step(&self, me: usize) {
        let mut st = self.lock_st();
        st.active = None;
        self.cv.notify_all();
        let st = self.wait_for_turn(st, me);
        drop(st);
    }

    pub fn register_lock(&self) -> usize {
        let mut st = self.lock_st();
        st.locks.push(None);
        st.locks.len() - 1
    }

    pub fn register_cv(&self) -> usize {
        let mut st = self.lock_st();
        st.cvs.push(Vec::new());
        st.cvs.len() - 1
    }

    pub fn register_thread(&self) -> usize {
        let mut st = self.lock_st();
        st.threads.push(Status::Runnable);
        assert!(st.threads.len() <= 16, "model spawned more than 16 threads");
        st.threads.len() - 1
    }

    /// Acquire `lock` for `me`, parking while another thread holds it.
    pub fn lock_acquire(&self, me: usize, lock: usize) {
        // Schedule point before the attempt: other threads may race us here.
        self.step(me);
        loop {
            let mut st = self.lock_st();
            if st.abort {
                if std::thread::panicking() {
                    // Unwinding during teardown: skip the model acquire
                    // entirely (release is abort-tolerant too).
                    return;
                }
                drop(st);
                std::panic::panic_any(Aborted);
            }
            if st.locks[lock].is_none() {
                st.locks[lock] = Some(me);
                return;
            }
            st.threads[me] = Status::BlockedLock(lock);
            st.active = None;
            self.cv.notify_all();
            let st = self.wait_for_turn(st, me);
            drop(st);
            // Woken after a release — retry; another thread may have won.
        }
    }

    /// Release `lock`, waking its waiters, then yield.
    pub fn lock_release(&self, me: usize, lock: usize) {
        {
            let mut st = self.lock_st();
            if st.abort {
                // Teardown: clear the hold if it is ours and get out without
                // re-parking (the thread may be mid-unwind).
                if st.locks[lock] == Some(me) {
                    st.locks[lock] = None;
                }
                drop(st);
                if std::thread::panicking() {
                    return;
                }
                std::panic::panic_any(Aborted);
            }
            debug_assert_eq!(st.locks[lock], Some(me), "unlock by non-holder");
            st.locks[lock] = None;
            for t in 0..st.threads.len() {
                if st.threads[t] == Status::BlockedLock(lock) {
                    st.threads[t] = Status::Runnable;
                }
            }
        }
        self.step(me);
    }

    /// Atomically release `lock` and park on `cv` (the condvar-wait half;
    /// the caller reacquires the lock afterwards, competing like real code).
    pub fn cv_wait(&self, me: usize, cv: usize, lock: usize) {
        let mut st = self.lock_st();
        debug_assert_eq!(st.locks[lock], Some(me), "cv wait without the lock");
        st.locks[lock] = None;
        for t in 0..st.threads.len() {
            if st.threads[t] == Status::BlockedLock(lock) {
                st.threads[t] = Status::Runnable;
            }
        }
        st.cvs[cv].push(me);
        st.threads[me] = Status::BlockedCv(cv);
        st.active = None;
        self.cv.notify_all();
        let st = self.wait_for_turn(st, me);
        drop(st);
    }

    /// Wake one waiter of `cv`.  *Which* waiter is a scheduler decision, so
    /// every possible wake order is explored.
    pub fn cv_notify_one(&self, me: usize, cv: usize) {
        {
            let mut st = self.lock_st();
            let n = st.cvs[cv].len();
            if n > 0 {
                let i = if n == 1 { 0 } else { st.decide(n) };
                let woken = st.cvs[cv].remove(i);
                st.threads[woken] = Status::Runnable;
            }
        }
        self.step(me);
    }

    /// Wake every waiter of `cv`.
    pub fn cv_notify_all(&self, me: usize, cv: usize) {
        {
            let mut st = self.lock_st();
            let waiters = std::mem::take(&mut st.cvs[cv]);
            for woken in waiters {
                st.threads[woken] = Status::Runnable;
            }
        }
        self.step(me);
    }

    /// Park until `target` finishes.
    pub fn join_wait(&self, me: usize, target: usize) {
        self.step(me);
        loop {
            let mut st = self.lock_st();
            if st.abort {
                if std::thread::panicking() {
                    return;
                }
                drop(st);
                std::panic::panic_any(Aborted);
            }
            if st.threads[target] == Status::Finished {
                return;
            }
            st.threads[me] = Status::BlockedJoin(target);
            st.active = None;
            self.cv.notify_all();
            let st = self.wait_for_turn(st, me);
            drop(st);
        }
    }

    /// Mark `me` finished (recording a panic as the run's failure), wake
    /// joiners, and hand the baton back for good.
    pub fn thread_finished(&self, me: usize, panic_msg: Option<String>) {
        let mut st = self.lock_st();
        st.threads[me] = Status::Finished;
        for t in 0..st.threads.len() {
            if st.threads[t] == Status::BlockedJoin(me) {
                st.threads[t] = Status::Runnable;
            }
        }
        if let Some(msg) = panic_msg {
            if st.failure.is_none() {
                st.failure = Some(msg);
            }
            st.abort = true;
        }
        st.active = None;
        self.cv.notify_all();
    }
}

/// xorshift64* — the same tiny deterministic generator the rest of the
/// workspace uses for seeded test inputs.
pub(crate) struct XorShift(pub u64);

impl XorShift {
    pub fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Extract a human-readable message from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
