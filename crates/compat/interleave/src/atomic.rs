//! Shimmed atomics: `std::sync::atomic` signatures, with every access a
//! schedule point.  All operations execute sequentially consistent
//! regardless of the `Ordering` argument — the checker explores
//! interleavings, not weak-memory reorderings.

use crate::sched::with_ctx;
use std::sync::atomic::Ordering;

macro_rules! atomic_shim {
    ($(#[$doc:meta])* $name:ident, $std:ty, $ty:ty) => {
        $(#[$doc])*
        pub struct $name {
            inner: $std,
        }

        impl $name {
            /// Wrap an initial value (no schedule point; construction is
            /// not a visible concurrent access).
            pub const fn new(v: $ty) -> $name {
                $name { inner: <$std>::new(v) }
            }

            fn point() {
                with_ctx(|ctrl, me| ctrl.step(me));
            }

            /// Atomic load (schedule point).
            pub fn load(&self, _order: Ordering) -> $ty {
                Self::point();
                self.inner.load(Ordering::SeqCst)
            }

            /// Atomic store (schedule point).
            pub fn store(&self, v: $ty, _order: Ordering) {
                Self::point();
                self.inner.store(v, Ordering::SeqCst)
            }

            /// Atomic swap (schedule point).
            pub fn swap(&self, v: $ty, _order: Ordering) -> $ty {
                Self::point();
                self.inner.swap(v, Ordering::SeqCst)
            }

            /// Atomic compare-exchange (schedule point).
            pub fn compare_exchange(
                &self,
                current: $ty,
                new: $ty,
                _success: Ordering,
                _failure: Ordering,
            ) -> Result<$ty, $ty> {
                Self::point();
                self.inner
                    .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
            }
        }
    };
}

macro_rules! atomic_int_ops {
    ($name:ident, $ty:ty) => {
        impl $name {
            /// Atomic add, returning the previous value (schedule point).
            pub fn fetch_add(&self, v: $ty, _order: Ordering) -> $ty {
                Self::point();
                self.inner.fetch_add(v, Ordering::SeqCst)
            }

            /// Atomic subtract, returning the previous value (schedule point).
            pub fn fetch_sub(&self, v: $ty, _order: Ordering) -> $ty {
                Self::point();
                self.inner.fetch_sub(v, Ordering::SeqCst)
            }

            /// Atomic max, returning the previous value (schedule point).
            pub fn fetch_max(&self, v: $ty, _order: Ordering) -> $ty {
                Self::point();
                self.inner.fetch_max(v, Ordering::SeqCst)
            }

            /// Atomic read-modify-write loop (one schedule point for the
            /// whole atomic operation, matching the std semantics where the
            /// final CAS is what publishes).
            pub fn fetch_update(
                &self,
                _set_order: Ordering,
                _fetch_order: Ordering,
                f: impl FnMut($ty) -> Option<$ty>,
            ) -> Result<$ty, $ty> {
                Self::point();
                self.inner
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, f)
            }
        }
    };
}

atomic_shim!(
    /// Model-checked `AtomicUsize`.
    AtomicUsize,
    std::sync::atomic::AtomicUsize,
    usize
);
atomic_int_ops!(AtomicUsize, usize);

atomic_shim!(
    /// Model-checked `AtomicU64`.
    AtomicU64,
    std::sync::atomic::AtomicU64,
    u64
);
atomic_int_ops!(AtomicU64, u64);

atomic_shim!(
    /// Model-checked `AtomicBool`.
    AtomicBool,
    std::sync::atomic::AtomicBool,
    bool
);

atomic_shim!(
    /// Model-checked `AtomicIsize`.
    AtomicIsize,
    std::sync::atomic::AtomicIsize,
    isize
);
atomic_int_ops!(AtomicIsize, isize);
