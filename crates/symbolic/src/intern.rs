//! A global symbol interner.
//!
//! Symbolic analysis churns through enormous numbers of tiny expressions
//! whose leaves are a handful of distinct names (`N`, `S`, `D_i`, …).  The
//! seed implementation stored a heap-allocated `String` in every `Expr::Sym`
//! leaf, so every clone/compare in the simplifier paid for allocation and
//! byte-wise comparison.  [`Symbol`] replaces that with a `Copy` handle:
//! interning returns a dense `u32` id plus a cached `&'static str` (the
//! interner never frees names — the set of distinct symbols in any analysis
//! is tiny and bounded), making equality an integer compare and `as_str`
//! lock-free.
//!
//! Ordering is intentionally *string* ordering, not id ordering: canonical
//! expression form sorts terms/factors, and keeping the seed's string-based
//! sort means `Display` output is byte-identical to the pre-interning
//! implementation.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned symbol name: a `Copy` handle that compares by id and orders by
/// the underlying string.
#[derive(Clone, Copy)]
pub struct Symbol {
    id: u32,
    name: &'static str,
}

struct Interner {
    names: Vec<&'static str>,
    ids: HashMap<&'static str, u32>,
}

fn interner() -> &'static RwLock<Interner> {
    // lint:allow(global-state): symbols are &'static names shared by every expression of the process; the table only grows
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            names: Vec::new(),
            ids: HashMap::new(),
        })
    })
}

impl Symbol {
    /// Intern a name, returning its canonical handle.
    pub fn intern(name: &str) -> Symbol {
        {
            // lint:allow(unwrap-expect): interner lock holders only intern strings; they cannot panic while holding it
            let r = interner().read().expect("interner lock poisoned");
            if let Some(&id) = r.ids.get(name) {
                return Symbol {
                    id,
                    name: r.names[id as usize],
                };
            }
        }
        // lint:allow(unwrap-expect): interner lock holders only intern strings; they cannot panic while holding it
        let mut w = interner().write().expect("interner lock poisoned");
        if let Some(&id) = w.ids.get(name) {
            return Symbol {
                id,
                name: w.names[id as usize],
            };
        }
        let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
        // lint:allow(unwrap-expect): u32 symbol-id overflow means four billion distinct names; a panic beats silent wraparound
        let id = u32::try_from(w.names.len()).expect("more than u32::MAX distinct symbols");
        w.names.push(leaked);
        w.ids.insert(leaked, id);
        Symbol { id, name: leaked }
    }

    /// The interned name.
    #[inline]
    pub fn as_str(self) -> &'static str {
        self.name
    }

    /// The dense interner id (stable within a process run).
    #[inline]
    pub fn id(self) -> u32 {
        self.id
    }
}

impl PartialEq for Symbol {
    #[inline]
    fn eq(&self, other: &Symbol) -> bool {
        self.id == other.id
    }
}

impl Eq for Symbol {}

impl std::hash::Hash for Symbol {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl Ord for Symbol {
    #[inline]
    fn cmp(&self, other: &Symbol) -> Ordering {
        if self.id == other.id {
            Ordering::Equal
        } else {
            self.name.cmp(other.name)
        }
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Symbol) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

impl From<&str> for Symbol {
    fn from(name: &str) -> Symbol {
        Symbol::intern(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("N");
        let b = Symbol::intern("N");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.as_str(), "N");
    }

    #[test]
    fn ordering_follows_strings_not_ids() {
        // Intern in reverse lexicographic order so id order and string order
        // disagree.
        let z = Symbol::intern("zzz_order_test");
        let a = Symbol::intern("aaa_order_test");
        assert!(a < z, "string order must win over id order");
    }

    #[test]
    fn distinct_names_are_distinct() {
        assert_ne!(Symbol::intern("x_distinct"), Symbol::intern("y_distinct"));
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| Symbol::intern("concurrent_sym").id()))
            .collect();
        let ids: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }
}
