//! Serving-layer hooks: canonical program hashing and in-flight request
//! coalescing.
//!
//! The `soap-serve` daemon deduplicates requests at two levels, both built on
//! the primitives here:
//!
//! 1. **Response memoization** keyed by [`canonical_program_hash`] — a
//!    renaming-invariant digest of a whole [`Program`].  Two sources that
//!    differ only in loop-variable names (the daemon's most common duplicate
//!    shape: generated kernels with gensym'd induction variables) hash
//!    identically, so the second request is answered from the first one's
//!    serialized response.
//! 2. **In-flight coalescing** via [`InFlight`] — when N identical requests
//!    arrive *concurrently*, exactly one (the leader) runs the analysis; the
//!    other N−1 block until the leader publishes the result and then clone it.
//!
//! Both are deliberately independent of the [`SolveCache`](crate::SolveCache):
//! the solve cache deduplicates *subgraph models* inside an analysis, while
//! these hooks deduplicate *whole requests* before an analysis starts.
//!
//! ## Hash soundness
//!
//! [`canonical_program_hash`] renames loop variables positionally *per
//! statement* (`v0`, `v1`, … outermost-first).  This is sound because
//! [`Statement::validate`](soap_ir::Statement::validate) — enforced by both
//! frontends — guarantees every subscript and every loop bound references
//! only loop variables of its own statement plus size parameters, so the
//! positional rename is a bijection on everything that can appear.  Array
//! names, size parameters, bounds, subscripts, component order, and the
//! update flag all feed the digest; statement names and the program name do
//! not (they are presentation, not structure — the response splices the
//! caller's name back in).

use soap_ir::{ArrayAccess, LoopVar, Program, Statement};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex};

/// A renaming-invariant structural digest of a program.
///
/// Equal hashes are *intended* to mean structurally identical programs
/// (modulo loop-variable names); as with any 64-bit digest, collisions are
/// possible, and conflating two programs is **not** safe.  Nothing checks
/// the program on a hit: the serve memo would answer a colliding request
/// with the other program's bound, and the report layer, keyed through
/// [`structural_program_key`], would persist that bound to disk — a bound
/// that may be unsound for the program that asked.  The FNV-1a input
/// includes client-controlled bytes (array names in POSTed source), so a
/// collision can be crafted.  The ROADMAP item "Whole-program identity by
/// canonical form" tracks replacing this digest with a checked identity.
///
/// ```
/// use soap_sdg::service::canonical_program_hash;
///
/// let atax = soap_kernels::by_name("atax").unwrap().program;
/// let h1 = canonical_program_hash(&atax);
/// // Renaming loop variables does not change the hash.
/// let mut renamed = atax.clone();
/// for st in &mut renamed.statements {
///     for lv in &mut st.domain.loops {
///         lv.name = format!("{}_renamed", lv.name);
///     }
///     for acc in std::iter::once(&mut st.output).chain(st.inputs.iter_mut()) {
///         for comp in &mut acc.components {
///             for ix in &mut comp.indices {
///                 ix.coeffs = ix
///                     .coeffs
///                     .iter()
///                     .map(|(k, v)| (format!("{k}_renamed"), *v))
///                     .collect();
///             }
///         }
///     }
/// }
/// assert_eq!(h1, canonical_program_hash(&renamed));
/// ```
pub fn canonical_program_hash(program: &Program) -> u64 {
    let mut h = Fnv::new();
    h.write_usize(program.statements.len());
    for st in &program.statements {
        hash_statement(&mut h, st);
    }
    h.finish()
}

/// The key under which a finished report is persisted: the structural
/// program digest folded with every [`SdgOptions`](crate::SdgOptions) field
/// that shapes the analysis result, and with the loop-variable names.
///
/// [`canonical_program_hash`] alone is not a sound report key — the same
/// program analyzed under a different subgraph budget, injectivity
/// assumption, or reference `S` produces a different `ProgramAnalysis`, so
/// all four option fields feed the digest (`reference_s` as its raw f64 bit
/// pattern, matching the store's float discipline).  A report also names
/// the program's tile variables (each subgraph's `tile_exponents` and
/// `tile_coeffs` are keyed by loop-variable name), so each statement's loop
/// names, in order, feed the digest too: a loop-renamed program must not
/// replay another spelling's report.
pub fn structural_program_key(program: &Program, opts: &crate::SdgOptions) -> u64 {
    let mut h = Fnv::new();
    h.write_i64(canonical_program_hash(program) as i64);
    h.write_u8(opts.assume_injective as u8);
    h.write_usize(opts.max_subgraph_size);
    h.write_usize(opts.max_subgraphs);
    h.write(&opts.reference_s.to_bits().to_le_bytes());
    for st in &program.statements {
        h.write_usize(st.domain.loops.len());
        for lv in &st.domain.loops {
            h.write_str(&lv.name);
        }
    }
    h.finish()
}

/// Hash one statement under the positional loop-variable renaming.
fn hash_statement(h: &mut Fnv, st: &Statement) {
    // Positional rename: the i-th loop variable (outermost first) becomes
    // position i.  Bounds and subscripts are hashed through it; a name that
    // is not a loop variable is a size parameter and keeps its spelling.
    let loops = &st.domain.loops;
    h.write_str("st");
    h.write_usize(loops.len());
    for lv in loops {
        hash_affine(h, &lv.lower.terms, lv.lower.constant, loops);
        hash_affine(h, &lv.upper.terms, lv.upper.constant, loops);
    }
    h.write_u8(st.is_update as u8);
    hash_access(h, &st.output, loops);
    h.write_usize(st.inputs.len());
    for acc in &st.inputs {
        hash_access(h, acc, loops);
    }
}

fn hash_access(h: &mut Fnv, acc: &ArrayAccess, loops: &[LoopVar]) {
    h.write_str("acc");
    h.write_str(&acc.array);
    h.write_usize(acc.components.len());
    for comp in &acc.components {
        h.write_usize(comp.indices.len());
        for ix in &comp.indices {
            hash_affine(h, &ix.coeffs, ix.offset, loops);
        }
    }
}

/// Hash an affine expression: a bound's `terms` and `constant`, or a
/// subscript's `coeffs` and `offset`.  Names are looked up in place — a nest
/// is a handful of loops, so scanning it beats building a map.
fn hash_affine(h: &mut Fnv, terms: &BTreeMap<String, i64>, constant: i64, loops: &[LoopVar]) {
    h.write_str("aff");
    h.write_i64(constant);
    h.write_usize(terms.len());
    // BTreeMap order is deterministic but name-dependent; emit renamed loop
    // variables by position, then parameters by name, so the digest is
    // stable under renaming.
    for (pos, lv) in loops.iter().enumerate() {
        let Some(&coeff) = terms.get(&lv.name) else {
            continue;
        };
        // A name bound by several loops takes the position of the last.
        if loops[pos + 1..].iter().any(|later| later.name == lv.name) {
            continue;
        }
        h.write_str("v");
        h.write_usize(pos);
        h.write_i64(coeff);
    }
    for (name, &coeff) in terms {
        if !loops.iter().any(|lv| lv.name == *name) {
            h.write_str("p");
            h.write_str(name);
            h.write_i64(coeff);
        }
    }
}

/// FNV-1a, the same dependency-free construction the canonical-key cache and
/// the disk store use for digests.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]); // terminator: ("ab","c") ≠ ("a","bc")
    }
    fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }
    fn write_i64(&mut self, v: i64) {
        self.write(&v.to_le_bytes());
    }
    fn write_usize(&mut self, v: usize) {
        self.write(&(v as u64).to_le_bytes());
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// What [`InFlight::claim`] handed the caller.
pub enum Claim<'a, T> {
    /// This caller is the **leader**: run the work, then publish the result
    /// with [`LeaderGuard::complete`] (or drop the guard to wake followers
    /// empty-handed — they re-claim and one becomes the new leader).
    Leader(LeaderGuard<'a, T>),
    /// Another caller was already running identical work; this is its result
    /// (`None` only if every successive leader died without publishing).
    Follower(Option<T>),
}

/// In-flight request coalescing: at most one execution per key at a time,
/// concurrent duplicates wait and share the leader's result.
///
/// ```
/// use soap_sdg::service::{Claim, InFlight};
/// use std::sync::Arc;
///
/// let inflight = Arc::new(InFlight::new());
/// let Claim::Leader(guard) = inflight.claim(42) else {
///     panic!("first claim must lead");
/// };
/// // A concurrent duplicate would now block in `claim(42)`…
/// guard.complete("analysis result".to_string());
/// // …and return `Claim::Follower(Some("analysis result"))`.
/// // Once completed the key is released: the next claim leads again.
/// assert!(matches!(inflight.claim(42), Claim::Leader(_)));
/// ```
pub struct InFlight<T> {
    slots: Mutex<HashMap<u64, Arc<Slot<T>>>>,
}

/// One in-flight key: followers park on the condvar until `done`.
struct Slot<T> {
    state: Mutex<SlotState<T>>,
    cond: Condvar,
}

struct SlotState<T> {
    done: bool,
    value: Option<T>,
}

impl<T: Clone> InFlight<T> {
    /// An empty coalescing table.
    pub fn new() -> InFlight<T> {
        InFlight {
            slots: Mutex::new(HashMap::new()),
        }
    }

    /// Claim `key`.  The first concurrent claimant becomes the leader; later
    /// claimants block until the leader publishes (or abandons) and then get
    /// the shared value.
    pub fn claim(&self, key: u64) -> Claim<'_, T> {
        let slot = {
            // lint:allow(unwrap-expect): a poisoned slot lock means a leader panicked; fail-stop propagates it to followers (protocol model-checked in tests/interleave_cache.rs)
            let mut slots = self.slots.lock().expect("not poisoned");
            if let Some(slot) = slots.get(&key) {
                Arc::clone(slot)
            } else {
                let slot = Arc::new(Slot {
                    state: Mutex::new(SlotState {
                        done: false,
                        value: None,
                    }),
                    cond: Condvar::new(),
                });
                slots.insert(key, Arc::clone(&slot));
                return Claim::Leader(LeaderGuard {
                    inflight: self,
                    key,
                    slot,
                    published: false,
                });
            }
        };
        // lint:allow(unwrap-expect): a poisoned slot lock means a leader panicked; fail-stop propagates it to followers (protocol model-checked in tests/interleave_cache.rs)
        let mut state = slot.state.lock().expect("not poisoned");
        while !state.done {
            // lint:allow(unwrap-expect): a poisoned slot lock means a leader panicked; fail-stop propagates it to followers (protocol model-checked in tests/interleave_cache.rs)
            state = slot.cond.wait(state).expect("not poisoned");
        }
        Claim::Follower(state.value.clone())
    }

    /// Number of keys currently executing (diagnostics).
    pub fn len(&self) -> usize {
        // lint:allow(unwrap-expect): a poisoned slot lock means a leader panicked; fail-stop propagates it to followers (protocol model-checked in tests/interleave_cache.rs)
        self.slots.lock().expect("not poisoned").len()
    }

    /// True if nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Clone> Default for InFlight<T> {
    fn default() -> Self {
        InFlight::new()
    }
}

/// The leader's obligation: publish a value (or, on drop, release followers
/// empty-handed so the request can be retried).
pub struct LeaderGuard<'a, T> {
    inflight: &'a InFlight<T>,
    key: u64,
    slot: Arc<Slot<T>>,
    published: bool,
}

impl<T> LeaderGuard<'_, T> {
    /// Publish the result: wake every follower with a clone, release the key.
    pub fn complete(mut self, value: T) {
        self.publish(Some(value));
    }

    fn publish(&mut self, value: Option<T>) {
        if self.published {
            return;
        }
        self.published = true;
        self.inflight
            .slots
            .lock()
            // lint:allow(unwrap-expect): a poisoned slot lock means a leader panicked; fail-stop propagates it to followers (protocol model-checked in tests/interleave_cache.rs)
            .expect("not poisoned")
            .remove(&self.key);
        // lint:allow(unwrap-expect): a poisoned slot lock means a leader panicked; fail-stop propagates it to followers (protocol model-checked in tests/interleave_cache.rs)
        let mut state = self.slot.state.lock().expect("not poisoned");
        state.done = true;
        state.value = value;
        self.slot.cond.notify_all();
    }
}

impl<T> Drop for LeaderGuard<'_, T> {
    fn drop(&mut self) {
        // Leader died (panic, early return) without publishing: wake the
        // followers with nothing rather than leaving them parked forever.
        self.publish(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soap_frontend::parse_python;

    const ATAX_PY: &str = "\
for i in range(0, M):
    for j in range(0, N):
        tmp[i] += A[i][j] * x[j]
for i in range(0, M):
    for j in range(0, N):
        y[j] += A[i][j] * tmp[i]
";

    const ATAX_PY_RENAMED: &str = "\
for outer_q in range(0, M):
    for zz in range(0, N):
        tmp[outer_q] += A[outer_q][zz] * x[zz]
for a9 in range(0, M):
    for b7 in range(0, N):
        y[b7] += A[a9][b7] * tmp[a9]
";

    #[test]
    fn hash_is_renaming_invariant() {
        let a = parse_python("a", ATAX_PY).unwrap();
        let b = parse_python("b", ATAX_PY_RENAMED).unwrap();
        assert_eq!(canonical_program_hash(&a), canonical_program_hash(&b));
    }

    #[test]
    fn hash_distinguishes_structure() {
        let a = parse_python("a", ATAX_PY).unwrap();
        // Change one bound (N -> M in the inner loop of the first nest).
        let other = ATAX_PY.replacen("range(0, N)", "range(0, M)", 1);
        let b = parse_python("b", &other).unwrap();
        assert_ne!(canonical_program_hash(&a), canonical_program_hash(&b));
        // Change an array name.
        let c = parse_python("c", &ATAX_PY.replace("tmp", "scratch")).unwrap();
        assert_ne!(canonical_program_hash(&a), canonical_program_hash(&c));
        // Parameter names matter (N vs K is a different symbolic bound).
        let d = parse_python("d", &ATAX_PY.replace("N)", "K)")).unwrap();
        assert_ne!(canonical_program_hash(&a), canonical_program_hash(&d));
    }

    #[test]
    fn hash_ignores_program_and_statement_names() {
        let a = parse_python("first", ATAX_PY).unwrap();
        let b = parse_python("completely-different-name", ATAX_PY).unwrap();
        assert_eq!(canonical_program_hash(&a), canonical_program_hash(&b));
    }

    #[test]
    fn structural_key_separates_option_profiles() {
        let program = parse_python("a", ATAX_PY).unwrap();
        let renamed = parse_python("b", ATAX_PY_RENAMED).unwrap();
        let opts = crate::SdgOptions::default();
        // The program hash is renaming-invariant, but a report names its
        // tile variables, so loop renames separate report keys…
        assert_eq!(
            canonical_program_hash(&program),
            canonical_program_hash(&renamed)
        );
        assert_ne!(
            structural_program_key(&program, &opts),
            structural_program_key(&renamed, &opts)
        );
        // …while the program and statement names still do not…
        let same_loops = parse_python("c", ATAX_PY).unwrap();
        assert_eq!(
            structural_program_key(&program, &opts),
            structural_program_key(&same_loops, &opts)
        );
        // …and every option that shapes the result separates keys.
        for tweaked in [
            crate::SdgOptions {
                assume_injective: !opts.assume_injective,
                ..opts.clone()
            },
            crate::SdgOptions {
                max_subgraph_size: opts.max_subgraph_size + 1,
                ..opts.clone()
            },
            crate::SdgOptions {
                max_subgraphs: opts.max_subgraphs - 1,
                ..opts.clone()
            },
            crate::SdgOptions {
                reference_s: opts.reference_s * 2.0,
                ..opts.clone()
            },
        ] {
            assert_ne!(
                structural_program_key(&program, &opts),
                structural_program_key(&program, &tweaked)
            );
        }
    }

    #[test]
    fn coalescing_single_leader_many_followers() {
        let inflight: Arc<InFlight<String>> = Arc::new(InFlight::new());
        let Claim::Leader(guard) = inflight.claim(7) else {
            panic!("first claim must lead");
        };
        let followers: Vec<_> = (0..8)
            .map(|_| {
                let inflight = Arc::clone(&inflight);
                std::thread::spawn(move || match inflight.claim(7) {
                    Claim::Leader(_) => panic!("leader already exists"),
                    Claim::Follower(v) => v,
                })
            })
            .collect();
        // Give followers time to park, then publish.
        std::thread::sleep(std::time::Duration::from_millis(50));
        guard.complete("shared".to_string());
        for f in followers {
            assert_eq!(f.join().unwrap().as_deref(), Some("shared"));
        }
        assert!(inflight.is_empty());
    }

    #[test]
    fn abandoned_leader_wakes_followers_empty_handed() {
        let inflight: Arc<InFlight<u32>> = Arc::new(InFlight::new());
        let Claim::Leader(guard) = inflight.claim(1) else {
            panic!("first claim must lead");
        };
        let inflight2 = Arc::clone(&inflight);
        let follower = std::thread::spawn(move || match inflight2.claim(1) {
            Claim::Leader(_) => panic!("leader already exists"),
            Claim::Follower(v) => v,
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(guard); // leader abandons without publishing
        assert_eq!(follower.join().unwrap(), None);
        // The key is released: a new claim leads.
        assert!(matches!(inflight.claim(1), Claim::Leader(_)));
    }
}
