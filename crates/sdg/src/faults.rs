//! Deterministic, seeded fault injection for chaos testing.
//!
//! A [`FaultPlan`] describes *where* the pipeline should misbehave: transient
//! store I/O errors, corrupt store segments, injected per-subgraph solver
//! panics, and plan-driven cancellation trips.  Every decision is a pure
//! function of the plan seed and a **stable identity** of the operation
//! (segment file name, program name + subgraph arrays, subgraph index) —
//! never a call-sequence counter — so the same plan faults the same
//! operations for any thread count, shard count, or retry interleaving.
//!
//! A plan is a plain value carried by the [`SolveCache`](crate::SolveCache)
//! it was built into ([`SolveCache::with_faults`](crate::SolveCache::with_faults)):
//! the cache's store uses it for hydration, flush and salvage, and
//! [`analyze_program`](crate::analyze_program) reads it at its level-cap,
//! subgraph-cancel and subgraph-panic decision points.  Every other
//! constructor builds a fault-free cache, so a faulted and a fault-free
//! analysis can share one process.  The library reads no environment;
//! `soap-cli` parses `SOAP_FAULT_PLAN` for its analysis subcommands, e.g.
//!
//! ```text
//! SOAP_FAULT_PLAN=seed=42,store_read_transient=1,corrupt_every=7,panic_every=11
//! ```

/// A parsed fault-injection plan.  The default plan injects nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed mixed into every identity hash; two plans with different seeds
    /// fault different (but individually deterministic) operation sets.
    pub seed: u64,
    /// The first `K` read attempts of every store segment fail with a
    /// synthetic transient I/O error.  `K` below the retry budget exercises
    /// the heal path; `K` at or above it exercises the permanent-failure
    /// accounting.
    pub store_read_transient: u32,
    /// The first `K` write attempts of every store flush fail transiently.
    pub store_write_transient: u32,
    /// One in `N` store segments (by name hash) has a record corrupted on
    /// read, driving the quarantine path.  `0` disables.
    pub corrupt_every: u64,
    /// One in `N` subgraph closures (by program + array-set hash) panics,
    /// driving the per-subgraph isolation path.  `0` disables.
    pub panic_every: u64,
    /// Per-program deterministic cancellation trip: every subgraph with
    /// enumeration index `>= N` is treated as deadline-expired.  Unlike a
    /// wall-clock deadline this trips at the same commit points on every
    /// run, so degraded output is byte-identical across thread counts.
    pub cancel_at_subgraph: Option<u64>,
    /// Deterministic enumeration trip: breadth-first subgraph enumeration
    /// stops before expanding level `N` (levels are 1-based set sizes, so
    /// `N = 2` keeps only singletons).
    pub cancel_at_level: Option<u64>,
}

/// SplitMix64 finalizer — decorrelates the seed/identity XOR so nearby
/// seeds pick unrelated fault sets.
fn mix(mut h: u64) -> u64 {
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// FNV-1a over the parts with a separator byte between them, the stable
/// identity hash every plan decision keys on (independent of call order).
pub fn stable_hash(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.as_bytes() {
            h = (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
        }
        h = (h ^ 0x1f).wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl FaultPlan {
    /// Whether read attempt `attempt` (0-based) of `segment` should fail
    /// with a synthetic transient error.
    pub fn store_read_fails(&self, _segment: &str, attempt: u32) -> bool {
        attempt < self.store_read_transient
    }

    /// Whether write attempt `attempt` (0-based) of `segment` should fail
    /// with a synthetic transient error.
    pub fn store_write_fails(&self, _segment: &str, attempt: u32) -> bool {
        attempt < self.store_write_transient
    }

    /// Whether the named store segment gets a record corrupted on read.
    pub fn corrupts_segment(&self, segment: &str) -> bool {
        self.corrupt_every > 0
            && mix(self.seed ^ stable_hash(&[segment])).is_multiple_of(self.corrupt_every)
    }

    /// Whether the subgraph closure for `arrays` of `program` should panic.
    pub fn panics_subgraph(&self, program: &str, arrays: &[String]) -> bool {
        if self.panic_every == 0 {
            return false;
        }
        let mut parts: Vec<&str> = vec![program];
        parts.extend(arrays.iter().map(String::as_str));
        mix(self.seed ^ stable_hash(&parts)).is_multiple_of(self.panic_every)
    }

    /// Whether the subgraph at enumeration `index` is cancelled by the plan.
    pub fn cancels_subgraph(&self, index: usize) -> bool {
        self.cancel_at_subgraph.is_some_and(|n| index as u64 >= n)
    }

    /// The enumeration level (set size) the plan refuses to expand, if any.
    pub fn level_cap(&self) -> Option<usize> {
        self.cancel_at_level.map(|l| l as usize)
    }
}

/// Parse a fault-plan string (`key=value` pairs, comma-separated).
///
/// Strictly validated in the spirit of [`rayon::parse_worker_threads`]: any
/// unknown key, malformed pair, duplicate key, or unparsable value rejects
/// the whole plan (`None`) rather than silently injecting a different plan;
/// `soap-cli` warns on stderr and runs fault-free.
pub fn parse_fault_plan(raw: &str) -> Option<FaultPlan> {
    let raw = raw.trim();
    if raw.is_empty() {
        return None;
    }
    let mut plan = FaultPlan::default();
    let mut seen: Vec<&str> = Vec::new();
    for pair in raw.split(',') {
        let (key, value) = pair.split_once('=')?;
        let (key, value) = (key.trim(), value.trim());
        if seen.contains(&key) {
            return None;
        }
        let parsed: u64 = value.parse().ok()?;
        match key {
            "seed" => plan.seed = parsed,
            "store_read_transient" => plan.store_read_transient = u32::try_from(parsed).ok()?,
            "store_write_transient" => plan.store_write_transient = u32::try_from(parsed).ok()?,
            "corrupt_every" => plan.corrupt_every = parsed,
            "panic_every" => plan.panic_every = parsed,
            "cancel_at_subgraph" => plan.cancel_at_subgraph = Some(parsed),
            "cancel_at_level" => plan.cancel_at_level = Some(parsed),
            _ => return None,
        }
        seen.push(key);
    }
    Some(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_plan() {
        let plan = parse_fault_plan(
            "seed=42, store_read_transient=1, store_write_transient=2, corrupt_every=7, \
             panic_every=11, cancel_at_subgraph=100, cancel_at_level=3",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.store_read_transient, 1);
        assert_eq!(plan.store_write_transient, 2);
        assert_eq!(plan.corrupt_every, 7);
        assert_eq!(plan.panic_every, 11);
        assert_eq!(plan.cancel_at_subgraph, Some(100));
        assert_eq!(plan.cancel_at_level, Some(3));
    }

    #[test]
    fn rejects_malformed_plans() {
        for bad in [
            "",
            "seed",
            "seed=",
            "seed=x",
            "seed=1,seed=2",
            "unknown=1",
            "seed=1,,panic_every=2",
            "seed=-1",
        ] {
            assert_eq!(parse_fault_plan(bad), None, "plan {bad:?}");
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_dependent() {
        let a = FaultPlan {
            seed: 1,
            corrupt_every: 2,
            panic_every: 2,
            ..FaultPlan::default()
        };
        let names: Vec<String> = (0..64).map(|i| format!("seg-{i}")).collect();
        let picks: Vec<bool> = names.iter().map(|n| a.corrupts_segment(n)).collect();
        // Deterministic across calls.
        assert_eq!(
            picks,
            names
                .iter()
                .map(|n| a.corrupts_segment(n))
                .collect::<Vec<_>>()
        );
        // Roughly one in two, and a different seed picks a different set.
        let hits = picks.iter().filter(|&&p| p).count();
        assert!(hits > 8 && hits < 56, "hits {hits}");
        let b = FaultPlan { seed: 2, ..a };
        assert_ne!(
            picks,
            names
                .iter()
                .map(|n| b.corrupts_segment(n))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn disabled_knobs_inject_nothing() {
        let plan = FaultPlan::default();
        assert!(!plan.store_read_fails("seg", 0));
        assert!(!plan.store_write_fails("seg", 0));
        assert!(!plan.corrupts_segment("seg"));
        assert!(!plan.panics_subgraph("prog", &["A".to_string()]));
        assert!(!plan.cancels_subgraph(0));
        assert_eq!(plan.level_cap(), None);
    }
}
