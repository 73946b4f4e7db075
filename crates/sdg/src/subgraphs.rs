//! Enumeration of the SDG subgraphs to evaluate.
//!
//! The worst case is exponential (the paper notes scaling to ~35 statements in
//! practice); we restrict enumeration to *connected* subsets of computed
//! arrays (connectivity through shared read-only arrays counts, so the two
//! halves of `mvt` form a valid pair) up to a configurable size, plus every
//! singleton.  A hard cap on the total number of subgraphs keeps degenerate
//! cases (fully-connected SDGs of large networks) bounded.  A dropped subgraph
//! is a candidate missing from the Theorem-1 maximum, which could only raise
//! the bound, so when the cap drops one the analysis degrades and defers
//! every array, exactly as when a deadline stops enumeration.
//!
//! The enumeration runs entirely on dense bitmask sets ([`BitSet`] over
//! computed-array indices, see [`Sdg::computed_adjacency`]) with hash-based
//! deduplication; array names only reappear in the final conversion of the
//! results.  The seed's string-set algorithm is kept in the integration
//! tests (`tests/common/naive.rs`) as the differential-testing reference.
//!
//! ## Parallelism
//!
//! The breadth-first level expansion is parallelized over the frontier sets:
//! each level's *proposal* stage — per frontier set, the neighbourhood union,
//! the name-ordered candidate scan and the extended-set clones, which is
//! where all the time goes — runs on the shared worker pool (partitioned by
//! seed vertex at level 1, self-scheduled thereafter so one heavy seed
//! component cannot serialize a worker), while the cheap *commit* stage
//! (global dedup + count cap) replays the proposals sequentially in exactly
//! the serial discovery order.  The output — including which family survives
//! a truncating cap — is therefore byte-identical to a single-threaded run
//! for any thread count ([`rayon::worker_budget`]).

use crate::graph::Sdg;
use rayon::prelude::*;
use soap_bitset::BitSet;
use soap_symbolic::Deadline;
use std::collections::HashSet;

/// Below this many frontier sets a level is expanded serially: the per-level
/// thread-pool round trip costs more than the expansion itself.
const PARALLEL_FRONTIER_THRESHOLD: usize = 32;

/// Frontier sets per self-scheduled claim: proposal items are cheap (a few
/// bitset unions + clones), so claiming small blocks amortizes the shared
/// atomic without giving up balance under skew.
const FRONTIER_CHUNK: usize = 8;

/// The result of a subgraph enumeration.
#[derive(Clone, Debug)]
pub struct SubgraphEnumeration {
    /// Every enumerated connected subset, as sorted array-name lists.
    pub subgraphs: Vec<Vec<String>>,
    /// True iff at least one connected subset within the size limit was
    /// dropped because of the count cap.  Landing exactly on the cap without
    /// dropping anything does *not* count as truncation.
    pub truncated: bool,
    /// True iff the enumeration stopped early at a level boundary because a
    /// deadline expired or a plan-driven level cap tripped.  The subsets
    /// enumerated so far are complete and exactly the serial prefix; whole
    /// levels are simply missing.
    pub deadline_truncated: bool,
}

/// Enumerate connected subsets of the computed arrays of `sdg`, each of size
/// at most `max_size`, capped at `max_count` subsets (singletons are always
/// included and never dropped).
///
/// The enumeration is breadth-first over set size: level `k+1` is produced by
/// extending every level-`k` set with one neighbouring computed array.  The
/// result contains every connected subset up to the size/count limits exactly
/// once, and reports whether the cap actually dropped anything.
///
/// Discovery order matters only under truncation: extensions are tried in
/// array-*name* order (the seed iterated a `BTreeSet<String>` of candidates),
/// so the family that survives a cap is byte-identical to the seed's.
pub fn enumerate_connected_subgraphs(
    sdg: &Sdg,
    max_size: usize,
    max_count: usize,
) -> SubgraphEnumeration {
    enumerate_connected_subgraphs_governed(sdg, max_size, max_count, None, None)
}

/// [`enumerate_connected_subgraphs`] under a budget: the deadline (and the
/// fault plan's level cap) is checked once per breadth-first *level* — a
/// deterministic commit point — so an expiry never splits a level.  Every
/// level that starts, finishes; the enumerated family is always a serial
/// prefix of the full enumeration, and `deadline_truncated` reports whether
/// any level was abandoned.
pub fn enumerate_connected_subgraphs_governed(
    sdg: &Sdg,
    max_size: usize,
    max_count: usize,
    deadline: Option<&Deadline>,
    level_cap: Option<usize>,
) -> SubgraphEnumeration {
    let n = sdg.computed.len();
    let adj = sdg.computed_adjacency();
    let mut by_name: Vec<usize> = (0..n).collect();
    by_name.sort_by(|&a, &b| sdg.computed[a].cmp(&sdg.computed[b]));
    let singletons: Vec<BitSet> = (0..n).map(|i| BitSet::singleton(n, i)).collect();
    let mut seen: HashSet<BitSet> = singletons.iter().cloned().collect();
    let mut out: Vec<BitSet> = singletons.clone();
    let mut frontier = singletons;
    let mut truncated = false;
    let mut deadline_truncated = false;

    let mut candidates = BitSet::new(n);
    for size in 2..=max_size {
        if frontier.is_empty() || truncated {
            break;
        }
        // Budget check at the level boundary: stopping here keeps the output
        // an exact serial prefix (whole levels only), so a plan-driven level
        // cap gives byte-identical degraded results for any thread count.
        if level_cap.is_some_and(|cap| size >= cap) || deadline.is_some_and(|d| d.expired()) {
            deadline_truncated = true;
            break;
        }
        // Proposal stage: per frontier set, every one-vertex extension in
        // array-name order, pre-filtered against the *frozen* pre-level `seen`
        // (duplicates produced within this level are caught at commit time).
        let propose = |set: &BitSet| -> Vec<BitSet> {
            // All computed neighbours of the current set, minus the set.
            let mut candidates = BitSet::new(n);
            for v in set.iter() {
                candidates.union_with(&adj[v]);
            }
            candidates.subtract(set);
            let mut exts = Vec::new();
            for cand in by_name.iter().copied().filter(|&c| candidates.contains(c)) {
                let mut extended = set.clone();
                extended.insert(cand);
                if !seen.contains(&extended) {
                    exts.push(extended);
                }
            }
            exts
        };
        let proposals: Vec<Vec<BitSet>> =
            if frontier.len() >= PARALLEL_FRONTIER_THRESHOLD && rayon::worker_budget() > 1 {
                frontier
                    .par_iter()
                    .with_min_len(FRONTIER_CHUNK)
                    .map(propose)
                    .collect()
            } else {
                // Serial expansion, reusing one candidate buffer across sets.
                frontier
                    .iter()
                    .map(|set| {
                        candidates.clear();
                        for v in set.iter() {
                            candidates.union_with(&adj[v]);
                        }
                        candidates.subtract(set);
                        let mut exts = Vec::new();
                        for cand in by_name.iter().copied().filter(|&c| candidates.contains(c)) {
                            let mut extended = set.clone();
                            extended.insert(cand);
                            if !seen.contains(&extended) {
                                exts.push(extended);
                            }
                        }
                        exts
                    })
                    .collect()
            };
        // Commit stage: replay the proposals in frontier order — exactly the
        // serial discovery order — applying global dedup and the count cap.
        let mut next: Vec<BitSet> = Vec::new();
        'outer: for exts in proposals {
            for extended in exts {
                if seen.contains(&extended) {
                    continue;
                }
                if out.len() >= max_count {
                    // A genuinely new subset exists beyond the cap.
                    truncated = true;
                    break 'outer;
                }
                seen.insert(extended.clone());
                out.push(extended.clone());
                next.push(extended);
            }
        }
        frontier = next;
    }

    let subgraphs = out
        .iter()
        .map(|set| {
            let mut names: Vec<String> = set.iter().map(|i| sdg.computed[i].clone()).collect();
            names.sort();
            names
        })
        .collect();
    SubgraphEnumeration {
        subgraphs,
        truncated,
        deadline_truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soap_ir::ProgramBuilder;

    fn chain(n: usize) -> Sdg {
        // A chain of n statements: B1 = f(A0), B2 = f(B1), ...
        let mut b = ProgramBuilder::new("chain");
        for s in 0..n {
            let src = if s == 0 {
                "A0".to_string()
            } else {
                format!("B{}", s)
            };
            let dst = format!("B{}", s + 1);
            b = b.statement(move |st| {
                st.loops(&[("i", "0", "N")])
                    .write(&dst, "i")
                    .read(&src, "i")
            });
        }
        Sdg::from_program(&b.build().unwrap())
    }

    #[test]
    fn singletons_are_always_present() {
        let sdg = chain(4);
        let subs = enumerate_connected_subgraphs(&sdg, 1, 1000);
        assert_eq!(subs.subgraphs.len(), 4);
        assert!(!subs.truncated);
    }

    #[test]
    fn chain_has_contiguous_windows() {
        // Connected subsets of a path graph are exactly its contiguous windows:
        // n singletons + (n-1) pairs + (n-2) triples ... up to max_size.
        let sdg = chain(5);
        let subs = enumerate_connected_subgraphs(&sdg, 3, 10_000).subgraphs;
        let singles = subs.iter().filter(|s| s.len() == 1).count();
        let pairs = subs.iter().filter(|s| s.len() == 2).count();
        let triples = subs.iter().filter(|s| s.len() == 3).count();
        assert_eq!(singles, 5);
        assert_eq!(pairs, 4);
        assert_eq!(triples, 3);
    }

    #[test]
    fn no_duplicate_subsets() {
        let sdg = chain(6);
        let subs = enumerate_connected_subgraphs(&sdg, 4, 10_000).subgraphs;
        let mut seen = std::collections::BTreeSet::new();
        for s in &subs {
            assert!(seen.insert(s.clone()), "duplicate subset {s:?}");
        }
    }

    #[test]
    fn cap_limits_output() {
        let sdg = chain(30);
        let subs = enumerate_connected_subgraphs(&sdg, 8, 50);
        assert!(subs.subgraphs.len() <= 50);
        assert!(subs.truncated);
        assert!(!enumerate_connected_subgraphs(&sdg, 2, 10_000).truncated);
    }

    #[test]
    fn exact_cap_landing_is_not_truncation() {
        // chain(5) with max_size 2 has exactly 5 + 4 = 9 connected subsets.
        let sdg = chain(5);
        let exact = enumerate_connected_subgraphs(&sdg, 2, 9);
        assert_eq!(exact.subgraphs.len(), 9);
        assert!(
            !exact.truncated,
            "landing exactly on the cap without dropping anything must not report truncation"
        );
        let short = enumerate_connected_subgraphs(&sdg, 2, 8);
        assert_eq!(short.subgraphs.len(), 8);
        assert!(short.truncated, "one pair was genuinely dropped");
    }

    #[test]
    fn governed_level_cap_keeps_a_serial_prefix() {
        let sdg = chain(5);
        let full = enumerate_connected_subgraphs(&sdg, 3, 10_000);
        assert!(!full.deadline_truncated);
        let capped = enumerate_connected_subgraphs_governed(&sdg, 3, 10_000, None, Some(2));
        assert!(capped.deadline_truncated);
        // cancel_at_level=2 keeps only the singletons — an exact serial prefix.
        assert_eq!(capped.subgraphs, full.subgraphs[..5].to_vec());
        let cap3 = enumerate_connected_subgraphs_governed(&sdg, 3, 10_000, None, Some(3));
        assert!(cap3.deadline_truncated);
        assert_eq!(cap3.subgraphs, full.subgraphs[..9].to_vec());
    }

    #[test]
    fn governed_deadline_stops_at_a_level_boundary() {
        let sdg = chain(5);
        let expired = Deadline::never();
        expired.cancel();
        let got = enumerate_connected_subgraphs_governed(&sdg, 3, 10_000, Some(&expired), None);
        assert!(got.deadline_truncated);
        assert_eq!(got.subgraphs.len(), 5, "singletons always survive");
        let live = Deadline::never();
        let ungoverned = enumerate_connected_subgraphs(&sdg, 3, 10_000);
        let governed = enumerate_connected_subgraphs_governed(&sdg, 3, 10_000, Some(&live), None);
        assert!(!governed.deadline_truncated);
        assert_eq!(governed.subgraphs, ungoverned.subgraphs);
    }

    #[test]
    fn star_topology_through_shared_input() {
        // Two independent consumers of the same read-only array are adjacent.
        let p = ProgramBuilder::new("star")
            .statement(|st| st.loops(&[("i", "0", "N")]).write("B", "i").read("A", "i"))
            .statement(|st| st.loops(&[("i", "0", "N")]).write("C", "i").read("A", "i"))
            .build()
            .unwrap();
        let sdg = Sdg::from_program(&p);
        let subs = enumerate_connected_subgraphs(&sdg, 2, 100).subgraphs;
        assert!(subs.contains(&vec!["B".to_string(), "C".to_string()]));
    }
}
