//! The differential reference of the bitset subgraph enumeration, shared by
//! the `soap-sdg` integration tests that compare against it.

use soap_sdg::Sdg;
use std::collections::BTreeSet;

/// The seed's string-set enumeration, kept as a slow reference.
///
/// Produces every connected subset up to `max_size`, capped at `max_count`,
/// as sorted name lists — semantically the set of subgraphs
/// `enumerate_connected_subgraphs` must reproduce (the differential tests
/// compare the two on chains, stars and dense random SDGs).  Unlike the fast
/// path it spends its time cloning `Vec<String>` sets into a `BTreeSet`,
/// which is exactly the behaviour the bitset rewrite removed.
pub fn enumerate_connected_subgraphs_naive(
    sdg: &Sdg,
    max_size: usize,
    max_count: usize,
) -> Vec<Vec<String>> {
    let computed: BTreeSet<String> = sdg.computed.iter().cloned().collect();
    let singletons: Vec<Vec<String>> = sdg.computed.iter().map(|a| vec![a.clone()]).collect();
    let mut seen: BTreeSet<Vec<String>> = singletons.iter().cloned().collect();
    let mut out: Vec<Vec<String>> = singletons.clone();
    let mut frontier = singletons;

    for _size in 2..=max_size {
        if frontier.is_empty() {
            break;
        }
        let mut next: Vec<Vec<String>> = Vec::new();
        'outer: for set in &frontier {
            let mut candidates: BTreeSet<String> = BTreeSet::new();
            for v in set {
                for n in sdg.neighbours(v) {
                    if computed.contains(&n) && !set.contains(&n) {
                        candidates.insert(n);
                    }
                }
            }
            for cand in candidates {
                let mut extended = set.clone();
                extended.push(cand);
                extended.sort();
                if seen.contains(&extended) {
                    continue;
                }
                if out.len() >= max_count {
                    break 'outer;
                }
                seen.insert(extended.clone());
                out.push(extended.clone());
                next.push(extended);
            }
        }
        frontier = next;
    }
    out
}
