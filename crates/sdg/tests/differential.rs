//! Differential tests: the bitset subgraph enumeration must produce exactly
//! the same connected-subset families as the retained naive string-set
//! reference, on every topology class the analysis meets.

use soap_ir::{Program, ProgramBuilder};
use soap_sdg::subgraphs::enumerate_connected_subgraphs;
use soap_sdg::Sdg;

#[path = "common/naive.rs"]
mod naive;
use naive::enumerate_connected_subgraphs_naive;

/// Deterministic xorshift64* generator so the "random" SDGs are reproducible.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish value in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn assert_same_families(sdg: &Sdg, max_size: usize, context: &str) {
    // A cap large enough that neither implementation truncates.
    let cap = 1_000_000;
    let fast = enumerate_connected_subgraphs(sdg, max_size, cap);
    assert!(!fast.truncated, "{context}: unexpected truncation");
    let naive = enumerate_connected_subgraphs_naive(sdg, max_size, cap);
    let mut fast_sets = fast.subgraphs;
    let mut naive_sets = naive;
    fast_sets.sort();
    naive_sets.sort();
    assert_eq!(
        fast_sets, naive_sets,
        "{context}: bitset enumeration diverged from the naive reference"
    );
}

fn chain(k: usize) -> Program {
    let mut b = ProgramBuilder::new(format!("chain{k}"));
    for s in 0..k {
        let src = if s == 0 {
            "A0".to_string()
        } else {
            format!("T{s}")
        };
        let dst = format!("T{}", s + 1);
        b = b.statement(move |st| {
            st.loops(&[("i", "0", "N")])
                .write(&dst, "i")
                .read(&src, "i")
        });
    }
    b.build().expect("chain builds")
}

/// `k` consumers of one shared read-only array: a star through the input,
/// which makes every pair of computed arrays adjacent.
fn star(k: usize) -> Program {
    let mut b = ProgramBuilder::new(format!("star{k}"));
    for s in 0..k {
        let dst = format!("D{s}");
        b = b.statement(move |st| st.loops(&[("i", "0", "N")]).write(&dst, "i").read("A", "i"));
    }
    b.build().expect("star builds")
}

/// A random DAG over `k` computed arrays: statement `s` reads a random
/// non-empty subset of earlier computed arrays (or the external input `A`).
fn random_dag(k: usize, edge_bias: u64, seed: u64) -> Program {
    let mut rng = XorShift(seed | 1);
    let mut b = ProgramBuilder::new(format!("rand{k}_{seed}"));
    for s in 0..k {
        let mut sources: Vec<String> = Vec::new();
        for earlier in 0..s {
            if rng.below(100) < edge_bias {
                sources.push(format!("R{earlier}"));
            }
        }
        if sources.is_empty() {
            sources.push(if s == 0 {
                "A".to_string()
            } else {
                format!("R{}", rng.below(s as u64))
            });
        }
        let dst = format!("R{s}");
        b = b.statement(move |st| {
            let mut st = st.loops(&[("i", "0", "N")]).write(&dst, "i");
            for src in &sources {
                st = st.read(src, "i");
            }
            st
        });
    }
    b.build().expect("random DAG builds")
}

#[test]
fn chains_match_naive_reference() {
    for k in [1usize, 2, 5, 12, 35] {
        let sdg = Sdg::from_program(&chain(k));
        assert_same_families(&sdg, 4, &format!("chain({k})"));
    }
}

#[test]
fn stars_match_naive_reference() {
    for k in [2usize, 5, 9] {
        let sdg = Sdg::from_program(&star(k));
        assert_same_families(&sdg, 3, &format!("star({k})"));
    }
}

#[test]
fn dense_random_sdgs_match_naive_reference() {
    for (k, bias, seed) in [
        (6usize, 60u64, 7u64),
        (8, 45, 11),
        (10, 35, 23),
        (12, 70, 5),
    ] {
        let sdg = Sdg::from_program(&random_dag(k, bias, seed));
        assert_same_families(&sdg, 3, &format!("random_dag({k}, {bias}%, seed {seed})"));
    }
}

#[test]
fn sparse_random_sdgs_match_naive_reference_at_larger_sizes() {
    for (k, bias, seed) in [(14usize, 12u64, 3u64), (18, 8, 17)] {
        let sdg = Sdg::from_program(&random_dag(k, bias, seed));
        assert_same_families(&sdg, 5, &format!("random_dag({k}, {bias}%, seed {seed})"));
    }
}

#[test]
fn truncated_enumeration_keeps_the_seed_capped_family() {
    // Under a cap the surviving family is order-dependent; the fast path must
    // keep exactly the family the seed algorithm kept (name-ordered
    // discovery), so capped analyses report the same bound as before.
    let sdg = Sdg::from_program(&star(9));
    let full: std::collections::BTreeSet<Vec<String>> =
        enumerate_connected_subgraphs(&sdg, 3, 1_000_000)
            .subgraphs
            .into_iter()
            .collect();
    let capped = enumerate_connected_subgraphs(&sdg, 3, 20);
    assert!(capped.truncated);
    assert_eq!(capped.subgraphs.len(), 20);
    for set in &capped.subgraphs {
        assert!(
            full.contains(set),
            "capped result {set:?} not in full family"
        );
    }
    let singletons = capped.subgraphs.iter().filter(|s| s.len() == 1).count();
    assert_eq!(singletons, 9, "singletons must never be dropped");
}

#[test]
fn truncated_families_are_identical_to_naive_across_topologies_and_caps() {
    for program in [star(9), random_dag(14, 45, 13), chain(20)] {
        let sdg = Sdg::from_program(&program);
        for cap in [15usize, 20, 40, 60] {
            let fast = enumerate_connected_subgraphs(&sdg, 4, cap);
            let naive = enumerate_connected_subgraphs_naive(&sdg, 4, cap);
            let mut fast_sets = fast.subgraphs;
            let mut naive_sets = naive;
            fast_sets.sort();
            naive_sets.sort();
            assert_eq!(
                fast_sets, naive_sets,
                "{}: capped family diverged from the seed at cap {cap}",
                program.name
            );
        }
    }
}

#[test]
fn dense_adjacency_matches_neighbours() {
    // The dense masks the fast path iterates must agree with the public
    // string-based neighbour relation on every vertex.
    for program in [chain(8), star(6), random_dag(10, 40, 41)] {
        let sdg = Sdg::from_program(&program);
        let adj = sdg.computed_adjacency();
        for (i, array) in sdg.computed.iter().enumerate() {
            let mut from_names: Vec<usize> = sdg
                .neighbours(array)
                .into_iter()
                .filter_map(|n| sdg.computed_index_of(&n))
                .collect();
            from_names.sort_unstable();
            let from_mask: Vec<usize> = adj[i].iter().collect();
            assert_eq!(
                from_mask, from_names,
                "adjacency mismatch for {array} in {}",
                program.name
            );
        }
    }
}
