//! Differential tests pinning the compiled solver path (analytic gradients,
//! Newton projection, canonical-key cache) against the retained `Expr`-eval
//! reference: for every merged subgraph model of a set of representative
//! programs, the *analysis outputs* — σ, the symbolic intensity ρ(S), X₀ and
//! the tile-shape exponents — must be byte-identical between the two paths
//! (the numeric trajectories differ in the last ulps; the rational/closed-form
//! snapping must absorb that entirely), and the whole-program bound must be
//! byte-identical run-to-run with the cache in play.

use soap_core::{solve_model, solve_model_reference, AnalysisOptions};
use soap_ir::{Program, ProgramBuilder};
use soap_sdg::subgraphs::enumerate_connected_subgraphs;
use soap_sdg::{analyze_program, merged_model, Sdg, SdgOptions, SolveCache};

#[path = "common/fixtures.rs"]
mod fixtures;
use fixtures::chain_of_matmuls;

fn atax() -> Program {
    ProgramBuilder::new("atax")
        .statement(|st| {
            st.loops(&[("i", "0", "N"), ("j", "0", "M")])
                .update("tmp", "i")
                .read("A", "i,j")
                .read("x", "j")
        })
        .statement(|st| {
            st.loops(&[("i", "0", "N"), ("j", "0", "M")])
                .update("y", "j")
                .read("A", "i,j")
                .read("tmp", "i")
        })
        .build()
        .unwrap()
}

fn figure2() -> Program {
    ProgramBuilder::new("figure2")
        .statement(|st| {
            st.loops(&[("i", "0", "N"), ("j", "0", "M")])
                .write("C", "i,j")
                .read_multi("A", &["i", "i+1"])
                .read_multi("B", &["j", "j+1"])
        })
        .statement(|st| {
            st.loops(&[("i", "0", "N"), ("j", "0", "K"), ("k", "0", "M")])
                .update("E", "i,j")
                .read("C", "i,k")
                .read("D", "k,j")
        })
        .build()
        .unwrap()
}

fn jacobi_like() -> Program {
    ProgramBuilder::new("jacobi")
        .statement(|st| {
            st.loops(&[("t", "0", "T"), ("i", "1", "N")])
                .write("A", "i,t+1")
                .read_multi("A", &["i-1,t", "i,t", "i+1,t"])
        })
        .build()
        .unwrap()
}

/// `k` independent bert-attention-style blocks: each block's two matmuls read
/// the same input `X_s`, so the merged pair model `{K_s,Q_s}` carries a
/// conservative-union `max` over the two (differently-unified) Lemma-3 sizes
/// — and all `k` pair models are renamed-isomorphic max-form models.
fn union_chain(k: usize) -> Program {
    let mut b = ProgramBuilder::new(format!("union_chain{k}"));
    for s in 0..k {
        let (x, w, v) = (format!("X{s}"), format!("W{s}"), format!("V{s}"));
        let (kk, q) = (format!("K{s}"), format!("Q{s}"));
        let xa = x.clone();
        b = b
            .statement(move |st| {
                st.loops(&[("i", "0", "N"), ("j", "0", "N"), ("k", "0", "N")])
                    .update(&kk, "i,j")
                    .read(&xa, "i,k")
                    .read(&w, "k,j")
            })
            .statement(move |st| {
                st.loops(&[("i", "0", "N"), ("j", "0", "N"), ("k", "0", "N")])
                    .update(&q, "i,j")
                    .read(&x, "i,k")
                    .read(&v, "k,j")
            });
    }
    b.build().expect("union chain builds")
}

/// Every merged subgraph model of `program`: the compiled and reference
/// solver paths must produce byte-identical snapped outputs.
fn assert_models_differentially_identical(program: &Program) {
    let sdg = Sdg::from_program(program);
    let subgraphs = enumerate_connected_subgraphs(&sdg, 3, 512).subgraphs;
    let opts = AnalysisOptions::default();
    let mut compared = 0usize;
    for arrays in &subgraphs {
        let Ok(model) = merged_model(program, arrays, &opts) else {
            continue;
        };
        let fast = solve_model(&model, None, None).0;
        let slow = solve_model_reference(&model);
        match (fast, slow) {
            (Ok(fast), Ok(slow)) => {
                compared += 1;
                let ctx = format!("{}::{arrays:?}", program.name);
                assert_eq!(fast.sigma, slow.sigma, "{ctx}: σ diverged");
                assert_eq!(
                    format!("{}", fast.rho),
                    format!("{}", slow.rho),
                    "{ctx}: ρ diverged"
                );
                assert_eq!(
                    fast.x0.as_ref().map(|e| format!("{e}")),
                    slow.x0.as_ref().map(|e| format!("{e}")),
                    "{ctx}: X₀ diverged"
                );
                assert_eq!(
                    fast.tile_exponents, slow.tile_exponents,
                    "{ctx}: tile exponents diverged"
                );
            }
            (fast, slow) => {
                assert_eq!(
                    fast.is_ok(),
                    slow.is_ok(),
                    "{}::{arrays:?}: one path failed where the other succeeded",
                    program.name
                );
            }
        }
    }
    assert!(compared > 0, "{}: no models compared", program.name);
}

#[test]
fn compiled_solver_outputs_are_byte_identical_to_the_reference() {
    for program in [
        chain_of_matmuls(6),
        atax(),
        figure2(),
        jacobi_like(),
        union_chain(4),
    ] {
        assert_models_differentially_identical(&program);
    }
}

/// The whole-program bound (cache in play, parallel solve order arbitrary)
/// must be reproducible byte-for-byte across runs, and identical to the
/// bound obtained from an analysis of a renamed-but-isomorphic program
/// modulo the renaming of the size parameters (here: same parameter names,
/// so literally identical).
#[test]
fn analysis_bound_is_deterministic_under_the_cache() {
    for program in [chain_of_matmuls(8), atax(), figure2(), union_chain(8)] {
        let opts = SdgOptions {
            max_subgraph_size: 3,
            max_subgraphs: 512,
            ..SdgOptions::default()
        };
        let first =
            analyze_program(&program, &opts, &SolveCache::new(), None).expect("analysis succeeds");
        for _ in 0..3 {
            let again = analyze_program(&program, &opts, &SolveCache::new(), None)
                .expect("analysis succeeds");
            assert_eq!(
                format!("{}", first.bound),
                format!("{}", again.bound),
                "{}: bound not reproducible",
                program.name
            );
            for (a, b) in first.per_array.iter().zip(&again.per_array) {
                assert_eq!(a.array, b.array);
                assert_eq!(a.sigma, b.sigma, "{}: σ of {}", program.name, a.array);
                assert_eq!(
                    format!("{}", a.rho),
                    format!("{}", b.rho),
                    "{}: ρ of {}",
                    program.name,
                    a.array
                );
            }
        }
    }
}

/// The chain cache accounting: a 35-link chain has hundreds of isomorphic
/// merged models but only a handful of distinct structures.
#[test]
fn chain_cache_collapses_isomorphic_models() {
    let program = chain_of_matmuls(35);
    let opts = SdgOptions {
        max_subgraph_size: 3,
        max_subgraphs: 512,
        ..SdgOptions::default()
    };
    let analysis =
        analyze_program(&program, &opts, &SolveCache::new(), None).expect("analysis succeeds");
    let s = analysis.solver;
    assert_eq!(s.subgraphs_enumerated, 102);
    assert!(
        s.cache_hits >= 90,
        "expected ≥90 cache hits on the chain, got {}",
        s.cache_hits
    );
    assert!(
        s.cache_misses <= 6,
        "expected ≤6 distinct structures, got {} misses",
        s.cache_misses
    );
    assert_eq!(s.merge_failures + s.solve_failures, 0);
    assert_eq!(s.kkt_cap_hits, 0, "a chain solve exhausted its budget");
}

/// Max-form models participate in the cache: the union chain's `k` merged
/// pair models are renamed-isomorphic max models, so all but the first hit —
/// under `par_iter`, with the accounting still exact.
#[test]
fn union_chain_max_models_hit_the_cache() {
    let program = union_chain(12);
    let analysis = analyze_program(&program, &SdgOptions::default(), &SolveCache::new(), None)
        .expect("analysis");
    let s = analysis.solver;
    assert_eq!(s.uncacheable, 0, "max models must be cacheable now");
    assert!(
        s.max_cache_hits >= 11,
        "expected ≥11 max-form hits (12 isomorphic union-pair models), got {}",
        s.max_cache_hits
    );
    assert_eq!(
        s.max_cache_misses, 1,
        "expected exactly one distinct max structure, got {}",
        s.max_cache_misses
    );
    assert_eq!(s.merge_failures + s.solve_failures, 0);
    assert_eq!(s.kkt_cap_hits, 0, "a union solve exhausted its budget");
}

/// No fixture program may exhaust the KKT iteration budget: the trust-region
/// step must converge well before the cap on every merged model.
#[test]
fn no_fixture_program_hits_the_kkt_cap() {
    for program in [
        chain_of_matmuls(8),
        atax(),
        figure2(),
        jacobi_like(),
        union_chain(6),
    ] {
        let analysis = analyze_program(&program, &SdgOptions::default(), &SolveCache::new(), None)
            .expect("analysis succeeds");
        assert_eq!(
            analysis.solver.kkt_cap_hits, 0,
            "{}: solves exhausted the iteration budget",
            program.name
        );
    }
}
