//! A bit-exact text dump of one analysis, shared by the `soap-sdg`
//! integration tests that compare analyses run different ways.

use soap_sdg::ProgramAnalysis;
use std::fmt::Write as _;

/// Every result field of one analysis — floats as raw bits, and every `Expr`
/// also as its variant tree, so two analyses whose bounds print alike but are
/// built differently still differ — without the run's timings and
/// solver/cache accounting, which measure the run, not the input.
pub fn dump(a: &ProgramAnalysis) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "program {}", a.name);
    let _ = writeln!(out, "bound {}", a.bound);
    let _ = writeln!(
        out,
        "degraded {} deferred {}",
        a.degraded, a.arrays_deferred
    );
    for b in &a.per_array {
        let _ = writeln!(
            out,
            "array {} |A|={} rho={} sigma={:?} via={:?} bound={}",
            b.array, b.vertex_count, b.rho, b.sigma, b.best_subgraph, b.bound
        );
    }
    for s in &a.subgraphs {
        let i = &s.intensity;
        let _ = writeln!(
            out,
            "subgraph {:?} model={} sigma={:?} chi={:016x} rho={} x0={:?} rho_ref={:016x}",
            s.arrays,
            i.name,
            i.sigma,
            i.chi_coeff.to_bits(),
            i.rho,
            i.x0.as_ref().map(|e| e.to_string()),
            s.rho_ref.to_bits()
        );
        for ((name, e), (coeff_name, c)) in i.tile_exponents.iter().zip(&i.tile_coeffs) {
            let _ = writeln!(
                out,
                "  tile {name} exp={e:?} {coeff_name} coeff={:016x}",
                c.to_bits()
            );
        }
    }
    for n in &a.notes {
        let _ = writeln!(out, "note {n}");
    }
    let array_trees: Vec<_> = a.per_array.iter().map(|b| (&b.rho, &b.bound)).collect();
    let subgraph_trees: Vec<_> = a
        .subgraphs
        .iter()
        .map(|s| (&s.intensity.rho, &s.intensity.x0))
        .collect();
    let _ = writeln!(
        out,
        "trees {:?} {array_trees:?} {subgraph_trees:?}",
        a.bound
    );
    out
}
