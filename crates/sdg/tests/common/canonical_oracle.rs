//! The `Expr`-compiling canonicalization: the reference the row-based
//! `canonicalize` must match.  It compiles an [`AccessModel`]'s objective
//! and dominator (expanding them) and orders the variables with the
//! signature refinement that allocates a fresh `Vec<Signature>` per round;
//! the key it builds from those must equal the production key of the
//! row-built model, and its variable order the production order.
//!
//! Included by path from the solve cache's unit tests; the canonical key
//! types are crate-private, so no integration test can include it.

use super::{
    CanonicalAtom, CanonicalDominator, CanonicalKey, CanonicalMaxTerm, CanonicalModel, CanonicalRow,
};
use soap_core::AccessModel;
use soap_symbolic::{CompiledConstraint, CompiledPosynomial, MaxPosynomial, Rational};

/// Compute the canonical form of a model.
///
/// Returns `None` when the model is not cacheable: an objective/dominator
/// outside (max-)posynomial form, or a non-empty `access_index_sets` (the
/// exact-LP cross-check depends on data outside the matrices, so such models
/// are solved directly).
pub fn canonicalize(model: &AccessModel) -> Option<CanonicalModel> {
    if !model.access_index_sets.is_empty() {
        return None;
    }
    let vars = &model.tile_variables;
    let obj = CompiledPosynomial::compile(&model.objective, vars)?;
    let (order, dominator) = match CompiledConstraint::compile(&model.dominator, vars)? {
        CompiledConstraint::Pure(dom) => {
            let order = canonical_variable_order(&[(0u8, &obj), (1u8, &dom)], vars.len());
            let dominator = CanonicalDominator::Pure(permuted_rows(&dom, &order));
            (order, dominator)
        }
        CompiledConstraint::Mixed(dom) => {
            let order = max_variable_order(&obj, &dom, vars.len());
            let dominator = canonical_max_dominator(&dom, &order);
            (order, dominator)
        }
    };
    let key = CanonicalKey {
        n_vars: vars.len(),
        objective: permuted_rows(&obj, &order),
        dominator,
    };
    Some(CanonicalModel { key, order })
}

/// Canonical variable order for a max-form model: the objective (tag 0) and
/// the dominator's monomial-part matrix (tag 1) refine like the pure case;
/// every atom branch contributes under one shared tag (2) — the branch
/// *multiset* is renaming-invariant even though branch order is not, so
/// pooling the branches keeps the order invariant under renaming (pooling
/// can only cost hits, never correctness: the full structure is in the key).
fn max_variable_order(obj: &CompiledPosynomial, dom: &MaxPosynomial, n_vars: usize) -> Vec<usize> {
    let mono = dom.monomial_part();
    let mut polys: Vec<(u8, &CompiledPosynomial)> = vec![(0u8, obj), (1u8, &mono)];
    for j in 0..dom.n_atoms() {
        for branch in dom.atom_branches(j) {
            polys.push((2u8, branch));
        }
    }
    canonical_variable_order(&polys, n_vars)
}

/// Canonicalize a max-form dominator under the given variable order: branch
/// matrices are permuted and sorted within each atom, atoms are sorted (and
/// re-indexed) by their canonical form, each term's atom list is remapped and
/// sorted, and finally the term rows are sorted.
fn canonical_max_dominator(dom: &MaxPosynomial, order: &[usize]) -> CanonicalDominator {
    let canon_atoms: Vec<CanonicalAtom> = (0..dom.n_atoms())
        .map(|j| {
            let mut branches: Vec<Vec<CanonicalRow>> = dom
                .atom_branches(j)
                .iter()
                .map(|b| permuted_rows(b, order))
                .collect();
            branches.sort();
            CanonicalAtom {
                is_min: dom.atom_is_min(j),
                branches,
            }
        })
        .collect();
    // Sort atom indices by canonical form; equal atoms are interchangeable,
    // so their relative order cannot affect the key.
    let mut atom_perm: Vec<usize> = (0..canon_atoms.len()).collect();
    atom_perm.sort_by(|&a, &b| canon_atoms[a].cmp(&canon_atoms[b]));
    let mut atom_rank = vec![0u32; canon_atoms.len()];
    for (new_idx, &old_idx) in atom_perm.iter().enumerate() {
        atom_rank[old_idx] = new_idx as u32;
    }
    let atoms: Vec<CanonicalAtom> = atom_perm.iter().map(|&j| canon_atoms[j].clone()).collect();
    let mut terms: Vec<CanonicalMaxTerm> = (0..dom.n_terms())
        .map(|k| {
            let row = dom.exponent_row(k);
            let permuted: Vec<i16> = order.iter().map(|&t| row[t]).collect();
            let mut atom_ids: Vec<u32> = dom
                .term_atom_indices(k)
                .iter()
                .map(|&j| atom_rank[j as usize])
                .collect();
            atom_ids.sort_unstable();
            (permuted, dom.rational_coeff(k), atom_ids)
        })
        .collect();
    terms.sort();
    CanonicalDominator::Max { terms, atoms }
}

/// A variable's signature: a sortable value that is invariant under variable
/// renaming, refined over rounds.  Each entry describes one occurrence of the
/// variable in a term: `(polynomial tag, own exponent, coefficient, sorted
/// co-occurring (signature-rank, exponent) pairs)`.
type Signature = Vec<(u8, i16, Rational, Vec<(usize, i16)>)>;

/// Order the variables canonically by iterated signature refinement.
///
/// Round 0 ranks variables by their raw occurrence profile; each subsequent
/// round re-ranks them using the previous ranks of the co-occurring variables
/// in every term, until the ranking reaches a fixed point (rank information
/// can take several rounds to propagate through chained statement blocks —
/// bert's 12-variable merged attention models need four).  Any remaining ties
/// are broken by original index, which can only cost cache hits, never
/// correctness (the full matrices are in the key).
fn canonical_variable_order(polys: &[(u8, &CompiledPosynomial)], n_vars: usize) -> Vec<usize> {
    let mut ranks: Vec<usize> = vec![0; n_vars];
    for _round in 0..n_vars.max(2) {
        let prev_ranks = ranks.clone();
        let mut sigs: Vec<Signature> = vec![Vec::new(); n_vars];
        for &(tag, poly) in polys {
            for k in 0..poly.n_terms() {
                let row = poly.exponent_row(k);
                let coeff = poly.rational_coeff(k);
                for (t, &e) in row.iter().enumerate() {
                    if e == 0 {
                        continue;
                    }
                    let mut others: Vec<(usize, i16)> = row
                        .iter()
                        .enumerate()
                        .filter(|&(u, &eu)| u != t && eu != 0)
                        .map(|(u, &eu)| (ranks[u], eu))
                        .collect();
                    others.sort_unstable();
                    sigs[t].push((tag, e, coeff, others));
                }
            }
        }
        for sig in &mut sigs {
            sig.sort();
        }
        // Re-rank: equal signatures share a rank.
        let mut sorted: Vec<usize> = (0..n_vars).collect();
        sorted.sort_by(|&a, &b| sigs[a].cmp(&sigs[b]));
        let mut next_rank = 0;
        for (i, &t) in sorted.iter().enumerate() {
            if i > 0 && sigs[t] != sigs[sorted[i - 1]] {
                next_rank = i;
            }
            ranks[t] = next_rank;
        }
        if ranks == prev_ranks {
            break;
        }
    }
    let mut order: Vec<usize> = (0..n_vars).collect();
    // Stable on original index for tied ranks.
    order.sort_by_key(|&t| ranks[t]);
    order
}

/// Permute the columns of a compiled posynomial to the canonical order and
/// sort the term rows.
fn permuted_rows(poly: &CompiledPosynomial, order: &[usize]) -> Vec<CanonicalRow> {
    let mut rows: Vec<CanonicalRow> = (0..poly.n_terms())
        .map(|k| {
            let row = poly.exponent_row(k);
            let permuted: Vec<i16> = order.iter().map(|&t| row[t]).collect();
            (permuted, poly.rational_coeff(k))
        })
        .collect();
    rows.sort();
    rows
}
