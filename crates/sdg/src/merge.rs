//! Construction of the *subgraph SOAP statement* `St_H` (Definition 6) as an
//! [`AccessModel`].
//!
//! Given a subgraph `H` of computed arrays, the statements writing arrays in
//! `H` are fused: their iteration variables are unified through the
//! producer→consumer array subscripts (`C[i,j]` written by `St1` and read as
//! `C[i,k]` by `St2` identifies `St1.j ↔ St2.k`), reads of arrays inside `H`
//! by *other* statements are dropped (they may be recomputed or reused inside
//! the subcomputation), and the remaining access sets form the dominator of
//! the merged optimization problem.

use soap_core::access_size::{corollary1_size, lemma3_size, tile_var, update_output_size};
use soap_core::projections::provably_disjoint;
use soap_core::{AccessModel, AnalysisError, AnalysisOptions};
use soap_ir::{AccessComponent, ArrayAccess, LinIndex, Program, Statement};
use soap_symbolic::Expr;
use std::collections::{BTreeMap, BTreeSet};

/// An index-based union-find with union by rank and path halving, over the
/// dense numbering of every statement's loop variables (see [`VarIndex`]).
struct VarUnion {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl VarUnion {
    fn new(n: usize) -> VarUnion {
        VarUnion {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            // Path halving: point every visited node at its grandparent.
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        match self.rank[ra as usize].cmp(&self.rank[rb as usize]) {
            std::cmp::Ordering::Less => self.parent[ra as usize] = rb,
            std::cmp::Ordering::Greater => self.parent[rb as usize] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb as usize] = ra;
                self.rank[ra as usize] += 1;
            }
        }
    }
}

/// Dense numbering of `(statement index, loop variable)` pairs, so the
/// union-find runs on integers instead of cloned string keys.
struct VarIndex {
    per_stmt: Vec<Vec<String>>,
    offsets: Vec<u32>,
}

impl VarIndex {
    fn new(stmts: &[&Statement]) -> VarIndex {
        let per_stmt: Vec<Vec<String>> = stmts.iter().map(|s| s.loop_variables()).collect();
        let mut offsets = Vec::with_capacity(per_stmt.len());
        let mut total = 0u32;
        for vars in &per_stmt {
            offsets.push(total);
            total += vars.len() as u32;
        }
        VarIndex { per_stmt, offsets }
    }

    fn len(&self) -> usize {
        self.per_stmt.iter().map(Vec::len).sum()
    }

    /// The dense id of `(stmt, var)`; `None` for names that are not loop
    /// variables of the statement (constant subscript symbols).
    fn id(&self, stmt: usize, var: &str) -> Option<u32> {
        self.per_stmt[stmt]
            .iter()
            .position(|v| v == var)
            .map(|p| self.offsets[stmt] + p as u32)
    }

    /// Inverse mapping: dense id back to `(stmt, var name)`.
    fn name(&self, id: u32) -> (usize, &str) {
        let stmt = match self.offsets.binary_search(&id) {
            Ok(i) => {
                // An offset can repeat when a statement has no variables;
                // take the last statement starting at this id.
                let mut i = i;
                while i + 1 < self.offsets.len() && self.offsets[i + 1] == id {
                    i += 1;
                }
                i
            }
            Err(i) => i - 1,
        };
        (
            stmt,
            &self.per_stmt[stmt][(id - self.offsets[stmt]) as usize],
        )
    }
}

/// Rename the variables of a subscript according to the per-statement map.
fn rename_index(idx: &LinIndex, rename: &BTreeMap<String, String>) -> LinIndex {
    let mut coeffs = BTreeMap::new();
    for (v, c) in &idx.coeffs {
        let name = rename.get(v).cloned().unwrap_or_else(|| v.clone());
        *coeffs.entry(name).or_insert(0) += c;
    }
    coeffs.retain(|_, c| *c != 0);
    LinIndex {
        coeffs,
        offset: idx.offset,
    }
}

fn rename_component(c: &AccessComponent, rename: &BTreeMap<String, String>) -> AccessComponent {
    AccessComponent::new(
        c.indices
            .iter()
            .map(|ix| rename_index(ix, rename))
            .collect(),
    )
}

/// One external access collected during merging (kept with its origin so the
/// disjointness projection can use the original statement's loop bounds).
struct CollectedAccess {
    array: String,
    statement_idx: usize,
    original: AccessComponent,
    renamed: AccessComponent,
}

/// Build the merged [`AccessModel`] of the subgraph `H` of computed arrays.
pub fn merged_model(
    program: &Program,
    subgraph: &[String],
    opts: &AnalysisOptions,
) -> Result<AccessModel, AnalysisError> {
    let h: BTreeSet<&str> = subgraph.iter().map(|s| s.as_str()).collect();
    let stmts: Vec<&Statement> = program
        .statements
        .iter()
        .filter(|s| h.contains(s.output_array()))
        .collect();
    if stmts.is_empty() {
        return Err(AnalysisError::InvalidStatement(format!(
            "subgraph {subgraph:?} contains no computed arrays of the program"
        )));
    }

    // --- 1. unify iteration variables through producer→consumer subscripts ---
    let idx = VarIndex::new(&stmts);
    let mut uf = VarUnion::new(idx.len());
    for array in &h {
        let writers: Vec<usize> = stmts
            .iter()
            .enumerate()
            .filter(|(_, s)| s.output_array() == *array)
            .map(|(i, _)| i)
            .collect();
        for &w in &writers {
            let out_comp = &stmts[w].output.components[0];
            for (r, reader) in stmts.iter().enumerate() {
                if r == w {
                    continue;
                }
                // Unify through reads of `array` by other fused statements.
                for acc in reader.accesses_of(array) {
                    for comp in &acc.components {
                        unify_components(&mut uf, &idx, w, out_comp, r, comp);
                    }
                }
                // Unify two writers of the same array.
                if reader.output_array() == *array {
                    unify_components(&mut uf, &idx, w, out_comp, r, &reader.output.components[0]);
                }
            }
        }
    }

    // --- 2. assign unified names ---
    // Class representative -> chosen name; names are made unique across classes.
    let mut class_names: BTreeMap<u32, String> = BTreeMap::new();
    let mut used_names: BTreeSet<String> = BTreeSet::new();
    let mut renames: Vec<BTreeMap<String, String>> = vec![BTreeMap::new(); stmts.len()];
    for (si, rename) in renames.iter_mut().enumerate() {
        for vi in 0..idx.per_stmt[si].len() {
            let vid = idx.offsets[si] + vi as u32;
            let root = uf.find(vid);
            let unified = class_names
                .entry(root)
                .or_insert_with(|| {
                    let (_, base) = idx.name(root);
                    let mut candidate = base.to_string();
                    let mut k = 1;
                    while used_names.contains(&candidate) {
                        candidate = format!("{base}_{k}");
                        k += 1;
                    }
                    used_names.insert(candidate.clone());
                    candidate
                })
                .clone();
            rename.insert(idx.per_stmt[si][vi].clone(), unified);
        }
    }

    // --- 3. objective: Σ over fused statements of ∏ of their tile extents ---
    let mut tile_variables: Vec<String> = Vec::new();
    let mut objective = Expr::zero();
    for (si, st) in stmts.iter().enumerate() {
        let mut vars: Vec<String> = st
            .loop_variables()
            .iter()
            .map(|v| renames[si][v].clone())
            .collect();
        vars.sort();
        vars.dedup();
        for v in &vars {
            let tv = tile_var(v);
            if !tile_variables.contains(&tv) {
                tile_variables.push(tv);
            }
        }
        objective = objective.add(Expr::product(vars.iter().map(|v| Expr::sym(tile_var(v)))));
    }

    // --- 4. dominator terms ---
    let mut collected: Vec<CollectedAccess> = Vec::new();
    let mut terms: Vec<Expr> = Vec::new();
    for (si, st) in stmts.iter().enumerate() {
        let out_array = st.output_array().to_string();
        let out_comp = &st.output.components[0];
        for acc in &st.inputs {
            let internal = h.contains(acc.array.as_str()) && acc.array != out_array;
            if internal {
                // Reads of other arrays in H: satisfied inside the
                // subcomputation (reuse/recomputation) — not part of Dom(St_H).
                continue;
            }
            for comp in &acc.components {
                if acc.array == out_array {
                    // Reads of the statement's own output array with the same
                    // linear part are the previous-version/Corollary-1 reads,
                    // handled by the output contribution below.
                    if comp
                        .indices
                        .iter()
                        .zip(&out_comp.indices)
                        .all(|(a, b)| a.linear_part() == b.linear_part())
                    {
                        continue;
                    }
                }
                collected.push(CollectedAccess {
                    array: acc.array.clone(),
                    statement_idx: si,
                    original: comp.clone(),
                    renamed: rename_component(comp, &renames[si]),
                });
            }
        }
        // Output contribution (accumulation chain or in/out stencil overlap).
        if st.is_update {
            let out_vars: Vec<String> = st
                .output
                .variables()
                .iter()
                .map(|v| renames[si][v].clone())
                .collect();
            let red = st.reduction_variables();
            let outer_red: Vec<String> = if red.len() > 1 {
                red[..red.len() - 1]
                    .iter()
                    .map(|v| renames[si][v].clone())
                    .collect()
            } else {
                Vec::new()
            };
            terms.push(update_output_size(&out_vars, &outer_red));
        } else {
            // Non-update statement reading its own output with the same linear
            // part: Corollary 1.
            let overlapping: Vec<AccessComponent> = st
                .inputs
                .iter()
                .filter(|a| a.array == out_array)
                .flat_map(|a| a.components.iter())
                .filter(|c| c.translation_from(out_comp).is_some())
                .cloned()
                .collect();
            if !overlapping.is_empty() {
                let mut comps = vec![rename_component(out_comp, &renames[si])];
                comps.extend(
                    overlapping
                        .iter()
                        .map(|c| rename_component(c, &renames[si])),
                );
                let combined = ArrayAccess::new(out_array.clone(), comps);
                let size = corollary1_size(&combined, opts.assume_injective);
                let size = if size.is_zero() {
                    Expr::product(
                        st.output
                            .variables()
                            .iter()
                            .map(|v| Expr::sym(tile_var(&renames[si][v]))),
                    )
                } else {
                    size
                };
                terms.push(size);
            }
        }
    }

    // Group the collected external accesses per array by renamed linear part.
    let mut arrays_in_order: Vec<String> = Vec::new();
    for c in &collected {
        if !arrays_in_order.contains(&c.array) {
            arrays_in_order.push(c.array.clone());
        }
    }
    for array in arrays_in_order {
        let entries: Vec<&CollectedAccess> =
            collected.iter().filter(|c| c.array == array).collect();
        // Group by renamed linear part.
        let mut groups: Vec<(Vec<&CollectedAccess>, ArrayAccess)> = Vec::new();
        'entry: for e in entries {
            for (members, acc) in &mut groups {
                if e.renamed.translation_from(&acc.components[0]).is_some() {
                    if !acc.components.contains(&e.renamed) {
                        acc.components.push(e.renamed.clone());
                    }
                    members.push(e);
                    continue 'entry;
                }
            }
            groups.push((
                vec![e],
                ArrayAccess::new(array.clone(), vec![e.renamed.clone()]),
            ));
        }
        let sizes: Vec<Expr> = groups
            .iter()
            .map(|(_, acc)| lemma3_size(acc, opts.assume_injective))
            .collect();
        if groups.len() == 1 {
            // lint:allow(unwrap-expect): the grouping above produced exactly one group in this branch
            terms.push(sizes.into_iter().next().expect("one group"));
            continue;
        }
        // §5.1: sum the groups only if every pair is provably disjoint; pairs
        // from different statements cannot be proven disjoint from loop bounds
        // alone, so they fall back to the conservative union (max).
        let all_disjoint = groups.iter().enumerate().all(|(i, (ma, _))| {
            groups.iter().skip(i + 1).all(|(mb, _)| {
                ma.iter().all(|a| {
                    mb.iter().all(|b| {
                        a.statement_idx == b.statement_idx
                            && provably_disjoint(
                                &a.original,
                                &b.original,
                                &stmts[a.statement_idx].domain,
                            )
                    })
                })
            })
        });
        if all_disjoint {
            terms.extend(sizes);
        } else {
            let mut it = sizes.into_iter();
            // lint:allow(unwrap-expect): callers guarantee at least one size; checked by the callers' construction
            let first = it.next().expect("at least one size");
            terms.push(it.fold(first, |a, b| a.max(b)));
        }
    }

    Ok(AccessModel {
        name: format!("{{{}}}", subgraph.join(",")),
        tile_variables,
        objective,
        dominator: Expr::sum(terms),
        access_index_sets: Vec::new(),
    })
}

/// Unify per-dimension single-variable subscripts of two components.
fn unify_components(
    uf: &mut VarUnion,
    idx: &VarIndex,
    stmt_a: usize,
    a: &AccessComponent,
    stmt_b: usize,
    b: &AccessComponent,
) {
    if a.arity() != b.arity() {
        return;
    }
    for (ia, ib) in a.indices.iter().zip(&b.indices) {
        if let (Some(va), Some(vb)) = (ia.simple_var(), ib.simple_var()) {
            if let (Some(x), Some(y)) = (idx.id(stmt_a, va), idx.id(stmt_b, vb)) {
                uf.union(x, y);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soap_core::solve_model;
    use soap_ir::ProgramBuilder;
    use soap_symbolic::Rational;

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

    #[test]
    fn figure2_merged_subgraph_captures_recomputation_of_c() {
        // H = {C, E}: C is produced internally from the cheap outer-product
        // statement, so a subcomputation may recompute C elements on the fly
        // from small A/B slices — the fused intensity grows to Θ(S) (σ = 2),
        // strictly above the Θ(√S) of the isolated matrix-multiply statement.
        // This is exactly the "elements of C are recomputed, decreasing the
        // I/O cost" effect highlighted in Figure 2 of the paper.
        let p = figure2();
        let model =
            merged_model(&p, &["C".into(), "E".into()], &AnalysisOptions::default()).unwrap();
        // St1's j must have been unified with St2's k through array C.
        assert_eq!(
            model.tile_variables.len(),
            3,
            "vars: {:?}",
            model.tile_variables
        );
        let res = solve_model(&model, None).0.unwrap();
        assert_eq!(res.sigma, Rational::int(2));
        let singleton = merged_model(&p, &["E".into()], &AnalysisOptions::default()).unwrap();
        let single_res = solve_model(&singleton, None).0.unwrap();
        assert!(res.rho_at(10_000.0) > single_res.rho_at(10_000.0));
    }

    #[test]
    fn singleton_subgraph_keeps_external_inputs() {
        let p = figure2();
        let model = merged_model(&p, &["E".into()], &AnalysisOptions::default()).unwrap();
        let res = solve_model(&model, None).0.unwrap();
        // {E} alone is ordinary matrix multiplication with C, D external.
        assert_eq!(res.sigma, Rational::new(3, 2));
    }

    #[test]
    fn atax_style_fusion_counts_the_matrix_once() {
        // tmp[i] += A[i,j]·x[j];  y[j2] += A[i2,j2]·tmp[i2]
        let p = ProgramBuilder::new("atax")
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
            .unwrap();
        let model =
            merged_model(&p, &["tmp".into(), "y".into()], &AnalysisOptions::default()).unwrap();
        let res = solve_model(&model, None).0.unwrap();
        // Fusing the two statements reuses the A tile: σ = 1, ρ → 2.
        assert_eq!(res.sigma, Rational::ONE);
        assert!(
            (res.rho_at(10_000.0) - 2.0).abs() < 0.1,
            "rho = {}",
            res.rho_at(10_000.0)
        );
    }

    #[test]
    fn unknown_subgraph_is_rejected() {
        let p = figure2();
        assert!(merged_model(&p, &["Z".into()], &AnalysisOptions::default()).is_err());
    }
}
