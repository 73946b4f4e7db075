//! The `Expr`-building subgraph merge and access sizes: the reference the
//! row-building merge (`soap_sdg::merged_model`) and the row-based sizes of
//! `soap_core::access_size` must match.  The merge fuses the statements
//! writing the arrays of `H` exactly as the production merge does, but
//! builds the objective and the Lemma-3 / Corollary-1 dominator as symbolic
//! `Expr` trees (each size `expand()`ed, the groups combined with
//! `Expr::sum` / `Expr::max`), returning an [`AccessModel`] whose
//! compilation is the expected compiled model.
//!
//! Included by path from the merge's unit tests (the differential test of
//! the canonical keys) and from `solver_differential.rs` (the `Expr` models
//! the reference solver evaluates).

#![allow(dead_code)]

use soap_core::projections::provably_disjoint;
use soap_core::{AccessModel, AnalysisError, AnalysisOptions};
use soap_ir::{AccessComponent, ArrayAccess, LinIndex, Program, Statement};
use soap_symbolic::Expr;
use std::collections::{BTreeMap, BTreeSet};

/// The canonical tile-variable name for an iteration variable.
pub fn tile_var(var: &str) -> String {
    format!("D_{var}")
}

/// The tile-size expression of one array *dimension*.
///
/// * indexed by a single iteration variable (`A[i-1]`)  → `D_i`;
/// * indexed by a constant (`A[0]`)                     → `1`;
/// * indexed by a linear combination (`Image[r + σ·w]`) → `max(D_r, D_w)` when
///   `assume_injective` is false (the always-valid lower bound of Section 5.3)
///   or `D_r · D_w` when it is true (the large-stride injective case).
pub fn dimension_extent(component: &AccessComponent, dim: usize, assume_injective: bool) -> Expr {
    let idx = &component.indices[dim];
    let vars: Vec<&String> = idx.variables().collect();
    match vars.len() {
        0 => Expr::one(),
        1 => Expr::sym(tile_var(vars[0])),
        _ => {
            let exprs = vars.iter().map(|v| Expr::sym(tile_var(v)));
            if assume_injective {
                Expr::product(exprs)
            } else {
                let mut it = exprs;
                // lint:allow(unwrap-expect): this branch only runs with two or more variables, checked just above
                let first = it.next().expect("at least two variables");
                it.fold(first, |a, b| a.max(b))
            }
        }
    }
}

/// Lemma 3: the access-set size of a simple-overlap access
/// `|A| ≥ 2·∏ E_i − ∏ (E_i − |t̂_i|)`, where `E_i` is the per-dimension tile
/// extent and `t̂_i` the access-offset set.  For single-component accesses this
/// degenerates to `∏ E_i`.
pub fn lemma3_size(access: &ArrayAccess, assume_injective: bool) -> Expr {
    let base = &access.components[0];
    let dims = base.arity();
    let extents: Vec<Expr> = (0..dims)
        .map(|d| dimension_extent(base, d, assume_injective))
        .collect();
    let offsets = access.offset_sets();
    let offset_counts: Vec<i64> = match &offsets {
        Some(sets) => sets.iter().map(|s| s.len() as i64).collect(),
        None => vec![0; dims],
    };
    let product: Expr = Expr::product(extents.iter().cloned());
    if offset_counts.iter().all(|&c| c == 0) {
        return product;
    }
    // 2·∏E − ∏(E − |t̂|), expanded so that the leading products cancel exactly
    // instead of catastrophically in floating point.
    let shrunk = Expr::product(
        extents
            .iter()
            .zip(&offset_counts)
            .map(|(e, &c)| e.clone().sub(Expr::int(c))),
    );
    Expr::int(2).mul(product).sub(shrunk).expand()
}

/// Corollary 1: when the output access and an input access of the *same*
/// array form a simple overlap (in/out stencils like `A[i,t+1] = f(A[i±1,t])`),
/// up to `∏ E_i` of the touched vertices are computed inside the
/// subcomputation, so the external accesses are only
/// `|A| ≥ ∏ E_i − ∏ (E_i − |t̂_i|)`.
///
/// `offsets` must be the access-offset sets of the *union* `φ₀ ∪ φ_j`.
pub fn corollary1_size(combined: &ArrayAccess, assume_injective: bool) -> Expr {
    let base = &combined.components[0];
    let dims = base.arity();
    let extents: Vec<Expr> = (0..dims)
        .map(|d| dimension_extent(base, d, assume_injective))
        .collect();
    let offset_counts: Vec<i64> = match combined.offset_sets() {
        Some(sets) => sets.iter().map(|s| s.len() as i64).collect(),
        None => vec![0; dims],
    };
    let product: Expr = Expr::product(extents.iter().cloned());
    let shrunk = Expr::product(
        extents
            .iter()
            .zip(&offset_counts)
            .map(|(e, &c)| e.clone().sub(Expr::int(c))),
    );
    product.sub(shrunk).expand()
}

/// The contribution of an update (`+=`) output: one prior version must be
/// available per output element and per combination of the *outer* reduction
/// variables — the accumulation chain is only contiguous along the innermost
/// reduction dimension.
///
/// `output_vars` are the iteration variables appearing in the output access;
/// `outer_reduction_vars` are the reduction variables excluding the innermost
/// one (in `C[i,j] += A[i,k]·B[k,j]` this set is empty and the contribution is
/// `D_i·D_j`; for the 7-loop direct convolution it is `{c, r}`, preventing the
/// spurious rank-1 reuse pattern that the accumulation order forbids).
pub fn update_output_size(output_vars: &[String], outer_reduction_vars: &[String]) -> Expr {
    Expr::product(
        output_vars
            .iter()
            .chain(outer_reduction_vars.iter())
            .map(|v| Expr::sym(tile_var(v))),
    )
}

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
pub fn oracle_merged_model(
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
