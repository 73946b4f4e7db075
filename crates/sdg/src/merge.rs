//! Construction of the *subgraph SOAP statement* `St_H` (Definition 6) as a
//! [`CompiledModel`].
//!
//! Given a subgraph `H` of computed arrays, the statements writing arrays in
//! `H` are fused: their iteration variables are unified through the
//! producer→consumer array subscripts (`C[i,j]` written by `St1` and read as
//! `C[i,k]` by `St2` identifies `St1.j ↔ St2.k`), reads of arrays inside `H`
//! by *other* statements are dropped (they may be recomputed or reused inside
//! the subcomputation), and the remaining access sets form the dominator of
//! the merged optimization problem.
//!
//! The model is built straight as compiled rows.  The unified variable
//! classes are dense ids, each one a tile variable whose name is formatted
//! once per model; every subscript that enters the dominator is renamed to
//! those ids once; and the objective and the access sizes
//! ([`overlap_size`]) are [`Rows`] over them.  No `Expr` is built and
//! nothing is expanded on this per-subgraph path.

use soap_core::access_size::{overlap_size, tile_var, Atoms, Overlap, Rows};
use soap_core::projections::provably_disjoint;
use soap_core::{AnalysisError, AnalysisOptions, CompiledModel};
use soap_ir::{AccessComponent, LinIndex, Program, Statement};

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
/// union-find runs on integers instead of string keys.
struct VarIndex<'a> {
    per_stmt: Vec<Vec<&'a str>>,
    offsets: Vec<u32>,
}

impl<'a> VarIndex<'a> {
    fn new(stmts: &[&'a Statement]) -> VarIndex<'a> {
        let per_stmt: Vec<Vec<&str>> = stmts
            .iter()
            .map(|s| s.domain.loops.iter().map(|l| l.name.as_str()).collect())
            .collect();
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
            .position(|v| *v == var)
            .map(|p| self.offsets[stmt] + p as u32)
    }

    /// Inverse mapping: dense id back to its variable name.
    fn name(&self, id: u32) -> &'a str {
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
        self.per_stmt[stmt][(id - self.offsets[stmt]) as usize]
    }
}

/// One subscript renamed to dense variable ids: the `(id, coefficient)`
/// pairs sorted by id, without zero coefficients (variables unified into
/// one class add up), plus the constant offset.
#[derive(Clone, Debug, PartialEq, Eq)]
struct DenseIndex {
    terms: Vec<(u32, i64)>,
    offset: i64,
}

/// The translation vector of `a` relative to `base` when the two renamed
/// components differ only by constant offsets.
fn dense_translation(a: &[DenseIndex], base: &[DenseIndex]) -> Option<Vec<i64>> {
    if a.len() != base.len() {
        return None;
    }
    a.iter()
        .zip(base)
        .map(|(x, y)| (x.terms == y.terms).then_some(x.offset - y.offset))
        .collect()
}

/// Add the non-zero entries of a translation to the per-dimension sets of
/// distinct offsets.
fn record_offsets(offsets: &mut [Vec<i64>], translation: &[i64]) {
    for (set, &t) in offsets.iter_mut().zip(translation) {
        if t != 0 && !set.contains(&t) {
            set.push(t);
        }
    }
}

/// Renames subscripts of the fused statements to dense variable ids.
struct Renamer<'a> {
    /// Per fused statement: its loop variable names with their tile ids.
    local: Vec<Vec<(&'a str, u32)>>,
    /// Every class's unified name, indexed by tile id.
    names: &'a [String],
    /// Names that are neither a loop variable of their statement nor a
    /// unified name, numbered after the tile variables.  No term using one
    /// compiles (the variable is not a tile variable), so a model reading
    /// one is outside posynomial form; validated programs have none.
    foreign: Vec<&'a str>,
}

impl<'a> Renamer<'a> {
    fn id(&mut self, stmt: usize, var: &'a str) -> u32 {
        if let Some(&(_, t)) = self.local[stmt].iter().find(|(v, _)| *v == var) {
            return t;
        }
        // A name that is not a loop variable keeps its own name, which may
        // be the unified name of a class.
        if let Some(t) = self.names.iter().position(|n| n == var) {
            return t as u32;
        }
        let k = self
            .foreign
            .iter()
            .position(|f| *f == var)
            .unwrap_or_else(|| {
                self.foreign.push(var);
                self.foreign.len() - 1
            });
        (self.names.len() + k) as u32
    }

    fn index(&mut self, stmt: usize, ix: &'a LinIndex) -> DenseIndex {
        let mut terms: Vec<(u32, i64)> = ix
            .coeffs
            .iter()
            .map(|(v, &c)| (self.id(stmt, v), c))
            .collect();
        terms.sort_unstable_by_key(|&(id, _)| id);
        terms.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        terms.retain(|&(_, c)| c != 0);
        DenseIndex {
            terms,
            offset: ix.offset,
        }
    }

    fn component(&mut self, stmt: usize, c: &'a AccessComponent) -> Vec<DenseIndex> {
        c.indices.iter().map(|ix| self.index(stmt, ix)).collect()
    }

    fn ids(&mut self, stmt: usize, vars: impl IntoIterator<Item = &'a str>) -> Vec<u32> {
        vars.into_iter().map(|v| self.id(stmt, v)).collect()
    }
}

/// One external access collected during merging (kept with its origin so the
/// disjointness projection can use the original statement's loop bounds).
struct CollectedAccess<'a> {
    array: &'a str,
    statement_idx: usize,
    original: &'a AccessComponent,
    renamed: Vec<DenseIndex>,
}

/// The output contribution of one fused statement.
enum OutputTerm {
    /// An update: the product over these ids (output and outer reduction
    /// variables).
    Update(Vec<u32>),
    /// A non-update statement reading its own output with the same linear
    /// part: Corollary 1 over the renamed output component, with the
    /// per-dimension offset counts of the combined access, falling back to
    /// the product over the output variables when the size cancels.
    Overlap {
        base: Vec<DenseIndex>,
        counts: Vec<usize>,
        fallback: Vec<u32>,
    },
}

/// One group of external accesses of an array sharing a renamed linear part.
struct Group<'c, 'a> {
    members: Vec<&'c CollectedAccess<'a>>,
    /// Per dimension, the distinct non-zero offsets relative to the first
    /// member.
    offsets: Vec<Vec<i64>>,
}

/// The [`Overlap`] size of a renamed component with per-dimension offset
/// counts.
fn component_size(
    rule: Overlap,
    n: usize,
    base: &[DenseIndex],
    counts: impl Iterator<Item = usize>,
    opts: &AnalysisOptions,
    atoms: &mut Atoms,
) -> Rows {
    let vars: Vec<Vec<u32>> = base
        .iter()
        .map(|d| d.terms.iter().map(|&(id, _)| id).collect())
        .collect();
    let dims: Vec<(&[u32], usize)> = vars.iter().map(Vec::as_slice).zip(counts).collect();
    overlap_size(rule, n, &dims, opts.assume_injective, atoms)
}

/// Build the merged [`CompiledModel`] of the subgraph `H` of computed arrays.
pub fn merged_model(
    program: &Program,
    subgraph: &[String],
    opts: &AnalysisOptions,
) -> Result<CompiledModel, AnalysisError> {
    let mut h: Vec<&str> = subgraph.iter().map(String::as_str).collect();
    h.sort_unstable();
    h.dedup();
    let in_h = |array: &str| h.binary_search(&array).is_ok();
    let stmts: Vec<&Statement> = program
        .statements
        .iter()
        .filter(|s| in_h(s.output_array()))
        .collect();
    if stmts.is_empty() {
        return Err(AnalysisError::InvalidStatement(format!(
            "subgraph {subgraph:?} contains no computed arrays of the program"
        )));
    }

    // --- 1. unify iteration variables through producer→consumer subscripts ---
    let idx = VarIndex::new(&stmts);
    let mut uf = VarUnion::new(idx.len());
    for &array in &h {
        for (w, writer) in stmts.iter().enumerate() {
            if writer.output_array() != array {
                continue;
            }
            let out_comp = &writer.output.components[0];
            for (r, reader) in stmts.iter().enumerate() {
                if r == w {
                    continue;
                }
                // Unify through reads of `array` by other fused statements.
                for acc in reader.inputs.iter().filter(|a| a.array == array) {
                    for comp in &acc.components {
                        unify_components(&mut uf, &idx, w, out_comp, r, comp);
                    }
                }
                // Unify two writers of the same array.
                if reader.output_array() == array {
                    unify_components(&mut uf, &idx, w, out_comp, r, &reader.output.components[0]);
                }
            }
        }
    }

    // --- 2. classes: dense ids in order of first appearance, unique names ---
    let mut class_of_root: Vec<u32> = vec![u32::MAX; idx.len()];
    let mut class_names: Vec<String> = Vec::new();
    let mut var_class: Vec<u32> = Vec::with_capacity(idx.len());
    for vid in 0..idx.len() as u32 {
        let root = uf.find(vid);
        if class_of_root[root as usize] == u32::MAX {
            let base = idx.name(root);
            let mut candidate = base.to_string();
            let mut k = 1;
            while class_names.contains(&candidate) {
                candidate = format!("{base}_{k}");
                k += 1;
            }
            class_of_root[root as usize] = class_names.len() as u32;
            class_names.push(candidate);
        }
        var_class.push(class_of_root[root as usize]);
    }

    // --- 3. tile variables: each statement's classes sorted by name, in
    // order of first appearance ---
    let mut by_name: Vec<u32> = (0..class_names.len() as u32).collect();
    by_name.sort_unstable_by(|&a, &b| class_names[a as usize].cmp(&class_names[b as usize]));
    let mut name_rank = vec![0u32; class_names.len()];
    for (rank, &c) in by_name.iter().enumerate() {
        name_rank[c as usize] = rank as u32;
    }
    let mut tile_of_class = vec![u32::MAX; class_names.len()];
    let mut tile_names: Vec<String> = Vec::with_capacity(class_names.len());
    let mut unified: Vec<String> = Vec::with_capacity(class_names.len());
    let mut stmt_classes: Vec<Vec<u32>> = Vec::with_capacity(stmts.len());
    for si in 0..stmts.len() {
        let start = idx.offsets[si] as usize;
        let mut classes: Vec<u32> = var_class[start..start + idx.per_stmt[si].len()].to_vec();
        classes.sort_unstable_by_key(|&c| name_rank[c as usize]);
        classes.dedup();
        for &c in &classes {
            if tile_of_class[c as usize] == u32::MAX {
                tile_of_class[c as usize] = tile_names.len() as u32;
                tile_names.push(tile_var(&class_names[c as usize]));
                unified.push(std::mem::take(&mut class_names[c as usize]));
            }
        }
        stmt_classes.push(classes);
    }
    let n_tiles = tile_names.len();
    let mut renamer = Renamer {
        local: (0..stmts.len())
            .map(|si| {
                let start = idx.offsets[si] as usize;
                idx.per_stmt[si]
                    .iter()
                    .zip(&var_class[start..])
                    .map(|(&v, &c)| (v, tile_of_class[c as usize]))
                    .collect()
            })
            .collect(),
        names: &unified,
        foreign: Vec::new(),
    };

    // --- 4. collect the external accesses and the output contributions ---
    let mut collected: Vec<CollectedAccess> = Vec::new();
    let mut outputs: Vec<OutputTerm> = Vec::new();
    for (si, st) in stmts.iter().enumerate() {
        let out_array = st.output_array();
        let out_comp = &st.output.components[0];
        for acc in &st.inputs {
            let internal = in_h(&acc.array) && acc.array != out_array;
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
                    array: &acc.array,
                    statement_idx: si,
                    original: comp,
                    renamed: renamer.component(si, comp),
                });
            }
        }
        // Output contribution (accumulation chain or in/out stencil overlap).
        let out_vars = output_variables(st);
        if st.is_update {
            // The reduction variables, outermost first; all but the
            // innermost one enter the product.
            let red: Vec<&str> = st
                .domain
                .loops
                .iter()
                .map(|l| l.name.as_str())
                .filter(|v| out_vars.binary_search(v).is_err())
                .collect();
            let mut ids = renamer.ids(si, out_vars.iter().copied());
            ids.extend(renamer.ids(si, red[..red.len().saturating_sub(1)].iter().copied()));
            outputs.push(OutputTerm::Update(ids));
        } else {
            // Non-update statement reading its own output with the same linear
            // part: Corollary 1.  Renaming keeps the translations, so the
            // combined access's offsets are those of the original components.
            let mut offsets = vec![Vec::new(); out_comp.arity()];
            let mut overlapping = false;
            for c in st
                .inputs
                .iter()
                .filter(|a| a.array == out_array)
                .flat_map(|a| a.components.iter())
            {
                if let Some(t) = c.translation_from(out_comp) {
                    overlapping = true;
                    record_offsets(&mut offsets, &t);
                }
            }
            if overlapping {
                outputs.push(OutputTerm::Overlap {
                    base: renamer.component(si, out_comp),
                    counts: offsets.iter().map(Vec::len).collect(),
                    fallback: renamer.ids(si, out_vars),
                });
            }
        }
    }

    // --- 5. the dominator terms as rows ---
    let n = n_tiles + renamer.foreign.len();
    let mut atoms = Atoms::default();
    let mut terms: Vec<Rows> = Vec::new();
    for output in &outputs {
        terms.push(match output {
            OutputTerm::Update(ids) => Rows::monomial(n, ids.iter().map(|&t| t as usize)),
            OutputTerm::Overlap {
                base,
                counts,
                fallback,
            } => {
                let size = component_size(
                    Overlap::Corollary1,
                    n,
                    base,
                    counts.iter().copied(),
                    opts,
                    &mut atoms,
                );
                if size.is_zero() {
                    Rows::monomial(n, fallback.iter().map(|&t| t as usize))
                } else {
                    size
                }
            }
        });
    }

    // Group the collected external accesses per array by renamed linear part.
    let mut arrays_in_order: Vec<&str> = Vec::new();
    for c in &collected {
        if !arrays_in_order.contains(&c.array) {
            arrays_in_order.push(c.array);
        }
    }
    for array in arrays_in_order {
        let mut groups: Vec<Group> = Vec::new();
        'entry: for e in collected.iter().filter(|c| c.array == array) {
            for group in &mut groups {
                if let Some(t) = dense_translation(&e.renamed, &group.members[0].renamed) {
                    record_offsets(&mut group.offsets, &t);
                    group.members.push(e);
                    continue 'entry;
                }
            }
            groups.push(Group {
                members: vec![e],
                offsets: vec![Vec::new(); e.renamed.len()],
            });
        }
        let mut sizes: Vec<Rows> = groups
            .iter()
            .map(|g| {
                component_size(
                    Overlap::Lemma3,
                    n,
                    &g.members[0].renamed,
                    g.offsets.iter().map(Vec::len),
                    opts,
                    &mut atoms,
                )
            })
            .collect();
        if sizes.len() == 1 {
            terms.append(&mut sizes);
            continue;
        }
        // §5.1: sum the groups only if every pair is provably disjoint; pairs
        // from different statements cannot be proven disjoint from loop bounds
        // alone, so they fall back to the conservative union (max).
        let all_disjoint = groups.iter().enumerate().all(|(i, ga)| {
            groups.iter().skip(i + 1).all(|gb| {
                ga.members.iter().all(|a| {
                    gb.members.iter().all(|b| {
                        a.statement_idx == b.statement_idx
                            && provably_disjoint(
                                a.original,
                                b.original,
                                &stmts[a.statement_idx].domain,
                            )
                    })
                })
            })
        });
        if all_disjoint {
            terms.append(&mut sizes);
        } else {
            let mut it = sizes.into_iter();
            let first = it.next().unwrap_or_default();
            terms.push(it.fold(first, |a, b| atoms.max(n, a, b)));
        }
    }
    let mut dominator = Rows::zero();
    dominator.add(terms);

    // --- 6. objective: Σ over fused statements of ∏ of their tile extents ---
    let mut objective = Rows::zero();
    objective.add(stmt_classes.iter().map(|classes| {
        Rows::monomial(
            n,
            classes.iter().map(|&c| tile_of_class[c as usize] as usize),
        )
    }));

    Ok(CompiledModel::from_rows(
        format!("{{{}}}", subgraph.join(",")),
        tile_names,
        &objective,
        &dominator,
        &atoms,
    ))
}

/// The variables of a statement's output access, sorted and deduplicated
/// (`ArrayAccess::variables`, borrowed).
fn output_variables(st: &Statement) -> Vec<&str> {
    let mut vars: Vec<&str> = st
        .output
        .components
        .iter()
        .flat_map(|c| &c.indices)
        .flat_map(|ix| ix.variables().map(String::as_str))
        .collect();
    vars.sort_unstable();
    vars.dedup();
    vars
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
#[path = "../tests/common/merge_oracle.rs"]
mod merge_oracle;

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

    /// `program` with its loop variables and arrays renamed so that every
    /// name sorts in a different order than before: `i, j, k` become
    /// `ri, qj, pk`, and an array `A` becomes `zA` … `aA` by its first letter.
    fn renamed(program: &Program) -> Program {
        let flip = |name: &str, prefix_from: u8| {
            let first = name.bytes().next().unwrap_or(b'a');
            let prefix =
                (prefix_from - (first.to_ascii_lowercase().saturating_sub(b'a')) % 26) as char;
            format!("{prefix}{name}")
        };
        let mut out = program.clone();
        for st in &mut out.statements {
            let loops: Vec<String> = st.domain.loops.iter().map(|l| l.name.clone()).collect();
            let var = |name: &String| {
                if loops.contains(name) {
                    flip(name, b'z')
                } else {
                    name.clone()
                }
            };
            for lv in &mut st.domain.loops {
                lv.name = var(&lv.name);
                for bound in [&mut lv.lower, &mut lv.upper] {
                    bound.terms = bound.terms.iter().map(|(k, v)| (var(k), *v)).collect();
                }
            }
            for acc in std::iter::once(&mut st.output).chain(st.inputs.iter_mut()) {
                acc.array = flip(&acc.array, b'z');
                for comp in &mut acc.components {
                    for ix in &mut comp.indices {
                        ix.coeffs = ix.coeffs.iter().map(|(k, v)| (var(k), *v)).collect();
                    }
                }
            }
        }
        out
    }

    /// Every subgraph of `program`: the row-built model must have the
    /// oracle model's name, tile variables and input flag, the same
    /// canonical key and order (or both none), and fail identically.
    /// Returns the number of models compared, of max-form keys among them,
    /// and of models outside (max-)posynomial form.
    fn assert_matches_oracle(program: &Program, opts: &AnalysisOptions) -> [usize; 3] {
        use crate::cache::{canonical_oracle, canonicalize};
        let sdg = crate::Sdg::from_program(program);
        let sets = crate::enumerate_connected_subgraphs(&sdg, 4, 4096).subgraphs;
        let [mut compared, mut max_form, mut unrepresentable] = [0; 3];
        for set in &sets {
            let ctx = format!(
                "{}::{set:?} (injective: {})",
                program.name, opts.assume_injective
            );
            let new = merged_model(program, set, opts);
            let old = merge_oracle::oracle_merged_model(program, set, opts);
            let (new, old) = match (new, old) {
                (Ok(new), Ok(old)) => (new, old.compile()),
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "{ctx}: merge errors differ");
                    continue;
                }
                (a, b) => panic!("{ctx}: {:?} vs {:?}", a.err(), b.err()),
            };
            compared += 1;
            assert_eq!(new.name, old.name, "{ctx}");
            assert_eq!(new.tile_variables, old.tile_variables, "{ctx}");
            assert_eq!(new.has_inputs, old.has_inputs, "{ctx}");
            assert_eq!(new.problem.is_some(), old.problem.is_some(), "{ctx}");
            let oracle = canonical_oracle::canonicalize(
                &merge_oracle::oracle_merged_model(program, set, opts).expect("merged above"),
            );
            match (canonicalize(&new), oracle) {
                (Some(a), Some(b)) => {
                    max_form += usize::from(a.key.is_max_form());
                    assert_eq!(a.key, b.key, "{ctx}: canonical keys differ");
                    assert_eq!(a.order, b.order, "{ctx}: canonical orders differ");
                }
                (None, None) => {}
                (a, b) => panic!("{ctx}: cacheable {} vs oracle {}", a.is_some(), b.is_some()),
            }
            // Models that fail before any KKT solve fail identically.
            if new.problem.is_none() || !new.has_inputs || new.tile_variables.is_empty() {
                unrepresentable += usize::from(new.problem.is_none());
                assert_eq!(
                    solve_model(&new, None).0.unwrap_err(),
                    solve_model(&old, None).0.unwrap_err(),
                    "{ctx}: failures differ"
                );
            }
        }
        [compared, max_form, unrepresentable]
    }

    /// The `Expr` sizes the single-statement analysis reports, derived from
    /// the rows, equal the oracle's `expand()`ed sizes for every access of
    /// `program`, alone and combined with the statement's output.
    fn assert_sizes_match_oracle(program: &Program) {
        use soap_core::access_size::{corollary1_size, lemma3_size};
        use soap_ir::ArrayAccess;
        for st in &program.statements {
            for acc in &st.inputs {
                let mut combined = vec![st.output.components[0].clone()];
                combined.extend(acc.components.iter().cloned());
                let combined = ArrayAccess::new(acc.array.clone(), combined);
                for injective in [false, true] {
                    assert_eq!(
                        lemma3_size(acc, injective),
                        merge_oracle::lemma3_size(acc, injective),
                        "{}: Lemma 3 of {acc}",
                        program.name
                    );
                    assert_eq!(
                        corollary1_size(&combined, injective),
                        merge_oracle::corollary1_size(&combined, injective),
                        "{}: Corollary 1 of {combined}",
                        program.name
                    );
                }
            }
        }
    }

    /// Hand-written programs for the algebra the random draws may miss: a
    /// union whose flattened `max` repeats a branch (`max(max(D_i, D_j),
    /// D_i)`), three groups whose sizes repeat, an atom squared by two
    /// dimensions sharing it, and a `max` nested in a union.
    fn targeted_programs() -> Vec<Program> {
        let one = |name: &str, reads: &[&str]| {
            let reads: Vec<String> = reads.iter().map(|r| r.to_string()).collect();
            ProgramBuilder::new(name)
                .statement(|st| {
                    let mut st = st
                        .loops(&[("i", "0", "N"), ("j", "0", "N"), ("k", "0", "N")])
                        .update("y", "i");
                    for r in &reads {
                        st = st.read("R", r);
                    }
                    st
                })
                .build()
                .unwrap()
        };
        vec![
            one("flatten_dedup", &["i+j", "i"]),
            one("repeated_sizes", &["i,j", "i,i", "j,i"]),
            one("atom_squared", &["i+j,i+j"]),
            one("nested_max", &["i+j,k", "k,i"]),
        ]
    }

    #[test]
    fn row_built_models_match_the_expr_oracle() {
        let mut programs: Vec<Program> = targeted_programs();
        programs.extend(soap_kernels::registry().into_iter().map(|k| k.program));
        let renamed_registry: Vec<Program> = programs.iter().map(renamed).collect();
        programs.extend(renamed_registry);
        programs.extend(crate::store::random_programs::seeded_random_programs());
        let rich = crate::store::random_programs::seeded_rich_programs();
        assert!(
            rich.len() > 60,
            "only {} rich programs validate",
            rich.len()
        );
        programs.extend(rich.iter().map(renamed));
        programs.extend(rich);
        let mut counts = [0; 3];
        for program in &programs {
            assert_sizes_match_oracle(program);
            for assume_injective in [false, true] {
                let opts = AnalysisOptions { assume_injective };
                for (total, c) in counts.iter_mut().zip(assert_matches_oracle(program, &opts)) {
                    *total += c;
                }
            }
        }
        let [compared, max_form, unrepresentable] = counts;
        assert!(compared > 2000, "only {compared} models compared");
        assert!(max_form > 100, "only {max_form} max-form keys compared");
        assert!(
            unrepresentable > 0,
            "no model outside (max-)posynomial form was drawn"
        );
    }
}
