//! Access-set sizes (Lemma 3 and Corollary 1) as compiled rows.
//!
//! Every size lower-bounds the number of distinct array vertices touched by a
//! rectangular subcomputation whose iteration-variable ranges have the given
//! sizes — the `|A_j|` terms of the optimization problem (8).  They are
//! written in the *tile variables* `D_<var>`, one per iteration variable of
//! the (possibly merged) statement.
//!
//! The sizes are built directly as [`Rows`]: a sum of terms, each an exact
//! [`Rational`] coefficient times integer powers of dense tile-variable
//! indices times powers of `max` atoms, whose branches are rows again
//! ([`Atoms`]).  Rows are kept in the canonical form `Expr`'s simplifier
//! produces for the same polynomial — like terms collected, zero terms
//! dropped, `max` items flattened, sorted, deduplicated and constant-folded
//! — so the rows compile to exactly what compiling the expanded `Expr`
//! gave, and the `Expr` sizes the single-statement analysis reports
//! ([`lemma3_size`], [`corollary1_size`]) are derived from them.

use soap_ir::ArrayAccess;
use soap_symbolic::{CompiledConstraint, CompiledPosynomial, Expr, MaxPosynomial, Rational};

/// The canonical tile-variable name for an iteration variable.
pub fn tile_var(var: &str) -> String {
    format!("D_{var}")
}

/// One term of a [`Rows`] sum: `coeff · ∏_t D_t^{exps[t]} · ∏_j atom_j^{p_j}`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Row {
    /// The exponent of every dense variable index.
    exps: Vec<i32>,
    /// `(atom id, power)` pairs sorted by atom id; ids index an [`Atoms`]
    /// table.
    atoms: Vec<(u32, u32)>,
    /// The exact coefficient (never zero in a normalized sum).
    coeff: Rational,
}

/// A polynomial over dense variable indices and `max` atoms, normalized:
/// terms sorted by monomial, like terms collected, zero terms dropped.
/// Equal polynomials therefore have equal `Rows`.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rows {
    terms: Vec<Row>,
}

impl Rows {
    /// The zero polynomial.
    pub fn zero() -> Rows {
        Rows::default()
    }

    /// The constant `c` over `n` variables.
    pub fn constant(n: usize, c: Rational) -> Rows {
        let mut rows = Rows {
            terms: vec![Row {
                exps: vec![0; n],
                atoms: Vec::new(),
                coeff: c,
            }],
        };
        rows.normalize();
        rows
    }

    /// The product `∏ D_v` over `vars` (repeated indices raise the power).
    pub fn monomial(n: usize, vars: impl IntoIterator<Item = usize>) -> Rows {
        let mut exps = vec![0; n];
        for v in vars {
            exps[v] += 1;
        }
        Rows {
            terms: vec![Row {
                exps,
                atoms: Vec::new(),
                coeff: Rational::ONE,
            }],
        }
    }

    fn atom(n: usize, id: u32) -> Rows {
        Rows {
            terms: vec![Row {
                exps: vec![0; n],
                atoms: vec![(id, 1)],
                coeff: Rational::ONE,
            }],
        }
    }

    /// True for the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// The value of a constant polynomial (`Expr::as_num`).
    fn as_constant(&self) -> Option<Rational> {
        match self.terms.as_slice() {
            [] => Some(Rational::ZERO),
            [t] if t.atoms.is_empty() && t.exps.iter().all(|&e| e == 0) => Some(t.coeff),
            _ => None,
        }
    }

    /// The atom id when the polynomial is one bare atom (an `Expr::Max`).
    fn as_bare_atom(&self) -> Option<u32> {
        match self.terms.as_slice() {
            [t] if t.coeff.is_one()
                && matches!(t.atoms.as_slice(), [(_, 1)])
                && t.exps.iter().all(|&e| e == 0) =>
            {
                Some(t.atoms[0].0)
            }
            _ => None,
        }
    }

    /// Add every polynomial of `items` to this sum, normalizing once.
    pub fn add(&mut self, items: impl IntoIterator<Item = Rows>) {
        for item in items {
            self.terms.extend(item.terms);
        }
        self.normalize();
    }

    /// The product of two polynomials, fully distributed.
    pub fn mul(&self, other: &Rows) -> Rows {
        let mut terms = Vec::with_capacity(self.terms.len() * other.terms.len());
        for a in &self.terms {
            for b in &other.terms {
                terms.push(Row {
                    exps: a.exps.iter().zip(&b.exps).map(|(x, y)| x + y).collect(),
                    atoms: merge_atom_powers(&a.atoms, &b.atoms),
                    coeff: a.coeff * b.coeff,
                });
            }
        }
        let mut rows = Rows { terms };
        rows.normalize();
        rows
    }

    /// Multiply every coefficient by `c`.
    fn scale(mut self, c: Rational) -> Rows {
        for t in &mut self.terms {
            t.coeff *= c;
        }
        self.normalize();
        self
    }

    /// Sort by monomial, collect like terms and drop zero terms.
    fn normalize(&mut self) {
        self.terms
            .sort_unstable_by(|a, b| (&a.exps, &a.atoms).cmp(&(&b.exps, &b.atoms)));
        self.terms.dedup_by(|later, kept| {
            let same = later.exps == kept.exps && later.atoms == kept.atoms;
            if same {
                kept.coeff += later.coeff;
            }
            same
        });
        self.terms.retain(|t| !t.coeff.is_zero());
    }

    /// Compile as a pure posynomial over the first `n_vars` indices.
    ///
    /// `None` when a term carries an atom, uses an index at or past
    /// `n_vars`, or has an exponent outside `i16` — exactly the expressions
    /// [`CompiledPosynomial::compile`] rejects.  The zero polynomial compiles
    /// to one all-zero row with coefficient 0, as `Expr::zero()` does.
    pub(crate) fn to_posynomial(&self, n_vars: usize) -> Option<CompiledPosynomial> {
        if self.is_zero() {
            return Some(CompiledPosynomial::from_rows(
                n_vars,
                &[(vec![0; n_vars], Rational::ZERO)],
            ));
        }
        let mut rows = Vec::with_capacity(self.terms.len());
        for t in &self.terms {
            if !t.atoms.is_empty() {
                return None;
            }
            rows.push((compiled_exponents(&t.exps, n_vars)?, t.coeff));
        }
        Some(CompiledPosynomial::from_rows(n_vars, &rows))
    }

    /// Compile as an optimization constraint over the first `n_vars`
    /// indices: a pure posynomial when no term carries an atom, else the
    /// max-posynomial form.  `None` when neither fits — an atom under a
    /// power, an atom inside a branch (a nested `max`), or a variable or
    /// exponent `to_posynomial` rejects.
    pub(crate) fn to_constraint(&self, atoms: &Atoms, n_vars: usize) -> Option<CompiledConstraint> {
        if self.terms.iter().all(|t| t.atoms.is_empty()) {
            return self.to_posynomial(n_vars).map(CompiledConstraint::Pure);
        }
        // Only the atoms the terms reference enter the compiled form, in
        // order of first reference.
        let mut used: Vec<u32> = Vec::new();
        let mut terms = Vec::with_capacity(self.terms.len());
        for t in &self.terms {
            let exps = compiled_exponents(&t.exps, n_vars)?;
            let mut refs = Vec::with_capacity(t.atoms.len());
            for &(id, power) in &t.atoms {
                if power != 1 {
                    return None;
                }
                let slot = used.iter().position(|&u| u == id).unwrap_or_else(|| {
                    used.push(id);
                    used.len() - 1
                });
                refs.push(slot as u32);
            }
            terms.push((exps, t.coeff, refs));
        }
        let compiled_atoms: Option<Vec<(bool, Vec<CompiledPosynomial>)>> = used
            .iter()
            .map(|&id| {
                let branches: Option<Vec<CompiledPosynomial>> = atoms
                    .branches(id)
                    .iter()
                    .map(|b| b.to_posynomial(n_vars))
                    .collect();
                Some((false, branches?))
            })
            .collect();
        Some(CompiledConstraint::Mixed(MaxPosynomial::from_parts(
            n_vars,
            &terms,
            compiled_atoms?,
        )))
    }

    /// The `Expr` of this polynomial, with `sym(t)` the symbol of index `t`.
    fn to_expr(&self, atoms: &Atoms, sym: &dyn Fn(usize) -> Expr) -> Expr {
        Expr::sum(self.terms.iter().map(|t| {
            let mut factors = vec![Expr::num(t.coeff)];
            for (v, &e) in t.exps.iter().enumerate() {
                if e != 0 {
                    factors.push(sym(v).pow(Rational::int(i128::from(e))));
                }
            }
            for &(id, power) in &t.atoms {
                factors.push(atoms.to_expr(id, sym).pow(Rational::int(i128::from(power))));
            }
            Expr::product(factors)
        }))
    }
}

/// The compiled exponent row of `exps` over the first `n_vars` indices;
/// `None` when an index past `n_vars` is used or an exponent does not fit
/// `i16`.
fn compiled_exponents(exps: &[i32], n_vars: usize) -> Option<Vec<i16>> {
    if exps[n_vars..].iter().any(|&e| e != 0) {
        return None;
    }
    exps[..n_vars]
        .iter()
        .map(|&e| i16::try_from(e).ok())
        .collect()
}

/// The atom powers of a product of two terms.
fn merge_atom_powers(a: &[(u32, u32)], b: &[(u32, u32)]) -> Vec<(u32, u32)> {
    if b.is_empty() {
        return a.to_vec();
    }
    if a.is_empty() {
        return b.to_vec();
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(&(x, p)), Some(&(y, q))) if x == y => {
                out.push((x, p + q));
                i += 1;
                j += 1;
            }
            (Some(&(x, p)), Some(&(y, _))) if x < y => {
                out.push((x, p));
                i += 1;
            }
            (Some(&(x, p)), None) => {
                out.push((x, p));
                i += 1;
            }
            (_, Some(&(y, q))) => {
                out.push((y, q));
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    out
}

/// The `max` atoms of one family of [`Rows`], deduplicated by content: an
/// atom's id is its index, and equal branch sets get the same id, so terms
/// compare atoms by id.
#[derive(Clone, Debug, Default)]
pub struct Atoms {
    atoms: Vec<Vec<Rows>>,
}

impl Atoms {
    /// The branches of atom `id`: sorted, distinct, at least two.
    fn branches(&self, id: u32) -> &[Rows] {
        &self.atoms[id as usize]
    }

    fn intern(&mut self, branches: Vec<Rows>) -> u32 {
        let id = self
            .atoms
            .iter()
            .position(|a| *a == branches)
            .unwrap_or_else(|| {
                self.atoms.push(branches);
                self.atoms.len() - 1
            });
        id as u32
    }

    /// `max(a, b)` with `Expr::max`'s simplification: equal operands give
    /// the operand, two constants fold, bare atoms are flattened into their
    /// branches, and the items are sorted and deduplicated (one left is the
    /// result itself).  `n` is the variable count of the rows.
    pub fn max(&mut self, n: usize, a: Rows, b: Rows) -> Rows {
        if a == b {
            return a;
        }
        if let (Some(x), Some(y)) = (a.as_constant(), b.as_constant()) {
            return Rows::constant(n, x.max(y));
        }
        let mut items = Vec::new();
        for operand in [a, b] {
            match operand.as_bare_atom() {
                Some(id) => items.extend(self.branches(id).iter().cloned()),
                None => items.push(operand),
            }
        }
        items.sort();
        items.dedup();
        if items.len() == 1 {
            return items.pop().unwrap_or_default();
        }
        let id = self.intern(items);
        Rows::atom(n, id)
    }

    fn to_expr(&self, id: u32, sym: &dyn Fn(usize) -> Expr) -> Expr {
        let mut it = self.branches(id).iter().map(|b| b.to_expr(self, sym));
        let first = it.next().unwrap_or_else(Expr::zero);
        it.fold(first, |acc, b| acc.max(b))
    }
}

/// The tile extent of one array dimension whose subscript uses the distinct
/// variable indices `vars`:
///
/// * no variable (`A[0]`)                           → `1`;
/// * a single variable (`A[i-1]`)                   → `D_i`;
/// * a linear combination (`Image[r + σ·w]`)        → `max(D_r, D_w)` when
///   `assume_injective` is false (the always-valid lower bound of Section
///   5.3) or `D_r · D_w` when it is true (the large-stride injective case).
fn dimension_extent(n: usize, vars: &[u32], assume_injective: bool, atoms: &mut Atoms) -> Rows {
    match vars {
        [] => Rows::constant(n, Rational::ONE),
        [v] => Rows::monomial(n, [*v as usize]),
        _ if assume_injective => Rows::monomial(n, vars.iter().map(|&v| v as usize)),
        [first, rest @ ..] => rest
            .iter()
            .fold(Rows::monomial(n, [*first as usize]), |acc, &v| {
                atoms.max(n, acc, Rows::monomial(n, [v as usize]))
            }),
    }
}

/// Which overlap rule sizes an access group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Overlap {
    /// Lemma 3: `|A| ≥ 2·∏ E_i − ∏ (E_i − |t̂_i|)`, degenerating to `∏ E_i`
    /// when no dimension has offsets (a single-component access).
    Lemma3,
    /// Corollary 1: when the output access and an input access of the
    /// *same* array form a simple overlap (in/out stencils like
    /// `A[i,t+1] = f(A[i±1,t])`), up to `∏ E_i` of the touched vertices are
    /// computed inside the subcomputation, so the external accesses are only
    /// `|A| ≥ ∏ E_i − ∏ (E_i − |t̂_i|)`, the offsets taken over the union
    /// `φ₀ ∪ φ_j`.
    Corollary1,
}

/// The access-set size of one access group under `rule`: `dims` holds, per
/// array dimension of the group's first component, the variable indices of
/// its subscript and the number of distinct non-zero offsets `|t̂_i|` of the
/// group in that dimension.  Fully expanded, so the leading products cancel
/// exactly instead of catastrophically in floating point.
pub fn overlap_size(
    rule: Overlap,
    n: usize,
    dims: &[(&[u32], usize)],
    assume_injective: bool,
    atoms: &mut Atoms,
) -> Rows {
    let extents: Vec<Rows> = dims
        .iter()
        .map(|(vars, _)| dimension_extent(n, vars, assume_injective, atoms))
        .collect();
    let product = extents
        .iter()
        .fold(Rows::constant(n, Rational::ONE), |acc, e| acc.mul(e));
    if rule == Overlap::Lemma3 && dims.iter().all(|&(_, c)| c == 0) {
        return product;
    }
    let shrunk = extents.into_iter().zip(dims).fold(
        Rows::constant(n, Rational::ONE),
        |acc, (mut e, &(_, c))| {
            e.add([Rows::constant(n, Rational::int(-(c as i128)))]);
            acc.mul(&e)
        },
    );
    let mut size = match rule {
        Overlap::Lemma3 => product.scale(Rational::int(2)),
        Overlap::Corollary1 => product,
    };
    size.add([shrunk.scale(Rational::int(-1))]);
    size
}

/// [`overlap_size`] of a named access, as an `Expr` in the `D_<var>`
/// symbols: the form the single-statement analysis reports.
fn named_overlap_size(access: &ArrayAccess, rule: Overlap, assume_injective: bool) -> Expr {
    let names = access.variables();
    let base = &access.components[0];
    let vars: Vec<Vec<u32>> = base
        .indices
        .iter()
        .map(|ix| {
            ix.variables()
                .filter_map(|v| names.iter().position(|n| n == v))
                .map(|p| p as u32)
                .collect()
        })
        .collect();
    let counts: Vec<usize> = match access.offset_sets() {
        Some(sets) => sets.iter().map(Vec::len).collect(),
        None => vec![0; base.arity()],
    };
    let dims: Vec<(&[u32], usize)> = vars.iter().map(Vec::as_slice).zip(counts).collect();
    let mut atoms = Atoms::default();
    let size = overlap_size(rule, names.len(), &dims, assume_injective, &mut atoms);
    size.to_expr(&atoms, &|t| Expr::sym(tile_var(&names[t])))
}

/// Lemma 3 of a named access (see [`Overlap::Lemma3`]).
pub fn lemma3_size(access: &ArrayAccess, assume_injective: bool) -> Expr {
    named_overlap_size(access, Overlap::Lemma3, assume_injective)
}

/// Corollary 1 of a named combined access `φ₀ ∪ φ_j` (see
/// [`Overlap::Corollary1`]).
pub fn corollary1_size(combined: &ArrayAccess, assume_injective: bool) -> Expr {
    named_overlap_size(combined, Overlap::Corollary1, assume_injective)
}

/// The product of the tile variables of `vars` as an `Expr`.
fn named_product<'a>(vars: impl Iterator<Item = &'a String>) -> Expr {
    let mut names: Vec<&String> = Vec::new();
    let mut ids = Vec::new();
    for v in vars {
        let id = names.iter().position(|n| *n == v).unwrap_or_else(|| {
            names.push(v);
            names.len() - 1
        });
        ids.push(id);
    }
    Rows::monomial(names.len(), ids).to_expr(&Atoms::default(), &|t| Expr::sym(tile_var(names[t])))
}

/// The contribution of an update (`+=`) output: one prior version must be
/// available per output element and per combination of the *outer* reduction
/// variables — the accumulation chain is only contiguous along the innermost
/// reduction dimension.  As rows this is [`Rows::monomial`] over the output
/// and outer reduction variables.
///
/// `output_vars` are the iteration variables appearing in the output access;
/// `outer_reduction_vars` are the reduction variables excluding the innermost
/// one (in `C[i,j] += A[i,k]·B[k,j]` this set is empty and the contribution is
/// `D_i·D_j`; for the 7-loop direct convolution it is `{c, r}`, preventing the
/// spurious rank-1 reuse pattern that the accumulation order forbids).
pub fn update_output_size(output_vars: &[String], outer_reduction_vars: &[String]) -> Expr {
    named_product(output_vars.iter().chain(outer_reduction_vars))
}

/// The subcomputation-size (objective) term of one statement: the product of
/// the tile extents of all its iteration variables (Lemma 1).
pub fn statement_chi(vars: &[String]) -> Expr {
    named_product(vars.iter())
}

#[cfg(test)]
mod tests {
    use super::*;
    use soap_ir::parse::parse_indices;
    use soap_ir::AccessComponent;
    use std::collections::BTreeMap;

    fn acc(array: &str, comps: &[&str]) -> ArrayAccess {
        ArrayAccess::new(
            array,
            comps
                .iter()
                .map(|c| AccessComponent::new(parse_indices(c).unwrap()))
                .collect(),
        )
    }

    fn eval(e: &Expr, pairs: &[(&str, f64)]) -> f64 {
        let b: BTreeMap<String, f64> = pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        e.eval(&b).unwrap()
    }

    #[test]
    fn single_component_access_is_a_product() {
        let a = acc("A", &["i,k"]);
        let size = lemma3_size(&a, false);
        assert_eq!(eval(&size, &[("D_i", 8.0), ("D_k", 4.0)]), 32.0);
    }

    #[test]
    fn constant_dimension_contributes_one() {
        let a = acc("A", &["i,0"]);
        let size = lemma3_size(&a, false);
        assert_eq!(eval(&size, &[("D_i", 8.0)]), 8.0);
    }

    #[test]
    fn lemma3_matches_brute_force_union_on_a_stencil_read() {
        // A[i-1], A[i], A[i+1] over a contiguous range of size n:
        // the union has n+2 elements; Lemma 3 with |t̂| = 2 gives
        // 2n − (n−2) = n + 2.  (Offsets are taken w.r.t. the first component.)
        let a = acc("A", &["i-1", "i", "i+1"]);
        let size = lemma3_size(&a, false);
        for n in [1.0, 2.0, 10.0, 100.0] {
            assert_eq!(eval(&size, &[("D_i", n)]), n + 2.0);
        }
    }

    #[test]
    fn lemma3_two_dimensional_stencil() {
        // 5-point stencil reads of A[i,j], A[i±1,j], A[i,j±1]:
        // offsets relative to A[i-1,j]... use the canonical component order of
        // the paper's Example 1 to keep |t̂_i| = 2, |t̂_j| = 2.
        let a = acc("A", &["i,j", "i-1,j", "i+1,j", "i,j-1", "i,j+1"]);
        let size = lemma3_size(&a, false);
        // 2·n·m − (n−2)(m−2)
        let v = eval(&size, &[("D_i", 10.0), ("D_j", 6.0)]);
        assert_eq!(v, 2.0 * 60.0 - 8.0 * 4.0);
    }

    #[test]
    fn corollary1_cancels_computed_versions() {
        // MMM with the version dimension: C[i,j,k] overlaps C[i,j,k-1]:
        // contribution = ∏E − ∏(E − t̂) with t̂ = (0,0,1) = D_i·D_j.
        let combined = acc("C", &["i,j,k", "i,j,k-1"]);
        let size = corollary1_size(&combined, false);
        assert_eq!(
            eval(&size, &[("D_i", 7.0), ("D_j", 5.0), ("D_k", 9.0)]),
            35.0
        );
    }

    #[test]
    fn update_output_counts_outer_reduction_chains() {
        // gemm: output vars {i,j}, no outer reduction vars -> D_i·D_j.
        let e = update_output_size(&["i".into(), "j".into()], &[]);
        assert_eq!(eval(&e, &[("D_i", 3.0), ("D_j", 4.0)]), 12.0);
        // conv: output {k,h,w,b}, outer reduction {c,r} -> product of six.
        let e = update_output_size(
            &["k".into(), "h".into(), "w".into(), "b".into()],
            &["c".into(), "r".into()],
        );
        assert_eq!(
            eval(
                &e,
                &[
                    ("D_k", 2.0),
                    ("D_h", 2.0),
                    ("D_w", 2.0),
                    ("D_b", 2.0),
                    ("D_c", 3.0),
                    ("D_r", 5.0)
                ]
            ),
            240.0
        );
    }

    #[test]
    fn non_injective_dimension_uses_max_or_product() {
        let a = acc("Image", &["r+2*w,c"]);
        let conservative = lemma3_size(&a, false);
        let injective = lemma3_size(&a, true);
        let vals = &[("D_r", 3.0), ("D_w", 5.0), ("D_c", 2.0)];
        assert_eq!(eval(&conservative, vals), 10.0); // max(3,5)·2
        assert_eq!(eval(&injective, vals), 30.0); // 3·5·2
    }

    #[test]
    fn like_terms_collect_and_cancel() {
        // (D_0 − 1)·(D_0 + 1) = D_0² − 1: the cross terms cancel and drop.
        let n = 1;
        let mut a = Rows::monomial(n, [0]);
        a.add([Rows::constant(n, Rational::int(-1))]);
        let mut b = Rows::monomial(n, [0]);
        b.add([Rows::constant(n, Rational::ONE)]);
        let product = a.mul(&b);
        assert_eq!(product.terms.len(), 2);
        let mut expected = Rows::monomial(n, [0, 0]);
        expected.add([Rows::constant(n, Rational::int(-1))]);
        assert_eq!(product, expected);
        // x + x collects to 2x.
        let mut twice = Rows::monomial(n, [0]);
        twice.add([Rows::monomial(n, [0])]);
        assert_eq!(twice, Rows::monomial(n, [0]).scale(Rational::int(2)));
    }

    #[test]
    fn max_deduplicates_flattens_and_folds_constants() {
        let n = 3;
        let mut atoms = Atoms::default();
        let d = |v: usize| Rows::monomial(n, [v]);
        // max(D_0, D_0) = D_0, with no atom created.
        assert_eq!(atoms.max(n, d(0), d(0)), d(0));
        assert_eq!(atoms.atoms.len(), 0);
        // max(max(D_0, D_1), D_2) flattens into one three-branch atom,
        // equal to max(D_2, max(D_1, D_0)).
        let m01 = atoms.max(n, d(0), d(1));
        let left = atoms.max(n, m01, d(2));
        let m10 = atoms.max(n, d(1), d(0));
        let right = atoms.max(n, d(2), m10);
        assert_eq!(left, right);
        let id = left.as_bare_atom().unwrap();
        assert_eq!(atoms.branches(id).len(), 3);
        // Two constants fold.
        let two = Rows::constant(n, Rational::int(2));
        let three = Rows::constant(n, Rational::int(3));
        assert_eq!(atoms.max(n, two, three.clone()), three);
    }

    #[test]
    fn atoms_under_a_power_or_nested_are_not_compiled() {
        let n = 2;
        let mut atoms = Atoms::default();
        let m = atoms.max(n, Rows::monomial(n, [0]), Rows::monomial(n, [1]));
        // max(D_0, D_1) alone compiles to the max-posynomial form.
        assert!(matches!(
            m.to_constraint(&atoms, n),
            Some(CompiledConstraint::Mixed(_))
        ));
        // Its square does not.
        assert!(m.mul(&m).to_constraint(&atoms, n).is_none());
        // Nor does a max with a branch carrying that atom.
        let branch = m.mul(&Rows::monomial(n, [0]));
        let nested = atoms.max(n, branch, Rows::monomial(n, [1, 1]));
        assert!(nested.to_constraint(&atoms, n).is_none());
    }
}
