//! Single-statement SOAP analysis (Section 4 of the paper).

use crate::access_size::{
    corollary1_size, lemma3_size, statement_chi, tile_var, update_output_size,
};
use crate::model::{solve_model, AccessModel, IntensityResult};
use crate::projections::provably_disjoint;
use crate::AnalysisError;
use soap_ir::{AccessComponent, ArrayAccess, Statement};
use soap_symbolic::{Expr, Polynomial};
use std::collections::BTreeMap;

/// Options controlling the analysis.
#[derive(Clone, Debug, Default)]
pub struct AnalysisOptions {
    /// Treat linear-combination subscripts (`Image[r + σ·w]`) as injective
    /// (Section 5.3 case 1).  The default `false` keeps the always-valid
    /// conservative bound (case 2).
    pub assume_injective: bool,
}

/// The result of analyzing one SOAP statement.
#[derive(Clone, Debug)]
pub struct StatementAnalysis {
    /// Statement name.
    pub name: String,
    /// The solved intensity (σ, ρ(S), X₀, tile shape).
    pub intensity: IntensityResult,
    /// The exact iteration-domain cardinality `|D|`.
    pub domain_size: Polynomial,
    /// The leading-order I/O lower bound `Q ≥ |D| / ρ(S)` (Eq. 9).
    pub bound: Expr,
    /// The dominator-set size expression used in the optimization.
    pub dominator: Expr,
    /// Human-readable notes about projections and conservative fallbacks.
    pub notes: Vec<String>,
}

/// One group of access components of a single array sharing a linear part —
/// the unit on which Lemma 3 applies.
#[derive(Clone, Debug)]
struct AccessGroup {
    access: ArrayAccess,
}

/// Assemble the dominator-size expression for a statement, applying the
/// Section-5 projections.  Returns the expression, the per-term iteration
/// variable index sets (when all terms are pure products — used for the exact
/// exponent LP), and notes.
pub(crate) fn build_dominator(
    st: &Statement,
    opts: &AnalysisOptions,
    vars: &[String],
) -> (Expr, Vec<Vec<usize>>, Vec<String>) {
    let mut notes = Vec::new();
    let var_index: BTreeMap<&str, usize> = vars
        .iter()
        .enumerate()
        .map(|(i, v)| (v.as_str(), i))
        .collect();
    let out_array = st.output_array().to_string();
    let out_component = st.output.components[0].clone();

    // Collect all input components per array.
    let mut per_array: BTreeMap<String, Vec<AccessComponent>> = BTreeMap::new();
    let mut array_order: Vec<String> = Vec::new();
    for acc in &st.inputs {
        if !array_order.contains(&acc.array) {
            array_order.push(acc.array.clone());
        }
        per_array
            .entry(acc.array.clone())
            .or_default()
            .extend(acc.components.iter().cloned());
    }

    let mut terms: Vec<Expr> = Vec::new();
    let mut index_sets: Vec<Vec<usize>> = Vec::new();
    let mut pure_products = true;

    for array in &array_order {
        let mut components = per_array.remove(array).unwrap_or_default();
        let is_output_array = *array == out_array;

        // Update statements read the previous version of the output element;
        // that read is modeled by the version-dimension rule below, not by a
        // separate access group, so drop components identical in linear part
        // to the output subscripts.
        if is_output_array && st.is_update {
            components.retain(|c| {
                c.translation_from(&out_component).is_none()
                    || c.indices
                        .iter()
                        .zip(&out_component.indices)
                        .any(|(a, b)| a.linear_part() != b.linear_part())
            });
        }

        // Group by linear part.
        let mut groups: Vec<AccessGroup> = Vec::new();
        'next_component: for c in components {
            for g in &mut groups {
                if c.translation_from(&g.access.components[0]).is_some() {
                    if !g.access.components.contains(&c) {
                        g.access.components.push(c);
                    }
                    continue 'next_component;
                }
            }
            groups.push(AccessGroup {
                access: ArrayAccess::new(array.clone(), vec![c]),
            });
        }

        // Input/output simple overlap (Corollary 1): a non-update statement
        // whose output array is also read with the same linear part (stencils
        // with an explicit time/version subscript).
        if is_output_array && !st.is_update {
            if let Some(pos) = groups.iter().position(|g| {
                g.access.components[0]
                    .translation_from(&out_component)
                    .is_some()
            }) {
                let mut combined = groups.remove(pos).access;
                combined.components.insert(0, out_component.clone());
                let size = corollary1_size(&combined, opts.assume_injective);
                let size = if size.is_zero() {
                    // Degenerate overlap (identical subscripts): fall back to
                    // the version-dimension projection of §5.2.
                    notes.push(format!(
                        "array {array}: identical in/out subscripts — applied version-dimension projection (§5.2)"
                    ));
                    Expr::product(st.output.variables().iter().map(|v| Expr::sym(tile_var(v))))
                } else {
                    notes.push(format!(
                        "array {array}: input/output simple overlap handled by Corollary 1"
                    ));
                    size
                };
                pure_products = false;
                terms.push(size);
            }
        }

        if groups.is_empty() {
            continue;
        }

        // Decide between §5.1 splitting (sum) and the conservative union bound
        // (max) for multiple linear-part groups of the same array.
        let all_disjoint = groups.len() == 1
            || groups.iter().enumerate().all(|(i, a)| {
                groups.iter().skip(i + 1).all(|b| {
                    provably_disjoint(&a.access.components[0], &b.access.components[0], &st.domain)
                })
            });

        let group_sizes: Vec<(Expr, Vec<usize>, bool)> = groups
            .iter()
            .map(|g| {
                let size = lemma3_size(&g.access, opts.assume_injective);
                let has_offsets = g
                    .access
                    .offset_sets()
                    .map(|s| s.iter().any(|d| !d.is_empty()))
                    .unwrap_or(false);
                let multi_var_dim = g.access.components[0]
                    .indices
                    .iter()
                    .any(|ix| ix.variables().count() > 1);
                let set: Vec<usize> = g
                    .access
                    .variables()
                    .iter()
                    .filter_map(|v| var_index.get(v.as_str()).copied())
                    .collect();
                (size, set, has_offsets || multi_var_dim)
            })
            .collect();

        if all_disjoint {
            if groups.len() > 1 {
                notes.push(format!(
                    "array {}: {} access groups proven disjoint from the loop bounds (§5.1), counted separately",
                    array, groups.len()
                ));
            }
            for (size, set, surface) in group_sizes {
                if surface {
                    pure_products = false;
                }
                index_sets.push(set);
                terms.push(size);
            }
        } else {
            notes.push(format!(
                "array {array}: overlapping access groups could not be proven disjoint — using the conservative union bound (max of group sizes)"
            ));
            pure_products = false;
            let mut it = group_sizes.into_iter();
            // lint:allow(unwrap-expect): grouping a non-empty input always yields at least one group
            let (first, set, _) = it.next().expect("at least one group");
            let combined = it.fold(first, |acc, (e, _, _)| acc.max(e));
            index_sets.push(set);
            terms.push(combined);
        }
    }

    // Update (`+=`) output contribution: the accumulation-chain rule.
    if st.is_update {
        let out_vars = st.output.variables();
        let red = st.reduction_variables();
        let outer_red: Vec<String> = if red.len() > 1 {
            red[..red.len() - 1].to_vec()
        } else {
            Vec::new()
        };
        if !outer_red.is_empty() {
            notes.push(format!(
                "update output {}: accumulation chain is contiguous only along '{}'; outer reduction variables {:?} enter the dominator",
                out_array,
                red.last().cloned().unwrap_or_default(),
                outer_red
            ));
        }
        let expr = update_output_size(&out_vars, &outer_red);
        let set: Vec<usize> = out_vars
            .iter()
            .chain(outer_red.iter())
            .filter_map(|v| var_index.get(v.as_str()).copied())
            .collect();
        index_sets.push(set);
        terms.push(expr);
    }

    let dominator = Expr::sum(terms);
    let index_sets = if pure_products {
        index_sets
    } else {
        Vec::new()
    };
    (dominator, index_sets, notes)
}

/// Analyze a single SOAP statement: build the dominator model, solve it, and
/// assemble the leading-order I/O lower bound `Q ≥ |D| / ρ(S)` (Eq. 9).
pub fn analyze_statement(
    st: &Statement,
    opts: &AnalysisOptions,
) -> Result<StatementAnalysis, AnalysisError> {
    st.validate()
        .map_err(|e| AnalysisError::InvalidStatement(e.to_string()))?;
    let vars = st.loop_variables();
    let (dominator, index_sets, notes) = build_dominator(st, opts, &vars);
    let model = AccessModel {
        name: st.name.clone(),
        tile_variables: vars.iter().map(|v| tile_var(v)).collect(),
        objective: statement_chi(&vars),
        dominator: dominator.clone(),
        access_index_sets: index_sets,
    };
    let intensity = solve_model(&model.compile(), None).0?;
    let domain_size = st.execution_count();
    let params = st.parameters();
    let leading = domain_size.leading_terms(&params).to_expr();
    let bound = leading.div(intensity.rho.clone());
    Ok(StatementAnalysis {
        name: st.name.clone(),
        intensity,
        domain_size,
        bound,
        dominator,
        notes,
    })
}

/// Run the analysis under both branches of the Section 5.3 conditional
/// (conservative vs. injective subscripts), returning `(case2, case1)` in the
/// paper's numbering: the first element is the always-valid bound, the second
/// the large-stride bound.
pub fn analyze_conditional(
    st: &Statement,
) -> Result<(StatementAnalysis, StatementAnalysis), AnalysisError> {
    let conservative = analyze_statement(
        st,
        &AnalysisOptions {
            assume_injective: false,
        },
    )?;
    let injective = analyze_statement(
        st,
        &AnalysisOptions {
            assume_injective: true,
        },
    )?;
    Ok((conservative, injective))
}

#[cfg(test)]
mod tests {
    use super::*;
    use soap_ir::StatementBuilder;
    use soap_symbolic::Rational;
    use std::collections::BTreeMap;

    fn eval(e: &Expr, pairs: &[(&str, f64)]) -> f64 {
        let b: BTreeMap<String, f64> = pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        e.eval(&b).unwrap()
    }

    fn gemm() -> Statement {
        StatementBuilder::new("gemm")
            .loops(&[("i", "0", "N"), ("j", "0", "N"), ("k", "0", "N")])
            .update("C", "i,j")
            .read("A", "i,k")
            .read("B", "k,j")
            .build()
            .unwrap()
    }

    #[test]
    fn gemm_bound_is_two_n_cubed_over_sqrt_s() {
        let res = analyze_statement(&gemm(), &AnalysisOptions::default()).unwrap();
        assert_eq!(res.intensity.sigma, Rational::new(3, 2));
        // ρ(S) = sqrt(S)/2
        assert!((res.intensity.rho_at(10_000.0) - 50.0).abs() < 1.0);
        // Q(N=1000, S=10000) ≈ 2·10^9 / 100 = 2·10^7
        let q = eval(&res.bound, &[("N", 1000.0), ("S", 10_000.0)]);
        assert!((q - 2.0e7).abs() / 2.0e7 < 0.03, "bound {q}");
    }

    #[test]
    fn stencil_statement_reproduces_jacobi1d_bound() {
        // A[i,t+1] = (A[i-1,t] + A[i,t] + A[i+1,t])/3   =>  Q ≥ 2NT/S
        let st = StatementBuilder::new("jacobi1d")
            .loops(&[("t", "0", "T"), ("i", "1", "N - 1")])
            .write("A", "i,t+1")
            .read_multi("A", &["i-1,t", "i,t", "i+1,t"])
            .build()
            .unwrap();
        let res = analyze_statement(&st, &AnalysisOptions::default()).unwrap();
        assert_eq!(res.intensity.sigma, Rational::int(2));
        // ρ(S) = S/2 (up to lower-order terms).
        let rho = res.intensity.rho_at(1000.0);
        assert!((rho - 500.0).abs() / 500.0 < 0.05, "rho {rho}");
        let q = eval(&res.bound, &[("N", 1.0e4), ("T", 1.0e3), ("S", 100.0)]);
        let expected = 2.0 * 1.0e4 * 1.0e3 / 100.0;
        assert!(
            (q - expected).abs() / expected < 0.1,
            "bound {q} vs {expected}"
        );
    }

    #[test]
    fn lu_trailing_update_uses_disjoint_splitting() {
        // A[i,j] -= A[i,k]*A[k,j]  with i,j in k+1..N  =>  σ = 3/2, ρ = sqrt(S)/2.
        let st = StatementBuilder::new("lu_update")
            .loops(&[("k", "0", "N"), ("i", "k+1", "N"), ("j", "k+1", "N")])
            .update("A", "i,j")
            .read("A", "i,k")
            .read("A", "k,j")
            .build()
            .unwrap();
        let res = analyze_statement(&st, &AnalysisOptions::default()).unwrap();
        assert_eq!(res.intensity.sigma, Rational::new(3, 2));
        assert!((res.intensity.rho_at(10_000.0) - 50.0).abs() < 1.5);
        assert!(
            res.notes.iter().any(|n| n.contains("disjoint")),
            "notes: {:?}",
            res.notes
        );
        // |D| = N³/3 to leading order  =>  Q ≈ 2N³/(3·sqrt(S)).
        let q = eval(&res.bound, &[("N", 300.0), ("S", 10_000.0)]);
        let expected = 2.0 * 300.0_f64.powi(3) / (3.0 * 100.0);
        assert!(
            (q - expected).abs() / expected < 0.05,
            "bound {q} vs {expected}"
        );
    }

    #[test]
    fn transposed_reads_use_conservative_union() {
        // y[i] += A[i,j]*x[j] fused form that also reads A[j,i] must not count
        // A twice when the accesses cannot be proven disjoint.
        let st = StatementBuilder::new("sym_reads")
            .loops(&[("i", "0", "N"), ("j", "0", "N")])
            .update("y", "i")
            .read("A", "i,j")
            .read("A", "j,i")
            .read("x", "j")
            .build()
            .unwrap();
        let res = analyze_statement(&st, &AnalysisOptions::default()).unwrap();
        assert!(res.notes.iter().any(|n| n.contains("conservative")));
        assert_eq!(res.intensity.sigma, Rational::ONE);
        // ρ → 1: every compute vertex needs about one fresh A element.
        assert!((res.intensity.rho_at(64.0) - 1.0).abs() < 0.1);
    }

    #[test]
    fn direct_convolution_has_conditional_intensity() {
        // 7-loop direct convolution (Example 6).
        let st = StatementBuilder::new("conv")
            .loops(&[
                ("b", "0", "B"),
                ("c", "0", "C"),
                ("k", "0", "K"),
                ("w", "0", "W"),
                ("h", "0", "H"),
                ("r", "0", "R"),
                ("s", "0", "Sk"),
            ])
            .update("Out", "k,h,w,b")
            .read("Image", "r+2*w,s+2*h,c,b")
            .read("Filter", "k,r,s")
            .build()
            .unwrap();
        let (conservative, injective) = analyze_conditional(&st).unwrap();
        // Case 1 (injective): σ = 3/2  =>  ρ_min ~ sqrt(S).
        assert_eq!(injective.intensity.sigma, Rational::new(3, 2));
        // Case 2 (overlapping windows): σ = 2  =>  ρ_max ~ S.
        assert_eq!(conservative.intensity.sigma, Rational::int(2));
        assert!(conservative.intensity.rho_at(1000.0) > injective.intensity.rho_at(1000.0));
    }

    #[test]
    fn pure_write_statement_without_inputs_errors() {
        let st = StatementBuilder::new("init")
            .loops(&[("i", "0", "N")])
            .write("A", "i")
            .build()
            .unwrap();
        assert!(matches!(
            analyze_statement(&st, &AnalysisOptions::default()),
            Err(AnalysisError::NoInputs(_))
        ));
    }
}
