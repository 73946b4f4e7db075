//! SOAP statements.

use crate::access::ArrayAccess;
use crate::domain::IterationDomain;
use crate::IrError;
use soap_symbolic::Polynomial;
use std::collections::BTreeSet;
use std::fmt;

/// One SOAP statement: a loop nest around `A₀[φ₀(ψ)] ← f(A₁[φ₁(ψ)], …)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Statement {
    /// Statement name (used in reports and the SDG).
    pub name: String,
    /// The enclosing loop nest (iteration domain D).
    pub domain: IterationDomain,
    /// The output access `A₀[φ₀(ψ)]`.
    pub output: ArrayAccess,
    /// The input accesses `A₁[φ₁(ψ)], …, A_m[φ_m(ψ)]`.
    pub inputs: Vec<ArrayAccess>,
    /// True for update statements (`+=`-style): the output element is also
    /// read, i.e. the statement performs a reduction over the loop variables
    /// that do not appear in the output access.
    pub is_update: bool,
}

impl Statement {
    /// Validate structural invariants: non-empty loop nest, unique loop
    /// variables, consistent access arities, and subscripts that reference
    /// only loop variables of this statement.
    ///
    /// Names are compared in place, nothing is copied: the nest is a handful
    /// of loops, so a scan of it beats building a set.  Of several unknown
    /// variables in one access, the alphabetically first is reported.
    pub fn validate(&self) -> Result<(), IrError> {
        let loops = &self.domain.loops;
        if loops.is_empty() {
            return Err(IrError::EmptyLoopNest {
                statement: self.name.clone(),
            });
        }
        for (depth, lv) in loops.iter().enumerate() {
            if loops[..depth].iter().any(|outer| outer.name == lv.name) {
                return Err(IrError::DuplicateLoopVariable {
                    statement: self.name.clone(),
                    variable: lv.name.clone(),
                });
            }
        }
        for acc in std::iter::once(&self.output).chain(self.inputs.iter()) {
            let dim = acc.dim();
            if acc.components.iter().any(|c| c.arity() != dim) {
                return Err(IrError::InconsistentArity {
                    array: acc.array.clone(),
                });
            }
            let mut unknown: Option<&String> = None;
            for ix in acc.components.iter().flat_map(|c| &c.indices) {
                for var in ix.coeffs.keys() {
                    if !loops.iter().any(|lv| lv.name == *var) && unknown.is_none_or(|u| var < u) {
                        unknown = Some(var);
                    }
                }
            }
            if let Some(var) = unknown {
                return Err(IrError::UnknownVariable {
                    statement: self.name.clone(),
                    variable: var.clone(),
                });
            }
        }
        Ok(())
    }

    /// Names of the loop variables (outermost first).
    pub fn loop_variables(&self) -> Vec<String> {
        self.domain.variable_names()
    }

    /// The loop variables that do **not** appear in the output access — the
    /// reduction variables of an update statement (e.g. `k` in `C[i,j] += …`).
    /// Ordered outermost first.
    pub fn reduction_variables(&self) -> Vec<String> {
        let out_vars: BTreeSet<String> = self.output.variables().into_iter().collect();
        self.loop_variables()
            .into_iter()
            .filter(|v| !out_vars.contains(v))
            .collect()
    }

    /// The innermost reduction variable, if any.  For update statements this
    /// is the dimension along which consecutive output versions are chained.
    pub fn innermost_reduction_variable(&self) -> Option<String> {
        self.reduction_variables().into_iter().last()
    }

    /// All arrays read by the statement (input arrays, deduplicated, in
    /// first-appearance order).
    pub fn input_arrays(&self) -> Vec<String> {
        let mut out = Vec::new();
        for acc in &self.inputs {
            if !out.contains(&acc.array) {
                out.push(acc.array.clone());
            }
        }
        if self.is_update && !out.contains(&self.output.array) {
            out.push(self.output.array.clone());
        }
        out
    }

    /// The array written by the statement.
    pub fn output_array(&self) -> &str {
        &self.output.array
    }

    /// The exact number of statement executions `|D|` as a polynomial in the
    /// symbolic size parameters.
    pub fn execution_count(&self) -> Polynomial {
        self.domain.cardinality()
    }

    /// The symbolic size parameters referenced by the loop bounds (symbols
    /// appearing in bounds that are not themselves loop variables).
    pub fn parameters(&self) -> Vec<String> {
        let loop_vars: BTreeSet<String> = self.loop_variables().into_iter().collect();
        let mut out = BTreeSet::new();
        for lv in &self.domain.loops {
            for s in lv.lower.symbols().chain(lv.upper.symbols()) {
                if !loop_vars.contains(s) {
                    out.insert(s.clone());
                }
            }
        }
        out.into_iter().collect()
    }

    /// All input accesses of a given array.
    pub fn accesses_of(&self, array: &str) -> Vec<&ArrayAccess> {
        self.inputs.iter().filter(|a| a.array == array).collect()
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = if self.is_update { "+=" } else { "=" };
        let inputs: Vec<String> = self.inputs.iter().map(|a| format!("{}", a)).collect();
        write!(
            f,
            "{}: {} {} f({})  over {{{}}}",
            self.name,
            self.output,
            op,
            inputs.join(", "),
            self.loop_variables().join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::StatementBuilder;

    fn mmm() -> Statement {
        StatementBuilder::new("mmm")
            .loops(&[("i", "0", "N"), ("j", "0", "N"), ("k", "0", "N")])
            .update("C", "i,j")
            .read("A", "i,k")
            .read("B", "k,j")
            .build()
            .unwrap()
    }

    #[test]
    fn validation_accepts_well_formed_statements() {
        assert!(mmm().validate().is_ok());
    }

    #[test]
    fn validation_rejects_unknown_variables() {
        let bad = StatementBuilder::new("bad")
            .loops(&[("i", "0", "N")])
            .write("C", "i")
            .read("A", "q")
            .build();
        assert!(matches!(bad, Err(IrError::UnknownVariable { .. })));
    }

    #[test]
    fn validation_rejects_duplicate_loop_variables() {
        let bad = StatementBuilder::new("bad")
            .loops(&[("i", "0", "N"), ("i", "0", "N")])
            .write("C", "i")
            .build();
        assert!(matches!(bad, Err(IrError::DuplicateLoopVariable { .. })));
    }

    #[test]
    fn reduction_variables_of_mmm() {
        let st = mmm();
        assert_eq!(st.reduction_variables(), vec!["k".to_string()]);
        assert_eq!(st.innermost_reduction_variable(), Some("k".to_string()));
        assert_eq!(
            st.input_arrays(),
            vec!["A".to_string(), "B".to_string(), "C".to_string()]
        );
    }

    #[test]
    fn execution_count_is_cubic() {
        let st = mmm();
        let count = st.execution_count();
        let mut b = std::collections::BTreeMap::new();
        b.insert("N".to_string(), 10.0);
        assert_eq!(count.eval(&b).unwrap(), 1000.0);
        assert_eq!(st.parameters(), vec!["N".to_string()]);
    }
}
