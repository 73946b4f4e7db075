//! # soap-core
//!
//! Single-statement SOAP I/O lower-bound analysis — the paper's Section 4
//! pipeline:
//!
//! 1. **Access-set sizes** (Lemma 3 / Corollary 1, [`access_size`]): for every
//!    input array, the minimum number of distinct vertices any rectangular
//!    subcomputation with tile extents `|D_t|` must touch.
//! 2. **Dominator model** ([`model`]): the optimization problem (8)
//!    `max χ(D) s.t. Σ_j |A_j(D)| ≤ X, D_t ≥ 1` and its solution: the exponent
//!    σ (exact, via the access LP), the constant `c` of `χ(X) = c·X^σ`
//!    (numeric KKT + closed-form recognition), the computational intensity
//!    `ρ(S)`, the optimal `X₀`, and the optimal tile shapes.
//! 3. **Statement analysis** ([`analysis`]): assembling the above into the
//!    final lower bound `Q ≥ |D| / ρ` (Eq. 9) together with the exact
//!    iteration-domain cardinality `|D|`.
//! 4. **Projections** ([`projections`], Section 5): splitting provably
//!    disjoint access sets, version dimensions for `+=` updates, and
//!    conditional intensities for non-injective accesses (convolution strides).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access_size;
pub mod analysis;
pub mod model;
pub mod projections;

pub use analysis::{analyze_conditional, analyze_statement, AnalysisOptions, StatementAnalysis};
pub use model::{fit_intensity, solve_model, AccessModel, CompiledModel, IntensityResult};

/// Errors produced by the analysis.
#[derive(Clone, Debug, PartialEq)]
pub enum AnalysisError {
    /// The statement failed IR validation.
    InvalidStatement(String),
    /// The statement has no input accesses at all, so its I/O is dominated by
    /// compulsory output traffic only.
    NoInputs(String),
    /// The numeric optimizer failed to produce a finite intensity.
    NumericalFailure(String),
    /// The analysis itself panicked (a bug, not a property of the input);
    /// produced when a caught worker panic is surfaced as an isolated
    /// per-program error instead of tearing down the whole batch.
    Internal(String),
    /// The work was abandoned at a deterministic commit point because a
    /// deadline expired or a cancellation was requested.  Never cached and
    /// never persisted: a cancelled solve says nothing about the model, only
    /// about the budget of the run that attempted it.
    Cancelled(String),
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::InvalidStatement(msg) => write!(f, "invalid statement: {msg}"),
            AnalysisError::NoInputs(name) => write!(f, "statement {name} has no input accesses"),
            AnalysisError::NumericalFailure(msg) => write!(f, "numerical failure: {msg}"),
            AnalysisError::Internal(msg) => write!(f, "internal analysis failure: {msg}"),
            AnalysisError::Cancelled(msg) => write!(f, "cancelled: {msg}"),
        }
    }
}

impl std::error::Error for AnalysisError {}
