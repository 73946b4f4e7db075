//! # soap-frontend
//!
//! Parsers that turn source code into SOAP IR, playing the role DaCe plays in
//! the paper's toolchain ("derive lower bounds directly from provided C
//! code").  Two dialects are supported, covering the input class the analysis
//! needs — perfectly or imperfectly nested affine loops around array
//! assignments:
//!
//! * a **Python-like** dialect (`for i in range(lo, hi):` with indentation),
//!   matching the listings in the paper;
//! * a **C-like** dialect (`for (i = lo; i < hi; i++) { ... }` with
//!   `A[i][j]`-style subscripts).
//!
//! Assignments of the form `X[...] = expr` become SOAP statements; `+=`, `-=`
//! and `*=` assignments become update statements; every array reference on the
//! right-hand side becomes an input access component.  Scalar temporaries and
//! arithmetic on the right-hand side are irrelevant for the I/O analysis and
//! are ignored beyond the array references they contain.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod c_like;
mod python_like;
mod rhs;

pub use c_like::parse_c;
pub use python_like::parse_python;

use soap_ir::IrError;

/// Largest source (in bytes) either parser accepts.  Real kernels are a few
/// hundred bytes; anything past this is rejected up front instead of parsed.
pub const MAX_SOURCE_BYTES: usize = 1 << 20;

/// Deepest loop nest either parser accepts.  The analysis cost is already
/// exponential in nesting depth, so this only guards against adversarial
/// input, not real programs.
pub const MAX_LOOP_DEPTH: usize = 64;

/// Most loops the statements of one source may copy in total, counting each
/// statement's enclosing nest once per statement (the sum of nest depth over
/// statements).  Every statement owns a copy of its loop nest, so a deep nest
/// around many one-line statements lowers to far more memory than its
/// source: 2,000 statements under 64 loops fit in 32 KB of source but copy
/// 128,000 loops.  The registry's largest programs copy a few hundred.
pub const MAX_LOWERED_LOOPS: usize = 1 << 14;

/// Errors produced by the front-end parsers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrontendError {
    /// A line could not be parsed.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// 1-based byte column where the offending construct starts.
        column: usize,
        /// Description of the problem.
        message: String,
    },
    /// A statement appeared outside of any loop.
    StatementOutsideLoop {
        /// 1-based line number.
        line: usize,
    },
    /// The source exceeds [`MAX_SOURCE_BYTES`].
    SourceTooLarge {
        /// Size of the rejected source in bytes.
        bytes: usize,
    },
    /// Loops nest deeper than [`MAX_LOOP_DEPTH`].
    NestingTooDeep {
        /// 1-based line number of the loop that exceeded the limit.
        line: usize,
    },
    /// The statements copy more than [`MAX_LOWERED_LOOPS`] loops in total.
    TooManyLoweredLoops {
        /// 1-based line number of the statement that exceeded the limit.
        line: usize,
    },
    /// Lowering to the IR failed.
    Ir(IrError),
}

impl std::fmt::Display for FrontendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrontendError::Syntax {
                line,
                column,
                message,
            } => write!(f, "line {line}, column {column}: {message}"),
            FrontendError::StatementOutsideLoop { line } => {
                write!(f, "line {line}: statement outside of any loop")
            }
            FrontendError::SourceTooLarge { bytes } => {
                write!(
                    f,
                    "source is {bytes} bytes, above the {MAX_SOURCE_BYTES}-byte limit"
                )
            }
            FrontendError::NestingTooDeep { line } => {
                write!(
                    f,
                    "line {line}: loops nest deeper than the limit of {MAX_LOOP_DEPTH}"
                )
            }
            FrontendError::TooManyLoweredLoops { line } => {
                write!(
                    f,
                    "line {line}: the statements copy more than {MAX_LOWERED_LOOPS} enclosing loops in total"
                )
            }
            FrontendError::Ir(e) => write!(f, "IR error: {e}"),
        }
    }
}

/// 1-based byte column of the subslice `part` inside the line `whole` it was
/// sliced from.  Falls back to column 1 when `part` is not a subslice.
pub(crate) fn column_of(whole: &str, part: &str) -> usize {
    let whole_range = whole.as_ptr() as usize..whole.as_ptr() as usize + whole.len();
    let part_start = part.as_ptr() as usize;
    if whole_range.contains(&part_start) || part_start == whole_range.end {
        part_start - whole_range.start + 1
    } else {
        1
    }
}

/// `text.split_once(pat)` for a non-empty ASCII `pat`: candidates are found
/// by `memchr` on the first byte and checked in place.  On the short lines
/// parsed here, the setup of the general substring search costs more than
/// the search.
pub(crate) fn split_once_short<'a>(text: &'a str, pat: &str) -> Option<(&'a str, &'a str)> {
    let first = char::from(pat.as_bytes()[0]);
    let mut from = 0;
    while let Some(k) = text[from..].find(first) {
        let at = from + k;
        if text.as_bytes()[at..].starts_with(pat.as_bytes()) {
            return Some((&text[..at], &text[at + pat.len()..]));
        }
        from = at + 1;
    }
    None
}

impl std::error::Error for FrontendError {}

impl From<IrError> for FrontendError {
    fn from(e: IrError) -> Self {
        FrontendError::Ir(e)
    }
}
