//! # soap-sdg
//!
//! Multi-statement SOAP analysis through the **Symbolic Directed Graph**
//! (Section 6 of the paper).
//!
//! I/O lower bounds do not compose: fusing statements can reuse intermediate
//! arrays and recompute values, lowering the total I/O below the sum of the
//! per-statement bounds.  The SDG models this: every array is a vertex, every
//! producer→consumer relation an edge.  For every (connected) subgraph `H` of
//! computed arrays we build the *subgraph SOAP statement* `St_H` — the fusion
//! of the statements writing arrays in `H`, whose inputs are only the arrays
//! outside `H` plus the per-statement accumulation-chain terms — and solve its
//! intensity `ρ_H` with `soap-core`.  Theorem 1 then yields
//!
//! ```text
//!     Q  ≥  Σ_{A ∈ computed arrays}  |A| / max_{H ∋ A} ρ_H .
//! ```
//!
//! Subgraph evaluation is embarrassingly parallel and runs under rayon;
//! structurally identical merged models (canonical key modulo variable
//! renaming, see [`cache`]) are solved once and answered from a shared,
//! sharded cache — which [`batch`] extends across whole *suites* of
//! programs, deduplicating renamed structures program-to-program, and
//! [`store`] extends across *processes* by persisting canonical solutions to
//! disk (warm runs re-solve nothing and reproduce cold output byte-for-byte).
//!
//! The whole front half — subgraph enumeration, statement merging,
//! canonical-key construction and stored-solution instantiation — runs on a
//! shared self-scheduling worker pool sized by [`worker_budget`]
//! (`SOAP_THREADS` / `--threads`, see [`set_worker_budget`]).  Output is a
//! pure function of program structure: byte-identical for any thread count,
//! shard count, or program order.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod batch;
pub mod cache;
pub mod faults;
pub mod graph;
pub mod merge;
pub mod service;
pub mod store;
pub mod subgraphs;

pub use analysis::{
    analyze_program, analyze_program_with_cache, ArrayBound, PhaseTimings, ProgramAnalysis,
    SdgOptions, SolverSummary,
};
pub use faults::{parse_fault_plan, FaultPlan};
pub use soap_symbolic::Deadline;
// The worker-pool controls live in the vendored `rayon` stand-in; re-export
// them so CLI/bench/test crates configure threading through one front door.
pub use batch::{
    analyze_suite, analyze_suite_with, parse_timeout_ms, BatchAnalysis, ProgramReport,
    SuiteProgram, SuiteSummary,
};
pub use cache::{
    canonicalize, CacheSession, CacheStats, CanonicalKey, SolveCache, DEFAULT_CACHE_SHARDS,
};
pub use graph::{Sdg, SdgEdge};
pub use merge::merged_model;
pub use rayon::{parse_worker_threads, set_worker_budget, worker_budget, MAX_WORKER_THREADS};
pub use service::{canonical_program_hash, structural_program_key, Claim, InFlight, LeaderGuard};
pub use store::{SolveStore, StoreFlushStats, StoreLoadStats, REPORT_HEADER, STORE_HEADER};
pub use subgraphs::{
    enumerate_connected_subgraphs, enumerate_connected_subgraphs_governed, SubgraphEnumeration,
};
