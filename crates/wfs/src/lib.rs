//! # `wfdl-wfs` — well-founded semantics engines
//!
//! The paper's primary contribution, made executable (see `README.md` in
//! this directory for the full engine-architecture overview):
//!
//! * [`scc::ModularEngine`] — SCC-condensation modular evaluation (the
//!   default): Tarjan's algorithm over the atom dependency graph,
//!   negation-free components by a flat semi-naive pass, the `W_P`
//!   machinery only on components with internal negation, lower-component
//!   verdicts substituted in as they resolve;
//! * [`wp::WpEngine`] — the definitional `W_P = T_P ∪ ¬.U_P` least fixpoint
//!   with greatest-unfounded-set computation (Section 2.6), in both a
//!   stage-faithful and an accelerated regime; also the modular engine's
//!   subsolver for recursive components;
//! * [`alternating::AlternatingEngine`] — Van Gelder's alternating fixpoint,
//!   an independent engine used for cross-validation and ablation;
//! * [`forward::ForwardEngine`] — the forward-proof operator `Ŵ_P`
//!   evaluated on chase segments (Definitions 5/7, Theorem 8);
//! * [`stratified`] — stratification test and perfect-model baseline \[1\];
//! * [`wcheck`] — demand-driven single-atom membership (Section 4's WCHECK,
//!   deterministically realized) with extractable, independently verifiable
//!   certificates;
//! * [`solver`] — the top-level `WFS(D, Σ)` API combining chase and engines
//!   with exactness reporting and a deepening heuristic.
//!
//! All engines read the storage layer's dense data layout directly: the
//! [`wfdl_storage::GroundProgram`] local atom ids and CSR occurrence
//! indexes, so the hot loops are flat array walks with Dowling–Gallier
//! counters — no hashing, and no per-engine copies of the program.

#![warn(missing_docs)]

pub mod alternating;
pub mod forward;
pub mod result;
pub mod scc;
pub mod solver;
pub mod stable;
pub mod stratified;
pub mod trace;
pub mod types;
pub mod wcheck;
pub mod wp;

pub use alternating::AlternatingEngine;
pub use forward::ForwardEngine;
pub use result::EngineResult;
pub use scc::{condensation, Condensation, ModularEngine, ModularMemo, ModularStats};
pub use solver::{
    constraint_status, lower_with_constraints, solve, solve_stable, EngineKind, SolveOutput,
    SolveRequest, SolveStats, StabilityReport, WellFoundedModel, WfsOptions,
};
pub use stable::stable_models;
pub use stratified::{perfect_model, stratify, Stratification};
pub use trace::{StageTrace, TraceEntry};
pub use types::{
    atom_type, canonical_type_of, canonicalize, subtree_signature, type_census, AtomType,
    CanonTerm, CanonicalType, TypeCensus,
};
pub use wp::{StepMode, WpEngine};
