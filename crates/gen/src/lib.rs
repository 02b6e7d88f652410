//! # `wfdl-gen` — workload generators for tests, examples and benchmarks
//!
//! * [`chain`] — scaled variants of the paper's Example 4 (fixed `Σ`,
//!   growing `D`: the Theorem 13 data-complexity regime);
//! * [`winmove`] — the win–move game (terminating chase, genuinely
//!   three-valued models);
//! * [`random`] — random guarded normal programs (guarded by construction)
//!   with a stratified variant;
//! * [`employment`] — the Example 2 DL-Lite ontology at scale;
//! * [`fanout`] — thousands of shallow independent components (the
//!   per-component-overhead stress shape).
//!
//! All generators are deterministic per seed.

#![warn(missing_docs)]

pub mod chain;
pub mod employment;
pub mod fanout;
pub mod ontogen;
pub mod random;
pub mod winmove;

pub use chain::{chain_database, example4_sigma};
pub use employment::{employment_ontology, EmploymentConfig};
pub use fanout::{fanout_database, fanout_sigma, FanoutConfig};
pub use ontogen::{random_ontology, OntologyConfig};
pub use random::{
    random_database, random_program, random_stratified_program, RandomConfig, RandomDbConfig,
    RandomWorkload,
};
pub use winmove::{winmove_cycle, winmove_database, winmove_path, winmove_sigma, WinMoveConfig};
