//! # phocus — the end-to-end photo-archival system
//!
//! PHOcus (Figure 4 of the paper) consists of two modules behind a user
//! interface:
//!
//! * the **Data Representation Module** ([`representation`]) prepares the PAR
//!   input: it normalizes relevance scores, derives contextualized
//!   similarities from embeddings (optionally mixing EXIF context distances
//!   and applying per-context distance normalization), and materializes the
//!   similarity stores — dense all-pairs for PHOcus-NS, or τ-sparsified via
//!   SimHash LSH for PHOcus;
//! * the **Solver** ([`solver`]) runs the two-rule CELF lazy greedy
//!   (Algorithm 1) on the represented instance and reports the retained set
//!   together with a-posteriori quality certificates (online bound,
//!   Theorem 4.8 sparsification bound).
//!
//! [`suite`] orchestrates PHOcus against every baseline of Section 5.2 under
//! a common true-objective evaluation — the engine behind the experiment
//! harness in `par-bench`. [`fleet`] scales the pipeline from one library to
//! many: a multi-tenant engine that schedules tenant solves largest-first
//! across the persistent worker pool and reuses solver arenas between
//! tenants (`phocus serve-batch`). [`session`] scales it through *time*: an
//! [`ArchiveSession`] keeps the instance and warm per-component solver state
//! resident across epochs, applying [`par_core::EpochDelta`]s and replaying
//! clean-component stream transcripts (`phocus epochs`). The `phocus` binary
//! exposes all of it on the command line.

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod catalog;
pub mod compression;
pub mod error;
pub mod fleet;
pub mod planner;
pub mod report;
pub mod representation;
pub mod session;
pub mod solver;
pub mod suite;

pub use compression::{
    epsilon_free_score, expand_with_variants, multi_action_frontier, prune_and_refill,
    represent_with_variants, solve_multi_action, ActionLadder, CompressionLevel, FrontierPoint,
    MultiActionSolve, VariantMap, DEFAULT_LADDER,
};
pub use catalog::{Catalog, CatalogBuilder, CatalogEntry};
pub use error::{PhocusError, Result};
pub use fleet::{
    budget_by_fraction, fraction_budget, FleetEngine, FleetEngineConfig, FleetTenant,
    TenantOutcome, TenantReport,
};
pub use par_exec::Parallelism;
pub use planner::{minimal_budget, BudgetPlan};
pub use report::render_report;
pub use representation::{non_contextual_view, represent, RepresentationConfig, Sparsification};
pub use session::{ArchiveSession, EpochSolve};
pub use solver::{Phocus, PhocusConfig, PhocusReport};
pub use suite::{run_suite, SuiteConfig, SuiteEntry, SuiteResult};
