//! # par-core — the Photo Archive Reduction (PAR) problem model
//!
//! This crate implements the formal model of the PAR problem from
//! *"Efficiently Archiving Photos under Storage Constraints"* (EDBT 2023):
//! given a photo archive `P`, a set of policy-retained photos `S₀`, a family
//! of pre-defined subsets `Q` with importance weights `W`, per-subset photo
//! relevance scores `R`, a contextualized similarity function `SIM`, per-photo
//! byte costs `C`, and a storage budget `B`, select `S ⊇ S₀` with
//! `C(S) ≤ B` maximizing
//!
//! ```text
//! G(S) = Σ_{q∈Q} W(q) · Σ_{p∈q} R(q,p) · SIM(q, p, NN(q,p,S))
//! ```
//!
//! where `NN(q,p,S)` is the most similar photo to `p` among `S ∩ q`
//! (contributing 0 when `S ∩ q = ∅`).
//!
//! The crate provides:
//!
//! * [`Photo`], [`Subset`], [`Instance`] — the validated problem input;
//! * [`ContextSim`] — dense or sparse per-subset similarity storage, plus
//!   [`SimilarityProvider`] for materializing it from arbitrary sources
//!   (embeddings, oracles, test fixtures);
//! * [`Evaluator`] — an incremental objective evaluator with `O(deg)` marginal
//!   gain queries, the workhorse of every solver in `par-algo`;
//! * [`Solution`] — a feasibility-checked output with coverage statistics;
//! * [`fixtures`] — the paper's Figure 1 worked example, used throughout the
//!   test suites.
//!
//! The objective is nonnegative, monotone and submodular (Lemma 4.5 of the
//! paper); these invariants are enforced by property tests in this crate and
//! exploited by the lazy-greedy solvers in `par-algo`.
//!
//! # Example
//!
//! ```
//! use par_core::{Evaluator, FnSimilarity, InstanceBuilder, Solution};
//!
//! // Two near-duplicate cat photos and one dog photo, 100 KB each.
//! let mut b = InstanceBuilder::new(200_000); // 200 KB budget: keep two
//! let cat1 = b.add_photo("cat1.jpg", 100_000);
//! let cat2 = b.add_photo("cat2.jpg", 100_000);
//! let dog = b.add_photo("dog.jpg", 100_000);
//! b.add_subset("cats", 2.0, vec![cat1, cat2], vec![]); // uniform relevance
//! b.add_subset("dogs", 1.0, vec![dog], vec![]);
//! let inst = b
//!     .build_with_provider(&FnSimilarity(|_q, _a, _b| 0.9))
//!     .unwrap();
//!
//! // Greedy by marginal gain using the incremental evaluator.
//! let mut ev = Evaluator::new(&inst);
//! assert!(ev.gain(cat1) > ev.gain(dog)); // the cats subset weighs more
//! ev.add(cat1);
//! // cat2 is now nearly covered by cat1 (SIM 0.9): the dog wins.
//! assert!(ev.gain(dog) > ev.gain(cat2));
//! ev.add(dog);
//!
//! let sol = Solution::new(&inst, ev.selected_ids().to_vec()).unwrap();
//! assert!(sol.cost() <= inst.budget());
//! assert!(sol.score() > 2.8); // of the maximum 3.0
//! ```

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod components;
pub mod delta;
pub mod error;
pub mod fixtures;
pub mod ids;
pub mod instance;
pub mod objective;
pub mod pack;
pub mod photo;
pub mod sim;
pub mod solution;
pub mod stats;
pub mod subset;

pub use components::{
    decompose, shard_labels, ComponentView, Decomposition, ShardLabels,
};
pub use delta::{apply_delta, AppliedDelta, EpochDelta, MemberRef, PhotoAdd, QueryAdd};
pub use error::{ModelError, Result};
pub use ids::{PhotoId, SubsetId};
pub use instance::{Instance, InstanceBuilder, Membership};
pub use objective::{exact_score, exact_subset_score, EvalArena, EvalStats, Evaluator};
pub use pack::{fnv1a64, pack_instance, unpack_instance, PackError, PackedInstance};
pub use photo::Photo;
pub use sim::{ContextSim, DenseSim, FnSimilarity, SimilarityProvider, SparseSim, UnitSimilarity};
pub use solution::{CoverageStats, Solution};
pub use stats::InstanceStats;
pub use subset::Subset;
