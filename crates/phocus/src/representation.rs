//! The Data Representation Module: [`Universe`] → solvable [`Instance`].
//!
//! Mirrors Section 5.1 of the paper. Relevance normalization is delegated to
//! `par-core`'s instance builder; this module decides the *similarity
//! representation*:
//!
//! * contextual attention (per-subset reweighting of the embedding space,
//!   from the subset's label) vs the non-contextual global cosine;
//! * optional EXIF context-distance mixing (Sinha et al.);
//! * optional per-context distance normalization — "dividing all distances by
//!   the maximum distance between any two photos in the context";
//! * the sparsification mode: dense all-pairs ([`Sparsification::None`],
//!   PHOcus-NS), dense-then-threshold ([`Sparsification::Threshold`]), or
//!   SimHash LSH without ever computing all pairs ([`Sparsification::Lsh`],
//!   the PHOcus default for large inputs).

use crate::error::{PhocusError, Result};
use par_core::{
    ContextSim, DenseSim, Instance, InstanceBuilder, PhotoId, SparseSim, Subset, SubsetId,
};
#[cfg(test)]
use par_core::SimilarityProvider;
use par_datasets::Universe;
use par_embed::{ContextVector, ContextualSimilarity, NonContextualSimilarity};

/// Sparsification mode of the representation (Section 4.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sparsification {
    /// Materialize all pairwise similarities (PHOcus-NS).
    None,
    /// Materialize all pairs, then round those below `tau` down to zero.
    Threshold {
        /// The similarity threshold τ.
        tau: f64,
    },
    /// SimHash LSH per context: only verify colliding pairs; pairs below
    /// `tau` are never stored. Near-linear in the subset sizes.
    Lsh {
        /// The similarity threshold τ.
        tau: f64,
        /// Target recall of the LSH plan at τ.
        target_recall: f64,
        /// Hashing seed.
        seed: u64,
    },
}

/// Configuration of the Data Representation Module.
#[derive(Debug, Clone)]
pub struct RepresentationConfig {
    /// Use per-subset contextual attention (the paper's contextualized
    /// embeddings). When false, every context sees the global cosine.
    pub contextual: bool,
    /// Attention floor `α ∈ [0,1]` of the contextual reweighting
    /// (1 ⇒ effectively non-contextual).
    pub blend: f32,
    /// EXIF context-distance mixing weight `γ` (0 disables; ignored when the
    /// universe carries no EXIF).
    pub exif_weight: f64,
    /// Per-context max-distance normalization (Section 5.1).
    pub normalize_per_context: bool,
    /// Similarity sparsification mode.
    pub sparsification: Sparsification,
}

impl Default for RepresentationConfig {
    fn default() -> Self {
        RepresentationConfig {
            contextual: true,
            blend: 0.3,
            exif_weight: 0.0,
            normalize_per_context: false,
            sparsification: Sparsification::None,
        }
    }
}

impl RepresentationConfig {
    /// The PHOcus production representation: contextual + LSH sparsification.
    pub fn phocus(tau: f64) -> Self {
        RepresentationConfig {
            sparsification: Sparsification::Lsh {
                tau,
                target_recall: 0.95,
                seed: 0x9_0C05,
            },
            ..Default::default()
        }
    }

    /// The PHOcus-NS representation: contextual, dense.
    pub fn phocus_ns() -> Self {
        RepresentationConfig::default()
    }
}

fn builder_from_universe(universe: &Universe, budget: u64) -> InstanceBuilder {
    let mut b = InstanceBuilder::new(budget);
    for (name, &cost) in universe.names.iter().zip(&universe.costs) {
        b.add_photo(name.clone(), cost);
    }
    for &r in &universe.required {
        b.require(PhotoId(r));
    }
    for s in &universe.subsets {
        b.add_subset(
            s.label.clone(),
            s.weight,
            s.members.iter().map(|&m| PhotoId(m)).collect(),
            s.relevance.clone(),
        );
    }
    b
}

fn context_vectors(universe: &Universe, cfg: &RepresentationConfig) -> Vec<ContextVector> {
    let dim = universe.embeddings.first().map(|e| e.dim()).unwrap_or(1);
    universe
        .subsets
        .iter()
        .map(|s| {
            if cfg.contextual {
                ContextVector::from_label(dim, &s.label)
            } else {
                ContextVector::uniform(dim)
            }
        })
        .collect()
}

fn contextual_provider(universe: &Universe, cfg: &RepresentationConfig) -> ContextualSimilarity {
    let mut provider =
        ContextualSimilarity::new(universe.embeddings.clone(), context_vectors(universe, cfg));
    provider.blend = cfg.blend;
    if cfg.exif_weight > 0.0 {
        if let Some(exif) = &universe.exif {
            provider = provider.with_exif(exif.clone(), cfg.exif_weight);
        }
    }
    provider
}

/// Builds a dense store for one subset from a local pair function,
/// optionally applying per-context max-distance normalization.
fn dense_store_from_fn(
    subset_id: SubsetId,
    n: usize,
    pair: impl Fn(usize, usize) -> f64,
    normalize: bool,
) -> par_core::Result<DenseSim> {
    if !normalize {
        return DenseSim::from_local_fn(subset_id, n, pair);
    }
    let mut matrix = vec![1.0f64; n * n];
    let mut max_dist = 0.0f64;
    for i in 0..n {
        for j in 0..i {
            let s = pair(i, j);
            matrix[i * n + j] = s;
            matrix[j * n + i] = s;
            max_dist = max_dist.max(1.0 - s);
        }
    }
    if max_dist > 1e-12 {
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let d = (1.0 - matrix[i * n + j]) / max_dist;
                    matrix[i * n + j] = 1.0 - d;
                }
            }
        }
    }
    DenseSim::from_matrix(subset_id, n, &matrix)
}

/// Builds a dense store for one subset, optionally applying per-context
/// max-distance normalization. Generic over the provider; costs one
/// `similarity` call per pair. Retained as the reference implementation the
/// kernelized fast path is differentially tested against.
#[cfg(test)]
fn dense_store<P: SimilarityProvider>(
    subset: &Subset,
    provider: &P,
    normalize: bool,
) -> par_core::Result<DenseSim> {
    dense_store_from_fn(
        subset.id,
        subset.members.len(),
        |i, j| provider.similarity(subset, subset.members[i], subset.members[j]),
        normalize,
    )
}

/// The contextual-provider fast path: prepares the subset once (squared
/// attention weights + per-member norm terms hoisted out of the pair loop)
/// so each pair pays only a dot accumulation. Bit-identical to
/// [`dense_store`] with the same provider — asserted by
/// `kernelized_dense_build_is_bit_identical`.
fn dense_store_contextual(
    subset: &Subset,
    provider: &ContextualSimilarity,
    normalize: bool,
) -> par_core::Result<DenseSim> {
    let prepared = provider.prepare(subset);
    dense_store_from_fn(
        subset.id,
        subset.members.len(),
        |i, j| prepared.similarity_local(i, j),
        normalize,
    )
}

/// Runs the Data Representation Module: turns a universe plus budget and
/// representation choices into a validated, solvable instance.
///
/// Returns a [`PhocusError`] wrapping the failing layer: a model violation
/// from instance building, or an LSH planning failure when the sparsification
/// threshold or recall target is not a valid parameter.
pub fn represent(universe: &Universe, budget: u64, cfg: &RepresentationConfig) -> Result<Instance> {
    let builder = builder_from_universe(universe, budget);
    match cfg.sparsification {
        Sparsification::None => {
            let provider = contextual_provider(universe, cfg);
            let subsets = reconstruct_subsets(universe);
            let normalize = cfg.normalize_per_context;
            let sims = subsets.iter().map(|q| {
                Ok(ContextSim::Dense(dense_store_contextual(
                    q, &provider, normalize,
                )?))
            }).collect::<par_core::Result<Vec<_>>>()?;
            Ok(builder.build_with_sims(sims)?)
        }
        Sparsification::Threshold { tau } => {
            let provider = contextual_provider(universe, cfg);
            let subsets = reconstruct_subsets(universe);
            let normalize = cfg.normalize_per_context;
            let sims = subsets.iter().map(|q| {
                let dense = dense_store_contextual(q, &provider, normalize)?;
                Ok(ContextSim::Sparse(dense.sparsify(tau)))
            }).collect::<par_core::Result<Vec<_>>>()?;
            Ok(builder.build_with_sims(sims)?)
        }
        Sparsification::Lsh {
            tau,
            target_recall,
            seed,
        } => {
            let contexts = context_vectors(universe, cfg);
            let subsets = reconstruct_subsets(universe);

            // Per-context LSH over *contextual* embeddings ("a different
            // embedding of the same photo for different predefined
            // subsets"): each large subset gets its own small banded index,
            // so candidate pairs are by construction co-members and the
            // baseline collision noise of a single global index (which
            // scales with n² across ALL photos) never arises. The random
            // hyperplanes are shared across contexts — only the signatures
            // differ. Small contexts skip LSH entirely: exhaustive
            // comparison is cheaper below the cutoff.
            const EXACT_CUTOFF: usize = 48;
            // A capped engineering plan: the strict planner would demand
            // 1000+ bits at moderate thresholds; 9×20 = 180 bits catches
            // virtually all high-similarity pairs (≥99% at cos 0.85) and
            // most moderate ones, and misses only pairs whose loss
            // Figure 5e shows to be negligible. The cap respects the
            // caller's recall target when it is achievable within it.
            let planned = par_lsh::plan(tau, target_recall)?;
            let plan = if planned.total_bits() <= 256 {
                planned
            } else {
                par_lsh::LshPlan { rows: 9, bands: 20 }
            };
            let dim = universe.embeddings.first().map(|e| e.dim()).unwrap_or(1);
            let hasher = par_lsh::SimHasher::new(dim, plan.total_bits(), seed);

            let sims = subsets.iter().map(|q| {
                let qi = q.id.index();
                let ctx = &contexts[qi];
                let n = q.members.len();
                let mut pairs: Vec<(u32, u32, f64)> = Vec::new();
                if n <= EXACT_CUTOFF {
                    // Hoisted-invariant exact comparison: squared weights and
                    // per-member norms once, dot per pair — bit-identical to
                    // `contextual_cosine` on each pair.
                    let kernel = ctx.kernel(cfg.blend);
                    let norms: Vec<f64> = q
                        .members
                        .iter()
                        .map(|&p| kernel.norm_term(&universe.embeddings[p.index()]))
                        .collect();
                    for i in 0..n {
                        for j in 0..i {
                            let dot = kernel.dot_term(
                                &universe.embeddings[q.members[i].index()],
                                &universe.embeddings[q.members[j].index()],
                            );
                            let c = par_embed::ContextKernel::cosine_from_terms(
                                dot, norms[i], norms[j],
                            );
                            if c >= tau {
                                pairs.push((j as u32, i as u32, c));
                            }
                        }
                    }
                } else {
                    let vectors: Vec<par_embed::Embedding> = q
                        .members
                        .iter()
                        .map(|&p| {
                            ctx.contextual_embedding(&universe.embeddings[p.index()], cfg.blend)
                        })
                        .collect();
                    // Sign and verify in parallel batches. Candidate pairs
                    // arrive sorted from the index, and the verified cosines
                    // are filtered in that same order, so the sparse store
                    // is bit-identical to a serial run.
                    let signatures: Vec<par_lsh::Signature> =
                        par_exec::par_map_slice(&vectors, |v| hasher.sign(v.as_slice()));
                    let index = par_lsh::LshIndex::build(&signatures, plan.rows, plan.bands);
                    let mut candidates: Vec<(u32, u32)> = Vec::new();
                    index.for_candidate_pairs(|i, j| candidates.push((i, j)));
                    let verified = par_exec::par_map_slice(&candidates, |&(i, j)| {
                        par_lsh::cosine(
                            vectors[i as usize].as_slice(),
                            vectors[j as usize].as_slice(),
                        )
                    });
                    for (&(i, j), &c) in candidates.iter().zip(&verified) {
                        if c >= tau {
                            pairs.push((i, j, c));
                        }
                    }
                }
                Ok(ContextSim::Sparse(SparseSim::from_pairs(q.id, n, pairs)?))
            }).collect::<par_core::Result<Vec<_>>>()?;
            Ok(builder.build_with_sims(sims)?)
        }
    }
}

/// Rebuilds `Subset` values (ids, labels, members) from the universe, used
/// when stores are computed before instance validation. Relevance here is
/// raw; only ids/members matter for similarity computation.
fn reconstruct_subsets(universe: &Universe) -> Vec<Subset> {
    universe
        .subsets
        .iter()
        .enumerate()
        .map(|(i, s)| Subset {
            id: SubsetId(i as u32),
            label: s.label.as_str().into(),
            weight: s.weight,
            members: s.members.iter().map(|&m| PhotoId(m)).collect(),
            relevance: s.relevance.as_slice().into(),
        })
        .collect()
}

/// Builds the non-contextual similarity view of an already-represented
/// instance (same photos/subsets/budget, global-cosine similarities) — the
/// selection instance of the Greedy-NCS baseline.
pub fn non_contextual_view(inst: &Instance, universe: &Universe) -> Result<Instance> {
    let provider = NonContextualSimilarity {
        embeddings: universe.embeddings.clone(),
    };
    let mut sims = Vec::with_capacity(inst.num_subsets());
    for q in inst.subsets() {
        let dense = DenseSim::from_provider(q, &provider).map_err(PhocusError::Model)?;
        sims.push(ContextSim::Dense(dense));
    }
    Ok(inst.with_sims(sims))
}

#[cfg(test)]
mod tests {
    use super::*;
    use par_core::exact_score;
    use par_datasets::{generate_openimages, OpenImagesConfig};

    fn small_universe(seed: u64) -> Universe {
        generate_openimages(&OpenImagesConfig {
            name: "T".into(),
            photos: 120,
            target_subsets: 25,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn dense_representation_builds() {
        let u = small_universe(1);
        let budget = u.total_cost() / 3;
        let inst = represent(&u, budget, &RepresentationConfig::default()).unwrap();
        assert_eq!(inst.num_photos(), 120);
        assert_eq!(inst.num_subsets(), u.num_subsets());
        assert_eq!(inst.budget(), budget);
        // Relevance normalized per subset.
        for q in inst.subsets() {
            let s: f64 = q.relevance.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn threshold_sparsification_reduces_pairs() {
        let u = small_universe(2);
        let budget = u.total_cost() / 3;
        let dense = represent(&u, budget, &RepresentationConfig::default()).unwrap();
        let sparse = represent(
            &u,
            budget,
            &RepresentationConfig {
                sparsification: Sparsification::Threshold { tau: 0.6 },
                ..Default::default()
            },
        )
        .unwrap();
        assert!(sparse.stored_pairs() < dense.stored_pairs());
    }

    #[test]
    fn lsh_recovers_most_high_similarity_pairs() {
        let u = small_universe(3);
        let budget = u.total_cost() / 3;
        let tau = 0.7;
        let thresholded = represent(
            &u,
            budget,
            &RepresentationConfig {
                sparsification: Sparsification::Threshold { tau },
                ..Default::default()
            },
        )
        .unwrap();
        let lsh = represent(
            &u,
            budget,
            &RepresentationConfig {
                sparsification: Sparsification::Lsh {
                    tau,
                    target_recall: 0.95,
                    seed: 7,
                },
                ..Default::default()
            },
        )
        .unwrap();
        let exact_pairs = thresholded.stored_pairs();
        let lsh_pairs = lsh.stored_pairs();
        assert!(
            lsh_pairs as f64 >= 0.8 * exact_pairs as f64,
            "LSH found {lsh_pairs} of {exact_pairs} pairs"
        );
        assert!(lsh_pairs <= exact_pairs, "LSH must not invent pairs");
    }

    #[test]
    fn non_contextual_view_shares_structure() {
        let u = small_universe(4);
        let budget = u.total_cost() / 3;
        let inst = represent(&u, budget, &RepresentationConfig::default()).unwrap();
        let ncs = non_contextual_view(&inst, &u).unwrap();
        assert_eq!(ncs.num_photos(), inst.num_photos());
        assert_eq!(ncs.num_subsets(), inst.num_subsets());
        // Same set scores differently under the two views (contextual ≠
        // global) but both are valid objectives.
        let set: Vec<PhotoId> = (0..40).map(PhotoId).collect();
        let a = exact_score(&inst, &set);
        let b = exact_score(&ncs, &set);
        assert!(a > 0.0 && b > 0.0);
        assert!((a - b).abs() > 1e-9, "views should differ");
    }

    #[test]
    fn per_context_normalization_stretches_distances() {
        let u = small_universe(5);
        let budget = u.total_cost() / 2;
        let plain = represent(&u, budget, &RepresentationConfig::default()).unwrap();
        let norm = represent(
            &u,
            budget,
            &RepresentationConfig {
                normalize_per_context: true,
                ..Default::default()
            },
        )
        .unwrap();
        // After normalization some pair in each multi-member context attains
        // similarity 0 (the max-distance pair), so stored pairs can only
        // shrink or stay equal; and at least one subset must differ.
        let mut any_diff = false;
        for q in plain.subsets() {
            if q.members.len() < 2 {
                continue;
            }
            let a = plain.sim(q.id).sim(0, 1);
            let b = norm.sim(q.id).sim(0, 1);
            if (a - b).abs() > 1e-9 {
                any_diff = true;
            }
            assert!(b <= a + 1e-9, "normalization must not raise similarity");
        }
        assert!(any_diff);
    }

    #[test]
    fn kernelized_dense_build_is_bit_identical() {
        // The hoisted-invariant contextual build must reproduce the generic
        // per-pair provider build bit for bit, normalized or not, with and
        // without EXIF mixing.
        let mut u = small_universe(7);
        u.exif = Some(
            (0..u.num_photos())
                .map(|i| par_embed::ExifData::synthesize((i % 9) as u64, i as u64))
                .collect(),
        );
        for exif_weight in [0.0, 0.35] {
            for normalize in [false, true] {
                let cfg = RepresentationConfig {
                    exif_weight,
                    normalize_per_context: normalize,
                    ..Default::default()
                };
                let provider = contextual_provider(&u, &cfg);
                for q in &reconstruct_subsets(&u) {
                    let generic = dense_store(q, &provider, normalize).unwrap();
                    let fast = dense_store_contextual(q, &provider, normalize).unwrap();
                    assert_eq!(
                        generic.raw_tri(),
                        fast.raw_tri(),
                        "subset {:?} γ={exif_weight} normalize={normalize}",
                        q.id
                    );
                }
            }
        }
    }

    #[test]
    fn budget_must_cover_required() {
        let mut u = small_universe(6);
        u.required = vec![0, 1, 2];
        let tiny = u.costs[0] / 2;
        assert!(represent(&u, tiny, &RepresentationConfig::default()).is_err());
    }
}
