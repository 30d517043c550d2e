//! The validated PAR [`Instance`] and its [`InstanceBuilder`].
//!
//! An instance is the paper's tuple `⟨P, S₀, Q, C, W, R, SIM, B⟩` in
//! materialized form. Construction goes through [`InstanceBuilder`], which
//! normalizes relevance scores and materializes per-subset similarity stores
//! from a [`SimilarityProvider`] (or accepts pre-built [`ContextSim`] stores,
//! e.g. from an LSH pipeline).
//!
//! Every instance — built, produced by an epoch delta ([`crate::delta`]) or
//! loaded from a pack ([`crate::pack`]) — comes out of one crate-private
//! constructor that checks every invariant of Section 3.1 and derives the
//! membership reverse-index and cost totals itself; none of them is taken on
//! trust from the source.
//!
//! The heavyweight parts of an instance (photos, subsets, similarities, the
//! membership reverse-index) live behind an [`Arc`], so deriving variants —
//! a different budget for a sweep, a τ-sparsified similarity, a unit-similarity
//! view for the Greedy-NR baseline — is cheap.

use crate::sim::{ContextSim, DenseSim};
use crate::{ModelError, Photo, PhotoId, Result, SimilarityProvider, Subset, SubsetId};
use std::sync::Arc;

/// One entry of the photo → subset reverse index: photo appears in `subset`
/// at local member index `local`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Membership {
    /// The subset containing the photo.
    pub subset: SubsetId,
    /// The photo's local index within that subset's member list.
    pub local: u32,
}

/// Immutable core of an instance, shared between budget/similarity variants.
#[derive(Debug)]
struct Core {
    photos: Vec<Photo>,
    required: Vec<bool>,
    required_ids: Vec<PhotoId>,
    required_cost: u64,
    subsets: Vec<Subset>,
    /// CSR reverse index: photo `p`'s memberships are
    /// `membership_data[membership_offsets[p] .. membership_offsets[p + 1]]`.
    /// Flat storage keeps the per-epoch instance rebuild of
    /// [`crate::delta`] to two allocations and the hot coverage loops of
    /// [`crate::objective`] on one contiguous buffer.
    membership_offsets: Vec<u32>,
    membership_data: Vec<Membership>,
    total_cost: u64,
}

/// A validated PAR problem instance.
///
/// Cheap to clone: similarity stores and the core share `Arc`s. Use
/// [`Instance::with_budget`] for budget sweeps and [`Instance::sparsify`] /
/// [`Instance::with_sims`] to derive similarity variants over the same data.
#[derive(Debug, Clone)]
pub struct Instance {
    core: Arc<Core>,
    /// One store per subset; each store is individually `Arc`ed so component
    /// sub-views (see [`crate::components`]) can share unsplit stores with
    /// their parent instance.
    sims: Arc<Vec<Arc<ContextSim>>>,
    budget: u64,
}

impl Instance {
    /// Number of photos `n = |P|`.
    #[inline]
    pub fn num_photos(&self) -> usize {
        self.core.photos.len()
    }

    /// Number of pre-defined subsets `|Q|`.
    #[inline]
    pub fn num_subsets(&self) -> usize {
        self.core.subsets.len()
    }

    /// All photos, indexed by [`PhotoId`].
    #[inline]
    pub fn photos(&self) -> &[Photo] {
        &self.core.photos
    }

    /// The photo with the given id.
    #[inline]
    pub fn photo(&self, id: PhotoId) -> &Photo {
        &self.core.photos[id.index()]
    }

    /// Storage cost `C(p)` in bytes.
    #[inline]
    pub fn cost(&self, id: PhotoId) -> u64 {
        self.core.photos[id.index()].cost
    }

    /// All pre-defined subsets, indexed by [`SubsetId`].
    #[inline]
    pub fn subsets(&self) -> &[Subset] {
        &self.core.subsets
    }

    /// The subset with the given id.
    #[inline]
    pub fn subset(&self, id: SubsetId) -> &Subset {
        &self.core.subsets[id.index()]
    }

    /// The similarity store for the given subset (context).
    #[inline]
    pub fn sim(&self, id: SubsetId) -> &ContextSim {
        &self.sims[id.index()]
    }

    /// All similarity stores, parallel to [`Instance::subsets`]. Each store
    /// sits behind its own `Arc` so derived sub-views can share it.
    #[inline]
    pub fn sims(&self) -> &[Arc<ContextSim>] {
        &self.sims
    }

    /// The shared handle to a subset's similarity store (for building
    /// sub-views that alias the parent's store).
    #[inline]
    pub(crate) fn sim_arc(&self, id: SubsetId) -> &Arc<ContextSim> {
        &self.sims[id.index()]
    }

    /// The storage budget `B` in bytes.
    #[inline]
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Whether policy requires `p` to be retained (`p ∈ S₀`).
    #[inline]
    pub fn is_required(&self, p: PhotoId) -> bool {
        self.core.required[p.index()]
    }

    /// The policy-retained photos `S₀`.
    #[inline]
    pub fn required(&self) -> &[PhotoId] {
        &self.core.required_ids
    }

    /// Total cost of `S₀` in bytes.
    #[inline]
    pub fn required_cost(&self) -> u64 {
        self.core.required_cost
    }

    /// Total cost `C(P)` of the full archive in bytes.
    #[inline]
    pub fn total_cost(&self) -> u64 {
        self.core.total_cost
    }

    /// Every (subset, local index) membership of photo `p`.
    #[inline]
    pub fn memberships(&self, p: PhotoId) -> &[Membership] {
        let lo = self.core.membership_offsets[p.index()] as usize;
        let hi = self.core.membership_offsets[p.index() + 1] as usize;
        &self.core.membership_data[lo..hi]
    }

    /// The maximum attainable objective value `Σ_q W(q)`, achieved by
    /// retaining all photos (each subset then scores exactly 1).
    pub fn max_score(&self) -> f64 {
        self.core.subsets.iter().map(|q| q.weight).sum()
    }

    /// Derives an instance with a different budget, sharing all data.
    pub fn with_budget(&self, budget: u64) -> Result<Self> {
        if self.core.required_cost > budget {
            return Err(ModelError::RequiredSetOverBudget {
                required_cost: self.core.required_cost,
                budget,
            });
        }
        Ok(Instance {
            core: Arc::clone(&self.core),
            sims: Arc::clone(&self.sims),
            budget,
        })
    }

    /// Derives an instance with replaced similarity stores (e.g. the
    /// non-contextual stores of the Greedy-NCS baseline). Stores must be
    /// parallel to the subsets and sized to match each member list.
    pub fn with_sims(&self, sims: Vec<ContextSim>) -> Self {
        assert_eq!(sims.len(), self.core.subsets.len());
        for (q, s) in self.core.subsets.iter().zip(&sims) {
            assert_eq!(q.members.len(), s.len(), "similarity store size mismatch");
        }
        Instance {
            core: Arc::clone(&self.core),
            sims: Arc::new(sims.into_iter().map(Arc::new).collect()),
            budget: self.budget,
        }
    }

    /// Derives the τ-sparsified instance of Section 4.3: all similarities
    /// below `tau` are rounded down to 0.
    pub fn sparsify(&self, tau: f64) -> Self {
        let sims = self.sims.iter().map(|s| Arc::new(s.sparsify(tau))).collect();
        Instance {
            core: Arc::clone(&self.core),
            sims: Arc::new(sims),
            budget: self.budget,
        }
    }

    /// Derives the unit-similarity view used by the Greedy-NR baseline:
    /// `SIM(q, p, p') = 1` for all co-members, turning the objective into
    /// weighted subset coverage.
    pub fn with_unit_sims(&self) -> Self {
        let sims = self
            .core
            .subsets
            .iter()
            .map(|q| Arc::new(ContextSim::Unit(q.members.len())))
            .collect();
        Instance {
            core: Arc::clone(&self.core),
            sims: Arc::new(sims),
            budget: self.budget,
        }
    }

    /// Total number of stored nonzero similarity pairs across all contexts —
    /// the size measure that τ-sparsification reduces.
    pub fn stored_pairs(&self) -> usize {
        self.sims.iter().map(|s| s.nonzero_pairs()).sum()
    }

    /// The one constructor: checks the model of Section 3.1
    /// ([`check_model`]), builds the similarity stores from the checked
    /// subsets, then derives the membership reverse-index, the `S₀` flags and
    /// the cost totals. Relevance is installed as given — **no**
    /// normalization — so a builder's freshly normalized scores, an epoch
    /// delta's surviving scores (whose bits the incremental solver's
    /// bit-identity rests on) and a pack's stored scores all keep their bits.
    ///
    /// `sims` sees only checked subsets, so a provider may index its photo
    /// tables by member id.
    pub(crate) fn assemble(
        photos: Vec<Photo>,
        required: Vec<PhotoId>,
        subsets: Vec<Subset>,
        budget: u64,
        sims: impl FnOnce(&[Subset]) -> Result<Vec<Arc<ContextSim>>>,
    ) -> Result<Instance> {
        let (required_cost, total_cost) = check_model(&photos, &required, &subsets, budget)?;
        let sims = sims(&subsets)?;
        let n = photos.len();
        // Two-pass CSR build: count per-photo degrees, prefix-sum into
        // offsets, then scatter. Subsets are visited ascending both times,
        // so each photo's slice is in subset order.
        let mut membership_offsets = vec![0u32; n + 1];
        for q in &subsets {
            for &m in &q.members {
                membership_offsets[m.index() + 1] += 1;
            }
        }
        for i in 0..n {
            membership_offsets[i + 1] += membership_offsets[i];
        }
        let total_members = membership_offsets[n] as usize;
        let mut membership_data = vec![
            Membership {
                subset: SubsetId(0),
                local: 0,
            };
            total_members
        ];
        let mut cursor = membership_offsets.clone();
        for q in &subsets {
            for (local, &m) in q.members.iter().enumerate() {
                let slot = cursor[m.index()] as usize;
                cursor[m.index()] += 1;
                membership_data[slot] = Membership {
                    subset: q.id,
                    local: local as u32,
                };
            }
        }
        let mut required_flags = vec![false; n];
        for &r in &required {
            required_flags[r.index()] = true;
        }
        Ok(Instance {
            core: Arc::new(Core {
                photos,
                required: required_flags,
                required_ids: required,
                required_cost,
                subsets,
                membership_offsets,
                membership_data,
                total_cost,
            }),
            sims: Arc::new(sims),
            budget,
        })
    }
}

/// The model of Section 3.1, checked for every instance whatever its source
/// (builder, epoch delta or pack load): at least one photo; every photo cost
/// positive and the total cost within `u64`; `S₀` strictly ascending, in
/// range and within the budget; every subset non-empty with in-range,
/// distinct members, one finite positive relevance score per member and a
/// finite positive weight. Returns `(C(S₀), C(P))`.
///
/// The total-cost check makes every later accumulation — `C(S₀)`, a
/// solution's `C(S)`, the evaluator's running cost — overflow-free, since
/// each is a sub-sum over distinct photos.
fn check_model(
    photos: &[Photo],
    required: &[PhotoId],
    subsets: &[Subset],
    budget: u64,
) -> Result<(u64, u64)> {
    if photos.is_empty() {
        return Err(ModelError::NoPhotos);
    }
    let n = photos.len();
    let mut total_cost: u64 = 0;
    for p in photos {
        if p.cost == 0 {
            return Err(ModelError::ZeroCostPhoto(p.id));
        }
        total_cost = total_cost
            .checked_add(p.cost)
            .ok_or(ModelError::CostOverflow)?;
    }
    let mut required_cost: u64 = 0;
    for (i, &r) in required.iter().enumerate() {
        if r.index() >= n {
            return Err(ModelError::UnknownPhoto(r));
        }
        if i > 0 && required[i - 1] >= r {
            return Err(ModelError::RequiredNotAscending(r));
        }
        required_cost += photos[r.index()].cost;
    }
    if required_cost > budget {
        return Err(ModelError::RequiredSetOverBudget {
            required_cost,
            budget,
        });
    }
    // `listed[p]` = the last subset that listed photo `p`: one stamp array
    // finds duplicate members in O(n + Σ|q|).
    let mut listed = vec![u32::MAX; n];
    for q in subsets {
        if q.members.is_empty() {
            return Err(ModelError::EmptySubset(q.id));
        }
        if q.members.len() != q.relevance.len() {
            return Err(ModelError::RelevanceLengthMismatch {
                subset: q.id,
                members: q.members.len(),
                relevances: q.relevance.len(),
            });
        }
        if !(q.weight.is_finite() && q.weight > 0.0) {
            return Err(ModelError::InvalidWeight {
                subset: q.id,
                value: q.weight,
            });
        }
        for &m in &q.members {
            if m.index() >= n {
                return Err(ModelError::UnknownPhoto(m));
            }
            if listed[m.index()] == q.id.0 {
                return Err(ModelError::DuplicateMember {
                    subset: q.id,
                    photo: m,
                });
            }
            listed[m.index()] = q.id.0;
        }
        if let Some(&value) = q.relevance.iter().find(|r| !(r.is_finite() && **r > 0.0)) {
            return Err(ModelError::InvalidRelevance {
                subset: q.id,
                value,
            });
        }
    }
    Ok((required_cost, total_cost))
}

/// Scales raw relevance scores to sum to 1 (Section 3.1). Scores that are
/// not all finite and positive come back as given, so the model check
/// reports the value the caller supplied.
pub(crate) fn normalized_relevance(raw: &[f64]) -> Arc<[f64]> {
    let mut sum = 0.0;
    for &r in raw {
        if !(r.is_finite() && r > 0.0) {
            return raw.into();
        }
        sum += r;
    }
    raw.iter().map(|r| r / sum).collect()
}

/// Builder for [`Instance`]: normalizes relevance, then constructs through
/// the same model check as every other instance source.
#[derive(Debug, Default)]
pub struct InstanceBuilder {
    photos: Vec<Photo>,
    required: Vec<PhotoId>,
    subsets: Vec<Subset>,
    budget: u64,
}

impl InstanceBuilder {
    /// Creates a builder with the given storage budget `B` (bytes).
    pub fn new(budget: u64) -> Self {
        InstanceBuilder {
            budget,
            ..Default::default()
        }
    }

    /// Adds a photo with the given human-readable name and byte cost,
    /// returning its id.
    pub fn add_photo(&mut self, name: impl Into<Arc<str>>, cost: u64) -> PhotoId {
        // phocus-lint: allow(cast-bounds) — builder append; pack/build validate n ≤ u32::MAX
        let id = PhotoId(self.photos.len() as u32);
        self.photos.push(Photo::new(id, name, cost));
        id
    }

    /// Marks a photo as policy-retained (`p ∈ S₀`).
    pub fn require(&mut self, p: PhotoId) -> &mut Self {
        self.required.push(p);
        self
    }

    /// Adds a pre-defined subset with raw (unnormalized) relevance scores.
    ///
    /// Relevance scores are normalized to sum to 1 at [`build`] time; they
    /// must be strictly positive and finite. Passing an empty `relevance`
    /// vector assigns uniform relevance to all members.
    ///
    /// [`build`]: InstanceBuilder::build_with_provider
    pub fn add_subset(
        &mut self,
        label: impl Into<Arc<str>>,
        weight: f64,
        members: Vec<PhotoId>,
        relevance: Vec<f64>,
    ) -> SubsetId {
        // phocus-lint: allow(cast-bounds) — builder append; pack/build validate m ≤ u32::MAX
        let id = SubsetId(self.subsets.len() as u32);
        let relevance = if relevance.is_empty() {
            vec![1.0; members.len()]
        } else {
            relevance
        };
        self.subsets.push(Subset {
            id,
            label: label.into(),
            weight,
            members,
            relevance: relevance.into(),
        });
        id
    }

    /// Current number of photos added.
    pub fn num_photos(&self) -> usize {
        self.photos.len()
    }

    /// Replaces the storage budget declared at construction.
    pub fn set_budget(&mut self, budget: u64) -> &mut Self {
        self.budget = budget;
        self
    }

    /// Sorts and deduplicates `S₀`, normalizes every subset's relevance,
    /// and hands the parts to [`Instance::assemble`], which checks them and
    /// builds the stores with `sims`.
    fn finish(
        mut self,
        sims: impl FnOnce(&[Subset]) -> Result<Vec<Arc<ContextSim>>>,
    ) -> Result<Instance> {
        self.required.sort_unstable();
        self.required.dedup();
        for q in &mut self.subsets {
            q.relevance = normalized_relevance(&q.relevance);
        }
        Instance::assemble(self.photos, self.required, self.subsets, self.budget, sims)
    }

    /// Finishes construction, materializing dense all-pairs similarity stores
    /// from `provider` (the PHOcus-NS representation). Costs `Σ_q |q|²`
    /// provider calls.
    pub fn build_with_provider<P: SimilarityProvider + ?Sized>(
        self,
        provider: &P,
    ) -> Result<Instance> {
        self.finish(|subsets| {
            subsets
                .iter()
                .map(|q| {
                    Ok(Arc::new(ContextSim::Dense(DenseSim::from_provider(
                        q, provider,
                    )?)))
                })
                .collect()
        })
    }

    /// Finishes construction with pre-built similarity stores (e.g. sparse
    /// stores produced by an LSH pipeline). Stores must be parallel to the
    /// subsets, in declaration order, and sized to each member list.
    pub fn build_with_sims(self, sims: Vec<ContextSim>) -> Result<Instance> {
        self.finish(|subsets| {
            assert_eq!(sims.len(), subsets.len(), "one store per subset required");
            for (q, s) in subsets.iter().zip(&sims) {
                assert_eq!(q.members.len(), s.len(), "similarity store size mismatch");
            }
            Ok(sims.into_iter().map(Arc::new).collect())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::UnitSimilarity;

    fn builder() -> InstanceBuilder {
        let mut b = InstanceBuilder::new(100);
        let p0 = b.add_photo("a", 10);
        let p1 = b.add_photo("b", 20);
        let p2 = b.add_photo("c", 30);
        b.add_subset("s", 2.0, vec![p0, p1, p2], vec![1.0, 1.0, 2.0]);
        b
    }

    #[test]
    fn build_normalizes_relevance() {
        let inst = builder().build_with_provider(&UnitSimilarity).unwrap();
        let q = inst.subset(SubsetId(0));
        assert!((q.relevance[0] - 0.25).abs() < 1e-12);
        assert!((q.relevance[2] - 0.5).abs() < 1e-12);
        let sum: f64 = q.relevance.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn memberships_reverse_index() {
        let mut b = InstanceBuilder::new(100);
        let p0 = b.add_photo("a", 1);
        let p1 = b.add_photo("b", 1);
        b.add_subset("q0", 1.0, vec![p0, p1], vec![]);
        b.add_subset("q1", 1.0, vec![p1], vec![]);
        let inst = b.build_with_provider(&UnitSimilarity).unwrap();
        assert_eq!(inst.memberships(p0).len(), 1);
        assert_eq!(inst.memberships(p1).len(), 2);
        assert_eq!(inst.memberships(p1)[1].subset, SubsetId(1));
        assert_eq!(inst.memberships(p1)[1].local, 0);
    }

    #[test]
    fn rejects_duplicate_member() {
        let mut b = InstanceBuilder::new(100);
        let p0 = b.add_photo("a", 1);
        b.add_subset("q", 1.0, vec![p0, p0], vec![]);
        assert!(matches!(
            b.build_with_provider(&UnitSimilarity),
            Err(ModelError::DuplicateMember { .. })
        ));
    }

    #[test]
    fn rejects_required_over_budget() {
        let mut b = InstanceBuilder::new(5);
        let p0 = b.add_photo("a", 10);
        b.require(p0);
        b.add_subset("q", 1.0, vec![p0], vec![]);
        assert!(matches!(
            b.build_with_provider(&UnitSimilarity),
            Err(ModelError::RequiredSetOverBudget { .. })
        ));
    }

    #[test]
    fn rejects_zero_cost_and_bad_weight() {
        let mut b = InstanceBuilder::new(5);
        let p0 = b.add_photo("a", 0);
        b.add_subset("q", 1.0, vec![p0], vec![]);
        assert!(matches!(
            b.build_with_provider(&UnitSimilarity),
            Err(ModelError::ZeroCostPhoto(_))
        ));

        for weight in [-1.0, 0.0] {
            let mut b = InstanceBuilder::new(5);
            let p0 = b.add_photo("a", 1);
            b.add_subset("q", weight, vec![p0], vec![]);
            assert!(matches!(
                b.build_with_provider(&UnitSimilarity),
                Err(ModelError::InvalidWeight { .. })
            ));
        }
    }

    #[test]
    fn with_budget_shares_core() {
        let inst = builder().build_with_provider(&UnitSimilarity).unwrap();
        let inst2 = inst.with_budget(50).unwrap();
        assert_eq!(inst2.budget(), 50);
        assert_eq!(inst2.num_photos(), inst.num_photos());
        assert!(inst.with_budget(0).is_err() || inst.required_cost() == 0);
    }

    #[test]
    fn unit_sim_view_and_max_score() {
        let inst = builder().build_with_provider(&UnitSimilarity).unwrap();
        assert_eq!(inst.max_score(), 2.0);
        let unit = inst.with_unit_sims();
        assert_eq!(unit.sim(SubsetId(0)).sim(0, 2), 1.0);
    }

    #[test]
    fn total_and_required_cost() {
        let mut b = InstanceBuilder::new(100);
        let p0 = b.add_photo("a", 10);
        let p1 = b.add_photo("b", 20);
        b.require(p1);
        b.add_subset("q", 1.0, vec![p0, p1], vec![]);
        let inst = b.build_with_provider(&UnitSimilarity).unwrap();
        assert_eq!(inst.total_cost(), 30);
        assert_eq!(inst.required_cost(), 20);
        assert!(inst.is_required(p1));
        assert!(!inst.is_required(p0));
    }
}
