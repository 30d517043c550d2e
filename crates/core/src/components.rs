//! Connected-component decomposition of a PAR instance.
//!
//! The PAR objective is a sum over queries, and within a query a photo's
//! contribution depends only on its most similar *selected* co-member — so
//! two photos interact (one's presence can change the other's marginal gain)
//! only if some query contains both **and** stores a nonzero similarity
//! between them. The graph over photos with exactly those edges splits the
//! instance into independent sub-problems coupled solely through the shared
//! budget `B`. τ-sparsification (Section 4.3) makes these components
//! numerous and small on realistic archives.
//!
//! [`decompose`] computes the components from the similarity stores:
//!
//! * [`ContextSim::Sparse`] queries contribute one edge per stored CSR pair;
//! * [`ContextSim::Dense`] and [`ContextSim::Unit`] queries couple all their
//!   members (the dense gain kernel visits every co-member, so a dense query
//!   is never split);
//! * a sparse query whose members span several components contributes to
//!   each of them; none of its stored pairs crosses a component boundary.
//!
//! Components with a single photo (photos with no memberships, or members
//! with no stored similarity edges at all) are merged into one residual
//! shard: they never interact with anything, and pooling them avoids
//! thousands of one-photo streams.
//!
//! The decomposition is labels only: every photo's shard index plus each
//! shard's ascending photo list. The solver's streams share one evaluator
//! over the parent instance, so no per-shard sub-instance is materialized.

use crate::instance::Instance;
use crate::sim::ContextSim;
use crate::PhotoId;

/// One connected component of the photo-interaction graph.
#[derive(Debug)]
pub struct ComponentView {
    /// The shard's photos, strictly ascending — which preserves the
    /// solver's smaller-id tie-break inside a shard.
    pub photos: Vec<PhotoId>,
}

/// The labeling part of a component decomposition: which shard every photo
/// belongs to.
///
/// The epoch-delta layer ([`crate::delta`]) labels every post-delta
/// instance with [`shard_labels`]; a pack load ([`crate::pack`]) installs
/// stored labels after checking them sound for its instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLabels {
    /// `photo_shard[p]` = shard index of photo `p`'s component.
    photo_shard: Vec<u32>,
    /// Number of shards (≥ 1 for any non-empty instance).
    num_shards: usize,
    /// Index of the merged singleton shard, if one was formed.
    singleton_pool: Option<usize>,
}

impl ShardLabels {
    /// Number of shards (≥ 1 for any non-empty instance).
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The shard index of a global photo.
    #[inline]
    pub fn shard_of(&self, p: PhotoId) -> usize {
        self.photo_shard[p.index()] as usize
    }

    /// Per-photo shard indices, indexed by [`PhotoId`].
    #[inline]
    pub fn photo_shards(&self) -> &[u32] {
        &self.photo_shard
    }

    /// The shard holding all merged single-photo components, if any.
    #[inline]
    pub fn singleton_pool(&self) -> Option<usize> {
        self.singleton_pool
    }

    /// Checks that the labels are sound for `inst`: every interaction edge
    /// joins two photos of one shard, and no photo of the singleton pool has
    /// one. These are the properties the plan's exactness rests on (the
    /// pool is solved as independent frozen singletons); the canonical shard
    /// numbering of [`shard_labels`] is not required. Returns what failed.
    pub(crate) fn check_sound(&self, inst: &Instance) -> Result<(), &'static str> {
        let pool = self.singleton_pool.map(|p| p as u32);
        let mut failure = None;
        for_each_interaction(inst, |a, b| {
            if a == b || failure.is_some() {
                return;
            }
            let (sa, sb) = (self.photo_shard[a as usize], self.photo_shard[b as usize]);
            if sa != sb {
                failure = Some("an interaction edge crosses two shards");
            } else if Some(sa) == pool {
                failure = Some("a singleton-pool photo has an interaction edge");
            }
        });
        failure.map_or(Ok(()), Err)
    }

    /// Assembles labels from raw parts (the pack reader's LABELS section).
    pub(crate) fn from_parts(
        photo_shard: Vec<u32>,
        num_shards: usize,
        singleton_pool: Option<usize>,
    ) -> Self {
        ShardLabels {
            photo_shard,
            num_shards,
            singleton_pool,
        }
    }
}

/// The full component decomposition of an instance: the shard labeling
/// plus every shard's photo list.
#[derive(Debug)]
pub struct Decomposition {
    /// The components, ordered by their smallest photo id.
    pub shards: Vec<ComponentView>,
    /// The shard labeling the photo lists were grouped by.
    labels: ShardLabels,
}

impl Decomposition {
    /// Groups the photos by `labels` — resident labels from the epoch-delta
    /// layer (`shard_labels` of the post-delta instance) or labels bulk-read
    /// from a `phocus-pack` file (written as `shard_labels`, checked sound
    /// for their instance at load).
    pub fn from_labels(labels: ShardLabels) -> Self {
        let mut shards: Vec<ComponentView> = (0..labels.num_shards())
            .map(|_| ComponentView { photos: Vec::new() })
            .collect();
        for (p, &s) in labels.photo_shards().iter().enumerate() {
            shards[s as usize].photos.push(PhotoId(p as u32));
        }
        Decomposition { shards, labels }
    }

    /// Number of shards (≥ 1 for any non-empty instance).
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index of a global photo.
    #[inline]
    pub fn shard_of(&self, p: PhotoId) -> usize {
        self.labels.shard_of(p)
    }

    /// The shard holding all merged single-photo components, if any.
    #[inline]
    pub fn singleton_pool(&self) -> Option<usize> {
        self.labels.singleton_pool()
    }

    /// The shard labeling underlying this decomposition.
    #[inline]
    pub fn labels(&self) -> &ShardLabels {
        &self.labels
    }
}

/// Union-find over photo ids with path halving and union by size.
struct Dsu {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
    }
}

/// Visits every interaction edge of `inst` as a photo-id pair: one per
/// stored pair of a sparse store, and a chain over the member list of a
/// dense or unit store (which couples every co-member pair, so the chain
/// connects the whole clique). Shared by [`shard_labels`], which unions the
/// endpoints, and [`ShardLabels::check_sound`], which checks them.
fn for_each_interaction(inst: &Instance, mut edge: impl FnMut(u32, u32)) {
    for q in inst.subsets() {
        match inst.sim(q.id) {
            ContextSim::Sparse(sp) => {
                // Photos without a stored edge in any query never influence
                // each other's gains.
                for (pos, &m) in q.members.iter().enumerate() {
                    for &j in sp.neighbors(pos).0 {
                        edge(m.0, q.members[j as usize].0);
                    }
                }
            }
            _ => {
                for w in q.members.windows(2) {
                    edge(w[0].0, w[1].0);
                }
            }
        }
    }
}

/// Computes the shard labeling of `inst` — the component partition plus the
/// deterministic shard numbering.
///
/// Numbering: components in first-seen order by ascending photo id, with all
/// single-photo components collapsed onto one pool shard (when there are at
/// least two of them). This is the cheap prefix of [`decompose`].
pub fn shard_labels(inst: &Instance) -> ShardLabels {
    let n = inst.num_photos();
    let mut dsu = Dsu::new(n);
    for_each_interaction(inst, |a, b| dsu.union(a, b));

    let mut singletons = 0usize;
    for p in 0..n as u32 {
        let root = dsu.find(p) as usize;
        if dsu.size[root] == 1 {
            singletons += 1;
        }
    }
    let merge_singletons = singletons >= 2;
    let mut shard_of_root = vec![u32::MAX; n];
    let mut pool_shard = u32::MAX;
    let mut next = 0u32;
    let mut photo_shard = vec![0u32; n];
    for p in 0..n as u32 {
        let root = dsu.find(p) as usize;
        let shard = if merge_singletons && dsu.size[root] == 1 {
            if pool_shard == u32::MAX {
                pool_shard = next;
                next += 1;
            }
            pool_shard
        } else {
            if shard_of_root[root] == u32::MAX {
                shard_of_root[root] = next;
                next += 1;
            }
            shard_of_root[root]
        };
        photo_shard[p as usize] = shard;
    }

    ShardLabels::from_parts(
        photo_shard,
        next as usize,
        (pool_shard != u32::MAX).then_some(pool_shard as usize),
    )
}

/// Computes the connected components of `inst`'s photo-interaction graph
/// (singletons pooled) and groups the photos by component.
///
/// The decomposition is a true partition: every photo lands in exactly one
/// shard and no stored similarity edge crosses shards. Runs in
/// `O(n + Σ_q E_q · α)` time.
pub fn decompose(inst: &Instance) -> Decomposition {
    Decomposition::from_labels(shard_labels(inst))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure1_instance, random_instance, RandomInstanceConfig, MB};
    use crate::Evaluator;

    /// Checks the structural partition invariants on any decomposition:
    /// every photo in exactly one ascending shard list, consistent with its
    /// label, and no stored similarity edge crossing shards.
    fn assert_partition(inst: &Instance, dec: &Decomposition) {
        let mut seen = vec![false; inst.num_photos()];
        for (s, view) in dec.shards.iter().enumerate() {
            assert!(view.photos.windows(2).all(|w| w[0] < w[1]));
            for &g in &view.photos {
                assert!(!seen[g.index()], "photo {g:?} in two shards");
                seen[g.index()] = true;
                assert_eq!(dec.shard_of(g), s);
            }
        }
        assert!(seen.iter().all(|&b| b), "photo missing from all shards");
        for q in inst.subsets() {
            if let ContextSim::Sparse(sp) = inst.sim(q.id) {
                for (pos, &m) in q.members.iter().enumerate() {
                    for &j in sp.neighbors(pos).0 {
                        let n = q.members[j as usize];
                        assert_eq!(dec.shard_of(m), dec.shard_of(n), "edge crosses shards");
                    }
                }
            }
        }
    }

    #[test]
    fn figure1_decomposes_to_valid_partition() {
        let inst = figure1_instance(4 * MB);
        let dec = decompose(&inst);
        assert_partition(&inst, &dec);
        assert!(dec.num_shards() >= 1);
    }

    #[test]
    fn dense_random_instance_partition() {
        let inst = random_instance(0xC0FFEE, &RandomInstanceConfig::default());
        let dec = decompose(&inst);
        assert_partition(&inst, &dec);
    }

    #[test]
    fn sparsified_instance_splits_and_scores_match() {
        let inst = random_instance(0xC0FFEE, &RandomInstanceConfig::default()).sparsify(0.8);
        let dec = decompose(&inst);
        assert_partition(&inst, &dec);
        // Shards are independent: the score of "select everything" is the
        // sum of each shard's score when selected alone, so the
        // decomposition loses no objective mass.
        let mut ev = Evaluator::new(&inst);
        for p in 0..inst.num_photos() as u32 {
            ev.add(PhotoId(p));
        }
        let mut sharded = 0.0;
        for view in &dec.shards {
            let mut sev = Evaluator::new(&inst);
            for &p in &view.photos {
                sev.add(p);
            }
            sharded += sev.score();
        }
        assert!((sharded - ev.score()).abs() < 1e-9 * ev.score().abs().max(1.0));
    }

    #[test]
    fn unit_queries_are_clique_unioned() {
        let inst = random_instance(7, &RandomInstanceConfig::default()).with_unit_sims();
        let dec = decompose(&inst);
        assert_partition(&inst, &dec);
        for q in inst.subsets() {
            let s = dec.shard_of(q.members[0]);
            assert!(
                q.members.iter().all(|&m| dec.shard_of(m) == s),
                "unit query was split"
            );
        }
    }

    #[test]
    fn singletons_merge_into_pool() {
        // Unit queries of size 1: every photo is its own component.
        let mut b = crate::InstanceBuilder::new(100);
        for k in 0..5 {
            let p = b.add_photo(format!("p{k}"), 10);
            b.add_subset(format!("q{k}"), 1.0, vec![p], vec![]);
        }
        let inst = b.build_with_provider(&crate::UnitSimilarity).unwrap();
        let dec = decompose(&inst);
        assert_eq!(dec.num_shards(), 1);
        assert_eq!(dec.singleton_pool(), Some(0));
        assert_partition(&inst, &dec);
    }
}
