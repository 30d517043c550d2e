//! Epoch-resident incremental solver: warm-started sharded CELF streams.
//!
//! [`IncrementalSolver`] keeps an archive's solve state alive across epochs.
//! Each epoch, an [`EpochDelta`] is applied through
//! [`par_core::delta`] — which maintains the component labeling
//! incrementally and marks exactly the touched components dirty — and
//! [`IncrementalSolver::resolve`] re-runs Algorithm 1 with the
//! component-sharded coordinator of [`crate::sharded`], except that **clean
//! shards replay their recorded stream transcripts** instead of re-running
//! their CELF heaps. The headline invariant, pinned by the goldens and
//! proptests in `tests/`: every epoch's [`MainOutcome`] is **bit-identical**
//! to [`main_algorithm_sharded`](crate::main_algorithm_sharded) on the
//! post-delta instance — same photos, same order, same `f64` score bits.
//!
//! # Transcript replay
//!
//! During every run each non-pool shard records its observable stream
//! events, and the next epoch's clean shards replay them instead of
//! re-running their CELF heaps; every replayed event is re-verified against
//! current reality and a diverging stream goes live (see
//! [`crate::sharded`] for the rules). A clean shard's gains are bit-stable
//! across the delta: the photo set, required flags, memberships (in order),
//! fused `W·R` weights and stored similarity structure all survive verbatim
//! (see `par_core::delta` — no renormalization, order-preserving
//! compaction), and a marginal gain reads only intra-component state.
//!
//! The singleton pool keeps no transcript. A pool photo's seed gain `Σ W·R`
//! is state-independent (it shares no stored similarity with anyone), so the
//! solver caches it per photo and the plan rebuilds the frozen pool stream
//! from it each epoch — a total order over distinct photos, hence
//! bit-identical to the from-scratch pool stream regardless of input order.
//!
//! # Cache invalidation
//!
//! [`IncrementalSolver::apply_delta`] remaps the caches through the delta's
//! id compaction: transcripts survive for clean shards (dirty shards and
//! shards whose photos were touched re-run live), per-photo pool gains
//! survive for clean photos. One global guard remains: stream construction
//! filters by affordability at the post-`S₀` state, so if the budget slack
//! `B − C(S₀)` *grew* since the transcripts were recorded, a photo absent
//! from a transcript might fit now; any replay shard containing such a photo
//! is demoted to live before the plan is built.

use crate::main_alg::{pick_winner, MainOutcome};
use crate::sharded::{RuleCache, ShardedSolver, SolveScratch, TEvent};
use crate::GreedyRule;
use par_core::{shard_labels, Decomposition, EpochDelta, Instance, PhotoId, ShardLabels};

/// What a delta did to the resident instance, reported by
/// [`IncrementalSolver::apply_delta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaStats {
    /// Photos whose component the delta touched (post-delta ids).
    pub dirty_photos: usize,
    /// Post-delta shards containing at least one dirty photo.
    pub dirty_shards: usize,
    /// Total post-delta shards.
    pub num_shards: usize,
    /// Total post-delta photos.
    pub num_photos: usize,
}

/// How the last [`IncrementalSolver::resolve`] split its work between
/// replayed and live streams (streams are counted per greedy rule; the
/// singleton pool has no stream transcript and is excluded).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochReport {
    /// Shards in the epoch's labeling.
    pub num_shards: usize,
    /// Streams that began the run replaying a cached transcript.
    pub replayed_streams: usize,
    /// Streams that began the run live (dirty or uncached shards).
    pub live_streams: usize,
    /// Replay streams that diverged mid-run and fell back to a live heap.
    pub went_live: usize,
    /// Total marginal-gain evaluations the epoch paid, including the `S₀`
    /// replay and the seed sweep over live shards and uncached pool photos.
    pub gain_evals: u64,
}

/// A resident solver that carries an [`Instance`], its component labeling,
/// and per-shard stream transcripts across epochs.
///
/// ```
/// use par_algo::IncrementalSolver;
/// use par_core::fixtures::{figure1_instance, MB};
/// use par_core::EpochDelta;
///
/// let mut solver = IncrementalSolver::new(figure1_instance(4 * MB));
/// let first = solver.resolve(); // identical to main_algorithm_sharded
/// let delta = EpochDelta { set_budget: Some(3 * MB), ..Default::default() };
/// solver.apply_delta(&delta).unwrap();
/// let second = solver.resolve(); // replays clean streams, same bits as a
/// assert!(second.best.cost <= 3 * MB); // from-scratch solve at 3 MB
/// # let _ = first;
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalSolver {
    inst: Instance,
    labels: ShardLabels,
    /// Per-shard per-rule transcripts from the last resolve, remapped
    /// through every delta applied since. `None` = run live. The pool's slot
    /// is always `None`.
    caches: Vec<Option<RuleCache>>,
    /// Cached state-independent post-`S₀` seed gains of pool photos, by
    /// current photo id. `None` = recompute at the next resolve.
    pool_gain: Vec<Option<f64>>,
    /// Budget slack `B − C(S₀)` when the cached transcripts were recorded.
    prev_slack: Option<u64>,
    report: EpochReport,
}

impl IncrementalSolver {
    /// Takes residence over `inst`. The first [`resolve`](Self::resolve)
    /// runs every stream live (there is nothing to replay yet).
    pub fn new(inst: Instance) -> Self {
        let labels = shard_labels(&inst);
        let num_photos = inst.num_photos();
        let num_shards = labels.num_shards();
        IncrementalSolver {
            inst,
            labels,
            // phocus-lint: allow(alloc-hot) — constructor, not the pop loop; reached only via go-live rebuild
            caches: (0..num_shards).map(|_| None).collect(),
            pool_gain: vec![None; num_photos], // phocus-lint: allow(alloc-hot) — constructor, once per resident solver
            prev_slack: None,
            report: EpochReport::default(),
        }
    }

    /// The resident (post-all-deltas) instance.
    pub fn instance(&self) -> &Instance {
        &self.inst
    }

    /// The resident component labeling (always equal to
    /// `shard_labels(self.instance())`).
    pub fn labels(&self) -> &ShardLabels {
        &self.labels
    }

    /// The replay/live split of the last [`resolve`](Self::resolve).
    pub fn last_report(&self) -> &EpochReport {
        &self.report
    }

    /// Applies one epoch's delta to the resident instance, carrying every
    /// cache that survives it: transcripts of clean shards (remapped to
    /// post-delta photo ids), pool seed gains of clean photos. On error the
    /// solver is left untouched — deltas are validated against the
    /// pre-delta instance before anything is mutated.
    pub fn apply_delta(&mut self, delta: &EpochDelta) -> par_core::Result<DeltaStats> {
        let applied = delta.apply(&self.inst, &self.labels)?;
        let stats = DeltaStats {
            dirty_photos: applied.num_dirty_photos(),
            dirty_shards: applied.num_dirty_shards(),
            num_shards: applied.labels.num_shards(),
            num_photos: applied.instance.num_photos(),
        };
        let num_photos = applied.instance.num_photos();
        let num_shards = applied.labels.num_shards();
        let new_pool = applied.labels.singleton_pool();
        let old_pool = self.labels.singleton_pool();

        // Pool seed gains: state-independent, so clean survivors keep their
        // bits under the id remap.
        let mut pool_gain = vec![None; num_photos];
        for (new_idx, origin) in applied.photo_origin.iter().enumerate() {
            if let Some(o) = origin {
                if !applied.dirty_photos[new_idx] {
                    pool_gain[new_idx] = self.pool_gain.get(o.index()).copied().flatten();
                }
            }
        }

        // Transcripts: a clean non-pool shard is an old shard that survived
        // verbatim (splits and merges dirty every photo involved), so any
        // member's origin locates its old shard — and with it the recorded
        // streams, which only need their photo ids remapped. The old pool
        // has no transcript; a lone ex-pool singleton re-runs live.
        let mut representative: Vec<Option<PhotoId>> = vec![None; num_shards];
        for i in 0..num_photos as u32 {
            let s = applied.labels.shard_of(PhotoId(i));
            if representative[s].is_none() {
                representative[s] = Some(PhotoId(i));
            }
        }
        let mut caches: Vec<Option<RuleCache>> = Vec::with_capacity(num_shards);
        for (s, &rep) in representative.iter().enumerate() {
            if Some(s) == new_pool || applied.dirty_shards[s] {
                caches.push(None);
                continue;
            }
            let carried = rep
                .and_then(|p| applied.photo_origin[p.index()])
                .map(|o| self.labels.shard_of(o))
                .filter(|&os| Some(os) != old_pool)
                .and_then(|os| self.caches.get_mut(os).map(std::mem::take))
                .flatten()
                .and_then(|per_rule| remap_events(per_rule, &applied.photo_remap));
            caches.push(carried);
        }

        self.inst = applied.instance;
        self.labels = applied.labels;
        self.caches = caches;
        self.pool_gain = pool_gain;
        Ok(stats)
    }

    /// Runs Algorithm 1 on the resident instance: both greedy rules through
    /// the CELF plan, clean shards replaying their transcripts.
    /// Bit-identical to
    /// [`main_algorithm_sharded`](crate::main_algorithm_sharded) on
    /// [`instance`](Self::instance), including the winner selection.
    /// Re-records every shard's transcript for the next epoch.
    pub fn resolve(&mut self) -> MainOutcome {
        let inst = &self.inst;
        debug_assert_eq!(self.caches.len(), self.labels.num_shards());

        // Streams are built over photos affordable at the post-`S₀` state.
        // If that slack grew since the transcripts were recorded, a replay
        // shard may hold a photo its transcript has never seen — demote it
        // to live.
        let slack = inst.budget().saturating_sub(inst.required_cost());
        if let Some(prev) = self.prev_slack.filter(|&prev| slack > prev) {
            for p in (0..inst.num_photos() as u32).map(PhotoId) {
                let c = inst.cost(p);
                if c > prev && c <= slack && !inst.is_required(p) {
                    self.caches[self.labels.shard_of(p)] = None;
                }
            }
        }

        // The plan sweeps seeds only where the caches don't cover: photos of
        // live shards, plus pool photos with no cached gain.
        let mut scratch = SolveScratch::new();
        let dec = Decomposition::from_labels(self.labels.clone());
        let plan =
            ShardedSolver::prepare(inst, dec, &mut scratch, &self.caches, &mut self.pool_gain);
        let budget = inst.budget();
        let caches = Some(self.caches.as_slice());
        let uc = plan.run(GreedyRule::UnitCost, budget, None, &mut scratch, caches);
        let cb = plan.run(GreedyRule::CostBenefit, budget, None, &mut scratch, caches);

        self.report = EpochReport {
            num_shards: self.labels.num_shards(),
            replayed_streams: uc.replayed + cb.replayed,
            live_streams: uc.live + cb.live,
            went_live: uc.went_live + cb.went_live,
            gain_evals: plan.prepare_gain_evals()
                + uc.outcome.stats.gain_evals
                + cb.outcome.stats.gain_evals,
        };
        let pool = self.labels.singleton_pool();
        self.prev_slack = Some(slack);
        self.caches = uc
            .rec
            .into_iter()
            .zip(cb.rec)
            .enumerate()
            .map(|(s, (u, c))| (Some(s) != pool).then_some([u, c]))
            .collect();
        pick_winner(uc.outcome, cb.outcome)
    }
}

/// Remaps a carried transcript's photo ids through the delta's compaction.
/// Returns `None` if any referenced photo was removed — impossible for a
/// clean shard, but the fallback is simply a live re-run.
fn remap_events(per_rule: RuleCache, remap: &[Option<PhotoId>]) -> Option<RuleCache> {
    let map_photo = |p: PhotoId| remap.get(p.index()).copied().flatten();
    let map_one = |events: Vec<TEvent>| -> Option<Vec<TEvent>> {
        events
            .into_iter()
            .map(|e| match e {
                TEvent::Drop(p) => map_photo(p).map(TEvent::Drop),
                TEvent::Cand {
                    photo,
                    key,
                    accepted,
                } => map_photo(photo).map(|photo| TEvent::Cand {
                    photo,
                    key,
                    accepted,
                }),
            })
            .collect()
    };
    let [uc, cb] = per_rule;
    Some([map_one(uc)?, map_one(cb)?])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::main_algorithm_sharded;
    use par_core::fixtures::{random_instance, RandomInstanceConfig, SplitMix64};
    use par_core::{MemberRef, PhotoAdd, QueryAdd, SubsetId};

    /// Resolves and asserts bit-identity with a from-scratch Algorithm 1 on
    /// the resident instance.
    fn assert_matches_scratch(inc: &mut IncrementalSolver) {
        let scratch = main_algorithm_sharded(inc.instance());
        let out = inc.resolve();
        assert_eq!(out.uc.selected, scratch.uc.selected, "UC selection");
        assert_eq!(out.uc.score.to_bits(), scratch.uc.score.to_bits());
        assert_eq!(out.uc.cost, scratch.uc.cost);
        assert_eq!(out.cb.selected, scratch.cb.selected, "CB selection");
        assert_eq!(out.cb.score.to_bits(), scratch.cb.score.to_bits());
        assert_eq!(out.cb.cost, scratch.cb.cost);
        assert_eq!(out.winner, scratch.winner);
        assert_eq!(out.best.selected, scratch.best.selected);
        assert_eq!(out.best.score.to_bits(), scratch.best.score.to_bits());
    }

    fn fixture(seed: u64) -> Instance {
        random_instance(seed, &RandomInstanceConfig::default()).sparsify(0.85)
    }

    /// A mixed churn delta in the style of the par-core delta tests.
    fn churn_delta(inst: &Instance, round: usize, rng: &mut SplitMix64) -> EpochDelta {
        let n = inst.num_photos();
        let mut delta = EpochDelta::default();
        match round % 6 {
            0 => delta.remove_photos = vec![PhotoId(rng.next_below(n) as u32)],
            1 => {
                let a = rng.next_below(n) as u32;
                let b = rng.next_below(n) as u32;
                if a != b {
                    delta.add_queries = vec![QueryAdd {
                        label: format!("drift{round}"),
                        weight: 0.75,
                        members: vec![
                            MemberRef::Existing(PhotoId(a)),
                            MemberRef::Existing(PhotoId(b)),
                        ],
                        relevance: vec![],
                        pairs: vec![(0, 1, 0.55)],
                    }];
                }
            }
            2 => {
                delta.add_photos = vec![PhotoAdd {
                    name: format!("arrival{round}"),
                    cost: 200_000 + 1_000 * round as u64,
                    required: false,
                }];
                delta.add_queries = vec![QueryAdd {
                    label: format!("arrival-q{round}"),
                    weight: 0.6,
                    members: vec![
                        MemberRef::New(0),
                        MemberRef::Existing(PhotoId(rng.next_below(n) as u32)),
                    ],
                    relevance: vec![],
                    pairs: vec![(0, 1, 0.4)],
                }];
            }
            3 => {
                if inst.num_subsets() > 1 {
                    delta.retire_queries =
                        vec![SubsetId(rng.next_below(inst.num_subsets()) as u32)];
                }
            }
            4 => {
                let p = PhotoId(rng.next_below(n) as u32);
                if inst.required().contains(&p) {
                    delta.unrequire = vec![p];
                } else {
                    delta.require = vec![p];
                }
            }
            _ => {
                let lo = inst.required_cost();
                let hi = inst.total_cost().max(lo + 1);
                let frac = 3 + rng.next_below(5) as u64; // 30%..70% of the span
                delta.set_budget = Some(lo + (hi - lo) * frac / 10);
            }
        }
        delta
    }

    #[test]
    fn first_and_repeated_resolves_match_from_scratch() {
        for seed in 0..4 {
            let mut inc = IncrementalSolver::new(fixture(seed));
            assert_matches_scratch(&mut inc); // all-live first epoch
            let first = *inc.last_report();
            assert_eq!(first.replayed_streams, 0);
            // A second resolve with no delta replays every non-pool stream
            // and pays no seed sweep beyond the S₀ replay.
            assert_matches_scratch(&mut inc);
            let second = *inc.last_report();
            assert_eq!(second.live_streams, 0);
            assert_eq!(second.went_live, 0, "identical epoch cannot diverge");
            assert!(
                second.gain_evals < first.gain_evals,
                "replay must beat the live run: {} vs {}",
                second.gain_evals,
                first.gain_evals
            );
        }
    }

    #[test]
    fn epoch_chains_match_from_scratch_every_round() {
        for seed in [5, 11, 23] {
            let mut inc = IncrementalSolver::new(fixture(seed));
            let mut rng = SplitMix64::new(seed ^ 0xC0FF_EE00);
            inc.resolve();
            for round in 0..12 {
                let delta = churn_delta(inc.instance(), round, &mut rng);
                if delta.is_empty() {
                    continue;
                }
                if inc.apply_delta(&delta).is_err() {
                    continue; // e.g. a budget cut below the required cost
                }
                assert_matches_scratch(&mut inc);
            }
        }
    }

    #[test]
    fn budget_only_epochs_replay_every_stream() {
        let mut inc = IncrementalSolver::new(fixture(7));
        inc.resolve();
        let budget = inc.instance().budget();
        let lo = inc.instance().required_cost();
        // Shrinking budgets: transcripts stay valid (slack only falls) and
        // every non-pool stream starts in replay mode.
        for cut in [budget * 9 / 10, budget * 7 / 10, lo.max(budget / 2)] {
            let delta = EpochDelta {
                set_budget: Some(cut),
                ..Default::default()
            };
            if inc.apply_delta(&delta).is_err() {
                continue;
            }
            assert_matches_scratch(&mut inc);
            assert_eq!(inc.last_report().live_streams, 0, "budget {cut}");
        }
    }

    #[test]
    fn budget_growth_stays_exact() {
        // Growing slack can expose photos a transcript never saw; the
        // build-time demotion must keep the result bit-identical.
        let mut inc = IncrementalSolver::new(
            random_instance(
                13,
                &RandomInstanceConfig {
                    budget_fraction: 0.2,
                    ..Default::default()
                },
            )
            .sparsify(0.85),
        );
        inc.resolve();
        let total = inc.instance().total_cost();
        for frac in [4u64, 6, 8, 10] {
            let delta = EpochDelta {
                set_budget: Some(total * frac / 10),
                ..Default::default()
            };
            inc.apply_delta(&delta).unwrap();
            assert_matches_scratch(&mut inc);
        }
    }

    #[test]
    fn rejected_deltas_leave_the_solver_resident() {
        let mut inc = IncrementalSolver::new(fixture(3));
        inc.resolve();
        let n = inc.instance().num_photos();
        let bad = EpochDelta {
            remove_photos: vec![PhotoId(n as u32 + 7)],
            ..Default::default()
        };
        assert!(inc.apply_delta(&bad).is_err());
        // The resident state is untouched: a plain re-resolve still matches.
        assert_matches_scratch(&mut inc);
        assert_eq!(inc.last_report().live_streams, 0);
    }

    #[test]
    fn small_deltas_replay_most_streams() {
        // A single-photo removal dirties one component; everything else
        // must replay.
        let mut inc = IncrementalSolver::new(fixture(19));
        inc.resolve();
        let delta = EpochDelta {
            remove_photos: vec![PhotoId(0)],
            ..Default::default()
        };
        let stats = inc.apply_delta(&delta).unwrap();
        assert!(stats.dirty_shards <= 1);
        assert_matches_scratch(&mut inc);
        let report = *inc.last_report();
        if report.num_shards > 2 {
            assert!(
                report.replayed_streams > report.live_streams,
                "expected mostly replay: {report:?}"
            );
        }
    }
}
