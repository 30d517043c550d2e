//! The CELF engine: lazy greedy over a component labeling.
//!
//! [`ShardedSolver`] is the one prepared plan every production solve runs
//! through. It produces a **bit-identical** transcript to the global
//! [`lazy_greedy`](crate::lazy_greedy) — same photos, same order, same `f64`
//! score bits — while doing strictly less gain recomputation. The instance's
//! [`ShardLabels`] split the photos into shards that interact only through
//! the shared budget; each shard runs its own lazy stream, and a budget-aware
//! coordinator repeatedly takes the stream whose *settled* top has the
//! maximum key, with the global heap's exact tie-break (smaller photo id).
//!
//! All streams share **one** evaluator — a clone of the prepared post-`S₀`
//! arena — so every gain is computed by the very same code on the very same
//! state as the global solver's, making bit-identity of scores a triviality
//! rather than a theorem about sub-instance remapping. The labeling buys
//! speed through what is *not* recomputed, at three levels:
//!
//! 1. **Across shards**: the global heap's epoch counter advances on *every*
//!    accept, so every cached entry goes stale even when the accepted photo
//!    lives in a different component and cannot have changed its gain. A
//!    shard stream is only re-settled after an accept in its own shard, so
//!    cross-component accepts trigger no pops and no recomputes elsewhere.
//! 2. **Within a shard**: an accept only changes the gains of photos whose
//!    *read-set* it touched. A marginal gain reads exactly the photo's own
//!    coverage (`best` similarity) and its stored neighbors' coverage in
//!    each of its contexts; so when [`Evaluator::add_tracked`] reports the
//!    members whose `best` changed, bumping a version counter on each
//!    changed member *and its stored CSR neighbors* (all members, in dense
//!    contexts) marks precisely the photos whose cached gains may have
//!    moved. A popped entry whose photo's version is unchanged is guaranteed
//!    to recompute to the same key bits, so the recomputation is skipped.
//! 3. **The singleton pool**: photos forming singleton components share no
//!    stored pair with anyone, so their seed keys are *frozen* — exact for
//!    the whole run. The pool's stream is a cursor over entries pre-sorted
//!    in pop order (cached per rule at prepare time) instead of a heap.
//!
//! The plan amortizes all rule-independent work across solves: the
//! labeling, the `S₀` replay, and the epoch-0 seed sweep (marginal gains at
//! the post-`S₀` state do not depend on the greedy rule; each solve derives
//! its keys as `rule.key(δ, cost)` exactly as the global seeding does).
//! Algorithm 1 runs both rules, so it pays for one seed sweep instead of two.
//!
//! Why the transcript is identical: at every step, global CELF selects the
//! photo with the maximum *current* key among unselected photos affordable
//! under the remaining budget (lazy acceptance is exact by submodularity),
//! breaking ties toward the smaller id; photos found unaffordable are
//! dropped permanently (costs only grow). A settled shard stream parks its
//! shard's true argmax under the same rule: cached keys are upper bounds,
//! current-stamp entries carry exact keys, and when the global loop
//! recomputes a stale-but-unchanged top it re-pushes the identical
//! `(key, photo)` and accepts it on the next pop — the very photo the stamp
//! check parks without recomputing. A parked candidate can never go stale
//! while parked: only accepts in its own shard touch its read-set, and its
//! shard only accepts the parked candidate itself. The coordinator's
//! max-heap over parked candidates therefore selects the same global
//! argmax, re-checking affordability at pop time exactly where the global
//! loop does.
//!
//! # Transcript replay
//!
//! The epoch-resident [`IncrementalSolver`](crate::IncrementalSolver) drives
//! the same coordinator with a third stream state. While recording, each
//! non-pool stream logs its *observable* events: `Drop` when it pops a
//! photo that no longer fits the remaining budget, and `Cand` when the
//! coordinator pops its parked candidate, with the key it carried and
//! whether it was accepted. Internal heap mechanics — stale re-keys,
//! `is_selected` skips — are not recorded: for a clean shard they are a
//! deterministic function of the intra-shard accept history, which is
//! exactly what the replay reproduces. A clean shard's gains are bit-stable
//! across an epoch delta, so its recorded keys stay exact **as long as the
//! run unfolds the same way**, which a replay stream re-verifies event by
//! event:
//!
//! * `Drop(p)`: if `p` still does not fit, consume and re-record; if it fits
//!   now, the transcript is missing `p`'s candidacies — **go live**.
//! * `Cand { photo, key, accepted }`: park `(key, photo)`. When the
//!   coordinator pops it, compare the recorded flag with the current
//!   affordability: on agreement the replay continues (accepts apply the
//!   photo, drops are free); on disagreement apply the *current* outcome,
//!   then **go live**.
//!
//! Going live rebuilds the shard's heap over its unselected, still-affordable
//! photos with freshly computed gains — the exact-argmax state the lazy
//! settle loop reaches, so the coordinator cannot tell the difference.
//! Dropped photos never re-enter (costs only grow), and interposed replay
//! candidacies that end in drops are cost- and coverage-neutral, so they
//! cannot perturb the accept sequence. Replay accepts use the plain
//! [`Evaluator::add`]: coverage changes are always intra-shard and replay
//! streams read no staleness stamps.
//!
//! The coordinator is sequential by nature (each accept must observe the
//! previous one); the seed sweep is one `par-exec` batch, and heap *pop
//! order* is fully determined by the entry ordering, so a serial run is
//! transcript-identical.

use crate::celf::Entry;
use crate::main_alg::{pick_winner, MainOutcome};
use crate::types::{GreedyOutcome, RunStats};
use crate::GreedyRule;
use par_core::components::{decompose, Decomposition, ShardLabels};
use par_core::{ContextSim, EvalArena, EvalStats, Evaluator, Instance, PhotoId, SubsetId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Reusable solver buffers: the evaluator arenas, per-shard stream entry
/// buffers, staleness stamps, and the change-tracking list.
///
/// One `SolveScratch` serves any sequence of instances (fleet tenants,
/// epochs, budget sweeps): buffers grow to the largest instance seen and are
/// reused (cleared, then fully rewritten) for each subsequent one. Like
/// [`EvalArena`], the scratch holds *capacity only*, so a solve through a
/// dirty scratch is bit-identical to one through a fresh scratch — the
/// invariant the engine and fleet tests pin.
#[derive(Debug, Default)]
pub struct SolveScratch {
    /// Capacity for the prepared plan's base (post-`S₀`) evaluator.
    base_eval: EvalArena,
    /// Capacity for the per-solve evaluator clone.
    solve_eval: EvalArena,
    /// Recycled per-shard stream entry buffers (heap backing stores and
    /// frozen pool vectors alike).
    entries: Vec<Vec<Entry>>,
    /// Per-photo staleness versions.
    ver: Vec<u32>,
    /// Coverage-change report buffer for `add_tracked`.
    changed: Vec<(SubsetId, u32)>,
}

impl SolveScratch {
    /// An empty scratch; buffers are allocated on first use and kept.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One recorded observable event of a shard's stream. See the
/// [module docs](self) for the replay verification rules.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TEvent {
    /// The stream popped this photo while it no longer fit the remaining
    /// budget and dropped it permanently.
    Drop(PhotoId),
    /// A parked candidate was popped by the coordinator carrying `key`;
    /// `accepted` records whether it was affordable at pop time.
    Cand {
        /// The candidate photo.
        photo: PhotoId,
        /// The exact priority key it was parked with.
        key: f64,
        /// Whether the coordinator accepted (vs dropped) it.
        accepted: bool,
    },
}

/// A shard's transcripts, one per greedy rule (indexed by [`rule_index`]).
pub(crate) type RuleCache = [Vec<TEvent>; 2];

/// Index of `rule` into per-rule caches.
#[inline]
pub(crate) fn rule_index(rule: GreedyRule) -> usize {
    match rule {
        GreedyRule::UnitCost => 0,
        GreedyRule::CostBenefit => 1,
    }
}

/// The backing store of a shard stream.
enum StreamState<'c> {
    /// A CELF max-heap: entries go stale and are re-keyed via the staleness
    /// stamps.
    Heap(BinaryHeap<Entry>),
    /// The singleton pool's stream: a cursor over entries pre-sorted in pop
    /// order (descending [`Entry`] order — max key, ties to the smaller id).
    ///
    /// A pool photo shares no stored similarity pair with any other photo,
    /// so its marginal gain reads only its own coverage, which no other
    /// photo's accept can raise. Its seed key is therefore **exact
    /// forever**: no staleness check, no recomputation, and a sorted cursor
    /// pops in exactly the heap's order.
    Frozen { entries: Vec<Entry>, cursor: usize },
    /// A recorded transcript being replayed; turns into a heap on
    /// divergence.
    Replay { events: &'c [TEvent], cursor: usize },
}

/// One shard's lazy stream and its parked settled top.
///
/// Instead of the global CELF's single epoch (every accept invalidates every
/// cached entry), each photo carries a version counter bumped when an accept
/// changes any coverage its gain reads. A cached entry stores its photo's
/// version at compute time; the entry is exactly current while the version
/// is unchanged, so popping it skips the recomputation the global loop
/// would have paid, with a bit-identical key.
struct Stream<'c> {
    state: StreamState<'c>,
    /// The settled top: current and affordable at settle time. `None` once
    /// the stream is drained.
    candidate: Option<Entry>,
    /// The recorded `accepted` flag of a parked replay candidate; `None`
    /// when the candidate came from a heap or the pool.
    pending: Option<bool>,
    /// Events observed this run — the next epoch's transcript.
    rec: Vec<TEvent>,
    pq_pops: u64,
    went_live: bool,
}

/// What a stream reads besides the evaluator and the staleness versions.
struct RunCtx<'r> {
    inst: &'r Instance,
    dec: &'r Decomposition,
    budget: u64,
    rule: GreedyRule,
    /// Whether streams record transcripts.
    record: bool,
}

impl Stream<'_> {
    /// Advances until a candidate is parked or the stream drains: heaps
    /// settle on a current (stamp-validated), affordable top; replays verify
    /// each recorded event (divergence falls through to
    /// [`go_live`](Self::go_live)). Photos popped while unaffordable are
    /// dropped permanently — the remaining budget only shrinks, exactly the
    /// global loop's drop rule.
    // phocus-lint: hot-kernel — CELF stream advance; runs once per merge-heap pop
    fn settle(&mut self, cx: &RunCtx<'_>, s: usize, ev: &Evaluator<'_>, ver: &[u32]) {
        debug_assert!(self.candidate.is_none());
        loop {
            match &mut self.state {
                StreamState::Heap(heap) => {
                    while let Some(top) = heap.pop() {
                        self.pq_pops += 1;
                        let p = top.photo;
                        if ev.is_selected(p) {
                            continue;
                        }
                        if !ev.fits(p, cx.budget) {
                            if cx.record {
                                self.rec.push(TEvent::Drop(p));
                            }
                            continue;
                        }
                        let stamp = ver[p.index()];
                        if top.epoch == stamp {
                            self.candidate = Some(top);
                            return;
                        }
                        let delta = ev.gain(p);
                        heap.push(Entry {
                            key: cx.rule.key(delta, cx.inst.cost(p)),
                            photo: p,
                            epoch: stamp,
                        });
                    }
                    return;
                }
                StreamState::Frozen { entries, cursor } => {
                    while let Some(&top) = entries.get(*cursor) {
                        *cursor += 1;
                        self.pq_pops += 1;
                        if ev.is_selected(top.photo) || !ev.fits(top.photo, cx.budget) {
                            continue;
                        }
                        self.candidate = Some(top);
                        return;
                    }
                    return;
                }
                StreamState::Replay { events, cursor } => {
                    let mut diverged = false;
                    while let Some(&e) = events.get(*cursor) {
                        self.pq_pops += 1;
                        match e {
                            TEvent::Drop(p) => {
                                if ev.is_selected(p) {
                                    *cursor += 1;
                                    continue;
                                }
                                if !ev.fits(p, cx.budget) {
                                    *cursor += 1;
                                    self.rec.push(TEvent::Drop(p));
                                    continue;
                                }
                                // The recorded run dropped a photo that fits
                                // this time: the transcript under-covers it.
                                diverged = true;
                                break;
                            }
                            TEvent::Cand {
                                photo,
                                key,
                                accepted,
                            } => {
                                debug_assert!(!ev.is_selected(photo));
                                *cursor += 1;
                                self.candidate = Some(Entry {
                                    key,
                                    photo,
                                    epoch: 0,
                                });
                                self.pending = Some(accepted);
                                return;
                            }
                        }
                    }
                    if !diverged {
                        return; // drained
                    }
                }
            }
            self.go_live(cx, s, ev, ver);
        }
    }

    /// Abandons replay: rebuilds an exact heap over the shard's unselected,
    /// still-affordable photos with freshly computed gains, stamped at the
    /// current staleness versions — precisely the settled state the lazy
    /// heap represents, so the coordinator's view is unchanged.
    fn go_live(&mut self, cx: &RunCtx<'_>, s: usize, ev: &Evaluator<'_>, ver: &[u32]) {
        let mut ids: Vec<PhotoId> = Vec::new();
        for &p in &cx.dec.shards[s].photos {
            if ev.is_selected(p) {
                continue;
            }
            if ev.fits(p, cx.budget) {
                ids.push(p);
            } else {
                // The rebuild excludes photos that no longer fit — exactly
                // the photos a lazy heap would pop and drop later. Record
                // those drops so the next transcript still covers them.
                self.rec.push(TEvent::Drop(p));
            }
        }
        let gains = ev.batch_gains(&ids);
        let entries: Vec<Entry> = ids
            .iter()
            .zip(&gains)
            .map(|(&p, &g)| Entry {
                key: cx.rule.key(g, cx.inst.cost(p)),
                photo: p,
                epoch: ver[p.index()],
            })
            .collect(); // phocus-lint: allow(alloc-hot) — go-live divergence fallback, once per demoted stream
        self.state = StreamState::Heap(BinaryHeap::from(entries));
        self.pending = None;
        self.went_live = true;
    }
}

/// A coordinator heap entry: a shard's settled top, keyed for the merged
/// argmax with the same ordering as the global CELF heap (max key, ties to
/// the smaller photo id).
struct MergeEntry {
    key: f64,
    photo: PhotoId,
    shard: u32,
}

impl PartialEq for MergeEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.photo == other.photo
    }
}
impl Eq for MergeEntry {}
impl PartialOrd for MergeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key
            .total_cmp(&other.key)
            .then_with(|| other.photo.cmp(&self.photo))
    }
}

/// One rule's run: the outcome plus the replay instrumentation and, when
/// replaying, the transcripts observed while producing it.
pub(crate) struct EngineRun {
    pub(crate) outcome: GreedyOutcome,
    /// Per-shard transcripts (empty vectors unless recording).
    pub(crate) rec: Vec<Vec<TEvent>>,
    /// Streams that began the run replaying a transcript.
    pub(crate) replayed: usize,
    /// Non-pool streams that began the run as live heaps.
    pub(crate) live: usize,
    /// Replay streams that diverged and rebuilt a live heap.
    pub(crate) went_live: usize,
}

/// The prepared CELF plan: the component labeling, the `S₀` replay, and the
/// rule-independent seed sweep, computed **once**; then any number of solves
/// (e.g. under both greedy rules, as
/// [`main_algorithm_sharded`](crate::main_algorithm_sharded) does).
#[derive(Debug)]
pub struct ShardedSolver<'a> {
    inst: &'a Instance,
    dec: Decomposition,
    /// The shared arena with `S₀` replayed; cloned per solve (the clone
    /// shares the offset/weight layout and copies only the mutable state).
    base: Evaluator<'a>,
    /// Instrumentation already spent building `base` (subtracted from each
    /// solve's reported stats so they count per-solve work only).
    base_stats: EvalStats,
    /// Epoch-0 marginal gain of every swept photo at the post-`S₀` state, by
    /// photo id (zero for `S₀` and for photos of replaying shards).
    /// Rule-independent: each solve derives its heap keys as
    /// `rule.key(δ, cost)`, bit-identical to the global seeding.
    seed: Vec<f64>,
    /// The singleton pool's seed entries pre-sorted in pop order, one vector
    /// per greedy rule (indexed by [`rule_index`]; empty without a pool).
    /// Pool keys are frozen, so a cold solve copies the right vector instead
    /// of re-keying and sorting the (often largest) shard.
    pool_sorted: [Vec<Entry>; 2],
}

impl<'a> ShardedSolver<'a> {
    /// Labels `inst`'s photo–query components and prepares the shared
    /// post-`S₀` state: the evaluator arena and the seed-gain sweep (one
    /// parallel batch through `par-exec`).
    pub fn new(inst: &'a Instance) -> Self {
        Self::prepare(
            inst,
            decompose(inst),
            &mut SolveScratch::new(),
            &[],
            &mut [],
        )
    }

    /// [`new`](Self::new) with the component labeling precomputed — labels
    /// bulk-read from a `phocus-pack` file skip the union-find pass — and the
    /// base evaluator's buffers drawn from `scratch` (pair with
    /// [`recycle`](Self::recycle) to return them). The labels must equal
    /// `shard_labels(inst)` (the pack writer derives them exactly so);
    /// everything downstream is bit-identical to [`new`](Self::new).
    pub fn new_in_with_labels(
        inst: &'a Instance,
        labels: ShardLabels,
        scratch: &mut SolveScratch,
    ) -> Self {
        Self::prepare(
            inst,
            Decomposition::from_labels(labels),
            scratch,
            &[],
            &mut [],
        )
    }

    /// Builds the plan, drawing the base evaluator's buffers from `scratch`.
    /// The seed sweep covers every photo outside `S₀`
    /// except those of shards with a transcript in `replaying` (a replay
    /// stream needs no seeds) and pool photos whose state-independent gain
    /// `pool_gain` already caches; freshly swept pool gains are written back
    /// to `pool_gain` when it is non-empty. Affordability is applied at
    /// stream-build time against each solve's budget, so one plan serves a
    /// whole budget sweep and transcripts stay valid across budget changes.
    pub(crate) fn prepare(
        inst: &'a Instance,
        dec: Decomposition,
        scratch: &mut SolveScratch,
        replaying: &[Option<RuleCache>],
        pool_gain: &mut [Option<f64>],
    ) -> Self {
        let mut base = Evaluator::new_in(inst, &mut scratch.base_eval);
        for &p in inst.required() {
            base.add(p);
        }
        let n = inst.num_photos();
        let pool = dec.singleton_pool();
        // phocus-lint: allow(alloc-hot) — plan construction, once per prepare; the hot-kernel edge is the name-resolved `Vec::new` in go_live
        let mut seed = vec![0.0f64; n];
        let mut sweep: Vec<PhotoId> = Vec::new();
        for p in (0..n as u32).map(PhotoId) {
            if base.is_selected(p) {
                continue;
            }
            let s = dec.shard_of(p);
            if Some(s) == pool {
                if let Some(g) = pool_gain.get(p.index()).copied().flatten() {
                    seed[p.index()] = g;
                    continue;
                }
            } else if replaying.get(s).is_some_and(Option::is_some) {
                continue;
            }
            sweep.push(p);
        }
        for (&p, g) in sweep.iter().zip(base.batch_gains(&sweep)) {
            seed[p.index()] = g;
            if let Some(slot) = pool_gain.get_mut(p.index()) {
                if Some(dec.shard_of(p)) == pool {
                    *slot = Some(g);
                }
            }
        }
        let base_stats = base.stats();
        let pool_sorted = [GreedyRule::UnitCost, GreedyRule::CostBenefit].map(|rule| {
            let mut entries = Vec::new();
            if let Some(pool) = pool {
                let keep = |p| !base.is_selected(p);
                frozen_entries(
                    inst,
                    &dec.shards[pool].photos,
                    &seed,
                    rule,
                    keep,
                    &mut entries,
                );
            }
            entries
        });
        ShardedSolver {
            inst,
            dec,
            base,
            base_stats,
            seed,
            pool_sorted,
        }
    }

    /// The underlying component decomposition.
    pub fn decomposition(&self) -> &Decomposition {
        &self.dec
    }

    /// Gain evaluations spent preparing the plan (the `S₀` replay and the
    /// seed sweep).
    pub(crate) fn prepare_gain_evals(&self) -> u64 {
        self.base_stats.gain_evals
    }

    /// The plan's equivalent of [`lazy_greedy`](crate::lazy_greedy):
    /// [`solve_scratch`](Self::solve_scratch) on a fresh scratch.
    pub fn solve(&self, rule: GreedyRule) -> GreedyOutcome {
        self.solve_scratch(rule, &mut SolveScratch::new())
    }

    /// [`solve`](Self::solve) drawing every per-solve allocation (evaluator
    /// clone, stream entry buffers, staleness stamps, change list) from
    /// `scratch`, and returning the capacity there afterwards. Bit-identical
    /// whatever the scratch held before — see [`SolveScratch`].
    pub fn solve_scratch(&self, rule: GreedyRule, scratch: &mut SolveScratch) -> GreedyOutcome {
        self.run(rule, self.inst.budget(), None, scratch, None)
            .outcome
    }

    /// [`solve`](Self::solve) under an arbitrary budget `B'` instead of the
    /// instance's own: bit-identical to solving `inst.with_budget(B')` from
    /// scratch, but reusing this plan's labeling, `S₀` replay and seed sweep
    /// (all budget-independent). This is what lets a sorted budget sweep —
    /// [`quality_curve`](crate::quality_curve) — prepare once.
    pub fn solve_with_budget(&self, rule: GreedyRule, budget: u64) -> GreedyOutcome {
        self.run(rule, budget, None, &mut SolveScratch::new(), None)
            .outcome
    }

    /// The plan's equivalent of [`lazy_greedy_from`](crate::lazy_greedy_from):
    /// resumes from an arbitrary initial selection. The cached seed gains do
    /// not apply to a warm start (they were computed at the post-`S₀`
    /// state), so this path pays its own seed sweep, like the global solver.
    pub fn solve_from(&self, initial: &[PhotoId], rule: GreedyRule) -> GreedyOutcome {
        let scratch = &mut SolveScratch::new();
        self.run(rule, self.inst.budget(), Some(initial), scratch, None)
            .outcome
    }

    /// Algorithm 1 on the plan: both rules through
    /// [`solve_scratch`](Self::solve_scratch), the better outcome winning.
    pub fn main_algorithm(&self, scratch: &mut SolveScratch) -> MainOutcome {
        let uc = self.solve_scratch(GreedyRule::UnitCost, scratch);
        let cb = self.solve_scratch(GreedyRule::CostBenefit, scratch);
        pick_winner(uc, cb)
    }

    /// Returns the prepared base evaluator's buffers to `scratch` for the
    /// next instance. Call after the last solve against this plan.
    pub fn recycle(self, scratch: &mut SolveScratch) {
        self.base.recycle(&mut scratch.base_eval);
    }

    /// The coordinator: one rule's run over every shard stream. With
    /// `transcripts`, shards holding one replay it and every non-pool stream
    /// records its events into [`EngineRun::rec`].
    pub(crate) fn run(
        &self,
        rule: GreedyRule,
        budget: u64,
        initial: Option<&[PhotoId]>,
        scratch: &mut SolveScratch,
        transcripts: Option<&[Option<RuleCache>]>,
    ) -> EngineRun {
        let inst = self.inst;
        let dec = &self.dec;
        let pool = dec.singleton_pool();
        let mut ev = self.base.clone_in(&mut scratch.solve_eval);

        // The seed gains: the prepared sweep for a cold solve, or a fresh
        // sweep at the warm-started state.
        let warm_seed: Option<Vec<f64>> = initial.map(|init| {
            for &p in init {
                ev.add(p);
            }
            let candidates: Vec<PhotoId> = (0..inst.num_photos() as u32)
                .map(PhotoId)
                .filter(|&p| !ev.is_selected(p) && ev.fits(p, budget))
                .collect();
            let mut seed = vec![0.0f64; inst.num_photos()];
            for (&p, g) in candidates.iter().zip(ev.batch_gains(&candidates)) {
                seed[p.index()] = g;
            }
            seed
        });
        let seed = warm_seed.as_deref().unwrap_or(&self.seed);

        // Build the streams over photos affordable at the seeded state, with
        // entry buffers recycled from the scratch. Pop order is fully
        // determined by the entry ordering, so buffer history is invisible.
        let (mut replayed, mut live) = (0usize, 0usize);
        let mut streams: Vec<Stream<'_>> = Vec::with_capacity(dec.num_shards());
        for (s, shard) in dec.shards.iter().enumerate() {
            let replay = transcripts.and_then(|t| t.get(s)).and_then(Option::as_ref);
            let state = if Some(s) == pool {
                let mut buf = scratch.entries.pop().unwrap_or_default();
                buf.clear();
                if initial.is_none() {
                    // Filtering the pre-sorted entries preserves their pop
                    // order.
                    let sorted = &self.pool_sorted[rule_index(rule)];
                    buf.extend(sorted.iter().filter(|e| ev.fits(e.photo, budget)));
                } else {
                    let keep = |p| !ev.is_selected(p) && ev.fits(p, budget);
                    frozen_entries(inst, &shard.photos, seed, rule, keep, &mut buf);
                }
                StreamState::Frozen {
                    entries: buf,
                    cursor: 0,
                }
            } else if let Some(per_rule) = replay {
                replayed += 1;
                StreamState::Replay {
                    events: &per_rule[rule_index(rule)],
                    cursor: 0,
                }
            } else {
                live += 1;
                let mut buf = scratch.entries.pop().unwrap_or_default();
                buf.clear();
                buf.extend(
                    shard
                        .photos
                        .iter()
                        .filter(|&&p| !ev.is_selected(p) && ev.fits(p, budget))
                        .map(|&p| Entry {
                            key: rule.key(seed[p.index()], inst.cost(p)),
                            photo: p,
                            epoch: 0,
                        }),
                );
                StreamState::Heap(BinaryHeap::from(buf))
            };
            streams.push(Stream {
                state,
                candidate: None,
                pending: None,
                rec: Vec::new(),
                pq_pops: 0,
                went_live: false,
            });
        }

        // Per-photo staleness versions; all zero, matching the epoch-0 seed
        // entries.
        let mut ver = std::mem::take(&mut scratch.ver);
        ver.clear();
        ver.resize(inst.num_photos(), 0);
        let mut changed = std::mem::take(&mut scratch.changed);
        let cx = RunCtx {
            inst,
            dec,
            budget,
            rule,
            record: transcripts.is_some(),
        };

        // The merged frontier: at most one settled candidate per shard.
        let mut merge: BinaryHeap<MergeEntry> = BinaryHeap::new();
        for (s, stream) in streams.iter_mut().enumerate() {
            stream.settle(&cx, s, &ev, &ver);
            if let Some(c) = &stream.candidate {
                merge.push(MergeEntry {
                    key: c.key,
                    photo: c.photo,
                    shard: s as u32, // phocus-lint: allow(cast-bounds) — shard count ≤ photo count, u32 by id width
                });
            }
        }

        let mut merge_pops = 0u64;
        let mut lazy_accepts = 0u64;
        while let Some(top) = merge.pop() {
            merge_pops += 1;
            let s = top.shard as usize;
            let stream = &mut streams[s];
            stream.candidate = None;
            let fit = ev.fits(top.photo, budget);
            if fit {
                lazy_accepts += 1;
            }
            if Some(s) == pool {
                // A pool accept raises only its own coverage (no stored pair
                // links it to anyone), and the frozen pool stream never
                // reads stamps: no propagation to do.
                if fit {
                    ev.add(top.photo);
                }
            } else {
                if cx.record {
                    stream.rec.push(TEvent::Cand {
                        photo: top.photo,
                        key: top.key,
                        accepted: fit,
                    });
                }
                match stream.pending.take() {
                    // Replay accepts are plain adds: coverage changes stay
                    // inside this shard, and a replaying stream reads no
                    // staleness stamps.
                    Some(recorded) => {
                        if fit {
                            ev.add(top.photo);
                        }
                        if fit != recorded {
                            stream.go_live(&cx, s, &ev, &ver);
                        }
                    }
                    // Accept, then bump the version of every photo whose
                    // gain read-set the add touched.
                    None if fit => {
                        changed.clear();
                        ev.add_tracked(top.photo, |q, j| changed.push((q, j)));
                        propagate_changes(inst, &changed, &mut ver);
                    }
                    // Parked before the budget tightened; global CELF drops
                    // such photos at pop time, and they can never fit again.
                    None => {}
                }
            }
            stream.settle(&cx, s, &ev, &ver);
            if let Some(c) = &stream.candidate {
                merge.push(MergeEntry {
                    key: c.key,
                    photo: c.photo,
                    shard: top.shard,
                });
            }
        }

        let st = ev.stats();
        let pq_pops = merge_pops + streams.iter().map(|s| s.pq_pops).sum::<u64>();
        let went_live = streams.iter().filter(|s| s.went_live).count();
        let outcome = GreedyOutcome {
            score: ev.score(),
            cost: ev.cost(),
            selected: ev.selected_ids().to_vec(),
            stats: RunStats {
                // Per-solve work only: the prepared `S₀` replay and seed
                // sweep are amortized across solves and not re-counted.
                gain_evals: st.gain_evals - self.base_stats.gain_evals,
                sim_ops: st.sim_ops - self.base_stats.sim_ops,
                pq_pops,
                lazy_accepts,
            },
        };
        ev.recycle(&mut scratch.solve_eval);
        scratch.ver = ver;
        scratch.changed = changed;
        let mut rec = Vec::new();
        for stream in streams {
            if cx.record {
                rec.push(stream.rec);
            }
            match stream.state {
                StreamState::Heap(heap) => scratch.entries.push(heap.into_vec()),
                StreamState::Frozen { entries, .. } => scratch.entries.push(entries),
                StreamState::Replay { .. } => {}
            }
        }
        EngineRun {
            outcome,
            rec,
            replayed,
            live,
            went_live,
        }
    }
}

/// Appends the frozen pool entries of `photos` passing `keep`, keyed from
/// `seed`, to `out` in pop order.
fn frozen_entries(
    inst: &Instance,
    photos: &[PhotoId],
    seed: &[f64],
    rule: GreedyRule,
    keep: impl Fn(PhotoId) -> bool,
    out: &mut Vec<Entry>,
) {
    out.extend(photos.iter().filter(|&&p| keep(p)).map(|&p| Entry {
        key: rule.key(seed[p.index()], inst.cost(p)),
        photo: p,
        epoch: 0,
    }));
    out.sort_unstable_by(|a, b| b.cmp(a));
}

/// Bumps the staleness version of every photo whose gain read-set an accept
/// touched, given the coverage changes [`Evaluator::add_tracked`] reported
/// (grouped by subset, in report order).
///
/// Per changed subset the cheaper propagation wins: walk the changed
/// members' stored rows — a gain reads exactly its own and its stored
/// neighbors' coverage — or, when those rows are longer than the context
/// (or the context is dense/unit, where one change dirties every member),
/// bump every member once. Both mark a superset of the affected photos, so
/// invalidation never costs more than O(|q|) per changed context.
fn propagate_changes(inst: &Instance, changed: &[(SubsetId, u32)], ver: &mut [u32]) {
    let mut i = 0;
    while i < changed.len() {
        let q = changed[i].0;
        let mut end = i + 1;
        while end < changed.len() && changed[end].0 == q {
            end += 1;
        }
        let group = &changed[i..end];
        let members = &inst.subset(q).members;
        let precise = match inst.sim(q) {
            ContextSim::Sparse(sp) => {
                let walk: usize = group
                    .iter()
                    .map(|&(_, j)| sp.neighbors(j as usize).0.len() + 1)
                    .sum();
                (walk < members.len()).then_some(sp)
            }
            _ => None,
        };
        match precise {
            Some(sp) => {
                for &(_, j) in group {
                    let m = members[j as usize].index();
                    ver[m] = ver[m].wrapping_add(1);
                    for &k in sp.neighbors(j as usize).0 {
                        let n = members[k as usize].index();
                        ver[n] = ver[n].wrapping_add(1);
                    }
                }
            }
            None => {
                for &m in members {
                    ver[m.index()] = ver[m.index()].wrapping_add(1);
                }
            }
        }
        i = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lazy_greedy;
    use par_core::fixtures::{figure1_instance, random_instance, RandomInstanceConfig, MB};

    fn assert_transcripts_match(inst: &Instance) {
        for rule in [GreedyRule::UnitCost, GreedyRule::CostBenefit] {
            let global = lazy_greedy(inst, rule);
            let sharded = ShardedSolver::new(inst).solve(rule);
            assert_eq!(sharded.selected, global.selected, "selection diverged ({rule:?})");
            assert_eq!(
                sharded.score.to_bits(),
                global.score.to_bits(),
                "score bits diverged ({rule:?}): {} vs {}",
                sharded.score,
                global.score
            );
            assert_eq!(sharded.cost, global.cost);
        }
    }

    #[test]
    fn figure1_transcripts_match() {
        for budget in [2 * MB, 3 * MB, 4 * MB, u64::MAX] {
            assert_transcripts_match(&figure1_instance(budget));
        }
    }

    #[test]
    fn dense_and_sparse_random_transcripts_match() {
        for seed in 0..4 {
            let inst = random_instance(seed, &RandomInstanceConfig::default());
            assert_transcripts_match(&inst);
            assert_transcripts_match(&inst.sparsify(0.8));
            assert_transcripts_match(&inst.with_unit_sims());
        }
    }

    #[test]
    fn required_photos_and_tight_budgets_match() {
        let cfg = RandomInstanceConfig {
            photos: 60,
            subsets: 15,
            required_prob: 0.1,
            budget_fraction: 0.25,
            ..Default::default()
        };
        for seed in 0..4 {
            let inst = random_instance(seed, &cfg);
            assert_transcripts_match(&inst.sparsify(0.85));
        }
    }

    #[test]
    fn scratch_solve_is_bit_identical_across_reused_tenants() {
        // One scratch, several differently shaped "tenants" in sequence:
        // each prepare + solve through the dirty scratch must match the
        // fresh-scratch path bit for bit, work counters included.
        let mut scratch = SolveScratch::new();
        let tenants = [
            random_instance(3, &RandomInstanceConfig::default()),
            random_instance(
                9,
                &RandomInstanceConfig {
                    photos: 40,
                    subsets: 8,
                    budget_fraction: 0.3,
                    ..Default::default()
                },
            )
            .sparsify(0.8),
            figure1_instance(3 * MB),
        ];
        for inst in &tenants {
            for rule in [GreedyRule::UnitCost, GreedyRule::CostBenefit] {
                let fresh = ShardedSolver::new(inst).solve(rule);
                let labels = par_core::shard_labels(inst);
                let solver = ShardedSolver::new_in_with_labels(inst, labels, &mut scratch);
                let reused = solver.solve_scratch(rule, &mut scratch);
                solver.recycle(&mut scratch);
                assert_eq!(reused.selected, fresh.selected, "selection ({rule:?})");
                assert_eq!(reused.score.to_bits(), fresh.score.to_bits());
                assert_eq!(reused.cost, fresh.cost);
                assert_eq!(reused.stats.gain_evals, fresh.stats.gain_evals);
                assert_eq!(reused.stats.pq_pops, fresh.stats.pq_pops);
            }
        }
        assert!(
            !scratch.entries.is_empty(),
            "solve_scratch must return entry buffers for reuse"
        );
    }

    #[test]
    fn sharded_recomputes_less_on_multi_component_instances() {
        let inst = random_instance(5, &RandomInstanceConfig::default()).sparsify(0.85);
        let solver = ShardedSolver::new(&inst);
        if solver.decomposition().num_shards() < 2 {
            return; // nothing to save on a single component
        }
        let global = lazy_greedy(&inst, GreedyRule::CostBenefit);
        let sharded = solver.solve(GreedyRule::CostBenefit);
        assert!(
            sharded.stats.gain_evals <= global.stats.gain_evals,
            "sharded {} vs global {}",
            sharded.stats.gain_evals,
            global.stats.gain_evals
        );
    }
}
