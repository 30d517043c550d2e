//! The PAR objective `G` and its incremental [`Evaluator`].
//!
//! The objective (Section 3.1 of the paper) is
//!
//! ```text
//! G(S) = Σ_{q∈Q} W(q) · Σ_{p∈q} R(q,p) · SIM(q, p, NN(q,p,S))
//! ```
//!
//! Solvers evaluate *marginal gains* `G(S ∪ {c}) − G(S)` millions of times, so
//! the evaluator maintains, for every subset `q` and member `p ∈ q`, the best
//! similarity `best(q,p) = SIM(q, p, NN(q,p,S))` achieved by the current
//! solution. A marginal-gain query for candidate `c` then only touches the
//! contexts containing `c` and, within each, only `c`'s stored neighbors:
//!
//! ```text
//! Δ(c) = Σ_{(q,ℓ) ∋ c} Σ_{j ~ ℓ} wr(q,j) · max(0, SIM(q,ℓ,j) − best(q,j))
//! ```
//!
//! where `wr(q,j) = W(q)·R(q,j)` is precomputed once per evaluator. The query
//! is `O(Σ deg(c))` — the quantity that τ-sparsification (Section 4.3)
//! shrinks. [`exact_score`] recomputes `G` from scratch and is used to
//! cross-check the incremental state in tests and to evaluate baseline
//! selections under the *true* objective.
//!
//! # Memory layout
//!
//! All per-member state lives in flat arenas indexed by a per-subset offset
//! table (`off[s] + j` addresses member `j` of subset `s`): `best` and
//! `provider` are single contiguous arrays rather than one heap allocation
//! per subset, and the fused weight array `wr` removes a relevance load and a
//! multiply from every neighbor visit. Because the original code computed
//! `(W(q) · R(q,j)) · (s − b)` — left-associated — precomputing the product
//! `W(q) · R(q,j)` preserves f64 bit-identity. The neighbor loops themselves
//! are specialized per [`ContextSim`] variant over the CSR / packed-triangle
//! slice accessors, so the hot path runs over flat `u32`/`f32`/`f64` arrays
//! with no closure dispatch.

use crate::{ContextSim, Instance, PhotoId, SubsetId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Instrumentation counters exposed by [`Evaluator`], used by the experiment
/// harness to report evaluation counts (the paper's ~700× lazy-evaluation
/// argument) and similarity-operation counts (the sparsification speedup).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of marginal-gain queries answered.
    pub gain_evals: u64,
    /// Number of similarity lookups performed across all queries and updates.
    pub sim_ops: u64,
}

/// Immutable per-member layout shared by an evaluator and all its clones:
/// the subset → arena offset table and the fused `W(q)·R(q,j)` weights.
///
/// Solvers like Sviridenko's partial enumeration and branch-and-bound clone
/// evaluators on every stack frame; sharing the constant arrays behind one
/// `Arc` keeps a clone to the two mutable arenas plus bookkeeping.
#[derive(Debug)]
struct MemberLayout {
    /// `off[s]..off[s+1]` spans subset `s`'s members in the arenas.
    off: Vec<u32>,
    /// `wr[off[s] + j] = W(q_s) · R(q_s, j)`.
    wr: Vec<f64>,
}

/// Visits every stored neighbor `(j, s)` of member `local` in context `sim`,
/// running `body` with `j: usize` and `s: f64` bound, and charging `ops` one
/// similarity op per visit — the layout-specialized replacement for
/// `ContextSim::for_neighbors` on the evaluator hot path.
///
/// The dense arm iterates the contiguous lower-triangle row for `j < local`
/// and walks column entries with an incrementally maintained row base for
/// `j > local`; the sparse arm zips the CSR index/similarity slices; the
/// unit arm is a plain counted loop. Visit order (ascending `j`, skipping
/// `local`) and f64 values are identical across arms to the closure-based
/// iteration, keeping accumulation bit-identical.
macro_rules! for_each_neighbor {
    ($sim:expr, $local:expr, $ops:expr, |$j:ident, $s:ident| $body:block) => {
        match $sim {
            ContextSim::Dense(d) => {
                let n = d.len();
                $ops += (n - 1) as u64;
                for ($j, &sv) in d.row($local).iter().enumerate() {
                    let $s = sv as f64;
                    $body
                }
                let tri = d.raw_tri();
                let mut base = $local * ($local + 1) / 2;
                for $j in $local + 1..n {
                    let $s = tri[base + $local] as f64;
                    $body
                    base += $j;
                }
            }
            ContextSim::Sparse(sp) => {
                let (ids, sims) = sp.neighbors($local);
                $ops += ids.len() as u64;
                for (&jj, &sv) in ids.iter().zip(sims) {
                    let $j = jj as usize;
                    let $s = sv as f64;
                    $body
                }
            }
            ContextSim::Unit(n) => {
                $ops += (*n - 1) as u64;
                for $j in 0..*n {
                    if $j != $local {
                        let $s = 1.0f64;
                        $body
                    }
                }
            }
        }
    };
}

/// Like [`for_each_neighbor!`], but runs `body` only for neighbors that
/// *improve* on the tracked best, binding `j`, `b = best[j]`, and `s > b`.
///
/// The dense column walk adds a `b < 1.0` pre-check: similarities are
/// validated into `[0, 1]`, so a member already covered at 1.0 (itself
/// selected) can never be improved, and its similarity load — a strided
/// cache miss through the packed triangle — is skipped without reading it.
/// The check is semantically redundant (`s > 1.0` is impossible), which is
/// why the streaming arms skip it: there the similarity is already in cache
/// and a second data-dependent branch costs more than the load. `s > b` is
/// established before `body` runs in all arms, so gain/add bodies see
/// exactly the entries the unguarded `if s > b` would have accepted, and op
/// accounting matches the plain macro (every stored neighbor is charged,
/// visited or not).
macro_rules! for_each_improving_neighbor {
    ($sim:expr, $local:expr, $ops:expr, $best:ident, |$j:ident, $b:ident, $s:ident| $body:block) => {
        match $sim {
            ContextSim::Dense(d) => {
                let n = d.len();
                $ops += (n - 1) as u64;
                for ($j, &sv) in d.row($local).iter().enumerate() {
                    let $s = sv as f64;
                    let $b = $best[$j];
                    if $s > $b {
                        $body
                    }
                }
                let tri = d.raw_tri();
                let mut base = $local * ($local + 1) / 2;
                for $j in $local + 1..n {
                    let $b = $best[$j];
                    if $b < 1.0 {
                        let $s = tri[base + $local] as f64;
                        if $s > $b {
                            $body
                        }
                    }
                    base += $j;
                }
            }
            ContextSim::Sparse(sp) => {
                let (ids, sims) = sp.neighbors($local);
                $ops += ids.len() as u64;
                for (&jj, &sv) in ids.iter().zip(sims) {
                    let $j = jj as usize;
                    let $s = sv as f64;
                    let $b = $best[$j];
                    if $s > $b {
                        $body
                    }
                }
            }
            ContextSim::Unit(n) => {
                $ops += (*n - 1) as u64;
                for $j in 0..*n {
                    if $j != $local {
                        let $b = $best[$j];
                        if $b < 1.0 {
                            let $s = 1.0f64;
                            $body
                        }
                    }
                }
            }
        }
    };
}

/// Incremental evaluator of the PAR objective over a growing solution set.
///
/// The evaluator is tied to one [`Instance`] (and hence one similarity view);
/// baselines that *select* under a simplified objective but are *scored*
/// under the true one simply run two evaluators over two instance views.
///
/// Queries ([`gain`](Self::gain), [`batch_gains`](Self::batch_gains)) take
/// `&self` and only mutate the relaxed atomic instrumentation counters, so a
/// single evaluator can answer marginal-gain queries from many threads at
/// once; state mutation ([`add`](Self::add), [`remove`](Self::remove)) takes
/// `&mut self` and therefore has exclusive access.
#[derive(Debug)]
pub struct Evaluator<'a> {
    inst: &'a Instance,
    selected: Vec<bool>,
    selected_ids: Vec<PhotoId>,
    /// Offset table and fused weights, shared across clones.
    layout: Arc<MemberLayout>,
    /// `best[off[s] + j]` = best similarity of subset `s`'s member `j` to the
    /// current solution (0 when no member of `s` is selected).
    best: Vec<f64>,
    /// `provider[off[s] + j]` = local index of the selected member achieving
    /// that best (`NO_PROVIDER` when no member of `s` is selected).
    provider: Vec<u32>,
    score: f64,
    cost: u64,
    gain_evals: AtomicU64,
    sim_ops: AtomicU64,
}

impl Clone for Evaluator<'_> {
    fn clone(&self) -> Self {
        Evaluator {
            inst: self.inst,
            selected: self.selected.clone(),
            selected_ids: self.selected_ids.clone(),
            layout: Arc::clone(&self.layout),
            best: self.best.clone(),
            provider: self.provider.clone(),
            score: self.score,
            cost: self.cost,
            gain_evals: AtomicU64::new(self.gain_evals.load(Ordering::Relaxed)),
            sim_ops: AtomicU64::new(self.sim_ops.load(Ordering::Relaxed)),
        }
    }
}

/// Sentinel for "no selected member covers this one yet".
const NO_PROVIDER: u32 = u32::MAX;

/// Recycled buffer capacity for [`Evaluator`] construction and cloning.
///
/// A fleet run builds one evaluator (plus per-shard clones) per tenant;
/// allocating the `best`/`provider`/`wr` arenas fresh each time puts the
/// allocator on the per-tenant hot path. An `EvalArena` keeps those buffers
/// alive between tenants: [`Evaluator::new_in`] / [`Evaluator::clone_in`]
/// take the capacity out, and [`Evaluator::recycle`] puts it back.
///
/// **Reuse is invisible in the output.** The arena holds *capacity only* —
/// every buffer is `clear()`ed and then fully rewritten by the same
/// arithmetic `Evaluator::new` / `Clone::clone` perform, so an evaluator
/// built in an arena is bit-identical to a freshly allocated one no matter
/// what the arena held before.
#[derive(Debug, Default)]
pub struct EvalArena {
    selected: Vec<bool>,
    selected_ids: Vec<PhotoId>,
    off: Vec<u32>,
    wr: Vec<f64>,
    best: Vec<f64>,
    provider: Vec<u32>,
}

impl EvalArena {
    /// An empty arena (buffers grow to the largest tenant seen and stay).
    pub fn new() -> Self {
        Self::default()
    }
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator with an empty solution.
    pub fn new(inst: &'a Instance) -> Self {
        Self::new_in(inst, &mut EvalArena::new())
    }

    /// [`new`](Self::new) drawing buffer capacity from `arena` instead of
    /// the allocator. Bit-identical to `new` (see [`EvalArena`]).
    pub fn new_in(inst: &'a Instance, arena: &mut EvalArena) -> Self {
        let total: usize = inst.subsets().iter().map(|q| q.members.len()).sum();
        let mut off = std::mem::take(&mut arena.off);
        off.clear();
        off.reserve(inst.num_subsets() + 1);
        off.push(0u32);
        let mut wr = std::mem::take(&mut arena.wr);
        wr.clear();
        wr.reserve(total);
        for q in inst.subsets() {
            let w = q.weight;
            for &r in q.relevance.iter() {
                wr.push(w * r);
            }
            // phocus-lint: allow(cast-bounds) — member_total is validated ≤ u32::MAX at pack time
            off.push(wr.len() as u32);
        }
        let mut selected = std::mem::take(&mut arena.selected);
        selected.clear();
        selected.resize(inst.num_photos(), false);
        let mut selected_ids = std::mem::take(&mut arena.selected_ids);
        selected_ids.clear();
        let mut best = std::mem::take(&mut arena.best);
        best.clear();
        best.resize(total, 0.0);
        let mut provider = std::mem::take(&mut arena.provider);
        provider.clear();
        provider.resize(total, NO_PROVIDER);
        Evaluator {
            inst,
            selected,
            selected_ids,
            layout: Arc::new(MemberLayout { off, wr }),
            best,
            provider,
            score: 0.0,
            cost: 0,
            gain_evals: AtomicU64::new(0),
            sim_ops: AtomicU64::new(0),
        }
    }

    /// [`Clone::clone`] drawing buffer capacity from `arena`. The immutable
    /// layout stays shared behind its `Arc` exactly as in `clone`; only the
    /// mutable arenas are copied, into recycled buffers. Bit-identical to
    /// `clone` (see [`EvalArena`]).
    pub fn clone_in(&self, arena: &mut EvalArena) -> Evaluator<'a> {
        let mut selected = std::mem::take(&mut arena.selected);
        selected.clear();
        selected.extend_from_slice(&self.selected);
        let mut selected_ids = std::mem::take(&mut arena.selected_ids);
        selected_ids.clear();
        selected_ids.extend_from_slice(&self.selected_ids);
        let mut best = std::mem::take(&mut arena.best);
        best.clear();
        best.extend_from_slice(&self.best);
        let mut provider = std::mem::take(&mut arena.provider);
        provider.clear();
        provider.extend_from_slice(&self.provider);
        Evaluator {
            inst: self.inst,
            selected,
            selected_ids,
            layout: Arc::clone(&self.layout),
            best,
            provider,
            score: self.score,
            cost: self.cost,
            gain_evals: AtomicU64::new(self.gain_evals.load(Ordering::Relaxed)),
            sim_ops: AtomicU64::new(self.sim_ops.load(Ordering::Relaxed)),
        }
    }

    /// Returns this evaluator's buffers to `arena` for the next tenant.
    ///
    /// The layout arrays come back too when this was the last evaluator
    /// sharing them (clones still alive keep the `Arc` and the arrays are
    /// simply dropped with the last clone).
    pub fn recycle(self, arena: &mut EvalArena) {
        arena.selected = self.selected;
        arena.selected_ids = self.selected_ids;
        arena.best = self.best;
        arena.provider = self.provider;
        if let Ok(layout) = Arc::try_unwrap(self.layout) {
            arena.off = layout.off;
            arena.wr = layout.wr;
        }
    }

    /// Creates an evaluator seeded with the policy-retained set `S₀`.
    pub fn with_required(inst: &'a Instance) -> Self {
        let mut ev = Self::new(inst);
        for &p in inst.required() {
            ev.add(p);
        }
        ev
    }

    /// Arena range of subset `s`'s members.
    // phocus-lint: hot-kernel — per-membership slice lookup on every gain/add/remove
    #[inline]
    fn span(&self, s: usize) -> (usize, usize) {
        (
            self.layout.off[s] as usize,
            self.layout.off[s + 1] as usize,
        )
    }

    /// The instance this evaluator scores against.
    #[inline]
    pub fn instance(&self) -> &'a Instance {
        self.inst
    }

    /// Current objective value `G(S)`.
    #[inline]
    pub fn score(&self) -> f64 {
        self.score
    }

    /// Current solution cost `C(S)` in bytes.
    #[inline]
    pub fn cost(&self) -> u64 {
        self.cost
    }

    /// Number of selected photos `|S|`.
    #[inline]
    pub fn num_selected(&self) -> usize {
        self.selected_ids.len()
    }

    /// Whether photo `p` is in the current solution.
    #[inline]
    pub fn is_selected(&self, p: PhotoId) -> bool {
        self.selected[p.index()]
    }

    /// The selected photos, in insertion order.
    #[inline]
    pub fn selected_ids(&self) -> &[PhotoId] {
        &self.selected_ids
    }

    /// Whether adding `p` keeps the solution within `budget`.
    #[inline]
    pub fn fits(&self, p: PhotoId, budget: u64) -> bool {
        self.cost + self.inst.cost(p) <= budget
    }

    /// Instrumentation counters accumulated so far.
    pub fn stats(&self) -> EvalStats {
        EvalStats {
            gain_evals: self.gain_evals.load(Ordering::Relaxed),
            sim_ops: self.sim_ops.load(Ordering::Relaxed),
        }
    }

    /// Resets instrumentation counters.
    pub fn reset_stats(&mut self) {
        self.gain_evals.store(0, Ordering::Relaxed);
        self.sim_ops.store(0, Ordering::Relaxed);
    }

    /// Marginal gain `G(S ∪ {p}) − G(S)`. Zero if `p` is already selected.
    ///
    /// Complexity: `O(Σ_{q ∋ p} deg_q(p))` similarity lookups.
    // phocus-lint: hot-kernel — CELF's inner loop; called once per heap pop
    pub fn gain(&self, p: PhotoId) -> f64 {
        self.gain_evals.fetch_add(1, Ordering::Relaxed);
        if self.selected[p.index()] {
            return 0.0;
        }
        let mut delta = 0.0;
        let mut ops = 0u64;
        for m in self.inst.memberships(p) {
            let sim = self.inst.sim(m.subset);
            let (lo, hi) = self.span(m.subset.index());
            let best = &self.best[lo..hi];
            let wr = &self.layout.wr[lo..hi];
            let local = m.local as usize;
            // p itself: SIM(q, p, p) = 1.
            if 1.0 > best[local] {
                delta += wr[local] * (1.0 - best[local]);
            }
            ops += 1;
            for_each_improving_neighbor!(sim, local, ops, best, |j, b, s| {
                delta += wr[j] * (s - b);
            });
        }
        self.sim_ops.fetch_add(ops, Ordering::Relaxed);
        delta
    }

    /// Marginal gains of many candidates against the *same* solution state,
    /// computed in parallel at the process-wide worker count.
    ///
    /// `out[i] == self.gain(candidates[i])` exactly — each per-candidate
    /// computation is independent and lands at its own index, so the result
    /// is bit-identical to the serial loop regardless of thread count. The
    /// instrumentation counters advance by the same totals as `len` serial
    /// `gain` calls (relaxed atomics; the *order* of increments is the only
    /// thing that varies).
    pub fn batch_gains(&self, candidates: &[PhotoId]) -> Vec<f64> {
        par_exec::par_map_slice(candidates, |&p| self.gain(p))
    }

    /// Adds `p` to the solution, updating the score, cost, and per-member
    /// best-similarity state. Returns the realized marginal gain.
    ///
    /// Adding an already-selected photo is a no-op returning 0.
    pub fn add(&mut self, p: PhotoId) -> f64 {
        self.add_tracked(p, |_, _| {})
    }

    /// [`add`](Self::add) that additionally reports every coverage change:
    /// `on_changed(q, j)` runs for each member `j` of subset `q` whose
    /// `best` similarity was raised by this add (including `p`'s own entry).
    ///
    /// Marginal gains are pure functions of the `best` state a candidate's
    /// contexts expose, so a caller that tracks which subsets changed knows
    /// exactly which cached gains may have moved — the dependency-tracked
    /// staleness used by the component-sharded CELF driver. The arithmetic
    /// and update order are identical to [`add`](Self::add) (which delegates
    /// here with a no-op callback), keeping scores bit-identical.
    // phocus-lint: hot-kernel — commit path shared by every solver's accept step
    pub fn add_tracked(
        &mut self,
        p: PhotoId,
        mut on_changed: impl FnMut(SubsetId, u32),
    ) -> f64 {
        if self.selected[p.index()] {
            return 0.0;
        }
        self.selected[p.index()] = true;
        self.selected_ids.push(p);
        // Cannot overflow: instance validation checked Σ C(p) over all
        // photos, and a selection is a set of distinct photos.
        self.cost += self.inst.cost(p);
        let mut delta = 0.0;
        let mut ops = 0u64;
        for m in self.inst.memberships(p) {
            let sim = self.inst.sim(m.subset);
            let (lo, hi) = self.span(m.subset.index());
            let wr = &self.layout.wr[lo..hi];
            let best = &mut self.best[lo..hi];
            let provider = &mut self.provider[lo..hi];
            let local = m.local as usize;
            if 1.0 > best[local] {
                delta += wr[local] * (1.0 - best[local]);
                best[local] = 1.0;
                on_changed(m.subset, local as u32); // phocus-lint: allow(cast-bounds) — round-trips a u32 member index
            }
            // A member always prefers itself once selected.
            provider[local] = local as u32; // phocus-lint: allow(cast-bounds) — round-trips a u32 member index
            ops += 1;
            for_each_improving_neighbor!(sim, local, ops, best, |j, b, s| {
                delta += wr[j] * (s - b);
                best[j] = s;
                provider[j] = local as u32; // phocus-lint: allow(cast-bounds) — round-trips a u32 member index
                on_changed(m.subset, j as u32);
            });
        }
        self.sim_ops.fetch_add(ops, Ordering::Relaxed);
        self.score += delta;
        delta
    }

    /// Removes `p` from the solution, rescanning only the members whose
    /// nearest neighbor was `p`. Returns the (nonnegative) score decrease.
    ///
    /// Removing an unselected photo is a no-op returning 0. Complexity:
    /// `O(Σ_{q ∋ p} affected_q · deg_q)` — proportional to how much of the
    /// solution actually leaned on `p`.
    // phocus-lint: hot-kernel — local-search swap path; rescans leaning members only
    pub fn remove(&mut self, p: PhotoId) -> f64 {
        if !self.selected[p.index()] {
            return 0.0;
        }
        self.selected[p.index()] = false;
        self.selected_ids.retain(|&x| x != p);
        self.cost -= self.inst.cost(p);
        let mut delta = 0.0;
        let mut ops = 0u64;
        for m in self.inst.memberships(p) {
            let qid = m.subset;
            let q = self.inst.subset(qid);
            let sim = self.inst.sim(qid);
            let (lo, _) = self.span(qid.index());
            let local = m.local as usize;
            let n = q.members.len();
            for j in 0..n {
                // phocus-lint: allow(cast-bounds) — round-trips a u32 member index
                if self.provider[lo + j] != local as u32 {
                    continue;
                }
                // Member j lost its nearest neighbor: rescan.
                let mut new_best = 0.0f64;
                let mut new_provider = NO_PROVIDER;
                if self.selected[q.members[j].index()] {
                    new_best = 1.0;
                    new_provider = j as u32;
                } else {
                    for_each_neighbor!(sim, j, ops, |k, s| {
                        if s > new_best && self.selected[q.members[k].index()] {
                            new_best = s;
                            new_provider = k as u32;
                        }
                    });
                }
                let old = self.best[lo + j];
                delta += self.layout.wr[lo + j] * (old - new_best);
                self.best[lo + j] = new_best;
                self.provider[lo + j] = new_provider;
            }
        }
        self.sim_ops.fetch_add(ops, Ordering::Relaxed);
        self.score -= delta;
        delta
    }

    /// Current per-subset score `G(q, S)` (already weighted by nothing —
    /// multiply by `W(q)` for the contribution to `G(S)`).
    pub fn subset_score(&self, q: SubsetId) -> f64 {
        let subset = self.inst.subset(q);
        let (lo, hi) = self.span(q.index());
        subset
            .relevance
            .iter()
            .zip(&self.best[lo..hi])
            .map(|(r, b)| r * b)
            .sum()
    }
}

/// Recomputes `G(S)` from scratch for an arbitrary photo set.
///
/// `O(Σ_q |q| · deg)`; used for verification and for scoring baseline
/// selections under the true objective. Per-subset terms are computed in
/// parallel and reduced sequentially in subset order, so the result is
/// bit-identical to the serial sum.
pub fn exact_score(inst: &Instance, set: &[PhotoId]) -> f64 {
    let mut selected = vec![false; inst.num_photos()];
    for &p in set {
        selected[p.index()] = true;
    }
    let subsets = inst.subsets();
    par_exec::par_sum_f64(subsets.len(), |i| {
        let q = &subsets[i];
        q.weight * exact_subset_score_flags(inst, q.id, &selected)
    })
}

/// Recomputes the per-subset score `G(q, S)` from scratch.
pub fn exact_subset_score(inst: &Instance, q: SubsetId, set: &[PhotoId]) -> f64 {
    let mut selected = vec![false; inst.num_photos()];
    for &p in set {
        selected[p.index()] = true;
    }
    exact_subset_score_flags(inst, q, &selected)
}

fn exact_subset_score_flags(inst: &Instance, qid: SubsetId, selected: &[bool]) -> f64 {
    let q = inst.subset(qid);
    let sim = inst.sim(qid);
    let mut total = 0.0;
    let mut ops = 0u64;
    for (i, (&p, &r)) in q.members.iter().zip(q.relevance.iter()).enumerate() {
        let mut best = 0.0;
        if selected[p.index()] {
            best = 1.0;
        } else {
            // NN over selected co-members via stored similarities.
            for_each_neighbor!(sim, i, ops, |j, s| {
                if selected[q.members[j].index()] && s > best {
                    best = s;
                }
            });
        }
        total += r * best;
    }
    let _ = ops; // uninstrumented path: counted only to share the kernel
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::figure1_instance;
    use crate::{FnSimilarity, InstanceBuilder};

    #[test]
    fn empty_solution_scores_zero() {
        let inst = figure1_instance(u64::MAX);
        let ev = Evaluator::new(&inst);
        assert_eq!(ev.score(), 0.0);
        assert_eq!(ev.cost(), 0);
    }

    #[test]
    fn full_solution_scores_max() {
        let inst = figure1_instance(u64::MAX);
        let mut ev = Evaluator::new(&inst);
        for p in 0..inst.num_photos() {
            ev.add(PhotoId(p as u32));
        }
        assert!((ev.score() - inst.max_score()).abs() < 1e-9);
    }

    #[test]
    fn figure1_initial_gains_match_paper() {
        // Step 1 of Figure 3: δ_{p1}=7.83, δ_{p2}=6.74, δ_{p3}=6.75,
        // δ_{p4}=0.7, δ_{p5}=0.82, δ_{p6}=4.61, δ_{p7}=0.78.
        let inst = figure1_instance(u64::MAX);
        let ev = Evaluator::new(&inst);
        let expected = [7.83, 6.74, 6.75, 0.7, 0.82, 4.61, 0.78];
        for (i, &e) in expected.iter().enumerate() {
            let g = ev.gain(PhotoId(i as u32));
            assert!(
                (g - e).abs() < 0.015,
                "gain of p{} = {g}, paper says {e}",
                i + 1
            );
        }
    }

    #[test]
    fn add_returns_gain_and_updates_score() {
        let inst = figure1_instance(u64::MAX);
        let mut ev = Evaluator::new(&inst);
        let g1 = ev.gain(PhotoId(0));
        let realized = ev.add(PhotoId(0));
        assert!((g1 - realized).abs() < 1e-12);
        assert!((ev.score() - realized).abs() < 1e-12);
        // Re-adding is a no-op.
        assert_eq!(ev.add(PhotoId(0)), 0.0);
        assert_eq!(ev.num_selected(), 1);
    }

    #[test]
    fn incremental_matches_exact_score() {
        let inst = figure1_instance(u64::MAX);
        let mut ev = Evaluator::new(&inst);
        let order = [2u32, 5, 0, 6, 3];
        let mut set = Vec::new();
        for &p in &order {
            ev.add(PhotoId(p));
            set.push(PhotoId(p));
            let exact = exact_score(&inst, &set);
            assert!(
                (ev.score() - exact).abs() < 1e-9,
                "incremental {} vs exact {exact}",
                ev.score()
            );
        }
    }

    #[test]
    fn with_required_seeds_s0() {
        let mut b = InstanceBuilder::new(100);
        let p0 = b.add_photo("a", 10);
        let p1 = b.add_photo("b", 10);
        b.require(p1);
        b.add_subset("q", 1.0, vec![p0, p1], vec![]);
        let inst = b.build_with_provider(&FnSimilarity(|_, _, _| 0.5)).unwrap();
        let ev = Evaluator::with_required(&inst);
        assert!(ev.is_selected(p1));
        assert_eq!(ev.cost(), 10);
        // p1 selected: covers itself (0.5 relevance × 1) + p0 (0.5 × 0.5).
        assert!((ev.score() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn gains_are_monotone_decreasing_in_solution_growth() {
        // Submodularity: gain of a fixed photo never increases as S grows.
        let inst = figure1_instance(u64::MAX);
        let mut ev = Evaluator::new(&inst);
        let probe = PhotoId(1);
        let mut last = ev.gain(probe);
        for p in [0u32, 5, 2, 6] {
            ev.add(PhotoId(p));
            let g = ev.gain(probe);
            assert!(g <= last + 1e-12, "gain increased: {g} > {last}");
            last = g;
        }
    }

    #[test]
    fn stats_count_evaluations() {
        let inst = figure1_instance(u64::MAX);
        let mut ev = Evaluator::new(&inst);
        ev.gain(PhotoId(0));
        ev.gain(PhotoId(1));
        ev.add(PhotoId(0));
        let stats = ev.stats();
        assert_eq!(stats.gain_evals, 2);
        assert!(stats.sim_ops > 0);
        ev.reset_stats();
        assert_eq!(ev.stats(), EvalStats::default());
    }

    #[test]
    fn batch_gains_match_serial_gains_and_counters() {
        let inst = figure1_instance(u64::MAX);
        let mut base = Evaluator::new(&inst);
        base.add(PhotoId(5));
        let candidates: Vec<PhotoId> = (0..inst.num_photos() as u32).map(PhotoId).collect();

        let mut serial = base.clone();
        serial.reset_stats();
        let serial_gains: Vec<f64> = candidates.iter().map(|&p| serial.gain(p)).collect();

        let mut batch = base.clone();
        batch.reset_stats();
        // Force multiple workers even on a single-core runner so the batch
        // path genuinely exercises concurrent gain queries.
        let prev = par_exec::Parallelism::with_threads(4).install_global();
        let batched = batch.batch_gains(&candidates);
        prev.install_global();

        assert_eq!(serial_gains.len(), batched.len());
        for (i, (s, b)) in serial_gains.iter().zip(&batched).enumerate() {
            assert_eq!(s.to_bits(), b.to_bits(), "gain mismatch at candidate {i}");
        }
        // Relaxed atomics may interleave, but the totals must be exactly
        // what the serial loop counted.
        assert_eq!(serial.stats(), batch.stats());
        assert_eq!(batch.stats().gain_evals, candidates.len() as u64);
    }

    #[test]
    fn remove_reverses_add_exactly() {
        let inst = figure1_instance(u64::MAX);
        let mut ev = Evaluator::new(&inst);
        for p in [0u32, 5, 1] {
            ev.add(PhotoId(p));
        }
        let score_before = ev.score();
        let cost_before = ev.cost();
        let gain = ev.gain(PhotoId(4));
        let realized = ev.add(PhotoId(4));
        assert!((gain - realized).abs() < 1e-12);
        let lost = ev.remove(PhotoId(4));
        assert!(
            (lost - realized).abs() < 1e-9,
            "remove {lost} vs add {realized}"
        );
        assert!((ev.score() - score_before).abs() < 1e-9);
        assert_eq!(ev.cost(), cost_before);
        assert!(!ev.is_selected(PhotoId(4)));
    }

    #[test]
    fn remove_matches_exact_recomputation() {
        let inst = figure1_instance(u64::MAX);
        let mut ev = Evaluator::new(&inst);
        let all: Vec<PhotoId> = (0..7).map(PhotoId).collect();
        for &p in &all {
            ev.add(p);
        }
        // Remove photos one by one in a scrambled order, checking against
        // from-scratch scoring at every step.
        let mut remaining = all.clone();
        for &p in &[PhotoId(5), PhotoId(0), PhotoId(6), PhotoId(2)] {
            ev.remove(p);
            remaining.retain(|&x| x != p);
            let exact = exact_score(&inst, &remaining);
            assert!(
                (ev.score() - exact).abs() < 1e-9,
                "after removing {p}: {} vs {exact}",
                ev.score()
            );
        }
        // Removing an unselected photo is a no-op.
        assert_eq!(ev.remove(PhotoId(5)), 0.0);
    }

    #[test]
    fn remove_with_tied_providers() {
        use crate::{FnSimilarity, InstanceBuilder};
        // Two selected photos provide the same similarity to a third.
        let mut b = InstanceBuilder::new(u64::MAX);
        let a = b.add_photo("a", 1);
        let c = b.add_photo("c", 1);
        let t = b.add_photo("t", 1);
        b.add_subset("q", 1.0, vec![a, c, t], vec![]);
        let inst = b.build_with_provider(&FnSimilarity(|_, _, _| 0.5)).unwrap();
        let mut ev = Evaluator::new(&inst);
        ev.add(a);
        ev.add(c);
        // t covered at 0.5 by either. Remove both; coverage must drop to 0.
        ev.remove(a);
        let exact = exact_score(&inst, &[c]);
        assert!((ev.score() - exact).abs() < 1e-9);
        ev.remove(c);
        assert!(ev.score().abs() < 1e-9);
    }

    #[test]
    fn subset_score_tracks_per_context_coverage() {
        let inst = figure1_instance(u64::MAX);
        let mut ev = Evaluator::new(&inst);
        assert_eq!(ev.subset_score(SubsetId(2)), 0.0);
        ev.add(PhotoId(5)); // p6 covers q3 entirely.
        assert!((ev.subset_score(SubsetId(2)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arena_reuse_is_bit_identical_to_fresh_allocation() {
        let inst = figure1_instance(u64::MAX);
        let mut arena = EvalArena::new();
        // Dirty the arena with a full build + run, then recycle.
        let mut warm = Evaluator::new_in(&inst, &mut arena);
        for p in 0..inst.num_photos() {
            warm.add(PhotoId(p as u32));
        }
        warm.recycle(&mut arena);
        assert!(arena.best.capacity() > 0, "recycle must return capacity");

        // Rebuild in the dirty arena and replay a schedule against a fresh
        // evaluator; every intermediate f64 must match bit for bit.
        let mut reused = Evaluator::new_in(&inst, &mut arena);
        let mut fresh = Evaluator::new(&inst);
        for &p in &[2u32, 5, 0, 6, 3] {
            let a = reused.add(PhotoId(p));
            let b = fresh.add(PhotoId(p));
            assert_eq!(a.to_bits(), b.to_bits());
            assert_eq!(reused.score().to_bits(), fresh.score().to_bits());
        }
        assert_eq!(reused.selected_ids(), fresh.selected_ids());

        // clone_in matches clone the same way.
        let c1 = reused.clone_in(&mut EvalArena::new());
        let c2 = fresh.clone();
        assert_eq!(c1.score().to_bits(), c2.score().to_bits());
        assert_eq!(c1.gain(PhotoId(1)).to_bits(), c2.gain(PhotoId(1)).to_bits());
        assert!(Arc::ptr_eq(&c1.layout, &reused.layout));
    }

    #[test]
    fn recycle_reclaims_layout_only_when_unshared() {
        let inst = figure1_instance(u64::MAX);
        let mut arena = EvalArena::new();
        let ev = Evaluator::new(&inst);
        let clone = ev.clone();
        // Clone still holds the layout Arc: off/wr stay with it.
        ev.recycle(&mut arena);
        assert!(arena.off.is_empty() && arena.wr.is_empty());
        // Last holder: the layout arrays come back.
        clone.recycle(&mut arena);
        assert!(!arena.off.is_empty() && !arena.wr.is_empty());
    }

    #[test]
    fn clones_share_the_layout_arena() {
        let inst = figure1_instance(u64::MAX);
        let ev = Evaluator::new(&inst);
        let clone = ev.clone();
        assert!(Arc::ptr_eq(&ev.layout, &clone.layout));
    }
}
