//! Exact branch-and-bound solver — the paper's Brute-Force reference
//! (Figure 5d).
//!
//! Plain exhaustive search over `2^n` subsets is hopeless beyond ~25 photos;
//! this implementation prunes with a submodular fractional-knapsack upper
//! bound and warm-starts from Algorithm 1's solution, which lets it solve the
//! ~100-photo/small-budget configurations used in the paper's comparison.
//! A node budget guards against pathological instances: the solver reports
//! how many nodes it expanded and fails loudly instead of running forever.

use crate::main_alg::main_algorithm;
use crate::types::{GreedyOutcome, RunStats};
use par_core::{Evaluator, Instance, PhotoId};

/// Configuration for [`brute_force`].
#[derive(Debug, Clone)]
pub struct BruteForceConfig {
    /// Hard cap on photos; larger instances are refused up front.
    pub max_photos: usize,
    /// Hard cap on branch-and-bound nodes expanded.
    pub max_nodes: u64,
}

impl Default for BruteForceConfig {
    fn default() -> Self {
        BruteForceConfig {
            max_photos: 128,
            max_nodes: 50_000_000,
        }
    }
}

/// Errors from [`brute_force`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BruteForceError {
    /// The instance exceeds `max_photos`.
    TooManyPhotos {
        /// Photos in the instance.
        photos: usize,
        /// The configured cap.
        limit: usize,
    },
    /// The search exceeded `max_nodes` before proving optimality.
    NodeBudgetExhausted {
        /// The configured cap.
        limit: u64,
    },
}

impl std::fmt::Display for BruteForceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BruteForceError::TooManyPhotos { photos, limit } => {
                write!(
                    f,
                    "instance has {photos} photos, brute force capped at {limit}"
                )
            }
            BruteForceError::NodeBudgetExhausted { limit } => {
                write!(f, "brute force exceeded its {limit}-node budget")
            }
        }
    }
}

impl std::error::Error for BruteForceError {}

struct Search<'a> {
    inst: &'a Instance,
    /// Optional (non-required) photos in branching order.
    order: Vec<PhotoId>,
    best_score: f64,
    best_set: Vec<PhotoId>,
    nodes: u64,
    max_nodes: u64,
}

impl<'a> Search<'a> {
    /// Upper bound on the best score attainable in the subtree rooted at
    /// `ev` considering only `order[level..]`: current score plus a
    /// fractional knapsack of marginal gains into the remaining budget.
    fn upper_bound(&self, ev: &Evaluator<'_>, level: usize) -> f64 {
        let remaining_budget = self.inst.budget() - ev.cost();
        let mut density: Vec<(f64, u64)> = self.order[level..]
            .iter()
            .filter(|&&p| self.inst.cost(p) <= remaining_budget)
            .map(|&p| (ev.gain(p), self.inst.cost(p)))
            .filter(|&(g, _)| g > 0.0)
            .collect();
        density.sort_unstable_by(|a, b| (b.0 / b.1 as f64).total_cmp(&(a.0 / a.1 as f64)));
        let mut extra = 0.0;
        let mut room = remaining_budget as f64;
        for (g, c) in density {
            let c = c as f64;
            if c <= room {
                extra += g;
                room -= c;
            } else {
                extra += g * (room / c);
                break;
            }
        }
        ev.score() + extra
    }

    fn dfs(&mut self, ev: &mut Evaluator<'a>, level: usize) -> Result<(), BruteForceError> {
        self.nodes += 1;
        if self.nodes > self.max_nodes {
            return Err(BruteForceError::NodeBudgetExhausted {
                limit: self.max_nodes,
            });
        }
        if ev.score() > self.best_score + 1e-12 {
            self.best_score = ev.score();
            self.best_set = ev.selected_ids().to_vec();
        }
        if level == self.order.len() {
            return Ok(());
        }
        if self.upper_bound(ev, level) <= self.best_score + 1e-9 {
            return Ok(()); // prune: subtree cannot improve the incumbent
        }
        let p = self.order[level];
        // Include branch first (depth-first toward big solutions).
        if ev.fits(p, self.inst.budget()) {
            let mut included = ev.clone();
            included.add(p);
            self.dfs(&mut included, level + 1)?;
        }
        // Exclude branch.
        self.dfs(ev, level + 1)
    }
}

/// Solves the instance exactly. Returns the optimal retained set, its exact
/// score and cost, with `stats.pq_pops` reporting the number of
/// branch-and-bound nodes expanded.
pub fn brute_force(
    inst: &Instance,
    cfg: &BruteForceConfig,
) -> Result<GreedyOutcome, BruteForceError> {
    let (outcome, exact) = brute_force_anytime(inst, cfg)?;
    if exact {
        Ok(outcome)
    } else {
        Err(BruteForceError::NodeBudgetExhausted {
            limit: cfg.max_nodes,
        })
    }
}

/// Anytime variant: runs the branch and bound until done or the node budget
/// is exhausted, returning the best solution found and whether optimality
/// was proven. The incumbent starts at Algorithm 1's solution, so the result
/// is never worse than the greedy even when the budget runs out.
pub fn brute_force_anytime(
    inst: &Instance,
    cfg: &BruteForceConfig,
) -> Result<(GreedyOutcome, bool), BruteForceError> {
    if inst.num_photos() > cfg.max_photos {
        return Err(BruteForceError::TooManyPhotos {
            photos: inst.num_photos(),
            limit: cfg.max_photos,
        });
    }

    // Warm start: Algorithm 1's solution is a strong incumbent that makes
    // the fractional-knapsack bound prune aggressively.
    let warm = main_algorithm(inst).best;

    // Branch on non-required photos, ordered by initial gain density
    // (descending) so strong candidates are committed early.
    let mut root = Evaluator::with_required(inst);
    let mut root_gains: Vec<(PhotoId, f64)> = (0..inst.num_photos() as u32)
        .map(PhotoId)
        .filter(|&p| !inst.is_required(p))
        .map(|p| (p, root.gain(p) / inst.cost(p) as f64))
        .collect();
    root_gains.sort_unstable_by(|a, b| b.1.total_cmp(&a.1));
    let order: Vec<PhotoId> = root_gains.into_iter().map(|(p, _)| p).collect();

    let mut search = Search {
        inst,
        order,
        best_score: warm.score,
        best_set: warm.selected.clone(),
        nodes: 0,
        max_nodes: cfg.max_nodes,
    };
    let exact = match search.dfs(&mut root, 0) {
        Ok(()) => true,
        Err(BruteForceError::NodeBudgetExhausted { .. }) => false,
        Err(e) => return Err(e),
    };

    let mut ev = Evaluator::new(inst);
    for &p in &search.best_set {
        ev.add(p);
    }
    Ok((
        GreedyOutcome {
            selected: search.best_set,
            score: ev.score(),
            cost: ev.cost(),
            stats: RunStats {
                gain_evals: 0,
                sim_ops: 0,
                pq_pops: search.nodes,
                lazy_accepts: 0,
            },
        },
        exact,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use par_core::fixtures::{figure1_instance, random_instance, RandomInstanceConfig, MB};
    use par_core::{exact_score, Solution};

    /// Exhaustive reference over all subsets, for cross-checking the B&B.
    fn exhaustive(inst: &Instance) -> f64 {
        let n = inst.num_photos();
        assert!(n <= 16);
        let mut best = 0.0f64;
        'outer: for mask in 0u32..(1 << n) {
            let set: Vec<PhotoId> = (0..n as u32)
                .filter(|i| mask & (1 << i) != 0)
                .map(PhotoId)
                .collect();
            let cost: u64 = set.iter().map(|&p| inst.cost(p)).sum();
            if cost > inst.budget() {
                continue;
            }
            for &r in inst.required() {
                if !set.contains(&r) {
                    continue 'outer;
                }
            }
            best = best.max(exact_score(inst, &set));
        }
        best
    }

    #[test]
    fn matches_exhaustive_on_small_instances() {
        let cfg = RandomInstanceConfig {
            photos: 10,
            subsets: 4,
            budget_fraction: 0.4,
            ..Default::default()
        };
        for seed in 0..8 {
            let inst = random_instance(seed, &cfg);
            let bb = brute_force(&inst, &BruteForceConfig::default()).unwrap();
            let ex = exhaustive(&inst);
            assert!(
                (bb.score - ex).abs() < 1e-9,
                "seed {seed}: B&B {} vs exhaustive {ex}",
                bb.score
            );
        }
    }

    #[test]
    fn figure1_optimum_at_4mb() {
        // The paper's user-study example states 4 photos are optimal under a
        // 4MB budget in a similar setting; here just check optimality vs
        // exhaustive search and feasibility.
        let inst = figure1_instance(4 * MB);
        let bb = brute_force(&inst, &BruteForceConfig::default()).unwrap();
        assert!((bb.score - exhaustive(&inst)).abs() < 1e-9);
        let sol = Solution::new(&inst, bb.selected.clone()).unwrap();
        assert!(sol.cost() <= 4 * MB);
    }

    #[test]
    fn greedy_is_within_guarantee_of_optimum() {
        // Algorithm 1 must achieve ≥ (1−1/e)/2 of OPT (and usually far more).
        let cfg = RandomInstanceConfig {
            photos: 12,
            subsets: 5,
            budget_fraction: 0.35,
            ..Default::default()
        };
        let guarantee = (1.0 - 1.0 / std::f64::consts::E) / 2.0;
        for seed in 0..10 {
            let inst = random_instance(seed, &cfg);
            let greedy = main_algorithm(&inst).best;
            let opt = brute_force(&inst, &BruteForceConfig::default()).unwrap();
            assert!(
                greedy.score + 1e-9 >= guarantee * opt.score,
                "seed {seed}: greedy {} below guarantee of OPT {}",
                greedy.score,
                opt.score
            );
        }
    }

    #[test]
    fn respects_required_photos() {
        let cfg = RandomInstanceConfig {
            photos: 10,
            subsets: 4,
            required_prob: 0.2,
            budget_fraction: 0.5,
            ..Default::default()
        };
        let inst = random_instance(11, &cfg);
        let bb = brute_force(&inst, &BruteForceConfig::default()).unwrap();
        for &r in inst.required() {
            assert!(bb.selected.contains(&r));
        }
    }

    #[test]
    fn refuses_oversized_instances() {
        let cfg = RandomInstanceConfig {
            photos: 20,
            ..Default::default()
        };
        let inst = random_instance(1, &cfg);
        let res = brute_force(
            &inst,
            &BruteForceConfig {
                max_photos: 10,
                max_nodes: 1000,
            },
        );
        assert!(matches!(res, Err(BruteForceError::TooManyPhotos { .. })));
    }
}
