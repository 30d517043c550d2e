//! Sviridenko's partial-enumeration greedy — the optimal `(1 − 1/e)`
//! approximation for monotone submodular maximization under a knapsack
//! constraint (Theorem 4.4/4.6 of the paper).
//!
//! The scheme enumerates every seed set of `d = 3` optional photos, completes
//! each seed with the density (cost-benefit) greedy — *skipping* elements that
//! would overflow the budget rather than stopping — and returns the best
//! completion, also considering all solutions of cardinality `< d` directly.
//! The price of optimality is a `Θ(n^{d})`-seed enumeration with a full
//! greedy run per seed (the `Ω(B·n⁴)` the paper deems unscalable), so this
//! solver is only practical for small instances; it exists as the guarantee
//! reference and to validate the CELF solver empirically.

use crate::types::{GreedyOutcome, RunStats};
use par_core::{Evaluator, Instance, PhotoId};

/// Configuration for [`sviridenko`].
#[derive(Debug, Clone)]
pub struct SviridenkoConfig {
    /// Seed cardinality `d`. The classical guarantee needs `d = 3`; smaller
    /// values trade the guarantee for speed.
    pub seed_size: usize,
    /// Hard cap on photos; larger instances are refused.
    pub max_photos: usize,
}

impl Default for SviridenkoConfig {
    fn default() -> Self {
        SviridenkoConfig {
            seed_size: 3,
            max_photos: 64,
        }
    }
}

/// Error returned when the instance exceeds the configured size cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooLarge {
    /// Photos in the instance.
    pub photos: usize,
    /// Configured cap.
    pub limit: usize,
}

impl std::fmt::Display for TooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "instance has {} photos, Sviridenko solver capped at {}",
            self.photos, self.limit
        )
    }
}

impl std::error::Error for TooLarge {}

/// Density-greedy completion: repeatedly add the affordable photo with the
/// best `gain/cost` ratio, skipping unaffordable photos, until none helps.
fn complete_greedy(inst: &Instance, ev: &mut Evaluator<'_>) {
    let budget = inst.budget();
    loop {
        let mut best: Option<(f64, PhotoId)> = None;
        let candidates: Vec<PhotoId> = (0..inst.num_photos() as u32)
            .map(PhotoId)
            .filter(|&p| !ev.is_selected(p) && ev.fits(p, budget))
            .collect();
        // Parallel batch scan; the argmax walks results in candidate order
        // so ties break exactly as the serial loop did.
        let gains = ev.batch_gains(&candidates);
        for (&p, &g) in candidates.iter().zip(&gains) {
            let density = g / inst.cost(p) as f64;
            if density <= 0.0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((bd, bp)) => density > bd || (density == bd && p < bp),
            };
            if better {
                best = Some((density, p));
            }
        }
        match best {
            Some((_, p)) => {
                ev.add(p);
            }
            None => return,
        }
    }
}

/// Runs the partial-enumeration scheme on `inst` with its budget.
///
/// Policy-retained photos (`S₀`) are pre-selected in every branch and do not
/// count toward the seed cardinality.
pub fn sviridenko(inst: &Instance, cfg: &SviridenkoConfig) -> Result<GreedyOutcome, TooLarge> {
    if inst.num_photos() > cfg.max_photos {
        return Err(TooLarge {
            photos: inst.num_photos(),
            limit: cfg.max_photos,
        });
    }
    let optional: Vec<PhotoId> = (0..inst.num_photos() as u32)
        .map(PhotoId)
        .filter(|&p| !inst.is_required(p))
        .collect();
    let budget = inst.budget();
    let base = Evaluator::with_required(inst);

    let mut best_score = base.score();
    let mut best_set: Vec<PhotoId> = base.selected_ids().to_vec();
    let mut gain_evals = 0u64;
    let mut sim_ops = 0u64;

    let consider = |ev: &Evaluator<'_>, best_score: &mut f64, best_set: &mut Vec<PhotoId>| {
        if ev.score() > *best_score + 1e-12 {
            *best_score = ev.score();
            *best_set = ev.selected_ids().to_vec();
        }
    };

    // Small solutions: every feasible seed of cardinality < d is itself a
    // candidate answer (required for the guarantee when OPT is tiny).
    // Seeds of cardinality exactly d are greedily completed.
    let d = cfg.seed_size.min(optional.len());
    let mut stack: Vec<(usize, Evaluator<'_>, usize)> = vec![(0, base, 0)];
    while let Some((next_idx, ev, size)) = stack.pop() {
        consider(&ev, &mut best_score, &mut best_set);
        if size == d {
            let mut completed = ev.clone();
            complete_greedy(inst, &mut completed);
            let st = completed.stats();
            gain_evals += st.gain_evals;
            sim_ops += st.sim_ops;
            consider(&completed, &mut best_score, &mut best_set);
            continue;
        }
        for (k, &p) in optional.iter().enumerate().skip(next_idx) {
            if ev.is_selected(p) || !ev.fits(p, budget) {
                continue;
            }
            let mut child = ev.clone();
            child.add(p);
            stack.push((k + 1, child, size + 1));
        }
    }

    let mut final_ev = Evaluator::new(inst);
    for &p in &best_set {
        final_ev.add(p);
    }
    Ok(GreedyOutcome {
        selected: best_set,
        score: final_ev.score(),
        cost: final_ev.cost(),
        stats: RunStats {
            gain_evals,
            sim_ops,
            pq_pops: 0,
            lazy_accepts: 0,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{brute_force, main_algorithm, BruteForceConfig};
    use par_core::fixtures::{figure1_instance, random_instance, RandomInstanceConfig, MB};
    use par_core::Solution;

    #[test]
    fn achieves_1_minus_1_over_e_on_random_instances() {
        let cfg = RandomInstanceConfig {
            photos: 10,
            subsets: 4,
            budget_fraction: 0.35,
            ..Default::default()
        };
        let guarantee = 1.0 - 1.0 / std::f64::consts::E;
        for seed in 0..6 {
            let inst = random_instance(seed, &cfg);
            let sv = sviridenko(&inst, &SviridenkoConfig::default()).unwrap();
            let opt = brute_force(&inst, &BruteForceConfig::default()).unwrap();
            assert!(
                sv.score + 1e-9 >= guarantee * opt.score,
                "seed {seed}: {} < {} · {}",
                sv.score,
                guarantee,
                opt.score
            );
        }
    }

    #[test]
    fn at_least_as_good_as_main_algorithm_typically() {
        let inst = figure1_instance(3 * MB);
        let sv = sviridenko(&inst, &SviridenkoConfig::default()).unwrap();
        let ma = main_algorithm(&inst);
        assert!(sv.score + 1e-9 >= ma.best.score);
    }

    #[test]
    fn feasible_and_respects_required() {
        let cfg = RandomInstanceConfig {
            photos: 12,
            subsets: 5,
            required_prob: 0.15,
            budget_fraction: 0.4,
            ..Default::default()
        };
        let inst = random_instance(5, &cfg);
        let sv = sviridenko(&inst, &SviridenkoConfig::default()).unwrap();
        let sol = Solution::new(&inst, sv.selected.clone()).unwrap();
        assert!(sol.cost() <= inst.budget());
    }

    #[test]
    fn refuses_oversized() {
        let cfg = RandomInstanceConfig {
            photos: 30,
            ..Default::default()
        };
        let inst = random_instance(1, &cfg);
        let res = sviridenko(
            &inst,
            &SviridenkoConfig {
                seed_size: 3,
                max_photos: 20,
            },
        );
        assert!(res.is_err());
    }

    #[test]
    fn seed_size_one_degrades_gracefully() {
        let inst = figure1_instance(3 * MB);
        let sv = sviridenko(
            &inst,
            &SviridenkoConfig {
                seed_size: 1,
                max_photos: 64,
            },
        )
        .unwrap();
        assert!(sv.cost <= 3 * MB);
        assert!(sv.score > 0.0);
    }
}
