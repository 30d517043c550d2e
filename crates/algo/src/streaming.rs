//! Streaming solvers — the related-work bridge to Badanidiyuru et al.'s
//! "massive data summarization on the fly" (the paper's reference \[5\]).
//!
//! When the archive arrives as a stream (photos observed once, bounded
//! memory), the offline CELF greedy is unavailable. Two one-pass sieves are
//! provided:
//!
//! * [`sieve_streaming`] — the classical SieveStreaming for a *cardinality*
//!   constraint (`|S| ≤ k`, the summarization-literature setting the paper
//!   contrasts itself with): lazily maintained threshold sieves at
//!   `(1+ε)`-spaced guesses of `OPT`, guaranteeing `(1/2 − ε)·OPT`;
//! * [`density_sieve`] — a knapsack adaptation thresholding *gain density*
//!   (`Δ/cost`): one pass, bounded memory, no worst-case constant claimed —
//!   certified a posteriori with [`online_bound`](crate::online_bound::online_bound) instead.
//!
//! Both honor `S₀` (policy photos are accepted unconditionally before the
//! stream starts).

use crate::error::SolveError;
use crate::types::{GreedyOutcome, RunStats};
use par_core::{Evaluator, Instance, PhotoId};

/// One sieve: a guessed optimum value and its partial solution.
struct Sieve<'a> {
    guess: f64,
    ev: Evaluator<'a>,
}

/// SieveStreaming for the cardinality-constrained PAR relaxation
/// (`|S| ≤ k`; photo costs are ignored). Photos are processed in id order —
/// the "stream". Returns the best sieve's selection.
///
/// Guarantee (Badanidiyuru et al.): `G(S) ≥ (1/2 − ε) · max_{|T|≤k} G(T)`.
///
/// Returns [`SolveError`] if `k` is zero, `ε` is outside `(0, 1)` (or NaN),
/// or the policy-required set alone exceeds the cardinality bound.
pub fn sieve_streaming(
    inst: &Instance,
    k: usize,
    epsilon: f64,
) -> Result<GreedyOutcome, SolveError> {
    if k == 0 {
        return Err(SolveError::InvalidCardinality(k));
    }
    if !(epsilon > 0.0 && epsilon < 1.0) {
        return Err(SolveError::InvalidEpsilon(epsilon));
    }
    let required: Vec<PhotoId> = inst.required().to_vec();
    if required.len() > k {
        return Err(SolveError::RequiredExceedsCardinality {
            required: required.len(),
            k,
        });
    }

    // Track the best singleton value m seen so far; maintain sieves for
    // guesses (1+ε)^i ∈ [m, 2·k·m].
    let mut m = 0.0f64;
    let mut sieves: Vec<Sieve<'_>> = Vec::new();
    let base = 1.0 + epsilon;

    let mut gain_evals = 0u64;
    for p in (0..inst.num_photos() as u32).map(PhotoId) {
        if inst.is_required(p) {
            continue;
        }
        // Singleton value of p (w.r.t. the required set).
        let singleton = {
            let mut ev = Evaluator::with_required(inst);
            let g = ev.gain(p);
            gain_evals += 1;
            let _ = &mut ev;
            g
        };
        if singleton > m {
            m = singleton;
            // Set up any newly needed guesses. Existing sieves keep
            // their partial solutions (the lazy instantiation of the
            // original algorithm).
            let lo = (m.ln() / base.ln()).floor() as i64;
            let hi = ((2.0 * k as f64 * m).ln() / base.ln()).ceil() as i64;
            for i in lo..=hi {
                let guess = base.powi(i as i32);
                let exists = sieves
                    .iter()
                    .any(|s| (s.guess - guess).abs() < 1e-12 * guess.max(1.0));
                if !exists && guess >= m * 0.999 && guess <= 2.0 * k as f64 * m * 1.001 {
                    sieves.push(Sieve {
                        guess,
                        ev: Evaluator::with_required(inst),
                    });
                }
            }
            // Drop sieves whose guess fell below the viable window.
            sieves.retain(|s| s.guess >= m * 0.999);
        }
        for sieve in &mut sieves {
            let selected_beyond_required = sieve.ev.num_selected() - required.len();
            if selected_beyond_required >= k - required.len() {
                continue;
            }
            let remaining = (k - sieve.ev.num_selected()) as f64;
            let threshold = (sieve.guess / 2.0 - sieve.ev.score()) / remaining;
            let g = sieve.ev.gain(p);
            gain_evals += 1;
            if g >= threshold && g > 0.0 {
                sieve.ev.add(p);
            }
        }
    }

    let best = sieves
        .into_iter()
        .max_by(|a, b| a.ev.score().total_cmp(&b.ev.score()));
    let (selected, score, cost) = match best {
        Some(s) => (s.ev.selected_ids().to_vec(), s.ev.score(), s.ev.cost()),
        None => {
            // Empty stream of optional photos: S₀ alone.
            let ev = Evaluator::with_required(inst);
            (ev.selected_ids().to_vec(), ev.score(), ev.cost())
        }
    };
    Ok(GreedyOutcome {
        selected,
        score,
        cost,
        stats: RunStats {
            gain_evals,
            sim_ops: 0,
            pq_pops: 0,
            lazy_accepts: 0,
        },
    })
}

/// One-pass density-threshold sieve for the knapsack (byte-budget) setting.
///
/// Accepts a streamed photo when its marginal gain per byte clears a
/// threshold geometrically annealed from optimistic to permissive as budget
/// fills — a practical heuristic with no a-priori constant; pair with
/// [`online_bound`](crate::online_bound::online_bound) for an a-posteriori certificate.
pub fn density_sieve(inst: &Instance, levels: usize) -> GreedyOutcome {
    assert!(levels >= 1);
    let budget = inst.budget();
    let mut ev = Evaluator::with_required(inst);
    let mut gain_evals = 0u64;

    // First streamed scan estimates the densest singleton; subsequent
    // levels relax the acceptance threshold by factors of 2 and re-stream
    // (levels passes total — still O(levels · n) evaluations).
    let mut max_density = 0.0f64;
    for p in (0..inst.num_photos() as u32).map(PhotoId) {
        if ev.is_selected(p) {
            continue;
        }
        let d = ev.gain(p) / inst.cost(p) as f64;
        gain_evals += 1;
        if d > max_density {
            max_density = d;
        }
    }
    let mut threshold = max_density / 2.0;
    for _ in 0..levels {
        for p in (0..inst.num_photos() as u32).map(PhotoId) {
            if ev.is_selected(p) || !ev.fits(p, budget) {
                continue;
            }
            let g = ev.gain(p);
            gain_evals += 1;
            if g / inst.cost(p) as f64 >= threshold && g > 0.0 {
                ev.add(p);
            }
        }
        threshold /= 2.0;
    }

    GreedyOutcome {
        selected: ev.selected_ids().to_vec(),
        score: ev.score(),
        cost: ev.cost(),
        stats: RunStats {
            gain_evals,
            sim_ops: 0,
            pq_pops: 0,
            lazy_accepts: 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{brute_force, main_algorithm, online_bound, BruteForceConfig};
    use par_core::fixtures::{random_instance, RandomInstanceConfig};
    use par_core::{InstanceBuilder, Solution, UnitSimilarity};

    /// A unit-cost instance where budget = cardinality.
    fn unit_cost_instance(seed: u64, photos: usize, k: usize) -> Instance {
        let mut b = InstanceBuilder::new(k as u64);
        let mut rng = par_core::fixtures::SplitMix64::new(seed);
        let ids: Vec<PhotoId> = (0..photos)
            .map(|i| b.add_photo(format!("p{i}"), 1))
            .collect();
        for s in 0..photos / 3 {
            let size = 2 + rng.next_below(4);
            let mut members = Vec::new();
            let mut taken = vec![false; photos];
            while members.len() < size.min(photos) {
                let k = rng.next_below(photos);
                if !taken[k] {
                    taken[k] = true;
                    members.push(ids[k]);
                }
            }
            b.add_subset(format!("q{s}"), 1.0 + rng.next_f64() * 5.0, members, vec![]);
        }
        b.build_with_provider(&UnitSimilarity).unwrap()
    }

    #[test]
    fn sieve_meets_half_guarantee_on_unit_instances() {
        for seed in 0..6 {
            let k = 4;
            let inst = unit_cost_instance(seed, 12, k);
            let sieve = sieve_streaming(&inst, k, 0.1).unwrap();
            assert!(sieve.selected.len() <= k);
            // OPT via brute force (budget == cardinality on unit costs).
            let opt = brute_force(&inst, &BruteForceConfig::default())
                .unwrap()
                .score;
            assert!(
                sieve.score + 1e-9 >= (0.5 - 0.1) * opt,
                "seed {seed}: sieve {} < 0.4·OPT {opt}",
                sieve.score
            );
        }
    }

    #[test]
    fn sieve_respects_cardinality_and_required() {
        let cfg = RandomInstanceConfig {
            photos: 25,
            subsets: 8,
            required_prob: 0.08,
            ..Default::default()
        };
        let inst = random_instance(3, &cfg);
        let k = inst.required().len() + 5;
        let out = sieve_streaming(&inst, k, 0.2).unwrap();
        assert!(out.selected.len() <= k);
        for &r in inst.required() {
            assert!(out.selected.contains(&r));
        }
    }

    #[test]
    fn density_sieve_is_feasible_and_competitive() {
        let cfg = RandomInstanceConfig {
            photos: 60,
            subsets: 15,
            budget_fraction: 0.3,
            ..Default::default()
        };
        for seed in 0..5 {
            let inst = random_instance(seed, &cfg);
            let sieve = density_sieve(&inst, 6);
            let sol = Solution::new(&inst, sieve.selected.clone()).unwrap();
            assert!(sol.cost() <= inst.budget());
            let offline = main_algorithm(&inst).best.score;
            assert!(
                sieve.score >= 0.6 * offline,
                "seed {seed}: sieve {} ≪ offline {offline}",
                sieve.score
            );
            // A-posteriori certificate is well-defined.
            let cert = online_bound(&inst, &sieve.selected);
            assert!(cert.ratio > 0.0 && cert.ratio <= 1.0);
        }
    }

    #[test]
    fn sieve_rejects_bad_parameters() {
        use crate::error::SolveError;
        let inst = unit_cost_instance(1, 12, 4);
        assert!(matches!(
            sieve_streaming(&inst, 0, 0.1),
            Err(SolveError::InvalidCardinality(0))
        ));
        assert!(sieve_streaming(&inst, 4, 0.0).is_err());
        assert!(sieve_streaming(&inst, 4, 1.0).is_err());
        assert!(sieve_streaming(&inst, 4, f64::NAN).is_err());
        let cfg = RandomInstanceConfig {
            photos: 10,
            subsets: 3,
            required_prob: 1.0,
            ..Default::default()
        };
        let all_required = random_instance(2, &cfg);
        assert!(matches!(
            sieve_streaming(&all_required, 1, 0.1),
            Err(SolveError::RequiredExceedsCardinality { .. })
        ));
    }

    #[test]
    fn density_sieve_more_levels_never_hurt() {
        let cfg = RandomInstanceConfig {
            photos: 40,
            subsets: 10,
            ..Default::default()
        };
        let inst = random_instance(9, &cfg);
        let few = density_sieve(&inst, 2);
        let many = density_sieve(&inst, 8);
        assert!(many.score + 1e-9 >= few.score);
    }
}
