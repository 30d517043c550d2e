//! Ablations of PHOcus's design choices, beyond the paper's own figures:
//! contextualization strength, τ-sparsification sweep, the compression
//! extension (the paper's §6 future work), the local-search polish pass,
//! and solver scaling across dataset sizes.

use crate::registry::{dataset, DatasetId, Scale, SEED};
use crate::Series;
use par_algo::{main_algorithm_sharded, swap_local_search, LocalSearchConfig};
use par_core::Solution;
use par_sparse::sparsification_bound;
use phocus::{represent, solve_multi_action, ActionLadder, RepresentationConfig, Sparsification};

/// Contextualization ablation: quality of the PHOcus solution as the
/// attention floor `blend` moves from fully contextual (0) to non-contextual
/// (1), evaluated under the fully-contextual objective. Shows how much of
/// the PHOcus-vs-NCS gap the contextual embeddings buy.
pub fn ablation_context(_scale: Scale) -> Vec<Series> {
    let u = dataset(DatasetId::EcFashion, Scale::Scaled);
    let budget = u.total_cost() / 12;
    // The evaluation objective: the default (blend 0.3) contextual instance.
    let eval = represent(&u, budget, &RepresentationConfig::default()).expect("representation");
    let mut rows = Vec::new();
    for blend in [0.0f32, 0.15, 0.3, 0.5, 0.75, 1.0] {
        let cfg = RepresentationConfig {
            blend,
            ..Default::default()
        };
        let inst = represent(&u, budget, &cfg).expect("representation");
        let sel = main_algorithm_sharded(&inst).best.selected;
        let q = Solution::new_unchecked(&eval, sel).score();
        rows.push(Series::new(
            "ablation_context",
            format!("blend={blend}"),
            "quality (true objective)",
            q,
        ));
    }
    rows
}

/// τ sweep: stored pairs, quality (relative to dense), and the Theorem 4.8
/// certificate across thresholds — the tuning table of Section 4.3.
pub fn ablation_tau(_scale: Scale) -> Vec<Series> {
    let u = dataset(DatasetId::P1K, Scale::Scaled);
    let budget = u.total_cost() / 5;
    let dense = represent(&u, budget, &RepresentationConfig::default()).expect("representation");
    let dense_sel = main_algorithm_sharded(&dense).best.selected;
    let dense_q = Solution::new_unchecked(&dense, dense_sel).score();
    let dense_pairs = dense.stored_pairs().max(1);

    let mut rows = Vec::new();
    for tau in [0.3, 0.5, 0.6, 0.7, 0.8, 0.9] {
        let cfg = RepresentationConfig {
            sparsification: Sparsification::Lsh {
                tau,
                target_recall: 0.95,
                seed: SEED,
            },
            ..Default::default()
        };
        let sparse = represent(&u, budget, &cfg).expect("representation");
        let sel = main_algorithm_sharded(&sparse).best.selected;
        let q = Solution::new_unchecked(&dense, sel).score();
        let cert = sparsification_bound(&dense, tau);
        let x = format!("tau={tau}");
        rows.push(Series::new(
            "ablation_tau",
            x.clone(),
            "stored pairs %",
            100.0 * sparse.stored_pairs() as f64 / dense_pairs as f64,
        ));
        rows.push(Series::new(
            "ablation_tau",
            x.clone(),
            "quality %",
            100.0 * q / dense_q,
        ));
        rows.push(Series::new("ablation_tau", x, "thm4.8 alpha", cert.alpha));
    }
    rows
}

/// The §6 future-work experiment: remove-only vs compression-aware archival
/// at tight budgets. Values: quality and variant counts.
pub fn ablation_compression(_scale: Scale) -> Vec<Series> {
    let u = dataset(DatasetId::P1K, Scale::Scaled);
    let mut rows = Vec::new();
    for (label, divisor) in [("4%", 25u64), ("10%", 10), ("25%", 4)] {
        let budget = u.total_cost() / divisor;
        let cfg = RepresentationConfig::default();
        let solve = |ladder: &ActionLadder| {
            solve_multi_action(&u, budget, ladder, &cfg, true).expect("multi-action solve")
        };
        let remove = solve(&ActionLadder::delete_only());
        let ma = solve(&ActionLadder::standard());
        rows.push(Series::new(
            "ablation_compression",
            label,
            "remove-only",
            remove.score,
        ));
        rows.push(Series::new(
            "ablation_compression",
            label,
            "with compression",
            ma.score,
        ));
        rows.push(Series::new(
            "ablation_compression",
            label,
            "kept compressed",
            ma.kept_compressed as f64,
        ));
    }
    rows
}

/// Local-search polish: how much a 1-swap pass adds on top of Algorithm 1
/// (and on top of a random solution, for contrast).
pub fn ablation_local_search(_scale: Scale) -> Vec<Series> {
    use rand::SeedableRng;
    let u = dataset(DatasetId::EcElectronics, Scale::Scaled);
    let budget = u.total_cost() / 12;
    let inst = represent(&u, budget, &RepresentationConfig::default()).expect("representation");
    let cfg = LocalSearchConfig::default();

    let greedy = main_algorithm_sharded(&inst).best;
    let polished = swap_local_search(&inst, &greedy.selected, &cfg);
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
    let random = par_algo::rand_a(&inst, &mut rng);
    let random_q = par_core::exact_score(&inst, &random);
    let random_polished = swap_local_search(&inst, &random, &cfg);

    vec![
        Series::new("ablation_local_search", "greedy", "before", greedy.score),
        Series::new(
            "ablation_local_search",
            "greedy",
            "after 1-swap",
            polished.score,
        ),
        Series::new("ablation_local_search", "random", "before", random_q),
        Series::new(
            "ablation_local_search",
            "random",
            "after 1-swap",
            random_polished.score,
        ),
    ]
}

/// Solver scaling: end-to-end PHOcus vs PHOcus-NS time (seconds) across
/// dataset sizes — the trend behind Figure 5f's hours-vs-minutes story.
pub fn ablation_scaling(scale: Scale) -> Vec<Series> {
    let mut rows = Vec::new();
    let ids: &[DatasetId] = match scale {
        Scale::Scaled => &[DatasetId::P1K, DatasetId::P5K, DatasetId::P10K],
        Scale::Full => &[
            DatasetId::P1K,
            DatasetId::P5K,
            DatasetId::P10K,
            DatasetId::P50K,
        ],
    };
    for &id in ids {
        let u = dataset(id, scale);
        let budget = u.total_cost() / 5;
        let name = u.name.clone();

        let t = std::time::Instant::now();
        let dense = represent(&u, budget, &RepresentationConfig::default()).expect("repr");
        main_algorithm_sharded(&dense);
        let ns_time = t.elapsed().as_secs_f64();

        let t = std::time::Instant::now();
        let sparse = represent(
            &u,
            budget,
            &RepresentationConfig {
                sparsification: Sparsification::Lsh {
                    tau: 0.6,
                    target_recall: 0.95,
                    seed: SEED,
                },
                ..Default::default()
            },
        )
        .expect("repr");
        main_algorithm_sharded(&sparse);
        let ph_time = t.elapsed().as_secs_f64();

        rows.push(Series::new(
            "ablation_scaling",
            name.clone(),
            "PHOcus",
            ph_time,
        ));
        rows.push(Series::new("ablation_scaling", name, "PHOcus-NS", ns_time));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tau_sweep_is_monotone_in_pairs() {
        let rows = ablation_tau(Scale::Scaled);
        let pairs: Vec<f64> = rows
            .iter()
            .filter(|r| r.series == "stored pairs %")
            .map(|r| r.value)
            .collect();
        for w in pairs.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "pairs increased along the τ sweep");
        }
        // Quality stays high throughout.
        for r in rows.iter().filter(|r| r.series == "quality %") {
            assert!(r.value >= 85.0, "{}: quality {}", r.x, r.value);
        }
    }

    #[test]
    fn compression_helps_at_tight_budgets() {
        let rows = ablation_compression(Scale::Scaled);
        let remove = rows
            .iter()
            .find(|r| r.x == "4%" && r.series == "remove-only")
            .unwrap()
            .value;
        let compress = rows
            .iter()
            .find(|r| r.x == "4%" && r.series == "with compression")
            .unwrap()
            .value;
        assert!(
            compress > remove,
            "compression did not help: {compress} vs {remove}"
        );
    }

    #[test]
    fn local_search_helps_random_more_than_greedy() {
        let rows = ablation_local_search(Scale::Scaled);
        let v = |x: &str, s: &str| {
            rows.iter()
                .find(|r| r.x == x && r.series == s)
                .unwrap()
                .value
        };
        let greedy_gain = v("greedy", "after 1-swap") - v("greedy", "before");
        let random_gain = v("random", "after 1-swap") - v("random", "before");
        assert!(greedy_gain >= -1e-9);
        assert!(random_gain > greedy_gain, "random should gain more");
    }
}
