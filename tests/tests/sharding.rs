//! Property tests for the component-sharded solver: the decomposition is a
//! true partition of the photo–query graph, and the sharded CELF driver's
//! transcript is bit-identical to the global lazy greedy on random instances
//! under both greedy rules.

use par_algo::{lazy_greedy, GreedyRule, ShardedSolver};
use par_core::fixtures::{random_instance, RandomInstanceConfig};
use par_core::{decompose, ContextSim, Instance};
use proptest::prelude::*;

fn instance_strategy() -> impl Strategy<Value = Instance> {
    // The vendored proptest shim drives everything from integer ranges:
    // budget_pct becomes the budget fraction, and sparsity picks dense /
    // τ=0.6 / τ=0.85 similarity stores (queries only span several
    // components on sparse instances).
    (any::<u64>(), 30usize..120, 5usize..25, 15u64..80, 0u32..3).prop_map(
        |(seed, photos, subsets, budget_pct, sparsity)| {
            let inst = random_instance(
                seed,
                &RandomInstanceConfig {
                    photos,
                    subsets,
                    subset_size: (2, 12),
                    budget_fraction: budget_pct as f64 / 100.0,
                    required_prob: 0.03,
                    ..Default::default()
                },
            );
            match sparsity {
                0 => inst,
                1 => inst.sparsify(0.6),
                _ => inst.sparsify(0.85),
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn decomposition_is_a_true_partition(inst in instance_strategy()) {
        let dec = decompose(&inst);

        // Every photo appears in exactly one shard, the shard lists are
        // ascending, and the labeling agrees with them.
        let mut seen = vec![false; inst.num_photos()];
        for (s, view) in dec.shards.iter().enumerate() {
            prop_assert!(view.photos.windows(2).all(|w| w[0] < w[1]), "shard not ascending");
            for &g in &view.photos {
                prop_assert!(!seen[g.index()], "photo {} in two shards", g.0);
                seen[g.index()] = true;
                prop_assert_eq!(dec.shard_of(g), s);
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "photo missing from all shards");

        // No stored similarity edge crosses shards: each sparse edge links
        // two members the decomposition placed together.
        for q in inst.subsets() {
            if let ContextSim::Sparse(sp) = inst.sim(q.id) {
                for (pos, &m) in q.members.iter().enumerate() {
                    let s = dec.shard_of(m);
                    for &j in sp.neighbors(pos).0 {
                        prop_assert_eq!(
                            dec.shard_of(q.members[j as usize]),
                            s,
                            "stored edge crosses shards"
                        );
                    }
                }
            } else {
                // Dense / unit queries are clique-unioned: all members in
                // one shard.
                if let Some((&first, rest)) = q.members.split_first() {
                    let s = dec.shard_of(first);
                    for &m in rest {
                        prop_assert_eq!(dec.shard_of(m), s, "dense query split");
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_transcript_equals_global_lazy_greedy(inst in instance_strategy()) {
        for rule in [GreedyRule::CostBenefit, GreedyRule::UnitCost] {
            let global = lazy_greedy(&inst, rule);
            let sharded = ShardedSolver::new(&inst).solve(rule);
            prop_assert_eq!(&sharded.selected, &global.selected, "selection order diverged");
            prop_assert_eq!(
                sharded.score.to_bits(),
                global.score.to_bits(),
                "score bits diverged: {} vs {}", sharded.score, global.score
            );
            prop_assert_eq!(sharded.cost, global.cost);
        }
    }
}
