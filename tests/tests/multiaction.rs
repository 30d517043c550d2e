//! Multi-action (keep / recompress@ℓ / delete) determinism contracts.
//!
//! The variant expansion promotes PAR's ground set to photo × action; these
//! tests pin the properties that make running it on the component-sharded
//! solver sound:
//!
//! 1. variants share their parent's embedding, so every variant lands in
//!    its parent's connected component — the decomposition never splits a
//!    variant family;
//! 2. on expanded instances the sharded solver's transcript is bit-identical
//!    to the global one, under the serial build and at 1/2/8 worker threads;
//! 3. the degenerate (empty) ladder reproduces remove-only archival exactly,
//!    bit for bit.

use par_algo::{lazy_greedy, main_algorithm, main_algorithm_sharded, GreedyRule, ShardedSolver};
use par_core::{shard_labels, Instance};
use par_exec::Parallelism;
use par_datasets::{generate_openimages, OpenImagesConfig, Universe};
use phocus::{
    expand_with_variants, represent, represent_with_variants, solve_multi_action, ActionLadder,
    RepresentationConfig, Sparsification, VariantMap,
};

fn universe(photos: usize, seed: u64) -> Universe {
    generate_openimages(&OpenImagesConfig {
        name: format!("ma{seed}"),
        photos,
        target_subsets: photos / 5,
        seed,
        ..Default::default()
    })
}

/// A τ-sparsified expanded instance: sparsification keeps the component
/// structure non-trivial, which is what makes the sharded-vs-global
/// comparison meaningful.
fn expanded_instance(u: &Universe, ladder: &ActionLadder, budget_div: u64) -> (Instance, VariantMap) {
    let (x, map) = expand_with_variants(u, ladder);
    let cfg = RepresentationConfig {
        sparsification: Sparsification::Threshold { tau: 0.9 },
        ..Default::default()
    };
    let inst = represent_with_variants(&x, &map, ladder, u.total_cost() / budget_div, &cfg)
        .expect("representation");
    (inst, map)
}

#[test]
fn variants_land_in_their_parents_shard() {
    let u = universe(150, 11);
    let (inst, map) = expanded_instance(&u, &ActionLadder::standard(), 8);
    let labels = shard_labels(&inst);
    for i in 0..inst.num_photos() {
        let parent = map.parent[i] as usize;
        assert_eq!(
            labels.shard_of(par_core::PhotoId(i as u32)),
            labels.shard_of(par_core::PhotoId(parent as u32)),
            "variant {i} split from parent {parent}"
        );
    }
    assert!(
        labels.num_shards() > 1,
        "trivial decomposition — the co-location check proved nothing"
    );
}

#[test]
fn expanded_transcripts_are_bit_identical_sharded_vs_global() {
    for (seed, div) in [(11u64, 8u64), (23, 14)] {
        let u = universe(150, seed);
        let (inst, _) = expanded_instance(&u, &ActionLadder::standard(), div);
        for rule in [GreedyRule::CostBenefit, GreedyRule::UnitCost] {
            let global = lazy_greedy(&inst, rule);
            let sharded = ShardedSolver::new(&inst).solve(rule);
            assert_eq!(sharded.selected, global.selected, "selection diverged ({rule:?})");
            assert_eq!(
                sharded.score.to_bits(),
                global.score.to_bits(),
                "score bits diverged ({rule:?})"
            );
        }
        let global = main_algorithm(&inst);
        let sharded = main_algorithm_sharded(&inst);
        assert_eq!(sharded.best.selected, global.best.selected);
        assert_eq!(sharded.best.score.to_bits(), global.best.score.to_bits());
        assert_eq!(sharded.winner, global.winner, "winning rule diverged");
    }
}

#[test]
fn expanded_solves_are_identical_at_1_2_8_threads() {
    let u = universe(150, 11);
    let ladder = ActionLadder::standard();
    let budget = u.total_cost() / 8;
    let cfg = RepresentationConfig {
        sparsification: Sparsification::Threshold { tau: 0.9 },
        ..Default::default()
    };
    let mut transcripts = Vec::new();
    for threads in [1usize, 2, 8] {
        let prev = Parallelism::with_threads(threads).install_global();
        let solve = solve_multi_action(&u, budget, &ladder, &cfg, true).expect("solve");
        prev.install_global();
        transcripts.push((threads, solve.selected, solve.score.to_bits()));
    }
    let (_, sel0, bits0) = &transcripts[0];
    for (threads, sel, bits) in &transcripts[1..] {
        assert_eq!(sel, sel0, "selection diverged at {threads} threads");
        assert_eq!(bits, bits0, "score bits diverged at {threads} threads");
    }
}

#[test]
fn empty_ladder_reproduces_remove_only_exactly() {
    let u = universe(150, 11);
    let budget = u.total_cost() / 8;
    let cfg = RepresentationConfig {
        sparsification: Sparsification::Threshold { tau: 0.9 },
        ..Default::default()
    };
    let base = represent(&u, budget, &cfg).expect("representation");
    let remove_only = main_algorithm_sharded(&base);
    for sharding in [true, false] {
        let ma = solve_multi_action(&u, budget, &ActionLadder::delete_only(), &cfg, sharding)
            .expect("solve");
        assert_eq!(ma.selected, remove_only.best.selected, "sharding={sharding}");
        assert_eq!(ma.score.to_bits(), remove_only.best.score.to_bits());
        assert_eq!(ma.kept_compressed, 0);
    }
}

/// The compress determinism differential, as a library test: on the P-1K
/// dataset at 1 MB with the `0.85:0.35,0.55:0.10` ladder (the `ci.sh`
/// compress gate's arguments), the plan and the global oracle must agree on
/// both `phocus compress` solves — selections, score bits, kept counts and
/// the retained actions the `--out` TSV lists.
#[test]
fn ci_ladder_plan_matches_global_oracle() {
    let u = generate_openimages(&par_datasets::PublicScale::P1K.config(42));
    let budget = 1_000_000;
    let cfg = RepresentationConfig::default();
    let ladder = ActionLadder::parse("0.85:0.35,0.55:0.10").expect("ladder parses");
    for ladder in [ActionLadder::delete_only(), ladder] {
        let plan = solve_multi_action(&u, budget, &ladder, &cfg, true).expect("plan solve");
        let oracle = solve_multi_action(&u, budget, &ladder, &cfg, false).expect("oracle solve");
        assert_eq!(plan.selected, oracle.selected, "selection diverged");
        assert_eq!(
            plan.score.to_bits(),
            oracle.score.to_bits(),
            "score bits diverged"
        );
        assert_eq!(plan.kept_original, oracle.kept_original);
        assert_eq!(plan.kept_compressed, oracle.kept_compressed);
        let actions = |s: &phocus::MultiActionSolve| -> Vec<(u32, Option<usize>)> {
            s.selected
                .iter()
                .map(|p| (s.map.parent[p.index()], s.map.level[p.index()]))
                .collect()
        };
        assert_eq!(
            actions(&plan),
            actions(&oracle),
            "retained actions diverged"
        );
    }
}
