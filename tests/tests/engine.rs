//! One differential harness over every entry point of the CELF plan.
//!
//! Every production solve runs through [`ShardedSolver`]; this suite checks
//! each way into it against the global oracles [`lazy_greedy`] and
//! [`lazy_greedy_from`] — same photos, same order, same `f64` score bits,
//! same cost — on a fixed set of adversarial instance shapes:
//!
//! * the paper's Figure 1 at 2, 3 and 4 MB and an unbounded budget;
//! * random dense, τ-sparsified and unit-similarity instances;
//! * required photos under a tight budget;
//! * an archive of singletons only (one frozen pool stream);
//! * one giant component (one heap stream).
//!
//! The entry points: a cold [`ShardedSolver::solve`], `solve_scratch` through
//! a scratch dirtied by every previous shape, `new_in_with_labels`,
//! `solve_with_budget` over a budget sweep, `solve_from` warm starts,
//! Algorithm 1 on the plan, and [`IncrementalSolver::resolve`] on its first
//! run, on a no-op replay, and after epoch deltas.

use par_algo::{
    lazy_greedy, lazy_greedy_from, main_algorithm, main_algorithm_sharded, GreedyOutcome,
    GreedyRule, IncrementalSolver, MainOutcome, ShardedSolver, SolveScratch,
};
use par_core::fixtures::{figure1_instance, random_instance, RandomInstanceConfig, MB};
use par_core::UnitSimilarity;
use par_core::{decompose, shard_labels, EpochDelta, Instance, InstanceBuilder, PhotoId};

const RULES: [GreedyRule; 2] = [GreedyRule::UnitCost, GreedyRule::CostBenefit];

/// Every instance shape the harness runs, with a name for failure messages.
fn shapes() -> Vec<(String, Instance)> {
    let mut shapes = Vec::new();
    for (label, budget) in [
        ("2MB", 2 * MB),
        ("3MB", 3 * MB),
        ("4MB", 4 * MB),
        ("inf", u64::MAX),
    ] {
        shapes.push((format!("figure1/{label}"), figure1_instance(budget)));
    }
    for seed in 0..4 {
        let inst = random_instance(seed, &RandomInstanceConfig::default());
        shapes.push((format!("sparse0.8/{seed}"), inst.sparsify(0.8)));
        shapes.push((format!("sparse0.85/{seed}"), inst.sparsify(0.85)));
        shapes.push((format!("unit/{seed}"), inst.with_unit_sims()));
        shapes.push((format!("dense/{seed}"), inst));
    }
    for seed in [11, 17] {
        let inst = random_instance(seed, &RandomInstanceConfig::default());
        shapes.push((format!("sparse0.8/{seed}"), inst.sparsify(0.8)));
    }
    let tight = RandomInstanceConfig {
        photos: 60,
        subsets: 15,
        required_prob: 0.1,
        budget_fraction: 0.25,
        ..Default::default()
    };
    for seed in 0..4 {
        let inst = random_instance(seed, &tight).sparsify(0.85);
        shapes.push((format!("required-tight/{seed}"), inst));
    }
    shapes.push(("singletons".into(), all_singletons()));
    shapes.push(("giant".into(), giant_component()));
    shapes
}

/// Forty photos, each alone in its own query: every photo is a singleton
/// component, so the whole archive is one frozen pool stream.
fn all_singletons() -> Instance {
    let mut b = InstanceBuilder::new(400_000);
    for k in 0..40u64 {
        let p = b.add_photo(format!("s{k}"), 20_000 + (k * 7_919) % 50_000);
        if k % 9 == 4 {
            b.require(p);
        }
        b.add_subset(format!("q{k}"), 1.0 + (k % 5) as f64, vec![p], vec![]);
    }
    b.build_with_provider(&UnitSimilarity).unwrap()
}

/// A dense instance whose queries chain every photo into one component.
fn giant_component() -> Instance {
    let inst = random_instance(
        0x61A7,
        &RandomInstanceConfig {
            photos: 80,
            subsets: 40,
            subset_size: (6, 14),
            budget_fraction: 0.3,
            required_prob: 0.05,
            ..Default::default()
        },
    );
    assert_eq!(
        decompose(&inst).num_shards(),
        1,
        "fixture must be one component"
    );
    inst
}

fn assert_same(what: &str, got: &GreedyOutcome, oracle: &GreedyOutcome) {
    assert_eq!(got.selected, oracle.selected, "{what}: selection diverged");
    assert_eq!(
        got.score.to_bits(),
        oracle.score.to_bits(),
        "{what}: score bits diverged ({} vs {})",
        got.score,
        oracle.score
    );
    assert_eq!(got.cost, oracle.cost, "{what}: cost diverged");
}

/// Algorithm 1 outcomes against the global oracle on `inst`.
fn assert_main_matches(what: &str, got: &MainOutcome, inst: &Instance) {
    let oracle = main_algorithm(inst);
    assert_same(&format!("{what} uc"), &got.uc, &oracle.uc);
    assert_same(&format!("{what} cb"), &got.cb, &oracle.cb);
    assert_same(&format!("{what} best"), &got.best, &oracle.best);
    assert_eq!(got.winner, oracle.winner, "{what}: winner diverged");
}

#[test]
fn cold_solves_match_lazy_greedy() {
    // One scratch serves every shape in turn, so all but the first
    // scratch solve run on buffers another instance left behind.
    let mut scratch = SolveScratch::new();
    for (name, inst) in shapes() {
        let plan = ShardedSolver::new(&inst);
        let labeled = ShardedSolver::new_in_with_labels(&inst, shard_labels(&inst), &mut scratch);
        for rule in RULES {
            let oracle = lazy_greedy(&inst, rule);
            let what = format!("{name} {rule:?}");
            let cold = plan.solve(rule);
            assert_same(&format!("{what} solve"), &cold, &oracle);
            let dirty = labeled.solve_scratch(rule, &mut scratch);
            assert_same(&format!("{what} solve_scratch"), &dirty, &oracle);
            assert_eq!(dirty.stats.gain_evals, cold.stats.gain_evals, "{what}");
            assert_eq!(dirty.stats.pq_pops, cold.stats.pq_pops, "{what}");
        }
        labeled.recycle(&mut scratch);
    }
}

#[test]
fn main_algorithm_entry_points_match_oracle() {
    let mut scratch = SolveScratch::new();
    for (name, inst) in shapes() {
        assert_main_matches(
            &format!("{name} sharded"),
            &main_algorithm_sharded(&inst),
            &inst,
        );
        let plan = ShardedSolver::new_in_with_labels(&inst, shard_labels(&inst), &mut scratch);
        let out = plan.main_algorithm(&mut scratch);
        plan.recycle(&mut scratch);
        assert_main_matches(&format!("{name} plan"), &out, &inst);
    }
}

#[test]
fn budget_sweeps_match_lazy_greedy() {
    // One prepared plan swept over many budgets must match the oracle on
    // the instance rebuilt at each budget.
    for (name, inst) in shapes() {
        let plan = ShardedSolver::new(&inst);
        let lo = inst.required_cost();
        let hi = inst.total_cost();
        for step in 0..6u64 {
            let budget = lo + (hi - lo) * step / 5;
            let scoped = inst.with_budget(budget).unwrap();
            for rule in RULES {
                let what = format!("{name} budget {budget} {rule:?}");
                assert_same(
                    &what,
                    &plan.solve_with_budget(rule, budget),
                    &lazy_greedy(&scoped, rule),
                );
            }
        }
    }
}

#[test]
fn warm_starts_match_lazy_greedy_from() {
    for (name, inst) in shapes() {
        let plan = ShardedSolver::new(&inst);
        // Warm-start from a prefix of the CB picks (a superset of S₀), and
        // from an arbitrary non-greedy selection.
        let picks = lazy_greedy(&inst, GreedyRule::CostBenefit).selected;
        let prefix: Vec<PhotoId> = picks
            .iter()
            .copied()
            .take(inst.required().len() + 3)
            .collect();
        let odd: Vec<PhotoId> = (0..inst.num_photos() as u32)
            .step_by(7)
            .map(PhotoId)
            .filter(|&p| inst.cost(p) <= inst.budget() / 8)
            .take(3)
            .collect();
        for initial in [prefix, odd] {
            for rule in RULES {
                let what = format!("{name} from {initial:?} {rule:?}");
                let oracle = lazy_greedy_from(&inst, &initial, rule);
                assert_same(&what, &plan.solve_from(&initial, rule), &oracle);
            }
        }
    }
}

#[test]
fn incremental_resolves_match_lazy_greedy() {
    for (name, inst) in shapes() {
        let mut inc = IncrementalSolver::new(inst.clone());
        let first = inc.resolve();
        assert_main_matches(&format!("{name} first resolve"), &first, &inst);
        assert_eq!(inc.last_report().replayed_streams, 0, "{name}");

        // Nothing changed: every non-pool stream replays, none goes live.
        let again = inc.resolve();
        assert_main_matches(&format!("{name} no-op replay"), &again, &inst);
        assert_eq!(inc.last_report().live_streams, 0, "{name}");
        assert_eq!(inc.last_report().went_live, 0, "{name}");

        // A budget cut, a budget growth past the first budget (which
        // demotes replays), and a photo removal.
        let lo = inst.required_cost();
        let hi = inst.total_cost();
        let deltas = [
            EpochDelta {
                set_budget: Some(lo + (hi - lo) * 3 / 10),
                ..Default::default()
            },
            EpochDelta {
                set_budget: Some(lo + (hi - lo) * 7 / 10),
                ..Default::default()
            },
            EpochDelta {
                remove_photos: vec![PhotoId(inst.num_photos() as u32 / 2)],
                ..Default::default()
            },
        ];
        for (k, delta) in deltas.iter().enumerate() {
            inc.apply_delta(delta).unwrap();
            let out = inc.resolve();
            assert_main_matches(&format!("{name} delta {k}"), &out, inc.instance());
        }
    }
}
