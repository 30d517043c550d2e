//! Round-trip fidelity of the `phocus-pack` persistent instance format.
//!
//! The pack loader's whole value proposition is that a loaded instance is
//! *indistinguishable* from the instance it was packed from — same arena
//! bytes, same component labels — so every downstream
//! transcript (evaluator kernels, both greedy rules, the sharded driver) is
//! bit-identical, at every thread count. This suite proves that, plus the
//! format's canonicality: one instance, one byte image, pinned by a golden
//! checksum.

use par_algo::{main_algorithm_sharded, GreedyRule, MainOutcome, ShardedSolver, SolveScratch};
use par_core::fixtures::{random_instance, RandomInstanceConfig, SplitMix64};
use par_core::{fnv1a64, pack_instance, unpack_instance, Evaluator, Instance, PhotoId, SubsetId};
use par_exec::Parallelism;
use proptest::prelude::*;

/// Algorithm 1 on a loaded pack through the plan, with its persisted labels.
fn solve_packed(loaded: &par_core::PackedInstance) -> MainOutcome {
    let mut scratch = SolveScratch::default();
    let solver =
        ShardedSolver::new_in_with_labels(&loaded.instance, loaded.labels.clone(), &mut scratch);
    solver.main_algorithm(&mut scratch)
}

/// FNV-1a, 64-bit: tiny, stable, dependency-free transcript hashing.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
    fn f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }
}

/// A deterministic evaluator workout — batch gains, an add/remove schedule,
/// per-subset probes — folded into one hash. Run on the fresh evaluator and
/// on the pack-loaded one, the hashes must match bit for bit.
fn evaluator_workout(mut ev: Evaluator<'_>, num_photos: usize, num_subsets: usize) -> u64 {
    let mut h = Fnv::new();
    let all: Vec<PhotoId> = (0..num_photos as u32).map(PhotoId).collect();
    for g in ev.batch_gains(&all) {
        h.f64(g);
    }
    let mut rng = SplitMix64::new(0xAACC ^ num_photos as u64);
    for step in 0..30u64 {
        let p = PhotoId(rng.next_below(num_photos) as u32);
        if step % 6 == 5 && ev.num_selected() > 0 {
            let victim = ev.selected_ids()[rng.next_below(ev.num_selected())];
            h.f64(ev.remove(victim));
        } else {
            h.f64(ev.add(p));
        }
        h.f64(ev.score());
    }
    for q in 0..num_subsets {
        h.f64(ev.subset_score(SubsetId(q as u32)));
    }
    h.0
}

fn fixture(seed: u64, photos: usize, subsets: usize, budget_fraction: f64) -> Instance {
    random_instance(
        seed,
        &RandomInstanceConfig {
            photos,
            subsets,
            subset_size: (2, 7),
            cost_range: (100, 900),
            budget_fraction,
            required_prob: 0.05,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// pack → load reproduces the evaluator transcript bit for bit: an
    /// evaluator over the loaded instance derives the same fused weights and
    /// arena geometry as one over the original.
    #[test]
    fn loaded_evaluator_transcript_is_bit_identical(
        seed in any::<u64>(), photos in 8usize..48, subsets in 3usize..14,
    ) {
        let inst = fixture(seed, photos, subsets, 0.4);
        let loaded = unpack_instance(&pack_instance(&inst).expect("packable")).expect("valid pack must load");
        let fresh = evaluator_workout(Evaluator::new(&inst), photos, subsets);
        let packed = evaluator_workout(Evaluator::new(&loaded.instance), photos, subsets);
        prop_assert_eq!(fresh, packed, "evaluator transcript diverged after pack round-trip");
    }

    /// Both greedy rules and the full Algorithm 1 driver agree between the
    /// original and the loaded instance: same selection, same score bits.
    #[test]
    fn loaded_solver_outcomes_are_bit_identical(
        seed in any::<u64>(), photos in 8usize..48, subsets in 3usize..14,
    ) {
        let inst = fixture(seed, photos, subsets, 0.3);
        let loaded = unpack_instance(&pack_instance(&inst).expect("packable")).expect("valid pack must load");

        for rule in [GreedyRule::UnitCost, GreedyRule::CostBenefit] {
            let a = ShardedSolver::new(&inst).solve(rule);
            let b = ShardedSolver::new(&loaded.instance).solve(rule);
            prop_assert_eq!(a.selected, b.selected);
            prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
        }

        let a = main_algorithm_sharded(&inst);
        let b = solve_packed(&loaded);
        prop_assert_eq!(a.best.selected, b.best.selected);
        prop_assert_eq!(a.best.score.to_bits(), b.best.score.to_bits());
        prop_assert_eq!(a.best.cost, b.best.cost);
        prop_assert_eq!(a.winner, b.winner);
    }

    /// Packing is deterministic: same instance, same bytes — including after
    /// a load round-trip (`pack(load(pack(x))) == pack(x)`), so the format
    /// is canonical and `cmp` in CI is a complete determinism check.
    #[test]
    fn packing_is_canonical(
        seed in any::<u64>(), photos in 8usize..40, subsets in 3usize..12,
    ) {
        let inst = fixture(seed, photos, subsets, 0.5);
        let once = pack_instance(&inst).expect("packable");
        let twice = pack_instance(&inst).expect("packable");
        prop_assert_eq!(&once, &twice, "two packs of one instance differ");
        let loaded = unpack_instance(&once).expect("valid pack must load");
        let repacked = pack_instance(&loaded.instance).expect("packable");
        prop_assert_eq!(&once, &repacked, "re-pack after load drifted");
    }
}

/// The solver equivalence must hold at every worker-pool size — the loaded
/// instance feeds the same chunk-assignment arithmetic as the fresh one.
#[test]
fn loaded_solves_match_at_every_thread_count() {
    let inst = fixture(0xD1CE_9ACC, 60, 18, 0.35);
    let loaded = unpack_instance(&pack_instance(&inst).expect("packable")).expect("valid pack must load");
    for threads in [1usize, 2, 8] {
        let prev = Parallelism::with_threads(threads).install_global();
        let a = main_algorithm_sharded(&inst);
        let b = solve_packed(&loaded);
        prev.install_global();
        assert_eq!(a.best.selected, b.best.selected, "threads={threads}");
        assert_eq!(
            a.best.score.to_bits(),
            b.best.score.to_bits(),
            "threads={threads}"
        );
        assert_eq!(a.winner, b.winner, "threads={threads}");
    }
}

/// The pinned golden checksum of one fixed-seed pack: any byte-level drift
/// in the format — field order, endianness, section layout, header — fails
/// here even if round-trips still pass. Regenerate with
/// `PRINT_PACK_GOLDEN=1 cargo test -p integration-tests pack_golden -- --nocapture`.
const PACK_GOLDEN: u64 = 0x3a43964f8b4c926f;

#[test]
fn pack_golden_checksum_is_pinned() {
    let inst = fixture(0x9ACC_601D, 32, 10, 0.4);
    let sum = fnv1a64(&pack_instance(&inst).expect("packable"));
    if std::env::var("PRINT_PACK_GOLDEN").is_ok() {
        println!("pack golden: 0x{sum:016x}");
    }
    assert_eq!(
        sum, PACK_GOLDEN,
        "pack byte image drifted from the pinned golden checksum"
    );
}
