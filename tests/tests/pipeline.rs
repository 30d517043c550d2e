//! End-to-end pipeline tests: generate → represent → solve → validate,
//! across both dataset families and all three similarity representations.

use par_core::Solution;
use par_datasets::{generate_ecommerce, generate_openimages, EcConfig, EcDomain, OpenImagesConfig};
use phocus::{represent, Phocus, PhocusConfig, RepresentationConfig, Sparsification};

fn public_universe(seed: u64) -> par_datasets::Universe {
    generate_openimages(&OpenImagesConfig {
        name: "it-public".into(),
        photos: 300,
        target_subsets: 60,
        seed,
        ..Default::default()
    })
}

#[test]
fn public_pipeline_dense() {
    let u = public_universe(1);
    let budget = u.total_cost() / 5;
    let inst = represent(&u, budget, &RepresentationConfig::default()).unwrap();
    let out = par_algo::main_algorithm(&inst);
    let sol = Solution::new(&inst, out.best.selected).unwrap();
    assert!(sol.cost() <= budget);
    assert!(sol.score() > 0.0);
    // Coverage: a decent solution touches most subsets.
    let cov = sol.coverage(&inst);
    assert!(
        cov.covered * 10 >= cov.subsets * 5,
        "covered only {}/{}",
        cov.covered,
        cov.subsets
    );
}

#[test]
fn public_pipeline_all_representations_agree_roughly() {
    let u = public_universe(2);
    let budget = u.total_cost() / 5;
    let dense = represent(&u, budget, &RepresentationConfig::default()).unwrap();
    let dense_sel = par_algo::main_algorithm(&dense).best.selected;
    let dense_q = Solution::new_unchecked(&dense, dense_sel).score();

    for sparsification in [
        Sparsification::Threshold { tau: 0.6 },
        Sparsification::Lsh {
            tau: 0.6,
            target_recall: 0.95,
            seed: 3,
        },
    ] {
        let cfg = RepresentationConfig {
            sparsification,
            ..Default::default()
        };
        let inst = represent(&u, budget, &cfg).unwrap();
        let sel = par_algo::main_algorithm(&inst).best.selected;
        // Score the sparsified selection under the TRUE objective.
        let q = Solution::new_unchecked(&dense, sel).score();
        assert!(
            q >= 0.85 * dense_q,
            "{sparsification:?}: quality {q} vs dense {dense_q}"
        );
    }
}

#[test]
fn ecommerce_pipeline_with_required_photos() {
    let mut cfg = EcConfig::small(EcDomain::Electronics, 4);
    cfg.required_brand_fraction = 0.3;
    let u = generate_ecommerce(&cfg);
    assert!(!u.required.is_empty(), "flagship photos should be required");
    let budget = u.total_cost() / 6;
    let solver = Phocus::new(PhocusConfig {
        representation: RepresentationConfig::phocus(0.5),
        certify_sparsification: true,
    });
    let report = solver.solve(&u, budget).unwrap();
    // Required photos retained.
    for &r in &u.required {
        assert!(
            report.selected.contains(&par_core::PhotoId(r)),
            "required photo {r} missing"
        );
    }
    // Certificate present and sane.
    let cert = report.sparsification.unwrap();
    assert!(cert.alpha > 0.0 && cert.alpha <= 1.0);
    assert!(report.online.ratio > 0.0 && report.online.ratio <= 1.0);
}

#[test]
fn rendered_fidelity_end_to_end() {
    // Pixels → features → embeddings → instance → solution.
    let u = generate_openimages(&OpenImagesConfig {
        name: "it-rendered".into(),
        photos: 60,
        target_subsets: 15,
        seed: 5,
        fidelity: par_datasets::openimages::Fidelity::Rendered,
        ..Default::default()
    });
    let budget = u.total_cost() / 3;
    let inst = represent(&u, budget, &RepresentationConfig::default()).unwrap();
    let out = par_algo::main_algorithm(&inst);
    let sol = Solution::new(&inst, out.best.selected).unwrap();
    assert!(sol.score() > 0.0);
    assert!(sol.cost() <= budget);
}

#[test]
fn budget_sweep_is_monotone() {
    // More budget never hurts the solver's achieved quality.
    let u = public_universe(6);
    let mut last = 0.0;
    for frac in [5u64, 10, 20, 40, 80, 100] {
        let budget = u.total_cost() * frac / 100;
        let inst = represent(&u, budget, &RepresentationConfig::default()).unwrap();
        let out = par_algo::main_algorithm(&inst);
        assert!(
            out.best.score >= last - 1e-9,
            "quality dropped at {frac}%: {} < {last}",
            out.best.score
        );
        last = out.best.score;
    }
    // At 100% everything is retained.
    let inst = represent(&u, u.total_cost(), &RepresentationConfig::default()).unwrap();
    assert!((par_algo::main_algorithm(&inst).best.score - inst.max_score()).abs() < 1e-6);
}

#[test]
fn exif_mixing_changes_the_solution_scores() {
    let mut u = public_universe(7);
    // Attach synthetic EXIF: photos sharing a label share an event.
    let exif: Vec<par_embed::ExifData> = (0..u.num_photos())
        .map(|i| par_embed::ExifData::synthesize((i % 13) as u64, i as u64))
        .collect();
    u.exif = Some(exif);
    let budget = u.total_cost() / 5;
    let plain = represent(&u, budget, &RepresentationConfig::default()).unwrap();
    let mixed = represent(
        &u,
        budget,
        &RepresentationConfig {
            exif_weight: 0.4,
            ..Default::default()
        },
    )
    .unwrap();
    let set: Vec<par_core::PhotoId> = (0..60).map(par_core::PhotoId).collect();
    let a = par_core::exact_score(&plain, &set);
    let b = par_core::exact_score(&mixed, &set);
    assert!((a - b).abs() > 1e-9, "EXIF mixing had no effect");
}
