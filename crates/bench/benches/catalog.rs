//! Catalog cold-start benchmarks: the numbers behind `BENCH_catalog.json`.
//!
//! A multi-tenant deployment pays its cold start over and over: every
//! restart, every tenant migration, every scale-out re-parses tenant
//! universes from text, re-runs the representation pipeline (relevance
//! normalization, contextual similarity, LSH sparsification), and re-derives
//! solver structure (component labels). The
//! `phocus-pack` format persists exactly those hot structures — validated
//! once at write time, loaded by length-checked bulk copies — so a catalog
//! restart costs file reads plus checksums instead of the whole pipeline.
//!
//! Groups:
//!
//! * `catalog_cold_start` — bringing the 96-tenant fleet corpus to
//!   ready-to-solve state: text parse + representation per tenant vs
//!   `unpack_instance` per tenant, both from memory-resident buffers (no
//!   disk, so the pair isolates compute). The headline `bench_guard` floor
//!   row comes from this pair.
//! * `catalog_serve_batch` — the end-to-end fleet serve: load every tenant
//!   and solve it through `FleetEngine::run`: library tenants (which
//!   represent) vs packed tenants loaded off the catalog images.
//!
//! Both pairs assert bit-identical solver outcomes between the paths before
//! timing — the pack load must be a *free* cold start, not a different one.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use par_core::{pack_instance, unpack_instance, Instance};
use par_datasets::{from_text, generate_fleet, to_text, FleetConfig, Universe};
use par_exec::Parallelism;
use phocus::{
    fraction_budget, represent, FleetEngine, FleetEngineConfig, FleetTenant, RepresentationConfig,
    Sparsification,
};

/// The 96-tenant fleet corpus (12–240 photos per tenant, shared label
/// vocabulary) — the same population the fleet and incremental benches use.
fn fleet_universes() -> Vec<Universe> {
    generate_fleet(&FleetConfig {
        tenants: 96,
        min_photos: 12,
        max_photos: 240,
        seed: 42,
        ..Default::default()
    })
}

fn representation() -> RepresentationConfig {
    RepresentationConfig {
        sparsification: Sparsification::Lsh {
            tau: 0.6,
            target_recall: 0.95,
            seed: 42,
        },
        ..Default::default()
    }
}

/// One tenant's cold-start inputs, memory-resident: the text image the
/// universe path parses and the pack image the catalog path loads, plus the
/// tenant's budget (25% of its own archive, the serve-batch default).
struct TenantImages {
    text: String,
    pack: Vec<u8>,
    budget: u64,
}

fn tenant_images() -> Vec<TenantImages> {
    let representation = representation();
    fleet_universes()
        .into_iter()
        .map(|universe| {
            let budget = fraction_budget(universe.total_cost(), 0.25);
            let inst =
                represent(&universe, budget, &representation).expect("bench corpus represents");
            TenantImages {
                text: to_text(&universe),
                pack: pack_instance(&inst).expect("bench corpus packs"),
                budget,
            }
        })
        .collect()
}

/// The text path's cold start for one tenant: parse, then the full
/// representation pipeline.
fn cold_start_text(images: &TenantImages, representation: &RepresentationConfig) -> Instance {
    let universe = from_text(&images.text).expect("bench tenant parses");
    represent(&universe, images.budget, representation).expect("bench tenant represents")
}

fn bench_cold_start(c: &mut Criterion) {
    let prev = Parallelism::serial().install_global();
    let images = tenant_images();
    let representation = representation();
    let total_pack: usize = images.iter().map(|i| i.pack.len()).sum();
    let total_text: usize = images.iter().map(|i| i.text.len()).sum();
    eprintln!(
        "catalog_cold_start: {} tenants, text={total_text}B, pack={total_pack}B",
        images.len()
    );

    // The pair is only honest if both paths reach the same state: every
    // tenant's loaded pack must solve bit-identically to its freshly
    // represented instance.
    for images in &images {
        let fresh = cold_start_text(images, &representation);
        let loaded = unpack_instance(&images.pack).expect("bench pack loads");
        let a = par_algo::main_algorithm_sharded(&fresh);
        let mut scratch = par_algo::SolveScratch::default();
        let solver = par_algo::ShardedSolver::new_in_with_labels(
            &loaded.instance,
            loaded.labels.clone(),
            &mut scratch,
        );
        let b = solver.main_algorithm(&mut scratch);
        assert_eq!(a.best.selected, b.best.selected);
        assert_eq!(a.best.score.to_bits(), b.best.score.to_bits());
        assert_eq!(a.winner, b.winner);
    }

    let mut group = c.benchmark_group("catalog_cold_start");
    group.sample_size(10);
    group.bench_function("text_represent", |b| {
        b.iter(|| {
            let mut photos = 0usize;
            for images in &images {
                photos += cold_start_text(images, &representation).num_photos();
            }
            black_box(photos)
        })
    });
    group.bench_function("pack_load", |b| {
        b.iter(|| {
            let mut photos = 0usize;
            for images in &images {
                let loaded = unpack_instance(&images.pack).expect("bench pack loads");
                photos += loaded.instance.num_photos();
            }
            black_box(photos)
        })
    });
    group.finish();
    prev.install_global();
}

fn bench_serve_batch(c: &mut Criterion) {
    let prev = Parallelism::serial().install_global();
    let images = tenant_images();
    let representation = representation();
    let engine = FleetEngine::new(FleetEngineConfig {
        representation: representation.clone(),
    });

    // Pre-parse the universe tenants once (the serve side re-represents per
    // iteration; the parse itself is timed by the cold-start group).
    let tenants: Vec<FleetTenant> = images
        .iter()
        .map(|i| {
            let universe = from_text(&i.text).expect("bench tenant parses");
            FleetTenant::Library {
                universe,
                budget: i.budget,
            }
        })
        .collect();

    // Equivalence before timing: the catalog serve must report the same
    // per-tenant solutions as the universe serve.
    let packed_tenants = || -> Vec<FleetTenant> {
        images
            .iter()
            .zip(&tenants)
            .map(|(i, t)| FleetTenant::Packed {
                name: t.name().to_string(),
                packed: unpack_instance(&i.pack).expect("bench pack loads"),
            })
            .collect()
    };
    let from_universe = engine.run(&tenants);
    let from_catalog = engine.run(&packed_tenants());
    for (a, b) in from_universe.iter().zip(&from_catalog) {
        let (ra, rb) = (
            a.result.as_ref().expect("universe tenant solves"),
            b.result.as_ref().expect("catalog tenant solves"),
        );
        assert_eq!(ra.selected, rb.selected);
        assert_eq!(ra.score.to_bits(), rb.score.to_bits());
    }

    let mut group = c.benchmark_group("catalog_serve_batch");
    group.sample_size(10);
    group.bench_function("universe_serve", |b| {
        b.iter(|| black_box(engine.run(&tenants).len()))
    });
    group.bench_function("catalog_serve", |b| {
        b.iter(|| black_box(engine.run(&packed_tenants()).len()))
    });
    group.finish();
    prev.install_global();
}

criterion_group!(catalog_benches, bench_cold_start, bench_serve_batch);
criterion_main!(catalog_benches);
