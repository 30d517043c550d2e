//! Benchmarks for the extension machinery: evaluator removal, swap local
//! search, streaming sieves, and the compression expansion.

use criterion::{criterion_group, criterion_main, Criterion};
use par_algo::{density_sieve, main_algorithm_sharded, swap_local_search, LocalSearchConfig};
use par_bench::{dataset, DatasetId, Scale};
use par_core::{Evaluator, PhotoId};
use phocus::{expand_with_variants, represent, ActionLadder, RepresentationConfig};

fn bench_remove(c: &mut Criterion) {
    let u = dataset(DatasetId::P1K, Scale::Scaled);
    let inst = represent(&u, u.total_cost() / 5, &RepresentationConfig::default()).unwrap();
    let mut base = Evaluator::new(&inst);
    for p in (0..inst.num_photos() as u32).step_by(3) {
        base.add(PhotoId(p));
    }
    c.bench_function("evaluator_remove_add_roundtrip", |b| {
        b.iter(|| {
            let mut ev = base.clone();
            let n = inst.num_photos() as u32;
            for p in (0..n).step_by(9) {
                ev.remove(PhotoId(p));
                ev.add(PhotoId((p + 1) % n));
            }
            std::hint::black_box(ev.score())
        })
    });
}

fn bench_local_search(c: &mut Criterion) {
    let u = dataset(DatasetId::P1K, Scale::Scaled);
    let inst = represent(&u, u.total_cost() / 8, &RepresentationConfig::default()).unwrap();
    let greedy = main_algorithm_sharded(&inst).best.selected;
    let mut group = c.benchmark_group("local_search");
    group.sample_size(10);
    group.bench_function("polish_greedy/P-1K", |b| {
        b.iter(|| {
            swap_local_search(
                std::hint::black_box(&inst),
                &greedy,
                &LocalSearchConfig {
                    max_swaps: 8,
                    ..Default::default()
                },
            )
        })
    });
    group.finish();
}

fn bench_streaming(c: &mut Criterion) {
    let u = dataset(DatasetId::P1K, Scale::Scaled);
    let inst = represent(&u, u.total_cost() / 5, &RepresentationConfig::default()).unwrap();
    let mut group = c.benchmark_group("streaming");
    group.sample_size(10);
    group.bench_function("density_sieve/6levels/P-1K", |b| {
        b.iter(|| density_sieve(std::hint::black_box(&inst), 6))
    });
    group.bench_function("offline_main_algorithm/P-1K", |b| {
        b.iter(|| main_algorithm_sharded(std::hint::black_box(&inst)))
    });
    group.finish();
}

fn bench_compression_expansion(c: &mut Criterion) {
    let u = dataset(DatasetId::P1K, Scale::Scaled);
    let ladder = ActionLadder::standard();
    c.bench_function("compression_expand/P-1K", |b| {
        b.iter(|| expand_with_variants(std::hint::black_box(&u), &ladder))
    });
}

criterion_group!(
    benches,
    bench_remove,
    bench_local_search,
    bench_streaming,
    bench_compression_expansion
);
criterion_main!(benches);
