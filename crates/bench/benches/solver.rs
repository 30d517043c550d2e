//! Solver benchmarks: Algorithm 1 end to end through the CELF plan, and the
//! lazy-vs-eager greedy comparison behind the paper's Section 4.2 efficiency
//! argument.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use par_algo::{eager_greedy, lazy_greedy, main_algorithm_sharded, GreedyRule};
use par_bench::{dataset, DatasetId, Scale};
use phocus::{represent, RepresentationConfig};

fn bench_main_algorithm(c: &mut Criterion) {
    let u = dataset(DatasetId::P1K, Scale::Scaled);
    let inst = represent(&u, u.total_cost() / 5, &RepresentationConfig::default()).unwrap();
    c.bench_function("main_algorithm/P-1K/20%budget", |b| {
        b.iter(|| main_algorithm_sharded(std::hint::black_box(&inst)))
    });
}

fn bench_lazy_vs_eager(c: &mut Criterion) {
    let u = dataset(DatasetId::P1K, Scale::Scaled);
    let inst = represent(&u, u.total_cost() / 5, &RepresentationConfig::default()).unwrap();
    let mut group = c.benchmark_group("celf_lazy");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("lazy", "P-1K"), |b| {
        b.iter(|| lazy_greedy(std::hint::black_box(&inst), GreedyRule::CostBenefit))
    });
    group.bench_function(BenchmarkId::new("eager", "P-1K"), |b| {
        b.iter(|| eager_greedy(std::hint::black_box(&inst), GreedyRule::CostBenefit))
    });
    group.finish();
}

fn bench_budget_scaling(c: &mut Criterion) {
    // Solve time vs budget fraction (more budget ⇒ more selections).
    let u = dataset(DatasetId::P1K, Scale::Scaled);
    let mut group = c.benchmark_group("solver_budget_scaling");
    group.sample_size(10);
    for pct in [5u64, 10, 20, 40] {
        let budget = u.total_cost() * pct / 100;
        let inst = represent(&u, budget, &RepresentationConfig::default()).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{pct}%")),
            &inst,
            |b, i| b.iter(|| main_algorithm_sharded(std::hint::black_box(i))),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_main_algorithm,
    bench_lazy_vs_eager,
    bench_budget_scaling
);
criterion_main!(benches);
