//! Multi-tenant fleet benchmarks: the numbers behind `BENCH_fleet.json`.
//!
//! A serve-batch deployment solves one PAR instance per tenant. The fleet
//! engine pulls two throughput levers over the naive per-tenant loop:
//!
//! * **hoisted similarity kernels** — the dense representation prepares each
//!   context once (squared attention weights, per-member norm terms) so the
//!   `O(|q|²)` pair loop pays only a dot accumulation, where the generic
//!   provider path recomputes weights and both self-norms per pair;
//! * **arena reuse** — every worker keeps one [`SolveScratch`] for its whole
//!   stream of tenants, so evaluator/solver buffers are recycled capacity
//!   instead of fresh heap allocations.
//!
//! Outcomes are bit-identical either way (the arena-reset invariant and the
//! kernel bit-identity tests, DESIGN.md §13) — this file asserts it outside
//! the timed loops.
//!
//! Groups:
//!
//! * `fleet_batch` — end-to-end serve-batch throughput through
//!   [`FleetEngine`] (`reuse`) against the `naive` baseline: the pre-engine
//!   way to serve a fleet — a loop of single-tenant pipelines with per-pair
//!   provider dispatch in the similarity build, fresh solver allocations,
//!   and the unconditional online-bound certificate each solve pays. The
//!   `instances_per_sec` headline and the engine-vs-naive speedup row come
//!   from these rows.
//! * `fleet_solver` — solving alone: the same pre-represented tenant
//!   instances solved back-to-back through the CELF plan, drawing from one
//!   shared scratch.
//! * `fleet_scaling` — the end-to-end batch at 1/2/4 worker threads
//!   (tenants dispatch largest-first across the persistent pool).
//!
//! The latency distribution (p50/p99 per-tenant solve latency) is printed
//! to stderr by `fleet_latency` from a real engine run — percentiles come
//! from per-tenant wall clocks, not from criterion's per-iteration mean.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use par_algo::{main_algorithm_sharded, online_bound, ShardedSolver, SolveScratch};
use par_core::{shard_labels, Instance, InstanceBuilder, PhotoId};
use par_datasets::{generate_fleet, FleetConfig, Universe};
use par_embed::{ContextVector, ContextualSimilarity};
use par_exec::Parallelism;
use phocus::{budget_by_fraction, represent, FleetEngine, FleetTenant, RepresentationConfig};

/// The benchmark fleet: Zipf-heavy library sizes over a shared vocabulary.
fn fleet_tenants() -> Vec<FleetTenant> {
    let universes = generate_fleet(&FleetConfig {
        tenants: 192,
        min_photos: 12,
        max_photos: 240,
        seed: 42,
        ..Default::default()
    });
    budget_by_fraction(universes, 0.25)
}

/// A benchmark tenant's library and budget (every tenant here is one).
fn library(t: &FleetTenant) -> (&Universe, u64) {
    match t {
        FleetTenant::Library { universe, budget } => (universe, *budget),
        FleetTenant::Packed { .. } => unreachable!("the benchmark fleet is all libraries"),
    }
}

/// Pre-represented instances, so `fleet_solver` times nothing but solving.
fn represented(tenants: &[FleetTenant]) -> Vec<Instance> {
    tenants
        .iter()
        .map(|t| {
            let (universe, budget) = library(t);
            represent(universe, budget, &RepresentationConfig::default()).unwrap()
        })
        .collect()
}

/// Algorithm 1 on one pre-represented tenant through the CELF plan, every
/// buffer drawn from `scratch` — the engine's per-tenant solve.
fn plan_score(inst: &Instance, scratch: &mut SolveScratch) -> f64 {
    let solver = ShardedSolver::new_in_with_labels(inst, shard_labels(inst), scratch);
    let score = solver.main_algorithm(scratch).best.score;
    solver.recycle(scratch);
    score
}

/// One tenant through the pre-engine serving pipeline: the dense contextual
/// representation materialized with per-pair provider dispatch (weights and
/// both self-norms recomputed for every pair — no hoisted kernel), a fresh
/// sharded solve, and the online-bound certificate every single-tenant
/// `Phocus::solve` pays. Returns the winning score for the equivalence
/// assertion.
fn naive_solve(t: &FleetTenant) -> f64 {
    let (u, budget) = library(t);
    let dim = u.embeddings.first().map(|e| e.dim()).unwrap_or(1);
    let contexts: Vec<ContextVector> = u
        .subsets
        .iter()
        .map(|s| ContextVector::from_label(dim, &s.label))
        .collect();
    let provider = ContextualSimilarity::new(u.embeddings.clone(), contexts);
    let mut b = InstanceBuilder::new(budget);
    for (name, &cost) in u.names.iter().zip(&u.costs) {
        b.add_photo(name.clone(), cost);
    }
    for &r in &u.required {
        b.require(PhotoId(r));
    }
    for s in &u.subsets {
        b.add_subset(
            s.label.clone(),
            s.weight,
            s.members.iter().map(|&m| PhotoId(m)).collect(),
            s.relevance.clone(),
        );
    }
    let inst = b.build_with_provider(&provider).expect("bench tenant builds");
    let outcome = main_algorithm_sharded(&inst);
    let bound = online_bound(&inst, &outcome.best.selected);
    assert!(bound.ratio > 0.0);
    outcome.best.score
}

fn bench_fleet_batch(c: &mut Criterion) {
    let prev = Parallelism::serial().install_global();
    let tenants = fleet_tenants();
    let engine = FleetEngine::default();
    // The comparison is only honest if both pipelines produce the same
    // answers: the engine's kernelized represent + arena-reused solve must
    // match the naive per-pair/fresh-alloc pipeline bit for bit.
    let engine_scores: Vec<u64> = engine
        .run(&tenants)
        .into_iter()
        .map(|o| o.result.expect("bench tenant solves").score.to_bits())
        .collect();
    let naive_scores: Vec<u64> = tenants.iter().map(|t| naive_solve(t).to_bits()).collect();
    assert_eq!(engine_scores, naive_scores, "pipelines must agree bitwise");

    let mut group = c.benchmark_group("fleet_batch");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("reuse", "batch192"), |b| {
        b.iter(|| std::hint::black_box(engine.run(&tenants).len()))
    });
    group.bench_function(BenchmarkId::new("naive", "batch192"), |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for t in &tenants {
                acc += naive_solve(t);
            }
            std::hint::black_box(acc)
        })
    });
    group.finish();
    prev.install_global();
}

fn bench_fleet_solver(c: &mut Criterion) {
    let prev = Parallelism::serial().install_global();
    let tenants = fleet_tenants();
    let instances = represented(&tenants);
    eprintln!(
        "fleet_solver: {} tenants, {} photos total",
        instances.len(),
        instances.iter().map(Instance::num_photos).sum::<usize>()
    );
    let mut group = c.benchmark_group("fleet_solver");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("reuse", "batch192"), |b| {
        b.iter(|| {
            let mut scratch = SolveScratch::default();
            let mut acc = 0.0f64;
            for inst in &instances {
                acc += plan_score(inst, &mut scratch);
            }
            std::hint::black_box(acc)
        })
    });
    group.finish();
    prev.install_global();
}

fn bench_fleet_scaling(c: &mut Criterion) {
    let tenants = fleet_tenants();
    let mut group = c.benchmark_group("fleet_scaling");
    group.sample_size(10);
    let engine = FleetEngine::default();
    for threads in [1usize, 2, 4] {
        let prev = Parallelism::with_threads(threads).install_global();
        group.bench_function(BenchmarkId::new("reuse", format!("t{threads}")), |b| {
            b.iter(|| std::hint::black_box(engine.run(&tenants).len()))
        });
        prev.install_global();
    }
    group.finish();
}

/// Prints the per-tenant solve-latency distribution of one real engine run;
/// the p50/p99 rows of `BENCH_fleet.json` are read off this line.
fn bench_fleet_latency(c: &mut Criterion) {
    let tenants = fleet_tenants();
    let prev = Parallelism::serial().install_global();
    let outcomes = FleetEngine::default().run(&tenants);
    prev.install_global();
    let mut lat_ns: Vec<u128> = outcomes.iter().map(|o| o.latency.as_nanos()).collect();
    lat_ns.sort_unstable();
    let pct = |p: usize| lat_ns[(lat_ns.len() * p / 100).min(lat_ns.len() - 1)];
    eprintln!(
        "fleet_latency: tenants={} p50_ns={} p90_ns={} p99_ns={} max_ns={}",
        lat_ns.len(),
        pct(50),
        pct(90),
        pct(99),
        lat_ns[lat_ns.len() - 1]
    );
    // Anchor a criterion row on the median-sized tenant so the latency
    // group also leaves a machine-readable trace in CRITERION_JSON.
    let mut order: Vec<usize> = (0..tenants.len()).collect();
    order.sort_by_key(|&i| tenants[i].num_photos());
    let median = &tenants[order[order.len() / 2]];
    let inst = represented(std::slice::from_ref(median));
    let mut group = c.benchmark_group("fleet_latency");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("median_tenant", "solve"), |b| {
        let mut scratch = SolveScratch::default();
        b.iter(|| std::hint::black_box(plan_score(&inst[0], &mut scratch)))
    });
    group.finish();
}

criterion_group!(
    fleet_benches,
    bench_fleet_batch,
    bench_fleet_solver,
    bench_fleet_scaling,
    bench_fleet_latency
);
criterion_main!(fleet_benches);
