//! The multi-tenant fleet engine: many PAR instances, one set of arenas.
//!
//! A photo platform does not solve one archival instance — it solves one per
//! user. Library sizes are heavy-tailed (most users hold a few dozen photos,
//! a few hold thousands), so a naive loop that allocates a fresh evaluator
//! and fresh solver state per tenant spends a large share of its time in the
//! allocator, and a naive front-to-back schedule leaves the largest library
//! straggling at the end of the batch.
//!
//! [`FleetEngine`] fixes both:
//!
//! * **Shared scratch arenas.** Every worker owns one
//!   [`par_algo::SolveScratch`] for the whole batch; each tenant's
//!   represent→solve→recycle cycle draws all evaluator and solver buffers
//!   from it and returns the capacity afterwards. The arenas are *capacity
//!   only*: every buffer is cleared and fully rewritten by the same
//!   arithmetic a fresh allocation would run, so a tenant's outcome is
//!   bit-identical whether its scratch is freshly allocated or has already
//!   served a thousand other tenants (see
//!   [`PhocusConfig`](crate::PhocusConfig) for the single-instance analogue
//!   and `DESIGN.md` §13 for the invariant).
//! * **Largest-first scheduling.** Tenants are dispatched to the persistent
//!   worker pool (via [`par_exec::par_map_dynamic`]) in descending library
//!   size, so the heavy tail starts first and small libraries backfill the
//!   idle workers — the classical LPT heuristic. Outcomes are returned in
//!   *input* order regardless of the schedule, and each outcome is a pure
//!   function of its tenant, so the batch result is independent of worker
//!   count and dispatch order.
//!
//! Failures are per-tenant: a tenant whose representation fails (e.g. its
//! required set alone exceeds its budget) yields an `Err` outcome while the
//! rest of the fleet solves normally. The `phocus serve-batch` CLI surfaces
//! this as one status line per tenant and exit code 5 when some — but not
//! all — tenants failed.

use crate::error::{PhocusError, Result};
use crate::representation::{represent, RepresentationConfig};
use par_algo::{GreedyRule, MainOutcome, ShardedSolver, SolveScratch};
use par_core::{Instance, PackedInstance, PhotoId, ShardLabels};
use par_datasets::Universe;
use par_exec::Parallelism;
use std::time::{Duration, Instant};

/// Configuration of a fleet batch run.
#[derive(Debug, Clone, Default)]
pub struct FleetEngineConfig {
    /// Representation choices applied to every tenant.
    pub representation: RepresentationConfig,
    /// Worker threads for tenant dispatch (installed as the process-wide
    /// default for the duration of the batch, like a single PHOcus run).
    pub parallelism: Parallelism,
}

/// One unit of fleet work: a tenant's library and its byte budget.
#[derive(Debug, Clone)]
pub struct FleetTenant {
    /// The tenant's photo library.
    pub universe: Universe,
    /// The tenant's storage budget in bytes.
    pub budget: u64,
}

/// The solution for one tenant.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Retained photos (including `S₀`), in selection order.
    pub selected: Vec<PhotoId>,
    /// Objective value on the tenant's selection instance.
    pub score: f64,
    /// Solution cost in bytes.
    pub cost: u64,
    /// Which greedy rule won inside Algorithm 1.
    pub winner: GreedyRule,
}

/// Per-tenant outcome: solution or typed failure, plus the solve latency.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// The tenant's name (from its universe).
    pub name: String,
    /// Photos in the tenant's library.
    pub photos: usize,
    /// The solution, or why this tenant failed. A failed tenant never fails
    /// the batch.
    pub result: Result<TenantReport>,
    /// Wall-clock represent+solve time for this tenant.
    pub latency: Duration,
}

impl TenantOutcome {
    fn failed(tenant: &FleetTenant, error: PhocusError) -> Self {
        TenantOutcome {
            name: tenant.universe.name.clone(),
            photos: tenant.universe.num_photos(),
            result: Err(error),
            latency: Duration::ZERO,
        }
    }
}

/// One unit of catalog-backed fleet work: a tenant already represented,
/// loaded from a `phocus-pack` file with its shard labels alongside. The
/// [`FleetEngine::run_packed`] path skips text parsing, validation, the
/// representation pipeline, *and* the solver's union-find — the cold start
/// the catalog exists to eliminate.
#[derive(Debug, Clone)]
pub struct PackedTenant {
    /// Tenant name (from the catalog index).
    pub name: String,
    /// The loaded pack: instance + evaluator layout + shard labels.
    pub packed: PackedInstance,
}

/// The fleet engine: holds a configuration, solves batches of tenants.
#[derive(Debug, Clone, Default)]
pub struct FleetEngine {
    /// The batch configuration.
    pub config: FleetEngineConfig,
}

impl FleetEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: FleetEngineConfig) -> Self {
        FleetEngine { config }
    }

    /// Solves every tenant and returns the outcomes **in input order**.
    ///
    /// Tenants are scheduled largest-first across the worker pool; each
    /// worker reuses one [`SolveScratch`] across all tenants it serves.
    /// Outcomes are bit-identical to solving each tenant alone with
    /// [`crate::Phocus`] under the same representation.
    pub fn run(&self, tenants: &[FleetTenant]) -> Vec<TenantOutcome> {
        let prev = self.config.parallelism.install_global();
        let outcomes = self.run_inner(tenants);
        prev.install_global();
        outcomes
    }

    fn run_inner(&self, tenants: &[FleetTenant]) -> Vec<TenantOutcome> {
        // Largest-first (LPT): descending photo count, ties by input order,
        // so the schedule is deterministic.
        let mut order: Vec<usize> = (0..tenants.len()).collect();
        order.sort_by(|&a, &b| {
            tenants[b]
                .universe
                .num_photos()
                .cmp(&tenants[a].universe.num_photos())
                .then(a.cmp(&b))
        });
        // Each pool participant owns one scratch for its whole stream of
        // tenants; every outcome is a pure function of the tenant (the
        // arena-reset invariant), so the nondeterministic work assignment
        // cannot leak into results.
        let mut indexed: Vec<(usize, TenantOutcome)> =
            par_exec::par_map_dynamic(order.len(), SolveScratch::default, |scratch, k| {
                let i = order[k];
                (i, self.solve_tenant(&tenants[i], scratch))
            });
        indexed.sort_unstable_by_key(|&(i, _)| i);
        indexed.into_iter().map(|(_, o)| o).collect()
    }

    /// Solves a batch of **pre-represented** tenants (catalog pack loads),
    /// outcomes in input order. Scheduling, arena reuse, and failure
    /// isolation match [`run`](Self::run); the per-tenant work drops the
    /// representation pipeline and the component union-find, both of which
    /// the pack already paid at write time.
    /// Outcomes are bit-identical to [`run`](Self::run) over the universes
    /// the packs were built from, under the same representation.
    pub fn run_packed(&self, tenants: &[PackedTenant]) -> Vec<TenantOutcome> {
        let prev = self.config.parallelism.install_global();
        let mut order: Vec<usize> = (0..tenants.len()).collect();
        order.sort_by(|&a, &b| {
            tenants[b]
                .packed
                .instance
                .num_photos()
                .cmp(&tenants[a].packed.instance.num_photos())
                .then(a.cmp(&b))
        });
        let mut indexed: Vec<(usize, TenantOutcome)> =
            par_exec::par_map_dynamic(order.len(), SolveScratch::default, |scratch, k| {
                let i = order[k];
                (i, self.solve_packed_tenant(&tenants[i], scratch))
            });
        indexed.sort_unstable_by_key(|&(i, _)| i);
        let outcomes = indexed.into_iter().map(|(_, o)| o).collect();
        prev.install_global();
        outcomes
    }

    fn solve_packed_tenant(&self, tenant: &PackedTenant, scratch: &mut SolveScratch) -> TenantOutcome {
        let t0 = Instant::now(); // phocus-lint: allow(wall-clock) — fills the reported latency field only
        let inst = &tenant.packed.instance;
        let outcome = solve_in(inst, tenant.packed.labels.clone(), scratch);
        TenantOutcome {
            name: tenant.name.clone(),
            photos: inst.num_photos(),
            result: Ok(TenantReport {
                selected: outcome.best.selected,
                score: outcome.best.score,
                cost: outcome.best.cost,
                winner: outcome.winner,
            }),
            latency: t0.elapsed(),
        }
    }

    fn solve_tenant(&self, tenant: &FleetTenant, scratch: &mut SolveScratch) -> TenantOutcome {
        let t0 = Instant::now(); // phocus-lint: allow(wall-clock) — fills the reported latency field only
        let inst = match represent(&tenant.universe, tenant.budget, &self.config.representation) {
            Ok(inst) => inst,
            Err(e) => return TenantOutcome::failed(tenant, e),
        };
        let outcome = solve_in(&inst, par_core::shard_labels(&inst), scratch);
        TenantOutcome {
            name: tenant.universe.name.clone(),
            photos: tenant.universe.num_photos(),
            result: Ok(TenantReport {
                selected: outcome.best.selected,
                score: outcome.best.score,
                cost: outcome.best.cost,
                winner: outcome.winner,
            }),
            latency: t0.elapsed(),
        }
    }
}

/// Algorithm 1 on one tenant through the CELF plan, every buffer drawn from
/// (and returned to) the worker's `scratch`.
fn solve_in(inst: &Instance, labels: ShardLabels, scratch: &mut SolveScratch) -> MainOutcome {
    let solver = ShardedSolver::new_in_with_labels(inst, labels, scratch);
    let outcome = solver.main_algorithm(scratch);
    solver.recycle(scratch);
    outcome
}

/// Budgets a fleet uniformly: each tenant gets `fraction` of its own
/// archive's total byte size (clamped to at least one byte so tiny archives
/// stay representable).
pub fn budget_by_fraction(universes: Vec<Universe>, fraction: f64) -> Vec<FleetTenant> {
    universes
        .into_iter()
        .map(|universe| {
            let budget = ((universe.total_cost() as f64 * fraction) as u64).max(1);
            FleetTenant { universe, budget }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use par_datasets::{generate_fleet, FleetConfig};

    fn small_fleet() -> Vec<FleetTenant> {
        let universes = generate_fleet(&FleetConfig {
            tenants: 8,
            min_photos: 12,
            max_photos: 200,
            seed: 11,
            ..Default::default()
        });
        budget_by_fraction(universes, 0.3)
    }

    #[test]
    fn outcomes_come_back_in_input_order() {
        let tenants = small_fleet();
        let outcomes = FleetEngine::default().run(&tenants);
        assert_eq!(outcomes.len(), tenants.len());
        for (t, o) in tenants.iter().zip(&outcomes) {
            assert_eq!(t.universe.name, o.name);
            assert_eq!(t.universe.num_photos(), o.photos);
        }
    }

    #[test]
    fn arena_reuse_is_bit_identical_to_fresh_allocation() {
        // One worker, so a single scratch serves every tenant: all but the
        // first solve through a dirty scratch. Both the text and the packed
        // path must match a fresh-allocation solve of each tenant.
        let tenants = small_fleet();
        let representation = RepresentationConfig::default();
        let engine = FleetEngine::new(FleetEngineConfig {
            representation: representation.clone(),
            parallelism: Parallelism::with_threads(1),
        });
        let mut packed = Vec::new();
        let mut fresh = Vec::new();
        for t in &tenants {
            let inst = represent(&t.universe, t.budget, &representation).unwrap();
            fresh.push(par_algo::main_algorithm_sharded(&inst));
            let bytes = par_core::pack_instance(&inst).unwrap();
            packed.push(PackedTenant {
                name: t.universe.name.clone(),
                packed: par_core::unpack_instance(&bytes).unwrap(),
            });
        }
        for outcomes in [engine.run(&tenants), engine.run_packed(&packed)] {
            for (o, f) in outcomes.iter().zip(&fresh) {
                let r = o.result.as_ref().expect("fleet tenant solves");
                assert_eq!(r.selected, f.best.selected);
                assert_eq!(r.score.to_bits(), f.best.score.to_bits());
                assert_eq!(r.cost, f.best.cost);
                assert_eq!(r.winner, f.winner);
            }
        }
    }

    #[test]
    fn batch_matches_solo_solves() {
        let tenants = small_fleet();
        let outcomes = FleetEngine::default().run(&tenants);
        for (t, o) in tenants.iter().zip(&outcomes) {
            let solo = crate::Phocus::default()
                .solve(&t.universe, t.budget)
                .expect("solo solve succeeds");
            let batch = o.result.as_ref().expect("batch solve succeeds");
            assert_eq!(batch.selected, solo.selected);
            assert_eq!(batch.score.to_bits(), solo.score.to_bits());
            assert_eq!(batch.cost, solo.cost);
        }
    }

    #[test]
    fn a_failing_tenant_does_not_fail_the_batch() {
        let mut tenants = small_fleet();
        // Starve one tenant: a one-byte budget is below any required set or
        // representable solution only when photos cost more than a byte, but
        // represent() itself succeeds — so instead poison the universe with
        // an unsatisfiable required set by shrinking the budget below the
        // required photos' cost.
        let victim = 2;
        let required_cost: u64 = tenants[victim]
            .universe
            .required
            .iter()
            .map(|&i| tenants[victim].universe.costs[i as usize])
            .sum();
        if required_cost == 0 {
            // Ensure the victim actually has a required photo to starve.
            tenants[victim].universe.required.push(0);
        }
        tenants[victim].budget = 1;
        let outcomes = FleetEngine::default().run(&tenants);
        assert!(outcomes[victim].result.is_err(), "starved tenant fails");
        for (i, o) in outcomes.iter().enumerate() {
            if i != victim {
                assert!(o.result.is_ok(), "tenant {i} unaffected");
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_outcomes() {
        let tenants = small_fleet();
        let with = |threads: usize| {
            FleetEngine::new(FleetEngineConfig {
                parallelism: Parallelism::with_threads(threads),
                ..Default::default()
            })
            .run(&tenants)
        };
        let serial = with(1);
        let parallel = with(4);
        for (a, b) in serial.iter().zip(&parallel) {
            let ra = a.result.as_ref().expect("solves");
            let rb = b.result.as_ref().expect("solves");
            assert_eq!(ra.selected, rb.selected);
            assert_eq!(ra.score.to_bits(), rb.score.to_bits());
        }
    }
}
