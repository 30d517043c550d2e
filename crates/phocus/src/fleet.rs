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
//! A tenant arrives either as a photo library ([`FleetTenant::Library`],
//! represented and labelled on the worker) or as a loaded `phocus-pack`
//! ([`FleetTenant::Packed`], instance and labels prebuilt); one batch may mix
//! both, and from the labels on both run the same plan.
//!
//! Failures are per-tenant: a tenant whose representation fails (e.g. its
//! required set alone exceeds its budget) yields an `Err` outcome while the
//! rest of the fleet solves normally. The `phocus serve-batch` CLI surfaces
//! this as one status line per tenant and exit code 5 when some — but not
//! all — tenants failed.

use crate::error::Result;
use crate::representation::{represent, RepresentationConfig};
use par_algo::{GreedyRule, ShardedSolver, SolveScratch};
use par_core::{Instance, PackedInstance, PhotoId, ShardLabels};
use par_datasets::Universe;
use std::borrow::Cow;
use std::time::{Duration, Instant};

/// Configuration of a fleet batch run.
#[derive(Debug, Clone, Default)]
pub struct FleetEngineConfig {
    /// Representation choices applied to every [`FleetTenant::Library`]
    /// tenant (a packed tenant was represented when it was packed).
    pub representation: RepresentationConfig,
}

/// One unit of fleet work.
#[derive(Debug, Clone)]
pub enum FleetTenant {
    /// A photo library, represented under the engine's configuration.
    Library {
        /// The tenant's photo library.
        universe: Universe,
        /// The tenant's storage budget in bytes.
        budget: u64,
    },
    /// A tenant loaded from a `phocus-pack`: the instance and its shard
    /// labels arrive prebuilt, so text parsing, representation and the
    /// union-find are all skipped.
    Packed {
        /// Tenant name (the catalog entry's).
        name: String,
        /// The loaded pack.
        packed: PackedInstance,
    },
}

impl FleetTenant {
    /// The tenant's name.
    pub fn name(&self) -> &str {
        match self {
            FleetTenant::Library { universe, .. } => &universe.name,
            FleetTenant::Packed { name, .. } => name,
        }
    }

    /// Photos in the tenant's library (the LPT scheduling key).
    pub fn num_photos(&self) -> usize {
        match self {
            FleetTenant::Library { universe, .. } => universe.num_photos(),
            FleetTenant::Packed { packed, .. } => packed.instance.num_photos(),
        }
    }
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
    /// The tenant's name ([`FleetTenant::name`]).
    pub name: String,
    /// Photos in the tenant's library.
    pub photos: usize,
    /// The solution, or why this tenant failed. A failed tenant never fails
    /// the batch.
    pub result: Result<TenantReport>,
    /// Wall-clock represent+solve time for this tenant.
    pub latency: Duration,
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
    /// Tenants are scheduled largest-first across the worker pool (sized by
    /// the process-wide [`par_exec::Parallelism`]); each worker reuses one
    /// [`SolveScratch`] across all tenants it serves. Outcomes are
    /// bit-identical to solving each tenant alone with [`crate::Phocus`]
    /// under the same representation, and a packed tenant's outcome equals
    /// that of the library it was packed from.
    pub fn run(&self, tenants: &[FleetTenant]) -> Vec<TenantOutcome> {
        // Largest-first (LPT): descending photo count, ties by input order,
        // so the schedule is deterministic.
        let mut order: Vec<usize> = (0..tenants.len()).collect();
        order.sort_by(|&a, &b| {
            tenants[b]
                .num_photos()
                .cmp(&tenants[a].num_photos())
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

    fn solve_tenant(&self, tenant: &FleetTenant, scratch: &mut SolveScratch) -> TenantOutcome {
        let t0 = Instant::now(); // phocus-lint: allow(wall-clock) — fills the reported latency field only
        let prepared: Result<(Cow<'_, Instance>, ShardLabels)> = match tenant {
            FleetTenant::Library { universe, budget } => {
                represent(universe, *budget, &self.config.representation).map(|inst| {
                    let labels = par_core::shard_labels(&inst);
                    (Cow::Owned(inst), labels)
                })
            }
            FleetTenant::Packed { packed, .. } => {
                Ok((Cow::Borrowed(&packed.instance), packed.labels.clone()))
            }
        };
        let result = prepared.map(|(inst, labels)| solve_in(&inst, labels, scratch));
        TenantOutcome {
            name: tenant.name().to_string(),
            photos: tenant.num_photos(),
            result,
            latency: t0.elapsed(),
        }
    }
}

/// Algorithm 1 on one tenant through the CELF plan, every buffer drawn from
/// (and returned to) the worker's `scratch`.
fn solve_in(inst: &Instance, labels: ShardLabels, scratch: &mut SolveScratch) -> TenantReport {
    let solver = ShardedSolver::new_in_with_labels(inst, labels, scratch);
    let outcome = solver.main_algorithm(scratch);
    solver.recycle(scratch);
    TenantReport {
        selected: outcome.best.selected,
        score: outcome.best.score,
        cost: outcome.best.cost,
        winner: outcome.winner,
    }
}

/// The budget that keeps `fraction` of an archive of `total_cost` bytes,
/// clamped to at least one byte so tiny archives stay representable.
pub fn fraction_budget(total_cost: u64, fraction: f64) -> u64 {
    ((total_cost as f64 * fraction) as u64).max(1)
}

/// Budgets a fleet uniformly: each tenant gets [`fraction_budget`] of its
/// own archive's total byte size.
pub fn budget_by_fraction(universes: Vec<Universe>, fraction: f64) -> Vec<FleetTenant> {
    universes
        .into_iter()
        .map(|universe| {
            let budget = fraction_budget(universe.total_cost(), fraction);
            FleetTenant::Library { universe, budget }
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

    fn library(t: &FleetTenant) -> (&Universe, u64) {
        match t {
            FleetTenant::Library { universe, budget } => (universe, *budget),
            FleetTenant::Packed { .. } => panic!("expected a library tenant"),
        }
    }

    /// The pack-loaded twin of a library tenant, under the same name.
    fn packed_twin(t: &FleetTenant, representation: &RepresentationConfig) -> FleetTenant {
        let (universe, budget) = library(t);
        let inst = represent(universe, budget, representation).unwrap();
        let bytes = par_core::pack_instance(&inst).unwrap();
        FleetTenant::Packed {
            name: universe.name.clone(),
            packed: par_core::unpack_instance(&bytes).unwrap(),
        }
    }

    /// Starves `t`: its required set alone now exceeds a one-byte budget,
    /// so representation fails for it.
    fn starve(t: &mut FleetTenant) {
        let FleetTenant::Library { universe, budget } = t else {
            panic!("expected a library tenant")
        };
        if universe.required.is_empty() {
            universe.required.push(0);
        }
        *budget = 1;
    }

    fn assert_same(a: &TenantReport, b: &TenantReport) {
        assert_eq!(a.selected, b.selected);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.winner, b.winner);
    }

    #[test]
    fn outcomes_come_back_in_input_order() {
        let tenants = small_fleet();
        let outcomes = FleetEngine::default().run(&tenants);
        assert_eq!(outcomes.len(), tenants.len());
        for (t, o) in tenants.iter().zip(&outcomes) {
            assert_eq!(t.name(), o.name);
            assert_eq!(t.num_photos(), o.photos);
        }
    }

    #[test]
    fn arena_reuse_is_bit_identical_to_fresh_allocation() {
        // One scratch serves every tenant, library then packed twin, so all
        // but the first solve run through a dirty scratch; so does the
        // batch entry point over the mixed fleet. Each must match a
        // fresh-allocation solve.
        let representation = RepresentationConfig::default();
        let engine = FleetEngine::new(FleetEngineConfig {
            representation: representation.clone(),
        });
        let mut mixed = Vec::new();
        let mut fresh = Vec::new();
        for t in small_fleet() {
            let (universe, budget) = library(&t);
            let inst = represent(universe, budget, &representation).unwrap();
            let f = par_algo::main_algorithm_sharded(&inst);
            let f = TenantReport {
                selected: f.best.selected,
                score: f.best.score,
                cost: f.best.cost,
                winner: f.winner,
            };
            fresh.extend([f.clone(), f]);
            let twin = packed_twin(&t, &representation);
            mixed.extend([t, twin]);
        }
        let mut scratch = SolveScratch::default();
        let dirty: Vec<TenantOutcome> = mixed
            .iter()
            .map(|t| engine.solve_tenant(t, &mut scratch))
            .collect();
        for outcomes in [dirty, engine.run(&mixed)] {
            for (o, f) in outcomes.iter().zip(&fresh) {
                assert_same(o.result.as_ref().expect("fleet tenant solves"), f);
            }
        }
    }

    #[test]
    fn mixed_batch_packed_tenants_match_their_library_twins() {
        let representation = RepresentationConfig::default();
        let mut mixed = Vec::new();
        for t in small_fleet() {
            let twin = packed_twin(&t, &representation);
            mixed.extend([t, twin]);
        }
        let victim = 4; // a library tenant: even positions are libraries
        starve(&mut mixed[victim]);
        let outcomes = FleetEngine::default().run(&mixed);
        assert_eq!(outcomes.len(), mixed.len());
        for (i, (t, o)) in mixed.iter().zip(&outcomes).enumerate() {
            assert_eq!(t.name(), o.name, "outcome {i} out of input order");
            assert_eq!(t.num_photos(), o.photos);
            assert_eq!(o.result.is_err(), i == victim, "tenant {i}");
        }
        for (i, pair) in outcomes.chunks(2).enumerate() {
            if 2 * i == victim {
                continue;
            }
            let (lib, packed) = (&pair[0], &pair[1]);
            assert!(matches!(mixed[2 * i + 1], FleetTenant::Packed { .. }));
            assert_same(
                packed.result.as_ref().expect("packed tenant solves"),
                lib.result.as_ref().expect("library tenant solves"),
            );
        }
    }

    #[test]
    fn batch_matches_solo_solves() {
        let tenants = small_fleet();
        let outcomes = FleetEngine::default().run(&tenants);
        for (t, o) in tenants.iter().zip(&outcomes) {
            let (universe, budget) = library(t);
            let solo = crate::Phocus::default()
                .solve(universe, budget)
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
        let victim = 2;
        starve(&mut tenants[victim]);
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
            let prev = par_exec::Parallelism::with_threads(threads).install_global();
            let outcomes = FleetEngine::default().run(&tenants);
            prev.install_global();
            outcomes
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
