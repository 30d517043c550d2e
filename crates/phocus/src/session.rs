//! Epoch-resident archive sessions.
//!
//! A photo archive is not solved once: photos arrive and leave, query logs
//! drift, budgets change. [`ArchiveSession`] keeps a represented instance
//! *and* the warm solver state of [`par_algo::IncrementalSolver`] resident
//! across epochs, so each epoch costs a dirty-component re-solve plus cheap
//! transcript replay for the untouched components — while staying
//! bit-identical to a from-scratch solve of the post-delta instance.
//!
//! ```
//! use par_core::fixtures::{figure1_instance, MB};
//! use par_core::EpochDelta;
//! use phocus::ArchiveSession;
//!
//! let mut session = ArchiveSession::new(figure1_instance(4 * MB));
//! let first = session.resolve();
//! assert_eq!(first.epoch, 0);
//!
//! // A budget cut arrives; the chainable form applies and re-solves.
//! let delta = EpochDelta {
//!     set_budget: Some(3 * MB),
//!     ..EpochDelta::default()
//! };
//! let second = session.apply_delta(&delta).unwrap().resolve();
//! assert_eq!(second.epoch, 1);
//! assert!(second.outcome.best.cost <= 3 * MB);
//! ```
//!
//! Failure isolation mirrors `phocus serve-batch`: a delta that does not
//! apply (unknown id, budget below the required set, …) is rejected
//! atomically — the session keeps its instance, labels, and stream caches,
//! and the next delta applies against the unchanged state.

use crate::error::Result;
use par_algo::{DeltaStats, EpochReport, IncrementalSolver, MainOutcome};
use par_core::{EpochDelta, Instance};

/// One epoch's solve: the Algorithm 1 outcome plus the incremental-solver
/// instrumentation for this epoch.
#[derive(Debug, Clone)]
pub struct EpochSolve {
    /// 0-based epoch index (0 = the initial solve).
    pub epoch: usize,
    /// The Algorithm 1 outcome — bit-identical to a from-scratch sharded
    /// solve of the current instance.
    pub outcome: MainOutcome,
    /// Replay/live stream counts and gain-evaluation work for this epoch.
    pub report: EpochReport,
}

/// A resident archive session: a live instance plus warm per-component
/// solver state, advanced epoch by epoch via [`EpochDelta`]s.
#[derive(Debug, Clone)]
pub struct ArchiveSession {
    solver: IncrementalSolver,
    epoch: usize,
    last_delta: Option<DeltaStats>,
}

impl ArchiveSession {
    /// Opens a session on a represented instance. No solve happens yet;
    /// call [`resolve`](Self::resolve) for the initial solution.
    pub fn new(inst: Instance) -> Self {
        ArchiveSession {
            solver: IncrementalSolver::new(inst),
            epoch: 0,
            last_delta: None,
        }
    }

    /// The live (post-all-applied-deltas) instance.
    pub fn instance(&self) -> &Instance {
        self.solver.instance()
    }

    /// 0-based index of the epoch the *next* [`resolve`](Self::resolve)
    /// will report.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Dirty-marking statistics of the most recent successful delta, if any.
    pub fn last_delta_stats(&self) -> Option<DeltaStats> {
        self.last_delta
    }

    /// Applies one epoch's changes. Returns `&mut self` so a delta and its
    /// re-solve chain naturally: `session.apply_delta(&d)?.resolve()`.
    ///
    /// On error the session is untouched — same instance, same warm caches —
    /// so callers can isolate a bad epoch and continue with the next one.
    pub fn apply_delta(&mut self, delta: &EpochDelta) -> Result<&mut Self> {
        let stats = self.solver.apply_delta(delta)?;
        self.last_delta = Some(stats);
        Ok(self)
    }

    /// Re-solves the current instance, replaying cached component streams
    /// where the last deltas left them clean. Advances the epoch counter.
    pub fn resolve(&mut self) -> EpochSolve {
        let outcome = self.solver.resolve();
        let report = *self.solver.last_report();
        let epoch = self.epoch;
        self.epoch += 1;
        EpochSolve {
            epoch,
            outcome,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use par_algo::main_algorithm_sharded;
    use par_core::fixtures::{random_instance, RandomInstanceConfig};
    use par_core::PhotoId;
    use par_datasets::{generate_churn, resolve_epoch, ChurnConfig};

    fn base(seed: u64) -> Instance {
        random_instance(
            seed,
            &RandomInstanceConfig {
                photos: 50,
                subsets: 16,
                subset_size: (2, 6),
                cost_range: (100, 900),
                budget_fraction: 0.5,
                required_prob: 0.05,
            },
        )
    }

    #[test]
    fn churn_trace_replay_matches_from_scratch() {
        let inst = base(21);
        let trace = generate_churn(
            &inst,
            &ChurnConfig {
                epochs: 6,
                removal_fraction: 0.04,
                arrivals_mean: 2.0,
                budget_wobble: 0.1,
                ..ChurnConfig::default()
            },
        )
        .unwrap();
        let mut session = ArchiveSession::new(inst);
        let first = session.resolve();
        assert_eq!(first.epoch, 0);
        for ops in &trace.epochs {
            let delta = resolve_epoch(ops, session.instance()).unwrap();
            let solve = session.apply_delta(&delta).unwrap().resolve();
            let scratch = main_algorithm_sharded(session.instance());
            assert_eq!(solve.outcome.best.selected, scratch.best.selected);
            assert_eq!(
                solve.outcome.best.score.to_bits(),
                scratch.best.score.to_bits()
            );
            assert_eq!(solve.outcome.winner, scratch.winner);
        }
        assert_eq!(session.epoch(), trace.epochs.len() + 1);
    }

    #[test]
    fn failed_delta_leaves_session_resident() {
        let mut session = ArchiveSession::new(base(33));
        session.resolve();
        let replayed_before = {
            let again = session.resolve();
            again.report.replayed_streams
        };
        let bad = EpochDelta {
            remove_photos: vec![PhotoId(10_000)],
            ..EpochDelta::default()
        };
        assert!(session.apply_delta(&bad).is_err());
        assert!(session.last_delta_stats().is_none());
        // The warm caches survived the rejected delta: everything replays.
        let after = session.resolve();
        assert_eq!(after.report.live_streams, 0);
        assert_eq!(after.report.replayed_streams, replayed_before);
    }
}
