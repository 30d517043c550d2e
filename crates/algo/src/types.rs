//! Common solver output and instrumentation types.

use par_core::PhotoId;

/// Instrumentation gathered during a solver run.
///
/// `gain_evals` is the quantity the paper's efficiency analysis counts
/// (Section 4.2: Ω(B·n⁴) for the Sviridenko scheme vs `O(B·n)` for CELF,
/// with lazy evaluation shaving a further large constant factor), and
/// `sim_ops` is what τ-sparsification reduces. Every field is a
/// deterministic work counter, so two runs of one solve compare equal; wall
/// time is the caller's to measure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of marginal-gain evaluations performed.
    pub gain_evals: u64,
    /// Number of similarity lookups performed.
    pub sim_ops: u64,
    /// Number of priority-queue pops (CELF only).
    pub pq_pops: u64,
    /// Number of lazy accepts — pops whose cached bound was still the best
    /// after recomputation (CELF only).
    pub lazy_accepts: u64,
}

impl RunStats {
    /// Merges counters from another run (used by Algorithm 1 to aggregate
    /// its two sub-runs).
    pub fn merge(&self, other: &RunStats) -> RunStats {
        RunStats {
            gain_evals: self.gain_evals + other.gain_evals,
            sim_ops: self.sim_ops + other.sim_ops,
            pq_pops: self.pq_pops + other.pq_pops,
            lazy_accepts: self.lazy_accepts + other.lazy_accepts,
        }
    }
}

/// The output of a greedy-style solver: the selected photo set (including the
/// policy-retained `S₀`), its score *under the instance it was selected on*,
/// its byte cost, and run instrumentation.
///
/// Note the score caveat: baselines select on simplified instance views; the
/// caller re-scores `selected` under the true instance (see
/// [`par_core::Solution`]).
#[derive(Debug, Clone)]
pub struct GreedyOutcome {
    /// Selected photos in selection order (S₀ first).
    pub selected: Vec<PhotoId>,
    /// Objective value on the selection instance.
    pub score: f64,
    /// Total cost in bytes.
    pub cost: u64,
    /// Instrumentation counters.
    pub stats: RunStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_adds_counters() {
        let a = RunStats {
            gain_evals: 10,
            sim_ops: 100,
            pq_pops: 5,
            lazy_accepts: 3,
        };
        let b = RunStats {
            gain_evals: 1,
            sim_ops: 2,
            pq_pops: 3,
            lazy_accepts: 4,
        };
        let m = a.merge(&b);
        assert_eq!(m.gain_evals, 11);
        assert_eq!(m.sim_ops, 102);
        assert_eq!(m.pq_pops, 8);
        assert_eq!(m.lazy_accepts, 7);
    }
}
