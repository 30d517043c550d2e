//! What the four workloads hand the `phocus` binary, and the defaults the
//! binary applies to them, restated so `reference` and `trace` see exactly
//! the instances the verb sees.

use par_algo::{GreedyOutcome, GreedyRule};
use par_datasets::Universe;
use phocus::{RepresentationConfig, Sparsification};
use std::path::Path;

/// The benchmark's workloads (one `phocus` verb each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `phocus solve` on a P10K universe text at C(P)/5.
    SolveP10k,
    /// `phocus serve-batch --catalog` over a generated fleet.
    ServeCatalog,
    /// `phocus epochs --trace` over a P10K universe and a churn trace.
    EpochsP10k,
    /// `phocus compress` on a P5K universe text at C(P)/5.
    CompressP5k,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Self, String> {
        Ok(match name {
            "solve-p10k" => Workload::SolveP10k,
            "serve-catalog" => Workload::ServeCatalog,
            "epochs-p10k" => Workload::EpochsP10k,
            "compress-p5k" => Workload::CompressP5k,
            other => return Err(format!("unknown workload `{other}`")),
        })
    }
}

/// Universe text file (solve, epochs, compress).
pub const UNIVERSE: &str = "universe.txt";
/// `--budget-mb` value, as the string passed on the command line.
pub const BUDGET_MB: &str = "budget_mb";
/// Churn trace file (epochs).
pub const TRACE: &str = "trace.txt";
/// Tenant list file (serve-catalog); the tenant texts live in `tenants/`.
pub const TENANT_LIST: &str = "tenants.list";
/// Catalog directory built by `phocus catalog build` during set-up.
pub const CATALOG: &str = "catalog";
/// `catalog build --budget-frac` value (serve-catalog).
pub const BUDGET_FRAC: &str = "budget_frac";
/// Every tenant is budgeted at C(P)/5, like the other workloads.
pub const CATALOG_BUDGET_FRAC: &str = "0.2";

/// The representation every verb uses when no representation flag is
/// given (`repr_from_flags` in the binary): LSH at τ = 0.6, recall 0.95,
/// hashing seed 42. `compress` instead uses `RepresentationConfig::default()`.
pub fn cli_representation() -> RepresentationConfig {
    RepresentationConfig {
        sparsification: Sparsification::Lsh {
            tau: 0.6,
            target_recall: 0.95,
            seed: 42,
        },
        ..Default::default()
    }
}

/// The LSH threshold of [`cli_representation`] (the certificate's τ).
pub const CLI_TAU: f64 = 0.6;

/// Budget in bytes exactly as the binary derives it from `--budget-mb`.
pub fn cli_budget(budget_mb: &str) -> Result<u64, String> {
    let mb: f64 = budget_mb
        .trim()
        .parse()
        .map_err(|_| format!("bad budget {budget_mb:?}"))?;
    // The binary's own conversion: `(budget_mb * 1e6) as u64`.
    Ok((mb * 1e6) as u64)
}

/// The `--budget-mb` string for a budget of C(P)/5.
pub fn budget_mb_for(universe: &Universe) -> String {
    format!("{}", (universe.total_cost() / 5) as f64 / 1e6)
}

/// Algorithm 1's choice between the two CELF runs (`pick_winner` in
/// `par-algo`): unit-cost wins only when strictly better.
pub fn pick_winner(uc: GreedyOutcome, cb: GreedyOutcome) -> (GreedyRule, GreedyOutcome) {
    if uc.score > cb.score {
        (GreedyRule::UnitCost, uc)
    } else {
        (GreedyRule::CostBenefit, cb)
    }
}

pub fn read_text(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn parse_universe(text: &str) -> Result<Universe, String> {
    par_datasets::from_text(text).map_err(|e| e.to_string())
}

/// Σ_q W(q): the objective's maximum, reached when every photo is kept.
pub fn max_score(universe: &Universe) -> f64 {
    universe.subsets.iter().map(|s| s.weight).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_conversion_matches_the_binary() {
        assert_eq!(cli_budget("99.3").unwrap(), (99.3f64 * 1e6) as u64);
        assert_eq!(cli_budget(" 1 ").unwrap(), 1_000_000);
        assert!(cli_budget("x").is_err());
    }

    #[test]
    fn max_score_sums_subset_weights() {
        let text = "# phocus-universe v1\nname\tt\n\
                    photo\t0\t10\ta\nphoto\t1\t20\tb\nphoto\t2\t30\tc\n\
                    embedding\t0\t1\t0\nembedding\t1\t0\t1\nembedding\t2\t1\t1\n\
                    subset\tx\t2.5\t0:1\t1:0.5\n\
                    subset\ty\t4\t2:1\n\
                    subset\tz\t0.25\t0:0.5\t2:1\n";
        let u = parse_universe(text).unwrap();
        assert_eq!(max_score(&u), 2.5 + 4.0 + 0.25);
        // The repository's own instance maximum agrees once represented.
        let inst = phocus::represent(&u, 60, &RepresentationConfig::default()).unwrap();
        assert_eq!(max_score(&u), inst.max_score());
    }
}
