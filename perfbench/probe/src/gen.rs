//! Input generation. Every byte written here is a pure function of the
//! workload and `--seed`; `run.py` hashes these files.

use crate::verb::{self, Workload};
use par_datasets::{
    generate_churn, generate_fleet, generate_openimages, ChurnConfig, FleetConfig, PublicScale,
};
use std::path::Path;

/// Photos in the serve-catalog fleet: tenants (default 24–1500-photo Zipf
/// sizes) are added until the fleet holds at least this many, 200 to 300
/// of them. A fixed volume rather than a fixed tenant count keeps the batch's
/// size, and so its memory and time, from swinging with the seed's tail.
pub const FLEET_PHOTOS: usize = 64_000;
/// Epochs in the epochs-p10k churn trace (plus the opening solve).
pub const EPOCHS: usize = 20;
/// Total membership turnover per epoch (`phocus epochs --churn`).
pub const CHURN: f64 = 0.01;

pub fn generate(workload: Workload, seed: u64, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    match workload {
        Workload::SolveP10k => write_universe(PublicScale::P10K, seed, dir).map(drop),
        Workload::CompressP5k => write_universe(PublicScale::P5K, seed, dir).map(drop),
        Workload::EpochsP10k => {
            let (text, budget_mb) = write_universe(PublicScale::P10K, seed, dir)?;
            write_trace(&text, &budget_mb, seed, dir)
        }
        Workload::ServeCatalog => write_fleet(seed, dir),
    }
}

/// Writes the universe text and its C(P)/5 `--budget-mb`; returns both.
fn write_universe(scale: PublicScale, seed: u64, dir: &Path) -> Result<(String, String), String> {
    let universe = generate_openimages(&scale.config(seed));
    let text = par_datasets::to_text(&universe);
    let budget_mb = verb::budget_mb_for(&universe);
    verb::write(&dir.join(verb::UNIVERSE), text.as_bytes())?;
    verb::write(&dir.join(verb::BUDGET_MB), budget_mb.as_bytes())?;
    Ok((text, budget_mb))
}

/// The churn trace `phocus epochs --epochs N --churn F` would generate on
/// the fly from the instance the verb builds out of the text, except that
/// the budget stays at C(P)/5: the binary's generator also walks the budget
/// by up to ±5% per epoch, a random walk that moves it so far that runs
/// at different seeds would no longer be comparable.
fn write_trace(text: &str, budget_mb: &str, seed: u64, dir: &Path) -> Result<(), String> {
    let universe = verb::parse_universe(text)?;
    let inst = phocus::represent(
        &universe,
        verb::cli_budget(budget_mb)?,
        &verb::cli_representation(),
    )
    .map_err(|e| e.to_string())?;
    let n = inst.num_photos() as f64;
    let trace = generate_churn(
        &inst,
        &ChurnConfig {
            epochs: EPOCHS,
            removal_fraction: CHURN / 2.0,
            arrivals_mean: (CHURN * n / 2.0).max(1.0),
            drift_mean: 1.0,
            seed,
            ..Default::default()
        },
    )
    .map_err(|e| e.to_string())?;
    verb::write(
        &dir.join(verb::TRACE),
        par_datasets::trace_to_text(&trace).as_bytes(),
    )
}

/// One universe text per tenant under `tenants/`, the tenant list (paths
/// relative to `dir`, where the verbs run) and the `--budget-frac`.
///
/// A small library whose policy-required photos alone exceed C(P)/5 cannot
/// be archived at that budget (`catalog build` rejects it), so the fleet
/// takes feasible libraries, in generation order, until it holds
/// [`FLEET_PHOTOS`]. Each library depends only on the seed and its index,
/// never on how many are generated.
fn write_fleet(seed: u64, dir: &Path) -> Result<(), String> {
    let tenants = dir.join("tenants");
    std::fs::create_dir_all(&tenants).map_err(|e| format!("{}: {e}", tenants.display()))?;
    let frac: f64 = verb::CATALOG_BUDGET_FRAC
        .parse()
        .map_err(|_| "bad budget fraction")?;
    let feasible = |u: &par_datasets::Universe| {
        let required: u64 = u.required.iter().map(|&p| u.costs[p as usize]).sum();
        // The binary's budget: `((total_cost as f64 * frac) as u64).max(1)`.
        required <= ((u.total_cost() as f64 * frac) as u64).max(1)
    };
    let mut generated = 256;
    let fleet = loop {
        let (mut fleet, mut photos) = (Vec::new(), 0);
        let cfg = FleetConfig {
            tenants: generated,
            seed,
            ..Default::default()
        };
        for universe in generate_fleet(&cfg).into_iter().filter(feasible) {
            if photos >= FLEET_PHOTOS {
                break;
            }
            photos += universe.num_photos();
            fleet.push(universe);
        }
        if photos >= FLEET_PHOTOS {
            break fleet;
        }
        generated *= 2;
    };
    verb::write(
        &dir.join(verb::BUDGET_FRAC),
        verb::CATALOG_BUDGET_FRAC.as_bytes(),
    )?;
    let mut list = String::new();
    for (t, universe) in fleet.iter().enumerate() {
        let rel = format!("tenants/t{t:05}.txt");
        verb::write(&dir.join(&rel), par_datasets::to_text(universe).as_bytes())?;
        list.push_str(&rel);
        list.push('\n');
    }
    verb::write(&dir.join(verb::TENANT_LIST), list.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::path::PathBuf;

    /// Every file under `dir`, by path relative to it.
    fn contents(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
        let mut out = BTreeMap::new();
        let mut stack = vec![dir.to_path_buf()];
        while let Some(d) = stack.pop() {
            for entry in std::fs::read_dir(&d).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    stack.push(path);
                } else {
                    let rel = path.strip_prefix(dir).unwrap().to_path_buf();
                    out.insert(rel, std::fs::read(&path).unwrap());
                }
            }
        }
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let root = std::env::temp_dir().join(format!("perfprobe-gen-{}", std::process::id()));
        for name in ["solve-p10k", "serve-catalog", "epochs-p10k", "compress-p5k"] {
            let workload = Workload::parse(name).unwrap();
            let run = |seed: u64, tag: &str| {
                let dir = root.join(format!("{name}-{tag}"));
                generate(workload, seed, &dir).unwrap();
                contents(&dir)
            };
            let first = run(3, "a");
            assert!(!first.is_empty(), "{name} generated nothing");
            assert_eq!(first, run(3, "b"), "{name}: same seed, different inputs");
            assert_ne!(
                first,
                run(4, "c"),
                "{name}: a new seed must change the inputs"
            );
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}
