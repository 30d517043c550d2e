//! Oracle answers for the output checks. Each decision the verb makes gets
//! one record: its budget, `S₀`, photo costs, the reference selection and
//! score, the objective maximum Σ_q W(q), and the online bound of the
//! reference selection. `run.py` compares the verb's output against it.

use crate::json::{array, Obj};
use crate::verb::{self, Workload};
use par_algo::{main_algorithm, main_algorithm_sharded, online_bound};
use par_core::{Instance, PhotoId};
use phocus::{ActionLadder, Catalog, RepresentationConfig};
use std::path::Path;

pub fn reference(workload: Workload, dir: &Path) -> Result<String, String> {
    let decisions = match workload {
        Workload::SolveP10k => solve(dir)?,
        Workload::ServeCatalog => serve(dir)?,
        Workload::EpochsP10k => epochs(dir)?,
        Workload::CompressP5k => compress(dir)?,
    };
    Ok(Obj::new().raw("decisions", array(decisions)).end())
}

fn ids(selected: &[PhotoId]) -> impl Iterator<Item = u64> + '_ {
    selected.iter().map(|p| u64::from(p.0))
}

/// The fields every decision record carries.
fn record(id: &str, inst: &Instance, selected: &[PhotoId], score: f64, max: f64) -> Obj {
    let bound = online_bound(inst, selected);
    let cost: u64 = selected.iter().map(|&p| inst.cost(p)).sum();
    Obj::new()
        .str("id", id)
        .int("budget", inst.budget())
        .ints("required", ids(inst.required()))
        .ints("selected", ids(selected))
        .num("score", score)
        .bits("score_bits", score)
        .int("cost", cost)
        .num("max", max)
        .num("bound_score", bound.score)
        .num("ub", bound.upper_bound)
}

fn costs(inst: &Instance) -> impl Iterator<Item = u64> + '_ {
    inst.photos().iter().map(|p| p.cost)
}

fn load(dir: &Path) -> Result<(par_datasets::Universe, u64), String> {
    let universe = verb::parse_universe(&verb::read_text(&dir.join(verb::UNIVERSE))?)?;
    let budget = verb::cli_budget(&verb::read_text(&dir.join(verb::BUDGET_MB))?)?;
    Ok((universe, budget))
}

fn solve(dir: &Path) -> Result<Vec<String>, String> {
    let (universe, budget) = load(dir)?;
    let inst = phocus::represent(&universe, budget, &verb::cli_representation())
        .map_err(|e| e.to_string())?;
    let out = main_algorithm(&inst);
    let rec = record(
        "solve",
        &inst,
        &out.best.selected,
        out.best.score,
        verb::max_score(&universe),
    )
    .int("photos", inst.num_photos() as u64)
    .ints("costs", costs(&inst));
    Ok(vec![rec.end()])
}

fn serve(dir: &Path) -> Result<Vec<String>, String> {
    let catalog = Catalog::open(dir.join(verb::CATALOG)).map_err(|e| e.to_string())?;
    let list = verb::read_text(&dir.join(verb::TENANT_LIST))?;
    let paths: Vec<&str> = list.lines().filter(|l| !l.is_empty()).collect();
    if paths.len() != catalog.entries().len() {
        return Err(format!(
            "catalog holds {} tenants, the list {}",
            catalog.entries().len(),
            paths.len()
        ));
    }
    let mut out = Vec::with_capacity(paths.len());
    for (entry, path) in catalog.entries().iter().zip(paths) {
        let universe = verb::parse_universe(&verb::read_text(&dir.join(path))?)?;
        if universe.name != entry.name {
            return Err(format!("catalog entry {} is not tenant {path}", entry.name));
        }
        let inst = catalog.load(entry).map_err(|e| e.to_string())?.instance;
        let solved = main_algorithm(&inst);
        let rec = record(
            &entry.name,
            &inst,
            &solved.best.selected,
            solved.best.score,
            verb::max_score(&universe),
        )
        .int("photos", inst.num_photos() as u64)
        .ints("costs", costs(&inst));
        out.push(rec.end());
    }
    Ok(out)
}

/// Replays the trace from scratch: every epoch's instance is rebuilt with
/// `par_core::apply_delta` and solved by the sharded solver from cold.
fn epochs(dir: &Path) -> Result<Vec<String>, String> {
    let (universe, budget) = load(dir)?;
    let mut inst = phocus::represent(&universe, budget, &verb::cli_representation())
        .map_err(|e| e.to_string())?;
    let trace = par_datasets::trace_from_text(&verb::read_text(&dir.join(verb::TRACE))?)
        .map_err(|e| e.to_string())?;
    let mut out = Vec::with_capacity(trace.epochs.len() + 1);
    for k in 0..=trace.epochs.len() {
        if k > 0 {
            let delta = par_datasets::resolve_epoch(&trace.epochs[k - 1], &inst)
                .map_err(|e| e.to_string())?;
            inst = par_core::apply_delta(&inst, &delta)
                .map_err(|e| e.to_string())?
                .instance;
        }
        let solved = main_algorithm_sharded(&inst);
        let rec = record(
            &format!("epoch={k}"),
            &inst,
            &solved.best.selected,
            solved.best.score,
            inst.max_score(),
        )
        .int("photos", inst.num_photos() as u64);
        out.push(rec.end());
    }
    Ok(out)
}

/// The multi-action solve on the global (`--no-sharding`) solver, plus the
/// delete-only comparison line the verb also prints.
fn compress(dir: &Path) -> Result<Vec<String>, String> {
    let (universe, budget) = load(dir)?;
    let cfg = RepresentationConfig::default();
    let remove =
        phocus::solve_multi_action(&universe, budget, &ActionLadder::delete_only(), &cfg, false)
            .map_err(|e| e.to_string())?;
    let ma = phocus::solve_multi_action(&universe, budget, &ActionLadder::standard(), &cfg, false)
        .map_err(|e| e.to_string())?;
    let rec = record(
        "compress",
        &ma.instance,
        &ma.selected,
        ma.score,
        verb::max_score(&universe),
    )
    .int("photos", universe.num_photos() as u64)
    .ints("costs", costs(&ma.instance))
    .ints("parent", ma.map.parent.iter().map(|&p| u64::from(p)))
    .num("remove_only_score", remove.score);
    Ok(vec![rec.end()])
}
