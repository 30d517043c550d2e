//! The traced run: one verb invocation's call sequence, replayed through the
//! workspace crates' public functions inside this process, with one span per
//! layer call and the deterministic counters those calls return.
//!
//! Each `traced_*` function mirrors its `cmd_*` in `crates/phocus/src/bin/
//! phocus.rs` call for call — including where the binary installs and
//! restores `--threads 1` and what it prints — so the spans plus the
//! unattributed remainder account for the untraced verb's wall time. Spans
//! live in memory until the run ends; nothing is written while timing.
//! Spans named `probe.*` are reference work the verb itself never does
//! (the from-scratch solves behind `incremental.vs_scratch`); `run.py`
//! leaves them out of the attribution.

use crate::json::{array, number, string, Obj};
use crate::verb::{self, Workload};
use par_algo::{
    main_algorithm_sharded, online_bound, GreedyOutcome, GreedyRule, RunStats, ShardedSolver,
    SolveScratch,
};
use par_core::{Instance, PhotoId};
use phocus::{
    render_report, ActionLadder, ArchiveSession, Catalog, Parallelism, PhocusReport,
    RepresentationConfig,
};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{LineWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Decision id of spans that belong to no single decision.
const NONE: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    decision: u32,
}

/// In-memory span recorder plus counters and the run's decisions.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
    decisions: Vec<String>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(4096),
            open: Vec::new(),
            counters: BTreeMap::new(),
            decisions: Vec::new(),
        }
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    fn span<T>(
        &mut self,
        name: &'static str,
        decision: u32,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start: self.t0.elapsed(),
            end: Duration::ZERO,
            parent,
            decision,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.t0.elapsed();
        out
    }

    /// Duration of the most recent finished span called `name`.
    fn last(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(Duration::ZERO, |s| s.end.saturating_sub(s.start))
    }

    fn add(&mut self, counter: &'static str, value: f64) {
        *self.counters.entry(counter).or_insert(0.0) += value;
    }

    fn add_stats(&mut self, stats: &RunStats) {
        self.add("celf.gain_evals", stats.gain_evals as f64);
        self.add("celf.sim_ops", stats.sim_ops as f64);
        self.add("celf.pq_pops", stats.pq_pops as f64);
        self.add("celf.lazy_accepts", stats.lazy_accepts as f64);
    }

    fn decision(&mut self, id: &str, selected: &[PhotoId], score: f64) {
        let rec = Obj::new()
            .str("id", id)
            .ints("selected", selected.iter().map(|p| u64::from(p.0)))
            .num("score", score)
            .bits("score_bits", score);
        self.decisions.push(rec.end());
    }

    fn finish(self) -> String {
        let ns = |d: Duration| d.as_nanos().to_string();
        let spans = self.spans.iter().map(|s| {
            let parent = s.parent.map_or("-1".to_string(), |p| p.to_string());
            let decision = if s.decision == NONE {
                "-1".to_string()
            } else {
                s.decision.to_string()
            };
            array([string(s.name), ns(s.start), ns(s.end), parent, decision])
        });
        let counters = self
            .counters
            .iter()
            .fold(Obj::new(), |o, (k, v)| o.raw(k, number(*v)))
            .end();
        Obj::new()
            .raw("spans", array(spans))
            .raw("counters", counters)
            .raw("decisions", array(self.decisions))
            .end()
    }
}

pub fn traced_run(workload: Workload, dir: &Path) -> Result<String, String> {
    let mut tr = Tracer::new();
    match workload {
        Workload::SolveP10k => traced_solve(&mut tr, dir)?,
        Workload::ServeCatalog => traced_serve(&mut tr, dir)?,
        Workload::EpochsP10k => traced_epochs(&mut tr, dir)?,
        Workload::CompressP5k => traced_compress(&mut tr, dir)?,
    }
    Ok(tr.finish())
}

/// Where the traced run writes what the verb writes to standard output.
fn stdout_sink(dir: &Path) -> Result<LineWriter<File>, String> {
    let path = dir.join("traced.stdout");
    File::create(&path)
        .map(LineWriter::new)
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn emit(out: &mut impl Write, text: &str) -> Result<(), String> {
    out.write_all(text.as_bytes()).map_err(|e| e.to_string())
}

/// `load_dataset("file:…")`: read and parse a universe text.
fn parse_universe(tr: &mut Tracer, dir: &Path) -> Result<par_datasets::Universe, String> {
    tr.span("datasets.parse", NONE, |tr| {
        let text = verb::read_text(&dir.join(verb::UNIVERSE))?;
        tr.add("datasets.bytes", text.len() as f64);
        verb::parse_universe(&text)
    })
}

fn represent(
    tr: &mut Tracer,
    decision: u32,
    universe: &par_datasets::Universe,
    budget: u64,
    cfg: &RepresentationConfig,
) -> Result<Instance, String> {
    let inst = tr.span("representation.represent", decision, |_| {
        phocus::represent(universe, budget, cfg).map_err(|e| e.to_string())
    })?;
    tr.add("representation.stored_pairs", inst.stored_pairs() as f64);
    tr.add("representation.photos", inst.num_photos() as f64);
    Ok(inst)
}

fn count_shards(tr: &mut Tracer, solver: &ShardedSolver<'_>) {
    let dec = solver.decomposition();
    tr.add("sharded.components", dec.num_shards() as f64);
    let largest = dec.shards.iter().map(|s| s.photos.len()).max().unwrap_or(0) as f64;
    let entry = tr
        .counters
        .entry("sharded.largest_component")
        .or_insert(0.0);
    *entry = entry.max(largest);
}

/// `main_algorithm_sharded`: prepare, then the UC and CB CELF runs.
fn sharded_main(
    tr: &mut Tracer,
    decision: u32,
    inst: &Instance,
) -> (GreedyRule, GreedyOutcome, RunStats) {
    let solver = tr.span("sharded.prepare", decision, |_| ShardedSolver::new(inst));
    count_shards(tr, &solver);
    let uc = tr.span("sharded.solve", decision, |_| {
        solver.solve(GreedyRule::UnitCost)
    });
    let cb = tr.span("sharded.solve", decision, |_| {
        solver.solve(GreedyRule::CostBenefit)
    });
    let stats = uc.stats.merge(&cb.stats);
    tr.add_stats(&stats);
    let (rule, best) = verb::pick_winner(uc, cb);
    (rule, best, stats)
}

/// `cmd_solve`: `Phocus::solve` (represent, solve, certify under
/// `--threads 1`), then the report's second `represent` at the process
/// default thread count, the report, and the `--out` file.
fn traced_solve(tr: &mut Tracer, dir: &Path) -> Result<(), String> {
    let mut stdout = stdout_sink(dir)?;
    let universe = parse_universe(tr, dir)?;
    let budget = verb::cli_budget(&verb::read_text(&dir.join(verb::BUDGET_MB))?)?;
    let cfg = verb::cli_representation();
    emit(
        &mut stdout,
        &format!(
            "dataset {} — {} photos, {} subsets, archive {:.1} MB\n",
            universe.name,
            universe.num_photos(),
            universe.num_subsets(),
            universe.total_cost() as f64 / 1e6
        ),
    )?;
    let prev = Parallelism::with_threads(1).install_global();
    let inst = represent(tr, 0, &universe, budget, &cfg)?;
    let (winner, best, stats) = sharded_main(tr, 0, &inst);
    let online = tr.span("certify.online_bound", 0, |_| {
        online_bound(&inst, &best.selected)
    });
    let sparsification = tr.span("certify.sparsification", 0, |_| {
        par_sparse::sparsification_bound(&inst, verb::CLI_TAU)
    });
    prev.install_global();
    tr.decision("solve", &best.selected, best.score);
    let report = PhocusReport {
        selected: best.selected,
        score: best.score,
        cost: best.cost,
        winner,
        stats,
        online,
        sparsification: Some(sparsification),
        stored_pairs: inst.stored_pairs(),
        represent_time: tr.last("representation.represent"),
        solve_time: Duration::ZERO,
        threads: 1,
    };
    drop(inst);
    tr.span("report.render", 0, |tr| {
        let inst = tr.span("representation.represent", 0, |_| {
            phocus::represent(&universe, budget, &cfg).map_err(|e| e.to_string())
        })?;
        emit(&mut stdout, &render_report(&inst, &report))?;
        let mut text = String::new();
        for &p in &report.selected {
            let photo = inst.photo(p);
            text.push_str(&format!("{}\t{}\t{}\n", p.0, photo.cost, photo.name));
        }
        verb::write(&dir.join("traced.tsv"), text.as_bytes())?;
        emit(&mut stdout, "wrote retained set to traced.tsv\n")
    })
}

/// `serve_batch_catalog`: open the catalog, load every pack, then the fleet
/// engine's `run_packed` at one thread — largest tenant first, one reused
/// `SolveScratch`, `main_algorithm_packed` per tenant — and the report.
fn traced_serve(tr: &mut Tracer, dir: &Path) -> Result<(), String> {
    let mut stdout = stdout_sink(dir)?;
    let sols = dir.join("traced-sols");
    std::fs::create_dir_all(&sols).map_err(|e| format!("{}: {e}", sols.display()))?;
    let catalog = tr
        .span("catalog.open", NONE, |_| {
            Catalog::open(dir.join(verb::CATALOG))
        })
        .map_err(|e| e.to_string())?;
    let mut tenants = Vec::with_capacity(catalog.entries().len());
    for (i, entry) in catalog.entries().iter().enumerate() {
        let packed = tr
            .span("pack.load", i as u32, |_| catalog.load(entry))
            .map_err(|e| e.to_string())?;
        let bytes = std::fs::metadata(catalog.root().join(&entry.pack)).map_or(0, |m| m.len());
        tr.add("pack.bytes", bytes as f64);
        tr.add("pack.photos", packed.instance.num_photos() as f64);
        tr.add(
            "representation.stored_pairs",
            packed.instance.stored_pairs() as f64,
        );
        tr.add("representation.photos", packed.instance.num_photos() as f64);
        tenants.push(packed);
    }
    let prev = Parallelism::with_threads(1).install_global();
    let mut order: Vec<usize> = (0..tenants.len()).collect();
    order.sort_by(|&a, &b| {
        tenants[b]
            .instance
            .num_photos()
            .cmp(&tenants[a].instance.num_photos())
            .then(a.cmp(&b))
    });
    let mut solved: Vec<Option<(GreedyOutcome, Duration)>> = vec![None; tenants.len()];
    tr.span("fleet.batch", NONE, |tr| {
        let mut scratch = SolveScratch::default();
        for &i in &order {
            let d = i as u32;
            let packed = &tenants[i];
            let best = tr.span("fleet.tenant", d, |tr| {
                let inst = &packed.instance;
                let solver = tr.span("sharded.prepare", d, |_| {
                    ShardedSolver::new_in_with_labels(inst, packed.labels.clone(), &mut scratch)
                });
                count_shards(tr, &solver);
                let uc = tr.span("sharded.solve", d, |_| {
                    solver.solve_scratch(GreedyRule::UnitCost, &mut scratch)
                });
                let cb = tr.span("sharded.solve", d, |_| {
                    solver.solve_scratch(GreedyRule::CostBenefit, &mut scratch)
                });
                solver.recycle(&mut scratch);
                tr.add_stats(&uc.stats.merge(&cb.stats));
                verb::pick_winner(uc, cb).1
            });
            solved[i] = Some((best, tr.last("fleet.tenant")));
        }
    });
    prev.install_global();
    tr.span("report.render", NONE, |tr| {
        for (i, (entry, slot)) in catalog.entries().iter().zip(&solved).enumerate() {
            let Some((best, latency)) = slot else {
                return Err(format!("tenant {} was not solved", entry.name));
            };
            tr.decision(&entry.name, &best.selected, best.score);
            emit(
                &mut stdout,
                &format!(
                    "ok\t{}\tphotos={}\tretained={}\tcost_mb={:.2}\tscore={:.3}\tms={:.1}\n",
                    entry.name,
                    tenants[i].instance.num_photos(),
                    best.selected.len(),
                    best.cost as f64 / 1e6,
                    best.score,
                    latency.as_secs_f64() * 1e3
                ),
            )?;
            let mut text = String::new();
            for &p in &best.selected {
                text.push_str(&format!("{}\n", p.0));
            }
            let file = sols.join(format!(
                "{i:05}_{}.tsv",
                entry.name.replace(['/', '\\'], "_")
            ));
            verb::write(&file, text.as_bytes())?;
        }
        emit(&mut stdout, &format!("batch\ttenants={}\n", tenants.len()))
    })
}

/// `cmd_epochs` with `--trace`: parse and represent at the process default
/// thread count, parse the trace, then `run_epochs` under `--threads 1`.
fn traced_epochs(tr: &mut Tracer, dir: &Path) -> Result<(), String> {
    let mut stdout = stdout_sink(dir)?;
    let universe = parse_universe(tr, dir)?;
    let budget = verb::cli_budget(&verb::read_text(&dir.join(verb::BUDGET_MB))?)?;
    let cfg = verb::cli_representation();
    let inst = represent(tr, NONE, &universe, budget, &cfg)?;
    let trace = tr.span("datasets.parse", NONE, |tr| {
        let text = verb::read_text(&dir.join(verb::TRACE))?;
        tr.add("datasets.bytes", text.len() as f64);
        par_datasets::trace_from_text(&text).map_err(|e| e.to_string())
    })?;
    {
        let dec = par_core::decompose(&inst);
        tr.add("sharded.components", dec.num_shards() as f64);
        let largest = dec.shards.iter().map(|s| s.photos.len()).max().unwrap_or(0);
        tr.add("sharded.largest_component", largest as f64);
    }
    let prev = Parallelism::with_threads(1).install_global();
    let mut session = tr.span("session.open", NONE, |_| ArchiveSession::new(inst));
    let result = (0..=trace.epochs.len()).try_for_each(|k| {
        let d = k as u32;
        tr.span("session.epoch", d, |tr| {
            let solve = if k == 0 {
                tr.span("session.resolve", d, |_| session.resolve())
            } else {
                let delta = tr.span("datasets.resolve_epoch", d, |_| {
                    par_datasets::resolve_epoch(&trace.epochs[k - 1], session.instance())
                })
                .map_err(|e| e.to_string())?;
                tr.span("session.apply_delta", d, |_| session.apply_delta(&delta).map(drop))
                    .map_err(|e| e.to_string())?;
                tr.span("session.resolve", d, |_| session.resolve())
            };
            tr.add_stats(&solve.outcome.total_stats());
            let dirty = match (k, session.last_delta_stats()) {
                (0, _) | (_, None) => "all".to_string(),
                (_, Some(s)) => {
                    tr.add("incremental.dirty_shards", s.dirty_shards as f64);
                    tr.add("incremental.shards", s.num_shards as f64);
                    tr.add("incremental.replayed", solve.report.replayed_streams as f64);
                    tr.add("incremental.live", solve.report.live_streams as f64);
                    tr.add("incremental.went_live", solve.report.went_live as f64);
                    format!("{}/{}", s.dirty_shards, s.num_shards)
                }
            };
            let best = &solve.outcome.best;
            tr.decision(&format!("epoch={k}"), &best.selected, best.score);
            // The binary's `ms` field: resolve the ops, apply, resolve.
            let mut took = tr.last("session.resolve");
            if k > 0 {
                took += tr.last("datasets.resolve_epoch") + tr.last("session.apply_delta");
            }
            let ms = took.as_secs_f64() * 1e3;
            tr.span("report.render", d, |_| {
                emit(
                    &mut stdout,
                    &format!(
                        "ok\tepoch={k}\tphotos={}\tdirty_shards={dirty}\treplayed={}\tlive={}\tretained={}\tcost_mb={:.2}\tscore={:.3}\tms={:.1}\n",
                        session.instance().num_photos(),
                        solve.report.replayed_streams,
                        solve.report.live_streams,
                        best.selected.len(),
                        best.cost as f64 / 1e6,
                        best.score,
                        ms,
                    ),
                )
            })?;
            Ok::<(), String>(())
        })
    });
    emit(
        &mut stdout,
        &format!("session\tepochs={}\n", trace.epochs.len() + 1),
    )?;
    prev.install_global();
    result?;
    // Reference work for `incremental.vs_scratch`: replay the trace again
    // from a fresh instance and solve every epoch from scratch. It runs
    // after the verb's sequence, and holds no instance during it, so it
    // cannot disturb the session.
    let mut inst = phocus::represent(&universe, budget, &cfg).map_err(|e| e.to_string())?;
    let prev = Parallelism::with_threads(1).install_global();
    for (k, ops) in trace.epochs.iter().enumerate() {
        let delta = par_datasets::resolve_epoch(ops, &inst).map_err(|e| e.to_string())?;
        inst = par_core::apply_delta(&inst, &delta)
            .map_err(|e| e.to_string())?
            .instance;
        tr.span("probe.scratch_solve", k as u32 + 1, |_| {
            main_algorithm_sharded(&inst)
        });
    }
    prev.install_global();
    Ok(())
}

/// `cmd_compress` (all of it under `--threads 1`): the delete-only solve,
/// then the multi-action solve — expand, represent with variants, sharded
/// CELF, prune-and-refill, ε-free scoring — and the report.
fn traced_compress(tr: &mut Tracer, dir: &Path) -> Result<(), String> {
    let prev = Parallelism::with_threads(1).install_global();
    let result = traced_compress_inner(tr, dir);
    prev.install_global();
    result
}

fn traced_compress_inner(tr: &mut Tracer, dir: &Path) -> Result<(), String> {
    let mut stdout = stdout_sink(dir)?;
    let ladder = ActionLadder::standard();
    let universe = parse_universe(tr, dir)?;
    let budget = verb::cli_budget(&verb::read_text(&dir.join(verb::BUDGET_MB))?)?;
    let cfg = RepresentationConfig::default();
    // Decision 1: the delete-only comparison (`solve_multi_action` with the
    // empty ladder is represent + the sharded main algorithm).
    let remove_score = tr.span("compression.delete_only", 1, |tr| {
        let inst = represent(tr, 1, &universe, budget, &cfg)?;
        let (_, best, _) = sharded_main(tr, 1, &inst);
        Ok::<f64, String>(best.score)
    })?;
    let (expanded, map) = tr.span("compression.expand", 0, |_| {
        phocus::expand_with_variants(&universe, &ladder)
    });
    tr.add("compression.expanded_photos", expanded.num_photos() as f64);
    let inst = tr.span("compression.represent", 0, |_| {
        phocus::represent_with_variants(&expanded, &map, &ladder, budget, &cfg)
            .map_err(|e| e.to_string())
    })?;
    let (_, best, _) = sharded_main(tr, 0, &inst);
    let repaired = tr.span("compression.refill", 0, |_| {
        phocus::prune_and_refill(&inst, &map, &ladder, &best.selected)
    });
    let (selected, score) = tr.span("compression.score", 0, |_| {
        let repaired_score = phocus::epsilon_free_score(&inst, &map, &repaired);
        let raw_score = phocus::epsilon_free_score(&inst, &map, &best.selected);
        if repaired_score >= raw_score {
            (repaired, repaired_score)
        } else {
            (best.selected.clone(), raw_score)
        }
    });
    tr.decision("compress", &selected, score);
    tr.span("report.render", 0, |_| {
        let kept_original = selected
            .iter()
            .filter(|p| map.is_original(p.index()))
            .count();
        emit(
            &mut stdout,
            &format!(
                "dataset {} — {} photos ({:.1} MB), budget {:.1} MB\n\
                 remove-only quality:        {:.2}\n\
                 compression-aware quality:  {:.2}\n\
                 retained: {} full-quality photos + {} compressed renditions\n",
                universe.name,
                universe.num_photos(),
                universe.total_cost() as f64 / 1e6,
                budget as f64 / 1e6,
                remove_score,
                score,
                kept_original,
                selected.len() - kept_original
            ),
        )?;
        let mut text = String::new();
        for &p in &selected {
            let photo = inst.photo(p);
            let action = match map.level[p.index()] {
                None => "keep".to_string(),
                Some(k) => format!("recompress@{k}"),
            };
            text.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\n",
                p.0,
                map.parent[p.index()],
                action,
                photo.cost,
                photo.name
            ));
        }
        verb::write(&dir.join("traced.tsv"), text.as_bytes())?;
        emit(&mut stdout, "wrote retained actions to traced.tsv\n")
    })
}
