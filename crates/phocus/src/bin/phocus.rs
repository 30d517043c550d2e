//! The PHOcus command-line interface.
//!
//! ```text
//! phocus demo                          # the paper's Figure 1 worked example
//! phocus table2 [--full]               # Table 2 dataset statistics
//! phocus solve --dataset p1k --budget-mb 10 [--tau 0.6] [--ns] [--seed 42]
//! phocus suite --dataset ec-fashion --budget-mb 100 [--seed 42]
//! phocus serve-batch --list tenants.txt --budget-frac 0.25 [--out-dir sols/]
//! phocus epochs --dataset p1k --budget-mb 10 --epochs 8 --churn 0.01 [--check]
//! ```
//!
//! Every failure exits with a diagnostic on stderr and a documented nonzero
//! status — the binary never panics on bad input:
//!
//! * `2` — usage error (unknown command/dataset, malformed flag value);
//! * `3` — invalid input data (parse error, model violation, bad parameter);
//! * `4` — I/O failure (unreadable dataset file, unwritable output);
//! * `5` — partial failure (`serve-batch`: one or more tenants failed while
//!   the batch itself completed — each failed tenant gets a `fail` status
//!   line; healthy tenants still solve and their solutions are written).

use par_core::fixtures::figure1_instance;
use par_datasets::{
    generate_ecommerce, generate_openimages, EcConfig, EcDomain, OpenImagesConfig, PublicScale,
    Universe,
};
use phocus::{
    render_report, representation::RepresentationConfig, representation::Sparsification, run_suite,
    ActionLadder, ArchiveSession, Catalog, CatalogBuilder, EpochSolve, FleetEngine,
    FleetEngineConfig, FleetTenant, Parallelism, Phocus, PhocusConfig, PhocusError, SuiteConfig,
};
use std::process::ExitCode;

/// A CLI failure: either a usage mistake or a typed pipeline error.
enum CliError {
    /// Bad invocation — unknown command/dataset or malformed flag value.
    Usage(String),
    /// A typed error from the PHOcus pipeline (parse, model, I/O, …).
    Pipeline(PhocusError),
    /// A batch run completed but some of its units failed (exit code 5):
    /// tenants for `serve-batch`, epochs for `epochs`.
    PartialFailure {
        /// Units that failed to load, resolve, or solve.
        failed: usize,
        /// Units in the run.
        total: usize,
        /// What a unit is ("tenants", "epochs") — for the diagnostic line.
        what: &'static str,
    },
}

impl From<PhocusError> for CliError {
    fn from(e: PhocusError) -> Self {
        CliError::Pipeline(e)
    }
}

impl CliError {
    fn usage(msg: impl Into<String>) -> Self {
        CliError::Usage(msg.into())
    }

    /// Documented exit codes: 2 usage, 3 invalid data, 4 I/O, 5 partial
    /// batch failure.
    fn exit_code(&self) -> ExitCode {
        match self {
            CliError::Usage(_) => ExitCode::from(2),
            CliError::Pipeline(PhocusError::Io { .. }) => ExitCode::from(4),
            CliError::Pipeline(_) => ExitCode::from(3),
            CliError::PartialFailure { .. } => ExitCode::from(5),
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Pipeline(e) => write!(f, "{e}"),
            CliError::PartialFailure {
                failed,
                total,
                what,
            } => {
                write!(f, "{failed} of {total} {what} failed")
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "demo" => cmd_demo(rest),
        "table2" => cmd_table2(rest),
        "solve" => cmd_solve(rest),
        "suite" => cmd_suite(rest),
        "compress" => cmd_compress(rest),
        "export" => cmd_export(rest),
        "plan" => cmd_plan(rest),
        "serve-batch" => cmd_serve_batch(rest),
        "epochs" => cmd_epochs(rest),
        "pack" => cmd_pack(rest),
        "catalog" => cmd_catalog(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::usage(format!("unknown command `{other}`\n{USAGE}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            e.exit_code()
        }
    }
}

const USAGE: &str = "\
PHOcus — efficiently archiving photos under storage constraints

USAGE:
  phocus demo
  phocus table2 [--full] [--seed N]
  phocus solve --dataset <NAME> --budget-mb <MB> [--tau T] [--ns] [--seed N] [--threads N]
               [--out FILE]
  phocus suite --dataset <NAME> --budget-mb <MB> [--tau T] [--seed N]
  phocus compress --dataset <NAME> --budget-mb <MB> [--seed N] [--threads N]
               [--ladder SPEC|none|paper] [--frontier N] [--out FILE]
  phocus export --dataset <NAME> --out <FILE> [--seed N]
  phocus plan --dataset <NAME> --target <FRACTION> [--seed N]
  phocus serve-batch --list <FILE|-> [--budget-frac F | --budget-mb MB]
               [--tau T] [--ns] [--threads N] [--out-dir DIR]
  phocus serve-batch --catalog <DIR> [--threads N] [--out-dir DIR]
  phocus epochs --dataset <NAME> --budget-mb <MB> [--trace FILE]
               [--epochs N] [--churn F] [--tau T] [--ns] [--seed N]
               [--threads N] [--check] [--export-trace FILE]
  phocus pack --dataset <NAME> --budget-mb <MB> --out <FILE>
               [--tau T] [--ns] [--seed N]
  phocus pack --check <FILE>
  phocus catalog build --list <FILE|-> --out-dir <DIR>
               [--budget-frac F | --budget-mb MB] [--tau T] [--ns] [--seed N]
  phocus catalog ls <DIR>

Every verb rejects a flag it does not read (exit 2). --budget-mb takes a
  finite, non-negative number of megabytes (10^6 bytes). --threads N sets
  the worker count for the whole verb (0, the default, = all cores);
  output is identical at every count.

DATASETS: p1k p5k p10k p50k p100k ec-fashion ec-electronics ec-home file:<path>
  (EC datasets use the scaled-down generator; pass --paper-scale for full size)

SERVE-BATCH: --list names a file with one tenant universe path per line
  (`-` reads the list from stdin; blank lines and `#` comments are skipped).
  Each tenant gets --budget-frac of its own archive (default 0.25) unless
  --budget-mb fixes an absolute budget. One status line per tenant:
  `ok <name> ...` or `fail <path>: <reason>`. A malformed tenant fails that
  tenant only; the rest of the batch still solves. --out-dir writes one
  retained-set TSV per solved tenant.

COMPRESS: multi-action archival — keep, recompress, or delete each photo.
  --ladder lists renditions as quality:size_fraction pairs (e.g.
  `0.85:0.35,0.55:0.10`); `none` is the degenerate delete-only ladder
  (reproduces `solve`'s remove-only model exactly), `paper` is the
  recompression paper's measured ladder; the default is a built-in
  two-rung ladder. Both solutions are scored on the ε-free objective,
  directly comparable. --frontier N sweeps N budgets up to --budget-mb and
  prints delete-only vs multi-action frontier curves. --out writes the
  retained actions as a TSV (id, parent, action, cost, name) in selection
  order; --threads has `solve` semantics (solutions are bit-identical at
  every thread count).

PACK / CATALOG: `pack` represents one dataset and writes it as a
  `phocus-pack` image — a checksummed binary section file that later loads
  with no text parsing, no representation, and no union-find
  (`pack --check` verifies an image and prints its shape). `catalog build`
  packs every tenant of a serve-batch list into --out-dir plus a
  memory-resident index; `serve-batch --catalog` then serves straight from
  the packs, skipping the whole cold-start pipeline. `catalog ls` prints
  the resident index.

EPOCHS: keeps one archive session resident and replays a churn trace —
  either a `# phocus-trace v1` file (--trace) or one generated on the fly
  from --epochs rounds at --churn total membership turnover per round
  (half removals, half arrivals). One status line per
  epoch: `ok epoch=K ...` or `fail epoch=K: <reason>`. A delta that does
  not resolve or apply fails that epoch only; the session keeps its warm
  state and later epochs still solve. --check re-solves every epoch from
  scratch and verifies the incremental solution is bit-identical.
  --export-trace writes the (generated) trace for later replay.

EXIT CODES: 0 success, 2 usage error, 3 invalid input data, 4 I/O failure,
  5 partial failure (serve-batch / epochs: some tenants or epochs failed,
  the run itself completed)";

/// One verb's arguments, checked up front against exactly the flags the
/// verb reads: `values` take a value, `switches` stand alone. Anything else
/// is a usage error, so a misspelled or retired flag fails loudly instead of
/// silently solving at a default.
struct Args<'a> {
    rest: &'a [String],
    values: &'a [&'a str],
    switches: &'a [&'a str],
}

impl<'a> Args<'a> {
    fn new(
        verb: &str,
        rest: &'a [String],
        values: &'a [&'a str],
        switches: &'a [&'a str],
    ) -> Result<Self, CliError> {
        let mut i = 0;
        while i < rest.len() {
            let a = rest[i].as_str();
            if values.contains(&a) {
                if i + 1 == rest.len() {
                    return Err(CliError::usage(format!("missing value for {a}")));
                }
                i += 2;
            } else if switches.contains(&a) {
                i += 1;
            } else {
                return Err(CliError::usage(format!(
                    "`{verb}` does not take `{a}` (see `phocus help`)"
                )));
            }
        }
        Ok(Args {
            rest,
            values,
            switches,
        })
    }

    fn flag(&self, name: &str) -> bool {
        debug_assert!(self.switches.contains(&name), "{name} is not declared");
        self.rest.iter().any(|a| a == name)
    }

    fn opt(&self, name: &str) -> Option<String> {
        debug_assert!(self.values.contains(&name), "{name} is not declared");
        self.rest
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.rest.get(i + 1).cloned())
    }

    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.opt(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::usage(format!("invalid value for {name}: {v}"))),
        }
    }

    fn required(&self, name: &str) -> Result<String, CliError> {
        self.opt(name)
            .ok_or_else(|| CliError::usage(format!("missing {name}")))
    }

    /// `--budget-mb` in bytes (1 MB = 10⁶ B): exactly `(mb * 1e6) as u64`
    /// for every finite `mb` in `[0, u64::MAX / 1e6]`; negative, NaN,
    /// infinite and out-of-range values are usage errors instead of
    /// saturating to a 0-byte or `u64::MAX` budget.
    fn budget_mb(&self, default_mb: f64) -> Result<u64, CliError> {
        let mb: f64 = self.parse("--budget-mb", default_mb)?;
        if !(0.0..=u64::MAX as f64 / 1e6).contains(&mb) {
            return Err(CliError::usage(format!(
                "--budget-mb must be a finite number of megabytes in [0, {:e}], got {mb}",
                u64::MAX as f64 / 1e6
            )));
        }
        Ok((mb * 1e6) as u64)
    }

    /// `--budget-frac`: the share of each tenant's own archive it may keep
    /// (default 0.25); anything outside `[0, 1]`, NaN included, is a usage
    /// error.
    fn budget_frac(&self) -> Result<f64, CliError> {
        let frac: f64 = self.parse("--budget-frac", 0.25)?;
        if !(0.0..=1.0).contains(&frac) {
            return Err(CliError::usage(format!(
                "--budget-frac must be in [0, 1], got {frac}"
            )));
        }
        Ok(frac)
    }
}

fn read_file(path: &str) -> Result<String, PhocusError> {
    std::fs::read_to_string(path).map_err(|e| PhocusError::Io {
        path: path.to_string(),
        message: e.to_string(),
    })
}

fn write_file(path: &str, text: &str) -> Result<(), PhocusError> {
    std::fs::write(path, text).map_err(|e| PhocusError::Io {
        path: path.to_string(),
        message: e.to_string(),
    })
}

fn read_bytes(path: &str) -> Result<Vec<u8>, PhocusError> {
    std::fs::read(path).map_err(|e| PhocusError::Io {
        path: path.to_string(),
        message: e.to_string(),
    })
}

fn write_bytes(path: &str, bytes: &[u8]) -> Result<(), PhocusError> {
    std::fs::write(path, bytes).map_err(|e| PhocusError::Io {
        path: path.to_string(),
        message: e.to_string(),
    })
}

/// The shared `--tau` / `--seed` / `--ns` representation flags, with the
/// same defaults everywhere (τ = 0.6, seed = 42, LSH recall target 0.95).
fn repr_from_flags(args: &Args<'_>) -> Result<RepresentationConfig, CliError> {
    let tau: f64 = args.parse("--tau", 0.6)?;
    let seed: u64 = args.parse("--seed", 42)?;
    Ok(if args.flag("--ns") {
        RepresentationConfig::phocus_ns()
    } else {
        RepresentationConfig {
            sparsification: Sparsification::Lsh {
                tau,
                target_recall: 0.95,
                seed,
            },
            ..Default::default()
        }
    })
}

/// Reads a tenant list: one universe path per line, `-` for stdin; blank
/// lines and `#` comments are skipped. An empty list is a usage error.
fn read_tenant_list(list: &str) -> Result<Vec<String>, CliError> {
    let text = if list == "-" {
        use std::io::Read;
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| PhocusError::Io {
                path: "<stdin>".into(),
                message: e.to_string(),
            })?;
        s
    } else {
        read_file(list)?
    };
    let paths: Vec<String> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect();
    if paths.is_empty() {
        return Err(CliError::usage("tenant list is empty"));
    }
    Ok(paths)
}

fn load_dataset(name: &str, seed: u64, paper_scale: bool) -> Result<Universe, CliError> {
    if let Some(path) = name.strip_prefix("file:") {
        let text = read_file(path)?;
        return par_datasets::from_text(&text)
            .map_err(|e| CliError::Pipeline(PhocusError::Dataset(e)));
    }
    let scale = |s: PublicScale| generate_openimages(&s.config(seed));
    let ec = |d: EcDomain| {
        generate_ecommerce(&if paper_scale {
            EcConfig::paper(d, seed)
        } else {
            EcConfig::small(d, seed)
        })
    };
    Ok(match name {
        "p1k" => scale(PublicScale::P1K),
        "p5k" => scale(PublicScale::P5K),
        "p10k" => scale(PublicScale::P10K),
        "p50k" => scale(PublicScale::P50K),
        "p100k" => scale(PublicScale::P100K),
        "ec-fashion" => ec(EcDomain::Fashion),
        "ec-electronics" => ec(EcDomain::Electronics),
        "ec-home" => ec(EcDomain::HomeGarden),
        "tiny" => generate_openimages(&OpenImagesConfig {
            name: "tiny".into(),
            photos: 200,
            target_subsets: 40,
            seed,
            ..Default::default()
        }),
        other => return Err(CliError::usage(format!("unknown dataset `{other}`"))),
    })
}

fn cmd_demo(rest: &[String]) -> Result<(), CliError> {
    Args::new("demo", rest, &[], &[])?;
    println!("Figure 1 worked example (7 photos, 4 pre-defined subsets)\n");
    let inst = figure1_instance(4 * par_core::fixtures::MB);
    let report = Phocus::default().solve_instance(&inst, std::time::Duration::ZERO);
    print!("{}", render_report(&inst, &report));
    println!("\nselection order:");
    for (step, p) in report.selected.iter().enumerate() {
        let photo = inst.photo(*p);
        println!(
            "  step {}: p{} ({:.1} MB)",
            step + 1,
            p.0 + 1,
            photo.cost as f64 / 1e6
        );
    }
    Ok(())
}

fn cmd_table2(rest: &[String]) -> Result<(), CliError> {
    let args = Args::new("table2", rest, &["--seed"], &["--full"])?;
    let full = args.flag("--full");
    let seed = args.parse("--seed", 42u64)?;
    let rows = par_datasets::table2_rows(full, seed);
    println!(
        "{:<20} {:>12} {:>12} {:>14} {:>14}",
        "Dataset", "paper #P", "paper #Q", "measured #P", "measured #Q"
    );
    for r in rows {
        println!(
            "{:<20} {:>12} {:>12} {:>14} {:>14}",
            r.name, r.paper_photos, r.paper_subsets, r.measured_photos, r.measured_subsets
        );
    }
    if !full {
        println!("\n(scaled-down generation; pass --full for paper-sized datasets)");
    }
    Ok(())
}

fn cmd_solve(rest: &[String]) -> Result<(), CliError> {
    let args = Args::new(
        "solve",
        rest,
        &[
            "--dataset",
            "--budget-mb",
            "--tau",
            "--seed",
            "--threads",
            "--out",
        ],
        &["--paper-scale", "--ns"],
    )?;
    Parallelism::with_threads(args.parse("--threads", 0)?).install_global();
    let dataset = args.required("--dataset")?;
    let budget = args.budget_mb(10.0)?;
    let seed: u64 = args.parse("--seed", 42)?;
    let representation = repr_from_flags(&args)?;
    let universe = load_dataset(&dataset, seed, args.flag("--paper-scale"))?;
    println!(
        "dataset {} — {} photos, {} subsets, archive {:.1} MB",
        universe.name,
        universe.num_photos(),
        universe.num_subsets(),
        universe.total_cost() as f64 / 1e6
    );
    // Represent once; the same instance is solved, rendered and written.
    let t0 = std::time::Instant::now(); // phocus-lint: allow(wall-clock) — fills the reported represent time only
    let inst = phocus::represent(&universe, budget, &representation)?;
    let represent_time = t0.elapsed();
    let solver = Phocus::new(PhocusConfig {
        representation,
        certify_sparsification: !args.flag("--ns"),
    });
    let report = solver.solve_instance(&inst, represent_time);
    print!("{}", render_report(&inst, &report));
    if let Some(out) = args.opt("--out") {
        // One retained photo per line: id, byte cost, name.
        let mut text = String::new();
        for &p in &report.selected {
            let photo = inst.photo(p);
            text.push_str(&format!("{}\t{}\t{}\n", p.0, photo.cost, photo.name));
        }
        write_file(&out, &text)?;
        println!("wrote retained set to {out}");
    }
    Ok(())
}

fn cmd_compress(rest: &[String]) -> Result<(), CliError> {
    let args = Args::new(
        "compress",
        rest,
        &[
            "--threads",
            "--dataset",
            "--budget-mb",
            "--seed",
            "--ladder",
            "--frontier",
            "--out",
        ],
        &["--paper-scale"],
    )?;
    Parallelism::with_threads(args.parse("--threads", 0)?).install_global();
    let dataset = args.required("--dataset")?;
    let budget = args.budget_mb(2.0)?;
    let seed: u64 = args.parse("--seed", 42)?;
    let ladder = match args.opt("--ladder") {
        None => ActionLadder::standard(),
        Some(spec) => ActionLadder::parse(&spec).map_err(CliError::Pipeline)?,
    };
    let universe = load_dataset(&dataset, seed, args.flag("--paper-scale"))?;
    let cfg = RepresentationConfig::default();
    let rungs: Vec<String> = ladder
        .levels()
        .iter()
        .map(|l| format!("{}:{}", l.quality, l.size_fraction))
        .collect();
    println!(
        "dataset {} — {} photos ({:.1} MB), budget {:.1} MB, ladder [{}]",
        universe.name,
        universe.num_photos(),
        universe.total_cost() as f64 / 1e6,
        budget as f64 / 1e6,
        rungs.join(", ")
    );
    // Two multi-action solves on the same ε-free objective: the degenerate
    // delete-only ladder *is* remove-only archival (bit for bit), so the
    // comparison needs no separate code path.
    let remove =
        phocus::solve_multi_action(&universe, budget, &ActionLadder::delete_only(), &cfg, true)?;
    let ma = phocus::solve_multi_action(&universe, budget, &ladder, &cfg, true)?;
    println!("remove-only quality:        {:.2}", remove.score);
    // A zero remove-only score (zero budget, empty demand) has no
    // meaningful percentage — omit it instead of printing NaN/inf.
    let pct = if remove.score > 0.0 {
        format!(" ({:+.1}%)", 100.0 * (ma.score / remove.score - 1.0))
    } else {
        String::new()
    };
    println!("compression-aware quality:  {:.2}{pct}", ma.score);
    println!(
        "retained: {} full-quality photos + {} compressed renditions",
        ma.kept_original, ma.kept_compressed
    );
    if let Some(points) = args.opt("--frontier") {
        let points: usize = points
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| CliError::usage(format!("invalid value for --frontier: {points}")))?;
        let budgets: Vec<u64> = (1..=points as u64)
            .map(|i| (budget * i / points as u64).max(1))
            .collect();
        let frontier = phocus::multi_action_frontier(&universe, &budgets, &ladder, &cfg)?;
        println!("frontier\tbudget_mb\tdelete_only\tmulti_action");
        for p in &frontier {
            println!(
                "frontier\t{:.2}\t{:.4}\t{:.4}",
                p.budget as f64 / 1e6,
                p.delete_only,
                p.multi_action
            );
        }
    }
    if let Some(out) = args.opt("--out") {
        // One retained action per line, in transcript order:
        // id, parent id, action, byte cost, name.
        let mut text = String::new();
        for &p in &ma.selected {
            let photo = ma.instance.photo(p);
            let action = match ma.map.level[p.index()] {
                None => "keep".to_string(),
                Some(k) => format!("recompress@{k}"),
            };
            text.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\n",
                p.0,
                ma.map.parent[p.index()],
                action,
                photo.cost,
                photo.name
            ));
        }
        write_file(&out, &text)?;
        println!("wrote retained actions to {out}");
    }
    Ok(())
}

fn cmd_export(rest: &[String]) -> Result<(), CliError> {
    let args = Args::new(
        "export",
        rest,
        &["--dataset", "--out", "--seed"],
        &["--paper-scale"],
    )?;
    let dataset = args.required("--dataset")?;
    let out = args.required("--out")?;
    let seed: u64 = args.parse("--seed", 42)?;
    let universe = load_dataset(&dataset, seed, args.flag("--paper-scale"))?;
    write_file(&out, &par_datasets::to_text(&universe))?;
    println!(
        "wrote {} ({} photos, {} subsets)",
        out,
        universe.num_photos(),
        universe.num_subsets()
    );
    Ok(())
}

fn cmd_plan(rest: &[String]) -> Result<(), CliError> {
    let args = Args::new(
        "plan",
        rest,
        &["--dataset", "--target", "--seed"],
        &["--paper-scale"],
    )?;
    let dataset = args.required("--dataset")?;
    let target: f64 = args.parse("--target", 0.9)?;
    let seed: u64 = args.parse("--seed", 42)?;
    let universe = load_dataset(&dataset, seed, args.flag("--paper-scale"))?;
    let tolerance = (universe.total_cost() / 200).max(1);
    let plan = phocus::minimal_budget(
        &universe,
        target,
        &RepresentationConfig::default(),
        tolerance,
    )?;
    println!(
        "dataset {} — archive {:.1} MB",
        universe.name,
        universe.total_cost() as f64 / 1e6
    );
    println!(
        "to keep {:.0}% of quality you need ≈ {:.2} MB ({:.1}% of the archive); \
         achieved {:.1}% there ({} solver probes)",
        100.0 * target,
        plan.budget as f64 / 1e6,
        100.0 * plan.budget_fraction,
        100.0 * plan.achieved_fraction,
        plan.probes
    );
    Ok(())
}

/// `serve-batch`: stream tenant universe files in, solutions out, one status
/// line and one exit status per tenant. A tenant that fails to load or solve
/// gets a `fail` line; the batch continues and exits 5 if any tenant failed.
fn cmd_serve_batch(rest: &[String]) -> Result<(), CliError> {
    if rest.iter().any(|a| a == "--catalog") {
        let values = ["--catalog", "--threads", "--out-dir"];
        let args = Args::new("serve-batch", rest, &values, &[])?;
        return serve_batch_catalog(&args, &args.required("--catalog")?);
    }
    let values = [
        "--list",
        "--budget-frac",
        "--budget-mb",
        "--threads",
        "--out-dir",
        "--tau",
        "--seed",
    ];
    let args = Args::new("serve-batch", rest, &values, &["--ns"])?;
    Parallelism::with_threads(args.parse("--threads", 0)?).install_global();
    let list = args.opt("--list").ok_or_else(|| {
        CliError::usage("missing --list (file of tenant universe paths, `-` for stdin)")
    })?;
    let budget_frac = args.budget_frac()?;
    let budget = args.budget_mb(0.0)?;
    let paths = read_tenant_list(&list)?;
    let representation = repr_from_flags(&args)?;

    // Load every tenant up front; a tenant whose file is unreadable or
    // malformed fails *that tenant*, never the batch.
    let loaded = paths
        .iter()
        .map(|path| {
            let text = read_file(path)?;
            let universe = par_datasets::from_text(&text).map_err(PhocusError::Dataset)?;
            let budget = if budget > 0 {
                budget
            } else {
                phocus::fraction_budget(universe.total_cost(), budget_frac)
            };
            Ok(FleetTenant::Library { universe, budget })
        })
        .collect();
    let engine = FleetEngine::new(FleetEngineConfig { representation });
    serve_fleet(&engine, &paths, loaded, args.opt("--out-dir"))
}

/// `serve-batch --catalog`: the catalog-resident serving path. Tenants come
/// from pack files — no text parse, no representation, no union-find —
/// budgets and names from the resident index.
fn serve_batch_catalog(args: &Args<'_>, dir: &str) -> Result<(), CliError> {
    Parallelism::with_threads(args.parse("--threads", 0)?).install_global();
    let catalog = Catalog::open(dir)?;
    if catalog.entries().is_empty() {
        return Err(CliError::usage(format!("catalog {dir} has no tenants")));
    }
    // A stale checksum or corrupt pack fails *that tenant*, never the batch.
    let loaded = catalog
        .entries()
        .iter()
        .map(|entry| {
            let packed = catalog.load(entry)?;
            Ok(FleetTenant::Packed {
                name: entry.name.clone(),
                packed,
            })
        })
        .collect();
    let names: Vec<String> = catalog.entries().iter().map(|e| e.name.clone()).collect();
    let engine = FleetEngine::default();
    serve_fleet(&engine, &names, loaded, args.opt("--out-dir"))
}

/// The serve-batch report: solves every tenant that loaded, then prints one
/// `ok` or `fail` line per tenant in input order (`labels[i]` names tenant
/// `i` on its `fail` line) and the `batch` summary, and writes each solved
/// tenant's retained set under `out_dir`. Exits 5 if any tenant failed to
/// load or solve.
fn serve_fleet(
    engine: &FleetEngine,
    labels: &[String],
    loaded: Vec<Result<FleetTenant, PhocusError>>,
    out_dir: Option<String>,
) -> Result<(), CliError> {
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).map_err(|e| PhocusError::Io {
            path: dir.clone(),
            message: e.to_string(),
        })?;
    }
    let mut solvable = Vec::with_capacity(loaded.len());
    let mut load_errors = Vec::with_capacity(loaded.len());
    for tenant in loaded {
        match tenant {
            Ok(t) => {
                solvable.push(t);
                load_errors.push(None);
            }
            Err(e) => load_errors.push(Some(e)),
        }
    }

    let t0 = std::time::Instant::now(); // phocus-lint: allow(wall-clock) — fills the reported batch throughput line only
    let outcomes = engine.run(&solvable);
    let batch_secs = t0.elapsed().as_secs_f64();

    // Report in input order, interleaving load failures with solve outcomes.
    let mut failed = 0usize;
    let mut next_outcome = outcomes.into_iter();
    for (i, (label, load_error)) in labels.iter().zip(load_errors).enumerate() {
        let solved = match load_error {
            Some(e) => Err(e),
            None => {
                let Some(o) = next_outcome.next() else {
                    // One engine outcome per loaded tenant, by construction.
                    unreachable!("engine returned fewer outcomes than tenants")
                };
                o.result.map(|report| (o.name, o.photos, report, o.latency))
            }
        };
        match solved {
            Err(e) => {
                failed += 1;
                println!("fail\t{label}: {e}");
            }
            Ok((name, photos, report, latency)) => {
                println!(
                    "ok\t{name}\tphotos={photos}\tretained={}\tcost_mb={:.2}\tscore={:.3}\tms={:.1}",
                    report.selected.len(),
                    report.cost as f64 / 1e6,
                    report.score,
                    latency.as_secs_f64() * 1e3
                );
                if let Some(dir) = &out_dir {
                    let file = format!("{dir}/{i:05}_{}.tsv", name.replace(['/', '\\'], "_"));
                    let mut text = String::new();
                    for &p in &report.selected {
                        text.push_str(&format!("{}\n", p.0));
                    }
                    write_file(&file, &text)?;
                }
            }
        }
    }
    let total = labels.len();
    println!(
        "batch\ttenants={total}\tok={}\tfailed={failed}\tinst_per_sec={:.2}",
        total - failed,
        (total - failed) as f64 / batch_secs.max(1e-9)
    );
    if failed > 0 {
        return Err(CliError::PartialFailure {
            failed,
            total,
            what: "tenants",
        });
    }
    Ok(())
}

/// `pack`: represent one dataset and persist it as a `phocus-pack` image.
/// `pack --check` loads an existing image — full checksum, bounds, and
/// cross-section validation — and prints its shape without solving.
fn cmd_pack(rest: &[String]) -> Result<(), CliError> {
    if rest.iter().any(|a| a == "--check") {
        let path = Args::new("pack", rest, &["--check"], &[])?.required("--check")?;
        let bytes = read_bytes(&path)?;
        let packed = par_core::unpack_instance(&bytes)
            .map_err(|e| CliError::Pipeline(PhocusError::Pack(e)))?;
        println!(
            "ok\t{path}\tphotos={}\tsubsets={}\tbudget_mb={:.2}\tshards={}\tbytes={}",
            packed.instance.num_photos(),
            packed.instance.num_subsets(),
            packed.instance.budget() as f64 / 1e6,
            packed.labels.num_shards(),
            bytes.len()
        );
        return Ok(());
    }
    let values = ["--dataset", "--out", "--budget-mb", "--tau", "--seed"];
    let args = Args::new("pack", rest, &values, &["--paper-scale", "--ns"])?;
    let dataset = args.required("--dataset")?;
    let out = args.required("--out")?;
    let budget = args.budget_mb(10.0)?;
    let seed: u64 = args.parse("--seed", 42)?;
    let universe = load_dataset(&dataset, seed, args.flag("--paper-scale"))?;
    let representation = repr_from_flags(&args)?;
    let inst = phocus::represent(&universe, budget, &representation)?;
    let bytes = par_core::pack_instance(&inst).map_err(PhocusError::from)?;
    write_bytes(&out, &bytes)?;
    println!(
        "wrote\t{out}\tphotos={}\tsubsets={}\tbytes={}",
        inst.num_photos(),
        inst.num_subsets(),
        bytes.len()
    );
    Ok(())
}

/// `catalog build | ls`: build a pack catalog from a tenant list, or print
/// a catalog's resident index.
fn cmd_catalog(rest: &[String]) -> Result<(), CliError> {
    match rest.first().map(String::as_str) {
        Some("build") => cmd_catalog_build(&rest[1..]),
        Some("ls") => cmd_catalog_ls(&rest[1..]),
        _ => Err(CliError::usage("catalog needs a subcommand: build | ls")),
    }
}

/// `catalog build`: represent and pack every tenant of a serve-batch list
/// into a catalog directory. Unlike serving, building is strict — any
/// unreadable or malformed tenant fails the build, because a catalog with
/// silently missing tenants would serve wrong fleets forever after.
fn cmd_catalog_build(rest: &[String]) -> Result<(), CliError> {
    let values = [
        "--list",
        "--out-dir",
        "--budget-frac",
        "--budget-mb",
        "--tau",
        "--seed",
    ];
    let args = Args::new("catalog build", rest, &values, &["--ns"])?;
    let list = args.opt("--list").ok_or_else(|| {
        CliError::usage("missing --list (file of tenant universe paths, `-` for stdin)")
    })?;
    let out_dir = args.required("--out-dir")?;
    let budget_frac = args.budget_frac()?;
    let budget_bytes = args.budget_mb(0.0)?;
    let representation = repr_from_flags(&args)?;

    let paths = read_tenant_list(&list)?;
    let mut builder = CatalogBuilder::create(&out_dir)?;
    for path in &paths {
        let text = read_file(path)?;
        let universe = par_datasets::from_text(&text)
            .map_err(|e| CliError::Pipeline(PhocusError::Dataset(e)))?;
        let budget = if budget_bytes > 0 {
            budget_bytes
        } else {
            phocus::fraction_budget(universe.total_cost(), budget_frac)
        };
        let inst = phocus::represent(&universe, budget, &representation)?;
        let bytes = par_core::pack_instance(&inst).map_err(PhocusError::from)?;
        builder.add_pack(
            &universe.name,
            &bytes,
            inst.num_photos() as u64,
            inst.budget(),
        )?;
        println!(
            "packed\t{}\tphotos={}\tbytes={}",
            universe.name,
            inst.num_photos(),
            bytes.len()
        );
    }
    let catalog = builder.finish()?;
    println!(
        "catalog\t{out_dir}\ttenants={}",
        catalog.entries().len()
    );
    Ok(())
}

/// `catalog ls`: print the resident index, one line per tenant.
fn cmd_catalog_ls(rest: &[String]) -> Result<(), CliError> {
    let dir = match rest {
        [dir] => dir,
        [] => return Err(CliError::usage("missing catalog directory")),
        [_, extra, ..] => {
            return Err(CliError::usage(format!(
                "`catalog ls` does not take `{extra}` (see `phocus help`)"
            )))
        }
    };
    let catalog = Catalog::open(dir.as_str())?;
    for e in catalog.entries() {
        println!(
            "tenant\t{}\t{}\t{:016x}\tphotos={}\tbudget_mb={:.2}",
            e.name,
            e.pack,
            e.checksum,
            e.photos,
            e.budget as f64 / 1e6
        );
    }
    println!("catalog\t{dir}\ttenants={}", catalog.entries().len());
    Ok(())
}

/// `epochs`: one resident [`ArchiveSession`] replaying a churn trace, one
/// status line per epoch. A delta that does not resolve or apply fails that
/// epoch only — the session keeps its instance and warm stream caches — and
/// the run exits 5 if any epoch failed, mirroring `serve-batch`.
fn cmd_epochs(rest: &[String]) -> Result<(), CliError> {
    let values = [
        "--dataset",
        "--budget-mb",
        "--epochs",
        "--churn",
        "--threads",
        "--trace",
        "--export-trace",
        "--tau",
        "--seed",
    ];
    let args = Args::new("epochs", rest, &values, &["--check", "--paper-scale", "--ns"])?;
    Parallelism::with_threads(args.parse("--threads", 0)?).install_global();
    let dataset = args.required("--dataset")?;
    let budget = args.budget_mb(10.0)?;
    let seed: u64 = args.parse("--seed", 42)?;
    let epochs_n: usize = args.parse("--epochs", 8)?;
    let churn: f64 = args.parse("--churn", 0.01)?;
    let check = args.flag("--check");
    if !(0.0..=1.0).contains(&churn) || churn.is_nan() {
        return Err(CliError::usage(format!(
            "--churn must be in [0, 1], got {churn}"
        )));
    }

    let universe = load_dataset(&dataset, seed, args.flag("--paper-scale"))?;
    let representation = repr_from_flags(&args)?;
    let inst = phocus::represent(&universe, budget, &representation)?;

    let trace = match args.opt("--trace") {
        Some(path) => {
            let text = read_file(&path)?;
            par_datasets::trace_from_text(&text)
                .map_err(|e| CliError::Pipeline(PhocusError::Dataset(e)))?
        }
        None => {
            let n = inst.num_photos() as f64;
            // `--churn` is the *total* per-epoch membership turnover (the
            // same convention as BENCH_incremental.json): half of it photos
            // leaving, half arriving.
            par_datasets::generate_churn(
                &inst,
                &par_datasets::ChurnConfig {
                    epochs: epochs_n,
                    removal_fraction: churn / 2.0,
                    arrivals_mean: (churn * n / 2.0).max(1.0),
                    drift_mean: 1.0,
                    budget_wobble: 0.05,
                    seed,
                    ..Default::default()
                },
            )
            .map_err(|e| CliError::Pipeline(PhocusError::Dataset(e)))?
        }
    };
    if let Some(out) = args.opt("--export-trace") {
        write_file(&out, &par_datasets::trace_to_text(&trace))?;
        println!("wrote trace to {out} ({} epochs)", trace.epochs.len());
    }

    let mut session = ArchiveSession::new(inst);
    let mut failed = 0usize;
    let total = trace.epochs.len();
    // One iteration per epoch, plus the initial from-cold solve as epoch 0.
    for k in 0..=total {
        let t0 = std::time::Instant::now(); // phocus-lint: allow(wall-clock) — fills the reported per-epoch latency field only
        let solved: Result<EpochSolve, PhocusError> = if k == 0 {
            Ok(session.resolve())
        } else {
            (|| {
                let delta = par_datasets::resolve_epoch(&trace.epochs[k - 1], session.instance())?;
                Ok(session.apply_delta(&delta)?.resolve())
            })()
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let solve = match solved {
            Err(e) => {
                failed += 1;
                println!("fail\tepoch={k}\t{e}");
                continue;
            }
            Ok(s) => s,
        };
        let dirty = match (k, session.last_delta_stats()) {
            (0, _) | (_, None) => "all".to_string(),
            (_, Some(d)) => format!("{}/{}", d.dirty_shards, d.num_shards),
        };
        let check_field = if check {
            let scratch = par_algo::main_algorithm_sharded(session.instance());
            let identical = solve.outcome.best.selected == scratch.best.selected
                && solve.outcome.best.score.to_bits() == scratch.best.score.to_bits()
                && solve.outcome.winner == scratch.winner;
            if !identical {
                failed += 1;
                println!("fail\tepoch={k}\tincremental solve diverged from from-scratch solve");
                continue;
            }
            "\tcheck=ok"
        } else {
            ""
        };
        println!(
            "ok\tepoch={k}\tphotos={}\tdirty_shards={dirty}\treplayed={}\tlive={}\tretained={}\tcost_mb={:.2}\tscore={:.3}\tms={:.1}{check_field}",
            session.instance().num_photos(),
            solve.report.replayed_streams,
            solve.report.live_streams,
            solve.outcome.best.selected.len(),
            solve.outcome.best.cost as f64 / 1e6,
            solve.outcome.best.score,
            ms,
        );
    }
    println!(
        "session\tepochs={}\tok={}\tfailed={failed}",
        total + 1,
        total + 1 - failed
    );
    if failed > 0 {
        return Err(CliError::PartialFailure {
            failed,
            total: total + 1,
            what: "epochs",
        });
    }
    Ok(())
}

fn cmd_suite(rest: &[String]) -> Result<(), CliError> {
    let args = Args::new(
        "suite",
        rest,
        &["--dataset", "--budget-mb", "--tau", "--seed"],
        &["--paper-scale"],
    )?;
    let dataset = args.required("--dataset")?;
    let budget = args.budget_mb(10.0)?;
    let tau: f64 = args.parse("--tau", 0.6)?;
    let seed: u64 = args.parse("--seed", 42)?;
    let universe = load_dataset(&dataset, seed, args.flag("--paper-scale"))?;
    let cfg = SuiteConfig {
        tau,
        rand_seed: seed,
        ..Default::default()
    };
    let result = run_suite(&universe, budget, &cfg)?;
    print!("{}", phocus::report::render_suite(&result));
    Ok(())
}
