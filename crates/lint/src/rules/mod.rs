//! The rule registry and the per-file / per-crate dispatch.
//!
//! Four families, mirroring DESIGN.md §12 and §17:
//!
//! * **determinism** — [`determinism::float_ord`], [`determinism::hash_iter`],
//!   [`determinism::wall_clock`], [`reduce_order`]: protect the bit-identical
//!   solver transcripts (PR 1/3 goldens), the `total_cmp` discipline (PR 4),
//!   and index-ordered float merges under parallel fan-out.
//! * **architecture** — [`architecture::check_dag`]: keep the crate DAG
//!   acyclic and layered.
//! * **performance/safety** — [`alloc_hot`], [`cast_bounds`]: arena
//!   discipline inside annotated hot kernels and their crate-local callees,
//!   and locally-evidenced narrowing casts in library code.
//! * **hygiene** — [`hygiene::no_print`], [`hygiene::no_unsafe`],
//!   [`ci::check_ci`]: no stray output or panicking placeholders in library
//!   code, no `unsafe` outside the vendored shims, and a CI panic-freedom
//!   gate that cannot silently skip a crate.
//!
//! File-scoped rules run per file ([`run_file_rules`]); the token-tree
//! rules that need fn scopes and the intra-crate call graph run per crate
//! ([`run_crate_rules`]) over all of its files at once.

pub mod alloc_hot;
pub mod architecture;
pub mod cast_bounds;
pub mod ci;
pub mod determinism;
pub mod hygiene;
pub mod reduce_order;

use crate::callgraph::CrateGraph;
use crate::context::FileContext;
use crate::diag::Diagnostic;
use crate::scope;

/// Every rule id, for pragma validation, `--help`, and the `rules`
/// subcommand (schema-drift gate in ci.sh).
pub const RULES: &[&str] = &[
    "float-ord",
    "hash-iter",
    "wall-clock",
    "crate-dag",
    "no-print",
    "no-unsafe",
    "ci-gate",
    "alloc-hot",
    "cast-bounds",
    "reduce-order",
    "lint-meta",
];

/// Runs every file-scoped rule over one lexed file and returns the
/// surviving (non-suppressed) diagnostics, pragma-syntax findings included.
pub fn run_file_rules(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    determinism::float_ord(ctx, &mut out);
    determinism::hash_iter(ctx, &mut out);
    determinism::wall_clock(ctx, &mut out);
    hygiene::no_print(ctx, &mut out);
    hygiene::no_unsafe(ctx, &mut out);
    out.extend(
        ctx.meta_diags
            .iter()
            .filter(|d| !ctx.is_allowed("lint-meta", d.line))
            .cloned(),
    );
    out
}

/// Runs the crate-scoped (token-tree) rules over one crate's files:
/// `alloc-hot` and `reduce-order` follow the intra-crate call graph,
/// `cast-bounds` needs per-fn binding hints. Returns surviving diagnostics.
pub fn run_crate_rules(files: &[FileContext<'_>]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let scopes: Vec<scope::FileScopes> = files.iter().map(scope::analyze).collect();
    let pairs: Vec<(&[crate::lexer::Tok], &scope::FileScopes)> = files
        .iter()
        .zip(scopes.iter())
        .map(|(f, s)| (&f.code[..], s))
        .collect();
    let graph = CrateGraph::build(&pairs);
    alloc_hot::check(files, &scopes, &graph, &mut out);
    reduce_order::check(files, &scopes, &graph, &mut out);
    for (ctx, s) in files.iter().zip(scopes.iter()) {
        cast_bounds::check(ctx, s, &mut out);
    }
    out
}
