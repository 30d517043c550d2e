//! # par-lint — `phocus-lint`, the workspace static-analysis engine
//!
//! PRs 1–4 established invariants by hand: bit-identical serial/parallel
//! solver transcripts, `f64::total_cmp` in every float comparator, a typed
//! error / no-panic discipline, and a layered crate DAG. This crate
//! machine-checks them, so the next refactor cannot silently reintroduce a
//! `partial_cmp().unwrap()` or an order-nondeterministic `HashMap`
//! iteration into a solver path and break the golden transcripts that the
//! Figure 5 / Table 1–2 reproductions depend on.
//!
//! The engine is a lightweight self-contained Rust [`lexer`] (the workspace
//! builds offline; no syn/proc-macro dependencies) feeding two analysis
//! depths: flat token-sequence [`rules`], and a brace-aware [`tree`] layer
//! with fn-[`scope`] tracking and an intra-crate [`callgraph`] for the
//! rules that need to reason across functions. Both are walked over every
//! non-vendor crate discovered from the workspace manifest. Findings are
//! typed [`diag::Diagnostic`]s with `file:line:col` spans, suppressible per
//! site or per file — a suppression must carry a written rationale:
//!
//! ```text
//! // phocus-lint: allow(hash-iter) — keys are collected and sort-deduped below
//! // phocus-lint: allow-file(wall-clock) — the figure-suite timing harness
//! // phocus-lint: hot-kernel — inner CELF loop, arena discipline applies
//! ```
//!
//! Rule families (full rationale in DESIGN.md §12 and §17):
//!
//! | rule           | protects                                             |
//! |----------------|------------------------------------------------------|
//! | `float-ord`    | total-order float comparisons (PR 4)                 |
//! | `hash-iter`    | hash-iteration-order independence (PR 1/3 goldens)   |
//! | `wall-clock`   | time-independent solver decisions                    |
//! | `crate-dag`    | the declared crate layering (DESIGN §3)              |
//! | `no-print`     | silent library code; output via CLI/reporters only   |
//! | `no-unsafe`    | `#![forbid(unsafe_code)]` everywhere but vendor      |
//! | `ci-gate`      | metadata-derived panic-freedom gate coverage (PR 4)  |
//! | `alloc-hot`    | allocation-free hot kernels + crate-local callees    |
//! | `cast-bounds`  | locally-evidenced narrowing casts in library code    |
//! | `reduce-order` | index-ordered float merges under parallel fan-out    |
//! | `lint-meta`    | well-formed, justified suppression pragmas           |
//!
//! The `phocus-lint` binary exits 0 when clean, 1 on violations, 2 on
//! usage errors, 3 on I/O failures; `--json` emits a stable v2 document,
//! `rules` prints the registry (ci.sh diffs it against `lint-rules.txt`),
//! and `gate-crates` prints the panic-gate crate list that `ci.sh`
//! consumes.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod context;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod manifest;
pub mod rules;
pub mod scope;
pub mod tree;

pub use context::{CrateCategory, FileContext, FileKind, FileSpec};
pub use diag::Diagnostic;
pub use engine::{gate_crates, run, LintError, Report};

/// Lints a single in-memory source file — the fixture-test entry point.
/// Runs every file-scoped rule plus the crate-scoped rules on the file as a
/// singleton crate, and returns the surviving diagnostics.
pub fn lint_source(spec: FileSpec<'_>, src: &str) -> Vec<Diagnostic> {
    let ctx = FileContext::new(spec, src);
    let mut out = rules::run_file_rules(&ctx);
    let files = [ctx];
    out.extend(rules::run_crate_rules(&files));
    out
}
