//! Architecture rule: the declared crate DAG.
//!
//! The declared DAG below is the machine-checked form of DESIGN.md §3
//! ("Dependency edges (bottom-up)"). Adding a crate or an edge is a
//! deliberate act: extend the table here in the same PR, and the diff shows
//! the layering change explicitly. An edge in a `Cargo.toml` that the table
//! does not sanction fails CI with the manifest line in the span.

use crate::diag::Diagnostic;
use crate::manifest::CrateManifest;

/// Offline dependency shims under `crates/vendor/`, allowed everywhere.
/// (`scoped-pool` is deliberately *not* here: the worker-pool backend is an
/// explicit par-exec-only edge in the DAG, so every other crate reaches it
/// only through the par-exec kernels.)
pub const VENDOR_SHIMS: &[&str] = &["rand", "proptest", "criterion"];

const ALL_LIBS: &[&str] = &[
    "par-core",
    "par-embed",
    "par-lsh",
    "par-search",
    "par-algo",
    "par-sparse",
    "par-datasets",
    "phocus",
    "par-study",
    "par-exec",
];

/// The declared crate DAG: every internal dependency each crate may have.
/// `None` means the crate is unknown — it must be added here (with its
/// layer) before the workspace accepts it.
pub fn declared_deps(name: &str) -> Option<&'static [&'static str]> {
    Some(match name {
        // Leaves.
        "par-search" | "par-lint" => &[],
        "rand" | "proptest" | "criterion" | "scoped-pool" => &[],
        // The one crate allowed to hold the worker-pool backend.
        "par-exec" => &["scoped-pool"],
        // Model and substrates.
        "par-core" => &["par-exec"],
        "par-embed" => &["par-core"],
        "par-lsh" => &["par-exec"],
        // Solvers over the model.
        "par-algo" => &["par-core", "par-exec"],
        "par-sparse" => &["par-core", "par-algo", "par-exec"],
        // Data and the end-to-end system.
        "par-datasets" => &["par-core", "par-embed", "par-search"],
        "phocus" => &[
            "par-core",
            "par-embed",
            "par-lsh",
            "par-search",
            "par-algo",
            "par-sparse",
            "par-datasets",
            "par-exec",
        ],
        "par-study" => &["par-core", "par-algo", "par-datasets", "phocus"],
        // Harnesses may see everything.
        "par-bench" | "par-examples" | "integration-tests" => ALL_LIBS,
        _ => return None,
    })
}

/// `crate-dag`: validates one crate's manifest edges against the declared
/// DAG. `manifest_path` is used verbatim in diagnostics.
pub fn check_dag(manifest_path: &str, m: &CrateManifest, out: &mut Vec<Diagnostic>) {
    let Some(allowed) = declared_deps(&m.name) else {
        out.push(Diagnostic {
            rule: "crate-dag",
            path: manifest_path.to_string(),
            line: 1,
            col: 1,
            message: format!(
                "crate `{}` is not in the declared crate DAG \
                 (crates/lint/src/rules/architecture.rs); declare its layer \
                 and allowed dependencies there",
                m.name
            ),
        });
        return;
    };
    for dep in &m.deps {
        if VENDOR_SHIMS.contains(&dep.name.as_str()) || allowed.contains(&dep.name.as_str()) {
            continue;
        }
        out.push(Diagnostic {
            rule: "crate-dag",
            path: manifest_path.to_string(),
            line: dep.line,
            col: 1,
            message: format!(
                "dependency edge `{}` -> `{}` violates the declared crate DAG \
                 (allowed: {:?}); layering changes must update the declared \
                 table in the same PR",
                m.name, dep.name, allowed
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::parse_crate_manifest;

    #[test]
    fn legal_edge_passes() {
        let m = parse_crate_manifest(
            "[package]\nname = \"par-algo\"\n[dependencies]\npar-core = { workspace = true }\nrand = { workspace = true }\n",
        );
        let mut out = Vec::new();
        check_dag("crates/algo/Cargo.toml", &m, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn inverted_edge_fails_with_span() {
        let m = parse_crate_manifest(
            "[package]\nname = \"par-core\"\n[dependencies]\npar-algo = { workspace = true }\n",
        );
        let mut out = Vec::new();
        check_dag("crates/core/Cargo.toml", &m, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "crate-dag");
        assert_eq!(out[0].line, 4);
        assert!(out[0].message.contains("par-core"));
    }

    #[test]
    fn unknown_crate_must_declare_its_layer() {
        let m = parse_crate_manifest("[package]\nname = \"par-new-thing\"\n");
        let mut out = Vec::new();
        check_dag("crates/new/Cargo.toml", &m, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("declare its layer"));
    }
}
