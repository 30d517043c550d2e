#!/usr/bin/env bash
# Full local CI: build, lint, test, gates, and the benchmark's build.
#
#   ./ci.sh            # everything
#
# There is one build configuration. Serial/parallel equivalence is a
# runtime property: the determinism suite pins golden transcript hashes and
# checks them at 1, 2 and 8 threads, and the CLI tests diff `--threads 1`
# against `--threads 4` output.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

# Static analysis gates the test steps: determinism (float-ord, hash-iter,
# wall-clock, reduce-order), layering (crate-dag), hygiene
# (no-print, no-unsafe), and hot-path/pack-safety (alloc-hot, cast-bounds)
# regressions fail fast with file:line spans. See DESIGN.md §12 and §17.
echo "==> phocus-lint (workspace static analysis)"
cargo run --release -q -p par-lint

# Schema drift gate: the registry the --json v2 schema exposes must match
# the checked-in rule list exactly (order included) — a rule added, renamed,
# or dropped without updating lint-rules.txt (and the consumers reading the
# JSON) fails here, not in a downstream dashboard.
echo "==> phocus-lint --json schema + rule-registry drift check"
cargo run --release -q -p par-lint -- --json > /tmp/phocus_lint.json
head -c 32 /tmp/phocus_lint.json | grep -q '^{"version":2,"rules":\[' \
  || { echo "phocus-lint --json is not schema v2" >&2; exit 1; }
cargo run --release -q -p par-lint -- rules | diff - lint-rules.txt

echo "==> cargo test"
cargo test -q

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

# Rustdoc gate: a public doc linking a deleted or private item is a broken
# intra-doc link; nothing else checks them.
echo "==> rustdoc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline -q

# Panic-freedom gate: library and binary code must not contain unwrap/expect/
# panic! on any path (internal invariants use assert!/unreachable! instead,
# data-dependent failures return typed errors). Tests, benches, the examples
# crate, and the vendored shims are exempt — --lib --bins skips #[cfg(test)].
# The crate list is derived from workspace metadata via `phocus-lint
# gate-crates`, so a newly added library crate is gated automatically;
# phocus-lint's ci-gate rule cross-checks this stays wired up.
PKG_FLAGS=()
for c in $(cargo run --release -q -p par-lint -- gate-crates); do
  PKG_FLAGS+=(-p "$c")
done
echo "==> clippy panic-freedom gate (library + bins)"
cargo clippy "${PKG_FLAGS[@]}" --lib --bins -- \
  -D warnings -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic

echo "==> no-panic fuzz gate (fixed seeds, bounded corpus)"
cargo test -q -p integration-tests --test no_panic

echo "==> gain-kernel layout bench (quick mode, smoke)"
CRITERION_QUICK=1 cargo bench -p par-bench --bench layout

echo "==> component-sharded solver bench (quick mode, smoke)"
CRITERION_QUICK=1 cargo bench -p par-bench --bench shard

echo "==> multi-tenant fleet bench (quick mode, smoke + engine/naive equivalence assert)"
CRITERION_QUICK=1 cargo bench -p par-bench --bench fleet

echo "==> incremental archiver bench (quick mode, smoke + per-epoch bit-identity assert)"
CRITERION_QUICK=1 cargo bench -p par-bench --bench incremental

echo "==> catalog cold-start bench (quick mode, smoke + pack/text solve bit-identity assert)"
CRITERION_QUICK=1 cargo bench -p par-bench --bench catalog

echo "==> multi-action solver bench (quick mode, smoke + sharded/global transcript assert)"
CRITERION_QUICK=1 cargo bench -p par-bench --bench multiaction

# Pack determinism gate: the phocus-pack format is canonical — packing the
# same dataset twice must produce byte-identical images — and a written
# image must pass the reader's full validation (header, section table,
# checksums, cross-section bounds).
echo "==> pack determinism gate (phocus pack, two runs + cmp + --check)"
PACK_ARGS=(pack --dataset p1k --budget-mb 1)
cargo run --release -q -p phocus -- "${PACK_ARGS[@]}" --out /tmp/phocus_pack_a.pack
cargo run --release -q -p phocus -- "${PACK_ARGS[@]}" --out /tmp/phocus_pack_b.pack
cmp /tmp/phocus_pack_a.pack /tmp/phocus_pack_b.pack
cargo run --release -q -p phocus -- pack --check /tmp/phocus_pack_a.pack

# Churn-replay determinism gate: the same epoch session, replayed twice with
# --check (every epoch verified bit-identical to a from-scratch solve
# in-process), must print byte-identical reports apart from the wall-clock
# ms= field. Catches nondeterminism that only shows up across process runs
# (hash-iteration order, uninitialized reuse) which the in-process goldens
# cannot see.
echo "==> churn-replay determinism gate (phocus epochs --check, two runs)"
EPOCH_ARGS=(epochs --dataset p1k --budget-mb 1 --epochs 6 --churn 0.02 --check)
cargo run --release -q -p phocus -- "${EPOCH_ARGS[@]}" | sed 's/\tms=[0-9.]*//' > /tmp/phocus_epochs_a.txt
cargo run --release -q -p phocus -- "${EPOCH_ARGS[@]}" | sed 's/\tms=[0-9.]*//' > /tmp/phocus_epochs_b.txt
diff /tmp/phocus_epochs_a.txt /tmp/phocus_epochs_b.txt
grep -q '^session.*failed=0$' /tmp/phocus_epochs_a.txt

# Compress determinism gate: the same multi-action solve, run twice, must
# print byte-identical reports and retain the same actions. The plan vs
# global-oracle differential on these arguments is a library test
# (tests/tests/multiaction.rs, ci_ladder_plan_matches_global_oracle).
echo "==> compress determinism gate (phocus compress, two runs)"
COMPRESS_ARGS=(compress --dataset p1k --budget-mb 1 --ladder 0.85:0.35,0.55:0.10)
cargo run --release -q -p phocus -- "${COMPRESS_ARGS[@]}" --out /tmp/phocus_actions_a.tsv | grep -v '^wrote ' > /tmp/phocus_compress_a.txt
cargo run --release -q -p phocus -- "${COMPRESS_ARGS[@]}" --out /tmp/phocus_actions_b.tsv | grep -v '^wrote ' > /tmp/phocus_compress_b.txt
diff /tmp/phocus_compress_a.txt /tmp/phocus_compress_b.txt
diff /tmp/phocus_actions_a.tsv /tmp/phocus_actions_b.tsv
grep -q 'compressed renditions' /tmp/phocus_compress_a.txt

echo "==> bench guard (recorded BENCH_*.json baselines)"
cargo run --release -q -p par-bench --bin bench_guard

# The verb-level benchmark (perfbench/) builds its probe against the
# library's public API; compile and test it here so a library change that
# breaks the benchmark fails CI. The probe's target directory is the one
# perfbench/run.py uses; neither step writes under perfbench/.
echo "==> perfbench probe build + unit tests"
CARGO_TARGET_DIR=.bench_build cargo test --release --offline -q --manifest-path perfbench/probe/Cargo.toml
PYTHONDONTWRITEBYTECODE=1 python3 -m unittest discover -s perfbench -p 'test_*.py'

echo "CI OK"
