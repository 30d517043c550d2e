//! Smoke tests for the `phocus` CLI binary.

use std::process::Command;

fn phocus(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_phocus"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn demo_prints_figure1_report() {
    let out = phocus(&["demo"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Figure 1"));
    assert!(text.contains("PHOcus run report"));
    assert!(text.contains("selection order"));
}

#[test]
fn table2_lists_eight_datasets() {
    let out = phocus(&["table2"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["P-1K", "P-100K", "EC-Fashion", "EC-Home & Garden"] {
        assert!(text.contains(name), "missing {name}");
    }
}

#[test]
fn solve_tiny_dataset() {
    let out = phocus(&[
        "solve",
        "--dataset",
        "tiny",
        "--budget-mb",
        "3",
        "--tau",
        "0.6",
        "--seed",
        "7",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("retained"));
    assert!(text.contains("online bound"));
    assert!(text.contains("sparsification"));
}

#[test]
fn suite_tiny_dataset() {
    let out = phocus(&[
        "suite",
        "--dataset",
        "tiny",
        "--budget-mb",
        "2",
        "--seed",
        "3",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("PHOcus"));
    assert!(text.contains("RAND-A"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = phocus(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("USAGE"));
}

#[test]
fn help_prints_usage() {
    let out = phocus(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn missing_dataset_argument_errors() {
    let out = phocus(&["solve", "--budget-mb", "5"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--dataset"));
}

#[test]
fn malformed_file_exits_nonzero_with_readable_message() {
    let path = std::env::temp_dir().join("phocus_cli_malformed.universe");
    std::fs::write(&path, "photo\t0\tnot-a-number\tbroken\n").unwrap();
    let out = phocus(&[
        "solve",
        "--dataset",
        &format!("file:{}", path.display()),
        "--budget-mb",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(3), "bad data exits 3");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error:"), "diagnostic prefix: {err}");
    assert!(err.contains("line 1"), "points at the offending line: {err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn nan_weight_file_is_rejected_as_invalid_data() {
    let path = std::env::temp_dir().join("phocus_cli_nan.universe");
    std::fs::write(
        &path,
        "photo\t0\t100\ta\nembedding\t0\t1.0\nsubset\tq\tNaN\t0:1\n",
    )
    .unwrap();
    let out = phocus(&[
        "solve",
        "--dataset",
        &format!("file:{}", path.display()),
        "--budget-mb",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("weight"), "names the bad field: {err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_file_exits_with_io_code() {
    let out = phocus(&[
        "solve",
        "--dataset",
        "file:/nonexistent/phocus.universe",
        "--budget-mb",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(4), "I/O failure exits 4");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("/nonexistent/phocus.universe"), "names the path: {err}");
}

#[test]
fn bad_flag_value_exits_with_usage_code() {
    let out = phocus(&["solve", "--dataset", "tiny", "--budget-mb", "lots"]);
    assert_eq!(out.status.code(), Some(2), "usage error exits 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--budget-mb"));
}

#[test]
fn compress_compares_remove_vs_compress() {
    let out = phocus(&[
        "compress",
        "--dataset",
        "tiny",
        "--budget-mb",
        "1.5",
        "--seed",
        "4",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("remove-only quality"));
    assert!(text.contains("compressed renditions"));
}

#[test]
fn compress_zero_score_budget_prints_no_nan() {
    // A budget below the cheapest photo retains nothing, so the remove-only
    // score is 0 and an improvement percentage would divide by zero. The
    // report must omit the percentage, not print NaN or inf.
    let out = phocus(&[
        "compress",
        "--dataset",
        "tiny",
        "--budget-mb",
        "0.000001",
        "--seed",
        "4",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("remove-only quality"), "{text}");
    assert!(!text.contains("NaN"), "{text}");
    assert!(!text.contains("inf"), "{text}");
    assert!(!text.contains('%'), "no percentage against a zero base: {text}");
}

#[test]
fn compress_bad_ladder_spec_exits_invalid_data() {
    for spec in ["2.0:0.5", "0.8:0.0,abc", "0.9"] {
        let out = phocus(&[
            "compress",
            "--dataset",
            "tiny",
            "--budget-mb",
            "1.5",
            "--ladder",
            spec,
        ]);
        assert_eq!(out.status.code(), Some(3), "bad ladder {spec:?} exits 3");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("ladder"), "names the ladder ({spec:?}): {err}");
    }
}

#[test]
fn compress_delete_only_ladder_reports_equal_scores() {
    let out = phocus(&[
        "compress",
        "--dataset",
        "tiny",
        "--budget-mb",
        "1.5",
        "--seed",
        "4",
        "--ladder",
        "none",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let score_after = |tag: &str| {
        let line = text.lines().find(|l| l.starts_with(tag)).unwrap();
        line[tag.len()..].trim().split(' ').next().unwrap().to_string()
    };
    assert_eq!(
        score_after("remove-only quality:"),
        score_after("compression-aware quality:"),
        "delete-only ladder must reproduce remove-only: {text}"
    );
    assert!(text.contains("0 compressed renditions"), "{text}");
}

#[test]
fn compress_writes_action_tsv() {
    let out_path = std::env::temp_dir().join("phocus_cli_actions.tsv");
    let out = phocus(&[
        "compress",
        "--dataset",
        "tiny",
        "--budget-mb",
        "1.5",
        "--seed",
        "4",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote retained actions"));
    let content = std::fs::read_to_string(&out_path).unwrap();
    assert!(!content.is_empty());
    // Each line: id \t parent \t action \t cost \t name.
    for line in content.lines() {
        let cols: Vec<_> = line.split('\t').collect();
        assert_eq!(cols.len(), 5, "line: {line}");
        assert!(
            cols[2] == "keep" || cols[2].starts_with("recompress@"),
            "action column: {line}"
        );
    }
    std::fs::remove_file(&out_path).ok();
}

#[test]
fn compress_frontier_prints_curve() {
    let out = phocus(&[
        "compress",
        "--dataset",
        "tiny",
        "--budget-mb",
        "1.5",
        "--seed",
        "4",
        "--frontier",
        "3",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("frontier\tbudget_mb\tdelete_only\tmulti_action"), "{text}");
    let rows: Vec<_> = text
        .lines()
        .filter(|l| l.starts_with("frontier\t") && !l.contains("budget_mb"))
        .collect();
    assert_eq!(rows.len(), 3, "{text}");
    for row in rows {
        assert_eq!(row.split('\t').count(), 4, "row: {row}");
    }
}

#[test]
fn hostile_budgets_exit_with_usage_code() {
    // Negative, NaN, infinite and out-of-range budgets used to saturate to
    // a 0-byte or u64::MAX budget and exit 0.
    for verb in ["solve", "compress", "epochs", "suite"] {
        for budget in ["-5", "NaN", "inf", "1e30"] {
            let out = phocus(&[verb, "--dataset", "tiny", "--budget-mb", budget]);
            assert_eq!(out.status.code(), Some(2), "{verb} --budget-mb {budget}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("--budget-mb"), "{verb} {budget}: {stderr}");
        }
    }
}

#[test]
fn unread_flags_exit_with_usage_code() {
    // A misspelled flag must not silently solve at the default budget, and
    // the retired path-selecting flags are rejected, not ignored.
    // The unread flag comes right after the verb in each case.
    let cases: [&[&str]; 5] = [
        &["solve", "--budget_mb", "1", "--dataset", "tiny"],
        &["solve", "--no-sharding", "--dataset", "tiny"],
        &["compress", "--no-sharding", "--dataset", "tiny"],
        &["serve-batch", "--fresh-arenas", "--list", "tenants.txt"],
        &["serve-batch", "--fresh-arenas", "--catalog", "catalog"],
    ];
    for args in cases {
        let out = phocus(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(args[1]), "{args:?}: {stderr}");
    }
}

#[test]
fn solve_writes_retained_list() {
    let out_path = std::env::temp_dir().join("phocus_cli_retained.tsv");
    let out = phocus(&[
        "solve",
        "--dataset",
        "tiny",
        "--budget-mb",
        "2",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let content = std::fs::read_to_string(&out_path).unwrap();
    assert!(!content.is_empty());
    // Each line: id \t cost \t name.
    let first = content.lines().next().unwrap();
    assert_eq!(first.split('\t').count(), 3);
    std::fs::remove_file(&out_path).ok();
}

/// Runs `args` plus `--threads N --out <file>` at each thread count and
/// returns, per count, stdout without the lines `volatile` rejects, and the
/// written file.
fn runs_at_thread_counts(
    tag: &str,
    args: &[&str],
    volatile: fn(&str) -> bool,
) -> Vec<(String, String)> {
    let out_path = std::env::temp_dir().join(format!("phocus_cli_{tag}.tsv"));
    ["1", "4"]
        .iter()
        .map(|threads| {
            let mut full = args.to_vec();
            full.extend(["--threads", threads, "--out", out_path.to_str().unwrap()]);
            let out = phocus(&full);
            assert!(
                out.status.success(),
                "{tag} --threads {threads}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout: String = String::from_utf8_lossy(&out.stdout)
                .lines()
                .filter(|l| !volatile(l))
                .map(|l| format!("{l}\n"))
                .collect();
            let file = std::fs::read_to_string(&out_path).unwrap();
            std::fs::remove_file(&out_path).ok();
            (stdout, file)
        })
        .collect()
}

#[test]
fn solve_and_compress_output_is_identical_at_1_and_4_threads() {
    // The LSH default path of `solve`: only the wall-clock line may differ.
    let solve = runs_at_thread_counts(
        "threads_solve",
        &["solve", "--dataset", "p1k", "--budget-mb", "1"],
        |l| l.starts_with("time:"),
    );
    assert!(solve[0].0.contains("quality:"), "{}", solve[0].0);
    assert_eq!(solve[0].0, solve[1].0, "solve stdout");
    assert_eq!(solve[0].1, solve[1].1, "solve retained set");

    // The dense path of `compress`: only the `wrote` lines may differ.
    let compress = runs_at_thread_counts(
        "threads_compress",
        &[
            "compress",
            "--dataset",
            "p1k",
            "--budget-mb",
            "1",
            "--ladder",
            "0.85:0.35,0.55:0.10",
        ],
        |l| l.starts_with("wrote"),
    );
    assert!(compress[0].0.contains("compressed renditions"), "{}", compress[0].0);
    assert_eq!(compress[0].0, compress[1].0, "compress stdout");
    assert_eq!(compress[0].1, compress[1].1, "compress actions");
}

/// Exports two small universes and writes a serve-batch list file naming
/// them (plus any extra raw lines the caller appends).
fn write_batch_fixture(tag: &str, extra_lines: &[&str]) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("phocus_cli_batch_{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    let mut list = String::new();
    for (i, seed) in [3u64, 9].into_iter().enumerate() {
        let path = dir.join(format!("tenant{i}.universe"));
        let out = phocus(&[
            "export",
            "--dataset",
            "tiny",
            "--seed",
            &seed.to_string(),
            "--out",
            path.to_str().unwrap(),
        ]);
        assert!(out.status.success());
        list.push_str(&format!("{}\n", path.display()));
    }
    for line in extra_lines {
        list.push_str(line);
        list.push('\n');
    }
    let list_path = dir.join("tenants.txt");
    std::fs::write(&list_path, list).unwrap();
    list_path
}

#[test]
fn serve_batch_solves_every_tenant_and_writes_solutions() {
    let list = write_batch_fixture("ok", &["# a comment", ""]);
    let out_dir = list.parent().unwrap().join("solutions");
    let out = phocus(&[
        "serve-batch",
        "--list",
        list.to_str().unwrap(),
        "--budget-frac",
        "0.3",
        "--out-dir",
        out_dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.matches("ok\t").count(), 2, "one ok line per tenant: {text}");
    assert!(text.contains("inst_per_sec="), "throughput summary: {text}");
    assert!(text.contains("failed=0"), "no failures: {text}");
    // One retained-set file per solved tenant, one photo id per line.
    let mut files: Vec<_> = std::fs::read_dir(&out_dir).unwrap().collect();
    assert_eq!(files.len(), 2);
    let first = files.pop().unwrap().unwrap();
    let content = std::fs::read_to_string(first.path()).unwrap();
    assert!(content.lines().all(|l| l.parse::<u32>().is_ok()));
    std::fs::remove_dir_all(list.parent().unwrap()).ok();
}

#[test]
fn serve_batch_malformed_tenant_fails_that_tenant_not_the_batch() {
    let dir = std::env::temp_dir().join("phocus_cli_batch_partial");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("broken.universe");
    std::fs::write(&bad, "photo\t0\tnot-a-number\tbroken\n").unwrap();
    let missing = dir.join("does_not_exist.universe");
    let list = write_batch_fixture(
        "partial",
        &[bad.to_str().unwrap(), missing.to_str().unwrap()],
    );
    let out = phocus(&["serve-batch", "--list", list.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(5), "partial failure exits 5");
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.matches("ok\t").count(), 2, "healthy tenants solve: {text}");
    assert_eq!(text.matches("fail\t").count(), 2, "both bad tenants fail: {text}");
    assert!(text.contains("broken.universe"), "names the bad file: {text}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("2 of 4 tenants failed"),
        "stderr summary: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(list.parent().unwrap()).ok();
}

#[test]
fn serve_batch_without_list_is_a_usage_error() {
    let out = phocus(&["serve-batch"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--list"));
}

#[test]
fn serve_batch_missing_list_file_is_an_io_error() {
    let out = phocus(&["serve-batch", "--list", "/nonexistent/tenants.txt"]);
    assert_eq!(out.status.code(), Some(4), "unreadable batch list exits 4");
}

#[test]
fn serve_batch_fresh_arenas_matches_reused_arenas() {
    // On one worker thread the second tenant of a batch is solved in the
    // arenas the first one left behind; a one-tenant batch starts from
    // fresh arenas. The solution columns must agree either way.
    let list = write_batch_fixture("arenas", &[]);
    let solve = |list: &std::path::Path| {
        let out = phocus(&[
            "serve-batch",
            "--list",
            list.to_str().unwrap(),
            "--seed",
            "5",
            "--threads",
            "1",
        ]);
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // Strip the timing columns — only the solution columns must match.
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.starts_with("ok\t"))
            .map(|l| l.rsplit_once("\tms=").unwrap().0.to_string())
            .collect::<Vec<_>>()
    };
    let reused = solve(&list);
    assert_eq!(reused.len(), 2, "both tenants solve: {reused:?}");
    let mut fresh = Vec::new();
    for (i, tenant) in std::fs::read_to_string(&list).unwrap().lines().enumerate() {
        let one = list.parent().unwrap().join(format!("single{i}.txt"));
        std::fs::write(&one, format!("{tenant}\n")).unwrap();
        fresh.extend(solve(&one));
    }
    assert_eq!(reused, fresh, "arena reuse must not change solutions");
    std::fs::remove_dir_all(list.parent().unwrap()).ok();
}

#[test]
fn usage_documents_serve_batch_exit_code() {
    let out = phocus(&["--help"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("serve-batch"));
    assert!(text.contains("5 partial failure"));
}

#[test]
fn export_then_solve_from_file() {
    let path = std::env::temp_dir().join("phocus_cli_export.universe");
    let out = phocus(&[
        "export",
        "--dataset",
        "tiny",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = phocus(&[
        "solve",
        "--dataset",
        &format!("file:{}", path.display()),
        "--budget-mb",
        "2",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&path).ok();
}

/// Exports two tiny universes with *distinct* tenant names (exports are
/// all named "tiny", and `catalog build` rejects duplicates) and writes a
/// list file naming them.
fn write_catalog_fixture(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("phocus_cli_catalog_{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    let mut list = String::new();
    for (i, seed) in [3u64, 9].into_iter().enumerate() {
        let path = dir.join(format!("tenant{i}.universe"));
        let out = phocus(&[
            "export",
            "--dataset",
            "tiny",
            "--seed",
            &seed.to_string(),
            "--out",
            path.to_str().unwrap(),
        ]);
        assert!(out.status.success());
        let text = std::fs::read_to_string(&path).unwrap();
        let renamed = text.replacen("name\ttiny", &format!("name\ttenant{i}"), 1);
        assert_ne!(renamed, text, "export must carry a name line");
        std::fs::write(&path, renamed).unwrap();
        list.push_str(&format!("{}\n", path.display()));
    }
    let list_path = dir.join("tenants.txt");
    std::fs::write(&list_path, list).unwrap();
    list_path
}

#[test]
fn pack_writes_a_deterministic_image_that_passes_check() {
    let dir = std::env::temp_dir().join("phocus_cli_pack_rt");
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.pack");
    let b = dir.join("b.pack");
    for path in [&a, &b] {
        let out = phocus(&[
            "pack",
            "--dataset",
            "tiny",
            "--budget-mb",
            "2",
            "--out",
            path.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("wrote\t"));
    }
    // Canonical format: same dataset, byte-identical images across runs.
    assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    let out = phocus(&["pack", "--check", a.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("ok\t"), "{text}");
    assert!(text.contains("photos="), "{text}");
    assert!(text.contains("shards="), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pack_check_rejects_a_non_pack_file_as_invalid_data() {
    let path = std::env::temp_dir().join("phocus_cli_not_a.pack");
    std::fs::write(&path, "this is not a pack file").unwrap();
    let out = phocus(&["pack", "--check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "bad pack data exits 3");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("magic"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn pack_without_out_is_a_usage_error() {
    let out = phocus(&["pack", "--dataset", "tiny"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));
}

#[test]
fn catalog_build_ls_then_serve_off_the_catalog() {
    let list = write_catalog_fixture("serve");
    let dir = list.parent().unwrap();
    let cat = dir.join("catalog");
    let out = phocus(&[
        "catalog",
        "build",
        "--list",
        list.to_str().unwrap(),
        "--out-dir",
        cat.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.matches("packed\t").count(), 2, "{text}");
    assert!(text.contains("tenants=2"), "{text}");

    let out = phocus(&["catalog", "ls", cat.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.matches("tenant\t").count(), 2, "{text}");
    assert!(text.contains("tenant\ttenant0\t"), "{text}");

    let sol = dir.join("solutions");
    let out = phocus(&[
        "serve-batch",
        "--catalog",
        cat.to_str().unwrap(),
        "--out-dir",
        sol.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.matches("ok\t").count(), 2, "{text}");
    assert!(text.contains("failed=0"), "{text}");
    assert_eq!(std::fs::read_dir(&sol).unwrap().count(), 2);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn catalog_serve_matches_list_serve_bit_for_bit() {
    let list = write_catalog_fixture("equiv");
    let dir = list.parent().unwrap();
    let cat = dir.join("catalog");
    // Same defaults on both paths: budget 25% of each tenant's archive,
    // LSH tau 0.6 seed 42 — the pair must agree on every solution column.
    let out = phocus(&[
        "catalog",
        "build",
        "--list",
        list.to_str().unwrap(),
        "--out-dir",
        cat.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let solution_lines = |out: std::process::Output| {
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.starts_with("ok\t"))
            .map(|l| l.rsplit_once("\tms=").unwrap().0.to_string())
            .collect::<Vec<_>>()
    };
    let from_list = solution_lines(phocus(&["serve-batch", "--list", list.to_str().unwrap()]));
    let from_cat = solution_lines(phocus(&["serve-batch", "--catalog", cat.to_str().unwrap()]));
    assert_eq!(from_list.len(), 2);
    assert_eq!(from_list, from_cat, "pack loads must not change solutions");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn catalog_build_rejects_duplicate_tenant_names() {
    // Two exports of the same dataset share the name "tiny"; a catalog
    // that silently kept one would serve wrong fleets forever after.
    let list = write_batch_fixture("dup_names", &[]);
    let cat = list.parent().unwrap().join("catalog");
    let out = phocus(&[
        "catalog",
        "build",
        "--list",
        list.to_str().unwrap(),
        "--out-dir",
        cat.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3), "duplicate names exit 3");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("duplicate"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(list.parent().unwrap()).ok();
}

#[test]
fn serve_batch_catalog_corrupt_pack_fails_that_tenant_not_the_batch() {
    let list = write_catalog_fixture("corrupt");
    let dir = list.parent().unwrap();
    let cat = dir.join("catalog");
    let out = phocus(&[
        "catalog",
        "build",
        "--list",
        list.to_str().unwrap(),
        "--out-dir",
        cat.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    // Flip one payload byte in the first tenant's pack: the whole-file
    // checksum in catalog.idx no longer matches.
    let pack = cat.join("pk00000.pack");
    let mut bytes = std::fs::read(&pack).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&pack, bytes).unwrap();
    let out = phocus(&["serve-batch", "--catalog", cat.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(5), "partial failure exits 5");
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.matches("ok\t").count(), 1, "healthy tenant solves: {text}");
    assert_eq!(text.matches("fail\t").count(), 1, "corrupt tenant fails: {text}");
    assert!(text.contains("fail\ttenant0"), "names the tenant: {text}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn catalog_ls_missing_directory_is_an_io_error() {
    let out = phocus(&["catalog", "ls", "/nonexistent/catalog"]);
    assert_eq!(out.status.code(), Some(4));
}

#[test]
fn usage_documents_pack_and_catalog() {
    let out = phocus(&["--help"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("pack"), "{text}");
    assert!(text.contains("catalog"), "{text}");
    assert!(text.contains("--catalog"), "{text}");
}
