//! Golden-diagnostics test: copy the fixtures into a synthetic workspace
//! tree, run the pass, and compare the exact (path, line, rule) set. Also
//! proves the allowlist excuses exactly what it names, and nothing else.
//!
//! Fixtures live under `tests/fixtures/`, a directory name the walker
//! skips, so scanning the real repository never sees them.

use std::fs;
use std::path::{Path, PathBuf};

use stem_tidy::{scan, Allowlist};

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&p).unwrap_or_else(|e| panic!("read fixture {name}: {e}"))
}

/// Materialize `(workspace-relative path, fixture name)` pairs under a
/// scratch root and return it.
fn build_tree(tag: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir().join(format!("stem-tidy-golden-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    for (rel, name) in files {
        let abs = root.join(rel);
        fs::create_dir_all(abs.parent().expect("has parent")).expect("mkdir");
        fs::write(&abs, fixture(name)).expect("write");
    }
    root
}

const TREE: [(&str, &str); 11] = [
    ("crates/core/src/entropy.rs", "entropy.rs"),
    ("crates/sim/src/sampled.rs", "hot_alloc.rs"),
    ("crates/core/src/unwrap.rs", "unwrap.rs"),
    ("crates/sim/src/float_eq.rs", "float_eq.rs"),
    ("crates/stats/src/panic.rs", "panic.rs"),
    ("crates/cluster/src/debug_print.rs", "debug_print.rs"),
    ("crates/workload/src/lib.rs", "no_headers_lib.rs"),
    ("crates/profile/src/lib.rs", "clean_lib.rs"),
    ("crates/profile/src/ingest_panic.rs", "ingest_panic.rs"),
    ("crates/baselines/src/hygiene.rs", "hygiene.rs"),
    ("crates/core/Cargo.toml", "bad_manifest.toml"),
];

#[test]
fn fixtures_produce_exactly_the_golden_diagnostics() {
    let root = build_tree("all", &TREE);
    let report = scan(&root, &Allowlist::default());
    let _ = fs::remove_dir_all(&root);

    let mut got: Vec<(String, usize, &str)> = report
        .violations
        .iter()
        .map(|v| (v.path.clone(), v.line, v.rule))
        .collect();
    got.sort();

    let mut want: Vec<(String, usize, &str)> = vec![
        ("crates/baselines/src/hygiene.rs".into(), 2, "hygiene"),
        (
            "crates/cluster/src/debug_print.rs".into(),
            3,
            "no-debug-print",
        ),
        (
            "crates/cluster/src/debug_print.rs".into(),
            4,
            "no-debug-print",
        ),
        ("crates/core/Cargo.toml".into(), 6, "hermetic-deps"),
        ("crates/core/Cargo.toml".into(), 7, "hermetic-deps"),
        ("crates/core/Cargo.toml".into(), 11, "hermetic-deps"),
        ("crates/core/src/entropy.rs".into(), 3, "no-entropy-rng"),
        ("crates/core/src/unwrap.rs".into(), 4, "no-unwrap"),
        ("crates/core/src/unwrap.rs".into(), 8, "no-unwrap"),
        (
            "crates/profile/src/ingest_panic.rs".into(),
            4,
            "no-ingest-panic",
        ),
        (
            "crates/profile/src/ingest_panic.rs".into(),
            6,
            "no-ingest-panic",
        ),
        ("crates/sim/src/float_eq.rs".into(), 4, "no-float-eq"),
        ("crates/stats/src/panic.rs".into(), 3, "no-panic"),
        ("crates/stats/src/panic.rs".into(), 7, "no-panic"),
        ("crates/workload/src/lib.rs".into(), 0, "lint-headers"),
        ("crates/workload/src/lib.rs".into(), 0, "lint-headers"),
    ];
    want.sort();

    assert_eq!(
        got,
        want,
        "diagnostics:\n{}",
        report.diagnostics().join("\n")
    );
    assert_eq!(report.files_scanned, TREE.len());

    // The hot-alloc and unused-pub hits are advisory: they surface as
    // warnings, not violations, and never dirty the tree on their own.
    // Every fixture is library source and no fixture calls another, so
    // each public function warns as unused.
    let mut warns: Vec<(String, usize, &str)> = report
        .warnings
        .iter()
        .map(|v| (v.path.clone(), v.line, v.rule))
        .collect();
    warns.sort();
    assert_eq!(
        warns,
        vec![
            (
                "crates/baselines/src/hygiene.rs".to_string(),
                3,
                "unused-pub"
            ),
            (
                "crates/cluster/src/debug_print.rs".to_string(),
                2,
                "unused-pub"
            ),
            ("crates/core/src/entropy.rs".to_string(), 2, "unused-pub"),
            ("crates/core/src/unwrap.rs".to_string(), 7, "unused-pub"),
            (
                "crates/profile/src/ingest_panic.rs".to_string(),
                3,
                "unused-pub"
            ),
            ("crates/profile/src/lib.rs".to_string(), 6, "unused-pub"),
            ("crates/sim/src/float_eq.rs".to_string(), 3, "unused-pub"),
            ("crates/sim/src/float_eq.rs".to_string(), 7, "unused-pub"),
            ("crates/sim/src/sampled.rs".to_string(), 3, "unused-pub"),
            ("crates/sim/src/sampled.rs".to_string(), 4, "no-hot-alloc"),
            ("crates/sim/src/sampled.rs".to_string(), 6, "no-hot-alloc"),
            ("crates/stats/src/panic.rs".to_string(), 2, "unused-pub"),
            ("crates/stats/src/panic.rs".to_string(), 6, "unused-pub"),
            ("crates/workload/src/lib.rs".to_string(), 3, "unused-pub"),
        ],
        "warnings:\n{}",
        report.warning_diagnostics().join("\n")
    );
}

/// `unused-pub` counts a mention anywhere outside library tests: in other
/// library code, integration tests, binaries and perfbench. Unit tests,
/// comments, string literals and `use` items do not count.
#[test]
fn unused_pub_counts_callers_outside_library_tests() {
    let root = build_tree(
        "unused-pub",
        &[
            ("crates/core/src/api.rs", "unused_pub_lib.rs"),
            ("crates/core/tests/api.rs", "unused_pub_test.rs"),
            ("crates/core/src/bin/tool.rs", "unused_pub_bin.rs"),
            ("perfbench/src/main.rs", "unused_pub_perfbench.rs"),
            ("crates/sim/src/uses.rs", "unused_pub_import.rs"),
        ],
    );
    let report = scan(&root, &Allowlist::default());
    let _ = fs::remove_dir_all(&root);

    assert!(
        report.is_clean(),
        "diagnostics:\n{}",
        report.diagnostics().join("\n")
    );
    let warns: Vec<(String, usize, &str)> = report
        .warnings
        .iter()
        .map(|v| (v.path.clone(), v.line, v.rule))
        .collect();
    assert_eq!(
        warns,
        vec![
            ("crates/core/src/api.rs".to_string(), 5, "unused-pub"),
            ("crates/core/src/api.rs".to_string(), 25, "unused-pub"),
            ("crates/core/src/api.rs".to_string(), 35, "unused-pub"),
        ],
        "warnings:\n{}",
        report.warning_diagnostics().join("\n")
    );
    assert!(report.warnings[0].message.contains("`pub fn only_tested`"));

    // An allowlist entry excuses the file's hits and stays non-stale.
    let root = build_tree(
        "unused-pub-allow",
        &[("crates/core/src/api.rs", "unused_pub_lib.rs")],
    );
    let allow = Allowlist::parse(
        "[unused-pub]\n\"crates/core/src/api.rs\" = \"fixture: every function is an example\"\n",
    )
    .expect("allowlist parses");
    let report = scan(&root, &allow);
    let _ = fs::remove_dir_all(&root);
    assert!(
        report.is_clean() && report.warnings.is_empty(),
        "{:?}",
        report.warning_diagnostics()
    );
    assert_eq!(
        report.allowed, 6,
        "every pub fn but from_library is unused here"
    );
}

/// A test attribute covers exactly the item it is attached to: after
/// `#[cfg(test)] use super::*;` the next fn is library code again.
#[test]
fn test_attribute_ends_with_its_item() {
    let root = build_tree(
        "cfg-test-use",
        &[("crates/core/src/a.rs", "cfg_test_use.rs")],
    );
    let report = scan(&root, &Allowlist::default());
    let _ = fs::remove_dir_all(&root);

    let got: Vec<(String, usize, &str)> = report
        .violations
        .iter()
        .map(|v| (v.path.clone(), v.line, v.rule))
        .collect();
    assert_eq!(
        got,
        vec![("crates/core/src/a.rs".to_string(), 7, "no-unwrap")],
        "diagnostics:\n{}",
        report.diagnostics().join("\n")
    );
}

#[test]
fn allowlist_excuses_named_files_only() {
    let root = build_tree("allow", &TREE);
    let allow = Allowlist::parse(concat!(
        "[no-unwrap]\n",
        "\"crates/core/src/unwrap.rs\" = \"fixture invariants hold\"\n",
        "[no-panic]\n",
        "\"crates/stats/src/panic.rs\" = \"fixture exemption\"\n",
    ))
    .expect("allowlist parses");
    let report = scan(&root, &allow);
    let _ = fs::remove_dir_all(&root);

    assert_eq!(report.allowed, 4, "2 unwraps + 2 panics excused");
    assert!(
        !report
            .violations
            .iter()
            .any(|v| v.rule == "no-unwrap" || v.rule == "no-panic"),
        "allowlisted rules still reported:\n{}",
        report.diagnostics().join("\n")
    );
    // Everything else still fires.
    assert!(report.violations.iter().any(|v| v.rule == "hermetic-deps"));
    assert!(report.violations.iter().any(|v| v.rule == "no-float-eq"));
}
