//! Golden tests for the call-graph semantic rules: each of `memo-purity`,
//! `rng-stream-discipline` and `ordered-float-reduce` gets one true
//! positive (exact path/line/rule asserted) and one allowlisted case
//! (excused with a justification, counted, and *not* reported stale).

use std::fs;
use std::path::{Path, PathBuf};

use stem_tidy::{scan, Allowlist};

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&p).unwrap_or_else(|e| panic!("read fixture {name}: {e}"))
}

const TREE: [(&str, &str); 3] = [
    ("crates/sim/src/memo.rs", "semantic_memo.rs"),
    ("crates/core/src/eval.rs", "semantic_rng.rs"),
    ("crates/cluster/src/accum.rs", "semantic_float.rs"),
];

/// Materialize `(workspace-relative path, fixture name)` pairs under a
/// scratch root and return it.
fn build_tree(tag: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir().join(format!("stem-tidy-sem-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    for (rel, name) in files {
        let abs = root.join(rel);
        fs::create_dir_all(abs.parent().expect("has parent")).expect("mkdir");
        fs::write(&abs, fixture(name)).expect("write");
    }
    root
}

#[test]
fn each_semantic_rule_has_a_true_positive() {
    let root = build_tree("tp", &TREE);
    let report = scan(&root, &Allowlist::default());
    let _ = fs::remove_dir_all(&root);

    let mut got: Vec<(String, usize, &str)> = report
        .violations
        .iter()
        .map(|v| (v.path.clone(), v.line, v.rule))
        .collect();
    got.sort();
    let mut want: Vec<(String, usize, &str)> = vec![
        (
            "crates/cluster/src/accum.rs".into(),
            5,
            "ordered-float-reduce",
        ),
        ("crates/core/src/eval.rs".into(), 4, "rng-stream-discipline"),
        ("crates/sim/src/memo.rs".into(), 11, "memo-purity"),
    ];
    want.sort();
    assert_eq!(
        got,
        want,
        "diagnostics:\n{}",
        report.diagnostics().join("\n")
    );

    // The memo-purity diagnostic carries the full call path to the impure
    // leaf, not just the leaf location.
    let memo = report
        .violations
        .iter()
        .find(|v| v.rule == "memo-purity")
        .expect("memo-purity fired");
    assert!(memo.message.contains("call path:"), "{}", memo.message);
    assert!(memo.message.contains("warm"), "{}", memo.message);
    assert!(memo.message.contains("Instant::now"), "{}", memo.message);
}

/// `#[cfg(not(test))]` guards live code: an impure leaf under it is still
/// reachable from the memo insert path and must be reported.
#[test]
fn cfg_not_test_code_is_analyzed() {
    let root = build_tree(
        "cfg-not-test",
        &[("crates/sim/src/memo.rs", "semantic_memo_cfg_not_test.rs")],
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
        vec![("crates/sim/src/memo.rs".to_string(), 9, "memo-purity")],
        "diagnostics:\n{}",
        report.diagnostics().join("\n")
    );
}

#[test]
fn each_semantic_rule_is_allowlistable_without_going_stale() {
    let root = build_tree("allow", &TREE);
    let allow = Allowlist::parse(concat!(
        "[memo-purity]\n",
        "\"crates/sim/src/memo.rs\" = \"fixture: clock read is fingerprint-invariant here\"\n",
        "[rng-stream-discipline]\n",
        "\"crates/core/src/eval.rs\" = \"fixture: affine derivation pinned by committed goldens\"\n",
        "[ordered-float-reduce]\n",
        "\"crates/cluster/src/accum.rs\" = \"fixture: accumulator is a per-task scratch in context\"\n",
    ))
    .expect("allowlist parses");
    let report = scan(&root, &allow);
    let _ = fs::remove_dir_all(&root);

    assert!(
        report.violations.is_empty(),
        "allowlisted semantic findings still reported:\n{}",
        report.diagnostics().join("\n")
    );
    assert_eq!(report.allowed, 3, "one excused hit per semantic rule");
}

#[test]
fn stale_semantic_entry_is_flagged() {
    let root = build_tree("stale", &TREE);
    // Excuses a rule/file pair that has no hit: eval.rs has an rng finding
    // but no memo-purity finding.
    let allow = Allowlist::parse(concat!(
        "[memo-purity]\n",
        "\"crates/core/src/eval.rs\" = \"nothing to excuse here\"\n",
    ))
    .expect("allowlist parses");
    let report = scan(&root, &allow);
    let _ = fs::remove_dir_all(&root);

    assert!(
        report
            .violations
            .iter()
            .any(|v| v.rule == "hygiene" && v.message.contains("stale allowlist entry")),
        "stale per-rule-per-file entry not flagged:\n{}",
        report.diagnostics().join("\n")
    );
}
