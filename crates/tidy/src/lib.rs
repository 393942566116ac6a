//! `stem-tidy` — a zero-dependency, rustc-`tidy`-style static-analysis pass
//! over the STEM+ROOT workspace.
//!
//! Walks every `.rs` and `Cargo.toml` under a root and enforces the
//! project invariants documented in `DESIGN.md` ("Hermetic build & lint
//! invariants"): hermetic path-only dependencies, seeded-RNG-only
//! randomness, no `unwrap()`/`expect()` or debug prints in library code, no
//! bare float equality, no `panic!` family on hot paths, lint headers in
//! every `lib.rs`, and file-length/marker hygiene. Diagnostics are
//! `file:line` lines plus one machine-readable JSON summary.
//!
//! The pass runs from tier-1 CI (`ci.sh`, and a `#[test]` in
//! `tests/workspace_clean.rs` that shells out to it), so every PR is
//! linted. Per-file exemptions live in `crates/tidy/allowlist.toml` and
//! require a written justification; stale entries are themselves errors.

// Workspace lint headers, enforced by `stem-tidy` (rule `lint-headers`).
#![deny(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod allowlist;
pub mod callgraph;
pub mod parse;
pub mod rules;
pub mod semantic;
pub mod tokens;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

pub use allowlist::Allowlist;
pub use rules::{Severity, Violation};

/// Directory names never descended into.
const SKIP_DIRS: [&str; 4] = ["target", ".git", "fixtures", "results"];

/// Outcome of a full scan.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Files examined (`.rs` + `Cargo.toml`).
    pub files_scanned: usize,
    /// Deny-severity violations that survived the allowlist.
    pub violations: Vec<Violation>,
    /// Warn-severity findings that survived the allowlist: printed and
    /// counted, never a CI failure.
    pub warnings: Vec<Violation>,
    /// Findings (of either severity) excused by the allowlist.
    pub allowed: usize,
}

impl Report {
    /// True when the tree is clean. Warnings never dirty a tree.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Render each violation as `path:line: [rule] message`.
    pub fn diagnostics(&self) -> Vec<String> {
        self.violations
            .iter()
            .map(|v| format!("{}:{}: [{}] {}", v.path, v.line, v.rule, v.message))
            .collect()
    }

    /// Render each warning as `path:line: warning [rule] message`.
    pub fn warning_diagnostics(&self) -> Vec<String> {
        self.warnings
            .iter()
            .map(|v| format!("{}:{}: warning [{}] {}", v.path, v.line, v.rule, v.message))
            .collect()
    }

    /// One-line machine-readable JSON summary, e.g.
    /// `{"files_scanned":163,"violations":0,"warnings":2,"allowed":5,`
    /// `"severity":{"deny":0,"warn":2},"rules":{"no-hot-alloc":2}}`.
    /// `rules` counts surviving findings of both severities.
    pub fn summary_json(&self) -> String {
        let mut per_rule: BTreeMap<&str, usize> = BTreeMap::new();
        for v in self.violations.iter().chain(&self.warnings) {
            *per_rule.entry(v.rule).or_default() += 1;
        }
        let rules: Vec<String> = per_rule
            .iter()
            .map(|(rule, count)| format!("\"{rule}\":{count}"))
            .collect();
        format!(
            "{{\"files_scanned\":{},\"violations\":{},\"warnings\":{},\"allowed\":{},\"severity\":{{\"deny\":{},\"warn\":{}}},\"rules\":{{{}}}}}",
            self.files_scanned,
            self.violations.len(),
            self.warnings.len(),
            self.allowed,
            self.violations.len(),
            self.warnings.len(),
            rules.join(",")
        )
    }

    fn push(&mut self, v: Violation) {
        match rules::severity(v.rule) {
            Severity::Deny => self.violations.push(v),
            Severity::Warn => self.warnings.push(v),
        }
    }
}

/// Scan the workspace at `root` with `allowlist`, returning every
/// diagnostic. IO errors on individual files become violations (rule
/// `hygiene`) rather than aborting the pass. Runs two phases: the
/// token-pattern and manifest rules file by file, then the call-graph
/// semantic rules over the library-source files as one unit.
pub fn scan(root: &Path, allowlist: &Allowlist) -> Report {
    let mut files = Vec::new();
    collect_files(root, root, &mut files);
    files.sort();

    let mut report = Report::default();
    let mut scanned_paths: Vec<String> = Vec::new();
    // How many hits each allowlist entry (rule, path) actually excused.
    let mut excused: BTreeMap<(String, String), usize> = BTreeMap::new();
    // Library-source texts for the semantic pass.
    let mut lib_sources: Vec<(String, String)> = Vec::new();
    // Every Rust source, for the name-based `unused-pub` rule.
    let mut rust_sources: Vec<(String, String)> = Vec::new();

    let take = |report: &mut Report,
                excused: &mut BTreeMap<(String, String), usize>,
                found: Vec<Violation>| {
        for v in found {
            if allowlist.allows(v.rule, &v.path) {
                report.allowed += 1;
                *excused
                    .entry((v.rule.to_string(), v.path.clone()))
                    .or_default() += 1;
            } else {
                report.push(v);
            }
        }
    };

    for rel in &files {
        let abs = root.join(rel);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        scanned_paths.push(rel_str.clone());
        let Ok(text) = fs::read_to_string(&abs) else {
            report.violations.push(Violation {
                path: rel_str,
                line: 0,
                rule: rules::HYGIENE,
                message: "unreadable file".to_string(),
            });
            continue;
        };
        report.files_scanned += 1;
        let found = if rel_str.ends_with("Cargo.toml") {
            rules::check_manifest(&rel_str, &text)
        } else {
            let found = rules::check_rust_file(&rel_str, &text);
            if rules::in_lib_src(&rel_str) {
                lib_sources.push((rel_str.clone(), text.clone()));
            }
            rust_sources.push((rel_str.clone(), text));
            found
        };
        take(&mut report, &mut excused, found);
    }

    // Phase two: build the workspace call graph and run the semantic rules.
    let graph = callgraph::CallGraph::build(&lib_sources);
    take(&mut report, &mut excused, semantic::check(&graph));
    // The name-based unused-API rule stays apart from the call graph.
    take(&mut report, &mut excused, rules::unused_pub(&rust_sources));

    // An allowlist entry that excuses nothing is rot: either the file was
    // fixed (drop the entry), renamed (update it), or the entry names the
    // wrong rule — an exemption justified for one rule must never sit
    // around silently excusing a different rule's future hit.
    for (rule, path, _) in allowlist.entries() {
        let msg = if !scanned_paths.iter().any(|p| p == path) {
            Some(format!(
                "stale allowlist entry for rule `{rule}`: file not found in scan"
            ))
        } else if excused
            .get(&(rule.to_string(), path.to_string()))
            .copied()
            .unwrap_or(0)
            == 0
        {
            Some(format!(
                "stale allowlist entry for rule `{rule}`: the file has no `{rule}` hit to excuse"
            ))
        } else {
            None
        };
        if let Some(message) = msg {
            report.violations.push(Violation {
                path: path.to_string(),
                line: 0,
                rule: rules::HYGIENE,
                message,
            });
        }
    }

    report
}

fn collect_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_files(root, &path, out);
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
}

/// Build the call graph over the workspace's library sources and render
/// the deterministic text dump (`--dump-callgraph`, and the golden
/// snapshot test).
pub fn dump_workspace_callgraph(root: &Path) -> String {
    let mut files = Vec::new();
    collect_files(root, root, &mut files);
    files.sort();
    let mut lib_sources: Vec<(String, String)> = Vec::new();
    for rel in &files {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if rel_str.ends_with(".rs") && rules::in_lib_src(&rel_str) {
            if let Ok(text) = fs::read_to_string(root.join(rel)) {
                lib_sources.push((rel_str, text));
            }
        }
    }
    callgraph::CallGraph::build(&lib_sources).dump()
}

/// Load the allowlist that ships with the workspace being scanned, if any.
pub fn load_workspace_allowlist(root: &Path) -> Result<Allowlist, String> {
    let path = root.join("crates/tidy/allowlist.toml");
    match fs::read_to_string(&path) {
        Ok(text) => Allowlist::parse(&text),
        Err(_) => Ok(Allowlist::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    /// Build a throwaway workspace tree under the OS temp dir, run a scan,
    /// clean up, return the report. Each rule's self-test seeds one
    /// deliberate violation this way.
    fn scan_tree(tag: &str, files: &[(&str, &str)], allow: &str) -> Report {
        let root =
            std::env::temp_dir().join(format!("stem-tidy-selftest-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        for (rel, content) in files {
            let abs = root.join(rel);
            fs::create_dir_all(abs.parent().expect("has parent")).expect("mkdir");
            fs::write(&abs, content).expect("write fixture");
        }
        let allowlist = Allowlist::parse(allow).expect("allowlist parses");
        let report = scan(&root, &allowlist);
        let _ = fs::remove_dir_all(&root);
        report
    }

    #[test]
    fn clean_tree_reports_clean() {
        let r = scan_tree(
            "clean",
            &[(
                "crates/core/src/lib.rs",
                "#![deny(missing_debug_implementations)]\n#![forbid(unsafe_code)]\npub fn ok() {}\n",
            )],
            "",
        );
        assert!(r.is_clean(), "{:?}", r.diagnostics());
        assert_eq!(r.files_scanned, 1);
    }

    #[test]
    fn seeded_violations_each_rule_flagged() {
        let r = scan_tree(
            "seeded",
            &[
                ("Cargo.toml", "[dependencies]\nrand = \"0.8\"\n"),
                (
                    "crates/core/src/bad.rs",
                    "fn f() { let r = thread_rng(); x.unwrap(); if y == 0.5 { panic!(\"no\") } println!(\"dbg\") } // FI\u{58}ME\n",
                ),
                ("crates/core/src/lib.rs", "pub mod bad;\n"),
            ],
            "",
        );
        let rules_hit: Vec<&str> = r.violations.iter().map(|v| v.rule).collect();
        for expected in [
            rules::HERMETIC_DEPS,
            rules::NO_ENTROPY_RNG,
            rules::NO_UNWRAP,
            rules::NO_FLOAT_EQ,
            rules::NO_PANIC,
            rules::NO_DEBUG_PRINT,
            rules::HYGIENE,
            rules::LINT_HEADERS,
        ] {
            assert!(
                rules_hit.contains(&expected),
                "missing {expected}: {rules_hit:?}"
            );
        }
        // Diagnostics carry file:line.
        assert!(r
            .diagnostics()
            .iter()
            .any(|d| d.starts_with("crates/core/src/bad.rs:1:")));
    }

    #[test]
    fn allowlist_excuses_and_counts() {
        let files = [("crates/core/src/bad.rs", "fn f() { x.unwrap(); }\n")];
        let dirty = scan_tree("allow-a", &files, "");
        assert_eq!(dirty.violations.len(), 1);
        let clean = scan_tree(
            "allow-b",
            &files,
            "[no-unwrap]\n\"crates/core/src/bad.rs\" = \"self-test exemption\"\n",
        );
        assert!(clean.is_clean(), "{:?}", clean.diagnostics());
        assert_eq!(clean.allowed, 1);
    }

    #[test]
    fn stale_allowlist_entry_is_flagged() {
        let r = scan_tree(
            "stale",
            &[("crates/core/src/ok.rs", "fn f() {}\n")],
            "[no-unwrap]\n\"crates/core/src/gone.rs\" = \"file was deleted\"\n",
        );
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].message.contains("stale allowlist"));
    }

    #[test]
    fn summary_json_shape() {
        let r = scan_tree(
            "json",
            &[("crates/core/src/bad.rs", "fn f() { x.unwrap(); }\n")],
            "",
        );
        let json = r.summary_json();
        assert!(
            json.starts_with(
                "{\"files_scanned\":1,\"violations\":1,\"warnings\":0,\"allowed\":0,\"severity\":{\"deny\":1,\"warn\":0}"
            ),
            "{json}"
        );
        assert!(json.contains("\"no-unwrap\":1"), "{json}");
    }

    #[test]
    fn warn_severity_prints_but_never_fails() {
        // `no-hot-alloc` is the advisory tier: hits surface as warnings,
        // the tree still counts as clean, and the JSON carries them.
        let r = scan_tree(
            "warn",
            &[("crates/sim/src/memo.rs", "fn f() { let v = s.to_vec(); }\n")],
            "",
        );
        assert!(r.is_clean(), "{:?}", r.diagnostics());
        assert_eq!(r.warnings.len(), 1);
        assert_eq!(r.warnings[0].rule, rules::NO_HOT_ALLOC);
        assert!(r.warning_diagnostics()[0].contains("warning [no-hot-alloc]"));
        assert!(
            r.summary_json().contains("\"warnings\":1"),
            "{}",
            r.summary_json()
        );
        // Allowlisted warnings stay silent and keep the entry non-stale.
        let r = scan_tree(
            "warn-allow",
            &[("crates/sim/src/memo.rs", "fn f() { let v = s.to_vec(); }\n")],
            "[no-hot-alloc]\n\"crates/sim/src/memo.rs\" = \"setup-time copy\"\n",
        );
        assert!(
            r.is_clean() && r.warnings.is_empty(),
            "{:?}",
            r.warning_diagnostics()
        );
        assert_eq!(r.allowed, 1);
    }

    #[test]
    fn per_rule_per_file_stale_entries_flagged() {
        // The file exists and has a `no-unwrap` hit, but the entry names
        // `no-panic`: it excuses nothing and must be reported stale.
        let r = scan_tree(
            "stale-rule",
            &[("crates/core/src/bad.rs", "fn f() { x.unwrap(); }\n")],
            "[no-panic]\n\"crates/core/src/bad.rs\" = \"wrong rule\"\n",
        );
        assert!(
            r.violations
                .iter()
                .any(|v| v.message.contains("no `no-panic` hit to excuse")),
            "{:?}",
            r.diagnostics()
        );
        // The unwrap itself still fires.
        assert!(r.violations.iter().any(|v| v.rule == rules::NO_UNWRAP));
    }

    #[test]
    fn semantic_rules_run_in_scan() {
        let r = scan_tree(
            "semantic",
            &[(
                "crates/sim/src/memo.rs",
                "pub fn warm(c: &C) -> f64 { c.get_or_insert(1, || leaf()) }\nfn leaf() -> f64 { std::time::Instant::now().elapsed().as_secs_f64() }\n",
            )],
            "",
        );
        assert!(
            r.violations.iter().any(|v| v.rule == rules::MEMO_PURITY),
            "{:?}",
            r.diagnostics()
        );
    }
}
