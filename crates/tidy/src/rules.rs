//! The workspace invariants `stem-tidy` enforces.
//!
//! Each rule reports `file:line` violations. Scopes:
//!
//! * **library source** — `src/` of the facade and of every substrate crate
//!   (`stats`, `cluster`, `core`, `sim`, `profile`, `workload`,
//!   `baselines`, `par`, `serve`), excluding `src/bin/`. The harness
//!   crates (`bench`, `tidy`) print reports by design and are exempt from
//!   the print rule but not from the RNG/hygiene rules.
//! * **hot paths** — `stats`, `cluster`, `core`, `sim`, `par`, `serve`:
//!   the crates on the per-invocation simulation path plus the daemon,
//!   where a stray `panic!` would take down a long sampling run (or every
//!   tenant's campaign at once).
//! * **ingestion paths** — `profile`, `workload/src/io.rs`, and the serve
//!   crate's wire-facing files (`serve/src/{proto,journal,job}.rs`): code
//!   that parses or validates *external* data (profiler CSVs, workload text
//!   documents, raw traces, protocol lines, on-disk journals). Malformed
//!   input there must surface as a typed error, so the whole
//!   `panic!`/`assert!` family is banned.
//! * **hot inner-loop files** — the per-invocation simulation and profile
//!   loops and the k-means assignment loop (`sim/src/{simulator,sampled,
//!   hardware,memo,exec}.rs`, `profile/src/exec_time.rs`,
//!   `cluster/src/{kmeans,matrix,distance}.rs`): `Vec`
//!   collection/allocation there is *advisory* (rule `no-hot-alloc`) —
//!   every surviving allocation needs an allowlist justification placing it
//!   at setup time, outside the per-item loop.
//! * **everywhere** — all `.rs` files outside `#[cfg(test)]`/`#[test]`
//!   items, including benches and examples.
//! * **unused public API** — a library-source `pub fn` whose name no
//!   other code mentions (rule `unused-pub`, advisory; see [`unused_pub`]).
//!
//! Every source rule reads the one token stream of `tokens::tokenize`:
//! a pattern is a token sequence, so text inside strings and comments
//! never matches, and the test items exempted here are exactly the ones
//! the semantic pass leaves out (`tokens::test_regions`).

use std::collections::HashSet;

use crate::tokens::{test_regions, tokenize, Tok, TokKind};

/// Rule identifiers, also the section names of `allowlist.toml`.
pub const HERMETIC_DEPS: &str = "hermetic-deps";
pub const NO_ENTROPY_RNG: &str = "no-entropy-rng";
pub const NO_UNWRAP: &str = "no-unwrap";
pub const NO_FLOAT_EQ: &str = "no-float-eq";
pub const NO_PANIC: &str = "no-panic";
pub const NO_INGEST_PANIC: &str = "no-ingest-panic";
pub const NO_HOT_ALLOC: &str = "no-hot-alloc";
pub const LINT_HEADERS: &str = "lint-headers";
pub const NO_DEBUG_PRINT: &str = "no-debug-print";
pub const HYGIENE: &str = "hygiene";
pub const UNUSED_PUB: &str = "unused-pub";
/// Semantic rules (call-graph pass, see `semantic`).
pub const MEMO_PURITY: &str = "memo-purity";
pub const RNG_STREAM: &str = "rng-stream-discipline";
pub const ORDERED_FLOAT_REDUCE: &str = "ordered-float-reduce";

/// Every rule name, in reporting order.
pub const ALL_RULES: [&str; 14] = [
    HERMETIC_DEPS,
    NO_ENTROPY_RNG,
    NO_UNWRAP,
    NO_FLOAT_EQ,
    NO_PANIC,
    NO_INGEST_PANIC,
    NO_HOT_ALLOC,
    LINT_HEADERS,
    NO_DEBUG_PRINT,
    HYGIENE,
    UNUSED_PUB,
    MEMO_PURITY,
    RNG_STREAM,
    ORDERED_FLOAT_REDUCE,
];

/// How a rule's surviving (non-allowlisted) hits gate CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the scan (exit 1).
    Deny,
    /// Printed and counted, never fails. Allowlist entries still apply —
    /// a justified warning stays silent and keeps its entry non-stale.
    Warn,
}

/// Severity tier per rule. Two rules are advisory. `no-hot-alloc`: Vec
/// collection in the hot inner-loop files is worth a diff-time nudge, but
/// hoisting is judgement, not a hard invariant. `unused-pub`: matching by
/// name can only over-approximate use, so a hit is a lead, not a proof.
pub fn severity(rule: &str) -> Severity {
    if rule == NO_HOT_ALLOC || rule == UNUSED_PUB {
        Severity::Warn
    } else {
        Severity::Deny
    }
}

/// Crates whose `src/` is library source (see module docs).
const LIB_SRC_PREFIXES: [&str; 11] = [
    "crates/stats/src/",
    "crates/storage/src/",
    "crates/cluster/src/",
    "crates/core/src/",
    "crates/sim/src/",
    "crates/profile/src/",
    "crates/workload/src/",
    "crates/baselines/src/",
    "crates/par/src/",
    "crates/serve/src/",
    "src/",
];

/// Crates on the per-invocation hot path (no `panic!` family). The serve
/// daemon counts: a stray `panic!` in a worker or connection handler
/// takes down every tenant's campaign at once.
const HOT_SRC_PREFIXES: [&str; 7] = [
    "crates/stats/src/",
    "crates/storage/src/",
    "crates/cluster/src/",
    "crates/core/src/",
    "crates/sim/src/",
    "crates/par/src/",
    "crates/serve/src/",
];

/// Ingestion paths: library code that parses or validates external data
/// (the whole `panic!`/`assert!` family is banned, asserts included).
/// For the serve crate that is the wire-facing surface: the protocol
/// parser, the on-disk journal reader and the job-spec grammar both of
/// them parse with, all fed attacker-shaped bytes.
/// The storage crate counts too: it is the layer every snapshot and
/// journal read enters the process through, and it must degrade to typed
/// errors, never panic, on whatever a damaged disk hands back.
const INGEST_SRC_PREFIXES: [&str; 7] = [
    "crates/profile/src/",
    "crates/storage/src/",
    "crates/workload/src/io.rs",
    "crates/workload/src/colstore.rs",
    "crates/serve/src/proto.rs",
    "crates/serve/src/journal.rs",
    "crates/serve/src/job.rs",
];

/// The hot inner-loop files: the per-invocation simulation loop, the
/// per-invocation profile pass, the k-means assignment loop and ROOT's
/// per-node recursion. `Vec` collection here is advisory (rule
/// `no-hot-alloc`): the grouped deterministic-core split, the flat
/// bounds-pruned k-means and ROOT's per-kernel packed row buffers exist
/// precisely to keep allocation out of the per-item and
/// per-node loops, so any allocation that stays must carry an allowlist
/// justification placing it at setup time.
const HOT_ALLOC_SRC_FILES: [&str; 13] = [
    "crates/sim/src/simulator.rs",
    "crates/sim/src/sampled.rs",
    "crates/sim/src/hardware.rs",
    "crates/sim/src/memo.rs",
    "crates/sim/src/exec.rs",
    "crates/profile/src/exec_time.rs",
    "crates/cluster/src/kmeans.rs",
    "crates/cluster/src/kmeans1d.rs",
    "crates/cluster/src/matrix.rs",
    "crates/cluster/src/distance.rs",
    "crates/core/src/root.rs",
    "crates/workload/src/colstore.rs",
    "crates/workload/src/trace.rs",
];

/// Files longer than this are flagged by the hygiene rule.
pub const MAX_FILE_LINES: usize = 1500;

/// A single `file:line` diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative, `/`-separated path.
    pub path: String,
    /// 1-based line number (0 for whole-file diagnostics).
    pub line: usize,
    /// One of [`ALL_RULES`].
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Violation {
    pub(crate) fn new(
        path: &str,
        line: usize,
        rule: &'static str,
        message: impl Into<String>,
    ) -> Self {
        Self {
            path: path.to_string(),
            line,
            rule,
            message: message.into(),
        }
    }
}

/// Library-source scope; the semantic pass analyzes exactly these files.
pub(crate) fn in_lib_src(path: &str) -> bool {
    LIB_SRC_PREFIXES.iter().any(|p| path.starts_with(p)) && !path.contains("src/bin/")
}

fn in_hot_src(path: &str) -> bool {
    HOT_SRC_PREFIXES.iter().any(|p| path.starts_with(p))
}

fn in_ingest_src(path: &str) -> bool {
    INGEST_SRC_PREFIXES.iter().any(|p| path.starts_with(p))
}

fn in_hot_alloc_src(path: &str) -> bool {
    HOT_ALLOC_SRC_FILES.contains(&path)
}

/// Scan one `.rs` file against every source rule. Each rule is a token
/// sequence (`.` `unwrap` `(` `)`, `vec` `!` `[`) or a token predicate
/// (float equality) matched on the file's one token stream; a hit is
/// reported once per (line, pattern), and hits inside test items are
/// exempt.
pub fn check_rust_file(path: &str, src: &str) -> Vec<Violation> {
    let tokens = tokenize(src);
    let mut scan = Scan::new(path, &tokens.toks);

    scan.flag_patterns(
        NO_ENTROPY_RNG,
        &["thread_rng", "from_entropy", "OsRng", "getrandom", "rand::random"],
        |pat| format!("`{pat}` draws ambient entropy; all randomness must flow through a seeded `stem_core::rng` generator"),
    );
    if in_lib_src(path) {
        scan.flag_patterns(NO_UNWRAP, &[".unwrap()", ".expect("], |pat| {
            format!("`{pat}` in library code can panic; return an error or use a total operation (allowlistable with justification)")
        });
        scan.flag(NO_FLOAT_EQ, |toks, i| {
            float_compare(toks, i).map(|op| {
                format!("bare float `{op}` comparison; use an epsilon tolerance, `total_cmp`, or restructure")
            })
        });
        scan.flag_patterns(
            NO_DEBUG_PRINT,
            &["println!(", "print!(", "eprintln!(", "eprint!(", "dbg!("],
            |pat| format!("`{pat}..)` in library code; route output through the caller or a reporting layer"),
        );
    }
    if in_hot_src(path) {
        scan.flag_patterns(NO_PANIC, &["panic!(", "todo!(", "unimplemented!("], |pat| {
            format!("`{pat}..)` on the simulation hot path; bubble an error instead")
        });
    }
    if in_hot_alloc_src(path) {
        scan.flag_patterns(
            NO_HOT_ALLOC,
            &["vec![", "Vec::new(", "Vec::with_capacity(", ".to_vec()", ".collect()", ".collect::<"],
            |pat| format!("`{pat}..` allocates in a hot inner-loop file; hoist it to setup or allowlist with a justification placing it outside the per-item loop"),
        );
    }
    if in_ingest_src(path) {
        scan.flag_patterns(
            NO_INGEST_PANIC,
            &[
                "panic!(",
                "assert!(",
                "assert_eq!(",
                "assert_ne!(",
                "debug_assert!(",
                "debug_assert_eq!(",
                "debug_assert_ne!(",
                "todo!(",
                "unimplemented!(",
            ],
            |pat| format!("`{pat}..)` on a data-ingestion path; malformed external input must surface as a typed error, never a panic (allowlistable with justification)"),
        );
    }

    let mut out = scan.out;
    for marker in ["TODO", "FIXME", "XXX", "HACK"] {
        let mut last_line = 0;
        for c in tokens.comments.iter().filter(|c| c.text.contains(marker)) {
            if c.line != last_line {
                last_line = c.line;
                out.push(Violation::new(
                    path,
                    c.line as usize,
                    HYGIENE,
                    format!("`{marker}` marker; resolve it or file it in ROADMAP.md"),
                ));
            }
        }
    }
    // Line-major, rule order within a line (the sort is stable).
    out.sort_by_key(|v| v.line);

    let lines = src.lines().count();
    if lines > MAX_FILE_LINES {
        out.push(Violation::new(
            path,
            0,
            HYGIENE,
            format!("{lines} lines (max {MAX_FILE_LINES}); split the module"),
        ));
    }

    if path.ends_with("src/lib.rs") {
        for attr in [
            "#![deny(missing_debug_implementations)]",
            "#![forbid(unsafe_code)]",
        ] {
            let seq = tokenize(attr).toks;
            if !(0..tokens.toks.len()).any(|i| starts_with(&tokens.toks[i..], &seq)) {
                out.push(Violation::new(
                    path,
                    0,
                    LINT_HEADERS,
                    format!("missing `{attr}` lint header"),
                ));
            }
        }
    }

    out
}

/// One file's token stream with its test items masked out, collecting
/// the hits of the token rules.
struct Scan<'a> {
    path: &'a str,
    toks: &'a [Tok],
    /// `live[i]` is false when token `i` is test code.
    live: Vec<bool>,
    out: Vec<Violation>,
}

/// `live[i]` is false when token `i` lies in a test item.
fn live_mask(toks: &[Tok]) -> Vec<bool> {
    let mut live = vec![true; toks.len()];
    for region in test_regions(toks) {
        live[region].fill(false);
    }
    live
}

impl<'a> Scan<'a> {
    fn new(path: &'a str, toks: &'a [Tok]) -> Self {
        Scan {
            path,
            toks,
            live: live_mask(toks),
            out: Vec::new(),
        }
    }

    /// Report `rule` at most once per line: at each live token `i` on a
    /// line not yet reported, `hit(toks, i)` returns the message if the
    /// rule matches there.
    fn flag(&mut self, rule: &'static str, hit: impl Fn(&[Tok], usize) -> Option<String>) {
        let mut last_line = 0;
        for (i, t) in self.toks.iter().enumerate() {
            if self.live[i] && t.line != last_line {
                if let Some(message) = hit(self.toks, i) {
                    last_line = t.line;
                    self.out
                        .push(Violation::new(self.path, t.line as usize, rule, message));
                }
            }
        }
    }

    /// Report `rule` once per (line, pattern) where the token sequence of
    /// a pattern starts in live code.
    fn flag_patterns(&mut self, rule: &'static str, pats: &[&str], why: impl Fn(&str) -> String) {
        for pat in pats {
            let seq = tokenize(pat).toks;
            self.flag(rule, |toks, i| {
                starts_with(&toks[i..], &seq).then(|| why(pat))
            });
        }
    }
}

/// True when `toks` begins with the kinds and texts of `seq`.
fn starts_with(toks: &[Tok], seq: &[Tok]) -> bool {
    toks.len() >= seq.len()
        && toks
            .iter()
            .zip(seq)
            .all(|(t, s)| t.kind == s.kind && t.text == s.text)
}

/// `==` or `!=` at `i` with a float literal on either side (`x == 0.5`,
/// `1.0 != y`, `x == -0.5`). `<=`/`>=` and longer `=` runs are not
/// equality; integer comparisons and `Ordering` equality stay legal. A
/// literal is a float when its digits contain `.` (`1.0`, `2.5e3`).
fn float_compare(toks: &[Tok], i: usize) -> Option<&'static str> {
    let op = match (&toks[i].kind, toks.get(i + 1).map(|t| &t.kind)) {
        (TokKind::Punct('='), Some(TokKind::Punct('='))) => "==",
        (TokKind::Punct('!'), Some(TokKind::Punct('='))) => "!=",
        _ => return None,
    };
    let left = i.checked_sub(1).map(|j| &toks[j]);
    if left.is_some_and(|t| matches!(t.kind, TokKind::Punct('<' | '>' | '=' | '!')))
        || toks.get(i + 2).is_some_and(|t| t.is_punct('='))
    {
        return None;
    }
    let right = match toks.get(i + 2) {
        Some(t) if t.is_punct('-') => toks.get(i + 3),
        t => t,
    };
    let is_float = |t: &Tok| t.kind == TokKind::Lit && t.text.contains('.');
    (left.is_some_and(is_float) || right.is_some_and(is_float)).then_some(op)
}

/// `unused-pub` over every `.rs` file of the scan, as `(path, source)`:
/// each non-test `pub fn` in library source whose name appears as an
/// identifier in no other code. The mentions come from the non-test items
/// of every file, and from the whole of each integration-test file (under
/// a `tests/` directory), where `#[test]` functions are the callers.
/// Comments and string literals never count (the tokenizer drops them),
/// nor do `fn` names being defined or the paths of `use` items, which
/// import a name without calling it. Matching is by name alone, so a
/// function that shares its name with anything called is never reported.
pub fn unused_pub(files: &[(String, String)]) -> Vec<Violation> {
    let mut defs: Vec<(&str, usize, String)> = Vec::new();
    let mut mentioned: HashSet<String> = HashSet::new();
    for (path, src) in files {
        let toks = tokenize(src).toks;
        let live = if path.starts_with("tests/") || path.contains("/tests/") {
            vec![true; toks.len()]
        } else {
            live_mask(&toks)
        };
        let mut i = 0;
        while i < toks.len() {
            let t = &toks[i];
            if !live[i] || t.kind != TokKind::Ident {
                i += 1;
            } else if t.text == "use" {
                i += toks[i..]
                    .iter()
                    .position(|t| t.is_punct(';'))
                    .unwrap_or(toks.len() - i);
            } else if t.text == "fn" {
                let is_pub = i > 0 && toks[i - 1].is_ident("pub");
                if let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                    if is_pub && in_lib_src(path) {
                        defs.push((path, name.line as usize, name.text.clone()));
                    }
                }
                i += 2;
            } else {
                mentioned.insert(t.text.clone());
                i += 1;
            }
        }
    }
    defs.into_iter()
        .filter(|(_, _, name)| !mentioned.contains(name))
        .map(|(path, line, name)| {
            Violation::new(
                path,
                line,
                UNUSED_PUB,
                format!("`pub fn {name}` is mentioned by no code outside its own tests; delete it or allowlist it with a justification naming its caller"),
            )
        })
        .collect()
}

/// Scan a `Cargo.toml` for non-path dependencies (the hermetic-deps rule).
pub fn check_manifest(path: &str, text: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut in_dep_section = false;
    // A multi-line `name = {` table under scrutiny: (name, head line,
    // accumulated table text).
    let mut open_table: Option<(String, usize, String)> = None;
    let flag = |name: &str, n: usize, out: &mut Vec<Violation>| {
        out.push(Violation::new(
            path,
            n,
            HERMETIC_DEPS,
            format!("dependency `{name}` is not an in-workspace path dep; registry/git deps break the offline build"),
        ));
    };
    for (idx, raw) in text.lines().enumerate() {
        let n = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((name, head_line, body)) = &mut open_table {
            body.push_str(line);
            if line.ends_with('}') {
                if !body.contains("path") && !body.contains("workspace = true") {
                    flag(name, *head_line, &mut out);
                }
                open_table = None;
            }
            continue;
        }
        if line.starts_with('[') {
            let section = line.trim_matches(|c| c == '[' || c == ']');
            in_dep_section = section.ends_with("dependencies");
            continue;
        }
        if !in_dep_section {
            continue;
        }
        let Some((name, value)) = line.split_once('=') else {
            continue;
        };
        let name = name.trim();
        let value = value.trim();
        if name.ends_with(".workspace") || value.contains("workspace = true") {
            continue; // resolved against [workspace.dependencies], checked there
        }
        if value.contains("path =") || value.contains("path=") {
            continue; // in-workspace path dependency: hermetic
        }
        if value.starts_with('{') && !value.contains('}') {
            open_table = Some((name.to_string(), n, value.to_string()));
            continue;
        }
        flag(name, n, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(path: &str, src: &str) -> Vec<Violation> {
        check_rust_file(path, src)
    }

    #[test]
    fn entropy_rng_flagged_everywhere_but_tests() {
        let v = check("crates/bench/benches/x.rs", "let r = thread_rng();\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, NO_ENTROPY_RNG);
        assert_eq!(v[0].line, 1);
        let v = check(
            "crates/core/src/a.rs",
            "#[cfg(test)]\nmod tests {\n fn t() { let r = thread_rng(); }\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unwrap_only_in_lib_scope() {
        assert_eq!(
            check("crates/core/src/a.rs", "x.unwrap();\n")[0].rule,
            NO_UNWRAP
        );
        assert_eq!(check("src/lib.rs", "x.expect(\"y\");\n")[0].rule, NO_UNWRAP);
        assert!(check("crates/bench/src/a.rs", "x.unwrap();\n").is_empty());
        assert!(check("crates/core/tests/a.rs", "x.unwrap();\n").is_empty());
        assert!(check("crates/core/src/bin/a.rs", "x.unwrap();\n").is_empty());
    }

    #[test]
    fn serve_daemon_is_lib_hot_and_wire_ingest_scoped() {
        assert_eq!(
            check("crates/serve/src/server.rs", "x.unwrap();\n")[0].rule,
            NO_UNWRAP
        );
        assert_eq!(
            check("crates/serve/src/server.rs", "panic!(\"x\");\n")[0].rule,
            NO_PANIC
        );
        assert_eq!(
            check("crates/serve/src/proto.rs", "assert!(ok);\n")[0].rule,
            NO_INGEST_PANIC
        );
        assert_eq!(
            check("crates/serve/src/journal.rs", "assert_eq!(a, b);\n")[0].rule,
            NO_INGEST_PANIC
        );
        // The daemon binary may print (it is the reporting layer) but must
        // still never panic.
        assert!(check("crates/serve/src/bin/stem-serve.rs", "println!(\"x\");\n").is_empty());
        assert_eq!(
            check("crates/serve/src/bin/stem-serve.rs", "panic!(\"x\");\n")[0].rule,
            NO_PANIC
        );
        // The non-wire modules keep structural asserts legal.
        assert!(check("crates/serve/src/config.rs", "assert!(ok);\n").is_empty());
    }

    #[test]
    fn float_eq_detection() {
        assert_eq!(
            check("crates/sim/src/a.rs", "if x == 0.5 {}\n")[0].rule,
            NO_FLOAT_EQ
        );
        assert_eq!(
            check("crates/sim/src/a.rs", "if 1.0 != y {}\n")[0].rule,
            NO_FLOAT_EQ
        );
        assert!(check("crates/sim/src/a.rs", "if x == 5 {}\n").is_empty());
        assert!(check("crates/sim/src/a.rs", "if x <= 0.5 {}\n").is_empty());
        assert!(check("crates/sim/src/a.rs", "if x >= 0.5 {}\n").is_empty());
        assert!(check("crates/sim/src/a.rs", "let f = |a| a == b;\n").is_empty());
        assert!(check("crates/sim/src/a.rs", "// x == 0.5 in prose\n").is_empty());
    }

    #[test]
    fn panic_family_only_on_hot_paths() {
        assert_eq!(
            check("crates/stats/src/a.rs", "panic!(\"x\");\n")[0].rule,
            NO_PANIC
        );
        assert_eq!(check("crates/core/src/a.rs", "todo!()\n")[0].rule, NO_PANIC);
        assert_eq!(
            check("crates/core/src/a.rs", "todo!(\"later\")\n")[0].rule,
            NO_PANIC
        );
        assert!(check("crates/baselines/src/a.rs", "panic!(\"x\");\n").is_empty());
    }

    #[test]
    fn ingestion_paths_ban_the_whole_assert_family() {
        for (src, pat) in [
            ("panic!(\"x\");\n", "panic!"),
            ("assert!(ok, \"x\");\n", "assert!"),
            ("assert_eq!(a, b);\n", "assert_eq!"),
            ("assert_ne!(a, b);\n", "assert_ne!"),
        ] {
            let v = check("crates/profile/src/a.rs", src);
            assert_eq!(v.len(), 1, "{src}: {v:?}");
            assert_eq!(v[0].rule, NO_INGEST_PANIC, "{src}");
            assert!(v[0].message.contains(pat), "{src}: {}", v[0].message);
            let v = check("crates/workload/src/io.rs", src);
            assert_eq!(v.len(), 1, "{src} in io.rs");
            assert_eq!(v[0].rule, NO_INGEST_PANIC);
        }
        // The rest of the workload crate keeps its structural asserts.
        assert!(check("crates/workload/src/a.rs", "assert!(ok);\n").is_empty());
        // Test modules on ingestion paths assert freely.
        let v = check(
            "crates/profile/src/a.rs",
            "#[cfg(test)]\nmod tests {\n fn t() { assert_eq!(1, 1); }\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn hot_alloc_advisory_on_inner_loop_files_only() {
        // Fires on the named hot inner-loop files, once per pattern hit.
        let v = check(
            "crates/cluster/src/kmeans.rs",
            "let xs = vec![0.0; k];\nlet ys: Vec<f64> = it.collect();\n",
        );
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == NO_HOT_ALLOC));
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 2);
        let v = check("crates/sim/src/memo.rs", "let t = s.to_vec();\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, NO_HOT_ALLOC);
        let v = check(
            "crates/sim/src/simulator.rs",
            "let g: Vec<u32> = i.collect::<Vec<u32>>();\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        // ROOT's recursion is a hot inner-loop file too.
        assert_eq!(
            check("crates/core/src/root.rs", "let xs = vec![0.0; k];\n").len(),
            1
        );
        // Advisory scope is per-file, not per-crate: the rest of the hot
        // crates (and tests anywhere) allocate freely.
        assert!(check("crates/core/src/stem.rs", "let xs = vec![0.0; k];\n").is_empty());
        assert!(check("crates/sim/src/multi_gpu.rs", "let xs = Vec::new();\n").is_empty());
        let v = check(
            "crates/cluster/src/kmeans.rs",
            "#[cfg(test)]\nmod tests {\n fn t() { let xs = vec![1]; }\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn print_rule_spares_harness_crates() {
        assert_eq!(
            check("crates/core/src/a.rs", "println!(\"x\");\n")[0].rule,
            NO_DEBUG_PRINT
        );
        assert!(check("crates/bench/src/report.rs", "println!(\"x\");\n").is_empty());
        assert!(check("crates/tidy/src/main.rs", "println!(\"x\");\n").is_empty());
    }

    #[test]
    fn hygiene_todo_and_length() {
        let v = check("crates/core/src/a.rs", "fn a() {} // T\u{4f}DO: later\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, HYGIENE);
        let long = "fn a() {}\n".repeat(MAX_FILE_LINES + 1);
        let v = check("crates/core/src/a.rs", &long);
        assert!(v.iter().any(|v| v.rule == HYGIENE && v.line == 0));
    }

    #[test]
    fn token_patterns_follow_tokens_not_layout() {
        // A negated float literal is still a float compare.
        assert_eq!(
            check("crates/sim/src/a.rs", "if x == -0.5 {}\n")[0].rule,
            NO_FLOAT_EQ
        );
        // A marker inside a multi-line block comment is reported on its
        // own line.
        let v = check(
            "crates/core/src/a.rs",
            "/* one\n two T\u{4f}DO\n */\nfn a() {}\n",
        );
        assert_eq!(
            v.iter().map(|v| (v.rule, v.line)).collect::<Vec<_>>(),
            [(HYGIENE, 2)]
        );
        // Patterns match whole identifiers: `eprintln!(` is not also a
        // `println!(` hit.
        assert_eq!(
            check("crates/core/src/a.rs", "eprintln!(\"x\");\n").len(),
            1
        );
    }

    #[test]
    fn lint_headers_required_in_lib_rs() {
        let v = check("crates/core/src/lib.rs", "pub mod a;\n");
        assert_eq!(v.iter().filter(|v| v.rule == LINT_HEADERS).count(), 2);
        let ok = "#![deny(missing_debug_implementations)]\n#![forbid(unsafe_code)]\npub mod a;\n";
        assert!(check("crates/core/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn manifest_rule_rejects_registry_and_git() {
        let v = check_manifest(
            "crates/x/Cargo.toml",
            "[package]\nname = \"x\"\n[dependencies]\nrand = \"0.8\"\nserde = { version = \"1\", features = [\"derive\"] }\nfoo = { git = \"https://example.com\" }\nlocal = { path = \"../local\" }\nws.workspace = true\n",
        );
        let names: Vec<&str> = v
            .iter()
            .map(|v| v.message.split('`').nth(1).unwrap())
            .collect();
        assert_eq!(names, ["rand", "serde", "foo"]);
        assert!(v.iter().all(|v| v.rule == HERMETIC_DEPS));
    }

    #[test]
    fn manifest_rule_accepts_workspace_dep_table() {
        let v = check_manifest(
            "Cargo.toml",
            "[workspace.dependencies]\nstem-stats = { path = \"crates/stats\" }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }
}
