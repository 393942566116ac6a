//! Call-graph golden test: materialize a three-file fixture workspace with
//! cross-module calls, a cross-crate `stem_`-prefixed call, trait-method
//! dispatch to every impl, and `Self::` resolution, then compare the
//! rendered `--dump-callgraph` output byte-for-byte against a committed
//! snapshot. Any change to edge resolution shows up as a readable diff.

use std::fs;
use std::path::{Path, PathBuf};

use stem_tidy::dump_workspace_callgraph;

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/callgraph")
        .join(name);
    fs::read_to_string(&p).unwrap_or_else(|e| panic!("read fixture {name}: {e}"))
}

/// Materializes `files` under a temp root unique to this process and
/// `tag`: the tests in this file run concurrently, and a shared root let
/// one test delete the tree while the other was still reading it.
fn build_tree(tag: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir().join(format!("stem-tidy-cg-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    for (rel, name) in files {
        let abs = root.join(rel);
        fs::create_dir_all(abs.parent().expect("has parent")).expect("mkdir");
        fs::write(&abs, fixture(name)).expect("write");
    }
    root
}

#[test]
fn dump_matches_committed_golden() {
    let root = build_tree(
        "golden",
        &[
            ("crates/cluster/src/lib.rs", "cluster_lib.rs"),
            ("crates/cluster/src/geom.rs", "cluster_geom.rs"),
            ("crates/sim/src/lib.rs", "sim_lib.rs"),
        ],
    );
    let got = dump_workspace_callgraph(&root);
    let _ = fs::remove_dir_all(&root);

    let want = fixture("dump.golden");
    assert_eq!(
        got, want,
        "call-graph dump drifted from tests/fixtures/callgraph/dump.golden;\n\
         if the resolution change is intentional, update the snapshot.\n\
         --- got ---\n{got}"
    );
}

#[test]
fn dump_edges_cover_the_resolution_strategies() {
    let root = build_tree(
        "edges",
        &[
            ("crates/cluster/src/lib.rs", "cluster_lib.rs"),
            ("crates/cluster/src/geom.rs", "cluster_geom.rs"),
            ("crates/sim/src/lib.rs", "sim_lib.rs"),
        ],
    );
    let dump = dump_workspace_callgraph(&root);
    let _ = fs::remove_dir_all(&root);

    let block = |id: &str| -> String {
        let start = dump
            .find(&format!("fn {id} "))
            .unwrap_or_else(|| panic!("no block for {id} in:\n{dump}"));
        let rest = &dump[start..];
        let end = rest[3..].find("\nfn ").map(|e| e + 4).unwrap_or(rest.len());
        rest[..end].to_string()
    };

    // Cross-module: `geom::area(r)` resolves into the submodule.
    assert!(block("cluster::entry").contains("-> cluster::geom::area"));
    // Same-module bare call.
    assert!(block("cluster::entry").contains("-> cluster::helper"));
    // Cross-crate via the `stem_` prefix convention.
    assert!(block("cluster::entry").contains("-> sim::blend"));
    // Trait dispatch fans out to every workspace impl of `refresh`.
    let poll = block("cluster::poll");
    assert!(poll.contains("-> sim::Cache::refresh"), "{poll}");
    assert!(poll.contains("-> sim::Disk::refresh"), "{poll}");
    // `Self::rate()` resolves to the caller's impl type only.
    assert!(block("sim::Cache::warm").contains("-> sim::Cache::rate"));
}
