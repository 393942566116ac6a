//! Tier-1 enforcement: shell out to the built `stem-tidy` binary against
//! the real workspace and require a clean pass. This is the test that
//! makes `cargo test` fail on any lint regression.

use std::path::Path;
use std::process::Command;

#[test]
fn stem_tidy_passes_on_the_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new(env!("CARGO_BIN_EXE_stem-tidy"))
        .arg(&root)
        .output()
        .expect("run stem-tidy binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stem-tidy found violations:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The machine-readable summary is the last line and must report zero.
    let summary = stdout.lines().last().unwrap_or("");
    assert!(summary.contains("\"violations\":0"), "summary: {summary}");
}

#[test]
fn stem_tidy_fails_with_diagnostics_on_a_dirty_tree() {
    let root = std::env::temp_dir().join(format!("stem-tidy-dirty-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let src = root.join("crates/core/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(
        src.join("bad.rs"),
        "pub fn f(x: Option<u64>) -> u64 { x.unwrap() }\n",
    )
    .expect("write");
    let out = Command::new(env!("CARGO_BIN_EXE_stem-tidy"))
        .arg(&root)
        .output()
        .expect("run stem-tidy binary");
    let _ = std::fs::remove_dir_all(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(
        stdout.contains("crates/core/src/bad.rs:1: [no-unwrap]"),
        "missing file:line diagnostic:\n{stdout}"
    );
}
