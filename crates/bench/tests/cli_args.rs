//! The `repro` and `perf` binaries turn a bad `--hf-scale` into the typed
//! `invalid config` error and exit code 2, before any experiment runs.

use std::process::Command;

fn rejects(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(
        stderr.contains("invalid config: --hf-scale must be in (0, 4]"),
        "{bin} {args:?}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
}

#[test]
fn out_of_range_hf_scale_is_an_invalid_config() {
    for scale in ["0", "4.5", "NaN"] {
        rejects(
            env!("CARGO_BIN_EXE_repro"),
            &["table2", "--hf-scale", scale],
        );
        rejects(env!("CARGO_BIN_EXE_perf"), &["--hf-scale", scale]);
    }
}
