#!/usr/bin/env bash
# Tier-1 gate: hermetic (offline) build, full test suite, workspace lint
# pass. Everything here must succeed with no network access at all.
set -euo pipefail
cd "$(dirname "$0")"

# Formatting gate: the whole workspace (every member crate and the stem
# facade's src/, tests/ and examples/) is rustfmt-clean.
cargo fmt --all --check
# Lint gate: every clippy warning, in every target, fails the run.
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo build --workspace --release --offline
# perfbench is a workspace of its own that compiles against the library
# crates by path; building it here makes a change to an API it uses fail
# this gate, not the benchmark run. --locked keeps perfbench/Cargo.lock as
# committed.
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml \
  --target-dir target/perfbench
cargo test --workspace -q --offline
# The chaos, sealed-file, workload-construction, serve,
# parallel-equivalence and lint-engine suites are part of the workspace
# run above; keep explicit invocations so a fault-model, durability,
# fingerprint or group-id, job-materialization, determinism or lint
# regression is named in CI output.
cargo test -q --offline --test chaos
cargo test -q --offline -p stem-storage
cargo test -q --offline -p gpu-workload
cargo test -q --offline -p stem-tidy
cargo test -q --offline --test storage_chaos
cargo test -q --offline --test colstore
cargo test -q --offline --test crash_resume
cargo test -q --offline --test serve
cargo test -q --offline -p stem-serve
cargo test -q --offline --test parallel_equivalence
cargo test -q --offline --test hotpath_equivalence
cargo test -q --offline --test coverage
# Threads=1 vs threads=4 smoke check, a cold sampler on each side: asserts
# bit-identical results; the printed thread speedup is informational
# (never a gate). It also gates on four ratios measured within one
# process, which machine speed cancels out of: the in-memory ground-truth
# fold against the per-invocation reference (<= 0.5x, same total bits),
# ROOT's recursion against its reference (<= 0.85x), one-pass workload
# construction against its three-pass reference (<= 0.5x) and the
# builder's rounding-tested normal draw against the libm expression over
# 1 M seeded pairs (<= 0.7x, same f32 bits). A cold sampler's
# profile+ROOT must match a fresh runner per workload plus
# cluster_workload bit for bit; its time ratio is printed, not gated.
cargo test -q --offline -p stem-bench --test scaling_smoke -- --nocapture
# The tidy pass publishes its one-line JSON summary (violation, warning
# and per-rule counts) as a committed artifact so rule-count drift shows
# up as a diff in review, not just as CI exit status.
cargo run -p stem-tidy --release --offline -- --summary-out crates/bench/results/tidy_summary.json
if ! git diff --quiet -- crates/bench/results/tidy_summary.json 2>/dev/null; then
  echo "crates/bench/results/tidy_summary.json drifted from the committed summary:" >&2
  git --no-pager diff -- crates/bench/results/tidy_summary.json >&2
  exit 1
fi
# Coverage calibration matrix (6 samplers x 6 scenarios x 40 reps +
# chaos cell): the summary is a committed artifact, so any change in a
# cell's tally — a sampler's bound going stale, a scenario drifting —
# shows up as a diff in review, not just as a coverage gate failure.
STEM_RESULTS_DIR=crates/bench/results \
  cargo run -p stem-bench --release --offline --bin repro -- coverage
if ! git diff --quiet -- crates/bench/results/coverage_summary.json 2>/dev/null; then
  echo "crates/bench/results/coverage_summary.json drifted from the committed matrix:" >&2
  git --no-pager diff -- crates/bench/results/coverage_summary.json >&2
  exit 1
fi
# Committed experiment artifacts: `repro all` must rewrite every CSV under
# results/ and its stdout in repro_all_output.txt byte for byte. The
# closing "done in" line (stderr: wall time and results directory) is left
# out of the comparison.
repro_tmp=$(mktemp -d)
trap 'rm -rf "$repro_tmp"' EXIT
STEM_RESULTS_DIR="$repro_tmp/results" \
  cargo run -q -p stem-bench --release --offline --bin repro -- all > "$repro_tmp/stdout.txt"
if ! diff -r results "$repro_tmp/results" >&2 ||
  ! grep -v '^done in ' repro_all_output.txt | diff - "$repro_tmp/stdout.txt" >&2; then
  echo "repro all drifted from the committed results/ or repro_all_output.txt" >&2
  exit 1
fi
# Hot-path perf baseline: informational only, never a gate (CI machines
# are too noisy for wall-clock thresholds). Reference numbers live in
# EXPERIMENTS.md; regenerate the committed baseline with
#   STEM_THREADS=1 cargo run -p stem-bench --release --bin perf -- --hf-scale 0.05
STEM_THREADS=1 cargo run -p stem-bench --release --offline --bin perf -- \
  --hf-scale 0.02 --reps 2 --out target/BENCH_hotpath_ci.json || \
  echo "perf baseline run failed (informational, not a gate)"
