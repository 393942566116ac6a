//! Tier-1 interval-calibration gate.
//!
//! An error bound you cannot trust is worse than no bound, so this suite
//! holds every sampler's reported (or allocation-derived) 95% interval to
//! its nominal meaning across the whole scenario roster — the three clean
//! suite workloads *and* the three adversarial generators built to break
//! samplers (phase drift, bursty interference, long-tail skew):
//!
//! * every sampler × scenario cell must cover ground truth on at least
//!   85% of 40 seeded repetitions;
//! * RSS's empirical repeated-subsampling interval and STEM's analytic
//!   CLT/KKT interval — two independent error mechanisms — must overlap
//!   on EVERY repetition of every clean scenario;
//! * STEM planning from a chaos-damaged phase-drift trace must still
//!   cover the clean ground truth with its widened interval.
//!
//! The matrix is deterministic (seeded rep schedule, index-merged
//! parallelism), so the committed `coverage_summary.json` artifact
//! regenerates bit-identically via `repro coverage`; `ci.sh` gates on
//! that diff separately.

use stem_bench::experiments::coverage::{
    coverage, CoverageOptions, CoverageReport, CHAOS_SCENARIO, COVERAGE_METHODS,
};

/// The gate's floor: 34/40 = 85%.
const FLOOR_PERCENT: u32 = 85;

fn calibration() -> CoverageReport {
    let options = CoverageOptions::calibration();
    assert!(options.reps >= 40, "the gate needs at least 40 repetitions");
    coverage(&options)
}

#[test]
fn every_cell_and_crosscheck_meets_the_gate() {
    let report = calibration();

    // 6 methods × 6 scenarios, plus the chaos-damaged STEM cell.
    assert_eq!(report.cells.len(), COVERAGE_METHODS.len() * 6 + 1);
    let mut failures = Vec::new();
    for c in &report.cells {
        if c.covered * 100 < c.reps * FLOOR_PERCENT {
            failures.push(format!(
                "{} × {}: {}/{} ({:.2})",
                c.sampler,
                c.scenario,
                c.covered,
                c.reps,
                c.rate()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "cells below {FLOOR_PERCENT}% coverage:\n{}",
        failures.join("\n")
    );

    // The chaos-damaged STEM cell is present and held to the same floor
    // (covered by the loop above; presence is what this asserts).
    let chaos = report
        .cell("STEM", CHAOS_SCENARIO)
        .expect("chaos-damaged STEM cell in the matrix");
    assert_eq!(chaos.reps, report.reps);

    // Cross-check: the two error mechanisms must agree on every clean
    // repetition — a single non-overlap means one of the intervals lied.
    assert_eq!(
        report.crosscheck.len(),
        3,
        "one cross-check per clean suite"
    );
    for c in &report.crosscheck {
        assert_eq!(
            c.overlaps, c.reps,
            "RSS∩STEM intervals disjoint on {} ({}/{} overlapped)",
            c.scenario, c.overlaps, c.reps
        );
    }
}
