//! Coverage calibration: does each sampler's reported 95% interval
//! actually cover ground truth at ≥ the nominal rate?
//!
//! For every method × scenario cell the engine runs `reps` seeded
//! repetitions. Each repetition regenerates the scenario workload at a
//! derived seed (fresh jitter draws), simulates it fully for ground
//! truth, plans with the method at the evaluation rep-seed schedule, and
//! checks whether `|estimate − truth| ≤ half_width · estimate`.
//!
//! Interval sources:
//! * STEM, RSS and two-phase report their own `predicted_error` — STEM's
//!   analytic CLT/KKT bound versus RSS's *empirical* repeated-subsampling
//!   interval, which is the cross-check the issue asks for: on clean
//!   scenarios the two intervals must overlap on every repetition.
//! * PKA, Sieve and Photon report no interval of their own
//!   (`predicted_error = 0`), so they are scored against the stratified
//!   CLT half-width their own sample allocation implies over kernel-name
//!   strata ([`derived_half_width`]) — an honest bound that widens with
//!   the strata they under-sample.
//!
//! The chaos-damaged cell replays the phase-drift scenario through
//! fault-injected traces (`gpu_profile::FaultPlan`) and STEM's degraded
//! planning path: the *widened* CI must still cover the clean truth.

use gpu_profile::{ExecTimeProfiler, Fault, FaultPlan, TraceRecord};
use gpu_sim::{GpuConfig, Simulator};
use gpu_workload::scenarios::{bursty_interference, longtail_skew, phase_drift};
use gpu_workload::suites::{casio_sources, huggingface_sources, rodinia_sources, HuggingfaceScale};
use gpu_workload::{Workload, WorkloadSource};
use stem_baselines::stratum;
use stem_core::eval::rep_seed;
use stem_core::plan::SamplingPlan;
use stem_core::{StemConfig, StemRootSampler};
use stem_stats::z_for_confidence;

use crate::harness::{build_sampler, ground_truth, MethodKind};
use crate::report::write_result;

/// The methods the calibration matrix scores, in row order.
pub const COVERAGE_METHODS: [MethodKind; 6] = [
    MethodKind::Pka,
    MethodKind::Sieve,
    MethodKind::Photon,
    MethodKind::Rss,
    MethodKind::TwoPhase,
    MethodKind::Stem,
];

/// The scenario label of the chaos-damaged STEM cell.
pub const CHAOS_SCENARIO: &str = "adv/phase_drift+faults";

/// Calibration settings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageOptions {
    /// Seeded repetitions per (method, scenario) cell.
    pub reps: u32,
    /// Base seed for workload regeneration and the rep-seed schedule.
    pub seed: u64,
}

impl CoverageOptions {
    /// The tier-1 gate's settings: 40 repetitions at the repro seed.
    pub fn calibration() -> Self {
        CoverageOptions {
            reps: 40,
            seed: 2025,
        }
    }

    /// Reduced settings for smoke tests.
    pub fn fast() -> Self {
        CoverageOptions {
            reps: 4,
            seed: 2025,
        }
    }
}

/// One cell of the calibration matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageCell {
    /// Method label.
    pub sampler: String,
    /// Scenario label (`suite/workload` or `adv/name`).
    pub scenario: String,
    /// Repetitions whose interval covered ground truth.
    pub covered: u32,
    /// Total repetitions.
    pub reps: u32,
}

impl CoverageCell {
    /// Empirical coverage rate.
    pub fn rate(&self) -> f64 {
        self.covered as f64 / self.reps as f64
    }
}

/// Per-scenario RSS↔STEM interval cross-check tally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrosscheckCell {
    /// Scenario label.
    pub scenario: String,
    /// Repetitions where the two intervals overlapped.
    pub overlaps: u32,
    /// Total repetitions.
    pub reps: u32,
}

/// The full calibration result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageReport {
    /// Repetitions per cell.
    pub reps: u32,
    /// Base seed.
    pub seed: u64,
    /// Method × scenario cells (plus the chaos-damaged STEM cell).
    pub cells: Vec<CoverageCell>,
    /// RSS↔STEM overlap tallies on the clean scenarios.
    pub crosscheck: Vec<CrosscheckCell>,
}

impl CoverageReport {
    /// Looks a cell up by method label and scenario label.
    pub fn cell(&self, sampler: &str, scenario: &str) -> Option<&CoverageCell> {
        self.cells
            .iter()
            .find(|c| c.sampler == sampler && c.scenario == scenario)
    }

    /// Deterministic compact JSON (integer tallies only, so the artifact
    /// is bit-identical across debug/release and thread counts).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!(
            "  \"reps\": {},\n  \"seed\": {},\n",
            self.reps, self.seed
        ));
        s.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let sep = if i + 1 == self.cells.len() { "" } else { "," };
            s.push_str(&format!(
                "    {{\"sampler\": \"{}\", \"scenario\": \"{}\", \"covered\": {}, \"reps\": {}}}{sep}\n",
                c.sampler, c.scenario, c.covered, c.reps
            ));
        }
        s.push_str("  ],\n  \"crosscheck\": [\n");
        for (i, c) in self.crosscheck.iter().enumerate() {
            let sep = if i + 1 == self.crosscheck.len() {
                ""
            } else {
                ","
            };
            s.push_str(&format!(
                "    {{\"scenario\": \"{}\", \"overlaps\": {}, \"reps\": {}}}{sep}\n",
                c.scenario, c.overlaps, c.reps
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Regenerates one scenario's workload at a seed.
type Generator = fn(u64) -> Workload;

/// The scenario roster: one representative workload per clean suite
/// (regenerated per repetition at a shifted seed, so jitter is fresh)
/// plus the three adversarial generators.
fn scenario_roster() -> Vec<(&'static str, Generator, bool)> {
    /// Materializes only the named source, never the rest of its suite.
    fn named(sources: Vec<WorkloadSource>, name: &str) -> Workload {
        sources
            .iter()
            .find(|s| s.name() == name)
            .unwrap_or_else(|| panic!("{name} in its suite"))
            .materialize()
    }
    fn srad(seed: u64) -> Workload {
        named(rodinia_sources(seed), "srad")
    }
    fn ssdrn34(seed: u64) -> Workload {
        named(casio_sources(seed), "ssdrn34_infer")
    }
    fn bert(seed: u64) -> Workload {
        named(
            huggingface_sources(seed, HuggingfaceScale::custom(0.002)),
            "bert",
        )
    }
    fn drift(seed: u64) -> Workload {
        phase_drift(seed).materialize()
    }
    fn bursty(seed: u64) -> Workload {
        bursty_interference(seed).materialize()
    }
    fn longtail(seed: u64) -> Workload {
        longtail_skew(seed).materialize()
    }
    vec![
        ("rodinia/srad", srad, true),
        ("casio/ssdrn34_infer", ssdrn34, true),
        ("hf/bert", bert, true),
        ("adv/phase_drift", drift, false),
        ("adv/bursty_interference", bursty, false),
        ("adv/longtail_skew", longtail, false),
    ]
}

/// The stratified CLT half-width (relative, 95%) implied by a plan's own
/// sample allocation over kernel-name strata: `z √(Σ N_g² σ_g² / m_g) / T̂`
/// with σ_g from the profile times and fully-enumerated strata exact.
/// A stratum the plan never samples is pure extrapolation — no draw
/// constrains it, so its full second moment `N_g² (σ_g² + μ_g²)` enters
/// the variance instead of a σ/√m term that does not exist. Used to
/// score samplers that report no interval of their own.
pub fn derived_half_width(workload: &Workload, times: &[f64], plan: &SamplingPlan) -> f64 {
    let z = z_for_confidence(0.95);
    let mut t_hat = 0.0;
    let mut variance = 0.0;
    for members in workload.invocations_by_kernel_name().values() {
        let vals: Vec<f64> = members.iter().map(|&i| times[i]).collect();
        let (mean, sigma) = stratum::mean_and_sigma(&vals);
        let n_g = members.len();
        t_hat += n_g as f64 * mean;
        // `members` is in invocation order, hence sorted.
        let m_g = plan
            .samples()
            .iter()
            .filter(|s| members.binary_search(&s.index).is_ok())
            .count();
        if m_g == 0 {
            variance += (n_g as f64).powi(2) * (sigma * sigma + mean * mean);
        } else if m_g < n_g {
            variance += (n_g as f64 * sigma).powi(2) / m_g as f64;
        }
    }
    if t_hat > 0.0 {
        z * variance.max(0.0).sqrt() / t_hat
    } else {
        0.0
    }
}

/// One repetition's outcome on one scenario.
struct RepOutcome {
    /// Covered flag per [`COVERAGE_METHODS`] entry.
    covered: Vec<bool>,
    /// RSS and STEM intervals overlapped.
    rss_stem_overlap: bool,
    /// The chaos-damaged STEM interval covered clean truth (phase-drift
    /// scenario only).
    chaos_covered: Option<bool>,
}

/// Whether the reported relative half-width bounds the realized sampling
/// error — the workspace's error convention (`SampledRun::error`, the
/// chaos gate) measures against ground truth, so the calibration claim is
/// `|estimate − truth| / truth ≤ half`. A hair of absolute slack keeps
/// exact full-enumeration plans (zero half-width, zero error) covered.
fn covers(estimate: f64, half: f64, truth: f64) -> bool {
    (estimate - truth).abs() <= half * truth + 1e-9 * truth
}

fn run_rep(
    generate: fn(u64) -> Workload,
    with_chaos: bool,
    options: &CoverageOptions,
    r: u32,
) -> RepOutcome {
    let workload = generate(options.seed.wrapping_add(r as u64));
    let rep_seed = rep_seed(options.seed, r as u64);
    let sim = Simulator::new(GpuConfig::rtx2080());
    let truth = ground_truth(&sim, &workload);
    let times = ExecTimeProfiler::new(GpuConfig::rtx2080(), 0xC0FFEE).profile(&workload);
    let stem_config = StemConfig::paper();

    let mut covered = Vec::with_capacity(COVERAGE_METHODS.len());
    let mut intervals = Vec::with_capacity(COVERAGE_METHODS.len());
    for method in COVERAGE_METHODS {
        let plan = build_sampler(method, &workload, &stem_config).plan(&workload, rep_seed);
        let estimate = sim
            .run_sampled(&workload, plan.samples())
            .estimated_total_cycles;
        let half = if plan.predicted_error() > 0.0 {
            plan.predicted_error()
        } else {
            derived_half_width(&workload, &times, &plan)
        };
        covered.push(covers(estimate, half, truth));
        intervals.push((estimate, half));
    }

    let rss = intervals[COVERAGE_METHODS
        .iter()
        .position(|m| *m == MethodKind::Rss)
        .expect("RSS")];
    let stem = intervals[COVERAGE_METHODS
        .iter()
        .position(|m| *m == MethodKind::Stem)
        .expect("STEM")];
    let rss_stem_overlap = (rss.0 - stem.0).abs() <= rss.1 * rss.0 + stem.1 * stem.0;

    let chaos_covered = with_chaos.then(|| {
        // Damage the profiler trace the way the chaos suite does, then
        // plan through STEM's degraded path: the inflated CI must still
        // cover the *clean* ground truth.
        let records = TraceRecord::sequence(&times);
        let damaged = FaultPlan::new(rep_seed)
            .with(Fault::Drop { fraction: 0.05 })
            .with(Fault::Duplicate { fraction: 0.05 })
            .with(Fault::NanTime { fraction: 0.02 })
            .with(Fault::Reorder { fraction: 0.1 })
            .apply(&records);
        let sampler = StemRootSampler::new(stem_config.clone());
        let (plan, report) = sampler
            .plan_from_trace(&workload, &damaged, rep_seed)
            .expect("damaged trace is recoverable");
        assert!(!report.is_clean(), "fault injection went undetected");
        let estimate = sim
            .run_sampled(&workload, plan.samples())
            .estimated_total_cycles;
        covers(estimate, plan.predicted_error(), truth)
    });

    RepOutcome {
        covered,
        rss_stem_overlap,
        chaos_covered,
    }
}

/// Runs the full calibration matrix and prints per-cell coverage.
pub fn coverage(options: &CoverageOptions) -> CoverageReport {
    let rep_ids: Vec<u32> = (0..options.reps).collect();
    let mut cells = Vec::new();
    let mut crosscheck = Vec::new();
    for (scenario, generate, clean) in scenario_roster() {
        let with_chaos = scenario == "adv/phase_drift";
        let outcomes =
            stem_par::par_map_indexed(stem_par::Parallelism::from_env(), &rep_ids, |_, &r| {
                run_rep(generate, with_chaos, options, r)
            });
        for (mi, method) in COVERAGE_METHODS.iter().enumerate() {
            let covered = outcomes.iter().filter(|o| o.covered[mi]).count() as u32;
            cells.push(CoverageCell {
                sampler: method.label().to_string(),
                scenario: scenario.to_string(),
                covered,
                reps: options.reps,
            });
        }
        if clean {
            crosscheck.push(CrosscheckCell {
                scenario: scenario.to_string(),
                overlaps: outcomes.iter().filter(|o| o.rss_stem_overlap).count() as u32,
                reps: options.reps,
            });
        }
        if with_chaos {
            let covered = outcomes
                .iter()
                .filter(|o| o.chaos_covered.expect("chaos cell computed"))
                .count() as u32;
            cells.push(CoverageCell {
                sampler: MethodKind::Stem.label().to_string(),
                scenario: CHAOS_SCENARIO.to_string(),
                covered,
                reps: options.reps,
            });
        }
    }
    let report = CoverageReport {
        reps: options.reps,
        seed: options.seed,
        cells,
        crosscheck,
    };
    for c in &report.cells {
        println!(
            "coverage {:>8} × {:<24} {}/{} ({:.2})",
            c.sampler,
            c.scenario,
            c.covered,
            c.reps,
            c.rate()
        );
    }
    for c in &report.crosscheck {
        println!(
            "crosscheck RSS∩STEM {:<24} {}/{}",
            c.scenario, c.overlaps, c.reps
        );
    }
    report
}

/// Runs the calibration at the tier-1 settings and writes
/// `coverage_summary.json` to the results directory.
pub fn coverage_summary() -> CoverageReport {
    let report = coverage(&CoverageOptions::calibration());
    let path = write_result("coverage_summary.json", &report.to_json());
    println!("coverage summary written to {}", path.display());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_matrix_has_every_cell_and_sane_tallies() {
        let report = coverage(&CoverageOptions::fast());
        // 6 methods × 6 scenarios + the chaos-damaged STEM cell.
        assert_eq!(report.cells.len(), 37);
        assert_eq!(report.crosscheck.len(), 3);
        for c in &report.cells {
            assert!(c.covered <= c.reps, "{}/{}: {c:?}", c.sampler, c.scenario);
        }
        assert!(report.cell("STEM", CHAOS_SCENARIO).is_some());
        let json = report.to_json();
        assert!(json.contains("\"crosscheck\""));
        assert!(json.contains(CHAOS_SCENARIO));
    }

    #[test]
    fn matrix_is_deterministic() {
        let a = coverage(&CoverageOptions::fast());
        let b = coverage(&CoverageOptions::fast());
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn derived_half_width_widens_with_fewer_samples() {
        use gpu_workload::scenarios::phase_drift;
        use stem_core::sampler::KernelSampler;
        let w = phase_drift(5).materialize();
        let times = ExecTimeProfiler::new(GpuConfig::rtx2080(), 0xC0FFEE).profile(&w);
        let small = stem_baselines::RandomSampler::new(0.01).plan(&w, 1);
        let large = stem_baselines::RandomSampler::new(0.20).plan(&w, 1);
        let hw_small = derived_half_width(&w, &times, &small);
        let hw_large = derived_half_width(&w, &times, &large);
        assert!(hw_small > hw_large, "small {hw_small} vs large {hw_large}");
        assert!(hw_large > 0.0);
    }
}
