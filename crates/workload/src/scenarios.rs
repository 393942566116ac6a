//! Adversarial scenario generators: workload regimes the paper never
//! tested, chosen to stress ROOT's static clustering hardest.
//!
//! The paper evaluates STEM+ROOT on three well-behaved suites whose
//! kernels keep stationary time distributions. These generators break that
//! stationarity in three distinct ways:
//!
//! * [`phase_drift`] — each kernel's runtime context *drifts* mid-stream
//!   (work grows, locality decays), so the execution-time distribution a
//!   profile sees early is systematically wrong about the late stream.
//! * [`bursty_interference`] — a noisy co-tenant periodically thrashes the
//!   cache: long calm stretches are punctuated by short bursts of
//!   cache-hostile, high-jitter execution, producing heavy-tailed
//!   per-kernel histograms.
//! * [`longtail_skew`] — two head kernels carry thousands of calls while
//!   dozens of tail kernels appear only 1–9 times each, forcing samplers
//!   to cope with many degenerate (single-member) strata.
//!
//! All three are seeded and deterministic like the [`crate::suites`]
//! generators, sized at a few thousand invocations so the tier-1 coverage
//! calibration can afford dozens of full-simulation repetitions, and
//! tagged [`SuiteKind::Custom`].

use crate::builder::WorkloadSource;
use crate::context::{ContextSchedule, RuntimeContext};
use crate::suites::ml;
use crate::trace::{SuiteKind, Workload};

/// Names of the adversarial scenarios, in [`adversarial_suite`] order.
pub const SCENARIO_NAMES: [&str; 3] = ["phase_drift", "bursty_interference", "longtail_skew"];

/// All three adversarial workloads, in [`SCENARIO_NAMES`] order.
pub fn adversarial_suite(seed: u64) -> Vec<Workload> {
    adversarial_sources(seed)
        .iter()
        .map(WorkloadSource::materialize)
        .collect()
}

/// The three adversarial workloads as deferred [`WorkloadSource`]s — the
/// block-streaming counterpart of [`adversarial_suite`], generating
/// identical content (same RNG stream, same fingerprints).
pub fn adversarial_sources(seed: u64) -> Vec<WorkloadSource> {
    vec![
        phase_drift(seed),
        bursty_interference(seed),
        longtail_skew(seed),
    ]
}

/// Kernel time distributions shift mid-stream: every kernel walks through
/// a sequence of contexts with growing work and decaying locality, one
/// phase at a time ([`ContextSchedule::Phased`]). A sampler that trusts an
/// early prefix — or a clustering that assumes one stationary distribution
/// per kernel — sees its estimate dragged by the drift.
pub fn phase_drift(seed: u64) -> WorkloadSource {
    WorkloadSource::new("phase_drift", SuiteKind::Custom, seed ^ 0xd81f_7000, |b| {
        // A mid-size GEMM drifting through four regimes: warm cache and unit
        // work at the start, 2.1x work on a cold cache by the end.
        let gemm = b.add_kernel(
            ml::gemm("drift_gemm", ml::GemmSize::Medium),
            vec![
                RuntimeContext::neutral()
                    .with_work(1.0)
                    .with_locality(3.0)
                    .with_jitter(0.05),
                RuntimeContext::neutral()
                    .with_work(1.25)
                    .with_locality(1.8)
                    .with_jitter(0.07),
                RuntimeContext::neutral()
                    .with_work(1.6)
                    .with_locality(1.0)
                    .with_jitter(0.09),
                RuntimeContext::neutral()
                    .with_work(2.1)
                    .with_locality(0.5)
                    .with_jitter(0.12),
            ],
        );
        // Attention-score kernel whose working set falls out of cache.
        let attn = b.add_kernel(
            ml::softmax("drift_attn", 96),
            vec![
                RuntimeContext::neutral()
                    .with_work(1.0)
                    .with_locality(2.5)
                    .with_jitter(0.10),
                RuntimeContext::neutral()
                    .with_work(1.3)
                    .with_locality(1.0)
                    .with_jitter(0.10),
                RuntimeContext::neutral()
                    .with_work(1.7)
                    .with_locality(0.4)
                    .with_jitter(0.10),
            ],
        );
        // Memory-bound pooling kernel that both slows down and gets noisier.
        let pool = b.add_kernel(
            ml::pool("drift_pool", 64),
            vec![
                RuntimeContext::neutral()
                    .with_locality(1.0)
                    .with_jitter(0.15),
                RuntimeContext::neutral()
                    .with_locality(0.4)
                    .with_jitter(0.30),
            ],
        );

        b.schedule(
            gemm,
            &ContextSchedule::Phased(vec![(0, 900), (1, 900), (2, 900), (3, 900)]),
            3600,
        );
        b.schedule(
            attn,
            &ContextSchedule::Phased(vec![(0, 800), (1, 800), (2, 800)]),
            2400,
        );
        b.schedule(
            pool,
            &ContextSchedule::Phased(vec![(0, 700), (1, 700)]),
            1400,
        );
    })
}

/// A noisy co-tenant periodically evicts the cache: each kernel alternates
/// long calm phases with short bursts where locality collapses and jitter
/// explodes. Per-kernel histograms become heavy-tailed mixtures whose
/// minority mode is easy for a small sample to miss entirely.
pub fn bursty_interference(seed: u64) -> WorkloadSource {
    WorkloadSource::new(
        "bursty_interference",
        SuiteKind::Custom,
        seed ^ 0xb0b5_7000,
        |b| {
            // calm/burst context pairs: the burst context models the co-tenant
            // flushing L2 (locality collapses, footprint pressure doubles) and
            // injecting DRAM-contention jitter.
            let gemm = b.add_kernel(
                ml::gemm("tenant_gemm", ml::GemmSize::Medium),
                vec![
                    RuntimeContext::neutral()
                        .with_locality(2.5)
                        .with_jitter(0.04),
                    RuntimeContext::neutral()
                        .with_locality(0.3)
                        .with_footprint(2.0)
                        .with_jitter(0.60),
                ],
            );
            let embed = b.add_kernel(
                ml::embedding("tenant_embed", 96),
                vec![
                    RuntimeContext::neutral()
                        .with_locality(1.0)
                        .with_jitter(0.20),
                    RuntimeContext::neutral()
                        .with_locality(0.25)
                        .with_jitter(0.80),
                ],
            );
            let norm = b.add_kernel(
                ml::norm("tenant_norm", 96),
                vec![
                    RuntimeContext::neutral().with_jitter(0.03),
                    RuntimeContext::neutral()
                        .with_locality(0.5)
                        .with_jitter(0.40),
                ],
            );

            b.schedule(
                gemm,
                &ContextSchedule::Phased(vec![(0, 280), (1, 70)]),
                3500,
            );
            b.schedule(
                embed,
                &ContextSchedule::Phased(vec![(0, 160), (1, 40)]),
                2000,
            );
            b.schedule(
                norm,
                &ContextSchedule::Phased(vec![(0, 120), (1, 60)]),
                1440,
            );
        },
    )
}

/// Extreme kernel-count skew: two head kernels carry nearly all calls
/// while 28 tail kernels are launched only 1–9 times each. Name-keyed
/// stratifiers get dozens of strata whose variance is undefined or zero
/// (single member, or identical members) — the degenerate-stratum regime
/// the Neyman-allocation guard exists for.
pub fn longtail_skew(seed: u64) -> WorkloadSource {
    WorkloadSource::new(
        "longtail_skew",
        SuiteKind::Custom,
        seed ^ 0x10f7_a110,
        |b| {
            let head_gemm = b.add_kernel(
                ml::gemm("head_gemm", ml::GemmSize::Large),
                ml::two_peak_contexts(2.2, 0.08),
            );
            let head_soft = b.add_kernel(ml::softmax("head_soft", 128), ml::stable_context(0.12));
            // Tail kernels registered up front (registration draws no RNG, so
            // hoisting it out of the invoke loop leaves content unchanged and
            // lets the same body run against a streaming builder, which
            // freezes the tables at the first invocation).
            let mut tails = Vec::with_capacity(28);
            for i in 0..28u64 {
                let name = format!("tail_{i:02}");
                let kernel = match i % 4 {
                    0 => ml::elementwise(&name, 48),
                    1 => ml::norm(&name, 48),
                    2 => ml::pool(&name, 48),
                    _ => ml::embedding(&name, 48),
                };
                let context = RuntimeContext::neutral()
                    .with_work(1.0 + i as f64 * 0.07)
                    .with_locality(if i % 2 == 0 { 0.8 } else { 1.5 })
                    .with_jitter(0.05 + 0.01 * (i % 5) as f64);
                tails.push(b.add_kernel(kernel, vec![context]));
            }

            b.schedule(head_gemm, &ContextSchedule::Weighted(vec![3.0, 1.0]), 3600);
            b.schedule(head_soft, &ContextSchedule::Cyclic, 2200);
            for (i, &id) in tails.iter().enumerate() {
                // 1 + (5i mod 9) calls: several kernels appear exactly once.
                let count = 1 + (i as u64 * 5) % 9;
                for _ in 0..count {
                    b.invoke(id, 0, 1.0);
                }
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic_per_seed() {
        let (a, b, c) = (
            adversarial_suite(21),
            adversarial_suite(21),
            adversarial_suite(22),
        );
        for (name, ((a, b), c)) in SCENARIO_NAMES.iter().zip(a.iter().zip(&b).zip(&c)) {
            assert_eq!(a, b, "{name} must be reproducible");
            assert_ne!(
                a.fingerprint(),
                c.fingerprint(),
                "{name} must vary with seed"
            );
        }
    }

    #[test]
    fn suite_matches_names_and_sizes_stay_test_affordable() {
        let suite = adversarial_suite(7);
        assert_eq!(suite.len(), SCENARIO_NAMES.len());
        for (w, name) in suite.iter().zip(SCENARIO_NAMES) {
            assert_eq!(w.name(), name);
            assert_eq!(w.suite(), SuiteKind::Custom);
            assert!(
                (1_000..20_000).contains(&w.num_invocations()),
                "{name}: {} invocations",
                w.num_invocations()
            );
        }
    }

    #[test]
    fn phase_drift_shifts_context_mix_between_halves() {
        let w = phase_drift(3).materialize();
        let gemm: Vec<u16> = w
            .invocations()
            .filter(|inv| w.kernel_of(inv).name == "drift_gemm")
            .map(|inv| inv.context)
            .collect();
        let half = gemm.len() / 2;
        let early: f64 = gemm[..half].iter().map(|&c| c as f64).sum::<f64>() / half as f64;
        let late: f64 =
            gemm[half..].iter().map(|&c| c as f64).sum::<f64>() / (gemm.len() - half) as f64;
        assert!(
            late > early + 1.0,
            "contexts must drift upward: early {early:.2}, late {late:.2}"
        );
    }

    #[test]
    fn bursts_are_a_minority_of_the_stream() {
        let w = bursty_interference(3).materialize();
        let burst = w.invocations().filter(|inv| inv.context == 1).count();
        let frac = burst as f64 / w.num_invocations() as f64;
        assert!(
            (0.1..0.4).contains(&frac),
            "bursts should be a visible minority, got {frac:.2}"
        );
    }

    #[test]
    fn longtail_has_singleton_kernels_and_a_dominant_head() {
        let w = longtail_skew(3).materialize();
        let groups = w.invocations_by_kernel_name();
        let singletons = groups.values().filter(|g| g.len() == 1).count();
        assert!(singletons >= 2, "need singleton strata, got {singletons}");
        let head = groups.get("head_gemm").map(|g| g.len()).unwrap_or(0);
        assert!(
            head as f64 > 0.5 * w.num_invocations() as f64,
            "head kernel must dominate"
        );
        assert!(groups.len() >= 30, "got {} name groups", groups.len());
    }
}
