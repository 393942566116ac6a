//! Seeded property suite for the RSS and two-phase samplers.
//!
//! Every property is checked across multiple seeds on both clean and
//! adversarial workloads: the sample budget never exceeds the population,
//! every stratum is represented whenever the budget allows it, plans are
//! bit-deterministic per seed, and degenerate workloads (empty, or a
//! single kernel) stay on the typed-error / exact-enumeration paths.

use std::collections::BTreeSet;

use gpu_workload::kernel::KernelClassBuilder;
use gpu_workload::scenarios::{adversarial_suite, longtail_skew};
use gpu_workload::suites::rodinia_suite;
use gpu_workload::{RuntimeContext, SuiteKind, Workload, WorkloadBuilder};
use stem_baselines::{standard_registry, RssSampler, TwoPhaseSampler};
use stem_core::{KernelSampler, StemError};

const SEEDS: [u64; 5] = [0, 1, 7, 0xBEEF, u64::MAX];

fn new_samplers() -> Vec<Box<dyn KernelSampler>> {
    vec![
        Box::new(RssSampler::new()),
        Box::new(TwoPhaseSampler::new()),
    ]
}

/// A structurally valid workload with a kernel but zero invocations.
fn empty_workload() -> Workload {
    let mut b = WorkloadBuilder::new("empty", SuiteKind::Custom, 1);
    b.add_kernel(
        KernelClassBuilder::new("k").build(),
        vec![RuntimeContext::neutral()],
    );
    b.build()
}

/// A workload whose every invocation is the same kernel in the same
/// context: one stratum, zero variance.
fn single_kernel_workload(calls: usize) -> Workload {
    let mut b = WorkloadBuilder::new("mono", SuiteKind::Custom, 2);
    let id = b.add_kernel(
        KernelClassBuilder::new("only").build(),
        vec![RuntimeContext::neutral()],
    );
    for _ in 0..calls {
        b.invoke(id, 0, 1.0);
    }
    b.build()
}

#[test]
fn budget_never_exceeds_the_population() {
    let mut workloads = adversarial_suite(11);
    workloads.push(rodinia_suite(11).swap_remove(0));
    for sampler in new_samplers() {
        for w in &workloads {
            for seed in SEEDS {
                let plan = sampler.try_plan(w, seed).expect("nonempty");
                assert!(
                    plan.num_samples() <= w.num_invocations(),
                    "{} on {} seed {seed}: {} samples for {} invocations",
                    sampler.name(),
                    w.name(),
                    plan.num_samples(),
                    w.num_invocations()
                );
                for c in plan.clusters() {
                    assert!(
                        c.samples <= c.population,
                        "{} stratum {}: {} drawn from {}",
                        sampler.name(),
                        c.kernel,
                        c.samples,
                        c.population
                    );
                }
            }
        }
    }
}

#[test]
fn every_stratum_nonempty_when_budget_allows() {
    // longtail_skew has ≥30 name strata, several singletons — if the
    // budget (clamped ≥ strata count) leaves any stratum empty, the
    // estimator silently drops population mass.
    let w = longtail_skew(5).materialize();
    for sampler in new_samplers() {
        for seed in SEEDS {
            let plan = sampler.try_plan(&w, seed).expect("nonempty");
            for c in plan.clusters() {
                assert!(
                    c.samples >= 1,
                    "{} seed {seed}: stratum {} got zero samples",
                    sampler.name(),
                    c.kernel
                );
            }
            // And the sampled indices really do land in distinct strata:
            // at least as many distinct invocations as strata.
            let distinct: BTreeSet<usize> = plan.samples().iter().map(|s| s.index).collect();
            assert!(
                distinct.len() >= plan.clusters().len(),
                "{} seed {seed}: {} distinct indices for {} strata",
                sampler.name(),
                distinct.len(),
                plan.clusters().len()
            );
        }
    }
}

#[test]
fn plans_are_bit_deterministic_per_seed() {
    let w = &adversarial_suite(3)[0];
    for sampler in new_samplers() {
        for seed in SEEDS {
            let a = sampler.try_plan(w, seed).expect("nonempty");
            let b = sampler.try_plan(w, seed).expect("nonempty");
            assert_eq!(
                a,
                b,
                "{} seed {seed} must replay identically",
                sampler.name()
            );
        }
        let a = sampler.try_plan(w, 1).expect("nonempty");
        let b = sampler.try_plan(w, 2).expect("nonempty");
        assert_ne!(
            a.samples(),
            b.samples(),
            "{} must actually use the rep seed",
            sampler.name()
        );
    }
}

#[test]
fn empty_workload_is_a_typed_error() {
    let w = empty_workload();
    for sampler in new_samplers() {
        let err = sampler
            .try_plan(&w, 7)
            .expect_err("empty workload must be a typed error");
        assert_eq!(
            err,
            StemError::EmptyWorkload,
            "{} returned the wrong error class",
            sampler.name()
        );
    }
}

#[test]
fn single_kernel_workload_stays_on_the_guarded_path() {
    // One stratum whose profile times are all identical: sigma must be 0
    // (not NaN), Neyman must not divide by zero, and the zero-variance
    // budget collapses to exact-or-floor sampling with a finite interval.
    let w = single_kernel_workload(64);
    for sampler in new_samplers() {
        let plan = sampler
            .try_plan(&w, 3)
            .expect("single-kernel workload plans");
        assert!(
            plan.predicted_error().is_finite(),
            "{}: predicted error must be finite",
            sampler.name()
        );
        for c in plan.clusters() {
            assert!(
                c.std_time.is_finite(),
                "{}: sigma NaN leaked",
                sampler.name()
            );
        }
        assert!(plan.num_samples() >= 1);
        assert!(plan.num_samples() <= 64);
    }
}

#[test]
fn registry_builds_match_direct_construction() {
    let registry = standard_registry();
    let w = rodinia_suite(4).swap_remove(1);
    let direct_rss = RssSampler::new().plan(&w, 9);
    let via_registry = registry.build("RSS").expect("RSS registered").plan(&w, 9);
    assert_eq!(direct_rss, via_registry);
    let direct_tp = TwoPhaseSampler::new().plan(&w, 9);
    let via_registry = registry
        .build("TwoPhase")
        .expect("TwoPhase registered")
        .plan(&w, 9);
    assert_eq!(direct_tp, via_registry);
}
