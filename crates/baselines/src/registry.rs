//! The standard sampler registry: every first-class method in the
//! workspace, keyed by its wire name.

use stem_core::registry::SamplerRegistry;
use stem_core::{StemConfig, StemRootSampler};

use crate::photon::PhotonSampler;
use crate::pka::PkaSampler;
use crate::random::RandomSampler;
use crate::rss::RssSampler;
use crate::sieve::SieveSampler;
use crate::tbpoint::TbPointSampler;
use crate::two_phase::TwoPhaseSampler;

/// Builds a registry with every first-class sampler under its
/// `KernelSampler::name()`: `STEM`, `Random`, `PKA`, `Sieve`, `Photon`,
/// `TBPoint`, `RSS`, `TwoPhase`. All constructors use the paper-default
/// configurations (`Random` resolves the per-suite rate at plan time).
///
/// # Example
///
/// ```
/// let registry = stem_baselines::standard_registry();
/// assert!(registry.contains("RSS") && registry.contains("TwoPhase"));
/// assert_eq!(registry.build("STEM").expect("standard").name(), "STEM");
/// ```
pub fn standard_registry() -> SamplerRegistry {
    let mut registry = SamplerRegistry::new();
    registry.register("STEM", || {
        Box::new(StemRootSampler::new(StemConfig::default()))
    });
    registry.register("Random", || Box::new(RandomSampler::auto()));
    registry.register("PKA", || Box::new(PkaSampler::new()));
    registry.register("Sieve", || Box::new(SieveSampler::new()));
    registry.register("Photon", || Box::new(PhotonSampler::new()));
    registry.register("TBPoint", || Box::new(TbPointSampler::new()));
    registry.register("RSS", || Box::new(RssSampler::new()));
    registry.register("TwoPhase", || Box::new(TwoPhaseSampler::new()));
    registry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_entry_builds_and_reports_its_own_key() {
        let registry = standard_registry();
        let names = registry.names();
        assert_eq!(
            names,
            vec!["PKA", "Photon", "RSS", "Random", "STEM", "Sieve", "TBPoint", "TwoPhase"]
        );
        for name in names {
            let sampler = registry.build(name).expect("standard entry");
            assert_eq!(sampler.name(), name, "registry key must match sampler name");
        }
    }

    #[test]
    fn built_samplers_actually_plan() {
        use gpu_workload::suites::rodinia_suite;
        let w = &rodinia_suite(1)[0];
        let registry = standard_registry();
        for name in ["RSS", "TwoPhase"] {
            let plan = registry
                .build(name)
                .expect("standard entry")
                .try_plan(w, 0)
                .expect("nonempty workload");
            assert_eq!(plan.method(), name);
            assert!(plan.num_samples() >= 1);
        }
    }
}
