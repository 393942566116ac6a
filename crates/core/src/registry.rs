//! Name-keyed sampler registry.
//!
//! The wire protocol (`stem-serve`), campaign configs, and the bench
//! harness all identify sampling methods by the short string
//! [`crate::sampler::KernelSampler::name`] reports. This registry maps
//! those names to constructors so a sampler can be chosen at runtime —
//! from a `SUBMIT` line, a CLI flag, or a results table — without every
//! caller hard-coding the full method list.
//!
//! `stem-core` only registers methods it can build itself; the baselines
//! crate layers the full standard set on top (its `standard_registry`),
//! keeping the dependency direction `baselines → core`.

use std::collections::BTreeMap;

use crate::error::StemError;
use crate::sampler::KernelSampler;

/// A constructor producing a boxed sampler.
type Constructor = Box<dyn Fn() -> Box<dyn KernelSampler> + Send + Sync>;

/// Maps sampler names to constructors.
///
/// # Example
///
/// ```
/// use stem_core::{SamplerRegistry, StemConfig, StemRootSampler};
///
/// let mut registry = SamplerRegistry::new();
/// registry.register("STEM", || Box::new(StemRootSampler::new(StemConfig::default())));
/// let sampler = registry.build("STEM").expect("registered");
/// assert_eq!(sampler.name(), "STEM");
/// assert!(registry.build("nope").is_err());
/// ```
#[derive(Default)]
pub struct SamplerRegistry {
    constructors: BTreeMap<String, Constructor>,
}

impl std::fmt::Debug for SamplerRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SamplerRegistry")
            .field("names", &self.names())
            .finish()
    }
}

impl SamplerRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SamplerRegistry {
            constructors: BTreeMap::new(),
        }
    }

    /// Registers (or replaces) a constructor under `name`. The name
    /// should match what the constructed sampler's `name()` reports, so
    /// that plans round-trip through results tables unambiguously.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        constructor: impl Fn() -> Box<dyn KernelSampler> + Send + Sync + 'static,
    ) {
        self.constructors.insert(name.into(), Box::new(constructor));
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.constructors.contains_key(name)
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.constructors.keys().map(String::as_str).collect()
    }

    /// Builds the sampler registered under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`StemError::InvalidConfig`] for unknown names, listing
    /// what is available.
    pub fn build(&self, name: &str) -> Result<Box<dyn KernelSampler>, StemError> {
        match self.constructors.get(name) {
            Some(make) => Ok(make()),
            None => Err(StemError::InvalidConfig(format!(
                "unknown sampler {name:?}; available: {}",
                self.names().join(", ")
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StemConfig;
    use crate::stem::StemRootSampler;

    fn registry() -> SamplerRegistry {
        let mut r = SamplerRegistry::new();
        r.register("STEM", || {
            Box::new(StemRootSampler::new(StemConfig::default()))
        });
        r
    }

    #[test]
    fn builds_registered_samplers_by_name() {
        let r = registry();
        assert!(r.contains("STEM"));
        assert_eq!(r.names(), vec!["STEM"]);
        assert_eq!(r.build("STEM").expect("registered").name(), "STEM");
    }

    #[test]
    fn unknown_names_are_typed_errors_naming_the_options() {
        let r = registry();
        let err = match r.build("Oracle") {
            Ok(_) => panic!("unregistered name must not build"),
            Err(e) => e,
        };
        match err {
            StemError::InvalidConfig(msg) => {
                assert!(msg.contains("Oracle") && msg.contains("STEM"), "{msg}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn debug_prints_names_not_closures() {
        let text = format!("{:?}", registry());
        assert!(text.contains("STEM"), "{text}");
    }
}
