//! Compact per-invocation records.
//!
//! Large-scale workloads reach tens of millions of kernel calls (the
//! paper's HuggingFace suite averages 11.6M), so each invocation is a small
//! POD: 16 bytes, the unit generators emit and block streams carry. A
//! materialized [`Workload`](crate::Workload) keeps only 8 of them per
//! call ([`Row`](crate::Row)): the kernel, context and work scale live
//! once per timing group. The per-invocation randomness (`noise_z`) is
//! pre-drawn at generation time so that "running" the same invocation on
//! two different GPU configurations yields *correlated* times — the same
//! physical execution observed on different hardware — which is what makes
//! the DSE and cross-GPU experiments meaningful.

/// Index of a kernel class within its workload's kernel table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct KernelId(pub u32);

impl KernelId {
    /// The index as `usize` for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for KernelId {
    fn from(v: u32) -> Self {
        KernelId(v)
    }
}

impl std::fmt::Display for KernelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// One kernel launch in the workload's command stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Invocation {
    /// Which kernel class was launched.
    pub kernel: KernelId,
    /// Which runtime context (histogram peak) this launch runs under; an
    /// index into the workload's per-kernel context table.
    pub context: u16,
    /// Extra per-invocation work multiplier on top of the context's
    /// `work_scale` (models e.g. Gaussian elimination's shrinking
    /// submatrices or BFS's varying frontier sizes).
    pub work_scale: f32,
    /// Standard-normal draw identifying this launch's runtime jitter. The
    /// simulator maps it to a multiplicative factor whose magnitude depends
    /// on the kernel's memory-boundedness under the simulated config.
    pub noise_z: f32,
}

impl Invocation {
    /// Creates an invocation with unit extra work.
    pub fn new(kernel: KernelId, context: u16, noise_z: f32) -> Self {
        Invocation {
            kernel,
            context,
            work_scale: 1.0,
            noise_z,
        }
    }

    /// Creates an invocation with an explicit extra work multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `work_scale` is not positive and finite.
    pub fn with_work(kernel: KernelId, context: u16, work_scale: f32, noise_z: f32) -> Self {
        assert!(
            work_scale.is_finite() && work_scale > 0.0,
            "work_scale must be positive and finite, got {work_scale}"
        );
        Invocation {
            kernel,
            context,
            work_scale,
            noise_z,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invocation_is_compact() {
        assert!(std::mem::size_of::<Invocation>() <= 16);
    }

    #[test]
    fn display_kernel_id() {
        assert_eq!(KernelId(7).to_string(), "k7");
        assert_eq!(KernelId::from(3u32).index(), 3);
    }

    #[test]
    fn new_defaults_to_unit_work() {
        let inv = Invocation::new(KernelId(1), 2, 0.5);
        assert_eq!(inv.work_scale, 1.0);
        assert_eq!(inv.context, 2);
    }

    #[test]
    #[should_panic(expected = "work_scale must be positive")]
    fn zero_work_rejected() {
        Invocation::with_work(KernelId(0), 0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "work_scale must be positive")]
    fn nan_work_rejected() {
        Invocation::with_work(KernelId(0), 0, f32::NAN, 0.0);
    }
}
