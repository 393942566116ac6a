//! Typed errors for workload construction and validation.
//!
//! Workloads arrive from outside the process (profiler exports parsed by
//! [`crate::io`]), so an inconsistent one is an *input* problem, not a
//! bug. The `try_*` constructors and validators across the crate report
//! violations as a [`WorkloadError`]; the original panicking entry points
//! remain as thin wrappers for in-process construction, where a violation
//! really is a programming error.

/// Which layer of the workload structure a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadErrorKind {
    /// A kernel's static signature is out of range.
    Kernel,
    /// An instruction mix does not form a distribution.
    Mix,
    /// A runtime context carries an illegal scale.
    Context,
    /// The workload's tables are inconsistent with each other.
    Structure,
    /// An invocation references a missing kernel or context.
    Invocation,
}

/// A workload that failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadError {
    /// Which layer the violation belongs to.
    pub kind: WorkloadErrorKind,
    /// Human-readable description; also the message of the corresponding
    /// panicking wrapper.
    pub message: String,
}

impl WorkloadError {
    pub(crate) fn new(kind: WorkloadErrorKind, message: impl Into<String>) -> Self {
        WorkloadError {
            kind,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for WorkloadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_the_message() {
        let e = WorkloadError::new(WorkloadErrorKind::Kernel, "kernel x has zero grid");
        assert_eq!(e.to_string(), "kernel x has zero grid");
        assert_eq!(e.kind, WorkloadErrorKind::Kernel);
    }
}
