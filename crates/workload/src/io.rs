//! Plain-text workload serialization.
//!
//! A released sampling tool must accept workloads its users describe from
//! their own profiler exports. This module defines a line-oriented format
//! (one record per line, whitespace-separated) that round-trips
//! [`Workload`] exactly:
//!
//! ```text
//! # stem-workload v1
//! name my_app
//! suite custom
//! kernel sgemm 256 256 96 49152 8000 0.55 0.1 0.15 0.08 0.07 0.03 0.02 33554432 24 1,8,4
//! context 0 1.0 1.0 4.0 0.03
//! inv 0 0 1.0 0.5
//! ```
//!
//! `kernel` fields: name, grid, block, regs, shared, instr/thread, the 7
//! mix fractions, footprint bytes, reuse factor, comma-separated BBV.
//! `context` fields: kernel index, work, footprint, locality, jitter.
//! `inv` fields: kernel index, context index, work scale, noise z.

use crate::context::RuntimeContext;
use crate::invocation::{Invocation, KernelId};
use crate::kernel::{InstructionMix, KernelClass};
use crate::trace::{SuiteKind, Workload};
use std::fmt::Write as _;

/// Error parsing the workload format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseWorkloadError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseWorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "workload parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseWorkloadError {}

/// Serializes a workload to the v1 text format.
pub fn to_text(workload: &Workload) -> String {
    let mut out = String::from("# stem-workload v1\n");
    writeln!(out, "name {}", workload.name()).expect("write to string");
    writeln!(out, "suite {}", workload.suite()).expect("write to string");
    for k in workload.kernels() {
        let bbv = k
            .bbv_template
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(",");
        writeln!(
            out,
            "kernel {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
            k.name,
            k.grid_dim,
            k.block_dim,
            k.regs_per_thread,
            k.shared_mem_per_cta,
            k.instr_per_thread,
            k.mix.fp32,
            k.mix.fp16,
            k.mix.int_alu,
            k.mix.ldst_global,
            k.mix.ldst_shared,
            k.mix.branch,
            k.mix.special,
            k.footprint_bytes,
            k.reuse_factor,
            bbv
        )
        .expect("write to string");
    }
    for (ki, _) in workload.kernels().iter().enumerate() {
        for c in workload.contexts_of(KernelId(ki as u32)) {
            writeln!(
                out,
                "context {} {} {} {} {}",
                ki, c.work_scale, c.footprint_scale, c.locality_boost, c.jitter_cov
            )
            .expect("write to string");
        }
    }
    for inv in workload.invocations() {
        writeln!(
            out,
            "inv {} {} {} {}",
            inv.kernel.0, inv.context, inv.work_scale, inv.noise_z
        )
        .expect("write to string");
    }
    out
}

/// Parses the v1 text format back into a validated [`Workload`].
///
/// # Errors
///
/// Returns [`ParseWorkloadError`] on malformed input — both *syntactic*
/// problems (bad numbers, short records) and *semantic* violations (index
/// ranges, degenerate values) reported by [`Workload::try_new`]. An
/// external document can never panic the parser.
pub fn from_text(text: &str) -> Result<Workload, ParseWorkloadError> {
    let mut name = String::from("unnamed");
    let mut suite = SuiteKind::Custom;
    let mut kernels: Vec<KernelClass> = Vec::new();
    let mut contexts: Vec<Vec<RuntimeContext>> = Vec::new();
    let mut invocations: Vec<Invocation> = Vec::new();

    let err = |line: usize, message: &str| ParseWorkloadError {
        line,
        message: message.to_string(),
    };

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let tag = parts.next().expect("nonempty line has a first token");
        let rest: Vec<&str> = parts.collect();
        match tag {
            "name" => {
                name = rest.join(" ");
            }
            "suite" => {
                suite = match rest.first().copied() {
                    Some("rodinia") => SuiteKind::Rodinia,
                    Some("casio") => SuiteKind::Casio,
                    Some("huggingface") => SuiteKind::Huggingface,
                    Some("custom") => SuiteKind::Custom,
                    other => {
                        return Err(err(line_no, &format!("unknown suite {other:?}")));
                    }
                };
            }
            "kernel" => {
                if rest.len() != 16 {
                    return Err(err(line_no, "kernel record needs 16 fields"));
                }
                let f = |s: &str| -> Result<f64, ParseWorkloadError> {
                    s.parse().map_err(|_| err(line_no, "bad number"))
                };
                let u = |s: &str| -> Result<u64, ParseWorkloadError> {
                    s.parse().map_err(|_| err(line_no, "bad integer"))
                };
                let bbv: Result<Vec<f64>, _> = rest[15].split(',').map(f).collect();
                let mix = InstructionMix::try_new(
                    f(rest[6])?,
                    f(rest[7])?,
                    f(rest[8])?,
                    f(rest[9])?,
                    f(rest[10])?,
                    f(rest[11])?,
                    f(rest[12])?,
                )
                .map_err(|e| err(line_no, &e.to_string()))?;
                kernels.push(KernelClass {
                    name: rest[0].to_string(),
                    grid_dim: u(rest[1])? as u32,
                    block_dim: u(rest[2])? as u32,
                    regs_per_thread: u(rest[3])? as u32,
                    shared_mem_per_cta: u(rest[4])? as u32,
                    instr_per_thread: u(rest[5])?,
                    mix,
                    footprint_bytes: u(rest[13])?,
                    reuse_factor: f(rest[14])?,
                    bbv_template: bbv?,
                });
                contexts.push(Vec::new());
            }
            "context" => {
                if rest.len() != 5 {
                    return Err(err(line_no, "context record needs 5 fields"));
                }
                let ki: usize = rest[0]
                    .parse()
                    .map_err(|_| err(line_no, "bad kernel index"))?;
                if ki >= contexts.len() {
                    return Err(err(line_no, "context before its kernel"));
                }
                let f = |s: &str| -> Result<f64, ParseWorkloadError> {
                    s.parse().map_err(|_| err(line_no, "bad number"))
                };
                contexts[ki].push(
                    RuntimeContext::neutral()
                        .with_work(f(rest[1])?)
                        .with_footprint(f(rest[2])?)
                        .with_locality(f(rest[3])?)
                        .with_jitter(f(rest[4])?),
                );
            }
            "inv" => {
                if rest.len() != 4 {
                    return Err(err(line_no, "inv record needs 4 fields"));
                }
                let kernel: u32 = rest[0]
                    .parse()
                    .map_err(|_| err(line_no, "bad kernel index"))?;
                let context: u16 = rest[1]
                    .parse()
                    .map_err(|_| err(line_no, "bad context index"))?;
                let work: f32 = rest[2]
                    .parse()
                    .map_err(|_| err(line_no, "bad work scale"))?;
                let noise: f32 = rest[3].parse().map_err(|_| err(line_no, "bad noise"))?;
                invocations.push(Invocation::with_work(
                    KernelId(kernel),
                    context,
                    work,
                    noise,
                ));
            }
            other => {
                return Err(err(line_no, &format!("unknown record tag {other}")));
            }
        }
    }
    if kernels.is_empty() {
        return Err(err(text.lines().count().max(1), "no kernels defined"));
    }
    // Semantic violations (index ranges, degenerate values) become parse
    // errors too: this is an ingestion path, so bad input must never panic.
    Workload::try_new(name, suite, kernels, contexts, invocations)
        .map_err(|e| err(text.lines().count().max(1), &e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites::rodinia_suite;

    #[test]
    fn roundtrip_suite_workload() {
        let original = &rodinia_suite(81)[4]; // gaussian: work scales + jitter
        let text = to_text(original);
        let back = from_text(&text).expect("valid serialization");
        assert_eq!(back.name(), original.name());
        assert_eq!(back.suite(), original.suite());
        assert_eq!(back.kernels(), original.kernels());
        assert_eq!(back.num_invocations(), original.num_invocations());
        // f32 fields round-trip exactly through Display.
        for (a, b) in back.invocations().zip(original.invocations()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let original = &rodinia_suite(81)[0];
        let mut text = to_text(original);
        text.push_str("\n# trailing comment\n\n");
        assert!(from_text(&text).is_ok());
    }

    #[test]
    fn unknown_tag_rejected() {
        let e = from_text("wibble 1 2 3\n").expect_err("unknown tag");
        assert!(e.message.contains("unknown record tag"));
        assert_eq!(e.line, 1);
    }

    #[test]
    fn short_kernel_record_rejected() {
        let e = from_text("kernel a 1 2\n").expect_err("short record");
        assert!(e.message.contains("16 fields"));
    }

    #[test]
    fn context_before_kernel_rejected() {
        let e = from_text("context 0 1 1 1 0.1\n").expect_err("orphan context");
        assert!(e.message.contains("before its kernel"));
    }

    #[test]
    fn empty_document_rejected() {
        assert!(from_text("# nothing\n").is_err());
    }

    #[test]
    fn display_of_error() {
        let e = from_text("inv x\n").expect_err("bad inv");
        let s = e.to_string();
        assert!(s.contains("line 1"));
    }
}
