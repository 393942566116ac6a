//! Plugging a custom sampling method into the framework.
//!
//! ```text
//! cargo run --example custom_sampler
//! ```
//!
//! Implements a naive "every k-th invocation" systematic sampler via the
//! [`KernelSampler`] trait and evaluates it against STEM+ROOT and the
//! shipped baselines on a custom workload built with [`WorkloadBuilder`] —
//! the workflow a user follows to test their own sampling idea.

use stem::core::plan::SamplingPlan;
use stem::prelude::*;
use stem::workload::kernel::KernelClassBuilder;

/// Systematic sampling: every `stride`-th invocation, weight = stride.
struct SystematicSampler {
    stride: usize,
}

impl KernelSampler for SystematicSampler {
    fn name(&self) -> &'static str {
        "Systematic"
    }

    fn plan(&self, workload: &Workload, rep_seed: u64) -> SamplingPlan {
        // Rotate the phase by the rep seed so repetitions differ.
        let phase = (rep_seed as usize) % self.stride;
        let samples: Vec<WeightedSample> = (phase..workload.num_invocations())
            .step_by(self.stride)
            .map(|i| WeightedSample::new(i, self.stride as f64))
            .collect();
        SamplingPlan::new(self.name(), samples, vec![], 0.0)
    }
}

fn main() -> Result<(), stem::core::StemError> {
    // A custom workload: one stable GEMM and one bimodal, memory-bound
    // scatter kernel, interleaved.
    let mut b = WorkloadBuilder::new("custom_app", SuiteKind::Custom, 99);
    let gemm = b.add_kernel(
        KernelClassBuilder::new("my_gemm")
            .geometry(256, 256)
            .instructions(8_000)
            .mix(InstructionMix::compute_bound())
            .memory(32 << 20, 16.0)
            .build(),
        vec![RuntimeContext::neutral().with_jitter(0.03)],
    );
    let scatter = b.add_kernel(
        KernelClassBuilder::new("my_scatter")
            .geometry(128, 128)
            .instructions(900)
            .mix(InstructionMix::memory_bound())
            .memory(512 << 20, 1.0)
            .build(),
        vec![
            RuntimeContext::neutral()
                .with_locality(0.2)
                .with_jitter(0.3),
            RuntimeContext::neutral()
                .with_locality(2.0)
                .with_jitter(0.1),
        ],
    );
    for i in 0..4000 {
        b.invoke(gemm, 0, 1.0);
        b.invoke(scatter, (i % 2) as u16, 1.0);
    }
    let workload = b.build();

    let sim = Simulator::new(GpuConfig::rtx2080());
    let pipeline = Pipeline::new(sim).with_reps(5)?;

    let stem = StemRootSampler::new(StemConfig::default());
    let systematic = SystematicSampler { stride: 100 };
    let random = RandomSampler::new(0.01);

    println!("{:<12} {:>10} {:>10}", "method", "error %", "speedup");
    for sampler in [&stem as &dyn KernelSampler, &systematic, &random] {
        let summary = pipeline.run(sampler, &workload);
        println!(
            "{:<12} {:>10.3} {:>10.1}",
            summary.method, summary.mean_error_pct, summary.harmonic_speedup
        );
    }
    Ok(())
}
