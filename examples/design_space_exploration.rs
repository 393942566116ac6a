//! Design-space exploration with one sampling pass (paper Sec. 5.4).
//!
//! ```text
//! cargo run --release --example design_space_exploration
//! ```
//!
//! An architect wants to sweep cache sizes and SM counts. STEM extracts
//! sampling information *once* from an execution-time profile, then reuses
//! the same representative kernels on every hardware variant — the paper's
//! claim is that the error stays low because memory-sensitive kernels were
//! adaptively oversampled in the first place.

use stem::prelude::*;

fn main() {
    let suite = casio_suite(11);
    let workload = suite
        .iter()
        .find(|w| w.name() == "resnet50_infer")
        .expect("resnet50_infer is part of the CASIO suite");
    println!(
        "workload: {} ({} invocations)",
        workload.name(),
        workload.num_invocations()
    );

    // One plan, built from the profiling machine's execution times.
    let sampler = StemRootSampler::new(StemConfig::default());
    let plan = sampler.plan(workload, 0);
    println!(
        "sampling information: {} samples / {} clusters (built once)\n",
        plan.num_samples(),
        plan.num_clusters()
    );

    // Sweep the design space with the *same* plan.
    let base = GpuConfig::macsim_baseline();
    println!(
        "{:<16} {:>14} {:>14} {:>9}",
        "variant", "full cycles", "estimate", "error"
    );
    for transform in DseTransform::TABLE4 {
        let sim = Simulator::new(base.with_transform(transform));
        let full = sim.run_full(workload);
        let run = sim.run_sampled(workload, plan.samples());
        println!(
            "{:<16} {:>14.4e} {:>14.4e} {:>8.3}%",
            transform.label(),
            full.total_cycles,
            run.estimated_total_cycles,
            run.error(full.total_cycles) * 100.0
        );
        assert!(
            run.error(full.total_cycles) < 0.10,
            "DSE error stayed bounded on {}",
            transform.label()
        );
    }

    println!("\ncross-GPU portability: profile on H100, simulate on H200");
    let h100_plan =
        StemRootSampler::new(StemConfig::default().with_profile_config(GpuConfig::h100()))
            .plan(workload, 0);
    let h200 = Simulator::new(GpuConfig::h200());
    let full = h200.run_full(workload);
    let run = h200.run_sampled(workload, h100_plan.samples());
    println!(
        "H200 error using H100 sampling information: {:.3}%",
        run.error(full.total_cycles) * 100.0
    );
}
