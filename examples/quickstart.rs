//! Quickstart: sample a GPU workload with STEM+ROOT and check the result.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds a synthetic Rodinia-style workload, profiles it, lets STEM+ROOT
//! pick representative kernels at a 5% error bound, runs the sampled
//! simulation, and compares against the full-simulation ground truth.

use stem::prelude::*;

fn main() {
    // 1. A workload: here the synthetic `cfd` benchmark (3 kernels,
    //    thousands of repeated calls).
    let suite = rodinia_suite(42);
    let workload = suite
        .iter()
        .find(|w| w.name() == "cfd")
        .expect("cfd is part of the Rodinia suite");
    println!(
        "workload: {} ({} kernels, {} invocations)",
        workload.name(),
        workload.kernels().len(),
        workload.num_invocations()
    );

    // 2. STEM+ROOT at the paper's settings: eps = 5%, 95% confidence,
    //    k = 2 splits, profiling on an RTX 2080.
    let sampler = StemRootSampler::new(StemConfig::default());
    let plan = sampler.plan(workload, 0);
    println!(
        "plan: {} samples across {} clusters (predicted error {:.2}%)",
        plan.num_samples(),
        plan.num_clusters(),
        plan.predicted_error() * 100.0
    );

    // 3. Run the sampled simulation on the target GPU model and compare
    //    against the (normally prohibitively expensive) full simulation.
    let sim = Simulator::new(GpuConfig::rtx2080());
    let full = sim.run_full(workload);
    let sampled = sim.run_sampled(workload, plan.samples());
    println!("full simulation:    {:.3e} cycles", full.total_cycles);
    println!(
        "sampled estimate:   {:.3e} cycles ({} kernels simulated)",
        sampled.estimated_total_cycles, sampled.num_samples
    );
    println!(
        "error {:.3}%   speedup {:.1}x",
        sampled.error(full.total_cycles) * 100.0,
        sampled.speedup(full.total_cycles)
    );

    assert!(
        sampled.error(full.total_cycles) < StemConfig::default().epsilon,
        "STEM's error bound held"
    );
}
