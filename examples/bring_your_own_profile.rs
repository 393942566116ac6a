//! The external-data workflow: a workload description and an execution-time
//! profile arrive as files (e.g. exported from Nsight Systems), and
//! STEM+ROOT plans from them without ever touching the built-in hardware
//! model.
//!
//! ```text
//! cargo run --example bring_your_own_profile
//! ```

use stem::prelude::*;
use stem::profile::ExecTimeProfile;
use stem::workload::io::{from_text, to_text};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- The "export" side: some tool produced these two files. ---------
    // (Here we synthesize them from a built-in workload, then *only* use
    // the file contents from this point on.)
    let dir = std::env::temp_dir().join("stem_byop_example");
    std::fs::create_dir_all(&dir)?;
    let workload_path = dir.join("workload.txt");
    let profile_path = dir.join("profile.csv");
    {
        let original = &casio_suite(1)[0];
        std::fs::write(&workload_path, to_text(original))?;
        let sim = Simulator::new(GpuConfig::rtx2080());
        let times: Vec<f64> = original
            .invocations()
            .map(|inv| sim.cycles(original, &inv))
            .collect();
        let profile = ExecTimeProfile::new(original.name(), times)?;
        std::fs::write(&profile_path, profile.to_csv_string()?)?;
    }

    // --- The "import" side: plan purely from the files. -----------------
    let workload = from_text(&std::fs::read_to_string(&workload_path)?)?;
    let profile = ExecTimeProfile::from_csv_string(&std::fs::read_to_string(&profile_path)?)?;
    println!(
        "loaded workload '{}' ({} invocations) and a {}-sample profile",
        workload.name(),
        workload.num_invocations(),
        profile.len()
    );

    let sampler = StemRootSampler::new(StemConfig::default());
    let plan = sampler.plan_from_times(&workload, profile.times(), 0)?;
    println!(
        "plan: {} samples across {} clusters, predicted error {:.2}%",
        plan.num_samples(),
        plan.num_clusters(),
        plan.predicted_error() * 100.0
    );

    // Validate against a full simulation (possible here because the
    // "hardware" is our model; with real files you would run your simulator
    // on just the sampled kernels).
    let sim = Simulator::new(GpuConfig::rtx2080());
    let full = sim.run_full(&workload);
    let run = sim.run_sampled(&workload, plan.samples());
    println!(
        "error {:.3}%  speedup {:.0}x",
        run.error(full.total_cycles) * 100.0,
        run.speedup(full.total_cycles)
    );
    assert!(run.error(full.total_cycles) < 0.05);

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
