//! Integration tests for the implemented extensions, exercised through the
//! facade crate the way a downstream user would.

use stem::core::et::evaluate_trace_sampling;
use stem::core::intra::evaluate_intra_kernel;
use stem::prelude::*;
use stem::profile::{ExecTimeProfile, TraceGenModel};
use stem::sim::multi_gpu::ClusterConfig;
use stem::sim::EnergyModel;
use stem::workload::chakra::{data_parallel_training, pipeline_parallel_inference};
use stem::workload::io::{from_text, to_text};

#[test]
fn multi_gpu_node_sampling_end_to_end() {
    for trace in [
        data_parallel_training("ddp", 4, 16, 24, 21),
        pipeline_parallel_inference("pp", 4, 8, 96, 22),
    ] {
        let report = evaluate_trace_sampling(
            &trace,
            &ClusterConfig::h100_nvlink(),
            &StemConfig::default(),
            3,
        );
        assert!(
            report.total_error() < 0.05,
            "{}: total error {}",
            trace.name(),
            report.total_error()
        );
        assert!(
            report.makespan_error() < 0.06,
            "{}: makespan error {}",
            trace.name(),
            report.makespan_error()
        );
        assert!(report.node_speedup() > 10.0);
    }
}

#[test]
fn intra_kernel_sampling_through_facade() {
    let suite = rodinia_suite(23);
    let w = suite
        .iter()
        .find(|w| w.name() == "hotspot")
        .expect("hotspot");
    let sim = Simulator::new(GpuConfig::rtx2080());
    let report = evaluate_intra_kernel(w, &sim, &StemConfig::default(), 1);
    assert!(report.error() < 0.05);
    assert!(report.wave_speedup() > 2.0);
}

#[test]
fn external_workload_and_profile_roundtrip_plan() {
    let original = &rodinia_suite(25)[3];
    let text = to_text(original);
    let workload = from_text(&text).expect("round trip");

    let sim = Simulator::new(GpuConfig::rtx2080());
    let times: Vec<f64> = workload
        .invocations()
        .map(|inv| sim.cycles(&workload, &inv))
        .collect();
    let profile = ExecTimeProfile::new(workload.name(), times).expect("valid profile");
    let csv = profile.to_csv_string().expect("serializable profile");
    let parsed = ExecTimeProfile::from_csv_string(&csv).expect("profile round trip");

    let sampler = StemRootSampler::new(StemConfig::default());
    let plan = sampler
        .plan_from_times(&workload, parsed.times(), 0)
        .expect("well-formed profile");
    let full = sim.run_full(&workload);
    let run = sim.run_sampled(&workload, plan.samples());
    assert!(run.error(full.total_cycles) < 0.05);
}

#[test]
fn energy_estimation_through_facade() {
    let suite = casio_suite(27);
    let w = suite.iter().find(|w| w.name() == "muzero").expect("muzero");
    let sim = Simulator::new(GpuConfig::rtx2080());
    let model = EnergyModel::default();
    let plan = StemRootSampler::new(StemConfig::default()).plan(w, 0);
    let full = model.full_energy(w, &sim);
    let est = model.sampled_energy(w, plan.samples(), &sim);
    assert!(
        (est - full).abs() / full < 0.05,
        "energy error {}",
        (est - full).abs() / full
    );
}

#[test]
fn selective_tracegen_through_facade() {
    let suite = casio_suite(29);
    let w = suite
        .iter()
        .find(|w| w.name() == "unet_infer")
        .expect("unet");
    let plan = StemRootSampler::new(StemConfig::default()).plan(w, 0);
    let sampled: Vec<usize> = plan.samples().iter().map(|s| s.index).collect();
    let report = TraceGenModel::default().selective(w, &sampled);
    assert!(report.bytes_reduction() > 50.0);
    assert!(report.time_reduction() > 50.0);
}

#[test]
fn small_sample_correction_through_facade() {
    let suite = rodinia_suite(31);
    let w = suite
        .iter()
        .find(|w| w.name() == "pf_float")
        .expect("pf_float");
    let loose = StemConfig::default().with_epsilon(0.20);
    let plain = StemRootSampler::new(loose.clone()).plan(w, 0).num_samples();
    let corrected = StemRootSampler::new(loose.with_small_sample_correction())
        .plan(w, 0)
        .num_samples();
    assert!(corrected >= plain);
}
