//! Calibration tests: the timing model's cross-configuration behaviour
//! must match the qualitative physics of the real parts it names —
//! otherwise the DSE and portability experiments test nothing.

use gpu_sim::exec::{time_kernel, SimOptions};
use gpu_sim::GpuConfig;
use gpu_workload::kernel::{InstructionMix, KernelClassBuilder};
use gpu_workload::{KernelClass, RuntimeContext};

fn det_cycles(k: &KernelClass, ctx: &RuntimeContext, cfg: &GpuConfig) -> f64 {
    time_kernel(k, ctx, 1.0, 0.0, cfg, SimOptions::default()).deterministic_cycles
}

fn seconds(k: &KernelClass, ctx: &RuntimeContext, cfg: &GpuConfig) -> f64 {
    cfg.cycles_to_seconds(det_cycles(k, ctx, cfg))
}

fn tensor_gemm() -> KernelClass {
    KernelClassBuilder::new("hgemm")
        .geometry(2048, 256)
        .resources(96, 48 * 1024)
        .instructions(20_000)
        .mix(InstructionMix::tensor_core())
        .memory(96 << 20, 24.0)
        .build()
}

fn streaming_kernel() -> KernelClass {
    KernelClassBuilder::new("stream")
        .geometry(2048, 256)
        .resources(24, 0)
        .instructions(1_500)
        .mix(InstructionMix::memory_bound())
        .memory(2 << 30, 1.0)
        .build()
}

#[test]
fn h100_beats_rtx2080_much_more_on_tensor_work_than_streaming() {
    let ctx = RuntimeContext::neutral();
    let gemm = tensor_gemm();
    let stream = streaming_kernel();
    let gemm_speedup =
        seconds(&gemm, &ctx, &GpuConfig::rtx2080()) / seconds(&gemm, &ctx, &GpuConfig::h100());
    let stream_speedup =
        seconds(&stream, &ctx, &GpuConfig::rtx2080()) / seconds(&stream, &ctx, &GpuConfig::h100());
    // H100's tensor throughput advantage (~10x+) dwarfs its bandwidth
    // advantage (~7x), and both clearly beat the 2080.
    assert!(gemm_speedup > 2.0, "tensor speedup {gemm_speedup}");
    assert!(stream_speedup > 2.0, "stream speedup {stream_speedup}");
    assert!(
        gemm_speedup > stream_speedup * 0.8,
        "tensor {gemm_speedup} vs stream {stream_speedup}"
    );
}

#[test]
fn h200_helps_memory_bound_only() {
    let ctx = RuntimeContext::neutral();
    let gemm = tensor_gemm();
    let stream = streaming_kernel();
    let gemm_gain =
        det_cycles(&gemm, &ctx, &GpuConfig::h100()) / det_cycles(&gemm, &ctx, &GpuConfig::h200());
    let stream_gain = det_cycles(&stream, &ctx, &GpuConfig::h100())
        / det_cycles(&stream, &ctx, &GpuConfig::h200());
    // The H200 upgrade is memory bandwidth: streaming kernels gain
    // substantially, compute-bound GEMMs barely move.
    assert!(stream_gain > 1.2, "stream gain {stream_gain}");
    assert!(
        gemm_gain < stream_gain,
        "gemm {gemm_gain} vs stream {stream_gain}"
    );
    assert!(gemm_gain < 1.1, "gemm should barely move: {gemm_gain}");
}

#[test]
fn streaming_kernel_is_bandwidth_limited() {
    // A 2 GiB stream on a 448 GB/s part must take at least the
    // bytes/bandwidth time.
    let ctx = RuntimeContext::neutral();
    let stream = streaming_kernel();
    let cfg = GpuConfig::rtx2080();
    let t = time_kernel(&stream, &ctx, 1.0, 0.0, &cfg, SimOptions::default());
    let min_seconds = t.dram_bytes / (cfg.dram_bandwidth_gbps * 1e9);
    let got = cfg.cycles_to_seconds(t.memory_cycles);
    assert!(got >= min_seconds * 0.99, "{got} vs floor {min_seconds}");
    assert!(t.memory_boundedness > 0.8);
}

#[test]
fn gemm_flops_rate_is_physically_plausible() {
    // The model's implied FP16 throughput must stay below the part's peak
    // (H100: ~1000 TFLOPS dense FP16) and above a silly floor.
    let ctx = RuntimeContext::neutral();
    let gemm = tensor_gemm();
    let cfg = GpuConfig::h100();
    let secs = seconds(&gemm, &ctx, &cfg);
    let fp16_ops = gemm.total_instructions() as f64 * gemm.mix.fp16;
    let tflops = fp16_ops / secs / 1e12;
    assert!(tflops < 2000.0, "implied {tflops} TFLOPS exceeds physics");
    assert!(tflops > 0.5, "implied {tflops} TFLOPS is implausibly low");
}

#[test]
fn launch_overhead_dominates_empty_kernels() {
    let ctx = RuntimeContext::neutral();
    let tiny = KernelClassBuilder::new("noop")
        .geometry(1, 32)
        .instructions(1)
        .build();
    let cfg = GpuConfig::rtx2080();
    let t = time_kernel(&tiny, &ctx, 1.0, 0.0, &cfg, SimOptions::default());
    assert!(
        t.deterministic_cycles < 2.5 * cfg.launch_overhead_cycles + cfg.dram_latency_cycles,
        "a no-op launch should cost ~launch overhead, got {}",
        t.deterministic_cycles
    );
}

#[test]
fn dse_grid_is_internally_consistent() {
    // cycles(cache x2) <= cycles(baseline) <= cycles(cache x0.5), and the
    // same ordering for SM count — across both kernel archetypes.
    use gpu_sim::DseTransform;
    let ctx = RuntimeContext::neutral().with_locality(0.8);
    for k in [tensor_gemm(), streaming_kernel()] {
        let base = GpuConfig::macsim_baseline();
        let c2 = det_cycles(
            &k,
            &ctx,
            &base.with_transform(DseTransform::CacheScale(2.0)),
        );
        let c0 = det_cycles(&k, &ctx, &base);
        let ch = det_cycles(
            &k,
            &ctx,
            &base.with_transform(DseTransform::CacheScale(0.5)),
        );
        assert!(c2 <= c0 * (1.0 + 1e-9) && c0 <= ch * (1.0 + 1e-9));
        let s2 = det_cycles(&k, &ctx, &base.with_transform(DseTransform::SmScale(2.0)));
        let sh = det_cycles(&k, &ctx, &base.with_transform(DseTransform::SmScale(0.5)));
        assert!(s2 <= c0 * (1.0 + 1e-9) && c0 <= sh * (1.0 + 1e-9));
    }
}
