//! GPU configurations: real-hardware presets and DSE transforms.

/// A GPU (micro)architecture configuration.
///
/// Presets model the machines of the paper's evaluation: RTX 2080 (the
/// profiling machine), H100 and H200 (the cross-GPU portability pair,
/// Fig. 13), and a small MacSim-like baseline used for full cycle-level
/// simulation in the DSE study (Table 4).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Human-readable name.
    pub name: String,
    /// Streaming multiprocessor count.
    pub num_sms: u32,
    /// Core clock in GHz (converts cycles to seconds only for display).
    pub clock_ghz: f64,
    /// Max resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Max resident CTAs per SM.
    pub max_ctas_per_sm: u32,
    /// Register file per SM (32-bit registers).
    pub regs_per_sm: u32,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: u32,
    /// L1 data cache per SM in bytes.
    pub l1_size: u64,
    /// Shared L2 cache in bytes.
    pub l2_size: u64,
    /// DRAM bandwidth in GB/s.
    pub dram_bandwidth_gbps: f64,
    /// DRAM access latency in core cycles.
    pub dram_latency_cycles: f64,
    /// FP32 warp-instruction throughput per SM per cycle.
    pub fp32_throughput: f64,
    /// FP16/tensor warp-instruction throughput per SM per cycle.
    pub fp16_throughput: f64,
    /// Integer warp-instruction throughput per SM per cycle.
    pub int_throughput: f64,
    /// Load/store-issue warp-instruction throughput per SM per cycle.
    pub ldst_throughput: f64,
    /// Special-function warp-instruction throughput per SM per cycle.
    pub sfu_throughput: f64,
    /// Fixed kernel-launch overhead in cycles.
    pub launch_overhead_cycles: f64,
}

impl GpuConfig {
    /// NVIDIA RTX 2080 (Turing): the paper's profiling machine.
    pub fn rtx2080() -> Self {
        GpuConfig {
            name: "rtx2080".to_string(),
            num_sms: 46,
            clock_ghz: 1.71,
            max_threads_per_sm: 1024,
            max_ctas_per_sm: 16,
            regs_per_sm: 65_536,
            shared_mem_per_sm: 64 * 1024,
            l1_size: 64 * 1024,
            l2_size: 4 << 20,
            dram_bandwidth_gbps: 448.0,
            dram_latency_cycles: 400.0,
            fp32_throughput: 2.0,
            fp16_throughput: 4.0,
            int_throughput: 2.0,
            ldst_throughput: 1.0,
            sfu_throughput: 0.5,
            launch_overhead_cycles: 2_000.0,
        }
    }

    /// NVIDIA H100 (Hopper, SXM).
    pub fn h100() -> Self {
        GpuConfig {
            name: "h100".to_string(),
            num_sms: 132,
            clock_ghz: 1.98,
            max_threads_per_sm: 2048,
            max_ctas_per_sm: 32,
            regs_per_sm: 65_536,
            shared_mem_per_sm: 228 * 1024,
            l1_size: 256 * 1024,
            l2_size: 50 << 20,
            dram_bandwidth_gbps: 3350.0,
            dram_latency_cycles: 500.0,
            fp32_throughput: 4.0,
            fp16_throughput: 16.0,
            int_throughput: 4.0,
            ldst_throughput: 2.0,
            sfu_throughput: 1.0,
            launch_overhead_cycles: 2_000.0,
        }
    }

    /// NVIDIA H200: H100 with the memory subsystem upgraded (more, faster
    /// HBM3e) — the hardware delta behind Fig. 13.
    pub fn h200() -> Self {
        let mut c = GpuConfig::h100();
        c.name = "h200".to_string();
        c.dram_bandwidth_gbps = 4800.0;
        c.dram_latency_cycles = 460.0;
        c
    }

    /// A reduced MacSim-like baseline config, small enough that "full
    /// cycle-level simulation" of every workload is tractable (the Table 4
    /// setting).
    pub fn macsim_baseline() -> Self {
        GpuConfig {
            name: "macsim-baseline".to_string(),
            num_sms: 16,
            clock_ghz: 1.4,
            max_threads_per_sm: 1536,
            max_ctas_per_sm: 16,
            regs_per_sm: 65_536,
            shared_mem_per_sm: 96 * 1024,
            l1_size: 32 * 1024,
            l2_size: 2 << 20,
            dram_bandwidth_gbps: 320.0,
            dram_latency_cycles: 350.0,
            fp32_throughput: 2.0,
            fp16_throughput: 4.0,
            int_throughput: 2.0,
            ldst_throughput: 1.0,
            sfu_throughput: 0.5,
            launch_overhead_cycles: 1_500.0,
        }
    }

    /// Applies a DSE transform, returning the modified config with a
    /// suffixed name.
    pub fn with_transform(&self, t: DseTransform) -> GpuConfig {
        let mut c = self.clone();
        match t {
            DseTransform::Baseline => {}
            DseTransform::CacheScale(f) => {
                assert!(f > 0.0, "cache scale must be positive");
                c.l1_size = ((c.l1_size as f64) * f).round().max(1.0) as u64;
                c.l2_size = ((c.l2_size as f64) * f).round().max(1.0) as u64;
                c.name = format!("{}+cache_x{f}", self.name);
            }
            DseTransform::SmScale(f) => {
                assert!(f > 0.0, "SM scale must be positive");
                c.num_sms = ((c.num_sms as f64) * f).round().max(1.0) as u32;
                c.name = format!("{}+sm_x{f}", self.name);
            }
        }
        c
    }

    /// Bytes the DRAM can move per core cycle.
    pub fn dram_bytes_per_cycle(&self) -> f64 {
        self.dram_bandwidth_gbps / self.clock_ghz
    }

    /// Converts a cycle count to seconds at this config's clock.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e9)
    }

    /// Validates physical plausibility.
    ///
    /// # Panics
    ///
    /// Panics on nonpositive sizes, clocks or throughputs.
    pub fn validate(&self) {
        assert!(self.num_sms > 0, "config {} has zero SMs", self.name);
        assert!(self.clock_ghz > 0.0, "config {} has zero clock", self.name);
        assert!(
            self.max_threads_per_sm >= 32,
            "config {} too few threads",
            self.name
        );
        assert!(
            self.l1_size > 0 && self.l2_size > 0,
            "config {} zero cache",
            self.name
        );
        assert!(
            self.dram_bandwidth_gbps > 0.0,
            "config {} zero bandwidth",
            self.name
        );
        for (name, v) in [
            ("fp32", self.fp32_throughput),
            ("fp16", self.fp16_throughput),
            ("int", self.int_throughput),
            ("ldst", self.ldst_throughput),
            ("sfu", self.sfu_throughput),
        ] {
            assert!(v > 0.0, "config {} zero {name} throughput", self.name);
        }
    }
}

/// The design-space-exploration transforms of Table 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DseTransform {
    /// Unmodified config.
    Baseline,
    /// Scale L1 and L2 capacity by the factor (2.0 and 0.5 in the paper).
    CacheScale(f64),
    /// Scale SM count by the factor (2.0 and 0.5 in the paper).
    SmScale(f64),
}

impl DseTransform {
    /// The five Table 4 rows in paper order.
    pub const TABLE4: [DseTransform; 5] = [
        DseTransform::Baseline,
        DseTransform::CacheScale(2.0),
        DseTransform::CacheScale(0.5),
        DseTransform::SmScale(2.0),
        DseTransform::SmScale(0.5),
    ];

    /// Display label matching the paper's row names.
    pub fn label(&self) -> String {
        match self {
            DseTransform::Baseline => "Baseline".to_string(),
            DseTransform::CacheScale(f) => format!("Cache size x{f}"),
            DseTransform::SmScale(f) => format!("#SM x{f}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for c in [
            GpuConfig::rtx2080(),
            GpuConfig::h100(),
            GpuConfig::h200(),
            GpuConfig::macsim_baseline(),
        ] {
            c.validate();
        }
    }

    #[test]
    fn h200_is_h100_with_faster_memory() {
        let h100 = GpuConfig::h100();
        let h200 = GpuConfig::h200();
        assert_eq!(h100.num_sms, h200.num_sms);
        assert_eq!(h100.l2_size, h200.l2_size);
        assert!(h200.dram_bandwidth_gbps > h100.dram_bandwidth_gbps);
    }

    #[test]
    fn cache_transform_scales_both_levels() {
        let base = GpuConfig::macsim_baseline();
        let doubled = base.with_transform(DseTransform::CacheScale(2.0));
        assert_eq!(doubled.l1_size, base.l1_size * 2);
        assert_eq!(doubled.l2_size, base.l2_size * 2);
        assert_eq!(doubled.num_sms, base.num_sms);
        doubled.validate();
    }

    #[test]
    fn sm_transform_scales_sms() {
        let base = GpuConfig::macsim_baseline();
        let halved = base.with_transform(DseTransform::SmScale(0.5));
        assert_eq!(halved.num_sms, base.num_sms / 2);
        assert_eq!(halved.l2_size, base.l2_size);
    }

    #[test]
    fn baseline_transform_is_identity() {
        let base = GpuConfig::h100();
        let same = base.with_transform(DseTransform::Baseline);
        assert_eq!(base, same);
    }

    #[test]
    fn table4_has_five_rows() {
        assert_eq!(DseTransform::TABLE4.len(), 5);
        assert_eq!(DseTransform::TABLE4[0].label(), "Baseline");
        assert_eq!(DseTransform::TABLE4[1].label(), "Cache size x2");
    }

    #[test]
    fn bytes_per_cycle() {
        let c = GpuConfig::rtx2080();
        let bpc = c.dram_bytes_per_cycle();
        assert!((bpc - 448.0 / 1.71).abs() < 1e-9);
    }

    #[test]
    fn cycles_to_seconds_roundtrip() {
        let c = GpuConfig::rtx2080();
        let s = c.cycles_to_seconds(1.71e9);
        assert!((s - 1.0).abs() < 1e-12);
    }
}
