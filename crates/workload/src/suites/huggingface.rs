//! Synthetic HuggingFace suite: 6 large LLM/ML serving workloads.
//!
//! The paper's HuggingFace workloads (Bert, Bloom, DeiT, Gemma, GPT-2,
//! ResNet-50) generate 1000+ sentences or classify 7000+ images, averaging
//! 11.6M kernel calls per workload (Table 2). We reproduce the serving
//! structure — a long stream of repeated transformer-layer kernels with a
//! prefill/decode bimodality and sequence-length jitter — behind a
//! [`HuggingfaceScale`] so the default test scale stays laptop friendly
//! while `scale = 1.0` approximates the paper's size.

use crate::builder::WorkloadSource;
use crate::context::{ContextSchedule, RuntimeContext};
use crate::trace::{SuiteKind, Workload};

use super::ml::{self, GemmSize};

/// Scale factor for the HuggingFace suite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HuggingfaceScale(f64);

impl HuggingfaceScale {
    /// Paper scale: ~11.6M calls per workload on average.
    pub fn paper() -> Self {
        HuggingfaceScale(1.0)
    }

    /// Default reproduction scale (~1/20 of paper, ~0.5M calls average):
    /// large enough that all statistical behaviour is identical, small
    /// enough for CI.
    pub fn default_repro() -> Self {
        HuggingfaceScale(0.05)
    }

    /// Tiny scale for unit tests.
    #[cfg(test)]
    pub(crate) fn test() -> Self {
        HuggingfaceScale(0.002)
    }

    /// Custom scale, or `None` unless `0 < scale <= 4` (NaN included):
    /// the checked form for scales read from a command line.
    pub fn try_custom(scale: f64) -> Option<Self> {
        (scale > 0.0 && scale <= 4.0).then_some(HuggingfaceScale(scale))
    }

    /// Custom scale.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < scale <= 4`.
    pub fn custom(scale: f64) -> Self {
        match HuggingfaceScale::try_custom(scale) {
            Some(s) => s,
            None => panic!("scale must be in (0, 4], got {scale}"),
        }
    }

    /// The raw factor.
    pub fn factor(self) -> f64 {
        self.0
    }

    fn steps(self, base: usize) -> usize {
        ((base as f64 * self.0).round() as usize).max(8)
    }
}

impl Default for HuggingfaceScale {
    fn default() -> Self {
        HuggingfaceScale::default_repro()
    }
}

/// Generates all 6 HuggingFace workloads at the given scale.
pub fn huggingface_suite(seed: u64, scale: HuggingfaceScale) -> Vec<Workload> {
    huggingface_sources(seed, scale)
        .iter()
        .map(WorkloadSource::materialize)
        .collect()
}

/// The 6 HuggingFace workloads as deferred [`WorkloadSource`]s — the
/// block-streaming counterpart of [`huggingface_suite`], generating
/// identical content (same RNG stream, same fingerprints). At
/// `HuggingfaceScale::paper()` each source streams millions of calls
/// without ever materializing them.
pub fn huggingface_sources(seed: u64, scale: HuggingfaceScale) -> Vec<WorkloadSource> {
    vec![
        decoder_llm(seed ^ 0x21, "gpt2", 48, GemmSize::Medium, scale),
        decoder_llm(seed ^ 0x22, "bloom", 70, GemmSize::Large, scale),
        decoder_llm(seed ^ 0x23, "gemma", 42, GemmSize::Large, scale),
        encoder_model(seed ^ 0x24, "bert", 24, scale),
        encoder_model(seed ^ 0x25, "deit", 12, scale),
        resnet50_serving(seed ^ 0x26, scale),
    ]
}

/// Autoregressive decoder serving: a short prefill phase then a long decode
/// phase per request; thousands of requests.
fn decoder_llm(
    seed: u64,
    name: &str,
    layers: usize,
    size: GemmSize,
    scale: HuggingfaceScale,
) -> WorkloadSource {
    WorkloadSource::new(name, SuiteKind::Huggingface, seed, move |b| {
        // Context 0: prefill (whole prompt, large GEMMs, good locality).
        // Context 1: decode (single token, GEMV-shaped, KV-cache bound).
        let prefill_decode = vec![
            RuntimeContext::neutral()
                .with_work(8.0)
                .with_locality(2.0)
                .with_jitter(0.05),
            RuntimeContext::neutral()
                .with_work(1.0)
                .with_locality(0.6)
                .with_jitter(0.14),
        ];
        let qkv = b.add_kernel(ml::gemm("qkv_proj_gemm", size), prefill_decode.clone());
        let attn = b.add_kernel(
            ml::softmax("flash_attn_fwd", 128),
            vec![
                RuntimeContext::neutral().with_work(6.0).with_jitter(0.06),
                // Decode attention cost grows with KV-cache length: wide.
                RuntimeContext::neutral()
                    .with_work(1.4)
                    .with_locality(0.5)
                    .with_jitter(0.30),
            ],
        );
        let out_proj = b.add_kernel(ml::gemm("out_proj_gemm", size), prefill_decode.clone());
        let ffn1 = b.add_kernel(ml::tensor_gemm("ffn_gemm_1", size), prefill_decode.clone());
        let ffn2 = b.add_kernel(ml::tensor_gemm("ffn_gemm_2", size), prefill_decode);
        let ln = b.add_kernel(ml::norm("rms_norm", 96), ml::stable_context(0.03));
        let act = b.add_kernel(ml::elementwise("silu_mul", 96), ml::stable_context(0.02));

        // Requests: 1 prefill pass + `decode_tokens` decode passes over all
        // layers. Base request count tuned so scale=1 approximates ~10M calls.
        let requests = scale.steps(1100);
        let decode_tokens = 24usize;
        for _ in 0..requests {
            // Prefill: context 0 everywhere.
            for _ in 0..layers {
                b.invoke(qkv, 0, 1.0);
                b.invoke(attn, 0, 1.0);
                b.invoke(out_proj, 0, 1.0);
                b.invoke(ln, 0, 1.0);
                b.invoke(ffn1, 0, 1.0);
                b.invoke(act, 0, 1.0);
                b.invoke(ffn2, 0, 1.0);
            }
            // Decode: context 1, attention work grows with generated length.
            for t in 0..decode_tokens {
                let kv_growth = 1.0 + t as f32 / decode_tokens as f32;
                for _ in 0..layers {
                    b.invoke(qkv, 1, 1.0);
                    b.invoke(attn, 1, kv_growth);
                    b.invoke(out_proj, 1, 1.0);
                    b.invoke(ln, 0, 1.0);
                    b.invoke(ffn1, 1, 1.0);
                    b.invoke(act, 0, 1.0);
                    b.invoke(ffn2, 1, 1.0);
                }
            }
        }
    })
}

/// Encoder-only serving (BERT classification / DeiT vision transformer):
/// fixed-length batches, no decode phase, sequence-length buckets create
/// peaks.
fn encoder_model(seed: u64, name: &str, layers: usize, scale: HuggingfaceScale) -> WorkloadSource {
    WorkloadSource::new(name, SuiteKind::Huggingface, seed, move |b| {
        let buckets = vec![
            RuntimeContext::neutral().with_work(1.0).with_jitter(0.04),
            RuntimeContext::neutral().with_work(2.0).with_jitter(0.04),
            RuntimeContext::neutral().with_work(4.0).with_jitter(0.05),
        ];
        let qkv = b.add_kernel(ml::gemm("qkv_proj_gemm", GemmSize::Medium), buckets.clone());
        let attn = b.add_kernel(ml::softmax("softmax_attn_fwd", 96), ml::wide_context(0.12));
        let ffn = b.add_kernel(ml::tensor_gemm("ffn_gemm", GemmSize::Medium), buckets);
        let ln = b.add_kernel(ml::norm("layer_norm_fwd", 96), ml::stable_context(0.03));
        let gelu = b.add_kernel(ml::elementwise("gelu_fwd", 96), ml::stable_context(0.02));

        let batches = scale.steps(7000);
        let bucket_schedule = ContextSchedule::Weighted(vec![5.0, 3.0, 1.0]);
        for _ in 0..batches {
            for _ in 0..layers {
                b.schedule(qkv, &bucket_schedule, 1);
                b.schedule(attn, &ContextSchedule::Cyclic, 1);
                b.schedule(ffn, &bucket_schedule, 2);
                b.schedule(ln, &ContextSchedule::Cyclic, 2);
                b.schedule(gelu, &ContextSchedule::Cyclic, 1);
            }
        }
    })
}

/// ResNet-50 image-classification serving: CNN kernels, 7000+ images.
fn resnet50_serving(seed: u64, scale: HuggingfaceScale) -> WorkloadSource {
    WorkloadSource::new("resnet50", SuiteKind::Huggingface, seed, move |b| {
        let wino = b.add_kernel(
            ml::tensor_gemm("winograd_fwd_4x4", GemmSize::Large),
            ml::two_peak_contexts(2.2, 0.05),
        );
        let sgemm = b.add_kernel(
            ml::gemm("sgemm_128x64_nn", GemmSize::Medium),
            ml::three_peak_contexts(0.03),
        );
        let bn = b.add_kernel(
            ml::norm("bn_fw_inf_CUDNN", 192),
            ml::three_peak_contexts(0.025),
        );
        let pool = b.add_kernel(ml::pool("max_pool_fw_4d", 128), ml::wide_context(0.25));
        let relu = b.add_kernel(ml::elementwise("relu_fw", 192), ml::stable_context(0.02));

        let batches = scale.steps(9000);
        for _ in 0..batches {
            b.schedule(wino, &ContextSchedule::Weighted(vec![1.0, 1.0]), 8);
            b.schedule(sgemm, &ContextSchedule::Weighted(vec![2.0, 2.0, 1.0]), 9);
            b.schedule(bn, &ContextSchedule::Weighted(vec![3.0, 2.0, 1.0]), 12);
            b.schedule(pool, &ContextSchedule::Cyclic, 2);
            b.schedule(relu, &ContextSchedule::Cyclic, 12);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_workloads() {
        let suite = huggingface_suite(1, HuggingfaceScale::test());
        assert_eq!(suite.len(), 6);
        let names: Vec<&str> = suite.iter().map(|w| w.name()).collect();
        for expected in ["gpt2", "bloom", "gemma", "bert", "deit", "resnet50"] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn all_marked_huggingface() {
        for w in huggingface_suite(1, HuggingfaceScale::test()) {
            assert_eq!(w.suite(), SuiteKind::Huggingface);
        }
    }

    #[test]
    fn scale_controls_size() {
        let small = huggingface_suite(1, HuggingfaceScale::custom(0.005));
        let large = huggingface_suite(1, HuggingfaceScale::custom(0.05));
        let n_small: usize = small.iter().map(|w| w.num_invocations()).sum();
        let n_large: usize = large.iter().map(|w| w.num_invocations()).sum();
        assert!(n_large > 3 * n_small, "{n_large} vs {n_small}");
    }

    #[test]
    fn default_scale_is_substantial() {
        // At the default repro scale each decoder workload should exceed
        // 100k calls — enough for the CLT regime STEM exploits.
        let suite = huggingface_suite(1, HuggingfaceScale::default_repro());
        let gpt2 = suite.iter().find(|w| w.name() == "gpt2").expect("gpt2");
        assert!(
            gpt2.num_invocations() > 100_000,
            "gpt2 has {} calls",
            gpt2.num_invocations()
        );
    }

    #[test]
    fn decoder_has_prefill_and_decode_contexts() {
        let suite = huggingface_suite(1, HuggingfaceScale::test());
        let gpt2 = suite.iter().find(|w| w.name() == "gpt2").expect("gpt2");
        // qkv kernel (id 0) has two contexts and both appear in the stream.
        let mut seen = [false; 2];
        for inv in gpt2.invocations() {
            if inv.kernel.index() == 0 {
                seen[inv.context as usize] = true;
            }
        }
        assert!(seen[0] && seen[1]);
    }

    #[test]
    fn decode_attention_work_grows() {
        let suite = huggingface_suite(1, HuggingfaceScale::test());
        let gpt2 = suite.iter().find(|w| w.name() == "gpt2").expect("gpt2");
        let attn_id = gpt2
            .kernels()
            .iter()
            .position(|k| k.name == "flash_attn_fwd")
            .expect("attn kernel");
        let works: Vec<f32> = gpt2
            .invocations()
            .filter(|i| i.kernel.index() == attn_id && i.context == 1)
            .map(|i| i.work_scale)
            .collect();
        let min = works.iter().cloned().fold(f32::INFINITY, f32::min);
        let max = works.iter().cloned().fold(0.0f32, f32::max);
        assert!(max > 1.5 * min, "kv growth missing: {min}..{max}");
    }

    #[test]
    #[should_panic(expected = "scale must be in")]
    fn zero_scale_rejected() {
        HuggingfaceScale::custom(0.0);
    }

    #[test]
    fn try_custom_rejects_out_of_range_and_nan() {
        for bad in [0.0, -1.0, 4.5, f64::NAN, f64::INFINITY] {
            assert_eq!(HuggingfaceScale::try_custom(bad), None, "{bad}");
        }
        assert_eq!(
            HuggingfaceScale::try_custom(4.0).map(|s| s.factor()),
            Some(4.0)
        );
    }

    #[test]
    fn paper_scale_factor() {
        assert_eq!(HuggingfaceScale::paper().factor(), 1.0);
    }
}
