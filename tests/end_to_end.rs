//! Cross-crate integration tests: the paper's headline claims, exercised
//! through the public facade API.

use stem::prelude::*;

fn rtx() -> Simulator {
    Simulator::new(GpuConfig::rtx2080())
}

#[test]
fn stem_meets_bound_on_every_rodinia_workload() {
    let sim = rtx();
    let sampler = StemRootSampler::new(StemConfig::default());
    for w in &rodinia_suite(101) {
        let full = sim.run_full(w);
        // Average over a few reps: the bound is probabilistic (95%).
        let mut errs = Vec::new();
        for r in 0..3 {
            let plan = sampler.plan(w, r);
            errs.push(sim.run_sampled(w, plan.samples()).error(full.total_cycles));
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(
            mean < 0.06,
            "{}: mean error {mean} exceeds the 5% bound",
            w.name()
        );
    }
}

#[test]
fn stem_beats_every_baseline_on_casio() {
    let sim = rtx();
    let suite = casio_suite(103);
    let w = suite
        .iter()
        .find(|w| w.name() == "resnet50_train")
        .expect("resnet50_train in CASIO");
    let full = sim.run_full(w);

    let eval = |sampler: &dyn KernelSampler, reps: u64| -> f64 {
        let mut sum = 0.0;
        for r in 0..reps {
            let plan = sampler.plan(w, r);
            sum += sim.run_sampled(w, plan.samples()).error(full.total_cycles);
        }
        sum / reps as f64
    };

    let stem = eval(&StemRootSampler::new(StemConfig::default()), 3);
    let random = eval(&RandomSampler::for_suite(SuiteKind::Casio), 3);
    let pka = eval(&PkaSampler::new(), 1);
    let sieve = eval(&SieveSampler::new().without_kde(), 1);
    let photon = eval(&PhotonSampler::new(), 1);

    assert!(stem < 0.02, "STEM error {stem}");
    for (name, err) in [
        ("random", random),
        ("pka", pka),
        ("sieve", sieve),
        ("photon", photon),
    ] {
        assert!(
            err > 2.0 * stem,
            "{name} error {err} should be well above STEM's {stem}"
        );
    }
}

#[test]
fn error_reduction_factor_is_large_on_casio() {
    // Paper headline: 27.6-81.9x error reduction vs prior methods on CASIO.
    // Checked here on a subset with modest reps (magnitude, not exact).
    let sim = rtx();
    let suite = casio_suite(105);
    let picks = ["bert_infer", "dlrm_infer", "unet_infer"];
    let stem_sampler = StemRootSampler::new(StemConfig::default());
    let pka = PkaSampler::new();
    let mut stem_errs = Vec::new();
    let mut pka_errs = Vec::new();
    for name in picks {
        let w = suite.iter().find(|w| w.name() == name).expect("workload");
        let full = sim.run_full(w);
        stem_errs.push(
            sim.run_sampled(w, stem_sampler.plan(w, 0).samples())
                .error(full.total_cycles),
        );
        pka_errs.push(
            sim.run_sampled(w, pka.plan(w, 0).samples())
                .error(full.total_cycles),
        );
    }
    let stem_mean = stem_errs.iter().sum::<f64>() / stem_errs.len() as f64;
    let pka_mean = pka_errs.iter().sum::<f64>() / pka_errs.len() as f64;
    assert!(
        pka_mean / stem_mean.max(1e-4) > 8.0,
        "reduction factor only {}",
        pka_mean / stem_mean.max(1e-4)
    );
}

#[test]
fn sampling_info_transfers_across_microarchitectures() {
    // The DSE claim (Sec. 5.4): one plan, low error on every variant.
    let suite = rodinia_suite(107);
    let w = suite.iter().find(|w| w.name() == "srad").expect("srad");
    let plan = StemRootSampler::new(StemConfig::default()).plan(w, 0);
    let base = GpuConfig::macsim_baseline();
    for t in DseTransform::TABLE4 {
        let sim = Simulator::new(base.with_transform(t));
        let full = sim.run_full(w);
        let run = sim.run_sampled(w, plan.samples());
        assert!(
            run.error(full.total_cycles) < 0.08,
            "{}: error {}",
            t.label(),
            run.error(full.total_cycles)
        );
    }
}

#[test]
fn microarchitectural_metrics_are_preserved() {
    // Fig. 14's claim through the facade: sampled metric estimates track
    // the full workload across all 13 metrics.
    use stem::workload::MetricKind;
    let sim = rtx();
    let suite = casio_suite(109);
    let w = suite
        .iter()
        .find(|w| w.name() == "bert_train")
        .expect("bert_train");
    let plan = StemRootSampler::new(StemConfig::default()).plan(w, 0);
    let full = sim.metrics_full(w);
    let sampled = sim.metrics_sampled(w, plan.samples());
    for kind in MetricKind::ALL {
        let f = full.get(kind);
        let s = sampled.get(kind);
        let rel = (f - s).abs() / f.abs().max(1e-12);
        assert!(rel < 0.08, "{kind}: relative difference {rel}");
    }
}

#[test]
fn theoretical_bound_is_conservative() {
    // The observed error is (almost always) below the plan's own
    // prediction, which is below epsilon — the "trustworthy" part.
    let sim = rtx();
    let suite = casio_suite(111);
    let w = suite.iter().find(|w| w.name() == "muzero").expect("muzero");
    let full = sim.run_full(w);
    let sampler = StemRootSampler::new(StemConfig::default());
    let mut below = 0;
    let reps = 10;
    for r in 0..reps {
        let plan = sampler.plan(w, r);
        assert!(plan.predicted_error() <= 0.05 + 1e-9);
        let run = sim.run_sampled(w, plan.samples());
        if run.error(full.total_cycles) <= 0.05 {
            below += 1;
        }
    }
    // 95% confidence bound: allow one excursion in ten reps.
    assert!(below >= reps - 1, "bound held only {below}/{reps} times");
}

#[test]
fn huggingface_scale_speedup_grows_with_workload() {
    // The paper's 31,719x HF speedup is a function of scale: STEM's sample
    // count stays roughly fixed while the workload grows.
    let sim = Simulator::new(GpuConfig::h100());
    let sampler =
        StemRootSampler::new(StemConfig::default().with_profile_config(GpuConfig::h100()));
    let mut speedups = Vec::new();
    for scale in [0.005, 0.02] {
        let suite = huggingface_suite(113, HuggingfaceScale::custom(scale));
        let w = suite.iter().find(|w| w.name() == "bert").expect("bert");
        let full = sim.run_full(w);
        let run = sim.run_sampled(w, sampler.plan(w, 0).samples());
        assert!(run.error(full.total_cycles) < 0.05);
        speedups.push(run.speedup(full.total_cycles));
    }
    assert!(
        speedups[1] > 2.0 * speedups[0],
        "speedup should grow with scale: {speedups:?}"
    );
}

#[test]
fn full_pipeline_through_facade() {
    let suite = rodinia_suite(115);
    let w = suite
        .iter()
        .find(|w| w.name() == "hotspot")
        .expect("hotspot");
    let pipeline = Pipeline::new(rtx())
        .with_reps(3)
        .expect("positive reps")
        .with_seed(7);
    let sampler = StemRootSampler::new(StemConfig::default());
    let summary = pipeline.run(&sampler, w);
    assert_eq!(summary.method, "STEM");
    assert_eq!(summary.workload, "hotspot");
    assert!(summary.mean_error_pct < 6.0);
    assert!(summary.harmonic_speedup > 1.0);
    assert_eq!(summary.results.len(), 3);
}
