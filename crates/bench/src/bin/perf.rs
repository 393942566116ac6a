//! Paper-scale hot-path benchmark: times workload generation (streamed
//! into a counting sink) and materialization, ground-truth simulation,
//! clustering (plan construction), and the end-to-end pipeline per suite,
//! and emits a machine-readable `BENCH_hotpath.json` so every change can
//! be compared against the previous perf trajectory point.
//!
//! Usage:
//!
//! ```text
//! cargo run -p stem-bench --release --bin perf -- \
//!     [--hf-scale 0.05] [--seed 2025] [--reps 3] [--out BENCH_hotpath.json]
//! ```
//!
//! Timing is wall-clock (`Instant`); the thread budget is whatever
//! `STEM_THREADS` resolves to (recorded in the output). All simulated
//! results obey the workspace determinism contract, so two runs differ
//! only in the wall-clock fields.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use gpu_workload::suites::HuggingfaceScale;
use gpu_workload::{BlockSink, Invocation, SinkError, SuiteKind, Workload};
use stem_bench::harness::ExperimentOptions;
use stem_bench::memuse::peak_rss_kb;
use stem_core::sampler::KernelSampler;
use stem_core::{Pipeline, SnapshotError, StemConfig, StemError, StemRootSampler};

/// One timed section of one suite.
struct Section {
    name: &'static str,
    wall_ns: u128,
    /// Work units processed (invocations for sim phases, points for plans).
    units: u64,
    /// Process peak RSS (`VmHWM`, kB) observed at the end of the section.
    /// Monotonic across sections: a flat sequence means nothing in later
    /// sections scaled memory with stream length.
    peak_rss_kb: u64,
}

impl Section {
    fn units_per_s(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.units as f64 / (self.wall_ns as f64 / 1e9)
    }
}

struct SuiteReport {
    suite: &'static str,
    workloads: usize,
    invocations: u64,
    sections: Vec<Section>,
}

fn parse_args() -> Result<(f64, u64, u32, String), StemError> {
    let mut hf_scale = 0.05_f64;
    let mut seed = 2025_u64;
    let mut reps = 3_u32;
    let mut out = "BENCH_hotpath.json".to_string();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| -> Result<&str, StemError> {
            args.get(i + 1).map(String::as_str).ok_or_else(|| {
                StemError::InvalidConfig(format!("missing value after {}", args[i]))
            })
        };
        match args[i].as_str() {
            "--hf-scale" => {
                let raw = need(i)?;
                hf_scale = raw.parse().map_err(|_| {
                    StemError::InvalidConfig(format!("--hf-scale takes a float, got {raw:?}"))
                })?;
                i += 2;
            }
            "--seed" => {
                let raw = need(i)?;
                seed = raw.parse().map_err(|_| {
                    StemError::InvalidConfig(format!("--seed takes a u64, got {raw:?}"))
                })?;
                i += 2;
            }
            "--reps" => {
                let raw = need(i)?;
                reps = raw.parse().map_err(|_| {
                    StemError::InvalidConfig(format!("--reps takes a u32, got {raw:?}"))
                })?;
                i += 2;
            }
            "--out" => {
                out = need(i)?.to_string();
                i += 2;
            }
            other => {
                return Err(StemError::InvalidConfig(format!("unknown option {other}")));
            }
        }
    }
    Ok((hf_scale, seed, reps, out))
}

/// Counts streamed rows and drops them: the sink a generator pass feeds
/// when only the generator is timed.
#[derive(Default)]
struct CountSink {
    rows: u64,
}

impl BlockSink for CountSink {
    fn tables(&mut self, _skeleton: &Workload) -> Result<(), SinkError> {
        Ok(())
    }

    fn block(&mut self, invocations: &[Invocation]) -> Result<(), SinkError> {
        self.rows += invocations.len() as u64;
        Ok(())
    }
}

fn bench_suite(kind: SuiteKind, options: &ExperimentOptions, reps: u32) -> SuiteReport {
    // Workload generation alone: every source streamed into a counting
    // sink (random draws, rows and the streaming fingerprint, no
    // construction and no stored stream).
    let sources = options.suite_sources(kind);
    let mut generated = CountSink::default();
    let t = Instant::now();
    for source in &sources {
        source
            .stream(&mut generated, gpu_workload::DEFAULT_BLOCK_LEN)
            .expect("a counting sink never fails");
    }
    let generate = Section {
        name: "workload_generate",
        wall_ns: t.elapsed().as_nanos(),
        units: generated.rows,
        peak_rss_kb: peak_rss_kb(),
    };

    // Workload materialization: generation plus construction (range
    // checks, timing groups, content fingerprint) of every workload.
    let t = Instant::now();
    let workloads: Vec<Workload> = options.suite(kind);
    let materialize_ns = t.elapsed().as_nanos();
    let invocations: u64 = workloads.iter().map(|w| w.num_invocations() as u64).sum();
    assert_eq!(generated.rows, invocations);
    let sim = options.simulator();
    let par = stem_par::Parallelism::from_env();
    let sampler = StemRootSampler::new(options.stem_config.clone());
    let mut sections = vec![
        generate,
        Section {
            name: "workload_materialize",
            wall_ns: materialize_ns,
            units: invocations,
            peak_rss_kb: peak_rss_kb(),
        },
    ];

    // Ground-truth simulation: the full analytic model over every
    // invocation, through the fold `Pipeline`, campaigns and `repro` run.
    let t = Instant::now();
    let mut total_cycles = 0.0_f64;
    for w in &workloads {
        total_cycles += gpu_sim::workload_total(
            &sim,
            par,
            w,
            gpu_workload::DEFAULT_BLOCK_LEN,
            gpu_sim::DEFAULT_CHANNEL_BLOCKS,
        )
        .expect("generated workloads fold cleanly")
        .total_cycles;
    }
    sections.push(Section {
        name: "ground_truth_sim",
        wall_ns: t.elapsed().as_nanos(),
        units: invocations,
        peak_rss_kb: peak_rss_kb(),
    });
    assert!(total_cycles.is_finite() && total_cycles > 0.0);

    // Clustering / plan construction (profiler + ROOT + k-means + sizing).
    let t = Instant::now();
    let mut planned_samples = 0_u64;
    for w in &workloads {
        planned_samples += sampler.plan(w, options.seed).num_samples() as u64;
    }
    sections.push(Section {
        name: "clustering_plan",
        wall_ns: t.elapsed().as_nanos(),
        units: invocations,
        peak_rss_kb: peak_rss_kb(),
    });
    assert!(planned_samples > 0);

    // End-to-end pipeline: ground truth + reps × (plan + sampled sim + eval).
    // A fresh sampler keeps this a cold start: the sampler memoizes the
    // profile+clustering across repetitions, and reusing the one warmed by
    // the clustering section above would hide the first plan's cost.
    let cold_sampler = StemRootSampler::new(options.stem_config.clone());
    let pipeline = Pipeline::new(options.simulator())
        .with_reps(reps)
        .expect("positive reps")
        .with_seed(options.seed)
        .with_parallelism(par);
    let t = Instant::now();
    let mut mean_err = 0.0_f64;
    for w in &workloads {
        mean_err += pipeline.run(&cold_sampler, w).mean_error_pct;
    }
    sections.push(Section {
        name: "pipeline_end_to_end",
        wall_ns: t.elapsed().as_nanos(),
        units: invocations * (reps as u64 + 1),
        peak_rss_kb: peak_rss_kb(),
    });
    assert!(mean_err.is_finite());

    SuiteReport {
        suite: match kind {
            SuiteKind::Rodinia => "rodinia",
            SuiteKind::Casio => "casio",
            SuiteKind::Huggingface => "huggingface",
            SuiteKind::Custom => "custom",
        },
        workloads: workloads.len(),
        invocations,
        sections,
    }
}

fn run() -> Result<(), StemError> {
    let (hf_scale, seed, reps, out) = parse_args()?;
    let mut options = ExperimentOptions::default_repro();
    options.seed = seed;
    options.hf_scale = HuggingfaceScale::custom(hf_scale);
    options.stem_config = StemConfig::paper();
    let threads = stem_par::Parallelism::from_env().threads();

    eprintln!("perf: hf_scale={hf_scale} seed={seed} reps={reps} threads={threads}");

    let suites = [SuiteKind::Rodinia, SuiteKind::Casio, SuiteKind::Huggingface];
    let mut reports = Vec::new();
    let wall = Instant::now();
    for kind in suites {
        let r = bench_suite(kind, &options, reps);
        for s in &r.sections {
            eprintln!(
                "perf: {:<12} {:<20} {:>12.3} ms  {:>14.0} units/s",
                r.suite,
                s.name,
                s.wall_ns as f64 / 1e6,
                s.units_per_s()
            );
        }
        reports.push(r);
    }
    let total_ns = wall.elapsed().as_nanos();

    // Hand-rolled JSON (the workspace is hermetic: no serde).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"hotpath\",\n");
    json.push_str("  \"schema_version\": 1,\n");
    json.push_str(&format!("  \"hf_scale\": {hf_scale},\n"));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"total_wall_ns\": {total_ns},\n"));
    json.push_str("  \"suites\": [\n");
    for (i, r) in reports.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"suite\": \"{}\",\n", r.suite));
        json.push_str(&format!("      \"workloads\": {},\n", r.workloads));
        json.push_str(&format!("      \"invocations\": {},\n", r.invocations));
        json.push_str("      \"sections\": [\n");
        for (j, s) in r.sections.iter().enumerate() {
            json.push_str(&format!(
                "        {{\"name\": \"{}\", \"wall_ns\": {}, \"units\": {}, \"units_per_s\": {:.1}, \"peak_rss_kb\": {}}}{}\n",
                s.name,
                s.wall_ns,
                s.units,
                s.units_per_s(),
                s.peak_rss_kb,
                if j + 1 < r.sections.len() { "," } else { "" }
            ));
        }
        json.push_str("      ]\n");
        json.push_str(&format!(
            "    }}{}\n",
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    stem_storage::write_atomic(&stem_storage::RealFs, Path::new(&out), &json)
        .map_err(|e| StemError::Snapshot(SnapshotError::Io(e)))?;
    eprintln!(
        "perf: total {:.3} s -> {out}",
        total_ns as f64 / 1e9
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // All failures leave through the typed StemError display, so
            // CLI and daemon error lines share one format.
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
