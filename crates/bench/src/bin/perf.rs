//! The workspace's timing harness: one binary writes both committed
//! benchmark files, recording wall time, work units and peak RSS
//! (`VmHWM`) per section.
//!
//! Usage:
//!
//! ```text
//! cargo run -p stem-bench --release --bin perf -- \
//!     [--mode hotpath|streamed|in-memory] [--hf-scale F] [--seed 2025] \
//!     [--reps 3] [--threads 1,4] [--store-dir target/paperscale_store] \
//!     [--out FILE]
//! ```
//!
//! * `--mode hotpath` (the default; `--hf-scale 0.05`, `--reps 3`,
//!   `--out BENCH_hotpath.json`) times, per suite, workload generation
//!   (streamed into a counting sink) and materialization, ground-truth
//!   simulation, clustering (plan construction) and the end-to-end
//!   pipeline, on the thread budget `STEM_THREADS` resolves to. It then
//!   runs the Sec. 5.6 sweep: a cold STEM sampler's `plan` against
//!   Photon's `analyze` on `bert` at HuggingFace scales 0.002, 0.008 and
//!   0.032, the fastest of `--reps` runs each. A near-linear cost shows as
//!   a flat `units_per_s` across the three scales.
//! * `--mode streamed` (`--hf-scale 1.0`, `--threads 1,4`,
//!   `--store-dir target/paperscale_store`, `--out BENCH_paperscale.json`)
//!   never materializes a workload: it commits every suite to a columnar
//!   store from block streams, then runs the streamed ground-truth executor
//!   from the generator and from the store at each thread count, so peak
//!   RSS stays a few blocks at any scale.
//! * `--mode in-memory` (the same defaults, no store) materializes each
//!   suite and runs the retained reference path (`run_full_par`). Run it as
//!   a separate process for the before/after peak-RSS comparison, since
//!   `VmHWM` is process-wide and monotonic.
//!
//! A flag that does not apply to the chosen mode is an error: `--reps`
//! belongs to hotpath, `--threads` to streamed and in-memory, and
//! `--store-dir` to streamed.
//!
//! The streamed mode asserts that the totals are bit-identical between the
//! generator and the store path at every thread count, and the in-memory
//! mode that the streamed fold reproduces the reference, so the benchmark
//! doubles as a paper-scale equivalence gate. All simulated results obey
//! the workspace determinism contract: two runs differ only in the
//! wall-clock and RSS fields.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

use gpu_workload::suites::{huggingface_sources, HuggingfaceScale};
use gpu_workload::{
    BlockSink, Invocation, SinkError, StoreWriter, SuiteKind, Workload, WorkloadSource,
    DEFAULT_BLOCK_LEN,
};
use stem_baselines::PhotonSampler;
use stem_bench::harness::{hf_scale_arg, ExperimentOptions};
use stem_bench::memuse::peak_rss_kb;
use stem_core::sampler::KernelSampler;
use stem_core::{Pipeline, SnapshotError, StemConfig, StemError, StemRootSampler};
use stem_par::Parallelism;
use stem_storage::RealFs;

const SUITES: [(SuiteKind, &str); 3] = [
    (SuiteKind::Rodinia, "rodinia"),
    (SuiteKind::Casio, "casio"),
    (SuiteKind::Huggingface, "huggingface"),
];

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Hotpath,
    Streamed,
    InMemory,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Hotpath => "hotpath",
            Mode::Streamed => "streamed",
            Mode::InMemory => "in-memory",
        }
    }

    /// Whether `flag` configures this mode (unknown flags are rejected
    /// later, by name).
    fn takes(self, flag: &str) -> bool {
        match flag {
            "--reps" => self == Mode::Hotpath,
            "--threads" => self != Mode::Hotpath,
            "--store-dir" => self == Mode::Streamed,
            _ => true,
        }
    }
}

struct Args {
    mode: Mode,
    hf_scale: HuggingfaceScale,
    seed: u64,
    reps: u32,
    threads: Vec<usize>,
    store_dir: PathBuf,
    out: String,
}

fn number<T: FromStr>(flag: &str, raw: &str) -> Result<T, StemError> {
    raw.parse()
        .map_err(|_| StemError::InvalidConfig(format!("{flag} takes a number, got {raw:?}")))
}

fn parse_args() -> Result<Args, StemError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() % 2 == 1 {
        let last = &args[args.len() - 1];
        return Err(StemError::InvalidConfig(format!(
            "missing value after {last}"
        )));
    }
    let pairs: Vec<(&str, &str)> = args
        .chunks(2)
        .map(|pair| (pair[0].as_str(), pair[1].as_str()))
        .collect();
    // The mode sets the other flags' defaults, so it is read first.
    let mode = match pairs.iter().rev().find(|(flag, _)| *flag == "--mode") {
        None | Some((_, "hotpath")) => Mode::Hotpath,
        Some((_, "streamed")) => Mode::Streamed,
        Some((_, "in-memory")) => Mode::InMemory,
        Some((_, raw)) => {
            return Err(StemError::InvalidConfig(format!(
                "--mode is hotpath, streamed or in-memory, got {raw:?}"
            )))
        }
    };
    let hotpath = mode == Mode::Hotpath;
    let mut parsed = Args {
        mode,
        hf_scale: if hotpath {
            HuggingfaceScale::default_repro()
        } else {
            HuggingfaceScale::paper()
        },
        seed: 2025,
        reps: 3,
        threads: vec![1, 4],
        store_dir: PathBuf::from("target/paperscale_store"),
        out: if hotpath {
            "BENCH_hotpath.json"
        } else {
            "BENCH_paperscale.json"
        }
        .to_string(),
    };
    for (flag, raw) in pairs {
        if !mode.takes(flag) {
            return Err(StemError::InvalidConfig(format!(
                "{flag} does not apply to --mode {}",
                mode.name()
            )));
        }
        match flag {
            "--mode" => {}
            "--hf-scale" => parsed.hf_scale = hf_scale_arg(number(flag, raw)?)?,
            "--seed" => parsed.seed = number(flag, raw)?,
            "--reps" => parsed.reps = number(flag, raw)?,
            "--threads" => {
                parsed.threads = raw
                    .split(',')
                    .map(|t| number(flag, t.trim()))
                    .collect::<Result<_, _>>()?;
            }
            "--store-dir" => parsed.store_dir = PathBuf::from(raw),
            "--out" => parsed.out = raw.to_string(),
            other => {
                return Err(StemError::InvalidConfig(format!("unknown option {other}")));
            }
        }
    }
    if parsed.reps == 0 || parsed.threads.contains(&0) {
        return Err(StemError::InvalidConfig(
            "--reps and --threads take positive counts".to_string(),
        ));
    }
    Ok(parsed)
}

/// One timed section: `name` is `suite/stage`.
struct Section {
    name: String,
    threads: usize,
    wall_ns: u128,
    /// Work units processed: invocations, counted once per pass over them
    /// (the end-to-end pipeline makes reps + 1).
    units: u64,
    /// Process peak RSS (`VmHWM`, kB) at the end of the section. Monotonic
    /// across sections: a flat sequence means nothing in later sections
    /// scaled memory with stream length.
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

/// Appends a section ending now (for its peak RSS) and logs it.
fn record(sections: &mut Vec<Section>, name: String, threads: usize, wall_ns: u128, units: u64) {
    let s = Section {
        name,
        threads,
        wall_ns,
        units,
        peak_rss_kb: peak_rss_kb(),
    };
    eprintln!(
        "perf: {:<42} t={} {:>12.3} ms  {:>14.0} units/s  rss {:>9} kB",
        s.name,
        s.threads,
        s.wall_ns as f64 / 1e6,
        s.units_per_s(),
        s.peak_rss_kb
    );
    sections.push(s);
}

fn ground_truth(e: impl std::fmt::Display) -> StemError {
    StemError::GroundTruth(e.to_string())
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

fn run_hotpath(args: &Args, options: &ExperimentOptions) -> Vec<Section> {
    let par = Parallelism::from_env();
    let threads = par.threads();
    let sim = options.simulator();
    let mut sections = Vec::new();
    for (kind, suite) in SUITES {
        // Workload generation alone: every source streamed into a counting
        // sink (random draws, rows and the streaming fingerprint, no
        // construction and no stored stream).
        let mut generated = CountSink::default();
        let t = Instant::now();
        for source in &options.suite_sources(kind) {
            source
                .stream(&mut generated, DEFAULT_BLOCK_LEN)
                .expect("a counting sink never fails");
        }
        let n = generated.rows;
        record(
            &mut sections,
            format!("{suite}/workload_generate"),
            threads,
            t.elapsed().as_nanos(),
            n,
        );

        // Workload materialization: generation plus construction (range
        // checks, timing groups, content fingerprint) of every workload.
        let t = Instant::now();
        let workloads = options.suite(kind);
        let materialize_ns = t.elapsed().as_nanos();
        assert_eq!(
            n,
            workloads.iter().map(|w| w.num_invocations() as u64).sum()
        );
        record(
            &mut sections,
            format!("{suite}/workload_materialize"),
            threads,
            materialize_ns,
            n,
        );

        // Ground-truth simulation: the full analytic model over every
        // invocation, through the fold `Pipeline`, campaigns and `repro` run.
        let t = Instant::now();
        let mut total_cycles = 0.0_f64;
        for w in &workloads {
            total_cycles += gpu_sim::workload_total(
                &sim,
                par,
                w,
                DEFAULT_BLOCK_LEN,
                gpu_sim::DEFAULT_CHANNEL_BLOCKS,
            )
            .expect("generated workloads fold cleanly")
            .total_cycles;
        }
        record(
            &mut sections,
            format!("{suite}/ground_truth_sim"),
            threads,
            t.elapsed().as_nanos(),
            n,
        );
        assert!(total_cycles.is_finite() && total_cycles > 0.0);

        // Clustering / plan construction (profiler + ROOT + KKT sizing).
        let sampler = StemRootSampler::new(options.stem_config.clone());
        let t = Instant::now();
        let mut planned_samples = 0_u64;
        for w in &workloads {
            planned_samples += sampler.plan(w, options.seed).num_samples() as u64;
        }
        record(
            &mut sections,
            format!("{suite}/clustering_plan"),
            threads,
            t.elapsed().as_nanos(),
            n,
        );
        assert!(planned_samples > 0);

        // End-to-end pipeline: ground truth + reps × (plan + sampled sim +
        // eval). A fresh sampler keeps this a cold start: the sampler
        // memoizes the profile+clustering across repetitions, and reusing
        // the one warmed above would hide the first plan's cost.
        let cold_sampler = StemRootSampler::new(options.stem_config.clone());
        let pipeline = Pipeline::new(options.simulator())
            .with_reps(args.reps)
            .expect("positive reps")
            .with_seed(options.seed)
            .with_parallelism(par);
        let t = Instant::now();
        let mut mean_err = 0.0_f64;
        for w in &workloads {
            mean_err += pipeline.run(&cold_sampler, w).mean_error_pct;
        }
        let units = n * (u64::from(args.reps) + 1);
        record(
            &mut sections,
            format!("{suite}/pipeline_end_to_end"),
            threads,
            t.elapsed().as_nanos(),
            units,
        );
        assert!(mean_err.is_finite());
    }

    // Sec. 5.6: STEM's planning cost against Photon's BBV matching as the
    // invocation count grows 16x. Each run builds its own sampler, so every
    // STEM plan profiles and clusters from cold.
    let fastest = |f: &dyn Fn()| -> u128 {
        (0..args.reps)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_nanos()
            })
            .min()
            .expect("reps is positive")
    };
    for scale in [0.002, 0.008, 0.032] {
        let bert = huggingface_sources(options.seed, HuggingfaceScale::custom(scale))
            .into_iter()
            .find(|s| s.name() == "bert")
            .expect("the HuggingFace suite has bert")
            .materialize();
        let n = bert.num_invocations() as u64;
        let stem = fastest(&|| {
            let sampler = StemRootSampler::new(options.stem_config.clone());
            black_box(sampler.plan(&bert, options.seed));
        });
        record(
            &mut sections,
            format!("sec5_6/bert@{scale}/stem_plan"),
            threads,
            stem,
            n,
        );
        let photon = fastest(&|| {
            black_box(PhotonSampler::new().analyze(&bert));
        });
        record(
            &mut sections,
            format!("sec5_6/bert@{scale}/photon_analyze"),
            threads,
            photon,
            n,
        );
    }
    sections
}

fn store_dir_for(root: &Path, suite: &str, source: &WorkloadSource) -> PathBuf {
    root.join(suite).join(source.name())
}

fn run_streamed(args: &Args, options: &ExperimentOptions) -> Result<Vec<Section>, StemError> {
    let sim = options.simulator();
    let storage = RealFs;
    let mut sections = Vec::new();

    for (kind, suite) in SUITES {
        let sources = options.suite_sources(kind);

        // Stream-generate into the columnar store. No workload is ever
        // materialized; the writer holds one block at a time.
        let t = Instant::now();
        let mut written = 0_u64;
        for source in &sources {
            let dir = store_dir_for(&args.store_dir, suite, source);
            let mut writer =
                StoreWriter::create(&storage, &dir, DEFAULT_BLOCK_LEN).map_err(ground_truth)?;
            let summary = source
                .stream(&mut writer, DEFAULT_BLOCK_LEN)
                .map_err(ground_truth)?;
            writer.finish(&summary).map_err(ground_truth)?;
            written += summary.invocations;
        }
        record(
            &mut sections,
            format!("{suite}/colstore_write"),
            1,
            t.elapsed().as_nanos(),
            written,
        );

        // Streamed ground truth from the generator and from the store, at
        // each thread count, cross-checked bitwise.
        let mut reference_bits: Option<Vec<u64>> = None;
        for &threads in &args.threads {
            let par = Parallelism::with_threads(threads);

            let t = Instant::now();
            let mut gen_totals = Vec::with_capacity(sources.len());
            let mut units = 0_u64;
            for source in &sources {
                let total = gpu_sim::source_total(
                    &sim,
                    par,
                    source,
                    DEFAULT_BLOCK_LEN,
                    gpu_sim::DEFAULT_CHANNEL_BLOCKS,
                )
                .map_err(ground_truth)?;
                units += total.invocations;
                gen_totals.push(total.total_cycles.to_bits());
            }
            let name = format!("{suite}/ground_truth_stream_generate");
            record(&mut sections, name, threads, t.elapsed().as_nanos(), units);

            let t = Instant::now();
            let mut store_totals = Vec::with_capacity(sources.len());
            let mut units = 0_u64;
            for source in &sources {
                let dir = store_dir_for(&args.store_dir, suite, source);
                let total = gpu_sim::store_total(
                    &sim,
                    par,
                    &storage,
                    &dir,
                    gpu_sim::DEFAULT_CHANNEL_BLOCKS,
                )
                .map_err(ground_truth)?;
                units += total.invocations;
                store_totals.push(total.total_cycles.to_bits());
            }
            let name = format!("{suite}/ground_truth_stream_store");
            record(&mut sections, name, threads, t.elapsed().as_nanos(), units);

            assert_eq!(
                gen_totals, store_totals,
                "{suite}: store path diverged from generate path at {threads} threads"
            );
            match &reference_bits {
                None => reference_bits = Some(gen_totals),
                Some(reference) => assert_eq!(
                    reference, &gen_totals,
                    "{suite}: totals moved with thread count"
                ),
            }
        }
    }
    Ok(sections)
}

fn run_in_memory(args: &Args, options: &ExperimentOptions) -> Result<Vec<Section>, StemError> {
    let sim = options.simulator();
    let mut sections = Vec::new();
    for (kind, suite) in SUITES {
        // The retained reference path: materialize the whole suite, then
        // run the in-memory full simulation (per-invocation vector and
        // all). Peak RSS scales with suite size here — the "before"
        // column of the flat-memory table.
        let t = Instant::now();
        let workloads = options.suite(kind);
        let invocations: u64 = workloads.iter().map(|w| w.num_invocations() as u64).sum();
        record(
            &mut sections,
            format!("{suite}/materialize"),
            1,
            t.elapsed().as_nanos(),
            invocations,
        );

        for &threads in &args.threads {
            let par = Parallelism::with_threads(threads);
            let t = Instant::now();
            for w in &workloads {
                let reference = sim.run_full_par(w, par).total_cycles;
                let streamed = gpu_sim::workload_total(
                    &sim,
                    par,
                    w,
                    DEFAULT_BLOCK_LEN,
                    gpu_sim::DEFAULT_CHANNEL_BLOCKS,
                )
                .map_err(ground_truth)?
                .total_cycles;
                assert_eq!(
                    reference.to_bits(),
                    streamed.to_bits(),
                    "{suite}: streamed total diverged from reference at {threads} threads"
                );
            }
            let name = format!("{suite}/ground_truth_in_memory");
            record(
                &mut sections,
                name,
                threads,
                t.elapsed().as_nanos(),
                invocations,
            );
        }
    }
    Ok(sections)
}

fn run() -> Result<(), StemError> {
    let args = parse_args()?;
    let mut options = ExperimentOptions::default_repro();
    options.seed = args.seed;
    options.hf_scale = args.hf_scale;
    options.stem_config = StemConfig::paper();
    let hotpath = args.mode == Mode::Hotpath;
    let threads = if hotpath {
        vec![Parallelism::from_env().threads()]
    } else {
        args.threads.clone()
    };

    eprintln!(
        "perf: mode={} hf_scale={} seed={} threads={threads:?} block_len={DEFAULT_BLOCK_LEN}",
        args.mode.name(),
        args.hf_scale.factor(),
        args.seed,
    );

    let wall = Instant::now();
    let sections = match args.mode {
        Mode::Hotpath => run_hotpath(&args, &options),
        Mode::Streamed => run_streamed(&args, &options)?,
        Mode::InMemory => run_in_memory(&args, &options)?,
    };
    let total_ns = wall.elapsed().as_nanos();

    // Hand-rolled JSON (the workspace is hermetic: no serde).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"bench\": \"{}\",\n",
        if hotpath { "hotpath" } else { "paperscale" }
    ));
    json.push_str(&format!(
        "  \"schema_version\": {},\n",
        if hotpath { 2 } else { 1 }
    ));
    json.push_str(&format!("  \"mode\": \"{}\",\n", args.mode.name()));
    json.push_str(&format!("  \"hf_scale\": {},\n", args.hf_scale.factor()));
    json.push_str(&format!("  \"seed\": {},\n", args.seed));
    if hotpath {
        json.push_str(&format!("  \"reps\": {},\n", args.reps));
    }
    json.push_str(&format!("  \"block_len\": {DEFAULT_BLOCK_LEN},\n"));
    json.push_str(&format!(
        "  \"channel_blocks\": {},\n",
        gpu_sim::DEFAULT_CHANNEL_BLOCKS
    ));
    let threads: Vec<String> = threads.iter().map(usize::to_string).collect();
    json.push_str(&format!("  \"threads\": [{}],\n", threads.join(", ")));
    json.push_str(&format!("  \"total_wall_ns\": {total_ns},\n"));
    json.push_str("  \"sections\": [\n");
    for (i, s) in sections.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"threads\": {}, \"wall_ns\": {}, \"units\": {}, \
             \"units_per_s\": {:.1}, \"peak_rss_kb\": {}}}{}\n",
            s.name,
            s.threads,
            s.wall_ns,
            s.units,
            s.units_per_s(),
            s.peak_rss_kb,
            if i + 1 < sections.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    stem_storage::write_atomic(&RealFs, Path::new(&args.out), &json)
        .map_err(|e| StemError::Snapshot(SnapshotError::Io(e)))?;
    eprintln!("perf: total {:.3} s -> {}", total_ns as f64 / 1e9, args.out);
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
