//! `repro` — regenerate every table and figure of the STEM+ROOT paper.
//!
//! ```text
//! Usage: repro <command> [options]
//!
//! Commands:
//!   all              run every experiment below
//!   table2           suite inventory
//!   table3           average speedup/error, 5 methods x 3 suites
//!   table4           DSE errors under microarchitecture changes
//!   table5           profiling overhead comparison
//!   fig1             execution-time histograms of heterogeneous kernels
//!   fig2             CoV-vs-peaks motivation quadrant
//!   fig7 | fig8      per-workload speedups / errors (one run emits both)
//!   fig9             speedup-vs-error scatter (CASIO + HuggingFace)
//!   fig10            kernels grouped as "identical" by PKA/Photon (DLRM)
//!   fig11            error-bound (epsilon) sweep
//!   fig12            sampled vs full cycle counts across uarch variants
//!   fig13            H100-profile -> H200-simulate portability
//!   fig14            13 microarchitectural metrics, full vs sampled
//!   ablation-kkt     joint KKT sizing vs per-cluster Eq. 3
//!   ablation-root    ROOT hierarchical clustering on/off
//!   ablation-flush   L2 flush between kernels (Sec. 6.2)
//!   ablation-smallsample  Student-t correction below the CLT rule of thumb
//!   ext-chakra       multi-GPU execution-trace node sampling (extension)
//!   ext-intra        intra-kernel (wave-level) sampling (extension)
//!   ext-tracegen     selective trace-generation savings (Fig. 5)
//!   ext-energy       sampled energy estimation
//!   coverage         interval-calibration matrix -> coverage_summary.json
//!
//! Options:
//!   --reps N         repetitions per experiment  [default: 10; 3 with --fast]
//!   --seed S         base seed                   [default: 2025]
//!   --hf-scale F     HuggingFace suite scale     [default: 0.05; 1.0 = paper]
//!   --fast           small, quick configuration for smoke runs
//!
//! CSVs are written to ./results (override with STEM_RESULTS_DIR).
//! ```

use std::process::ExitCode;

use stem_bench::experiments::{
    ablations, accuracy, coverage, dse, extensions, limits, metrics, motivation, overhead,
};
use stem_bench::harness::{hf_scale_arg, ExperimentOptions};
use stem_core::StemError;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // All failures leave through the typed StemError display, so
            // CLI and daemon error lines share one format.
            eprintln!("repro: {e}");
            print_usage();
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), StemError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print_usage();
        return Ok(());
    }
    let command = args[0].clone();
    let mut options = ExperimentOptions::default_repro();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--fast" => {
                options = ExperimentOptions::fast();
            }
            "--reps" => {
                options.reps = parse_next(&args, &mut i, "reps")?;
            }
            "--seed" => {
                options.seed = parse_next(&args, &mut i, "seed")?;
            }
            "--hf-scale" => {
                let f: f64 = parse_next(&args, &mut i, "hf-scale")?;
                options.hf_scale = hf_scale_arg(f)?;
            }
            other => {
                return Err(StemError::InvalidConfig(format!("unknown option: {other}")));
            }
        }
        i += 1;
    }

    let start = std::time::Instant::now();
    match command.as_str() {
        "all" => {
            motivation::table2(&options);
            motivation::fig1(&options);
            motivation::fig2(&options);
            accuracy::table3(&options);
            accuracy::fig7_fig8(&options);
            accuracy::fig9(&options);
            limits::fig10(&options);
            limits::fig11(&options);
            dse::table4(&options);
            dse::fig12(&options);
            dse::fig13(&options);
            metrics::fig14(&options);
            overhead::table5(&options);
            ablations::ablation_kkt(&options);
            ablations::ablation_root(&options);
            ablations::ablation_flush(&options);
            ablations::ablation_smallsample(&options);
            extensions::ext_chakra(&options);
            extensions::ext_intra(&options);
            extensions::ext_tracegen(&options);
            extensions::ext_energy(&options);
        }
        "table2" => {
            motivation::table2(&options);
        }
        "table3" => {
            accuracy::table3(&options);
        }
        "table4" => {
            dse::table4(&options);
        }
        "table5" => {
            overhead::table5(&options);
        }
        "fig1" => {
            motivation::fig1(&options);
        }
        "fig2" => {
            motivation::fig2(&options);
        }
        "fig7" | "fig8" => {
            accuracy::fig7_fig8(&options);
        }
        "fig9" => {
            accuracy::fig9(&options);
        }
        "fig10" => {
            limits::fig10(&options);
        }
        "fig11" => {
            limits::fig11(&options);
        }
        "fig12" => {
            dse::fig12(&options);
        }
        "fig13" => {
            dse::fig13(&options);
        }
        "fig14" => {
            metrics::fig14(&options);
        }
        "ablation-kkt" => {
            ablations::ablation_kkt(&options);
        }
        "ablation-root" => {
            ablations::ablation_root(&options);
        }
        "ablation-flush" => {
            ablations::ablation_flush(&options);
        }
        "ablation-smallsample" => {
            ablations::ablation_smallsample(&options);
        }
        "ext-chakra" => {
            extensions::ext_chakra(&options);
        }
        "ext-intra" => {
            extensions::ext_intra(&options);
        }
        "ext-tracegen" => {
            extensions::ext_tracegen(&options);
        }
        "ext-energy" => {
            extensions::ext_energy(&options);
        }
        "coverage" => {
            // The calibration matrix pins its own reps/seed so the
            // committed summary regenerates bit-identically.
            coverage::coverage_summary();
        }
        "help" | "--help" | "-h" => {
            print_usage();
            return Ok(());
        }
        other => {
            return Err(StemError::InvalidConfig(format!(
                "unknown command: {other}"
            )));
        }
    }
    eprintln!(
        "done in {:.1}s; CSVs in {}",
        start.elapsed().as_secs_f64(),
        stem_bench::report::results_dir().display()
    );
    Ok(())
}

fn parse_next<T: std::str::FromStr>(
    args: &[String],
    i: &mut usize,
    name: &str,
) -> Result<T, StemError> {
    *i += 1;
    args.get(*i)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| StemError::InvalidConfig(format!("--{name} requires a value")))
}

fn print_usage() {
    println!(
        "repro — regenerate the STEM+ROOT paper's tables and figures\n\n\
         usage: repro <all|table2|table3|table4|table5|fig1|fig2|fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14|ablation-kkt|ablation-root|ablation-flush|ablation-smallsample|ext-chakra|ext-intra|ext-tracegen|ext-energy|coverage>\n\
         \x20      [--reps N] [--seed S] [--hf-scale F] [--fast]"
    );
}
