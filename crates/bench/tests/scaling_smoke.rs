//! Same-process ratio probes on the largest synthetic suite.
//!
//! The thread-scaling assertion is *determinism only*: the parallel run
//! must produce a bit-identical summary. The measured speedup is printed
//! (run with `--nocapture` to see it) but never gated on — it depends on
//! the host's free CPUs. The timing gates are ratios of two paths measured
//! in this same process (the ground-truth fold, ROOT's recursion, workload
//! construction and the builder's normal draw, each against its
//! reference), which machine speed cancels out of. The sampler's
//! profile+ROOT ratio is printed only.

use std::sync::{Mutex, MutexGuard};

use stem_bench::microbench::{
    construct_ratio_check, fold_ratio_check, normal_ratio_check, profile_root_ratio_check,
    root_ratio_check, threads_ratio_check,
};

/// The probes take turns: the test harness runs tests concurrently, and a
/// probe timed while another one (the threads=4 run above all) holds the
/// CPUs measures the contention, not its two paths.
static PROBE: Mutex<()> = Mutex::new(());

fn one_probe_at_a_time() -> MutexGuard<'static, ()> {
    stem_par::lock_unpoisoned(&PROBE)
}

/// The in-memory ground-truth fold (one deterministic core per invocation
/// group, then every invocation's jitter) must give the per-invocation
/// reference's total bit for bit, and take at most 0.5x its time (the
/// fastest of 5 runs each, alternated in this process).
#[test]
fn ground_truth_fold_matches_reference_and_beats_it() {
    let _turn = one_probe_at_a_time();
    let check = fold_ratio_check(5);
    println!(
        "ground-truth fold vs per-invocation reference on {}: ratio {:.2}",
        check.workload, check.ratio
    );
    assert!(
        check.identical,
        "the ground-truth fold diverged from the per-invocation reference on {}",
        check.workload
    );
    assert!(
        check.ratio <= 0.5,
        "the ground-truth fold took {:.2}x the reference's time on {} (gate: 0.5x)",
        check.ratio,
        check.workload
    );
}

/// Serial and threads=4 pipeline runs, each with a cold sampler (the
/// fastest of 5 runs each, alternated), must give identical summaries.
#[test]
fn parallel_run_matches_serial_and_reports_speedup() {
    let _turn = one_probe_at_a_time();
    let check = threads_ratio_check(4, 5);
    println!(
        "threads=1 vs threads=4: {:.2}x speedup (informational)",
        1.0 / check.ratio
    );
    assert!(
        check.identical,
        "parallel run diverged from serial on {}",
        check.workload
    );
}

/// ROOT's sort-once, ping-pong recursion must reproduce the per-node-Vec
/// reference recursion bit for bit, and take at most 0.85x its time (the
/// fastest of 5 runs each, alternated in this process).
#[test]
fn root_recursion_matches_reference_and_beats_it() {
    let _turn = one_probe_at_a_time();
    let check = root_ratio_check(5);
    println!(
        "root fast path vs reference on {}: ratio {:.2}",
        check.workload, check.ratio
    );
    assert!(
        check.identical,
        "ROOT fast path diverged from the reference recursion on {}",
        check.workload
    );
    assert!(
        check.ratio <= 0.85,
        "ROOT fast path took {:.2}x the reference's time on {} (gate: 0.85x)",
        check.ratio,
        check.workload
    );
}

/// One-pass workload construction must derive the three-pass reference's
/// group ids, representatives and fingerprint bit for bit, and take at
/// most 0.5x its time (the fastest of 5 runs each, alternated in this
/// process).
#[test]
fn workload_construction_matches_reference_and_beats_it() {
    let _turn = one_probe_at_a_time();
    let check = construct_ratio_check(5);
    println!(
        "one-pass construction vs reference on {}: ratio {:.2}",
        check.workload, check.ratio
    );
    assert!(
        check.identical,
        "one-pass construction diverged from the reference on {}",
        check.workload
    );
    assert!(
        check.ratio <= 0.5,
        "one-pass construction took {:.2}x the reference's time on {} (gate: 0.5x)",
        check.ratio,
        check.workload
    );
}

/// The builder's normal draw must give the libm reference's `f32` bits
/// on 1 M seeded pairs and take at most 0.7x its time, RNG included (the
/// fastest of 11 runs each, alternated in this process: a pair of runs
/// takes ~80 ms, so a burst of host noise can cover all of 5 pairs but
/// rarely all of 11; every run's ratio is printed).
#[test]
fn normal_draw_matches_reference_and_beats_it() {
    let _turn = one_probe_at_a_time();
    let check = normal_ratio_check(11);
    println!(
        "normal draw vs reference on {}: ratio {:.2}",
        check.workload, check.ratio
    );
    assert!(
        check.identical,
        "the normal draw diverged from the libm reference on {}",
        check.workload
    );
    assert!(
        check.ratio <= 0.7,
        "the normal draw took {:.2}x the reference's time on {} (gate: 0.7x)",
        check.ratio,
        check.workload
    );
}

/// A cold sampler's profile into ROOT over the HuggingFace suite (each
/// kernel's times gathered from measurements over one shared noise table)
/// must reproduce a fresh runner per workload, drawing every noise factor
/// itself, plus `cluster_workload` bit for bit. Its time ratio (the
/// fastest of 5 runs each, alternated in this process) is printed, not
/// gated: ROOT's recursion is the same code on both sides and most of
/// either's time, so the ratio sits near 0.8 and host noise moves it past
/// any bound tight enough to matter.
#[test]
fn sampler_profile_into_root_matches_the_unfused_path() {
    let _turn = one_probe_at_a_time();
    let check = profile_root_ratio_check(5);
    println!(
        "profile+root vs unfused on {}: ratio {:.2} (informational)",
        check.workload, check.ratio
    );
    assert!(
        check.identical,
        "the sampler's profile into ROOT diverged from the unfused path on {}",
        check.workload
    );
}
