//! Crash/resume suite: the acceptance gate for supervised execution and
//! campaign checkpointing.
//!
//! The scenarios mirror how a long campaign actually dies: worker panics
//! mid-unit (retried under the supervisor), a process kill after N
//! completed units (simulated by an [`ExecFaultPlan`] so the test harness
//! survives), and snapshot files damaged on disk between runs. The
//! invariants:
//!
//! 1. A campaign interrupted at any point and resumed produces summaries
//!    **bit-identical** to the uninterrupted campaign, at thread counts
//!    1 and 4, on one workload from each of the three synthetic suites.
//! 2. Injected worker panics within the retry budget are invisible in
//!    the output (retries recompute the same index-derived bits).
//! 3. A snapshot that is truncated, bit-flipped, or version-stale is
//!    quarantined — never trusted — and the campaign recomputes a fresh,
//!    correct result.
//! 4. Panics that outlive the retry budget surface as the typed
//!    [`StemError::TaskFailure`], naming the lowest failing unit.

use std::path::PathBuf;

use stem::prelude::*;

/// Reps per workload; 3 workloads x 2 reps = 6 campaign units.
const REPS: u32 = 2;

fn pipeline(threads: usize) -> Pipeline {
    Pipeline::new(Simulator::new(GpuConfig::rtx2080()))
        .with_reps(REPS)
        .expect("positive reps")
        .with_parallelism(Parallelism::with_threads(threads))
}

/// One representative workload per suite, sized to keep the whole suite
/// fast while still exercising the shared memo cache across units.
fn suite_workloads() -> Vec<Workload> {
    let rodinia = rodinia_suite(33);
    let casio = casio_suite(33);
    let hf = huggingface_suite(33, HuggingfaceScale::custom(0.02));
    let pick = |suite: &[Workload]| {
        suite
            .iter()
            .max_by_key(|w| w.num_invocations())
            .expect("nonempty suite")
            .clone()
    };
    vec![pick(&rodinia), pick(&casio), pick(&hf)]
}

/// A fresh scratch directory for one test's snapshot files.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stem-crash-resume-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The uninterrupted, unfaulted reference campaign at a given thread
/// count. Ground truth for every bit-identical assertion below.
fn reference(threads: usize, workloads: &[Workload], dir: &std::path::Path) -> CampaignReport {
    let sampler = StemRootSampler::new(StemConfig::default());
    pipeline(threads)
        .run_campaign(&sampler, workloads, &dir.join("reference.snap"))
        .expect("reference campaign")
}

#[test]
fn killed_campaign_resumes_bit_identical_across_thread_counts() {
    let dir = scratch("kill-resume");
    let workloads = suite_workloads();
    let sampler = StemRootSampler::new(StemConfig::default());
    let baseline = reference(1, &workloads, &dir);
    assert_eq!(baseline.summaries.len(), workloads.len());

    for threads in [1usize, 4] {
        for kill_after in [0u64, 1, 3] {
            let snap = dir.join(format!("campaign-t{threads}-k{kill_after}.snap"));
            // Phase 1: worker panics + a simulated process kill after
            // `kill_after` completed units.
            let faulty = pipeline(threads).with_exec_faults(
                ExecFaultPlan::new(0xC1A0)
                    .with_worker_panics(0.4, 1)
                    .with_kill_after_units(kill_after),
            );
            let err = match faulty.run_campaign(&sampler, &workloads, &snap) {
                Err(e) => e,
                Ok(r) => panic!(
                    "threads {threads}, kill after {kill_after}: campaign must report the \
                     simulated kill, got executed={} resumed={}",
                    r.executed_units, r.resumed_units
                ),
            };
            match err {
                StemError::Interrupted { completed_units } => {
                    assert_eq!(
                        completed_units, kill_after,
                        "threads {threads}: admitted units must complete and persist"
                    );
                }
                other => panic!("threads {threads}: wrong error class: {other}"),
            }

            // Phase 2: a new process resumes from the snapshot — same
            // panic plan (still recovering), no kill this time.
            let resumed = pipeline(threads)
                .with_exec_faults(ExecFaultPlan::new(0xC1A0).with_worker_panics(0.4, 1))
                .resume_from(&sampler, &workloads, &snap)
                .expect("resume completes");
            assert_eq!(
                resumed.summaries, baseline.summaries,
                "threads {threads}, kill after {kill_after}: resumed bits differ"
            );
            assert!(resumed.quarantined.is_none());
            assert_eq!(
                resumed.resumed_units + resumed.executed_units,
                workloads.len() as u64 * REPS as u64,
                "every unit is either resumed or recomputed, never both"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The checkpointing machinery must be sampler-agnostic: a campaign
/// planned by a new baseline (RSS) over an adversarial scenario
/// (long-tail skew) dies after one unit and resumes bit-identically at
/// threads 1 and 4. The snapshot fingerprint includes the sampler name,
/// so a snapshot written under one sampler must never feed another.
#[test]
fn new_sampler_on_adversarial_scenario_resumes_bit_identical() {
    let dir = scratch("adversarial-resume");
    let workloads = vec![
        longtail_skew(33).materialize(),
        bursty_interference(33).materialize(),
    ];
    let sampler = RssSampler::new();
    let baseline = pipeline(1)
        .run_campaign(&sampler, &workloads, &dir.join("reference.snap"))
        .expect("reference campaign");
    assert_eq!(baseline.summaries.len(), workloads.len());

    for threads in [1usize, 4] {
        let snap = dir.join(format!("adv-t{threads}.snap"));
        let err = pipeline(threads)
            .with_exec_faults(ExecFaultPlan::new(0xAD5A).with_kill_after_units(1))
            .run_campaign(&sampler, &workloads, &snap)
            .expect_err("simulated kill must surface");
        match err {
            StemError::Interrupted { completed_units } => assert_eq!(completed_units, 1),
            other => panic!("threads {threads}: wrong error class: {other}"),
        }
        let resumed = pipeline(threads)
            .resume_from(&sampler, &workloads, &snap)
            .expect("resume completes");
        assert_eq!(
            resumed.summaries, baseline.summaries,
            "threads {threads}: resumed bits differ under RSS on adversarial workloads"
        );
        assert!(resumed.quarantined.is_none());

        // The same snapshot under a different sampler is a different
        // campaign: the fingerprint must quarantine it, not resume it.
        let foreign = pipeline(threads)
            .resume_from(&TwoPhaseSampler::new(), &workloads, &snap)
            .expect("foreign-sampler resume recomputes");
        let quarantined = foreign
            .quarantined
            .expect("sampler mismatch must quarantine");
        assert_eq!(quarantined.reason, SnapshotError::FingerprintMismatch);
        assert_eq!(foreign.resumed_units, 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovered_worker_panics_are_output_invisible() {
    let dir = scratch("panic-recovery");
    let workloads = suite_workloads();
    let sampler = StemRootSampler::new(StemConfig::default());
    let baseline = reference(4, &workloads, &dir);

    // Half the units panic on their first attempt; the default budget of
    // one retry recovers each of them.
    let report = pipeline(4)
        .with_exec_faults(ExecFaultPlan::new(7).with_worker_panics(0.5, 1))
        .run_campaign(&sampler, &workloads, &dir.join("faulty.snap"))
        .expect("recovered campaign completes");
    assert_eq!(
        report.summaries, baseline.summaries,
        "recovery leaked into results"
    );
    assert!(
        report.exec_log.retries > 0 && !report.exec_log.recovered.is_empty(),
        "the fault plan must actually have fired: {:?}",
        report.exec_log
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_snapshots_are_quarantined_never_trusted() {
    let dir = scratch("corruption");
    let workloads = suite_workloads();
    let sampler = StemRootSampler::new(StemConfig::default());
    let snap = dir.join("campaign.snap");
    let baseline = pipeline(1)
        .run_campaign(&sampler, &workloads, &snap)
        .expect("baseline campaign");
    let pristine = std::fs::read_to_string(&snap).expect("snapshot written");

    // `None` plants one byte that is not UTF-8 mid-file.
    for fault in [
        Some(SnapshotFault::TruncateTail),
        Some(SnapshotFault::FlipByte),
        Some(SnapshotFault::StaleVersion),
        None,
    ] {
        let corrupted = match fault {
            Some(fault) => ExecFaultPlan::new(0xBADF)
                .with_snapshot_fault(fault)
                .corrupt_snapshot(&pristine)
                .into_bytes(),
            None => {
                let mut bytes = pristine.clone().into_bytes();
                let mid = bytes.len() / 2;
                bytes[mid] = 0xff;
                bytes
            }
        };
        assert_ne!(
            corrupted,
            pristine.as_bytes(),
            "{fault:?}: corruption was a no-op"
        );
        std::fs::write(&snap, &corrupted).expect("plant corrupted snapshot");

        let report = pipeline(4)
            .resume_from(&sampler, &workloads, &snap)
            .expect("resume survives corruption");
        let quarantined = report
            .quarantined
            .as_ref()
            .unwrap_or_else(|| panic!("{fault:?}: corruption went undetected"));
        assert!(
            quarantined.path.exists(),
            "{fault:?}: quarantined file missing at {}",
            quarantined.path.display()
        );
        assert_eq!(
            report.resumed_units, 0,
            "{fault:?}: a rejected snapshot must contribute nothing"
        );
        assert_eq!(
            report.summaries, baseline.summaries,
            "{fault:?}: fresh recompute after quarantine produced different bits"
        );
        std::fs::remove_file(&quarantined.path).expect("clear quarantine for next fault");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_campaign_snapshot_is_quarantined() {
    let dir = scratch("foreign");
    let workloads = suite_workloads();
    let sampler = StemRootSampler::new(StemConfig::default());
    let snap = dir.join("campaign.snap");
    pipeline(1)
        .run_campaign(&sampler, &workloads, &snap)
        .expect("first campaign");

    // Same snapshot path, different base seed: a different campaign. The
    // stored fingerprint must refuse to let its units leak across.
    let other = pipeline(1).with_seed(99);
    let report = other
        .resume_from(&sampler, &workloads, &snap)
        .expect("foreign resume recomputes");
    let quarantined = report
        .quarantined
        .expect("fingerprint mismatch must quarantine");
    assert_eq!(
        quarantined.reason,
        SnapshotError::FingerprintMismatch,
        "wrong rejection reason"
    );
    assert_eq!(report.resumed_units, 0);
    let fresh = other
        .run_campaign(&sampler, &workloads, &dir.join("fresh.snap"))
        .expect("fresh campaign under the other seed");
    assert_eq!(report.summaries, fresh.summaries);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_without_snapshot_is_a_fresh_run() {
    let dir = scratch("fresh-resume");
    let workloads = suite_workloads();
    let sampler = StemRootSampler::new(StemConfig::default());
    let baseline = reference(1, &workloads, &dir);
    let report = pipeline(4)
        .resume_from(&sampler, &workloads, &dir.join("never-written.snap"))
        .expect("missing snapshot starts fresh");
    assert!(report.quarantined.is_none(), "nothing to quarantine");
    assert_eq!(report.resumed_units, 0);
    assert_eq!(report.summaries, baseline.summaries);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_after_completion_recomputes_nothing() {
    let dir = scratch("noop-resume");
    let workloads = suite_workloads();
    let sampler = StemRootSampler::new(StemConfig::default());
    let snap = dir.join("campaign.snap");
    let first = pipeline(4)
        .run_campaign(&sampler, &workloads, &snap)
        .expect("campaign");
    let again = pipeline(1)
        .resume_from(&sampler, &workloads, &snap)
        .expect("no-op resume");
    assert_eq!(again.executed_units, 0, "completed campaign re-ran units");
    assert_eq!(again.resumed_units, workloads.len() as u64 * REPS as u64);
    assert_eq!(again.summaries, first.summaries);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_retry_budget_is_a_typed_task_failure() {
    let dir = scratch("exhausted");
    let workloads = suite_workloads();
    let sampler = StemRootSampler::new(StemConfig::default());
    // Every attempt of every unit panics; the default budget (one retry)
    // cannot save it.
    let err = pipeline(4)
        .with_exec_faults(ExecFaultPlan::new(3).with_worker_panics(1.0, u32::MAX))
        .run_campaign(&sampler, &workloads, &dir.join("doomed.snap"))
        .expect_err("exhausted budget must fail");
    match err {
        StemError::TaskFailure(failure) => {
            assert_eq!(failure.index, 0, "lowest failing unit must be reported");
            assert_eq!(failure.attempts, 2, "budget 1 = two attempts");
            assert!(
                failure.message.contains("injected worker panic"),
                "payload lost: {}",
                failure.message
            );
        }
        other => panic!("wrong error class: {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_matches_the_plain_pipeline_bitwise() {
    // The checkpointing machinery must be pure bookkeeping: a campaign's
    // per-workload summaries equal what `Pipeline::run` computes directly.
    let dir = scratch("campaign-vs-run");
    let workloads = suite_workloads();
    let sampler = StemRootSampler::new(StemConfig::default());
    let pipe = pipeline(4);
    let report = pipe
        .run_campaign(&sampler, &workloads, &dir.join("campaign.snap"))
        .expect("campaign");
    for (w, summary) in workloads.iter().zip(&report.summaries) {
        let direct = pipe.run(&sampler, w);
        assert_eq!(
            *summary,
            direct,
            "{}: campaign bits differ from run()",
            w.name()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
