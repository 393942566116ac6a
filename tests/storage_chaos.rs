//! Storage chaos suite: the acceptance gate for the durability contract
//! (DESIGN.md §14).
//!
//! Every durable write in the workspace — campaign snapshots, the serve
//! journal, committed bench results — goes through the [`Storage`]
//! abstraction, so all of them can be run against the chaos-family
//! [`FaultFs`]: torn writes, short writes, ENOSPC, rename failure,
//! fsync failure, and a crash at any chosen syscall boundary. The
//! invariants:
//!
//! 1. **Crash-point explorer (campaign).** Enumerate every mutating
//!    storage operation of a full campaign (the [`FaultFs`] census),
//!    then replay the campaign crashing at *each* boundary, in both
//!    crash modes, at thread counts 1 and 4. A restart on the real
//!    filesystem always recovers summaries **bit-identical** to the
//!    uninterrupted run, never trusts a torn file, and leaves no `.tmp`
//!    orphan behind.
//! 2. **Crash-point explorer (serve).** The same sweep over a daemon
//!    session: jobs admitted before the crash are never dropped — a
//!    restart re-admits and completes them with payloads identical to a
//!    clean run — and jobs rejected during the outage recompute the
//!    same bits when resubmitted.
//! 3. **Fault sweeps.** Under every probabilistic fault class the
//!    campaign either completes bit-identically or fails with a typed
//!    [`SnapshotError::Io`] naming the operation and path, and a clean
//!    retry recovers identical bits; the daemon absorbs every class
//!    without dying or corrupting a job.
//! 4. **Quarantine uniquification.** Repeated corruption of the same
//!    snapshot quarantines to distinct names (`.quarantined`,
//!    `.quarantined.1`, ...) — evidence is never overwritten.
//! 5. **Orphan sweep.** Stale `*.tmp` files are removed and reported on
//!    campaign resume and on daemon startup.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use stem::prelude::*;
use stem::serve::render_result_payload;
use stem::sim::SimCache;

/// Reps per workload; 3 workloads x 1 rep = 3 campaign units, giving
/// 12 syscall boundaries (write + fsync + rename + dir-sync per unit)
/// for the explorer to sweep.
const REPS: u32 = 1;

/// Generous settle budget: CI runs on few, slow cores.
const IDLE: Duration = Duration::from_secs(600);

/// A fresh scratch directory for one test's durable files.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stem-storage-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// One small workload per suite (the same picks as the serve suite), so
/// the sweep multiplies against cheap campaigns.
fn suite_workloads() -> Vec<Workload> {
    vec![
        rodinia_suite(33)[7].clone(),
        casio_suite(33)[7].clone(),
        huggingface_suite(33, HuggingfaceScale::custom(0.02))[5].clone(),
    ]
}

/// A campaign pipeline sharing one memo cache across the whole sweep:
/// cache hits are pure, so sharing never changes bits — it only keeps
/// a hundred replayed campaigns cheap.
fn pipeline(threads: usize, cache: &Arc<SimCache>) -> Pipeline {
    Pipeline::new(Simulator::new(GpuConfig::rtx2080()))
        .with_reps(REPS)
        .expect("positive reps")
        .with_parallelism(Parallelism::with_threads(threads))
        .with_shared_cache(Arc::clone(cache))
}

#[test]
fn campaign_crash_point_explorer_recovers_bit_identical() {
    let dir = scratch("campaign-explorer");
    let workloads = suite_workloads();
    let sampler = StemRootSampler::new(StemConfig::default());
    let cache = Arc::new(SimCache::new());
    let baseline = pipeline(1, &cache)
        .run_campaign(&sampler, &workloads, &dir.join("reference.snap"))
        .expect("reference campaign");
    let total_units = workloads.len() as u64 * u64::from(REPS);

    for threads in [1usize, 4] {
        // Census pass: a pass-through FaultFs counts every mutating
        // storage operation of a clean campaign — the syscall
        // boundaries the explorer will crash at.
        let census_fs = Arc::new(FaultFs::new(0));
        let census = pipeline(threads, &cache)
            .with_storage(Arc::clone(&census_fs) as Arc<dyn Storage>)
            .run_campaign(
                &sampler,
                &workloads,
                &dir.join(format!("census-t{threads}.snap")),
            )
            .expect("pass-through FaultFs campaign");
        assert_eq!(
            census.summaries, baseline.summaries,
            "pass-through wrapper changed bits"
        );
        let boundaries = census_fs.ops();
        assert!(
            boundaries >= total_units * 4,
            "threads {threads}: census must cover a write+fsync+rename+dir-sync \
             per persisted unit, saw {boundaries}"
        );
        for op in [
            StorageOp::Write,
            StorageOp::SyncFile,
            StorageOp::Rename,
            StorageOp::SyncDir,
        ] {
            assert!(
                census_fs.census().iter().any(|r| r.op == op),
                "threads {threads}: boundary class {op} missing from the census"
            );
        }

        for at in 0..boundaries {
            for mode in [CrashMode::Before, CrashMode::Torn] {
                let snap = dir.join(format!("t{threads}-b{at}-{mode:?}.snap"));
                let fs = Arc::new(FaultFs::new(1).with_crash_at(at, mode));
                match pipeline(threads, &cache)
                    .with_storage(Arc::clone(&fs) as Arc<dyn Storage>)
                    .run_campaign(&sampler, &workloads, &snap)
                {
                    // A crash landing on the best-effort directory sync
                    // of the final commit is absorbed: the data already
                    // landed, so the campaign may still complete.
                    Ok(r) => assert_eq!(
                        r.summaries, baseline.summaries,
                        "threads {threads}, boundary {at} ({mode:?}): survived crash changed bits"
                    ),
                    Err(StemError::Snapshot(_)) => {}
                    Err(other) => panic!(
                        "threads {threads}, boundary {at} ({mode:?}): wrong error class: {other}"
                    ),
                }
                // Restart: a new process on the real filesystem.
                let resumed = pipeline(threads, &cache)
                    .resume_from(&sampler, &workloads, &snap)
                    .expect("recovery after crash");
                assert_eq!(
                    resumed.summaries, baseline.summaries,
                    "threads {threads}, boundary {at} ({mode:?}): recovered bits differ"
                );
                assert!(
                    resumed.quarantined.is_none(),
                    "threads {threads}, boundary {at} ({mode:?}): atomic commit must never \
                     leave a torn snapshot behind"
                );
                assert_eq!(
                    resumed.resumed_units + resumed.executed_units,
                    total_units,
                    "threads {threads}, boundary {at} ({mode:?}): units lost or double-counted"
                );
                assert!(
                    !stem::storage::sibling(&snap, ".tmp").exists(),
                    "threads {threads}, boundary {at} ({mode:?}): tmp orphan survived recovery"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_fault_sweep_recovers_every_class() {
    let dir = scratch("campaign-sweep");
    let workloads = suite_workloads();
    let sampler = StemRootSampler::new(StemConfig::default());
    let cache = Arc::new(SimCache::new());
    let baseline = pipeline(1, &cache)
        .run_campaign(&sampler, &workloads, &dir.join("reference.snap"))
        .expect("reference campaign");

    for plan in StorageFaultPlan::all_classes(0x5EED) {
        let label = plan.faults()[0].label();
        let snap = dir.join(format!("{label}.snap"));
        let fs = Arc::new(FaultFs::with_plan(plan));
        match pipeline(1, &cache)
            .with_storage(Arc::clone(&fs) as Arc<dyn Storage>)
            .run_campaign(&sampler, &workloads, &snap)
        {
            Ok(r) => assert_eq!(
                r.summaries, baseline.summaries,
                "{label}: survived-faults bits"
            ),
            Err(StemError::Snapshot(SnapshotError::Io(e))) => {
                // Typed failure: the error names the operation and path.
                let rendered = e.to_string();
                assert!(
                    rendered.contains(e.op.as_str()),
                    "{label}: operation missing from `{rendered}`"
                );
                assert!(
                    rendered.contains(&e.path.display().to_string()),
                    "{label}: path missing from `{rendered}`"
                );
                // A clean retry (the disk recovered) recomputes or
                // resumes to identical bits.
                let retried = pipeline(1, &cache)
                    .resume_from(&sampler, &workloads, &snap)
                    .expect("clean retry");
                assert_eq!(
                    retried.summaries, baseline.summaries,
                    "{label}: retry bits differ"
                );
                assert!(
                    retried.quarantined.is_none(),
                    "{label}: fault corrupted the snapshot"
                );
            }
            Err(other) => panic!("{label}: wrong error class: {other}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn enospc_and_rename_failures_are_typed_with_operation_and_path() {
    let dir = scratch("typed-errors");
    let workloads = suite_workloads();
    let sampler = StemRootSampler::new(StemConfig::default());
    let cache = Arc::new(SimCache::new());
    let baseline = pipeline(1, &cache)
        .run_campaign(&sampler, &workloads, &dir.join("reference.snap"))
        .expect("reference campaign");

    // A guaranteed full disk: the first snapshot write fails with the
    // ENOSPC kind, and the rendered error names the write and the file.
    let snap = dir.join("enospc.snap");
    let fs = Arc::new(FaultFs::with_plan(StorageFaultPlan::single(
        2,
        StorageFault::Enospc { fraction: 1.0 },
    )));
    let err = pipeline(1, &cache)
        .with_storage(Arc::clone(&fs) as Arc<dyn Storage>)
        .run_campaign(&sampler, &workloads, &snap)
        .expect_err("full disk must fail the campaign");
    match err {
        StemError::Snapshot(SnapshotError::Io(e)) => {
            assert_eq!(e.op, StorageOp::Write);
            assert_eq!(e.kind, std::io::ErrorKind::StorageFull);
            let rendered = e.to_string();
            assert!(rendered.contains("write"), "op lost: {rendered}");
            assert!(
                rendered.contains("No space left"),
                "errno text lost: {rendered}"
            );
            assert!(rendered.contains("enospc.snap"), "path lost: {rendered}");
        }
        other => panic!("wrong error class: {other}"),
    }

    // A guaranteed rename failure: the commit never happens, the error
    // names the rename, and the stranded tmp is swept (and reported) on
    // the next resume.
    let snap = dir.join("rename.snap");
    let fs = Arc::new(FaultFs::with_plan(StorageFaultPlan::single(
        3,
        StorageFault::RenameFail { fraction: 1.0 },
    )));
    let err = pipeline(1, &cache)
        .with_storage(Arc::clone(&fs) as Arc<dyn Storage>)
        .run_campaign(&sampler, &workloads, &snap)
        .expect_err("failing renames must fail the campaign");
    match err {
        StemError::Snapshot(SnapshotError::Io(e)) => {
            assert_eq!(e.op, StorageOp::Rename);
            assert!(e.to_string().contains("rename"), "op lost: {e}");
        }
        other => panic!("wrong error class: {other}"),
    }
    let tmp = stem::storage::sibling(&snap, ".tmp");
    assert!(
        tmp.exists(),
        "failed rename must leave its tmp for the sweep"
    );
    let recovered = pipeline(1, &cache)
        .resume_from(&sampler, &workloads, &snap)
        .expect("recovery after rename failure");
    assert_eq!(
        recovered.swept_tmp,
        vec![tmp.clone()],
        "sweep must report the orphan"
    );
    assert!(!tmp.exists(), "sweep must remove the orphan");
    assert_eq!(recovered.summaries, baseline.summaries);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeated_corruption_quarantines_to_unique_names() {
    let dir = scratch("quarantine-unique");
    let workloads = suite_workloads();
    let sampler = StemRootSampler::new(StemConfig::default());
    let cache = Arc::new(SimCache::new());
    let snap = dir.join("campaign.snap");
    let baseline = pipeline(1, &cache)
        .run_campaign(&sampler, &workloads, &snap)
        .expect("baseline campaign");

    // Corrupt the snapshot twice in a row: each resume must quarantine
    // to a fresh name — overwriting round 1's evidence with round 2's
    // would destroy exactly the file a postmortem needs.
    let mut quarantined = Vec::new();
    for (round, suffix) in [(1u32, ".quarantined"), (2, ".quarantined.1")] {
        std::fs::write(&snap, format!("not a snapshot (round {round})\n"))
            .expect("plant corruption");
        let report = pipeline(1, &cache)
            .resume_from(&sampler, &workloads, &snap)
            .expect("resume survives corruption");
        let q = report
            .quarantined
            .unwrap_or_else(|| panic!("round {round}: undetected"));
        assert!(
            q.path.to_string_lossy().ends_with(suffix),
            "round {round}: quarantined to {} instead of *{suffix}",
            q.path.display()
        );
        assert_eq!(
            report.summaries, baseline.summaries,
            "round {round}: recompute bits"
        );
        quarantined.push(q.path);
    }
    for path in &quarantined {
        assert!(
            path.exists(),
            "quarantine evidence lost at {}",
            path.display()
        );
    }
    let contents: Vec<String> = quarantined
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("read quarantine"))
        .collect();
    assert_ne!(
        contents[0], contents[1],
        "distinct corruptions must both survive"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn orphan_tmp_files_are_swept_on_resume() {
    let dir = scratch("tmp-sweep");
    let workloads = suite_workloads();
    let sampler = StemRootSampler::new(StemConfig::default());
    let cache = Arc::new(SimCache::new());
    let snap = dir.join("campaign.snap");
    let baseline = pipeline(1, &cache)
        .run_campaign(&sampler, &workloads, &snap)
        .expect("baseline campaign");

    // A crash between tmp-write and rename strands a sibling tmp; the
    // next resume removes it without ever reading it.
    let tmp = stem::storage::sibling(&snap, ".tmp");
    std::fs::write(&tmp, "half a snapshot").expect("plant orphan");
    let report = pipeline(1, &cache)
        .resume_from(&sampler, &workloads, &snap)
        .expect("resume with orphan present");
    assert_eq!(report.swept_tmp, vec![tmp.clone()]);
    assert!(!tmp.exists(), "orphan must be removed");
    assert!(report.quarantined.is_none(), "the real snapshot was valid");
    assert_eq!(
        report.resumed_units,
        workloads.len() as u64 * u64::from(REPS)
    );
    assert_eq!(report.summaries, baseline.summaries);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// stem-serve under storage faults
// ---------------------------------------------------------------------

/// Two one-unit jobs for distinct tenants (the same suite picks as the
/// serve acceptance suite).
fn serve_specs() -> Vec<JobSpec> {
    let spec = |tenant: &str, suite, workload_index, seed| JobSpec {
        tenant: tenant.to_string(),
        suite,
        suite_seed: 33,
        workload_index,
        reps: REPS,
        seed,
        deadline_ms: None,
        sampler: "STEM".to_string(),
        store: None,
    };
    vec![
        spec("t0", SuiteId::Rodinia, 7, 11),
        spec("t1", SuiteId::Casio, 7, 12),
    ]
}

/// Ground truth: the spec run as a plain serial pipeline campaign,
/// rendered through the daemon's payload formatter.
fn serial_payload(spec: &JobSpec, dir: &Path, tag: &str) -> String {
    let sampler = standard_registry()
        .build(&spec.sampler)
        .expect("registered sampler");
    let workload = spec.workload().expect("spec workload");
    let report = Pipeline::new(Simulator::new(GpuConfig::rtx2080()))
        .with_reps(spec.reps)
        .expect("positive reps")
        .with_seed(spec.seed)
        .with_parallelism(Parallelism::with_threads(1))
        .run_campaign(
            sampler.as_ref(),
            std::slice::from_ref(&workload),
            &dir.join(format!("{tag}.snap")),
        )
        .expect("serial reference campaign");
    render_result_payload(report.summaries.first().expect("one summary"))
}

/// A one-worker daemon config with fast deterministic backoff.
fn serve_config(dir: &Path, job_retries: u32) -> ServeConfig {
    let mut config = ServeConfig::new(dir).with_workers(1, 1);
    config.job_retry_limit = job_retries;
    config.backoff_base_ms = 1;
    config.backoff_cap_ms = 2;
    config
}

#[test]
fn serve_crash_point_explorer_never_drops_admitted_jobs() {
    let specs = serve_specs();
    let ref_dir = scratch("serve-reference");
    let reference: Vec<String> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| serial_payload(s, &ref_dir, &format!("ref-{i}")))
        .collect();

    // Census pass: one clean daemon session under a pass-through
    // FaultFs — startup, two admissions, two jobs — enumerating the
    // syscall boundaries of the serve durability path.
    let census_dir = scratch("serve-census");
    let census_fs = Arc::new(FaultFs::new(0));
    let server = Server::start(
        serve_config(&census_dir, 1).with_storage(Arc::clone(&census_fs) as Arc<dyn Storage>),
    )
    .expect("daemon starts under pass-through FaultFs");
    for spec in &specs {
        server.try_submit(spec.clone()).expect("clean admission");
    }
    assert!(server.wait_idle(IDLE), "clean session must settle");
    for (spec, want) in specs.iter().zip(&reference) {
        let payload = server
            .result_payload(&spec.tenant, job_id_of(&server, spec))
            .expect("tenant access")
            .expect("payload ready");
        assert_eq!(&payload, want, "pass-through FaultFs changed serve bits");
    }
    server.shutdown();
    let boundaries = census_fs.ops();
    assert!(
        boundaries >= 8,
        "census must see journal and snapshot commits, saw {boundaries}"
    );

    for at in 0..boundaries {
        let dir = scratch(&format!("serve-crash-{at}"));
        let fs = Arc::new(FaultFs::new(0).with_crash_at(at, CrashMode::Torn));
        // Session 1: the daemon lives on a disk that dies at boundary
        // `at`. An admission either lands durably (OK) or is rejected —
        // never silently half-admitted.
        let mut admitted: Vec<(JobSpec, u64)> = Vec::new();
        let mut rejected: Vec<JobSpec> = Vec::new();
        match Server::start(serve_config(&dir, 1).with_storage(Arc::clone(&fs) as Arc<dyn Storage>))
        {
            Ok(server) => {
                for spec in &specs {
                    // The crash is permanent in this session, so a few
                    // attempts suffice to classify the admission.
                    let id = (0..3).find_map(|_| server.try_submit(spec.clone()).ok());
                    match id {
                        Some(id) => admitted.push((spec.clone(), id)),
                        None => rejected.push(spec.clone()),
                    }
                }
                // Jobs settle (Done or Failed-on-dead-disk); either way
                // the journal already holds every admitted spec.
                assert!(
                    server.wait_idle(IDLE),
                    "crashed-disk session must still settle"
                );
                server.shutdown();
            }
            // The crash fired during startup: the daemon never came up,
            // nothing was admitted.
            Err(_) => rejected.extend(specs.iter().cloned()),
        }

        // Session 2: a new process on the real filesystem. Every
        // admitted job must be re-admitted from the journal and finish
        // with reference bits; rejected jobs recompute them on
        // resubmission.
        let server = Server::start(serve_config(&dir, 1)).expect("restart after crash");
        assert!(
            server.recovery().quarantined.is_none(),
            "boundary {at}: atomic journal commits must never leave a torn journal"
        );
        for (_, id) in &admitted {
            assert!(
                server.recovery().re_admitted.contains(id),
                "boundary {at}: admitted job {id} dropped by the crash"
            );
        }
        let resubmitted: Vec<(JobSpec, u64)> = rejected
            .iter()
            .map(|s| {
                (
                    s.clone(),
                    server.try_submit(s.clone()).expect("resubmission admitted"),
                )
            })
            .collect();
        assert!(server.wait_idle(IDLE), "recovered jobs must finish");
        for (spec, id) in admitted.iter().chain(&resubmitted) {
            let status = server.status(&spec.tenant, *id).expect("tenant access");
            assert_eq!(
                status.phase,
                JobPhase::Done,
                "boundary {at}: job {id} ({}) not done: {:?}",
                spec.tenant,
                status.message
            );
            let payload = server
                .result_payload(&spec.tenant, *id)
                .expect("tenant access")
                .expect("payload ready");
            let want = &reference[specs
                .iter()
                .position(|s| s.tenant == spec.tenant)
                .expect("spec")];
            assert_eq!(
                &payload, want,
                "boundary {at}: recovered bits differ for {}",
                spec.tenant
            );
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&census_dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// The census session admits each tenant's job exactly once; recover the
/// id through the tenant-checked status path.
fn job_id_of(server: &Server, spec: &JobSpec) -> u64 {
    (0..16)
        .find(|&id| server.status(&spec.tenant, id).is_ok())
        .expect("admitted job id")
}

#[test]
fn serve_absorbs_every_storage_fault_class() {
    let specs = serve_specs();
    let ref_dir = scratch("serve-sweep-reference");
    let reference: Vec<String> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| serial_payload(s, &ref_dir, &format!("ref-{i}")))
        .collect();

    let classes = [
        StorageFault::TornWrite { fraction: 0.6 },
        StorageFault::ShortWrite { fraction: 0.6 },
        StorageFault::Enospc { fraction: 0.6 },
        StorageFault::RenameFail { fraction: 0.6 },
        StorageFault::FsyncFail { fraction: 0.6 },
    ];
    let mut total_injected = 0;
    for fault in classes {
        let label = fault.label();
        let dir = scratch(&format!("serve-sweep-{label}"));
        let fs = Arc::new(FaultFs::with_plan(StorageFaultPlan::single(0xD15C, fault)));
        // Generous retry budget: at 60% per-op failure the capped
        // backoff must still grind every job through to Done.
        let server = Server::start(
            serve_config(&dir, 100).with_storage(Arc::clone(&fs) as Arc<dyn Storage>),
        )
        .expect("daemon starts under probabilistic faults");
        let ids: Vec<u64> = specs
            .iter()
            .map(|spec| {
                (0..200)
                    .find_map(|_| server.try_submit(spec.clone()).ok())
                    .unwrap_or_else(|| panic!("{label}: admission never succeeded"))
            })
            .collect();
        assert!(server.wait_idle(IDLE), "{label}: daemon must settle");
        for ((spec, id), want) in specs.iter().zip(&ids).zip(&reference) {
            let status = server.status(&spec.tenant, *id).expect("tenant access");
            assert_eq!(
                status.phase,
                JobPhase::Done,
                "{label}: job {id} lost to storage faults: {:?}",
                status.message
            );
            let payload = server
                .result_payload(&spec.tenant, *id)
                .expect("tenant access")
                .expect("payload ready");
            assert_eq!(&payload, want, "{label}: storage faults changed serve bits");
        }
        // The daemon is still alive and admitting after the beating.
        let probe = (0..200)
            .find_map(|_| server.try_submit(specs[0].clone()).ok())
            .unwrap_or_else(|| panic!("{label}: daemon stopped admitting"));
        assert!(server.wait_idle(IDLE), "{label}: probe job must settle");
        total_injected += fs.injected();
        let _ = probe;
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        total_injected > 0,
        "the sweep never actually injected a fault"
    );
    let _ = std::fs::remove_dir_all(&ref_dir);
}

#[test]
fn serve_startup_sweeps_orphan_tmp_files() {
    let dir = scratch("serve-tmp-sweep");
    std::fs::write(dir.join("a.tmp"), "half a journal").expect("plant orphan");
    std::fs::write(dir.join("b.tmp"), "half a snapshot").expect("plant orphan");
    std::fs::write(dir.join("keep.txt"), "not a tmp").expect("plant bystander");
    let server = Server::start(serve_config(&dir, 1)).expect("daemon starts");
    let swept = &server.recovery().swept_tmp;
    assert_eq!(swept, &vec![dir.join("a.tmp"), dir.join("b.tmp")]);
    assert!(!dir.join("a.tmp").exists() && !dir.join("b.tmp").exists());
    assert!(dir.join("keep.txt").exists(), "sweep must only touch *.tmp");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
