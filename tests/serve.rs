//! Service suite: the acceptance gate for the `stem-serve` daemon.
//!
//! The scenarios mirror how a campaign service actually degrades: the
//! daemon dies mid-job and restarts on the same journal directory, two
//! tenants compete for the worker pool, the queue fills past its bounds,
//! the journal is damaged on disk between runs, and clients speak
//! garbage over the wire. The invariants:
//!
//! 1. A daemon killed after N completed units and restarted produces
//!    `RESULT` payloads **byte-identical** to an uninterrupted run, for
//!    one workload from each suite, at thread budgets 1 and 4.
//! 2. Concurrent multi-tenant service results equal a serial
//!    [`Pipeline`] campaign, bit for bit — over the wire too.
//! 3. Past the queue bounds, `SUBMIT` is rejected with the typed
//!    [`StemError::Overloaded`] (scope names the bound that refused it)
//!    while already-admitted jobs still complete.
//! 4. A corrupt journal is quarantined — never trusted — and resubmitted
//!    jobs recompute the same bits.
//! 5. The shared memo cache never exceeds its entry cap across a warm
//!    multi-campaign run, and eviction is output-invisible. The daemon's
//!    one sampler per name and its memoized ground truth serve repeated
//!    workloads with a fresh sampler's bits.
//! 6. Wire-level chaos (truncated frames, garbage lines, disconnects,
//!    slow writers) never takes the daemon down.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use stem::prelude::*;
use stem::profile::{WireExchange, WireFaultPlan};
use stem::serve::render_result_payload;

/// Generous settle budget: CI runs on few, slow cores.
const IDLE: Duration = Duration::from_secs(600);

/// A fresh scratch directory for one test's journal + snapshots.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stem-serve-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// One small workload per suite (by invocation count), so the whole
/// suite stays fast while covering all three suite materializers.
fn suite_specs() -> Vec<JobSpec> {
    let spec = |tenant: &str, suite, workload_index, seed| JobSpec {
        tenant: tenant.to_string(),
        suite,
        suite_seed: 33,
        workload_index,
        reps: 2,
        seed,
        deadline_ms: None,
        sampler: "STEM".to_string(),
        store: None,
    };
    vec![
        spec("alice", SuiteId::Rodinia, 7, 11),     // kmeans
        spec("bob", SuiteId::Casio, 7, 12),         // ssdrn34_infer
        spec("carol", SuiteId::Huggingface, 5, 13), // resnet50
    ]
}

/// Ground truth: the same job run as a plain serial [`Pipeline`]
/// campaign, with the spec's sampler built through the same registry the
/// daemon dispatches from, rendered through the payload formatter.
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

/// A line-framed protocol client: one connection, many requests.
struct Wire {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Wire {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        Wire {
            stream,
            buf: Vec::new(),
        }
    }

    /// Sends one request line and reads the complete reply: a single
    /// line, or the full multi-line payload (through `END`) after an
    /// `OK result` header.
    fn roundtrip(&mut self, line: &str) -> String {
        self.stream
            .write_all(line.as_bytes())
            .expect("send request");
        let header = self.read_line();
        if header == "OK result\n" {
            let mut payload = String::new();
            loop {
                let line = self.read_line();
                let done = line == "END\n";
                payload.push_str(&line);
                if done {
                    return format!("{header}{payload}");
                }
            }
        }
        header
    }

    fn read_line(&mut self) -> String {
        let mut chunk = [0u8; 256];
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                return String::from_utf8(line).expect("utf-8 reply");
            }
            let n = self.stream.read(&mut chunk).expect("read reply");
            assert!(n > 0, "daemon closed the connection mid-reply");
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Polls `STATUS` until the job reports `done`.
    fn wait_done(&mut self, tenant: &str, job: u64) -> String {
        let deadline = std::time::Instant::now() + IDLE;
        loop {
            let status = self.roundtrip(&format!("STATUS {tenant} {job}\n"));
            if status.starts_with("OK status done") {
                return status;
            }
            assert!(
                status.starts_with("OK status "),
                "job {job} left the normal lifecycle: {status:?}"
            );
            assert!(
                std::time::Instant::now() < deadline,
                "job {job} never finished"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

#[test]
fn killed_daemon_restart_serves_bit_identical_results() {
    let specs = suite_specs();
    let refs = scratch("kill-refs");
    let references: Vec<String> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| serial_payload(s, &refs, &format!("ref-{i}")))
        .collect();

    for threads in [1usize, 4] {
        let dir = scratch(&format!("kill-t{threads}"));
        // Phase 1: a daemon whose campaigns die after one admitted unit
        // (the chaos hook's simulated process kill).
        let faulty = Server::start(
            ServeConfig::new(&dir)
                .with_workers(2, threads)
                .with_exec_faults(ExecFaultPlan::new(0xC1A0).with_kill_after_units(1)),
        )
        .expect("faulty daemon starts");
        let ids: Vec<u64> = specs
            .iter()
            .map(|s| faulty.try_submit(s.clone()).expect("admitted"))
            .collect();
        assert!(faulty.wait_idle(IDLE), "interrupted jobs must settle");
        for (spec, &id) in specs.iter().zip(&ids) {
            let status = faulty.status(&spec.tenant, id).expect("own job");
            assert_eq!(
                status.phase,
                JobPhase::Interrupted,
                "threads {threads}, job {id}: kill must interrupt, got {:?}",
                status.phase
            );
        }
        faulty.shutdown();
        drop(faulty);

        // Phase 2: a clean daemon on the same journal directory picks the
        // jobs back up from their snapshots.
        let restarted = Server::start(ServeConfig::new(&dir).with_workers(2, threads))
            .expect("restarted daemon starts");
        assert_eq!(
            restarted.recovery().re_admitted,
            ids,
            "threads {threads}: every journaled job must be re-admitted in order"
        );
        assert!(restarted.recovery().quarantined.is_none());
        assert!(restarted.wait_idle(IDLE), "re-admitted jobs must finish");
        for ((spec, &id), reference) in specs.iter().zip(&ids).zip(&references) {
            let status = restarted.status(&spec.tenant, id).expect("own job");
            assert_eq!(status.phase, JobPhase::Done);
            assert!(
                status.resumed_units >= 1,
                "threads {threads}, job {id}: restart must resume, not recompute"
            );
            let payload = restarted
                .result_payload(&spec.tenant, id)
                .expect("own job")
                .expect("done job has a payload");
            assert_eq!(
                &payload, reference,
                "threads {threads}, job {id}: restarted payload bits differ"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&refs);
}

#[test]
fn concurrent_tenants_over_the_wire_match_serial_pipeline() {
    let dir = scratch("tenants");
    let alice = JobSpec {
        tenant: "alice".to_string(),
        suite: SuiteId::Rodinia,
        suite_seed: 33,
        workload_index: 7, // kmeans
        reps: 2,
        seed: 21,
        deadline_ms: None,
        sampler: "STEM".to_string(),
        store: None,
    };
    let mut bob = alice.clone();
    bob.tenant = "bob".to_string();
    bob.workload_index = 5; // heartwall
    bob.seed = 22;
    // A zero soft deadline flags every unit as a straggler without
    // changing any bit of the result.
    bob.deadline_ms = Some(0);
    let alice_ref = serial_payload(&alice, &dir, "alice-ref");
    let bob_ref = serial_payload(&bob, &dir, "bob-ref");

    let server = Server::start(ServeConfig::new(&dir).with_workers(2, 2)).expect("daemon starts");
    let mut wire = Wire::connect(server.addr());
    assert_eq!(wire.roundtrip("PING\n"), "OK pong\n");
    assert_eq!(
        wire.roundtrip("SUBMIT alice rodinia 33 7 2 21\n"),
        "OK job 0\n"
    );
    assert_eq!(
        wire.roundtrip("SUBMIT bob rodinia 33 5 2 22 0\n"),
        "OK job 1\n"
    );

    // Tenant isolation: wrong tenant or unknown id never leaks anything.
    assert_eq!(wire.roundtrip("RESULT bob 0\n"), "ERR denied\n");
    assert_eq!(wire.roundtrip("STATUS alice 99\n"), "ERR unknown-job\n");

    let alice_status = wire.wait_done("alice", 0);
    let bob_status = wire.wait_done("bob", 1);
    assert_eq!(
        alice_status,
        "OK status done straggler=0 resumed=0 executed=2\n"
    );
    assert_eq!(
        bob_status, "OK status done straggler=1 resumed=0 executed=2\n",
        "a zero deadline must flag stragglers"
    );

    let alice_reply = wire.roundtrip("RESULT alice 0\n");
    let bob_reply = wire.roundtrip("RESULT bob 1\n");
    assert_eq!(alice_reply, format!("OK result\n{alice_ref}"));
    assert_eq!(
        bob_reply,
        format!("OK result\n{bob_ref}"),
        "straggler flagging leaked into result bits"
    );
    drop(wire);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_rejections_are_typed_and_admitted_jobs_complete() {
    // Tenant quota and load shedding: queue of 3 shedding past 2, one
    // queued job per tenant.
    let dir = scratch("overload-shed");
    let server = Server::start(
        ServeConfig::new(&dir)
            .with_queue(3, 2)
            .with_per_tenant_cap(1)
            .with_workers(1, 1),
    )
    .expect("daemon starts");
    server.pause_workers();
    let spec = |tenant: &str, seed| JobSpec {
        tenant: tenant.to_string(),
        suite: SuiteId::Rodinia,
        suite_seed: 33,
        workload_index: 7,
        reps: 1,
        seed,
        deadline_ms: None,
        sampler: "STEM".to_string(),
        store: None,
    };
    let t1 = server
        .try_submit(spec("t1", 1))
        .expect("first job admitted");
    match server.try_submit(spec("t1", 2)) {
        Err(StemError::Overloaded { scope, depth, .. }) => {
            assert_eq!(scope, "t1", "tenant quota must name the tenant");
            assert_eq!(depth, 1);
        }
        other => panic!("tenant quota must refuse: {other:?}"),
    }
    let t2 = server
        .try_submit(spec("t2", 3))
        .expect("second tenant admitted");
    match server.try_submit(spec("t3", 4)) {
        Err(StemError::Overloaded {
            scope,
            retry_after_ms,
            ..
        }) => {
            assert_eq!(scope, "load-shed", "past high water the daemon sheds");
            assert!(retry_after_ms > 0, "shed must carry a retry hint");
        }
        other => panic!("high-water mark must shed: {other:?}"),
    }
    // The refusals must not starve admitted work.
    server.resume_workers();
    assert!(server.wait_idle(IDLE), "admitted jobs drain after shedding");
    for (tenant, id, seed) in [("t1", t1, 1), ("t2", t2, 3)] {
        assert_eq!(
            server.status(tenant, id).expect("own job").phase,
            JobPhase::Done
        );
        let payload = server
            .result_payload(tenant, id)
            .expect("own job")
            .expect("payload present");
        assert_eq!(
            payload,
            serial_payload(&spec(tenant, seed), &dir, &format!("ref-{tenant}"))
        );
    }
    server.shutdown();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);

    // Hard queue bound, observed over the wire.
    let dir = scratch("overload-queue");
    let server = Server::start(
        ServeConfig::new(&dir)
            .with_queue(2, 2)
            .with_per_tenant_cap(5)
            .with_workers(1, 1),
    )
    .expect("daemon starts");
    server.pause_workers();
    server.try_submit(spec("t1", 5)).expect("admitted");
    server.try_submit(spec("t2", 6)).expect("admitted");
    let mut wire = Wire::connect(server.addr());
    assert_eq!(
        wire.roundtrip("SUBMIT t3 rodinia 33 7 1 7\n"),
        "ERR overloaded scope=queue depth=2 retry-after-ms=200\n",
        "a full queue must render the structured overload line"
    );
    server.resume_workers();
    assert!(server.wait_idle(IDLE));
    assert_eq!(
        wire.roundtrip("STATUS t1 0\n"),
        "OK status done straggler=0 resumed=0 executed=1\n"
    );
    drop(wire);
    server.shutdown();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_journal_is_quarantined_and_jobs_recompute_the_same_bits() {
    let dir = scratch("journal-corruption");
    let spec = JobSpec {
        tenant: "alice".to_string(),
        suite: SuiteId::Rodinia,
        suite_seed: 33,
        workload_index: 7,
        reps: 2,
        seed: 31,
        deadline_ms: None,
        sampler: "STEM".to_string(),
        store: None,
    };
    let first = Server::start(ServeConfig::new(&dir).with_workers(1, 1)).expect("daemon starts");
    let id = first.try_submit(spec.clone()).expect("admitted");
    assert!(first.wait_idle(IDLE));
    let pristine_payload = first
        .result_payload(&spec.tenant, id)
        .expect("own job")
        .expect("payload present");
    first.shutdown();
    drop(first);

    // Damage the journal on disk and remove the snapshots, so the only
    // way back to a result is a full, correct recompute. The second
    // damage is one byte that is not UTF-8.
    let damages: [fn(u8) -> u8; 2] = [|b| b.wrapping_add(1), |_| 0xff];
    for damage in damages {
        let journal = dir.join("serve.journal");
        let mut bytes = std::fs::read(&journal).expect("journal written");
        let mid = bytes.len() / 2;
        bytes[mid] = damage(bytes[mid]);
        std::fs::write(&journal, &bytes).expect("plant corrupt journal");
        for entry in std::fs::read_dir(&dir).expect("scratch dir") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "snap") {
                std::fs::remove_file(&path).expect("drop snapshot");
            }
        }

        let second =
            Server::start(ServeConfig::new(&dir).with_workers(1, 1)).expect("daemon restarts");
        let quarantined = second
            .recovery()
            .quarantined
            .as_ref()
            .expect("corrupt journal must be quarantined, never trusted");
        assert!(
            quarantined.path.exists(),
            "quarantined journal missing at {}",
            quarantined.path.display()
        );
        assert!(
            second.recovery().re_admitted.is_empty(),
            "nothing from a corrupt journal may be re-admitted"
        );
        let id = second
            .try_submit(spec.clone())
            .expect("resubmission admitted");
        assert!(second.wait_idle(IDLE));
        let status = second.status(&spec.tenant, id).expect("own job");
        assert_eq!(status.phase, JobPhase::Done);
        assert_eq!(
            status.resumed_units, 0,
            "snapshots were removed; nothing to resume"
        );
        let recomputed = second
            .result_payload(&spec.tenant, id)
            .expect("own job")
            .expect("payload present");
        assert_eq!(
            recomputed, pristine_payload,
            "recompute after quarantine changed bits"
        );
        second.shutdown();
        drop(second);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memo_cache_stays_bounded_across_a_warm_multi_campaign_run() {
    let spec = |seed| JobSpec {
        tenant: "alice".to_string(),
        suite: SuiteId::Rodinia,
        suite_seed: 33,
        workload_index: 4, // gaussian: ~1000 invocation groups
        reps: 1,
        seed,
        deadline_ms: None,
        sampler: "STEM".to_string(),
        store: None,
    };
    // Runs the same job sequence on a fresh daemon whose timing-core
    // cache holds at most `cap` entries per shard (`None`: unbounded);
    // returns the RESULT payloads, the journal bytes and the evictions.
    let replay = |cap: Option<usize>, tag: &str| {
        let dir = scratch(tag);
        let mut config = ServeConfig::new(&dir).with_workers(1, 2);
        config.cache_capacity_per_shard = cap;
        let server = Server::start(config).expect("daemon starts");
        let mut payloads = Vec::new();
        for seed in [41u64, 41, 42] {
            let id = server.try_submit(spec(seed)).expect("admitted");
            assert!(server.wait_idle(IDLE), "campaign {id} must finish");
            let held = server.cache().len();
            assert!(
                cap.is_none_or(|c| held <= c * server.cache().num_shards()),
                "campaign {id}: cache holds {held} entries, cap is {cap:?} per shard"
            );
            payloads.push(
                server
                    .result_payload("alice", id)
                    .expect("own job")
                    .expect("payload present"),
            );
        }
        let evictions = server.cache().evictions();
        server.shutdown();
        drop(server);
        let journal = std::fs::read(dir.join("serve.journal")).expect("journal written");
        let _ = std::fs::remove_dir_all(&dir);
        (payloads, journal, evictions)
    };
    // A cap of one entry per shard is far below the workload's group
    // count, so the bound is only honored if eviction actually works.
    let (payloads, journal, evictions) = replay(Some(1), "cache-bound");
    assert!(evictions > 0, "the cap must have been enforced by evicting");
    assert_eq!(
        payloads[0], payloads[1],
        "identical specs through a hot, evicting cache must produce identical bits"
    );
    assert_ne!(payloads[0], payloads[2], "different seeds must differ");
    // The caches are output-invisible: with no bound, nothing is evicted
    // and every payload and journal byte is the same.
    let (unbounded, unbounded_journal, none) = replay(None, "cache-unbounded");
    assert_eq!(none, 0, "an unbounded cache never evicts");
    assert_eq!(
        unbounded, payloads,
        "RESULT payloads with and without the cap"
    );
    assert_eq!(
        unbounded_journal, journal,
        "serve.journal bytes with and without the cap"
    );
}

#[test]
fn daemon_lifetime_samplers_and_totals_match_fresh_sampler_runs() {
    // Two tenants on two workers, each repeating a Rodinia and a CASIO
    // workload: the daemon plans every job with its one STEM sampler and
    // folds each workload's ground truth once, and every payload must
    // still equal a fresh sampler's `Pipeline::run`.
    let dir = scratch("shared-planning");
    let spec = |tenant: &str, suite, workload_index, seed| JobSpec {
        tenant: tenant.to_string(),
        suite,
        suite_seed: 33,
        workload_index,
        reps: 2,
        seed,
        deadline_ms: None,
        sampler: "STEM".to_string(),
        store: None,
    };
    let specs = [
        spec("alice", SuiteId::Rodinia, 7, 71), // kmeans
        spec("bob", SuiteId::Casio, 7, 72),     // ssdrn34_infer
        spec("alice", SuiteId::Casio, 7, 73),
        spec("bob", SuiteId::Rodinia, 7, 74),
        spec("bob", SuiteId::Rodinia, 7, 71),
        spec("alice", SuiteId::Casio, 7, 72),
    ];
    let fresh = |spec: &JobSpec| {
        let sampler = standard_registry()
            .build(&spec.sampler)
            .expect("registered sampler");
        let workload = spec.workload().expect("spec workload");
        let summary = Pipeline::new(Simulator::new(GpuConfig::rtx2080()))
            .with_reps(spec.reps)
            .expect("positive reps")
            .with_seed(spec.seed)
            .with_parallelism(Parallelism::with_threads(1))
            .run(sampler.as_ref(), &workload);
        render_result_payload(&summary)
    };
    // Every job is queued before any runs, with room in the queue and in
    // each tenant's quota, so admission never races the workers.
    let server = Server::start(
        ServeConfig::new(&dir)
            .with_workers(2, 1)
            .with_queue(8, 7)
            .with_per_tenant_cap(3),
    )
    .expect("daemon starts");
    server.pause_workers();
    let ids: Vec<u64> = specs
        .iter()
        .map(|s| server.try_submit(s.clone()).expect("admitted"))
        .collect();
    server.resume_workers();
    assert!(server.wait_idle(IDLE), "every job must finish");
    for (spec, &id) in specs.iter().zip(&ids) {
        let payload = server
            .result_payload(&spec.tenant, id)
            .expect("own job")
            .expect("payload present");
        assert_eq!(
            payload,
            fresh(spec),
            "job {id}: shared planning moved a bit"
        );
    }
    // Only two workers run at once, so a later job always finds at least
    // one workload's total already folded.
    assert!(
        server.cache().total_hits() >= 1,
        "the totals memo never hit: {} folds",
        server.cache().total_misses()
    );
    assert!(
        server.cache().total_misses() <= 4,
        "each workload folds at most twice"
    );
    server.shutdown();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn per_job_samplers_dispatch_through_the_registry() {
    let dir = scratch("samplers");
    let spec = JobSpec {
        tenant: "alice".to_string(),
        suite: SuiteId::Rodinia,
        suite_seed: 33,
        workload_index: 7, // kmeans
        reps: 2,
        seed: 61,
        deadline_ms: None,
        sampler: "RSS".to_string(),
        store: None,
    };
    let rss_ref = serial_payload(&spec, &dir, "rss-ref");
    let server = Server::start(ServeConfig::new(&dir).with_workers(1, 1)).expect("daemon starts");

    // An unknown sampler is refused at admission with the registry's
    // typed error — never journaled, never failing later at dispatch.
    let mut bad = spec.clone();
    bad.sampler = "Oracle".to_string();
    match server.try_submit(bad) {
        Err(StemError::InvalidConfig(msg)) => {
            assert!(
                msg.contains("unknown sampler"),
                "error must name the problem: {msg}"
            );
            assert!(msg.contains("RSS"), "error must list the registry: {msg}");
        }
        other => panic!("unknown sampler must be refused: {other:?}"),
    }

    // An RSS job over the wire: 8-field SUBMIT with `-` in the deadline
    // slot. The payload must be bit-identical to the serial pipeline run
    // of the same spec (method label included).
    let mut wire = Wire::connect(server.addr());
    assert_eq!(
        wire.roundtrip("SUBMIT alice rodinia 33 7 2 61 - RSS\n"),
        "OK job 0\n"
    );
    wire.wait_done("alice", 0);
    assert_eq!(
        wire.roundtrip("RESULT alice 0\n"),
        format!("OK result\n{rss_ref}")
    );

    // A TwoPhase job through in-process admission matches its own serial
    // reference too — the registry covers every sampler, not just RSS.
    let mut tp = spec.clone();
    tp.sampler = "TwoPhase".to_string();
    let tp_ref = serial_payload(&tp, &dir, "tp-ref");
    let id = server.try_submit(tp.clone()).expect("TwoPhase admitted");
    assert!(server.wait_idle(IDLE), "TwoPhase job must finish");
    let payload = server
        .result_payload(&tp.tenant, id)
        .expect("own job")
        .expect("payload present");
    assert_eq!(
        payload, tp_ref,
        "TwoPhase daemon payload bits differ from serial"
    );
    assert_ne!(
        payload, rss_ref,
        "different samplers must not share payloads"
    );
    drop(wire);
    server.shutdown();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_of_range_workload_index_is_refused_at_admission() {
    let dir = scratch("index-range");
    let server = Server::start(ServeConfig::new(&dir).with_workers(1, 1)).expect("daemon starts");
    let mut wire = Wire::connect(server.addr());

    // Past the end of every suite (and at Rodinia's exact length) the
    // SUBMIT is a typed rejection naming the problem.
    for line in [
        "SUBMIT alice rodinia 33 10000 2 61\n",
        "SUBMIT alice rodinia 33 13 2 61\n",
        "SUBMIT alice casio 33 10000 2 61\n",
        "SUBMIT alice huggingface 33 10000 2 61\n",
    ] {
        let reply = wire.roundtrip(line);
        assert!(
            reply.starts_with("ERR rejected") && reply.contains("out of range"),
            "{line:?} must be refused at admission: {reply:?}"
        );
    }
    let mut far = suite_specs().remove(0);
    far.workload_index = 10_000;
    assert!(matches!(
        server.try_submit(far),
        Err(StemError::InvalidConfig(_))
    ));

    // Nothing was journaled and no job id was spent: the first honest
    // submission is job 0 and the only `job` record.
    let journal = dir.join("serve.journal");
    let job_lines = || {
        std::fs::read_to_string(&journal)
            .unwrap_or_default()
            .lines()
            .filter(|l| l.starts_with("job "))
            .count()
    };
    assert_eq!(
        job_lines(),
        0,
        "a refused SUBMIT must never reach the journal"
    );
    assert_eq!(
        wire.roundtrip("SUBMIT alice rodinia 33 7 1 51\n"),
        "OK job 0\n"
    );
    wire.wait_done("alice", 0);
    assert_eq!(job_lines(), 1);
    drop(wire);
    server.shutdown();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wire_chaos_never_takes_the_daemon_down() {
    let dir = scratch("wire-chaos");
    let server = Server::start(ServeConfig::new(&dir).with_workers(1, 1)).expect("daemon starts");
    let addr = server.addr();

    for plan in WireFaultPlan::all_classes(0x5EED) {
        let label = plan.faults()[0].label();
        for index in 0..3u64 {
            let WireExchange {
                payload,
                chunk_delay,
                disconnect_after_write,
            } = plan.exchange(index, "PING\n");
            let mut stream = TcpStream::connect(addr).expect("connect for chaos");
            stream
                .set_read_timeout(Some(Duration::from_millis(500)))
                .expect("read timeout");
            match chunk_delay {
                // A slow writer dribbles the frame one byte at a time.
                Some(delay) => {
                    for byte in &payload {
                        if stream.write_all(std::slice::from_ref(byte)).is_err() {
                            break;
                        }
                        std::thread::sleep(delay);
                    }
                }
                None => {
                    let _ = stream.write_all(&payload);
                }
            }
            if disconnect_after_write {
                drop(stream); // hang up before the daemon can answer
            } else {
                // Whatever comes back (a reply, an error line, or a
                // timeout) must leave the daemon standing.
                let mut sink = [0u8; 256];
                let _ = stream.read(&mut sink);
            }
            let mut probe = Wire::connect(addr);
            assert_eq!(
                probe.roundtrip("PING\n"),
                "OK pong\n",
                "daemon died under {label} fault, exchange {index}"
            );
        }
    }

    // After the whole chaos sweep the daemon still serves real work.
    let mut wire = Wire::connect(addr);
    assert_eq!(
        wire.roundtrip("SUBMIT alice rodinia 33 7 1 51\n"),
        "OK job 0\n"
    );
    wire.wait_done("alice", 0);
    let spec = JobSpec {
        tenant: "alice".to_string(),
        suite: SuiteId::Rodinia,
        suite_seed: 33,
        workload_index: 7,
        reps: 1,
        seed: 51,
        deadline_ms: None,
        sampler: "STEM".to_string(),
        store: None,
    };
    let reference = serial_payload(&spec, &dir, "post-chaos-ref");
    assert_eq!(
        wire.roundtrip("RESULT alice 0\n"),
        format!("OK result\n{reference}")
    );
    assert_eq!(wire.roundtrip("SHUTDOWN\n"), "OK shutting-down\n");
    server.shutdown();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_backed_jobs_serve_byte_identical_payloads() {
    let dir = scratch("store-jobs");
    // The reference: the same workload submitted the ordinary way (drawn
    // from the suite) and run through a serial pipeline.
    let spec = JobSpec {
        tenant: "alice".to_string(),
        suite: SuiteId::Rodinia,
        suite_seed: 33,
        workload_index: 7, // kmeans
        reps: 2,
        seed: 61,
        deadline_ms: None,
        sampler: "STEM".to_string(),
        store: None,
    };
    let reference = serial_payload(&spec, &dir, "store-ref");

    // Pre-materialize the same workload into a columnar store on disk.
    let sources = rodinia_sources(33);
    let source = &sources[7];
    let store_dir = dir.join("stores").join(source.name());
    let mut writer = StoreWriter::create(&RealFs, &store_dir, 1024).expect("create store");
    let summary = source.stream(&mut writer, 1024).expect("stream into store");
    writer.finish(&summary).expect("commit store");
    let fp = summary.fingerprint;

    let server = Server::start(ServeConfig::new(&dir).with_workers(1, 1)).expect("daemon starts");
    let mut wire = Wire::connect(server.addr());

    // A lying fingerprint is a typed rejection at admission — the job is
    // never journaled, never run.
    let lied = wire.roundtrip(&format!(
        "SUBMIT alice rodinia 33 7 2 61 - STEM {} {:016x}\n",
        store_dir.display(),
        fp ^ 1
    ));
    assert!(
        lied.starts_with("ERR rejected") && lied.contains("does not match expected"),
        "fingerprint mismatch must be typed: {lied:?}"
    );
    // So is a path with no store behind it.
    let gone = wire.roundtrip(&format!(
        "SUBMIT alice rodinia 33 7 2 61 - STEM {}/no-such-store {fp:016x}\n",
        dir.display()
    ));
    assert!(
        gone.starts_with("ERR rejected"),
        "missing store must be typed: {gone:?}"
    );

    // The honest submission streams the store and serves a payload
    // byte-identical to the suite-drawn reference.
    assert_eq!(
        wire.roundtrip(&format!(
            "SUBMIT alice rodinia 33 7 2 61 - STEM {} {fp:016x}\n",
            store_dir.display()
        )),
        "OK job 0\n"
    );
    wire.wait_done("alice", 0);
    let reply = wire.roundtrip("RESULT alice 0\n");
    assert_eq!(
        reply,
        format!("OK result\n{reference}"),
        "store-backed payload bits differ from the suite-drawn reference"
    );
    drop(wire);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
