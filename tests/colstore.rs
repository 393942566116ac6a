//! Tier-1 gate for the out-of-core columnar invocation store and the
//! pipelined streaming executor (DESIGN.md §15).
//!
//! Three invariants:
//!
//! 1. **Round-trip.** Materialize → store-write → stream-read is the
//!    identity: the loaded workload equals the original bit-for-bit,
//!    fingerprints included — for the benchmark suites *and* the
//!    adversarial scenarios (satellite property: the streamed
//!    one-pass fingerprint fold equals `Workload::fingerprint` for
//!    every generator in the tree).
//! 2. **Streamed ≡ reference.** The pipelined generate→simulate→fold
//!    executor and the store-backed reader produce ground-truth totals
//!    bit-identical to the in-memory fold (`workload_total`) and to the
//!    per-invocation `reference::run_full` at thread counts 1 and 4,
//!    across all three suites.
//! 3. **Checksum-before-trust.** A store damaged in any way — torn
//!    block, flipped byte in any column, truncated manifest, lying
//!    fingerprint, rows permuted under re-forged checksums — yields a
//!    typed [`ColStoreError`] and quarantines the damaged file. It never
//!    streams wrong invocations, so a streamed total can never silently
//!    be garbage cycles.

use std::path::PathBuf;

use stem::prelude::*;
use stem::sim::simulator::reference;

/// FNV-1a 64 — the store's checksum function, reimplemented here so the
/// lying-fingerprint mutation below can forge a checksum-valid manifest
/// and prove the *fingerprint* cross-check (not just the checksum)
/// rejects it.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stem-colstore-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_hf() -> HuggingfaceScale {
    HuggingfaceScale::custom(0.01)
}

/// Every deferred generator in the tree: the three suites plus the
/// adversarial scenarios.
fn all_sources(seed: u64) -> Vec<WorkloadSource> {
    let mut sources = rodinia_sources(seed);
    sources.extend(casio_sources(seed));
    sources.extend(huggingface_sources(seed, small_hf()));
    sources.extend(adversarial_sources(seed));
    sources
}

/// Writes `source` into a fresh store directory and returns the path.
fn write_store(
    storage: &dyn Storage,
    tag: &str,
    source: &WorkloadSource,
    block_len: usize,
) -> PathBuf {
    let dir = scratch(tag).join(source.name());
    let mut writer = StoreWriter::create(storage, &dir, block_len).expect("create store");
    let summary = source
        .stream(&mut writer, block_len)
        .expect("stream into store");
    writer.finish(&summary).expect("commit manifest");
    dir
}

#[test]
fn round_trip_identity_for_every_generator() {
    let storage = RealFs;
    for source in all_sources(23) {
        let reference = source.materialize();
        // Small block length so every workload spans several blocks.
        let dir = write_store(&storage, "roundtrip", &source, 4096);
        let loaded = load_store(&storage, &dir).expect("stream back");
        assert_eq!(loaded, reference, "{} round-trip", source.name());
        assert_eq!(loaded.fingerprint(), reference.fingerprint());
        let _ = std::fs::remove_dir_all(dir.parent().expect("parent"));
    }
}

/// Satellite property: the one-pass streamed fingerprint fold equals the
/// materialized [`Workload::fingerprint`] for all three suites and the
/// adversarial scenarios, through a pure in-memory sink (no store
/// involved — this pins the fold itself, not the codec).
#[test]
fn streamed_fingerprint_equals_materialized_everywhere() {
    for seed in [1_u64, 77] {
        for source in all_sources(seed) {
            let w = source.materialize();
            let mut sink = CollectSink::new();
            let summary = source.stream(&mut sink, 1000).expect("collect");
            assert_eq!(
                summary.fingerprint,
                w.fingerprint(),
                "{} seed {seed}: streamed fingerprint must match materialized",
                source.name()
            );
            assert_eq!(summary.invocations, w.num_invocations() as u64);
            assert_eq!(sink.into_workload(), w);
        }
    }
}

#[test]
fn streamed_totals_match_in_memory_reference_across_suites_and_threads() {
    let storage = RealFs;
    let sim = Simulator::new(GpuConfig::rtx2080());
    let suites: [(&str, Vec<WorkloadSource>); 3] = [
        ("rodinia", rodinia_sources(7)),
        ("casio", casio_sources(7)),
        ("huggingface", huggingface_sources(7, small_hf())),
    ];
    for (suite, sources) in suites {
        // Two workloads per suite keep the gate fast while still covering
        // multi-kernel and multi-context table shapes.
        for source in sources.iter().take(2) {
            let w = source.materialize();
            // The per-invocation reference path is the oracle every
            // streamed and in-memory fold is pinned to.
            let expected = reference::run_full(&sim, &w).total_cycles;
            let dir = write_store(&storage, "equiv", source, 2048);
            for threads in [1_usize, 4] {
                let par = Parallelism::with_threads(threads);
                let generated = source_total(&sim, par, source, 2048, DEFAULT_CHANNEL_BLOCKS)
                    .expect("generate stream");
                let stored = store_total(&sim, par, &storage, &dir, DEFAULT_CHANNEL_BLOCKS)
                    .expect("store stream");
                let replayed = workload_total(&sim, par, &w, 2048, DEFAULT_CHANNEL_BLOCKS)
                    .expect("replay stream");
                for (path, got) in [
                    ("generate", &generated),
                    ("store", &stored),
                    ("replay", &replayed),
                ] {
                    assert_eq!(
                        got.total_cycles.to_bits(),
                        expected.to_bits(),
                        "{suite}/{}: {path} path diverged at {threads} threads",
                        source.name()
                    );
                    assert_eq!(got.fingerprint, w.fingerprint());
                    assert_eq!(got.invocations, w.num_invocations() as u64);
                }
            }
            let _ = std::fs::remove_dir_all(dir.parent().expect("parent"));
        }
    }
}

/// A damaged store never yields wrong cycles: every corruption class
/// produces a typed error from both the loader and the streamed-total
/// consumer, and quarantines the damaged file.
#[test]
fn corrupt_stores_are_typed_and_quarantined_never_garbage_cycles() {
    let storage = RealFs;
    let sim = Simulator::new(GpuConfig::rtx2080());
    let sources = rodinia_sources(31);
    let source = &sources[0];

    // Corruption classes: (tag, mutation) applied to a fresh store.
    type Mutate = fn(&PathBuf);
    let classes: [(&str, Mutate); 6] = [
        ("torn-block", |dir| {
            // Truncate the first block mid-row.
            let block = dir.join("block-00000.col");
            let bytes = std::fs::read(&block).expect("read block");
            std::fs::write(&block, &bytes[..bytes.len() / 2]).expect("tear block");
        }),
        ("flipped-byte", |dir| {
            let block = dir.join("block-00000.col");
            let mut bytes = std::fs::read(&block).expect("read block");
            bytes[10] ^= 0xff;
            std::fs::write(&block, &bytes).expect("flip byte");
        }),
        ("truncated-manifest", |dir| {
            let manifest = dir.join("manifest.txt");
            let text = std::fs::read_to_string(&manifest).expect("read manifest");
            let keep = text.lines().count() / 2;
            let truncated: String = text.lines().take(keep).map(|l| format!("{l}\n")).collect();
            std::fs::write(&manifest, truncated).expect("truncate manifest");
        }),
        ("bad-header", |dir| {
            let manifest = dir.join("manifest.txt");
            let text = std::fs::read_to_string(&manifest).expect("read manifest");
            std::fs::write(&manifest, format!("NOT-A-STORE\n{text}")).expect("spoof header");
        }),
        ("non-utf8-manifest", |dir| {
            // One byte that is not UTF-8, mid-manifest.
            let manifest = dir.join("manifest.txt");
            let mut bytes = std::fs::read(&manifest).expect("read manifest");
            let mid = bytes.len() / 2;
            bytes[mid] = 0xff;
            std::fs::write(&manifest, bytes).expect("plant invalid byte");
        }),
        ("lying-fingerprint", |dir| {
            // Flip one fingerprint bit but re-forge the manifest checksum,
            // so only the end-of-stream fingerprint cross-check can catch it.
            let manifest = dir.join("manifest.txt");
            let text = std::fs::read_to_string(&manifest).expect("read manifest");
            let mut body = String::new();
            let mut flipped = false;
            for line in text.lines() {
                if line.starts_with("checksum ") {
                    continue;
                }
                if let Some(hex) = line.strip_prefix("fingerprint ") {
                    let lie = u64::from_str_radix(hex.trim(), 16).expect("hex fingerprint") ^ 1;
                    body.push_str(&format!("fingerprint {lie:016x}\n"));
                    flipped = true;
                } else {
                    body.push_str(line);
                    body.push('\n');
                }
            }
            assert!(flipped, "manifest must carry a fingerprint line");
            body.push_str(&format!("checksum {:016x}\n", fnv64(body.as_bytes())));
            std::fs::write(&manifest, body).expect("spoof fingerprint");
        }),
    ];

    for (tag, mutate) in classes {
        let dir = write_store(&storage, tag, source, 64);
        mutate(&dir);
        let loaded = load_store(&storage, &dir);
        assert!(loaded.is_err(), "{tag}: loader accepted a damaged store");
        let total = store_total(&sim, Parallelism::serial(), &storage, &dir, 2);
        match total {
            Err(StreamRunError::Produce(_)) => {}
            other => panic!("{tag}: wanted a typed producer error, got {other:?}"),
        }
        assert!(
            quarantined(&dir) > 0,
            "{tag}: damaged file must be quarantined, not silently retried"
        );
        let _ = std::fs::remove_dir_all(dir.parent().expect("parent"));
    }
}

/// Number of `.quarantined` files in `dir`.
fn quarantined(dir: &PathBuf) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().contains(".quarantined"))
                .count()
        })
        .unwrap_or(0)
}

/// Block length of the corruption stores below: small, so the damaged
/// block is the second of many full blocks.
const DAMAGE_BLOCK_LEN: usize = 64;

/// The reader folds the block checksum and the row fingerprint in one
/// pass, but still compares the checksum before decoding. One flipped
/// byte in each column region — a kernel id's high byte, a context id's
/// high byte, a work scale's sign/exponent byte, a noise draw — and in
/// the block's last byte is a checksum mismatch with the block
/// quarantined: never an `InvalidRow` from decoding the garbage, never
/// a panic.
#[test]
fn flipped_byte_in_any_column_region_is_a_checksum_mismatch() {
    let storage = RealFs;
    let sim = Simulator::new(GpuConfig::rtx2080());
    let sources = rodinia_sources(31);
    let source = &sources[0];
    let rows = DAMAGE_BLOCK_LEN;
    assert!(
        source.materialize().num_invocations() > 2 * rows,
        "need two full blocks"
    );
    let cases = [
        ("kernel", 4 * 3 + 3),
        ("context", rows * 4 + 2 * 5 + 1),
        ("work", rows * 6 + 4 * 7 + 3),
        ("noise", rows * 10 + 4 * 9),
        ("last-byte", rows * 14 - 1),
    ];
    for (region, offset) in cases {
        for reader in ["store_total", "load_store"] {
            let dir = write_store(&storage, &format!("flip-{region}-{reader}"), source, rows);
            let block = dir.join("block-00001.col");
            let mut bytes = std::fs::read(&block).expect("read block");
            assert_eq!(bytes.len(), rows * 14);
            bytes[offset] ^= 0xff;
            std::fs::write(&block, &bytes).expect("flip byte");
            let err = match reader {
                "store_total" => {
                    match store_total(&sim, Parallelism::serial(), &storage, &dir, 2) {
                        Err(StreamRunError::Produce(e)) => e,
                        other => panic!("{region}: wanted a producer error, got {other:?}"),
                    }
                }
                _ => load_store(&storage, &dir).expect_err("damaged store loaded"),
            };
            assert_eq!(
                err,
                ColStoreError::BlockChecksumMismatch { index: 1 },
                "{region} via {reader}"
            );
            assert!(
                dir.join("block-00001.col.quarantined").exists(),
                "{region} via {reader}: damaged block must be quarantined"
            );
            assert_eq!(quarantined(&dir), 1, "{region} via {reader}");
            let _ = std::fs::remove_dir_all(dir.parent().expect("parent"));
        }
    }
}

/// Rows permuted inside one block, with the block checksum and the
/// manifest checksum re-forged to match: every checksum verifies and
/// every row decodes, so only the row-order fingerprint folded in the
/// same pass can catch it — and it does, quarantining the manifest.
#[test]
fn permuted_block_under_reforged_checksums_is_a_fingerprint_mismatch() {
    let storage = RealFs;
    let sim = Simulator::new(GpuConfig::rtx2080());
    let sources = rodinia_sources(31);
    let source = &sources[0];
    let rows = DAMAGE_BLOCK_LEN;
    let dir = write_store(&storage, "permuted", source, rows);

    // Reverse the row order of block 1, column by column.
    let block = dir.join("block-00001.col");
    let bytes = std::fs::read(&block).expect("read block");
    let mut permuted = Vec::with_capacity(bytes.len());
    let mut start = 0;
    for width in [4_usize, 2, 4, 4] {
        let column = &bytes[start..start + rows * width];
        for cell in column.chunks_exact(width).rev() {
            permuted.extend_from_slice(cell);
        }
        start += rows * width;
    }
    assert_ne!(permuted, bytes, "reversal must change the block");
    std::fs::write(&block, &permuted).expect("write permuted block");

    // Re-forge block 1's checksum, then the manifest's own checksum.
    let manifest = dir.join("manifest.txt");
    let text = std::fs::read_to_string(&manifest).expect("read manifest");
    let mut body = String::new();
    let mut forged = false;
    for line in text.lines() {
        if line.starts_with("checksum ") {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() == 5 && fields[0] == "block" && fields[1] == "1" {
            body.push_str(&format!(
                "block 1 {} {} {:016x}\n",
                fields[2],
                fields[3],
                fnv64(&permuted)
            ));
            forged = true;
        } else {
            body.push_str(line);
            body.push('\n');
        }
    }
    assert!(forged, "manifest must list block 1");
    body.push_str(&format!("checksum {:016x}\n", fnv64(body.as_bytes())));
    std::fs::write(&manifest, body).expect("forge manifest");

    match store_total(&sim, Parallelism::serial(), &storage, &dir, 2) {
        Err(StreamRunError::Produce(ColStoreError::FingerprintMismatch { expected, found })) => {
            assert_eq!(expected, source.materialize().fingerprint());
            assert_ne!(found, expected);
        }
        other => panic!("wanted a fingerprint mismatch, got {other:?}"),
    }
    assert!(
        dir.join("manifest.txt.quarantined").exists(),
        "the lying manifest must be quarantined"
    );
    let _ = std::fs::remove_dir_all(dir.parent().expect("parent"));
}

/// Write-side storage chaos: committing a store through a faulty
/// filesystem either succeeds with a fully verifiable store or fails
/// with a typed error — the manifest-last commit point means a crashed
/// write never leaves a store that opens.
#[test]
fn store_commit_under_storage_faults_is_typed_or_absent() {
    let sim = Simulator::new(GpuConfig::rtx2080());
    let sources = rodinia_sources(13);
    let source = &sources[1];
    let reference = {
        let w = source.materialize();
        reference::run_full(&sim, &w).total_cycles
    };
    let mut completed = 0_usize;
    for (i, plan) in StorageFaultPlan::all_classes(99).into_iter().enumerate() {
        let fs = FaultFs::with_plan(plan);
        let dir = scratch(&format!("chaos-{i}")).join(source.name());
        let attempt = (|| -> Result<(), ColStoreError> {
            let mut writer = StoreWriter::create(&fs, &dir, 256)?;
            let summary = source.stream(&mut writer, 256).map_err(|e| match e {
                SinkError::Store(boxed) => *boxed,
                SinkError::Closed => unreachable!("store writer never hangs up"),
            })?;
            writer.finish(&summary)
        })();
        match attempt {
            Ok(()) => {
                // Commit claimed success: the store must verify and
                // reproduce the reference total exactly.
                let total = store_total(&sim, Parallelism::serial(), &RealFs, &dir, 2)
                    .expect("committed store must stream");
                assert_eq!(total.total_cycles.to_bits(), reference.to_bits());
                completed += 1;
            }
            Err(ColStoreError::Io(_)) => {
                // Typed failure: whatever landed on disk must never open
                // as a valid store unless the manifest commit finished.
                if let Ok(loaded) = load_store(&RealFs, &dir) {
                    let w = source.materialize();
                    assert_eq!(loaded, w, "partially failed commit produced a wrong store");
                }
            }
            Err(other) => panic!("fault class {i}: unexpected error {other}"),
        }
        let _ = std::fs::remove_dir_all(dir.parent().expect("parent"));
    }
    // The sweep must exercise both outcomes at least once across classes.
    assert!(completed < 5, "every fault class silently succeeded");
}
