//! Property-style tests for the workload substrate.
//!
//! Formerly `proptest`-based; rewritten as deterministic seeded-loop
//! property tests so the workspace builds hermetically.

use gpu_workload::kernel::KernelClassBuilder;
use gpu_workload::normal;
use gpu_workload::scenarios::adversarial_sources;
use gpu_workload::suites::{
    casio_sources, casio_suite, huggingface_sources, huggingface_suite, rodinia_sources,
    rodinia_suite, HuggingfaceScale,
};
use gpu_workload::trace::{reference, MEMO_TABLES};
use gpu_workload::{
    load_store, BlockSink, ContextSchedule, FingerprintFold, GroupKey, Invocation, KernelClass,
    KernelId, RuntimeContext, SinkError, StoreWriter, SuiteKind, Workload, WorkloadBuilder,
};
use stem_stats::rng::{RngExt, SeedableRng, StdRng};
use stem_storage::RealFs;

fn rng_for(test_tag: u64, case: u64) -> StdRng {
    StdRng::seed_from_u64(0x3093_10AD ^ (test_tag << 32) ^ case)
}

/// Any suite seed yields structurally valid workloads (Workload::new
/// validates on construction; this exercises generator edge seeds).
#[test]
fn suites_valid_for_any_seed() {
    for case in 0..10 {
        let mut rng = rng_for(1, case);
        let seed = rng.random_range(0u64..10_000);
        let rodinia = rodinia_suite(seed);
        assert_eq!(rodinia.len(), 13, "case {case}");
        for w in &rodinia {
            assert!(w.num_invocations() > 0, "case {case}");
            assert_eq!(w.suite(), SuiteKind::Rodinia, "case {case}");
        }
        // One CASIO workload per run keeps the test quick.
        let casio = casio_suite(seed);
        assert_eq!(casio.len(), 11, "case {case}");
    }
}

/// Builder schedules always produce the requested invocation counts
/// with in-range context indices.
#[test]
fn schedules_produce_exact_counts() {
    for case in 0..48 {
        let mut rng = rng_for(2, case);
        let seed = rng.random_range(0u64..1000);
        let contexts = rng.random_range(1usize..6);
        let count = rng.random_range(1usize..400);
        let variant = case % 3;
        let mut b = WorkloadBuilder::new("p", SuiteKind::Custom, seed);
        let ctxs: Vec<RuntimeContext> = (0..contexts)
            .map(|i| RuntimeContext::neutral().with_work(1.0 + i as f64 * 0.5))
            .collect();
        let id = b.add_kernel(KernelClassBuilder::new("k").build(), ctxs);
        let schedule = match variant {
            0 => ContextSchedule::Cyclic,
            1 => ContextSchedule::Weighted(vec![1.0; contexts]),
            _ => ContextSchedule::Phased((0..contexts).map(|c| (c, 2)).collect()),
        };
        b.schedule(id, &schedule, count);
        let w = b.build();
        assert_eq!(w.num_invocations(), count, "case {case}");
        for inv in w.invocations() {
            assert!((inv.context as usize) < contexts, "case {case}");
            assert!(inv.work_scale > 0.0, "case {case}");
            assert!(inv.noise_z.is_finite(), "case {case}");
        }
    }
}

/// invocations_by_kernel partitions the stream and preserves order.
#[test]
fn grouping_partitions_stream() {
    for case in 0..48 {
        let mut rng = rng_for(3, case);
        let seed = rng.random_range(0u64..1000);
        let n = rng.random_range(1usize..200);
        let mut b = WorkloadBuilder::new("p", SuiteKind::Custom, seed);
        let a = b.add_kernel(
            KernelClassBuilder::new("a").build(),
            vec![RuntimeContext::neutral()],
        );
        let c = b.add_kernel(
            KernelClassBuilder::new("c").build(),
            vec![RuntimeContext::neutral()],
        );
        for i in 0..n {
            b.invoke(if i % 3 == 0 { a } else { c }, 0, 1.0);
        }
        let w = b.build();
        let groups = w.invocations_by_kernel();
        let total: usize = groups.values().map(Vec::len).sum();
        assert_eq!(total, n, "case {case}");
        for members in groups.values() {
            for pair in members.windows(2) {
                assert!(pair[1] > pair[0], "case {case}: stream order preserved");
            }
        }
    }
}

/// HuggingFace scale controls the invocation count monotonically.
#[test]
fn hf_scale_monotone() {
    for case in 0..6 {
        let mut rng = rng_for(4, case);
        let seed = rng.random_range(0u64..100);
        let small: usize = huggingface_suite(seed, HuggingfaceScale::custom(0.003))
            .iter()
            .map(|w| w.num_invocations())
            .sum();
        let large: usize = huggingface_suite(seed, HuggingfaceScale::custom(0.012))
            .iter()
            .map(|w| w.num_invocations())
            .sum();
        assert!(large >= small, "case {case}");
    }
}

/// Tables of `kernels` kernels; kernel `k` has `1 + (k * 5 + extra) % max_contexts`
/// contexts, so context counts are uneven.
fn oracle_tables(
    kernels: usize,
    max_contexts: usize,
    extra: usize,
) -> (Vec<KernelClass>, Vec<Vec<RuntimeContext>>) {
    let classes = (0..kernels)
        .map(|k| KernelClassBuilder::new(format!("k{k}")).build())
        .collect();
    let contexts = (0..kernels)
        .map(|k| {
            let n = 1 + (k * 5 + extra) % max_contexts;
            (0..n)
                .map(|c| RuntimeContext::neutral().with_work(1.0 + c as f64))
                .collect()
        })
        .collect();
    (classes, contexts)
}

/// A row of any kernel, context and work scale, bypassing
/// `Invocation::with_work`'s positivity assert.
fn raw_row(kernel: u32, context: u16, work_scale: f32, noise_z: f32) -> Invocation {
    Invocation {
        kernel: KernelId(kernel),
        context,
        work_scale,
        noise_z,
    }
}

/// One adversarial stream over `contexts`; `shape` picks the pattern.
fn oracle_stream(
    rng: &mut StdRng,
    shape: u64,
    contexts: &[Vec<RuntimeContext>],
) -> Vec<Invocation> {
    let kernels = contexts.len() as u32;
    let any_slot = |rng: &mut StdRng| {
        let k = rng.random_range(0..kernels);
        let c = rng.random_range(0..contexts[k as usize].len()) as u16;
        (k, c)
    };
    let noise = |rng: &mut StdRng| rng.random_range(-4.0f64..4.0) as f32;
    let len = rng.random_range(1usize..3000);
    match shape {
        // Interleaved kernels over a few work scales.
        0 => (0..len)
            .map(|_| {
                let (k, c) = any_slot(rng);
                let work = [1.0, 0.5, 2.0][rng.random_range(0usize..3)];
                raw_row(k, c, work, noise(rng))
            })
            .collect(),
        // One (kernel, context) changes its work bits on every row,
        // interleaved with rows of other slots.
        1 => (0..len)
            .map(|i| {
                if i % 3 == 0 {
                    let (k, c) = any_slot(rng);
                    raw_row(k, c, 1.0, noise(rng))
                } else {
                    raw_row(0, 0, 1.0 + i as f32 / 64.0, noise(rng))
                }
            })
            .collect(),
        // Rounds over more distinct prefixes than the memo holds, so
        // every prefix's table is retagged before its work bits return.
        2 => {
            let prefixes: Vec<(u32, u16, f32)> = (0..3 * MEMO_TABLES)
                .map(|p| {
                    let (k, c) = any_slot(rng);
                    (k, c, 1.0 + (p % 7) as f32 / 4.0)
                })
                .collect();
            (0..len)
                .map(|i| {
                    let (k, c, w) = prefixes[(i * 7) % prefixes.len()];
                    raw_row(k, c, w, noise(rng))
                })
                .collect()
        }
        // Zero, NaN, negative and infinite work scales among good ones.
        3 => (0..len)
            .map(|_| {
                let (k, c) = any_slot(rng);
                let work = [0.0, -0.0, f32::NAN, -1.5, f32::INFINITY, 1.0, 3.0]
                    [rng.random_range(0usize..7)];
                raw_row(k, c, work, noise(rng))
            })
            .collect(),
        // Long runs of one prefix: its table meets many low bytes.
        _ => (0..len)
            .map(|i| {
                let k = ((i / 500) as u32) % kernels;
                raw_row(k, 0, 1.0, noise(rng))
            })
            .collect(),
    }
}

/// The one-pass constructor against `trace::reference`'s three passes:
/// group ids, representatives and fingerprint, or the first error's kind
/// and message. Streams are interleaved, thrash the prefix memo, carry
/// degenerate work scales and (in some cases) one out-of-range row; over
/// the whole run every low byte `0..=255` of the fold state is met at
/// row entry.
#[test]
fn one_pass_construction_matches_reference() {
    let mut low_bytes = [false; 256];
    for case in 0..96u64 {
        let mut rng = rng_for(5, case);
        // Cases 0..32 keep fewer slots than the memo holds; the rest
        // hold more live slots than it has tables.
        let (kernels, max_contexts) = if case < 32 { (3, 4) } else { (40, 6) };
        let (classes, contexts) = oracle_tables(kernels, max_contexts, case as usize);
        let mut invocations = match case {
            0 => Vec::new(),
            1 => vec![raw_row(1, 0, 1.0, 0.5)],
            _ => oracle_stream(&mut rng, case % 5, &contexts),
        };
        // A third of the longer cases carry one bad row: a kernel past
        // the table, a context past its kernel's table, or a context
        // only another kernel has.
        if case >= 2 && case % 3 == 0 {
            let at = rng.random_range(0..invocations.len());
            let wide = (0..kernels).max_by_key(|&k| contexts[k].len()).unwrap_or(0);
            let narrow = (0..kernels).min_by_key(|&k| contexts[k].len()).unwrap_or(0);
            invocations[at] = match case % 4 {
                0 => raw_row(kernels as u32 + 3, 0, 1.0, 0.0),
                1 => raw_row(0, contexts[0].len() as u16, 1.0, 0.0),
                _ => raw_row(narrow as u32, contexts[wide].len() as u16 - 1, 1.0, 0.0),
            };
        }
        let name = format!("oracle{case}");
        let mut fold = FingerprintFold::new();
        fold.eat_header(&name, SuiteKind::Custom, &classes, &contexts);
        for inv in &invocations {
            low_bytes[(fold.finish() & 0xff) as usize] = true;
            fold.eat_invocation(inv);
        }
        let expected =
            reference::derive(&name, SuiteKind::Custom, &classes, &contexts, &invocations);
        let got = Workload::try_new(name, SuiteKind::Custom, classes, contexts, invocations);
        match (got, expected) {
            (Ok(w), Ok((group_of, representatives, fingerprint))) => {
                assert_eq!(w.fingerprint(), fingerprint, "case {case}");
                assert_eq!(fold.finish(), fingerprint, "case {case}");
                assert_eq!(
                    w.num_invocation_groups(),
                    representatives.len(),
                    "case {case}"
                );
                for (i, &g) in group_of.iter().enumerate() {
                    assert_eq!(w.group_of(i), g, "case {case} row {i}");
                }
                for (g, &rep) in representatives.iter().enumerate() {
                    assert_eq!(
                        w.group_representative(g as u32),
                        rep,
                        "case {case} group {g}"
                    );
                }
            }
            (Err(got), Err(expected)) => {
                assert_eq!(got.kind, expected.kind, "case {case}");
                assert_eq!(got.message, expected.message, "case {case}");
            }
            (got, expected) => panic!(
                "case {case}: one-pass {:?} vs reference {:?}",
                got.map(|w| w.fingerprint()),
                expected.map(|(_, _, fingerprint)| fingerprint)
            ),
        }
    }
    let missed: Vec<usize> = (0..256).filter(|&l| !low_bytes[l]).collect();
    assert!(
        missed.is_empty(),
        "low bytes never met at row entry: {missed:?}"
    );
}

/// The fast normal draw against the libm reference on seeded pairs drawn
/// as the builder draws them: identical `f32` bits on every pair, some
/// pairs whose approximation the rounding test rejects (the test is
/// live), and the `f64` approximation within `2^-45` of the libm product,
/// 32x inside the rounding test's `2^-40` guard.
#[test]
fn fast_normal_matches_reference_on_seeded_draws() {
    let mut rng = rng_for(6, 0);
    let (mut rejected, mut worst) = (0u64, 0.0f64);
    let draws = 4_200_000;
    for i in 0..draws {
        let u1: f64 = rng.random();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.random();
        let want = normal::reference::box_muller(u1, u2);
        let got = normal::box_muller(u1, u2);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "draw {i}: u1 {u1:e} u2 {u2:e}"
        );
        if let Some(f) = normal::approx(u1, u2) {
            let libm = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            worst = worst.max(((f - libm) / libm).abs());
            if normal::try_fast(u1, u2).is_none() {
                rejected += 1;
            }
        }
    }
    assert!(rejected > 0, "the rounding test passed all {draws} draws");
    assert!(
        worst <= 2f64.powi(-45),
        "worst relative error 2^{:.2} (limit 2^-45)",
        worst.log2()
    );
    // The builder's draw loop itself (u1 redraw included) on one seed.
    let (mut fast, mut slow) = (vec![0.0f32; 100_000], vec![0.0f32; 100_000]);
    normal::fill(&mut fast, 7);
    normal::reference::fill(&mut slow, 7);
    assert!(fast
        .iter()
        .zip(&slow)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
}

/// The doubles within `n` ulps of positive `x`, `x` included.
fn ulps_around(x: f64, n: i64) -> impl Iterator<Item = f64> {
    (-n..=n).map(move |k| f64::from_bits((x.to_bits() as i64 + k) as u64))
}

/// The fast normal draw against the libm reference where an
/// approximation is most likely to slip: `u1` next to 1, next to the
/// smallest draws (`2^-53`, and the `f64::MIN_POSITIVE` clamp of the
/// trace generators) and around the edges and centres of the log
/// table's cells; `u2` at and around every cos table cell `k/64` and its
/// edges, and approaching the zeros of cos at 1/4 and 3/4 from 2^-6 down
/// to a few ulps.
#[test]
fn fast_normal_matches_reference_on_adversarial_grid() {
    let mut u1s: Vec<f64> = Vec::new();
    u1s.extend(ulps_around(1.0, 64));
    u1s.extend((1..64).map(|k| k as f64 / (1u64 << 53) as f64));
    u1s.extend(ulps_around(f64::MIN_POSITIVE, 4));
    u1s.extend(ulps_around(0.5, 4));
    for exponent in [-1, -2, -9, -40, -1021] {
        let scale = 2f64.powi(exponent);
        for cell in 0..128 {
            // The cell's centre and its upper edge, where rounding picks
            // the next cell.
            for offset in [0.0, 0.5] {
                let m = 1.0 + (cell as f64 + offset) / 128.0;
                u1s.extend(ulps_around(m * scale, 2));
            }
        }
    }
    let mut u2s: Vec<f64> = Vec::new();
    for k in 0..128 {
        let at = k as f64 / 128.0;
        u2s.extend(ulps_around(at, 3));
    }
    for zero in [0.25, 0.75] {
        for p in 6..52 {
            let d = 2f64.powi(-p);
            u2s.extend([zero - d, zero + d, zero - 1.5 * d, zero + 1.5 * d]);
        }
    }
    // The draws' domain: u1 in (0, 1) (the builder redraws u1 at or
    // below f64::MIN_POSITIVE), u2 in [0, 1).
    u1s.retain(|&u1| u1 > 0.0 && u1 < 1.0);
    u2s.retain(|&u2| (0.0..1.0).contains(&u2));
    let (mut cases, mut mismatches) = (0u64, Vec::new());
    for &u1 in &u1s {
        for &u2 in &u2s {
            cases += 1;
            let (got, want) = (
                normal::box_muller(u1, u2),
                normal::reference::box_muller(u1, u2),
            );
            if got.to_bits() != want.to_bits() && mismatches.len() < 8 {
                mismatches.push((u1, u2, got, want));
            }
        }
    }
    assert!(cases > 1_000_000, "grid has only {cases} cases");
    assert!(mismatches.is_empty(), "fast != reference: {mismatches:?}");
}

/// A block stream as its producer emitted it: the tables and every raw
/// invocation, before any workload rows are built from them.
#[derive(Default)]
struct RawSink {
    skeleton: Option<Workload>,
    invocations: Vec<Invocation>,
}

impl BlockSink for RawSink {
    fn tables(&mut self, skeleton: &Workload) -> Result<(), SinkError> {
        self.skeleton = Some(skeleton.clone());
        Ok(())
    }

    fn block(&mut self, invocations: &[Invocation]) -> Result<(), SinkError> {
        self.invocations.extend_from_slice(invocations);
        Ok(())
    }
}

/// Every field of an invocation by bit pattern.
fn bits(inv: &Invocation) -> (u32, u16, u32, u32) {
    (
        inv.kernel.0,
        inv.context,
        inv.work_scale.to_bits(),
        inv.noise_z.to_bits(),
    )
}

fn context_tables(w: &Workload) -> Vec<Vec<RuntimeContext>> {
    (0..w.kernels().len())
        .map(|k| w.contexts_of(KernelId(k as u32)).to_vec())
        .collect()
}

/// `w`'s rows give back `input` bit for bit (by index and in order), and its group ids, representatives and fingerprint are
/// the three-pass reference's over `input`.
fn assert_rows_rebuild(w: &Workload, input: &[Invocation]) {
    let name = w.name();
    assert_eq!(w.num_invocations(), input.len(), "{name}");
    for (i, inv) in input.iter().enumerate() {
        assert_eq!(bits(&w.invocation(i)), bits(inv), "{name} row {i}");
        let row = w.rows()[i];
        let key = w.group_keys()[row.group as usize];
        assert_eq!(row.noise_bits, inv.noise_z.to_bits(), "{name} row {i}");
        assert_eq!(
            key,
            GroupKey {
                kernel: inv.kernel,
                context: inv.context,
                work_bits: inv.work_scale.to_bits(),
            },
            "{name} row {i}"
        );
    }
    assert!(w
        .invocations()
        .map(|inv| bits(&inv))
        .eq(input.iter().map(bits)));
    let (group_of, representatives, fingerprint) =
        reference::derive(name, w.suite(), w.kernels(), &context_tables(w), input)
            .expect("a valid workload");
    assert_eq!(w.fingerprint(), fingerprint, "{name}");
    assert_eq!(w.num_invocation_groups(), representatives.len(), "{name}");
    assert_eq!(w.group_keys().len(), representatives.len(), "{name}");
    for (i, &g) in group_of.iter().enumerate() {
        assert_eq!(w.group_of(i), g, "{name} row {i}");
    }
    for (g, &rep) in representatives.iter().enumerate() {
        assert_eq!(w.group_representative(g as u32), rep, "{name} group {g}");
    }
}

/// Writes `w` as a columnar store and loads it back: the same workload.
fn assert_store_round_trip(w: &Workload) {
    let dir = std::env::temp_dir().join(format!(
        "gpu-workload-rows-{}-{}",
        std::process::id(),
        w.name()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = StoreWriter::create(&RealFs, &dir, 4096).expect("create");
    let summary = w.stream_blocks(&mut writer, 4096).expect("blocks");
    writer.finish(&summary).expect("finish");
    let back = load_store(&RealFs, &dir).expect("load");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(back, *w, "{}", w.name());
}

/// Every suite and scenario workload: the materialized rows rebuild the
/// stream the generator emitted, bit for bit, with the reference's group
/// ids, representatives and fingerprint, and survive a store round trip.
#[test]
fn rows_rebuild_every_generated_stream() {
    let sources = rodinia_sources(29)
        .into_iter()
        .chain(casio_sources(29))
        .chain(huggingface_sources(29, HuggingfaceScale::custom(0.01)))
        .chain(adversarial_sources(29));
    for source in sources {
        let mut raw = RawSink::default();
        source.stream(&mut raw, 8192).expect("stream");
        let w = source.materialize();
        assert_eq!(raw.skeleton.as_ref(), Some(&w.skeleton()), "{}", w.name());
        assert_rows_rebuild(&w, &raw.invocations);
        assert_store_round_trip(&w);
    }
}

/// Hand-built rows whose noise draws (and, apart from the stored cases,
/// work scales) are NaNs with payloads, signed zeros, subnormals and
/// infinities: every bit pattern comes back, and a store round trip of
/// the storable ones compares equal.
#[test]
fn rows_keep_every_bit_pattern() {
    let noise = [
        f32::from_bits(0x7fc0_0001),
        f32::from_bits(0xffc1_2345),
        f32::from_bits(0x7f80_0001),
        -0.0,
        0.0,
        f32::from_bits(1),
        -f32::from_bits(0x0000_8000),
        f32::MIN_POSITIVE,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.25,
    ];
    let storable_work = [1.0, 2.0, f32::from_bits(3), f32::MAX, 1.0 + f32::EPSILON];
    let odd_work = [f32::from_bits(0x7fc0_0007), -0.0, 0.0, -1.0, f32::INFINITY];
    let (classes, contexts) = oracle_tables(3, 3, 1);
    for (tag, works) in [("storable", &storable_work[..]), ("odd", &odd_work[..])] {
        let mut rng = rng_for(9, tag.len() as u64);
        let invocations: Vec<Invocation> = (0..2000)
            .map(|i| {
                let k = rng.random_range(0..classes.len());
                let c = rng.random_range(0..contexts[k].len()) as u16;
                let work = works[rng.random_range(0..works.len())];
                raw_row(k as u32, c, work, noise[i % noise.len()])
            })
            .collect();
        let w = Workload::try_new(
            format!("bits_{tag}"),
            SuiteKind::Custom,
            classes.clone(),
            contexts.clone(),
            invocations.clone(),
        )
        .expect("in range");
        assert_rows_rebuild(&w, &invocations);
        if tag == "storable" {
            assert_store_round_trip(&w);
        }
    }
}

/// Resident-size guard: a materialized workload holds 8 bytes per call
/// plus its timing-group table (a key and a representative per group)
/// and its kernel and context tables, nothing more.
#[test]
fn a_call_costs_eight_bytes() {
    assert_eq!(std::mem::size_of::<gpu_workload::Row>(), 8);
    for w in huggingface_suite(7, HuggingfaceScale::custom(0.01)) {
        let calls = w.num_invocations();
        let per_group = std::mem::size_of::<GroupKey>() + std::mem::size_of::<usize>();
        let bound = 8 * calls + per_group * w.num_invocation_groups() + w.skeleton().heap_bytes();
        assert!(
            w.heap_bytes() <= bound,
            "{}: {} heap bytes for {calls} calls and {} groups, bound {bound}",
            w.name(),
            w.heap_bytes(),
            w.num_invocation_groups()
        );
    }
}
