//! Seeded property tests for the deterministic parallel runtime.
//!
//! Style follows `crates/stats/tests/properties.rs`: 64 deterministic
//! seeded cases per property, each drawing a random (seed, workload-shape,
//! thread-count) triple, so any failure replays exactly from the printed
//! case number. The property under test is always *bit-equality with the
//! serial code path* — parallelism must be invisible in results.

use stem_par::{
    par_fill, par_map_indexed, par_map_owned, par_map_range, par_reduce_ordered, split_seed,
    supervised_map_indexed, Parallelism, Supervisor, TaskCtx,
};
use stem_stats::rng::{RngCore, RngExt, SeedableRng, StdRng};

const CASES: u64 = 64;

fn rng_for(test_tag: u64, case: u64) -> StdRng {
    StdRng::seed_from_u64(0x57A7_5000 ^ (test_tag << 32) ^ case)
}

/// A random (seed, items, thread-count) triple. Lengths are biased toward
/// the awkward zone: empty, single-element, and shorter than the thread
/// count all occur regularly across the 64 cases.
fn triple(rng: &mut StdRng) -> (u64, Vec<f64>, usize) {
    let seed = rng.next_u64();
    let len = match rng.random_range(0u32..10) {
        0 => 0,
        1 => 1,
        2..=4 => rng.random_range(2usize..8),
        _ => rng.random_range(8usize..600),
    };
    let items: Vec<f64> = (0..len).map(|_| rng.random_range(-1e6..1e6)).collect();
    let threads = rng.random_range(1usize..17);
    (seed, items, threads)
}

/// A deliberately seed-dependent map: mixes the task-split seed into the
/// value so any worker-identity leak (wrong index, wrong stream) shows up
/// as a wrong number, not just a reordering.
fn seeded_map(seed: u64, i: usize, x: f64) -> f64 {
    let mut rng = StdRng::seed_from_u64(split_seed(seed, i as u64));
    x * rng.random_range(0.5..2.0) + rng.random::<f64>()
}

#[test]
fn par_map_indexed_equals_serial_map() {
    for case in 0..CASES {
        let mut rng = rng_for(1, case);
        let (seed, items, threads) = triple(&mut rng);
        let serial: Vec<f64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| seeded_map(seed, i, x))
            .collect();
        let par = Parallelism::with_threads(threads);
        let got = par_map_indexed(par, &items, |i, &x| seeded_map(seed, i, x));
        assert_eq!(
            got,
            serial,
            "case {case}: len {} threads {threads}",
            items.len()
        );
    }
}

#[test]
fn par_reduce_ordered_equals_serial_fold() {
    for case in 0..CASES {
        let mut rng = rng_for(2, case);
        let (seed, items, threads) = triple(&mut rng);
        let serial = items
            .iter()
            .enumerate()
            .map(|(i, &x)| seeded_map(seed, i, x))
            .fold(0.0f64, |acc, v| acc + v);
        let par = Parallelism::with_threads(threads);
        let got = par_reduce_ordered(
            par,
            &items,
            |i, &x| seeded_map(seed, i, x),
            0.0f64,
            |acc, v| acc + v,
        );
        assert_eq!(
            got.to_bits(),
            serial.to_bits(),
            "case {case}: len {} threads {threads} ({got} vs {serial})",
            items.len()
        );
    }
}

#[test]
fn par_map_range_equals_serial_range() {
    for case in 0..CASES {
        let mut rng = rng_for(3, case);
        let (seed, items, threads) = triple(&mut rng);
        let len = items.len();
        let serial: Vec<u64> = (0..len).map(|i| split_seed(seed, i as u64)).collect();
        let got = par_map_range(Parallelism::with_threads(threads), len, |i| {
            split_seed(seed, i as u64)
        });
        assert_eq!(got, serial, "case {case}: len {len} threads {threads}");
    }
}

#[test]
fn par_fill_equals_serial_range_map() {
    for case in 0..CASES {
        let mut rng = rng_for(10, case);
        let (seed, items, threads) = triple(&mut rng);
        let serial: Vec<f64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| seeded_map(seed, i, x))
            .collect();
        let mut got = vec![f64::NAN; items.len()];
        par_fill(Parallelism::with_threads(threads), &mut got, |i| {
            seeded_map(seed, i, items[i])
        });
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&serial), "case {case}: threads {threads}");
    }
}

#[test]
fn par_map_owned_equals_serial_map_and_moves_every_item() {
    for case in 0..CASES {
        let mut rng = rng_for(9, case);
        let (seed, items, threads) = triple(&mut rng);
        // Owned buffers of varying length: each task must get its own
        // item, by value, exactly once.
        let owned: Vec<Vec<f64>> = items
            .iter()
            .map(|&x| vec![x; 1 + (x as usize % 5)])
            .collect();
        let serial: Vec<f64> = owned
            .iter()
            .enumerate()
            .map(|(i, v)| seeded_map(seed, i, v.iter().sum()))
            .collect();
        let got = par_map_owned(Parallelism::with_threads(threads), owned, |i, v| {
            seeded_map(seed, i, v.into_iter().sum())
        });
        assert_eq!(got.len(), serial.len(), "case {case}");
        for (g, s) in got.iter().zip(&serial) {
            assert_eq!(g.to_bits(), s.to_bits(), "case {case}: threads {threads}");
        }
    }
}

#[test]
fn thread_count_never_changes_results() {
    // The invariant stated directly: for one input, every thread count in
    // {1, 2, 3, 8} produces the same bits.
    for case in 0..CASES {
        let mut rng = rng_for(4, case);
        let (seed, items, _) = triple(&mut rng);
        let reference = par_reduce_ordered(
            Parallelism::serial(),
            &items,
            |i, &x| seeded_map(seed, i, x),
            0.0f64,
            |acc, v| acc + v,
        );
        for threads in [2usize, 3, 8] {
            let got = par_reduce_ordered(
                Parallelism::with_threads(threads),
                &items,
                |i, &x| seeded_map(seed, i, x),
                0.0f64,
                |acc, v| acc + v,
            );
            assert_eq!(
                got.to_bits(),
                reference.to_bits(),
                "case {case} threads {threads}"
            );
        }
    }
}

#[test]
fn explicit_edge_shapes() {
    let par8 = Parallelism::with_threads(8);
    // Empty input.
    let empty: Vec<f64> = Vec::new();
    assert_eq!(par_map_indexed(par8, &empty, |_, &x| x), Vec::<f64>::new());
    assert_eq!(
        par_reduce_ordered(par8, &empty, |_, &x| x, 42.0f64, |a, v| a + v),
        42.0
    );
    // Single element.
    assert_eq!(
        par_map_indexed(par8, &[5.0f64], |i, &x| x + i as f64),
        vec![5.0]
    );
    // len < threads.
    let short = [1.0f64, 2.0, 3.0];
    let got = par_map_indexed(par8, &short, |i, &x| x * (i + 1) as f64);
    assert_eq!(got, vec![1.0, 4.0, 9.0]);
}

#[test]
fn split_seed_streams_are_distinct_and_stable() {
    // 64 random bases: the first 1000 task streams never collide within a
    // base (a collision would correlate "independent" task RNGs).
    for case in 0..CASES {
        let mut rng = rng_for(5, case);
        let base = rng.next_u64();
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u64 {
            assert!(
                seen.insert(split_seed(base, i)),
                "collision at base {base} index {i}"
            );
        }
    }
}

/// Deterministic per-attempt fault: task `i` panics while
/// `attempt < faulty_attempts` whenever its seeded coin lands heads.
fn injected_panic(seed: u64, ctx: TaskCtx, fraction: f64, faulty_attempts: u32) {
    if ctx.attempt < faulty_attempts {
        let mut rng = StdRng::seed_from_u64(split_seed(seed ^ 0xFA_17, ctx.index as u64));
        assert!(
            !rng.random_bool(fraction),
            "injected panic at task {}",
            ctx.index
        );
    }
}

#[test]
fn supervised_quiet_path_is_bit_identical_to_unsupervised() {
    // 64 random shapes: with no faults, the supervisor must be invisible —
    // same bits as par_map_indexed at every thread count, quiet log.
    for case in 0..CASES {
        let mut rng = rng_for(6, case);
        let (seed, items, threads) = triple(&mut rng);
        let plain = par_map_indexed(Parallelism::serial(), &items, |i, &x| {
            seeded_map(seed, i, x)
        });
        let (out, log) = supervised_map_indexed(
            Parallelism::with_threads(threads),
            &items,
            &Supervisor::new(),
            |ctx, &x| seeded_map(seed, ctx.index, x),
        )
        .expect("no faults injected");
        let same = out.len() == plain.len()
            && out
                .iter()
                .zip(&plain)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(
            same,
            "case {case}: supervised map diverged (threads {threads})"
        );
        assert!(log.is_quiet(), "case {case}: {log:?}");
    }
}

#[test]
fn supervised_recovery_is_bit_identical_to_unfaulted_run() {
    // 64 random shapes with seeded single-attempt faults: the retried
    // tasks must recompute exactly the bits an un-faulted run produces,
    // and the recovered-task set must replay identically at every thread
    // count (it derives from task indices, never worker identity).
    for case in 0..CASES {
        let mut rng = rng_for(7, case);
        let (seed, items, threads) = triple(&mut rng);
        if items.is_empty() {
            continue;
        }
        let clean = par_map_indexed(Parallelism::serial(), &items, |i, &x| {
            seeded_map(seed, i, x)
        });
        let run = |t: usize| {
            supervised_map_indexed(
                Parallelism::with_threads(t),
                &items,
                &Supervisor::new(),
                |ctx, &x| {
                    injected_panic(seed, ctx, 0.25, 1);
                    seeded_map(seed, ctx.index, x)
                },
            )
            .expect("one retry covers single-attempt faults")
        };
        let (out, log) = run(threads);
        let same = out.len() == clean.len()
            && out
                .iter()
                .zip(&clean)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(
            same,
            "case {case}: recovered run diverged (threads {threads})"
        );
        assert_eq!(log.retries as usize, log.recovered.len(), "case {case}");
        let (_, serial_log) = run(1);
        assert_eq!(
            log.recovered, serial_log.recovered,
            "case {case}: recovery set depends on thread count"
        );
    }
}

#[test]
fn supervised_failure_index_is_thread_count_invariant() {
    // Permanent faults (attempt-independent): the reported failure must be
    // the lowest faulty index regardless of thread count.
    for case in 0..CASES {
        let mut rng = rng_for(8, case);
        let (seed, items, threads) = triple(&mut rng);
        let expected_fail = (0..items.len()).find(|&i| {
            let mut r = StdRng::seed_from_u64(split_seed(seed ^ 0xFA_17, i as u64));
            r.random_bool(0.2)
        });
        let Some(expected) = expected_fail else {
            continue;
        };
        for t in [1, threads] {
            let err = supervised_map_indexed(
                Parallelism::with_threads(t),
                &items,
                &Supervisor::new().with_retry_budget(1),
                |ctx, &x| {
                    injected_panic(seed, ctx, 0.2, u32::MAX);
                    seeded_map(seed, ctx.index, x)
                },
            )
            .expect_err("permanent faults must exhaust the budget");
            assert_eq!(err.index, expected, "case {case}: threads {t}");
            assert_eq!(err.attempts, 2, "case {case}: threads {t}");
        }
    }
}
