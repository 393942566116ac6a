//! Ground-truth totals: the pipelined generate→simulate→fold executor
//! for block streams, and the channel-free fold for workloads already in
//! memory.
//!
//! [`run_streaming_total`] never holds a whole workload in memory. A
//! producer thread emits the block stream (a streaming suite generator,
//! or a columnar store read) into a bounded channel; the calling thread
//! consumes blocks in stream order. Per block it makes one validating
//! pass that resolves every row to a dense timing-group id, computes the
//! deterministic core of each group first seen in the block (in
//! parallel), and folds the per-invocation jittered cycles and the
//! content fingerprint serially, left to right.
//!
//! **Dense group slots.** When the tables arrive, the consumer lays out
//! a [`GroupSlots`] table: one slot per `(kernel, context)` pair with a
//! one-entry `(work_scale bits, group id)` cache, a `(slot, work bits) →
//! group` map consulted only on a cache miss (a new work scale for the
//! pair, as in gaussian's shrinking submatrices), and ids minted in
//! first-appearance order. [`Workload::try_new`] assigns
//! [`Workload::group_of`] through the same table, so the ids are exactly
//! those of the materialized stream. The range and work-scale checks run
//! in the same pass, before anything in the block is timed, so the first
//! invalid row is reported with its exact stream index.
//!
//! Determinism argument, in the same terms as `stem-par`'s:
//!
//! 1. The deterministic timing of a group depends only on the frozen
//!    tables and the group key, never on *when* the group was first seen,
//!    which slot cache hit or missed, or which thread computed it.
//! 2. The jittered-cycles fold runs on one thread in stream order and
//!    reads each row's group core by id — the same f64s in the same order
//!    as the in-memory fold, so the same bits.
//! 3. The channel bound only throttles the producer; it cannot reorder
//!    blocks (`std::sync::mpsc` is FIFO).
//!
//! The consumer also re-folds the stream's content fingerprint (through
//! the prefix-memoized [`MemoFold`]) and cross-checks it against the
//! producer's [`StreamSummary`], so a total can never silently describe
//! different content than the producer claims to have sent.
//!
//! **In-memory workloads** ([`workload_total`]) skip the producer thread
//! and the channel: a [`Workload`] already carries its dense group ids
//! ([`Workload::group_of`]), so the fold computes every group core with
//! [`Simulator::group_timings_par`] and walks the invocation vector once,
//! folding jittered cycles and the re-folded content fingerprint side by
//! side. The fingerprint is compared with [`Workload::fingerprint`], and
//! a non-finite or non-positive work scale is a typed error, as on the
//! streamed path. Same cores, same order, same bits as the streamed fold
//! over the workload's block stream.

use crate::exec::{deterministic_of_invocation, DeterministicTiming};
use crate::simulator::Simulator;
use gpu_workload::stream::{BlockSink, ChannelSink, SinkError, StreamItem, StreamSummary};
use gpu_workload::{
    FingerprintFold, GroupSlots, Invocation, MemoFold, SlotError, Workload, WorkloadSource,
};
use std::path::Path;
use std::sync::Mutex;

/// Default bound on undelivered blocks in the pipeline channel. Peak
/// memory of the executor is roughly `(DEFAULT_CHANNEL_BLOCKS + 2)`
/// blocks (queued + one at each end).
pub const DEFAULT_CHANNEL_BLOCKS: usize = 4;

/// What a streaming ground-truth run produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingTotal {
    /// Ground-truth total cycles — bit-identical to
    /// [`Simulator::run_full`]'s `total_cycles` over the materialized
    /// equivalent.
    pub total_cycles: f64,
    /// Invocations folded.
    pub invocations: u64,
    /// Content fingerprint of the folded stream, cross-checked against
    /// the producer's summary (and equal to
    /// [`Workload::fingerprint`](gpu_workload::Workload::fingerprint) of
    /// the materialized equivalent).
    pub fingerprint: u64,
    /// Distinct `(kernel, context, work_scale)` groups seen.
    pub groups: usize,
}

/// Why a streaming run failed. `E` is the producer's error type
/// ([`SinkError`] for generation, `ColStoreError` for store reads).
#[derive(Debug, Clone, PartialEq)]
pub enum StreamRunError<E> {
    /// The producer failed (generation sink error, store corruption...).
    Produce(E),
    /// A block arrived before the frozen tables.
    MissingTables,
    /// The tables arrived twice.
    DuplicateTables,
    /// An invocation referenced a kernel/context outside the frozen
    /// tables or carried a non-finite work scale. The fold stops rather
    /// than time garbage.
    InvalidInvocation {
        /// Stream index of the offending invocation.
        index: u64,
        /// What was wrong with it.
        message: String,
    },
    /// The consumer's re-folded fingerprint disagrees with the
    /// producer's summary — the pipeline delivered different content
    /// than the producer claims to have sent.
    FingerprintMismatch {
        /// Fingerprint the producer reported.
        expected: u64,
        /// Fingerprint the consumer folded.
        found: u64,
    },
    /// The producer finished without reporting a summary (it was
    /// cancelled mid-stream).
    MissingSummary,
}

impl<E: std::fmt::Display> std::fmt::Display for StreamRunError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamRunError::Produce(e) => write!(f, "stream producer failed: {e}"),
            StreamRunError::MissingTables => {
                f.write_str("block stream sent invocations before its tables")
            }
            StreamRunError::DuplicateTables => f.write_str("block stream sent tables twice"),
            StreamRunError::InvalidInvocation { index, message } => {
                write!(f, "invalid invocation at stream index {index}: {message}")
            }
            StreamRunError::FingerprintMismatch { expected, found } => write!(
                f,
                "stream fingerprint mismatch: producer reported {expected:016x}, \
                 consumer folded {found:016x}"
            ),
            StreamRunError::MissingSummary => {
                f.write_str("stream producer finished without a summary")
            }
        }
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for StreamRunError<E> {}

/// Serial in-stream-order fold state of the consumer.
struct StreamFold<'a> {
    sim: &'a Simulator,
    par: stem_par::Parallelism,
    skeleton: Option<Workload>,
    /// Group assignment over the frozen tables (empty until they arrive).
    slots: GroupSlots,
    /// Deterministic core of each group, indexed by group id.
    timings: Vec<DeterministicTiming>,
    /// The current block's group id per row (reused across blocks).
    block_groups: Vec<u32>,
    /// Block offsets of the rows that minted the current block's new
    /// groups, in id order (reused across blocks).
    fresh: Vec<usize>,
    fingerprint: MemoFold,
    total: f64,
    count: u64,
}

impl<'a> StreamFold<'a> {
    fn new(sim: &'a Simulator, par: stem_par::Parallelism) -> Self {
        StreamFold {
            sim,
            par,
            skeleton: None,
            slots: GroupSlots::new([]),
            timings: Vec::new(),
            block_groups: Vec::new(),
            fresh: Vec::new(),
            fingerprint: MemoFold::new(FingerprintFold::new()),
            total: 0.0,
            count: 0,
        }
    }

    fn tables<E>(&mut self, skeleton: Workload) -> Result<(), StreamRunError<E>> {
        if self.skeleton.is_some() {
            return Err(StreamRunError::DuplicateTables);
        }
        self.slots = GroupSlots::of_tables(&skeleton);
        self.fingerprint = MemoFold::new(FingerprintFold::of_tables(&skeleton));
        self.skeleton = Some(skeleton);
        Ok(())
    }

    /// The validating first pass: checks every row's kernel, context and
    /// work scale and resolves it to a group id in `block_groups`,
    /// recording the rows that mint new groups in `fresh`. Nothing is
    /// timed, so a bad row stops the run before any of its block counts.
    fn resolve<E>(&mut self, invocations: &[Invocation]) -> Result<(), StreamRunError<E>> {
        self.block_groups.clear();
        self.fresh.clear();
        for (offset, inv) in invocations.iter().enumerate() {
            let invalid = |message: String| StreamRunError::InvalidInvocation {
                index: self.count + offset as u64,
                message,
            };
            let slot = match self.slots.slot(inv) {
                Ok(slot) => slot,
                Err(SlotError::Kernel) => {
                    return Err(invalid(format!(
                        "kernel id {} out of range",
                        inv.kernel.index()
                    )))
                }
                Err(SlotError::Context) => {
                    return Err(invalid(format!(
                        "context {} out of range for {}",
                        inv.context, inv.kernel
                    )))
                }
            };
            if !inv.work_scale.is_finite() || inv.work_scale <= 0.0 {
                return Err(invalid(format!(
                    "work scale {} not finite-positive",
                    inv.work_scale
                )));
            }
            let (group, fresh) = self.slots.resolve(slot, inv.work_scale.to_bits());
            if fresh {
                self.fresh.push(offset);
            }
            self.block_groups.push(group);
        }
        Ok(())
    }

    fn block<E>(&mut self, invocations: Vec<Invocation>) -> Result<(), StreamRunError<E>> {
        if self.skeleton.is_none() {
            return Err(StreamRunError::MissingTables);
        }
        // Validate and resolve the whole block before timing any of it: a
        // stream that escaped checksumming must yield a typed error, never
        // garbage cycles or an index panic.
        self.resolve(&invocations)?;
        let Some(skeleton) = self.skeleton.as_ref() else {
            return Err(StreamRunError::MissingTables);
        };
        // Deterministic cores for the groups first seen in this block, in
        // id order. Each core depends only on the tables and the group
        // key, so computing them in parallel (and in whatever block they
        // first appear) cannot change their values.
        let fresh = stem_par::par_map_indexed(self.par, &self.fresh, |_, &offset| {
            deterministic_of_invocation(
                skeleton,
                &invocations[offset],
                self.sim.config(),
                self.sim.options(),
            )
        });
        self.timings.extend(fresh);
        // Serial, stream-order jitter and fingerprint fold: bit-identical
        // to the in-memory fold of `workload_total`.
        let mut total = self.total;
        for (inv, &group) in invocations.iter().zip(&self.block_groups) {
            self.fingerprint.eat_invocation(inv, group);
            total += self.timings[group as usize].jittered_cycles(inv.noise_z as f64);
        }
        self.total = total;
        self.count += invocations.len() as u64;
        Ok(())
    }
}

/// Runs the pipelined generate→simulate→fold executor over an arbitrary
/// block-stream producer. `produce` runs on its own thread and pushes
/// tables + blocks through a [`BlockSink`]; at most `channel_blocks`
/// undelivered items sit in the channel, so peak memory stays flat no
/// matter how long the stream is.
///
/// # Errors
///
/// [`StreamRunError`] — the producer's own failure, a malformed stream,
/// or a producer/consumer fingerprint disagreement.
///
/// # Panics
///
/// Panics if `channel_blocks` is zero.
pub fn run_streaming_total<E, P>(
    sim: &Simulator,
    par: stem_par::Parallelism,
    channel_blocks: usize,
    produce: P,
) -> Result<StreamingTotal, StreamRunError<E>>
where
    E: Send,
    P: FnOnce(&mut dyn BlockSink) -> Result<StreamSummary, E> + Send,
{
    let summary_cell: Mutex<Option<StreamSummary>> = Mutex::new(None);
    let mut fold = StreamFold::new(sim, par);
    let piped = stem_par::pipelined_fold(
        channel_blocks,
        |tx| {
            let mut sink = ChannelSink::new(tx);
            match produce(&mut sink) {
                Ok(summary) => {
                    if let Ok(mut cell) = summary_cell.lock() {
                        *cell = Some(summary);
                    }
                    Ok(())
                }
                Err(e) => Err(StreamRunError::Produce(e)),
            }
        },
        |item| match item {
            StreamItem::Tables(skeleton) => fold.tables(skeleton),
            StreamItem::Block(invocations) => fold.block(invocations),
        },
    );
    piped?;
    let summary = match summary_cell.lock() {
        Ok(mut cell) => cell.take(),
        Err(_) => None,
    };
    let Some(summary) = summary else {
        return Err(StreamRunError::MissingSummary);
    };
    let fingerprint = fold.fingerprint.finish();
    if fingerprint != summary.fingerprint || fold.count != summary.invocations {
        return Err(StreamRunError::FingerprintMismatch {
            expected: summary.fingerprint,
            found: fingerprint,
        });
    }
    Ok(StreamingTotal {
        total_cycles: fold.total,
        invocations: fold.count,
        fingerprint,
        groups: fold.timings.len(),
    })
}

/// Streaming ground truth of a generated workload: runs the source's
/// emit body on the producer thread, cutting blocks of `block_len`.
/// Bit-identical to [`workload_total`] of `source.materialize()` at
/// every thread count.
///
/// # Errors
///
/// [`StreamRunError`] over the generation [`SinkError`].
pub fn source_total(
    sim: &Simulator,
    par: stem_par::Parallelism,
    source: &WorkloadSource,
    block_len: usize,
    channel_blocks: usize,
) -> Result<StreamingTotal, StreamRunError<SinkError>> {
    run_streaming_total(sim, par, channel_blocks, |sink| {
        source.stream(sink, block_len)
    })
}

/// Ground truth of an already-materialized workload, folded in place:
/// every group core once ([`Simulator::group_timings_par`]), then one
/// serial pass over the invocations that sums the jittered cycles in
/// stream order and re-folds the content fingerprint. No producer
/// thread, channel or block copy is involved: the block length and
/// channel bound are accepted for call-site symmetry with
/// [`source_total`] and have nothing to bound here. Bit-identical to
/// [`source_total`] and [`store_total`] over the same stream at every
/// thread count; the campaign and `Pipeline` ground-truth paths run
/// through here.
///
/// # Errors
///
/// [`StreamRunError::InvalidInvocation`] for a non-finite or
/// non-positive work scale (a hand-built workload can carry one:
/// [`Workload`] construction checks table ranges only), reporting the
/// first such row; [`StreamRunError::FingerprintMismatch`] if the
/// re-folded content disagrees with [`Workload::fingerprint`].
pub fn workload_total(
    sim: &Simulator,
    par: stem_par::Parallelism,
    workload: &Workload,
    _block_len: usize,
    _channel_blocks: usize,
) -> Result<StreamingTotal, StreamRunError<SinkError>> {
    let keys = workload.group_keys();
    // Group members share their work-scale bits, and a group's
    // representative is its first row, so the first bad row of the
    // stream is the representative of the first bad group.
    for (g, key) in keys.iter().enumerate() {
        let work_scale = f32::from_bits(key.work_bits);
        if !work_scale.is_finite() || work_scale <= 0.0 {
            let index = workload.group_representative(g as u32);
            return Err(StreamRunError::InvalidInvocation {
                index: index as u64,
                message: format!("work scale {work_scale} not finite-positive"),
            });
        }
    }
    let timings = sim.group_timings_par(workload, par);
    let mut fingerprint = MemoFold::new(FingerprintFold::of_tables(workload));
    let mut total = 0.0;
    for row in workload.rows() {
        let inv = keys[row.group as usize].invocation(row.noise_bits);
        fingerprint.eat_invocation(&inv, row.group);
        total += timings[row.group as usize].jittered_cycles(row.noise_z() as f64);
    }
    let found = fingerprint.finish();
    if found != workload.fingerprint() {
        return Err(StreamRunError::FingerprintMismatch {
            expected: workload.fingerprint(),
            found,
        });
    }
    Ok(StreamingTotal {
        total_cycles: total,
        invocations: workload.num_invocations() as u64,
        fingerprint: found,
        groups: timings.len(),
    })
}

/// Streaming ground truth straight off a columnar invocation store:
/// blocks are read, checksummed and decoded on the producer thread and
/// timed here, so peak memory stays a few blocks even for paper-scale
/// stores.
///
/// # Errors
///
/// [`StreamRunError`] over `ColStoreError` — corrupt stores quarantine
/// and surface typed errors, never garbage cycles.
pub fn store_total(
    sim: &Simulator,
    par: stem_par::Parallelism,
    storage: &dyn stem_storage::Storage,
    dir: &Path,
    channel_blocks: usize,
) -> Result<StreamingTotal, StreamRunError<gpu_workload::ColStoreError>> {
    run_streaming_total(sim, par, channel_blocks, |sink| {
        gpu_workload::stream_store(storage, dir, sink)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::simulator::reference;
    use gpu_workload::kernel::KernelClassBuilder;
    use gpu_workload::suites::{
        casio_sources, huggingface_sources, rodinia_sources, HuggingfaceScale,
    };
    use gpu_workload::{KernelId, RuntimeContext, SuiteKind};

    fn sim() -> Simulator {
        Simulator::new(GpuConfig::rtx2080())
    }

    /// Tables with uneven context counts: kernel 0 has one context,
    /// kernel 1 has two, so kernel 0's context 1 would land in kernel 1's
    /// first slot if contexts were only checked against the slot table.
    fn tables() -> (Vec<gpu_workload::KernelClass>, Vec<Vec<RuntimeContext>>) {
        (
            vec![
                KernelClassBuilder::new("a").build(),
                KernelClassBuilder::new("b").build(),
            ],
            vec![
                vec![RuntimeContext::neutral()],
                vec![
                    RuntimeContext::neutral(),
                    RuntimeContext::neutral().with_work(2.0),
                ],
            ],
        )
    }

    fn hand_built(invocations: Vec<Invocation>) -> Workload {
        let (kernels, contexts) = tables();
        Workload::new("hand", SuiteKind::Custom, kernels, contexts, invocations)
    }

    /// A row with any work scale, bypassing `Invocation::with_work`'s
    /// positivity assert the way a damaged stream would.
    fn row(kernel: u32, context: u16, work_scale: f32, noise_z: f32) -> Invocation {
        Invocation {
            kernel: KernelId(kernel),
            context,
            work_scale,
            noise_z,
        }
    }

    fn stream_of(
        w: &Workload,
        par: stem_par::Parallelism,
        block_len: usize,
    ) -> Result<StreamingTotal, StreamRunError<SinkError>> {
        run_streaming_total(&sim(), par, 2, |sink| w.stream_blocks(sink, block_len))
    }

    #[test]
    fn streamed_total_is_bit_identical_to_in_memory() {
        let sim = sim();
        for source in rodinia_sources(7).iter().take(4) {
            let w = source.materialize();
            let reference = reference::run_full(&sim, &w).total_cycles;
            for threads in [1usize, 4] {
                let par = stem_par::Parallelism::with_threads(threads);
                let got = source_total(&sim, par, source, 256, 2).expect("stream");
                assert_eq!(
                    got.total_cycles.to_bits(),
                    reference.to_bits(),
                    "{} at {threads} threads",
                    source.name()
                );
            }
        }
    }

    #[test]
    fn summary_matches_materialized_fingerprint() {
        let sim = sim();
        let sources = rodinia_sources(9);
        let source = &sources[0];
        let w = source.materialize();
        let got =
            source_total(&sim, stem_par::Parallelism::serial(), source, 128, 2).expect("stream");
        assert_eq!(got.fingerprint, w.fingerprint());
        assert_eq!(got.invocations, w.num_invocations() as u64);
        assert_eq!(got.groups, w.num_invocation_groups());
    }

    #[test]
    fn workload_total_folds_in_memory_workloads() {
        let sim = sim();
        let w = rodinia_sources(5)[2].materialize();
        let reference = reference::run_full(&sim, &w).total_cycles;
        for threads in [1usize, 4] {
            let par = stem_par::Parallelism::with_threads(threads);
            let got = workload_total(&sim, par, &w, 128, 2).expect("in-memory fold");
            assert_eq!(got.total_cycles.to_bits(), reference.to_bits());
            assert_eq!(got.fingerprint, w.fingerprint());
            assert_eq!(got.invocations, w.num_invocations() as u64);
            assert_eq!(got.groups, w.num_invocation_groups());
        }
    }

    /// Kernel 1 context 0 alternates its work scale on every one of its
    /// rows, so that slot's one-entry cache misses every time and the
    /// group map decides; the other pairs hit.
    #[test]
    fn slot_cache_misses_resolve_through_the_group_map() {
        let invocations: Vec<Invocation> = (0..300u32)
            .map(|i| {
                let noise = ((i * 37) % 17) as f32 / 8.0 - 1.0;
                match i % 5 {
                    3 => row(0, 0, 1.0, noise),
                    4 => row(1, 1, 1.0, noise),
                    _ => row(1, 0, [1.0, 0.5][(i % 2) as usize], noise),
                }
            })
            .collect();
        let w = hand_built(invocations);
        let reference = reference::run_full(&sim(), &w).total_cycles;
        for threads in [1usize, 4] {
            let par = stem_par::Parallelism::with_threads(threads);
            for block_len in [1usize, 7, 65_536] {
                let got = stream_of(&w, par, block_len).expect("stream");
                assert_eq!(
                    got.total_cycles.to_bits(),
                    reference.to_bits(),
                    "threads {threads}, block length {block_len}"
                );
                assert_eq!(got.groups, w.num_invocation_groups());
                assert_eq!(got.fingerprint, w.fingerprint());
            }
            let in_memory = workload_total(&sim(), par, &w, 1, 1).expect("in-memory fold");
            assert_eq!(in_memory.total_cycles.to_bits(), reference.to_bits());
        }
    }

    /// The streamed fold assigns every row the group id the materialized
    /// constructor gave it, block by block, on every suite source.
    #[test]
    fn stream_group_ids_equal_materialized_group_of() {
        let sim = sim();
        let sources = rodinia_sources(13)
            .into_iter()
            .chain(casio_sources(13))
            .chain(huggingface_sources(13, HuggingfaceScale::custom(0.002)));
        for source in sources {
            let w = source.materialize();
            let mut fold = StreamFold::new(&sim, stem_par::Parallelism::serial());
            fold.tables::<SinkError>(w.skeleton()).expect("tables");
            let invocations: Vec<Invocation> = w.invocations().collect();
            for (b, chunk) in invocations.chunks(4096).enumerate() {
                fold.block::<SinkError>(chunk.to_vec()).expect("block");
                for (offset, &group) in fold.block_groups.iter().enumerate() {
                    let i = b * 4096 + offset;
                    assert_eq!(group, w.group_of(i), "{} row {i}", w.name());
                }
            }
            assert_eq!(
                fold.timings.len(),
                w.num_invocation_groups(),
                "{}",
                w.name()
            );
            assert_eq!(fold.fingerprint.finish(), w.fingerprint(), "{}", w.name());
        }
    }

    #[test]
    fn block_before_tables_is_typed_error() {
        let sim = sim();
        let result: Result<StreamingTotal, StreamRunError<SinkError>> =
            run_streaming_total(&sim, stem_par::Parallelism::serial(), 2, |sink| {
                sink.block(&[Invocation::with_work(KernelId(0), 0, 1.0, 0.0)])?;
                Ok(StreamSummary {
                    fingerprint: 0,
                    invocations: 1,
                })
            });
        assert_eq!(result, Err(StreamRunError::MissingTables));
    }

    #[test]
    fn out_of_range_invocation_is_typed_error_not_panic() {
        let sim = sim();
        let skeleton = rodinia_sources(3)[0].materialize().skeleton();
        let bogus = Invocation::with_work(KernelId(99), 0, 1.0, 0.0);
        let result: Result<StreamingTotal, StreamRunError<SinkError>> =
            run_streaming_total(&sim, stem_par::Parallelism::serial(), 2, move |sink| {
                sink.tables(&skeleton)?;
                sink.block(&[bogus])?;
                Ok(StreamSummary {
                    fingerprint: 0,
                    invocations: 1,
                })
            });
        assert!(matches!(
            result,
            Err(StreamRunError::InvalidInvocation { index: 0, .. })
        ));
    }

    /// Each class of bad row, placed at offset 2 of the second 4-row
    /// block, is reported at stream index 6 — after the first block was
    /// timed, before any of the second is.
    #[test]
    fn bad_row_in_second_block_reports_its_stream_index() {
        let skeleton = hand_built(Vec::new());
        let good = row(1, 1, 1.0, 0.25);
        for (bad, what) in [
            (row(2, 0, 1.0, 0.0), "kernel id 2 out of range"),
            (row(1, 2, 1.0, 0.0), "context 2 out of range"),
            (row(0, 0, f32::NAN, 0.0), "not finite-positive"),
            (row(0, 0, 0.0, 0.0), "not finite-positive"),
            (row(0, 0, -1.0, 0.0), "not finite-positive"),
        ] {
            let result: Result<StreamingTotal, StreamRunError<SinkError>> =
                run_streaming_total(&sim(), stem_par::Parallelism::serial(), 2, |sink| {
                    sink.tables(&skeleton)?;
                    sink.block(&[good; 4])?;
                    sink.block(&[good, good, bad, good])?;
                    Ok(StreamSummary {
                        fingerprint: 0,
                        invocations: 8,
                    })
                });
            match result {
                Err(StreamRunError::InvalidInvocation { index, message }) => {
                    assert_eq!(index, 6, "{what}");
                    assert!(message.contains(what), "{message:?} should say {what:?}");
                }
                other => panic!("{what}: wanted InvalidInvocation, got {other:?}"),
            }
        }
    }

    #[test]
    fn context_valid_only_for_another_kernel_is_rejected() {
        let skeleton = hand_built(Vec::new());
        // Kernel 1 has a context 1; kernel 0 does not.
        let result: Result<StreamingTotal, StreamRunError<SinkError>> =
            run_streaming_total(&sim(), stem_par::Parallelism::serial(), 2, |sink| {
                sink.tables(&skeleton)?;
                sink.block(&[row(1, 1, 1.0, 0.0), row(0, 1, 1.0, 0.0)])?;
                Ok(StreamSummary {
                    fingerprint: 0,
                    invocations: 2,
                })
            });
        match result {
            Err(StreamRunError::InvalidInvocation { index, message }) => {
                assert_eq!(index, 1);
                assert!(message.contains("context 1 out of range"), "{message}");
            }
            other => panic!("wanted InvalidInvocation, got {other:?}"),
        }
    }

    #[test]
    fn in_memory_nan_work_scale_is_typed_error() {
        let w = hand_built(vec![
            row(0, 0, 1.0, 0.1),
            row(1, 1, 2.0, 0.2),
            row(1, 0, f32::NAN, 0.3),
            row(1, 0, f32::NAN, 0.4),
        ]);
        for threads in [1usize, 4] {
            let par = stem_par::Parallelism::with_threads(threads);
            match workload_total(&sim(), par, &w, gpu_workload::DEFAULT_BLOCK_LEN, 2) {
                Err(StreamRunError::InvalidInvocation { index, message }) => {
                    assert_eq!(index, 2);
                    assert!(message.contains("not finite-positive"), "{message}");
                }
                other => panic!("wanted InvalidInvocation, got {other:?}"),
            }
        }
    }

    #[test]
    fn lying_summary_is_rejected() {
        let sim = sim();
        let sources = rodinia_sources(3);
        let source = &sources[0];
        let honest =
            source_total(&sim, stem_par::Parallelism::serial(), source, 128, 2).expect("stream");
        let result: Result<StreamingTotal, StreamRunError<SinkError>> =
            run_streaming_total(&sim, stem_par::Parallelism::serial(), 2, |sink| {
                let mut summary = source.stream(sink, 128)?;
                summary.fingerprint ^= 1;
                Ok(summary)
            });
        assert_eq!(
            result,
            Err(StreamRunError::FingerprintMismatch {
                expected: honest.fingerprint ^ 1,
                found: honest.fingerprint,
            })
        );
    }
}
