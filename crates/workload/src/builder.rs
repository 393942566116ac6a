//! Incremental workload construction.
//!
//! The suite generators and downstream users build workloads through this
//! builder: register kernel classes with their runtime contexts, then
//! append invocations either one at a time or through a
//! [`ContextSchedule`].

use crate::context::{ContextSchedule, RuntimeContext};
use crate::invocation::{Invocation, KernelId};
use crate::kernel::KernelClass;
use crate::normal;
use crate::stream::{BlockSink, SinkError, StreamSummary};
use crate::trace::{FingerprintFold, GroupSlots, MemoFold, RowFold, SuiteKind, Workload};
use stem_stats::rng::{RngExt, SeedableRng, StdRng};

/// Builder for [`Workload`].
///
/// # Example
///
/// ```
/// use gpu_workload::{WorkloadBuilder, RuntimeContext, ContextSchedule, SuiteKind};
/// use gpu_workload::kernel::KernelClassBuilder;
///
/// let mut b = WorkloadBuilder::new("demo", SuiteKind::Custom, 42);
/// let gemm = b.add_kernel(
///     KernelClassBuilder::new("gemm").build(),
///     vec![RuntimeContext::neutral(), RuntimeContext::neutral().with_work(2.0)],
/// );
/// b.schedule(gemm, &ContextSchedule::Weighted(vec![3.0, 1.0]), 100);
/// let w = b.build();
/// assert_eq!(w.num_invocations(), 100);
/// ```
#[derive(Debug)]
pub struct WorkloadBuilder<'s> {
    name: String,
    suite: SuiteKind,
    kernels: Vec<KernelClass>,
    contexts: Vec<Vec<RuntimeContext>>,
    rng: StdRng,
    target: Target<'s>,
}

/// Where appended invocations go.
#[derive(Debug)]
enum Target<'s> {
    /// Materialized: each invocation becomes an 8-byte row as it is
    /// appended. `None` until the first invocation folds the header.
    Rows(Option<RowFold>),
    /// Streaming: invocations are cut into blocks for a sink.
    Stream(SinkState<'s>),
}

/// Streaming-mode state: where blocks go and the running fingerprint.
#[derive(Debug)]
struct SinkState<'s> {
    sink: &'s mut dyn BlockSink,
    block_len: usize,
    /// The block being filled.
    block: Vec<Invocation>,
    /// Tables frozen (header folded, skeleton delivered)?
    frozen: bool,
    emitted: u64,
    /// The content fingerprint; starts over from the header when the
    /// tables freeze.
    fold: MemoFold,
    /// Dense `(kernel, context)` slots of the frozen tables: a row's slot
    /// picks its memo table in `fold`.
    slots: GroupSlots,
    /// First sink failure; emission stops, `finish_stream` reports it.
    failed: Option<SinkError>,
}

impl SinkState<'_> {
    /// Streaming-mode append: freeze tables on first call, fold the
    /// fingerprint, flush a full block. After a sink failure the RNG
    /// keeps advancing (draws happen before this point) but nothing more
    /// is emitted; the failure surfaces from `finish_stream`.
    fn append(
        &mut self,
        inv: Invocation,
        name: &str,
        suite: SuiteKind,
        kernels: &[KernelClass],
        contexts: &[Vec<RuntimeContext>],
    ) {
        if self.failed.is_some() {
            return;
        }
        if !self.frozen {
            if let Err(e) = self.freeze(name, suite, kernels, contexts) {
                self.failed = Some(e);
                return;
            }
        }
        // `invoke` checked the kernel and context, so the slot exists; the
        // builder assigns no timing groups, and the slot keys the memo.
        let slot = self.slots.slot(&inv).map_or(0, |slot| slot as u32);
        self.fold.eat_invocation(&inv, slot);
        self.emitted += 1;
        self.block.push(inv);
        if self.block.len() == self.block_len {
            if let Err(e) = self.sink.block(&self.block) {
                self.failed = Some(e);
            }
            self.block.clear();
        }
    }

    /// Freezes the tables: folds the header and ships the skeleton.
    fn freeze(
        &mut self,
        name: &str,
        suite: SuiteKind,
        kernels: &[KernelClass],
        contexts: &[Vec<RuntimeContext>],
    ) -> Result<(), SinkError> {
        self.frozen = true;
        let mut header = FingerprintFold::new();
        header.eat_header(name, suite, kernels, contexts);
        self.fold = MemoFold::new(header);
        self.slots = GroupSlots::new(contexts.iter().map(Vec::len));
        let skeleton = Workload::new(
            name.to_owned(),
            suite,
            kernels.to_vec(),
            contexts.to_vec(),
            Vec::new(),
        );
        self.sink.tables(&skeleton)
    }
}

impl std::fmt::Debug for dyn BlockSink + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dyn BlockSink")
    }
}

impl<'s> WorkloadBuilder<'s> {
    /// Starts an empty workload. All randomness (context draws, jitter
    /// draws) is derived from `seed`, so builds are reproducible.
    pub fn new(name: impl Into<String>, suite: SuiteKind, seed: u64) -> Self {
        WorkloadBuilder {
            name: name.into(),
            suite,
            kernels: Vec::new(),
            contexts: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            target: Target::Rows(None),
        }
    }

    /// Starts a *streaming* workload: invocations are cut into blocks of
    /// `block_len` and handed to `sink` instead of accumulating, so peak
    /// memory is one block regardless of stream length. The RNG stream
    /// is identical to the materialized builder's, so the streamed
    /// content (and its fingerprint) matches [`WorkloadBuilder::build`]
    /// of the same generator bit-for-bit. Finish with
    /// [`WorkloadBuilder::finish_stream`], not [`WorkloadBuilder::build`].
    ///
    /// # Panics
    ///
    /// Panics if `block_len` is zero.
    pub fn streaming(
        name: impl Into<String>,
        suite: SuiteKind,
        seed: u64,
        sink: &'s mut dyn BlockSink,
        block_len: usize,
    ) -> Self {
        assert!(block_len > 0, "streaming block length must be positive");
        let mut b = WorkloadBuilder::new(name, suite, seed);
        b.target = Target::Stream(SinkState {
            sink,
            block_len,
            block: Vec::with_capacity(block_len),
            frozen: false,
            emitted: 0,
            fold: MemoFold::new(FingerprintFold::new()),
            slots: GroupSlots::new([]),
            failed: None,
        });
        b
    }

    /// Registers a kernel class with its runtime contexts, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the kernel or any context is invalid, `contexts` is
    /// empty, or (in streaming mode) an invocation was already emitted —
    /// a streaming producer must register every kernel before its first
    /// invocation, because the tables are frozen and shipped downstream
    /// at that point.
    pub fn add_kernel(&mut self, kernel: KernelClass, contexts: Vec<RuntimeContext>) -> KernelId {
        if let Target::Stream(sink) = &self.target {
            assert!(
                !sink.frozen,
                "streaming builder: kernel {} registered after the first invocation \
                 (tables are frozen and shipped at that point)",
                kernel.name
            );
        }
        kernel.validate();
        assert!(
            !contexts.is_empty(),
            "kernel {} needs at least one context",
            kernel.name
        );
        for c in &contexts {
            c.validate();
        }
        if let Target::Rows(Some(rows)) = &mut self.target {
            rows.push_kernel(contexts.len());
        }
        let id = KernelId(self.kernels.len() as u32);
        self.kernels.push(kernel);
        self.contexts.push(contexts);
        id
    }

    /// Appends a single invocation with an explicit context and extra work
    /// multiplier; jitter is drawn from the builder's RNG.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `context` is out of range or `work_scale` is
    /// not positive.
    pub fn invoke(&mut self, kernel: KernelId, context: u16, work_scale: f32) {
        assert!(
            kernel.index() < self.kernels.len(),
            "unknown kernel {kernel}"
        );
        assert!(
            (context as usize) < self.contexts[kernel.index()].len(),
            "kernel {kernel} has no context {context}"
        );
        let z = normal::standard_normal(&mut self.rng);
        let inv = Invocation::with_work(kernel, context, work_scale, z);
        match &mut self.target {
            Target::Rows(rows) => {
                let rows = rows.get_or_insert_with(|| {
                    RowFold::new(&self.name, self.suite, &self.kernels, &self.contexts)
                });
                // The asserts above placed the row inside the tables.
                let _ = rows.push(&inv);
            }
            Target::Stream(state) => {
                state.append(inv, &self.name, self.suite, &self.kernels, &self.contexts)
            }
        }
    }

    /// Appends `count` invocations following a [`ContextSchedule`], all at
    /// unit extra work.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is unknown or the schedule is invalid for the
    /// kernel's context count.
    pub fn schedule(&mut self, kernel: KernelId, schedule: &ContextSchedule, count: usize) {
        assert!(
            kernel.index() < self.kernels.len(),
            "unknown kernel {kernel}"
        );
        let num_contexts = self.contexts[kernel.index()].len();
        schedule.validate(num_contexts);
        match schedule {
            ContextSchedule::Weighted(weights) => {
                let total: f64 = weights.iter().sum();
                for _ in 0..count {
                    let mut target = self.rng.random::<f64>() * total;
                    let mut chosen = weights.len() - 1;
                    for (i, &w) in weights.iter().enumerate() {
                        target -= w;
                        if target <= 0.0 {
                            chosen = i;
                            break;
                        }
                    }
                    self.invoke(kernel, chosen as u16, 1.0);
                }
            }
            ContextSchedule::Cyclic => {
                for i in 0..count {
                    self.invoke(kernel, (i % num_contexts) as u16, 1.0);
                }
            }
            ContextSchedule::Phased(phases) => {
                let mut emitted = 0usize;
                'outer: loop {
                    for &(ctx, phase_count) in phases {
                        for _ in 0..phase_count {
                            if emitted == count {
                                break 'outer;
                            }
                            self.invoke(kernel, ctx as u16, 1.0);
                            emitted += 1;
                        }
                    }
                    if emitted == count {
                        break;
                    }
                }
            }
        }
    }

    /// Number of invocations appended so far (in streaming mode: held in
    /// the block being filled).
    pub fn len(&self) -> usize {
        match &self.target {
            Target::Rows(rows) => rows.as_ref().map_or(0, RowFold::len),
            Target::Stream(state) => state.block.len(),
        }
    }

    /// Whether no invocations have been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finalizes into a validated [`Workload`].
    ///
    /// # Panics
    ///
    /// Panics if no kernels were registered, or if the builder was
    /// started in streaming mode (use
    /// [`WorkloadBuilder::finish_stream`] there — earlier blocks are
    /// already downstream, so nothing could be materialized here).
    pub fn build(self) -> Workload {
        let Target::Rows(rows) = self.target else {
            panic!("streaming builder must be finished with finish_stream, not build");
        };
        match rows {
            Some(rows) => rows.finish(self.name, self.suite, self.kernels, self.contexts),
            None => Workload::new(
                self.name,
                self.suite,
                self.kernels,
                self.contexts,
                Vec::new(),
            ),
        }
    }

    /// Finalizes a streaming build: flushes the trailing partial block
    /// and reports the stream's content fingerprint and length. If the
    /// stream never emitted an invocation, the tables are still
    /// delivered here so every stream carries its skeleton.
    ///
    /// # Errors
    ///
    /// The first [`SinkError`] the sink returned, if any.
    ///
    /// # Panics
    ///
    /// Panics if the builder was not started in streaming mode, or if
    /// no kernels were registered.
    pub fn finish_stream(self) -> Result<StreamSummary, SinkError> {
        let Target::Stream(mut state) = self.target else {
            panic!("finish_stream called on a non-streaming builder");
        };
        if let Some(e) = state.failed {
            return Err(e);
        }
        if !state.frozen {
            state.freeze(&self.name, self.suite, &self.kernels, &self.contexts)?;
        }
        if !state.block.is_empty() {
            state.sink.block(&state.block)?;
        }
        Ok(StreamSummary {
            fingerprint: state.fold.finish(),
            invocations: state.emitted,
        })
    }
}

/// A deferred workload generator: name, suite and seed plus the *emit
/// body* that registers kernels and appends invocations against a
/// builder. The same body drives both the materialized and the
/// streaming path, so the two share one RNG stream and produce
/// bit-identical content (and therefore one fingerprint) by
/// construction.
pub struct WorkloadSource {
    name: String,
    suite: SuiteKind,
    seed: u64,
    emit: Box<dyn Fn(&mut WorkloadBuilder<'_>) + Send + Sync>,
}

impl std::fmt::Debug for WorkloadSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadSource")
            .field("name", &self.name)
            .field("suite", &self.suite)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

impl WorkloadSource {
    /// Wraps an emit body. The body must register every kernel before
    /// its first invocation (all suite generators already do) so it can
    /// run against a streaming builder.
    pub fn new(
        name: impl Into<String>,
        suite: SuiteKind,
        seed: u64,
        emit: impl Fn(&mut WorkloadBuilder<'_>) + Send + Sync + 'static,
    ) -> Self {
        WorkloadSource {
            name: name.into(),
            suite,
            seed,
            emit: Box::new(emit),
        }
    }

    /// Workload name this source generates.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Suite the workload belongs to.
    pub fn suite(&self) -> SuiteKind {
        self.suite
    }

    /// Seed driving every random draw of the emit body.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Runs the emit body against an in-memory builder: the classic,
    /// whole-workload path.
    ///
    /// # Panics
    ///
    /// Panics if the emit body violates builder invariants.
    pub fn materialize(&self) -> Workload {
        let mut b = WorkloadBuilder::new(self.name.clone(), self.suite, self.seed);
        (self.emit)(&mut b);
        b.build()
    }

    /// Runs the emit body against a streaming builder: blocks of
    /// `block_len` invocations go to `sink` as they fill, so peak
    /// memory stays one block no matter how long the stream is.
    ///
    /// # Errors
    ///
    /// The first [`SinkError`] the sink reported.
    ///
    /// # Panics
    ///
    /// Panics if the emit body violates builder invariants (including
    /// registering a kernel after its first invocation).
    pub fn stream(
        &self,
        sink: &mut dyn BlockSink,
        block_len: usize,
    ) -> Result<StreamSummary, SinkError> {
        let mut b =
            WorkloadBuilder::streaming(self.name.clone(), self.suite, self.seed, sink, block_len);
        (self.emit)(&mut b);
        b.finish_stream()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelClassBuilder;

    fn builder_with_kernel(contexts: usize) -> (WorkloadBuilder<'static>, KernelId) {
        let mut b = WorkloadBuilder::new("t", SuiteKind::Custom, 1);
        let ctxs = (0..contexts)
            .map(|i| RuntimeContext::neutral().with_work(1.0 + i as f64))
            .collect();
        let id = b.add_kernel(KernelClassBuilder::new("k").build(), ctxs);
        (b, id)
    }

    #[test]
    fn cyclic_schedule_round_robins() {
        let (mut b, id) = builder_with_kernel(3);
        b.schedule(id, &ContextSchedule::Cyclic, 7);
        let w = b.build();
        let ctxs: Vec<u16> = w.invocations().map(|i| i.context).collect();
        assert_eq!(ctxs, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn phased_schedule_repeats_until_count() {
        let (mut b, id) = builder_with_kernel(2);
        b.schedule(id, &ContextSchedule::Phased(vec![(0, 2), (1, 1)]), 7);
        let w = b.build();
        let ctxs: Vec<u16> = w.invocations().map(|i| i.context).collect();
        assert_eq!(ctxs, vec![0, 0, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn weighted_schedule_respects_weights() {
        let (mut b, id) = builder_with_kernel(2);
        b.schedule(id, &ContextSchedule::Weighted(vec![9.0, 1.0]), 5000);
        let w = b.build();
        let ones = w.invocations().filter(|i| i.context == 1).count();
        let frac = ones as f64 / 5000.0;
        assert!((frac - 0.1).abs() < 0.03, "observed fraction {frac}");
    }

    #[test]
    fn deterministic_under_seed() {
        let build = || {
            let (mut b, id) = builder_with_kernel(2);
            b.schedule(id, &ContextSchedule::Weighted(vec![1.0, 1.0]), 50);
            b.build()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn noise_z_is_standard_normal_ish() {
        let (mut b, id) = builder_with_kernel(1);
        b.schedule(id, &ContextSchedule::Cyclic, 20_000);
        let w = b.build();
        let s: stem_stats_like::Moments = w.invocations().map(|i| i.noise_z as f64).collect();
        assert!(s.mean.abs() < 0.03, "mean {}", s.mean);
        assert!((s.var - 1.0).abs() < 0.05, "var {}", s.var);
    }

    /// Minimal local moments helper to avoid a dev-dependency cycle.
    mod stem_stats_like {
        pub struct Moments {
            pub mean: f64,
            pub var: f64,
        }
        impl FromIterator<f64> for Moments {
            fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
                let v: Vec<f64> = iter.into_iter().collect();
                let n = v.len() as f64;
                let mean = v.iter().sum::<f64>() / n;
                let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
                Moments { mean, var }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown kernel")]
    fn invoke_unknown_kernel() {
        let (mut b, _) = builder_with_kernel(1);
        b.invoke(KernelId(9), 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "has no context")]
    fn invoke_unknown_context() {
        let (mut b, id) = builder_with_kernel(1);
        b.invoke(id, 3, 1.0);
    }

    #[test]
    fn len_tracks_invocations() {
        let (mut b, id) = builder_with_kernel(1);
        assert!(b.is_empty());
        b.invoke(id, 0, 1.0);
        assert_eq!(b.len(), 1);
    }

    /// A kernel registered after the first invocation joins the tables;
    /// groups and fingerprint match construction from the whole stream.
    #[test]
    fn late_kernel_registration_matches_try_new() {
        let (mut b, a) = builder_with_kernel(2);
        b.schedule(a, &ContextSchedule::Cyclic, 5);
        let late = b.add_kernel(
            KernelClassBuilder::new("late").build(),
            vec![RuntimeContext::neutral()],
        );
        b.invoke(late, 0, 2.0);
        b.invoke(a, 1, 1.0);
        let w = b.build();
        let rebuilt = Workload::try_new(
            "t",
            SuiteKind::Custom,
            w.kernels().to_vec(),
            vec![w.contexts_of(a).to_vec(), w.contexts_of(late).to_vec()],
            w.invocations().collect(),
        )
        .expect("valid");
        assert_eq!(w, rebuilt);
        assert_eq!(w.num_invocation_groups(), 3);
    }

    fn demo_source() -> WorkloadSource {
        WorkloadSource::new("s", SuiteKind::Custom, 11, |b| {
            let ctxs = vec![
                RuntimeContext::neutral(),
                RuntimeContext::neutral().with_work(2.0),
            ];
            let id = b.add_kernel(KernelClassBuilder::new("k").build(), ctxs);
            b.schedule(id, &ContextSchedule::Weighted(vec![3.0, 1.0]), 1000);
        })
    }

    /// Every suite source (HuggingFace at test scale) and the demo source
    /// stream the content they materialize, and the streamed fingerprint
    /// matches both the materialized one and a plain byte fold.
    #[test]
    fn streaming_matches_materialized() {
        use crate::suites::{
            casio_sources, huggingface_sources, rodinia_sources, HuggingfaceScale,
        };
        let mut sources = vec![demo_source()];
        sources.extend(rodinia_sources(5));
        sources.extend(casio_sources(5));
        sources.extend(huggingface_sources(5, HuggingfaceScale::test()));
        for source in &sources {
            let reference = source.materialize();
            let mut sink = crate::stream::CollectSink::new();
            let summary = source.stream(&mut sink, 64).expect("stream");
            let streamed = sink.into_workload();
            let mut plain = FingerprintFold::of_tables(&reference);
            for inv in reference.invocations() {
                plain.eat_invocation(&inv);
            }
            assert_eq!(streamed, reference, "{}", source.name());
            assert_eq!(
                summary.fingerprint,
                reference.fingerprint(),
                "{}",
                source.name()
            );
            assert_eq!(summary.fingerprint, plain.finish(), "{}", source.name());
            assert_eq!(
                summary.invocations,
                reference.num_invocations() as u64,
                "{}",
                source.name()
            );
        }
        assert_eq!(sources[0].materialize().num_invocations(), 1000);
    }

    /// Every block but the last carries exactly `block_len` invocations,
    /// and the trailing partial block is flushed by `finish_stream`.
    #[test]
    fn streaming_cuts_exact_blocks() {
        struct Counter(Vec<usize>);
        impl crate::stream::BlockSink for Counter {
            fn tables(&mut self, _: &Workload) -> Result<(), crate::stream::SinkError> {
                Ok(())
            }
            fn block(&mut self, invs: &[Invocation]) -> Result<(), crate::stream::SinkError> {
                self.0.push(invs.len());
                Ok(())
            }
        }
        let mut sink = Counter(Vec::new());
        demo_source().stream(&mut sink, 64).expect("stream");
        assert_eq!(sink.0.len(), 16);
        assert!(sink.0[..15].iter().all(|&n| n == 64));
        assert_eq!(sink.0[15], 1000 - 15 * 64);
    }

    #[test]
    fn empty_stream_still_delivers_tables() {
        let source = WorkloadSource::new("empty", SuiteKind::Custom, 3, |b| {
            b.add_kernel(
                KernelClassBuilder::new("k").build(),
                vec![RuntimeContext::neutral()],
            );
        });
        let mut sink = crate::stream::CollectSink::new();
        let summary = source.stream(&mut sink, 64).expect("stream");
        let w = sink.into_workload();
        assert_eq!(summary.invocations, 0);
        assert_eq!(summary.fingerprint, w.fingerprint());
        assert_eq!(w.kernels().len(), 1);
    }

    #[test]
    #[should_panic(expected = "registered after the first invocation")]
    fn streaming_rejects_late_kernel_registration() {
        let mut sink = crate::stream::CollectSink::new();
        let mut b = WorkloadBuilder::streaming("late", SuiteKind::Custom, 1, &mut sink, 8);
        let id = b.add_kernel(
            KernelClassBuilder::new("k").build(),
            vec![RuntimeContext::neutral()],
        );
        b.invoke(id, 0, 1.0);
        b.add_kernel(
            KernelClassBuilder::new("k2").build(),
            vec![RuntimeContext::neutral()],
        );
    }
}
