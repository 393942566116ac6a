//! Block-streaming workload emission: the out-of-core counterpart of
//! materialized [`Workload`](crate::Workload) construction.
//!
//! A *block stream* is the sequence a streaming producer emits: first the
//! workload's frozen tables (a *skeleton* — name, suite, kernel and
//! context tables, zero invocations), then the invocation stream cut into
//! fixed-size blocks. Consumers that only need a left-to-right pass
//! (ground-truth simulation, fingerprinting, the columnar store writer)
//! never hold more than one block in memory.
//!
//! Two sinks live here:
//!
//! * [`ChannelSink`] forwards items into a bounded channel — the producer
//!   half of `stem-par`'s pipelined generate→simulate→fold executor.
//! * `colstore::StoreWriter` (in [`crate::colstore`]) commits blocks to
//!   disk through the `stem-storage` durability contract.

use crate::colstore::ColStoreError;
use crate::error::WorkloadError;
use crate::invocation::Invocation;
use crate::trace::{row_out_of_range, RowFold, Workload};
use std::sync::mpsc::SyncSender;

/// Why a block stream stopped.
#[derive(Debug, Clone, PartialEq)]
pub enum SinkError {
    /// The consumer hung up (a pipelined executor that stopped early);
    /// the producer should stop generating.
    Closed,
    /// The sink's storage commit failed.
    Store(Box<ColStoreError>),
}

impl std::fmt::Display for SinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SinkError::Closed => f.write_str("block stream consumer hung up"),
            SinkError::Store(e) => write!(f, "block stream store error: {e}"),
        }
    }
}

impl std::error::Error for SinkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SinkError::Closed => None,
            SinkError::Store(e) => Some(e.as_ref()),
        }
    }
}

impl From<ColStoreError> for SinkError {
    fn from(e: ColStoreError) -> Self {
        SinkError::Store(Box::new(e))
    }
}

/// What a completed stream produced: enough to key caches and
/// cross-check a consumer without materializing anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSummary {
    /// FNV-1a 64 content fingerprint — identical to
    /// [`Workload::fingerprint`](crate::Workload::fingerprint) of the
    /// materialized equivalent (same fold, same byte order).
    pub fingerprint: u64,
    /// Total invocations emitted.
    pub invocations: u64,
}

/// Receives a block stream: the frozen tables once, then each block of
/// invocations in stream order.
pub trait BlockSink {
    /// Receives the frozen tables as a skeleton workload (validated
    /// kernel/context tables, zero invocations). Called exactly once,
    /// before any block.
    ///
    /// # Errors
    ///
    /// [`SinkError`] if the sink cannot accept the stream.
    fn tables(&mut self, skeleton: &Workload) -> Result<(), SinkError>;

    /// Receives one block of invocations (every block but the last has
    /// exactly the producer's block length).
    ///
    /// # Errors
    ///
    /// [`SinkError`] if the sink cannot accept the block.
    fn block(&mut self, invocations: &[Invocation]) -> Result<(), SinkError>;
}

/// One item of a channel-borne block stream.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamItem {
    /// The frozen tables (always the first item).
    Tables(Workload),
    /// One block of invocations, in stream order.
    Block(Vec<Invocation>),
}

/// A [`BlockSink`] forwarding items into a bounded channel: the producer
/// half of the pipelined generate→simulate→fold executor. A send blocks
/// the producer once the channel holds its capacity in undelivered
/// items — that bound is the pipeline's peak-memory knob.
#[derive(Debug)]
pub struct ChannelSink {
    tx: SyncSender<StreamItem>,
}

impl ChannelSink {
    /// Wraps the sending half of a bounded channel.
    pub fn new(tx: SyncSender<StreamItem>) -> Self {
        ChannelSink { tx }
    }
}

impl BlockSink for ChannelSink {
    fn tables(&mut self, skeleton: &Workload) -> Result<(), SinkError> {
        self.tx
            .send(StreamItem::Tables(skeleton.clone()))
            .map_err(|_| SinkError::Closed)
    }

    fn block(&mut self, invocations: &[Invocation]) -> Result<(), SinkError> {
        self.tx
            .send(StreamItem::Block(invocations.to_vec()))
            .map_err(|_| SinkError::Closed)
    }
}

/// A [`BlockSink`] that materializes the stream back into a [`Workload`],
/// each invocation becoming an 8-byte row as its block arrives: the
/// reference consumer the equivalence tests compare streamed paths
/// against, and the bridge for consumers that genuinely need a whole
/// [`Workload`].
#[derive(Debug, Default)]
pub struct CollectSink {
    /// The stream's tables and its rows so far.
    collected: Option<(Workload, RowFold)>,
    /// The first row outside the tables; `into_workload` reports it.
    bad_row: Option<WorkloadError>,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> Self {
        CollectSink::default()
    }

    /// Assembles the collected stream into a validated [`Workload`].
    ///
    /// # Panics
    ///
    /// Panics if no tables were received or the stream violates table
    /// ranges (producer bug — generation sinks emit validated streams).
    pub fn into_workload(self) -> Workload {
        if let Some(e) = self.bad_row {
            panic!("{e}");
        }
        let Some((skeleton, rows)) = self.collected else {
            panic!("stream sent no tables before its blocks");
        };
        rows.finish_over(skeleton)
    }
}

impl Workload {
    /// Replays this materialized workload as a block stream: skeleton
    /// tables first, then the invocations rebuilt into `block_len`
    /// chunks. Lets every streaming consumer (the pipelined executor,
    /// the columnar store writer) also run off an in-memory workload —
    /// the bridge the streamed-vs-reference equivalence gates use.
    ///
    /// # Errors
    ///
    /// Propagates the sink's [`SinkError`].
    ///
    /// # Panics
    ///
    /// Panics if `block_len` is zero.
    pub fn stream_blocks(
        &self,
        sink: &mut dyn BlockSink,
        block_len: usize,
    ) -> Result<StreamSummary, SinkError> {
        assert!(block_len > 0, "block length must be positive");
        sink.tables(&self.skeleton())?;
        let mut block = Vec::with_capacity(block_len.min(self.num_invocations()));
        let mut invocations = self.invocations();
        loop {
            block.clear();
            block.extend(invocations.by_ref().take(block_len));
            if block.is_empty() {
                break;
            }
            sink.block(&block)?;
        }
        Ok(StreamSummary {
            fingerprint: self.fingerprint(),
            invocations: self.num_invocations() as u64,
        })
    }
}

impl BlockSink for CollectSink {
    fn tables(&mut self, skeleton: &Workload) -> Result<(), SinkError> {
        self.collected = Some((skeleton.clone(), RowFold::of_tables(skeleton)));
        Ok(())
    }

    fn block(&mut self, invocations: &[Invocation]) -> Result<(), SinkError> {
        let Some((skeleton, rows)) = &mut self.collected else {
            panic!("stream sent no tables before its blocks");
        };
        if self.bad_row.is_some() {
            return Ok(());
        }
        for inv in invocations {
            if let Err(e) = rows.push(inv) {
                let i = rows.len();
                self.bad_row = Some(row_out_of_range(
                    skeleton.name(),
                    skeleton.kernels(),
                    i,
                    inv,
                    e,
                ));
                break;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites::rodinia_sources;

    #[test]
    fn stream_blocks_round_trips_through_collect() {
        let w = rodinia_sources(11)[0].materialize();
        let mut sink = CollectSink::new();
        let summary = w.stream_blocks(&mut sink, 64).expect("collect never fails");
        assert_eq!(summary.fingerprint, w.fingerprint());
        assert_eq!(summary.invocations, w.num_invocations() as u64);
        assert_eq!(sink.into_workload(), w);
    }
}
