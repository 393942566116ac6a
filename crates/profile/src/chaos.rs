//! `stem-chaos`: deterministic fault injection for profiler traces.
//!
//! Real profiler stacks (Nsight Systems / NVBit in the paper's setup) emit
//! imperfect traces: dropped or duplicated kernel launches, truncated runs
//! when the profiler dies, reordered records from multi-stream collection,
//! NaN/Inf counters, clock skew between the timestamp source and the timer,
//! and ragged CSV rows from interrupted writes. This module reproduces each
//! of those fault classes *deterministically* — a [`FaultPlan`] is seeded
//! through the in-tree [`stem_stats::rng`] generator, so a chaos run is
//! exactly reproducible from `(seed, plan)` — which makes the robustness
//! suite (`tests/chaos.rs`) as replayable as any other test.
//!
//! The companion [`crate::validate`] module detects and repairs these
//! faults; the taxonomy here and the detectors there are intentionally
//! developed against each other.
//!
//! Beyond *data* faults, [`ExecFaultPlan`] injects **runtime** faults —
//! seeded worker panics by task index, a simulated process kill after N
//! completed campaign units, and checkpoint-snapshot corruption — driving the supervised-execution and crash-resume recovery
//! paths the same way [`FaultPlan`] drives trace repair.
//!
//! [`WireFaultPlan`] completes the set with **wire**-level faults for a
//! line-framed protocol client (truncated frames, garbage lines,
//! mid-response disconnects, slow-loris writers): it plans each exchange
//! as a [`WireExchange`] data value and leaves the socket I/O to the test
//! harness, so the chaos stays deterministic and this crate stays free of
//! network code.

use std::time::Duration;

use stem_stats::rng::{RngExt, SeedableRng, StdRng};

/// One kernel-invocation record in a raw profiler trace.
///
/// `index` is the stream-order launch index assigned by the profiler,
/// `start` the launch timestamp (cycles since trace begin, `NaN` when the
/// back-end reports no timestamps), `time` the reported execution time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Stream-order invocation index assigned by the profiler.
    pub index: u64,
    /// Start timestamp (cycles since trace begin); `NaN` when unavailable.
    pub start: f64,
    /// Reported execution time (cycles).
    pub time: f64,
}

impl TraceRecord {
    /// Builds a clean trace from per-invocation times: indices are
    /// sequential and each invocation starts when the previous one ends —
    /// the back-to-back kernel stream of the paper's NSYS traces.
    pub fn sequence(times: &[f64]) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(times.len());
        let mut start = 0.0;
        for (i, &t) in times.iter().enumerate() {
            out.push(TraceRecord {
                index: i as u64,
                start,
                time: t,
            });
            start += t;
        }
        out
    }
}

/// One fault class from the taxonomy. Fractions are probabilities (or
/// proportions of the trace) in `[0, 1]`; out-of-range values are clamped
/// by the underlying Bernoulli draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Each record independently vanishes with probability `fraction`
    /// (dropped launches under profiler buffer pressure).
    Drop {
        /// Per-record drop probability.
        fraction: f64,
    },
    /// Each record is emitted twice with probability `fraction`
    /// (double-reported launches).
    Duplicate {
        /// Per-record duplication probability.
        fraction: f64,
    },
    /// The trailing `fraction` of the trace is cut off (the profiler died
    /// mid-run).
    TruncateTail {
        /// Proportion of the trace removed from the tail.
        fraction: f64,
    },
    /// About `fraction * len` random record pairs are swapped (out-of-order
    /// delivery from multi-stream collection).
    Reorder {
        /// Proportion of the trace length used as the swap count.
        fraction: f64,
    },
    /// Each reported time becomes `NaN` with probability `fraction`.
    NanTime {
        /// Per-record corruption probability.
        fraction: f64,
    },
    /// Each reported time becomes `+inf` with probability `fraction`.
    InfTime {
        /// Per-record corruption probability.
        fraction: f64,
    },
    /// Each reported time is negated with probability `fraction`
    /// (counter underflow).
    NegativeTime {
        /// Per-record corruption probability.
        fraction: f64,
    },
    /// A contiguous window of `fraction * len` records has its reported
    /// times scaled by `factor` while the start timestamps keep the true
    /// cadence — the classic skew between the timer and timestamp clocks.
    ClockSkew {
        /// Proportion of the trace covered by the skewed window.
        fraction: f64,
        /// Multiplicative skew applied to reported times in the window.
        factor: f64,
    },
    /// Each serialized CSV data row loses its last cell with probability
    /// `fraction` (interrupted writes). Applies in
    /// [`FaultPlan::corrupt_csv`] only; a no-op on in-memory records.
    RaggedRows {
        /// Per-row corruption probability.
        fraction: f64,
    },
}

impl Fault {
    /// Stable, human-readable name of the fault class (for reports/tests).
    pub fn label(&self) -> &'static str {
        match self {
            Fault::Drop { .. } => "drop",
            Fault::Duplicate { .. } => "duplicate",
            Fault::TruncateTail { .. } => "truncate-tail",
            Fault::Reorder { .. } => "reorder",
            Fault::NanTime { .. } => "nan-time",
            Fault::InfTime { .. } => "inf-time",
            Fault::NegativeTime { .. } => "negative-time",
            Fault::ClockSkew { .. } => "clock-skew",
            Fault::RaggedRows { .. } => "ragged-rows",
        }
    }
}

/// A seeded, composable fault recipe: an ordered list of faults of one
/// family — trace data ([`Fault`]), wire ([`WireFault`]) or storage
/// ([`StorageFault`](crate::StorageFault)). Every decision draws from a
/// generator keyed by the plan seed and the fault's position (and, for
/// the wire and storage families, the exchange or operation index), so a
/// plan replays exactly and editing one fault's parameters never perturbs
/// another's draws.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyedPlan<F> {
    seed: u64,
    faults: Vec<F>,
}

/// Trace-data corruption: two applications of the same plan to the same
/// trace produce byte-identical corruption.
pub type FaultPlan = KeyedPlan<Fault>;

/// Wire faults for a line-framed protocol client — the chaos counterpart
/// of [`FaultPlan`] for sockets.
pub type WireFaultPlan = KeyedPlan<WireFault>;

impl<F> KeyedPlan<F> {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        KeyedPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// A single-fault plan — the unit the chaos suites sweep over.
    pub fn single(seed: u64, fault: F) -> Self {
        KeyedPlan {
            seed,
            faults: vec![fault],
        }
    }

    /// Appends a fault to the plan (builder style).
    pub fn with(mut self, fault: F) -> Self {
        self.faults.push(fault);
        self
    }

    /// The faults in application order.
    pub fn faults(&self) -> &[F] {
        &self.faults
    }

    /// The trace plan's per-fault generator, keyed by the plan seed and
    /// the fault's position.
    fn position_rng(&self, position: usize) -> StdRng {
        let mix = (position as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        StdRng::seed_from_u64(self.seed ^ mix)
    }

    /// The wire and storage plans' per-decision generator, keyed by the
    /// plan seed, the fault's position and the exchange or operation
    /// index. Position `usize::MAX` wraps to a stream of its own.
    pub(crate) fn indexed_rng(&self, position: usize, index: u64) -> StdRng {
        let mix = (position as u64)
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(index.wrapping_add(1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        StdRng::seed_from_u64(self.seed ^ mix)
    }
}

impl FaultPlan {
    /// One moderate-severity representative plan per fault class, in a
    /// stable order — the sweep axis of `tests/chaos.rs`.
    pub fn all_classes(seed: u64) -> Vec<FaultPlan> {
        [
            Fault::Drop { fraction: 0.1 },
            Fault::Duplicate { fraction: 0.1 },
            Fault::TruncateTail { fraction: 0.2 },
            Fault::Reorder { fraction: 0.25 },
            Fault::NanTime { fraction: 0.05 },
            Fault::InfTime { fraction: 0.05 },
            Fault::NegativeTime { fraction: 0.05 },
            Fault::ClockSkew {
                fraction: 0.1,
                factor: 8.0,
            },
            Fault::RaggedRows { fraction: 0.1 },
        ]
        .into_iter()
        .map(|f| FaultPlan::single(seed, f))
        .collect()
    }

    /// Corrupts an in-memory trace. Record-level faults apply in plan
    /// order; [`Fault::RaggedRows`] is CSV-level and skipped here. The
    /// output always retains at least one record (a trace that vanished
    /// entirely is a missing-file problem, not a data-quality one).
    pub fn apply(&self, records: &[TraceRecord]) -> Vec<TraceRecord> {
        let mut out = records.to_vec();
        for (i, fault) in self.faults.iter().enumerate() {
            let mut rng = self.position_rng(i);
            out = apply_one(fault, &mut rng, out);
        }
        out
    }

    /// Corrupts a serialized CSV document: applies every
    /// [`Fault::RaggedRows`] in the plan to the data rows (comment and
    /// header lines pass through untouched). Other fault classes are
    /// record-level and skipped here.
    pub fn corrupt_csv(&self, csv: &str) -> String {
        let mut text = csv.to_string();
        for (i, fault) in self.faults.iter().enumerate() {
            let Fault::RaggedRows { fraction } = *fault else {
                continue;
            };
            let mut rng = self.position_rng(i);
            let mut out = String::with_capacity(text.len());
            let mut seen_header = false;
            for line in text.lines() {
                if line.starts_with('#') || line.trim().is_empty() || !seen_header {
                    if !line.starts_with('#') && !line.trim().is_empty() {
                        seen_header = true;
                    }
                    out.push_str(line);
                } else if rng.random_bool(fraction) {
                    match line.rfind(',') {
                        Some(pos) => out.push_str(&line[..pos]),
                        None => out.push_str(line),
                    }
                } else {
                    out.push_str(line);
                }
                out.push('\n');
            }
            text = out;
        }
        text
    }
}

fn apply_one(fault: &Fault, rng: &mut StdRng, mut records: Vec<TraceRecord>) -> Vec<TraceRecord> {
    if records.is_empty() {
        return records;
    }
    match *fault {
        Fault::Drop { fraction } => {
            let kept: Vec<TraceRecord> = records
                .iter()
                .copied()
                .filter(|_| !rng.random_bool(fraction))
                .collect();
            if kept.is_empty() {
                records.truncate(1);
                records
            } else {
                kept
            }
        }
        Fault::Duplicate { fraction } => {
            let mut out = Vec::with_capacity(records.len() + records.len() / 4);
            for r in &records {
                out.push(*r);
                if rng.random_bool(fraction) {
                    out.push(*r);
                }
            }
            out
        }
        Fault::TruncateTail { fraction } => {
            let keep = ((records.len() as f64) * (1.0 - fraction)).ceil() as usize;
            records.truncate(keep.clamp(1, records.len()));
            records
        }
        Fault::Reorder { fraction } => {
            if records.len() >= 2 {
                let swaps = ((records.len() as f64 * fraction).ceil() as usize).max(1);
                for _ in 0..swaps {
                    let a = rng.random_range(0..records.len());
                    let b = rng.random_range(0..records.len());
                    records.swap(a, b);
                }
            }
            records
        }
        Fault::NanTime { fraction } => {
            for r in &mut records {
                if rng.random_bool(fraction) {
                    r.time = f64::NAN;
                }
            }
            records
        }
        Fault::InfTime { fraction } => {
            for r in &mut records {
                if rng.random_bool(fraction) {
                    r.time = f64::INFINITY;
                }
            }
            records
        }
        Fault::NegativeTime { fraction } => {
            for r in &mut records {
                if rng.random_bool(fraction) {
                    r.time = -r.time.abs();
                }
            }
            records
        }
        Fault::ClockSkew { fraction, factor } => {
            let len = records.len();
            let window = ((len as f64 * fraction).ceil() as usize).clamp(1, len);
            let first = if len > window {
                rng.random_range(0..len - window + 1)
            } else {
                0
            };
            for r in &mut records[first..first + window] {
                r.time *= factor;
            }
            records
        }
        Fault::RaggedRows { .. } => records,
    }
}

/// One way to damage a serialized campaign snapshot. Applied by
/// [`ExecFaultPlan::corrupt_snapshot`]; the crash-resume machinery must
/// detect every one of these, quarantine the file, and fall back to a
/// fresh run — never trust the damaged bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotFault {
    /// The trailing half of the file is cut off (process died mid-write of
    /// a non-atomic copy, disk full, …).
    TruncateTail,
    /// One seeded byte is flipped (bit rot, torn sector).
    FlipByte,
    /// The version header is rewritten to an unknown future version (a
    /// snapshot left behind by a newer build).
    StaleVersion,
}

/// A seeded plan of *runtime* faults, the execution-level counterpart of
/// [`FaultPlan`]: worker panics keyed by task index, a simulated process
/// kill after N completed campaign units, and snapshot corruption. Every decision derives from `(seed, task index)` — never
/// from worker identity or timing — so a chaos run replays exactly and is
/// thread-count-invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecFaultPlan {
    seed: u64,
    panic_fraction: f64,
    /// Injected panics fire while `attempt < panic_attempts`; a retry
    /// budget at least this large recovers every injected panic.
    panic_attempts: u32,
    kill_after_units: Option<u64>,
    snapshot_faults: Vec<SnapshotFault>,
}

impl ExecFaultPlan {
    /// An empty plan (no runtime faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        ExecFaultPlan {
            seed,
            panic_fraction: 0.0,
            panic_attempts: 0,
            kill_after_units: None,
            snapshot_faults: Vec::new(),
        }
    }

    /// Each task panics with probability `fraction` (seeded by task index)
    /// on its first `attempts` attempts, then succeeds — a transient fault
    /// a retry budget of `attempts` absorbs completely. `attempts` of
    /// `u32::MAX` makes the fault permanent.
    pub fn with_worker_panics(mut self, fraction: f64, attempts: u32) -> Self {
        self.panic_fraction = fraction;
        self.panic_attempts = attempts;
        self
    }

    /// Simulates the process dying mid-campaign: after `units` campaign
    /// units have been admitted, no further unit starts. Admitted units
    /// run to completion and are checkpointed (like a graceful SIGTERM
    /// draining in-flight work), then the campaign returns a typed
    /// interruption error. Admission-based gating keeps the kill point
    /// deterministic at every thread count.
    pub fn with_kill_after_units(mut self, units: u64) -> Self {
        self.kill_after_units = Some(units);
        self
    }

    /// Appends a snapshot corruption (applied by
    /// [`ExecFaultPlan::corrupt_snapshot`], in order).
    pub fn with_snapshot_fault(mut self, fault: SnapshotFault) -> Self {
        self.snapshot_faults.push(fault);
        self
    }

    /// The simulated-kill budget, if any.
    pub fn kill_after_units(&self) -> Option<u64> {
        self.kill_after_units
    }

    /// Whether the plan injects a panic into `(task, attempt)`. Pure in
    /// `(seed, task)` with an attempt cutoff, so retries of a transient
    /// fault deterministically succeed.
    pub fn panics_at(&self, task: u64, attempt: u32) -> bool {
        attempt < self.panic_attempts && self.coin(task, 0xFA_117).random_bool(self.panic_fraction)
    }

    /// Injects this plan's per-task fault: a panic, if one is planned.
    ///
    /// An injected panic unwinds via [`std::panic::panic_any`] with a
    /// `String` payload (not the `panic!` macro: injection is a deliberate,
    /// typed test stimulus for the supervisor, not an ingestion-path
    /// assertion), so the supervisor reports the message verbatim.
    pub fn inject(&self, task: u64, attempt: u32) {
        if self.panics_at(task, attempt) {
            std::panic::panic_any(format!(
                "injected worker panic: task {task}, attempt {attempt}"
            ));
        }
    }

    /// Applies every queued [`SnapshotFault`] to a serialized snapshot, in
    /// order. Corruption is seeded: the same plan damages the same bytes.
    pub fn corrupt_snapshot(&self, snapshot: &str) -> String {
        let mut text = snapshot.to_string();
        for (i, fault) in self.snapshot_faults.iter().enumerate() {
            let mut rng = self.coin(i as u64, 0x5A_9F);
            text = match fault {
                SnapshotFault::TruncateTail => {
                    let keep = text.len() / 2;
                    let mut cut = keep;
                    while cut > 0 && !text.is_char_boundary(cut) {
                        cut -= 1;
                    }
                    text[..cut].to_string()
                }
                SnapshotFault::FlipByte => {
                    let mut bytes = text.into_bytes();
                    if !bytes.is_empty() {
                        let pos = rng.random_range(0..bytes.len());
                        // Flip within the ASCII printable range so the
                        // result stays valid UTF-8 but fails the checksum.
                        bytes[pos] = if bytes[pos] == b'0' { b'1' } else { b'0' };
                    }
                    String::from_utf8_lossy(&bytes).into_owned()
                }
                SnapshotFault::StaleVersion => {
                    let mut lines: Vec<&str> = text.lines().collect();
                    let futured;
                    if let Some(first) = lines.first_mut() {
                        futured = format!("{} v999", first.split(" v").next().unwrap_or(first));
                        *first = &futured;
                    }
                    let mut out = lines.join("\n");
                    out.push('\n');
                    out
                }
            };
        }
        text
    }

    /// Decorrelated per-decision generator: the stream depends on the plan
    /// seed, the task index, and the fault family, so panic and snapshot
    /// draws never alias.
    fn coin(&self, task: u64, family: u64) -> StdRng {
        let mix = (task.wrapping_add(1))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(family.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        StdRng::seed_from_u64(self.seed ^ mix)
    }
}

/// One way a misbehaving client can damage a line-framed protocol
/// exchange. The *wire*-level counterpart of [`Fault`] (data) and
/// [`ExecFaultPlan`]'s runtime faults: a robust server must survive every
/// one of these without corrupting other tenants' sessions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireFault {
    /// The request frame is cut off before its newline with probability
    /// `fraction` (client died mid-write; the server must not block
    /// forever waiting for the frame to finish).
    TruncateFrame {
        /// Per-exchange truncation probability.
        fraction: f64,
    },
    /// The request is replaced by a seeded garbage line with probability
    /// `fraction` (a confused client, or line noise; the server must
    /// answer with a protocol error, not die).
    GarbageLine {
        /// Per-exchange corruption probability.
        fraction: f64,
    },
    /// The client hangs up right after writing, before reading the
    /// response, with probability `fraction` (the server's write fails
    /// with a broken pipe it must absorb).
    DisconnectMidResponse {
        /// Per-exchange disconnect probability.
        fraction: f64,
    },
    /// The client dribbles the request out byte-by-byte with `delay`
    /// between writes, with probability `fraction` (a slow-loris writer;
    /// bounded read timeouts must reclaim the connection).
    SlowWriter {
        /// Per-exchange slow-write probability.
        fraction: f64,
        /// Pause between written chunks.
        delay: Duration,
    },
}

impl WireFault {
    /// Stable, human-readable name of the fault class (for reports/tests).
    pub fn label(&self) -> &'static str {
        match self {
            WireFault::TruncateFrame { .. } => "truncate-frame",
            WireFault::GarbageLine { .. } => "garbage-line",
            WireFault::DisconnectMidResponse { .. } => "disconnect-mid-response",
            WireFault::SlowWriter { .. } => "slow-writer",
        }
    }
}

/// How a chaos client should perform one protocol exchange: the (possibly
/// damaged) bytes to write, how to pace them, and whether to hang up
/// before reading the response. Produced by [`WireFaultPlan::exchange`];
/// the test harness owns the actual socket I/O, keeping this crate free of
/// network code.
#[derive(Debug, Clone, PartialEq)]
pub struct WireExchange {
    /// Bytes to write for this exchange (a clean exchange is the request
    /// line plus `\n`).
    pub payload: Vec<u8>,
    /// When set, write one byte at a time with this pause between writes.
    pub chunk_delay: Option<Duration>,
    /// When true, close the connection right after writing, without
    /// reading the response.
    pub disconnect_after_write: bool,
}

impl WireFaultPlan {
    /// One always-firing representative plan per wire fault class, in a
    /// stable order — the sweep axis of the serve chaos tests.
    pub fn all_classes(seed: u64) -> Vec<WireFaultPlan> {
        [
            WireFault::TruncateFrame { fraction: 1.0 },
            WireFault::GarbageLine { fraction: 1.0 },
            WireFault::DisconnectMidResponse { fraction: 1.0 },
            WireFault::SlowWriter {
                fraction: 1.0,
                delay: Duration::from_millis(1),
            },
        ]
        .into_iter()
        .map(|f| WireFaultPlan::single(seed, f))
        .collect()
    }

    /// Plans the `index`-th exchange of `request` (one protocol line,
    /// without its newline): starts from the clean framed request and
    /// applies each fault in plan order. Deterministic in
    /// `(seed, position, index)`.
    pub fn exchange(&self, index: u64, request: &str) -> WireExchange {
        let mut ex = WireExchange {
            payload: format!("{request}\n").into_bytes(),
            chunk_delay: None,
            disconnect_after_write: false,
        };
        for (pos, fault) in self.faults.iter().enumerate() {
            let mut rng = self.indexed_rng(pos, index);
            match *fault {
                WireFault::TruncateFrame { fraction } => {
                    if rng.random_bool(fraction) && !ex.payload.is_empty() {
                        // Cut before the newline so the frame never ends.
                        let keep = (ex.payload.len() - 1).div_ceil(2);
                        ex.payload.truncate(keep);
                        // A frameless client has nothing to read back.
                        ex.disconnect_after_write = true;
                    }
                }
                WireFault::GarbageLine { fraction } => {
                    if rng.random_bool(fraction) {
                        let len = rng.random_range(1..40usize);
                        let mut junk = Vec::with_capacity(len + 1);
                        for _ in 0..len {
                            // Printable non-space ASCII that can never
                            // spell a protocol keyword's first byte.
                            junk.push(rng.random_range(0x21..0x41u64) as u8);
                        }
                        junk.push(b'\n');
                        ex.payload = junk;
                    }
                }
                WireFault::DisconnectMidResponse { fraction } => {
                    if rng.random_bool(fraction) {
                        ex.disconnect_after_write = true;
                    }
                }
                WireFault::SlowWriter { fraction, delay } => {
                    if rng.random_bool(fraction) {
                        ex.chunk_delay = Some(delay);
                    }
                }
            }
        }
        ex
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean(n: usize) -> Vec<TraceRecord> {
        TraceRecord::sequence(&(1..=n).map(|i| i as f64).collect::<Vec<_>>())
    }

    /// Bitwise trace equality: `PartialEq` on f64 makes NaN != NaN, but a
    /// deterministic corruptor must reproduce NaNs in the same places too.
    fn identical(a: &[TraceRecord], b: &[TraceRecord]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.index == y.index
                    && x.start.to_bits() == y.start.to_bits()
                    && x.time.to_bits() == y.time.to_bits()
            })
    }

    /// FNV-1a over 64-bit words: a compact pin for long decision streams.
    fn digest(words: &[u64]) -> u64 {
        words.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| {
            (h ^ w).wrapping_mul(0x100_0000_01b3)
        })
    }

    #[test]
    fn plan_decisions_are_pinned() {
        // Digests of every decision the trace and wire plans make for a few
        // seeds and exchange indices, computed before the three plan types
        // became one: the shared keying must draw the same bits.
        let mut trace = Vec::new();
        let mut wire = Vec::new();
        for seed in [0u64, 7, 0xC0FFEE] {
            for plan in FaultPlan::all_classes(seed) {
                for r in plan.apply(&clean(64)) {
                    trace.extend([r.index, r.start.to_bits(), r.time.to_bits()]);
                }
            }
            let csv = "index,time\n0,1.5\n1,2.5\n2,3.5\n3,4.5\n4,5.5\n5,6.5\n";
            trace.extend(
                FaultPlan::single(seed, Fault::RaggedRows { fraction: 0.5 })
                    .corrupt_csv(csv)
                    .bytes()
                    .map(u64::from),
            );
            let mixed = WireFaultPlan::new(seed)
                .with(WireFault::TruncateFrame { fraction: 0.3 })
                .with(WireFault::GarbageLine { fraction: 0.3 })
                .with(WireFault::DisconnectMidResponse { fraction: 0.3 })
                .with(WireFault::SlowWriter {
                    fraction: 0.3,
                    delay: Duration::from_millis(2),
                });
            for plan in WireFaultPlan::all_classes(seed).into_iter().chain([mixed]) {
                for i in 0..16u64 {
                    let ex = plan.exchange(i, "STATUS 42");
                    wire.extend(ex.payload.iter().map(|&b| u64::from(b)));
                    wire.push(ex.chunk_delay.map_or(0, |d| d.as_nanos() as u64 + 1));
                    wire.push(u64::from(ex.disconnect_after_write));
                }
            }
        }
        assert_eq!(digest(&trace), 0x8ad3_ee5c_6224_5c3e);
        assert_eq!(digest(&wire), 0x5e4d_1e60_f148_5b58);
    }

    #[test]
    fn sequence_builds_back_to_back_stream() {
        let recs = TraceRecord::sequence(&[2.0, 3.0, 5.0]);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].start, 0.0);
        assert_eq!(recs[1].start, 2.0);
        assert_eq!(recs[2].start, 5.0);
        assert_eq!(recs[2].index, 2);
    }

    #[test]
    fn plans_are_deterministic() {
        let recs = clean(200);
        for plan in FaultPlan::all_classes(42) {
            assert!(
                identical(&plan.apply(&recs), &plan.apply(&recs)),
                "{}",
                plan.faults()[0].label()
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let recs = clean(200);
        let a = FaultPlan::single(1, Fault::Drop { fraction: 0.5 }).apply(&recs);
        let b = FaultPlan::single(2, Fault::Drop { fraction: 0.5 }).apply(&recs);
        assert_ne!(a, b);
    }

    #[test]
    fn drop_removes_but_never_empties() {
        let recs = clean(100);
        let out = FaultPlan::single(7, Fault::Drop { fraction: 0.3 }).apply(&recs);
        assert!(out.len() < recs.len());
        assert!(!out.is_empty());
        let all = FaultPlan::single(7, Fault::Drop { fraction: 1.0 }).apply(&recs);
        assert_eq!(all.len(), 1);
    }

    #[test]
    fn duplicate_repeats_records() {
        let recs = clean(100);
        let out = FaultPlan::single(7, Fault::Duplicate { fraction: 0.3 }).apply(&recs);
        assert!(out.len() > recs.len());
        // Duplicates are adjacent and identical.
        let dup = out.windows(2).find(|w| w[0] == w[1]);
        assert!(dup.is_some());
    }

    #[test]
    fn truncate_cuts_tail() {
        let recs = clean(100);
        let out = FaultPlan::single(7, Fault::TruncateTail { fraction: 0.25 }).apply(&recs);
        assert_eq!(out.len(), 75);
        assert_eq!(out[74].index, 74);
    }

    #[test]
    fn reorder_permutes_without_loss() {
        let recs = clean(100);
        let out = FaultPlan::single(7, Fault::Reorder { fraction: 0.5 }).apply(&recs);
        assert_eq!(out.len(), recs.len());
        let mut sorted = out.clone();
        sorted.sort_by_key(|r| r.index);
        assert_eq!(sorted, recs);
        assert_ne!(out, recs);
    }

    #[test]
    fn time_corruptions_hit_some_records() {
        let recs = clean(200);
        let nan = FaultPlan::single(7, Fault::NanTime { fraction: 0.1 }).apply(&recs);
        assert!(nan.iter().any(|r| r.time.is_nan()));
        let inf = FaultPlan::single(7, Fault::InfTime { fraction: 0.1 }).apply(&recs);
        assert!(inf.iter().any(|r| r.time.is_infinite()));
        let neg = FaultPlan::single(7, Fault::NegativeTime { fraction: 0.1 }).apply(&recs);
        assert!(neg.iter().any(|r| r.time < 0.0));
    }

    #[test]
    fn clock_skew_scales_a_window_but_keeps_starts() {
        let recs = clean(100);
        let out = FaultPlan::single(
            7,
            Fault::ClockSkew {
                fraction: 0.1,
                factor: 10.0,
            },
        )
        .apply(&recs);
        let skewed = out
            .iter()
            .zip(&recs)
            .filter(|(a, b)| (a.time - b.time).abs() > 1e-9)
            .count();
        assert_eq!(skewed, 10);
        for (a, b) in out.iter().zip(&recs) {
            assert_eq!(a.start, b.start, "skew must not touch timestamps");
        }
    }

    #[test]
    fn ragged_rows_is_record_level_noop_but_corrupts_csv() {
        let recs = clean(50);
        let plan = FaultPlan::single(7, Fault::RaggedRows { fraction: 0.3 });
        assert_eq!(plan.apply(&recs), recs);
        let csv = crate::validate::trace_to_csv(&recs);
        let bad = plan.corrupt_csv(&csv);
        assert_ne!(bad, csv);
        // Header intact, some data rows lost a cell.
        let mut lines = bad.lines();
        assert_eq!(lines.next(), Some("index,start,time"));
        assert!(lines.any(|l| l.split(',').count() == 2));
    }

    #[test]
    fn exec_panic_decisions_are_deterministic_and_attempt_bounded() {
        let plan = ExecFaultPlan::new(0xEC0).with_worker_panics(0.3, 2);
        let hit: Vec<u64> = (0..200).filter(|&t| plan.panics_at(t, 0)).collect();
        assert!(
            !hit.is_empty() && hit.len() < 200,
            "fraction ~0.3: {}",
            hit.len()
        );
        for &t in &hit {
            assert!(
                plan.panics_at(t, 1),
                "fault persists through its attempt budget"
            );
            assert!(
                !plan.panics_at(t, 2),
                "fault clears past the attempt budget"
            );
        }
        let replay: Vec<u64> = (0..200).filter(|&t| plan.panics_at(t, 0)).collect();
        assert_eq!(hit, replay);
        let other: Vec<u64> = {
            let p = ExecFaultPlan::new(0xEC1).with_worker_panics(0.3, 2);
            (0..200).filter(|&t| p.panics_at(t, 0)).collect()
        };
        assert_ne!(hit, other, "different seeds must pick different tasks");
    }

    #[test]
    fn inject_unwinds_with_a_string_payload() {
        let plan = ExecFaultPlan::new(3).with_worker_panics(1.0, 1);
        let caught = std::panic::catch_unwind(|| plan.inject(7, 0)).expect_err("must panic");
        let msg = caught.downcast_ref::<String>().expect("String payload");
        assert_eq!(msg, "injected worker panic: task 7, attempt 0");
        // Past the attempt budget the same task runs clean.
        plan.inject(7, 1);
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = ExecFaultPlan::new(3);
        for t in 0..50 {
            plan.inject(t, 0);
        }
        assert_eq!(plan.kill_after_units(), None);
        assert_eq!(
            ExecFaultPlan::new(3)
                .with_kill_after_units(4)
                .kill_after_units(),
            Some(4)
        );
    }

    #[test]
    fn snapshot_corruptions_damage_and_replay() {
        let snapshot =
            "STEM-CAMPAIGN-SNAPSHOT v1\nfingerprint 00ff\nunit 0 0 1 2 3 4\nchecksum abcd\n";
        for fault in [
            SnapshotFault::TruncateTail,
            SnapshotFault::FlipByte,
            SnapshotFault::StaleVersion,
        ] {
            let plan = ExecFaultPlan::new(11).with_snapshot_fault(fault);
            let bad = plan.corrupt_snapshot(snapshot);
            assert_ne!(bad, snapshot, "{fault:?} left the snapshot intact");
            assert_eq!(bad, plan.corrupt_snapshot(snapshot), "{fault:?} not seeded");
        }
        let stale = ExecFaultPlan::new(11)
            .with_snapshot_fault(SnapshotFault::StaleVersion)
            .corrupt_snapshot(snapshot);
        assert!(
            stale.starts_with("STEM-CAMPAIGN-SNAPSHOT v999\n"),
            "{stale}"
        );
    }

    #[test]
    fn wire_plans_are_deterministic_and_cover_every_class() {
        let plans = WireFaultPlan::all_classes(0x31E);
        assert_eq!(plans.len(), 4);
        for plan in &plans {
            for index in 0..20 {
                let a = plan.exchange(index, "STATUS t1 0");
                let b = plan.exchange(index, "STATUS t1 0");
                assert_eq!(a, b, "{} not seeded", plan.faults()[0].label());
            }
        }
    }

    #[test]
    fn wire_truncate_cuts_frame_before_newline() {
        let plan = WireFaultPlan::single(5, WireFault::TruncateFrame { fraction: 1.0 });
        let ex = plan.exchange(0, "SUBMIT t1 rodinia 33 0 2 1");
        assert!(!ex.payload.contains(&b'\n'), "frame must stay unterminated");
        assert!(!ex.payload.is_empty());
        assert!(ex.disconnect_after_write);
    }

    #[test]
    fn wire_garbage_replaces_line_but_keeps_framing() {
        let plan = WireFaultPlan::single(5, WireFault::GarbageLine { fraction: 1.0 });
        let ex = plan.exchange(3, "STATUS t1 0");
        assert_eq!(ex.payload.last(), Some(&b'\n'));
        let line = &ex.payload[..ex.payload.len() - 1];
        assert!(!line.is_empty());
        assert!(line.iter().all(|&b| (0x21..0x41).contains(&b)), "{line:?}");
        assert_ne!(ex.payload, b"STATUS t1 0\n");
    }

    #[test]
    fn wire_disconnect_and_slow_writer_set_flags_only() {
        let dis = WireFaultPlan::single(5, WireFault::DisconnectMidResponse { fraction: 1.0 })
            .exchange(0, "RESULT t1 0");
        assert_eq!(dis.payload, b"RESULT t1 0\n");
        assert!(dis.disconnect_after_write);
        assert_eq!(dis.chunk_delay, None);
        let slow = WireFaultPlan::single(
            5,
            WireFault::SlowWriter {
                fraction: 1.0,
                delay: Duration::from_millis(2),
            },
        )
        .exchange(0, "PING");
        assert_eq!(slow.payload, b"PING\n");
        assert_eq!(slow.chunk_delay, Some(Duration::from_millis(2)));
        assert!(!slow.disconnect_after_write);
    }

    #[test]
    fn wire_fractional_faults_hit_some_exchanges_and_seeds_differ() {
        let plan = WireFaultPlan::single(9, WireFault::GarbageLine { fraction: 0.4 });
        let hit: Vec<u64> = (0..100)
            .filter(|&i| plan.exchange(i, "PING").payload != b"PING\n")
            .collect();
        assert!(!hit.is_empty() && hit.len() < 100, "{}", hit.len());
        let other = WireFaultPlan::single(10, WireFault::GarbageLine { fraction: 0.4 });
        let hit2: Vec<u64> = (0..100)
            .filter(|&i| other.exchange(i, "PING").payload != b"PING\n")
            .collect();
        assert_ne!(hit, hit2, "different seeds must pick different exchanges");
    }

    #[test]
    fn wire_faults_compose_in_order() {
        let plan = WireFaultPlan::new(7)
            .with(WireFault::SlowWriter {
                fraction: 1.0,
                delay: Duration::from_millis(1),
            })
            .with(WireFault::DisconnectMidResponse { fraction: 1.0 });
        let ex = plan.exchange(0, "CANCEL t1 0");
        assert_eq!(ex.chunk_delay, Some(Duration::from_millis(1)));
        assert!(ex.disconnect_after_write);
        assert_eq!(ex.payload, b"CANCEL t1 0\n");
    }

    #[test]
    fn faults_compose_in_order() {
        let recs = clean(100);
        let plan = FaultPlan::new(9)
            .with(Fault::Drop { fraction: 0.1 })
            .with(Fault::Duplicate { fraction: 0.1 })
            .with(Fault::NanTime { fraction: 0.05 });
        let out = plan.apply(&recs);
        assert!(identical(&plan.apply(&recs), &out));
        assert!(!out.is_empty());
    }
}
