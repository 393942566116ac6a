//! The workload container: a kernel table, per-kernel context tables, and
//! the invocation stream.

use crate::context::RuntimeContext;
use crate::error::{WorkloadError, WorkloadErrorKind};
use crate::invocation::{Invocation, KernelId};
use crate::kernel::KernelClass;
use std::collections::{BTreeMap, HashMap};
use stem_storage::sealed::{fnv1a64_fold, FNV_OFFSET, FNV_PRIME};

/// Which benchmark suite a workload belongs to (drives evaluation
/// aggregation and default sampling rates for the Random baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuiteKind {
    /// Small irregular GPGPU/HPC workloads (Rodinia 3.1).
    Rodinia,
    /// State-of-the-art ML training/inference (CASIO).
    Casio,
    /// Large-scale LLM/ML serving (HuggingFace models).
    Huggingface,
    /// Hand-built workloads.
    Custom,
}

impl std::fmt::Display for SuiteKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SuiteKind::Rodinia => "rodinia",
            SuiteKind::Casio => "casio",
            SuiteKind::Huggingface => "huggingface",
            SuiteKind::Custom => "custom",
        };
        f.write_str(s)
    }
}

/// A complete GPU workload as seen by a kernel-level sampler.
///
/// The invocation stream is held as one 8-byte [`Row`] per call (its
/// timing group and its noise bits) beside a per-group [`GroupKey`] table
/// (kernel, context, work-scale bits): a call's group fixes every field
/// but its noise draw, so [`Workload::invocation`] rebuilds each
/// [`Invocation`] bit for bit from the two.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    name: String,
    suite: SuiteKind,
    kernels: Vec<KernelClass>,
    /// `contexts[k]` are the runtime contexts of kernel `k`.
    contexts: Vec<Vec<RuntimeContext>>,
    /// `rows[i]` is invocation `i`: its timing group and its noise bits.
    /// Invocations sharing `(kernel, context, work_scale)` are
    /// timing-identical up to their noise draw, so simulators precompute
    /// per group and stream the per-invocation jitter. The first
    /// occurrence of a key mints the next id, so ids follow stream order.
    rows: Vec<Row>,
    /// `groups[g]` is what timing group `g` fixes.
    groups: Vec<GroupKey>,
    /// `group_representatives[g]` is the lowest invocation index in group `g`.
    group_representatives: Vec<usize>,
    /// FNV-1a 64 over the full workload content (name, suite, kernel and
    /// context tables, invocation stream), computed once at construction.
    /// Lets downstream caches key derived artifacts (profiles, clusterings)
    /// by workload identity without rehashing the stream per lookup.
    fingerprint: u64,
}

/// One materialized invocation: its timing group and the bits of its
/// noise draw, 8 bytes. The group's [`GroupKey`] holds the other fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Row {
    /// Timing group id: an index into [`Workload::group_keys`].
    pub group: u32,
    /// `noise_z.to_bits()` of the invocation.
    pub noise_bits: u32,
}

impl Row {
    /// The invocation's standard-normal jitter draw.
    #[inline]
    pub fn noise_z(self) -> f32 {
        f32::from_bits(self.noise_bits)
    }
}

/// What a timing group fixes: every field of its invocations but the
/// noise draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupKey {
    /// Which kernel class the group's invocations launch.
    pub kernel: KernelId,
    /// Their runtime context, an index into the kernel's context table.
    pub context: u16,
    /// `work_scale.to_bits()` of their extra work multiplier.
    pub work_bits: u32,
}

impl GroupKey {
    /// The group's invocation with noise draw bits `noise_bits`.
    #[inline]
    pub fn invocation(self, noise_bits: u32) -> Invocation {
        Invocation {
            kernel: self.kernel,
            context: self.context,
            work_scale: f32::from_bits(self.work_bits),
            noise_z: f32::from_bits(noise_bits),
        }
    }
}

/// The invocation stream of a [`Workload`], each [`Invocation`] rebuilt
/// from its row and its group's key; see [`Workload::invocations`].
#[derive(Debug, Clone)]
pub struct Invocations<'a> {
    rows: std::slice::Iter<'a, Row>,
    groups: &'a [GroupKey],
}

impl Iterator for Invocations<'_> {
    type Item = Invocation;

    #[inline]
    fn next(&mut self) -> Option<Invocation> {
        let row = self.rows.next()?;
        Some(self.groups[row.group as usize].invocation(row.noise_bits))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

impl ExactSizeIterator for Invocations<'_> {}

/// Incremental FNV-1a 64 fold over a workload's content, in the exact
/// byte order [`Workload::fingerprint`] uses: first the header (name,
/// suite, kernel and context tables), then each invocation's raw fields
/// in stream order. Because FNV-1a is a plain left-to-right byte fold,
/// a block-streamed workload can compute its fingerprint one invocation
/// at a time without ever materializing the stream — feeding the same
/// header and the same invocations in the same order yields the same
/// hash as the materialized constructor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FingerprintFold {
    h: u64,
}

impl FingerprintFold {
    /// A fresh fold at the FNV-1a offset basis.
    pub fn new() -> Self {
        FingerprintFold { h: FNV_OFFSET }
    }

    #[inline]
    fn eat(&mut self, bytes: &[u8]) {
        self.h = fnv1a64_fold(self.h, bytes);
    }

    /// Folds the workload header: name, then the `Debug` form of the
    /// suite and the kernel/context tables (f64 `Debug` is the shortest
    /// round-trip representation, so distinct values hash distinctly).
    /// Must be called exactly once, before any invocation.
    pub fn eat_header(
        &mut self,
        name: &str,
        suite: SuiteKind,
        kernels: &[KernelClass],
        contexts: &[Vec<RuntimeContext>],
    ) {
        self.eat(name.as_bytes());
        self.eat(format!("{suite:?}{kernels:?}{contexts:?}").as_bytes());
    }

    /// A fold that has already eaten `workload`'s header (name, suite,
    /// kernel and context tables): the starting state for re-folding the
    /// invocation stream of `workload`, or of any block stream carrying
    /// its tables.
    pub fn of_tables(workload: &Workload) -> Self {
        let mut fold = FingerprintFold::new();
        fold.eat_header(
            &workload.name,
            workload.suite,
            &workload.kernels,
            &workload.contexts,
        );
        fold
    }

    /// Folds one invocation's raw fields (`work_scale`/`noise_z` by bit
    /// pattern), in stream order.
    #[inline]
    pub fn eat_invocation(&mut self, inv: &Invocation) {
        self.eat_row(
            inv.kernel.0.to_le_bytes(),
            inv.context.to_le_bytes(),
            inv.work_scale.to_bits().to_le_bytes(),
            inv.noise_z.to_bits().to_le_bytes(),
        );
    }

    /// Folds one invocation given as the little-endian bytes of its four
    /// fields — exactly the bytes [`FingerprintFold::eat_invocation`]
    /// folds, so a column-major reader can fingerprint rows straight from
    /// its raw column slices without decoding them first.
    #[inline]
    pub fn eat_row(&mut self, kernel: [u8; 4], context: [u8; 2], work: [u8; 4], noise: [u8; 4]) {
        self.eat(&kernel);
        self.eat(&context);
        self.eat(&work);
        self.eat(&noise);
    }

    /// The fingerprint of everything folded so far.
    pub fn finish(&self) -> u64 {
        self.h
    }
}

impl Default for FingerprintFold {
    fn default() -> Self {
        FingerprintFold::new()
    }
}

/// Bytes at the head of a folded row that its timing group fixes:
/// kernel (4), context (2) and work-scale bits (4).
const PREFIX_LEN: u32 = 10;

/// `FNV_PRIME^PREFIX_LEN` (mod 2^64).
const PRIME_POW_PREFIX: u64 = FNV_PRIME.wrapping_pow(PREFIX_LEN);

/// Prefix tables one [`MemoFold`] keeps; a row's table is picked by its
/// key (a timing group id or a `(kernel, context)` slot) modulo this.
/// This bounds a memo's memory to `MEMO_TABLES` tables of 2 096 bytes
/// (256 folded tails, a 256-bit fill mask and the prefix tag), 131 KiB in
/// all, whatever the stream length or table sizes. A row whose table is tagged with another prefix
/// retags it; each low byte it then meets costs one plain prefix fold.
pub const MEMO_TABLES: usize = 64;

/// One memo table: `tail[l] = fnv(l, prefix) − l·P^10` for every low
/// byte `l` whose bit is set in `filled`.
#[derive(Debug, Clone)]
struct PrefixTable {
    prefix: [u8; PREFIX_LEN as usize],
    filled: [u64; 4],
    tail: [u64; 256],
}

/// [`FingerprintFold::eat_invocation`] with each row's 10-byte prefix
/// memoized: the same fold, so the same hash, in 5 dependent multiplies
/// per row instead of 14.
///
/// For any byte string `s`, `fnv(h, s) − h·P^|s|` (mod 2^64) depends only
/// on `h mod 256`: XOR with a byte changes only the low byte, and the low
/// byte of a product depends only on the low bytes of its factors
/// (DESIGN.md, "Workload construction in one pass"). A row's prefix
/// (kernel, context, work-scale bits) repeats across its timing group, so
/// its table caches that difference lazily per low byte `l`, and a row
/// folds as `h·P^10 + tail[h & 0xff]` followed by its 4 `noise_z` bytes.
/// A table is tagged with its prefix, so which table a row uses never
/// changes the hash, only how often it is refilled.
#[derive(Debug, Clone)]
pub struct MemoFold {
    h: u64,
    tables: Vec<PrefixTable>,
}

impl MemoFold {
    /// Continues `fold`, typically one that has eaten a workload header.
    /// The tables are allocated by the first row, so a fold over no rows
    /// (a workload skeleton) allocates nothing.
    pub fn new(fold: FingerprintFold) -> Self {
        MemoFold {
            h: fold.h,
            tables: Vec::new(),
        }
    }

    #[cold]
    fn allocate(&mut self) {
        let empty = PrefixTable {
            prefix: [0; PREFIX_LEN as usize],
            filled: [0; 4],
            tail: [0; 256],
        };
        self.tables = vec![empty; MEMO_TABLES];
    }

    /// Folds one invocation: bit-identical to
    /// [`FingerprintFold::eat_invocation`] from the same state, whatever
    /// `key` is. The key may be any `u32`; it only picks the memo table
    /// (`key mod MEMO_TABLES`), so keys that stay equal while a row's
    /// prefix does keep the tables warm. Passing the row's timing group
    /// id gives each of the first [`MEMO_TABLES`] groups a table of its
    /// own; the streaming builder passes the row's `(kernel, context)`
    /// slot.
    #[inline]
    pub fn eat_invocation(&mut self, inv: &Invocation, key: u32) {
        let [k0, k1, k2, k3] = inv.kernel.0.to_le_bytes();
        let [c0, c1] = inv.context.to_le_bytes();
        let work_bits = inv.work_scale.to_bits();
        let [w0, w1, w2, w3] = work_bits.to_le_bytes();
        let prefix = [k0, k1, k2, k3, c0, c1, w0, w1, w2, w3];
        if self.tables.is_empty() {
            self.allocate();
        }
        let table = &mut self.tables[key as usize % MEMO_TABLES];
        if table.prefix != prefix {
            table.prefix = prefix;
            table.filled = [0; 4];
        }
        let l = (self.h & 0xff) as usize;
        let bit = 1u64 << (l & 63);
        if table.filled[l >> 6] & bit == 0 {
            let low = l as u64;
            table.tail[l] =
                fnv1a64_fold(low, &prefix).wrapping_sub(low.wrapping_mul(PRIME_POW_PREFIX));
            table.filled[l >> 6] |= bit;
        }
        let h = self
            .h
            .wrapping_mul(PRIME_POW_PREFIX)
            .wrapping_add(table.tail[l]);
        self.h = fnv1a64_fold(h, &inv.noise_z.to_bits().to_le_bytes());
    }

    /// The fingerprint of everything folded so far.
    pub fn finish(&self) -> u64 {
        self.h
    }
}

/// Why an invocation has no `(kernel, context)` slot in its tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotError {
    /// The kernel id is past the kernel table.
    Kernel,
    /// The context index is past the kernel's context table.
    Context,
}

/// A `(kernel, context)` slot's one-entry cache: the last work-scale bits
/// it resolved and their group.
#[derive(Debug, Clone, Copy)]
struct Slot {
    work_bits: u32,
    group: u32,
}

/// [`Slot::group`] of a slot that has not resolved any row yet.
const NO_GROUP: u32 = u32::MAX;

/// Dense timing-group assignment over a workload's tables: the one
/// implementation behind [`Workload::group_of`] and the streamed
/// ground-truth fold.
///
/// There is one slot per `(kernel, context)` pair, kernel `k`'s contexts
/// at `slot_base[k]..slot_base[k + 1]`. A slot remembers the last
/// `(work-scale bits, group)` it resolved, so a row repeating its slot's
/// work scale takes that group with one array index. Only a miss consults
/// the `(slot, work bits) → group` map, and only a key never seen before
/// mints an id. Ids are minted in first-appearance order.
#[derive(Debug, Clone)]
pub struct GroupSlots {
    slot_base: Vec<usize>,
    slots: Vec<Slot>,
    group_ids: HashMap<(usize, u32), u32>,
    groups: u32,
}

impl GroupSlots {
    /// Slots for tables whose kernel `k` has `context_counts[k]` contexts.
    pub fn new(context_counts: impl IntoIterator<Item = usize>) -> Self {
        let mut slot_base = vec![0];
        let mut base = 0;
        for count in context_counts {
            base += count;
            slot_base.push(base);
        }
        GroupSlots {
            slot_base,
            slots: vec![
                Slot {
                    work_bits: 0,
                    group: NO_GROUP,
                };
                base
            ],
            group_ids: HashMap::new(),
            groups: 0,
        }
    }

    /// Slots for `workload`'s kernel and context tables.
    pub fn of_tables(workload: &Workload) -> Self {
        GroupSlots::new(workload.contexts.iter().map(Vec::len))
    }

    /// Appends the slots of one more kernel with `contexts` contexts; the
    /// slots and groups already resolved keep their ids.
    fn push_kernel(&mut self, contexts: usize) {
        let base = self.slots.len() + contexts;
        self.slot_base.push(base);
        self.slots.resize(
            base,
            Slot {
                work_bits: 0,
                group: NO_GROUP,
            },
        );
    }

    /// The slot of `inv`'s `(kernel, context)`; the kernel is checked
    /// first.
    ///
    /// # Errors
    ///
    /// [`SlotError`] names the first table `inv` falls outside.
    #[inline]
    pub fn slot(&self, inv: &Invocation) -> Result<usize, SlotError> {
        let k = inv.kernel.index();
        if k + 1 >= self.slot_base.len() {
            return Err(SlotError::Kernel);
        }
        let slot = self.slot_base[k] + inv.context as usize;
        if slot >= self.slot_base[k + 1] {
            return Err(SlotError::Context);
        }
        Ok(slot)
    }

    /// The group of a row in `slot` with work-scale bits `work_bits`, and
    /// whether this row minted it.
    ///
    /// # Panics
    ///
    /// Panics if `slot` did not come from [`GroupSlots::slot`].
    #[inline]
    pub fn resolve(&mut self, slot: usize, work_bits: u32) -> (u32, bool) {
        let cached = self.slots[slot];
        if cached.group != NO_GROUP && cached.work_bits == work_bits {
            return (cached.group, false);
        }
        let next = self.groups;
        let group = *self.group_ids.entry((slot, work_bits)).or_insert(next);
        if group == next {
            self.groups += 1;
        }
        self.slots[slot] = Slot { work_bits, group };
        (group, group == next)
    }
}

/// A workload's rows under construction: each appended invocation is
/// resolved to its timing group ([`GroupSlots`]) and folded into the
/// fingerprint ([`MemoFold`], keyed by the group) as it arrives, so no
/// 16-byte-per-call vector is ever held. The one per-row pass behind
/// [`Workload::try_new`], the materialized
/// [`WorkloadBuilder`](crate::WorkloadBuilder) and
/// [`CollectSink`](crate::CollectSink).
#[derive(Debug, Clone)]
pub(crate) struct RowFold {
    slots: GroupSlots,
    fold: MemoFold,
    rows: Vec<Row>,
    groups: Vec<GroupKey>,
    representatives: Vec<usize>,
    /// A kernel was registered after the header was folded: `finish`
    /// folds the fingerprint again under the final header.
    refold: bool,
}

impl RowFold {
    /// An empty stream over these tables, its header folded.
    pub(crate) fn new(
        name: &str,
        suite: SuiteKind,
        kernels: &[KernelClass],
        contexts: &[Vec<RuntimeContext>],
    ) -> Self {
        let mut header = FingerprintFold::new();
        header.eat_header(name, suite, kernels, contexts);
        RowFold {
            slots: GroupSlots::new(contexts.iter().map(Vec::len)),
            fold: MemoFold::new(header),
            rows: Vec::new(),
            groups: Vec::new(),
            representatives: Vec::new(),
            refold: false,
        }
    }

    /// An empty stream over `skeleton`'s tables.
    pub(crate) fn of_tables(skeleton: &Workload) -> Self {
        RowFold::new(
            &skeleton.name,
            skeleton.suite,
            &skeleton.kernels,
            &skeleton.contexts,
        )
    }

    /// Room for `additional` more rows.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.rows.reserve(additional);
    }

    /// Rows appended so far.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Registers one more kernel with `contexts` contexts after rows were
    /// appended (the materialized builder allows it).
    pub(crate) fn push_kernel(&mut self, contexts: usize) {
        self.slots.push_kernel(contexts);
        self.refold = true;
    }

    /// Appends one invocation.
    ///
    /// # Errors
    ///
    /// [`SlotError`] names the first table `inv` falls outside; nothing is
    /// appended then.
    #[inline]
    pub(crate) fn push(&mut self, inv: &Invocation) -> Result<(), SlotError> {
        let slot = self.slots.slot(inv)?;
        let work_bits = inv.work_scale.to_bits();
        let (group, fresh) = self.slots.resolve(slot, work_bits);
        if fresh {
            self.groups.push(GroupKey {
                kernel: inv.kernel,
                context: inv.context,
                work_bits,
            });
            self.representatives.push(self.rows.len());
        }
        self.rows.push(Row {
            group,
            noise_bits: inv.noise_z.to_bits(),
        });
        self.fold.eat_invocation(inv, group);
        Ok(())
    }

    /// The workload of these rows over `skeleton`'s tables.
    pub(crate) fn finish_over(self, skeleton: Workload) -> Workload {
        self.finish(
            skeleton.name,
            skeleton.suite,
            skeleton.kernels,
            skeleton.contexts,
        )
    }

    /// The workload of these rows over the final tables.
    pub(crate) fn finish(
        mut self,
        name: String,
        suite: SuiteKind,
        kernels: Vec<KernelClass>,
        contexts: Vec<Vec<RuntimeContext>>,
    ) -> Workload {
        if self.refold {
            let mut header = FingerprintFold::new();
            header.eat_header(&name, suite, &kernels, &contexts);
            self.fold = MemoFold::new(header);
            for row in &self.rows {
                let inv = self.groups[row.group as usize].invocation(row.noise_bits);
                self.fold.eat_invocation(&inv, row.group);
            }
        }
        self.rows.shrink_to_fit();
        self.groups.shrink_to_fit();
        self.representatives.shrink_to_fit();
        Workload {
            name,
            suite,
            kernels,
            contexts,
            rows: self.rows,
            groups: self.groups,
            group_representatives: self.representatives,
            fingerprint: self.fold.finish(),
        }
    }
}

/// The table checks both construction paths share: a non-empty kernel
/// table, one non-empty context table per kernel, valid components.
fn check_tables(
    name: &str,
    kernels: &[KernelClass],
    contexts: &[Vec<RuntimeContext>],
) -> Result<(), WorkloadError> {
    let structure =
        |message: String| Err(WorkloadError::new(WorkloadErrorKind::Structure, message));
    if kernels.is_empty() {
        return structure(format!("workload {name} has no kernels"));
    }
    if kernels.len() != contexts.len() {
        return structure(format!(
            "workload {name}: one context table per kernel required \
             ({} kernels, {} context tables)",
            kernels.len(),
            contexts.len()
        ));
    }
    for k in kernels {
        k.try_validate()?;
    }
    for (k, ctxs) in contexts.iter().enumerate() {
        if ctxs.is_empty() {
            return structure(format!(
                "workload {name}: kernel {} has no contexts",
                kernels[k].name
            ));
        }
        for c in ctxs {
            c.try_validate()?;
        }
    }
    Ok(())
}

fn kernel_out_of_range(name: &str, i: usize, k: usize) -> WorkloadError {
    WorkloadError::new(
        WorkloadErrorKind::Invocation,
        format!("workload {name}: invocation {i} references kernel {k} out of range"),
    )
}

fn context_out_of_range(name: &str, i: usize, context: u16, kernel: &str) -> WorkloadError {
    WorkloadError::new(
        WorkloadErrorKind::Invocation,
        format!(
            "workload {name}: invocation {i} references context {context} of kernel {kernel} \
             out of range"
        ),
    )
}

/// The error for invocation `i` of workload `name`, which [`SlotError`]
/// places outside `kernels` or its kernel's context table.
pub(crate) fn row_out_of_range(
    name: &str,
    kernels: &[KernelClass],
    i: usize,
    inv: &Invocation,
    error: SlotError,
) -> WorkloadError {
    match error {
        SlotError::Kernel => kernel_out_of_range(name, i, inv.kernel.index()),
        SlotError::Context => {
            context_out_of_range(name, i, inv.context, &kernels[inv.kernel.index()].name)
        }
    }
}

/// The three-pass construction [`Workload::try_new`] replaced: a range
/// check pass, a hashed grouping pass and a plain fingerprint pass. Kept
/// as the executable oracle the property tests and the same-process ratio
/// gate compare the one-pass constructor against.
#[doc(hidden)]
pub mod reference {
    use super::*;

    /// Checks every invocation's kernel, then context, in stream order.
    fn check_invocations(
        name: &str,
        kernels: &[KernelClass],
        contexts: &[Vec<RuntimeContext>],
        invocations: &[Invocation],
    ) -> Result<(), WorkloadError> {
        for (i, inv) in invocations.iter().enumerate() {
            let k = inv.kernel.index();
            if k >= kernels.len() {
                return Err(kernel_out_of_range(name, i, k));
            }
            if (inv.context as usize) >= contexts[k].len() {
                return Err(context_out_of_range(name, i, inv.context, &kernels[k].name));
            }
        }
        Ok(())
    }

    /// Assigns every invocation its timing group: first occurrence of a
    /// `(kernel, context, work_scale-bits)` triple mints the next group id.
    fn timing_groups(invocations: &[Invocation]) -> (Vec<u32>, Vec<usize>) {
        let mut ids: HashMap<(u32, u16, u32), u32> = HashMap::new();
        let mut group_of = Vec::with_capacity(invocations.len());
        let mut representatives = Vec::new();
        for (i, inv) in invocations.iter().enumerate() {
            let key = (inv.kernel.0, inv.context, inv.work_scale.to_bits());
            let next = representatives.len() as u32;
            let g = *ids.entry(key).or_insert(next);
            if g == next && representatives.len() == g as usize {
                representatives.push(i);
            }
            group_of.push(g);
        }
        (group_of, representatives)
    }

    /// FNV-1a 64 content hash of a workload's defining tables, one
    /// [`FingerprintFold::eat_invocation`] per row.
    fn content_fingerprint(
        name: &str,
        suite: SuiteKind,
        kernels: &[KernelClass],
        contexts: &[Vec<RuntimeContext>],
        invocations: &[Invocation],
    ) -> u64 {
        let mut fold = FingerprintFold::new();
        fold.eat_header(name, suite, kernels, contexts);
        for inv in invocations {
            fold.eat_invocation(inv);
        }
        fold.finish()
    }

    /// Everything construction derives from its parts, by the three
    /// passes: `(group_of, group_representatives, fingerprint)`.
    ///
    /// # Errors
    ///
    /// The [`WorkloadError`] [`Workload::try_new`] returns on the same
    /// parts.
    pub fn derive(
        name: &str,
        suite: SuiteKind,
        kernels: &[KernelClass],
        contexts: &[Vec<RuntimeContext>],
        invocations: &[Invocation],
    ) -> Result<(Vec<u32>, Vec<usize>, u64), WorkloadError> {
        check_tables(name, kernels, contexts)?;
        check_invocations(name, kernels, contexts, invocations)?;
        let (group_of, representatives) = timing_groups(invocations);
        let fingerprint = content_fingerprint(name, suite, kernels, contexts, invocations);
        Ok((group_of, representatives, fingerprint))
    }
}

impl Workload {
    /// Assembles and validates a workload.
    ///
    /// One pass over the invocations range-checks each row, assigns its
    /// timing group ([`GroupSlots`]) and folds it into the fingerprint
    /// ([`MemoFold`]); [`reference::derive`] is the three-pass oracle.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] if tables are inconsistent: no kernels,
    /// context table length mismatch, kernels without contexts, invocations
    /// referencing out-of-range kernels/contexts, or invalid component
    /// values.
    pub fn try_new(
        name: impl Into<String>,
        suite: SuiteKind,
        kernels: Vec<KernelClass>,
        contexts: Vec<Vec<RuntimeContext>>,
        invocations: Vec<Invocation>,
    ) -> Result<Self, WorkloadError> {
        Workload::construct(name.into(), suite, kernels, contexts, invocations)
    }

    /// [`Workload::try_new`] past its one generic parameter, so the
    /// per-row pass is compiled once, in this crate.
    fn construct(
        name: String,
        suite: SuiteKind,
        kernels: Vec<KernelClass>,
        contexts: Vec<Vec<RuntimeContext>>,
        invocations: Vec<Invocation>,
    ) -> Result<Self, WorkloadError> {
        check_tables(&name, &kernels, &contexts)?;
        let mut rows = RowFold::new(&name, suite, &kernels, &contexts);
        rows.reserve(invocations.len());
        for (i, inv) in invocations.iter().enumerate() {
            if let Err(e) = rows.push(inv) {
                return Err(row_out_of_range(&name, &kernels, i, inv, e));
            }
        }
        // The 16-byte rows go before the 8-byte ones are shrunk to fit.
        drop(invocations);
        Ok(rows.finish(name, suite, kernels, contexts))
    }

    /// Panicking convenience wrapper over [`Workload::try_new`].
    ///
    /// # Panics
    ///
    /// Panics on any input [`Workload::try_new`] rejects.
    pub fn new(
        name: impl Into<String>,
        suite: SuiteKind,
        kernels: Vec<KernelClass>,
        contexts: Vec<Vec<RuntimeContext>>,
        invocations: Vec<Invocation>,
    ) -> Self {
        match Workload::try_new(name, suite, kernels, contexts, invocations) {
            Ok(w) => w,
            Err(e) => panic!("{e}"),
        }
    }

    /// Workload name (e.g. `heartwall`, `bert_infer`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Which suite this workload belongs to.
    pub fn suite(&self) -> SuiteKind {
        self.suite
    }

    /// The kernel table.
    pub fn kernels(&self) -> &[KernelClass] {
        &self.kernels
    }

    /// Context table of kernel `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn contexts_of(&self, k: KernelId) -> &[RuntimeContext] {
        &self.contexts[k.index()]
    }

    /// Invocation `i`, rebuilt bit for bit from its row and its group's
    /// key.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn invocation(&self, i: usize) -> Invocation {
        let row = self.rows[i];
        self.groups[row.group as usize].invocation(row.noise_bits)
    }

    /// The invocation stream in order, each [`Invocation`] rebuilt from
    /// its row.
    pub fn invocations(&self) -> Invocations<'_> {
        Invocations {
            rows: self.rows.iter(),
            groups: &self.groups,
        }
    }

    /// One 8-byte row per invocation, in stream order: its timing group
    /// and noise bits. Hot loops read these and the per-group
    /// [`Workload::group_keys`] directly.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// `group_keys()[g]` is what timing group `g` fixes: kernel, context
    /// and work-scale bits.
    pub fn group_keys(&self) -> &[GroupKey] {
        &self.groups
    }

    /// Number of kernel launches.
    pub fn num_invocations(&self) -> usize {
        self.rows.len()
    }

    /// A workload with these tables (name, suite, kernel and context
    /// tables) and no invocations: the frozen header a block stream opens
    /// with.
    pub fn skeleton(&self) -> Workload {
        Workload {
            name: self.name.clone(),
            suite: self.suite,
            kernels: self.kernels.clone(),
            contexts: self.contexts.clone(),
            rows: Vec::new(),
            groups: Vec::new(),
            group_representatives: Vec::new(),
            fingerprint: FingerprintFold::of_tables(self).finish(),
        }
    }

    /// Heap bytes this workload holds: the rows (8 per invocation), the
    /// timing-group keys and representatives, counted by capacity, plus
    /// the name, kernel and context tables, counted by length.
    pub fn heap_bytes(&self) -> usize {
        let kernels: usize = self
            .kernels
            .iter()
            .map(|k| size_of::<KernelClass>() + k.name.len() + size_of_val(&k.bbv_template[..]))
            .sum();
        let contexts: usize = self
            .contexts
            .iter()
            .map(|c| size_of::<Vec<RuntimeContext>>() + size_of_val(&c[..]))
            .sum();
        self.name.len()
            + kernels
            + contexts
            + self.rows.capacity() * size_of::<Row>()
            + self.groups.capacity() * size_of::<GroupKey>()
            + self.group_representatives.capacity() * size_of::<usize>()
    }

    /// FNV-1a 64 content fingerprint (name, suite, kernel/context tables,
    /// invocation stream), computed once at construction. Two workloads
    /// with equal fingerprints are — up to hash collision — the same
    /// workload; caches of derived artifacts key on this.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The kernel class of an invocation.
    pub fn kernel_of(&self, inv: &Invocation) -> &KernelClass {
        &self.kernels[inv.kernel.index()]
    }

    /// The runtime context of an invocation.
    pub fn context_of(&self, inv: &Invocation) -> &RuntimeContext {
        &self.contexts[inv.kernel.index()][inv.context as usize]
    }

    /// Number of timing groups: distinct `(kernel, context, work_scale)`
    /// triples in the invocation stream. All invocations in a group share
    /// the same deterministic timing; only their jitter draws differ.
    pub fn num_invocation_groups(&self) -> usize {
        self.group_representatives.len()
    }

    /// Timing group of invocation `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn group_of(&self, i: usize) -> u32 {
        self.rows[i].group
    }

    /// Lowest invocation index belonging to group `g` (its representative:
    /// timing-deterministic fields of any group member match it).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn group_representative(&self, g: u32) -> usize {
        self.group_representatives[g as usize]
    }

    /// Invocation indices grouped by kernel id, in stream order — the
    /// "group kernel calls by name" first step of the STEM+ROOT pipeline
    /// (Fig. 3). Each kernel with calls gets one exactly-sized `u32` list,
    /// 4 bytes per call.
    ///
    /// # Panics
    ///
    /// Panics if an invocation index does not fit in a `u32`.
    pub fn invocations_by_kernel(&self) -> BTreeMap<KernelId, Vec<u32>> {
        assert!(
            self.rows.len() <= u32::MAX as usize,
            "{} invocations exceed u32 indices",
            self.rows.len()
        );
        // Kernel ids are dense indices into `kernels`: count, fill one
        // exactly-sized `Vec` per kernel, then one map insert per kernel
        // that has calls.
        let kernel_of: Vec<usize> = self.groups.iter().map(|g| g.kernel.index()).collect();
        let mut counts = vec![0usize; self.kernels.len()];
        for row in &self.rows {
            counts[kernel_of[row.group as usize]] += 1;
        }
        let mut groups: Vec<Vec<u32>> = counts.into_iter().map(Vec::with_capacity).collect();
        for (i, row) in (0..).zip(&self.rows) {
            groups[kernel_of[row.group as usize]].push(i);
        }
        groups
            .into_iter()
            .enumerate()
            .filter(|(_, members)| !members.is_empty())
            .map(|(k, members)| (KernelId(k as u32), members))
            .collect()
    }

    /// Invocation indices grouped by kernel *name*, in stream order. Two
    /// kernel classes can share a name (the same source kernel compiled or
    /// launched with different configurations); methods that key on names
    /// (Sieve's stratification) must see them as one group.
    pub fn invocations_by_kernel_name(&self) -> BTreeMap<&str, Vec<usize>> {
        let mut map: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, row) in self.rows.iter().enumerate() {
            let kernel = self.groups[row.group as usize].kernel;
            map.entry(self.kernels[kernel.index()].name.as_str())
                .or_default()
                .push(i);
        }
        map
    }

    /// Total dynamic instructions across the workload (at per-invocation
    /// work scales), used by profiling-overhead models.
    pub fn total_instructions(&self) -> f64 {
        self.invocations()
            .map(|inv| {
                let k = self.kernel_of(&inv);
                let c = self.context_of(&inv);
                k.total_instructions() as f64 * c.work_scale * inv.work_scale as f64
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelClassBuilder;

    fn tiny() -> Workload {
        let k0 = KernelClassBuilder::new("a").build();
        let k1 = KernelClassBuilder::new("b").build();
        Workload::new(
            "w",
            SuiteKind::Custom,
            vec![k0, k1],
            vec![
                vec![RuntimeContext::neutral()],
                vec![
                    RuntimeContext::neutral(),
                    RuntimeContext::neutral().with_work(2.0),
                ],
            ],
            vec![
                Invocation::new(KernelId(0), 0, 0.1),
                Invocation::new(KernelId(1), 1, -0.3),
                Invocation::new(KernelId(0), 0, 0.7),
            ],
        )
    }

    #[test]
    fn accessors() {
        let w = tiny();
        assert_eq!(w.name(), "w");
        assert_eq!(w.suite(), SuiteKind::Custom);
        assert_eq!(w.num_invocations(), 3);
        assert_eq!(w.kernels().len(), 2);
        assert_eq!(w.contexts_of(KernelId(1)).len(), 2);
        let inv = w.invocation(1);
        assert_eq!(w.kernel_of(&inv).name, "b");
        assert_eq!(w.context_of(&inv).work_scale, 2.0);
    }

    #[test]
    fn timing_groups_follow_stream_order() {
        let w = tiny();
        // Invocations 0 and 2 share (kernel 0, ctx 0, work 1.0); 1 differs.
        assert_eq!(w.num_invocation_groups(), 2);
        assert_eq!(w.group_of(0), 0);
        assert_eq!(w.group_of(1), 1);
        assert_eq!(w.group_of(2), 0);
        assert_eq!(w.group_representative(0), 0);
        assert_eq!(w.group_representative(1), 1);
    }

    #[test]
    fn distinct_work_scales_split_groups() {
        let k0 = KernelClassBuilder::new("a").build();
        let w = Workload::new(
            "w",
            SuiteKind::Custom,
            vec![k0],
            vec![vec![RuntimeContext::neutral()]],
            vec![
                Invocation::with_work(KernelId(0), 0, 1.0, 0.1),
                Invocation::with_work(KernelId(0), 0, 2.0, 0.2),
                Invocation::with_work(KernelId(0), 0, 1.0, 0.3),
            ],
        );
        assert_eq!(w.num_invocation_groups(), 2);
        assert_eq!(w.group_of(0), 0);
        assert_eq!(w.group_of(1), 1);
        assert_eq!(w.group_of(2), 0);
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.fingerprint(), b.fingerprint(), "same content, same hash");
        // Any defining field flips the hash: name, stream, noise draw.
        let renamed = Workload::new(
            "w2",
            a.suite(),
            a.kernels().to_vec(),
            vec![
                a.contexts_of(KernelId(0)).to_vec(),
                a.contexts_of(KernelId(1)).to_vec(),
            ],
            a.invocations().collect(),
        );
        assert_ne!(a.fingerprint(), renamed.fingerprint());
        let mut invs: Vec<Invocation> = a.invocations().collect();
        invs[0].noise_z = 0.5;
        let jittered = Workload::new(
            a.name().to_string(),
            a.suite(),
            a.kernels().to_vec(),
            vec![
                a.contexts_of(KernelId(0)).to_vec(),
                a.contexts_of(KernelId(1)).to_vec(),
            ],
            invs,
        );
        assert_ne!(a.fingerprint(), jittered.fingerprint());
    }

    #[test]
    fn grouping_by_kernel() {
        let w = tiny();
        let groups = w.invocations_by_kernel();
        assert_eq!(groups[&KernelId(0)], vec![0, 2]);
        assert_eq!(groups[&KernelId(1)], vec![1]);
    }

    #[test]
    fn grouping_by_kernel_omits_kernels_without_calls() {
        let w = Workload::new(
            "w",
            SuiteKind::Custom,
            ["a", "unused", "c"]
                .map(|n| KernelClassBuilder::new(n).build())
                .to_vec(),
            vec![vec![RuntimeContext::neutral()]; 3],
            vec![
                Invocation::new(KernelId(2), 0, 0.0),
                Invocation::new(KernelId(0), 0, 0.0),
                Invocation::new(KernelId(2), 0, 0.0),
            ],
        );
        let groups = w.invocations_by_kernel();
        assert_eq!(
            groups.keys().copied().collect::<Vec<_>>(),
            vec![KernelId(0), KernelId(2)]
        );
        assert_eq!(groups[&KernelId(2)], vec![0, 2]);
    }

    #[test]
    fn total_instructions_accounts_for_scales() {
        let w = tiny();
        let k = &w.kernels()[0];
        let base = k.total_instructions() as f64;
        // Two invocations of kernel 0 at scale 1 plus one of kernel 1 at
        // context work 2.0.
        let k1_base = w.kernels()[1].total_instructions() as f64;
        assert!((w.total_instructions() - (2.0 * base + 2.0 * k1_base)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_kernel_ref_rejected() {
        let k0 = KernelClassBuilder::new("a").build();
        Workload::new(
            "w",
            SuiteKind::Custom,
            vec![k0],
            vec![vec![RuntimeContext::neutral()]],
            vec![Invocation::new(KernelId(5), 0, 0.0)],
        );
    }

    #[test]
    #[should_panic(expected = "has no contexts")]
    fn empty_context_table_rejected() {
        let k0 = KernelClassBuilder::new("a").build();
        Workload::new("w", SuiteKind::Custom, vec![k0], vec![vec![]], vec![]);
    }

    #[test]
    #[should_panic(expected = "one context table per kernel")]
    fn mismatched_tables_rejected() {
        let k0 = KernelClassBuilder::new("a").build();
        Workload::new("w", SuiteKind::Custom, vec![k0], vec![], vec![]);
    }

    #[test]
    fn suite_display() {
        assert_eq!(SuiteKind::Rodinia.to_string(), "rodinia");
        assert_eq!(SuiteKind::Huggingface.to_string(), "huggingface");
    }
}
