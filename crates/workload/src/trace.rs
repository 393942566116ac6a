//! The workload container: a kernel table, per-kernel context tables, and
//! the invocation stream.

use crate::context::RuntimeContext;
use crate::error::{WorkloadError, WorkloadErrorKind};
use crate::invocation::{Invocation, KernelId};
use crate::kernel::KernelClass;
use std::collections::BTreeMap;
use stem_storage::sealed::{fnv1a64_fold, FNV_OFFSET};

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
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    name: String,
    suite: SuiteKind,
    kernels: Vec<KernelClass>,
    /// `contexts[k]` are the runtime contexts of kernel `k`.
    contexts: Vec<Vec<RuntimeContext>>,
    invocations: Vec<Invocation>,
    /// `group_of[i]` is the timing group of invocation `i`: invocations
    /// sharing `(kernel, context, work_scale)` are timing-identical up to
    /// their noise draw, so simulators precompute per group and stream the
    /// per-invocation jitter. Derived deterministically from `invocations`
    /// (first occurrence assigns the next id, so ids follow stream order).
    group_of: Vec<u32>,
    /// `group_representatives[g]` is the lowest invocation index in group `g`.
    group_representatives: Vec<usize>,
    /// FNV-1a 64 over the full workload content (name, suite, kernel and
    /// context tables, invocation stream), computed once at construction.
    /// Lets downstream caches key derived artifacts (profiles, clusterings)
    /// by workload identity without rehashing the stream per lookup.
    fingerprint: u64,
}

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

/// FNV-1a 64 content hash of a workload's defining tables — the
/// materialized entry point over [`FingerprintFold`], so the streamed
/// and in-memory fingerprints are the same fold by construction.
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

/// Assigns every invocation its timing group: first occurrence of a
/// `(kernel, context, work_scale-bits)` triple mints the next group id.
fn timing_groups(invocations: &[Invocation]) -> (Vec<u32>, Vec<usize>) {
    use std::collections::HashMap;
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

impl Workload {
    /// Assembles and validates a workload.
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
        let name = name.into();
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
        for k in &kernels {
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
        for (i, inv) in invocations.iter().enumerate() {
            let k = inv.kernel.index();
            if k >= kernels.len() {
                return Err(WorkloadError::new(
                    WorkloadErrorKind::Invocation,
                    format!(
                        "workload {name}: invocation {i} references kernel {k} out of range"
                    ),
                ));
            }
            if (inv.context as usize) >= contexts[k].len() {
                return Err(WorkloadError::new(
                    WorkloadErrorKind::Invocation,
                    format!(
                        "workload {name}: invocation {i} references context {} of kernel {} \
                         out of range",
                        inv.context, kernels[k].name
                    ),
                ));
            }
        }
        let (group_of, group_representatives) = timing_groups(&invocations);
        let fingerprint = content_fingerprint(&name, suite, &kernels, &contexts, &invocations);
        Ok(Workload {
            name,
            suite,
            kernels,
            contexts,
            invocations,
            group_of,
            group_representatives,
            fingerprint,
        })
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

    /// The invocation stream.
    pub fn invocations(&self) -> &[Invocation] {
        &self.invocations
    }

    /// Number of kernel launches.
    pub fn num_invocations(&self) -> usize {
        self.invocations.len()
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
        self.group_of[i]
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
    /// (Fig. 3).
    pub fn invocations_by_kernel(&self) -> BTreeMap<KernelId, Vec<usize>> {
        // Kernel ids are dense indices into `kernels`: count, fill one
        // exactly-sized `Vec` per kernel, then one map insert per kernel
        // that has calls.
        let mut counts = vec![0usize; self.kernels.len()];
        for inv in &self.invocations {
            counts[inv.kernel.index()] += 1;
        }
        let mut groups: Vec<Vec<usize>> = counts.into_iter().map(Vec::with_capacity).collect();
        for (i, inv) in self.invocations.iter().enumerate() {
            groups[inv.kernel.index()].push(i);
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
        for (i, inv) in self.invocations.iter().enumerate() {
            map.entry(self.kernel_of(inv).name.as_str())
                .or_default()
                .push(i);
        }
        map
    }

    /// Total dynamic instructions across the workload (at per-invocation
    /// work scales), used by profiling-overhead models.
    pub fn total_instructions(&self) -> f64 {
        self.invocations
            .iter()
            .map(|inv| {
                let k = self.kernel_of(inv);
                let c = self.context_of(inv);
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
                vec![RuntimeContext::neutral(), RuntimeContext::neutral().with_work(2.0)],
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
        let inv = &w.invocations()[1];
        assert_eq!(w.kernel_of(inv).name, "b");
        assert_eq!(w.context_of(inv).work_scale, 2.0);
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
            a.invocations().to_vec(),
        );
        assert_ne!(a.fingerprint(), renamed.fingerprint());
        let mut invs = a.invocations().to_vec();
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
            ["a", "unused", "c"].map(|n| KernelClassBuilder::new(n).build()).to_vec(),
            vec![vec![RuntimeContext::neutral()]; 3],
            vec![
                Invocation::new(KernelId(2), 0, 0.0),
                Invocation::new(KernelId(0), 0, 0.0),
                Invocation::new(KernelId(2), 0, 0.0),
            ],
        );
        let groups = w.invocations_by_kernel();
        assert_eq!(groups.keys().copied().collect::<Vec<_>>(), vec![KernelId(0), KernelId(2)]);
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
