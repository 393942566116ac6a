//! Crash-safe simulation campaigns: checkpoint after every completed
//! unit, resume bit-for-bit after a kill.
//!
//! A *campaign* runs one sampler over a list of workloads for the
//! pipeline's repetition count. Its atom is the **unit** — one
//! (workload, repetition) pair, numbered `wi * reps + rep` — because a
//! unit's result depends only on the workload and the repetition's
//! index-derived seed, never on which worker ran it, when, or after how
//! many retries. That makes units safe to persist piecemeal and replay in
//! any order: a resumed campaign loads the completed units from the
//! snapshot, computes only the missing ones, and aggregates everything in
//! unit order, producing bits identical to an uninterrupted run at every
//! thread count.
//!
//! # Snapshot format
//!
//! A snapshot is a sealed file (`stem_storage::sealed`; DESIGN.md §14,
//! "Sealed files") under the header `STEM-CAMPAIGN-SNAPSHOT v1`,
//! rewritten atomically after *each* completed unit. Its record lines:
//!
//! ```text
//! fingerprint 6b1c3f...        ; binds the file to one exact campaign
//! unit 0 <err> <speedup> <n> <pred>
//! unit 3 <err> <speedup> <n> <pred>
//! ```
//!
//! `f64` fields are stored as `to_bits()` hex so the round-trip is exact
//! — a resumed summary must not differ in the last ulp. The fingerprint
//! hashes the sampler name, repetition count, base seed, GPU config, and
//! every workload's name and size. A snapshot failing any check — the
//! sealed-file checks, fingerprint, line grammar, unit range — is
//! quarantined by [`Pipeline::resume_from`], reported in the
//! [`CampaignReport`], and the campaign recomputes from scratch: the
//! worst corruption can do is cost the saved work.
//!
//! All durable writes go through the pipeline's
//! [`Storage`](stem_storage::Storage) (see [`Pipeline::with_storage`]):
//! the real filesystem by default, the chaos crate's fault-injecting
//! `FaultFs` under test.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::error::StemError;
use crate::eval::{EvalResult, EvalSummary};
use crate::pipeline::Pipeline;
use crate::sampler::KernelSampler;
use gpu_workload::Workload;
use stem_par::{lock_unpoisoned, supervised_map_indexed, ExecLog, Parallelism, TaskFailure};
use stem_storage::sealed::{self, QuarantinedSnapshot, SnapshotError};

/// The exact header this version writes and accepts.
const HEADER: &str = "STEM-CAMPAIGN-SNAPSHOT v1";

/// Outcome of a completed campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// One summary per workload, in input order — bit-identical to
    /// [`Pipeline::run`] on each workload: the same ground-truth fold, rep
    /// seeds, unit body and summary fold.
    pub summaries: Vec<EvalSummary>,
    /// Units loaded from the snapshot instead of recomputed.
    pub resumed_units: u64,
    /// Units computed (and persisted) by this invocation.
    pub executed_units: u64,
    /// Supervisor observations: retries, recovered tasks, stragglers.
    pub exec_log: ExecLog,
    /// A snapshot that failed validation and was set aside, if any.
    pub quarantined: Option<QuarantinedSnapshot>,
    /// Orphan `.tmp` files from an interrupted write, removed by
    /// [`Pipeline::resume_from`] before resuming.
    pub swept_tmp: Vec<PathBuf>,
}

/// One persisted unit: the numeric fields of an [`EvalResult`] (the
/// strings are reproducible from the sampler and workload list).
#[derive(Debug, Clone, Copy, PartialEq)]
struct UnitRecord {
    error_pct: f64,
    speedup: f64,
    num_samples: usize,
    predicted_error_pct: f64,
}

/// Serializes a sealed snapshot of `units`.
fn serialize_snapshot(fingerprint: u64, units: &BTreeMap<u64, UnitRecord>) -> String {
    let mut records = String::new();
    let _ = writeln!(records, "fingerprint {fingerprint:016x}");
    for (index, rec) in units {
        let _ = writeln!(
            records,
            "unit {index} {:016x} {:016x} {} {:016x}",
            rec.error_pct.to_bits(),
            rec.speedup.to_bits(),
            rec.num_samples,
            rec.predicted_error_pct.to_bits(),
        );
    }
    sealed::seal(HEADER, &records)
}

/// Parses one `unit` line's payload (everything after the keyword).
fn parse_unit_fields(rest: &str, line: usize) -> Result<(u64, UnitRecord), SnapshotError> {
    let malformed = |message: String| SnapshotError::Malformed { line, message };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    if fields.len() != 5 {
        return Err(malformed(format!(
            "expected 5 unit fields, got {}",
            fields.len()
        )));
    }
    let index: u64 = fields[0]
        .parse()
        .map_err(|_| malformed(format!("bad unit index {:?}", fields[0])))?;
    let bits = |s: &str| {
        u64::from_str_radix(s, 16).map_err(|_| malformed(format!("bad f64 bit pattern {s:?}")))
    };
    let num_samples: usize = fields[3]
        .parse()
        .map_err(|_| malformed(format!("bad sample count {:?}", fields[3])))?;
    Ok((
        index,
        UnitRecord {
            error_pct: f64::from_bits(bits(fields[1])?),
            speedup: f64::from_bits(bits(fields[2])?),
            num_samples,
            predicted_error_pct: f64::from_bits(bits(fields[4])?),
        },
    ))
}

/// Parses a snapshot's record lines and validates them against this
/// campaign: fingerprint, then unit range.
fn parse_snapshot(
    lines: sealed::Lines<'_>,
    expected_fingerprint: u64,
    total_units: u64,
) -> Result<BTreeMap<u64, UnitRecord>, SnapshotError> {
    let (fingerprint, units) = sealed::fingerprinted_records(lines, "unit", parse_unit_fields)?;
    if fingerprint != expected_fingerprint {
        return Err(SnapshotError::FingerprintMismatch);
    }
    if let Some((&index, _)) = units.iter().next_back() {
        if index >= total_units {
            return Err(SnapshotError::Malformed {
                line: 0,
                message: format!("unit {index} out of range (campaign has {total_units})"),
            });
        }
    }
    Ok(units)
}

impl Pipeline {
    /// The identity a snapshot must prove it belongs to: sampler,
    /// experiment settings, GPU config, and the exact workload list.
    /// Parallelism and retry budgets are deliberately excluded — they
    /// never change results, so a campaign may resume under a different
    /// thread count.
    fn campaign_fingerprint(&self, sampler: &dyn KernelSampler, workloads: &[Workload]) -> u64 {
        let mut canon = String::new();
        let _ = write!(
            canon,
            "sampler={};reps={};seed={};gpu={};",
            sampler.name(),
            self.reps,
            self.base_seed,
            self.sim.config().name,
        );
        for w in workloads {
            let _ = write!(canon, "workload={}:{};", w.name(), w.num_invocations());
        }
        sealed::fnv1a64(canon.as_bytes())
    }

    /// Runs a fresh campaign of `sampler` over `workloads`, persisting a
    /// snapshot to `snapshot_path` after every completed unit. Any
    /// existing snapshot at that path is overwritten, not resumed — use
    /// [`Pipeline::resume_from`] to pick up an interrupted campaign.
    ///
    /// Units execute under the pipeline's [`stem_par::Supervisor`]:
    /// worker panics are retried with the unit's own index-derived seed,
    /// so a recovered campaign is bit-identical to an unfaulted one.
    ///
    /// # Errors
    ///
    /// Returns [`StemError::InvalidConfig`] for an empty workload list,
    /// [`StemError::EmptyWorkload`] if any workload has no invocations,
    /// [`StemError::Snapshot`] if the snapshot cannot be written,
    /// [`StemError::TaskFailure`] when a unit panics beyond its retry
    /// budget, and [`StemError::Interrupted`] when an injected fault plan
    /// simulates a process kill (the snapshot keeps the completed units).
    pub fn run_campaign(
        &self,
        sampler: &dyn KernelSampler,
        workloads: &[Workload],
        snapshot_path: &Path,
    ) -> Result<CampaignReport, StemError> {
        self.campaign(
            sampler,
            workloads,
            snapshot_path,
            BTreeMap::new(),
            None,
            Vec::new(),
        )
    }

    /// Resumes a campaign from `snapshot_path`: completed units are
    /// loaded and skipped, the missing ones computed, and the final
    /// report is bit-identical to the uninterrupted campaign at every
    /// thread count.
    ///
    /// A missing snapshot file simply starts a fresh campaign. A snapshot
    /// that exists but fails validation — damaged header, stale version,
    /// flipped byte, truncated tail, wrong campaign fingerprint — is
    /// **quarantined** (renamed to the first free
    /// `<path>.quarantined[.N]` name), reported in
    /// [`CampaignReport::quarantined`], and the campaign recomputes from
    /// scratch: a corrupt checkpoint can cost time, never correctness.
    /// An orphan `<path>.tmp` left by a crash mid-write is swept first
    /// and reported in [`CampaignReport::swept_tmp`].
    ///
    /// # Errors
    ///
    /// Same as [`Pipeline::run_campaign`], plus [`StemError::Snapshot`]
    /// if the snapshot file exists but cannot be read or quarantined.
    pub fn resume_from(
        &self,
        sampler: &dyn KernelSampler,
        workloads: &[Workload],
        snapshot_path: &Path,
    ) -> Result<CampaignReport, StemError> {
        let storage = &*self.storage;
        let fingerprint = self.campaign_fingerprint(sampler, workloads);
        let total_units = workloads.len() as u64 * self.reps as u64;
        // A crash between the tmp write and the rename leaves an orphan
        // the atomic-write discipline will never look at again: sweep it
        // so interrupted runs do not accrete garbage next to snapshots.
        let swept =
            stem_storage::sweep_tmp_sibling(storage, snapshot_path).map_err(SnapshotError::Io)?;
        let (done, quarantined) =
            sealed::load_or_quarantine(storage, snapshot_path, HEADER, |lines| {
                parse_snapshot(lines, fingerprint, total_units)
            })?
            .or_default();
        let swept_tmp: Vec<PathBuf> = swept.into_iter().collect();
        self.campaign(
            sampler,
            workloads,
            snapshot_path,
            done,
            quarantined,
            swept_tmp,
        )
    }

    /// The campaign engine shared by fresh runs and resumes.
    fn campaign(
        &self,
        sampler: &dyn KernelSampler,
        workloads: &[Workload],
        snapshot_path: &Path,
        done: BTreeMap<u64, UnitRecord>,
        quarantined: Option<QuarantinedSnapshot>,
        swept_tmp: Vec<PathBuf>,
    ) -> Result<CampaignReport, StemError> {
        if workloads.is_empty() {
            return Err(StemError::InvalidConfig(
                "campaign needs at least one workload".to_string(),
            ));
        }
        if workloads.iter().any(|w| w.num_invocations() == 0) {
            return Err(StemError::EmptyWorkload);
        }
        let reps = self.reps as u64;
        let total_units = workloads.len() as u64 * reps;
        let fingerprint = self.campaign_fingerprint(sampler, workloads);
        let resumed_units = done.len() as u64;
        let missing: Vec<u64> = (0..total_units).filter(|u| !done.contains_key(u)).collect();

        // Each unit reads its ground truth (the serial in-memory fold)
        // through the cache's totals memo, so fully-resumed workloads never
        // fold and campaigns sharing a cache (the serve daemon's jobs) fold
        // each workload once. The fold's fingerprint re-check turns
        // corrupted content into a typed error, which is not memoized.
        let cache = self.memo_cache();
        // Taken through `lock_unpoisoned`, which keeps the map on recovery:
        // it only ever holds units already persisted to the snapshot, so a
        // worker panic between insert and unlock cannot leave it wrong in a
        // way that matters — the snapshot on disk is the durable truth.
        let state = Mutex::new(done);
        let executed = AtomicU64::new(0);
        // Admission counter for the simulated kill: gating on *starts*
        // (first attempts only — a retry is not a new unit) admits exactly
        // `kill_after` units at every thread count, where gating on
        // completions would race with in-flight workers.
        let started = AtomicU64::new(0);

        let outcome = supervised_map_indexed(
            self.parallelism,
            &missing,
            &self.supervisor,
            |ctx, &unit| -> Result<(), StemError> {
                // Cooperative cancellation: gate unit admission exactly
                // like the simulated kill below. Units already started run
                // to completion and persist; the snapshot stays resumable.
                if let Some(cancel) = &self.cancel {
                    if ctx.attempt == 0 && cancel.load(Ordering::SeqCst) {
                        return Err(StemError::Interrupted { completed_units: 0 });
                    }
                }
                if let Some(faults) = &self.exec_faults {
                    if let Some(kill_after) = faults.kill_after_units() {
                        if ctx.attempt == 0 && started.fetch_add(1, Ordering::SeqCst) >= kill_after
                        {
                            // Simulated process kill: stop admitting units.
                            // The real completed count is filled in below.
                            return Err(StemError::Interrupted { completed_units: 0 });
                        }
                    }
                    faults.inject(unit, ctx.attempt);
                }
                let wi = (unit / reps) as usize;
                let rep = unit % reps;
                let workload = &workloads[wi];
                let full_total =
                    self.ground_truth_total_on(workload, Parallelism::serial(), &cache)?;
                let result =
                    self.rep_unit(sampler.name(), workload, full_total, &cache, rep, |seed| {
                        sampler.try_plan(workload, seed)
                    })?;
                let record = UnitRecord {
                    error_pct: result.error_pct,
                    speedup: result.speedup,
                    num_samples: result.num_samples,
                    predicted_error_pct: result.predicted_error_pct,
                };
                // Persist under the state lock so concurrent writers
                // cannot rename an older snapshot over a newer one.
                let mut st = lock_unpoisoned(&state);
                st.insert(unit, record);
                stem_storage::write_atomic(
                    &*self.storage,
                    snapshot_path,
                    &serialize_snapshot(fingerprint, &st),
                )
                .map_err(SnapshotError::Io)?;
                drop(st);
                executed.fetch_add(1, Ordering::SeqCst);
                Ok(())
            },
        );

        let (unit_outcomes, exec_log) = match outcome {
            Ok(pair) => pair,
            Err(failure) => {
                // The supervisor numbers tasks by position in `missing`;
                // report the global unit index instead.
                let index = missing
                    .get(failure.index)
                    .map_or(failure.index, |&u| u as usize);
                return Err(StemError::TaskFailure(TaskFailure { index, ..failure }));
            }
        };
        let final_state = std::mem::take(&mut *lock_unpoisoned(&state));
        let executed_units = executed.load(Ordering::SeqCst);

        let mut interrupted = false;
        for unit_outcome in unit_outcomes {
            match unit_outcome {
                Ok(()) => {}
                Err(StemError::Interrupted { .. }) => interrupted = true,
                // Lowest-unit typed error wins, matching the serial loop.
                Err(e) => return Err(e),
            }
        }
        if interrupted {
            return Err(StemError::Interrupted {
                completed_units: final_state.len() as u64,
            });
        }

        let mut summaries = Vec::with_capacity(workloads.len());
        for (wi, workload) in workloads.iter().enumerate() {
            let mut results = Vec::with_capacity(reps as usize);
            for rep in 0..reps {
                let unit = wi as u64 * reps + rep;
                let Some(rec) = final_state.get(&unit) else {
                    return Err(SnapshotError::Malformed {
                        line: 0,
                        message: format!("unit {unit} missing after a complete campaign"),
                    }
                    .into());
                };
                results.push(EvalResult {
                    method: sampler.name().to_string(),
                    workload: workload.name().to_string(),
                    error_pct: rec.error_pct,
                    speedup: rec.speedup,
                    num_samples: rec.num_samples,
                    predicted_error_pct: rec.predicted_error_pct,
                });
            }
            summaries.push(EvalSummary::fold(sampler.name(), workload.name(), results));
        }
        Ok(CampaignReport {
            summaries,
            resumed_units,
            executed_units,
            exec_log,
            quarantined,
            swept_tmp,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(x: f64) -> UnitRecord {
        UnitRecord {
            error_pct: x,
            speedup: 10.0 * x,
            num_samples: 42,
            predicted_error_pct: x / 2.0,
        }
    }

    fn sample_map() -> BTreeMap<u64, UnitRecord> {
        let mut m = BTreeMap::new();
        m.insert(0, record(1.25));
        m.insert(3, record(0.0625));
        m.insert(7, record(f64::MIN_POSITIVE));
        m
    }

    fn open_and_parse(
        text: &str,
        fingerprint: u64,
        total_units: u64,
    ) -> Result<BTreeMap<u64, UnitRecord>, SnapshotError> {
        parse_snapshot(
            sealed::open(text.as_bytes(), HEADER)?,
            fingerprint,
            total_units,
        )
    }

    #[test]
    fn snapshot_round_trips_bitwise() {
        let text = serialize_snapshot(0xdead_beef, &sample_map());
        assert_eq!(open_and_parse(&text, 0xdead_beef, 100), Ok(sample_map()));
    }

    /// Pins the v1 bytes of a 2-unit snapshot: existing snapshots must
    /// keep resuming, so the serializer may never change a byte.
    #[test]
    fn two_unit_snapshot_matches_the_v1_golden_bytes() {
        let mut units = BTreeMap::new();
        units.insert(0, record(1.25));
        units.insert(3, record(0.0625));
        let golden = "STEM-CAMPAIGN-SNAPSHOT v1\n\
            fingerprint 0123456789abcdef\n\
            unit 0 3ff4000000000000 4029000000000000 42 3fe4000000000000\n\
            unit 3 3fb0000000000000 3fe4000000000000 42 3fa0000000000000\n\
            checksum 919e3a5eaf1983d1\n";
        assert_eq!(serialize_snapshot(0x0123_4567_89ab_cdef, &units), golden);
    }

    #[test]
    fn foreign_fingerprint_rejected() {
        let text = serialize_snapshot(5, &sample_map());
        assert_eq!(
            open_and_parse(&text, 6, 100),
            Err(SnapshotError::FingerprintMismatch)
        );
        assert!(open_and_parse(&text, 5, 100).is_ok());
    }

    #[test]
    fn out_of_range_unit_rejected() {
        let text = serialize_snapshot(5, &sample_map());
        assert!(matches!(
            open_and_parse(&text, 5, 4),
            Err(SnapshotError::Malformed { .. })
        ));
    }
}
