//! The line-framed plain-text protocol: request grammar, response
//! rendering, and the byte-exact `RESULT` payload format.
//!
//! # Grammar (one request per line)
//!
//! ```text
//! SUBMIT <tenant> <suite> <suite_seed> <workload_index> <reps> <seed> [deadline_ms [sampler [store_path store_fp]]]
//! STATUS <tenant> <job>
//! RESULT <tenant> <job>
//! CANCEL <tenant> <job>
//! SHUTDOWN
//! PING
//! ```
//!
//! `SUBMIT`'s arguments are the job-spec grammar of [`JobSpec::parse`],
//! the same grammar the journal persists each job in, so the wire and
//! the disk cannot drift apart. `deadline_ms` may be `-` (no deadline)
//! when a `sampler` follows it; the sampler is any `standard_registry`
//! name and defaults to `STEM`. `store_path store_fp` (always together,
//! after an explicit sampler) point the job at a pre-materialized
//! columnar store: the directory path and the expected
//! `Workload::fingerprint` as 16 hex digits.
//! Admission verifies the store manifest against the fingerprint and
//! rejects a mismatch with a typed `ERR` — a swapped store never runs.
//!
//! Responses are a single `OK ...` / `ERR ...` line, except `RESULT`,
//! which follows its `OK result` line with a payload terminated by `END`:
//!
//! ```text
//! OK result
//! summary <method> <workload> <mean_bits> <harmonic_bits> <reps>
//! rep <i> <error_bits> <speedup_bits> <num_samples> <predicted_bits>
//! END
//! ```
//!
//! Every `f64` travels as its `to_bits()` hex, so a payload compares
//! byte-for-byte across daemon restarts — the protocol-level form of the
//! repo's bit-identical invariant.

use crate::job::{parse_u64, valid_token, JobSpec};
use stem_core::{EvalSummary, StemError};

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Admit a new job.
    Submit(JobSpec),
    /// Report a job's phase and flags.
    Status {
        /// Requesting tenant (must own the job).
        tenant: String,
        /// Job id from `OK job <id>`.
        job: u64,
    },
    /// Fetch a completed job's payload.
    Result {
        /// Requesting tenant (must own the job).
        tenant: String,
        /// Job id from `OK job <id>`.
        job: u64,
    },
    /// Cooperatively cancel a job.
    Cancel {
        /// Requesting tenant (must own the job).
        tenant: String,
        /// Job id from `OK job <id>`.
        job: u64,
    },
    /// Checkpoint all running campaigns and stop the daemon.
    Shutdown,
    /// Liveness probe.
    Ping,
}

fn parse_tenant_job(fields: &[&str], verb: &str) -> Result<(String, u64), String> {
    if fields.len() != 2 {
        return Err(format!(
            "{verb} takes <tenant> <job>, got {} fields",
            fields.len()
        ));
    }
    if !valid_token(fields[0]) {
        return Err(format!("bad tenant: {:?}", fields[0]));
    }
    Ok((fields[0].to_string(), parse_u64(fields[1], "job id")?))
}

/// Parses one request line (no trailing newline).
///
/// # Errors
///
/// Returns a human-readable message for anything outside the grammar —
/// the server echoes it back as `ERR bad-request <msg>` and keeps the
/// connection; garbage must never take the daemon down.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut fields = line.split_whitespace();
    let Some(verb) = fields.next() else {
        return Err("empty request".to_string());
    };
    let rest: Vec<&str> = fields.collect();
    match verb {
        "SUBMIT" => Ok(Request::Submit(JobSpec::parse(&rest)?)),
        "STATUS" => {
            let (tenant, job) = parse_tenant_job(&rest, "STATUS")?;
            Ok(Request::Status { tenant, job })
        }
        "RESULT" => {
            let (tenant, job) = parse_tenant_job(&rest, "RESULT")?;
            Ok(Request::Result { tenant, job })
        }
        "CANCEL" => {
            let (tenant, job) = parse_tenant_job(&rest, "CANCEL")?;
            Ok(Request::Cancel { tenant, job })
        }
        "SHUTDOWN" if rest.is_empty() => Ok(Request::Shutdown),
        "PING" if rest.is_empty() => Ok(Request::Ping),
        _ => Err(format!("unknown or malformed request {verb:?}")),
    }
}

/// Renders an error as a structured `ERR` line. [`StemError::Overloaded`]
/// gets the machine-parsable form the admission controller promises
/// (`scope=... depth=... retry-after-ms=...`); everything else is
/// `ERR rejected` with the error's display.
pub fn render_error(e: &StemError) -> String {
    match e {
        StemError::Overloaded {
            scope,
            depth,
            retry_after_ms,
        } => {
            format!("ERR overloaded scope={scope} depth={depth} retry-after-ms={retry_after_ms}")
        }
        other => format!("ERR rejected {other}"),
    }
}

/// Renders the byte-exact `RESULT` payload for a completed single-workload
/// campaign (everything after the `OK result` line, `END` included).
pub fn render_result_payload(summary: &EvalSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "summary {} {} {:016x} {:016x} {}\n",
        summary.method,
        summary.workload,
        summary.mean_error_pct.to_bits(),
        summary.harmonic_speedup.to_bits(),
        summary.results.len(),
    ));
    for (i, rep) in summary.results.iter().enumerate() {
        out.push_str(&format!(
            "rep {i} {:016x} {:016x} {} {:016x}\n",
            rep.error_pct.to_bits(),
            rep.speedup.to_bits(),
            rep.num_samples,
            rep.predicted_error_pct.to_bits(),
        ));
    }
    out.push_str("END\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::SuiteId;
    use std::path::PathBuf;
    use stem_core::EvalResult;

    #[test]
    fn submit_round_trips_with_and_without_deadline() {
        let r = parse_request("SUBMIT t1 rodinia 33 0 2 7").expect("valid");
        match r {
            Request::Submit(spec) => {
                assert_eq!(spec.tenant, "t1");
                assert_eq!(spec.suite, SuiteId::Rodinia);
                assert_eq!(spec.suite_seed, 33);
                assert_eq!(spec.workload_index, 0);
                assert_eq!(spec.reps, 2);
                assert_eq!(spec.seed, 7);
                assert_eq!(spec.deadline_ms, None);
                assert_eq!(spec.sampler, "STEM", "sampler defaults to STEM");
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let r = parse_request("SUBMIT t1 casio 5 1 3 9 250").expect("valid");
        match r {
            Request::Submit(spec) => {
                assert_eq!(spec.deadline_ms, Some(250));
                assert_eq!(spec.sampler, "STEM");
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn submit_accepts_a_sampler_with_or_without_a_deadline() {
        let r = parse_request("SUBMIT t1 casio 5 1 3 9 250 RSS").expect("valid");
        match r {
            Request::Submit(spec) => {
                assert_eq!(spec.deadline_ms, Some(250));
                assert_eq!(spec.sampler, "RSS");
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let r = parse_request("SUBMIT t1 casio 5 1 3 9 - TwoPhase").expect("valid");
        match r {
            Request::Submit(spec) => {
                assert_eq!(spec.deadline_ms, None, "`-` means no deadline");
                assert_eq!(spec.sampler, "TwoPhase");
                assert_eq!(spec.store, None);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn submit_accepts_a_store_reference() {
        let r = parse_request("SUBMIT t1 rodinia 33 0 2 7 - STEM /tmp/stores/bfs 00000000deadbeef")
            .expect("valid");
        match r {
            Request::Submit(spec) => {
                let store = spec.store.expect("store parsed");
                assert_eq!(store.path, PathBuf::from("/tmp/stores/bfs"));
                assert_eq!(store.fingerprint, 0xdead_beef);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // A path without its fingerprint (9 fields) and a bad fingerprint
        // are typed messages, never a half-parsed store.
        assert!(parse_request("SUBMIT t1 rodinia 33 0 2 7 - STEM /tmp/stores/bfs").is_err());
        assert!(parse_request("SUBMIT t1 rodinia 33 0 2 7 - STEM /tmp/stores/bfs nothex").is_err());
    }

    #[test]
    fn simple_verbs_parse() {
        assert_eq!(
            parse_request("STATUS t1 4"),
            Ok(Request::Status {
                tenant: "t1".to_string(),
                job: 4
            })
        );
        assert_eq!(
            parse_request("RESULT t1 4"),
            Ok(Request::Result {
                tenant: "t1".to_string(),
                job: 4
            })
        );
        assert_eq!(
            parse_request("CANCEL t1 4"),
            Ok(Request::Cancel {
                tenant: "t1".to_string(),
                job: 4
            })
        );
        assert_eq!(parse_request("SHUTDOWN"), Ok(Request::Shutdown));
        assert_eq!(parse_request("PING"), Ok(Request::Ping));
    }

    #[test]
    fn garbage_is_a_typed_message_not_a_panic() {
        for bad in [
            "",
            "   ",
            "FROBNICATE now",
            "SUBMIT",
            "SUBMIT t1 mystery 1 0 2 7",
            "SUBMIT t1 rodinia 1 0 0 7",
            "SUBMIT bad tenant rodinia 1 0 2 7",
            "SUBMIT t1 rodinia 1 0 2 7 - bad!sampler",
            "SUBMIT t1 rodinia 1 0 2 7 250 RSS extra",
            "STATUS t1",
            "STATUS t1 notanumber",
            "SHUTDOWN please",
            "PING PING",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn overload_renders_structured() {
        let e = StemError::Overloaded {
            scope: "queue".to_string(),
            depth: 8,
            retry_after_ms: 200,
        };
        assert_eq!(
            render_error(&e),
            "ERR overloaded scope=queue depth=8 retry-after-ms=200"
        );
        let other = render_error(&StemError::EmptyWorkload);
        assert!(other.starts_with("ERR rejected "));
    }

    #[test]
    fn result_payload_is_bit_exact_and_framed() {
        let summary = EvalSummary {
            method: "stem-root".to_string(),
            workload: "bfs".to_string(),
            mean_error_pct: 1.5,
            harmonic_speedup: 100.0,
            results: vec![EvalResult {
                method: "stem-root".to_string(),
                workload: "bfs".to_string(),
                error_pct: 1.5,
                speedup: 100.0,
                num_samples: 12,
                predicted_error_pct: 5.0,
            }],
        };
        let payload = render_result_payload(&summary);
        assert!(payload.ends_with("END\n"));
        assert!(payload.contains(&format!("{:016x}", 1.5f64.to_bits())));
        assert_eq!(
            payload,
            render_result_payload(&summary),
            "rendering is a pure function"
        );
    }
}
