//! The `stem-serve` daemon entry point.
//!
//! ```text
//! stem-serve --dir /var/lib/stem-serve [--workers 2] [--threads 4]
//!            [--queue 8] [--high-water 6] [--tenant-cap 2]
//! ```
//!
//! Prints the bound address (`127.0.0.1:<port>`) on stdout, then serves
//! until a client sends `SHUTDOWN` (running campaigns checkpoint and
//! stay resumable from the journal directory). All error reporting goes
//! through the typed [`StemError`] display, so daemon logs and CLI
//! errors share one format.

use std::process::ExitCode;

use stem_core::StemError;
use stem_serve::{ServeConfig, Server};

fn usage() -> String {
    "usage: stem-serve --dir <journal-dir> [--workers N] [--threads N] \
     [--queue N] [--high-water N] [--tenant-cap N]"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<ServeConfig, StemError> {
    let mut dir: Option<String> = None;
    let mut config_overrides: Vec<(String, u64)> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<String, StemError> {
            it.next()
                .cloned()
                .ok_or_else(|| StemError::InvalidConfig(format!("{what} needs a value")))
        };
        match flag.as_str() {
            "--dir" => dir = Some(value("--dir")?),
            "--workers" | "--threads" | "--queue" | "--high-water" | "--tenant-cap" => {
                let raw = value(flag)?;
                let n: u64 = raw.parse().map_err(|_| {
                    StemError::InvalidConfig(format!("{flag} expects a number, got {raw:?}"))
                })?;
                config_overrides.push((flag.clone(), n));
            }
            "--help" | "-h" => return Err(StemError::InvalidConfig(usage())),
            other => {
                return Err(StemError::InvalidConfig(format!(
                    "unknown flag {other:?}; {}",
                    usage()
                )))
            }
        }
    }
    let Some(dir) = dir else {
        return Err(StemError::InvalidConfig(usage()));
    };
    let mut config = ServeConfig::new(dir);
    for (flag, n) in config_overrides {
        let n_usize = n as usize;
        match flag.as_str() {
            "--workers" => config.workers = n_usize,
            "--threads" => config.total_threads = n_usize,
            "--queue" => config.queue_capacity = n_usize,
            "--high-water" => config.high_water = n_usize,
            "--tenant-cap" => config.per_tenant_queue_cap = n_usize,
            _ => {}
        }
    }
    config.validate()?;
    Ok(config)
}

fn run() -> Result<(), StemError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = parse_args(&args)?;
    let server = Server::start(config)?;
    println!("stem-serve listening on {}", server.addr());
    let recovery = server.recovery();
    if !recovery.re_admitted.is_empty() {
        println!(
            "re-admitted {} journaled job(s)",
            recovery.re_admitted.len()
        );
    }
    if let Some(q) = &recovery.quarantined {
        println!("quarantined corrupt journal at {}", q.path.display());
    }
    if !recovery.swept_tmp.is_empty() {
        println!(
            "swept {} orphan tmp file(s) from the journal dir",
            recovery.swept_tmp.len()
        );
    }
    // Serve until a client issues SHUTDOWN; `shutdown` joins the worker
    // pool and acceptor once the wire flips the flag.
    server.shutdown_on_request();
    println!("stem-serve: clean shutdown, journal retained");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("stem-serve: {e}");
            ExitCode::from(2)
        }
    }
}
