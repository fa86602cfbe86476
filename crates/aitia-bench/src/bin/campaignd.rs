//! `campaignd` — the supervised multi-campaign diagnosis daemon.
//!
//! ```text
//! # start the daemon over a state directory (drain mode exits when idle)
//! cargo run --release -p aitia-bench --bin campaignd -- run --dir /tmp/cd --drain
//!
//! # submit jobs from another process
//! cargo run --release -p aitia-bench --bin campaignd -- \
//!     submit --dir /tmp/cd cve:CVE-2017-15649:0.05 gen:42
//!
//! # observe lifecycle states and counters
//! cargo run --release -p aitia-bench --bin campaignd -- status --dir /tmp/cd
//! ```
//!
//! Jobs stream into a durable CRC-framed queue (`queue.wal`) and run as
//! concurrent campaigns against one fair-shared VM pool and one shared
//! memo/snapshot substrate. Panics are supervised (re-queue with jittered
//! backoff, dead-letter after `--max-faults`), every lifecycle step is a
//! fsynced queue record, and each campaign journals its schedule
//! executions — SIGKILL the daemon at any point, restart it, and every
//! queued or running campaign resumes to a bit-identical diagnosis.
//! Results land in `results/job-<id>.report.txt`, byte-identical to
//! `diagnose <bug> --report-only` stdout; lifecycle and counters are in
//! `status.json`.
//!
//! Payloads are resolved against the bug corpus:
//! `cve:<bug-id>:<scale>` (hand-built corpus bug at a noise scale) or
//! `gen:<seed>[:<noise>[:<filler>]]` (generated bug).

use aitia::server::{
    CampaignServer,
    JobQueue,
    RetryBackoff,
    ServerConfig,
    SubmitError, //
};
use aitia_bench::experiments::CorpusJobResolver;
use std::sync::Arc;

const USAGE: &str = "usage: campaignd <run|submit|status> --dir <dir> [FLAGS] [payload...]

subcommands:
  run                   start the daemon over the state directory,
                        recovering any queued or interrupted jobs
  submit                append job payloads to the queue (idempotent by
                        payload; works while a daemon is running)
  status                print status.json (or fold the queue when no
                        daemon has written one yet)

payloads (submit):
  cve:<bug-id>:<scale>  corpus bug at a benign-noise scale in (0, 100],
                        e.g. cve:CVE-2017-15649:0.05
  gen:<seed>[:<noise>[:<filler>]]
                        generated bug, e.g. gen:42 or gen:42:0.5:1; noise
                        in [0, 100], 0 = silent

flags:
  --dir <path>          state directory (queue, journals, results,
                        quarantine, status); required
  --max-inflight <int>  concurrent campaigns, at least 1 (default 4)
  --total-vms <int>     VM slots fair-shared across campaigns, at least 1
                        (default 8)
  --max-queued <int>    backpressure bound on non-terminal jobs, at
                        least 1 (default 1024)
  --max-faults <int>    supervisor faults before dead-letter, at least 1
                        (default 3)
  --backoff-base-ms <int>
                        first-retry backoff, at least 1 ms (default 50)
  --backoff-max-ms <int>
                        backoff ceiling, at least the base (default 5000)
  --backoff-seed <int>  jitter seed (default 0xA17A)
  --poll-ms <int>       queue-file poll interval for foreign submits, at
                        least 1 ms (default 50)
  --wall-deadline-s <float>
                        per-campaign wall budget, finite and positive;
                        on expiry the diagnosis degrades to partial
  --sim-deadline-s <float>
                        per-campaign simulated-time budget, finite and
                        positive
  --drain               exit once every job is terminal (batch mode)
  -h | --help           this message

exit status (run): 0 = drained or stopped cleanly
exit status (submit): 0 = all accepted, 1 = rejected (queue full)
2 = usage error on any subcommand";

/// Prints the usage message (prefixed by `msg`) and exits with status 2.
fn usage_exit(msg: &str) -> ! {
    eprintln!("campaignd: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

/// Parses the value of flag `flag` at `args[*i + 1]`, advancing `*i`.
fn flag_value<T: std::str::FromStr>(args: &[String], i: &mut usize, flag: &str) -> T {
    *i += 1;
    let Some(raw) = args.get(*i) else {
        usage_exit(&format!("{flag} requires a value"));
    };
    raw.parse()
        .unwrap_or_else(|_| usage_exit(&format!("{flag}: invalid value {raw:?}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        usage_exit("a subcommand is required");
    };
    if matches!(cmd, "--help" | "-h") {
        println!("{USAGE}");
        return;
    }
    if !matches!(cmd, "run" | "submit" | "status") {
        usage_exit(&format!("unknown subcommand {cmd:?}"));
    }
    let mut dir: Option<String> = None;
    let mut config = ServerConfig::default();
    let mut backoff = RetryBackoff::default();
    let mut payloads: Vec<String> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--dir" => dir = Some(flag_value(&args, &mut i, "--dir")),
            "--max-inflight" => config.max_inflight = flag_value(&args, &mut i, "--max-inflight"),
            "--total-vms" => config.total_vms = flag_value(&args, &mut i, "--total-vms"),
            "--max-queued" => config.max_queued = flag_value(&args, &mut i, "--max-queued"),
            "--max-faults" => config.max_faults = flag_value(&args, &mut i, "--max-faults"),
            "--backoff-base-ms" => {
                backoff.base_ms = flag_value(&args, &mut i, "--backoff-base-ms");
            }
            "--backoff-max-ms" => backoff.max_ms = flag_value(&args, &mut i, "--backoff-max-ms"),
            "--backoff-seed" => backoff.seed = flag_value(&args, &mut i, "--backoff-seed"),
            "--poll-ms" => config.poll_ms = flag_value(&args, &mut i, "--poll-ms"),
            "--wall-deadline-s" => {
                config.wall_deadline_s = Some(flag_value(&args, &mut i, "--wall-deadline-s"));
            }
            "--sim-deadline-s" => {
                config.sim_deadline_s = Some(flag_value(&args, &mut i, "--sim-deadline-s"));
            }
            "--drain" => config.drain = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other if other.starts_with('-') => usage_exit(&format!("unknown flag {other:?}")),
            other => payloads.push(other.to_string()),
        }
        i += 1;
    }
    let Some(dir) = dir else {
        usage_exit("--dir is required");
    };
    config.dir = dir.into();
    config.backoff = backoff;
    if let Err(e) = config.validate() {
        usage_exit(&e);
    }

    match cmd {
        "run" => {
            if !payloads.is_empty() {
                usage_exit("run takes no payloads; use the submit subcommand");
            }
            let server = match CampaignServer::open(config, Arc::new(CorpusJobResolver)) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("campaignd: cannot open server state: {e}");
                    std::process::exit(1);
                }
            };
            let recovered = server.stats();
            if recovered.resumed > 0 {
                eprintln!(
                    "campaignd: recovered {} interrupted campaign(s) from the queue",
                    recovered.resumed
                );
            }
            let stats = server.run();
            eprintln!(
                "campaignd: {} terminal ({} complete, {} partial, {} no-repro, \
                 {} dead-lettered), {} supervisor fault(s), {} retried",
                stats.terminal(),
                stats.completed,
                stats.partial,
                stats.no_reproduction,
                stats.dead_lettered,
                stats.supervisor_faults,
                stats.retried
            );
            eprintln!(
                "campaignd: queue: {} folds of {} frames in {:.1} ms, {} frames scanned \
                 before appends, {} fsyncs in {:.1} ms; journals: {} fsyncs in {:.1} ms",
                stats.queue_folds,
                stats.queue_frames_folded,
                stats.queue_fold_ns as f64 / 1e6,
                stats.queue_frames_repaired,
                stats.queue_fsyncs,
                stats.queue_fsync_ns as f64 / 1e6,
                stats.journal_fsyncs,
                stats.journal_fsync_ns as f64 / 1e6,
            );
        }
        "submit" => {
            if payloads.is_empty() {
                usage_exit("submit requires at least one payload");
            }
            let queue = match JobQueue::open(&config.dir) {
                Ok(q) => q,
                Err(e) => {
                    eprintln!("campaignd: cannot open queue: {e}");
                    std::process::exit(1);
                }
            };
            let mut rejected = false;
            for payload in &payloads {
                match queue.submit(payload, config.max_queued) {
                    Ok(id) => println!("job {id} {payload}"),
                    Err(SubmitError::Full { queued, max }) => {
                        eprintln!(
                            "campaignd: {payload}: queue full ({queued} non-terminal \
                             jobs at the bound of {max})"
                        );
                        rejected = true;
                    }
                    Err(SubmitError::Io(e)) => {
                        eprintln!("campaignd: {payload}: {e}");
                        rejected = true;
                    }
                }
            }
            if rejected {
                std::process::exit(1);
            }
        }
        "status" => {
            if !payloads.is_empty() {
                usage_exit("status takes no payloads");
            }
            let status_path = config.dir.join("status.json");
            if let Ok(json) = std::fs::read_to_string(&status_path) {
                print!("{json}");
                return;
            }
            // No daemon has written a status yet: fold the queue directly.
            let queue = match JobQueue::open(&config.dir) {
                Ok(q) => q,
                Err(e) => {
                    eprintln!("campaignd: cannot open queue: {e}");
                    std::process::exit(1);
                }
            };
            match queue.fold() {
                Ok(jobs) => {
                    for job in jobs.values() {
                        println!(
                            "job {} {} {} attempt={}{}",
                            job.id,
                            job.state,
                            job.payload,
                            job.attempt,
                            job.digest
                                .as_deref()
                                .map(|d| format!(" digest={d}"))
                                .unwrap_or_default()
                        );
                    }
                }
                Err(e) => {
                    eprintln!("campaignd: cannot fold queue: {e}");
                    std::process::exit(1);
                }
            }
        }
        _ => unreachable!("subcommand validated above"),
    }
}
