//! `campaignd` — a supervised multi-campaign diagnosis service.
//!
//! The server turns the one-shot [`crate::campaign::Campaign`] driver
//! into a long-lived daemon: diagnosis jobs stream into a durable
//! CRC-framed on-disk queue ([`queue::JobQueue`]) and run as concurrent
//! campaigns against *shared* infrastructure — one VM pool carved up by
//! deficit-round-robin fair sharing ([`supervisor::FairShare`]) and one
//! cross-campaign [`Substrate`] (sharded memo table + snapshot forest),
//! so a schedule proven by one campaign is free for every later one.
//!
//! Robustness is the point:
//!
//! * **Admission control.** Submission applies backpressure once
//!   `max_queued` non-terminal jobs are pending; in-flight campaigns are
//!   bounded by `max_inflight` worker threads.
//! * **Supervision.** Each campaign runs under `catch_unwind`; a panic
//!   (in the resolver or anywhere in the diagnosis pipeline) is a counted
//!   fault, not a daemon crash. Faulted jobs re-queue with
//!   seeded-jittered, clamped exponential backoff
//!   ([`supervisor::RetryBackoff`]) and dead-letter into
//!   `quarantine/` after `max_faults` faults — a poison job can never
//!   wedge the queue behind it.
//! * **Crash recovery.** Every lifecycle step is a fsynced queue record
//!   and every campaign writes its own run journal
//!   (`journals/job-<id>.wal`). SIGKILL at any byte, restart, and every
//!   queued or running campaign resumes — replaying its journal to a
//!   bit-identical diagnosis without re-running a single VM schedule.
//! * **Observability.** Lifecycle `Queued → Running →
//!   Complete/Partial/NoReproduction/DeadLettered` is visible in
//!   `status.json` (written atomically) alongside [`ServerStats`]
//!   counters.
//!
//! The server is policy-free about what a job *is*: payloads are opaque
//! strings handed to a caller-supplied [`JobResolver`], which maps them
//! to a program plus LIFS/causality configuration. The bench harness
//! resolves `cve:<bug>:<scale>` and `gen:<seed>` payloads against the
//! bug corpus.

pub mod queue;
pub mod supervisor;

pub use queue::{
    JobQueue,
    JobSnapshot,
    JobState,
    SubmitError, //
};
pub use supervisor::{
    supervised,
    FairShare,
    RetryBackoff, //
};

use crate::campaign::{
    Campaign,
    CampaignOutcome, //
};
use crate::causality::CausalityConfig;
use crate::exec::Substrate;
use crate::lifs::LifsConfig;
use crate::manager::ManagerConfig;
use crate::report;
use ksim::Program;
use serde::{
    Deserialize,
    Serialize, //
};
use std::{
    collections::{
        BTreeMap,
        BTreeSet, //
    },
    hash::{
        Hash,
        Hasher, //
    },
    path::{
        Path,
        PathBuf, //
    },
    sync::atomic::{
        AtomicU64,
        Ordering, //
    },
    sync::{
        Arc,
        Condvar,
        Mutex, //
    },
    time::{
        Duration,
        Instant, //
    },
};

/// The digest recorded for a job whose campaign reproduced nothing.
pub const NO_REPRO_DIGEST: &str = "no-reproduction";

/// A payload resolved into everything a campaign needs.
pub struct ResolvedJob {
    /// The program to diagnose.
    pub program: Arc<Program>,
    /// LIFS configuration for the reproduction stage.
    pub lifs: LifsConfig,
    /// Causality Analysis configuration for the flipping stage.
    pub causality: CausalityConfig,
    /// Can hold no value: VM faults are not simulated. The field stays
    /// only because the benchmark still names it; ROADMAP item 2 stops
    /// that and deletes the field.
    pub fault: Option<std::convert::Infallible>,
}

/// Maps opaque job payloads to diagnosable programs.
///
/// Implementations live above this crate (the bench harness resolves
/// against its bug corpus); the server only needs `resolve`. Returning
/// `Err` — or panicking — counts as a supervisor fault: the job retries
/// with backoff and dead-letters at the fault bound.
pub trait JobResolver: Send + Sync {
    /// Resolves `payload` into a job, or an error describing why it
    /// cannot run.
    ///
    /// # Errors
    ///
    /// A human-readable reason; the server records it on the job.
    fn resolve(&self, payload: &str) -> Result<ResolvedJob, String>;
}

/// Static configuration of a [`CampaignServer`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Server state directory: queue, journals, results, quarantine,
    /// status file.
    pub dir: PathBuf,
    /// Maximum concurrently running campaigns (worker threads).
    pub max_inflight: usize,
    /// Total VM slots shared across campaigns by fair-share scheduling.
    pub total_vms: usize,
    /// Backpressure bound: submits are rejected once this many
    /// non-terminal jobs are queued.
    pub max_queued: usize,
    /// Supervisor faults before a job is dead-lettered.
    pub max_faults: u32,
    /// Retry backoff policy for faulted jobs.
    pub backoff: RetryBackoff,
    /// Per-campaign wall-clock deadline in seconds (degrades to
    /// [`JobState::Partial`]).
    pub wall_deadline_s: Option<f64>,
    /// Per-campaign simulated-time deadline in seconds.
    pub sim_deadline_s: Option<f64>,
    /// Exit [`CampaignServer::run`] once the queue is drained (tests,
    /// batch mode) instead of idling for more submits.
    pub drain: bool,
    /// How often idle workers poll the queue file for submits made by
    /// other processes, in milliseconds.
    pub poll_ms: u64,
    /// The cross-campaign execution substrate (memo table + snapshot
    /// forest) every campaign shares.
    pub substrate: Substrate,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            dir: PathBuf::from("campaignd-state"),
            max_inflight: 4,
            total_vms: 8,
            max_queued: 1024,
            max_faults: 3,
            backoff: RetryBackoff::default(),
            wall_deadline_s: None,
            sim_deadline_s: None,
            drain: false,
            poll_ms: 50,
            substrate: Substrate::default(),
        }
    }
}

impl ServerConfig {
    /// Default configuration rooted at `dir`, with a memo table twice the
    /// default size, since every campaign of the server shares it.
    #[must_use]
    pub fn at(dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            dir: dir.into(),
            substrate: Substrate::private(16_384, 256),
            ..ServerConfig::default()
        }
    }

    /// Rejects nonsensical knob combinations with a human-readable
    /// reason (the CLI maps this to the exit-2 usage standard).
    ///
    /// # Errors
    ///
    /// A message naming the offending knob.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_inflight == 0 {
            return Err("--max-inflight must be at least 1".into());
        }
        if self.total_vms == 0 {
            return Err("--total-vms must be at least 1".into());
        }
        if self.max_queued == 0 {
            return Err("--max-queued must be at least 1".into());
        }
        if self.max_faults == 0 {
            return Err("--max-faults must be at least 1".into());
        }
        if self.poll_ms == 0 {
            return Err("--poll-ms must be at least 1".into());
        }
        if self.backoff.base_ms == 0 {
            return Err("--backoff-base-ms must be at least 1".into());
        }
        if self.backoff.max_ms < self.backoff.base_ms {
            return Err("--backoff-max-ms must be at least --backoff-base-ms".into());
        }
        for (name, v) in [
            ("--wall-deadline-s", self.wall_deadline_s),
            ("--sim-deadline-s", self.sim_deadline_s),
        ] {
            if let Some(d) = v {
                if !d.is_finite() || d <= 0.0 {
                    return Err(format!("{name} must be a finite positive number"));
                }
            }
        }
        Ok(())
    }
}

/// Monotonic counters describing everything the server has done.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct ServerStats {
    /// Jobs accepted through this handle's [`CampaignServer::submit`].
    pub submitted: u64,
    /// Submits rejected by backpressure.
    pub rejected_full: u64,
    /// Non-terminal jobs recovered from the queue at startup (crash
    /// recovery) — each resumes from its journal.
    pub resumed: u64,
    /// Jobs discovered by polling the queue file (submitted by another
    /// process while the daemon ran).
    pub discovered: u64,
    /// Campaigns admitted to the VM pool (includes retries).
    pub admitted: u64,
    /// Supervisor faults caught (panics and resolver errors).
    pub supervisor_faults: u64,
    /// Faulted jobs re-queued with backoff.
    pub retried: u64,
    /// Jobs that reached [`JobState::Complete`].
    pub completed: u64,
    /// Jobs that reached [`JobState::Partial`].
    pub partial: u64,
    /// Jobs that reached [`JobState::NoReproduction`].
    pub no_reproduction: u64,
    /// Jobs quarantined as [`JobState::DeadLettered`].
    pub dead_lettered: u64,
    /// Sum of per-campaign simulated pool makespans, in nanoseconds —
    /// the deterministic cost basis for throughput comparisons.
    pub sim_makespan_ns: u64,
    /// Full reads of the queue file through [`JobQueue::fold`] (submits,
    /// status writes, polls and the startup recovery).
    pub queue_folds: u64,
    /// Their total duration in nanoseconds, file reads included.
    pub queue_fold_ns: u64,
    /// Queue frames decoded by those folds.
    pub queue_frames_folded: u64,
    /// Queue frames scanned by the torn-tail check before every append.
    pub queue_frames_repaired: u64,
    /// fsyncs of the queue file: its header and every append.
    pub queue_fsyncs: u64,
    /// Their total duration in nanoseconds.
    pub queue_fsync_ns: u64,
    /// fsyncs of the campaigns' run journals (headers, batched appends and
    /// each campaign's final flush), summed over finished attempts.
    pub journal_fsyncs: u64,
    /// Their total duration in nanoseconds.
    pub journal_fsync_ns: u64,
}

impl ServerStats {
    /// Jobs that reached any terminal state.
    #[must_use]
    pub fn terminal(&self) -> u64 {
        self.completed + self.partial + self.no_reproduction + self.dead_lettered
    }
}

/// Atomic backing for [`ServerStats`].
#[derive(Default)]
struct StatCells {
    submitted: AtomicU64,
    rejected_full: AtomicU64,
    resumed: AtomicU64,
    discovered: AtomicU64,
    admitted: AtomicU64,
    supervisor_faults: AtomicU64,
    retried: AtomicU64,
    completed: AtomicU64,
    partial: AtomicU64,
    no_reproduction: AtomicU64,
    dead_lettered: AtomicU64,
    sim_makespan_ns: AtomicU64,
    journal_fsyncs: AtomicU64,
    journal_fsync_ns: AtomicU64,
}

impl StatCells {
    fn snapshot(&self, queue: &JobQueue) -> ServerStats {
        let load = |c: &AtomicU64| c.load(Ordering::SeqCst);
        let io = queue.io();
        ServerStats {
            submitted: load(&self.submitted),
            rejected_full: load(&self.rejected_full),
            resumed: load(&self.resumed),
            discovered: load(&self.discovered),
            admitted: load(&self.admitted),
            supervisor_faults: load(&self.supervisor_faults),
            retried: load(&self.retried),
            completed: load(&self.completed),
            partial: load(&self.partial),
            no_reproduction: load(&self.no_reproduction),
            dead_lettered: load(&self.dead_lettered),
            sim_makespan_ns: load(&self.sim_makespan_ns),
            queue_folds: load(&io.folds),
            queue_fold_ns: load(&io.fold_ns),
            queue_frames_folded: load(&io.frames_folded),
            queue_frames_repaired: load(&io.frames_repaired),
            queue_fsyncs: load(&io.fsyncs),
            queue_fsync_ns: load(&io.fsync_ns),
            journal_fsyncs: load(&self.journal_fsyncs),
            journal_fsync_ns: load(&self.journal_fsync_ns),
        }
    }
}

/// The shape of `status.json`: counters plus every job's folded
/// lifecycle state.
#[derive(Serialize)]
struct ServerStatus {
    /// Counter snapshot at write time.
    stats: ServerStats,
    /// Folded per-job states, in id order.
    jobs: Vec<JobSnapshot>,
}

/// The quarantine post-mortem written for a dead-lettered job.
#[derive(Serialize)]
struct QuarantineRecord {
    /// The dead-lettered job.
    id: u64,
    /// Its opaque payload — kept verbatim for offline reproduction.
    payload: String,
    /// Supervisor faults consumed before quarantine.
    faults: u32,
    /// The last fault's message.
    last_fault: String,
}

/// A job waiting to be (re)dispatched.
struct PendingJob {
    payload: String,
    attempt: u32,
    not_before: Instant,
}

/// Worker-shared dispatch state, guarded by one mutex + condvar.
struct Dispatch {
    /// Jobs eligible (or soon eligible) to run, by id.
    pending: BTreeMap<u64, PendingJob>,
    /// Ids ever seen by this server instance (pending, running, or
    /// terminal) — polls skip them.
    seen: BTreeSet<u64>,
    /// Campaigns currently executing.
    running: usize,
    /// The fair-share VM-slot allocator.
    fair: FairShare,
    /// Set to stop all workers (drain reached, or [`CampaignServer::stop`]).
    stop: bool,
    /// Last time the queue file was polled for foreign submits.
    last_poll: Instant,
}

/// What one supervised campaign attempt produced. Its report, if any, is
/// already written.
struct JobDone {
    state: JobState,
    digest: String,
    sim_ns: u64,
}

/// The long-lived multi-campaign diagnosis service.
pub struct CampaignServer {
    config: ServerConfig,
    queue: JobQueue,
    resolver: Arc<dyn JobResolver>,
    dispatch: Mutex<Dispatch>,
    cv: Condvar,
    stats: StatCells,
}

impl CampaignServer {
    /// Opens (or recovers) a server over the state directory in
    /// `config.dir`: the queue is opened (torn tails repaired), the
    /// `journals/`, `results/` and `quarantine/` subdirectories are
    /// created, and every non-terminal job in the queue is scheduled for
    /// (re-)dispatch.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures (as
    /// `InvalidInput`) and state-directory I/O errors.
    pub fn open(config: ServerConfig, resolver: Arc<dyn JobResolver>) -> std::io::Result<Self> {
        config
            .validate()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        let queue = JobQueue::open(&config.dir)?;
        for sub in ["journals", "results", "quarantine"] {
            std::fs::create_dir_all(config.dir.join(sub))?;
        }
        let fair = FairShare::new(config.total_vms, config.max_inflight);
        let server = CampaignServer {
            queue,
            resolver,
            dispatch: Mutex::new(Dispatch {
                pending: BTreeMap::new(),
                seen: BTreeSet::new(),
                running: 0,
                fair,
                stop: false,
                last_poll: Instant::now(),
            }),
            cv: Condvar::new(),
            stats: StatCells::default(),
            config,
        };
        server.bootstrap()?;
        Ok(server)
    }

    /// The server configuration.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.stats.snapshot(&self.queue)
    }

    /// The folded per-job lifecycle states, by id.
    ///
    /// # Errors
    ///
    /// Propagates queue-file read errors.
    pub fn jobs(&self) -> std::io::Result<BTreeMap<u64, JobSnapshot>> {
        self.queue.fold()
    }

    /// Recovers queue state at startup: every non-terminal job becomes
    /// pending; jobs that were `Running` when the previous incarnation
    /// died count as `resumed`.
    fn bootstrap(&self) -> std::io::Result<()> {
        let jobs = self.queue.fold()?;
        let mut d = self.dispatch.lock().expect("dispatch poisoned");
        let now = Instant::now();
        for job in jobs.values() {
            d.seen.insert(job.id);
            if job.state.is_terminal() {
                continue;
            }
            if job.state != JobState::Queued {
                self.stats.resumed.fetch_add(1, Ordering::SeqCst);
            }
            d.pending.insert(
                job.id,
                PendingJob {
                    payload: job.payload.clone(),
                    attempt: job.attempt,
                    not_before: now,
                },
            );
        }
        drop(d);
        self.write_status();
        Ok(())
    }

    /// Submits a job payload, applying backpressure at `max_queued`.
    /// Idempotent by payload (a duplicate returns the existing id).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] on backpressure; [`SubmitError::Io`] on
    /// queue-file errors.
    pub fn submit(&self, payload: &str) -> Result<u64, SubmitError> {
        match self.queue.submit(payload, self.config.max_queued) {
            Ok(id) => {
                let mut d = self.dispatch.lock().expect("dispatch poisoned");
                if d.seen.insert(id) {
                    self.stats.submitted.fetch_add(1, Ordering::SeqCst);
                    d.pending.insert(
                        id,
                        PendingJob {
                            payload: payload.to_string(),
                            attempt: 0,
                            not_before: Instant::now(),
                        },
                    );
                    self.cv.notify_all();
                }
                Ok(id)
            }
            Err(e) => {
                if matches!(e, SubmitError::Full { .. }) {
                    self.stats.rejected_full.fetch_add(1, Ordering::SeqCst);
                }
                Err(e)
            }
        }
    }

    /// Asks all workers to stop after their current campaign.
    pub fn stop(&self) {
        let mut d = self.dispatch.lock().expect("dispatch poisoned");
        d.stop = true;
        self.cv.notify_all();
    }

    /// Runs `max_inflight` campaign workers until [`CampaignServer::stop`]
    /// — or, with `drain` set, until every job has reached a terminal
    /// state. Returns the final counter snapshot.
    pub fn run(&self) -> ServerStats {
        self.write_pidfile();
        std::thread::scope(|s| {
            for _ in 0..self.config.max_inflight {
                s.spawn(|| self.worker());
            }
        });
        self.write_status();
        let _ = std::fs::remove_file(self.config.dir.join("campaignd.pid"));
        self.stats()
    }

    /// One worker: claim an eligible job and a fair-share width, execute
    /// it supervised, release, repeat.
    fn worker(&self) {
        loop {
            let claimed = {
                let mut d = self.dispatch.lock().expect("dispatch poisoned");
                loop {
                    if d.stop {
                        break None;
                    }
                    self.poll_foreign(&mut d, false);
                    let now = Instant::now();
                    let due = d
                        .pending
                        .iter()
                        .find(|(_, p)| p.not_before <= now)
                        .map(|(&id, _)| id);
                    if let Some(id) = due {
                        if let Some(width) = d.fair.grant() {
                            let p = d.pending.remove(&id).expect("due job vanished");
                            d.running += 1;
                            break Some((id, p.payload, p.attempt, width));
                        }
                        // Pool exhausted: wait for a release.
                        d = self
                            .cv
                            .wait_timeout(d, Duration::from_millis(self.config.poll_ms))
                            .expect("dispatch poisoned")
                            .0;
                        continue;
                    }
                    if d.pending.is_empty() && d.running == 0 && self.config.drain {
                        // Final poll so a submit racing the drain is not
                        // stranded.
                        self.poll_foreign(&mut d, true);
                        if d.pending.is_empty() {
                            d.stop = true;
                            self.cv.notify_all();
                            break None;
                        }
                        continue;
                    }
                    // Sleep until the next backoff expiry or poll tick.
                    let wait = d
                        .pending
                        .values()
                        .map(|p| p.not_before.saturating_duration_since(now))
                        .min()
                        .unwrap_or(Duration::from_millis(self.config.poll_ms))
                        .min(Duration::from_millis(self.config.poll_ms))
                        .max(Duration::from_millis(1));
                    d = self.cv.wait_timeout(d, wait).expect("dispatch poisoned").0;
                }
            };
            let Some((id, payload, attempt, width)) = claimed else {
                return;
            };
            self.execute(id, &payload, attempt, width);
            {
                let mut d = self.dispatch.lock().expect("dispatch poisoned");
                d.running -= 1;
                d.fair.release(width);
                self.cv.notify_all();
            }
            self.write_status();
        }
    }

    /// Folds the queue file looking for jobs submitted by other
    /// processes. Rate-limited to `poll_ms` unless `force`.
    fn poll_foreign(&self, d: &mut Dispatch, force: bool) {
        if !force && d.last_poll.elapsed() < Duration::from_millis(self.config.poll_ms) {
            return;
        }
        d.last_poll = Instant::now();
        let Ok(jobs) = self.queue.fold() else { return };
        let now = Instant::now();
        for job in jobs.values() {
            if job.state.is_terminal() || !d.seen.insert(job.id) {
                continue;
            }
            self.stats.discovered.fetch_add(1, Ordering::SeqCst);
            d.pending.insert(
                job.id,
                PendingJob {
                    payload: job.payload.clone(),
                    attempt: job.attempt,
                    not_before: now,
                },
            );
        }
    }

    /// Runs one supervised campaign attempt for a claimed job. The attempt
    /// includes writing the job's report: a job whose report cannot be
    /// written faults like one whose diagnosis panicked, so a diagnosed job
    /// is never recorded terminal without its report.
    fn execute(&self, id: u64, payload: &str, attempt: u32, width: usize) {
        self.stats.admitted.fetch_add(1, Ordering::SeqCst);
        let _ = self
            .queue
            .transition(id, JobState::Running, attempt, None, None, None);
        self.write_status();
        let journal_path = self
            .config
            .dir
            .join("journals")
            .join(format!("job-{id}.wal"));
        let outcome = supervised(|| -> Result<JobDone, String> {
            let resolved = self.resolver.resolve(payload)?;
            let config = ManagerConfig {
                vms: width,
                lifs: resolved.lifs,
                causality: resolved.causality,
                memo: true,
                substrate: self.config.substrate.clone(),
                wall_deadline_s: self.config.wall_deadline_s,
                sim_deadline_s: self.config.sim_deadline_s,
                journal: None,
            };
            let campaign = Campaign::with_journal_path(config, &journal_path);
            let out = campaign.diagnose_program(Arc::clone(&resolved.program));
            if let Some(js) = campaign.journal_stats() {
                let cells = &self.stats;
                cells.journal_fsyncs.fetch_add(js.fsyncs, Ordering::SeqCst);
                cells
                    .journal_fsync_ns
                    .fetch_add(js.fsync_ns, Ordering::SeqCst);
            }
            let sim_ns = campaign.manager().exec_stats().sim_makespan_ns;
            let (state, digest, text) = classify(&resolved.program, &out);
            if let Some(text) = text {
                let path = self
                    .config
                    .dir
                    .join("results")
                    .join(format!("job-{id}.report.txt"));
                write_atomic(&path, format!("{text}\n").as_bytes())
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
            }
            Ok(JobDone {
                state,
                digest,
                sim_ns,
            })
        })
        .and_then(|r| r);
        match outcome {
            Ok(done) => {
                let cell = match done.state {
                    JobState::Complete => &self.stats.completed,
                    JobState::Partial => &self.stats.partial,
                    _ => &self.stats.no_reproduction,
                };
                cell.fetch_add(1, Ordering::SeqCst);
                self.stats
                    .sim_makespan_ns
                    .fetch_add(done.sim_ns, Ordering::SeqCst);
                let _ = self.queue.transition(
                    id,
                    done.state,
                    attempt,
                    Some(done.digest),
                    None,
                    Some(done.sim_ns),
                );
            }
            Err(fault) => {
                self.stats.supervisor_faults.fetch_add(1, Ordering::SeqCst);
                let attempt = attempt + 1;
                if attempt >= self.config.max_faults {
                    self.dead_letter(id, payload, attempt, &fault);
                } else {
                    self.stats.retried.fetch_add(1, Ordering::SeqCst);
                    let _ = self.queue.transition(
                        id,
                        JobState::Queued,
                        attempt,
                        None,
                        Some(fault),
                        None,
                    );
                    let delay = self.config.backoff.delay(id, attempt);
                    let mut d = self.dispatch.lock().expect("dispatch poisoned");
                    d.pending.insert(
                        id,
                        PendingJob {
                            payload: payload.to_string(),
                            attempt,
                            not_before: Instant::now() + delay,
                        },
                    );
                    self.cv.notify_all();
                }
            }
        }
    }

    /// Quarantines a job that faulted the supervisor `attempt` times:
    /// a JSON post-mortem under `quarantine/` plus a terminal
    /// `DeadLettered` record. Later jobs are unaffected.
    fn dead_letter(&self, id: u64, payload: &str, attempt: u32, fault: &str) {
        self.stats.dead_lettered.fetch_add(1, Ordering::SeqCst);
        let post_mortem = QuarantineRecord {
            id,
            payload: payload.to_string(),
            faults: attempt,
            last_fault: fault.to_string(),
        };
        let path = self
            .config
            .dir
            .join("quarantine")
            .join(format!("job-{id}.json"));
        if let Ok(json) = serde_json::to_string_pretty(&post_mortem) {
            let _ = write_atomic(&path, format!("{json}\n").as_bytes());
        }
        let _ = self.queue.transition(
            id,
            JobState::DeadLettered,
            attempt,
            None,
            Some(fault.to_string()),
            None,
        );
    }

    /// Writes `status.json` atomically: folded per-job lifecycle states
    /// plus the counter snapshot.
    fn write_status(&self) {
        let Ok(jobs) = self.queue.fold() else { return };
        let status = ServerStatus {
            stats: self.stats(),
            jobs: jobs.into_values().collect(),
        };
        if let Ok(json) = serde_json::to_string_pretty(&status) {
            let _ = write_atomic(
                &self.config.dir.join("status.json"),
                format!("{json}\n").as_bytes(),
            );
        }
    }

    fn write_pidfile(&self) {
        let _ = write_atomic(
            &self.config.dir.join("campaignd.pid"),
            format!("{}\n", std::process::id()).as_bytes(),
        );
    }
}

/// Maps a campaign outcome to its terminal job state, digest, and
/// rendered report (diagnosed outcomes only).
fn classify(
    program: &Arc<Program>,
    outcome: &CampaignOutcome,
) -> (JobState, String, Option<String>) {
    match outcome {
        CampaignOutcome::Complete(d) => {
            let text = report::render(program, &d.failing, &d.result);
            (JobState::Complete, report_digest(&text), Some(text))
        }
        CampaignOutcome::Partial(p) => {
            let text = report::render(program, &p.diagnosis.failing, &p.diagnosis.result);
            (JobState::Partial, report_digest(&text), Some(text))
        }
        CampaignOutcome::NoReproduction { .. } => {
            (JobState::NoReproduction, NO_REPRO_DIGEST.to_string(), None)
        }
    }
}

/// The digest the server records for a diagnosis: a 64-bit hash of the
/// rendered report, hex-encoded. Tests compare it against the digest of a
/// direct single-campaign run to prove bit-identical outcomes.
#[must_use]
pub fn report_digest(text: &str) -> String {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    text.hash(&mut h);
    format!("{:016x}", h.finish())
}

/// Writes `bytes` to `path` atomically (temp file + rename) so readers
/// never observe a half-written file. Every write goes through a temp file
/// of its own: campaign workers write `status.json` concurrently, and a
/// shared temp path would let one writer truncate another's half-written
/// file just before that one renames it into place.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static WRITES: AtomicU64 = AtomicU64::new(0);
    let n = WRITES.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{n}", std::process::id()));
    let written = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::builder::{
        cond_reg,
        ProgramBuilder, //
    };
    use ksim::CmpOp;

    /// The Figure 1 use-after-free race as a resolvable program.
    fn fig1() -> Arc<Program> {
        let mut p = ProgramBuilder::new("fig1");
        let obj = p.static_obj("obj", 8);
        let ptr_valid = p.global("ptr_valid", 0);
        let ptr = p.global_ptr("ptr", obj);
        {
            let mut a = p.syscall_thread("A", "write");
            a.n("A1").store_global(ptr_valid, 1u64);
            a.n("A2").load_global("r0", ptr);
            a.load_ind("r1", "r0", 0);
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "write");
            let out = b.new_label();
            b.n("B1").load_global("r0", ptr_valid);
            b.jmp_if(cond_reg("r0", CmpOp::Eq, 0), out);
            b.n("B2").store_global(ptr, 0u64);
            b.place(out);
            b.ret();
        }
        Arc::new(p.build().unwrap())
    }

    /// Resolves `fig1` payloads; panics on `poison:` payloads; errors on
    /// anything else.
    struct TestResolver;

    impl JobResolver for TestResolver {
        fn resolve(&self, payload: &str) -> Result<ResolvedJob, String> {
            if payload.starts_with("poison:") {
                panic!("poison payload {payload} reached the pipeline");
            }
            if !payload.starts_with("fig1") {
                return Err(format!("unknown payload {payload}"));
            }
            Ok(ResolvedJob {
                program: fig1(),
                lifs: LifsConfig::default(),
                causality: CausalityConfig::default(),
                fault: None,
            })
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!(
            "aitia-server-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fast_config(dir: &Path, inflight: usize) -> ServerConfig {
        ServerConfig {
            drain: true,
            max_inflight: inflight,
            poll_ms: 5,
            backoff: RetryBackoff {
                base_ms: 1,
                max_ms: 4,
                seed: 1,
            },
            ..ServerConfig::at(dir)
        }
    }

    #[test]
    fn drains_jobs_to_complete_with_result_files_and_status() {
        let dir = temp_dir("drain");
        let server = CampaignServer::open(fast_config(&dir, 2), Arc::new(TestResolver)).unwrap();
        let a = server.submit("fig1#a").unwrap();
        let b = server.submit("fig1#b").unwrap();
        let stats = server.run();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.terminal(), 2);
        let jobs = server.jobs().unwrap();
        assert_eq!(jobs[&a].state, JobState::Complete);
        assert_eq!(
            jobs[&a].digest, jobs[&b].digest,
            "identical programs diagnose identically"
        );
        let report = std::fs::read_to_string(dir.join(format!("results/job-{a}.report.txt")))
            .expect("result file written");
        // The file is the rendered report plus one trailing newline (the
        // shape `diagnose --report-only` prints to stdout).
        let text = report.strip_suffix('\n').expect("trailing newline");
        assert_eq!(
            jobs[&a].digest.as_deref(),
            Some(report_digest(text).as_str())
        );
        assert!(dir.join("status.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The drain's timing-free I/O counts: one worker runs three jobs, so
    /// the queue appends happen in a fixed order. The queue syncs its
    /// header, three submits and two transitions per job; each append
    /// scans the frames before it. Each fresh job journal syncs its header,
    /// every full batch of appends and its final flush.
    #[test]
    fn drain_counts_queue_and_journal_fsyncs() {
        let dir = temp_dir("io-counts");
        let server = CampaignServer::open(fast_config(&dir, 1), Arc::new(TestResolver)).unwrap();
        let ids: Vec<u64> = ["fig1#a", "fig1#b", "fig1#c"]
            .iter()
            .map(|p| server.submit(p).unwrap())
            .collect();
        let stats = server.run();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.queue_fsyncs, 1 + 3 + 3 * 2);
        // Submits scan 0, 1 and 2 frames; the six transitions 3 through 8.
        assert_eq!(stats.queue_frames_repaired, (0..9).sum::<u64>());
        assert!(
            stats.queue_folds >= 3 + 3,
            "every submit and status write folds"
        );
        let journal_fsyncs: usize = ids
            .iter()
            .map(|id| {
                let path = dir.join(format!("journals/job-{id}.wal"));
                let records = crate::journal::record_count(path).unwrap();
                2 + records / crate::journal::FSYNC_EVERY
            })
            .sum();
        assert_eq!(stats.journal_fsyncs, journal_fsyncs as u64);
        let status = std::fs::read_to_string(dir.join("status.json")).unwrap();
        let field = format!("\"journal_fsyncs\": {journal_fsyncs}");
        assert!(
            status.contains(&field),
            "status.json lacks {field}: {status}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poison_jobs_dead_letter_without_blocking_later_jobs() {
        let dir = temp_dir("poison");
        let server = CampaignServer::open(fast_config(&dir, 1), Arc::new(TestResolver)).unwrap();
        let poison = server.submit("poison:1").unwrap();
        let good = server.submit("fig1#after-poison").unwrap();
        let stats = server.run();
        assert_eq!(stats.dead_lettered, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.supervisor_faults, 3, "max_faults attempts consumed");
        assert_eq!(stats.retried, 2);
        let jobs = server.jobs().unwrap();
        assert_eq!(jobs[&poison].state, JobState::DeadLettered);
        assert_eq!(jobs[&good].state, JobState::Complete);
        assert!(
            dir.join(format!("quarantine/job-{poison}.json")).exists(),
            "quarantine post-mortem written"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A job whose report cannot be written is not complete: the write
    /// error is a supervisor fault, retried with backoff and then
    /// dead-lettered with the error as its detail, while the job after it
    /// completes with its report.
    #[test]
    fn unwritable_report_dead_letters_instead_of_completing() {
        let dir = temp_dir("unwritable-report");
        let server = CampaignServer::open(fast_config(&dir, 1), Arc::new(TestResolver)).unwrap();
        let a = server.submit("fig1#a").unwrap();
        let b = server.submit("fig1#b").unwrap();
        // A directory where job a's report belongs fails its rename.
        std::fs::create_dir(dir.join(format!("results/job-{a}.report.txt"))).unwrap();
        let stats = server.run();
        assert_eq!((stats.completed, stats.dead_lettered), (1, 1));
        assert_eq!((stats.supervisor_faults, stats.retried), (3, 2));
        let jobs = server.jobs().unwrap();
        assert_eq!(jobs[&a].state, JobState::DeadLettered);
        assert_eq!(jobs[&a].digest, None);
        let detail = jobs[&a].detail.as_deref().unwrap();
        assert!(detail.contains(&format!("job-{a}.report.txt")), "{detail}");
        assert_eq!(jobs[&b].state, JobState::Complete);
        assert!(dir.join(format!("results/job-{b}.report.txt")).is_file());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resolver_errors_count_as_faults_and_dead_letter() {
        let dir = temp_dir("resolver-err");
        let server = CampaignServer::open(fast_config(&dir, 1), Arc::new(TestResolver)).unwrap();
        let bad = server.submit("nonsense").unwrap();
        let stats = server.run();
        assert_eq!(stats.dead_lettered, 1);
        let jobs = server.jobs().unwrap();
        assert_eq!(jobs[&bad].state, JobState::DeadLettered);
        assert!(jobs[&bad]
            .detail
            .as_deref()
            .unwrap()
            .contains("unknown payload"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_resumes_non_terminal_jobs_to_identical_digests() {
        let dir = temp_dir("restart");
        // First incarnation: submit two jobs, run one to completion, and
        // leave the other mid-lifecycle (simulate by writing the records
        // a killed daemon would have left).
        let server = CampaignServer::open(fast_config(&dir, 1), Arc::new(TestResolver)).unwrap();
        let a = server.submit("fig1#a").unwrap();
        let b = server.submit("fig1#b").unwrap();
        let stats = server.run();
        assert_eq!(stats.completed, 2);
        let first = server.jobs().unwrap();
        drop(server);
        // Forge a crash: rewind job b to Running (as if SIGKILLed
        // mid-campaign) and restart.
        let queue = JobQueue::open(&dir).unwrap();
        queue
            .transition(b, JobState::Running, 0, None, None, None)
            .unwrap();
        drop(queue);
        let server = CampaignServer::open(fast_config(&dir, 1), Arc::new(TestResolver)).unwrap();
        assert_eq!(server.stats().resumed, 1);
        let stats = server.run();
        assert_eq!(stats.terminal(), 1, "only the resumed job re-ran");
        let second = server.jobs().unwrap();
        assert_eq!(second[&b].state, JobState::Complete);
        assert_eq!(
            second[&b].digest, first[&b].digest,
            "resumed diagnosis is bit-identical"
        );
        assert_eq!(second[&a].digest, first[&a].digest);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_atomic_writes_never_fail_or_tear() {
        let dir = temp_dir("status-race");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("status.json");
        write_atomic(&path, b"[]").unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        let (failed, torn) = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..4u64)
                .map(|w| {
                    let path = &path;
                    scope.spawn(move || {
                        (0..500u64)
                            .filter(|i| {
                                // Lengths vary, so a torn file never parses.
                                let body = vec![w * 1000 + i; (*i % 64) as usize + 1];
                                let json = serde_json::to_string(&body).unwrap();
                                write_atomic(path, json.as_bytes()).is_err()
                            })
                            .count()
                    })
                })
                .collect();
            let reader = scope.spawn(|| {
                let mut torn = 0;
                while !done.load(Ordering::SeqCst) {
                    let text = std::fs::read_to_string(&path).unwrap();
                    torn += usize::from(serde_json::from_str::<Vec<u64>>(&text).is_err());
                }
                torn
            });
            let failed: usize = writers.into_iter().map(|h| h.join().unwrap()).sum();
            done.store(true, Ordering::SeqCst);
            (failed, reader.join().unwrap())
        });
        assert_eq!(failed, 0, "writes failed");
        assert_eq!(torn, 0, "a reader saw a partial file");
        let leftovers = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(leftovers, 1, "only status.json remains");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_validation_rejects_nonsense_knobs() {
        let base = ServerConfig::at(temp_dir("validate"));
        assert!(base.validate().is_ok());
        for bad in [
            ServerConfig {
                max_inflight: 0,
                ..base.clone()
            },
            ServerConfig {
                total_vms: 0,
                ..base.clone()
            },
            ServerConfig {
                max_queued: 0,
                ..base.clone()
            },
            ServerConfig {
                max_faults: 0,
                ..base.clone()
            },
            ServerConfig {
                poll_ms: 0,
                ..base.clone()
            },
            ServerConfig {
                backoff: RetryBackoff {
                    base_ms: 100,
                    max_ms: 10,
                    seed: 0,
                },
                ..base.clone()
            },
            ServerConfig {
                wall_deadline_s: Some(-1.0),
                ..base.clone()
            },
            ServerConfig {
                sim_deadline_s: Some(f64::NAN),
                ..base.clone()
            },
        ] {
            assert!(bad.validate().is_err(), "accepted: {bad:?}");
        }
    }
}
