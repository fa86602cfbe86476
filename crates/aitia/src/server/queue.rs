//! The durable, CRC-framed on-disk job queue behind `campaignd`.
//!
//! # File format (`queue.wal`, magic `AITIAQUE`, version 1)
//!
//! The queue reuses the run journal's framing exactly
//! ([`crate::journal`]): an 8-byte magic plus a little-endian `u32`
//! version, then records framed as
//!
//! ```text
//! u32 len (LE) | u32 crc32(payload) (LE) | payload (JSON, `len` bytes)
//! ```
//!
//! Two record kinds exist: `Submit` (a new job: id + opaque payload
//! string) and `Transition` (a lifecycle step: id, new [`JobState`],
//! attempt counter, and — for terminal states — the diagnosis digest plus
//! per-campaign simulated cost). The queue's state is the in-order fold of
//! all records; re-folding the file after a crash reconstructs exactly the
//! lifecycle every job had reached, and jobs whose last state is
//! non-terminal are simply re-dispatched (their per-job run journal makes
//! the re-run resume at zero VM cost).
//!
//! # Durability and torn tails
//!
//! Every append is a single `write_all` of one pre-assembled frame
//! followed by an fsync, so an acked submit survives SIGKILL at any point.
//! A crash mid-append leaves a torn final frame; writers truncate it to
//! the last intact record before appending (warned and counted, never a
//! panic). Readers simply ignore a torn tail. A file whose header is not
//! this format's magic and version holds no jobs: every reader sees it as
//! empty, and [`JobQueue::open`] resets it.
//!
//! # Multi-process coordination
//!
//! `campaignd submit` runs in a different process from the daemon, so all
//! writes (and write-side truncations) happen under an advisory lock file
//! (`queue.lock`, containing the holder's PID). A lock whose holder is
//! dead (no `/proc/<pid>`) or that has sat unchanged past a staleness
//! timeout is broken — a SIGKILLed daemon must never wedge the queue. A
//! younger lock with no readable PID is held: its owner has created the
//! file but not yet written the PID. A submit folds the queue, picks the
//! next id and appends under one hold of the lock, so two submitters never
//! claim the same id.
//!
//! # Admission control
//!
//! [`JobQueue::submit`] enforces backpressure: when the number of
//! non-terminal jobs has reached the caller's bound, the submit is
//! rejected with [`SubmitError::Full`] instead of growing the backlog
//! without bound.

use crate::journal::{
    frame_record,
    scan_frames,
    timed_sync, //
};
use serde::{
    Deserialize,
    Serialize, //
};
use std::{
    collections::BTreeMap,
    fs::{
        File,
        OpenOptions, //
    },
    io::{
        Read,
        Seek,
        SeekFrom,
        Write, //
    },
    path::{
        Path,
        PathBuf, //
    },
    sync::atomic::{
        AtomicU64,
        Ordering, //
    },
    time::{
        Duration,
        Instant, //
    },
};

/// The queue file magic.
const MAGIC: [u8; 8] = *b"AITIAQUE";
/// The queue format version.
const VERSION: u32 = 1;
/// Header length: magic plus version.
const HEADER_LEN: u64 = 12;
/// The queue file's name inside the server directory.
const QUEUE_FILE: &str = "queue.wal";
/// The lock file's name inside the server directory.
const LOCK_FILE: &str = "queue.lock";
/// A lock file unchanged for this long is considered stale even if a
/// process with its PID exists (PID reuse): broken and re-acquired.
const LOCK_STALE: Duration = Duration::from_secs(30);
/// How long an acquirer retries before giving up on the lock.
const LOCK_WAIT: Duration = Duration::from_secs(10);

/// A job's lifecycle state.
///
/// `Queued → Running → {Complete | Partial | NoReproduction |
/// DeadLettered}`; a supervisor fault moves a job back to `Queued` with a
/// bumped attempt counter until the dead-letter bound. Files written before
/// `Running` was the only dispatch record may hold `Admitted` transitions:
/// they no longer decode, so the fold skips them and the job keeps its
/// previous non-terminal state and is dispatched again.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Submitted (or re-queued after a supervisor fault); not yet picked
    /// up by a worker.
    Queued,
    /// Claimed by a worker and granted VM slots; the campaign is executing.
    Running,
    /// Terminal: every race was flipped and judged.
    Complete,
    /// Terminal: a deadline degraded the diagnosis to best-so-far results
    /// with explicit unverified accounting.
    Partial,
    /// Terminal: no slice reproduced the failure.
    NoReproduction,
    /// Terminal: the job faulted its supervisor too many times and was
    /// quarantined so it can never wedge the queue.
    DeadLettered,
}

impl JobState {
    /// Whether the state is terminal (the job will never run again).
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Complete
                | JobState::Partial
                | JobState::NoReproduction
                | JobState::DeadLettered
        )
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Complete => "complete",
            JobState::Partial => "partial",
            JobState::NoReproduction => "no_reproduction",
            JobState::DeadLettered => "dead_lettered",
        };
        f.write_str(s)
    }
}

/// One queue record (the JSON payload of a frame).
#[derive(Clone, Debug, Serialize, Deserialize)]
enum QueueRecord {
    /// A new job.
    Submit {
        /// Monotonically assigned job id.
        id: u64,
        /// The opaque job payload, interpreted by the server's resolver.
        payload: String,
    },
    /// A lifecycle step of an existing job.
    Transition {
        /// The job this transition belongs to.
        id: u64,
        /// The state entered.
        state: JobState,
        /// Supervisor attempt counter at this transition.
        attempt: u32,
        /// Diagnosis digest (terminal, diagnosed states only).
        digest: Option<String>,
        /// Human-readable detail (dead-letter reason, resolver error).
        /// Frames from older builds also carry the campaign's simulated
        /// makespan; decoding skips that field.
        detail: Option<String>,
    },
}

/// A job's folded state: the result of applying every record in order.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct JobSnapshot {
    /// Job id (submission order).
    pub id: u64,
    /// The opaque job payload.
    pub payload: String,
    /// Last recorded lifecycle state.
    pub state: JobState,
    /// Supervisor attempt counter (faults consumed so far).
    pub attempt: u32,
    /// Diagnosis digest, once terminal and diagnosed.
    pub digest: Option<String>,
    /// Dead-letter reason or resolver error, when recorded.
    pub detail: Option<String>,
}

/// Why a submit was rejected.
#[derive(Debug)]
pub enum SubmitError {
    /// Backpressure: the queue already holds `queued` non-terminal jobs,
    /// at (or beyond) the admission bound `max`.
    Full {
        /// Non-terminal jobs currently in the queue.
        queued: usize,
        /// The configured bound.
        max: usize,
    },
    /// The underlying file operation failed.
    Io(std::io::Error),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full { queued, max } => write!(
                f,
                "queue full: {queued} non-terminal jobs at the admission bound of {max}"
            ),
            SubmitError::Io(e) => write!(f, "queue I/O error: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<std::io::Error> for SubmitError {
    fn from(e: std::io::Error) -> Self {
        SubmitError::Io(e)
    }
}

/// The durable job queue: a write-ahead log of submits and lifecycle
/// transitions, safe against SIGKILL at any byte and shared between the
/// daemon and submitter processes through the lock file.
pub struct JobQueue {
    dir: PathBuf,
    path: PathBuf,
    truncations: AtomicU64,
    io: QueueIo,
}

/// What one queue handle has read and synced, for [`super::ServerStats`].
#[derive(Default)]
pub(crate) struct QueueIo {
    /// Calls of [`JobQueue::fold`].
    pub(crate) folds: AtomicU64,
    /// Their total duration in nanoseconds, file read included.
    pub(crate) fold_ns: AtomicU64,
    /// Frames decoded by those folds.
    pub(crate) frames_folded: AtomicU64,
    /// Frames scanned by the torn-tail check before every append.
    pub(crate) frames_repaired: AtomicU64,
    /// fsyncs of the queue file (header writes and appends).
    pub(crate) fsyncs: AtomicU64,
    /// Their total duration in nanoseconds.
    pub(crate) fsync_ns: AtomicU64,
}

impl JobQueue {
    /// Opens (or creates) the queue under server directory `dir`, creating
    /// the directory and validating or writing the file header. A torn
    /// tail is truncated to the last intact record.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory or file cannot
    /// be created, read, locked, or repaired.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<JobQueue> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let queue = JobQueue {
            path: dir.join(QUEUE_FILE),
            dir,
            truncations: AtomicU64::new(0),
            io: QueueIo::default(),
        };
        let _lock = LockGuard::acquire(&queue.dir)?;
        let mut file = queue.open_file()?;
        queue.repair_locked(&mut file)?;
        Ok(queue)
    }

    /// The server directory this queue lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The queue file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Torn-tail (or bad-header) truncations performed by this handle.
    #[must_use]
    pub fn truncations(&self) -> u64 {
        self.truncations.load(Ordering::SeqCst)
    }

    /// The handle's read and sync counters.
    pub(crate) fn io(&self) -> &QueueIo {
        &self.io
    }

    /// fsyncs the queue file's data, counting the sync and its duration.
    fn sync(&self, file: &File) -> std::io::Result<()> {
        let ns = timed_sync(file)?;
        self.io.fsyncs.fetch_add(1, Ordering::SeqCst);
        self.io.fsync_ns.fetch_add(ns, Ordering::SeqCst);
        Ok(())
    }

    fn open_file(&self) -> std::io::Result<File> {
        OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&self.path)
    }

    /// Validates the header (writing one into an empty file) and truncates
    /// any torn tail. Must be called with the lock held.
    fn repair_locked(&self, file: &mut File) -> std::io::Result<u64> {
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut bytes)?;
        if bytes.is_empty() {
            file.write_all(&MAGIC)?;
            file.write_all(&VERSION.to_le_bytes())?;
            self.sync(file)?;
            return Ok(HEADER_LEN);
        }
        if !header_ok(&bytes) {
            eprintln!(
                "aitia-queue: {} has an unrecognized header; starting fresh \
                 (all queued jobs are lost — resubmit them)",
                self.path.display()
            );
            self.truncations.fetch_add(1, Ordering::SeqCst);
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&MAGIC)?;
            file.write_all(&VERSION.to_le_bytes())?;
            self.sync(file)?;
            return Ok(HEADER_LEN);
        }
        let (frames, good_end, torn) = scan_frames(&bytes, HEADER_LEN);
        self.io
            .frames_repaired
            .fetch_add(frames.len() as u64, Ordering::SeqCst);
        if torn {
            eprintln!(
                "aitia-queue: {} has a torn or corrupt tail at byte {good_end}; \
                 truncating to the last intact record",
                self.path.display()
            );
            self.truncations.fetch_add(1, Ordering::SeqCst);
            file.set_len(good_end)?;
        }
        Ok(good_end)
    }

    /// Reads and folds every intact record into per-job snapshots, ordered
    /// by job id. Read-only: a torn tail is ignored, not repaired.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be read.
    pub fn fold(&self) -> std::io::Result<BTreeMap<u64, JobSnapshot>> {
        let t = Instant::now();
        let jobs = self.fold_file();
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.io.folds.fetch_add(1, Ordering::SeqCst);
        self.io.fold_ns.fetch_add(ns, Ordering::SeqCst);
        jobs
    }

    /// [`JobQueue::fold`] without its counters.
    fn fold_file(&self) -> std::io::Result<BTreeMap<u64, JobSnapshot>> {
        let mut bytes = Vec::new();
        File::open(&self.path)?.read_to_end(&mut bytes)?;
        if !header_ok(&bytes) {
            return Ok(BTreeMap::new());
        }
        let (frames, _, _) = scan_frames(&bytes, HEADER_LEN);
        self.io
            .frames_folded
            .fetch_add(frames.len() as u64, Ordering::SeqCst);
        let mut jobs = BTreeMap::new();
        for frame in frames {
            let Ok(record) = std::str::from_utf8(frame.payload)
                .map_err(|e| e.to_string())
                .and_then(|s| serde_json::from_str::<QueueRecord>(s).map_err(|e| e.to_string()))
            else {
                // A CRC-clean frame that is not a record: skip it rather
                // than dropping everything after it — fold is read-only.
                continue;
            };
            match record {
                QueueRecord::Submit { id, payload } => {
                    jobs.entry(id).or_insert(JobSnapshot {
                        id,
                        payload,
                        state: JobState::Queued,
                        attempt: 0,
                        digest: None,
                        detail: None,
                    });
                }
                QueueRecord::Transition {
                    id,
                    state,
                    attempt,
                    digest,
                    detail,
                } => {
                    if let Some(job) = jobs.get_mut(&id) {
                        job.state = state;
                        job.attempt = attempt;
                        if digest.is_some() {
                            job.digest = digest;
                        }
                        if detail.is_some() {
                            job.detail = detail;
                        }
                    }
                }
            }
        }
        Ok(jobs)
    }

    /// Appends one record under the lock and fsyncs before returning — an
    /// acked append is durable.
    fn append(&self, record: &QueueRecord) -> std::io::Result<()> {
        let _lock = LockGuard::acquire(&self.dir)?;
        self.append_locked(record)
    }

    /// [`JobQueue::append`] for a caller that already holds the lock:
    /// repairs any torn tail, then writes and fsyncs one frame.
    fn append_locked(&self, record: &QueueRecord) -> std::io::Result<()> {
        let payload = serde_json::to_string(record)
            .map_err(std::io::Error::other)?
            .into_bytes();
        let framed = frame_record(&payload);
        let mut file = self.open_file()?;
        let end = self.repair_locked(&mut file)?;
        file.seek(SeekFrom::Start(end))?;
        file.write_all(&framed)?;
        self.sync(&file)
    }

    /// Submits a job. Idempotent by payload: re-submitting an existing
    /// payload returns the existing job's id without appending (so a
    /// client that lost its ack, or a restart script that replays its
    /// submit list, never duplicates work). Backpressure: rejected with
    /// [`SubmitError::Full`] once `max_queued` non-terminal jobs are
    /// pending. The fold, the id choice and the append happen under one
    /// hold of the lock, so concurrent submitters never pick the same id.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] on backpressure, [`SubmitError::Io`] on file
    /// errors.
    pub fn submit(&self, payload: &str, max_queued: usize) -> Result<u64, SubmitError> {
        let _lock = LockGuard::acquire(&self.dir)?;
        let jobs = self.fold()?;
        if let Some(existing) = jobs.values().find(|j| j.payload == payload) {
            return Ok(existing.id);
        }
        let queued = jobs.values().filter(|j| !j.state.is_terminal()).count();
        if queued >= max_queued {
            return Err(SubmitError::Full {
                queued,
                max: max_queued,
            });
        }
        let id = jobs.keys().next_back().map_or(1, |last| last + 1);
        self.append_locked(&QueueRecord::Submit {
            id,
            payload: payload.to_string(),
        })?;
        Ok(id)
    }

    /// Appends a lifecycle transition.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the append fails.
    pub fn transition(
        &self,
        id: u64,
        state: JobState,
        attempt: u32,
        digest: Option<String>,
        detail: Option<String>,
    ) -> std::io::Result<()> {
        self.append(&QueueRecord::Transition {
            id,
            state,
            attempt,
            digest,
            detail,
        })
    }

    /// Number of intact records in the queue file at `dir` (tests and the
    /// kill-point proptest interrupt at exact record boundaries).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be read.
    pub fn record_count(dir: impl AsRef<Path>) -> std::io::Result<usize> {
        let mut bytes = Vec::new();
        File::open(dir.as_ref().join(QUEUE_FILE))?.read_to_end(&mut bytes)?;
        if !header_ok(&bytes) {
            return Ok(0);
        }
        Ok(scan_frames(&bytes, HEADER_LEN).0.len())
    }

    /// Truncates the queue file at `dir` so at most `keep` records remain
    /// — the kill-and-restart tests model SIGKILL at exact interruption
    /// points with this. Returns how many records remain.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be read or
    /// truncated.
    pub fn truncate_at_record(dir: impl AsRef<Path>, keep: usize) -> std::io::Result<usize> {
        let path = dir.as_ref().join(QUEUE_FILE);
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        if !header_ok(&bytes) {
            return Ok(0);
        }
        let (frames, _, _) = scan_frames(&bytes, HEADER_LEN);
        let kept = frames.len().min(keep);
        let end = if kept == 0 {
            HEADER_LEN
        } else {
            let f = &frames[kept - 1];
            f.start + 8 + f.payload.len() as u64
        };
        OpenOptions::new().write(true).open(&path)?.set_len(end)?;
        Ok(kept)
    }
}

/// Whether `bytes` open with this format version's header. The one check
/// every reader applies, so a file [`JobQueue::open`] would reset reads as
/// empty everywhere.
fn header_ok(bytes: &[u8]) -> bool {
    bytes.len() >= HEADER_LEN as usize
        && bytes[..8] == MAGIC
        && bytes[8..12] == VERSION.to_le_bytes()
}

/// RAII guard over the advisory `queue.lock` file: created with
/// `create_new` (atomic on POSIX), holding the owner's PID; removed on
/// drop. Stale locks — dead owner, or unchanged past [`LOCK_STALE`] — are
/// broken so a SIGKILLed holder never wedges the queue.
struct LockGuard {
    path: PathBuf,
}

impl LockGuard {
    fn acquire(dir: &Path) -> std::io::Result<LockGuard> {
        let path = dir.join(LOCK_FILE);
        let start = std::time::Instant::now();
        loop {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    let _ = write!(f, "{}", std::process::id());
                    return Ok(LockGuard { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if lock_is_stale(&path) {
                        // Best-effort break: if another process raced us to
                        // the removal, the next create_new attempt decides.
                        let _ = std::fs::remove_file(&path);
                        continue;
                    }
                    if start.elapsed() > LOCK_WAIT {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            format!("queue lock {} held too long", path.display()),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Whether the lock at `path` is stale: its owner is gone (no
/// `/proc/<pid>`) or it has sat unchanged past [`LOCK_STALE`].
///
/// A younger lock without a PID is held: `create_new` makes the file
/// before its owner writes the PID, so an empty or half-written lock is the
/// normal state of a fresh acquisition, not a dead one.
fn lock_is_stale(path: &Path) -> bool {
    if let Ok(meta) = std::fs::metadata(path) {
        if let Ok(modified) = meta.modified() {
            if let Ok(age) = modified.elapsed() {
                if age > LOCK_STALE {
                    return true;
                }
            }
        }
    } else {
        // Already gone: the next create_new attempt will settle it.
        return false;
    }
    let Ok(content) = std::fs::read_to_string(path) else {
        return false;
    };
    let Ok(pid) = content.trim().parse::<u32>() else {
        return false;
    };
    if pid == std::process::id() {
        // Our own PID in a lock we do not hold: a previous incarnation of
        // this process id (or a crashed thread) left it behind.
        return false;
    }
    !Path::new(&format!("/proc/{pid}")).exists()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!(
            "aitia-queue-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn submit_fold_roundtrip_and_idempotency() {
        let dir = temp_dir("roundtrip");
        let q = JobQueue::open(&dir).unwrap();
        let a = q.submit("gen:1", 16).unwrap();
        let b = q.submit("gen:2", 16).unwrap();
        assert_eq!((a, b), (1, 2));
        // Idempotent: same payload, same id, no new record.
        let before = JobQueue::record_count(&dir).unwrap();
        assert_eq!(q.submit("gen:1", 16).unwrap(), 1);
        assert_eq!(JobQueue::record_count(&dir).unwrap(), before);
        let jobs = q.fold().unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[&1].state, JobState::Queued);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The I/O counters count what the file holds, not how long it took:
    /// a fold of K frames decodes K frames, and every append scans the
    /// frames before it and syncs once.
    #[test]
    fn io_counters_count_folds_frames_and_fsyncs() {
        let dir = temp_dir("io-counters");
        let q = JobQueue::open(&dir).unwrap();
        let load = |c: &AtomicU64| c.load(Ordering::SeqCst);
        // Creating the file syncs its header; nothing is folded or scanned.
        assert_eq!(load(&q.io().fsyncs), 1);
        assert_eq!(load(&q.io().folds), 0);
        for k in 0..5 {
            q.submit(&format!("gen:{k}"), 16).unwrap();
        }
        // Each submit folds the k frames before it, and its append scans
        // them again before syncing its own.
        assert_eq!(load(&q.io().folds), 5);
        assert_eq!(load(&q.io().frames_folded), 10);
        assert_eq!(load(&q.io().frames_repaired), 10);
        assert_eq!(load(&q.io().fsyncs), 6);
        q.fold().unwrap();
        assert_eq!(load(&q.io().folds), 6);
        assert_eq!(load(&q.io().frames_folded), 15);
        assert_eq!(load(&q.io().fsyncs), 6, "a fold syncs nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transitions_fold_in_order_and_survive_reopen() {
        let dir = temp_dir("transitions");
        let q = JobQueue::open(&dir).unwrap();
        q.submit("gen:1", 16).unwrap();
        q.transition(1, JobState::Running, 0, None, None).unwrap();
        q.transition(1, JobState::Complete, 0, Some("abcd".into()), None)
            .unwrap();
        drop(q);
        let q = JobQueue::open(&dir).unwrap();
        let jobs = q.fold().unwrap();
        assert_eq!(jobs[&1].state, JobState::Complete);
        assert_eq!(jobs[&1].digest.as_deref(), Some("abcd"));
        assert!(jobs[&1].state.is_terminal());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A file from before `Admitted` was deleted: its `Admitted` frames no
    /// longer decode and are skipped, so each job folds to its previous
    /// non-terminal state and is dispatched again.
    #[test]
    fn old_admitted_frames_fold_to_the_previous_state() {
        let dir = temp_dir("admitted");
        std::fs::create_dir_all(&dir).unwrap();
        let transition = |id: u64, state: &str, attempt: u32| {
            format!(
                r#"{{"Transition":{{"id":{id},"state":"{state}","attempt":{attempt},"digest":null,"detail":null,"sim_makespan_ns":null}}}}"#
            )
        };
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        for record in [
            r#"{"Submit":{"id":1,"payload":"gen:1"}}"#.to_string(),
            r#"{"Submit":{"id":2,"payload":"gen:2"}}"#.to_string(),
            transition(1, "Admitted", 0),
            transition(2, "Queued", 1),
            transition(2, "Admitted", 1),
        ] {
            bytes.extend_from_slice(&frame_record(record.as_bytes()));
        }
        std::fs::write(dir.join(QUEUE_FILE), bytes).unwrap();
        let q = JobQueue::open(&dir).unwrap();
        assert_eq!(q.truncations(), 0, "a skipped frame is not a torn tail");
        let jobs = q.fold().unwrap();
        assert_eq!((jobs[&1].state, jobs[&1].attempt), (JobState::Queued, 0));
        assert_eq!((jobs[&2].state, jobs[&2].attempt), (JobState::Queued, 1));
        // The queue keeps working past the skipped frames.
        q.transition(1, JobState::Running, 0, None, None).unwrap();
        assert_eq!(q.fold().unwrap()[&1].state, JobState::Running);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A terminal frame of an older build carries the campaign's simulated
    /// makespan. Decoding skips the field: the job folds to its state and
    /// digest, nothing is truncated, and the record counters agree with
    /// the fold.
    #[test]
    fn terminal_frames_with_a_simulated_makespan_still_fold() {
        let dir = temp_dir("makespan");
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        for record in [
            r#"{"Submit":{"id":1,"payload":"gen:1"}}"#,
            r#"{"Transition":{"id":1,"state":"Complete","attempt":0,"digest":"0123456789abcdef","detail":null,"sim_makespan_ns":42}}"#,
        ] {
            bytes.extend_from_slice(&frame_record(record.as_bytes()));
        }
        std::fs::write(dir.join(QUEUE_FILE), bytes).unwrap();
        let q = JobQueue::open(&dir).unwrap();
        assert_eq!(q.truncations(), 0);
        let jobs = q.fold().unwrap();
        assert_eq!(jobs[&1].state, JobState::Complete);
        assert_eq!(jobs[&1].digest.as_deref(), Some("0123456789abcdef"));
        assert_eq!(JobQueue::record_count(&dir).unwrap(), 2);
        assert_eq!(JobQueue::truncate_at_record(&dir, 1).unwrap(), 1);
        let jobs = q.fold().unwrap();
        assert_eq!(
            (jobs[&1].state, jobs[&1].digest.as_deref()),
            (JobState::Queued, None)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backpressure_rejects_at_the_bound_but_terminal_jobs_free_slots() {
        let dir = temp_dir("backpressure");
        let q = JobQueue::open(&dir).unwrap();
        q.submit("gen:1", 2).unwrap();
        q.submit("gen:2", 2).unwrap();
        match q.submit("gen:3", 2) {
            Err(SubmitError::Full { queued: 2, max: 2 }) => {}
            other => panic!("expected Full, got {other:?}"),
        }
        q.transition(1, JobState::Complete, 0, None, None).unwrap();
        assert_eq!(q.submit("gen:3", 2).unwrap(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncates_to_last_good_record_never_panics() {
        let dir = temp_dir("torn");
        let q = JobQueue::open(&dir).unwrap();
        q.submit("gen:1", 16).unwrap();
        q.submit("gen:2", 16).unwrap();
        drop(q);
        // Tear the last record mid-frame.
        let path = dir.join(QUEUE_FILE);
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let q = JobQueue::open(&dir).unwrap();
        assert_eq!(q.truncations(), 1, "the torn tail was repaired on open");
        let jobs = q.fold().unwrap();
        assert_eq!(jobs.len(), 1, "only the intact record survives");
        // The queue keeps working: appends land after the repaired tail.
        assert_eq!(q.submit("gen:2", 16).unwrap(), 2);
        assert_eq!(q.fold().unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unrecognized_header_degrades_to_fresh_queue() {
        let dir = temp_dir("header");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(QUEUE_FILE), b"NOTAQUEUE-FILE").unwrap();
        let q = JobQueue::open(&dir).unwrap();
        assert_eq!(q.truncations(), 1);
        assert!(q.fold().unwrap().is_empty());
        assert_eq!(q.submit("gen:1", 16).unwrap(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_at_record_models_kill_points() {
        let dir = temp_dir("killpoint");
        let q = JobQueue::open(&dir).unwrap();
        for i in 0..4 {
            q.submit(&format!("gen:{i}"), 16).unwrap();
        }
        assert_eq!(JobQueue::record_count(&dir).unwrap(), 4);
        assert_eq!(JobQueue::truncate_at_record(&dir, 2).unwrap(), 2);
        assert_eq!(JobQueue::record_count(&dir).unwrap(), 2);
        let jobs = q.fold().unwrap();
        assert_eq!(jobs.len(), 2);
        // Resubmitting the lost payloads reassigns fresh ids past the
        // surviving ones — nothing collides, nothing is double-queued.
        assert_eq!(q.submit("gen:0", 16).unwrap(), 1);
        assert_eq!(q.submit("gen:2", 16).unwrap(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writers with their own handles on one directory submit and
    /// transition concurrently, as `campaignd run` workers and `campaignd
    /// submit` clients do: every acknowledged submit must fold with its
    /// payload under a unique id, and no writer may mistake another's frame
    /// for a torn tail.
    #[test]
    fn concurrent_writers_lose_no_acknowledged_record() {
        const WRITERS: usize = 4;
        const SUBMITS: usize = 60;
        let dir = temp_dir("writers");
        JobQueue::open(&dir).unwrap();
        let start = std::sync::Barrier::new(WRITERS);
        let acked: Vec<(u64, String)> = std::thread::scope(|s| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (dir, start) = (&dir, &start);
                    s.spawn(move || {
                        let q = JobQueue::open(dir).unwrap();
                        start.wait();
                        let mut acked = Vec::new();
                        for i in 0..SUBMITS {
                            let payload = format!("gen:{w}-{i}");
                            let id = q.submit(&payload, usize::MAX).unwrap();
                            q.transition(id, JobState::Running, 1, None, None).unwrap();
                            acked.push((id, payload));
                        }
                        assert_eq!(q.truncations(), 0, "writer {w} truncated a frame");
                        acked
                    })
                })
                .collect();
            writers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        let q = JobQueue::open(&dir).unwrap();
        assert_eq!(q.truncations(), 0);
        let jobs = q.fold().unwrap();
        let mut ids = std::collections::HashSet::new();
        for (id, payload) in &acked {
            assert!(ids.insert(*id), "job id {id} acknowledged twice");
            let job = jobs
                .get(id)
                .unwrap_or_else(|| panic!("acknowledged job {id} ({payload}) lost"));
            assert_eq!(&job.payload, payload);
            assert_eq!((job.state, job.attempt), (JobState::Running, 1));
        }
        assert_eq!(jobs.len(), WRITERS * SUBMITS);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_of_a_dead_process_is_broken() {
        let dir = temp_dir("lock");
        std::fs::create_dir_all(&dir).unwrap();
        // PID 4000000 is far above any default pid_max... but be safe and
        // pick one that provably does not exist.
        let mut dead = 4_000_000u32;
        while Path::new(&format!("/proc/{dead}")).exists() {
            dead -= 1;
        }
        std::fs::write(dir.join(LOCK_FILE), format!("{dead}")).unwrap();
        // open() acquires the lock by breaking the stale one.
        let q = JobQueue::open(&dir).unwrap();
        assert_eq!(q.submit("gen:1", 16).unwrap(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Byte-level corruption of a real queue file. Every case writes a
    /// file and reads it with all four readers, which must agree on an
    /// intact prefix of the original records; no case may panic.
    mod fuzz {
        use super::*;
        use crate::journal::MAX_RECORD_LEN;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        /// A real queue's bytes, the start of each of its frames, and the
        /// fold of each record prefix: `folds[k]` is what the first `k`
        /// records fold to.
        struct Source {
            bytes: Vec<u8>,
            starts: Vec<usize>,
            folds: Vec<BTreeMap<u64, JobSnapshot>>,
        }

        fn source() -> &'static Source {
            static SOURCE: OnceLock<Source> = OnceLock::new();
            SOURCE.get_or_init(|| {
                let dir = temp_dir("fuzz-source");
                let q = JobQueue::open(&dir).unwrap();
                for id in 1..=3 {
                    q.submit(&format!("gen:{id}"), 16).unwrap();
                }
                q.transition(1, JobState::Running, 0, None, None).unwrap();
                q.transition(2, JobState::Queued, 1, None, Some("panic".into()))
                    .unwrap();
                q.transition(1, JobState::Complete, 0, Some("d1".into()), None)
                    .unwrap();
                drop(q);
                let bytes = std::fs::read(dir.join(QUEUE_FILE)).unwrap();
                let _ = std::fs::remove_dir_all(&dir);
                let (frames, _, torn) = scan_frames(&bytes, HEADER_LEN);
                assert!(!torn && frames.len() == 6);
                let starts: Vec<usize> = frames.iter().map(|f| f.start as usize).collect();
                let folds = (0..=starts.len())
                    .map(|k| {
                        let end = starts.get(k).copied().unwrap_or(bytes.len());
                        let dir = temp_dir("fuzz-prefix");
                        std::fs::create_dir_all(&dir).unwrap();
                        std::fs::write(dir.join(QUEUE_FILE), &bytes[..end]).unwrap();
                        let fold = JobQueue::open(&dir).unwrap().fold().unwrap();
                        let _ = std::fs::remove_dir_all(&dir);
                        fold
                    })
                    .collect();
                Source {
                    bytes,
                    starts,
                    folds,
                }
            })
        }

        /// Writes `bytes` as the queue file and reads it four ways:
        /// `record_count`, `open` followed by `fold`, and
        /// `truncate_at_record(keep)` followed by `open` and `fold` must
        /// all see the same prefix of the original records, whose length
        /// is returned.
        fn load(bytes: &[u8], keep: usize) -> usize {
            let folds = &source().folds;
            let dir = temp_dir("fuzz");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(QUEUE_FILE);
            std::fs::write(&path, bytes).unwrap();
            let counted = JobQueue::record_count(&dir).unwrap();
            assert!(counted < folds.len(), "more records than written");
            let fold = JobQueue::open(&dir).unwrap().fold().unwrap();
            assert_eq!(
                fold, folds[counted],
                "open and fold disagree with record_count"
            );
            assert_eq!(JobQueue::record_count(&dir).unwrap(), counted);
            std::fs::write(&path, bytes).unwrap();
            let kept = JobQueue::truncate_at_record(&dir, keep).unwrap();
            assert_eq!(kept, keep.min(counted), "truncate_at_record disagrees");
            let fold = JobQueue::open(&dir).unwrap().fold().unwrap();
            assert_eq!(fold, folds[kept]);
            let _ = std::fs::remove_dir_all(&dir);
            counted
        }

        #[test]
        fn another_version_or_magic_holds_no_jobs() {
            for at in [0, 7, 8, 11] {
                let mut bytes = source().bytes.clone();
                bytes[at] ^= 0x02;
                assert_eq!(load(&bytes, 5), 0, "header byte {at}");
            }
            assert_eq!(load(&source().bytes, 5), source().starts.len());
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Flipped or overwritten bytes anywhere, header included: the
            /// header check or a frame's CRC catches them, so every reader
            /// sees the same prefix of the original records.
            #[test]
            fn byte_flips_keep_an_intact_prefix(
                edits in prop::collection::vec((0..usize::MAX, 0u8..=255, 0u8..2), 1..6),
                keep in 0usize..8,
            ) {
                let mut bytes = source().bytes.clone();
                for (at, b, overwrite) in edits {
                    let i = at % bytes.len();
                    if overwrite == 1 {
                        bytes[i] = b;
                    } else {
                        bytes[i] ^= b.max(1);
                    }
                }
                load(&bytes, keep);
            }

            /// A file cut anywhere keeps exactly the records it still
            /// holds whole.
            #[test]
            fn truncation_keeps_the_whole_records(cut in 0..usize::MAX, keep in 0usize..8) {
                let Source { bytes, starts, .. } = source();
                let cut = cut % (bytes.len() + 1);
                let whole = if cut < HEADER_LEN as usize {
                    0
                } else {
                    starts[1..].iter().filter(|&&end| end <= cut).count()
                        + usize::from(cut == bytes.len())
                };
                prop_assert_eq!(load(&bytes[..cut], keep), whole);
            }

            /// A length field at `MAX_RECORD_LEN` or above tears the file
            /// at that frame.
            #[test]
            fn oversized_length_fields_tear_at_their_frame(
                which in 0..usize::MAX,
                over in prop_oneof![
                    Just(0u32),
                    Just(1),
                    Just(u32::MAX - MAX_RECORD_LEN),
                    0..=u32::MAX - MAX_RECORD_LEN,
                ],
                keep in 0usize..8,
            ) {
                let Source { bytes, starts, .. } = source();
                let i = which % starts.len();
                let mut bytes = bytes.clone();
                let start = starts[i];
                bytes[start..start + 4].copy_from_slice(&(MAX_RECORD_LEN + over).to_le_bytes());
                prop_assert_eq!(load(&bytes, keep), i);
            }
        }
    }
}
