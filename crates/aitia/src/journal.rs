//! Durable write-ahead run journal (DESIGN.md §7).
//!
//! A full diagnosis campaign is thousands of enforced schedule runs, and a
//! SIGKILL, OOM, or host reboot mid-campaign would throw all of them away —
//! the in-memory memo table dies with the process. Because enforcement is a
//! pure function of `(program, schedule, step budget)`, the campaign is
//! restartable by construction: this journal appends one record per
//! executed [`ExecOutput`], keyed exactly like the memo table, and a
//! resumed campaign replays the journal into the memo so every
//! previously-executed schedule is answered at zero VM cost. Consumers are
//! memo-invariant, so the resumed diagnosis is bit-identical to an
//! uninterrupted run.
//!
//! # Record format
//!
//! The file opens with a versioned header — the 8-byte magic `AITIAJNL`
//! followed by a little-endian `u32` format version — so a format bump
//! truncates cleanly instead of poisoning a resume. Each record is:
//!
//! ```text
//! u32 len (LE) | u32 crc32(payload) (LE) | payload (`len` bytes)
//! ```
//!
//! The payload is a binary body that this module writes and reads field
//! by field, with no intermediate value tree:
//!
//! ```text
//! fp u64 (LE) | program u64 (LE) | step_budget | outcome | schedule | sel_of | run
//! ```
//!
//! The first three fields are the memo key: the schedule fingerprint, the
//! program's content digest and the step budget. The rest reconstruct the
//! [`ExecOutput`]: the outcome, the schedule itself, the runtime-thread →
//! selector map as pairs sorted by thread, and the full [`RunResult`] with
//! its trace last (trace included, so causality edge extraction sees
//! exactly what a re-execution would show). Every other integer is an
//! unsigned LEB128 varint, every enum and `Option` a one-byte tag, and
//! every sequence a varint count followed by its elements. A trace step
//! stores its thread, its instruction, one flag byte saying which of its
//! optional fields follow, its accesses and its lockset; its `seq` is not
//! stored, because it equals the step's position in the trace.
//!
//! Format version 1 carried the same fields as JSON. Its files read as an
//! unrecognized header and cold-start.
//!
//! # Torn tails and corruption
//!
//! A crash mid-append can leave a torn final record. On open, the journal
//! scans forward and truncates at the first record whose length frame or
//! CRC does not check out, or whose payload does not decode to exactly its
//! `len` bytes — counted in [`JournalStats::torn_tail_truncations`] and
//! warned about, never a panic. Every record before the truncation point is
//! intact (appends are sequential), so the resume degrades by at most the
//! torn record. An unrecognized header degrades all the way to a cold
//! start. The decoder reads untrusted bytes: it never indexes past the
//! payload, and it refuses any count larger than the bytes left in the
//! payload before it allocates for that count.
//!
//! # Timeouts are journaled
//!
//! A [`RunOutcome::Timeout`] is appended like any other outcome. The step
//! budget is part of the record's key, and a livelock exhausts it on every
//! run of the same schedule, so a replayed timeout is exactly what a
//! re-execution would produce, and a resume does not pay the budget again.

use crate::{
    enforce::{
        schedule_fingerprint,
        EnforceConfig,
        ForcedResume,
        RunOutcome,
        RunResult,
        ThreadFinal, //
    },
    exec::{
        memo_preload,
        ExecJob,
        ExecOutput,
        Substrate, //
    },
    schedule::{
        Anchor,
        SchedPoint,
        Schedule,
        ThreadSel, //
    },
};
use ksim::{
    events::LockEvent,
    AccessKind,
    Addr,
    Failure,
    FailureKind,
    InstrAddr,
    LockId,
    MemAccess,
    Program,
    StepRecord,
    ThreadId,
    ThreadProgId,
    ThreadStatus,
    Trace, //
};
use std::{
    collections::HashSet,
    fs::{
        File,
        OpenOptions, //
    },
    hash::{
        Hash,
        Hasher, //
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
    sync::{
        atomic::{
            AtomicBool,
            AtomicU64,
            Ordering, //
        },
        Arc,
        Mutex,
        OnceLock, //
    },
};

/// The journal file magic.
const MAGIC: [u8; 8] = *b"AITIAJNL";
/// The journal format version. Bumping it makes old files read as
/// unrecognized and resume from a cold start. Version 1 records had JSON
/// payloads; version 2 records have the binary body of [`Writer::record`].
const VERSION: u32 = 2;
/// Header length: magic plus version.
const HEADER_LEN: u64 = 12;
/// Records are fsync-batched: the file is synced after this many appends
/// (and on [`Journal::flush`] / drop).
pub(crate) const FSYNC_EVERY: usize = 32;
/// Sanity bound on a record's framed length; anything larger reads as
/// corruption (no schedule run encodes to a gigabyte).
pub(crate) const MAX_RECORD_LEN: u32 = 1 << 30;

/// Journal observability counters (surfaced in the `report` stats block).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records replayed into a memo table by [`Journal::replay_into_substrate`].
    pub records_replayed: u64,
    /// Records appended (after deduplication) this process lifetime.
    pub records_appended: u64,
    /// Truncations performed on open because of a torn tail, a CRC
    /// mismatch, a payload that does not decode, or an unrecognized header.
    pub torn_tail_truncations: u64,
    /// Sticky: an fsync failed at some point this process lifetime. The
    /// journal disabled itself when this flipped (records that cannot be
    /// made durable are worse than no records: a resume would trust them),
    /// so the campaign ran on without crash-safety from that point.
    pub fsync_failed: bool,
    /// fsyncs issued: the header of a new or reset file, every batch of
    /// appends, and every flush.
    pub fsyncs: u64,
    /// Their total duration in nanoseconds.
    pub fsync_ns: u64,
}

/// One journaled execution, carrying its memo key and its full output.
#[derive(Clone, Debug, PartialEq)]
struct RecordPayload {
    /// Canonical schedule fingerprint (the memo-table key hash).
    fp: u64,
    /// Deterministic content digest of the program (cross-process stand-in
    /// for the memo table's `Arc` identity).
    program: u64,
    /// Enforcement step budget the run executed under.
    step_budget: usize,
    /// The enforced schedule, compared in full on memo lookup so a
    /// fingerprint collision degrades to a miss.
    schedule: Schedule,
    /// The run exactly as execution reported it.
    run: RunResult,
    /// Runtime-thread → selector map of the run, as pairs sorted by thread.
    sel_of: Vec<(ThreadId, ThreadSel)>,
    /// Classification of the run.
    outcome: RunOutcome,
}

/// In-memory journal state behind the lock.
struct Inner {
    file: File,
    /// Keys already present (loaded at open, extended by appends): appends
    /// deduplicate so re-running a campaign over an existing journal does
    /// not grow the file.
    seen: HashSet<(u64, u64, usize)>,
    /// Records loaded at open, kept for [`Journal::replay_into_substrate`].
    records: Vec<RecordPayload>,
    /// Appends since the last fsync.
    unsynced: usize,
}

/// A durable, fsync-batched, CRC-checked write-ahead journal of schedule
/// executions. Thread-safe: the executor appends from any worker.
pub struct Journal {
    path: PathBuf,
    inner: Mutex<Inner>,
    replayed: AtomicU64,
    appended: AtomicU64,
    truncations: AtomicU64,
    fsyncs: AtomicU64,
    fsync_ns: AtomicU64,
    /// Sticky fsync-failure flag: once set, `append` and `flush` are
    /// no-ops (the journal is disabled) and [`JournalStats::fsync_failed`]
    /// reports the durability loss instead of silently claiming
    /// crash-safety.
    fsync_failed: AtomicBool,
    /// Test seam: forces every subsequent fsync to fail, modeling the
    /// journal's directory going away under it (a poisoned temp dir).
    fsync_poisoned: AtomicBool,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Journal {
    /// Opens (or creates) the journal at `path`, scanning existing records
    /// and truncating any torn tail. Never fails on corruption — a file
    /// that does not check out degrades to a cold start with a warning —
    /// only on I/O errors (unwritable path, permission).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be opened,
    /// read, or truncated.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut truncations = 0u64;
        let mut records = Vec::new();
        let mut header_sync = None;
        let good_end = if bytes.is_empty() {
            file.write_all(&MAGIC)?;
            file.write_all(&VERSION.to_le_bytes())?;
            header_sync = Some(timed_sync(&file)?);
            HEADER_LEN
        } else if !header_ok(&bytes) {
            eprintln!(
                "aitia-journal: {} has an unrecognized header; starting fresh \
                 (cold start)",
                path.display()
            );
            truncations += 1;
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&MAGIC)?;
            file.write_all(&VERSION.to_le_bytes())?;
            header_sync = Some(timed_sync(&file)?);
            HEADER_LEN
        } else {
            let (parsed, torn) = scan_records(&bytes);
            let good_end = parsed.last().map_or(HEADER_LEN, |&(_, end)| end);
            records = parsed.into_iter().map(|(record, _)| record).collect();
            if torn {
                eprintln!(
                    "aitia-journal: {} has a torn or corrupt tail at byte {}; \
                     truncating ({} intact records kept)",
                    path.display(),
                    good_end,
                    records.len()
                );
                truncations += 1;
                file.set_len(good_end)?;
            }
            good_end
        };
        file.seek(SeekFrom::Start(good_end))?;
        let seen = records
            .iter()
            .map(|r| (r.fp, r.program, r.step_budget))
            .collect();
        Ok(Journal {
            path,
            inner: Mutex::new(Inner {
                file,
                seen,
                records,
                unsynced: 0,
            }),
            replayed: AtomicU64::new(0),
            appended: AtomicU64::new(0),
            truncations: AtomicU64::new(truncations),
            fsyncs: AtomicU64::new(u64::from(header_sync.is_some())),
            fsync_ns: AtomicU64::new(header_sync.unwrap_or(0)),
            fsync_failed: AtomicBool::new(false),
            fsync_poisoned: AtomicBool::new(false),
        })
    }

    /// The journal's file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records loaded from disk at open (intact records only).
    #[must_use]
    pub fn loaded_records(&self) -> usize {
        self.inner.lock().unwrap().records.len()
    }

    /// A snapshot of the journal's observability counters.
    #[must_use]
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            records_replayed: self.replayed.load(Ordering::SeqCst),
            records_appended: self.appended.load(Ordering::SeqCst),
            torn_tail_truncations: self.truncations.load(Ordering::SeqCst),
            fsync_failed: self.fsync_failed.load(Ordering::SeqCst),
            fsyncs: self.fsyncs.load(Ordering::SeqCst),
            fsync_ns: self.fsync_ns.load(Ordering::SeqCst),
        }
    }

    /// Whether an fsync has failed (sticky): the journal is disabled and
    /// the campaign is running without crash-safety.
    #[must_use]
    pub fn fsync_failed(&self) -> bool {
        self.fsync_failed.load(Ordering::SeqCst)
    }

    /// Test seam: makes every subsequent fsync fail, as if the temp dir
    /// holding the journal were poisoned (device gone, quota exhausted).
    #[doc(hidden)]
    pub fn poison_fsync(&self) {
        self.fsync_poisoned.store(true, Ordering::SeqCst);
    }

    /// Syncs the file, honoring the poison seam, and counts the sync.
    fn sync_data(&self, inner: &mut Inner) -> std::io::Result<()> {
        if self.fsync_poisoned.load(Ordering::SeqCst) {
            return Err(std::io::Error::other(
                "poisoned temp-dir path: fsync injection",
            ));
        }
        let ns = timed_sync(&inner.file)?;
        self.fsyncs.fetch_add(1, Ordering::SeqCst);
        self.fsync_ns.fetch_add(ns, Ordering::SeqCst);
        Ok(())
    }

    /// Records a failed fsync: warns once, flips the sticky flag, and
    /// thereby disables the journal — a record that cannot be made durable
    /// must not be trusted by a future resume, so degrading to a
    /// journal-less campaign is strictly safer than journaling on.
    fn note_fsync_failure(&self, e: &std::io::Error) {
        if !self.fsync_failed.swap(true, Ordering::SeqCst) {
            eprintln!(
                "aitia-journal: fsync of {} failed ({e}); disabling the \
                 journal — this campaign continues WITHOUT crash-safety",
                self.path.display()
            );
        }
    }

    /// Appends one output. Duplicate keys are silently skipped; I/O errors
    /// are warned about and swallowed (a failing journal degrades
    /// durability, never the campaign).
    pub fn append(&self, job: &ExecJob, out: &ExecOutput) {
        // A journal whose fsync failed is disabled: appending records that
        // may be torn would hand a future resume corrupt durability.
        if self.fsync_failed() {
            return;
        }
        let fp = schedule_fingerprint(&job.schedule, &job.enforce);
        let digest = program_digest(&job.program);
        let mut inner = self.inner.lock().unwrap();
        if !inner.seen.insert((fp, digest, job.enforce.step_budget)) {
            return;
        }
        let mut sel_of: Vec<(ThreadId, ThreadSel)> =
            out.sel_of.iter().map(|(&k, &v)| (k, v)).collect();
        sel_of.sort_unstable_by_key(|(tid, _)| tid.0);
        let payload = RecordPayload {
            fp,
            program: digest,
            step_budget: job.enforce.step_budget,
            schedule: job.schedule.clone(),
            run: out.run.clone(),
            sel_of,
            outcome: out.outcome,
        };
        let framed = frame_record(&Writer::record(&payload));
        if let Err(e) = inner.file.write_all(&framed) {
            eprintln!(
                "aitia-journal: append to {} failed ({e}); continuing without \
                 durability for this record",
                self.path.display()
            );
            return;
        }
        inner.unsynced += 1;
        if inner.unsynced >= FSYNC_EVERY {
            inner.unsynced = 0;
            if let Err(e) = self.sync_data(&mut inner) {
                self.note_fsync_failure(&e);
                return;
            }
        }
        self.appended.fetch_add(1, Ordering::SeqCst);
    }

    /// Syncs buffered appends to disk. A failed sync flips the sticky
    /// [`JournalStats::fsync_failed`] flag and disables the journal.
    pub fn flush(&self) {
        if self.fsync_failed() {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.unsynced = 0;
        if let Err(e) = self.sync_data(&mut inner) {
            self.note_fsync_failure(&e);
        }
    }

    /// [`Journal::replay_into_substrate`] into [`Substrate::process_global`].
    /// The library never calls it; it survives only for callers outside
    /// the workspace that resume through the process-wide substrate.
    pub fn replay_into_memo(&self, program: &Arc<Program>) -> u64 {
        self.replay_into_substrate(program, &Substrate::process_global())
    }

    /// Replays every loaded record whose program digest matches `program`
    /// into `substrate`'s memo table, keyed against *this* `Arc` — so the
    /// resumed campaign's lookups (which compare `Arc` identity) hit. Seed
    /// the substrate the campaign's executors will actually consult.
    /// Returns how many records were seeded.
    pub fn replay_into_substrate(&self, program: &Arc<Program>, substrate: &Substrate) -> u64 {
        let digest = program_digest(program);
        let inner = self.inner.lock().unwrap();
        let mut seeded = 0u64;
        for r in inner.records.iter().filter(|r| r.program == digest) {
            let job = ExecJob {
                program: Arc::clone(program),
                schedule: r.schedule.clone(),
                enforce: EnforceConfig {
                    step_budget: r.step_budget,
                },
                shared_steps: None,
            };
            let out = ExecOutput {
                run: r.run.clone(),
                sel_of: r.sel_of.iter().copied().collect(),
                outcome: r.outcome,
                memo_hit: false,
            };
            memo_preload(substrate, &job, &out);
            seeded += 1;
        }
        self.replayed.fetch_add(seeded, Ordering::SeqCst);
        seeded
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        if let Ok(inner) = self.inner.get_mut() {
            let _ = inner.file.sync_data();
        }
    }
}

/// fsyncs `file`'s data and returns how long that took, in nanoseconds.
pub(crate) fn timed_sync(file: &File) -> std::io::Result<u64> {
    let t = std::time::Instant::now();
    file.sync_data()?;
    Ok(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX))
}

/// Whether `bytes` open with this format version's header. A file that
/// does not holds no records: [`Journal::open`] resets it to empty.
fn header_ok(bytes: &[u8]) -> bool {
    bytes.len() >= HEADER_LEN as usize
        && bytes[..8] == MAGIC
        && bytes[8..12] == VERSION.to_le_bytes()
}

/// Scans the byte buffer past the header, returning the intact records,
/// each with the byte offset just past its frame, and whether a torn or
/// corrupt tail follows them. The caller checks the header first.
fn scan_records(bytes: &[u8]) -> (Vec<(RecordPayload, u64)>, bool) {
    let (frames, _, mut torn) = scan_frames(bytes, HEADER_LEN);
    let mut records = Vec::with_capacity(frames.len());
    for frame in frames {
        // A CRC-clean frame that is not a record: treat everything from
        // this frame on as corrupt, exactly like a torn frame.
        let Some(record) = Reader::record(frame.payload) else {
            torn = true;
            break;
        };
        records.push((record, frame.start + 8 + frame.payload.len() as u64));
    }
    (records, torn)
}

/// One CRC-verified frame in a framed log file.
pub(crate) struct Frame<'a> {
    /// Byte offset of the frame's length header in the file.
    pub start: u64,
    /// The frame's payload bytes (CRC already verified).
    pub payload: &'a [u8],
}

/// Scans `len | crc | payload` frames starting at `header_len`, stopping at
/// the first torn or corrupt frame. Returns the intact frames, the byte
/// offset after the last intact frame, and whether a torn tail was found.
/// Shared by the run journal and the `campaignd` job queue — the two
/// durable logs frame records identically.
pub(crate) fn scan_frames(bytes: &[u8], header_len: u64) -> (Vec<Frame<'_>>, u64, bool) {
    let mut frames = Vec::new();
    let mut off = header_len as usize;
    loop {
        if off >= bytes.len() {
            return (frames, off.min(bytes.len()) as u64, off > bytes.len());
        }
        let Some(header) = bytes.get(off..off + 8) else {
            return (frames, off as u64, true);
        };
        let len = u32::from_le_bytes(header[..4].try_into().unwrap());
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if len > MAX_RECORD_LEN {
            return (frames, off as u64, true);
        }
        let Some(payload) = bytes.get(off + 8..(off + 8).saturating_add(len as usize)) else {
            return (frames, off as u64, true);
        };
        if crc32(payload) != crc {
            return (frames, off as u64, true);
        }
        frames.push(Frame {
            start: off as u64,
            payload,
        });
        off += 8 + len as usize;
    }
}

/// Builds one framed record — `u32 len (LE) | u32 crc32 (LE) | payload` —
/// as a single buffer so the append is one `write_all` (one syscall on the
/// usual path), minimizing the torn-tail window.
pub(crate) fn frame_record(payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
    let mut framed = Vec::with_capacity(8 + payload.len());
    framed.extend_from_slice(&len.to_le_bytes());
    framed.extend_from_slice(&crc32(payload).to_le_bytes());
    framed.extend_from_slice(payload);
    framed
}

/// Truncates the journal at `path` so at most `keep` records remain — the
/// kill-and-resume tests and the resume benchmark interrupt campaigns at
/// exact record boundaries with this. Returns how many records remain.
///
/// # Errors
///
/// Returns the underlying I/O error when the file cannot be read or
/// truncated.
pub fn truncate_at_record(path: impl AsRef<Path>, keep: usize) -> std::io::Result<usize> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)?;
    if !header_ok(&bytes) {
        return Ok(0);
    }
    let (records, _) = scan_records(&bytes);
    let kept = records.len().min(keep);
    let end = kept
        .checked_sub(1)
        .map_or(HEADER_LEN, |last| records[last].1);
    OpenOptions::new().write(true).open(path)?.set_len(end)?;
    Ok(kept)
}

/// Number of intact records in the journal at `path`: the records
/// [`Journal::open`] would load, so 0 for a file of another format
/// version.
///
/// # Errors
///
/// Returns the underlying I/O error when the file cannot be read.
pub fn record_count(path: impl AsRef<Path>) -> std::io::Result<usize> {
    let bytes = std::fs::read(path)?;
    if !header_ok(&bytes) {
        return Ok(0);
    }
    Ok(scan_records(&bytes).0.len())
}

/// Deterministic content digest of a program — the cross-process stand-in
/// for the memo table's `Arc` identity key. Hashes the program's complete
/// `Debug` rendering (globals, statics, every instruction and its metadata)
/// with the zero-keyed `DefaultHasher` that `schedule_fingerprint` already
/// relies on being stable across processes. Cached per `Arc` allocation,
/// with the `Arc` pinned in the cache so a recycled address can never alias
/// a different program.
#[must_use]
pub fn program_digest(program: &Arc<Program>) -> u64 {
    type DigestCache = Mutex<Vec<(usize, Arc<Program>, u64)>>;
    static CACHE: OnceLock<DigestCache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(Vec::new()));
    let key = Arc::as_ptr(program) as usize;
    let mut cache = cache.lock().unwrap();
    if let Some(&(_, _, digest)) = cache.iter().find(|(k, _, _)| *k == key) {
        return digest;
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    format!("{program:?}").hash(&mut h);
    let digest = h.finish();
    // Bound the pinned set: campaigns touch a handful of programs, but a
    // long-lived process churning scaled corpora should not pin them all.
    if cache.len() >= 256 {
        cache.remove(0);
    }
    cache.push((key, Arc::clone(program), digest));
    digest
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven. The
/// workspace deliberately has no compression/CRC dependency, and 12 lines
/// beat a vendored crate for one framing checksum. `pub(crate)`: the
/// `campaignd` job queue frames its records with the same checksum.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = u32::try_from(i).unwrap_or(0);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        t
    });
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// The record body codec. An enum's one-byte tag is its index in one of
// these tables, so each table's order is part of the format: reordering a
// table needs a `VERSION` bump, and a new variant goes at its table's end.
// A variant missing from its table is written as a tag no reader accepts,
// so its record reads as torn.

/// [`RunOutcome`]s by their one-byte tag.
const OUTCOMES: [RunOutcome; 4] = [
    RunOutcome::Passed,
    RunOutcome::Failed,
    RunOutcome::Diverged,
    RunOutcome::Timeout,
];
/// [`Anchor`]s by their one-byte tag.
const ANCHORS: [Anchor; 2] = [Anchor::Before, Anchor::After];
/// [`AccessKind`]s by their one-byte tag.
const ACCESS_KINDS: [AccessKind; 3] = [AccessKind::Read, AccessKind::Write, AccessKind::Rmw];
/// [`FailureKind`]s by their one-byte tag.
const FAILURE_KINDS: [FailureKind; 10] = [
    FailureKind::NullDeref,
    FailureKind::UseAfterFree,
    FailureKind::SlabOutOfBounds,
    FailureKind::GeneralProtectionFault,
    FailureKind::AssertionViolation,
    FailureKind::RefcountWarning,
    FailureKind::MemoryLeak,
    FailureKind::ListCorruption,
    FailureKind::HungTask,
    FailureKind::DoubleFree,
];

// A trace step's flag byte says which of its optional fields follow. Bits
// 0–1 hold its branch (0 none, 1 not taken, 2 taken) and bits 2–3 its lock
// event (0 none, 1 acquired, 2 released); bit 4 marks a spawned thread and
// bit 5 a next pc. Bits 6–7 are zero.
const LOCK_SHIFT: u8 = 2;
const SPAWNED: u8 = 1 << 4;
const NEXT_PC: u8 = 1 << 5;

/// Encodes record bodies (see the module doc's record format).
struct Writer {
    out: Vec<u8>,
}

impl Writer {
    /// The body of one record.
    fn record(r: &RecordPayload) -> Vec<u8> {
        let mut w = Writer {
            out: Vec::with_capacity(64 + 12 * r.run.trace.len()),
        };
        w.out.extend_from_slice(&r.fp.to_le_bytes());
        w.out.extend_from_slice(&r.program.to_le_bytes());
        w.uint(r.step_budget as u64);
        w.tag(&OUTCOMES, r.outcome);
        w.schedule(&r.schedule);
        w.seq(&r.sel_of, |w, &(tid, sel)| {
            w.uint(tid.0.into());
            w.sel(sel);
        });
        w.run(&r.run);
        w.out
    }

    /// An unsigned LEB128 varint.
    fn uint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.out.push((v & 0x7F) as u8 | 0x80);
            v >>= 7;
        }
        self.out.push(v as u8);
    }

    fn flag(&mut self, b: bool) {
        self.out.push(u8::from(b));
    }

    /// `v`'s index in `table`. A value missing from the table writes a tag
    /// no reader accepts, so its record reads as torn.
    fn tag<T: PartialEq>(&mut self, table: &[T], v: T) {
        let i = table.iter().position(|t| *t == v);
        self.out.push(i.map_or(u8::MAX, |i| i as u8));
    }

    fn seq<T>(&mut self, items: &[T], mut put: impl FnMut(&mut Self, &T)) {
        self.uint(items.len() as u64);
        for item in items {
            put(self, item);
        }
    }

    fn opt<T>(&mut self, v: Option<T>, put: impl FnOnce(&mut Self, T)) {
        self.flag(v.is_some());
        if let Some(v) = v {
            put(self, v);
        }
    }

    fn sel(&mut self, sel: ThreadSel) {
        self.uint(sel.prog.0.into());
        self.uint(sel.occurrence.into());
    }

    fn instr(&mut self, at: InstrAddr) {
        self.uint(at.prog.0.into());
        self.uint(at.index as u64);
    }

    fn schedule(&mut self, s: &Schedule) {
        self.opt(s.start, Self::sel);
        self.seq(&s.points, |w, p| {
            w.sel(p.thread);
            w.instr(p.at);
            w.uint(p.nth.into());
            w.tag(&ANCHORS, p.when);
            w.sel(p.switch_to);
        });
        self.seq(&s.fallback, |w, &sel| w.sel(sel));
        self.seq(&s.segments, |w, &sel| w.sel(sel));
    }

    fn run(&mut self, run: &RunResult) {
        self.opt(run.failure.as_ref(), |w, f| {
            w.tag(&FAILURE_KINDS, f.kind);
            w.instr(f.at);
            w.uint(f.tid.0.into());
            w.opt(f.addr, |w, a| w.uint(a.0));
            w.uint(f.message.len() as u64);
            w.out.extend_from_slice(f.message.as_bytes());
        });
        self.seq(&run.triggered, |w, &t| w.flag(t));
        self.seq(&run.forced, |w, f| {
            w.sel(f.blocked);
            w.sel(f.holder);
            w.uint(f.lock.0.into());
            w.uint(f.seq as u64);
        });
        self.uint(run.steps as u64);
        self.flag(run.budget_exhausted);
        self.seq(&run.threads, |w, t| {
            w.sel(t.sel);
            match t.status {
                ThreadStatus::Runnable => w.out.push(0),
                ThreadStatus::Blocked { on } => {
                    w.out.push(1);
                    w.uint(on.0.into());
                }
                ThreadStatus::WaitingGrace => w.out.push(2),
                ThreadStatus::Exited => w.out.push(3),
                ThreadStatus::Killed => w.out.push(4),
            }
            w.opt(t.next, Self::instr);
        });
        self.uint(run.trace.len() as u64);
        for step in run.trace.iter() {
            self.step(step);
        }
    }

    fn step(&mut self, s: &StepRecord) {
        let branch = s.branch_taken.map_or(0, |taken| 1 + u8::from(taken));
        let lock = match s.lock_event {
            None => 0,
            Some(LockEvent::Acquired(_)) => 1,
            Some(LockEvent::Released(_)) => 2,
        };
        let flags = branch
            | lock << LOCK_SHIFT
            | if s.spawned.is_some() { SPAWNED } else { 0 }
            | if s.next_pc.is_some() { NEXT_PC } else { 0 };
        self.uint(s.tid.0.into());
        self.instr(s.at);
        self.out.push(flags);
        self.seq(&s.accesses, |w, a| {
            w.uint(a.addr.0);
            w.tag(&ACCESS_KINDS, a.kind);
        });
        self.seq(&s.locks_held, |w, l| w.uint(l.0.into()));
        if let Some(LockEvent::Acquired(l) | LockEvent::Released(l)) = s.lock_event {
            self.uint(l.0.into());
        }
        if let Some(t) = s.spawned {
            self.uint(t.0.into());
        }
        if let Some(pc) = s.next_pc {
            self.uint(pc as u64);
        }
    }
}

/// Decodes record bodies written by [`Writer`]. Every read returns `None`
/// on a short or malformed body instead of panicking.
struct Reader<'a> {
    /// The bytes not yet consumed.
    bytes: &'a [u8],
}

impl Reader<'_> {
    /// The record in `body`, if `body` is exactly one record's encoding.
    fn record(body: &[u8]) -> Option<RecordPayload> {
        let mut r = Reader { bytes: body };
        let record = RecordPayload {
            fp: r.fixed()?,
            program: r.fixed()?,
            step_budget: r.int()?,
            outcome: r.tag(&OUTCOMES)?,
            schedule: r.schedule()?,
            sel_of: r.seq(|r| Some((ThreadId(r.int()?), r.sel()?)))?,
            run: r.run()?,
        };
        r.bytes.is_empty().then_some(record)
    }

    fn byte(&mut self) -> Option<u8> {
        let (&b, rest) = self.bytes.split_first()?;
        self.bytes = rest;
        Some(b)
    }

    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let (head, rest) = self.bytes.split_at_checked(n)?;
        self.bytes = rest;
        Some(head)
    }

    fn fixed(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// An unsigned LEB128 varint of at most 64 bits.
    fn uint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            let bits = u64::from(b & 0x7F);
            // The tenth byte holds bit 63 only.
            if shift == 63 && bits > 1 {
                return None;
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
        }
        None
    }

    /// A varint that must fit `T`.
    fn int<T: TryFrom<u64>>(&mut self) -> Option<T> {
        T::try_from(self.uint()?).ok()
    }

    fn flag(&mut self) -> Option<bool> {
        match self.byte()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn tag<T: Copy>(&mut self, table: &[T]) -> Option<T> {
        table.get(usize::from(self.byte()?)).copied()
    }

    /// A sequence length. Every element takes at least one byte, so a
    /// count above the bytes left is corrupt, and a count at most that
    /// keeps any allocation for it within a fixed multiple of the
    /// payload's size.
    fn count(&mut self) -> Option<usize> {
        let n: usize = self.int()?;
        (n <= self.bytes.len()).then_some(n)
    }

    fn seq<T>(&mut self, mut get: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let n = self.count()?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(get(self)?);
        }
        Some(items)
    }

    fn opt<T>(&mut self, get: impl FnOnce(&mut Self) -> Option<T>) -> Option<Option<T>> {
        Some(if self.flag()? { Some(get(self)?) } else { None })
    }

    fn sel(&mut self) -> Option<ThreadSel> {
        Some(ThreadSel {
            prog: ThreadProgId(self.int()?),
            occurrence: self.int()?,
        })
    }

    fn instr(&mut self) -> Option<InstrAddr> {
        Some(InstrAddr {
            prog: ThreadProgId(self.int()?),
            index: self.int()?,
        })
    }

    fn schedule(&mut self) -> Option<Schedule> {
        Some(Schedule {
            start: self.opt(Self::sel)?,
            points: self.seq(|r| {
                Some(SchedPoint {
                    thread: r.sel()?,
                    at: r.instr()?,
                    nth: r.int()?,
                    when: r.tag(&ANCHORS)?,
                    switch_to: r.sel()?,
                })
            })?,
            fallback: self.seq(Self::sel)?,
            segments: self.seq(Self::sel)?,
        })
    }

    fn run(&mut self) -> Option<RunResult> {
        let failure = self.opt(|r| {
            Some(Failure {
                kind: r.tag(&FAILURE_KINDS)?,
                at: r.instr()?,
                tid: ThreadId(r.int()?),
                addr: r.opt(|r| Some(Addr(r.uint()?)))?,
                message: {
                    let n = r.count()?;
                    String::from_utf8(r.take(n)?.to_vec()).ok()?
                },
            })
        })?;
        let triggered = self.seq(Self::flag)?;
        let forced = self.seq(|r| {
            Some(ForcedResume {
                blocked: r.sel()?,
                holder: r.sel()?,
                lock: LockId(r.int()?),
                seq: r.int()?,
            })
        })?;
        let steps = self.int()?;
        let budget_exhausted = self.flag()?;
        let threads = self.seq(|r| {
            Some(ThreadFinal {
                sel: r.sel()?,
                status: match r.byte()? {
                    0 => ThreadStatus::Runnable,
                    1 => ThreadStatus::Blocked {
                        on: LockId(r.int()?),
                    },
                    2 => ThreadStatus::WaitingGrace,
                    3 => ThreadStatus::Exited,
                    4 => ThreadStatus::Killed,
                    _ => return None,
                },
                next: r.opt(Self::instr)?,
            })
        })?;
        let mut trace = Trace::new();
        for seq in 0..self.count()? {
            trace.push(Arc::new(self.step(seq)?));
        }
        Some(RunResult {
            trace,
            failure,
            triggered,
            forced,
            steps,
            budget_exhausted,
            threads,
        })
    }

    fn step(&mut self, seq: usize) -> Option<StepRecord> {
        let tid = ThreadId(self.int()?);
        let at = self.instr()?;
        let flags = self.byte()?;
        if flags >> 6 != 0 {
            return None;
        }
        let branch_taken = match flags & 0b11 {
            0 => None,
            1 => Some(false),
            2 => Some(true),
            _ => return None,
        };
        let accesses = self.seq(|r| {
            Some(MemAccess {
                addr: Addr(r.uint()?),
                kind: r.tag(&ACCESS_KINDS)?,
            })
        })?;
        let locks_held = self.seq(|r| Some(LockId(r.int()?)))?;
        let lock_event = match flags >> LOCK_SHIFT & 0b11 {
            0 => None,
            1 => Some(LockEvent::Acquired(LockId(self.int()?))),
            2 => Some(LockEvent::Released(LockId(self.int()?))),
            _ => return None,
        };
        let spawned = if flags & SPAWNED != 0 {
            Some(ThreadId(self.int()?))
        } else {
            None
        };
        let next_pc = if flags & NEXT_PC != 0 {
            Some(self.int()?)
        } else {
            None
        };
        Some(StepRecord {
            seq,
            tid,
            at,
            accesses,
            branch_taken,
            lock_event,
            locks_held,
            spawned,
            next_pc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{
        CancelToken,
        Executor,
        ExecutorConfig, //
    };
    use crate::schedule::{
        Anchor,
        SchedPoint, //
    };
    use ksim::{
        builder::ProgramBuilder,
        InstrAddr,
        ThreadProgId, //
    };

    fn fig1_program() -> Arc<Program> {
        let mut p = ProgramBuilder::new("fig1");
        let obj = p.static_obj("obj", 8);
        let ptr_valid = p.global("ptr_valid", 0);
        let ptr = p.global_ptr("ptr", obj);
        {
            let mut a = p.syscall_thread("A", "writer");
            a.n("A1").store_global(ptr_valid, 1u64);
            a.n("A2").load_global("r0", ptr);
            a.load_ind("r1", "r0", 0);
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "clearer");
            let out = b.new_label();
            b.n("B1").load_global("r0", ptr_valid);
            b.jmp_if(ksim::builder::cond_reg("r0", ksim::CmpOp::Eq, 0), out);
            b.n("B2").store_global(ptr, 0u64);
            b.place(out);
            b.ret();
        }
        Arc::new(p.build().unwrap())
    }

    fn sel(p: u16) -> ThreadSel {
        ThreadSel::first(ThreadProgId(p))
    }

    fn fig1_jobs(program: &Arc<Program>) -> Vec<ExecJob> {
        let failing = Schedule {
            start: Some(sel(0)),
            points: vec![SchedPoint {
                thread: sel(0),
                at: InstrAddr {
                    prog: ThreadProgId(0),
                    index: 1,
                },
                nth: 0,
                when: Anchor::Before,
                switch_to: sel(1),
            }],
            fallback: vec![sel(1), sel(0)],
            segments: Vec::new(),
        };
        [
            Schedule::serial(vec![sel(0), sel(1)]),
            Schedule::serial(vec![sel(1), sel(0)]),
            failing,
        ]
        .into_iter()
        .map(|schedule| ExecJob {
            program: Arc::clone(program),
            schedule,
            enforce: EnforceConfig::default(),
            shared_steps: None,
        })
        .collect()
    }

    fn journaling_pool(journal: &Arc<Journal>) -> Executor {
        Executor::with_config(ExecutorConfig {
            vms: 1,
            journal: Some(Arc::clone(journal)),
            ..ExecutorConfig::default()
        })
    }

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "aitia-journal-test-{}-{name}.wal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn appends_are_durable_and_reload() {
        let path = tmp_path("durable");
        let program = fig1_program();
        let jobs = fig1_jobs(&program);
        {
            let journal = Arc::new(Journal::open(&path).unwrap());
            let exec = journaling_pool(&journal);
            let out = exec.run_batch(&jobs, &CancelToken::new());
            assert!(out.iter().all(Option::is_some));
            assert_eq!(journal.stats().records_appended, jobs.len() as u64);
            journal.flush();
        }
        let reloaded = Journal::open(&path).unwrap();
        assert_eq!(reloaded.loaded_records(), jobs.len());
        assert_eq!(reloaded.stats().torn_tail_truncations, 0);
        assert_eq!(record_count(&path).unwrap(), jobs.len());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicate_keys_are_not_rewritten() {
        let path = tmp_path("dedup");
        let program = fig1_program();
        let jobs = fig1_jobs(&program);
        let journal = Arc::new(Journal::open(&path).unwrap());
        let exec = journaling_pool(&journal);
        let _ = exec.run_batch(&jobs, &CancelToken::new());
        // The second batch is all memo hits; the journal must not grow.
        let _ = exec.run_batch(&jobs, &CancelToken::new());
        assert_eq!(journal.stats().records_appended, jobs.len() as u64);
        journal.flush();
        assert_eq!(record_count(&path).unwrap(), jobs.len());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_seeds_the_memo_for_a_fresh_program_arc() {
        let path = tmp_path("replay");
        let program = fig1_program();
        let jobs = fig1_jobs(&program);
        {
            let journal = Arc::new(Journal::open(&path).unwrap());
            let _ = journaling_pool(&journal).run_batch(&jobs, &CancelToken::new());
            journal.flush();
        }
        // A content-identical program in a fresh allocation models the
        // restarted process: the identity-keyed memo cannot hit, but the
        // digest-keyed replay preloads against the new Arc.
        let fresh = fig1_program();
        assert_eq!(program_digest(&program), program_digest(&fresh));
        let journal = Journal::open(&path).unwrap();
        let substrate = Substrate::default();
        let seeded = journal.replay_into_substrate(&fresh, &substrate);
        assert_eq!(seeded, jobs.len() as u64);
        let exec = Executor::with_config(ExecutorConfig {
            vms: 1,
            substrate,
            ..ExecutorConfig::default()
        });
        let out = exec.run_batch(&fig1_jobs(&fresh), &CancelToken::new());
        assert!(out.iter().flatten().all(|o| o.memo_hit));
        assert_eq!(exec.stats().runs, 0, "resume pays zero VM executions");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_truncates_to_the_last_intact_record() {
        let path = tmp_path("torn");
        let program = fig1_program();
        let jobs = fig1_jobs(&program);
        {
            let journal = Arc::new(Journal::open(&path).unwrap());
            let _ = journaling_pool(&journal).run_batch(&jobs, &CancelToken::new());
            journal.flush();
        }
        // Tear the last record mid-payload.
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let journal = Journal::open(&path).unwrap();
        assert_eq!(journal.loaded_records(), jobs.len() - 1);
        assert_eq!(journal.stats().torn_tail_truncations, 1);
        // Reopening the repaired file is clean.
        drop(journal);
        let journal = Journal::open(&path).unwrap();
        assert_eq!(journal.stats().torn_tail_truncations, 0);
        assert_eq!(journal.loaded_records(), jobs.len() - 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_payload_bytes_fail_the_crc() {
        let path = tmp_path("crc");
        let program = fig1_program();
        let jobs = fig1_jobs(&program);
        {
            let journal = Arc::new(Journal::open(&path).unwrap());
            let _ = journaling_pool(&journal).run_batch(&jobs, &CancelToken::new());
            journal.flush();
        }
        // Flip a byte inside the second record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let first_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let second_payload = 12 + 8 + first_len + 8 + 4;
        bytes[second_payload] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let journal = Journal::open(&path).unwrap();
        assert_eq!(journal.loaded_records(), 1, "records after the flip drop");
        assert_eq!(journal.stats().torn_tail_truncations, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unrecognized_header_degrades_to_cold_start() {
        let path = tmp_path("header");
        std::fs::write(&path, b"not a journal at all").unwrap();
        let journal = Journal::open(&path).unwrap();
        assert_eq!(journal.loaded_records(), 0);
        assert_eq!(journal.stats().torn_tail_truncations, 1);
        // The rewritten file is a valid empty journal.
        drop(journal);
        let journal = Journal::open(&path).unwrap();
        assert_eq!(journal.stats().torn_tail_truncations, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncate_at_record_keeps_a_prefix() {
        let path = tmp_path("truncate");
        let program = fig1_program();
        let jobs = fig1_jobs(&program);
        {
            let journal = Arc::new(Journal::open(&path).unwrap());
            let _ = journaling_pool(&journal).run_batch(&jobs, &CancelToken::new());
            journal.flush();
        }
        assert_eq!(truncate_at_record(&path, 2).unwrap(), 2);
        assert_eq!(record_count(&path).unwrap(), 2);
        let journal = Journal::open(&path).unwrap();
        assert_eq!(journal.loaded_records(), 2);
        assert_eq!(journal.stats().torn_tail_truncations, 0, "clean cut");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn timed_out_runs_are_journaled_and_replay_bit_identically() {
        let path = tmp_path("timeout");
        // A one-step budget times out every schedule.
        let one_step = |program: &Arc<Program>| -> Vec<ExecJob> {
            fig1_jobs(program)
                .into_iter()
                .map(|j| ExecJob {
                    enforce: EnforceConfig { step_budget: 1 },
                    ..j
                })
                .collect()
        };
        let program = fig1_program();
        let first = {
            let journal = Arc::new(Journal::open(&path).unwrap());
            let out = journaling_pool(&journal).run_batch(&one_step(&program), &CancelToken::new());
            // Jobs 0 and 3 share a key, so three records.
            assert_eq!(journal.stats().records_appended, 3);
            journal.flush();
            out
        };
        assert!(first
            .iter()
            .flatten()
            .all(|o| o.outcome == RunOutcome::Timeout));
        assert_eq!(record_count(&path).unwrap(), 3);
        let fresh = fig1_program();
        let substrate = Substrate::default();
        let journal = Journal::open(&path).unwrap();
        assert_eq!(journal.replay_into_substrate(&fresh, &substrate), 3);
        let exec = Executor::with_config(ExecutorConfig {
            vms: 1,
            substrate,
            ..ExecutorConfig::default()
        });
        let resumed = exec.run_batch(&one_step(&fresh), &CancelToken::new());
        assert_eq!(exec.stats().runs, 0, "the resume executes nothing");
        for (a, b) in first.iter().flatten().zip(resumed.iter().flatten()) {
            assert!(b.memo_hit);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.run, b.run);
            assert_eq!(a.sel_of, b.sel_of);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn digest_is_content_keyed_and_identity_cached() {
        let a = fig1_program();
        let b = fig1_program();
        assert_eq!(program_digest(&a), program_digest(&a));
        assert_eq!(program_digest(&a), program_digest(&b), "same content");
        let mut p = ProgramBuilder::new("other");
        let g = p.global("x", 0);
        {
            let mut t = p.syscall_thread("T", "w");
            t.store_global(g, 1u64);
            t.ret();
        }
        let other = Arc::new(p.build().unwrap());
        assert_ne!(program_digest(&a), program_digest(&other));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fsync_failure_is_sticky_and_disables_the_journal() {
        let path = tmp_path("fsync-poison");
        let program = fig1_program();
        let jobs = fig1_jobs(&program);
        let journal = Arc::new(Journal::open(&path).unwrap());
        let pool = journaling_pool(&journal);
        let out = pool.run_batch(&jobs, &CancelToken::new());
        assert!(out.iter().all(Option::is_some));
        let appended_before = journal.stats().records_appended;
        assert!(appended_before > 0, "healthy journal appends");
        assert!(!journal.stats().fsync_failed);

        // The temp dir goes bad under the journal: every fsync now fails.
        journal.poison_fsync();
        journal.flush();
        assert!(journal.stats().fsync_failed, "failure is surfaced");

        // Disabled: no further appends land, in memory or on disk.
        let more = ExecJob {
            program: Arc::clone(&program),
            schedule: Schedule::serial(vec![sel(1), sel(0), sel(1)]),
            enforce: EnforceConfig { step_budget: 77 },
            shared_steps: None,
        };
        let one = pool.run_batch(std::slice::from_ref(&more), &CancelToken::new());
        assert!(one[0].is_some());
        assert_eq!(journal.stats().records_appended, appended_before);
        // Sticky across flushes; the flag never clears.
        journal.flush();
        assert!(journal.stats().fsync_failed);
        drop(pool);
        drop(journal);

        // The surviving prefix is still a valid journal: reopening reads
        // exactly the records appended while fsync was healthy.
        let reopened = Journal::open(&path).unwrap();
        assert_eq!(reopened.loaded_records() as u64, appended_before);
        assert!(!reopened.stats().fsync_failed, "flag is per-process");
        let _ = std::fs::remove_file(&path);
    }
    /// A record that sets every optional field and uses every status, lock
    /// event and branch form the codec writes, with integers at their
    /// type's extremes and a trace that spans sealed chunks.
    fn full_record() -> RecordPayload {
        let sel = |prog: u16, occurrence: u32| ThreadSel {
            prog: ThreadProgId(prog),
            occurrence,
        };
        let at = |prog: u16, index: usize| InstrAddr {
            prog: ThreadProgId(prog),
            index,
        };
        let step = |seq: usize| StepRecord {
            seq,
            tid: ThreadId([0, 7, u32::MAX][seq % 3]),
            at: at([0, u16::MAX][seq % 2], seq * 1000),
            accesses: (0..seq % 4)
                .map(|k| MemAccess {
                    addr: Addr(u64::MAX >> k),
                    kind: ACCESS_KINDS[k % 3],
                })
                .collect(),
            branch_taken: [None, Some(false), Some(true)][seq % 3],
            lock_event: [
                None,
                Some(LockEvent::Acquired(LockId(7))),
                Some(LockEvent::Released(LockId(u16::MAX))),
            ][seq / 2 % 3],
            locks_held: (0..seq % 5).map(|k| LockId(k as u16)).collect(),
            spawned: seq.is_multiple_of(2).then_some(ThreadId(u32::MAX - 1)),
            next_pc: (!seq.is_multiple_of(5)).then_some(usize::MAX - seq),
        };
        RecordPayload {
            fp: u64::MAX,
            program: 0x0123_4567_89AB_CDEF,
            step_budget: usize::MAX,
            schedule: Schedule {
                start: Some(sel(1, u32::MAX)),
                points: vec![SchedPoint {
                    thread: sel(0, 0),
                    at: at(1, usize::MAX),
                    nth: u32::MAX,
                    when: Anchor::After,
                    switch_to: sel(u16::MAX, 3),
                }],
                fallback: vec![sel(1, 0), sel(0, 0)],
                segments: vec![sel(0, 0), sel(1, 0), sel(0, 0)],
            },
            run: RunResult {
                trace: (0..150).map(step).collect(),
                failure: Some(Failure {
                    kind: FailureKind::DoubleFree,
                    at: at(1, 4),
                    tid: ThreadId(2),
                    addr: Some(Addr(0)),
                    message: "refcount → underflow".into(),
                }),
                triggered: vec![true, false, true],
                forced: vec![ForcedResume {
                    blocked: sel(0, 1),
                    holder: sel(1, 0),
                    lock: LockId(u16::MAX),
                    seq: usize::MAX,
                }],
                steps: 150,
                budget_exhausted: true,
                threads: vec![
                    ThreadStatus::Runnable,
                    ThreadStatus::Blocked { on: LockId(9) },
                    ThreadStatus::WaitingGrace,
                    ThreadStatus::Exited,
                    ThreadStatus::Killed,
                ]
                .into_iter()
                .enumerate()
                .map(|(i, status)| ThreadFinal {
                    sel: sel(i as u16, 0),
                    status,
                    next: (i % 2 == 0).then_some(at(0, i)),
                })
                .collect(),
            },
            sel_of: vec![(ThreadId(0), sel(0, 0)), (ThreadId(u32::MAX), sel(1, 2))],
            outcome: RunOutcome::Failed,
        }
    }

    #[test]
    fn codec_roundtrips_every_field_and_variant() {
        let mut record = full_record();
        for (i, &kind) in FAILURE_KINDS.iter().enumerate() {
            record.outcome = OUTCOMES[i % OUTCOMES.len()];
            record.run.failure.as_mut().unwrap().kind = kind;
            let body = Writer::record(&record);
            assert_eq!(Reader::record(&body), Some(record.clone()));
        }
        // A body decodes only at its exact length.
        let body = Writer::record(&record);
        for cut in 0..body.len() {
            assert_eq!(Reader::record(&body[..cut]), None, "cut at {cut}");
        }
        let mut padded = body.clone();
        padded.push(0);
        assert_eq!(Reader::record(&padded), None);
        record.schedule = Schedule::default();
        record.run.failure = None;
        record.run.trace = Trace::new();
        assert_eq!(Reader::record(&Writer::record(&record)), Some(record));
    }

    /// The one record of a version 1 journal: the JSON payload the previous
    /// format wrote for a one-thread program's serial run.
    const V1_PAYLOAD: &str = r#"{"fp":7943311482724429010,"program":16471262413356719269,"step_budget":200000,"schedule":{"start":{"prog":0,"occurrence":0},"points":[],"fallback":[{"prog":0,"occurrence":0}],"segments":[]},"run":{"trace":[{"seq":0,"tid":0,"at":{"prog":0,"index":0},"accesses":[{"addr":268435456,"kind":"Write"}],"branch_taken":null,"lock_event":null,"locks_held":[],"spawned":null,"next_pc":1},{"seq":1,"tid":0,"at":{"prog":0,"index":1},"accesses":[],"branch_taken":null,"lock_event":null,"locks_held":[],"spawned":null,"next_pc":null}],"failure":null,"triggered":[],"forced":[],"steps":2,"budget_exhausted":false,"threads":[{"sel":{"prog":0,"occurrence":0},"status":"Exited","next":null}]},"sel_of":[[0,{"prog":0,"occurrence":0}]],"outcome":"Passed"}"#;

    #[test]
    fn version_1_journals_cold_start() {
        let path = tmp_path("v1");
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&frame_record(V1_PAYLOAD.as_bytes()));
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(record_count(&path).unwrap(), 0, "another version");
        assert_eq!(truncate_at_record(&path, 1).unwrap(), 0);
        let journal = Journal::open(&path).unwrap();
        assert_eq!(journal.loaded_records(), 0);
        assert_eq!(journal.stats().torn_tail_truncations, 1);
        // The rewritten file is a valid empty journal of this version.
        drop(journal);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), HEADER_LEN);
        let journal = Journal::open(&path).unwrap();
        assert_eq!(journal.loaded_records(), 0);
        assert_eq!(journal.stats().torn_tail_truncations, 0);
        let _ = std::fs::remove_file(&path);
    }

    /// Byte-level corruption of a real journal. Every case writes a file
    /// and reads it with all three readers, which must agree; no case may
    /// panic, or abort by allocating for a count the file never backs.
    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        /// The bytes of a journal of six real runs, and its records.
        fn real_journal() -> &'static (Vec<u8>, Vec<RecordPayload>) {
            static JOURNAL: OnceLock<(Vec<u8>, Vec<RecordPayload>)> = OnceLock::new();
            JOURNAL.get_or_init(|| {
                let path = tmp_path("fuzz-source");
                let program = fig1_program();
                let jobs: Vec<ExecJob> = fig1_jobs(&program)
                    .into_iter()
                    .flat_map(|j| {
                        let other = ExecJob {
                            enforce: EnforceConfig { step_budget: 1000 },
                            ..j.clone()
                        };
                        [j, other]
                    })
                    .collect();
                let journal = Arc::new(Journal::open(&path).unwrap());
                let _ = journaling_pool(&journal).run_batch(&jobs, &CancelToken::new());
                drop(journal);
                let bytes = std::fs::read(&path).unwrap();
                let _ = std::fs::remove_file(&path);
                let (records, torn) = scan_records(&bytes);
                assert!(!torn && records.len() == jobs.len());
                (bytes, records.into_iter().map(|(r, _)| r).collect())
            })
        }

        /// The frames of the real journal, as `(start, payload)`.
        fn frames() -> Vec<(usize, Vec<u8>)> {
            let (bytes, _) = real_journal();
            let (frames, _, _) = scan_frames(bytes, HEADER_LEN);
            frames
                .iter()
                .map(|f| (f.start as usize, f.payload.to_vec()))
                .collect()
        }

        /// Writes `bytes` as the journal `name` and reads it three ways:
        /// `record_count` and `truncate_at_record(keep)` must agree with
        /// the records `Journal::open` loads, which are returned.
        fn load(name: &str, bytes: &[u8], keep: usize) -> Vec<RecordPayload> {
            let path = tmp_path(name);
            std::fs::write(&path, bytes).unwrap();
            let counted = record_count(&path).unwrap();
            let journal = Journal::open(&path).unwrap();
            let loaded = journal.inner.lock().unwrap().records.clone();
            drop(journal);
            assert_eq!(counted, loaded.len(), "record_count disagrees with open");
            std::fs::write(&path, bytes).unwrap();
            let kept = truncate_at_record(&path, keep).unwrap();
            assert_eq!(kept, keep.min(loaded.len()), "truncate_at_record disagrees");
            let journal = Journal::open(&path).unwrap();
            assert!(journal.inner.lock().unwrap().records[..] == loaded[..kept]);
            drop(journal);
            let _ = std::fs::remove_file(&path);
            loaded
        }

        /// The real journal with record `i`'s body replaced by `body`,
        /// framed with a correct CRC.
        fn reframed(i: usize, body: &[u8]) -> Vec<u8> {
            let mut bytes = MAGIC.to_vec();
            bytes.extend_from_slice(&VERSION.to_le_bytes());
            for (k, (_, payload)) in frames().iter().enumerate() {
                let payload = if k == i { body } else { payload };
                bytes.extend_from_slice(&frame_record(payload));
            }
            bytes
        }

        /// Record `i`'s body up to its trace, whose step count is cut off.
        fn body_before_trace(i: usize) -> Vec<u8> {
            let mut record = real_journal().1[i].clone();
            record.run.trace = Trace::new();
            let mut body = Writer::record(&record);
            assert_eq!(body.pop(), Some(0), "the trace's count is last");
            body
        }

        fn varint(v: u64) -> Vec<u8> {
            let mut w = Writer { out: Vec::new() };
            w.uint(v);
            w.out
        }

        #[test]
        fn crafted_counts_past_the_frame_end_are_torn() {
            let originals = &real_journal().1;
            for i in 0..originals.len() {
                let steps = {
                    let full = Writer::record(&originals[i]);
                    let head = body_before_trace(i).len();
                    full[head..].to_vec()
                };
                let n = originals[i].run.trace.len() as u64;
                let steps = &steps[varint(n).len()..];
                // Counts far past the frame's end, one step more than the
                // frame holds, and exactly the bytes left, which passes
                // the count bound and runs out of steps.
                for count in [1 << 30, u64::MAX, n + 1, steps.len() as u64] {
                    let mut body = body_before_trace(i);
                    body.extend(varint(count));
                    body.extend_from_slice(steps);
                    let loaded = load("crafted", &reframed(i, &body), usize::MAX);
                    assert_eq!(loaded[..], originals[..i], "trace count {count}");
                }
                // The memo key, a `Passed` outcome and no start thread,
                // then a schedule-point count longer than 64 bits, and
                // one of 2^63 - 1.
                for tail in [vec![0xFF; 11], varint(u64::MAX >> 1)] {
                    let mut body = Writer::record(&originals[i])[..16].to_vec();
                    body.extend(varint(originals[i].step_budget as u64));
                    body.extend([0, 0]);
                    body.extend(tail);
                    let loaded = load("crafted", &reframed(i, &body), usize::MAX);
                    assert_eq!(loaded[..], originals[..i]);
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Flipped or overwritten bytes anywhere, header included: the
            /// CRC or the header check catches them, so `open` loads a
            /// prefix of the original records, each equal to its original.
            #[test]
            fn byte_flips_load_an_intact_prefix(
                edits in prop::collection::vec((0..usize::MAX, 0u8..=255, 0u8..2), 1..6),
                keep in 0usize..8,
            ) {
                let (bytes, originals) = real_journal();
                let mut bytes = bytes.clone();
                for (at, b, overwrite) in edits {
                    let i = at % bytes.len();
                    if overwrite == 1 {
                        bytes[i] = b;
                    } else {
                        bytes[i] ^= b.max(1);
                    }
                }
                let loaded = load("flips", &bytes, keep);
                prop_assert!(loaded.len() <= originals.len());
                prop_assert!(loaded[..] == originals[..loaded.len()]);
            }

            /// A body mutated behind a correct CRC reaches the decoder. It
            /// either decodes, and then every other record loads intact,
            /// or it is torn, and exactly the records before it load.
            #[test]
            fn mutated_bodies_decode_or_tear(
                which in 0..usize::MAX,
                edits in prop::collection::vec((0..usize::MAX, 0u8..=255), 0..4),
                cut in 0..usize::MAX,
                extra in prop::collection::vec(0u8..=255, 0..4),
                keep in 0usize..8,
            ) {
                let originals = &real_journal().1;
                let i = which % originals.len();
                let mut body = frames()[i].1.clone();
                for (at, b) in edits {
                    let k = at % body.len();
                    body[k] = b;
                }
                body.truncate(cut % (body.len() + 1));
                body.extend(extra);
                let loaded = load("bodies", &reframed(i, &body), keep);
                prop_assert!(loaded.len() == i || loaded.len() == originals.len());
                for (k, record) in loaded.iter().enumerate() {
                    if k != i {
                        prop_assert!(*record == originals[k]);
                    }
                }
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
                let originals = &real_journal().1;
                let i = which % originals.len();
                let mut bytes = real_journal().0.clone();
                let start = frames()[i].0;
                bytes[start..start + 4].copy_from_slice(&(MAX_RECORD_LEN + over).to_le_bytes());
                let loaded = load("lengths", &bytes, keep);
                prop_assert!(loaded[..] == originals[..i]);
            }
        }
    }
}
