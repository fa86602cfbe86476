//! Durable write-ahead run journal (DESIGN.md §7).
//!
//! A full diagnosis campaign is thousands of enforced schedule runs, and a
//! SIGKILL, OOM, or host reboot mid-campaign would throw all of them away —
//! the in-memory memo table dies with the process. Because enforcement is a
//! pure function of `(program, schedule, step budget)`, the campaign is
//! restartable by construction: this journal appends one record per
//! *conclusive* [`ExecOutput`], keyed exactly like the memo table, and a
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
//! u32 len (LE) | u32 crc32(payload) (LE) | payload (JSON, `len` bytes)
//! ```
//!
//! The payload carries the memo key (schedule fingerprint, program content
//! digest, step budget) plus everything needed to reconstruct the
//! [`ExecOutput`]: the schedule itself, the full [`RunResult`] (trace
//! included, so causality edge extraction sees exactly what a re-execution
//! would show), the thread-selector map, and the outcome.
//!
//! # Torn tails and corruption
//!
//! A crash mid-append can leave a torn final record. On open, the journal
//! scans forward and truncates at the first record whose length frame, CRC,
//! or JSON payload does not check out — counted in
//! [`JournalStats::torn_tail_truncations`] and warned about, never a panic.
//! Every record before the truncation point is intact (appends are
//! sequential), so the resume degrades by at most the torn record. An
//! unrecognized header degrades all the way to a cold start.
//!
//! # What is never journaled
//!
//! Inconclusive outcomes — [`RunOutcome::Timeout`], [`RunOutcome::Crashed`],
//! and exec-layer fault placeholders — are never appended, mirroring the
//! memo table's `memo_excluded` rule: an inconclusive run proves nothing in
//! either direction, and making it durable would let it shadow a future
//! conclusive execution across process lifetimes.

use crate::{
    enforce::{
        schedule_fingerprint,
        EnforceConfig,
        RunOutcome,
        RunResult, //
    },
    exec::{
        memo_preload,
        ExecJob,
        ExecOutput,
        Substrate, //
    },
    schedule::{
        Schedule,
        ThreadSel, //
    },
};
use ksim::{
    Program,
    ThreadId, //
};
use serde::{
    Deserialize,
    Serialize, //
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
/// unrecognized and resume from a cold start.
const VERSION: u32 = 1;
/// Header length: magic plus version.
const HEADER_LEN: u64 = 12;
/// Records are fsync-batched: the file is synced after this many appends
/// (and on [`Journal::flush`] / drop).
const FSYNC_EVERY: usize = 32;
/// Sanity bound on a record's framed length; anything larger reads as
/// corruption (no schedule run serializes to a gigabyte).
const MAX_RECORD_LEN: u32 = 1 << 30;

/// Journal observability counters (surfaced in the `report` stats block).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records replayed into a memo table by [`Journal::replay_into_substrate`].
    pub records_replayed: u64,
    /// Records appended (after deduplication) this process lifetime.
    pub records_appended: u64,
    /// Truncations performed on open because of a torn tail, a CRC or JSON
    /// mismatch, or an unrecognized header.
    pub torn_tail_truncations: u64,
    /// Sticky: an fsync failed at some point this process lifetime. The
    /// journal disabled itself when this flipped (records that cannot be
    /// made durable are worse than no records: a resume would trust them),
    /// so the campaign ran on without crash-safety from that point.
    pub fsync_failed: bool,
}

/// One journaled execution, carrying its memo key and its full output.
#[derive(Clone, Debug, Serialize, Deserialize)]
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
    /// Runtime-thread → selector map of the run, as sorted pairs (JSON
    /// objects cannot key on a tuple struct).
    sel_of: Vec<(ThreadId, ThreadSel)>,
    /// Conclusive classification of the run.
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

/// A durable, fsync-batched, CRC-checked write-ahead journal of conclusive
/// schedule executions. Thread-safe: the executor appends from any worker.
pub struct Journal {
    path: PathBuf,
    inner: Mutex<Inner>,
    replayed: AtomicU64,
    appended: AtomicU64,
    truncations: AtomicU64,
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
        let good_end = if bytes.is_empty() {
            file.write_all(&MAGIC)?;
            file.write_all(&VERSION.to_le_bytes())?;
            file.sync_data()?;
            HEADER_LEN
        } else if bytes.len() < HEADER_LEN as usize
            || bytes[..8] != MAGIC
            || bytes[8..12] != VERSION.to_le_bytes()
        {
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
            file.sync_data()?;
            HEADER_LEN
        } else {
            let (parsed, good_end, torn) = scan_records(&bytes);
            records = parsed;
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

    /// Syncs the file, honoring the poison seam.
    fn sync_data(&self, inner: &mut Inner) -> std::io::Result<()> {
        if self.fsync_poisoned.load(Ordering::SeqCst) {
            return Err(std::io::Error::other(
                "poisoned temp-dir path: fsync injection",
            ));
        }
        inner.file.sync_data()
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

    /// Appends one conclusive output. Inconclusive outcomes and duplicate
    /// keys are silently skipped; I/O errors are warned about and swallowed
    /// (a failing journal degrades durability, never the campaign).
    pub fn append(&self, job: &ExecJob, out: &ExecOutput) {
        if out.outcome.is_inconclusive() {
            return;
        }
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
        let bytes = match serde_json::to_string(&payload) {
            Ok(s) => s.into_bytes(),
            Err(e) => {
                eprintln!("aitia-journal: serialization failed, dropping record: {e}");
                return;
            }
        };
        let framed = frame_record(&bytes);
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
            };
            let out = ExecOutput {
                run: r.run.clone(),
                sel_of: r.sel_of.iter().copied().collect(),
                outcome: r.outcome,
                retries: 0,
                vm_faulted: None,
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

/// Scans the byte buffer past the header, returning the intact records, the
/// byte offset after the last intact record, and whether a torn/corrupt
/// tail was found.
fn scan_records(bytes: &[u8]) -> (Vec<RecordPayload>, u64, bool) {
    let (frames, mut good_end, mut torn) = scan_frames(bytes, HEADER_LEN);
    let mut records = Vec::with_capacity(frames.len());
    for frame in frames {
        let Ok(record) = std::str::from_utf8(frame.payload)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str::<RecordPayload>(s).map_err(|e| e.to_string()))
        else {
            // A CRC-clean frame that is not a record: treat everything from
            // this frame on as corrupt, exactly like a torn frame.
            good_end = frame.start;
            torn = true;
            break;
        };
        records.push(record);
    }
    (records, good_end, torn)
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
        let Some(payload) = bytes.get(off + 8..off + 8 + len as usize) else {
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
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < HEADER_LEN as usize {
        return Ok(0);
    }
    let (records, _, _) = scan_records(&bytes);
    let kept = records.len().min(keep);
    let mut off = HEADER_LEN as usize;
    for _ in 0..kept {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        off += 8 + len as usize;
    }
    OpenOptions::new()
        .write(true)
        .open(path)?
        .set_len(off as u64)?;
    Ok(kept)
}

/// Number of intact records in the journal at `path`.
///
/// # Errors
///
/// Returns the underlying I/O error when the file cannot be read.
pub fn record_count(path: impl AsRef<Path>) -> std::io::Result<usize> {
    let mut bytes = Vec::new();
    File::open(path.as_ref())?.read_to_end(&mut bytes)?;
    if bytes.len() < HEADER_LEN as usize || bytes[..8] != MAGIC {
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
    fn inconclusive_outcomes_are_never_journaled() {
        let path = tmp_path("inconclusive");
        let program = fig1_program();
        // A one-step budget times out every schedule.
        let jobs: Vec<ExecJob> = fig1_jobs(&program)
            .into_iter()
            .map(|j| ExecJob {
                enforce: EnforceConfig { step_budget: 1 },
                ..j
            })
            .collect();
        let journal = Arc::new(Journal::open(&path).unwrap());
        let _ = journaling_pool(&journal).run_batch(&jobs, &CancelToken::new());
        assert_eq!(journal.stats().records_appended, 0);
        journal.flush();
        assert_eq!(record_count(&path).unwrap(), 0);
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
}
