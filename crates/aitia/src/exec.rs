//! The shared VM-pool execution layer (DESIGN.md §5).
//!
//! Every consumer of schedule execution — LIFS rounds, Causality Analysis
//! flips, the manager's slice searches — goes through one executor that
//! owns the worker "VMs" (one booted [`ksim::Engine`] per worker slot;
//! reusable execution state lives in the shared [`Substrate`]). Callers
//! submit *batches* of `(program, schedule)` jobs and fold the results in
//! canonical submission order, which keeps every consumer bit-for-bit
//! deterministic at any worker count:
//!
//! * each job is a pure function of its program and schedule (sequential
//!   consistency of the engine), so *which* worker runs it cannot change
//!   its result;
//! * workers claim job indices in canonical order from one shared
//!   counter, and an early-stop request at index `i` only ever *lowers*
//!   the shared stop bound — so every index at or below the final bound is
//!   guaranteed to have been executed, and the returned prefix is complete;
//! * results beyond the final stop bound are discarded (speculative work),
//!   never folded.
//!
//! Each job takes one path: a lookup in the substrate's memo table, and on
//! a miss a run on the worker's engine, a memo insert and a journal append.
//! The engine is a deterministic interpreter that cannot crash; its one way
//! to hang, a livelock, ends at the step budget as [`RunOutcome::Timeout`],
//! which is as much a pure function of the job as a pass or a failure, so
//! it is memoized and journaled like any other output.
//!
//! Cancellation is checked at schedule boundaries (job claim time): an
//! in-flight search stops submitting work but completed results still form
//! a contiguous prefix that callers can fold deterministically. The batch's
//! [`CancelToken`] is the one stop signal: a campaign deadline is a
//! wall-clock expiry carried by the token, not a second check.

use crate::{
    enforce::{
        run_cached,
        schedule_fingerprint,
        EnforceConfig,
        PrefixHint,
        RunOutcome,
        RunResult,
        SnapshotForest,
        Start, //
    },
    journal::Journal,
    lru::LruBuckets,
    schedule::{
        Schedule,
        ThreadSel, //
    },
};
use ksim::{
    Engine,
    Program,
    ThreadId, //
};
use std::{
    collections::HashMap,
    sync::{
        atomic::{
            AtomicBool,
            AtomicU64,
            AtomicUsize,
            Ordering, //
        },
        Arc,
        Mutex,
        OnceLock, //
    },
    time::{
        Duration,
        Instant, //
    },
};

/// A cooperative cancellation flag, checked at schedule boundaries, with
/// an optional wall-clock expiry.
///
/// Clones share the one flag and the one expiry: cancelling any clone
/// cancels them all, and an expiry that any holder observes has fired for
/// every token carrying it. A campaign deadline is one such expiry, shared
/// by the campaign's LIFS and causality tokens
/// ([`crate::manager::ManagerConfig::wall_deadline_s`]), so it stops the
/// searches and flip batches running on the campaign's pool.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    /// The deadline, shared by every token it was handed to.
    pub(crate) expiry: Option<Arc<Expiry>>,
}

/// A wall-clock instant past which every token carrying it reads as
/// cancelled, and whether a holder has observed it passed.
#[derive(Debug)]
pub(crate) struct Expiry {
    at: Instant,
    fired: AtomicBool,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    #[must_use]
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// This token (sharing its flag) with a fresh expiry `wall_s` seconds
    /// from now, in place of any expiry it carried. A deadline that is
    /// negative, not finite, or too far away for an [`Instant`] to hold
    /// never expires.
    #[must_use]
    pub fn with_deadline_s(&self, wall_s: f64) -> CancelToken {
        let at = Duration::try_from_secs_f64(wall_s)
            .ok()
            .and_then(|d| Instant::now().checked_add(d));
        CancelToken {
            flag: Arc::clone(&self.flag),
            expiry: at.map(|at| {
                Arc::new(Expiry {
                    at,
                    fired: AtomicBool::new(false),
                })
            }),
        }
    }

    /// Requests cancellation (of this token and every clone of it).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether this token (through any clone) has been cancelled or its
    /// expiry has passed. The first observation of a passed expiry fires
    /// it.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::SeqCst) {
            return true;
        }
        let Some(e) = &self.expiry else {
            return false;
        };
        if e.fired.load(Ordering::SeqCst) {
            return true;
        }
        if Instant::now() < e.at {
            return false;
        }
        if !e.fired.swap(true, Ordering::SeqCst) {
            eprintln!("aitia-exec: wall-clock deadline fired; degrading to best-so-far results");
        }
        true
    }

    /// Whether this token's expiry has fired: a holder observed it passed,
    /// so in-flight batches stopped claiming work and consumers folded
    /// best-so-far prefixes. Always `false` without an expiry.
    #[must_use]
    pub fn deadline_fired(&self) -> bool {
        self.expiry
            .as_ref()
            .is_some_and(|e| e.fired.load(Ordering::SeqCst))
    }
}

/// One unit of work: enforce `schedule` on a fresh (or prefix-restored)
/// boot of `program`.
#[derive(Clone, Debug)]
pub struct ExecJob {
    /// The kernel scenario to boot.
    pub program: Arc<Program>,
    /// The interleaving to enforce.
    pub schedule: Schedule,
    /// Enforcement limits.
    pub enforce: EnforceConfig,
    /// A hint, not part of the job's identity: the run is expected to
    /// execute the same first `shared_steps` steps as the batch's other
    /// hinted jobs (a flip: its [`crate::causality::flip::FlipPlan::shared_steps`],
    /// the failing run's steps before the window). With the memo on, the
    /// run resumes from the deepest checkpoint at or below that step that
    /// serves its schedule, and deposits checkpoints at the batch's other
    /// jobs' shared steps on its way there ([`crate::enforce::PrefixHint`]).
    /// The output, its memo key and its journal record never depend on it.
    pub shared_steps: Option<usize>,
}

/// The observable outcome of one job.
#[derive(Clone, Debug)]
pub struct ExecOutput {
    /// The enforced run, exactly as [`crate::enforce::run`] on a fresh
    /// engine would report it.
    pub run: RunResult,
    /// Stable selector of every runtime thread the run spawned.
    pub sel_of: HashMap<ThreadId, ThreadSel>,
    /// Classification of the run ([`RunResult::outcome`]).
    pub outcome: RunOutcome,
    /// Whether this output came from the substrate's result memo table
    /// instead of a VM execution. Memoized outputs are bit-identical to
    /// what the execution would have produced (enforcement is a pure
    /// function of program, schedule, and step budget); consumers use the
    /// flag only for cost accounting, never to branch on content.
    ///
    /// In particular the full [`RunResult`] — every step record with its
    /// accesses, lock events, held locks and spawns — rides along on a
    /// hit, because LIFS feeds it into its knowledge base (footprints,
    /// conflict index, solo traces). The DPOR sleep-set and persistent-set
    /// rules derive from that knowledge, so a memo hit grows sleep-set
    /// state exactly like the execution it stands in for, and pruning
    /// stays memo- and worker-count-invariant.
    pub memo_hit: bool,
}

/// A snapshot of the pool's counters (surfaced via `report`).
///
/// At one worker every count is deterministic. A wider pool may also run
/// jobs past a batch's early stop whose results are then discarded:
/// `runs`, `steps_executed` and `busy_ns` include that speculative work,
/// `discarded_runs` counts the runs it made, and the snapshot and memo
/// counters further depend on which worker claimed which job. All of them
/// are diagnostics, never folded into results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Enforced runs actually executed (memo hits execute nothing).
    pub runs: u64,
    /// Of `runs`, those executed past a batch's early stop whose results
    /// the fold then discarded: speculative work of a pool of two or more
    /// workers, never zero-cost and never seen by a consumer. `runs -
    /// discarded_runs` is the executions the folded results hold. Counted
    /// by the calling thread once the batch's workers have joined.
    pub discarded_runs: u64,
    /// Executed runs that resumed from a checkpoint in the substrate's
    /// snapshot forest — deposited by any worker of any executor sharing
    /// the substrate.
    pub snapshot_hits: u64,
    /// Executed runs that looked a checkpoint up in the forest, found none
    /// that serves their schedule and booted fresh. Runs that never look
    /// one up count in neither: every run with the memo off, and unhinted
    /// runs ([`ExecJob::shared_steps`] `None`) of schedules without points
    /// or with a segment sequence.
    pub snapshot_misses: u64,
    /// Jobs served from the substrate's result memo table without any VM
    /// execution. Worker-count *dependent* (two fingerprint-equal jobs in
    /// flight race to insert first), like the snapshot counters — a
    /// diagnostic, never folded into results.
    pub memo_hits: u64,
    /// Jobs that consulted the memo table and executed (fingerprint not
    /// yet seen).
    pub memo_misses: u64,
    /// Batches (canonical folds) this pool completed that returned at
    /// least one result.
    pub batches: u64,
    /// Logical engine steps of the executed runs across all workers: each
    /// run's [`RunResult::steps`], restored prefixes included (memo hits
    /// execute none).
    pub steps_executed: u64,
    /// Of `steps_executed`, those the engine actually interpreted: each
    /// run's steps past the checkpoint it resumed from. Equal to
    /// `steps_executed` with the memo off.
    pub steps_interpreted: u64,
    /// Wall-clock nanoseconds workers spent inside VM execution, summed
    /// across workers — so `runs / (busy_ns / 1e9)` is per-worker-second
    /// throughput, not wall-clock throughput. It is wall time, not CPU
    /// work: when workers slow each other down (contended cache lines,
    /// shared cores) the same runs take more busy time, so a busy share
    /// near 1 does not mean the pool is faster than one worker. (Table 2's
    /// diagnoses once ran slower at 2 workers than at 1 on a 2-vCPU host
    /// while perfbench's `exec.parallel_eff`, computed from it, read 0.74.)
    /// Timing, hence host-dependent: a diagnostic, never folded into
    /// results.
    pub busy_ns: u64,
}

impl ExecStats {
    /// Enforced schedules per worker-busy second (0 when nothing ran).
    #[must_use]
    pub fn schedules_per_sec(&self) -> f64 {
        per_second(self.runs, self.busy_ns)
    }

    /// Engine instructions per worker-busy second (0 when nothing ran).
    #[must_use]
    pub fn instrs_per_sec(&self) -> f64 {
        per_second(self.steps_executed, self.busy_ns)
    }
}

/// `count / (ns / 1e9)`, guarding the nothing-ran case.
fn per_second(count: u64, ns: u64) -> f64 {
    if ns == 0 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    {
        count as f64 / (ns as f64 / 1e9)
    }
}

/// Internal atomic counters behind [`ExecStats`].
#[derive(Debug, Default)]
struct StatCells {
    runs: AtomicU64,
    discarded_runs: AtomicU64,
    snapshot_hits: AtomicU64,
    snapshot_misses: AtomicU64,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    batches: AtomicU64,
    steps_executed: AtomicU64,
    steps_interpreted: AtomicU64,
    busy_ns: AtomicU64,
}

impl StatCells {
    fn snapshot(&self) -> ExecStats {
        ExecStats {
            runs: self.runs.load(Ordering::SeqCst),
            discarded_runs: self.discarded_runs.load(Ordering::SeqCst),
            snapshot_hits: self.snapshot_hits.load(Ordering::SeqCst),
            snapshot_misses: self.snapshot_misses.load(Ordering::SeqCst),
            memo_hits: self.memo_hits.load(Ordering::SeqCst),
            memo_misses: self.memo_misses.load(Ordering::SeqCst),
            batches: self.batches.load(Ordering::SeqCst),
            steps_executed: self.steps_executed.load(Ordering::SeqCst),
            steps_interpreted: self.steps_interpreted.load(Ordering::SeqCst),
            busy_ns: self.busy_ns.load(Ordering::SeqCst),
        }
    }
}

/// Executor sizing.
#[derive(Clone, Debug)]
pub struct ExecutorConfig {
    /// Worker ("VM") count. One worker executes jobs inline on the calling
    /// thread — the only serial path. Spawned OS threads are additionally
    /// capped at the host's available parallelism; results never depend on
    /// either number.
    pub vms: usize,
    /// Cap on spawned OS threads; `None` uses the host's available
    /// parallelism. Only wall-clock time depends on this — results are
    /// bit-for-bit identical at any value (tests force it above the host
    /// count to exercise the concurrent path on small machines).
    pub os_threads: Option<usize>,
    /// Whether jobs consult the substrate's result memo table and snapshot
    /// forest. Off, every job boots and pays full VM execution, reusing
    /// nothing (the oracle behind `report --no-memo`); results are
    /// bit-identical either way.
    pub memo: bool,
    /// The memo table and snapshot forest this executor consults. The
    /// default is a fresh substrate shared with no other executor; hand
    /// clones of one [`Substrate`] to several executors to share results
    /// and checkpoints between them. Ignored when `memo` is off.
    pub substrate: Substrate,
    /// Durable run journal: every executed output (and every memo hit,
    /// deduplicated by key) is appended so a killed campaign can resume at
    /// zero VM cost. `None` disables journaling.
    pub journal: Option<Arc<Journal>>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            vms: 8,
            os_threads: None,
            memo: true,
            substrate: Substrate::default(),
            journal: None,
        }
    }
}

/// One finished job's output, pinned to everything its correctness depends
/// on. The held `Arc<Program>` keeps the program allocation alive, so the
/// `Arc::ptr_eq` identity check on lookup can never alias a recycled
/// address; the full `Schedule` (plus step budget) is compared on lookup so
/// a fingerprint collision degrades to a miss, never a wrong answer.
struct MemoEntry {
    program: Arc<Program>,
    schedule: Schedule,
    step_budget: usize,
    output: ExecOutput,
}

impl MemoEntry {
    /// Whether this entry's full key matches `job` (fingerprint equality
    /// is only the bucket index; this is the collision-proof comparison).
    fn matches(&self, job: &ExecJob) -> bool {
        Arc::ptr_eq(&self.program, &job.program)
            && self.step_budget == job.enforce.step_budget
            && self.schedule == job.schedule
    }
}

/// Number of lock stripes in the memo table. Sixteen shards keep the
/// workers of an 8-wide pool from convoying on one mutex while staying
/// small enough that per-shard LRU capacity (`cap / 16`) still covers a
/// diagnosis working set.
const MEMO_SHARDS: usize = 16;

/// A substrate's result memo table (DESIGN.md §6).
///
/// Enforcement is a pure function of `(program, schedule, step budget)`:
/// once any worker of any executor has run a job, every later job with the
/// same canonical fingerprint can return the cached [`ExecOutput`] — full
/// trace included, so downstream trace consumers (causality edge
/// extraction) see exactly what a re-execution would have shown — at zero
/// simulated cost. That holds for a [`RunOutcome::Timeout`] too: the step
/// budget is part of the key, so a livelock exhausts it identically on
/// every run.
///
/// Concurrency: the table is striped into [`MEMO_SHARDS`] independently
/// locked shards keyed by `fingerprint % MEMO_SHARDS`, so lookups for
/// different schedules contend only when they land on the same stripe.
/// Each shard buckets its entries by fingerprint. Capacity is split evenly
/// across shards; eviction is per-shard LRU, which bounds total occupancy
/// by the same global cap while keeping every operation free of
/// cross-shard coordination.
struct MemoTable {
    /// Per-shard capacity (`ceil(cap / MEMO_SHARDS)`; 0 disables writes).
    shard_cap: usize,
    shards: Vec<Mutex<LruBuckets<MemoEntry>>>,
}

impl MemoTable {
    fn new(cap: usize) -> MemoTable {
        MemoTable {
            shard_cap: cap.div_ceil(MEMO_SHARDS),
            shards: (0..MEMO_SHARDS).map(|_| Mutex::default()).collect(),
        }
    }

    fn shard(&self, fp: u64) -> &Mutex<LruBuckets<MemoEntry>> {
        &self.shards[(fp % MEMO_SHARDS as u64) as usize]
    }

    /// Whether the table holds `job`'s output, leaving recency untouched.
    fn contains(&self, job: &ExecJob, fp: u64) -> bool {
        self.shard_cap > 0
            && self
                .shard(fp)
                .lock()
                .unwrap()
                .bucket(fp)
                .any(|e| e.matches(job))
    }

    fn get(&self, job: &ExecJob, fp: u64) -> Option<ExecOutput> {
        // A 0-capacity table holds nothing (`put` refuses writes); skip the
        // shard lock and recency churn entirely to match.
        if self.shard_cap == 0 {
            return None;
        }
        let mut shard = self.shard(fp).lock().unwrap();
        let pos = shard.bucket(fp).position(|e| e.matches(job))?;
        Some(shard.touch(fp, pos).output.clone())
    }

    fn put(&self, fp: u64, job: &ExecJob, output: &ExecOutput) {
        if self.shard_cap == 0 {
            return;
        }
        let entry = MemoEntry {
            program: Arc::clone(&job.program),
            schedule: job.schedule.clone(),
            step_budget: job.enforce.step_budget,
            output: output.clone(),
        };
        self.shard(fp)
            .lock()
            .unwrap()
            .put(fp, entry, self.shard_cap, |e| e.matches(job));
    }
}

/// The shared execution substrate: the result memo table plus the snapshot
/// forest — the only place an executor keeps reusable execution state.
///
/// Clones share: the substrate is a pair of `Arc`s, so handing one
/// `Substrate` to many executors makes any result or checkpoint one of
/// them produces reusable by all of them (campaignd hands one to every
/// campaign).
/// Executors built from separate substrates — including two
/// [`Substrate::default`]s — share nothing.
#[derive(Clone)]
pub struct Substrate {
    memo: Arc<MemoTable>,
    forest: Arc<SnapshotForest>,
}

impl std::fmt::Debug for Substrate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Substrate").finish_non_exhaustive()
    }
}

impl Default for Substrate {
    /// A fresh substrate sized for a whole diagnosis. The memo capacity
    /// must cover a diagnosis working set or LRU replay thrashes: a re-run
    /// replays schedules oldest-first, which is exactly the eviction
    /// order, so a table even slightly smaller than one pass yields zero
    /// cross-run hits. A full-calibration Table 2 pass is ~5.1k distinct
    /// schedules; 8192 holds it with headroom.
    fn default() -> Self {
        Substrate::private(8192, 256)
    }
}

impl Substrate {
    /// One default-sized substrate shared by every caller of this function
    /// in the process. The library never calls it: it survives only for
    /// callers outside the workspace that still share state through it
    /// (see [`Journal::replay_into_memo`]).
    #[must_use]
    pub fn process_global() -> Substrate {
        static GLOBAL: OnceLock<Substrate> = OnceLock::new();
        GLOBAL.get_or_init(Substrate::default).clone()
    }

    /// A fresh substrate sharing nothing with any other: `memo_cap` result
    /// entries (LRU, split over the table's shards) and `forest_cap`
    /// snapshot-forest checkpoints. Executors handed clones of this value
    /// share state with each other and nobody else.
    #[must_use]
    pub fn private(memo_cap: usize, forest_cap: usize) -> Substrate {
        Substrate {
            memo: Arc::new(MemoTable::new(memo_cap)),
            forest: Arc::new(SnapshotForest::new(forest_cap)),
        }
    }

    /// Whether two handles share the same underlying state.
    #[must_use]
    pub fn shares_with(&self, other: &Substrate) -> bool {
        Arc::ptr_eq(&self.memo, &other.memo)
    }
}

/// Seeds `substrate`'s memo table with a replayed journal record, keyed
/// against the resuming campaign's `Arc<Program>`. Safe against fingerprint
/// collisions and stale records alike: the memo lookup compares the full
/// schedule, program identity, and step budget, so a mismatched preload
/// degrades to a miss, never a wrong answer.
pub(crate) fn memo_preload(substrate: &Substrate, job: &ExecJob, output: &ExecOutput) {
    let fp = schedule_fingerprint(&job.schedule, &job.enforce);
    substrate.memo.put(fp, job, output);
}

/// The shared VM pool.
///
/// A worker slot holds only its booted engine, which persists *across*
/// batches (replaced by a fresh boot when a job brings a different
/// program); worker threads do not: each batch spawns scoped threads that lock their slot
/// for the batch's duration, so the executor holds no running threads
/// while idle and is trivially safe to drop.
pub struct Executor {
    config: ExecutorConfig,
    slots: Vec<Mutex<Option<Engine>>>,
    stats: StatCells,
}

impl Executor {
    /// A pool with `vms` workers and the default configuration.
    #[must_use]
    pub fn new(vms: usize) -> Executor {
        Executor::with_config(ExecutorConfig {
            vms,
            ..ExecutorConfig::default()
        })
    }

    /// A pool with explicit sizing. A zero-width pool is degenerate (there
    /// would be no slot to run the serial path on), so `vms` is clamped to
    /// at least 1; callers that want to reject `0` outright (the `report`
    /// CLI) must validate before construction.
    #[must_use]
    pub fn with_config(config: ExecutorConfig) -> Executor {
        let vms = config.vms.max(1);
        Executor {
            config,
            slots: (0..vms).map(|_| Mutex::new(None)).collect(),
            stats: StatCells::default(),
        }
    }

    /// Worker count.
    #[must_use]
    pub fn vms(&self) -> usize {
        self.slots.len()
    }

    /// A snapshot of the pool's counters.
    #[must_use]
    pub fn stats(&self) -> ExecStats {
        self.stats.snapshot()
    }

    /// The OS-thread budget actually used for a batch (see
    /// [`ExecutorConfig::os_threads`]).
    fn os_threads(&self) -> usize {
        self.config
            .os_threads
            .unwrap_or_else(hardware_threads)
            .max(1)
    }

    /// Runs every job; `results[i]` is job `i`'s outcome, in submission
    /// order. Entries are `None` only past a cancellation boundary.
    #[must_use]
    pub fn run_batch(&self, jobs: &[ExecJob], cancel: &CancelToken) -> Vec<Option<ExecOutput>> {
        self.run_until(jobs, cancel, |_| false)
    }

    /// Runs `jobs` in the caller's priority order while reporting results
    /// in canonical order: job `submit[k]` is the `k`-th submitted, and the
    /// returned `results[i]` is job `i`'s outcome. `submit` must hold
    /// distinct indices into `jobs`; jobs it omits never execute and stay
    /// `None`. Cancellation (deadline expiry) truncates the *submission*
    /// sequence — with a gain-sorted `submit`, the unexecuted tail lands on
    /// the lowest-priority jobs, not on whichever happened to be last in
    /// canonical order.
    #[must_use]
    pub fn run_batch_permuted(
        &self,
        jobs: &[ExecJob],
        submit: &[usize],
        cancel: &CancelToken,
    ) -> Vec<Option<ExecOutput>> {
        debug_assert!({
            let mut seen = vec![false; jobs.len()];
            submit
                .iter()
                .all(|&i| !std::mem::replace(&mut seen[i], true))
        });
        let permuted: Vec<ExecJob> = submit.iter().map(|&i| jobs[i].clone()).collect();
        let permuted_results = self.run_batch(&permuted, cancel);
        let mut results: Vec<Option<ExecOutput>> = (0..jobs.len()).map(|_| None).collect();
        for (&i, res) in submit.iter().zip(permuted_results) {
            results[i] = res;
        }
        results
    }

    /// Runs jobs until `stop` accepts one, in *canonical* terms: the
    /// returned vector holds `Some` for a contiguous prefix of submission
    /// indices ending at the first accepted job (all of them executed), and
    /// `None` beyond it. Workers may speculatively execute later jobs;
    /// those results are discarded, so the outcome is identical to a serial
    /// front-to-back scan at any worker count.
    ///
    /// One worker runs every job on the calling thread. A wider pool still
    /// serves the leading jobs the memo table answers there, in order, and
    /// fans out only from the first job it must execute: were answerable
    /// jobs spread over the workers, one could race past the stop index
    /// into a job no run has executed yet, so a resumed campaign, whose
    /// every folded job the journal answers, would pay for speculative
    /// work.
    #[must_use]
    pub fn run_until<F>(
        &self,
        jobs: &[ExecJob],
        cancel: &CancelToken,
        stop: F,
    ) -> Vec<Option<ExecOutput>>
    where
        F: Fn(&ExecOutput) -> bool + Sync,
    {
        let n = jobs.len();
        let workers = self.slots.len().min(n).min(self.os_threads());
        let deposits = deposit_steps(jobs);
        let mut out: Vec<Option<ExecOutput>> = Vec::with_capacity(n);
        let mut done = false;
        {
            let mut slot = self.slots[0].lock().unwrap();
            for job in jobs {
                if cancel.is_cancelled() {
                    done = true;
                    break;
                }
                if workers > 1 && !self.memo_answers(job) {
                    break;
                }
                let res = self.run_job(&mut slot, job, &deposits);
                done = stop(&res);
                out.push(Some(res));
                if done {
                    break;
                }
            }
        }
        if !done && out.len() < n {
            let rest = &jobs[out.len()..];
            out.extend(self.fan_out(rest, workers.min(rest.len()), &deposits, cancel, &stop));
        }
        if out.iter().any(Option::is_some) {
            self.stats.batches.fetch_add(1, Ordering::SeqCst);
        }
        out.resize_with(n, || None);
        out
    }

    /// Whether the memo table holds `job`'s output (never with memo off).
    fn memo_answers(&self, job: &ExecJob) -> bool {
        self.config.memo
            && (self.config.substrate.memo)
                .contains(job, schedule_fingerprint(&job.schedule, &job.enforce))
    }

    /// [`Executor::run_until`]'s parallel scan: `workers` threads claim
    /// `jobs` in canonical order from one shared counter until one is
    /// accepted.
    fn fan_out<F>(
        &self,
        jobs: &[ExecJob],
        workers: usize,
        deposits: &[usize],
        cancel: &CancelToken,
        stop: &F,
    ) -> Vec<Option<ExecOutput>>
    where
        F: Fn(&ExecOutput) -> bool + Sync,
    {
        let n = jobs.len();
        let next = AtomicUsize::new(0);
        let stop_at = AtomicUsize::new(usize::MAX);
        let results: Vec<Mutex<Option<ExecOutput>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for slot in &self.slots[..workers] {
                let (results, next, stop_at) = (&results, &next, &stop_at);
                scope.spawn(move || {
                    let mut slot = slot.lock().unwrap();
                    loop {
                        if cancel.is_cancelled() {
                            return;
                        }
                        // Indices are claimed in ascending order and
                        // `stop_at` only decreases: a worker that claims an
                        // index past the bound leaves every index at or
                        // below the final bound claimed by someone, and a
                        // stale read can only make it execute speculatively.
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= n || i > stop_at.load(Ordering::SeqCst) {
                            return;
                        }
                        let res = self.run_job(&mut slot, &jobs[i], deposits);
                        if stop(&res) {
                            stop_at.fetch_min(i, Ordering::SeqCst);
                        }
                        *results[i].lock().unwrap() = Some(res);
                    }
                });
            }
        });
        // Every claimed index at or below the bound was executed, so the
        // results form a contiguous prefix even under cancellation.
        let cut = stop_at.load(Ordering::SeqCst);
        let results: Vec<Option<ExecOutput>> = results
            .into_iter()
            .map(|m| m.into_inner().unwrap())
            .collect();
        let discarded = results
            .iter()
            .skip(cut.saturating_add(1))
            .flatten()
            .filter(|o| !o.memo_hit)
            .count();
        self.stats
            .discarded_runs
            .fetch_add(discarded as u64, Ordering::SeqCst);
        results
            .into_iter()
            .enumerate()
            .map(|(i, res)| res.filter(|_| i <= cut))
            .collect()
    }

    /// Runs one job: answers it from the memo table when it holds the
    /// job's output, and otherwise executes it on the worker's engine,
    /// memoizes the output and appends it to the journal. `deposits` are
    /// the batch's deposit steps ([`deposit_steps`]).
    fn run_job(&self, slot: &mut Option<Engine>, job: &ExecJob, deposits: &[usize]) -> ExecOutput {
        let memo = self
            .config
            .memo
            .then(|| self.config.substrate.memo.as_ref());
        let fp = schedule_fingerprint(&job.schedule, &job.enforce);
        if let Some(memo) = memo {
            if let Some(mut out) = memo.get(job, fp) {
                self.stats.memo_hits.fetch_add(1, Ordering::SeqCst);
                out.memo_hit = true;
                // A hit is journaled too (deduplicated inside): the table
                // may have been seeded by an executor without a journal,
                // and a resume must not re-pay for it.
                if let Some(journal) = &self.config.journal {
                    journal.append(job, &out);
                }
                return out;
            }
            self.stats.memo_misses.fetch_add(1, Ordering::SeqCst);
        }
        let forest = self
            .config
            .memo
            .then(|| self.config.substrate.forest.as_ref());
        let hint = job
            .shared_steps
            .map(|shared| PrefixHint { shared, deposits });
        let out = execute(slot, job, forest, hint, &self.stats);
        if let Some(memo) = memo {
            memo.put(fp, job, &out);
        }
        if let Some(journal) = &self.config.journal {
            journal.append(job, &out);
        }
        out
    }
}

/// OS threads available to the process (cgroup-quota aware). By default the
/// pool never spawns more threads than this: `vms` is the *semantic* pool
/// width (it sizes the slots and the simulated cost model), while the OS
/// thread count is an implementation detail that cannot change any result —
/// oversubscribing a small host would only add context-switch overhead for
/// bit-identical output.
fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The deposit steps of a batch: every hinted job's shared step, ascending
/// and deduplicated, without 0 (a checkpoint there would skip nothing).
fn deposit_steps(jobs: &[ExecJob]) -> Vec<usize> {
    let mut steps: Vec<usize> = jobs
        .iter()
        .filter_map(|j| j.shared_steps)
        .filter(|&s| s > 0)
        .collect();
    steps.sort_unstable();
    steps.dedup();
    steps
}

/// Executes one job on a worker's persistent VM, booting a new engine when
/// the job's program differs from the VM's.
fn execute(
    slot: &mut Option<Engine>,
    job: &ExecJob,
    forest: Option<&SnapshotForest>,
    hint: Option<PrefixHint<'_>>,
    stats: &StatCells,
) -> ExecOutput {
    let engine = match slot {
        Some(engine) if Arc::ptr_eq(engine.program(), &job.program) => engine,
        _ => slot.insert(Engine::new(Arc::clone(&job.program))),
    };
    let started = Instant::now();
    let (run, start) = run_cached(engine, &job.schedule, &job.enforce, forest, hint);
    let busy = started.elapsed();
    let count = |n: usize| u64::try_from(n).unwrap_or(u64::MAX);
    let skipped = match start {
        Start::Restored { steps } => steps,
        Start::Unconsulted | Start::Booted => 0,
    };
    stats.runs.fetch_add(1, Ordering::SeqCst);
    stats
        .steps_executed
        .fetch_add(count(run.steps), Ordering::SeqCst);
    stats
        .steps_interpreted
        .fetch_add(count(run.steps - skipped), Ordering::SeqCst);
    stats.busy_ns.fetch_add(
        u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX),
        Ordering::SeqCst,
    );
    let lookup = match start {
        Start::Restored { .. } => Some(&stats.snapshot_hits),
        Start::Booted => Some(&stats.snapshot_misses),
        Start::Unconsulted => None,
    };
    if let Some(counter) = lookup {
        counter.fetch_add(1, Ordering::SeqCst);
    }
    let sel_of = engine
        .threads()
        .iter()
        .map(|t| {
            (
                t.id,
                ThreadSel {
                    prog: t.prog,
                    occurrence: t.occurrence,
                },
            )
        })
        .collect();
    let outcome = run.outcome();
    ExecOutput {
        run,
        sel_of,
        outcome,
        memo_hit: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{
        Anchor,
        SchedPoint, //
    };
    use ksim::{
        builder::ProgramBuilder,
        FailureKind,
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

    /// A pool that really spawns `vms` OS threads, even on a host with
    /// fewer cores — the concurrent path must stay tested everywhere.
    fn threaded_pool(vms: usize) -> Executor {
        Executor::with_config(ExecutorConfig {
            vms,
            os_threads: Some(vms),
            ..ExecutorConfig::default()
        })
    }

    /// The failing fig1 interleaving plus the two benign serial orders.
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
            Schedule::serial(vec![sel(0), sel(1)]),
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

    fn digest(out: &[Option<ExecOutput>]) -> Vec<Option<(Option<FailureKind>, usize)>> {
        out.iter()
            .map(|o| {
                o.as_ref()
                    .map(|o| (o.run.failure.as_ref().map(|f| f.kind), o.run.steps))
            })
            .collect()
    }

    type FullDigest = Vec<Option<(Vec<ksim::StepRecord>, Option<FailureKind>, usize)>>;

    /// Full observable content of a batch result, trace included.
    fn full_digest(out: &[Option<ExecOutput>]) -> FullDigest {
        out.iter()
            .map(|o| {
                o.as_ref().map(|o| {
                    (
                        o.run.trace.to_vec(),
                        o.run.failure.as_ref().map(|f| f.kind),
                        o.run.steps,
                    )
                })
            })
            .collect()
    }

    #[test]
    fn worker_counts_are_bit_identical() {
        // The serial path (one worker, memo off) must match every worker
        // count's batch, trace for trace.
        let program = fig1_program();
        let jobs = fig1_jobs(&program);
        let reference = Executor::with_config(ExecutorConfig {
            vms: 1,
            memo: false,
            ..ExecutorConfig::default()
        })
        .run_batch(&jobs, &CancelToken::new());
        assert!(reference.iter().all(Option::is_some));
        for vms in [1, 2, 8] {
            let got = Executor::with_config(ExecutorConfig {
                vms,
                os_threads: Some(vms),
                memo: false,
                ..ExecutorConfig::default()
            })
            .run_batch(&jobs, &CancelToken::new());
            assert_eq!(full_digest(&reference), full_digest(&got), "vms={vms}");
        }
    }

    #[test]
    fn worker_counts_agree_with_memo_on_and_off() {
        // The memo serves full records, so it may not perturb the
        // worker-count identity.
        let program = fig1_program();
        let jobs = fig1_jobs(&program);
        for memo in [false, true] {
            let mut digests = Vec::new();
            for vms in [1, 2, 8] {
                let out = Executor::with_config(ExecutorConfig {
                    vms,
                    os_threads: Some(vms),
                    memo,
                    ..ExecutorConfig::default()
                })
                .run_batch(&jobs, &CancelToken::new());
                digests.push((vms, full_digest(&out)));
            }
            for (vms, d) in &digests[1..] {
                assert_eq!(&digests[0].1, d, "memo={memo} vms={vms}");
            }
        }
    }

    #[test]
    fn run_until_early_stop_is_worker_count_invariant() {
        // The canonical stop bound must cut the same prefix whichever
        // worker claimed the accepted index.
        let program = fig1_program();
        let jobs = fig1_jobs(&program);
        let stop = |o: &ExecOutput| o.run.failure.is_some();
        for vms in [1, 2, 8] {
            let out = Executor::with_config(ExecutorConfig {
                vms,
                os_threads: Some(vms),
                memo: false,
                ..ExecutorConfig::default()
            })
            .run_until(&jobs, &CancelToken::new(), stop);
            assert!(out[2].as_ref().is_some_and(|o| o.run.failure.is_some()));
            assert!(out[3].is_none(), "vms={vms}");
        }
    }

    #[test]
    fn throughput_counters_accumulate() {
        let program = fig1_program();
        let jobs = fig1_jobs(&program);
        let exec = Executor::with_config(ExecutorConfig {
            vms: 1,
            memo: false,
            ..ExecutorConfig::default()
        });
        let out = exec.run_batch(&jobs, &CancelToken::new());
        let total_steps: usize = out.iter().flatten().map(|o| o.run.steps).sum();
        let stats = exec.stats();
        assert_eq!(stats.steps_executed, total_steps as u64);
        assert!(stats.busy_ns > 0);
        assert!(stats.schedules_per_sec() > 0.0);
        assert!(stats.instrs_per_sec() > 0.0);
    }

    #[test]
    fn batch_results_are_identical_across_worker_counts() {
        let program = fig1_program();
        let jobs = fig1_jobs(&program);
        let baseline = Executor::new(1).run_batch(&jobs, &CancelToken::new());
        for vms in [2, 4, 8] {
            let got = threaded_pool(vms).run_batch(&jobs, &CancelToken::new());
            assert_eq!(digest(&baseline), digest(&got), "vms={vms}");
        }
        assert!(baseline.iter().all(Option::is_some));
    }

    #[test]
    fn run_until_stops_at_first_match_in_submission_order() {
        let program = fig1_program();
        let jobs = fig1_jobs(&program);
        for vms in [1, 2, 8] {
            let out = threaded_pool(vms)
                .run_until(&jobs, &CancelToken::new(), |o| o.run.failure.is_some());
            // Jobs 0–2 executed (2 is the first failing one), job 3 cut off.
            assert!(out[0].as_ref().is_some_and(|o| o.run.failure.is_none()));
            assert!(out[1].as_ref().is_some_and(|o| o.run.failure.is_none()));
            assert!(out[2].as_ref().is_some_and(|o| o.run.failure.is_some()));
            assert!(out[3].is_none(), "vms={vms}");
        }
    }

    #[test]
    fn cancelled_token_stops_at_schedule_boundary() {
        let program = fig1_program();
        let jobs = fig1_jobs(&program);
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = threaded_pool(4).run_batch(&jobs, &cancel);
        assert!(out.iter().all(Option::is_none));
    }

    #[test]
    fn workers_reuse_engines_across_batches() {
        let program = fig1_program();
        let jobs = fig1_jobs(&program);
        let exec = threaded_pool(2);
        let first = exec.run_batch(&jobs, &CancelToken::new());
        let second = exec.run_batch(&jobs, &CancelToken::new());
        assert_eq!(digest(&first), digest(&second));
    }

    #[test]
    fn zero_width_pool_is_clamped_to_one_slot() {
        let exec = Executor::new(0);
        assert_eq!(exec.vms(), 1);
        let program = fig1_program();
        let out = exec.run_batch(&fig1_jobs(&program), &CancelToken::new());
        assert!(out.iter().all(Option::is_some));
    }

    #[test]
    fn stats_track_runs_and_snapshot_lookups() {
        let program = fig1_program();
        let jobs = fig1_jobs(&program);
        let exec = threaded_pool(1);
        let _ = exec.run_batch(&jobs, &CancelToken::new());
        let stats = exec.stats();
        // Jobs 0 and 3 share a schedule: the second occurrence is a memo
        // hit and executes nothing — `runs` counts actual VM executions.
        assert_eq!(stats.runs, jobs.len() as u64 - 1);
        assert_eq!(stats.memo_hits, 1);
        assert_eq!(stats.memo_misses, jobs.len() as u64 - 1);
        // Only the failing job has scheduling points to look up, and the
        // fresh substrate holds no checkpoint for it yet.
        assert_eq!((stats.snapshot_hits, stats.snapshot_misses), (0, 1));
    }

    #[test]
    fn a_batch_the_memo_answers_to_its_stop_index_executes_nothing() {
        // Seven passing jobs and the failing one at index 7 are memoized;
        // the eight after it never ran. Spread over eight workers, worker 0
        // would answer job 0 and claim job 8 before worker 7 had answered
        // the stop at job 7: a resumed campaign would pay for speculative
        // runs its first run never made.
        let program = fig1_program();
        let jobs = fig1_jobs(&program);
        let with_budget = |step_budget| ExecJob {
            enforce: EnforceConfig { step_budget },
            ..jobs[0].clone()
        };
        let batch: Vec<ExecJob> = (1000..1007)
            .map(with_budget)
            .chain([jobs[2].clone()])
            .chain((2000..2008).map(with_budget))
            .collect();
        let substrate = Substrate::default();
        let stop = |o: &ExecOutput| o.run.failure.is_some();
        let pool = |vms| {
            Executor::with_config(ExecutorConfig {
                vms,
                os_threads: Some(vms),
                substrate: substrate.clone(),
                ..ExecutorConfig::default()
            })
        };
        let _ = pool(1).run_until(&batch[..8], &CancelToken::new(), stop);
        let resumed = pool(8);
        let out = resumed.run_until(&batch, &CancelToken::new(), stop);
        assert!(out[7].as_ref().is_some_and(|o| o.run.failure.is_some()));
        assert!(out[8..].iter().all(Option::is_none));
        assert_eq!(resumed.stats().runs, 0);
    }

    #[test]
    fn restoring_another_executors_prefix_counts_as_a_snapshot_hit() {
        let program = fig1_program();
        let failing = fig1_jobs(&program).swap_remove(2);
        // Same point prefix, different fallback: a memo miss that can
        // still resume from the failing run's checkpoint.
        let sibling = ExecJob {
            schedule: Schedule {
                fallback: vec![sel(0), sel(1)],
                ..failing.schedule.clone()
            },
            ..failing.clone()
        };
        let substrate = Substrate::default();
        let pool = || {
            Executor::with_config(ExecutorConfig {
                vms: 1,
                substrate: substrate.clone(),
                ..ExecutorConfig::default()
            })
        };
        let first = pool();
        let _ = first.run_batch(&[failing], &CancelToken::new());
        let stats = first.stats();
        assert_eq!((stats.snapshot_hits, stats.snapshot_misses), (0, 1));
        let second = pool();
        let _ = second.run_batch(&[sibling], &CancelToken::new());
        let stats = second.stats();
        assert_eq!((stats.memo_hits, stats.runs), (0, 1));
        assert_eq!((stats.snapshot_hits, stats.snapshot_misses), (1, 0));
    }

    /// Job `i` preempts A before its step `i` in favour of B, so the jobs
    /// share A's first steps and say so in their hints. With the memo on,
    /// the first job deposits a checkpoint at each other job's shared step
    /// and they resume there: fewer steps interpreted than counted.
    #[test]
    fn hinted_batches_interpret_only_the_steps_they_do_not_share() {
        let mut p = ProgramBuilder::new("shared-prefix");
        let x = p.global("x", 0);
        for (name, steps) in [("A", 6), ("B", 2)] {
            let mut t = p.syscall_thread(name, "bump");
            for _ in 0..steps {
                t.fetch_add_global(x, 1u64);
            }
            t.ret();
        }
        let program = Arc::new(p.build().unwrap());
        let jobs: Vec<ExecJob> = (1..=5)
            .rev()
            .map(|i| ExecJob {
                program: Arc::clone(&program),
                schedule: Schedule {
                    start: Some(sel(0)),
                    points: vec![SchedPoint {
                        thread: sel(0),
                        at: InstrAddr {
                            prog: ThreadProgId(0),
                            index: i,
                        },
                        nth: 0,
                        when: Anchor::Before,
                        switch_to: sel(1),
                    }],
                    fallback: vec![sel(1), sel(0)],
                    segments: vec![sel(0), sel(1), sel(0)],
                },
                enforce: EnforceConfig::default(),
                shared_steps: Some(i),
            })
            .collect();
        let batch = |memo| {
            let exec = Executor::with_config(ExecutorConfig {
                vms: 1,
                memo,
                ..ExecutorConfig::default()
            });
            let out = exec.run_batch(&jobs, &CancelToken::new());
            (out, exec.stats())
        };
        let (on, on_stats) = batch(true);
        let (off, off_stats) = batch(false);
        assert_eq!(off_stats.steps_interpreted, off_stats.steps_executed);
        assert_eq!(on_stats.steps_executed, off_stats.steps_executed);
        // Jobs 4, 3, 2 and 1 resume at their shared steps.
        assert_eq!(
            on_stats.steps_executed - on_stats.steps_interpreted,
            4 + 3 + 2 + 1
        );
        assert_eq!((on_stats.snapshot_hits, on_stats.snapshot_misses), (4, 1));
        for (a, b) in on.iter().flatten().zip(off.iter().flatten()) {
            assert_eq!(a.run, b.run);
            assert_eq!(a.sel_of, b.sel_of);
            assert_eq!(a.outcome, b.outcome);
        }
    }

    #[test]
    fn memo_hits_return_bit_identical_outputs_at_zero_runs() {
        let program = fig1_program();
        let jobs = fig1_jobs(&program);
        // Baseline with the memo disabled: every job pays execution.
        let off = Executor::with_config(ExecutorConfig {
            vms: 1,
            memo: false,
            ..ExecutorConfig::default()
        });
        let base = off.run_batch(&jobs, &CancelToken::new());
        let stats = off.stats();
        assert_eq!(stats.runs, jobs.len() as u64);
        assert_eq!(stats.memo_hits + stats.memo_misses, 0);
        // Memo off reuses nothing: not even a checkpoint is looked up.
        assert_eq!(stats.snapshot_hits + stats.snapshot_misses, 0);

        // Memo on: a second batch over the same jobs executes nothing.
        let on = threaded_pool(1);
        let first = on.run_batch(&jobs, &CancelToken::new());
        let runs_after_first = on.stats().runs;
        let second = on.run_batch(&jobs, &CancelToken::new());
        assert_eq!(on.stats().runs, runs_after_first, "all memo hits");
        assert_eq!(on.stats().memo_hits, jobs.len() as u64 + 1);
        for out in [&first, &second] {
            assert_eq!(digest(&base), digest(out));
        }
        for (b, s) in base.iter().flatten().zip(second.iter().flatten()) {
            assert!(s.memo_hit);
            assert_eq!(s.outcome, b.outcome);
            assert_eq!(s.run.trace.len(), b.run.trace.len());
            assert_eq!(s.run.triggered, b.run.triggered);
            assert_eq!(s.sel_of, b.sel_of);
        }
    }

    #[test]
    fn memo_hits_carry_the_full_step_records_for_pruning_knowledge() {
        // LIFS derives its DPOR pruning state (footprints, conflict index,
        // solo traces) from the step records of every consumed output. A
        // memo hit must therefore carry the *complete* records — accesses,
        // lock events, held locks, spawns — not a summary, or pruning
        // would diverge between memo-on and memo-off searches.
        let program = fig1_program();
        let jobs = fig1_jobs(&program);
        let off = Executor::with_config(ExecutorConfig {
            vms: 1,
            memo: false,
            ..ExecutorConfig::default()
        });
        let base = off.run_batch(&jobs, &CancelToken::new());
        let on = threaded_pool(1);
        let _ = on.run_batch(&jobs, &CancelToken::new());
        let second = on.run_batch(&jobs, &CancelToken::new());
        for (b, s) in base.iter().flatten().zip(second.iter().flatten()) {
            assert!(s.memo_hit);
            for (br, sr) in b.run.trace.iter().zip(&s.run.trace) {
                assert_eq!(br.at(), sr.at());
                assert_eq!(br.tid(), sr.tid());
                assert_eq!(br.accesses(), sr.accesses());
                assert_eq!(br.lock_event(), sr.lock_event());
                assert_eq!(br.locks_held(), sr.locks_held());
                assert_eq!(br.spawned(), sr.spawned());
            }
            assert_eq!(b.run.trace.len(), s.run.trace.len());
            assert_eq!(b.run.threads, s.run.threads);
        }
    }

    #[test]
    fn memo_misses_across_distinct_programs() {
        // Structurally identical programs in distinct allocations never
        // share memo entries (identity keying).
        let jobs_a = fig1_jobs(&fig1_program());
        let jobs_b = fig1_jobs(&fig1_program());
        let exec = threaded_pool(1);
        let _ = exec.run_batch(&jobs_a, &CancelToken::new());
        let hits_a = exec.stats().memo_hits;
        let _ = exec.run_batch(&jobs_b, &CancelToken::new());
        // Only the intra-batch duplicate (jobs 0/3) hit for program B.
        assert_eq!(exec.stats().memo_hits, hits_a + 1);
    }

    #[test]
    fn timed_out_jobs_are_memoized_like_any_output() {
        let program = fig1_program();
        // A one-step budget times out every schedule.
        let jobs: Vec<ExecJob> = fig1_jobs(&program)
            .into_iter()
            .map(|j| ExecJob {
                enforce: EnforceConfig { step_budget: 1 },
                ..j
            })
            .collect();
        let exec = threaded_pool(1);
        let first = exec.run_batch(&jobs, &CancelToken::new());
        assert!(first
            .iter()
            .flatten()
            .all(|o| o.outcome == RunOutcome::Timeout));
        // Jobs 0 and 3 share a schedule: the second is already a hit.
        let runs = exec.stats().runs;
        assert_eq!(runs, jobs.len() as u64 - 1);
        let second = exec.run_batch(&jobs, &CancelToken::new());
        let stats = exec.stats();
        assert_eq!(stats.runs, runs, "the second batch executes nothing");
        assert_eq!(stats.memo_hits, 1 + jobs.len() as u64);
        for (a, b) in first.iter().flatten().zip(second.iter().flatten()) {
            assert!(b.memo_hit);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.run, b.run);
            assert_eq!(a.sel_of, b.sel_of);
        }
    }

    #[test]
    fn a_deadline_past_instants_range_never_fires() {
        // `Instant + Duration` panics past the clock's range; such a
        // deadline is as good as none, and so is one that is not a
        // duration at all.
        for wall_s in [1e20, f64::MAX, f64::NAN, -1.0] {
            let token = CancelToken::new().with_deadline_s(wall_s);
            assert!(!token.is_cancelled(), "{wall_s} s");
            assert!(!token.deadline_fired(), "{wall_s} s");
        }
        // An expired deadline fires on its first observation, and every
        // clone and every token sharing it reads it fired and cancelled.
        let token = CancelToken::new().with_deadline_s(0.0);
        let clone = token.clone();
        let sharer = CancelToken {
            expiry: token.expiry.clone(),
            ..CancelToken::new()
        };
        assert!(!sharer.deadline_fired(), "nobody observed it yet");
        assert!(token.is_cancelled(), "an expired deadline still fires");
        for t in [&token, &clone, &sharer] {
            assert!(t.deadline_fired());
            assert!(t.is_cancelled());
        }
    }

    #[test]
    fn memo_shard_entries_stay_bounded_under_fingerprint_churn() {
        let program = fig1_program();
        // One real output to cache (content is irrelevant to
        // the occupancy invariant; only the keys matter).
        let pool = threaded_pool(1);
        let jobs = fig1_jobs(&program);
        let out = pool.run_batch(&jobs, &CancelToken::new());
        let sample = out[0].clone().expect("serial run completes");

        let table = MemoTable::new(8); // shard_cap = 1
        for budget in 1..=1000usize {
            // Distinct step budgets give distinct fingerprints: pure churn.
            let job = ExecJob {
                program: Arc::clone(&program),
                schedule: jobs[0].schedule.clone(),
                enforce: EnforceConfig {
                    step_budget: budget,
                },
                shared_steps: None,
            };
            let fp = schedule_fingerprint(&job.schedule, &job.enforce);
            table.put(fp, &job, &sample);
        }
        for shard in &table.shards {
            let (buckets, entries, recency) = shard.lock().unwrap().diag();
            assert!(
                entries <= table.shard_cap,
                "shard overflows its LRU capacity: {entries} > {}",
                table.shard_cap
            );
            assert!(
                buckets <= entries,
                "evicted fingerprints left {buckets} bucket keys for \
                 {entries} live entries"
            );
            assert_eq!(recency, entries, "recency index out of sync");
        }
    }

    #[test]
    fn zero_capacity_memo_is_inert_on_get_and_put() {
        let program = fig1_program();
        let jobs = fig1_jobs(&program);
        let pool = threaded_pool(1);
        let out = pool.run_batch(&jobs, &CancelToken::new());
        let sample = out[0].clone().expect("serial run completes");

        let table = MemoTable::new(0);
        let fp = schedule_fingerprint(&jobs[0].schedule, &jobs[0].enforce);
        table.put(fp, &jobs[0], &sample);
        assert!(table.get(&jobs[0], fp).is_none());
        for shard in &table.shards {
            assert_eq!(shard.lock().unwrap().diag(), (0, 0, 0));
        }
    }
}
