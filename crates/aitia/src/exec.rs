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
//! Cancellation is checked at schedule boundaries (job claim time): an
//! in-flight search stops submitting work but completed results still form
//! a contiguous prefix that callers can fold deterministically.

use crate::{
    enforce::{
        run_cached,
        schedule_fingerprint,
        EnforceConfig,
        RunOutcome,
        RunResult,
        SnapshotForest, //
    },
    journal::Journal,
    schedule::{
        Schedule,
        ThreadSel, //
    },
    simtime::CostModel,
};
use ksim::{
    Engine,
    Program,
    ThreadId, //
};
use std::{
    collections::{
        BTreeMap,
        HashMap, //
    },
    hash::{
        Hash,
        Hasher, //
    },
    sync::{
        atomic::{
            AtomicBool,
            AtomicU64,
            AtomicUsize,
            Ordering, //
        },
        Arc,
        Mutex,
        OnceLock,
        Weak, //
    },
    time::Instant,
};

/// A cooperative cancellation flag, checked at schedule boundaries.
///
/// Clones share the one flag: cancelling any clone cancels them all, which
/// is how a deadline reaches the searches and flip batches running on its
/// campaign's pool.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    #[must_use]
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation (of this token and every clone of it).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether this token (through any clone) has been cancelled.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// A wall-clock and/or simulated-time budget for a whole campaign, checked
/// by every executor claim loop at schedule boundaries (DESIGN.md §7).
///
/// When either budget runs out the deadline *fires* exactly once: it marks
/// itself fired and cancels every subscribed [`CancelToken`] (the
/// campaign's LIFS and causality tokens). In-flight batches then stop
/// claiming work, so consumers fold a contiguous best-so-far prefix and
/// degrade gracefully instead of being killed mid-result: LIFS returns its
/// frontier, Causality Analysis marks un-flipped races
/// [`crate::causality::Verdict::Unverified`].
///
/// The simulated budget is spent by executed runs only (memo hits are free,
/// exactly like [`ExecStats`] cost accounting): each run charges its
/// [`CostModel::serial_run_s`] divided by the model's VM count, each fault
/// retry charges the model's backoff, so the simulated clock advances the
/// way the reported campaign seconds do.
#[derive(Debug)]
pub struct DeadlineBudget {
    /// Wall-clock expiry instant, when a wall deadline was configured.
    wall: Option<Instant>,
    /// Simulated-seconds budget, in microseconds, when configured.
    sim_budget_us: Option<u64>,
    /// Cost model translating executed runs into simulated seconds.
    model: CostModel,
    /// Simulated microseconds spent so far.
    sim_spent_us: AtomicU64,
    /// Whether the deadline has fired.
    fired: AtomicBool,
    /// Tokens cancelled when the deadline fires, held weakly: a budget
    /// outliving its campaigns (or subscribed to repeatedly) must not pin
    /// dead tokens forever, so dropped subscribers are pruned on
    /// [`DeadlineBudget::subscribe`] and [`DeadlineBudget::check`].
    subscribers: Mutex<Vec<Weak<AtomicBool>>>,
}

impl DeadlineBudget {
    /// A budget expiring after `wall_s` wall-clock seconds and/or `sim_s`
    /// simulated seconds (under `model`), whichever comes first. With both
    /// `None` the budget never fires.
    #[must_use]
    pub fn new(wall_s: Option<f64>, sim_s: Option<f64>, model: CostModel) -> DeadlineBudget {
        let wall = wall_s
            .filter(|s| s.is_finite() && *s >= 0.0)
            .map(|s| Instant::now() + std::time::Duration::from_secs_f64(s));
        let sim_budget_us = sim_s
            .filter(|s| s.is_finite() && *s >= 0.0)
            .map(|s| (s * 1e6) as u64);
        DeadlineBudget {
            wall,
            sim_budget_us,
            model,
            sim_spent_us: AtomicU64::new(0),
            fired: AtomicBool::new(false),
            subscribers: Mutex::new(Vec::new()),
        }
    }

    /// Registers a token to be cancelled when the deadline fires. The
    /// registration is weak: once every clone of the token is dropped its
    /// slot is reclaimed, so subscriber count is bounded by *live* tokens,
    /// not by subscription history.
    pub fn subscribe(&self, token: &CancelToken) {
        let mut subs = self.subscribers.lock().unwrap();
        subs.retain(|w| w.strong_count() > 0);
        subs.push(Arc::downgrade(&token.flag));
    }

    /// Live subscriber count (dead weak registrations excluded). Exposed so
    /// long-running processes can assert the subscriber list stays bounded.
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        self.subscribers
            .lock()
            .unwrap()
            .iter()
            .filter(|w| w.strong_count() > 0)
            .count()
    }

    /// Whether the deadline has fired.
    #[must_use]
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    /// Simulated seconds spent against the budget so far.
    #[must_use]
    pub fn sim_spent_s(&self) -> f64 {
        self.sim_spent_us.load(Ordering::SeqCst) as f64 / 1e6
    }

    /// Evaluates both budgets, firing the deadline if either has run out.
    /// Returns whether the deadline has fired (now or earlier).
    pub fn check(&self) -> bool {
        if self.fired() {
            return true;
        }
        // Opportunistic pruning keeps the weak list bounded even on budgets
        // that never fire; try_lock so claim loops never convoy here.
        if let Ok(mut subs) = self.subscribers.try_lock() {
            subs.retain(|w| w.strong_count() > 0);
        }
        let wall_hit = self.wall.is_some_and(|w| Instant::now() >= w);
        let sim_hit = self
            .sim_budget_us
            .is_some_and(|b| self.sim_spent_us.load(Ordering::SeqCst) >= b);
        if wall_hit || sim_hit {
            self.fire(if wall_hit {
                "wall-clock"
            } else {
                "simulated-time"
            });
            return true;
        }
        false
    }

    /// Fires exactly once: marks the budget expired and cancels subscribers.
    /// The subscriber list is snapshotted before any `cancel` runs: cancel
    /// observers may re-enter the budget (subscribe a cleanup token, query
    /// counts), which would deadlock against a lock held across the loop.
    fn fire(&self, which: &str) {
        if self.fired.swap(true, Ordering::SeqCst) {
            return;
        }
        let live: Vec<Arc<AtomicBool>> = {
            let subs = self.subscribers.lock().unwrap();
            subs.iter().filter_map(Weak::upgrade).collect()
        };
        for flag in live {
            flag.store(true, Ordering::SeqCst);
        }
        eprintln!(
            "aitia-exec: {which} deadline fired after {:.1} simulated seconds; \
             degrading to best-so-far results",
            self.sim_spent_s()
        );
    }

    /// Charges one executed run's simulated cost.
    pub(crate) fn charge_run(&self, steps: usize, failed: bool) {
        let serial = self.model.serial_run_s(steps, failed);
        self.charge_s(serial / f64::from(self.model.vms.max(1)));
    }

    /// Charges one fault retry's backoff.
    pub(crate) fn charge_retry(&self) {
        self.charge_s(self.model.retry_backoff_s / f64::from(self.model.vms.max(1)));
    }

    fn charge_s(&self, seconds: f64) {
        let us = (seconds * 1e6) as u64;
        self.sim_spent_us.fetch_add(us, Ordering::SeqCst);
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
}

/// The observable outcome of one job.
#[derive(Clone, Debug)]
pub struct ExecOutput {
    /// The enforced run, exactly as [`crate::enforce::run`] on a fresh
    /// engine would report it. For a job that exhausted its retry budget
    /// (`vm_faulted` is `Some`), this is an empty placeholder — no trace,
    /// no failure — that must not be read as a passing run; check
    /// `outcome` first.
    pub run: RunResult,
    /// Stable selector of every runtime thread the run spawned.
    pub sel_of: HashMap<ThreadId, ThreadSel>,
    /// Classification of the run, including the exec-layer-only
    /// [`RunOutcome::Crashed`].
    pub outcome: RunOutcome,
    /// How many times the job was retried after an injected VM fault
    /// before this result was produced. Deterministic: fault decisions
    /// depend only on the job's content and the attempt number.
    pub retries: u32,
    /// `Some` when every attempt (initial + `max_retries` retries)
    /// faulted and the executor gave up on the job; `run` is then a
    /// placeholder and `outcome` is [`RunOutcome::Crashed`] or
    /// [`RunOutcome::Timeout`].
    pub vm_faulted: Option<FaultKind>,
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

/// The kind of a (simulated) VM fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The guest died under the run (panic outside the enforced scenario,
    /// QEMU crash). The worker's engine is lost.
    Crash,
    /// The guest stopped responding (hypervisor watchdog fired). The run
    /// is abandoned and the VM restarted; the attempt reads as a timeout.
    Hang,
}

/// Deterministic, seed-driven VM-fault injection (DESIGN.md §5).
///
/// Real AITIA deployments lose VMs routinely: enforced schedules hang the
/// guest, crash it outright, or wedge QEMU. The simulator has no real
/// flakiness, so the retry machinery is exercised by *injecting*
/// faults instead — at a configurable rate, decided by a hash of the
/// **job's content and the attempt number only**. Worker identity, batch
/// position, and wall-clock never enter the decision, so whether a given
/// job faults (and on which attempt it recovers) is identical at any
/// worker count — the canonical-prefix determinism guarantee survives
/// fault injection unchanged.
#[derive(Clone, Copy, Debug)]
pub struct FaultInjection {
    /// Seed mixed into every fault decision.
    pub seed: u64,
    /// Fault probability per attempt, in permille (0 disables, 1000 faults
    /// every attempt).
    pub rate_permille: u32,
    /// Retries granted per job after its first faulted attempt. When the
    /// budget is exhausted the job publishes a placeholder output with
    /// [`ExecOutput::vm_faulted`] set.
    pub max_retries: u32,
}

impl Default for FaultInjection {
    fn default() -> Self {
        FaultInjection {
            seed: 0,
            rate_permille: 0,
            max_retries: 3,
        }
    }
}

impl FaultInjection {
    /// Decides whether attempt `attempt` of `job` faults, and if so how
    /// (kind) and where (the index of the schedule point the VM dies at —
    /// purely cosmetic in the simulator, but logged).
    ///
    /// Pure over `(self, job content, attempt)`: never consults worker
    /// identity, batch index, pointers, or time.
    #[must_use]
    pub fn decide(&self, job: &ExecJob, attempt: u32) -> Option<(FaultKind, usize)> {
        if self.rate_permille == 0 {
            return None;
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.seed.hash(&mut h);
        attempt.hash(&mut h);
        job.enforce.step_budget.hash(&mut h);
        match job.schedule.start {
            Some(s) => (1u8, s).hash(&mut h),
            None => 0u8.hash(&mut h),
        }
        for p in &job.schedule.points {
            p.thread.hash(&mut h);
            (p.at.prog.0, p.at.index).hash(&mut h);
            p.nth.hash(&mut h);
            u8::from(p.when == crate::schedule::Anchor::After).hash(&mut h);
            p.switch_to.hash(&mut h);
        }
        job.schedule.fallback.hash(&mut h);
        job.schedule.segments.hash(&mut h);
        let v = h.finish();
        if v % 1000 >= u64::from(self.rate_permille.min(1000)) {
            return None;
        }
        let kind = if (v >> 10) & 1 == 0 {
            FaultKind::Crash
        } else {
            FaultKind::Hang
        };
        let k = ((v >> 11) as usize) % (job.schedule.points.len() + 1);
        Some((kind, k))
    }
}

/// A snapshot of the pool's robustness counters (surfaced via `report`).
///
/// At one worker every count is deterministic (fault decisions are
/// content-keyed). A wider pool may also run jobs past a batch's early
/// stop whose results are then discarded: `runs`, `retries`, the fault
/// counts, `steps_executed` and `busy_ns` include that speculative work,
/// `discarded_runs` counts the runs it made, and the snapshot and memo
/// counters further depend on which worker claimed which job. All of them
/// are diagnostics, never folded into results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Enforced runs actually executed (faulted attempts execute nothing).
    pub runs: u64,
    /// Of `runs`, those executed past a batch's early stop whose results
    /// the fold then discarded: speculative work of a pool of two or more
    /// workers, never zero-cost and never seen by a consumer. `runs -
    /// discarded_runs` is the executions the folded results hold. Counted
    /// by the calling thread once the batch's workers have joined.
    pub discarded_runs: u64,
    /// Attempts re-run after an injected fault.
    pub retries: u64,
    /// Injected faults of kind [`FaultKind::Crash`].
    pub crash_faults: u64,
    /// Injected faults of kind [`FaultKind::Hang`].
    pub hang_faults: u64,
    /// Jobs that faulted on every attempt and published a placeholder.
    pub gave_up: u64,
    /// Worker VMs discarded and restarted after a fault.
    pub vm_restarts: u64,
    /// Executed runs that resumed from a prefix checkpoint in the
    /// substrate's snapshot forest — deposited by any worker of any
    /// executor sharing the substrate.
    pub snapshot_hits: u64,
    /// Executed runs that looked a prefix up in the forest, found none and
    /// booted fresh. Runs that never look one up (memo off, schedules
    /// without points or with a segment sequence) count in neither.
    pub snapshot_misses: u64,
    /// Jobs served from the substrate's result memo table without any VM
    /// execution. Worker-count *dependent* (two fingerprint-equal jobs in
    /// flight race to insert first), like the snapshot counters — a
    /// diagnostic, never folded into results.
    pub memo_hits: u64,
    /// Jobs that consulted the memo table and executed (fingerprint not
    /// yet seen).
    pub memo_misses: u64,
    /// Executed runs whose outcome was inconclusive (timeout / crash) and
    /// were therefore *excluded* from the memo table — the fault-exclusion
    /// rule: an inconclusive result proves nothing and must not shadow a
    /// future conclusive execution.
    pub memo_excluded: u64,
    /// Whether this executor's deadline budget fired: in-flight batches
    /// stopped claiming work and consumers folded best-so-far prefixes.
    /// Always `false` without a configured [`DeadlineBudget`].
    pub deadline_fired: bool,
    /// Batches (canonical folds) this pool completed.
    pub batches: u64,
    /// Deterministic simulated wall-clock of this pool, in nanoseconds
    /// under the default [`CostModel`] rates: per batch, each canonical
    /// (folded) job's serial cost is assigned greedily to the least-loaded
    /// of the pool's `vms` slots, and the batch contributes the maximum
    /// slot load. Unlike `SimCost::seconds` (which divides total serial
    /// cost by the pool width, i.e. assumes perfect utilization), this
    /// accounts for slot idleness — a 3-job batch on an 8-wide pool pays
    /// one job's duration while 5 slots sit idle. Memo/journal hits cost
    /// nothing but their retries; fault placeholders cost their retry
    /// backoff. Deterministic at any OS-thread count (it is computed from
    /// the canonical fold, not from which worker ran what).
    pub sim_makespan_ns: u64,
    /// Engine steps executed across all workers (memo hits execute none).
    pub steps_executed: u64,
    /// Wall-clock nanoseconds workers spent inside VM execution, summed
    /// across workers — so `runs / (busy_ns / 1e9)` is per-worker-second
    /// throughput, not wall-clock throughput. Timing, hence host-dependent:
    /// a diagnostic, never folded into results.
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
    retries: AtomicU64,
    crash_faults: AtomicU64,
    hang_faults: AtomicU64,
    gave_up: AtomicU64,
    vm_restarts: AtomicU64,
    snapshot_hits: AtomicU64,
    snapshot_misses: AtomicU64,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    memo_excluded: AtomicU64,
    batches: AtomicU64,
    sim_makespan_ns: AtomicU64,
    steps_executed: AtomicU64,
    busy_ns: AtomicU64,
}

impl StatCells {
    fn snapshot(&self) -> ExecStats {
        ExecStats {
            runs: self.runs.load(Ordering::SeqCst),
            discarded_runs: self.discarded_runs.load(Ordering::SeqCst),
            retries: self.retries.load(Ordering::SeqCst),
            crash_faults: self.crash_faults.load(Ordering::SeqCst),
            hang_faults: self.hang_faults.load(Ordering::SeqCst),
            gave_up: self.gave_up.load(Ordering::SeqCst),
            vm_restarts: self.vm_restarts.load(Ordering::SeqCst),
            snapshot_hits: self.snapshot_hits.load(Ordering::SeqCst),
            snapshot_misses: self.snapshot_misses.load(Ordering::SeqCst),
            memo_hits: self.memo_hits.load(Ordering::SeqCst),
            memo_misses: self.memo_misses.load(Ordering::SeqCst),
            memo_excluded: self.memo_excluded.load(Ordering::SeqCst),
            deadline_fired: false,
            batches: self.batches.load(Ordering::SeqCst),
            sim_makespan_ns: self.sim_makespan_ns.load(Ordering::SeqCst),
            steps_executed: self.steps_executed.load(Ordering::SeqCst),
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
    /// Deterministic VM-fault injection; `None` disables it.
    pub fault: Option<FaultInjection>,
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
    /// Durable run journal: every fresh conclusive output (and every memo
    /// hit, deduplicated by key) is appended so a killed campaign can
    /// resume at zero VM cost. `None` disables journaling.
    pub journal: Option<Arc<Journal>>,
    /// Campaign deadline budget, checked at every job-claim boundary and
    /// charged by executed runs. `None` disables deadlines.
    pub deadline: Option<Arc<DeadlineBudget>>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            vms: 8,
            os_threads: None,
            fault: None,
            memo: true,
            substrate: Substrate::default(),
            journal: None,
            deadline: None,
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

/// One lock-striped shard of the memo table: entries bucketed by
/// fingerprint for O(bucket) lookup, with a tick-ordered recency index for
/// O(log n) LRU maintenance — replacing the pre-refactor single
/// `Mutex<Vec<_>>` whose every `get` paid a linear scan of the whole table
/// under one process-wide lock.
#[derive(Default)]
struct MemoShard {
    /// Buckets by fingerprint; each entry carries its recency tick.
    entries: HashMap<u64, Vec<(u64, MemoEntry)>>,
    /// Recency order: tick → fingerprint (ticks are unique per shard, so
    /// the smallest tick is always the least-recently-used entry).
    recency: BTreeMap<u64, u64>,
    /// Monotone tick source for this shard.
    tick: u64,
    /// Live entry count across all buckets.
    len: usize,
}

impl MemoShard {
    fn touch(&mut self, fp: u64, old_tick: u64) -> u64 {
        self.recency.remove(&old_tick);
        self.tick += 1;
        self.recency.insert(self.tick, fp);
        self.tick
    }

    fn evict_lru(&mut self) {
        let Some((&tick, &fp)) = self.recency.iter().next() else {
            return;
        };
        self.recency.remove(&tick);
        let mut removed = false;
        if let Some(bucket) = self.entries.get_mut(&fp) {
            let before = bucket.len();
            bucket.retain(|(t, _)| *t != tick);
            removed = bucket.len() < before;
            // An emptied bucket must leave the map with its key: fingerprint
            // churn otherwise grows `entries` without bound — every evicted
            // singleton fingerprint would stay behind as a permanent
            // zero-length bucket.
            if bucket.is_empty() {
                self.entries.remove(&fp);
            }
        }
        if removed {
            self.len -= 1;
        }
    }

    /// `(bucket keys, live entries, recency entries)` — test diagnostics
    /// for the bounded-occupancy invariant: bucket keys and recency
    /// entries may never outgrow live entries.
    #[cfg(test)]
    fn diag(&self) -> (usize, usize, usize) {
        (
            self.entries.len(),
            self.entries.values().map(Vec::len).sum(),
            self.recency.len(),
        )
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
/// once any worker of any executor has driven a job to a *conclusive*
/// outcome, every later job with the same canonical fingerprint can return
/// the cached [`ExecOutput`] — full trace included, so downstream trace
/// consumers (causality edge extraction) see exactly what a re-execution
/// would have shown — at zero simulated cost. Inconclusive outcomes
/// (timeout, crash) are never inserted, and exec-layer fault placeholders
/// never reach the table at all (faults are decided *before* the lookup).
///
/// Concurrency: the table is striped into [`MEMO_SHARDS`] independently
/// locked shards keyed by `fingerprint % MEMO_SHARDS`, so lookups for
/// different schedules contend only when they land on the same stripe.
/// Capacity is split evenly across shards; eviction is per-shard LRU,
/// which bounds total occupancy by the same global cap while keeping every
/// operation free of cross-shard coordination.
struct MemoTable {
    /// Per-shard capacity (`ceil(cap / MEMO_SHARDS)`; 0 disables writes).
    shard_cap: usize,
    shards: Vec<Mutex<MemoShard>>,
}

impl MemoTable {
    fn new(cap: usize) -> MemoTable {
        MemoTable {
            shard_cap: cap.div_ceil(MEMO_SHARDS),
            shards: (0..MEMO_SHARDS).map(|_| Mutex::default()).collect(),
        }
    }

    fn shard(&self, fp: u64) -> &Mutex<MemoShard> {
        &self.shards[(fp % MEMO_SHARDS as u64) as usize]
    }

    /// Whether the table holds `job`'s output, leaving recency untouched.
    fn contains(&self, job: &ExecJob, fp: u64) -> bool {
        self.shard_cap > 0
            && self
                .shard(fp)
                .lock()
                .unwrap()
                .entries
                .get(&fp)
                .is_some_and(|bucket| bucket.iter().any(|(_, e)| e.matches(job)))
    }

    fn get(&self, job: &ExecJob, fp: u64) -> Option<ExecOutput> {
        // A 0-capacity table holds nothing (`put` refuses writes); skip the
        // shard lock and recency churn entirely to match.
        if self.shard_cap == 0 {
            return None;
        }
        let mut shard = self.shard(fp).lock().unwrap();
        let bucket = shard.entries.get(&fp)?;
        let pos = bucket.iter().position(|(_, e)| e.matches(job))?;
        let old_tick = bucket[pos].0;
        let tick = shard.touch(fp, old_tick);
        let bucket = shard.entries.get_mut(&fp).expect("bucket exists");
        bucket[pos].0 = tick;
        Some(bucket[pos].1.output.clone())
    }

    fn put(&self, fp: u64, job: &ExecJob, output: &ExecOutput) {
        if self.shard_cap == 0 {
            return;
        }
        let mut shard = self.shard(fp).lock().unwrap();
        let bucket = shard.entries.entry(fp).or_default();
        let entry = MemoEntry {
            program: Arc::clone(&job.program),
            schedule: job.schedule.clone(),
            step_budget: job.enforce.step_budget,
            output: output.clone(),
        };
        if let Some(pos) = bucket.iter().position(|(_, e)| e.matches(job)) {
            let old_tick = bucket[pos].0;
            bucket[pos].1 = entry;
            let tick = shard.touch(fp, old_tick);
            shard.entries.get_mut(&fp).expect("bucket exists")[pos].0 = tick;
            return;
        }
        shard.tick += 1;
        let tick = shard.tick;
        shard
            .entries
            .get_mut(&fp)
            .expect("bucket exists")
            .push((tick, entry));
        shard.recency.insert(tick, fp);
        shard.len += 1;
        while shard.len > self.shard_cap && !shard.recency.is_empty() {
            shard.evict_lru();
        }
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

    /// A snapshot of the pool's robustness counters.
    #[must_use]
    pub fn stats(&self) -> ExecStats {
        ExecStats {
            deadline_fired: self.deadline_fired(),
            ..self.stats.snapshot()
        }
    }

    /// Whether this executor's configured deadline budget has fired.
    /// Always `false` without one.
    #[must_use]
    pub fn deadline_fired(&self) -> bool {
        self.config.deadline.as_ref().is_some_and(|d| d.fired())
    }

    /// Evaluates the deadline budget at a claim boundary, firing it if
    /// either budget ran out. `false` without a configured deadline.
    fn deadline_expired(&self) -> bool {
        self.config.deadline.as_ref().is_some_and(|d| d.check())
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
        let mut out: Vec<Option<ExecOutput>> = Vec::with_capacity(n);
        let mut done = false;
        {
            let mut slot = self.slots[0].lock().unwrap();
            for job in jobs {
                if cancel.is_cancelled() || self.deadline_expired() {
                    done = true;
                    break;
                }
                if workers > 1 && !self.memo_answers(job) {
                    break;
                }
                let res = self.run_job_ft(&mut slot, job);
                done = stop(&res);
                out.push(Some(res));
                if done {
                    break;
                }
            }
        }
        if !done && out.len() < n {
            let rest = &jobs[out.len()..];
            out.extend(self.fan_out(rest, workers.min(rest.len()), cancel, &stop));
        }
        out.resize_with(n, || None);
        self.charge_batch_makespan(&out);
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
                        if cancel.is_cancelled() || self.deadline_expired() {
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
                        let res = self.run_job_ft(&mut slot, &jobs[i]);
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
            .filter(|o| !o.memo_hit && o.vm_faulted.is_none())
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

    /// Charges one batch's deterministic simulated makespan (see
    /// [`ExecStats::sim_makespan_ns`]): each canonical job's serial cost is
    /// placed on the least-loaded of the pool's slots (ties to the lowest
    /// index), and the batch contributes the maximum slot load. Computed
    /// from the canonical fold only — speculative executions beyond a stop
    /// bound are never charged — so the value is identical at any OS-thread
    /// count for a given pool width.
    fn charge_batch_makespan(&self, out: &[Option<ExecOutput>]) {
        let model = CostModel::default();
        let mut loads = vec![0f64; self.slots.len()];
        let mut any = false;
        for res in out.iter().flatten() {
            any = true;
            let mut s = f64::from(res.retries) * model.retry_backoff_s;
            if !res.memo_hit && res.vm_faulted.is_none() {
                s += model.serial_run_s(res.run.steps, res.run.failure.is_some());
            }
            let slot = loads
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.total_cmp(b))
                .map_or(0, |(i, _)| i);
            loads[slot] += s;
        }
        if !any {
            return;
        }
        let makespan = loads.iter().copied().fold(0f64, f64::max);
        self.stats.batches.fetch_add(1, Ordering::SeqCst);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        self.stats
            .sim_makespan_ns
            .fetch_add((makespan * 1e9) as u64, Ordering::SeqCst);
    }

    /// Executes one job with the fault-tolerance wrapper: injected faults
    /// are retried **inside the owning worker, before the result is
    /// published** — so job `i`'s slot in the canonical fold never observes
    /// an intermediate attempt, and fold order / worker-count invariance
    /// are exactly as without fault injection. A job whose every attempt
    /// faults publishes a placeholder output with `vm_faulted` set.
    ///
    /// The memo lookup sits strictly *after* the fault decision: an
    /// attempt that faults burns its retry exactly as if the memo did not
    /// exist, so memoization can never mask a fault. Only a fault-free
    /// attempt may be served from the table, with `retries` set to the
    /// locally observed count — equal to the cached one by content-keyed
    /// determinism, but correct by construction.
    fn run_job_ft(&self, slot: &mut Option<Engine>, job: &ExecJob) -> ExecOutput {
        let mut retries = 0u32;
        loop {
            let injected = self.config.fault.and_then(|f| f.decide(job, retries));
            let Some((kind, k)) = injected else {
                let memo = self
                    .config
                    .memo
                    .then(|| self.config.substrate.memo.as_ref());
                let fp = schedule_fingerprint(&job.schedule, &job.enforce);
                if let Some(memo) = memo {
                    if let Some(mut out) = memo.get(job, fp) {
                        self.stats.memo_hits.fetch_add(1, Ordering::SeqCst);
                        out.retries = retries;
                        out.memo_hit = true;
                        // A hit is journaled too (deduplicated inside): the
                        // table may have been seeded by an executor without
                        // a journal, and a resume must not re-pay for it.
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
                let out = run_job(slot, job, forest, &self.stats, retries);
                if let Some(deadline) = &self.config.deadline {
                    deadline.charge_run(out.run.steps, out.run.failure.is_some());
                }
                if let Some(memo) = memo {
                    if out.outcome.is_inconclusive() {
                        self.stats.memo_excluded.fetch_add(1, Ordering::SeqCst);
                    } else {
                        memo.put(fp, job, &out);
                    }
                }
                // Conclusive outputs are made durable; inconclusive ones are
                // excluded exactly like `memo_excluded` — a timeout or crash
                // proves nothing and must not shadow a future conclusive
                // execution on resume.
                if !out.outcome.is_inconclusive() {
                    if let Some(journal) = &self.config.journal {
                        journal.append(job, &out);
                    }
                }
                return out;
            };
            match kind {
                FaultKind::Crash => &self.stats.crash_faults,
                FaultKind::Hang => &self.stats.hang_faults,
            }
            .fetch_add(1, Ordering::SeqCst);
            // The VM died under the attempt: the worker's engine is lost
            // with it.
            *slot = None;
            self.stats.vm_restarts.fetch_add(1, Ordering::SeqCst);
            let budget = self.config.fault.map_or(0, |f| f.max_retries);
            if retries >= budget {
                self.stats.gave_up.fetch_add(1, Ordering::SeqCst);
                eprintln!(
                    "aitia-exec: giving up on job after {retries} retries \
                     ({kind:?} at schedule point {k})",
                );
                return faulted_output(job, kind, retries);
            }
            retries += 1;
            self.stats.retries.fetch_add(1, Ordering::SeqCst);
            if let Some(deadline) = &self.config.deadline {
                deadline.charge_retry();
            }
        }
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

/// Executes one job on a worker's persistent VM, booting a new engine when
/// the job's program differs from the VM's.
fn run_job(
    slot: &mut Option<Engine>,
    job: &ExecJob,
    forest: Option<&SnapshotForest>,
    stats: &StatCells,
    retries: u32,
) -> ExecOutput {
    let engine = match slot {
        Some(engine) if Arc::ptr_eq(engine.program(), &job.program) => engine,
        _ => slot.insert(Engine::new(Arc::clone(&job.program))),
    };
    let started = Instant::now();
    let (run, restored) = run_cached(engine, &job.schedule, &job.enforce, forest);
    let busy = started.elapsed();
    stats.runs.fetch_add(1, Ordering::SeqCst);
    stats.steps_executed.fetch_add(
        u64::try_from(run.steps).unwrap_or(u64::MAX),
        Ordering::SeqCst,
    );
    stats.busy_ns.fetch_add(
        u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX),
        Ordering::SeqCst,
    );
    if let Some(restored) = restored {
        let counter = if restored {
            &stats.snapshot_hits
        } else {
            &stats.snapshot_misses
        };
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
        retries,
        vm_faulted: None,
        memo_hit: false,
    }
}

/// The placeholder output published when a job faults on every attempt.
/// Its `run` is empty (no trace, no failure, nothing triggered) so no
/// consumer can mistake it for an observation; `outcome` carries the
/// fault's flavour.
fn faulted_output(job: &ExecJob, kind: FaultKind, retries: u32) -> ExecOutput {
    let run = RunResult {
        trace: ksim::Trace::new(),
        failure: None,
        triggered: vec![false; job.schedule.points.len()],
        forced: Vec::new(),
        steps: 0,
        budget_exhausted: kind == FaultKind::Hang,
        threads: Vec::new(),
    };
    ExecOutput {
        run,
        sel_of: HashMap::new(),
        outcome: match kind {
            FaultKind::Crash => RunOutcome::Crashed,
            FaultKind::Hang => RunOutcome::Timeout,
        },
        retries,
        vm_faulted: Some(kind),
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
    fn worker_counts_agree_under_fault_injection_and_memo() {
        // Fault decisions are content-keyed and the memo serves full
        // records, so neither may perturb the worker-count identity.
        let program = fig1_program();
        let jobs = fig1_jobs(&program);
        let fault = Some(recovering_fault(&jobs));
        for memo in [false, true] {
            let mut digests = Vec::new();
            for vms in [1, 2, 8] {
                let out = Executor::with_config(ExecutorConfig {
                    vms,
                    os_threads: Some(vms),
                    memo,
                    fault,
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

    fn faulty_pool(vms: usize, fault: FaultInjection) -> Executor {
        Executor::with_config(ExecutorConfig {
            vms,
            os_threads: Some(vms),
            fault: Some(fault),
            ..ExecutorConfig::default()
        })
    }

    /// A seed where at least one fig1 job faults on its first attempt but
    /// recovers within the retry budget (fault decisions are pure over the
    /// job content, so the search itself is deterministic).
    fn recovering_fault(jobs: &[ExecJob]) -> FaultInjection {
        for seed in 0..10_000u64 {
            let f = FaultInjection {
                seed,
                rate_permille: 400,
                max_retries: 3,
            };
            let recovers = |job: &ExecJob| {
                f.decide(job, 0).is_some()
                    && (1..=f.max_retries).any(|a| f.decide(job, a).is_none())
            };
            if jobs.iter().any(recovers)
                && jobs
                    .iter()
                    .all(|j| (0..4).any(|a| f.decide(j, a).is_none()))
            {
                return f;
            }
        }
        panic!("no recovering seed found");
    }

    #[test]
    fn injected_fault_is_retried_deterministically() {
        let program = fig1_program();
        let jobs = fig1_jobs(&program);
        let fault = recovering_fault(&jobs);
        let baseline = Executor::new(1).run_batch(&jobs, &CancelToken::new());
        let exec = faulty_pool(1, fault);
        let got = exec.run_batch(&jobs, &CancelToken::new());
        // Retries happen in-worker before publishing: results match the
        // fault-free baseline bit for bit.
        assert_eq!(digest(&baseline), digest(&got));
        let retried: u32 = got.iter().flatten().map(|o| o.retries).sum();
        assert!(retried > 0, "the chosen seed faults at least one job");
        assert!(got.iter().flatten().all(|o| o.vm_faulted.is_none()));
        let stats = exec.stats();
        assert_eq!(stats.retries, u64::from(retried));
        assert_eq!(stats.vm_restarts, stats.crash_faults + stats.hang_faults);
        assert_eq!(stats.gave_up, 0);
        // Re-running reproduces the identical retry pattern.
        let again = faulty_pool(1, fault).run_batch(&jobs, &CancelToken::new());
        let retries_of = |out: &[Option<ExecOutput>]| -> Vec<u32> {
            out.iter().flatten().map(|o| o.retries).collect()
        };
        assert_eq!(retries_of(&got), retries_of(&again));
    }

    #[test]
    fn fault_injection_preserves_worker_count_invariance() {
        let program = fig1_program();
        let jobs = fig1_jobs(&program);
        let fault = recovering_fault(&jobs);
        let baseline = faulty_pool(1, fault).run_batch(&jobs, &CancelToken::new());
        for vms in [2, 4, 8] {
            let got = faulty_pool(vms, fault).run_batch(&jobs, &CancelToken::new());
            assert_eq!(digest(&baseline), digest(&got), "vms={vms}");
            let rb: Vec<u32> = baseline.iter().flatten().map(|o| o.retries).collect();
            let rg: Vec<u32> = got.iter().flatten().map(|o| o.retries).collect();
            assert_eq!(rb, rg, "vms={vms}");
        }
    }

    /// Faults every attempt of every job.
    fn always_fault() -> FaultInjection {
        FaultInjection {
            seed: 7,
            rate_permille: 1000,
            max_retries: 2,
        }
    }

    #[test]
    fn exhausted_retry_budget_publishes_a_placeholder() {
        let program = fig1_program();
        let jobs = fig1_jobs(&program);
        let exec = faulty_pool(1, always_fault());
        let out = exec.run_batch(&jobs, &CancelToken::new());
        for o in out.iter().flatten() {
            let kind = o.vm_faulted.expect("every job gives up");
            assert_eq!(o.retries, always_fault().max_retries);
            assert!(o.run.trace.is_empty());
            assert!(o.run.failure.is_none());
            match kind {
                FaultKind::Crash => assert_eq!(o.outcome, RunOutcome::Crashed),
                FaultKind::Hang => {
                    assert_eq!(o.outcome, RunOutcome::Timeout);
                    assert!(o.run.budget_exhausted);
                }
            }
            assert!(o.outcome.is_inconclusive());
        }
        let stats = exec.stats();
        assert_eq!(stats.gave_up, jobs.len() as u64);
        assert_eq!(stats.runs, 0, "faulted attempts execute nothing");
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
        assert_eq!(stats.memo_excluded, 0);
        assert_eq!(stats.crash_faults + stats.hang_faults, 0);
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
            assert_eq!(s.retries, b.retries);
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
                assert_eq!(br.at, sr.at);
                assert_eq!(br.tid, sr.tid);
                assert_eq!(br.accesses, sr.accesses);
                assert_eq!(br.lock_event, sr.lock_event);
                assert_eq!(br.locks_held, sr.locks_held);
                assert_eq!(br.spawned, sr.spawned);
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
    fn inconclusive_outcomes_are_never_memoized() {
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
        let _ = exec.run_batch(&jobs, &CancelToken::new());
        let _ = exec.run_batch(&jobs, &CancelToken::new());
        let stats = exec.stats();
        // Both batches executed everything: timeouts are excluded from the
        // table, so even the duplicate schedule re-executes every time.
        assert_eq!(stats.runs, 2 * jobs.len() as u64);
        assert_eq!(stats.memo_hits, 0);
        assert_eq!(stats.memo_excluded, 2 * jobs.len() as u64);
    }

    #[test]
    fn gave_up_placeholders_are_never_memoized() {
        let program = fig1_program();
        let jobs = fig1_jobs(&program);
        // Exhaust every attempt; placeholders must not poison the memo.
        let faulty = faulty_pool(1, always_fault());
        let out = faulty.run_batch(&jobs, &CancelToken::new());
        assert!(out.iter().flatten().all(|o| o.vm_faulted.is_some()));
        assert_eq!(faulty.stats().memo_hits + faulty.stats().memo_misses, 0);
        // A fault-free pool over the same jobs misses the memo (nothing
        // was inserted) and produces real results.
        let clean = threaded_pool(1);
        let out = clean.run_batch(&jobs, &CancelToken::new());
        assert!(out.iter().flatten().all(|o| o.vm_faulted.is_none()));
        assert!(clean.stats().runs > 0);
    }

    #[test]
    fn fault_decision_ignores_worker_identity() {
        let program = fig1_program();
        let jobs = fig1_jobs(&program);
        let f = always_fault();
        for job in &jobs {
            // Same job, same attempt: same decision, every time.
            assert_eq!(f.decide(job, 0), f.decide(job, 0));
            assert_eq!(f.decide(job, 1), f.decide(job, 1));
        }
        // rate 0 disables injection outright.
        let off = FaultInjection {
            rate_permille: 0,
            ..always_fault()
        };
        assert!(jobs.iter().all(|j| off.decide(j, 0).is_none()));
    }

    #[test]
    fn deadline_subscribers_stay_bounded_across_repeated_campaigns() {
        // A long-lived budget subscribed to by many short-lived campaigns
        // (each dropping its tokens when it finishes) must not accumulate
        // dead registrations: subscribe prunes, so the raw list length is
        // bounded by live tokens plus the one just pushed.
        let budget = DeadlineBudget::new(Some(3600.0), None, CostModel::default());
        for _ in 0..1000 {
            let token = CancelToken::new();
            budget.subscribe(&token);
            assert!(budget.subscribers.lock().unwrap().len() <= 2);
            drop(token);
        }
        assert_eq!(budget.subscriber_count(), 0);
        // check() also prunes dead weak slots.
        budget.check();
        assert!(budget.subscribers.lock().unwrap().is_empty());
        // Live tokens still get cancelled when the budget fires, and a
        // subscribe from inside the post-fire world must not deadlock.
        let live = CancelToken::new();
        budget.subscribe(&live);
        budget.fire("test");
        assert!(live.is_cancelled());
        budget.subscribe(&CancelToken::new());
    }

    #[test]
    fn memo_shard_entries_stay_bounded_under_fingerprint_churn() {
        let program = fig1_program();
        // One real conclusive output to cache (content is irrelevant to
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
