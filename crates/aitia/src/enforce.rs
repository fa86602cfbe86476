//! Schedule enforcement — the AITIA-hypervisor equivalent (§4.4).
//!
//! The enforcer drives a [`ksim::Engine`] so that the interleaving orders
//! of a [`Schedule`] hold: it runs exactly one thread at a time, suspends it
//! when it reaches a scheduling point (the breakpoint trap), and resumes the
//! point's target. Suspension is purely external — a suspended thread keeps
//! its kernel state consistent, mirroring the paper's trampoline.
//!
//! Two failure modes of enforcement carry diagnostic meaning and are
//! reported rather than hidden:
//!
//! * **disappeared points** — the anchor instruction was never reached
//!   because a race-steered control flow took another path; Causality
//!   Analysis reads these as "the data race did not occur";
//! * **forced resumes** — the running thread blocked on a lock held by a
//!   suspended thread; the enforcer resumes the holder until it releases
//!   (the §3.4 liveness rule that motivates flipping whole critical
//!   sections).

use crate::fxhash::{
    FxHashMap,
    FxHasher, //
};
use crate::lru::LruBuckets;
use crate::schedule::{
    Anchor,
    SchedPoint,
    Schedule,
    ThreadSel, //
};
use ksim::{
    Engine,
    Failure,
    InstrAddr,
    LockId,
    Snapshot,
    StepOutcome,
    ThreadId,
    ThreadStatus,
    Trace, //
};
use std::hash::{
    Hash,
    Hasher, //
};
use std::sync::{
    Arc,
    Mutex, //
};

/// Enforcement limits.
#[derive(Clone, Copy, Debug)]
pub struct EnforceConfig {
    /// Maximum engine steps before the run is abandoned (livelock guard).
    pub step_budget: usize,
}

impl Default for EnforceConfig {
    fn default() -> Self {
        EnforceConfig {
            step_budget: 200_000,
        }
    }
}

/// A forced resume of a suspended lock holder (liveness, §3.4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForcedResume {
    /// The thread that blocked.
    pub blocked: ThreadSel,
    /// The suspended holder that was resumed.
    pub holder: ThreadSel,
    /// The contended lock.
    pub lock: LockId,
    /// Trace position at which the contention occurred.
    pub seq: usize,
}

/// Final state of one thread after a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadFinal {
    /// Stable selector of the thread.
    pub sel: ThreadSel,
    /// Scheduling status at run end.
    pub status: ThreadStatus,
    /// Next instruction the thread was parked at (`None` when exited).
    pub next: Option<InstrAddr>,
}

/// Classification of one run's observable outcome (DESIGN.md §5).
///
/// Enforced schedules do not just pass or fail: race-steered control flow
/// can make an awaited instruction never arrive (the schedule *diverges*),
/// and a livelock can eat the whole step budget (the run *times out*).
/// Every consumer — LIFS round folding, causality flip verdicts, the
/// manager's fan-out — branches on this taxonomy instead of re-deriving it
/// from raw fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RunOutcome {
    /// The run completed with no failure and every scheduling point fired.
    Passed,
    /// A failure manifested.
    Failed,
    /// The run completed without failing, but at least one scheduling point
    /// never fired — race-steered control flow took another path, so the
    /// enforced interleaving was not realized.
    Diverged,
    /// The step budget ran out (livelock / hang). A timed-out run proves
    /// nothing in either direction: it neither passed nor failed. It is
    /// still a deterministic result of its program, schedule and step
    /// budget, so the memo table and the run journal keep it like any
    /// other.
    Timeout,
}

impl RunOutcome {
    /// Whether the run's result carries no diagnostic signal: the schedule
    /// was never actually driven to completion, so neither "failed" nor
    /// "did not fail" may be concluded from it.
    #[must_use]
    pub fn is_inconclusive(self) -> bool {
        self == RunOutcome::Timeout
    }
}

impl std::fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RunOutcome::Passed => "passed",
            RunOutcome::Failed => "failed",
            RunOutcome::Diverged => "diverged",
            RunOutcome::Timeout => "timeout",
        };
        f.write_str(s)
    }
}

/// The observable outcome of one enforced run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// The executed trace (total order), structurally shared with the
    /// engine that produced it — cloning a [`RunResult`] bumps reference
    /// counts instead of copying records.
    pub trace: Trace,
    /// The manifested failure, if any.
    pub failure: Option<Failure>,
    /// `triggered[i]` — whether scheduling point `i` fired.
    pub triggered: Vec<bool>,
    /// Forced lock-holder resumes.
    pub forced: Vec<ForcedResume>,
    /// Steps executed.
    pub steps: usize,
    /// Whether the step budget ran out (livelock).
    pub budget_exhausted: bool,
    /// Final thread states.
    pub threads: Vec<ThreadFinal>,
}

impl RunResult {
    /// Indices of scheduling points that never fired (race-steered
    /// control-flow evidence).
    #[must_use]
    pub fn disappeared(&self) -> Vec<usize> {
        self.triggered
            .iter()
            .enumerate()
            .filter(|(_, &t)| !t)
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether the run completed without any failure.
    #[must_use]
    pub fn succeeded(&self) -> bool {
        self.failure.is_none() && !self.budget_exhausted
    }

    /// Classifies this run. Priority: a manifested failure wins (a failing
    /// run is diagnostic signal even if the budget also ran out), then
    /// budget exhaustion, then divergence (some point never fired), then a
    /// clean pass.
    #[must_use]
    pub fn outcome(&self) -> RunOutcome {
        if self.failure.is_some() {
            RunOutcome::Failed
        } else if self.budget_exhausted {
            RunOutcome::Timeout
        } else if self.triggered.iter().any(|&t| !t) {
            RunOutcome::Diverged
        } else {
            RunOutcome::Passed
        }
    }
}

/// Live enforcement-loop state, extracted so a run can *resume* from a
/// checkpoint in the executor's [`SnapshotForest`] instead of always
/// starting from a fresh boot.
struct LoopState {
    triggered: Vec<bool>,
    forced: Vec<ForcedResume>,
    steps: usize,
    budget_exhausted: bool,
    point_idx: usize,
    exec_counts: FxHashMap<(ThreadId, InstrAddr), u32>,
    current: Option<ThreadId>,
    /// Cursor into the schedule's intended segment sequence (when present).
    /// Decisions so far consulted the segments up to and including it.
    seg_cursor: usize,
    /// Whether a segment search ran off the end of the sequence, so the
    /// run consulted all of it.
    seg_exhausted: bool,
    /// Consecutive forced-resume hops without an executed step: a chain
    /// longer than the thread count is a lock cycle (ABBA deadlock).
    forced_chain: usize,
    /// `steps` when the last point was consumed (0 before the first).
    consumed_at: usize,
    /// Whether no scheduling decision so far came from the fallback list.
    /// Only clean states are deposited in the snapshot forest: a fallback
    /// decision depends on the whole schedule, so the resulting state is
    /// not reusable by sibling schedules. A decision of the segment cursor
    /// is covered by the checkpoint's consulted segment prefix.
    clean: bool,
    /// Points already checkpointed this run (avoids duplicate deposits).
    checkpointed: usize,
}

impl LoopState {
    fn fresh(engine: &Engine, schedule: &Schedule) -> LoopState {
        let current = schedule
            .start
            .and_then(|s| s.resolve(engine))
            .or_else(|| engine.runnable().first().copied());
        LoopState {
            triggered: vec![false; schedule.points.len()],
            forced: Vec::new(),
            steps: 0,
            budget_exhausted: false,
            point_idx: 0,
            exec_counts: FxHashMap::default(),
            current,
            seg_cursor: 0,
            seg_exhausted: false,
            forced_chain: 0,
            consumed_at: 0,
            clean: true,
            checkpointed: 0,
        }
    }

    /// Marks the point at `point_idx` consumed (fired or skipped as gone).
    fn consume(&mut self) {
        self.point_idx += 1;
        self.consumed_at = self.steps;
    }
}

/// An engine checkpoint plus the loop state of the run that took it, and
/// everything of its schedule that run consulted on the way there: its
/// program, step budget and start, the points it consumed, and the segment
/// prefix up to its cursor. A schedule agreeing on all of it reaches the
/// same state at the same step, so restoring both resumes the run exactly
/// where a fresh execution would be.
struct Checkpoint {
    program: Arc<ksim::Program>,
    step_budget: usize,
    start: Option<ThreadSel>,
    /// The consumed points: `points[..k]` of the depositing schedule.
    points: Vec<SchedPoint>,
    /// The consulted segments: up to and including the cursor, or the whole
    /// sequence when a search ran off its end (`seg_exhausted`).
    segments: Vec<ThreadSel>,
    seg_exhausted: bool,
    /// The depositing schedule's next point, which its run watched without
    /// firing since `consumed_at`.
    next: Option<SchedPoint>,
    /// Every runtime thread: its id, selector, and whether it is done.
    threads: Vec<(ThreadId, ThreadSel, bool)>,
    snapshot: Snapshot,
    triggered: Vec<bool>,
    forced: Vec<ForcedResume>,
    steps: usize,
    exec_counts: FxHashMap<(ThreadId, InstrAddr), u32>,
    current: Option<ThreadId>,
    seg_cursor: usize,
    forced_chain: usize,
    consumed_at: usize,
}

impl Checkpoint {
    fn take(engine: &Engine, schedule: &Schedule, cfg: &EnforceConfig, state: &LoopState) -> Self {
        let k = state.point_idx;
        let seen = if state.seg_exhausted {
            schedule.segments.len()
        } else {
            (state.seg_cursor + 1).min(schedule.segments.len())
        };
        Checkpoint {
            program: Arc::clone(engine.program()),
            step_budget: cfg.step_budget,
            start: schedule.start,
            points: schedule.points[..k].to_vec(),
            segments: schedule.segments[..seen].to_vec(),
            seg_exhausted: state.seg_exhausted,
            next: schedule.points.get(k).cloned(),
            threads: engine
                .threads()
                .iter()
                .map(|t| {
                    let sel = ThreadSel {
                        prog: t.prog,
                        occurrence: t.occurrence,
                    };
                    (t.id, sel, t.is_done())
                })
                .collect(),
            snapshot: engine.snapshot(),
            triggered: state.triggered[..k].to_vec(),
            forced: state.forced.clone(),
            steps: state.steps,
            exec_counts: state.exec_counts.clone(),
            current: state.current,
            seg_cursor: state.seg_cursor,
            forced_chain: state.forced_chain,
            consumed_at: state.consumed_at,
        }
    }

    fn resume(&self, schedule: &Schedule) -> LoopState {
        let mut triggered = self.triggered.clone();
        triggered.resize(schedule.points.len(), false);
        LoopState {
            triggered,
            forced: self.forced.clone(),
            steps: self.steps,
            budget_exhausted: false,
            point_idx: self.points.len(),
            exec_counts: self.exec_counts.clone(),
            current: self.current,
            seg_cursor: self.seg_cursor,
            seg_exhausted: self.seg_exhausted,
            forced_chain: self.forced_chain,
            consumed_at: self.consumed_at,
            clean: true,
            checkpointed: self.points.len(),
        }
    }

    /// Whether a run of `schedule` under `cfg` on `program` passes through
    /// this checkpoint's state: it agrees on everything the depositing run
    /// consulted, and its own next point would have stayed inert over the
    /// steps that run made since it consumed its last point.
    fn serves(
        &self,
        program: &Arc<ksim::Program>,
        schedule: &Schedule,
        cfg: &EnforceConfig,
    ) -> bool {
        let segments_agree = if self.seg_exhausted {
            schedule.segments == self.segments
        } else {
            schedule.segments.starts_with(&self.segments)
        };
        Arc::ptr_eq(&self.program, program)
            && self.step_budget == cfg.step_budget
            && self.start == schedule.start
            && schedule.points.starts_with(&self.points)
            && segments_agree
            && match schedule.points.get(self.points.len()) {
                Some(p) if self.steps > self.consumed_at && self.next.as_ref() != Some(p) => {
                    self.inert(p)
                }
                _ => true,
            }
    }

    /// Whether point `p` would neither have fired nor been skipped as gone
    /// at any loop iteration since `consumed_at`. Conservative: a thread
    /// that is done, has run past the anchor, or blocked since may have
    /// met `p`, so the checkpoint is refused.
    fn inert(&self, p: &SchedPoint) -> bool {
        let Some(&(tid, _, done)) = self.threads.iter().find(|t| t.1 == p.thread) else {
            // Never spawned: nothing could have matched it.
            return true;
        };
        if done {
            return false;
        }
        let count = self.exec_counts.get(&(tid, p.at)).copied().unwrap_or(0);
        match p.when {
            // A before-anchor fires when its thread is about to execute
            // the anchor for the `nth` time: every such moment either
            // executed it (the count passed `nth`) or blocked on it (a
            // forced resume since the last point).
            Anchor::Before => {
                count < p.nth
                    || (count == p.nth
                        && !self
                            .forced
                            .iter()
                            .any(|f| f.seq >= self.consumed_at && f.blocked == p.thread))
            }
            Anchor::After => count <= p.nth,
        }
    }

    /// Whether `other` holds the same state: the same consulted schedule
    /// parts at the same step.
    fn same_state(&self, other: &Checkpoint) -> bool {
        Arc::ptr_eq(&self.program, &other.program)
            && self.steps == other.steps
            && self.consumed_at == other.consumed_at
            && self.step_budget == other.step_budget
            && self.start == other.start
            && self.points == other.points
            && self.segments == other.segments
            && self.seg_exhausted == other.seg_exhausted
    }
}

/// The forest key of each point prefix of `schedule`: `keys[k]` hashes the
/// program's identity, the step budget, the start selector and
/// `points[..k]` (all fields). A checkpoint of a run that had consumed `k`
/// points lives under `keys[k]`.
fn prefix_keys(program: &Arc<ksim::Program>, schedule: &Schedule, cfg: &EnforceConfig) -> Vec<u64> {
    let mut h = FxHasher::default();
    (Arc::as_ptr(program) as usize).hash(&mut h);
    cfg.step_budget.hash(&mut h);
    match schedule.start {
        Some(s) => (1u8, s.prog.0, s.occurrence).hash(&mut h),
        None => 0u8.hash(&mut h),
    }
    let mut keys = Vec::with_capacity(schedule.points.len() + 1);
    keys.push(h.finish());
    for p in &schedule.points {
        hash_point(p, &mut h);
        keys.push(h.finish());
    }
    keys
}

fn hash_point<H: Hasher>(p: &SchedPoint, h: &mut H) {
    (p.thread.prog.0, p.thread.occurrence).hash(h);
    (p.at.prog.0, p.at.index).hash(h);
    p.nth.hash(h);
    u8::from(p.when == Anchor::After).hash(h);
    (p.switch_to.prog.0, p.switch_to.occurrence).hash(h);
}

/// Canonical fingerprint of everything an execution's outcome can depend
/// on: the step budget and the *entire* schedule — start selector, every
/// scheduling point (all fields), the fallback list, and the segment
/// sequence. Enforcement is deterministic, so two jobs over the same
/// program whose fingerprints (and, verified by the caller, full
/// schedules) agree drive the engine identically and their outputs are
/// interchangeable — the keying rule of the exec-layer memo table.
pub(crate) fn schedule_fingerprint(schedule: &Schedule, cfg: &EnforceConfig) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    cfg.step_budget.hash(&mut h);
    match schedule.start {
        Some(s) => (1u8, s.prog.0, s.occurrence).hash(&mut h),
        None => 0u8.hash(&mut h),
    }
    schedule.points.len().hash(&mut h);
    for p in &schedule.points {
        hash_point(p, &mut h);
    }
    schedule.fallback.len().hash(&mut h);
    for s in &schedule.fallback {
        (s.prog.0, s.occurrence).hash(&mut h);
    }
    schedule.segments.len().hash(&mut h);
    for s in &schedule.segments {
        (s.prog.0, s.occurrence).hash(&mut h);
    }
    h.finish()
}

/// A thread-safe store of engine checkpoints — the executor's only
/// checkpoint store.
///
/// LIFS explores many sibling schedules that differ only in their final
/// preemptions, and every flip of a failing run replays that run's first
/// steps up to its window; by sequential consistency such shared prefixes
/// produce bit-identical engine states. Instead of rebooting and replaying
/// the prefix, a worker restores the deepest matching checkpoint *any*
/// worker of any executor sharing the forest deposited, and executes only
/// the rest. [`ksim::Snapshot`] handles are `Arc`-backed, so sharing is a
/// reference-count bump, never a deep copy.
///
/// A checkpoint records what its run consulted (see DESIGN.md §5): the
/// program, step budget, start, consumed points, the segment prefix up to
/// its cursor, and its step count. It is filed under the hash of the first
/// four and restored only into a schedule that agrees on all of it, whose
/// own next point would not have fired in the meantime. Only **clean**
/// states are deposited — no decision came from the fallback list, whose
/// answer depends on the whole schedule. Unhinted runs of schedules
/// without segments (LIFS plans) deposit as each point is consumed; runs
/// with a [`PrefixHint`] (flips) deposit at their batch's deposit steps up
/// to their shared step. Entries pin their `Arc<Program>`, so a live
/// entry's pointer can never alias a recycled address, and the forest
/// never needs clearing when an engine switches programs. Eviction is
/// least-recently-used.
pub struct SnapshotForest {
    cap: usize,
    index: Mutex<LruBuckets<Arc<Checkpoint>>>,
}

impl SnapshotForest {
    /// Creates a forest holding at most `cap` checkpoints (0 disables it).
    #[must_use]
    pub fn new(cap: usize) -> SnapshotForest {
        SnapshotForest {
            cap,
            index: Mutex::default(),
        }
    }

    /// Number of checkpoints currently held.
    ///
    /// # Panics
    ///
    /// Panics when the interior lock is poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.lock().unwrap().len()
    }

    /// Whether the forest holds no checkpoints.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The deepest checkpoint at or below step `limit` that serves
    /// `schedule`, searching the point prefixes from the longest: along one
    /// run, more consumed points never means fewer steps.
    fn find(
        &self,
        schedule: &Schedule,
        cfg: &EnforceConfig,
        program: &Arc<ksim::Program>,
        keys: &[u64],
        limit: usize,
    ) -> Option<Arc<Checkpoint>> {
        let mut index = self.index.lock().unwrap();
        for (k, &key) in keys.iter().enumerate().rev() {
            let mut best: Option<(usize, usize)> = None;
            for (pos, cp) in index.bucket(key).enumerate() {
                if best.is_none_or(|(_, steps)| cp.steps > steps)
                    && cp.steps <= limit
                    && cp.points.len() == k
                    && cp.serves(program, schedule, cfg)
                {
                    best = Some((pos, cp.steps));
                }
            }
            if let Some((pos, _)) = best {
                return Some(Arc::clone(index.touch(key, pos)));
            }
        }
        None
    }

    fn put(&self, key: u64, cp: Checkpoint) {
        if self.cap == 0 {
            return;
        }
        let cp = Arc::new(cp);
        let mut index = self.index.lock().unwrap();
        index.put(key, Arc::clone(&cp), self.cap, |c| c.same_state(&cp));
    }
}

/// A hinted run's promise about its prefix, and the steps at which its
/// batch deposits checkpoints.
///
/// The executor builds one for each job that carries
/// [`crate::exec::ExecJob::shared_steps`]. Results never depend on it: a
/// run restores a checkpoint only when its schedule agrees on everything
/// the depositing run consulted, so a wrong hint costs time, never a
/// different result.
#[derive(Clone, Copy, Debug)]
pub struct PrefixHint<'a> {
    /// Leading steps the run is expected to share with the other hinted
    /// runs of its batch (a flip's window start: its first steps are the
    /// failing run's). The run restores the deepest matching checkpoint at
    /// or below this step and deposits none past it.
    pub shared: usize,
    /// The batch's deposit steps, ascending: every hinted job's `shared`.
    pub deposits: &'a [usize],
}

/// Where a run deposits checkpoints.
struct Sink<'a> {
    forest: &'a SnapshotForest,
    /// `keys[k]`: the forest key of the schedule's first `k` points.
    keys: Vec<u64>,
    /// `None`: deposit as each point is consumed (unhinted runs). `Some`:
    /// deposit at each of these steps, ascending — the batch's deposit
    /// steps past the run's restore point, up to its shared step.
    steps: Option<&'a [usize]>,
}

impl Sink<'_> {
    fn deposit(
        &self,
        engine: &Engine,
        schedule: &Schedule,
        cfg: &EnforceConfig,
        state: &LoopState,
    ) {
        let cp = Checkpoint::take(engine, schedule, cfg, state);
        self.forest.put(self.keys[state.point_idx], cp);
    }

    /// At the top of the loop: deposits when a hinted run reaches its next
    /// deposit step.
    fn at_step(
        &mut self,
        engine: &Engine,
        schedule: &Schedule,
        cfg: &EnforceConfig,
        state: &LoopState,
    ) {
        let Some(mut steps) = self.steps else {
            return;
        };
        while steps.first().is_some_and(|&d| d < state.steps) {
            steps = &steps[1..];
        }
        let due = steps.first() == Some(&state.steps);
        if due {
            steps = &steps[1..];
        }
        self.steps = Some(steps);
        if due && state.clean {
            self.deposit(engine, schedule, cfg, state);
        }
    }

    /// After a point is consumed: deposits for an unhinted run.
    fn at_point(
        &self,
        engine: &Engine,
        schedule: &Schedule,
        cfg: &EnforceConfig,
        state: &mut LoopState,
    ) {
        if self.steps.is_some()
            || !state.clean
            || state.point_idx <= state.checkpointed
            || engine.halted()
        {
            return;
        }
        self.deposit(engine, schedule, cfg, state);
        state.checkpointed = state.point_idx;
    }
}

/// Runs `engine` under `schedule`.
///
/// The engine should be freshly booted (or restored); the run consumes it —
/// inspect the returned [`RunResult`] and the engine afterwards.
#[must_use]
pub fn run(engine: &mut Engine, schedule: &Schedule, cfg: &EnforceConfig) -> RunResult {
    let mut state = LoopState::fresh(engine, schedule);
    drive(engine, schedule, cfg, &mut state, None)
}

/// How [`run_cached`] began a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Start {
    /// Booted fresh without consulting the forest: there was none, or the
    /// run is unhinted and its schedule has no points or has a segment
    /// sequence.
    Unconsulted,
    /// Found no checkpoint that serves the schedule and booted fresh.
    Booted,
    /// Resumed from a checkpoint taken `steps` steps into the run.
    Restored {
        /// The steps the checkpoint skipped.
        steps: usize,
    },
}

/// Runs `engine` under `schedule`, resuming from the deepest checkpoint
/// `forest` holds that serves the schedule.
///
/// Unlike [`run`], the engine need *not* be freshly booted: this function
/// either restores a checkpoint or reboots the engine itself. An unhinted
/// run consults the forest only for a schedule with points and no segment
/// sequence (a LIFS plan), and deposits a checkpoint after each point it
/// consumes cleanly. A run with a `hint` restores only at or below its
/// shared step, and deposits at each of its batch's deposit steps it
/// passes up to there. The returned [`RunResult`] is bit-for-bit what
/// [`run`] on a fresh engine would produce.
#[must_use]
pub fn run_cached(
    engine: &mut Engine,
    schedule: &Schedule,
    cfg: &EnforceConfig,
    forest: Option<&SnapshotForest>,
    hint: Option<PrefixHint<'_>>,
) -> (RunResult, Start) {
    let served = hint.is_some() || (schedule.segments.is_empty() && !schedule.points.is_empty());
    let Some(forest) = forest.filter(|_| served) else {
        engine.reboot();
        return (run(engine, schedule, cfg), Start::Unconsulted);
    };
    let keys = prefix_keys(engine.program(), schedule, cfg);
    let limit = hint.map_or(usize::MAX, |h| h.shared);
    let found = forest.find(schedule, cfg, engine.program(), &keys, limit);
    let mut state = match &found {
        Some(cp) => {
            engine.restore(&cp.snapshot);
            cp.resume(schedule)
        }
        None => {
            engine.reboot();
            LoopState::fresh(engine, schedule)
        }
    };
    let steps = hint.map(|h| {
        let from = h.deposits.partition_point(|&d| d <= state.steps);
        let to = h.deposits.partition_point(|&d| d <= h.shared).max(from);
        &h.deposits[from..to]
    });
    let mut sink = Sink {
        forest,
        keys,
        steps,
    };
    let run = drive(engine, schedule, cfg, &mut state, Some(&mut sink));
    let start = found.map_or(Start::Booted, |cp| Start::Restored { steps: cp.steps });
    (run, start)
}

fn drive(
    engine: &mut Engine,
    schedule: &Schedule,
    cfg: &EnforceConfig,
    state: &mut LoopState,
    mut sink: Option<&mut Sink<'_>>,
) -> RunResult {
    loop {
        if engine.halted() {
            if engine.failure().is_some() {
                break;
            }
            // Every listed thread finished without failing, but the
            // schedule may still name an unfired IRQ handler (LIFS's
            // handler probe): consult the fallback once, which injects it.
            state.clean = false;
            match pick_next(engine, schedule, state, None) {
                Some(t) => state.current = Some(t),
                None => break,
            }
        }
        if state.steps >= cfg.step_budget {
            state.budget_exhausted = true;
            break;
        }
        if let Some(sink) = sink.as_deref_mut() {
            sink.at_step(engine, schedule, cfg, state);
        }

        // Skip points whose thread can never reach its anchor any more.
        while state.point_idx < schedule.points.len() {
            let p = &schedule.points[state.point_idx];
            let gone = match p.thread.resolve(engine) {
                Some(tid) => engine
                    .thread(tid)
                    .map(ksim::Thread::is_done)
                    .unwrap_or(true),
                // Never spawned and nothing left to spawn it: only treat as
                // gone when no thread is runnable-or-blocked that could still
                // spawn it. Conservatively, only skip when the engine halted
                // for that thread — i.e. keep waiting unless all runnables
                // are gone, which the outer loop handles.
                None => false,
            };
            if gone {
                // Disappeared: preserve downstream intent by handing control
                // to the point's target.
                state.consume();
                if let Some(t) = p.switch_to.resolve(engine) {
                    if engine.thread(t).is_some_and(ksim::Thread::is_runnable) {
                        state.current = Some(t);
                    }
                }
            } else {
                break;
            }
        }
        if let Some(sink) = sink.as_deref_mut() {
            sink.at_point(engine, schedule, cfg, state);
        }

        // Validate current; re-pick when it finished.
        let cur = match state.current {
            Some(t) if engine.thread(t).is_some_and(ksim::Thread::is_runnable) => t,
            Some(t)
                if engine
                    .thread(t)
                    .is_some_and(|th| matches!(th.status, ThreadStatus::Blocked { .. })) =>
            {
                // Blocked on a lock whose holder is suspended: forced resume.
                let ThreadStatus::Blocked { on } = engine.thread(t).unwrap().status else {
                    unreachable!()
                };
                match engine.lock_holder(on) {
                    Some(h) if h != t => {
                        state.forced_chain += 1;
                        if state.forced_chain > engine.threads().len() {
                            // A cycle of lock holders: deadlock.
                            break;
                        }
                        state.forced.push(ForcedResume {
                            blocked: ThreadSel::of(engine, t),
                            holder: ThreadSel::of(engine, h),
                            lock: on,
                            seq: engine.trace().len(),
                        });
                        state.current = Some(h);
                        continue;
                    }
                    _ => {
                        // No holder (stale block) — retry the thread.
                        t
                    }
                }
            }
            _ => match pick_next(engine, schedule, state, None) {
                Some(t) => {
                    state.current = Some(t);
                    t
                }
                None => break,
            },
        };

        // Before-anchored scheduling point?
        if state.point_idx < schedule.points.len() {
            let p = &schedule.points[state.point_idx];
            if p.when == Anchor::Before && matches_point(engine, &state.exec_counts, cur, p) {
                state.triggered[state.point_idx] = true;
                state.consume();
                state.current = switch_target(engine, schedule, p, cur, state);
                if let Some(sink) = sink.as_deref_mut() {
                    sink.at_point(engine, schedule, cfg, state);
                }
                continue;
            }
        }

        match engine.step(cur) {
            Ok(StepOutcome::Executed(rec))
            | Ok(StepOutcome::Exited(rec))
            | Ok(StepOutcome::Failed(rec)) => {
                state.steps += 1;
                state.forced_chain = 0;
                *state.exec_counts.entry((cur, rec.at)).or_insert(0) += 1;
                // After-anchored scheduling point?
                if state.point_idx < schedule.points.len() {
                    let p = &schedule.points[state.point_idx];
                    if p.when == Anchor::After
                        && ThreadSel::of(engine, cur) == p.thread
                        && rec.at == p.at
                        && state.exec_counts.get(&(cur, p.at)).copied().unwrap_or(0) == p.nth + 1
                    {
                        state.triggered[state.point_idx] = true;
                        state.consume();
                        state.current = switch_target(engine, schedule, p, cur, state);
                        if let Some(sink) = sink.as_deref_mut() {
                            sink.at_point(engine, schedule, cfg, state);
                        }
                    }
                }
            }
            Ok(StepOutcome::Blocked { on }) => {
                // Lock contention: resume the holder until it releases.
                match engine.lock_holder(on) {
                    Some(h) if h != cur => {
                        state.forced.push(ForcedResume {
                            blocked: ThreadSel::of(engine, cur),
                            holder: ThreadSel::of(engine, h),
                            lock: on,
                            seq: engine.trace().len(),
                        });
                        state.current = Some(h);
                    }
                    _ => {
                        // Cannot make progress at all.
                        break;
                    }
                }
            }
            Err(_) => {
                state.clean = false;
                state.current = pick_next(engine, schedule, state, None);
                if state.current.is_none() {
                    break;
                }
            }
        }
    }

    // The kernel watchdog: no runnable thread, blocked threads remain —
    // an ABBA-style deadlock manifests as a hung-task report.
    let deadlock_cycle = state.forced_chain > engine.threads().len();
    let watchdog = if engine.failure().is_none() && (engine.deadlocked() || deadlock_cycle) {
        engine
            .threads()
            .iter()
            .find(|t| matches!(t.status, ThreadStatus::Blocked { .. }))
            .map(|t| ksim::Failure {
                kind: ksim::FailureKind::HungTask,
                at: engine.next_instr(t.id).unwrap_or(InstrAddr {
                    prog: t.prog,
                    index: t.pc,
                }),
                tid: t.id,
                addr: None,
                message: "blocked task never scheduled (watchdog)".into(),
            })
    } else {
        None
    };
    let threads = engine
        .threads()
        .iter()
        .map(|t| ThreadFinal {
            sel: ThreadSel {
                prog: t.prog,
                occurrence: t.occurrence,
            },
            status: t.status,
            next: engine.next_instr(t.id),
        })
        .collect();

    RunResult {
        trace: engine.trace().clone(),
        failure: engine.failure().cloned().or(watchdog),
        triggered: std::mem::take(&mut state.triggered),
        forced: std::mem::take(&mut state.forced),
        steps: state.steps,
        budget_exhausted: state.budget_exhausted,
        threads,
    }
}

fn matches_point(
    engine: &Engine,
    exec_counts: &FxHashMap<(ThreadId, InstrAddr), u32>,
    cur: ThreadId,
    p: &SchedPoint,
) -> bool {
    ThreadSel::of(engine, cur) == p.thread
        && engine.next_instr(cur) == Some(p.at)
        && exec_counts.get(&(cur, p.at)).copied().unwrap_or(0) == p.nth
}

fn switch_target(
    engine: &mut Engine,
    schedule: &Schedule,
    p: &SchedPoint,
    cur: ThreadId,
    state: &mut LoopState,
) -> Option<ThreadId> {
    advance_cursor_to(schedule, state, p.switch_to);
    match resolve_or_inject(engine, p.switch_to) {
        Some(t) if engine.thread(t).is_some_and(ksim::Thread::is_runnable) => Some(t),
        _ => pick_next(engine, schedule, state, Some(cur)),
    }
}

/// Resolves a selector, *injecting* the hardware-IRQ handler it names when
/// it has not fired yet — the hypervisor raising the interrupt at this
/// scheduling point (the paper's §4.6 case).
fn resolve_or_inject(engine: &mut Engine, sel: ThreadSel) -> Option<ThreadId> {
    if let Some(t) = sel.resolve(engine) {
        return Some(t);
    }
    if engine.program().irq_handlers.contains(&sel.prog) {
        return engine.inject_irq(sel.prog).ok();
    }
    None
}

/// Moves the segment cursor to the next segment of `sel` at or after its
/// current position (a triggered point realizes that segment boundary).
fn advance_cursor_to(schedule: &Schedule, state: &mut LoopState, sel: ThreadSel) {
    match schedule.segments[state.seg_cursor.min(schedule.segments.len())..]
        .iter()
        .position(|&s| s == sel)
    {
        Some(pos) => state.seg_cursor += pos,
        None => state.seg_exhausted = true,
    }
}

/// Picks the next thread at an unanchored boundary.
///
/// Preference order: the next *runnable* segment of the schedule's intended
/// order (skipping finished threads), then runnable background threads the
/// schedule never mentions (freshly spawned work runs when its spawner
/// yields, the paper's serial search orders), then the flat fallback list,
/// then any runnable thread. Any choice past the segment sequence makes the
/// run unclean.
fn pick_next(
    engine: &mut Engine,
    schedule: &Schedule,
    state: &mut LoopState,
    exclude: Option<ThreadId>,
) -> Option<ThreadId> {
    let start = state.seg_cursor.min(schedule.segments.len());
    for (i, &sel) in schedule.segments.iter().enumerate().skip(start) {
        if let Some(t) = resolve_or_inject(engine, sel) {
            if Some(t) != exclude && engine.thread(t).is_some_and(ksim::Thread::is_runnable) {
                state.seg_cursor = i;
                return Some(t);
            }
        }
    }
    state.seg_exhausted = true;
    state.clean = false;
    pick_fallback_excluding(engine, schedule, exclude)
}

/// The flat-list fallback (schedules without a segment sequence).
///
/// A fallback entry naming a not-yet-fired hardware-IRQ handler *injects*
/// it when consulted, exactly like a scheduling-point target: a serial
/// schedule ending in an IRQ selector runs the listed threads to completion
/// and then fires the interrupt (LIFS's handler probe runs).
fn pick_fallback_excluding(
    engine: &mut Engine,
    schedule: &Schedule,
    exclude: Option<ThreadId>,
) -> Option<ThreadId> {
    let runnable = engine.runnable();
    let listed = |sel: &ThreadSel| schedule.fallback.contains(sel);
    // Unlisted background threads first, in spawn (id) order.
    for &t in &runnable {
        if Some(t) == exclude {
            continue;
        }
        let sel = ThreadSel::of(engine, t);
        let kind_bg = engine.thread(t).is_some_and(|th| th.kind.is_background());
        if kind_bg && !listed(&sel) {
            return Some(t);
        }
    }
    for i in 0..schedule.fallback.len() {
        let sel = schedule.fallback[i];
        if let Some(t) = resolve_or_inject(engine, sel) {
            if Some(t) == exclude {
                continue;
            }
            if engine.thread(t).is_some_and(ksim::Thread::is_runnable) {
                return Some(t);
            }
        }
    }
    runnable.into_iter().find(|&t| Some(t) != exclude)
}

#[cfg(test)]
mod outcome_tests {
    use super::*;

    fn result(failure: Option<ksim::Failure>, triggered: Vec<bool>, exhausted: bool) -> RunResult {
        RunResult {
            trace: Trace::new(),
            failure,
            triggered,
            forced: Vec::new(),
            steps: 0,
            budget_exhausted: exhausted,
            threads: Vec::new(),
        }
    }

    fn some_failure() -> Option<ksim::Failure> {
        Some(ksim::Failure {
            kind: ksim::FailureKind::NullDeref,
            at: ksim::InstrAddr {
                prog: ksim::ThreadProgId(0),
                index: 0,
            },
            tid: ksim::ThreadId(0),
            addr: None,
            message: String::new(),
        })
    }

    #[test]
    fn outcome_priority_failed_over_timeout_over_diverged() {
        // A manifested failure wins even over an exhausted budget or an
        // unfired point.
        let r = result(some_failure(), vec![false], true);
        assert_eq!(r.outcome(), RunOutcome::Failed);
        // No failure + exhausted budget: timeout, even with unfired points.
        let r = result(None, vec![false], true);
        assert_eq!(r.outcome(), RunOutcome::Timeout);
        // No failure, budget fine, a point never fired: divergence.
        let r = result(None, vec![true, false], false);
        assert_eq!(r.outcome(), RunOutcome::Diverged);
        // Everything fired, nothing failed: passed.
        let r = result(None, vec![true, true], false);
        assert_eq!(r.outcome(), RunOutcome::Passed);
    }

    #[test]
    fn inconclusive_covers_timeout_only() {
        assert!(RunOutcome::Timeout.is_inconclusive());
        assert!(!RunOutcome::Passed.is_inconclusive());
        assert!(!RunOutcome::Failed.is_inconclusive());
        assert!(!RunOutcome::Diverged.is_inconclusive());
    }

    #[test]
    fn outcome_display_is_lowercase() {
        assert_eq!(RunOutcome::Passed.to_string(), "passed");
        assert_eq!(RunOutcome::Timeout.to_string(), "timeout");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::builder::ProgramBuilder;
    use ksim::ThreadProgId;
    use std::sync::Arc;

    /// Fig 1-shaped program: whether B crashes depends on the interleaving.
    fn fig1_program() -> Arc<ksim::Program> {
        let mut p = ProgramBuilder::new("fig1");
        let obj = p.static_obj("obj", 8);
        let ptr_valid = p.global("ptr_valid", 0);
        let ptr = p.global_ptr("ptr", obj);
        {
            let mut a = p.syscall_thread("A", "writer");
            a.n("A1").store_global(ptr_valid, 1u64);
            a.n("A2a").load_global("r0", ptr);
            a.n("A2b").load_ind("r1", "r0", 0); // *ptr
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "clearer");
            let out = b.new_label();
            b.n("B1a").load_global("r0", ptr_valid);
            b.n("B1b")
                .jmp_if(ksim::builder::cond_reg("r0", ksim::CmpOp::Eq, 0), out);
            b.n("B2").store_global(ptr, 0u64);
            b.place(out);
            b.ret();
        }
        Arc::new(p.build().unwrap())
    }

    fn sel(p: u16) -> ThreadSel {
        ThreadSel::first(ThreadProgId(p))
    }

    #[test]
    fn serial_schedules_do_not_fail() {
        for order in [vec![sel(0), sel(1)], vec![sel(1), sel(0)]] {
            let mut e = ksim::Engine::new(fig1_program());
            let r = run(&mut e, &Schedule::serial(order), &EnforceConfig::default());
            assert!(r.succeeded(), "serial order must not fail: {:?}", r.failure);
        }
    }

    #[test]
    fn enforced_interleaving_reproduces_null_deref() {
        // A1 ⇒ B1 ⇒ B2 ⇒ A2: suspend A before its ptr load (index 1),
        // let B run to completion, then resume A → NULL deref.
        let mut e = ksim::Engine::new(fig1_program());
        let r = run(&mut e, &fig1_failing(), &EnforceConfig::default());
        assert!(r.triggered[0]);
        let f = r.failure.expect("must fail");
        assert_eq!(f.kind, ksim::FailureKind::NullDeref);
    }

    #[test]
    fn disappeared_point_is_reported() {
        // Gate B at its (never-reached) store: run B first so ptr_valid is
        // still 0 and B returns early — the anchor B2 (index 2) disappears.
        let mut e = ksim::Engine::new(fig1_program());
        let schedule = Schedule {
            start: Some(sel(1)),
            points: vec![SchedPoint {
                thread: sel(1),
                at: InstrAddr {
                    prog: ThreadProgId(1),
                    index: 2,
                },
                nth: 0,
                when: Anchor::Before,
                switch_to: sel(0),
            }],
            fallback: vec![sel(1), sel(0)],
            segments: Vec::new(),
        };
        let r = run(&mut e, &schedule, &EnforceConfig::default());
        assert!(r.succeeded());
        assert_eq!(r.disappeared(), vec![0]);
    }

    #[test]
    fn after_anchor_switches_post_execution() {
        // Switch away from A right after A1 executes; B then sees
        // ptr_valid == 1 and stores NULL; A resumes and crashes.
        let mut e = ksim::Engine::new(fig1_program());
        let schedule = Schedule {
            start: Some(sel(0)),
            points: vec![SchedPoint {
                thread: sel(0),
                at: InstrAddr {
                    prog: ThreadProgId(0),
                    index: 0,
                },
                nth: 0,
                when: Anchor::After,
                switch_to: sel(1),
            }],
            fallback: vec![sel(1), sel(0)],
            segments: Vec::new(),
        };
        let r = run(&mut e, &schedule, &EnforceConfig::default());
        assert!(r.triggered[0]);
        assert_eq!(r.failure.expect("fails").kind, ksim::FailureKind::NullDeref);
    }

    #[test]
    fn forced_resume_on_suspended_lock_holder() {
        let mut p = ProgramBuilder::new("liveness");
        let x = p.global("x", 0);
        let l = p.lock("l");
        {
            let mut a = p.syscall_thread("A", "cs");
            a.lock(l); // 0
            a.store_global(x, 1u64); // 1
            a.unlock(l); // 2
            a.ret(); // 3
        }
        {
            let mut b = p.syscall_thread("B", "cs");
            b.lock(l);
            b.store_global(x, 2u64);
            b.unlock(l);
            b.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = ksim::Engine::new(prog);
        // Suspend A inside its critical section (before the unlock at 2),
        // switch to B — B blocks on the lock; the enforcer must resume A.
        let schedule = Schedule {
            start: Some(sel(0)),
            points: vec![SchedPoint {
                thread: sel(0),
                at: InstrAddr {
                    prog: ThreadProgId(0),
                    index: 2,
                },
                nth: 0,
                when: Anchor::Before,
                switch_to: sel(1),
            }],
            fallback: vec![sel(0), sel(1)],
            segments: Vec::new(),
        };
        let r = run(&mut e, &schedule, &EnforceConfig::default());
        assert!(r.succeeded(), "{:?}", r.failure);
        assert_eq!(r.forced.len(), 1);
        assert_eq!(r.forced[0].blocked, sel(1));
        assert_eq!(r.forced[0].holder, sel(0));
    }

    #[test]
    fn budget_exhaustion_reported() {
        let mut p = ProgramBuilder::new("spin");
        {
            let mut a = p.syscall_thread("A", "spin");
            let top = a.new_label();
            a.place(top);
            a.jmp(top);
            a.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = ksim::Engine::new(prog);
        let r = run(
            &mut e,
            &Schedule::serial(vec![sel(0)]),
            &EnforceConfig { step_budget: 100 },
        );
        assert!(r.budget_exhausted);
        assert!(!r.succeeded());
    }

    /// A before-A2 preemption of A in favour of B: the failing fig1 order.
    fn fig1_failing() -> Schedule {
        Schedule {
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
        }
    }

    /// A worker that has never run a schedule resumes from the prefix
    /// another worker deposited in the shared forest, and the result is
    /// bit-identical to a from-scratch run.
    #[test]
    fn forest_restores_match_fresh_runs() {
        let prog = fig1_program();
        let cfg = EnforceConfig::default();
        let failing = fig1_failing();
        let forest = SnapshotForest::new(64);

        let mut e1 = ksim::Engine::new(Arc::clone(&prog));
        let (first, start) = run_cached(&mut e1, &failing, &cfg, Some(&forest), None);
        assert_eq!(start, Start::Booted, "an empty forest boots fresh");
        assert!(!forest.is_empty(), "clean prefix deposited a checkpoint");

        let mut e2 = ksim::Engine::new(Arc::clone(&prog));
        let (second, start) = run_cached(&mut e2, &failing, &cfg, Some(&forest), None);
        assert!(
            matches!(start, Start::Restored { .. }),
            "prefix came from the forest"
        );

        // Without a forest nothing is looked up or deposited.
        let (third, start) = run_cached(&mut e2, &failing, &cfg, None, None);
        assert_eq!(start, Start::Unconsulted);

        let mut fresh = ksim::Engine::new(Arc::clone(&prog));
        let reference = run(&mut fresh, &failing, &cfg);
        for r in [&first, &second, &third] {
            assert_eq!(r.failure, reference.failure);
            assert_eq!(r.triggered, reference.triggered);
            assert_eq!(r.steps, reference.steps);
            assert_eq!(r.trace.to_vec(), reference.trace.to_vec());
            assert_eq!(r.forced, reference.forced);
        }
    }

    /// Forest entries are keyed by program *identity*: a structurally
    /// identical but distinct program allocation never matches.
    #[test]
    fn forest_is_keyed_by_program_identity() {
        let cfg = EnforceConfig::default();
        let failing = fig1_failing();
        let forest = SnapshotForest::new(64);
        let mut e1 = ksim::Engine::new(fig1_program());
        let _ = run_cached(&mut e1, &failing, &cfg, Some(&forest), None);
        assert!(!forest.is_empty());

        // Same program *contents*, different allocation: no restore.
        let mut e2 = ksim::Engine::new(fig1_program());
        let (_, start) = run_cached(&mut e2, &failing, &cfg, Some(&forest), None);
        assert_eq!(start, Start::Booted);
    }

    /// A runs six steps, B and C three each; no interleaving fails.
    fn three_counters() -> Arc<ksim::Program> {
        let mut p = ProgramBuilder::new("counters");
        let x = p.global("x", 0);
        for (name, steps) in [("A", 6), ("B", 3), ("C", 3)] {
            let mut t = p.syscall_thread(name, "bump");
            for _ in 0..steps {
                t.fetch_add_global(x, 1u64);
            }
            t.ret();
        }
        Arc::new(p.build().unwrap())
    }

    /// A preempted before its instruction `at` in favour of `to`, then the
    /// segments A, `to`, A.
    fn preempt_a(at: usize, to: u16) -> Schedule {
        Schedule {
            start: Some(sel(0)),
            points: vec![SchedPoint {
                thread: sel(0),
                at: InstrAddr {
                    prog: ThreadProgId(0),
                    index: at,
                },
                nth: 0,
                when: Anchor::Before,
                switch_to: sel(to),
            }],
            fallback: vec![sel(to), sel(0)],
            segments: vec![sel(0), sel(to), sel(0)],
        }
    }

    /// Hinted runs restore a step checkpoint only into a schedule that
    /// agrees on what the depositing run consulted: a schedule that
    /// consumed another point on the way, or whose next point would have
    /// fired before the checkpoint's step, boots fresh instead. Every
    /// result equals a fresh run's.
    #[test]
    fn step_checkpoints_are_refused_by_schedules_that_consumed_another_point() {
        let prog = three_counters();
        let cfg = EnforceConfig::default();
        let forest = SnapshotForest::new(64);
        let deposits = [3, 4];
        let hinted = |schedule: &Schedule, shared: usize| {
            let mut e = ksim::Engine::new(Arc::clone(&prog));
            let hint = PrefixHint {
                shared,
                deposits: &deposits,
            };
            let (got, start) = run_cached(&mut e, schedule, &cfg, Some(&forest), Some(hint));
            let mut fresh = ksim::Engine::new(Arc::clone(&prog));
            assert_eq!(got, run(&mut fresh, schedule, &cfg), "{schedule:?}");
            start
        };

        // A's first four steps, no point consumed: deposits at steps 3 and 4.
        assert_eq!(hinted(&preempt_a(4, 1), 4), Start::Booted);
        // Same consumed prefix, another next point that stays inert until
        // step 4: restored there.
        assert_eq!(hinted(&preempt_a(4, 2), 4), Start::Restored { steps: 4 });
        // Its point fires before step 3 (A is preempted after two steps):
        // both of A's checkpoints are refused.
        assert_eq!(hinted(&preempt_a(2, 1), 4), Start::Booted);
        // That run consumed its point at step 2 and deposited at step 4.
        // Switching to C there instead consumes another point: refused.
        assert_eq!(hinted(&preempt_a(2, 2), 4), Start::Booted);
        assert_eq!(hinted(&preempt_a(2, 1), 4), Start::Restored { steps: 4 });
    }

    /// The full-schedule fingerprint distinguishes schedules that share a
    /// point prefix but differ in fallback order or suffix.
    #[test]
    fn schedule_fingerprint_covers_the_whole_schedule() {
        let cfg = EnforceConfig::default();
        let base = Schedule {
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
        assert_eq!(
            schedule_fingerprint(&base, &cfg),
            schedule_fingerprint(&base.clone(), &cfg)
        );
        let mut flipped = base.clone();
        flipped.fallback = vec![sel(0), sel(1)];
        assert_ne!(
            schedule_fingerprint(&base, &cfg),
            schedule_fingerprint(&flipped, &cfg)
        );
        let tighter = EnforceConfig { step_budget: 7 };
        assert_ne!(
            schedule_fingerprint(&base, &cfg),
            schedule_fingerprint(&base, &tighter)
        );
    }

    /// Three threads contend for two locks over four rounds. In each round
    /// the holder of L2 is preempted twice, and A, blocked on L2, is
    /// resumed once through its holder: one forced-resume hop per round,
    /// each followed by executed steps. Only consecutive hops without a
    /// step form a lock cycle, so all twenty points fire and nothing hangs.
    #[test]
    fn forced_resume_hops_separated_by_steps_are_no_lock_cycle() {
        const ROUNDS: usize = 4;
        let mut p = ProgramBuilder::new("hops");
        let x = p.global("x", 0);
        let (l1, l2) = (p.lock("l1"), p.lock("l2"));
        {
            let mut a = p.syscall_thread("A", "nest");
            for _ in 0..ROUNDS {
                a.lock(l1);
                a.lock(l2);
                a.unlock(l2);
                a.unlock(l1);
            }
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "outer");
            for _ in 0..ROUNDS {
                b.lock(l1);
                b.unlock(l1);
            }
            b.ret();
        }
        {
            let mut c = p.syscall_thread("C", "inner");
            for _ in 0..ROUNDS {
                c.lock(l2);
                c.store_global(x, 1u64);
                c.unlock(l2);
            }
            c.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let point = |thread: u16, index: usize, when: Anchor, to: u16| SchedPoint {
            thread: sel(thread),
            at: InstrAddr {
                prog: ThreadProgId(thread),
                index,
            },
            nth: 0,
            when,
            switch_to: sel(to),
        };
        // The code is unrolled, so every instruction runs once (`nth` 0);
        // a round's "next lock" is the final `ret` in the last round.
        let points = (0..ROUNDS)
            .flat_map(|r| {
                [
                    point(2, 3 * r, Anchor::After, 0),
                    point(2, 3 * r + 1, Anchor::Before, 1),
                    point(2, 3 * r + 3, Anchor::Before, 0),
                    point(0, 4 * r + 4, Anchor::Before, 1),
                    point(1, 2 * r + 2, Anchor::Before, 2),
                ]
            })
            .collect();
        let schedule = Schedule {
            start: Some(sel(2)),
            points,
            fallback: vec![sel(2), sel(0), sel(1)],
            segments: Vec::new(),
        };
        let mut e = ksim::Engine::new(prog);
        let r = run(&mut e, &schedule, &EnforceConfig::default());
        assert_eq!(r.failure, None, "a false lock cycle");
        assert_eq!(r.triggered, vec![true; 5 * ROUNDS]);
        assert_eq!(
            r.forced.iter().filter(|f| f.blocked == sel(0)).count(),
            2 * ROUNDS
        );
    }

    #[test]
    fn final_thread_states_reported() {
        let mut e = ksim::Engine::new(fig1_program());
        let r = run(
            &mut e,
            &Schedule::serial(vec![sel(0), sel(1)]),
            &EnforceConfig::default(),
        );
        assert_eq!(r.threads.len(), 2);
        assert!(r
            .threads
            .iter()
            .all(|t| t.status == ThreadStatus::Exited && t.next.is_none()));
    }
}

#[cfg(test)]
mod segment_tests {
    use super::*;
    use ksim::builder::ProgramBuilder;
    use ksim::ThreadProgId;
    use std::sync::Arc;

    /// Three threads where the middle one exits at a boundary: the segment
    /// cursor must hand control to the *next intended* thread, which a flat
    /// preference list cannot always express.
    #[test]
    fn segment_cursor_follows_intended_order() {
        let mut p = ProgramBuilder::new("segs");
        let x = p.global("x", 0);
        for name in ["A", "B", "C"] {
            let mut t = p.syscall_thread(name, "s");
            t.fetch_add_global(x, 1u64);
            t.fetch_add_global(x, 1u64);
            t.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let sel = |i: u16| ThreadSel::first(ThreadProgId(i));
        // Intended order: B fully, then A fully, then C fully — B and A
        // exit at their boundaries, so no anchors exist and only the
        // segment sequence carries the intent.
        let intended = vec![sel(1), sel(0), sel(2)];
        let schedule = Schedule {
            start: Some(sel(1)),
            points: Vec::new(),
            fallback: intended.clone(),
            segments: intended,
        };
        let mut e = ksim::Engine::new(Arc::clone(&prog));
        let r = run(&mut e, &schedule, &EnforceConfig::default());
        assert!(r.succeeded());
        let tids: Vec<u32> = r.trace.iter().map(|rec| rec.tid.0).collect();
        assert_eq!(tids, vec![1, 1, 1, 0, 0, 0, 2, 2, 2], "{tids:?}");
    }

    /// A schedule point whose target names an unfired IRQ handler injects
    /// it (the §4.6 extension at the enforcement layer).
    #[test]
    fn schedule_point_injects_irq_handler() {
        let mut p = ProgramBuilder::new("irq-enf");
        let x = p.global("x", 0);
        let irq = {
            let mut h = p.irq_thread("irq");
            h.store_global(x, 9u64);
            h.ret();
            h.id()
        };
        {
            let mut a = p.syscall_thread("A", "s");
            a.fetch_add_global(x, 1u64);
            a.fetch_add_global(x, 1u64);
            a.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        // The syscall program id follows the handler's.
        let a_prog = prog.initial[0];
        let schedule = Schedule {
            start: Some(ThreadSel::first(a_prog)),
            points: vec![SchedPoint {
                thread: ThreadSel::first(a_prog),
                at: InstrAddr {
                    prog: a_prog,
                    index: 1,
                },
                nth: 0,
                when: crate::schedule::Anchor::Before,
                switch_to: ThreadSel::first(irq),
            }],
            fallback: vec![ThreadSel::first(a_prog)],
            segments: Vec::new(),
        };
        let mut e = ksim::Engine::new(Arc::clone(&prog));
        let r = run(&mut e, &schedule, &EnforceConfig::default());
        assert!(r.succeeded(), "{:?}", r.failure);
        assert!(r.triggered[0], "injection point fired");
        // IRQ stored 9 between A's two increments: final value 9 + 1 = 10.
        assert_eq!(e.peek(x.addr()), 10);
    }
}
