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
use std::collections::HashMap;
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
/// Enforced schedules on real VMs do not just pass or fail: race-steered
/// control flow can make an awaited instruction never arrive (the schedule
/// *diverges*), a livelock can eat the whole step budget (the run *times
/// out*), and the VM itself can die under the run (the exec layer's
/// *crashed* — never produced by enforcement itself). Every consumer —
/// LIFS round folding, causality flip verdicts, the manager's fan-out —
/// branches on this taxonomy instead of re-deriving it from raw fields.
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
    /// nothing in either direction: it neither passed nor failed.
    Timeout,
    /// The worker VM died under the run (exec-layer fault injection or a
    /// real crash). Only [`crate::exec`] produces this variant;
    /// [`RunResult::outcome`] never returns it.
    Crashed,
}

impl RunOutcome {
    /// Whether the run's result carries no diagnostic signal: the schedule
    /// was never actually driven to completion, so neither "failed" nor
    /// "did not fail" may be concluded from it.
    #[must_use]
    pub fn is_inconclusive(self) -> bool {
        matches!(self, RunOutcome::Timeout | RunOutcome::Crashed)
    }
}

impl std::fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RunOutcome::Passed => "passed",
            RunOutcome::Failed => "failed",
            RunOutcome::Diverged => "diverged",
            RunOutcome::Timeout => "timeout",
            RunOutcome::Crashed => "crashed",
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
    /// clean pass. Never [`RunOutcome::Crashed`] — VM death is observed by
    /// the exec layer, not by enforcement.
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
/// snapshot taken at a point boundary (the executor's [`SnapshotForest`])
/// instead of always starting from a fresh boot.
struct LoopState {
    triggered: Vec<bool>,
    forced: Vec<ForcedResume>,
    steps: usize,
    budget_exhausted: bool,
    point_idx: usize,
    exec_counts: HashMap<(ThreadId, InstrAddr), u32>,
    current: Option<ThreadId>,
    /// Cursor into the schedule's intended segment sequence (when present).
    seg_cursor: usize,
    /// Consecutive forced-resume hops without an executed step: a chain
    /// longer than the thread count is a lock cycle (ABBA deadlock).
    forced_chain: usize,
    /// Whether every scheduling decision so far was dictated by the
    /// schedule's points alone (no fallback/segment consultation). Only
    /// clean prefixes are deposited in the snapshot forest: a fallback
    /// decision depends on schedule parts *outside* the point prefix, so
    /// the resulting state would not be reusable across sibling schedules.
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
            exec_counts: HashMap::new(),
            current,
            seg_cursor: 0,
            forced_chain: 0,
            clean: true,
            checkpointed: 0,
        }
    }
}

/// An engine checkpoint plus the enforcement-loop state at the moment the
/// `consumed`-th scheduling point was consumed. Restoring both resumes the
/// run exactly where a from-scratch execution of the same prefix would be.
#[derive(Clone)]
struct SavedPrefix {
    consumed: usize,
    snapshot: Snapshot,
    triggered: Vec<bool>,
    forced: Vec<ForcedResume>,
    steps: usize,
    exec_counts: HashMap<(ThreadId, InstrAddr), u32>,
    current: Option<ThreadId>,
    forced_chain: usize,
}

impl SavedPrefix {
    fn resume(&self, schedule: &Schedule) -> LoopState {
        let mut triggered = self.triggered.clone();
        triggered.resize(schedule.points.len(), false);
        LoopState {
            triggered,
            forced: self.forced.clone(),
            steps: self.steps,
            budget_exhausted: false,
            point_idx: self.consumed,
            exec_counts: self.exec_counts.clone(),
            current: self.current,
            seg_cursor: 0,
            forced_chain: self.forced_chain,
            clean: true,
            checkpointed: self.consumed,
        }
    }
}

/// Hash of everything a clean prefix's engine state can depend on: the
/// start selector, the first `k` scheduling points (all fields), and the
/// step budget.
fn prefix_key(schedule: &Schedule, k: usize, cfg: &EnforceConfig) -> u64 {
    use std::hash::{
        Hash,
        Hasher, //
    };
    let mut h = std::collections::hash_map::DefaultHasher::new();
    cfg.step_budget.hash(&mut h);
    match schedule.start {
        Some(s) => (1u8, s.prog.0, s.occurrence).hash(&mut h),
        None => 0u8.hash(&mut h),
    }
    k.hash(&mut h);
    for p in &schedule.points[..k] {
        (p.thread.prog.0, p.thread.occurrence).hash(&mut h);
        (p.at.prog.0, p.at.index).hash(&mut h);
        p.nth.hash(&mut h);
        u8::from(p.when == Anchor::After).hash(&mut h);
        (p.switch_to.prog.0, p.switch_to.occurrence).hash(&mut h);
    }
    h.finish()
}

/// Canonical fingerprint of everything an execution's outcome can depend
/// on: the step budget and the *entire* schedule — start selector, every
/// scheduling point (all fields), the fallback list, and the segment
/// sequence. Enforcement is deterministic, so two jobs over the same
/// program whose fingerprints (and, verified by the caller, full
/// schedules) agree drive the engine identically and their outputs are
/// interchangeable — the keying rule of the exec-layer memo table.
pub(crate) fn schedule_fingerprint(schedule: &Schedule, cfg: &EnforceConfig) -> u64 {
    use std::hash::{
        Hash,
        Hasher, //
    };
    let mut h = std::collections::hash_map::DefaultHasher::new();
    cfg.step_budget.hash(&mut h);
    match schedule.start {
        Some(s) => (1u8, s.prog.0, s.occurrence).hash(&mut h),
        None => 0u8.hash(&mut h),
    }
    schedule.points.len().hash(&mut h);
    for p in &schedule.points {
        (p.thread.prog.0, p.thread.occurrence).hash(&mut h);
        (p.at.prog.0, p.at.index).hash(&mut h);
        p.nth.hash(&mut h);
        u8::from(p.when == Anchor::After).hash(&mut h);
        (p.switch_to.prog.0, p.switch_to.occurrence).hash(&mut h);
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

/// One forest entry: prefix hash, pinned program identity, and the
/// checkpoint itself.
type ForestEntry = (u64, Arc<ksim::Program>, SavedPrefix);

/// A thread-safe store of engine checkpoints keyed by schedule-point
/// prefix — the executor's only checkpoint store.
///
/// LIFS explores many sibling schedules that differ only in their final
/// preemptions; the shared prefix of scheduling points produces — by
/// sequential consistency — bit-identical engine states. Instead of
/// rebooting and replaying the prefix for every sibling, a worker restores
/// the longest clean prefix *any* worker of any executor sharing the
/// forest has built, and executes only the divergent suffix.
/// [`ksim::Snapshot`] handles are `Arc`-backed, so sharing is a
/// reference-count bump, never a deep copy.
///
/// Invariants (see DESIGN.md §5):
///
/// * only **clean** prefixes are stored — every control transfer up to the
///   checkpoint was dictated by the point list itself, never by the
///   fallback picker or segment cursor, so the state depends on nothing
///   but `(program, start, points[..k], step_budget)`;
/// * schedules carrying a segment sequence are never stored (the segment
///   cursor consults the whole schedule);
/// * entries are keyed by the prefix hash and program identity
///   (`Arc::ptr_eq`): the held `Arc<Program>` pins the allocation, so a
///   live entry's pointer can never alias a recycled address, and the
///   forest never needs clearing when an engine switches programs.
pub struct SnapshotForest {
    cap: usize,
    /// LRU order: least-recently-used first.
    entries: Mutex<Vec<ForestEntry>>,
}

impl SnapshotForest {
    /// Creates a forest holding at most `cap` checkpoints (0 disables it).
    #[must_use]
    pub fn new(cap: usize) -> SnapshotForest {
        SnapshotForest {
            cap,
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Number of checkpoints currently held.
    ///
    /// # Panics
    ///
    /// Panics when the interior lock is poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// Whether the forest holds no checkpoints.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn get(&self, program: &Arc<ksim::Program>, key: u64) -> Option<SavedPrefix> {
        let mut entries = self.entries.lock().unwrap();
        let pos = entries
            .iter()
            .position(|(k, p, _)| *k == key && Arc::ptr_eq(p, program))?;
        let entry = entries.remove(pos);
        let saved = entry.2.clone();
        entries.push(entry);
        Some(saved)
    }

    fn put(&self, key: u64, program: &Arc<ksim::Program>, saved: SavedPrefix) {
        if self.cap == 0 {
            return;
        }
        let mut entries = self.entries.lock().unwrap();
        if let Some(pos) = entries
            .iter()
            .position(|(k, p, _)| *k == key && Arc::ptr_eq(p, program))
        {
            entries.remove(pos);
        }
        entries.push((key, Arc::clone(program), saved));
        while entries.len() > self.cap {
            entries.remove(0);
        }
    }
}

/// Deposits a checkpoint for the just-consumed point prefix, when eligible.
fn maybe_checkpoint(
    engine: &Engine,
    schedule: &Schedule,
    cfg: &EnforceConfig,
    state: &mut LoopState,
    forest: Option<&SnapshotForest>,
) {
    let Some(forest) = forest else {
        return;
    };
    if !state.clean || state.point_idx <= state.checkpointed || engine.halted() {
        return;
    }
    let k = state.point_idx;
    let saved = SavedPrefix {
        consumed: k,
        snapshot: engine.snapshot(),
        triggered: state.triggered[..k].to_vec(),
        forced: state.forced.clone(),
        steps: state.steps,
        exec_counts: state.exec_counts.clone(),
        current: state.current,
        forced_chain: state.forced_chain,
    };
    forest.put(prefix_key(schedule, k, cfg), engine.program(), saved);
    state.checkpointed = k;
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

/// Runs `engine` under `schedule`, resuming from the longest clean prefix
/// checkpoint `forest` holds for the engine's program.
///
/// Unlike [`run`], the engine need *not* be freshly booted: this function
/// either restores a checkpoint or reboots the engine itself. While a run
/// consumes scheduling points cleanly it deposits a checkpoint into the
/// forest after each, so sibling schedules sharing the prefix skip
/// straight past it. The returned [`RunResult`] is bit-for-bit what [`run`]
/// on a fresh engine would produce.
///
/// The second value is `Some(restored)` when the forest was consulted and
/// `None` when it was not: no forest, no scheduling points, or a segment
/// sequence (the segment cursor makes control flow depend on the whole
/// schedule rather than the point prefix, so such states are not reusable
/// across schedules).
#[must_use]
pub fn run_cached(
    engine: &mut Engine,
    schedule: &Schedule,
    cfg: &EnforceConfig,
    forest: Option<&SnapshotForest>,
) -> (RunResult, Option<bool>) {
    let forest = forest.filter(|_| schedule.segments.is_empty() && !schedule.points.is_empty());
    let Some(f) = forest else {
        engine.reboot();
        return (run(engine, schedule, cfg), None);
    };
    let saved = (1..=schedule.points.len())
        .rev()
        .find_map(|k| f.get(engine.program(), prefix_key(schedule, k, cfg)));
    let mut state = match &saved {
        Some(saved) => {
            engine.restore(&saved.snapshot);
            saved.resume(schedule)
        }
        None => {
            engine.reboot();
            LoopState::fresh(engine, schedule)
        }
    };
    let run = drive(engine, schedule, cfg, &mut state, forest);
    (run, Some(saved.is_some()))
}

fn drive(
    engine: &mut Engine,
    schedule: &Schedule,
    cfg: &EnforceConfig,
    state: &mut LoopState,
    forest: Option<&SnapshotForest>,
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
            match pick_next(engine, schedule, &mut state.seg_cursor, None) {
                Some(t) => state.current = Some(t),
                None => break,
            }
        }
        if state.steps >= cfg.step_budget {
            state.budget_exhausted = true;
            break;
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
                state.point_idx += 1;
                if let Some(t) = schedule.points[state.point_idx - 1]
                    .switch_to
                    .resolve(engine)
                {
                    if engine.thread(t).is_some_and(ksim::Thread::is_runnable) {
                        state.current = Some(t);
                    }
                }
            } else {
                break;
            }
        }
        maybe_checkpoint(engine, schedule, cfg, state, forest);

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
            _ => {
                state.clean = false;
                match pick_next(engine, schedule, &mut state.seg_cursor, None) {
                    Some(t) => {
                        state.current = Some(t);
                        t
                    }
                    None => break,
                }
            }
        };

        // Before-anchored scheduling point?
        if state.point_idx < schedule.points.len() {
            let p = &schedule.points[state.point_idx];
            if p.when == Anchor::Before && matches_point(engine, &state.exec_counts, cur, p) {
                state.triggered[state.point_idx] = true;
                state.point_idx += 1;
                state.current = switch_target(
                    engine,
                    schedule,
                    p,
                    cur,
                    &mut state.seg_cursor,
                    &mut state.clean,
                );
                maybe_checkpoint(engine, schedule, cfg, state, forest);
                continue;
            }
        }

        match engine.step(cur) {
            Ok(StepOutcome::Executed(rec))
            | Ok(StepOutcome::Exited(rec))
            | Ok(StepOutcome::Failed(rec)) => {
                state.steps += 1;
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
                        state.point_idx += 1;
                        state.current = switch_target(
                            engine,
                            schedule,
                            p,
                            cur,
                            &mut state.seg_cursor,
                            &mut state.clean,
                        );
                        maybe_checkpoint(engine, schedule, cfg, state, forest);
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
                state.current = pick_next(engine, schedule, &mut state.seg_cursor, None);
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
    exec_counts: &HashMap<(ThreadId, InstrAddr), u32>,
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
    seg_cursor: &mut usize,
    clean: &mut bool,
) -> Option<ThreadId> {
    advance_cursor_to(schedule, seg_cursor, p.switch_to);
    match resolve_or_inject(engine, p.switch_to) {
        Some(t) if engine.thread(t).is_some_and(ksim::Thread::is_runnable) => Some(t),
        _ => {
            *clean = false;
            pick_next(engine, schedule, seg_cursor, Some(cur))
        }
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
fn advance_cursor_to(schedule: &Schedule, seg_cursor: &mut usize, sel: ThreadSel) {
    if let Some(pos) = schedule.segments[(*seg_cursor).min(schedule.segments.len())..]
        .iter()
        .position(|&s| s == sel)
    {
        *seg_cursor += pos;
    }
}

/// Picks the next thread at an unanchored boundary.
///
/// Preference order: the next *runnable* segment of the schedule's intended
/// order (skipping finished threads), then runnable background threads the
/// schedule never mentions (freshly spawned work runs when its spawner
/// yields, the paper's serial search orders), then the flat fallback list,
/// then any runnable thread.
fn pick_next(
    engine: &mut Engine,
    schedule: &Schedule,
    seg_cursor: &mut usize,
    exclude: Option<ThreadId>,
) -> Option<ThreadId> {
    let start = (*seg_cursor).min(schedule.segments.len());
    for off in 0..schedule.segments.len().saturating_sub(start) {
        let sel = schedule.segments[start + off];
        if let Some(t) = resolve_or_inject(engine, sel) {
            if Some(t) != exclude && engine.thread(t).is_some_and(ksim::Thread::is_runnable) {
                *seg_cursor = start + off;
                return Some(t);
            }
        }
    }
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
    fn inconclusive_covers_timeout_and_crashed_only() {
        assert!(RunOutcome::Timeout.is_inconclusive());
        assert!(RunOutcome::Crashed.is_inconclusive());
        assert!(!RunOutcome::Passed.is_inconclusive());
        assert!(!RunOutcome::Failed.is_inconclusive());
        assert!(!RunOutcome::Diverged.is_inconclusive());
    }

    #[test]
    fn outcome_display_is_lowercase() {
        assert_eq!(RunOutcome::Passed.to_string(), "passed");
        assert_eq!(RunOutcome::Crashed.to_string(), "crashed");
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
        let (first, looked_up) = run_cached(&mut e1, &failing, &cfg, Some(&forest));
        assert_eq!(looked_up, Some(false), "an empty forest boots fresh");
        assert!(!forest.is_empty(), "clean prefix deposited a checkpoint");

        let mut e2 = ksim::Engine::new(Arc::clone(&prog));
        let (second, looked_up) = run_cached(&mut e2, &failing, &cfg, Some(&forest));
        assert_eq!(looked_up, Some(true), "prefix came from the forest");

        // Without a forest nothing is looked up or deposited.
        let (third, looked_up) = run_cached(&mut e2, &failing, &cfg, None);
        assert_eq!(looked_up, None);

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
        let _ = run_cached(&mut e1, &failing, &cfg, Some(&forest));
        assert!(!forest.is_empty());

        // Same program *contents*, different allocation: no restore.
        let mut e2 = ksim::Engine::new(fig1_program());
        let (_, looked_up) = run_cached(&mut e2, &failing, &cfg, Some(&forest));
        assert_eq!(looked_up, Some(false));
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
