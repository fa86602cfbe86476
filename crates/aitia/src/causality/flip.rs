//! Flip planning: turning "reverse this one data race" into a schedule.
//!
//! Causality Analysis tests a data race by executing the kernel with the
//! race's interleaving order *flipped* while the remaining orders stay as in
//! the failure-causing sequence (§3.4). The flipped total order is the
//! failing trace with one thread's window of steps moved later, and the
//! planner realizes it as scheduling points:
//!
//! * **both ends executed** — the first end's thread is delayed at the first
//!   access until the second end has executed (the delayed window carries
//!   the thread's intervening steps with it);
//! * **second end pending** (Figure 6 step 1, `B17 ⇒ A12`) — the first
//!   end's thread is delayed while the pending thread's projected
//!   continuation (from its solo trace) runs up to and past the pending
//!   instruction;
//! * **critical sections as units** (§3.4 liveness) — when an end lies
//!   inside a lock-protected region, the whole region moves, not the single
//!   instruction;
//! * **nested races** (Figure 7) — a race nested inside the flipped window
//!   is unavoidably flipped along; the planner reports exactly which, so the
//!   analysis can issue an ambiguity verdict when needed.
//!
//! A failing trace is long, but it runs in only a few thread segments (2–4
//! in every corpus bug), so a flip's schedule is a handful of points. LIFS
//! builds a `FlipIndex` of the trace once per failing run, and
//! [`plan_flip`] cuts the indexed segments at the window instead of
//! walking the trace: its cost per race grows with segments and races,
//! not with trace length. Its schedules are byte-identical to compressing
//! the flipped order step by step, the construction `tests/flip_plan.rs`
//! keeps as its reference, so memo keys, journal records and digests do
//! not depend on how the plan was built.

use crate::enforce::{
    EnforceConfig,
    RunResult,
    ThreadFinal, //
};
use crate::{
    exec::ExecJob,
    fxhash::FxHashMap,
    lifs::FailingRun,
    race::{
        critical_section_span,
        ObservedRace,
        RaceEnd, //
    },
    schedule::{
        Anchor,
        SchedPoint,
        Schedule,
        ThreadSel, //
    },
};
use ksim::{
    trace::Projection,
    InstrAddr,
    ThreadId,
    Trace, //
};
use std::collections::HashMap;
use std::sync::Arc;

/// Whether a flip run averted `original`. A different failure (other kind
/// or site) still counts as averting the original one; livelock/budget
/// exhaustion conservatively counts as *not* averted — callers must check
/// [`crate::enforce::RunOutcome::is_inconclusive`] first so a timed-out
/// flip surfaces as ambiguous rather than benign.
#[must_use]
pub fn failure_averted(original: &ksim::Failure, res: &RunResult) -> bool {
    match &res.failure {
        None => !res.budget_exhausted,
        Some(f) => !(f.kind == original.kind && f.at == original.at),
    }
}

/// The sequence window `[start..=end]` over which flipping `race` delays
/// the first end's thread, plus whether a critical section grew it. This is
/// the exact geometry [`plan_flip`] realizes for executed-second races; the
/// static benign prover ([`super::invariants`]) reasons over the same
/// window, so the two can never disagree about what a flip reorders.
/// `None` when the second end is pending — those flips extend to the end of
/// the trace and append a projected tail, geometry the prover does not
/// model.
///
/// The cost is that of [`critical_section_span`]: the critical sections
/// around the two ends, walked step by step. Without `cs_as_unit` it is
/// O(1).
#[must_use]
pub fn flip_window(
    trace: &ksim::Trace,
    race: &ObservedRace,
    cs_as_unit: bool,
) -> Option<(usize, usize, bool)> {
    let second_seq = race.second.seq()?;
    let (start, mut cs_expanded) = window_start(trace, race, cs_as_unit);
    let mut end = second_seq;
    if cs_as_unit {
        if let Some((_, cs_end)) = critical_section_span(trace, second_seq) {
            if cs_end > end {
                end = cs_end;
                cs_expanded = true;
            }
        }
    }
    Some((start, end, cs_expanded))
}

/// Where a flip's delayed window starts: at the first access, or at the
/// start of its enclosing critical section (and whether that grew it).
fn window_start(trace: &Trace, race: &ObservedRace, cs_as_unit: bool) -> (usize, bool) {
    let start = race.first.seq;
    if cs_as_unit {
        if let Some((cs_start, _)) = critical_section_span(trace, start) {
            if cs_start < start {
                return (cs_start, true);
            }
        }
    }
    (start, false)
}

/// A planned flip: the schedule plus what else the flip necessarily moves.
#[derive(Clone, Debug)]
pub struct FlipPlan {
    /// The race under test.
    pub race: ObservedRace,
    /// Races from `others` whose order the window move also reverses
    /// (nested races, Figure 7).
    pub also_flipped: Vec<ObservedRace>,
    /// The schedule realizing the flip.
    pub schedule: Schedule,
    /// Whether a critical section forced the window to grow.
    pub cs_expanded: bool,
    /// How many leading steps the flipped order shares with the failing
    /// trace: the window's start. The flip's run executes the failing run's
    /// first `shared_steps` steps and leaves its trace right there
    /// (`tests/flip_plan.rs` checks both on every corpus and generated
    /// race), so flips of one run can resume from each other's checkpoints;
    /// [`FlipPlan::job`] hands it to the executor as
    /// [`ExecJob::shared_steps`].
    pub shared_steps: usize,
}

impl FlipPlan {
    /// The executor job of this flip on `run`'s program, hinted with
    /// [`FlipPlan::shared_steps`].
    #[must_use]
    pub fn job(&self, run: &FailingRun, enforce: EnforceConfig) -> ExecJob {
        ExecJob {
            program: Arc::clone(&run.program),
            schedule: self.schedule.clone(),
            enforce,
            shared_steps: Some(self.shared_steps),
        }
    }
}

/// Plans the flip of `race` against the failing run, preserving the orders
/// of `others` where geometrically possible.
///
/// `cs_as_unit` enables the §3.4 liveness rule (critical sections move as
/// units); disabling it is the ablation.
///
/// The flipped total order is the failing trace cut at the window: the
/// steps before it, the other threads' steps inside it, the pending
/// thread's projected tail (pending-second races only), the delayed window
/// of the first end's thread, and the steps after it. The schedule has one
/// scheduling point per context switch of that order, anchored *before*
/// the suspended thread's next step in it (or before the instruction it is
/// parked at when it never runs again), with the thread resumed by the
/// switch; its fallback lists the threads by the position of their last
/// step in the order, and its segment sequence is the order's thread
/// sequence. The run's `FlipIndex` supplies the trace's thread segments
/// and each anchor's `nth`, so planning walks segments, never steps: the
/// cost per race is O(segments + races) plus its critical sections
/// ([`flip_window`]) and, for a pending second end, its projected tail.
///
/// Planning is a pure function of its inputs: the same run, race, and flags
/// always yield an identical plan and schedule. Cross-run memoization in
/// [`crate::exec`] leans on this — Phase A and Phase C plan the same flip
/// for a root cause, produce the same schedule fingerprint, and the Phase C
/// re-run is answered from the memo table without touching a VM.
#[must_use]
pub fn plan_flip(
    run: &FailingRun,
    race: &ObservedRace,
    others: &[ObservedRace],
    cs_as_unit: bool,
) -> FlipPlan {
    let trace = &run.trace;
    let index = &run.flip_index;
    let first_tid = race.first.tid;

    // The window of the first thread's steps to delay starts at the first
    // access — or at the enclosing critical section's start — and re-enters
    // after the second access (and past its critical section, when
    // applicable). Pending-second races extend to the end of the trace and
    // append the pending thread's projected continuation.
    let (window_start, resume_after, pending, cs_expanded) = match &race.second {
        RaceEnd::Executed(_) => {
            let (start, end, grew) =
                flip_window(trace, race, cs_as_unit).expect("executed second end has a window");
            (start, end, None, grew)
        }
        RaceEnd::Pending { tid, at } => {
            let (start, grew) = window_start(trace, race, cs_as_unit);
            let sel = run.sel(*tid);
            let tail = index.project_tail(run, sel, *at);
            let end = trace.len().saturating_sub(1);
            (
                start,
                end,
                Some(Pending {
                    tid: *tid,
                    sel,
                    tail,
                }),
                grew,
            )
        }
    };
    let window = Window {
        tid: first_tid,
        start: window_start,
        end: resume_after,
    };
    let schedule = index.flipped_schedule(trace, &window, pending.as_ref());

    // Which other races does the window move also flip? A race q is dragged
    // along when its ends straddle the window in the opposite sense: q's
    // first end belongs to the delayed window while q's second end executes
    // inside the window's span on another thread.
    let mut also_flipped = Vec::new();
    for q in others {
        if q.key() == race.key() {
            continue;
        }
        let (Some(q_first_seq), Some(q_second_seq)) = (Some(q.first.seq), q.second.seq()) else {
            continue;
        };
        let q_first_in_window =
            q.first.tid == first_tid && q_first_seq >= window_start && q_first_seq <= resume_after;
        let q_second_outside = q.second.tid() != first_tid
            && q_second_seq >= window_start
            && q_second_seq <= resume_after;
        if q_first_in_window && q_second_outside {
            also_flipped.push(q.clone());
        }
    }

    FlipPlan {
        race: race.clone(),
        also_flipped,
        schedule,
        cs_expanded,
        shared_steps: window_start,
    }
}

/// The delayed window: `tid`'s steps in `[start..=end]` move after the
/// other threads' steps in that range.
struct Window {
    tid: ThreadId,
    start: usize,
    end: usize,
}

/// A pending second end's thread and its projected continuation, run
/// before the delayed window.
struct Pending {
    tid: ThreadId,
    sel: ThreadSel,
    tail: Vec<InstrAddr>,
}

/// One thread's turn in the flipped order: a maximal stretch of its
/// consecutive steps, named by where its first step comes from.
struct Turn {
    sel: ThreadSel,
    from: TurnStart,
}

#[derive(Clone, Copy)]
enum TurnStart {
    /// The failing trace's step at this sequence number.
    Step(usize),
    /// The first instruction of the pending tail.
    Tail,
}

/// One maximal stretch of the failing trace run by one thread.
#[derive(Clone, Copy, Debug)]
struct Segment {
    tid: ThreadId,
    sel: ThreadSel,
    /// The segment's steps are `start..end` (sequence numbers).
    start: usize,
    end: usize,
}

/// The failing run's shape as flip planning needs it, built once per run
/// when LIFS assembles the [`FailingRun`] and shared by every clone.
///
/// A failing trace is long but runs in a handful of thread segments, so a
/// flip's schedule is a handful of points cut out of them; this index lets
/// [`plan_flip`] emit them without walking the trace. It is derived from
/// the run's `trace`, `sel_of_tid`, `finals` and `solo`, relies on `seq`
/// being each record's position, and on every runtime thread having its own
/// selector.
pub(crate) struct FlipIndex {
    /// The trace's thread segments, in trace order.
    segments: Vec<Segment>,
    /// Per step: how many times its thread executed the same instruction
    /// before it — the `nth` of a point anchored before that step.
    nth: Vec<u32>,
    /// How many times each thread executed each instruction in the trace.
    totals: FxHashMap<(ThreadSel, InstrAddr), u32>,
    /// Each suspended thread's parked next instruction (`pending_next`).
    parked: Vec<(ThreadSel, InstrAddr)>,
    /// Each thread with a solo trace: where its projected pending tail
    /// starts in that trace.
    solo_start: Vec<(ThreadSel, usize)>,
}

impl std::fmt::Debug for FlipIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlipIndex")
            .field("steps", &self.nth.len())
            .field("segments", &self.segments.len())
            .finish_non_exhaustive()
    }
}

impl FlipIndex {
    /// Indexes a failing run's trace in one pass.
    pub(crate) fn new(
        trace: &Trace,
        sel_of: &HashMap<ThreadId, ThreadSel>,
        finals: &[ThreadFinal],
        solo: &HashMap<ThreadSel, Projection>,
    ) -> FlipIndex {
        let mut segments: Vec<Segment> = Vec::new();
        let mut nth = Vec::with_capacity(trace.len());
        let mut totals: FxHashMap<(ThreadSel, InstrAddr), u32> = FxHashMap::default();
        // Per thread: its solo trace, the steps it executed so far, and
        // whether they still follow that trace step for step.
        let mut follows: Vec<(ThreadSel, Option<&Projection>, usize, bool)> = Vec::new();
        let mut cur = 0;
        for (seq, rec) in trace.iter().enumerate() {
            let (tid, at) = (rec.tid(), rec.at());
            match segments.last_mut() {
                Some(seg) if seg.tid == tid => seg.end = seq + 1,
                _ => {
                    let sel = sel_of[&tid];
                    segments.push(Segment {
                        tid,
                        sel,
                        start: seq,
                        end: seq + 1,
                    });
                    cur = match follows.iter().position(|f| f.0 == sel) {
                        Some(i) => i,
                        None => {
                            follows.push((sel, solo.get(&sel), 0, true));
                            follows.len() - 1
                        }
                    };
                }
            }
            let (sel, steps, done, matched) = &mut follows[cur];
            let count = totals.entry((*sel, at)).or_insert(0);
            nth.push(*count);
            *count += 1;
            *matched &= steps
                .and_then(|s| s.get(*done))
                .is_some_and(|r| r.at() == at);
            *done += 1;
        }
        let mut parked: Vec<(ThreadSel, InstrAddr)> = Vec::new();
        for f in finals {
            let Some(next) = f.next else { continue };
            match parked.iter_mut().find(|p| p.0 == f.sel) {
                Some(p) => p.1 = next,
                None => parked.push((f.sel, next)),
            }
        }
        // A pending tail continues the thread's solo trace where its
        // executed steps left it; when control flow diverged from the solo
        // run, it restarts at the parked instruction, if the solo trace has
        // it.
        let solo_start = solo
            .iter()
            .map(|(&sel, steps)| {
                let (done, matched) = follows
                    .iter()
                    .find(|f| f.0 == sel)
                    .map_or((0, true), |f| (f.2, f.3));
                let start = if matched {
                    done
                } else {
                    parked
                        .iter()
                        .find(|p| p.0 == sel)
                        .and_then(|p| steps.iter().position(|r| r.at() == p.1))
                        .unwrap_or(steps.len())
                };
                (sel, start)
            })
            .collect();
        FlipIndex {
            segments,
            nth,
            totals,
            parked,
            solo_start,
        }
    }

    /// How many times `sel` executed `at` in the whole trace.
    fn total(&self, sel: ThreadSel, at: InstrAddr) -> u32 {
        self.totals.get(&(sel, at)).copied().unwrap_or(0)
    }

    /// The continuation of `sel` from its solo trace, through (and
    /// including) the pending instruction `until`.
    fn project_tail(&self, run: &FailingRun, sel: ThreadSel, until: InstrAddr) -> Vec<InstrAddr> {
        let Some(solo) = run.solo.get(&sel) else {
            // No solo knowledge: schedule just the pending instruction and
            // rely on enforcement fallbacks.
            return vec![until];
        };
        let start = self
            .solo_start
            .iter()
            .find(|s| s.0 == sel)
            .map(|s| s.1)
            .expect("the flip index covers every solo trace of its run");
        let mut tail = Vec::new();
        for rec in solo.iter_from(start) {
            tail.push(rec.at());
            if rec.at() == until {
                return tail;
            }
        }
        // The solo trace never reaches the instruction (conservative):
        // schedule it directly.
        tail.push(until);
        tail
    }

    /// The schedule of the flipped order: the failing trace with
    /// `window`'s delayed steps moved after the other threads' steps up to
    /// the window's end and after the pending tail, if any.
    fn flipped_schedule(
        &self,
        trace: &Trace,
        window: &Window,
        pending: Option<&Pending>,
    ) -> Schedule {
        let (start, end) = (window.start, window.end);
        let mut turns: Vec<Turn> = Vec::new();
        let mut push = |sel: ThreadSel, from: TurnStart| {
            if turns.last().is_none_or(|t| t.sel != sel) {
                turns.push(Turn { sel, from });
            }
        };
        // Up to the window's end: every step but the delayed ones.
        for seg in self.segments.iter().take_while(|seg| seg.start <= end) {
            let stop = if seg.tid == window.tid {
                start
            } else {
                end + 1
            };
            if seg.start < seg.end.min(stop) {
                push(seg.sel, TurnStart::Step(seg.start));
            }
        }
        if let Some(p) = pending {
            push(p.sel, TurnStart::Tail);
        }
        // The delayed window, then everything after it.
        for seg in &self.segments {
            if seg.tid == window.tid && seg.start <= end && seg.end > start {
                push(seg.sel, TurnStart::Step(seg.start.max(start)));
            }
        }
        for seg in &self.segments {
            if seg.end > end + 1 {
                push(seg.sel, TurnStart::Step(seg.start.max(end + 1)));
            }
        }

        // Each turn's thread's next turn, found from the back; a thread
        // enters `later` at its last turn, so `later` lists the threads by
        // last turn, latest first.
        let mut next_turn = vec![None; turns.len()];
        let mut later: Vec<(ThreadSel, usize)> = Vec::new();
        for (k, turn) in turns.iter().enumerate().rev() {
            match later.iter_mut().find(|l| l.0 == turn.sel) {
                Some(l) => {
                    next_turn[k] = Some(l.1);
                    l.1 = k;
                }
                None => later.push((turn.sel, k)),
            }
        }
        let fallback = later.iter().rev().map(|l| l.0).collect();

        let mut points = Vec::new();
        for (k, pair) in turns.windows(2).enumerate() {
            let cur = pair[0].sel;
            // The suspended thread's executions of an instruction before
            // its next step are its trace steps before it, except around
            // the tail: the pending thread's tail follows all its steps up
            // to the window's end (the whole trace, as a pending window
            // runs to it), and precedes its delayed steps when it is the
            // delayed thread itself.
            let anchor = match next_turn[k].map(|j| turns[j].from) {
                Some(TurnStart::Step(seq)) => {
                    let step = trace.get(seq).expect("a turn starts at a trace step");
                    Some((step.at(), self.nth[seq]))
                }
                Some(TurnStart::Tail) => {
                    let p = pending.expect("a tail turn has a pending end");
                    let at = p.tail[0];
                    let mut nth = self.total(cur, at);
                    if p.tid == window.tid {
                        nth -= self.delayed_count(trace, window, at);
                    }
                    Some((at, nth))
                }
                None => self.parked.iter().find(|q| q.0 == cur).map(|&(_, at)| {
                    let in_tail = pending
                        .filter(|p| p.sel == cur)
                        .map_or(0, |p| p.tail.iter().filter(|&&a| a == at).count());
                    (at, self.total(cur, at) + in_tail as u32)
                }),
            };
            // No anchor: `cur` exits naturally before the boundary; the
            // fallback order hands control to the next thread.
            if let Some((at, nth)) = anchor {
                points.push(SchedPoint {
                    thread: cur,
                    at,
                    nth,
                    when: Anchor::Before,
                    switch_to: pair[1].sel,
                });
            }
        }
        Schedule {
            start: turns.first().map(|t| t.sel),
            points,
            fallback,
            segments: turns.iter().map(|t| t.sel).collect(),
        }
    }

    /// How many of `window`'s delayed steps execute `at`.
    fn delayed_count(&self, trace: &Trace, window: &Window, at: InstrAddr) -> u32 {
        let mut count = 0;
        for seg in &self.segments {
            if seg.tid != window.tid || seg.end <= window.start || seg.start > window.end {
                continue;
            }
            let from = seg.start.max(window.start);
            let to = seg.end.min(window.end + 1);
            count += trace
                .iter_from(from)
                .take(to - from)
                .filter(|r| r.at() == at)
                .count();
        }
        count as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifs::{
        Lifs,
        LifsConfig, //
    };
    use ksim::builder::ProgramBuilder;
    use std::sync::Arc;

    fn fig1_failing_run() -> FailingRun {
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
        let prog = Arc::new(p.build().unwrap());
        Lifs::new(prog, LifsConfig::default())
            .search()
            .failing
            .expect("fig1 reproduces")
    }

    #[test]
    fn flip_plan_schedule_averts_fig1_failure() {
        let run = fig1_failing_run();
        // The last race in backward order is the ptr race (B2 ⇒ A2-load or
        // similar); flipping each causal race must avert the failure.
        let races = run.races.clone();
        let mut any_averted = false;
        for r in &races {
            let plan = plan_flip(&run, r, &races, true);
            let mut e = ksim::Engine::new(Arc::clone(&run.program));
            let res = crate::enforce::run(
                &mut e,
                &plan.schedule,
                &crate::enforce::EnforceConfig::default(),
            );
            if res.failure.is_none() {
                any_averted = true;
            }
        }
        assert!(any_averted, "flipping some race must avert the failure");
    }

    #[test]
    fn flip_preserves_prefix_order() {
        let run = fig1_failing_run();
        let r = run.races.last().expect("has races").clone();
        let plan = plan_flip(&run, &r, &run.races, true);
        // The plan's schedule must start with the same thread as the
        // original failing schedule ran first (the prefix is preserved).
        let first_step_sel = run.sel(run.trace.first().unwrap().tid());
        if r.first.seq > 0 {
            assert_eq!(plan.schedule.start, Some(first_step_sel));
        }
    }

    #[test]
    fn plan_flip_is_deterministic() {
        let run = fig1_failing_run();
        // Memoization keys executor jobs by schedule content: re-planning
        // the same flip must reproduce the schedule exactly.
        for r in &run.races {
            let a = plan_flip(&run, r, &run.races, true);
            let b = plan_flip(&run, r, &run.races, true);
            assert_eq!(a.schedule, b.schedule);
            assert_eq!(a.cs_expanded, b.cs_expanded);
            assert_eq!(a.also_flipped.len(), b.also_flipped.len());
        }
    }

    #[test]
    fn nested_race_is_reported_as_also_flipped() {
        use crate::race::{
            AccessEvt,
            RaceEnd, //
        };
        use ksim::{
            Addr,
            ThreadProgId, //
        };
        let run = fig1_failing_run();
        // Synthesize a surrounding/nested pair on the failing trace's two
        // threads: outer (t0 early → t1 late), inner (t0 late → t1 early).
        let t0 = run.trace.first().unwrap().tid();
        let t1 = run
            .trace
            .iter()
            .map(|r| r.tid())
            .find(|&t| t != t0)
            .expect("two threads");
        let seq_of = |tid: ksim::ThreadId, k: usize| {
            run.trace
                .iter()
                .filter(|r| r.tid() == tid)
                .nth(k)
                .unwrap()
                .seq()
        };
        let mk = |tid: ksim::ThreadId, seq: usize, idx: usize| AccessEvt {
            seq,
            tid,
            at: InstrAddr {
                prog: run.sel(tid).prog,
                index: idx,
            },
            addr: Addr(0x1000_0000),
            is_write: true,
            locks: vec![],
        };
        let _ = ThreadProgId(0);
        let outer = ObservedRace {
            first: mk(t0, seq_of(t0, 0), 0),
            second: RaceEnd::Executed(mk(t1, seq_of(t1, 1), 11)),
        };
        let inner = ObservedRace {
            first: mk(t0, seq_of(t0, 0).max(1), 1),
            second: RaceEnd::Executed(mk(t1, seq_of(t1, 0), 10)),
        };
        // Only meaningful when the geometry holds; build the plan and check
        // the inner race is dragged along if its ends straddle the window.
        let plan = plan_flip(&run, &outer, std::slice::from_ref(&inner), true);
        if crate::race::surrounds(&outer, &inner) {
            assert_eq!(plan.also_flipped.len(), 1);
        }
    }
}
