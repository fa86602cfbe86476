//! Differential test of flip planning against the planner it replaced.
//!
//! `plan_flip` cuts the failing trace's thread segments at the flip window
//! and reads each scheduling point's `nth` from a per-run index. The
//! reference below is the earlier planner, kept verbatim: it builds the
//! whole flipped total order step by step and compresses it into points,
//! counting executions as it goes. Every plan must match it exactly —
//! schedule, also-flipped keys and `cs_expanded` — because schedules are
//! memo keys, journal records and digest inputs.
//!
//! The corpus tests cover every race of every failing run of the 22 corpus
//! bugs and of generated seeds 0..63, with critical sections moved as units
//! and not. They also re-execute every tested race's flip and recompute the
//! races that vanished from it with the earlier per-step `HashSet` walk,
//! which must equal the analysis's own [`TestedRace::vanished`]. The
//! remaining tests build programs whose failing runs reach what the corpus
//! does not (a window at step 0, loops, pending tails with and without a
//! solo projection and after diverged control flow, more than four thread
//! segments) and plan every race geometry their traces admit.
//!
//! Every one of those flips also runs through a memo-on executor at one
//! and two workers, where flips resume from each other's checkpoints at
//! their [`FlipPlan::shared_steps`]: each output must equal a memo-off
//! run's. A fresh run of each corpus and generated flip must leave the
//! failing trace exactly at its shared step, the promise the hint makes.

use aitia_repro::aitia::causality::flip::{
    flip_window,
    plan_flip,
    FlipPlan, //
};
use aitia_repro::aitia::causality::TestedRace;
use aitia_repro::aitia::enforce::{
    self,
    EnforceConfig, //
};
use aitia_repro::aitia::race::{
    critical_section_span,
    AccessEvt,
    ObservedRace,
    RaceEnd, //
};
use aitia_repro::aitia::{
    Anchor,
    CancelToken,
    CausalityAnalysis,
    CausalityConfig,
    CausalityLevel,
    ExecOutput,
    Executor,
    ExecutorConfig,
    FailingRun,
    Lifs,
    LifsConfig,
    PruneLevel,
    SchedPoint,
    Schedule,
    ThreadSel, //
};
use aitia_repro::corpus;
use aitia_repro::ksim::builder::{
    cond_reg,
    ProgramBuilder, //
};
use aitia_repro::ksim::instr::BinOp;
use aitia_repro::ksim::{
    Addr,
    CmpOp,
    Engine,
    InstrAddr,
    Program,
    ThreadId,
    Trace, //
};
use std::collections::{
    HashMap,
    HashSet, //
};
use std::sync::Arc;

/// The earlier planner: the flipped order built step by step from two
/// passes over the trace, then compressed into scheduling points.
mod reference {
    use super::*;

    pub fn plan(
        run: &FailingRun,
        race: &ObservedRace,
        others: &[ObservedRace],
        cs_as_unit: bool,
    ) -> (Schedule, Vec<(InstrAddr, InstrAddr)>, bool) {
        let trace = &run.trace;
        let first_tid = race.first.tid;
        let (window_start, resume_after, pending_tail, cs_expanded) = match &race.second {
            RaceEnd::Executed(_) => {
                let (start, end, grew) = flip_window(trace, race, cs_as_unit).unwrap();
                (start, end, Vec::new(), grew)
            }
            RaceEnd::Pending { tid, at } => {
                let mut start = race.first.seq;
                let mut grew = false;
                if cs_as_unit {
                    if let Some((cs_start, _)) = critical_section_span(trace, race.first.seq) {
                        if cs_start < start {
                            start = cs_start;
                            grew = true;
                        }
                    }
                }
                let sel = run.sel(*tid);
                let tail = project_tail(run, sel, *at);
                (start, trace.len().saturating_sub(1), tail, grew)
            }
        };
        let mut order: Vec<(ThreadSel, InstrAddr)> = Vec::new();
        let mut delayed: Vec<(ThreadSel, InstrAddr)> = Vec::new();
        for rec in trace {
            let sel = run.sel(rec.tid);
            let in_window =
                rec.seq >= window_start && rec.seq <= resume_after && rec.tid == first_tid;
            if in_window {
                delayed.push((sel, rec.at));
            } else if rec.seq < window_start || rec.seq <= resume_after {
                order.push((sel, rec.at));
            }
        }
        order.extend(pending_tail.iter().copied());
        order.append(&mut delayed);
        for rec in trace {
            if rec.seq > resume_after {
                order.push((run.sel(rec.tid), rec.at));
            }
        }
        let mut also_flipped = Vec::new();
        for q in others {
            if q.key() == race.key() {
                continue;
            }
            let Some(q_second_seq) = q.second.seq() else {
                continue;
            };
            let q_first_in_window = q.first.tid == first_tid
                && q.first.seq >= window_start
                && q.first.seq <= resume_after;
            let q_second_outside = q.second.tid() != first_tid
                && q_second_seq >= window_start
                && q_second_seq <= resume_after;
            if q_first_in_window && q_second_outside {
                also_flipped.push(q.key());
            }
        }
        let schedule = schedule_from_order(&order, &run.pending_next());
        (schedule, also_flipped, cs_expanded)
    }

    fn project_tail(
        run: &FailingRun,
        sel: ThreadSel,
        until: InstrAddr,
    ) -> Vec<(ThreadSel, InstrAddr)> {
        let Some(solo) = run.solo.get(&sel) else {
            return vec![(sel, until)];
        };
        let executed = run.trace.iter().filter(|r| run.sel(r.tid) == sel).count();
        let start = if executed <= solo.len()
            && run
                .trace
                .iter()
                .filter(|r| run.sel(r.tid) == sel)
                .zip(solo.iter())
                .all(|(a, b)| a.at == b.at)
        {
            executed
        } else {
            match run.pending_next().get(&sel) {
                Some(next) => solo
                    .iter()
                    .position(|r| r.at == *next)
                    .unwrap_or(solo.len()),
                None => solo.len(),
            }
        };
        let mut tail = Vec::new();
        let mut hit = false;
        for rec in &solo[start.min(solo.len())..] {
            tail.push((sel, rec.at));
            if rec.at == until {
                hit = true;
                break;
            }
        }
        if !hit {
            tail.push((sel, until));
        }
        tail
    }

    fn schedule_from_order(
        order: &[(ThreadSel, InstrAddr)],
        pending_next: &HashMap<ThreadSel, InstrAddr>,
    ) -> Schedule {
        let mut points = Vec::new();
        let mut exec_counts: HashMap<(ThreadSel, InstrAddr), u32> = HashMap::new();
        for i in 0..order.len() {
            let (cur, at) = order[i];
            *exec_counts.entry((cur, at)).or_insert(0) += 1;
            let Some(&(next, _)) = order.get(i + 1) else {
                break;
            };
            if next == cur {
                continue;
            }
            let anchor = order[i + 1..]
                .iter()
                .find(|(t, _)| *t == cur)
                .map(|&(_, a)| a)
                .or_else(|| pending_next.get(&cur).copied());
            if let Some(anchor_at) = anchor {
                let nth = exec_counts.get(&(cur, anchor_at)).copied().unwrap_or(0);
                points.push(SchedPoint {
                    thread: cur,
                    at: anchor_at,
                    nth,
                    when: Anchor::Before,
                    switch_to: next,
                });
            }
        }
        let mut last_pos: Vec<(ThreadSel, usize)> = Vec::new();
        for (i, (t, _)) in order.iter().enumerate() {
            match last_pos.iter_mut().find(|(s, _)| s == t) {
                Some(entry) => entry.1 = i,
                None => last_pos.push((*t, i)),
            }
        }
        last_pos.sort_by_key(|&(_, i)| i);
        let fallback: Vec<ThreadSel> = last_pos.into_iter().map(|(t, _)| t).collect();
        let mut segments: Vec<ThreadSel> = Vec::new();
        for (t, _) in order {
            if segments.last() != Some(t) {
                segments.push(*t);
            }
        }
        Schedule {
            start: order.first().map(|&(t, _)| t),
            points,
            fallback,
            segments,
        }
    }

    /// The races of `run` that did not occur in a flip run of `tested`,
    /// through a set of every instruction that touched memory in `trace`.
    pub fn vanished(
        run: &FailingRun,
        tested: &ObservedRace,
        trace: &Trace,
    ) -> Vec<(InstrAddr, InstrAddr)> {
        let executed: HashSet<InstrAddr> = trace
            .iter()
            .filter(|r| !r.accesses.is_empty())
            .map(|r| r.at)
            .collect();
        let occurred: HashSet<(InstrAddr, InstrAddr)> = run
            .races
            .iter()
            .map(ObservedRace::key)
            .filter(|(a, b)| executed.contains(a) && executed.contains(b))
            .collect();
        run.races
            .iter()
            .map(ObservedRace::key)
            .filter(|k| *k != tested.key() && !occurred.contains(k))
            .collect()
    }
}

/// What the plans of one batch exercised, so each test can require that
/// its inputs reached the geometry it is named for.
#[derive(Default, Debug)]
struct Reach {
    plans: usize,
    pending: usize,
    window_at_zero: usize,
    nth_above_zero: usize,
    cs_expanded: usize,
    /// Flip steps that one-worker memo-on runs skipped by resuming.
    resumed_steps: u64,
}

/// Plans `race` both ways, with and without critical sections as units,
/// and requires identical plans.
fn check_plan(run: &FailingRun, race: &ObservedRace, others: &[ObservedRace], reach: &mut Reach) {
    for cs_as_unit in [true, false] {
        let got: FlipPlan = plan_flip(run, race, others, cs_as_unit);
        let (schedule, also, cs_expanded) = reference::plan(run, race, others, cs_as_unit);
        let label = format!(
            "{}: race {:?} at seqs {}..{:?}, cs_as_unit {cs_as_unit}",
            run.program.name,
            race.key(),
            race.first.seq,
            race.second.seq(),
        );
        assert_eq!(got.schedule, schedule, "{label}: schedules differ");
        let got_also: Vec<_> = got.also_flipped.iter().map(ObservedRace::key).collect();
        assert_eq!(got_also, also, "{label}: also-flipped races differ");
        assert_eq!(got.cs_expanded, cs_expanded, "{label}: cs_expanded differs");
        reach.plans += 1;
        reach.pending += usize::from(race.second.seq().is_none());
        reach.nth_above_zero += usize::from(schedule.points.iter().any(|p| p.nth > 0));
        reach.cs_expanded += usize::from(cs_expanded);
        let window_start = match flip_window(&run.trace, race, cs_as_unit) {
            Some((start, _, _)) => start,
            None => race.first.seq,
        };
        reach.window_at_zero += usize::from(window_start == 0);
    }
}

/// Where a flip run left the failing trace: the first step at which the
/// two differ in thread or instruction, or the shorter one's length.
fn divergence(failing: &Trace, flip: &Trace) -> usize {
    failing
        .iter()
        .zip(flip)
        .position(|(a, b)| (a.tid, a.at) != (b.tid, b.at))
        .unwrap_or(failing.len().min(flip.len()))
}

/// Runs the flips of `races` as one batch with the memo off, and through
/// a memo-on executor at one and two workers (OS threads forced), where
/// they resume from each other's checkpoints at their shared steps: every
/// output must equal the memo-off one. With `diverge_at_shared`, each
/// fresh run must also leave the failing trace exactly at its plan's
/// shared step.
fn check_resumed_flips(
    run: &FailingRun,
    races: &[ObservedRace],
    cs_as_unit: bool,
    diverge_at_shared: bool,
    reach: &mut Reach,
) {
    let plans: Vec<FlipPlan> = races
        .iter()
        .map(|race| plan_flip(run, race, races, cs_as_unit))
        .collect();
    let jobs: Vec<_> = plans
        .iter()
        .map(|plan| plan.job(run, EnforceConfig::default()))
        .collect();
    let batch = |vms: usize, memo: bool| -> (Vec<ExecOutput>, u64) {
        let exec = Executor::with_config(ExecutorConfig {
            vms,
            os_threads: Some(vms),
            memo,
            ..ExecutorConfig::default()
        });
        let out = exec
            .run_batch(&jobs, &CancelToken::new())
            .into_iter()
            .map(|o| o.expect("an uncancelled batch runs every job"))
            .collect();
        let stats = exec.stats();
        (out, stats.steps_executed - stats.steps_interpreted)
    };
    let (fresh, _) = batch(1, false);
    let label = |plan: &FlipPlan| {
        format!(
            "{}: flip of {:?} at seqs {}..{:?}, cs_as_unit {cs_as_unit}",
            run.program.name,
            plan.race.key(),
            plan.race.first.seq,
            plan.race.second.seq(),
        )
    };
    if diverge_at_shared {
        for (plan, out) in plans.iter().zip(&fresh) {
            assert_eq!(
                divergence(&run.trace, &out.run.trace),
                plan.shared_steps,
                "{}: left the failing trace elsewhere",
                label(plan)
            );
        }
    }
    for vms in [1, 2] {
        let (outs, skipped) = batch(vms, true);
        if vms == 1 {
            reach.resumed_steps += skipped;
        }
        for ((plan, resumed), fresh) in plans.iter().zip(outs).zip(&fresh) {
            let label = format!("{} at {vms} workers", label(plan));
            assert_eq!(resumed.run, fresh.run, "{label}: runs differ");
            assert_eq!(resumed.sel_of, fresh.sel_of, "{label}: selectors differ");
            assert_eq!(resumed.outcome, fresh.outcome, "{label}: outcomes differ");
        }
    }
}

/// Checks every race of `run` against the reference planner and its
/// flips' resumed runs against fresh ones, then runs the analysis and
/// re-derives each tested race's vanished races from a fresh execution of
/// its flip. The analysis is `exhaustive`, so every race has a flip run to
/// check; `adaptive` skips the statically proved.
fn check_run(run: &FailingRun, reach: &mut Reach) {
    for race in &run.races {
        check_plan(run, race, &run.races, reach);
    }
    for cs_as_unit in [true, false] {
        check_resumed_flips(run, &run.races, cs_as_unit, true, reach);
        let result = CausalityAnalysis::new(CausalityConfig {
            cs_as_unit,
            level: CausalityLevel::Exhaustive,
            ..CausalityConfig::default()
        })
        .analyze(run);
        for tested in &result.tested {
            check_vanished(run, tested, cs_as_unit);
        }
    }
}

fn check_vanished(run: &FailingRun, tested: &TestedRace, cs_as_unit: bool) {
    if tested.outcome.is_none() {
        return;
    }
    let plan = plan_flip(run, &tested.race, &run.races, cs_as_unit);
    let mut engine = Engine::new(Arc::clone(&run.program));
    let flip = enforce::run(&mut engine, &plan.schedule, &EnforceConfig::default());
    assert_eq!(
        tested.vanished,
        reference::vanished(run, &tested.race, &flip.trace),
        "{}: vanished races of {:?} differ (cs_as_unit {cs_as_unit})",
        run.program.name,
        tested.race.key()
    );
}

fn failing_run(program: Arc<Program>, config: LifsConfig) -> FailingRun {
    let name = program.name.clone();
    Lifs::new(program, config)
        .search()
        .failing
        .unwrap_or_else(|| panic!("{name} did not reproduce"))
}

fn check_corpus(scale: f64) -> Reach {
    let mut reach = Reach::default();
    for bug in corpus::all_bugs() {
        let run = failing_run(bug.program_scaled(scale), bug.lifs_config());
        check_run(&run, &mut reach);
    }
    reach
}

#[test]
fn plans_and_vanished_races_match_the_reference_on_every_corpus_race() {
    let reach = check_corpus(0.05);
    assert!(reach.pending > 0 && reach.resumed_steps > 0, "{reach:?}");
}

/// The same check at the scale the benchmark measures. Run it with
/// `cargo test --release --test flip_plan -- --ignored`.
#[test]
#[ignore = "scale 0.3: a release-build check, run by scripts/ci.sh"]
fn plans_and_vanished_races_match_the_reference_on_every_corpus_race_at_scale_0_3() {
    let reach = check_corpus(0.3);
    assert!(reach.pending > 0 && reach.resumed_steps > 0, "{reach:?}");
}

#[test]
fn plans_and_vanished_races_match_the_reference_on_every_generated_race() {
    let mut reach = Reach::default();
    let mut runs = 0;
    for seed in 0..64 {
        let bug = corpus::generate::generate(seed);
        let Some(run) = Lifs::new(Arc::clone(&bug.program), bug.lifs_config())
            .search()
            .failing
        else {
            continue;
        };
        runs += 1;
        check_run(&run, &mut reach);
    }
    assert!(runs >= 48, "only {runs} of 64 generated seeds reproduced");
    assert!(reach.plans > 0 && reach.resumed_steps > 0, "{reach:?}");
}

/// Every executed race geometry the trace admits — each pair of steps of
/// two threads, the earlier first — and every pending one: each step
/// against each instruction of each thread program, for each thread that
/// took part in the run.
fn synthetic_races(run: &FailingRun) -> Vec<ObservedRace> {
    let evt = |seq: usize| {
        let rec = &run.trace[seq];
        AccessEvt {
            seq,
            tid: rec.tid,
            at: rec.at,
            addr: Addr(0x1000),
            is_write: true,
            locks: rec.locks_held.clone(),
        }
    };
    let n = run.trace.len();
    let mut races = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            if run.trace[i].tid != run.trace[j].tid {
                races.push(ObservedRace {
                    first: evt(i),
                    second: RaceEnd::Executed(evt(j)),
                });
            }
        }
    }
    let mut tids: Vec<ThreadId> = run.sel_of_tid.keys().copied().collect();
    tids.sort();
    for &tid in &tids {
        let prog = run.sel(tid).prog;
        let instrs = run.program.progs[prog.0 as usize].instrs.len();
        for i in 0..n {
            for index in 0..instrs {
                races.push(ObservedRace {
                    first: evt(i),
                    second: RaceEnd::Pending {
                        tid,
                        at: InstrAddr { prog, index },
                    },
                });
            }
        }
    }
    races
}

fn check_synthetic(run: &FailingRun) -> Reach {
    let races = synthetic_races(run);
    let mut reach = Reach::default();
    for race in &races {
        // Every other synthetic race as `others`, so nested ones get
        // dragged along.
        check_plan(run, race, &races, &mut reach);
    }
    // Synthetic geometries include races of a thread with itself, whose
    // flips may follow the failing trace past their window: no divergence
    // check, only equal results.
    for cs_as_unit in [true, false] {
        check_resumed_flips(run, &races, cs_as_unit, false, &mut reach);
    }
    reach
}

/// For each parked thread with a solo trace: the instructions it executed
/// in the failing run and those of its solo run.
fn parked_threads(run: &FailingRun) -> impl Iterator<Item = (Vec<InstrAddr>, Vec<InstrAddr>)> + '_ {
    run.finals
        .iter()
        .filter(|f| f.next.is_some())
        .filter_map(|f| {
            let solo = run.solo.get(&f.sel)?;
            let executed = run
                .trace
                .iter()
                .filter(|r| run.sel(r.tid) == f.sel)
                .map(|r| r.at)
                .collect();
            Some((executed, solo.iter().map(|r| r.at).collect()))
        })
}

/// The number of maximal single-thread stretches in the trace.
fn segments(trace: &Trace) -> usize {
    let tids: Vec<ThreadId> = trace.iter().map(|r| r.tid).collect();
    tids.windows(2).filter(|w| w[0] != w[1]).count() + usize::from(!tids.is_empty())
}

/// Figure 1 with a loop and a thread that stops halfway: A bumps a counter
/// in a loop, publishes `ptr_valid` and dereferences `ptr`; B, seeing
/// `ptr_valid` set, clears `ptr` and then restores it (unset, it spins on
/// a second counter instead, the longer path LIFS keeps as B's solo
/// trace). The failure needs B preempted between the clear and the
/// restore, so B is parked with its executed steps off its solo path: its
/// pending tail restarts from the parked instruction.
fn loops_and_divergence() -> Arc<Program> {
    let mut p = ProgramBuilder::new("loops-divergence");
    let obj = p.static_obj("obj", 8);
    let ptr_valid = p.global("ptr_valid", 0);
    let ptr = p.global_ptr("ptr", obj);
    let hits = p.global("hits", 0);
    let spins = p.global("spins", 0);
    let obj_addr = p.global_ptr("obj_addr", obj);
    {
        let mut a = p.syscall_thread("A", "writer");
        a.func("writer");
        a.mov("r2", 0u64);
        let top = a.new_label();
        a.place(top);
        a.fetch_add_global(hits, 1u64);
        a.op("r2", BinOp::Add, "r2", 1u64);
        a.jmp_if(cond_reg("r2", CmpOp::Lt, 3), top);
        a.n("A1").store_global(ptr_valid, 1u64);
        a.n("A2").load_global("r0", ptr);
        a.load_ind("r1", "r0", 0);
        a.ret();
    }
    {
        let mut b = p.syscall_thread("B", "clearer");
        b.func("clearer");
        let clear = b.new_label();
        let join = b.new_label();
        b.n("B1").load_global("r0", ptr_valid);
        b.jmp_if(cond_reg("r0", CmpOp::Ne, 0), clear);
        b.mov("r2", 0u64);
        let top = b.new_label();
        b.place(top);
        b.fetch_add_global(spins, 1u64);
        b.op("r2", BinOp::Add, "r2", 1u64);
        b.jmp_if(cond_reg("r2", CmpOp::Lt, 4), top);
        b.jmp(join);
        b.place(clear);
        b.n("B2").store_global(ptr, 0u64);
        b.place(join);
        b.load_global("r3", obj_addr);
        b.n("B3").store_global_from(ptr, "r3");
        b.ret();
    }
    Arc::new(p.build().unwrap())
}

/// Six threads; the first five bump a counter in turn under a lock, and
/// the sixth asserts the counter is below five. The first serial order
/// already fails, so the failing trace has six segments, LIFS stored no
/// solo trace, and a seventh thread never ran.
fn many_segments_no_solo() -> Arc<Program> {
    let mut p = ProgramBuilder::new("many-segments");
    let x = p.global("x", 0);
    let l = p.lock("l");
    for i in 0..5 {
        let mut t = p.syscall_thread(&format!("T{i}"), "bump");
        t.lock(l);
        t.fetch_add_global(x, 1u64);
        t.load_global("r0", x);
        t.unlock(l);
        t.ret();
    }
    {
        let mut t = p.syscall_thread("T5", "check");
        t.load_global("r0", x);
        t.bug_on(cond_reg("r0", CmpOp::Ge, 5));
        t.ret();
    }
    {
        let mut t = p.syscall_thread("T6", "late");
        t.store_global(x, 0u64);
        t.load_global("r0", x);
        t.ret();
    }
    Arc::new(p.build().unwrap())
}

#[test]
fn loops_windows_at_step_zero_and_diverged_tails_match_the_reference() {
    // Conflict pruning reads B's footprint off its longer solo path, which
    // never writes `ptr`; the failing schedule needs the search unpruned.
    let config = LifsConfig {
        prune: PruneLevel::Off,
        ..LifsConfig::default()
    };
    let run = failing_run(loops_and_divergence(), config);
    assert!(
        parked_threads(&run).any(|(executed, solo)| !solo.starts_with(&executed)),
        "no parked thread's steps left its solo path"
    );
    let reach = check_synthetic(&run);
    assert!(reach.window_at_zero > 0, "{reach:?}");
    assert!(reach.nth_above_zero > 0, "{reach:?}");
    assert!(reach.pending > 0 && reach.resumed_steps > 0, "{reach:?}");
}

#[test]
fn more_than_four_segments_and_tails_without_solo_match_the_reference() {
    let run = failing_run(many_segments_no_solo(), LifsConfig::default());
    assert!(run.solo.is_empty(), "LIFS stored solo traces");
    assert!(
        segments(&run.trace) > 4,
        "{} segments",
        segments(&run.trace)
    );
    let reach = check_synthetic(&run);
    assert!(
        reach.pending > 0 && reach.window_at_zero > 0 && reach.cs_expanded > 0,
        "{reach:?}"
    );
}

/// A pending tail that continues the thread's solo run where its executed
/// steps stopped: B runs the first half of its solo path before A fails.
#[test]
fn tails_that_follow_the_solo_run_match_the_reference() {
    let mut p = ProgramBuilder::new("solo-tail");
    let x = p.global("x", 0);
    let y = p.global("y", 0);
    {
        let mut a = p.syscall_thread("A", "check");
        a.store_global(y, 1u64);
        a.load_global("r0", x);
        a.bug_on(cond_reg("r0", CmpOp::Eq, 1));
        a.ret();
    }
    {
        let mut b = p.syscall_thread("B", "flip");
        b.store_global(x, 1u64);
        b.load_global("r1", y);
        b.store_global(x, 0u64);
        b.store_global(y, 2u64);
        b.ret();
    }
    let run = failing_run(Arc::new(p.build().unwrap()), LifsConfig::default());
    let followed = parked_threads(&run)
        .any(|(executed, solo)| !executed.is_empty() && solo.starts_with(&executed));
    assert!(followed, "no parked thread follows its solo run");
    let reach = check_synthetic(&run);
    assert!(reach.pending > 0, "{reach:?}");
}
