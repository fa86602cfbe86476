//! Schedules: the interleaving specifications AITIA enforces.
//!
//! A schedule is "a manifestation of an instruction sequence consisting of
//! i) a system call to be started initially and ii) scheduling points",
//! where a scheduling point "specifies an instruction address and
//! interleaving order (e.g., Thread A is interleaved to Thread B at address
//! 0x601020)" (§4.3). This module defines exactly that representation plus
//! a compressor that turns a desired total order of steps into the minimal
//! scheduling points realizing it.
//!
//! Threads are named by [`ThreadSel`] — program id plus instantiation
//! ordinal — rather than runtime ids, because runtime ids depend on spawn
//! order, which the schedule itself influences.

use ksim::{
    Engine,
    InstrAddr,
    ThreadId,
    ThreadProgId, //
};
use std::collections::HashMap;

/// Stable thread naming across runs: the `occurrence`-th runtime instance
/// of a thread program.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadSel {
    /// The static thread program.
    pub prog: ThreadProgId,
    /// Which instantiation of the program (0 = first).
    pub occurrence: u32,
}

impl ThreadSel {
    /// The first instance of `prog`.
    #[must_use]
    pub fn first(prog: ThreadProgId) -> Self {
        ThreadSel {
            prog,
            occurrence: 0,
        }
    }

    /// Resolves this selector to a runtime thread in `engine`, if it has
    /// been instantiated.
    #[must_use]
    pub fn resolve(&self, engine: &Engine) -> Option<ThreadId> {
        engine.thread_by_prog(self.prog, self.occurrence)
    }

    /// The selector naming a runtime thread of `engine`.
    #[must_use]
    pub fn of(engine: &Engine, tid: ThreadId) -> ThreadSel {
        let t = engine.thread(tid).expect("thread exists");
        ThreadSel {
            prog: t.prog,
            occurrence: t.occurrence,
        }
    }
}

/// When a scheduling point triggers relative to its anchor instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Anchor {
    /// The thread is suspended when it is *about to execute* the anchor
    /// (a breakpoint trap before execution).
    Before,
    /// The thread is suspended right *after executing* the anchor (LIFS
    /// preempts after the memory-accessing instruction so its watchpoint
    /// can observe the other threads, §3.3).
    After,
}

/// One scheduling point: suspend `thread` at `at` and resume `switch_to`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchedPoint {
    /// The thread being suspended.
    pub thread: ThreadSel,
    /// The anchor instruction address.
    pub at: InstrAddr,
    /// Triggers on the `nth` execution of `at` by `thread` (0-based),
    /// which disambiguates loops.
    pub nth: u32,
    /// Before or after executing the anchor.
    pub when: Anchor,
    /// The thread resumed by the switch.
    pub switch_to: ThreadSel,
}

/// A complete interleaving specification.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Schedule {
    /// The thread started first (`None` = first initial thread).
    pub start: Option<ThreadSel>,
    /// Scheduling points, consumed strictly in order.
    pub points: Vec<SchedPoint>,
    /// Preference order for picking the next thread when the current one
    /// finishes or blocks outside any scheduling point. Runnable background
    /// threads not listed here are preferred over listed threads that come
    /// after the current position (spawned work runs when its spawner
    /// yields, matching the paper's serial search order, Figure 5).
    pub fallback: Vec<ThreadSel>,
    /// The intended sequence of thread *segments* (consecutive runs of one
    /// thread), when the schedule was derived from a concrete total order.
    /// The enforcer follows this sequence with a cursor at boundaries where
    /// no anchor point exists (a thread exiting naturally cannot carry a
    /// breakpoint), which a flat preference list cannot express.
    pub segments: Vec<ThreadSel>,
}

impl Schedule {
    /// A serial schedule: run threads to completion in `order`.
    #[must_use]
    pub fn serial(order: Vec<ThreadSel>) -> Self {
        Schedule {
            start: order.first().copied(),
            points: Vec::new(),
            fallback: order,
            segments: Vec::new(),
        }
    }
}

/// Compresses a desired total order of `(thread, instruction)` steps into a
/// [`Schedule`]: one scheduling point per context switch, anchored *before*
/// the suspended thread's next step in the order (or before its next
/// pending instruction when it never runs again).
///
/// `pending_next` supplies, for threads that are suspended at a boundary and
/// have no later step in the order, the instruction they are parked at.
#[must_use]
pub fn schedule_from_order(
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
        // Context switch: anchor on `cur`'s next step in the order.
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
        // No anchor: `cur` exits naturally before the boundary; the
        // fallback order hands control to `next`.
    }
    // Fallback: threads ordered by their *last* step's position — when a
    // thread exits naturally at a segment boundary (no anchor can be
    // placed on it), the enforcer must hand control to whichever thread's
    // remaining work comes next in the intended order, and the thread
    // whose work ends earliest is never wrongly resumed ahead of one whose
    // segment is still pending.
    let mut last_pos: Vec<(ThreadSel, usize)> = Vec::new();
    for (i, (t, _)) in order.iter().enumerate() {
        match last_pos.iter_mut().find(|(s, _)| s == t) {
            Some(entry) => entry.1 = i,
            None => last_pos.push((*t, i)),
        }
    }
    last_pos.sort_by_key(|&(_, i)| i);
    let fallback: Vec<ThreadSel> = last_pos.into_iter().map(|(t, _)| t).collect();
    // The segment sequence: consecutive runs of one thread collapse.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn at(prog: u16, index: usize) -> InstrAddr {
        InstrAddr {
            prog: ThreadProgId(prog),
            index,
        }
    }

    fn sel(prog: u16) -> ThreadSel {
        ThreadSel::first(ThreadProgId(prog))
    }

    #[test]
    fn serial_schedule_has_no_points() {
        let s = Schedule::serial(vec![sel(0), sel(1)]);
        assert!(s.points.is_empty());
        assert_eq!(s.start, Some(sel(0)));
        assert_eq!(s.fallback.len(), 2);
    }

    #[test]
    fn order_compression_emits_one_point_per_switch() {
        // A0 A1 | B0 B1 | A2 — two switches, A has a later step at the
        // first one, B exits naturally at the second (no later B step, no
        // pending entry → no point).
        let order = vec![
            (sel(0), at(0, 0)),
            (sel(0), at(0, 1)),
            (sel(1), at(1, 0)),
            (sel(1), at(1, 1)),
            (sel(0), at(0, 2)),
        ];
        let s = schedule_from_order(&order, &HashMap::new());
        assert_eq!(s.points.len(), 1);
        let p = &s.points[0];
        assert_eq!(p.thread, sel(0));
        assert_eq!(p.at, at(0, 2));
        assert_eq!(p.when, Anchor::Before);
        assert_eq!(p.switch_to, sel(1));
        assert_eq!(s.start, Some(sel(0)));
    }

    #[test]
    fn pending_next_supplies_anchor_for_final_suspension() {
        // A0 | B0 B1 — A never runs again but is parked at A1.
        let order = vec![(sel(0), at(0, 0)), (sel(1), at(1, 0)), (sel(1), at(1, 1))];
        let mut pend = HashMap::new();
        pend.insert(sel(0), at(0, 1));
        let s = schedule_from_order(&order, &pend);
        assert_eq!(s.points.len(), 1);
        assert_eq!(s.points[0].at, at(0, 1));
        assert_eq!(s.points[0].switch_to, sel(1));
    }

    #[test]
    fn nth_counts_prior_executions_of_anchor() {
        // A executes at(0,0) twice (a loop), switch anchored on its third
        // arrival.
        let order = vec![
            (sel(0), at(0, 0)),
            (sel(0), at(0, 0)),
            (sel(1), at(1, 0)),
            (sel(0), at(0, 0)),
        ];
        let s = schedule_from_order(&order, &HashMap::new());
        assert_eq!(s.points.len(), 1);
        assert_eq!(s.points[0].nth, 2);
    }

    #[test]
    fn fallback_lists_threads_by_last_step_position() {
        let order = vec![
            (sel(2), at(2, 0)),
            (sel(0), at(0, 0)),
            (sel(2), at(2, 1)),
            (sel(1), at(1, 0)),
        ];
        let s = schedule_from_order(&order, &HashMap::new());
        // sel(0)'s work ends first (index 1), then sel(2) (index 2), then
        // sel(1) (index 3).
        assert_eq!(s.fallback, vec![sel(0), sel(2), sel(1)]);
    }
}
