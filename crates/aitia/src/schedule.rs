//! Schedules: the interleaving specifications AITIA enforces.
//!
//! A schedule is "a manifestation of an instruction sequence consisting of
//! i) a system call to be started initially and ii) scheduling points",
//! where a scheduling point "specifies an instruction address and
//! interleaving order (e.g., Thread A is interleaved to Thread B at address
//! 0x601020)" (§4.3). This module defines exactly that representation;
//! LIFS plans its schedules point by point, and Causality Analysis cuts
//! its flip schedules out of the failing run
//! ([`crate::causality::flip::plan_flip`]).
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
