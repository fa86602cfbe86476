//! Runtime thread state.

use crate::{
    instr::{
        LockId,
        ThreadProgId, //
    },
    program::ThreadKind,
};

/// Identifier of a runtime thread instance.
///
/// Distinct from [`ThreadProgId`]: a background program can be instantiated
/// several times (e.g. two `queue_work` calls), producing several runtime
/// threads with different `ThreadId`s but the same program.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

impl core::fmt::Debug for ThreadId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Scheduling status of a runtime thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadStatus {
    /// Can be stepped.
    Runnable,
    /// Waiting to acquire a contended lock; becomes runnable on release.
    Blocked {
        /// The contended lock.
        on: LockId,
    },
    /// An RCU callback waiting for its grace period: every read-side
    /// section active when `call_rcu` ran must end first.
    WaitingGrace,
    /// Executed its final instruction.
    Exited,
    /// Halted by an engine-wide failure (the "kernel crashed").
    Killed,
}

/// One runtime thread: program counter, registers, and status.
#[derive(Clone, Debug)]
pub struct Thread {
    /// Runtime identifier.
    pub id: ThreadId,
    /// The static program this thread executes.
    pub prog: ThreadProgId,
    /// Which instantiation of `prog` this is (0 for the first).
    pub occurrence: u32,
    /// Program counter: index of the *next* instruction to execute.
    pub pc: usize,
    /// Virtual register file.
    pub regs: Vec<u64>,
    /// Scheduling status.
    pub status: ThreadStatus,
    /// Execution context kind (copied from the program).
    pub kind: ThreadKind,
    /// The thread that spawned this one (`None` for initial threads).
    pub spawned_by: Option<ThreadId>,
    /// Locks currently held, in acquisition order.
    pub locks_held: Vec<LockId>,
    /// RCU read-side critical-section nesting depth.
    pub rcu_depth: u32,
}

impl Thread {
    /// Creates a fresh thread at pc 0 with zeroed registers.
    #[must_use]
    pub fn new(
        id: ThreadId,
        prog: ThreadProgId,
        occurrence: u32,
        reg_count: u16,
        kind: ThreadKind,
        spawned_by: Option<ThreadId>,
    ) -> Self {
        Thread {
            id,
            prog,
            occurrence,
            pc: 0,
            regs: vec![0; reg_count as usize],
            status: ThreadStatus::Runnable,
            kind,
            spawned_by,
            locks_held: Vec::new(),
            rcu_depth: 0,
        }
    }

    /// Whether the thread can currently be stepped.
    #[must_use]
    pub fn is_runnable(&self) -> bool {
        matches!(self.status, ThreadStatus::Runnable)
    }

    /// Whether the thread has finished (exited or killed).
    #[must_use]
    pub fn is_done(&self) -> bool {
        matches!(self.status, ThreadStatus::Exited | ThreadStatus::Killed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_thread_is_runnable_at_zero() {
        let t = Thread::new(
            ThreadId(3),
            ThreadProgId(1),
            0,
            4,
            ThreadKind::Kworker,
            Some(ThreadId(0)),
        );
        assert!(t.is_runnable());
        assert!(!t.is_done());
        assert_eq!(t.pc, 0);
        assert_eq!(t.regs, vec![0; 4]);
        assert_eq!(t.spawned_by, Some(ThreadId(0)));
    }

    #[test]
    fn status_transitions_reflect_queries() {
        let mut t = Thread::new(
            ThreadId(0),
            ThreadProgId(0),
            0,
            0,
            ThreadKind::Syscall {
                name: "open".into(),
            },
            None,
        );
        t.status = ThreadStatus::Blocked { on: LockId(1) };
        assert!(!t.is_runnable());
        assert!(!t.is_done());
        t.status = ThreadStatus::Exited;
        assert!(t.is_done());
        t.status = ThreadStatus::Killed;
        assert!(t.is_done());
    }
}
