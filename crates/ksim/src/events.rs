//! Observable events produced by engine steps.
//!
//! Every [`crate::engine::Engine::step`] that executes an instruction
//! appends one step to the engine's [`crate::Trace`], describing exactly
//! what AITIA's hypervisor would observe through breakpoints, watchpoints,
//! and kcov callbacks: the instruction executed, the memory it touched,
//! the locks held, lock transitions, and thread spawns.

use crate::{
    addr::Addr,
    instr::LockId,
    program::InstrAddr,
    thread::ThreadId, //
};

/// How an instruction accessed a memory location.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKind {
    /// Pure load.
    Read,
    /// Pure store.
    Write,
    /// Read-modify-write (counter updates, list/refcount operations).
    Rmw,
}

impl AccessKind {
    /// Whether this access writes memory (a conflict requires at least one
    /// write, per the Linux kernel memory model definition the paper adopts).
    #[must_use]
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write | AccessKind::Rmw)
    }
}

/// One memory access performed by one executed instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// The accessed address.
    pub addr: Addr,
    /// Read, write, or read-modify-write.
    pub kind: AccessKind,
}

/// A lock transition performed by an executed instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockEvent {
    /// The lock was acquired.
    Acquired(LockId),
    /// The lock was released.
    Released(LockId),
}

/// What an executed instruction did besides touching memory: a lock
/// transition or a thread spawn. No instruction does both.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StepEvent {
    /// Neither.
    #[default]
    None,
    /// A `Lock` acquired or an `Unlock` released a lock.
    Lock(LockEvent),
    /// `queue_work` or `call_rcu` spawned a background thread.
    Spawned(ThreadId),
}

impl StepEvent {
    /// The event of a step with this lock transition and spawned thread.
    ///
    /// # Panics
    ///
    /// Panics when both are set: no instruction moves a lock and spawns a
    /// thread in one step, so a trace has room for one of them per step.
    #[must_use]
    pub fn of(lock_event: Option<LockEvent>, spawned: Option<ThreadId>) -> StepEvent {
        match (lock_event, spawned) {
            (None, None) => StepEvent::None,
            (Some(e), None) => StepEvent::Lock(e),
            (None, Some(t)) => StepEvent::Spawned(t),
            (Some(_), Some(_)) => panic!("a step cannot both move a lock and spawn a thread"),
        }
    }

    /// The lock transition, if any.
    #[must_use]
    #[inline]
    pub fn lock_event(self) -> Option<LockEvent> {
        match self {
            StepEvent::Lock(e) => Some(e),
            _ => None,
        }
    }

    /// The spawned thread, if any.
    #[must_use]
    #[inline]
    pub fn spawned(self) -> Option<ThreadId> {
        match self {
            StepEvent::Spawned(t) => Some(t),
            _ => None,
        }
    }
}

/// An owned copy of one executed instruction's step: what
/// [`crate::trace::Step`] shows, detached from its trace. Traces store
/// steps as columns, so this is for building traces by hand
/// ([`crate::Trace::push`]) and for comparing steps by value
/// ([`crate::trace::Step::to_record`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepRecord {
    /// The runtime thread that executed.
    pub tid: ThreadId,
    /// The static instruction address executed.
    pub at: InstrAddr,
    /// Memory accesses the instruction performed (empty for ALU/branches).
    pub accesses: Vec<MemAccess>,
    /// Lock transition, if the instruction was `Lock`/`Unlock`.
    pub lock_event: Option<LockEvent>,
    /// Locks held by the thread *while executing* this instruction (after a
    /// `Lock` acquires, before an `Unlock` releases) — used for
    /// critical-section detection (§3.4 liveness).
    pub locks_held: Vec<LockId>,
    /// Background thread spawned by this instruction (`queue_work`,
    /// `call_rcu`), if any. Never set together with `lock_event`.
    pub spawned: Option<ThreadId>,
}

impl StepRecord {
    /// A step of `tid` at `at` that touched no memory, held no lock and
    /// spawned nothing. Set the other fields with struct update syntax.
    #[must_use]
    pub fn new(tid: ThreadId, at: InstrAddr) -> StepRecord {
        StepRecord {
            tid,
            at,
            accesses: Vec::new(),
            lock_event: None,
            locks_held: Vec::new(),
            spawned: None,
        }
    }
}

/// The immediate outcome of a single engine step. An executed instruction
/// is appended to the engine's trace, where [`crate::Trace::last`] shows
/// it; the outcome itself carries nothing that would need a copy or an
/// allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The instruction executed normally.
    Executed,
    /// The thread could not acquire a lock and is now blocked; no
    /// instruction was executed and nothing was appended to the trace.
    Blocked {
        /// The contended lock.
        on: LockId,
    },
    /// The thread executed its final instruction and exited.
    Exited,
    /// The instruction raised a kernel failure; the engine has halted.
    Failed,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_classification() {
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::Write.is_write());
        assert!(AccessKind::Rmw.is_write());
    }

    #[test]
    fn step_event_splits_into_its_lock_event_and_spawned_thread() {
        let acquired = LockEvent::Acquired(LockId(3));
        assert_eq!(StepEvent::of(None, None), StepEvent::None);
        let lock = StepEvent::of(Some(acquired), None);
        assert_eq!((lock.lock_event(), lock.spawned()), (Some(acquired), None));
        let spawn = StepEvent::of(None, Some(ThreadId(4)));
        assert_eq!(
            (spawn.lock_event(), spawn.spawned()),
            (None, Some(ThreadId(4)))
        );
    }
}
