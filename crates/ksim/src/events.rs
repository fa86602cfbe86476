//! Observable events produced by engine steps.
//!
//! Every [`crate::engine::Engine::step`] yields a [`StepRecord`] describing
//! exactly what AITIA's hypervisor would observe through breakpoints,
//! watchpoints, and kcov callbacks: the instruction executed, the memory it
//! touched, control-flow decisions, lock transitions, and thread spawns.

use crate::{
    addr::Addr,
    instr::LockId,
    program::InstrAddr,
    thread::ThreadId, //
};
use std::sync::Arc;

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

/// The record of one executed instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepRecord {
    /// Global sequence number within the run (total order of execution).
    pub seq: usize,
    /// The runtime thread that executed.
    pub tid: ThreadId,
    /// The static instruction address executed.
    pub at: InstrAddr,
    /// Memory accesses the instruction performed (empty for ALU/branches).
    pub accesses: Vec<MemAccess>,
    /// For conditional branches, whether the branch was taken.
    pub branch_taken: Option<bool>,
    /// Lock transition, if the instruction was `Lock`/`Unlock`.
    pub lock_event: Option<LockEvent>,
    /// Locks held by the thread *while executing* this instruction (after a
    /// `Lock` acquires, before an `Unlock` releases) — used for
    /// critical-section detection (§3.4 liveness).
    pub locks_held: Vec<LockId>,
    /// Background thread spawned by this instruction (`queue_work`,
    /// `call_rcu`), if any.
    pub spawned: Option<ThreadId>,
    /// The thread's program counter after this step (`None` when the thread
    /// exited) — lets schedule builders anchor a preemption point on "the
    /// next instruction this thread would have executed".
    pub next_pc: Option<usize>,
}

/// The immediate outcome of a single engine step.
///
/// Outcomes carry their record behind an [`Arc`] *shared with the engine
/// trace*: [`crate::Engine::step`] stores each record exactly once and
/// hands the caller another handle to it, instead of deep-cloning every
/// record a second time (field access still reads naturally through
/// `Deref`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The instruction executed normally; the record was appended to the
    /// engine trace.
    Executed(Arc<StepRecord>),
    /// The thread could not acquire a lock and is now blocked; no
    /// instruction was executed.
    Blocked {
        /// The contended lock.
        on: LockId,
    },
    /// The thread executed its final instruction and exited. The record of
    /// that final instruction is included.
    Exited(Arc<StepRecord>),
    /// The instruction raised a kernel failure; the engine has halted. The
    /// record of the faulting instruction is included.
    Failed(Arc<StepRecord>),
}

impl StepOutcome {
    /// The step record, when an instruction actually executed.
    #[must_use]
    pub fn record(&self) -> Option<&StepRecord> {
        match self {
            StepOutcome::Executed(r) | StepOutcome::Exited(r) | StepOutcome::Failed(r) => {
                Some(r.as_ref())
            }
            StepOutcome::Blocked { .. } => None,
        }
    }
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
    fn outcome_record_presence() {
        let rec = StepRecord {
            seq: 0,
            tid: ThreadId(0),
            at: InstrAddr {
                prog: crate::instr::ThreadProgId(0),
                index: 0,
            },
            accesses: vec![],
            branch_taken: None,
            lock_event: None,
            locks_held: vec![],
            spawned: None,
            next_pc: Some(0),
        };
        assert!(StepOutcome::Executed(Arc::new(rec.clone()))
            .record()
            .is_some());
        assert!(StepOutcome::Blocked { on: LockId(0) }.record().is_none());
        assert!(StepOutcome::Failed(Arc::new(rec)).record().is_some());
    }
}
