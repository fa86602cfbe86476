//! Kernel failure taxonomy.
//!
//! The failure classes mirror the ones observed in the paper's evaluation
//! (Tables 2 and 3): NULL-pointer dereference, use-after-free (KASAN),
//! slab-out-of-bounds (KASAN), general protection fault, assertion violation
//! (`BUG_ON`), refcount warning (`WARNING: refcount bug`), memory leak,
//! list corruption (double insertion of a shared object, §2.1), hung task
//! (watchdog), and double free.

use crate::{
    addr::Addr,
    program::InstrAddr,
    thread::ThreadId, //
};

/// The class of a kernel failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// Dereference of an address inside the NULL guard page.
    NullDeref,
    /// KASAN: access to a freed (quarantined) heap object.
    UseAfterFree,
    /// KASAN: access to a redzone adjacent to a live heap object.
    SlabOutOfBounds,
    /// Access to an unmapped address (wild pointer).
    GeneralProtectionFault,
    /// A `BUG_ON` condition evaluated to true.
    AssertionViolation,
    /// Refcount increment from zero or decrement below zero.
    RefcountWarning,
    /// A heap object marked `must_free` was still live at run end.
    MemoryLeak,
    /// Linked-list invariant broken (double add or delete of absent node).
    ListCorruption,
    /// No runnable thread while unfinished work remains (deadlock), or the
    /// step budget was exhausted (livelock).
    HungTask,
    /// `kfree` of an already-freed object.
    DoubleFree,
}

impl core::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            FailureKind::NullDeref => "NULL pointer dereference",
            FailureKind::UseAfterFree => "KASAN: use-after-free",
            FailureKind::SlabOutOfBounds => "KASAN: slab-out-of-bounds",
            FailureKind::GeneralProtectionFault => "general protection fault",
            FailureKind::AssertionViolation => "kernel BUG (assertion violation)",
            FailureKind::RefcountWarning => "WARNING: refcount bug",
            FailureKind::MemoryLeak => "memory leak",
            FailureKind::ListCorruption => "list corruption",
            FailureKind::HungTask => "INFO: task hung (watchdog)",
            FailureKind::DoubleFree => "KASAN: double-free",
        };
        f.write_str(s)
    }
}

/// A manifested kernel failure: what happened, where, and on which thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    /// The failure class.
    pub kind: FailureKind,
    /// The static instruction at which the failure manifested.
    ///
    /// For [`FailureKind::MemoryLeak`] and [`FailureKind::HungTask`] this is
    /// the last instruction executed before the end-of-run check fired.
    pub at: InstrAddr,
    /// The runtime thread on which the failure manifested.
    pub tid: ThreadId,
    /// The faulting address, when the failure concerns a memory location.
    pub addr: Option<Addr>,
    /// Human-readable detail (e.g. the `BUG_ON` message).
    pub message: String,
}

impl core::fmt::Display for Failure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} at {} on {:?}", self.kind, self.at, self.tid)?;
        if let Some(a) = self.addr {
            write!(f, " addr {a}")?;
        }
        if !self.message.is_empty() {
            write!(f, ": {}", self.message)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::ThreadProgId;

    #[test]
    fn display_mentions_kind_and_location() {
        let f = Failure {
            kind: FailureKind::UseAfterFree,
            at: InstrAddr {
                prog: ThreadProgId(1),
                index: 4,
            },
            tid: ThreadId(2),
            addr: Some(Addr(0x2000_0000)),
            message: "irqfd".into(),
        };
        let s = f.to_string();
        assert!(s.contains("use-after-free"), "{s}");
        assert!(s.contains("0x20000000"), "{s}");
        assert!(s.contains("irqfd"), "{s}");
    }

    #[test]
    fn kinds_are_distinct_strings() {
        use FailureKind::*;
        let kinds = [
            NullDeref,
            UseAfterFree,
            SlabOutOfBounds,
            GeneralProtectionFault,
            AssertionViolation,
            RefcountWarning,
            MemoryLeak,
            ListCorruption,
            HungTask,
            DoubleFree,
        ];
        let mut seen = std::collections::HashSet::new();
        for k in kinds {
            assert!(seen.insert(k.to_string()), "duplicate display for {k:?}");
        }
    }
}
