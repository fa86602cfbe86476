//! The kernel-code instruction IR.
//!
//! Kernel code paths under diagnosis are modeled as threads of a small,
//! RISC-like instruction set. The IR is deliberately minimal: AITIA's
//! algorithms (LIFS and Causality Analysis) only observe *which instructions
//! access which memory addresses*, *control flow*, and *failures* — so the
//! IR exposes exactly those behaviours, plus the kernel facilities the
//! paper's bugs exercise: spinlock-style locks, kernel linked lists,
//! reference counters, `kmalloc`/`kfree`, `BUG_ON`, and the deferred-work
//! mechanisms (`queue_work`, `call_rcu`, timers) that spawn kernel
//! background threads (paper Figure 4).
//!
//! Conditions and register arithmetic never touch memory: every shared
//! memory access is a distinct [`Instr::Load`], [`Instr::Store`], or
//! read-modify-write instruction, which keeps the conflict model exact.

use crate::addr::GlobalId;
use serde::{
    Deserialize,
    Serialize, //
};

/// A per-thread virtual register.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u16);

impl core::fmt::Debug for Reg {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifier of a kernel lock object (spinlock/mutex — the distinction does
/// not matter under external scheduling).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(pub u16);

/// Identifier of a static thread program within a [`crate::program::Program`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ThreadProgId(pub u16);

impl core::fmt::Debug for ThreadProgId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A value operand: an immediate or a register.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operand {
    /// An immediate 64-bit constant.
    Const(u64),
    /// The current value of a register.
    Reg(Reg),
}

/// An effective-address expression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AddrExpr {
    /// The fixed slot of a declared global variable.
    Global(GlobalId),
    /// `*(base + offset)` — a pointer held in a register plus a byte offset.
    Ind {
        /// Register holding the base pointer.
        base: Reg,
        /// Byte offset added to the base.
        offset: u64,
    },
}

/// Comparison operator for [`Cond`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned less-than.
    Lt,
    /// Unsigned less-or-equal.
    Le,
    /// Unsigned greater-than.
    Gt,
    /// Unsigned greater-or-equal.
    Ge,
}

/// A register/immediate condition; never accesses memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cond {
    /// Left-hand operand.
    pub lhs: Operand,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand operand.
    pub rhs: Operand,
}

impl Cond {
    /// Evaluates the condition given resolved operand values.
    #[must_use]
    pub fn eval(&self, lhs: u64, rhs: u64) -> bool {
        match self.op {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }
}

/// Binary ALU operator for [`Instr::Op`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Wrapping multiplication.
    Mul,
}

impl BinOp {
    /// Applies the operator.
    #[must_use]
    pub fn apply(self, lhs: u64, rhs: u64) -> u64 {
        match self {
            BinOp::Add => lhs.wrapping_add(rhs),
            BinOp::Sub => lhs.wrapping_sub(rhs),
            BinOp::And => lhs & rhs,
            BinOp::Or => lhs | rhs,
            BinOp::Xor => lhs ^ rhs,
            BinOp::Mul => lhs.wrapping_mul(rhs),
        }
    }
}

/// One kernel instruction.
///
/// Branch targets are resolved instruction indices within the owning thread
/// program (the builder resolves labels).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Instr {
    /// `dst = *addr` — an 8-byte shared-memory read.
    Load {
        /// Destination register.
        dst: Reg,
        /// Source address.
        addr: AddrExpr,
    },
    /// `*addr = src` — an 8-byte shared-memory write.
    Store {
        /// Destination address.
        addr: AddrExpr,
        /// Value stored.
        src: Operand,
    },
    /// `*addr += val` as a single read-modify-write step (models the
    /// single-instruction statistics-counter updates that Linux leaves as
    /// benign data races, §2.3). Optionally returns the old value.
    FetchAdd {
        /// Receives the pre-increment value, if present.
        dst: Option<Reg>,
        /// Counter address.
        addr: AddrExpr,
        /// Increment.
        val: Operand,
    },
    /// `dst = src` — register move / immediate load; no memory access.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = lhs op rhs` — register ALU; no memory access.
    Op {
        /// Destination register.
        dst: Reg,
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// Unconditional branch.
    Jmp {
        /// Target instruction index.
        target: usize,
    },
    /// Conditional branch, taken when `cond` holds.
    JmpIf {
        /// Branch condition (registers/immediates only).
        cond: Cond,
        /// Target instruction index.
        target: usize,
    },
    /// `dst = kmalloc(size)`; `must_free` marks objects whose survival at
    /// run end is a memory leak (Table 3 bug #9).
    Alloc {
        /// Receives the object base pointer.
        dst: Reg,
        /// Object size in bytes.
        size: u64,
        /// Whether an end-of-run leak check applies to this object.
        must_free: bool,
    },
    /// `kfree(ptr)`.
    Free {
        /// Pointer to the allocation base.
        ptr: Operand,
    },
    /// Acquire a kernel lock; blocks while another thread holds it.
    Lock {
        /// The lock object.
        lock: LockId,
    },
    /// Release a kernel lock held by this thread.
    Unlock {
        /// The lock object.
        lock: LockId,
    },
    /// `list_add(item, head)` — read-modify-write of the list head; double
    /// insertion of the same item corrupts the list (§2.1).
    ListAdd {
        /// Address of the list head.
        list: AddrExpr,
        /// Item (pointer value) inserted.
        item: Operand,
    },
    /// `list_del(item, head)` — read-modify-write; deleting an absent item
    /// corrupts the list.
    ListDel {
        /// Address of the list head.
        list: AddrExpr,
        /// Item removed.
        item: Operand,
    },
    /// `dst = list_contains(head, item)` — read of the list head.
    ListContains {
        /// Receives 1 if present, 0 otherwise.
        dst: Reg,
        /// Address of the list head.
        list: AddrExpr,
        /// Item looked up.
        item: Operand,
    },
    /// `dst = list_first_or_null(head)` — read of the list head.
    ListFirst {
        /// Receives the first item, or 0 when empty.
        dst: Reg,
        /// Address of the list head.
        list: AddrExpr,
    },
    /// `refcount_inc(*addr)` — warns when incrementing from zero
    /// (`WARNING: refcount bug`, Table 3 bug #8).
    RefGet {
        /// Address of the refcount word.
        addr: AddrExpr,
    },
    /// `dst = refcount_dec_and_test(*addr)` — warns on underflow; `dst`
    /// (optional) receives 1 when the count reached zero.
    RefPut {
        /// Receives 1 when the count dropped to zero.
        dst: Option<Reg>,
        /// Address of the refcount word.
        addr: AddrExpr,
    },
    /// `BUG_ON(cond)` — assertion failure when `cond` holds.
    BugOn {
        /// Failing condition (registers/immediates only).
        cond: Cond,
        /// Message reported with the failure.
        msg: &'static str,
    },
    /// `queue_work(...)` — spawn a kernel worker thread running `prog`
    /// (paper Figure 4 a/c). The argument register's value, if any, is
    /// copied into the worker's `r0`.
    QueueWork {
        /// Thread program the worker executes.
        prog: ThreadProgId,
        /// Optional argument forwarded to the worker's `r0`.
        arg: Option<Operand>,
    },
    /// `call_rcu(...)` — schedule an RCU callback thread running `prog`
    /// (paper Figure 4 b). The argument, if any, is copied into `r0`.
    CallRcu {
        /// Thread program the callback executes.
        prog: ThreadProgId,
        /// Optional argument forwarded to the callback's `r0`.
        arg: Option<Operand>,
    },
    /// `rcu_read_lock()` — enters an RCU read-side critical section. RCU
    /// callbacks queued by `call_rcu` only become runnable once every
    /// read-side section active at queueing time has ended (the grace
    /// period).
    RcuReadLock,
    /// `rcu_read_unlock()` — leaves the RCU read-side critical section.
    RcuReadUnlock,
    /// No operation (padding / placeholder for non-memory kernel work).
    Nop,
    /// Thread exit.
    Ret,
}

impl Instr {
    /// Whether this instruction statically *may* access shared memory.
    ///
    /// This is the simulator's equivalent of the user agent's disassembly
    /// map (§4.3): given a basic block, AITIA locates the instructions that
    /// can touch memory and treats them as breakpoint candidates.
    #[must_use]
    pub fn may_access_memory(&self) -> bool {
        matches!(
            self,
            Instr::Load { .. }
                | Instr::Store { .. }
                | Instr::FetchAdd { .. }
                | Instr::ListAdd { .. }
                | Instr::ListDel { .. }
                | Instr::ListContains { .. }
                | Instr::ListFirst { .. }
                | Instr::RefGet { .. }
                | Instr::RefPut { .. }
                | Instr::Free { .. }
        )
    }

    /// Whether this instruction is a control-flow branch.
    #[must_use]
    pub fn is_branch(&self) -> bool {
        matches!(self, Instr::Jmp { .. } | Instr::JmpIf { .. } | Instr::Ret)
    }
}

/// Source-level metadata attached to each instruction for reporting.
///
/// AITIA reports causality chains "with instruction-level information, such
/// as line numbers in the kernel" (§4.1); this is that information.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InstrMeta {
    /// Display name used in the paper's figures (e.g. `"A2"`, `"B11"`).
    pub name: Option<String>,
    /// Enclosing kernel function (e.g. `"fanout_add"`).
    pub func: &'static str,
    /// Source line within the modeled kernel file.
    pub line: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_eval_covers_all_ops() {
        let mk = |op| Cond {
            lhs: Operand::Const(0),
            op,
            rhs: Operand::Const(0),
        };
        assert!(mk(CmpOp::Eq).eval(3, 3));
        assert!(mk(CmpOp::Ne).eval(3, 4));
        assert!(mk(CmpOp::Lt).eval(3, 4));
        assert!(mk(CmpOp::Le).eval(4, 4));
        assert!(mk(CmpOp::Gt).eval(5, 4));
        assert!(mk(CmpOp::Ge).eval(4, 4));
        assert!(!mk(CmpOp::Eq).eval(1, 2));
        assert!(!mk(CmpOp::Lt).eval(4, 4));
    }

    #[test]
    fn binop_wraps() {
        assert_eq!(BinOp::Add.apply(u64::MAX, 1), 0);
        assert_eq!(BinOp::Sub.apply(0, 1), u64::MAX);
        assert_eq!(BinOp::Mul.apply(u64::MAX, 2), u64::MAX.wrapping_mul(2));
        assert_eq!(BinOp::And.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(BinOp::Or.apply(0b1100, 0b1010), 0b1110);
        assert_eq!(BinOp::Xor.apply(0b1100, 0b1010), 0b0110);
    }

    #[test]
    fn memory_access_classification() {
        let r = Reg(0);
        let g = AddrExpr::Global(crate::addr::GlobalId(0));
        assert!(Instr::Load { dst: r, addr: g }.may_access_memory());
        assert!(Instr::Store {
            addr: g,
            src: Operand::Const(1)
        }
        .may_access_memory());
        assert!(Instr::Free {
            ptr: Operand::Reg(r)
        }
        .may_access_memory());
        assert!(!Instr::Mov {
            dst: r,
            src: Operand::Const(1)
        }
        .may_access_memory());
        assert!(!Instr::Nop.may_access_memory());
        assert!(!Instr::Ret.may_access_memory());
        assert!(!Instr::Lock { lock: LockId(0) }.may_access_memory());
    }

    #[test]
    fn branch_classification() {
        assert!(Instr::Jmp { target: 0 }.is_branch());
        assert!(Instr::Ret.is_branch());
        assert!(!Instr::Nop.is_branch());
    }
}
