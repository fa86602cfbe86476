//! Static kernel programs: thread code, globals, and static objects.

use crate::instr::{
    Instr,
    InstrMeta,
    ThreadProgId, //
};
use serde::{
    Deserialize,
    Serialize, //
};

/// The static address of one instruction: which thread program, which index.
///
/// This is the simulator's analogue of a kernel code address — the thing the
/// AITIA hypervisor sets breakpoints on and schedules refer to
/// ("Thread A is interleaved to Thread B at address 0x601020", §4.3).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct InstrAddr {
    /// The thread program containing the instruction.
    pub prog: ThreadProgId,
    /// The instruction index within the program.
    pub index: usize,
}

impl core::fmt::Debug for InstrAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:?}:{}", self.prog, self.index)
    }
}

impl core::fmt::Display for InstrAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:?}:{}", self.prog, self.index)
    }
}

/// The execution context a thread program models.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThreadKind {
    /// A system-call thread (entered from user space).
    Syscall {
        /// The system call name (e.g. `"setsockopt"`).
        name: String,
    },
    /// A kernel worker thread (`kworkerd`), invoked via `queue_work`.
    Kworker,
    /// An RCU callback context, invoked via `call_rcu` (softirq for RCU).
    RcuCallback,
    /// A timer callback context.
    Timer,
    /// A hardware interrupt handler. Never spawned by kernel code: the
    /// hypervisor *injects* it at a scheduling point (the paper's §4.6
    /// future-work case, realized here via
    /// [`crate::engine::Engine::inject_irq`]).
    HardIrq,
}

impl ThreadKind {
    /// Whether this is a background (non-syscall) kernel context.
    #[must_use]
    pub fn is_background(&self) -> bool {
        !matches!(self, ThreadKind::Syscall { .. })
    }
}

/// The code of one thread: a straight-line instruction array with resolved
/// branch targets, plus per-instruction reporting metadata.
#[derive(Clone, Debug)]
pub struct ThreadProg {
    /// Short thread name (e.g. `"A"`, `"kworker"`).
    pub name: String,
    /// The execution context this program models.
    pub kind: ThreadKind,
    /// The instructions.
    pub instrs: Vec<Instr>,
    /// Parallel metadata array (`meta[i]` describes `instrs[i]`).
    pub meta: Vec<InstrMeta>,
    /// Number of virtual registers the program uses.
    pub reg_count: u16,
}

impl ThreadProg {
    /// The display name of instruction `index` (`"A2"`-style if named,
    /// otherwise `name:index`).
    #[must_use]
    pub fn instr_name(&self, index: usize) -> String {
        match self.meta.get(index).and_then(|m| m.name.as_deref()) {
            Some(n) => n.to_string(),
            None => format!("{}:{}", self.name, index),
        }
    }
}

/// Initial value of a global variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GlobalInit {
    /// A constant (0 models NULL for pointer-typed globals).
    Const(u64),
    /// A pointer to the static object with the given index — the engine
    /// allocates static objects at reset and patches their base addresses in.
    StaticPtr(usize),
}

/// A declared global variable.
#[derive(Clone, Debug)]
pub struct GlobalDecl {
    /// Source-level name (e.g. `"po->running"`).
    pub name: String,
    /// Initial value.
    pub init: GlobalInit,
}

/// A static heap object allocated before the run starts (e.g. the socket
/// object both threads of CVE-2017-15649 share).
#[derive(Clone, Debug)]
pub struct StaticObj {
    /// Source-level name (e.g. `"sk"`).
    pub name: String,
    /// Object size in bytes.
    pub size: u64,
}

/// A complete kernel scenario: globals, static objects, thread programs, and
/// which programs start as runnable syscall threads.
///
/// This corresponds to one *slice* of the execution history (§4.2): the 2–3
/// concurrently executing contexts AITIA reproduces and diagnoses together.
#[derive(Clone, Debug)]
pub struct Program {
    /// Scenario name (e.g. `"CVE-2017-15649"`).
    pub name: String,
    /// Declared globals, indexed by [`crate::GlobalId`].
    pub globals: Vec<GlobalDecl>,
    /// Static objects allocated at reset.
    pub static_objs: Vec<StaticObj>,
    /// All thread programs, indexed by [`ThreadProgId`].
    pub progs: Vec<ThreadProg>,
    /// Programs started as initial (syscall) threads, in invocation order.
    pub initial: Vec<ThreadProgId>,
    /// Hardware-IRQ handler programs the hypervisor may inject at any
    /// scheduling point (they are never spawned by kernel instructions).
    pub irq_handlers: Vec<ThreadProgId>,
    /// Whether an end-of-run leak check runs over `must_free` allocations.
    pub check_leaks: bool,
}

impl Program {
    /// Access a thread program by id.
    ///
    /// # Panics
    ///
    /// Panics when the id is out of range (a builder bug, not a user error).
    #[must_use]
    pub fn prog(&self, id: ThreadProgId) -> &ThreadProg {
        &self.progs[id.0 as usize]
    }

    /// Reporting metadata for a static address, if it exists.
    #[must_use]
    pub fn meta_at(&self, at: InstrAddr) -> Option<&InstrMeta> {
        self.progs.get(at.prog.0 as usize)?.meta.get(at.index)
    }

    /// The display name of the instruction at `at` (e.g. `"A2"`).
    #[must_use]
    pub fn instr_name(&self, at: InstrAddr) -> String {
        match self.progs.get(at.prog.0 as usize) {
            Some(p) => p.instr_name(at.index),
            None => format!("{at}"),
        }
    }

    /// Validates internal consistency (branch targets in range, metadata
    /// arrays parallel, initial threads are syscalls).
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        for (pi, p) in self.progs.iter().enumerate() {
            if p.instrs.len() != p.meta.len() {
                return Err(format!("prog {pi}: meta array not parallel to instrs"));
            }
            for (i, ins) in p.instrs.iter().enumerate() {
                let target = match ins {
                    Instr::Jmp { target } | Instr::JmpIf { target, .. } => Some(*target),
                    _ => None,
                };
                if let Some(t) = target {
                    if t >= p.instrs.len() {
                        return Err(format!(
                            "prog {pi} instr {i}: branch target {t} out of range"
                        ));
                    }
                }
                let spawn = match ins {
                    Instr::QueueWork { prog, .. } | Instr::CallRcu { prog, .. } => Some(*prog),
                    _ => None,
                };
                if let Some(sp) = spawn {
                    if sp.0 as usize >= self.progs.len() {
                        return Err(format!(
                            "prog {pi} instr {i}: spawn target {sp:?} out of range"
                        ));
                    }
                    if !self.progs[sp.0 as usize].kind.is_background() {
                        return Err(format!(
                            "prog {pi} instr {i}: spawn target {sp:?} is not a background program"
                        ));
                    }
                }
            }
            match p.instrs.last() {
                Some(Instr::Ret) | Some(Instr::Jmp { .. }) => {}
                _ => return Err(format!("prog {pi}: must end with Ret or Jmp")),
            }
        }
        for id in &self.initial {
            if id.0 as usize >= self.progs.len() {
                return Err(format!("initial thread {id:?} out of range"));
            }
            if self.progs[id.0 as usize].kind.is_background() {
                return Err(format!("initial thread {id:?} is a background program"));
            }
        }
        for id in &self.irq_handlers {
            if id.0 as usize >= self.progs.len() {
                return Err(format!("irq handler {id:?} out of range"));
            }
            if self.progs[id.0 as usize].kind != ThreadKind::HardIrq {
                return Err(format!("irq handler {id:?} is not a HardIrq program"));
            }
        }
        if self.initial.is_empty() {
            return Err("no initial threads".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{
        Cond,
        Operand, //
    };

    fn tiny_prog(instrs: Vec<Instr>) -> Program {
        let n = instrs.len();
        Program {
            name: "t".into(),
            globals: vec![],
            static_objs: vec![],
            progs: vec![ThreadProg {
                name: "A".into(),
                kind: ThreadKind::Syscall { name: "x".into() },
                instrs,
                meta: vec![InstrMeta::default(); n],
                reg_count: 1,
            }],
            initial: vec![ThreadProgId(0)],
            irq_handlers: vec![],
            check_leaks: false,
        }
    }

    #[test]
    fn validate_accepts_well_formed() {
        let p = tiny_prog(vec![Instr::Nop, Instr::Ret]);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_branch() {
        let p = tiny_prog(vec![
            Instr::JmpIf {
                cond: Cond {
                    lhs: Operand::Const(0),
                    op: crate::instr::CmpOp::Eq,
                    rhs: Operand::Const(0),
                },
                target: 99,
            },
            Instr::Ret,
        ]);
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_missing_terminator() {
        let p = tiny_prog(vec![Instr::Nop]);
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_background_initial_thread() {
        let mut p = tiny_prog(vec![Instr::Ret]);
        p.progs[0].kind = ThreadKind::Kworker;
        assert!(p.validate().is_err());
    }

    #[test]
    fn instr_names_fall_back_to_index() {
        let p = tiny_prog(vec![Instr::Nop, Instr::Ret]);
        assert_eq!(
            p.instr_name(InstrAddr {
                prog: ThreadProgId(0),
                index: 1
            }),
            "A:1"
        );
    }
}
