//! The externally-scheduled kernel execution engine.
//!
//! The engine is the simulator's stand-in for AITIA's modified KVM/QEMU
//! hypervisor (§4.3–§4.4): it executes exactly one instruction of one chosen
//! thread per [`Engine::step`] call and reports everything a
//! breakpoint/watchpoint-instrumented hypervisor would observe. *All*
//! scheduling decisions are external — LIFS and Causality Analysis drive the
//! engine through schedules — which gives the instruction-level control the
//! paper obtains with hardware breakpoints, and trivially satisfies the
//! paper's sequential-consistency assumption (§3.2): a given step sequence
//! deterministically reproduces the same execution.
//!
//! Threads that are not scheduled are suspended but remain consistent with
//! in-kernel communication (the trampoline argument of §4.4): lock releases
//! wake blocked waiters, spawned background threads become runnable
//! immediately, and a failure halts every context at once (the kernel
//! crashed).

use crate::{
    addr::Addr,
    events::{
        AccessKind,
        LockEvent,
        MemAccess,
        StepOutcome,
        StepRecord, //
    },
    failure::{
        Failure,
        FailureKind, //
    },
    instr::{
        AddrExpr,
        Instr,
        LockId,
        Operand,
        ThreadProgId, //
    },
    list::Lists,
    memory::{
        MemFault,
        Memory, //
    },
    program::{
        GlobalInit,
        InstrAddr,
        Program, //
    },
    thread::{
        Thread,
        ThreadId,
        ThreadStatus, //
    },
    trace::Trace,
};
use std::{
    collections::HashMap,
    sync::Arc, //
};

/// Errors returned by [`Engine::step`] for invalid scheduling requests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The engine has halted (a failure manifested or all threads finished).
    Halted,
    /// No thread with that id exists.
    UnknownThread(ThreadId),
    /// The thread exists but is exited or killed.
    NotRunnable(ThreadId),
}

impl core::fmt::Display for EngineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EngineError::Halted => write!(f, "engine halted"),
            EngineError::UnknownThread(t) => write!(f, "unknown thread {t:?}"),
            EngineError::NotRunnable(t) => write!(f, "thread {t:?} is not runnable"),
        }
    }
}

impl std::error::Error for EngineError {}

/// A restorable engine checkpoint — the simulator's equivalent of reverting
/// a virtual machine's memory contents after a run of LIFS (§4.3).
///
/// The captured state lives behind an [`Arc`], so cloning a snapshot is a
/// reference-count bump. The executor's schedule-prefix checkpoint store
/// holds many snapshots and shuffles them through LRU order; cheap clones
/// keep that bookkeeping free of deep memory copies. The captured fields
/// themselves structurally share pages/chunks with the engine that took
/// the snapshot.
#[derive(Clone, Debug)]
pub struct Snapshot(Arc<SnapshotData>);

#[derive(Debug)]
struct SnapshotData {
    mem: Memory,
    lists: Lists,
    threads: Vec<Thread>,
    lock_owner: HashMap<LockId, ThreadId>,
    failure: Option<Failure>,
    trace: Trace,
    spawn_counts: HashMap<ThreadProgId, u32>,
    grace_waiters: Vec<(ThreadId, Vec<ThreadId>)>,
    halted: bool,
}

/// The kernel execution engine for one [`Program`].
#[derive(Clone, Debug)]
pub struct Engine {
    program: Arc<Program>,
    mem: Memory,
    lists: Lists,
    threads: Vec<Thread>,
    lock_owner: HashMap<LockId, ThreadId>,
    failure: Option<Failure>,
    trace: Trace,
    spawn_counts: HashMap<ThreadProgId, u32>,
    static_obj_addrs: Vec<Addr>,
    /// RCU callbacks waiting for a grace period, with the read-side
    /// sections (threads) that must end first.
    grace_waiters: Vec<(ThreadId, Vec<ThreadId>)>,
    halted: bool,
    /// Lifetime reboot count of this "VM". Survives [`Engine::reboot`] and
    /// is deliberately not part of snapshots: restoring a checkpoint
    /// rewinds execution state, not the machine's service history.
    reboots: u64,
}

impl Engine {
    /// Boots a fresh engine: allocates static objects, initializes globals,
    /// and spawns the initial syscall threads.
    #[must_use]
    pub fn new(program: Arc<Program>) -> Self {
        let mut mem = Memory::new(program.globals.len() as u32);
        let mut static_obj_addrs = Vec::with_capacity(program.static_objs.len());
        for so in &program.static_objs {
            static_obj_addrs.push(mem.alloc(so.size, false, &so.name));
        }
        for (i, g) in program.globals.iter().enumerate() {
            let val = match g.init {
                GlobalInit::Const(c) => c,
                GlobalInit::StaticPtr(idx) => static_obj_addrs[idx].0,
            };
            mem.write_raw(crate::addr::GlobalId(i as u32).addr(), val);
        }
        let mut threads = Vec::new();
        let mut spawn_counts: HashMap<ThreadProgId, u32> = HashMap::new();
        for &pid in &program.initial {
            let occ = *spawn_counts.entry(pid).and_modify(|c| *c += 1).or_insert(0);
            let tp = program.prog(pid);
            threads.push(Thread::new(
                ThreadId(threads.len() as u32),
                pid,
                occ,
                tp.reg_count,
                tp.kind.clone(),
                None,
            ));
        }
        Engine {
            program,
            mem,
            lists: Lists::new(),
            threads,
            lock_owner: HashMap::new(),
            failure: None,
            trace: Trace::new(),
            spawn_counts,
            static_obj_addrs,
            grace_waiters: Vec::new(),
            halted: false,
            reboots: 0,
        }
    }

    /// Reboots the engine to its initial state (the paper's VM reboot after
    /// a failing run).
    pub fn reboot(&mut self) {
        let reboots = self.reboots + 1;
        *self = Engine::new(Arc::clone(&self.program));
        self.reboots = reboots;
    }

    /// How many times this engine has been rebooted since boot.
    #[must_use]
    pub fn reboots(&self) -> u64 {
        self.reboots
    }

    /// The program under execution.
    #[must_use]
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The manifested failure, if any.
    #[must_use]
    pub fn failure(&self) -> Option<&Failure> {
        self.failure.as_ref()
    }

    /// The execution trace so far (total order of executed instructions).
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// All runtime threads (including exited ones).
    #[must_use]
    pub fn threads(&self) -> &[Thread] {
        &self.threads
    }

    /// A runtime thread by id.
    #[must_use]
    pub fn thread(&self, tid: ThreadId) -> Option<&Thread> {
        self.threads.get(tid.0 as usize)
    }

    /// Ids of currently runnable threads, in id order (deterministic).
    #[must_use]
    pub fn runnable(&self) -> Vec<ThreadId> {
        self.threads
            .iter()
            .filter(|t| t.is_runnable())
            .map(|t| t.id)
            .collect()
    }

    /// The runtime thread instantiated `occurrence`-th from `prog`, if any.
    #[must_use]
    pub fn thread_by_prog(&self, prog: ThreadProgId, occurrence: u32) -> Option<ThreadId> {
        self.threads
            .iter()
            .find(|t| t.prog == prog && t.occurrence == occurrence)
            .map(|t| t.id)
    }

    /// Whether every thread has finished (exited or killed).
    #[must_use]
    pub fn all_done(&self) -> bool {
        self.threads.iter().all(Thread::is_done)
    }

    /// Whether the engine can make no progress: no runnable thread, but
    /// blocked threads remain (a deadlock, reported as a hung task by
    /// enforcement layers).
    #[must_use]
    pub fn deadlocked(&self) -> bool {
        !self.halted
            && self.runnable().is_empty()
            && self
                .threads
                .iter()
                .any(|t| matches!(t.status, ThreadStatus::Blocked { .. }))
    }

    /// Whether the engine has halted (failure manifested or finished).
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted || self.all_done()
    }

    /// The static address of the next instruction `tid` would execute.
    ///
    /// Threads *killed* by an engine-wide failure still report their parked
    /// pc — "the instruction the thread would have executed" is exactly
    /// what pending-race detection (Figure 6's `B17 ⇒ A12`) needs. Only
    /// normally exited threads have no next instruction.
    #[must_use]
    pub fn next_instr(&self, tid: ThreadId) -> Option<InstrAddr> {
        let t = self.thread(tid)?;
        if t.status == ThreadStatus::Exited {
            return None;
        }
        Some(InstrAddr {
            prog: t.prog,
            index: t.pc,
        })
    }

    /// The address of the `idx`-th static object.
    #[must_use]
    pub fn static_obj_addr(&self, idx: usize) -> Addr {
        self.static_obj_addrs[idx]
    }

    /// Reads a cell for inspection without an access check.
    #[must_use]
    pub fn peek(&self, addr: Addr) -> u64 {
        self.mem.read_raw(addr)
    }

    /// The list side-table, for inspection.
    #[must_use]
    pub fn lists(&self) -> &Lists {
        &self.lists
    }

    /// The thread currently holding `lock`, if any — what a hypervisor
    /// learns when a suspended thread's lock blocks the running one
    /// (the liveness concern of §3.4).
    #[must_use]
    pub fn lock_holder(&self, lock: LockId) -> Option<ThreadId> {
        self.lock_owner.get(&lock).copied()
    }

    /// Injects a registered hardware-IRQ handler as a new runtime thread —
    /// the §4.6 extension: the hypervisor raises the interrupt at a
    /// scheduling point of its choosing. The injected context carries no
    /// happens-before edge from any kernel instruction (nothing "spawned"
    /// it), so its accesses are concurrent with everything not otherwise
    /// ordered.
    ///
    /// # Errors
    ///
    /// [`EngineError::Halted`] when the engine has halted;
    /// [`EngineError::UnknownThread`] (with a zero id) when `prog` is not a
    /// registered IRQ handler.
    pub fn inject_irq(&mut self, prog: ThreadProgId) -> Result<ThreadId, EngineError> {
        if self.halted {
            return Err(EngineError::Halted);
        }
        if !self.program.irq_handlers.contains(&prog) {
            return Err(EngineError::UnknownThread(ThreadId(u32::MAX)));
        }
        Ok(self.spawn(prog, None, ThreadId(u32::MAX)))
    }

    /// Captures a restorable checkpoint.
    ///
    /// Every large field is structurally shared with the live engine — a
    /// reference-count bump per memory page and trace chunk — so capture
    /// is O(dirty state).
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot(Arc::new(SnapshotData {
            mem: self.mem.clone(),
            lists: self.lists.clone(),
            threads: self.threads.clone(),
            lock_owner: self.lock_owner.clone(),
            failure: self.failure.clone(),
            trace: self.trace.clone(),
            spawn_counts: self.spawn_counts.clone(),
            grace_waiters: self.grace_waiters.clone(),
            halted: self.halted,
        }))
    }

    /// Restores a checkpoint taken from this engine (same program).
    pub fn restore(&mut self, s: &Snapshot) {
        let d = &*s.0;
        self.mem = d.mem.clone();
        self.lists = d.lists.clone();
        self.trace = d.trace.clone();
        self.threads = d.threads.clone();
        self.lock_owner = d.lock_owner.clone();
        self.failure = d.failure.clone();
        self.spawn_counts = d.spawn_counts.clone();
        self.grace_waiters = d.grace_waiters.clone();
        self.halted = d.halted;
    }

    fn reg(&self, tid: ThreadId, r: crate::instr::Reg) -> u64 {
        self.threads[tid.0 as usize].regs[r.0 as usize]
    }

    fn set_reg(&mut self, tid: ThreadId, r: crate::instr::Reg, v: u64) {
        self.threads[tid.0 as usize].regs[r.0 as usize] = v;
    }

    fn operand(&self, tid: ThreadId, op: Operand) -> u64 {
        match op {
            Operand::Const(c) => c,
            Operand::Reg(r) => self.reg(tid, r),
        }
    }

    fn addr_of(&self, tid: ThreadId, e: AddrExpr) -> Addr {
        match e {
            AddrExpr::Global(g) => g.addr(),
            AddrExpr::Ind { base, offset } => Addr(self.reg(tid, base)).offset(offset),
        }
    }

    /// Releases grace-period waiters once `reader` leaves its read-side
    /// section (and removes readers that exited without unlocking).
    fn end_grace_for(&mut self, reader: ThreadId) {
        for (cb, readers) in &mut self.grace_waiters {
            readers.retain(|&r| r != reader);
            if readers.is_empty()
                && self.threads[cb.0 as usize].status == ThreadStatus::WaitingGrace
            {
                self.threads[cb.0 as usize].status = ThreadStatus::Runnable;
            }
        }
        self.grace_waiters
            .retain(|(_, readers)| !readers.is_empty());
    }

    fn kill_all(&mut self) {
        for t in &mut self.threads {
            if !t.is_done() {
                t.status = ThreadStatus::Killed;
            }
        }
        self.halted = true;
    }

    fn raise(&mut self, tid: ThreadId, at: InstrAddr, fault: MemFault) {
        self.fail(tid, at, fault.kind, Some(fault.addr), String::new());
    }

    fn fail(
        &mut self,
        tid: ThreadId,
        at: InstrAddr,
        kind: FailureKind,
        addr: Option<Addr>,
        message: String,
    ) {
        self.failure = Some(Failure {
            kind,
            at,
            tid,
            addr,
            message,
        });
        self.kill_all();
    }

    fn spawn(&mut self, prog: ThreadProgId, arg: Option<u64>, by: ThreadId) -> ThreadId {
        let by_opt = if by == ThreadId(u32::MAX) {
            None
        } else {
            Some(by)
        };
        let occ = *self
            .spawn_counts
            .entry(prog)
            .and_modify(|c| *c += 1)
            .or_insert(0);
        let tp = self.program.prog(prog);
        let mut t = Thread::new(
            ThreadId(self.threads.len() as u32),
            prog,
            occ,
            tp.reg_count,
            tp.kind.clone(),
            by_opt,
        );
        if let Some(a) = arg {
            if !t.regs.is_empty() {
                t.regs[0] = a;
            }
        }
        let id = t.id;
        self.threads.push(t);
        id
    }

    /// Executes one instruction of `tid`.
    ///
    /// Memory faults, failed assertions, refcount violations, and list
    /// corruption manifest as a [`StepOutcome::Failed`] step that halts the
    /// engine. A contended `Lock` yields [`StepOutcome::Blocked`] without
    /// executing anything.
    ///
    /// # Errors
    ///
    /// See [`EngineError`]. Scheduling a blocked thread re-attempts its lock
    /// acquisition and is *not* an error (this mirrors a trampolined thread
    /// spinning on `cond_resched()`).
    pub fn step(&mut self, tid: ThreadId) -> Result<StepOutcome, EngineError> {
        if self.halted {
            return Err(EngineError::Halted);
        }
        let t = self
            .threads
            .get(tid.0 as usize)
            .ok_or(EngineError::UnknownThread(tid))?;
        match t.status {
            ThreadStatus::Exited | ThreadStatus::Killed | ThreadStatus::WaitingGrace => {
                return Err(EngineError::NotRunnable(tid));
            }
            // A blocked thread retries its `Lock`; runnable proceeds.
            ThreadStatus::Blocked { .. } | ThreadStatus::Runnable => {}
        }
        let prog_id = t.prog;
        let pc = t.pc;
        let at = InstrAddr {
            prog: prog_id,
            index: pc,
        };
        // Fetch by reference: cloning the `Arc<Program>` (one refcount
        // bump) keeps the borrow checker happy across `&mut self` calls
        // without copying the fetched instruction itself.
        let program = Arc::clone(&self.program);
        let instr = &program.prog(prog_id).instrs[pc];

        let mut record = StepRecord {
            seq: self.trace.len(),
            tid,
            at,
            accesses: Vec::new(),
            branch_taken: None,
            lock_event: None,
            locks_held: self.threads[tid.0 as usize].locks_held.clone(),
            spawned: None,
            next_pc: None,
        };
        let mut next_pc = pc + 1;
        let mut exited = false;

        // The record is pushed to the trace exactly once, behind an `Arc`
        // shared with the returned outcome — never deep-cloned.
        macro_rules! fail_step {
            () => {{
                let rec = Arc::new(record);
                self.trace.push(Arc::clone(&rec));
                return Ok(StepOutcome::Failed(rec));
            }};
        }

        macro_rules! check {
            ($res:expr) => {
                match $res {
                    Ok(v) => v,
                    Err(fault) => {
                        self.raise(tid, at, fault);
                        fail_step!();
                    }
                }
            };
        }

        match instr {
            Instr::Load { dst, addr } => {
                let a = self.addr_of(tid, *addr);
                record.accesses.push(MemAccess {
                    addr: a,
                    kind: AccessKind::Read,
                });
                let v = check!(self.mem.read(a));
                self.set_reg(tid, *dst, v);
            }
            Instr::Store { addr, src } => {
                let a = self.addr_of(tid, *addr);
                let v = self.operand(tid, *src);
                record.accesses.push(MemAccess {
                    addr: a,
                    kind: AccessKind::Write,
                });
                check!(self.mem.write(a, v));
            }
            Instr::FetchAdd { dst, addr, val } => {
                let a = self.addr_of(tid, *addr);
                let inc = self.operand(tid, *val);
                record.accesses.push(MemAccess {
                    addr: a,
                    kind: AccessKind::Rmw,
                });
                let old = check!(self.mem.read(a));
                check!(self.mem.write(a, old.wrapping_add(inc)));
                if let Some(d) = dst {
                    self.set_reg(tid, *d, old);
                }
            }
            Instr::Mov { dst, src } => {
                let v = self.operand(tid, *src);
                self.set_reg(tid, *dst, v);
            }
            Instr::Op { dst, op, lhs, rhs } => {
                let l = self.operand(tid, *lhs);
                let r = self.operand(tid, *rhs);
                self.set_reg(tid, *dst, op.apply(l, r));
            }
            Instr::Jmp { target } => {
                next_pc = *target;
            }
            Instr::JmpIf { cond, target } => {
                let l = self.operand(tid, cond.lhs);
                let r = self.operand(tid, cond.rhs);
                let taken = cond.eval(l, r);
                record.branch_taken = Some(taken);
                if taken {
                    next_pc = *target;
                }
            }
            Instr::Alloc {
                dst,
                size,
                must_free,
            } => {
                let base = self.mem.alloc(*size, *must_free, "");
                self.set_reg(tid, *dst, base.0);
            }
            Instr::Free { ptr } => {
                let base = Addr(self.operand(tid, *ptr));
                // Freeing invalidates the whole object: report a write to
                // every word so races against any field are observable (the
                // kfree/store race of Figure 9).
                if let Some(a) = self.mem.alloc_covering(base) {
                    if a.base == base {
                        let words = a.size / 8;
                        for w in 0..words {
                            record.accesses.push(MemAccess {
                                addr: base.offset(w * 8),
                                kind: AccessKind::Write,
                            });
                        }
                    }
                }
                if record.accesses.is_empty() {
                    record.accesses.push(MemAccess {
                        addr: base,
                        kind: AccessKind::Write,
                    });
                }
                check!(self.mem.free(base));
            }
            Instr::Lock { lock } => {
                let lock = *lock;
                match self.lock_owner.get(&lock).copied() {
                    None => {
                        self.lock_owner.insert(lock, tid);
                        let th = &mut self.threads[tid.0 as usize];
                        th.status = ThreadStatus::Runnable;
                        th.locks_held.push(lock);
                        record.lock_event = Some(LockEvent::Acquired(lock));
                        record.locks_held = th.locks_held.clone();
                    }
                    Some(owner) if owner == tid => {
                        // Self-deadlock on a non-recursive kernel lock.
                        self.fail(
                            tid,
                            at,
                            FailureKind::HungTask,
                            None,
                            format!("recursive acquisition of lock {lock:?}"),
                        );
                        fail_step!();
                    }
                    Some(_) => {
                        self.threads[tid.0 as usize].status = ThreadStatus::Blocked { on: lock };
                        return Ok(StepOutcome::Blocked { on: lock });
                    }
                }
            }
            Instr::Unlock { lock } => {
                let lock = *lock;
                if self.lock_owner.get(&lock) != Some(&tid) {
                    self.fail(
                        tid,
                        at,
                        FailureKind::AssertionViolation,
                        None,
                        format!("unlock of lock {lock:?} not held by {tid:?}"),
                    );
                    fail_step!();
                }
                self.lock_owner.remove(&lock);
                let th = &mut self.threads[tid.0 as usize];
                th.locks_held.retain(|&l| l != lock);
                record.lock_event = Some(LockEvent::Released(lock));
                // Wake every waiter; they re-race for the lock when stepped.
                for t in &mut self.threads {
                    if t.status == (ThreadStatus::Blocked { on: lock }) {
                        t.status = ThreadStatus::Runnable;
                    }
                }
            }
            Instr::ListAdd { list, item } => {
                let head = self.addr_of(tid, *list);
                let it = self.operand(tid, *item);
                record.accesses.push(MemAccess {
                    addr: head,
                    kind: AccessKind::Rmw,
                });
                check!(self.mem.check_access(head));
                check!(self.lists.add(head, it));
            }
            Instr::ListDel { list, item } => {
                let head = self.addr_of(tid, *list);
                let it = self.operand(tid, *item);
                record.accesses.push(MemAccess {
                    addr: head,
                    kind: AccessKind::Rmw,
                });
                check!(self.mem.check_access(head));
                check!(self.lists.del(head, it));
            }
            Instr::ListContains { dst, list, item } => {
                let head = self.addr_of(tid, *list);
                let it = self.operand(tid, *item);
                record.accesses.push(MemAccess {
                    addr: head,
                    kind: AccessKind::Read,
                });
                check!(self.mem.check_access(head));
                let v = u64::from(self.lists.contains(head, it));
                self.set_reg(tid, *dst, v);
            }
            Instr::ListFirst { dst, list } => {
                let head = self.addr_of(tid, *list);
                record.accesses.push(MemAccess {
                    addr: head,
                    kind: AccessKind::Read,
                });
                check!(self.mem.check_access(head));
                let v = self.lists.first(head).unwrap_or(0);
                self.set_reg(tid, *dst, v);
            }
            Instr::RefGet { addr } => {
                let a = self.addr_of(tid, *addr);
                record.accesses.push(MemAccess {
                    addr: a,
                    kind: AccessKind::Rmw,
                });
                let old = check!(self.mem.read(a));
                if old == 0 {
                    self.fail(
                        tid,
                        at,
                        FailureKind::RefcountWarning,
                        Some(a),
                        "refcount_inc on zero".into(),
                    );
                    fail_step!();
                }
                check!(self.mem.write(a, old + 1));
            }
            Instr::RefPut { dst, addr } => {
                let a = self.addr_of(tid, *addr);
                record.accesses.push(MemAccess {
                    addr: a,
                    kind: AccessKind::Rmw,
                });
                let old = check!(self.mem.read(a));
                if old == 0 {
                    self.fail(
                        tid,
                        at,
                        FailureKind::RefcountWarning,
                        Some(a),
                        "refcount underflow".into(),
                    );
                    fail_step!();
                }
                check!(self.mem.write(a, old - 1));
                if let Some(d) = dst {
                    self.set_reg(tid, *d, u64::from(old - 1 == 0));
                }
            }
            Instr::BugOn { cond, msg } => {
                let l = self.operand(tid, cond.lhs);
                let r = self.operand(tid, cond.rhs);
                if cond.eval(l, r) {
                    self.fail(
                        tid,
                        at,
                        FailureKind::AssertionViolation,
                        None,
                        (*msg).to_string(),
                    );
                    fail_step!();
                }
            }
            Instr::QueueWork { prog, arg } => {
                let a = arg.map(|op| self.operand(tid, op));
                let id = self.spawn(*prog, a, tid);
                record.spawned = Some(id);
            }
            Instr::CallRcu { prog, arg } => {
                let a = arg.map(|op| self.operand(tid, op));
                let id = self.spawn(*prog, a, tid);
                record.spawned = Some(id);
                // The callback waits for the grace period: it may only run
                // once every read-side section active right now has ended.
                let readers: Vec<ThreadId> = self
                    .threads
                    .iter()
                    .filter(|t| t.rcu_depth > 0)
                    .map(|t| t.id)
                    .collect();
                if !readers.is_empty() {
                    self.threads[id.0 as usize].status = ThreadStatus::WaitingGrace;
                    self.grace_waiters.push((id, readers));
                }
            }
            Instr::RcuReadLock => {
                self.threads[tid.0 as usize].rcu_depth += 1;
            }
            Instr::RcuReadUnlock => {
                let th = &mut self.threads[tid.0 as usize];
                if th.rcu_depth == 0 {
                    self.fail(
                        tid,
                        at,
                        FailureKind::AssertionViolation,
                        None,
                        "rcu_read_unlock without rcu_read_lock".into(),
                    );
                    fail_step!();
                }
                th.rcu_depth -= 1;
                if th.rcu_depth == 0 {
                    let reader = tid;
                    self.end_grace_for(reader);
                }
            }
            Instr::Nop => {}
            Instr::Ret => {
                exited = true;
            }
        }

        let th = &mut self.threads[tid.0 as usize];
        if exited {
            th.status = ThreadStatus::Exited;
            if th.rcu_depth > 0 {
                th.rcu_depth = 0;
                self.end_grace_for(tid);
            }
        } else {
            th.pc = next_pc;
            record.next_pc = Some(next_pc);
        }
        let rec = Arc::new(record);
        self.trace.push(Arc::clone(&rec));

        if exited {
            // End-of-run leak check once every thread has finished.
            if self.program.check_leaks && self.all_done() && self.failure.is_none() {
                let leaked_base = self.mem.leaked().first().map(|l| l.base);
                if let Some(base) = leaked_base {
                    self.fail(
                        tid,
                        at,
                        FailureKind::MemoryLeak,
                        Some(base),
                        "object never freed".into(),
                    );
                    self.trace.push(Arc::clone(&rec));
                    return Ok(StepOutcome::Failed(rec));
                }
            }
            return Ok(StepOutcome::Exited(rec));
        }
        Ok(StepOutcome::Executed(rec))
    }

    /// Runs `tid` until it exits, blocks, or the engine halts. Returns the
    /// number of instructions executed. Test/bootstrap convenience; AITIA's
    /// enforcement layer drives [`Engine::step`] directly.
    pub fn run_to_completion(&mut self, tid: ThreadId) -> usize {
        let mut n = 0;
        loop {
            if self.halted {
                return n;
            }
            match self.thread(tid) {
                Some(t) if t.is_runnable() => {}
                _ => return n,
            }
            match self.step(tid) {
                Ok(StepOutcome::Executed(_)) => n += 1,
                Ok(StepOutcome::Exited(_)) | Ok(StepOutcome::Failed(_)) => return n + 1,
                Ok(StepOutcome::Blocked { .. }) => return n,
                Err(_) => return n,
            }
        }
    }

    /// Runs every thread serially in spawn order until nothing can run,
    /// revisiting threads that were gated (e.g. an RCU callback waiting for
    /// its grace period) once something else made progress. Returns the
    /// failure, if one manifested. Test convenience.
    pub fn run_all_serial(&mut self) -> Option<Failure> {
        loop {
            if self.halted() {
                break;
            }
            let mut progressed = false;
            for idx in 0..self.threads.len() {
                if self.halted() {
                    break;
                }
                let tid = ThreadId(idx as u32);
                if self.threads[idx].is_runnable() && self.run_to_completion(tid) > 0 {
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        self.failure.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::instr::CmpOp;

    /// Two threads: A stores 1 to `x` and exits; B loads `x`.
    fn two_thread_program() -> Arc<Program> {
        let mut p = ProgramBuilder::new("two");
        let x = p.global("x", 0);
        {
            let mut a = p.syscall_thread("A", "write");
            a.store_global(x, 1);
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "read");
            b.load_global("r0", x);
            b.ret();
        }
        Arc::new(p.build().unwrap())
    }

    #[test]
    fn serial_execution_reads_prior_write() {
        let prog = two_thread_program();
        let mut e = Engine::new(Arc::clone(&prog));
        assert!(e.run_all_serial().is_none());
        assert!(e.all_done());
        // B's r0 observed A's store.
        assert_eq!(e.threads()[1].regs[0], 1);
    }

    #[test]
    fn reverse_schedule_reads_zero() {
        let prog = two_thread_program();
        let mut e = Engine::new(prog);
        e.run_to_completion(ThreadId(1));
        e.run_to_completion(ThreadId(0));
        assert_eq!(e.threads()[1].regs[0], 0);
    }

    #[test]
    fn trace_records_total_order() {
        let prog = two_thread_program();
        let mut e = Engine::new(prog);
        e.run_all_serial();
        let seqs: Vec<usize> = e.trace().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..e.trace().len()).collect::<Vec<_>>());
        assert_eq!(e.trace().len(), 4);
    }

    #[test]
    fn reboot_counter_survives_reboot_and_restore() {
        let prog = two_thread_program();
        let mut e = Engine::new(prog);
        assert_eq!(e.reboots(), 0);
        let snap = e.snapshot();
        e.reboot();
        e.reboot();
        assert_eq!(e.reboots(), 2);
        // Restoring rewinds execution state, not the machine's history.
        e.restore(&snap);
        assert_eq!(e.reboots(), 2);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let prog = two_thread_program();
        let mut e = Engine::new(prog);
        let snap = e.snapshot();
        e.run_all_serial();
        assert!(e.all_done());
        e.restore(&snap);
        assert!(!e.all_done());
        assert_eq!(e.trace().len(), 0);
        // Replays identically.
        assert!(e.run_all_serial().is_none());
        assert_eq!(e.threads()[1].regs[0], 1);
    }

    #[test]
    fn mutation_after_snapshot_does_not_leak_into_it() {
        // The COW representation shares pages/chunks between the engine
        // and its snapshots; running on must never show through.
        let prog = two_thread_program();
        let mut e = Engine::new(prog);
        e.step(ThreadId(0)).unwrap(); // A: x = 1
        let snap = e.snapshot();
        let trace_at_snap = e.trace().to_vec();
        e.run_all_serial(); // mutates memory, trace, threads
        assert!(e.all_done());
        e.restore(&snap);
        assert_eq!(e.trace().to_vec(), trace_at_snap);
        assert_eq!(e.trace().len(), 1);
        assert!(!e.all_done());
        // Replays identically from the checkpoint.
        assert!(e.run_all_serial().is_none());
        assert_eq!(e.threads()[1].regs[0], 1);
    }

    #[test]
    fn null_deref_halts_everything() {
        let mut p = ProgramBuilder::new("null");
        let ptr = p.global("ptr", 0);
        {
            let mut a = p.syscall_thread("A", "deref");
            a.load_global("r0", ptr);
            a.load_ind("r1", "r0", 0); // *NULL
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "noop");
            b.nop();
            b.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(prog);
        let f = e.run_all_serial().expect("must fail");
        assert_eq!(f.kind, FailureKind::NullDeref);
        // B was killed, not exited.
        assert_eq!(e.threads()[1].status, ThreadStatus::Killed);
        assert!(e.step(ThreadId(1)).is_err());
    }

    #[test]
    fn lock_contention_blocks_and_wakes() {
        let mut p = ProgramBuilder::new("locks");
        let x = p.global("x", 0);
        let l = p.lock("l");
        {
            let mut a = p.syscall_thread("A", "lock");
            a.lock(l);
            a.store_global(x, 1);
            a.unlock(l);
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "lock");
            b.lock(l);
            b.store_global(x, 2);
            b.unlock(l);
            b.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(prog);
        // A acquires the lock.
        e.step(ThreadId(0)).unwrap();
        // B blocks.
        match e.step(ThreadId(1)).unwrap() {
            StepOutcome::Blocked { on } => assert_eq!(on, l),
            o => panic!("expected Blocked, got {o:?}"),
        }
        assert!(!e.threads()[1].is_runnable());
        // A stores and releases; B wakes.
        e.step(ThreadId(0)).unwrap();
        e.step(ThreadId(0)).unwrap();
        assert!(e.threads()[1].is_runnable());
        // B can now acquire.
        match e.step(ThreadId(1)).unwrap() {
            StepOutcome::Executed(r) => {
                assert_eq!(r.lock_event, Some(LockEvent::Acquired(l)));
                assert_eq!(r.locks_held, vec![l]);
            }
            o => panic!("expected Executed, got {o:?}"),
        }
    }

    #[test]
    fn recursive_lock_is_hung_task() {
        let mut p = ProgramBuilder::new("rec");
        let l = p.lock("l");
        {
            let mut a = p.syscall_thread("A", "rec");
            a.lock(l);
            a.lock(l);
            a.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(prog);
        let f = e.run_all_serial().expect("must fail");
        assert_eq!(f.kind, FailureKind::HungTask);
    }

    #[test]
    fn unlock_of_unheld_lock_fails() {
        let mut p = ProgramBuilder::new("bad-unlock");
        let l = p.lock("l");
        {
            let mut a = p.syscall_thread("A", "u");
            a.unlock(l);
            a.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(prog);
        let f = e.run_all_serial().expect("must fail");
        assert_eq!(f.kind, FailureKind::AssertionViolation);
    }

    #[test]
    fn queue_work_spawns_runnable_worker() {
        let mut p = ProgramBuilder::new("wq");
        let x = p.global("x", 0);
        let worker = {
            let mut w = p.kworker_thread("kworker");
            w.store_global(x, 7);
            w.ret();
            w.id()
        };
        {
            let mut a = p.syscall_thread("A", "q");
            a.queue_work(worker, None);
            a.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(prog);
        let out = e.step(ThreadId(0)).unwrap();
        let rec = out.record().unwrap();
        let wid = rec.spawned.expect("spawned");
        assert!(e.thread(wid).unwrap().is_runnable());
        e.run_to_completion(wid);
        assert_eq!(e.peek(x.addr()), 7);
    }

    #[test]
    fn worker_receives_argument_in_r0() {
        let mut p = ProgramBuilder::new("wq-arg");
        let out = p.global("out", 0);
        let worker = {
            let mut w = p.kworker_thread("kworker");
            w.store_global_from(out, "r0");
            w.ret();
            w.id()
        };
        {
            let mut a = p.syscall_thread("A", "q");
            a.mov("r1", 99);
            a.queue_work_arg(worker, "r1");
            a.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(prog);
        e.run_all_serial();
        assert_eq!(e.peek(out.addr()), 99);
    }

    #[test]
    fn leak_check_fires_at_end() {
        let mut p = ProgramBuilder::new("leak");
        p.check_leaks(true);
        {
            let mut a = p.syscall_thread("A", "alloc");
            a.alloc_must_free("r0", 8);
            a.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(prog);
        let f = e.run_all_serial().expect("must leak");
        assert_eq!(f.kind, FailureKind::MemoryLeak);
    }

    #[test]
    fn leak_check_passes_when_freed() {
        let mut p = ProgramBuilder::new("no-leak");
        p.check_leaks(true);
        {
            let mut a = p.syscall_thread("A", "alloc");
            a.alloc_must_free("r0", 8);
            a.free("r0");
            a.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(prog);
        assert!(e.run_all_serial().is_none());
    }

    #[test]
    fn bug_on_failure_reports_message() {
        let mut p = ProgramBuilder::new("bug");
        {
            let mut a = p.syscall_thread("A", "b");
            a.mov("r0", 1);
            a.bug_on_msg(crate::builder::cond_reg("r0", CmpOp::Eq, 1), "boom");
            a.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(prog);
        let f = e.run_all_serial().expect("must fail");
        assert_eq!(f.kind, FailureKind::AssertionViolation);
        assert_eq!(f.message, "boom");
    }

    #[test]
    fn free_reports_write_access_to_every_word() {
        let mut p = ProgramBuilder::new("free-acc");
        {
            let mut a = p.syscall_thread("A", "f");
            a.alloc("r0", 24);
            a.free("r0");
            a.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(prog);
        e.step(ThreadId(0)).unwrap();
        let out = e.step(ThreadId(0)).unwrap();
        let rec = out.record().unwrap();
        assert_eq!(rec.accesses.len(), 3);
        assert!(rec.accesses.iter().all(|a| a.kind == AccessKind::Write));
    }

    #[test]
    fn reboot_resets_everything() {
        let prog = two_thread_program();
        let mut e = Engine::new(prog);
        e.run_all_serial();
        e.reboot();
        assert_eq!(e.trace().len(), 0);
        assert!(!e.all_done());
        assert_eq!(e.runnable().len(), 2);
    }

    #[test]
    fn deadlock_is_detected() {
        let mut p = ProgramBuilder::new("abba");
        let l1 = p.lock("l1");
        let l2 = p.lock("l2");
        {
            let mut a = p.syscall_thread("A", "ab");
            a.lock(l1);
            a.lock(l2);
            a.unlock(l2);
            a.unlock(l1);
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "ba");
            b.lock(l2);
            b.lock(l1);
            b.unlock(l1);
            b.unlock(l2);
            b.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(prog);
        // A takes l1; B takes l2; A blocks on l2; B blocks on l1.
        e.step(ThreadId(0)).unwrap();
        e.step(ThreadId(1)).unwrap();
        assert!(matches!(
            e.step(ThreadId(0)).unwrap(),
            StepOutcome::Blocked { .. }
        ));
        assert!(matches!(
            e.step(ThreadId(1)).unwrap(),
            StepOutcome::Blocked { .. }
        ));
        assert!(e.deadlocked());
    }

    #[test]
    fn refcount_underflow_warns() {
        let mut p = ProgramBuilder::new("ref");
        let cnt = p.global("cnt", 1);
        {
            let mut a = p.syscall_thread("A", "put2");
            a.ref_put(cnt);
            a.ref_put(cnt);
            a.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(prog);
        let f = e.run_all_serial().expect("must warn");
        assert_eq!(f.kind, FailureKind::RefcountWarning);
    }
}

#[cfg(test)]
mod rcu_tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    /// An RCU callback queued while a reader section is active must wait
    /// for the grace period.
    #[test]
    fn rcu_callback_waits_for_grace_period() {
        let mut p = ProgramBuilder::new("rcu-grace");
        let x = p.global("x", 0);
        let cb = {
            let mut r = p.rcu_thread("rcu_cb");
            r.store_global(x, 7u64);
            r.ret();
            r.id()
        };
        {
            let mut reader = p.syscall_thread("R", "read");
            reader.rcu_read_lock(); // 0
            reader.load_global("r0", x); // 1
            reader.rcu_read_unlock(); // 2
            reader.ret(); // 3
        }
        {
            let mut w = p.syscall_thread("W", "write");
            w.call_rcu(cb, None);
            w.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(prog);
        // Reader enters its section.
        e.step(ThreadId(0)).unwrap();
        // Writer queues the callback: it must be gated.
        let out = e.step(ThreadId(1)).unwrap();
        let cb_tid = out.record().unwrap().spawned.unwrap();
        assert_eq!(e.thread(cb_tid).unwrap().status, ThreadStatus::WaitingGrace);
        assert!(e.step(cb_tid).is_err(), "gated callback cannot be stepped");
        // Reader leaves the section: the callback becomes runnable.
        e.step(ThreadId(0)).unwrap(); // load
        e.step(ThreadId(0)).unwrap(); // rcu_read_unlock
        assert!(e.thread(cb_tid).unwrap().is_runnable());
        e.run_to_completion(cb_tid);
        assert_eq!(e.peek(x.addr()), 7);
    }

    /// A callback queued outside any read-side section runs immediately.
    #[test]
    fn rcu_callback_without_readers_is_runnable() {
        let mut p = ProgramBuilder::new("rcu-free");
        let cb = {
            let mut r = p.rcu_thread("rcu_cb");
            r.nop();
            r.ret();
            r.id()
        };
        {
            let mut w = p.syscall_thread("W", "write");
            w.call_rcu(cb, None);
            w.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(prog);
        let out = e.step(ThreadId(0)).unwrap();
        let cb_tid = out.record().unwrap().spawned.unwrap();
        assert!(e.thread(cb_tid).unwrap().is_runnable());
    }

    /// Unbalanced rcu_read_unlock is a kernel bug.
    #[test]
    fn unbalanced_rcu_unlock_fails() {
        let mut p = ProgramBuilder::new("rcu-bad");
        {
            let mut a = p.syscall_thread("A", "x");
            a.rcu_read_unlock();
            a.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(prog);
        let f = e.run_all_serial().expect("fails");
        assert_eq!(f.kind, FailureKind::AssertionViolation);
    }

    /// A reader that exits inside its section implicitly ends it (the
    /// engine does not leak the grace period).
    #[test]
    fn reader_exit_ends_grace_period() {
        let mut p = ProgramBuilder::new("rcu-exit");
        let cb = {
            let mut r = p.rcu_thread("rcu_cb");
            r.ret();
            r.id()
        };
        {
            let mut reader = p.syscall_thread("R", "read");
            reader.rcu_read_lock();
            reader.ret(); // exits while still "inside"
        }
        {
            let mut w = p.syscall_thread("W", "write");
            w.call_rcu(cb, None);
            w.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(prog);
        e.step(ThreadId(0)).unwrap(); // rcu_read_lock
        let out = e.step(ThreadId(1)).unwrap();
        let cb_tid = out.record().unwrap().spawned.unwrap();
        assert_eq!(e.thread(cb_tid).unwrap().status, ThreadStatus::WaitingGrace);
        e.step(ThreadId(0)).unwrap(); // reader exits
        assert!(e.thread(cb_tid).unwrap().is_runnable());
    }
}

#[cfg(test)]
mod irq_tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    #[test]
    fn inject_irq_spawns_a_concurrent_handler() {
        let mut p = ProgramBuilder::new("irq");
        let x = p.global("x", 0);
        let irq = {
            let mut h = p.irq_thread("irq");
            h.store_global(x, 1u64);
            h.ret();
            h.id()
        };
        {
            let mut a = p.syscall_thread("A", "s");
            a.nop();
            a.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(Arc::clone(&prog));
        // Only the syscall thread exists at boot.
        assert_eq!(e.threads().len(), 1);
        let tid = e.inject_irq(irq).expect("registered handler injects");
        assert!(e.thread(tid).unwrap().is_runnable());
        // The injected context has no spawner.
        assert_eq!(e.thread(tid).unwrap().spawned_by, None);
        e.run_to_completion(tid);
        assert_eq!(e.peek(x.addr()), 1);
    }

    #[test]
    fn injecting_an_unregistered_program_is_an_error() {
        let mut p = ProgramBuilder::new("irq-bad");
        let w = {
            let mut k = p.kworker_thread("kw");
            k.ret();
            k.id()
        };
        {
            let mut a = p.syscall_thread("A", "s");
            a.queue_work(w, None);
            a.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(prog);
        assert!(e.inject_irq(w).is_err());
    }

    #[test]
    fn validate_rejects_non_irq_handler_registration() {
        let mut p = ProgramBuilder::new("bad-reg");
        {
            let mut a = p.syscall_thread("A", "s");
            a.ret();
        }
        let mut prog = p.build().unwrap();
        prog.irq_handlers.push(crate::instr::ThreadProgId(0));
        assert!(prog.validate().is_err());
    }
}

#[cfg(test)]
mod serial_helper_tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    /// A grace-gated RCU callback spawned mid-run is revisited once the
    /// reader section ends.
    #[test]
    fn run_all_serial_revisits_gated_callbacks() {
        let mut p = ProgramBuilder::new("serial-rcu");
        let x = p.global("x", 0);
        let cb = {
            let mut r = p.rcu_thread("cb");
            r.store_global(x, 5u64);
            r.ret();
            r.id()
        };
        {
            // Reader holds a section across the writer's call_rcu — within
            // ONE thread to exercise the revisit: the thread enters a
            // section, queues the callback, then exits the section.
            let mut a = p.syscall_thread("A", "s");
            a.rcu_read_lock();
            a.call_rcu(cb, None);
            a.rcu_read_unlock();
            a.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(prog);
        assert!(e.run_all_serial().is_none());
        assert!(e.all_done());
        assert_eq!(e.peek(x.addr()), 5);
    }
}
