//! `ksim` — a deterministic, externally-scheduled kernel execution simulator.
//!
//! This crate is the substrate for the AITIA reproduction (EuroSys 2023,
//! *Diagnosing Kernel Concurrency Failures with AITIA*). The paper controls a
//! real Linux kernel at instruction granularity through a modified KVM/QEMU
//! hypervisor; `ksim` provides the equivalent control surface over modeled
//! kernel code paths:
//!
//! * kernel code is expressed in a small instruction IR ([`instr`]) built
//!   with an ergonomic DSL ([`builder`]);
//! * the [`engine`] executes exactly one instruction of one chosen thread
//!   per step — scheduling is fully external, which is what LIFS and
//!   Causality Analysis require;
//! * memory carries KASAN-style shadow state ([`memory`]) so failures
//!   (NULL deref, UAF, OOB, double-free, leaks) manifest deterministically;
//! * kernel facilities the paper's bugs exercise are modeled: locks, linked
//!   lists ([`list`]), refcounts, and background-thread spawning
//!   (`queue_work` / `call_rcu`);
//! * every step reports the memory accesses it made ([`events`]), which is
//!   how the analysis learns which instructions access memory (the paper's
//!   user agent gets this from kcov plus a disassembly map);
//! * engines snapshot and restore ([`engine::Snapshot`]), the analogue of
//!   reverting a VM between schedule executions.
//!
//! # Example
//!
//! ```
//! use ksim::builder::ProgramBuilder;
//! use ksim::engine::Engine;
//! use ksim::thread::ThreadId;
//! use std::sync::Arc;
//!
//! let mut p = ProgramBuilder::new("demo");
//! let x = p.global("x", 0);
//! {
//!     let mut a = p.syscall_thread("A", "write");
//!     a.store_global(x, 1u64);
//!     a.ret();
//! }
//! {
//!     let mut b = p.syscall_thread("B", "read");
//!     b.load_global("r0", x);
//!     b.ret();
//! }
//! let prog = Arc::new(p.build().unwrap());
//! let mut e = Engine::new(prog);
//! // External scheduling: B's load runs before A's store.
//! e.run_to_completion(ThreadId(1));
//! e.run_to_completion(ThreadId(0));
//! assert_eq!(e.threads()[1].regs[0], 0);
//! ```

#![warn(missing_docs)]

pub mod addr;
pub mod builder;
pub mod engine;
pub mod events;
pub mod failure;
pub mod instr;
pub mod list;
pub mod memory;
pub mod program;
pub mod thread;
pub mod trace;

pub use addr::{
    Addr,
    GlobalId, //
};
pub use builder::ProgramBuilder;
pub use engine::{
    Engine,
    EngineError,
    Snapshot, //
};
pub use events::{
    AccessKind,
    MemAccess,
    StepOutcome,
    StepRecord, //
};
pub use failure::{
    Failure,
    FailureKind, //
};
pub use instr::{
    CmpOp,
    Instr,
    LockId,
    ThreadProgId, //
};
pub use program::{
    InstrAddr,
    Program,
    ThreadKind, //
};
pub use thread::{
    Thread,
    ThreadId,
    ThreadStatus, //
};
pub use trace::Trace;
