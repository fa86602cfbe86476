//! `aitia` — root-cause diagnosis of kernel concurrency failures.
//!
//! Reproduction of the AITIA system (EuroSys 2023): Least Interleaving
//! First Search ([`lifs`]) reproduces a concurrency failure as a
//! deterministic failure-causing instruction sequence, and Causality
//! Analysis ([`causality`]) flips each data race's interleaving order to
//! decide whether it contributes to the failure, assembling the root cause
//! as a *causality chain*.
//!
//! Module map (paper section in parentheses):
//!
//! * [`race`] — data races, happens-before, critical sections (§2);
//! * [`schedule`] — scheduling points and schedules (§4.3);
//! * [`enforce`] — schedule enforcement, the hypervisor equivalent (§4.4);
//! * [`exec`] — the shared VM-pool execution layer: batch scheduling of
//!   enforced runs with deterministic canonical-order folding;
//! * [`lifs`] — Least Interleaving First Search (§3.3);
//! * [`causality`] — Causality Analysis and chain construction (§3.4);
//! * [`simtime`] — the deterministic cost model pricing the seconds
//!   columns of the paper's Tables 2 and 3 (32 VMs, reboot-on-failure);
//! * [`manager`] — parallel reproducer/diagnoser orchestration (§4.1, §4.5);
//! * [`journal`] — the durable write-ahead run journal backing kill-and-resume;
//! * [`campaign`] — crash-safe, deadline-budgeted campaign driver;
//! * [`server`] — `campaignd`: a supervised multi-campaign diagnosis service
//!   with a persistent job queue, admission control, fair-share VM
//!   scheduling, and dead-letter quarantine;
//! * [`report`] — human-readable chain and diagnosis reports.
//!
//! # Example
//!
//! Diagnose the paper's Figure 1 bug end to end:
//!
//! ```
//! use aitia::{CausalityAnalysis, CausalityConfig, Lifs, LifsConfig};
//! use ksim::builder::{cond_reg, ProgramBuilder};
//! use ksim::CmpOp;
//! use std::sync::Arc;
//!
//! // Model the racing kernel paths.
//! let mut p = ProgramBuilder::new("fig1");
//! let obj = p.static_obj("obj", 8);
//! let ptr_valid = p.global("ptr_valid", 0);
//! let ptr = p.global_ptr("ptr", obj);
//! {
//!     let mut a = p.syscall_thread("A", "write");
//!     a.n("A1").store_global(ptr_valid, 1u64);
//!     a.n("A2").load_global("r0", ptr);
//!     a.load_ind("r1", "r0", 0); // *ptr
//!     a.ret();
//! }
//! {
//!     let mut b = p.syscall_thread("B", "write");
//!     let out = b.new_label();
//!     b.n("B1").load_global("r0", ptr_valid);
//!     b.jmp_if(cond_reg("r0", CmpOp::Eq, 0), out);
//!     b.n("B2").store_global(ptr, 0u64);
//!     b.place(out);
//!     b.ret();
//! }
//! let program = Arc::new(p.build().unwrap());
//!
//! // LIFS reproduces; Causality Analysis builds the chain.
//! let run = Lifs::new(program, LifsConfig::default())
//!     .search()
//!     .failing
//!     .expect("the race reproduces");
//! let result = CausalityAnalysis::new(CausalityConfig::default()).analyze(&run);
//! assert_eq!(
//!     result.chain.to_string(),
//!     "A1 ⇒ B1 → B2 ⇒ A2 → NULL pointer dereference"
//! );
//! ```

#![warn(missing_docs)]

use ksim::fxhash;

pub mod campaign;
pub mod causality;
pub mod enforce;
pub mod exec;
pub mod journal;
pub mod lifs;
mod lru;
pub mod manager;
pub mod race;
pub mod report;
pub mod schedule;
pub mod server;
pub mod simtime;

pub use campaign::{
    Campaign,
    CampaignOutcome,
    PartialDiagnosis, //
};
pub use causality::chain::{
    CausalityChain,
    ChainNode, //
};
pub use causality::{
    CausalityAnalysis,
    CausalityConfig,
    CausalityLevel,
    CausalityResult,
    Verdict, //
};
pub use enforce::{
    run as enforce_run,
    EnforceConfig,
    RunOutcome,
    RunResult,
    SnapshotForest, //
};
pub use exec::{
    CancelToken,
    ExecJob,
    ExecOutput,
    ExecStats,
    Executor,
    ExecutorConfig,
    Substrate, //
};
pub use journal::{
    Journal,
    JournalStats, //
};
pub use lifs::{
    FailingRun,
    FailureTarget,
    Lifs,
    LifsConfig,
    LifsOutput,
    PruneLevel, //
};
pub use race::{
    races_in_trace,
    AccessClass,
    ConflictIndex,
    ObservedRace,
    RaceEnd, //
};
pub use schedule::{
    Anchor,
    SchedPoint,
    Schedule,
    ThreadSel, //
};
pub use server::{
    CampaignServer,
    JobQueue,
    JobResolver,
    JobSnapshot,
    JobState,
    ResolvedJob,
    RetryBackoff,
    ServerConfig,
    ServerStats,
    SubmitError, //
};
pub use simtime::CostModel;
