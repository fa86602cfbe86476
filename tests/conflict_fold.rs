//! Differential test of LIFS's one-pass knowledge fold
//! (`race::trace_conflicts`) against the reference sweeps it replaces:
//!
//! * its racing pairs must equal the unordered keys of `races_in_trace` ∪
//!   `cs_order_races`;
//! * its conflict-order triples must equal the quadratic all-pairs sweep
//!   LIFS used to hash into its equivalence signature (kept below as the
//!   reference).
//!
//! The traces are every trace LIFS folds while diagnosing Table 2 at noise
//! scale 0.05 and generated bugs 0..64, plus hand-built `ksim` traces for
//! each happens-before shape the single-component clock test must get
//! right.

use aitia_repro::aitia::{
    lifs::{
        initial_sels,
        tree::{
            NodeOutcome,
            PreemptionDesc,
            SearchNode, //
        },
    },
    race::{
        self,
        cs_order_races,
        races_in_trace, //
    },
    Anchor, CancelToken, ExecJob, Executor, ExecutorConfig, Lifs, LifsConfig, PruneLevel,
    SchedPoint, Schedule, Substrate, ThreadSel,
};
use aitia_repro::corpus;
use aitia_repro::ksim::{
    builder::{
        cond_reg,
        ProgramBuilder, //
    },
    events::LockEvent,
    instr::BinOp,
    AccessKind, Addr, CmpOp, Engine, InstrAddr, LockId, MemAccess, Program, StepRecord, ThreadId,
    Trace,
};
use std::collections::HashMap;
use std::sync::Arc;

/// The conflict-order sweep LIFS hashed before the one-pass fold: every
/// cross-thread pair of accesses to one address with at least one write,
/// as `(earlier instruction, later instruction, address)`.
fn reference_order(trace: &Trace) -> Vec<(InstrAddr, InstrAddr, Addr)> {
    let evts = race::accesses(trace);
    let mut by_addr: HashMap<Addr, Vec<usize>> = HashMap::new();
    for (i, e) in evts.iter().enumerate() {
        by_addr.entry(e.addr).or_default().push(i);
    }
    let mut out = Vec::new();
    for (addr, idxs) in &by_addr {
        for (pos, &i) in idxs.iter().enumerate() {
            for &j in &idxs[pos + 1..] {
                let (a, b) = (&evts[i], &evts[j]);
                if a.tid == b.tid || !(a.is_write || b.is_write) {
                    continue;
                }
                let (first, second) = if a.seq <= b.seq { (a, b) } else { (b, a) };
                out.push((first.at, second.at, *addr));
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// The racing and critical-section pairs the two reference detectors find.
fn reference_pairs(trace: &Trace) -> Vec<(InstrAddr, InstrAddr)> {
    let mut out: Vec<_> = races_in_trace(trace)
        .iter()
        .chain(&cs_order_races(trace))
        .map(|r| r.unordered_key())
        .collect();
    out.sort();
    out.dedup();
    out
}

fn assert_fold_matches(trace: &Trace, what: &str) {
    let got = race::trace_conflicts(trace);
    assert_eq!(got.pairs, reference_pairs(trace), "{what}: racing pairs");
    assert_eq!(got.order, reference_order(trace), "{what}: conflict order");
}

/// The schedule LIFS ran for an executed tree node.
fn node_schedule(node: &SearchNode, initial: &[ThreadSel]) -> Schedule {
    let Some(last) = node.plan.last() else {
        // A serial run, or a hardware-IRQ probe: the initial threads
        // serially with the handler injected at the end.
        return match node.serial_order.as_slice() {
            [irq] if !initial.contains(irq) => {
                Schedule::serial(initial.iter().copied().chain([*irq]).collect())
            }
            order => Schedule::serial(order.to_vec()),
        };
    };
    let target = |p: &PreemptionDesc| p.target.expect("an executed plan names its targets");
    let mut fallback = vec![target(last)];
    fallback.extend(initial.iter().filter(|&&s| s != target(last)));
    Schedule {
        start: node.plan.first().map(|p| p.victim),
        points: node
            .plan
            .iter()
            .map(|p| SchedPoint {
                thread: p.victim,
                at: p.at,
                nth: p.nth,
                when: Anchor::After,
                switch_to: target(p),
            })
            .collect(),
        fallback,
        segments: Vec::new(),
    }
}

/// Every trace a LIFS search over `program` folds into its knowledge base.
///
/// The search runs on a private memo table; its executed tree nodes are
/// then replayed against that table. Every replay must be a memo hit, which
/// proves the recovered schedules are exactly the ones the search ran.
fn folded_traces(program: &Arc<Program>, config: LifsConfig) -> Vec<Trace> {
    let exec = Arc::new(Executor::with_config(ExecutorConfig {
        vms: 1,
        substrate: Substrate::private(8192, 16),
        ..ExecutorConfig::default()
    }));
    let enforce = config.enforce;
    let out = Lifs::with_executor(Arc::clone(program), config, Arc::clone(&exec)).search();
    let initial = initial_sels(program);
    let jobs: Vec<ExecJob> = out
        .tree
        .nodes
        .iter()
        .filter(|n| match n.outcome {
            NodeOutcome::NoFailure | NodeOutcome::Failure => true,
            // Executed but equivalent to an earlier run; the prune log's
            // never-executed entries carry no steps.
            NodeOutcome::PrunedEquivalent => n.steps > 0,
            _ => false,
        })
        .map(|n| ExecJob {
            program: Arc::clone(program),
            schedule: node_schedule(n, &initial),
            enforce,
            shared_steps: None,
        })
        .collect();
    assert_eq!(jobs.len(), out.stats.schedules_executed, "{}", program.name);
    exec.run_batch(&jobs, &CancelToken::new())
        .into_iter()
        .map(|o| {
            let o = o.expect("an uncancelled batch returns every job");
            assert!(
                o.memo_hit,
                "{}: replayed a schedule LIFS never ran",
                program.name
            );
            o.run.trace
        })
        .collect()
}

/// The traces come from `conflict` searches: `dpor` folds too few of them
/// to reach the floors below.
#[test]
fn fold_matches_reference_on_every_table2_trace() {
    let mut folded = 0;
    for bug in corpus::cves() {
        let program = bug.program_scaled(0.05);
        let config = LifsConfig {
            prune: PruneLevel::Conflict,
            ..bug.lifs_config()
        };
        for (i, trace) in folded_traces(&program, config).iter().enumerate() {
            assert_fold_matches(trace, &format!("{} run {i}", bug.id));
            folded += 1;
        }
    }
    assert!(folded >= 100, "only {folded} Table 2 traces folded");
}

#[test]
fn fold_matches_reference_on_every_generated_bug_trace() {
    let mut folded = 0;
    for seed in 0..64 {
        let bug = corpus::generate::generate(seed);
        let config = LifsConfig {
            prune: PruneLevel::Conflict,
            ..bug.lifs_config()
        };
        for (i, trace) in folded_traces(&bug.program, config).iter().enumerate() {
            assert_fold_matches(trace, &format!("gen:{seed} run {i}"));
            folded += 1;
        }
    }
    assert!(folded >= 300, "only {folded} generated traces folded");
}

/// The instruction at `index` of thread program `prog`.
fn at(prog: u16, index: usize) -> InstrAddr {
    InstrAddr {
        prog: aitia_repro::ksim::ThreadProgId(prog),
        index,
    }
}

fn pair(a: InstrAddr, b: InstrAddr) -> (InstrAddr, InstrAddr) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

fn serial_trace(p: ProgramBuilder) -> Trace {
    let mut e = Engine::new(Arc::new(p.build().unwrap()));
    assert!(e.run_all_serial().is_none());
    e.trace().clone()
}

/// A spawn edge orders the spawner's earlier accesses before the worker's;
/// its later ones stay concurrent.
#[test]
fn spawn_edges_order_only_the_spawners_prefix() {
    let mut p = ProgramBuilder::new("spawn");
    let x = p.global("x", 0);
    let y = p.global("y", 0);
    let (w, c) = {
        let mut w = p.kworker_thread("kw");
        w.store_global(x, 2u64); // kw:0
        w.store_global(y, 2u64); // kw:1
        w.ret();
        let w = w.id();
        let mut c = p.rcu_thread("cb");
        c.load_global("r0", y); // cb:0
        c.ret();
        (w, c.id())
    };
    {
        let mut a = p.syscall_thread("A", "q");
        a.store_global(x, 1u64); // A:0, before the spawns
        a.queue_work(w, None);
        a.call_rcu(c, None);
        a.store_global(y, 1u64); // A:3, after the spawns
        a.ret();
    }
    let trace = serial_trace(p);
    assert_fold_matches(&trace, "spawn");
    let (kw, cb, a) = (w.0, c.0, 2);
    let got = race::trace_conflicts(&trace);
    assert!(!got.pairs.contains(&pair(at(a, 0), at(kw, 0))));
    assert!(got.pairs.contains(&pair(at(a, 3), at(kw, 1))));
    assert!(got.pairs.contains(&pair(at(a, 3), at(cb, 0))));
    // Ordered or not, both meetings are conflicts.
    assert!(got
        .order
        .iter()
        .any(|t| (t.0, t.1) == (at(a, 0), at(kw, 0))));
}

/// A release→acquire edge orders what precedes the release; accesses
/// inside critical sections of the common lock are pairs regardless.
#[test]
fn release_acquire_edges_order_and_common_locks_pair() {
    let mut p = ProgramBuilder::new("relacq");
    let x = p.global("x", 0);
    let z = p.global("z", 0);
    let l = p.lock("l");
    {
        let mut a = p.syscall_thread("A", "w");
        a.store_global(x, 1u64); // A:0, outside the lock
        a.lock(l);
        a.store_global(z, 1u64); // A:2
        a.unlock(l);
        a.ret();
    }
    {
        let mut b = p.syscall_thread("B", "r");
        b.lock(l);
        b.store_global(z, 2u64); // B:1
        b.unlock(l);
        b.load_global("r0", x); // B:3, after the acquire
        b.ret();
    }
    let trace = serial_trace(p);
    assert_fold_matches(&trace, "release-acquire");
    let got = race::trace_conflicts(&trace);
    assert!(!got.pairs.contains(&pair(at(0, 0), at(1, 3))));
    assert!(got.pairs.contains(&pair(at(0, 2), at(1, 1))));
}

/// An order learned only through a third thread: A → C over lock `l1`,
/// C → B over lock `l2`, so A's store happens-before B's load although A
/// and B share no lock.
#[test]
fn orders_learned_transitively_through_a_third_thread() {
    let mut p = ProgramBuilder::new("transitive");
    let x = p.global("x", 0);
    let l1 = p.lock("l1");
    let l2 = p.lock("l2");
    {
        let mut a = p.syscall_thread("A", "w");
        a.store_global(x, 1u64); // A:0
        a.lock(l1);
        a.unlock(l1);
        a.ret();
    }
    {
        let mut c = p.syscall_thread("C", "relay");
        c.lock(l1);
        c.unlock(l1);
        c.lock(l2);
        c.unlock(l2);
        c.ret();
    }
    {
        let mut b = p.syscall_thread("B", "r");
        b.lock(l2);
        b.unlock(l2);
        b.load_global("r0", x); // B:2
        b.ret();
    }
    let trace = serial_trace(p);
    assert_fold_matches(&trace, "transitive");
    let got = race::trace_conflicts(&trace);
    assert!(!got.pairs.contains(&pair(at(0, 0), at(2, 2))));
    assert!(got
        .order
        .contains(&(at(0, 0), at(2, 2), trace.get(0).unwrap().accesses()[0].addr)));
}

/// `kfree` writes every word of the object in one step: a step with two
/// accesses, both racing with the reader's earlier load.
#[test]
fn a_step_with_two_accesses() {
    let mut p = ProgramBuilder::new("free2");
    let gp = p.global("gp", 0);
    {
        let mut a = p.syscall_thread("A", "free");
        a.alloc("r0", 16); // A:0
        a.store_global_from(gp, "r0"); // A:1
        a.free("r0"); // A:2, writes both words
        a.ret();
    }
    {
        let mut b = p.syscall_thread("B", "read");
        b.load_global("r0", gp); // B:0
        b.load_ind("r1", "r0", 8); // B:1, reads word 1
        b.ret();
    }
    let mut e = Engine::new(Arc::new(p.build().unwrap()));
    let (a, b) = (ThreadId(0), ThreadId(1));
    for tid in [a, a, b, b, a, a, b] {
        e.step(tid).unwrap();
    }
    let trace = e.trace().clone();
    assert!(trace.iter().any(|r| r.accesses().len() == 2));
    assert_fold_matches(&trace, "two-access step");
    let got = race::trace_conflicts(&trace);
    assert!(got.pairs.contains(&pair(at(0, 2), at(1, 1))));
    assert!(got.pairs.contains(&pair(at(0, 1), at(1, 0))));
}

/// One instruction pair racing on two addresses: a store loop and a load
/// loop over the same two-word object. One pair, two conflict triples.
#[test]
fn one_instruction_pair_racing_on_two_addresses() {
    let mut p = ProgramBuilder::new("twoaddr");
    let obj = p.static_obj("obj", 16);
    let gp = p.global_ptr("gp", obj);
    for (name, store) in [("A", true), ("B", false)] {
        let mut t = p.syscall_thread(name, "loop");
        t.load_global("r0", gp); // :0
        t.mov("r1", 0u64); // :1
        let top = t.new_label();
        t.place(top);
        if store {
            t.store_ind("r0", 0, 7u64); // A:2
        } else {
            t.load_ind("r2", "r0", 0); // B:2
        }
        t.op("r0", BinOp::Add, "r0", 8u64);
        t.op("r1", BinOp::Add, "r1", 1u64);
        t.jmp_if(cond_reg("r1", CmpOp::Lt, 2), top);
        t.ret();
    }
    let trace = serial_trace(p);
    assert_fold_matches(&trace, "two addresses");
    let got = race::trace_conflicts(&trace);
    let (x, y) = (at(0, 2), at(1, 2));
    assert_eq!(got.pairs.iter().filter(|&&q| q == pair(x, y)).count(), 1);
    assert_eq!(got.order.iter().filter(|t| (t.0, t.1) == (x, y)).count(), 2);
}

/// A shape's *latest* access decides: A's store to `x` runs twice from one
/// instruction outside the lock. B learns A's first store through the
/// lock, so only the second store races with B's load.
#[test]
fn a_shapes_latest_access_decides_the_race() {
    let mut p = ProgramBuilder::new("latest");
    let x = p.global("x", 0);
    let l = p.lock("l");
    {
        let mut a = p.syscall_thread("A", "w");
        a.mov("r1", 0u64); // A:0
        let top = a.new_label();
        a.place(top);
        a.store_global(x, 1u64); // A:1
        a.lock(l); // A:2
        a.unlock(l); // A:3
        a.op("r1", BinOp::Add, "r1", 1u64); // A:4
        a.jmp_if(cond_reg("r1", CmpOp::Lt, 2), top); // A:5
        a.ret();
    }
    {
        let mut b = p.syscall_thread("B", "r");
        b.lock(l);
        b.unlock(l);
        b.load_global("r0", x); // B:2
        b.ret();
    }
    let mut e = Engine::new(Arc::new(p.build().unwrap()));
    let (a, b) = (ThreadId(0), ThreadId(1));
    // A's first iteration, B's critical section, A's second store, B's load.
    for tid in [a, a, a, a, b, b, a, a, a, b] {
        e.step(tid).unwrap();
    }
    let trace = e.trace().clone();
    assert_fold_matches(&trace, "latest access");
    assert!(race::trace_conflicts(&trace)
        .pairs
        .contains(&pair(at(0, 1), at(1, 2))));
}

/// The `>` of the clock test is strict. No engine instruction both
/// touches memory and releases a lock, so this trace is built by hand: A's
/// store shares its step with the release, and B, which acquires next,
/// learns exactly that store's clock value. Ordered, no common lock at
/// B's load: no pair.
#[test]
fn an_access_in_the_releasing_step_is_ordered_before_the_acquirer() {
    let l = LockId(0);
    let x = Addr(0x1000_0000);
    let step = |seq: usize, tid: u32, lock_event, locks_held: Vec<LockId>, accesses| StepRecord {
        accesses,
        lock_event,
        locks_held,
        ..StepRecord::new(ThreadId(tid), at(tid as u16, seq))
    };
    let store = vec![MemAccess {
        addr: x,
        kind: AccessKind::Write,
    }];
    let load = vec![MemAccess {
        addr: x,
        kind: AccessKind::Read,
    }];
    let mut trace = Trace::new();
    for rec in [
        step(0, 0, Some(LockEvent::Acquired(l)), vec![l], vec![]),
        step(1, 0, Some(LockEvent::Released(l)), vec![l], store),
        step(2, 1, Some(LockEvent::Acquired(l)), vec![l], vec![]),
        step(3, 1, Some(LockEvent::Released(l)), vec![l], vec![]),
        step(4, 1, None, vec![], load),
    ] {
        trace.push(&rec);
    }
    assert_fold_matches(&trace, "releasing step");
    let got = race::trace_conflicts(&trace);
    assert!(got.pairs.is_empty());
    assert_eq!(got.order, vec![(at(0, 1), at(1, 4), x)]);
}
