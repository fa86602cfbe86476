//! The paper's figure scenarios as executable programs.
//!
//! * [`fig1`] — the abstract `ptr_valid`/`ptr` NULL-deref example (Fig 1);
//! * [`fig2_cve_2017_15649`] — the multi-variable packet-fanout bug the
//!   paper dissects in §2.1 and Figure 6 (also a Table 2 row);
//! * [`fig4a`], [`fig4b`], [`fig4c`] — the three complex background-thread
//!   patterns of Figure 4;
//! * [`fig5`] — the LIFS search-tree walkthrough example of Figure 5;
//! * [`fig7_ambiguous`] / [`fig7_clear`] — the nested/surrounding race
//!   geometry of Figure 7, in the ambiguous and the clearly-decidable
//!   variant.

use ksim::{
    builder::{
        cond_reg,
        ProgramBuilder, //
    },
    CmpOp, Program,
};

/// Figure 1: two semantically correlated variables, a race-steered control
/// flow, and a NULL dereference under `A1 ⇒ B1 ⇒ B2 ⇒ A2`.
#[must_use]
pub fn fig1() -> Program {
    let mut p = ProgramBuilder::new("fig1");
    let obj = p.static_obj("obj", 8);
    let ptr_valid = p.global("ptr_valid", 0);
    let ptr = p.global_ptr("ptr", obj);
    {
        let mut a = p.syscall_thread("A", "write");
        a.func("thread_a");
        a.n("A1").store_global(ptr_valid, 1u64);
        a.n("A2").load_global("r0", ptr);
        a.load_ind("r1", "r0", 0); // local = *ptr
        a.ret();
    }
    {
        let mut b = p.syscall_thread("B", "write");
        b.func("thread_b");
        let out = b.new_label();
        b.n("B1").load_global("r0", ptr_valid);
        b.jmp_if(cond_reg("r0", CmpOp::Eq, 0), out); // if (ptr_valid == 0) return
        b.n("B2").store_global(ptr, 0u64); // ptr = NULL
        b.place(out);
        b.ret();
    }
    p.build().expect("fig1 builds")
}

/// Figure 2 / Figure 6: CVE-2017-15649 (packet fanout). Re-exported from
/// the CVE corpus so the figure and the Table 2 row share one model.
#[must_use]
pub fn fig2_cve_2017_15649() -> Program {
    crate::cve::cve_2017_15649(crate::noise::NoiseSpec::silent())
}

/// Figure 4-(a): two system calls plus a `kworkerd` daemon. Syscall A's
/// store steers syscall B into queueing deferred work; the worker then
/// races with A on a second object.
#[must_use]
pub fn fig4a() -> Program {
    let mut p = ProgramBuilder::new("fig4a");
    let obj = p.static_obj("m2_obj", 8);
    let m1 = p.global("m1", 0);
    let m2 = p.global_ptr("m2", obj);
    let worker = {
        let mut k = p.kworker_thread("kworker");
        k.func("deferred_teardown");
        k.n("K1").store_global(m2, 0u64); // tear down m2
        k.ret();
        k.id()
    };
    {
        let mut a = p.syscall_thread("A", "ioctl");
        a.func("sys_a");
        a.n("A1").store_global(m1, 1u64);
        a.n("A2").load_global("r0", m2);
        a.load_ind("r1", "r0", 0); // use m2
        a.ret();
    }
    {
        let mut b = p.syscall_thread("B", "close");
        b.func("sys_b");
        let out = b.new_label();
        b.n("B1").load_global("r0", m1);
        b.jmp_if(cond_reg("r0", CmpOp::Eq, 0), out);
        b.n("B2").queue_work(worker, None);
        b.place(out);
        b.ret();
    }
    p.build().expect("fig4a builds")
}

/// Figure 4-(b): one system call, a `kworkerd` daemon, and an RCU callback
/// chained behind it (`queue_work()` then `call_rcu()`).
#[must_use]
pub fn fig4b() -> Program {
    let mut p = ProgramBuilder::new("fig4b");
    let obj = p.static_obj("m1_obj", 8);
    let m1 = p.global_ptr("m1", obj);
    let busy = p.global("busy", 0);
    let rcu = {
        let mut r = p.rcu_thread("rcu_cb");
        r.func("rcu_free");
        r.n("R1").store_global(m1, 0u64);
        r.ret();
        r.id()
    };
    let worker = {
        let mut k = p.kworker_thread("kworker");
        k.func("deferred_step");
        k.n("K0").load_global("r0", busy);
        k.n("K1").call_rcu(rcu, None);
        k.ret();
        k.id()
    };
    {
        let mut a = p.syscall_thread("A", "ioctl");
        a.func("sys_a");
        a.n("A1").queue_work(worker, None);
        a.n("A1b").store_global(busy, 1u64);
        a.n("A2").load_global("r0", m1);
        a.load_ind("r1", "r0", 0);
        a.ret();
    }
    p.build().expect("fig4b builds")
}

/// Figure 4-(c): a *single* system call racing with the kernel thread it
/// spawned, across three memory objects.
#[must_use]
pub fn fig4c() -> Program {
    let mut p = ProgramBuilder::new("fig4c");
    let obj = p.static_obj("m3_obj", 8);
    let m1 = p.global("m1", 0);
    let m2 = p.global("m2", 0);
    let m3 = p.global_ptr("m3", obj);
    let worker = {
        let mut k = p.kworker_thread("kworker");
        k.func("async_work");
        let out = k.new_label();
        k.n("K1").load_global("r0", m1);
        k.jmp_if(cond_reg("r0", CmpOp::Eq, 0), out);
        k.n("K2").store_global(m2, 1u64);
        k.n("K3").store_global(m3, 0u64);
        k.place(out);
        k.ret();
        k.id()
    };
    {
        let mut a = p.syscall_thread("A", "write");
        a.func("sys_a");
        a.n("A1").store_global(m1, 1u64);
        a.n("A2").queue_work(worker, None);
        a.n("A3").load_global("r0", m2);
        a.n("A4").load_global("r1", m3);
        a.load_ind("r2", "r1", 0);
        a.ret();
    }
    p.build().expect("fig4c builds")
}

/// Figure 5: the LIFS walkthrough. Thread A accesses M1, M2, M3; thread B
/// accesses M1 and M2 and — only when `A1 ⇒ B1` — invokes kernel thread K,
/// whose `K1` tears M3 down; `K1 ⇒ A3` then fails.
#[must_use]
pub fn fig5() -> Program {
    let mut p = ProgramBuilder::new("fig5");
    let obj = p.static_obj("m3_obj", 8);
    let m1 = p.global("m1", 0);
    let m2 = p.global("m2", 0);
    let m3 = p.global_ptr("m3", obj);
    let k = {
        let mut k = p.kworker_thread("K");
        k.func("thread_k");
        k.n("K1").store_global(m3, 0u64);
        k.ret();
        k.id()
    };
    {
        let mut a = p.syscall_thread("A", "syscall_a");
        a.func("thread_a");
        a.n("A1").store_global(m1, 1u64);
        a.n("A2").store_global(m2, 1u64);
        a.n("A3").load_global("r0", m3);
        a.load_ind("r1", "r0", 0); // fails if K1 ⇒ A3
        a.ret();
    }
    {
        let mut b = p.syscall_thread("B", "syscall_b");
        b.func("thread_b");
        let out = b.new_label();
        b.n("B1").load_global("r0", m1);
        b.n("B2").fetch_add_global(m2, 1u64);
        b.jmp_if(cond_reg("r0", CmpOp::Eq, 0), out);
        b.n("B3").queue_work(k, None); // only if A1 ⇒ B1
        b.place(out);
        b.ret();
    }
    p.build().expect("fig5 builds")
}

/// Figure 7, ambiguous variant: the surrounding race `A1 ⇒ B2` and the
/// nested race `A2 ⇒ B1` are *both* required for the failure; flipping the
/// surrounding race necessarily flips the nested one, so its verdict is
/// ambiguous.
#[must_use]
pub fn fig7_ambiguous() -> Program {
    let mut p = ProgramBuilder::new("fig7-ambiguous");
    let m1 = p.global("m1", 0);
    let m2 = p.global("m2", 0);
    {
        let mut a = p.syscall_thread("A", "writer");
        a.func("thread_a");
        a.n("A1").store_global(m1, 1u64);
        a.n("A2").store_global(m2, 1u64);
        a.ret();
    }
    {
        let mut b = p.syscall_thread("B", "reader");
        b.func("thread_b");
        b.n("B1").load_global("r0", m2);
        b.n("B2").load_global("r1", m1);
        // Fails only when BOTH reads observed the writes.
        b.op("r2", ksim::instr::BinOp::And, "r0", "r1");
        b.bug_on_msg(cond_reg("r2", CmpOp::Eq, 1), "both-observed");
        b.ret();
    }
    p.build().expect("fig7a builds")
}

/// Figure 7, decidable variant: only the surrounding race `A1 ⇒ B2`
/// matters; the nested `A2 ⇒ B1` is benign, so flipping the surrounding
/// race (which drags the nested one along) still yields a clear verdict.
#[must_use]
pub fn fig7_clear() -> Program {
    let mut p = ProgramBuilder::new("fig7-clear");
    let m1 = p.global("m1", 0);
    let m2 = p.global("m2", 0);
    {
        let mut a = p.syscall_thread("A", "writer");
        a.func("thread_a");
        a.n("A1").store_global(m1, 1u64);
        a.n("A2").store_global(m2, 1u64);
        a.ret();
    }
    {
        let mut b = p.syscall_thread("B", "reader");
        b.func("thread_b");
        b.n("B1").load_global("r0", m2); // nested race end; value unused
        b.n("B2").load_global("r1", m1);
        b.bug_on_msg(cond_reg("r1", CmpOp::Eq, 1), "m1-observed");
        b.ret();
    }
    p.build().expect("fig7c builds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use aitia::{
        CausalityAnalysis,
        CausalityConfig,
        Lifs,
        LifsConfig,
        PruneLevel,
        Verdict, //
    };
    use std::sync::Arc;

    fn diagnose(prog: Program) -> (aitia::FailingRun, aitia::CausalityResult) {
        let run = Lifs::new(Arc::new(prog), LifsConfig::default())
            .search()
            .failing
            .expect("reproduces");
        let res = CausalityAnalysis::new(CausalityConfig::default()).analyze(&run);
        (run, res)
    }

    #[test]
    fn fig1_reproduces_and_yields_two_race_chain() {
        let (run, res) = diagnose(fig1());
        assert_eq!(run.failure.kind, ksim::FailureKind::NullDeref);
        assert_eq!(res.chain.race_count(), 2, "{}", res.chain);
    }

    #[test]
    fn fig4a_pattern_reproduces() {
        let (run, res) = diagnose(fig4a());
        assert_eq!(run.failure.kind, ksim::FailureKind::NullDeref);
        // The kworker participated.
        assert!(run
            .trace
            .iter()
            .any(|r| run.sel(r.tid()).prog != run.sel(run.trace.first().unwrap().tid()).prog));
        assert!(res.chain.race_count() >= 2, "{}", res.chain);
    }

    #[test]
    fn fig4b_chained_deferral_reproduces() {
        let (run, _res) = diagnose(fig4b());
        assert_eq!(run.failure.kind, ksim::FailureKind::NullDeref);
    }

    #[test]
    fn fig4c_single_syscall_vs_worker_reproduces() {
        let (run, res) = diagnose(fig4c());
        assert_eq!(run.failure.kind, ksim::FailureKind::NullDeref);
        assert!(res.chain.race_count() >= 1);
    }

    /// At `conflict`, the level of the paper's Figure 5 tree.
    #[test]
    fn fig5_failure_needs_exactly_one_interleaving() {
        let config = LifsConfig {
            prune: PruneLevel::Conflict,
            ..LifsConfig::default()
        };
        let out = Lifs::new(Arc::new(fig5()), config).search();
        let run = out.failing.expect("reproduces");
        assert_eq!(out.stats.interleaving_count, 1);
        assert_eq!(run.failure.kind, ksim::FailureKind::NullDeref);
        // Serial runs (interleaving count 0) came first and did not fail.
        let serial: Vec<_> = out
            .tree
            .nodes
            .iter()
            .filter(|n| n.interleavings == 0)
            .collect();
        assert_eq!(serial.len(), 2);
    }

    #[test]
    fn fig7_ambiguous_reports_ambiguity() {
        let (_, res) = diagnose(fig7_ambiguous());
        assert_eq!(res.ambiguous().len(), 1, "chain: {}", res.chain);
        // The nested race is causal and stays in the chain.
        assert!(res.tested.iter().any(|t| t.verdict == Verdict::Causal));
    }

    #[test]
    fn fig7_clear_has_no_ambiguity() {
        let (_, res) = diagnose(fig7_clear());
        assert!(res.ambiguous().is_empty(), "chain: {}", res.chain);
        assert_eq!(res.chain.race_count(), 1, "{}", res.chain);
        // The nested race was tested and judged benign.
        assert!(res.tested.iter().any(|t| t.verdict == Verdict::Benign));
    }
}

/// Extension scenario (§4.6): a system call racing a *hardware interrupt
/// handler*. The paper leaves IRQ contexts as future work and notes the
/// hypervisor could realize them by injecting an IRQ exactly as it controls
/// system calls; the simulator's `inject_irq` does precisely that, and LIFS
/// treats the handler as one more interleaving target.
#[must_use]
pub fn irq_scenario() -> Program {
    let mut p = ProgramBuilder::new("irq-scenario");
    let obj = p.static_obj("dma_buf", 8);
    let buf = p.global_ptr("dev->dma_buf", obj);
    let busy = p.global("dev->busy", 0);
    {
        let mut h = p.irq_thread("irq");
        h.func("dev_irq_handler");
        let out = h.new_label();
        h.n("I1").load_global("r0", busy);
        h.jmp_if(cond_reg("r0", CmpOp::Eq, 0), out);
        h.n("I2").store_global(buf, 0u64); // completion: release the buffer
        h.place(out);
        h.ret();
    }
    {
        let mut a = p.syscall_thread("A", "write");
        a.func("dev_write");
        a.n("A1").store_global(busy, 1u64);
        a.n("A2").load_global("r1", buf);
        a.n("A3").store_ind("r1", 0, 7u64); // fill the DMA buffer
        a.n("A4").store_global(busy, 0u64);
        a.ret();
    }
    p.build().expect("irq scenario builds")
}

/// Lock-discipline scenario for the §3.4 liveness/critical-section
/// ablation: both racing accesses live inside critical sections, so
/// Causality Analysis must flip whole critical sections — suspending a
/// thread mid-section leaves the other blocked on the lock (forced
/// resumes) and the flip cannot hold.
#[must_use]
pub fn locked_cs_scenario() -> Program {
    let mut p = ProgramBuilder::new("locked-cs");
    let obj = p.static_obj("session", 8);
    let enabled = p.global("dev->enabled", 0);
    let ptr = p.global("dev->session", 0); // published under the lock
    let real = p.global_ptr("session_storage", obj);
    let l = p.lock("dev->lock");
    {
        let mut a = p.syscall_thread("A", "read");
        a.func("dev_read");
        let out = a.new_label();
        a.n("A1").load_global("r0", enabled);
        a.jmp_if(cond_reg("r0", CmpOp::Eq, 0), out);
        a.lock(l);
        a.n("A2").load_global("r1", ptr);
        a.n("A3").load_ind("r2", "r1", 0); // NULL deref if A's CS runs first
        a.unlock(l);
        a.place(out);
        a.ret();
    }
    {
        let mut b = p.syscall_thread("B", "ioctl");
        b.func("dev_init");
        b.n("B1").store_global(enabled, 1u64);
        b.lock(l);
        b.load_global("r0", real);
        b.n("B2").store_global_from(ptr, "r0"); // publish the session
        b.unlock(l);
        b.ret();
    }
    p.build().expect("locked-cs builds")
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use aitia::{
        CausalityAnalysis,
        CausalityConfig,
        Lifs,
        LifsConfig, //
    };
    use std::sync::Arc;

    /// The IRQ handler is injected at a scheduling point, reproduces the
    /// NULL deref, and appears in the causality chain.
    #[test]
    fn irq_scenario_diagnoses_across_the_interrupt() {
        let prog = Arc::new(irq_scenario());
        let out = Lifs::new(Arc::clone(&prog), LifsConfig::default()).search();
        let run = out.failing.expect("reproduces via injection");
        assert_eq!(run.failure.kind, ksim::FailureKind::NullDeref);
        // The handler really ran.
        assert!(run
            .trace
            .iter()
            .any(|r| prog.instr_name(r.at()).starts_with('I')));
        let res = CausalityAnalysis::new(CausalityConfig::default()).analyze(&run);
        let s = res.chain.to_string();
        assert!(s.contains("I2") || s.contains("I1"), "{s}");
    }

    /// Critical sections flip as units; without the rule the flip cannot
    /// hold (forced resumes) and the ptr race is misjudged.
    #[test]
    fn locked_cs_needs_unit_flipping() {
        let prog = Arc::new(locked_cs_scenario());
        let run = Lifs::new(Arc::clone(&prog), LifsConfig::default())
            .search()
            .failing
            .expect("reproduces");
        let with_unit = CausalityAnalysis::new(CausalityConfig {
            cs_as_unit: true,
            ..CausalityConfig::default()
        })
        .analyze(&run);
        assert_eq!(with_unit.chain.race_count(), 2, "{}", with_unit.chain);
        assert!(with_unit.tested.iter().any(|t| t.cs_expanded));
    }
}

/// RCU discipline scenario: the reader protects its dereference with an
/// RCU read-side critical section, so the `call_rcu`-deferred free cannot
/// run inside it — LIFS finds no failure. Set `protected: false` for the
/// buggy variant (no read-side section) and the use-after-free appears.
#[must_use]
pub fn rcu_scenario(protected: bool) -> Program {
    let mut p = ProgramBuilder::new(if protected {
        "rcu-protected"
    } else {
        "rcu-unprotected"
    });
    let obj = p.static_obj("entry", 8);
    let entry = p.global_ptr("table->entry", obj);
    let free_cb = {
        let mut r = p.rcu_thread("rcu_free");
        r.func("entry_free_rcu");
        // `r0` carries the unpublished entry pointer from `call_rcu`.
        r.n("R1").free("r0");
        r.ret();
        r.id()
    };
    {
        let mut a = p.syscall_thread("A", "read");
        a.func("table_lookup");
        let out = a.new_label();
        if protected {
            a.rcu_read_lock();
        }
        a.n("A1").load_global("r1", entry);
        a.jmp_if(cond_reg("r1", CmpOp::Eq, 0), out); // unpublished: not found
        a.n("A2").load_ind("r2", "r1", 0);
        a.place(out);
        if protected {
            a.rcu_read_unlock();
        }
        a.ret();
    }
    {
        let mut b = p.syscall_thread("B", "ioctl");
        b.func("table_remove");
        // RCU update discipline: unpublish first, defer the free.
        b.load_global("r9", entry);
        b.n("B1").store_global(entry, 0u64);
        b.n("B2").call_rcu(free_cb, Some("r9"));
        b.ret();
    }
    p.build().expect("rcu scenario builds")
}

#[cfg(test)]
mod rcu_scenario_tests {
    use super::*;
    use aitia::{
        Lifs,
        LifsConfig, //
    };
    use std::sync::Arc;

    /// With the read-side section, the grace period protects the reader —
    /// LIFS exhausts its search without reproducing any failure.
    #[test]
    fn rcu_protected_reader_cannot_fail() {
        let out = Lifs::new(Arc::new(rcu_scenario(true)), LifsConfig::default()).search();
        assert!(
            out.failing.is_none(),
            "grace period must protect the reader"
        );
        assert!(out.stats.schedules_executed > 2);
    }

    /// Without it, the deferred free lands between the pointer load and the
    /// dereference — the classic RCU-misuse use-after-free.
    #[test]
    fn unprotected_reader_fails() {
        let out = Lifs::new(Arc::new(rcu_scenario(false)), LifsConfig::default()).search();
        let run = out.failing.expect("must reproduce");
        assert_eq!(run.failure.kind, ksim::FailureKind::UseAfterFree);
    }
}

/// ABBA deadlock scenario: two paths take the same pair of locks in
/// opposite orders. The failure class is the watchdog's hung-task report;
/// the root cause is the *order of the critical sections* — exactly the
/// "unintended execution order of critical sections" failure mode the
/// paper cites (its reference \[18\], Dirty COW).
#[must_use]
pub fn abba_deadlock_scenario() -> Program {
    let mut p = ProgramBuilder::new("abba-deadlock");
    let x = p.global("inode->i_size", 0);
    let y = p.global("mm->flags", 0);
    let l_inode = p.lock("inode->lock");
    let l_mm = p.lock("mm->lock");
    {
        let mut a = p.syscall_thread("A", "write");
        a.func("do_write");
        a.lock(l_inode);
        a.n("A1").store_global(x, 1u64);
        a.lock(l_mm);
        a.n("A2").store_global(y, 1u64);
        a.unlock(l_mm);
        a.unlock(l_inode);
        a.ret();
    }
    {
        let mut b = p.syscall_thread("B", "madvise");
        b.func("do_madvise");
        b.lock(l_mm);
        b.n("B1").store_global(y, 2u64);
        b.lock(l_inode);
        b.n("B2").store_global(x, 2u64);
        b.unlock(l_inode);
        b.unlock(l_mm);
        b.ret();
    }
    p.build().expect("abba builds")
}

#[cfg(test)]
mod deadlock_tests {
    use super::*;
    use aitia::{
        Lifs,
        LifsConfig, //
    };
    use std::sync::Arc;

    /// LIFS reproduces the ABBA deadlock as a hung-task failure: one
    /// preemption between the two lock acquisitions suffices.
    #[test]
    fn abba_deadlock_reproduces_as_hung_task() {
        let out = Lifs::new(Arc::new(abba_deadlock_scenario()), LifsConfig::default()).search();
        let run = out.failing.expect("deadlock reproduces");
        assert_eq!(run.failure.kind, ksim::FailureKind::HungTask);
        assert_eq!(out.stats.interleaving_count, 1);
    }
}

#[cfg(test)]
mod deadlock_diagnosis_tests {
    use super::*;
    use aitia::{
        CausalityAnalysis,
        CausalityConfig,
        Lifs,
        LifsConfig, //
    };
    use std::sync::Arc;

    /// Causality Analysis diagnoses the deadlock: flipping the
    /// critical-section order (one whole CS before the other) averts the
    /// hang, so the CS-order pair is the chain.
    #[test]
    fn abba_deadlock_yields_a_cs_order_chain() {
        let run = Lifs::new(Arc::new(abba_deadlock_scenario()), LifsConfig::default())
            .search()
            .failing
            .expect("reproduces");
        let res = CausalityAnalysis::new(CausalityConfig::default()).analyze(&run);
        assert!(
            res.chain.race_count() >= 1,
            "chain: {} tested: {:?}",
            res.chain,
            res.tested
                .iter()
                .map(|t| (t.race.key(), t.verdict))
                .collect::<Vec<_>>()
        );
        // The flips had to move whole critical sections.
        assert!(res.tested.iter().any(|t| t.cs_expanded));
    }
}
