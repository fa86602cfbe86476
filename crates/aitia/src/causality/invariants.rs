//! Static benign proofs over the failing trace.
//!
//! Causality Analysis never judges a race benign without evidence: normally
//! the evidence is a flip run in which the failure still manifests. This
//! module derives the same conclusion *statically* for a class of races —
//! in the style of error-invariant summaries (Holzer et al.): a flip is
//! provably benign when every value any instruction observes is identical
//! in the flipped order, because then every thread takes the same path,
//! computes the same addresses, and the original failure manifests at the
//! same site.
//!
//! A flip of `X ⇒ Y` delays the window of X's thread's steps spanning
//! `[window_start..=resume_after]` past the *span* — the other threads'
//! steps inside the same range ([`super::flip::flip_window`], the exact
//! geometry [`super::flip::plan_flip`] realizes). Only window×span pairs
//! change relative order, so the proof obligations are local:
//!
//! 1. the race's second end executed (pending-second flips append a
//!    projected tail — geometry this prover does not model);
//! 2. every window and span step is *movable*: a plain load, store,
//!    `fetch_add`, or register/branch instruction with no lock event and no
//!    thread spawn (lock handoffs, allocator traffic, and list RMWs have
//!    order-sensitive semantics beyond their 8-byte accesses);
//! 3. every reordered conflicting access pair — same address, at least one
//!    write, one side in the window, the other in the span — either
//!    commutes (both classify as [`AccessClass::Add`]: unobserved
//!    `fetch_add` meetings, the kernel's statistics counters) or touches an
//!    address whose value is *never observed* anywhere in the trace (no
//!    plain read, no observed RMW), so the differing final value is
//!    invisible to control flow and to the failure.
//!
//! Under 1–3 the flipped execution is a step permutation of the failing
//! one with identical per-thread behavior, so the failure still manifests
//! and the flip run would return Benign — the verdict the prover awards
//! with a `"static-invariant"` provenance. Nested races dragged along by
//! the window move need no special case: their accesses lie inside the
//! window×span product and are covered by obligation 3, and a manifested
//! failure yields Benign before any nested-race ambiguity logic applies.
//! The `verify_static` debug mode still executes proved flips and asserts
//! the agreement.

use super::flip::flip_window;
use crate::{
    lifs::FailingRun,
    race::{
        AccessClass,
        ConflictIndex,
        ObservedRace, //
    },
};
use ksim::{
    AccessKind,
    Addr,
    InstrAddr, //
};
use std::collections::{
    HashMap,
    HashSet, //
};

/// The static prover: per-trace facts computed once, queried per race.
pub struct StaticProver<'a> {
    run: &'a FailingRun,
    conflict: ConflictIndex,
    /// Addresses whose value is observed somewhere in the trace — by a
    /// plain read or by an RMW whose result lands in a register.
    observed: HashSet<Addr>,
    /// Per-step movability (obligation 2), indexed by trace sequence.
    movable: Vec<bool>,
}

/// How other threads' span steps touch one address.
#[derive(Default)]
struct SpanTouch {
    has_write: bool,
    has_non_add: bool,
}

impl<'a> StaticProver<'a> {
    /// Builds the prover's trace-wide facts for one failing run.
    #[must_use]
    pub fn new(run: &'a FailingRun) -> StaticProver<'a> {
        let conflict = ConflictIndex::for_program(&run.program);
        let mut observed = HashSet::new();
        let mut movable = Vec::with_capacity(run.trace.len());
        for rec in &run.trace {
            for acc in rec.accesses() {
                let observes = match acc.kind {
                    AccessKind::Read => true,
                    AccessKind::Rmw => conflict.classify(rec.at(), acc.kind) != AccessClass::Add,
                    AccessKind::Write => false,
                };
                if observes {
                    observed.insert(acc.addr);
                }
            }
            movable.push(
                rec.lock_event().is_none()
                    && rec.spawned().is_none()
                    && is_movable_instr(&run.program, rec.at()),
            );
        }
        StaticProver {
            run,
            conflict,
            observed,
            movable,
        }
    }

    /// Attempts to prove that flipping `race` would still manifest the
    /// original failure (verdict Benign), per the module's obligations.
    /// Conservative: `false` means "no proof", not "not benign".
    #[must_use]
    pub fn prove_benign(&self, race: &ObservedRace, cs_as_unit: bool) -> bool {
        let trace = &self.run.trace;
        let Some((start, end, _)) = flip_window(trace, race, cs_as_unit) else {
            return false; // Pending second end (obligation 1).
        };
        let first_tid = race.first.tid;

        // One pass over the range: movability plus the span's per-address
        // touch summary (obligation 2, and the span side of 3).
        let mut span: HashMap<Addr, SpanTouch> = HashMap::new();
        for rec in trace.iter_from(start).take(end - start + 1) {
            if !self.movable[rec.seq()] {
                return false;
            }
            if rec.tid() == first_tid {
                continue;
            }
            for acc in rec.accesses() {
                let touch = span.entry(acc.addr).or_default();
                touch.has_write |= acc.kind.is_write();
                touch.has_non_add |= self.conflict.classify(rec.at(), acc.kind) != AccessClass::Add;
            }
        }

        // The window side of obligation 3: every reordered conflicting pair
        // must commute or be unobservable.
        for rec in trace.iter_from(start).take(end - start + 1) {
            if rec.tid() != first_tid {
                continue;
            }
            for acc in rec.accesses() {
                let Some(touch) = span.get(&acc.addr) else {
                    continue; // No span touch: order unchanged w.r.t. nothing.
                };
                if !acc.kind.is_write() && !touch.has_write {
                    continue; // Read/read pairs never conflict.
                }
                let window_add = self.conflict.classify(rec.at(), acc.kind) == AccessClass::Add;
                if window_add && !touch.has_non_add {
                    continue; // Add/add meetings commute.
                }
                if !self.observed.contains(&acc.addr) {
                    continue; // The differing value is never read by anyone.
                }
                return false;
            }
        }
        true
    }
}

/// Whether the instruction at `at` has no effect beyond its registers and
/// recorded 8-byte accesses: safe to reorder once its observed values are
/// proven identical. Lock ops, allocator ops, list RMWs, spawns, and
/// control transfers out of the thread (`Ret`, `BugOn`, …) all carry
/// order-sensitive semantics and disqualify conservatively.
fn is_movable_instr(program: &ksim::Program, at: InstrAddr) -> bool {
    let Some(instr) = program
        .progs
        .get(at.prog.0 as usize)
        .and_then(|p| p.instrs.get(at.index))
    else {
        return false;
    };
    matches!(
        instr,
        ksim::Instr::Load { .. }
            | ksim::Instr::Store { .. }
            | ksim::Instr::FetchAdd { .. }
            | ksim::Instr::Mov { .. }
            | ksim::Instr::Op { .. }
            | ksim::Instr::Jmp { .. }
            | ksim::Instr::JmpIf { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifs::{
        Lifs,
        LifsConfig, //
    };
    use ksim::builder::ProgramBuilder;
    use std::sync::Arc;

    /// Fig1 plus an unobserved noise counter both threads bump early: the
    /// counter races are provable, the causal races are not.
    fn noisy_run() -> FailingRun {
        let mut p = ProgramBuilder::new("fig1-noise");
        let obj = p.static_obj("obj", 8);
        let ptr_valid = p.global("ptr_valid", 0);
        let ptr = p.global_ptr("ptr", obj);
        let ctr = p.global("stats", 0);
        {
            let mut a = p.syscall_thread("A", "writer");
            a.fetch_add_global(ctr, 1u64);
            a.n("A1").store_global(ptr_valid, 1u64);
            a.n("A2").load_global("r0", ptr);
            a.load_ind("r1", "r0", 0);
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "clearer");
            let out = b.new_label();
            b.fetch_add_global(ctr, 1u64);
            b.n("B1").load_global("r0", ptr_valid);
            b.jmp_if(ksim::builder::cond_reg("r0", ksim::CmpOp::Eq, 0), out);
            b.n("B2").store_global(ptr, 0u64);
            b.place(out);
            b.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        Lifs::new(prog, LifsConfig::default())
            .search()
            .failing
            .expect("reproduces")
    }

    #[test]
    fn proofs_agree_with_flip_runs_on_every_race() {
        // Soundness check in miniature: whatever the prover claims Benign,
        // the actual flip run must also conclude Benign.
        let run = noisy_run();
        let prover = StaticProver::new(&run);
        let mut proved = 0;
        for race in &run.races {
            if !prover.prove_benign(race, true) {
                continue;
            }
            proved += 1;
            let plan = super::super::flip::plan_flip(&run, race, &run.races, true);
            let mut e = ksim::Engine::new(Arc::clone(&run.program));
            let res = crate::enforce::run(
                &mut e,
                &plan.schedule,
                &crate::enforce::EnforceConfig::default(),
            );
            assert!(
                !res.outcome().is_inconclusive(),
                "proved flip ran inconclusively: {:?}",
                race.key()
            );
            assert!(
                !super::super::flip::failure_averted(&run.failure, &res),
                "static proof disagreed with the flip run for {:?}",
                race.key()
            );
        }
        assert!(proved > 0, "the noise counter race should be provable");
    }

    #[test]
    fn causal_races_are_never_proved() {
        let run = noisy_run();
        let prover = StaticProver::new(&run);
        // The ptr_valid and ptr races steer control flow into the failure:
        // their addresses are observed (loaded), so no proof exists.
        let result = super::super::CausalityAnalysis::new(super::super::CausalityConfig::default())
            .analyze(&run);
        for t in &result.tested {
            if t.verdict == super::super::Verdict::Causal {
                assert!(
                    !prover.prove_benign(&t.race, true),
                    "causal race {:?} must not be provable benign",
                    t.race.key()
                );
            }
        }
    }

    #[test]
    fn lock_events_in_window_block_the_proof() {
        // A counter race whose window would drag a lock acquisition along
        // is conservatively left to the dynamic flip.
        let mut p = ProgramBuilder::new("locked-noise");
        let x = p.global("x", 0);
        let ctr = p.global("stats", 0);
        let l = p.lock("l");
        {
            let mut a = p.syscall_thread("A", "w");
            a.fetch_add_global(ctr, 1u64);
            a.lock(l);
            a.store_global(x, 1u64);
            a.unlock(l);
            a.load_global("r0", x);
            a.bug_on_msg(ksim::builder::cond_reg("r0", ksim::CmpOp::Eq, 2), "boom");
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "w");
            b.fetch_add_global(ctr, 1u64);
            b.store_global(x, 2u64);
            b.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let Some(run) = Lifs::new(prog, LifsConfig::default()).search().failing else {
            return; // Not reproducible under this engine ordering: nothing to prove.
        };
        let prover = StaticProver::new(&run);
        for race in &run.races {
            let Some((start, end, _)) = flip_window(&run.trace, race, true) else {
                continue;
            };
            let spans_lock = run
                .trace
                .iter()
                .skip(start)
                .take(end - start + 1)
                .any(|r| r.lock_event().is_some());
            if spans_lock {
                assert!(!prover.prove_benign(race, true));
            }
        }
    }
}
