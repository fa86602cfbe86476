//! Information-gain ordering of flip interventions.
//!
//! On deadline-budgeted campaigns the flips that never run degrade to
//! [`super::Verdict::Unverified`] — so *which* flips run first decides how
//! much diagnosis a partial campaign yields. Following causality-guided
//! adaptive interventional debugging (Fariha et al.), the adaptive level
//! scores every race by its expected chain impact and submits flip batches
//! in descending-score order, leaving the unexecuted tail on the
//! lowest-value races. Ordering never changes results when every flip runs:
//! outcomes fold back into canonical test-order slots, so verdicts, chains,
//! and digests are bit-identical to the exhaustive level.
//!
//! The score is a pure function of the failing run and the flip plans:
//!
//! * **failure-cone overlap** (dominant): the race's address appears in the
//!   backward cone of the failure — the addresses reachable by walking the
//!   trace backward from the failing step through program order and
//!   write-into-read data flow. Races off the cone cannot steer the failure
//!   and are the cheapest to lose to a deadline.
//! * **nesting depth**: how long a chain of surrounding races waits on this
//!   race's verdict (Figure 7 ambiguity resolution consumes nested verdicts
//!   first, so deep races unblock the most).
//! * **fan-in**: how many other races this race's flip drags along
//!   ([`super::flip::FlipPlan::also_flipped`]) — a proxy for how much of the
//!   interleaving the intervention perturbs.

use super::flip::FlipPlan;
use crate::{
    lifs::FailingRun,
    race::{
        AccessClass,
        ConflictIndex, //
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

/// Addresses in the failure's backward cone. Starting from the failing step
/// (the last trace record), walk the trace backward keeping the set of
/// threads known to feed the failure and the set of tainted addresses; a
/// step joins the cone when its thread already feeds the failure or it
/// writes a tainted address, and taints every address it *observes* — a
/// plain read, or an RMW whose result lands in a register. Unobserved
/// `fetch_add` traffic taints nothing: a statistics counter a cone thread
/// bumps does not thereby join the cone. Deterministic and linear in the
/// trace.
#[must_use]
pub fn failure_cone(run: &FailingRun) -> HashSet<Addr> {
    let conflict = ConflictIndex::for_program(&run.program);
    let mut tainted: HashSet<Addr> = HashSet::new();
    let mut cone_tids: HashSet<ksim::ThreadId> = HashSet::new();
    let Some(last) = run.trace.last() else {
        return tainted;
    };
    cone_tids.insert(last.tid());
    for rec in run.trace.iter().rev() {
        let writes_taint = rec
            .accesses()
            .iter()
            .any(|a| a.kind.is_write() && tainted.contains(&a.addr));
        if cone_tids.contains(&rec.tid()) || writes_taint {
            cone_tids.insert(rec.tid());
            for acc in rec.accesses() {
                let observes = match acc.kind {
                    AccessKind::Read => true,
                    AccessKind::Rmw => conflict.classify(rec.at(), acc.kind) != AccessClass::Add,
                    AccessKind::Write => false,
                };
                if observes {
                    tainted.insert(acc.addr);
                }
            }
        }
    }
    tainted
}

/// Deterministic gain score per race (`scores[i]` belongs to
/// `run.races[i]`; `plans[i]` must be race `i`'s flip plan). Higher scores
/// are more informative. Cone overlap dominates, then nesting depth, then
/// also-flipped fan-in.
#[must_use]
pub fn gain_scores(run: &FailingRun, plans: &[FlipPlan]) -> Vec<u64> {
    let n = run.races.len();
    debug_assert_eq!(plans.len(), n);
    let cone = failure_cone(run);

    let key_to_idx: HashMap<(InstrAddr, InstrAddr), usize> = run
        .races
        .iter()
        .enumerate()
        .map(|(i, r)| (r.key(), i))
        .collect();
    // nested[i]: races whose verdicts race i's Causal/Ambiguous resolution
    // waits on (the races its flip drags along).
    let nested: Vec<Vec<usize>> = plans
        .iter()
        .map(|p| {
            p.also_flipped
                .iter()
                .filter_map(|q| key_to_idx.get(&q.key()).copied())
                .collect()
        })
        .collect();
    // depth[j]: longest chain of surrounding races waiting on race j.
    // Fixed-point over the reversed nesting edges, bounded by n rounds so
    // degenerate mutual-nesting cycles terminate deterministically.
    let mut waiters: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, ns) in nested.iter().enumerate() {
        for &j in ns {
            waiters[j].push(i);
        }
    }
    let mut depth = vec![0u64; n];
    for _ in 0..n {
        let mut changed = false;
        for j in 0..n {
            let d = waiters[j]
                .iter()
                .map(|&i| depth[i] + 1)
                .max()
                .unwrap_or(0)
                .min(n as u64);
            if d > depth[j] {
                depth[j] = d;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    (0..n)
        .map(|i| {
            let in_cone = u64::from(cone.contains(&run.races[i].first.addr));
            let fan_in = (plans[i].also_flipped.len() as u64).min(999);
            in_cone * 1_000_000 + depth[i] * 1_000 + fan_in
        })
        .collect()
}

/// The submission permutation for one batch: `positions[k]` names the
/// batch's `k`-th job and `race_of(k)` its race index; the result reorders
/// `0..positions.len()` by descending gain, breaking ties by canonical
/// batch position so equal-gain flips keep the backward test order.
#[must_use]
pub fn submission_order(scores_by_job: &[u64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores_by_job.len()).collect();
    idx.sort_by(|&a, &b| scores_by_job[b].cmp(&scores_by_job[a]).then(a.cmp(&b)));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causality::flip::plan_flip;
    use crate::lifs::{
        Lifs,
        LifsConfig, //
    };
    use ksim::builder::ProgramBuilder;
    use std::sync::Arc;

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
    fn causal_races_outscore_off_cone_noise() {
        let run = noisy_run();
        let plans: Vec<_> = run
            .races
            .iter()
            .map(|r| plan_flip(&run, r, &run.races, true))
            .collect();
        let scores = gain_scores(&run, &plans);
        let cone = failure_cone(&run);
        // The failing load's pointer comes through ptr/ptr_valid: both causal
        // race addresses are on the cone and must dominate any noise race
        // whose counter stays off it.
        for (i, r) in run.races.iter().enumerate() {
            if cone.contains(&r.first.addr) {
                for (j, q) in run.races.iter().enumerate() {
                    if !cone.contains(&q.first.addr) {
                        assert!(
                            scores[i] > scores[j],
                            "cone race {:?} must outscore {:?}",
                            r.key(),
                            q.key()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn submission_order_is_stable_on_ties() {
        assert_eq!(submission_order(&[5, 5, 9, 5]), vec![2, 0, 1, 3]);
        assert_eq!(submission_order(&[]), Vec::<usize>::new());
        assert_eq!(submission_order(&[1, 2, 3]), vec![2, 1, 0]);
    }

    #[test]
    fn scores_are_deterministic() {
        let run = noisy_run();
        let plans: Vec<_> = run
            .races
            .iter()
            .map(|r| plan_flip(&run, r, &run.races, true))
            .collect();
        assert_eq!(gain_scores(&run, &plans), gain_scores(&run, &plans));
    }
}
