//! Engine contract suite: the four invariants schedule enforcement, the
//! executor and the snapshot forest rely on from [`ksim::Engine`] (see
//! DESIGN.md §5 "engine contract"): determinism, snapshot round-trip,
//! reboot-resets-everything, and observed-access stability across
//! snapshot boundaries.

use aitia_repro::corpus;
use aitia_repro::ksim;
use ksim::builder::ProgramBuilder;
use ksim::{Addr, Engine, Program, ThreadId};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Hard cap on serial-run length; a conforming engine halts long before.
const MAX_STEPS: usize = 200_000;

/// A two-thread program with a lock, nonzero-initialized globals, and
/// cross-thread traffic — enough surface to exercise the whole contract.
fn contract_program() -> Arc<Program> {
    let mut p = ProgramBuilder::new("conformance");
    let g = p.global("g", 7);
    let h = p.global("h", 0);
    let lock = p.lock("l");
    {
        let mut a = p.syscall_thread("A", "writer");
        a.lock(lock);
        a.load_global("r0", g);
        a.store_global(g, 1u64);
        a.unlock(lock);
        a.store_global(h, 2u64);
        a.ret();
    }
    {
        let mut b = p.syscall_thread("B", "reader");
        b.lock(lock);
        b.load_global("r1", g);
        b.unlock(lock);
        b.load_global("r2", h);
        b.ret();
    }
    Arc::new(p.build().unwrap())
}

/// Steps the lowest-id runnable thread until the machine halts or nothing
/// is runnable, returning the schedule actually executed.
fn run_serial(engine: &mut Engine) -> Vec<ThreadId> {
    let mut schedule = Vec::new();
    for _ in 0..MAX_STEPS {
        if engine.halted() {
            return schedule;
        }
        let Some(&tid) = engine.runnable().first() else {
            return schedule;
        };
        match engine.step(tid) {
            Ok(_) => schedule.push(tid),
            Err(ksim::EngineError::Halted) => return schedule,
            Err(e) => panic!("serial step of runnable {tid:?} failed: {e:?}"),
        }
    }
    panic!("serial run did not terminate within {MAX_STEPS} steps");
}

/// The `(thread, address, kind)` memory observations in the engine's
/// current trace — the watchpoint log a diagnosis consumes.
fn observed_accesses(engine: &Engine) -> BTreeSet<(ThreadId, Addr, ksim::AccessKind)> {
    engine
        .trace()
        .iter()
        .flat_map(|rec| rec.accesses.iter().map(move |a| (rec.tid, a.addr, a.kind)))
        .collect()
}

/// What a completed run must agree on across boots and across
/// snapshot/restore churn.
type RunDigest = (
    usize,
    Option<ksim::FailureKind>,
    BTreeSet<(ThreadId, Addr, ksim::AccessKind)>,
);

fn digest(engine: &Engine) -> RunDigest {
    (
        engine.trace().len(),
        engine.failure().map(|f| f.kind),
        observed_accesses(engine),
    )
}

/// Invariant 2: a snapshot taken mid-run restores to bit-identical
/// observable state, and re-running the recorded suffix from the restore
/// point reproduces the original run exactly (invariant 1).
#[test]
fn snapshot_restore_round_trip_and_determinism() {
    let mut engine = Engine::new(contract_program());
    // Execute a short prefix, checkpoint, then record the suffix.
    for _ in 0..3 {
        let tid = engine.runnable()[0];
        engine.step(tid).expect("prefix step");
    }
    let snap = engine.snapshot();
    let at_snap = digest(&engine);
    let mut suffix = Vec::new();
    while !engine.halted() {
        let Some(&tid) = engine.runnable().first() else {
            break;
        };
        engine.step(tid).expect("suffix step");
        suffix.push(tid);
    }
    let final_digest = digest(&engine);

    // Round-trip: restoring rewinds every observable to the checkpoint.
    engine.restore(&snap);
    assert_eq!(digest(&engine), at_snap, "restore state");

    // Determinism: the same suffix from the same checkpoint is the same
    // run.
    for &tid in &suffix {
        engine.step(tid).expect("replayed suffix step");
    }
    assert_eq!(digest(&engine), final_digest, "replayed suffix diverged");

    // Restoring twice (including from a cloned handle) stays stable.
    let clone = snap.clone();
    engine.restore(&snap);
    engine.restore(&clone);
    assert_eq!(digest(&engine), at_snap, "double restore drifted");
}

/// Invariant 1 at whole-run scope: booting twice and running the same
/// schedule yields the same digest.
#[test]
fn identical_schedules_are_identical_runs() {
    let mut first = Engine::new(contract_program());
    let schedule = run_serial(&mut first);
    assert!(!schedule.is_empty(), "no progress");
    let mut second = Engine::new(contract_program());
    for &tid in &schedule {
        match second.step(tid) {
            Ok(_) | Err(ksim::EngineError::Halted) => {}
            Err(e) => panic!("replay step failed: {e:?}"),
        }
    }
    assert_eq!(
        digest(&first),
        digest(&second),
        "two boots of the same schedule disagree"
    );
}

/// Invariant 3: reboot discards every trace of the previous run and the
/// rebooted machine behaves exactly like a fresh boot.
#[test]
fn reboot_resets_everything() {
    let mut engine = Engine::new(contract_program());
    let fresh_runnable = engine.runnable();
    run_serial(&mut engine);
    assert!(!engine.trace().is_empty(), "run made no progress");

    engine.reboot();
    assert_eq!(engine.trace().len(), 0, "trace survived reboot");
    assert!(engine.failure().is_none(), "failure survived");
    assert!(!engine.halted(), "still halted after reboot");
    assert!(
        observed_accesses(&engine).is_empty(),
        "accesses survived reboot"
    );
    assert_eq!(
        engine.runnable(),
        fresh_runnable,
        "rebooted runnable set differs from fresh boot"
    );

    // The rebooted machine runs like a fresh one.
    run_serial(&mut engine);
    let mut reference = Engine::new(contract_program());
    run_serial(&mut reference);
    assert_eq!(
        digest(&engine),
        digest(&reference),
        "post-reboot run differs from a fresh boot's run"
    );
}

/// Invariant 4: the observed-access set of a run is identical whether the
/// run executed straight through or through snapshot/restore churn at
/// every step.
#[test]
fn observed_accesses_stable_across_snapshot_boundaries() {
    let mut straight = Engine::new(contract_program());
    run_serial(&mut straight);
    let reference = digest(&straight);

    let mut churned = Engine::new(contract_program());
    for _ in 0..MAX_STEPS {
        if churned.halted() {
            break;
        }
        let Some(&tid) = churned.runnable().first() else {
            break;
        };
        // Snapshot, step, rewind, step again for real: the kept run
        // crosses a restore boundary before every single instruction.
        let snap = churned.snapshot();
        churned.step(tid).expect("probe step");
        churned.restore(&snap);
        churned.step(tid).expect("kept step");
    }
    assert_eq!(
        digest(&churned),
        reference,
        "snapshot churn changed the observed run"
    );
}

/// Every Table 2 program runs serially to completion on the engine, and a
/// second boot replaying the same schedule reproduces the run.
#[test]
fn table2_serial_runs_pass() {
    for bug in corpus::cves() {
        let program = bug.program(corpus::noise::NoiseSpec::silent());
        let mut engine = Engine::new(Arc::clone(&program));
        let schedule = run_serial(&mut engine);
        assert!(!schedule.is_empty(), "{}: no progress", bug.id);
        let mut replay = Engine::new(program);
        for &tid in &schedule {
            replay.step(tid).expect("replayed serial step");
        }
        assert_eq!(
            digest(&replay),
            digest(&engine),
            "{}: replayed serial run diverged",
            bug.id
        );
    }
}
