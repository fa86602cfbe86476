//! A real livelock under a flip, so the step-budget `Timeout` path stays
//! covered by a program rather than by an artificially tiny budget.
//!
//! The program is Figure 1 plus a handshake: thread A first reads `flag`,
//! and if B has already set it, spins until B also sets `go`. Neither
//! serial order livelocks, and the failing interleaving never spins.
//! Flipping the race on `flag`, though, delays A's read until just after
//! B's store and suspends B there, before its store to `go`: A spins with
//! no scheduling point left to reach, and the run exhausts the default
//! step budget. Causality Analysis must call that race `Ambiguous` from
//! an inconclusive flip, never `Benign` or `Causal`. A timeout is a pure
//! function of its program, schedule and step budget, so the memo table
//! and the run journal answer it like any other run.

use aitia_repro::aitia::{
    manager::{
        Diagnosis,
        ManagerConfig, //
    },
    Campaign,
    RunOutcome,
    Substrate,
    Verdict, //
};
use aitia_repro::ksim::{
    builder::{
        cond_reg,
        ProgramBuilder, //
    },
    CmpOp, Program,
};
use std::path::PathBuf;
use std::sync::Arc;

/// Figure 1 with the `flag`/`go` handshake, built fresh per call.
fn livelock_program() -> Arc<Program> {
    let mut p = ProgramBuilder::new("fig1-livelock");
    let obj = p.static_obj("obj", 8);
    let ptr_valid = p.global("ptr_valid", 0);
    let ptr = p.global_ptr("ptr", obj);
    let flag = p.global("flag", 0);
    let go = p.global("go", 0);
    {
        let mut a = p.syscall_thread("A", "writer");
        let done = a.new_label();
        let spin = a.new_label();
        a.n("A0").load_global("r2", flag);
        a.jmp_if(cond_reg("r2", CmpOp::Eq, 0), done);
        a.place(spin);
        a.n("W").load_global("r3", go);
        a.jmp_if(cond_reg("r3", CmpOp::Eq, 0), spin);
        a.place(done);
        a.n("A1").store_global(ptr_valid, 1u64);
        a.n("A2").load_global("r0", ptr);
        a.load_ind("r1", "r0", 0);
        a.ret();
    }
    {
        let mut b = p.syscall_thread("B", "clearer");
        let out = b.new_label();
        b.n("B1").load_global("r0", ptr_valid);
        b.jmp_if(cond_reg("r0", CmpOp::Eq, 0), out);
        b.n("B2").store_global(ptr, 0u64);
        b.place(out);
        b.n("B3").store_global(flag, 1u64);
        b.n("B4").store_global(go, 1u64);
        b.ret();
    }
    Arc::new(p.build().unwrap())
}

/// Everything diagnosis-facing, provenance included, as one string.
fn digest(d: &Diagnosis) -> String {
    let verdicts: Vec<(Verdict, &str)> = d
        .result
        .tested
        .iter()
        .map(|t| (t.verdict, t.provenance()))
        .collect();
    format!(
        "chain={} verdicts={verdicts:?} sched={:?} steps={} lifs={} ca={}",
        d.result.chain,
        d.failing.schedule,
        d.failing.trace.len(),
        d.lifs_stats.schedules_executed,
        d.result.stats.schedules_executed,
    )
}

/// Diagnoses `program` at the default step budget, returning the
/// diagnosis digest and the engine runs the campaign executed.
fn diagnose(
    config: ManagerConfig,
    journal: Option<&PathBuf>,
    program: Arc<Program>,
) -> (String, u64) {
    let campaign = match journal {
        Some(path) => Campaign::with_journal_path(config, path),
        None => Campaign::new(config),
    };
    let outcome = campaign.diagnose_program(program);
    let diagnosis = outcome
        .diagnosis()
        .expect("the livelock program reproduces");
    (digest(diagnosis), campaign.manager().exec_stats().runs)
}

#[test]
fn a_livelocked_flip_is_ambiguous_at_every_pool_width_and_memo_setting() {
    let program = livelock_program();
    let campaign = Campaign::new(ManagerConfig {
        vms: 1,
        memo: false,
        ..ManagerConfig::default()
    });
    let outcome = campaign.diagnose_program(Arc::clone(&program));
    let d = outcome
        .diagnosis()
        .expect("the livelock program reproduces");
    let timed_out: Vec<_> = d
        .result
        .tested
        .iter()
        .filter(|t| t.outcome == Some(RunOutcome::Timeout))
        .collect();
    assert_eq!(timed_out.len(), 1, "one flip livelocks");
    let t = timed_out[0];
    assert_eq!(
        (
            program.instr_name(t.race.first.at),
            program.instr_name(t.race.second.at()),
        ),
        ("A0".to_string(), "B3".to_string()),
        "the race on `flag` livelocks"
    );
    assert_eq!(t.verdict, Verdict::Ambiguous);
    assert_eq!(t.provenance(), "inconclusive flip");
    assert!(!d.result.root_causes.iter().any(|r| r.key() == t.race.key()));
    assert_eq!(
        d.result.chain.to_string(),
        "A1 ⇒ B1 → B2 ⇒ A2 → NULL pointer dereference"
    );
    let reference = digest(d);
    // The memo-on runs share one substrate: the first executes the
    // livelock, the wider pools answer it from the table.
    let substrate = Substrate::default();
    for memo in [false, true] {
        for vms in [1usize, 2, 8] {
            let config = ManagerConfig {
                vms,
                memo,
                substrate: substrate.clone(),
                ..ManagerConfig::default()
            };
            let (got, _) = diagnose(config, None, livelock_program());
            assert_eq!(got, reference, "memo={memo} vms={vms}");
        }
    }
}

#[test]
fn timed_out_runs_are_answered_from_the_memo_and_the_journal() {
    let mut path = std::env::temp_dir();
    path.push(format!("aitia-livelock-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let program = livelock_program();
    let substrate = Substrate::default();
    let config = |substrate: &Substrate| ManagerConfig {
        vms: 2,
        substrate: substrate.clone(),
        ..ManagerConfig::default()
    };
    let (first, runs) = diagnose(config(&substrate), Some(&path), Arc::clone(&program));
    assert!(runs > 0);
    // The same program on the same substrate: every run, the timed-out
    // flip included, is a memo hit.
    let (second, runs) = diagnose(config(&substrate), None, Arc::clone(&program));
    assert_eq!(second, first);
    assert_eq!(runs, 0, "a re-diagnosis executes nothing");
    // A fresh process: a new program allocation and an empty substrate,
    // so only the journal can answer.
    let (resumed, runs) = diagnose(
        config(&Substrate::default()),
        Some(&path),
        livelock_program(),
    );
    assert_eq!(resumed, first);
    assert_eq!(runs, 0, "a resume from a complete journal executes nothing");
    let _ = std::fs::remove_file(&path);
}
