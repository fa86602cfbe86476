//! Crash-safety properties of the journaled campaign driver.
//!
//! The kill-and-resume contract: a campaign killed at ANY point — between
//! journal records or mid-append (a torn tail) — and relaunched over the
//! surviving journal produces a diagnosis bit-identical to an uninterrupted
//! campaign, at any worker count. And the
//! deadline contract: a budget that expires mid-analysis degrades to a
//! partial diagnosis whose un-flipped races are all `Unverified`, never
//! `Benign`. And the resume gate: on a corpus bug, a resume from half the
//! journal saves at least 40% of the VM executions.

use aitia_repro::aitia::{
    journal,
    manager::{
        Diagnosis,
        ManagerConfig, //
    },
    Campaign,
    CampaignOutcome,
    Substrate,
    Verdict, //
};
use aitia_repro::corpus;
use aitia_repro::ksim::{
    builder::{
        cond_reg,
        ProgramBuilder, //
    },
    CmpOp, Program,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Figure 1 plus benign counter noise, built fresh per call — campaigns on
/// different `Arc`s share nothing through the identity-keyed memo table, so
/// every cross-campaign saving is attributable to the journal alone.
fn noisy_fig1() -> Arc<Program> {
    let mut p = ProgramBuilder::new("fig1-noise");
    let obj = p.static_obj("obj", 8);
    let ptr_valid = p.global("ptr_valid", 0);
    let ptr = p.global_ptr("ptr", obj);
    let stats_ctr = p.global("stats", 0);
    {
        let mut a = p.syscall_thread("A", "writer");
        a.fetch_add_global(stats_ctr, 1u64);
        a.n("A1").store_global(ptr_valid, 1u64);
        a.n("A2").load_global("r0", ptr);
        a.load_ind("r1", "r0", 0);
        a.ret();
    }
    {
        let mut b = p.syscall_thread("B", "clearer");
        let out = b.new_label();
        b.fetch_add_global(stats_ctr, 1u64);
        b.n("B1").load_global("r0", ptr_valid);
        b.jmp_if(cond_reg("r0", CmpOp::Eq, 0), out);
        b.n("B2").store_global(ptr, 0u64);
        b.place(out);
        b.ret();
    }
    Arc::new(p.build().unwrap())
}

fn config(vms: usize) -> ManagerConfig {
    ManagerConfig {
        vms,
        ..ManagerConfig::default()
    }
}

/// Everything diagnosis-facing, as one comparable string.
fn digest(d: &Diagnosis) -> String {
    let verdicts: Vec<Verdict> = d.result.tested.iter().map(|t| t.verdict).collect();
    format!(
        "slice={} chain={} verdicts={:?} sched={:?} steps={} lifs={} ca={}",
        d.slice_index,
        d.result.chain,
        verdicts,
        d.failing.schedule,
        d.failing.trace.len(),
        d.lifs_stats.schedules_executed,
        d.result.stats.schedules_executed,
    )
}

fn fresh_journal_path(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "aitia-resume-test-{}-{tag}-{}.wal",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// Runs a journaled campaign at `vms` workers against `path`, returning its
/// diagnosis digest.
fn campaign_digest(path: &PathBuf, vms: usize) -> String {
    let campaign = Campaign::with_journal_path(config(vms), path);
    let outcome = campaign.diagnose_program(noisy_fig1());
    digest(outcome.diagnosis().expect("fig1 reproduces"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Kill at a record boundary anywhere in the journal, resume at 1/2/8
    /// workers: bit-identical diagnosis, no torn-tail repair needed.
    #[test]
    fn resume_from_any_record_boundary_is_bit_identical(keep_percent in 0usize..=100) {
        let path = fresh_journal_path("boundary");
        let reference = campaign_digest(&path, 1);
        let total = journal::record_count(&path).unwrap();
        prop_assert!(total > 0);
        let keep = total * keep_percent / 100;
        for vms in [1usize, 2, 8] {
            // Re-cut the journal for each worker count (the previous
            // resume re-filled it back to a full journal).
            journal::truncate_at_record(&path, keep).unwrap();
            prop_assert_eq!(journal::record_count(&path).unwrap(), keep);
            let resumed = campaign_digest(&path, vms);
            prop_assert_eq!(&resumed, &reference, "vms={} keep={}/{}", vms, keep, total);
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Kill mid-append: tear the journal inside the final record. Open
    /// truncates the torn tail with a warning (never a panic), and the
    /// resumed diagnosis is still bit-identical.
    #[test]
    fn resume_from_a_torn_tail_is_bit_identical(tear in 1u64..24) {
        let path = fresh_journal_path("torn");
        let reference = campaign_digest(&path, 1);
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - tear)
            .unwrap();
        let campaign = Campaign::with_journal_path(config(2), &path);
        let outcome = campaign.diagnose_program(noisy_fig1());
        let resumed = digest(outcome.diagnosis().expect("fig1 reproduces"));
        prop_assert_eq!(&resumed, &reference, "tear={}", tear);
        let stats = campaign.journal_stats().expect("journal configured");
        prop_assert_eq!(stats.torn_tail_truncations, 1, "the tear was repaired");
        let _ = std::fs::remove_file(&path);
    }
}

/// A corrupt journal (garbage header) degrades to a cold start: full
/// re-execution, correct diagnosis, no panic.
#[test]
fn garbage_journal_degrades_to_cold_start() {
    let path = fresh_journal_path("garbage");
    let reference = campaign_digest(&path, 1);
    std::fs::write(&path, b"\x00\xffdefinitely not a journal\x17").unwrap();
    let campaign = Campaign::with_journal_path(config(1), &path);
    let outcome = campaign.diagnose_program(noisy_fig1());
    assert_eq!(
        digest(outcome.diagnosis().expect("fig1 reproduces")),
        reference
    );
    let stats = campaign.journal_stats().expect("journal configured");
    assert_eq!(stats.records_replayed, 0, "nothing to replay after reset");
    assert!(stats.records_appended > 0, "the campaign re-journaled");
    let _ = std::fs::remove_file(&path);
}

/// The resume gate at scale 0.05: CVE-2017-15649's journal, cut at 25, 50
/// and 75% of its records, resumes to the uninterrupted diagnosis, and the
/// cut at 50% saves at least 40% of the uninterrupted run's VM
/// executions. Each campaign gets a freshly built program and its own
/// substrate, so only the journal replay can spare an execution.
#[test]
fn corpus_resume_from_half_the_journal_saves_forty_percent_of_vm_executions() {
    const SCALE: f64 = 0.05;
    let bug = corpus::cves()
        .into_iter()
        .find(|b| b.id == "CVE-2017-15649")
        .expect("CVE-2017-15649 in corpus");
    let campaign = |path: &PathBuf| {
        let campaign = Campaign::with_journal_path(
            ManagerConfig {
                vms: 1,
                lifs: bug.lifs_config(),
                substrate: Substrate::private(8192, 256),
                ..ManagerConfig::default()
            },
            path,
        );
        let d = digest(
            campaign
                .diagnose_program(bug.program_scaled(SCALE))
                .diagnosis()
                .expect("CVE-2017-15649 reproduces"),
        );
        (d, campaign.manager().exec_stats().runs)
    };
    let full = fresh_journal_path("gate");
    let (reference, cold_runs) = campaign(&full);
    let total = journal::record_count(&full).unwrap();
    for percent in [25, 50, 75] {
        let cut = fresh_journal_path("gate-cut");
        std::fs::copy(&full, &cut).unwrap();
        journal::truncate_at_record(&cut, total * percent / 100).unwrap();
        let (resumed, resumed_runs) = campaign(&cut);
        assert_eq!(resumed, reference, "resume from {percent}% of the journal");
        if percent == 50 {
            assert!(
                5 * resumed_runs <= 3 * cold_runs,
                "resume from half of {total} records paid {resumed_runs} VM executions \
                 against the cold run's {cold_runs}: under the gate's 40% saving"
            );
        }
        let _ = std::fs::remove_file(&cut);
    }
    let _ = std::fs::remove_file(&full);
}

/// The degradation invariant at the campaign level: when a deadline expires
/// mid-analysis, the partial diagnosis marks every un-flipped race
/// `Unverified` — never `Benign` — and the outcome still carries the chain
/// built from what did run.
#[test]
fn deadline_partial_diagnosis_never_labels_unflipped_races_benign() {
    use aitia_repro::aitia::simtime::CostModel;
    // Probe the un-budgeted campaign to size a budget that covers LIFS
    // plus half a schedule, so the causality pass is cut mid-flight.
    // memo off: every run executes, and so charges the budget; none is
    // answered from a memo table.
    let base = ManagerConfig {
        vms: 1,
        memo: false,
        ..ManagerConfig::default()
    };
    let probe = Campaign::new(base.clone()).diagnose_program(noisy_fig1());
    let model = CostModel {
        vms: 1,
        ..CostModel::default()
    };
    let lifs_s = probe
        .diagnosis()
        .expect("fig1 reproduces")
        .lifs_stats
        .sim
        .seconds(&model);
    let outcome = Campaign::new(ManagerConfig {
        sim_deadline_s: Some(lifs_s + model.per_schedule_s * 0.5),
        ..base
    })
    .diagnose_program(noisy_fig1());
    let CampaignOutcome::Partial(p) = outcome else {
        panic!("expected a partial diagnosis, got {outcome:?}");
    };
    assert!(p.deadline_fired);
    assert!(p.unverified > 0, "some flips must have been cut off");
    for t in &p.diagnosis.result.tested {
        if t.outcome.is_none() {
            assert_eq!(
                t.verdict,
                Verdict::Unverified,
                "un-flipped race {:?} must stay a suspect",
                t.race.key()
            );
        }
    }
}
