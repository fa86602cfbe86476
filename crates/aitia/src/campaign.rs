//! Crash-safe diagnosis campaigns: kill-and-resume plus deadline-budgeted
//! graceful degradation.
//!
//! A [`Campaign`] wraps [`Manager`] with the two robustness properties a
//! long-running diagnosis needs:
//!
//! * **Durability.** With a [`Journal`] configured, every schedule
//!   execution is appended to a write-ahead log before the
//!   campaign consumes it. A relaunched campaign replays the journal into
//!   its substrate's memo table, so every previously-executed schedule is
//!   answered at zero VM cost — and because consumers are memo-invariant
//!   (PR 3), the resumed diagnosis is bit-identical to an uninterrupted
//!   one. A truncated or corrupt journal degrades to a cold start with a
//!   warning, never a panic or a wrong diagnosis.
//!
//! * **Bounded time.** With a wall-clock or simulated-time deadline
//!   configured ([`ManagerConfig::wall_deadline_s`],
//!   [`ManagerConfig::sim_deadline_s`]), an expired budget stops in-flight
//!   batches and the campaign returns best-so-far results as a
//!   [`PartialDiagnosis`]: LIFS keeps its deepest frontier, and every race
//!   whose flip never ran is marked [`Verdict::Unverified`] — never
//!   silently `Benign`, because the absence of a flip is not evidence of
//!   harmlessness.
//!
//! Journal replay requires memoization ([`ManagerConfig::memo`]) to stay
//! enabled — the replayed records are served *through* the memo table.

use crate::{
    causality::Verdict,
    journal::{
        Journal,
        JournalStats, //
    },
    manager::{
        Diagnosis,
        Manager,
        ManagerConfig, //
    },
};
use ksim::Program;
use std::path::Path;
use std::sync::Arc;

/// A diagnosis cut short by an expired deadline budget: everything the
/// campaign established before the budget ran out, with the unverified
/// remainder accounted for explicitly.
#[derive(Debug)]
pub struct PartialDiagnosis {
    /// The best-so-far diagnosis (chain, verdicts, statistics).
    pub diagnosis: Diagnosis,
    /// How many tested races are [`Verdict::Unverified`] — their flips
    /// never executed.
    pub unverified: usize,
    /// Whether the manager's deadline budget fired (as opposed to a
    /// partial result from an external cancellation).
    pub deadline_fired: bool,
}

/// What a campaign concluded.
#[derive(Debug)]
pub enum CampaignOutcome {
    /// Every race was flipped and judged: the diagnosis is complete.
    Complete(Diagnosis),
    /// A deadline (or cancellation) cut the campaign short: best-so-far
    /// results with explicit unverified accounting.
    Partial(PartialDiagnosis),
    /// No slice reproduced the failure.
    NoReproduction {
        /// Whether a deadline fired before the search was exhausted (the
        /// non-reproduction is then *not* evidence of absence).
        deadline_fired: bool,
    },
}

impl CampaignOutcome {
    /// The diagnosis, complete or partial.
    #[must_use]
    pub fn diagnosis(&self) -> Option<&Diagnosis> {
        match self {
            CampaignOutcome::Complete(d) => Some(d),
            CampaignOutcome::Partial(p) => Some(&p.diagnosis),
            CampaignOutcome::NoReproduction { .. } => None,
        }
    }

    /// Whether a deadline budget fired during the campaign.
    #[must_use]
    pub fn deadline_fired(&self) -> bool {
        match self {
            CampaignOutcome::Complete(_) => false,
            CampaignOutcome::Partial(p) => p.deadline_fired,
            CampaignOutcome::NoReproduction { deadline_fired } => *deadline_fired,
        }
    }
}

/// The crash-safe campaign driver.
pub struct Campaign {
    manager: Manager,
    journal: Option<Arc<Journal>>,
}

impl Campaign {
    /// Creates a campaign from a fully-specified configuration (the
    /// journal, if any, rides in [`ManagerConfig::journal`]).
    #[must_use]
    pub fn new(config: ManagerConfig) -> Self {
        let journal = config.journal.clone();
        Campaign {
            manager: Manager::new(config),
            journal,
        }
    }

    /// Creates a campaign journaling to `path`. An unusable journal file
    /// (unwritable path, permissions) degrades to a journal-less campaign
    /// with a warning — durability is best-effort, correctness is not.
    #[must_use]
    pub fn with_journal_path(mut config: ManagerConfig, path: impl AsRef<Path>) -> Self {
        let path = path.as_ref();
        match Journal::open(path) {
            Ok(j) => config.journal = Some(Arc::new(j)),
            Err(e) => {
                eprintln!(
                    "aitia-campaign: cannot open journal {} ({e}); \
                     running without durability",
                    path.display()
                );
            }
        }
        Campaign::new(config)
    }

    /// The underlying manager.
    #[must_use]
    pub fn manager(&self) -> &Manager {
        &self.manager
    }

    /// The journal's counters, when one is configured.
    #[must_use]
    pub fn journal_stats(&self) -> Option<JournalStats> {
        self.journal.as_ref().map(|j| j.stats())
    }

    /// Diagnoses over candidate slices, replaying the journal first so a
    /// relaunched campaign re-pays nothing for schedules it already ran.
    #[must_use]
    pub fn diagnose(&self, slices: &[Arc<Program>]) -> CampaignOutcome {
        if let Some(journal) = &self.journal {
            for program in slices {
                // Replay into the substrate this campaign's executors will
                // actually consult.
                journal.replay_into_substrate(program, self.manager.substrate());
            }
        }
        let diagnosis = self.manager.diagnose(slices);
        if let Some(journal) = &self.journal {
            journal.flush();
            // A failed fsync disabled the journal mid-campaign (the Journal
            // itself stops appending — every holder shares the Arc, so the
            // executor's appends stop too). Surface the degradation here:
            // the diagnosis is still correct, but this campaign is NOT
            // resumable past the last durable record.
            if journal.fsync_failed() {
                eprintln!(
                    "aitia-campaign: journal {} was disabled after an fsync \
                     failure; the campaign completed without crash-safety",
                    journal.path().display()
                );
            }
        }
        self.classify(diagnosis)
    }

    /// Diagnoses a single program (one-slice convenience).
    #[must_use]
    pub fn diagnose_program(&self, program: Arc<Program>) -> CampaignOutcome {
        self.diagnose(&[program])
    }

    fn classify(&self, diagnosis: Option<Diagnosis>) -> CampaignOutcome {
        let deadline_fired = self.manager.deadline_fired();
        let Some(d) = diagnosis else {
            return CampaignOutcome::NoReproduction { deadline_fired };
        };
        let unverified = d
            .result
            .tested
            .iter()
            .filter(|t| t.verdict == Verdict::Unverified)
            .count();
        let partial = deadline_fired
            || d.lifs_stats.deadline_fired
            || d.result.stats.deadline_fired
            || unverified > 0;
        if partial {
            CampaignOutcome::Partial(PartialDiagnosis {
                diagnosis: d,
                unverified,
                deadline_fired,
            })
        } else {
            CampaignOutcome::Complete(d)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Substrate;
    use crate::simtime::CostModel;
    use ksim::builder::ProgramBuilder;

    fn fig1_program() -> Arc<Program> {
        let mut p = ProgramBuilder::new("fig1");
        let obj = p.static_obj("obj", 8);
        let ptr_valid = p.global("ptr_valid", 0);
        let ptr = p.global_ptr("ptr", obj);
        {
            let mut a = p.syscall_thread("A", "writer");
            a.n("A1").store_global(ptr_valid, 1u64);
            a.n("A2").load_global("r0", ptr);
            a.load_ind("r1", "r0", 0);
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "clearer");
            let out = b.new_label();
            b.n("B1").load_global("r0", ptr_valid);
            b.jmp_if(ksim::builder::cond_reg("r0", ksim::CmpOp::Eq, 0), out);
            b.n("B2").store_global(ptr, 0u64);
            b.place(out);
            b.ret();
        }
        Arc::new(p.build().unwrap())
    }

    fn serial_config() -> ManagerConfig {
        // memo off keeps every run executed (and so deadline-charged),
        // even the schedules the search repeats.
        ManagerConfig {
            vms: 1,
            memo: false,
            ..ManagerConfig::default()
        }
    }

    #[test]
    fn unbudgeted_campaign_is_complete() {
        let outcome = Campaign::new(serial_config()).diagnose_program(fig1_program());
        let CampaignOutcome::Complete(d) = outcome else {
            panic!("expected a complete diagnosis, got {outcome:?}");
        };
        assert_eq!(d.result.chain.race_count(), 2);
        assert!(!outcome_like(&d));
        fn outcome_like(d: &Diagnosis) -> bool {
            d.result.tested.iter().any(|t| t.outcome.is_none())
        }
    }

    #[test]
    fn sim_deadline_mid_analysis_yields_partial_with_unverified_never_benign() {
        // Measure the un-budgeted campaign, then rerun with a simulated-time
        // budget that covers LIFS plus a sliver: the budget expires during
        // the causality pass, leaving later flips unexecuted.
        let complete = Campaign::new(serial_config()).diagnose_program(fig1_program());
        let d = complete.diagnosis().expect("fig1 reproduces");
        let model = CostModel {
            vms: 1,
            ..CostModel::default()
        };
        let lifs_s = d.lifs_stats.sim.seconds(&model);
        let budget = lifs_s + model.per_schedule_s * 0.5;
        let outcome = Campaign::new(ManagerConfig {
            sim_deadline_s: Some(budget),
            ..serial_config()
        })
        .diagnose_program(fig1_program());
        let CampaignOutcome::Partial(p) = outcome else {
            panic!("expected a partial diagnosis, got {outcome:?}");
        };
        assert!(p.deadline_fired);
        assert!(p.unverified > 0, "some flips must have been cut off");
        for t in &p.diagnosis.result.tested {
            // The degradation invariant: a race whose flip never ran is
            // Unverified — it must never be silently excluded as Benign.
            if t.outcome.is_none() {
                assert_eq!(t.verdict, Verdict::Unverified, "race {:?}", t.race.key());
                assert_eq!(t.provenance(), "not executed (deadline)");
            }
            assert!(
                !(t.outcome.is_none() && t.verdict == Verdict::Benign),
                "un-flipped race {:?} labeled Benign",
                t.race.key()
            );
        }
        assert!(p.diagnosis.result.stats.deadline_fired);
        assert_eq!(
            p.unverified,
            p.diagnosis.result.unverified().len(),
            "count matches the result helper"
        );
    }

    #[test]
    fn zero_wall_deadline_degrades_no_reproduction_gracefully() {
        let outcome = Campaign::new(ManagerConfig {
            wall_deadline_s: Some(0.0),
            ..serial_config()
        })
        .diagnose_program(fig1_program());
        let CampaignOutcome::NoReproduction { deadline_fired } = outcome else {
            panic!("an already-expired budget cannot reproduce: {outcome:?}");
        };
        assert!(deadline_fired);
    }

    #[test]
    fn campaign_degrades_to_journal_disabled_on_fsync_failure() {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "aitia-campaign-fsync-test-{}.wal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let campaign = Campaign::with_journal_path(serial_config(), &path);
        // The journal's temp dir goes bad before any record lands: every
        // fsync fails, so the very first flush disables the journal.
        campaign
            .journal
            .as_ref()
            .expect("journal configured")
            .poison_fsync();
        let outcome = campaign.diagnose_program(fig1_program());
        // The diagnosis itself is unaffected — durability degrades,
        // correctness does not.
        assert!(matches!(outcome, CampaignOutcome::Complete(_)));
        let stats = campaign.journal_stats().expect("journal configured");
        assert!(stats.fsync_failed, "durability loss must be surfaced");
        let _ = std::fs::remove_file(&path);
    }

    /// Cross-campaign digest isolation. Two campaigns built from the
    /// default configuration diagnose the *same* program object and share
    /// no state — the second pays exactly the first's VM executions —
    /// while two campaigns handed one substrate (the `campaignd`
    /// configuration) serve the second largely from the first's entries.
    /// Either way the diagnosis digest is bit-identical, which is exactly
    /// why cross-campaign sharing is safe.
    #[test]
    fn default_campaigns_share_nothing_shared_substrates_memoize() {
        let program = fig1_program();
        let diagnose = |config: ManagerConfig| {
            let campaign = Campaign::new(ManagerConfig { vms: 1, ..config });
            let outcome = campaign.diagnose_program(Arc::clone(&program));
            let digest = outcome
                .diagnosis()
                .expect("fig1 reproduces")
                .result
                .chain
                .to_string();
            (digest, campaign.manager().exec_stats())
        };
        let (d1, s1) = diagnose(ManagerConfig::default());
        let (d2, s2) = diagnose(ManagerConfig::default());
        assert_eq!(d1, d2);
        // A lone diagnosis hits its *own* substrate (repeated schedules),
        // so isolation shows up as the second campaign's counters matching
        // the first's exactly — nothing carried over.
        assert_eq!(
            s2.memo_hits, s1.memo_hits,
            "a default campaign must not observe another campaign's state"
        );
        assert_eq!(s1.runs, s2.runs, "both isolated campaigns pay full price");
        // Shared: one handle, two campaigns — the second hits.
        let shared = Substrate::default();
        assert!(shared.shares_with(&shared.clone()));
        assert!(!shared.shares_with(&Substrate::default()));
        let with_shared = || ManagerConfig {
            substrate: shared.clone(),
            ..ManagerConfig::default()
        };
        let (d3, _) = diagnose(with_shared());
        let (d4, s4) = diagnose(with_shared());
        assert_eq!(d3, d4);
        assert_eq!(d1, d3, "substrate choice never changes the diagnosis");
        assert!(
            s4.memo_hits > 0,
            "a shared substrate serves the second campaign from the first's entries"
        );
        assert!(s4.runs < s2.runs, "sharing must save VM executions");
    }

    /// A relaunched campaign (a content-identical program in a fresh
    /// allocation, on a fresh substrate) replays its journal into the
    /// substrate its executors consult and re-executes nothing, at the
    /// serial width and the default pool width alike.
    #[test]
    fn journaled_campaign_on_private_substrate_replays_into_it() {
        for vms in [1, ManagerConfig::default().vms] {
            let mut path = std::env::temp_dir();
            path.push(format!(
                "aitia-campaign-substrate-test-{}-{vms}.wal",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&path);
            let config = || ManagerConfig {
                vms,
                ..ManagerConfig::default()
            };
            let first = Campaign::with_journal_path(config(), &path);
            let d1 = first
                .diagnose_program(fig1_program())
                .diagnosis()
                .expect("fig1 reproduces")
                .result
                .chain
                .to_string();
            let appended = first.journal_stats().expect("journal configured");
            assert!(appended.records_appended > 0, "vms={vms}");
            let resumed = Campaign::with_journal_path(config(), &path);
            let d2 = resumed
                .diagnose_program(fig1_program())
                .diagnosis()
                .expect("fig1 reproduces")
                .result
                .chain
                .to_string();
            assert_eq!(d1, d2, "vms={vms}");
            let stats = resumed.journal_stats().expect("journal configured");
            assert!(stats.records_replayed > 0, "vms={vms}");
            assert_eq!(
                stats.records_appended, 0,
                "vms={vms}: the replay must land in the substrate the executors consult"
            );
            let runs = resumed.manager().exec_stats().runs;
            assert_eq!(runs, 0, "vms={vms}: full resume");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn unwritable_journal_path_degrades_to_no_durability() {
        let campaign =
            Campaign::with_journal_path(ManagerConfig::default(), "/nonexistent-dir/journal.wal");
        assert!(campaign.journal_stats().is_none());
        let outcome = campaign.diagnose_program(fig1_program());
        assert!(outcome.diagnosis().is_some(), "diagnosis still runs");
    }
}
