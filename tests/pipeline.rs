//! End-to-end integration: trace modeling → slicing → LIFS → Causality
//! Analysis → chain, across crates.

use aitia_repro::aitia::{
    manager::{
        Manager,
        ManagerConfig, //
    },
    CausalityAnalysis, CausalityConfig, Lifs,
};
use aitia_repro::corpus;
use aitia_repro::khist;

/// Every corpus bug's modeled trace slices, reproduces, and yields a chain
/// of the documented length with the documented failure kind.
#[test]
fn full_pipeline_over_the_corpus() {
    for bug in corpus::all_bugs() {
        // §4.2 — history modeling and slicing.
        let history = bug.history();
        assert!(history.failure.is_some(), "{}: failure info", bug.id);
        let slices = khist::slices(&history);
        assert!(!slices.is_empty(), "{}: no slices", bug.id);
        assert!(slices.iter().all(|s| s.width() <= 3));

        // §3.3 — reproduction (tiny noise: integration smoke, not bench).
        let program = bug.program_scaled(0.02);
        let search = Lifs::new(program, bug.lifs_config()).search();
        let run = search
            .failing
            .unwrap_or_else(|| panic!("{}: no reproduction", bug.id));
        assert_eq!(run.failure.kind, bug.kind, "{}", bug.id);

        // §3.4 — diagnosis.
        let result = CausalityAnalysis::new(CausalityConfig::default()).analyze(&run);
        assert_eq!(
            result.chain.race_count(),
            bug.expected_chain_races,
            "{}: {}",
            bug.id,
            result.chain
        );
    }
}

/// The parallel manager agrees with the sequential pipeline.
#[test]
fn manager_parallel_diagnosis_is_consistent() {
    let bug = corpus::cves()
        .into_iter()
        .find(|b| b.id == "CVE-2019-11486")
        .unwrap();
    let program = bug.program_scaled(0.02);
    let manager = Manager::new(ManagerConfig {
        vms: 4,
        lifs: bug.lifs_config(),
        ..ManagerConfig::default()
    });
    let d = manager.diagnose_program(program).expect("diagnoses");
    assert_eq!(d.result.chain.race_count(), bug.expected_chain_races);
}

/// Trace serialization round-trips through the ftrace JSONL format and
/// still slices identically.
#[test]
fn histories_roundtrip_through_jsonl() {
    for bug in corpus::all_bugs().iter().take(5) {
        let h = bug.history();
        let text = khist::ftrace::to_jsonl(&h).expect("serializes");
        let back = khist::ftrace::from_jsonl(&text).expect("parses");
        assert_eq!(h, back, "{}", bug.id);
        assert_eq!(khist::slices(&h).len(), khist::slices(&back).len());
    }
}

/// The chains never contain a race judged benign, on any corpus bug
/// (the §5.2 "causality chains do not contain any benign data race" check).
#[test]
fn chains_never_contain_benign_races() {
    for bug in corpus::all_bugs() {
        let program = bug.program_scaled(0.04);
        let run = Lifs::new(program, bug.lifs_config())
            .search()
            .failing
            .unwrap_or_else(|| panic!("{}: no reproduction", bug.id));
        let result = CausalityAnalysis::new(CausalityConfig::default()).analyze(&run);
        for benign in result.benign() {
            assert!(
                !result.chain.contains(benign.first.at, benign.second.at()),
                "{}: benign race in chain",
                bug.id
            );
        }
    }
}

/// Flipping any chain race (re-running its flip schedule) really averts the
/// original failure — the defining property of the root cause.
#[test]
fn chain_races_avert_failure_when_flipped() {
    use aitia_repro::aitia::causality::flip::plan_flip;
    use aitia_repro::aitia::enforce;
    for bug in corpus::cves().iter().take(4) {
        let program = bug.program_scaled(0.02);
        let run = Lifs::new(program, bug.lifs_config())
            .search()
            .failing
            .unwrap_or_else(|| panic!("{}: no reproduction", bug.id));
        let result = CausalityAnalysis::new(CausalityConfig::default()).analyze(&run);
        for race in &result.root_causes {
            let plan = plan_flip(&run, race, &run.races, true);
            let mut engine = aitia_repro::ksim::Engine::new(run.program.clone());
            let res = enforce::run(
                &mut engine,
                &plan.schedule,
                &aitia_repro::aitia::EnforceConfig::default(),
            );
            let averted = match &res.failure {
                None => true,
                Some(f) => !(f.kind == run.failure.kind && f.at == run.failure.at),
            };
            assert!(
                averted,
                "{}: flipping chain race {:?} did not avert",
                bug.id,
                race.key()
            );
        }
    }
}

/// The full input-to-chain pipeline: history → slices → resolver →
/// manager → chain, for every corpus bug. Several bugs share a syscall
/// signature, so a slice resolves to sibling programs too; LIFS's failure
/// target must pick the bug's own program among them.
#[test]
fn diagnose_history_resolves_and_diagnoses() {
    use aitia_repro::aitia::journal::program_digest;
    use aitia_repro::aitia::manager::{
        Manager,
        ManagerConfig, //
    };
    use aitia_repro::corpus::CorpusResolver;
    let resolver = CorpusResolver { scale: 0.02 };
    for bug in aitia_repro::corpus::all_bugs() {
        let manager = Manager::new(ManagerConfig {
            lifs: bug.lifs_config(),
            ..ManagerConfig::default()
        });
        let d = manager
            .diagnose_history(&bug.history(), &resolver)
            .unwrap_or_else(|| panic!("{}: pipeline diagnosis", bug.id));
        assert_eq!(
            program_digest(&d.failing.program),
            program_digest(&bug.program_scaled(0.02)),
            "{}: diagnosed a sibling bug's program",
            bug.id
        );
        assert_eq!(
            d.result.chain.race_count(),
            bug.expected_chain_races,
            "{}: {}",
            bug.id,
            d.result.chain
        );
    }
}
