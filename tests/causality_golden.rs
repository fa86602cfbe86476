//! Golden-corpus regression for adaptive causal intervention: the exact
//! number of flip schedules Causality Analysis charges per Table 2 and
//! Table 3 bug, at both causality levels, plus the number of flips the
//! static prover discharged without execution. A second test holds the adaptive level's
//! gate: identical diagnoses, a static prover no audit contradicts, and at
//! least 30% fewer flip VM executions than the exhaustive level.
//!
//! These numbers are a behavioural snapshot, not a performance budget: any
//! change to the flip geometry, the static proof obligations, or the gain
//! ordering shows up here as a precise per-bug diff instead of a silent
//! drift. Update the table deliberately when the intervention semantics
//! change — and only after the differential properties in `properties.rs`
//! confirm diagnoses are still identical across levels.
//!
//! The noise scale is small so debug-build flip batches stay fast.

use aitia_repro::aitia::{
    CausalityAnalysis, CausalityConfig, CausalityLevel, Executor, ExecutorConfig, Lifs, Substrate,
};
use aitia_repro::corpus;
use std::sync::Arc;

const SCALE: f64 = 0.02;

/// `(bug id, [flip schedules at exhaustive, at adaptive, static skips])`,
/// Table 2's ten CVE bugs and then Table 3's twelve Syzkaller bugs.
const GOLDEN: &[(&str, [usize; 3])] = &[
    ("CVE-2019-11486", [5, 4, 1]),
    ("CVE-2019-6974", [12, 12, 0]),
    ("CVE-2018-12232", [9, 4, 5]),
    ("CVE-2017-15649", [9, 8, 1]),
    ("CVE-2017-10661", [11, 9, 2]),
    ("CVE-2017-7533", [16, 4, 12]),
    ("CVE-2017-2671", [5, 4, 1]),
    ("CVE-2017-2636", [8, 8, 0]),
    ("CVE-2016-10200", [6, 5, 1]),
    ("CVE-2016-8655", [7, 6, 1]),
    ("#1", [5, 4, 1]),
    ("#2", [13, 8, 5]),
    ("#3", [6, 4, 2]),
    ("#4", [5, 5, 0]),
    ("#5", [4, 3, 1]),
    ("#6", [9, 8, 1]),
    ("#7", [10, 8, 2]),
    ("#8", [11, 10, 1]),
    ("#9", [6, 6, 0]),
    ("#10", [10, 8, 2]),
    ("#11", [224, 4, 220]),
    ("#12", [168, 8, 160]),
];

#[test]
fn flip_schedules_per_bug_and_level_match_golden() {
    let bugs = corpus::all_bugs();
    assert_eq!(bugs.len(), GOLDEN.len(), "corpus and golden table differ");
    let mut actual = Vec::new();
    let mut diffs = Vec::new();
    for (bug, (gid, golden)) in bugs.iter().zip(GOLDEN) {
        assert_eq!(&bug.id, gid, "corpus order changed; regenerate the table");
        let run = Lifs::new(bug.program_scaled(SCALE), bug.lifs_config())
            .search()
            .failing
            .unwrap_or_else(|| panic!("{} did not reproduce at scale {SCALE}", bug.id));
        let mut got = [0usize; 3];
        let mut chains = Vec::new();
        for (slot, level) in [CausalityLevel::Exhaustive, CausalityLevel::Adaptive]
            .into_iter()
            .enumerate()
        {
            let result = CausalityAnalysis::new(CausalityConfig {
                level,
                ..CausalityConfig::default()
            })
            .analyze(&run);
            got[slot] = result.stats.schedules_executed;
            if slot == 1 {
                got[2] = result.stats.flips_skipped_static;
            }
            chains.push((
                result.chain.to_string(),
                result.tested.iter().map(|t| t.verdict).collect::<Vec<_>>(),
            ));
        }
        assert_eq!(
            chains[0], chains[1],
            "{}: causality levels disagreed on the diagnosis",
            bug.id
        );
        assert_eq!(
            got[0],
            got[1] + got[2],
            "{}: every exhaustive flip must be either executed or statically proved",
            bug.id
        );
        if &got != golden {
            diffs.push(format!("{}: golden {golden:?}, actual {got:?}", bug.id));
        }
        actual.push(format!("    ({:?}, {got:?}),", bug.id));
    }
    assert!(
        diffs.is_empty(),
        "flip counts drifted:\n{}\n\nfull regenerated table:\n{}",
        diffs.join("\n"),
        actual.join("\n")
    );
}

/// The adaptive-intervention gate over Table 2 at scale 0.05. Three sides
/// diagnose the corpus: exhaustive, adaptive, and adaptive with
/// `verify_static`, which still executes every statically proved flip and
/// counts each run that contradicts the proof. All three must agree on
/// every diagnosis, LIFS schedule count included. The audit must find no
/// disagreement. Adaptive must pay at least 30% fewer flip VM executions,
/// meaning pool runs after LIFS handed over the failing run, than
/// exhaustive.
#[test]
fn adaptive_level_saves_flip_executions_and_agrees_with_its_audit() {
    const GATE_SCALE: f64 = 0.05;
    let sides = [
        (CausalityLevel::Exhaustive, false),
        (CausalityLevel::Adaptive, false),
        (CausalityLevel::Adaptive, true),
    ];
    let mut digests = Vec::new();
    let mut flip_runs = [0u64; 3];
    let mut disagreements = 0;
    for (slot, (level, verify_static)) in sides.into_iter().enumerate() {
        // Each side builds its own programs on its own substrate, so no
        // side's memo entries can answer (or evict) another's flips.
        let substrate = Substrate::private(8192, 256);
        let mut side = Vec::new();
        for bug in corpus::cves() {
            let exec = Arc::new(Executor::with_config(ExecutorConfig {
                vms: 1,
                substrate: substrate.clone(),
                ..ExecutorConfig::default()
            }));
            let out = Lifs::with_executor(
                bug.program_scaled(GATE_SCALE),
                bug.lifs_config(),
                Arc::clone(&exec),
            )
            .search();
            let run = out
                .failing
                .unwrap_or_else(|| panic!("{} did not reproduce at scale {GATE_SCALE}", bug.id));
            // LIFS ran first on the same pool, so the growth in pool runs
            // is exactly the flips Causality Analysis executed.
            let lifs_runs = exec.stats().runs;
            let result = CausalityAnalysis::with_executor(
                CausalityConfig {
                    level,
                    verify_static,
                    ..CausalityConfig::default()
                },
                Arc::clone(&exec),
            )
            .analyze(&run);
            flip_runs[slot] += exec.stats().runs - lifs_runs;
            disagreements += result.stats.static_disagreements;
            let verdicts: Vec<_> = result.tested.iter().map(|t| t.verdict).collect();
            side.push(format!(
                "{} chain={} verdicts={verdicts:?} sched={:?} steps={} lifs={}",
                bug.id,
                result.chain,
                run.schedule,
                run.trace.len(),
                out.stats.schedules_executed,
            ));
        }
        digests.push(side);
    }
    assert_eq!(disagreements, 0, "the audit contradicted a static proof");
    assert_eq!(digests[0], digests[1], "adaptive changed a diagnosis");
    assert_eq!(digests[1], digests[2], "the audit changed a diagnosis");
    let [exhaustive, adaptive, _] = flip_runs;
    assert!(
        10 * adaptive <= 7 * exhaustive,
        "adaptive executed {adaptive} flips against exhaustive's {exhaustive}: \
         under the gate's 30% reduction"
    );
}
