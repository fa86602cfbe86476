//! Golden-corpus regression for DPOR pruning: the exact number of
//! schedules LIFS executes per Table 2 bug, at every prune level. The same
//! runs carry the pruning gate: every level diagnoses every bug
//! identically, and over the corpus `dpor` executes at least 30% fewer
//! schedules than `conflict`.
//!
//! These numbers are a behavioural snapshot, not a performance budget:
//! any change to plan generation, the conflict relation, or the
//! sleep/persistent rules shows up here as a precise per-bug diff instead
//! of a silent search-order drift. Update the table deliberately when the
//! pruning semantics change — and only after the differential properties
//! in `properties.rs` confirm diagnoses are still identical across levels.
//!
//! The noise scale is small so the unpruned `off` search stays tractable
//! in debug builds.

use aitia_repro::aitia::{
    CausalityAnalysis, CausalityConfig, Executor, ExecutorConfig, Lifs, LifsConfig, PruneLevel,
    Substrate,
};
use aitia_repro::corpus;
use std::sync::Arc;

const SCALE: f64 = 0.02;

/// `(bug id, [schedules_executed at off, conflict, dpor])`.
const GOLDEN: &[(&str, [usize; 3])] = &[
    ("CVE-2019-11486", [35, 4, 3]),
    ("CVE-2019-6974", [60, 7, 3]),
    ("CVE-2018-12232", [51, 6, 3]),
    ("CVE-2017-15649", [13446, 66, 36]),
    ("CVE-2017-10661", [17, 4, 3]),
    ("CVE-2017-7533", [185, 12, 4]),
    ("CVE-2017-2671", [21, 4, 3]),
    ("CVE-2017-2636", [25, 6, 4]),
    ("CVE-2016-10200", [38, 7, 4]),
    ("CVE-2016-8655", [21, 4, 3]),
];

#[test]
fn schedules_executed_per_bug_and_level_match_golden() {
    let levels = [PruneLevel::Off, PruneLevel::Conflict, PruneLevel::Dpor];
    // One single-worker pool per level, each on its own substrate, so no
    // level can answer (or evict) another level's memo entries.
    let pools = levels.map(|_| {
        Arc::new(Executor::with_config(ExecutorConfig {
            vms: 1,
            substrate: Substrate::private(8192, 256),
            ..ExecutorConfig::default()
        }))
    });
    let bugs = corpus::cves();
    assert_eq!(bugs.len(), GOLDEN.len(), "corpus and golden table differ");
    let mut actual = Vec::new();
    let mut diffs = Vec::new();
    let mut totals = [0usize; 3];
    for (bug, (gid, golden)) in bugs.iter().zip(GOLDEN) {
        assert_eq!(&bug.id, gid, "corpus order changed; regenerate the table");
        let mut got = [0usize; 3];
        let mut diagnoses = Vec::new();
        for (slot, (prune, exec)) in levels.into_iter().zip(&pools).enumerate() {
            let out = Lifs::with_executor(
                bug.program_scaled(SCALE),
                LifsConfig {
                    prune,
                    ..bug.lifs_config()
                },
                Arc::clone(exec),
            )
            .search();
            let run = out.failing.unwrap_or_else(|| {
                panic!("{} did not reproduce at {prune} (scale {SCALE})", bug.id)
            });
            got[slot] = out.stats.schedules_executed;
            let result =
                CausalityAnalysis::with_executor(CausalityConfig::default(), Arc::clone(exec))
                    .analyze(&run);
            let verdicts: Vec<_> = result.tested.iter().map(|t| t.verdict).collect();
            diagnoses.push(format!(
                "chain={} verdicts={verdicts:?} sched={:?} steps={} ca={}",
                result.chain,
                run.schedule,
                run.trace.len(),
                result.stats.schedules_executed,
            ));
        }
        assert!(
            diagnoses.iter().all(|d| *d == diagnoses[0]),
            "{}: prune levels disagreed on the diagnosis:\n{}",
            bug.id,
            diagnoses.join("\n")
        );
        for (total, n) in totals.iter_mut().zip(got) {
            *total += n;
        }
        assert!(
            got[2] <= got[1] && got[1] <= got[0],
            "{}: pruning increased the schedule count: {got:?}",
            bug.id
        );
        if &got != golden {
            diffs.push(format!("{}: golden {golden:?}, actual {got:?}", bug.id));
        }
        actual.push(format!("    ({:?}, {got:?}),", bug.id));
    }
    let [_, conflict, dpor] = totals;
    assert!(
        10 * dpor <= 7 * conflict,
        "dpor executed {dpor} schedules against conflict's {conflict}: \
         under the gate's 30% reduction"
    );
    assert!(
        diffs.is_empty(),
        "schedule counts drifted:\n{}\n\nfull regenerated table:\n{}",
        diffs.join("\n"),
        actual.join("\n")
    );
}
