//! Golden-corpus regression for DPOR pruning: the exact number of
//! schedules LIFS executes per Table 2 and Table 3 bug, at every prune
//! level. The same runs carry the pruning gate: every level reaches the
//! same first failing run (schedule and race list) and diagnoses every bug
//! identically, and over Table 2 `dpor` executes at least 30% fewer
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

/// The `off` slot of a bug whose unpruned search does not finish in a
/// debug build (#8 runs over 12,000 schedules without reproducing); the
/// test runs only `conflict` and `dpor` for it.
const NOT_RUN: usize = usize::MAX;

/// `(bug id, [schedules_executed at off, conflict, dpor])`, Table 2's ten
/// CVE bugs and then Table 3's twelve Syzkaller bugs.
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
    ("#1", [45, 4, 3]),
    ("#2", [199, 8, 5]),
    ("#3", [106, 5, 3]),
    ("#4", [107, 5, 3]),
    ("#5", [33, 2, 2]),
    ("#6", [189, 7, 5]),
    ("#7", [168, 7, 5]),
    ("#8", [NOT_RUN, 49, 26]),
    ("#9", [86, 5, 3]),
    ("#10", [32, 6, 5]),
    ("#11", [4, 4, 3]),
    ("#12", [224, 163, 4]),
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
    let bugs = corpus::all_bugs();
    assert_eq!(bugs.len(), GOLDEN.len(), "corpus and golden table differ");
    let table2: Vec<&str> = corpus::cves().iter().map(|b| b.id).collect();
    let mut actual = Vec::new();
    let mut diffs = Vec::new();
    // Table 2's schedules per level: the 30% gate's sums.
    let mut totals = [0usize; 3];
    for (bug, (gid, golden)) in bugs.iter().zip(GOLDEN) {
        assert_eq!(&bug.id, gid, "corpus order changed; regenerate the table");
        let mut got = [NOT_RUN; 3];
        let mut diagnoses = Vec::new();
        for (slot, (prune, exec)) in levels.into_iter().zip(&pools).enumerate() {
            if golden[slot] == NOT_RUN {
                continue;
            }
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
                "chain={} verdicts={verdicts:?} sched={:?} races={:?} steps={} ca={}",
                result.chain,
                run.schedule,
                run.races,
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
        if table2.contains(&bug.id) {
            for (total, n) in totals.iter_mut().zip(got) {
                *total += n;
            }
        }
        assert!(
            got[2] <= got[1] && got[1] <= got[0],
            "{}: pruning increased the schedule count: {got:?}",
            bug.id
        );
        if &got != golden {
            diffs.push(format!("{}: golden {golden:?}, actual {got:?}", bug.id));
        }
        let row = got.map(|n| {
            if n == NOT_RUN {
                "NOT_RUN".to_string()
            } else {
                n.to_string()
            }
        });
        actual.push(format!("    ({:?}, [{}]),", bug.id, row.join(", ")));
    }
    let [_, conflict, dpor] = totals;
    assert!(
        10 * dpor <= 7 * conflict,
        "over Table 2 dpor executed {dpor} schedules against conflict's {conflict}: \
         under the gate's 30% reduction"
    );
    assert!(
        diffs.is_empty(),
        "schedule counts drifted:\n{}\n\nfull regenerated table:\n{}",
        diffs.join("\n"),
        actual.join("\n")
    );
}
