//! The default levels against the oracles they replaced.
//!
//! `diagnose`, campaignd and every library default run LIFS at `dpor` and
//! Causality Analysis at `adaptive`; `report` keeps the paper's `conflict`
//! and `exhaustive`. Two checks hold the move to account over the whole
//! corpus (Tables 2 and 3):
//!
//! * `dpor` reaches the same first failing run as `conflict`, at a scale
//!   where the unpruned `off` search runs hundreds to thousands of
//!   schedules per bug: the same schedule and the same race list, in the
//!   same order. (`tests/prune_golden.rs` checks `off`, `conflict` and
//!   `dpor` against each other at a small scale.) Every pruned plan must be
//!   equivalent to one generated *earlier*; a plan equivalent only to a
//!   later one changes which linearization fails first (Syzkaller #5,
//!   where the victim spawns the thread it is preempted toward).
//! * A diagnosis at the defaults renders byte for byte the report of a
//!   diagnosis at the paper's levels.

use aitia_repro::aitia::{
    manager::ManagerConfig,
    report,
    Campaign,
    CausalityConfig,
    CausalityLevel,
    FailingRun,
    Lifs,
    LifsConfig,
    PruneLevel, //
};
use aitia_repro::corpus::{
    self,
    BugModel, //
};

/// The first failing run of `bug` at `scale` and prune level `prune`.
fn first_failing(bug: &BugModel, scale: f64, prune: PruneLevel) -> FailingRun {
    let config = LifsConfig {
        prune,
        ..bug.lifs_config()
    };
    Lifs::new(bug.program_scaled(scale), config)
        .search()
        .failing
        .unwrap_or_else(|| panic!("{} did not reproduce at {prune} (scale {scale})", bug.id))
}

#[test]
fn dpor_first_failing_run_equals_conflicts() {
    // `conflict` applies no refined filter and no sleep or persistent set;
    // it agrees with `off` on every bug `prune_golden` runs `off` on.
    const SCALE: f64 = 0.1;
    for bug in corpus::all_bugs() {
        let want = first_failing(&bug, SCALE, PruneLevel::Conflict);
        let got = first_failing(&bug, SCALE, PruneLevel::Dpor);
        assert_eq!(
            got.schedule, want.schedule,
            "{} at scale {SCALE}: dpor and conflict first fail at different schedules",
            bug.id
        );
        assert_eq!(
            got.races, want.races,
            "{} at scale {SCALE}: dpor and conflict observe different races",
            bug.id
        );
    }
}

/// The rendered report of `bug` at `scale`, diagnosed through a campaign
/// configured by `config`.
fn rendered(bug: &BugModel, scale: f64, config: ManagerConfig) -> String {
    let program = bug.program_scaled(scale);
    let outcome = Campaign::new(config).diagnose_program(program.clone());
    let d = outcome
        .diagnosis()
        .unwrap_or_else(|| panic!("{} did not reproduce at scale {scale}", bug.id));
    report::render(&program, &d.failing, &d.result)
}

#[test]
fn default_and_paper_levels_render_identical_reports() {
    const SCALE: f64 = 0.2;
    let defaults = ManagerConfig::default();
    assert_eq!(defaults.lifs.prune, PruneLevel::Dpor);
    assert_eq!(defaults.causality.level, CausalityLevel::Adaptive);
    for bug in corpus::all_bugs() {
        let fast = rendered(
            &bug,
            SCALE,
            ManagerConfig {
                lifs: bug.lifs_config(),
                ..ManagerConfig::default()
            },
        );
        let paper = rendered(
            &bug,
            SCALE,
            ManagerConfig {
                lifs: LifsConfig {
                    prune: PruneLevel::Conflict,
                    ..bug.lifs_config()
                },
                causality: CausalityConfig {
                    level: CausalityLevel::Exhaustive,
                    ..CausalityConfig::default()
                },
                ..ManagerConfig::default()
            },
        );
        assert_eq!(
            fast, paper,
            "{}: the report at the defaults differs from the paper levels'",
            bug.id
        );
    }
}
