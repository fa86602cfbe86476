//! Parallel orchestration of reproducers and diagnosers (§4.1, §4.5).
//!
//! The paper launches 32 virtual machines: reproducers run LIFS over the
//! candidate slices; once one reports a failure-causing instruction
//! sequence, diagnosers run Causality Analysis flips in parallel. Here each
//! "VM" is a worker of one pool owning its own engine, and all fan-out
//! goes through that pool ([`crate::exec`]), whose canonical-order fold
//! makes every outcome — failing slice choice, merged statistics, chain —
//! identical at any worker count.
//!
//! Candidate slices are searched one after another in priority order, and
//! the first that reproduces wins. Each search's LIFS rounds, and then the
//! diagnosis flips, run *through* the pool ([`Lifs::with_executor`]), so
//! every worker serves whichever slice is being searched and every run
//! shows in [`Manager::exec_stats`].

use crate::{
    causality::{
        CausalityAnalysis,
        CausalityConfig,
        CausalityResult, //
    },
    exec::{
        ExecStats,
        Executor,
        ExecutorConfig,
        Substrate, //
    },
    journal::Journal,
    lifs::{
        FailingRun,
        Lifs,
        LifsConfig,
        LifsStats, //
    },
};
use khist::ExecHistory;
use ksim::Program;
use std::sync::Arc;

/// Manager configuration.
#[derive(Clone, Debug)]
pub struct ManagerConfig {
    /// Worker ("VM") count of the pool that runs every stage.
    pub vms: usize,
    /// LIFS configuration for reproducers.
    pub lifs: LifsConfig,
    /// Causality Analysis configuration for diagnosers.
    pub causality: CausalityConfig,
    /// Cross-run schedule memoization and the shared snapshot forest
    /// ([`crate::exec::ExecutorConfig::memo`]) for the pool. Diagnoses are
    /// bit-identical either way; disabling it gives the reuse-nothing
    /// oracle.
    pub memo: bool,
    /// The memo table and snapshot forest the campaign's executors consult
    /// ([`crate::exec::ExecutorConfig::substrate`]). The default is a fresh
    /// substrate used by this manager's pool and nobody else; pass one
    /// handle to several managers to share on purpose (`campaignd`'s
    /// cross-campaign substrate).
    pub substrate: Substrate,
    /// Wall-clock budget for the whole campaign, in seconds, counted from
    /// [`Manager::new`]. The manager gives the LIFS and causality tokens
    /// one shared expiry ([`crate::exec::CancelToken::with_deadline_s`]),
    /// in place of any they carried. When it expires, in-flight batches
    /// stop and the diagnosis degrades to best-so-far results (un-flipped
    /// races become [`crate::causality::Verdict::Unverified`]). `None` =
    /// unbounded.
    pub wall_deadline_s: Option<f64>,
    /// Durable run journal: every execution is appended, and a resumed
    /// campaign replays it into the memo table. `None` disables
    /// durability.
    pub journal: Option<Arc<Journal>>,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            vms: 8,
            lifs: LifsConfig::default(),
            causality: CausalityConfig::default(),
            memo: true,
            substrate: Substrate::default(),
            wall_deadline_s: None,
            journal: None,
        }
    }
}

/// Outcome of the reproducing stage over multiple candidate slices.
#[derive(Debug)]
pub struct ReproduceOutcome {
    /// The first (by slice priority) failing run, if any slice reproduced.
    pub failing: Option<FailingRun>,
    /// Index of the slice that reproduced.
    pub slice_index: Option<usize>,
    /// Merged LIFS statistics across every attempted slice.
    pub stats: LifsStats,
}

/// The full diagnosis of one bug: reproduction plus causality analysis.
#[derive(Debug)]
pub struct Diagnosis {
    /// Which slice reproduced.
    pub slice_index: usize,
    /// The failing run.
    pub failing: FailingRun,
    /// The analysis result (chain, verdicts, statistics).
    pub result: CausalityResult,
    /// LIFS statistics.
    pub lifs_stats: LifsStats,
}

/// The AITIA manager: orchestrates parallel reproducers and diagnosers.
pub struct Manager {
    config: ManagerConfig,
    exec: Arc<Executor>,
}

impl Manager {
    /// Creates a manager owning a VM pool of `config.vms` workers.
    #[must_use]
    pub fn new(mut config: ManagerConfig) -> Self {
        if let Some(wall_s) = config.wall_deadline_s {
            // One expiry for both stages: a deadline LIFS observes has
            // fired for the analysis too, so LIFS rounds and causality
            // flips stop folding at the first hole.
            config.lifs.cancel = config.lifs.cancel.with_deadline_s(wall_s);
            config.causality.cancel.expiry = config.lifs.cancel.expiry.clone();
        }
        let exec = Arc::new(Executor::with_config(ExecutorConfig {
            vms: config.vms,
            memo: config.memo,
            substrate: config.substrate.clone(),
            journal: config.journal.clone(),
            ..ExecutorConfig::default()
        }));
        Manager { config, exec }
    }

    /// Whether a deadline on either stage's token has fired.
    #[must_use]
    pub fn deadline_fired(&self) -> bool {
        self.config.lifs.cancel.deadline_fired() || self.config.causality.cancel.deadline_fired()
    }

    /// The substrate this manager's executors consult.
    #[must_use]
    pub fn substrate(&self) -> &Substrate {
        &self.config.substrate
    }

    /// Counters of the manager's pool, which runs every schedule of every
    /// stage.
    #[must_use]
    pub fn exec_stats(&self) -> ExecStats {
        self.exec.stats()
    }

    /// Reproducing stage: searches the candidate slices (each a
    /// [`Program`]) in priority order on the pool, each search spreading
    /// its batches over every worker, and returns the first failing run.
    /// No later slice is searched once one reproduces or the LIFS token is
    /// cancelled (an expired deadline cancels it).
    #[must_use]
    pub fn reproduce(&self, slices: &[Arc<Program>]) -> ReproduceOutcome {
        let mut stats = LifsStats::default();
        for (i, slice) in slices.iter().enumerate() {
            let out = Lifs::with_executor(
                Arc::clone(slice),
                self.config.lifs.clone(),
                Arc::clone(&self.exec),
            )
            .search();
            stats.merge(&out.stats);
            if out.failing.is_some() {
                return ReproduceOutcome {
                    failing: out.failing,
                    slice_index: Some(i),
                    stats,
                };
            }
            if self.config.lifs.cancel.is_cancelled() {
                break;
            }
        }
        ReproduceOutcome {
            failing: None,
            slice_index: None,
            stats,
        }
    }

    /// Full pipeline: reproduce over slices, then diagnose the failing run.
    #[must_use]
    pub fn diagnose(&self, slices: &[Arc<Program>]) -> Option<Diagnosis> {
        let repro = self.reproduce(slices);
        let failing = repro.failing?;
        let slice_index = repro.slice_index.unwrap_or(0);
        let result =
            CausalityAnalysis::with_executor(self.config.causality.clone(), Arc::clone(&self.exec))
                .analyze(&failing);
        Some(Diagnosis {
            slice_index,
            failing,
            result,
            lifs_stats: repro.stats,
        })
    }

    /// Diagnoses a single program (one-slice convenience).
    #[must_use]
    pub fn diagnose_program(&self, program: Arc<Program>) -> Option<Diagnosis> {
        self.diagnose(&[program])
    }

    /// The full input-to-chain pipeline (§4.1): slices the execution
    /// history backward from the failure, resolves each slice to the
    /// executable kernel scenarios that may model it through `resolver`,
    /// and reproduces / diagnoses over all of them as candidate slices in
    /// priority order — so LIFS's failure target, not resolution order,
    /// picks the program that fails the way the history did.
    #[must_use]
    pub fn diagnose_history(
        &self,
        history: &ExecHistory,
        resolver: &dyn SliceResolver,
    ) -> Option<Diagnosis> {
        let slices: Vec<Arc<Program>> = khist::slices(history)
            .iter()
            .flat_map(|s| resolver.resolve(s))
            .collect();
        self.diagnose(&slices)
    }
}

/// Maps a trace slice onto executable kernel scenarios.
///
/// In the paper, the user agent replays the slice's system calls against
/// the real kernel; in the reproduction, a resolver supplies the modeled
/// kernel code paths for the slice's calls (the corpus provides one
/// covering its 22 bugs).
pub trait SliceResolver: Sync {
    /// Every program that may model this slice's concurrent calls, in
    /// priority order (empty when none is known). Several programs can
    /// share a syscall signature; the caller searches them all.
    fn resolve(&self, slice: &khist::Slice) -> Vec<Arc<Program>>;
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn benign_program() -> Arc<Program> {
        let mut p = ProgramBuilder::new("benign");
        let x = p.global("x", 0);
        {
            let mut a = p.syscall_thread("A", "w");
            a.fetch_add_global(x, 1u64);
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "w");
            b.fetch_add_global(x, 1u64);
            b.ret();
        }
        Arc::new(p.build().unwrap())
    }

    #[test]
    fn diagnose_pipeline_produces_chain() {
        let d = Manager::new(ManagerConfig::default())
            .diagnose_program(fig1_program())
            .expect("diagnosis");
        assert_eq!(d.result.chain.race_count(), 2);
        assert!(d.lifs_stats.schedules_executed > 0);
    }

    #[test]
    fn reproduce_prefers_earliest_failing_slice() {
        let slices = vec![benign_program(), fig1_program(), fig1_program()];
        let m = Manager::new(ManagerConfig::default());
        let out = m.reproduce(&slices);
        assert_eq!(out.slice_index, Some(1));
        assert!(out.failing.is_some());
    }

    #[test]
    fn reproduce_handles_no_failure() {
        let m = Manager::new(ManagerConfig::default());
        let out = m.reproduce(&[benign_program()]);
        assert!(out.failing.is_none());
        assert!(out.stats.schedules_executed > 0);
    }

    #[test]
    fn empty_slice_list_is_fine() {
        let m = Manager::new(ManagerConfig::default());
        assert!(m.reproduce(&[]).failing.is_none());
        assert!(m.diagnose(&[]).is_none());
    }

    #[test]
    fn parallel_matches_serial_chain_and_stats() {
        let serial = Manager::new(ManagerConfig {
            vms: 1,
            ..ManagerConfig::default()
        })
        .diagnose_program(fig1_program())
        .expect("serial");
        let parallel = Manager::new(ManagerConfig {
            vms: 8,
            ..ManagerConfig::default()
        })
        .diagnose_program(fig1_program())
        .expect("parallel");
        assert_eq!(
            serial.result.chain.to_string(),
            parallel.result.chain.to_string()
        );
        assert_eq!(
            serial.lifs_stats.schedules_executed,
            parallel.lifs_stats.schedules_executed
        );
        assert_eq!(
            serial.result.stats.schedules_executed,
            parallel.result.stats.schedules_executed
        );
        assert_eq!(serial.lifs_stats.sim.steps, parallel.lifs_stats.sim.steps);
    }

    #[test]
    fn memoization_does_not_change_the_diagnosis() {
        let run = |memo| {
            Manager::new(ManagerConfig {
                memo,
                ..ManagerConfig::default()
            })
            .diagnose_program(fig1_program())
            .expect("diagnosis")
        };
        let off = run(false);
        let on = run(true);
        assert_eq!(off.result.chain.to_string(), on.result.chain.to_string());
        assert_eq!(
            off.lifs_stats.schedules_executed,
            on.lifs_stats.schedules_executed
        );
        assert_eq!(
            off.result.stats.schedules_executed,
            on.result.stats.schedules_executed
        );
        assert_eq!(off.lifs_stats.sim.steps, on.lifs_stats.sim.steps);
        assert_eq!(off.result.stats.sim, on.result.stats.sim);
        // The baseline never consults the table.
        assert_eq!(off.lifs_stats.memo_hits, 0);
        assert_eq!(off.result.stats.memo_hits, 0);
    }

    /// End-to-end prune-level agreement at the manager layer: every level
    /// produces the same chain and failing schedule at every pool size,
    /// and `dpor` never executes more schedules than `conflict`, which
    /// never executes more than `off`.
    #[test]
    fn prune_levels_agree_across_pool_sizes() {
        use crate::lifs::PruneLevel;
        let run = |prune, vms| {
            Manager::new(ManagerConfig {
                vms,
                lifs: LifsConfig {
                    prune,
                    ..LifsConfig::default()
                },
                ..ManagerConfig::default()
            })
            .diagnose_program(fig1_program())
            .expect("diagnosis")
        };
        let baseline = run(PruneLevel::Off, 1);
        let mut executed = vec![baseline.lifs_stats.schedules_executed];
        for level in [PruneLevel::Conflict, PruneLevel::Dpor] {
            let serial = run(level, 1);
            for vms in [2usize, 8] {
                let pooled = run(level, vms);
                assert_eq!(
                    serial.result.chain.to_string(),
                    pooled.result.chain.to_string(),
                    "{level} chain diverged at {vms} workers"
                );
                assert_eq!(
                    serial.failing.schedule, pooled.failing.schedule,
                    "{level} failing schedule diverged at {vms} workers"
                );
                assert_eq!(
                    serial.lifs_stats.schedules_executed, pooled.lifs_stats.schedules_executed,
                    "{level} schedule count diverged at {vms} workers"
                );
            }
            assert_eq!(
                baseline.result.chain.to_string(),
                serial.result.chain.to_string(),
                "{level} chain diverged from the unpruned baseline"
            );
            assert_eq!(
                baseline.failing.schedule, serial.failing.schedule,
                "{level} failing schedule diverged from the unpruned baseline"
            );
            executed.push(serial.lifs_stats.schedules_executed);
        }
        assert!(
            executed[2] <= executed[1] && executed[1] <= executed[0],
            "pruning increased the schedule count: {executed:?}"
        );
    }

    #[test]
    fn multi_slice_stats_are_deterministic_across_pool_sizes() {
        let slices = vec![benign_program(), fig1_program(), fig1_program()];
        let run = |vms| {
            Manager::new(ManagerConfig {
                vms,
                ..ManagerConfig::default()
            })
            .reproduce(&slices)
        };
        let serial = run(1);
        let parallel = run(8);
        assert_eq!(serial.slice_index, parallel.slice_index);
        assert_eq!(
            serial.stats.schedules_executed,
            parallel.stats.schedules_executed
        );
        assert_eq!(serial.stats.sim.steps, parallel.stats.sim.steps);
    }

    /// Every slice search runs on the manager's pool, so the pool's
    /// counters account for every schedule. With memo off nothing is a
    /// hit, and with no slice reproducing no batch stops early (so no
    /// speculative run is discarded): the pool's runs equal the schedules
    /// LIFS executed at every pool size.
    #[test]
    fn multi_slice_runs_are_counted_by_the_pool() {
        let slices = vec![benign_program(), benign_program()];
        for vms in [1, 2, 8] {
            let m = Manager::new(ManagerConfig {
                vms,
                memo: false,
                ..ManagerConfig::default()
            });
            let out = m.reproduce(&slices);
            assert!(out.failing.is_none());
            assert!(out.stats.schedules_executed > 0);
            assert_eq!(
                m.exec_stats().runs,
                out.stats.schedules_executed as u64,
                "{vms} workers"
            );
        }
    }

    /// With a slice that reproduces, a pool of two or more workers can run
    /// LIFS jobs past a batch's failing index, and the fold discards them.
    /// `runs` counts those runs too, `discarded_runs` counts them alone, and
    /// the difference is exactly the schedules LIFS folded. Repeated,
    /// because whether a worker races past the stop depends on timing.
    #[test]
    fn discarded_runs_close_the_pool_count() {
        let slices = vec![benign_program(), benign_program(), fig1_program()];
        for vms in [2, 8] {
            for round in 0..100 {
                let m = Manager::new(ManagerConfig {
                    vms,
                    memo: false,
                    ..ManagerConfig::default()
                });
                let out = m.reproduce(&slices);
                assert!(out.failing.is_some());
                let stats = m.exec_stats();
                assert_eq!(
                    stats.runs - stats.discarded_runs,
                    out.stats.schedules_executed as u64,
                    "{vms} workers, round {round}"
                );
            }
        }
    }

    /// A deadline that fires while the first slice is searched ends the
    /// reproduction there: the later, failing slice never runs, so no
    /// failing slice is reported. The deadline has expired before the
    /// search starts, so the first slice's first claim observes it.
    #[test]
    fn a_deadline_during_the_first_slice_searches_no_later_slice() {
        let failing = fig1_program();
        let slices = vec![benign_program(), Arc::clone(&failing)];
        for vms in [1, 2, 8] {
            let m = Manager::new(ManagerConfig {
                vms,
                wall_deadline_s: Some(0.0),
                ..ManagerConfig::default()
            });
            let out = m.reproduce(&slices);
            assert!(m.deadline_fired(), "{vms} workers");
            assert!(out.stats.deadline_fired);
            assert!(out.failing.is_none(), "{vms} workers");
            assert_eq!(out.slice_index, None);
            // Had the failing slice run, its schedules would be in the
            // manager's memo table.
            let probe = Executor::with_config(ExecutorConfig {
                vms: 1,
                substrate: m.substrate().clone(),
                ..ExecutorConfig::default()
            });
            let rerun =
                Lifs::with_executor(Arc::clone(&failing), LifsConfig::default(), Arc::new(probe))
                    .search();
            assert!(rerun.failing.is_some());
            assert_eq!(rerun.stats.memo_hits, 0, "{vms} workers");
        }
    }

    /// A program that fails on every schedule and has no data race: its
    /// analysis submits no flip.
    fn race_free_failing_program() -> Arc<Program> {
        let mut p = ProgramBuilder::new("null-deref");
        let ptr = p.global("ptr", 0);
        {
            let mut a = p.syscall_thread("A", "reader");
            a.load_global("r0", ptr);
            a.load_ind("r1", "r0", 0);
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "idle");
            b.ret();
        }
        Arc::new(p.build().unwrap())
    }

    /// The stages share one expiry: at two or more workers a LIFS claim can
    /// observe the deadline while another worker's run is the failing one,
    /// and an analysis that then submits no flip still reports the deadline
    /// (so the report carries the PARTIAL banner).
    #[test]
    fn a_deadline_lifs_observed_fires_for_an_analysis_that_runs_no_flip() {
        let m = Manager::new(ManagerConfig {
            wall_deadline_s: Some(0.0),
            ..ManagerConfig::default()
        });
        let run = Lifs::new(race_free_failing_program(), LifsConfig::default())
            .search()
            .failing
            .expect("the null dereference reproduces");
        assert!(run.races.is_empty());
        // A LIFS claim loop observes the expired deadline.
        assert!(m.config.lifs.cancel.is_cancelled());
        let result =
            CausalityAnalysis::with_executor(m.config.causality.clone(), Arc::clone(&m.exec))
                .analyze(&run);
        assert_eq!(result.stats.schedules_executed, 0, "no flip was submitted");
        assert!(result.stats.deadline_fired);
        assert!(m.deadline_fired());
        let report = crate::report::render(&run.program, &run, &result);
        assert!(report.contains("PARTIAL diagnosis"), "{report}");
    }
}
