//! The paper's experiments, as reusable functions.
//!
//! Each table/figure of the evaluation (§5) has a function here producing
//! structured results; the `report` binary renders them next to the paper's
//! reported numbers, and the Criterion benches time the same entry points.

use aitia::{
    causality::{
        CausalityAnalysis,
        CausalityConfig, //
    },
    exec::{
        Executor,
        ExecutorConfig, //
    },
    journal::JournalStats,
    lifs::{
        Lifs,
        LifsStats, //
    },
    manager::{
        Diagnosis,
        ManagerConfig, //
    },
    report::{
        conciseness,
        Conciseness, //
    },
    simtime::CostModel,
    Campaign,
    CausalityResult,
    FailingRun, //
};
use corpus::{
    noise::NoiseSpec,
    BugModel,
    MultiVar, //
};
use std::sync::Arc;

/// The diagnosis of one corpus bug.
pub struct BugOutcome {
    /// The bug's identifier.
    pub id: &'static str,
    /// Subsystem column.
    pub subsystem: &'static str,
    /// Bug-type column.
    pub bug_type: &'static str,
    /// Multi-variable classification.
    pub multi: MultiVar,
    /// LIFS statistics.
    pub lifs: LifsStats,
    /// The failing run.
    pub run: FailingRun,
    /// Causality Analysis result.
    pub result: CausalityResult,
    /// Conciseness figures for this failure.
    pub conciseness: Conciseness,
    /// The paper's reported numbers.
    pub paper: corpus::PaperRow,
}

impl BugOutcome {
    /// Races in the final chain.
    #[must_use]
    pub fn chain_races(&self) -> usize {
        self.result.chain.race_count()
    }
}

/// Diagnoses one bug at the given noise scale on a single-worker VM.
///
/// # Panics
///
/// Panics when the bug fails to reproduce — every corpus bug must.
#[must_use]
pub fn diagnose_bug(bug: &BugModel, scale: f64) -> BugOutcome {
    diagnose_bug_on(bug, scale, &Arc::new(Executor::new(1)))
}

/// Diagnoses one bug with LIFS rounds and Causality Analysis flips fanned
/// out over the given VM pool. Results are bit-for-bit identical at any
/// worker count (the executor folds in canonical order); only wall-clock
/// time changes.
///
/// # Panics
///
/// Panics when the bug fails to reproduce — every corpus bug must.
#[must_use]
pub fn diagnose_bug_on(bug: &BugModel, scale: f64, exec: &Arc<Executor>) -> BugOutcome {
    diagnose_program_on(bug, bug.program_scaled(scale), exec)
}

/// Diagnoses an already-built program of `bug` on the given pool.
///
/// Callers that diagnose the same bug repeatedly (regression re-runs,
/// parameter sweeps) should build the [`ksim::Program`] once and pass the
/// same `Arc` each time: the cross-run memo table keys on program
/// *identity* (`Arc::ptr_eq`, the ABA-safe choice), so only shared-`Arc`
/// re-runs can be answered from the table.
///
/// # Panics
///
/// Panics when the bug fails to reproduce — every corpus bug must.
#[must_use]
pub fn diagnose_program_on(
    bug: &BugModel,
    prog: Arc<ksim::Program>,
    exec: &Arc<Executor>,
) -> BugOutcome {
    diagnose_program_with_prune(bug, prog, exec, bug.lifs_config().prune)
}

/// [`diagnose_program_on`] at an explicit LIFS prune level (the
/// `--prune-level` ablation knob).
///
/// # Panics
///
/// Panics when the bug fails to reproduce — every corpus bug must, at
/// every prune level.
#[must_use]
pub fn diagnose_program_with_prune(
    bug: &BugModel,
    prog: Arc<ksim::Program>,
    exec: &Arc<Executor>,
    prune: aitia::lifs::PruneLevel,
) -> BugOutcome {
    diagnose_program_with_levels(bug, prog, exec, prune, CausalityConfig::default())
}

/// [`diagnose_program_with_prune`] with an explicit Causality Analysis
/// configuration (the `--causality-level` knob).
///
/// # Panics
///
/// Panics when the bug fails to reproduce — every corpus bug must, at
/// every level combination.
#[must_use]
pub fn diagnose_program_with_levels(
    bug: &BugModel,
    prog: Arc<ksim::Program>,
    exec: &Arc<Executor>,
    prune: aitia::lifs::PruneLevel,
    causality: CausalityConfig,
) -> BugOutcome {
    let cfg = aitia::lifs::LifsConfig {
        prune,
        ..bug.lifs_config()
    };
    let out = Lifs::with_executor(prog, cfg, Arc::clone(exec)).search();
    let run = out
        .failing
        .unwrap_or_else(|| panic!("{} did not reproduce", bug.id));
    let result = CausalityAnalysis::with_executor(causality, Arc::clone(exec)).analyze(&run);
    let c = conciseness(&run, &result);
    BugOutcome {
        id: bug.id,
        subsystem: bug.subsystem,
        bug_type: bug.bug_type,
        multi: bug.multi_variable,
        lifs: out.stats,
        run,
        result,
        conciseness: c,
        paper: bug.paper,
    }
}

/// The cost model describing a pool: `vms` mirrors the executor's actual
/// worker count, so simulated-time reports reflect the pool that ran the
/// schedules.
#[must_use]
pub fn cost_model_for(exec: &Executor) -> CostModel {
    CostModel {
        vms: u32::try_from(exec.vms()).unwrap_or(u32::MAX),
        ..CostModel::default()
    }
}

/// Renders the pool's robustness counter block ([`aitia::ExecStats`]) —
/// the `report` binary prints this after every run so the perf trajectory
/// tracks robustness alongside speed.
#[must_use]
pub fn render_exec_stats(stats: &aitia::ExecStats) -> String {
    format!(
        "VM-pool execution stats\n\
        \x20 enforced runs:       {}\n\
        \x20 retries:             {}\n\
        \x20 faults:              {} crash / {} hang\n\
        \x20 gave up (no result): {}\n\
        \x20 VM restarts:         {}\n\
        \x20 quarantined slots:   {}\n\
        \x20 snapshot cache:      {} hits / {} misses\n\
        \x20 memo table:          {} hits / {} misses / {} excluded\n\
        \x20 snapshot forest:     {} cross-worker hits\n\
        \x20 throughput:          {:.0} schedules/s, {:.0} instrs/s (per busy worker)\n\
        \x20 deadline fired:      {}\n",
        stats.runs,
        stats.retries,
        stats.crash_faults,
        stats.hang_faults,
        stats.gave_up,
        stats.vm_restarts,
        stats.quarantined_slots,
        stats.snapshot_hits,
        stats.snapshot_misses,
        stats.memo_hits,
        stats.memo_misses,
        stats.memo_excluded,
        stats.forest_hits,
        stats.schedules_per_sec(),
        stats.instrs_per_sec(),
        stats.deadline_fired,
    )
}

/// Renders the Causality Analysis intervention counter block summed over a
/// set of diagnosed bugs — the `report` binary prints this under the
/// evaluation tables so the adaptive level's savings are visible next to
/// the pool stats.
#[must_use]
pub fn render_ca_stats(rows: &[BugOutcome]) -> String {
    let sum = |f: fn(&aitia::causality::CaStats) -> usize| -> usize {
        rows.iter().map(|r| f(&r.result.stats)).sum()
    };
    format!(
        "Causality-intervention stats\n\
        \x20 flip schedules:      {}\n\
        \x20 skipped (static):    {}\n\
        \x20 reordered (gain):    {}\n\
        \x20 sim time saved:      {:.1}s\n",
        sum(|s| s.schedules_executed),
        sum(|s| s.flips_skipped_static),
        sum(|s| s.flips_reordered),
        rows.iter()
            .map(|r| r.result.stats.sim_time_saved_s)
            .sum::<f64>(),
    )
}

/// Renders the journal counter block, appended to the stats block whenever
/// a run journal is configured.
#[must_use]
pub fn render_journal_stats(stats: &JournalStats) -> String {
    format!(
        "Run-journal stats\n\
        \x20 records replayed:    {}\n\
        \x20 records appended:    {}\n\
        \x20 torn-tail truncs:    {}\n\
        \x20 fsync failed:        {}\n",
        stats.records_replayed,
        stats.records_appended,
        stats.torn_tail_truncations,
        if stats.fsync_failed {
            "yes (journal disabled; campaign ran without crash-safety)"
        } else {
            "no"
        },
    )
}

/// One side (memo off or on) of the memoization A/B benchmark.
#[derive(Clone, Debug, serde::Serialize)]
pub struct MemoBenchSide {
    /// Actual VM executions ([`aitia::ExecStats::runs`] — memo hits never
    /// count here).
    pub vm_executions: u64,
    /// Jobs answered from the cross-run memo table.
    pub memo_hits: u64,
    /// Snapshot-prefix restores served by the shared forest.
    pub forest_hits: u64,
    /// Serial simulated seconds the memo hits avoided paying.
    pub sim_time_saved_s: f64,
    /// Schedules charged to the diagnosis statistics (memo-invariant: both
    /// sides must agree).
    pub schedules_executed: usize,
}

/// Result of `report bench-memo`: the memoization A/B over Table 2.
///
/// The memo table is *cross-run*: it pays off when schedules recur —
/// Phase C re-flips inside one diagnosis, and whole diagnosis sessions
/// re-run for regression confirmation or parameter sweeps (the
/// interventional-debugging budget argument: never spend a VM execution on
/// a run whose outcome is already known). The benchmark models the re-run
/// workload: each side diagnoses the corpus [`MemoBench::passes`] times on
/// fresh single-worker pools (as the manager constructs them), memo-off
/// paying full VM execution every pass, memo-on answering repeats from the
/// process-wide table.
#[derive(Clone, Debug, serde::Serialize)]
pub struct MemoBench {
    /// Noise scale both sides ran at.
    pub scale: f64,
    /// Diagnosis passes over the corpus per side.
    pub passes: usize,
    /// Memoization disabled.
    pub baseline: MemoBenchSide,
    /// Memoization enabled.
    pub memoized: MemoBenchSide,
    /// Percent of the baseline's VM executions the memoized side avoided.
    pub vm_execution_reduction_percent: f64,
    /// Whether every diagnosis-facing output — chains, verdicts, failing
    /// schedules, trace lengths, per-stage schedule counts — is
    /// bit-identical across the two sides.
    pub diagnoses_identical: bool,
}

/// Everything diagnosis-facing in one outcome, as a comparable string.
fn diagnosis_digest(rows: &[BugOutcome]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            let verdicts: Vec<aitia::Verdict> = r.result.tested.iter().map(|t| t.verdict).collect();
            format!(
                "{} chain={} verdicts={:?} sched={:?} steps={} lifs={} ca={}",
                r.id,
                r.result.chain,
                verdicts,
                r.run.schedule,
                r.run.trace.len(),
                r.lifs.schedules_executed,
                r.result.stats.schedules_executed,
            )
        })
        .collect()
}

/// Everything diagnosis-facing *except schedule counts*, which prune
/// levels change by design. The failing schedule, trace length, chain,
/// verdicts and Causality Analysis counts (a pure function of the failing
/// run) must still be bit-identical across prune levels.
fn prune_digest(rows: &[BugOutcome]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            let verdicts: Vec<aitia::Verdict> = r.result.tested.iter().map(|t| t.verdict).collect();
            format!(
                "{} chain={} verdicts={:?} sched={:?} steps={} ca={}",
                r.id,
                r.result.chain,
                verdicts,
                r.run.schedule,
                r.run.trace.len(),
                r.result.stats.schedules_executed,
            )
        })
        .collect()
}

/// One prune level's aggregate LIFS counters over the Table 2 corpus.
#[derive(Clone, Debug, serde::Serialize)]
pub struct PruneBenchSide {
    /// The prune level the side ran at.
    pub level: String,
    /// Schedules LIFS executed across the corpus.
    pub schedules_executed: usize,
    /// Candidates skipped as statically non-conflicting.
    pub pruned_nonconflicting: usize,
    /// Candidates skipped or discounted as equivalent interleavings.
    pub pruned_equivalent: usize,
    /// Candidates skipped by the DPOR sleep-set rule.
    pub pruned_sleep_set: usize,
    /// Candidates skipped by the DPOR persistent-set rule.
    pub pruned_persistent: usize,
}

/// Result of `report bench-prune`: the `--prune-level` ablation over
/// Table 2 (`BENCH_prune.json`).
///
/// Every level must produce a bit-identical diagnosis — the levels differ
/// only in how much of the schedule space they refuse to execute, never in
/// what they find. The acceptance gate asserts the `dpor` level executes
/// at least 30% fewer schedules than `conflict`.
#[derive(Clone, Debug, serde::Serialize)]
pub struct PruneBench {
    /// Noise scale every side ran at.
    pub scale: f64,
    /// No pruning.
    pub off: PruneBenchSide,
    /// Conflict-based pruning (the default level).
    pub conflict: PruneBenchSide,
    /// Full DPOR (sleep sets + persistent sets).
    pub dpor: PruneBenchSide,
    /// Percent of `conflict`'s executed schedules that `dpor` avoided.
    pub dpor_vs_conflict_reduction_percent: f64,
    /// Whether every diagnosis-facing output (chains, verdicts, failing
    /// schedules, trace lengths) is bit-identical across all three levels.
    pub diagnoses_identical: bool,
    /// The acceptance gate: ≥30% fewer schedules at `dpor` than at
    /// `conflict`, with `diagnoses_identical` true.
    pub meets_prune_gate: bool,
}

/// Runs the prune-level ablation over Table 2.
#[must_use]
pub fn bench_prune(scale: f64) -> PruneBench {
    use aitia::lifs::PruneLevel;
    let run = |level: PruneLevel| {
        let bugs = corpus::cves();
        // Each side builds its own programs so the process-wide memo table
        // (keyed on program identity) never leaks results across levels.
        let rows: Vec<BugOutcome> = bugs
            .iter()
            .map(|b| {
                let exec = Arc::new(Executor::with_config(ExecutorConfig {
                    vms: 1,
                    ..ExecutorConfig::default()
                }));
                diagnose_program_with_prune(b, b.program_scaled(scale), &exec, level)
            })
            .collect();
        let sum = |f: fn(&LifsStats) -> usize| rows.iter().map(|r| f(&r.lifs)).sum();
        let side = PruneBenchSide {
            level: level.to_string(),
            schedules_executed: sum(|s| s.schedules_executed),
            pruned_nonconflicting: sum(|s| s.pruned_nonconflicting),
            pruned_equivalent: sum(|s| s.pruned_equivalent),
            pruned_sleep_set: sum(|s| s.pruned_sleep_set),
            pruned_persistent: sum(|s| s.pruned_persistent),
        };
        (rows, side)
    };
    let (off_rows, off) = run(PruneLevel::Off);
    let (conflict_rows, conflict) = run(PruneLevel::Conflict);
    let (dpor_rows, dpor) = run(PruneLevel::Dpor);
    let diagnoses_identical = prune_digest(&off_rows) == prune_digest(&conflict_rows)
        && prune_digest(&conflict_rows) == prune_digest(&dpor_rows);
    let dpor_vs_conflict_reduction_percent = if conflict.schedules_executed > 0 {
        100.0
            * conflict
                .schedules_executed
                .saturating_sub(dpor.schedules_executed) as f64
            / conflict.schedules_executed as f64
    } else {
        0.0
    };
    let meets_prune_gate = diagnoses_identical && dpor_vs_conflict_reduction_percent >= 30.0;
    PruneBench {
        scale,
        off,
        conflict,
        dpor,
        dpor_vs_conflict_reduction_percent,
        diagnoses_identical,
        meets_prune_gate,
    }
}

/// One causality level's aggregate intervention counters over the Table 2
/// corpus.
#[derive(Clone, Debug, serde::Serialize)]
pub struct CausalityBenchSide {
    /// The causality level (plus `+verify` for the agreement audit side).
    pub level: String,
    /// Actual VM executions ([`aitia::ExecStats::runs`]) attributable to
    /// Causality Analysis: pool runs after LIFS handed over each failing
    /// run. Statically skipped flips never execute, so they are absent
    /// here.
    pub flip_vm_executions: u64,
    /// Schedules charged to the diagnosis statistics
    /// ([`aitia::causality::CaStats::schedules_executed`]).
    pub flip_schedules: usize,
    /// Flips the static prover discharged without execution.
    pub flips_skipped_static: usize,
    /// Flips submitted out of canonical order by the gain ranking.
    pub flips_reordered: usize,
    /// Serial simulated seconds avoided (static skips plus memo hits).
    pub sim_time_saved_s: f64,
}

/// Result of `report bench-causality`: the `--causality-level` A/B over
/// Table 2 (`BENCH_causality.json`).
///
/// Both levels must produce a bit-identical diagnosis — adaptivity changes
/// *which* and *how many* flips execute, never what the diagnosis says.
/// The third side re-runs adaptive in `verify_static` agreement mode:
/// every statically proved flip still executes and the run must agree
/// (failure manifested ⇒ Benign); any disagreement is a soundness bug and
/// fails the gate. The acceptance gate additionally asserts the adaptive
/// level pays at least 30% fewer flip VM executions than exhaustive.
#[derive(Clone, Debug, serde::Serialize)]
pub struct CausalityBench {
    /// Noise scale every side ran at.
    pub scale: f64,
    /// Flip every race (the paper's §3.4 procedure).
    pub exhaustive: CausalityBenchSide,
    /// Static benign proofs + information-gain ordering.
    pub adaptive: CausalityBenchSide,
    /// Adaptive with the agreement audit: proved flips still execute.
    pub verified: CausalityBenchSide,
    /// Agreement-audit failures across the verified side (must be 0).
    pub static_disagreements: usize,
    /// Percent of exhaustive's flip VM executions adaptive avoided.
    pub flip_execution_reduction_percent: f64,
    /// Whether chains, verdicts, failing schedules, trace lengths and LIFS
    /// counters are bit-identical across all three sides.
    pub diagnoses_identical: bool,
    /// The acceptance gate: `diagnoses_identical`, zero disagreements, and
    /// ≥ 30% flip-execution reduction.
    pub meets_causality_gate: bool,
}

/// Runs the `--causality-level` A/B over Table 2.
///
/// # Panics
///
/// Panics when a corpus bug fails to reproduce — every corpus bug must,
/// at every causality level.
#[must_use]
pub fn bench_causality(scale: f64) -> CausalityBench {
    use aitia::CausalityLevel;
    let run = |level: CausalityLevel, verify_static: bool| {
        let bugs = corpus::cves();
        // Each side builds its own programs and pools so the process-wide
        // memo table (keyed on program identity) never leaks flip results
        // across sides.
        let mut digests: Vec<String> = Vec::new();
        let mut side = CausalityBenchSide {
            level: format!("{level}{}", if verify_static { "+verify" } else { "" }),
            flip_vm_executions: 0,
            flip_schedules: 0,
            flips_skipped_static: 0,
            flips_reordered: 0,
            sim_time_saved_s: 0.0,
        };
        let mut disagreements = 0usize;
        for b in &bugs {
            let exec = Arc::new(Executor::with_config(ExecutorConfig {
                vms: 1,
                ..ExecutorConfig::default()
            }));
            let out =
                Lifs::with_executor(b.program_scaled(scale), b.lifs_config(), Arc::clone(&exec))
                    .search();
            let run = out
                .failing
                .unwrap_or_else(|| panic!("{} did not reproduce", b.id));
            // LIFS ran first on the same pool, so the delta in pool runs is
            // exactly the flip executions Causality Analysis paid for.
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
            side.flip_vm_executions += exec.stats().runs - lifs_runs;
            side.flip_schedules += result.stats.schedules_executed;
            side.flips_skipped_static += result.stats.flips_skipped_static;
            side.flips_reordered += result.stats.flips_reordered;
            side.sim_time_saved_s += result.stats.sim_time_saved_s;
            disagreements += result.stats.static_disagreements;
            let verdicts: Vec<aitia::Verdict> = result.tested.iter().map(|t| t.verdict).collect();
            digests.push(format!(
                "{} chain={} verdicts={:?} sched={:?} steps={} lifs={}",
                b.id,
                result.chain,
                verdicts,
                run.schedule,
                run.trace.len(),
                out.stats.schedules_executed,
            ));
        }
        (digests, side, disagreements)
    };
    let (ex_digests, exhaustive, _) = run(CausalityLevel::Exhaustive, false);
    let (ad_digests, adaptive, _) = run(CausalityLevel::Adaptive, false);
    let (ve_digests, verified, static_disagreements) = run(CausalityLevel::Adaptive, true);
    // The digest pins everything diagnosis-facing except CA schedule
    // counts, which the levels change by design; LIFS counters stay in so
    // the causality knob provably never perturbs the search.
    let diagnoses_identical = ex_digests == ad_digests && ad_digests == ve_digests;
    let flip_execution_reduction_percent = if exhaustive.flip_vm_executions > 0 {
        100.0
            * exhaustive
                .flip_vm_executions
                .saturating_sub(adaptive.flip_vm_executions) as f64
            / exhaustive.flip_vm_executions as f64
    } else {
        0.0
    };
    let meets_causality_gate = diagnoses_identical
        && static_disagreements == 0
        && flip_execution_reduction_percent >= 30.0;
    CausalityBench {
        scale,
        exhaustive,
        adaptive,
        verified,
        static_disagreements,
        flip_execution_reduction_percent,
        diagnoses_identical,
        meets_causality_gate,
    }
}

/// Runs the memoization A/B benchmark over Table 2.
///
/// The baseline must run before the memoized side: the memo table and the
/// snapshot forest are process-wide, so this function measures them cold.
/// (The baseline never consults either, so the order only matters for the
/// memoized side's hit counters, not for any diagnosis.)
#[must_use]
pub fn bench_memo(scale: f64) -> MemoBench {
    let passes = 2;
    let run = |memo: bool| {
        // One program per bug, shared across passes — the memo table keys
        // on program identity, exactly as a live re-diagnosis session
        // holds one `Arc<Program>` (each side still builds its own, so
        // sides never share memo entries).
        let bugs = corpus::cves();
        let progs: Vec<Arc<ksim::Program>> = bugs.iter().map(|b| b.program_scaled(scale)).collect();
        let mut all_rows = Vec::new();
        let mut vm_executions = 0;
        let mut memo_hits = 0;
        let mut forest_hits = 0;
        for _ in 0..passes {
            // Fresh pool per pass; single worker because hit counters are
            // racy across workers (two fingerprint-equal jobs in flight
            // race to insert first), so the benchmark pins vms to 1 for
            // reproducible numbers.
            let exec = Arc::new(Executor::with_config(ExecutorConfig {
                vms: 1,
                memo,
                ..ExecutorConfig::default()
            }));
            all_rows.push(
                bugs.iter()
                    .zip(&progs)
                    .map(|(b, p)| diagnose_program_on(b, Arc::clone(p), &exec))
                    .collect::<Vec<_>>(),
            );
            let stats = exec.stats();
            vm_executions += stats.runs;
            memo_hits += stats.memo_hits;
            forest_hits += stats.forest_hits;
        }
        let sim_time_saved_s = all_rows
            .iter()
            .flatten()
            .map(|r| r.lifs.sim_time_saved_s + r.result.stats.sim_time_saved_s)
            .sum();
        let schedules_executed = all_rows
            .iter()
            .flatten()
            .map(|r| r.lifs.schedules_executed + r.result.stats.schedules_executed)
            .sum();
        let side = MemoBenchSide {
            vm_executions,
            memo_hits,
            forest_hits,
            sim_time_saved_s,
            schedules_executed,
        };
        (all_rows, side)
    };
    // Baseline first: it never consults the process-wide table, so the
    // order only matters for the memoized side's counters, which this way
    // are measured from a cold table.
    let (base_rows, baseline) = run(false);
    let (memo_rows, memoized) = run(true);
    let diagnoses_identical = base_rows
        .iter()
        .zip(&memo_rows)
        .all(|(b, m)| diagnosis_digest(b) == diagnosis_digest(m));
    let vm_execution_reduction_percent = if baseline.vm_executions > 0 {
        100.0
            * baseline
                .vm_executions
                .saturating_sub(memoized.vm_executions) as f64
            / baseline.vm_executions as f64
    } else {
        0.0
    };
    MemoBench {
        scale,
        passes,
        baseline,
        memoized,
        vm_execution_reduction_percent,
        diagnoses_identical,
    }
}

/// One interruption point of the kill-and-resume benchmark.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ResumePoint {
    /// Where the campaign was "killed", as a percent of its journal.
    pub interrupted_at_percent: u32,
    /// Conclusive records the uninterrupted campaign journaled.
    pub journal_records_total: usize,
    /// Records surviving the simulated kill (the journal prefix replayed
    /// on resume).
    pub journal_records_kept: usize,
    /// VM executions the uninterrupted campaign paid.
    pub baseline_vm_executions: u64,
    /// VM executions the resumed campaign paid (journal replay answers the
    /// rest at zero cost).
    pub resumed_vm_executions: u64,
    /// Percent of the baseline's VM executions the resume avoided.
    pub vm_executions_saved_percent: f64,
    /// Whether the resumed diagnosis is bit-identical to the
    /// uninterrupted one (chain, verdicts, schedules, statistics).
    pub diagnosis_identical: bool,
}

/// Result of `report bench-resume`: VM executions saved by journal replay
/// when a campaign is killed at 25/50/75% progress and relaunched.
///
/// Each interruption point runs an uninterrupted journaled campaign,
/// truncates its journal at a record boundary to the given fraction
/// (exactly what a kill mid-campaign leaves behind, minus the torn tail
/// the journal would truncate anyway), then resumes with a
/// content-identical program in a fresh allocation — so the process-wide
/// memo table (keyed on `Arc` identity) cannot answer, and every saved
/// execution is attributable to the digest-keyed journal replay alone.
/// This is the honest single-process model of a process restart.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ResumeBench {
    /// Noise scale the campaigns ran at.
    pub scale: f64,
    /// The corpus bug diagnosed.
    pub bug_id: String,
    /// The 25/50/75% interruption points.
    pub points: Vec<ResumePoint>,
    /// The acceptance gate: the 50% interruption point saves at least 40%
    /// of the baseline's VM executions, and every point resumes to a
    /// bit-identical diagnosis.
    pub meets_resume_gate: bool,
}

/// Everything diagnosis-facing in one campaign diagnosis, as a comparable
/// string (the campaign-level analogue of [`diagnosis_digest`]).
fn campaign_digest(d: &Diagnosis) -> String {
    let verdicts: Vec<aitia::Verdict> = d.result.tested.iter().map(|t| t.verdict).collect();
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

/// Runs the kill-and-resume benchmark on a representative Table 2 bug.
#[must_use]
pub fn bench_resume(scale: f64) -> ResumeBench {
    let bugs = corpus::cves();
    let bug = bugs
        .iter()
        .find(|b| b.id == "CVE-2017-15649")
        .expect("15649 in corpus");
    let config = || ManagerConfig {
        vms: 1,
        lifs: bug.lifs_config(),
        ..ManagerConfig::default()
    };
    let mut points = Vec::new();
    for pct in [25u32, 50, 75] {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "aitia-bench-resume-{}-{pct}.wal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        // The uninterrupted campaign, journaled from cold.
        let baseline = Campaign::with_journal_path(config(), &path);
        let base_outcome = baseline.diagnose_program(bug.program_scaled(scale));
        let base_digest = base_outcome.diagnosis().map(campaign_digest);
        let baseline_vm_executions = baseline.manager().exec_stats().runs;
        // Simulate the kill: keep a prefix of the journal at a record
        // boundary.
        let journal_records_total = aitia::journal::record_count(&path).unwrap_or(0);
        let keep = journal_records_total * pct as usize / 100;
        let journal_records_kept = aitia::journal::truncate_at_record(&path, keep).unwrap_or(0);
        // The relaunched campaign: fresh program allocation, same journal.
        let resumed = Campaign::with_journal_path(config(), &path);
        let resumed_outcome = resumed.diagnose_program(bug.program_scaled(scale));
        let resumed_digest = resumed_outcome.diagnosis().map(campaign_digest);
        let resumed_vm_executions = resumed.manager().exec_stats().runs;
        let vm_executions_saved_percent = if baseline_vm_executions > 0 {
            100.0 * baseline_vm_executions.saturating_sub(resumed_vm_executions) as f64
                / baseline_vm_executions as f64
        } else {
            0.0
        };
        points.push(ResumePoint {
            interrupted_at_percent: pct,
            journal_records_total,
            journal_records_kept,
            baseline_vm_executions,
            resumed_vm_executions,
            vm_executions_saved_percent,
            diagnosis_identical: base_digest.is_some() && base_digest == resumed_digest,
        });
        let _ = std::fs::remove_file(&path);
    }
    let meets_resume_gate = points.iter().all(|p| p.diagnosis_identical)
        && points
            .iter()
            .find(|p| p.interrupted_at_percent == 50)
            .is_some_and(|p| p.vm_executions_saved_percent >= 40.0);
    ResumeBench {
        scale,
        bug_id: bug.id.to_string(),
        points,
        meets_resume_gate,
    }
}

/// Table 2: the ten CVE bugs.
#[must_use]
pub fn table2(scale: f64) -> Vec<BugOutcome> {
    table2_on(scale, &Arc::new(Executor::new(1)))
}

/// Table 2 diagnosed over a shared VM pool.
#[must_use]
pub fn table2_on(scale: f64, exec: &Arc<Executor>) -> Vec<BugOutcome> {
    table2_on_prune(scale, exec, None)
}

/// [`table2_on`] with an optional `--prune-level` override (`None` keeps
/// each bug's calibrated default).
#[must_use]
pub fn table2_on_prune(
    scale: f64,
    exec: &Arc<Executor>,
    prune: Option<aitia::lifs::PruneLevel>,
) -> Vec<BugOutcome> {
    table2_on_levels(scale, exec, prune, aitia::CausalityLevel::default())
}

/// [`table2_on_prune`] with an explicit `--causality-level`.
#[must_use]
pub fn table2_on_levels(
    scale: f64,
    exec: &Arc<Executor>,
    prune: Option<aitia::lifs::PruneLevel>,
    causality: aitia::CausalityLevel,
) -> Vec<BugOutcome> {
    corpus::cves()
        .iter()
        .map(|b| {
            diagnose_program_with_levels(
                b,
                b.program_scaled(scale),
                exec,
                prune.unwrap_or(b.lifs_config().prune),
                CausalityConfig {
                    level: causality,
                    ..CausalityConfig::default()
                },
            )
        })
        .collect()
}

/// Table 3: the twelve Syzkaller bugs.
#[must_use]
pub fn table3(scale: f64) -> Vec<BugOutcome> {
    table3_on(scale, &Arc::new(Executor::new(1)))
}

/// Table 3 diagnosed over a shared VM pool.
#[must_use]
pub fn table3_on(scale: f64, exec: &Arc<Executor>) -> Vec<BugOutcome> {
    table3_on_prune(scale, exec, None)
}

/// [`table3_on`] with an optional `--prune-level` override (`None` keeps
/// each bug's calibrated default).
#[must_use]
pub fn table3_on_prune(
    scale: f64,
    exec: &Arc<Executor>,
    prune: Option<aitia::lifs::PruneLevel>,
) -> Vec<BugOutcome> {
    table3_on_levels(scale, exec, prune, aitia::CausalityLevel::default())
}

/// [`table3_on_prune`] with an explicit `--causality-level`.
#[must_use]
pub fn table3_on_levels(
    scale: f64,
    exec: &Arc<Executor>,
    prune: Option<aitia::lifs::PruneLevel>,
    causality: aitia::CausalityLevel,
) -> Vec<BugOutcome> {
    corpus::syzkaller()
        .iter()
        .map(|b| {
            diagnose_program_with_levels(
                b,
                b.program_scaled(scale),
                exec,
                prune.unwrap_or(b.lifs_config().prune),
                CausalityConfig {
                    level: causality,
                    ..CausalityConfig::default()
                },
            )
        })
        .collect()
}

/// Renders a Table 2-shaped report (measured vs paper).
#[must_use]
pub fn render_table2(rows: &[BugOutcome], model: &CostModel) -> String {
    let mut s = String::new();
    s.push_str("Table 2 — CVEs caused by a concurrency failure in Linux (measured | paper)\n");
    s.push_str(&format!(
        "{:<18} {:<14} | {:>8} {:>8} {:>6} | {:>8} {:>8} | {:>8} {:>8} {:>6} {:>8} {:>8}\n",
        "Bug ID",
        "Subsystem",
        "LIFS(s)",
        "#sched",
        "Inter.",
        "CA(s)",
        "#sched",
        "pLIFS(s)",
        "p#sched",
        "pInt",
        "pCA(s)",
        "p#sched"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<18} {:<14} | {:>8.1} {:>8} {:>6} | {:>8.1} {:>8} | {:>8.1} {:>8} {:>6} {:>8.1} {:>8}\n",
            r.id,
            r.subsystem,
            r.lifs.sim.seconds(model),
            r.lifs.schedules_executed,
            r.lifs.interleaving_count,
            r.result.stats.sim.seconds(model),
            r.result.stats.schedules_executed,
            r.paper.lifs_time_s,
            r.paper.lifs_schedules,
            r.paper.interleavings,
            r.paper.ca_time_s,
            r.paper.ca_schedules,
        ));
    }
    s
}

/// Renders a Table 3-shaped report (measured vs paper).
#[must_use]
pub fn render_table3(rows: &[BugOutcome], model: &CostModel) -> String {
    let mut s = String::new();
    s.push_str("Table 3 — Syzkaller concurrency bugs (measured | paper)\n");
    s.push_str(&format!(
        "{:<5} {:<14} {:<26} {:<6} | {:>8} {:>7} {:>4} {:>8} {:>7} {:>6} | {:>8} {:>7} {:>4} {:>8} {:>7} {:>6}\n",
        "Bug",
        "Subsystem",
        "Bug type",
        "Multi?",
        "LIFS(s)",
        "#sched",
        "Int",
        "CA(s)",
        "#sched",
        "#chain",
        "pLIFS",
        "p#schd",
        "pInt",
        "pCA",
        "p#schd",
        "p#chn"
    ));
    for r in rows {
        let multi = match r.multi {
            MultiVar::No => "No",
            MultiVar::Tight => "Yes",
            MultiVar::Loose => "Yes*",
        };
        s.push_str(&format!(
            "{:<5} {:<14} {:<26} {:<6} | {:>8.1} {:>7} {:>4} {:>8.1} {:>7} {:>6} | {:>8.1} {:>7} {:>4} {:>8.1} {:>7} {:>6}\n",
            r.id,
            r.subsystem,
            r.bug_type,
            multi,
            r.lifs.sim.seconds(model),
            r.lifs.schedules_executed,
            r.lifs.interleaving_count,
            r.result.stats.sim.seconds(model),
            r.result.stats.schedules_executed,
            r.chain_races(),
            r.paper.lifs_time_s,
            r.paper.lifs_schedules,
            r.paper.interleavings,
            r.paper.ca_time_s,
            r.paper.ca_schedules,
            r.paper
                .chain_races
                .map_or("-".to_string(), |c| c.to_string()),
        ));
    }
    s
}

/// Conciseness aggregate (§5.2).
#[derive(Clone, Copy, Debug)]
pub struct ConcisenessSummary {
    /// Average memory-accessing instructions per failed execution.
    pub avg_mem: f64,
    /// Range of memory-accessing instructions.
    pub mem_range: (usize, usize),
    /// Average individual data races.
    pub avg_races: f64,
    /// Range of individual data races.
    pub race_range: (usize, usize),
    /// Average races in the chain.
    pub avg_chain: f64,
    /// Benign races found inside any chain (must be 0).
    pub benign_in_chains: usize,
}

/// Computes the §5.2 conciseness aggregate over outcomes.
#[must_use]
pub fn conciseness_summary(rows: &[BugOutcome]) -> ConcisenessSummary {
    let n = rows.len().max(1) as f64;
    let mems: Vec<usize> = rows.iter().map(|r| r.conciseness.mem_instrs).collect();
    let races: Vec<usize> = rows.iter().map(|r| r.conciseness.races_detected).collect();
    let chains: Vec<usize> = rows.iter().map(|r| r.conciseness.chain_races).collect();
    // A chain race is benign-in-chain when Causality Analysis judged it
    // benign yet it appears in the chain — impossible by construction, but
    // measured, not assumed.
    let benign_in_chains = rows
        .iter()
        .map(|r| {
            r.result
                .benign()
                .iter()
                .filter(|b| r.result.chain.contains(b.first.at, b.second.at()))
                .count()
        })
        .sum();
    ConcisenessSummary {
        avg_mem: mems.iter().sum::<usize>() as f64 / n,
        mem_range: (
            mems.iter().copied().min().unwrap_or(0),
            mems.iter().copied().max().unwrap_or(0),
        ),
        avg_races: races.iter().sum::<usize>() as f64 / n,
        race_range: (
            races.iter().copied().min().unwrap_or(0),
            races.iter().copied().max().unwrap_or(0),
        ),
        avg_chain: chains.iter().sum::<usize>() as f64 / n,
        benign_in_chains,
    }
}

/// Per-bug baseline comparison results (§5.3).
pub struct ComparisonRow {
    /// The bug.
    pub id: &'static str,
    /// Multi-variable classification.
    pub multi: MultiVar,
    /// AITIA's chain length (it diagnoses every bug).
    pub aitia_chain: usize,
    /// Whether Kairux's single inflection point covers the chain.
    pub kairux_covers: bool,
    /// Whether cooperative bug localization diagnoses the bug (single
    /// variable and top pattern on it).
    pub coop_diagnoses: bool,
    /// Whether MUVI's correlation assumption holds (`None` for
    /// single-variable bugs, which MUVI does not reason about).
    pub muvi_explains: Option<bool>,
    /// Naive replay classification agreement with Causality Analysis
    /// (fraction of races classified identically).
    pub replay_agreement: f64,
}

/// Runs the §5.3 baseline comparison over Table 3's bugs.
#[must_use]
pub fn comparison(scale: f64, samples: usize) -> Vec<ComparisonRow> {
    use baselines::sampler::{
        sample_runs,
        sample_runs_guided,
        split,
        SamplerConfig, //
    };
    let mut out = Vec::new();
    for bug in corpus::syzkaller() {
        let outcome = diagnose_bug(&bug, scale);
        let prog = bug.program_scaled(scale);
        // Blind random runs plus failure-guided runs (the production site
        // that keeps hitting the interleaving — the setting cooperative
        // localization assumes).
        let mut all = sample_runs(
            &prog,
            samples / 2,
            bug.paper.lifs_schedules as u64,
            &SamplerConfig::default(),
        );
        all.extend(sample_runs_guided(
            &prog,
            &outcome.run.schedule,
            samples / 2,
            bug.paper.ca_schedules as u64,
            &SamplerConfig::default(),
        ));
        let (failing, passing) = split(all);
        // Kairux.
        let kairux_covers = baselines::inflection_point(&outcome.run.trace, &passing)
            .map(|p| baselines::kairux::covers_chain(&p, &outcome.result.chain))
            .unwrap_or(false);
        // Cooperative bug localization.
        let ranked = baselines::localize(&failing, &passing);
        let chain_vars: Vec<ksim::Addr> = outcome
            .result
            .root_causes
            .iter()
            .map(|r| r.first.addr)
            .collect();
        let coop_diagnoses = baselines::coop::diagnoses(
            &ranked,
            &outcome.result.chain,
            &chain_vars,
            !bug.multi_variable.is_multi(),
        );
        // MUVI.
        let muvi_explains = if bug.multi_variable.is_multi() {
            let profile = corpus::profile_program(&bug, NoiseSpec::silent());
            let profile_samples = sample_runs(&profile, 30, 99, &SamplerConfig::default());
            let corr = baselines::correlations(&profile_samples, baselines::WINDOW);
            let vars: Vec<ksim::Addr> = bug
                .racing_vars
                .iter()
                .filter_map(|v| {
                    profile
                        .globals
                        .iter()
                        .position(|g| g.name == *v)
                        .map(|i| ksim::GlobalId(i as u32).addr())
                })
                .collect();
            let all_flagged = vars.len() >= 2
                && vars.iter().enumerate().all(|(i, &x)| {
                    vars.iter()
                        .skip(i + 1)
                        .all(|&y| baselines::flags_pair(&corr, x, y, baselines::THRESHOLD))
                });
            Some(all_flagged)
        } else {
            None
        };
        // Replay classification agreement.
        let replay = baselines::classify_all(&outcome.run);
        let agree = replay
            .iter()
            .filter(|(race, v)| {
                let truth = outcome
                    .result
                    .tested
                    .iter()
                    .find(|t| t.race.key() == race.key())
                    .map(|t| t.verdict);
                matches!(
                    (v, truth),
                    (
                        baselines::ReplayVerdict::Harmful,
                        Some(aitia::Verdict::Causal)
                    ) | (
                        baselines::ReplayVerdict::Benign,
                        Some(aitia::Verdict::Benign)
                    )
                )
            })
            .count();
        let replay_agreement = agree as f64 / replay.len().max(1) as f64;
        out.push(ComparisonRow {
            id: bug.id,
            multi: bug.multi_variable,
            aitia_chain: outcome.chain_races(),
            kairux_covers,
            coop_diagnoses,
            muvi_explains,
            replay_agreement,
        });
    }
    out
}

/// Renders the §5.3 comparison and the derived Table 1 matrix.
#[must_use]
pub fn render_comparison(rows: &[ComparisonRow]) -> String {
    let mut s = String::new();
    s.push_str("§5.3 — baseline comparison over Table 3 bugs\n");
    s.push_str(&format!(
        "{:<5} {:<6} {:>6} {:>8} {:>6} {:>6} {:>8}\n",
        "Bug", "Multi?", "AITIA", "Kairux", "Coop", "MUVI", "Replay"
    ));
    for r in rows {
        let multi = match r.multi {
            MultiVar::No => "No",
            MultiVar::Tight => "Yes",
            MultiVar::Loose => "Yes*",
        };
        s.push_str(&format!(
            "{:<5} {:<6} {:>6} {:>8} {:>6} {:>6} {:>7.0}%\n",
            r.id,
            multi,
            format!("{} races", r.aitia_chain),
            if r.kairux_covers { "covers" } else { "-" },
            if r.coop_diagnoses { "yes" } else { "-" },
            r.muvi_explains
                .map_or("n/a".to_string(), |b| if b { "yes" } else { "-" }
                    .to_string()),
            r.replay_agreement * 100.0,
        ));
    }
    let aitia_all = rows.iter().all(|r| r.aitia_chain >= 1);
    let kairux_n = rows.iter().filter(|r| r.kairux_covers).count();
    let coop_n = rows.iter().filter(|r| r.coop_diagnoses).count();
    let muvi_n = rows
        .iter()
        .filter(|r| r.muvi_explains == Some(true))
        .count();
    s.push_str(&format!(
        "\nAITIA diagnoses {} / {} bugs; Kairux covers {}, cooperative localization {}, MUVI {}.\n",
        if aitia_all { rows.len() } else { 0 },
        rows.len(),
        kairux_n,
        coop_n,
        muvi_n
    ));
    s.push_str("\nTable 1 — requirements matrix (measured behaviour → mark; paper's marks in parentheses)\n");
    s.push_str(&format!(
        "{:<26} {:>16} {:>18} {:>12}\n",
        "Tool", "Comprehensive", "Pattern-agnostic", "Concise"
    ));
    s.push_str(&format!(
        "{:<26} {:>16} {:>18} {:>12}\n",
        "AITIA",
        if aitia_all { "yes (✓)" } else { "NO (✓)" },
        if aitia_all { "yes (✓)" } else { "NO (✓)" },
        "yes (✓)"
    ));
    s.push_str(&format!(
        "{:<26} {:>16} {:>18} {:>12}\n",
        "Kairux",
        format!("{kairux_n}/12 (-)"),
        "yes (✓)",
        "yes (✓)"
    ));
    s.push_str(&format!(
        "{:<26} {:>16} {:>18} {:>12}\n",
        "MUVI",
        "partial (△)",
        format!("{muvi_n}/12 (-)"),
        "yes (✓)"
    ));
    s.push_str(&format!(
        "{:<26} {:>16} {:>18} {:>12}\n",
        "Coop. (Snorlax/Gist/CCI)",
        "partial (△)",
        format!("{coop_n}/12 (-)"),
        "yes (✓)"
    ));
    s.push_str(&format!(
        "{:<26} {:>16} {:>18} {:>12}\n",
        "Reproduction (REPT/RR)", "yes (✓)", "yes (✓)", "NO (-)"
    ));
    s
}

/// Ablation results for one configuration toggle.
pub struct Ablation {
    /// Name of the toggle.
    pub name: &'static str,
    /// Schedules with the paper's design.
    pub with: usize,
    /// Schedules with the toggle disabled.
    pub without: usize,
    /// Whether both configurations succeeded.
    pub both_succeed: bool,
}

/// Design-choice ablations over a representative bug subset.
#[must_use]
pub fn ablations(scale: f64) -> Vec<Ablation> {
    let bugs = corpus::cves();
    let sample: Vec<&BugModel> = bugs
        .iter()
        .filter(|b| ["CVE-2017-15649", "CVE-2019-11486", "CVE-2017-2671"].contains(&b.id))
        .collect();
    let mut out = Vec::new();
    // LIFS partial-order reduction on/off.
    let mut with = 0;
    let mut without = 0;
    let mut ok = true;
    for bug in &sample {
        let prog = bug.program_scaled(scale);
        let mut cfg = bug.lifs_config();
        cfg.prune = aitia::lifs::PruneLevel::Conflict;
        let a = Lifs::new(Arc::clone(&prog), cfg.clone()).search();
        cfg.prune = aitia::lifs::PruneLevel::Off;
        let b = Lifs::new(prog, cfg).search();
        with += a.stats.schedules_executed;
        without += b.stats.schedules_executed;
        ok &= a.failing.is_some() && b.failing.is_some();
    }
    out.push(Ablation {
        name: "LIFS partial-order reduction",
        with,
        without,
        both_succeed: ok,
    });
    // Causality Analysis backward vs forward testing.
    let mut with = 0;
    let mut without = 0;
    let mut ok = true;
    for bug in &sample {
        let prog = bug.program_scaled(scale);
        let run = Lifs::new(prog, bug.lifs_config())
            .search()
            .failing
            .expect("reproduces");
        let a = CausalityAnalysis::new(CausalityConfig {
            backward: true,
            ..CausalityConfig::default()
        })
        .analyze(&run);
        let b = CausalityAnalysis::new(CausalityConfig {
            backward: false,
            ..CausalityConfig::default()
        })
        .analyze(&run);
        with += a.stats.schedules_executed;
        without += b.stats.schedules_executed;
        ok &= a.chain.race_count() >= 1 && b.chain.race_count() >= 1;
    }
    out.push(Ablation {
        name: "Causality Analysis backward testing",
        with,
        without,
        both_succeed: ok,
    });
    // Critical sections as flip units on/off — measured on the lock-bound
    // scenario (`corpus::figures::locked_cs_scenario`): without the §3.4
    // rule the flip suspends a thread inside its critical section, the
    // peer blocks on the lock, and only forced resumes (which break the
    // flip) let the run continue. The metric is the chain length each
    // configuration recovers.
    {
        let prog = Arc::new(corpus::figures::locked_cs_scenario());
        let run = Lifs::new(Arc::clone(&prog), aitia::lifs::LifsConfig::default())
            .search()
            .failing
            .expect("locked scenario reproduces");
        let a = CausalityAnalysis::new(CausalityConfig {
            cs_as_unit: true,
            ..CausalityConfig::default()
        })
        .analyze(&run);
        let b = CausalityAnalysis::new(CausalityConfig {
            cs_as_unit: false,
            ..CausalityConfig::default()
        })
        .analyze(&run);
        out.push(Ablation {
            name: "critical-section flips (chain races recovered)",
            with: a.chain.race_count(),
            without: b.chain.race_count(),
            both_succeed: a.chain.race_count() >= b.chain.race_count(),
        });
    }
    out
}

/// Renders the ablation table.
#[must_use]
pub fn render_ablations(rows: &[Ablation]) -> String {
    let mut s = String::new();
    s.push_str("Ablations — schedules executed with / without each design choice\n");
    for a in rows {
        s.push_str(&format!(
            "  {:<40} with: {:>7}  without: {:>7}  (both succeed: {})\n",
            a.name, a.with, a.without, a.both_succeed
        ));
    }
    s
}

// ---------------------------------------------------------------------------
// Generated corpus — differential fuzzing over the executor config matrix.

/// One executor configuration in the differential fuzz matrix.
#[derive(Clone, Copy, Debug)]
pub struct MatrixCell {
    /// LIFS prune level.
    pub prune: aitia::lifs::PruneLevel,
    /// Causality Analysis intervention level.
    pub causality: aitia::CausalityLevel,
    /// Cross-run memoization + shared snapshot forest on/off.
    pub memo: bool,
    /// Worker count.
    pub vms: usize,
}

impl MatrixCell {
    /// Short label, e.g. `dpor/memo/8vm/adaptive`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{:?}/{}/{}vm/{}",
            self.prune,
            if self.memo { "memo" } else { "nomemo" },
            self.vms,
            self.causality
        )
        .to_lowercase()
    }

    /// A fresh pool configured for this cell.
    #[must_use]
    pub fn executor(&self) -> Arc<Executor> {
        Arc::new(Executor::with_config(ExecutorConfig {
            vms: self.vms,
            memo: self.memo,
            ..ExecutorConfig::default()
        }))
    }
}

/// The full differential matrix: prune {off, conflict, dpor} × memo
/// {on, off} × workers {1, 2, 8} at the exhaustive causality level — 18
/// cells — plus an adaptive-causality axis: prune {off, conflict, dpor} ×
/// workers {1, 8} with memo on — 6 more cells. Cell 0
/// (off/memo/1vm/exhaustive) is the reference the recall gate is measured
/// on; the first adaptive cell is the reference for the adaptive recall
/// gate.
#[must_use]
pub fn corpus_matrix() -> Vec<MatrixCell> {
    use aitia::lifs::PruneLevel;
    let mut cells = Vec::new();
    for prune in [PruneLevel::Off, PruneLevel::Conflict, PruneLevel::Dpor] {
        for memo in [true, false] {
            for vms in [1usize, 2, 8] {
                cells.push(MatrixCell {
                    prune,
                    causality: aitia::CausalityLevel::Exhaustive,
                    memo,
                    vms,
                });
            }
        }
    }
    for prune in [PruneLevel::Off, PruneLevel::Conflict, PruneLevel::Dpor] {
        for vms in [1usize, 8] {
            cells.push(MatrixCell {
                prune,
                causality: aitia::CausalityLevel::Adaptive,
                memo: true,
                vms,
            });
        }
    }
    cells
}

/// Diagnoses a generated bug on one pool at one prune level and one
/// causality level. `None` means the planted failure did not reproduce — a
/// generator or substrate bug the caller records rather than panics on
/// (unlike the hand-built corpus, generated programs are hostile input by
/// design).
#[must_use]
pub fn diagnose_generated(
    bug: &corpus::generate::GeneratedBug,
    exec: &Arc<Executor>,
    prune: aitia::lifs::PruneLevel,
    causality: aitia::CausalityLevel,
) -> Option<(FailingRun, CausalityResult)> {
    let cfg = aitia::lifs::LifsConfig {
        prune,
        ..bug.lifs_config()
    };
    let out = Lifs::with_executor(Arc::clone(&bug.program), cfg, Arc::clone(exec)).search();
    let run = out.failing?;
    let result = CausalityAnalysis::with_executor(
        CausalityConfig {
            level: causality,
            ..CausalityConfig::default()
        },
        Arc::clone(exec),
    )
    .analyze(&run);
    Some((run, result))
}

/// The diagnosis digest one cell must agree on: the same fields as the
/// prune-ablation digest (failing schedule, trace length, chain, verdicts,
/// Causality Analysis schedule count — everything except LIFS search
/// counters, which the prune axis changes by design), or the distinguished
/// string `no-repro` so cells must also agree on *not* reproducing. Cells
/// at the same causality level must agree on this digest bit-for-bit.
#[must_use]
pub fn generated_digest(name: &str, outcome: Option<&(FailingRun, CausalityResult)>) -> String {
    match outcome {
        None => format!("{name} no-repro"),
        Some((_, result)) => {
            format!(
                "{} ca={}",
                generated_digest_base(name, outcome),
                result.stats.schedules_executed,
            )
        }
    }
}

/// [`generated_digest`] minus the Causality Analysis schedule count — the
/// cross-causality-level digest. Adaptive skips statically proved flips,
/// so its schedule count is lower by design, but everything the diagnosis
/// *says* (chain, verdicts, failing schedule, trace length) must be
/// bit-identical to the exhaustive level.
#[must_use]
pub fn generated_digest_base(
    name: &str,
    outcome: Option<&(FailingRun, CausalityResult)>,
) -> String {
    match outcome {
        None => format!("{name} no-repro"),
        Some((run, result)) => {
            let verdicts: Vec<aitia::Verdict> = result.tested.iter().map(|t| t.verdict).collect();
            format!(
                "{} chain={} verdicts={:?} sched={:?} steps={}",
                name,
                result.chain,
                verdicts,
                run.schedule,
                run.trace.len(),
            )
        }
    }
}

/// The shrunk reproducer knobs for one divergence.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ShrunkConfig {
    /// The generator seed (the program's identity).
    pub seed: u64,
    /// Shrunk noise scale.
    pub noise_scale: f64,
    /// Shrunk filler budget.
    pub max_filler: usize,
}

impl From<corpus::generate::GenConfig> for ShrunkConfig {
    fn from(c: corpus::generate::GenConfig) -> Self {
        ShrunkConfig {
            seed: c.seed,
            noise_scale: c.noise_scale,
            max_filler: c.max_filler,
        }
    }
}

/// One confirmed divergence: a seed where the matrix disagreed on the
/// diagnosis digest, or where the reference cell's root-cause chain missed
/// the planted race.
#[derive(Clone, Debug, serde::Serialize)]
pub struct CorpusDivergence {
    /// The generator seed.
    pub seed: u64,
    /// Generated program name.
    pub name: String,
    /// Structural family tag.
    pub family: String,
    /// `digest-mismatch` or `recall-miss`.
    pub kind: String,
    /// For mismatches: the first disagreeing cell's label.
    pub cell: Option<String>,
    /// That cell's digest (mismatches only).
    pub digest: Option<String>,
    /// The reference cell's digest.
    pub reference_digest: String,
    /// The smallest same-seed generator config still showing the
    /// divergence.
    pub shrunk: ShrunkConfig,
    /// Where the reproducer JSON was written, if a directory was given.
    pub reproducer_path: Option<String>,
}

/// Seeds-per-family count in the fuzz report.
#[derive(Clone, Debug, serde::Serialize)]
pub struct FamilyCount {
    /// Structural family tag.
    pub family: String,
    /// Seeds that drew this family.
    pub seeds: usize,
}

/// Aggregate result of one differential fuzz run (`report fuzz`).
#[derive(Clone, Debug, serde::Serialize)]
pub struct CorpusBench {
    /// First seed fuzzed.
    pub seed_start: u64,
    /// Number of consecutive seeds fuzzed.
    pub seeds: usize,
    /// Matrix width (executor configurations per seed).
    pub cells: usize,
    /// Seeds per structural family.
    pub families: Vec<FamilyCount>,
    /// Seeds whose planted failure reproduced on the reference cell.
    pub reproduced: usize,
    /// Seeds whose root-cause chain contained a planted racing pair.
    pub recall_hits: usize,
    /// `recall_hits / seeds`.
    pub recall: f64,
    /// Seeds whose adaptive-reference chain contained a planted racing
    /// pair.
    pub adaptive_recall_hits: usize,
    /// `adaptive_recall_hits / seeds`.
    pub adaptive_recall: f64,
    /// Seeds on which every cell produced a bit-identical digest.
    pub digest_agreements: usize,
    /// Every confirmed divergence, shrunk.
    pub divergences: Vec<CorpusDivergence>,
    /// No digest mismatch anywhere in the matrix.
    pub meets_agreement_gate: bool,
    /// Planted-race recall at least 95%.
    pub meets_recall_gate: bool,
    /// Planted-race recall at least 95% under adaptive causality too.
    pub meets_adaptive_recall_gate: bool,
    /// All three gates.
    pub meets_corpus_gate: bool,
}

/// One seed's outcomes across the matrix: per-cell digests plus the
/// reference cells' diagnoses for the recall checks.
struct FuzzOutcomes {
    /// Per-cell same-level digests (with the CA schedule count).
    full: Vec<String>,
    /// Per-cell cross-level digests (without it).
    base: Vec<String>,
    /// Cell 0's (exhaustive reference) diagnosis.
    reference: Option<(FailingRun, CausalityResult)>,
    /// The first adaptive cell's diagnosis.
    adaptive: Option<(FailingRun, CausalityResult)>,
}

/// Runs one seed's program through every cell.
fn fuzz_one(
    bug: &corpus::generate::GeneratedBug,
    cells: &[MatrixCell],
    execs: &[Arc<Executor>],
) -> FuzzOutcomes {
    let mut out = FuzzOutcomes {
        full: Vec::with_capacity(cells.len()),
        base: Vec::with_capacity(cells.len()),
        reference: None,
        adaptive: None,
    };
    let first_adaptive = cells
        .iter()
        .position(|c| c.causality == aitia::CausalityLevel::Adaptive);
    for (i, (cell, exec)) in cells.iter().zip(execs).enumerate() {
        let outcome = diagnose_generated(bug, exec, cell.prune, cell.causality);
        out.full.push(generated_digest(&bug.name, outcome.as_ref()));
        out.base
            .push(generated_digest_base(&bug.name, outcome.as_ref()));
        if i == 0 {
            out.reference = outcome;
        } else if Some(i) == first_adaptive {
            out.adaptive = outcome;
        }
    }
    out
}

/// The first cell disagreeing with its reference: the cross-level digest
/// must agree across the entire matrix, and the full digest (which pins
/// the CA schedule count) across every cell of the same causality level.
fn fuzz_mismatch(cells: &[MatrixCell], out: &FuzzOutcomes) -> Option<usize> {
    let mut level_ref: Vec<(aitia::CausalityLevel, usize)> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        if out.base[i] != out.base[0] {
            return Some(i);
        }
        match level_ref.iter().find(|(l, _)| *l == cell.causality) {
            Some(&(_, r)) => {
                if out.full[i] != out.full[r] {
                    return Some(i);
                }
            }
            None => level_ref.push((cell.causality, i)),
        }
    }
    None
}

/// Differential fuzz over `seeds` consecutive generated programs starting
/// at `seed_start`: every program runs through the full executor matrix
/// (18 exhaustive cells and the adaptive-causality axis); cross-level
/// digests must agree bit-for-bit, same-level digests must also agree on
/// CA schedule counts, and both reference cells' chains must contain a
/// planted racing pair. Divergences are shrunk (same seed, simpler
/// noise/filler knobs) and, when `repro_dir` is given, written as JSON
/// reproducers.
#[must_use]
pub fn bench_corpus(seed_start: u64, seeds: usize, repro_dir: Option<&str>) -> CorpusBench {
    use corpus::generate::{generate, generate_with, GenConfig};

    let cells = corpus_matrix();
    let execs: Vec<Arc<Executor>> = cells.iter().map(MatrixCell::executor).collect();
    let mut families: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    let mut reproduced = 0usize;
    let mut recall_hits = 0usize;
    let mut adaptive_recall_hits = 0usize;
    let mut digest_agreements = 0usize;
    let mut divergences: Vec<CorpusDivergence> = Vec::new();

    for seed in seed_start..seed_start + seeds as u64 {
        let bug = generate(seed);
        *families.entry(bug.family.tag().to_string()).or_insert(0) += 1;
        let outcomes = fuzz_one(&bug, &cells, &execs);
        let mismatch = fuzz_mismatch(&cells, &outcomes);
        if mismatch.is_none() {
            digest_agreements += 1;
        }
        if outcomes.reference.is_some() {
            reproduced += 1;
        }
        let recalled = outcomes
            .reference
            .as_ref()
            .is_some_and(|(_, result)| bug.planted_in_chain(&result.chain));
        if recalled {
            recall_hits += 1;
        }
        if outcomes
            .adaptive
            .as_ref()
            .is_some_and(|(_, result)| bug.planted_in_chain(&result.chain))
        {
            adaptive_recall_hits += 1;
        }

        if let Some(cell_idx) = mismatch {
            // Shrink while the matrix still disagrees anywhere.
            let shrunk = corpus::generate::shrink(&bug.config, |c: &GenConfig| {
                let candidate = generate_with(*c);
                let out = fuzz_one(&candidate, &cells, &execs);
                fuzz_mismatch(&cells, &out).is_some()
            });
            divergences.push(CorpusDivergence {
                seed,
                name: bug.name.clone(),
                family: bug.family.tag().to_string(),
                kind: "digest-mismatch".to_string(),
                cell: Some(cells[cell_idx].label()),
                digest: Some(outcomes.full[cell_idx].clone()),
                reference_digest: outcomes.full[0].clone(),
                shrunk: shrunk.into(),
                reproducer_path: None,
            });
        } else if !recalled {
            // Shrink while the reference cell still misses the planted
            // race (or fails to reproduce at all).
            let shrunk = corpus::generate::shrink(&bug.config, |c: &GenConfig| {
                let candidate = generate_with(*c);
                let outcome =
                    diagnose_generated(&candidate, &execs[0], cells[0].prune, cells[0].causality);
                !outcome
                    .as_ref()
                    .is_some_and(|(_, result)| candidate.planted_in_chain(&result.chain))
            });
            divergences.push(CorpusDivergence {
                seed,
                name: bug.name.clone(),
                family: bug.family.tag().to_string(),
                kind: "recall-miss".to_string(),
                cell: None,
                digest: None,
                reference_digest: outcomes.full[0].clone(),
                shrunk: shrunk.into(),
                reproducer_path: None,
            });
        }
    }

    if let Some(dir) = repro_dir {
        if !divergences.is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("fuzz: cannot create reproducer dir {dir} ({e}); skipping files");
            } else {
                for d in &mut divergences {
                    let path = format!("{dir}/seed-{}-{}.json", d.seed, d.kind);
                    match std::fs::write(
                        &path,
                        serde_json::to_string_pretty(&*d).expect("divergence serializes"),
                    ) {
                        Ok(()) => d.reproducer_path = Some(path),
                        Err(e) => eprintln!("fuzz: cannot write {path} ({e})"),
                    }
                }
            }
        }
    }

    let mismatches = divergences
        .iter()
        .filter(|d| d.kind == "digest-mismatch")
        .count();
    let recall = if seeds == 0 {
        1.0
    } else {
        recall_hits as f64 / seeds as f64
    };
    let adaptive_recall = if seeds == 0 {
        1.0
    } else {
        adaptive_recall_hits as f64 / seeds as f64
    };
    let meets_agreement_gate = mismatches == 0;
    let meets_recall_gate = recall >= 0.95;
    let meets_adaptive_recall_gate = adaptive_recall >= 0.95;
    CorpusBench {
        seed_start,
        seeds,
        cells: cells.len(),
        families: families
            .into_iter()
            .map(|(family, seeds)| FamilyCount { family, seeds })
            .collect(),
        reproduced,
        recall_hits,
        recall,
        adaptive_recall_hits,
        adaptive_recall,
        digest_agreements,
        divergences,
        meets_agreement_gate,
        meets_recall_gate,
        meets_adaptive_recall_gate,
        meets_corpus_gate: meets_agreement_gate && meets_recall_gate && meets_adaptive_recall_gate,
    }
}

/// Resolves `campaignd` job payloads against the bug corpus.
///
/// Two payload grammars are accepted:
///
/// * `cve:<bug-id>:<scale>` — a hand-built corpus bug (CVE id or
///   Syzkaller `#n`) at a benign-noise scale, e.g.
///   `cve:CVE-2017-15649:0.05`;
/// * `gen:<seed>[:<noise>[:<filler>]]` — a generated bug from
///   [`corpus::generate`], optionally overriding the noise scale and
///   filler bound, e.g. `gen:42` or `gen:42:0.5:1`.
///
/// Anything else is a resolver error, which the server counts as a
/// supervisor fault (and eventually dead-letters).
#[derive(Clone, Copy, Debug, Default)]
pub struct CorpusJobResolver {
    /// Deterministic VM fault injection applied to every resolved job
    /// (`None` disables). Faults only cost simulated retry time — the
    /// diagnosis itself is fault-invariant.
    pub fault: Option<aitia::FaultInjection>,
}

impl aitia::server::JobResolver for CorpusJobResolver {
    fn resolve(&self, payload: &str) -> Result<aitia::server::ResolvedJob, String> {
        let mut parts = payload.split(':');
        let kind = parts.next().unwrap_or_default();
        match kind {
            "cve" => {
                let id = parts
                    .next()
                    .ok_or_else(|| format!("payload {payload:?}: missing bug id"))?;
                let scale: f64 = parts
                    .next()
                    .ok_or_else(|| format!("payload {payload:?}: missing scale"))?
                    .parse()
                    .map_err(|e| format!("payload {payload:?}: bad scale ({e})"))?;
                if !(scale.is_finite() && scale > 0.0) {
                    return Err(format!(
                        "payload {payload:?}: scale must be finite and positive"
                    ));
                }
                let bug = corpus::all_bugs()
                    .into_iter()
                    .find(|b| b.id == id)
                    .ok_or_else(|| format!("payload {payload:?}: unknown bug {id:?}"))?;
                Ok(aitia::server::ResolvedJob {
                    program: bug.program_scaled(scale),
                    lifs: bug.lifs_config(),
                    causality: CausalityConfig::default(),
                    fault: self.fault,
                })
            }
            "gen" => {
                let seed: u64 = parts
                    .next()
                    .ok_or_else(|| format!("payload {payload:?}: missing seed"))?
                    .parse()
                    .map_err(|e| format!("payload {payload:?}: bad seed ({e})"))?;
                let mut config = corpus::generate::GenConfig::new(seed);
                if let Some(noise) = parts.next() {
                    config.noise_scale = noise
                        .parse()
                        .map_err(|e| format!("payload {payload:?}: bad noise ({e})"))?;
                }
                if let Some(filler) = parts.next() {
                    config.max_filler = filler
                        .parse()
                        .map_err(|e| format!("payload {payload:?}: bad filler ({e})"))?;
                }
                let bug = corpus::generate::generate_with(config);
                Ok(aitia::server::ResolvedJob {
                    program: Arc::clone(&bug.program),
                    lifs: bug.lifs_config(),
                    causality: CausalityConfig::default(),
                    fault: self.fault,
                })
            }
            _ => Err(format!(
                "payload {payload:?}: expected cve:<bug-id>:<scale> or \
                 gen:<seed>[:<noise>[:<filler>]]"
            )),
        }
    }
}

/// One side of the server benchmark: the Table 2 corpus streamed through
/// a `campaignd` instance at one concurrency setting.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ServerBenchSide {
    /// Human label (`serial` or `concurrent-8`).
    pub label: String,
    /// Concurrent campaigns (worker threads) on this side.
    pub max_inflight: usize,
    /// Campaigns run.
    pub campaigns: usize,
    /// Per-job diagnosis digests, in submission order.
    pub digests: Vec<String>,
    /// Simulated makespan of the whole batch on the default
    /// [`CostModel`] (campaigns list-scheduled onto `max_inflight`
    /// lanes), in seconds.
    pub sim_makespan_s: f64,
    /// Campaigns per simulated hour.
    pub campaigns_per_hour: f64,
    /// Median simulated queue latency (submit → admission), seconds.
    pub queue_latency_p50_s: f64,
    /// 95th-percentile simulated queue latency, seconds.
    pub queue_latency_p95_s: f64,
    /// The server's counter snapshot after the drain.
    pub stats: aitia::ServerStats,
}

/// The `campaignd` throughput benchmark: serial submission (one campaign
/// at a time, each holding the whole 8-VM pool) against 8 concurrent
/// fair-shared campaigns, over the Table 2 corpus.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ServerBench {
    /// Benign-noise scale the corpus ran at.
    pub scale: f64,
    /// VM slots in each side's pool.
    pub total_vms: usize,
    /// The serial side (`max_inflight = 1`).
    pub serial: ServerBenchSide,
    /// The concurrent side (`max_inflight = 8`).
    pub concurrent: ServerBenchSide,
    /// Whether both sides produced bit-identical per-job digests.
    pub diagnoses_identical: bool,
    /// Serial makespan over concurrent makespan.
    pub campaigns_per_hour_speedup: f64,
    /// `diagnoses_identical` and speedup ≥ 1.5.
    pub meets_server_gate: bool,
}

/// List-schedules per-campaign simulated durations (submission order)
/// onto `lanes` identical lanes: returns the batch makespan and each
/// campaign's queue latency (simulated time from submission-at-zero to
/// admission).
fn server_timeline(durations_s: &[f64], lanes: usize) -> (f64, Vec<f64>) {
    let lanes = lanes.max(1);
    let mut lane_end = vec![0.0f64; lanes];
    let mut latencies = Vec::with_capacity(durations_s.len());
    for &d in durations_s {
        let lane = lane_end
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map_or(0, |(i, _)| i);
        latencies.push(lane_end[lane]);
        lane_end[lane] += d;
    }
    let makespan = lane_end.iter().copied().fold(0.0f64, f64::max);
    (makespan, latencies)
}

/// The `p`-th percentile (0..=100) of `values` by nearest-rank.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Runs the `campaignd` throughput benchmark: the Table 2 corpus as
/// `cve:<id>:<scale>` payloads through two fresh server instances —
/// serial (`max_inflight` 1: each campaign holds all 8 VM slots, so small
/// schedule batches leave most of the pool idle) and concurrent
/// (`max_inflight` 8: eight width-1 campaigns run side by side at full
/// pool utilization). Throughput and queue latency are computed on the
/// deterministic simulated clock ([`aitia::ExecStats::sim_makespan_ns`]
/// per campaign, campaigns list-scheduled onto lanes), so the result is
/// bit-stable on any host. The gate demands bit-identical per-job
/// digests and a ≥ 1.5× campaigns-per-hour speedup.
///
/// # Panics
///
/// Panics when a scratch server directory cannot be created — the bench
/// requires a writable temp dir.
#[must_use]
pub fn bench_server(scale: f64) -> ServerBench {
    let total_vms = 8usize;
    // Three scale steps per bug: a realistic stream re-diagnoses the same
    // corpus at several noise levels, and 30 campaigns amortize the
    // longest single campaign across the concurrent side's lanes (with
    // only 10, one long width-1 campaign floors the 8-lane makespan).
    let payloads: Vec<String> = corpus::cves()
        .iter()
        .flat_map(|b| {
            [1.0, 0.5, 0.25]
                .iter()
                .map(|m| format!("cve:{}:{}", b.id, scale * m))
                .collect::<Vec<_>>()
        })
        .collect();
    let side = |label: &str, max_inflight: usize| -> ServerBenchSide {
        let mut dir = std::env::temp_dir();
        dir.push(format!("aitia-bench-server-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = aitia::ServerConfig {
            max_inflight,
            total_vms,
            drain: true,
            poll_ms: 5,
            ..aitia::ServerConfig::at(&dir)
        };
        let server = aitia::CampaignServer::open(config, Arc::new(CorpusJobResolver::default()))
            .expect("scratch server dir is writable");
        let ids: Vec<u64> = payloads
            .iter()
            .map(|p| server.submit(p).expect("bench submits fit the queue"))
            .collect();
        let stats = server.run();
        let jobs = server.jobs().expect("queue folds after drain");
        let digests: Vec<String> = ids
            .iter()
            .map(|id| jobs[id].digest.clone().unwrap_or_default())
            .collect();
        let durations: Vec<f64> = ids
            .iter()
            .map(|id| jobs[id].sim_makespan_ns.unwrap_or(0) as f64 / 1e9)
            .collect();
        let (makespan, latencies) = server_timeline(&durations, max_inflight);
        let _ = std::fs::remove_dir_all(&dir);
        ServerBenchSide {
            label: label.to_string(),
            max_inflight,
            campaigns: ids.len(),
            digests,
            sim_makespan_s: makespan,
            campaigns_per_hour: if makespan > 0.0 {
                ids.len() as f64 * 3600.0 / makespan
            } else {
                0.0
            },
            queue_latency_p50_s: percentile(&latencies, 50.0),
            queue_latency_p95_s: percentile(&latencies, 95.0),
            stats,
        }
    };
    let serial = side("serial", 1);
    let concurrent = side("concurrent-8", total_vms);
    let diagnoses_identical =
        serial.digests == concurrent.digests && serial.digests.iter().all(|d| !d.is_empty());
    let campaigns_per_hour_speedup = if serial.sim_makespan_s > 0.0 {
        serial.sim_makespan_s / concurrent.sim_makespan_s.max(f64::MIN_POSITIVE)
    } else {
        0.0
    };
    let meets_server_gate = diagnoses_identical && campaigns_per_hour_speedup >= 1.5;
    ServerBench {
        scale,
        total_vms,
        serial,
        concurrent,
        diagnoses_identical,
        campaigns_per_hour_speedup,
        meets_server_gate,
    }
}
