//! The paper's experiments, as reusable functions.
//!
//! Each table/figure of the evaluation (§5) has a function here producing
//! structured results, which the `report` binary renders next to the
//! paper's reported numbers. The differential fuzz harness behind `report
//! fuzz` and `campaignd`'s payload resolver live here too. Wall-clock
//! timing belongs to `perfbench/`, the repository's one benchmark.

use aitia::{
    causality::{
        CausalityAnalysis,
        CausalityConfig, //
    },
    exec::{
        Executor,
        ExecutorConfig,
        Substrate, //
    },
    journal::JournalStats,
    lifs::{
        Lifs,
        LifsStats, //
    },
    report::{
        conciseness,
        Conciseness, //
    },
    simtime::CostModel,
    CausalityResult,
    FailingRun, //
};
use corpus::{
    noise::{
        check_scale,
        NoiseSpec, //
    },
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

/// Diagnoses an already-built program of `bug` on the given pool, at LIFS
/// prune level `prune` and with Causality Analysis configured by
/// `causality`. `None` when the failure did not reproduce.
///
/// Results are bit-for-bit identical at any worker count (the executor
/// folds in canonical order); only wall-clock time changes. Callers that
/// diagnose the same bug repeatedly (regression re-runs, parameter sweeps)
/// should build the [`ksim::Program`] once and pass the same `Arc` each
/// time: the cross-run memo table keys on program *identity*
/// (`Arc::ptr_eq`, the ABA-safe choice), so only shared-`Arc` re-runs can
/// be answered from the table.
#[must_use]
pub fn diagnose_program(
    bug: &BugModel,
    prog: Arc<ksim::Program>,
    exec: &Arc<Executor>,
    prune: aitia::lifs::PruneLevel,
    causality: CausalityConfig,
) -> Option<BugOutcome> {
    let cfg = aitia::lifs::LifsConfig {
        prune,
        ..bug.lifs_config()
    };
    let out = Lifs::with_executor(prog, cfg, Arc::clone(exec)).search();
    let run = out.failing?;
    let result = CausalityAnalysis::with_executor(causality, Arc::clone(exec)).analyze(&run);
    let c = conciseness(&run, &result);
    Some(BugOutcome {
        id: bug.id,
        subsystem: bug.subsystem,
        bug_type: bug.bug_type,
        multi: bug.multi_variable,
        lifs: out.stats,
        run,
        result,
        conciseness: c,
        paper: bug.paper,
    })
}

/// Diagnoses every bug of a corpus table ([`corpus::cves`] for Table 2,
/// [`corpus::syzkaller`] for Table 3) at noise scale `scale` over a shared
/// VM pool. `prune` overrides each bug's calibrated prune level when given.
/// `Err` names the first bug that did not reproduce.
pub fn diagnose_corpus(
    bugs: &[BugModel],
    scale: f64,
    exec: &Arc<Executor>,
    prune: Option<aitia::lifs::PruneLevel>,
    causality: aitia::CausalityLevel,
) -> Result<Vec<BugOutcome>, &'static str> {
    bugs.iter()
        .map(|b| {
            diagnose_program(
                b,
                b.program_scaled(scale),
                exec,
                prune.unwrap_or(b.lifs_config().prune),
                CausalityConfig {
                    level: causality,
                    ..CausalityConfig::default()
                },
            )
            .ok_or(b.id)
        })
        .collect()
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

/// Renders the pool's counter block ([`aitia::ExecStats`]) — the `report`
/// binary prints this after every run.
#[must_use]
pub fn render_exec_stats(stats: &aitia::ExecStats) -> String {
    format!(
        "VM-pool execution stats\n\
        \x20 enforced runs:       {}\n\
        \x20 discarded runs:      {} (past an early stop)\n\
        \x20 checkpoints:         {} restored / {} booted fresh\n\
        \x20 memo table:          {} hits / {} misses\n\
        \x20 throughput:          {:.0} schedules/s, {:.0} instrs/s (per busy worker)\n\
        \x20 deadline fired:      {}\n",
        stats.runs,
        stats.discarded_runs,
        stats.snapshot_hits,
        stats.snapshot_misses,
        stats.memo_hits,
        stats.memo_misses,
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

/// Runs the §5.3 baseline comparison over Table 3's bugs. `Err` names the
/// first bug that did not reproduce.
pub fn comparison(scale: f64, samples: usize) -> Result<Vec<ComparisonRow>, &'static str> {
    use baselines::sampler::{
        sample_runs,
        sample_runs_guided,
        split,
        SamplerConfig, //
    };
    let mut out = Vec::new();
    for bug in corpus::syzkaller() {
        let prog = bug.program_scaled(scale);
        let outcome = diagnose_program(
            &bug,
            Arc::clone(&prog),
            &Arc::new(Executor::new(1)),
            bug.lifs_config().prune,
            CausalityConfig::default(),
        )
        .ok_or(bug.id)?;
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
    Ok(out)
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
    /// Memo table and checkpoint restores on/off.
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

    /// A fresh pool configured for this cell. Pools handed one
    /// `substrate` share its memo entries and checkpoints.
    #[must_use]
    pub fn executor(&self, substrate: &Substrate) -> Arc<Executor> {
        Arc::new(Executor::with_config(ExecutorConfig {
            vms: self.vms,
            memo: self.memo,
            substrate: substrate.clone(),
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
/// (18 exhaustive cells and the adaptive-causality axis), on fresh pools
/// whose memo-on cells share one substrate per seed, so every memo-on cell
/// after the first answers from what earlier cells stored; cross-level
/// digests must agree bit-for-bit, same-level digests must also agree on
/// CA schedule counts, and both reference cells' chains must contain a
/// planted racing pair. Divergences are shrunk (same seed, simpler
/// noise/filler knobs) and, when `repro_dir` is given, written as JSON
/// reproducers.
#[must_use]
pub fn bench_corpus(seed_start: u64, seeds: usize, repro_dir: Option<&str>) -> CorpusBench {
    use corpus::generate::{generate, generate_with, GenConfig};

    let cells = corpus_matrix();
    let mut families: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    let mut reproduced = 0usize;
    let mut recall_hits = 0usize;
    let mut adaptive_recall_hits = 0usize;
    let mut digest_agreements = 0usize;
    let mut divergences: Vec<CorpusDivergence> = Vec::new();

    for seed in seed_start..seed_start + seeds as u64 {
        let bug = generate(seed);
        *families.entry(bug.family.tag().to_string()).or_insert(0) += 1;
        let substrate = Substrate::default();
        let execs: Vec<Arc<Executor>> = cells.iter().map(|c| c.executor(&substrate)).collect();
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
/// Scales and noise go through [`check_scale`] (noise may be 0). Anything
/// else is a resolver error, which the server counts as a supervisor fault
/// (and eventually dead-letters).
#[derive(Clone, Copy, Debug, Default)]
pub struct CorpusJobResolver;

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
                check_scale(scale, false).map_err(|e| format!("payload {payload:?}: scale {e}"))?;
                let bug = corpus::all_bugs()
                    .into_iter()
                    .find(|b| b.id == id)
                    .ok_or_else(|| format!("payload {payload:?}: unknown bug {id:?}"))?;
                Ok(aitia::server::ResolvedJob {
                    program: bug.program_scaled(scale),
                    lifs: bug.lifs_config(),
                    causality: CausalityConfig::default(),
                    fault: None,
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
                    check_scale(config.noise_scale, true)
                        .map_err(|e| format!("payload {payload:?}: noise {e}"))?;
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
                    fault: None,
                })
            }
            _ => Err(format!(
                "payload {payload:?}: expected cve:<bug-id>:<scale> or \
                 gen:<seed>[:<noise>[:<filler>]]"
            )),
        }
    }
}
