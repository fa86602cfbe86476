//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p aitia-bench --bin report -- all
//! cargo run --release -p aitia-bench --bin report -- table2 [--scale 1.0]
//! ```
//!
//! Subcommands: `table1`, `table2`, `table3`, `conciseness`, `comparison`,
//! `ablations`, `fig5`, `fig6`, `fig7`, `fig9`, `extensions`, `fuzz`,
//! `all`.
//!
//! `--scale` multiplies every bug's calibrated benign-race noise (1.0 =
//! full calibration, matching the magnitudes of the paper's tables; smaller
//! values run faster).
//!
//! `--vms` sizes the shared VM pool the tables run on; the same number
//! parameterizes the simulated-time cost model, so reported seconds always
//! describe the pool that actually executed the schedules.

use aitia::{
    causality::CausalityAnalysis,
    exec::{
        CancelToken,
        Executor,
        ExecutorConfig, //
    },
    lifs::{
        Lifs,
        LifsConfig, //
    },
    simtime::CostModel,
};
use aitia_bench::experiments::{
    self,
    Levels, //
};
use std::sync::Arc;

const USAGE: &str = "usage: report [SUBCOMMAND] [FLAGS]

subcommands (default: all):
  table1 | comparison   reproduction-rate comparison (Table 1)
  table2                the ten CVE bugs (Table 2)
  table3                the twelve Syzkaller bugs (Table 3)
  conciseness           §5.2 conciseness summary
  ablations             backward/CS-unit/POR ablations
  fig5 | fig6 | fig7 | fig9
  extensions            beyond-paper scenarios (IRQ, RCU, ABBA)
  fuzz                  differential fuzz of generated bugs over the
                        full executor config matrix (JSON on stdout;
                        exit 1 when the gate is missed)
  all                   everything above except fuzz

flags:
  --scale <float>       benign-race noise scale, greater than 0 and at
                        most 100 (default 1.0)
  --prune-level <level> LIFS pruning: off, conflict or dpor (default
                        conflict, the level of the paper's tables;
                        diagnose and campaignd default to dpor)
  --causality-level <level>
                        causal intervention strategy: exhaustive or
                        adaptive (static benign proofs + information-gain
                        flip ordering); identical diagnoses at both
                        levels (default exhaustive, the paper's
                        procedure; diagnose and campaignd default to
                        adaptive)
  --samples <int>       comparison sample count (default 400)
  --vms <int>           VM-pool worker count, at least 1 (default 8)
  --no-memo             no memo table and no checkpoint restores: every
                        run boots fresh (the oracle; may run slower)
  --deadline-s <float>  wall-clock budget in seconds, finite and positive;
                        on expiry tables degrade to best-so-far results,
                        and a bug cut off before it reproduces ends the
                        run with exit 1
  --seeds <int>         fuzz: consecutive generator seeds to run (default 200)
  --seed-start <int>    fuzz: first generator seed (default 0)
  --repro-dir <path>    fuzz: where divergence reproducers are written
                        (default target/corpus-repro)

exit status: 0 = success, 1 = a corpus bug did not reproduce or fuzz
missed its gate, 2 = usage error";

/// Prints the usage message (prefixed by `msg`) and exits with status 2.
fn usage_exit(msg: &str) -> ! {
    eprintln!("report: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

/// Parses the value of flag `flag` at `args[*i + 1]`, advancing `*i`.
fn flag_value<T: std::str::FromStr>(args: &[String], i: &mut usize, flag: &str) -> T {
    *i += 1;
    let Some(raw) = args.get(*i) else {
        usage_exit(&format!("{flag} requires a value"));
    };
    raw.parse()
        .unwrap_or_else(|_| usage_exit(&format!("{flag}: invalid value {raw:?}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = "all".to_string();
    let mut scale = 1.0f64;
    // Every table and figure runs at these levels: the paper's unless a
    // flag says otherwise.
    let mut levels = Levels::PAPER;
    let mut samples = 400usize;
    let mut vms = 8usize;
    let mut memo = true;
    let mut deadline_s: Option<f64> = None;
    let mut seeds = 200usize;
    let mut seed_start = 0u64;
    let mut repro_dir = "target/corpus-repro".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => scale = flag_value(&args, &mut i, "--scale"),
            "--prune-level" => levels.prune = flag_value(&args, &mut i, "--prune-level"),
            "--causality-level" => {
                levels.causality = flag_value(&args, &mut i, "--causality-level");
            }
            "--samples" => samples = flag_value(&args, &mut i, "--samples"),
            "--vms" => vms = flag_value(&args, &mut i, "--vms"),
            "--no-memo" => memo = false,
            "--deadline-s" => deadline_s = Some(flag_value(&args, &mut i, "--deadline-s")),
            "--seeds" => seeds = flag_value(&args, &mut i, "--seeds"),
            "--seed-start" => seed_start = flag_value(&args, &mut i, "--seed-start"),
            "--repro-dir" => repro_dir = flag_value(&args, &mut i, "--repro-dir"),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other if other.starts_with('-') => {
                usage_exit(&format!("unknown flag {other:?}"));
            }
            other => cmd = other.to_string(),
        }
        i += 1;
    }
    if let Err(e) = corpus::noise::check_scale(scale, false) {
        usage_exit(&format!("--scale {e}"));
    }
    if vms == 0 {
        usage_exit("--vms must be at least 1 (there is no zero-VM pool)");
    }
    if let Some(d) = deadline_s {
        if !(d.is_finite() && d > 0.0) {
            usage_exit("--deadline-s must be a finite number greater than 0");
        }
    }
    // The deadline stops the table diagnoses on the main pool; the other
    // experiments build their own pools and run unbounded.
    let cancel =
        deadline_s.map_or_else(CancelToken::new, |d| CancelToken::new().with_deadline_s(d));
    let exec = Arc::new(Executor::with_config(ExecutorConfig {
        vms,
        memo,
        ..ExecutorConfig::default()
    }));
    let model = experiments::cost_model_for(&exec);
    match cmd.as_str() {
        "table2" => table2(scale, &exec, &model, levels, &cancel),
        "table3" => table3(scale, &exec, &model, levels, &cancel),
        "conciseness" => {
            let rows = corpus_rows(&corpus::syzkaller(), scale, &exec, levels, &cancel);
            print_conciseness(&rows);
        }
        "comparison" | "table1" => comparison(scale, samples, levels),
        // Ablations disable the pruning that makes full-scale noise
        // tractable; they run on reduced noise by construction.
        "ablations" => ablations(scale.min(0.05), levels),
        "fig5" => fig5(levels),
        "fig6" => fig6(levels),
        "fig7" => fig7(levels),
        "fig9" => fig9(levels),
        "extensions" => extensions(levels),
        "fuzz" => {
            // The matrix builds its own pools, so the main pool above
            // stays cold; its memo-on cells share one substrate per seed,
            // so later cells answer from what earlier cells stored. JSON
            // goes to stdout; the human summary goes to stderr, and a
            // missed gate exits 1.
            let b = experiments::bench_corpus(seed_start, seeds, Some(&repro_dir));
            println!(
                "{}",
                serde_json::to_string_pretty(&b).expect("bench result serializes")
            );
            eprintln!(
                "fuzz: {} seeds x {} cells, {} reproduced, recall {:.1}% \
                 ({} hits), adaptive recall {:.1}% ({} hits), \
                 {} digest agreements, {} divergences, \
                 agreement gate: {}, recall gate: {}, adaptive recall gate: {}, \
                 gate met: {}",
                b.seeds,
                b.cells,
                b.reproduced,
                b.recall * 100.0,
                b.recall_hits,
                b.adaptive_recall * 100.0,
                b.adaptive_recall_hits,
                b.digest_agreements,
                b.divergences.len(),
                b.meets_agreement_gate,
                b.meets_recall_gate,
                b.meets_adaptive_recall_gate,
                b.meets_corpus_gate
            );
            for d in &b.divergences {
                eprintln!(
                    "fuzz: divergence seed {} ({}, {}): shrunk to noise {:.2} filler {}{}",
                    d.seed,
                    d.name,
                    d.kind,
                    d.shrunk.noise_scale,
                    d.shrunk.max_filler,
                    d.reproducer_path
                        .as_deref()
                        .map(|p| format!(" -> {p}"))
                        .unwrap_or_default()
                );
            }
            if !b.meets_corpus_gate {
                std::process::exit(1);
            }
            return;
        }
        "all" => {
            table2(scale, &exec, &model, levels, &cancel);
            let rows = corpus_rows(&corpus::syzkaller(), scale, &exec, levels, &cancel);
            println!("{}", experiments::render_table3(&rows, &model));
            let avg: f64 =
                rows.iter().map(|r| r.chain_races() as f64).sum::<f64>() / rows.len() as f64;
            println!("average chain length: {avg:.1} (paper: 3.0)\n");
            print_conciseness(&rows);
            comparison(scale.min(0.1), samples, levels);
            ablations(scale.min(0.05), levels);
            fig5(levels);
            fig6(levels);
            fig7(levels);
            fig9(levels);
            extensions(levels);
        }
        other => {
            usage_exit(&format!("unknown subcommand {other:?}"));
        }
    }
    println!(
        "{}",
        experiments::render_exec_stats(&exec.stats(), cancel.deadline_fired())
    );
}

/// Prints `diagnose`'s message for a bug that did not reproduce and exits
/// 1; when `cancel`'s deadline fired, the message blames the deadline.
fn no_repro_exit(id: &str, scale: f64, cancel: &CancelToken) -> ! {
    if cancel.deadline_fired() {
        eprintln!("report: {id} did not reproduce at scale {scale} before the deadline expired");
    } else {
        eprintln!("report: {id} did not reproduce at scale {scale}");
    }
    std::process::exit(1);
}

/// Diagnoses a corpus table, exiting 1 when one of its bugs does not
/// reproduce.
fn corpus_rows(
    bugs: &[corpus::BugModel],
    scale: f64,
    exec: &Arc<Executor>,
    levels: Levels,
    cancel: &CancelToken,
) -> Vec<experiments::BugOutcome> {
    experiments::diagnose_corpus(bugs, scale, exec, levels, cancel)
        .unwrap_or_else(|id| no_repro_exit(id, scale, cancel))
}

fn table2(
    scale: f64,
    exec: &Arc<Executor>,
    model: &CostModel,
    levels: Levels,
    cancel: &CancelToken,
) {
    let rows = corpus_rows(&corpus::cves(), scale, exec, levels, cancel);
    println!("{}", experiments::render_table2(&rows, model));
    let amb: Vec<&str> = rows
        .iter()
        .filter(|r| !r.result.ambiguous().is_empty())
        .map(|r| r.id)
        .collect();
    println!("ambiguity cases: {amb:?} (paper: [\"CVE-2016-10200\"])\n");
    println!("{}", experiments::render_ca_stats(&rows));
}

fn table3(
    scale: f64,
    exec: &Arc<Executor>,
    model: &CostModel,
    levels: Levels,
    cancel: &CancelToken,
) {
    let rows = corpus_rows(&corpus::syzkaller(), scale, exec, levels, cancel);
    println!("{}", experiments::render_table3(&rows, model));
    let avg: f64 = rows.iter().map(|r| r.chain_races() as f64).sum::<f64>() / rows.len() as f64;
    println!("average chain length: {avg:.1} (paper: 3.0)\n");
    println!("{}", experiments::render_ca_stats(&rows));
}

fn print_conciseness(rows: &[aitia_bench::experiments::BugOutcome]) {
    let s = experiments::conciseness_summary(rows);
    println!("§5.2 conciseness (measured | paper)");
    println!(
        "  memory-accessing instructions: avg {:.1} range {}..{} | avg 9592.8 range 189..20090",
        s.avg_mem, s.mem_range.0, s.mem_range.1
    );
    println!(
        "  individual data races:         avg {:.1} range {}..{}   | avg 108.4 range 5..322",
        s.avg_races, s.race_range.0, s.race_range.1
    );
    println!(
        "  races in causality chain:      avg {:.1}              | avg 3.0",
        s.avg_chain
    );
    println!(
        "  benign races inside chains:    {}                  | 0\n",
        s.benign_in_chains
    );
}

fn comparison(scale: f64, samples: usize, levels: Levels) {
    let rows = experiments::comparison(scale, samples, levels)
        .unwrap_or_else(|id| no_repro_exit(id, scale, &CancelToken::new()));
    println!("{}", experiments::render_comparison(&rows));
}

fn ablations(scale: f64, levels: Levels) {
    let rows = experiments::ablations(scale, levels);
    println!("{}", experiments::render_ablations(&rows));
}

fn fig5(levels: Levels) {
    let prog = Arc::new(corpus::figures::fig5());
    let out = Lifs::new(Arc::clone(&prog), levels.lifs(LifsConfig::default())).search();
    println!("Figure 5 — LIFS search tree walkthrough");
    print!("{}", out.tree.render(&prog));
    println!(
        "failure reproduced at interleaving count {} after {} schedules\n",
        out.stats.interleaving_count, out.stats.schedules_executed
    );
}

fn fig6(levels: Levels) {
    let bug = corpus::cves()
        .into_iter()
        .find(|b| b.id == "CVE-2017-15649")
        .expect("15649 in corpus");
    let prog = bug.program(corpus::noise::NoiseSpec::silent());
    let run = Lifs::new(Arc::clone(&prog), levels.lifs(bug.lifs_config()))
        .search()
        .failing
        .expect("reproduces");
    let res = CausalityAnalysis::new(levels.causality()).analyze(&run);
    println!("Figure 6 — Causality Analysis of CVE-2017-15649");
    println!(
        "failure-causing sequence ({} steps), races tested backward:",
        run.trace.len()
    );
    for t in &res.tested {
        let (f, s) = t.race.key();
        println!(
            "  flip {} ⇒ {:<6} → {:?}",
            prog.instr_name(f),
            prog.instr_name(s),
            t.verdict
        );
    }
    println!(
        "chain: {}\n       (paper: (A2⇒B11 ∧ B2⇒A6) → A6⇒B12 → B17⇒A12 → BUG_ON())\n",
        res.chain
    );
}

fn fig7(levels: Levels) {
    for (name, prog) in [
        ("ambiguous", corpus::figures::fig7_ambiguous()),
        ("decidable", corpus::figures::fig7_clear()),
    ] {
        let prog = Arc::new(prog);
        let run = Lifs::new(Arc::clone(&prog), levels.lifs(LifsConfig::default()))
            .search()
            .failing
            .expect("reproduces");
        let res = CausalityAnalysis::new(levels.causality()).analyze(&run);
        println!(
            "Figure 7 ({name}): chain {} | ambiguous races: {}",
            res.chain,
            res.ambiguous().len()
        );
    }
    println!();
}

fn extensions(levels: Levels) {
    println!("Extensions beyond the paper (§4.6 future work and substrate depth)");
    let lifs = levels.lifs(LifsConfig::default());
    // Hardware-IRQ injection.
    let prog = Arc::new(corpus::figures::irq_scenario());
    let out = Lifs::new(Arc::clone(&prog), lifs.clone()).search();
    let run = out.failing.expect("irq scenario reproduces");
    let res = CausalityAnalysis::new(levels.causality()).analyze(&run);
    println!(
        "  IRQ injection: {} → chain {}",
        run.failure.kind, res.chain
    );
    // RCU grace periods.
    let safe = Lifs::new(Arc::new(corpus::figures::rcu_scenario(true)), lifs.clone()).search();
    let unsafe_ = Lifs::new(Arc::new(corpus::figures::rcu_scenario(false)), lifs.clone()).search();
    println!(
        "  RCU grace period: protected reader {} | unprotected reader {}",
        if safe.failing.is_none() {
            "safe (no failure exists)".to_string()
        } else {
            "FAILED?".to_string()
        },
        unsafe_
            .failing
            .map(|r| r.failure.kind.to_string())
            .unwrap_or_else(|| "no failure".into())
    );
    // ABBA deadlock as a hung task.
    let run = Lifs::new(Arc::new(corpus::figures::abba_deadlock_scenario()), lifs)
        .search()
        .failing
        .expect("deadlock reproduces");
    let res = CausalityAnalysis::new(levels.causality()).analyze(&run);
    println!(
        "  ABBA deadlock: {} → chain {}
",
        run.failure.kind, res.chain
    );
}

fn fig9(levels: Levels) {
    let bug = corpus::syzkaller()
        .into_iter()
        .find(|b| b.id == "#4")
        .expect("#4 in corpus");
    let prog = bug.program(corpus::noise::NoiseSpec::silent());
    let run = Lifs::new(Arc::clone(&prog), levels.lifs(bug.lifs_config()))
        .search()
        .failing
        .expect("reproduces");
    let res = CausalityAnalysis::new(levels.causality()).analyze(&run);
    println!("Figure 9 — the irqfd case study (bug #4)");
    println!("{}", aitia::report::render(&prog, &run, &res));
}
