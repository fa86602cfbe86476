//! Diagnose one corpus bug end to end and print the developer-facing report.
//!
//! ```text
//! cargo run --release -p aitia-bench --bin diagnose -- CVE-2017-15649
//! cargo run --release -p aitia-bench --bin diagnose -- "#4" --scale 0.2
//! cargo run --release -p aitia-bench --bin diagnose -- --list
//! ```
//!
//! The diagnosis runs through the crash-safe campaign driver
//! ([`aitia::Campaign`]): `--journal` makes every schedule execution
//! durable so a killed run resumes at zero VM cost, and
//! `--deadline-s` bounds the campaign's wall clock, degrading gracefully to
//! a partial diagnosis (exit 0) instead of running forever.
//!
//! The report goes to stdout; statistics and progress go to stderr, so the
//! stdout of a resumed campaign diffs clean against an uninterrupted one.

use aitia::{
    manager::ManagerConfig,
    Campaign,
    CampaignOutcome, //
};

const USAGE: &str = "usage: diagnose <bug-id> [FLAGS] | --list

arguments:
  <bug-id>              corpus bug (CVE id or Syzkaller #n); see --list

flags:
  --list                print the corpus and exit
  --scale <float>       benign-race noise scale, greater than 0 and at
                        most 100 (default 0.2)
  --vms <int>           VM-pool worker count, at least 1 (default 8)
  --prune-level <level> LIFS pruning: off, conflict or dpor (default
                        dpor; report's tables use conflict)
  --causality-level <level>
                        causal intervention strategy: exhaustive (flip
                        every race) or adaptive (static benign proofs +
                        information-gain flip ordering); verdicts and
                        chains are identical at both levels (default
                        adaptive; report's tables use exhaustive)
  --journal <path>      append every run to a durable journal and
                        replay it on startup (kill-and-resume)
  --deadline-s <float>  wall-clock budget in seconds, finite and positive;
                        on expiry the diagnosis degrades to best-so-far
                        (partial) results and still exits 0
  --report-only         print only the diagnosis report on stdout (no
                        input preamble), so the output diffs byte-for-byte
                        against a campaignd result file
  -h | --help           this message

exit status: 0 = diagnosed (complete or partial), 1 = did not reproduce,
2 = usage error";

/// Prints the usage message (prefixed by `msg`) and exits with status 2.
fn usage_exit(msg: &str) -> ! {
    eprintln!("diagnose: {msg}\n\n{USAGE}");
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
    let mut id: Option<String> = None;
    let mut scale = 0.2f64;
    let mut vms = 8usize;
    let mut prune: Option<aitia::lifs::PruneLevel> = None;
    let mut causality_level: Option<aitia::CausalityLevel> = None;
    let mut journal: Option<String> = None;
    let mut deadline_s: Option<f64> = None;
    let mut report_only = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => scale = flag_value(&args, &mut i, "--scale"),
            "--vms" => vms = flag_value(&args, &mut i, "--vms"),
            "--prune-level" => prune = Some(flag_value(&args, &mut i, "--prune-level")),
            "--causality-level" => {
                causality_level = Some(flag_value(&args, &mut i, "--causality-level"));
            }
            "--journal" => journal = Some(flag_value(&args, &mut i, "--journal")),
            "--deadline-s" => deadline_s = Some(flag_value(&args, &mut i, "--deadline-s")),
            "--report-only" => report_only = true,
            "--list" => {
                for bug in corpus::all_bugs() {
                    println!("{:<18} {:<14} {}", bug.id, bug.subsystem, bug.bug_type);
                }
                return;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other if other.starts_with('-') => {
                usage_exit(&format!("unknown flag {other:?}"));
            }
            other => {
                if let Some(prev) = &id {
                    usage_exit(&format!("multiple bug ids given ({prev:?} and {other:?})"));
                }
                id = Some(other.to_string());
            }
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
    let Some(id) = id else {
        usage_exit("a bug id is required");
    };
    let Some(bug) = corpus::all_bugs().into_iter().find(|b| b.id == id) else {
        usage_exit(&format!("unknown bug {id:?}; try --list"));
    };
    if !report_only {
        println!("{}\n", bug.doc);
        // The modeled Syzkaller input.
        let history = bug.history();
        println!("{}", khist::ftrace::render(&history));
        let n_slices = khist::slices(&history).len();
        println!("slicing: {n_slices} candidate slices\n");
    }

    // Reproduce + diagnose through the crash-safe campaign driver.
    let prog = bug.program_scaled(scale);
    let mut lifs = bug.lifs_config();
    if let Some(prune) = prune {
        lifs.prune = prune;
    }
    let mut config = ManagerConfig {
        vms,
        lifs,
        wall_deadline_s: deadline_s,
        ..ManagerConfig::default()
    };
    if let Some(level) = causality_level {
        config.causality.level = level;
    }
    let campaign = match &journal {
        Some(path) => Campaign::with_journal_path(config, path),
        None => Campaign::new(config),
    };
    let outcome = campaign.diagnose_program(prog.clone());

    if let Some(js) = campaign.journal_stats() {
        eprintln!(
            "journal: {} replayed, {} appended, {} torn-tail truncations",
            js.records_replayed, js.records_appended, js.torn_tail_truncations
        );
    }
    let Some(d) = outcome.diagnosis() else {
        if outcome.deadline_fired() {
            eprintln!("did not reproduce at scale {scale} before the deadline expired");
        } else {
            eprintln!("did not reproduce at scale {scale}");
        }
        std::process::exit(1);
    };
    eprintln!(
        "LIFS: {} schedules, interleaving count {}, pruned {} (non-conflicting) + \
         {} (equivalent) + {} (sleep set) + {} (persistent set)",
        d.lifs_stats.schedules_executed,
        d.lifs_stats.interleaving_count,
        d.lifs_stats.pruned_nonconflicting,
        d.lifs_stats.pruned_equivalent,
        d.lifs_stats.pruned_sleep_set,
        d.lifs_stats.pruned_persistent
    );
    eprintln!(
        "causality: {} flip schedules, {} skipped by static proof, \
         {} submitted out of canonical order",
        d.result.stats.schedules_executed,
        d.result.stats.flips_skipped_static,
        d.result.stats.flips_reordered
    );
    if let CampaignOutcome::Partial(p) = &outcome {
        eprintln!(
            "deadline expired: partial diagnosis with {} unverified race(s)",
            p.unverified
        );
    }
    println!("{}", aitia::report::render(&prog, &d.failing, &d.result));
}
