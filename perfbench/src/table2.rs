//! The `table2` and `resume-adaptive` workloads: Table 2's CVE bugs
//! diagnosed one after another by one caller, each on a fresh private
//! substrate so every diagnosis starts cold, as a separate `diagnose`
//! process would. The seed picks the bug order of each pass.

use crate::check::{
    cve_key,
    Tally, //
};
use crate::diag::{
    self,
    cold_substrate,
    executor,
    Diagnosed, //
};
use crate::host::{
    ratio,
    secs,
    Rng, //
};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::trace::Tracer;
use crate::{
    repeat,
    set_up,
    Bench,
    Outcome,
    Pass,
    Sizes,
    WORKERS, //
};
use aitia::manager::ManagerConfig;
use aitia::{
    Campaign,
    CampaignOutcome,
    CausalityConfig,
    CausalityLevel,
    Journal,
    Substrate, //
};
use corpus::BugModel;
use ksim::Program;
use std::collections::BTreeMap;
use std::path::{
    Path,
    PathBuf, //
};
use std::sync::Arc;
use std::time::Instant;

fn bugs(sizes: &Sizes) -> Vec<BugModel> {
    corpus::cves().into_iter().take(sizes.bugs).collect()
}

fn causality(level: CausalityLevel) -> CausalityConfig {
    CausalityConfig {
        level,
        ..CausalityConfig::default()
    }
}

/// What `diagnose` runs by default (calibrated prune level, memo on),
/// at `level` and `WORKERS` workers on a cold substrate.
fn manager_config(bug: &BugModel, level: CausalityLevel) -> ManagerConfig {
    ManagerConfig {
        vms: WORKERS,
        lifs: bug.lifs_config(),
        causality: causality(level),
        substrate: cold_substrate(),
        ..ManagerConfig::default()
    }
}

/// The rendered report of a complete diagnosis; `None` for anything else.
fn complete_report(program: &Program, outcome: &CampaignOutcome) -> Option<String> {
    match outcome {
        CampaignOutcome::Complete(d) => Some(aitia::report::render(program, &d.failing, &d.result)),
        _ => None,
    }
}

/// A seeded permutation of the bugs.
fn order(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

/// Builds the programs of `bugs` in `order` at `scale`.
fn build(bugs: &[BugModel], order: &[usize], scale: f64) -> Vec<Arc<Program>> {
    order
        .iter()
        .map(|&i| bugs[i].program_scaled(scale))
        .collect()
}

fn journal_path(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("bug-{k}.wal"))
}

/// One `table2` pass: ten cold diagnoses, each followed by a re-diagnosis
/// on the same (now warm) campaign, which is this workload's resumed pass.
fn table2_pass(b: &Bench, bugs: &[BugModel], order: &[usize], tally: &mut Tally) -> Pass {
    let scale = b.sizes.table2_scale;
    let mut pass = Pass::default();
    let programs = set_up(&mut pass.setup, || build(bugs, order, scale));
    for (&i, program) in order.iter().zip(&programs) {
        let bug = &bugs[i];
        let t = Instant::now();
        let campaign = Campaign::new(manager_config(bug, CausalityLevel::Exhaustive));
        let report = complete_report(program, &campaign.diagnose_program(Arc::clone(program)));
        let cold = secs(t.elapsed());
        pass.busy += campaign.manager().exec_stats().busy_ns as f64 / 1e9;
        let t = Instant::now();
        let warm = complete_report(program, &campaign.diagnose_program(Arc::clone(program)));
        let warm_s = secs(t.elapsed());
        drop(campaign);

        let key = cve_key(bug.id, scale, CausalityLevel::Exhaustive);
        pass.main.push((key.clone(), cold));
        pass.resume.push((key.clone(), warm_s));
        let digest = tally.diagnosis(b.digests, &key, report.as_deref());
        tally.check(warm == report, || {
            format!("{key}: warm re-diagnosis differs")
        });
        pass.digests.insert(key, digest);
    }
    pass
}

/// One `resume-adaptive` pass: a cold pass journaling each bug to its own
/// file, then a resumed pass that opens each journal into a fresh
/// substrate with freshly built programs.
fn resume_pass(
    b: &Bench,
    bugs: &[BugModel],
    order: &[usize],
    dir: &Path,
    tally: &mut Tally,
) -> Pass {
    let scale = b.sizes.resume_scale;
    let level = CausalityLevel::Adaptive;
    let mut pass = Pass::default();
    // The resumed pass gets programs of its own: fresh identities, so only
    // the journal can spare re-execution.
    let (programs, fresh) = set_up(&mut pass.setup, || {
        std::fs::create_dir_all(dir).expect("journal directory is writable");
        (build(bugs, order, scale), build(bugs, order, scale))
    });
    for (k, (&i, program)) in order.iter().zip(&programs).enumerate() {
        let t = Instant::now();
        let campaign =
            Campaign::with_journal_path(manager_config(&bugs[i], level), journal_path(dir, k));
        let report = complete_report(program, &campaign.diagnose_program(Arc::clone(program)));
        let cold = secs(t.elapsed());
        pass.busy += campaign.manager().exec_stats().busy_ns as f64 / 1e9;
        drop(campaign);
        let key = cve_key(bugs[i].id, scale, level);
        pass.main.push((key.clone(), cold));
        let digest = tally.diagnosis(b.digests, &key, report.as_deref());
        pass.digests.insert(key, digest);
    }

    for (k, (&i, program)) in order.iter().zip(&fresh).enumerate() {
        let t = Instant::now();
        let campaign =
            Campaign::with_journal_path(manager_config(&bugs[i], level), journal_path(dir, k));
        let report = complete_report(program, &campaign.diagnose_program(Arc::clone(program)));
        let resumed = secs(t.elapsed());
        let replayed = campaign.journal_stats().map_or(0, |s| s.records_replayed);
        drop(campaign);
        let key = cve_key(bugs[i].id, scale, level);
        pass.resume.push((key.clone(), resumed));
        let digest = report.as_deref().map(crate::check::digest);
        tally.check(
            digest.as_ref() == pass.digests.get(&key) && replayed > 0,
            || format!("{key}: resumed diagnosis differs or replayed nothing"),
        );
    }
    let _ = std::fs::remove_dir_all(dir);
    pass
}

pub fn run_table2(b: &Bench) -> Outcome {
    let bugs = bugs(&b.sizes);
    let mut rng = Rng::new(b.seed);
    let mut tally = Tally::default();
    let (passes, rss_mb) = repeat(b.seconds, || {
        let order = order(&mut rng, bugs.len());
        table2_pass(b, &bugs, &order, &mut tally)
    });
    Outcome::untraced(tally, &passes, rss_mb)
}

pub fn run_resume(b: &Bench) -> Outcome {
    let bugs = bugs(&b.sizes);
    let mut rng = Rng::new(b.seed);
    let mut tally = Tally::default();
    let dir = b.scratch.join("journals");
    let (passes, rss_mb) = repeat(b.seconds, || {
        let order = order(&mut rng, bugs.len());
        resume_pass(b, &bugs, &order, &dir, &mut tally)
    });
    Outcome::untraced(tally, &passes, rss_mb)
}

/// The traced cold pass's record of one diagnosis.
struct Traced {
    key: String,
    bug: usize,
    diagnosed: Option<Diagnosed>,
}

/// Checks traced diagnoses against the stored digests and the untraced
/// pass, then re-times the pure analysis functions on each.
fn check_traced(
    b: &Bench,
    bugs: &[BugModel],
    traced: &[Traced],
    untraced: &BTreeMap<String, String>,
    adaptive: bool,
    m: &mut Metrics,
    tally: &mut Tally,
) -> BTreeMap<String, String> {
    let mut digests = BTreeMap::new();
    for t in traced {
        let report = t.diagnosed.as_ref().map(|d| d.report.as_str());
        let digest = tally.diagnosis(b.digests, &t.key, report);
        tally.check(untraced.get(&t.key) == Some(&digest), || {
            format!("{}: traced digest differs from untraced", t.key)
        });
        if let Some(d) = &t.diagnosed {
            diag::retime(d, &bugs[t.bug].lifs_config(), adaptive, m, tally);
        }
        digests.insert(t.key.clone(), digest);
    }
    digests
}

fn traced_outcome(
    tally: Tally,
    mut metrics: Metrics,
    tracer: Tracer,
    untraced: BTreeMap<String, String>,
    traced: BTreeMap<String, String>,
) -> Outcome {
    metrics.set("failed_frac", tally.failed_frac());
    Outcome {
        info: Json::obj([("diagnoses", traced.len().into())]),
        tally,
        metrics,
        tracer: Some(tracer),
        untraced,
        traced,
    }
}

/// Spans and layer metrics of a traced pass.
type Spans<'a> = Option<(&'a mut Tracer, &'a mut Metrics)>;

/// Runs `pass` with spans off, on, on and off again, so that drift over
/// the run cancels out of the overhead. Returns the first traced pass's
/// wall time and output, and the tracing overhead.
fn off_on_on_off<T>(
    mut pass: impl FnMut(Spans) -> (f64, T),
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> (f64, T, f64) {
    let (off1, _) = pass(None);
    let (on1, out) = pass(Some((tracer, m)));
    let (on2, _) = pass(Some((&mut Tracer::new(), &mut Metrics::default())));
    let (off2, _) = pass(None);
    (on1, out, (on1 + on2 - off1 - off2) / 2.0)
}

/// The traced `table2` run: the timed two-worker pass (for the untraced
/// digests and parallel efficiency), then the same diagnoses at one
/// worker with spans off and on.
pub fn trace_table2(b: &Bench) -> Outcome {
    let bugs = bugs(&b.sizes);
    let scale = b.sizes.table2_scale;
    let order = order(&mut Rng::new(b.seed), bugs.len());
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let timed = table2_pass(b, &bugs, &order, &mut tally);
    m.set(
        "exec.parallel_eff",
        ratio(timed.busy, WORKERS as f64 * timed.wall()),
    );

    let t = Instant::now();
    let programs = build(&bugs, &order, scale);
    m.set("corpus.build_s", secs(t.elapsed()));
    let ca = causality(CausalityLevel::Exhaustive);
    let pass = |mut spans: Spans| {
        let mut wall = 0.0;
        let mut traced = Vec::new();
        for (k, (&i, program)) in order.iter().zip(&programs).enumerate() {
            let exec = executor(1, cold_substrate(), None);
            let lifs = bugs[i].lifs_config();
            let t = Instant::now();
            let d = match &mut spans {
                Some((tracer, m)) => {
                    diag::diagnose_traced(program, &lifs, &ca, &exec, tracer, k, m)
                }
                None => diag::diagnose(program, &lifs, &ca, &exec),
            };
            wall += secs(t.elapsed());
            if let Some((_, m)) = &mut spans {
                diag::add_exec(m, &exec.stats());
            }
            traced.push(Traced {
                key: cve_key(bugs[i].id, scale, CausalityLevel::Exhaustive),
                bug: i,
                diagnosed: d,
            });
        }
        (wall, traced)
    };
    let mut tracer = Tracer::new();
    let (on, traced, overhead) = off_on_on_off(pass, &mut tracer, &mut m);
    m.set("trace.wall_s", on);
    m.set("trace.overhead_s", overhead);
    let digests = check_traced(b, &bugs, &traced, &timed.digests, false, &mut m, &mut tally);
    diag::finish(&mut m, on);
    traced_outcome(tally, m, tracer, timed.digests, digests)
}

/// The traced `resume-adaptive` run: the timed two-worker pass, the cold
/// journaled pass at one worker with spans off and on, then the resumed
/// pass with spans around journal open, replay and each layer.
pub fn trace_resume(b: &Bench) -> Outcome {
    let bugs = bugs(&b.sizes);
    let scale = b.sizes.resume_scale;
    let level = CausalityLevel::Adaptive;
    let order = order(&mut Rng::new(b.seed), bugs.len());
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let timed = resume_pass(b, &bugs, &order, &b.scratch.join("timed"), &mut tally);
    m.set(
        "exec.parallel_eff",
        ratio(timed.busy, WORKERS as f64 * timed.wall()),
    );

    let t = Instant::now();
    let programs = build(&bugs, &order, scale);
    m.set("corpus.build_s", secs(t.elapsed()));
    let ca = causality(level);
    let open = |dir: &Path, k: usize| {
        Arc::new(Journal::open(journal_path(dir, k)).expect("journal opens"))
    };

    // Every pass journals into a fresh directory; the first traced pass's
    // journals are kept for the resumed pass below.
    let mut passes = 0;
    let pass = |mut spans: Spans| {
        passes += 1;
        let dir = b.scratch.join(format!("cold-{passes}"));
        std::fs::create_dir_all(&dir).expect("journal directory is writable");
        let mut wall = 0.0;
        let mut traced = Vec::new();
        for (k, (&i, program)) in order.iter().zip(&programs).enumerate() {
            let lifs = bugs[i].lifs_config();
            let t = Instant::now();
            let journal = open(&dir, k);
            let exec = executor(1, cold_substrate(), Some(Arc::clone(&journal)));
            let d = match &mut spans {
                Some((tracer, m)) => {
                    let d = diag::diagnose_traced(program, &lifs, &ca, &exec, tracer, k, m);
                    let (_, flush) =
                        tracer.span("journal.flush", k, None, None, |_, _| journal.flush());
                    m.add("journal.flush_s", secs(flush.wall));
                    d
                }
                None => {
                    let d = diag::diagnose(program, &lifs, &ca, &exec);
                    journal.flush();
                    d
                }
            };
            wall += secs(t.elapsed());
            if let Some((_, m)) = &mut spans {
                m.add("journal.records", journal.stats().records_appended as f64);
                let bytes = std::fs::metadata(journal.path()).map_or(0, |md| md.len());
                m.add("journal.bytes", bytes as f64);
                diag::add_exec(m, &exec.stats());
            }
            traced.push(Traced {
                key: cve_key(bugs[i].id, scale, level),
                bug: i,
                diagnosed: d,
            });
        }
        if passes != 2 {
            let _ = std::fs::remove_dir_all(&dir);
        }
        (wall, (traced, dir))
    };
    let mut tracer = Tracer::new();
    let (on, (traced, dir), overhead) = off_on_on_off(pass, &mut tracer, &mut m);
    m.set("trace.overhead_s", overhead);

    // The resumed pass replays into the process-wide memo table, which no
    // other pass of this process consults.
    let programs = build(&bugs, &order, scale);
    let mut resumed = 0.0;
    for (k, (&i, program)) in order.iter().zip(&programs).enumerate() {
        let request = order.len() + k;
        let lifs = bugs[i].lifs_config();
        let t = Instant::now();
        let (journal, opened) =
            tracer.span("journal.open", request, None, None, |_, _| open(&dir, k));
        let (_, replay) = tracer.span("journal.replay", request, None, None, |_, _| {
            journal.replay_into_memo(program)
        });
        let exec = executor(1, Substrate::process_global(), Some(Arc::clone(&journal)));
        let d = diag::diagnose_traced(program, &lifs, &ca, &exec, &mut tracer, request, &mut m);
        resumed += secs(t.elapsed());
        m.add("journal.open_s", secs(opened.wall));
        m.add("journal.replay_s", secs(replay.wall));
        diag::add_exec(&mut m, &exec.stats());
        let key = cve_key(bugs[i].id, scale, level);
        let report = d.as_ref().map(|d| d.report.as_str());
        let digest = tally.diagnosis(b.digests, &key, report);
        tally.check(timed.digests.get(&key) == Some(&digest), || {
            format!("{key}: traced resumed digest differs from untraced")
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    m.set("trace.wall_s", on + resumed);
    let digests = check_traced(b, &bugs, &traced, &timed.digests, true, &mut m, &mut tally);
    diag::finish(&mut m, on + resumed);
    traced_outcome(tally, m, tracer, timed.digests, digests)
}

/// Digests of every corpus diagnosis the two workloads check at `sizes`.
pub fn record(sizes: &Sizes) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for bug in bugs(sizes) {
        for (scale, level) in [
            (sizes.table2_scale, CausalityLevel::Exhaustive),
            (sizes.resume_scale, CausalityLevel::Adaptive),
        ] {
            let program = bug.program_scaled(scale);
            let exec = executor(WORKERS, cold_substrate(), None);
            let d = diag::diagnose(&program, &bug.lifs_config(), &causality(level), &exec)
                .unwrap_or_else(|| panic!("{} does not reproduce at scale {scale}", bug.id));
            out.insert(
                cve_key(bug.id, scale, level),
                crate::check::digest(&d.report),
            );
        }
    }
    out
}
