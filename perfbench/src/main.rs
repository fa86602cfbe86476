//! Host wall-clock benchmark of time to a finished diagnosis.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table2 --seed 1 --seconds 15 --trace 0
//! ```
//!
//! One process runs one workload (`table2`, `campaignd-gen` or
//! `resume-adaptive`) through the public API of `aitia` and `corpus`,
//! checks every diagnosis against the digests in `digests.json`, and prints
//! one JSON result as the last line of stdout. With `--trace 0` the result
//! holds the end-to-end metrics; with `--trace 1` it holds the per-layer
//! metrics of a traced run over the same inputs. `--record-digests` prints
//! a fresh `digests.json`. See `README.md` for what each metric means.

mod campaignd;
mod check;
mod diag;
mod host;
mod json;
mod metrics;
mod table2;
mod trace;

use check::{
    Digests,
    Tally, //
};
use host::median;
use json::Json;
use metrics::{
    Metrics,
    END_TO_END,
    PER_LAYER, //
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// Workers of the timed runs. The benchmark refuses to run on a host with
/// fewer hardware threads.
pub const WORKERS: usize = 2;

/// Input sizes of the workloads.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Noise scale of the `table2` programs.
    pub table2_scale: f64,
    /// Noise scale of the `resume-adaptive` programs.
    pub resume_scale: f64,
    /// How many of Table 2's CVE bugs the corpus workloads diagnose.
    pub bugs: usize,
    /// Generated bugs submitted per `campaignd-gen` pass.
    pub gen_jobs: usize,
}

/// The sizes the benchmark measures.
pub const FULL: Sizes = Sizes {
    table2_scale: 0.3,
    resume_scale: 0.1,
    bugs: 10,
    gen_jobs: 80,
};

/// Sizes small enough for the self-tests.
pub const TINY: Sizes = Sizes {
    table2_scale: 0.05,
    resume_scale: 0.05,
    bugs: 3,
    gen_jobs: 6,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Table2,
    CampaigndGen,
    ResumeAdaptive,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "table2" => Some(Workload::Table2),
            "campaignd-gen" => Some(Workload::CampaigndGen),
            "resume-adaptive" => Some(Workload::ResumeAdaptive),
            _ => None,
        }
    }
}

/// Everything a workload needs to run.
pub struct Bench<'a> {
    pub seed: u64,
    /// How long the untraced run keeps repeating passes.
    pub seconds: f64,
    pub sizes: Sizes,
    pub digests: &'a Digests,
    /// Scratch directory for journals and server state, removed afterwards.
    pub scratch: PathBuf,
}

/// What one pass of a workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Each repetition of the pass's set-up: program building, scratch
    /// dirs, server opening.
    pub setup: Vec<f64>,
    /// Wall time of each diagnosis of the main pass (each campaign's time
    /// on the server on `campaignd-gen`), by input key.
    pub main: Vec<(String, f64)>,
    /// The same for the resumed pass.
    pub resume: Vec<(String, f64)>,
    /// Executor busy seconds of the main pass (summed over workers).
    pub busy: f64,
    /// Report digest of every diagnosis, by input key.
    pub digests: BTreeMap<String, String>,
}

/// The result of one run.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    /// Pass count and per-diagnosis times, for the provenance block.
    pub info: Json,
    pub tracer: Option<Tracer>,
    /// Digests of the untraced diagnoses (traced runs only).
    pub untraced: BTreeMap<String, String>,
    /// Digests of the traced diagnoses (traced runs only).
    pub traced: BTreeMap<String, String>,
}

impl Pass {
    /// Wall clock of the main pass.
    pub fn wall(&self) -> f64 {
        self.main.iter().map(|(_, t)| t).sum()
    }
}

/// Each item's fastest time over the passes. The host shares its CPUs:
/// contention only ever adds time, and it comes in bursts that a single
/// pass may or may not meet, so the fastest pass is the steadiest
/// estimate of what the code costs.
fn best(passes: &[Pass], items: fn(&Pass) -> &Vec<(String, f64)>) -> BTreeMap<&str, f64> {
    let mut by_key: BTreeMap<&str, f64> = BTreeMap::new();
    for (key, t) in passes.iter().flat_map(items) {
        let best = by_key.entry(key).or_insert(f64::INFINITY);
        *best = best.min(*t);
    }
    by_key
}

impl Outcome {
    /// The end-to-end metrics of repeated passes; `rss_mb` is the peak
    /// resident set after the first pass, which does not depend on how
    /// many passes the host's speed allowed.
    pub fn untraced(tally: Tally, passes: &[Pass], rss_mb: f64) -> Outcome {
        let main = best(passes, |p| &p.main);
        let times: Vec<f64> = main.values().copied().collect();
        let wall: f64 = times.iter().sum();
        let setup = passes.iter().flat_map(|p| p.setup.iter().copied());
        let mut m = Metrics::default();
        m.set("setup_s", setup.fold(f64::INFINITY, f64::min));
        m.set("wall_s", wall);
        m.set("diag_p50_s", median(&times));
        m.set("resume_wall_s", best(passes, |p| &p.resume).values().sum());
        m.set(
            "campaigns_per_hour",
            host::ratio(times.len() as f64 * 3600.0, wall),
        );
        m.set("peak_rss_mb", rss_mb);
        let info = Json::obj([
            ("passes", passes.len().into()),
            (
                "diagnosis_s",
                Json::obj(main.into_iter().map(|(k, t)| (k, t.into()))),
            ),
        ]);
        Outcome {
            tally,
            metrics: m,
            info,
            tracer: None,
            untraced: BTreeMap::new(),
            traced: BTreeMap::new(),
        }
    }
}

/// How often each pass repeats its set-up, so that `setup_s`, the fastest
/// set-up of the run, rests on many samples even when a run holds few
/// passes.
const SETUP_REPEATS: usize = 25;

/// Runs `setup` `SETUP_REPEATS` times, recording each duration in `times`,
/// and returns the last result.
pub fn set_up<T>(times: &mut Vec<f64>, mut setup: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let out = setup();
        times.push(host::secs(t.elapsed()));
        last = Some(out);
    }
    last.expect("SETUP_REPEATS is positive")
}

/// Runs `pass` until `seconds` have elapsed, at least once. Returns the
/// passes and the peak resident set after the first, in MB.
pub fn repeat(seconds: f64, mut pass: impl FnMut() -> Pass) -> (Vec<Pass>, f64) {
    let start = Instant::now();
    let mut out = vec![pass()];
    let rss_mb = host::peak_rss_mb();
    while start.elapsed().as_secs_f64() < seconds {
        out.push(pass());
    }
    (out, rss_mb)
}

/// Runs one workload, untraced or traced.
pub fn run(workload: Workload, trace: bool, bench: &Bench) -> Outcome {
    std::fs::create_dir_all(&bench.scratch).expect("scratch directory is writable");
    let outcome = match (workload, trace) {
        (Workload::Table2, false) => table2::run_table2(bench),
        (Workload::Table2, true) => table2::trace_table2(bench),
        (Workload::ResumeAdaptive, false) => table2::run_resume(bench),
        (Workload::ResumeAdaptive, true) => table2::trace_resume(bench),
        (Workload::CampaigndGen, false) => campaignd::run(bench),
        (Workload::CampaigndGen, true) => campaignd::trace(bench),
    };
    // Journals reach gigabytes at large scales: never leave them behind.
    let _ = std::fs::remove_dir_all(&bench.scratch);
    outcome
}

/// The result line: correctness plus every metric of `list`.
pub fn result_json(outcome: &Outcome, list: &[(&str, &str)]) -> Json {
    Json::obj([
        ("correct", (outcome.tally.failed == 0).into()),
        ("attempted", outcome.tally.attempted.into()),
        ("failed", outcome.tally.failed.into()),
        ("metrics", outcome.metrics.to_json(list)),
    ])
}

const USAGE: &str = "usage: perfbench --workload <table2|campaignd-gen|resume-adaptive> \
--seed <u64> --seconds <n> --trace <0|1>
       perfbench --record-digests";

fn usage_exit(msg: &str) -> ! {
    eprintln!("perfbench: {msg}\n{USAGE}");
    std::process::exit(2);
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Option<Args> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--record-digests") {
        return None;
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage_exit(&format!("{flag} needs a value"));
        };
        let valid = match flag.as_str() {
            "--workload" => {
                workload = Workload::parse(value);
                workload.is_some()
            }
            "--seed" => {
                seed = value.parse::<u64>().ok();
                seed.is_some()
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0);
                seconds.is_some()
            }
            "--trace" => {
                trace = matches!(value.as_str(), "0" | "1").then(|| value == "1");
                trace.is_some()
            }
            _ => usage_exit(&format!("unknown flag {flag:?}")),
        };
        if !valid {
            usage_exit(&format!("{flag}: invalid value {value:?}"));
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Some(Args {
            workload,
            seed,
            seconds,
            trace,
        }),
        _ => usage_exit("--workload, --seed, --seconds and --trace are required"),
    }
}

/// Diagnoses every input the benchmark can check and prints the digests as
/// the new `digests.json`.
fn record_digests() {
    let mut out = Digests(BTreeMap::new());
    for sizes in [FULL, TINY] {
        out.0.extend(table2::record(&sizes));
    }
    out.0.extend(campaignd::record(FULL.gen_jobs as u64));
    print!("{}", out.render());
}

fn main() {
    let Some(args) = parse_args() else {
        record_digests();
        return;
    };
    let threads = host::available_parallelism();
    if threads < WORKERS {
        eprintln!(
            "perfbench: refusing to run {WORKERS} workers on a host with \
             available_parallelism {threads}"
        );
        std::process::exit(2);
    }
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let out_dir = exe
        .parent()
        .expect("the executable has a directory")
        .to_path_buf();
    let digests = Digests::stored();
    let bench = Bench {
        seed: args.seed,
        seconds: args.seconds,
        sizes: FULL,
        digests: &digests,
        scratch: out_dir.join(format!("perfbench-scratch-{}", std::process::id())),
    };
    let name = match args.workload {
        Workload::Table2 => "table2",
        Workload::CampaigndGen => "campaignd-gen",
        Workload::ResumeAdaptive => "resume-adaptive",
    };
    let outcome = run(args.workload, args.trace, &bench);

    for note in &outcome.tally.notes {
        eprintln!("perfbench: FAILED {note}");
    }
    if let Some(tracer) = &outcome.tracer {
        let path = out_dir.join(format!("perfbench-spans-{name}.jsonl"));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("perfbench: {} spans in {}", tracer.len(), path.display()),
            Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
        }
    }
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    for &(metric, unit) in list {
        eprintln!("{metric:<24} {:>16.6} {unit}", outcome.metrics.get(metric));
    }
    let provenance = Json::obj([
        ("host", host::provenance()),
        ("workload", name.into()),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("trace", args.trace.into()),
        ("workers", WORKERS.into()),
        (
            "traced_workers",
            (if args.trace { 1 } else { WORKERS }).into(),
        ),
        ("table2_scale", bench.sizes.table2_scale.into()),
        ("resume_scale", bench.sizes.resume_scale.into()),
        ("bugs", bench.sizes.bugs.into()),
        ("gen_jobs", bench.sizes.gen_jobs.into()),
        ("samples", outcome.info.clone()),
    ]);
    println!("{}", Json::obj([("provenance", provenance)]));
    println!("{}", result_json(&outcome, list));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(serde::Deserialize)]
    struct Declared {
        name: String,
        unit: String,
    }

    #[derive(serde::Deserialize)]
    struct BenchmarkJson {
        end_to_end: Vec<Declared>,
        per_layer: Vec<Declared>,
    }

    const WORKLOADS: [Workload; 3] = [
        Workload::Table2,
        Workload::CampaigndGen,
        Workload::ResumeAdaptive,
    ];

    fn tiny<'a>(digests: &'a Digests, name: &str) -> Bench<'a> {
        let dir = format!("perfbench-test-{name}-{}", std::process::id());
        Bench {
            seed: 7,
            seconds: 0.0,
            sizes: TINY,
            digests,
            scratch: std::env::temp_dir().join(dir),
        }
    }

    /// The `(name, unit)` pairs of a result line's `metrics` object.
    fn printed(result: &Json) -> Vec<(String, String)> {
        let Json::Obj(fields) = result else {
            panic!("result is an object")
        };
        let (_, Json::Obj(metrics)) = fields
            .iter()
            .find(|(k, _)| k == "metrics")
            .expect("metrics")
        else {
            panic!("metrics is an object")
        };
        metrics
            .iter()
            .map(|(name, value)| {
                let Json::Obj(v) = value else {
                    panic!("{name} is an object")
                };
                assert!(
                    matches!(v[0], (ref k, Json::Num(_)) if k == "value"),
                    "{name} has a value"
                );
                let (_, Json::Str(unit)) = &v[1] else {
                    panic!("{name} has a unit")
                };
                (name.clone(), unit.clone())
            })
            .collect()
    }

    #[test]
    fn every_declared_metric_is_printed_with_its_unit() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let declared: BenchmarkJson = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let digests = Digests::stored();
        for workload in WORKLOADS {
            for (trace, list) in [(false, &declared.end_to_end), (true, &declared.per_layer)] {
                let bench = tiny(&digests, &format!("metrics-{workload:?}-{trace}"));
                let outcome = run(workload, trace, &bench);
                assert_eq!(
                    outcome.tally.failed, 0,
                    "{workload:?}: {:?}",
                    outcome.tally.notes
                );
                let consts = if trace { PER_LAYER } else { END_TO_END };
                let got = printed(&result_json(&outcome, consts));
                let want: Vec<(String, String)> = list
                    .iter()
                    .map(|d| (d.name.clone(), d.unit.clone()))
                    .collect();
                assert_eq!(got, want, "{workload:?} trace={trace}");
            }
        }
    }

    #[test]
    fn a_wrong_stored_digest_raises_failed_frac() {
        let mut digests = Digests::stored();
        let key = check::cve_key(
            corpus::cves()[0].id,
            TINY.table2_scale,
            aitia::CausalityLevel::Exhaustive,
        );
        digests.0.insert(key, "0000000000000000".into());
        let bench = tiny(&digests, "wrong-digest");
        let untraced = run(Workload::Table2, false, &bench);
        assert!(untraced.tally.failed > 0);
        let traced = run(Workload::Table2, true, &bench);
        assert!(traced.metrics.get("failed_frac") > 0.0);
    }

    #[test]
    fn traced_and_untraced_digests_agree() {
        let digests = Digests::stored();
        for workload in WORKLOADS {
            let bench = tiny(&digests, &format!("agree-{workload:?}"));
            let outcome = run(workload, true, &bench);
            assert!(!outcome.traced.is_empty(), "{workload:?} traced nothing");
            assert_eq!(outcome.traced, outcome.untraced, "{workload:?}");
            assert_eq!(
                outcome.metrics.get("failed_frac"),
                0.0,
                "{:?}",
                outcome.tally.notes
            );
        }
    }
}
