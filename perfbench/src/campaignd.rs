//! The `campaignd-gen` workload: a closed batch of generated bugs
//! submitted as `gen:<seed>` payloads to a fresh `CampaignServer`, which
//! then drains them. The seed picks which recorded generator seeds run.

use crate::check::{
    gen_key,
    Tally, //
};
use crate::diag;
use crate::host::{
    median,
    ratio,
    secs,
    Rng, //
};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::trace::Tracer;
use crate::{
    set_up,
    Bench,
    Outcome,
    Pass,
    WORKERS, //
};
use aitia::server::{
    JobResolver,
    ResolvedJob, //
};
use aitia::{
    CampaignServer,
    CausalityConfig,
    JobState,
    ServerConfig, //
};
use corpus::generate::{
    generate,
    GeneratedBug, //
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{
    AtomicU64,
    Ordering, //
};
use std::sync::{
    Arc,
    Mutex, //
};
use std::thread::ThreadId;
use std::time::{
    Duration,
    Instant, //
};

/// Resolves `gen:<seed>` payloads against `corpus::generate`, recording
/// when each campaign starts and how long resolving took.
#[derive(Default)]
struct GenResolver {
    starts: Mutex<Vec<(ThreadId, Instant, u64)>>,
    resolve_ns: AtomicU64,
}

impl JobResolver for GenResolver {
    fn resolve(&self, payload: &str) -> Result<ResolvedJob, String> {
        let start = Instant::now();
        let seed: u64 = payload
            .strip_prefix("gen:")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("unexpected payload {payload:?}"))?;
        self.starts
            .lock()
            .expect("no resolver panics while holding the lock")
            .push((std::thread::current().id(), start, seed));
        let bug = generate(seed);
        let job = ResolvedJob {
            program: Arc::clone(&bug.program),
            lifs: bug.lifs_config(),
            causality: CausalityConfig::default(),
            fault: None,
        };
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.resolve_ns.fetch_add(ns, Ordering::Relaxed);
        Ok(job)
    }
}

impl GenResolver {
    /// Each campaign's time on its server worker, by payload: from its
    /// start to the next start on the same worker thread, or to `end`.
    fn service_times(&self, end: Instant) -> Vec<(String, f64)> {
        let starts = self.starts.lock().expect("resolver lock");
        let mut by_thread: BTreeMap<String, Vec<(Instant, u64)>> = BTreeMap::new();
        for (thread, at, seed) in starts.iter() {
            by_thread
                .entry(format!("{thread:?}"))
                .or_default()
                .push((*at, *seed));
        }
        let mut out = Vec::new();
        for mut starts in by_thread.into_values() {
            starts.sort();
            let ends = starts.iter().skip(1).map(|(at, _)| *at).chain([end]);
            out.extend(
                starts
                    .iter()
                    .zip(ends)
                    .map(|((at, seed), end)| (gen_key(*seed), secs(end - *at))),
            );
        }
        out
    }
}

/// One server pass plus the numbers only the traced run reports.
struct ServerPass {
    pass: Pass,
    submit_s: f64,
    submit_p50_ms: f64,
    run_s: f64,
    resolve_s: f64,
    fold_s: f64,
    queue_bytes: u64,
    journal_records: usize,
    journal_bytes: u64,
}

/// Campaigns the server runs at once. Two concurrent campaigns race on the
/// queue lock: a thread that finds the lock file created but its PID not
/// yet written judges it stale and breaks it, so two appends overlap and a
/// finished job's terminal record is truncated away. Until that is fixed,
/// one campaign at a time holds all `WORKERS` VM slots.
const SERVER_INFLIGHT: usize = 1;

fn open_server(dir: &Path, workers: usize, resolver: &Arc<GenResolver>) -> CampaignServer {
    let config = ServerConfig {
        max_inflight: SERVER_INFLIGHT,
        total_vms: workers,
        drain: true,
        ..ServerConfig::at(dir)
    };
    let resolver: Arc<dyn JobResolver> = resolver.clone();
    CampaignServer::open(config, resolver).expect("scratch server directory is writable")
}

/// Submits every seed, drains the server and checks each job. Returns the
/// job ids, the submit latencies and the drain's wall clock and end.
fn submit_and_drain(
    server: &CampaignServer,
    seeds: &[u64],
    tracer: &mut Option<&mut Tracer>,
) -> (Vec<u64>, Vec<Duration>, Duration, u64) {
    let mut ids = Vec::with_capacity(seeds.len());
    let mut latencies = Vec::with_capacity(seeds.len());
    for (k, &seed) in seeds.iter().enumerate() {
        let t = Instant::now();
        let id = server
            .submit(&gen_key(seed))
            .expect("the batch fits the queue");
        latencies.push(t.elapsed());
        if let Some(tr) = tracer {
            tr.record("server.submit", k, t, Instant::now());
        }
        ids.push(id);
    }
    let t = Instant::now();
    let stats = server.run();
    let run = t.elapsed();
    if let Some(tr) = tracer {
        tr.record("server.run", seeds.len(), t, Instant::now());
    }
    (ids, latencies, run, stats.terminal())
}

/// Checks every job ended `Complete` with its stored digest; returns the
/// digests by key.
fn check_jobs(
    b: &Bench,
    jobs: &BTreeMap<u64, aitia::JobSnapshot>,
    ids: &[u64],
    seeds: &[u64],
    tally: &mut Tally,
) -> BTreeMap<String, String> {
    let mut digests = BTreeMap::new();
    for (id, &seed) in ids.iter().zip(seeds) {
        let key = gen_key(seed);
        let job = jobs.get(id);
        let digest = job.and_then(|j| j.digest.clone()).unwrap_or_default();
        let complete = job.is_some_and(|j| j.state == JobState::Complete);
        tally.check(
            complete && b.digests.get(&key) == Some(digest.as_str()),
            || {
                format!(
                    "{key}: job {id} ended {:?} with digest {digest}",
                    job.map(|j| j.state)
                )
            },
        );
        digests.insert(key, digest);
    }
    digests
}

/// One pass: open a fresh server (set-up), submit and drain (the main
/// pass; the resolver generates each program), then restart a server over
/// a fresh queue with the surviving per-job journals and drain the batch
/// again (the resumed pass).
fn server_pass(
    b: &Bench,
    seeds: &[u64],
    workers: usize,
    pass_no: usize,
    mut tracer: Option<&mut Tracer>,
    tally: &mut Tally,
) -> ServerPass {
    let base = b.scratch.join(format!("campaignd-{pass_no}"));
    let restart = base.join("restart");
    let resolver = Arc::new(GenResolver::default());
    let mut setup = Vec::new();
    let mut opened = 0;
    let (dir, server) = set_up(&mut setup, || {
        opened += 1;
        let dir = base.join(format!("open-{opened}"));
        let server = open_server(&dir, workers, &resolver);
        (dir, server)
    });

    let (ids, latencies, run, terminal) = submit_and_drain(&server, seeds, &mut tracer);
    let end = Instant::now();
    let t = Instant::now();
    let jobs = server.jobs().expect("the queue folds after the drain");
    let fold = t.elapsed();
    if let Some(tr) = tracer {
        tr.record("server.fold", seeds.len(), t, Instant::now());
    }
    let digests = check_jobs(b, &jobs, &ids, seeds, tally);
    let submit: Duration = latencies.iter().sum();
    let queue_bytes = std::fs::metadata(dir.join("queue.wal")).map_or(0, |m| m.len());
    let mut journal_records = 0;
    let mut journal_bytes = 0;
    for id in &ids {
        let path = dir.join("journals").join(format!("job-{id}.wal"));
        journal_records += aitia::journal::record_count(&path).unwrap_or(0);
        journal_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
    }
    drop(server);

    std::fs::create_dir_all(&restart).expect("scratch server directory is writable");
    std::fs::rename(dir.join("journals"), restart.join("journals")).expect("journals move");
    let restarted = Arc::new(GenResolver::default());
    let server = open_server(&restart, workers, &restarted);
    let (ids2, _, _, _) = submit_and_drain(&server, seeds, &mut None);
    let resume_end = Instant::now();
    let jobs2 = server.jobs().expect("the queue folds after the drain");
    for (id, &seed) in ids2.iter().zip(seeds) {
        let key = gen_key(seed);
        let again = jobs2.get(id).and_then(|j| j.digest.clone());
        tally.check(again.as_ref() == digests.get(&key), || {
            format!("{key}: restarted job {id} digest differs")
        });
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&base);

    let main = resolver.service_times(end);
    tally.check(
        main.len() == seeds.len() && terminal == seeds.len() as u64,
        || {
            format!(
                "{} campaigns started, {terminal} ended, {} submitted",
                main.len(),
                seeds.len()
            )
        },
    );
    let pass = Pass {
        setup,
        busy: main.iter().map(|(_, t)| t).sum(),
        main,
        resume: restarted.service_times(resume_end),
        digests,
    };
    ServerPass {
        pass,
        submit_s: secs(submit),
        submit_p50_ms: median(&latencies.iter().map(|d| secs(*d) * 1e3).collect::<Vec<_>>()),
        run_s: secs(run),
        resolve_s: resolver.resolve_ns.load(Ordering::Relaxed) as f64 / 1e9,
        fold_s: secs(fold),
        queue_bytes,
        journal_records,
        journal_bytes,
    }
}

/// The generator seeds of this run: the first `gen_jobs` of the recorded
/// pool, in a seeded submission order. Every seed runs the same set of
/// campaigns, so runs differ only in order and host noise.
fn seeds(b: &Bench) -> Vec<u64> {
    let mut pool = b.digests.gen_seeds();
    pool.sort_unstable();
    pool.truncate(b.sizes.gen_jobs);
    Rng::new(b.seed).shuffle(&mut pool);
    pool
}

pub fn run(b: &Bench) -> Outcome {
    let seeds = seeds(b);
    let mut tally = Tally::default();
    let mut n = 0;
    let (passes, rss_mb) = crate::repeat(b.seconds, || {
        n += 1;
        server_pass(b, &seeds, WORKERS, n, None, &mut tally).pass
    });
    Outcome::untraced(tally, &passes, rss_mb)
}

/// The traced run: the timed two-worker pass (untraced digests and worker
/// occupancy), the same batch at one worker with spans off and on, then
/// every generated bug diagnosed directly at one worker with layer spans,
/// where its planted race is checked against the chain.
pub fn trace(b: &Bench) -> Outcome {
    let seeds = seeds(b);
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let timed = server_pass(b, &seeds, WORKERS, 1, None, &mut tally);
    m.set(
        "exec.parallel_eff",
        ratio(timed.pass.busy, SERVER_INFLIGHT as f64 * timed.run_s),
    );
    m.set("server.submit_p50_ms", timed.submit_p50_ms);
    // Spans off, on, on, off: drift over the run cancels out of the
    // overhead; the first traced pass supplies the spans.
    let wall = |p: &ServerPass| p.submit_s + p.run_s;
    let off1 = wall(&server_pass(b, &seeds, 1, 2, None, &mut tally));
    let mut tracer = Tracer::new();
    let on = server_pass(b, &seeds, 1, 3, Some(&mut tracer), &mut tally);
    let on2 = wall(&server_pass(
        b,
        &seeds,
        1,
        4,
        Some(&mut Tracer::new()),
        &mut tally,
    ));
    let off2 = wall(&server_pass(b, &seeds, 1, 5, None, &mut tally));
    m.set("trace.wall_s", wall(&on));
    m.set("trace.overhead_s", (wall(&on) + on2 - off1 - off2) / 2.0);
    m.set("server.submit_s", on.submit_s);
    m.set("server.run_s", on.run_s);
    m.set("server.resolve_s", on.resolve_s);
    m.set("server.fold_s", on.fold_s);
    m.set("server.queue_bytes", on.queue_bytes as f64);
    m.set("journal.records", on.journal_records as f64);
    m.set("journal.bytes", on.journal_bytes as f64);
    for (key, digest) in &on.pass.digests {
        tally.check(timed.pass.digests.get(key) == Some(digest), || {
            format!("{key}: one-worker server digest differs")
        });
    }

    let t = Instant::now();
    let manifests: Vec<GeneratedBug> = seeds.iter().map(|&s| generate(s)).collect();
    m.set("corpus.build_s", secs(t.elapsed()));
    let ca = CausalityConfig::default();
    let mut attributed = 0.0;
    let mut traced = BTreeMap::new();
    for (k, bug) in manifests.iter().enumerate() {
        let exec = diag::executor(1, diag::cold_substrate(), None);
        let lifs = bug.lifs_config();
        let request = seeds.len() + 1 + k;
        let t = Instant::now();
        let d = diag::diagnose_traced(
            &bug.program,
            &lifs,
            &ca,
            &exec,
            &mut tracer,
            request,
            &mut m,
        );
        attributed += secs(t.elapsed());
        diag::add_exec(&mut m, &exec.stats());
        let key = gen_key(bug.config.seed);
        let digest = tally.diagnosis(b.digests, &key, d.as_ref().map(|d| d.report.as_str()));
        tally.check(timed.pass.digests.get(&key) == Some(&digest), || {
            format!("{key}: traced digest differs from the server's")
        });
        tally.check(
            d.as_ref()
                .is_some_and(|d| bug.planted_in_chain(&d.result.chain)),
            || format!("{key}: planted race missing from the chain"),
        );
        if let Some(d) = &d {
            diag::retime(d, &lifs, false, &mut m, &mut tally);
        }
        traced.insert(key, digest);
    }
    diag::finish(&mut m, attributed);
    m.set("failed_frac", tally.failed_frac());
    Outcome {
        info: Json::obj([("campaigns", seeds.len().into())]),
        tally,
        metrics: m,
        tracer: Some(tracer),
        untraced: timed.pass.digests,
        traced,
    }
}

/// Digests of the generator seeds below `candidates` whose diagnosis
/// completes with a planted race in the chain: the `campaignd-gen` set.
pub fn record(candidates: u64) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for seed in 0..candidates {
        let bug = generate(seed);
        let exec = diag::executor(WORKERS, diag::cold_substrate(), None);
        let d = diag::diagnose(
            &bug.program,
            &bug.lifs_config(),
            &CausalityConfig::default(),
            &exec,
        );
        if let Some(d) = d.filter(|d| bug.planted_in_chain(&d.result.chain)) {
            out.insert(gen_key(seed), crate::check::digest(&d.report));
        }
    }
    out
}
