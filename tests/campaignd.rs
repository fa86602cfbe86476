//! Soak test for the `campaignd` server: a stream of generated-corpus
//! seeds (plus deliberately poisoned payloads) through
//! [`aitia::server::CampaignServer`] at 1, 2, and 8 workers.
//!
//! The contract: every job reaches a terminal state, diagnoses are
//! bit-identical to direct single-campaign runs (and across worker
//! counts), and dead-lettered jobs never block the jobs submitted after
//! them. Eight concurrent campaigns diagnose Table 2 exactly as one
//! campaign at a time does (their wall-clock throughput is perfbench's
//! `campaignd-gen` `campaigns_per_hour`), and a job whose deadline cuts
//! its analysis short ends `Partial` with its report.

use aitia_bench::experiments::CorpusJobResolver;
use aitia_repro::aitia::server::{
    report_digest,
    CampaignServer,
    JobResolver,
    JobState,
    ResolvedJob,
    RetryBackoff,
    ServerConfig,
    NO_REPRO_DIGEST, //
};
use aitia_repro::aitia::{
    manager::ManagerConfig,
    report,
    Campaign,
    CampaignOutcome,
    CancelToken,
    Substrate, //
};
use aitia_repro::corpus;
use std::collections::BTreeMap;
use std::path::{
    Path,
    PathBuf, //
};
use std::sync::Arc;

/// How many generated seeds the soak streams through each server.
const SEEDS: u64 = 50;

/// Payloads whose scale or noise is out of range. Each once aborted the
/// process on a huge allocation or panicked in the resolver; now each
/// fails to resolve like any other poison.
const OUT_OF_RANGE: [&str; 3] = ["cve:CVE-2017-15649:1e12", "gen:3:1e12", "gen:3:inf"];

/// Whether the soak expects `payload` to dead-letter.
fn is_poison(payload: &str) -> bool {
    payload.starts_with("poison:") || OUT_OF_RANGE.contains(&payload)
}

fn temp_dir(tag: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("aitia-soak-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn soak_config(dir: &Path, workers: usize) -> ServerConfig {
    ServerConfig {
        max_inflight: workers,
        drain: true,
        poll_ms: 5,
        backoff: RetryBackoff {
            base_ms: 1,
            max_ms: 4,
            seed: 9,
        },
        ..ServerConfig::at(dir)
    }
}

/// The digest a direct, single-campaign run of `payload` produces — the
/// reference every server run must match bit-for-bit.
fn direct_digest(payload: &str) -> String {
    let resolved = CorpusJobResolver
        .resolve(payload)
        .expect("payload resolves");
    let campaign = Campaign::new(ManagerConfig {
        vms: 8,
        lifs: resolved.lifs,
        causality: resolved.causality,
        substrate: Substrate::private(4096, 64),
        ..ManagerConfig::default()
    });
    match campaign.diagnose_program(Arc::clone(&resolved.program)) {
        CampaignOutcome::Complete(d) => {
            report_digest(&report::render(&resolved.program, &d.failing, &d.result))
        }
        CampaignOutcome::Partial(p) => report_digest(&report::render(
            &resolved.program,
            &p.diagnosis.failing,
            &p.diagnosis.result,
        )),
        CampaignOutcome::NoReproduction { .. } => NO_REPRO_DIGEST.to_string(),
    }
}

#[test]
fn soak_fifty_seeds_at_one_two_and_eight_workers() {
    // Poison payloads interleave with the stream: two unknown payloads and
    // the out-of-range ones (resolver errors) submitted *before* most of
    // the work, so a wedged queue would starve everything behind them.
    let mut payloads: Vec<String> = vec!["poison:alpha".into()];
    payloads.extend(OUT_OF_RANGE.map(String::from));
    payloads.extend((0..SEEDS).map(|s| format!("gen:{s}")));
    payloads.insert(SEEDS as usize / 2, "poison:beta".into());
    let poisons = payloads.iter().filter(|p| is_poison(p)).count();

    // Reference digests from direct single-campaign runs, computed once.
    let reference: BTreeMap<&str, String> = payloads
        .iter()
        .filter(|p| !is_poison(p))
        .map(|p| (p.as_str(), direct_digest(p)))
        .collect();

    let mut per_worker_digests: Vec<BTreeMap<String, String>> = Vec::new();
    for workers in [1usize, 2, 8] {
        let dir = temp_dir(&format!("w{workers}"));
        let server = CampaignServer::open(soak_config(&dir, workers), Arc::new(CorpusJobResolver))
            .expect("server opens");
        for p in &payloads {
            server.submit(p).expect("soak submits fit the queue");
        }
        let stats = server.run();
        let jobs = server.jobs().expect("queue folds");

        // Every job reached a terminal state; nothing is stuck.
        assert_eq!(
            stats.terminal() as usize,
            payloads.len(),
            "{workers} workers: every job must be terminal"
        );
        assert!(
            jobs.values().all(|j| j.state.is_terminal()),
            "{workers} workers: non-terminal job in final fold"
        );

        // Poison jobs dead-letter with quarantine post-mortems and never
        // block the generated jobs behind them.
        let dead: Vec<_> = jobs
            .values()
            .filter(|j| j.state == JobState::DeadLettered)
            .collect();
        assert_eq!(
            dead.len(),
            poisons,
            "{workers} workers: every poison quarantined"
        );
        for j in &dead {
            assert!(is_poison(&j.payload), "{} dead-lettered", j.payload);
            assert!(
                dir.join(format!("quarantine/job-{}.json", j.id)).exists(),
                "{workers} workers: quarantine file for job {}",
                j.id
            );
        }
        assert_eq!(stats.dead_lettered, poisons as u64);

        // Diagnoses are bit-identical to direct single-campaign runs.
        let mut digests = BTreeMap::new();
        for j in jobs.values() {
            if is_poison(&j.payload) {
                continue;
            }
            let digest = j.digest.clone().expect("terminal generated job has digest");
            assert_eq!(
                &digest,
                &reference[j.payload.as_str()],
                "{workers} workers: {} diverged from the direct run",
                j.payload
            );
            digests.insert(j.payload.clone(), digest);
        }
        assert_eq!(digests.len(), SEEDS as usize);
        per_worker_digests.push(digests);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // And identical across worker counts (1 vs 2 vs 8).
    assert_eq!(per_worker_digests[0], per_worker_digests[1]);
    assert_eq!(per_worker_digests[0], per_worker_digests[2]);
}

#[test]
fn backpressure_rejects_past_the_bound_and_recovers_as_jobs_finish() {
    let dir = temp_dir("backpressure");
    let config = ServerConfig {
        max_queued: 4,
        ..soak_config(&dir, 2)
    };
    let server = CampaignServer::open(config, Arc::new(CorpusJobResolver)).expect("server opens");
    for s in 0..4u64 {
        server.submit(&format!("gen:{s}")).expect("under the bound");
    }
    assert!(
        server.submit("gen:99").is_err(),
        "fifth non-terminal job must be rejected"
    );
    assert_eq!(server.stats().rejected_full, 1);
    let stats = server.run();
    assert_eq!(stats.terminal(), 4);
    // Terminal jobs free admission slots: the rejected payload fits now.
    server.submit("gen:99").expect("bound freed after drain");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrency changes no diagnosis, at scale 0.05: 30 `cve:` payloads
/// (each Table 2 bug at the scale times 1, 0.5 and 0.25) through an 8-VM
/// server, once at `max_inflight` 1 and once at 8. Per-job digests must be
/// non-empty and identical across the two runs.
#[test]
fn eight_concurrent_campaigns_diagnose_table2_like_one_at_a_time() {
    const SCALE: f64 = 0.05;
    let payloads: Vec<String> = corpus::cves()
        .iter()
        .flat_map(|b| [1.0, 0.5, 0.25].map(|m| format!("cve:{}:{}", b.id, SCALE * m)))
        .collect();
    let side = |max_inflight: usize| {
        let dir = temp_dir(&format!("gate-{max_inflight}"));
        // `ServerConfig::at` gives each side its own private substrate.
        let config = ServerConfig {
            max_inflight,
            total_vms: 8,
            drain: true,
            poll_ms: 5,
            ..ServerConfig::at(&dir)
        };
        let server =
            CampaignServer::open(config, Arc::new(CorpusJobResolver)).expect("server opens");
        let ids: Vec<u64> = payloads
            .iter()
            .map(|p| server.submit(p).expect("gate submits fit the queue"))
            .collect();
        server.run();
        let jobs = server.jobs().expect("queue folds");
        let digests: Vec<String> = ids
            .iter()
            .map(|id| jobs[id].digest.clone().unwrap_or_default())
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        digests
    };
    let serial_digests = side(1);
    let concurrent_digests = side(8);
    assert!(
        serial_digests.iter().all(|d| !d.is_empty()),
        "every job must finish with a digest"
    );
    assert_eq!(serial_digests, concurrent_digests);
}

/// Resolves like [`CorpusJobResolver`], but gives the analysis a token
/// whose deadline has already passed: LIFS reproduces, and the analysis is
/// cut at its first claim.
struct ExpiredAnalysisResolver;

impl JobResolver for ExpiredAnalysisResolver {
    fn resolve(&self, payload: &str) -> Result<ResolvedJob, String> {
        let mut job = CorpusJobResolver.resolve(payload)?;
        job.causality.cancel = CancelToken::new().with_deadline_s(0.0);
        Ok(job)
    }
}

/// campaignd's partial path: a job whose analysis deadline has passed ends
/// `Partial`, not faulted, with its report (PARTIAL banner included)
/// written and that report's digest recorded.
#[test]
fn an_expired_analysis_deadline_ends_the_job_partial_with_its_report() {
    let dir = temp_dir("partial");
    let server = CampaignServer::open(soak_config(&dir, 1), Arc::new(ExpiredAnalysisResolver))
        .expect("server opens");
    let id = server
        .submit("cve:CVE-2017-15649:0.05")
        .expect("the submit fits the queue");
    let stats = server.run();
    assert_eq!((stats.partial, stats.terminal()), (1, 1));
    assert_eq!(stats.supervisor_faults, 0);
    let jobs = server.jobs().expect("queue folds");
    assert_eq!(jobs[&id].state, JobState::Partial);
    let report = std::fs::read_to_string(dir.join(format!("results/job-{id}.report.txt")))
        .expect("the partial report is written");
    assert!(report.contains("PARTIAL diagnosis"), "{report}");
    let text = report.strip_suffix('\n').expect("trailing newline");
    assert_eq!(
        jobs[&id].digest.as_deref(),
        Some(report_digest(text).as_str())
    );
    let _ = std::fs::remove_dir_all(&dir);
}
