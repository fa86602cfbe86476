//! Kill-and-restart properties of the `campaignd` queue.
//!
//! The crash-recovery contract: SIGKILL the daemon at ANY point in the
//! queue file's history — modeled as truncating `queue.wal` to a record
//! prefix (25/50/75% of records) plus an optional byte-level torn tail —
//! then restart and replay the submit list (submits are idempotent by
//! payload). Zero jobs are lost, every job reaches a terminal state, no
//! torn tail ever panics, and every diagnosis is bit-identical to the
//! uninterrupted run's.

use aitia_bench::experiments::CorpusJobResolver;
use aitia_repro::aitia::server::{
    CampaignServer,
    JobQueue,
    RetryBackoff,
    ServerConfig, //
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{
    Path,
    PathBuf, //
};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("aitia-server-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path) -> ServerConfig {
    ServerConfig {
        max_inflight: 2,
        drain: true,
        poll_ms: 5,
        backoff: RetryBackoff {
            base_ms: 1,
            max_ms: 4,
            seed: 3,
        },
        ..ServerConfig::at(dir)
    }
}

/// Terminal digests by payload from a folded queue.
fn digests_by_payload(server: &CampaignServer) -> BTreeMap<String, String> {
    server
        .jobs()
        .expect("queue folds")
        .values()
        .map(|j| {
            (
                j.payload.clone(),
                j.digest.clone().expect("terminal job has digest"),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Truncate the queue to 25/50/75% of its records (± an extra torn
    /// partial frame), restart, replay the submits, and drain: zero lost
    /// jobs and bit-identical digests.
    #[test]
    fn killed_queue_recovers_to_identical_digests(
        percent_idx in 0usize..3,
        tear in 0u64..12,
        seed_base in 0u64..500,
    ) {
        let percent = [25usize, 50, 75][percent_idx];
        let payloads: Vec<String> =
            (seed_base..seed_base + 8).map(|s| format!("gen:{s}")).collect();
        let dir = temp_dir(&format!("p{percent}-t{tear}-s{seed_base}"));

        // Uninterrupted reference run.
        let server = CampaignServer::open(config(&dir), Arc::new(CorpusJobResolver))
            .expect("server opens");
        for p in &payloads {
            server.submit(p).expect("submits fit");
        }
        let stats = server.run();
        prop_assert_eq!(stats.terminal() as usize, payloads.len());
        let reference = digests_by_payload(&server);
        drop(server);

        // SIGKILL at an arbitrary queue position: keep a prefix of
        // records, then (optionally) tear bytes off the last surviving
        // frame so the tail is mid-append garbage.
        let total = JobQueue::record_count(&dir).expect("record count");
        let keep = (total * percent) / 100;
        JobQueue::truncate_at_record(&dir, keep).expect("truncate");
        if tear > 0 {
            let path = dir.join("queue.wal");
            let len = std::fs::metadata(&path).expect("metadata").len();
            if len > tear + 12 {
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .expect("open queue file")
                    .set_len(len - tear)
                    .expect("tear tail");
            }
        }

        // Restart: recovery must never panic on the torn tail, a replayed
        // submit list must restore every lost job (idempotently — jobs
        // whose Submit survived keep their id), and the drain must land
        // every payload on the reference digest. Journals surviving under
        // journals/ make resumed campaigns replay rather than re-run.
        let server = CampaignServer::open(config(&dir), Arc::new(CorpusJobResolver))
            .expect("recovery opens");
        for p in &payloads {
            server.submit(p).expect("idempotent resubmit");
        }
        server.run();
        let recovered = digests_by_payload(&server);
        prop_assert_eq!(recovered.len(), payloads.len(), "a job was lost");
        for p in &payloads {
            prop_assert_eq!(
                &recovered[p], &reference[p],
                "{} diverged after crash recovery", p
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A torn tail alone (no record loss) must truncate cleanly and leave
/// every surviving record intact — the daemon never wedges on its own
/// mid-append crash.
#[test]
fn torn_tail_truncates_to_last_good_record_and_queue_keeps_working() {
    let dir = temp_dir("torn-only");
    {
        let queue = JobQueue::open(&dir).expect("queue opens");
        for s in 0..4u64 {
            queue.submit(&format!("gen:{s}"), 16).expect("submit");
        }
    }
    let path = dir.join("queue.wal");
    let len = std::fs::metadata(&path).expect("metadata").len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("open")
        .set_len(len - 5)
        .expect("tear");
    let queue = JobQueue::open(&dir).expect("reopen never panics");
    assert_eq!(queue.truncations(), 1, "tail repaired exactly once");
    let jobs = queue.fold().expect("fold");
    assert_eq!(jobs.len(), 3, "only the torn record is lost");
    assert_eq!(queue.submit("gen:3", 16).expect("resubmit"), 4);
    let _ = std::fs::remove_dir_all(&dir);
}
