//! Regression tests for the generative bug corpus (`corpus::generate`)
//! and the differential fuzz harness built on it.
//!
//! The golden table pins the manifests of the first eight seeds: the
//! generator is a *versioned artifact* — any change to its grammar, its
//! family builders, or the underlying random stream shows up here as a
//! precise per-seed diff instead of silently invalidating every recorded
//! reproducer seed. Update the table deliberately.
//!
//! The matrix tests run a small pinned seed range through the full
//! 24-cell executor configuration matrix in-process — the same harness
//! `report fuzz` runs at 200-seed scale — asserting bit-identical
//! diagnosis digests and planted-race recall at both causality levels
//! (the corpus gate).

use aitia_bench::experiments::{
    bench_corpus,
    corpus_matrix,
    diagnose_generated,
    generated_digest, //
};
use aitia_repro::corpus::generate::{
    generate,
    generate_with,
    shrink,
    GenConfig, //
};
use aitia_repro::ksim::engine::Engine;
use aitia_repro::ksim::ThreadId;
use std::sync::Arc;

/// `(name, family, kind, target_func, planted pairs, total instrs)` for
/// the first eight seeds at default knobs.
const GOLDEN: &[(&str, &str, &str, &str, &str, usize)] = &[
    (
        "gen-lock-0",
        "lock",
        "UseAfterFree",
        "gen_guarded_read",
        "[(P0:8, P1:8), (P1:10, P0:11)]",
        29,
    ),
    (
        "gen-list-1",
        "list",
        "UseAfterFree",
        "gen_publish_path",
        "[(P0:12, P1:11), (P1:15, P0:15)]",
        34,
    ),
    (
        "gen-rcu-2",
        "rcu",
        "UseAfterFree",
        "gen_rcu_reader",
        "[(P1:8, P2:9), (P0:0, P1:13)]",
        29,
    ),
    (
        "gen-refcount-3",
        "refcount",
        "RefcountWarning",
        "gen_kref_get_path",
        "[(P0:9, P1:9), (P1:9, P0:13)]",
        26,
    ),
    (
        "gen-rcu-4",
        "rcu",
        "UseAfterFree",
        "gen_rcu_reader",
        "[(P1:12, P2:10), (P0:0, P1:16)]",
        39,
    ),
    (
        "gen-list-5",
        "list",
        "UseAfterFree",
        "gen_publish_path",
        "[(P1:9, P2:8), (P0:0, P1:13)]",
        34,
    ),
    (
        "gen-list-6",
        "list",
        "UseAfterFree",
        "gen_publish_path",
        "[(P1:10, P2:9), (P0:0, P1:14)]",
        38,
    ),
    (
        "gen-rcu-7",
        "rcu",
        "UseAfterFree",
        "gen_rcu_reader",
        "[(P1:11, P2:9), (P0:0, P1:15)]",
        35,
    ),
];

#[test]
fn generator_manifests_match_golden() {
    for (seed, &(name, family, kind, func, planted, instrs)) in GOLDEN.iter().enumerate() {
        let b = generate(seed as u64);
        assert_eq!(b.name, name);
        assert_eq!(b.family.tag(), family);
        assert_eq!(format!("{:?}", b.kind), kind);
        assert_eq!(b.target_func, func);
        assert_eq!(format!("{:?}", b.planted), planted, "seed {seed} planted");
        let total: usize = b.program.progs.iter().map(|p| p.instrs.len()).sum();
        assert_eq!(total, instrs, "seed {seed} program size");
    }
}

#[test]
fn generated_programs_pass_both_serial_orders() {
    // Planted-race invariant: the defect needs a preemption. Checked at
    // full noise here (the corpus unit tests sweep the silent variant).
    for seed in 0..24u64 {
        let bug = generate(seed);
        for order in [[0u32, 1u32], [1, 0]] {
            let mut e = Engine::new(Arc::clone(&bug.program));
            for &t in &order {
                e.run_to_completion(ThreadId(t));
            }
            let failure = e.run_all_serial();
            assert!(
                failure.is_none(),
                "seed {seed} ({}) fails serially in order {order:?}: {failure:?}",
                bug.name,
            );
        }
    }
}

#[test]
fn pinned_seeds_agree_across_the_full_matrix_with_recall() {
    // The same harness `report fuzz` runs, on a small pinned range: every
    // cell of prune x memo x workers (plus the adaptive causality cells)
    // must produce a bit-identical digest and the reference chain must
    // contain a planted pair at both causality levels. `report fuzz`
    // checks the same gate over any seed range.
    let b = bench_corpus(0, 8, None);
    assert_eq!(b.seeds, 8);
    assert_eq!(b.cells, 24);
    assert_eq!(b.reproduced, 8, "every pinned seed reproduces");
    assert_eq!(b.digest_agreements, 8, "matrix digests diverged");
    assert_eq!(b.recall_hits, 8, "planted race missing from a chain");
    assert_eq!(
        b.adaptive_recall_hits, 8,
        "planted race missing from an adaptive chain"
    );
    assert!(b.divergences.is_empty(), "{:?}", b.divergences);
    assert!(b.meets_corpus_gate);
}

#[test]
fn reference_cell_digest_is_stable_across_repeat_runs() {
    // Same seed, same cell, fresh pools: the digest is a pure function of
    // the program, not of pool state left behind by earlier runs.
    let bug = generate(11);
    let cells = corpus_matrix();
    let reference = cells[0];
    let first = {
        let out = diagnose_generated(
            &bug,
            &reference.executor(),
            reference.prune,
            reference.causality,
        );
        generated_digest(&bug.name, out.as_ref())
    };
    let second = {
        let out = diagnose_generated(
            &bug,
            &reference.executor(),
            reference.prune,
            reference.causality,
        );
        generated_digest(&bug.name, out.as_ref())
    };
    assert!(!first.ends_with("no-repro"), "seed 11 must reproduce");
    assert_eq!(first, second);
}

#[test]
fn shrinking_preserves_the_planted_structure() {
    // A shrunk config regenerates the same family, failure class, and
    // racing variables — only noise and filler shrink, so a reproducer
    // seed stays meaningful at any ladder rung.
    let base = GenConfig::new(5);
    let full = generate_with(base);
    let min = shrink(&base, |c| {
        let b = generate_with(*c);
        b.family == full.family && b.kind == full.kind
    });
    assert_eq!(min.seed, base.seed);
    assert_eq!(min.noise_scale, 0.0);
    assert_eq!(min.max_filler, 0);
    let shrunk = generate_with(min);
    assert_eq!(shrunk.family, full.family);
    assert_eq!(shrunk.kind, full.kind);
    assert_eq!(shrunk.racing_vars, full.racing_vars);
    // And the shrunk program still reproduces with its planted race in
    // the chain on the reference cell.
    let cells = corpus_matrix();
    let out = diagnose_generated(
        &shrunk,
        &cells[0].executor(),
        cells[0].prune,
        cells[0].causality,
    )
    .expect("shrunk program still reproduces");
    assert!(shrunk.planted_in_chain(&out.1.chain));
}
