//! Figure-for-figure assertions against the paper.

use aitia_repro::aitia::{
    lifs::tree::NodeOutcome, CausalityAnalysis, CausalityConfig, Lifs, LifsConfig, PruneLevel,
    Verdict,
};
use aitia_repro::corpus::figures;
use std::sync::Arc;

/// Figure 5: serial orders first, then count-1 preemptions; the failure
/// reproduces at interleaving count 1 via the A1 preemption; non-conflicting
/// and equivalent candidates are pruned. The search runs at `conflict`, the
/// level of the paper's tree (and of `report fig5`).
#[test]
fn fig5_search_order_matches_paper() {
    let prog = Arc::new(figures::fig5());
    let config = LifsConfig {
        prune: PruneLevel::Conflict,
        ..LifsConfig::default()
    };
    let out = Lifs::new(Arc::clone(&prog), config).search();
    let nodes = &out.tree.nodes;
    // Orders 1 and 2: the serial executions, no failure.
    assert_eq!(nodes[0].interleavings, 0);
    assert_eq!(nodes[1].interleavings, 0);
    assert_eq!(nodes[0].outcome, NodeOutcome::NoFailure);
    assert_eq!(nodes[1].outcome, NodeOutcome::NoFailure);
    // The failure reproduces at interleaving count 1.
    let fail = nodes
        .iter()
        .find(|n| n.outcome == NodeOutcome::Failure)
        .expect("failure node");
    assert_eq!(fail.interleavings, 1);
    // The failing preemption is thread A at A1 switching to B (search
    // order 4's A1(m1) ⇒ B1(m1) in the paper).
    let desc = &fail.plan[0];
    assert_eq!(prog.instr_name(desc.at), "A1");
    // Pruned nodes exist (the grey paths / "skip (eqv.)" nodes).
    assert!(out.stats.pruned_nonconflicting + out.stats.pruned_equivalent > 0);
}

/// Figure 5's failing sequence is the paper's: A1 ⇒ B1 ⇒ B2 ⇒ (B3) ⇒ K1 ⇒
/// A2 ⇒ A3 — in particular K runs after B finishes and before A resumes.
#[test]
fn fig5_failing_sequence_interleaves_k_before_a_resumes() {
    let prog = Arc::new(figures::fig5());
    let run = Lifs::new(Arc::clone(&prog), LifsConfig::default())
        .search()
        .failing
        .expect("reproduces");
    let named: Vec<String> = run
        .trace
        .iter()
        .filter(|r| prog.meta_at(r.at()).is_some_and(|m| m.name.is_some()))
        .map(|r| prog.instr_name(r.at()))
        .collect();
    let pos = |n: &str| named.iter().position(|x| x == n);
    let (a1, b1, b3, k1, a3) = (
        pos("A1").expect("A1"),
        pos("B1").expect("B1"),
        pos("B3").expect("B3"),
        pos("K1").expect("K1"),
        pos("A3").expect("A3"),
    );
    assert!(a1 < b1, "{named:?}");
    assert!(b1 < b3, "{named:?}");
    assert!(b3 < k1, "{named:?}");
    assert!(k1 < a3, "{named:?}");
}

/// Figure 1 + Figure 3: the chain is `A1 ⇒ B1 → B2 ⇒ A2 → NULL deref` with
/// a race-steered causality edge between the links.
#[test]
fn fig1_chain_and_edge() {
    let prog = Arc::new(figures::fig1());
    let run = Lifs::new(Arc::clone(&prog), LifsConfig::default())
        .search()
        .failing
        .expect("reproduces");
    let res = CausalityAnalysis::new(CausalityConfig::default()).analyze(&run);
    let s = res.chain.to_string();
    assert!(s.starts_with("A1 ⇒ B1"), "{s}");
    assert!(s.contains("→"), "{s}");
    assert_eq!(res.edges.len(), 1, "{:?}", res.edges);
}

/// Figure 4: all three background-thread patterns reproduce with a chain
/// that includes a race against the background context.
#[test]
fn fig4_all_patterns_chain_through_background_threads() {
    for (name, prog, bg_thread) in [
        ("fig4a", figures::fig4a(), "kworker"),
        ("fig4b", figures::fig4b(), "rcu_cb"),
        ("fig4c", figures::fig4c(), "kworker"),
    ] {
        let prog = Arc::new(prog);
        let run = Lifs::new(Arc::clone(&prog), LifsConfig::default())
            .search()
            .failing
            .unwrap_or_else(|| panic!("{name} reproduces"));
        let res = CausalityAnalysis::new(CausalityConfig::default()).analyze(&run);
        let bg_prog = prog
            .progs
            .iter()
            .position(|p| p.name == bg_thread)
            .expect("background program");
        let in_chain = res.chain.nodes.iter().any(|n| {
            n.races()
                .iter()
                .any(|r| r.first.prog.0 as usize == bg_prog || r.second.prog.0 as usize == bg_prog)
        });
        assert!(in_chain, "{name}: chain {} misses {bg_thread}", res.chain);
    }
}

/// Figure 7: both variants, with the verdict split the paper describes —
/// ambiguous when the nested race is causal, decidable when it is benign.
#[test]
fn fig7_verdicts() {
    let check = |prog: ksim::Program, expect_ambiguous: bool| {
        let prog = Arc::new(prog);
        let run = Lifs::new(Arc::clone(&prog), LifsConfig::default())
            .search()
            .failing
            .expect("reproduces");
        let res = CausalityAnalysis::new(CausalityConfig::default()).analyze(&run);
        assert_eq!(
            !res.ambiguous().is_empty(),
            expect_ambiguous,
            "chain {} verdicts {:?}",
            res.chain,
            res.tested
                .iter()
                .map(|t| (t.race.key(), t.verdict))
                .collect::<Vec<_>>()
        );
        if expect_ambiguous {
            // The nested race is causal and in the chain.
            assert!(res.tested.iter().any(|t| t.verdict == Verdict::Causal));
        }
    };
    check(figures::fig7_ambiguous(), true);
    check(figures::fig7_clear(), false);
}

/// The CVE-2017-15649 walkthrough of Figure 6: four causal races, the
/// multi-variable conjunction, and the pending `B17 ⇒ A12` link.
#[test]
fn fig6_full_walkthrough() {
    let bug = aitia_repro::corpus::cves()
        .into_iter()
        .find(|b| b.id == "CVE-2017-15649")
        .unwrap();
    let prog = bug.program(aitia_repro::corpus::noise::NoiseSpec::silent());
    let run = Lifs::new(Arc::clone(&prog), bug.lifs_config())
        .search()
        .failing
        .expect("reproduces");
    // The pending race is in the test set: its second end is A12, never
    // executed in the failing run.
    let pending = run
        .races
        .iter()
        .find(|r| matches!(r.second, aitia_repro::aitia::RaceEnd::Pending { .. }))
        .expect("pending race (B17 ⇒ A12)");
    assert_eq!(prog.instr_name(pending.second.at()), "A12");
    let res = CausalityAnalysis::new(CausalityConfig::default()).analyze(&run);
    let s = res.chain.to_string();
    for expected in [
        "A2 ⇒ B11",
        "B2 ⇒ A6",
        "A6 ⇒ B12",
        "B17 ⇒ A12",
        "∧",
        "BUG_ON",
    ] {
        assert!(s.contains(expected), "chain {s} missing {expected}");
    }
}
