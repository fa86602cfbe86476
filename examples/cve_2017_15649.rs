//! The paper's running example: CVE-2017-15649 (packet fanout).
//!
//! Reproduces Figures 2 and 6: a *multi-variable* race on the tightly
//! correlated pair `po->running` / `po->fanout`, a race-steered control
//! flow, a pending race past the failure point (`B17 ⇒ A12`), and the
//! four-race causality chain with a conjunction:
//!
//! ```text
//! (A2 ⇒ B11 ∧ B2 ⇒ A6) → A6 ⇒ B12 → B17 ⇒ A12 → BUG_ON()
//! ```
//!
//! ```text
//! cargo run --release --example cve_2017_15649
//! ```

use aitia_repro::aitia::{
    CausalityAnalysis,
    CausalityConfig,
    Lifs, //
};
use aitia_repro::corpus;

fn main() {
    let bug = corpus::cves()
        .into_iter()
        .find(|b| b.id == "CVE-2017-15649")
        .expect("corpus contains the CVE");
    println!("{}\n", bug.doc);

    // Build the model without noise so the walkthrough matches Figure 6
    // line for line; the benchmark harness runs the calibrated noisy
    // version.
    let program = bug.program(corpus::noise::NoiseSpec::silent());

    // The crash report (modeled): BUG in fanout_unlink. LIFS searches for
    // exactly that failure — the same code can also corrupt the fanout
    // list, which is a different bug.
    let search = Lifs::new(program.clone(), bug.lifs_config()).search();
    let run = search.failing.expect("reproduces");
    println!(
        "LIFS: reproduced `{}` at interleaving count {} after {} schedules",
        run.failure, search.stats.interleaving_count, search.stats.schedules_executed
    );
    println!("failure-causing instruction sequence:");
    let named: Vec<String> = run
        .trace
        .iter()
        .filter(|r| program.meta_at(r.at()).is_some_and(|m| m.name.is_some()))
        .map(|r| program.instr_name(r.at()))
        .collect();
    println!("  {}\n", named.join(" ⇒ "));

    // Causality Analysis, backward over the data races (Figure 6 steps).
    let result = CausalityAnalysis::new(CausalityConfig::default()).analyze(&run);
    println!("Causality Analysis (backward):");
    for t in &result.tested {
        let (f, s) = t.race.key();
        println!(
            "  flip {:>4} ⇒ {:<4} → {:?}{}",
            program.instr_name(f),
            program.instr_name(s),
            t.verdict,
            if t.vanished.is_empty() {
                String::new()
            } else {
                format!("  (race-steered: {} race(s) vanished)", t.vanished.len())
            }
        );
    }
    println!("\ncausality chain: {}", result.chain);
    assert_eq!(result.chain.race_count(), 4);
    assert!(result.chain.to_string().contains('∧'));

    // The paper's point about wrong fixes: enforcing only B17 ⇒ A12 would
    // leave the concurrent fanout_link() corruption — the chain carries all
    // four orders a correct fix must consider.
}
