//! The Figure 5 walkthrough: how Least Interleaving First Search explores.
//!
//! Prints the search tree for the paper's three-thread example — serial
//! orders first (interleaving count 0), then single preemptions front to
//! back, with partial-order-reduction skips — and shows the effect of
//! disabling the pruning (the ablation).
//!
//! ```text
//! cargo run --release --example lifs_search_tree
//! ```

use aitia_repro::aitia::{
    Lifs,
    LifsConfig,
    PruneLevel, //
};
use aitia_repro::corpus::figures;
use std::sync::Arc;

fn main() {
    let program = Arc::new(figures::fig5());
    println!("Figure 5 program: {}\n", program.name);

    // The paper's `conflict` level, as `report fig5` prints it; the
    // library default is the stronger `dpor`, shown last.
    let with_por = Lifs::new(
        Arc::clone(&program),
        LifsConfig {
            prune: PruneLevel::Conflict,
            ..LifsConfig::default()
        },
    )
    .search();
    println!("search tree (with partial-order reduction):");
    print!("{}", with_por.tree.render(&program));
    let run = with_por.failing.expect("reproduces");
    println!(
        "\nfailure: {} — reproduced at interleaving count {}",
        run.failure, with_por.stats.interleaving_count
    );
    println!(
        "schedules executed: {}, pruned (non-conflicting): {}, pruned (equivalent): {}",
        with_por.stats.schedules_executed,
        with_por.stats.pruned_nonconflicting,
        with_por.stats.pruned_equivalent
    );
    println!("failure-causing sequence:");
    let named: Vec<String> = run
        .trace
        .iter()
        .filter(|r| program.meta_at(r.at()).is_some_and(|m| m.name.is_some()))
        .map(|r| program.instr_name(r.at()))
        .collect();
    println!("  {}", named.join(" ⇒ "));

    // Ablations: the same search without any pruning, and with the full
    // DPOR sleep-set / persistent-set rules.
    let no_por = Lifs::new(
        Arc::clone(&program),
        LifsConfig {
            prune: PruneLevel::Off,
            ..LifsConfig::default()
        },
    )
    .search();
    println!(
        "\nwithout pruning: {} schedules (pruning saved {})",
        no_por.stats.schedules_executed,
        no_por
            .stats
            .schedules_executed
            .saturating_sub(with_por.stats.schedules_executed)
    );
    assert!(no_por.failing.is_some());
    assert!(no_por.stats.schedules_executed >= with_por.stats.schedules_executed);

    let dpor = Lifs::new(
        Arc::clone(&program),
        LifsConfig {
            prune: PruneLevel::Dpor,
            ..LifsConfig::default()
        },
    )
    .search();
    println!(
        "with full DPOR: {} schedules (sleep-set skips: {}, persistent-set skips: {})",
        dpor.stats.schedules_executed, dpor.stats.pruned_sleep_set, dpor.stats.pruned_persistent
    );
    assert!(dpor.failing.is_some());
    assert!(dpor.stats.schedules_executed <= with_por.stats.schedules_executed);
}
